"""Run counters and the checkable complexity laws they feed.

The engine's asymptotics rest on a handful of countable quantities: how
many new blocks splits create, how often each state sits in the smaller
half rescanned by the edge-table update, and how removal sets stay disjoint
across nested selections. This module holds the counters and turns each
bound into a boolean assertion usable at desk scale.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field


@dataclass
class RunStats:
    """Counters for one engine run.

    ``findprefiner_null_returns`` counts partition-stability certifications:
    the terminal full refiner search of ``SimulationEngine.run``, which must
    come up empty. A completed run makes exactly one, so with stats enabled
    the counter is 1 on every completed run.

    ``smaller_half_state_scans`` maps a state id to the number of times it
    was rescanned as a member of the smaller half during edge-table updates.

    ``remove_elements_total`` sums the sizes of the per-block pending
    removal sets over pruning rounds: each round counts its sets as it
    reads them.

    ``remove_trace`` records, per selection of a block with a pending
    removal set, the selected block's state set and the state union of
    the pending set; it feeds :func:`assert_remove_disjointness`.
    """

    splits_total: int = 0
    prefiner_calls: int = 0
    findprefiner_null_returns: int = 0
    smaller_half_state_scans: Counter = field(default_factory=Counter)
    remove_elements_total: int = 0
    pairs_removed_total: int = 0
    remove_trace: list = field(default_factory=list, repr=False)

    @property
    def new_blocks_total(self) -> int:
        """Blocks created by splits: each split cuts one block into two."""
        return 2 * self.splits_total

    @property
    def max_smaller_half_scans(self) -> int:
        return max(self.smaller_half_state_scans.values(), default=0)

    def to_dict(self) -> dict:
        return {
            "splits_total": self.splits_total,
            "new_blocks_total": self.new_blocks_total,
            "prefiner_calls": self.prefiner_calls,
            "findprefiner_null_returns": self.findprefiner_null_returns,
            "smaller_half_max_scans": self.max_smaller_half_scans,
            "smaller_half_total_scans": sum(self.smaller_half_state_scans.values()),
            "remove_elements_total": self.remove_elements_total,
            "pairs_removed_total": self.pairs_removed_total,
        }

    def to_text(self) -> str:
        """Flat key=value block, one counter per line."""
        return "\n".join(f"{k}={v}" for k, v in self.to_dict().items())


def scan_limit(n_states: int) -> int:
    """ceil(log2(n_states)) as exact integer arithmetic; 0 for n <= 1."""
    if n_states <= 1:
        return 0
    return (n_states - 1).bit_length()


def assert_block_bound(stats: RunStats, p_ell_size: int, p_sim_size: int) -> bool:
    """Splits create exactly two new blocks per gained final block.

    This holds by construction on an engine run: ``new_blocks_total`` is
    ``2 * splits_total``, every ``(kept, new)`` pair ``split`` returns
    adds one block, and no block is ever dropped. So the law guards the
    ``splits_total`` counter against miscounting, not the algorithm.
    ``simrel bench`` and the benchmark's ``laws_error`` still evaluate it.
    """
    return stats.new_blocks_total == 2 * (p_sim_size - p_ell_size)


def assert_smaller_half_bound(stats: RunStats, n_states: int) -> bool:
    """No state is rescanned as smaller-half member more than ceil(log2 n) times."""
    return stats.max_smaller_half_scans <= scan_limit(n_states)


def assert_remove_disjointness(trace) -> bool:
    """Nested selections never share removal-set states.

    ``trace`` is a sequence of ``(selected_states, removed_union_states)``
    frozenset pairs. For any two entries whose selected blocks are nested
    (or equal), the removal unions must be disjoint.

    Precondition: the selections are nonempty blocks of a refining
    partition, so any two are nested or disjoint. Two entries then share
    a selected state exactly when they are nested, and the rule becomes:
    no (selected, removed) state pair shows up twice. That is checked in
    one pass, with per selected state an int bitset of the states removed
    so far, instead of comparing every pair of entries.
    """
    removed: dict[int, int] = {}
    for sel, union in trace:
        flags = bytearray(max(union, default=0) // 8 + 1)
        for t in union:
            flags[t >> 3] |= 1 << (t & 7)
        mask = int.from_bytes(flags, "little")
        for s in sel:
            seen = removed.get(s, 0)
            if seen & mask:
                return False
            removed[s] = seen | mask
    return True
