"""Run counters and the checkable complexity laws they feed.

The engine's asymptotics rest on a handful of countable quantities: how
many new blocks splits create, how often each state sits in the smaller
half rescanned by the counter update, and how removal sets stay disjoint
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
    refiner searches that came up empty in a stabilization call that split
    nothing. At most one such call can occur per run (it ends the run), so
    the counter is always 0 or 1.

    ``smaller_half_state_scans`` maps a state id to the number of times it
    was rescanned as a member of the smaller half during counter updates.

    ``remove_trace`` records, per selection of a block with a pending
    removal set, the selected block's state set and the state union of
    the pending set; it feeds :func:`assert_remove_disjointness`.
    """

    splits_total: int = 0
    new_blocks_total: int = 0
    prefiner_calls: int = 0
    findprefiner_null_returns: int = 0
    smaller_half_state_scans: Counter = field(default_factory=Counter)
    remove_elements_total: int = 0
    pairs_removed_total: int = 0
    remove_trace: list = field(default_factory=list, repr=False)

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
    """Splits create exactly two new blocks per gained final block."""
    return stats.new_blocks_total == 2 * (p_sim_size - p_ell_size)


def assert_smaller_half_bound(stats: RunStats, n_states: int) -> bool:
    """No state is rescanned as smaller-half member more than ceil(log2 n) times."""
    return stats.max_smaller_half_scans <= scan_limit(n_states)


def assert_remove_disjointness(trace) -> bool:
    """Nested selections never share removal-set states.

    ``trace`` is a sequence of ``(selected_states, removed_union_states)``
    frozenset pairs. For any two entries whose selected blocks are nested
    (or equal), the removal unions must be disjoint.
    """
    entries = list(trace)
    for i in range(len(entries)):
        sel_i, union_i = entries[i]
        for j in range(i + 1, len(entries)):
            sel_j, union_j = entries[j]
            if sel_i >= sel_j or sel_j >= sel_i:
                if union_i & union_j:
                    return False
    return True
