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

from .prcore import bits


@dataclass
class RunStats:
    """Counters for one engine run.

    ``findprefiner_null_returns`` counts partition-stability certifications:
    the terminal full refiner search of ``SimulationEngine.run``, which must
    come up empty. A completed run makes exactly one, so with stats enabled
    the counter is 1 on every completed run.

    ``smaller_half_state_scans`` maps a state id to the number of times it
    was rescanned as a member of the smaller half during edge-table updates.
    It stays per state: the smaller-half law bounds the per-state maximum,
    which no count per block gives, since a cut moves states to a new
    block.

    ``remove_trace`` holds one record per pruning round, ``(first, owners,
    selections)``, in block ids only. ``first`` is the number of blocks
    that held a removal set when the round started, those that existed
    when the sets were started, by the round before or, for the first
    round, by ``SimulationEngine.initialize`` before its entry cuts;
    ``owners[i]`` is the owner of block ``first + i``, made since, whose
    set it took; and
    ``selections`` lists ``(c, pending)`` for each block c the round
    selected, in selection order, ``pending`` being c's nonzero pending
    removal set as a bitset of the round's block ids. It feeds
    :func:`assert_remove_disjointness`, which gives the ids their states
    through the records after them.

    ``to_dict`` derives ``remove_elements_total`` from the trace: the sizes
    of the pending sets, each counted once per round that reads it.
    """

    splits_total: int = 0
    prefiner_calls: int = 0
    findprefiner_null_returns: int = 0
    smaller_half_state_scans: Counter = field(default_factory=Counter)
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
            "remove_elements_total": sum(
                pending.bit_count() for *_, sels in self.remove_trace for _, pending in sels
            ),
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
    adds one block, and no block is ever dropped. The entry cuts of
    ``SimulationEngine.initialize`` are splits too, counted in
    ``splits_total``, so ``p_ell_size`` is the number of label classes.
    So the law guards the ``splits_total`` counter against miscounting,
    not the algorithm.
    ``simrel bench`` and the benchmark's ``laws_error`` still evaluate it.
    """
    return stats.new_blocks_total == 2 * (p_sim_size - p_ell_size)


def assert_smaller_half_bound(stats: RunStats, n_states: int) -> bool:
    """No state is rescanned as smaller-half member more than ceil(log2 n) times."""
    return stats.max_smaller_half_scans <= scan_limit(n_states)


def assert_remove_disjointness(trace) -> bool:
    """Nested selections never share removed states.

    ``trace`` is a ``RunStats.remove_trace``: per pruning round, ``(first,
    owners, selections)``. For any two selections whose selected blocks
    are nested (or equal), the removed states must be disjoint. The
    partition only refines, so any two selected blocks are nested or
    disjoint, and the rule becomes: no (selected, removed) state pair
    shows up twice.

    That is decided over the final blocks in one backward pass. A block
    made in a partition phase, or by an entry cut, lies inside its owner,
    which held those states in the round before, so folding each round's newer blocks into
    their owners, last round first, rebuilds every earlier partition as
    bitsets of final blocks, ``members``. A final block's states are never
    apart in any earlier partition, so a (selected, removed) pair of states
    repeats exactly when the pair of their final blocks does.
    ``removed[c]`` holds the final blocks removed so far under selections
    of blocks inside c, and folds into c's owner with c. That union is
    exact for the test: a selection of c in an earlier round holds every
    final block inside c, so it repeats a pair iff its removed blocks meet
    the union.
    """
    first, owners, _ = trace[-1] if trace else (0, [], [])
    members = [1 << b for b in range(first + len(owners))]
    removed = [0] * len(members)
    for first, owners, selections in reversed(trace):
        for sel, pending in selections:
            # a round's blocks are disjoint, so their members add as they OR
            mask = sum(map(members.__getitem__, bits(pending)))
            if removed[sel] & mask:
                return False
            removed[sel] |= mask
        # the ids from first on name no block of an earlier round, so
        # their entries are not read again
        for b, owner in enumerate(owners, first):
            members[owner] |= members[b]
            removed[owner] |= removed[b]
    return True
