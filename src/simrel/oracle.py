"""Brute-force simulation preorder, used as the correctness reference.

Deliberately naive: start from the label-equality relation and delete
pairs that fail the step-matching condition, sweep after sweep, until
nothing changes. The fixpoint is the largest simulation. A relation is
held as one int bitset row per state, bit t of row s set iff (s, t) is
related, so a sweep costs one C-level OR per related pair and one AND per
transition. The module shares no code with the engine: it imports only
:mod:`simrel.kripke` and walks its bits itself.

The number of sweeps and the work of each grow with the relation.
``simrel verify`` caps the structures it checks at 64 states. The
benchmark's reference check has no cap: it runs ``simulation_partition``
of ``brute_force_simulation`` on every random instance without a stored
digest, and digests cover bench seeds 0-31, so the ``multilabel``
workload at seed 32 runs it at 1,600 states. On a shared 2-core x86 host
``generate_random_ks(800, 3, 3/800, 800)`` takes about 0.14 s for the
brute force plus 0.08 s for the partition, and the 1,600-state instances
about 0.3 s for each.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_

from .kripke import KripkeStructure

# "0"/"1" digits to the 0/1 bytes of a flag row
_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\x00\x01")


def _flags(row: int, n: int) -> bytes:
    """Bitset ``row`` as n bytes, byte t set iff bit t is; exact for n = 0."""
    # bit n is a sentinel, so the digits are exactly n + 1 wide; dropping
    # it after the reversal leaves bits 0 .. n-1 in index order
    return format(row | 1 << n, "b")[:0:-1].encode().translate(_DIGIT_TO_FLAG)


class StateRelation:
    """Explicit relation over the states of one structure.

    ``matrix[s]`` is state s's row as an int bitset: bit t is set iff
    (s, t) is related.
    """

    __slots__ = ("n", "matrix")

    def __init__(self, n: int, matrix: list[int]):
        if len(matrix) != n or any(not 0 <= row < 1 << n for row in matrix):
            raise ValueError("matrix must hold n rows, each in [0, 2**n)")
        self.n = n
        self.matrix = matrix

    def is_reflexive(self) -> bool:
        return all(row >> s & 1 for s, row in enumerate(self.matrix))

    def is_transitive(self) -> bool:
        """Whether row(t) is a subset of row(s) for every t in row(s)."""
        rows = self.matrix
        return all(
            not row_t & ~row_s
            for row_s in rows
            for row_t in compress(rows, _flags(row_s, self.n))
        )

    def is_preorder(self) -> bool:
        return self.is_reflexive() and self.is_transitive()

    def __eq__(self, other):
        if not isinstance(other, StateRelation):
            return NotImplemented
        return self.n == other.n and self.matrix == other.matrix

    def __repr__(self):
        return f"StateRelation(n={self.n}, pairs={sum(row.bit_count() for row in self.matrix)})"


def brute_force_simulation(ks: KripkeStructure) -> StateRelation:
    """Largest simulation on ``ks`` by fixpoint iteration.

    Starts from all label-equal pairs and sweeps until a sweep deletes
    nothing. A pair (s, t) survives a sweep when every move s -> s2 is
    matched by a move t -> t2 with (s2, t2) related; in set form,
    ``rel[s]`` shrinks to its meet with ``pre(rel[s2])`` for every
    successor s2 of s. Rows are int bitsets: a sweep takes one C-level OR
    per related pair and one AND per transition, and no Python step per
    state pair. The result is a preorder.
    """
    n = ks.num_states
    classes: dict[frozenset, int] = {}
    for s, label in enumerate(ks.labels):
        classes[label] = classes.get(label, 0) | 1 << s
    rel = [classes[label] for label in ks.labels]
    pre = [0] * n
    for s, targets in enumerate(ks.succ):
        bit = 1 << s
        for t in targets:
            pre[t] |= bit

    changed = True
    while changed:
        changed = False
        # can[u]: the states with a move into rel[u], able to match a move to u
        can = [reduce(or_, compress(pre, _flags(row, n)), 0) for row in rel]
        for s, targets in enumerate(ks.succ):
            row = rel[s]
            for s2 in targets:
                row &= can[s2]
            if row != rel[s]:
                rel[s] = row
                changed = True
    return StateRelation(n, rel)


def simulation_partition(rel: StateRelation):
    """Equivalence classes of mutual relatedness plus the block order.

    Returns ``(blocks, leq)``: blocks ordered by smallest member, and
    ``leq[i][j]`` true iff representatives of block i relate into block j.
    Raises ``ValueError`` if ``rel`` is not a preorder.
    """
    if not rel.is_preorder():
        raise ValueError("relation is not a preorder")
    n, rows = rel.n, rel.matrix
    blocks: list[list[int]] = []
    placed = 0
    for s in range(n):
        if not placed >> s & 1:
            # s's class: the states s relates to that relate back to it,
            # none of them below s, or s would be placed already
            members = [t for t in compress(range(n), _flags(rows[s], n)) if rows[t] >> s & 1]
            placed |= sum(1 << t for t in members)
            blocks.append(members)
    # blocks already come out ordered by smallest member (scan order)
    leq = [[bool(rows[a[0]] >> b[0] & 1) for b in blocks] for a in blocks]
    return blocks, leq
