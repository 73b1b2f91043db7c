"""Brute-force simulation preorder, used as the correctness reference.

Deliberately naive: start from the label-equality relation and delete
pairs that fail the step-matching condition, sweep after sweep, until
nothing changes. The fixpoint is the largest simulation. Each row of the
relation is an int bitset, so a sweep costs one C-level OR per related
pair and one AND per transition. The module shares no code with the
engine: it imports only :mod:`simrel.kripke` and walks its bits itself.
Callers cap it at 64 states (``simrel verify``'s limit), since the number
of sweeps and the work of each grow with the relation.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_

from .kripke import KripkeStructure

# "0"/"1" digits to the 0/1 bytes of a bytearray row
_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\x00\x01")
# any nonzero byte of a row reads as related: 0 to "0", all else to "1"
_FLAG_TO_DIGIT = bytes([48] + [49] * 255)


def _flags(row: int, n: int) -> bytearray:
    """Bitset ``row`` as n bytes, byte t set iff bit t is; exact for n = 0."""
    # bit n is a sentinel, so the digits are exactly n + 1 wide; dropping
    # it after the reversal leaves bits 0 .. n-1 in index order
    return bytearray(format(row | 1 << n, "b")[:0:-1], "ascii").translate(_DIGIT_TO_FLAG)


def _bitset(flags: bytearray) -> int:
    """Row of bytes as an int bitset, bit t set iff byte t is nonzero."""
    return int(flags[::-1].translate(_FLAG_TO_DIGIT), 2)


class StateRelation:
    """Explicit boolean relation over state pairs of one structure."""

    __slots__ = ("n", "matrix")

    def __init__(self, n: int, matrix: list[bytearray] | None = None):
        self.n = n
        if matrix is None:
            matrix = [bytearray(n) for _ in range(n)]
        if len(matrix) != n or any(len(row) != n for row in matrix):
            raise ValueError("matrix dimensions must equal n x n")
        self.matrix = matrix

    def contains(self, s: int, t: int) -> bool:
        return bool(self.matrix[s][t])

    def pairs(self):
        for s in range(self.n):
            row = self.matrix[s]
            for t in range(self.n):
                if row[t]:
                    yield (s, t)

    def is_reflexive(self) -> bool:
        return all(self.matrix[s][s] for s in range(self.n))

    def is_transitive(self) -> bool:
        """Whether row(t) is a subset of row(s) for every t in row(s)."""
        rows = [_bitset(flags) for flags in self.matrix]
        return all(
            not row_t & ~row_s
            for row_s, flags in zip(rows, self.matrix)
            for row_t in compress(rows, flags)
        )

    def is_preorder(self) -> bool:
        return self.is_reflexive() and self.is_transitive()

    def __eq__(self, other):
        if not isinstance(other, StateRelation):
            return NotImplemented
        return self.n == other.n and self.matrix == other.matrix

    def __repr__(self):
        return f"StateRelation(n={self.n}, pairs={sum(map(sum, self.matrix))})"


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
    return StateRelation(n, [_flags(row, n) for row in rel])


def simulation_partition(rel: StateRelation):
    """Equivalence classes of mutual relatedness plus the block order.

    Returns ``(blocks, leq)``: blocks ordered by smallest member, and
    ``leq[i][j]`` true iff representatives of block i relate into block j.
    Raises ``ValueError`` if ``rel`` is not a preorder.
    """
    if not rel.is_preorder():
        raise ValueError("relation is not a preorder")
    n = rel.n
    assigned = [-1] * n
    blocks: list[list[int]] = []
    for s in range(n):
        if assigned[s] >= 0:
            continue
        members = [
            t
            for t in range(s, n)
            if assigned[t] < 0 and rel.matrix[s][t] and rel.matrix[t][s]
        ]
        idx = len(blocks)
        for t in members:
            assigned[t] = idx
        blocks.append(members)
    # blocks already come out ordered by smallest member (scan order)
    k = len(blocks)
    leq = [[False] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            leq[i][j] = bool(rel.matrix[blocks[i][0]][blocks[j][0]])
    return blocks, leq
