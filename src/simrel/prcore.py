"""Mutable partition-relation state shared by the refinement engine.

A block is its int id, and every table about blocks is a list indexed
by id. The state set is kept as one ordered array of state ids in which
block b owns the contiguous segment ``[begin[b], end[b])``; ``pos`` maps
a state back to its position and ``state_block`` to its block's id.
``split`` cuts one block properly in two, given the states of one part,
and returns the ``(kept, new)`` id pair. The new id always goes to the
smaller half, as in Valmari's refinable partition, so the engine needs
to walk only the new half's states and edges. Moving a state to the
given part's side of its block is a single swap at the segment boundary,
and only the new half's states are relabelled, so a split costs O(part
size) and touches no other block. Block ids are never recycled; they
index the segment lists and the block relation, held here as Python-int
bitsets over block ids in both directions (``up[b]``, the blocks above
b, and ``down[c]``, the blocks below c).
``extract_result`` hands the converged pair out as a ``SimulationResult``
that keeps the relation as bits too: one int row per block, renumbered
into result order. A row with at least one bit in eight set is
renumbered in one C-level pass of one byte per block, at most eight per
set bit, and a sparser row in one Python step per set bit, so the work
of extraction follows the size of the relation rather than the square of
the block count. ``SimulationResult.state_matrix`` hands out the relation
over states in the same form as the reference, one int bitset row per
state.
``bits`` and ``bit_flags`` read a bitset back as indices or as one byte
per bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import itemgetter

from .kripke import KripkeStructure, initial_label_partition

# bin() digits to bytes 0 and 1, and back
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
_FLAG_DIGITS = bytes.maketrans(b"\0\1", b"01")


def bits(x: int) -> list[int]:
    """Indices of the set bits of ``x >= 0``, in increasing order.

    Both walks read ``bin(x)`` reversed, least significant bit first. A
    sparse ``x`` is walked with ``str.find``, one step per set bit; a
    dense one (at least one bit in eight set) is turned into one byte per
    bit and compressed against the index range, which skips the per-bit
    Python step.
    """
    digits = bin(x)[:1:-1]
    if x.bit_count() * 8 >= len(digits):
        return list(compress(range(len(digits)), digits.encode().translate(_DIGIT_FLAGS)))
    out = []
    i = digits.find("1")
    while i >= 0:
        out.append(i)
        i = digits.find("1", i + 1)
    return out


def bit_flags(x: int, width: int) -> bytes:
    """One byte per bit of ``x >= 0``: byte i is 1 iff bit i is set.

    Padded with zero bytes to at least ``width``, so every index below
    ``width`` can be read; use it where one bitset is tested many times.
    """
    return bin(x)[:1:-1].encode().translate(_DIGIT_FLAGS).ljust(width, b"\0")


@dataclass(frozen=True)
class SimulationResult:
    """Immutable final partition plus the partial order on its blocks.

    Blocks are ordered by smallest member. ``rows[i]`` is block i's row
    of the order as a bitset over result block indices: bit j is set iff
    every state of block j simulates every state of block i.
    ``order_pairs()`` and ``state_matrix()`` are views of the rows; the
    latter is one int bitset row per state, the form of
    ``StateRelation.matrix``.
    """

    partition: tuple[tuple[int, ...], ...]
    rows: tuple[int, ...]

    @property
    def num_states(self) -> int:
        return sum(len(b) for b in self.partition)

    def state_matrix(self) -> list[int]:
        """The represented state relation, one int bitset row per state:
        bit t of row s is set iff block(s) is below block(t).

        A state's row is the OR of the member masks of the blocks above
        its block.
        """
        masks = [sum(1 << s for s in members) for members in self.partition]
        matrix = [0] * self.num_states
        for members, row in zip(self.partition, self.rows):
            # the masks are disjoint, so their sum is their OR
            above = sum(map(masks.__getitem__, bits(row)))
            for s in members:
                matrix[s] = above
        return matrix

    def order_pairs(self) -> list[tuple[int, int]]:
        """Non-diagonal related block index pairs, row-major."""
        out: list[tuple[int, int]] = []
        for i, row in enumerate(self.rows):
            out.extend(zip(repeat(i), bits(row & ~(1 << i))))
        return out


class PartitionRelationPair:
    """The engine's mutable core: segmented state ordering, block segments,
    and the block relation.

    A block is its int id. ``states[p]`` is the state at position p,
    ``pos`` its inverse, and ``state_block[s]`` the id of the block owning
    state s. Block b owns the segment ``[begin[b], end[b])``; every id
    below ``len(begin)`` is live, since a split registers a new half only
    for a block it cuts properly. The relation is held twice, as bitsets
    over block ids: bit c of ``up[b]`` and bit b of ``down[c]`` are set
    iff block b is related below block c. Every writer keeps the two in
    step.
    """

    __slots__ = ("states", "pos", "state_block", "begin", "end", "up", "down")

    def __init__(self, states, pos, state_block, begin, end, up, down):
        self.states: list[int] = states
        self.pos: list[int] = pos
        self.state_block: list[int] = state_block
        self.begin: list[int] = begin
        self.end: list[int] = end
        self.up: list[int] = up
        self.down: list[int] = down

    def block_states(self, b: int) -> list[int]:
        return self.states[self.begin[b] : self.end[b]]

    def split(self, inside: list[int]) -> tuple[int, int]:
        """Cut one block in two and return the ``(kept, new)`` id pair.

        ``inside`` is a duplicate-free, proper and nonempty part of one
        block's states; its order sets the order of the segment, and no
        result or counter of the engine depends on it. ``new`` is the next
        free id and gets the smaller part, the ``inside`` part on a tie, and
        ``kept`` keeps the block's id and the larger part. Each state of
        ``inside`` is swapped to the end of the block's segment, so only
        that segment is permuted, and ``state_block`` is written only for
        the states of the new part: a split costs O(|inside|) and touches
        no other block. A part and the states it leaves out give the same
        two halves, so the engine passes whichever its search listed, the
        left-out states where it counted those instead of the part.
        """
        states, pos, state_block, begin, end = (
            self.states, self.pos, self.state_block, self.begin, self.end
        )
        kept = state_block[inside[0]]
        lo, hi = begin[kept], end[kept]
        q = hi
        for s in inside:
            q -= 1
            p = pos[s]
            if p != q:
                other = states[q]
                states[p], states[q] = other, s
                pos[s] = q
                pos[other] = p
        new = len(begin)
        # [q, hi) now holds inside; the smaller part takes the new id
        if hi - q > q - lo:
            begin.append(lo)
            end.append(q)
            begin[kept] = q
        else:
            begin.append(q)
            end.append(hi)
            end[kept] = q
        for s in states[begin[new] : end[new]]:
            state_block[s] = new
        return kept, new

    def extract_result(self) -> SimulationResult:
        """Copy the converged pair into an immutable result.

        Each result row is block b's ``up[b]`` with its bits renumbered
        into result order, chosen by the row's density as ``bits`` chooses
        its walk. A row with at least one set bit per eight blocks is
        renumbered in one C-level pass: the getter reads b's flags from the last result block to the
        first, so that the bytes are the row's binary digits, most
        significant first. Its first index reads a padding byte, a leading
        zero digit, which keeps its return value a tuple even for one
        block. A sparser row is the sum of ``rank_bit[c]``, the bit of c's
        result index, over its set bits c, so its cost follows the bits it
        holds rather than the block count.
        """
        nb = len(self.begin)
        members = [sorted(self.block_states(b)) for b in range(nb)]
        ordered = sorted(range(nb), key=lambda b: members[b][0])
        partition = tuple(tuple(members[b]) for b in ordered)
        rank_bit = [0] * nb
        for i, b in enumerate(ordered):
            rank_bit[b] = 1 << i
        digits = itemgetter(nb, *reversed(ordered))
        rows = []
        for row in map(self.up.__getitem__, ordered):
            if row.bit_count() * 8 >= nb:
                rows.append(int(bytes(digits(bit_flags(row, nb + 1))).translate(_FLAG_DIGITS), 2))
            else:
                rows.append(sum(map(rank_bit.__getitem__, bits(row))))
        return SimulationResult(partition, tuple(rows))


def init_pr(ks: KripkeStructure) -> PartitionRelationPair:
    """Pair for the label partition with the identity block relation.

    States are laid out so each label block is contiguous; blocks are
    created in smallest-member order.
    """
    states: list[int] = []
    begin: list[int] = []
    end: list[int] = []
    pos = [0] * ks.num_states
    state_block = [0] * ks.num_states
    for b, members in enumerate(initial_label_partition(ks)):
        begin.append(len(states))
        for s in members:
            pos[s] = len(states)
            states.append(s)
            state_block[s] = b
        end.append(len(states))
    identity = [1 << b for b in range(len(begin))]
    return PartitionRelationPair(
        states, pos, state_block, begin, end, identity, identity[:]
    )
