"""Mutable partition-relation state shared by the refinement engine.

The state set is kept as one ordered array of state ids in which every
live block owns a contiguous segment ``[begin, end)``; ``pos`` maps a
state back to its position and ``state_block`` to its block. ``split``
cuts each block the splitter meets properly into a ``(kept, new)`` pair
and returns the pairs: moving a state into its block's new half is a
single swap at the segment boundary, so a split costs O(splitter size)
and touches no other block. Block ids are never recycled; they index the
block relation, held here as Python-int bitsets over block ids in both
directions (``up[b]``, the blocks above b, and ``down[c]``, the blocks
below c), and the engine's own lists: sparse counter rows, removal sets
and worklist flags. The engine gives each new half its kept half's row
and column. Which blocks have edges into which is recorded once, in
each block's ``pre_e``, the only table a block carries. ``bits`` and
``bit_flags`` read a bitset back as indices or as one byte per bit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress, islice, repeat
from operator import itemgetter
from typing import Iterable

from .kripke import KripkeStructure, initial_label_partition

# bin() digits to bytes 0 and 1
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")


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


class Block:
    """A live partition block: a segment of the state ordering plus its
    predecessor block set.

    ``index`` is the block's id, its bit in every bitset and its entry in
    every table indexed by block id: the relation here, the engine's
    counter rows, removal sets and worklist flags. ``[begin, end)`` is its
    segment of the state ordering. ``pre_e`` holds, in first-edge order,
    every block with a transition into this one; its values are unused.
    A block keeps no engine bookkeeping and no split-time scratch:
    ``split`` returns its pairs, and the blocks descended from one block
    are read off the relation as the mutually related ones.
    """

    __slots__ = ("index", "begin", "end", "pre_e")

    def __init__(self, index: int, begin: int, end: int):
        self.index = index
        self.begin = begin
        self.end = end
        self.pre_e: dict[Block, None] = {}

    @property
    def size(self) -> int:
        return self.end - self.begin

    def __repr__(self):
        return f"Block(#{self.index}, [{self.begin},{self.end}))"


@dataclass(frozen=True)
class SimulationResult:
    """Immutable final partition plus the partial order on its blocks.

    Blocks are ordered by smallest member; ``leq[i][j]`` is true iff every
    state of block j simulates every state of block i.
    """

    partition: tuple[tuple[int, ...], ...]
    leq: tuple[tuple[bool, ...], ...]

    @property
    def num_states(self) -> int:
        return sum(len(b) for b in self.partition)

    def state_matrix(self) -> list[bytearray]:
        """The represented state relation: s related to t iff block(s) leq block(t)."""
        n = self.num_states
        blk = [0] * n
        for i, members in enumerate(self.partition):
            for s in members:
                blk[s] = i
        rows = []
        for s in range(n):
            leq_row = self.leq[blk[s]]
            rows.append(bytearray(1 if leq_row[blk[t]] else 0 for t in range(n)))
        return rows

    def order_pairs(self) -> list[tuple[int, int]]:
        """Non-diagonal related block index pairs, row-major."""
        k = len(self.partition)
        out: list[tuple[int, int]] = []
        for i, row in enumerate(self.leq):
            out.extend(zip(repeat(i), compress(range(i), row)))
            out.extend(zip(repeat(i), compress(range(i + 1, k), islice(row, i + 1, None))))
        return out


class PartitionRelationPair:
    """The engine's mutable core: segmented state ordering, block table,
    and the block relation.

    ``states[p]`` is the state at position p, ``pos`` its inverse, and
    ``state_block[s]`` the block owning state s. Every entry of ``blocks``
    is live: a split registers a new half only for a block it cuts
    properly, so the table doubles as the live list in creation order.
    The relation is held twice, as bitsets over block ids: bit c of
    ``up[b]`` and bit b of ``down[c]`` are set iff block b is related
    below block c. Every writer keeps the two in step.
    """

    __slots__ = ("states", "pos", "state_block", "blocks", "up", "down")

    def __init__(self, states, pos, state_block, blocks, up, down):
        self.states: list[int] = states
        self.pos: list[int] = pos
        self.state_block: list[Block] = state_block
        self.blocks: list[Block] = blocks
        self.up: list[int] = up
        self.down: list[int] = down

    @property
    def num_states(self) -> int:
        return len(self.states)

    def block_of(self, state: int) -> Block:
        return self.state_block[state]

    def block_states(self, block: Block) -> list[int]:
        return self.states[block.begin : block.end]

    def up_set_states(self, block: Block) -> set[int]:
        """Union of the segments of all blocks that ``block`` relates into."""
        out: set[int] = set()
        for c in bits(self.up[block.index]):
            out.update(self.block_states(self.blocks[c]))
        return out

    def split(self, splitter: Iterable[int]) -> list[tuple[Block, Block]]:
        """Refine the partition against a duplicate-free list of states.

        Returns one ``(kept, new)`` pair per block cut properly in two:
        ``kept`` keeps the block's id and its states outside the splitter,
        ``new`` gets the next free id and the states inside. Pairs, and so
        new ids, follow the first splitter state of each cut block. Blocks
        fully inside or outside the splitter are left untouched, and only
        segments of cut blocks are permuted.
        """
        splitter = list(splitter)
        state_block = self.state_block
        inside = Counter(state_block[s] for s in splitter)
        blocks = self.blocks
        states = self.states
        pos = self.pos
        new_of: dict[Block, Block] = {}
        for s in splitter:
            b = state_block[s]
            new = new_of.get(b)
            if new is None:
                # no state of b has moved yet, so b.size is still its own
                if inside[b] == b.size:
                    continue  # fully inside: leave alone
                new = new_of[b] = Block(len(blocks), b.end, b.end)
                blocks.append(new)
            p = pos[s]
            q = b.end - 1
            if p != q:
                other = states[q]
                states[p], states[q] = other, s
                pos[s] = q
                pos[other] = p
            b.end -= 1
            new.begin -= 1
            state_block[s] = new
        return list(new_of.items())

    def extract_result(self) -> SimulationResult:
        """Deep copy the converged pair into an immutable result."""
        ordered = sorted(self.blocks, key=lambda b: min(self.block_states(b)))
        partition = tuple(tuple(sorted(self.block_states(b))) for b in ordered)
        up = self.up
        nb = len(self.blocks)
        idx = [b.index for b in ordered]
        if len(idx) > 1:
            get = itemgetter(*idx)
            leq = tuple(tuple(map(bool, get(bit_flags(up[i], nb)))) for i in idx)
        else:
            # an itemgetter of one index returns a scalar, not a tuple
            leq = tuple((bool(up[i] >> i & 1),) for i in idx)
        return SimulationResult(partition, leq)


def init_pr(ks: KripkeStructure) -> PartitionRelationPair:
    """Pair for the label partition with the identity block relation.

    States are laid out so each label block is contiguous; blocks are
    created in smallest-member order.
    """
    blocks: list[Block] = []
    states: list[int] = []
    pos = [0] * ks.num_states
    state_block: list[Block] = [None] * ks.num_states
    for members in initial_label_partition(ks):
        b = Block(len(blocks), len(states), len(states) + len(members))
        blocks.append(b)
        for s in members:
            pos[s] = len(states)
            states.append(s)
            state_block[s] = b
    identity = [1 << b.index for b in blocks]
    return PartitionRelationPair(states, pos, state_block, blocks, identity, identity[:])
