"""Mutable partition-relation state shared by the refinement engine.

The state set is kept as one ordered array of state ids in which every
live block owns a contiguous segment ``[begin, end)``; ``pos`` maps a
state back to its position and ``state_block`` to its block. ``split``
cuts each block the splitter meets properly into a ``(kept, new)`` pair
and returns the pairs: moving a state into its block's new half is a
single swap at the segment boundary, so a split costs O(splitter size)
and touches no other block. Block ids index into square matrices (the
block relation ``rel`` here, a list of bytearray rows, and the engine's
counter table); ids are never recycled, and the engine grows the
matrices by copying each kept half's row and column for its new half.
Which blocks have edges into which is recorded once, in each block's
``pre_e``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .kripke import KripkeStructure, initial_label_partition


class Block:
    """A live partition block: a segment of the state ordering plus its
    per-block tables.

    ``index`` is the block's id, its row and column in the square
    matrices, and ``[begin, end)`` its segment of the state ordering.
    ``pre_e`` holds, in first-edge order, every block with a transition
    into this one; its values are unused. ``remove`` is the block's
    removal list and ``listed_in`` its inverse: the blocks whose removal
    list holds this one. ``queued`` is set while the block sits on the
    engine's refiner worklist, and ``anc`` names its ancestor class. A
    block keeps no split-time scratch: ``split`` returns its pairs.
    """

    __slots__ = ("index", "begin", "end", "pre_e", "remove", "listed_in", "queued", "anc")

    def __init__(self, index: int, begin: int, end: int):
        self.index = index
        self.begin = begin
        self.end = end
        self.pre_e: dict[Block, None] = {}
        self.remove: list[Block] = []
        self.listed_in: list[Block] = []
        self.queued = False
        # id of this block's ancestor at the start of the current partition
        # stabilization call; blocks with equal ancestors are exactly the
        # mutually related ones mid-call
        self.anc = index

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
        return [
            (i, j)
            for i in range(k)
            for j in range(k)
            if i != j and self.leq[i][j]
        ]


class PartitionRelationPair:
    """The engine's mutable core: segmented state ordering, block table,
    and the block relation matrix.

    ``states[p]`` is the state at position p, ``pos`` its inverse, and
    ``state_block[s]`` the block owning state s. Every entry of ``blocks``
    is live: a split registers a new half only for a block it cuts
    properly, so the table doubles as the live list in creation order.
    """

    __slots__ = ("states", "pos", "state_block", "blocks", "rel")

    def __init__(self, states, pos, state_block, blocks, rel):
        self.states: list[int] = states
        self.pos: list[int] = pos
        self.state_block: list[Block] = state_block
        self.blocks: list[Block] = blocks
        # rel[b][c] is 1 iff block b is related below block c
        self.rel: list[bytearray] = rel

    @property
    def num_states(self) -> int:
        return len(self.states)

    def block_of(self, state: int) -> Block:
        return self.state_block[state]

    def block_states(self, block: Block) -> list[int]:
        return self.states[block.begin : block.end]

    def up_set_states(self, block: Block) -> set[int]:
        """Union of the segments of all blocks that ``block`` relates into."""
        row = self.rel[block.index]
        out: set[int] = set()
        for other in self.blocks:
            if row[other.index]:
                out.update(self.block_states(other))
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
        rows = self.rel
        idx = [b.index for b in ordered]
        if len(idx) > 1:
            get = itemgetter(*idx)
            leq = tuple(tuple(map(bool, get(rows[i]))) for i in idx)
        else:
            # an itemgetter of one index returns a scalar, not a tuple
            leq = tuple((bool(rows[i][i]),) for i in idx)
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
    rel = [bytearray(len(blocks)) for _ in blocks]
    for b in blocks:
        rel[b.index][b.index] = 1
    return PartitionRelationPair(states, pos, state_block, blocks, rel)
