"""Mutable partition-relation state shared by the refinement engine.

The state set is kept as one ordered array of state ids in which every
live block owns a contiguous segment ``[begin, end)``; ``pos`` maps a
state back to its position and ``state_block`` to its block. Moving a
state between a block and its freshly created brother is a single swap at
the segment boundary, so a split costs O(splitter size). Block ids index
into resizable square matrices (the block relation here, the engine's
counter table); ids are never recycled, the matrices only grow. Which
blocks have edges into which is recorded once, in each block's ``pre_e``.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable

from .kripke import KripkeStructure, initial_label_partition


class Block:
    """A live partition block: a segment of the state ordering plus scratch.

    ``intersection``/``brother`` describe the most recent split pass:
    ``False`` marks the half that kept the states outside the splitter
    (old id), ``True`` the half inside it (new id), ``None`` an untouched
    block. They stay valid until the next split call. ``pre_e`` holds, in
    first-edge order, every block with a transition into this one; its
    values are unused. ``remove`` is the block's removal list and
    ``listed_in`` its inverse: the blocks whose removal list holds this
    one. ``queued`` is set while the block sits on the engine's refiner
    worklist. ``count`` is a scratch counter, ``mark1``/``mark2`` scratch
    flags; every user clears what it sets.
    """

    __slots__ = (
        "index",
        "begin",
        "end",
        "count",
        "intersection",
        "brother",
        "pre_e",
        "remove",
        "listed_in",
        "queued",
        "mark1",
        "mark2",
        "anc",
    )

    def __init__(self, index: int, begin: int, end: int):
        self.index = index
        self.begin = begin
        self.end = end
        self.count = 0
        self.intersection: bool | None = None
        self.brother: Block | None = None
        self.pre_e: dict[Block, None] = {}
        self.remove: list[Block] = []
        self.listed_in: list[Block] = []
        self.queued = False
        self.mark1 = False
        self.mark2 = False
        # id of this block's ancestor at the start of the current partition
        # stabilization call; blocks with equal ancestors are exactly the
        # mutually related ones mid-call
        self.anc = index

    @property
    def size(self) -> int:
        return self.end - self.begin

    def __repr__(self):
        return f"Block(#{self.index}, [{self.begin},{self.end}))"


class SquareBitMatrix:
    """Resizable square 0/1 matrix over block ids, bytearray rows.

    ``add_entry`` appends one row and one column; underlying bytearray
    growth is amortized constant per appended cell.
    """

    __slots__ = ("rows",)

    def __init__(self, n: int):
        self.rows: list[bytearray] = [bytearray(n) for _ in range(n)]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add_entry(self):
        for row in self.rows:
            row.append(0)
        self.rows.append(bytearray(len(self.rows) + 1))

    def pair_count(self) -> int:
        return sum(sum(row) for row in self.rows)

    def copy_rows(self) -> list[bytearray]:
        return [bytearray(row) for row in self.rows]


class SquareIntMatrix:
    """Resizable square integer matrix over block ids, list rows."""

    __slots__ = ("rows",)

    def __init__(self, n: int):
        self.rows: list[list[int]] = [[0] * n for _ in range(n)]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def add_entry(self):
        for row in self.rows:
            row.append(0)
        self.rows.append([0] * (len(self.rows) + 1))


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
    is live: brothers that would not survive a split are never
    registered, so the table doubles as the live list in creation order.
    """

    __slots__ = ("states", "pos", "state_block", "blocks", "rel")

    def __init__(self, states, pos, state_block, blocks, rel):
        self.states: list[int] = states
        self.pos: list[int] = pos
        self.state_block: list[Block] = state_block
        self.blocks: list[Block] = blocks
        self.rel = rel

    @property
    def num_states(self) -> int:
        return len(self.states)

    def block_of(self, state: int) -> Block:
        return self.state_block[state]

    def block_states(self, block: Block) -> list[int]:
        return self.states[block.begin : block.end]

    def up_set_states(self, block: Block) -> set[int]:
        """Union of the segments of all blocks that ``block`` relates into."""
        row = self.rel.rows[block.index]
        out: set[int] = set()
        for other in self.blocks:
            if row[other.index]:
                out.update(self.block_states(other))
        return out

    def split(self, splitter: Iterable[int]) -> list[Block]:
        """Refine the partition against a set of states.

        Returns, for each block cut properly in two, the id that kept the
        states outside the splitter (``intersection`` False); its brother
        (new id, ``intersection`` True) holds the states inside. Blocks
        fully inside or outside the splitter are left untouched with
        ``intersection`` None. Only segments of split blocks are permuted.
        """
        for b in self.blocks:
            b.intersection = None
            b.brother = None

        splitter = list(splitter)
        state_block = self.state_block
        touched: list[Block] = []
        for s in splitter:
            b = state_block[s]
            if not b.mark1:
                b.mark1 = True
                b.count = 0
                touched.append(b)
            b.count += 1
        for b in touched:
            if b.count == b.size:
                b.count = -1  # fully inside: leave alone

        split_list: list[Block] = []
        states = self.states
        pos = self.pos
        for s in splitter:
            b = state_block[s]
            if b.count == -1:
                continue
            if b.intersection is None:
                brother = Block(len(self.blocks), b.end, b.end)
                brother.intersection = True
                brother.brother = b
                b.intersection = False
                b.brother = brother
                self.blocks.append(brother)
                split_list.append(b)
            brother = b.brother
            p = pos[s]
            q = b.end - 1
            if p != q:
                other = states[q]
                states[p], states[q] = other, s
                pos[s] = q
                pos[other] = p
            b.end -= 1
            brother.begin -= 1
            state_block[s] = brother

        for b in touched:
            b.mark1 = False
            b.count = 0
        return split_list

    def extract_result(self) -> SimulationResult:
        """Deep copy the converged pair into an immutable result."""
        ordered = sorted(self.blocks, key=lambda b: min(self.block_states(b)))
        partition = tuple(tuple(sorted(self.block_states(b))) for b in ordered)
        rows = self.rel.rows
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
    rel = SquareBitMatrix(len(blocks))
    for b in blocks:
        rel.rows[b.index][b.index] = 1
    return PartitionRelationPair(states, pos, state_block, blocks, rel)


def add_block_entries(
    pr: PartitionRelationPair, count: SquareIntMatrix, new_blocks
) -> None:
    """Grow the relation and the counter matrix by one entry per new block.

    New cells start at zero; the engine's update passes fill them.
    """
    for _ in new_blocks:
        pr.rel.add_entry()
        count.add_entry()
