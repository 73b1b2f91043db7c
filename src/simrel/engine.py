"""The refinement engine computing the simulation preorder.

A run alternates two phases over a partition-relation pair:

* partition stabilization cuts, one block at a time, every block that
  the preimage of some block's upward closure cuts properly, each cut
  found in O(edges) per probe through the counter table;
* relation stabilization prunes block pairs driven by per-block removal
  sets, chaining through counter decrements until no violation remains.

A block is its int id. Between splits, four tables are maintained: the
block relation (row and column bitsets ``up`` and ``down``, held by the
pair), the edge multiplicities (``pre_e[d][b]``, the number of
transitions from block b into block d, held once, by target block, and
only where nonzero), the counters (one dict of nonzero cells per row,
updated by recounting only the smaller half of each split pair), and the
removal sets, one bitset of block ids per block and no other record of
them. The edge table, the counter rows, the removal sets and the
worklist flags are the engine's lists indexed by block id. Each table is
sized by what is set in it, and the work on it follows its set bits and
nonzero cells, not the square of the block count.

Only ``initialize`` walks every transition: it builds the predecessor
index, the sources of each state's in-edges in flat arrays of about four
bytes per transition, and the edge table. The refiner search returns the
cut itself. A block b that hosts class a reaches nothing strictly above
a, so the preimage of a's upward closure meets b in exactly b's states
with an edge into a, which the search has just walked. Any other block
that this preimage cuts hosts a refiner too (the highest class it reaches
inside the closure) and is cut by a later search: Paige and Tarjan's
argument that splitting any one block by a splitter is sound. ``cut``
cuts the one block: ``split`` cuts it into a ``(kept, new)`` id pair,
``new`` being always the smaller half, and the tables are updated for
that pair before the next search, so after every cut they describe a
real partition exactly. ``inherit`` gives the new half a copy of its
parent's entry in the relation and the removal sets (its row and column,
a place in exactly the removal sets that hold its parent, found with one
C-level pass over the sets, and a copy of the parent's own removal set)
and its parent's counter column; ``update_edges`` splits the parent's
edge cells between the halves from the new half's in- and out-edges; and
``update_count`` then counts the new half's row, corrects the kept
half's and logs every half that loses its last counted successor block
above some block c into c's set where the loss happens: when the new
half's row lacks a key of its parent's, and when a decrement deletes a
cell of the kept half's row. Without that logging, pairs created mutually
related by a split would never be pruned again.

The refiner search does not rescan every block. A block *hosts* a
refiner when ``post_candidates`` yields a qualifying class for it, which
depends only on the block's counter row, its successor blocks and their
classes. A block's class is read off the relation: the blocks mutually
related with it, which during partition stabilization are the blocks
descended from one block by splits, the lowest id being the class's
representative. The worklist is one ``bytearray`` of flags indexed by
block id, walked lowest id first: a block whose flag is clear hosts no
refiner. Two triggers set flags:

1. a cut's half is flagged iff the host's own walk shows it may host:
   ``initialize`` flags every block, and a cut of host b into (k, w)
   flags a half h iff, for some class other than the refiner's, b's
   part p gives 0 < |p n h| < |h|. This is the search's proper-part
   test on h, exact without walking h: a cut leaves every class the
   same set of states (w joins k's class, which keeps its lowest id),
   so h's part for a class is h n p; the refiner class's part is exactly
   one half; and a class that every state of b reaches is reached by
   every state of both halves. A half that passes may still fail the
   counter test, which the search applies. A cut changes no other
   block's verdict: every other block reaches the same classes through
   the same states. A block that reaches both halves gains one at the
   class's counter cell and one reached member, so the test there keeps
   its verdict. For a class strictly below b's, that block already
   counted b above the class, so it could not qualify before the cut
   and cannot after.
2. an ``rstabilize`` decrement leaves one of the block's counters at
   exactly 1. Every block is clean when ``rstabilize`` starts, since the
   search before it came up empty, and every class is one block when it
   ends, so a block hosts at class a only if its counter at a is 1. A
   counter at a that the round left unchanged equals the block's old
   count at a's class representative. That count is at least the number
   of class members the block reaches, so if it is 1 the block reached
   only a, with the same part, and would have hosted before the round.
   Counters only fall in a round, so any other counter at 1 fell to 1
   in it.

The terminal refiner search in ``run`` flags every block first, so it
stays a full scan and a worklist that missed a block fails loudly.
"""

from __future__ import annotations

from array import array
from collections import Counter
from collections.abc import KeysView
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, chain, compress
from operator import countOf, or_

from .instrument import RunStats
from .kripke import KripkeStructure, pre_of
from .prcore import PartitionRelationPair, SimulationResult, bits, init_pr

CHECK_LEVELS = ("off", "cheap", "full")


class InvariantViolation(AssertionError):
    """A runtime self-check failed; signals an engine bug, never bad input."""


@dataclass
class EngineConfig:
    """Knobs for self-checking and instrumentation.

    ``check_level``: "off" disables runtime assertions apart from the
    counter decrements, which always refuse to go below zero. "cheap"
    adds structural checks of the cut block's two segments after every
    cut, and of every segment and block, linear in states and blocks,
    after every partition phase and pruning round; plus a range check of
    the nonzero cells of the counter rows each cut changed: those of each
    half and of each predecessor block of a half. "full" adds a
    from-scratch recomputation of the edge and counter tables after every
    cut and pruning round, a recomputation of the removal sets after
    every pruning round, order-algebra checks after every phase, as
    bitset operations over the relation, a scan of every block
    confirming each empty refiner search, and a direct simulation check
    of the converged pair. Checks never change results.
    ``stats_enabled`` toggles counter collection; results are identical
    either way.
    """

    check_level: str = "off"
    stats_enabled: bool = False

    def __post_init__(self):
        if self.check_level not in CHECK_LEVELS:
            raise ValueError(f"check_level must be one of {CHECK_LEVELS}")

    @property
    def cheap(self) -> bool:
        return self.check_level in ("cheap", "full")

    @property
    def full(self) -> bool:
        return self.check_level == "full"


class SimulationEngine:
    """One run of the refinement algorithm over a single structure."""

    def __init__(self, ks: KripkeStructure, cfg: EngineConfig | None = None):
        self.ks = ks
        self.cfg = cfg or EngineConfig()
        self.pr: PartitionRelationPair = init_pr(ks)
        nb = len(self.pr.begin)
        # pre_e[d][b]: the number of transitions from block b into block
        # d, held only where nonzero
        self.pre_e: list[dict[int, int]] = [{} for _ in range(nb)]
        # predecessor index: the sources of the transitions into state y
        # are pred_src[pred_start[y] : pred_start[y + 1]]; filled by
        # initialize
        self.pred_start = array("I")
        self.pred_src = array("I")
        # count[b][c]: blocks e with c related-below e that b has edges
        # into, so a missing cell tests "b reaches nothing above c" in O(1);
        # a row holds only its nonzero cells
        self.count: list[dict[int, int]] = [{} for _ in range(nb)]
        # remove[c]: c's removal set, a bitset of block ids
        self.remove: list[int] = [0] * nb
        # worklist[b] is 1 while block b may host a refiner; a block whose
        # flag is 0 is known not to
        self.worklist = bytearray(nb)
        self.stats = RunStats()

    # ------------------------------------------------------------------
    # driver

    def run(self) -> tuple[SimulationResult, RunStats]:
        """Alternate the two phases until jointly stable.

        Relation pruning must only ever run on a partition-stable pair
        (pruning an unstable one can drop pairs the final preorder needs),
        so each pruning round is followed by a full partition
        re-stabilization before the next round consumes the removal sets
        the previous one built. A round that removes nothing leaves no
        pending sets behind, so it certifies joint stability.
        """
        self.initialize()
        self.pstabilize()
        prev_shape = self._shape() if self.cfg.full else None
        while not self.rstabilize():
            self.pstabilize()
            if self.cfg.full:
                # every continuing iteration refines the partition or, with
                # it unchanged, strictly shrinks the relation
                shape = self._shape()
                if not (
                    shape[0] > prev_shape[0]
                    or (shape[0] == prev_shape[0] and shape[1] < prev_shape[1])
                ):
                    raise InvariantViolation("no progress between driver iterations")
                prev_shape = shape
        # terminal certification: one full refiner search on the stable pair
        self._queue(range(len(self.pr.begin)))
        if self.find_prefiner() is not None:
            raise InvariantViolation("pair not partition stable at exit")
        if self.cfg.stats_enabled:
            self.stats.findprefiner_null_returns += 1
        result = self.pr.extract_result()
        if self.cfg.full and not check_is_simulation_pr(self.ks, self.pr):
            raise InvariantViolation("converged pair is not a simulation")
        return result, self.stats

    def _shape(self) -> tuple[int, int]:
        return (len(self.pr.begin), sum(row.bit_count() for row in self.pr.up))

    def _queue(self, blocks) -> None:
        """Set the worklist flag of every block id in ``blocks``."""
        flags = self.worklist
        for b in blocks:
            flags[b] = 1

    # ------------------------------------------------------------------
    # table initialization

    def initialize(self) -> None:
        """Fill the predecessor index and the edge, counter and removal
        tables. Apart from the full checks, these are a run's only passes
        over all transitions."""
        pr = self.pr
        down, state_block = pr.down, pr.state_block
        succ = self.ks.succ
        self.pred_start, self.pred_src = predecessor_index(self.ks)

        pre_e = self.pre_e
        for b in range(len(pre_e)):
            successors = chain.from_iterable(map(succ.__getitem__, pr.block_states(b)))
            for d, m in Counter(map(state_block.__getitem__, successors)).items():
                pre_e[d][b] = m

        cnt = self.count
        has_out = 0
        for d, preds in enumerate(pre_e):
            if not preds:
                continue
            cols = bits(down[d])
            for b in preds:
                has_out |= 1 << b
                row = cnt[b]
                for c in cols:
                    row[c] = row.get(c, 0) + 1

        # c's removal set: the blocks with edges that reach nothing above c
        reaching = [0] * len(cnt)
        for b, row in enumerate(cnt):
            for c in row:
                reaching[c] |= 1 << b
        self.remove = [has_out & ~r for r in reaching]
        if self.cfg.stats_enabled:
            self.stats.remove_elements_total += sum(map(int.bit_count, self.remove))
        self._queue(range(len(cnt)))
        if self.cfg.cheap:
            self._check_structure()
        if self.cfg.full:
            self._check_tables()

    # ------------------------------------------------------------------
    # partition stabilization

    def pstabilize(self) -> None:
        """Cut until no partition refiner remains.

        Each refiner is one ``cut`` of its host block. After every cut the
        cheap level checks the two halves, the only segments a cut
        changes, and the full level rechecks every table; the cheap level
        walks the whole structure once when the phase ends.
        """
        while (found := self.find_prefiner()) is not None:
            k, w = self.cut(*found[1:])
            if self.cfg.cheap:
                self._check_cut(k, w)
            if self.cfg.full:
                self._check_tables()
        if self.cfg.cheap:
            self._check_structure()
        if self.cfg.full:
            self._check_order(require_antisymmetric=False)

    def cut(self, inside: list[int], others: list[list[int]]) -> tuple[int, int]:
        """Cut the block that ``inside`` is a proper part of, flag the halves
        that may host a refiner, and return the ``(kept, new)`` pair.

        ``inside`` lists states of one block b, each once, and ``others``
        holds b's proper parts for the classes it reaches other than the
        one ``inside`` was found for, as ``find_prefiner`` returns them.
        The cut is a ``split`` followed by ``inherit``, ``update_edges`` and
        ``update_count``, so afterwards every table describes the partition
        exactly. A half h is flagged iff some part of ``others`` cuts it
        properly, 0 < |part n h| < |h|; the states of each part are counted
        in the new half by their block, with no edge walk. This is exact
        for the proper-part test the search applies (see the module
        docstring). The full check level first checks that the part is
        proper.
        """
        pr = self.pr
        if self.cfg.full:
            b = pr.state_block[inside[0]]
            if len(inside) >= pr.end[b] - pr.begin[b]:
                raise InvariantViolation(f"refiner produced no split of block {b}")
        k, w = pr.split(inside)
        self.inherit(k, w)
        self.update_count(k, w, self.update_edges(k, w))
        k_size, w_size = pr.end[k] - pr.begin[k], pr.end[w] - pr.begin[w]
        flag_k = flag_w = False
        for part in others:
            in_w = countOf(map(pr.state_block.__getitem__, part), w)
            flag_w = flag_w or 0 < in_w < w_size
            flag_k = flag_k or 0 < len(part) - in_w < k_size
            if flag_k and flag_w:
                break
        self.worklist[k], self.worklist[w] = flag_k, flag_w
        if self.cfg.stats_enabled:
            self.stats.splits_total += 1
        return k, w

    def find_prefiner(self) -> tuple[int, list[int], list[list[int]]] | None:
        """The first refiner class, the part of its host block to cut and
        the host's proper parts for its other classes, as ``(rep, states,
        others)``, or None.

        Mid-call the relation is the entry partial order lifted through
        splits, so blocks descended from one entry block are mutually
        related and share an upward closure. A candidate class of block b,
        one whose part of b is proper, qualifies when the counter says b
        reaches nothing strictly above the class: then the splitter
        pre(up-set) meets b in exactly the states with an edge into the
        class, a proper nonempty cut, and these are ``states``. On a
        partial order, classes are singletons and the test degenerates to
        the counter equalling one. ``cut`` reads ``others`` to decide the
        halves' flags.

        Only blocks whose worklist flag is set are searched, lowest id
        first, which finds what a scan of every block would: a block whose
        flag is clear hosts no refiner (see the module docstring for the
        two triggers that keep this true). A host keeps its flag until
        ``cut`` decides it; a clean block's flag is cleared. Under the full
        check level an empty search is confirmed by scanning every block.
        """
        if self.cfg.stats_enabled:
            self.stats.prefiner_calls += 1
        flags = self.worklist
        i = flags.find(1)
        while i >= 0:
            found = self._hosted_refiner(i)
            if found is not None:
                return found
            flags[i] = 0
            i = flags.find(1, i + 1)
        if self.cfg.full:
            for b in range(len(flags)):
                if self._hosted_refiner(b) is not None:
                    raise InvariantViolation(f"refiner worklist missed block {b}")
        return None

    def _hosted_refiner(self, b: int) -> tuple[int, list[int], list[list[int]]] | None:
        """The first qualifying candidate class of b, its part and b's
        proper parts for its other classes, or None.

        A candidate is a class whose part of b is proper, 0 < |part| < |b|;
        a class that every state of b reaches cannot cut b.
        """
        row = self.count[b]
        if not row:
            # the relation is reflexive, so only a block without
            # transitions has an empty row, and it hosts no refiner
            return None
        size = self.pr.end[b] - self.pr.begin[b]
        proper = [c for c in self.post_candidates(b) if len(c[2]) < size]
        for rep, blocks_reached, states in proper:
            if row.get(rep) == blocks_reached:
                return rep, states, [part for _, _, part in proper if part is not states]
        return None

    def post_candidates(self, b: int) -> list[tuple[int, int, list[int]]]:
        """Every class reached by b, with b's states that reach it.

        A block's class is the set of blocks mutually related with it,
        ``up[c] & down[c]``; mid-call these are the blocks descended from
        one entry block, whose id is the lowest in the class. One pass
        over b's outgoing transitions, with local tables only: a dict
        names each successor block's class the first time it is met and
        so counts the distinct member blocks of each class that b
        reaches, and a list per class collects b's states with an edge
        into the class, its part of b. A state's edges are walked
        together, so a state already listed is the list's last entry.
        Each class is returned as ``(rep, blocks_reached, states)``: the
        id of its representative block, the class's lowest id, its number
        of reached member blocks, and its part in segment order. The
        classes come in the order in which b's transitions first reach
        them.
        """
        pr = self.pr
        up, down, state_block = pr.up, pr.down, pr.state_block
        succ = self.ks.succ
        class_of: dict[int, int] = {}  # successor block -> its class id
        class_blocks: dict[int, int] = {}  # first-touch order of classes
        parts: dict[int, list[int]] = {}
        for s in pr.states[pr.begin[b] : pr.end[b]]:
            for y in succ[s]:
                c = state_block[y]
                try:
                    a = class_of[c]
                except KeyError:
                    mutual = up[c] & down[c]
                    a = class_of[c] = (mutual & -mutual).bit_length() - 1
                    class_blocks[a] = class_blocks.get(a, 0) + 1
                    parts.setdefault(a, [s])
                part = parts[a]
                if part[-1] != s:
                    part.append(s)
        return [(a, n, parts[a]) for a, n in class_blocks.items()]

    # ------------------------------------------------------------------
    # incremental table updates after a split

    def inherit(self, k: int, w: int) -> None:
        """Give the new half w a copy of its parent's entry in the relation
        and the removal sets, and a place in the other tables.

        ``split`` just cut block k into the pair ``(k, w)``, so k's entries
        are still its parent's. w gets the row and column of k in the
        relation, the counter column of k, a place in every removal set
        that holds k, a copy of k's removal set, a clear worklist flag and
        an empty counter row and edge-multiplicity column. The edge table
        still describes the partition before the cut, which
        ``update_edges`` then corrects: here w, met in ``up[k]``, has no
        predecessors, and k still counts every edge into it. A column is
        copied only where it has entries: the relation column into the
        rows that ``down[k]`` names, the counter column into the rows of
        blocks with an edge into ``up[k]``, which are exactly its nonzero
        cells. The relation column is copied before the row, so w's row
        holds w, and the places in the removal sets are made before k's set
        is copied, for the same reason. ``update_count`` then counts w's
        counter row.
        """
        pr = self.pr
        up, down, cnt, pre_e = pr.up, pr.down, self.count, self.pre_e
        remove = self.remove
        pre_e.append({})
        cnt.append({})
        wbit = 1 << w
        for r in bits(down[k]):
            up[r] |= wbit
        for e in bits(up[k]):
            for f in pre_e[e]:
                row = cnt[f]
                row[w] = row[k]
        up.append(up[k])
        down.append(down[k])
        for c in bits(up[w]):
            down[c] |= wbit
        # one C-level pass finds the sets that hold k
        holders = list(compress(range(len(remove)), map((1 << k).__and__, remove)))
        for owner in holders:
            remove[owner] |= wbit
        remove.append(remove[k])
        self.worklist.append(0)
        if self.cfg.stats_enabled:
            self.stats.remove_elements_total += len(holders) + remove[k].bit_count()

    def update_edges(self, k: int, w: int) -> KeysView[int]:
        """Move the edge multiplicities of the cut block onto its halves,
        and return the blocks that w's states have edges into.

        Only w, the smaller half, is walked: first its in-edges, through
        the predecessor index, which split the parent's column
        ``pre_e[k]``, with every source counted at its block before the
        cut (w's own states at k), then its out-edges, which split the
        parent's cell ``pre_e[d][k]`` in every column d that w reaches,
        with every target at its block after the cut. k keeps the parent's
        cells less w's; its column is rebuilt as a fresh dict, which costs
        one step per predecessor block of the parent.
        """
        pr = self.pr
        state_block, succ = pr.state_block, self.ks.succ
        start, src = self.pred_start, self.pred_src
        pre_e = self.pre_e
        w_states = pr.block_states(w)
        if self.cfg.stats_enabled:
            self.stats.smaller_half_state_scans.update(w_states)

        into = Counter(
            map(state_block.__getitem__, chain.from_iterable(
                src[start[y] : start[y + 1]] for y in w_states
            ))
        )
        if w in into:
            into[k] += into.pop(w)
        pre_e[w] = dict(into)
        # a fresh dict: one that shrank keeps the capacity of its peak
        pre_e[k] = {b: left for b, m in pre_e[k].items() if (left := m - into.get(b, 0))}

        out = Counter(
            map(state_block.__getitem__, chain.from_iterable(map(succ.__getitem__, w_states)))
        )
        for d, m in out.items():
            cells = pre_e[d]
            cells[w] = m
            left = cells[k] - m
            if left:
                cells[k] = left
            else:
                del cells[k]
        return out.keys()

    def update_count(self, k: int, w: int, reached: KeysView[int]) -> None:
        """Make the counter matrix exact after the cut of k into ``(k, w)``.

        ``inherit`` gave w its parent's column and an empty row, and
        ``update_edges`` split the edge table and returned ``reached``, the
        blocks that w's states have edges into. The smaller half w is now
        counted from these blocks, while the parent's row is adjusted for k
        and then copied into a fresh dict: one decrement per successor
        *family* (both halves count as one family, matching the granularity
        of the parent's value) that k no longer reaches, and one increment
        for every row with edges into both halves. When k itself is such a
        row, its increment over ``down[w]`` is netted against the
        decrements with bitset operations before any cell is touched, so
        each of k's cells changes once, by its net delta; k still counts
        the cut family above every cell of ``down[w]``, so no netted cell
        could have fallen to zero. Every column walk follows the set bits
        of a ``down`` column. Every half whose counter drops to zero against
        some block c is logged where the drop happens, by setting its bit
        in c's removal set: for w, each key of the parent's row missing
        from its own; for k, each cell a decrement deletes. These are
        exactly the blocks whose states lost their last edge into c's
        upward closure by losing their sibling states. The two halves have
        equal columns, so such a half is logged into both halves' sets.
        No worklist flag is set here: the rows of other blocks that change
        leave their verdicts as they were (see the module docstring). The
        cheap level range-checks every changed row, the halves' and those
        of their predecessor blocks.
        """
        pr = self.pr
        down = pr.down
        cnt = self.count
        remove = self.remove
        pre_e = self.pre_e
        track = self.cfg.stats_enabled
        stats = self.stats

        kr = cnt[k]
        cnt[w] = row = dict(Counter(chain.from_iterable(bits(down[v]) for v in reached)))
        dropped = kr.keys() - row.keys()
        wbit = 1 << w
        for c in dropped:
            remove[c] |= wbit
        if track:
            stats.remove_elements_total += len(dropped)
        kbit = 1 << k
        # k's own gain over down[w] when it has edges into both halves,
        # netted against the losses before any cell is touched
        gain = down[w] if k in pre_e[w] and k in pre_e[k] else 0
        for rep in {k if v == w else v for v in reached}:
            if k in pre_e[rep] or (rep == k and k in pre_e[w]):
                continue
            loss = down[rep]
            if gain:
                netted = loss & gain
                gain ^= netted
                loss ^= netted
            for c in bits(loss):
                left = kr.get(c, 0) - 1
                if left > 0:
                    kr[c] = left
                elif left == 0:
                    del kr[c]
                    remove[c] |= kbit
                    if track:
                        stats.remove_elements_total += 1
                else:
                    raise InvariantViolation("counter went negative")
        for c in bits(gain):
            kr[c] += 1
        cnt[k] = dict(kr)  # fresh, as for pre_e[k]

        # the other rows with edges into both halves now count two blocks
        # where the parent value counted one; w's recounted row excluded
        both = [d for d in pre_e[w] if d in pre_e[k] and d not in (k, w)]
        if both:
            below_w = bits(down[w])
            for d in both:
                dr = cnt[d]
                for c in below_w:
                    dr[c] = dr.get(c, 0) + 1

        if self.cfg.cheap:
            # every changed row: the halves' and those of their predecessors
            nb = len(pr.begin)
            for b in (k, *pre_e[k], w, *pre_e[w]):
                row = cnt[b].values()
                if row and (min(row) < 1 or max(row) > nb):
                    raise InvariantViolation("counter out of range")

    # ------------------------------------------------------------------
    # relation stabilization

    def rstabilize(self) -> bool:
        """One relation-pruning round over the pending removal sets.

        Takes the removal sets as the pending ones and starts an empty
        list for the next round, then for each selected block c with a
        pending set, prunes every related pair (b, d) with b a
        predecessor block of c and d in c's pending set, all of b's at
        once as ``up[b] & pending``; each pruning decrements the counters
        of d's predecessors against b, and a counter reaching zero logs the
        fresh violation into b's set for the next round, while a counter
        left at one flags its block for the refiner search, the only way a
        round can make a block host a refiner (see the module docstring).
        The pruned pairs, the decrements, the logged blocks and the flags
        of a round do not depend on the order of the visits. Must run on a
        partition-stable pair; ``run`` re-stabilizes the partition between
        rounds. Returns True iff no pair was removed, in which case
        no set is left pending either. On exit the relation is
        antisymmetric again: split-created mutual pairs always carry a
        logged witness, so one direction gets pruned.
        """
        pr = self.pr
        up, down = pr.up, pr.down
        cnt = self.count
        pre_e = self.pre_e
        flags = self.worklist
        track = self.cfg.stats_enabled
        pending = self.remove
        self.remove = remove = [0] * len(pending)
        entry_up = up[:] if self.cfg.full else None
        removed = False
        for sel, dropped in enumerate(pending):
            if not dropped:
                continue
            if track:
                self.stats.remove_trace.append(
                    (
                        frozenset(pr.block_states(sel)),
                        frozenset(s for d in bits(dropped) for s in pr.block_states(d)),
                    )
                )
            for pred in pre_e[sel]:
                hit = up[pred] & dropped
                if not hit:
                    continue
                up[pred] ^= hit
                removed = True
                pbit = 1 << pred
                for d in bits(hit):
                    down[d] ^= pbit
                    if track:
                        self.stats.pairs_removed_total += 1
                    for f in pre_e[d]:
                        fr = cnt[f]
                        left = fr.get(pred, 0) - 1
                        if left > 0:
                            fr[pred] = left
                            if left == 1:
                                flags[f] = 1
                        elif left == 0:
                            del fr[pred]
                            remove[pred] |= 1 << f
                            if track:
                                self.stats.remove_elements_total += 1
                        else:
                            raise InvariantViolation("counter went negative")
        if self.cfg.cheap:
            self._check_structure()
        if self.cfg.full:
            self._check_tables()
            self._check_remove_invariant(entry_up)
            self._check_order(require_antisymmetric=True)
        return not removed

    # ------------------------------------------------------------------
    # self checks

    def _check_structure(self) -> None:
        """Cheap structural sanity: segments cover, pointers agree, diagonal set."""
        pr = self.pr
        if self._check_segments(range(len(pr.begin))) != len(pr.states):
            raise InvariantViolation("segments do not cover the state ordering")
        for b, row in enumerate(pr.up):
            if not row >> b & 1:
                raise InvariantViolation("relation lost reflexivity")

    def _check_cut(self, k: int, w: int) -> None:
        """Cheap check of one cut into ``(k, w)``: the states of both
        halves point back at them, and w is related to itself."""
        self._check_segments((k, w))
        if not self.pr.up[w] >> w & 1:
            raise InvariantViolation("relation lost reflexivity")

    def _check_segments(self, blocks) -> int:
        """Check that each block's segment is nonempty and that every state
        in it points back at the block and at its position; return the
        number of positions walked. A state listed twice fails the
        position check at one of its places."""
        pr = self.pr
        states, pos, state_block = pr.states, pr.pos, pr.state_block
        covered = 0
        for b in blocks:
            lo, hi = pr.begin[b], pr.end[b]
            if lo >= hi:
                raise InvariantViolation(f"empty live block {b}, [{lo},{hi})")
            covered += hi - lo
            for p in range(lo, hi):
                s = states[p]
                if state_block[s] != b:
                    raise InvariantViolation("segment and block pointer disagree")
                if pos[s] != p:
                    raise InvariantViolation("position index stale")
        return covered

    def _check_tables(self) -> None:
        """Full check: the edge table equals the transpose of its
        from-scratch recount, the counters equal theirs, and ``down`` is
        the transpose of ``up``. The removal sets are recomputed by
        ``_check_remove_invariant``."""
        pr = self.pr
        if transpose(pr.up) != pr.down:
            raise InvariantViolation("down is not the transpose of up")
        post_ref, cnt_ref = recompute_tables(self.ks, pr)
        pre_ref: list[dict[int, int]] = [{} for _ in post_ref]
        for b, row in enumerate(post_ref):
            for d, m in row.items():
                pre_ref[d][b] = m
        tables = (
            ("edge-multiplicity column", self.pre_e, pre_ref),
            ("counter row", self.count, cnt_ref),
        )
        for name, table, ref in tables:
            if len(table) != len(ref):
                raise InvariantViolation(f"{name}s do not cover the blocks")
            for i, (row, row_ref) in enumerate(zip(table, ref)):
                if row != row_ref:
                    raise InvariantViolation(f"{name} {i} stale")

    def _check_order(self, require_antisymmetric: bool) -> None:
        """Reflexive, transitive (the rows above i lie within i's row) and,
        if asked, antisymmetric (only i is both above and below i)."""
        up, down = self.pr.up, self.pr.down
        for i, row_i in enumerate(up):
            if not row_i >> i & 1:
                raise InvariantViolation("relation not reflexive")
            if require_antisymmetric and row_i & down[i] != 1 << i:
                raise InvariantViolation("relation not antisymmetric")
            if reduce(or_, map(up.__getitem__, bits(row_i))) & ~row_i:
                raise InvariantViolation("relation not transitive")

    def _check_remove_invariant(self, entry_up: list[int]) -> None:
        """Round invariant: fresh sets hold exactly the blocks that could
        reach c's upward closure at round entry but no longer can."""
        pr = self.pr
        # into[e]: the blocks with an edge into e
        into = [reduce(or_, map((1).__lshift__, preds), 0) for preds in self.pre_e]

        def reaching(above: int) -> int:
            return reduce(or_, map(into.__getitem__, bits(above)), 0)

        for c, (entry, now) in enumerate(zip(entry_up, pr.up)):
            # a row the round left alone loses no reach
            expected = reaching(entry) & ~reaching(now) if entry != now else 0
            if self.remove[c] != expected:
                raise InvariantViolation(
                    f"removal set of block {c} violates the round invariant"
                )


def predecessor_index(ks: KripkeStructure) -> tuple[array, array]:
    """The in-edges of every state, grouped by target in flat arrays.

    Returns ``(start, src)``: the sources of the transitions into state y
    are ``src[start[y] : start[y + 1]]``, ascending. Four bytes per
    transition and four per state.
    """
    # arrays only: a Counter or a list of ints over the states would take
    # several times the index's memory on a large sparse structure
    n = ks.num_states
    start = array("I", bytes(4 * (n + 1)))
    for y in chain.from_iterable(ks.succ):
        start[y + 1] += 1
    start = array("I", accumulate(start))
    src = array("I", bytes(4 * start[n]))
    fill = start[:n]
    for s, targets in enumerate(ks.succ):
        for y in targets:
            p = fill[y]
            src[p] = s
            fill[y] = p + 1
    return start, src


def transpose(rows: list[int]) -> list[int]:
    """The bit matrix ``rows`` transposed: bit r of out[c] iff bit c of rows[r]."""
    out = [0] * len(rows)
    for r, row in enumerate(rows):
        if row:
            rbit = 1 << r
            for c in bits(row):
                out[c] |= rbit
    return out


def recompute_tables(ks: KripkeStructure, pr: PartitionRelationPair):
    """From-scratch edge multiplicities and counter rows for the current pair.

    Independent of the maintained edge tables and counters; used as the
    oracle for their exactness. ``post[b][d]`` is the number of
    transitions from states of b into states of d, kept only where
    nonzero, counted in one pass over the transitions. ``count[b][c]`` is
    the number of blocks above c that b has edges into, kept only where
    nonzero. Only the columns below some block b reaches can be nonzero,
    so only those are computed.
    """
    state_block = pr.state_block
    post: list[dict[int, int]] = [{} for _ in pr.begin]
    for s in range(ks.num_states):
        row = post[state_block[s]]
        for y in ks.succ[s]:
            d = state_block[y]
            row[d] = row.get(d, 0) + 1
    up, down = pr.up, pr.down
    count = []
    for cells in post:
        row = reduce(or_, map((1).__lshift__, cells), 0)
        cols = bits(reduce(or_, map(down.__getitem__, cells), 0))
        counts = list(map(int.bit_count, map(row.__and__, map(up.__getitem__, cols))))
        count.append(dict(compress(zip(cols, counts), counts)))
    return post, count


def check_is_simulation_pr(ks: KripkeStructure, pr: PartitionRelationPair) -> bool:
    """Direct verification that the pair represents a simulation.

    Evaluates, by plain set computations, that (i) related blocks are
    label-uniform, (ii) whenever block b reaches block c, every block
    above b reaches c's upward closure, and (iii) no block is cut by the
    preimage of any block's upward closure. Quadratic in blocks times
    edges; a verification oracle, not a hot path.
    """
    blocks = range(len(pr.begin))
    up = pr.up
    members = [pr.block_states(b) for b in blocks]

    for b in blocks:
        for c in bits(up[b]):
            lab = ks.labels[members[b][0]]
            if any(ks.labels[s] != lab for s in members[b]):
                return False
            if any(ks.labels[s] != lab for s in members[c]):
                return False

    up_pre = [pre_of(ks, pr.up_set_states(c)) for c in blocks]
    reaches = [{pr.state_block[y] for s in members[b] for y in ks.succ[s]} for b in blocks]

    for b in blocks:
        for c in reaches[b]:
            for d in bits(up[b]):
                if not any(s in up_pre[c] for s in members[d]):
                    return False

    for splitter in up_pre:
        for b in blocks:
            inside = sum(1 for s in members[b] if s in splitter)
            if 0 < inside < len(members[b]):
                return False
    return True


def compute_simulation(
    ks: KripkeStructure, cfg: EngineConfig | None = None
) -> tuple[SimulationResult, RunStats]:
    """Run the engine on one structure and return result plus counters."""
    return SimulationEngine(ks, cfg).run()
