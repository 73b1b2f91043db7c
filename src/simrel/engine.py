"""The refinement engine computing the simulation preorder.

A run alternates two phases over a partition-relation pair:

* partition stabilization splits blocks against splitters of the form
  pre(union of blocks above a refiner block), found in O(edges) per probe
  through the counter table;
* relation stabilization prunes block pairs driven by per-block removal
  lists, chaining through counter decrements until no violation remains.

Between splits, four tables are maintained: the block relation matrix,
the per-block predecessor block sets ``pre_e`` (the only record of which
blocks have edges into which), the counter matrix (updated by rescanning
only the smaller half of each split pair), and the removal lists, with
their inverse ``listed_in`` per block. Removal lists also absorb split
fallout: a half that just lost its last counted successor block above
some block c is logged into c's list, and list members that split are
joined by their new halves, in exactly the lists ``listed_in`` names.
Without that fallout logging, pairs created mutually related by a split
would never be pruned again.

The refiner search does not rescan every block. A block *hosts* a
refiner when ``post_candidates`` yields a qualifying class for it, which
depends only on the block's counter row, its successor blocks and their
ancestor classes. A min-heap of block ids (the worklist, with a
``queued`` flag per block) holds every block whose hosting may have
changed since it was last found clean; popping the smallest id keeps the
first-hit-in-index-order rule of a full scan. Four rules queue blocks:

1. ``initialize`` queues every block;
2. after a split, ``update_count`` queues both halves and every block in
   either half's ``pre_e``, the only rows it changes;
3. ``rstabilize`` queues ``d.pre_e`` for every pruned pair ``(pred, d)``,
   the rows it decrements;
4. when ``pstabilize`` resets the ancestor classes, it queues the
   ``pre_e`` of every block in a class of more than one block.

The terminal refiner search in ``run`` queues every block first, so it
stays a full scan and a worklist that missed a block fails loudly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush

from .instrument import RunStats
from .kripke import KripkeStructure, pre_of
from .prcore import (
    Block,
    PartitionRelationPair,
    SimulationResult,
    SquareIntMatrix,
    add_block_entries,
    init_pr,
)

CHECK_LEVELS = ("off", "cheap", "full")


class InvariantViolation(AssertionError):
    """A runtime self-check failed; signals an engine bug, never bad input."""


@dataclass
class EngineConfig:
    """Knobs for self-checking and instrumentation.

    ``check_level``: "off" disables runtime assertions, "cheap" adds
    structural checks linear in states/blocks, "full" adds from-scratch
    table recomputation and order-algebra checks after every phase. Checks
    never change results. ``stats_enabled`` toggles counter collection;
    results are identical either way.
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
        # count[b][c]: blocks e with c related-below e that b has edges
        # into, so count[b][c] == 0 tests "b reaches nothing above c" in O(1)
        self.count = SquareIntMatrix(len(self.pr.blocks))
        # min-heap of the ids of queued blocks: those that may host a
        # refiner; every block off the heap is known not to
        self.worklist: list[int] = []
        self.stats = RunStats()

    # ------------------------------------------------------------------
    # driver

    def run(self) -> tuple[SimulationResult, RunStats]:
        """Alternate the two phases until jointly stable.

        Relation pruning must only ever run on a partition-stable pair
        (pruning an unstable one can drop pairs the final preorder needs),
        so each pruning round is followed by a full partition
        re-stabilization before the next round consumes the removal lists
        the previous one built. A round that removes nothing leaves no
        pending lists behind, so it certifies joint stability.
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
        self._queue(self.pr.blocks)
        if self.find_prefiner() is not None:
            raise InvariantViolation("pair not partition stable at exit")
        if self.cfg.stats_enabled:
            self.stats.findprefiner_null_returns += 1
        result = self.pr.extract_result()
        if self.cfg.full and not check_is_simulation_pr(self.ks, self.pr):
            raise InvariantViolation("converged pair is not a simulation")
        return result, self.stats

    def _shape(self) -> tuple[int, int]:
        return (len(self.pr.blocks), self.pr.rel.pair_count())

    def _queue(self, blocks) -> None:
        """Put every block not yet on the refiner worklist onto it."""
        heap = self.worklist
        for b in blocks:
            if not b.queued:
                b.queued = True
                heappush(heap, b.index)

    # ------------------------------------------------------------------
    # table initialization

    def initialize(self) -> None:
        """Fill the predecessor, counter, and removal tables."""
        pr = self.pr
        self.update_pre_e()

        rel = pr.rel.rows
        cnt = self.count.rows
        nb = len(pr.blocks)
        has_out = bytearray(nb)
        for d in pr.blocks:
            if not d.pre_e:
                continue
            cols = [c for c in range(nb) if rel[c][d.index]]
            for b in d.pre_e:
                has_out[b.index] = 1
                row = cnt[b.index]
                for c in cols:
                    row[c] += 1

        track = self.cfg.stats_enabled
        for c in pr.blocks:
            ci = c.index
            for d in pr.blocks:
                if has_out[d.index] and cnt[d.index][ci] == 0:
                    c.remove.append(d)
                    d.listed_in.append(c)
                    if track:
                        self.stats.remove_elements_total += 1
        self._queue(pr.blocks)
        if self.cfg.cheap:
            self._check_structure()
        if self.cfg.full:
            self._check_tables()

    # ------------------------------------------------------------------
    # partition stabilization

    def pstabilize(self) -> bool:
        """Split until no partition refiner remains.

        Returns True iff the partition did not change at all, which then
        certifies joint stability to the driver.
        """
        blocks = self.pr.blocks
        # a class of several blocks falls apart into singletons: the hosting
        # of every block reaching into it may change
        class_size = Counter(b.anc for b in blocks)
        for b in blocks:
            if class_size[b.anc] > 1:
                self._queue(b.pre_e)
        for b in blocks:
            b.anc = b.index
        any_split = False
        while True:
            refiner = self.find_prefiner()
            if refiner is None:
                break
            splitter = self.pre_up_set(refiner)
            split_list = self.pr.split(splitter)
            if self.cfg.full and not split_list:
                raise InvariantViolation("refiner produced no split")
            if self.cfg.stats_enabled:
                self.stats.splits_total += len(split_list)
                self.stats.new_blocks_total += 2 * len(split_list)
            add_block_entries(self.pr, self.count, [b.brother for b in split_list])
            for f in split_list:
                f.brother.anc = f.anc
            self.update_rel(split_list)
            self.update_pre_e()
            self.update_count(split_list)
            self.update_rem(split_list)
            any_split = True
            if self.cfg.cheap:
                self._check_structure()
            if self.cfg.full:
                self._check_tables()
        if self.cfg.full:
            self._check_order(require_antisymmetric=False)
        return not any_split

    def find_prefiner(self) -> Block | None:
        """First block whose upward closure's preimage cuts some block.

        Mid-call the relation is the entry partial order lifted through
        splits, so blocks descended from one entry block are mutually
        related and share an upward closure. A candidate class of block b
        qualifies when the counter says b reaches nothing strictly above
        the class: then the splitter pre(up-set) meets b in exactly the
        states with an edge into the class, a proper nonempty cut. On a
        partial order, classes are singletons and the test degenerates to
        the counter equalling one.

        Only blocks on the worklist are searched, smallest id first, which
        finds what a scan of every block in index order would: a block off
        the worklist hosts no refiner (see the module docstring for the
        four rules that keep this true). A host stays queued, since the
        split it causes changes it; a clean block is popped. Under the full
        check level an empty search is confirmed by scanning every block.
        """
        if self.cfg.stats_enabled:
            self.stats.prefiner_calls += 1
        blocks = self.pr.blocks
        heap = self.worklist
        while heap:
            b = blocks[heap[0]]
            rep = self._hosted_refiner(b)
            if rep is not None:
                return rep
            heappop(heap)
            b.queued = False
        if self.cfg.full:
            for b in blocks:
                if self._hosted_refiner(b) is not None:
                    raise InvariantViolation(
                        f"refiner worklist missed block {b.index}"
                    )
        return None

    def _hosted_refiner(self, b: Block) -> Block | None:
        """The first qualifying candidate class of b, or None."""
        row = self.count.rows[b.index]
        for rep, blocks_reached in self.post_candidates(b):
            if row[rep.index] == blocks_reached:
                return rep
        return None

    def post_candidates(self, b: Block) -> list[tuple[Block, int]]:
        """Ancestor classes k reached by b with 0 < |b n pre(union k)| < |b|.

        One pass over b's outgoing transitions. mark1 tracks the first
        touch of each successor block (to count distinct class members
        reached), mark2 on the class representative dedups one state's
        hits so each state contributes at most once per class. On exit
        every representative's scratch counter holds |b n pre(union of
        its class)|, all marks are clear, and each candidate is returned
        with its number of reached member blocks.
        """
        blocks = self.pr.blocks
        states = self.pr.states
        state_block = self.pr.state_block
        succ = self.ks.succ
        touched: list[Block] = []
        class_states: dict[int, int] = {}
        class_blocks: dict[int, int] = {}
        order: list[int] = []
        for s in states[b.begin : b.end]:
            per_state: list[Block] = []
            for y in succ[s]:
                c = state_block[y]
                if not c.mark1:
                    c.mark1 = True
                    touched.append(c)
                    n = class_blocks.get(c.anc)
                    if n is None:
                        class_blocks[c.anc] = 1
                        order.append(c.anc)
                    else:
                        class_blocks[c.anc] = n + 1
                rep = blocks[c.anc]
                if not rep.mark2:
                    rep.mark2 = True
                    per_state.append(rep)
                    class_states[c.anc] = class_states.get(c.anc, 0) + 1
            for rep in per_state:
                rep.mark2 = False
        for c in touched:
            c.mark1 = False
        size = b.size
        out = []
        for anc in order:
            rep = blocks[anc]
            rep.count = class_states[anc]
            if 0 < rep.count < size:
                out.append((rep, class_blocks[anc]))
        return out

    def pre_up_set(self, c: Block) -> list[int]:
        """Duplicate-free list of states with an edge into c's upward closure.

        One pass over all transitions; scanning per source state means the
        first hit settles that state, no marking needed.
        """
        rel_row = self.pr.rel.rows[c.index]
        state_block = self.pr.state_block
        succ = self.ks.succ
        out: list[int] = []
        for s in range(self.ks.num_states):
            for y in succ[s]:
                if rel_row[state_block[y].index]:
                    out.append(s)
                    break
        return out

    # ------------------------------------------------------------------
    # incremental table updates after a split

    def update_rel(self, split_list: list[Block]) -> None:
        """Lift the relation through a split: halves inherit parent rows/columns."""
        rel = self.pr.rel.rows
        nb = len(self.pr.blocks)
        new_ids = {f.brother.index for f in split_list}
        for f in split_list:
            ni = f.brother.index
            fi = f.index
            for r in range(nb):
                if r not in new_ids:
                    rel[r][ni] = rel[r][fi]
        for f in split_list:
            rel[f.brother.index][:] = rel[f.index]

    def update_pre_e(self) -> None:
        """Rebuild every block's predecessor block set, in first-edge order."""
        pr = self.pr
        succ = self.ks.succ
        states = pr.states
        state_block = pr.state_block
        for b in pr.blocks:
            b.pre_e = {}
        for b in pr.blocks:
            for s in states[b.begin : b.end]:
                for y in succ[s]:
                    state_block[y].pre_e[b] = None

    def update_count(self, split_list: list[Block]) -> None:
        """Make the counter matrix exact for the new partition.

        Copies give every row/column its parent's value, then per split
        pair the smaller half X is rescanned from scratch while the larger
        half Z is adjusted: one decrement per successor *family* (a split
        pair counts as one family, matching the granularity of the copied
        parent value) that Z no longer reaches, and one increment for any
        other non-rescanned row with edges into both halves. Finally every
        half whose counter just dropped to zero against some block c is
        logged into c's removal list; these are exactly the blocks whose
        states lost their last edge into c's upward closure by losing their
        sibling states.
        """
        pr = self.pr
        blocks = pr.blocks
        nb = len(blocks)
        cnt = self.count.rows
        rel = pr.rel.rows
        track = self.cfg.stats_enabled
        stats = self.stats

        # removal-list members that split now stand for both halves
        for f in split_list:
            brother = f.brother
            for owner in f.listed_in:
                owner.remove.append(brother)
            brother.listed_in.extend(f.listed_in)
            if track:
                stats.remove_elements_total += len(f.listed_in)

        new_ids = {f.brother.index for f in split_list}
        for f in split_list:
            ni = f.brother.index
            fi = f.index
            for r in range(nb):
                if r not in new_ids:
                    cnt[r][ni] = cnt[r][fi]
        for f in split_list:
            cnt[f.brother.index][:] = cnt[f.index]

        snapshot = {}
        pairs: list[tuple[Block, Block]] = []
        small_ids = set()
        for f in split_list:
            for h in (f, f.brother):
                snapshot[h.index] = list(cnt[h.index])
            x, z = (f, f.brother) if f.size <= f.brother.size else (f.brother, f)
            pairs.append((x, z))
            small_ids.add(x.index)

        states = pr.states
        state_block = pr.state_block
        succ = self.ks.succ
        for x, z in pairs:
            xr = cnt[x.index]
            for c in range(nb):
                xr[c] = 0
            zr = cnt[z.index]
            touched: list[Block] = []
            fam_touched: list[Block] = []
            for s in states[x.begin : x.end]:
                if track:
                    stats.smaller_half_state_scans[s] += 1
                for y in succ[s]:
                    v = state_block[y]
                    if v.mark1:
                        continue
                    v.mark1 = True
                    touched.append(v)
                    vi = v.index
                    for c in range(nb):
                        if rel[c][vi]:
                            xr[c] += 1
                    rep = v.brother if v.intersection is True else v
                    if not rep.mark2:
                        rep.mark2 = True
                        fam_touched.append(rep)
                        if rep.intersection is False:
                            lost = z not in rep.pre_e and z not in rep.brother.pre_e
                        else:
                            lost = z not in rep.pre_e
                        if lost:
                            ri = rep.index
                            for c in range(nb):
                                if rel[c][ri]:
                                    zr[c] -= 1
            for v in touched:
                v.mark1 = False
            for r in fam_touched:
                r.mark2 = False

            # rows with edges into both halves now count two blocks where
            # the copied parent value counted one; rescanned rows excluded
            xi = x.index
            z_pre = z.pre_e
            for d in x.pre_e:
                if d.index in small_ids:
                    continue
                if d in z_pre:
                    dr = cnt[d.index]
                    for c in range(nb):
                        if rel[c][xi]:
                            dr[c] += 1

        # log halves that just lost their last counted block above some c
        for f in split_list:
            for h in (f, f.brother):
                hr = cnt[h.index]
                old = snapshot[h.index]
                for c in range(nb):
                    if hr[c] == 0 and old[c] != 0:
                        blocks[c].remove.append(h)
                        h.listed_in.append(blocks[c])
                        if track:
                            stats.remove_elements_total += 1

        # every changed row: the halves' and those of their predecessors
        for f in split_list:
            self._queue((f, f.brother))
            self._queue(f.pre_e)
            self._queue(f.brother.pre_e)

        if self.cfg.cheap:
            for row in cnt:
                for v in row:
                    if v < 0 or v > nb:
                        raise InvariantViolation("counter out of range")

    def update_rem(self, split_list: list[Block]) -> None:
        """New halves start with an independent copy of their brother's list.

        The copy replaces the entries ``update_count`` just logged into the
        new half's list. Those are in the brother's list too, since the two
        halves' counter columns are equal, so they come back with the copy
        and keep their ``listed_in`` entries.
        """
        track = self.cfg.stats_enabled
        for f in split_list:
            brother = f.brother
            logged = set(brother.remove)
            brother.remove = list(f.remove)
            for m in brother.remove:
                if m not in logged:
                    m.listed_in.append(brother)
            if track:
                self.stats.remove_elements_total += len(f.remove)

    # ------------------------------------------------------------------
    # relation stabilization

    def rstabilize(self) -> bool:
        """One relation-pruning round over the pending removal lists.

        Snapshots and clears every removal list, then for each selected
        block c with a pending list, prunes every related pair (b, d) with
        b a predecessor block of c and d in the snapshot; each pruning
        decrements the counters of d's predecessors against b, and a
        counter reaching zero logs the fresh violation into b's list for
        the next round. Must run on a partition-stable pair; the driver
        re-stabilizes the partition between rounds. Returns True iff no
        pair was removed, in which case no list is left pending either.
        On exit the relation is antisymmetric again: split-created mutual
        pairs always carry a logged witness, so one direction gets pruned.
        """
        pr = self.pr
        blocks = pr.blocks
        rel = pr.rel.rows
        cnt = self.count.rows
        track = self.cfg.stats_enabled
        full = self.cfg.full
        pending = [b.remove for b in blocks]
        for b in blocks:
            b.remove = []
            b.listed_in = []
        entry_rel = pr.rel.copy_rows() if full else None
        removed = False
        for sel in blocks:
            dropped = pending[sel.index]
            if not dropped:
                continue
            if track:
                self.stats.remove_trace.append(
                    (
                        frozenset(pr.block_states(sel)),
                        frozenset(s for d in dropped for s in pr.block_states(d)),
                    )
                )
            for pred in sel.pre_e:
                prow = rel[pred.index]
                pi = pred.index
                for d in dropped:
                    if not prow[d.index]:
                        continue
                    prow[d.index] = 0
                    removed = True
                    if track:
                        self.stats.pairs_removed_total += 1
                    self._queue(d.pre_e)
                    for f in d.pre_e:
                        fr = cnt[f.index]
                        fr[pi] -= 1
                        if fr[pi] == 0:
                            pred.remove.append(f)
                            f.listed_in.append(pred)
                            if track:
                                self.stats.remove_elements_total += 1
                        elif full and fr[pi] < 0:
                            raise InvariantViolation("counter went negative")
        if self.cfg.cheap:
            self._check_structure()
        if full:
            self._check_tables()
            self._check_remove_invariant(entry_rel)
            self._check_order(require_antisymmetric=True)
        return not removed

    # ------------------------------------------------------------------
    # self checks

    def _check_structure(self) -> None:
        """Cheap structural sanity: segments cover, pointers agree, diagonal set."""
        pr = self.pr
        n = len(pr.states)
        seen = bytearray(n)
        covered = 0
        for b in pr.blocks:
            if b.begin >= b.end:
                raise InvariantViolation(f"empty live block {b}")
            covered += b.size
            for p in range(b.begin, b.end):
                s = pr.states[p]
                if pr.state_block[s] is not b:
                    raise InvariantViolation("segment and block pointer disagree")
                if seen[s]:
                    raise InvariantViolation("state appears twice")
                seen[s] = 1
                if pr.pos[s] != p:
                    raise InvariantViolation("position index stale")
        if covered != n:
            raise InvariantViolation("segments do not cover the state ordering")
        rel = pr.rel.rows
        for b in pr.blocks:
            if not rel[b.index][b.index]:
                raise InvariantViolation("relation lost reflexivity")
            if len({d.index for d in b.remove}) != len(b.remove):
                raise InvariantViolation("removal list holds duplicates")

    def _edge_rows(self) -> list[bytearray]:
        """Edge-existence matrix read off ``pre_e``: [b][c] is 1 iff b in c.pre_e.

        Transient, for the full checks only: one P^2 build per call keeps
        the row-wise comparisons as cheap as a maintained matrix would.
        """
        nb = len(self.pr.blocks)
        rows = [bytearray(nb) for _ in range(nb)]
        for c in self.pr.blocks:
            ci = c.index
            for b in c.pre_e:
                rows[b.index][ci] = 1
        return rows

    def _check_tables(self) -> None:
        """Full check: ``pre_e`` and the counters equal their from-scratch
        recomputation, and ``listed_in`` inverts the removal lists."""
        bc_ref, cnt_ref = recompute_tables(self.ks, self.pr)
        blocks = self.pr.blocks
        nb = len(blocks)
        bc = self._edge_rows()
        cnt = self.count.rows
        for i in range(nb):
            if bytearray(bc_ref[i]) != bc[i]:
                raise InvariantViolation(f"edge-existence row {i} stale")
            if cnt_ref[i] != cnt[i]:
                raise InvariantViolation(f"counter row {i} stale")
        holders = [[] for _ in range(nb)]
        for c in blocks:
            for d in c.remove:
                holders[d.index].append(c.index)
        for d in blocks:
            if sorted(c.index for c in d.listed_in) != sorted(holders[d.index]):
                raise InvariantViolation(
                    f"listed_in of block {d.index} does not invert the removal lists"
                )

    def _check_order(self, require_antisymmetric: bool) -> None:
        rel = self.pr.rel.rows
        nb = len(self.pr.blocks)
        for i in range(nb):
            if not rel[i][i]:
                raise InvariantViolation("relation not reflexive")
        for i in range(nb):
            row_i = rel[i]
            for j in range(nb):
                if not row_i[j]:
                    continue
                if require_antisymmetric and i != j and rel[j][i]:
                    raise InvariantViolation("relation not antisymmetric")
                row_j = rel[j]
                for k in range(nb):
                    if row_j[k] and not row_i[k]:
                        raise InvariantViolation("relation not transitive")

    def _check_remove_invariant(self, entry_rel) -> None:
        """Round invariant: fresh lists hold exactly the blocks that could
        reach c's upward closure at round entry but no longer can."""
        pr = self.pr
        bc = self._edge_rows()
        nb = len(pr.blocks)
        rel = pr.rel.rows
        for c in pr.blocks:
            ci = c.index
            expected = set()
            for d in pr.blocks:
                row = bc[d.index]
                reach_entry = any(
                    row[e] for e in range(nb) if entry_rel[ci][e]
                )
                reach_now = any(row[e] for e in range(nb) if rel[ci][e])
                if reach_entry and not reach_now:
                    expected.add(d.index)
            actual = {d.index for d in c.remove}
            if expected != actual:
                raise InvariantViolation(
                    f"removal list of block {ci} violates the round invariant"
                )


def recompute_tables(ks: KripkeStructure, pr: PartitionRelationPair):
    """From-scratch edge-existence and counter tables for the current pair.

    Independent of the maintained ``pre_e`` sets and counters; used as the
    oracle for their exactness.
    """
    nb = len(pr.blocks)
    bidx = [b.index for b in pr.state_block]
    bc = [[0] * nb for _ in range(nb)]
    for s in range(ks.num_states):
        for y in ks.succ[s]:
            bc[bidx[s]][bidx[y]] = 1
    rel = pr.rel.rows
    cnt = [[0] * nb for _ in range(nb)]
    for b in range(nb):
        row = bc[b]
        out = cnt[b]
        for c in range(nb):
            rc = rel[c]
            out[c] = sum(row[e] for e in range(nb) if rc[e])
    return bc, cnt


def check_is_simulation_pr(ks: KripkeStructure, pr: PartitionRelationPair) -> bool:
    """Direct verification that the pair represents a simulation.

    Evaluates, by plain set computations, that (i) related blocks are
    label-uniform, (ii) whenever block b reaches block c, every block
    above b reaches c's upward closure, and (iii) no block is cut by the
    preimage of any block's upward closure. Quadratic in blocks times
    edges; a verification oracle, not a hot path.
    """
    blocks = pr.blocks
    rel = pr.rel.rows
    members = {b.index: pr.block_states(b) for b in blocks}

    for b in blocks:
        for c in blocks:
            if rel[b.index][c.index]:
                lab = ks.labels[members[b.index][0]]
                if any(ks.labels[s] != lab for s in members[b.index]):
                    return False
                if any(ks.labels[s] != lab for s in members[c.index]):
                    return False

    up_pre = {}
    for c in blocks:
        up_pre[c.index] = pre_of(ks, pr.up_set_states(c))

    reaches = {}
    for b in blocks:
        targets = set()
        for s in members[b.index]:
            for y in ks.succ[s]:
                targets.add(pr.block_of(y).index)
        reaches[b.index] = targets

    for b in blocks:
        for ci in reaches[b.index]:
            for d in blocks:
                if rel[b.index][d.index]:
                    if not any(s in up_pre[ci] for s in members[d.index]):
                        return False

    for c in blocks:
        splitter = up_pre[c.index]
        for b in blocks:
            inside = sum(1 for s in members[b.index] if s in splitter)
            if 0 < inside < len(members[b.index]):
                return False
    return True


def compute_simulation(
    ks: KripkeStructure, cfg: EngineConfig | None = None
) -> tuple[SimulationResult, RunStats]:
    """Run the engine on one structure and return result plus counters."""
    return SimulationEngine(ks, cfg).run()
