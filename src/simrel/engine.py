"""The refinement engine computing the simulation preorder.

A run alternates two phases over a partition-relation pair:

* partition stabilization cuts, one block at a time, every block that
  the preimage of some block's upward closure cuts properly, each cut
  found in O(edges) per probe through the successor bitsets;
* relation stabilization prunes block pairs driven by removal sets, one
  per block when the round starts, chaining through the successor bitsets
  until no violation remains. The blocks that a batch of pruned pairs
  touches are tested together, as bitsets, whenever that is cheaper than
  testing them one at a time.

A block is its int id. Between splits, four tables are maintained: the
block relation (row and column bitsets ``up`` and ``down``, held by the
pair), the edge multiplicities (``pre_e[d][b]``, the number of
transitions from block b into block d, held once, by target block, and
only where nonzero), the successor bitsets (``post[b]``, the blocks that
b has an edge into, the key set of ``pre_e`` transposed), and the
removal sets, bitsets of block ids and no other record of them. The edge
table, the successor bitsets, the removal sets and the worklist flags
are the engine's lists indexed by block id. The number of blocks above
c that b reaches is ``|post[b] & up[c]|``, so each test on it (is it 0,
is it 1, does b reach nothing strictly above c's class) is one bitset
expression, and no table of counters is kept. Below,
``below(x)`` is the union of ``down[d]`` over the blocks d of x: the
blocks c such that x holds a block above c.

Apart from the full checks, three steps walk transitions across the
whole structure. ``initialize`` builds the edge tables with
``recompute_tables``, the same count that the full checks compare them
against, and afterwards each cut only updates them. The first cut builds
the predecessor index, the sources of each state's in-edges in flat
arrays of about four bytes per transition; only a cut and the refiner
search's in-edge route, which waits for the index, read it, so a run
that makes no cut never builds it. And the terminal refiner search in
``run`` reads, for every block whose successors lie in more than one
class, its out-edges or fewer in-edges. The refiner search returns
the cut itself. A block b that hosts class a reaches nothing strictly
above a, so the preimage of a's upward closure meets b in exactly b's
states with an edge into a, b's part for a, which the search has just
found. Any other block that this preimage cuts hosts a refiner too (the
highest class it reaches inside the closure) and is cut by a later
search: Paige and Tarjan's argument that splitting any one block by a
splitter is sound. So a block that hosts several classes is cut by the
one of lowest id, which no order of states decides. ``cut`` cuts the one
block: ``split`` cuts it into a ``(kept, new)`` id pair, ``new`` being
always the smaller half, and the tables are updated for that pair before
the next search, so after every cut they describe a real partition
exactly.

The search finds each of a host's parts as a *cut side*: a list of the
host's states, each once, that cuts the host as the part does, either
the part itself or the states it leaves out. A cut by either gives the
same two halves, and ``split`` gives the new id to the smaller one
whichever it is passed, so the tables are updated from the smaller half,
as Paige and Tarjan and Valmari pay for each split only on its smaller
half, and the search may list whichever side it finds with less work.
The search's shortcuts rest on one fact: no block holds both
states with successors and states without. The entry pair has it. A
state without successors simulates no state that has one, so, as in
Henzinger, Henzinger and Kopke's algorithm, ``initialize`` cuts each
label block that holds both kinds between them. These are ordinary cuts
by the preimage of all states, and like every cut they leave the halves
in one class: the relation stays the lifted identity,
and the classes are the label blocks. A cut of a block whose states all
have successors, or none, leaves two such halves, and pruning cuts
nothing, so the fact holds from then on; the cheap level checks it after
``initialize`` and after every phase. So a block that reaches one class
reaches it from every state, a part that cannot cut the block, and the
search passes it by without reading its states; and a host's part for a
class is the host less its states whose every edge goes into other
classes. When b reaches several classes and holds more states than
blocks it reaches, its edges into each class are read off ``pre_e``, and
the class it reaches with the most edges is the *major* one. If the
states and in-edges of the other classes' blocks are fewer than b's
edges into the major class, the other classes' parts are found through
the predecessor index, and the major class's side is the states its
part leaves out, which that walk has counted; otherwise b's out-edges
are walked. ``cut`` passes ``split`` the side as it is: the left-out
states are no more than the in-edges just read, so moving them costs
no more than finding them. On a chain of n states every later cut takes
one state off a block of up to n, and is found and made in a few steps
instead of two walks of that block.

After ``split``, ``inherit`` gives the new half a copy of its parent's
entry in the relation and a place in exactly the removal sets that hold
its parent; ``update_edges`` splits the parent's edge cells and
successor bits between the halves from the new half's in- and
out-edges; and ``update_count`` then logs every half that reaches
nothing above some block c that its parent reached above into c's set:
the blocks of ``below(post[k] | post[w]) & ~below(post[half])``, the
union of the halves' successor bitsets standing for the parent's.
Without that logging, pairs created mutually related by a split would
never be pruned again.

During partition stabilization the removal sets are held one per class,
not one per block. Two facts make this exact. Every class holds exactly
one block that existed when the phase began, its lowest id and *owner*:
each class is one block when ``initialize`` makes the sets and after
``rstabilize``, and a cut, an entry cut too, puts its new half in its
parent's class. And all blocks of a class would hold equal sets: the new
half would copy its parent's, and ``update_count`` logs into whole
classes, since ``below`` of any bitset is closed under mutual relation.
So ``remove`` holds one set per owner, as many as there were blocks when
the phase began, and a block made in the phase has no slot there. A cut
then ORs its new half into the owners' sets that hold its parent, found
with one C-level pass over the owners' sets, and copies nothing.
``rstabilize`` first extends the list with each newer block's owner set,
and every block owns its set again once the round's sets start.

The refiner search does not rescan every block. A block *hosts* a
refiner when ``post_candidates`` yields a qualifying class for it, which
depends only on the block's successor bitset, its states' successor
blocks and their classes. A block's class is read off the relation: the
blocks mutually related with it, which during partition stabilization
are the blocks descended from one block by splits, the lowest id being
the class's representative. The worklist is one ``bytearray`` of flags
indexed by block id, walked lowest id first: a block whose flag is clear
hosts no refiner. Two triggers set flags:

1. a cut's half is flagged iff the host's own walk shows it may host:
   ``initialize`` flags every block after its entry cuts, and a cut of
   host b into (k, w) flags a half h iff, for some class other than the
   refiner's, b's side p gives 0 < |p n h| < |h|, which a part and the
   states it leaves out answer alike. This is the search's
   proper-part test on h, exact without walking h: a cut leaves every
   class the same set of states (w joins k's class, which keeps its
   lowest id), so h's part for a class is h n p; the refiner class's
   part is exactly one half; and a class that every state of b reaches
   is reached by every state of both halves. A half that passes may
   still fail the test for blocks strictly above the class, which the
   search applies. A cut changes no other block's verdict: every other
   block reaches the same classes through the same states, and it
   reaches a half strictly above a class iff it reached b there, since
   both halves take b's place in the relation.
2. an ``rstabilize`` batch leaves a block reaching exactly one block
   above the batch's block. Every block is clean when ``rstabilize``
   starts, since the search before it came up empty, and every class is
   one block when it ends, so a block f hosts at class a only if
   ``|post[f] & up[a]| = 1`` at round end. If no batch of the round
   lowered that count, it was 1 at round start, when the class of a
   held other blocks: f then reached only a in a's class and nothing
   strictly above it, with the same part, and would have hosted before
   the round. The count only falls in a round, so testing it after each
   batch that lowers it flags every such block.

The terminal refiner search in ``run`` flags every block first, so it
stays a full scan and a worklist that missed a block fails loudly. It
finds each host's sides as every other search does, and the full level
compares every in-edge route it takes with an out-edge walk.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import accumulate, chain, compress, filterfalse
from operator import countOf, not_, or_

from .instrument import RunStats
from .kripke import KripkeStructure
from .prcore import PartitionRelationPair, SimulationResult, bits, init_pr

CHECK_LEVELS = ("off", "cheap", "full")


class InvariantViolation(AssertionError):
    """A runtime self-check failed; signals an engine bug, never bad input."""


@dataclass
class EngineConfig:
    """Knobs for self-checking and instrumentation.

    ``check_level``: "off" runs no self-check but the terminal refiner
    search of ``run``. "cheap" adds structural checks of the cut block's
    two segments and that the new half has no removal set after every
    cut, the entry cuts included, and of every segment and block, linear
    in states and blocks, after ``initialize``, every partition phase and
    every pruning round, with a check after ``initialize`` and every
    partition phase that no block holds both states with and states
    without successors; plus a check that
    each half's successor bitset and edge-multiplicity column agree,
    costing as much as those two rows. "full" adds a
    from-scratch recomputation of the edge table and the successor
    bitsets after every cut and pruning round, a recomputation of the
    removal sets after every pruning round, order-algebra checks after
    every phase, as bitset operations over the relation, a scan of every
    block confirming each empty refiner search, a comparison of every
    host's sides found through in-edges with the parts of an out-edge
    walk of the host, and a direct simulation check of the converged
    pair. Checks never change results.
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
                if shape <= prev_shape:
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
        """``(blocks, -pairs)``, which every driver iteration increases."""
        return (len(self.pr.begin), -sum(row.bit_count() for row in self.pr.up))

    def _below(self, x: int) -> int:
        """The blocks c such that some block of the bitset ``x`` is above c."""
        return reduce(or_, map(self.pr.down.__getitem__, bits(x)), 0)

    def _owner(self, b: int) -> int:
        """The lowest id of b's class, the blocks mutually related with b."""
        mutual = self.pr.up[b] & self.pr.down[b]
        return (mutual & -mutual).bit_length() - 1

    def _queue(self, blocks) -> None:
        """Set the worklist flag of every block id in ``blocks``."""
        flags = self.worklist
        for b in blocks:
            flags[b] = 1

    # ------------------------------------------------------------------
    # table initialization

    def initialize(self) -> None:
        """Create the engine's tables for the label partition: the edge
        tables with ``recompute_tables``, the removal sets and the worklist
        flags. Then make the entry pair: each label block that holds both
        states with and states without successors is cut between them by
        ``cut``, which leaves the halves in one class, and every block is
        flagged. A label block without successors is passed by without
        reading its states. The predecessor index is the property
        ``pred_index``, built by the first cut. The cheap level checks the
        entry pair, and that no block of it is mixed."""
        # pre_e[d][b]: the number of transitions from block b into block
        # d, held only where nonzero; post[b]: the bitset of blocks that b
        # has an edge into, so b reaches |post[b] & up[c]| blocks above c
        self.pre_e, self.post = recompute_tables(self.ks, self.pr)
        # remove[c]: the removal set of c's class, a bitset of block ids,
        # held only at the class's owner; one slot per label block, and
        # none for a block made since. Here c's set holds the blocks with
        # edges that reach nothing above c, which under the identity is no
        # edge into c; the entry cuts then log their halves into the sets,
        # as every cut does
        has_out = sum(1 << b for b, row in enumerate(self.post) if row)
        self.remove = [has_out & ~into for into in transpose(self.post)]
        # worklist[b] is 1 while block b may host a refiner; a block whose
        # flag is 0 is known not to
        self.worklist = bytearray(len(self.post))
        # the entry cuts: each label block with edges loses its states
        # without successors, if it has any
        pr, succ = self.pr, self.ks.succ
        for b in compress(range(len(self.post)), self.post):
            dead = list(filterfalse(succ.__getitem__, pr.block_states(b)))
            if dead:
                self.cut(dead, [])
        self._queue(range(len(pr.begin)))
        if self.cfg.cheap:
            self._check_structure()
            self._check_unmixed()
        if self.cfg.full:
            self._check_tables()

    @cached_property
    def pred_index(self) -> tuple[array, array]:
        """The predecessor index as ``(start, src)``, built on first read:
        the sources of the transitions into state y are
        ``src[start[y] : start[y + 1]]``. ``update_edges`` builds it at the
        run's first cut, and the refiner search's in-edge route reads it
        only once it exists, so a run without a cut never builds it."""
        return predecessor_index(self.ks)

    # ------------------------------------------------------------------
    # partition stabilization

    def pstabilize(self) -> None:
        """Cut until no partition refiner remains.

        Each refiner is one ``cut`` of its host block, which checks it.
        When the phase ends, the cheap level walks the whole structure
        once, checking too that no block holds both states with and
        states without successors (see the module docstring).
        """
        while (found := self.find_prefiner()) is not None:
            self.cut(*found[1:])
        if self.cfg.cheap:
            self._check_structure()
            self._check_unmixed()
        if self.cfg.full:
            self._check_order(require_antisymmetric=False)

    def cut(self, side: list[int], others: list[list[int]]) -> tuple[int, int]:
        """Cut the block that ``side`` cuts properly, flag the halves that
        may host a refiner, and return the ``(kept, new)`` pair.

        ``side`` is a cut side of one block b, its states listed each
        once, and ``others`` holds b's sides for the classes it reaches
        other than the one ``side`` was found for that cut b properly, as
        ``find_prefiner`` returns them. ``split`` is passed ``side`` as it
        is and gives ``new`` to the smaller half, the passed side on a
        tie. Which states are passed decides the halves; their order
        decides only the halves' segment order, on which no result or
        counter depends. The cut is a ``split`` followed by ``inherit``,
        ``update_edges`` and ``update_count``, each reading only the
        tables the one before left, so afterwards every table describes
        the partition exactly. A half h is flagged iff some side of
        ``others`` cuts it properly, 0 < |side n h| < |h|; the states of
        each side are counted in the new half by their block, with no edge
        walk. h is split between a side and the rest of b, so a part and
        the states it leaves out give the same answer, exact for the
        proper-part test the search applies (see the module docstring).
        The full check level first checks that the side cuts b properly.
        After the cut, the cheap level checks the two halves, the only
        segments a cut changes, and the full level rechecks every table.
        """
        pr = self.pr
        if self.cfg.full:
            if not side:
                raise InvariantViolation("refiner produced no split: an empty side")
            b = pr.state_block[side[0]]
            if len(side) >= pr.end[b] - pr.begin[b]:
                raise InvariantViolation(f"refiner produced no split of block {b}")
        k, w = pr.split(side)
        self.inherit(k, w)
        self.update_edges(k, w)
        self.update_count(k, w)
        k_size, w_size = pr.end[k] - pr.begin[k], pr.end[w] - pr.begin[w]
        flag_k = flag_w = False
        for other in others:
            in_w = countOf(map(pr.state_block.__getitem__, other), w)
            flag_w = flag_w or 0 < in_w < w_size
            flag_k = flag_k or 0 < len(other) - in_w < k_size
            if flag_k and flag_w:
                break
        self.worklist[k], self.worklist[w] = flag_k, flag_w
        if self.cfg.stats_enabled:
            self.stats.splits_total += 1
        if self.cfg.cheap:
            self._check_cut(k, w)
        if self.cfg.full:
            self._check_tables()
        return k, w

    def find_prefiner(self) -> tuple[int, list[int], list[list[int]]] | None:
        """The refiner class of lowest id at the first host, its side of
        the host block and the host's sides for its other classes that cut
        it properly, as ``(rep, states, others)``, or None.

        Mid-call the relation is the entry partial order lifted through
        splits, so blocks descended from one entry block are mutually
        related and share an upward closure. A candidate class of block b,
        one whose part of b is proper, qualifies when b's successor bitset
        holds no block strictly above the class: then the splitter
        pre(up-set) meets b in exactly the states with an edge into the
        class, a proper nonempty cut, and ``states`` is a side of that
        cut. On a partial order, classes are singletons and the test is
        that b reaches exactly one block above the class. A host of several
        qualifying classes is cut by the one of lowest id: any one
        splitter is sound, and this choice reads no order of the host's
        states. Each side is the part or the states it leaves out, as
        ``post_candidates`` gives it. ``cut`` reads ``others`` to decide
        the halves' flags.

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
        """b's qualifying candidate class of lowest id, its side and b's
        sides for its other candidate classes, or None.

        A candidate is a class whose part of b is proper, which holds iff
        its side gives 0 < |side| < |b|; a class that every state of b
        reaches cannot cut b.
        """
        reach = self.post[b]
        pr = self.pr
        d = (reach & -reach).bit_length() - 1
        if not reach or not reach & ~(pr.up[d] & pr.down[d]):
            # a block without transitions hosts no refiner, nor does one
            # that reaches one class: no block is mixed, so every state of
            # it reaches the class, a part that cannot cut it
            return None
        size = pr.end[b] - pr.begin[b]
        proper = {a: side for a, side in self.post_candidates(b).items() if 0 < len(side) < size}
        for rep in sorted(proper):
            if not reach & pr.up[rep] & ~pr.down[rep]:
                return rep, proper.pop(rep), list(proper.values())
        return None

    def post_candidates(self, b: int) -> dict[int, list[int]]:
        """Every class reached by b, with a side of the cut of b by the
        states that reach it.

        A block's class is the set of blocks mutually related with it,
        ``up[c] & down[c]``; mid-call these are the blocks descended from
        one entry block, whose id is the lowest in the class. The classes
        are returned as a dict ``{rep: side}``: the id of the class's
        representative block, its lowest id, and a list of b's states,
        each once, that is the class's part of b or, for at most one
        class, the states the part leaves out.

        The sides are found through the minor classes' in-edges when
        ``_in_edge_candidates`` finds that cheaper, and by
        ``_out_edge_candidates``, which lists every part, else. The
        refiner search calls it only for a block that reaches more than
        one class; one that reaches one class has the whole block as its
        part.
        """
        reach = self.post[b]
        if not reach:
            return {}
        found = self._in_edge_candidates(b, reach)
        if found is None:
            return self._out_edge_candidates(b)
        if self.cfg.full:
            self._check_in_edge_candidates(b, found)
        return found

    def _out_edge_candidates(self, b: int) -> dict[int, list[int]]:
        """``post_candidates`` by one pass over b's outgoing transitions,
        with local tables only: a dict names each successor block's class
        the first time it is met, and a list per class collects b's
        states with an edge into the class, its part of b. A state's edges
        are walked together, so a state already listed is the list's last
        entry."""
        pr = self.pr
        up, down, state_block = pr.up, pr.down, pr.state_block
        succ = self.ks.succ
        class_of: dict[int, int] = {}  # successor block -> its class id
        parts: dict[int, list[int]] = {}
        for s in pr.states[pr.begin[b] : pr.end[b]]:
            for y in succ[s]:
                c = state_block[y]
                try:
                    a = class_of[c]
                except KeyError:
                    mutual = up[c] & down[c]
                    a = class_of[c] = (mutual & -mutual).bit_length() - 1
                    parts.setdefault(a, [s])
                part = parts[a]
                if part[-1] != s:
                    part.append(s)
        return parts

    def _in_edge_candidates(self, b: int, reach: int) -> dict[int, list[int]] | None:
        """``post_candidates`` for a host b of more than one class, found
        from the minor classes' in-edges, or None when the route is not
        taken.

        The route is taken once the predecessor index exists, for a host
        with more states than blocks it reaches, since deciding reads one
        cell per block reached and the out-edge walk at least one step per
        state. b's edges into each class are read off ``pre_e[d][b]``, and
        the *major* class is the one b reaches with the most edges. The
        route is taken when the walk of the other classes' blocks, one
        slice of the index per state and ``sum(pre_e[d].values())``
        in-edges per block d, reads fewer items than b's edges into the
        major class. No block is mixed, so every state of b has a
        successor, and the major class's part is b less the states whose
        every edge goes into minor classes, those whose count of edges
        into minor classes is their whole successor count: those states
        are returned as its side, and the part is never listed. They are
        no more than the in-edges just read. Each minor class's side is its
        part, its sources in b.
        """
        pr = self.pr
        if reach.bit_count() >= pr.end[b] - pr.begin[b] or "pred_index" not in vars(self):
            return None
        up, down, state_block = pr.up, pr.down, pr.state_block
        pre_e = self.pre_e
        class_of: dict[int, int] = {}  # block reached -> its class id
        weight: dict[int, int] = {}  # class -> b's edges into it
        for d in bits(reach):
            mutual = up[d] & down[d]
            a = class_of[d] = (mutual & -mutual).bit_length() - 1
            weight[a] = weight.get(a, 0) + pre_e[d][b]
        states, begin, end = pr.states, pr.begin, pr.end
        major = max(weight, key=weight.__getitem__)
        minor: dict[int, list[int]] = {}  # minor class -> its blocks b reaches
        budget = weight[major]
        for d, a in class_of.items():
            if a != major:
                minor.setdefault(a, []).append(d)
                budget -= end[d] - begin[d] + sum(pre_e[d].values())
                if budget <= 0:
                    return None
        start, src = self.pred_index
        succ = self.ks.succ
        sides: dict[int, list[int]] = {}
        minor_edges: Counter[int] = Counter()  # state of b -> its edges into minor classes
        for a, blocks in minor.items():
            sources = list(chain.from_iterable(
                src[start[y] : start[y + 1]]
                for d in blocks
                for y in states[begin[d] : end[d]]
            ))
            mine = list(compress(sources, map(b.__eq__, map(state_block.__getitem__, sources))))
            minor_edges.update(mine)
            sides[a] = list(dict.fromkeys(mine))
        sides[major] = list(compress(minor_edges, map(
            int.__eq__, minor_edges.values(), map(len, map(succ.__getitem__, minor_edges))
        )))
        return sides

    # ------------------------------------------------------------------
    # incremental table updates after a split

    def inherit(self, k: int, w: int) -> None:
        """Give the new half w a copy of its parent's entry in the relation
        and the removal sets, and a place in the other tables.

        ``split`` just cut block k into the pair ``(k, w)``, so k's entries
        are still its parent's. w gets the row and column of k in the
        relation, which puts it in k's class, a place in every removal set
        that holds k, a clear worklist flag, an empty successor bitset and
        an empty edge-multiplicity column. w gets no slot in ``remove``: it
        shares the set of its class's owner. The edge tables still describe
        the partition before the cut, which ``update_edges`` then corrects:
        here w, met in ``up[k]``, has no predecessors, and k still counts
        every edge into it. The relation column is copied only into the
        rows that ``down[k]`` names, and before the row, so w's row holds
        w.
        """
        pr = self.pr
        up, down, remove = pr.up, pr.down, self.remove
        self.pre_e.append({})
        self.post.append(0)
        wbit = 1 << w
        for r in bits(down[k]):
            up[r] |= wbit
        up.append(up[k])
        down.append(down[k])
        for c in bits(up[w]):
            down[c] |= wbit
        # one C-level pass over the owners finds the sets that hold k
        for owner in compress(range(len(remove)), map((1 << k).__and__, remove)):
            remove[owner] |= wbit
        self.worklist.append(0)

    def update_edges(self, k: int, w: int) -> None:
        """Move the edge multiplicities and successor bits of the cut block
        onto its halves.

        Only w, the smaller half, is walked: first its in-edges, through
        the predecessor index, built here by the run's first cut, which
        split the parent's column
        ``pre_e[k]``, with every source counted at its block before the
        cut (w's own states at k), then its out-edges, which split the
        parent's cell ``pre_e[d][k]`` in every column d that w reaches,
        with every target at its block after the cut. k keeps the parent's
        cells less w's; its column is rebuilt as a fresh dict, which costs
        one step per predecessor block of the parent. A successor bit is
        set or cleared wherever a column gains or loses a key.
        """
        pr = self.pr
        state_block, succ = pr.state_block, self.ks.succ
        start, src = self.pred_index
        pre_e, post = self.pre_e, self.post
        w_states = pr.block_states(w)
        if self.cfg.stats_enabled:
            self.stats.smaller_half_state_scans.update(w_states)
        kbit, wbit = 1 << k, 1 << w

        into = Counter(
            map(state_block.__getitem__, chain.from_iterable(
                src[start[y] : start[y + 1]] for y in w_states
            ))
        )
        if w in into:
            into[k] += into.pop(w)
        pre_e[w] = dict(into)
        # a fresh dict: one that shrank keeps the capacity of its peak
        kcol = pre_e[k] = {b: left for b, m in pre_e[k].items() if (left := m - into.get(b, 0))}
        for b in into:
            post[b] |= wbit
            if b not in kcol:
                post[b] ^= kbit

        out = Counter(
            map(state_block.__getitem__, chain.from_iterable(map(succ.__getitem__, w_states)))
        )
        for d, m in out.items():
            post[w] |= 1 << d
            cells = pre_e[d]
            cells[w] = m
            left = cells[k] - m
            if left:
                cells[k] = left
            else:
                del cells[k]
                post[k] ^= 1 << d

    def update_count(self, k: int, w: int) -> None:
        """Log each half of the cut of k into ``(k, w)`` into the removal
        set of every block c above which it reaches nothing, though its
        parent reached something.

        ``update_edges`` has made both halves' successor bitsets exact, and
        ``before = below(post[k] | post[w])`` is ``below`` of the parent's
        successor bitset: the halves together reach what the parent
        reached, w standing for k where they reach the parent's own states,
        and w has k's column in the relation. A half h is logged into c's
        set for every c of ``before & ~below(post[h])``: exactly the blocks
        above which h's states lost their last edge by losing their sibling
        states. ``below`` of a union is the union of the ``below``s, so
        ``before`` is never built: h's blocks are the other half's
        ``below`` less h's own, two ``_below`` unions per cut. That is a
        union of whole classes, since ``below`` of any
        bitset is closed under mutual relation, so h is written only into
        the sets of the owners among them, the blocks with a slot in
        ``remove``. The two halves have equal columns, so such a half is
        logged into the set of both halves' class. No worklist flag is set
        here: other blocks keep their verdicts (see the module docstring).
        """
        remove = self.remove
        below_k, below_w = self._below(self.post[k]), self._below(self.post[w])
        owners = (1 << len(remove)) - 1
        for h, lost in ((k, below_w & ~below_k), (w, below_k & ~below_w)):
            hbit = 1 << h
            for c in bits(lost & owners):
                remove[c] |= hbit

    # ------------------------------------------------------------------
    # relation stabilization

    def rstabilize(self) -> bool:
        """One relation-pruning round over the pending removal sets.

        Takes the removal sets as the pending ones, after extending them
        with the set of its class's owner for each block made in the last
        partition phase (and, before the first round, by the entry cuts),
        and starts an empty list for the next round, in which every block
        owns its set. With stats on, the round appends
        one record to ``remove_trace`` from ids it already holds: the
        number of blocks that held a set, the owners it looked up and the
        ``(c, pending set)`` pair of each block c it selects (see
        ``RunStats``). Then for each selected block c
        with a pending set, prunes every related pair (b, d) with b a
        predecessor block of c and d in c's pending set, all of b's at once
        as ``up[b] & pending``. After each such batch, every block f with
        an edge into a pruned d, the bits of ``touched``, is tested by
        ``r = post[f] & up[b]``, what f still reaches above b: if r is
        empty, the fresh violation is logged into b's set for the next
        round, and if r is one block, f is flagged for the refiner search,
        the only way a round can make a block host a refiner (see the
        module docstring). ``touched`` is the OR of ``pre[d]`` over the
        pruned d, where ``pre[d]`` is the bitset of ``pre_e[d]``'s keys,
        built at its first read in the round and dropped with it. When
        ``up[b]`` has fewer bits than ``touched``, so that a walk of it
        takes fewer steps than the tests, the test is made for all of them
        at once by that walk: ``once`` and ``twice``
        collect the blocks with an edge into at least one and at least two
        blocks above b, so ``touched & ~once`` is logged and ``touched &
        once & ~twice`` is flagged. Otherwise each f is tested by itself.
        Both ways log and flag the same blocks. The pruned pairs and the
        logged blocks of a round do not depend on the order of the
        visits. The flags may, since the visits group the pruned pairs into
        batches, but whatever the order they include every block that
        hosts a refiner after the round. Must run on a partition-stable
        pair; ``run`` re-stabilizes the partition between rounds. Returns
        True iff no pair was removed, in which case no set is left pending
        either. On exit the relation is antisymmetric again: split-created
        mutual pairs always carry a logged witness, so one direction gets
        pruned.
        """
        pr = self.pr
        up, down = pr.up, pr.down
        pre_e, post = self.pre_e, self.post
        flags = self.worklist
        track = self.cfg.stats_enabled
        pending = self.remove
        # the blocks made since the sets started take their owners' sets
        owners = [self._owner(b) for b in range(len(pending), len(pr.begin))]
        pending += map(pending.__getitem__, owners)
        self.remove = remove = [0] * len(pending)
        if track:
            selections = list(compress(enumerate(pending), pending))
            self.stats.remove_trace.append((len(pending) - len(owners), owners, selections))
        entry_up = up[:] if self.cfg.full else None
        # pre[d]: the bitset of pre_e[d]'s keys, the blocks with an edge
        # into d, built at its first read in the round (0 until then); a
        # round does not change the partition
        pre = [0] * len(pending)
        removed = False
        for sel in compress(range(len(pending)), pending):
            dropped = pending[sel]
            for pred in pre_e[sel]:
                hit = up[pred] & dropped
                if not hit:
                    continue
                up[pred] ^= hit
                above = up[pred]
                removed = True
                pbit = 1 << pred
                pruned = bits(hit)
                touched = 0
                for d in pruned:
                    down[d] ^= pbit
                    into = pre[d]
                    if not into:
                        into = pre[d] = sum(map((1).__lshift__, pre_e[d]))
                    touched |= into
                if above.bit_count() < touched.bit_count():
                    # once: the blocks with an edge into some block above
                    # pred; twice: those with edges into two or more
                    once = twice = 0
                    for e in bits(above):
                        into = pre[e]
                        if not into:
                            into = pre[e] = sum(map((1).__lshift__, pre_e[e]))
                        twice |= once & into
                        once |= into
                    remove[pred] |= touched & ~once
                    for f in bits(touched & once & ~twice):
                        flags[f] = 1
                else:
                    for f in bits(touched):
                        r = post[f] & above
                        if not r:
                            remove[pred] |= 1 << f
                        elif not r & (r - 1):
                            flags[f] = 1
                if track:
                    self.stats.pairs_removed_total += len(pruned)
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

    def _check_unmixed(self) -> None:
        """Cheap check, after ``initialize`` and every partition phase,
        that no block holds both states with and states without
        successors. Two C-level passes over the states."""
        state_block, succ = self.pr.state_block, self.ks.succ
        live = set(compress(state_block, map(bool, succ)))
        mixed = live.intersection(compress(state_block, map(not_, succ)))
        if mixed:
            raise InvariantViolation(
                f"block {min(mixed)} holds states with and states without successors"
            )

    def _check_cut(self, k: int, w: int) -> None:
        """Cheap check of one cut into ``(k, w)``: the states of both
        halves point back at them, w is related to itself, w has no slot
        in the removal sets, which only the phase's owners hold, and each
        half's successor bitset agrees with its edge-multiplicity column.
        Costs as much as the halves' segments and those two rows."""
        self._check_segments((k, w))
        if not self.pr.up[w] >> w & 1:
            raise InvariantViolation("relation lost reflexivity")
        if len(self.remove) > w:
            raise InvariantViolation(f"new block {w} holds a removal set")
        post, pre_e = self.post, self.pre_e
        for h in (k, w):
            hbit = 1 << h
            if not all(post[b] & hbit for b in pre_e[h]) or not all(
                h in pre_e[d] for d in bits(post[h])
            ):
                raise InvariantViolation(f"successor bitset of block {h} out of step")

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

    def _check_in_edge_candidates(self, b: int, found: dict[int, list[int]]) -> None:
        """Full check of one in-edge route: the classes ``found`` for b are
        those of the out-edge walk, each side lists its states once, and
        each side holds the walk's part for its class, in any order, but
        for at most one class, whose side holds the states of b that the
        walk's part leaves out."""
        sides = {a: sorted(side) for a, side in found.items()}
        walk = self._out_edge_candidates(b)
        flipped = [a for a, part in walk.items() if sides.get(a) != sorted(part)]
        # the first class whose side is not its part may list what it leaves out
        walk.update((a, set(self.pr.block_states(b)).difference(walk[a])) for a in flipped[:1])
        if sides != {a: sorted(part) for a, part in walk.items()}:
            raise InvariantViolation(f"in-edge candidates of block {b} differ from its edge walk")

    def _check_tables(self) -> None:
        """Full check: the edge table and the successor bitsets equal
        their from-scratch recount by ``recompute_tables``, and ``down``
        is the transpose of ``up``. The removal sets are recomputed by
        ``_check_remove_invariant``."""
        pr = self.pr
        if transpose(pr.up) != pr.down:
            raise InvariantViolation("down is not the transpose of up")
        pre_ref, post_ref = recompute_tables(self.ks, pr)
        tables = (
            ("edge-multiplicity column", self.pre_e, pre_ref),
            ("successor bitset", self.post, post_ref),
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
        into = transpose(self.post)

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
    transition and four per state. The engine builds it at its first cut,
    through ``SimulationEngine.pred_index``.
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


def recompute_tables(
    ks: KripkeStructure, pr: PartitionRelationPair
) -> tuple[list[dict[int, int]], list[int]]:
    """From-scratch edge multiplicities and successor bitsets for the
    current partition, in the engine's layout, as ``(pre_e, post)``.

    ``initialize`` builds the engine's edge tables with it, and the full
    checks compare the maintained tables against it. ``pre_e[d][b]`` is
    the number of transitions from states of b into states of d, kept only
    where nonzero, with the keys in ascending order of b, and ``post[b]``
    is the bitset of the blocks d whose column holds b. The transitions
    are counted in one pass, by source block, and then transposed.
    """
    state_block = pr.state_block
    edges: list[dict[int, int]] = [{} for _ in pr.begin]
    for b, targets in zip(state_block, ks.succ):
        row = edges[b]
        for y in targets:
            d = state_block[y]
            row[d] = row.get(d, 0) + 1
    pre_e: list[dict[int, int]] = [{} for _ in edges]
    for b, row in enumerate(edges):
        for d, m in row.items():
            pre_e[d][b] = m
    return pre_e, [reduce(or_, map((1).__lshift__, row), 0) for row in edges]


def check_is_simulation_pr(ks: KripkeStructure, pr: PartitionRelationPair) -> bool:
    """Direct verification that the pair represents a simulation.

    Independent of the engine's tables: the successor bitsets ``post``
    are recounted here in one walk of each state's successors, and the
    relation is read from ``up`` alone. ``below(x)`` is the union of
    ``transpose(up)[e]`` over the blocks e of x, and ``below_post[b] =
    below(post[b])`` holds the blocks c such that some state of b has a
    successor in c's upward closure. The pair is a simulation iff

    (i) every state of block b has b's label;
    (ii) every state s of b has ``below(reach(s)) == below_post[b]``,
    reach(s) being the blocks of s's successors: s lies in the preimage
    of c's upward closure iff c is in ``below(reach(s))``, so no block
    is cut by the preimage of any block's upward closure; and
    (iii) every block d above b has b's label and
    ``post[b] & ~below_post[d] == 0``: d reaches the upward closure of
    every block that b reaches.

    O(n + m) bitset ORs plus one AND per related pair.
    """
    labels, succ = ks.labels, ks.succ
    # bit_at[y]: the bit of the block of state y, shared by its block's states
    block_bit = [1 << b for b in range(len(pr.begin))]
    bit_at = list(map(block_bit.__getitem__, pr.state_block))
    post = [0] * len(block_bit)
    for b, targets in zip(pr.state_block, succ):
        post[b] |= reduce(or_, map(bit_at.__getitem__, targets), 0)
    below_of = transpose(pr.up)
    # below_at[y]: below(the block of state y)
    below_at = list(map(below_of.__getitem__, pr.state_block))
    below_post = [reduce(or_, map(below_of.__getitem__, bits(row)), 0) for row in post]
    block_label = []
    for b, expected in enumerate(below_post):
        members = pr.block_states(b)
        label = labels[members[0]]
        if countOf(map(labels.__getitem__, members), label) != len(members):
            return False
        for s in members:
            if reduce(or_, map(below_at.__getitem__, succ[s]), 0) != expected:
                return False
        block_label.append(label)
    for b, row in enumerate(pr.up):
        label, reached = block_label[b], post[b]
        for d in bits(row):
            if block_label[d] != label or reached & ~below_post[d]:
                return False
    return True


def compute_simulation(
    ks: KripkeStructure, cfg: EngineConfig | None = None
) -> tuple[SimulationResult, RunStats]:
    """Run the engine on one structure and return result plus counters."""
    return SimulationEngine(ks, cfg).run()
