from collections import Counter
from functools import cached_property, reduce
from itertools import compress
from operator import or_, setitem
from random import Random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import simrel.engine as engine_module
from simrel.engine import (
    EngineConfig,
    InvariantViolation,
    SimulationEngine,
    check_is_simulation_pr,
    compute_simulation,
    recompute_tables,
    transpose,
)
from simrel.kripke import (
    KripkeStructure,
    generate_random_ks,
    initial_label_partition,
    make_chain,
    make_clique,
    parse_ks,
)
from simrel.oracle import brute_force_simulation, simulation_partition
from simrel.prcore import PartitionRelationPair, bits, init_pr

from .conftest import (
    StateSetTraced,
    blocks_of,
    build_ks,
    engine_after_initialize,
    state_sets,
)

FULL = EngineConfig(check_level="full", stats_enabled=True)


def random_ks(max_states=8):
    return st.builds(
        generate_random_ks,
        n_states=st.integers(1, max_states),
        n_labels=st.integers(1, 3),
        edge_prob=st.sampled_from([0.1, 0.3, 0.6]),
        seed=st.integers(0, 2**32 - 1),
    )


def relate(pr, b, c):
    """Put block b below block c, in both directions of the relation."""
    pr.up[b] |= 1 << c
    pr.down[c] |= 1 << b


def related(pr, b, c):
    return bool(pr.up[b] >> c & 1)


def pair_count(pr):
    return sum(row.bit_count() for row in pr.up)


def block_ids(pr):
    """Every live block id, in creation order."""
    return range(len(pr.begin))


def queued(eng):
    """Ids of the blocks whose worklist flag is set."""
    return {i for i, flag in enumerate(eng.worklist) if flag}


def class_set(eng, b):
    """The removal set of b's class, read at its owner, the lowest id of
    the blocks mutually related with b."""
    pr = eng.pr
    return eng.remove[bits(pr.up[b] & pr.down[b])[0]]


def run_one_split_round(eng):
    """Drive exactly one refiner-cut-update iteration; return its pair."""
    found = eng.find_prefiner()
    assert found is not None
    return eng.cut(*found[1:])


def halves(eng, b, side):
    """The two halves into which ``side``, a list of block b's states,
    cuts b, as a set of two frozensets: a part and the states it leaves
    out give the same halves. Fails if ``side`` lists a state twice."""
    states = frozenset(side)
    assert len(states) == len(side), side
    return {states, frozenset(eng.pr.block_states(b)) - states}


def host_share(eng, rep, b):
    """The states of block b with an edge into rep's upward closure, in
    ascending order: the part that a refiner hit on rep at host b must
    cut off."""
    pr = eng.pr
    above, succ, state_block = pr.up[rep], eng.ks.succ, pr.state_block
    return sorted(
        s for s in pr.block_states(b) if any(above >> state_block[y] & 1 for y in succ[s])
    )


def count_index_builds(monkeypatch):
    """Patch the engine's predecessor index builder to record each call;
    return the list of recorded structures."""
    builds = []
    build = engine_module.predecessor_index
    monkeypatch.setattr(
        engine_module, "predecessor_index", lambda ks: builds.append(ks) or build(ks)
    )
    return builds


class Counted(tuple):
    """A sequence that adds to ``eng.walked``, while ``eng.searching``
    is set, one per item read by index and each item of a slice."""

    def __new__(cls, items, eng):
        out = super().__new__(cls, items)
        out.eng = eng
        return out

    def __getitem__(self, i):
        out = tuple.__getitem__(self, i)
        if self.eng.searching:
            self.eng.walked += len(out) if type(i) is slice else 1
        return out


class WalkCounted(SimulationEngine):
    """The engine counting in ``walked`` the states its refiner searches
    read: a state whose successors are read and each source read from
    the predecessor index."""

    walked = 0
    searching = False

    def __init__(self, ks, cfg=None):
        super().__init__(ks, cfg)
        ks.succ = Counted(ks.succ, self)

    @cached_property
    def pred_index(self):
        start, src = engine_module.predecessor_index(self.ks)
        return start, Counted(src, self)

    def find_prefiner(self):
        self.searching = True
        try:
            return SimulationEngine.find_prefiner(self)
        finally:
            self.searching = False


class Unwalkable(tuple):
    """A state's successors that may be tested for emptiness but not
    walked."""

    def __iter__(self):
        raise AssertionError("edge walked")


def forbid_edge_walks(eng):
    """Let ``eng`` test its states' successor lists for emptiness only."""
    eng.ks.succ = tuple(map(Unwalkable, eng.ks.succ))


def mixed_label_classes(ks):
    """The number of label classes that hold both states with and states
    without successors."""
    return sum(
        len({bool(ks.succ[s]) for s in members}) == 2 for members in initial_label_partition(ks)
    )


class TestInitialize:
    def test_no_transitions(self):
        eng = engine_after_initialize(KripkeStructure(3, {}, {}))
        assert all(not preds for preds in eng.pre_e)
        assert eng.post == [0] * len(eng.pr.begin)
        assert eng.remove == [0] * len(eng.pr.begin)

    def test_sink_structure_edge_matrix(self, ks_a):
        eng = engine_after_initialize(ks_a)
        b_pair = eng.pr.state_block[0]
        b_sink = eng.pr.state_block[2]
        assert list(eng.pre_e[b_sink]) == [b_pair, b_sink]
        assert eng.pre_e[b_pair] == {}

    def test_count_equals_existence_under_identity(self, ks_a):
        eng = engine_after_initialize(ks_a)
        for b in block_ids(eng.pr):
            for c in block_ids(eng.pr):
                assert (eng.post[b] & eng.pr.up[c]).bit_count() == (b in eng.pre_e[c])

    def test_remove_lists_per_definition(self):
        # block with edges but none into a target's closure gets listed
        ks = build_ks("ab", [(0, 0), (1, 1)])
        eng = engine_after_initialize(ks)
        b0, b1 = block_ids(eng.pr)
        assert bits(eng.remove[b0]) == [b1]
        assert bits(eng.remove[b1]) == [b0]

    def test_every_block_queued(self, ks_a):
        eng = engine_after_initialize(ks_a)
        assert eng.worklist == bytearray([1] * len(eng.pr.begin))

    @given(
        st.builds(
            generate_random_ks,
            n_states=st.integers(1, 30),
            n_labels=st.integers(1, 3),
            edge_prob=st.sampled_from([0.03, 0.1, 0.3]),
            seed=st.integers(0, 2**32 - 1),
        )
    )
    @example(make_chain(5))
    @settings(max_examples=80, deadline=None)
    def test_entry_cuts_split_each_mixed_label_class_in_two(self, ks):
        # a label class that holds both states with and states without
        # successors is cut between them, once, into two blocks of one
        # class; every other label class stays one block
        eng = SimulationEngine(ks, EngineConfig(stats_enabled=True))
        eng.initialize()
        eng._check_unmixed()
        pr = eng.pr
        for members in initial_label_partition(ks):
            blocks = {pr.state_block[s] for s in members}
            assert len(blocks) == len({bool(ks.succ[s]) for s in members})
            both = sum(1 << b for b in blocks)
            assert all(pr.up[b] == pr.down[b] == both for b in blocks)
        assert eng.stats.splits_total == mixed_label_classes(ks)
        assert eng.worklist == bytearray([1] * len(pr.begin))

    @given(random_ks(max_states=30))
    @settings(max_examples=40, deadline=None)
    def test_predecessor_index_lists_every_in_edge(self, ks):
        eng = engine_after_initialize(ks)
        start, src = eng.pred_index
        assert len(start) == ks.num_states + 1 and len(src) == start[-1]
        for y in range(ks.num_states):
            sources = [s for s in range(ks.num_states) for t in ks.succ[s] if t == y]
            assert list(src[start[y] : start[y + 1]]) == sources

    @pytest.mark.parametrize(
        "ks",
        [
            make_clique(5),
            KripkeStructure(4, {}, {}),
            # a's block reaches only b's and b's only a's: already stable
            build_ks("abab", [(0, 1), (1, 2), (2, 3), (3, 0)]),
        ],
        ids=["clique", "no-transitions", "stable-labels"],
    )
    @pytest.mark.parametrize("level", ["off", "full"])
    def test_run_without_a_cut_never_builds_the_index(self, monkeypatch, ks, level):
        builds = count_index_builds(monkeypatch)
        eng = SimulationEngine(ks, EngineConfig(check_level=level, stats_enabled=True))
        _, stats = eng.run()
        assert stats.splits_total == 0
        assert builds == []
        assert "pred_index" not in vars(eng)

    def test_first_cut_builds_the_index_once(self, monkeypatch):
        # every state of block a has a successor, so no entry cut is made
        # and the first cut is the first search's
        builds = count_index_builds(monkeypatch)
        eng = engine_after_initialize(build_ks("aaab", [(0, 1), (1, 2), (2, 3), (3, 3)]))
        assert builds == []
        run_one_split_round(eng)
        assert len(builds) == 1
        eng.pstabilize()
        assert len(builds) == 1
        builds.clear()
        # the chain's last state has no successor: its first cut is the
        # entry cut that initialize makes
        engine_after_initialize(make_chain(6))
        assert len(builds) == 1
        builds.clear()
        _, stats = compute_simulation(make_chain(6), EngineConfig(stats_enabled=True))
        assert stats.splits_total == 5
        assert len(builds) == 1

    def test_pre_e_duplicate_free(self):
        ks = build_ks("aa", [(0, 1), (1, 1), (0, 0)])
        eng = engine_after_initialize(ks)
        preds = eng.pre_e[0]
        assert len(preds) == len(set(preds)) == 1


class TestPostCandidates:
    def test_block_without_transitions(self):
        eng = engine_after_initialize(build_ks("aa", []))
        assert eng.post_candidates(0) == {}

    def test_block_without_transitions_is_never_walked(self, monkeypatch):
        # a block without transitions has an empty successor bitset, and
        # the refiner search skips it without walking its states
        walked = []
        walk = SimulationEngine.post_candidates
        monkeypatch.setattr(
            SimulationEngine, "post_candidates", lambda eng, b: walked.append(b) or walk(eng, b)
        )
        ks = build_ks("aabba", [])
        result, _ = compute_simulation(ks, FULL)
        assert walked == []
        assert result.partition == ((0, 1, 4), (2, 3))
        assert result.state_matrix() == brute_force_simulation(ks).matrix

    def test_partial_reach_counts_states(self):
        # only state 0 of the pair block reaches the sink block, and only
        # state 1 the pair block's own class
        ks = build_ks("aab", [(0, 2), (1, 1)])
        eng = engine_after_initialize(ks)
        pair_block = eng.pr.state_block[0]
        # one of the pair block's two states reaches the sink's class
        assert eng.post_candidates(pair_block) == {eng.pr.state_block[2]: [0], pair_block: [1]}

    def test_full_reach_excluded(self):
        # the walk lists the sink's class with all of the pair block, a
        # part that cannot cut the block, so no candidate is left
        ks = build_ks("aab", [(0, 2), (1, 2)])
        eng = engine_after_initialize(ks)
        pair_block = eng.pr.state_block[0]
        assert eng.post_candidates(pair_block) == {eng.pr.state_block[2]: [0, 1]}
        assert eng._hosted_refiner(pair_block) is None

    def test_per_state_successor_dedup(self):
        # a state with edges into two member blocks of one class is listed
        # once for that class: one of two states reaches it, a proper cut
        ks = build_ks("aabc", [(0, 2), (0, 3), (1, 1)])
        eng = engine_after_initialize(ks)
        b_a, b_b, b_c = (eng.pr.state_block[s] for s in (0, 2, 3))
        relate(eng.pr, b_b, b_c)
        relate(eng.pr, b_c, b_b)
        assert eng.post_candidates(b_a) == {b_b: [0], b_a: [1]}

    def test_refiner_is_the_lowest_qualifying_class(self):
        # state 0 reaches block 2 before block 1, and state 1 block 3;
        # all three classes qualify, and the host is cut by the one of
        # lowest id, not by the one its edge walk touches first
        ks = build_ks("aacbd", [(0, 3), (0, 2), (1, 4)])
        eng = engine_after_initialize(ks)
        b_a, b_c, b_b, b_d = block_ids(eng.pr)
        assert [eng.pr.state_block[s] for s in (2, 3, 4)] == [b_c, b_b, b_d]
        assert eng.post_candidates(b_a) == {b_b: [0], b_c: [0], b_d: [1]}
        # the other classes' parts come with the hit
        assert eng.find_prefiner() == (b_c, [0], [[0], [1]])

    def test_states_listed_once_in_segment_order(self):
        # three of block a's states reach block b, state 2 by two edges,
        # and state 1 reaches a; with a's segment reversed, they are
        # listed in segment order
        ks = build_ks("aaaabb", [(0, 4), (1, 1), (2, 4), (2, 5), (3, 5)])
        eng = engine_after_initialize(ks)
        pr = eng.pr
        pr.states[0:4] = [3, 2, 1, 0]
        for p, s in enumerate(pr.states):
            pr.pos[s] = p
        assert eng.post_candidates(0) == {1: [3, 2, 0], 0: [1]}

    def test_one_class_host_is_passed_by_unread(self):
        # state 1 has no successor, so the entry cut takes it off block a;
        # the other half reaches only block b, from both of its states, a
        # part that cannot cut it, and the search passes it by without
        # walking an edge
        ks = build_ks("aaabb", [(0, 3), (2, 3), (2, 4)])
        eng = engine_after_initialize(ks)
        pr = eng.pr
        live, dead, b_b = (pr.state_block[s] for s in (0, 1, 3))
        assert sorted(pr.block_states(live)) == [0, 2] and pr.block_states(dead) == [1]
        found = eng.post_candidates(live)
        assert found.keys() == {b_b}
        assert halves(eng, live, found[b_b]) == halves(eng, live, [0, 2])
        forbid_edge_walks(eng)
        assert eng._hosted_refiner(live) is None
        assert eng.find_prefiner() is None

    def test_one_class_host_of_two_blocks_is_passed_by_unread(self):
        # blocks b and c are one class; a reaches both, every state of a
        # has a successor, so the part is all of a, and the search passes
        # a by without walking an edge
        ks = build_ks("aabc", [(0, 2), (0, 3), (1, 3)])
        eng = engine_after_initialize(ks)
        b_a, b_b, b_c = (eng.pr.state_block[s] for s in (0, 2, 3))
        relate(eng.pr, b_b, b_c)
        relate(eng.pr, b_c, b_b)
        assert eng.post_candidates(b_a) == {min(b_b, b_c): [0, 1]}
        forbid_edge_walks(eng)
        assert eng._hosted_refiner(b_a) is None

    def test_host_reaching_two_classes_walks_its_edges(self):
        ks = build_ks("aabc", [(0, 2), (1, 3)])
        eng = engine_after_initialize(ks)
        b_a, b_b, b_c = (eng.pr.state_block[s] for s in (0, 2, 3))
        succ = ks.succ
        forbid_edge_walks(eng)
        with pytest.raises(AssertionError, match="edge walked"):
            eng.post_candidates(b_a)
        ks.succ = succ
        assert eng.post_candidates(b_a) == {b_b: [0], b_c: [1]}

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_chain_search_and_splits_read_linear_states(self, monkeypatch, n):
        # each cut of a chain takes one state off its largest block, so an
        # out-edge walk of that block and a split of its listed part read
        # about n^2 / 2 states each; here the searches read about 2n
        # states in all, and every cut, the entry cut too, passes split
        # one or two states
        split = PartitionRelationPair.split
        passed = []
        monkeypatch.setattr(
            PartitionRelationPair,
            "split",
            lambda pr, inside: passed.append(len(inside)) or split(pr, inside),
        )
        eng = WalkCounted(make_chain(n), EngineConfig(stats_enabled=True))
        _, stats = eng.run()
        assert stats.splits_total == n - 1
        assert eng.walked + sum(passed) <= 4 * n


class TestFindPRefiner:
    def test_stable_identity_none(self, ks_a):
        eng = engine_after_initialize(ks_a)
        assert eng.find_prefiner() is None

    def test_one_sided_structure_finds_own_block(self):
        # state 0 reaches its own block and state 1 the other label's;
        # both classes qualify, and the own block's id is the lower
        eng = engine_after_initialize(build_ks("aab", [(0, 0), (1, 2)]))
        assert eng.find_prefiner() == (0, [0], [[1]])

    def test_converged_pair_has_none(self, ks_a, ks_b):
        for ks in (ks_a, ks_b):
            eng = SimulationEngine(ks, EngineConfig())
            eng.run()
            assert eng.find_prefiner() is None

    def test_clean_blocks_popped_host_kept(self):
        # block a reaches only its own class; block b = {1, 2} reaches its
        # own class through 1 and a's through 2, and is searched after a
        eng = engine_after_initialize(build_ks("abb", [(0, 0), (1, 1), (2, 0)]))
        host = eng.pr.state_block[1]
        assert eng.find_prefiner() == (0, [2], [[1]])
        assert queued(eng) == {host}
        eng.pstabilize()
        assert not any(eng.worklist)

    def test_cut_without_other_parts_clears_both_halves(self):
        # block a = {0, 1} reaches its own class from both states, a part
        # that is no cut, and b's class from state 0, whose part is one
        # half, so neither half can be cut and neither is flagged
        eng = engine_after_initialize(build_ks("aab", [(0, 0), (0, 2), (1, 0)]))
        found = eng.find_prefiner()
        assert found == (1, [0], [])
        kept, new = eng.cut(*found[1:])
        assert (eng.worklist[kept], eng.worklist[new]) == (0, 0)
        assert eng.find_prefiner() is None

    def test_cut_flags_exactly_the_half_another_class_splits(self):
        # the host {0, 1, 2, 3} is cut by x's class into {0, 1} and
        # {2, 3}; y's part {0, 1, 2} holds all of {0, 1} and half of
        # {2, 3}, and so does z's part {3}. Block z has an edge into a
        # half, but a cut changes no verdict outside its halves
        ks = build_ks("aaaaxyz", [(0, 4), (0, 5), (1, 4), (1, 5), (2, 5), (3, 6), (6, 0)])
        eng = engine_after_initialize(ks)
        x, y, z = (eng.pr.state_block[s] for s in (4, 5, 6))
        assert eng.find_prefiner() == (x, [0, 1], [[0, 1, 2], [3]])
        eng.worklist[:] = bytes(len(eng.pr.begin))
        kept, new = eng.cut([0, 1], [[0, 1, 2], [3]])
        assert sorted(eng.pr.block_states(kept)) == [2, 3]
        assert sorted(eng.pr.block_states(new)) == [0, 1]
        assert z in eng.pre_e[new]
        assert queued(eng) == {kept}
        assert eng.find_prefiner() == (y, [2], [[3]])


class TestPStabilize:
    def test_already_stable_true_no_mutation(self, ks_a):
        eng = engine_after_initialize(ks_a)
        pr = eng.pr
        before = [e - b for b, e in zip(pr.begin, pr.end)]
        eng.pstabilize()
        assert [e - b for b, e in zip(pr.begin, pr.end)] == before

    def test_one_split_separates_live_and_dead_state(self, ks_b):
        # the entry cut, and nothing after it
        eng = engine_after_initialize(ks_b)
        eng.pstabilize()
        assert len(eng.pr.begin) == 2
        assert sorted(map(tuple, map(sorted, (
            eng.pr.block_states(b) for b in block_ids(eng.pr)
        )))) == [(0,), (1,)]


    @pytest.mark.parametrize(
        "n, side, new",
        [(5, [4, 3], [3, 4]), (5, [4, 2, 3], [0, 1]), (4, [3, 2], [2, 3])],
        ids=["smaller-side", "larger-side", "tie"],
    )
    def test_cut_passes_its_side_unchanged(self, monkeypatch, n, side, new):
        # split is passed the side itself, in its order, whichever half is
        # smaller; the smaller half takes the new id, and on a tie the
        # passed side does
        split = PartitionRelationPair.split
        passed = []
        monkeypatch.setattr(
            PartitionRelationPair,
            "split",
            lambda pr, inside: passed.append((inside, inside[:])) or split(pr, inside),
        )
        eng = SimulationEngine(build_ks("a" * n, [(s, 0) for s in range(n)]), FULL)
        eng.initialize()
        _, w = eng.cut(side, [])
        assert len(passed) == 1 and passed[0][0] is side and passed[0][1] == side
        assert sorted(eng.pr.block_states(w)) == new


class TestUpdateAfterSplit:
    def test_relation_lifted_to_all_half_pairs(self, ks_b):
        # the entry cut splits the one label block into its live and its
        # dead state
        eng = engine_after_initialize(ks_b)
        assert all(related(eng.pr, i, j) for i in range(2) for j in range(2))
        assert eng.pr.up == eng.pr.down == [0b11, 0b11]

    def test_prior_relations_reach_both_halves(self):
        # a <| b beforehand: both halves of b stay above a
        ks = build_ks("abb", [(0, 1), (1, 1), (2, 0)])
        eng = engine_after_initialize(ks)
        b_a = eng.pr.state_block[0]
        b_b = eng.pr.state_block[1]
        relate(eng.pr, b_a, b_b)
        pair = eng.pr.split([1])
        eng.inherit(*pair)
        for half in pair:
            assert related(eng.pr, b_a, half)
            assert eng.pr.down[half] >> b_a & 1

    def test_edge_matrix_exact_after_split(self, ks_b):
        # after the entry cut
        eng = engine_after_initialize(ks_b)
        pre_ref, _ = recompute_tables(eng.ks, eng.pr)
        for b in block_ids(eng.pr):
            for c in block_ids(eng.pr):
                assert pre_ref[c].get(b, 0) == eng.pre_e[c].get(b, 0)

    def test_counts_after_first_split(self, ks_b):
        # from-scratch recomputation fixes the expected entries after the
        # entry cut
        eng = engine_after_initialize(ks_b)
        _, post_ref = recompute_tables(eng.ks, eng.pr)
        assert eng.post == post_ref
        live = eng.pr.state_block[0]
        dead = eng.pr.state_block[1]
        up, post = eng.pr.up, eng.post
        assert (post[live] & up[live]).bit_count() == 1
        assert post[dead] & up[live] == 0
        assert post[dead] & up[dead] == 0

    def test_pre_e_rebuilt(self, ks_b):
        # after the entry cut
        eng = engine_after_initialize(ks_b)
        live = eng.pr.state_block[0]
        dead = eng.pr.state_block[1]
        assert list(eng.pre_e[live]) == [live]
        assert eng.pre_e[dead] == {}

    def test_update_rem_copies_independently(self):
        # both states of the pair block have a successor, so initialize
        # makes no entry cut
        ks = build_ks("aab", [(0, 2), (1, 1)])
        eng = engine_after_initialize(ks)
        pair_block = eng.pr.state_block[0]
        marker = eng.pr.state_block[2]
        remove = eng.remove
        remove[pair_block] = 1 << marker
        remove[marker] = 1 << pair_block
        kept, new = eng.pr.split([0])
        eng.inherit(kept, new)
        # the new half has no slot: the list keeps the two sets it had
        # when the phase began, and the half reads its class's set
        assert eng.remove is remove and len(remove) == new == 2
        assert class_set(eng, new) == class_set(eng, kept) == 1 << marker
        assert remove[marker] == 1 << pair_block | 1 << new
        # a write to the class's set reaches both halves and no other set
        remove[kept] |= 1 << pair_block
        assert class_set(eng, new) == 1 << marker | 1 << pair_block
        assert remove[marker] == 1 << pair_block | 1 << new


def split_with_scribbled_tables():
    """An initialized engine whose two label blocks are split one after
    the other, each split followed by ``inherit``.

    Both blocks reach both. Before the splits the relation is an upper
    triangle, so a copied row or column shows where it came from; the
    removal sets hold both blocks, one of them in its own set. Returns the
    engine, the split pairs and the tables before the splits.
    """
    ks = build_ks("aaabbb", [(0, 3), (1, 1), (2, 5), (3, 0), (4, 4), (5, 2)])
    eng = engine_after_initialize(ks)
    eng.remove[:] = [0b11, 0b10]
    nb = len(eng.pr.begin)
    for r in range(nb):
        for c in range(r + 1, nb):
            relate(eng.pr, r, c)
    before = (eng.pr.up[:], eng.pr.down[:], eng.post[:])
    pairs = []
    for inside in ([0], [3]):
        pair = eng.pr.split(inside)
        eng.inherit(*pair)
        pairs.append(pair)
    assert pairs == [(0, 2), (1, 3)]
    return eng, pairs, before


def counted_tables(ks, pr):
    """The edge tables ``(pre_e, post)`` of the pair, from a ``Counter``
    of the pairs (block of s, block of t) over every transition s -> t.
    Shares no code with ``recompute_tables``, which builds the engine's
    tables and is the full checks' reference."""
    state_block, nb = pr.state_block, len(pr.begin)
    count = Counter(
        (state_block[s], state_block[t]) for s in range(ks.num_states) for t in ks.succ[s]
    )
    pre_e, post = [{} for _ in range(nb)], [0] * nb
    for (b, d), m in count.items():
        pre_e[d][b] = m
        post[b] |= 1 << d
    return pre_e, post


def assert_edge_tables_exact(eng):
    """The edge-multiplicity table and the successor bitsets equal the
    recount, which equals the independent count; so, as in the count,
    only nonzero cells are held."""
    pre_ref, post_ref = recompute_tables(eng.ks, eng.pr)
    assert (pre_ref, post_ref) == counted_tables(eng.ks, eng.pr)
    assert eng.pre_e == pre_ref
    assert eng.post == post_ref


class ExactAfterEveryPair(SimulationEngine):
    """The engine with its edge table and successor bitsets recounted
    after every cut block; ``checked`` lists the ``(kept, new)`` pairs
    checked."""

    def __init__(self, ks):
        super().__init__(ks)
        self.checked = []

    def update_count(self, k, w):
        SimulationEngine.update_count(self, k, w)
        assert_edge_tables_exact(self)
        self.checked.append((k, w))


def successor_blocks(eng, b):
    """The blocks that b's states have an edge into, by a walk of b."""
    state_block, succ = eng.pr.state_block, eng.ks.succ
    return {state_block[y] for s in eng.pr.block_states(b) for y in succ[s]}


class RemovalSetsRecounted(SimulationEngine):
    """The engine checking, after ``initialize``, every cut and every
    pruning round, each successor bitset against a walk of its block and
    every block's removal set, read at its class's owner, against its
    definition. Since the sets were last started (by ``initialize``, on
    the label partition before its entry cuts, or when a pruning round
    starts), c's set holds the blocks b that reach nothing above c, while
    b's ancestor then reached something above c's ancestor; at
    ``initialize`` that holds for every block with transitions. ``checks``
    counts the checks."""

    checks = 0

    def reached_above(self, b):
        """The blocks c such that b has an edge into a block above c."""
        reach = successor_blocks(self, b)
        return {c for c, row in enumerate(self.pr.up) if any(row >> d & 1 for d in reach)}

    def start_sets(self, entry):
        self.base = len(entry)
        self.entry = entry

    def ancestor(self, b):
        while b >= self.base:
            b = self.parent[b]
        return b

    def initialize(self):
        self.parent = {}
        blocks = block_ids(self.pr)
        self.start_sets([set(blocks) if successor_blocks(self, b) else set() for b in blocks])
        SimulationEngine.initialize(self)
        self.check()

    def rstabilize(self):
        self.start_sets(list(map(self.reached_above, block_ids(self.pr))))
        out = SimulationEngine.rstabilize(self)
        self.check()
        return out

    def cut(self, inside, others):
        k, w = SimulationEngine.cut(self, inside, others)
        self.parent[w] = k
        self.check()
        return k, w

    def check(self):
        blocks = block_ids(self.pr)
        for b in blocks:
            assert bits(self.post[b]) == sorted(successor_blocks(self, b)), b
        reached = list(map(self.reached_above, blocks))
        for c in blocks:
            above = self.ancestor(c)
            expected = sum(
                1 << b
                for b in blocks
                if c not in reached[b] and above in self.entry[self.ancestor(b)]
            )
            assert class_set(self, c) == expected, c
        self.checks += 1


class TestUpdateEdges:
    @pytest.mark.parametrize("n", [6, 9, 17])
    def test_removal_sets_equal_their_definition_on_chains(self, n):
        # after the first round each cut of the chain's big block keeps a
        # half with edges into both halves that no longer reaches the
        # block split off before
        eng = RemovalSetsRecounted(make_chain(n), EngineConfig(check_level="full"))
        result, _ = eng.run()
        assert result == compute_simulation(make_chain(n))[0]

    @given(
        st.builds(
            generate_random_ks,
            n_states=st.integers(1, 40),
            n_labels=st.integers(1, 3),
            edge_prob=st.sampled_from([0.1, 0.3]),
            seed=st.integers(0, 2**32 - 1),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_equal_recount_after_every_split_round(self, ks):
        # the edge table and the successor bitsets are exact after every
        # cut, the entry cuts too
        eng = ExactAfterEveryPair(ks)
        eng.initialize()
        assert len(eng.checked) == len(eng.pr.begin) - len(initial_label_partition(ks))
        assert_edge_tables_exact(eng)
        eng.checked.clear()
        while True:
            found = eng.find_prefiner()
            while found is not None:
                rep, states, others = found
                b = eng.pr.state_block[states[0]]
                assert halves(eng, b, states) == halves(eng, b, host_share(eng, rep, b))
                pair = eng.cut(states, others)
                assert eng.checked == [pair]
                eng.checked.clear()
                found = eng.find_prefiner()
            if eng.rstabilize():
                break
        result, _ = compute_simulation(ks)
        assert eng.pr.extract_result() == result

    def test_one_split_cutting_three_blocks(self):
        # blocks a = {0, 1, 2}, b = {3, 4, 5, 6}, c = {7, 8}, d = {9}; three
        # cuts split a, b and c, one after the other, and the tables are
        # recounted after each cut. Edges 0 -> 3 and 6 -> 1 join halves of
        # two different pairs, 4 -> 5 and 1 -> 2 stay inside one half, and
        # 6 -> 4 crosses the halves of one pair
        edges = [
            (0, 3), (6, 1), (7, 6), (4, 5), (1, 2), (3, 3), (2, 8), (8, 0),
            (5, 7), (6, 4), (0, 1), (9, 0), (9, 6), (2, 9),
        ]
        ks = build_ks("aaabbbbccd", edges)
        eng = ExactAfterEveryPair(ks)
        eng.initialize()
        pr = eng.pr
        pairs = []
        for inside in ([0], [3, 4, 5], [7]):
            pairs.append(eng.cut(inside, []))
            assert_edge_tables_exact(eng)
        assert pairs == eng.checked == [(0, 4), (1, 5), (2, 6)]
        # every new half is the smaller: a's is the given part; b's given
        # part is the larger, so b's id stays with it and its other state
        # gets the new id; c's halves tie, and the given part gets the new
        # id
        assert [sorted(pr.block_states(b)) for b in block_ids(pr)] == [
            [1, 2], [3, 4, 5], [8], [9], [0], [6], [7],
        ]
        assert eng.pre_e[0] == {0: 1, 4: 1, 5: 1}
        assert eng.pre_e[1] == {1: 2, 4: 1, 5: 1}
        assert eng.pre_e[5] == {3: 1, 6: 1}

    @given(random_ks(max_states=16))
    @settings(max_examples=40, deadline=None)
    def test_new_half_successor_bitset_lists_the_blocks_it_reaches(self, ks):
        eng = engine_after_initialize(ks)
        found = eng.find_prefiner()
        assume(found is not None)
        kept, new = eng.pr.split(found[1])
        eng.inherit(kept, new)
        assert eng.post[new] == 0
        eng.update_edges(kept, new)
        assert bits(eng.post[new]) == sorted(successor_blocks(eng, new))


class SlotPerNewHalf(SimulationEngine):
    """The engine with a broken ``inherit`` that gives each new half its
    own empty removal set."""

    def inherit(self, k, w):
        SimulationEngine.inherit(self, k, w)
        self.remove.append(0)


class TestInherit:
    def test_empty_split_list_no_change(self):
        # a part that is a whole block is refused at the full level, before
        # it changes any table
        eng = SimulationEngine(build_ks("aab", [(0, 2), (1, 2)]), FULL)
        eng.initialize()

        def tables():
            pr = eng.pr
            return (
                pr.states[:], pr.begin[:], pr.end[:], pr.up[:], pr.down[:],
                eng.post[:], [dict(c) for c in eng.pre_e],
                eng.remove[:], bytes(eng.worklist),
            )

        before = tables()
        for inside in ([0, 1], [1, 0], [2], []):
            with pytest.raises(InvariantViolation, match="no split"):
                eng.cut(inside, [])
            assert tables() == before

    def test_one_row_and_column_per_new_half(self):
        eng, pairs, _ = split_with_scribbled_tables()
        pr = eng.pr
        assert len(pr.up) == len(pr.down) == len(eng.post) == len(eng.worklist) == 4
        # the removal sets stay one per block the phase began with
        assert len(eng.remove) == 2
        assert all(row >> 4 == 0 for row in pr.up + pr.down)
        # update_edges fills the new halves' successor bitsets
        assert eng.post[2:] == [0, 0]

    def test_dimension_tracks_cumulative_splits(self):
        eng = engine_after_initialize(build_ks("aaaa", []))
        for splitter in ([0], [1]):
            eng.inherit(*eng.pr.split(splitter))
        pr = eng.pr
        assert len(pr.up) == len(pr.down) == len(eng.post) == 3
        # the halves of one block stay mutually related
        assert pr.up == pr.down == [0b111] * 3

    def test_new_half_copies_parent_row_and_column(self):
        eng, pairs, _ = split_with_scribbled_tables()
        nb = len(eng.pr.begin)
        pr = eng.pr
        for p, n in pairs:
            assert pr.up[n] == pr.up[p]
            assert pr.down[n] == pr.down[p]
            for r in range(nb):
                assert related(pr, r, n) == related(pr, r, p)

    def test_old_entries_untouched(self):
        eng, pairs, (up_before, down_before, post_before) = split_with_scribbled_tables()
        old = len(up_before)
        mask = (1 << old) - 1
        assert [row & mask for row in eng.pr.up[:old]] == up_before
        assert [row & mask for row in eng.pr.down[:old]] == down_before
        # update_edges, not inherit, moves the successor bits
        assert eng.post[:old] == post_before

    def test_remove_list_equals_parents_and_is_independent(self):
        eng, pairs, _ = split_with_scribbled_tables()
        remove = eng.remove
        # a new half has no slot, and reads its parent's class's set
        assert len(remove) == 2
        for kept, new in pairs:
            assert new >= len(remove)
            assert class_set(eng, new) == class_set(eng, kept) == remove[kept]
        sets_with_halves = [s for s in remove if s]
        assert sets_with_halves
        for s in sets_with_halves:
            for kept, new in pairs:
                assert s >> kept & 1 == s >> new & 1

    def test_slot_for_a_new_half_detected(self):
        # the cheap level checks after every cut that the new half has no
        # slot in the removal sets
        eng = SlotPerNewHalf(make_chain(4), EngineConfig(check_level="cheap"))
        with pytest.raises(InvariantViolation, match="holds a removal set"):
            eng.run()
        assert len(eng.pr.begin) == 2

    def test_chain_logs_each_half_once(self):
        # a split half is logged into each removal list at most once, so a
        # chain of n states counts 2n - 1 removal-list elements
        for n in range(2, 41):
            _, stats = compute_simulation(
                make_chain(n), EngineConfig(stats_enabled=True)
            )
            assert stats.to_dict()["remove_elements_total"] == 2 * n - 1


class RecordedRows(list):
    """A list recording every assignment to an item as ``(index, old, new)``."""

    def __init__(self, rows):
        super().__init__(rows)
        self.writes = []

    def __setitem__(self, i, value):
        self.writes.append((i, self[i], value))
        super().__setitem__(i, value)


class TestRStabilize:
    def test_empty_lists_noop(self, ks_a):
        eng = engine_after_initialize(ks_a)
        eng.remove = [0] * len(eng.pr.begin)
        pairs_before = pair_count(eng.pr)
        assert eng.rstabilize() is True
        assert pair_count(eng.pr) == pairs_before

    def test_one_sided_pair_pruned(self, ks_b):
        result, _ = SimulationEngine(ks_b, FULL).run()
        assert result.rows == (0b01, 0b11)

    def test_chained_rounds_reach_fixpoint(self):
        # frozen instance where pruning cascades across rounds: the first
        # round's pruning feeds the next round's removal sets
        ks = build_ks("aaaa", [(0, 1), (0, 2), (2, 1)])

        rounds_with_removals = []

        class Probe(SimulationEngine):
            def rstabilize(self):
                before = pair_count(self.pr)
                out = SimulationEngine.rstabilize(self)
                if pair_count(self.pr) < before:
                    rounds_with_removals.append(before - pair_count(self.pr))
                return out

        result, _ = Probe(ks, FULL).run()
        assert len(rounds_with_removals) >= 2
        assert result.state_matrix() == brute_force_simulation(ks).matrix

    def test_flags_exactly_the_blocks_whose_reach_above_pred_ends_a_batch_at_one_block(self):
        # each write to up[pred] is one batch, pruning the pairs (pred, d)
        # of the bits it clears. A block with an edge into a pruned d is
        # flagged iff it then reaches exactly one block above pred, and
        # logged into pred's next set iff it reaches none. On (5, 2, 0.3, 2)
        # and (8, 2, 0.1875, 3) some block's reach above pred falls from 2
        # or more to 0 in one batch, passing 1 without being tested there
        passed_one = 0
        for args in ((4, 2, 1.5 / 4, 1), (3, 2, 0.5, 4), (5, 2, 0.3, 2), (8, 2, 0.1875, 3)):
            eng = engine_after_initialize(generate_random_ks(*args))
            eng.pstabilize()
            eng.worklist[:] = bytes(len(eng.pr.begin))
            eng.pr.up = up = RecordedRows(eng.pr.up)
            eng.rstabilize()
            pre_e, post = recompute_tables(eng.ks, eng.pr)
            into = [set(col) for col in pre_e]
            flagged, logged = set(), [0] * len(post)
            for pred, old, new in up.writes:
                for f in set().union(*map(into.__getitem__, bits(old & ~new))):
                    reach = post[f] & new
                    if not reach:
                        logged[pred] |= 1 << f
                        passed_one += (post[f] & old).bit_count() > 1
                    elif reach.bit_count() == 1:
                        flagged.add(f)
            assert flagged
            assert queued(eng) == flagged
            assert eng.remove == logged
            assert len(eng.worklist) == len(eng.pr.begin)
        assert passed_one

    def test_dead_half_pair_pruned_via_logged_witness(self):
        # dead states split away from movers must lose the pair claiming
        # the dead side simulates the movers
        ks = build_ks("aaa", [(0, 0)])
        result, _ = SimulationEngine(ks, FULL).run()
        mover = result.partition.index((0,))
        dead = result.partition.index((1, 2))
        assert result.rows[dead] >> mover & 1
        assert not result.rows[mover] >> dead & 1


class FlagsClearedAtCut(SimulationEngine):
    """The engine with a broken ``cut`` that clears both halves' worklist
    flags."""

    def cut(self, inside, others):
        k, w = SimulationEngine.cut(self, inside, others)
        self.worklist[k] = self.worklist[w] = 0
        return k, w


class UnprunedRound(SimulationEngine):
    """The engine with a broken ``rstabilize`` whose first round reports
    a pruned pair without pruning, and whose later rounds report none."""

    rounds = 0

    def rstabilize(self):
        self.rounds += 1
        return self.rounds > 1


class RelatedAfterLastRound(SimulationEngine):
    """The engine with a broken ``rstabilize`` that puts block 0 below
    block 1 after the last round."""

    def rstabilize(self):
        done = SimulationEngine.rstabilize(self)
        if done:
            relate(self.pr, 0, 1)
        return done


class EntryUncut(SimulationEngine):
    """The engine with a broken ``initialize`` that makes no entry cut, so
    its entry pair keeps every label block whole."""

    def initialize(self):
        self.cut = lambda inside, others: None
        try:
            SimulationEngine.initialize(self)
        finally:
            del self.cut


class InEdgePartShort(SimulationEngine):
    """The engine with a broken in-edge route that drops the last state of
    the first minor class's side it finds (the route lists the minor
    classes first)."""

    def _in_edge_candidates(self, b, reach):
        found = SimulationEngine._in_edge_candidates(self, b, reach)
        if found is not None:
            next(iter(found.values())).pop()
        return found


class InEdgeMinorFlipped(SimulationEngine):
    """The engine with a broken in-edge route that gives the first minor
    class's side as the states of the host its part leaves out, which
    cuts the host as the part does, next to the major class's left-out
    states."""

    def _in_edge_candidates(self, b, reach):
        found = SimulationEngine._in_edge_candidates(self, b, reach)
        if found is not None:
            a = next(iter(found))
            found[a] = [s for s in self.pr.block_states(b) if s not in found[a]]
        return found


class TestFullChecks:
    @pytest.mark.parametrize(
        "engine, ks, level, message",
        [
            # block {0, 1, 4} reaches its own class through 0 and 1 and
            # b's through 0 and 4; the first cut takes 4 off and leaves the
            # half {0, 1}, which b's part cuts and which only the cleared
            # flag would have searched
            (FlagsClearedAtCut, build_ks("aabba", [(0, 0), (0, 3), (1, 1), (4, 3)]), "off",
             "pair not partition stable at exit"),
            (UnprunedRound, make_chain(4), "full", "no progress between driver iterations"),
            # two unconnected states of different labels are unrelated
            (RelatedAfterLastRound, build_ks("ab", []), "full",
             "converged pair is not a simulation"),
            # state 0 has a successor and state 1, of the same label, has
            # none, and no entry cut separates them; the search passes the
            # block by, as it reaches one class
            (EntryUncut, build_ks("aa", [(0, 0)]), "cheap",
             "block 0 holds states with and states without successors"),
            # the chain's largest block reaches its own class and the next
            # state's, whose part of one state the route lists; with that
            # state dropped, only the comparison with the out-edge walk
            # sees the wrong part
            (InEdgePartShort, make_chain(40), "full",
             "in-edge candidates of block 0 differ from its edge walk"),
            # the same route with the next state's class given by the
            # states its part leaves out: each side still cuts the block
            # as its part does, but only one class may be given so
            (InEdgeMinorFlipped, make_chain(40), "full",
             "in-edge candidates of block 0 differ from its edge walk"),
        ],
        ids=[
            "exit-search", "progress", "simulation", "mixed-block", "in-edge-part",
            "in-edge-flipped-side",
        ],
    )
    def test_broken_driver_step_detected(self, engine, ks, level, message):
        with pytest.raises(InvariantViolation, match=message):
            engine(ks, EngineConfig(check_level=level)).run()

    def test_mixed_entry_block_detected_by_initialize(self):
        # the cheap level checks the entry pair before the first search
        eng = EntryUncut(build_ks("aa", [(0, 0)]), EngineConfig(check_level="cheap"))
        with pytest.raises(InvariantViolation, match="block 0 holds states with and states"):
            eng.initialize()

    @pytest.mark.parametrize(
        "corrupt, check, message",
        [
            (lambda eng: setitem(eng.pr.up, 0, eng.pr.up[0] ^ 1), "_check_structure",
             "relation lost reflexivity"),
            (lambda eng: setitem(eng.pr.up, 1, eng.pr.up[1] ^ 2), "_check_cut",
             "relation lost reflexivity"),
            (lambda eng: setitem(eng.pr.end, 0, 2), "_check_structure",
             "segments do not cover the state ordering"),
            (lambda eng: setitem(eng.pr.end, 1, 3), "_check_structure",
             r"empty live block 1, \[3,3\)"),
            (lambda eng: eng.pre_e.append({}), "_check_tables",
             "edge-multiplicity columns do not cover the blocks"),
            (lambda eng: eng.post.append(0), "_check_tables",
             "successor bitsets do not cover the blocks"),
        ],
        ids=["structure-diagonal", "cut-diagonal", "cover", "empty", "columns", "bitsets"],
    )
    def test_corrupt_table_after_a_cut_detected(self, corrupt, check, message):
        # the chain's one block is cut at entry into the states 0-2 and
        # the state 3, which has no successor
        eng = SimulationEngine(make_chain(4), FULL)
        eng.initialize()
        assert [eng.pr.block_states(b) for b in (0, 1)] == [[0, 1, 2], [3]]
        checks = {
            "_check_structure": eng._check_structure,
            "_check_cut": lambda: eng._check_cut(0, 1),
            "_check_tables": eng._check_tables,
        }
        for run_check in checks.values():
            run_check()
        corrupt(eng)
        with pytest.raises(InvariantViolation, match=message):
            checks[check]()

    @pytest.mark.parametrize(
        "up, message",
        [
            # block 0 is below block 1 but not related to itself
            ([0b10, 0b10], "relation not reflexive"),
            ([0b11, 0b11], "relation not antisymmetric"),
            # 0 below 1 and 1 below 2, but 0 not below 2
            ([0b011, 0b110, 0b100], "relation not transitive"),
        ],
    )
    def test_broken_order_detected(self, up, message):
        eng = SimulationEngine(build_ks("a" * len(up), []))
        eng.pr = pair_of([[b] for b in range(len(up))], up)
        with pytest.raises(InvariantViolation, match=message):
            eng._check_order(require_antisymmetric=True)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_recount_equals_an_independent_count(self, seed):
        # recompute_tables builds the engine's edge tables and is the
        # full checks' reference for them, so it is checked against a
        # count that shares no code with it
        rng = Random(seed)
        ks = random_structure(rng)
        for source, pr in sample_pairs(ks, rng):
            assert recompute_tables(ks, pr) == counted_tables(ks, pr), source

    def test_stale_edge_set_detected(self, ks_a):
        eng = engine_after_initialize(ks_a)
        eng._check_tables()
        victim = next(preds for preds in eng.pre_e if preds)
        del victim[next(iter(victim))]
        with pytest.raises(InvariantViolation, match="edge-multiplicity column"):
            eng._check_tables()

    def test_emptied_worklist_detected(self):
        # block a = {0, 1} hosts a refiner: its own class cuts it
        eng = SimulationEngine(build_ks("aab", [(0, 0), (1, 2)]), FULL)
        eng.initialize()
        eng.worklist[:] = bytes(len(eng.pr.begin))
        with pytest.raises(InvariantViolation, match="worklist missed"):
            eng.find_prefiner()

    def test_successor_bitset_out_of_step_in_a_cut_detected(self):
        # the cheap level checks each half's successor bitset against its
        # edge-multiplicity column right after the cut, before the next
        # search; the chain's first cut is its entry cut
        eng = SimulationEngine(make_chain(4), EngineConfig(check_level="cheap"))
        update_edges = eng.update_edges

        def corrupting_update_edges(k, w):
            update_edges(k, w)
            eng.post[w] ^= 1 << k

        eng.update_edges = corrupting_update_edges
        with pytest.raises(InvariantViolation, match="successor bitset"):
            eng.initialize()
        assert len(eng.pr.begin) == 2

    @pytest.mark.parametrize(
        "table, message", [("pos", "position index stale"), ("state_block", "pointer disagree")]
    )
    def test_corrupt_state_tables_inside_a_cut_detected(self, table, message):
        # the cheap level checks the cut block's two segments right after
        # the cut's last table update, before the next cut: here the
        # first of two entry cuts, one per label
        eng = SimulationEngine(build_ks("aabb", [(0, 0), (2, 2)]), EngineConfig(check_level="cheap"))
        update_count = eng.update_count

        def corrupting_update_count(k, w):
            update_count(k, w)
            getattr(eng.pr, table)[eng.pr.block_states(w)[0]] += 1

        eng.update_count = corrupting_update_count
        with pytest.raises(InvariantViolation, match=message):
            eng.initialize()
        assert len(eng.pr.begin) == 3

    def test_down_out_of_step_with_up_detected(self, ks_a):
        eng = SimulationEngine(ks_a, FULL)
        eng.initialize()
        eng.pr.down[0] |= 1 << 1
        with pytest.raises(InvariantViolation, match="transpose"):
            eng._check_tables()

    def test_stale_successor_bitset_detected(self):
        # the full level recounts the successor bitsets after every
        # pruning round
        eng = SimulationEngine(build_ks("aaaaa", [(1, 0), (1, 2), (1, 4)]), FULL)
        eng.initialize()
        eng.pstabilize()
        assert eng.rstabilize() is False
        eng._check_tables()
        eng.post[0] ^= 1
        with pytest.raises(InvariantViolation, match="successor bitset 0 stale"):
            eng._check_tables()

    def test_corrupt_removal_set_detected(self):
        # this structure's first pruning round logs fresh violations
        eng = SimulationEngine(build_ks("aaaaa", [(1, 0), (1, 2), (1, 4)]), FULL)
        eng.initialize()
        eng.pstabilize()
        entry_up = eng.pr.up[:]
        assert eng.rstabilize() is False
        assert any(eng.remove)
        eng._check_remove_invariant(entry_up)
        for b in block_ids(eng.pr):
            saved = eng.remove[b]
            eng.remove[b] ^= 1 << b
            with pytest.raises(InvariantViolation, match="round invariant"):
                eng._check_remove_invariant(entry_up)
            eng.remove[b] = saved


def pre_of(ks, target):
    """States with at least one transition into ``target``."""
    tset = set(target)
    return {s for s in range(ks.num_states) if any(t in tset for t in ks.succ[s])}


def up_set_states(pr, b):
    """Union of the segments of all blocks that block b relates into."""
    out = set()
    for c in bits(pr.up[b]):
        out.update(pr.block_states(c))
    return out


def state_set_failures(ks, pr):
    """The reference for ``check_is_simulation_pr``: the conditions the
    pair fails, found by plain set computations over states, one
    preimage per block's upward closure. ``"label"``: a block related to
    another holds a state whose label differs from the first block's
    first state; ``"reach"``: some block above b has no state in the
    preimage of the upward closure of a block that b reaches;
    ``"stable"``: one of those preimages cuts a block. The set is empty
    iff the pair represents a simulation."""
    blocks = range(len(pr.begin))
    up = pr.up
    members = [pr.block_states(b) for b in blocks]
    failed = set()
    for b in blocks:
        lab = ks.labels[members[b][0]]
        for c in bits(up[b]):
            if any(ks.labels[s] != lab for s in members[b] + members[c]):
                failed.add("label")
    up_pre = [pre_of(ks, up_set_states(pr, c)) for c in blocks]
    reaches = [{pr.state_block[y] for s in members[b] for y in ks.succ[s]} for b in blocks]
    for b in blocks:
        for c in reaches[b]:
            for d in bits(up[b]):
                if not any(s in up_pre[c] for s in members[d]):
                    failed.add("reach")
    for splitter in up_pre:
        for b in blocks:
            if 0 < sum(s in splitter for s in members[b]) < len(members[b]):
                failed.add("stable")
    return failed


def pair_of(blocks, up):
    """A pair whose block b holds the states ``blocks[b]``, in that order,
    related by the rows ``up``."""
    states, begin, end = [], [], []
    for members in blocks:
        begin.append(len(states))
        states.extend(members)
        end.append(len(states))
    pos, state_block = [0] * len(states), [0] * len(states)
    for p, s in enumerate(states):
        pos[s] = p
    for b, members in enumerate(blocks):
        for s in members:
            state_block[s] = b
    return PartitionRelationPair(states, pos, state_block, begin, end, list(up), transpose(up))


def sample_pairs(ks, rng):
    """Yield ``(source, pair)`` for the pairs to check on ks: the engine's
    pair after ``initialize``, after ``pstabilize``, after one
    ``rstabilize`` and after ``run``; the converged pair with one relation
    bit flipped; and a random refinement of the label partition under a
    random relation. The engine's pair is yielded live, so check it
    before drawing the next one."""
    eng = SimulationEngine(ks)
    eng.initialize()
    yield "initialize", eng.pr
    eng.pstabilize()
    yield "pstabilize", eng.pr
    eng.rstabilize()
    yield "rstabilize", eng.pr
    eng = SimulationEngine(ks)
    eng.run()
    yield "run", eng.pr
    nb = len(eng.pr.begin)
    up = eng.pr.up[:]
    up[rng.randrange(nb)] ^= 1 << rng.randrange(nb)
    yield "flipped", pair_of([eng.pr.block_states(b) for b in range(nb)], up)
    blocks = []
    for members in initial_label_partition(ks):
        parts = {}
        for s in members:
            parts.setdefault(rng.randrange(3), []).append(s)
        blocks.extend(parts.values())
    density = rng.choice([0.0, 0.1, 0.3, 0.6])
    up = [sum(1 << c for c in range(len(blocks)) if rng.random() < density) for _ in blocks]
    yield "refined", pair_of(blocks, up)


def random_structure(rng):
    return generate_random_ks(
        rng.randint(1, 20), rng.randint(1, 3), rng.choice([0.05, 0.1, 0.2, 0.4]),
        rng.getrandbits(32),
    )


class TestSimulationCheck:
    def test_converged_output_passes(self, ks_a, ks_b):
        for ks in (ks_a, ks_b):
            eng = SimulationEngine(ks, EngineConfig())
            eng.run()
            assert check_is_simulation_pr(ks, eng.pr) is True

    def test_label_partition_identity_fails_when_unstable(self, ks_b):
        assert check_is_simulation_pr(ks_b, init_pr(ks_b)) is False

    def test_self_loop_identity_passes(self):
        ks = KripkeStructure(1, {}, {0: [0]})
        assert check_is_simulation_pr(ks, init_pr(ks)) is True

    def test_empty_structure_passes(self):
        ks = KripkeStructure(0, {}, {})
        eng = SimulationEngine(ks)
        eng.run()
        assert check_is_simulation_pr(ks, eng.pr) is True
        assert check_is_simulation_pr(ks, init_pr(ks)) is True

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_verdict_equals_state_set_reference(self, seed):
        rng = Random(seed)
        ks = random_structure(rng)
        for source, pr in sample_pairs(ks, rng):
            assert check_is_simulation_pr(ks, pr) == (not state_set_failures(ks, pr)), source

    def test_samples_fail_each_condition_alone(self):
        # the property test's sources reach every verdict: some pairs pass,
        # and for each condition some pair fails that condition alone
        rng = Random(23)
        seen = Counter()
        for _ in range(200):
            ks = random_structure(rng)
            for source, pr in sample_pairs(ks, rng):
                failed = frozenset(state_set_failures(ks, pr))
                assert check_is_simulation_pr(ks, pr) == (not failed), source
                seen[failed] += 1
        for alone in ((), ("label",), ("reach",), ("stable",)):
            assert seen[frozenset(alone)], alone

    def test_blocks_of_different_labels_related_fail(self, ks_a):
        # blocks {0, 1} and {2}: relating them keeps every reach and every
        # block whole, and breaks only the label condition
        eng = SimulationEngine(ks_a)
        eng.run()
        pr = eng.pr
        relate(pr, pr.state_block[0], pr.state_block[2])
        assert state_set_failures(ks_a, pr) == {"label"}
        assert check_is_simulation_pr(ks_a, pr) is False

    def test_block_of_two_labels_fails(self):
        # one block {0, 1} whose states carry different labels
        ks = build_ks("ab", [])
        pr = pair_of([[0, 1]], [1])
        assert state_set_failures(ks, pr) == {"label"}
        assert check_is_simulation_pr(ks, pr) is False

    def test_one_non_simulation_pair_added_fails(self):
        # blocks {0} and {1, 2}: 0 moves to 1, and 1 and 2 are dead, so
        # {1, 2} is below {0} and not above it. Putting {0} below {1, 2}
        # leaves every block whole, and breaks only the reach condition
        ks = build_ks("aaa", [(0, 1)])
        eng = SimulationEngine(ks)
        eng.run()
        pr = eng.pr
        mover, dead = pr.state_block[0], pr.state_block[1]
        assert not related(pr, mover, dead)
        relate(pr, mover, dead)
        assert state_set_failures(ks, pr) == {"reach"}
        assert check_is_simulation_pr(ks, pr) is False

    def test_unstable_partition_fails(self):
        # one block {0, 1, 2} under the identity: the preimage of the
        # block, {0}, cuts it, and that breaks only the stability condition
        ks = build_ks("aaa", [(0, 1)])
        pr = init_pr(ks)
        assert state_set_failures(ks, pr) == {"stable"}
        assert check_is_simulation_pr(ks, pr) is False

    def test_corrupted_down_changes_no_verdict(self):
        # the check reads the relation from up alone
        rng = Random(5)
        for _ in range(40):
            ks = random_structure(rng)
            for source, pr in sample_pairs(ks, rng):
                verdict = check_is_simulation_pr(ks, pr)
                saved = pr.down
                pr.down = [rng.getrandbits(len(saved)) for _ in saved]
                assert check_is_simulation_pr(ks, pr) == verdict, source
                pr.down = None
                assert check_is_simulation_pr(ks, pr) == verdict, source
                pr.down = saved

    def test_never_calls_recompute_tables(self, monkeypatch):
        # the check counts its successor bitsets in its own walk of the
        # transitions and builds no edge-multiplicity table; the engines
        # that sample_pairs runs build theirs with recompute_tables, so it
        # is patched only around the check
        def recount(ks, pr):
            raise AssertionError("recompute_tables called")

        rng = Random(11)
        verdicts = set()
        for _ in range(40):
            ks = random_structure(rng)
            for source, pr in sample_pairs(ks, rng):
                with monkeypatch.context() as patched:
                    patched.setattr(engine_module, "recompute_tables", recount)
                    verdict = check_is_simulation_pr(ks, pr)
                assert verdict == (not state_set_failures(ks, pr)), source
                verdicts.add(verdict)
        assert verdicts == {True, False}


class TestDeadStates:
    def test_never_in_pre_e(self):
        ks = build_ks("aaa", [(0, 1)])
        eng = engine_after_initialize(ks)
        eng.pstabilize()
        dead_blocks = {
            b for b in block_ids(eng.pr) if all(
                not ks.succ[s] for s in eng.pr.block_states(b)
            )
        }
        for preds in eng.pre_e:
            assert not (set(preds) & dead_blocks)

    def test_all_dead(self):
        ks = KripkeStructure(4, {}, {})
        result, _ = SimulationEngine(ks, FULL).run()
        assert result.partition == ((0, 1, 2, 3),)

    def test_dead_simulated_by_everyone_same_label(self):
        ks = build_ks("aa", [(0, 0)])
        result, _ = SimulationEngine(ks, FULL).run()
        assert result.state_matrix() == brute_force_simulation(ks).matrix


class TestDriver:
    def test_single_state_self_loop(self):
        ks = KripkeStructure(1, {}, {0: [0]})
        result, _ = compute_simulation(ks, FULL)
        assert result.partition == ((0,),)
        assert result.rows == (1,)

    def test_empty_structure(self):
        result, _ = compute_simulation(KripkeStructure(0, {}, {}), FULL)
        assert result.partition == ()

    def test_sink_structure(self, ks_a):
        result, _ = compute_simulation(ks_a, FULL)
        assert result.partition == ((0, 1), (2,))

    def test_one_sided_structure(self, ks_b):
        result, _ = compute_simulation(ks_b, FULL)
        assert result.partition == ((0,), (1,))
        assert result.order_pairs() == [(1, 0)]

    def test_deterministic_runs(self):
        ks = generate_random_ks(9, 2, 0.3, 31415)
        r1, s1 = compute_simulation(ks, EngineConfig(stats_enabled=True))
        r2, s2 = compute_simulation(ks, EngineConfig(stats_enabled=True))
        assert r1 == r2
        assert s1.to_dict() == s2.to_dict()

    def test_stats_disabled_identical_results(self):
        ks = generate_random_ks(9, 2, 0.3, 2718)
        r1, s1 = compute_simulation(ks, EngineConfig())
        r2, _ = compute_simulation(ks, EngineConfig(stats_enabled=True))
        assert r1 == r2
        assert s1.to_dict()["splits_total"] == 0  # counters stay untouched

    @given(random_ks())
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, ks):
        result, _ = compute_simulation(ks, FULL)
        assert result.state_matrix() == brute_force_simulation(ks).matrix

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_multi_atom_labels(self, data):
        # label sets with several atoms, including empty ones
        n = data.draw(st.integers(1, 7))
        labels = {
            s: data.draw(st.sets(st.sampled_from("pqr"), max_size=3))
            for s in range(n)
        }
        succ = {
            s: data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
            for s in range(n)
        }
        ks = KripkeStructure(n, labels, succ)
        result, _ = compute_simulation(ks, FULL)
        assert result.state_matrix() == brute_force_simulation(ks).matrix

    @given(random_ks(max_states=7))
    @settings(max_examples=40, deadline=None)
    def test_partition_matches_oracle_reduction(self, ks):
        result, _ = compute_simulation(ks)
        blocks, leq = simulation_partition(brute_force_simulation(ks))
        assert [list(b) for b in result.partition] == blocks
        k = len(blocks)
        assert [[bool(row >> j & 1) for j in range(k)] for row in result.rows] == leq

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EngineConfig(check_level="paranoid")


def renamed(ks, perm):
    """``ks`` with state s renamed to perm[s]."""
    n = ks.num_states
    labels = {perm[s]: ks.labels[s] for s in range(n)}
    succ = {perm[s]: [perm[t] for t in ks.succ[s]] for s in range(n)}
    return KripkeStructure(n, labels, succ)


def with_copy_of(ks, orig):
    """``ks`` plus a fresh last state with the label and successors of ``orig``."""
    n = ks.num_states
    labels = dict(enumerate(ks.labels))
    labels[n] = ks.labels[orig]
    succ = dict(enumerate(ks.succ))
    succ[n] = ks.succ[orig]
    return KripkeStructure(n + 1, labels, succ)


def disjoint_union(a, b):
    """``a`` and ``b`` side by side, the states of ``b`` shifted past ``a``'s."""
    n = a.num_states
    labels = dict(enumerate(a.labels))
    succ = dict(enumerate(a.succ))
    for s in range(b.num_states):
        labels[n + s] = b.labels[s]
        succ[n + s] = [n + t for t in b.succ[s]]
    return KripkeStructure(n + b.num_states, labels, succ)


class FullScanEngine(SimulationEngine):
    """The engine with a full scan for every refiner search."""

    def find_prefiner(self):
        self._queue(block_ids(self.pr))
        return SimulationEngine.find_prefiner(self)


class PerBlockPruning(SimulationEngine):
    """The engine whose pruning rounds test, after each batch, every block
    with an edge into a pruned block one at a time, by what it still
    reaches above the batch's block: the per-block test, with no
    predecessor bitsets."""

    def rstabilize(self):
        pr = self.pr
        up, down = pr.up, pr.down
        pre_e, post = self.pre_e, self.post
        flags = self.worklist
        track = self.cfg.stats_enabled
        pending = self.remove
        first = len(pending)
        owners = [self._owner(b) for b in range(first, len(pr.begin))]
        pending += [pending[owner] for owner in owners]
        self.remove = remove = [0] * len(pending)
        if track:
            selections = [(sel, dropped) for sel, dropped in enumerate(pending) if dropped]
            self.stats.remove_trace.append((first, owners, selections))
        removed = False
        for sel, dropped in enumerate(pending):
            if not dropped:
                continue
            for pred in pre_e[sel]:
                hit = up[pred] & dropped
                if not hit:
                    continue
                up[pred] ^= hit
                above = up[pred]
                removed = True
                pruned = bits(hit)
                for d in pruned:
                    down[d] ^= 1 << pred
                for f in set().union(*map(pre_e.__getitem__, pruned)):
                    r = post[f] & above
                    if not r:
                        remove[pred] |= 1 << f
                    elif not r & (r - 1):
                        flags[f] = 1
                if track:
                    self.stats.pairs_removed_total += len(pruned)
        return not removed


def batches_by_branch(eng):
    """Run one pruning round of ``eng``; return how many of its batches
    have fewer blocks above the batch's block than blocks with an edge
    into a pruned block, and how many do not, as ``(walk, per_block)``.
    Each write to ``up[pred]`` is one batch."""
    up = eng.pr.up = RecordedRows(eng.pr.up)
    done = eng.rstabilize()
    eng.pr.up = list(up)
    into = [sum(1 << b for b in col) for col in recompute_tables(eng.ks, eng.pr)[0]]
    walk = per_block = 0
    for _, old, new in up.writes:
        touched = reduce(or_, map(into.__getitem__, bits(old & ~new)))
        if new.bit_count() < touched.bit_count():
            walk += 1
        else:
            per_block += 1
    return done, walk, per_block


def assert_pruning_in_lockstep(ks, cfg):
    """Run the engine and ``PerBlockPruning`` side by side, one phase at
    a time, and check after every pruning round that both hold the same
    relation, removal sets and worklist flags; return the batch counts of
    ``batches_by_branch`` summed over the rounds."""
    eng, ref = SimulationEngine(ks, cfg), PerBlockPruning(ks, cfg)
    walk = per_block = 0
    for e in (eng, ref):
        e.initialize()
        e.pstabilize()
    while True:
        done, w, b = batches_by_branch(eng)
        walk, per_block = walk + w, per_block + b
        assert ref.rstabilize() == done
        assert eng.pr.up == ref.pr.up
        assert eng.pr.down == ref.pr.down
        assert eng.remove == ref.remove
        assert eng.worklist == ref.worklist
        if done:
            break
        eng.pstabilize()
        ref.pstabilize()
    assert eng.pr.extract_result() == ref.pr.extract_result()
    assert eng.stats.to_dict() == ref.stats.to_dict()
    assert eng.stats.remove_trace == ref.stats.remove_trace
    return walk, per_block


class PrefinerRecorded(SimulationEngine):
    """The engine recording every ``find_prefiner`` return in ``found``,
    each side copied before the cut."""

    def __init__(self, ks, cfg=None):
        super().__init__(ks, cfg)
        self.found = []

    def find_prefiner(self):
        out = SimulationEngine.find_prefiner(self)
        if out is None:
            self.found.append(out)
        else:
            rep, states, others = out
            self.found.append((rep, states[:], [side[:] for side in others]))
        return out


def edge_walk(eng, b):
    """Every class that block b reaches, with b's states that reach it,
    by a walk of each state's successors in segment order: each successor
    block's class is read off the relation on first touch."""
    pr, succ = eng.pr, eng.ks.succ
    class_of, parts = {}, {}
    for s in pr.block_states(b):
        for y in succ[s]:
            c = pr.state_block[y]
            if c not in class_of:
                class_of[c] = bits(pr.up[c] & pr.down[c])[0]
            part = parts.setdefault(class_of[c], [])
            if not part or part[-1] != s:
                part.append(s)
    return parts


class EdgeWalkEngine(PrefinerRecorded):
    """``PrefinerRecorded`` whose ``post_candidates`` reads the parts of a
    one-class host off ``edge_walk``, and finds those of other hosts as
    the engine does, so that both cut the same states in the same
    order."""

    def post_candidates(self, b):
        parts = edge_walk(self, b)
        return parts if len(parts) <= 1 else SimulationEngine.post_candidates(self, b)


class PendingRecorded(SimulationEngine):
    """The engine recording, in ``pendings``, the removal sets that each
    pruning round takes as pending, one per block, as the round reads
    them."""

    def __init__(self, ks, cfg=None):
        super().__init__(ks, cfg)
        self.pendings = []

    def rstabilize(self):
        pending = self.remove
        out = SimulationEngine.rstabilize(self)
        self.pendings.append(pending[:])
        return out


class EagerRemovalSets(StateSetTraced, PendingRecorded):
    """``PendingRecorded`` with one removal set per block at every moment:
    a cut copies its parent's set to the new half, puts the new half into
    every set that holds its parent, and logs the halves into the sets of
    every block of ``lost``, owner or not. ``written`` counts the elements
    as they are written: the initial sets, each cut's writes and the sets
    each pruning round logs. ``state_trace`` holds its selections as state
    sets."""

    written = 0

    def initialize(self):
        SimulationEngine.initialize(self)
        # the sets as initialize leaves them, its entry cuts' writes in
        # them, each element once
        self.written = sum(map(int.bit_count, self.remove))

    def inherit(self, k, w):
        pr, remove = self.pr, self.remove
        self.pre_e.append({})
        self.post.append(0)
        wbit = 1 << w
        for r in bits(pr.down[k]):
            pr.up[r] |= wbit
        pr.up.append(pr.up[k])
        pr.down.append(pr.down[k])
        for c in bits(pr.up[w]):
            pr.down[c] |= wbit
        holders = list(compress(range(len(remove)), map((1 << k).__and__, remove)))
        for owner in holders:
            remove[owner] |= wbit
        remove.append(remove[k])
        self.worklist.append(0)
        self.written += len(holders) + remove[k].bit_count()

    def update_count(self, k, w):
        before = self._below(self.post[k] | self.post[w])
        for h in (k, w):
            lost = before & ~self._below(self.post[h])
            for c in bits(lost):
                self.remove[c] |= 1 << h
            self.written += lost.bit_count()

    def rstabilize(self):
        out = super().rstabilize()
        self.written += sum(map(int.bit_count, self.remove))
        return out


class HitsChecked(SimulationEngine):
    """The engine checking every refiner hit: the part it returns is the
    host block's share of pre(up(rep)). ``hits`` counts the hits."""

    hits = 0

    def find_prefiner(self):
        found = SimulationEngine.find_prefiner(self)
        if found is not None:
            rep, states, _ = found
            b = self.pr.state_block[states[0]]
            assert halves(self, b, states) == halves(self, b, host_share(self, rep, b))
            self.hits += 1
        return found


class FlagsChecked(SimulationEngine):
    """The engine checking the worklist flags of every cut after
    ``initialize``, which flags every block after its entry cuts: a half
    is flagged iff a fresh walk of it finds a proper part. ``cuts`` counts
    the cuts, the entry cuts too."""

    cuts = 0
    initialized = False

    def initialize(self):
        SimulationEngine.initialize(self)
        self.initialized = True

    def cut(self, inside, others):
        k, w = SimulationEngine.cut(self, inside, others)
        pr = self.pr
        if self.initialized:
            for h in (k, w):
                size = pr.end[h] - pr.begin[h]
                proper = any(len(part) < size for part in edge_walk(self, h).values())
                assert self.worklist[h] == proper, (k, w, h)
        self.cuts += 1
        return k, w


class InEdgeRouteChecked(FlagsChecked):
    """``FlagsChecked`` checking too that wherever ``post_candidates``
    takes the in-edge route, its classes and its parts, listed, hold the
    same states as ``edge_walk``'s, each once. ``routes`` counts the
    routes taken."""

    routes = 0

    def _in_edge_candidates(self, b, reach):
        found = SimulationEngine._in_edge_candidates(self, b, reach)
        if found is not None:
            walk = edge_walk(self, b)
            assert found.keys() == walk.keys()
            assert all(halves(self, b, found[a]) == halves(self, b, walk[a]) for a in walk)
            assert sum(sorted(found[a]) != sorted(walk[a]) for a in walk) <= 1
            self.routes += 1
        return found


class SegmentsShuffled(SimulationEngine):
    """The engine whose ``initialize`` shuffles each block's segment with
    a ``Random(seed)`` and rewrites ``pos`` to match."""

    def __init__(self, ks, cfg=None, seed=0):
        super().__init__(ks, cfg)
        self.rng = Random(seed)

    def initialize(self):
        SimulationEngine.initialize(self)
        pr = self.pr
        for lo, hi in zip(pr.begin, pr.end):
            segment = pr.states[lo:hi]
            self.rng.shuffle(segment)
            pr.states[lo:hi] = segment
        for p, s in enumerate(pr.states):
            pr.pos[s] = p


class RemovalSlotsCounted(SimulationEngine):
    """The engine checking the length of ``remove``: after every cut it
    is the block count when the sets were last started, by
    ``initialize`` before its entry cuts or by a pruning round, and after
    every pruning round the block count. ``cuts`` counts the cuts."""

    cuts = 0

    def initialize(self):
        self.phase_blocks = len(self.pr.begin)
        SimulationEngine.initialize(self)

    def cut(self, inside, others):
        k, w = SimulationEngine.cut(self, inside, others)
        assert len(self.remove) == self.phase_blocks <= w
        self.cuts += 1
        return k, w

    def rstabilize(self):
        out = SimulationEngine.rstabilize(self)
        assert len(self.remove) == len(self.pr.begin)
        self.phase_blocks = len(self.pr.begin)
        return out


class TestEngineProperties:
    @given(random_ks(max_states=24))
    @example(make_chain(17))
    @settings(max_examples=60, deadline=None)
    def test_removal_sets_one_per_block_the_phase_began_with(self, ks):
        eng = RemovalSlotsCounted(ks, EngineConfig(check_level="cheap", stats_enabled=True))
        result, stats = eng.run()
        assert eng.cuts == stats.splits_total
        assert result == compute_simulation(ks)[0]

    @given(random_ks(max_states=24))
    @settings(max_examples=80, deadline=None)
    def test_cut_flags_a_half_iff_a_fresh_walk_finds_a_proper_part(self, ks):
        eng = FlagsChecked(ks, EngineConfig(check_level="cheap", stats_enabled=True))
        result, stats = eng.run()
        assert eng.cuts == stats.splits_total
        assert result == compute_simulation(ks)[0]

    @given(random_ks(max_states=24))
    @settings(max_examples=80, deadline=None)
    def test_successor_bitsets_and_removal_sets_equal_their_definitions(self, ks):
        eng = RemovalSetsRecounted(ks, EngineConfig(check_level="cheap", stats_enabled=True))
        result, stats = eng.run()
        # once after initialize, after every cut and after each of at
        # least one pruning round
        assert eng.checks >= 2 + stats.splits_total
        assert result == compute_simulation(ks)[0]

    @given(
        st.builds(
            generate_random_ks,
            n_states=st.integers(1, 40),
            n_labels=st.integers(1, 3),
            edge_prob=st.sampled_from([0.05, 0.1, 0.3]),
            seed=st.integers(0, 2**32 - 1),
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_owner_sets_equal_one_set_per_block(self, ks):
        # the eager reference holds a set at every block, so it runs
        # without the cheap check that a new half holds none
        eng = PendingRecorded(ks, EngineConfig(check_level="cheap", stats_enabled=True))
        ref = EagerRemovalSets(ks, EngineConfig(stats_enabled=True))
        result, stats = eng.run()
        ref_result, ref_stats = ref.run()
        assert result == ref_result
        assert stats.to_dict() == ref_stats.to_dict()
        # every block of the reference holds a set, so its records name no
        # owners and only its state-set trace stands for its selections
        assert state_sets(stats.remove_trace, blocks_of(eng.pr)) == ref.state_trace
        assert eng.pendings == ref.pendings
        # the engine counts each pending set as a round reads it, the
        # reference each element as it is written
        assert stats.to_dict()["remove_elements_total"] == ref.written

    @given(
        st.builds(
            generate_random_ks,
            n_states=st.integers(1, 40),
            n_labels=st.integers(1, 3),
            edge_prob=st.sampled_from([0.05, 0.1, 0.3, 0.6]),
            seed=st.integers(0, 2**32 - 1),
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_one_class_parts_equal_an_edge_walk(self, ks):
        for level in ("off", "cheap", "full"):
            cfg = EngineConfig(check_level=level, stats_enabled=True)
            eng, ref = PrefinerRecorded(ks, cfg), EdgeWalkEngine(ks, cfg)
            result, stats = eng.run()
            ref_result, ref_stats = ref.run()
            assert result == ref_result
            assert stats.to_dict() == ref_stats.to_dict()
            assert stats.remove_trace == ref_stats.remove_trace
            assert eng.found == ref.found

    @given(
        st.one_of(
            st.builds(make_chain, st.integers(2, 80)),
            st.builds(
                generate_random_ks,
                n_states=st.integers(20, 80),
                n_labels=st.integers(1, 2),
                edge_prob=st.sampled_from([0.02, 0.03, 0.05]),
                seed=st.integers(0, 2**32 - 1),
            ),
        )
    )
    @example(make_chain(24))
    @settings(max_examples=80, deadline=None)
    def test_in_edge_route_equals_an_edge_walk(self, ks):
        eng = InEdgeRouteChecked(ks, EngineConfig(check_level="cheap", stats_enabled=True))
        result, stats = eng.run()
        assert result.state_matrix() == brute_force_simulation(ks).matrix
        if ks.num_states >= 5 and ks == make_chain(ks.num_states):
            # every pruning round leaves the largest block reaching two
            # classes, the next state's by one edge
            assert eng.routes > 0

    @given(random_ks(max_states=24))
    @settings(max_examples=60, deadline=None)
    def test_check_levels_do_not_change_results(self, ks):
        runs = [
            compute_simulation(ks, EngineConfig(check_level=level, stats_enabled=True))
            for level in ("off", "cheap", "full")
        ]
        (result, stats), *others = runs
        for other, other_stats in others:
            assert other == result
            assert other_stats.to_dict() == stats.to_dict()
            assert other_stats.remove_trace == stats.remove_trace

    @given(random_ks(max_states=24))
    @settings(max_examples=80, deadline=None)
    def test_every_hit_cuts_the_hosts_share_of_the_splitter(self, ks):
        eng = HitsChecked(ks, EngineConfig(check_level="cheap", stats_enabled=True))
        result, stats = eng.run()
        # every hit is one cut, and so is every entry cut
        assert eng.hits + mixed_label_classes(ks) == stats.splits_total
        assert result == compute_simulation(ks)[0]

    @given(
        st.builds(
            generate_random_ks,
            n_states=st.integers(1, 60),
            n_labels=st.integers(1, 4),
            edge_prob=st.sampled_from([0.03, 0.06, 0.1, 0.3]),
            seed=st.integers(0, 2**32 - 1),
        )
    )
    @example(make_chain(20))
    @settings(max_examples=80, deadline=None)
    def test_batched_pruning_equals_per_block_tests(self, ks):
        assert_pruning_in_lockstep(ks, EngineConfig(check_level="full", stats_enabled=True))

    def test_batched_pruning_equals_per_block_tests_with_both_branches(self):
        ks = generate_random_ks(400, 3, 3 / 400, 0)
        walk, per_block = assert_pruning_in_lockstep(ks, EngineConfig(stats_enabled=True))
        assert walk > 0 and per_block > 0

    @given(random_ks(max_states=16))
    @settings(max_examples=80, deadline=None)
    def test_worklist_search_equals_full_scan(self, ks):
        cfg = EngineConfig(stats_enabled=True)
        result, stats = SimulationEngine(ks, cfg).run()
        ref_result, ref_stats = FullScanEngine(ks, cfg).run()
        assert result == ref_result
        assert stats.to_dict() == ref_stats.to_dict()
        assert stats.remove_trace == ref_stats.remove_trace

    def test_worklist_search_equals_full_scan_on_sparse_structures(self):
        # sparse structures of a few dozen states split in long cascades;
        # a split half left off the worklist shows here, not in the small
        # dense structures drawn above
        cfg = EngineConfig(stats_enabled=True)
        for seed in range(200):
            n = 10 + seed % 30
            labels = 1 + seed % 3
            ks = generate_random_ks(n, labels, labels / n, seed)
            result, stats = SimulationEngine(ks, cfg).run()
            ref_result, ref_stats = FullScanEngine(ks, cfg).run()
            assert result == ref_result
            assert stats.to_dict() == ref_stats.to_dict()
            assert stats.remove_trace == ref_stats.remove_trace

    def test_counters_do_not_depend_on_segment_order(self):
        # a host of several qualifying classes is cut by the one of lowest
        # id, so no cut, flag or counter follows the order of the states
        # inside a segment
        corpus = [generate_random_ks(86, 2, 4 / 86, 1797), make_chain(30)]
        for seed in range(80):
            n, labels = 20 + seed % 61, 1 + seed % 3
            corpus.append(generate_random_ks(n, labels, (2 + seed % 3) / n, seed))
        for ks in corpus:
            result, stats = SimulationEngine(ks, EngineConfig(stats_enabled=True)).run()
            for seed in range(3):
                cfg = EngineConfig(check_level="cheap", stats_enabled=True)
                other, other_stats = SegmentsShuffled(ks, cfg, seed).run()
                assert other == result
                assert other_stats.to_dict() == stats.to_dict()
                assert other_stats.remove_trace == stats.remove_trace

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_renaming_states_renames_the_preorder(self, data):
        ks = data.draw(random_ks())
        n = ks.num_states
        perm = data.draw(st.permutations(range(n)))
        base = compute_simulation(ks, FULL)[0].state_matrix()
        moved = compute_simulation(renamed(ks, perm), FULL)[0].state_matrix()
        for s in range(n):
            for t in range(n):
                assert moved[perm[s]] >> perm[t] & 1 == base[s] >> t & 1

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_fresh_copy_is_equivalent_to_its_original(self, data):
        ks = data.draw(random_ks())
        n = ks.num_states
        orig = data.draw(st.integers(0, n - 1))
        base = compute_simulation(ks, FULL)[0].state_matrix()
        grown = compute_simulation(with_copy_of(ks, orig), FULL)[0].state_matrix()
        assert grown[orig] >> n & 1 == grown[n] >> orig & 1 == 1
        # nothing reaches the copy, so the old states' preorder is unchanged
        assert [row & ~(1 << n) for row in grown[:n]] == base

    @given(random_ks(max_states=30), random_ks(max_states=30))
    @settings(max_examples=60, deadline=None)
    def test_disjoint_union_restricts_to_each_component(self, a, b):
        cfg = EngineConfig(check_level="cheap")
        n = a.num_states
        union = compute_simulation(disjoint_union(a, b), cfg)[0].state_matrix()
        own_a = compute_simulation(a, cfg)[0].state_matrix()
        own_b = compute_simulation(b, cfg)[0].state_matrix()
        assert [row & (1 << n) - 1 for row in union[:n]] == own_a
        assert [row >> n for row in union[n:]] == own_b
