import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simrel.engine import (
    EngineConfig,
    InvariantViolation,
    SimulationEngine,
    check_is_simulation_pr,
    compute_simulation,
    recompute_tables,
)
from simrel.kripke import KripkeStructure, generate_random_ks, parse_ks
from simrel.oracle import brute_force_simulation, simulation_partition
from simrel.prcore import init_pr

from .conftest import build_ks

FULL = EngineConfig(check_level="full", stats_enabled=True)


def random_ks(max_states=8):
    return st.builds(
        generate_random_ks,
        n_states=st.integers(1, max_states),
        n_labels=st.integers(1, 3),
        edge_prob=st.sampled_from([0.1, 0.3, 0.6]),
        seed=st.integers(0, 2**32 - 1),
    )


def engine_after_initialize(ks):
    eng = SimulationEngine(ks, EngineConfig())
    eng.initialize()
    return eng


def run_one_split_round(eng):
    """Drive exactly one refiner-split-update iteration."""
    refiner = eng.find_prefiner()
    assert refiner is not None
    split_list = eng.pr.split(eng.pre_up_set(refiner))
    assert split_list
    from simrel.prcore import add_block_entries

    add_block_entries(eng.pr, eng.count, [b.brother for b in split_list])
    for f in split_list:
        f.brother.anc = f.anc
    eng.update_rel(split_list)
    eng.update_pre_e()
    eng.update_count(split_list)
    eng.update_rem(split_list)
    return split_list


class TestInitialize:
    def test_no_transitions(self):
        eng = engine_after_initialize(KripkeStructure(3, {}, {}))
        assert all(not b.pre_e for b in eng.pr.blocks)
        assert all(not any(row) for row in eng.count.rows)
        assert all(b.remove == [] for b in eng.pr.blocks)

    def test_sink_structure_edge_matrix(self, ks_a):
        eng = engine_after_initialize(ks_a)
        b_pair = eng.pr.block_of(0)
        b_sink = eng.pr.block_of(2)
        assert list(b_sink.pre_e) == [b_pair, b_sink]
        assert b_pair.pre_e == {}

    def test_count_equals_existence_under_identity(self, ks_a):
        eng = engine_after_initialize(ks_a)
        for b in eng.pr.blocks:
            for c in eng.pr.blocks:
                assert eng.count.rows[b.index][c.index] == (b in c.pre_e)

    def test_remove_lists_per_definition(self):
        # block with edges but none into a target's closure gets listed
        ks = build_ks("ab", [(0, 0), (1, 1)])
        eng = engine_after_initialize(ks)
        b0, b1 = eng.pr.blocks
        assert [d.index for d in b0.remove] == [b1.index]
        assert [d.index for d in b1.remove] == [b0.index]

    def test_listed_in_inverts_remove_lists(self):
        ks = build_ks("ab", [(0, 0), (1, 1)])
        eng = engine_after_initialize(ks)
        b0, b1 = eng.pr.blocks
        assert b0.listed_in == [b1]
        assert b1.listed_in == [b0]

    def test_every_block_queued(self, ks_a):
        eng = engine_after_initialize(ks_a)
        assert sorted(eng.worklist) == [b.index for b in eng.pr.blocks]
        assert all(b.queued for b in eng.pr.blocks)

    def test_pre_e_duplicate_free(self):
        ks = build_ks("aa", [(0, 1), (1, 1), (0, 0)])
        eng = engine_after_initialize(ks)
        b = eng.pr.blocks[0]
        assert len(b.pre_e) == len({x.index for x in b.pre_e}) == 1


class TestPostCandidates:
    def test_block_without_transitions(self):
        eng = engine_after_initialize(build_ks("aa", []))
        assert eng.post_candidates(eng.pr.blocks[0]) == []

    def test_partial_reach_counts_states(self):
        # only state 0 of the pair block reaches the sink block
        ks = build_ks("aab", [(0, 2)])
        eng = engine_after_initialize(ks)
        pair_block = eng.pr.block_of(0)
        out = eng.post_candidates(pair_block)
        assert len(out) == 1
        rep, reached = out[0]
        assert rep is eng.pr.block_of(2)
        assert rep.count == 1
        assert reached == 1

    def test_full_reach_excluded(self):
        ks = build_ks("aab", [(0, 2), (1, 2)])
        eng = engine_after_initialize(ks)
        assert eng.post_candidates(eng.pr.block_of(0)) == []

    def test_marks_cleared(self, ks_a):
        eng = engine_after_initialize(ks_a)
        eng.post_candidates(eng.pr.block_of(0))
        assert all(not b.mark1 and not b.mark2 for b in eng.pr.blocks)

    def test_per_state_successor_dedup(self):
        # duplicate-ish successors of one state count that state once
        ks = build_ks("aab", [(0, 2), (0, 2), (1, 0)])
        eng = engine_after_initialize(ks)
        out = eng.post_candidates(eng.pr.block_of(0))
        by_rep = {rep.index: rep.count for rep, _ in out}
        assert by_rep[eng.pr.block_of(2).index] == 1


class TestFindPRefiner:
    def test_stable_identity_none(self, ks_a):
        eng = engine_after_initialize(ks_a)
        assert eng.find_prefiner() is None

    def test_one_sided_structure_finds_own_block(self, ks_b):
        eng = engine_after_initialize(ks_b)
        refiner = eng.find_prefiner()
        assert refiner is eng.pr.blocks[0]

    def test_converged_pair_has_none(self, ks_a, ks_b):
        for ks in (ks_a, ks_b):
            eng = SimulationEngine(ks, EngineConfig())
            eng.run()
            assert eng.find_prefiner() is None

    def test_clean_blocks_popped_host_kept(self, ks_b):
        eng = engine_after_initialize(ks_b)
        host = eng.pr.blocks[0]
        eng.find_prefiner()
        assert eng.worklist == [host.index] and host.queued
        eng.pstabilize()
        assert eng.worklist == []
        assert not any(b.queued for b in eng.pr.blocks)

    def test_split_queues_halves_and_their_predecessors(self, ks_b):
        eng = engine_after_initialize(ks_b)
        split_list = run_one_split_round(eng)
        half, brother = split_list[0], split_list[0].brother
        expected = {half, brother, *half.pre_e, *brother.pre_e}
        assert {b for b in eng.pr.blocks if b.queued} == expected


class TestPreUpSet:
    def test_unreachable_block(self):
        eng = engine_after_initialize(build_ks("ab", []))
        assert eng.pre_up_set(eng.pr.blocks[0]) == []

    def test_sink_closure_preimage(self, ks_a):
        eng = engine_after_initialize(ks_a)
        assert sorted(eng.pre_up_set(eng.pr.block_of(2))) == [0, 1, 2]

    def test_union_when_related(self):
        ks = build_ks("ab", [(0, 1)])
        eng = engine_after_initialize(ks)
        b_a, b_b = eng.pr.blocks
        eng.pr.rel.rows[b_a.index][b_b.index] = 1
        # up-set of block a is now {0, 1}; only 0 has an edge into it
        assert eng.pre_up_set(b_a) == [0]

    def test_no_duplicates(self):
        ks = build_ks("aa", [(0, 0), (0, 1), (1, 0)])
        eng = engine_after_initialize(ks)
        out = eng.pre_up_set(eng.pr.blocks[0])
        assert len(out) == len(set(out))


class TestPStabilize:
    def test_already_stable_true_no_mutation(self, ks_a):
        eng = engine_after_initialize(ks_a)
        before = [pr_b.size for pr_b in eng.pr.blocks]
        assert eng.pstabilize() is True
        assert [b.size for b in eng.pr.blocks] == before

    def test_one_split_returns_false(self, ks_b):
        eng = engine_after_initialize(ks_b)
        assert eng.pstabilize() is False
        assert len(eng.pr.blocks) == 2
        assert sorted(map(tuple, map(sorted, (
            eng.pr.block_states(b) for b in eng.pr.blocks
        )))) == [(0,), (1,)]


class TestUpdateAfterSplit:
    def test_relation_lifted_to_all_half_pairs(self, ks_b):
        eng = engine_after_initialize(ks_b)
        run_one_split_round(eng)
        rel = eng.pr.rel.rows
        assert all(rel[i][j] for i in range(2) for j in range(2))

    def test_prior_relations_reach_both_halves(self):
        # a <| b beforehand: both halves of b stay above a
        ks = build_ks("abb", [(0, 1), (1, 1), (2, 0)])
        eng = engine_after_initialize(ks)
        b_a = eng.pr.block_of(0)
        b_b = eng.pr.block_of(1)
        eng.pr.rel.rows[b_a.index][b_b.index] = 1
        split_list = eng.pr.split([1])
        from simrel.prcore import add_block_entries

        add_block_entries(eng.pr, eng.count, [b.brother for b in split_list])
        eng.update_rel(split_list)
        rel = eng.pr.rel.rows
        for half in (split_list[0], split_list[0].brother):
            assert rel[b_a.index][half.index] == 1

    def test_edge_matrix_exact_after_split(self, ks_b):
        eng = engine_after_initialize(ks_b)
        run_one_split_round(eng)
        bc_ref, _ = recompute_tables(eng.ks, eng.pr)
        for b in eng.pr.blocks:
            for c in eng.pr.blocks:
                assert bc_ref[b.index][c.index] == (b in c.pre_e)

    def test_counts_after_first_split(self, ks_b):
        # from-scratch recomputation fixes the expected entries
        eng = engine_after_initialize(ks_b)
        run_one_split_round(eng)
        _, cnt_ref = recompute_tables(eng.ks, eng.pr)
        assert [list(r) for r in eng.count.rows] == cnt_ref
        live = eng.pr.block_of(0)
        dead = eng.pr.block_of(1)
        assert eng.count.rows[live.index][live.index] == 1
        assert eng.count.rows[dead.index][live.index] == 0
        assert eng.count.rows[dead.index][dead.index] == 0

    def test_pre_e_rebuilt(self, ks_b):
        eng = engine_after_initialize(ks_b)
        run_one_split_round(eng)
        live = eng.pr.block_of(0)
        dead = eng.pr.block_of(1)
        assert [x.index for x in live.pre_e] == [live.index]
        assert dead.pre_e == {}

    def test_update_rem_copies_independently(self):
        ks = build_ks("aab", [(0, 2)])
        eng = engine_after_initialize(ks)
        pair_block = eng.pr.block_of(0)
        marker = eng.pr.block_of(2)
        pair_block.remove = [marker]
        split_list = eng.pr.split([0])
        eng.update_rem(split_list)
        new_block = split_list[0].brother
        assert new_block.remove == [marker]
        new_block.remove.append(pair_block)
        assert split_list[0].remove == [marker]


class TestRStabilize:
    def test_empty_lists_noop(self, ks_a):
        eng = engine_after_initialize(ks_a)
        for b in eng.pr.blocks:
            b.remove = []
        pairs_before = eng.pr.rel.pair_count()
        assert eng.rstabilize() is True
        assert eng.pr.rel.pair_count() == pairs_before

    def test_one_sided_pair_pruned(self, ks_b):
        result, _ = SimulationEngine(ks_b, FULL).run()
        assert result.leq == ((True, False), (True, True))

    def test_chained_rounds_reach_fixpoint(self):
        # frozen instance where pruning cascades across rounds: the first
        # round's counter decrements feed the next round's removals
        ks = build_ks("aaaa", [(0, 1), (0, 2), (2, 1)])

        rounds_with_removals = []

        class Probe(SimulationEngine):
            def rstabilize(self):
                before = self.pr.rel.pair_count()
                out = SimulationEngine.rstabilize(self)
                if self.pr.rel.pair_count() < before:
                    rounds_with_removals.append(before - self.pr.rel.pair_count())
                return out

        result, _ = Probe(ks, FULL).run()
        assert len(rounds_with_removals) >= 2
        assert result.state_matrix() == brute_force_simulation(ks).matrix

    def test_dead_half_pair_pruned_via_logged_witness(self):
        # dead states split away from movers must lose the pair claiming
        # the dead side simulates the movers
        ks = build_ks("aaa", [(0, 0)])
        result, _ = SimulationEngine(ks, FULL).run()
        mover = result.partition.index((0,))
        dead = result.partition.index((1, 2))
        assert result.leq[dead][mover] is True
        assert result.leq[mover][dead] is False


class TestFullChecks:
    def test_stale_edge_set_detected(self, ks_a):
        eng = engine_after_initialize(ks_a)
        eng._check_tables()
        victim = next(b for b in eng.pr.blocks if b.pre_e)
        del victim.pre_e[next(iter(victim.pre_e))]
        with pytest.raises(InvariantViolation, match="edge-existence"):
            eng._check_tables()

    def test_emptied_worklist_detected(self, ks_b):
        eng = SimulationEngine(ks_b, FULL)
        eng.initialize()
        for b in eng.pr.blocks:
            b.queued = False
        eng.worklist.clear()
        with pytest.raises(InvariantViolation, match="worklist missed"):
            eng.find_prefiner()

    def test_corrupt_listed_in_detected(self):
        ks = build_ks("ab", [(0, 0), (1, 1)])
        eng = SimulationEngine(ks, FULL)
        eng.initialize()
        b0, b1 = eng.pr.blocks
        b0.listed_in.remove(b1)
        with pytest.raises(InvariantViolation, match="listed_in"):
            eng._check_tables()


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


class TestDeadStates:
    def test_never_in_pre_e(self):
        ks = build_ks("aaa", [(0, 1)])
        eng = engine_after_initialize(ks)
        eng.pstabilize()
        dead_blocks = {
            b.index for b in eng.pr.blocks if all(
                not ks.succ[s] for s in eng.pr.block_states(b)
            )
        }
        for b in eng.pr.blocks:
            assert not ({x.index for x in b.pre_e} & dead_blocks)

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
        assert result.leq == ((True,),)

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
        assert [list(r) for r in result.leq] == leq

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


class FullScanEngine(SimulationEngine):
    """The engine with a full scan for every refiner search."""

    def find_prefiner(self):
        self._queue(self.pr.blocks)
        return SimulationEngine.find_prefiner(self)


class TestEngineProperties:
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
                assert moved[perm[s]][perm[t]] == base[s][t]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_fresh_copy_is_equivalent_to_its_original(self, data):
        ks = data.draw(random_ks())
        n = ks.num_states
        orig = data.draw(st.integers(0, n - 1))
        base = compute_simulation(ks, FULL)[0].state_matrix()
        grown = compute_simulation(with_copy_of(ks, orig), FULL)[0].state_matrix()
        assert grown[orig][n] == grown[n][orig] == 1
        # nothing reaches the copy, so the old states' preorder is unchanged
        assert [row[:n] for row in grown[:n]] == base
