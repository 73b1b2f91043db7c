import random
import tracemalloc
from collections import Counter
from operator import or_

from hypothesis import example, given, settings
from hypothesis import strategies as st

from simrel.engine import EngineConfig, SimulationEngine, compute_simulation
from simrel.instrument import (
    RunStats,
    assert_block_bound,
    assert_remove_disjointness,
    assert_smaller_half_bound,
    scan_limit,
)
from simrel.kripke import generate_random_ks, initial_label_partition, make_chain
from simrel.prcore import bits

from .conftest import StateSetTraced, blocks_of, build_ks, state_sets

STATS = EngineConfig(stats_enabled=True)


def run(ks):
    result, stats = compute_simulation(ks, STATS)
    return result, stats, len(initial_label_partition(ks)), len(result.partition)


class TestBlockBound:
    def test_no_refinement_zero_new_blocks(self, ks_a):
        _, stats, p_ell, p_sim = run(ks_a)
        assert p_ell == p_sim
        assert stats.new_blocks_total == 0
        assert assert_block_bound(stats, p_ell, p_sim)

    def test_single_split_counts_two(self, ks_b):
        _, stats, p_ell, p_sim = run(ks_b)
        assert (p_ell, p_sim) == (1, 2)
        assert stats.new_blocks_total == 2
        assert assert_block_bound(stats, p_ell, p_sim)

    def test_random_corpus_exact(self):
        rng = random.Random(8)
        for _ in range(150):
            ks = generate_random_ks(
                rng.randint(1, 10), rng.randint(1, 3), rng.choice([0.1, 0.3, 0.6]),
                rng.randrange(2**32),
            )
            _, stats, p_ell, p_sim = run(ks)
            assert assert_block_bound(stats, p_ell, p_sim)

    def test_detects_violation(self):
        stats = RunStats(splits_total=2)
        assert not assert_block_bound(stats, 1, 2)


class TestSmallerHalfBound:
    def test_limit_values(self):
        assert scan_limit(1) == 0
        assert scan_limit(2) == 1
        assert scan_limit(3) == 2
        assert scan_limit(4) == 2
        assert scan_limit(5) == 3
        assert scan_limit(1024) == 10

    def test_no_splits_no_scans(self, ks_a):
        _, stats, _, _ = run(ks_a)
        assert stats.max_smaller_half_scans == 0

    def test_two_state_block_single_scan(self, ks_b):
        _, stats, _, _ = run(ks_b)
        assert stats.max_smaller_half_scans <= 1
        assert assert_smaller_half_bound(stats, 2)

    def test_balanced_split_corpus(self):
        # repeated even splits are the adversarial case for the bound
        rng = random.Random(99)
        for _ in range(100):
            n = rng.randint(2, 12)
            ks = generate_random_ks(n, 1, rng.choice([0.2, 0.4]), rng.randrange(2**32))
            _, stats, _, _ = run(ks)
            assert assert_smaller_half_bound(stats, n), stats.smaller_half_state_scans

    def test_detects_violation(self):
        stats = RunStats()
        stats.smaller_half_state_scans[0] = 5
        assert not assert_smaller_half_bound(stats, 4)


class PendingCarried(StateSetTraced):
    """A broken engine whose pruning rounds OR each pending set into the
    fresh set of the same block, so the next round removes again what
    this one removed, under the same block or a block inside it."""

    def rstabilize(self):
        pending = self.remove
        done = StateSetTraced.rstabilize(self)
        self.remove = list(map(or_, self.remove, pending))
        return done


def ancestor(trace, r, b, earlier):
    """The block of round ``earlier`` that holds block b of round r."""
    for first, owners, _ in reversed(trace[earlier + 1 : r + 1]):
        if b >= first:
            b = owners[b - first]
    return b


def planted(trace, rng):
    """``trace`` with one selection added to a round: a block of some
    earlier or the same round that holds a selected block, removing again
    a block that holds one of its removed blocks, a nested duplicate; or a
    random block removing a random set of its round's blocks."""
    r = rng.choice([i for i, (_, _, sels) in enumerate(trace) if sels])
    earlier = rng.randrange(r + 1)
    first, owners, sels = trace[earlier]
    if rng.random() < 0.5:
        sel, pending = rng.choice(trace[r][2])
        d = rng.choice(bits(pending))
        extra = (ancestor(trace, r, sel, earlier), 1 << ancestor(trace, r, d, earlier))
    else:
        size = first + len(owners)
        extra = (rng.randrange(size), rng.randrange(1, 1 << size))
    at = rng.randint(0, len(sels))
    record = (first, owners, sels[:at] + [extra] + sels[at:])
    return trace[:earlier] + [record] + trace[earlier + 1 :]


class TestRemoveDisjointness:
    def test_single_selection_vacuous(self):
        trace = [(2, [], [(0, 0b10)])]
        assert assert_remove_disjointness(trace)

    def test_one_sided_structure_trace(self, ks_b):
        _, stats, _, _ = run(ks_b)
        assert assert_remove_disjointness(stats.remove_trace)

    def test_random_corpus(self):
        rng = random.Random(4321)
        for _ in range(150):
            ks = generate_random_ks(
                rng.randint(1, 10), rng.randint(1, 3), rng.choice([0.1, 0.3, 0.6]),
                rng.randrange(2**32),
            )
            _, stats, _, _ = run(ks)
            assert assert_remove_disjointness(stats.remove_trace)

    def test_detects_violation(self):
        # block 0 removes block 1; the next round cuts block 2 out of block
        # 0, and block 2 removes block 1 again
        trace = [(2, [], [(0, 0b10)]), (2, [0], [(2, 0b10)])]
        assert not assert_remove_disjointness(trace)
        # the same pair in one round, and the removed block's part
        assert not assert_remove_disjointness([(2, [], [(0, 0b10), (0, 0b10)])])
        trace = [(2, [], [(0, 0b10)]), (2, [1], [(0, 0b100)])]
        assert not assert_remove_disjointness(trace)

    def test_unrelated_selections_may_share(self):
        assert assert_remove_disjointness([(3, [], [(0, 0b100), (1, 0b100)])])
        # the two halves of block 0 remove block 1, each once
        trace = [(2, [], [(1, 0b1)]), (2, [0], [(0, 0b10), (2, 0b10)])]
        assert assert_remove_disjointness(trace)

    @given(
        st.builds(
            generate_random_ks,
            n_states=st.integers(1, 40),
            n_labels=st.integers(1, 3),
            edge_prob=st.sampled_from([0.05, 0.1, 0.3, 0.6]),
            seed=st.integers(0, 2**32 - 1),
        )
    )
    @example(make_chain(30))
    @settings(max_examples=100, deadline=None)
    def test_round_trace_expands_to_the_state_set_trace(self, ks):
        eng = StateSetTraced(ks, STATS)
        _, stats = eng.run()
        assert len(stats.remove_trace) == eng.rounds
        assert state_sets(stats.remove_trace, blocks_of(eng.pr)) == eng.state_trace
        assert assert_remove_disjointness(stats.remove_trace) == pairwise_disjointness(
            eng.state_trace
        )

    def test_agrees_with_pairwise_definition(self):
        # engine traces and the same traces with a selection planted,
        # either a nested duplicate or a random one; every selection is a
        # block of its round, so any two stay nested or disjoint, the
        # law's precondition
        rng = random.Random(2024)
        verdicts = Counter()
        for _ in range(120):
            ks = generate_random_ks(
                rng.randint(1, 14), rng.randint(1, 3), rng.choice([0.1, 0.3, 0.6]),
                rng.randrange(2**32),
            )
            eng = SimulationEngine(ks, STATS)
            _, stats = eng.run()
            trace = stats.remove_trace
            variants = [trace]
            if any(sels for _, _, sels in trace):
                variants += [planted(trace, rng) for _ in range(4)]
            for t in variants:
                expected = pairwise_disjointness(state_sets(t, blocks_of(eng.pr)))
                assert assert_remove_disjointness(t) == expected, t
                verdicts[expected] += 1
        assert verdicts[True] and verdicts[False]

    def test_engine_that_removes_twice_fails(self):
        # the runs complete, and the state-set trace gives the same verdict
        def verdict(ks):
            eng = PendingCarried(ks, STATS)
            _, stats = eng.run()
            out = assert_remove_disjointness(stats.remove_trace)
            assert out == pairwise_disjointness(eng.state_trace)
            return out

        assert not verdict(make_chain(50))
        rng = random.Random(156)
        held = Counter(
            verdict(
                generate_random_ks(
                    rng.randint(2, 40), rng.randint(1, 3), 0.1, rng.randrange(2**32)
                )
            )
            for _ in range(60)
        )
        assert held[False] > 2 * held[True]


def pairwise_disjointness(trace) -> bool:
    """The law by its definition over a state-set trace: every two
    entries with nested or equal selections have disjoint removal
    unions."""
    entries = list(trace)
    for i in range(len(entries)):
        sel_i, union_i = entries[i]
        for j in range(i + 1, len(entries)):
            sel_j, union_j = entries[j]
            if sel_i >= sel_j or sel_j >= sel_i:
                if union_i & union_j:
                    return False
    return True


class TestCertificationCounter:
    def test_exactly_one_per_run(self, ks_a, ks_b):
        for ks in (ks_a, ks_b):
            _, stats, _, _ = run(ks)
            assert stats.findprefiner_null_returns == 1

    def test_random_corpus_exactly_one(self):
        # a failing run raises before it counts, so a completed one counts 1
        rng = random.Random(55)
        for _ in range(120):
            ks = generate_random_ks(
                rng.randint(1, 9), rng.randint(1, 2), rng.choice([0.1, 0.3, 0.6]),
                rng.randrange(2**32),
            )
            _, stats, _, _ = run(ks)
            assert stats.findprefiner_null_returns == 1


class TestSerialization:
    def test_text_block_shape(self, ks_b):
        _, stats, _, _ = run(ks_b)
        text = stats.to_text()
        lines = dict(line.split("=") for line in text.splitlines())
        assert lines["new_blocks_total"] == "2"
        assert "pairs_removed_total" in lines

    def test_dict_fields(self, ks_b):
        _, stats, _, _ = run(ks_b)
        doc = stats.to_dict()
        assert doc["splits_total"] == 1
        assert doc["smaller_half_max_scans"] <= 1

    def test_stats_off_observables(self):
        ks = build_ks("aa", [(0, 0)])
        r_on, _ = compute_simulation(ks, STATS)
        r_off, stats_off = compute_simulation(ks)
        assert r_on == r_off
        assert stats_off.remove_trace == []
        assert stats_off.pairs_removed_total == 0


class TestStatsCost:
    def test_stats_on_run_keeps_a_small_peak(self):
        # the benchmark's 800-state multilabel structure: the trace keeps
        # block ids, not state sets, so a stats-on run peaks near the
        # stats-off run's 0.8 MiB (about 1.2 MiB)
        ks = generate_random_ks(800, 3, 3 / 800, 800)
        tracemalloc.start()
        try:
            _, stats = compute_simulation(ks, STATS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.to_dict()["remove_elements_total"] > 0
        assert peak < 4 * 2**20, peak
