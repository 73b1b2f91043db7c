import random
from collections import Counter

from simrel.engine import EngineConfig, compute_simulation
from simrel.instrument import (
    RunStats,
    assert_block_bound,
    assert_remove_disjointness,
    assert_smaller_half_bound,
    scan_limit,
)
from simrel.kripke import generate_random_ks, initial_label_partition

from .conftest import build_ks

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


class TestRemoveDisjointness:
    def test_single_selection_vacuous(self):
        trace = [(frozenset({0, 1}), frozenset({2}))]
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
        trace = [
            (frozenset({0, 1}), frozenset({5})),
            (frozenset({0}), frozenset({5, 6})),
        ]
        assert not assert_remove_disjointness(trace)

    def test_unrelated_selections_may_share(self):
        trace = [
            (frozenset({0}), frozenset({5})),
            (frozenset({1}), frozenset({5})),
        ]
        assert assert_remove_disjointness(trace)

    def test_agrees_with_pairwise_definition(self):
        # engine traces and the same traces with a nested duplicate
        # planted: a removed state selected again under a singleton inside
        # the selection, or under the whole state set. Both keep every two
        # selections nested or disjoint, the law's precondition.
        rng = random.Random(2024)
        verdicts = Counter()
        for _ in range(120):
            n = rng.randint(1, 14)
            ks = generate_random_ks(
                n, rng.randint(1, 3), rng.choice([0.1, 0.3, 0.6]), rng.randrange(2**32)
            )
            _, stats, _, _ = run(ks)
            trace = stats.remove_trace
            variants = [trace]
            if trace:
                at = rng.randrange(len(trace))
                sel, union = trace[at]
                dup = frozenset({rng.choice(sorted(union))})
                for planted in (frozenset({rng.choice(sorted(sel))}), frozenset(range(n))):
                    variants.append(
                        trace[: at + 1] + [(planted, dup)] + trace[at + 1 :]
                    )
            for t in variants:
                expected = pairwise_disjointness(t)
                assert assert_remove_disjointness(t) == expected, t
                verdicts[expected] += 1
        assert verdicts[True] and verdicts[False]


def pairwise_disjointness(trace) -> bool:
    """The law by its definition: every two entries with nested or equal
    selections have disjoint removal unions."""
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

    def test_random_corpus_at_most_one(self):
        rng = random.Random(55)
        for _ in range(120):
            ks = generate_random_ks(
                rng.randint(1, 9), rng.randint(1, 2), rng.choice([0.1, 0.3, 0.6]),
                rng.randrange(2**32),
            )
            _, stats, _, _ = run(ks)
            assert stats.findprefiner_null_returns <= 1


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
