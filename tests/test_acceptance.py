"""Acceptance suite: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the informational scaling report.
"""

import itertools
import time

import pytest
from click.testing import CliRunner

from simrel.cli import main as cli_main
from simrel.engine import (
    EngineConfig,
    InvariantViolation,
    SimulationEngine,
    check_is_simulation_pr,
)
from simrel.instrument import (
    assert_block_bound,
    assert_remove_disjointness,
    assert_smaller_half_bound,
)
from simrel.kripke import (
    KripkeStructure,
    generate_random_ks,
    initial_label_partition,
    make_chain,
    make_tree,
    serialize_ks,
)
from simrel.oracle import brute_force_simulation


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance {criterion}] {status}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def rows_are_partial_order(rows):
    """Reflexive, antisymmetric and transitive, read bit by bit off the
    result's rows: bit j of rows[i] iff block i is below block j."""
    k = len(rows)

    def leq(i, j):
        return rows[i] >> j & 1

    for i in range(k):
        if not leq(i, i):
            return False
        for j in range(k):
            if not leq(i, j):
                continue
            if i != j and leq(j, i):
                return False
            for m in range(k):
                if leq(j, m) and not leq(i, m):
                    return False
    return True


def evaluate(ks):
    """Run engine and oracle on one structure, returning every per-instance
    fact the criteria quantify over."""
    eng = SimulationEngine(ks, EngineConfig(stats_enabled=True))
    result, stats = eng.run()
    oracle = brute_force_simulation(ks)
    return {
        "n": ks.num_states,
        "oracle_equal": result.state_matrix() == oracle.matrix,
        "algebra_ok": rows_are_partial_order(result.rows),
        "simulation_ok": check_is_simulation_pr(ks, eng.pr),
        "block_law": assert_block_bound(
            stats, len(initial_label_partition(ks)), len(result.partition)
        ),
        "half_law": assert_smaller_half_bound(stats, ks.num_states),
        "disjoint_law": assert_remove_disjointness(stats.remove_trace),
    }


def exhaustive_instances():
    """All structures with up to 3 states over 2 labels, modulo renaming."""
    for n in (1, 2, 3):
        pairs = list(itertools.product(range(n), repeat=2))
        for rest in itertools.product("ab", repeat=n - 1):
            labels = ("a",) + rest
            for mask in range(2 ** len(pairs)):
                succ = {}
                for k, (s, t) in enumerate(pairs):
                    if mask >> k & 1:
                        succ.setdefault(s, []).append(t)
                yield KripkeStructure(
                    n, {i: {labels[i]} for i in range(n)}, succ
                )


def random_instances():
    """1000 structures, sizes up to 10, cycling three edge densities and label counts."""
    probs = (0.1, 0.3, 0.6)
    for i in range(1000):
        n = i % 10 + 1
        yield generate_random_ks(n, i % 3 + 1, probs[i % 3], seed=i)


@pytest.fixture(scope="module")
def exhaustive_outcomes():
    started = time.perf_counter()
    outcomes = [evaluate(ks) for ks in exhaustive_instances()]
    return outcomes, time.perf_counter() - started


@pytest.fixture(scope="module")
def random_outcomes():
    started = time.perf_counter()
    outcomes = [evaluate(ks) for ks in random_instances()]
    return outcomes, time.perf_counter() - started


def test_criterion_1_exhaustive_oracle_equivalence(exhaustive_outcomes):
    outcomes, elapsed = exhaustive_outcomes
    bad = sum(1 for o in outcomes if not o["oracle_equal"])
    ok = bad == 0 and elapsed < 30.0
    report(
        1,
        ok,
        f"exhaustive corpus: {len(outcomes)} instances, {bad} mismatches, "
        f"{elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_randomized_oracle_equivalence(random_outcomes):
    outcomes, elapsed = random_outcomes
    bad = sum(1 for o in outcomes if not o["oracle_equal"])
    ok = bad == 0 and elapsed < 60.0
    report(
        2,
        ok,
        f"random corpus: {len(outcomes)} instances, {bad} mismatches, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_3_output_algebra(exhaustive_outcomes, random_outcomes):
    outcomes = exhaustive_outcomes[0] + random_outcomes[0]
    bad_algebra = sum(1 for o in outcomes if not o["algebra_ok"])
    bad_sim = sum(1 for o in outcomes if not o["simulation_ok"])
    ok = bad_algebra == 0 and bad_sim == 0
    report(
        3,
        ok,
        f"{len(outcomes)} instances: partial-order violations {bad_algebra}, "
        f"simulation-condition violations {bad_sim}",
    )


def test_criterion_4_block_generation_law(exhaustive_outcomes, random_outcomes):
    outcomes = exhaustive_outcomes[0] + random_outcomes[0]
    bad = sum(1 for o in outcomes if not o["block_law"])
    report(
        4,
        bad == 0,
        f"new blocks == 2(final - initial) on {len(outcomes)} instances, "
        f"{bad} violations",
    )


def test_criterion_5_smaller_half_law(exhaustive_outcomes, random_outcomes):
    outcomes = exhaustive_outcomes[0] + random_outcomes[0]
    bad = sum(1 for o in outcomes if not o["half_law"])
    report(
        5,
        bad == 0,
        f"per-state smaller-half scans <= ceil(log2 n) on {len(outcomes)} "
        f"instances, {bad} violations",
    )


def test_criterion_6_count_exactness_oracle():
    # full check mode recomputes the edge table and the successor bitsets
    # from scratch after every cut and every relation-pruning round, and
    # the removal sets after every round, and raises on drift
    failures = 0
    for i in range(100):
        ks = generate_random_ks(8, i % 3 + 1, (0.1, 0.3, 0.6)[i % 3], seed=10_000 + i)
        try:
            SimulationEngine(ks, EngineConfig(check_level="full")).run()
        except InvariantViolation:
            failures += 1
    report(
        6,
        failures == 0,
        f"edge tables equal from-scratch recomputation throughout 100 "
        f"full-checked 8-state runs, {failures} violations",
    )


def test_criterion_7_remove_disjointness(random_outcomes):
    outcomes = random_outcomes[0]
    bad = sum(1 for o in outcomes if not o["disjoint_law"])
    report(
        7,
        bad == 0,
        f"nested removal selections disjoint on {len(outcomes)} instances, "
        f"{bad} violations",
    )


def test_criterion_8_scaling_sanity(tmp_path):
    # informational, non-gating on timing: growth is reported, while the
    # counter laws embedded in bench still gate its exit code
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for depth in (6, 8, 10, 12):
        (corpus / f"tree_{depth:02d}.txt").write_text(serialize_ks(make_tree(depth, 2)))
    for n in (64, 128, 256):
        (corpus / f"chain_{n:04d}.txt").write_text(serialize_ks(make_chain(n)))
    for n in (1250, 2500, 5000):
        ks = generate_random_ks(n, 1, 4.0 / n, seed=n)
        (corpus / f"sparse_{n:05d}.txt").write_text(serialize_ks(ks))
    out = CliRunner().invoke(cli_main, ["bench", str(corpus)])
    print("\n" + out.output)
    tree_times = {}
    for line in out.output.splitlines():
        cols = line.split()
        if cols and cols[0].startswith("tree_"):
            tree_times[int(cols[1])] = float(cols[6])
    growth = tree_times[8191] / max(tree_times[127], 0.001)
    report(
        8,
        out.exit_code == 0,
        "bench over tree/chain/sparse families up to 8191 states, counter "
        f"laws hold; tree family 127->8191 states slowed {growth:.0f}x "
        "(informational, subquadratic expected for small-partition families)",
    )
