import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import simrel.oracle
from simrel.kripke import KripkeStructure, generate_random_ks, make_clique
from simrel.oracle import StateRelation, brute_force_simulation, simulation_partition

from .conftest import build_ks


def random_ks(max_states=8):
    return st.builds(
        generate_random_ks,
        n_states=st.integers(1, max_states),
        n_labels=st.integers(1, 3),
        edge_prob=st.sampled_from([0.1, 0.3, 0.6]),
        seed=st.integers(0, 2**32 - 1),
    )


def relation(n, pairs):
    """The ``StateRelation`` over n states holding exactly ``pairs``."""
    rows = [0] * n
    for s, t in pairs:
        rows[s] |= 1 << t
    return StateRelation(n, rows)


def pairs_of(rel):
    """The related pairs of ``rel``, row-major."""
    return [(s, t) for s in range(rel.n) for t in range(rel.n) if rel.matrix[s] >> t & 1]


def naive_fixpoint(ks):
    """The oracle's fixpoint by its definition, one Python step per state
    pair per sweep: start from the label-equal pairs, delete (s, t) when a
    move of s has no matching move of t, stop after a sweep that deletes
    nothing. The sweeps read a list of 0/1 lists, turned into rows at
    the end."""
    n = ks.num_states
    matrix = [[1 if ks.labels[s] == ks.labels[t] else 0 for t in range(n)] for s in range(n)]
    sweeps = 0
    changed = True
    while changed:
        changed = False
        sweeps += 1
        for s in range(n):
            for t in range(n):
                if not matrix[s][t]:
                    continue
                for s2 in ks.succ[s]:
                    if not any(matrix[s2][t2] for t2 in ks.succ[t]):
                        matrix[s][t] = 0
                        changed = True
                        break
        # every sweep but the last deletes a pair, and the n pairs (s, s)
        # are never deleted
        assert sweeps <= n * n - n + 1
    return relation(n, [(s, t) for s in range(n) for t in range(n) if matrix[s][t]])


class TestBruteForce:
    def test_single_state(self):
        rel = brute_force_simulation(KripkeStructure(1, {0: {"a"}}, {}))
        assert rel.matrix == [0b1]

    def test_two_state_hand_fixpoint(self, ks_b):
        # two sweeps by hand: start {(0,0),(0,1),(1,0),(1,1)}; (0,1) dies
        # because 0 -> 0 has no matching move of 1; rest survive
        rel = brute_force_simulation(ks_b)
        assert rel.matrix == [0b01, 0b11]

    def test_labels_respected(self, ks_a):
        rel = brute_force_simulation(ks_a)
        assert rel.matrix == [0b011, 0b011, 0b100]

    @given(random_ks())
    @settings(max_examples=60)
    def test_result_is_preorder(self, ks):
        assert brute_force_simulation(ks).is_preorder()

    @given(random_ks(max_states=6))
    @settings(max_examples=40)
    def test_result_is_largest(self, ks):
        # adding any absent pair breaks label equality or step matching
        rel = brute_force_simulation(ks)
        n = ks.num_states
        for s in range(n):
            for t in range(n):
                if rel.matrix[s] >> t & 1:
                    continue
                if ks.labels[s] != ks.labels[t]:
                    continue
                matched = all(
                    any(rel.matrix[s2] >> t2 & 1 for t2 in ks.succ[t])
                    for s2 in ks.succ[s]
                )
                assert not matched, (s, t)

    def test_fixpoint_iteration_bound(self):
        # a chain loses one pair per sweep; naive_fixpoint bounds the sweeps
        ks = build_ks("aaaa", [(0, 1), (1, 2), (2, 3)])
        assert naive_fixpoint(ks) == brute_force_simulation(ks)

    @given(random_ks(max_states=64))
    @settings(max_examples=100, deadline=None)
    def test_equals_naive_fixpoint(self, ks):
        assert brute_force_simulation(ks) == naive_fixpoint(ks)

    @pytest.mark.parametrize(
        "ks, pairs",
        [
            pytest.param(KripkeStructure(0), [], id="empty"),
            pytest.param(
                # 1 and 2 are dead ends: each simulates the other, and both
                # are simulated by 0, which they cannot simulate
                build_ks("aaab", [(0, 1)]),
                [(0, 0), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2), (3, 3)],
                id="dead-ends",
            ),
            pytest.param(
                # 0's self-loop is matched by 1's; 1's move to b is not by 0
                build_ks("aab", [(0, 0), (1, 1), (1, 2), (2, 2)]),
                [(0, 0), (0, 1), (1, 1), (2, 2)],
                id="self-loops",
            ),
            pytest.param(
                make_clique(5), [(s, t) for s in range(5) for t in range(5)], id="clique"
            ),
        ],
    )
    def test_explicit_cases(self, ks, pairs):
        rel = brute_force_simulation(ks)
        assert rel == naive_fixpoint(ks)
        assert pairs_of(rel) == pairs

    def test_imports_no_engine_code(self):
        # the reference stays independent: from simrel it reads only the
        # structure, never the engine's modules
        tree = ast.parse(Path(simrel.oracle.__file__).read_text(encoding="utf-8"))
        local = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                names = [base] if node.module else [base + a.name for a in node.names]
            else:
                continue
            for name in names:
                if name.startswith(".") or name.split(".")[0] == "simrel":
                    local.add(name.lstrip(".").removeprefix("simrel").lstrip("."))
        assert local == {"kripke"}


class TestStateRelation:
    @pytest.mark.parametrize(
        "n, rows",
        [
            pytest.param(2, [0b01], id="too-few-rows"),
            pytest.param(1, [0b1, 0b1], id="too-many-rows"),
            pytest.param(0, [0], id="row-for-no-state"),
            pytest.param(2, [0b01, 0b110], id="bit-at-n"),
            pytest.param(2, [0b01, 0b1000], id="bit-above-n"),
            pytest.param(2, [-1, 0b10], id="negative-row"),
        ],
    )
    def test_rejects_rows_outside_n_by_n(self, n, rows):
        with pytest.raises(ValueError, match="n rows"):
            StateRelation(n, rows)


class TestPartition:
    def test_identity_relation(self):
        rel = relation(3, [(s, s) for s in range(3)])
        blocks, leq = simulation_partition(rel)
        assert blocks == [[0], [1], [2]]
        assert leq == [[True, False, False], [False, True, False], [False, False, True]]

    def test_full_relation_merges(self):
        rel = relation(2, [(s, t) for s in range(2) for t in range(2)])
        blocks, leq = simulation_partition(rel)
        assert blocks == [[0, 1]]
        assert leq == [[True]]

    def test_sink_structure_partition(self, ks_a):
        blocks, leq = simulation_partition(brute_force_simulation(ks_a))
        assert blocks == [[0, 1], [2]]
        assert leq == [[True, False], [False, True]]

    def test_one_sided_order(self, ks_b):
        blocks, leq = simulation_partition(brute_force_simulation(ks_b))
        assert blocks == [[0], [1]]
        assert leq[1][0] is True
        assert leq[0][1] is False

    def test_rejects_non_preorder(self):
        rel = relation(2, [(0, 1)])  # not reflexive
        with pytest.raises(ValueError, match="preorder"):
            simulation_partition(rel)

    def test_rejects_reflexive_non_transitive(self):
        # 0 <= 1 and 1 <= 2 but not 0 <= 2
        rel = relation(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
        assert rel.is_reflexive()
        with pytest.raises(ValueError, match="preorder"):
            simulation_partition(rel)

    @given(random_ks())
    @settings(max_examples=40)
    def test_blocks_cover_and_order_is_partial(self, ks):
        rel = brute_force_simulation(ks)
        blocks, leq = simulation_partition(rel)
        flat = sorted(s for b in blocks for s in b)
        assert flat == list(range(ks.num_states))
        k = len(blocks)
        for i in range(k):
            assert leq[i][i]
            for j in range(k):
                if i != j and leq[i][j]:
                    assert not leq[j][i]
                for m in range(k):
                    if leq[i][j] and leq[j][m]:
                        assert leq[i][m]
