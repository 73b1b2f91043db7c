import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simrel.engine import EngineConfig, SimulationEngine
from simrel.kripke import KripkeStructure, generate_random_ks
from simrel.prcore import SquareIntMatrix, add_block_entries, init_pr

from .conftest import build_ks


class TestInitPr:
    def test_single_state(self):
        pr = init_pr(KripkeStructure(1, {0: {"a"}}, {}))
        assert len(pr.blocks) == 1
        b = pr.blocks[0]
        assert (b.begin, b.end) == (0, 1)
        assert pr.rel.rows[0][0] == 1

    def test_label_blocks_contiguous(self):
        pr = init_pr(build_ks("aba", []))
        assert len(pr.blocks) == 2
        assert pr.block_states(pr.blocks[0]) == [0, 2]
        assert pr.block_states(pr.blocks[1]) == [1]

    def test_identity_relation(self):
        pr = init_pr(build_ks("abc", []))
        for b in pr.blocks:
            for c in pr.blocks:
                assert bool(pr.rel.rows[b.index][c.index]) == (b is c)

    def test_scratch_fields_clear(self):
        pr = init_pr(build_ks("ab", []))
        for b in pr.blocks:
            assert b.intersection is None
            assert b.brother is None
            assert b.pre_e == {} and b.remove == [] and b.listed_in == []
            assert not b.queued
            assert not b.mark1 and not b.mark2


class TestSplit:
    def test_splitter_covering_everything_is_noop(self):
        pr = init_pr(build_ks("aaa", []))
        assert pr.split([0, 1, 2]) == []
        assert all(b.intersection is None for b in pr.blocks)
        assert len(pr.blocks) == 1

    def test_proper_split(self):
        pr = init_pr(build_ks("aaa", []))
        out = pr.split([0, 1])
        assert len(out) == 1
        old = out[0]
        assert old.intersection is False
        assert old.brother.intersection is True
        assert old.brother.brother is old
        assert sorted(pr.block_states(old)) == [2]
        assert sorted(pr.block_states(old.brother)) == [0, 1]

    def test_double_split(self):
        # two blocks, splitter straddling both: both split
        pr = init_pr(build_ks("aabb", []))
        out = pr.split([1, 2])
        assert len(out) == 2
        halves = {tuple(sorted(pr.block_states(b))) for b in pr.blocks}
        assert halves == {(0,), (1,), (2,), (3,)}

    def test_ids_never_reused(self):
        pr = init_pr(build_ks("aaa", []))
        pr.split([0])
        pr.split([1])
        assert [b.index for b in pr.blocks] == [0, 1, 2]

    def test_empty_splitter(self):
        pr = init_pr(build_ks("aa", []))
        assert pr.split([]) == []

    @given(
        st.integers(2, 10),
        st.lists(st.integers(0, 9), max_size=8),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60)
    def test_segments_cover_after_random_splits(self, n, raw_splitter, seed):
        ks = generate_random_ks(n, 2, 0.3, seed)
        pr = init_pr(ks)
        splitter = sorted({s % n for s in raw_splitter})
        pr.split(splitter)
        covered = sorted(s for b in pr.blocks for s in pr.block_states(b))
        assert covered == list(range(n))
        for b in pr.blocks:
            assert b.size == b.end - b.begin > 0
            for p in range(b.begin, b.end):
                s = pr.states[p]
                assert pr.state_block[s] is b
                assert pr.pos[s] == p


class TestMatrices:
    def test_no_new_blocks_no_change(self):
        pr = init_pr(build_ks("ab", []))
        count = SquareIntMatrix(2)
        add_block_entries(pr, count, [])
        assert pr.rel.dim == 2 and count.dim == 2

    def test_growth_per_block(self):
        pr = init_pr(build_ks("ab", []))
        out = pr.split([0])
        # block 'a' is a singleton: splitter covers it entirely, no split
        assert out == []
        pr2 = init_pr(build_ks("aab", []))
        count2 = SquareIntMatrix(2)
        out2 = pr2.split([0])
        add_block_entries(pr2, count2, [b.brother for b in out2])
        assert pr2.rel.dim == 3
        assert count2.dim == 3

    def test_dimension_tracks_cumulative_splits(self):
        pr = init_pr(build_ks("aaaa", []))
        count = SquareIntMatrix(1)
        for splitter in ([0], [1]):
            out = pr.split(splitter)
            add_block_entries(pr, count, [b.brother for b in out])
        assert pr.rel.dim == 1 + 2
        assert count.dim == 3

    def test_old_entries_untouched(self):
        pr = init_pr(build_ks("aab", []))
        count = SquareIntMatrix(2)
        pr.rel.rows[0][1] = 1
        count.rows[1][0] = 5
        out = pr.split([0])
        add_block_entries(pr, count, [b.brother for b in out])
        assert pr.rel.rows[0][1] == 1
        assert count.rows[1][0] == 5
        assert count.rows[2] == [0, 0, 0]


class TestUpSet:
    def test_identity_relation_gives_own_segment(self):
        pr = init_pr(build_ks("ab", []))
        assert pr.up_set_states(pr.blocks[0]) == {0}

    def test_union_over_related_blocks(self):
        pr = init_pr(build_ks("ab", []))
        pr.rel.rows[0][1] = 1
        assert pr.up_set_states(pr.blocks[0]) == {0, 1}

    def test_converged_sink_block(self, ks_a):
        eng = SimulationEngine(ks_a, EngineConfig())
        eng.run()
        sink_block = eng.pr.block_of(2)
        assert eng.pr.up_set_states(sink_block) == {2}


class TestExtractResult:
    def test_single_state(self):
        ks = KripkeStructure(1, {}, {0: [0]})
        eng = SimulationEngine(ks, EngineConfig())
        result, _ = eng.run()
        assert result.partition == ((0,),)
        assert result.leq == ((True,),)

    def test_sink_structure(self, ks_a):
        result, _ = SimulationEngine(ks_a, EngineConfig()).run()
        assert result.partition == ((0, 1), (2,))
        assert result.leq == ((True, False), (False, True))

    def test_one_sided_structure(self, ks_b):
        result, _ = SimulationEngine(ks_b, EngineConfig()).run()
        assert result.partition == ((0,), (1,))
        assert result.leq[1][0] is True
        assert result.leq[0][1] is False

    def test_state_matrix_roundtrip(self, ks_a):
        result, _ = SimulationEngine(ks_a, EngineConfig()).run()
        rows = result.state_matrix()
        assert rows[0][1] == 1 and rows[1][0] == 1
        assert rows[0][2] == 0 and rows[2][0] == 0

    def test_order_pairs(self, ks_b):
        result, _ = SimulationEngine(ks_b, EngineConfig()).run()
        assert result.order_pairs() == [(1, 0)]
