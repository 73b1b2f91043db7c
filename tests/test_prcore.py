import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simrel.engine import EngineConfig, SimulationEngine
from simrel.kripke import KripkeStructure, generate_random_ks
from simrel.prcore import Block, SimulationResult, bit_flags, bits, init_pr

from .conftest import build_ks


class TestInitPr:
    def test_single_state(self):
        pr = init_pr(KripkeStructure(1, {0: {"a"}}, {}))
        assert len(pr.blocks) == 1
        b = pr.blocks[0]
        assert (b.begin, b.end) == (0, 1)
        assert pr.up == pr.down == [1]

    def test_label_blocks_contiguous(self):
        pr = init_pr(build_ks("aba", []))
        assert len(pr.blocks) == 2
        assert pr.block_states(pr.blocks[0]) == [0, 2]
        assert pr.block_states(pr.blocks[1]) == [1]

    def test_identity_relation(self):
        pr = init_pr(build_ks("abc", []))
        for b in pr.blocks:
            for c in pr.blocks:
                assert bool(pr.up[b.index] >> c.index & 1) == (b is c)
                assert bool(pr.down[c.index] >> b.index & 1) == (b is c)

    def test_scratch_fields_clear(self):
        ks = build_ks("ab", [])
        pr = init_pr(ks)
        for b in pr.blocks:
            assert b.pre_e == {}
        # the removal sets and worklist flags are the engine's lists
        eng = SimulationEngine(ks)
        assert eng.remove == [0, 0]
        assert eng.worklist == bytearray(2)

    def test_block_holds_segment_and_pre_e_only(self):
        assert Block.__slots__ == ("index", "begin", "end", "pre_e")


class TestSplit:
    def test_splitter_covering_everything_is_noop(self):
        pr = init_pr(build_ks("aaa", []))
        assert pr.split([0, 1, 2]) == []
        assert len(pr.blocks) == 1
        assert sorted(pr.block_states(pr.blocks[0])) == [0, 1, 2]

    def test_proper_split(self):
        pr = init_pr(build_ks("aaa", []))
        [(kept, new)] = pr.split([0, 1])
        assert pr.blocks == [kept, new]
        assert (kept.index, new.index) == (0, 1)
        assert sorted(pr.block_states(kept)) == [2]
        assert sorted(pr.block_states(new)) == [0, 1]

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
        st.lists(st.lists(st.integers(0, 9), max_size=8), min_size=1, max_size=3),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60)
    def test_segments_cover_after_random_splits(self, n, raw_splitters, seed):
        ks = generate_random_ks(n, 2, 0.3, seed)
        pr = init_pr(ks)
        for raw in raw_splitters:
            # duplicate-free, in drawn order, so pair order is exercised
            splitter = list(dict.fromkeys(s % n for s in raw))
            inside = set(splitter)
            before = {b: set(pr.block_states(b)) for b in pr.blocks}
            met = list(dict.fromkeys(pr.state_block[s] for s in splitter))
            nb = len(pr.blocks)
            pairs = pr.split(splitter)
            # new ids run upward from the old block count, in pair order
            assert [new.index for _, new in pairs] == list(range(nb, nb + len(pairs)))
            assert pr.blocks[nb:] == [new for _, new in pairs]
            for kept, new in pairs:
                assert set(pr.block_states(kept)) == before[kept] - inside
                assert set(pr.block_states(new)) == before[kept] & inside
            # pairs follow the first splitter state of each cut block
            cut = [kept for kept, _ in pairs]
            assert cut == [b for b in met if b in cut]
            for b, members in before.items():
                if b not in cut:
                    assert members <= inside or not members & inside
                    assert set(pr.block_states(b)) == members
        covered = sorted(s for b in pr.blocks for s in pr.block_states(b))
        assert covered == list(range(n))
        for b in pr.blocks:
            assert b.size == b.end - b.begin > 0
            for p in range(b.begin, b.end):
                s = pr.states[p]
                assert pr.state_block[s] is b
                assert pr.pos[s] == p


class TestUpSet:
    def test_identity_relation_gives_own_segment(self):
        pr = init_pr(build_ks("ab", []))
        assert pr.up_set_states(pr.blocks[0]) == {0}

    def test_union_over_related_blocks(self):
        pr = init_pr(build_ks("ab", []))
        pr.up[0] |= 1 << 1
        pr.down[1] |= 1 << 0
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

    @given(st.integers(0, 9).flatmap(
        lambda k: st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=k, max_size=k)
    ))
    def test_order_pairs_equals_naive_loop(self, rows):
        k = len(rows)
        leq = tuple(map(tuple, rows))
        result = SimulationResult(tuple((i,) for i in range(k)), leq)
        assert result.order_pairs() == [
            (i, j) for i in range(k) for j in range(k) if i != j and leq[i][j]
        ]


def naive_bits(x):
    return [i for i in range(x.bit_length()) if x >> i & 1]


bit_ints = st.one_of(
    st.integers(0, 2**300),
    st.integers(0, 4000).map(lambda i: 1 << i),
    st.integers(1, 400).map(lambda n: (1 << n) - 1),
    st.lists(st.integers(0, 2000), max_size=6).map(lambda ids: sum(1 << i for i in set(ids))),
)


class TestBits:
    @given(bit_ints)
    @settings(max_examples=300)
    def test_bits_equals_naive_loop(self, x):
        assert bits(x) == naive_bits(x)

    @given(bit_ints, st.integers(0, 64))
    @settings(max_examples=300)
    def test_bit_flags_equals_naive_loop(self, x, extra):
        width = x.bit_length() + extra
        flags = bit_flags(x, width)
        assert len(flags) >= width
        assert [i for i in range(len(flags)) if flags[i]] == naive_bits(x)
        assert set(flags) <= {0, 1}

    def test_edge_values(self):
        assert bits(0) == [] and bit_flags(0, 3) == bytes(3)
        assert bits(1 << 4000) == [4000]
        assert bits((1 << 64) - 1) == list(range(64))
        assert bit_flags(0b101, 8) == bytes([1, 0, 1, 0, 0, 0, 0, 0])
