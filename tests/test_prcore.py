from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simrel.engine import EngineConfig, InvariantViolation, SimulationEngine
from simrel.kripke import KripkeStructure, generate_random_ks
from simrel.prcore import PartitionRelationPair, SimulationResult, bit_flags, bits, init_pr

from .conftest import build_ks, engine_after_initialize


class TestInitPr:
    def test_single_state(self):
        pr = init_pr(KripkeStructure(1, {0: {"a"}}, {}))
        assert pr.begin == [0] and pr.end == [1]
        assert pr.up == pr.down == [1]

    def test_label_blocks_contiguous(self):
        pr = init_pr(build_ks("aba", []))
        assert len(pr.begin) == 2
        assert pr.block_states(0) == [0, 2]
        assert pr.block_states(1) == [1]

    def test_identity_relation(self):
        pr = init_pr(build_ks("abc", []))
        for b in range(len(pr.begin)):
            for c in range(len(pr.begin)):
                assert bool(pr.up[b] >> c & 1) == (b == c)
                assert bool(pr.down[c] >> b & 1) == (b == c)

    def test_blocks_are_plain_int_ids(self):
        # a block is its id: the pair holds ints and split returns them
        ks = build_ks("aabc", [(0, 2), (1, 3)])
        pr = init_pr(ks)
        assert pr.state_block == [0, 0, 1, 2]
        assert all(type(b) is int for b in pr.state_block)
        assert not hasattr(pr, "blocks")
        kept, new = pr.split([0])
        assert (type(kept), type(new)) == (int, int) and (kept, new) == (0, 3)
        assert pr.state_block == [3, 0, 1, 2]
        # block a's states reach b's class and c's; both qualify, and b's
        # has the lower id
        eng = SimulationEngine(ks)
        eng.initialize()
        rep, states, others = eng.find_prefiner()
        assert type(rep) is int and all(type(s) is int for s in states)
        assert (rep, states, others) == (1, [0], [[1]])


class TestSplit:
    # ``split`` cuts one block; the engine's ``cut`` cuts one block and
    # brings its tables up to date
    def test_splitter_covering_everything_is_noop(self):
        # the full check level refuses a part that is the whole block
        eng = SimulationEngine(build_ks("aaa", []), EngineConfig(check_level="full"))
        eng.initialize()
        pr = eng.pr
        with pytest.raises(InvariantViolation, match="no split"):
            eng.cut([0, 1, 2], [])
        assert len(pr.begin) == 1
        assert sorted(pr.block_states(0)) == [0, 1, 2]

    def test_proper_split(self):
        pr = init_pr(build_ks("aaaa", []))
        kept, new = pr.split([0])
        assert len(pr.begin) == len(pr.end) == 2
        assert (kept, new) == (0, 1)
        assert sorted(pr.block_states(kept)) == [1, 2, 3]
        assert sorted(pr.block_states(new)) == [0]

    def test_new_id_goes_to_the_smaller_part(self):
        # the splitter's part is the larger, so the block's id stays with
        # it and the new id goes to the state outside the splitter
        pr = init_pr(build_ks("aaa", []))
        kept, new = pr.split([0, 1])
        assert (kept, new) == (0, 1)
        assert sorted(pr.block_states(kept)) == [0, 1]
        assert pr.block_states(new) == [2]
        assert pr.state_block == [0, 0, 1]

    def test_tie_gives_the_new_id_to_the_splitter_part(self):
        pr = init_pr(build_ks("aaaa", []))
        kept, new = pr.split([3, 1])
        assert sorted(pr.block_states(kept)) == [0, 2]
        assert sorted(pr.block_states(new)) == [1, 3]
        assert pr.state_block == [0, 1, 0, 1]

    def test_double_split(self):
        # two blocks, one cut each: both split, new ids in cut order
        eng = engine_after_initialize(build_ks("aabb", []))
        pr = eng.pr
        assert [eng.cut([1], []), eng.cut([2], [])] == [(0, 2), (1, 3)]
        halves = {tuple(sorted(pr.block_states(b))) for b in range(len(pr.begin))}
        assert halves == {(0,), (1,), (2,), (3,)}

    def test_ids_never_reused(self):
        pr = init_pr(build_ks("aaa", []))
        assert pr.split([0]) == (0, 1)
        assert pr.split([1]) == (0, 2)
        assert len(pr.begin) == 3
        assert sorted(pr.state_block) == [0, 1, 2]

    @given(st.integers(2, 10), st.integers(0, 2**31), st.data())
    @settings(max_examples=60)
    def test_segments_cover_after_random_splits(self, n, seed, data):
        ks = generate_random_ks(n, 2, 0.3, seed)
        eng = engine_after_initialize(ks)
        pr = eng.pr
        for _ in range(data.draw(st.integers(1, 3))):
            nb = len(pr.begin)
            cuttable = [b for b in range(nb) if pr.end[b] - pr.begin[b] > 1]
            if not cuttable:
                break
            b = data.draw(st.sampled_from(cuttable))
            before = {c: set(pr.block_states(c)) for c in range(nb)}
            # a proper part, duplicate-free, in drawn order
            inside = data.draw(
                st.lists(st.sampled_from(pr.block_states(b)), min_size=1,
                         max_size=len(before[b]) - 1, unique=True)
            )
            kept, new = eng.cut(inside, [])
            # the new id is the next one, and the block keeps its own
            assert (kept, new) == (b, nb)
            assert len(pr.begin) == len(pr.end) == nb + 1
            parts = set(inside), before[b] - set(inside)
            # new gets the smaller part, the given one on a tie
            small, large = parts if len(parts[0]) <= len(parts[1]) else parts[::-1]
            assert set(pr.block_states(new)) == small
            assert set(pr.block_states(kept)) == large
            for c, members in before.items():
                if c != b:
                    assert set(pr.block_states(c)) == members
            for c in range(len(pr.begin)):
                assert all(pr.state_block[s] == c for s in pr.block_states(c))
        blocks = range(len(pr.begin))
        covered = sorted(s for b in blocks for s in pr.block_states(b))
        assert covered == list(range(n))
        for b in blocks:
            assert pr.end[b] - pr.begin[b] > 0
            for p in range(pr.begin[b], pr.end[b]):
                s = pr.states[p]
                assert pr.state_block[s] == b
                assert pr.pos[s] == p


class TestExtractResult:
    def test_single_state(self):
        ks = KripkeStructure(1, {}, {0: [0]})
        eng = SimulationEngine(ks, EngineConfig())
        result, _ = eng.run()
        assert result.partition == ((0,),)
        assert result.rows == (1,)
        assert result.order_pairs() == []
        assert result.state_matrix() == [0b1]

    def test_sink_structure(self, ks_a):
        result, _ = SimulationEngine(ks_a, EngineConfig()).run()
        assert result.partition == ((0, 1), (2,))
        assert result.rows == (0b01, 0b10)

    def test_one_sided_structure(self, ks_b):
        result, _ = SimulationEngine(ks_b, EngineConfig()).run()
        assert result.partition == ((0,), (1,))
        assert result.rows == (0b01, 0b11)

    def test_state_matrix_roundtrip(self, ks_a):
        result, _ = SimulationEngine(ks_a, EngineConfig()).run()
        assert result.state_matrix() == [0b011, 0b011, 0b100]

    def test_order_pairs(self, ks_b):
        result, _ = SimulationEngine(ks_b, EngineConfig()).run()
        assert result.order_pairs() == [(1, 0)]

    @given(st.integers(0, 9).flatmap(
        lambda k: st.lists(st.lists(st.booleans(), min_size=k, max_size=k), min_size=k, max_size=k)
    ))
    def test_order_pairs_equals_naive_loop(self, rows):
        k = len(rows)
        leq = tuple(map(tuple, rows))
        bit_rows = tuple(sum(1 << j for j in range(k) if row[j]) for row in leq)
        result = SimulationResult(tuple((i,) for i in range(k)), bit_rows)
        assert result.order_pairs() == [
            (i, j) for i in range(k) for j in range(k) if i != j and leq[i][j]
        ]

    @given(st.integers(1, 24), st.integers(1, 3), st.sampled_from([0.05, 0.15, 0.4]),
           st.integers(0, 2**31))
    @settings(max_examples=80, deadline=None)
    def test_rows_equal_naive_rebuild(self, n, labels, prob, seed):
        # the oracle is the P x P derivation that held the result before
        # the rows; n = 1 and structures with one block cover P = 1
        eng = SimulationEngine(generate_random_ks(n, labels, prob, seed))
        result, _ = eng.run()
        pr = eng.pr
        nb = len(pr.begin)
        ordered = sorted(range(nb), key=lambda b: min(pr.block_states(b)))
        leq = tuple(tuple(bool(pr.up[i] >> j & 1) for j in ordered) for i in ordered)
        assert result.partition == tuple(tuple(sorted(pr.block_states(b))) for b in ordered)
        assert result.rows == tuple(
            sum(1 << j for j, related in enumerate(row) if related) for row in leq
        )
        assert result.order_pairs() == [
            (i, j) for i, row in enumerate(leq) for j in range(nb) if i != j and row[j]
        ]
        blk = {s: i for i, members in enumerate(result.partition) for s in members}
        assert result.state_matrix() == [
            sum(1 << t for t in range(n) if leq[blk[s]][blk[t]]) for s in range(n)
        ]

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_rows_by_density_equal_naive_renumbering(self, data):
        # one state per block, placed so that the result order, by smallest
        # member, is a shuffle of the block ids; each row has just below,
        # exactly at or above the fewest set bits, one in eight, that take
        # the byte-per-bit path, or any number of them
        nb = data.draw(st.integers(1, 100))
        place = data.draw(st.permutations(range(nb)))
        rng = Random(data.draw(st.integers(0, 2**32 - 1)))
        dense_from = -(-nb // 8)
        up = []
        for kind in data.draw(st.lists(st.sampled_from("<=>?"), min_size=nb, max_size=nb)):
            count = {
                "<": dense_from - 1,
                "=": dense_from,
                ">": rng.randint(min(dense_from + 1, nb), nb),
                "?": rng.randint(0, nb),
            }[kind]
            up.append(sum(1 << c for c in rng.sample(range(nb), count)))
        pos = [0] * nb
        for b, s in enumerate(place):
            pos[s] = b
        pr = PartitionRelationPair(
            list(place), pos, pos[:], list(range(nb)), list(range(1, nb + 1)), up, []
        )
        ordered = sorted(range(nb), key=place.__getitem__)
        result = pr.extract_result()
        assert result.partition == tuple((place[b],) for b in ordered)
        assert result.rows == tuple(
            sum(1 << i for i, c in enumerate(ordered) if up[b] >> c & 1) for b in ordered
        )


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
