import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simrel.kripke import (
    MAX_STATES,
    KripkeStructure,
    KSFormatError,
    generate_random_ks,
    initial_label_partition,
    make_chain,
    make_clique,
    make_tree,
    parse_ks,
    pre_of,
    serialize_ks,
)


def random_ks_strategy(max_states=8, max_labels=3):
    return st.builds(
        generate_random_ks,
        n_states=st.integers(1, max_states),
        n_labels=st.integers(1, max_labels),
        edge_prob=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )


class TestParse:
    def test_minimal_structure(self):
        ks = parse_ks("states 1\nlabel 0 a\n")
        assert ks.num_states == 1
        assert ks.labels[0] == frozenset({"a"})
        assert ks.succ == ((),)

    def test_transitions_and_defaults(self):
        ks = parse_ks("states 2\nlabel 0 a\nlabel 1 a\ntrans 0 0\n")
        assert ks.succ[0] == (0,)
        assert ks.succ[1] == ()

    def test_out_of_range_id(self):
        with pytest.raises(KSFormatError, match="out of range"):
            parse_ks("states 2\nlabel 0 a\ntrans 0 5\n")

    def test_missing_header(self):
        with pytest.raises(KSFormatError, match="header"):
            parse_ks("label 0 a\n")

    def test_error_carries_line_number(self):
        with pytest.raises(KSFormatError, match="line 3"):
            parse_ks("states 2\nlabel 0 a\ntrans 0\n")

    def test_state_count_above_cap_refused(self):
        with pytest.raises(KSFormatError, match="line 1: .*exceeds the limit"):
            parse_ks(f"states {MAX_STATES + 1}\n")

    def test_state_count_at_cap_accepted(self):
        # the header passes; the bad line 2 stops parsing before allocation
        with pytest.raises(KSFormatError, match="line 2"):
            parse_ks(f"states {MAX_STATES}\ntrans 0\n")

    def test_comments_and_blanks(self):
        ks = parse_ks("# intro\nstates 2\n\ntrans 0 1  # edge\n")
        assert ks.succ[0] == (1,)

    def test_duplicate_transitions_deduplicated(self):
        ks = parse_ks("states 2\ntrans 0 1\ntrans 0 1\ntrans 0 1\n")
        assert ks.succ[0] == (1,)

    def test_label_lines_merge(self):
        ks = parse_ks("states 1\nlabel 0 a\nlabel 0 b\n")
        assert ks.labels[0] == frozenset({"a", "b"})

    def test_unknown_directive(self):
        with pytest.raises(KSFormatError, match="unknown directive"):
            parse_ks("states 1\nedge 0 0\n")


class TestSerialize:
    def test_minimal_exact_bytes(self):
        ks = KripkeStructure(1, {0: {"a"}}, {})
        assert serialize_ks(ks) == "states 1\nlabel 0 a\n"

    def test_single_transition_line(self):
        ks = KripkeStructure(2, {}, {0: [1]})
        text = serialize_ks(ks)
        assert text.count("trans") == 1

    @given(random_ks_strategy())
    @settings(max_examples=60)
    def test_round_trip(self, ks):
        assert parse_ks(serialize_ks(ks)) == ks


class TestLabelPartition:
    def test_single_label(self):
        ks = KripkeStructure(3, {s: {"a"} for s in range(3)}, {})
        assert initial_label_partition(ks) == [[0, 1, 2]]

    def test_two_labels_interleaved(self):
        ks = KripkeStructure(3, {0: {"a"}, 1: {"b"}, 2: {"a"}}, {})
        assert initial_label_partition(ks) == [[0, 2], [1]]

    def test_empty_labels_single_block(self):
        ks = KripkeStructure(3, {}, {})
        assert initial_label_partition(ks) == [[0, 1, 2]]

    @given(random_ks_strategy())
    @settings(max_examples=40)
    def test_blocks_disjoint_and_cover(self, ks):
        blocks = initial_label_partition(ks)
        flat = [s for b in blocks for s in b]
        assert sorted(flat) == list(range(ks.num_states))


class TestPre:
    def test_empty_target(self, ks_a):
        assert pre_of(ks_a, set()) == set()

    def test_single_edge(self):
        ks = KripkeStructure(2, {}, {0: [1]})
        assert pre_of(ks, {1}) == {0}

    def test_sink_with_loop(self, ks_a):
        # every state feeds the self-looping sink, enumerated by hand
        assert pre_of(ks_a, {2}) == {0, 1, 2}

    @given(random_ks_strategy())
    @settings(max_examples=40)
    def test_pre_of_all_states(self, ks):
        assert pre_of(ks, range(ks.num_states)) == {
            s for s in range(ks.num_states) if ks.succ[s]
        }


class TestGenerator:
    def test_single_state_no_edges(self):
        ks = generate_random_ks(1, 1, 0.0, 7)
        assert ks.num_states == 1 and ks.num_transitions == 0

    def test_deterministic_for_seed(self):
        a = generate_random_ks(8, 2, 0.3, 42)
        b = generate_random_ks(8, 2, 0.3, 42)
        assert a == b

    def test_golden_instance(self):
        # frozen on first generation; guards the documented draw order
        golden = (
            "states 8\nlabel 0 l0\nlabel 1 l0\nlabel 2 l1\nlabel 3 l0\n"
            "label 4 l0\nlabel 5 l0\nlabel 6 l0\nlabel 7 l0\n"
            "trans 0 1\ntrans 0 2\ntrans 0 3\ntrans 1 2\ntrans 1 5\n"
            "trans 1 7\ntrans 2 0\ntrans 2 2\ntrans 2 6\ntrans 2 7\n"
            "trans 3 1\ntrans 3 3\ntrans 3 4\ntrans 4 0\ntrans 4 1\n"
            "trans 5 2\ntrans 5 7\ntrans 6 2\ntrans 6 4\ntrans 6 7\n"
            "trans 7 2\ntrans 7 6\n"
        )
        assert serialize_ks(generate_random_ks(8, 2, 0.3, 42)) == golden

    def test_bad_params(self):
        with pytest.raises(ValueError):
            generate_random_ks(0, 1, 0.5, 1)
        with pytest.raises(ValueError):
            generate_random_ks(1, 1, 1.5, 1)


class TestFamilies:
    def test_chain(self):
        ks = make_chain(3)
        assert ks.succ == ((1,), (2,), ())

    def test_tree_counts(self):
        ks = make_tree(2, 2)
        assert ks.num_states == 7
        assert ks.num_transitions == 6

    def test_clique(self):
        ks = make_clique(3)
        assert ks.num_transitions == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            make_chain(0)
        with pytest.raises(ValueError):
            make_tree(-1, 2)


class TestStructure:
    def test_successor_validation(self):
        with pytest.raises(ValueError):
            KripkeStructure(2, {}, {0: [2]})

    def test_constructor_dedup(self):
        ks = KripkeStructure(2, {}, {0: [1, 1, 0, 1]})
        assert ks.succ[0] == (1, 0)

    def test_transition_count(self):
        ks = KripkeStructure(3, {}, {0: [1, 2], 2: [0]})
        assert ks.num_transitions == 3
