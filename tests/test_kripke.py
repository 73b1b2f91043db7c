import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simrel import kripke
from simrel.kripke import (
    BULK_RUN_LINES,
    MAX_CLIQUE_STATES,
    MAX_RANDOM_STATES,
    MAX_STATES,
    KripkeStructure,
    KSFormatError,
    generate_random_ks,
    initial_label_partition,
    make_chain,
    make_clique,
    make_tree,
    parse_ks,
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

    def test_form_feed_is_not_a_line_break(self):
        # grep -n sees one line; so does the parser
        with pytest.raises(KSFormatError, match="line 1: missing 'states <n>' header"):
            parse_ks("states 2\x0ctrans 0 5\n")

    @pytest.mark.parametrize("sep", ["\u2028", "\x85", "\x1c", "\r"])
    def test_only_newline_breaks_lines(self, sep):
        # the comment runs to the "\n", so the bad transition after sep is
        # commented out and the error is on the real line 3
        text = f"states 2\n# note{sep}trans 0 5\ntrans 0\n"
        with pytest.raises(KSFormatError, match="line 3: trans needs"):
            parse_ks(text)

    def test_crlf_parses_as_lf(self):
        lf = "# c\nstates 3\nlabel 0 a b\n\ntrans 0 1\ntrans 1 2  # e\n"
        assert parse_ks(lf.replace("\n", "\r\n")) == parse_ks(lf)
        with pytest.raises(KSFormatError, match="line 3"):
            parse_ks("states 2\r\nlabel 0 a\r\ntrans 0\r\n")

    @pytest.mark.parametrize(
        "text, line",
        [
            ("states 1_0\n", 1),
            ("states +2\n", 1),
            ("states \uff12\n", 1),  # fullwidth digit two
            ("states 2\ntrans 0 \u0663\n", 2),  # Arabic-Indic digit three
            ("states 2\ntrans 0 +1\n", 2),
            ("states 2\nlabel 0_0 a\n", 2),
            ("states 2\ntrans --1 0\n", 2),
            ("states 2\ntrans - 0\n", 2),
        ],
    )
    def test_only_ascii_decimal_integers(self, text, line):
        with pytest.raises(KSFormatError, match=f"line {line}: .* must be an integer"):
            parse_ks(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("states -2\n", "line 1: state count must be non-negative"),
            ("states 2\ntrans 0 -1\n", "line 2: state id -1 out of range"),
        ],
    )
    def test_negative_values_keep_their_messages(self, text, message):
        with pytest.raises(KSFormatError, match=message):
            parse_ks(text)

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


def trans_lines(pairs):
    return "".join(f"trans {s} {t}\n" for s, t in pairs)


# a canonical line "trans <s> <t>" made into one that parse_ks reads line
# by line, with the same meaning
PER_LINE_FORMS = [
    lambda s, t: f"trans  {s} {t}",
    lambda s, t: f"trans {s} {t}  # c",
    lambda s, t: f"trans {s} {t}\r",
    lambda s, t: f"trans {int(s):010d} {t}",
]


def canonical(line):
    parts = line.split(" ")
    return (
        len(parts) == 3
        and parts[0] == "trans"
        and all(p.isascii() and p.isdigit() and len(p) <= 9 for p in parts[1:])
    )


def per_line_text(text, forms):
    """text with its i-th canonical trans line rewritten by forms[i % len]."""
    lines = text.split("\n")
    bulk = [i for i, line in enumerate(lines) if canonical(line)]
    for k, i in enumerate(bulk):
        lines[i] = forms[k % len(forms)](*lines[i].split(" ")[1:])
    return "\n".join(lines)


def parse_error(text):
    with pytest.raises(KSFormatError) as info:
        parse_ks(text)
    return str(info.value), info.value.line_no


class TestBulkRuns:
    """Runs of canonical trans lines are read in bulk; every other form of
    the same lines, and any iterable of lines, is read line by line."""

    @given(
        random_ks_strategy(max_states=12),
        st.lists(st.sampled_from(PER_LINE_FORMS), min_size=1, max_size=4),
    )
    @settings(max_examples=80)
    def test_same_structure_line_by_line(self, ks, forms):
        text = serialize_ks(ks)
        slow = per_line_text(text, forms)
        assert not any(map(canonical, slow.split("\n")))
        assert parse_ks(text) == parse_ks(slow) == ks

    @given(
        random_ks_strategy(max_states=12),
        st.lists(st.sampled_from(PER_LINE_FORMS), min_size=1, max_size=4),
        st.data(),
    )
    @settings(max_examples=150)
    def test_same_error_line_by_line(self, ks, forms, data):
        n = ks.num_states
        lines = serialize_ks(ks).split("\n")[:-1]
        bad = data.draw(
            st.one_of(
                st.builds("trans {} {}".format, st.integers(0, n - 1), st.integers(n, n + 2)),
                st.builds("trans {} {}".format, st.integers(n, n + 2), st.integers(0, n - 1)),
                st.builds(
                    "trans {} {}".format, st.integers(0, 9), st.sampled_from(["x", "-1", "1_0"])
                ),
                st.sampled_from(["trans 0", "trans 0 0 0", f"states {n}", f"label {n} a"]),
            )
        )
        at = data.draw(st.integers(1, len(lines)))
        lines.insert(at, bad)
        # or the header misplaced: then line 1 is the first error
        misplaced = bad != f"states {n}" and data.draw(st.booleans())
        if misplaced:
            header = lines.pop(0)
            lines.insert(data.draw(st.integers(1, len(lines))), header)
        text = "\n".join(lines) + "\n"
        message, line_no = parse_error(text)
        assert parse_error(per_line_text(text, forms)) == (message, line_no)
        if misplaced:
            assert (message, line_no) == ("line 1: missing 'states <n>' header", 1)
        else:
            assert line_no == at + 1 and message.startswith(f"line {at + 1}: ")

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(
                "states 7\n" + trans_lines((s % 7, s // 7 % 7) for s in range(count)),
                id=f"run-of-{count}",
            )
            for count in (
                BULK_RUN_LINES - 1,
                BULK_RUN_LINES,
                BULK_RUN_LINES + 1,
                2 * BULK_RUN_LINES,
                2 * BULK_RUN_LINES + 1,
            )
        ]
        + [
            pytest.param(
                "states 9\n"
                + trans_lines((s % 9, s // 9 % 9) for s in range(brk))
                + "trans 1 2  # c\n"
                + trans_lines((s // 9 % 9, s % 9) for s in range(2 * BULK_RUN_LINES)),
                id=f"run-broken-after-{brk}",
            )
            for brk in (BULK_RUN_LINES - 1, BULK_RUN_LINES, BULK_RUN_LINES + 1)
        ]
        + [
            pytest.param(
                "states 2\ntrans 0 000000001\ntrans 1 0000000000\n", id="9-and-10-digit-ids"
            ),
            pytest.param("states 2\ntrans 0 1\ntrans 1 0", id="no-final-newline"),
            pytest.param(
                "states 3\nlabel 0 a\ntrans 0 1\n# c\ntrans 1 2\ntrans 2 0\nlabel 2 b\n",
                id="runs-after-label-and-comment",
            ),
            pytest.param(
                "states 2\n\ntrans 0 1\n\ntrans 1 1\r\ntrans 1 0\n", id="blank-and-crlf"
            ),
        ],
    )
    def test_run_boundaries(self, text):
        slow = per_line_text(text, PER_LINE_FORMS)
        # an iterable of lines is read line by line
        assert parse_ks(text) == parse_ks(slow) == parse_ks(text.split("\n"))

    def test_iterable_items_are_never_joined(self):
        # an iterable is read line by line, never joined, so an item with an
        # embedded "\n" is one line
        with pytest.raises(KSFormatError, match="line 2: trans needs exactly"):
            parse_ks(["states 2\n", "trans 0 1\ntrans 1 0\n"])

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(
                "states 10\n"
                + trans_lines((1, 2) for _ in range(2, 3000))
                + "trans 1 10\n"
                + trans_lines((2, 1) for _ in range(3001, 5002)),
                "line 3000: state id 10 out of range",
                id="line-3000-of-a-5000-line-run",
            ),
            pytest.param(
                "trans 0 1\nstates 2\n",
                "line 1: missing 'states <n>' header",
                id="run-before-header",
            ),
            pytest.param(
                "states 2\ntrans 0 1\ntrans 1 0\nstates 2\n",
                "line 4: duplicate 'states' header",
                id="header-after-run",
            ),
            pytest.param(
                "states 2\ntrans 0 123456789\n",
                "line 2: state id 123456789 out of range",
                id="9-digit-id",
            ),
            pytest.param(
                "states 2\ntrans 0 1234567890\n",
                "line 2: state id 1234567890 out of range",
                id="10-digit-id",
            ),
            pytest.param(
                "states 2\ntrans 0 1\ntrans 2 0",
                "line 3: state id 2 out of range",
                id="no-final-newline",
            ),
            pytest.param(
                "states 0\ntrans 0 0\n", "line 2: state id 0 out of range", id="no-states"
            ),
        ]
        + [
            pytest.param(
                "states 2\n"
                + trans_lines((0, 1) for _ in range(bad))
                + "trans 0 2\n"
                + trans_lines((1, 0) for _ in range(BULK_RUN_LINES)),
                f"line {bad + 2}: state id 2 out of range",
                id=f"bad-after-{bad}",
            )
            for bad in (BULK_RUN_LINES - 1, BULK_RUN_LINES, BULK_RUN_LINES + 1, 2 * BULK_RUN_LINES)
        ],
    )
    def test_run_errors(self, text, message):
        assert parse_error(text)[0] == message
        assert parse_error(text.split("\n"))[0] == message

    def test_parse_memory_bounded(self):
        # 90,000 transition lines; reading them one string per line took a
        # traced peak of 8,193,825 bytes on CPython 3.11 (8,194,831 on 3.10),
        # and converting the whole file as one run takes more than that
        text = serialize_ks(make_clique(300))
        tracemalloc.start()
        try:
            ks = parse_ks(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ks == make_clique(300)
        assert peak <= 8_193_825


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

    @pytest.mark.parametrize("atom", ["a b", "#x", ""])
    def test_atom_the_format_cannot_hold_raises(self, atom):
        # written as is, each would parse back as other atoms or fail to parse
        ks = KripkeStructure(2, {0: {"a"}, 1: {atom}}, {})
        with pytest.raises(ValueError, match=f"state 1: atom {atom!r}"):
            serialize_ks(ks)


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

    def test_size_refused_before_any_draw(self, monkeypatch):
        # one coin per ordered state pair: above the limit, refuse up front
        def no_draws(seed):
            raise AssertionError("drew before refusing the size")

        monkeypatch.setattr(kripke.random, "Random", no_draws)
        with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_RANDOM_STATES}"):
            generate_random_ks(MAX_RANDOM_STATES + 1, 1, 0.0, 0)
        assert MAX_RANDOM_STATES == 10_000


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

    def test_state_cap(self):
        # refused before any per-state allocation
        for build in (
            lambda: make_chain(MAX_STATES + 1),
            lambda: make_clique(MAX_STATES + 1),
            lambda: make_tree(64, 2),
            lambda: make_tree(22, 2),
            lambda: generate_random_ks(MAX_STATES + 1, 1, 0.5, 1),
        ):
            with pytest.raises(ValueError, match="exceeds the limit"):
                build()
        assert make_tree(21, 1).num_states == 22

    def test_clique_size_refused_before_building(self):
        # one transition per ordered state pair: above the limit, refuse
        # before the first successor list is built
        tracemalloc.start()
        try:
            limit = f"exceeds the limit of {MAX_CLIQUE_STATES}"
            with pytest.raises(ValueError, match=limit):
                make_clique(MAX_CLIQUE_STATES + 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestStructure:
    def test_successor_validation(self):
        with pytest.raises(ValueError):
            KripkeStructure(2, {}, {0: [2]})

    def test_keys_outside_the_states_are_ignored(self):
        ks = KripkeStructure(
            3, {-1: {"a"}, 3: {"b"}, 1: {"c"}}, {-1: [0], 3: [1], 7: [9], 2: [0]}
        )
        assert ks.labels == (frozenset(), frozenset({"c"}), frozenset())
        assert ks.succ == ((), (), (0,))

    def test_first_bad_successor_by_state_then_list_order(self):
        with pytest.raises(ValueError, match="successor 5 of state 1 out of range"):
            KripkeStructure(3, {}, {2: [0, 7], 1: [0, 5, 9], 0: [1]})

    @pytest.mark.parametrize("labels", [{0: {"req"}, 1: "req"}, [["req"], "req"], {1: ""}])
    def test_string_label_raises(self, labels):
        # a string would be read as one atom per character
        with pytest.raises(ValueError, match="label of state 1 is the string"):
            KripkeStructure(2, labels)

    @pytest.mark.parametrize(
        "labels, kind",
        [({0: {"req"}, 1: b"req"}, "bytes"), ([["req"], bytearray(b"req")], "bytearray"),
         ({1: b""}, "bytes")],
    )
    def test_bytes_label_raises(self, labels, kind):
        # bytes would be read as one decimal atom per byte
        with pytest.raises(ValueError, match=f"label of state 1 is the {kind} "):
            KripkeStructure(2, labels)

    def test_constructor_dedup(self):
        ks = KripkeStructure(2, {}, {0: [1, 1, 0, 1]})
        assert ks.succ[0] == (1, 0)

    def test_transition_count(self):
        ks = KripkeStructure(3, {}, {0: [1, 2], 2: [0]})
        assert ks.num_transitions == 3

    def test_one_label_object_per_distinct_label_set(self):
        structures = [
            parse_ks(
                "states 6\nlabel 0 a\nlabel 1 a\nlabel 2 b a\nlabel 3 a b\n"
                "label 4 a\nlabel 4 b\n"
            ),
            generate_random_ks(200, 3, 0.05, 7),
            KripkeStructure(5, {0: ["p"], 1: ("p",), 3: {"p", "q"}, 4: ["q", "p"]}),
            KripkeStructure(4, [["x"], [], ("x",), iter(())]),
        ]
        for ks in structures:
            assert len({id(lab) for lab in ks.labels}) == len(set(ks.labels))
