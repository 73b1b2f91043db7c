import hashlib
import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import simrel.cli as cli_mod
from simrel.cli import main
from simrel.engine import CHECK_LEVELS, EngineConfig, InvariantViolation, compute_simulation
from simrel.kripke import (
    MAX_STATES,
    generate_random_ks,
    make_chain,
    make_clique,
    make_tree,
    parse_ks,
    serialize_ks,
)
from simrel.prcore import SimulationResult

KS_A_TEXT = "states 3\nlabel 0 a\nlabel 1 a\nlabel 2 b\ntrans 0 2\ntrans 1 2\ntrans 2 2\n"
KS_B_TEXT = "states 2\nlabel 0 a\nlabel 1 a\ntrans 0 0\n"


def claim_all_equivalent(ks, cfg=None):
    """A corrupted engine: every state simulates every other."""
    result = SimulationResult((tuple(range(ks.num_states)),), (1,))
    return result, None


def violate_invariant(ks, cfg=None):
    """An engine whose self-check fails on every structure."""
    raise InvariantViolation("forced for the test harness")


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def ks_files(tmp_path):
    a = tmp_path / "ks_a.txt"
    a.write_text(KS_A_TEXT)
    b = tmp_path / "ks_b.txt"
    b.write_text(KS_B_TEXT)
    return {"a": str(a), "b": str(b), "dir": tmp_path}


class TestUsageErrors:
    # click exits 2 on a usage error, but 2 means a self-check failure here
    @pytest.mark.parametrize(
        "args, message",
        [
            (["compute", "--format", "xml", "F"], "Invalid value for '--format'"),
            (["compute"], "Missing argument 'FILE'"),
            (["verify", "--random", "x"], "Invalid value for '--random'"),
            (["generate", "random", "3", "-1", "0.5"], "No such option '-1'"),
            (["bogus"], "No such command 'bogus'"),
            ([], "Missing command"),
        ],
    )
    def test_exit_1_with_an_error_line(self, runner, args, message):
        out = runner.invoke(main, args)
        assert out.exit_code == 1
        assert f"error: {message}" in out.output
        assert "Traceback" not in out.output

    def test_help_still_exits_0(self, runner):
        out = runner.invoke(main, ["compute", "--help"])
        assert out.exit_code == 0
        assert "Usage:" in out.output


class TestCompute:
    def test_text_report(self, runner, ks_files):
        out = runner.invoke(main, ["compute", ks_files["b"]])
        assert out.exit_code == 0
        assert "block 0: {0}" in out.output
        assert "block 1: {1}" in out.output
        assert "order: 1 ⊴ 0" in out.output

    def test_json_report(self, runner, ks_files):
        out = runner.invoke(main, ["compute", "--format", "json", ks_files["a"]])
        assert out.exit_code == 0
        doc = json.loads(out.output)
        assert doc["partition"] == [[0, 1], [2]]
        assert doc["order"] == []
        assert doc["stats"] is None

    def test_missing_file(self, runner):
        out = runner.invoke(main, ["compute", "missing.txt"])
        assert out.exit_code == 1
        assert "cannot open" in out.output

    def test_parse_error(self, runner, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("states 1\ntrans 0 9\n")
        out = runner.invoke(main, ["compute", str(bad)])
        assert out.exit_code == 1
        assert "line 2" in out.output

    def test_state_count_above_cap(self, runner, tmp_path):
        huge = tmp_path / "huge.txt"
        huge.write_text(f"states {MAX_STATES + 1}\n")
        out = runner.invoke(main, ["compute", str(huge)])
        assert out.exit_code == 1
        assert "line 1" in out.output

    def test_file_not_utf8(self, runner, tmp_path):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"states 2\ntrans 0 1\n\xff\n")
        out = runner.invoke(main, ["compute", str(bad)])
        assert out.exit_code == 1
        assert f"error: {bad}: line 3: not valid UTF-8" in out.output
        assert out.exception is None or isinstance(out.exception, SystemExit)

    def test_stats_flag(self, runner, ks_files):
        out = runner.invoke(main, ["compute", "--stats", ks_files["b"]])
        assert out.exit_code == 0
        assert "new_blocks_total=2" in out.output

    def test_check_full(self, runner, ks_files):
        out = runner.invoke(main, ["compute", "--check", "full", ks_files["a"]])
        assert out.exit_code == 0

    def test_check_choices_are_the_engine_levels(self):
        (check,) = [p for p in main.commands["compute"].params if p.name == "check"]
        assert tuple(check.type.choices) == CHECK_LEVELS

    def test_invariant_violation_exit_code(self, runner, ks_files, monkeypatch):
        monkeypatch.setattr(cli_mod, "compute_simulation", violate_invariant)
        out = runner.invoke(main, ["compute", "--check", "full", ks_files["a"]])
        assert out.exit_code == 2
        assert "invariant" in out.output

    def test_deterministic_bytes(self, runner, ks_files):
        outs = [
            runner.invoke(main, ["compute", "--format", "json", "--stats", ks_files["b"]]).output
            for _ in range(2)
        ]
        assert outs[0] == outs[1]


def stdlib_document(result, stats):
    """The reference bytes of the JSON report: the stdlib's own encoder."""
    doc = {
        "partition": result.partition,
        "order": [list(p) for p in result.order_pairs()],
        "stats": stats.to_dict() if stats is not None else None,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def assert_report_matches_stdlib(ks):
    """Without stats (``null``, as ``compute`` prints it) and with them."""
    result, stats = compute_simulation(ks, EngineConfig(stats_enabled=True))
    for shown in (None, stats):
        assert cli_mod._report_json(result, shown) == stdlib_document(result, shown)


class TestReportJson:
    @pytest.mark.parametrize(
        "ks",
        [
            parse_ks("states 0\n"),
            parse_ks("states 1\n"),
            parse_ks("states 1\ntrans 0 0\n"),
            make_clique(5),
            make_chain(9),
            make_tree(3, 2),
            generate_random_ks(12, 2, 0.2, 7),
            generate_random_ks(30, 3, 0.1, 11),
            generate_random_ks(40, 1, 0.05, 3),
        ],
        ids=[
            "states-0",
            "one-state",
            "one-state-loop",
            "clique-5",
            "chain-9",
            "tree-3-2",
            "random-12",
            "random-30",
            "random-40",
        ],
    )
    def test_bytes_equal_stdlib(self, ks):
        assert_report_matches_stdlib(ks)

    @given(
        st.builds(
            generate_random_ks,
            n_states=st.integers(1, 12),
            n_labels=st.integers(1, 3),
            edge_prob=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
            seed=st.integers(0, 2**32 - 1),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_bytes_equal_stdlib_random(self, ks):
        assert_report_matches_stdlib(ks)


class TestReportText:
    # sha256 of the text report of make_chain(64); these bytes are the
    # CLI's output contract, whatever builds the lines
    CHAIN_64 = {
        (): "0473342261b8617cff00e3c1f6d976dbe271ed0443ad258c543d4cb57dd14200",
        ("--stats",): "cb611946cdacaa28e280eeb11b6fd834af718a3f7fc64bb9a8a2c01d5f71a264",
    }

    @pytest.mark.parametrize("flags", list(CHAIN_64), ids=["plain", "stats"])
    def test_chain_64_bytes_pinned(self, runner, tmp_path, flags):
        path = tmp_path / "chain64.ks"
        path.write_text(serialize_ks(make_chain(64)))
        out = runner.invoke(main, ["compute", *flags, str(path)])
        assert out.exit_code == 0
        assert out.output.count("order: ") == 64 * 63 // 2
        assert hashlib.sha256(out.output.encode()).hexdigest() == self.CHAIN_64[flags]

    def test_multi_member_blocks(self, runner, ks_files):
        out = runner.invoke(main, ["compute", ks_files["a"]])
        assert out.exit_code == 0
        assert out.output == "block 0: {0, 1}\nblock 1: {2}\n"


class TestVerify:
    def test_file_pass(self, runner, ks_files):
        out = runner.invoke(main, ["verify", ks_files["a"]])
        assert out.exit_code == 0
        assert "PASS" in out.output

    def test_random_corpus_pass(self, runner):
        out = runner.invoke(
            main, ["verify", "--random", "60", "--max-states", "8", "--seed", "3"]
        )
        assert out.exit_code == 0, out.output

    def test_engine_runs_every_full_check(self, runner, monkeypatch):
        configs = []

        def capture(ks, cfg=None):
            configs.append(cfg)
            return compute_simulation(ks, cfg)

        monkeypatch.setattr(cli_mod, "compute_simulation", capture)
        out = runner.invoke(main, ["verify", "--random", "3", "--max-states", "6"])
        assert out.exit_code == 0, out.output
        assert configs == [EngineConfig(check_level="full")] * 3

    def test_oracle_cap(self, runner, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("states 65\n")
        out = runner.invoke(main, ["verify", str(big)])
        assert out.exit_code == 1
        assert "cap" in out.output

    def test_max_states_above_oracle_cap_refused_before_drawing(
        self, runner, monkeypatch
    ):
        drawn = []
        monkeypatch.setattr(
            cli_mod, "generate_random_ks", lambda *args: drawn.append(args)
        )
        out = runner.invoke(
            main, ["verify", "--random", "40", "--max-states", "65", "--seed", "1"]
        )
        assert out.exit_code == 1
        assert "error: --max-states 65 exceeds the oracle cap of 64" in out.output
        assert drawn == []

    def test_max_states_at_oracle_cap_accepted(self, runner):
        out = runner.invoke(
            main, ["verify", "--random", "2", "--max-states", "64", "--seed", "1"]
        )
        assert out.exit_code == 0, out.output

    @pytest.mark.parametrize(
        "text", ["states 0\n", serialize_ks(make_chain(64))], ids=["states-0", "chain-64"]
    )
    def test_row_widths_at_both_ends(self, runner, tmp_path, text):
        # rows of width 0, and rows that use bit 63 at the oracle cap
        path = tmp_path / "edge.ks"
        path.write_text(text)
        out = runner.invoke(main, ["verify", str(path)])
        assert out.exit_code == 0, out.output
        assert out.output == "PASS: 1 instance(s) match the reference\n"

    def test_requires_input(self, runner):
        out = runner.invoke(main, ["verify"])
        assert out.exit_code == 1

    def test_file_with_random_refused_before_drawing(self, runner, tmp_path, monkeypatch):
        # the file is above the oracle cap, so checking it alone is refused
        # too; with --random it must not be dropped for a random corpus
        chain = tmp_path / "chain.ks"
        chain.write_text(serialize_ks(make_chain(70)))
        drawn = []
        monkeypatch.setattr(
            cli_mod, "generate_random_ks", lambda *args: drawn.append(args)
        )
        out = runner.invoke(main, ["verify", str(chain), "--random", "2"])
        assert out.exit_code == 1
        assert "error: give a FILE or --random N, not both" in out.output
        assert "PASS" not in out.output
        assert drawn == []

    def test_invariant_violation_exit_code(self, runner, ks_files, monkeypatch):
        monkeypatch.setattr(cli_mod, "compute_simulation", violate_invariant)
        out = runner.invoke(main, ["verify", ks_files["a"]])
        assert out.exit_code == 2
        assert "error: internal invariant violated: forced" in out.output
        assert out.exception is None or isinstance(out.exception, SystemExit)

    def test_mutation_detected(self, runner, ks_files, monkeypatch):
        # the reported pair is the lowest s, then the lowest t, that differ
        monkeypatch.setattr(cli_mod, "compute_simulation", claim_all_equivalent)
        for name, pair in [("a", "(0, 2)"), ("b", "(0, 1)")]:
            out = runner.invoke(main, ["verify", ks_files[name]])
            assert out.exit_code == 3
            assert out.output == f"FAIL {ks_files[name]}: first differing state pair {pair}\n"

    def test_random_stops_drawing_at_the_first_failure(self, runner, monkeypatch):
        # structures are drawn one at a time, so a mismatch on the first
        # is reported before a second is built
        drawn = []
        draw = cli_mod.generate_random_ks
        monkeypatch.setattr(
            cli_mod, "generate_random_ks", lambda *args: drawn.append(args) or draw(*args)
        )
        monkeypatch.setattr(cli_mod, "_verify_one", lambda ks: (0, 0))
        out = runner.invoke(main, ["verify", "--random", "2000", "--seed", "5"])
        assert out.exit_code == 3
        assert len(drawn) == 1
        assert out.output.startswith(
            "FAIL random[0]: first differing state pair (0, 0); replay with:"
        )

    def test_random_failure_prints_replay(self, runner, monkeypatch):
        # the FAIL line must regenerate the instance it failed on
        monkeypatch.setattr(cli_mod, "compute_simulation", claim_all_equivalent)
        out = runner.invoke(main, ["verify", "--random", "20", "--seed", "5"])
        assert out.exit_code == 3
        line = out.output.strip().splitlines()[-1]
        assert line.startswith("FAIL random[")
        pair = line.split("state pair ", 1)[1].split(";", 1)[0]
        command = line.split("replay with: ", 1)[1].split()
        assert command[:3] == ["simrel", "generate", "random"]
        replayed = runner.invoke(main, command[1:])
        assert replayed.exit_code == 0
        s, t = cli_mod._verify_one(parse_ks(replayed.output))
        assert pair == f"({s}, {t})"


class TestGenerate:
    def test_chain(self, runner):
        out = runner.invoke(main, ["generate", "chain", "3"])
        assert out.exit_code == 0
        ks = parse_ks(out.output)
        assert ks.succ == ((1,), (2,), ())

    def test_tree_counts(self, runner):
        out = runner.invoke(main, ["generate", "tree", "2", "2"])
        ks = parse_ks(out.output)
        assert ks.num_states == 7
        assert ks.num_transitions == 6

    def test_clique(self, runner):
        out = runner.invoke(main, ["generate", "clique", "2"])
        ks = parse_ks(out.output)
        assert ks.num_transitions == 4

    def test_random_deterministic(self, runner):
        args = ["generate", "random", "8", "2", "0.3", "--seed", "42"]
        assert runner.invoke(main, args).output == runner.invoke(main, args).output

    def test_invalid_params(self, runner):
        out = runner.invoke(main, ["generate", "chain", "0"])
        assert out.exit_code == 1
        out = runner.invoke(main, ["generate", "random", "5"])
        assert out.exit_code == 1

    @pytest.mark.parametrize(
        "params",
        [
            ["chain", "3", "99"],
            ["tree", "2", "2", "5"],
            ["clique", "2", "2"],
            ["random", "5", "2", "0.3", "1"],
            ["chain"],
            ["tree", "2"],
            ["random", "5", "2"],
        ],
    )
    def test_parameter_count_other_than_arity_refused(self, runner, params):
        out = runner.invoke(main, ["generate", *params])
        assert out.exit_code == 1
        assert isinstance(out.exception, SystemExit)
        assert f"error: invalid parameters for {params[0]}" in out.output
        assert "Traceback" not in out.output

    @pytest.mark.parametrize(
        "params",
        [
            ["tree", "64", "2"],
            ["chain", str(MAX_STATES + 1)],
            # refused before its 10^10 edge draws, so it returns at once
            ["random", "100000", "1", "0.0"],
            # refused before building its 10^10 successor entries
            ["clique", "100000"],
        ],
    )
    def test_above_state_cap(self, runner, params):
        out = runner.invoke(main, ["generate", *params])
        assert out.exit_code == 1
        assert isinstance(out.exception, SystemExit)
        assert "error:" in out.output and "exceeds the limit" in out.output
        assert "Traceback" not in out.output


class TestBench:
    def test_empty_corpus(self, runner, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        out = runner.invoke(main, ["bench", str(corpus)])
        assert out.exit_code == 0
        assert "states" in out.output  # header only

    def test_corpus_rows_and_laws(self, runner, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for n in (2, 4, 8, 16):
            text = runner.invoke(main, ["generate", "chain", str(n)]).output
            (corpus / f"chain{n:03d}.txt").write_text(text)
        out = runner.invoke(main, ["bench", str(corpus), "--format", "json"])
        assert out.exit_code == 0, out.output
        doc = json.loads(out.output)
        assert doc["all_pass"] is True
        assert [r["name"] for r in doc["rows"]] == sorted(r["name"] for r in doc["rows"])
        for row in doc["rows"]:
            # chains end fully refined: the block law pins new block count
            assert row["p_sim"] == row["states"]
            assert row["new_blocks"] == 2 * (row["p_sim"] - 1)

    def test_invariant_violation_exit_code(self, runner, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "ks_b.txt").write_text(KS_B_TEXT)
        monkeypatch.setattr(cli_mod, "compute_simulation", violate_invariant)
        out = runner.invoke(main, ["bench", str(corpus)])
        assert out.exit_code == 2
        assert "error: internal invariant violated: forced" in out.output
        assert out.exception is None or isinstance(out.exception, SystemExit)

    def test_missing_dir(self, runner):
        out = runner.invoke(main, ["bench", "nowhere"])
        assert out.exit_code == 1

    def test_file_not_utf8(self, runner, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a_ok.txt").write_text(KS_B_TEXT)
        bad = corpus / "b_latin1.txt"
        bad.write_bytes(b"states 1\n# caf\xe9\n")
        out = runner.invoke(main, ["bench", str(corpus)])
        assert out.exit_code == 1
        assert f"error: {bad}: line 2: not valid UTF-8" in out.output
        assert out.exception is None or isinstance(out.exception, SystemExit)
