import json

import pytest
from click.testing import CliRunner

import simrel.cli as cli_mod
from simrel.cli import main
from simrel.kripke import MAX_STATES, parse_ks
from simrel.prcore import SimulationResult

KS_A_TEXT = "states 3\nlabel 0 a\nlabel 1 a\nlabel 2 b\ntrans 0 2\ntrans 1 2\ntrans 2 2\n"
KS_B_TEXT = "states 2\nlabel 0 a\nlabel 1 a\ntrans 0 0\n"


def claim_all_equivalent(ks, cfg=None):
    """A corrupted engine: every state simulates every other."""
    result = SimulationResult((tuple(range(ks.num_states)),), ((True,),))
    return result, None


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

    def test_stats_flag(self, runner, ks_files):
        out = runner.invoke(main, ["compute", "--stats", ks_files["b"]])
        assert out.exit_code == 0
        assert "new_blocks_total=2" in out.output

    def test_check_full(self, runner, ks_files):
        out = runner.invoke(main, ["compute", "--check", "full", ks_files["a"]])
        assert out.exit_code == 0

    def test_invariant_violation_exit_code(self, runner, ks_files, monkeypatch):
        from simrel.engine import InvariantViolation

        def broken(ks, cfg=None):
            raise InvariantViolation("forced for the test harness")

        monkeypatch.setattr(cli_mod, "compute_simulation", broken)
        out = runner.invoke(main, ["compute", "--check", "full", ks_files["a"]])
        assert out.exit_code == 2
        assert "invariant" in out.output

    def test_deterministic_bytes(self, runner, ks_files):
        outs = [
            runner.invoke(main, ["compute", "--format", "json", "--stats", ks_files["b"]]).output
            for _ in range(2)
        ]
        assert outs[0] == outs[1]


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

    def test_oracle_cap(self, runner, tmp_path):
        big = tmp_path / "big.txt"
        big.write_text("states 65\n")
        out = runner.invoke(main, ["verify", str(big)])
        assert out.exit_code == 1
        assert "cap" in out.output

    def test_requires_input(self, runner):
        out = runner.invoke(main, ["verify"])
        assert out.exit_code == 1

    def test_mutation_detected(self, runner, ks_files, monkeypatch):
        monkeypatch.setattr(cli_mod, "compute_simulation", claim_all_equivalent)
        out = runner.invoke(main, ["verify", ks_files["a"]])
        assert out.exit_code == 3
        assert "differing state pair" in out.output

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

    def test_missing_dir(self, runner):
        out = runner.invoke(main, ["bench", "nowhere"])
        assert out.exit_code == 1
