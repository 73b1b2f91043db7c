"""Tests of the benchmark harness itself.

Run from the root of the repository:

    python3 -m pytest perfbench/tests

The end-to-end tests run ``certify`` for its minimum of three passes;
the whole file takes about two minutes.
"""

from __future__ import annotations

import gc
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from simrel import cli, compute_simulation  # noqa: E402


def bench(root: Path, *args: str):
    """Run the benchmark in ``root``; return the process and its result line."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=root,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def copy_checkout(dest: Path, with_sources: bool = True) -> Path:
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, dest / "perfbench", ignore=ignore)
    shutil.copy(ROOT / "BENCHMARK.json", dest / "BENCHMARK.json")
    if with_sources:
        shutil.copytree(ROOT / "src", dest / "src", ignore=ignore)
    return dest


def outputs_digest(proc) -> str:
    return next(ln for ln in proc.stdout.splitlines() if ln.startswith("outputs sha256="))


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_default_seed_reproduces_the_roadmap_instances():
    keys = [i.key for w in ("chain", "multilabel", "coarse") for i in workloads.instances(w, 0)]
    assert keys == [
        "chain(1024)",
        "random(1600,5,0.001875,seed=1)",
        "random(800,3,0.00375,seed=800)",
        "tree(14,2)",
        "random(400,3,0.3,seed=400)",
        "clique(200)",
    ]
    assert workloads.instances("certify", 7) == workloads.instances("certify", 7)
    assert workloads.instances("certify", 7) != workloads.instances("certify", 8)


def test_end_to_end_run_reports_every_metric_with_its_unit():
    proc, result = bench(ROOT, "--workload", "certify", "--seed", "0", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    # the minimum of three timed passes, and the memory worker's pass
    assert result["attempted"] == 4 * workloads.CERTIFY_INSTANCES
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs_report_every_layer_and_repeat_counts_exactly():
    args = ("--workload", "certify", "--seed", "3", "--seconds", "0.1", "--trace", "1")
    runs = [bench(ROOT, *args) for _ in range(2)]
    for proc, result in runs:
        assert proc.returncode == 0, proc.stderr
        assert result["correct"] is True
        assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.PER_LAYER)
        assert result["metrics"]["trace.coverage"]["value"] >= 95
    (first, a), (second, b) = runs
    assert outputs_digest(first) == outputs_digest(second)
    exact = [name for name, unit in run.PER_LAYER if unit in ("count", "bytes")]
    assert {k: a["metrics"][k]["value"] for k in exact} == {k: b["metrics"][k]["value"] for k in exact}
    assert a["metrics"]["engine.splits_total"]["value"] > 0


def test_certify_schedule_covers_every_size_and_density():
    specs = workloads.instances("certify", 5)
    assert len(specs) == workloads.CERTIFY_INSTANCES
    sizes = [spec.args[0] for spec in specs]
    assert sorted(set(sizes)) == list(range(1, workloads.CERTIFY_MAX_STATES + 1))
    assert {(spec.args[0], spec.args[2]) for spec in specs} >= {
        (n, p) for n in range(1, workloads.CERTIFY_MAX_STATES + 1) for p in workloads.CERTIFY_PROBS
    }
    assert [spec.args[:3] for spec in specs] == [spec.args[:3] for spec in workloads.instances("certify", 6)]


def test_probe_takes_its_slices_off_the_region_and_rescales_it():
    probe = speed.Probe()
    start = time.perf_counter()
    with probe.region() as region:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
    wall = time.perf_counter() - start
    assert len(region.slices) >= 3  # one at the start, then every PERIOD_S
    assert region.raw_s + sum(region.slices) == pytest.approx(wall, abs=0.01)
    mean_slice = sum(region.slices) / len(region.slices)
    assert region.scaled_s == pytest.approx(region.raw_s * speed.REFERENCE_S / mean_slice)


def test_probe_slice_never_starts_the_cyclic_collector():
    collections = []

    def count(phase, info):
        collections.append(phase)

    gc.collect()
    gc.callbacks.append(count)
    try:
        for _ in range(20):
            speed.work_slice()
    finally:
        gc.callbacks.remove(count)
    assert collections == []


def test_corrupted_digest_fails(tmp_path):
    root = copy_checkout(tmp_path)
    digests = root / "perfbench" / "digests.json"
    stored = json.loads(digests.read_text())
    stored["passes"]["certify(seed=0)"] = "0" * 64
    digests.write_text(json.dumps(stored))
    proc, result = bench(root, "--workload", "certify", "--seed", "0", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] == result["attempted"]
    assert "pass digest" in proc.stderr


def test_corrupted_result_fails(tmp_path):
    root = copy_checkout(tmp_path)
    cli_py = root / "src" / "simrel" / "cli.py"
    text = cli_py.read_text()
    broken = text.replace("for p in result.order_pairs()]", "for p in result.order_pairs()][1:]")
    assert broken != text
    cli_py.write_text(broken)
    proc, result = bench(root, "--workload", "certify", "--seed", "0", "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1
    assert "pass digest" in proc.stderr


def test_without_sources_fails_without_a_result(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    proc, result = bench(root, "--workload", "chain", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode not in (0, 1)
    assert result is None


@pytest.mark.parametrize(
    "inst",
    [
        workloads.Instance("chain", (9,)),
        workloads.Instance("tree", (3, 2)),
        workloads.Instance("clique", (5,)),
        workloads.Instance("random", (30, 2, 0.2, 3)),
    ],
    ids=lambda inst: inst.key,
)
def test_reference_check_accepts_simrel_and_rejects_a_changed_document(inst):
    ks = workloads.generate(inst)
    result, _ = compute_simulation(ks)
    document = cli._report_json(result, None)
    assert workloads.reference_error(inst, ks, document) is None
    doc = json.loads(document)
    if doc["order"]:
        doc["order"].pop()
    else:
        doc["partition"] = [[s] for block in doc["partition"] for s in block]
    assert workloads.reference_error(inst, ks, json.dumps(doc)) is not None
