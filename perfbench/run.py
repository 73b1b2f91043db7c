"""simrel benchmark: one workload, measured end to end or traced per layer.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload chain --seed 0 --seconds 20 --trace 0

The inputs are generated here, once, from ``--seed``. Every measurement
runs in a fresh worker process (``worker.py``) that imports simrel from
this checkout's ``src``: a few workers only time set-up, then one worker
runs passes for ``--seconds``, and one more runs a single pass and
reports its own peak RSS. Times are
reported rescaled to a reference machine speed that is sampled during
the timed work (``speed.py``); the raw times are printed beside them. With
``--trace 1`` the worker runs traced passes instead and the per-layer
metrics are printed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 when every output was correct, 1 when some output was wrong, and 2
when the benchmark could not run at all (no simrel sources, a worker
crashed or ran out of time); then no JSON line is printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from worker import combine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"

# the run has to end within 180 s; keep a margin for the parent itself
DEADLINE_S = 165.0
# set-up is timed in this many fresh processes (the workers that run the
# passes and the memory pass are two of them), after one untimed process
# that fills the bytecode cache; half of them run after the passes, so
# that the samples spread over the run, as machine speed drifts
SETUP_SAMPLES = 7

END_TO_END = (
    ("scaled_pass_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)

PER_LAYER = (
    ("engine.run.self_s", "s"),
    ("engine.initialize.self_s", "s"),
    ("engine.pstabilize.self_s", "s"),
    ("engine.pstabilize.calls", "count"),
    ("engine.find_prefiner.self_s", "s"),
    ("engine.find_prefiner.calls", "count"),
    ("engine.find_prefiner.hits", "count"),
    ("engine.post_candidates.calls", "count"),
    ("engine.pre_up_set.self_s", "s"),
    ("engine.pre_up_set.calls", "count"),
    ("engine.update_rel.self_s", "s"),
    ("engine.update_bcount.self_s", "s"),
    ("engine.update_pre_e.self_s", "s"),
    ("engine.update_count.self_s", "s"),
    ("engine.update_rem.self_s", "s"),
    ("engine.rstabilize.self_s", "s"),
    ("engine.rstabilize.calls", "count"),
    ("engine.recompute_tables.self_s", "s"),
    ("engine.check_is_simulation_pr.self_s", "s"),
    ("prcore.init_pr.self_s", "s"),
    ("prcore.split.self_s", "s"),
    ("prcore.split.calls", "count"),
    ("prcore.split.splitter_states", "count"),
    ("prcore.split.blocks_cut", "count"),
    ("prcore.add_block_entries.self_s", "s"),
    ("prcore.extract_result.self_s", "s"),
    ("prcore.order_pairs.self_s", "s"),
    ("prcore.state_matrix.self_s", "s"),
    ("kripke.parse_ks.self_s", "s"),
    ("kripke.parse_ks.lines", "count"),
    ("cli.render_json.self_s", "s"),
    ("cli.render_json.bytes", "bytes"),
    ("oracle.brute_force_simulation.self_s", "s"),
    ("instrument.assert_block_bound.self_s", "s"),
    ("instrument.assert_smaller_half_bound.self_s", "s"),
    ("instrument.assert_remove_disjointness.self_s", "s"),
    ("engine.splits_total", "count"),
    ("engine.pairs_removed_total", "count"),
    ("engine.remove_elements_total", "count"),
    ("engine.smaller_half_total_scans", "count"),
    ("instance.states", "count"),
    ("instance.transitions", "count"),
    ("instance.p_sim", "count"),
    ("trace.coverage", "%"),
    ("trace.overhead", "%"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def build_job(workload: str, seed: int, seconds: float) -> dict:
    """Generate the inputs and attach the stored digests."""
    from simrel import kripke

    stored = json.loads(DIGESTS.read_text())
    instances = []
    for inst in workloads.instances(workload, seed):
        instances.append(
            {
                "key": inst.key,
                "kind": inst.kind,
                "args": list(inst.args),
                "text": kripke.serialize_ks(workloads.generate(inst)),
                "digest": stored["instances"].get(inst.key),
            }
        )
    return {
        "src": str(SRC),
        "workload": workload,
        "seconds": seconds,
        "instances": instances,
        "pass_digest": stored["passes"].get(f"{workload}(seed={seed})"),
    }


def run_worker(job: dict, mode: str, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(dict(job, mode=mode)).encode(),
            stdout=subprocess.PIPE,
            timeout=remaining,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed nothing")
    return json.loads(lines[-1])


def quartiles(values):
    """(25th percentile, median, 75th percentile)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def report_errors(errors) -> None:
    for line in errors[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    if len(errors) > 20:
        print(f"... and {len(errors) - 20} more failures", file=sys.stderr)


def measure(job, deadline) -> tuple[dict, dict]:
    run_worker(job, "setup", deadline)  # fills the bytecode cache, untimed
    before = (SETUP_SAMPLES - 1) // 2
    setups = [run_worker(job, "setup", deadline) for _ in range(before)]
    out = run_worker(job, "measure", deadline)
    mem = run_worker(job, "memory", deadline)
    setups += [out, mem]
    setups += [run_worker(job, "setup", deadline) for _ in range(SETUP_SAMPLES - 2 - before)]
    for key in ("attempted", "failed", "errors"):
        out[key] += mem[key]
    report_errors(out["errors"])

    rows = [
        ("scaled_pass_s", "s", out["scaled_pass_s"]),
        ("setup_s", "s", [s["scaled_setup_s"] for s in setups]),
        ("peak_rss_mb", "MiB", [mem["peak_rss_mib"]]),
        ("raw_pass_s", "s", out["pass_s"]),
        ("raw_setup_s", "s", [s["setup_s"] for s in setups]),
        ("slice_s", "s", out["slice_s"]),
    ]
    print(f"{'metric':<14} {'median':>12} {'p25':>12} {'p75':>12} {'samples':>8}  unit")
    metrics = {}
    for name, unit, values in rows:
        q1, med, q3 = quartiles(values)
        print(f"{name:<14} {med:>12.6f} {q1:>12.6f} {q3:>12.6f} {len(values):>8}  {unit}")
        if name in dict(END_TO_END):
            metrics[name] = {"value": med, "unit": unit}
    if job["workload"] != "certify":
        for inst, samples in zip(job["instances"], out["instance_s"]):
            print(f"  {inst['key']:<34} median {statistics.median(samples):>10.6f} s raw, slices included")
    ratio = out["failed"] / out["attempted"]
    print(f"{'fail_ratio':<14} {ratio:>12.6f} {'':>12} {'':>12} {out['attempted']:>8}  ratio"
          f"  ({out['failed']} of {out['attempted']} instance runs failed)")
    return out, metrics


def trace(job, deadline) -> tuple[dict, dict]:
    out = run_worker(job, "trace", deadline)
    report_errors(out["errors"])
    for name in out["missing"]:
        print(f"warning: simrel has no {name}; its metrics read 0", file=sys.stderr)
    values = dict(out["per_pass"])
    for name, value in out["counters"].items():
        values[f"engine.{name}"] = value
    values["instance.states"] = out["states"]
    values["instance.transitions"] = out["transitions"]
    values["instance.p_sim"] = out["p_sim"]
    values["trace.coverage"] = 100.0 * out["coverage"]
    traced = statistics.median(out["traced_s"])
    untraced = statistics.median(out["untraced_s"])
    values["trace.overhead"] = 100.0 * (traced / untraced - 1)
    print(f"median pass {untraced:.6f} s untraced ({len(out['untraced_s'])} passes), "
          f"{traced:.6f} s traced ({len(out['traced_s'])} passes); values are per pass")
    metrics = {}
    for name, unit in PER_LAYER:
        value = values.get(name, 0)
        print(f"{name:<46} {value:>18.6f}  {unit}" if unit in ("s", "%") else f"{name:<46} {value:>18.1f}  {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return out, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "simrel" / "__init__.py").is_file():
        print(f"perfbench: no simrel sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        job = build_job(args.workload, args.seed, args.seconds)
        print(f"workload={args.workload} seed={args.seed} instances={len(job['instances'])} "
              f"seconds={args.seconds} trace={args.trace}")
        out, metrics = (trace if args.trace else measure)(job, deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if None not in out["digests"]:
        print(f"outputs sha256={combine(out['digests'])}")
    correct = out["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
