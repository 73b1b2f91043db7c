"""A fresh process that plays one simrel user: set up, then run passes.

Reads a JSON job on standard input and prints one JSON object as its
last line of output. The job carries the instance texts, so generating
inputs never happens here. Modes:

* ``setup``: import simrel and parse the texts, report the seconds taken,
  raw and rescaled to the reference speed (see ``speed.py``);
* ``measure``: set up, then run passes for about ``seconds``, at least
  ``MIN_PASSES``; report every pass time, raw and rescaled, the speed
  samples, the digests and failures;
* ``memory``: set up as ``setup`` does, then run one pass without speed
  samples, whose ``SIGALRM`` handlers would shift when the cyclic
  collector runs and so the peak; report the peak RSS of this process;
* ``trace``: set up, run one untraced pass, one untimed stats-on pass
  with the counter laws, then traced and untraced passes in turn for
  about ``seconds``; report per-layer self times and counts per pass.

Run by ``run.py``; not meant to be started by hand.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import speed

# a median needs a few samples even when one pass outlasts --seconds
MIN_PASSES = 3


def _setup(job, probe):
    """Time importing simrel and parsing every text, in this fresh process;
    return the structures and the timed ``speed.Region``."""
    texts = [inst["text"] for inst in job["instances"]]
    with probe.region() as setup:
        import simrel
        import simrel.cli  # noqa: F401  (the pass renders through it)

        structures = [simrel.parse_ks(text) for text in texts]
    src = Path(job["src"]).resolve()
    if src not in Path(simrel.__file__).resolve().parents:
        raise SystemExit(f"simrel was imported from {simrel.__file__}, not from {src}")
    return structures, setup


class Checker:
    """Counts instance runs and the ones that failed, each failure once.

    Every pass's documents are compared with the expected digests. An
    instance without a stored digest expects the digest of its first
    pass, and its output is checked against the reference once after the
    passes (see ``workloads.reference_error``); a wrong output then fails
    all its runs. A workload may also store one digest over a whole pass
    (``pass_digest``); a pass that misses it fails on every instance.
    """

    def __init__(self, job):
        self.instances = job["instances"]
        self.expected = [inst["digest"] for inst in self.instances]
        self.pass_digest = job["pass_digest"]
        self.oracle_in_pass = job["workload"] == "certify"
        self.passes = 0
        self.failures: set[tuple[int, int]] = set()  # (pass, instance)
        self.errors: list[str] = []

    @property
    def attempted(self) -> int:
        return self.passes * len(self.instances)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def fail(self, runs, message: str) -> None:
        self.failures.update(runs)
        self.errors.append(message)

    def check(self, outcomes, documents: bool = True) -> None:
        """Record one pass; ``documents`` is False for the stats-on pass."""
        p = self.passes
        self.passes += 1
        digests = [o.digest for o in outcomes]
        for i, (inst, outcome) in enumerate(zip(self.instances, outcomes)):
            error = outcome.error
            if error is None and documents:
                if digests[i] is None:
                    error = "no document"
                elif self.expected[i] is None:
                    self.expected[i] = digests[i]
                elif digests[i] != self.expected[i]:
                    error = f"digest {digests[i]} differs from the expected {self.expected[i]}"
            if error is not None:
                self.fail({(p, i)}, f"{inst['key']}: {error}")
        if documents and self.pass_digest is not None and None not in digests:
            combined = combine(digests)
            if combined != self.pass_digest:
                self.fail(
                    {(p, i) for i in range(len(outcomes))},
                    f"pass digest {combined} differs from the stored {self.pass_digest}",
                )

    def check_reference(self, structures, outcomes) -> None:
        """Closed forms for chains, trees and cliques; brute force for
        random structures that have no stored digest and were not already
        compared with the oracle inside the pass."""
        import workloads

        for i, (inst, ks, outcome) in enumerate(zip(self.instances, structures, outcomes)):
            if outcome.document is None:
                continue
            if inst["kind"] == "random" and (inst["digest"] is not None or self.oracle_in_pass):
                continue
            spec = workloads.Instance(inst["kind"], tuple(inst["args"]))
            error = workloads.reference_error(spec, ks, outcome.document)
            if error is not None:
                self.fail({(p, i) for p in range(self.passes)}, error)


def combine(digests) -> str:
    """One digest over a pass: sha256 of the instance digests, one a line."""
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def _more_passes(times, started: float, seconds: float, minimum: int) -> bool:
    """At least ``minimum`` passes, then one more only while it should end
    within ``seconds`` of ``started``, judged by the median pass so far."""
    if len(times) < minimum:
        return True
    return time.perf_counter() - started + sorted(times)[len(times) // 2] <= seconds


def _timed_pass(run_pass, structures):
    # a CLI user computes in a fresh process, so no pass should pay for, or
    # hold at its peak, the cyclic garbage that the previous pass left
    gc.collect()
    start = time.perf_counter()
    outcomes = run_pass(structures)
    return time.perf_counter() - start, outcomes


def _probed_pass(run_pass, structures, probe):
    """``_timed_pass`` with the machine's speed sampled during the pass."""
    gc.collect()
    with probe.region() as region:
        outcomes = run_pass(structures)
    return region, outcomes


def measure(job) -> dict:
    probe = speed.Probe()
    structures, setup = _setup(job, probe)
    import passes

    run_pass = passes.PASSES[job["workload"]]
    checker = Checker(job)
    times, scaled = [], []
    instance_s = [[] for _ in structures]
    outcomes = None
    started = time.perf_counter()
    while _more_passes(times, started, job["seconds"], MIN_PASSES):
        outcomes = None  # free the previous pass before the next one runs
        region, outcomes = _probed_pass(run_pass, structures, probe)
        times.append(region.raw_s)
        scaled.append(region.scaled_s)
        for samples, outcome in zip(instance_s, outcomes):
            samples.append(outcome.seconds)
        checker.check(outcomes)
    checker.check_reference(structures, outcomes)
    return {
        "setup_s": setup.raw_s,
        "scaled_setup_s": setup.scaled_s,
        "pass_s": times,
        "scaled_pass_s": scaled,
        "slice_s": probe.samples,
        "instance_s": instance_s,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
        "digests": checker.expected,
    }


def _peak_rss_mib() -> float:
    """The peak resident set of this process, in MiB.

    On Linux ``ru_maxrss`` also holds the peak of the process that started
    this one, as it was at the exec, so a large ``run.py`` would set a
    floor under it; the high-water mark in ``/proc/self/status`` belongs
    to this process alone. Elsewhere ``ru_maxrss`` is the fallback.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def memory(job) -> dict:
    structures, setup = _setup(job, speed.Probe())
    import passes

    checker = Checker(job)
    _, outcomes = _timed_pass(passes.PASSES[job["workload"]], structures)
    checker.check(outcomes)
    return {
        "setup_s": setup.raw_s,
        "scaled_setup_s": setup.scaled_s,
        "peak_rss_mib": _peak_rss_mib(),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
    }


def trace(job) -> dict:
    """Per-layer self times and counts, each per pass of the workload.

    Two tracers keep what runs once apart from what runs every traced
    pass: ``once`` sees the traced parse and, outside ``certify``, the
    counter laws of the stats-on pass; ``layers`` sees the traced passes
    and is divided by their number.
    """
    texts = [inst["text"] for inst in job["instances"]]
    structures, _ = _setup(job, speed.Probe())
    import passes
    import tracer

    run_pass = passes.PASSES[job["workload"]]
    checker = Checker(job)

    untraced_s, outcomes = _timed_pass(run_pass, structures)
    checker.check(outcomes)
    checker.check_reference(structures, outcomes)
    p_sim = sum(o.p_sim for o in outcomes)

    once = tracer.Tracer()
    once.install(prefixes=("kripke.parse_ks", "instrument."))
    try:
        from simrel import kripke

        for text in texts:
            kripke.parse_ks(text)
        counted = outcomes
        if not checker.oracle_in_pass:
            # certify's own pass already runs with stats and checks the laws
            counted = passes.stats_pass(structures)
            checker.check(counted, documents=False)
    finally:
        once.uninstall()
    counters = {
        name: sum((o.counts or {}).get(name, 0) for o in counted) for name in passes.COUNTERS
    }

    # traced passes alternate with untraced ones, so that the overhead
    # compares passes that ran under the same machine load
    layers = tracer.Tracer()
    untraced, traced, rounds = [untraced_s], [], []
    started = time.perf_counter()
    while _more_passes(rounds, started, job["seconds"], 1):
        layers.install()
        try:
            elapsed, outcomes = _timed_pass(run_pass, structures)
        finally:
            layers.uninstall()
        traced.append(elapsed)
        checker.check(outcomes)
        outcomes = None
        elapsed, outcomes = _timed_pass(run_pass, structures)
        untraced.append(elapsed)
        checker.check(outcomes)
        rounds.append(traced[-1] + elapsed)

    n = len(traced)
    per_pass = {}
    for source, share in ((once, 1), (layers, n)):
        for table, suffix in ((source.self_s, ".self_s"), (source.counts, "")):
            for name, value in table.items():
                key = name + suffix
                per_pass[key] = per_pass.get(key, 0) + value / share
    run_total = layers.total_s.get("engine.run", 0.0)
    return {
        "untraced_s": untraced,
        "traced_s": traced,
        "per_pass": per_pass,
        "coverage": 1 - layers.self_s["engine.run"] / run_total if run_total else 0.0,
        "missing": sorted(set(once.missing + layers.missing)),
        "counters": counters,
        "states": sum(ks.num_states for ks in structures),
        "transitions": sum(ks.num_transitions for ks in structures),
        "p_sim": p_sim,
        "digests": checker.expected,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "errors": checker.errors,
    }


def main() -> None:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    mode = job["mode"]
    if mode == "setup":
        setup = _setup(job, speed.Probe())[1]
        out = {"setup_s": setup.raw_s, "scaled_setup_s": setup.scaled_s}
    elif mode == "measure":
        out = measure(job)
    elif mode == "memory":
        out = memory(job)
    else:
        out = trace(job)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
