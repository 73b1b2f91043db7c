"""Record the digests that every benchmark run compares its outputs with.

Usage, from the root of the repository:

    python3 perfbench/record_digests.py --seeds 0-31
    python3 perfbench/record_digests.py --seeds 0-31 --workloads certify

Each output is confirmed before its digest is stored: chains, trees and
cliques against their closed form, random structures against
``brute_force_simulation`` (see ``workloads.reference_error``), and each
``certify`` pass by its own oracle comparison and counter laws. A digest
already in ``digests.json`` that disagrees with a confirmed output is an
error; nothing is written then. Re-record only when the ``compute
--format json`` output is meant to change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import passes  # noqa: E402
import workloads  # noqa: E402
from run import DIGESTS  # noqa: E402
from worker import combine  # noqa: E402


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("0"))
    p.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS, default=workloads.WORKLOADS)
    args = p.parse_args(argv)

    stored = json.loads(DIGESTS.read_text())
    fresh: dict[str, dict[str, str]] = {"instances": {}, "passes": {}}
    errors = []
    for workload in args.workloads:
        for seed in args.seeds:
            specs = workloads.instances(workload, seed)
            todo = [s for s in specs if s.key not in fresh["instances"]]
            if workload != "certify" and not todo:
                continue
            structures = [workloads.generate(s) for s in specs]
            outcomes = passes.PASSES[workload](structures)
            for spec, ks, outcome in zip(specs, structures, outcomes):
                error = outcome.error
                if error is None and workload != "certify":  # certify ran its oracle already
                    error = workloads.reference_error(spec, ks, outcome.document)
                if error:
                    errors.append(f"{spec.key}: {error}")
            if workload == "certify":
                if None not in (o.digest for o in outcomes):
                    fresh["passes"][f"certify(seed={seed})"] = combine(o.digest for o in outcomes)
            else:
                for spec, outcome in zip(specs, outcomes):
                    fresh["instances"][spec.key] = outcome.digest
            print(f"{workload} seed={seed}: {len(specs)} instances confirmed", flush=True)
    for table in ("instances", "passes"):
        for key, digest in fresh[table].items():
            old = stored[table].get(key)
            if old is not None and old != digest:
                errors.append(f"{key}: stored digest {old} differs from confirmed {digest}")
    if errors:
        for line in errors:
            print(f"FAIL {line}", file=sys.stderr)
        return 1
    for table in ("instances", "passes"):
        stored[table].update(fresh[table])
        stored[table] = dict(sorted(stored[table].items()))
    DIGESTS.write_text(json.dumps(stored, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
