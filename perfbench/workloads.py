"""The benchmark workloads: seeded instances and their reference checks.

Every instance is named by the generator call that builds it, for example
``random(1600,5,0.001875,seed=1)``. Stored digests are keyed by that name,
so a digest never depends on which workload or bench seed produced it.

Seed mapping: an instance drawn from ``generate_random_ks`` gets the seed
listed in ``ROADMAP.md`` plus the bench seed, so bench seed 0 reproduces
the ROADMAP baseline instances exactly. Chains, trees and cliques have no
seed. ``certify`` covers the ranges of ``simrel verify --random`` on a
fixed schedule of sizes, label counts and densities, and draws only each
structure's generator seed from ``random.Random(bench seed)``: the
oracle's cost grows steeply with size and density, and drawing those too
made the work of a pass differ by up to 20% from seed to seed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

WORKLOADS = ("chain", "multilabel", "coarse", "certify")

CERTIFY_MAX_STATES = 48
CERTIFY_PER_SIZE = 8
CERTIFY_PROBS = (0.1, 0.3, 0.6)
CERTIFY_INSTANCES = CERTIFY_MAX_STATES * CERTIFY_PER_SIZE


@dataclass(frozen=True)
class Instance:
    """One structure of a workload, as the generator call that builds it."""

    kind: str  # "chain", "tree", "clique" or "random"
    args: tuple

    @property
    def key(self) -> str:
        if self.kind == "random":
            n, labels, prob, seed = self.args
            return f"random({n},{labels},{prob!r},seed={seed})"
        return f"{self.kind}({','.join(str(a) for a in self.args)})"


def instances(workload: str, seed: int) -> list[Instance]:
    """The instances of ``workload`` for bench seed ``seed``."""
    if workload == "chain":
        return [Instance("chain", (1024,))]
    if workload == "multilabel":
        return [
            Instance("random", (1600, 5, 3 / 1600, 1 + seed)),
            Instance("random", (800, 3, 3 / 800, 800 + seed)),
        ]
    if workload == "coarse":
        return [
            Instance("tree", (14, 2)),
            Instance("random", (400, 3, 0.3, 400 + seed)),
            Instance("clique", (200,)),
        ]
    if workload == "certify":
        # every size 1..48 CERTIFY_PER_SIZE times; densities and label
        # counts (1 to 3) rotate, so that each size meets each density
        rng = random.Random(seed)
        out = []
        for n in range(1, CERTIFY_MAX_STATES + 1):
            for k in range(CERTIFY_PER_SIZE):
                prob = CERTIFY_PROBS[(n + k) % 3]
                labels = 1 + (n + 2 * k) % 3
                out.append(Instance("random", (n, labels, prob, rng.randrange(2**32))))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def generate(inst: Instance):
    """Build the structure with simrel's own generators."""
    from simrel import kripke

    if inst.kind == "chain":
        return kripke.make_chain(*inst.args)
    if inst.kind == "tree":
        return kripke.make_tree(*inst.args)
    if inst.kind == "clique":
        return kripke.make_clique(*inst.args)
    return kripke.generate_random_ks(*inst.args)


def expected_document(inst: Instance, ks) -> dict:
    """The ``compute --format json`` document the instance must produce.

    Chains and complete trees have a closed form: state ``i`` of a chain,
    and every node at depth ``i`` of a tree, can still make exactly
    ``depth - i`` moves, and an unlabeled state is simulated by every
    state that can make at least as many. So the blocks are the states
    (chain) or the levels (tree), and block ``i`` lies below every block
    ``j < i``. A clique is one block. Random structures are checked
    against ``brute_force_simulation``.
    """
    from simrel import oracle

    if inst.kind in ("chain", "tree"):
        if inst.kind == "chain":
            partition = [[s] for s in range(ks.num_states)]
        else:
            depth, branching = inst.args
            partition, first = [], 0
            for level in range(depth + 1):
                width = branching**level
                partition.append(list(range(first, first + width)))
                first += width
        order = [[i, j] for i in range(len(partition)) for j in range(i)]
    elif inst.kind == "clique":
        partition, order = [list(range(ks.num_states))], []
    else:
        partition, leq = oracle.simulation_partition(oracle.brute_force_simulation(ks))
        k = len(partition)
        order = [[i, j] for i in range(k) for j in range(k) if i != j and leq[i][j]]
    return {"partition": partition, "order": order, "stats": None}


def reference_error(inst: Instance, ks, document: str) -> str | None:
    """Why ``document`` is not the instance's correct output, or None."""
    try:
        got = json.loads(document)
    except ValueError as exc:
        return f"{inst.key}: document is not JSON: {exc}"
    want = expected_document(inst, ks)
    for field in ("partition", "order", "stats"):
        if got.get(field) != want[field]:
            return f"{inst.key}: {field} differs from the reference"
    if set(got) != set(want):
        return f"{inst.key}: document keys {sorted(got)} differ from the reference"
    return None
