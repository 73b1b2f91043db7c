"""Command line surface.

Exit codes: 0 ok, 1 input error, 2 invariant or bound violation,
3 oracle mismatch (always an implementation bug, never accepted).
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

import click

from .engine import EngineConfig, InvariantViolation, compute_simulation
from .instrument import (
    assert_block_bound,
    assert_remove_disjointness,
    assert_smaller_half_bound,
)
from .kripke import (
    KSFormatError,
    KripkeStructure,
    generate_random_ks,
    initial_label_partition,
    make_chain,
    make_clique,
    make_tree,
    parse_ks,
    serialize_ks,
)
from .oracle import brute_force_simulation

ORACLE_STATE_CAP = 64


def _load_ks(path: str) -> KripkeStructure:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        click.echo(f"error: cannot open {path}: {exc.strerror}", err=True)
        sys.exit(1)
    try:
        return parse_ks(text)
    except KSFormatError as exc:
        click.echo(f"error: {path}: {exc}", err=True)
        sys.exit(1)


def _report_text(result, stats) -> str:
    lines = []
    for i, members in enumerate(result.partition):
        lines.append(f"block {i}: {{{', '.join(str(s) for s in members)}}}")
    for i, j in result.order_pairs():
        lines.append(f"order: {i} ⊴ {j}")
    if stats is not None:
        lines.append(stats.to_text())
    return "\n".join(lines) + "\n"


def _report_json(result, stats) -> str:
    doc = {
        "partition": [list(b) for b in result.partition],
        "order": [list(p) for p in result.order_pairs()],
        "stats": stats.to_dict() if stats is not None else None,
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@click.group()
def main():
    """Simulation preorder and equivalence on finite Kripke structures."""


@main.command()
@click.argument("input_path", metavar="FILE")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--stats", "with_stats", is_flag=True, help="Include run counters.")
@click.option("--check", type=click.Choice(["off", "cheap", "full"]), default="off")
def compute(input_path, fmt, with_stats, check):
    """Compute the simulation partition and block order of FILE."""
    ks = _load_ks(input_path)
    cfg = EngineConfig(check_level=check, stats_enabled=with_stats)
    try:
        result, stats = compute_simulation(ks, cfg)
    except InvariantViolation as exc:
        click.echo(f"error: internal invariant violated: {exc}", err=True)
        sys.exit(2)
    shown = stats if with_stats else None
    out = _report_text(result, shown) if fmt == "text" else _report_json(result, shown)
    click.echo(out, nl=False)


def _verify_one(ks: KripkeStructure) -> tuple[int, int] | None:
    """Return the first differing state pair, or None when relations match."""
    result, _ = compute_simulation(ks)
    engine_rows = result.state_matrix()
    oracle_rows = brute_force_simulation(ks).matrix
    for s in range(ks.num_states):
        if engine_rows[s] != oracle_rows[s]:
            for t in range(ks.num_states):
                if engine_rows[s][t] != oracle_rows[s][t]:
                    return (s, t)
    return None


@main.command()
@click.argument("input_path", metavar="[FILE]", required=False)
@click.option("--random", "random_count", type=int, default=None, metavar="N",
              help="Verify N pseudo-random structures instead of a file.")
@click.option("--max-states", type=int, default=8, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def verify(input_path, random_count, max_states, seed):
    """Check engine output against the brute-force reference."""
    # (name, structure, command that regenerates it or None)
    instances: list[tuple[str, KripkeStructure, str | None]] = []
    if random_count is not None:
        if random_count < 1 or max_states < 1:
            click.echo("error: --random and --max-states must be positive", err=True)
            sys.exit(1)
        rng = random.Random(seed)
        for i in range(random_count):
            n = rng.randint(1, max_states)
            labels = rng.randint(1, 3)
            prob = rng.choice([0.1, 0.3, 0.6])
            ks_seed = rng.randrange(2**32)
            instances.append(
                (
                    f"random[{i}]",
                    generate_random_ks(n, labels, prob, ks_seed),
                    f"simrel generate random {n} {labels} {prob} --seed {ks_seed}",
                )
            )
    elif input_path is not None:
        instances.append((input_path, _load_ks(input_path), None))
    else:
        click.echo("error: give a FILE or --random N", err=True)
        sys.exit(1)

    for name, ks, replay in instances:
        if ks.num_states > ORACLE_STATE_CAP:
            click.echo(
                f"error: {name}: {ks.num_states} states exceeds the "
                f"oracle cap of {ORACLE_STATE_CAP}",
                err=True,
            )
            sys.exit(1)
        mismatch = _verify_one(ks)
        if mismatch is not None:
            s, t = mismatch
            line = f"FAIL {name}: first differing state pair ({s}, {t})"
            if replay is not None:
                line += f"; replay with: {replay}"
            click.echo(line)
            sys.exit(3)
    click.echo(f"PASS: {len(instances)} instance(s) match the reference")


@main.command()
@click.argument("kind", type=click.Choice(["random", "chain", "tree", "clique"]))
@click.argument("params", nargs=-1)
@click.option("--seed", type=int, default=0, show_default=True)
def generate(kind, params, seed):
    """Emit a structure in the KS text format on standard output.

    Parameter shapes: random N LABELS PROB; chain N; tree DEPTH BRANCHING;
    clique N.
    """
    try:
        if kind == "random":
            n, labels, prob = int(params[0]), int(params[1]), float(params[2])
            ks = generate_random_ks(n, labels, prob, seed)
        elif kind == "chain":
            ks = make_chain(int(params[0]))
        elif kind == "tree":
            ks = make_tree(int(params[0]), int(params[1]))
        else:
            ks = make_clique(int(params[0]))
    except (IndexError, ValueError) as exc:
        click.echo(f"error: invalid parameters for {kind}: {exc}", err=True)
        sys.exit(1)
    click.echo(serialize_ks(ks), nl=False)


@main.command()
@click.argument("corpus_dir", metavar="DIR")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
def bench(corpus_dir, fmt):
    """Run every file in DIR and report sizes, counters, and bound checks.

    Exits 2 if any counter bound fails. Wall times are informational only.
    """
    root = Path(corpus_dir)
    if not root.is_dir():
        click.echo(f"error: cannot open {corpus_dir}: not a directory", err=True)
        sys.exit(1)
    rows = []
    all_ok = True
    for path in sorted(p for p in root.iterdir() if p.is_file()):
        ks = _load_ks(str(path))
        cfg = EngineConfig(stats_enabled=True)
        started = time.perf_counter()
        result, stats = compute_simulation(ks, cfg)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        p_ell = len(initial_label_partition(ks))
        p_sim = len(result.partition)
        ok_blocks = assert_block_bound(stats, p_ell, p_sim)
        ok_half = assert_smaller_half_bound(stats, ks.num_states)
        ok_disjoint = assert_remove_disjointness(stats.remove_trace)
        all_ok = all_ok and ok_blocks and ok_half and ok_disjoint
        rows.append(
            {
                "name": path.name,
                "states": ks.num_states,
                "transitions": ks.num_transitions,
                "p_sim": p_sim,
                "splits": stats.splits_total,
                "new_blocks": stats.new_blocks_total,
                "ms": round(elapsed_ms, 3),
                "block_law": ok_blocks,
                "half_law": ok_half,
                "disjoint_law": ok_disjoint,
            }
        )
    if fmt == "json":
        click.echo(json.dumps({"rows": rows, "all_pass": all_ok}, indent=2))
    else:
        header = (
            f"{'name':<24} {'states':>7} {'trans':>8} {'p_sim':>6} "
            f"{'splits':>7} {'new':>5} {'ms':>10} {'laws':>5}"
        )
        click.echo(header)
        for r in rows:
            laws = "ok" if r["block_law"] and r["half_law"] and r["disjoint_law"] else "FAIL"
            click.echo(
                f"{r['name']:<24} {r['states']:>7} {r['transitions']:>8} "
                f"{r['p_sim']:>6} {r['splits']:>7} {r['new_blocks']:>5} "
                f"{r['ms']:>10.3f} {laws:>5}"
            )
    if not all_ok:
        sys.exit(2)


if __name__ == "__main__":
    main()
