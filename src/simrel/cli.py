"""Command line surface.

Exit codes: 0 ok, 1 input error (a usage error included), 2 invariant
or bound violation, 3 oracle mismatch (always an implementation bug,
never accepted).
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import NoReturn

import click

from .engine import CHECK_LEVELS, EngineConfig, InvariantViolation, compute_simulation
from .instrument import (
    assert_block_bound,
    assert_remove_disjointness,
    assert_smaller_half_bound,
)
from .kripke import (
    KSFormatError,
    KripkeStructure,
    generate_random_ks,
    make_chain,
    make_clique,
    make_tree,
    parse_ks,
    serialize_ks,
)
from .oracle import brute_force_simulation
from .prcore import bits

ORACLE_STATE_CAP = 64

# number of parameters each ``generate`` kind takes
GENERATE_ARITY = {"random": 3, "chain": 1, "tree": 2, "clique": 1}


def _input_error(message: str) -> NoReturn:
    """Report bad input on stderr and exit with the input-error code."""
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


@contextmanager
def _usage_errors_as_input_errors():
    """Report a click usage error as an input error: click's own exit code
    for it, 2, is this CLI's code for a self-check failure."""
    try:
        yield
    except click.UsageError as exc:
        if exc.ctx is not None:
            click.echo(exc.ctx.get_usage(), err=True)
        _input_error(exc.format_message())


class _Main(click.Group):
    """The command group; its own and its commands' usage errors exit 1."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_as_input_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_as_input_errors():
            return super().invoke(ctx)


def _run_engine(ks: KripkeStructure, cfg: EngineConfig | None = None):
    """``compute_simulation``, with an engine self-check failure reported on
    stderr and turned into exit code 2."""
    try:
        return compute_simulation(ks, cfg)
    except InvariantViolation as exc:
        click.echo(f"error: internal invariant violated: {exc}", err=True)
        sys.exit(2)


def _load_ks(path: str) -> KripkeStructure:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        _input_error(f"cannot open {path}: {exc.strerror}")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        _input_error(f"{path}: line {line_no}: not valid UTF-8")
    try:
        return parse_ks(text)
    except KSFormatError as exc:
        _input_error(f"{path}: {exc}")


def _report_text(result, stats) -> str:
    """The blocks, then one ``order: i ⊴ j`` line per related pair.

    The order lines are written from ``result.rows``, one row at a time,
    with no list of pairs.
    """
    chunks = [
        f"block {i}: {{{', '.join(map(str, members))}}}\n"
        for i, members in enumerate(result.partition)
    ]
    for i, row in enumerate(result.rows):
        above = bits(row & ~(1 << i))
        if above:
            head = f"order: {i} ⊴ "
            chunks.append(head + f"\n{head}".join(map(str, above)) + "\n")
    if stats is not None:
        chunks.append(stats.to_text() + "\n")
    return "".join(chunks) or "\n"


def _json_list(items: list[str]) -> str:
    """A top-level list of already rendered, already indented items."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def _report_json(result, stats) -> str:
    r"""The bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``.

    The stdlib's indenting encoder is pure Python and builds a chunk per
    token, so the document is written from one template per order pair
    and per block instead; only the small ``stats`` object goes through
    ``json.dumps``.
    """
    # perfbench/tests/test_perfbench.py::test_corrupted_result_fails
    # corrupts the document by editing the text of this comprehension,
    # so it stays the expression that shapes the order list.
    order = ["    [\n      %d,\n      %d\n    ]" % p for p in result.order_pairs()]
    partition = [
        "    [\n      " + ",\n      ".join(map(str, members)) + "\n    ]"
        for members in result.partition
    ]
    if stats is None:
        stats_json = "null"
    else:
        stats_json = json.dumps(stats.to_dict(), indent=2, sort_keys=True).replace("\n", "\n  ")
    return (
        f'{{\n  "order": {_json_list(order)},\n  "partition": {_json_list(partition)},'
        f'\n  "stats": {stats_json}\n}}\n'
    )


@click.group(cls=_Main, no_args_is_help=False)
def main():
    """Simulation preorder and equivalence on finite Kripke structures."""


@main.command()
@click.argument("input_path", metavar="FILE")
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text")
@click.option("--stats", "with_stats", is_flag=True, help="Include run counters.")
@click.option("--check", type=click.Choice(CHECK_LEVELS), default="off")
def compute(input_path, fmt, with_stats, check):
    """Compute the simulation partition and block order of FILE."""
    ks = _load_ks(input_path)
    cfg = EngineConfig(check_level=check, stats_enabled=with_stats)
    result, stats = _run_engine(ks, cfg)
    shown = stats if with_stats else None
    out = _report_text(result, shown) if fmt == "text" else _report_json(result, shown)
    click.echo(out, nl=False)


def _verify_one(ks: KripkeStructure) -> tuple[int, int] | None:
    """Return the first differing state pair, the lowest s and then the
    lowest t, or None when the relations match.

    The engine runs every self-check of the ``full`` level, so that an
    empty refiner search is confirmed by a scan of every block.
    """
    result, _ = _run_engine(ks, EngineConfig(check_level="full"))
    rows = zip(result.state_matrix(), brute_force_simulation(ks).matrix, strict=True)
    for s, (mine, ref) in enumerate(rows):
        diff = mine ^ ref
        if diff:
            # t is the lowest set bit of the difference
            return (s, (diff & -diff).bit_length() - 1)
    return None


@main.command()
@click.argument("input_path", metavar="[FILE]", required=False)
@click.option("--random", "random_count", type=int, default=None, metavar="N",
              help="Verify N pseudo-random structures instead of a file.")
@click.option("--max-states", type=int, default=8, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def verify(input_path, random_count, max_states, seed):
    """Check engine output against the brute-force reference."""
    if random_count is not None and input_path is not None:
        _input_error("give a FILE or --random N, not both")
    if random_count is not None:
        if random_count < 1 or max_states < 1:
            _input_error("--random and --max-states must be positive")
        if max_states > ORACLE_STATE_CAP:
            _input_error(
                f"--max-states {max_states} exceeds the oracle cap of {ORACLE_STATE_CAP}"
            )
        instances = _random_instances(random_count, max_states, seed)
    elif input_path is not None:
        instances = [(input_path, _load_ks(input_path), None)]
    else:
        _input_error("give a FILE or --random N")

    checked = 0
    for name, ks, replay in instances:
        if ks.num_states > ORACLE_STATE_CAP:
            _input_error(
                f"{name}: {ks.num_states} states exceeds the "
                f"oracle cap of {ORACLE_STATE_CAP}"
            )
        mismatch = _verify_one(ks)
        if mismatch is not None:
            s, t = mismatch
            line = f"FAIL {name}: first differing state pair ({s}, {t})"
            if replay is not None:
                line += f"; replay with: {replay}"
            click.echo(line)
            sys.exit(3)
        checked += 1
    click.echo(f"PASS: {checked} instance(s) match the reference")


def _random_instances(count: int, max_states: int, seed: int):
    """Draw ``count`` structures from ``seed``, one at a time, each as
    ``(name, structure, command that regenerates it)``."""
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, max_states)
        labels = rng.randint(1, 3)
        prob = rng.choice([0.1, 0.3, 0.6])
        ks_seed = rng.randrange(2**32)
        yield (
            f"random[{i}]",
            generate_random_ks(n, labels, prob, ks_seed),
            f"simrel generate random {n} {labels} {prob} --seed {ks_seed}",
        )


@main.command()
@click.argument("kind", type=click.Choice(list(GENERATE_ARITY)))
@click.argument("params", nargs=-1)
@click.option("--seed", type=int, default=0, show_default=True)
def generate(kind, params, seed):
    """Emit a structure in the KS text format on standard output.

    Parameter shapes: random N LABELS PROB; chain N; tree DEPTH BRANCHING;
    clique N.
    """
    if len(params) != GENERATE_ARITY[kind]:
        _input_error(
            f"invalid parameters for {kind}: takes {GENERATE_ARITY[kind]}, "
            f"got {len(params)}"
        )
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
    except ValueError as exc:
        _input_error(f"invalid parameters for {kind}: {exc}")
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
        _input_error(f"cannot open {corpus_dir}: not a directory")
    rows = []
    all_ok = True
    for path in sorted(p for p in root.iterdir() if p.is_file()):
        ks = _load_ks(str(path))
        cfg = EngineConfig(stats_enabled=True)
        started = time.perf_counter()
        result, stats = _run_engine(ks, cfg)
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        p_ell = len(set(ks.labels))
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
