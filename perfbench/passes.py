"""One pass over a workload's parsed structures, as a user would run it.

Import this module only after the set-up timer has stopped: it imports
simrel. Every call into simrel goes through a module attribute
(``engine.compute_simulation``, ``cli._report_json``, ...) so that the
tracer can wrap it.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass
from time import perf_counter

from simrel import cli, engine, instrument, kripke, oracle

COUNTERS = (
    "splits_total",
    "pairs_removed_total",
    "remove_elements_total",
    "smaller_half_total_scans",
)


@dataclass
class Outcome:
    """What one instance of one pass produced.

    ``document`` is the ``compute --format json`` output, ``error`` says
    why the instance failed (an exception, a counter law, an oracle
    mismatch), ``counts`` holds the ``RunStats`` counters of a stats-on
    run, ``p_sim`` the number of final blocks and ``seconds`` the time the
    user path took on this instance.
    """

    document: str | None = None
    error: str | None = None
    counts: dict | None = None
    p_sim: int = 0
    seconds: float = 0.0

    @property
    def digest(self) -> str | None:
        if self.document is None:
            return None
        return hashlib.sha256(self.document.encode()).hexdigest()


def _failure(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def user_pass(structures) -> list[Outcome]:
    """``compute --format json`` with the default configuration, per structure."""
    out = []
    for ks in structures:
        start = perf_counter()
        try:
            result, _ = engine.compute_simulation(ks)
            document = cli._report_json(result, None)
            out.append(Outcome(document, p_sim=len(result.partition), seconds=perf_counter() - start))
        except Exception as exc:  # a raising instance counts as failed
            out.append(Outcome(error=_failure(exc)))
    return out


def laws_error(ks, result, stats) -> str | None:
    """Evaluate all three counter laws; name the ones that fail."""
    p_ell = len(kripke.initial_label_partition(ks))
    failed = [
        name
        for name, ok in (
            ("block bound", instrument.assert_block_bound(stats, p_ell, len(result.partition))),
            ("smaller-half bound", instrument.assert_smaller_half_bound(stats, ks.num_states)),
            ("removal disjointness", instrument.assert_remove_disjointness(stats.remove_trace)),
        )
        if not ok
    ]
    return f"counter law failed: {', '.join(failed)}" if failed else None


def _counts(stats) -> dict:
    d = stats.to_dict()
    return {k: d[k] for k in COUNTERS}


def certify_pass(structures) -> list[Outcome]:
    """Self-checking path: ``check_level="full"`` with stats, the three
    counter laws, and the state relation against the brute-force oracle."""
    cfg = engine.EngineConfig(check_level="full", stats_enabled=True)
    out = []
    for ks in structures:
        try:
            result, stats = engine.compute_simulation(ks, cfg)
            errors = [laws_error(ks, result, stats)]
            if result.state_matrix() != oracle.brute_force_simulation(ks).matrix:
                errors.append("state relation differs from brute_force_simulation")
            out.append(
                Outcome(
                    cli._report_json(result, None),
                    error="; ".join(e for e in errors if e) or None,
                    counts=_counts(stats),
                    p_sim=len(result.partition),
                )
            )
        except Exception as exc:
            out.append(Outcome(error=_failure(exc)))
    return out


def stats_pass(structures) -> list[Outcome]:
    """Untimed stats-on run: exact counters and the three counter laws."""
    cfg = engine.EngineConfig(stats_enabled=True)
    out = []
    for ks in structures:
        try:
            result, stats = engine.compute_simulation(ks, cfg)
            out.append(
                Outcome(
                    error=laws_error(ks, result, stats),
                    counts=_counts(stats),
                    p_sim=len(result.partition),
                )
            )
        except Exception as exc:
            out.append(Outcome(error=_failure(exc)))
    return out


PASSES = {
    "chain": user_pass,
    "multilabel": user_pass,
    "coarse": user_pass,
    "certify": certify_pass,
}
