"""Self time and call counts per layer, from wrappers installed outside simrel.

The tracer replaces public functions and methods of simrel's modules with
wrappers and puts the originals back on ``uninstall``. A wrapper times
its call, and the time its wrapped callees took is subtracted from its
own, so ``self_s`` is the time spent in the function's own code. Spans
are aggregated in memory per name; nothing is written while tracing.

``engine.post_candidates`` is counted but not timed: it runs about a
million times on the 1024-state chain, and timing it would mostly time the wrapper.
Its time stays in the self time of its caller, ``find_prefiner``.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter


def _prefiner_hits(args, out):
    return {"hits": int(out is not None)}


def _split_counts(args, out):
    return {"splitter_states": len(args[1]), "blocks_cut": len(out)}


def _parse_lines(args, out):
    text = args[0]
    return {"lines": text.count("\n") if isinstance(text, str) else 0}


def _render_bytes(args, out):
    return {"bytes": len(out.encode())}


# (metric prefix, module, attribute, extra counts, timed)
TARGETS = (
    ("engine.run", "simrel.engine", "SimulationEngine.run", None, True),
    ("engine.initialize", "simrel.engine", "SimulationEngine.initialize", None, True),
    ("engine.pstabilize", "simrel.engine", "SimulationEngine.pstabilize", None, True),
    ("engine.find_prefiner", "simrel.engine", "SimulationEngine.find_prefiner", _prefiner_hits, True),
    ("engine.post_candidates", "simrel.engine", "SimulationEngine.post_candidates", None, False),
    ("engine.pre_up_set", "simrel.engine", "SimulationEngine.pre_up_set", None, True),
    ("engine.update_rel", "simrel.engine", "SimulationEngine.update_rel", None, True),
    ("engine.update_bcount", "simrel.engine", "SimulationEngine.update_bcount", None, True),
    ("engine.update_pre_e", "simrel.engine", "SimulationEngine.update_pre_e", None, True),
    ("engine.update_count", "simrel.engine", "SimulationEngine.update_count", None, True),
    ("engine.update_rem", "simrel.engine", "SimulationEngine.update_rem", None, True),
    ("engine.rstabilize", "simrel.engine", "SimulationEngine.rstabilize", None, True),
    ("engine.recompute_tables", "simrel.engine", "recompute_tables", None, True),
    ("engine.check_is_simulation_pr", "simrel.engine", "check_is_simulation_pr", None, True),
    ("prcore.init_pr", "simrel.prcore", "init_pr", None, True),
    ("prcore.split", "simrel.prcore", "PartitionRelationPair.split", _split_counts, True),
    ("prcore.add_block_entries", "simrel.prcore", "add_block_entries", None, True),
    ("prcore.extract_result", "simrel.prcore", "PartitionRelationPair.extract_result", None, True),
    ("prcore.order_pairs", "simrel.prcore", "SimulationResult.order_pairs", None, True),
    ("prcore.state_matrix", "simrel.prcore", "SimulationResult.state_matrix", None, True),
    ("kripke.parse_ks", "simrel.kripke", "parse_ks", _parse_lines, True),
    ("cli.render_json", "simrel.cli", "_report_json", _render_bytes, True),
    ("oracle.brute_force_simulation", "simrel.oracle", "brute_force_simulation", None, True),
    ("instrument.assert_block_bound", "simrel.instrument", "assert_block_bound", None, True),
    ("instrument.assert_smaller_half_bound", "simrel.instrument", "assert_smaller_half_bound", None, True),
    ("instrument.assert_remove_disjointness", "simrel.instrument", "assert_remove_disjointness", None, True),
)

# modules that may hold their own binding of a wrapped module-level function
_BINDERS = (
    "simrel",
    "simrel.cli",
    "simrel.engine",
    "simrel.instrument",
    "simrel.kripke",
    "simrel.oracle",
    "simrel.prcore",
)


class Tracer:
    """Aggregated self time, calls and extra counts per traced name."""

    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, extra, timed):
        counts = self.counts
        calls_key = f"{name}.calls"
        if not timed:

            def counted(*args, **kwargs):
                counts[calls_key] += 1
                return fn(*args, **kwargs)

            return counted

        stack = self._stack
        self_s = self.self_s
        total_s = self.total_s

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                children = stack.pop()
                self_s[name] += elapsed - children
                total_s[name] += elapsed
                counts[calls_key] += 1
                if stack:
                    stack[-1] += elapsed
            if extra is not None:
                for key, value in extra(args, out).items():
                    counts[f"{name}.{key}"] += value
            return out

        return traced

    def install(self, prefixes=None) -> None:
        """Wrap every target, or only those whose name starts with a prefix."""
        for name, module, attr, extra, timed in TARGETS:
            if prefixes is not None and not name.startswith(tuple(prefixes)):
                continue
            mod = importlib.import_module(module)
            owner_name, _, fn_name = attr.rpartition(".")
            original = getattr(getattr(mod, owner_name) if owner_name else mod, fn_name, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, original, extra, timed)
            if owner_name:
                self._patch(getattr(mod, owner_name), fn_name, wrapper)
                continue
            for binder in _BINDERS:
                bmod = importlib.import_module(binder)
                if getattr(bmod, fn_name, None) is original:
                    self._patch(bmod, fn_name, wrapper)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
