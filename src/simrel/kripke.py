"""Finite Kripke structures: the input model, its text format, and generators.

Text format (UTF-8, line oriented)::

    states <n>                      # header, must come first
    label <id> <atom> [<atom> ...]  # omitted states have an empty label
    trans <src> <dst>

``#`` starts a comment anywhere on a line; blank lines are ignored. The
header may declare at most :data:`MAX_STATES` states.
Duplicate ``trans`` lines are deduplicated silently (the transition
relation is a set). Multiple ``label`` lines for the same state merge
their atom sets.
"""

from __future__ import annotations

import random
import sys
from typing import Iterable

# largest state count a ``states`` header may declare; parsing allocates
# per declared state, so a larger header is refused before anything else
MAX_STATES = 2**22


class KSFormatError(ValueError):
    """Malformed KS text. Carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        self.line_no = line_no
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


class KripkeStructure:
    """A finite transition system with states labeled by atom sets.

    States are dense integers ``0 .. num_states-1``, fixed for the lifetime
    of the structure. Successor lists are duplicate free and kept in first
    occurrence order. Instances are immutable after construction and safe
    to share across threads.
    """

    __slots__ = ("num_states", "labels", "succ")

    def __init__(self, num_states, labels=None, succ=None):
        if num_states < 0:
            raise ValueError("num_states must be non-negative")
        self.num_states = num_states
        labels = labels or {}
        lab = []
        for s in range(num_states):
            atoms = labels.get(s, ()) if isinstance(labels, dict) else labels[s]
            lab.append(frozenset(sys.intern(str(a)) for a in atoms))
        self.labels = tuple(lab)
        succ = succ or {}
        out = []
        for s in range(num_states):
            targets = succ.get(s, ()) if isinstance(succ, dict) else succ[s]
            seen = set()
            dedup = []
            for t in targets:
                if not 0 <= t < num_states:
                    raise ValueError(f"successor {t} of state {s} out of range")
                if t not in seen:
                    seen.add(t)
                    dedup.append(t)
            out.append(tuple(dedup))
        self.succ = tuple(out)

    @property
    def num_transitions(self) -> int:
        return sum(len(s) for s in self.succ)

    def __eq__(self, other):
        if not isinstance(other, KripkeStructure):
            return NotImplemented
        return (
            self.num_states == other.num_states
            and self.labels == other.labels
            and self.succ == other.succ
        )

    def __hash__(self):
        return hash((self.num_states, self.labels, self.succ))

    def __repr__(self):
        return (
            f"KripkeStructure(num_states={self.num_states}, "
            f"num_transitions={self.num_transitions})"
        )


def parse_ks(text: str | Iterable[str]) -> KripkeStructure:
    """Parse the line-oriented KS text format.

    State ids are dense and match the header's declared count; ids outside
    ``[0, n)`` raise :class:`KSFormatError` with the line number.
    """
    if isinstance(text, str):
        lines = text.splitlines()
    else:
        lines = [ln.rstrip("\n") for ln in text]

    num_states = None
    labels: dict[int, set[str]] = {}
    succ: dict[int, list[int]] = {}

    def want_int(token: str, what: str, line_no: int) -> int:
        try:
            return int(token)
        except ValueError:
            raise KSFormatError(f"{what} must be an integer, got {token!r}", line_no)

    def want_state(token: str, line_no: int) -> int:
        value = want_int(token, "state id", line_no)
        if not 0 <= value < num_states:
            raise KSFormatError(f"state id {value} out of range", line_no)
        return value

    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if num_states is None:
            if kind != "states" or len(tokens) != 2:
                raise KSFormatError("missing 'states <n>' header", line_no)
            num_states = want_int(tokens[1], "state count", line_no)
            if num_states < 0:
                raise KSFormatError("state count must be non-negative", line_no)
            if num_states > MAX_STATES:
                raise KSFormatError(
                    f"state count {num_states} exceeds the limit of {MAX_STATES}", line_no
                )
            continue
        if kind == "states":
            raise KSFormatError("duplicate 'states' header", line_no)
        if kind == "label":
            if len(tokens) < 3:
                raise KSFormatError("label needs a state id and at least one atom", line_no)
            s = want_state(tokens[1], line_no)
            labels.setdefault(s, set()).update(tokens[2:])
        elif kind == "trans":
            if len(tokens) != 3:
                raise KSFormatError("trans needs exactly a source and a target", line_no)
            s = want_state(tokens[1], line_no)
            t = want_state(tokens[2], line_no)
            succ.setdefault(s, []).append(t)
        else:
            raise KSFormatError(f"unknown directive {kind!r}", line_no)

    if num_states is None:
        raise KSFormatError("missing 'states <n>' header")
    return KripkeStructure(num_states, labels, succ)


def serialize_ks(ks: KripkeStructure) -> str:
    """Emit the text format. Round trips through :func:`parse_ks` exactly.

    Output is deterministic: labels by state id with atoms sorted, then
    transitions by source in stored successor order.
    """
    lines = [f"states {ks.num_states}"]
    for s in range(ks.num_states):
        if ks.labels[s]:
            lines.append(f"label {s} {' '.join(sorted(ks.labels[s]))}")
    for s in range(ks.num_states):
        for t in ks.succ[s]:
            lines.append(f"trans {s} {t}")
    return "\n".join(lines) + "\n"


def initial_label_partition(ks: KripkeStructure) -> list[list[int]]:
    """Coarsest partition grouping states with equal label sets.

    Blocks are ordered by smallest member, members ascending.
    """
    groups: dict[frozenset, list[int]] = {}
    for s in range(ks.num_states):
        groups.setdefault(ks.labels[s], []).append(s)
    return sorted(groups.values(), key=lambda block: block[0])


def pre_of(ks: KripkeStructure, target: Iterable[int]) -> set[int]:
    """States with at least one transition into ``target``."""
    tset = set(target)
    return {
        s
        for s in range(ks.num_states)
        if any(t in tset for t in ks.succ[s])
    }


def generate_random_ks(
    n_states: int, n_labels: int, edge_prob: float, seed: int
) -> KripkeStructure:
    """Random structure, deterministic for a fixed seed.

    PRNG: Mersenne Twister (``random.Random``). Draw order is frozen so
    golden files stay portable: one label index per state first (atoms
    ``l0 .. l{n_labels-1}``), then one edge coin per ordered pair (s, t)
    in row-major order.
    """
    if n_states < 1 or n_labels < 1:
        raise ValueError("n_states and n_labels must be at least 1")
    if not 0.0 <= edge_prob <= 1.0:
        raise ValueError("edge_prob must be in [0, 1]")
    rng = random.Random(seed)
    labels = {s: {f"l{rng.randrange(n_labels)}"} for s in range(n_states)}
    succ: dict[int, list[int]] = {}
    for s in range(n_states):
        for t in range(n_states):
            if rng.random() < edge_prob:
                succ.setdefault(s, []).append(t)
    return KripkeStructure(n_states, labels, succ)


def make_chain(n: int) -> KripkeStructure:
    """Unlabeled path 0 -> 1 -> ... -> n-1."""
    if n < 1:
        raise ValueError("chain needs at least 1 state")
    return KripkeStructure(n, {}, {s: [s + 1] for s in range(n - 1)})


def make_tree(depth: int, branching: int) -> KripkeStructure:
    """Unlabeled complete tree with `depth` edge levels, level-order ids."""
    if depth < 0 or branching < 1:
        raise ValueError("tree needs depth >= 0 and branching >= 1")
    total = sum(branching**k for k in range(depth + 1))
    succ: dict[int, list[int]] = {}
    for node in range(total):
        first = branching * node + 1
        kids = [c for c in range(first, first + branching) if c < total]
        if kids:
            succ[node] = kids
    return KripkeStructure(total, {}, succ)


def make_clique(n: int) -> KripkeStructure:
    """Unlabeled complete digraph on n states, self loops included."""
    if n < 1:
        raise ValueError("clique needs at least 1 state")
    return KripkeStructure(n, {}, {s: list(range(n)) for s in range(n)})
