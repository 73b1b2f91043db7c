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

:func:`parse_ks` reads a string's runs of lines of the exact form
``trans <s> <t>`` (single spaces, 1-9 ASCII digits per id, no comment, no
carriage return), as :func:`serialize_ks` writes them, in bulk: C-level
string and int operations on each run's slice instead of Python work per
line. A run is cut after :data:`BULK_RUN_LINES` lines, because its slice,
its id tokens and their ints are all alive while it is converted; an
uncapped run would hold every id token of the file at once, and on large
files that sets the process's peak memory. Every other line, and every
run that fails the range check or comes before the header, is read line
by line, so all input errors are raised there, at their lines.
"""

from __future__ import annotations

import random
import re
import sys
from collections import defaultdict, deque
from typing import Iterable

# largest state count a ``states`` header may declare or a generator may
# build; both allocate per state, so a larger count is refused before
# anything else
MAX_STATES = 2**22

# largest state count ``generate_random_ks`` accepts: it draws one coin per
# ordered state pair, 10^8 draws at this size, so a larger count is refused
# before the first draw instead of running for hours
MAX_RANDOM_STATES = 10_000

# largest state count ``make_clique`` accepts: it builds n^2 successor
# entries, 4 * 10^6 at this size, and both time and memory grow with n^2
# (``simrel generate clique 2000`` takes about 3 s and 0.6 GiB on a 2-core
# x86-64 host), so a larger count is refused before the first successor
# list is built
MAX_CLIQUE_STATES = 2_000

# most lines of one run of canonical ``trans`` lines that ``parse_ks``
# converts at once; it bounds the memory a run takes (see the module
# docstring)
BULK_RUN_LINES = 1024

# a run of canonical transition lines, anchored at a line start
_TRANS_RUN = re.compile(
    r"^(?:trans [0-9]{1,9} [0-9]{1,9}\n){1,%d}" % BULK_RUN_LINES, re.MULTILINE
)


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
    occurrence order. States with equal label sets share one frozenset
    object. A state's label is given as a collection of atoms; a string
    raises ``ValueError``, since it would be read as one atom per character,
    and so do ``bytes`` and ``bytearray``, read as one number per byte.
    Instances are immutable after construction and safe to share
    across threads.
    """

    __slots__ = ("num_states", "labels", "succ")

    def __init__(self, num_states, labels=None, succ=None):
        if num_states < 0:
            raise ValueError("num_states must be non-negative")
        self.num_states = num_states
        unlabeled = frozenset()
        shared = {unlabeled: unlabeled}
        lab = [unlabeled] * num_states
        for s, atoms in _by_state(labels or {}, num_states):
            if isinstance(atoms, (str, bytes, bytearray)):
                kind = "string" if isinstance(atoms, str) else type(atoms).__name__
                raise ValueError(
                    f"label of state {s} is the {kind} {atoms!r}, not a collection of atoms"
                )
            if atoms:
                key = frozenset(map(sys.intern, map(str, atoms)))
                lab[s] = shared.setdefault(key, key)
        self.labels = tuple(lab)
        out = [()] * num_states
        for s, targets in _by_state(succ or {}, num_states):
            if not targets:
                continue
            seen = set()
            dedup = []
            for t in targets:
                if not 0 <= t < num_states:
                    raise ValueError(f"successor {t} of state {s} out of range")
                if t not in seen:
                    seen.add(t)
                    dedup.append(t)
            out[s] = tuple(dedup)
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


def _by_state(table, n):
    """``(s, table[s])`` for states s in ascending order: a dict's keys in
    ``[0, n)``, others ignored, or each s in ``range(n)`` of a sequence."""
    if isinstance(table, dict):
        return sorted(item for item in table.items() if 0 <= item[0] < n)
    return ((s, table[s]) for s in range(n))


def parse_ks(text: str | Iterable[str]) -> KripkeStructure:
    """Parse the line-oriented KS text format.

    State ids are dense and match the header's declared count; ids outside
    ``[0, n)`` raise :class:`KSFormatError` with the line number.
    """
    num_states = None
    labels: dict[int, set[str]] = {}
    succ: defaultdict[int, list[int]] = defaultdict(list)

    def want_int(token: str, what: str, line_no: int) -> int:
        # ASCII digits, with a minus sign left to the range checks; int()
        # alone also takes "1_0", "+1" and non-ASCII digits
        try:
            if token.isascii() and token.removeprefix("-").isdigit():
                return int(token)
        except ValueError:  # more digits than int() converts
            pass
        raise KSFormatError(f"{what} must be an integer, got {token!r}", line_no)

    def want_state(token: str, line_no: int) -> int:
        value = want_int(token, "state id", line_no)
        if not 0 <= value < num_states:
            raise KSFormatError(f"state id {value} out of range", line_no)
        return value

    def read_lines(lines: Iterable[str], first_no: int) -> None:
        nonlocal num_states
        for line_no, raw in enumerate(lines, start=first_no):
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
                succ[s].append(t)
            else:
                raise KSFormatError(f"unknown directive {kind!r}", line_no)

    if isinstance(text, str):
        # only "\n" ends a line, as for grep -n; a CR before it is stripped
        # as whitespace by the line-by-line reader
        pos = line_no = 0  # the text before pos has line_no lines
        for run in _TRANS_RUN.finditer(text):
            start, end = run.span()
            between = text[pos:start].split("\n")
            between.pop()  # the empty rest after the "\n" ending the last line
            read_lines(between, line_no + 1)
            line_no += len(between)
            # "trans 0 1\ntrans 0 2\n" -> "0 1 0 2\n": ids only, no "trans" tokens
            ids = list(map(int, text[start + 6 : end].replace("\ntrans ", " ").split()))
            if num_states is not None and max(ids) < num_states:
                deque(map(list.append, map(succ.__getitem__, ids[::2]), ids[1::2]), 0)
            else:  # the line-by-line reader raises the run's error at its line
                read_lines(text[start:end].split("\n"), line_no + 1)
            line_no += len(ids) // 2
            pos = end
        read_lines(text[pos:].split("\n"), line_no + 1)
    else:
        read_lines([ln.rstrip("\n") for ln in text], 1)

    if num_states is None:
        raise KSFormatError("missing 'states <n>' header")
    return KripkeStructure(num_states, labels, succ)


def serialize_ks(ks: KripkeStructure) -> str:
    """Emit the text format. Round trips through :func:`parse_ks` exactly.

    Output is deterministic: labels by state id with atoms sorted, then
    transitions by source in stored successor order. An atom the format
    cannot hold, one that is empty or holds whitespace or ``#``, raises
    ``ValueError`` naming the state and the atom.
    """
    lines = [f"states {ks.num_states}"]
    for s in range(ks.num_states):
        if ks.labels[s]:
            atoms = sorted(ks.labels[s])
            for atom in atoms:
                # parse_ks cuts comments at "#" and splits a line into tokens
                if "#" in atom or atom.split() != [atom]:
                    raise ValueError(f"state {s}: atom {atom!r} cannot be written as one token")
            lines.append(f"label {s} {' '.join(atoms)}")
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
    # states are met in ascending order, so the blocks come out ordered
    # by smallest member
    return list(groups.values())


def _check_cap(n_states: int) -> None:
    """Refuse a generated structure above MAX_STATES before building it."""
    if n_states > MAX_STATES:
        raise ValueError(f"state count {n_states} exceeds the limit of {MAX_STATES}")


def generate_random_ks(
    n_states: int, n_labels: int, edge_prob: float, seed: int
) -> KripkeStructure:
    """Random structure, deterministic for a fixed seed.

    PRNG: Mersenne Twister (``random.Random``). Draw order is frozen so
    golden files stay portable: one label index per state first (atoms
    ``l0 .. l{n_labels-1}``), then one edge coin per ordered pair (s, t)
    in row-major order. At most :data:`MAX_RANDOM_STATES` states.
    """
    if n_states < 1 or n_labels < 1:
        raise ValueError("n_states and n_labels must be at least 1")
    if n_states > MAX_RANDOM_STATES:
        raise ValueError(
            f"state count {n_states} exceeds the limit of {MAX_RANDOM_STATES} "
            "for random structures (one edge draw per ordered state pair)"
        )
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
    _check_cap(n)
    return KripkeStructure(n, {}, {s: [s + 1] for s in range(n - 1)})


def make_tree(depth: int, branching: int) -> KripkeStructure:
    """Unlabeled complete tree with `depth` edge levels, level-order ids."""
    if depth < 0 or branching < 1:
        raise ValueError("tree needs depth >= 0 and branching >= 1")
    total = level = 1
    for _ in range(depth):
        level *= branching
        total += level
        _check_cap(total)
    succ: dict[int, list[int]] = {}
    for node in range(total):
        first = branching * node + 1
        kids = [c for c in range(first, first + branching) if c < total]
        if kids:
            succ[node] = kids
    return KripkeStructure(total, {}, succ)


def make_clique(n: int) -> KripkeStructure:
    """Unlabeled complete digraph on n states, self loops included.

    At most :data:`MAX_CLIQUE_STATES` states.
    """
    if n < 1:
        raise ValueError("clique needs at least 1 state")
    if n > MAX_CLIQUE_STATES:
        raise ValueError(
            f"state count {n} exceeds the limit of {MAX_CLIQUE_STATES} "
            "for cliques (one transition per ordered state pair)"
        )
    return KripkeStructure(n, {}, {s: list(range(n)) for s in range(n)})
