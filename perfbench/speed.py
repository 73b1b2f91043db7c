"""Machine speed, sampled while timed work runs, to rescale its times.

The benchmark runs on a few cores of a shared host whose speed swings by
about 1.6x: every few seconds, and in phases that last minutes (see the
README). A run cannot outlast those phases, so its raw times move with
them. ``Probe`` therefore runs a fixed slice of pure-Python work, which
does not touch simrel, at the start of every timed region and then every
``PERIOD_S`` seconds inside it, from a ``SIGALRM`` handler, so that the
slices sample the speed of the same core at the same moments as the
work they bracket. The time of the slices is taken off the timed work.

A time rescaled to the reference speed is ``raw * REFERENCE_S / mean
slice time``: the seconds the work would have taken at the speed at
which one slice takes ``REFERENCE_S``. The slice allocates no container
objects, so it never triggers the cyclic collector inside the work.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

# a slice every PERIOD_S seconds of wall time; one slice takes about a
# tenth of that, so the slices add about 10% to a timed region
PERIOD_S = 0.2
# the time of one slice at the reference speed: about its median time on
# the 2-vCPU shared host, with Python 3.11.7, where the baseline in the
# README was recorded (about 12 ms in the host's fast phases, 24 ms in
# its slow ones)
REFERENCE_S = 0.02

_SIZE = 4096
_SUCC = [[(7 * v + 13 * k + 1) % _SIZE for k in range(4)] for v in range(_SIZE)]
# v -> 5v + 1 mod 4096 visits every state once before it returns to 0
_NEXT = [(5 * v + 1) % _SIZE for v in range(_SIZE)]
_WEIGHT = {v: (v * 2654435761) % 97 for v in range(_SIZE)}
_MARKED = frozenset(range(0, _SIZE, 3))


def _visit(w: int, acc: int) -> int:
    if w in _MARKED:
        return acc + _WEIGHT[w]
    return acc ^ w


def _step(v: int, acc: int) -> int:
    a, b, c, d = _SUCC[v]
    return _visit(d, _visit(c, _visit(b, _visit(a, acc))))


def work_slice(rounds: int = 4) -> int:
    """The fixed work, in two halves of about equal time: calls with set
    and dict look-ups, then a tight walk of list and dict look-ups. Each
    half alone followed the speed of some workloads' passes more closely
    than of others'; together they followed every workload's about as
    closely as the better half did."""
    acc = 0
    for _ in range(rounds):
        for v in range(_SIZE):
            acc = _step(v, acc) & 0xFFFFFF
    v = 0
    for _ in range(rounds * 4 * _SIZE):
        v = _NEXT[v]
        acc += _WEIGHT[v]
    return acc


class Probe:
    """Samples slice times around and inside timed regions.

    ``with probe.region() as region:`` times the body; afterwards
    ``region.raw_s`` is its time less the slices run inside it, and
    ``region.scaled_s`` that time rescaled to the reference speed.
    """

    def __init__(self):
        self.spent_s = 0.0
        self.samples: list[float] = []
        work_slice()  # warm the code and the data before the first sample

    def sample(self, *_) -> None:
        start = perf_counter()
        work_slice()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.spent_s += elapsed

    def region(self) -> "Region":
        return Region(self)


class Region:
    def __init__(self, probe: Probe):
        self.probe = probe
        self.raw_s = 0.0
        self.slices: list[float] = []

    def __enter__(self) -> "Region":
        probe = self.probe
        probe.sample()
        self._first = len(probe.samples) - 1
        self._spent = probe.spent_s
        self._handler = signal.signal(signal.SIGALRM, probe.sample)
        self._start = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        end = perf_counter()
        signal.signal(signal.SIGALRM, self._handler)
        probe = self.probe
        self.raw_s = end - self._start - (probe.spent_s - self._spent)
        self.slices = probe.samples[self._first:]

    @property
    def scaled_s(self) -> float:
        return self.raw_s * REFERENCE_S / statistics.fmean(self.slices)
