import pytest

from simrel import KripkeStructure
from simrel.engine import SimulationEngine


def build_ks(labels, edges):
    """Compact constructor: labels is a string (one atom char per state,
    '.' for empty), edges a list of (src, dst) pairs."""
    n = len(labels)
    lab = {s: ({labels[s]} if labels[s] != "." else set()) for s in range(n)}
    succ = {}
    for s, t in edges:
        succ.setdefault(s, []).append(t)
    return KripkeStructure(n, lab, succ)


def engine_after_initialize(ks):
    """An engine with default config whose tables are filled."""
    eng = SimulationEngine(ks)
    eng.initialize()
    return eng


@pytest.fixture
def ks_a():
    # three states, two equivalent ones feeding a self-looping sink
    return build_ks("aab", [(0, 2), (1, 2), (2, 2)])


@pytest.fixture
def ks_b():
    # two same-labeled states, only one can move
    return build_ks("aa", [(0, 0)])
