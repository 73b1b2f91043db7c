import pytest

from simrel import KripkeStructure
from simrel.engine import SimulationEngine
from simrel.prcore import bits


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


def blocks_of(pr):
    """The state set of every block of ``pr``, by block id."""
    return [frozenset(pr.block_states(b)) for b in range(len(pr.begin))]


def state_sets(trace, blocks):
    """A ``RunStats.remove_trace`` as one ``(selected states, removed
    states)`` pair of frozensets per selection, in selection order.

    ``blocks`` holds the state sets of the last round's blocks; each
    round's blocks before are rebuilt from them by folding the newer
    blocks of the round after into their owners."""
    blocks = list(blocks)
    out = []
    for first, owners, selections in reversed(trace):
        out[:0] = [
            (blocks[sel], frozenset().union(*map(blocks.__getitem__, bits(pending))))
            for sel, pending in selections
        ]
        for b, owner in enumerate(owners, first):
            blocks[owner] |= blocks[b]
        del blocks[first:]
    return out


class StateSetTraced(SimulationEngine):
    """The engine recording each selection of its pruning rounds in
    ``state_trace`` as a pair of frozensets, the selected block's states
    and the states of its pending set: the state-set trace that
    ``remove_trace`` stands for. The pending sets are read before the round, each block made in the
    last partition phase taking the set of the lowest block of its class.
    ``rounds`` counts the rounds."""

    def __init__(self, ks, cfg=None):
        super().__init__(ks, cfg)
        self.state_trace = []
        self.rounds = 0

    def rstabilize(self):
        pr, remove = self.pr, self.remove
        pending = remove + [
            remove[bits(pr.up[b] & pr.down[b])[0]] for b in range(len(remove), len(pr.begin))
        ]
        self.state_trace += [
            (
                frozenset(pr.block_states(sel)),
                frozenset(s for d in bits(dropped) for s in pr.block_states(d)),
            )
            for sel, dropped in enumerate(pending)
            if dropped
        ]
        self.rounds += 1
        return super().rstabilize()


@pytest.fixture
def ks_a():
    # three states, two equivalent ones feeding a self-looping sink
    return build_ks("aab", [(0, 2), (1, 2), (2, 2)])


@pytest.fixture
def ks_b():
    # two same-labeled states, only one can move
    return build_ks("aa", [(0, 0)])
