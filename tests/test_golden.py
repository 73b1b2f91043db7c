"""Standing pins on whole runs.

``TestGoldenRuns`` fixes the run counters and the sha256 of the
``compute --format json`` document of seven structures, so that a change
to the engine's tables shows up as a changed counter or byte, not only as
a changed time. ``TestFullChecksAtScale`` runs every self-check of the
``full`` level, with stats and the three counter laws, on structures of a
few hundred states.
"""

import hashlib

import pytest

from simrel import cli
from simrel.engine import EngineConfig, compute_simulation
from simrel.instrument import (
    assert_block_bound,
    assert_remove_disjointness,
    assert_smaller_half_bound,
)
from simrel.kripke import generate_random_ks, initial_label_partition, make_chain, make_tree

GOLDEN = {
    "chain(200)": (
        lambda: make_chain(200),
        {
            "splits_total": 199,
            "new_blocks_total": 398,
            "prefiner_calls": 399,
            "findprefiner_null_returns": 1,
            "smaller_half_max_scans": 1,
            "smaller_half_total_scans": 199,
            "remove_elements_total": 399,
            "pairs_removed_total": 199,
        },
        "7b540fe3263ef2cad46936901eff35b4bc60248e5368dac3ccaa7e2965ae9d2e",
    ),
    "tree(8,2)": (
        lambda: make_tree(8, 2),
        {
            "splits_total": 8,
            "new_blocks_total": 16,
            "prefiner_calls": 17,
            "findprefiner_null_returns": 1,
            "smaller_half_max_scans": 8,
            "smaller_half_total_scans": 502,
            "remove_elements_total": 17,
            "pairs_removed_total": 8,
        },
        "1b7548770674f4a35fc34952c0fac2d9d56106f22cb9a0a6903086e3172dc656",
    ),
    "random(400,3,3/400,seed=0)": (
        lambda: generate_random_ks(400, 3, 3 / 400, 0),
        {
            "splits_total": 381,
            "new_blocks_total": 762,
            "prefiner_calls": 387,
            "findprefiner_null_returns": 1,
            "smaller_half_max_scans": 5,
            "smaller_half_total_scans": 1037,
            "remove_elements_total": 80953,
            "pairs_removed_total": 15803,
        },
        "0ca37e3cdb2af47557c1bf3b9ce6c0b405b17a2ff2e1e28d405bf5c075e2b0e9",
    ),
    "random(400,3,3/400,seed=1)": (
        lambda: generate_random_ks(400, 3, 3 / 400, 1),
        {
            "splits_total": 373,
            "new_blocks_total": 746,
            "prefiner_calls": 378,
            "findprefiner_null_returns": 1,
            "smaller_half_max_scans": 5,
            "smaller_half_total_scans": 1020,
            "remove_elements_total": 76629,
            "pairs_removed_total": 14982,
        },
        "2e37d9a590ca2ccf52c469696bc28653fd664e8fe40bd370d2b80d91df24f276",
    ),
    "random(400,3,3/400,seed=2)": (
        lambda: generate_random_ks(400, 3, 3 / 400, 2),
        {
            "splits_total": 376,
            "new_blocks_total": 752,
            "prefiner_calls": 381,
            "findprefiner_null_returns": 1,
            "smaller_half_max_scans": 5,
            "smaller_half_total_scans": 1026,
            "remove_elements_total": 80388,
            "pairs_removed_total": 15528,
        },
        "07ef64f577d917673453ba4d31b441b65ada638a3720dc8f6bade7c3f15c9fc2",
    ),
    # the benchmark's multilabel instance, 1518 blocks; its digest is the
    # one perfbench/digests.json stores for it
    "random(1600,5,3/1600,seed=1)": (
        lambda: generate_random_ks(1600, 5, 3 / 1600, 1),
        {
            "splits_total": 1513,
            "new_blocks_total": 3026,
            "prefiner_calls": 1517,
            "findprefiner_null_returns": 1,
            "smaller_half_max_scans": 7,
            "smaller_half_total_scans": 4966,
            "remove_elements_total": 1081404,
            "pairs_removed_total": 94495,
        },
        "53376ad3b13a25c82739e8031585208a873abf8a49d8e03db8a794f021feba4a",
    ),
    # the benchmark's other multilabel instance, 754 blocks; its digest is
    # the one perfbench/digests.json stores for it
    "random(800,3,3/800,seed=800)": (
        lambda: generate_random_ks(800, 3, 3 / 800, 800),
        {
            "splits_total": 751,
            "new_blocks_total": 1502,
            "prefiner_calls": 764,
            "findprefiner_null_returns": 1,
            "smaller_half_max_scans": 5,
            "smaller_half_total_scans": 2288,
            "remove_elements_total": 298116,
            "pairs_removed_total": 55538,
        },
        "406866f14956a90dc6622d6a05bc4ffe7e3d487d2d1ae1ed134f66f6ffd6a6aa",
    ),
}


class TestGoldenRuns:
    @pytest.mark.parametrize("name", list(GOLDEN))
    def test_counters_and_document_bytes(self, name):
        build, counters, digest = GOLDEN[name]
        result, stats = compute_simulation(build(), EngineConfig(stats_enabled=True))
        assert stats.to_dict() == counters
        document = cli._report_json(result, None)
        assert hashlib.sha256(document.encode()).hexdigest() == digest


def scale_structures():
    yield "chain(128)", make_chain(128)
    # sparse, with two to four labels: nearly every state ends in its own
    # block and thousands of block pairs are pruned
    for i, n in enumerate((100, 130, 160, 190, 220, 250, 280, 300)):
        labels = 2 + i % 3
        yield f"random({n},{labels},3/{n},seed={n})", generate_random_ks(n, labels, 3 / n, n)


class TestFullChecksAtScale:
    @pytest.mark.parametrize(
        "name, ks", list(scale_structures()), ids=[name for name, _ in scale_structures()]
    )
    def test_full_checks_and_counter_laws(self, name, ks):
        cfg = EngineConfig(check_level="full", stats_enabled=True)
        result, stats = compute_simulation(ks, cfg)
        p_ell = len(initial_label_partition(ks))
        assert assert_block_bound(stats, p_ell, len(result.partition))
        assert assert_smaller_half_bound(stats, ks.num_states)
        assert assert_remove_disjointness(stats.remove_trace)
        assert stats.pairs_removed_total > 0
