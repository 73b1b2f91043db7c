"""Simulation preorder and equivalence on finite Kripke structures."""

from .engine import (
    EngineConfig,
    InvariantViolation,
    SimulationEngine,
    check_is_simulation_pr,
    compute_simulation,
)
from .instrument import (
    RunStats,
    assert_block_bound,
    assert_remove_disjointness,
    assert_smaller_half_bound,
)
from .kripke import (
    KripkeStructure,
    KSFormatError,
    generate_random_ks,
    initial_label_partition,
    make_chain,
    make_clique,
    make_tree,
    parse_ks,
    serialize_ks,
)
from .oracle import StateRelation, brute_force_simulation, simulation_partition
from .prcore import PartitionRelationPair, SimulationResult, init_pr

__version__ = "0.1.0"

__all__ = [
    "EngineConfig",
    "InvariantViolation",
    "KripkeStructure",
    "KSFormatError",
    "PartitionRelationPair",
    "RunStats",
    "SimulationEngine",
    "SimulationResult",
    "StateRelation",
    "assert_block_bound",
    "assert_remove_disjointness",
    "assert_smaller_half_bound",
    "brute_force_simulation",
    "check_is_simulation_pr",
    "compute_simulation",
    "generate_random_ks",
    "init_pr",
    "initial_label_partition",
    "make_chain",
    "make_clique",
    "make_tree",
    "parse_ks",
    "serialize_ks",
    "simulation_partition",
]
