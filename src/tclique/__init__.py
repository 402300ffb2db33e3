"""Maximal clique enumeration and incremental maintenance over temporal
link streams.

A clique here is a vertex set together with a closed time interval such that
every vertex pair interacts at least `gamma` times within every window of
length `delta` inside the interval. The package enumerates all maximal such
cliques of a bounded stream and keeps the collection current as further link
batches arrive, with results identical to recomputing from scratch.
"""

from .cliques import (
    Clique,
    contains,
    format_clique,
    is_delta_gamma_clique,
    is_delta_gamma_clique_direct,
    make_clique,
    parse_clique,
    sort_cliques,
)
from .errors import (
    ConfigError,
    OracleBoundsError,
    ParseError,
    PartitionError,
    StateError,
    TcliqueError,
    VerificationError,
)
from .expand import WorkSets, seed_cliques
from .linkstream import FormatSpec, LinkStream, parse_links
from .oracle import brute_force_enumerate, check_maximality
from .partition import PartitionPlan, partition_links, plan_boundaries
from .pipeline import (
    RunReport,
    enumerate_maximal_cliques,
    load_result,
    render_result,
    run_pipeline,
    stats_maximum_cliques,
    verify_against_oracle,
)
from .update import (
    BatchState,
    CycleStats,
    dump_state,
    finalize,
    initial_state,
    load_state,
    normalize_final,
    save_state,
    update_batch,
)

__version__ = "0.1.0"

__all__ = [
    "BatchState",
    "Clique",
    "ConfigError",
    "CycleStats",
    "FormatSpec",
    "LinkStream",
    "OracleBoundsError",
    "ParseError",
    "PartitionError",
    "PartitionPlan",
    "RunReport",
    "StateError",
    "TcliqueError",
    "VerificationError",
    "WorkSets",
    "brute_force_enumerate",
    "check_maximality",
    "contains",
    "dump_state",
    "enumerate_maximal_cliques",
    "finalize",
    "format_clique",
    "initial_state",
    "is_delta_gamma_clique",
    "is_delta_gamma_clique_direct",
    "load_result",
    "load_state",
    "make_clique",
    "normalize_final",
    "parse_clique",
    "parse_links",
    "partition_links",
    "plan_boundaries",
    "render_result",
    "run_pipeline",
    "save_state",
    "seed_cliques",
    "sort_cliques",
    "stats_maximum_cliques",
    "update_batch",
    "verify_against_oracle",
]
