"""Private information retrieval from decentralized uncoded caching databases.

Two-phase simulator and analysis toolkit: databases independently cache
uniformly random bit subsets of a data center's files; a retriever then
privately downloads one file across the data center plus N databases by
running a replicated-store sum-query protocol per storage-set partition.
The analysis half evaluates the closed-form expected download cost, the
per-realization lower bound, and certifies in exact arithmetic that uniform
per-bit caching marginals minimize the expected bound.
"""

from .analysis import (
    CentralizedEnvelope,
    MarginalProfile,
    capacity_classical,
    capacity_decentralized,
    centralized_envelope,
    converse_bound_realization,
    expected_converse_bound,
    expected_size_mass,
    uniform_optimality_certificate,
    uniform_profile,
)
from .errors import (
    BudgetViolation,
    InvariantViolation,
    ProtocolError,
    ReliabilityError,
)
from .model import (
    CacheRealization,
    FileStore,
    StorageSetPartition,
    build_file_store,
    partition_by_storage_set,
    realization_from_addresses,
    storage_budget,
)
from .placement import (
    ExplicitSetsPlacement,
    PlacementPolicy,
    UniformRandomPlacement,
    WholeFilePrefixPlacement,
    policy_from_dict,
    sample_placement,
)
from .privacy import PrivacyTestResult, transcript_distribution_test
from .protocol import (
    QueryPlan,
    answer_queries,
    decode_desired,
    generate_query_plan,
    plan_transcripts,
    structural_privacy_histogram,
)
from .retrieval import (
    CostReport,
    RetrievalResult,
    SimulationResult,
    retrieve_file,
    simulate_trials,
)
from .rng import derive_seed, generator

__all__ = [name for name in dir() if not name.startswith("_")]
