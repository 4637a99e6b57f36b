"""End-to-end private retrieval across the data center and cached databases.

For each storage-set partition entry the retriever runs one protocol session
over exactly the nodes of that set: padded replicated arrays for sets of two
or more nodes.  The data-center-only set is downloaded whole at raw per-file
lengths: its answer string is the stored bits themselves, one per bit.
Decoded pieces are scattered back to their original addresses; the result
must equal the requested file bit-for-bit, and every downloaded bit (padding
included) is charged to the cost report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .analysis import (
    capacity_classical,
    capacity_decentralized,
    converse_bound_realization,
)
from .errors import InvariantViolation, ReliabilityError
from .model import (
    CacheRealization,
    FileStore,
    StorageSetPartition,
    build_file_store,
    check_num_dbs,
    partition_by_storage_set,
)
from .placement import PlacementPolicy, sample_placement
from .protocol import (
    QueryPlan,
    StoreQueries,
    answer_queries,
    decode_desired,
    download_everything,
    generate_query_plan,
)
from .rng import derive_seed

# Refuse sessions that would download more than this many bits; the padded
# block size (|S| ** K) makes large K with large sets explode at desk scale.
DEFAULT_DOWNLOAD_CAP = 50_000_000


@dataclass(frozen=True)
class CostReport:
    """Downloaded-bit accounting for one retrieval.

    ``total`` charges every answer bit including padding overhead; ``ideal``
    removes the padding-induced overage (what the same partition would cost
    at exactly its raw subfile lengths) for comparison with the asymptotic
    formula.  ``per_node[d]`` counts the bits downloaded from node ``d``
    (0 is the data center, ``d >= 1`` database ``d``).
    """

    per_node: tuple[int, ...]
    per_partition: dict
    total: int
    ideal: Fraction
    file_len: int

    @property
    def normalized(self) -> Fraction:
        return Fraction(self.total, self.file_len)


@dataclass(frozen=True)
class PartitionSession:
    """Transcript of one per-partition protocol run."""

    storage_set: frozenset
    nodes: tuple[int, ...]
    stores: tuple[StoreQueries, ...]  # each node's queries, as in ``nodes``
    answers: tuple[np.ndarray, ...]
    plan: Optional[QueryPlan]  # None for the download-everything set {0}


@dataclass(frozen=True)
class RetrievalResult:
    bits: np.ndarray
    report: CostReport
    sessions: tuple[PartitionSession, ...]


def _estimated_download(partition: StorageSetPartition) -> int:
    total = 0
    for s, entry in partition.entries.items():
        if len(s) == 1:
            total += entry.total_bits
        elif entry.padded_len:
            total += entry.padded_len * partition.num_files
    return total


def retrieve_file(
    store: FileStore,
    realization: CacheRealization,
    desired: int,
    seed: int,
    partition: Optional[StorageSetPartition] = None,
    keep_sessions: bool = True,
    download_cap: int = DEFAULT_DOWNLOAD_CAP,
) -> RetrievalResult:
    """Privately retrieve file ``desired`` and account every downloaded bit.

    Raises :class:`ReliabilityError` if the reassembled file differs from the
    source (never expected for a valid realization).
    """
    k, length = store.num_files, store.file_len
    if (realization.num_files, realization.file_len) != (k, length):
        raise ValueError("realization and store disagree on corpus shape")
    if not 0 <= desired < k:
        raise ValueError(f"desired file {desired} out of range for K={k}")
    if partition is None:
        partition = partition_by_storage_set(realization)
    if _estimated_download(partition) > download_cap:
        raise ValueError(
            "estimated download exceeds the cap; padded block sizes grow as "
            "|S|**K, so shrink K, N, or the storage ratio"
        )

    recovered = np.zeros(length, dtype=np.uint8)
    per_node = [0] * (realization.num_dbs + 1)
    per_partition: dict = {}
    ideal = Fraction(0)
    sessions = []

    for index, (s, entry) in enumerate(partition.canonical_entries()):
        nodes = tuple(sorted(s))
        lengths = entry.lengths
        if len(s) == 1:
            # Data-center-only bits: download every stored bit of every file.
            answers = np.concatenate(
                [store.bits[j][entry.positions[j]] for j in range(k)]
            )
            start = sum(lengths[:desired])
            recovered[entry.positions[desired]] = answers[
                start : start + lengths[desired]
            ]
            cost = len(answers)
            per_node[0] += cost
            per_partition[s] = cost
            ideal += cost
            if keep_sessions:
                sessions.append(
                    PartitionSession(
                        s, nodes, (download_everything(lengths),), (answers,), None
                    )
                )
            continue

        lam = entry.padded_len
        if lam == 0:
            per_partition[s] = 0
            continue
        plan = generate_query_plan(
            len(s), k, desired, lam, derive_seed(seed, index)
        )
        padded = np.zeros((k, lam), dtype=np.uint8)
        for j in range(k):
            padded[j, : lengths[j]] = store.bits[j][entry.positions[j]]
        answers = tuple(answer_queries(q, padded) for q in plan.stores)
        decoded = decode_desired(plan, answers)
        if (decoded[lengths[desired] :] != 0).any():
            raise ReliabilityError(
                f"padding symbols decoded non-zero in partition {sorted(s)}"
            )
        recovered[entry.positions[desired]] = decoded[: lengths[desired]]

        cost = 0
        for node, answer in zip(nodes, answers):
            per_node[node] += len(answer)
            cost += len(answer)
        per_partition[s] = cost
        ideal += entry.max_len * capacity_classical(k, len(s))
        if keep_sessions:
            sessions.append(
                PartitionSession(s, nodes, plan.stores, answers, plan)
            )

    if not np.array_equal(recovered, store.bits[desired]):
        raise ReliabilityError(f"recovered file {desired} differs from the source")

    report = CostReport(
        per_node=tuple(per_node),
        per_partition=per_partition,
        total=sum(per_node),
        ideal=ideal,
        file_len=length,
    )
    return RetrievalResult(recovered, report, tuple(sessions))


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    desired: int
    total: int
    ideal: Fraction
    normalized: Fraction
    converse_bound: Fraction
    seed: int


@dataclass(frozen=True)
class SimulationResult:
    rows: tuple[TrialRecord, ...]
    mean_normalized: float
    std_normalized: float
    formula: Fraction
    relative_gap: float


def simulate_trials(
    num_files: int,
    file_len: int,
    num_dbs: int,
    mu,
    policy: PlacementPolicy,
    trials: int,
    seed: int,
    download_cap: int = DEFAULT_DOWNLOAD_CAP,
) -> SimulationResult:
    """Independent (placement, retrieval) trials with the desired file cycled.

    The desired index cycles over all files for path coverage (the cost is
    symmetric in it by construction).  Each trial checks bit-exact recovery
    and that its total dominates the realization lower bound; a violation
    raises :class:`InvariantViolation` naming the trial.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
    check_num_dbs(num_dbs)
    rows = []
    for t in range(trials):
        trial_seed = derive_seed(seed, t)
        store = build_file_store(num_files, file_len, derive_seed(trial_seed, 0))
        realization = sample_placement(
            policy, num_files, file_len, num_dbs, derive_seed(trial_seed, 1), mu=mu
        )
        partition = partition_by_storage_set(realization)
        desired = t % num_files
        try:
            result = retrieve_file(
                store,
                realization,
                desired,
                derive_seed(trial_seed, 2),
                partition=partition,
                keep_sessions=False,
                download_cap=download_cap,
            )
        except ReliabilityError as exc:
            raise ReliabilityError(f"trial {t}: {exc}") from exc
        bound = converse_bound_realization(partition).bound
        if result.report.total < bound:
            raise InvariantViolation(
                f"trial {t}: downloaded {result.report.total} bits, "
                f"lower bound is {bound}"
            )
        rows.append(
            TrialRecord(
                trial=t,
                desired=desired,
                total=result.report.total,
                ideal=result.report.ideal,
                normalized=result.report.normalized,
                converse_bound=bound,
                seed=trial_seed,
            )
        )

    normalized = np.asarray([float(r.normalized) for r in rows])
    formula = capacity_decentralized(num_files, num_dbs, Fraction(mu))
    mean = float(normalized.mean())
    std = float(normalized.std(ddof=1)) if trials > 1 else 0.0
    gap = abs(mean - float(formula)) / float(formula)
    return SimulationResult(tuple(rows), mean, std, formula, gap)
