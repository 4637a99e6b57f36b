"""End-to-end private retrieval across the data center and cached databases.

For each storage set of the partition the retriever runs one protocol session
over exactly the nodes of that set: replicated arrays for sets of two or more
nodes, each file zero-padded to a multiple of ``|S| ** K`` symbols
(:func:`_size_groups` is the one place that rule lives).  The
data-center-only set is downloaded whole at raw per-file lengths: its answer
string is the stored bits themselves, one per bit.
Decoded pieces are scattered back to their original addresses; the result
must equal the requested file bit-for-bit, and every downloaded bit (padding
included) is charged to the cost report.

All storage sets of one size share a block template, so their sessions run
as the segments of one plan: one padded ``(K, sum of lambda_S)`` symbol
matrix, one answer pass for all its stores and one decode per size.  Each
segment keeps its own permutation seed, so its queries, answers and decoded
bits are exactly those of the set's separate session.  A size's plan and
answers are dropped once its sets are decoded and charged; the result is
the recovered file and its cost report.

The partition lists its sets in canonical order, sizes ascending, so the
sets of one size are one contiguous range of its arrays.  A size's padded
matrix is filled with one scatter of that range's bits, and its costs,
recovered bits and padding check come from the same arrays.  The only work
done per set is building the generator of its permutation seed: the seeds
of every set of two or more nodes are derived and hashed in one pass per
retrieval, and each size's plan takes the next run of those generators,
one at a time as it permutes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .analysis import (
    capacity_classical,
    capacity_decentralized,
    converse_bound_realization,
)
from .errors import InvariantViolation, ReliabilityError
from .model import (
    FileStore,
    StorageSetPartition,
    build_file_store,
    partition_by_storage_set,
)
from .placement import PlacementPolicy, sample_placement
from .protocol import answer_queries, decode_desired, generate_query_plan
from .rng import derive_seed, derive_seeds, generators

# Refuse retrievals of more padded symbols, K * |S|**K per block of a set of
# |S| nodes plus each data-center-only bit: they bound the block templates
# and answer arrays, and pass the download, |S| * (|S|**K - 1) / (|S| - 1)
# bits a block.
MAX_PADDED_SYMBOLS = 50_000_000


@dataclass(frozen=True)
class CostReport:
    """Downloaded-bit accounting for one retrieval.

    ``total`` charges every answer bit including padding overhead; ``ideal``
    leaves the padding out, but above the realization bound it still holds
    the imbalance ``sum_S c(|S|) * (max_j l_{S,j} - mean_j l_{S,j})`` over
    sets of two or more nodes, ``c = capacity_classical(K, .)``: that term
    falls like ``1/sqrt(L)`` per bit and is most of the finite-L gap to the
    formula.  ``per_node[d]`` counts the bits downloaded from node ``d``
    (0 is the data center, ``d >= 1`` database ``d``); ``per_partition``
    counts them per storage set, keyed by the set's sorted node tuple.
    """

    per_node: tuple[int, ...]
    per_partition: dict[tuple[int, ...], int]
    total: int
    ideal: Fraction


@dataclass(frozen=True)
class RetrievalResult:
    """The recovered file and its cost report."""

    bits: np.ndarray
    report: CostReport


def _size_groups(partition: StorageSetPartition) -> list:
    """Runs of equal-size storage sets, with each set's padded length.

    Returns ``(size, first, end, blocks)`` per run of sets ``first .. end - 1``
    in canonical order, where ``blocks[i]`` is set ``first + i``'s padded
    per-file length in ``size ** K``-symbol blocks (``None`` for the
    data-center-only set, downloaded raw).  This is the padding rule: each
    file of a set is zero-padded to the smallest multiple of ``size ** K``
    symbols that holds the set's longest file.
    """
    k, length = partition.num_files, partition.file_len
    sizes = partition.sizes
    max_lens = partition.lengths().max(axis=1)
    bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), len(sizes)]
    groups = []
    for first, end in zip(bounds[:-1], bounds[1:]):
        size = int(sizes[first])
        if size == 1:
            groups.append((size, first, end, None))
            continue
        # max_len <= L, so a block longer than a file holds any set in one.
        blocks = -(-max_lens[first:end] // min(size**k, length))
        groups.append((size, first, end, blocks))
    return groups


def retrieve_file(
    store: FileStore,
    partition: StorageSetPartition,
    desired: int,
    seed: int,
) -> RetrievalResult:
    """Privately retrieve file ``desired`` and account every downloaded bit.

    Raises ``ValueError`` if the store and ``partition`` disagree on K or L
    or the padded symbols would exceed :data:`MAX_PADDED_SYMBOLS`, and
    :class:`ReliabilityError` if the reassembled file differs from the
    source (never expected for a valid partition).
    """
    k, length = store.num_files, store.file_len
    if (partition.num_files, partition.file_len) != (k, length):
        raise ValueError("partition and store disagree on corpus shape")
    if not 0 <= desired < k:
        raise ValueError(f"desired file {desired} out of range for K={k}")
    groups = _size_groups(partition)
    # Padded symbols, a Python int however large the block.
    padded = sum(
        int(partition.starts[k]) if blocks is None else k * size**k * int(blocks.sum())
        for size, _, _, blocks in groups
    )
    if padded > MAX_PADDED_SYMBOLS:
        raise ValueError(
            f"the count of padded symbols exceeds the cap of {MAX_PADDED_SYMBOLS}; "
            "padded block sizes grow as |S|**K, so shrink K, N, or the storage ratio"
        )

    recovered = np.zeros(length, dtype=np.uint8)
    sizes = partition.sizes
    # charged[i]: the bits downloaded from each node of storage set i.
    charged = np.empty(len(sizes), dtype=np.int64)
    ideal = Fraction(0)
    bits = store.bits.reshape(-1)
    addresses, starts = partition.addresses, partition.starts
    # Set i's session draws from derive_seed(seed, i).  Every set but the
    # data-center-only one, first if present, has a session, so one pass
    # hashes all their seeds, and each size's plan takes the next end - first
    # as it permutes: a list of them, up to ~170 sets a size at N=20, would
    # hold ~4 tracked objects a set and run the cyclic garbage collector.
    first_multi = int(sizes[0] == 1)
    stream = generators(derive_seeds(seed, indices=range(first_multi, len(sizes))))

    for size, first, end, blocks in groups:
        if blocks is not None:
            ideal += _retrieve_group(
                bits, partition, desired, islice(stream, end - first),
                size, first, end, blocks, recovered, charged,
            )
            continue
        # Data-center-only bits (set 0): download every stored bit of every file.
        answers = bits[addresses[: starts[k]]]
        a, b = starts[desired], starts[desired + 1]
        recovered[addresses[a:b] - desired * length] = answers[a:b]
        charged[0] = len(answers)
        ideal += len(answers)

    if not np.array_equal(recovered, store.bits[desired]):
        raise ReliabilityError(f"recovered file {desired} differs from the source")

    # Float weights are exact: the download, at most the padded symbols, is
    # below MAX_PADDED_SYMBOLS, far below 2**53.
    per_node = np.bincount(
        partition.members,
        weights=np.repeat(charged, sizes),
        minlength=partition.num_dbs + 1,
    )
    per_node_counts = tuple(per_node.astype(np.int64).tolist())
    report = CostReport(
        per_node=per_node_counts,
        per_partition=dict(zip(partition.node_tuples(), (charged * sizes).tolist())),
        total=sum(per_node_counts),
        ideal=ideal,
    )
    return RetrievalResult(recovered, report)


def _retrieve_group(
    bits: np.ndarray,
    partition: StorageSetPartition,
    desired: int,
    rngs: Iterator,
    size: int,
    first: int,
    end: int,
    blocks: np.ndarray,
    recovered: np.ndarray,
    charged: np.ndarray,
) -> Fraction:
    """Run storage sets ``first .. end - 1``, all of ``size`` nodes, as one plan.

    ``bits`` is the flat corpus.  Set ``first + i`` is segment ``i`` of the
    plan, ``blocks[i]`` blocks of ``size ** K`` symbols of every file, and
    its permutations are drawn from the ``i``-th of ``rngs``, the generator of
    ``derive_seed(seed, first + i)``, so each segment's queries, answers and
    decoded bits are those of the set's own session.  Fills ``recovered``
    and ``charged[first:end]`` and returns the group's ideal cost.
    """
    k, length = partition.num_files, partition.file_len
    plan = generate_query_plan(
        size, k, desired, (blocks * size**k).tolist(), rngs
    )
    seg = np.array(plan.segment_starts)
    total = plan.num_symbols

    # Run i * K + j holds set first + i's bits of file j; bit r of it lands
    # in row j, column seg[i] + r of the padded matrix.
    starts = partition.starts[first * k : end * k + 1]
    lo = int(starts[0])
    run_lens = np.diff(starts)
    run_shift = (
        np.arange(k) * total + seg[:-1, None] - (starts[:-1] - lo).reshape(-1, k)
    ).reshape(-1)
    target = np.repeat(run_shift, run_lens)
    target += np.arange(len(target))
    padded = np.zeros((k, total), dtype=np.uint8)
    padded.reshape(-1)[target] = bits[partition.addresses[lo : int(starts[-1])]]

    decoded = decode_desired(plan, answer_queries(plan, padded))
    # Set i's desired bits are the first lens[i] symbols of its segment and
    # the rest is padding, which decodes to zero exactly when no non-zero
    # symbol lies outside those columns.
    lens = run_lens[desired::k]
    before = np.cumsum(lens) - lens
    cols = np.arange(lens.sum()) + np.repeat(seg[:-1] - before, lens)
    got = decoded[cols]
    if np.count_nonzero(decoded) != np.count_nonzero(got):
        padding = np.ones(total, dtype=bool)
        padding[cols] = False
        bad = np.flatnonzero(padding & (decoded != 0))[0]
        nodes = partition.node_tuples()[first + np.searchsorted(seg, bad, "right") - 1]
        raise ReliabilityError(
            f"padding symbols decoded non-zero in partition {list(nodes)}"
        )
    where = np.arange(len(cols)) + np.repeat(starts[desired:-1:k] - before, lens)
    recovered[partition.addresses[where] - desired * length] = got

    charged[first:end] = blocks * plan.block_queries
    max_lens = run_lens.reshape(-1, k).max(axis=1)
    return capacity_classical(k, size) * int(max_lens.sum())


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
) -> SimulationResult:
    """Independent (placement, retrieval) trials with the desired file cycled.

    The desired index cycles over all files for path coverage (the cost is
    symmetric in it by construction).  Each trial checks bit-exact recovery
    and that its total dominates the realization lower bound; a violation
    raises :class:`InvariantViolation` naming the trial.
    """
    if trials < 1:
        raise ValueError(f"need at least one trial, got {trials}")
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
            report = retrieve_file(
                store, partition, desired, derive_seed(trial_seed, 2)
            ).report
        except ReliabilityError as exc:
            raise ReliabilityError(f"trial {t}: {exc}") from exc
        bound = converse_bound_realization(partition)
        if report.total < bound:
            raise InvariantViolation(
                f"trial {t}: downloaded {report.total} bits, lower bound is {bound}"
            )
        rows.append(
            TrialRecord(
                trial=t,
                desired=desired,
                total=report.total,
                ideal=report.ideal,
                normalized=Fraction(report.total, file_len),
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
