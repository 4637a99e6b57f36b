"""End-to-end private retrieval across the data center and cached databases.

For each storage set of the partition the retriever runs one protocol session
over exactly the nodes of that set: replicated arrays for sets of two or more
nodes, each file zero-padded to a multiple of ``|S| ** K`` symbols
(:func:`_padded_blocks` is the one place that rule lives).  The
data-center-only set is downloaded whole at raw per-file lengths: its answer
string is the stored bits themselves, one per bit.
Decoded pieces are scattered back to their original addresses; the result
must equal the requested file bit-for-bit, and every downloaded bit (padding
included) is charged to the cost report.

All storage sets of one size share a block template, so their sessions run
as the segments of one plan: one padded ``(K, sum of lambda_S)`` symbol
matrix, one answer pass for all its stores and one decode per size.  One
``generator(seed)`` permutes every plan, sizes ascending, by the plan's
draw rule; each (set, file) row is still its own uniform permutation, so
each set's queries, answers and decoded bits are those of a session of its
own, drawn from the retrieval's seed and the canonical order.

The partition lists its sets in canonical order, sizes ascending, so the
sets of one size are one contiguous range of its arrays.  Everything but
the plan, answers and decode runs once per retrieval, over every set at
once: one array step gives every set's padded length and one pass the cell
of every cached bit in its size's padded matrix.  Per size, that matrix is
filled with one scatter, and the desired file's decoded symbols land in
that size's part of one row holding every set's segment, the
data-center-only set's raw bits first.  A size's plan and matrix are
released before the next size's are built.  Then one padding check over
that row and one scatter reassemble the file, and every set's charge comes
from the same arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
from .rng import derive_seed, generator

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


def _padded_blocks(partition: StorageSetPartition) -> tuple[list, np.ndarray]:
    """Runs of equal-size storage sets of two or more nodes, and every set's padding.

    Returns ``(groups, blocks)``: ``groups`` lists ``(size, first, end)`` per
    run of sets ``first .. end - 1`` in canonical order, and ``blocks[i]`` is
    set ``i``'s padded per-file length in ``size ** K``-symbol blocks, 0 for
    the data-center-only set, which is downloaded raw.  This is the padding
    rule: each file of a set is zero-padded to the smallest multiple of
    ``size ** K`` symbols that holds the set's longest file.
    """
    k, length, sizes = partition.num_files, partition.file_len, partition.sizes
    bounds = [0, *(np.flatnonzero(np.diff(sizes)) + 1).tolist(), len(sizes)]
    runs = [(int(sizes[first]), first, end) for first, end in zip(bounds, bounds[1:])]
    # max_len <= L, so a block longer than a file holds any set in one.
    units = [min(size**k, length) for size, _, _ in runs]
    blocks = -(-partition.lengths().max(axis=1) // np.repeat(units, np.diff(bounds)))
    if runs[0][0] == 1:
        blocks[0] = 0
    return [run for run in runs if run[0] > 1], blocks


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
    groups, blocks = _padded_blocks(partition)
    sizes, starts, addresses = partition.sizes, partition.starts, partition.addresses
    first_multi = int(sizes[0] == 1)  # the data-center-only set, first if present
    firsts = [first for _, first, _ in groups]
    counts = [end - first for _, first, end in groups]
    # Padded symbols, a Python int: |S|**K overflows int64 at large K.
    padded = int(starts[k]) * first_multi + sum(
        k * size**k * b
        for (size, _, _), b in zip(groups, np.add.reduceat(blocks, firsts).tolist())
    )
    if padded > MAX_PADDED_SYMBOLS:
        raise ValueError(
            f"the count of padded symbols exceeds the cap of {MAX_PADDED_SYMBOLS}; "
            "padded block sizes grow as |S|**K, so shrink K, N, or the storage ratio"
        )

    # Under the cap every block fits int64.  ``row`` holds the desired file's
    # symbols set after set, set i's segment width[i] symbols from seg[i]:
    # its padded length, or the data-center-only set's raw bits.
    lengths = partition.lengths()
    lens = lengths[:, desired]
    width = blocks * np.repeat([1] + [s**k for s, _, _ in groups], [first_multi] + counts)
    width[:first_multi] = lens[:first_multi]
    seg = np.cumsum(width) - width
    row = np.empty(int(width.sum()), dtype=np.uint8)
    bits = store.bits.reshape(-1)
    if first_multi:
        row[: lens[0]] = bits[addresses[starts[desired] : starts[desired + 1]]]

    # cells: where each cached bit of the sets from first_multi on lands in
    # its size's flat (K, symbols) padded matrix.  Run i * K + j holds set
    # i's bits of file j, and bit r of it lands in row j at column r plus
    # set i's segment start within its size.
    lo = int(starts[first_multi * k])
    # total[i - first_multi]: the padded symbols per file of set i's size.
    total = np.repeat(np.add.reduceat(width, firsts), counts)
    column = seg[first_multi:] - np.repeat(seg[firsts], counts)
    run_starts = (starts[first_multi * k : -1] - lo).reshape(-1, k)
    shift = np.arange(k) * total[:, None] + column[:, None] - run_starts
    cells = np.repeat(shift.reshape(-1), np.diff(starts[first_multi * k :]))
    cells += np.arange(len(cells))
    values = bits[addresses[lo:]]

    rng = generator(seed)  # every size's plan draws from it in turn
    block_queries = []
    for size, first, end in groups:
        a, b = starts[first * k] - lo, starts[end * k] - lo
        block_queries.append(
            _decode_size(
                size, k, desired, width[first:end].tolist(), rng, cells[a:b],
                values[a:b], row[seg[first] : seg[first] + total[first - first_multi]],
            )
        )

    # Set i's desired bits are the first lens[i] symbols of its segment and
    # the rest is padding, which decodes to zero exactly when no non-zero
    # symbol lies outside those columns.
    before = np.cumsum(lens) - lens
    cols = np.repeat(seg - before, lens)
    cols += np.arange(len(cols))
    got = row[cols]
    if np.count_nonzero(row) != np.count_nonzero(got):
        padding = np.ones(len(row), dtype=bool)
        padding[cols] = False
        bad = np.flatnonzero(padding & (row != 0))[0]
        nodes = partition.node_tuples()[np.searchsorted(seg, bad, "right") - 1]
        raise ReliabilityError(
            f"padding symbols decoded non-zero in partition {list(nodes)}"
        )
    where = np.repeat(starts[desired:-1:k] - before, lens)
    where += np.arange(len(where))
    recovered = np.zeros(length, dtype=np.uint8)
    recovered[addresses[where] - desired * length] = got
    if not np.array_equal(recovered, store.bits[desired]):
        raise ReliabilityError(f"recovered file {desired} differs from the source")

    # charged[i]: the bits downloaded from each node of storage set i; the
    # data-center-only set's one node sends every bit it alone stores.
    charged = blocks * np.repeat([0] + block_queries, [first_multi] + counts)
    charged[:first_multi] = starts[k]
    max_lens = np.add.reduceat(lengths.max(axis=1), firsts).tolist()
    ideal = sum(
        (capacity_classical(k, s) * m for (s, _, _), m in zip(groups, max_lens)),
        Fraction(int(starts[k]) * first_multi),
    )
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


def _decode_size(
    size: int,
    k: int,
    desired: int,
    lams: list,
    rng: np.random.Generator,
    cells: np.ndarray,
    values: np.ndarray,
    into: np.ndarray,
) -> int:
    """Run storage sets of ``size`` nodes, ``lams`` padded symbols each, as one plan.

    Set ``i`` of the run is segment ``i`` of the plan, its permutations
    drawn from ``rng`` by the plan's run rule, so its queries, answers and
    decoded symbols are those of a session of its own.  The padded
    ``(K, sum(lams))`` matrix holds ``values`` at the flat ``cells`` and
    zeros elsewhere; the desired file's decoded symbols go to ``into``.
    Returns each store's queries per block.  The plan and the matrix are
    released on return, before the next size's are built.
    """
    plan = generate_query_plan(size, k, desired, lams, rng)
    padded = np.zeros((k, plan.num_symbols), dtype=np.uint8)
    padded.reshape(-1)[cells] = values
    into[:] = decode_desired(plan, answer_queries(plan, padded))
    return plan.block_queries


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
