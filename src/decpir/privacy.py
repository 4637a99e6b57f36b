"""Statistical indistinguishability testing of retrieval transcripts.

Structural invariance (one query histogram, shared by every store, that is
the same for every desired file) is exact and checked on each desired file's
first plan; those plans hold equally many sessions of equal length, and the
histogram is the block template's, cached per shape and scaled by the block
count.  The distributional check runs many independent sessions per desired
file, bins each store's transcript by a canonical key, and applies a
two-sample chi-square test per (store, file pair); the scheme passes when no
comparison is significant.  The key sorts the queries' codes, gathered
through the block template like answers, so it compares the store-visible
query set rather than the construction order.  Each comparison is a row of
two count matrices, and one statistics pass takes a batch of ``K * n``
rows, so a batch is no larger than the count matrix; up to three files that
is every comparison.  A pass computes the terms of each distinct (row,
count pair) once, with its multiplicity, and the p-value of each distinct
statistic once.  The p-values are chi-square upper tails at integer
degrees of freedom, which have a closed form (:func:`_chisquare_tail`), so
the test needs numpy and nothing more.

Session ``s`` for desired file ``d`` has seed ``derive_seed(seed, d, s)``.
The seeds of all ``K * sessions`` sessions are derived in one array pass,
desired file by desired file, and hashed in one pass, and each plan takes
an ``islice`` of their generators, one per session.  The sessions of one
desired file run as the equal segments of one plan, as many at a time as
fit in ``_CHUNK_SYMBOLS`` symbols, and keys are folded into the bins about
as often, so memory stays bounded for any session count but for the seeds'
hashed words, 32 bytes a session; every session keeps its own seed, so the
result does not depend on the chunking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, islice

import numpy as np

from .analysis import capacity_classical
from .protocol import (
    QueryPlan,
    generate_query_plan,
    plan_transcripts,  # unused here; the benchmark's tracer looks it up in this module
    structural_privacy_histogram,
)
from .rng import derive_seed_grid, generators

# Bits one test's sessions may download, one per sum query.
MAX_PRIVACY_DOWNLOAD_BITS = 50_000_000
# Terms of the block templates one test builds, one per desired file of
# K * n**K terms each: up to K = 13 at n = 2, about 0.1 s of builds.
MAX_TEMPLATE_TERMS = 1 << 21

# Symbols per plan (a plan takes at least one session): a plan's arrays grow
# with its symbols, so this bounds memory for any session count and length.
_CHUNK_SYMBOLS = 1 << 16

# Below this y, e**-y is a normal double and e**y no overflow, so the tail's
# sum runs directly; at or above it, in units of its largest term.
_EXP_FLOOR = 700.0
_GAMMA_3_2 = math.gamma(1.5)
# Veltkamp's splitter 2**27 + 1: ``c = x * _SPLITTER`` and ``c - (c - x)``
# round x to its high 26 bits, and the rest of x fits in 26 bits too.
_SPLITTER = float(2**27 + 1)


def two_sample_chisquare(counts_a, counts_b):
    """Pearson chi-square for whether two observed samples share one law.

    The samples are count arrays over the same bins; bins empty in both are
    left out.  Returns (statistic, degrees of freedom, p-value); identical
    single-support samples have zero degrees of freedom and p-value 1.  The
    terms are summed exactly rounded, so the order of the bins is moot.
    Unequal lengths, a negative or fractional count or an empty sample raise
    ``ValueError``.  This is one comparison of :func:`_chisquare_rows`.
    """
    a, b = np.asarray(counts_a), np.asarray(counts_b)
    if a.ndim != 1 or a.shape != b.shape:
        raise ValueError("need two count arrays over the same bins")
    return _chisquare_rows(a[None], b[None])[0]


def _chisquare_rows(counts_a, counts_b) -> list[tuple[float, int, float]]:
    """:func:`two_sample_chisquare` of each row pair of two integer count matrices.

    ``counts_a`` and ``counts_b`` have one row per comparison and one column
    per bin.  A bin's two terms depend only on its row and its two counts,
    so they are computed once per distinct (row, count_a, count_b) triple:
    each row's pairs, coded ``a * (max b + 1) + b``, are sorted, and a run
    of one code is one triple, its length the triple's multiplicity.  While
    the counts' products stay below 2**53, every count of a kept bin is
    below 2**27, so the codes stay below 2**54, the counts are exact, and
    so are the expected counts' products; the quotients are IEEE divisions,
    and Python's float power squares each difference, as numpy's square can
    differ from it in the last bit.  Each term is split into two halves of
    at most 26 bits (Veltkamp), whose products with a multiplicity below
    2**27 are exact, and each row's products are summed exactly rounded,
    which is the exactly rounded sum of its bins' terms.  Each distinct
    (dof, statistic) takes one :func:`_chisquare_tail`.
    """
    observed = np.stack([counts_a, counts_b])
    if observed.min(initial=0) < 0:
        raise ValueError("counts must be non-negative")
    # Fractional counts could share a code: with b at most 1.5, the pairs
    # (1, 0.5) and (0.5, 1.5) both code 2.5.
    if observed.dtype.kind == "f" and (observed % 1).any():
        raise ValueError("counts must be integers")
    sizes = observed.sum(axis=2)
    if not sizes.all():
        raise ValueError("each sample needs at least one observation")
    a, b = observed
    span = int(b.max(initial=0)) + 1
    codes = a * span + b
    codes.sort(axis=1)
    # Code 0 is the bins empty in both samples, which sort first in a row.
    kept = np.count_nonzero(codes, axis=1)
    first = np.ones(codes.shape, dtype=bool)
    np.not_equal(codes[:, 1:], codes[:, :-1], out=first[:, 1:])
    starts = np.flatnonzero(first)
    runs = np.diff(starts, append=codes.size)
    distinct = codes.ravel()[starts]
    full = distinct != 0
    row, runs = starts[full] // codes.shape[1], runs[full]
    pairs = np.divmod(distinct[full], span)
    n = sizes[:, row]
    expected = n * (pairs[0] + pairs[1]) / n.sum(axis=0)
    diffs = (pairs - expected).ravel().tolist()
    terms = np.array([d**2 for d in diffs]).reshape(expected.shape) / expected
    scaled = terms * _SPLITTER
    high = scaled - (scaled - terms)
    # Each triple's four exact products in a run, the triples row by row.
    parts = (np.stack([high, terms - high]) * runs).reshape(4, -1).T.ravel().tolist()
    ends = (4 * np.searchsorted(row, np.arange(len(codes)), side="right")).tolist()
    stats = [math.fsum(parts[start:end]) for start, end in zip([0, *ends], ends)]
    dof = (kept - 1).tolist()
    tails = {}
    for d, x in zip(dof, stats):
        if d and (d, x) not in tails:
            tails[d, x] = _chisquare_tail(d, x)
    return [(x, d, tails[d, x] if d else 1.0) for d, x in zip(dof, stats)]


def _chisquare_tail(dof: int, x: float) -> float:
    """The chi-square upper tail ``P(X >= x)`` at ``dof >= 1`` degrees of freedom.

    With ``y = x / 2``, ``m = dof // 2`` and ``a = dof % 2 / 2``, it is
    ``erfc(sqrt(y))`` (odd ``dof`` only) plus the ``m`` terms
    ``t_k = e**-y * y**(k + a) / Gamma(k + a + 1)``, ``k < m``: at ``dof = 2``
    exactly ``exp(-y)``, at ``dof = 1`` exactly ``erfc(sqrt(y))``.  The sum
    runs by Horner from its innermost term, and every term is positive, so
    nothing cancels.  Where ``e**-y`` underflows, the terms are taken in
    units of the largest, whose log avoids the cancelling ``-y``,
    ``s * log(y)`` and ``lgamma`` terms (:func:`_log_term`); if the terms
    peak inside the sum, the tail is one minus the terms from ``m`` on.
    """
    y, m, a = x / 2, dof // 2, dof % 2 / 2
    head = math.erfc(math.sqrt(y)) if a else 0.0
    if not m:
        return head
    if y < _EXP_FLOOR:
        s, d = 1.0, m - 1 + a  # d runs over k + a, k = m - 1 .. 1, exactly
        for _ in range(m - 1):
            s = 1.0 + s * y / d
            d -= 1.0
        return head + math.exp(-y) * (math.sqrt(y) / _GAMMA_3_2 if a else 1.0) * s
    last = m - 1 + a
    if last <= y:  # the terms grow up to the last: t_k / t_last = prod (i + a) / y
        s = 1.0
        for i in range(1, m):
            s = 1.0 + s * (i + a) / y
        return head + math.exp(_log_term(last, y) + math.log(s))
    # The terms peak inside the sum, so take one minus the terms from m on:
    # they fall from the first, t_(m+j) / t_(m+j-1) = y / (m + a + j) < 1.
    first = m + a
    s = term = 1.0
    j = 1
    while term > 2**-60 * s:
        term *= y / (first + j)
        s += term
        j += 1
    return 1.0 - math.exp(_log_term(first, y) + math.log(s))


def _log_term(s: float, y: float) -> float:
    """``log(e**-y * y**s / Gamma(s + 1))`` for ``s >= 0`` and ``y >= 700``.

    From ``s = 16`` on, Stirling's series for ``lgamma(s + 1)`` cancels the
    large terms analytically, leaving ``s * log1p((y - s) / s) - (y - s)``:
    its rounding error is about ``|s * log(y / s)|`` ulps of 1 rather than
    ``y`` ulps, and the series terms past ``s**-9`` are below ``2**-52``.
    """
    if s < 16:
        return -y + s * math.log(y) - math.lgamma(s + 1)
    q = 1 / (s * s)
    stirling = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - q / 1188) * q) * q) * q) / s
    gap = y - s
    return s * math.log1p(gap / s) - gap - 0.5 * math.log(2 * math.pi * s) - stirling


def _session_keys(plan: QueryPlan, sessions: int) -> np.ndarray:
    """The canonical keys of ``plan``'s segments, one row per store and session.

    ``plan`` holds ``sessions`` segments of ``lam`` symbols.  A query is a
    row of exact ``int64`` words: each term puts its segment-local index plus
    one at its file's place in base ``lam + 1``, as many places a word as stay
    below ``2**63``.  A session's key is its rows sorted, so two sessions get
    one key exactly when the store sees the same set of queries in both.
    """
    n, k, block, blocks = plan.num_replicas, plan.num_files, plan.block, plan.blocks
    lam = plan.num_symbols // sessions
    word, place = np.divmod(np.arange(k), min(63 // lam.bit_length(), k))
    # weight[w, j]: file j's place value in word w, zero in the other words.
    weight = np.where(word == np.arange(word[-1] + 1)[:, None], (lam + 1) ** place, 0)
    words = len(weight)
    # table[w, j * block + c, b]: word w of counter c of file j in block b,
    # its segment-local index plus one at j's place; the last row stays zero
    # for the terms past a query's end.  Block b lies in the segment that
    # starts at symbol b // (blocks // sessions) * lam.
    table = np.zeros((words, k * block + 1, blocks), dtype=np.int64)
    cells = table[:, :-1].reshape(words, k, block, blocks)
    local = plan.permutations.reshape(k, blocks, block).transpose(0, 2, 1).copy()
    local -= np.arange(blocks) // (blocks // sessions) * lam - 1
    np.multiply(local, weight[..., None, None], out=cells)
    del local
    # Each query's code sums its terms' table rows one term slot at a time,
    # so no array holds every slot: codes[w, d, q, b].
    terms = plan._template.terms
    codes = np.take(table, terms[0], axis=1)
    for slot in terms[1:]:
        codes += np.take(table, slot, axis=1)
    # One row per store and session, its blocks' queries in any order.
    codes = codes.reshape(words, n, plan.block_queries, sessions, -1)
    codes = codes.transpose(1, 3, 2, 4, 0).reshape(n * sessions, -1, words)
    if words == 1:  # one word a row: far cheaper than a lexsort
        return np.sort(codes, axis=1).reshape(len(codes), -1)
    order = np.lexsort(np.moveaxis(codes, -1, 0), axis=-1)
    return np.take_along_axis(codes, order[..., None], axis=1).reshape(len(codes), -1)


def unique_rows(rows: np.ndarray, **kwargs):
    """``np.unique`` over a 2-D array's rows as raw bytes: like ``axis=0``, cheaper."""
    rows = np.ascontiguousarray(rows)
    return np.unique(rows.view(f"V{rows.shape[1] * rows.itemsize}")[:, 0], **kwargs)


def _bin_keys(bins, pending, owners: int):
    """Add the ``(owner, keys)`` pairs of ``pending`` to ``bins``.

    The bins are the distinct keys so far and their (owner, key) counts,
    ``None`` before any keys; only they are kept, so memory follows the bins.
    """
    keys, owned = [k for _, k in pending], np.concatenate([o for o, _ in pending])
    distinct, counts = bins or (keys[0][:0], np.zeros((owners, 0), np.int64))
    merged, where = unique_rows(np.concatenate([distinct, *keys]), return_inverse=True)
    cells = owned * len(merged) + where[len(distinct) :]
    total = np.bincount(cells, minlength=owners * len(merged)).reshape(owners, -1)
    total[:, where[: len(distinct)]] += counts
    return merged.view(np.int64).reshape(len(merged), -1), total


@dataclass(frozen=True)
class PairComparison:
    store: int
    desired_a: int
    desired_b: int
    statistic: float
    dof: int
    p_value: float


@dataclass(frozen=True)
class PrivacyTestResult:
    structural_ok: bool
    comparisons: tuple[PairComparison, ...]
    significance: float

    @property
    def distribution_ok(self) -> bool:
        return all(c.p_value > self.significance for c in self.comparisons)

    @property
    def ok(self) -> bool:
        return self.structural_ok and self.distribution_ok


def check_instance(num_files: int, num_replicas: int, num_symbols: int) -> None:
    """Refuse instances with nothing to compare: a pass there would be vacuous.

    The test compares transcripts between pairs of desired files, so it needs
    at least two files, one store and one symbol per file.
    """
    if num_files < 2:
        raise ValueError(
            f"need at least two files to compare transcripts, got {num_files}"
        )
    if num_replicas < 1:
        raise ValueError(f"need at least one replica, got {num_replicas}")
    if num_symbols < 1:
        raise ValueError(
            f"need at least one symbol per file to compare transcripts, "
            f"got {num_symbols}"
        )


def transcript_distribution_test(
    num_files: int,
    num_replicas: int,
    num_symbols: int,
    sessions: int,
    seed: int,
    permute: bool = True,
    significance: float = 0.01,
) -> PrivacyTestResult:
    """Run the structural and distributional privacy checks.

    Keys are binned by ``np.unique``, a plan's worth at a time, into one
    count matrix by (desired file, store) and key, and each store's rows are
    compared pairwise, every pair as one row of :func:`_chisquare_rows`.
    ``permute=False`` is the negative control: without per-file permutations
    transcripts are deterministic and distinguish the desired file, so the
    test must fail.  A test past the download or template-term cap is
    refused with ``ValueError`` before any plan or template is built.
    """
    check_instance(num_files, num_replicas, num_symbols)
    # One bit per query: what the sessions of all K desired files download.
    per_file = sessions * num_symbols * capacity_classical(num_files, num_replicas)
    if num_files * per_file > MAX_PRIVACY_DOWNLOAD_BITS:
        raise ValueError(
            f"privacy test too large: its sessions would download more than "
            f"the {MAX_PRIVACY_DOWNLOAD_BITS}-bit cap"
        )
    if num_files**2 * num_replicas**num_files > MAX_TEMPLATE_TERMS:
        raise ValueError(
            f"privacy test too large: its block templates, K * n**K terms for "
            f"each of the K desired files, would hold more than "
            f"{MAX_TEMPLATE_TERMS} terms"
        )
    if not 0 < significance < 1:
        # At or below 0 no p-value is significant, at or above 1 every one
        # is, so the verdict would not depend on the transcripts.
        raise ValueError(
            f"significance must lie strictly between 0 and 1, got {significance}"
        )
    if sessions < 2:
        raise ValueError(f"need at least two sessions, got {sessions}")

    structural_ok = True
    reference = None
    # Keys are owned by (desired file, store); ``pending`` ones not yet binned.
    bins, pending, owners = None, [], num_files * num_replicas
    chunk = max(1, _CHUNK_SYMBOLS // num_symbols)
    # Desired-major, as the plans take them.  The hash pass runs when the
    # first generator is taken, so unpermuted plans, which take none, run none.
    stream = generators(
        derive_seed_grid(seed, outer=range(num_files), inner=range(sessions))
    )
    for desired in range(num_files):
        for first in range(0, sessions, chunk):
            if sum(len(keys) for _, keys in pending) >= chunk * num_replicas:
                bins, pending = _bin_keys(bins, pending, owners), []
            count = min(chunk, sessions - first)
            plan = generate_query_plan(
                num_replicas,
                num_files,
                desired,
                [num_symbols] * count,
                islice(stream, count),
                permute=permute,
            )
            if first == 0:
                hist = structural_privacy_histogram(plan)
                if reference is None:
                    reference = hist
                elif hist != reference:
                    structural_ok = False
            owner = np.arange(num_replicas).repeat(count) + desired * num_replicas
            pending.append((owner, _session_keys(plan, count)))

    counts = _bin_keys(bins, pending, owners)[1].reshape(num_files, num_replicas, -1)
    pairs = [
        (store, a, b)
        for a, b in combinations(range(num_files), 2)
        for store in range(num_replicas)
    ]
    stores, a, b = np.array(pairs).T
    comparisons = []
    # Batches of ``owners`` comparisons: no larger than the count matrix.
    for lo in range(0, len(pairs), owners):
        batch = slice(lo, lo + owners)
        results = _chisquare_rows(
            counts[a[batch], stores[batch]], counts[b[batch], stores[batch]]
        )
        comparisons += [PairComparison(*p, *r) for p, r in zip(pairs[batch], results)]
    return PrivacyTestResult(structural_ok, tuple(comparisons), significance)
