"""Statistical indistinguishability testing of retrieval transcripts.

Structural invariance (identical per-store query histograms for every
desired file) is exact and checked directly on ``plan.segment(0)``, each
desired file's first session.  The distributional check runs many
independent sessions per desired file, bins each store's transcript by a
canonical key, and applies a two-sample chi-square test per (store, file
pair); the scheme passes when no comparison is significant.  The key sorts
the queries, so it compares the store-visible query set rather than the
construction order.

Session ``s`` for desired file ``d`` has seed ``derive_seed(seed, d, s)``.
The sessions of one desired file run as the equal segments of one plan, as
many at a time as fit in ``_CHUNK_SYMBOLS`` symbols, so memory stays bounded
for any session count; every session keeps its own seed, so the result does
not depend on the chunking.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import Mapping

import numpy as np

from .protocol import (
    QueryPlan,
    generate_query_plan,
    plan_transcripts,  # unused here; the benchmark's tracer looks it up in this module
    structural_privacy_histogram,
)
from .rng import derive_seeds

# Symbols per plan (a plan takes at least one session): a plan's arrays grow
# with its symbols, so this bounds memory for any session count and length.
_CHUNK_SYMBOLS = 1 << 16


def two_sample_chisquare(counts_a: Mapping, counts_b: Mapping):
    """Pearson chi-square for whether two observed samples share one law.

    Returns (statistic, degrees of freedom, p-value).  Identical
    single-support samples have zero degrees of freedom and p-value 1.  The
    terms are summed exactly rounded, so the statistic does not depend on
    the order of the bins.
    """
    from scipy.special import chdtrc  # here, or it dominates `import decpir`

    bins = set(counts_a) | set(counts_b)
    n_a = sum(counts_a.values())
    n_b = sum(counts_b.values())
    total = n_a + n_b
    terms = []
    for b in bins:
        col = counts_a.get(b, 0) + counts_b.get(b, 0)
        for n_i, counts in ((n_a, counts_a), (n_b, counts_b)):
            expected = n_i * col / total
            terms.append((counts.get(b, 0) - expected) ** 2 / expected)
    stat = math.fsum(terms)
    df = len(bins) - 1
    p_value = float(chdtrc(df, stat)) if df > 0 else 1.0
    return stat, df, p_value


def _session_keys(plan: QueryPlan, sessions: int) -> list[list[bytes]]:
    """Per store, one canonical transcript key per segment of ``plan``.

    ``plan`` holds ``sessions`` segments of equal length.  A query becomes
    the row, by file, of its terms' segment-local indices plus one, with 0
    for the files it leaves out; a query holds each file at most once, so
    the row determines it.  A session's key is the bytes of its rows in
    lexicographic order, so two sessions get one key exactly when the store
    sees the same set of queries in both.
    """
    lam = plan.num_symbols // sessions
    keys = []
    for q in plan.stores:
        per_session = len(q) // sessions
        query = np.repeat(np.arange(len(q)), q.orders)
        rows = np.zeros((len(q), plan.num_files), dtype=np.int64)
        rows[query, q.files] = q.indices - query // per_session * lam + 1
        rows = rows.reshape(sessions, per_session, -1)
        # Sort each session's rows, the first column most significant.
        order = np.lexsort(rows.transpose(2, 0, 1)[::-1], axis=-1)
        rows = np.take_along_axis(rows, order[..., None], axis=1)
        keys.append(list(map(bytes, rows.reshape(sessions, -1))))
    return keys


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

    ``permute=False`` is the negative control: without per-file permutations
    transcripts are deterministic and distinguish the desired file, so the
    distribution test must fail.
    """
    check_instance(num_files, num_replicas, num_symbols)
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
    per_store_counts = [
        [Counter() for _ in range(num_replicas)] for _ in range(num_files)
    ]
    chunk = max(1, _CHUNK_SYMBOLS // num_symbols)
    for desired in range(num_files):
        for first in range(0, sessions, chunk):
            count = min(chunk, sessions - first)
            plan = generate_query_plan(
                num_replicas,
                num_files,
                desired,
                [num_symbols] * count,
                derive_seeds(seed, desired, indices=range(first, first + count)),
                permute=permute,
            )
            if first == 0:
                hist = structural_privacy_histogram(plan.segment(0))
                if reference is None:
                    reference = hist
                elif hist != reference:
                    structural_ok = False
            keys = _session_keys(plan, count)
            for counts, store_keys in zip(per_store_counts[desired], keys):
                counts.update(store_keys)

    comparisons = []
    for a, b in combinations(range(num_files), 2):
        for store in range(num_replicas):
            stat, df, p = two_sample_chisquare(
                per_store_counts[a][store], per_store_counts[b][store]
            )
            comparisons.append(PairComparison(store, a, b, stat, df, p))
    return PrivacyTestResult(structural_ok, tuple(comparisons), significance)
