"""Statistical indistinguishability testing of retrieval transcripts.

Structural invariance (identical per-store query histograms for every
desired file) is exact and checked directly.  The distributional check runs
many independent sessions per desired file, bins each store's sorted
transcript serialization, and applies a two-sample chi-square test per
(store, file pair); the scheme passes when no comparison is significant.
Sorting the lines compares the store-visible query set rather than the
construction order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations

from .protocol import (
    generate_query_plan,
    plan_transcripts,
    structural_privacy_histogram,
)
from .rng import derive_seed


def two_sample_chisquare(counts_a: Counter, counts_b: Counter):
    """Pearson chi-square for whether two observed samples share one law.

    Returns (statistic, degrees of freedom, p-value).  Identical
    single-support samples have zero degrees of freedom and p-value 1.
    """
    from scipy.stats import chi2  # here, or it dominates `import decpir`

    bins = sorted(set(counts_a) | set(counts_b))
    n_a = sum(counts_a.values())
    n_b = sum(counts_b.values())
    total = n_a + n_b
    stat = 0.0
    for b in bins:
        col = counts_a.get(b, 0) + counts_b.get(b, 0)
        for n_i, counts in ((n_a, counts_a), (n_b, counts_b)):
            expected = n_i * col / total
            stat += (counts.get(b, 0) - expected) ** 2 / expected
    df = len(bins) - 1
    p_value = float(chi2.sf(stat, df)) if df > 0 else 1.0
    return stat, df, p_value


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
    for desired in range(num_files):
        for session in range(sessions):
            plan = generate_query_plan(
                num_replicas,
                num_files,
                desired,
                num_symbols,
                derive_seed(seed, desired, session),
                permute=permute,
            )
            if session == 0:
                hist = structural_privacy_histogram(plan)
                if reference is None:
                    reference = hist
                elif hist != reference:
                    structural_ok = False
            for store, transcript in enumerate(plan_transcripts(plan, sort=True)):
                per_store_counts[desired][store][transcript] += 1

    comparisons = []
    for a, b in combinations(range(num_files), 2):
        for store in range(num_replicas):
            stat, df, p = two_sample_chisquare(
                per_store_counts[a][store], per_store_counts[b][store]
            )
            comparisons.append(PairComparison(store, a, b, stat, df, p))
    return PrivacyTestResult(structural_ok, tuple(comparisons), significance)
