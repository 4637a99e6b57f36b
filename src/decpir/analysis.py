"""Closed-form download-cost formulas, the per-realization lower bound,
its expectation under arbitrary per-bit caching marginals, and the exact
certificate that the uniform marginals minimize that expectation.

Every evaluator runs in exact rational arithmetic whenever its inputs are
rational; float inputs give floats.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import lcm
from operator import itemgetter, mul

import numpy as np

from .errors import BudgetViolation
from .model import StorageSetPartition


@lru_cache(maxsize=None)
def capacity_classical(num_files: int, num_replicas: int) -> Fraction:
    """Optimal normalized download cost for fully replicated stores.

    ``1 + 1/n + ... + 1/n**(K-1)`` for ``n`` replicas of ``K`` files, summed
    in closed form: ``K`` at ``n = 1``, else ``(n**K - 1) / ((n - 1) n**(K-1))``.
    """
    k, n = num_files, num_replicas
    if k < 1:
        raise ValueError(f"need at least one file, got {k}")
    if n < 1:
        raise ValueError(f"need at least one replica, got {n}")
    return Fraction(k) if n == 1 else Fraction(n**k - 1, (n - 1) * n ** (k - 1))


@lru_cache(maxsize=None)
def harmonic_weight(set_size: int, num_files: int) -> Fraction:
    """``1/l + 1/l**2 + ... + 1/l**(K-1)`` for storage-set size ``l``."""
    return capacity_classical(num_files, set_size) - 1


# 64 entries hold every row and numerator tuple of the K=10, N <= 30 figure
# grid, yet a sweep over large N, which reads each size once, keeps only the
# last 64 of its big tuples.
@lru_cache(maxsize=64)
def _binomial_row(n: int) -> tuple:
    """``(C(n, 0), ..., C(n, n))`` from ``C(n, j+1) = C(n, j) (n-j) / (j+1)``,
    each division exact."""
    row = [1]
    for j in range(n):
        row.append(row[-1] * (n - j) // (j + 1))
    return tuple(row)


def _power_products(a, c, top: int) -> list:
    """``[a**j * c**(top - j) for j in 0..top]`` from one power table each."""
    up = accumulate(repeat(a, top), mul, initial=1)
    down = list(accumulate(repeat(c, top), mul, initial=1))
    return [u * d for u, d in zip(up, reversed(down))]


@lru_cache(maxsize=64)
def _classical_numerators(num_files: int, max_replicas: int):
    """``capacity_classical(K, n)``, ``n = 1..max_replicas``, as integer
    numerators over the common denominator ``lcm(1..max_replicas)**(K-1)``."""
    den = lcm(*range(1, max_replicas + 1)) ** (num_files - 1)
    values = (capacity_classical(num_files, n) for n in range(1, max_replicas + 1))
    return tuple(c.numerator * (den // c.denominator) for c in values), den


def capacity_decentralized(num_files: int, num_dbs: int, mu):
    """Optimal expected normalized download cost with ``num_dbs`` caching
    databases of storage ratio ``mu`` plus the always-available data center.

    Averages the replicated-store cost over the binomial law of how many
    databases hold a bit:
    ``sum_n C(N, n-1) mu^(n-1) (1-mu)^(N+1-n) * (1 + 1/n + ... + 1/n^(K-1))``.
    Exact when ``mu = a/b`` is a Fraction or int: the integer weights
    ``C(N, n-1) a^(n-1) (b-a)^(N+1-n)`` meet the classical costs' numerators
    over one common denominator.  Float ``mu`` gives a float.  Both read
    ``C(N, .)`` from one cached binomial row.
    """
    if num_files < 1:
        raise ValueError(f"need at least one file, got {num_files}")
    if num_dbs < 0:
        raise ValueError(f"database count must be non-negative, got {num_dbs}")
    if not 0 <= mu <= 1:
        raise ValueError(f"storage ratio must lie in [0, 1], got {mu}")
    n, row = num_dbs, _binomial_row(num_dbs)
    if isinstance(mu, (int, Fraction)):
        a, b = mu.numerator, mu.denominator
        nums, den = _classical_numerators(num_files, n + 1)
        terms = zip(row, _power_products(a, b - a, n), nums)
        total = sum(r * t * c for r, t, c in terms)
        return Fraction(total, b**n * den)
    return sum(
        r * mu**j * (1 - mu) ** (n - j) * float(capacity_classical(num_files, j + 1))
        for j, r in enumerate(row)
    )


@dataclass(frozen=True)
class CentralizedEnvelope:
    """Storage/download tradeoff of the coordinated-placement counterpart.

    Corner ``t`` (0..N) stores ``t/N`` of the corpus per database and costs
    ``capacity_classical(K, t+1)``; arbitrary ratios are served by the lower
    convex envelope, which is the corners themselves: ``1/n**m`` is strictly
    convex in ``n``, so for ``K >= 2`` no corner lies on the chord of its
    neighbours or above it, and for ``K = 1`` every corner costs 1.
    """

    num_files: int
    num_dbs: int
    corners: tuple[tuple[Fraction, Fraction], ...]

    def evaluate(self, mu):
        if not 0 <= mu <= 1:
            raise ValueError(f"storage ratio must lie in [0, 1], got {mu}")
        # the corners run from x=0 to x=1 with strictly increasing x
        i = max(1, bisect_left(self.corners, mu, key=itemgetter(0)))
        (x0, y0), (x1, y1) = self.corners[i - 1], self.corners[i]
        return y0 + (y1 - y0) * (mu - x0) / (x1 - x0)


@lru_cache(maxsize=256)
def centralized_envelope(num_files: int, num_dbs: int) -> CentralizedEnvelope:
    if num_dbs < 1:
        raise ValueError(f"the envelope needs at least one database, got {num_dbs}")
    corners = tuple(
        (Fraction(t, num_dbs), capacity_classical(num_files, t + 1))
        for t in range(num_dbs + 1)
    )
    return CentralizedEnvelope(num_files, num_dbs, corners)


def converse_bound_realization(partition: StorageSetPartition) -> Fraction:
    """Download-cost lower bound implied by one realized placement.

    ``sum_S c(|S|) * mean_j l_{S,j}`` over storage sets ``S``, where
    ``l_{S,j}`` is set ``S``'s bits of file ``j`` and
    ``c = capacity_classical(K, .)``.  Any retrieval scheme that is reliable
    and hides the desired file must download at least this many bits from
    this placement, so simulated totals dominate it with zero tolerance.
    """
    k, by_size = partition.num_files, partition.bits_by_size()
    return sum(capacity_classical(k, l) * b for l, b in by_size.items()) / k


@dataclass(frozen=True)
class MarginalProfile:
    """Per-bit caching probabilities shared by every database.

    ``probs`` is a (K, L) array; Fraction or int entries keep the expectation
    evaluators exact, float entries give float expectations.
    ``levels`` maps each distinct marginal to its number of entries; it is
    built once, here, so ``probs`` must not be modified afterwards.  A
    ``probs`` that broadcasts one value (all strides zero, as
    :func:`uniform_profile` builds) is one level, read without a per-entry walk.
    """

    probs: np.ndarray
    levels: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.num_files < 1:
            raise ValueError(f"need at least one file, got {self.num_files}")
        if self.probs.size and not any(self.probs.strides):
            levels = {self.probs.flat[0]: self.probs.size}
        else:
            values, counts = np.unique(self.probs, return_counts=True)
            levels = dict(zip(values.tolist(), counts.tolist()))
        if any(not 0 <= p <= 1 for p in levels):
            raise ValueError("marginals must lie in [0, 1]")
        object.__setattr__(self, "levels", levels)

    @property
    def num_files(self) -> int:
        return self.probs.shape[0]

    @property
    def file_len(self) -> int:
        return self.probs.shape[1]

    def total(self):
        return sum(p * count for p, count in self.levels.items())

    def check_budget(self, mu) -> None:
        budget = mu * self.num_files * self.file_len
        total = self.total()
        slack = 1e-9 * self.num_files * self.file_len
        exact = all(isinstance(v, (int, Fraction)) for v in (total, budget))
        if not total <= budget + (0 if exact else slack):
            raise BudgetViolation(
                f"marginals sum to {total}, budget is {budget}"
            )


def uniform_profile(num_files: int, file_len: int, mu) -> MarginalProfile:
    if num_files < 1:
        raise ValueError(f"need at least one file, got {num_files}")
    if file_len < 0:
        raise ValueError(f"file length must be non-negative, got {file_len}")
    level = np.array(Fraction(mu), dtype=object)
    return MarginalProfile(np.broadcast_to(level, (num_files, file_len)))


def expected_size_masses(profile: MarginalProfile, num_dbs: int) -> tuple:
    """Expected per-slot bit mass of storage sets of each size ``l = 1..N+1``.

    ``C(N, l-1) / (K * C(N+1, l)) * sum_ij p_ij^(l-1) (1 - p_ij)^(N+1-l)``
    with ``C(N, l-1) / C(N+1, l) == l / (N+1)``, one power table per distinct
    marginal.  Fraction or int marginals give integer numerators over
    ``lcm(denominators)**N`` and one Fraction per size; a float gives floats.
    """
    if num_dbs < 0:
        raise ValueError(f"database count must be non-negative, got {num_dbs}")
    n, k, levels = num_dbs, profile.num_files, profile.levels
    exact = all(isinstance(p, (int, Fraction)) for p in levels)
    den = lcm(*(p.denominator for p in levels)) if exact else 1
    sums = [0] * (n + 1)
    for p, count in levels.items():
        a = p.numerator * (den // p.denominator) if exact else p
        sums = [s + count * t for s, t in zip(sums, _power_products(a, den - a, n))]
    scale = k * (n + 1) * den**n
    return tuple(
        Fraction(l * s, scale) if exact else l * s / scale
        for l, s in enumerate(sums, start=1)
    )


def expected_size_mass(profile: MarginalProfile, set_size: int, num_dbs: int):
    """Entry ``set_size - 1`` of :func:`expected_size_masses`."""
    if not 1 <= set_size <= num_dbs + 1:
        raise ValueError(f"set size must lie in 1..{num_dbs + 1}, got {set_size}")
    return expected_size_masses(profile, num_dbs)[set_size - 1]


def expected_converse_bound(
    profile: MarginalProfile, num_dbs: int, mu=None
):
    """Expectation of the realization bound under independent per-bit caching.

    ``L + sum_l C(N+1, l) h(l) m(l)`` over sizes ``l = 1..N+1``, with the
    masses ``m`` of :func:`expected_size_masses`, the cached harmonic
    weights ``h`` and the cached binomial row ``C(N+1, .)``: one product
    per size.  At the uniform profile ``p == mu`` this equals
    ``L * capacity_decentralized(K, N, mu)`` exactly.
    """
    if mu is not None:
        profile.check_budget(mu)
    k, length, n = profile.num_files, profile.file_len, num_dbs
    masses = expected_size_masses(profile, n)
    row = _binomial_row(n + 1)
    return length + sum(
        row[l] * harmonic_weight(l, k) * mass for l, mass in enumerate(masses, start=1)
    )


def uniform_optimality_certificate(num_files: int, num_dbs: int) -> tuple:
    """Largest first and smallest second difference of ``h(l)``, ``l = 1..N+1``.

    ``h = harmonic_weight(., K)``; ``None`` stands for a difference that
    ``N`` is too small to have (first below ``N = 1``, second below ``N = 2``).
    The expected bound is ``L + (1/K) sum_bits B(p_b)`` with the Bernstein
    polynomial ``B(p) = sum_j C(N, j) h(j+1) p^j (1-p)^(N-j)``: first
    differences ``<= 0`` make ``B`` nonincreasing and second differences
    ``>= 0`` make it convex, so by Jensen no profile with ``sum p <= mu K L``
    beats ``p == mu``, whose bound is ``L * capacity_decentralized(K, N, mu)``.
    ``h = c - 1`` has the differences of ``c = capacity_classical(K, .)``,
    read from its integer numerators over one common denominator.
    """
    if num_dbs < 0:
        raise ValueError(f"database count must be non-negative, got {num_dbs}")
    nums, den = _classical_numerators(num_files, num_dbs + 1)
    first = [b - a for a, b in zip(nums, nums[1:])]
    second = [b - a for a, b in zip(first, first[1:])]
    return (
        Fraction(max(first), den) if first else None,
        Fraction(min(second), den) if second else None,
    )
