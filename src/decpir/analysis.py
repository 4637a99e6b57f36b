"""Closed-form download-cost formulas, the per-realization lower bound,
its expectation under arbitrary per-bit caching marginals, and a numerical
minimizer over those marginals.

All closed-form evaluators run in exact rational arithmetic whenever the
inputs are rational; floating point is confined to the optimizer.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import comb, lcm
from operator import itemgetter, mul
from typing import Callable

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


def harmonic_weight(set_size: int, num_files: int) -> Fraction:
    """``1/l + 1/l**2 + ... + 1/l**(K-1)`` for storage-set size ``l``."""
    return capacity_classical(num_files, set_size) - 1


def _power_products(a, c, top: int) -> list:
    """``[a**j * c**(top - j) for j in 0..top]`` from one power table each."""
    up = accumulate(repeat(a, top), mul, initial=1)
    down = list(accumulate(repeat(c, top), mul, initial=1))
    return [u * d for u, d in zip(up, reversed(down))]


@lru_cache(maxsize=256)
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
    over one common denominator.  Float ``mu`` gives a float.
    """
    if num_files < 1:
        raise ValueError(f"need at least one file, got {num_files}")
    if num_dbs < 0:
        raise ValueError(f"database count must be non-negative, got {num_dbs}")
    if not 0 <= mu <= 1:
        raise ValueError(f"storage ratio must lie in [0, 1], got {mu}")
    n = num_dbs
    if isinstance(mu, (int, Fraction)):
        a, b = mu.numerator, mu.denominator
        nums, den = _classical_numerators(num_files, n + 1)
        terms = zip(_power_products(a, b - a, n), nums)
        total = sum(comb(n, j) * t * c for j, (t, c) in enumerate(terms))
        return Fraction(total, b**n * den)
    return sum(
        comb(n, j) * mu**j * (1 - mu) ** (n - j)
        * float(capacity_classical(num_files, j + 1))
        for j in range(n + 1)
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
    evaluators exact, float entries are what the optimizer works with.
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


def _check_profile_shape(num_files: int, file_len: int) -> None:
    if num_files < 1:
        raise ValueError(f"need at least one file, got {num_files}")
    if file_len < 0:
        raise ValueError(f"file length must be non-negative, got {file_len}")


def uniform_profile(num_files: int, file_len: int, mu) -> MarginalProfile:
    _check_profile_shape(num_files, file_len)
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

    At the uniform profile ``p == mu`` this equals
    ``L * capacity_decentralized(K, N, mu)`` exactly.
    """
    if mu is not None:
        profile.check_budget(mu)
    k, length, n = profile.num_files, profile.file_len, num_dbs
    return length + sum(
        comb(n + 1, l) * harmonic_weight(l, k) * mass
        for l, mass in enumerate(expected_size_masses(profile, n), start=1)
    )


# ---------------------------------------------------------------------------
# Minimization of the expected bound over feasible marginal profiles.
# ---------------------------------------------------------------------------

# A descent stops after this many steps or at this projected-gradient norm.
_MAX_ITER = 100_000
_GRAD_TOL = 1e-10


@dataclass(frozen=True)
class BoundMinimization:
    """Outcome of :func:`minimize_expected_bound`.

    ``pg_norm_uniform`` is the projected-gradient norm at the uniform
    profile; a value near zero means uniform is stationary.  ``per_size_*``
    report the expected per-size masses at the best point and at uniform so
    per-size behavior can be inspected separately from the aggregate.
    """

    best_probs: np.ndarray
    best_value: float
    uniform_value: float
    pg_norm_uniform: float
    pg_norm_best: float
    converged: bool
    iterations: int
    restart_values: tuple[float, ...]
    per_size_best: tuple[float, ...]
    per_size_uniform: tuple[float, ...]


def project_capped_simplex(p: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto ``{q in [0,1]^d : sum(q) <= budget}``.

    Clips to the box; if the clipped point still overshoots the budget,
    shifts by the scalar that lands the clipped sum on the budget face
    (solved by bisection to 1e-14).
    """
    q = np.clip(p, 0.0, 1.0)
    if q.sum() <= budget + 1e-12:
        return q
    lo, hi = 0.0, float(p.max())
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        s = np.clip(p - tau, 0.0, 1.0).sum()
        if s > budget:
            lo = tau
        else:
            hi = tau
        if hi - lo < 1e-14:
            break
    return np.clip(p - hi, 0.0, 1.0)


def _objective_factory(
    num_files: int, num_dbs: int, file_len: int
) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
    k, n = num_files, num_dbs
    coeffs = [
        comb(n, l - 1) * float(harmonic_weight(l, k)) / k for l in range(1, n + 2)
    ]

    def f_grad(p: np.ndarray) -> tuple[float, np.ndarray]:
        value = 0.0
        grad = np.zeros_like(p)
        one_minus = 1.0 - p
        for l, c in enumerate(coeffs, start=1):
            a, b = l - 1, n + 1 - l
            pa = p**a
            qb = one_minus**b
            value += c * float((pa * qb).sum())
            if a > 0:
                grad += c * a * p ** (a - 1) * qb
            if b > 0:
                grad -= c * b * pa * one_minus ** (b - 1)
        return file_len + value, grad

    return f_grad


def _pg_norm(p, grad, budget):
    return float(np.linalg.norm(p - project_capped_simplex(p - grad, budget)))


def minimize_expected_bound(
    num_files: int,
    num_dbs: int,
    mu,
    file_len: int,
    restarts: int = 20,
    seed: int = 0,
) -> BoundMinimization:
    """Minimize the expected bound over feasible marginal profiles.

    Projected gradient descent with backtracking line search, restarted from
    the uniform profile and ``restarts`` random feasible points; restarts
    reduce by minimum value.  Non-convergence within the iteration cap is
    flagged, not raised; fewer than one file, a negative file length,
    database count or restart count raises ``ValueError``.
    """
    _check_profile_shape(num_files, file_len)
    if num_dbs < 0:
        raise ValueError(f"database count must be non-negative, got {num_dbs}")
    if restarts < 0:
        raise ValueError(f"restart count must be non-negative, got {restarts}")
    dim = num_files * file_len
    if dim > 10_000:
        raise ValueError(f"{dim} variables exceeds the dense-optimization limit")
    budget = float(mu) * dim
    f_grad = _objective_factory(num_files, num_dbs, file_len)
    rng = np.random.Generator(np.random.PCG64(seed))

    uniform = np.full(dim, float(mu))
    u_value, u_grad = f_grad(uniform)
    pg_uniform = _pg_norm(uniform, u_grad, budget)

    def descend(start: np.ndarray) -> tuple[np.ndarray, float, float, bool, int]:
        p = project_capped_simplex(start, budget)
        value, grad = f_grad(p)
        for it in range(_MAX_ITER):
            if _pg_norm(p, grad, budget) <= _GRAD_TOL:
                return p, value, _pg_norm(p, grad, budget), True, it
            step = 1.0
            accepted = False
            while step > 1e-18:
                cand = project_capped_simplex(p - step * grad, budget)
                move = cand - p
                cand_value, cand_grad = f_grad(cand)
                # strict decrease: once the quadratic term underflows, an
                # unchanged value must not count as progress or the loop
                # micro-cycles until the iteration cap
                if cand_value < value - 1e-4 * float(np.dot(move, move)) / step:
                    accepted = True
                    break
                step *= 0.5
            if not accepted or float(np.abs(move).max()) <= 1e-13:
                # numerically stationary: no measurable progress possible
                return p, value, _pg_norm(p, grad, budget), True, it
            p, value, grad = cand, cand_value, cand_grad
        return p, value, _pg_norm(p, grad, budget), False, _MAX_ITER

    starts = [uniform] + [rng.random(dim) for _ in range(restarts)]
    best = None
    restart_values = []
    total_iters = 0
    all_converged = True
    for start in starts:
        p, value, pg, converged, iters = descend(start)
        restart_values.append(value)
        total_iters += iters
        all_converged = all_converged and converged
        if best is None or value < best[1]:
            best = (p, value, pg, converged)

    best_p, best_value, pg_best, best_converged = best
    best_profile = MarginalProfile(best_p.reshape(num_files, file_len))
    uniform_profile_f = MarginalProfile(uniform.reshape(num_files, file_len))
    per_size_best = tuple(map(float, expected_size_masses(best_profile, num_dbs)))
    per_size_uniform = tuple(map(float, expected_size_masses(uniform_profile_f, num_dbs)))
    return BoundMinimization(
        best_probs=best_p.reshape(num_files, file_len),
        best_value=best_value,
        uniform_value=u_value,
        pg_norm_uniform=pg_uniform,
        pg_norm_best=pg_best,
        converged=all_converged and best_converged,
        iterations=total_iters,
        restart_values=tuple(restart_values),
        per_size_best=per_size_best,
        per_size_uniform=per_size_uniform,
    )
