"""Formula, bound, and optimality tests.

Golden fractions (184/81, 7/4, 4/3, 67/27, ...) were derived by hand from
the defining sums before being frozen here; the polynomial and the
specialized three-file bound act as independent routes to the same values.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from decpir.analysis import (
    capacity_classical,
    capacity_decentralized,
    centralized_envelope,
    converse_bound_realization,
    expected_converse_bound,
    expected_size_mass,
    harmonic_weight,
    uniform_optimality_certificate,
    uniform_profile,
    MarginalProfile,
)
from decpir.errors import BudgetViolation
from decpir.model import partition_by_storage_set
from decpir.placement import (
    UniformRandomPlacement,
    WholeFilePrefixPlacement,
    sample_placement,
)
from decpir.rng import derive_seed

from oracles import (
    converse_bound_k3n2,
    converse_bound_per_slot,
    minimize_expected_bound,
)


def test_capacity_classical_goldens():
    assert capacity_classical(3, 2) == Fraction(7, 4)
    assert capacity_classical(2, 3) == Fraction(4, 3)
    for k in range(1, 8):
        assert capacity_classical(k, 1) == k


def test_capacity_classical_closed_form_matches_the_sum():
    # The closed form against 1 + 1/n + ... + 1/n**(K-1) summed term by term.
    for k in range(1, 41):
        for n in range(1, 9):
            want = sum((Fraction(1, n**m) for m in range(k)), Fraction(0))
            assert capacity_classical(k, n) == want, (k, n)


def test_capacity_matches_quadratic_for_k3_n2():
    for i in range(11):
        mu = Fraction(i, 10)
        poly = Fraction(17, 18) * mu**2 - Fraction(5, 2) * mu + 3
        assert capacity_decentralized(3, 2, mu) == poly
    assert capacity_decentralized(3, 2, Fraction(1, 3)) == Fraction(184, 81)


def test_capacity_endpoints():
    for k in (1, 3, 10):
        for n in (0, 2, 5, 30):
            assert capacity_decentralized(k, n, Fraction(0)) == k
            assert capacity_decentralized(k, n, Fraction(1)) == capacity_classical(
                k, n + 1
            )
    for mu in (Fraction(0), Fraction(1, 2), Fraction(1)):
        assert capacity_decentralized(10, 0, mu) == 10
        assert capacity_decentralized(1, 5, mu) == 1


def test_binomial_normalization():
    # sum_n C(N, n-1) mu^(n-1) (1-mu)^(N+1-n) == 1
    for n_dbs in (0, 1, 4, 9):
        for i in range(11):
            mu = Fraction(i, 10)
            total = sum(
                math.comb(n_dbs, n - 1) * mu ** (n - 1) * (1 - mu) ** (n_dbs + 1 - n)
                for n in range(1, n_dbs + 2)
            )
            assert total == 1
            float_total = sum(
                math.comb(n_dbs, n - 1)
                * float(mu) ** (n - 1)
                * (1 - float(mu)) ** (n_dbs + 1 - n)
                for n in range(1, n_dbs + 2)
            )
            assert abs(float_total - 1) < 1e-12


def test_capacity_monotone_in_databases():
    values = [capacity_decentralized(10, n, Fraction(1, 2)) for n in range(31)]
    assert values[0] == 10
    assert all(a > b for a, b in zip(values, values[1:]))


def test_capacity_monotone_in_storage():
    values = [capacity_decentralized(10, 5, Fraction(i, 20)) for i in range(21)]
    assert values[0] == 10
    assert all(a > b for a, b in zip(values, values[1:]))


def test_envelope_corners():
    env = centralized_envelope(10, 5)
    assert env.corners[0] == (0, 10)
    assert env.corners[-1] == (1, capacity_classical(10, 6))
    assert env.evaluate(Fraction(0)) == 10
    assert env.evaluate(Fraction(1)) == capacity_classical(10, 6)


def test_envelope_below_decentralized():
    env = centralized_envelope(10, 5)
    for i in range(101):
        mu = Fraction(i, 100)
        decentralized = capacity_decentralized(10, 5, mu)
        assert env.evaluate(mu) <= decentralized
        if mu in (0, 1):
            assert env.evaluate(mu) == decentralized


def test_envelope_interpolates_between_corners():
    env = centralized_envelope(2, 2)
    mid = env.evaluate(Fraction(1, 4))
    expected = (env.corners[0][1] + env.corners[1][1]) / 2
    assert mid == expected


def test_converse_bound_full_replication():
    real = sample_placement(UniformRandomPlacement(Fraction(1)), 3, 8, 2, seed=0)
    # all 24 bits sit in the one size-3 set: mass 24 / (K * C(3,3)) == L
    partition = partition_by_storage_set(real)
    avg, _, bound = converse_bound_per_slot(partition)
    assert avg == (0, 0, 8)
    assert bound == converse_bound_realization(partition) == 8 * capacity_classical(3, 3)


def test_converse_bound_whole_file_realization():
    # Hand-evaluated: storage sets {0} with 2L bits and {0,1,2} with L bits
    # give per-size masses (2L/9, 0, L/3) and bound 67L/27.
    length = 27
    real = sample_placement(
        WholeFilePrefixPlacement((0,)), 3, length, 2, seed=0, mu=Fraction(1, 3)
    )
    partition = partition_by_storage_set(real)
    avg, weights, bound = converse_bound_per_slot(partition)
    assert avg == (Fraction(2 * length, 9), 0, Fraction(length, 3))
    assert weights == (2, Fraction(3, 4), Fraction(4, 9))
    assert bound == converse_bound_realization(partition) == Fraction(67 * length, 27)


def test_negative_counts_are_refused():
    profile = uniform_profile(2, 3, Fraction(1, 2))
    with pytest.raises(ValueError, match="database count must be non-negative"):
        expected_converse_bound(profile, -1)
    with pytest.raises(ValueError, match="database count must be non-negative"):
        minimize_expected_bound(2, -1, Fraction(1, 2), 3)
    with pytest.raises(ValueError, match="restart count must be non-negative"):
        minimize_expected_bound(2, 1, Fraction(1, 2), 3, restarts=-1)
    with pytest.raises(ValueError, match="database count must be non-negative"):
        uniform_optimality_certificate(2, -1)


@pytest.mark.parametrize(
    "k, length, match",
    [
        (0, 3, "at least one file, got 0"),
        (-1, -1, "at least one file, got -1"),
        (1, -1, "file length must be non-negative, got -1"),
    ],
)
def test_bad_shapes_are_refused_before_the_optimizer(k, length, match):
    with pytest.raises(ValueError, match=match):
        uniform_profile(k, length, Fraction(1, 2))
    with pytest.raises(ValueError, match=match):
        minimize_expected_bound(k, 1, Fraction(1, 2), length)


@pytest.mark.parametrize("mu", [Fraction(0), Fraction(1, 3), Fraction(1), 0.5])
def test_uniform_profile_is_its_per_bit_profile(mu):
    per_bit = MarginalProfile(np.full((3, 7), Fraction(mu), dtype=object))
    uniform = uniform_profile(3, 7, mu)
    assert uniform.levels == per_bit.levels == {Fraction(mu): 21}
    assert (uniform.num_files, uniform.file_len) == (3, 7)
    assert (uniform.probs == per_bit.probs).all()
    for n in (0, 1, 4):
        assert expected_converse_bound(uniform, n) == expected_converse_bound(
            per_bit, n
        )


def test_uniform_profile_holds_no_per_bit_array():
    import tracemalloc

    tracemalloc.start()
    try:
        profile = uniform_profile(10, 10**6, Fraction(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert profile.levels == {Fraction(1, 2): 10**7}
    assert peak < 1 << 20


def test_zero_length_files_stay_valid():
    assert expected_converse_bound(uniform_profile(2, 0, Fraction(1, 2)), 1) == 0
    result = minimize_expected_bound(2, 1, Fraction(1, 2), 0, restarts=1)
    assert result.best_value == 0
    assert all(v >= 0 for v in result.restart_values)


def test_converse_bound_k3n2_form_agrees():
    # The fixed-coefficient three-file form and the general per-size form
    # must agree exactly on random realizations.
    for t in range(20):
        mu = Fraction(1 + t % 3, 4)
        real = sample_placement(
            UniformRandomPlacement(mu), 3, 12, 2, derive_seed(31, t)
        )
        part = partition_by_storage_set(real)
        assert converse_bound_k3n2(part) == converse_bound_realization(part)


def test_converse_bound_k3n2_requires_shape():
    real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 2, 4, 2, seed=0)
    with pytest.raises(ValueError):
        converse_bound_k3n2(partition_by_storage_set(real))


def test_expected_bound_matches_capacity_at_uniform():
    # K = 10 makes every point of the benchmark's analysis grid (N = 0..30,
    # mu = i/20, L = 7).
    length = 7
    for k in (1, 2, 3, 5, 10):
        for n in range(31):
            for i in range(21):
                mu = Fraction(i, 20)
                profile = uniform_profile(k, length, mu)
                expected = expected_converse_bound(profile, n, mu=mu)
                assert expected == length * capacity_decentralized(k, n, mu)


def test_expected_bound_degenerate_profiles():
    ones = uniform_profile(3, 5, Fraction(1))
    assert expected_converse_bound(ones, 2) == 5 * capacity_classical(3, 3)
    zeros = uniform_profile(3, 5, Fraction(0))
    assert expected_converse_bound(zeros, 2) == 5 * 3
    assert expected_size_mass(zeros, 1, 2) == Fraction(5, 3)  # L / (N+1)


def test_expected_size_mass_at_uniform():
    # E[mass at size l] == L mu^(l-1) (1-mu)^(N+1-l) C(N,l-1)/C(N+1,l)
    length, n = 9, 3
    for k in (2, 4):
        for i in range(5):
            mu = Fraction(i, 4)
            profile = uniform_profile(k, length, mu)
            for l in range(1, n + 2):
                expected = (
                    length
                    * mu ** (l - 1)
                    * (1 - mu) ** (n + 1 - l)
                    * Fraction(math.comb(n, l - 1), math.comb(n + 1, l))
                )
                assert expected_size_mass(profile, l, n) == expected


def test_expected_bound_budget_check():
    profile = uniform_profile(2, 4, Fraction(1, 2))
    with pytest.raises(BudgetViolation):
        expected_converse_bound(profile, 2, mu=Fraction(1, 4))


def test_marginal_profile_rejects_out_of_range():
    with pytest.raises(ValueError):
        MarginalProfile(np.full((1, 2), Fraction(3, 2), dtype=object))
    with pytest.raises(ValueError):
        MarginalProfile(np.array([[-0.25]]))
    # NaN compares false both ways: it must not slip past the check and then
    # pass the budget check.
    with pytest.raises(ValueError):
        MarginalProfile(np.array([[0.5, float("nan")]]))
    with pytest.raises(ValueError):
        MarginalProfile(np.array([[Fraction(1, 2), float("nan")]], dtype=object))


def test_nan_storage_ratio_is_rejected():
    with pytest.raises(ValueError):
        capacity_decentralized(3, 2, float("nan"))
    with pytest.raises(ValueError):
        centralized_envelope(3, 2).evaluate(float("nan"))
    with pytest.raises(BudgetViolation):
        uniform_profile(2, 2, Fraction(1, 2)).check_budget(float("nan"))


def test_realization_bounds_concentrate_on_expectation():
    k, length, n = 2, 6, 2
    mu = Fraction(1, 2)
    trials = 10_000
    values = np.empty(trials)
    for t in range(trials):
        real = sample_placement(
            UniformRandomPlacement(mu), k, length, n, derive_seed(5150, t)
        )
        values[t] = float(converse_bound_realization(partition_by_storage_set(real)))
    expected = float(expected_converse_bound(uniform_profile(k, length, mu), n))
    stderr = values.std(ddof=1) / math.sqrt(trials)
    assert abs(values.mean() - expected) < 3 * stderr


def test_minimizer_recovers_uniform_optimum():
    length = 10
    result = minimize_expected_bound(
        3, 2, Fraction(1, 3), length, restarts=6, seed=17
    )
    target = length * float(Fraction(184, 81))
    assert abs(result.best_value - target) < 1e-6 * length
    assert all(v >= target - 1e-6 * length for v in result.restart_values)
    assert result.pg_norm_uniform < 1e-8
    assert result.converged


def test_minimizer_mu_one_is_classical_value():
    length = 6
    result = minimize_expected_bound(2, 2, Fraction(1), length, restarts=3, seed=2)
    exact = length * float(capacity_classical(2, 3))
    assert abs(result.best_value - exact) < 1e-9 * length
    assert all(v >= exact - 1e-9 * length for v in result.restart_values)


def test_random_restarts_never_beat_uniform():
    cases = [(2, 2, Fraction(1, 2), 10), (3, 2, Fraction(1, 3), 10), (3, 3, Fraction(2, 3), 8)]
    for k, n, mu, length in cases:
        result = minimize_expected_bound(k, n, mu, length, restarts=34, seed=9)
        floor = result.uniform_value - 1e-6 * length
        assert all(v >= floor for v in result.restart_values)
        exact = length * float(capacity_decentralized(k, n, mu))
        assert all(v >= exact - 1e-6 * length for v in result.restart_values)


def test_uniform_optimality_certificate_holds():
    # h strictly decreases and is strictly convex for K >= 2 and is zero at
    # K = 1; N < 1 has no first difference and N < 2 no second.
    for k in range(1, 13):
        for n in range(31):
            first, second = uniform_optimality_certificate(k, n)
            h = [harmonic_weight(l, k) for l in range(1, n + 2)]
            d1 = [b - a for a, b in zip(h, h[1:])]
            d2 = [b - a for a, b in zip(d1, d1[1:])]
            assert first == (max(d1) if d1 else None)
            assert second == (min(d2) if d2 else None)
            if k == 1:
                assert set(d1 + d2) <= {0}
            else:
                assert all(d < 0 for d in d1) and all(d > 0 for d in d2)
            # What `optimize` prints is the expected bound at uniform caching.
            mu, length = Fraction(k + n, 45), 7
            minimum = length * capacity_decentralized(k, n, mu)
            profile = uniform_profile(k, length, mu)
            assert expected_converse_bound(profile, n, mu=mu) == minimum


def test_harmonic_weight_values():
    assert harmonic_weight(1, 3) == 2
    assert harmonic_weight(2, 3) == Fraction(3, 4)
    assert harmonic_weight(3, 3) == Fraction(4, 9)
    assert harmonic_weight(2, 1) == 0
