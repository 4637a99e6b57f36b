"""The one-pass closed-form evaluators against per-term reference evaluators.

The reference functions below sum the defining formulas term by term, one
``Fraction`` (or float) operation per entry and per set size.  The evaluators
in ``decpir.analysis`` must give equal values of the same type for rational
inputs, and floats within a relative 1e-12 of the reference for float inputs
(their sums run in another order).
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decpir.analysis import (
    MarginalProfile,
    _binomial_row,
    capacity_decentralized,
    centralized_envelope,
    converse_bound_realization,
    expected_converse_bound,
    expected_size_mass,
    expected_size_masses,
    uniform_profile,
)
from decpir.model import partition_by_storage_set
from decpir.placement import (
    UniformRandomPlacement,
    WholeFilePrefixPlacement,
    sample_placement,
)

from oracles import converse_bound_per_slot

GRID_MU = [Fraction(i, 20) for i in range(21)] + [0, 1]
REL_TOL = 1e-12


@lru_cache(maxsize=None)
def ref_capacity_classical(k, n):
    return sum((Fraction(1, n**m) for m in range(k)), Fraction(0))


def ref_capacity_decentralized(k, n_dbs, mu):
    total = 0
    for n in range(1, n_dbs + 2):
        weight = math.comb(n_dbs, n - 1) * mu ** (n - 1) * (1 - mu) ** (n_dbs + 1 - n)
        total += weight * ref_capacity_classical(k, n)
    return total


def ref_hull(points):
    """Lower convex hull of points sorted by x: Andrew's monotone chain.

    A point stays only where the path turns strictly counterclockwise, so
    collinear points drop out.
    """
    hull = []
    for x, y in points:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (x1 - x0) * (y - y0) - (x - x0) * (y1 - y0) > 0:
                break
            hull.pop()
        hull.append((x, y))
    return tuple(hull)


def ref_envelope_evaluate(hull, mu):
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        if x0 <= mu <= x1:
            return y0 + (y1 - y0) * (mu - x0) / (x1 - x0)
    raise AssertionError("hull does not cover [0, 1]")


def ref_size_mass(probs, l, n):
    # Rational totals (ints included) stay exact; any float makes a float.
    k = probs.shape[0]
    counts = Counter(probs.reshape(-1).tolist())
    total = sum(cnt * p ** (l - 1) * (1 - p) ** (n + 1 - l) for p, cnt in counts.items())
    return Fraction(math.comb(n, l - 1), k * math.comb(n + 1, l)) * total


def ref_size_masses(probs, n):
    return [ref_size_mass(probs, l, n) for l in range(1, n + 2)]


def ref_converse_bound(probs, n, masses=None):
    k, length = probs.shape
    masses = ref_size_masses(probs, n) if masses is None else masses
    return length + sum(
        math.comb(n + 1, l) * (ref_capacity_classical(k, l) - 1) * mass
        for l, mass in enumerate(masses, start=1)
    )


def assert_masses_and_bound(profile, probs, n):
    reference = ref_size_masses(probs, n)
    masses = expected_size_masses(profile, n)
    assert len(masses) == n + 1
    for mass, ref in zip(masses, reference):
        assert_same(mass, ref)
    assert_same(expected_converse_bound(profile, n), ref_converse_bound(probs, n, reference))


def assert_same(value, reference):
    assert type(value) is type(reference), (value, reference)
    if isinstance(reference, float):
        assert math.isclose(value, reference, rel_tol=REL_TOL), (value, reference)
    else:
        assert value == reference


def test_capacity_matches_reference_on_figure_grid():
    for k in range(1, 11):
        for n in range(31):
            for mu in GRID_MU:
                assert_same(capacity_decentralized(k, n, mu), ref_capacity_decentralized(k, n, mu))


def test_binomial_rows_match_comb():
    for n in [*range(301), 3000]:
        assert _binomial_row(n) == tuple(math.comb(n, j) for j in range(n + 1))


@pytest.mark.parametrize("n", [200, 600])
@pytest.mark.parametrize("mu", [Fraction(1, 3), Fraction(1, 2), 1 / 3, 0.5])
def test_large_n_matches_per_term_reference(n, mu):
    # The cached binomial rows and harmonic weights against one comb per term.
    k, length = 3, 2
    assert_same(capacity_decentralized(k, n, mu), ref_capacity_decentralized(k, n, mu))
    probs = np.full((k, length), mu, dtype=object if isinstance(mu, Fraction) else float)
    assert_same(
        expected_converse_bound(MarginalProfile(probs), n), ref_converse_bound(probs, n)
    )


def test_envelope_corners_are_their_lower_hull():
    # capacity_classical(K, n) is strictly convex in n for K >= 2, so no
    # corner lies on or above the chord of its neighbours.
    for k in range(2, 13):
        for n in range(1, 31):
            corners = centralized_envelope(k, n).corners
            assert ref_hull(corners) == corners


def test_envelope_matches_reference_on_figure_grid():
    # Through the hull of the corners, K = 1 included: there every corner
    # costs 1 and the hull keeps only the two ends.
    for k in range(1, 13):
        for n in range(1, 31):
            env = centralized_envelope(k, n)
            hull = ref_hull(env.corners)
            for mu in GRID_MU + [0.0, 0.35, 1.0]:
                assert_same(env.evaluate(mu), ref_envelope_evaluate(hull, mu))


def test_expected_bound_matches_reference_on_figure_grid():
    length = 2
    for k in (1, 2, 3, 10):
        for n in range(31):
            for mu in GRID_MU:
                profile = uniform_profile(k, length, mu)
                assert_masses_and_bound(profile, profile.probs, n)
                assert expected_size_mass(profile, n + 1, n) == ref_size_mass(
                    profile.probs, n + 1, n
                )


def test_integer_entries_are_exact():
    probs = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.int64)
    for profile in (MarginalProfile(probs), MarginalProfile(probs.astype(object))):
        assert profile.total() == 3
        for n in range(5):
            bound = expected_converse_bound(profile, n)
            assert isinstance(bound, Fraction)
            assert bound == ref_converse_bound(probs.astype(object), n)
            for mass in expected_size_masses(profile, n):
                assert isinstance(mass, Fraction)
    assert expected_size_mass(MarginalProfile(probs), 1, 2) == Fraction(1, 2)


fraction_levels = st.builds(
    Fraction, st.integers(0, 12), st.integers(1, 12)
).filter(lambda p: p <= 1)


@given(
    levels=st.lists(fraction_levels, min_size=1, max_size=4),
    k=st.integers(1, 4),
    length=st.integers(1, 6),
    n=st.integers(0, 12),
    data=st.data(),
)
def test_fraction_profiles_match_reference(levels, k, length, n, data):
    picks = data.draw(
        st.lists(st.integers(0, len(levels) - 1), min_size=k * length, max_size=k * length)
    )
    # Equal values as distinct objects must still merge into one level.
    probs = np.array(
        [Fraction(levels[i].numerator, levels[i].denominator) for i in picks], dtype=object
    ).reshape(k, length)
    profile = MarginalProfile(probs)
    assert profile.total() == sum(probs.reshape(-1).tolist())
    assert_masses_and_bound(profile, probs, n)


@given(
    k=st.integers(1, 10),
    n=st.integers(0, 30),
    mu=st.floats(0, 1),
)
def test_float_mu_matches_reference(k, n, mu):
    assert_same(capacity_decentralized(k, n, mu), ref_capacity_decentralized(k, n, mu))


@given(
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(1, 4),
    length=st.integers(1, 8),
    n=st.integers(0, 20),
)
def test_float_profiles_match_reference(seed, k, length, n):
    probs = np.random.default_rng(seed).random((k, length))
    profile = MarginalProfile(probs)
    assert math.isclose(profile.total(), probs.sum(), rel_tol=REL_TOL)
    assert_masses_and_bound(profile, probs, n)


def test_size_mass_rejects_sizes_outside_one_to_n_plus_one():
    profile = uniform_profile(2, 3, Fraction(1, 2))
    for size in (0, 4):
        with pytest.raises(ValueError):
            expected_size_mass(profile, size, 2)


@given(
    k=st.integers(1, 5),
    length=st.integers(1, 40),
    n=st.integers(0, 12),
    eighths=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_realization_bound_matches_per_slot_reference(k, length, n, eighths, seed, data):
    # Uniform placements with mu in eighths, or whole-file prefixes.
    policy, mu = UniformRandomPlacement(Fraction(eighths, 8)), None
    if data.draw(st.booleans(), label="whole-file prefix"):
        files = tuple(sorted(data.draw(st.sets(st.integers(0, k - 1)), label="files")))
        policy, mu = WholeFilePrefixPlacement(files), Fraction(len(files), k)
    real = sample_placement(policy, k, length, n, seed, mu=mu)
    partition = partition_by_storage_set(real)
    bound = converse_bound_realization(partition)
    reference = converse_bound_per_slot(partition)[2]
    assert_same(bound, reference)
    assert str(bound) == str(reference)
