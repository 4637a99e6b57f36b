"""Placement policy tests: budgets, marginals, independence, determinism."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decpir.errors import BudgetViolation
from decpir.model import storage_budget
from decpir.placement import (
    ExplicitSetsPlacement,
    UniformRandomPlacement,
    WholeFilePrefixPlacement,
    policy_from_dict,
    sample_placement,
)
from decpir.rng import derive_seed, generator


def empirical_marginals(policy, num_files, file_len, trials, seed, mu=None):
    """Per-address caching frequency of the first database over many draws.

    All databases share one distribution, so the first database's marginals
    characterize the policy.  Returns a (num_files, file_len) array of
    estimates.
    """
    counts = np.zeros(num_files * file_len, dtype=np.int64)
    for t in range(trials):
        realization = sample_placement(
            policy, num_files, file_len, 1, derive_seed(seed, t), mu=mu
        )
        counts[realization.sets[0]] += 1
    return (counts / trials).reshape(num_files, file_len)


def test_uniform_sample_sizes():
    # K=3, L=4, mu=1/3: every database stores exactly 4 of the 12 bits.
    real = sample_placement(UniformRandomPlacement(Fraction(1, 3)), 3, 4, 4, seed=0)
    assert real.budget == 4
    for addrs in real.sets:
        assert len(addrs) == 4
        assert len(set(addrs.tolist())) == 4


def test_uniform_mu_one_stores_everything():
    real = sample_placement(UniformRandomPlacement(Fraction(1)), 3, 4, 2, seed=5)
    for addrs in real.sets:
        assert sorted(addrs.tolist()) == list(range(12))


def test_whole_file_prefix():
    real = sample_placement(
        WholeFilePrefixPlacement((0,)), 3, 4, 3, seed=0, mu=Fraction(1, 3)
    )
    expected = list(range(4))  # all bits of file 0
    for addrs in real.sets:
        assert addrs.tolist() == expected


@pytest.mark.parametrize("files, k, length", [((2, 0), 4, 5), ((1,), 2, 1), ((), 3, 4)])
def test_whole_file_prefix_caches_each_listed_file_whole(files, k, length):
    # Each listed file's bits, files ascending, at every database.
    real = sample_placement(
        WholeFilePrefixPlacement(files), k, length, 3, seed=0, mu=Fraction(len(files), k)
    )
    want = [f * length + p for f in sorted(files) for p in range(length)]
    for addrs in real.sets:
        assert addrs.dtype == np.int64 and addrs.tolist() == want


def test_whole_file_prefix_budget_violation():
    with pytest.raises(BudgetViolation):
        sample_placement(
            WholeFilePrefixPlacement((0, 1)), 3, 4, 2, seed=0, mu=Fraction(1, 3)
        )


def test_explicit_sets_budget_violation():
    policy = ExplicitSetsPlacement((((0, 0), (0, 1), (0, 2), (0, 3), (1, 0)),))
    with pytest.raises(BudgetViolation):
        sample_placement(policy, 3, 4, 1, seed=0, mu=Fraction(1, 3))


def test_uniform_sample_always_ok():
    for mu in (Fraction(0), Fraction(1, 4), Fraction(2, 3), Fraction(1)):
        real = sample_placement(UniformRandomPlacement(mu), 2, 6, 3, seed=9)
        assert all(len(s) <= storage_budget(mu, 2, 6) for s in real.sets)


def test_empirical_marginals_uniform():
    # Every per-address estimate should be within 3 standard errors of mu.
    mu = Fraction(1, 2)
    trials = 10_000
    est = empirical_marginals(UniformRandomPlacement(mu), 2, 3, trials, seed=21)
    se = math.sqrt(float(mu) * (1 - float(mu)) / trials)
    assert est.shape == (2, 3)
    assert np.all(np.abs(est - float(mu)) < 3 * se)


def test_empirical_marginals_symmetry():
    mu = Fraction(1, 3)
    trials = 10_000
    est = empirical_marginals(UniformRandomPlacement(mu), 3, 2, trials, seed=4)
    mean = est.mean()
    se = math.sqrt(mean * (1 - mean) / trials)
    assert np.all(np.abs(est - mean) < 3 * se)


def test_empirical_marginals_deterministic_policies():
    est = empirical_marginals(
        WholeFilePrefixPlacement((0,)), 3, 4, 50, seed=0, mu=Fraction(1, 3)
    )
    assert np.array_equal(est[0], np.ones(4))
    assert np.array_equal(est[1:], np.zeros((2, 4)))

    zeros = empirical_marginals(UniformRandomPlacement(Fraction(0)), 2, 3, 50, seed=0)
    assert np.array_equal(zeros, np.zeros((2, 3)))


def test_databases_cache_independently():
    # Joint inclusion frequency of one fixed address in two databases
    # approaches the squared marginal.
    mu = Fraction(1, 2)
    trials = 10_000
    joint = 0
    for t in range(trials):
        real = sample_placement(
            UniformRandomPlacement(mu), 2, 3, 2, derive_seed(77, t)
        )
        joint += int(0 in real.sets[0]) and int(0 in real.sets[1])
    p2 = float(mu) ** 2
    se = math.sqrt(p2 * (1 - p2) / trials)
    assert abs(joint / trials - p2) < 3 * se


@given(seed=st.integers(0, 2**60), n=st.integers(0, 4))
def test_sampling_is_deterministic(seed, n):
    a = sample_placement(UniformRandomPlacement(Fraction(1, 3)), 2, 6, n, seed)
    b = sample_placement(UniformRandomPlacement(Fraction(1, 3)), 2, 6, n, seed)
    assert all(np.array_equal(x, y) for x, y in zip(a.sets, b.sets))


@pytest.mark.parametrize(
    "num_dbs, length",
    [(1, 40), (7, 40), (8, 40), (20, 40), (2, 4000)],
    ids=["1", "7", "8", "20", "2-of-12000"],
)
def test_databases_draw_from_their_own_derived_seed(num_dbs, length):
    # Batch seeding starts at eight databases; either side must draw, for
    # database d, the set a generator of its own seed draws, shuffled or not.
    # Above 10,000 addresses and a budget over 1/50 of them numpy draws by a
    # partial shuffle of all addresses (the headline fixture's path), else by
    # Floyd's algorithm.
    real = sample_placement(
        UniformRandomPlacement(Fraction(1, 4)), 3, length, num_dbs, seed=2024
    )
    total, budget = 3 * length, 3 * length // 4
    assert len(real.sets) == num_dbs
    for d, cached in enumerate(real.sets):
        rng = generator(derive_seed(2024, d))
        want = np.sort(rng.choice(total, budget, replace=False))
        assert cached.dtype == np.int64 and np.array_equal(cached, want)


def test_policy_from_dict_round_trip():
    assert policy_from_dict({"kind": "uniform-random", "mu": "1/3"}) == (
        UniformRandomPlacement(Fraction(1, 3))
    )
    assert policy_from_dict({"kind": "whole-file-prefix", "files": [0, 2]}) == (
        WholeFilePrefixPlacement((0, 2))
    )
    with pytest.raises(ValueError):
        policy_from_dict({"kind": "mystery"})


def test_explicit_sets_refuse_positions_outside_a_file():
    # (0, 4) would otherwise alias bit (1, 0) of a 4-bit file.
    policy = ExplicitSetsPlacement((((0, 4),),))
    with pytest.raises(ValueError, match="not a bit"):
        sample_placement(policy, 3, 4, 1, seed=0, mu=Fraction(1, 3))
