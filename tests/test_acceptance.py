"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from decpir.analysis import (
    capacity_classical,
    capacity_decentralized,
    centralized_envelope,
    converse_bound_realization,
    expected_converse_bound,
    uniform_profile,
)
from decpir.model import build_file_store, partition_by_storage_set
from decpir.placement import UniformRandomPlacement, sample_placement
from decpir.privacy import transcript_distribution_test
from decpir.protocol import generate_query_plan, structural_privacy_histogram
from decpir.retrieval import retrieve_file, simulate_trials
from decpir.rng import derive_seed

from oracles import (
    converse_bound_k3n2,
    minimize_expected_bound,
    store_view,
    tiled_record,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL: {description}")
        raise
    print(f"ACCEPTANCE {number} PASS: {description}")


@pytest.fixture(scope="module")
def k3n2_simulation():
    # Shared by criteria 4 and 5: the headline Monte Carlo run.
    return simulate_trials(
        3,
        9000,
        2,
        Fraction(1, 3),
        UniformRandomPlacement(Fraction(1, 3)),
        200,
        seed=20260808,
    )


def test_criterion_1_formula_goldens():
    with criterion(1, "formula golden tests, exact rational arithmetic"):
        for i in range(11):
            mu = Fraction(i, 10)
            quadratic = Fraction(17, 18) * mu**2 - Fraction(5, 2) * mu + 3
            assert capacity_decentralized(3, 2, mu) == quadratic
        for k in (1, 2, 5, 10):
            for n in (0, 1, 3, 12, 30):
                assert capacity_decentralized(k, n, Fraction(0)) == k
                assert capacity_decentralized(
                    k, n, Fraction(1)
                ) == capacity_classical(k, n + 1)
        for n_dbs in (0, 2, 7, 30):
            for i in range(11):
                mu = Fraction(i, 10)
                assert (
                    sum(
                        math.comb(n_dbs, n - 1)
                        * mu ** (n - 1)
                        * (1 - mu) ** (n_dbs + 1 - n)
                        for n in range(1, n_dbs + 2)
                    )
                    == 1
                )


def test_criterion_2_protocol_count_identities():
    with criterion(2, "protocol count identities for 2<=n<=5, 1<=K<=5"):
        for n in range(2, 6):
            for k in range(1, 6):
                block = n**k
                plan = generate_query_plan(n, k, 0, block, seed=41)
                per_db = sum(
                    math.comb(k, j) * (n - 1) ** (j - 1) for j in range(1, k + 1)
                )
                for d in range(n):
                    assert len(store_view(plan, d)[2]) == per_db
                assert plan.total_queries == block * sum(
                    Fraction(1, n**m) for m in range(k)
                )
                assert len(tiled_record(plan)[3]) == plan.block == block
                assert block == n * n ** (k - 1)


def test_criterion_3_reliability_1000_trials():
    with criterion(3, "bit-exact recovery over 1000 randomized trials"):
        rng = np.random.Generator(np.random.PCG64(20250131))
        ratios = [
            Fraction(0),
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(3, 4),
            Fraction(1),
        ]
        for t in range(1000):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(0, 5))
            mu = ratios[int(rng.integers(0, len(ratios)))]
            length = int(rng.integers(30, 121))
            desired = int(rng.integers(0, k))
            seed = derive_seed(777, t)
            store = build_file_store(k, length, derive_seed(seed, 0))
            real = sample_placement(
                UniformRandomPlacement(mu), k, length, n, derive_seed(seed, 1)
            )
            part = partition_by_storage_set(real)
            result = retrieve_file(store, part, desired, derive_seed(seed, 2))
            assert np.array_equal(result.bits, store.bits[desired])
            assert result.report.total >= converse_bound_realization(part)


def test_criterion_4_simulation_matches_capacity(k3n2_simulation):
    with criterion(4, "K=3 N=2 mu=1/3 L=9000 mean within 2%; K=10 N=0 exact"):
        formula = float(Fraction(184, 81))
        assert abs(k3n2_simulation.mean_normalized - formula) / formula < 0.02
        n0 = simulate_trials(
            10,
            50,
            0,
            Fraction(1, 2),
            UniformRandomPlacement(Fraction(1, 2)),
            5,
            seed=6,
        )
        for row in n0.rows:
            assert row.normalized == 10


def test_criterion_5_converse_dominance(k3n2_simulation):
    with criterion(5, "per-trial bound dominance; specialized K=3 N=2 form"):
        for row in k3n2_simulation.rows:
            assert row.total >= row.converse_bound
        for t in range(20):
            mu = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)][t % 3]
            real = sample_placement(
                UniformRandomPlacement(mu), 3, 18, 2, derive_seed(515, t)
            )
            part = partition_by_storage_set(real)
            assert converse_bound_k3n2(part) == converse_bound_realization(part)


def test_criterion_6_expectation_matches_formula():
    with criterion(6, "expected bound at uniform equals L*formula, K<=10 N<=30"):
        length = 7
        for k in range(1, 11):
            for n in range(0, 31):
                for i in range(11):
                    mu = Fraction(i, 10)
                    profile = uniform_profile(k, length, mu)
                    assert expected_converse_bound(
                        profile, n, mu=mu
                    ) == length * capacity_decentralized(k, n, mu)


def test_criterion_7_optimizer_recovers_uniform():
    cases = [
        (3, 2, Fraction(1, 3), 10),
        (3, 2, Fraction(2, 3), 10),
        (2, 2, Fraction(1, 2), 15),
    ]
    with criterion(7, "optimizer within 1e-6*L of uniform; stationary uniform"):
        for k, n, mu, length in cases:
            result = minimize_expected_bound(
                k, n, mu, length, restarts=20, seed=10_000 * k + n
            )
            uniform_value = length * float(capacity_decentralized(k, n, mu))
            assert abs(result.best_value - uniform_value) <= 1e-6 * length
            assert min(result.restart_values) >= uniform_value - 1e-6 * length
            assert abs(result.uniform_value - uniform_value) <= 1e-9 * length
            assert result.pg_norm_uniform < 1e-8


def test_criterion_8_privacy():
    with criterion(8, "structural invariance; chi-square passes; control fails"):
        for n, k in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
            hists = [
                structural_privacy_histogram(
                    generate_query_plan(n, k, desired, n**k, seed=88 + desired)
                )
                for desired in range(k)
            ]
            assert all(h == hists[0] for h in hists[1:])
        honest = transcript_distribution_test(2, 2, 4, sessions=10_000, seed=424242)
        assert honest.structural_ok and honest.distribution_ok
        control = transcript_distribution_test(
            2, 2, 4, sessions=10_000, seed=424242, permute=False
        )
        assert not control.distribution_ok


def test_criterion_9_figure_shapes():
    with criterion(9, "sweep shapes: decreasing costs, envelope below"):
        fig4 = [capacity_decentralized(10, n, Fraction(1, 2)) for n in range(31)]
        assert fig4[0] == 10
        assert all(a > b for a, b in zip(fig4, fig4[1:]))

        fig5 = [capacity_decentralized(10, 5, Fraction(i, 20)) for i in range(21)]
        assert fig5[0] == 10
        assert all(a > b for a, b in zip(fig5, fig5[1:]))

        env = centralized_envelope(10, 5)
        for i in range(101):
            mu = Fraction(i, 100)
            formula = capacity_decentralized(10, 5, mu)
            assert env.evaluate(mu) <= formula
            if mu in (0, 1):
                assert env.evaluate(mu) == formula
