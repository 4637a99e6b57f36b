"""Transcript indistinguishability tests.

The chi-square statistic is cross-checked against scipy's contingency-table
implementation, which is an independent route to the same number.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy.special import chdtrc
from scipy.stats import chi2, chi2_contingency

from decpir.privacy import transcript_distribution_test, two_sample_chisquare


def test_chisquare_matches_scipy_contingency():
    a = [40, 60, 10]
    b = [35, 70, 5]
    stat, df, p = two_sample_chisquare(a, b)
    table = [[40, 60, 10], [35, 70, 5]]
    ref = chi2_contingency(table, correction=False)
    assert stat == pytest.approx(ref.statistic)
    assert df == ref.dof
    assert p == pytest.approx(ref.pvalue)


def test_package_import_leaves_scipy_stats_unloaded():
    # scipy.stats dominates import time; only the chi-square test loads it.
    code = "import sys, decpir; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_chisquare_leaves_scipy_stats_unloaded():
    # The p-value comes from scipy.special, which loads much less.
    code = (
        "import sys; "
        "from decpir.privacy import two_sample_chisquare; "
        "print(two_sample_chisquare([2, 1], [1, 2])[2] < 1, "
        "'scipy.stats' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True False"


def test_chisquare_p_value_equals_chi2_sf():
    # chdtrc is the kernel chi2.sf calls, so they agree bit for bit.
    df = np.array([1, 2, 3, 5, 17, 100, 1023, 50_000])[:, None]
    x = np.array([0.0, 1e-300, 1e-6, 0.3, 1.0, 2.5, 7.0, 30.0, 99.9, 500.0, 4000.0])
    x = np.concatenate([np.tile(x, (len(df), 1)), df * [0.9, 1.0, 1.1]], axis=1)
    assert np.array_equal(chdtrc(df, x), chi2.sf(x, df))
    a = [40, 60, 10]
    b = [35, 70, 5]
    stat, dof, p = two_sample_chisquare(a, b)
    assert p == float(chi2.sf(stat, dof))


def test_chisquare_identical_deterministic_samples():
    a = [100]
    stat, df, p = two_sample_chisquare(a, [50])
    assert stat == 0 and df == 0 and p == 1.0


def test_chisquare_disjoint_supports_is_significant():
    stat, df, p = two_sample_chisquare([200, 0], [0, 200])
    assert df == 1
    assert p < 1e-10


def test_chisquare_leaves_out_bins_empty_in_both():
    # An empty bin is no observation: neither term nor degree of freedom.
    assert two_sample_chisquare([0, 40, 0, 60, 10], [0, 35, 0, 70, 5]) == (
        two_sample_chisquare([40, 60, 10], [35, 70, 5])
    )


@pytest.mark.parametrize(
    "a, b, match",
    [
        ([1, 2], [1, 2, 3], "same bins"),
        ([[1, 2]], [[1, 2]], "same bins"),
        ([1, -1, 3], [1, 2, 3], "non-negative"),
        ([0, 0], [3, 4], "at least one observation"),
        ([3, 4], [0, 0], "at least one observation"),
        ([], [], "at least one observation"),
    ],
)
def test_chisquare_refuses_malformed_counts(a, b, match):
    # A sample with no observation would divide by zero, or give nan.
    with pytest.raises(ValueError, match=match):
        two_sample_chisquare(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))


def test_honest_scheme_passes():
    result = transcript_distribution_test(2, 2, 4, sessions=2500, seed=101)
    assert result.structural_ok
    assert result.distribution_ok
    assert result.ok
    assert len(result.comparisons) == 2  # one file pair, two stores


def test_unpermuted_scheme_fails():
    result = transcript_distribution_test(
        2, 2, 4, sessions=400, seed=101, permute=False
    )
    assert result.structural_ok  # the histogram shape never leaked
    assert not result.distribution_ok
    assert not result.ok
    assert all(c.p_value < 0.01 for c in result.comparisons)


def test_session_count_validation():
    with pytest.raises(ValueError):
        transcript_distribution_test(2, 2, 4, sessions=1, seed=0)


@pytest.mark.parametrize("permute", [True, False])
@pytest.mark.parametrize(
    "k, n, lam", [(0, 2, 0), (1, 2, 4), (2, 2, 0), (2, 0, 4), (2, 2, -4)]
)
def test_vacuous_instances_are_refused(k, n, lam, permute):
    # No file pair or no symbol to compare: refuse rather than pass vacuously.
    with pytest.raises(ValueError, match="at least one|at least two"):
        transcript_distribution_test(k, n, lam, sessions=10, seed=0, permute=permute)


@pytest.mark.parametrize("significance", [0, 1, -1, float("nan")])
def test_significance_must_lie_in_the_open_unit_interval(significance):
    with pytest.raises(ValueError, match="significance"):
        transcript_distribution_test(2, 2, 4, 50, 0, significance=significance)
