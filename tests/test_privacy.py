"""Transcript indistinguishability tests.

The chi-square statistic is cross-checked against scipy's contingency-table
implementation, which is an independent route to the same number; its
closed-form p-value against ``scipy.special.chdtrc`` and, where mpmath is
installed, against mpmath's regularized upper incomplete gamma.
"""

import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import assert_p_value_close, segment, store_view
from scipy.special import chdtrc
from scipy.stats import chi2_contingency

from decpir import privacy, protocol
from decpir.privacy import (
    _chisquare_tail,
    _session_keys,
    transcript_distribution_test,
    two_sample_chisquare,
)
from decpir.protocol import generate_query_plan
from decpir.rng import generators

try:
    import mpmath
except ImportError:  # an optional oracle: only its test is skipped
    mpmath = None


def test_chisquare_matches_scipy_contingency():
    a = [40, 60, 10]
    b = [35, 70, 5]
    stat, df, p = two_sample_chisquare(a, b)
    table = [[40, 60, 10], [35, 70, 5]]
    ref = chi2_contingency(table, correction=False)
    assert stat == pytest.approx(ref.statistic)
    assert df == ref.dof
    assert p == pytest.approx(ref.pvalue)


@pytest.mark.parametrize(
    "code",
    [
        "import decpir",
        "from decpir.privacy import transcript_distribution_test as t; "
        "assert t(3, 3, 54, 50, 0).ok",
        "import decpir.cli; assert decpir.cli.main(['privacy-test', '--k', '3', "
        "'--n', '3', '--file-bits', '54', '--sessions', '50']) == 0",
    ],
    ids=["import", "distribution-test", "cli"],
)
def test_privacy_path_loads_no_scipy(code):
    # The p-values are closed forms over math: nothing in decpir needs scipy,
    # whose import once took half of a privacy run's start-up time.
    check = f"import sys; {code}; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


@given(st.floats(0, 5000))
def test_chisquare_tail_closed_forms_are_bit_exact(x):
    # At one and two degrees of freedom the tail is one library call; the
    # log-space branch (x >= 1400) must give the same bits.
    assert _chisquare_tail(2, x) == math.exp(-x / 2)
    assert _chisquare_tail(1, x) == math.erfc(math.sqrt(x / 2))


@given(st.integers(1, 1000), st.floats(0, 1))
def test_chisquare_tail_matches_chdtrc(dof, share):
    # x spans the tail out to ~12 standard deviations.  chdtrc's own error
    # grows as p falls: against mpmath it is 5.1e-13 at dof=490, p=1.2e-9,
    # and 8.9e-13 at dof=867, p=1e-169, where this tail's is 1e-15 and 8e-14.
    # So chdtrc is the oracle down to p = 1e-6, far below any significance
    # level, and mpmath below that.
    x = share * (dof + 12 * math.sqrt(2 * dof) + 60)
    expected = float(chdtrc(dof, x))
    assume(expected >= 1e-6)
    assert _chisquare_tail(dof, x) == pytest.approx(expected, rel=5e-13, abs=0)


@pytest.mark.skipif(mpmath is None, reason="mpmath is not installed")
@given(st.integers(1, 1000), st.floats(0, 4000))
def test_chisquare_tail_matches_mpmath(dof, x):
    with mpmath.workdps(40):
        half_dof, y = mpmath.mpf(dof) / 2, mpmath.mpf(x) / 2
        exact = float(mpmath.gammainc(half_dof, y, regularized=True))
    assert_p_value_close(_chisquare_tail(dof, x), exact, rel=5e-13)


def test_chisquare_tail_on_the_extreme_grid():
    # Degrees of freedom up to 50,000 and x from 0 and 1e-300 to 4000 and
    # 1.1 * dof: every branch, including both log-space ones.
    for dof in [1, 2, 3, 5, 17, 100, 1023, 50_000]:
        grid = [0.0, 1e-300, 1e-6, 0.3, 1.0, 2.5, 7.0, 30.0, 99.9, 500.0, 4000.0]
        for x in grid + [dof * 0.9, dof * 1.0, dof * 1.1]:
            assert_p_value_close(_chisquare_tail(dof, x), float(chdtrc(dof, x)), 1e-10)


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


def test_chisquare_refuses_fractional_counts():
    # Count pairs are coded as one number each, so a fractional count could
    # share a code with another pair; integral floats count as integers.
    with pytest.raises(ValueError, match="integers"):
        two_sample_chisquare([1.0, 0.5, 3.0], [0.5, 1.5, 1.0])
    assert two_sample_chisquare([40.0, 60.0, 10.0], [35.0, 70.0, 5.0]) == (
        two_sample_chisquare([40, 60, 10], [35, 70, 5])
    )


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


@pytest.mark.parametrize(
    "n, k, lam", [(3, 3, 54), (2, 8, 256), (1, 64, 2), (1, 63, 1), (1, 40, 3)]
)
def test_session_keys_stay_exact(n, k, lam):
    # Each key must be its session's per-query codes, sorted, as Python ints
    # compute them, with no word past 2**63 - 1, also where (lam + 1)**K
    # needs several words; at lam = 3 a word of 32 base-4 places would
    # reach 2**64.
    sessions = 3
    plan = generate_query_plan(n, k, 0, [lam] * sessions, generators([3, 4, 5]))
    keys = _session_keys(plan, sessions).reshape(n, sessions, -1).tolist()
    per_word = min(63 // lam.bit_length(), k)
    words = -(-k // per_word)
    for s in range(sessions):
        for d in range(n):
            view = store_view(segment(plan, s), d)
            files, indices, orders = (a.tolist() for a in view)
            rows, end = [], 0
            for order in orders:
                row = [0] * words
                for f, i in zip(files[end : end + order], indices[end : end + order]):
                    row[f // per_word] += (i + 1) * (lam + 1) ** (f % per_word)
                rows.append(row)
                end += order
            assert max(map(max, rows)) < 2**63
            rows.sort(key=lambda row: row[::-1])
            assert keys[d][s] == [code for row in rows for code in row]


@pytest.mark.parametrize(
    "n, k, lam, sessions", [(1, 20, 4, 10000), (2, 10, 1024, 64), (3, 3, 54, 1213)]
)
def test_session_keys_memory_follows_the_permutations(n, k, lam, sessions):
    # The codes are summed one term slot at a time through a per-block
    # table, never scattered into a dense array per (file, symbol).
    plan = generate_query_plan(n, k, 0, [lam] * sessions, generators(range(sessions)))
    tracemalloc.start()
    try:
        _session_keys(plan, sessions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * plan.permutations.nbytes


def test_template_term_cap_refuses_before_any_template(monkeypatch):
    # 14 files at n = 2 download under 2% of the cap, but their 14 templates
    # of 14 * 2**14 terms, 3.2M in all, pass the term cap.
    def build(*args):
        raise AssertionError("a block template was built")

    monkeypatch.setattr(protocol, "_block_template", build)
    with pytest.raises(ValueError, match="would hold more than 2097152 terms"):
        transcript_distribution_test(14, 2, 16384, 2, 0)


def test_download_cap_refuses_before_any_plan(monkeypatch):
    # 3 files x 10**6 sessions x 54 symbols x 13/9 bits a symbol.
    def plan(*args, **kwargs):
        raise AssertionError("a plan was built")

    monkeypatch.setattr(privacy, "generate_query_plan", plan)
    with pytest.raises(ValueError, match="more than the 50000000-bit cap"):
        transcript_distribution_test(3, 3, 54, 10**6, 0)


def test_size_caps_admit_templates_up_to_the_term_cap(monkeypatch):
    # 13 files at n = 2: 13 templates of 13 * 2**13 terms, 1.4M in all, so
    # the test goes on to build its first plan.
    class Admitted(Exception):
        pass

    def plan(*args, **kwargs):
        raise Admitted

    monkeypatch.setattr(privacy, "generate_query_plan", plan)
    with pytest.raises(Admitted):
        transcript_distribution_test(13, 2, 8192, 2, 0)
