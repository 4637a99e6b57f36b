"""The segmented, array-keyed privacy test against the per-session original.

``reference_distribution_test`` is the earlier implementation, kept as the
oracle: one plan per session, each store's transcript binned by its sorted
text serialization, the chi-square summed in sorted bin order and its
p-value from ``scipy.stats.chi2``.  The array keys bin sessions differently
but must group them identically, so every count, and with it every
statistic, degree of freedom and p-value, must agree.  The dict-loop oracle
takes its p-value from the program's closed-form tail, so that its results
match to the last bit, and checks that p-value against ``chdtrc``.
"""

import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import assert_p_value_close, segment, tiled_record
from scipy.special import chdtrc
from scipy.stats import chi2

from decpir import privacy, protocol
from decpir.privacy import transcript_distribution_test, two_sample_chisquare
from decpir.protocol import (
    generate_query_plan,
    plan_transcripts,
    structural_privacy_histogram,
)
from decpir.rng import derive_seed, generators


def reference_chisquare(counts_a, counts_b):
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


def dict_loop_chisquare(counts_a, counts_b):
    """The chi-square as a loop over the bins of two dicts, exactly rounded."""
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
    if df == 0:
        return stat, df, 1.0
    p_value = privacy._chisquare_tail(df, stat)
    assert_p_value_close(p_value, float(chdtrc(df, stat)), rel=1e-12)
    return stat, df, p_value


def reference_distribution_test(k, n, lam, sessions, seed, permute):
    structural_ok = True
    reference = None
    counts = [[Counter() for _ in range(n)] for _ in range(k)]
    for desired in range(k):
        for session in range(sessions):
            plan = generate_query_plan(
                n, k, desired, lam, derive_seed(seed, desired, session), permute=permute
            )
            if session == 0:
                hist = structural_privacy_histogram(plan)
                if reference is None:
                    reference = hist
                elif hist != reference:
                    structural_ok = False
            for store, transcript in enumerate(plan_transcripts(plan, sort=True)):
                counts[desired][store][transcript] += 1
    comparisons = [
        (store, a, b, *reference_chisquare(counts[a][store], counts[b][store]))
        for a, b in combinations(range(k), 2)
        for store in range(n)
    ]
    return structural_ok, comparisons


def assert_matches_reference(k, n, lam, sessions, seed, permute):
    result = transcript_distribution_test(k, n, lam, sessions, seed, permute=permute)
    structural_ok, comparisons = reference_distribution_test(
        k, n, lam, sessions, seed, permute
    )
    assert result.structural_ok == structural_ok
    assert len(result.comparisons) == len(comparisons)
    for got, (store, a, b, stat, df, p) in zip(result.comparisons, comparisons):
        assert (got.store, got.desired_a, got.desired_b) == (store, a, b)
        assert got.dof == df
        assert got.statistic == pytest.approx(stat, rel=1e-12, abs=0)
        assert got.p_value == pytest.approx(p, rel=1e-12, abs=0)
    return result


@pytest.mark.parametrize("permute", [True, False])
@pytest.mark.parametrize("blocks", [1, 2])
@pytest.mark.parametrize("k, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_matches_reference(k, n, blocks, permute):
    for seed in (0, 1, 2):
        assert_matches_reference(k, n, blocks * n**k, 60, seed, permute)


@pytest.mark.parametrize("permute", [True, False])
@pytest.mark.parametrize(
    "k, n, lam, per_chunk", [(2, 2, 4, 100), (3, 2, 8, 64), (2, 2, 8, 1)]
)
def test_matches_reference_across_chunks(monkeypatch, k, n, lam, per_chunk, permute):
    # Small chunks, so that repeated transcripts fall in different chunks,
    # and a short last chunk.
    monkeypatch.setattr(privacy, "_CHUNK_SYMBOLS", lam * per_chunk)
    sessions = 2 * per_chunk + 37
    result = assert_matches_reference(k, n, lam, sessions, 5, permute)
    assert result.distribution_ok == permute


def test_keys_are_binned_as_plans_run(monkeypatch):
    # Between plans only the distinct keys are kept: no fold is handed more
    # than two plans' keys, whatever the session count, and every key once.
    monkeypatch.setattr(privacy, "_CHUNK_SYMBOLS", 4 * 10)
    folded = []
    bin_keys = privacy._bin_keys

    def spy(bins, pending, owners):
        folded.append(sum(len(keys) for _, keys in pending))
        return bin_keys(bins, pending, owners)

    monkeypatch.setattr(privacy, "_bin_keys", spy)
    assert_matches_reference(2, 2, 4, 95, 3, True)
    assert len(folded) > 2 and max(folded) <= 2 * 10 * 2
    assert sum(folded) == 2 * 95 * 2


def test_comparisons_are_batched_no_larger_than_the_counts(monkeypatch):
    # K=4, n=2: 12 comparisons over 8 count rows run as batches of 8 and 4,
    # so the batch matrices never outgrow the count matrix.
    batches = []
    chisquare_rows = privacy._chisquare_rows

    def spy(counts_a, counts_b):
        batches.append(len(counts_a))
        return chisquare_rows(counts_a, counts_b)

    monkeypatch.setattr(privacy, "_chisquare_rows", spy)
    assert_matches_reference(4, 2, 16, 40, 6, True)
    assert batches == [8, 4]


def test_one_plan_per_desired_file(monkeypatch):
    # K=3, n=3, two blocks, 50 sessions: each desired file's sessions fit
    # in one plan.
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return generate_query_plan(*args, **kwargs)

    monkeypatch.setattr(privacy, "generate_query_plan", counting)
    transcript_distribution_test(3, 3, 54, 50, 0)
    assert [args[2] for args in calls] == [0, 1, 2]


@pytest.mark.parametrize("per_chunk", [50, 7])
def test_one_hash_pass_per_test(monkeypatch, hash_passes, per_chunk):
    # Every session of every desired file is hashed in one pass, whether a
    # desired file's sessions take one plan or several.
    monkeypatch.setattr(privacy, "_CHUNK_SYMBOLS", 54 * per_chunk)
    transcript_distribution_test(3, 3, 54, 50, 8)
    assert hash_passes == [3 * 50]
    # Unpermuted plans draw nothing, so their seeds are not hashed.
    transcript_distribution_test(3, 3, 54, 50, 8, permute=False)
    assert hash_passes == [3 * 50]


@pytest.mark.parametrize(
    "k, n, blocks, desired", [(2, 2, 1, 0), (3, 2, 2, 1), (3, 3, 2, 2), (2, 1, 3, 1)]
)
def test_first_session_is_the_separate_plan(k, n, blocks, desired):
    lam = blocks * n**k
    seeds = [derive_seed(9, desired, s) for s in range(12)]
    plan = generate_query_plan(n, k, desired, [lam] * 12, generators(seeds))
    alone = generate_query_plan(n, k, desired, lam, seeds[0])
    first = segment(plan, 0)
    assert first.num_symbols == alone.num_symbols
    assert np.array_equal(first.permutations, alone.permutations)
    assert np.array_equal(tiled_record(first)[3], tiled_record(alone)[3])
    assert plan_transcripts(first) == plan_transcripts(alone)


@pytest.mark.parametrize("k, n, lam", [(3, 3, 54), (8, 2, 256), (40, 1, 3)])
def test_session_keys_hold_each_sessions_queries(k, n, lam):
    # A key is one store's queries of one session as whole rows in a fixed
    # order: decoded, it gives that session's transcript, one or more words
    # a row.
    sessions = 3
    seeds = [derive_seed(4, s) for s in range(sessions)]
    plan = generate_query_plan(n, k, 1, [lam] * sessions, generators(seeds))
    keys = privacy._session_keys(plan, sessions).reshape(n, sessions, -1)
    per_word = min(63 // lam.bit_length(), k)
    words = -(-k // per_word)
    for s in range(sessions):
        for store, text in enumerate(plan_transcripts(segment(plan, s), sort=True)):
            rows = keys[store, s].reshape(-1, words).tolist()
            assert rows == sorted(rows, key=lambda row: row[::-1])
            lines = []
            for row in rows:
                terms = []
                for w, code in enumerate(row):
                    for place in range(per_word):
                        digit = code // (lam + 1) ** place % (lam + 1)
                        if digit:
                            terms.append(f"{w * per_word + place}:{digit - 1}")
                lines.append(" ".join(terms))
            assert sorted(lines) == text.split("\n")


@given(
    st.lists(
        st.tuples(st.integers(0, 400), st.integers(0, 400)), min_size=1, max_size=60
    ).filter(lambda bins: all(sum(side) for side in zip(*bins)))
)
def test_array_chisquare_equals_the_dict_loop(bins):
    # Same statistic to the last bit, so digests of the test do not move.
    a, b = (np.array(side) for side in zip(*bins))
    dict_a = {i: int(c) for i, c in enumerate(a) if c}
    dict_b = {i: int(c) for i, c in enumerate(b) if c}
    got = two_sample_chisquare(a, b)
    assert repr(got) == repr(dict_loop_chisquare(dict_a, dict_b))


@st.composite
def count_matrices(draw):
    """Two (rows, bins) count matrices; each row of each has an observation."""
    rows, bins = draw(st.integers(1, 8)), draw(st.integers(1, 40))
    row = st.lists(st.integers(0, 300) | st.just(0), min_size=bins, max_size=bins)
    counts = st.lists(row.filter(any), min_size=rows, max_size=rows)
    return np.array(draw(counts)), np.array(draw(counts))


@given(count_matrices())
@example((np.array([[15, 2, 0], [2, 22, 25]]), np.array([[2, 11, 0], [12, 37, 6]])))
def test_batched_chisquare_equals_the_dict_loop_row_by_row(matrices):
    # Unequal sample sizes and bins empty in one row or both, in different
    # places per row: every row's result is the dict loop's to the last bit.
    # Both rows of the example sum to another statistic if numpy squares.
    a, b = matrices
    got = privacy._chisquare_rows(a, b)
    assert len(got) == len(a)
    for row, (row_a, row_b) in zip(got, zip(a, b)):
        dict_a = {i: int(c) for i, c in enumerate(row_a) if c}
        dict_b = {i: int(c) for i, c in enumerate(row_b) if c}
        assert repr(row) == repr(dict_loop_chisquare(dict_a, dict_b))
        assert repr(row) == repr(two_sample_chisquare(row_a, row_b))


@st.composite
def repeated_pairs(draw):
    """Count matrices whose rows repeat a few distinct (a, b) pairs over many bins.

    Counts reach 2**20 over up to 500 bins, so the counts' products stay
    below 2**53; the pair (0, 0) leaves a bin empty in both samples.
    """
    rows, bins = draw(st.integers(1, 4)), draw(st.integers(1, 500))
    count = st.integers(0, 2**20) | st.sampled_from([0, 1, 2**20])
    layout = np.random.default_rng(draw(st.integers(0, 2**32)))
    a, b = np.zeros((2, rows, bins), dtype=np.int64)
    for row in range(rows):
        pairs = draw(st.lists(st.tuples(count, count), min_size=1, max_size=4))
        pairs = np.array(pairs)
        a[row], b[row] = pairs[layout.integers(0, len(pairs), bins)].T
        # No sample stays empty.
        a[row, 0], b[row, -1] = a[row, 0] or 1, b[row, -1] or 1
    return a, b


@given(repeated_pairs())
def test_repeated_pairs_equal_the_dict_loop(matrices):
    # A row's terms are computed once per distinct pair, with its
    # multiplicity: its statistic must still be every bin's, to the last bit.
    a, b = matrices
    for row, (row_a, row_b) in zip(privacy._chisquare_rows(a, b), zip(a, b)):
        dict_a = {i: int(c) for i, c in enumerate(row_a) if c}
        dict_b = {i: int(c) for i, c in enumerate(row_b) if c}
        assert repr(row) == repr(dict_loop_chisquare(dict_a, dict_b))


def test_equal_statistics_share_one_tail(monkeypatch):
    # K=3, n=3 over 54 symbols: every sorted transcript is distinct, so the
    # nine comparisons share one (dof, statistic) and one tail evaluation.
    calls = []
    chisquare_tail = privacy._chisquare_tail

    def spy(dof, x):
        calls.append((dof, x))
        return chisquare_tail(dof, x)

    monkeypatch.setattr(privacy, "_chisquare_tail", spy)
    result = transcript_distribution_test(3, 3, 54, 50, 0)
    assert calls == [(99, 100.0)]
    p_value = chisquare_tail(99, 100.0)
    assert [(c.dof, c.statistic, c.p_value) for c in result.comparisons] == [
        (99, 100.0, p_value)
    ] * 9


@pytest.mark.parametrize(
    "bad_a, bad_b, match",
    [
        ([1, -1, 3], [1, 2, 3], "non-negative"),
        ([0, 0, 0], [3, 4, 0], "at least one observation"),
        ([3, 4, 5], [0, 0, 0], "at least one observation"),
    ],
)
def test_batched_chisquare_refuses_as_the_single_comparison(bad_a, bad_b, match):
    # One malformed row among good ones: the batch refuses with the error
    # the single comparison raises on that row.
    good = [[5, 0, 7], [2, 2, 2]]
    with pytest.raises(ValueError, match=match):
        two_sample_chisquare(np.array(bad_a), np.array(bad_b))
    with pytest.raises(ValueError, match=match):
        privacy._chisquare_rows(np.array([*good, bad_a]), np.array([*good, bad_b]))


@pytest.mark.parametrize("permute", [True, False])
@pytest.mark.parametrize(
    "k, n, lam, sessions",
    [(64, 1, 1, 3), (64, 1, 2, 3), (8, 2, 256, 3)],
)
def test_codes_wider_than_one_word(k, n, lam, sessions, permute):
    # (lam + 1)**K exceeds 2**63 here, so each query takes several words,
    # and K > 62 file sets fill more than one histogram word.
    for seed in (0, 1):
        assert_matches_reference(k, n, lam, sessions, seed, permute)


def test_single_store_instances_walk_no_subsets(monkeypatch):
    # At n = 1 no undesired sum is built, so no subset of the undesired
    # files is walked; 2**63 subsets would never finish.
    def refuse(*args):
        raise AssertionError("walked the undesired-file subsets at n = 1")

    protocol._block_template.cache_clear()
    monkeypatch.setattr(protocol, "combinations", refuse)
    templates = [protocol._block_template(1, 64, d) for d in range(64)]
    assert all(t.terms.shape[2] == 64 for t in templates)
    result = transcript_distribution_test(64, 1, 1, 2, 0)
    assert result.ok and len(result.comparisons) == 64 * 63 // 2
