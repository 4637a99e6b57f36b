"""Protocol tests: count identities, answering, decoding, privacy structure.

Count expectations are recomputed here from their combinatorial definitions
(math.comb), and answers are cross-checked against a plain nested-loop XOR
evaluator, independent of the vectorized implementation.
"""

from collections import Counter
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decpir.errors import ProtocolError
from decpir.protocol import (
    StoreQueries,
    answer_queries,
    decode_desired,
    generate_query_plan,
    plan_transcripts,
    query_codes,
    serialize_transcript,
    structural_privacy_histogram,
    unique_rows,
)


def per_db_count(n, k):
    return sum(comb(k, j) * (n - 1) ** (j - 1) for j in range(1, k + 1))


def desired_per_db(n, k):
    return sum(comb(k - 1, j - 1) * (n - 1) ** (j - 1) for j in range(1, k + 1))


def make_store(files, indices, orders):
    return StoreQueries(
        *(np.asarray(a, dtype=np.int64) for a in (files, indices, orders))
    )


def query_files(store):
    """Each query's file array, split from the flat term arrays."""
    return np.split(store.files, np.cumsum(store.orders)[:-1])


def query_terms(store):
    """Each query's (file, index) terms, split from the flat term arrays."""
    cuts = np.cumsum(store.orders)[:-1]
    return [
        list(zip(f.tolist(), i.tolist()))
        for f, i in zip(np.split(store.files, cuts), np.split(store.indices, cuts))
    ]


def side_links(plan):
    """Map (db, query index) of each desired sum to its reused sum."""
    return {
        (db, q): (sdb, sq)
        for db, q, sdb, sq in plan.sources.tolist()
        if sdb >= 0
    }


def brute_force_answers(store, symbols):
    out = []
    for terms in query_terms(store):
        bit = 0
        for f, i in terms:
            bit ^= int(symbols[f][i])
        out.append(bit)
    return out


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("k", range(1, 6))
def test_count_identities_per_block(n, k):
    block = n**k
    plan = generate_query_plan(n, k, 0, block, seed=7)
    for store in plan.stores:
        assert len(store) == per_db_count(n, k)
    assert plan.total_queries == n * (n**k - 1) // (n - 1)
    # same total written as block * sum of inverse powers
    assert Fraction(plan.total_queries) == block * sum(
        Fraction(1, n**m) for m in range(k)
    )
    assert desired_per_db(n, k) == n ** (k - 1)
    assert len(plan.sources) == block


def test_example_n2_k3():
    plan = generate_query_plan(2, 3, 0, 8, seed=0)
    assert [len(s) for s in plan.stores] == [7, 7]
    assert plan.total_queries == 14
    assert len(plan.sources) == 8
    assert Fraction(plan.total_queries, 8) == 1 + Fraction(1, 2) + Fraction(1, 4)
    # 3 singletons, 3 two-sums, 1 three-sum at each store
    for store in plan.stores:
        assert Counter(store.orders.tolist()) == {1: 3, 2: 3, 3: 1}


def test_example_n1_downloads_everything():
    plan = generate_query_plan(1, 3, 1, 11, seed=0)
    assert len(plan.stores) == 1
    assert plan.total_queries == 3 * 11
    assert (plan.stores[0].orders == 1).all()


def test_example_n3_k2():
    plan = generate_query_plan(3, 2, 0, 9, seed=1)
    for store in plan.stores:
        assert len(store) == 4
        assert Counter(store.orders.tolist()) == {1: 2, 2: 2}
        # both 2-sums carry the desired file (no undesired pair exists at K=2)
        assert all(0 in files for files in query_files(store) if len(files) == 2)
    assert plan.total_queries == 12
    assert Fraction(plan.total_queries) == 9 * (1 + Fraction(1, 3))


def test_plan_argument_validation():
    with pytest.raises(ValueError):
        generate_query_plan(2, 3, 0, 9, seed=0)  # not a multiple of 8
    with pytest.raises(ValueError):
        generate_query_plan(2, 3, 3, 8, seed=0)  # desired out of range
    with pytest.raises(ValueError):
        generate_query_plan(0, 3, 0, 8, seed=0)


def test_answer_gf2_basics():
    symbols = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    # a singleton, a sum of two ones, and a mixed sum
    queries = make_store([0, 0, 1, 0, 1], [0, 0, 0, 1, 0], [1, 2, 2])
    bits = answer_queries(queries, symbols)
    assert bits.tolist() == [1, 0, 1]


def test_answer_matches_brute_force_on_fixed_store():
    symbols = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
    plan = generate_query_plan(2, 2, 0, 4, seed=3)
    for store in plan.stores:
        assert len(store) == 3
        fast = answer_queries(store, symbols)
        assert fast.tolist() == brute_force_answers(store, symbols)


def test_answer_rejects_out_of_range():
    symbols = np.array([[1]], dtype=np.uint8)
    with pytest.raises(ProtocolError):
        answer_queries(make_store([0], [1], [1]), symbols)
    with pytest.raises(ProtocolError):
        answer_queries(make_store([1], [0], [1]), symbols)
    with pytest.raises(ProtocolError):
        answer_queries(make_store([0], [-1], [1]), symbols)


def test_answer_rejects_malformed_record():
    symbols = np.array([[1, 0], [1, 1]], dtype=np.uint8)
    with pytest.raises(ProtocolError):
        answer_queries(make_store([0, 1], [0, 0], [1]), symbols)  # short orders
    with pytest.raises(ProtocolError):
        answer_queries(make_store([0], [0], [1, 1]), symbols)  # long orders
    with pytest.raises(ProtocolError):
        answer_queries(make_store([0, 1], [0, 0], [0, 2]), symbols)  # no terms
    with pytest.raises(ProtocolError):
        answer_queries(make_store([0, 1], [0, 3], []), symbols)  # no queries


def test_decode_cancels_side_information():
    # A desired 2-sum answering 1 whose linked singleton answered 1 decodes 0.
    plan = generate_query_plan(2, 2, 0, 4, seed=5)
    symbols = np.array([np.zeros(4, dtype=np.uint8), np.ones(4, dtype=np.uint8)])
    answers = [answer_queries(s, symbols) for s in plan.stores]
    links = side_links(plan)
    assert links  # one desired 2-sum per store
    for (db, qidx), (sdb, sqidx) in links.items():
        assert answers[db][qidx] == 1  # 0 ^ 1
        assert answers[sdb][sqidx] == 1
    decoded = decode_desired(plan, answers)
    assert decoded.tolist() == [0, 0, 0, 0]


@pytest.mark.parametrize(
    "n,k,blocks", [(1, 3, 2), (2, 2, 1), (2, 3, 2), (3, 2, 1), (4, 3, 1), (2, 1, 3)]
)
def test_decode_round_trip(n, k, blocks):
    lam = blocks * (n**k if n > 1 else 5)
    rng = np.random.Generator(np.random.PCG64(88))
    symbols = np.array([rng.integers(0, 2, lam, dtype=np.uint8) for _ in range(k)])
    for desired in range(k):
        plan = generate_query_plan(n, k, desired, lam, seed=11 + desired)
        answers = [answer_queries(s, symbols) for s in plan.stores]
        decoded = decode_desired(plan, answers)
        assert np.array_equal(decoded, symbols[desired])


@given(
    n=st.integers(2, 4),
    k=st.integers(1, 4),
    blocks=st.integers(1, 2),
    desired_pick=st.integers(0, 10),
    seed=st.integers(0, 2**48),
)
def test_decode_round_trip_property(n, k, blocks, desired_pick, seed):
    lam = blocks * n**k
    desired = desired_pick % k
    rng = np.random.Generator(np.random.PCG64(seed))
    symbols = np.array([rng.integers(0, 2, lam, dtype=np.uint8) for _ in range(k)])
    plan = generate_query_plan(n, k, desired, lam, seed=seed)
    answers = [answer_queries(s, symbols) for s in plan.stores]
    assert np.array_equal(decode_desired(plan, answers), symbols[desired])


def test_decode_validates_answer_shape():
    plan = generate_query_plan(2, 2, 0, 4, seed=5)
    good = [np.zeros(3, dtype=np.uint8), np.zeros(3, dtype=np.uint8)]
    with pytest.raises(ProtocolError):
        decode_desired(plan, good[:1])
    with pytest.raises(ProtocolError):
        decode_desired(plan, [good[0][:2], good[1]])


def test_desired_indices_appear_at_most_once():
    for n, k in [(2, 3), (3, 2), (4, 4)]:
        lam = 2 * n**k if n**k <= 128 else n**k
        plan = generate_query_plan(n, k, 0, lam, seed=6)
        seen = [
            i
            for store in plan.stores
            for f, i in zip(store.files.tolist(), store.indices.tolist())
            if f == plan.desired
        ]
        assert len(seen) == len(set(seen)) == lam


def test_structural_histogram_n2_k3():
    # Every file set gets count (n-1)**(k-1) == 1, for every desired file.
    reference = None
    for desired in range(3):
        plan = generate_query_plan(2, 3, desired, 8, seed=13 + desired)
        hists = structural_privacy_histogram(plan)
        for h in hists:
            assert all(count == 1 for count in h.values())
            assert len(h) == 7  # all non-empty subsets of three files
        if reference is None:
            reference = hists
        else:
            assert hists == reference


def test_structural_histogram_n3_k2():
    plan = generate_query_plan(3, 2, 1, 9, seed=2)
    for h in structural_privacy_histogram(plan):
        assert h[frozenset({0})] == 1
        assert h[frozenset({1})] == 1
        assert h[frozenset({0, 1})] == 2  # (n-1)**(k-1) == 2


@given(
    n=st.integers(2, 4),
    k=st.integers(1, 4),
    seed=st.integers(0, 2**48),
)
def test_structural_histogram_theta_invariant(n, k, seed):
    hists = [
        structural_privacy_histogram(
            generate_query_plan(n, k, desired, n**k, seed=seed + desired)
        )
        for desired in range(k)
    ]
    assert all(h == hists[0] for h in hists[1:])


@pytest.mark.parametrize(
    "n, k, lam", [(1, 1, 3), (2, 3, 16), (3, 3, 54), (2, 8, 256), (1, 64, 2), (2, 2, 0)]
)
def test_structural_histogram_counts_file_sets(n, k, lam):
    # Against a count of each query's file set, past 63 files included.
    plan = generate_query_plan(n, k, k - 1, lam, seed=5)
    want = []
    for store in plan.stores:
        ends = np.cumsum(store.orders).tolist()
        files = store.files.tolist()
        want.append(
            Counter(frozenset(files[e - o : e]) for e, o in zip(ends, store.orders))
        )
    assert structural_privacy_histogram(plan) == tuple(map(dict, want))


@pytest.mark.parametrize(
    "n, k, lam", [(3, 3, 54), (2, 8, 256), (1, 64, 2), (1, 63, 1), (1, 40, 3)]
)
def test_query_codes_stay_exact(n, k, lam):
    # Rows must group queries exactly as their per-file digits do, with no
    # word past 2**63 - 1, also where (lam + 1)**K needs several words; at
    # lam = 3 a word of 32 base-4 places would reach 2**64.
    plan = generate_query_plan(n, k, 0, lam, seed=3)
    store = plan.stores[-1]
    codes = query_codes(store.files, store.orders, store.indices + 1, lam + 1, k)
    assert codes.shape[0] == len(store) and (codes >= 0).all()
    ends = np.cumsum(store.orders).tolist()
    terms = list(zip(store.files.tolist(), (store.indices + 1).tolist()))
    digits = [tuple(terms[e - o : e]) for e, o in zip(ends, store.orders.tolist())]
    _, inverse = unique_rows(codes.reshape(len(store), -1), return_inverse=True)
    labels = inverse.tolist()
    pairs = set(zip(labels, digits))
    assert len(pairs) == len(set(labels)) == len(set(digits))


def test_side_information_accounting():
    # Every purely-undesired sum of order < K is reused by exactly one
    # desired sum at each other store.
    for n, k in [(2, 3), (3, 3), (4, 2)]:
        plan = generate_query_plan(n, k, 0, n**k, seed=3)
        links = side_links(plan)
        consumers = Counter(target for target in links.values())
        consumer_dbs = {}
        for (db, _), target in links.items():
            consumer_dbs.setdefault(target, set()).add(db)
        for dp, store in enumerate(plan.stores):
            for idx, files in enumerate(query_files(store)):
                if plan.desired not in files and len(files) < k:
                    assert consumers[(dp, idx)] == n - 1
                    assert consumer_dbs[(dp, idx)] == set(range(n)) - {dp}


def test_transcript_serialization_format():
    plan = generate_query_plan(2, 2, 0, 4, seed=42)
    wire = plan_transcripts(plan)
    assert len(wire) == 2
    lines = wire[0].split("\n")
    assert len(lines) == 3
    for line in lines:
        for term in line.split(" "):
            f, i = term.split(":")
            assert 0 <= int(f) < 2
            assert 0 <= int(i) < 4
    # sorted view is the same multiset of lines
    assert sorted(lines) == serialize_transcript(
        plan.stores[0], sort=True
    ).split("\n")


def test_plans_are_deterministic_under_seed():
    a = generate_query_plan(3, 3, 1, 27, seed=123)
    b = generate_query_plan(3, 3, 1, 27, seed=123)
    assert plan_transcripts(a) == plan_transcripts(b)
    assert np.array_equal(a.sources, b.sources)


@pytest.mark.parametrize(
    "lam, seed",
    [
        (8, [1, 2]),  # one length, a sequence of seeds
        ([8, 8], 3),  # segment lengths, one seed
        (8, 1.5),  # a float seed
        ([8, 8], [1, 2.0]),  # a float among the segment seeds
    ],
)
def test_seed_and_length_types_are_refused(lam, seed):
    with pytest.raises(ValueError, match="seed"):
        generate_query_plan(2, 3, 0, lam, seed)


@pytest.mark.parametrize(
    "seed", [-1, -(2**40), 2**64 + 9, 2**64 - 1, np.int64(-3), np.uint64(2**63)]
)
def test_seeds_are_taken_mod_2_to_the_64(seed):
    want = generate_query_plan(3, 3, 1, 27, int(seed) % 2**64)
    got = generate_query_plan(3, 3, 1, 27, seed)
    assert plan_transcripts(got) == plan_transcripts(want)
    # The batch seeding of a many-segment plan masks the same way.
    many = generate_query_plan(3, 3, 1, [27] * 9, [seed] * 9)
    shifted = many.permutations.reshape(3, 9, 27) - 27 * np.arange(9)[:, None]
    assert (shifted == want.permutations[:, None, :]).all()
