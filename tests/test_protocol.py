"""Protocol tests: count identities, answering, decoding, privacy structure.

Count expectations are recomputed here from their combinatorial definitions
(math.comb), and answers are cross-checked against a plain nested-loop XOR
evaluator, independent of the vectorized implementation.  Per-store checks
read each store's queries through ``oracles.store_view`` and the decode
table through ``oracles.tiled_record``.
"""

import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from itertools import accumulate, groupby, islice
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import segment, store_view, tiled_record, xor_answers

from decpir.errors import ProtocolError
from decpir.protocol import (
    _block_template,
    answer_queries,
    decode_desired,
    generate_query_plan,
    plan_transcripts,
    structural_privacy_histogram,
)
from decpir.rng import _ARRAY_SEEDS, derive_seed, derive_seeds, generator, generators


def per_db_count(n, k):
    return sum(comb(k, j) * (n - 1) ** (j - 1) for j in range(1, k + 1))


def desired_per_db(n, k):
    return sum(comb(k - 1, j - 1) * (n - 1) ** (j - 1) for j in range(1, k + 1))


def query_files(plan, d):
    """Store ``d``'s query file arrays, split from the flat term arrays."""
    files, _, orders = store_view(plan, d)
    return np.split(files, np.cumsum(orders)[:-1])


def side_links(plan):
    """Map (db, query index) of each desired sum to its reused sum."""
    return {
        (db, q): (sdb, sq)
        for db, q, sdb, sq in tiled_record(plan)[3].tolist()
        if sdb >= 0
    }


@pytest.mark.parametrize("n", range(2, 6))
@pytest.mark.parametrize("k", range(1, 6))
def test_count_identities_per_block(n, k):
    block = n**k
    plan = generate_query_plan(n, k, 0, block, seed=7)
    for d in range(n):
        assert len(store_view(plan, d)[2]) == per_db_count(n, k)
    assert plan.total_queries == n * (n**k - 1) // (n - 1)
    # same total written as block * sum of inverse powers
    assert Fraction(plan.total_queries) == block * sum(
        Fraction(1, n**m) for m in range(k)
    )
    assert desired_per_db(n, k) == n ** (k - 1)
    assert plan.block == len(tiled_record(plan)[3]) == block


def test_example_n2_k3():
    plan = generate_query_plan(2, 3, 0, 8, seed=0)
    assert [len(store_view(plan, d)[2]) for d in range(2)] == [7, 7]
    assert plan.total_queries == 14
    assert plan.block == len(tiled_record(plan)[3]) == 8
    assert Fraction(plan.total_queries, 8) == 1 + Fraction(1, 2) + Fraction(1, 4)
    # 3 singletons, 3 two-sums, 1 three-sum at each store
    for d in range(2):
        assert Counter(store_view(plan, d)[2].tolist()) == {1: 3, 2: 3, 3: 1}


def test_example_n1_downloads_everything():
    plan = generate_query_plan(1, 3, 1, 11, seed=0)
    assert plan.num_replicas == len(tiled_record(plan)[1]) == 1
    assert plan.total_queries == 3 * 11
    assert (store_view(plan, 0)[2] == 1).all()


def test_example_n3_k2():
    plan = generate_query_plan(3, 2, 0, 9, seed=1)
    for d in range(3):
        orders = store_view(plan, d)[2]
        assert len(orders) == 4
        assert Counter(orders.tolist()) == {1: 2, 2: 2}
        # both 2-sums carry the desired file (no undesired pair exists at K=2)
        assert all(0 in files for files in query_files(plan, d) if len(files) == 2)
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
    # Unpermuted, store 0 asks for symbol 0 of each file and 0:2 ^ 1:1,
    # store 1 for symbol 1 of each file and 0:3 ^ 1:0: singletons, a sum of
    # two ones and a mixed sum.
    plan = generate_query_plan(2, 2, 0, 4, seed=0, permute=False)
    assert plan_transcripts(plan) == ("0:0\n1:0\n0:2 1:1", "0:1\n1:1\n0:3 1:0")
    symbols = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
    assert answer_queries(plan, symbols).tolist() == [[1, 0, 0], [0, 1, 1]]


def test_plan_stores_only_its_permutations():
    # A retrieval-sized plan holds no per-term or per-query array, before or
    # after answering, decoding and rendering its transcripts.
    plan = generate_query_plan(3, 3, 1, 40 * 27, seed=4)
    stored = [v for v in vars(plan).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in stored) == plan.permutations.nbytes
    answers = answer_queries(plan, np.zeros((3, plan.num_symbols), dtype=np.uint8))
    decode_desired(plan, answers)
    plan_transcripts(plan)
    assert list(vars(plan)) == [
        "num_replicas", "num_files", "desired", "num_symbols", "permutations",
        "segment_starts",
    ]


def test_answer_matches_brute_force_on_fixed_store():
    symbols = np.array([[1, 0, 1, 1], [0, 1, 1, 0]], dtype=np.uint8)
    plan = generate_query_plan(2, 2, 0, 4, seed=3)
    fast = answer_queries(plan, symbols)
    for d in range(2):
        assert len(store_view(plan, d)[2]) == len(fast[d]) == 3
    assert fast.tolist() == xor_answers(plan, symbols)


@pytest.mark.parametrize("n, k", [(1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_answer_rows_match_per_query_xor_on_segments(n, k):
    # Row d of the answer matrix is store d's answers, query by query, for
    # a plan of several segments and for each segment cut out of it.
    block = n**k
    lams = [block, 3 * block, 2 * block]
    plan = generate_query_plan(n, k, k - 1, lams, generators([4, 5, 6]))
    rng = np.random.Generator(np.random.PCG64(n * 10 + k))
    symbols = rng.integers(0, 2, (k, plan.num_symbols), dtype=np.uint8)
    answers = answer_queries(plan, symbols)
    assert answers.shape == (n, plan.total_queries // n)
    assert answers.tolist() == xor_answers(plan, symbols)
    for i, (a, b) in enumerate(zip(plan.segment_starts, plan.segment_starts[1:])):
        part = segment(plan, i)
        assert answer_queries(part, symbols[:, a:b]).tolist() == xor_answers(
            part, symbols[:, a:b]
        )


def test_answer_rejects_out_of_range():
    # A counter mapped past the stored symbols or below them, and stores
    # missing a file or a symbol that the plan refers to.
    plan = generate_query_plan(2, 2, 0, 4, seed=3)
    symbols = np.ones((2, 4), dtype=np.uint8)
    for value in (4, -1):
        perms = plan.permutations.copy()
        perms[1, 2] = value
        with pytest.raises(ProtocolError, match="permutations"):
            answer_queries(replace(plan, permutations=perms), symbols)
    for bad in (symbols[:1], symbols[:, :3]):
        with pytest.raises(ProtocolError, match="symbol matrix"):
            answer_queries(plan, bad)


def test_answer_rejects_malformed_record():
    # A plan's record is its permutations: one row per file, one column per
    # symbol, in whole blocks.  Symbols must be one (K, lam) matrix.
    plan = generate_query_plan(2, 2, 0, 8, seed=3)
    symbols = np.ones((2, 8), dtype=np.uint8)
    perms = plan.permutations
    for bad in (perms[:1], perms[:, :4], perms.reshape(-1), perms[:, :7] % 7):
        with pytest.raises(ProtocolError, match="permutations"):
            answer_queries(replace(plan, permutations=bad), symbols)
    for bad in (np.ones((3, 8)), symbols.reshape(-1), symbols[None]):
        with pytest.raises(ProtocolError, match="symbol matrix"):
            answer_queries(plan, bad)
    # Lengths that are not whole blocks, with permutations to match.
    odd = replace(plan, num_symbols=6, permutations=perms[:, :6] % 6)
    with pytest.raises(ProtocolError, match="permutations"):
        answer_queries(odd, symbols[:, :6])


def test_decode_cancels_side_information():
    # A desired 2-sum answering 1 whose linked singleton answered 1 decodes 0.
    plan = generate_query_plan(2, 2, 0, 4, seed=5)
    symbols = np.array([np.zeros(4, dtype=np.uint8), np.ones(4, dtype=np.uint8)])
    answers = answer_queries(plan, symbols)
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
        answers = answer_queries(plan, symbols)
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
    answers = answer_queries(plan, symbols)
    assert np.array_equal(decode_desired(plan, answers), symbols[desired])


def test_decode_validates_answer_shape():
    plan = generate_query_plan(2, 2, 0, 4, seed=5)
    good = np.zeros((2, 3), dtype=np.uint8)
    assert decode_desired(plan, good).tolist() == [0, 0, 0, 0]
    with pytest.raises(ProtocolError):
        decode_desired(plan, good[:1])
    with pytest.raises(ProtocolError):
        decode_desired(plan, good[:, :2])


@pytest.mark.parametrize("shape", [(3, 2), (6,), (2, 4), (2, 3, 1), (0, 3)])
def test_decode_refuses_answer_matrices_of_another_shape(shape):
    plan = generate_query_plan(2, 2, 1, 4, seed=5)
    with pytest.raises(ProtocolError, match="answer matrix"):
        decode_desired(plan, np.zeros(shape, dtype=np.uint8))


def test_desired_indices_appear_at_most_once():
    for n, k in [(2, 3), (3, 2), (4, 4)]:
        lam = 2 * n**k if n**k <= 128 else n**k
        plan = generate_query_plan(n, k, 0, lam, seed=6)
        seen = [
            i
            for d in range(n)
            for f, i in zip(*(a.tolist() for a in store_view(plan, d)[:2]))
            if f == plan.desired
        ]
        assert len(seen) == len(set(seen)) == lam


def test_structural_histogram_n2_k3():
    # Every file set gets count (n-1)**(k-1) == 1, for every desired file.
    reference = None
    for desired in range(3):
        plan = generate_query_plan(2, 3, desired, 8, seed=13 + desired)
        h = structural_privacy_histogram(plan)
        assert all(count == 1 for count in h.values())
        assert len(h) == 7  # all non-empty subsets of three files
        if reference is None:
            reference = h
        else:
            assert h == reference


def test_structural_histogram_n3_k2():
    plan = generate_query_plan(3, 2, 1, 9, seed=2)
    h = structural_privacy_histogram(plan)
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
    # Against a count of each store's query file sets, past 63 files included.
    plan = generate_query_plan(n, k, k - 1, lam, seed=5)
    hist = structural_privacy_histogram(plan)
    for d in range(n):
        files, _, orders = store_view(plan, d)
        ends = np.cumsum(orders).tolist()
        files = files.tolist()
        want = Counter(frozenset(files[e - o : e]) for e, o in zip(ends, orders))
        assert hist == dict(want)


@pytest.mark.parametrize("n, k, desired", [(1, 1, 0), (2, 3, 1), (3, 3, 2), (1, 64, 5)])
def test_block_template_is_three_read_only_arrays(n, k, desired):
    # The padded terms are the template's only record of its queries.
    t = _block_template(n, k, desired)
    assert t._fields == ("terms", "direct", "side")
    assert all(a.dtype == np.int64 and not a.flags.writeable for a in t)
    # Padded to the widest query: the K-sums, or singletons alone at n = 1.
    assert t.terms.shape == (1 if n == 1 else k, n, per_db_count(n, k))
    assert t.direct.shape == t.side.shape == (n**k,)


@pytest.mark.parametrize("n, k, blocks", [(4, 7, 2), (5, 7, 1), (3, 9, 3)])
def test_answers_peak_below_half_the_permutations(n, k, blocks):
    # The symbols are gathered file by file, so no index array spans every
    # file's permutation.
    plan = generate_query_plan(n, k, 1, blocks * n**k, seed=3)
    symbols = np.random.default_rng(0).integers(0, 2, (k, plan.num_symbols), np.uint8)
    tracemalloc.start()
    try:
        answer_queries(plan, symbols)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= plan.permutations.nbytes // 2


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
        for dp in range(n):
            for idx, files in enumerate(query_files(plan, dp)):
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
    assert sorted(lines) == plan_transcripts(plan, sort=True)[0].split("\n")


def test_plans_are_deterministic_under_seed():
    a = generate_query_plan(3, 3, 1, 27, seed=123)
    b = generate_query_plan(3, 3, 1, 27, seed=123)
    assert plan_transcripts(a) == plan_transcripts(b)
    assert np.array_equal(a.permutations, b.permutations)


@pytest.mark.parametrize(
    "lam, seed",
    [
        (8, [1, 2]),  # one length, a sequence of seeds
        ([8, 8], 3),  # segment lengths, one seed
        (8, 1.5),  # a float seed
        ([8, 8], [1, 2.0]),  # a float among the segment seeds
        (8, np.array([1])),  # an array seed (its type has __index__)
    ],
)
def test_seed_and_length_types_are_refused(lam, seed):
    with pytest.raises(ValueError, match="seed"):
        generate_query_plan(2, 3, 0, lam, seed)


@pytest.mark.parametrize(
    "lam, seed, shown",
    [
        ([54.7, 54.2], [1, 2], "54.7"),  # float segment lengths
        ([27, 27.0], [1, 2], "27.0"),  # a float among the segment lengths
        (54.0, 1, "54.0"),  # a float length
        ("54", 1, "'54'"),  # a string length
        ([np.array([27])], [1], "array([27])"),  # an array among the lengths
    ],
)
def test_non_integer_lengths_are_refused(lam, seed, shown):
    want = f"symbol counts must be integers, got {re.escape(shown)}$"
    with pytest.raises(ValueError, match=want):
        generate_query_plan(3, 3, 0, lam, seed)


def test_numpy_integer_lengths_count_as_ints():
    want = generate_query_plan(3, 3, 1, [27, 54], generators([5, 6]))
    for lam in ([np.int64(27), np.uint16(54)], np.array([27, 54])):
        got = generate_query_plan(3, 3, 1, lam, generators([5, 6]))
        assert got.segment_starts == want.segment_starts == (0, 27, 81)
        assert all(type(start) is int for start in got.segment_starts)
        assert np.array_equal(got.permutations, want.permutations)
    want = generate_query_plan(3, 3, 1, 27, 5)
    for lam in (np.int64(27), np.array(27)):  # one length, not a list of them
        got = generate_query_plan(3, 3, 1, lam, 5)
        assert got.segment_starts == want.segment_starts == (0, 27)
        assert np.array_equal(got.permutations, want.permutations)


@pytest.mark.parametrize(
    "seed", [-1, -(2**40), 2**64 + 9, 2**64 - 1, np.int64(-3), np.uint64(2**63)]
)
def test_seeds_are_taken_mod_2_to_the_64(seed):
    want = generate_query_plan(3, 3, 1, 27, int(seed) % 2**64)
    got = generate_query_plan(3, 3, 1, 27, seed)
    assert plan_transcripts(got) == plan_transcripts(want)
    # The batch seeding of a many-segment plan's generators masks the same way.
    many = generate_query_plan(3, 3, 1, [27] * 9, generators([seed] * 9))
    shifted = many.permutations.reshape(3, 9, 27) - 27 * np.arange(9)[:, None]
    assert (shifted == want.permutations[:, None, :]).all()


SEGMENT_CASES = [
    (1, 3, [1]),  # n = 1, one segment
    (1, 2, [1, 3, 0, 2]),
    (2, 3, [16]),  # one segment
    (2, 3, [8, 24, 0, 16, 8]),  # unequal lengths, an empty one
    (3, 2, ([9, 18, 27] * _ARRAY_SEEDS)[: _ARRAY_SEEDS - 1]),  # per-seed path
    (3, 2, ([9, 18, 27] * _ARRAY_SEEDS)[:_ARRAY_SEEDS]),  # one array pass
    (2, 2, [4, 8, 12] * 10),
]


@pytest.mark.parametrize("n, k, lams", SEGMENT_CASES)
def test_caller_generators_draw_what_their_seeds_draw(n, k, lams):
    # Each segment of a plan handed its seeds' generators, as a list, as a
    # stream or hashed from a uint64 array, is the integer-seed plan of its
    # own seed.
    seeds = [derive_seed(41, n, k, i) for i in range(len(lams))]
    as_array = derive_seeds(41, n, k, indices=range(len(lams)))
    alone = [generate_query_plan(n, k, k - 1, lam, s) for lam, s in zip(lams, seeds)]
    for given in (list(generators(seeds)), generators(seeds), generators(as_array)):
        got = generate_query_plan(n, k, k - 1, lams, given)
        assert got.segment_starts == tuple(accumulate(lams, initial=0))
        for i, want in enumerate(alone):
            assert np.array_equal(segment(got, i).permutations, want.permutations)


@pytest.mark.parametrize("n, k, lam", [(1, 3, 2), (2, 3, 16), (3, 2, 27)])
def test_one_segment_takes_either_seed_form(n, k, lam):
    # The seed's type picks its form, whether the length is listed or not.
    want = generate_query_plan(n, k, 0, lam, 5)
    for lams in (lam, [lam]):
        for seed in (5, [generator(5)], iter([generator(5)])):
            got = generate_query_plan(n, k, 0, lams, seed)
            assert got.segment_starts == (0, lam)
            assert np.array_equal(got.permutations, want.permutations)


@pytest.mark.parametrize("lams", [[4, 8, 4], [8, 8, 16, 8], [0, 4, 0, 0]])
def test_a_lone_generator_draws_one_call_per_run(lams):
    # One Generator permutes every segment: each run of equal lengths is one
    # ``permuted`` call over its (file, segment) rows, file-major.
    got = generate_query_plan(2, 2, 0, lams, generator(1))
    rng, drawn = generator(1), []
    for lam, run in groupby(lams):
        rows = np.tile(np.arange(lam), (2, len(list(run)), 1))
        drawn.extend(rng.permuted(rows, axis=2).transpose(1, 0, 2))
    assert got.segment_starts == tuple(accumulate(lams, initial=0))
    for i, (lam, want) in enumerate(zip(lams, drawn, strict=True)):
        part = segment(got, i).permutations
        assert np.array_equal(part, want)
        assert (np.sort(part, axis=1) == np.arange(lam)).all()
    # A plan of one segment draws what the integer seed draws.
    for lam in set(lams):
        alone = generate_query_plan(2, 2, 0, [lam], generator(1))
        want = generate_query_plan(2, 2, 0, lam, 1)
        assert np.array_equal(alone.permutations, want.permutations)


def test_generator_seeded_plan_text_is_pinned():
    # Segments permuted from one Generator, as a retrieval's plans are.
    plan = generate_query_plan(2, 2, 1, [4, 4, 8], generator(11))
    assert plan_transcripts(plan) == (
        "0:3\n1:2\n0:1 1:0\n0:5\n1:6\n0:7 1:4"
        "\n0:10\n1:12\n0:11 1:15\n0:9\n1:13\n0:12 1:14",
        "0:1\n1:1\n0:3 1:3\n0:7\n1:5\n0:5 1:7"
        "\n0:11\n1:10\n0:10 1:9\n0:12\n1:11\n0:9 1:8",
    )


@pytest.mark.parametrize(
    "seeds, match",
    [
        (lambda rngs: [5, rngs[1], 7], "must yield numpy Generators, got 5$"),
        (lambda rngs: [rngs[0], 6, rngs[2]], "must yield numpy Generators, got 6$"),
        (lambda rngs: [rngs[0], 1.5, rngs[2]], "must yield numpy Generators, got 1.5$"),
        (lambda rngs: rngs[:2], "3 segment lengths but 2 seed Generators"),
        (lambda rngs: rngs + rngs[:1], "3 segment lengths but more seed Generators"),
    ],
    # Ids name the expected message, but for the first three inputs, which
    # keep the ids of the seed forms they break: a list of integers mixed
    # with Generators, and one item that is neither.
    ids=lambda v: {
        "must yield numpy Generators, got 5$": "all integers or all numpy Generators",
        "must yield numpy Generators, got 6$": "all integers or all numpy Generators",
        "must yield numpy Generators, got 1.5$": "integers or numpy Generators, got 1.5",
    }.get(v, v if isinstance(v, str) else None),
)
def test_mixed_or_miscounted_generators_are_refused(seeds, match):
    rngs = list(generators([1, 2, 3]))
    with pytest.raises(ValueError, match=match):
        generate_query_plan(2, 2, 0, [4, 8, 4], seeds(rngs))


@pytest.mark.parametrize(
    "seeds, match",
    [
        (lambda rngs: [rngs[0], 6, rngs[2]], "must yield numpy Generators, got 6$"),
        (lambda rngs: rngs[:2], "3 segment lengths but 2 seed Generators"),
        (lambda rngs: rngs + rngs[:1], "3 segment lengths but more seed Generators"),
    ],
)
def test_mixed_or_miscounted_generator_iterators_are_refused(seeds, match):
    rngs = list(generators([1, 2, 3]))
    with pytest.raises(ValueError, match=match):
        generate_query_plan(2, 2, 0, [4, 8, 4], iter(seeds(rngs)))


def test_plans_take_no_more_than_their_slice_of_a_stream():
    # Each plan takes its segments' generators from one shared stream, so
    # the next plan's first segment draws from the next seed's generator.
    seeds = [derive_seed(43, i) for i in range(9)]
    stream = generators(seeds)
    got = [generate_query_plan(2, 2, 1, [4] * 3, islice(stream, 3)) for _ in range(3)]
    for i, plan in enumerate(got):
        for j in range(3):
            want = generate_query_plan(2, 2, 1, 4, seeds[3 * i + j])
            assert np.array_equal(segment(plan, j).permutations, want.permutations)
    assert next(stream, None) is None


def test_unpermuted_plans_draw_from_no_generator():
    rngs = list(generators([1, 2]))
    plan = generate_query_plan(2, 2, 0, [4, 8], rngs, permute=False)
    assert np.array_equal(plan.permutations, np.tile(np.arange(12), (2, 1)))
    for seed, rng in zip([1, 2], rngs):
        want = generator(seed).integers(0, 2**62, 4).tolist()
        assert rng.integers(0, 2**62, 4).tolist() == want

    # Nor do they take a generator from the seed.
    class Untouchable:
        def __iter__(self):
            return self

        def __next__(self):
            raise AssertionError("an unpermuted plan took a seed")

    plan = generate_query_plan(2, 2, 0, [4, 8], Untouchable(), permute=False)
    assert np.array_equal(plan.permutations, np.tile(np.arange(12), (2, 1)))
