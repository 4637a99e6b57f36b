"""Array plans against a nested-loop reference builder and a tiler.

``reference_plan`` builds the Sun-Jafar block plan one query at a time, over
every block in turn, with per-file counters mapped through the same
permutations :func:`generate_query_plan` draws.  The array plan must give the
same transcripts (in generation order and sorted), the same decode sources
and the same answer strings.

``oracles.tiled_record`` builds a plan's per-term record the direct way, by
tiling the block template over every block, offsetting counters by the block
start and mapping every term through the permutations, with the decode
sources read back from the table the decoder uses; the plan answers and
decodes block by block, and renders its transcripts, without those tiles.

``oracles.loop_block_template`` builds the block template one term at a
time, with per-file counters and per-store pools; the cached template,
built round by round from closed-form counts, must equal it array for
array, at every shape with ``K * n**K <= 200_000`` and ``n = 1`` included.

``coded_histogram`` counts the file sets of the tiled record query by
query; the structural histogram scales the block template's own count
instead.
"""

from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import loop_block_template, segment, store_view, tiled_record, xor_answers

from decpir.protocol import (
    _block_template,
    answer_queries,
    decode_desired,
    generate_query_plan,
    plan_transcripts,
    structural_privacy_histogram,
)
from decpir.rng import generator, generators


def reference_plan(n, k, desired, num_symbols, seed):
    """Per-store term lists and (db, query, side db, side query) sources."""
    block = n**k
    assert n >= 2 and num_symbols % block == 0
    rng = generator(seed)
    perms = tuple(rng.permutation(num_symbols) for _ in range(k))
    per_db = [[] for _ in range(n)]
    sources = [None] * num_symbols
    undesired_files = [j for j in range(k) if j != desired]

    for base in range(0, num_symbols, block):
        counters = [base] * k

        def fresh(j):
            c = counters[j]
            counters[j] += 1
            return c

        def term(j):
            return (j, int(perms[j][fresh(j)]))

        pool = [[] for _ in range(n)]
        for d in range(n):
            for j in range(k):
                c = counters[j]
                t = term(j)
                idx = len(per_db[d])
                per_db[d].append((t,))
                if j == desired:
                    sources[c] = (d, idx, -1, -1)
                else:
                    pool[d].append((idx, (t,)))

        for order in range(2, k + 1):
            new_pool = [[] for _ in range(n)]
            for d in range(n):
                for dp in range(n):
                    if dp == d:
                        continue
                    for src_idx, src_terms in pool[dp]:
                        c = counters[desired]
                        t = term(desired)
                        idx = len(per_db[d])
                        per_db[d].append(tuple(sorted(src_terms + (t,))))
                        sources[c] = (d, idx, dp, src_idx)
                for subset in combinations(undesired_files, order):
                    for _ in range((n - 1) ** (order - 1)):
                        terms = tuple(term(j) for j in subset)
                        idx = len(per_db[d])
                        per_db[d].append(terms)
                        new_pool[d].append((idx, terms))
            pool = new_pool
        assert counters[desired] == base + block
    return per_db, sources


def reference_transcript(queries, sort):
    lines = [" ".join(f"{f}:{i}" for f, i in q) for q in queries]
    return "\n".join(sorted(lines) if sort else lines)


def record_transcripts(plan, sort=False):
    """Every store's transcript, rendered from the tiled record."""
    files, indices, orders, _ = tiled_record(plan)
    terms = [list(zip(files.tolist(), row)) for row in indices.tolist()]
    bounds = np.cumsum(orders).tolist()
    return tuple(
        reference_transcript([row[e - o : e] for e, o in zip(bounds, orders)], sort)
        for row in terms
    )


def reference_answers(queries, symbols):
    out = []
    for q in queries:
        bit = 0
        for f, i in q:
            bit ^= int(symbols[f][i])
        out.append(bit)
    return out


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_array_plan_matches_reference(n, k):
    for blocks in (1, 2, 3):
        lam = blocks * n**k
        symbols = generator(1000 * n + k).integers(0, 2, (k, lam), dtype=np.uint8)
        for desired in range(k):
            seed = 97 * blocks + desired
            plan = generate_query_plan(n, k, desired, lam, seed)
            per_db, sources = reference_plan(n, k, desired, lam, seed)
            for sort in (False, True):
                assert plan_transcripts(plan, sort=sort) == tuple(
                    reference_transcript(qs, sort) for qs in per_db
                )
            assert tiled_record(plan)[3].tolist() == [list(s) for s in sources]
            answers = answer_queries(plan, symbols)
            for got, qs in zip(answers, per_db, strict=True):
                assert got.tolist() == reference_answers(qs, symbols)
            assert np.array_equal(decode_desired(plan, answers), symbols[desired])


TEMPLATE_SHAPES = [
    (n, k) for n in range(1, 6) for k in range(1, 8) if k * n**k <= 200_000
]


@pytest.mark.parametrize("n, k", TEMPLATE_SHAPES)
def test_block_template_matches_the_loop_builder(n, k):
    # The round-by-round arrays against the term-at-a-time builder, for every
    # desired file, n = 1 included.
    for desired in range(k):
        got = _block_template(n, k, desired)
        want = loop_block_template(n, k, desired)
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype == np.int64
            assert a.shape == b.shape
            assert a.flags.c_contiguous
            assert np.array_equal(a, b)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_segmented_plan_joins_single_plans(n, k):
    # A plan over segments is the single plans of its segments laid end to
    # end: symbol indices shift by the segment start, query numbers (in the
    # decode table) by the queries of the segments before it.
    block = n**k
    lams = [2 * block, block, 3 * block]
    seeds = [11 * k + n, 2**63 + 5, 7]
    starts = np.cumsum([0] + lams)
    symbols = generator(500 * n + k).integers(0, 2, (k, starts[-1]), dtype=np.uint8)
    for desired in range(k):
        joined = generate_query_plan(n, k, desired, lams, generators(seeds))
        singles = [
            generate_query_plan(n, k, desired, lam, seed)
            for lam, seed in zip(lams, seeds)
        ]
        assert joined.num_symbols == starts[-1]
        assert np.array_equal(
            joined.permutations,
            np.hstack([p.permutations + s for p, s in zip(singles, starts)]),
        )
        for d in range(n):
            files, indices, orders = store_view(joined, d)
            parts = [store_view(p, d) for p in singles]
            assert np.array_equal(files, np.concatenate([q[0] for q in parts]))
            assert np.array_equal(orders, np.concatenate([q[2] for q in parts]))
            assert np.array_equal(
                indices,
                np.concatenate([q[1] + s for q, s in zip(parts, starts)]),
            )
        q_starts = np.cumsum([0] + [len(store_view(p, 0)[2]) for p in singles])
        shifted = []
        for p, q0 in zip(singles, q_starts):
            src = tiled_record(p)[3].copy()
            src[:, 1] += q0
            src[src[:, 2] >= 0, 3] += q0
            shifted.append(src)
        assert np.array_equal(tiled_record(joined)[3], np.vstack(shifted))
        answers = answer_queries(joined, symbols)
        assert np.array_equal(decode_desired(joined, answers), symbols[desired])
        # Each segment cut back out is its single plan.
        for i, single in enumerate(singles):
            part = segment(joined, i)
            assert part.num_symbols == single.num_symbols
            assert np.array_equal(part.permutations, single.permutations)
            assert np.array_equal(tiled_record(part)[3], tiled_record(single)[3])
            assert part.num_replicas == single.num_replicas
            for d in range(n):
                for got, want in zip(store_view(part, d), store_view(single, d)):
                    assert np.array_equal(got, want)


def test_segment_lengths_must_fill_blocks():
    with pytest.raises(ValueError, match="multiple"):
        generate_query_plan(2, 2, 0, [4, 6, 8], [1, 2, 3])
    with pytest.raises(ValueError, match="segment"):
        generate_query_plan(2, 2, 0, [4, 8], generators([1]))


@given(
    n=st.integers(1, 4),
    k=st.integers(1, 4),
    blocks=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    seed=st.integers(0, 2**64 - 1),
)
@settings(max_examples=60, deadline=None)
def test_block_wise_plan_matches_tiled_record(n, k, blocks, seed):
    # Every desired file of a 1-3 segment plan: answers equal the per-query
    # XOR over the tiled record, decoding returns the desired file, the
    # transcripts are the tiled record's text, and each segment cut out has
    # the permutations, record and transcripts of the plan generated alone.
    block = n**k
    lams = [b * block for b in blocks]
    seeds = [seed + i for i in range(len(lams))]
    symbols = generator(seed).integers(0, 2, (k, sum(lams)), dtype=np.uint8)
    for desired in range(k):
        joined = generate_query_plan(n, k, desired, lams, generators(seeds))
        answers = answer_queries(joined, symbols)
        assert answers.tolist() == xor_answers(joined, symbols)
        assert np.array_equal(decode_desired(joined, answers), symbols[desired])
        for sort in (False, True):
            assert plan_transcripts(joined, sort) == record_transcripts(joined, sort)
        for i, (lam, s) in enumerate(zip(lams, seeds)):
            part, alone = segment(joined, i), generate_query_plan(n, k, desired, lam, s)
            assert part.num_symbols == alone.num_symbols
            assert np.array_equal(part.permutations, alone.permutations)
            for got, want in zip(tiled_record(part), tiled_record(alone), strict=True):
                assert np.array_equal(got, want)
            assert plan_transcripts(part) == plan_transcripts(alone)


def coded_histogram(plan):
    """Each query's file set, counted over the plan's tiled record."""
    files, _, orders, _ = tiled_record(plan)
    ends, files = np.cumsum(orders).tolist(), files.tolist()
    sets = (frozenset(files[e - o : e]) for e, o in zip(ends, orders.tolist()))
    return dict(Counter(sets))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_template_histogram_matches_the_coded_record(n, k):
    # Every desired file, segments of 1-3 blocks: each segment's histogram,
    # and the whole plan's, is the count over its tiled record.
    block = n**k
    lams = [b * block for b in (1, 2, 3)]
    for desired in range(k):
        plan = generate_query_plan(n, k, desired, lams, generators([7, 8, 9]))
        for part in [plan] + [segment(plan, i) for i in range(len(lams))]:
            assert structural_privacy_histogram(part) == coded_histogram(part)


def test_template_histogram_is_a_fresh_dict_each_call():
    plan = generate_query_plan(2, 3, 1, 16, 0)
    first = structural_privacy_histogram(plan)
    want = dict(first)
    first[frozenset({0})] += 5
    first[frozenset({9})] = 1
    del first[frozenset({1, 2})]
    assert structural_privacy_histogram(plan) == want == coded_histogram(plan)
