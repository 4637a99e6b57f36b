"""Orchestrator tests: exact costs, reliability, locality, bound dominance.

``reference_retrieve`` runs one protocol session per storage set, the
straightforward form of the scheme; :func:`retrieve_file` runs every set of
one size as a segment of a single plan and must agree with it exactly.
``retrieve_with_sessions`` cuts each set's session out of the plans and
answers that :func:`retrieve_file` really builds, so the session checks
read what retrieval ran, not a rebuilt copy.
"""

import json
import re
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import groupby
from typing import NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import query_starts, segment, store_view

import decpir.retrieval as retrieval
from decpir.analysis import capacity_classical
from decpir.errors import ReliabilityError
from decpir.model import build_file_store, partition_by_storage_set
from decpir.placement import (
    ExplicitSetsPlacement,
    UniformRandomPlacement,
    WholeFilePrefixPlacement,
    sample_placement,
)
from decpir.protocol import (
    QueryPlan,
    answer_queries,
    decode_desired,
    generate_query_plan,
    plan_transcripts,
)
from decpir.retrieval import _padded_blocks, retrieve_file, simulate_trials
from decpir.rng import _ARRAY_SEEDS, derive_seed, generator


def reference_retrieve(store, realization, desired, seed):
    """One session per storage set, in canonical order.

    Every set of two or more nodes draws its ``(K, lambda)`` permutations
    from one ``generator(seed)``: each run of consecutive sets of one size
    and one padded length is one ``permuted`` call over ``(K, count,
    lambda)`` identity rows, file-major.  Returns the recovered bits,
    ``per_node``, ``per_partition``, ``total``, ``ideal`` and, per storage
    set, its node tuple, answer strings and (for sets of two or more nodes)
    its plan.
    """
    k, length = store.num_files, store.file_len
    partition = partition_by_storage_set(realization)
    recovered = np.zeros(length, dtype=np.uint8)
    per_node = [0] * (realization.num_dbs + 1)
    per_partition = {}
    ideal = Fraction(0)
    sessions = []
    starts = partition.starts.tolist()
    all_lengths = partition.lengths().tolist()
    # Each set of two or more nodes: its size and padded length, the smallest
    # multiple of |S|**K that holds its longest file.
    shapes = [
        (len(s), -(-max(lengths) // len(s) ** k) * len(s) ** k)
        for s, lengths in zip(partition.entries, all_lengths)
        if len(s) > 1
    ]
    rng, drawn = generator(seed), []
    for (size, lam), run in groupby(shapes):
        count = len(list(run))
        rows = np.tile(np.arange(lam), (k, count, 1))
        drawn.extend(rng.permuted(rows, axis=2).transpose(1, 0, 2))
    drawn = iter(drawn)
    for index, (s, lengths) in enumerate(zip(partition.entries, all_lengths)):
        nodes = tuple(sorted(s))
        positions = [
            partition.addresses[starts[index * k + j] : starts[index * k + j + 1]]
            - j * length
            for j in range(k)
        ]
        if len(s) == 1:
            answers = np.concatenate([store.bits[j][positions[j]] for j in range(k)])
            start = sum(lengths[:desired])
            recovered[positions[desired]] = answers[
                start : start + lengths[desired]
            ]
            per_node[0] += len(answers)
            per_partition[nodes] = len(answers)
            ideal += len(answers)
            sessions.append((nodes, (answers,), None))
            continue
        perms = next(drawn)
        lam = perms.shape[1]
        plan = replace(
            generate_query_plan(len(s), k, desired, lam, 0, permute=False),
            permutations=perms,
        )
        padded = np.zeros((k, lam), dtype=np.uint8)
        for j in range(k):
            padded[j, : lengths[j]] = store.bits[j][positions[j]]
        answers = answer_queries(plan, padded)
        decoded = decode_desired(plan, answers)
        assert not decoded[lengths[desired] :].any()
        recovered[positions[desired]] = decoded[: lengths[desired]]
        for node, answer in zip(nodes, answers):
            per_node[node] += len(answer)
        per_partition[nodes] = sum(len(a) for a in answers)
        ideal += max(lengths) * capacity_classical(k, len(s))
        sessions.append((nodes, answers, plan))
    return recovered, tuple(per_node), per_partition, sum(per_node), ideal, sessions


class Session(NamedTuple):
    """One storage set's protocol session, cut from what retrieval built."""

    nodes: tuple[int, ...]
    plan: Optional[QueryPlan]  # None for the data-center-only set
    answers: tuple[np.ndarray, ...]


def retrieve_with_sessions(store, partition, desired, seed):
    """:func:`retrieve_file` and one :class:`Session` per storage set.

    For the length of the call, ``decpir.retrieval.generate_query_plan`` and
    ``answer_queries`` are wrapped to record every plan and answer matrix
    retrieval builds.  Segment ``i`` of the plan for sets of ``s`` nodes is
    the ``i``-th set of that size: its plan is ``oracles.segment(plan, i)``
    and its answers each store's row of the matrix cut at
    ``oracles.query_starts(plan)``.  The data-center-only set runs no plan;
    its one answer string is the store's bits at its addresses, and its
    length must be the set's charge.
    """
    plans, matrices = [], []
    generate, answer = retrieval.generate_query_plan, retrieval.answer_queries

    def record_plan(*args, **kwargs):
        plans.append(generate(*args, **kwargs))
        return plans[-1]

    def record_answer(plan, symbols):
        matrices.append(answer(plan, symbols))
        return matrices[-1]

    retrieval.generate_query_plan = record_plan
    retrieval.answer_queries = record_answer
    try:
        result = retrieve_file(store, partition, desired, seed)
    finally:
        retrieval.generate_query_plan = generate
        retrieval.answer_queries = answer

    k, nodes = partition.num_files, partition.node_tuples()
    sessions = []
    if partition.sizes[0] == 1:
        raw = store.bits.reshape(-1)[partition.addresses[: partition.starts[k]]]
        assert len(raw) == result.report.per_partition[nodes[0]]
        sessions.append(Session(nodes[0], None, (raw,)))
    assert len(matrices) == len(plans)
    for plan, answers in zip(plans, matrices):
        first = int(np.searchsorted(partition.sizes, plan.num_replicas))
        assert answers.shape == (plan.num_replicas, query_starts(plan)[-1])
        q = query_starts(plan).tolist()
        for i, (qa, qb) in enumerate(zip(q, q[1:])):
            cut = tuple(answers[:, qa:qb])
            sessions.append(Session(nodes[first + i], segment(plan, i), cut))
    return result, sessions


def test_data_center_only_costs_everything():
    # N=0: downloading privately means downloading all K files.
    store = build_file_store(3, 10, seed=1)
    real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 3, 10, 0, seed=2)
    part = partition_by_storage_set(real)
    for desired in range(3):
        result = retrieve_file(store, part, desired, seed=3)
        assert result.report.total == 30
        assert result.report.ideal == 30
        assert np.array_equal(result.bits, store.bits[desired])


def test_full_replication_exact_cost():
    # mu=1 with L a multiple of (N+1)**K: one partition, zero padding.
    k, n, length = 2, 1, 8  # block size 4 divides 8
    store = build_file_store(k, length, seed=4)
    real = sample_placement(UniformRandomPlacement(Fraction(1)), k, length, n, seed=5)
    result = retrieve_file(store, partition_by_storage_set(real), 0, seed=6)
    expected = length * capacity_classical(k, n + 1)
    assert result.report.total == expected
    assert result.report.ideal == expected  # no padding overage


def test_whole_file_prefix_exact_cost():
    # One partition holds the prefix file replicated everywhere (pad-free at
    # L % 27 == 0), the rest is a download-everything set of 2L bits:
    # normalized cost 13/9 + 2 == 31/9.
    length = 2700
    store = build_file_store(3, length, seed=7)
    real = sample_placement(
        WholeFilePrefixPlacement((0,)), 3, length, 2, seed=8, mu=Fraction(1, 3)
    )
    part = partition_by_storage_set(real)
    for desired in range(3):
        result = retrieve_file(store, part, desired, seed=9)
        assert result.report.total == result.report.ideal == Fraction(31, 9) * length


def test_empty_desired_subfile_is_handled():
    # DB1 caches only file 1; retrieving file 0 still runs the replicated
    # session (lengths are public, skipping it would be wrong) and pads.
    real = sample_placement(
        ExplicitSetsPlacement((((1, 0), (1, 1)),)), 2, 2, 1, seed=0, mu=Fraction(1, 2)
    )
    store = build_file_store(2, 2, seed=11)
    result = retrieve_file(store, partition_by_storage_set(real), 0, seed=12)
    assert np.array_equal(result.bits, store.bits[0])
    # {0}: 2 bits; {0,1}: padded to 4 symbols at cost 4 * (1 + 1/2) = 6
    assert result.report.total == 8


def test_cost_is_theta_invariant():
    # Every charge, down to each node and each storage set, is the same
    # whichever file is desired: the headline shape, many small sets, K=4.
    shapes = [(3, 2, Fraction(1, 3), 9000), (3, 20, Fraction(1, 20), 600)]
    for k, n, mu, length in shapes + [(4, 3, Fraction(1, 2), 100)]:
        store = build_file_store(k, length, seed=13)
        for placement_seed in (14, 15, 16):
            policy = UniformRandomPlacement(mu)
            real = sample_placement(policy, k, length, n, placement_seed)
            part = partition_by_storage_set(real)
            reports = [retrieve_file(store, part, d, seed=15).report for d in range(k)]
            # Equal reports: equal per_node, per_partition, total and ideal.
            assert all(report == reports[0] for report in reports[1:])


def test_cost_report_consistency():
    store = build_file_store(3, 40, seed=16)
    real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 3, 40, 3, seed=17)
    part = partition_by_storage_set(real)
    result, sessions = retrieve_with_sessions(store, part, 1, seed=18)
    report = result.report
    assert report.total == sum(report.per_node)
    assert report.total == sum(report.per_partition.values())
    transcript_bits = sum(len(a) for s in sessions for a in s.answers)
    assert report.total == transcript_bits
    assert report.ideal <= report.total


def check_queries_stay_local(k, n, mu, length):
    # Stored positions referenced at a database must be bits it caches;
    # indices past the raw length are the agreed zero padding.
    store = build_file_store(k, length, seed=19)
    real = sample_placement(UniformRandomPlacement(mu), k, length, n, seed=20)
    part = partition_by_storage_set(real)
    cached = real.cached.reshape(n, k * length)
    _, sessions = retrieve_with_sessions(store, part, k - 1, seed=21)
    assert len(sessions) == len(part.entries)
    lengths = part.lengths().tolist()
    padded_lens = {}
    groups, blocks = _padded_blocks(part)
    for size, first, end in groups:
        padded_lens.update(zip(range(first, end), (blocks[first:end] * size**k).tolist()))
    starts = part.starts.tolist()
    for i, (session, s) in enumerate(zip(sessions, part.entries)):
        assert session.nodes == tuple(sorted(s))
        if session.plan is None:
            continue  # the data-center-only set, checked by the helper
        lam = padded_lens[i]
        for d, node in enumerate(session.nodes):
            files, indices, _ = store_view(session.plan, d)
            if len(indices):
                assert 0 <= indices.min() and indices.max() < lam
            for f, idx in zip(files.tolist(), indices.tolist()):
                if idx >= lengths[i][f]:
                    continue  # zero padding
                addr = int(part.addresses[starts[i * k + f] + idx])
                assert addr // length == f
                if node > 0:
                    assert cached[node - 1, addr]


def test_queries_stay_local_to_each_store():
    check_queries_stay_local(3, 2, Fraction(1, 3), 30)


def test_queries_stay_local_when_sets_share_a_plan():
    # Several storage sets of every size, so every size class runs as a
    # segmented plan and each session is cut out of it.
    check_queries_stay_local(3, 6, Fraction(1, 4), 60)


def test_queries_stay_local_with_only_the_data_center():
    # N=0: the data-center-only set is the whole partition.
    check_queries_stay_local(3, 0, Fraction(1, 3), 30)


def test_download_cap_refuses_before_any_plan(monkeypatch):
    # The estimate counts every padded symbol of every file, so it is at
    # least the real download: a cap one bit below that is refused before
    # any session runs.
    store = build_file_store(3, 40, seed=35)
    real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 3, 40, 3, seed=36)
    part = partition_by_storage_set(real)
    total = retrieve_file(store, part, 0, seed=37).report.total

    def refuse(*args, **kwargs):
        raise AssertionError("a plan was built past the cap")

    monkeypatch.setattr(retrieval, "MAX_PADDED_SYMBOLS", total - 1)
    monkeypatch.setattr(retrieval, "generate_query_plan", refuse)
    with pytest.raises(ValueError, match="exceeds the cap"):
        retrieve_file(store, part, 0, seed=37)


def test_per_partition_serializes_to_json():
    store = build_file_store(3, 40, seed=35)
    real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 3, 40, 3, seed=36)
    report = retrieve_file(store, partition_by_storage_set(real), 0, seed=37).report
    assert json.loads(json.dumps(list(report.per_partition.items())))


@given(
    k=st.integers(1, 3),
    length=st.integers(1, 40),
    n=st.integers(0, 10),
    mu_num=st.integers(0, 4),
    desired_pick=st.integers(0, 5),
    seed=st.integers(0, 2**48),
)
@example(k=2, length=40, n=9, mu_num=2, desired_pick=1, seed=5)  # two key bytes
@example(k=3, length=30, n=10, mu_num=1, desired_pick=2, seed=6)
@settings(max_examples=40)
def test_batched_retrieval_matches_per_set_sessions(
    k, length, n, mu_num, desired_pick, seed
):
    store = build_file_store(k, length, derive_seed(seed, 0))
    real = sample_placement(
        UniformRandomPlacement(Fraction(mu_num, 4)), k, length, n, derive_seed(seed, 1)
    )
    desired = desired_pick % k
    result, got_sessions = retrieve_with_sessions(
        store, partition_by_storage_set(real), desired, derive_seed(seed, 2)
    )
    bits, per_node, per_partition, total, ideal, sessions = reference_retrieve(
        store, real, desired, derive_seed(seed, 2)
    )
    report = result.report
    assert np.array_equal(result.bits, bits)
    assert report.per_node == per_node
    assert report.per_partition == per_partition
    assert list(report.per_partition) == list(per_partition)
    assert (report.total, report.ideal) == (total, ideal)
    assert len(got_sessions) == len(sessions)
    for got, (nodes, answers, plan) in zip(got_sessions, sessions):
        assert got.nodes == nodes
        assert [a.tolist() for a in got.answers] == [a.tolist() for a in answers]
        if plan is not None:
            assert plan_transcripts(got.plan) == plan_transcripts(plan)


@pytest.mark.parametrize("trial", range(3))
def test_retrieval_runs_no_hash_pass(trial, hash_passes):
    # The many-sets shape: several sizes have enough sets for an array pass
    # of their seeds, but one generator permutes every set, so none runs.
    trial_seed = derive_seed(1, trial)
    store = build_file_store(3, 600, derive_seed(trial_seed, 0))
    policy = UniformRandomPlacement(Fraction(1, 20))
    real = sample_placement(policy, 3, 600, 20, derive_seed(trial_seed, 1))
    part = partition_by_storage_set(real)
    groups = [end - first for _, first, end in _padded_blocks(part)[0]]
    assert sum(count >= _ARRAY_SEEDS for count in groups) >= 3
    hash_passes.clear()
    retrieve_file(store, part, trial % 3, derive_seed(trial_seed, 2))
    assert hash_passes == []


def test_retrieval_holds_one_session_generator_at_a_time(monkeypatch):
    # A retrieval of ~310 sets at N=20 builds exactly one Generator, which
    # every size's plan draws from.
    live = Counter()

    class Counted(np.random.Generator):
        def __init__(self, bit_generator):
            super().__init__(bit_generator)
            live["built"] += 1
            live["now"] += 1
            live["peak"] = max(live["peak"], live["now"])
            weakref.finalize(self, live.subtract, ["now"])

    store = build_file_store(3, 600, seed=3)
    real = sample_placement(UniformRandomPlacement(Fraction(1, 20)), 3, 600, 20, 4)
    part = partition_by_storage_set(real)
    monkeypatch.setattr(np.random, "Generator", Counted)
    retrieve_file(store, part, 0, seed=5)
    monkeypatch.undo()
    assert live["now"] == 0
    assert live["built"] == live["peak"] == 1 and len(part.sizes) > 100


def test_retrieval_releases_each_size_before_the_next(monkeypatch):
    # One plan's permutations are 8 bytes a padded symbol; at K=8, N=5 a
    # size's plan holding on while the next size's is built took max RSS from
    # 484 to 639 MB.  So when size g + 1's plan is asked for, size g's is gone.
    plans, sizes = [], []
    generate = retrieval.generate_query_plan

    def record(*args, **kwargs):
        assert [plan() for plan in plans] == [None] * len(plans)
        plan = generate(*args, **kwargs)
        plans.append(weakref.ref(plan))
        sizes.append(plan.num_replicas)
        return plan

    monkeypatch.setattr(retrieval, "generate_query_plan", record)
    store = build_file_store(3, 600, seed=3)
    real = sample_placement(UniformRandomPlacement(Fraction(1, 20)), 3, 600, 20, 4)
    retrieve_file(store, partition_by_storage_set(real), 0, seed=5)
    assert len(sizes) >= 4 and sizes == sorted(set(sizes))
    assert [plan() for plan in plans] == [None] * len(plans)


@given(
    k=st.integers(1, 3),
    length=st.integers(1, 40),
    n=st.integers(0, 3),
    mu_num=st.integers(0, 4),
    desired_pick=st.integers(0, 5),
    seed=st.integers(0, 2**48),
)
@settings(max_examples=40)
def test_retrieval_is_reliable(k, length, n, mu_num, desired_pick, seed):
    store = build_file_store(k, length, derive_seed(seed, 0))
    real = sample_placement(
        UniformRandomPlacement(Fraction(mu_num, 4)), k, length, n, derive_seed(seed, 1)
    )
    part = partition_by_storage_set(real)
    result = retrieve_file(store, part, desired_pick % k, derive_seed(seed, 2))
    assert np.array_equal(result.bits, store.bits[desired_pick % k])


def test_simulation_dominates_lower_bound():
    result = simulate_trials(
        3, 90, 2, Fraction(1, 3), UniformRandomPlacement(Fraction(1, 3)), 30, seed=22
    )
    for row in result.rows:
        assert row.total >= row.converse_bound
        assert row.ideal <= row.total


def test_large_k_trial_total_is_pinned():
    # K = 7 at five databases: templates up to (6, 7), the builder's large-K
    # path, end to end with its recovery and bound checks.
    result = simulate_trials(
        7, 64, 5, Fraction(1, 2), UniformRandomPlacement(Fraction(1, 2)), 1, seed=1
    )
    (row,) = result.rows
    assert row.total == 1_076_709
    assert row.total >= row.converse_bound


def test_simulation_cycles_desired_file():
    result = simulate_trials(
        3, 30, 1, Fraction(1, 2), UniformRandomPlacement(Fraction(1, 2)), 6, seed=23
    )
    assert [r.desired for r in result.rows] == [0, 1, 2, 0, 1, 2]


def test_simulation_is_deterministic():
    args = (2, 48, 2, Fraction(1, 2), UniformRandomPlacement(Fraction(1, 2)), 8, 24)
    a = simulate_trials(*args)
    b = simulate_trials(*args)
    assert a.rows == b.rows
    assert a.mean_normalized == b.mean_normalized


def test_simulated_mean_approaches_formula_as_files_grow():
    # The padding overhead is o(L): the relative gap to the closed form
    # shrinks as the file size grows.
    policy = UniformRandomPlacement(Fraction(1, 3))
    small = simulate_trials(3, 135, 2, Fraction(1, 3), policy, 60, seed=25)
    large = simulate_trials(3, 4320, 2, Fraction(1, 3), policy, 60, seed=25)
    assert large.relative_gap < small.relative_gap
    assert large.relative_gap < 0.02


def test_whole_file_prefix_simulation_is_exact():
    result = simulate_trials(
        3,
        270,
        2,
        Fraction(1, 3),
        WholeFilePrefixPlacement((0,)),
        6,
        seed=26,
    )
    for row in result.rows:
        assert row.normalized == Fraction(31, 9)
    assert result.std_normalized < 1e-12  # identical trials up to float noise


def test_oversized_instance_is_refused():
    store = build_file_store(10, 2, seed=27)
    real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 10, 2, 8, seed=28)
    with pytest.raises(ValueError, match="cap"):
        retrieve_file(store, partition_by_storage_set(real), 0, seed=29)


def test_store_and_realization_must_agree():
    # The partition of a realization of another K is refused, and so is a
    # desired file past the store's K.
    store = build_file_store(2, 4, seed=30)
    real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 3, 4, 1, seed=31)
    with pytest.raises(ValueError, match="partition and store"):
        retrieve_file(store, partition_by_storage_set(real), 0, seed=32)
    real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 2, 4, 1, seed=33)
    with pytest.raises(ValueError, match="out of range"):
        retrieve_file(store, partition_by_storage_set(real), 5, seed=34)


def test_partition_must_match_realization():
    # A partition of another K or L would skip files or index past them; it
    # is refused before any session runs.  N is the partition's own, so a
    # partition of another N is served and its file recovered.
    store = build_file_store(3, 12, seed=41)
    policy = UniformRandomPlacement(Fraction(1, 2))
    for k, length in ((2, 12), (4, 12), (3, 10)):
        other = partition_by_storage_set(sample_placement(policy, k, length, 2, 43))
        with pytest.raises(ValueError, match="partition and store"):
            retrieve_file(store, other, 0, seed=44)
    part = partition_by_storage_set(sample_placement(policy, 3, 12, 4, 43))
    assert np.array_equal(retrieve_file(store, part, 2, seed=44).bits, store.bits[2])
    with pytest.raises(ValueError, match="out of range"):
        retrieve_file(store, part, 3, seed=44)


def test_nonzero_padding_is_caught(monkeypatch):
    # Corrupt one padding symbol of the last storage set of size 2: the
    # retrieval must refuse it and name that set, not the first of its size.
    store = build_file_store(2, 40, seed=38)
    real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 2, 40, 3, seed=39)
    part = partition_by_storage_set(real)
    groups, blocks = _padded_blocks(part)
    [(first, end)] = [(first, end) for size, first, end in groups if size == 2]
    last = end - 1
    assert end - first > 1 and blocks[last] * 2**2 > part.lengths()[last][0]
    original = retrieval.decode_desired

    def corrupt(plan, answers):
        out = original(plan, answers)
        if plan.num_replicas == 2:
            out = out.copy()
            out[-1] ^= 1
        return out

    monkeypatch.setattr(retrieval, "decode_desired", corrupt)
    with pytest.raises(ReliabilityError, match=re.escape(str(sorted(part.entries[last])))):
        retrieve_file(store, part, 0, seed=40)


def test_nonzero_padding_is_caught_in_a_later_size(monkeypatch):
    # The padding check spans every size at once: corrupt the last padding
    # symbol of the last set of the largest size, after the smaller sizes'
    # segments, and the retrieval must name that set.
    store = build_file_store(2, 40, seed=38)
    real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 2, 40, 3, seed=39)
    part = partition_by_storage_set(real)
    groups, blocks = _padded_blocks(part)
    size, first, end = groups[-1]
    last = end - 1
    assert len(groups) == 3 and size == 4 and last == len(part.sizes) - 1
    assert blocks[last] * size**2 > part.lengths()[last][0]
    original = retrieval.decode_desired

    def corrupt(plan, answers):
        out = original(plan, answers)
        if plan.num_replicas == size:
            out = out.copy()
            out[-1] ^= 1
        return out

    monkeypatch.setattr(retrieval, "decode_desired", corrupt)
    with pytest.raises(ReliabilityError, match=re.escape(str(sorted(part.entries[last])))):
        retrieve_file(store, part, 0, seed=40)
