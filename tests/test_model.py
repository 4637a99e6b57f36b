"""Data model tests: corpus generation, cache realizations, partitions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decpir.errors import BudgetViolation
from decpir.model import (
    CacheRealization,
    build_file_store,
    flat_address,
    partition_by_storage_set,
    realization_from_addresses,
    storage_budget,
)
from decpir.placement import UniformRandomPlacement, sample_placement
from decpir.retrieval import _padded_blocks


def test_file_store_is_deterministic():
    a = build_file_store(1, 1, seed=99)
    b = build_file_store(1, 1, seed=99)
    assert a.bits.shape == (1, 1)
    assert int(a.bits[0, 0]) in (0, 1)
    assert np.array_equal(a.bits, b.bits)


def test_file_store_size_contract():
    store = build_file_store(3, 8, seed=1)
    assert store.bits.shape == (3, 8)
    assert set(np.unique(store.bits)) <= {0, 1}


def test_different_seeds_differ():
    # With 24 bits per corpus, two seeds collide with probability 2**-24;
    # across 100 pairs the chance of any collision is under 1e-5.
    stores = [build_file_store(3, 8, seed=s) for s in range(200)]
    for a, b in zip(stores[0::2], stores[1::2]):
        assert not np.array_equal(a.bits, b.bits)


@pytest.mark.parametrize("k,length", [(0, 5), (5, 0), (-1, 3)])
def test_file_store_rejects_bad_sizes(k, length):
    with pytest.raises(ValueError):
        build_file_store(k, length, seed=0)


def test_flat_address_round_trip():
    assert flat_address(2, 3, 7) == 17
    assert flat_address(0, 0, 5) == 0


def test_storage_budget_floors():
    assert storage_budget(Fraction(1, 3), 3, 4) == 4
    assert storage_budget(Fraction(1, 3), 4, 4) == 5  # floor(16/3)
    assert storage_budget(0, 3, 4) == 0
    assert storage_budget(1, 3, 4) == 12
    with pytest.raises(ValueError):
        storage_budget(Fraction(4, 3), 3, 4)
    with pytest.raises(ValueError, match="storage ratio"):
        storage_budget(float("nan"), 3, 4)


def test_realization_rejects_duplicates_and_overflow():
    with pytest.raises(ValueError):
        realization_from_addresses(2, 3, 4, [[(0, 1), (0, 1)]])
    with pytest.raises(BudgetViolation):
        realization_from_addresses(2, 3, 1, [[(0, 0), (0, 1)]])


def test_realization_rejects_unsorted_sets():
    # Sorted order is part of the set contract; a direct constructor is checked.
    with pytest.raises(ValueError, match="strictly increasing"):
        CacheRealization(2, 3, 1, 4, (np.array([0, 4, 2], dtype=np.int64),))


@pytest.mark.parametrize(
    "middle, error, message",
    [
        ([4, 2], ValueError, "database 2 caches addresses that are not strictly"),
        ([3, 3], ValueError, "database 2 caches addresses that are not strictly"),
        ([-1, 2], ValueError, "database 2 caches an out-of-range address"),
        ([2, 6], ValueError, "database 2 caches an out-of-range address"),
        ([0, 1, 2], BudgetViolation, "database 2 stores 3 bits, budget is 2"),
        # The first failing database is named, with its first failing check.
        ([5, 1, 9], ValueError, "database 2 caches addresses that are not strictly"),
    ],
)
def test_realization_names_a_faulty_middle_database(middle, error, message):
    # Each set starts at or below the previous one's end, which is no fault;
    # the last database's set is faulty too, but the middle one is named.
    sets = ([4, 5], middle, [5, 4, 4])
    with pytest.raises(error, match=message):
        CacheRealization(2, 3, 3, 2, tuple(np.array(a, dtype=np.int64) for a in sets))


@pytest.mark.parametrize("middle", [[-1, 2], [2, 6]])
def test_realization_screens_every_sets_first_and_last_address(middle):
    # Every set is strictly increasing, so only the range screen sees the
    # fault: its first or last address, neither at an end of all the sets.
    sets = ([0, 5], [], middle, [1, 3])
    with pytest.raises(ValueError, match="database 3 caches an out-of-range address"):
        CacheRealization(2, 3, 4, 2, tuple(np.array(a, dtype=np.int64) for a in sets))


def test_realization_accepts_empty_and_overlapping_sets():
    sets = ([4, 5], [], [0, 1], [5], [])
    real = CacheRealization(2, 3, 5, 2, tuple(np.array(a, dtype=np.int64) for a in sets))
    assert [len(a) for a in real.sets] == [2, 0, 2, 1, 0]
    assert CacheRealization(2, 3, 0, 2, ()).sets == ()


def _uniform_realization(k, length, n, mu, seed):
    return sample_placement(
        UniformRandomPlacement(Fraction(mu)), k, length, n, seed
    )


def test_partition_full_replication():
    real = _uniform_realization(2, 6, 3, 1, seed=0)
    part = partition_by_storage_set(real)
    assert set(part.entries) == {frozenset({0, 1, 2, 3})}
    assert part.lengths().tolist() == [[6, 6]]
    [(size, _, _)], blocks = _padded_blocks(part)
    assert size == 4 and blocks.tolist() == [1]


def test_partition_empty_caches():
    real = _uniform_realization(2, 6, 3, 0, seed=0)
    part = partition_by_storage_set(real)
    assert set(part.entries) == {frozenset({0})}
    assert part.lengths().tolist() == [[6, 6]]
    assert _padded_blocks(part)[0] == []  # one set, downloaded raw
    assert _padded_blocks(part)[1].tolist() == [0]


def test_partition_law_of_large_numbers():
    # Expected per-file size of the data-center-only piece is L * (1-mu)**2;
    # at this size the 3% band sits at roughly five standard deviations.
    length = 40_000
    real = _uniform_realization(3, length, 2, Fraction(1, 3), seed=12)
    part = partition_by_storage_set(real)
    expected = length * (2 / 3) ** 2
    assert part.entries[0] == frozenset({0})
    for size in part.lengths()[0].tolist():
        assert abs(size - expected) / expected < 0.03


@given(
    k=st.integers(1, 3),
    length=st.integers(1, 12),
    n=st.integers(0, 3),
    mu_num=st.integers(0, 4),
    seed=st.integers(0, 2**32),
)
def test_partition_is_disjoint_cover(k, length, n, mu_num, seed):
    real = _uniform_realization(k, length, n, Fraction(mu_num, 4), seed)
    part = partition_by_storage_set(real)
    starts = part.starts.tolist()
    for j in range(k):
        seen = np.concatenate(
            [
                part.addresses[starts[i * k + j] : starts[i * k + j + 1]]
                for i in range(len(part.sizes))
            ]
        )
        assert sorted((seen - j * length).tolist()) == list(range(length))


@given(
    k=st.integers(1, 3),
    length=st.integers(1, 8),
    n=st.integers(1, 3),
    mu_num=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
def test_partition_membership_consistency(k, length, n, mu_num, seed):
    real = _uniform_realization(k, length, n, Fraction(mu_num, 4), seed)
    part = partition_by_storage_set(real)
    cached = [set(s.tolist()) for s in real.sets]
    starts = part.starts.tolist()
    for i, s in enumerate(part.entries):
        for j in range(k):
            run = part.addresses[starts[i * k + j] : starts[i * k + j + 1]]
            for addr in run.tolist():
                assert addr // length == j
                for d in range(1, n + 1):
                    assert (addr in cached[d - 1]) == (d in s)


@given(
    k=st.integers(1, 4),
    length=st.integers(1, 30),
    n=st.integers(1, 3),
    mu_num=st.integers(1, 3),
    seed=st.integers(0, 2**32),
)
def test_partition_padding_invariant(k, length, n, mu_num, seed):
    real = _uniform_realization(k, length, n, Fraction(mu_num, 4), seed)
    part = partition_by_storage_set(real)
    max_lens = part.lengths().max(axis=1).tolist()
    groups, blocks = _padded_blocks(part)
    if part.sizes[0] == 1:
        assert blocks[0] == 0
    for size, first, end in groups:
        block = size**k
        for i, padded in enumerate((blocks[first:end] * block).tolist()):
            assert padded % block == 0
            assert 0 <= padded - max_lens[first + i] < block
