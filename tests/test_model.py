"""Data model tests: corpus generation, cache realizations, partitions."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decpir.errors import BudgetViolation
from decpir.model import (
    CacheRealization,
    FileStore,
    build_file_store,
    partition_by_storage_set,
    realization_from_addresses,
    storage_budget,
)
from decpir.placement import UniformRandomPlacement, sample_placement
from decpir.retrieval import _padded_blocks
from decpir.rng import generator


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


@pytest.mark.parametrize("k,length,seed", [(3, 7, 5), (3, 8, 1), (1, 1, 99), (2, 9001, 4)])
def test_file_store_unpacks_one_random_byte_per_eight_bits(k, length, seed):
    # K * L = 21 and 18003 are not multiples of 8: the last byte's low
    # bits are dropped.
    drawn = generator(seed).integers(0, 256, -(-k * length // 8), dtype=np.uint8)
    want = np.unpackbits(drawn, count=k * length).reshape(k, length)
    store = build_file_store(k, length, seed)
    assert store.bits.dtype == np.uint8
    assert np.array_equal(store.bits, want)
    assert not store.bits.flags.writeable and not store.bits.base.flags.writeable


def test_file_store_golden_bits():
    assert build_file_store(3, 7, seed=5).bits.tolist() == [
        [1, 0, 1, 0, 1, 0, 0],
        [0, 1, 1, 1, 0, 0, 1],
        [0, 1, 1, 0, 1, 1, 1],
    ]


def test_file_store_refuses_a_value_above_one():
    bits = np.zeros((2, 3), dtype=np.uint8)
    bits[1, 2] = 2
    with pytest.raises(ValueError, match="values in"):
        FileStore(2, 3, 0, bits)


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


def test_realization_names_the_pair_a_database_lists_twice():
    sets = [[(1, 2)], [(0, 0), (1, 2), (0, 1), (1, 2)], [(0, 0), (0, 0)]]
    with pytest.raises(ValueError, match=r"database 2 lists \(1, 2\) twice"):
        realization_from_addresses(2, 3, 4, sets)


def _cached(*rows):
    """An ``(N, 2, 3)`` array from each database's flat addresses."""
    cached = np.zeros((len(rows), 2 * 3), dtype=bool)
    for row, addrs in zip(cached, rows):
        row[addrs] = True
    return cached.reshape(len(rows), 2, 3)


def test_realization_names_the_first_database_over_budget():
    # Databases 2 and 4 are both over budget; the first of them is named.
    cached = _cached([4, 5], [0, 1, 2], [3], [0, 2, 4, 5])
    with pytest.raises(BudgetViolation, match="database 2 stores 3 bits, budget is 2"):
        CacheRealization(2, cached)


@pytest.mark.parametrize(
    "cached",
    [
        np.zeros((1, 2, 3), dtype=np.uint8),
        np.zeros((1, 2, 3), dtype=np.int64),
        np.zeros((2, 3), dtype=bool),
        np.zeros((1, 1, 2, 3), dtype=bool),
    ],
    ids=["uint8", "int64", "rank-2", "rank-4"],
)
def test_realization_refuses_a_non_boolean_or_non_3d_array(cached):
    with pytest.raises(ValueError, match=r"boolean \(N, K, L\) array"):
        CacheRealization(2, cached)


@pytest.mark.parametrize("shape", [(1, 0, 3), (1, 2, 0), (0, 0, 0)])
def test_realization_refuses_no_files_or_no_bits(shape):
    with pytest.raises(ValueError, match="at least one file of at least one bit"):
        CacheRealization(2, np.zeros(shape, dtype=bool))


def test_realization_accepts_empty_and_overlapping_sets():
    real = CacheRealization(2, _cached([4, 5], [], [0, 1], [5], []))
    assert (real.num_dbs, real.num_files, real.file_len) == (5, 2, 3)
    assert np.count_nonzero(real.cached, axis=(1, 2)).tolist() == [2, 0, 2, 1, 0]
    assert CacheRealization(2, _cached()).num_dbs == 0


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
    starts = part.starts.tolist()
    for i, s in enumerate(part.entries):
        for j in range(k):
            run = part.addresses[starts[i * k + j] : starts[i * k + j + 1]]
            for addr in run.tolist():
                assert addr // length == j
                for d in range(1, n + 1):
                    assert real.cached[d - 1, j, addr % length] == (d in s)


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
