"""The array partition against a scan-based reference builder.

``reference_partition`` keys every address by its membership mask (a Python
integer, so any database count fits), read from the realization's ``cached``
array, scans all addresses once per distinct mask, and sorts the sets into
canonical order afterwards.
:func:`partition_by_storage_set` must give the same sets in the same order,
the same positions, and the padded lengths retrieval's one padding rule
(:func:`decpir.retrieval._padded_blocks`) gives must equal the reference's.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from decpir.model import (
    CacheRealization,
    _sort_by_code_byte,
    _sort_by_key_bytes,
    _storage_bytes,
    partition_by_storage_set,
)
from decpir.placement import UniformRandomPlacement, sample_placement
from decpir.retrieval import _padded_blocks

from oracles import padded_storage_bytes


def reference_partition(realization):
    """``[(storage set, (positions per file, padded length)), ...]`` in
    canonical order: by size, then by sorted member list."""
    k, length, n = realization.num_files, realization.file_len, realization.num_dbs
    membership = np.zeros(k * length, dtype=object)
    for d, row in enumerate(realization.cached.reshape(n, k * length)):
        membership[row] |= 1 << d
    entries = {}
    for mask in set(membership.tolist()):
        addrs = np.flatnonzero(membership == mask)
        members = frozenset({0} | {d + 1 for d in range(n) if (mask >> d) & 1})
        files = addrs // length
        positions = tuple(addrs[files == j] % length for j in range(k))
        padded = None
        if len(members) > 1:
            block = len(members) ** k
            padded = -(-max(len(p) for p in positions) // block) * block
        entries[members] = (positions, padded)
    return sorted(entries.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))


def assert_matches_reference(realization):
    k, length = realization.num_files, realization.file_len
    part = partition_by_storage_set(realization)
    ref = reference_partition(realization)

    assert list(part.entries) == [s for s, _ in ref]
    assert len(part.entries) == len(part.sizes)
    groups, blocks = _padded_blocks(part)
    padded_lens = [None] * int(part.sizes[0] == 1)
    for size, first, end in groups:
        assert part.sizes[first:end].tolist() == [size] * (end - first)
        padded_lens += (blocks[first:end] * size**k).tolist()
    assert padded_lens == [padded for _, (_, padded) in ref]
    assert not blocks[: int(part.sizes[0] == 1)].any()  # the raw set

    assert part.starts.tolist()[0] == 0 and len(part.starts) == len(ref) * k + 1
    assert part.sizes.tolist() == [len(s) for s, _ in ref]
    assert part.members.tolist() == [m for s, _ in ref for m in sorted(s)]
    assert sorted(part.addresses.tolist()) == list(range(k * length))
    for i, (_, (positions, _)) in enumerate(ref):
        for j in range(k):
            run = part.addresses[part.starts[i * k + j] : part.starts[i * k + j + 1]]
            assert run.tolist() == (positions[j] + j * length).tolist()
    assert part.lengths().tolist() == [[len(p) for p in pos] for _, (pos, _) in ref]
    by_size = {}
    for s, (positions, _) in ref:
        by_size[len(s)] = by_size.get(len(s), 0) + sum(len(p) for p in positions)
    assert part.bits_by_size() == by_size


@given(
    k=st.integers(1, 4),
    length=st.integers(1, 40),
    n=st.integers(0, 70),
    mu_num=st.integers(0, 4),
    seed=st.integers(0, 2**32),
)
@example(k=2, length=40, n=9, mu_num=2, seed=1)  # a second key byte
@example(k=3, length=12, n=16, mu_num=3, seed=2)  # a full second byte
@example(k=1, length=40, n=64, mu_num=2, seed=3)
@example(k=4, length=10, n=70, mu_num=1, seed=4)
@settings(max_examples=60)
def test_partition_matches_reference(k, length, n, mu_num, seed):
    policy = UniformRandomPlacement(Fraction(mu_num, 4))
    assert_matches_reference(sample_placement(policy, k, length, n, seed))


@given(
    data=st.data(),
    n=st.sampled_from([0, 1, 8, 9, 64, 70]),
    k=st.integers(1, 3),
    length=st.integers(1, 12),
)
@settings(max_examples=80)
def test_partition_of_arbitrary_arrays_matches_reference(data, n, k, length):
    # Any boolean array is a realization, whatever its rows' counts; some
    # rows are forced empty or full, the rest drawn bit by bit.
    cached = data.draw(arrays(bool, (n, k, length), fill=st.booleans()), label="cached")
    kinds = data.draw(
        st.lists(st.sampled_from("def"), min_size=n, max_size=n), label="rows"
    )
    cached[np.array(kinds, dtype="U1") == "e"] = False
    cached[np.array(kinds, dtype="U1") == "f"] = True
    assert_matches_reference(CacheRealization(k * length, cached))


def test_partition_beyond_63_databases():
    # One bit per database in a 64-bit mask used to cap N at 63.
    for n in (64, 100):
        real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 3, 8, n, n)
        assert_matches_reference(real)
        assert max(len(s) for s in partition_by_storage_set(real).entries) > 33


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17])
def test_partition_either_side_of_one_code_byte(n):
    # Up to eight databases the sort key is one code byte's rank, beyond
    # that the key bytes; 7, 9 and 17 databases leave a partial byte.  At
    # mu = 1/2 nearly every set holds bits, or nearly every address has a
    # set of its own where there are more sets than addresses.
    real = sample_placement(UniformRandomPlacement(Fraction(1, 2)), 2, 1500, n, n)
    assert_matches_reference(real)
    assert len(partition_by_storage_set(real).sizes) > min(2**n, 2 * 1500) * 0.9
    if n <= 8:
        # Both builders are exact here, so they agree array for array.
        for got, want in zip(_sort_by_code_byte(real), _sort_by_key_bytes(real)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 9, 15, 16, 17, 20, 64, 70])
def test_storage_bytes_match_the_zero_padded_sum(n):
    # Full groups of eight databases and the remainder are weighed apart.
    cached = np.random.default_rng(n).random((n, 3, 50)) < 0.5
    got = _storage_bytes(CacheRealization(150, cached))
    want = padded_storage_bytes(CacheRealization(150, cached))
    assert got.dtype == want.dtype == np.uint8
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_partition_at_the_headline_size():
    real = sample_placement(UniformRandomPlacement(Fraction(1, 3)), 3, 9000, 2, 7)
    assert_matches_reference(real)


@pytest.mark.parametrize("mu, size", [(Fraction(0), 1), (Fraction(1), 6)])
def test_partition_with_nothing_or_everything_cached(mu, size):
    # Every bit lands in one set: the data center alone, or every node.
    real = sample_placement(UniformRandomPlacement(mu), 3, 20, 5, 11)
    assert_matches_reference(real)
    part = partition_by_storage_set(real)
    assert part.sizes.tolist() == [size] and part.lengths().tolist() == [[20] * 3]
