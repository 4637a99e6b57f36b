"""Batch seeding must equal the per-seed functions it stands in for.

``generators`` runs numpy's documented SeedSequence hash itself and hands
the hashed words to PCG64, so these tests pin it against numpy on many
seeds, including the edges of the 32- and 64-bit ranges and seeds that
``generator`` masks.
"""

import subprocess
import sys

import numpy as np
import pytest

from decpir import rng as rng_module
from decpir.rng import (
    derive_seed,
    derive_seed_grid,
    derive_seeds,
    generator,
    generators,
)

EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]
EDGE_SEEDS += [-1, -(2**40), 2**64, 2**64 + 5, 2**100]  # generator masks these


def assert_same_draws(seeds):
    count = 0
    for seed, rng in zip(seeds, generators(seeds)):
        ref = generator(seed)
        for length in range(1, 65):
            got, want = np.arange(length), np.arange(length)
            rng.shuffle(got)
            ref.shuffle(want)
            assert np.array_equal(got, want), (seed, length)
        assert rng.integers(0, 2**62, 8).tolist() == ref.integers(0, 2**62, 8).tolist()
        count += 1
    assert count == len(seeds)


def test_many_seeds_match_generator():
    seeds = [derive_seed(2024, i) for i in range(1000)] + EDGE_SEEDS
    assert_same_draws(seeds)


def test_batch_generators_are_independent():
    # Generators taken from one batch before any of them draws still each
    # draw what their own seed's generator draws.
    seeds = [derive_seed(2025, i) for i in range(12)]
    batch = list(generators(seeds))
    assert len({id(rng) for rng in batch}) == len(seeds)
    for seed, rng in reversed(list(zip(seeds, batch))):
        want = generator(seed).integers(0, 2**62, 8).tolist()
        assert rng.integers(0, 2**62, 8).tolist() == want


@pytest.mark.parametrize("count", [5, 6, 7, 8, 50])
def test_array_pass_seeds_through_state_words(count, monkeypatch):
    # From _ARRAY_SEEDS seeds on, every generator is seeded from its hashed
    # words, one generate_state call per seed; below it, none is.
    assert 5 < rng_module._ARRAY_SEEDS <= 50  # both sides are covered
    calls = []
    state_words = rng_module._state_words()
    original = state_words.generate_state

    def counted(self, n_words, dtype=np.uint32):
        calls.append((n_words, dtype))
        return original(self, n_words, dtype)

    monkeypatch.setattr(state_words, "generate_state", counted)
    seeds = [derive_seed(11, i) for i in range(count)]
    assert_same_draws(seeds)
    assert calls == ([(4, np.uint64)] * count if count >= rng_module._ARRAY_SEEDS else [])


def test_importing_decpir_loads_no_numpy_random():
    # Seeding imports numpy.random on first use, not when decpir is imported,
    # so commands that draw nothing start without it.
    check = "import sys, decpir, decpir.cli; print('numpy.random' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize(
    "n_words, dtype", [(3, np.uint64), (5, np.uint64), (4, np.uint32), (8, np.uint32)]
)
def test_state_words_refuse_other_requests(n_words, dtype):
    words = rng_module._state_words()(np.zeros(4, dtype=np.uint64))
    assert words.generate_state(4, np.uint64) is words.words
    assert words.generate_state(4, np.dtype("uint64")) is words.words
    with pytest.raises(ValueError, match="4 uint64"):
        words.generate_state(n_words, dtype)


@pytest.mark.parametrize("count", range(1, 12))
def test_every_batch_size_matches_generator(count):
    # Both sides of the switch to the array pass, numpy integer seeds included.
    seeds = [np.uint64(derive_seed(7, count, i)) for i in range(count)]
    assert_same_draws(seeds[:-1] + [EDGE_SEEDS[count - 1]])


def test_empty_batch_yields_nothing():
    assert list(generators([])) == []


@pytest.mark.parametrize("master", [0, 7, -5, 2**64 - 1, 2**70 + 3])
@pytest.mark.parametrize("path", [(), (3,), (2**64 + 1, -2)])
def test_derive_seeds_matches_derive_seed(master, path):
    ranges = [range(0), range(3), range(5), range(6), range(7), range(8), range(10, 300)]
    ranges += [range(-4, 20)]
    ranges += [range(0, 90, 7), range(50, 0, -3)]
    # Past the int64 range, each index is masked modulo 2**64 as derive_seed
    # masks it.
    ranges += [range(2**63 - 4, 2**63 + 4), range(2**64, 2**64 + 9)]
    ranges += [range(-(2**63) - 9, -(2**63))]
    ranges += [range(-(2**62), 2**62, 2**59), range(0, 2**70, 2**66)]  # wide steps
    for indices in ranges:
        want = [derive_seed(master, *path, i) for i in indices]
        got = derive_seeds(master, *path, indices=indices)
        assert got.dtype == np.uint64  # on both sides of the array pass
        assert got.tolist() == want


@pytest.mark.parametrize("master", [0, -5, 2**70 + 3])
def test_derive_seed_grid_matches_derive_seed(master):
    # Both sides of the parents' array pass, and inner ranges past int64.
    outers = [range(0), range(1), range(3), range(8), range(5, -20, -3)]
    inners = [range(0), range(2), range(50), range(2**64 - 3, 2**64 + 3)]
    for outer in outers:
        for inner in inners:
            want = [derive_seed(master, i, j) for i in outer for j in inner]
            got = derive_seed_grid(master, outer=outer, inner=inner)
            assert got.dtype == np.uint64
            assert got.tolist() == want


def test_numpy_integers_count_as_the_ints_they_equal():
    # A negative numpy integer is masked modulo 2**64 like a negative int.
    got, want = generator(np.int64(-1)), generator(-1)
    assert got.integers(0, 2**62, 8).tolist() == want.integers(0, 2**62, 8).tolist()
    assert derive_seed(np.int64(-5), np.int64(-2)) == derive_seed(-5, -2)
    for indices in (range(3), range(12)):  # both sides of the array pass
        got = derive_seeds(np.int64(-5), np.int64(-2), indices=indices)
        assert got.tolist() == derive_seeds(-5, -2, indices=indices).tolist()
    seeds = [np.int64(-1 - i) for i in range(9)]
    assert_same_draws(seeds)


def _draw_rows(rng, k, lam, one_call):
    # A strided slice of a wider array, as a plan segment's rows are.
    wide = np.tile(np.arange(lam + 7), (k + 2, 1))
    view = wide[1 : k + 1, 3 : 3 + lam]
    if one_call:
        rng.permuted(view, axis=1, out=view)
    else:
        for row in view:
            rng.shuffle(row)
    return wide, rng.integers(0, 2**62, 4).tolist()


@pytest.mark.parametrize("lam", [0, 1, 2, 27, 300])
@pytest.mark.parametrize("k", range(1, 6))
def test_permuted_draws_what_row_shuffles_draw(k, lam):
    # Query plans permute each segment's K rows with one `permuted` call.  A
    # numpy that draws its rows in another order, or draws more, fails here.
    seeds = [derive_seed(31, k, lam, i) for i in range(9)]
    for seed, batched in zip(seeds, generators(seeds)):
        want, want_next = _draw_rows(generator(seed), k, lam, one_call=False)
        for rng in (generator(seed), batched):
            got, got_next = _draw_rows(rng, k, lam, one_call=True)
            assert np.array_equal(got, want), (seed, k, lam)
            assert got_next == want_next, (seed, k, lam)
