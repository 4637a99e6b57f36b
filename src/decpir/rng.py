"""Deterministic seed derivation for independent trial and session streams.

Trial ``t`` under master seed ``m`` uses ``derive_seed(m, t)``: the master is
passed through a splitmix64-style finalizer, xor-folded with each path
element, and mixed again.  The rule is fixed so that trial workers can run in
any order (or in parallel) and still produce identical results, and nested
contexts extend the path, e.g. ``derive_seed(m, trial, session)``.

``generator(seed)`` is numpy's PCG64 seeded through ``SeedSequence``.  A
privacy test needs one per session, and building each costs far more than its
shuffles, almost all of it in ``SeedSequence`` hashing.  ``generators(seeds)``
therefore runs numpy's documented ``SeedSequence`` hash (pool of four 32-bit
words) of all seeds at once as ``uint32`` array arithmetic, whose hash
constants do not depend on the seeds, and hands each seed's four hashed
``uint64`` words to a fresh ``PCG64`` through numpy's ``ISeedSequence``
interface, so numpy's own C seeding runs PCG64's two LCG steps.  Every
generator it gives draws exactly what ``generator(seed)`` draws.
``derive_seeds`` likewise derives a range of sibling seeds in one ``uint64``
array pass and returns that array, which ``generators`` takes as is;
``derive_seed_grid`` derives the siblings of a range of parents, one row a
parent, in one pass.  Both keep the per-seed functions below ``_ARRAY_SEEDS``
seeds, the grid for its parents only.

The hash pass has a fixed cost of a few dozen tiny numpy calls, so a caller
makes one pass over every seed it will need: a placement over its
databases, a privacy test over all its sessions, handing each query plan an
``islice`` of the stream.  A retrieval needs none: one ``generator(seed)``
permutes all its plans.
"""

from __future__ import annotations

import operator
from functools import cache
from typing import Iterator, Sequence

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Below this many seeds, the fixed cost of an array pass over all of them (a
# few to a few dozen tiny numpy calls) exceeds what it saves per seed:
# deriving n seeds and building their generators took ~11 us a seed one by
# one, against ~50 us plus ~1 us a seed in one pass (``timeit``, 2-vCPU VM),
# 54 against 57 us at 5 seeds and 64 against 57 us at 6.
_ARRAY_SEEDS = 6


def _mix(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_seed(master: int, *path: int) -> int:
    """Derive a child seed from a master seed and a path of integer indices."""
    state = _mix(operator.index(master) ^ _GOLDEN)
    for element in path:
        state = _mix(state ^ (operator.index(element) & _MASK64) ^ _GOLDEN)
    return state


def derive_seeds(master: int, *path: int, indices: range) -> np.ndarray:
    """The ``uint64`` array of ``derive_seed(master, *path, i)``, ``i`` in ``indices``.

    From ``_ARRAY_SEEDS`` indices on, the last path element and the last mix
    run on ``uint64`` arrays, whose arithmetic wraps modulo ``2**64`` just as
    ``derive_seed`` and ``_mix`` mask, so indices past the ``int64`` range
    derive the same seeds.  :func:`generators` takes the array as is.
    """
    if len(indices) < _ARRAY_SEEDS:
        return np.array(
            [derive_seed(master, *path, i) for i in indices], dtype=np.uint64
        )
    return _mix(_index_words(indices) ^ (derive_seed(master, *path) ^ _GOLDEN))


def derive_seed_grid(master: int, outer: range, inner: range) -> np.ndarray:
    """The ``uint64`` array of ``derive_seed(master, i, j)``, ``i``-major.

    ``i`` runs over ``outer`` and ``j`` over ``inner``: the parents
    ``derive_seed(master, i)`` come from :func:`derive_seeds`, and every
    pair's last mix runs in one ``uint64`` array pass.
    """
    parents = derive_seeds(master, indices=outer)[:, None]
    return _mix(_index_words(inner) ^ (parents ^ np.uint64(_GOLDEN))).reshape(-1)


def _index_words(indices: range) -> np.ndarray:
    """Each index of ``indices`` modulo ``2**64``, as a ``uint64`` array."""
    words = np.arange(len(indices), dtype=np.uint64)
    words *= np.uint64(indices.step & _MASK64)
    words += np.uint64(indices.start & _MASK64)
    return words


def generator(seed: int) -> np.random.Generator:
    """A PCG64 generator for the given seed, taken modulo ``2**64``."""
    return np.random.Generator(np.random.PCG64(operator.index(seed) & _MASK64))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).  Hash
# number ``t`` xors its input with ``xors[t]`` and multiplies by
# ``mults[t]``; the pool hashes count up from INIT_A, the output ones from
# INIT_B.
def _hash_constants(init: int, mult: int, count: int) -> tuple[list, list]:
    xors, mults = [], []
    for _ in range(count):
        xors.append(init)
        init = init * mult & _MASK32
        mults.append(init)
    return xors, mults


_POOL_XORS, _POOL_MULTS = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_OUT_XORS, _OUT_MULTS = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)


def _column(values) -> np.ndarray:
    return np.array(values, dtype=np.uint32).reshape(-1, 1)


def _spread_table(constants: list) -> np.ndarray:
    """Pool hash constants 4..15, placed for the rows each word mixes into.

    Pool word ``s`` is hashed once into each other word ``d``, with the
    constants numbered in (s, d ascending) order.  Row ``s + 1 + r`` of the
    work buffer holds word ``(s + 1 + r) % 4``, so the rows ``s`` mixes into
    are one slice; entry ``[s, r]`` is the constant for that row.
    """
    table = np.empty((4, 3, 1), dtype=np.uint32)
    t = 4
    for s in range(4):
        for d in range(4):
            if d != s:
                table[s, (d - s) % 4 - 1] = constants[t]
                t += 1
    return table


_SPREAD_XORS, _SPREAD_MULTS = _spread_table(_POOL_XORS), _spread_table(_POOL_MULTS)
_FIRST_XORS, _FIRST_MULTS = _column(_POOL_XORS[:4]), _column(_POOL_MULTS[:4])
_OUT_XOR_ROWS = _column(_OUT_XORS).reshape(2, 4, 1)
_OUT_MULT_ROWS = _column(_OUT_MULTS).reshape(2, 4, 1)
# SeedSequence's mix(x, y): r = MIX_L * x - MIX_R * y, then r ^ (r >> 16).
_MIX_L, _MIX_R = _column([0xCA01F9DD]), _column([0x4973F715])
_SHIFT = _column([16])


def _seed_states(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed.

    ``seeds`` is a ``uint64`` array; the result is the ``(len(seeds), 4)``
    ``uint64`` array of their rows.
    """
    # Row r holds pool word r % 4; rows 4..7 end up holding words 0..3.
    # A 64-bit seed is the entropy words (low, high), padded with zeros to
    # the pool size.
    pool = np.zeros((8, len(seeds)), dtype=np.uint32)
    pool[0] = seeds  # the low word (assignment truncates)
    pool[1] = seeds >> np.uint64(32)
    first = pool[:4]
    first ^= _FIRST_XORS
    first *= _FIRST_MULTS
    first ^= first >> _SHIFT
    for s in range(4):
        if s:
            pool[s + 3] = pool[s - 1]
        hashed = pool[s] ^ _SPREAD_XORS[s]
        hashed *= _SPREAD_MULTS[s]
        hashed ^= hashed >> _SHIFT
        hashed *= _MIX_R
        rest = pool[s + 1 : s + 4]
        rest *= _MIX_L
        rest -= hashed
        rest ^= rest >> _SHIFT
    pool[7] = pool[3]
    out = pool[4:] ^ _OUT_XOR_ROWS
    out *= _OUT_MULT_ROWS
    out ^= out >> _SHIFT
    # numpy reads the eight words as four uint64 by a native-order view.
    return np.ascontiguousarray(out.reshape(8, -1).T).view(np.uint64)


@cache
def _state_words() -> type:
    """``_StateWords``, an ``ISeedSequence`` holding one seed's hashed words.

    ``PCG64`` asks its seed sequence for ``generate_state(4, np.uint64)``
    once, when built, and seeds itself from those words in C.  The class is
    defined on first use, so that importing this module does not import
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class _StateWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # PCG64 passes the ``np.uint64`` type itself; other spellings of
            # that dtype are accepted too, only more slowly.
            if n_words != 4 or (
                dtype is not np.uint64 and np.dtype(dtype) != np.uint64
            ):
                raise ValueError(
                    f"holds 4 uint64 state words, asked for {n_words} of {dtype!r}"
                )
            return self.words

    return _StateWords


def generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """For each seed in turn, a generator that draws what ``generator(seed)`` draws.

    Seeds are integers taken modulo ``2**64``; a ``uint64`` array, such as
    :func:`derive_seeds` returns, is taken as is.  From ``_ARRAY_SEEDS``
    seeds on, every seed's ``SeedSequence`` words are hashed in one array
    pass, when the first generator is taken.  The generators share no state,
    so any number of them may be held and drawn from in any order, and a
    privacy test hands out consecutive runs of one call's generators to
    separate plans, each an ``islice`` of the stream.
    """
    if len(seeds) < _ARRAY_SEEDS:
        return map(generator, seeds)
    if not (isinstance(seeds, np.ndarray) and seeds.dtype == np.uint64):
        seeds = np.array([operator.index(s) & _MASK64 for s in seeds], dtype=np.uint64)
    return _reseeded(seeds)


def _reseeded(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    state_words = _state_words()
    for words in _seed_states(seeds):
        yield np.random.Generator(np.random.PCG64(state_words(words)))
