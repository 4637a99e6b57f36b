"""Deterministic seed derivation for independent trial and session streams.

Trial ``t`` under master seed ``m`` uses ``derive_seed(m, t)``: the master is
passed through a splitmix64-style finalizer, xor-folded with each path
element, and mixed again.  The rule is fixed so that trial workers can run in
any order (or in parallel) and still produce identical results, and nested
contexts extend the path, e.g. ``derive_seed(m, trial, session)``.

``generator(seed)`` is numpy's PCG64 seeded through ``SeedSequence``.  A plan
with hundreds of segments needs one such generator per segment, and building
each costs far more than its shuffles, almost all of it in ``SeedSequence``
hashing.  ``generators(seeds)`` therefore runs numpy's documented seeding
algorithms itself: the ``SeedSequence`` hash (pool of four 32-bit words) of
all seeds at once as ``uint32`` array arithmetic, whose hash constants do not
depend on the seeds, then PCG64's two 128-bit LCG seeding steps per seed on
Python integers, setting one reused ``PCG64``'s state per seed.  Every
generator it gives draws exactly what ``generator(seed)`` draws.
``derive_seeds`` likewise derives a range of sibling seeds in one ``uint64``
array pass.  Both keep the per-seed functions below ``_ARRAY_SEEDS`` seeds.
"""

from __future__ import annotations

import operator
from typing import Iterator, Sequence

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Below this many seeds, the fixed cost of an array pass over all of them (a
# few to a few dozen tiny numpy calls) exceeds what it saves per seed.
_ARRAY_SEEDS = 8


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


def derive_seeds(master: int, *path: int, indices: range) -> list[int]:
    """``[derive_seed(master, *path, i) for i in indices]``, in one array pass.

    The last mix runs on a ``uint64`` array, whose arithmetic wraps modulo
    ``2**64`` just as ``_mix`` masks.
    """
    if len(indices) < _ARRAY_SEEDS:
        return [derive_seed(master, *path, i) for i in indices]
    last = np.arange(indices.start, indices.stop, indices.step).astype(np.uint64)
    return _mix(last ^ (derive_seed(master, *path) ^ _GOLDEN)).tolist()


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
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's LCG multiplier


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


def _seed_states(seeds: np.ndarray) -> list:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` for every seed.

    ``seeds`` is a ``uint64`` array; the result is one list of four Python
    ints per seed.
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
    return np.ascontiguousarray(out.reshape(8, -1).T).view(np.uint64).tolist()


def generators(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    """For each seed in turn, a generator that draws what ``generator(seed)`` draws.

    From ``_ARRAY_SEEDS`` seeds on, one ``Generator`` is reused and reset
    for each seed, so finish drawing from it before taking the next one.
    """
    if len(seeds) < _ARRAY_SEEDS:
        return map(generator, seeds)
    return _reseeded(seeds)


def _reseeded(seeds: Sequence[int]) -> Iterator[np.random.Generator]:
    masked = np.array([operator.index(s) & _MASK64 for s in seeds], dtype=np.uint64)
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0}
    for seed_hi, seed_lo, seq_hi, seq_lo in _seed_states(masked):
        # pcg64_set_seed: state 0, then two LCG steps with the start state
        # added in between.
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        start = (seed_hi << 64 | seed_lo) + inc
        state["state"] = {"state": (start * _PCG64_MULT + inc) & _MASK128, "inc": inc}
        bit_generator.state = state
        yield rng
