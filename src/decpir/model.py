"""Ground-truth data model: files, bit addressing, cache realizations, and the
partition of all bits by the exact set of nodes that store them.

Conventions used throughout the package:

* indices are 0-based everywhere (files, bit positions, databases),
* the data center is node 0 and implicitly stores every bit,
* caching databases are nodes ``1..N``,
* a "flat address" encodes bit ``(file, position)`` as ``file * file_len +
  position``.

A cache realization is one ``(N, K, L)`` boolean array.  The partition by
storage set is arrays in canonical order: sets by size, then by sorted
member list, and within a set file by file with positions ascending.
:func:`partition_by_storage_set` builds it with one stable sort of all
addresses, keyed by one storage byte per eight databases per address.  Up
to eight databases the key is that byte's canonical rank; beyond that it
is the number of caching databases, then the complemented bytes, so any
number of databases works.  See :class:`StorageSetPartition` for the
layout.  The partition is these arrays only: padding each set for its
protocol session is retrieval's business.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetViolation
from .rng import generator


@dataclass(frozen=True)
class FileStore:
    """The data center's corpus: ``num_files`` files of ``file_len`` bits.

    Deterministically regenerable from ``(num_files, file_len, seed)``, eight
    bits from each random byte (see :func:`build_file_store`); the bit array
    is frozen after construction and safe to share across trial workers.
    """

    num_files: int
    file_len: int
    seed: int
    bits: np.ndarray  # shape (num_files, file_len), dtype uint8, values in {0,1}

    def __post_init__(self) -> None:
        if self.bits.shape != (self.num_files, self.file_len):
            raise ValueError(
                f"bit array shape {self.bits.shape} does not match "
                f"({self.num_files}, {self.file_len})"
            )
        if self.bits.dtype != np.uint8 or (self.bits > 1).any():
            raise ValueError("file bits must be uint8 values in {0, 1}")


def build_file_store(num_files: int, file_len: int, seed: int) -> FileStore:
    """Generate a pseudo-random corpus, identical for identical arguments.

    ``generator(seed)`` draws ``ceil(K * L / 8)`` uniform bytes, and
    ``np.unpackbits`` spreads them, most significant bit first, over the
    ``K * L`` bits file by file; the last byte's unused low bits are dropped.
    """
    if num_files < 1:
        raise ValueError(f"need at least one file, got {num_files}")
    if file_len < 1:
        raise ValueError(f"need at least one bit per file, got {file_len}")
    total = num_files * file_len
    drawn = generator(seed).integers(0, 256, -(-total // 8), dtype=np.uint8)
    bits = np.unpackbits(drawn, count=total)
    bits.flags.writeable = False  # before the reshape, so the view's base is frozen too
    return FileStore(num_files, file_len, seed, bits.reshape(num_files, file_len))


def storage_budget(mu, num_files: int, file_len: int) -> int:
    """Per-database bit budget floor(mu * K * L).

    The storage constraint is an inequality, so flooring a non-integral
    product never violates it.
    """
    if not 0 <= mu <= 1:
        raise ValueError(f"storage ratio must lie in [0, 1], got {mu}")
    return math.floor(mu * num_files * file_len)


@dataclass(frozen=True)
class CacheRealization:
    """Which bits each caching database stores (node 0 holds everything).

    ``cached[d, j, i]`` is true where database ``d + 1`` caches bit ``i`` of
    file ``j``; no database caches more than ``budget`` bits.
    """

    budget: int
    cached: np.ndarray  # shape (num_dbs, num_files, file_len), dtype bool

    def __post_init__(self) -> None:
        if self.cached.dtype != bool or self.cached.ndim != 3:
            raise ValueError(
                f"a realization is a boolean (N, K, L) array, got {self.cached.dtype} "
                f"of shape {self.cached.shape}"
            )
        if self.num_files < 1 or self.file_len < 1:
            raise ValueError(
                f"need at least one file of at least one bit, got K={self.num_files}, "
                f"L={self.file_len}"
            )
        counts = np.count_nonzero(self.cached, axis=(1, 2))
        over = np.flatnonzero(counts > self.budget)
        if len(over):
            raise BudgetViolation(
                f"database {over[0] + 1} stores {counts[over[0]]} bits, "
                f"budget is {self.budget}"
            )

    num_dbs = property(lambda self: self.cached.shape[0])
    num_files = property(lambda self: self.cached.shape[1])
    file_len = property(lambda self: self.cached.shape[2])


def realization_from_addresses(
    num_files: int,
    file_len: int,
    budget: int,
    address_sets: Sequence[Iterable[tuple[int, int]]],
) -> CacheRealization:
    """Build a realization from per-database iterables of (file, position) pairs.

    Raises ``ValueError`` unless every pair holds two integers with
    ``0 <= file < num_files`` and ``0 <= position < file_len``, and no
    database lists a pair twice.
    """
    cached = np.zeros((len(address_sets), num_files, file_len), dtype=bool)
    for d, pairs in enumerate(address_sets):
        for f, p in pairs:
            if not (_is_index(f, num_files) and _is_index(p, file_len)):
                raise ValueError(
                    f"database {d + 1} caches ({f!r}, {p!r}), not a bit of "
                    f"{num_files} files of {file_len} bits"
                )
            if cached[d, f, p]:
                raise ValueError(f"database {d + 1} lists ({f}, {p}) twice")
            cached[d, f, p] = True
    return CacheRealization(budget, cached)


def _is_index(value, bound) -> bool:
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and 0 <= value < bound
    )


@dataclass(frozen=True)
class StorageSetPartition:
    """Disjoint cover of all K*L addresses by exact storage set, as arrays.

    Storage sets are numbered in canonical order: by size, then by sorted
    member list.  Sets that hold no bits are omitted.  With ``S`` sets:

    * ``addresses`` lists all ``K * L`` flat addresses set by set, each
      set's file by file, positions ascending within a file;
    * set ``i``'s bits of file ``j`` are
      ``addresses[starts[i * K + j] : starts[i * K + j + 1]]``, so
      ``starts`` has ``S * K + 1`` entries and ends at ``K * L``;
    * ``sizes[i]`` is set ``i``'s node count, ascending;
    * ``members`` concatenates every set's sorted node ids (each starting
      with the data center, node 0), ``sum(sizes)`` entries in all.
    """

    num_files: int
    file_len: int
    num_dbs: int
    addresses: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    members: np.ndarray

    def __post_init__(self) -> None:
        total = self.num_files * self.file_len
        if len(self.addresses) != total or int(self.starts[-1]) != total:
            raise ValueError(
                f"partition covers {int(self.starts[-1])} bits, expected {total}"
            )
        firsts = np.cumsum(self.sizes) - self.sizes
        if (self.members[firsts] != 0).any():
            raise ValueError("every storage set must contain node 0")

    @property
    def entries(self) -> tuple[frozenset, ...]:
        """The storage sets in canonical order, as frozensets of node ids.

        Built from ``sizes`` and ``members`` on each read.
        """
        return tuple(map(frozenset, self.node_tuples()))

    def node_tuples(self) -> list[tuple[int, ...]]:
        """The storage sets in canonical order, as sorted node-id tuples.

        Sizes ascend, so each size's sets are one block of ``members``, cut
        into tuples of that size in one ``zip``.
        """
        members, out, lo = self.members.tolist(), [], 0
        for size, run in groupby(self.sizes.tolist()):
            hi = lo + size * len(list(run))
            out += zip(*[iter(members[lo:hi])] * size)
            lo = hi
        return out

    def lengths(self) -> np.ndarray:
        """``(S, K)`` bit counts: row ``i`` holds set ``i``'s per-file lengths."""
        return np.diff(self.starts).reshape(-1, self.num_files)

    def bits_by_size(self) -> dict[int, int]:
        """Total bit count per storage-set size (1 .. N+1), sizes that occur."""
        set_bits = np.diff(self.starts[:: self.num_files])
        # Float weights are exact: every count is at most K*L, far below 2**53.
        by_size = np.bincount(self.sizes, weights=set_bits)
        return {
            size: int(bits) for size, bits in enumerate(by_size.tolist()) if bits
        }


# Database d sets bit 0x80 >> ((d - 1) % 8) of storage byte (d - 1) // 8
# where it caches an address.  Up to eight databases, _RANK[byte] is the
# byte's place in canonical order: by size (the set bits), then by sorted
# member list, for one size the complemented byte ascending.
_CODES = np.arange(256, dtype=np.uint8)
_CODE_BY_RANK = _CODES[
    np.lexsort((~_CODES, np.unpackbits(_CODES[:, None], axis=1).sum(axis=1)))
]
_RANK = np.empty(256, dtype=np.uint8)
_RANK[_CODE_BY_RANK] = _CODES
_BIT_WEIGHTS = (0x80 >> np.arange(8, dtype=np.uint8))[:, None]


def _storage_bytes(realization: CacheRealization) -> np.ndarray:
    """Every address's storage bytes, one row per eight databases (at least
    one, all zeros without databases).

    Each byte is a weighted sum of its databases' bits: the full groups of
    eight take one sum, the remaining databases a second, so no database
    row is padded with zeros.  ``np.packbits`` over databases is ten times
    slower.
    """
    n, total = realization.num_dbs, realization.num_files * realization.file_len
    bits = realization.cached.reshape(n, total)
    full, rest = divmod(n, 8)
    out = np.zeros((max(1, -(-n // 8)), total), dtype=np.uint8)
    if full:
        weighted = bits[: 8 * full].reshape(full, 8, total) * _BIT_WEIGHTS
        weighted.sum(axis=1, dtype=np.uint8, out=out[:full])
    if rest:
        weighted = bits[8 * full :] * _BIT_WEIGHTS[:rest]
        weighted.sum(axis=0, dtype=np.uint8, out=out[full])
    return out


def partition_by_storage_set(realization: CacheRealization) -> StorageSetPartition:
    """Assign each address to the exact set of nodes that store it.

    Address ``(j, i)`` lands in ``S = {0} | {d : (j, i) cached by DB_d}``.
    One stable sort of all addresses by a key that orders storage sets
    canonically puts them in canonical order, ascending within each set:
    the rank of the address's code byte up to eight databases, and beyond
    that its size and key bytes (see :func:`_sort_by_key_bytes`).
    """
    k, n = realization.num_files, realization.num_dbs
    sort = _sort_by_code_byte if n <= 8 else _sort_by_key_bytes
    addresses, runs, in_set = sort(realization)
    starts = np.zeros(len(runs) + 1, dtype=np.int64)
    np.cumsum(runs, out=starts[1:])
    held = np.hstack((np.ones((len(in_set), 1), dtype=np.uint8), in_set))
    members = np.nonzero(held)[1]
    sizes = held.sum(axis=1, dtype=np.int64)
    return StorageSetPartition(
        k, realization.file_len, n, addresses, starts, sizes, members
    )


def _sort_by_code_byte(realization: CacheRealization):
    """Canonical order from one code byte per address, for at most 8 databases.

    Returns the sorted ``addresses``, the ``S * K`` per-file run lengths of
    the ``S`` occupied sets, and their ``(S, N)`` membership bits.
    """
    k, length, n = realization.num_files, realization.file_len, realization.num_dbs
    code = _storage_bytes(realization)[0]
    rank = _RANK.take(code)  # about twice as fast as _RANK[code] on bytes
    # numpy's stable sort of 8-bit integers is one radix pass.
    addresses = np.argsort(rank, kind="stable")
    # counts[r, j]: the bits of file j in the set of rank r.
    counts = np.stack(
        [np.bincount(row, minlength=256) for row in rank.reshape(k, length)], axis=1
    )
    occupied = np.flatnonzero(counts.any(axis=1))
    in_set = np.unpackbits(_CODE_BY_RANK[occupied, None], axis=1, count=n)
    return addresses, counts[occupied].reshape(-1), in_set


def _sort_by_key_bytes(realization: CacheRealization):
    """Canonical order from key bytes, for any number of databases.

    An address's key bytes are the complement of its storage bytes (see
    :func:`_storage_bytes`): database ``d``'s bit is clear where it caches
    the address.  For sets of one size, comparing these complemented bytes
    in order is comparing sorted member lists, so one stable sort by
    (size, key bytes) gives canonical order.  Returns what
    :func:`_sort_by_code_byte` returns.
    """
    k, length, n = realization.num_files, realization.file_len, realization.num_dbs
    total = k * length
    keys = ~_storage_bytes(realization)
    # Narrow keys keep the sort cheap: numpy's stable sort of 8- and 16-bit
    # integers is a radix sort.
    cached = realization.cached.sum(axis=0, dtype=np.min_scalar_type(n)).reshape(-1)
    addresses = np.lexsort((*keys[::-1], cached))

    # Equal keys imply equal sizes, so a set starts exactly where a key
    # changes, and a run of one set's bits of one file where either changes.
    sorted_keys = keys[:, addresses]
    new_set = np.ones(total, dtype=bool)
    new_set[1:] = (sorted_keys[:, 1:] != sorted_keys[:, :-1]).any(axis=0)
    files = addresses // length
    new_run = new_set.copy()
    new_run[1:] |= files[1:] != files[:-1]
    firsts = np.flatnonzero(new_set)
    run_firsts = np.flatnonzero(new_run)
    runs = np.zeros(len(firsts) * k, dtype=np.int64)
    runs[(np.cumsum(new_set[run_firsts]) - 1) * k + files[run_firsts]] = np.diff(
        run_firsts, append=total
    )
    in_set = np.unpackbits(~sorted_keys[:, firsts].T, axis=1, count=n)
    return addresses, runs, in_set
