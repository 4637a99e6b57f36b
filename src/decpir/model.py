"""Ground-truth data model: files, bit addressing, cache realizations, and the
partition of all bits by the exact set of nodes that store them.

Conventions used throughout the package:

* indices are 0-based everywhere (files, bit positions, databases),
* the data center is node 0 and implicitly stores every bit,
* caching databases are nodes ``1..N``,
* a "flat address" encodes bit ``(file, position)`` as ``file * file_len +
  position``.

The partition by storage set is arrays in canonical order: sets by size,
then by sorted member list, and within a set file by file with positions
ascending.  :func:`partition_by_storage_set` builds it with one stable sort
of all addresses.  Up to eight databases, an address's storage set fits in
one code byte and the sort key is that byte's canonical rank; beyond that
the key is the number of caching databases, then one byte per eight
databases with a database's bit cleared where it caches the address, so
any number of databases works.  See :class:`StorageSetPartition` for the
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


def flat_address(file: int, position: int, file_len: int) -> int:
    return file * file_len + position


@dataclass(frozen=True)
class FileStore:
    """The data center's corpus: ``num_files`` files of ``file_len`` bits.

    Deterministically regenerable from ``(num_files, file_len, seed)``; the
    bit array is frozen after construction and safe to share across trial
    workers.
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
    """Generate a pseudo-random corpus, identical for identical arguments."""
    if num_files < 1:
        raise ValueError(f"need at least one file, got {num_files}")
    if file_len < 1:
        raise ValueError(f"need at least one bit per file, got {file_len}")
    rng = generator(seed)
    bits = rng.integers(0, 2, size=(num_files, file_len), dtype=np.uint8)
    bits.flags.writeable = False
    return FileStore(num_files, file_len, seed, bits)


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
    """Per-database index sets of cached bits (node 0 holds everything).

    ``sets[d]`` lists the flat addresses cached by database ``d + 1`` as a
    sorted array without duplicates; every set obeys the bit budget.
    """

    num_files: int
    file_len: int
    num_dbs: int
    budget: int
    sets: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        if self.num_files < 1 or self.file_len < 1:
            raise ValueError(
                f"need at least one file of at least one bit, got K={self.num_files}, "
                f"L={self.file_len}"
            )
        if len(self.sets) != self.num_dbs:
            raise ValueError(
                f"expected {self.num_dbs} cache sets, got {len(self.sets)}"
            )
        total = self.num_files * self.file_len
        # One pass over all sets screens for a fault; only a faulty
        # realization walks the sets, to name the first faulty database.
        lengths = np.array([len(addrs) for addrs in self.sets], dtype=np.int64)
        flat = np.concatenate([np.zeros(0, np.int64), *self.sets])
        steps = np.diff(flat)
        ends = np.cumsum(lengths)
        starts = ends[:-1]
        # A set's first address is not compared with the previous set's last.
        steps[starts[(starts > 0) & (starts < len(flat))] - 1] = 1
        # Once every set is strictly increasing, its first and last entries
        # are its least and greatest addresses.
        held = lengths > 0
        if not (
            (steps <= 0).any()
            or (flat[(ends - lengths)[held]] < 0).any()
            or (flat[ends[held] - 1] >= total).any()
            or lengths.max(initial=0) > self.budget
        ):
            return
        for d, addrs in enumerate(self.sets):
            if (np.diff(addrs) <= 0).any():
                raise ValueError(
                    f"database {d + 1} caches addresses that are not strictly "
                    "increasing (unsorted or duplicate)"
                )
            if len(addrs) and (addrs.min() < 0 or addrs.max() >= total):
                raise ValueError(f"database {d + 1} caches an out-of-range address")
            if len(addrs) > self.budget:
                raise BudgetViolation(
                    f"database {d + 1} stores {len(addrs)} bits, budget is {self.budget}"
                )


def realization_from_addresses(
    num_files: int,
    file_len: int,
    budget: int,
    address_sets: Sequence[Iterable[tuple[int, int]]],
) -> CacheRealization:
    """Build a realization from per-database iterables of (file, position) pairs.

    Raises ``ValueError`` unless every pair holds two integers with
    ``0 <= file < num_files`` and ``0 <= position < file_len``.
    """
    sets = []
    for d, pairs in enumerate(address_sets):
        flat = []
        for f, p in pairs:
            if not (_is_index(f, num_files) and _is_index(p, file_len)):
                raise ValueError(
                    f"database {d + 1} caches ({f!r}, {p!r}), not a bit of "
                    f"{num_files} files of {file_len} bits"
                )
            flat.append(flat_address(f, p, file_len))
        sets.append(np.asarray(sorted(flat), dtype=np.int64))
    return CacheRealization(num_files, file_len, len(sets), budget, tuple(sets))


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


# Up to eight databases, database d sets bit 0x80 >> (d - 1) of an address's
# code byte where it caches the address.  _RANK[code] is the code's place in
# canonical order: by size (the set bits), then by sorted member list, which
# for one size is the complemented byte ascending.  _CODE_BY_RANK inverts it.
_CODES = np.arange(256, dtype=np.uint8)
_CODE_BY_RANK = _CODES[
    np.lexsort((~_CODES, np.unpackbits(_CODES[:, None], axis=1).sum(axis=1)))
]
_RANK = np.empty(256, dtype=np.uint8)
_RANK[_CODE_BY_RANK] = _CODES


def partition_by_storage_set(realization: CacheRealization) -> StorageSetPartition:
    """Assign each address to the exact set of nodes that store it.

    Address ``(j, i)`` lands in ``S = {0} | {d : (j, i) cached by DB_d}``.
    One stable sort of all addresses by a key that orders storage sets
    canonically puts them in canonical order, ascending within each set:
    the rank of the address's code byte up to eight databases, and beyond
    that its size and key bytes (see :func:`_sort_by_key_bytes`).
    """
    k, n = realization.num_files, realization.num_dbs
    if n <= 8:
        addresses, runs, in_set = _sort_by_code_byte(realization)
    else:
        addresses, runs, in_set = _sort_by_key_bytes(realization)
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
    code = np.zeros(k * length, dtype=np.uint8)
    for d, addrs in enumerate(realization.sets):
        code[addrs] |= 0x80 >> d
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

    Each address gets one key byte per eight databases, starting at ``0xFF``
    with database ``d``'s bit (``0x80 >> ((d - 1) % 8)`` of byte
    ``(d - 1) // 8``) cleared where it caches the address.  For sets of one
    size, comparing these complemented bytes in order is comparing sorted
    member lists, so one stable sort by (size, key bytes) gives canonical
    order.  Returns what :func:`_sort_by_code_byte` returns.
    """
    k, length, n = realization.num_files, realization.file_len, realization.num_dbs
    total = k * length
    keys = np.full(((n + 7) // 8, total), 0xFF, dtype=np.uint8)
    for d, addrs in enumerate(realization.sets):
        row = keys[d // 8]
        row[addrs] &= ~(0x80 >> (d % 8)) & 0xFF
    # Narrow keys keep the sort cheap: numpy's stable sort of 8- and 16-bit
    # integers is a radix sort.
    cached = np.bincount(
        np.concatenate((np.zeros(0, np.int64), *realization.sets)), minlength=total
    ).astype(np.min_scalar_type(n))
    addresses = np.lexsort((*keys[::-1], cached))

    # Equal keys imply equal sizes, so a set starts exactly where a key
    # changes, and a run of one set's bits of one file where either changes.
    sorted_keys = [row[addresses] for row in keys]
    new_set = np.zeros(total, dtype=bool)
    new_set[0] = True
    for row in sorted_keys:
        new_set[1:] |= row[1:] != row[:-1]
    files = addresses // length
    new_run = new_set.copy()
    new_run[1:] |= files[1:] != files[:-1]
    firsts = np.flatnonzero(new_set)
    run_firsts = np.flatnonzero(new_run)
    runs = np.zeros(len(firsts) * k, dtype=np.int64)
    runs[(np.cumsum(new_set[run_firsts]) - 1) * k + files[run_firsts]] = np.diff(
        run_firsts, append=total
    )
    in_set = np.unpackbits(~keys[:, addresses[firsts]].T, axis=1, count=n)
    return addresses, runs, in_set
