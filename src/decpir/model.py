"""Ground-truth data model: files, bit addressing, cache realizations, and the
partition of all bits by the exact set of nodes that store them.

Conventions used throughout the package:

* indices are 0-based everywhere (files, bit positions, databases),
* the data center is node 0 and implicitly stores every bit,
* caching databases are nodes ``1..N``,
* a "flat address" encodes bit ``(file, position)`` as ``file * file_len +
  position``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import BudgetViolation
from .rng import generator


class BitAddress(NamedTuple):
    """One bit of the corpus: file index and position within that file."""

    file: int
    position: int


def flat_address(file: int, position: int, file_len: int) -> int:
    return file * file_len + position


def unflatten_address(addr: int, file_len: int) -> BitAddress:
    return BitAddress(addr // file_len, addr % file_len)


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

    @property
    def total_bits(self) -> int:
        return self.num_files * self.file_len


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
    if mu < 0 or mu > 1:
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
        if len(self.sets) != self.num_dbs:
            raise ValueError(
                f"expected {self.num_dbs} cache sets, got {len(self.sets)}"
            )
        total = self.num_files * self.file_len
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

    def addresses(self, db: int) -> np.ndarray:
        """Flat addresses cached by database ``db`` (1-based; 0 = data center)."""
        if db == 0:
            return np.arange(self.num_files * self.file_len)
        return self.sets[db - 1]


def realization_from_addresses(
    num_files: int,
    file_len: int,
    budget: int,
    address_sets: Sequence[Iterable[tuple[int, int]]],
) -> CacheRealization:
    """Build a realization from per-database iterables of (file, position) pairs."""
    sets = []
    for pairs in address_sets:
        flat = sorted(flat_address(f, p, file_len) for f, p in pairs)
        sets.append(np.asarray(flat, dtype=np.int64))
    return CacheRealization(num_files, file_len, len(sets), budget, tuple(sets))


def realization_to_json(realization: CacheRealization) -> dict:
    """Export as ``{"N": ..., "budget": ..., "sets": [[[file, pos], ...], ...]}``.

    ``K`` and ``L`` are included as extra keys so the document is
    self-contained for test-vector reuse.
    """
    return {
        "N": realization.num_dbs,
        "budget": realization.budget,
        "sets": [
            [list(unflatten_address(int(a), realization.file_len)) for a in addrs]
            for addrs in realization.sets
        ],
        "K": realization.num_files,
        "L": realization.file_len,
    }


def realization_from_json(
    doc: Mapping, num_files: Optional[int] = None, file_len: Optional[int] = None
) -> CacheRealization:
    """Inverse of :func:`realization_to_json`."""
    k = num_files if num_files is not None else doc["K"]
    length = file_len if file_len is not None else doc["L"]
    return realization_from_addresses(
        k, length, doc["budget"], [[(f, p) for f, p in s] for s in doc["sets"]]
    )


@dataclass(frozen=True)
class PartitionEntry:
    """Addresses stored by exactly one storage set, listed per file.

    ``positions[j]`` holds the ascending in-file positions of file ``j``'s
    bits in this entry; that ordering is the canonical symbol order both
    sides of the retrieval protocol agree on.  ``padded_len`` is the common
    per-file symbol count after zero padding (smallest multiple of
    ``|S| ** K`` covering the longest file), or ``None`` for the
    data-center-only set, which is downloaded at raw per-file lengths.
    """

    positions: tuple[np.ndarray, ...]
    padded_len: Optional[int]

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.positions)

    @property
    def max_len(self) -> int:
        return max(self.lengths)

    @property
    def total_bits(self) -> int:
        return sum(self.lengths)


@dataclass(frozen=True)
class StorageSetPartition:
    """Disjoint cover of all K*L addresses keyed by exact storage set.

    Every key is a frozenset of node ids containing 0.  Sets that hold no
    bits are omitted.
    """

    num_files: int
    file_len: int
    num_dbs: int
    entries: Mapping[frozenset, PartitionEntry]

    def __post_init__(self) -> None:
        covered = sum(e.total_bits for e in self.entries.values())
        if covered != self.num_files * self.file_len:
            raise ValueError(
                f"partition covers {covered} bits, expected "
                f"{self.num_files * self.file_len}"
            )
        for s in self.entries:
            if 0 not in s:
                raise ValueError(f"storage set {sorted(s)} does not contain node 0")

    def canonical_entries(self) -> list[tuple[frozenset, PartitionEntry]]:
        """Entries in a fixed order: by set size, then by member list."""
        return sorted(self.entries.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

    def bits_by_size(self) -> dict[int, int]:
        """Total bit count per storage-set size (1 .. N+1)."""
        out: dict[int, int] = {}
        for s, entry in self.entries.items():
            out[len(s)] = out.get(len(s), 0) + entry.total_bits
        return out


def padded_length(max_len: int, set_size: int, num_files: int) -> int:
    """Smallest multiple of ``set_size ** num_files`` that covers ``max_len``."""
    block = set_size**num_files
    return ((max_len + block - 1) // block) * block


# Partitioning keys each address by an int64 mask with one bit per database.
MAX_DBS = 63


def check_num_dbs(num_dbs: int) -> None:
    """Refuse database counts the storage-set mask cannot represent."""
    if num_dbs > MAX_DBS:
        raise ValueError(
            f"at most {MAX_DBS} databases are supported (one bit each in a "
            f"64-bit storage-set mask), got {num_dbs}"
        )


def partition_by_storage_set(realization: CacheRealization) -> StorageSetPartition:
    """Assign each address to the exact set of nodes that store it.

    Address ``(j, i)`` lands in ``S = {0} | {d : (j, i) cached by DB_d}``;
    entries for empty sets are omitted, so the result is a disjoint cover of
    all addresses by construction.
    """
    k, length, n = realization.num_files, realization.file_len, realization.num_dbs
    check_num_dbs(n)
    total = k * length
    membership = np.zeros(total, dtype=np.int64)
    for d, addrs in enumerate(realization.sets):
        membership[addrs] |= 1 << d
    entries: dict[frozenset, PartitionEntry] = {}
    for mask in np.unique(membership):
        addrs = np.flatnonzero(membership == mask)
        members = frozenset({0} | {d + 1 for d in range(n) if (int(mask) >> d) & 1})
        files = addrs // length
        positions = tuple(addrs[files == j] % length for j in range(k))
        if len(members) == 1:
            padded = None
        else:
            padded = padded_length(
                max(len(p) for p in positions), len(members), k
            )
        entries[members] = PartitionEntry(positions, padded)
    return StorageSetPartition(k, length, n, entries)
