"""Caching-phase policies.

The production policy is uniform random placement: every database
independently caches a uniformly random budget-sized subset of all bits,
all databases drawing from the same distribution.  Two deterministic
policies (whole-file prefix and explicit literal sets) are provided as
stress tests for the download-cost lower bound.

Samplers are pure functions of (policy, seed); see :mod:`decpir.rng` for the
seed-splitting rule that keeps trials order-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

import numpy as np

from .errors import BudgetViolation
from .model import (
    CacheRealization,
    realization_from_addresses,
    storage_budget,
)
from .rng import derive_seeds, generators


@dataclass(frozen=True)
class UniformRandomPlacement:
    """Each database caches an independent uniform budget-sized subset.

    ``mu`` may be left None when the storage ratio is supplied at sampling
    time (as experiment configs do).
    """

    mu: Optional[Fraction] = None

    kind = "uniform-random"


@dataclass(frozen=True)
class WholeFilePrefixPlacement:
    """Every database caches exactly the bits of the listed files."""

    files: tuple[int, ...]

    kind = "whole-file-prefix"


@dataclass(frozen=True)
class ExplicitSetsPlacement:
    """Literal per-database address sets, as (file, position) pairs."""

    sets: tuple[tuple[tuple[int, int], ...], ...]

    kind = "explicit-sets"


PlacementPolicy = Union[
    UniformRandomPlacement, WholeFilePrefixPlacement, ExplicitSetsPlacement
]


def policy_from_dict(doc: dict) -> PlacementPolicy:
    """Parse a policy description as used in experiment config files.

    Raises ``ValueError`` for anything malformed: a document that is not an
    object, an unknown kind, a missing or mistyped field, or a file or
    position that is not an integer.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a placement policy must be a JSON object, got {doc!r}")
    kind = doc.get("kind", "uniform-random")
    try:
        if kind == "uniform-random":
            mu = Fraction(doc["mu"]) if "mu" in doc else None
            return UniformRandomPlacement(mu)
        if kind == "whole-file-prefix":
            return WholeFilePrefixPlacement(_integers(*doc["files"]))
        if kind == "explicit-sets":
            sets = enumerate(doc["sets"], 1)
            return ExplicitSetsPlacement(
                tuple(tuple(_pair(d, p) for p in s) for d, s in sets)
            )
    except KeyError as exc:
        raise ValueError(
            f"placement kind {kind!r} needs a {exc.args[0]!r} field"
        ) from None
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {kind!r} placement policy: {exc}") from None
    raise ValueError(f"unknown placement kind {kind!r}")


def _pair(db: int, pair) -> tuple[int, ...]:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"database {db} lists {pair!r}, not a [file, position] pair")
    return _integers(*pair)


def _integers(*values) -> tuple[int, ...]:
    # int() would truncate 1.9 to 1 and read true or "1" as 1.
    for value in values:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"placement entries must be integers, got {value!r}")
    return values


def _resolve_mu(policy: PlacementPolicy, mu) -> Fraction:
    if isinstance(policy, UniformRandomPlacement) and policy.mu is not None:
        if mu is not None and Fraction(mu) != policy.mu:
            raise ValueError(
                f"policy carries mu={policy.mu} but sampler was given mu={mu}"
            )
        return policy.mu
    if mu is None:
        raise ValueError("a storage ratio mu is required to size the bit budget")
    return Fraction(mu)


def sample_placement(
    policy: PlacementPolicy,
    num_files: int,
    file_len: int,
    num_dbs: int,
    seed: int,
    mu=None,
) -> CacheRealization:
    """Draw one caching-phase realization for ``num_dbs`` databases.

    Uniform placement samples database ``d`` from what
    ``generator(derive_seed(seed, d))`` draws, all databases seeded in one
    pass by :func:`decpir.rng.generators`; deterministic policies ignore the
    randomness but still validate the budget.  A draw only marks its
    database's row, so it passes ``shuffle=False``, which selects the same
    subset: by default numpy shuffles a subset drawn by Floyd's algorithm (at
    most 10,000 addresses, or a budget of at most 1/50 of them).
    """
    if num_dbs < 0:
        raise ValueError(f"database count must be non-negative, got {num_dbs}")
    mu = _resolve_mu(policy, mu)
    budget = storage_budget(mu, num_files, file_len)
    total = num_files * file_len

    if isinstance(policy, ExplicitSetsPlacement):
        if len(policy.sets) != num_dbs:
            raise ValueError(
                f"policy lists {len(policy.sets)} sets for {num_dbs} databases"
            )
        return realization_from_addresses(num_files, file_len, budget, policy.sets)

    cached = np.zeros((num_dbs, num_files, file_len), dtype=bool)
    if isinstance(policy, UniformRandomPlacement):
        rngs = generators(derive_seeds(seed, indices=range(num_dbs)))
        for row, rng in zip(cached.reshape(num_dbs, total), rngs):
            row[rng.choice(total, size=budget, replace=False, shuffle=False)] = True
        return CacheRealization(budget, cached)

    if isinstance(policy, WholeFilePrefixPlacement):
        files = sorted(set(policy.files))
        if len(files) != len(policy.files):
            raise ValueError("file list contains duplicates")
        if files and (files[0] < 0 or files[-1] >= num_files):
            raise ValueError(f"file list {policy.files} out of range for K={num_files}")
        if len(files) * file_len > budget:
            raise BudgetViolation(
                f"caching {len(files)} whole files needs {len(files) * file_len} "
                f"bits, budget is {budget}"
            )
        cached[:, files] = True
        return CacheRealization(budget, cached)

    raise TypeError(f"unknown policy type {type(policy).__name__}")
