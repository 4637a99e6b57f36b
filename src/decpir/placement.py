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
    object, an unknown kind, or a missing or mistyped field.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a placement policy must be a JSON object, got {doc!r}")
    kind = doc.get("kind", "uniform-random")
    try:
        if kind == "uniform-random":
            mu = Fraction(doc["mu"]) if "mu" in doc else None
            return UniformRandomPlacement(mu)
        if kind == "whole-file-prefix":
            return WholeFilePrefixPlacement(tuple(int(f) for f in doc["files"]))
        if kind == "explicit-sets":
            return ExplicitSetsPlacement(
                tuple(tuple((int(f), int(p)) for f, p in s) for s in doc["sets"])
            )
    except KeyError as exc:
        raise ValueError(
            f"placement kind {kind!r} needs a {exc.args[0]!r} field"
        ) from None
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"malformed {kind!r} placement policy: {exc}") from None
    raise ValueError(f"unknown placement kind {kind!r}")


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
    randomness but still validate the budget.  The draw passes
    ``shuffle=False``, which selects the same subset: by default numpy
    shuffles a subset drawn by Floyd's algorithm (at most 10,000 addresses,
    or a budget of at most 1/50 of them), an order that sorting throws away.
    """
    if num_dbs < 0:
        raise ValueError(f"database count must be non-negative, got {num_dbs}")
    mu = _resolve_mu(policy, mu)
    budget = storage_budget(mu, num_files, file_len)
    total = num_files * file_len

    if isinstance(policy, UniformRandomPlacement):
        sets = tuple(
            rng.choice(total, size=budget, replace=False, shuffle=False)
            for rng in generators(derive_seeds(seed, indices=range(num_dbs)))
        )
        for drawn in sets:
            drawn.sort()
        return CacheRealization(num_files, file_len, num_dbs, budget, sets)

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
        column = np.array(files, dtype=np.int64)[:, None]
        addrs = (column * file_len + np.arange(file_len)).reshape(-1)
        sets = tuple(addrs.copy() for _ in range(num_dbs))
        return CacheRealization(num_files, file_len, num_dbs, budget, sets)

    if isinstance(policy, ExplicitSetsPlacement):
        if len(policy.sets) != num_dbs:
            raise ValueError(
                f"policy lists {len(policy.sets)} sets for {num_dbs} databases"
            )
        return realization_from_addresses(num_files, file_len, budget, policy.sets)

    raise TypeError(f"unknown policy type {type(policy).__name__}")
