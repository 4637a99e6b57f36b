"""Private retrieval from replicated stores with XOR sum queries.

One protocol instance runs over ``n`` stores that each hold the same ``K``
files of ``lam`` symbols.  The plan is built per block of ``n**K`` symbols:

* round 1 sends every store one fresh singleton per file;
* in round ``k`` each store receives, for every purely-undesired
  ``(k-1)``-sum downloaded from every other store, one desired ``k``-sum
  mixing a fresh desired symbol with that sum (the side-information link is
  recorded for decoding), plus ``(n-1)**(k-1)`` fresh undesired ``k``-sums
  for every ``k``-subset of the undesired files.

Fresh symbols are handed out by per-file counters and addressed through
per-file uniform random permutations, so the indices a store sees are
uniformly random; the count of ``k``-sums per file subset at each store is
the same for every choice of desired file, which is what makes the request
pattern uninformative.  ``n = 1`` needs no special case: its block is one
symbol and its plan downloads every symbol of every file.

The block structure depends on ``(n, K, desired)`` alone, so the rounds
above run once per shape over one block of counters and are cached as a
read-only template: each store's queries once, as (file, counter) rows
padded to the longest query, that every block repeats over its own
counters, so a plan is its shape and its ``(K, lam)`` permutations.
Answering gathers the symbols through the permutations into one row per
(file, counter) of a block and one column per block, then XORs each
query's padded terms for all blocks and all stores at once, giving the
``(n, queries)`` answer matrix, block-major; decoding reads each desired
counter's answer and side answer the same way and scatters them through
the desired file's permutation.  Sessions of one shape can share a plan as
segments, each permuted from its own seed and offset by its start.  The
only view derived from the template and the permutations is the text of
each store's queries, :func:`plan_transcripts`.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ProtocolError
from .rng import generators, seed_array


@dataclass(frozen=True)
class QueryPlan:
    """A retrieval session: its shape and its ``(K, lam)`` permutations.

    ``permutations[j, c]`` is where counter ``c`` of file ``j`` sits in the
    symbol array; block ``b`` repeats the block template over counters
    ``b * n**K`` onwards, and segment ``i`` holds symbols
    ``segment_starts[i]`` to ``segment_starts[i + 1]``.
    """

    num_replicas: int
    num_files: int
    desired: int
    num_symbols: int
    permutations: np.ndarray
    segment_starts: tuple[int, ...]

    @property
    def _template(self) -> _BlockTemplate:
        return _block_template(self.num_replicas, self.num_files, self.desired)

    @property
    def block(self) -> int:
        return self.num_replicas**self.num_files

    @property
    def blocks(self) -> int:
        return self.num_symbols // self.block

    @property
    def block_queries(self) -> int:  # each store's, per block
        return self._template.terms.shape[2]

    @property
    def total_queries(self) -> int:
        return self.num_replicas * self.blocks * self.block_queries


class _BlockTemplate(NamedTuple):
    """The plan for one block of counters, ``n**K`` per file.

    ``terms[w, d, q]`` is the ``file * n**K + counter`` row of term ``w`` of
    store ``d``'s query ``q``, or past the query's last term (the same slots
    at every store) the row ``K * n**K``, which every per-block table keeps
    empty.  Desired counter ``c`` is decoded from answer rows ``direct[c]``
    and ``side[c]``, each ``db * queries + query``, the side the zero row
    ``n * queries`` for singletons.
    """

    terms: np.ndarray
    direct: np.ndarray
    side: np.ndarray


@lru_cache(maxsize=256)
def _block_template(n: int, k: int, desired: int) -> _BlockTemplate:
    block = n**k
    # Each store's term rows, file * block + counter, and query orders.
    rows: list[list[int]] = [[] for _ in range(n)]
    orders: list[list[int]] = [[] for _ in range(n)]
    sources = np.full((block, 4), -1, dtype=np.int64)
    counters = [0] * k
    undesired_files = [j for j in range(k) if j != desired]

    def fresh(j: int) -> tuple[int, int]:
        c = counters[j]
        counters[j] += 1
        return (j, c)

    def add(d: int, terms) -> int:
        rows[d].extend(j * block + c for j, c in terms)
        orders[d].append(len(terms))
        return len(orders[d]) - 1

    # Round 1: one fresh singleton per file at every store.
    pool: list[list[tuple[int, tuple]]] = [[] for _ in range(n)]
    for d in range(n):
        for j in range(k):
            t = fresh(j)
            idx = add(d, (t,))
            if j == desired:
                sources[t[1]] = (d, idx, -1, -1)
            else:
                pool[d].append((idx, (t,)))

    # Rounds 2..K, skipped at n = 1.  They would add no query there (no other
    # store to mix with, (n-1)**(order-1) = 0 sums per subset), but walking
    # them still visits all 2**(K-1) undesired subsets, and K reaches 1000.
    for order in range(2, k + 1 if n > 1 else 2):
        new_pool: list[list[tuple[int, tuple]]] = [[] for _ in range(n)]
        for d in range(n):
            # Desired sums: one fresh desired symbol mixed with each
            # purely-undesired (order-1)-sum from every other store, taken
            # in ascending (store, creation order).
            for dp in range(n):
                if dp == d:
                    continue
                for src_idx, src_terms in pool[dp]:
                    t = fresh(desired)
                    idx = add(d, sorted(src_terms + (t,)))
                    sources[t[1]] = (d, idx, dp, src_idx)
            # Undesired sums: fresh counters, one per file of each subset.
            for subset in combinations(undesired_files, order):
                for _ in range((n - 1) ** (order - 1)):
                    terms = tuple(fresh(j) for j in subset)
                    new_pool[d].append((add(d, terms), terms))
        pool = new_pool

    if counters[desired] != block:
        raise ProtocolError(
            f"desired counter ended at {counters[desired]}, expected {block}"
        )
    if any(counters[j] > block for j in undesired_files):
        raise ProtocolError("an undesired counter overran its block")

    # Every store gets the same query shapes, so store 0's orders are all.
    rows, orders = np.array(rows), np.array(orders[0])
    queries, width = len(orders), orders.max()
    terms = np.full((width, n, queries), k * block, dtype=np.int64)
    terms.transpose(1, 2, 0)[:, np.arange(width) < orders[:, None]] = rows
    direct = sources[:, 0] * queries + sources[:, 1]
    side = sources[:, 2] * queries + sources[:, 3]
    side[sources[:, 2] < 0] = n * queries
    template = _BlockTemplate(terms, direct, side)
    for a in template:
        a.flags.writeable = False
    return template


def _first_non_integer(values: list):
    """The first of ``values`` that ``operator.index`` refuses."""
    for value in values:
        try:
            operator.index(value)
        except TypeError:
            return value


def generate_query_plan(
    num_replicas: int,
    num_files: int,
    desired: int,
    num_symbols: int | Sequence[int],
    seed: int | Sequence[int],
    permute: bool = True,
) -> QueryPlan:
    """Build the query plan for one retrieval session: its permutations.

    ``num_symbols`` must be a multiple of ``num_replicas ** num_files``, the
    block size.  ``permute=False`` skips the per-file permutations and exists
    only as a negative control for privacy tests.

    Several sessions of one shape run as one plan when ``num_symbols`` and
    ``seed`` are equal-length sequences, one entry per segment.  Segment
    ``i`` draws from ``generators(seed)``'s ``i``-th generator exactly what
    ``generator(seed[i])`` would for a plan of its own, offset by the
    segment's start, so the permutations are block-diagonal and its queries,
    decode sources and decoded symbols are those of the separate plan,
    shifted.  Lengths are integers, and seeds are integers taken modulo
    ``2**64``; a single ``num_symbols`` takes a single seed.  Any other
    length or seed type, or a mismatch between one length and a sequence of
    seeds or the reverse, raises ``ValueError``.
    """
    n, k = num_replicas, num_files
    if n < 1:
        raise ValueError(f"need at least one replica, got {n}")
    if k < 1:
        raise ValueError(f"need at least one file, got {k}")
    if not 0 <= desired < k:
        raise ValueError(f"desired file {desired} out of range for K={k}")
    if (
        isinstance(num_symbols, (str, bytes))
        or not isinstance(num_symbols, Iterable)
        or getattr(num_symbols, "ndim", None) == 0  # a 0-d array
    ):
        lams, seeds = [num_symbols], [seed]
    else:
        lams = list(num_symbols)
        try:
            seeds = list(seed)
        except TypeError:
            raise ValueError(
                f"segment lengths need a sequence of seeds, one per segment, "
                f"got {seed!r}"
            ) from None
        if len(lams) != len(seeds):
            raise ValueError(
                f"{len(lams)} segment lengths but {len(seeds)} segment seeds"
            )
    try:
        # Plain ints, so that numpy integers are checked like ints.
        lams = list(map(operator.index, lams))
    except TypeError:
        bad = _first_non_integer(lams)
        raise ValueError(f"symbol counts must be integers, got {bad!r}") from None
    try:
        seeds = seed_array(seeds)
    except TypeError:
        bad = _first_non_integer(seeds)
        raise ValueError(f"seeds must be integers, got {bad!r}") from None
    block = n**k
    for lam in lams:
        if lam < 0:
            raise ValueError(f"symbol count must be non-negative, got {lam}")
        if lam % block != 0:
            raise ValueError(
                f"symbol count {lam} is not a multiple of the block size "
                f"n**K = {n}**{k}"
            )
    starts = tuple(accumulate(lams, initial=0))
    perms = np.tile(np.arange(starts[-1]), (k, 1))
    if permute:
        # Permuting a segment's rows in place draws exactly what ``k`` calls
        # of ``permutation(lam)`` would, already offset by the segment start.
        for rng, start, end in zip(generators(seeds), starts, starts[1:]):
            seg = perms[:, start:end]
            rng.permuted(seg, axis=1, out=seg)
    _block_template(n, k, desired)  # built with the plan, not on first answer
    return QueryPlan(n, k, desired, starts[-1], perms, starts)


def answer_queries(plan: QueryPlan, symbols: np.ndarray) -> np.ndarray:
    """Every store's answer string: row ``d`` holds store ``d``'s GF(2) sums.

    ``symbols`` is the ``(K, lam)`` symbol matrix each store of the plan
    holds, zero padding included, row ``j`` holding file ``j``.  Returns the
    ``(n, queries)`` answer matrix, block by block.  Raises
    :class:`ProtocolError` on a symbol matrix of another shape and on
    permutations that are not one symbol position per (file, counter).
    """
    symbols = np.asarray(symbols, dtype=np.uint8)
    k, lam = plan.num_files, plan.num_symbols
    if symbols.shape != (k, lam):
        raise ProtocolError(
            f"expected a {k} x {lam} symbol matrix, got shape {symbols.shape}"
        )
    t, perms = plan._template, plan.permutations
    block, blocks = plan.block, plan.blocks
    if perms.shape != (k, blocks * block) or perms.size and (
        perms.min() < 0 or perms.max() >= lam
    ):
        raise ProtocolError(
            f"malformed query plan: need {k} x {lam} permutations into the "
            f"symbols, whole blocks of {block}"
        )
    # Row ``j * block + c``, column ``b``: file j's symbol at counter c of
    # block b; the last row stays zero for the terms past a query's end.
    by_counter = np.zeros((k * block + 1, blocks), dtype=np.uint8)
    where = perms.reshape(k, blocks, block).transpose(0, 2, 1)
    # The permutations were checked, so clipping changes no index.
    np.take(
        symbols, where + (np.arange(k) * lam)[:, None, None],
        out=by_counter[:-1].reshape(k, block, blocks), mode="clip",
    )
    answers = np.bitwise_xor.reduce(by_counter[t.terms], axis=0)
    return answers.transpose(0, 2, 1).reshape(plan.num_replicas, -1)


def decode_desired(plan: QueryPlan, answers: np.ndarray) -> np.ndarray:
    """Recover the desired file's ``num_symbols`` symbols in original order.

    ``answers`` is the ``(n, queries)`` matrix :func:`answer_queries`
    returns.  Singleton answers are read directly; each desired sum is
    decoded by XORing in the linked undesired sum's downloaded answer bit.
    Undesired sums are only ever reused wholesale, never decoded.
    """
    answers = np.asarray(answers, dtype=np.uint8)
    t = plan._template
    n, queries, blocks = plan.num_replicas, plan.block_queries, plan.blocks
    if answers.shape != (n, blocks * queries):
        raise ProtocolError(
            f"expected a {n} x {blocks * queries} answer matrix, "
            f"got shape {answers.shape}"
        )
    # Row ``d * queries + q``, column ``b``: store d's answer to query q of
    # block b; the last row stays zero for the singletons' missing side.
    by_query = np.zeros((n * queries + 1, blocks), dtype=np.uint8)
    by_query[:-1].reshape(n, queries, blocks)[...] = answers.reshape(
        n, blocks, queries
    ).transpose(0, 2, 1)
    out = np.empty(plan.num_symbols, dtype=np.uint8)
    where = plan.permutations[plan.desired].reshape(blocks, plan.block).T
    out[where] = by_query[t.direct] ^ by_query[t.side]
    return out


def structural_privacy_histogram(plan: QueryPlan) -> dict[frozenset, int]:
    """Counts of sum queries keyed by their exact file set.

    The histogram is the store-visible request "shape"; every store of the
    plan sees the same one, and by construction it does not depend on which
    file is desired.  Every block repeats the block template's queries, so
    this is the template's histogram times the block count.
    """
    blocks = plan.blocks
    if not blocks:
        return {}
    shape = (plan.num_replicas, plan.num_files, plan.desired)
    return {files: count * blocks for files, count in _block_histogram(*shape)}


@lru_cache(maxsize=256)
def _block_histogram(n: int, k: int, desired: int) -> tuple[tuple[frozenset, int], ...]:
    """The histogram of one block's queries, as (file set, count) pairs."""
    # Store 0's query files, one row per query, file K past a query's end:
    # one file set has one order, so dropping K merges no two sets.
    rows = _block_template(n, k, desired).terms[:, 0, :].T // n**k
    counts = Counter(map(frozenset, rows.tolist()))
    return tuple((files - {k}, count) for files, count in counts.items())


def plan_transcripts(plan: QueryPlan, sort: bool = False) -> tuple[str, ...]:
    """Canonical text form of every store's queries, one query per line.

    Entry ``d`` is store ``d``'s; terms are ``file:index`` separated by
    spaces.  Queries appear in generation order (the wire/golden-file
    format); with ``sort=True`` the lines are sorted, which drops the
    ordering and is the store-visible view used for distribution testing.
    """
    block, blocks = plan.block, plan.blocks
    terms = plan._template.terms.transpose(1, 2, 0)  # [store, query, term]
    real = terms[0] < plan.num_files * block  # the slots before each query's end
    files, counters = np.divmod(terms[:, real], block)
    counters = counters[:, None, :] + np.arange(blocks)[:, None] * block
    files = np.tile(files[0], blocks)
    indices = plan.permutations[files, counters.reshape(plan.num_replicas, -1)]
    bounds = list(accumulate(np.tile(real.sum(axis=1), blocks).tolist(), initial=0))
    files, out = files.tolist(), []
    for row in indices.tolist():
        terms = [f"{f}:{i}" for f, i in zip(files, row)]
        lines = [" ".join(terms[a:b]) for a, b in zip(bounds, bounds[1:])]
        out.append("\n".join(sorted(lines) if sort else lines))
    return tuple(out)
