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

The block structure depends on ``(n, K, desired)`` alone, so it is built
once per shape over one block of counters and cached as a read-only
template: each store's queries once, as (file, counter) rows padded to the
longest query, that every block repeats over its own counters, so a plan is
its shape and its ``(K, lam)`` permutations.  Every count of a round is
closed form: each store pools ``C(K-1, k) * (n-1)**(k-1)`` undesired
``k``-sums and asks ``(n-1)`` times the ``(k-1)``-pool in desired sums, and
the counters run store after store, so each round is built for all stores
at once from arrays, with no Python object per query or term.

Answering gathers the symbols through the permutations, file by file, into
one row per (file, counter) of a block and one column per block, then XORs
each query's padded terms for all blocks and all stores at once, giving the
``(n, queries)`` answer matrix, block-major; decoding reads each desired
counter's answer and side answer the same way and scatters them through the
desired file's permutation.  Sessions of one shape can share a plan as
segments, each permuted from its own numpy ``Generator``, which the caller
hands over, and offset by its start; a one-session plan also takes an
integer seed.  The only view derived from the template and the
permutations is the text of each store's queries, :func:`plan_transcripts`.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations, islice
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ProtocolError
from .rng import generators


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
    block, stores = n**k, np.arange(n)
    undesired = np.delete(np.arange(k), desired)
    # Each store asks C(K, j) * (n-1)**(j-1) j-sums: (n**K - 1)/(n - 1) in all.
    queries = (block - 1) // (n - 1) if n > 1 else k
    terms = np.full((k if n > 1 else 1, n, queries), k * block, dtype=np.int64)
    # Round 1: store d's singletons are counter d of every file, in file order.
    terms[0, :, :k] = np.arange(k) * block + stores[:, None]
    pool, pool_q = terms[0][:, undesired, None], undesired
    # One (direct, side) table per round, its columns the round's desired
    # counters in order; a singleton's side is the zero row n * queries.
    links = [np.stack([stores * queries + desired, np.full(n, n * queries)])]
    counters, q = np.full(k, n), k  # next counter per file, next query
    # others[d]: every store but d, ascending.
    others = np.arange(n - 1) + (np.arange(n - 1) >= stores[:, None])
    # Rounds 2..K, skipped at n = 1.  They would add no query there (no other
    # store to mix with, (n-1)**(order-1) = 0 sums per subset), but walking
    # them still visits all 2**(K-1) undesired subsets, and K reaches 1000.
    for order in range(2, k + 1 if n > 1 else 2):
        # Desired sums: store d mixes desired counters counters[desired] +
        # d*(n-1)*P onwards into the P pooled sums of every other store, the
        # stores ascending and each pool in query order.  Sorting the rows
        # sorts each sum's terms by file, as (file, counter) pairs would.
        mixed = pool[others].reshape(n, -1, order - 1)
        m = mixed.shape[1]
        fresh = desired * block + counters[desired] + np.arange(n * m).reshape(n, m, 1)
        sums = np.sort(np.concatenate([mixed, fresh], axis=2), axis=2)
        terms[:order, :, q : q + m] = sums.transpose(2, 0, 1)
        side = np.repeat(others, len(pool_q), axis=1) * queries + np.tile(pool_q, n - 1)
        links.append(np.stack([stores[:, None] * queries + q + np.arange(m), side]))
        counters[desired] += n * m
        q += m
        # Undesired sums: `copies` of each order-subset of the undesired files,
        # in combinations order.  File j of a subset takes counter counters[j]
        # + d*uses[j] + copies*(earlier subsets holding j) + copy at store d.
        subsets = np.array(list(combinations(undesired.tolist(), order)), dtype=np.int64)
        subsets = subsets.reshape(-1, order)  # (0, K) in round K
        copies = (n - 1) ** (order - 1)
        rows = np.arange(len(subsets))[:, None]
        held = np.zeros((len(subsets), k), dtype=np.int64)
        held[rows, subsets] = 1
        earlier = (held.cumsum(axis=0) - held)[rows, subsets]
        uses = copies * held.sum(axis=0)
        first = counters[subsets] + copies * earlier  # copy 0's at store 0
        fresh = (
            first[:, None] + stores[:, None, None, None] * uses[subsets][:, None]
            + np.arange(copies)[:, None]
        )
        pool = (subsets[:, None] * block + fresh).reshape(n, -1, order)
        pool_q = q + np.arange(pool.shape[1])
        terms[:order, :, q : q + len(pool_q)] = pool.transpose(2, 0, 1)
        counters += n * uses
        q += len(pool_q)

    if counters[desired] != block:
        raise ProtocolError(
            f"desired counter ended at {counters[desired]}, expected {block}"
        )
    if (counters[undesired] > block).any():
        raise ProtocolError("an undesired counter overran its block")

    direct, side = np.concatenate([a.reshape(2, -1) for a in links], axis=1)
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
    seed: int | Iterable[np.random.Generator],
    permute: bool = True,
) -> QueryPlan:
    """Build the query plan for one retrieval session: its permutations.

    ``num_symbols`` must be a multiple of ``num_replicas ** num_files``, the
    block size.  ``permute=False`` skips the per-file permutations and exists
    only as a negative control for privacy tests.

    Several sessions of one shape run as one plan when ``num_symbols`` is a
    sequence of integer lengths, one per segment.  An integer ``seed``,
    taken modulo ``2**64``, seeds a plan of one segment (a single length or
    a one-element list), which draws what ``rng.generator(seed)`` draws.
    Any other seed must be an iterable of numpy ``Generator`` objects, such
    as an ``islice`` of ``rng.generators``: segment ``i`` takes the next one
    as it permutes and draws from it what a plan of its own would, offset by
    its start, so the permutations are block-diagonal and its queries,
    decode sources and decoded symbols are the separate plan's, shifted;
    after the last segment the iterable must be empty.  ``permute=False``
    takes nothing from the seed.

    Every check raises ``ValueError``.  Before anything is drawn: the shape,
    the lengths (integers, non-negative, whole blocks) and the seed's form,
    an integer for one segment or else an iterable.  The segment loop only
    slices and permutes, taking at most one Generator per segment; an item
    that is not a Generator (so an integer list) has no ``permuted`` and is
    refused when its segment fails, and too few or too many Generators are
    refused after the loop.
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
        num_symbols = [num_symbols]
    lams = list(num_symbols)
    try:
        # Plain ints, so that numpy integers are checked like ints.
        lams = list(map(operator.index, lams))
    except TypeError:
        bad = _first_non_integer(lams)
        raise ValueError(f"symbol counts must be integers, got {bad!r}") from None
    block = n**k
    # Segments repeat their lengths, so each distinct length is checked once;
    # the first bad one in order is reported.
    if any(lam < 0 or lam % block for lam in set(lams)):
        lam = next(lam for lam in lams if lam < 0 or lam % block)
        if lam < 0:
            raise ValueError(f"symbol count must be non-negative, got {lam}")
        raise ValueError(
            f"symbol count {lam} is not a multiple of the block size "
            f"n**K = {n}**{k}"
        )
    try:
        seed = operator.index(seed)
    except TypeError:
        try:
            rngs = iter(seed)
        except TypeError:
            raise ValueError(
                f"a seed must be an integer or an iterable of numpy Generators, "
                f"got {seed!r}"
            ) from None
    else:
        if len(lams) != 1:
            raise ValueError(f"an integer seed seeds one segment, not {len(lams)}")
        rngs = generators([seed])
    starts = tuple(accumulate(lams, initial=0))
    perms = np.empty((k, starts[-1]), dtype=np.int64)
    perms[:] = np.arange(starts[-1])
    if permute:
        # Permuting a segment's rows in place draws exactly what ``k`` calls
        # of ``permutation(lam)`` would, already offset by the segment start.
        # Only a Generator has ``permuted``, so a wrong item fails the call
        # and is refused then; the counts are checked after the loop.
        bounds, rng = zip(starts, starts[1:]), None
        try:
            for rng in islice(rngs, len(lams)):
                start, end = next(bounds)
                seg = perms[:, start:end]
                rng.permuted(seg, axis=1, out=seg)
        except AttributeError:
            if isinstance(rng, np.random.Generator):
                raise
            raise ValueError(
                f"a seed iterable must yield numpy Generators, got {rng!r}"
            ) from None
        missing = sum(1 for _ in bounds)
        if missing:
            raise ValueError(
                f"{len(lams)} segment lengths but {len(lams) - missing} seed Generators"
            )
        if next(rngs, None) is not None:
            raise ValueError(f"{len(lams)} segment lengths but more seed Generators")
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
    cells = by_counter[:-1].reshape(k, block, blocks)
    # File by file, so no index array spans every file.  The permutations
    # were checked, so clipping changes no index.
    for j in range(k):
        np.take(symbols[j], where[j], out=cells[j], mode="clip")
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
