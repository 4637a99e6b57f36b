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

A plan is integer arrays only.  Every store receives queries of the same
shapes, so one flat pair of term files and per-query term counts serves all
stores; only the symbol indices differ, one ``(n, terms)`` row per store.  The
decode sources are one ``(lam, 4)`` table.  Every store of a session holds the
same ``(K, lam)`` symbol matrix, so one gather and one XOR reduction answer
all stores at once, as the ``(n, queries)`` matrix that decoding reads.

The block structure depends on ``(n, K, desired)`` alone, so the rounds
above run once per shape over one block of counters and the result is cached
as a read-only template: the shared term files and term counts, per store
its term counters, plus a table of where each desired counter is decoded
from.  A plan for ``lam`` symbols tiles the template over ``lam / n**K``
blocks, offsetting counters by the block start, and maps each (file,
counter) term to its symbol index through the plan's ``(K, lam)``
permutation array.  Several sessions of one shape can share a plan as
consecutive segments: each segment draws its own permutations from its own
seed, offset by its start, so the permutation array is block-diagonal and
each segment's slice of the plan is that session's plan, shifted;
:meth:`QueryPlan.segment` cuts it back out.  The segments' generators come
from :func:`decpir.rng.generators`, which seeds many at once without
building one generator per segment.

Query symbol indices refer to positions in each store's symbol array after
the plan's permutation has been applied at construction time; stores never
need the permutations to answer.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ProtocolError
from .rng import generators


@dataclass(frozen=True)
class QueryPlan:
    """A full retrieval session: every store's queries plus decoding state.

    Query ``q`` covers the next ``orders[q]`` terms, at every store: ``files``
    gives each term's file, files ascending within a query, and
    ``indices[d]`` store ``d``'s symbol index of each term.
    ``sources[c]`` is the ``(db, query index, side db, side query index)``
    row telling how the desired file's symbol with counter ``c`` is
    recovered: the query carrying it and, for sums of order >= 2, the reused
    undesired sum whose answer bit cancels the interference (-1, -1 for
    singletons).  ``permutations[j, c]`` is the symbol array position that
    counter ``c`` of file ``j`` was mapped to.  Segment ``i`` of the plan
    holds symbols ``segment_starts[i]`` to ``segment_starts[i + 1]``.
    """

    num_replicas: int
    num_files: int
    desired: int
    num_symbols: int
    permutations: np.ndarray
    files: np.ndarray
    indices: np.ndarray
    orders: np.ndarray
    sources: np.ndarray
    segment_starts: tuple[int, ...]

    @property
    def total_queries(self) -> int:
        return self.num_replicas * len(self.orders)

    def query_starts(self) -> np.ndarray:
        """Each segment's first query number at every store, then the total."""
        t = _block_template(self.num_replicas, self.num_files, self.desired)
        return np.array(self.segment_starts) // len(t.sources) * len(t.orders)

    def segment(self, i: int) -> QueryPlan:
        """Segment ``i`` as the plan of its own session, as generated alone.

        Every block (one ``sources`` row per symbol) carries the same queries
        and terms, so the segment's queries and terms start at its first
        block times theirs.
        """
        shape = (self.num_replicas, self.num_files, self.desired)
        t = _block_template(*shape)
        a, b = self.segment_starts[i : i + 2]
        first, end = a // len(t.sources), b // len(t.sources)
        qa, qb = first * len(t.orders), end * len(t.orders)
        ta, tb = first * len(t.files), end * len(t.files)
        sources = self.sources[a:b] - (0, qa, 0, qa)
        sources[sources[:, 2] < 0, 3] = -1
        perms = self.permutations[:, a:b] - a
        return QueryPlan(
            *shape, b - a, perms, self.files[ta:tb], self.indices[:, ta:tb] - a,
            self.orders[qa:qb], sources, (0, b - a),
        )


class _BlockTemplate(NamedTuple):
    """The plan for one block of counters, ``n**K`` per file.

    Every store gets the same query shapes, so ``files`` and ``orders`` are
    shared; ``counters[d]`` holds store ``d``'s term counters.  ``steps`` is
    what each further block adds to ``sources``: the per-store query count
    in the query-index columns (the side one only where a side sum exists).
    """

    files: np.ndarray
    counters: np.ndarray
    orders: np.ndarray
    sources: np.ndarray
    steps: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=256)
def _block_template(n: int, k: int, desired: int) -> _BlockTemplate:
    block = n**k
    # Every store gets the same query shapes: store 0 records them.
    files: list[int] = []
    orders: list[int] = []
    counters_of: list[list[int]] = [[] for _ in range(n)]
    queries = [0] * n
    sources = np.full((block, 4), -1, dtype=np.int64)
    counters = [0] * k
    undesired_files = [j for j in range(k) if j != desired]

    def fresh(j: int) -> tuple[int, int]:
        c = counters[j]
        counters[j] += 1
        return (j, c)

    def add(d: int, terms) -> int:
        if d == 0:
            files.extend(f for f, _ in terms)
            orders.append(len(terms))
        counters_of[d].extend(c for _, c in terms)
        queries[d] += 1
        return queries[d] - 1

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

    # Rounds 2..K, none at n = 1: (n-1)**(order-1) = 0 sums per subset.
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

    steps = np.zeros_like(sources)
    steps[:, 1] = len(orders)
    steps[:, 3] = np.where(sources[:, 2] >= 0, len(orders), 0)
    return _BlockTemplate(
        *(
            _read_only(np.asarray(a, dtype=np.int64))
            for a in (files, counters_of, orders, sources, steps)
        )
    )


def generate_query_plan(
    num_replicas: int,
    num_files: int,
    desired: int,
    num_symbols: int | Sequence[int],
    seed: int | Sequence[int],
    permute: bool = True,
) -> QueryPlan:
    """Build the query plan for one retrieval session.

    ``num_symbols`` must be a multiple of ``num_replicas ** num_files``; the
    plan then consists of that many independent blocks over consecutive
    counter ranges.  ``permute=False`` skips the per-file permutations and
    exists only as a negative control for privacy tests.

    Several sessions of the same shape run as one plan when ``num_symbols``
    and ``seed`` are equal-length sequences, one entry per segment.  Segment
    ``i`` draws its permutations from ``generators(seed)``'s ``i``-th
    generator, which draws exactly what ``generator(seed[i])`` would for a
    plan of its own, offset by the segment's start, so the permutations are
    block-diagonal: its queries, decode sources and decoded symbols are
    those of the separate plan with symbol indices shifted by the start and
    query numbers by the queries of the segments before it.  The plan's
    ``num_symbols`` is then the sum of the segment lengths.

    Seeds are integers, taken modulo ``2**64``; a single ``num_symbols``
    takes a single seed.  Any other seed type, or a mismatch between one
    length and a sequence of seeds or the reverse, raises ``ValueError``.
    """
    n, k = num_replicas, num_files
    if n < 1:
        raise ValueError(f"need at least one replica, got {n}")
    if k < 1:
        raise ValueError(f"need at least one file, got {k}")
    if not 0 <= desired < k:
        raise ValueError(f"desired file {desired} out of range for K={k}")
    if isinstance(num_symbols, (int, np.integer)):
        lams, seeds = [int(num_symbols)], [seed]
    else:
        lams = [int(lam) for lam in num_symbols]
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
        # Plain ints, so that numpy integers are masked like ints.
        seeds = list(map(operator.index, seeds))
    except TypeError:
        bad = next(s for s in seeds if not hasattr(type(s), "__index__"))
        raise ValueError(f"seeds must be integers, got {bad!r}") from None
    block = n**k
    for lam in lams:
        if lam < 0:
            raise ValueError(f"symbol count must be non-negative, got {lam}")
        if lam % block != 0:
            raise ValueError(
                f"symbol count {lam} is not a multiple of the "
                f"{block}-symbol block size for n={n}, K={k}"
            )
    starts = tuple(accumulate(lams, initial=0))
    total = starts[-1]

    perms = np.tile(np.arange(total), (k, 1))
    if permute:
        # Permuting a segment's rows in place draws exactly what ``k`` calls
        # of ``permutation(lam)`` would, already offset by the segment start.
        for rng, start, end in zip(generators(seeds), starts, starts[1:]):
            seg = perms[:, start:end]
            rng.permuted(seg, axis=1, out=seg)

    t = _block_template(n, k, desired)
    blocks = total // block
    b = np.arange(blocks)[:, None, None]
    files = np.tile(t.files, blocks)
    counters = (t.counters[:, None, :] + b[:, 0] * block).reshape(n, -1)
    indices = perms[files, counters]
    orders = np.tile(t.orders, blocks)
    sources = (t.sources + b * t.steps).reshape(-1, 4)
    return QueryPlan(
        n, k, desired, total, perms, files, indices, orders, sources, starts
    )


def answer_queries(plan: QueryPlan, symbols: np.ndarray) -> np.ndarray:
    """Every store's answer string: row ``d`` holds store ``d``'s GF(2) sums.

    ``symbols`` is the ``(K, lam)`` symbol matrix each store of the plan
    holds, zero padding included, row ``j`` holding file ``j``.  Returns the
    ``(n, queries)`` answer matrix.  Raises :class:`ProtocolError` on a
    malformed plan (a query without terms, term counts that do not add up to
    the term files, or an index matrix that is not one row of them per
    store) and on a reference to a symbol the stores cannot resolve.
    """
    symbols = np.asarray(symbols, dtype=np.uint8)
    num_files, lam = symbols.shape
    files, idx, orders = plan.files, plan.indices, plan.orders
    ends = np.cumsum(orders)
    terms = int(ends[-1]) if len(ends) else 0
    shaped = terms == len(files) and idx.shape == (plan.num_replicas, terms)
    if orders.min(initial=1) < 1 or not shaped:
        raise ProtocolError(
            "malformed query plan: every query needs a term, the term counts "
            "must add up to the term files and every store needs one index each"
        )
    if not terms:
        return np.zeros((plan.num_replicas, 0), dtype=np.uint8)
    if files.min() < 0 or files.max() >= num_files:
        raise ProtocolError("query references an unknown file")
    if idx.min() < 0 or idx.max() >= lam:
        raise ProtocolError("query references a symbol outside the stored range")

    values = symbols.reshape(-1)[files * lam + idx]
    return np.bitwise_xor.reduceat(values, ends - orders, axis=1)


def decode_desired(plan: QueryPlan, answers: np.ndarray) -> np.ndarray:
    """Recover the desired file's ``num_symbols`` symbols in original order.

    ``answers`` is the ``(n, queries)`` matrix :func:`answer_queries`
    returns.  Singleton answers are read directly; each desired sum is
    decoded by XORing in the linked undesired sum's downloaded answer bit.
    Undesired sums are only ever reused wholesale, never decoded.
    """
    answers = np.asarray(answers, dtype=np.uint8)
    if answers.shape != (plan.num_replicas, len(plan.orders)):
        raise ProtocolError(
            f"expected a {plan.num_replicas} x {len(plan.orders)} answer matrix, "
            f"got shape {answers.shape}"
        )
    if plan.num_symbols == 0:
        return np.zeros(0, dtype=np.uint8)

    src = plan.sources
    bits = answers[src[:, 0], src[:, 1]]
    linked = src[:, 2] >= 0
    bits[linked] ^= answers[src[linked, 2], src[linked, 3]]

    out = np.empty(plan.num_symbols, dtype=np.uint8)
    out[plan.permutations[plan.desired]] = bits
    return out


def query_codes(files, orders, digits, base: int, num_files: int) -> np.ndarray:
    """Each query of a flat term record as one row of exact ``int64`` words.

    Term ``t`` puts ``digits[..., t]`` (1 to ``base - 1``) at its file's
    place, absent files 0; a word holds as many places as stay below
    ``2**63``, so no code wraps.  Shape: ``digits.shape[:-1] + (queries, words)``.
    """
    per_word = min(63 // (base - 1).bit_length(), num_files)
    words = -(-num_files // per_word)
    rows = np.zeros(np.shape(digits)[:-1] + (len(orders), words * per_word), np.int64)
    rows[..., np.repeat(np.arange(len(orders)), orders), files] = digits
    places = base ** np.arange(per_word, dtype=np.int64)
    return rows.reshape(rows.shape[:-1] + (words, per_word)) @ places


def unique_rows(rows: np.ndarray, **kwargs):
    """``np.unique`` over a 2-D array's rows as raw bytes: like ``axis=0``, cheaper."""
    rows = np.ascontiguousarray(rows)
    return np.unique(rows.view(f"V{rows.shape[1] * rows.itemsize}")[:, 0], **kwargs)


def structural_privacy_histogram(plan: QueryPlan) -> dict[frozenset, int]:
    """Counts of sum queries keyed by their exact file set.

    The histogram is the store-visible request "shape"; every store of the
    plan sees the same one, and by construction it does not depend on which
    file is desired.
    """
    files, orders = plan.files, plan.orders
    codes = query_codes(files, orders, 1, 2, plan.num_files)
    _, first, counts = unique_rows(codes, return_index=True, return_counts=True)
    ends, sizes = np.cumsum(orders)[first].tolist(), orders[first].tolist()
    files, counts = files.tolist(), counts.tolist()
    return {frozenset(files[e - o : e]): c for e, o, c in zip(ends, sizes, counts)}


def serialize_transcript(plan: QueryPlan, store: int, sort: bool = False) -> str:
    """Canonical text form of store ``store``'s queries, one query per line.

    Terms are ``file:index`` separated by spaces.  Queries appear in
    generation order (the wire/golden-file format); with ``sort=True`` the
    lines are sorted, which drops the ordering and is the store-visible view
    used for distribution testing.
    """
    files, indices = plan.files.tolist(), plan.indices[store].tolist()
    terms = [f"{f}:{i}" for f, i in zip(files, indices)]
    bounds = list(accumulate(plan.orders.tolist(), initial=0))
    lines = [" ".join(terms[a:b]) for a, b in zip(bounds, bounds[1:])]
    return "\n".join(sorted(lines) if sort else lines)


def plan_transcripts(plan: QueryPlan, sort: bool = False) -> tuple[str, ...]:
    return tuple(
        serialize_transcript(plan, d, sort=sort) for d in range(plan.num_replicas)
    )
