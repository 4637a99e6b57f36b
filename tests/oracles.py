"""Independent oracles shared by several test modules.

``tests`` is on pytest's ``pythonpath`` (pyproject.toml), so test modules
import this one as ``oracles`` under either import mode.
"""

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest

from decpir.analysis import harmonic_weight, uniform_profile
from decpir.errors import ProtocolError
from decpir.protocol import _block_template, _BlockTemplate


def padded_storage_bytes(realization) -> np.ndarray:
    """Storage bytes through one weighted sum over eight database rows per
    byte row, the rows past the last database zero.

    Reference for :func:`decpir.model._storage_bytes`, which weighs only the
    databases the realization has.
    """
    n, total = realization.num_dbs, realization.num_files * realization.file_len
    rows = max(1, -(-n // 8))
    bits = np.zeros((rows * 8, total), dtype=bool)
    bits[:n] = realization.cached.reshape(n, total)
    weights = (0x80 >> np.arange(8, dtype=np.uint8))[:, None]
    return (bits.reshape(rows, 8, total) * weights).sum(axis=1, dtype=np.uint8)


def converse_bound_per_slot(partition):
    """The realization bound through per-slot averages: ``(avg, weights, bound)``.

    ``avg[l-1]`` is the bit mass of storage sets of size ``l`` averaged over
    the ``K * C(N+1, l)`` (file, set) slots, ``weights[l-1]`` is
    ``harmonic_weight(l, K) = c(l) - 1`` and the bound is
    ``L + sum_l C(N+1, l) * weights[l-1] * avg[l-1]``, the form the
    expected bound takes.  Reference for
    :func:`decpir.analysis.converse_bound_realization`.
    """
    k, length, n = partition.num_files, partition.file_len, partition.num_dbs
    by_size = partition.bits_by_size()
    sizes = range(1, n + 2)
    avg = tuple(Fraction(by_size.get(l, 0), k * comb(n + 1, l)) for l in sizes)
    weights = tuple(harmonic_weight(l, k) for l in sizes)
    bound = length + sum(comb(n + 1, l) * w * x for l, w, x in zip(sizes, weights, avg))
    return avg, weights, bound


def converse_bound_k3n2(partition) -> Fraction:
    """The three-file / two-database bound written with fixed coefficients.

    Independent route used to cross-check
    :func:`decpir.analysis.converse_bound_realization`:
    ``L + 4/27 * sum_k H(W_k) + 11/108 * sum_i sum_k H(W_k | Z_i)
    + 17/54 * sum_i sum_k H(W_k | Z_everything_but_i)`` where, for uncoded
    caches, each conditional entropy is a count of uncached bits.
    """
    if partition.num_files != 3 or partition.num_dbs != 2:
        raise ValueError("this form is specific to K=3, N=2")
    length = partition.file_len
    sizes = partition.sizes
    held = np.zeros((len(sizes), 3), dtype=bool)
    held[np.repeat(np.arange(len(sizes)), sizes), partition.members] = True
    lengths = partition.lengths()

    def uncached_by(nodes: list[int]) -> int:
        # bits of all three files stored by no node in `nodes`
        return int(lengths[~held[:, nodes].any(axis=1)].sum())

    sum_h = 3 * length
    sum_single = sum(uncached_by([i]) for i in range(3))
    sum_pair = sum(uncached_by([j for j in range(3) if j != i]) for i in range(3))
    return (
        length
        + Fraction(4, 27) * sum_h
        + Fraction(11, 108) * sum_single
        + Fraction(17, 54) * sum_pair
    )


def segment(plan, i):
    """Segment ``i`` of ``plan`` as the plan of its own session, as generated alone."""
    a, b = plan.segment_starts[i : i + 2]
    perms, lam = plan.permutations[:, a:b] - a, b - a
    return replace(plan, num_symbols=lam, permutations=perms, segment_starts=(0, lam))


def query_starts(plan):
    """Each segment's first query number at every store, then the total."""
    return np.array(plan.segment_starts) // plan.block * plan.block_queries


def tiled_record(plan):
    """``files``, ``indices``, ``orders`` and ``sources`` by tiling the template.

    Each store's terms are read from the padded ``terms`` array in query
    order, the past-the-end row ``K * n**K`` masked out, and repeated over
    every block: counters offset by the block start and mapped through the
    permutations, so ``indices[d]`` holds store ``d``'s symbol indices.
    ``sources[c]`` is the ``(db, query, side db, side query)`` row decoding
    desired counter ``c`` (-1, -1: no side sum), read back from the answer
    rows ``direct``/``side`` that :func:`decpir.protocol.decode_desired`
    reads, query numbers offset by the queries of the blocks before.
    """
    n, block = plan.num_replicas, plan.block
    t = _block_template(n, plan.num_files, plan.desired)
    queries, blocks = t.terms.shape[2], plan.blocks
    terms = t.terms.transpose(1, 2, 0)  # [d, q, w]
    real = terms[0] != plan.num_files * block
    files, counters = np.divmod(terms[:, real], block)
    b = np.arange(blocks)[:, None]
    files = np.tile(files[0], blocks)
    counters = (counters[:, None, :] + b * block).reshape(n, -1)
    orders = np.tile(real.sum(axis=1), blocks)
    db, q = np.divmod(t.direct, queries)
    side_db, side_q = np.divmod(t.side, queries)
    linked = side_db < n  # the zero row ``n * queries`` marks a singleton
    columns = (
        db,
        q + b * queries,
        np.where(linked, side_db, -1),
        np.where(linked, side_q + b * queries, -1),
    )
    sources = np.stack(np.broadcast_arrays(*columns), axis=-1).reshape(-1, 4)
    return files, plan.permutations[files, counters], orders, sources


def store_view(plan, d):
    """Store ``d``'s queries as ``(files, indices, orders)`` flat term arrays.

    Query ``q`` covers the next ``orders[q]`` terms; the files and counts are
    the same at every store, the indices are store ``d``'s own.
    """
    files, indices, orders, _ = tiled_record(plan)
    return files, indices[d], orders


def xor_answers(plan, symbols):
    """Every store's answer bits, one query at a time: ``[[bit, ...], ...]``."""
    out = []
    for d in range(plan.num_replicas):
        files, indices, orders = (a.tolist() for a in store_view(plan, d))
        bits, end = [], 0
        for order in orders:
            bit = 0
            for f, i in zip(files[end : end + order], indices[end : end + order]):
                bit ^= int(symbols[f][i])
            bits.append(bit)
            end += order
        out.append(bits)
    return out


def loop_block_template(n: int, k: int, desired: int) -> _BlockTemplate:
    """The block template built one term at a time: the reference builder.

    Simulates the scheme's rounds with per-file counters, each store's pool
    of purely-undesired sums and a ``(block, 4)`` decode-source table, then
    scatters the rows into the padded ``terms``.  Reference for
    :func:`decpir.protocol._block_template`, which builds each round from
    closed-form counts.
    """
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


def assert_p_value_close(got: float, expected: float, rel: float) -> None:
    """Assert that a p-value is within ``rel`` of a reference value.

    Below 1e-290 a double nears the subnormal range, where it keeps few
    digits and ``chdtrc`` returns 0 for some tails, so there both must be.
    """
    if expected < 1e-290:
        assert got < 1e-290, (got, expected)
    else:
        assert got == pytest.approx(expected, rel=rel, abs=0)


# A descent stops after this many steps or at this projected-gradient norm.
_MAX_ITER = 100_000
_GRAD_TOL = 1e-10


@dataclass(frozen=True)
class BoundMinimization:
    """Outcome of :func:`minimize_expected_bound`.

    ``pg_norm_uniform`` is the projected-gradient norm at the uniform
    profile; a value near zero means uniform is stationary.
    ``restart_values`` holds each descent's final value, uniform start first.
    """

    best_value: float
    uniform_value: float
    pg_norm_uniform: float
    converged: bool
    restart_values: tuple[float, ...]


def project_capped_simplex(p: np.ndarray, budget: float) -> np.ndarray:
    """Euclidean projection onto ``{q in [0,1]^d : sum(q) <= budget}``.

    Clips to the box; if the clipped point still overshoots the budget,
    shifts by the scalar that lands the clipped sum on the budget face
    (solved by bisection to 1e-14).
    """
    q = np.clip(p, 0.0, 1.0)
    if q.sum() <= budget + 1e-12:
        return q
    lo, hi = 0.0, float(p.max())
    for _ in range(200):
        tau = 0.5 * (lo + hi)
        s = np.clip(p - tau, 0.0, 1.0).sum()
        if s > budget:
            lo = tau
        else:
            hi = tau
        if hi - lo < 1e-14:
            break
    return np.clip(p - hi, 0.0, 1.0)


def _objective_factory(num_files: int, num_dbs: int, file_len: int):
    k, n = num_files, num_dbs
    coeffs = [
        comb(n, l - 1) * float(harmonic_weight(l, k)) / k for l in range(1, n + 2)
    ]

    def f_grad(p: np.ndarray) -> tuple[float, np.ndarray]:
        value = 0.0
        grad = np.zeros_like(p)
        one_minus = 1.0 - p
        for l, c in enumerate(coeffs, start=1):
            a, b = l - 1, n + 1 - l
            pa = p**a
            qb = one_minus**b
            value += c * float((pa * qb).sum())
            if a > 0:
                grad += c * a * p ** (a - 1) * qb
            if b > 0:
                grad -= c * b * pa * one_minus ** (b - 1)
        return file_len + value, grad

    return f_grad


def _pg_norm(p, grad, budget):
    return float(np.linalg.norm(p - project_capped_simplex(p - grad, budget)))


def minimize_expected_bound(
    num_files: int,
    num_dbs: int,
    mu,
    file_len: int,
    restarts: int = 20,
    seed: int = 0,
) -> BoundMinimization:
    """Minimize the expected bound numerically over feasible marginal profiles.

    Projected gradient descent in floats with backtracking line search,
    restarted from the uniform profile and ``restarts`` random feasible
    points; restarts reduce by minimum value.  Non-convergence within the
    iteration cap is flagged, not raised; fewer than one file, a negative
    file length, database count or restart count raises ``ValueError``.
    Reference for :func:`decpir.analysis.uniform_optimality_certificate`:
    no descent may end below ``L * capacity_decentralized(K, N, mu)``.
    """
    uniform_profile(num_files, file_len, mu)  # refuses shapes with no profile
    if num_dbs < 0:
        raise ValueError(f"database count must be non-negative, got {num_dbs}")
    if restarts < 0:
        raise ValueError(f"restart count must be non-negative, got {restarts}")
    dim = num_files * file_len
    budget = float(mu) * dim
    f_grad = _objective_factory(num_files, num_dbs, file_len)
    rng = np.random.Generator(np.random.PCG64(seed))

    uniform = np.full(dim, float(mu))
    u_value, u_grad = f_grad(uniform)
    pg_uniform = _pg_norm(uniform, u_grad, budget)

    def descend(start: np.ndarray) -> tuple[float, bool]:
        p = project_capped_simplex(start, budget)
        value, grad = f_grad(p)
        for _ in range(_MAX_ITER):
            if _pg_norm(p, grad, budget) <= _GRAD_TOL:
                return value, True
            step = 1.0
            accepted = False
            while step > 1e-18:
                cand = project_capped_simplex(p - step * grad, budget)
                move = cand - p
                cand_value, cand_grad = f_grad(cand)
                # strict decrease: once the quadratic term underflows, an
                # unchanged value must not count as progress or the loop
                # micro-cycles until the iteration cap
                if cand_value < value - 1e-4 * float(np.dot(move, move)) / step:
                    accepted = True
                    break
                step *= 0.5
            if not accepted or float(np.abs(move).max()) <= 1e-13:
                # numerically stationary: no measurable progress possible
                return value, True
            p, value, grad = cand, cand_value, cand_grad
        return value, False

    starts = [uniform] + [rng.random(dim) for _ in range(restarts)]
    restart_values, converged = zip(*map(descend, starts))
    return BoundMinimization(
        best_value=min(restart_values),
        uniform_value=u_value,
        pg_norm_uniform=pg_uniform,
        converged=all(converged),
        restart_values=restart_values,
    )
