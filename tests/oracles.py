"""Independent oracles shared by several test modules.

``tests`` is on pytest's ``pythonpath`` (pyproject.toml), so test modules
import this one as ``oracles`` under either import mode.
"""

from fractions import Fraction

import numpy as np


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


def store_view(plan, d):
    """Store ``d``'s queries as ``(files, indices, orders)`` flat term arrays.

    Query ``q`` covers the next ``orders[q]`` terms; the files and counts are
    the same at every store, the indices are store ``d``'s own.
    """
    return plan.files, plan.indices[d], plan.orders


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
