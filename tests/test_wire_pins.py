"""The wire text and decoded symbols of two fixed plans, and the statistics
of two privacy tests, pinned literally.

The transcripts are what a store receives, in generation order and sorted,
so any change to how a plan lays out its queries shows here first.  Answers
come from the per-query XOR oracle, so only decoding is the code under test.
The privacy tests' statistics and p-values are pinned by ``repr``, so a
change to how they are summed or evaluated shows in the last bit.
"""

import numpy as np
import pytest
from oracles import segment, xor_answers

from decpir.privacy import transcript_distribution_test
from decpir.protocol import decode_desired, generate_query_plan, plan_transcripts
from decpir.rng import generator, generators


def single_plan():
    return generate_query_plan(2, 2, 1, 8, seed=42)


def middle_segment():
    return segment(generate_query_plan(3, 2, 0, [9, 18, 9], generators([5, 6, 7])), 1)


PINS = [
    (
        single_plan,
        (
            "0:3\n1:0\n0:4 1:7\n0:6\n1:4\n0:1 1:3",
            "0:4\n1:2\n0:3 1:1\n0:1\n1:5\n0:6 1:6",
        ),
        (
            "0:1 1:3\n0:3\n0:4 1:7\n0:6\n1:0\n1:4",
            "0:1\n0:3 1:1\n0:4\n0:6 1:6\n1:2\n1:5",
        ),
        [[1, 0, 0, 1, 1, 0], [1, 0, 0, 0, 0, 0]],
        [0, 1, 0, 0, 1, 0, 1, 1],
    ),
    (
        middle_segment,
        (
            "0:2\n1:6\n0:1 1:11\n0:4 1:14\n0:9\n1:3\n0:0 1:0\n0:5 1:15",
            "0:16\n1:11\n0:13 1:6\n0:14 1:14\n0:11\n1:0\n0:12 1:3\n0:15 1:15",
            "0:10\n1:14\n0:8 1:6\n0:6 1:11\n0:3\n1:15\n0:7 1:3\n0:17 1:0",
        ),
        (
            "0:0 1:0\n0:1 1:11\n0:2\n0:4 1:14\n0:5 1:15\n0:9\n1:3\n1:6",
            "0:11\n0:12 1:3\n0:13 1:6\n0:14 1:14\n0:15 1:15\n0:16\n1:0\n1:11",
            "0:10\n0:17 1:0\n0:3\n0:6 1:11\n0:7 1:3\n0:8 1:6\n1:14\n1:15",
        ),
        [
            [1, 1, 1, 1, 0, 0, 1, 0],
            [1, 0, 1, 0, 0, 0, 0, 0],
            [1, 1, 1, 0, 1, 1, 0, 1],
        ],
        [1, 1, 1, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1],
    ),
]


@pytest.mark.parametrize("make, wire, sorted_wire, answers, decoded", PINS)
def test_plan_text_and_decoded_symbols_are_pinned(
    make, wire, sorted_wire, answers, decoded
):
    plan = make()
    assert plan_transcripts(plan) == wire
    assert plan_transcripts(plan, sort=True) == sorted_wire
    symbols = generator(plan.num_symbols).integers(
        0, 2, (plan.num_files, plan.num_symbols), dtype=np.uint8
    )
    assert xor_answers(plan, symbols) == answers
    got = decode_desired(plan, np.array(answers, dtype=np.uint8))
    assert got.tolist() == decoded == symbols[plan.desired].tolist()


PRIVACY_PINS = [
    # Sessions repeat transcripts at 4 bits, so bins hold unequal counts.
    (
        (2, 2, 4, 200, 1),
        [
            (0, 0, 1, "143.615873015873", 134, "0.26947789667934374"),
            (1, 0, 1, "140.6", 138, "0.4224579528560621"),
        ],
    ),
    # Every sorted transcript is distinct: each statistic is its bin count.
    (
        (3, 3, 54, 50, 0),
        [
            (store, a, b, "100.0", 99, "0.45295851132093146")
            for a, b in [(0, 1), (0, 2), (1, 2)]
            for store in range(3)
        ],
    ),
]


@pytest.mark.parametrize("args, pinned", PRIVACY_PINS)
def test_privacy_statistics_are_pinned(args, pinned):
    result = transcript_distribution_test(*args)
    assert result.ok
    got = [
        (c.store, c.desired_a, c.desired_b, repr(c.statistic), c.dof, repr(c.p_value))
        for c in result.comparisons
    ]
    assert got == pinned
