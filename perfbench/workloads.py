"""The benchmark's workloads: seeded inputs, one op each, and output checks.

Every op is a pure function of (workload, seed, op index), so two runs of the
same seed must produce identical digests.  Ops call decpir through module
attributes (``retrieval.simulate_trials``, not a name bound at import) so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional


@dataclass(frozen=True)
class OpOutput:
    digest_text: str  # the seeded outputs the golden digest covers
    bits: float  # work for downloaded_bits_per_s
    ok: bool  # the op's own output check
    downloaded: int = 0  # retrieval layer: charged bits, padding included
    ideal: Fraction = Fraction(0)  # retrieval layer: bits without padding


@dataclass(frozen=True)
class Workload:
    name: str
    make: Callable[[int], Callable[[int], OpOutput]]  # seed -> op(index)
    count_ops: int  # leading ops whose exact counts are reported
    check_run: Optional[Callable[[list], list]] = None  # outputs -> failures
    control: Optional[Callable[[int], bool]] = None  # seed -> refused as it must


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def op_seed(name: str, seed: int, index: int) -> int:
    data = hashlib.sha256(f"{name}:{seed}:{index}".encode()).digest()
    return int.from_bytes(data[:8], "little") >> 1


# ---------------------------------------------------------------------------
# Simulate workloads: one simulate_trials call per op.
# ---------------------------------------------------------------------------

# A headline op is K trials, one per desired file: about two of every three
# headline trials trigger a full garbage collection costing ~40 ms, so
# single-trial times are bimodal and their median jumps between the modes
# from run to run.  Many-sets trials show no such split.
HEADLINE = dict(num_files=3, num_dbs=2, mu=Fraction(1, 3), file_len=9000, trials=3)
MANY_SETS = dict(num_files=3, num_dbs=20, mu=Fraction(1, 20), file_len=600, trials=1)
HEADLINE_FORMULA = Fraction(184, 81)
HEADLINE_TOLERANCE = 0.02


def _simulate_maker(name: str, config: dict):
    def make(seed: int):
        from decpir import placement, retrieval

        policy = placement.UniformRandomPlacement(config["mu"])

        def op(index: int) -> OpOutput:
            result = retrieval.simulate_trials(
                config["num_files"],
                config["file_len"],
                config["num_dbs"],
                config["mu"],
                policy,
                config["trials"],
                op_seed(name, seed, index),
            )
            rows = result.rows
            total = sum(r.total for r in rows)
            return OpOutput(
                ";".join(f"{r.desired},{r.total},{r.ideal},{r.converse_bound}" for r in rows),
                total,
                all(r.total >= r.converse_bound for r in rows),
                total,
                sum((r.ideal for r in rows), Fraction(0)),
            )

        return op

    return make


def _check_headline(outputs: list) -> list:
    if not outputs:
        return []
    trials = len(outputs) * HEADLINE["trials"]
    mean = Fraction(sum(o.downloaded for o in outputs), trials * HEADLINE["file_len"])
    gap = abs(float(mean / HEADLINE_FORMULA) - 1)
    if gap > HEADLINE_TOLERANCE:
        return [f"mean D/L {float(mean):.6f} is {gap:.2%} off 184/81"]
    return []


# ---------------------------------------------------------------------------
# Privacy: one chi-square transcript test per op.
# ---------------------------------------------------------------------------

# K=3, n=3 over two 27-symbol blocks: the largest instance the CLI accepts.
PRIVACY = dict(num_files=3, num_replicas=3, num_symbols=54, sessions=50)


def _privacy_digest_text(result) -> str:
    parts = [f"structural_ok={result.structural_ok}"]
    for c in result.comparisons:
        parts.append(
            f"{c.store},{c.desired_a},{c.desired_b},{c.statistic!r},{c.dof},{c.p_value:.10g}"
        )
    return ";".join(parts)


def _privacy_make(seed: int):
    from decpir import privacy, protocol

    k, n, lam = PRIVACY["num_files"], PRIVACY["num_replicas"], PRIVACY["num_symbols"]
    # Each sum query is answered with one bit, so a session would download
    # as many bits as its plan has queries; the count does not depend on the
    # seed or the desired file.
    bits_per_session = protocol.generate_query_plan(n, k, 0, lam, 0).total_queries
    bits = bits_per_session * PRIVACY["sessions"] * k

    def op(index: int) -> OpOutput:
        result = privacy.transcript_distribution_test(
            k, n, lam, PRIVACY["sessions"], op_seed("privacy", seed, index)
        )
        return OpOutput(_privacy_digest_text(result), bits, result.ok)

    return op


def privacy_control(seed: int) -> bool:
    """Run the no-permutation negative control; True when it fails as it must."""
    from decpir import privacy

    result = privacy.transcript_distribution_test(
        PRIVACY["num_files"],
        PRIVACY["num_replicas"],
        PRIVACY["num_symbols"],
        PRIVACY["sessions"],
        op_seed("privacy-control", seed, 0),
        permute=False,
    )
    return not result.ok


# ---------------------------------------------------------------------------
# Analysis: one round of the paper's figure grid per op.
# ---------------------------------------------------------------------------

ANALYSIS = dict(num_files=10, max_dbs=30, mu_steps=20, file_len=7)
ROUNDS = ANALYSIS["mu_steps"] + 1  # per pass over the grid
ROUND_SIZE = ANALYSIS["max_dbs"] + 1  # points per round, one per N


def analysis_pass(seed: int, index: int) -> list:
    """The grid points of pass ``index``, as 21 rounds of 31 points.

    Round r pairs N with mu index (N + r) mod 21, so over a pass every
    (N, mu) point occurs once, and every round holds each N once.  A point
    costs 0.5 to 10 ms, mostly by N, so rounds all cost about the same.
    One op is one round: with one op per point the tail percentile was the
    11th slowest of ~6000 points, and its quartile spread over ten runs
    reached 0.24 of its median.
    """
    rng = random.Random(f"analysis:{seed}:{index}")
    points = []
    for r in rng.sample(range(ROUNDS), ROUNDS):
        dbs = rng.sample(range(ROUND_SIZE), ROUND_SIZE)
        points.extend((n, Fraction((n + r) % ROUNDS, ANALYSIS["mu_steps"])) for n in dbs)
    return points


def _analysis_make(seed: int):
    from decpir import analysis

    k, length = ANALYSIS["num_files"], ANALYSIS["file_len"]
    passes: dict = {}

    def point(n: int, mu: Fraction):
        formula = analysis.capacity_decentralized(k, n, mu)
        # The envelope needs at least one database.
        envelope = analysis.centralized_envelope(k, n).evaluate(mu) if n else None
        bound = analysis.expected_converse_bound(
            analysis.uniform_profile(k, length, mu), n, mu
        )
        return f"{n},{mu},{formula},{envelope},{bound}", length * formula, bound

    def op(index: int) -> OpOutput:
        number, offset = divmod(index, ROUNDS)
        if number not in passes:
            passes.clear()
            passes[number] = analysis_pass(seed, number)
        start = offset * ROUND_SIZE
        results = [point(n, mu) for n, mu in passes[number][start : start + ROUND_SIZE]]
        return OpOutput(
            ";".join(text for text, _, _ in results),
            float(sum(expected for _, expected, _ in results)),
            all(bound == expected for _, expected, bound in results),
        )

    return op


WORKLOADS = {
    w.name: w
    for w in (
        Workload("headline", _simulate_maker("headline", HEADLINE), 2, _check_headline),
        Workload("many-sets", _simulate_maker("many-sets", MANY_SETS), 4),
        Workload("privacy", _privacy_make, 4, control=privacy_control),
        Workload("analysis", _analysis_make, 2),
    )
}
