#!/usr/bin/env python3
"""decpir benchmark: one workload per run, closed loop, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload headline --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` spends
half of ``--seconds`` untraced and half with boundary spans installed, and
reports the per-layer metrics.  The last stdout line is the result object;
the line before it holds the environment, the tail percentile, the checks
and any absent layer.  Without ``src/decpir`` below the working directory
the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Before numpy is imported: no BLAS or OpenMP worker threads.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, perf_counter_ns  # noqa: E402
from typing import Optional  # noqa: E402

from calibrate import REFERENCE_NS, kernel_ns  # noqa: E402
from spans import BOUNDARIES, Tracer  # noqa: E402
from workloads import WORKLOADS, OpOutput, digest  # noqa: E402

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 3  # fresh processes per run; setup_s is their median
MIN_OPS = 11  # so the tail has ten samples above it even on a short run
CALIBRATE_EVERY_NS = 100_000_000  # op time between two calibration kernels
CALL_COUNTS = (
    "protocol.generate_query_plan",
    "protocol.answer_queries",
    "analysis.capacity_classical",
)


@dataclass
class OpRecord:
    index: int
    ns: int
    output: Optional[OpOutput]
    error: Optional[str]
    scale: float = 1.0  # REFERENCE_NS / kernel time around this op

    @property
    def ok(self) -> bool:
        return self.output is not None and self.output.ok

    @property
    def ref_ns(self) -> float:
        return self.ns * self.scale


def run_loop(op, seconds: float, min_ops: int, tracer: Optional[Tracer] = None):
    """Closed loop: each op starts when the previous one ends.

    The calibration kernel runs between groups of at least
    CALIBRATE_EVERY_NS of op time, outside the op's own timing.
    """
    records, groups, group, group_ns = [], [], [], 0
    kernels = [kernel_ns()]
    deadline = perf_counter_ns() + int(seconds * 1e9)
    index = 0
    while index < min_ops or perf_counter_ns() < deadline:
        if tracer is not None:
            tracer.op = index
        start = perf_counter_ns()
        try:
            output, error = op(index), None
        except Exception as exc:  # a failing op is counted; the run goes on
            output, error = None, f"op {index}: {type(exc).__name__}: {exc}"
        record = OpRecord(index, perf_counter_ns() - start, output, error)
        records.append(record)
        group.append(record)
        group_ns += record.ns
        if group_ns >= CALIBRATE_EVERY_NS:
            kernels.append(kernel_ns())
            groups.append(group)
            group, group_ns = [], 0
        index += 1
    if group:
        kernels.append(kernel_ns())
        groups.append(group)
    # Group g lies between kernels g and g + 1.  The median of the six
    # readings nearest to it ignores a reading lengthened by preemption and
    # still follows a drift of the host's speed that lasts a second or more.
    for g, members in enumerate(groups):
        scale = REFERENCE_NS / statistics.median(kernels[max(0, g - 2) : g + 4])
        for record in members:
            record.scale = scale
    return records


def tail(values):
    """The highest percentile with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def op_bits(record: OpRecord) -> float:
    return record.output.bits if record.output is not None else 0.0


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARIABLES},
    }


def exact_counts(tracer: Tracer, times: dict, records, ops: range) -> dict:
    """Counts read from return values over a fixed set of ops, per op."""
    counts = Counter()
    for i in ops:
        counts.update(tracer.counts.get(i, {}))
    plans = sum(times.get(i, {}).get("protocol.generate_query_plan.calls", 0) for i in ops)
    outputs = [records[i].output for i in ops if records[i].output is not None]
    downloaded = sum(o.downloaded for o in outputs)
    ideal = sum((o.ideal for o in outputs), Fraction(0))
    n = len(ops)
    return {
        "protocol.queries": counts["protocol.queries"] / n,
        "protocol.plan_shape_repeat_share": (
            counts["protocol.plan_shape_repeats"] / plans if plans else 0.0
        ),
        "model.storage_sets": counts["model.storage_sets"] / n,
        "retrieval.downloaded_bits": downloaded / n,
        "retrieval.useful_bit_ratio": float(ideal / downloaded) if downloaded else 0.0,
    }


class Ledger:
    """Attempted and failed ops, with the reason for each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, attempted: int, failed: int = 0, message: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and message:
            self.messages.append(message)

    def records(self, label: str, records, workload) -> None:
        for record in records:
            if record.error is not None:
                self.add(1, 1, f"{label}: {record.error}")
            elif not record.ok:
                self.add(1, 1, f"{label}: op {record.index} failed its output check")
            else:
                self.add(1)
        if workload.check_run is not None:
            outputs = [r.output for r in records if r.output is not None]
            for message in workload.check_run(outputs):
                # A run-level check failing marks every op it covered.
                self.add(0, len(outputs), f"{label}: {message}")


def reference_outputs(workload, reference: dict):
    op = workload.make(reference["seed"])
    return [op(i) for i in range(reference["ops"])]


def check_reference(workload, ledger: Ledger) -> None:
    """Compare the reference ops' digest with the one stored in digests.json."""
    reference = json.loads(DIGESTS.read_text())[workload.name]
    try:
        outputs = reference_outputs(workload, reference)
    except Exception as exc:  # counted as failed; the run goes on
        ledger.add(reference["ops"], reference["ops"], f"reference: {exc!r}")
        return
    got = digest(o.digest_text for o in outputs)
    if got != reference["digest"]:
        ledger.add(
            reference["ops"],
            reference["ops"],
            f"reference digest {got} != stored {reference['digest']}",
        )
    else:
        ledger.add(reference["ops"])


def run_probe(args, trace: int):
    """Fresh process: import decpir, build the inputs, run op 0."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--trace",
        str(trace),
        "--probe",
    ]
    start = perf_counter()
    try:
        proc = subprocess.run(command, capture_output=True, text=True, timeout=120)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        return perf_counter() - start, None, ["probe timed out"]
    elapsed = perf_counter() - start
    if proc.returncode != 0:
        return elapsed, None, proc.stderr.strip().splitlines()[-1:]
    return elapsed, json.loads(proc.stdout.strip().splitlines()[-1]), None


def check_probe(label, probe, records, counts, ledger: Ledger) -> None:
    _, result, error = probe
    if result is None:
        ledger.add(1, 1, f"{label}: {error}")
        return
    first = records[0].output
    if first is None or result["digest"] != digest([first.digest_text]):
        ledger.add(1, 1, f"{label}: op 0 digest differs from this process")
    elif counts is not None and result["counts"] != counts:
        ledger.add(1, 1, f"{label}: op 0 counts {result['counts']} != {counts}")
    else:
        ledger.add(1)


def probe_main(workload, args) -> int:
    op = workload.make(args.seed)
    counts = None
    if args.trace:
        with Tracer() as tracer:
            tracer.op = 0
            records = [OpRecord(0, 0, op(0), None)]
        counts = exact_counts(tracer, tracer.self_times(), records, range(1))
    else:
        records = [OpRecord(0, 0, op(0), None)]
    print(json.dumps({"digest": digest([records[0].output.digest_text]), "counts": counts}))
    return 0


def timing_metrics(records, time_of, unit: str) -> dict:
    durations = [time_of(r) / 1e6 for r in records]
    seconds = sum(durations) / 1e3
    return {
        "ops_per_s": (len(records) / seconds, f"1/{unit}s"),
        "op_ms.p50": (statistics.median(durations), f"{unit}ms"),
        "op_ms.tail": (tail(durations)[0], f"{unit}ms"),
        "downloaded_bits_per_s": (sum(map(op_bits, records)) / seconds, f"bit/{unit}s"),
    }


def end_to_end_metrics(records, setup_s: float):
    metrics = timing_metrics(records, lambda r: r.ref_ns, "ref_")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    wall = {name: value for name, (value, _) in timing_metrics(records, lambda r: r.ns, "").items()}
    detail = {
        "tail": {"percentile": tail([r.ns for r in records])[1], "samples": len(records)},
        "wall": wall,
        "kernel_ms.p50": REFERENCE_NS / statistics.median(r.scale for r in records) / 1e6,
    }
    return metrics, detail


def per_layer_metrics(tracer: Tracer, plain, traced, workload):
    times = tracer.self_times()
    total = Counter()
    for op, per_op in times.items():
        scale = traced[op].scale
        total.update({k: v * scale if k.endswith(".ns") else v for k, v in per_op.items()})
    n = len(traced)
    metrics = {}
    for name in BOUNDARIES:
        metrics[name + ".ms"] = (total[name + ".ns"] / n / 1e6, "ref_ms")
        if name in CALL_COUNTS:
            metrics[name + ".calls"] = (total[name + ".calls"] / n, "count")
    counts = exact_counts(tracer, times, traced, range(workload.count_ops))
    units = {"protocol.queries": "count", "model.storage_sets": "count",
             "retrieval.downloaded_bits": "bit"}
    for name, value in counts.items():
        metrics[name] = (value, units.get(name, "ratio"))
    traced_ns = sum(r.ref_ns for r in traced)
    plain_rate = len(plain) / sum(r.ref_ns for r in plain)
    metrics["trace.overhead_share"] = (1 - (n / traced_ns) / plain_rate, "ratio")
    metrics["trace.op.ms"] = (traced_ns / n / 1e6, "ref_ms")
    self_sum = sum(v for k, v in total.items() if k.endswith(".ns"))
    metrics["trace.self_sum.ms"] = (self_sum / n / 1e6, "ref_ms")
    metrics["trace.calls"] = (
        sum(v for k, v in total.items() if k.endswith(".calls")) / n,
        "count",
    )
    return metrics, exact_counts(tracer, times, traced, range(1))


def run_all(args) -> int:
    """Run every workload in its own process and print each metric as a row."""
    correct = True
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
        command += ["--trace", str(args.trace)]
        proc = subprocess.run(command, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and result["correct"]
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, value in result["metrics"].items():
            print(f"  {metric:42s} {value['value']:>16.6g} {value['unit']}")
    return 0 if correct else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or 'all' to run each in turn and print a table",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument(
        "--reference",
        action="store_true",
        help="print the reference digest of the workload and exit",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = Path.cwd() / "src"
    if not (source / "decpir" / "__init__.py").is_file():
        print(
            f"perfbench: no decpir package under {source}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(source))
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]
    if args.probe:
        return probe_main(workload, args)
    if args.reference:
        reference = json.loads(DIGESTS.read_text())[workload.name]
        outputs = reference_outputs(workload, reference)
        print(json.dumps({workload.name: dict(reference, digest=digest(o.digest_text for o in outputs))}))
        return 0

    ledger = Ledger()
    probes = [run_probe(args, 0) for _ in range(SETUP_PROBES)] if not args.trace else []
    traced_probe = run_probe(args, 1) if args.trace else None
    op = workload.make(args.seed)
    check_reference(workload, ledger)  # also warms caches and lazy imports
    if workload.control is not None:
        try:
            refused = workload.control(args.seed)
        except Exception as exc:  # counted as failed; the run goes on
            refused, message = False, f"control: {exc!r}"
        else:
            message = "negative control passed; it must fail"
        ledger.add(1, 0 if refused else 1, message)

    detail = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    if not args.trace:
        records = run_loop(op, args.seconds, MIN_OPS)
        ledger.records("run", records, workload)
        for i, probe in enumerate(probes):
            check_probe(f"setup probe {i}", probe, records, None, ledger)
        metrics, extra = end_to_end_metrics(records, statistics.median(p[0] for p in probes))
        detail.update(extra, setup_probe_s=[p[0] for p in probes], ops=len(records))
        absent = []
    else:
        plain = run_loop(op, args.seconds / 2, MIN_OPS)
        with Tracer() as tracer:
            traced = run_loop(op, args.seconds / 2, max(MIN_OPS, workload.count_ops), tracer)
        ledger.records("untraced", plain, workload)
        ledger.records("traced", traced, workload)
        for a, b in zip(plain, traced):
            if a.output is not None and b.output is not None:
                if a.output.digest_text != b.output.digest_text:
                    ledger.add(1, 1, f"op {a.index}: traced output differs from untraced")
        metrics, first_counts = per_layer_metrics(tracer, plain, traced, workload)
        check_probe("traced probe", traced_probe, traced, first_counts, ledger)
        absent = sorted(tracer.absent)
        detail.update(ops={"untraced": len(plain), "traced": len(traced)})

    detail.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        error_rate=ledger.failed / ledger.attempted,
        errors=ledger.messages[:20],
        absent=absent,
        env=environment(),
    )
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": ledger.failed == 0,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
