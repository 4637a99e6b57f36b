"""Command-line interface: formula evaluators, Monte Carlo sweeps, and
privacy testing, with CSV output.

Exit codes: 0 success, 1 usage or configuration error, 2 invariant
violation (reliability, bound dominance, budget, or a failed privacy test).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .analysis import (
    capacity_classical,
    capacity_decentralized,
    centralized_envelope,
    converse_bound_realization,
    expected_converse_bound,
    expected_size_masses,
    uniform_optimality_certificate,
    uniform_profile,
)
from .errors import BudgetViolation, InvariantViolation, ProtocolError, ReliabilityError
from .model import partition_by_storage_set
from .placement import (
    PlacementPolicy,
    UniformRandomPlacement,
    policy_from_dict,
    sample_placement,
)
from .privacy import transcript_distribution_test
from .retrieval import simulate_trials
from .rng import derive_seed

USAGE_EXIT = 1
INVARIANT_EXIT = 2
# Exact costs are fractions over powers such as n**K, of K * log10(n) digits:
# past this many files they grow too long to evaluate and print quickly.
MAX_FILES = 1000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(USAGE_EXIT, f"{self.prog}: error: {message}\n")


def parse_mu(text: str) -> Fraction:
    """Parse a storage ratio given as a rational string ('1/3' or '0.5')."""
    try:
        mu = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse storage ratio {text!r}") from exc
    if mu < 0 or mu > 1:
        raise ValueError(f"storage ratio must lie in [0, 1], got {text}")
    return mu


def _exact(value: Fraction) -> str:
    """``str(value)``, refused in one line past Python's digit limit.

    Python will not convert an int of more digits than
    ``sys.get_int_max_str_digits()`` to text; exact costs reach that at
    large K and N.  Callers format every value before writing any.
    """
    try:
        return str(value)
    except ValueError:
        raise ValueError(
            f"exact value has more than {sys.get_int_max_str_digits()} digits, "
            f"too many to print; lower --k or --n"
        ) from None


def _fmt(value) -> str:
    if isinstance(value, Fraction):
        return _exact(value)
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _value_line(label: str, value: Fraction) -> str:
    return f"{label} = {_exact(value)} ≈ {float(value):.6f}"


def _print_value(label: str, value: Fraction) -> None:
    print(_value_line(label, value))


@dataclass
class ExperimentConfig:
    k: int
    n: int
    mu: Fraction
    file_bits: int
    trials: int
    seed: int
    policy: PlacementPolicy
    out: Optional[str]


def _load_config(args) -> ExperimentConfig:
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
    merged = {
        "k": args.k if args.k is not None else doc.get("k"),
        "n": args.n if args.n is not None else doc.get("n"),
        "mu": args.mu if args.mu is not None else doc.get("mu"),
        "file_bits": args.file_bits
        if args.file_bits is not None
        else doc.get("file_bits"),
        "trials": args.trials if args.trials is not None else doc.get("trials", 1),
        "seed": args.seed if args.seed is not None else doc.get("seed", 0),
        "out": args.out if args.out is not None else doc.get("out"),
    }
    if unknown := ", ".join(sorted(set(doc) - {*merged, "policy"})):
        raise ValueError(f"config file {args.config} has unknown fields: {unknown}")
    missing = [key for key in ("k", "n", "mu", "file_bits") if merged[key] is None]
    if missing:
        raise ValueError(f"missing required config fields: {', '.join(missing)}")
    mu = parse_mu(str(merged["mu"]))
    for key in ("k", "n", "file_bits", "trials", "seed"):
        # int() would truncate 2.9 to 2 and read true as 1.
        value = merged[key]
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError(f"config field {key} must be an integer, got {value!r}")
    k, n, file_bits, trials, seed = (
        int(merged[key]) for key in ("k", "n", "file_bits", "trials", "seed")
    )
    if merged["out"] is not None and not isinstance(merged["out"], str):
        raise ValueError(f"config field out must be a path, got {merged['out']!r}")
    policy_doc = doc.get("policy", {"kind": "uniform-random"})
    if args.files is not None and args.policy != "whole-file-prefix":
        raise ValueError("--files applies only with --policy whole-file-prefix")
    if args.policy:
        policy_doc = {"kind": args.policy}
        if args.files:
            policy_doc["files"] = [int(f) for f in args.files.split(",")]
    if isinstance(policy_doc, dict) and (
        policy_doc.get("kind", "uniform-random") == "uniform-random"
    ):
        policy_doc = {"mu": str(mu), **policy_doc}
    return ExperimentConfig(
        k=k,
        n=n,
        mu=mu,
        file_bits=file_bits,
        trials=trials,
        seed=seed,
        policy=policy_from_dict(policy_doc),
        out=merged["out"],
    )


def _write_csv(path: Optional[str], header, rows, comments=()) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    for line in comments:
        buffer.write(f"# {line}\n")
    text = buffer.getvalue()
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_capacity(args) -> int:
    mu = parse_mu(args.mu)
    value = capacity_decentralized(args.k, args.n, mu)
    _print_value(f"capacity(K={args.k}, N={args.n}, mu={mu})", value)
    return 0


def cmd_classical(args) -> int:
    value = capacity_classical(args.k, args.n)
    _print_value(f"classical(K={args.k}, n={args.n})", value)
    return 0


def cmd_envelope(args) -> int:
    # --mu is parsed, and its line formatted, before any output (see _exact).
    mu = parse_mu(args.mu) if args.mu is not None else None
    env = centralized_envelope(args.k, args.n)
    rows = [(t, ratio, cost) for t, (ratio, cost) in enumerate(env.corners)]
    label = f"envelope(K={args.k}, N={args.n}, mu={mu})"
    line = _value_line(label, env.evaluate(mu)) if mu is not None else None
    _write_csv(args.out, ["t", "mu", "cost"], rows)
    if line is not None:
        print(line)
    return 0


def cmd_simulate(args) -> int:
    config = _load_config(args)
    result = simulate_trials(
        config.k,
        config.file_bits,
        config.n,
        config.mu,
        config.policy,
        config.trials,
        config.seed,
    )
    rows = [
        (r.trial, r.desired, r.total, r.ideal, r.normalized, r.converse_bound, r.seed)
        for r in result.rows
    ]
    comments = [
        f"mean_D_over_L={_fmt(result.mean_normalized)}",
        f"std_D_over_L={_fmt(result.std_normalized)}",
        f"formula={result.formula}",
        f"relative_gap={_fmt(result.relative_gap)}",
    ]
    _write_csv(
        args.out,
        ["trial", "theta", "total_D", "ideal_D", "D_over_L", "converse_bound", "seed"],
        rows,
        comments,
    )
    print(
        f"mean D/L = {result.mean_normalized:.6f} over {config.trials} trials; "
        f"formula {result.formula} ≈ {float(result.formula):.6f}; "
        f"relative gap {result.relative_gap:.4%}"
    )
    return 0


def cmd_sweep(args) -> int:
    if args.envelope and args.vary != "mu":
        raise ValueError("--envelope applies only with --vary mu")
    # The other mode's options are refused rather than silently ignored.
    other = "mu" if args.vary == "n" else "n"
    for name in ("n", "points") if args.vary == "n" else ("mu", "start", "to"):
        if getattr(args, name) is not None:
            raise ValueError(f"--{name} applies only with --vary {other}")
    mu = parse_mu(args.mu) if args.mu is not None else None
    # One (param, N, mu) triple per row.
    if args.vary == "n":
        if args.k is None or mu is None:
            raise ValueError("sweeping N requires --k and --mu")
        start = 0 if args.start is None else args.start
        to = 30 if args.to is None else args.to
        if to < start:
            raise ValueError(
                f"sweeping N needs --to >= --start, got --start {start} --to {to}"
            )
        grid = [(n, n, mu) for n in range(start, to + 1)]
    else:
        if args.k is None or args.n is None:
            raise ValueError("sweeping mu requires --k and --n")
        points = 21 if args.points is None else args.points
        if points < 2:
            raise ValueError(
                f"sweeping mu needs --points >= 2 to span [0, 1], got {points}"
            )
        ratios = (Fraction(i, points - 1) for i in range(points))
        grid = [(ratio, args.n, ratio) for ratio in ratios]
    env = centralized_envelope(args.k, args.n) if args.envelope else None

    rows = []
    for index, (point, n, ratio) in enumerate(grid):
        formula = capacity_decentralized(args.k, n, ratio)
        envelope_cost = env.evaluate(ratio) if env else ""
        sim_mean = sim_std = ""
        if args.trials:
            result = simulate_trials(
                args.k,
                args.file_bits,
                n,
                ratio,
                UniformRandomPlacement(ratio),
                args.trials,
                derive_seed(args.seed, index),
            )
            sim_mean, sim_std = result.mean_normalized, result.std_normalized
        rows.append((point, formula, envelope_cost, sim_mean, sim_std))
    _write_csv(
        args.out,
        ["param", "formula_cost", "envelope_cost", "sim_mean", "sim_std"],
        rows,
    )
    return 0


def cmd_converse(args) -> int:
    mu = parse_mu(args.mu)
    if args.trials < 0:
        raise ValueError(f"--trials must be non-negative, got {args.trials}")
    if args.trials and args.file_bits < 1:
        raise ValueError(f"--trials needs --file-bits >= 1, got {args.file_bits}")
    profile = uniform_profile(args.k, args.file_bits, mu)
    expected = expected_converse_bound(profile, args.n, mu=mu)
    _print_value(
        f"expected_bound(K={args.k}, N={args.n}, mu={mu}, L={args.file_bits})",
        expected,
    )
    if args.trials:
        values = []
        for t in range(args.trials):
            realization = sample_placement(
                UniformRandomPlacement(mu),
                args.k,
                args.file_bits,
                args.n,
                derive_seed(args.seed, t),
            )
            values.append(
                float(converse_bound_realization(partition_by_storage_set(realization)))
            )
        mean = sum(values) / len(values)
        print(
            f"mean realization bound over {args.trials} placements = {mean:.6f}"
        )
    return 0


def cmd_optimize(args) -> int:
    mu = parse_mu(args.mu)
    profile = uniform_profile(args.k, args.file_bits, mu)
    minimum = args.file_bits * capacity_decentralized(args.k, args.n, mu)
    first, second = uniform_optimality_certificate(args.k, args.n)
    if (first is not None and first > 0) or (second is not None and second < 0):
        raise InvariantViolation(
            f"uniform caching is not certified optimal: the harmonic weights' "
            f"largest first difference is {first}, smallest second difference "
            f"{second}"
        )
    shape = f"K={args.k}, N={args.n}, mu={mu}, L={args.file_bits}"
    rows = [
        (f"min expected_bound({shape})", minimum),
        ("largest first difference of h", first),
        ("smallest second difference of h", second),
    ]
    masses = expected_size_masses(profile, args.n)
    rows += [(f"uniform mass size {l}", mass) for l, mass in enumerate(masses, start=1)]
    # Every value is formatted before any is written (see _exact).
    lines = [
        f"{label} = none" if value is None else _value_line(label, value)
        for label, value in rows
    ]
    print("\n".join(lines))
    return 0


def cmd_privacy_test(args) -> int:
    result = transcript_distribution_test(
        args.k,
        args.n,
        args.file_bits,
        args.sessions,
        args.seed,
        permute=not args.no_permute,
        significance=args.significance,
    )
    print(f"structural histograms theta-invariant: {result.structural_ok}")
    for c in result.comparisons:
        print(
            f"store {c.store} theta {c.desired_a} vs {c.desired_b}: "
            f"chi2={c.statistic:.2f} df={c.dof} p={c.p_value:.4g}"
        )
    print(f"privacy test {'PASS' if result.ok else 'FAIL'} at {args.significance}")
    return 0 if result.ok else INVARIANT_EXIT


def _add_common(sub, *names):
    if "k" in names:
        sub.add_argument("--k", type=int, required=True, help="number of files")
    if "n" in names:
        sub.add_argument("--n", type=int, required=True, help="database/replica count")
    if "mu" in names:
        sub.add_argument("--mu", required=True, help="storage ratio, e.g. 1/3 or 0.5")
    if "file-bits" in names:
        sub.add_argument("--file-bits", type=int, required=True, help="bits per file")
    if "seed" in names:
        sub.add_argument("--seed", type=int, default=0)
    if "out" in names:
        sub.add_argument("--out", help="CSV output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="decpir")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("capacity", parents=[], help="decentralized-caching cost formula")
    _add_common(p, "k", "n", "mu")
    p.set_defaults(func=cmd_capacity)

    p = subs.add_parser("classical", help="replicated-store cost formula")
    _add_common(p, "k", "n")
    p.set_defaults(func=cmd_classical)

    p = subs.add_parser("envelope", help="centralized-placement tradeoff corners")
    _add_common(p, "k", "n", "out")
    p.add_argument("--mu", help="also evaluate the envelope at this ratio")
    p.set_defaults(func=cmd_envelope)

    p = subs.add_parser("simulate", help="Monte Carlo placement+retrieval trials")
    p.add_argument("--k", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--mu")
    p.add_argument("--file-bits", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--config", help="JSON config file; flags override its fields")
    p.add_argument("--out")
    p.add_argument(
        "--policy", choices=["uniform-random", "whole-file-prefix"], default=None
    )
    p.add_argument("--files", help="comma-separated file list for whole-file-prefix")
    p.set_defaults(func=cmd_simulate)

    p = subs.add_parser("sweep", help="cost sweeps over N or mu")
    p.add_argument("--vary", choices=["n", "mu"], required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, help="fixed N when varying mu")
    p.add_argument("--mu", help="fixed ratio when varying N")
    p.add_argument("--start", type=int, help="first N when varying N (default 0)")
    p.add_argument("--to", type=int, help="last N when varying N (default 30)")
    p.add_argument("--points", type=int, help="grid size when varying mu (default 21)")
    p.add_argument("--envelope", action="store_true", help="add the centralized column")
    p.add_argument("--trials", type=int, default=0, help="add simulated columns")
    p.add_argument("--file-bits", type=int, default=1080)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("converse", help="expected lower bound and sampled bounds")
    _add_common(p, "k", "n", "mu", "file-bits", "seed")
    p.add_argument("--trials", type=int, default=0)
    p.set_defaults(func=cmd_converse)

    p = subs.add_parser(
        "optimize", help="exact minimum of the expected bound over marginals"
    )
    _add_common(p, "k", "n", "mu", "file-bits")
    p.set_defaults(func=cmd_optimize)

    p = subs.add_parser("privacy-test", help="transcript indistinguishability test")
    _add_common(p, "k", "n", "file-bits", "seed")
    p.add_argument("--sessions", type=int, default=10_000)
    p.add_argument("--significance", type=float, default=0.01)
    p.add_argument(
        "--no-permute",
        action="store_true",
        help="negative control: skip permutations (expected to fail)",
    )
    p.set_defaults(func=cmd_privacy_test)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "k", None) is not None and args.k > MAX_FILES:
            raise ValueError(f"--k must be at most {MAX_FILES}, got {args.k}")
        code = args.func(args)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader stopped early (``... | head``): no error, and a quiet exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (BudgetViolation, ReliabilityError, InvariantViolation, ProtocolError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return INVARIANT_EXIT
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
