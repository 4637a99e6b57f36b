"""Command-line harness tests: outputs, config handling, exit discipline."""

import csv
import json
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from decpir import analysis, cli
from decpir.analysis import capacity_decentralized
from decpir.cli import main, parse_mu
from decpir.privacy import PrivacyTestResult


def read_csv(path):
    rows = []
    comments = []
    with open(path) as fh:
        for line in fh:
            if line.startswith("#"):
                comments.append(line.strip())
            else:
                rows.append(line.rstrip("\n"))
    parsed = list(csv.reader(rows))
    return parsed[0], parsed[1:], comments


def test_parse_mu():
    assert parse_mu("1/3") == Fraction(1, 3)
    assert parse_mu("0.5") == Fraction(1, 2)
    assert parse_mu("1") == 1
    with pytest.raises(ValueError):
        parse_mu("3/2")
    with pytest.raises(ValueError):
        parse_mu("abc")


def test_capacity_command(capsys):
    assert main(["capacity", "--k", "3", "--n", "2", "--mu", "1/3"]) == 0
    out = capsys.readouterr().out
    assert "184/81" in out
    assert "2.271605" in out


def test_capacity_command_n0(capsys):
    assert main(["capacity", "--k", "10", "--n", "0", "--mu", "1/2"]) == 0
    assert "= 10 " in capsys.readouterr().out


def test_capacity_command_k1(capsys):
    assert main(["capacity", "--k", "1", "--n", "5", "--mu", "1/2"]) == 0
    assert "= 1 " in capsys.readouterr().out


def test_classical_command(capsys):
    assert main(["classical", "--k", "3", "--n", "2"]) == 0
    assert "7/4" in capsys.readouterr().out


def test_envelope_command(tmp_path, capsys):
    out = tmp_path / "env.csv"
    code = main(
        ["envelope", "--k", "10", "--n", "5", "--mu", "1/2", "--out", str(out)]
    )
    assert code == 0
    header, rows, _ = read_csv(out)
    assert header == ["t", "mu", "cost"]
    assert rows[0] == ["0", "0", "10"]
    assert rows[-1][1] == "1"
    assert "envelope" in capsys.readouterr().out


def test_bad_mu_is_usage_error(capsys):
    assert main(["capacity", "--k", "3", "--n", "2", "--mu", "7/3"]) == 1


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1


def test_missing_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--k", "3"])
    assert exc.value.code == 1


def test_simulate_n0_rows(tmp_path, capsys):
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate", "--k", "3", "--n", "0", "--mu", "1/2",
            "--file-bits", "20", "--trials", "4", "--seed", "1",
            "--out", str(out),
        ]
    )
    assert code == 0
    header, rows, comments = read_csv(out)
    assert header == [
        "trial", "theta", "total_D", "ideal_D", "D_over_L", "converse_bound", "seed",
    ]
    assert len(rows) == 4
    for row in rows:
        assert row[2] == "60"  # total_D = K * L exactly
        assert Fraction(row[2]) >= Fraction(row[5])  # dominance column-wise
    assert any("formula=3" in c for c in comments)


def test_simulate_deterministic_output(tmp_path):
    args = [
        "simulate", "--k", "2", "--n", "2", "--mu", "1/2",
        "--file-bits", "24", "--trials", "5", "--seed", "9",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_config_file_and_override(tmp_path, capsys):
    config = {
        "k": 2,
        "n": 1,
        "mu": "1/2",
        "file_bits": 16,
        "trials": 9,
        "seed": 3,
        "policy": {"kind": "uniform-random", "mu": "1/2"},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "sim.csv"
    code = main(
        ["simulate", "--config", str(path), "--trials", "2", "--out", str(out)]
    )
    assert code == 0
    _, rows, _ = read_csv(out)
    assert len(rows) == 2  # flag overrides the config's 9


def test_simulate_missing_fields_is_usage_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k": 2}))
    assert main(["simulate", "--config", str(path)]) == 1
    assert "missing" in capsys.readouterr().err


def _assert_one_line_error(capsys, message):
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert message in err


def test_whole_file_policy_needs_files(capsys):
    code = main(
        [
            "simulate", "--k", "2", "--n", "1", "--mu", "1/2", "--file-bits", "4",
            "--policy", "whole-file-prefix",
        ]
    )
    assert code == 1
    _assert_one_line_error(capsys, "'files'")


@pytest.mark.parametrize("policy", [[], ["--policy", "uniform-random"]])
def test_files_needs_whole_file_policy(capsys, policy):
    # Any other policy would ignore the file list rather than apply it.
    code = main(
        [
            "simulate", "--k", "2", "--n", "1", "--mu", "1/2", "--file-bits", "4",
            "--files", "0", *policy,
        ]
    )
    assert code == 1
    _assert_one_line_error(capsys, "--files applies only with --policy whole-file-prefix")


@pytest.mark.parametrize(
    "policy, message",
    [
        ({"kind": "whole-file-prefix"}, "'files'"),
        ({"kind": "explicit-sets"}, "'sets'"),
        ({"kind": "explicit-sets", "sets": 3}, "malformed"),
        ([1, 2], "JSON object"),
    ],
)
def test_config_policy_errors_are_one_line(tmp_path, capsys, policy, message):
    path = tmp_path / "config.json"
    config = {"k": 2, "n": 1, "mu": "1/2", "file_bits": 4, "policy": policy}
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path)]) == 1
    _assert_one_line_error(capsys, message)


@pytest.mark.parametrize(
    "field, value", [("k", 2.9), ("file_bits", 4.5), ("k", True), ("seed", [1])]
)
def test_config_integers_are_not_truncated(tmp_path, capsys, field, value):
    path = tmp_path / "config.json"
    config = {"k": 2, "n": 1, "mu": "1/2", "file_bits": 4, field: value}
    path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(path)]) == 1
    _assert_one_line_error(capsys, f"config field {field} must be an integer")


@pytest.mark.parametrize("doc", [[1, 2], "text", 3])
def test_config_must_be_an_object(tmp_path, capsys, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--config", str(path)]) == 1
    _assert_one_line_error(capsys, "JSON object")


def test_simulate_whole_file_policy(tmp_path):
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate", "--k", "3", "--n", "2", "--mu", "1/3",
            "--file-bits", "27", "--trials", "3", "--seed", "2",
            "--policy", "whole-file-prefix", "--files", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    _, rows, _ = read_csv(out)
    assert all(Fraction(row[4]) == Fraction(31, 9) for row in rows)


def test_sweep_over_databases(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--vary", "n", "--k", "10", "--mu", "1/2",
            "--start", "0", "--to", "30", "--out", str(out),
        ]
    )
    assert code == 0
    header, rows, _ = read_csv(out)
    assert header == ["param", "formula_cost", "envelope_cost", "sim_mean", "sim_std"]
    costs = [Fraction(row[1]) for row in rows]
    assert len(costs) == 31
    assert costs[0] == 10
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_sweep_over_storage_with_envelope(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--vary", "mu", "--k", "10", "--n", "5",
            "--points", "11", "--envelope", "--out", str(out),
        ]
    )
    assert code == 0
    _, rows, _ = read_csv(out)
    for row in rows:
        formula, envelope = Fraction(row[1]), Fraction(row[2])
        assert envelope <= formula
    assert Fraction(rows[0][2]) == Fraction(rows[0][1])
    assert Fraction(rows[-1][2]) == Fraction(rows[-1][1])


def test_envelope_needs_a_storage_sweep(tmp_path, capsys):
    # The centralized envelope is a curve in mu at fixed N: a sweep over N
    # would print the column blank rather than fill it.
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--vary", "n", "--k", "3", "--mu", "1/2",
            "--start", "0", "--to", "2", "--envelope", "--out", str(out),
        ]
    )
    assert code == 1
    _assert_one_line_error(capsys, "--envelope applies only with --vary mu")
    assert not out.exists()


@pytest.mark.parametrize(
    "vary, fixed, flag, value",
    [
        ("n", ["--mu", "1/2"], "--n", "7"),
        ("n", ["--mu", "1/2"], "--points", "7"),
        ("mu", ["--n", "2"], "--mu", "1/3"),
        ("mu", ["--n", "2"], "--start", "5"),
        ("mu", ["--n", "2"], "--to", "9"),
    ],
)
def test_sweep_refuses_the_other_modes_options(
    tmp_path, capsys, vary, fixed, flag, value
):
    # A sweep over N has no grid size and one over mu no range of N: each
    # such flag was once silently ignored.
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--vary", vary, "--k", "3", *fixed, flag, value]
    assert main([*argv, "--out", str(out)]) == 1
    other = "mu" if vary == "n" else "n"
    _assert_one_line_error(capsys, f"{flag} applies only with --vary {other}")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, params",
    [
        (["--vary", "n", "--mu", "1/2"], [str(n) for n in range(31)]),
        (["--vary", "mu", "--n", "2"], [str(Fraction(i, 20)) for i in range(21)]),
    ],
)
def test_sweep_defaults_fill_the_grid(tmp_path, argv, params):
    # N runs over 0..30 and mu over 21 points unless the flags say otherwise.
    out = tmp_path / "sweep.csv"
    assert main(["sweep", *argv, "--k", "3", "--out", str(out)]) == 0
    _, rows, _ = read_csv(out)
    assert [row[0] for row in rows] == params


def test_sweep_with_simulation_columns(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--vary", "mu", "--k", "2", "--n", "1",
            "--points", "3", "--trials", "2", "--file-bits", "16",
            "--seed", "5", "--out", str(out),
        ]
    )
    assert code == 0
    _, rows, _ = read_csv(out)
    for row in rows:
        assert row[3] != "" and row[4] != ""


def test_converse_command(capsys):
    code = main(
        [
            "converse", "--k", "3", "--n", "2", "--mu", "1/3",
            "--file-bits", "9", "--trials", "5", "--seed", "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert f"{9 * Fraction(184, 81)}" in out  # expected bound L * formula
    assert "mean realization bound" in out


def test_converse_refuses_negative_trials(capsys):
    code = main(
        [
            "converse", "--k", "2", "--n", "2", "--mu", "1/2", "--file-bits", "4",
            "--trials", "-1",
        ]
    )
    assert code == 1
    _assert_one_line_error(capsys, "--trials")


def test_optimize_command(capsys):
    code = main(
        ["optimize", "--k", "3", "--n", "2", "--mu", "1/3", "--file-bits", "10"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "min expected_bound(K=3, N=2, mu=1/3, L=10) = 1840/81 ≈ 22.716049" in out
    assert "largest first difference of h = -11/36" in out
    assert "smallest second difference of h = 17/18" in out
    assert "uniform mass size 3 = 10/9" in out


def test_optimize_answers_the_paper_grid_at_a_million_bits(capsys):
    start = time.perf_counter()
    code = main(
        ["optimize", "--k", "10", "--n", "30", "--mu", "1/2", "--file-bits", "1000000"]
    )
    assert time.perf_counter() - start < 1
    assert code == 0
    minimum = 10**6 * capacity_decentralized(10, 30, Fraction(1, 2))
    assert f" = {minimum} ≈ " in capsys.readouterr().out


def test_optimize_refuses_non_convex_weights(monkeypatch, capsys):
    # A mutant c(K, .) bumped up at n = 3 makes h concave there.
    real = analysis._classical_numerators

    def bumped(num_files, max_replicas):
        nums, den = real(num_files, max_replicas)
        return nums[:2] + (nums[2] + den,) + nums[3:], den

    monkeypatch.setattr(analysis, "_classical_numerators", bumped)
    code = main(
        ["optimize", "--k", "3", "--n", "3", "--mu", "1/3", "--file-bits", "10"]
    )
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("invariant violation: uniform caching is not certified")
    assert err.count("\n") == 1, err


def test_privacy_test_command_passes(capsys):
    code = main(
        [
            "privacy-test", "--k", "2", "--n", "2", "--file-bits", "4",
            "--sessions", "1500", "--seed", "7",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "structural histograms theta-invariant: True" in out


def test_privacy_test_negative_control_fails(capsys):
    code = main(
        [
            "privacy-test", "--k", "2", "--n", "2", "--file-bits", "4",
            "--sessions", "400", "--seed", "7", "--no-permute",
        ]
    )
    assert code == 2
    assert "FAIL" in capsys.readouterr().out


def test_privacy_test_refuses_large_instances(capsys):
    # 3 files x 10**6 sessions x 54 symbols x 13/9 bits a symbol.
    code = main(
        [
            "privacy-test", "--k", "3", "--n", "3", "--file-bits", "54",
            "--sessions", "1000000", "--seed", "0",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "too large" in err and "more than the 50000000-bit cap" in err
    assert err.count("\n") == 1


def test_simulate_cap_names_padded_symbols(capsys):
    # 204M padded symbols but a 28.1M-bit download: the cap bounds the
    # padded symbols, and the one-line refusal says so.
    code = main(
        [
            "simulate", "--k", "9", "--n", "5", "--mu", "1/2", "--file-bits", "64",
            "--trials", "1", "--seed", "1",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "padded symbols exceeds the cap of 50000000" in err
    assert err.count("\n") == 1


def test_privacy_test_refuses_templates_past_the_term_cap(capsys):
    # 14 files at n = 2 download under 2% of the cap, but their 14 templates
    # of 14 * 2**14 terms, 3.2M in all, would take seconds and ~300 MB.
    start = time.perf_counter()
    code = main(
        [
            "privacy-test", "--k", "14", "--n", "2", "--file-bits", "16384",
            "--sessions", "2",
        ]
    )
    assert time.perf_counter() - start < 1
    assert code == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: privacy test too large") and "2097152 terms" in err


def test_privacy_test_admits_templates_up_to_the_term_cap(monkeypatch, capsys):
    # 13 files at n = 2: 13 templates of 13 * 2**13 terms, 1.4M in all.
    calls = []

    def record(*args, **kwargs):
        calls.append(args)
        return PrivacyTestResult(True, (), 0.01)

    monkeypatch.setattr(cli, "transcript_distribution_test", record)
    code = main(
        [
            "privacy-test", "--k", "13", "--n", "2", "--file-bits", "8192",
            "--sessions", "2",
        ]
    )
    assert code == 0 and [args[:2] for args in calls] == [(13, 2)]
    assert "PASS" in capsys.readouterr().out


def test_privacy_test_refusal_prints_no_bit_count(capsys):
    # Sessions and bits of 4,000 digits each: the download has ~8,000, past
    # what Python will format, so the refusal must not print it.
    big = "9" * 4000
    code = main(
        ["privacy-test", "--k", "3", "--n", "3", "--file-bits", big, "--sessions", big]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: privacy test too large") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["classical", "--k", "20000", "--n", "2"],
        ["capacity", "--k", "20000", "--n", "2", "--mu", "1/2"],
        ["envelope", "--k", "20000", "--n", "2"],
        [
            "privacy-test", "--k", "20000", "--n", "2", "--file-bits", "1",
            "--sessions", "2",
        ],
    ],
)
def test_huge_file_counts_are_refused_naming_k(capsys, argv):
    # Exact costs at K = 20,000 have thousands of digits; the limit on K is
    # enforced before any of them is computed.
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --k must be at most 1000, got 20000\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["capacity", "--k", "1000", "--n", "30", "--mu", "1/2"],
        ["converse", "--k", "1000", "--n", "30", "--mu", "1/2", "--file-bits", "1"],
        [
            "sweep", "--vary", "n", "--k", "1000", "--mu", "1/2",
            "--start", "29", "--to", "30",
        ],
    ],
)
def test_exact_values_past_the_digit_limit_are_refused(capsys, tmp_path, argv):
    # At K = 1000, N = 30 the exact cost has more digits than Python will
    # convert to text: one line naming the flags, and nothing written.
    out_path = tmp_path / "out.csv"
    if argv[0] == "sweep":
        argv = argv + ["--out", str(out_path)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and not out_path.exists()
    assert err.startswith("error: exact value has more than ")
    assert "--k" in err and "--n" in err and err.count("\n") == 1


def test_file_count_limit_is_inclusive(capsys):
    assert main(["classical", "--k", "1000", "--n", "2"]) == 0
    assert capsys.readouterr().out.startswith("classical(K=1000, n=2) = ")


def test_privacy_test_runs_instances_under_the_cap(capsys):
    # Four files, one 16-symbol block: past the old K <= 3 rule, far under
    # the download cap.
    code = main(
        [
            "privacy-test", "--k", "4", "--n", "2", "--file-bits", "16",
            "--sessions", "200", "--seed", "0",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "structural histograms theta-invariant: True" in out
    assert "PASS" in out


def test_forced_bound_violation_exits_2(monkeypatch, capsys):
    # Force an impossible lower bound so the dominance check trips: the CLI
    # must exit 2 and name the offending trial.
    import decpir.retrieval as retrieval

    def absurd_bound(partition):
        return Fraction(10**9)

    monkeypatch.setattr(retrieval, "converse_bound_realization", absurd_bound)
    code = main(
        [
            "simulate", "--k", "2", "--n", "1", "--mu", "1/2",
            "--file-bits", "8", "--trials", "1", "--seed", "0",
        ]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "invariant violation" in err
    assert "trial 0" in err


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "decpir", "capacity", "--k", "3", "--n", "2",
         "--mu", "1/3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "184/81" in proc.stdout


@pytest.mark.parametrize("points", ["1", "0"])
def test_sweep_needs_two_points(tmp_path, capsys, points):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--vary", "mu", "--k", "3", "--n", "2",
            "--points", points, "--out", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--points" in err
    assert not out.exists()


def test_sweep_needs_start_before_to(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep", "--vary", "n", "--k", "3", "--mu", "1/2",
            "--start", "5", "--to", "2", "--out", str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "--start" in err and "--to" in err
    assert not out.exists()


def test_simulate_runs_64_databases(tmp_path, capsys):
    # The storage-set keys have no width limit, so N=64 runs like any other N.
    out = tmp_path / "sim.csv"
    code = main(
        [
            "simulate", "--k", "2", "--n", "64", "--mu", "1/2",
            "--file-bits", "4", "--trials", "1", "--out", str(out),
        ]
    )
    assert code == 0
    assert "Traceback" not in capsys.readouterr().err
    header, rows, _ = read_csv(out)
    assert len(rows) == 1
    row = dict(zip(header, rows[0]))
    assert Fraction(row["total_D"]) >= Fraction(row["converse_bound"])


@pytest.mark.parametrize(
    "k, n, bits, message",
    [
        ("0", "2", "0", "two files"),
        ("0", "2", "4", "two files"),
        ("1", "2", "4", "two files"),
        ("2", "0", "4", "one replica"),
        ("2", "2", "0", "one symbol"),
    ],
)
@pytest.mark.parametrize("control", [[], ["--no-permute"]])
def test_privacy_test_refuses_vacuous_instances(capsys, k, n, bits, message, control):
    # Nothing to compare must not read as a pass, for the honest scheme or
    # for the negative control.
    code = main(
        ["privacy-test", "--k", k, "--n", n, "--file-bits", bits, "--sessions", "50"]
        + control
    )
    assert code == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err


@pytest.mark.parametrize("significance", ["0", "1", "-1", "nan", "5"])
def test_privacy_test_refuses_significance_outside_unit_interval(capsys, significance):
    # At or below 0 the test could never fail, at or above 1 never pass.
    code = main(
        [
            "privacy-test", "--k", "2", "--n", "2", "--file-bits", "4",
            "--sessions", "50", "--significance", significance,
        ]
    )
    assert code == 1
    out, err = capsys.readouterr()
    assert "PASS" not in out and "FAIL" not in out
    assert err.startswith("error:") and err.count("\n") == 1
    assert "significance" in err
