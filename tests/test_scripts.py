"""The experiment scripts and the benchmark should run end to end."""

import json
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_reproduce_figures(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_figures.py"), "--out-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    for name in ("cost_vs_databases.csv", "cost_vs_storage.csv", "central_vs_decentral.csv"):
        assert (tmp_path / name).exists()
    lines = (tmp_path / "cost_vs_databases.csv").read_text().splitlines()
    assert lines[0] == "n,cost,cost_float"
    assert lines[1].startswith("0,10,")


def test_convergence_script():
    proc = subprocess.run(
        [
            sys.executable,
            str(SCRIPTS / "convergence_with_file_size.py"),
            "--trials", "4",
            "--sizes", "135,540",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "184/81" in proc.stdout


def run_perfbench_smoke(workload):
    # One short traced run of the benchmark: the golden digests still match,
    # no op fails and every traced boundary is still found.
    root = SCRIPTS.parent
    proc = subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "0", "--seconds", "1", "--trace", "1",
        ],
        capture_output=True,
        text=True,
        cwd=root,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and detail["failed"] == 0
    assert detail["absent"] == []
    return result["metrics"]


def check_plans_traced(metrics, queries):
    # Retrieval builds every plan through protocol.generate_query_plan, so
    # the per-layer view sees them: the leading ops' query count is pinned
    # at seed 0.
    assert metrics["protocol.generate_query_plan.calls"]["value"] > 0
    assert metrics["protocol.queries"]["value"] == queries


def test_perfbench_smoke():
    check_plans_traced(run_perfbench_smoke("many-sets"), 20383.0)


def test_perfbench_headline_smoke():
    # The acceptance fixture: a few large storage sets and the data center.
    check_plans_traced(run_perfbench_smoke("headline"), 25878.5)


def test_perfbench_analysis_smoke():
    # The only workload that runs the closed-form evaluators.
    run_perfbench_smoke("analysis")


def test_perfbench_privacy_smoke():
    # The only workload that runs decpir.privacy, and its negative control.
    run_perfbench_smoke("privacy")
