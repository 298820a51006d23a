"""Tests of the benchmark itself (not of rolealign):

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
from tracer import layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_metric_with_its_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"]
              for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == wanted
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    for name in ("fail_rate", "avg_loglik", "wall_s"):
        assert f"  {name} " in proc.stdout
    if workload != "compare-k22":
        assert "  role_mean_err " in proc.stdout
    if trace and workload == "compare-k22":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        # hungarian is bound in alignment and baseline, kmeans in discovery
        # and clustering: every binding site must be traced
        assert m["assignment.hungarian_calls"] > 2 * m[
            "alignment.assign_frames"] > 0
        assert m["clustering.kmeans_calls"] > 0
        assert m["discovery.kmeans_iters"] > 0


def _truncate(report):
    report.write_bytes(report.read_bytes()[:40])


def _shift_loglik(report):
    data = json.loads(report.read_text())
    data["soft_avg_loglik"] += 1e-6
    report.write_text(json.dumps(data))


@pytest.mark.parametrize("corrupt, reason", [
    (_truncate, "report.json is not valid JSON"),
    (_shift_loglik, "report.json: recomputed avg_loglik"),
])
def test_corrupted_report_counts_as_failed_run(monkeypatch, corrupt, reason):
    real = run.run_child
    corrupted = []

    def corrupt_first_report(cmd, log_path, timeout=run.CHILD_TIMEOUT_S):
        rec = real(cmd, log_path, timeout)
        if "compare" in cmd and not corrupted:
            report = Path(cmd[cmd.index("--out") + 1]) / "report.json"
            corrupt(report)
            corrupted.append(report)
        return rec

    monkeypatch.setattr(run, "run_child", corrupt_first_report)
    record, _ = run.bench("compare-k22", 3, 3, 0, "smoke")
    runs = record["runs"]
    assert corrupted and len(runs) >= 2
    assert not runs[0]["ok"] and runs[0]["reason"].startswith(reason)
    assert all(r["ok"] for r in runs[1:])
    fail_rate = record["end_to_end"]["fail_rate"]
    assert fail_rate["value"] == 1 / len(runs)
    assert fail_rate["samples"] == len(runs)
    assert record["end_to_end"]["wall_s"]["samples"] == len(runs) - 1


def test_without_program_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "_work", "results", "__pycache__"))
    proc = _bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_times_and_kmeans_attribution():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["discovery.discover_formation", 1.0, 6.0, 0, [3, 1]],
        ["discovery.kmeans", 2.0, 4.0, 1, 5],
        ["clustering.wce_sweep", 6.0, 9.0, 0, None],
        ["discovery.kmeans", 7.0, 8.0, 3, 4],
        ["assignment.hungarian", 9.0, 9.5, 0, None],
    ]
    m = {k: v for k, (v, _) in layer_metrics(spans).items()}
    assert m["cli.self_s"] == pytest.approx(1.5)
    assert m["discovery.em_s"] == pytest.approx(3.0)
    assert (m["discovery.kmeans_s"], m["discovery.kmeans_iters"]) == (2.0, 5)
    assert m["discovery.kmeans_iter_s"] == pytest.approx(0.4)
    assert (m["discovery.em_iters"], m["discovery.spherical_steps"]) == (3, 1)
    assert m["clustering.wce_sweep_s"] == pytest.approx(2.0)
    assert (m["clustering.kmeans_calls"], m["clustering.kmeans_iters"]) \
        == (1, 4)
    assert m["assignment.hungarian_us_per_call"] == pytest.approx(5e5)
    # K-means outside discover_formation is clustering's own work
    assert m["discovery.self_s"] == pytest.approx(3.0 + 2.0)
    assert m["clustering.self_s"] == pytest.approx(2.0 + 1.0)
    assert sum(m[f"{layer}.self_s"] for layer in (
        "ingest", "discovery", "alignment", "assignment", "baseline",
        "clustering", "cli")) == pytest.approx(10.0)
