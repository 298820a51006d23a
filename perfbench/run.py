#!/usr/bin/env python3
"""Benchmark of the rolealign CLI on seeded synthetic tracking data.

    python3 perfbench/run.py --workload discover-match --seed 1 \\
        --seconds 35 --trace 0

Run from the root of a source checkout (the program is imported from
``src/``; nothing needs installing).  The benchmark writes its inputs from
``--seed``, then runs the real ``rolealign`` CLI on them in a closed loop
with one client: one child process at a time, the next started only after
the previous one exits, until ``--seconds`` is spent.  Every run's outputs
are checked; a run that fails a check counts in ``fail_rate``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced runs with traced ones (``tracer.py``) and reports per-layer
metrics plus the tracing overhead.  Human-readable lines come first; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record with
provenance goes to ``perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import checks
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORK = HERE / "_work"

SETUP_PER_CYCLE = 2       # fresh imports timed per CLI run for setup_s
CHILD_TIMEOUT_S = 60.0    # a CLI child running longer is killed and failed
# Every child gets one BLAS thread.  The program's matrices are tiny (2x2
# covariances, at most a 1 500 x 44 PCA), so a BLAS thread pool buys it
# nothing; starting one costs about 60 ms of a 0.33 s import on a 2-vCPU
# VM, and that share of setup_s varied with the host from run to run.
BLAS_ENV = dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                          "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                          "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"),
                         "1")


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def run_child(cmd, log_path, timeout=CHILD_TIMEOUT_S):
    """Run one child to completion; wall time, peak RSS and CPU from wait4."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL,
                                stderr=log)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "rss_mib": usage.ru_maxrss / 1024.0,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "returncode": proc.returncode}


def time_setup(work):
    """Wall time of one fresh interpreter that imports rolealign.cli."""
    rec = run_child([sys.executable, "-c", "import rolealign.cli"],
                    work / "setup.log")
    if rec["returncode"] != 0:
        raise RuntimeError("importing rolealign.cli failed: "
                           + (work / "setup.log").read_text()[-500:])
    return rec["wall_s"]


def reference_run(inputs, work):
    """Run inputs.reference_argv once and record its recomputed avg_loglik.

    This is set-up, not a measured run: a failure here makes every
    measured run's check fail with the reason.
    """
    out = work / "reference"
    rec = run_child([sys.executable, "-m", "rolealign.cli",
                     *inputs.reference_argv, "--out", str(out)],
                    work / "reference.log")
    try:
        if rec["returncode"] != 0:
            raise checks.CheckError(f"exit {rec['returncode']}")
        inputs.reference_loglik = checks.formation_loglik(inputs, out)
    except (checks.CheckError, KeyError, IndexError, TypeError,
            ValueError) as exc:
        inputs.reference_error = f"reference discover run failed: {exc}"
    return rec["wall_s"]


def cli_once(workload, inputs, work, index, traced):
    """One CLI child plus its output checks; never raises on a bad run."""
    out = work / f"run{index:03d}"
    spans_path = work / f"spans{index:03d}.json"
    cmd = [sys.executable]
    cmd += [str(HERE / "tracer.py"), str(spans_path), "--"] if traced else \
        ["-m", "rolealign.cli"]
    rec = run_child(cmd + inputs.argv + ["--out", str(out)],
                    work / f"run{index:03d}.log")
    rec.update(kind="traced" if traced else "untraced", ok=False, reason=None)
    if rec["returncode"] != 0:
        tail = (work / f"run{index:03d}.log").read_text(errors="replace")
        rec["reason"] = f"exit {rec['returncode']}: {tail.strip()[-300:]}"
        return rec
    try:
        rec["quality"] = checks.check(workload, inputs, out, ROOT)
        if traced:
            data = json.loads(spans_path.read_text())
            rec["layers"] = tracer.layer_metrics(data["spans"])
            rec["layers"]["cli.cpu_s"] = (data["cpu_s"], "s")
    except (checks.CheckError, OSError, ValueError) as exc:
        rec["reason"] = str(exc)
        return rec
    rec["ok"] = True
    shutil.rmtree(out, ignore_errors=True)
    return rec


def measure_runs(workload, inputs, work, seconds, trace):
    """Closed loop, one client: runs until the next cycle would overrun.

    Each cycle first times SETUP_PER_CYCLE fresh imports, so that the
    setup_s samples are spread over the same window as the CLI runs and
    see the same drift of the host's speed.
    """
    kinds = (False, True) if trace else (False,)
    runs, setup = [], []
    time_setup(work)   # compiles bytecode; not timed
    start = time.perf_counter()
    while True:
        setup += [time_setup(work) for _ in range(SETUP_PER_CYCLE)]
        for traced in kinds:
            runs.append(cli_once(workload, inputs, work, len(runs), traced))
        elapsed = time.perf_counter() - start
        cycle = elapsed / (len(runs) // len(kinds))
        if elapsed + cycle > seconds:
            return runs, setup


def _median(values):
    return statistics.median(values) if values else float("nan")


def end_to_end(inputs, runs, setup):
    """Gated metrics and printed-only ones: name -> (value, unit, n)."""
    good = [r for r in runs if r["ok"] and r["kind"] == "untraced"]
    wall = _median([r["wall_s"] for r in good])
    quality = {k: _median([r["quality"][k] for r in good])
               for k in ("avg_loglik", "role_mean_err")
               if good and k in good[0]["quality"]}
    m = {
        "wall_s": (wall, "s", len(good)),
        "frames_per_s": (inputs.frames / wall, "frames/s", len(good)),
        "peak_rss_mb": (_median([r["rss_mib"] for r in good]), "MiB",
                        len(good)),
        "setup_s": (_median(setup), "s", len(setup)),
        "avg_nll": (-quality.get("avg_loglik", float("nan")), "nats",
                    len(good)),
    }
    info = {
        "avg_loglik": (quality.get("avg_loglik", float("nan")), "nats",
                       len(good)),
        "fail_rate": (sum(not r["ok"] for r in runs) / len(runs), "ratio",
                      len(runs)),
    }
    if "role_mean_err" in quality:
        info["role_mean_err"] = (quality["role_mean_err"], "m", len(good))
    return m, info


def per_layer(runs):
    """Median per-layer metrics over traced runs, plus tracing overhead."""
    traced = [r for r in runs if r["ok"] and r["kind"] == "traced"]
    plain = [r for r in runs if r["ok"] and r["kind"] == "untraced"]
    if not traced or not plain:
        return {}
    n = len(traced)
    out = {k: (_median([r["layers"][k][0] for r in traced]), unit, n)
           for k, (_, unit) in traced[0]["layers"].items()}
    t_wall = _median([r["wall_s"] for r in traced])
    u_wall = _median([r["wall_s"] for r in plain])
    out["trace.traced_wall_s"] = (t_wall, "s", n)
    out["trace.untraced_wall_s"] = (u_wall, "s", len(plain))
    out["trace.overhead_s"] = (t_wall - u_wall, "s", min(n, len(plain)))
    return out


def provenance(workload, seed, size, inputs, gen_s, ref_s):
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        git_sha = sha.stdout.strip() if sha.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git_sha = None
    src = hashlib.sha256()
    for path in sorted((SRC / "rolealign").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            src.update(str(path.relative_to(SRC)).encode() + b"\0")
            src.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = None
    return {
        "workload": workload, "seed": seed, "size": size,
        "git_sha": git_sha, "source_sha256": src.hexdigest(),
        "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "blas_threads_env": BLAS_ENV,
        "load": {"closed_loop_clients": 1},
        "input_generation_s": gen_s, "reference_run_s": ref_s,
        "inputs": [{"name": p.name, "bytes": p.stat().st_size,
                    "sha256": _sha256(p)} for p in inputs.files],
        "frames": inputs.frames, "agents": inputs.agents,
    }


def bench(workload, seed, seconds, trace, size_name="full"):
    """One benchmark run; returns (result record, metrics for the JSON line).

    The record holds everything: provenance, per-run wall times and
    failure reasons, and each metric with its unit and sample count.
    """
    size = {"full": workloads.FULL, "smoke": workloads.SMOKE}[size_name]
    work = WORK / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        start = time.perf_counter()
        inputs = workloads.WORKLOADS[workload](work, seed, size)
        gen_s = time.perf_counter() - start
        ref_s = reference_run(inputs, work) if inputs.reference_argv \
            else None
        record = {"provenance": provenance(workload, seed, size_name,
                                           inputs, gen_s, ref_s)}
        runs, setup = measure_runs(workload, inputs, work, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    e2e, info = end_to_end(inputs, runs, setup)
    layers = per_layer(runs) if trace else {}
    record["runs"] = [{k: v for k, v in r.items() if k != "layers"}
                      for r in runs]
    record["setup_s_samples"] = setup
    record["end_to_end"] = {k: {"value": v, "unit": u, "samples": n}
                            for k, (v, u, n) in {**e2e, **info}.items()}
    record["per_layer"] = {k: {"value": v, "unit": u, "samples": n}
                           for k, (v, u, n) in layers.items()}
    return record, (layers if trace else e2e)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("discover-match", "compare-k22",
                            "context-slices"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: tiny inputs, for the benchmark's own tests")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    if not (SRC / "rolealign" / "cli.py").is_file():
        print(f"error: no rolealign source under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    record, metrics = bench(args.workload, args.seed, args.seconds,
                            args.trace, args.size)
    runs = record["runs"]
    failed = sum(not r["ok"] for r in runs)
    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(RESULTS / name, "w") as fh:
        json.dump(record, fh, indent=1)

    prov = record["provenance"]
    print(f"{args.workload} seed {args.seed}: {prov['frames']} frames x "
          f"{prov['agents']} agents, inputs built in "
          f"{prov['input_generation_s']:.2f} s (not a metric)")
    for section in ("end_to_end", "per_layer"):
        for k, m in record[section].items():
            print(f"  {k:34s} {m['value']:14.6g} {m['unit']:9s} "
                  f"(n={m['samples']})")
    for r in runs:
        if not r["ok"]:
            print(f"  FAILED {r['kind']} run: {r['reason']}")
    usable = all(v == v for v, *_ in metrics.values()) and metrics
    print(json.dumps({
        "correct": failed == 0 and bool(usable),
        "attempted": len(runs), "failed": failed,
        "metrics": {k: {"value": v if v == v else None, "unit": u}
                    for k, (v, u, *_) in metrics.items()}}))
    return 0 if usable else 1


if __name__ == "__main__":
    sys.exit(main())
