"""Byte-stability gate: CLI outputs on small seeded inputs keep their bytes.

The inputs are written here from ``sample_dataset`` arrays (not through the
package's writers) in pitch coordinates, with right-to-left frames stored
mirrored and agents listed in a different order on every other frame, so
parsing, normalization and canonical ordering all do real work.  Every
output file except ``manifest.json`` (which records timings and paths) is
compared by sha256 with the value recorded when EM moved to the moment
form (densities and M-step sums as matrix products); a refactor that
changes any output bit fails here.  The hashes hold for float64 numpy with
OpenBLAS on x86-64; another BLAS may round differently.
"""

import hashlib
import json

import numpy as np

from rolealign import cli, ingest, parallel
from rolealign.cli import main
from rolealign.synth import generate_formation, sample_dataset

from oracles import no_child_process

PITCH = np.array([105.0, 68.0])

GOLDEN = {
    "input/match.csv":
        "c1c27adf9666ea4316432c80785348d59dd8c8cd7bdd2f290700fe30844e7b9b",
    "input/contexts.jsonl":
        "cc528700be0a739ef7dd712665d6bc187a6a1f8eda4b57815f9388fdc1e259ef",
    "discover/formation.json":
        "575fb379c441608550010932946ca76b296208c81758d4b2c606c1046730508a",
    "discover/template.json":
        "59e1967cede913b010bbafe54715877c8e64f1194472a6473f08ddccc52e3c87",
    "discover/emtrace.csv":
        "d5d458d372de87d719e276ad51a4dddea6b702e3b705811c71b5a34ae9d906ca",
    "compare/report.json":
        "ff49f842c050b1abcc453dd2de881c3230590d5b1e59a23862a54792d9f54dfb",
    "compare/wce_sweep.csv":
        "c84bc6c35c5f443dba1bb4c870c9f50cbfb6145c758139c1f9820b0673ae249f",
    "compare/pca.csv":
        "dd11d802b054190fc56c50b1d30b9214fe2ac462402505c4acc7d84bfdcec7b4",
    "compare/emtrace.csv":
        "d5d458d372de87d719e276ad51a4dddea6b702e3b705811c71b5a34ae9d906ca",
    "compare/hard_trace.csv":
        "448ee9e5f73b39329d168b185b91982edf6a4e3e3c310f83385db28a2dcce611",
    "context/global.template.json":
        "3739bcd7a753d9e9467f3eb2d7bc060d231aca178a573a2da17979df2631a7ef",
    "context/context_home_g1_1.template.json":
        "c4be91304e04453dbdb954f25234ce2472ef11d18c1a6e29cc4ae83df67ce790",
    "context/context_home_g1_2.template.json":
        "dc54a2c6c51bc7794ce3e6274e4ba8ba6a79b04e1ab593708f63b53d2a3eceb5",
    "context/context_away_g1_1.template.json":
        "53f6fa4af8751c06f2795da6dee8dd0a54820045c1e0c5af90703b7e39e85880",
    "context/context_away_g1_2.template.json":
        "ef2e50ff86f119d00052e3081b20e524cface9537da1dcf21165cf78c4675583",
}


def _pitch_frames(truth, s, seed, flip_every):
    """(stored positions, event flags, right-to-left flags) for S frames."""
    ds, _ = sample_dataset(truth, s, swap_rate=0.05, event_rate=0.2,
                           seed=seed)
    events = ds.is_event
    drift = np.stack([0.01 * np.arange(s), -0.02 * np.arange(s)], axis=1)
    stored = ds.positions + (PITCH / 2 + drift)[:, None, :]
    rl = (np.arange(s) // flip_every) % 2 == 1
    stored[rl] = PITCH - stored[rl]
    return stored, events, rl


def _agent_order(s, n):
    """Agents in id order on even frames, reversed on odd ones."""
    return range(n) if s % 2 == 0 else range(n - 1, -1, -1)


def _write_csv(path, stored, events, rl):
    with open(path, "w") as fh:
        fh.write("frame_id,agent_id,x,y,is_event,attack_direction,team,game,"
                 "period\n")
        for s in range(stored.shape[0]):
            for i in _agent_order(s, stored.shape[1]):
                x, y = stored[s, i]
                fh.write(f"{s},p{i:02d},{float(x)!r},{float(y)!r},"
                         f"{int(events[s])},{'RL' if rl[s] else 'LR'},"
                         f"home,g1,1\n")


def _write_jsonl(path, truth, seed):
    fid = 0
    with open(path, "w") as fh:
        for c, (team, period) in enumerate([("home", 1), ("home", 2),
                                            ("away", 1), ("away", 2)]):
            stored, events, rl = _pitch_frames(truth, 60, seed + c, 30)
            for s in range(stored.shape[0]):
                order = list(_agent_order(s, stored.shape[1]))
                fh.write(json.dumps({
                    "frame_id": fid, "positions": stored[s, order].tolist(),
                    "agent_ids": [f"p{i:02d}" for i in order],
                    "is_event": bool(events[s]),
                    "attack_direction": "RL" if rl[s] else "LR",
                    "team": team, "game": "g1", "period": period}) + "\n")
                fid += 1


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def output_hashes(root):
    """Write the inputs, run the three commands, hash every output."""
    truth = generate_formation(6, separation=3.0, seed=41)
    inp = root / "input"
    inp.mkdir()
    stored, events, rl = _pitch_frames(truth, 300, 41, 100)
    _write_csv(inp / "match.csv", stored, events, rl)
    _write_jsonl(inp / "contexts.jsonl", truth, 43)
    truth.save(inp / "truth.json")
    match = str(inp / "match.csv")
    runs = {
        "discover": ["discover", "--input", match, "--k", "6",
                     "--parent-template", str(inp / "truth.json")],
        "compare": ["compare", "--input", match, "--k", "6",
                    "--filter", "period=1", "--max-iters", "50"],
        "context": ["context", "--input", str(inp / "contexts.jsonl"),
                    "--format", "jsonl", "--k", "6"],
    }
    for name, argv in runs.items():
        assert main(argv + ["--out", str(root / name)]) == 0, name
    return {str(p.relative_to(root)): _sha(p)
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name not in ("manifest.json", "truth.json")}


def test_cli_outputs_match_recorded_hashes(tmp_path):
    assert output_hashes(tmp_path) == GOLDEN


def runs_on_one_and_three_cpus(monkeypatch, root, name, argv):
    """Run ``argv`` with W forced to 1, then to 3.  Each run's outputs
    must equal GOLDEN's ``name/`` entries; returns the task count of every
    ``run_tasks`` call, and the two manifests without their timings, fit
    times and output directory."""
    run_tasks, calls = parallel.run_tasks, []

    def counted(tasks):
        calls.append(len(tasks))
        return run_tasks(tasks)

    monkeypatch.setattr(parallel, "run_tasks", counted)
    monkeypatch.setattr(cli, "run_tasks", counted)
    manifests = []
    for cpus in (1, 3):
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        out = root / f"{name}{cpus}"
        assert main(argv + ["--out", str(out)]) == 0
        assert no_child_process()
        assert {f"{name}/{p.name}": _sha(p) for p in out.iterdir()
                if p.name != "manifest.json"} == \
            {k: v for k, v in GOLDEN.items() if k.startswith(f"{name}/")}
        manifest = json.loads((out / "manifest.json").read_text())
        del manifest["timings"], manifest["config"]["out"]
        for fit in [manifest["stats"].get(key, {}) for key in
                    ("global", "soft", "hard")] + \
                list(manifest["stats"].get("contexts", {}).values()):
            fit.pop("fit_s", None)
            fit.pop("sweep_s", None)
        manifests.append(manifest)
    return calls, manifests


def test_context_outputs_do_not_depend_on_the_cpu_count(tmp_path,
                                                         monkeypatch):
    truth = generate_formation(6, separation=3.0, seed=41)
    path = tmp_path / "contexts.jsonl"
    _write_jsonl(path, truth, 43)
    # 241 lines (the last one empty) in 4 chunks: 3 parts with 3 CPUs
    monkeypatch.setattr(ingest, "JSONL_CHUNK_LINES", 64)
    calls, manifests = runs_on_one_and_three_cpus(
        monkeypatch, tmp_path, "context",
        ["context", "--input", str(path), "--format", "jsonl", "--k", "6"])
    assert calls == [1, 5, 3, 5]   # the parse, then the 5 fits
    assert manifests[0] == manifests[1]


def test_discover_and_compare_outputs_do_not_depend_on_the_cpu_count(
        tmp_path, monkeypatch):
    truth = generate_formation(6, separation=3.0, seed=41)
    stored, events, rl = _pitch_frames(truth, 300, 41, 100)
    path = tmp_path / "match.csv"
    _write_csv(path, stored, events, rl)
    truth.save(tmp_path / "truth.json")
    # 1800 rows (the line after them empty) in 4 chunks: 3 parts with 3 CPUs
    monkeypatch.setattr(ingest, "CSV_CHUNK_ROWS", 512)
    calls, manifests = runs_on_one_and_three_cpus(
        monkeypatch, tmp_path, "discover",
        ["discover", "--input", str(path), "--k", "6",
         "--parent-template", str(tmp_path / "truth.json")])
    assert calls == [1, 3] and manifests[0] == manifests[1]
    calls, manifests = runs_on_one_and_three_cpus(
        monkeypatch, tmp_path, "compare",
        ["compare", "--input", str(path), "--k", "6", "--filter",
         "period=1", "--max-iters", "50"])
    assert calls == [1, 2, 3, 2]   # the parse, then the two branches
    assert manifests[0] == manifests[1]


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(output_hashes(Path(tmp)), sys.stdout, indent=4)
