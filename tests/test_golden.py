"""Byte-stability gate: CLI outputs on small seeded inputs keep their bytes.

The inputs are written here from ``sample_dataset`` arrays (not through the
package's writers) in pitch coordinates, with right-to-left frames stored
mirrored and agents listed in a different order on every other frame, so
parsing, normalization and canonical ordering all do real work.  Every
output file except ``manifest.json`` (which records timings and paths) is
compared by sha256 with the value recorded before the columnar ``Dataset``
rewrite; a refactor that changes any output bit fails here.  The hashes
hold for float64 numpy on x86-64; another BLAS may round differently.
"""

import hashlib
import json

import numpy as np

from rolealign.cli import main
from rolealign.synth import generate_formation, sample_dataset

PITCH = np.array([105.0, 68.0])

GOLDEN = {
    "input/match.csv":
        "c1c27adf9666ea4316432c80785348d59dd8c8cd7bdd2f290700fe30844e7b9b",
    "input/contexts.jsonl":
        "cc528700be0a739ef7dd712665d6bc187a6a1f8eda4b57815f9388fdc1e259ef",
    "discover/formation.json":
        "98e4e03816569f7da3bd91d7bb19e8ba681d5ca83ff7555505028450b68fe1c9",
    "discover/template.json":
        "0d521bcaeefb0d6299f59edeb9897d2af3403a72a8b6683972532748e4cc0a44",
    "discover/emtrace.csv":
        "a8abc9f5ea4e55282b24e8db19c4c289d6554f8e35f02150a0f9ec51879d9e37",
    "compare/report.json":
        "d2096c4a79a90c46add681a5b07b3b921d2597aa153d266b51be19f80d15cf8e",
    "compare/wce_sweep.csv":
        "c84bc6c35c5f443dba1bb4c870c9f50cbfb6145c758139c1f9820b0673ae249f",
    "compare/pca.csv":
        "88fe1ec880a40b94efc2cef8ee4a1b7c480a8847085bfb272eccdc406070b7de",
    "compare/emtrace.csv":
        "a8abc9f5ea4e55282b24e8db19c4c289d6554f8e35f02150a0f9ec51879d9e37",
    "compare/hard_trace.csv":
        "be11d3d780eb0a8548588dfca7ba575ab0ae6761359eb70fa186d1620e9954d4",
    "context/global.template.json":
        "e1a6b49eedf3870b705946c07c92ad112128476a4533b228d436e7fe20142133",
    "context/context_home_g1_1.template.json":
        "5d901814111ba86c8abc7c8cbf7164ded8dbd1f9ccb99e769b8352ee5a1996f2",
    "context/context_home_g1_2.template.json":
        "4bb38ef7b8d204b6016317ef79849f52fed0280e01cf984ba99cc3ac979ef3af",
    "context/context_away_g1_1.template.json":
        "8299a706115c996bf91855127bbee98216ba4555a22a6be1b91ae73ad6dbd76d",
    "context/context_away_g1_2.template.json":
        "8210719245e7bb413f927b8c88bd5b9d11a77053a4cd512a91dde6c67f661683",
}


def _pitch_frames(truth, s, seed, flip_every):
    """(stored positions, event flags, right-to-left flags) for S frames."""
    ds, _ = sample_dataset(truth, s, swap_rate=0.05, event_rate=0.2,
                           seed=seed)
    events = np.array([f.is_event for f in ds.frames])
    drift = np.stack([0.01 * np.arange(s), -0.02 * np.arange(s)], axis=1)
    stored = ds.stacked() + (PITCH / 2 + drift)[:, None, :]
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


if __name__ == "__main__":
    import sys
    import tempfile
    from pathlib import Path

    with tempfile.TemporaryDirectory() as tmp:
        json.dump(output_hashes(Path(tmp)), sys.stdout, indent=4)
