"""Seeded synthetic inputs for the three benchmark workloads.

Every input is a pure function of (workload, seed, size): the same seed
writes byte-identical files.  The generator keeps the ground truth it drew
from (role means per formation) and the normalized points the program will
fit, so the checks can recompute quality numbers without re-parsing.

Positions are written in pitch coordinates (a 105 x 68 pitch): each frame's
formation sample is shifted by a drifting team centroid, and frames whose
attacking direction is right-to-left are stored mirrored through the pitch
center.  Undoing both is the program's ingest job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

PITCH = np.array([105.0, 68.0])
FLIP_EVERY = 500          # discover-match: attack direction flips this often

# Each workload tracks one fixed formation, like a team; the seed draws the
# frames (samples, role swaps, events, pitch drift, per-context variation).
# Formations drawn from the seed made K-means and EM iteration counts, and
# with them wall time, differ by up to a fifth between seeds.
FORMATION_SEED = {"discover-match": 101, "compare-k22": 202,
                  "context-slices": 303}


@dataclass(frozen=True)
class Size:
    match_frames: int     # S of discover-match
    compare_frames: int   # S of compare-k22
    context_frames: int   # frames per context of context-slices
    games: int            # context-slices games (x 2 teams x 2 periods)


FULL = Size(match_frames=20_000, compare_frames=1_500, context_frames=600,
            games=6)
SMOKE = Size(match_frames=300, compare_frames=120, context_frames=60,
             games=1)


@dataclass
class Inputs:
    """What one workload's CLI run reads, plus what the checks need."""

    argv: list                  # CLI arguments after "rolealign"
    files: list                 # input paths (provenance: size, sha256)
    frames: int                 # S, frames the program ingests
    agents: int                 # agents per frame
    points: np.ndarray          # normalized (S*N, 2) points in file order
    truth_means: dict = field(default_factory=dict)   # context -> (K, 2)
    # compare writes no formation: a discover run with these arguments
    # fits the same one, and its recomputed avg_loglik goes in
    # reference_loglik (or why it could not, in reference_error)
    reference_argv: list = None
    reference_loglik: float = None
    reference_error: str = ""


def _seed_ints(seed, workload_index, n):
    ss = np.random.SeedSequence([int(seed), workload_index])
    return [int(x) for x in ss.generate_state(n, dtype=np.uint32)]


def _formation(k, seed):
    from rolealign.synth import generate_formation

    return generate_formation(k, separation=3.0, seed=seed)


def _jittered(base, sd, seed):
    """The base formation with every role mean moved by N(0, sd^2 I)."""
    from rolealign.alignment import Template
    from rolealign.geometry import Gaussian2D

    rng = np.random.Generator(np.random.Philox(seed))
    return Template(roles=tuple(
        Gaussian2D(mean=r.mean + rng.normal(0.0, sd, 2), cov=r.cov,
                   weight=r.weight) for r in base.roles))


def _sample(template, frames, seed, swap_rate, event_rate):
    """((S, K, 2) centered positions, event flags, centered true means)."""
    from rolealign.synth import sample_dataset

    ds, _ = sample_dataset(template, frames, swap_rate=swap_rate,
                           event_rate=event_rate, seed=seed)
    events = np.array([f.is_event for f in ds.frames])
    means = template.means
    return ds.stacked(), events, means - means.mean(axis=0)


def _to_pitch(pos, rl, seed):
    """Shift centered frames by a drifting centroid; mirror RL frames.

    Returns the stored coordinates and the normalized points the program
    should recover (RL negated, then per-frame centered), computed from the
    stored values themselves so that they match what ingest sees.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    steps = rng.normal(0.0, 0.3, size=(pos.shape[0], 2))
    drift = np.clip(np.cumsum(steps, axis=0), -25.0, 25.0)
    stored = pos + (PITCH / 2 + drift)[:, None, :]
    stored[rl] = PITCH - stored[rl]
    norm = np.where(rl[:, None, None], -stored, stored)
    norm = norm - norm.mean(axis=1, keepdims=True)
    return stored, norm.reshape(-1, 2)


def _write_csv(path, stored, events, rl, team="", game="", period=1):
    n = stored.shape[1]
    ids = [f"p{i:02d}" for i in range(n)]
    with open(path, "w") as fh:
        fh.write("frame_id,agent_id,x,y,is_event,attack_direction,team,game,"
                 "period\n")
        for s in range(stored.shape[0]):
            tail = f",{int(events[s])},{'RL' if rl[s] else 'LR'}," \
                   f"{team},{game},{period}\n"
            for i in range(n):
                x, y = stored[s, i]
                fh.write(f"{s},{ids[i]},{float(x)!r},{float(y)!r}{tail}")


def discover_match(out: Path, seed: int, size: Size) -> Inputs:
    """One K=10 formation over a long match, CSV, with direction flips."""
    s_seed, p_seed = _seed_ints(seed, 0, 2)
    template = _formation(10, FORMATION_SEED["discover-match"])
    pos, events, means = _sample(template, size.match_frames, s_seed, 0.05,
                                 0.1)
    rl = (np.arange(size.match_frames) // FLIP_EVERY) % 2 == 1
    stored, norm = _to_pitch(pos, rl, p_seed)
    data, truth = out / "match.csv", out / "truth.json"
    _write_csv(data, stored, events, rl)
    template.save(truth)
    return Inputs(argv=["discover", "--input", str(data), "--k", "10",
                        "--parent-template", str(truth)],
                  files=[data, truth], frames=size.match_frames, agents=10,
                  points=norm, truth_means={"match": means})


def compare_k22(out: Path, seed: int, size: Size) -> Inputs:
    """Both teams as one K=22 formation: the assignment-heavy case."""
    s_seed, p_seed = _seed_ints(seed, 1, 2)
    frames = size.compare_frames
    pos, events, _ = _sample(_formation(22, FORMATION_SEED["compare-k22"]),
                             frames, s_seed, 0.05, 0.0)
    rl = np.zeros(frames, dtype=bool)
    stored, norm = _to_pitch(pos, rl, p_seed)
    data = out / "both_teams.csv"
    _write_csv(data, stored, events, rl)
    return Inputs(argv=["compare", "--input", str(data), "--k", "22"],
                  files=[data], frames=frames, agents=22, points=norm,
                  reference_argv=["discover", "--input", str(data), "--k",
                                  "22"])


def context_slices(out: Path, seed: int, size: Size) -> Inputs:
    """2 teams x games x 2 periods of 10 agents, JSONL.

    Every context has its own formation: one shared K=10 formation with
    each role mean moved by N(0, 0.5^2 I) per context, so the per-context
    templates are variants of the global one.  The away team attacks
    right-to-left in period 1 and the home team in period 2, so half of
    every team's frames are stored mirrored.
    """
    data = out / "contexts.jsonl"
    ids = [f"p{i:02d}" for i in range(10)]
    n_ctx = 2 * size.games * 2
    seeds = _seed_ints(seed, 2, 3 * n_ctx)
    base = _formation(10, FORMATION_SEED["context-slices"])
    truth, norms = {}, []
    fid = 0
    with open(data, "w") as fh:
        for c, (team, game, period) in enumerate(
                (t, f"g{g}", p) for t in ("home", "away")
                for g in range(1, size.games + 1) for p in (1, 2)):
            j_seed, s_seed, p_seed = seeds[3 * c:3 * c + 3]
            pos, events, means = _sample(_jittered(base, 0.5, j_seed),
                                         size.context_frames, s_seed,
                                         0.05, 0.1)
            rl_flag = (team == "away") == (period == 1)
            stored, norm = _to_pitch(
                pos, np.full(size.context_frames, rl_flag), p_seed)
            norms.append(norm)
            truth[f"{team}_{game}_{period}"] = means
            for s in range(size.context_frames):
                fh.write(json.dumps({
                    "frame_id": fid, "positions": stored[s].tolist(),
                    "agent_ids": ids, "is_event": bool(events[s]),
                    "attack_direction": "RL" if rl_flag else "LR",
                    "team": team, "game": game, "period": period}) + "\n")
                fid += 1
    return Inputs(argv=["context", "--input", str(data), "--k", "10",
                        "--format", "jsonl"],
                  files=[data], frames=fid, agents=10,
                  points=np.concatenate(norms), truth_means=truth)


WORKLOADS = {
    "discover-match": discover_match,
    "compare-k22": compare_k22,
    "context-slices": context_slices,
}
