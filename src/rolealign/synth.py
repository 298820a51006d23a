"""Synthetic ground truth: formation generator, frame sampler, and scoring.

Real tracking data is proprietary, so every end-to-end check in this package
runs against datasets sampled from known formations.  The generator places K
anisotropic Gaussians with a guaranteed minimum mean separation (in units of
the largest component standard deviation), samples one point per role per
frame, and perturbs agent-role identities with contiguous swap runs.  All
randomness flows through a counter-based generator (Philox) keyed by an
explicit seed, so regeneration is byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .alignment import AlignedDataset, Template
from .assignment import hungarian
from .geometry import Gaussian2D
from .ingest import Dataset, center_normalize

# Means are placed at 1.45x the promised separation floor so that the
# closest pair sits comfortably beyond it, not exactly on it.
PLACEMENT_MARGIN = 1.45


def _sample_covariances(k, anisotropy, base_sigma, rng):
    covs = []
    for _ in range(k):
        ratio = rng.uniform(anisotropy[0], anisotropy[1])
        lam2 = (base_sigma ** 2) * rng.uniform(0.6, 1.0)
        lam1 = ratio * lam2
        theta = rng.uniform(0.0, np.pi)
        c, s = np.cos(theta), np.sin(theta)
        rot = np.array([[c, -s], [s, c]])
        covs.append(rot @ np.diag([lam1, lam2]) @ rot.T)
    return covs


def _place_means(k, min_dist, rng):
    """Dart throwing with a minimum pairwise gap; grows the box on failure."""
    side = min_dist * (np.sqrt(k) + 1.0)
    for _ in range(60):
        means = []
        ok = True
        for _ in range(k):
            placed = False
            for _ in range(400):
                cand = rng.uniform(-side / 2, side / 2, size=2)
                if all(np.hypot(*(cand - m)) >= min_dist for m in means):
                    means.append(cand)
                    placed = True
                    break
            if not placed:
                ok = False
                break
        if ok:
            return np.stack(means)
        side *= 1.12
    raise ValueError(f"cannot place {k} means at separation {min_dist:.3g}; "
                     f"packing infeasible")


def generate_formation(k: int, separation: float = 3.0,
                       anisotropy: tuple = (1.0, 1.6), seed: int = 0,
                       base_sigma: float = 1.0) -> Template:
    """Build a K-role formation with controlled overlap.

    All pairwise mean distances are at least separation times the largest
    component standard deviation.  Covariance eigenvalue ratios are drawn
    from the anisotropy range, orientations uniformly.  The mean cloud is
    centered on the origin and weights are uniform.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.Generator(np.random.Philox(seed))
    covs = _sample_covariances(k, anisotropy, base_sigma, rng)
    if k == 1:
        return Template(roles=(Gaussian2D(mean=np.zeros(2), cov=covs[0],
                                          weight=1.0),))
    max_sigma = max(np.sqrt(np.linalg.eigvalsh(c).max()) for c in covs)
    floor = separation * max_sigma
    means = _place_means(k, PLACEMENT_MARGIN * floor, rng)
    means = means - means.mean(axis=0)
    for i in range(k):
        for j in range(i + 1, k):
            if np.hypot(*(means[i] - means[j])) < floor:
                raise RuntimeError("separation floor violated after placement")
    roles = tuple(Gaussian2D(mean=means[i], cov=covs[i], weight=1.0 / k)
                  for i in range(k))
    return Template(roles=roles)


@dataclass(frozen=True)
class GroundTruth:
    """What the sampler actually did: generating template plus the true
    agent-to-role map of every frame."""

    template: Template
    true_maps: np.ndarray   # (S, N) role index of each agent per frame
    swap_rate: float
    event_rate: float
    seed: int

    def __post_init__(self):
        m = np.array(self.true_maps, dtype=int)
        m.flags.writeable = False
        object.__setattr__(self, "true_maps", m)
        for row in m:
            if len(set(row.tolist())) != len(row):
                raise ValueError("true map is not injective")


def sample_dataset(t: Template, s: int, swap_rate: float = 0.0,
                   event_rate: float = 0.0, seed: int = 0,
                   swap_run_mean: float = 20.0, team: str = "",
                   game: str = "", period: int = 1
                   ) -> tuple[Dataset, GroundTruth]:
    """Draw S frames from a formation with positional swap runs.

    Each frame takes one sample from every role.  Agent i nominally plays
    role i; with probability swap_rate per frame (when no swap is active) two
    agents exchange roles for a geometric-length run of mean swap_run_mean
    frames.  Frames are flagged as events at event_rate and the returned
    dataset is per-frame centered.
    """
    k = t.k
    if s < 1:
        raise ValueError("need at least one frame")
    rng = np.random.Generator(np.random.Philox(seed))
    chols = [np.linalg.cholesky(r.cov) for r in t.roles]
    draws = np.empty((k, s, 2))
    for r in range(k):
        z = rng.standard_normal((s, 2))
        draws[r] = t.roles[r].mean + z @ chols[r].T

    true_maps = np.empty((s, k), dtype=int)
    current = np.arange(k)
    remaining = 0
    active_pair = None
    for frame in range(s):
        if remaining > 0:
            remaining -= 1
            if remaining == 0:
                i, j = active_pair
                current[i], current[j] = current[j], current[i]
                active_pair = None
        if active_pair is None and swap_rate > 0 and rng.random() < swap_rate:
            i, j = rng.choice(k, size=2, replace=False)
            current[i], current[j] = current[j], current[i]
            active_pair = (i, j)
            remaining = int(rng.geometric(1.0 / swap_run_mean))
        true_maps[frame] = current

    events = rng.random(s) < event_rate
    width = max(2, len(str(k - 1)))
    frames = np.arange(s)
    ds = center_normalize(Dataset(
        positions=draws[true_maps, frames[:, None]], agent_codes=np.arange(k),
        agent_table=[f"p{i:0{width}d}" for i in range(k)], frame_id=frames,
        is_event=events, team=team, game=game, period=period))
    truth = GroundTruth(template=t, true_maps=true_maps,
                        swap_rate=swap_rate, event_rate=event_rate, seed=seed)
    return ds, truth


def write_truth_jsonl(truth: GroundTruth, path) -> None:
    """Sidecar file: one {"frame_id", "roles"} object per frame."""
    with open(path, "w") as fh:
        for s, row in enumerate(truth.true_maps):
            fh.write(json.dumps({"frame_id": s,
                                 "roles": [int(r) for r in row]}) + "\n")


def read_truth_maps(path) -> np.ndarray:
    rows = []
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rows.append(json.loads(line)["roles"])
    return np.array(rows, dtype=int)


def recovery_score(predicted: AlignedDataset, truth: GroundTruth) -> float:
    """Fraction of frames whose permutation matches the truth, allowing one
    global relabeling of roles.

    The relabel absorbs the arbitrary role numbering of a freshly discovered
    formation: predicted and true role indices are matched once, over all
    frames, by maximizing agreement counts.
    """
    s = truth.true_maps.shape[0]
    if predicted.n_frames != s:
        raise ValueError(f"predicted has {predicted.n_frames} frames, "
                         f"truth has {s}")
    k = predicted.k
    counts = np.zeros((k, k))
    np.add.at(counts, (predicted.mappings, truth.true_maps), 1)
    relabel = hungarian(counts.max() - counts).mapping
    exact = (relabel[predicted.mappings] == truth.true_maps).all(axis=1)
    return int(exact.sum()) / s
