"""The prior hard-assignment EM method, kept as an honest comparison target.

Where the soft pipeline lets every point contribute fractionally to every
role, this baseline commits each agent to exactly one role per frame (an
exact assignment per frame, by the same ``assign_batch`` rule the soft
pipeline's role assignment uses) and refits each role's Gaussian from its
assigned points only.  The exclusive commitment is what makes it slow (one
exact assignment per frame per iteration) and what breaks the usual EM
guarantee: its likelihood sequence may oscillate, which the trace records
rather than hides.

The original method used nonparametric role heat maps; roles here are
Gaussians so the two pipelines differ only in the assignment rule, which is
the comparison the likelihood and speed claims need.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .alignment import AlignedDataset, Template
from .assignment import assign_batch
from .discovery import Formation
from .geometry import (Gaussian2D, component_log_pdfs, differential_entropy,
                       log_responsibilities, sample_covariance)
from .ingest import Dataset, flatten


@dataclass
class HardEmTrace:
    """Per-iteration totals; no monotonicity is promised, that is the point.

    ``certified[i]`` counts the frames of pass i + 1 whose assignment the
    row-argmin certificate settled; it is not part of the CSV.
    """

    rows: list = field(default_factory=list)
    converged: bool = False
    oscillated: bool = False
    certified: list = field(default_factory=list)

    def append(self, iteration, total_cost, avg_loglik, changed_frames):
        self.rows.append((int(iteration), float(total_cost),
                          float(avg_loglik), int(changed_frames)))

    @property
    def logliks(self):
        return [r[2] for r in self.rows]

    def to_csv(self, path):
        own = not hasattr(path, "write")
        fh = open(path, "w") if own else path
        try:
            fh.write("iteration,total_cost,avg_loglik,changed_frames\n")
            for it, cost, ll, ch in self.rows:
                fh.write(f"{it},{cost!r},{ll!r},{ch}\n")
        finally:
            if own:
                fh.close()


def player_identity_template(ds: Dataset) -> Template:
    """One Gaussian per agent, fit to that agent's positions across the
    whole dataset: the "each player keeps one role all game" initializer.

    Agents are matched by id (sorted order), frames in frame_id order, same
    canonicalization as the player-mean initializer.
    """
    tracks = ds.agent_tracks()
    n = tracks.shape[1]
    roles = []
    for pts in tracks.transpose(1, 0, 2):
        roles.append(Gaussian2D(mean=pts.mean(axis=0),
                                cov=sample_covariance(pts), weight=1.0 / n))
    return Template(roles=tuple(roles))


def _as_formation(roles, weights):
    total = float(np.sum(weights))
    comps = tuple(Gaussian2D(mean=r.mean, cov=r.cov, weight=float(w) / total)
                  for r, w in zip(roles, weights))
    return Formation(components=comps)


def hard_assignment_em(ds: Dataset, init: Template, max_iters: int = 500
                       ) -> tuple[Formation, AlignedDataset, HardEmTrace]:
    """Alternate exclusive per-frame assignment and per-role refits.

    Stops when no frame's assignment changes, when an assignment state
    repeats (oscillation, flagged on the trace), or after max_iters passes.
    max_iters=0 still performs the one mandatory assign-and-refit pass.  A
    role assigned zero points keeps its previous Gaussian.  Costs are plain
    negative log densities; the baseline has no mixture weight term.
    """
    s, n = ds.n_frames, ds.n_agents
    k = init.k
    if n > k:
        raise ValueError(f"{n} agents cannot fill {k} roles")
    pts = flatten(ds)
    roles = init.roles

    trace = HardEmTrace()
    prev_maps = None
    seen_states = set()
    passes = max(1, max_iters)
    for it in range(1, passes + 1):
        batch = assign_batch(-component_log_pdfs(roles, pts).reshape(s, n, k))
        trace.certified.append(batch.n_certified)
        mappings = batch.mappings
        # a sequential sum in frame order, not numpy's pairwise one:
        # hard_trace.csv records its exact bits
        total_cost = 0.0
        for frame_total in batch.totals.tolist():
            total_cost += frame_total
        changed = s if prev_maps is None else int(
            (mappings != prev_maps).any(axis=1).sum())

        flat_roles = mappings.reshape(-1)
        new_roles = []
        counts = np.zeros(k)
        for j in range(k):
            member = pts[flat_roles == j]
            counts[j] = len(member)
            if len(member) == 0:
                new_roles.append(roles[j])   # re-seed from previous state
            else:
                new_roles.append(Gaussian2D(mean=member.mean(axis=0),
                                            cov=sample_covariance(member),
                                            weight=1.0 / k))
        weights = np.where(counts > 0, counts, 1.0)
        formation = _as_formation(new_roles, weights / weights.sum())
        roles = formation.components
        _, log_mix = log_responsibilities(roles, formation.weights, pts)
        trace.append(it, total_cost, float(log_mix.mean()), changed)

        if changed == 0:
            trace.converged = True
            break
        key = mappings.tobytes()
        if key in seen_states:
            trace.oscillated = True
            break
        seen_states.add(key)
        prev_maps = mappings

    aligned = AlignedDataset.from_batch(ds, batch, k)
    return formation, aligned, trace


@dataclass(frozen=True)
class OverlapPenalty:
    value: float
    std_error: float
    n_samples: int


def overlap_penalty(f: Formation, n_samples: int = 100_000,
                    seed: int = 0) -> OverlapPenalty:
    """V = -H(x) + (1/K) sum_n H(x|n), the negative mutual information
    between a point and the identity of the role that generated it.

    Treats the formation as an equal-weight mixture (the diagnostic's
    definition averages components uniformly).  The conditional entropies
    are closed form; the mixture entropy H(x) is Monte-Carlo estimated from
    at least 1e5 samples and the estimate's standard error is reported.
    V is 0 when the mixture collapses to a single component and approaches
    -ln K as the components pull apart.
    """
    if n_samples < 100_000:
        raise ValueError("need at least 1e5 samples for a stable estimate")
    k = f.k
    if k == 1:
        # conditional and mixture entropies coincide; no estimation needed
        return OverlapPenalty(value=0.0, std_error=0.0, n_samples=n_samples)
    rng = np.random.Generator(np.random.Philox(seed))
    means = f.means
    chols = np.stack([np.linalg.cholesky(c.cov) for c in f.components])
    idx = rng.integers(0, k, size=n_samples)
    z = rng.standard_normal((n_samples, 2))
    x = means[idx] + np.einsum("nij,nj->ni", chols[idx], z)

    _, log_mix = log_responsibilities(f.components, np.full(k, 1.0 / k), x)
    h_mix = -float(log_mix.mean())
    se = float(log_mix.std(ddof=1) / np.sqrt(n_samples))
    h_cond = float(np.mean([differential_entropy(c) for c in f.components]))
    return OverlapPenalty(value=h_cond - h_mix, std_error=se,
                          n_samples=n_samples)
