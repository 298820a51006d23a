"""The prior hard-assignment EM method, kept as an honest comparison target.

Where the soft pipeline lets every point contribute fractionally to every
role, this baseline commits each agent to exactly one role per frame (an
exact assignment per frame, by the soft pipeline's ``assign_positions`` with
no weight term) and refits each role's Gaussian from its assigned points
only.  The exclusive commitment is what makes it slow (one exact assignment
per frame per iteration) and what breaks the usual EM guarantee: its
likelihood sequence may oscillate, which the trace records rather than hides.

The original method used nonparametric role heat maps; roles here are
Gaussians so the two pipelines differ only in the assignment rule, which is
the comparison the likelihood and speed claims need.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .alignment import Template, assign_positions, average_log_likelihood
from .discovery import Formation
from .geometry import Gaussian2D, sample_covariance, split_by_label
from .ingest import Dataset, flatten, write_csv


@dataclass
class HardEmTrace:
    """Per-iteration totals; no monotonicity is promised, that is the point.

    ``certified[i]`` counts the frames of pass i + 1 whose assignment the
    row-argmin certificate settled, and ``tied[i]`` the solved frames of that
    pass with more than one optimum, whose mapping was refined
    lexicographically from the lockstep duals; neither is part of the CSV.
    """

    rows: list = field(default_factory=list)
    converged: bool = False
    oscillated: bool = False
    certified: list = field(default_factory=list)
    tied: list = field(default_factory=list)

    def append(self, iteration, total_cost, avg_loglik, changed_frames):
        self.rows.append((int(iteration), float(total_cost),
                          float(avg_loglik), int(changed_frames)))

    @property
    def logliks(self):
        return [r[2] for r in self.rows]

    def to_csv(self, path):
        write_csv(path, ("iteration", "total_cost", "avg_loglik",
                         "changed_frames"), self.rows)


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


def hard_assignment_em(ds: Dataset, init: Template, max_iters: int = 500
                       ) -> tuple[Formation, np.ndarray, HardEmTrace]:
    """Alternate exclusive per-frame assignment and per-role refits.

    Each pass is ``assign_positions`` of the current roles with no weight
    term (the baseline has no mixture weight), a refit of every role from
    the points assigned to it, and ``average_log_likelihood`` of the refit
    formation.  Stops when no frame's assignment changes, when an
    assignment state repeats (oscillation, flagged on the trace), or after
    max_iters passes.  max_iters=0 still performs the one mandatory
    assign-and-refit pass.  A role assigned zero points keeps its previous
    Gaussian.  Returns the last formation, the last pass's read-only (S, N)
    mappings (``mappings[s, i]`` is the role of agent i in frame s) and the
    trace.
    """
    s, k = ds.n_frames, init.k
    pts = flatten(ds)
    roles = init.roles

    trace = HardEmTrace()
    prev_maps = None
    seen_states = set()
    for it in range(1, max(1, max_iters) + 1):
        batch = assign_positions(roles, ds.positions)
        trace.certified.append(batch.n_certified)
        trace.tied.append(batch.n_tied)
        mappings = batch.mappings
        # a sequential sum in frame order, not numpy's pairwise one:
        # hard_trace.csv records its exact bits
        total_cost = 0.0
        for frame_total in batch.totals.tolist():
            total_cost += frame_total
        changed = s if prev_maps is None else int(
            (mappings != prev_maps).any(axis=1).sum())

        members = split_by_label(pts, mappings.reshape(-1), k)
        # each refit role is built with weight 1/k, then rebuilt with its
        # share: the rebuild applies the eigenvalue floor a second time,
        # which can move a floored covariance's bits
        fits = [old if len(m) == 0 else   # re-seed from previous state
                Gaussian2D(mean=m.mean(axis=0), cov=sample_covariance(m),
                           weight=1.0 / k)
                for old, m in zip(roles, members)]
        weights = np.array([max(len(m), 1) for m in members], dtype=float)
        total = float(np.sum(weights))
        formation = Formation(components=tuple(
            Gaussian2D(mean=r.mean, cov=r.cov, weight=float(w) / total)
            for r, w in zip(fits, weights)))
        roles = formation.components
        trace.append(it, total_cost, average_log_likelihood(ds, formation),
                     changed)

        if changed == 0:
            trace.converged = True
            break
        # a fixed-size digest of the pass's state, not its 8 S N bytes
        key = hashlib.blake2b(np.ascontiguousarray(mappings),
                              digest_size=32).digest()
        if key in seen_states:
            trace.oscillated = True
            break
        seen_states.add(key)
        prev_maps = mappings

    mappings.flags.writeable = False
    return formation, mappings, trace
