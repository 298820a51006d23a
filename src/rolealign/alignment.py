"""Template ordering and per-frame role assignment.

A Formation is an unordered bag of Gaussian roles.  Alignment gives it a
fixed order by matching its components one-to-one against a parent template
(minimum total Bhattacharyya distance), after which every frame's agents can
be assigned to role slots by solving a small linear assignment problem per
frame (all frames at once, through ``assign_batch``).  The aligned output is
an S x (2K) matrix whose column blocks are role slots, the representation
all downstream clustering works on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .assignment import assign_batch, hungarian
from .geometry import (Gaussian2D, bhattacharyya_distance, component_log_pdfs,
                       log_mixture_density, mahalanobis_between_means)
from .ingest import Dataset, flatten, write_csv, write_json, write_jsonl
from . import discovery as _disc


@dataclass(frozen=True)
class Template:
    """An ordered vector of Gaussian roles; position in the tuple is the
    role index."""

    roles: tuple

    def __post_init__(self):
        roles = tuple(self.roles)
        if not roles:
            raise ValueError("Template needs at least one role")
        object.__setattr__(self, "roles", roles)

    @property
    def k(self):
        return len(self.roles)

    @property
    def weights(self) -> np.ndarray:
        return np.array([r.weight for r in self.roles])

    @property
    def means(self) -> np.ndarray:
        return np.stack([r.mean for r in self.roles])

    @classmethod
    def from_formation(cls, f: "_disc.Formation") -> "Template":
        """Adopt the formation's incidental component order as the role order."""
        return cls(roles=tuple(f.components))

    def to_dict(self):
        return {"roles": [r.to_dict() for r in self.roles]}

    @classmethod
    def from_dict(cls, d):
        return cls(roles=tuple(Gaussian2D.from_dict(r) for r in d["roles"]))

    def save(self, path):
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def _alignment_cost(f, g, metric):
    k = f.k
    cost = np.empty((k, k))
    for i, comp in enumerate(f.components):
        for j, role in enumerate(g.roles):
            if metric == "bhattacharyya":
                cost[i, j] = bhattacharyya_distance(comp, role)
            else:
                cost[i, j] = mahalanobis_between_means(comp, role)
    return cost


def _align_with_mapping(f, g, metric="bhattacharyya"):
    if f.k != g.k:
        raise ValueError(f"formation has {f.k} components, template {g.k}")
    if metric not in ("bhattacharyya", "mahalanobis"):
        raise ValueError(f"unknown metric {metric!r}")
    mapping = hungarian(_alignment_cost(f, g, metric)).mapping
    roles = [None] * f.k
    for i, j in enumerate(mapping):
        roles[j] = f.components[i]
    return Template(roles=tuple(roles)), mapping


def align_template(f: "_disc.Formation", g: Template,
                   metric: str = "bhattacharyya") -> Template:
    """Order f's components so role j is the component matched to g's
    role j, minimizing the total pairwise distance.

    metric "bhattacharyya" (default) uses the full distributional distance;
    "mahalanobis" matches on means scaled by the parent's covariances.
    """
    aligned, _ = _align_with_mapping(f, g, metric)
    return aligned


@dataclass(frozen=True)
class AlignedDataset:
    """Role-ordered positions: row s holds frame s's agents rearranged into
    role slots (x then y per role).

    ``mappings[s, i]`` is the role slot of agent i in frame s, and
    ``frame_id[s]`` the frame's id.  When a frame has fewer agents than
    roles the unfilled slots are NaN.  ``n_certified`` counts the frames
    whose mapping the row-argmin certificate settled without a solve, and
    ``n_tied`` the solved frames with more than one optimum, whose mapping
    was refined lexicographically from the lockstep duals.  ``totals[s]``
    is the total cost of frame s's mapping.  Arrays are stored read-only,
    uncopied, as in a Dataset.
    """

    matrix: np.ndarray
    mappings: np.ndarray
    frame_id: np.ndarray
    n_certified: int = 0
    n_tied: int = 0
    totals: np.ndarray = ()

    def __post_init__(self):
        for name, dtype in (("matrix", float), ("mappings", int),
                            ("frame_id", np.int64), ("totals", float)):
            value = np.asarray(getattr(self, name), dtype=dtype).view()
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_frames(self):
        return self.matrix.shape[0]

    @property
    def k(self):
        return self.matrix.shape[1] // 2

    def role_positions(self, s: int) -> np.ndarray:
        """Frame s as a (K, 2) array in role order."""
        return self.matrix[s].reshape(-1, 2)

    def to_csv(self, path):
        header = ["frame_id"] + [f"role_{j}_{c}" for j in range(self.k)
                                 for c in "xy"]
        write_csv(path, header, ([fid, *row] for fid, row in
                                 zip(self.frame_id.tolist(),
                                     self.matrix.tolist())))

    def to_jsonl(self, path):
        positions = self.matrix.reshape(-1, self.k, 2).tolist()
        write_jsonl(path, ({"frame_id": fid, "permutation": mapping,
                            "positions": pos} for fid, mapping, pos in
                           zip(self.frame_id.tolist(), self.mappings.tolist(),
                               positions)))


def assign_roles(ds: Dataset, t: Template,
                 include_weights: bool = True) -> AlignedDataset:
    """Assign each frame's agents to role slots by minimum total negative
    log-likelihood.

    The per-frame cost of putting agent i in role j is -(log pdf of the
    agent's position under role j + log role weight); with
    include_weights=False the weight term is dropped.
    """
    n = ds.n_agents
    k = t.k
    if n > k:
        raise ValueError(f"{n} agents cannot fill {k} roles injectively")
    cost_all = -component_log_pdfs(t.roles, flatten(ds))
    if include_weights:
        cost_all = cost_all - np.log(t.weights)
    s = ds.n_frames
    batch = assign_batch(cost_all.reshape(s, n, k))
    slots = np.full((s, k, 2), np.nan)
    slots[np.arange(s)[:, None], batch.mappings] = ds.positions
    return AlignedDataset(matrix=slots.reshape(s, 2 * k),
                          mappings=batch.mappings, frame_id=ds.frame_id,
                          n_certified=batch.n_certified,
                          n_tied=batch.n_tied, totals=batch.totals)


def average_log_likelihood(ds: Dataset, f: "_disc.Formation") -> float:
    """Mean over all points of the log mixture density under f."""
    return float(log_mixture_density(f.components, f.weights,
                                     flatten(ds)).mean())


@dataclass(frozen=True)
class PipelineResult:
    formation: "_disc.Formation"
    template: Template
    trace: "_disc.EmTrace"
    aligned: AlignedDataset
    avg_loglik: float
    dataset: Dataset       # normalized, centered, unfiltered
    training: Dataset      # what discovery actually saw


def run_pipeline(ds: Dataset, cfg: "_disc.DiscoveryConfig" = None,
                 parent: Template | None = None,
                 key_frames_only: bool = False) -> PipelineResult:
    """Normalize, discover, align, assign: the full end-to-end chain.

    Order is fixed: attack-direction normalization, per-frame centering,
    optional key-frame filtering for the discovery stage only.  Role
    assignment always covers the full (unfiltered) dataset.  When discovery
    ran on the full dataset, ``avg_loglik`` is the last EM pass's
    log-likelihood; a filtered training set forces recomputation.
    """
    from .ingest import center_normalize, filter_key_frames, \
        normalize_attack_direction

    if cfg is None:
        cfg = _disc.DiscoveryConfig(k=ds.n_agents)
    full = center_normalize(normalize_attack_direction(ds))
    training = filter_key_frames(full) if key_frames_only else full
    formation, trace = _disc.discover_formation(training, cfg)
    template = Template.from_formation(formation) if parent is None \
        else align_template(formation, parent)
    aligned = assign_roles(full, template)
    avg_loglik = average_log_likelihood(full, formation) if key_frames_only \
        else trace.logliks[-1]
    return PipelineResult(formation=formation, template=template, trace=trace,
                          aligned=aligned, avg_loglik=avg_loglik,
                          dataset=full, training=training)
