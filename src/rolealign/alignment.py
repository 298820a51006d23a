"""Template ordering and per-frame role assignment.

A Formation is an unordered bag of Gaussian roles.  Alignment gives it a
fixed order by matching its components one-to-one against a parent template
(minimum total Bhattacharyya distance), after which every frame's agents can
be assigned to role slots by solving a small linear assignment problem per
frame (by ``assign_positions``, a bounded block of frames at a time).  The
aligned output is an S x (2K) matrix whose column blocks are role slots, the
representation all downstream clustering works on.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .assignment import BatchAssignment, assign_batch, hungarian
from .geometry import (Gaussian2D, bhattacharyya_distance, component_log_pdfs,
                       log_mixture_density)
from .ingest import Dataset, filter_key_frames, flatten, write_json
from . import discovery as _disc

# ``assign_positions`` builds at most this many cost entries (8 MiB) at once.
_BLOCK_ENTRIES = 2 ** 20


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


def _alignment_cost(f, g):
    k = f.k
    cost = np.empty((k, k))
    for i, comp in enumerate(f.components):
        for j, role in enumerate(g.roles):
            cost[i, j] = bhattacharyya_distance(comp, role)
    return cost


def align_template(f: "_disc.Formation", g: Template) -> Template:
    """Order f's components so role j is the component matched to g's
    role j, minimizing the total pairwise Bhattacharyya distance."""
    if f.k != g.k:
        raise ValueError(f"formation has {f.k} components, template {g.k}")
    mapping = hungarian(_alignment_cost(f, g)).mapping
    roles = [None] * f.k
    for i, j in enumerate(mapping):
        roles[j] = f.components[i]
    return Template(roles=tuple(roles))


@dataclass(frozen=True)
class AlignedDataset:
    """Role-ordered positions: row s holds frame s's agents rearranged into
    role slots (x then y per role).

    ``mappings[s, i]`` is the role slot of agent i in frame s, and
    ``frame_id[s]`` the frame's id.  When a frame has fewer agents than
    roles the unfilled slots are NaN.  ``n_certified`` counts the frames
    whose mapping the row-argmin certificate settled without a solve, and
    ``n_tied`` the solved frames with more than one optimum, whose mapping
    was refined lexicographically from the lockstep duals.  Arrays are
    stored read-only, uncopied, as in a Dataset.
    """

    matrix: np.ndarray
    mappings: np.ndarray
    frame_id: np.ndarray
    n_certified: int = 0
    n_tied: int = 0

    def __post_init__(self):
        for name, dtype in (("matrix", float), ("mappings", int),
                            ("frame_id", np.int64)):
            value = np.asarray(getattr(self, name), dtype=dtype).view()
            value.flags.writeable = False
            object.__setattr__(self, name, value)

    @property
    def n_frames(self):
        return self.matrix.shape[0]

    @property
    def k(self):
        return self.matrix.shape[1] // 2


def assign_positions(roles, positions, log_weights=0.0) -> BatchAssignment:
    """``assign_batch`` of the costs -(log pdf of agent i under role j) -
    log_weights[j] of an (S, N, 2) positions array, built for whole frames at
    most ``_BLOCK_ENTRIES`` at a time; a frame's costs and assignment depend
    on that frame alone, so the blocks change no bit."""
    s, n, _ = positions.shape
    step = max(1, _BLOCK_ENTRIES // (n * len(roles)))
    out = BatchAssignment(np.empty((s, n), dtype=np.intp), np.empty(s),
                          np.empty(s, dtype=bool), np.empty(s, dtype=bool))
    for lo in range(0, s, step):
        block = positions[lo:lo + step]
        cost = -component_log_pdfs(roles, block.reshape(-1, 2)) - log_weights
        part = assign_batch(cost.reshape(len(block), n, len(roles)))
        for name in ("mappings", "totals", "certified", "tied"):
            getattr(out, name)[lo:lo + step] = getattr(part, name)
    return out


def assign_roles(ds: Dataset, t: Template) -> AlignedDataset:
    """Assign each frame's agents to role slots by minimum total negative
    log-likelihood.

    The per-frame cost of putting agent i in role j is -(log pdf of the
    agent's position under role j + log role weight).
    """
    n = ds.n_agents
    k = t.k
    if n > k:
        raise ValueError(f"{n} agents cannot fill {k} roles injectively")
    batch = assign_positions(t.roles, ds.positions, np.log(t.weights))
    s = ds.n_frames
    slots = np.full((s, k, 2), np.nan)
    slots[np.arange(s)[:, None], batch.mappings] = ds.positions
    return AlignedDataset(matrix=slots.reshape(s, 2 * k),
                          mappings=batch.mappings, frame_id=ds.frame_id,
                          n_certified=batch.n_certified,
                          n_tied=batch.n_tied)


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
    dataset: Dataset       # the dataset assigned: all of run_pipeline's input


def run_pipeline(ds: Dataset, cfg: "_disc.DiscoveryConfig" = None,
                 parent: Template | None = None,
                 key_frames_only: bool = False) -> PipelineResult:
    """Discover, align, assign: the chain on one prepared dataset.

    ``ds`` is used as it comes, so it should already be prepared: the
    commands put raw input through ``normalize_attack_direction`` and then
    ``center_normalize`` (``sample_dataset``'s output is already centered).
    With ``key_frames_only`` discovery sees the event frames alone; role
    assignment always covers all of ``ds``.  When discovery ran on all of
    it, ``avg_loglik`` is the last EM pass's log-likelihood; a filtered
    training set forces recomputation.
    """
    if cfg is None:
        cfg = _disc.DiscoveryConfig(k=ds.n_agents)
    training = filter_key_frames(ds) if key_frames_only else ds
    formation, trace = _disc.discover_formation(training, cfg)
    template = Template.from_formation(formation) if parent is None \
        else align_template(formation, parent)
    aligned = assign_roles(ds, template)
    avg_loglik = average_log_likelihood(ds, formation) if key_frames_only \
        else trace.logliks[-1]
    return PipelineResult(formation=formation, template=template, trace=trace,
                          aligned=aligned, avg_loglik=avg_loglik,
                          dataset=ds)
