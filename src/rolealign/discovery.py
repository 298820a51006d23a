"""Formation discovery: player-mean init, K-Means, and the guarded EM loop.

The discovery phase treats every centered position from every frame as an
unlabeled sample of a K-component 2-D Gaussian mixture.  The EM loop picks
one of two update rules per iteration: the standard full-covariance update,
or a spherical ("soft K-means") update whenever any component's covariance
eigenvalue ratio leaves the band (1/r, r).  The spherical step resets
runaway components instead of letting them collapse onto a stripe of points.

All point-level computation happens on a canonically sorted copy of the
flattened data, so permuting the input rows cannot change the result, not
even in the last floating-point bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import Gaussian2D, covariance_eigenvalues
from .ingest import Dataset, flatten

LOG_2PI = 1.8378770664093453

FULL_GMM = "FullGMM"
SOFT_KMEANS = "SoftKMeans"
INIT = "Init"


@dataclass(frozen=True)
class Formation:
    """A set of K weighted 2-D Gaussians; the order of components carries
    no meaning until alignment fixes one."""

    components: tuple

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("Formation needs at least one component")
        total = sum(c.weight for c in comps)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"component weights sum to {total}, expected 1")
        object.__setattr__(self, "components", comps)

    @property
    def k(self):
        return len(self.components)

    @property
    def weights(self) -> np.ndarray:
        return np.array([c.weight for c in self.components])

    @property
    def means(self) -> np.ndarray:
        return np.stack([c.mean for c in self.components])

    def eigenvalue_ratios(self) -> np.ndarray:
        """Per-component lambda_1 / lambda_2 with lambda_1 >= lambda_2."""
        out = []
        for c in self.components:
            lam1, lam2 = covariance_eigenvalues(c)
            out.append(lam1 / lam2)
        return np.array(out)

    def to_dict(self):
        return {"components": [c.to_dict() for c in self.components]}

    @classmethod
    def from_dict(cls, d):
        return cls(components=tuple(Gaussian2D.from_dict(c)
                                    for c in d["components"]))


@dataclass(frozen=True)
class DiscoveryConfig:
    k: int = 10
    eig_ratio_bound: float = 2.0
    em_tol: float = 1e-6
    max_iters: int = 500
    kmeans_tol: float = 1e-6
    seed: int = 0
    init_mode: str = "player-means"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.eig_ratio_bound <= 1.0:
            raise ValueError("eig_ratio_bound must exceed 1")
        if self.em_tol <= 0 or self.kmeans_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.init_mode not in ("player-means", "random"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")


@dataclass
class EmTrace:
    """Per-iteration EM diagnostics.

    Row 0 describes the state handed to the loop (kind "Init"); row i >= 1
    describes the state after update i.  ``cache`` holds the final-state
    per-point component log densities in the caller's original row order,
    for reuse by role assignment on the same data.
    """

    rows: list = field(default_factory=list)
    converged: bool = False
    cache: np.ndarray | None = None

    def append(self, iteration, loglik, update_kind, eig_ratios):
        self.rows.append((int(iteration), float(loglik), str(update_kind),
                          tuple(float(r) for r in eig_ratios)))

    @property
    def logliks(self):
        return [r[1] for r in self.rows]

    @property
    def update_kinds(self):
        return [r[2] for r in self.rows]

    def to_csv(self, path):
        own = not hasattr(path, "write")
        fh = open(path, "w") if own else path
        try:
            fh.write("iteration,loglik,update_kind,max_eig_ratio\n")
            for it, ll, kind, ratios in self.rows:
                fh.write(f"{it},{ll!r},{kind},{max(ratios)!r}\n")
        finally:
            if own:
                fh.close()


def _component_log_pdfs(formation: Formation, pts: np.ndarray) -> np.ndarray:
    """(P, K) matrix of per-component Gaussian log densities.

    Broadcast over all components at once; with 2x2 covariances the quadratic
    form expands into three scalar precision entries per component.
    """
    means = np.array([c.mean for c in formation.components])
    precs = np.array([c.precision for c in formation.components])
    dets = np.array([c.det for c in formation.components])
    dx = pts[:, None, 0] - means[None, :, 0]
    dy = pts[:, None, 1] - means[None, :, 1]
    quad = (precs[:, 0, 0] * dx * dx
            + 2.0 * precs[:, 0, 1] * dx * dy
            + precs[:, 1, 1] * dy * dy)
    return -LOG_2PI - 0.5 * np.log(dets) - 0.5 * quad


def _e_step(formation, pts):
    """Log responsibilities and the average mixture log-likelihood."""
    log_pdfs = _component_log_pdfs(formation, pts)
    joint = log_pdfs + np.log(formation.weights)
    m = joint.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(joint - m).sum(axis=1, keepdims=True)) + m
    log_resp = joint - log_norm
    return log_resp, float(log_norm.mean())


def _m_step(formation, pts, log_resp, spherical):
    resp = np.exp(log_resp)
    counts = resp.sum(axis=0)
    counts = np.maximum(counts, 1e-300)  # a dead component keeps its mean
    weights = counts / resp.shape[0]
    means = (resp.T @ pts) / counts[:, None]
    dx = pts[:, None, 0] - means[None, :, 0]
    dy = pts[:, None, 1] - means[None, :, 1]
    if spherical:
        c = 0.5 * (resp * (dx * dx + dy * dy)).sum(axis=0) / counts
        covs = np.zeros((formation.k, 2, 2))
        covs[:, 0, 0] = c
        covs[:, 1, 1] = c
    else:
        cxx = (resp * dx * dx).sum(axis=0) / counts
        cxy = (resp * dx * dy).sum(axis=0) / counts
        cyy = (resp * dy * dy).sum(axis=0) / counts
        covs = np.empty((formation.k, 2, 2))
        covs[:, 0, 0] = cxx
        covs[:, 0, 1] = cxy
        covs[:, 1, 0] = cxy
        covs[:, 1, 1] = cyy
    wsum = weights.sum()
    comps = tuple(Gaussian2D(mean=means[k], cov=covs[k],
                             weight=float(weights[k] / wsum))
                  for k in range(formation.k))
    return Formation(components=comps)


def em_step_full(state: Formation, points: np.ndarray) -> Formation:
    """One full-covariance EM update over all points."""
    pts = np.asarray(points, dtype=float)
    log_resp, _ = _e_step(state, pts)
    return _m_step(state, pts, log_resp, spherical=False)


def em_step_spherical(state: Formation, points: np.ndarray) -> Formation:
    """One EM update with covariances constrained to c*I per component."""
    pts = np.asarray(points, dtype=float)
    log_resp, _ = _e_step(state, pts)
    return _m_step(state, pts, log_resp, spherical=True)


def player_mean_init(ds: Dataset) -> np.ndarray:
    """Average position of each agent across all frames, one init point per
    agent.

    Agents are matched by id and ordered by sorted id; frames are summed in
    frame_id order.  Both choices make the result independent of how the
    caller happened to order frames or rows.
    """
    frames = sorted(ds.frames, key=lambda f: f.frame_id)
    ids = sorted(frames[0].agent_ids)
    sums = {a: np.zeros(2) for a in ids}
    for f in frames:
        index = {a: i for i, a in enumerate(f.agent_ids)}
        for a in ids:
            if a not in index:
                raise ValueError(f"agent {a!r} missing from frame {f.frame_id}")
            sums[a] = sums[a] + f.positions[index[a]]
    return np.stack([sums[a] / len(frames) for a in ids])


@dataclass(frozen=True)
class KMeansResult:
    centers: np.ndarray
    labels: np.ndarray
    inertia: tuple   # per-iteration sum of squared distances

    @property
    def n_iterations(self):
        return len(self.inertia)


def kmeans(points: np.ndarray, init: np.ndarray, tol: float = 1e-6,
           max_iters: int = 1000) -> KMeansResult:
    """Lloyd's algorithm run to convergence (max center movement < tol).

    An empty cluster is re-seeded at the point currently farthest from its
    assigned center, which keeps the recorded inertia sequence
    non-increasing: the empty center served no points, so moving it is free.
    """
    pts = np.asarray(points, dtype=float)
    centers = np.array(init, dtype=float)
    k = centers.shape[0]
    if k > pts.shape[0]:
        raise ValueError(f"k={k} exceeds point count {pts.shape[0]}")
    inertia = []
    labels = None
    rows = np.arange(len(pts))
    for _ in range(max_iters):
        if pts.shape[1] == 2:
            # column by column: the same two additions as the reduction
            # below, without its (P, K, 2) temporary
            d2 = (pts[:, None, 0] - centers[None, :, 0]) ** 2
            d2 += (pts[:, None, 1] - centers[None, :, 1]) ** 2
        else:
            d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        for empty in range(k):
            if counts[empty]:
                continue
            far = int(np.argmax(d2[rows, labels]))
            centers[empty] = pts[far]
            counts[labels[far]] -= 1
            counts[empty] = 1
            labels[far] = empty
            d2[:, empty] = ((pts - centers[empty]) ** 2).sum(axis=1)
        inertia.append(float(d2[rows, labels].sum()))
        # per-column bincount adds each cluster's points in row order, as
        # pts[labels == j].sum(axis=0) does, so the means are unchanged
        sums = np.stack([np.bincount(labels, weights=pts[:, c], minlength=k)
                         for c in range(pts.shape[1])], axis=1)
        new_centers = sums / counts[:, None]
        movement = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if movement < tol:
            break
    return KMeansResult(centers=centers, labels=labels, inertia=tuple(inertia))


def _formation_from_clusters(pts, centers, labels, eig_floor=None):
    comps = []
    total = len(pts)
    k = centers.shape[0]
    for j in range(k):
        members = pts[labels == j]
        cov = np.cov(members.T, bias=True) if len(members) > 1 else np.eye(2)
        comps.append(Gaussian2D(mean=centers[j], cov=np.atleast_2d(cov),
                                weight=len(members) / total))
    return Formation(components=tuple(comps))


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Indices that sort rows lexicographically by (x, y)."""
    pts = np.asarray(points)
    return np.lexsort((pts[:, 1], pts[:, 0]))


def discover_formation(ds: Dataset, cfg: DiscoveryConfig = DiscoveryConfig()
                       ) -> tuple[Formation, EmTrace]:
    """Run init -> K-Means -> guarded EM on a centered Dataset.

    The eigenvalue guard is global: if any component's covariance ratio
    falls outside (1/r, r) the next update is spherical for all components,
    otherwise it is the full GMM update.  Termination happens when a full
    update's relative average log-likelihood gain drops below em_tol
    (spherical resets never terminate the loop) or at max_iters.
    """
    flat = flatten(ds)
    if cfg.k > flat.shape[0]:
        raise ValueError(f"k={cfg.k} exceeds total point count {flat.shape[0]}")
    order = canonical_order(flat)
    pts = flat[order]

    if cfg.init_mode == "player-means":
        init = player_mean_init(ds)
        if init.shape[0] != cfg.k:
            raise ValueError(f"player-means init gives {init.shape[0]} "
                             f"centers but k={cfg.k}; use random init")
    else:
        rng = np.random.Generator(np.random.Philox(cfg.seed))
        rows = rng.choice(pts.shape[0], size=cfg.k, replace=False)
        init = pts[np.sort(rows)]

    km = kmeans(pts, init, tol=cfg.kmeans_tol)
    state = _formation_from_clusters(pts, km.centers, km.labels)

    trace = EmTrace()
    log_resp, loglik = _e_step(state, pts)
    trace.append(0, loglik, INIT, state.eigenvalue_ratios())

    # Convergence compares full updates against the previous full update:
    # a spherical reset drops the bound on purpose, and on data whose true
    # ratios sit at the band edge the loop alternates reset/recover, so
    # judging a full step against the reset right before it would never
    # terminate.
    r = cfg.eig_ratio_bound
    last_full = loglik
    for it in range(1, cfg.max_iters + 1):
        ratios = state.eigenvalue_ratios()
        spherical = bool(np.any(ratios >= r) or np.any(ratios <= 1.0 / r))
        kind = SOFT_KMEANS if spherical else FULL_GMM
        state = _m_step(state, pts, log_resp, spherical=spherical)
        log_resp, loglik = _e_step(state, pts)
        trace.append(it, loglik, kind, state.eigenvalue_ratios())
        if not spherical:
            gain = (loglik - last_full) / max(abs(last_full), 1e-12)
            last_full = loglik
            if gain < cfg.em_tol:
                trace.converged = True
                break

    # Final-state per-point log densities, unsorted back to caller order,
    # so role assignment on the training data can skip recomputation.
    dens_sorted = _component_log_pdfs(state, pts)
    cache = np.empty_like(dens_sorted)
    cache[order] = dens_sorted
    trace.cache = cache
    return state, trace
