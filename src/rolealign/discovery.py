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

from .geometry import (Gaussian2D, component_log_pdfs, covariance_eigenvalues,
                       log_responsibilities, sample_covariance)
from .ingest import Dataset, flatten

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


def _work_arrays(p, k):
    """Four (P, K) arrays for the E- and M-steps to compute in."""
    return [np.empty((p, k)) for _ in range(4)]


def _m_step(formation, pts, log_resp, spherical, work=None):
    """The EM update from log responsibilities.  ``work`` is overwritten,
    ``log_resp`` too when it is ``work``'s first array."""
    resp, dx, dy, term = work or [None] * 4
    resp = np.exp(log_resp, out=resp)
    counts = resp.sum(axis=0)
    dead = counts < 1e-300   # responsibility mass underflowed
    counts = np.maximum(counts, 1e-300)
    weights = counts / resp.shape[0]
    means = (resp.T @ pts) / counts[:, None]
    dx = np.subtract(pts[:, None, 0], means[None, :, 0], out=dx)
    dy = np.subtract(pts[:, None, 1], means[None, :, 1], out=dy)
    # the weighted squares are formed in place, in the operand order of
    # resp * (dx*dx + dy*dy) and resp*dx*dx, resp*dx*dy, resp*dy*dy
    if spherical:
        dx *= dx
        dy *= dy
        dx += dy
        dx *= resp
        c = 0.5 * dx.sum(axis=0) / counts
        covs = np.zeros((formation.k, 2, 2))
        covs[:, 0, 0] = c
        covs[:, 1, 1] = c
    else:
        term = np.multiply(resp, dx, out=term)
        term *= dx
        cxx = term.sum(axis=0) / counts
        np.multiply(resp, dx, out=term)
        term *= dy
        cxy = term.sum(axis=0) / counts
        np.multiply(resp, dy, out=term)
        term *= dy
        cyy = term.sum(axis=0) / counts
        covs = np.empty((formation.k, 2, 2))
        covs[:, 0, 0] = cxx
        covs[:, 0, 1] = cxy
        covs[:, 1, 0] = cxy
        covs[:, 1, 1] = cyy
    # a dead component keeps its mean and covariance
    for k in np.flatnonzero(dead):
        means[k] = formation.components[k].mean
        covs[k] = formation.components[k].cov
    wsum = weights.sum()
    comps = tuple(Gaussian2D(mean=means[k], cov=covs[k],
                             weight=float(weights[k] / wsum))
                  for k in range(formation.k))
    return Formation(components=comps)


def em_step_full(state: Formation, points: np.ndarray) -> Formation:
    """One full-covariance EM update over all points."""
    pts = np.asarray(points, dtype=float)
    log_resp, _ = log_responsibilities(state.components, state.weights, pts)
    return _m_step(state, pts, log_resp, spherical=False)


def player_mean_init(ds: Dataset) -> np.ndarray:
    """Average position of each agent across all frames, one init point per
    agent.

    Agents are matched by id and ordered by sorted id; frames are summed in
    frame_id order (see ``Dataset.agent_tracks``).  Both choices make the
    result independent of how the caller happened to order frames or rows.
    """
    tracks = ds.agent_tracks()
    # a sum over the leading axis adds frame after frame, like a running sum
    return tracks.sum(axis=0) / len(tracks)


@dataclass(frozen=True)
class KMeansResult:
    centers: np.ndarray
    labels: np.ndarray
    inertia: tuple   # per-iteration sum of squared distances

    @property
    def n_iterations(self):
        return len(self.inertia)


def kmeans(points: np.ndarray, init: np.ndarray, tol: float = 1e-6,
           max_iters: int = 1000, work=None) -> KMeansResult:
    """Lloyd's algorithm run to convergence (max center movement < tol).

    An empty cluster is re-seeded at the point currently farthest from its
    assigned center, which keeps the recorded inertia sequence
    non-increasing: the empty center served no points, so moving it is free.
    The point is never taken from a cluster whose only member it is, which
    would leave that cluster empty.  2-D distances are computed in the
    first two (P, K) arrays of ``work`` if given, else in two fresh ones.
    """
    pts = np.asarray(points, dtype=float)
    centers = np.array(init, dtype=float)
    k = centers.shape[0]
    if k > pts.shape[0]:
        raise ValueError(f"k={k} exceeds point count {pts.shape[0]}")
    inertia = []
    labels = None
    rows = np.arange(len(pts))
    if pts.shape[1] == 2:
        # (P, K) arrays reused by every iteration
        d2, dy2 = work or (np.empty((len(pts), k)), np.empty((len(pts), k)))
    for _ in range(max_iters):
        if pts.shape[1] == 2:
            # column by column: the same two additions as the reduction
            # below, without its (P, K, 2) temporary
            np.square(np.subtract(pts[:, None, 0], centers[None, :, 0],
                                  out=d2), out=d2)
            np.square(np.subtract(pts[:, None, 1], centers[None, :, 1],
                                  out=dy2), out=dy2)
            d2 += dy2
        else:
            d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        for empty in range(k):
            if counts[empty]:
                continue
            far = int(np.argmax(np.where(counts[labels] > 1, d2[rows, labels],
                                         -np.inf)))
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


def _formation_from_clusters(pts, centers, labels):
    comps = []
    total = len(pts)
    k = centers.shape[0]
    for j in range(k):
        members = pts[labels == j]
        comps.append(Gaussian2D(mean=centers[j], cov=sample_covariance(members),
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

    # K-means and every E- and M-step compute in these
    work = _work_arrays(len(pts), cfg.k)
    km = kmeans(pts, init, tol=cfg.kmeans_tol, work=work[:2])
    state = _formation_from_clusters(pts, km.centers, km.labels)

    trace = EmTrace()
    log_resp, log_mix = log_responsibilities(state.components, state.weights,
                                             pts, work)
    loglik = float(log_mix.mean())
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
        state = _m_step(state, pts, log_resp, spherical=spherical, work=work)
        log_resp, log_mix = log_responsibilities(state.components,
                                                 state.weights, pts, work)
        loglik = float(log_mix.mean())
        trace.append(it, loglik, kind, state.eigenvalue_ratios())
        if not spherical:
            gain = (loglik - last_full) / max(abs(last_full), 1e-12)
            last_full = loglik
            if gain < cfg.em_tol:
                trace.converged = True
                break

    # Final-state per-point log densities, unsorted back to caller order,
    # so role assignment on the training data can skip recomputation.
    dens_sorted = component_log_pdfs(state.components, pts, work)
    cache = np.empty_like(dens_sorted)
    cache[order] = dens_sorted
    trace.cache = cache
    return state, trace
