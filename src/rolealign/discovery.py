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

from .geometry import (BLOCK, Gaussian2D, covariance_eigenvalues,
                       density_coefficients, moment_features, nearest_centers,
                       posterior_moments, rounding_gamma, sample_covariance,
                       split_by_label, sq_dist_to)
from .ingest import Dataset, flatten, write_csv

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
    seed: int = 0
    init_mode: str = "player-means"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.eig_ratio_bound <= 1.0:
            raise ValueError("eig_ratio_bound must exceed 1")
        if self.em_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_iters < 0:
            raise ValueError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.init_mode not in ("player-means", "random"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")


@dataclass
class EmTrace:
    """Per-iteration EM diagnostics.

    Row 0 describes the state handed to the loop (kind "Init"); row i >= 1
    describes the state after update i.  ``kmeans`` holds the counters of
    the K-means run that gave the init: iterations, searched, settled and
    fallback (see ``KMeansResult``).
    """

    rows: list = field(default_factory=list)
    converged: bool = False
    kmeans: dict = field(default_factory=dict)

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
        write_csv(path,
                  ("iteration", "loglik", "update_kind", "max_eig_ratio"),
                  ((it, ll, kind, max(ratios))
                   for it, ll, kind, ratios in self.rows))


def _em_pass(state, pts, spherical):
    """One E- and M-step over ``pts`` in blocks of BLOCK rows: the (P,) log
    mixture density of every point under ``state``, and the next formation
    (isotropic covariances if ``spherical``), fitted from the sums of
    responsibility times moment feature."""
    coef = density_coefficients(state.components, state.weights)
    log_mix = np.empty(len(pts))
    sums = np.zeros((state.k, 6))
    for lo in range(0, len(pts), BLOCK):
        block = slice(lo, lo + BLOCK)
        log_mix[block], block_sums = posterior_moments(
            moment_features(pts[block]), coef)
        sums += block_sums
    counts = sums[:, 5]
    dead = counts < 1e-300   # responsibility mass underflowed
    counts = np.maximum(counts, 1e-300)
    weights = counts / len(pts)
    means = sums[:, 3:5] / counts[:, None]
    # central second moments E[xx'] - mean mean'
    cxx, cxy, cyy = (sums[:, :3] / counts[:, None]
                     - means[:, [0, 0, 1]] * means[:, [0, 1, 1]]).T
    if spherical:
        cxx = cyy = 0.5 * (cxx + cyy)
        cxy = np.zeros(state.k)
    covs = np.stack([cxx, cxy, cxy, cyy], axis=1).reshape(-1, 2, 2)
    # a dead component keeps its mean and covariance
    for k in np.flatnonzero(dead):
        means[k] = state.components[k].mean
        covs[k] = state.components[k].cov
    wsum = weights.sum()
    comps = tuple(Gaussian2D(mean=means[k], cov=covs[k],
                             weight=float(weights[k] / wsum))
                  for k in range(state.k))
    return log_mix, Formation(components=comps)


def em_step_full(state: Formation, points: np.ndarray) -> Formation:
    """One full-covariance EM update over all points."""
    pts = np.asarray(points, dtype=float)
    return _em_pass(state, pts, spherical=False)[1]


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
    searched: int = 0   # rows given to ``nearest_centers``
    settled: int = 0    # rows whose bound kept their label without a search
    fallback: int = 0   # of those searched, rows its certificate left to
    #                     the exact search

    @property
    def n_iterations(self):
        return len(self.inertia)


def kmeans(points: np.ndarray, init: np.ndarray) -> KMeansResult:
    """Lloyd's algorithm run to convergence (max center movement below
    1e-6), for at most 1000 iterations.

    An empty cluster is re-seeded at the point currently farthest from its
    assigned center, which keeps the recorded inertia sequence
    non-increasing: the empty center served no points, so moving it is free.
    The point is never taken from a cluster whose only member it is, which
    would leave that cluster empty.

    The first iteration, and the one after a reseed, give every row to
    ``nearest_centers``, BLOCK rows at a time.  Later iterations skip the
    rows whose bounds settle them (Hamerly, "Making k-means even faster",
    SDM 2010): each row keeps its label, its squared distance ``own`` to its
    center, recomputed exactly each iteration, and ``lower``, a lower bound
    on its distance to every other center that drops by the largest center
    drift per iteration.  A row keeps its label unsearched when ``lower``
    exceeds sqrt(own) by a rounding margin, which proves that the exact
    search would pick the same center, uniquely; the rest are searched,
    which also renews their ``lower``.  Labels, centers and inertia are
    those of searching every row, bit for bit.
    """
    pts = np.asarray(points, dtype=float)
    centers = np.array(init, dtype=float)
    k = centers.shape[0]
    if k > pts.shape[0]:
        raise ValueError(f"k={k} exceeds point count {pts.shape[0]}")
    # The bound test.  Let a be a row's label, d_j its exact distance to
    # center j, and own the computed d2_a, where d2_j = fl(sum((x - c_j)^2))
    # is the exact search's value.  Every term of d2_j is non-negative and
    # its subtraction, square and D - 1 additions are correctly rounded, so
    # d2_j >= (1 - gamma_{D+2}) d_j^2.  ``lower`` stays <= d_j for every
    # j != a, up to gradual underflow, which moves no bound here by more
    # than 2^-510 and which ``slack`` covers:
    # - after a search it is ``nearest_centers``' lo;
    # - after an update no center moved by more than its drift, so no d_j
    #   fell by more (triangle inequality).  ``movement`` is at least
    #   (1 - gamma_{D+3}) times the largest drift, so movement * widen +
    #   slack, two roundings later, is at least it; and
    #   fl(fl(lower (1 - 2u)) - drift) <= lower - drift, u = 2^-53, so the
    #   subtraction rounds the bound down.
    # A row passes when lower > r = fl(fl(fl(sqrt(own)) widen) + slack).
    # r >= (1 - u)^3 sqrt(own) widen + (1 - u) slack, so
    # d_j^2 > (1 - u)^6 widen^2 own, and then
    # d2_j >= (1 - gamma_{D+2}) (1 - u)^6 widen^2 own > own = d2_a,
    # because widen^2 > 1 + 2 gamma_{D+7} > 1 / (1 - gamma_{D+8}).  So a is
    # the exact search's unique argmin, and a tied row (d2_j == own for
    # some j) never passes; NaN fails every comparison.
    widen = 1.0 + rounding_gamma(pts.shape[1] + 8)
    slack = 2.0 ** -500
    shrink = 1.0 - np.finfo(float).eps
    # one contiguous row per coordinate, so each bincount below reads its
    # weights in place instead of copying a strided column every iteration
    columns = np.ascontiguousarray(pts.T)
    labels = np.empty(len(pts), dtype=np.intp)
    own = np.empty(len(pts))
    lower = np.empty(len(pts))
    inertia = []
    searched = settled = fallback = 0
    full = True
    for _ in range(1000):
        if full:
            chunks = [slice(start, start + BLOCK)
                      for start in range(0, len(pts), BLOCK)]
        else:
            todo = []
            for start in range(0, len(pts), BLOCK):
                block = slice(start, start + BLOCK)
                own[block] = sq_dist_to(pts[block], centers, labels[block])
                keep = lower[block] > np.sqrt(own[block]) * widen + slack
                todo.append(start + np.flatnonzero(~keep))
            todo = np.concatenate(todo)
            settled += len(pts) - len(todo)
            chunks = [todo[start:start + BLOCK]
                      for start in range(0, len(todo), BLOCK)]
        # the rows left to search, BLOCK at a time
        for rows in chunks:
            near = nearest_centers(pts[rows], centers)
            labels[rows] = near.labels
            own[rows] = near.sq_dist
            lower[rows] = near.lo
            searched += len(near.labels)
            fallback += near.fallback
        counts = np.bincount(labels, minlength=k)
        # a reseed moves a center and a label outside the drift bound, so
        # the next iteration searches every row
        full = not counts.all()
        for empty in range(k):
            if counts[empty]:
                continue
            far = int(np.argmax(np.where(counts[labels] > 1, own, -np.inf)))
            centers[empty] = pts[far]
            counts[labels[far]] -= 1
            counts[empty] = 1
            labels[far] = empty
            own[far] = 0.0   # it now sits on its center
        inertia.append(float(own.sum()))
        # per-column bincount adds each cluster's points in row order, as
        # pts[labels == j].sum(axis=0) does, so the means are unchanged
        sums = np.stack([np.bincount(labels, weights=col, minlength=k)
                         for col in columns], axis=1)
        new_centers = sums / counts[:, None]
        movement = float(np.sqrt(((new_centers - centers) ** 2).sum(axis=1)).max())
        centers = new_centers
        if movement < 1e-6:
            break
        lower *= shrink
        lower -= movement * widen + slack
    return KMeansResult(centers=centers, labels=labels,
                        inertia=tuple(inertia), searched=searched,
                        settled=settled, fallback=fallback)


def _formation_from_clusters(pts, centers, labels):
    total = len(pts)
    members = split_by_label(pts, labels, centers.shape[0])
    return Formation(components=tuple(
        Gaussian2D(mean=c, cov=sample_covariance(m), weight=len(m) / total)
        for c, m in zip(centers, members)))


def canonical_order(points: np.ndarray) -> np.ndarray:
    """Indices that sort rows lexicographically by (x, y), stably.

    When the quicksorted x values strictly increase (no NaN, and no two
    equal, -0.0 counting as equal to 0.0) and no y is NaN, the order is
    unique and that quicksort is it.  Otherwise, as on rounded input, it is
    one stable sort of the rows viewed as complex numbers x + iy, which
    numpy orders by (real, imag): the same indices as ``np.lexsort`` on
    (y, x) in half the time.  Both treat -0.0 as equal to 0.0; ingest
    rejects NaN.
    """
    pts = np.ascontiguousarray(points, dtype=np.float64)
    order = np.argsort(pts[:, 0])
    x = pts[order, 0]
    # numpy sorts x + NaN i after every row without NaN, so a NaN y takes
    # the stable path too
    if np.all(x[1:] > x[:-1]) and not np.isnan(pts[:, 1]).any():
        return order
    return np.argsort(pts.view(np.complex128)[:, 0], kind="stable")


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

    km = kmeans(pts, init)
    state = _formation_from_clusters(pts, km.centers, km.labels)

    # Each pass gives the log-likelihood of ``state`` and the update from
    # it.  Convergence compares full updates against the previous full
    # update: a spherical reset drops the bound on purpose, and on data
    # whose true ratios sit at the band edge the loop alternates
    # reset/recover, so judging a full step against the reset right before
    # it would never terminate.
    r = cfg.eig_ratio_bound
    trace = EmTrace(kmeans={"iterations": km.n_iterations,
                            "searched": km.searched, "settled": km.settled,
                            "fallback": km.fallback})
    update, kind, last_full = state, INIT, None
    for it in range(cfg.max_iters + 1):
        state = update
        ratios = state.eigenvalue_ratios()
        spherical = bool(np.any(ratios >= r) or np.any(ratios <= 1.0 / r))
        log_mix, update = _em_pass(state, pts, spherical)
        loglik = float(log_mix.mean())
        trace.append(it, loglik, kind, ratios)
        if kind == FULL_GMM:
            gain = (loglik - last_full) / max(abs(last_full), 1e-12)
            if gain < cfg.em_tol:
                trace.converged = True
                break
        if kind != SOFT_KMEANS:
            last_full = loglik
        kind = SOFT_KMEANS if spherical else FULL_GMM
    return state, trace
