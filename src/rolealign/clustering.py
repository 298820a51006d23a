"""Sub-template discovery over role-aligned data.

Once frames are aligned into an S x (2K) matrix, game states become rows of
a fixed-width vector space and ordinary clustering applies.  This module
provides the flat K-Means layer (seeded from the template means plus a
little noise), a silhouette-like discriminative score E used to pick the
cluster count, the compression metrics (within-cluster error and PCA
variance fractions) used to compare role-aligned against identity-ordered
data, and the recursive tree of per-cluster templates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .alignment import Template, align_template, assign_roles
from .discovery import DiscoveryConfig, discover_formation, kmeans
from .ingest import Dataset


def _matrix(r):
    return r.matrix if hasattr(r, "matrix") else np.asarray(r, dtype=float)


@dataclass(frozen=True)
class ClusterSet:
    """A hard partition of aligned rows with its discriminative score."""

    k: int
    centroids: np.ndarray
    labels: np.ndarray
    score: float = 0.0

    def __post_init__(self):
        cent = np.array(self.centroids, dtype=float)
        lab = np.array(self.labels, dtype=int)
        if cent.shape[0] != self.k:
            raise ValueError("centroid count disagrees with k")
        if lab.min() < 0 or lab.max() >= self.k:
            raise ValueError("labels out of range")
        for j in range(self.k):
            if not np.any(lab == j):
                raise ValueError(f"cluster {j} is empty")
        cent.flags.writeable = False
        lab.flags.writeable = False
        object.__setattr__(self, "centroids", cent)
        object.__setattr__(self, "labels", lab)


def discriminative_score_E(r, c: ClusterSet) -> float:
    """Mean over rows of (neighbor - own) / neighbor distance.

    own is the distance to the row's cluster centroid, neighbor the distance
    to the nearest other centroid (computed per row).  Rows equidistant from
    both contribute 0; a row sitting exactly on its centroid contributes 1.
    """
    if c.k < 2:
        raise ValueError("score undefined for a single cluster")
    x = _matrix(r)
    d = np.sqrt(((x[:, None, :] - c.centroids[None, :, :]) ** 2).sum(axis=2))
    m = x.shape[0]
    own = d[np.arange(m), c.labels]
    others = d.copy()
    others[np.arange(m), c.labels] = np.inf
    neighbor = others.min(axis=1)
    safe = np.where(neighbor > 0, neighbor, 1.0)
    terms = np.where(neighbor > 0, (neighbor - own) / safe, 0.0)
    return float(terms.mean())


@dataclass(frozen=True)
class WceResult:
    value: float        # mean L2 distance of rows to their centroid
    per_player: float   # value / number of roles, for per-player comparisons


def within_cluster_error(r, c: ClusterSet) -> WceResult:
    x = _matrix(r)
    own = x - c.centroids[c.labels]
    dist = np.sqrt((own * own).sum(axis=1))
    value = float(dist.mean())
    return WceResult(value=value, per_player=value / (x.shape[1] // 2))


def pairwise_within_cluster(r, labels) -> float:
    """Mean distance over all ordered same-cluster row pairs (i != j).

    The quantity the split actually minimizes is centroid distortion; this
    pairwise form is reported alongside it as a metric.
    """
    x = _matrix(r)
    labels = np.asarray(labels)
    total = 0.0
    pairs = 0
    for j in np.unique(labels):
        sub = x[labels == j]
        m = len(sub)
        if m < 2:
            continue
        sq = (sub * sub).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (sub @ sub.T)
        d = np.sqrt(np.clip(d2, 0.0, None))
        total += d.sum()          # diagonal contributes zero
        pairs += m * (m - 1)
    if pairs == 0:
        return 0.0
    return float(total / pairs)


def pca_variance_explained(r) -> np.ndarray:
    """Fractions of row-covariance variance per principal component,
    descending, summing to 1."""
    x = _matrix(r)
    if x.shape[0] < 2:
        raise ValueError("need at least two rows")
    xc = x - x.mean(axis=0)
    svals = np.linalg.svd(xc, compute_uv=False)
    lam = (svals ** 2) / (x.shape[0] - 1)
    if lam.sum() == 0:
        raise ValueError("zero-variance data")
    return lam / lam.sum()


def flat_cluster(r, k_candidates, template: Template | None,
                 noise: float = 0.01, seed: int = 0) -> ClusterSet:
    """Fit K-Means per candidate k and keep the most discriminative result.

    Each run is seeded with k copies of the template-mean vector plus
    Gaussian noise of ``noise`` times the per-dimension data standard
    deviation.  k=1 is allowed as a candidate and scores 0 by convention;
    ties go to the smaller k.  Candidates that collapse (an empty cluster
    that re-seeding cannot fix) are skipped with a warning.
    """
    x = _matrix(r)
    m, dim = x.shape
    t_vec = template.means.ravel() if template is not None else x.mean(axis=0)
    if t_vec.shape[0] != dim:
        raise ValueError(f"template gives a {t_vec.shape[0]}-dim seed for "
                         f"{dim}-dim rows")
    sigma = np.maximum(x.std(axis=0), 1e-12)
    rng = np.random.Generator(np.random.Philox(seed))
    best = None
    for k in sorted(set(int(k) for k in k_candidates)):
        if k < 1 or k > m:
            warnings.warn(f"candidate k={k} out of range, skipped")
            continue
        if k == 1:
            cand = ClusterSet(k=1, centroids=x.mean(axis=0, keepdims=True),
                              labels=np.zeros(m, dtype=int), score=0.0)
        else:
            init = t_vec[None, :] + noise * sigma[None, :] * \
                rng.standard_normal((k, dim))
            km = kmeans(x, init, tol=1e-6)
            if any(not np.any(km.labels == j) for j in range(k)):
                warnings.warn(f"candidate k={k} degenerate, skipped")
                continue
            partial = ClusterSet(k=k, centroids=km.centers, labels=km.labels)
            cand = ClusterSet(k=k, centroids=km.centers, labels=km.labels,
                              score=discriminative_score_E(x, partial))
        if best is None or cand.score > best.score + 1e-12:
            best = cand
    if best is None:
        raise ValueError("no viable cluster count among candidates")
    return best


def _extend_centers(x, centers, extra):
    """Add ``extra`` centers at the points farthest from any current one."""
    centers = list(centers)
    d = np.sqrt(((x[:, None, :] - np.stack(centers)[None]) ** 2).sum(axis=2))
    nearest = d.min(axis=1)
    for _ in range(extra):
        far = int(np.argmax(nearest))
        centers.append(x[far])
        newd = np.sqrt(((x - x[far]) ** 2).sum(axis=1))
        nearest = np.minimum(nearest, newd)
    return np.stack(centers)


def wce_sweep(r, ks) -> list:
    """Within-cluster error across a nested sequence of cluster counts.

    Each k reuses the previous solution's centroids plus farthest-point
    additions as its init.  If a Lloyd run lands above the plain
    init-assignment solution in (unsquared) WCE, the latter is kept, which
    guarantees the reported sequence is non-increasing in k.  Returns a list
    of dicts with k, wce, per_player and score (E, 0.0 for k=1).
    """
    x = _matrix(r)
    out = []
    centers = None
    for k in sorted(set(int(k) for k in ks)):
        if k < 1 or k > x.shape[0]:
            continue
        if centers is None:
            init = x.mean(axis=0, keepdims=True)
            if k > 1:
                init = _extend_centers(x, init, k - 1)
        else:
            init = _extend_centers(x, centers, k - len(centers))
        candidates = []
        nearest = np.sqrt(((x[:, None, :] - init[None]) ** 2).sum(axis=2))
        labels0 = nearest.argmin(axis=1)
        candidates.append((init, labels0))
        km = kmeans(x, init, tol=1e-6)
        candidates.append((km.centers, km.labels))

        def unsquared(cent, lab):
            diff = x - cent[lab]
            return float(np.sqrt((diff * diff).sum(axis=1)).mean())

        cent, lab = min(candidates, key=lambda cl: unsquared(*cl))
        wce = unsquared(cent, lab)
        score = 0.0
        if k >= 2 and len(np.unique(lab)) == k:
            helper = ClusterSet(k=k, centroids=cent, labels=lab)
            score = discriminative_score_E(x, helper)
        out.append({"k": k, "wce": wce, "per_player": wce / (x.shape[1] // 2),
                    "score": score})
        centers = cent
    return out


@dataclass(frozen=True)
class TreeStop:
    """Stopping rules for the recursive template tree."""

    max_depth: int = 3
    min_node: int = 200
    min_rel_improvement: float = 0.01
    min_score: float = 0.55
    k_candidates: tuple = (2, 3, 4)


@dataclass(frozen=True)
class TreeNode:
    template: Template
    row_indices: tuple
    depth: int
    wce: float                      # distortion of this node's rows alone
    children: tuple = ()
    cluster: ClusterSet | None = None
    pairwise_loss: float | None = None

    @property
    def is_leaf(self):
        return not self.children

    def to_dict(self):
        return {"depth": self.depth,
                "template": self.template.to_dict(),
                "rows": [int(i) for i in self.row_indices],
                "wce": self.wce,
                "cluster_k": None if self.cluster is None else self.cluster.k,
                "score": None if self.cluster is None else self.cluster.score,
                "pairwise_loss": self.pairwise_loss,
                "children": [c.to_dict() for c in self.children]}


@dataclass(frozen=True)
class TemplateTree:
    root: TreeNode

    @property
    def depth(self):
        def walk(node):
            if node.is_leaf:
                return node.depth
            return max(walk(c) for c in node.children)
        return walk(self.root)

    def leaves(self):
        out = []

        def walk(node):
            if node.is_leaf:
                out.append(node)
            else:
                for c in node.children:
                    walk(c)
        walk(self.root)
        return out

    def to_dict(self):
        return {"depth": self.depth, "root": self.root.to_dict()}

    def save(self, path):
        import json
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=1)


def learn_tree(ds: Dataset, g: Template | None = None,
               stop: TreeStop = TreeStop(),
               cfg: DiscoveryConfig | None = None) -> TemplateTree:
    """Recursively discover per-cluster templates over a centered Dataset.

    Each node runs the full discovery pipeline on its frame subset, aligns
    the result to its parent's template (the root aligns to ``g`` when
    given), splits its aligned rows with flat_cluster, and recurses per
    cluster.  A node stays a leaf when it is too deep, too small, when no
    candidate split scores at least min_score, or when the split's
    distortion gain is below min_rel_improvement.
    """
    if cfg is None:
        cfg = DiscoveryConfig(k=ds.n_agents)

    def build(indices, parent, depth):
        sub = ds.take(indices)
        formation, trace = discover_formation(sub, cfg)
        template = align_template(formation, parent) if parent is not None \
            else Template.from_formation(formation)
        aligned = assign_roles(sub, template, cache=trace.cache)
        x = aligned.matrix
        center = x.mean(axis=0)
        node_wce = float(np.sqrt(((x - center) ** 2).sum(axis=1)).mean())

        if depth >= stop.max_depth or len(indices) < stop.min_node:
            return TreeNode(template=template, row_indices=tuple(indices),
                            depth=depth, wce=node_wce)
        try:
            cs = flat_cluster(aligned, stop.k_candidates, template,
                              seed=cfg.seed)
        except ValueError:
            return TreeNode(template=template, row_indices=tuple(indices),
                            depth=depth, wce=node_wce)
        if cs.k < 2 or cs.score < stop.min_score:
            return TreeNode(template=template, row_indices=tuple(indices),
                            depth=depth, wce=node_wce)
        split_wce = within_cluster_error(x, cs).value
        if (node_wce - split_wce) / max(node_wce, 1e-12) \
                < stop.min_rel_improvement:
            return TreeNode(template=template, row_indices=tuple(indices),
                            depth=depth, wce=node_wce)
        idx = np.asarray(indices)
        children = tuple(build(idx[cs.labels == j], template, depth + 1)
                         for j in range(cs.k))
        return TreeNode(template=template, row_indices=tuple(indices),
                        depth=depth, wce=node_wce, children=children,
                        cluster=cs,
                        pairwise_loss=pairwise_within_cluster(x, cs.labels))

    root = build(np.arange(ds.n_frames), g, 1)
    return TemplateTree(root=root)
