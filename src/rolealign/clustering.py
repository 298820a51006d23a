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
from .geometry import nearest_centers, split_by_label, sq_dist_to
from .ingest import Dataset, write_json


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
        empty = np.flatnonzero(np.bincount(lab, minlength=self.k) == 0)
        if len(empty):
            raise ValueError(f"cluster {empty[0]} is empty")
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
    x = np.asarray(r, dtype=float)
    own = np.sqrt(sq_dist_to(x, c.centroids, c.labels))
    # sqrt is monotone, so this is the least distance to another centroid
    neighbor = np.sqrt(nearest_centers(x, c.centroids,
                                       exclude=c.labels).sq_dist)
    safe = np.where(neighbor > 0, neighbor, 1.0)
    terms = np.where(neighbor > 0, (neighbor - own) / safe, 0.0)
    return float(terms.mean())


def _mean_distance(x, centers, labels) -> float:
    """Mean L2 distance of the rows of ``x`` to ``centers[labels]``."""
    return float(np.sqrt(sq_dist_to(x, centers, labels)).mean())


def within_cluster_error(r, c: ClusterSet) -> float:
    """Mean L2 distance of the rows to their cluster centroid."""
    return _mean_distance(np.asarray(r, dtype=float), c.centroids, c.labels)


def pairwise_within_cluster(r, labels) -> float:
    """Mean distance over all ordered same-cluster row pairs (i != j).

    The quantity the split actually minimizes is centroid distortion; this
    pairwise form is reported alongside it as a metric.
    """
    x = np.asarray(r, dtype=float)
    groups, codes = np.unique(np.asarray(labels), return_inverse=True)
    total = 0.0
    pairs = 0
    for sub in split_by_label(x, codes, len(groups)):
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
    x = np.asarray(r, dtype=float)
    if x.shape[0] < 2:
        raise ValueError("need at least two rows")
    xc = x - x.mean(axis=0)
    svals = np.linalg.svd(xc, compute_uv=False)
    lam = (svals ** 2) / (x.shape[0] - 1)
    if lam.sum() == 0:
        raise ValueError("zero-variance data")
    return lam / lam.sum()


def flat_cluster(r, k_candidates, template: Template | None,
                 seed: int = 0) -> ClusterSet:
    """Fit K-Means per candidate k and keep the most discriminative result.

    Each run is seeded with k copies of the template-mean vector plus
    Gaussian noise of 0.01 times the per-dimension data standard
    deviation.  k=1 is allowed as a candidate and scores 0 by convention;
    ties go to the smaller k.  Candidates that collapse (an empty cluster
    that re-seeding cannot fix) are skipped with a warning.
    """
    x = np.asarray(r, dtype=float)
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
            init = t_vec[None, :] + 0.01 * sigma[None, :] * \
                rng.standard_normal((k, dim))
            km = kmeans(x, init)
            if np.bincount(km.labels, minlength=k).min() == 0:
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
    """Add ``extra`` centers at the points farthest from any current one,
    with the rows of the nearest-center search that found the first of them
    and the fallback rows among them (none when ``extra`` is 0)."""
    if not extra:
        return centers, 0, 0
    centers = list(centers)
    near = nearest_centers(x, np.stack(centers))
    nearest = np.sqrt(near.sq_dist)
    for _ in range(extra):
        far = int(np.argmax(nearest))
        centers.append(x[far])
        newd = np.sqrt(((x - x[far]) ** 2).sum(axis=1))
        nearest = np.minimum(nearest, newd)
    return np.stack(centers), len(x), near.fallback


def wce_sweep(r, ks) -> list:
    """Within-cluster error across a nested sequence of cluster counts.

    Each k reuses the previous solution's centroids plus farthest-point
    additions as its init.  If a Lloyd run lands above the plain
    init-assignment solution in (unsquared) WCE, the latter is kept, which
    guarantees the reported sequence is non-increasing in k; K-means' first
    search gives its labels.  Returns a list of dicts with k, wce, the
    ``searched`` rows of every nearest-center search made for that k
    (farthest-point seeding and K-means) with the ``fallback`` rows among
    them that its certificate left to the exact search, and the rows
    K-means ``settled`` by its bounds without a search.
    """
    x = np.asarray(r, dtype=float)
    out = []
    centers = None
    for k in sorted(set(int(k) for k in ks)):
        if k < 1 or k > x.shape[0]:
            continue
        if centers is None:
            centers = x.mean(axis=0, keepdims=True)
        init, searched, fallback = _extend_centers(x, centers,
                                                   k - len(centers))
        km = kmeans(x, init)
        # the argmin of the squared distances can differ from that of the
        # distances only where two of them share a square root, which
        # leaves the row's distance, and so the WCE, unchanged
        candidates = [(init, km.first_labels), (km.centers, km.labels)]
        wce, centers = min(((_mean_distance(x, *cl), cl[0])
                            for cl in candidates), key=lambda c: c[0])
        out.append({"k": k, "wce": wce, "searched": searched + km.searched,
                    "settled": km.settled, "fallback": fallback + km.fallback})
    return out


@dataclass(frozen=True)
class TreeStop:
    """Stopping rules for the recursive template tree."""

    max_depth: int = 3
    min_node: int = 200
    min_rel_improvement: float = 0.01
    min_score: float = 0.55
    k_candidates: tuple = (2, 3, 4)


@dataclass(frozen=True, eq=False)
class TreeNode:
    template: Template
    row_indices: np.ndarray         # read-only intp
    depth: int
    wce: float                      # distortion of this node's rows alone
    # why a leaf stopped: "depth", "size", "no split", "score" or "gain"
    stop_reason: str | None = None
    children: tuple = ()
    cluster: ClusterSet | None = None
    pairwise_loss: float | None = None

    @property
    def is_leaf(self):
        return not self.children

    def to_dict(self):
        return {"depth": self.depth,
                "template": self.template.to_dict(),
                "rows": self.row_indices.tolist(),
                "wce": self.wce,
                "stop_reason": self.stop_reason,
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
        write_json(path, self.to_dict())


def learn_tree(ds: Dataset, g: Template | None = None,
               stop: TreeStop = TreeStop(),
               cfg: DiscoveryConfig | None = None) -> TemplateTree:
    """Recursively discover per-cluster templates over a centered Dataset.

    Each node runs the full discovery pipeline on its frame subset, aligns
    the result to its parent's template (the root aligns to ``g`` when
    given), splits its aligned rows with flat_cluster, and recurses per
    cluster.  A node stays a leaf when it is too deep, too small, when no
    candidate split scores at least min_score, or when the split's
    distortion gain is below min_rel_improvement; its ``stop_reason`` says
    which.
    """
    if cfg is None:
        cfg = DiscoveryConfig(k=ds.n_agents)

    def build(rows, parent, depth):
        rows.flags.writeable = False
        sub = ds.take(rows)
        formation, _ = discover_formation(sub, cfg)
        template = align_template(formation, parent) if parent is not None \
            else Template.from_formation(formation)
        x = assign_roles(sub, template).matrix
        node_wce = _mean_distance(x, x.mean(axis=0, keepdims=True),
                                  np.zeros(len(x), dtype=np.intp))
        split = {}
        if depth >= stop.max_depth:
            reason = "depth"
        elif len(rows) < stop.min_node:
            reason = "size"
        else:
            try:
                cs = flat_cluster(x, stop.k_candidates, template,
                                  seed=cfg.seed)
            except ValueError:
                cs = None
            if cs is None or cs.k < 2:
                reason = "no split"
            elif cs.score < stop.min_score:
                reason = "score"
            elif (node_wce - within_cluster_error(x, cs)) \
                    / max(node_wce, 1e-12) < stop.min_rel_improvement:
                reason = "gain"
            else:
                reason = None
                split = dict(children=tuple(
                    build(part, template, depth + 1)
                    for part in split_by_label(rows, cs.labels, cs.k)),
                    cluster=cs,
                    pairwise_loss=pairwise_within_cluster(x, cs.labels))
        return TreeNode(template=template, row_indices=rows, depth=depth,
                        wce=node_wce, stop_reason=reason, **split)

    root = build(np.arange(ds.n_frames), g, 1)
    return TemplateTree(root=root)
