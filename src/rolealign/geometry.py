"""2D Gaussian primitives: densities, divergences, entropy, covering area.

Every role in a formation is modelled as a bivariate Gaussian with a mixture
weight.  All formulas below are closed-form for the 2x2 case; no iterative
linear algebra is involved, so everything here is cheap and exact.

This module is the only place that evaluates a Gaussian density.  A 2-D
log density is linear in the moment features phi(x) = [x^2, xy, y^2, x, y,
1]: ``density_coefficients`` gives the (6, K) coefficient matrix of K
Gaussians (log weights optionally folded into the constant row) and
``component_log_pdfs`` the (P, K) densities as one gemm of phi and it.  It
is the one kernel behind role assignment, the hard baseline and
``gaussian_log_pdf``; ``log_mixture_density`` is the one mixture
log-sum-exp, and ``posterior_moments`` the E-step of one block of EM
together with its M-step sums r' phi.  These two mixture kernels are
component-major: a block's densities are held as a (K, B) array, the
transpose of the gemm's (B, K), so the max, the exp and the sum over the
K components run along whole rows of B points instead of over B rows of
K.  The sum adds the K rows in the order numpy adds a contiguous row of
K, so the densities and sums keep their bits.  Each density is a
six-term dot product: by Higham, *Accuracy and Stability of Numerical
Algorithms*, section 3.1, it is within gamma_6 sum |phi_i| |c_i| of the
exact value (plus a few roundings from forming phi and c).  That is about
1e-14 nats on centered data, but grows with |x|^2 / sigma^2: about 2e-6
nats for a 1 mm wide role at 100 m from the origin, which is why
discovery works on centered points.

It also holds the one nearest-center search of the clustering layer,
``nearest_centers``: labels from the Gram form |x|^2 + |c|^2 - 2 x.c (one
matrix product), accepted for a row only when its runner-up is farther by
more than a rounding-error bound derived from Higham section 3.1.  Rows
that miss the bound fall back to the exact difference-of-squares search,
so the labels and distances are those of the (P, k, D) broadcast, bit for
bit.  The certified gap also gives each row a lower bound on its distance
to every other center, which lets K-means skip rows whose center cannot
have changed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# Additive diagonal regularization target: covariance eigenvalues are kept at
# or above this floor (in m^2) so that precision matrices always exist.
DEFAULT_EIGENVALUE_FLOOR = 1e-6

LOG_2PI = math.log(2.0 * math.pi)

_SYMMETRY_TOL = 1e-12

# Rows per block of the mixture kernels, and of discovery's EM pass and
# K-means search.  The M-step's sums are BLAS reductions per block, so a fit
# depends on BLOCK in its last bits; per-point densities and labels do not.
BLOCK = 8192


def _eigenvalues_2x2(cov: np.ndarray) -> tuple[float, float]:
    """Eigenvalues of a symmetric 2x2 matrix, largest first (closed form)."""
    a, b, c = float(cov[0, 0]), float(cov[0, 1]), float(cov[1, 1])
    half_trace = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    return half_trace + disc, half_trace - disc


@dataclass(frozen=True)
class Gaussian2D:
    """One role's generating distribution: mean, covariance, mixture weight.

    The covariance must be symmetric within 1e-12; it is exactly symmetrized
    on construction and its eigenvalues are raised to
    DEFAULT_EIGENVALUE_FLOOR by adding to the diagonal when necessary.
    Arrays are copied and frozen.
    """

    mean: np.ndarray
    cov: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(2)
        cov = np.array(self.cov, dtype=float).reshape(2, 2)
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("Gaussian parameters must be finite")
        if abs(cov[0, 1] - cov[1, 0]) > _SYMMETRY_TOL * max(1.0, abs(cov[0, 1])):
            raise ValueError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        lo = _eigenvalues_2x2(cov)[1]
        if lo < DEFAULT_EIGENVALUE_FLOOR:
            cov = cov + (DEFAULT_EIGENVALUE_FLOOR - lo) * np.eye(2)
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"weight {self.weight} outside [0, 1]")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "weight", float(self.weight))

    @property
    def det(self) -> float:
        c = self.cov
        return float(c[0, 0] * c[1, 1] - c[0, 1] * c[1, 0])

    @property
    def precision(self) -> np.ndarray:
        c = self.cov
        return np.array([[c[1, 1], -c[0, 1]], [-c[1, 0], c[0, 0]]]) / self.det

    def to_dict(self) -> dict:
        return {
            "mean": [float(v) for v in self.mean],
            "cov": [[float(v) for v in row] for row in self.cov],
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Gaussian2D":
        return cls(mean=np.array(d["mean"]), cov=np.array(d["cov"]),
                   weight=float(d["weight"]))


def covariance_eigenvalues(g: Gaussian2D) -> tuple[float, float]:
    """(lambda1, lambda2) of the covariance with lambda1 >= lambda2 > 0."""
    return _eigenvalues_2x2(g.cov)


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` through BLAS gemm.  numpy sends a product with one row or
    one column to gemv, whose bits differ from gemm's, so such an operand
    is padded to two (a repeat) and the extra row or column dropped: every
    entry then depends on its own row and column alone."""
    m, n = a.shape[0], b.shape[1]
    if m == 1:
        a = np.repeat(a, 2, axis=0)
    if n == 1:
        b = np.repeat(b, 2, axis=1)
    return (a @ b)[:m, :n]


def moment_features(pts: np.ndarray) -> np.ndarray:
    """(P, 6) moment features [x^2, xy, y^2, x, y, 1] of (P, 2) points."""
    pts = np.asarray(pts, dtype=float)
    phi = np.empty((len(pts), 6))
    x, y = pts[:, 0], pts[:, 1]
    np.multiply(x, x, out=phi[:, 0])
    np.multiply(x, y, out=phi[:, 1])
    np.multiply(y, y, out=phi[:, 2])
    phi[:, 3:5] = pts
    phi[:, 5] = 1.0
    return phi


def density_coefficients(gaussians, weights=None) -> np.ndarray:
    """(6, K) matrix C with ``moment_features(pts) @ C`` the log densities
    of ``pts`` under ``gaussians``, plus the log of ``weights`` if given.

    With precision Q and mean m, log N(x) = -x'Qx/2 + (Qm)'x + c with
    c = -log 2 pi - log(det)/2 - m'Qm/2, so column j holds -Q00/2, -Q01,
    -Q11/2, the two entries of Qm, and c (+ log w_j).
    """
    means = np.array([g.mean for g in gaussians])
    precs = np.array([g.precision for g in gaussians])
    dets = np.array([g.det for g in gaussians])
    lin = precs[:, :, 0] * means[:, :1] + precs[:, :, 1] * means[:, 1:]
    const = -LOG_2PI - 0.5 * np.log(dets) - 0.5 * (lin * means).sum(axis=1)
    if weights is not None:
        const += np.log(weights)
    return np.stack([-0.5 * precs[:, 0, 0], -precs[:, 0, 1],
                     -0.5 * precs[:, 1, 1], lin[:, 0], lin[:, 1], const])


def component_log_pdfs(gaussians, pts: np.ndarray) -> np.ndarray:
    """(P, K) matrix of Gaussian log densities: entry (i, j) is the log
    density of point i under ``gaussians[j]``.

    ``gaussians`` is any sequence of ``Gaussian2D`` (a formation's
    components, a template's roles) and ``pts`` a (P, 2) array.  One gemm
    of the moment features and the coefficients, so each entry is a
    six-term dot product whose bits do not depend on P or K.
    """
    return _gemm(moment_features(pts), density_coefficients(gaussians))


def _pairwise_rows(a: np.ndarray) -> np.ndarray:
    """numpy's pairwise sum of the K >= 8 rows of a (K, B) array, each
    column on its own: up to 128 rows, eight running sums over each run of
    eight rows, folded as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the remaining rows in order; above, the sum of two halves, the
    first a multiple of eight rows long."""
    k = a.shape[0]
    if k > 128:
        half = k // 2 - k // 2 % 8
        return _pairwise_rows(a[:half]) + _pairwise_rows(a[half:])
    tail = k - k % 8
    if k < 16:
        runs = a[:8]
    else:
        runs = a[:8] + a[8:16]
        for lo in range(16, tail, 8):
            runs += a[lo:lo + 8]
    pairs = runs[0::2] + runs[1::2]
    halves = pairs[0::2] + pairs[1::2]
    total = halves[0] + halves[1]
    for row in a[tail:]:
        total += row
    return total


def _row_sums(a: np.ndarray) -> np.ndarray:
    """(B,) sums of the K rows of a (K, B) array: the bits of numpy's
    ``sum(axis=1)`` of the contiguous (B, K) transpose, without reducing
    B short rows one at a time.  numpy adds a contiguous row of fewer than
    8 entries in sequence from 0.0, and a longer one pairwise
    (``_pairwise_rows``) and then to 0.0."""
    if len(a) < 8:
        total = np.zeros(a.shape[1])
        for row in a:
            total += row
        return total
    total = _pairwise_rows(a)
    total += 0.0   # turns -0.0, the sum of -0.0 alone, into 0.0
    return total


def _log_sum_exp(joint_t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(B,) log of the column sums of exp(joint_t), for (K, B) joint log
    densities; ``joint_t`` is left holding exp(joint_t - column max), and
    the (B,) column sums of that are returned too."""
    top = joint_t.max(axis=0)
    joint_t -= top
    np.exp(joint_t, out=joint_t)
    total = _row_sums(joint_t)
    return np.log(total) + top, total


def _joint_t(phi: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The (K, B) joint log densities of a block, the transpose of the
    (B, K) gemm ``phi @ coef``, so that every reduction over the K
    components runs along whole rows of B."""
    joint_t = np.empty((coef.shape[1], len(phi)))
    # 512 rows at a time (each gemm entry depends on its own row and column
    # alone, so the bits are one gemm's): a short tile stays in cache while
    # numpy copies its transpose column by column, and no second (B, K)
    # array is made
    for lo in range(0, len(phi), 512):
        joint_t[:, lo:lo + 512] = _gemm(phi[lo:lo + 512], coef).T
    return joint_t


def log_mixture_density(gaussians, weights, pts: np.ndarray) -> np.ndarray:
    """(P,) log density of every point under the mixture of ``gaussians``
    with mixture ``weights``; its mean is the average log-likelihood.
    Evaluated BLOCK rows at a time; each point's value depends on that
    point alone."""
    pts = np.asarray(pts, dtype=float)
    coef = density_coefficients(gaussians, weights)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), BLOCK):
        block = slice(lo, lo + BLOCK)
        out[block] = _log_sum_exp(
            _joint_t(moment_features(pts[block]), coef))[0]
    return out


def posterior_moments(phi: np.ndarray, coef: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """The E-step of one block of points, with the M-step's sufficient
    statistics: the (B,) log mixture density and the (K, 6) sums of
    responsibility times moment feature, r' phi.

    ``phi`` is ``moment_features`` of the block and ``coef`` the
    ``density_coefficients`` of the mixture with its weights.  Column 5 of
    the sums holds the responsibility mass, 3 and 4 the first moments,
    0 to 2 the second.
    """
    joint_t = _joint_t(phi, coef)
    log_mix, total = _log_sum_exp(joint_t)
    # r = exp(joint - max) / total, the division moved onto phi's B x 6
    return log_mix, _gemm(joint_t, phi / total[:, None])


def gaussian_log_pdf(g: Gaussian2D, x) -> np.ndarray | float:
    """Log-density of ``x`` under ``g`` in nats.

    ``x`` may be a single 2-vector or an (..., 2) array; the result has the
    leading shape of ``x``.
    """
    x = np.asarray(x, dtype=float)
    out = component_log_pdfs((g,), x.reshape(-1, 2))[:, 0]
    return float(out[0]) if x.ndim == 1 else out.reshape(x.shape[:-1])


def sample_covariance(points) -> np.ndarray:
    """Biased (1/n) covariance of (n, 2) points; the identity when there
    are fewer than two."""
    pts = np.asarray(points, dtype=float)
    return np.cov(pts.T, bias=True) if len(pts) > 1 else np.eye(2)


def split_by_label(rows: np.ndarray, labels, k: int) -> list:
    """``[rows[labels == j] for j in range(k)]`` from one stable argsort:
    each group's rows in their original order, as contiguous slices of one
    sorted copy, instead of k boolean scans.  ``labels`` are in [0, k)."""
    labels = np.asarray(labels)
    ends = np.cumsum(np.bincount(labels, minlength=k))
    # in the smallest unsigned type that holds k, the stable sort is a
    # radix sort whenever k < 65536
    order = np.argsort(labels.astype(np.min_scalar_type(k)), kind="stable")
    return np.split(rows[order], ends[:-1])


def bhattacharyya_distance(p: Gaussian2D, q: Gaussian2D) -> float:
    """Bhattacharyya distance between two Gaussians.

    D = 1/8 dmu' S^-1 dmu + 1/2 ln(det S / sqrt(det Sp det Sq)) where
    S = (Sp + Sq) / 2.  Symmetric, zero iff the distributions coincide.
    """
    mid = 0.5 * (p.cov + q.cov)
    det_mid = mid[0, 0] * mid[1, 1] - mid[0, 1] * mid[1, 0]
    if det_mid <= 0.0:
        raise ArithmeticError("midpoint covariance is numerically singular")
    diff = p.mean - q.mean
    inv = np.array([[mid[1, 1], -mid[0, 1]], [-mid[1, 0], mid[0, 0]]]) / det_mid
    maha = float(diff @ inv @ diff)
    # two roots, not the root of a product that overflows from |x| ~ 1e39
    return 0.125 * maha + 0.5 * math.log(
        det_mid / (math.sqrt(p.det) * math.sqrt(q.det)))


def kl_divergence(p: Gaussian2D, q: Gaussian2D) -> float:
    """KL(p || q) in nats, closed form for Gaussians.  Asymmetric, >= 0."""
    qinv = q.precision
    diff = q.mean - p.mean
    trace_term = float(np.trace(qinv @ p.cov))
    maha = float(diff @ qinv @ diff)
    val = 0.5 * (trace_term + maha - 2.0 + math.log(q.det / p.det))
    # identical inputs can land a few ulp below zero; true KL never does
    return 0.0 if -1e-9 < val < 0.0 else val


def differential_entropy(g: Gaussian2D) -> float:
    """Differential entropy in nats: 1/2 ln((2 pi e)^2 det cov)."""
    return 1.0 + LOG_2PI + 0.5 * math.log(g.det)


def role_area(g: Gaussian2D) -> float:
    """Field area statistic for one role: pi / sqrt(lambda1 * lambda2), the
    statistic ``compare`` reports per role."""
    return math.pi / math.sqrt(g.det)


def sq_dist_to(x: np.ndarray, centers: np.ndarray, labels) -> np.ndarray:
    """Squared distance of each row of ``x`` to ``centers[labels]``.

    The bits of ``((x - centers[labels]) ** 2).sum(axis=1)``, evaluated in
    one (P, D) temporary instead of three fresh ones.
    """
    diff = np.take(np.asarray(centers, dtype=float), labels, axis=0)
    np.subtract(x, diff, out=diff)
    np.square(diff, out=diff)
    if diff.shape[1] == 2:
        # numpy reduces rows of two one at a time, about 20x slower than
        # adding the columns; for two terms both are one rounded addition
        return np.add(diff[:, 0], diff[:, 1])
    return diff.sum(axis=1)


class NearestCenters(NamedTuple):
    labels: np.ndarray    # (P,) index of each row's nearest center
    sq_dist: np.ndarray   # (P,) squared distance to that center
    fallback: int         # rows that needed the exact search
    lo: np.ndarray        # (P,) lower bound on the distance to every other
    #                       candidate center; 0 where none is known


def rounding_gamma(n: int) -> float:
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff 2^-53."""
    nu = n * np.finfo(float).eps / 2
    return nu / (1.0 - nu)


def nearest_centers(x: np.ndarray, centers: np.ndarray,
                    exclude=None) -> NearestCenters:
    """Nearest of ``centers`` (k, D) to every row of ``x`` (P, D).

    The labels and squared distances are bit for bit those of the exact
    search ``d2 = ((x[:, None] - centers) ** 2).sum(axis=2)``: the first
    argmin of each row and ``d2`` at it.  ``exclude``, a (P,) index array,
    masks one center per row (its own cluster, for a neighbor distance).
    ``fallback`` counts the rows the certificate below could not settle,
    and ``lo`` bounds each row's distance to every other candidate from
    below, from the same certificate (``kmeans`` keeps it between searches).
    """
    x = np.asarray(x, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if len(centers) - (exclude is not None) < 1:
        raise ValueError("no candidate center")
    # Gram form without the row constant, g_j = |c_j|^2 - 2 x.c_j, laid out
    # (k, P) so that the reductions over centers run along whole rows
    gram = centers @ x.T
    gram *= -2.0
    sq_centers = (centers * centers).sum(axis=1)
    gram += sq_centers[:, None]
    if exclude is not None:
        gram[exclude, np.arange(len(x))] = np.inf
    best = gram.min(axis=0)
    is_best = gram == best
    labels = is_best.argmax(axis=0)      # the first of the best
    unique = is_best.sum(axis=0) == 1
    gram[is_best] = np.inf
    gap = gram.min(axis=0) - best        # inf without a runner-up
    # Certificate.  By Higham section 3.1 a D-term dot product computed in
    # any order (with or without fused multiply-adds) is within
    # gamma_D |x|.|c| of the exact one.  Let d_j = |x - c_j|^2 = |x|^2 + h_j
    # with h_j = |c_j|^2 - 2 x.c_j, and S = (|x| + max_j |c_j|)^2, which
    # bounds every d_j and every |c_j|^2 + 2 |x| |c_j|.
    # - Gram form: g_j above is within gamma_{D+1} S of h_j (gamma_D from
    #   the two dot products, one more rounding from the subtraction).
    # - Difference-of-squares form: each term fl(fl(x_i - c_i)^2) carries
    #   three roundings and numpy's sum of D terms D - 1 more, in any order,
    #   so the computed d2_j is within gamma_{D+2} d_j <= gamma_{D+2} S.
    # Hence, with a the unique best and b the runner-up of g, g_b - g_a >
    # 4 gamma_{D+2} S (so for every b != a) gives d2_b > d2_a: the exact
    # search's argmin is a, uniquely.
    # Since S <= 2 (|x|^2 + max |c_j|^2), the test below uses
    # 8 gamma_{D+3} (|x|^2 + max |c_j|^2): the ratio gamma_{D+3} / gamma_{D+2}
    # > 1 + 1 / (D + 2) covers the few roundings of evaluating the bound and
    # the gap themselves.  ``tiny`` (2^-1022) covers gradual underflow,
    # which adds an absolute error of at most 2^-1075 per product or square.
    # Overflow makes the bound inf and NaN fails every comparison, so rows
    # with non-finite values, or beside non-finite centers, take the exact
    # search.
    dim = x.shape[1]
    scale = np.einsum("ij,ij->i", x, x) + sq_centers.max()
    bound = 8.0 * rounding_gamma(dim + 3) * scale + np.finfo(float).tiny
    certified = (gap > bound) & unique
    bad = np.flatnonzero(~certified)
    if len(bad):
        exact = ((x[bad, None] - centers) ** 2).sum(axis=2)
        if exclude is not None:
            exact[np.arange(len(bad)), exclude[bad]] = np.inf
        labels[bad] = exact.argmin(axis=1)
    sq_dist = sq_dist_to(x, centers, labels)
    # Lower bound on the distance d_j to every other candidate j of a
    # certified row.  The bound above exceeds 2 gamma_{D+1} S plus the
    # rounding of the gap, so d_j^2 - d_a^2 = h_j - h_a >= gap - bound; and
    # sq_dist, the computed d2_a, is within gamma_{D+2} d_a^2 of d_a^2.
    # With two roundings in forming q = sq_dist + (gap - bound) and one in
    # its sqrt, d_j >= fl(sqrt(q)) (1 - gamma_{D+5}), which the product by
    # 1 - gamma_{D+8} (itself rounded) stays below.  Gradual underflow adds
    # at most 2^-1074 per square, so the bound may exceed d_j by at most
    # 2^-510; ``kmeans`` allows for that.  Rows without a certificate or a
    # runner-up get 0.
    lo = sq_dist + (gap - bound)
    lo[~certified | (gap == np.inf)] = 0.0
    np.sqrt(lo, out=lo)
    lo *= 1.0 - rounding_gamma(dim + 8)
    return NearestCenters(labels, sq_dist, len(bad), lo)
