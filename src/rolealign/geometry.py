"""2D Gaussian primitives: densities, divergences, entropy, covering area.

Every role in a formation is modelled as a bivariate Gaussian with a mixture
weight.  All formulas below are closed-form for the 2x2 case; no iterative
linear algebra is involved, so everything here is cheap and exact.

This module is the only place that evaluates a Gaussian density:
``component_log_pdfs`` is the one kernel behind EM, role assignment, the
hard baseline and ``gaussian_log_pdf``, and ``log_responsibilities`` the
one mixture log-sum-exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Additive diagonal regularization target: covariance eigenvalues are kept at
# or above this floor (in m^2) so that precision matrices always exist.
DEFAULT_EIGENVALUE_FLOOR = 1e-6

LOG_2PI = math.log(2.0 * math.pi)

_SYMMETRY_TOL = 1e-12


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
    on construction and its eigenvalues are raised to ``eig_floor`` by adding
    to the diagonal when necessary.  Arrays are copied and frozen.
    """

    mean: np.ndarray
    cov: np.ndarray
    weight: float = 1.0
    eig_floor: float = field(default=DEFAULT_EIGENVALUE_FLOOR, compare=False)

    def __post_init__(self):
        mean = np.array(self.mean, dtype=float).reshape(2)
        cov = np.array(self.cov, dtype=float).reshape(2, 2)
        if not np.all(np.isfinite(mean)) or not np.all(np.isfinite(cov)):
            raise ValueError("Gaussian parameters must be finite")
        if abs(cov[0, 1] - cov[1, 0]) > _SYMMETRY_TOL * max(1.0, abs(cov[0, 1])):
            raise ValueError("covariance is not symmetric")
        cov = 0.5 * (cov + cov.T)
        lo = _eigenvalues_2x2(cov)[1]
        if lo < self.eig_floor:
            cov = cov + (self.eig_floor - lo) * np.eye(2)
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


def component_log_pdfs(gaussians, pts: np.ndarray,
                       work=None) -> np.ndarray:
    """(P, K) matrix of Gaussian log densities: entry (i, j) is the log
    density of point i under ``gaussians[j]``.

    ``gaussians`` is any sequence of ``Gaussian2D`` (a formation's
    components, a template's roles) and ``pts`` a (P, 2) array.  With 2x2
    covariances the quadratic form expands into three scalar precision
    entries per component.  The terms are evaluated in place, in the order
    of ``c - 0.5 * (p00*dx*dx + 2*p01*dx*dy + p11*dy*dy)``, so the bits are
    those of that expression.  ``work`` (four (P, K) float arrays) is
    overwritten and its first array returned; without it four fresh arrays
    are used.
    """
    means = np.array([g.mean for g in gaussians])
    precs = np.array([g.precision for g in gaussians])
    dets = np.array([g.det for g in gaussians])
    quad, dx, dy, term = work or [np.empty((len(pts), len(means)))
                                  for _ in range(4)]
    np.subtract(pts[:, None, 0], means[None, :, 0], out=dx)
    np.subtract(pts[:, None, 1], means[None, :, 1], out=dy)
    np.multiply(precs[:, 0, 0], dx, out=quad)
    quad *= dx
    np.multiply(2.0 * precs[:, 0, 1], dx, out=term)
    term *= dy
    quad += term
    np.multiply(precs[:, 1, 1], dy, out=term)
    term *= dy
    quad += term
    quad *= 0.5
    return np.subtract(-LOG_2PI - 0.5 * np.log(dets), quad, out=quad)


def log_responsibilities(gaussians, weights, pts: np.ndarray, work=None
                         ) -> tuple[np.ndarray, np.ndarray]:
    """The E-step of a Gaussian mixture: (P, K) log responsibilities and
    the (P, 1) log mixture density of every point.

    ``weights`` are the mixture weights of ``gaussians``; the mean of the
    second result is the average log-likelihood.  The responsibilities are
    computed in place in the log densities, so with ``work`` (as in
    ``component_log_pdfs``) they are its first array.
    """
    joint = component_log_pdfs(gaussians, pts, work)
    joint += np.log(weights)
    m = joint.max(axis=1, keepdims=True)
    shifted = np.subtract(joint, m, out=work[1] if work else None)
    np.exp(shifted, out=shifted)
    log_mix = np.log(shifted.sum(axis=1, keepdims=True)) + m
    joint -= log_mix   # now the log responsibilities
    return joint, log_mix


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


def _midpoint_mahalanobis(p: Gaussian2D, q: Gaussian2D) -> tuple[float, float]:
    """(dmu' S^-1 dmu, det S) for the midpoint covariance S = (Sp + Sq) / 2."""
    mid = 0.5 * (p.cov + q.cov)
    det_mid = mid[0, 0] * mid[1, 1] - mid[0, 1] * mid[1, 0]
    if det_mid <= 0.0:
        raise ArithmeticError("midpoint covariance is numerically singular")
    diff = p.mean - q.mean
    inv = np.array([[mid[1, 1], -mid[0, 1]], [-mid[1, 0], mid[0, 0]]]) / det_mid
    return float(diff @ inv @ diff), det_mid


def bhattacharyya_distance(p: Gaussian2D, q: Gaussian2D) -> float:
    """Bhattacharyya distance between two Gaussians.

    D = 1/8 dmu' S^-1 dmu + 1/2 ln(det S / sqrt(det Sp det Sq)) where
    S = (Sp + Sq) / 2.  Symmetric, zero iff the distributions coincide.
    """
    maha, det_mid = _midpoint_mahalanobis(p, q)
    return 0.125 * maha + 0.5 * math.log(det_mid / math.sqrt(p.det * q.det))


def mahalanobis_between_means(p: Gaussian2D, q: Gaussian2D) -> float:
    """Mahalanobis distance between the means under the averaged covariance.

    Alternative alignment cost to the Bhattacharyya distance; ignores the
    shape mismatch term entirely.
    """
    return math.sqrt(max(0.0, _midpoint_mahalanobis(p, q)[0]))


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


def role_area(g: Gaussian2D, convention: str = "inverse") -> float:
    """Field area statistic for one role.

    ``convention="inverse"`` returns pi / sqrt(lambda1 * lambda2), the
    statistic used when comparing methods; ``convention="ellipse"`` returns
    the one-sigma ellipse area pi * sqrt(lambda1 * lambda2).
    """
    root = math.sqrt(g.det)
    if convention == "inverse":
        return math.pi / root
    if convention == "ellipse":
        return math.pi * root
    raise ValueError(f"unknown area convention: {convention!r}")
