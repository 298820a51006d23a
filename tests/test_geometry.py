"""Gaussian primitive oracles: closed forms against hand-derived constants,
quadrature, and Monte Carlo."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolealign import (Gaussian2D, bhattacharyya_distance,
                       component_log_pdfs, covariance_eigenvalues,
                       differential_entropy, gaussian_log_pdf, kl_divergence,
                       log_mixture_density, nearest_centers, role_area,
                       split_by_label, sq_dist_to)
from rolealign import geometry
from rolealign.geometry import (_gemm, _row_sums, density_coefficients,
                                moment_features, posterior_moments)

LOG_2PI = 1.8378770664093453


def std_normal():
    return Gaussian2D(mean=[0.0, 0.0], cov=np.eye(2))


def random_gaussian(rng, spread=3.0):
    mean = rng.normal(0, spread, 2)
    a = rng.normal(0, 1, (2, 2))
    cov = a @ a.T + 0.3 * np.eye(2)
    return Gaussian2D(mean=mean, cov=cov)


# ---------------------------------------------------------------- log pdf

def test_log_pdf_at_mean_of_standard_normal():
    assert gaussian_log_pdf(std_normal(), [0.0, 0.0]) == pytest.approx(
        -LOG_2PI, abs=1e-15)


def test_log_pdf_vectorized_matches_scalar():
    g = Gaussian2D(mean=[1.0, -2.0], cov=[[2.0, 0.5], [0.5, 1.0]])
    rng = np.random.default_rng(0)
    xs = rng.normal(0, 3, (40, 2))
    batch = gaussian_log_pdf(g, xs)
    assert batch.shape == (40,)
    for x, v in zip(xs, batch):
        assert gaussian_log_pdf(g, x) == pytest.approx(v, abs=1e-12)


def gamma(n):
    """Higham's gamma_n = n u / (1 - n u), u the unit roundoff 2^-53."""
    nu = n * np.finfo(float).eps / 2
    return nu / (1.0 - nu)


def difference_form(gaussians, pts):
    """The log densities as c - (p00 dx dx + 2 p01 dx dy + p11 dy dy) / 2,
    with c = -log 2 pi - log(det) / 2, and a bound on their rounding error:
    each product carries four roundings (two from dx, dy), the sum of three
    two more and the subtraction one, so the error is within gamma_7 of
    |c| + (|p00| dx^2 + 2 |p01| |dx dy| + |p11| dy^2) / 2."""
    means = np.array([g.mean for g in gaussians])
    precs = np.array([g.precision for g in gaussians])
    const = -LOG_2PI - 0.5 * np.log([g.det for g in gaussians])
    dx = pts[:, None, 0] - means[None, :, 0]
    dy = pts[:, None, 1] - means[None, :, 1]
    quad = (precs[:, 0, 0] * dx * dx + 2.0 * precs[:, 0, 1] * dx * dy
            + precs[:, 1, 1] * dy * dy)
    size = (np.abs(precs[:, 0, 0]) * dx * dx
            + 2.0 * np.abs(precs[:, 0, 1] * dx * dy)
            + np.abs(precs[:, 1, 1]) * dy * dy)
    return const - 0.5 * quad, gamma(7) * (np.abs(const) + 0.5 * size)


def moment_form_bound(gaussians, pts):
    """Rounding bound of the moment form phi(x) . c, where phi = [x^2, xy,
    y^2, x, y, 1] and c = [-p00/2, -p01, -p11/2, (Pm)_x, (Pm)_y,
    const - m'Pm/2]: gamma_12 of the sum of |phi_i| times the absolute
    size of c_i, with Pm and m'Pm taken over absolute values.  Higham
    section 3.1 gives gamma_6 for the six-term product; forming the
    features and coefficients adds at most five roundings, and one is
    spare."""
    means = np.array([g.mean for g in gaussians])
    absp = np.abs(np.array([g.precision for g in gaussians]))
    const = -LOG_2PI - 0.5 * np.log([g.det for g in gaussians])
    lin = absp[:, :, 0] * np.abs(means[:, :1]) \
        + absp[:, :, 1] * np.abs(means[:, 1:])
    size = np.stack([0.5 * absp[:, 0, 0], absp[:, 0, 1], 0.5 * absp[:, 1, 1],
                     lin[:, 0], lin[:, 1],
                     np.abs(const) + 0.5 * (lin * np.abs(means)).sum(axis=1)])
    x, y = np.abs(pts[:, 0]), np.abs(pts[:, 1])
    phi = np.stack([x * x, x * y, y * y, x, y, np.ones(len(pts))], axis=1)
    return gamma(12) * (phi @ size)


def _density_case(name):
    rng = np.random.default_rng(31)
    if name == "centered":
        return [random_gaussian(rng) for _ in range(5)], \
            rng.normal(0.0, 4.0, (500, 2))
    # raw pitch coordinates: roles 1 mm wide near (100, 60), points
    # within a few millimetres and across the pitch
    gs = []
    for _ in range(3):
        a = rng.normal(0.0, 1e-3, (2, 2))
        gs.append(Gaussian2D(mean=[100.0, 60.0] + rng.normal(0.0, 0.01, 2),
                             cov=a @ a.T + 1e-6 * np.eye(2)))
    near = np.array([100.0, 60.0]) + rng.normal(0.0, 0.01, (400, 2))
    far = rng.uniform((0.0, 0.0), (105.0, 68.0), (100, 2))
    return gs, np.concatenate([near, far])


@pytest.mark.parametrize("case", ["centered", "pitch"])
def test_component_log_pdfs_within_rounding_bound_of_difference_form(case):
    gaussians, pts = _density_case(case)
    got = component_log_pdfs(gaussians, pts)
    ref, ref_error = difference_form(gaussians, pts)
    gap = np.abs(got - ref)
    assert np.all(gap <= moment_form_bound(gaussians, pts) + ref_error)
    if case == "pitch":   # the moment form's cancellation is visible here
        assert gap.max() > 1e-9


def test_component_log_pdfs_entries_do_not_depend_on_shape():
    # every entry equals the 1 x 1 product of its own row and column
    rng = np.random.default_rng(32)
    gaussians = [random_gaussian(rng) for _ in range(4)]
    pts = rng.normal(0.0, 4.0, (37, 2))
    full = component_log_pdfs(gaussians, pts)
    for i in (0, 17, 36):
        for j in range(4):
            assert component_log_pdfs(gaussians[j:j + 1], pts[i:i + 1]) \
                == full[i, j]
    for lo, hi in ((0, 2), (5, 36), (36, 37)):
        assert np.array_equal(component_log_pdfs(gaussians[1:3], pts[lo:hi]),
                              full[lo:hi, 1:3])
    # and the log mixture density of a point depends on that point alone
    weights = rng.dirichlet(np.ones(4))
    mix = log_mixture_density(gaussians, weights, pts)
    assert mix.shape == (37,)
    for lo, hi in ((0, 1), (17, 18), (36, 37), (0, 2), (5, 36)):
        assert np.array_equal(log_mixture_density(gaussians, weights,
                                                  pts[lo:hi]), mix[lo:hi])


# ------------------------------------------ component-major mixture kernels


def test_row_sums_are_numpys_contiguous_row_sums():
    # signed terms from 1e-300 to 1e300, -0.0 among them, and columns of
    # -0.0 alone (numpy's sum of those is 0.0)
    rng = np.random.default_rng(8)
    for k in [*range(1, 131), 135, 200, 256, 300, 1031]:
        a = rng.standard_normal((k, 301)) \
            * 10.0 ** rng.integers(-300, 300, (k, 301))
        a[rng.random(a.shape) < 0.1] = -0.0
        a[:, :3] = -0.0
        a[:, 3] = 0.0
        before = a.copy()
        got = _row_sums(a)
        want = np.ascontiguousarray(a.T).sum(axis=1)
        assert got.shape == (301,)
        assert np.array_equal(got, want), k
        assert np.array_equal(np.signbit(got), np.signbit(want)), k
        assert np.array_equal(a, before)
        # one column, as numpy adds a block of one row
        assert np.array_equal(_row_sums(a[:, 5:6]), want[5:6]), k


def reference_log_sum_exp(joint):
    """The mixture log-sum-exp as it was, over (P, K) rows: the (P, 1) log
    of the row sums of exp(joint), with ``joint`` left holding
    exp(joint - row max), and the (P, 1) row sums of that."""
    top = joint.max(axis=1, keepdims=True)
    joint -= top
    np.exp(joint, out=joint)
    total = joint.sum(axis=1, keepdims=True)
    return np.log(total) + top, total


def reference_posterior_moments(phi, coef):
    joint = _gemm(phi, coef)
    log_mix, total = reference_log_sum_exp(joint)
    return log_mix[:, 0], _gemm(joint.T, phi / total)


def _mixture(rng, k):
    gaussians = [random_gaussian(rng, spread=6.0) for _ in range(k)]
    return gaussians, rng.dirichlet(np.ones(k))


KERNEL_KS = [1, 2, 7, 8, 9, 10, 16, 22, 129]
KERNEL_BLOCKS = [1, 7, 8191, 8192, 8193]


@pytest.mark.parametrize("k", KERNEL_KS)
def test_posterior_moments_equal_the_row_major_kernel(k):
    rng = np.random.default_rng(100 + k)
    gaussians, weights = _mixture(rng, k)
    coef = density_coefficients(gaussians, weights)
    for b in KERNEL_BLOCKS:
        # points out to 10 sigma of the spread, so responsibilities
        # underflow to subnormals and to 0
        phi = moment_features(rng.normal(0.0, 8.0, (b, 2)))
        log_mix, sums = posterior_moments(phi, coef)
        want_mix, want_sums = reference_posterior_moments(phi, coef)
        assert log_mix.shape == (b,) and sums.shape == (k, 6)
        assert np.array_equal(log_mix, want_mix)
        assert np.array_equal(sums, want_sums)


@pytest.mark.parametrize("k", KERNEL_KS)
def test_log_mixture_density_equals_the_row_major_kernel(k, monkeypatch):
    rng = np.random.default_rng(200 + k)
    gaussians, weights = _mixture(rng, k)
    coef = density_coefficients(gaussians, weights)
    for p in KERNEL_BLOCKS:
        pts = rng.normal(0.0, 8.0, (p, 2))
        want = reference_log_sum_exp(_gemm(moment_features(pts), coef))[0]
        for block in (geometry.BLOCK, 7):   # one or two blocks, then many
            monkeypatch.setattr(geometry, "BLOCK", block)
            got = log_mixture_density(gaussians, weights, pts)
            assert got.shape == (p,)
            assert np.array_equal(got, want[:, 0])
        monkeypatch.undo()


def test_log_mixture_density_of_no_points_is_empty():
    gaussians, weights = _mixture(np.random.default_rng(3), 4)
    assert log_mixture_density(gaussians, weights,
                               np.zeros((0, 2))).shape == (0,)


def test_log_pdf_integrates_to_one():
    # grid quadrature over +-8 sigma, 20 random Gaussians, within 1e-3
    rng = np.random.default_rng(42)
    for _ in range(20):
        g = random_gaussian(rng)
        half = 8.0 * math.sqrt(covariance_eigenvalues(g)[0])
        axis = np.linspace(-half, half, 400)
        dx = axis[1] - axis[0]
        gx, gy = np.meshgrid(axis + g.mean[0], axis + g.mean[1])
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        mass = np.exp(gaussian_log_pdf(g, pts)).sum() * dx * dx
        assert mass == pytest.approx(1.0, abs=1e-3)


# ------------------------------------------------------------ bhattacharyya

def test_bhattacharyya_identical_is_zero():
    g = Gaussian2D(mean=[3.0, -1.0], cov=[[2.0, 0.3], [0.3, 1.0]])
    assert bhattacharyya_distance(g, g) == pytest.approx(0.0, abs=1e-12)


def test_bhattacharyya_mean_shift():
    # unit covariances, means 2 apart: D = (1/8) * 4 = 0.5
    p = std_normal()
    q = Gaussian2D(mean=[2.0, 0.0], cov=np.eye(2))
    assert bhattacharyya_distance(p, q) == pytest.approx(0.5, abs=1e-12)


def test_bhattacharyya_scale_mismatch():
    # I vs 4I: 0.5 * ln(det(2.5 I) / sqrt(1 * 16)) = 0.5 * ln(25/16)
    p = std_normal()
    q = Gaussian2D(mean=[0.0, 0.0], cov=4.0 * np.eye(2))
    assert bhattacharyya_distance(p, q) == pytest.approx(
        0.22314355131420976, abs=1e-12)


def test_bhattacharyya_symmetric_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        p, q = random_gaussian(rng), random_gaussian(rng)
        d_pq = bhattacharyya_distance(p, q)
        d_qp = bhattacharyya_distance(q, p)
        assert d_pq == pytest.approx(d_qp, abs=1e-10)
        assert d_pq >= 0.0


def test_bhattacharyya_is_scale_invariant():
    # D(p, q) of Gaussians scaled by one factor s is D(p, q): each det
    # grows as s**4, so their product overflowed from s ~ 1e40
    rng = np.random.default_rng(8)
    for _ in range(20):
        p, q = random_gaussian(rng), random_gaussian(rng)
        d = bhattacharyya_distance(p, q)
        for k in range(0, 71, 10):
            s = 10.0 ** k
            scaled = [Gaussian2D(mean=g.mean * s, cov=g.cov * s * s)
                      for g in (p, q)]
            assert bhattacharyya_distance(*scaled) == pytest.approx(
                d, rel=1e-9), k


# ---------------------------------------------------------------------- kl

def test_kl_mean_shift():
    p = std_normal()
    q = Gaussian2D(mean=[1.0, 0.0], cov=np.eye(2))
    assert kl_divergence(p, q) == pytest.approx(0.5, abs=1e-12)


def test_kl_scale_both_directions():
    p = std_normal()
    q = Gaussian2D(mean=[0.0, 0.0], cov=2.0 * np.eye(2))
    # 0.5 (1 + 0 - 2 + ln 4) = ln 2 - 1/2 and 0.5 (4 - 2 - ln 4) = 1 - ln 2
    assert kl_divergence(p, q) == pytest.approx(
        math.log(2.0) - 0.5, abs=1e-12)
    assert kl_divergence(q, p) == pytest.approx(
        1.0 - math.log(2.0), abs=1e-12)


def test_kl_nonnegative_zero_iff_equal():
    rng = np.random.default_rng(5)
    for _ in range(50):
        p, q = random_gaussian(rng), random_gaussian(rng)
        assert kl_divergence(p, q) >= 0.0
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-9)


def test_kl_matches_quadrature():
    rng = np.random.default_rng(19)
    for _ in range(6):
        p = random_gaussian(rng, spread=1.0)
        q = random_gaussian(rng, spread=1.0)
        half = 9.0 * math.sqrt(max(covariance_eigenvalues(p)[0],
                                   covariance_eigenvalues(q)[0]))
        center = 0.5 * (p.mean + q.mean)
        axis = np.linspace(-half, half, 400)
        dx = axis[1] - axis[0]
        gx, gy = np.meshgrid(axis + center[0], axis + center[1])
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        lp = gaussian_log_pdf(p, pts)
        lq = gaussian_log_pdf(q, pts)
        numeric = (np.exp(lp) * (lp - lq)).sum() * dx * dx
        assert kl_divergence(p, q) == pytest.approx(numeric, abs=1e-3)


# ----------------------------------------------------------------- entropy

def test_entropy_closed_forms():
    assert differential_entropy(std_normal()) == pytest.approx(
        1.0 + LOG_2PI, abs=1e-15)
    g = Gaussian2D(mean=[0.0, 0.0], cov=[[4.0, 0.0], [0.0, 1.0]])
    assert differential_entropy(g) == pytest.approx(
        1.0 + LOG_2PI + 0.5 * math.log(4.0), abs=1e-15)


def test_entropy_matches_monte_carlo():
    rng = np.random.default_rng(23)
    for _ in range(5):
        g = random_gaussian(rng)
        n = 100_000
        chol = np.linalg.cholesky(g.cov)
        x = g.mean + rng.standard_normal((n, 2)) @ chol.T
        lp = gaussian_log_pdf(g, x)
        est = -lp.mean()
        se = lp.std(ddof=1) / math.sqrt(n)
        assert abs(differential_entropy(g) - est) <= 3.0 * se


# ------------------------------------------------------------- eigenvalues

def test_eigenvalues_fixture():
    g = Gaussian2D(mean=[0.0, 0.0], cov=[[2.0, 1.0], [1.0, 2.0]])
    l1, l2 = covariance_eigenvalues(g)
    assert l1 == pytest.approx(3.0, abs=1e-12)
    assert l2 == pytest.approx(1.0, abs=1e-12)


def test_eigenvalues_trace_det_property():
    rng = np.random.default_rng(13)
    for _ in range(100):
        g = random_gaussian(rng)
        l1, l2 = covariance_eigenvalues(g)
        assert l1 >= l2 > 0.0
        assert l1 + l2 == pytest.approx(np.trace(g.cov), abs=1e-10)
        assert l1 * l2 == pytest.approx(np.linalg.det(g.cov), abs=1e-10)
        ref = np.linalg.eigvalsh(g.cov)
        assert l2 == pytest.approx(ref[0], abs=1e-9)
        assert l1 == pytest.approx(ref[1], abs=1e-9)


# ------------------------------------------------------------------- areas

def test_role_area_conventions():
    g = Gaussian2D(mean=[0.0, 0.0], cov=[[4.0, 0.0], [0.0, 1.0]])
    assert role_area(g) == pytest.approx(math.pi / 2.0, abs=1e-12)
    h = Gaussian2D(mean=[0.0, 0.0], cov=4.0 * np.eye(2))
    assert role_area(h) == pytest.approx(math.pi / 4.0, abs=1e-12)


# ------------------------------------------------------- type construction

def test_gaussian_validation():
    with pytest.raises(ValueError):
        Gaussian2D(mean=[0.0, 0.0], cov=[[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError):
        Gaussian2D(mean=[np.nan, 0.0], cov=np.eye(2))
    with pytest.raises(ValueError):
        Gaussian2D(mean=[0.0, 0.0], cov=np.eye(2), weight=1.5)


def test_eigenvalue_floor_applied():
    g = Gaussian2D(mean=[0.0, 0.0], cov=np.zeros((2, 2)))
    l1, l2 = covariance_eigenvalues(g)
    assert l2 >= 1e-6 - 1e-18
    # floored covariance still yields finite densities
    assert math.isfinite(gaussian_log_pdf(g, [0.0, 0.0]))


def test_gaussian_arrays_frozen():
    g = std_normal()
    with pytest.raises(ValueError):
        g.cov[0, 0] = 5.0
    with pytest.raises(ValueError):
        g.mean[0] = 1.0


def test_serialization_round_trip_exact():
    rng = np.random.default_rng(31)
    for _ in range(20):
        g = random_gaussian(rng)
        g = Gaussian2D(mean=g.mean, cov=g.cov, weight=float(rng.uniform()))
        back = Gaussian2D.from_dict(json.loads(json.dumps(g.to_dict())))
        assert np.array_equal(back.mean, g.mean)
        assert np.array_equal(back.cov, g.cov)
        assert back.weight == g.weight


# ---------------------------------------------------------- nearest centers


def reference_nearest(x, centers, exclude=None):
    """The (P, k, D) broadcast search nearest_centers must match bit for
    bit: the first argmin per row and the broadcast's entry there."""
    d2 = ((x[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    rows = np.arange(len(x))
    if exclude is not None:
        d2[rows, exclude] = np.inf
    labels = d2.argmin(axis=1)
    return labels, d2[rows, labels]


def assert_matches_reference(x, centers, exclude=None):
    near = nearest_centers(x, centers, exclude)
    labels, d2 = reference_nearest(x, centers, exclude)
    assert np.array_equal(near.labels, labels)
    assert np.array_equal(near.sq_dist, d2, equal_nan=True)
    return near


def test_nearest_centers_random_rows_are_certified():
    rng = np.random.default_rng(5)
    x = rng.normal(0.0, 5.0, (600, 44))
    centers = x[rng.choice(600, 12, replace=False)] + rng.normal(size=(12, 44))
    near = assert_matches_reference(x, centers)
    assert near.fallback == 0
    own = np.array([1, 3] * 300)
    assert assert_matches_reference(x, centers, exclude=own).fallback == 0


def test_nearest_centers_duplicate_centers_first_index_wins():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(300, 44))
    centers = rng.normal(size=(5, 44))
    centers[3] = centers[1]          # exact ties between 1 and 3
    near = assert_matches_reference(x, centers)
    assert not np.any(near.labels == 3)
    tied = np.sum(near.labels == 1)
    assert tied > 0 and near.fallback == tied


def _one_ulp_ties(dim=44, n=4000, seed=7, centers=None):
    """Two centers (random unless given) and rows on (a few ulp off) their
    bisecting hyperplane, kept where the two squared distances are computed
    exactly one ulp apart.  In general position the Gram form is off by far
    more than an ulp, so only the exact search can order such rows."""
    rng = np.random.default_rng(seed)
    if centers is None:
        centers = rng.normal(size=(2, dim))
    normal = centers[1] - centers[0]
    v = rng.normal(size=(n, dim))
    v -= np.outer(v @ normal, normal) / (normal @ normal)
    x = 0.5 * (centers[0] + centers[1]) + v
    x += np.outer(rng.integers(-8, 9, n) * 2.0 ** -50, normal)
    d2 = ((x[:, None, :] - centers[None]) ** 2).sum(axis=2)
    one_ulp = np.abs(d2[:, 0] - d2[:, 1]) == np.spacing(d2.min(axis=1))
    return x[one_ulp], centers


def test_nearest_centers_one_ulp_near_ties_take_the_exact_search():
    x, centers = _one_ulp_ties()
    assert len(x) > 100
    labels, _ = reference_nearest(x, centers)
    assert 0 < labels.sum() < len(x)    # both sides of the tie occur
    near = assert_matches_reference(x, centers)
    assert near.fallback == len(x)


def test_nearest_centers_large_offsets_fall_back_and_count():
    # at 1e6 the Gram form's cancellation error dwarfs the gaps between
    # distances of size 1e-4, so no row is certified
    rng = np.random.default_rng(8)
    x = 1e6 + rng.normal(0.0, 0.01, (400, 44))
    centers = 1e6 + rng.normal(0.0, 0.01, (6, 44))
    near = assert_matches_reference(x, centers)
    assert near.fallback == len(x)
    assert assert_matches_reference(x, centers,
                                    exclude=near.labels).fallback == len(x)


def test_nearest_centers_without_a_runner_up_accepts_every_row():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(50, 44))
    one = assert_matches_reference(x, rng.normal(size=(1, 44)))
    assert one.fallback == 0 and not one.labels.any()
    two = rng.normal(size=(2, 44))
    own = rng.integers(0, 2, 50)
    other = assert_matches_reference(x, two, exclude=own)
    assert other.fallback == 0
    assert np.array_equal(other.labels, 1 - own)
    with pytest.raises(ValueError, match="no candidate center"):
        nearest_centers(x, two[:1], exclude=np.zeros(50, dtype=int))


def test_nearest_centers_non_finite_rows_take_the_exact_search():
    x = np.array([[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0],
                  [1e200, 0.0, 0.0]])
    centers = np.array([[1.0, 0.0, 0.0], [-1.0, 0.5, 0.0]])
    with np.errstate(invalid="ignore", over="ignore"):
        near = assert_matches_reference(x, centers)
        assert near.fallback == 3
        centers[1, 2] = np.inf     # every row beside an infinite center
        assert assert_matches_reference(x, centers).fallback == 4


def test_sq_dist_to_matches_the_broadcast_entry():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(200, 44))
    centers = rng.normal(size=(7, 44))
    labels = rng.integers(0, 7, 200)
    assert np.array_equal(sq_dist_to(x, centers, labels),
                          ((x - centers[labels]) ** 2).sum(axis=1))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sq_dist_to_matches_the_broadcast_entry_in_few_dimensions(dim):
    # two columns are added directly, not reduced row by row
    rng = np.random.default_rng(12)
    x = rng.normal(size=(200, dim)) * 10.0 ** rng.integers(-3, 4, (200, 1))
    x[0], x[1], x[2, 0] = 0.0, -0.0, np.inf
    centers = np.concatenate([rng.normal(size=(6, dim)), np.full((1, dim),
                                                                -0.0)])
    labels = rng.integers(0, 7, 200)
    labels[:3] = 6
    with np.errstate(invalid="ignore"):
        assert np.array_equal(sq_dist_to(x, centers, labels),
                              ((x - centers[labels]) ** 2).sum(axis=1),
                              equal_nan=True)


@st.composite
def _search_case(draw):
    p = draw(st.integers(1, 12))
    k = draw(st.integers(1, 5))
    dim = draw(st.integers(1, 8))
    grid = draw(st.booleans())       # small integers make exact ties
    values = (st.integers(-3, 3).map(float) if grid else
              st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))
    x = np.array(draw(st.lists(values, min_size=p * dim, max_size=p * dim))
                 ).reshape(p, dim)
    centers = np.array(draw(st.lists(values, min_size=k * dim,
                                     max_size=k * dim))).reshape(k, dim)
    exclude = None
    if k > 1 and draw(st.booleans()):
        exclude = np.array(draw(st.lists(st.integers(0, k - 1), min_size=p,
                                         max_size=p)))
    return x, centers, exclude


@settings(max_examples=200, deadline=None)
@given(_search_case())
def test_nearest_centers_equals_broadcast_search_property(case):
    x, centers, exclude = case
    near = assert_matches_reference(x, centers, exclude)
    assert 0 <= near.fallback <= len(x)
    assert_lo_is_a_lower_bound(x, centers, exclude, near)


def assert_lo_is_a_lower_bound(x, centers, exclude, near):
    """Each row's lo, squared in exact rational arithmetic, is at most its
    exact squared distance to every candidate but its own."""
    assert np.all(near.lo >= 0.0)
    for i in np.flatnonzero(near.lo):
        bound = Fraction(float(near.lo[i])) ** 2
        for j, c in enumerate(centers):
            if j != near.labels[i] and (exclude is None or j != exclude[i]):
                exact = sum((Fraction(float(a)) - Fraction(float(b))) ** 2
                            for a, b in zip(x[i], c))
                assert bound <= exact


def test_nearest_centers_lo_is_zero_without_a_certificate_or_runner_up():
    x, centers = _one_ulp_ties()
    assert not nearest_centers(x, centers).lo.any()      # every row falls back
    rng = np.random.default_rng(11)
    x = rng.normal(size=(50, 3))
    assert not nearest_centers(x, rng.normal(size=(1, 3))).lo.any()
    centers = rng.normal(size=(4, 3)) * 5
    near = nearest_centers(x, centers)
    assert near.fallback == 0 and near.lo.all()
    assert_lo_is_a_lower_bound(x, centers, None, near)


# ------------------------------------------------------------ split_by_label


def test_split_by_label_is_the_mask_gather():
    rng = np.random.default_rng(33)
    pts = rng.normal(0.0, 5.0, (500, 2))
    labels = rng.choice([0, 1, 3, 4], size=500)   # label 2 is absent
    groups = split_by_label(pts, labels, 5)
    assert len(groups) == 5
    for j, group in enumerate(groups):
        member = pts[labels == j]
        assert np.array_equal(group, member)
        if len(member):
            assert np.array_equal(group.mean(axis=0), member.mean(axis=0))
            assert np.array_equal(np.cov(group.T, bias=True),
                                  np.cov(member.T, bias=True))
    assert groups[2].shape == (0, 2)
    idx = np.arange(500)
    for j, rows in enumerate(split_by_label(idx, labels, 5)):
        assert np.array_equal(rows, np.flatnonzero(labels == j))
