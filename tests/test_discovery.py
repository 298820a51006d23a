"""Init, K-Means, and the eigenvalue-guarded EM loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolealign import discovery, generate_formation, sample_dataset
from rolealign.discovery import (
    DiscoveryConfig,
    EmTrace,
    Formation,
    _em_pass,
    canonical_order,
    discover_formation,
    em_step_full,
    kmeans,
    player_mean_init,
)
from rolealign.geometry import (
    LOG_2PI,
    Gaussian2D,
    component_log_pdfs,
    gaussian_log_pdf,
    log_mixture_density,
)
from rolealign.ingest import Dataset, Frame, flatten

from oracles import reference_kmeans


def frames_from_points(pts, per_frame):
    pts = np.asarray(pts)
    ids = tuple(str(i) for i in range(per_frame))
    return Dataset.from_frames(tuple(
        Frame(frame_id=i, positions=pts[i * per_frame:(i + 1) * per_frame],
              agent_ids=ids)
        for i in range(len(pts) // per_frame)))


def random_formation(rng, k):
    means = rng.normal(size=(k, 2)) * 4
    comps = tuple(Gaussian2D(mean=m, cov=np.eye(2), weight=1.0 / k)
                  for m in means)
    return Formation(components=comps)


# init


def test_player_mean_init_hand_values():
    f0 = Frame(frame_id=0, positions=[[0.0, 0.0], [2.0, 2.0]],
               agent_ids=("b", "a"))
    f1 = Frame(frame_id=1, positions=[[4.0, 0.0], [2.0, 0.0]],
               agent_ids=("a", "b"))
    init = player_mean_init(Dataset.from_frames((f0, f1)))
    # sorted ids (a, b); a averages (2,2) and (4,0), b averages (0,0) and (2,0)
    assert np.array_equal(init, [[3.0, 1.0], [1.0, 0.0]])


def reference_player_mean_init(frames):
    """The per-frame dict loop player_mean_init replaced."""
    frames = sorted(frames, key=lambda f: f.frame_id)
    ids = sorted(frames[0].agent_ids)
    sums = {a: np.zeros(2) for a in ids}
    for f in frames:
        index = {a: i for i, a in enumerate(f.agent_ids)}
        for a in ids:
            sums[a] = sums[a] + f.positions[index[a]]
    return np.stack([sums[a] / len(frames) for a in ids])


def test_player_mean_init_bit_identical_to_reference_loop():
    # frames out of frame_id order, agents listed in a different order each
    rng = np.random.default_rng(12)
    frames = []
    for fid in rng.permutation(300):
        order = rng.permutation(7)
        frames.append(Frame(frame_id=int(fid),
                            positions=rng.normal(50.0, 30.0, (7, 2)),
                            agent_ids=[f"p{j}" for j in order]))
    got = player_mean_init(Dataset.from_frames(frames))
    assert np.array_equal(got, reference_player_mean_init(frames))


def test_player_mean_init_missing_agent():
    f0 = Frame(frame_id=0, positions=[[0.0, 0.0]], agent_ids=("a",))
    f1 = Frame(frame_id=1, positions=[[1.0, 1.0]], agent_ids=("b",))
    with pytest.raises(ValueError, match="agent 'a' missing from frame 1"):
        player_mean_init(Dataset.from_frames((f0, f1)))


# K-Means


def test_kmeans_recovers_separated_blobs():
    rng = np.random.default_rng(0)
    blobs = np.concatenate([rng.normal((0.0, 0.0), 0.1, (30, 2)),
                            rng.normal((10.0, 0.0), 0.1, (30, 2))])
    km = kmeans(blobs, np.array([[1.0, 0.0], [9.0, 0.0]]))
    assert np.allclose(km.centers[0], blobs[:30].mean(axis=0))
    assert np.allclose(km.centers[1], blobs[30:].mean(axis=0))
    assert np.array_equal(km.labels[:30], np.zeros(30))
    assert np.array_equal(km.labels[30:], np.ones(30))


def test_kmeans_inertia_nonincreasing():
    rng = np.random.default_rng(1)
    for _ in range(10):
        pts = rng.normal(size=(80, 2)) * 3
        init = pts[rng.choice(80, size=4, replace=False)]
        km = kmeans(pts, init)
        inert = np.array(km.inertia)
        assert np.all(np.diff(inert) <= 1e-9)


def test_kmeans_exact_init_stops_after_one_pass():
    rng = np.random.default_rng(0)
    blobs = np.concatenate([rng.normal((0.0, 0.0), 0.1, (30, 2)),
                            rng.normal((10.0, 0.0), 0.1, (30, 2))])
    init = np.stack([blobs[:30].mean(axis=0), blobs[30:].mean(axis=0)])
    km = kmeans(blobs, init)
    assert km.n_iterations == 1
    assert np.array_equal(km.centers, init)


def test_kmeans_reseeds_empty_clusters():
    # both centers start on the left blob; the right blob must be claimed
    rng = np.random.default_rng(2)
    pts = np.concatenate([rng.normal((0.0, 0.0), 0.2, (40, 2)),
                          rng.normal((20.0, 0.0), 0.2, (40, 2))])
    km = kmeans(pts, np.array([[0.0, 0.1], [0.0, -0.1]]))
    assert len(set(km.labels.tolist())) == 2
    assert sorted(np.round(km.centers[:, 0], 0).tolist()) == [0.0, 20.0]


def test_kmeans_reseed_never_empties_a_singleton_cluster():
    # (50, 0) ties between (100, 0) and (0, 0) and alone takes cluster 0;
    # cluster 2 starts empty.  Reseeding it with the farthest point, (50, 0)
    # itself, used to empty cluster 0: a NaN center and inertia
    # 93.2 -> nan -> 2478.7.
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.standard_normal((50, 2)), [[50.0, 0.0]]])
    km = kmeans(pts, np.array([[100.0, 0.0], [0.0, 0.0], [0.0, 0.0]]))
    assert np.isfinite(km.centers).all()
    assert np.isfinite(km.inertia).all()
    assert np.all(np.diff(km.inertia) <= 0.0)
    assert sorted(np.bincount(km.labels, minlength=3).tolist())[0] >= 1


def _kmeans_case(name):
    rng = np.random.default_rng(41)
    if name == "2d":
        ds, _ = sample_dataset(generate_formation(10, separation=2.0, seed=4),
                               3000, swap_rate=0.05, seed=4)
        pts = flatten(ds) + np.array([52.5, 34.0])   # pitch-like offsets
        return pts, player_mean_init(ds) + np.array([52.5, 34.0])
    if name == "44d":
        blobs = rng.normal(0.0, 5.0, (20, 44))
        pts = blobs[rng.integers(0, 20, 1500)] + rng.normal(size=(1500, 44))
        return pts, pts[rng.choice(1500, 20, replace=False)]
    # "reseed": duplicated and far-off centers leave clusters empty
    pts = rng.normal(size=(4000, 2)) * np.array([30.0, 20.0])
    init = np.concatenate([pts[:4], pts[:2], [[1e4, 1e4], [-1e4, 0.0]]])
    return pts, init


@pytest.mark.parametrize("case", ["2d", "44d", "reseed"])
def test_kmeans_bit_identical_to_reference_loop(case, monkeypatch):
    pts, init = _kmeans_case(case)
    centers, labels, inertia = reference_kmeans(pts, init)
    for block in (discovery.BLOCK, 7):   # one block, then many
        monkeypatch.setattr(discovery, "BLOCK", block)
        km = kmeans(pts, init)
        assert km.n_iterations > 1
        assert np.array_equal(km.centers, centers)
        assert np.array_equal(km.labels, labels)
        assert km.inertia == inertia
        assert km.searched + km.settled == len(pts) * km.n_iterations
        assert km.settled > 0


def test_kmeans_does_not_mutate_init():
    rng = np.random.default_rng(3)
    pts = rng.normal(size=(50, 2))
    init = pts[:3].copy()
    before = init.copy()
    kmeans(pts, init)
    assert np.array_equal(init, before)


def test_kmeans_k_exceeds_points():
    with pytest.raises(ValueError, match="k=3 exceeds point count 2"):
        kmeans(np.zeros((2, 2)), np.zeros((3, 2)))


def test_canonical_order_lexicographic():
    pts = np.array([[1.0, 5.0], [0.0, 2.0], [1.0, -1.0], [0.0, 1.0]])
    order = canonical_order(pts)
    assert np.array_equal(pts[order],
                          [[0.0, 1.0], [0.0, 2.0], [1.0, -1.0], [1.0, 5.0]])


def test_canonical_order_is_lexsort_with_ties_and_signed_zeros():
    rng = np.random.default_rng(7)
    # few distinct values, so whole (x, y) rows tie; -0.0 and 0.0 are equal
    pts = rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=(5000, 2))
    expected = np.lexsort((pts[:, 1], pts[:, 0]))
    assert np.array_equal(canonical_order(pts), expected)
    # a strided (non-contiguous) view sorts the same rows the same way
    wide = np.zeros((5000, 4))
    wide[:, ::2] = pts
    assert np.array_equal(canonical_order(wide[:, ::2]), expected)


def stable_complex_order(pts):
    """canonical_order as it was: one stable sort of x + iy."""
    pts = np.ascontiguousarray(pts, dtype=np.float64)
    return np.argsort(pts.view(np.complex128)[:, 0], kind="stable")


def _order_cases():
    rng = np.random.default_rng(17)
    pts = rng.normal(0.0, 20.0, (20000, 2))
    yield "unique x", pts
    for decimals in range(4):
        rounded = np.round(pts, decimals)
        yield f"{decimals} decimals", rounded - rounded.mean(axis=0)
    signed = pts[:2000].copy()
    signed[::3, 0] = 0.0
    signed[1::3, 0] = -0.0
    signed[::5, 1] = -0.0
    yield "signed zeros", signed
    yield "duplicate points", np.concatenate([pts[:500], pts[:500][::-1],
                                              pts[250:300]])
    nan_rows = pts[:1000].copy()
    nan_rows[::7] = np.nan
    nan_rows[3::11, 0] = np.nan
    yield "NaN rows", nan_rows
    yield "one point", pts[:1]
    yield "no points", pts[:0]


@pytest.mark.parametrize("name, pts", list(_order_cases()))
def test_canonical_order_is_lexsort(name, pts):
    order = canonical_order(pts)
    assert np.array_equal(order, np.lexsort((pts[:, 1], pts[:, 0])))
    assert np.array_equal(order, stable_complex_order(pts))


def test_canonical_order_keeps_the_complex_order_of_nan_y():
    # numpy sorts x + NaN i after every row without NaN; with unique x the
    # quicksort of x alone would not, so such rows take the stable sort
    pts = np.array([[1.0, np.nan], [0.5, 3.0], [2.0, 1.0], [1.5, 2.0]])
    assert np.array_equal(canonical_order(pts), [1, 3, 2, 0])
    assert np.array_equal(canonical_order(pts), stable_complex_order(pts))


# EM updates


def e_step(f, pts):
    """Log responsibilities and the average log-likelihood under f."""
    log_mix = log_mixture_density(f.components, f.weights, pts)
    log_resp = (component_log_pdfs(f.components, pts) + np.log(f.weights)
                - log_mix[:, None])
    return log_resp, float(log_mix.mean())


def test_em_full_step_never_decreases_loglik():
    rng = np.random.default_rng(4)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        state = random_formation(rng, k)
        pts = rng.normal(size=(150, 2)) * 3
        _, before = e_step(state, pts)
        new = em_step_full(state, pts)
        _, after = e_step(new, pts)
        assert after >= before - 1e-8


@pytest.mark.parametrize("spherical", [False, True],
                         ids=["em_step_full", "em_step_spherical"])
def test_dead_component_keeps_its_mean_and_covariance(spherical):
    # no point has a responsibility for the far component that survives
    # underflow; it used to jump to the origin with a 1e-6 covariance
    pts = np.random.default_rng(1).standard_normal((500, 2))
    far = Gaussian2D(mean=np.array([700.0, 0.0]), cov=[[2.0, 0.5], [0.5, 1.0]],
                     weight=0.5)
    near = Gaussian2D(mean=np.zeros(2), cov=np.eye(2), weight=0.5)
    state = Formation(components=(near, far))
    out = _em_pass(state, pts, spherical)[1]
    assert np.array_equal(out.components[1].mean, far.mean)
    assert np.array_equal(out.components[1].cov, far.cov)
    assert out.components[1].weight < 1e-300
    assert np.allclose(out.components[0].mean, pts.mean(axis=0))


def test_spherical_step_gives_isotropic_covariances():
    rng = np.random.default_rng(5)
    state = random_formation(rng, 3)
    pts = rng.normal(size=(120, 2)) * 2
    log_resp, _ = e_step(state, pts)
    new = _em_pass(state, pts, spherical=True)[1]
    resp = np.exp(log_resp)
    counts = resp.sum(axis=0)
    means = (resp.T @ pts) / counts[:, None]
    for j, c in enumerate(new.components):
        assert c.cov[0, 1] == 0.0 and c.cov[1, 0] == 0.0
        assert c.cov[0, 0] == c.cov[1, 1]
        d = pts - means[j]
        expect = 0.5 * (resp[:, j] * (d * d).sum(axis=1)).sum() / counts[j]
        assert c.cov[0, 0] == pytest.approx(expect, rel=1e-12)


def reference_em_step(f, pts, spherical):
    """One EM step in the difference form: the average log-likelihood
    under f, and the next weights, means and (central) second moments."""
    means = np.array([c.mean for c in f.components])
    precs = np.array([c.precision for c in f.components])
    dets = np.array([c.det for c in f.components])
    dx = pts[:, None, 0] - means[None, :, 0]
    dy = pts[:, None, 1] - means[None, :, 1]
    quad = (precs[:, 0, 0] * dx * dx + 2.0 * precs[:, 0, 1] * dx * dy
            + precs[:, 1, 1] * dy * dy)
    joint = -LOG_2PI - 0.5 * np.log(dets) - 0.5 * quad + np.log(f.weights)
    m = joint.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(joint - m).sum(axis=1, keepdims=True)) + m
    resp = np.exp(joint - log_norm)
    counts = resp.sum(axis=0)
    new_means = (resp.T @ pts) / counts[:, None]
    dx = pts[:, None, 0] - new_means[None, :, 0]
    dy = pts[:, None, 1] - new_means[None, :, 1]
    if spherical:
        c = 0.5 * (resp * (dx * dx + dy * dy)).sum(axis=0) / counts
        moments = (c, np.zeros_like(c), c)
    else:
        moments = tuple((resp * a * b).sum(axis=0) / counts
                        for a, b in ((dx, dx), (dx, dy), (dy, dy)))
    return float(log_norm.mean()), counts / len(pts), new_means, moments


@pytest.mark.parametrize("spherical", [False, True])
def test_em_pass_matches_difference_form_reference(spherical):
    # the moment form differs from the difference form by rounding only:
    # here the densities by a few 1e-15, the fitted moments by cancellation
    # in E[xx'] - mean mean', of order u (|mean|^2 + var) / var
    rng = np.random.default_rng(12)
    comps = []
    for w in (0.2, 0.3, 0.5):
        a = rng.normal(size=(2, 2))
        comps.append(Gaussian2D(mean=rng.normal(size=2) * 3,
                                cov=a @ a.T + 0.3 * np.eye(2), weight=w))
    f = Formation(components=tuple(comps))
    pts = rng.normal(size=(500, 2)) * 3
    ll, weights, means, moments = reference_em_step(f, pts, spherical)
    log_mix, new = _em_pass(f, pts, spherical)
    assert log_mix.shape == (500,)
    assert float(log_mix.mean()) == pytest.approx(ll, rel=1e-14)
    assert np.allclose(new.weights, weights, rtol=1e-13, atol=0)
    assert np.allclose(new.means, means, rtol=1e-12, atol=1e-14)
    covs = np.array([c.cov for c in new.components])
    for got, want in zip((covs[:, 0, 0], covs[:, 0, 1], covs[:, 1, 1]),
                         moments):
        assert np.allclose(got, want, rtol=1e-12, atol=1e-13)
    if spherical:
        assert np.all(covs[:, 0, 1] == 0.0)
        assert np.array_equal(covs[:, 0, 0], covs[:, 1, 1])
    assert em_step_full(f, pts).to_dict() == _em_pass(f, pts, False)[1] \
        .to_dict()


def test_em_fit_does_not_depend_on_block_size_beyond_rounding(monkeypatch):
    tmpl = generate_formation(4, separation=1.5, seed=3)
    ds, _ = sample_dataset(tmpl, 1500, swap_rate=0.05, seed=3)
    p = ds.n_frames * ds.n_agents
    fits = []
    for block in (7, 4096, p):
        monkeypatch.setattr(discovery, "BLOCK", block)
        fits.append(discover_formation(ds, DiscoveryConfig(k=4, em_tol=1e-9)))
    (f0, t0), rest = fits[0], fits[1:]
    assert p > 4096 and len(t0.rows) > 10
    for f, t in rest:
        assert len(t.rows) == len(t0.rows)
        assert t.update_kinds == t0.update_kinds
        # row 0 scores the K-means state, whose per-point densities are
        # the same bits in any block
        assert t.rows[0] == t0.rows[0]
        assert np.allclose(t.logliks, t0.logliks, rtol=1e-10, atol=0)
        for a, b in zip(f.components, f0.components):
            assert a.weight == pytest.approx(b.weight, rel=1e-10)
            assert np.allclose(a.mean, b.mean, rtol=1e-10, atol=0)
            assert np.allclose(a.cov, b.cov, rtol=1e-10, atol=0)


def test_component_log_pdfs_matches_single_gaussian():
    rng = np.random.default_rng(6)
    comps = []
    for _ in range(4):
        a = rng.normal(size=(2, 2))
        comps.append(Gaussian2D(mean=rng.normal(size=2),
                                cov=a @ a.T + 0.5 * np.eye(2), weight=0.25))
    f = Formation(components=tuple(comps))
    pts = rng.normal(size=(30, 2)) * 3
    dens = component_log_pdfs(f.components, pts)
    assert dens.shape == (30, 4)
    for j, c in enumerate(comps):
        assert np.array_equal(dens[:, j], gaussian_log_pdf(c, pts))


# the discovery loop


def test_discovery_recovers_separated_mixture():
    rng = np.random.default_rng(7)
    centers = np.array([[-6.0, 0.0], [0.0, 6.0], [6.0, 0.0]])
    pts = np.concatenate([rng.normal(c, 0.8, (200, 2)) for c in centers])
    ds = frames_from_points(rng.permutation(pts), per_frame=3)
    f, trace = discover_formation(ds, DiscoveryConfig(k=3, init_mode="random",
                                                      seed=0))
    assert trace.converged
    got = f.means[np.argsort(f.means[:, 0])]
    assert np.abs(got - centers).max() < 0.2
    assert np.abs(f.weights - 1 / 3).max() < 0.05


def test_full_updates_monotone_in_trace():
    rng = np.random.default_rng(8)
    pts = np.concatenate([rng.normal((-4.0, 0.0), 1.0, (150, 2)),
                          rng.normal((4.0, 0.0), 1.0, (150, 2))])
    ds = frames_from_points(pts, per_frame=2)
    _, trace = discover_formation(ds, DiscoveryConfig(k=2, init_mode="random"))
    lls = trace.logliks
    kinds = trace.update_kinds
    for i in range(1, len(lls)):
        if kinds[i] == "FullGMM":
            assert lls[i] >= lls[i - 1] - 1e-8


def test_guard_triggers_spherical_updates_on_stripes():
    rng = np.random.default_rng(9)
    pts = np.concatenate([rng.normal((-10.0, 0.0), (5.0, 1.0), (200, 2)),
                          rng.normal((10.0, 0.0), (5.0, 1.0), (200, 2))])
    ds = frames_from_points(pts, per_frame=2)
    _, trace = discover_formation(ds, DiscoveryConfig(k=2, init_mode="random",
                                                      seed=1, max_iters=40))
    assert "SoftKMeans" in trace.update_kinds
    assert trace.update_kinds[0] == "Init"


def test_k1_matches_sample_moments():
    rng = np.random.default_rng(10)
    pts = rng.normal((3.0, -2.0), (1.0, 1.2), (400, 2))
    ds = frames_from_points(pts, per_frame=1)
    f, trace = discover_formation(ds, DiscoveryConfig(k=1, init_mode="random"))
    flat = flatten(ds)
    assert np.allclose(f.components[0].mean, flat.mean(axis=0), atol=1e-12)
    assert np.allclose(f.components[0].cov, np.cov(flat.T, bias=True),
                       atol=1e-12)
    assert f.components[0].weight == 1.0
    assert trace.converged


def test_row_permutation_cannot_change_the_result():
    rng = np.random.default_rng(12)
    pts = rng.normal(size=(40, 2)) * 5
    ids = ("p0", "p1", "p2", "p3")
    frames_a, frames_b = [], []
    for i in range(10):
        block = pts[4 * i:4 * i + 4]
        perm = rng.permutation(4)
        frames_a.append(Frame(frame_id=i, positions=block, agent_ids=ids))
        frames_b.append(Frame(frame_id=i, positions=block[perm],
                              agent_ids=tuple(ids[j] for j in perm)))
    cfg = DiscoveryConfig(k=4, max_iters=60)
    fa, ta = discover_formation(Dataset.from_frames(tuple(frames_a)), cfg)
    fb, tb = discover_formation(Dataset.from_frames(tuple(frames_b)), cfg)
    assert fa.to_dict() == fb.to_dict()   # bit-identical, not just close
    assert ta.logliks == tb.logliks


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(3, 12), st.integers(0, 2 ** 32 - 1),
       st.sampled_from(["player-means", "random"]),
       st.randoms(use_true_random=False))
def test_shuffled_frames_and_agents_give_the_same_fit(n, s, seed, init_mode,
                                                      rnd):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(s, n, 2)) + 4 * rng.normal(size=(n, 2))
    ids = [f"p{j}" for j in range(n)]
    frames = [Frame(frame_id=i, positions=pts[i], agent_ids=ids)
              for i in range(s)]
    shuffled = []
    for f in rnd.sample(frames, s):
        perm = rnd.sample(range(n), n)
        shuffled.append(Frame(frame_id=f.frame_id, positions=f.positions[perm],
                              agent_ids=[ids[j] for j in perm]))
    cfg = DiscoveryConfig(k=n, max_iters=30, init_mode=init_mode,
                          seed=seed % 7)
    fa, ta = discover_formation(Dataset.from_frames(frames), cfg)
    fb, tb = discover_formation(Dataset.from_frames(shuffled), cfg)
    assert fa.to_dict() == fb.to_dict()   # bit-identical, not just close
    assert ta.rows == tb.rows


def test_discovery_reproducible():
    rng = np.random.default_rng(13)
    pts = rng.normal(size=(60, 2)) * 4
    ds = frames_from_points(pts, per_frame=3)
    cfg = DiscoveryConfig(k=3, init_mode="random", seed=5)
    fa, ta = discover_formation(ds, cfg)
    fb, tb = discover_formation(ds, cfg)
    assert fa.to_dict() == fb.to_dict()
    assert ta.logliks == tb.logliks


def test_max_iters_one_runs_exactly_one_update():
    rng = np.random.default_rng(9)
    pts = np.concatenate([rng.normal((-10.0, 0.0), (5.0, 1.0), (100, 2)),
                          rng.normal((10.0, 0.0), (5.0, 1.0), (100, 2))])
    ds = frames_from_points(pts, per_frame=2)
    _, trace = discover_formation(ds, DiscoveryConfig(k=2, init_mode="random",
                                                      max_iters=1))
    assert len(trace.rows) == 2
    assert not trace.converged


def test_player_means_init_requires_matching_k():
    rng = np.random.default_rng(14)
    ds = frames_from_points(rng.normal(size=(20, 2)), per_frame=4)
    with pytest.raises(ValueError, match="4 centers but k=2"):
        discover_formation(ds, DiscoveryConfig(k=2))


def test_k_exceeds_total_points():
    ds = frames_from_points(np.zeros((2, 2)) + [[0.0, 0.0], [1.0, 1.0]],
                            per_frame=1)
    with pytest.raises(ValueError, match="exceeds total point count"):
        discover_formation(ds, DiscoveryConfig(k=5, init_mode="random"))


# containers and config


def test_formation_validation():
    with pytest.raises(ValueError, match="at least one component"):
        Formation(components=())
    bad = (Gaussian2D(mean=[0, 0], cov=np.eye(2), weight=0.6),
           Gaussian2D(mean=[1, 1], cov=np.eye(2), weight=0.6))
    with pytest.raises(ValueError, match="weights sum to"):
        Formation(components=bad)


def test_formation_properties_and_roundtrip():
    comps = (Gaussian2D(mean=[0.0, 1.0], cov=np.diag([4.0, 1.0]), weight=0.25),
             Gaussian2D(mean=[2.0, 3.0], cov=np.eye(2), weight=0.75))
    f = Formation(components=comps)
    assert f.k == 2
    assert np.array_equal(f.weights, [0.25, 0.75])
    assert np.array_equal(f.means, [[0.0, 1.0], [2.0, 3.0]])
    assert np.allclose(f.eigenvalue_ratios(), [4.0, 1.0])
    back = Formation.from_dict(f.to_dict())
    assert back.to_dict() == f.to_dict()


def test_discovery_config_validation():
    with pytest.raises(ValueError, match="k must be >= 1"):
        DiscoveryConfig(k=0)
    with pytest.raises(ValueError, match="eig_ratio_bound must exceed 1"):
        DiscoveryConfig(eig_ratio_bound=1.0)
    with pytest.raises(ValueError, match="tolerances must be positive"):
        DiscoveryConfig(em_tol=0.0)
    with pytest.raises(ValueError, match="unknown init_mode 'grid'"):
        DiscoveryConfig(init_mode="grid")
    with pytest.raises(ValueError, match="max_iters must be >= 0, got -1"):
        DiscoveryConfig(max_iters=-1)
    assert DiscoveryConfig(max_iters=0).max_iters == 0


def test_discover_formation_keeps_its_kmeans_counters(easy_tgp):
    _, ds, _ = easy_tgp
    _, trace = discover_formation(ds, DiscoveryConfig(k=6))
    pts = flatten(ds)
    km = kmeans(pts[canonical_order(pts)], player_mean_init(ds))
    assert trace.kmeans == {"iterations": km.n_iterations,
                            "searched": km.searched, "settled": km.settled,
                            "fallback": km.fallback}
    assert km.n_iterations > 1 and km.settled > 0


def test_trace_csv_format(written):
    trace = EmTrace()
    trace.append(0, -3.5, "Init", (1.2, 2.3659))
    trace.append(1, -3.25, "FullGMM", (1.1, 1.4))
    lines = written(trace.to_csv).splitlines()
    assert lines[0] == "iteration,loglik,update_kind,max_eig_ratio"
    assert lines[1] == "0,-3.5,Init,2.3659"
    assert lines[2] == "1,-3.25,FullGMM,1.4"
