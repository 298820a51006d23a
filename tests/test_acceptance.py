"""End-to-end acceptance gates.

Ten numbered checks over the full pipeline: likelihood dominance of the
soft method, EM monotonicity, role recovery, per-iteration complexity
scaling, compression of the role-ordered representation, initialization
quality, key-frame fidelity, solver oracles, geometry oracles, and
template-tree shape.  Each test prints one summary line

    ACCEPTANCE <n>: PASS|FAIL - <measured numbers>

before asserting, so the measurements survive a failure.  The shared
50-run suite behind checks 1 and 2 is built once per module.
"""

import itertools
import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from rolealign import (DiscoveryConfig, Gaussian2D, Template,
                       TreeStop, align_template, average_log_likelihood,
                       bhattacharyya_distance, concat_datasets,
                       covariance_eigenvalues, differential_entropy,
                       discover_formation, filter_key_frames,
                       gaussian_log_pdf, generate_formation,
                       hard_assignment_em, hungarian, kl_divergence, kmeans,
                       learn_tree, pca_variance_explained,
                       player_identity_template, player_mean_init,
                       recovery_score, run_pipeline, sample_dataset,
                       sinkhorn_normalize, wce_sweep)
from rolealign.cli import main
from rolealign.discovery import Formation
from rolealign.ingest import flatten


def _report(cap, n, ok, detail):
    # suspend capture so the ten summary lines always reach the terminal,
    # pass or fail; the leading newline keeps them off pytest's own
    # progress line
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {detail}"
    with cap.disabled():
        print("\n" + line, flush=True)
    print(line)


# ----------------------------------------------- shared 50-run suite (1, 2)

@pytest.fixture(scope="module")
def likelihood_suite():
    """50 synthetic team-game-periods, K=10, S=1500, separations 1.5-4.0.

    For each run keep the soft pipeline result, the hard-assignment
    baseline fit on the same prepared data, and both traces.
    """
    runs = []
    start = time.perf_counter()
    for i, sep in enumerate(np.linspace(1.5, 4.0, 50)):
        tmpl = generate_formation(10, separation=float(sep), seed=1000 + i)
        ds, _ = sample_dataset(tmpl, 1500, swap_rate=0.05, seed=1000 + i)
        res = run_pipeline(ds)
        init = player_identity_template(res.dataset)
        hard_f, _, hard_trace = hard_assignment_em(res.dataset, init)
        runs.append({"separation": float(sep),
                     "soft": res.avg_loglik,
                     "hard": average_log_likelihood(res.dataset, hard_f),
                     "soft_trace": res.trace,
                     "hard_trace": hard_trace})
    elapsed = time.perf_counter() - start
    return runs, elapsed


def test_criterion_01_likelihood_dominance(likelihood_suite, capsys):
    runs, elapsed = likelihood_suite
    deltas = np.array([r["soft"] - r["hard"] for r in runs])
    ok = bool((deltas >= -1e-9).all()) and elapsed < 300.0
    _report(capsys, 1, ok, f"soft >= hard on {int((deltas >= -1e-9).sum())}/50 runs, "
                   f"min delta {deltas.min():.3e}, suite {elapsed:.1f}s")
    assert (deltas >= -1e-9).all(), f"worst soft-hard delta {deltas.min()}"
    assert elapsed < 300.0


def test_criterion_02_em_monotonicity(likelihood_suite, capsys):
    runs, _ = likelihood_suite
    worst_drop = 0.0     # most negative loglik change over a full-GMM step
    for r in runs:
        lls = r["soft_trace"].logliks
        kinds = r["soft_trace"].update_kinds
        for i in range(1, len(lls)):
            if kinds[i] == "FullGMM":
                worst_drop = min(worst_drop, lls[i] - lls[i - 1])
    unstable = 0
    for r in runs:
        h = r["hard_trace"].logliks
        nonmono = any(h[i] < h[i - 1] - 1e-8 for i in range(1, len(h)))
        unstable += nonmono or r["hard_trace"].oscillated
    ok = worst_drop >= -1e-8
    detail = (f"worst full-step drop {worst_drop:.3e}, hard trace "
              f"non-monotone or oscillating on {unstable}/50 runs")
    if unstable == 0:
        detail += " (none observed; soft-side bound stays binding)"
    _report(capsys, 2, ok, detail)
    assert worst_drop >= -1e-8


# ------------------------------------------------------------- recovery (3)

def test_criterion_03_role_recovery(capsys):
    recs, gaps, times = [], [], []
    for seed in range(2000, 2005):
        tmpl = generate_formation(10, separation=3.0, seed=seed)
        ds, truth = sample_dataset(tmpl, 1500, swap_rate=0.05, seed=seed)
        t0 = time.perf_counter()
        res = run_pipeline(ds)
        times.append(time.perf_counter() - t0)
        recs.append(recovery_score(res.aligned, truth))
        to_truth = align_template(res.formation, tmpl)
        gaps.append(float(np.linalg.norm(
            to_truth.means - tmpl.means, axis=1).max()))
    ok = min(recs) >= 0.99 and max(gaps) <= 0.1 and max(times) < 30.0
    _report(capsys, 3, ok, f"min recovery {min(recs):.4f}, max mean error "
                   f"{max(gaps):.4f}, max {max(times):.1f}s per run")
    assert min(recs) >= 0.99, f"recoveries {recs}"
    assert max(gaps) <= 0.1, f"per-role mean errors {gaps}"
    assert max(times) < 30.0


# ----------------------------------------------------------- complexity (4)

def test_criterion_04_complexity_scaling(tmp_path, capsys):
    t0 = time.perf_counter()
    rc = main(["bench", "--out", str(tmp_path), "--seed", "7"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    with open(tmp_path / "summary.json") as fh:
        summary = json.load(fh)
    slope_diff = summary["slope_difference"]
    ratio = summary["ratio_at_10"]
    ok = (elapsed < 600.0 and slope_diff is not None and ratio is not None
          and 2.5 <= slope_diff <= 3.5 and ratio >= 100.0)
    _report(capsys, 4, ok, f"hard-soft slope difference {slope_diff:.3f} "
                   f"(bound 3.0 +/- 0.5), ratio at N=10 {ratio:.1f} "
                   f"(bound >= 100), bench {elapsed:.1f}s")
    assert elapsed < 600.0
    assert 2.5 <= slope_diff <= 3.5, (
        f"measured hard-soft slope difference is {slope_diff:.3f}: both "
        f"methods spend S*N^2 per iteration on densities and the hard side "
        f"adds S*N^3 matching on top, so the per-iteration ratio grows like "
        f"N, not N^3, at these sizes")
    assert ratio >= 100.0, f"measured per-iteration ratio at N=10 is {ratio:.1f}"


# ---------------------------------------------------------- compression (5)

MIX_SEEDS = ((100, 101), (102, 103), (104, 105))


def _two_formation_corpus(seed_a, seed_b):
    """Role-aligned vs identity-ordered row matrices for a 2-formation mix.

    Heavy short-run swapping (rate 0.5, mean run 2) makes the fixed
    player order nearly meaningless, as it is across real team-game
    contexts.  Each half is aligned against the template learned on the
    union, mirroring how a shared corpus is assembled from per-context
    runs.
    """
    ta = generate_formation(10, separation=3.0, seed=seed_a)
    tb = generate_formation(10, separation=3.0, seed=seed_b)
    da, _ = sample_dataset(ta, 400, swap_rate=0.5, swap_run_mean=2.0,
                           seed=seed_a)
    db, _ = sample_dataset(tb, 400, swap_rate=0.5, swap_run_mean=2.0,
                           seed=seed_b)
    db = replace(db, frame_id=db.frame_id + 400)
    g = run_pipeline(concat_datasets([da, db])).template
    ra = run_pipeline(da, parent=g)
    rb = run_pipeline(db, parent=g)
    aligned = np.vstack([ra.aligned.matrix, rb.aligned.matrix])
    identity = np.vstack([ra.dataset.positions.reshape(400, -1),
                          rb.dataset.positions.reshape(400, -1)])
    return aligned, identity


def test_criterion_05_compression(capsys):
    worst_wce = math.inf
    worst_pca = math.inf
    for seed_a, seed_b in MIX_SEEDS:
        aligned, identity = _two_formation_corpus(seed_a, seed_b)
        sweep_a = wce_sweep(aligned, range(2, 21))
        sweep_i = wce_sweep(identity, range(2, 21))
        margin = np.array([ri["wce"] - ra["wce"]
                           for ra, ri in zip(sweep_a, sweep_i)])
        worst_wce = min(worst_wce, float(margin.min()))
        cum_a = np.cumsum(pca_variance_explained(aligned))[:5]
        cum_i = np.cumsum(pca_variance_explained(identity))[:5]
        worst_pca = min(worst_pca, float((cum_a - cum_i).min()))
    ok = worst_wce >= -1e-9 and worst_pca >= -1e-9
    _report(capsys, 5, ok, f"min WCE margin {worst_wce:.3f} over k=2..20, min "
                   f"cumulative PCA margin {worst_pca:.4f} over 5 "
                   f"components, {len(MIX_SEEDS)} mixes")
    assert worst_wce >= -1e-9, "identity ordering beat alignment on WCE"
    assert worst_pca >= -1e-9, "identity ordering dominated the PCA spectrum"


# -------------------------------------------------------- initialization (6)

def test_criterion_06_initialization(capsys):
    wins = 0
    own_iters = []
    for i in range(50):
        tmpl = generate_formation(10, separation=3.0, seed=3000 + i)
        ds, _ = sample_dataset(tmpl, 800, swap_rate=0.02, seed=3000 + i)
        pts = flatten(ds)
        own = kmeans(pts, player_mean_init(ds)).n_iterations
        own_iters.append(own)
        rng = np.random.default_rng(3000 + i)
        rand = [kmeans(pts, pts[rng.choice(len(pts), 10, replace=False)]
                       ).n_iterations for _ in range(20)]
        wins += own < float(np.median(rand))
    med = float(np.median(own_iters))
    ok = wins >= 45 and med <= 10.0
    _report(capsys, 6, ok, f"player-mean init beats the random median on {wins}/50 "
                   f"runs, median {med:.0f} iterations")
    assert wins >= 45, f"player-mean init won only {wins}/50 runs"
    assert med <= 10.0, f"median player-mean iteration count {med}"


# ----------------------------------------------------- key-frame fidelity (7)

def test_criterion_07_key_frame_fidelity(capsys):
    cfg = DiscoveryConfig(k=10)
    hits = 0
    worst_b = 0.0
    worst_gap = 0.0
    for i in range(20):
        tmpl = generate_formation(10, separation=3.0, seed=4000 + i)
        ds, _ = sample_dataset(tmpl, 1500, event_rate=0.1, seed=4000 + i)
        full_f, _ = discover_formation(ds, cfg)
        event_f, _ = discover_formation(filter_key_frames(ds), cfg)
        base = Template.from_formation(full_f)
        event_t = align_template(event_f, base)
        b = max(bhattacharyya_distance(p, q)
                for p, q in zip(event_t.roles, base.roles))
        gap = float(np.linalg.norm(event_t.means - base.means, axis=1).max())
        worst_b = max(worst_b, b)
        worst_gap = max(worst_gap, gap)
        hits += b <= 0.1 and gap <= 0.3
    ok = hits >= 18
    _report(capsys, 7, ok, f"{hits}/20 runs within bounds, max per-role distance "
                   f"{worst_b:.4f}, max centroid gap {worst_gap:.4f}")
    assert hits >= 18, f"only {hits}/20 event-frame fits matched the full fit"


# --------------------------------------------------------- solver oracles (8)

def test_criterion_08_solver_oracles(capsys):
    rng = np.random.default_rng(88)
    mismatches = 0
    worst_cost_gap = 0.0
    for n in range(1, 8):
        perms = np.array(list(itertools.permutations(range(n))))
        rows = np.arange(n)
        for _ in range(1000):
            cost = rng.uniform(0.0, 1.0, (n, n))
            totals = cost[rows, perms].sum(axis=1)
            best = int(totals.argmin())
            a = hungarian(cost)
            worst_cost_gap = max(worst_cost_gap,
                                 abs(a.total_cost - float(totals[best])))
            mismatches += tuple(a.mapping) != tuple(perms[best])
    worst_marginal = 0.0
    for n in range(2, 21):
        for _ in range(5):
            m = sinkhorn_normalize(rng.uniform(0.5, 2.0, (n, n))).matrix
            dev = max(abs(m.sum(axis=1) - 1.0).max(),
                      abs(m.sum(axis=0) - 1.0).max())
            worst_marginal = max(worst_marginal, dev)
    ok = (mismatches == 0 and worst_cost_gap <= 1e-9
          and worst_marginal <= 1e-6)
    _report(capsys, 8, ok, f"7000 assignment instances, {mismatches} mapping "
                   f"mismatches, max cost gap {worst_cost_gap:.1e}; sinkhorn "
                   f"max marginal deviation {worst_marginal:.1e}")
    assert mismatches == 0
    assert worst_cost_gap <= 1e-9
    assert worst_marginal <= 1e-6


# ------------------------------------------------------- geometry oracles (9)

def _random_pair(rng):
    def one():
        a = rng.normal(0, 1, (2, 2))
        return Gaussian2D(mean=rng.normal(0, 1.0, 2),
                          cov=a @ a.T + 0.3 * np.eye(2))
    return one(), one()


def test_criterion_09_geometry_oracles(capsys):
    rng = np.random.default_rng(99)
    worst_kl = 0.0
    worst_b = 0.0
    for _ in range(20):
        p, q = _random_pair(rng)
        half = 9.0 * math.sqrt(max(covariance_eigenvalues(p)[0],
                                   covariance_eigenvalues(q)[0]))
        center = 0.5 * (p.mean + q.mean)
        axis = np.linspace(-half, half, 400)
        dx = axis[1] - axis[0]
        gx, gy = np.meshgrid(axis + center[0], axis + center[1])
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        lp = gaussian_log_pdf(p, pts)
        lq = gaussian_log_pdf(q, pts)
        kl_num = (np.exp(lp) * (lp - lq)).sum() * dx * dx
        b_num = -math.log(np.exp(0.5 * (lp + lq)).sum() * dx * dx)
        worst_kl = max(worst_kl, abs(kl_divergence(p, q) - kl_num))
        worst_b = max(worst_b, abs(bhattacharyya_distance(p, q) - b_num))
    worst_entropy_z = 0.0
    for _ in range(5):
        g, _ = _random_pair(rng)
        chol = np.linalg.cholesky(g.cov)
        x = g.mean + rng.standard_normal((100_000, 2)) @ chol.T
        lp = gaussian_log_pdf(g, x)
        se = lp.std(ddof=1) / math.sqrt(len(lp))
        z = abs(differential_entropy(g) - (-lp.mean())) / se
        worst_entropy_z = max(worst_entropy_z, z)
    ok = worst_kl <= 1e-3 and worst_b <= 1e-3 and worst_entropy_z <= 3.0
    _report(capsys, 9, ok, f"quadrature gaps: KL {worst_kl:.1e}, bhattacharyya "
                   f"{worst_b:.1e} (20 pairs); entropy worst z "
                   f"{worst_entropy_z:.2f} SE")
    assert worst_kl <= 1e-3
    assert worst_b <= 1e-3
    assert worst_entropy_z <= 3.0


# ------------------------------------------------------------ tree shape (10)

def test_criterion_10_tree_sanity(capsys):
    ta = generate_formation(6, separation=3.0, seed=110)
    tb = generate_formation(6, separation=3.0, seed=111)
    da, _ = sample_dataset(ta, 300, seed=110)
    db, _ = sample_dataset(tb, 300, seed=112)
    db = replace(db, frame_id=db.frame_id + 300)
    stop = TreeStop(min_node=60, k_candidates=(2, 3))
    cfg = DiscoveryConfig(k=6)
    tree = learn_tree(concat_datasets([da, db]), stop=stop, cfg=cfg)
    leaves = tree.leaves()

    claimed = set()
    worst_b = 0.0
    for leaf in leaves:
        leaf_f = Formation(components=leaf.template.roles)
        per_gen = []
        for gi, gen in enumerate((ta, tb)):
            at = align_template(leaf_f, gen)
            per_gen.append((max(bhattacharyya_distance(p, q)
                                for p, q in zip(at.roles, gen.roles)), gi))
        b, gi = min(per_gen)
        worst_b = max(worst_b, b)
        claimed.add(gi)

    tc = generate_formation(6, separation=3.0, seed=113)
    dc, _ = sample_dataset(tc, 600, seed=113)
    single = learn_tree(dc, stop=stop, cfg=cfg)

    ok = (tree.depth == 2 and len(leaves) == 2 and claimed == {0, 1}
          and worst_b <= 0.1 and single.depth == 1)
    _report(capsys, 10, ok, f"mixture depth {tree.depth} with {len(leaves)} leaves "
                    f"claiming both generators, max per-role distance "
                    f"{worst_b:.4f}; single-formation depth {single.depth}")
    assert tree.depth == 2 and len(leaves) == 2
    assert claimed == {0, 1}
    assert worst_b <= 0.1, f"leaf-to-generator distance {worst_b}"
    assert single.depth == 1
