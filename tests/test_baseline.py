"""Hard-assignment EM baseline."""

import numpy as np
import pytest

from rolealign.alignment import Template
from rolealign.assignment import assign_batch
from rolealign.baseline import (
    HardEmTrace,
    hard_assignment_em,
    player_identity_template,
)
from rolealign.discovery import Formation
from rolealign.geometry import (Gaussian2D, component_log_pdfs,
                                log_mixture_density, sample_covariance)
from rolealign.ingest import flatten
from rolealign.synth import generate_formation, recovery_score, sample_dataset

from conftest import make_dataset



def gauss(mx, my, weight=0.5, cov=None):
    return Gaussian2D(mean=[mx, my], cov=np.eye(2) if cov is None else cov,
                      weight=weight)


# identity initializer


def test_player_identity_template_hand_fit():
    t = player_identity_template(make_dataset(
        [[[0.0, 0.0], [10.0, 0.0]], [[12.0, 2.0], [2.0, 2.0]]],
        [("a", "b"), ("b", "a")]))
    assert t.k == 2
    # role 0 is agent "a": (0,0) and (2,2); role 1 is "b": (10,0) and (12,2)
    assert np.array_equal(t.roles[0].mean, [1.0, 1.0])
    assert np.array_equal(t.roles[1].mean, [11.0, 1.0])
    # the track is perfectly diagonal, so the eigenvalue floor kicks in
    assert np.array_equal(t.roles[0].cov,
                          [[1.0 + 1e-6, 1.0], [1.0, 1.0 + 1e-6]])
    assert t.weights.tolist() == [0.5, 0.5]


def test_player_identity_template_bit_identical_to_reference_loop():
    # the per-frame track gathering it replaced, on shuffled frames and ids
    rng = np.random.default_rng(13)
    frames = []
    for fid in rng.permutation(200):
        order = rng.permutation(5)
        frames.append((int(fid), rng.normal(50.0, 30.0, (5, 2)),
                       [f"p{j}" for j in order]))
    fids, positions, ids = zip(*frames)
    t = player_identity_template(make_dataset(positions, ids, frame_id=fids))
    ordered = sorted(frames, key=lambda f: f[0])
    for j, role in enumerate(t.roles):
        pts = np.stack([pos[agents.index(f"p{j}")]
                        for _, pos, agents in ordered])
        ref = Gaussian2D(mean=pts.mean(axis=0), cov=np.cov(pts.T, bias=True),
                         weight=0.2)
        assert np.array_equal(role.mean, ref.mean)
        assert np.array_equal(role.cov, ref.cov)


def test_player_identity_template_missing_agent():
    ds = make_dataset([[[0.0, 0.0]], [[1.0, 1.0]]], [("a",), ("b",)])
    with pytest.raises(ValueError, match="agent 'a' missing from frame 1"):
        player_identity_template(ds)


# hard EM


def test_hard_em_converges_on_separated_data(tiny_tgp):
    tmpl, ds, truth = tiny_tgp
    init = player_identity_template(ds)
    formation, mappings, trace = hard_assignment_em(ds, init)
    assert trace.converged
    assert trace.rows[-1][3] == 0          # changed_frames hits zero
    assert trace.rows[0][3] == ds.n_frames  # first pass counts everything
    assert recovery_score(mappings, truth) > 0.9


def test_hard_em_ignores_init_weights(tiny_tgp):
    # exclusive assignment has no prior term; weights on the init are inert
    tmpl, ds, truth = tiny_tgp
    base = player_identity_template(ds)
    skewed = Template(roles=tuple(
        Gaussian2D(mean=r.mean, cov=r.cov, weight=w)
        for r, w in zip(base.roles, (0.7, 0.1, 0.1, 0.1))))
    fa, ma, ta = hard_assignment_em(ds, base)
    fb, mb, tb = hard_assignment_em(ds, skewed)
    assert fa.to_dict() == fb.to_dict()
    assert np.array_equal(ma, mb)
    assert ta.rows == tb.rows


def test_hard_em_max_iters_zero_still_runs_one_pass(tiny_tgp):
    tmpl, ds, truth = tiny_tgp
    init = player_identity_template(ds)
    formation, mappings, trace = hard_assignment_em(ds, init, max_iters=0)
    assert len(trace.rows) == 1
    assert not trace.converged
    assert mappings.shape == (ds.n_frames, ds.n_agents)
    assert not mappings.flags.writeable


def test_hard_em_empty_role_keeps_its_gaussian():
    rng = np.random.default_rng(30)
    ds = make_dataset(rng.normal(0, 0.5, (30, 2, 2)), ("a", "b"))
    init = Template(roles=(gauss(-0.5, 0.0, 1 / 3), gauss(0.5, 0.0, 1 / 3),
                           gauss(100.0, 100.0, 1 / 3)))
    formation, mappings, trace = hard_assignment_em(ds, init)
    far = formation.components[2]
    assert np.array_equal(far.mean, [100.0, 100.0])  # never assigned, never refit
    assert not (mappings == 2).any()


def test_hard_em_too_many_agents():
    ds = make_dataset([[[0.0, 0.0], [1.0, 0.0]]], ("a", "b"))
    with pytest.raises(ValueError, match="must have n <= m, got 2x1"):
        hard_assignment_em(ds, Template(roles=(gauss(0, 0, 1.0),)))


def test_hard_em_deterministic(tiny_tgp):
    tmpl, ds, truth = tiny_tgp
    init = player_identity_template(ds)
    fa, ma, ta = hard_assignment_em(ds, init)
    fb, mb, tb = hard_assignment_em(ds, init)
    assert fa.to_dict() == fb.to_dict()
    assert np.array_equal(ma, mb)
    assert ta.rows == tb.rows


def reference_hard_em(ds, init, max_iters=500):
    """The hard EM loop written out on its own: negative log densities
    solved by ``assign_batch``, a refit per role from a boolean mask
    gather, each refit role built with weight 1/k and rebuilt with its
    share, and the mean log mixture density of the refit formation.
    Returns the formation, the last pass's mappings and the trace's
    fields."""
    s, n, k = ds.n_frames, ds.n_agents, init.k
    pts = flatten(ds)
    roles = init.roles
    rows, certified, tied = [], [], []
    converged = oscillated = False
    prev, seen = None, set()
    for it in range(1, max(1, max_iters) + 1):
        batch = assign_batch(-component_log_pdfs(roles, pts).reshape(s, n, k))
        certified.append(batch.n_certified)
        tied.append(batch.n_tied)
        maps = batch.mappings
        total_cost = 0.0
        for frame_total in batch.totals.tolist():
            total_cost += frame_total
        changed = s if prev is None else int((maps != prev).any(axis=1).sum())
        flat = maps.reshape(-1)
        fits, counts = [], np.zeros(k)
        for j in range(k):
            member = pts[flat == j]
            counts[j] = len(member)
            fits.append(roles[j] if len(member) == 0 else Gaussian2D(
                mean=member.mean(axis=0), cov=sample_covariance(member),
                weight=1.0 / k))
        weights = np.where(counts > 0, counts, 1.0)
        total = float(np.sum(weights))
        roles = tuple(Gaussian2D(mean=r.mean, cov=r.cov, weight=float(w) / total)
                      for r, w in zip(fits, weights))
        log_mix = log_mixture_density(roles, [r.weight for r in roles], pts)
        rows.append((it, total_cost, float(log_mix.mean()), changed))
        if changed == 0:
            converged = True
            break
        if maps.tobytes() in seen:
            oscillated = True
            break
        seen.add(maps.tobytes())
        prev = maps
    return (Formation(components=roles), maps, rows, certified, tied,
            converged, oscillated)


def assert_same_as_reference(ds, init, max_iters=500):
    formation, mappings, trace = hard_assignment_em(ds, init, max_iters)
    ref = reference_hard_em(ds, init, max_iters)
    assert formation.to_dict() == ref[0].to_dict()
    assert np.array_equal(mappings, ref[1])
    assert trace.rows == ref[2]
    assert (trace.certified, trace.tied) == (ref[3], ref[4])
    assert (trace.converged, trace.oscillated) == (ref[5], ref[6])
    return formation, trace


def two_member_role_case():
    """Two agents, three roles: the far role is assigned exactly two points,
    whose covariance is singular and so floored."""
    rng = np.random.default_rng(30)
    pos = np.stack([rng.normal((-1.0, 0.0), 0.3, (30, 2)),
                    rng.normal((1.0, 0.0), 0.3, (30, 2))], axis=1)
    pos[[7, 19], 1] = [10.0, 10.0] + np.random.default_rng(0).normal(
        0.0, 0.5, (2, 2))
    ds = make_dataset(pos, ("a", "b"))
    init = Template(roles=(gauss(-1.0, 0.0, 1 / 3), gauss(1.0, 0.0, 1 / 3),
                           gauss(10.0, 10.0, 1 / 3)))
    return ds, init


def test_hard_em_is_the_reference_loop(tiny_tgp):
    tmpl, ds, truth = tiny_tgp
    _, trace = assert_same_as_reference(ds, player_identity_template(ds))
    assert trace.converged


def test_hard_em_is_the_reference_loop_when_cut_by_max_iters():
    # overlapping roles and swaps: the full run takes 8 passes
    tmpl = generate_formation(4, separation=1.5, seed=5)
    ds, _ = sample_dataset(tmpl, 100, swap_rate=0.1, seed=5)
    init = player_identity_template(ds)
    for max_iters in (0, 1, 3):
        _, trace = assert_same_as_reference(ds, init, max_iters)
        assert len(trace.rows) == max(1, max_iters)
        assert not trace.converged
    _, trace = assert_same_as_reference(ds, init)
    assert trace.converged and len(trace.rows) > 3


def test_hard_em_is_the_reference_loop_with_an_empty_role():
    rng = np.random.default_rng(30)
    ds = make_dataset(rng.normal(0, 0.5, (30, 2, 2)), ("a", "b"))
    init = Template(roles=(gauss(-0.5, 0.0, 1 / 3), gauss(0.5, 0.0, 1 / 3),
                           gauss(100.0, 100.0, 1 / 3)))
    assert_same_as_reference(ds, init)


def test_hard_em_is_the_reference_loop_with_a_two_member_role():
    ds, init = two_member_role_case()
    formation, trace = assert_same_as_reference(ds, init)
    assert trace.converged
    mappings = hard_assignment_em(ds, init)[1]
    two = flatten(ds)[mappings.reshape(-1) == 2]
    assert len(two) == 2
    # the case only pins the double construction if building the role
    # once, with its final weight, gives other bits
    once = Gaussian2D(mean=two.mean(axis=0), cov=sample_covariance(two),
                      weight=formation.components[2].weight)
    assert not np.array_equal(once.cov, formation.components[2].cov)


def test_hard_trace_csv_format(written):
    trace = HardEmTrace()
    trace.append(1, 250.5, -3.75, 40)
    trace.append(2, 240.25, -3.5, 0)
    lines = written(trace.to_csv).splitlines()
    assert lines[0] == "iteration,total_cost,avg_loglik,changed_frames"
    assert lines[1] == "1,250.5,-3.75,40"
    assert lines[2] == "2,240.25,-3.5,0"

