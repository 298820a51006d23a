"""Hard-assignment EM baseline and the role-overlap diagnostic."""

import io

import numpy as np
import pytest

from rolealign.alignment import Template
from rolealign.baseline import (
    HardEmTrace,
    hard_assignment_em,
    overlap_penalty,
    player_identity_template,
)
from rolealign.discovery import Formation
from rolealign.geometry import Gaussian2D
from rolealign.ingest import Dataset, Frame
from rolealign.synth import generate_formation, recovery_score, sample_dataset

LN2 = 0.6931471805599453


def gauss(mx, my, weight=0.5, cov=None):
    return Gaussian2D(mean=[mx, my], cov=np.eye(2) if cov is None else cov,
                      weight=weight)


# identity initializer


def test_player_identity_template_hand_fit():
    f0 = Frame(frame_id=0, positions=[[0.0, 0.0], [10.0, 0.0]],
               agent_ids=("a", "b"))
    f1 = Frame(frame_id=1, positions=[[12.0, 2.0], [2.0, 2.0]],
               agent_ids=("b", "a"))
    t = player_identity_template(Dataset.from_frames((f0, f1)))
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
        frames.append(Frame(frame_id=int(fid),
                            positions=rng.normal(50.0, 30.0, (5, 2)),
                            agent_ids=[f"p{j}" for j in order]))
    t = player_identity_template(Dataset.from_frames(frames))
    ordered = sorted(frames, key=lambda f: f.frame_id)
    for j, role in enumerate(t.roles):
        pts = np.stack([f.positions[f.agent_ids.index(f"p{j}")]
                        for f in ordered])
        ref = Gaussian2D(mean=pts.mean(axis=0), cov=np.cov(pts.T, bias=True),
                         weight=0.2)
        assert np.array_equal(role.mean, ref.mean)
        assert np.array_equal(role.cov, ref.cov)


def test_player_identity_template_missing_agent():
    f0 = Frame(frame_id=0, positions=[[0.0, 0.0]], agent_ids=("a",))
    f1 = Frame(frame_id=1, positions=[[1.0, 1.0]], agent_ids=("b",))
    with pytest.raises(ValueError, match="agent 'a' missing from frame 1"):
        player_identity_template(Dataset.from_frames((f0, f1)))


# hard EM


def test_hard_em_converges_on_separated_data(tiny_tgp):
    tmpl, ds, truth = tiny_tgp
    init = player_identity_template(ds)
    formation, aligned, trace = hard_assignment_em(ds, init)
    assert trace.converged
    assert trace.rows[-1][3] == 0          # changed_frames hits zero
    assert trace.rows[0][3] == ds.n_frames  # first pass counts everything
    assert recovery_score(aligned, truth) > 0.9


def test_hard_em_ignores_init_weights(tiny_tgp):
    # exclusive assignment has no prior term; weights on the init are inert
    tmpl, ds, truth = tiny_tgp
    base = player_identity_template(ds)
    skewed = Template(roles=tuple(
        Gaussian2D(mean=r.mean, cov=r.cov, weight=w)
        for r, w in zip(base.roles, (0.7, 0.1, 0.1, 0.1))))
    fa, aa, ta = hard_assignment_em(ds, base)
    fb, ab, tb = hard_assignment_em(ds, skewed)
    assert fa.to_dict() == fb.to_dict()
    assert np.array_equal(aa.matrix, ab.matrix)
    assert ta.rows == tb.rows


def test_hard_em_max_iters_zero_still_runs_one_pass(tiny_tgp):
    tmpl, ds, truth = tiny_tgp
    init = player_identity_template(ds)
    formation, aligned, trace = hard_assignment_em(ds, init, max_iters=0)
    assert len(trace.rows) == 1
    assert not trace.converged
    assert aligned.n_frames == ds.n_frames


def test_hard_em_empty_role_keeps_its_gaussian():
    rng = np.random.default_rng(30)
    frames = tuple(Frame(frame_id=i, positions=rng.normal(0, 0.5, (2, 2)),
                         agent_ids=("a", "b")) for i in range(30))
    ds = Dataset.from_frames(frames)
    init = Template(roles=(gauss(-0.5, 0.0, 1 / 3), gauss(0.5, 0.0, 1 / 3),
                           gauss(100.0, 100.0, 1 / 3)))
    formation, aligned, trace = hard_assignment_em(ds, init)
    far = formation.components[2]
    assert np.array_equal(far.mean, [100.0, 100.0])  # never assigned, never refit
    assert np.isnan(aligned.matrix[:, 4:]).all()


def test_hard_em_too_many_agents():
    ds = Dataset.from_frames((Frame(frame_id=0,
                                    positions=[[0.0, 0.0], [1.0, 0.0]],
                                    agent_ids=("a", "b")),))
    with pytest.raises(ValueError, match="2 agents cannot fill 1 roles"):
        hard_assignment_em(ds, Template(roles=(gauss(0, 0, 1.0),)))


def test_hard_em_deterministic(tiny_tgp):
    tmpl, ds, truth = tiny_tgp
    init = player_identity_template(ds)
    fa, aa, ta = hard_assignment_em(ds, init)
    fb, ab, tb = hard_assignment_em(ds, init)
    assert fa.to_dict() == fb.to_dict()
    assert np.array_equal(aa.matrix, ab.matrix)
    assert ta.rows == tb.rows


def test_hard_trace_csv_format():
    trace = HardEmTrace()
    trace.append(1, 250.5, -3.75, 40)
    trace.append(2, 240.25, -3.5, 0)
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "iteration,total_cost,avg_loglik,changed_frames"
    assert lines[1] == "1,250.5,-3.75,40"
    assert lines[2] == "2,240.25,-3.5,0"


# overlap diagnostic


def test_overlap_single_component_is_exactly_zero():
    f = Formation(components=(gauss(0, 0, 1.0),))
    v = overlap_penalty(f)
    assert v.value == 0.0 and v.std_error == 0.0
    assert v.n_samples == 100_000


def test_overlap_sample_floor():
    f = Formation(components=(gauss(0, 0, 1.0),))
    with pytest.raises(ValueError, match="at least 1e5 samples"):
        overlap_penalty(f, n_samples=50_000)


def test_overlap_identical_components_near_zero():
    f = Formation(components=(gauss(0, 0, 0.5), gauss(0, 0, 0.5)))
    v = overlap_penalty(f, n_samples=200_000, seed=1)
    assert abs(v.value) < 4 * v.std_error + 1e-6


def test_overlap_separated_pair_approaches_neg_ln2():
    f = Formation(components=(gauss(-20, 0, 0.5), gauss(20, 0, 0.5)))
    v = overlap_penalty(f, n_samples=200_000, seed=2)
    assert v.value == pytest.approx(-LN2, abs=4 * v.std_error + 1e-4)


def test_overlap_monotone_in_separation():
    # pulling roles apart can only reduce their confusability
    vals = []
    for d in (0.0, 1.0, 2.0, 4.0, 8.0):
        f = Formation(components=(gauss(-d, 0, 0.5), gauss(d, 0, 0.5)))
        vals.append(overlap_penalty(f, n_samples=150_000, seed=3).value)
    assert all(b <= a + 0.01 for a, b in zip(vals, vals[1:]))


def test_overlap_deterministic():
    f = Formation(components=(gauss(-1, 0, 0.5), gauss(1, 0, 0.5)))
    a = overlap_penalty(f, seed=9)
    b = overlap_penalty(f, seed=9)
    assert a.value == b.value and a.std_error == b.std_error


def test_overlap_uses_uniform_mixture_not_weights():
    # the diagnostic averages components equally whatever the weights say
    fa = Formation(components=(gauss(-3, 0, 0.9), gauss(3, 0, 0.1)))
    fb = Formation(components=(gauss(-3, 0, 0.5), gauss(3, 0, 0.5)))
    va = overlap_penalty(fa, seed=4)
    vb = overlap_penalty(fb, seed=4)
    assert va.value == vb.value
