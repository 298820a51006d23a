"""Template alignment, per-frame role assignment, and the full pipeline."""

import json

import numpy as np
import pytest

from rolealign.alignment import (
    AlignedDataset,
    Template,
    _align_with_mapping,
    align_template,
    assign_roles,
    average_log_likelihood,
    run_pipeline,
)
from rolealign.discovery import DiscoveryConfig, Formation
from rolealign.geometry import LOG_2PI, Gaussian2D
from rolealign.synth import recovery_score, sample_dataset, generate_formation

from conftest import make_dataset


def gauss(mx, my, weight, cov=None):
    return Gaussian2D(mean=[mx, my], cov=np.eye(2) if cov is None else cov,
                      weight=weight)


def square_template():
    return Template(roles=(gauss(-3, -3, 0.25), gauss(3, -3, 0.25),
                           gauss(3, 3, 0.25), gauss(-3, 3, 0.25)))


# Template container


def test_template_basics():
    t = square_template()
    assert t.k == 4
    assert np.array_equal(t.weights, [0.25] * 4)
    assert np.array_equal(t.means[2], [3.0, 3.0])
    with pytest.raises(ValueError, match="at least one role"):
        Template(roles=())


def test_template_roundtrip(tmp_path):
    t = square_template()
    assert Template.from_dict(t.to_dict()).to_dict() == t.to_dict()
    p = tmp_path / "template.json"
    t.save(p)
    assert Template.load(p).to_dict() == t.to_dict()


def test_from_formation_keeps_component_order():
    f = Formation(components=square_template().roles)
    t = Template.from_formation(f)
    assert all(np.array_equal(a.mean, b.mean)
               for a, b in zip(t.roles, f.components))


# aligning a formation to a parent template


def test_align_undoes_a_permutation():
    parent = square_template()
    perm = [2, 0, 3, 1]
    shuffled = Formation(components=tuple(parent.roles[i] for i in perm))
    aligned = align_template(shuffled, parent)
    assert np.array_equal(aligned.means, parent.means)


def test_align_with_mapping_indexing():
    parent = square_template()
    perm = [1, 3, 0, 2]
    shuffled = Formation(components=tuple(parent.roles[i] for i in perm))
    aligned, mapping = _align_with_mapping(shuffled, parent)
    for i, j in enumerate(mapping):
        assert aligned.roles[j] is shuffled.components[i]
    assert np.array_equal(aligned.means, parent.means)


def test_align_random_perturbations():
    rng = np.random.default_rng(20)
    parent = square_template()
    for _ in range(15):
        perm = rng.permutation(4)
        comps = tuple(
            Gaussian2D(mean=parent.roles[i].mean + rng.normal(0, 0.2, 2),
                       cov=np.eye(2), weight=0.25)
            for i in perm)
        aligned = align_template(Formation(components=comps), parent)
        assert np.abs(aligned.means - parent.means).max() < 1.0


def test_align_mahalanobis_metric():
    parent = square_template()
    shuffled = Formation(components=tuple(parent.roles[::-1]))
    aligned = align_template(shuffled, parent, metric="mahalanobis")
    assert np.array_equal(aligned.means, parent.means)


def test_align_validation():
    parent = square_template()
    small = Formation(components=(gauss(0, 0, 1.0),))
    with pytest.raises(ValueError, match="1 components, template 4"):
        align_template(small, parent)
    f = Formation(components=parent.roles)
    with pytest.raises(ValueError, match="unknown metric 'cosine'"):
        align_template(f, parent, metric="cosine")


# per-frame role assignment


def shuffled_frames(template, s, noise, seed):
    """Frames whose agents sit near role means but in a per-frame order."""
    rng = np.random.default_rng(seed)
    k = template.k
    positions, perms = [], []
    for i in range(s):
        perm = rng.permutation(k)
        positions.append(template.means[perm] + rng.normal(0, noise, (k, 2)))
        perms.append(perm)
    return make_dataset(positions, [f"a{j}" for j in range(k)]), perms


def test_assign_roles_recovers_shuffles():
    t = square_template()
    ds, perms = shuffled_frames(t, 40, noise=0.3, seed=21)
    out = assign_roles(ds, t)
    assert out.matrix.shape == (40, 8)
    for s, perm in enumerate(perms):
        assert np.array_equal(out.mappings[s], perm)
        assert np.abs(out.role_positions(s) - t.means).max() < 2.0


def test_assign_roles_weight_term_flips_a_tie():
    # the point is nearer role 0, but role 0's prior is tiny
    t = Template(roles=(gauss(-1, 0, 0.001), gauss(1, 0, 0.999)))
    ds = make_dataset([[[-0.2, 0.0]]], ("a",))
    with_w = assign_roles(ds, t, include_weights=True)
    without = assign_roles(ds, t, include_weights=False)
    assert with_w.mappings[0, 0] == 1
    assert without.mappings[0, 0] == 0


def test_assign_roles_nan_for_unfilled_slots():
    t = square_template()
    ds = make_dataset([[[-3.0, -3.0]]], ("a",))
    out = assign_roles(ds, t)
    assert np.array_equal(out.matrix[0, :2], [-3.0, -3.0])
    assert np.isnan(out.matrix[0, 2:]).all()
    assert out.k == 4


def test_assign_roles_too_many_agents():
    t = Template(roles=(gauss(0, 0, 1.0),))
    ds = make_dataset([[[0.0, 0.0], [1.0, 1.0]]], ("a", "b"))
    with pytest.raises(ValueError, match="2 agents cannot fill 1 roles"):
        assign_roles(ds, t)


# aligned output formats


def test_aligned_csv_format(written):
    t = Template(roles=(gauss(-2, 0, 0.5), gauss(2, 0, 0.5)))
    ds = make_dataset([[[2.0, 0.5], [-2.0, -0.5]]], ("a", "b"), frame_id=[3])
    out = assign_roles(ds, t)
    lines = written(out.to_csv).splitlines()
    assert lines[0] == "frame_id,role_0_x,role_0_y,role_1_x,role_1_y"
    assert lines[1] == "3,-2.0,-0.5,2.0,0.5"


def test_aligned_jsonl_format(written):
    t = Template(roles=(gauss(-2, 0, 0.5), gauss(2, 0, 0.5)))
    ds = make_dataset([[[2.0, 0.5], [-2.0, -0.5]]], ("a", "b"), frame_id=[3])
    obj = json.loads(written(assign_roles(ds, t).to_jsonl).splitlines()[0])
    assert obj["frame_id"] == 3
    assert obj["permutation"] == [1, 0]
    assert obj["positions"] == [[-2.0, -0.5], [2.0, 0.5]]


def test_aligned_matrix_frozen():
    t = square_template()
    ds, _ = shuffled_frames(t, 3, noise=0.1, seed=24)
    out = assign_roles(ds, t)
    assert not out.matrix.flags.writeable
    assert not out.mappings.flags.writeable
    assert not out.frame_id.flags.writeable


# likelihood helper


def test_average_log_likelihood_single_gaussian():
    f = Formation(components=(gauss(1.0, 2.0, 1.0),))
    ds = make_dataset([[[1.0, 2.0]], [[2.0, 2.0]]], ("a",))
    # log N(0) = -log 2pi, log N at distance 1 adds -1/2; average them
    expect = -LOG_2PI - 0.25
    assert average_log_likelihood(ds, f) == pytest.approx(expect, abs=1e-12)


def test_average_log_likelihood_mixture_logsumexp():
    f = Formation(components=(gauss(-1.0, 0.0, 0.5), gauss(1.0, 0.0, 0.5)))
    ds = make_dataset([[[0.0, 0.0]]], ("a",))
    expect = np.log(2 * 0.5 * np.exp(-LOG_2PI - 0.5))
    assert average_log_likelihood(ds, f) == pytest.approx(expect, abs=1e-12)


# the end-to-end pipeline


def test_pipeline_recovers_ground_truth(easy_tgp):
    tmpl, ds, truth = easy_tgp
    res = run_pipeline(ds)
    assert recovery_score(res.aligned, truth) > 0.95
    assert res.aligned.n_frames == ds.n_frames
    assert res.trace.converged
    assert res.avg_loglik > -10.0


def test_pipeline_parent_fixes_role_order(tiny_tgp):
    tmpl, ds, truth = tiny_tgp
    ds2, _ = sample_dataset(tmpl, 120, seed=77)
    first = run_pipeline(ds)
    second = run_pipeline(ds2, parent=first.template)
    # both fits name the same physical role with the same index
    gap = np.sqrt(((first.template.means - second.template.means) ** 2)
                  .sum(axis=1))
    assert gap.max() < 0.5


def test_pipeline_key_frames_only():
    tmpl = generate_formation(4, separation=3.0, seed=31)
    ds, truth = sample_dataset(tmpl, 200, event_rate=0.3, seed=31)
    res = run_pipeline(ds, key_frames_only=True)
    assert res.training.n_frames < ds.n_frames
    assert all(f.is_event for f in res.training.frames)
    assert res.aligned.n_frames == ds.n_frames  # assignment covers everything
    assert recovery_score(res.aligned, truth) > 0.9


def test_pipeline_parent_cache_consistency(tiny_tgp):
    # under a parent, assignment must use the template's role order (a
    # density cache in the formation's order once broke this)
    tmpl, ds, truth = tiny_tgp
    base = run_pipeline(ds)
    parent = Template(roles=tuple(base.template.roles[::-1]))
    res = run_pipeline(ds, parent=parent)
    fresh = assign_roles(res.dataset, res.template)
    assert np.array_equal(res.aligned.matrix, fresh.matrix)


def test_pipeline_avg_loglik_is_the_last_em_pass():
    tmpl = generate_formation(4, separation=3.0, seed=31)
    ds, _ = sample_dataset(tmpl, 200, event_rate=0.3, seed=31)
    res = run_pipeline(ds)
    assert res.avg_loglik == res.trace.logliks[-1]
    # the same points in another order: equal up to the summation order
    assert res.avg_loglik == pytest.approx(
        average_log_likelihood(res.dataset, res.formation), rel=1e-13)
    keyed = run_pipeline(ds, key_frames_only=True)
    assert keyed.avg_loglik == average_log_likelihood(keyed.dataset,
                                                      keyed.formation)
