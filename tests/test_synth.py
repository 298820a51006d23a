"""Formation generator guarantees, the frame sampler, and truth scoring."""

import numpy as np
import pytest

from rolealign.alignment import AlignedDataset
from rolealign.geometry import covariance_eigenvalues
from rolealign.synth import (
    GroundTruth,
    generate_formation,
    read_truth_maps,
    recovery_score,
    sample_dataset,
    write_truth_jsonl,
)


def max_sigma(t):
    return max(np.sqrt(covariance_eigenvalues(r)[0]) for r in t.roles)


# the generator


def test_separation_floor_holds():
    rng = np.random.default_rng(60)
    for _ in range(12):
        k = int(rng.integers(2, 11))
        sep = float(rng.uniform(1.5, 4.0))
        t = generate_formation(k, separation=sep, seed=int(rng.integers(1e6)))
        floor = sep * max_sigma(t)
        means = t.means
        for i in range(k):
            for j in range(i + 1, k):
                assert np.hypot(*(means[i] - means[j])) >= floor


def test_anisotropy_range():
    t = generate_formation(8, seed=61)
    for r in t.roles:
        lam1, lam2 = covariance_eigenvalues(r)
        assert 1.0 <= lam1 / lam2 <= 1.6 + 1e-9
    t2 = generate_formation(8, anisotropy=(2.0, 3.0), seed=61)
    for r in t2.roles:
        lam1, lam2 = covariance_eigenvalues(r)
        assert 2.0 - 1e-9 <= lam1 / lam2 <= 3.0 + 1e-9


def test_means_centered_weights_uniform():
    t = generate_formation(7, seed=62)
    assert np.abs(t.means.mean(axis=0)).max() < 1e-9
    assert np.allclose(t.weights, 1 / 7)


def test_single_role_formation():
    t = generate_formation(1, seed=63)
    assert t.k == 1
    assert np.array_equal(t.roles[0].mean, [0.0, 0.0])
    assert t.roles[0].weight == 1.0


def test_generator_validation_and_determinism():
    with pytest.raises(ValueError, match="k must be >= 1"):
        generate_formation(0)
    a = generate_formation(6, seed=64)
    b = generate_formation(6, seed=64)
    assert a.to_dict() == b.to_dict()
    c = generate_formation(6, seed=65)
    assert not np.array_equal(a.means, c.means)


def test_base_sigma_scales_covariances():
    a = generate_formation(5, seed=66, base_sigma=1.0)
    b = generate_formation(5, seed=66, base_sigma=2.0)
    for ra, rb in zip(a.roles, b.roles):
        assert np.allclose(rb.cov, 4.0 * ra.cov, rtol=1e-9)


# the sampler


def test_sample_dataset_shapes_and_ids():
    t = generate_formation(12, seed=67)
    ds, truth = sample_dataset(t, 50, seed=67)
    assert ds.n_frames == 50 and ds.n_agents == 12
    assert ds.frames[0].agent_ids[:3] == ("p00", "p01", "p02")
    assert ds.frames[0].agent_ids[-1] == "p11"
    assert truth.true_maps.shape == (50, 12)


def test_sample_dataset_is_centered():
    t = generate_formation(5, seed=68)
    ds, _ = sample_dataset(t, 40, seed=68)
    for f in ds.frames:
        assert np.abs(f.positions.mean(axis=0)).max() < 1e-12


def test_no_swaps_means_identity_maps():
    t = generate_formation(6, seed=69)
    ds, truth = sample_dataset(t, 80, swap_rate=0.0, seed=69)
    assert np.array_equal(truth.true_maps,
                          np.tile(np.arange(6), (80, 1)))


def test_swaps_touch_at_most_one_pair_at_a_time():
    t = generate_formation(8, seed=70)
    ds, truth = sample_dataset(t, 600, swap_rate=0.3, seed=70)
    identity = np.arange(8)
    mism = (truth.true_maps != identity).sum(axis=1)
    assert set(mism.tolist()) <= {0, 2}
    assert (mism == 2).any()   # the rate is high enough to see swaps


def test_event_rate_binomial_band():
    t = generate_formation(4, seed=71)
    ds, _ = sample_dataset(t, 3000, event_rate=0.1, seed=71)
    n_events = sum(f.is_event for f in ds.frames)
    # 300 +- 4 sigma, sigma = sqrt(3000 * 0.1 * 0.9)
    assert 234 <= n_events <= 366


def test_no_events_at_zero_rate():
    t = generate_formation(4, seed=72)
    ds, _ = sample_dataset(t, 60, event_rate=0.0, seed=72)
    assert not any(f.is_event for f in ds.frames)


def test_sampler_deterministic():
    t = generate_formation(5, seed=73)
    a, _ = sample_dataset(t, 30, swap_rate=0.1, event_rate=0.2, seed=73)
    b, _ = sample_dataset(t, 30, swap_rate=0.1, event_rate=0.2, seed=73)
    assert np.array_equal(a.positions, b.positions)
    c, _ = sample_dataset(t, 30, swap_rate=0.1, event_rate=0.2, seed=74)
    assert not np.array_equal(a.positions, c.positions)


def test_sampler_metadata_passthrough():
    t = generate_formation(3, seed=75)
    ds, _ = sample_dataset(t, 5, team="home", game="g9", period=2, seed=75)
    f = ds.frames[0]
    assert (f.team, f.game, f.period) == ("home", "g9", 2)


def test_sampler_needs_a_frame():
    t = generate_formation(3, seed=76)
    with pytest.raises(ValueError, match="at least one frame"):
        sample_dataset(t, 0)


# ground truth plumbing


def test_truth_roundtrip(tmp_path):
    t = generate_formation(5, seed=77)
    _, truth = sample_dataset(t, 40, swap_rate=0.2, seed=77)
    p = tmp_path / "truth.jsonl"
    write_truth_jsonl(truth, p)
    assert np.array_equal(read_truth_maps(p), truth.true_maps)


def test_truth_validation():
    t = generate_formation(3, seed=78)
    with pytest.raises(ValueError, match="not injective"):
        GroundTruth(template=t, true_maps=[[0, 0, 1]], swap_rate=0.0,
                    event_rate=0.0, seed=0)
    _, truth = sample_dataset(t, 5, seed=78)
    assert not truth.true_maps.flags.writeable


def predicted_from_maps(maps, k):
    """Wrap explicit per-frame role maps as an aligned result."""
    s = len(maps)
    return AlignedDataset(matrix=np.zeros((s, 2 * k)), mappings=maps,
                          frame_id=np.arange(s))


def test_recovery_score_absorbs_global_relabel():
    t = generate_formation(4, seed=79)
    _, truth = sample_dataset(t, 30, swap_rate=0.3, seed=79)
    sigma = np.array([2, 0, 3, 1])
    pred = predicted_from_maps([sigma[row] for row in truth.true_maps], 4)
    assert recovery_score(pred, truth) == 1.0


def test_recovery_score_counts_corrupt_frames():
    t = generate_formation(4, seed=80)
    _, truth = sample_dataset(t, 20, seed=80)
    maps = [row.copy() for row in truth.true_maps]
    maps[7] = np.array([1, 0, 2, 3])   # one frame wrong
    pred = predicted_from_maps(maps, 4)
    assert recovery_score(pred, truth) == pytest.approx(19 / 20)


def test_recovery_score_frame_count_check():
    t = generate_formation(3, seed=81)
    _, truth = sample_dataset(t, 10, seed=81)
    pred = predicted_from_maps([np.arange(3)] * 9, 3)
    with pytest.raises(ValueError, match="9 frames, truth has 10"):
        recovery_score(pred, truth)
