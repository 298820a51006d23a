"""Flat clustering of aligned rows, compression metrics, and the tree."""

import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolealign.clustering import (
    ClusterSet,
    TreeStop,
    discriminative_score_E,
    flat_cluster,
    learn_tree,
    pairwise_within_cluster,
    pca_variance_explained,
    wce_sweep,
    within_cluster_error,
)
from rolealign.alignment import Template, assign_roles
from rolealign import discovery
from rolealign.discovery import DiscoveryConfig, kmeans, player_mean_init
from rolealign.geometry import Gaussian2D, nearest_centers
from rolealign.ingest import center_normalize, concat_datasets, flatten
from rolealign.synth import generate_formation, sample_dataset

from oracles import reference_kmeans

SRC = Path(__file__).resolve().parents[1] / "src"


def cluster_set(rows, labels):
    rows = np.asarray(rows, dtype=float)
    labels = np.asarray(labels)
    k = labels.max() + 1
    cents = np.stack([rows[labels == j].mean(axis=0) for j in range(k)])
    return ClusterSet(k=int(k), centroids=cents, labels=labels)


# discriminative score


def test_score_two_pair_fixture():
    rows = [[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [11.0, 0.0]]
    c = cluster_set(rows, [0, 0, 1, 1])
    # terms are 20/21, 18/19, 18/19, 20/21; the mean is 379/399
    assert discriminative_score_E(rows, c) == pytest.approx(379 / 399,
                                                            abs=1e-12)


def test_score_singletons_are_perfect():
    rows = [[0.0, 0.0], [5.0, 0.0], [9.0, 3.0]]
    c = cluster_set(rows, [0, 1, 2])
    assert discriminative_score_E(rows, c) == 1.0


def test_score_requires_two_clusters():
    rows = [[0.0, 0.0], [1.0, 0.0]]
    c = cluster_set(rows, [0, 0])
    with pytest.raises(ValueError, match="single cluster"):
        discriminative_score_E(rows, c)


def test_score_bounds():
    rng = np.random.default_rng(50)
    for _ in range(10):
        rows = rng.normal(size=(40, 4)) * 3
        labels = rng.integers(0, 3, size=40)
        while len(set(labels.tolist())) < 3:
            labels = rng.integers(0, 3, size=40)
        e = discriminative_score_E(rows, cluster_set(rows, labels))
        assert -1.0 - 1e-9 <= e <= 1.0 + 1e-9  # ratio is bounded either way


# compression metrics


def test_wce_hand_value():
    rows = [[0.0, 0.0, 0.0, 0.0], [4.0, 0.0, 0.0, 0.0]]
    c = cluster_set(rows, [0, 0])
    assert within_cluster_error(rows, c) == 2.0


def test_wce_zero_on_centroids():
    rows = [[1.0, 2.0], [1.0, 2.0], [5.0, 5.0]]
    c = cluster_set(rows, [0, 0, 1])
    assert within_cluster_error(rows, c) == 0.0


def test_pairwise_matches_direct_loop():
    rng = np.random.default_rng(51)
    rows = rng.normal(size=(25, 4))
    labels = rng.integers(0, 3, size=25)
    got = pairwise_within_cluster(rows, labels)
    total, pairs = 0.0, 0
    for i in range(25):
        for j in range(25):
            if i != j and labels[i] == labels[j]:
                total += float(np.linalg.norm(rows[i] - rows[j]))
                pairs += 1
    # the expanded quadratic form trades a few digits for vectorization
    assert got == pytest.approx(total / pairs, rel=1e-8)


def test_pairwise_is_the_per_label_mask_gather():
    # any label values: one group per distinct label, in sorted order
    rng = np.random.default_rng(34)
    rows = rng.normal(0.0, 3.0, (60, 6))
    labels = rng.choice([-2, 5, 9], size=60)
    total, pairs = 0.0, 0
    for j in np.unique(labels):
        sub = rows[labels == j]
        sq = (sub * sub).sum(axis=1)
        d2 = sq[:, None] + sq[None, :] - 2.0 * (sub @ sub.T)
        total += np.sqrt(np.clip(d2, 0.0, None)).sum()
        pairs += len(sub) * (len(sub) - 1)
    assert pairwise_within_cluster(rows, labels) == float(total / pairs)


def test_pairwise_all_singletons_is_zero():
    rows = np.arange(8.0).reshape(4, 2)
    assert pairwise_within_cluster(rows, [0, 1, 2, 3]) == 0.0


def test_pca_exact_fractions():
    rows = [[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
    fr = pca_variance_explained(rows)
    assert np.allclose(fr, [0.8, 0.2], atol=1e-12)
    assert fr.sum() == pytest.approx(1.0, abs=1e-12)


def test_pca_rank_one_data():
    rows = np.outer(np.arange(5.0), [3.0, 4.0])
    fr = pca_variance_explained(rows)
    assert fr[0] == pytest.approx(1.0, abs=1e-12)
    assert fr[1] == pytest.approx(0.0, abs=1e-12)


def test_pca_descending_property():
    rng = np.random.default_rng(52)
    for _ in range(10):
        rows = rng.normal(size=(30, 6)) * rng.uniform(0.5, 3.0, 6)
        fr = pca_variance_explained(rows)
        assert np.all(np.diff(fr) <= 1e-12)
        assert fr.sum() == pytest.approx(1.0, abs=1e-9)


def test_pca_validation():
    with pytest.raises(ValueError, match="at least two rows"):
        pca_variance_explained(np.zeros((1, 4)))
    with pytest.raises(ValueError, match="zero-variance"):
        pca_variance_explained(np.ones((5, 3)))


# flat clustering


def aligned_blob_rows(seed, per=60, gap=12.0):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 0.5, (per, 4))
    b = rng.normal(0.0, 0.5, (per, 4)) + gap
    return np.concatenate([a, b])


def test_flat_cluster_finds_two_blobs():
    rows = aligned_blob_rows(53)
    cs = flat_cluster(rows, (1, 2, 3), template=None, seed=0)
    assert cs.k == 2
    assert cs.score > 0.9
    assert len(set(cs.labels[:60].tolist())) == 1
    assert len(set(cs.labels[60:].tolist())) == 1


def test_flat_cluster_k1_convention():
    rows = aligned_blob_rows(54)
    cs = flat_cluster(rows, (1,), template=None)
    assert cs.k == 1 and cs.score == 0.0
    assert np.array_equal(cs.labels, np.zeros(len(rows), dtype=int))
    assert np.allclose(cs.centroids[0], rows.mean(axis=0))


def test_flat_cluster_deterministic():
    rows = aligned_blob_rows(55)
    a = flat_cluster(rows, (2, 3), template=None, seed=7)
    b = flat_cluster(rows, (2, 3), template=None, seed=7)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.centroids, b.centroids)


def test_flat_cluster_template_seed_dim_check():
    t = Template(roles=(Gaussian2D(mean=[0, 0], cov=np.eye(2), weight=1.0),))
    rows = aligned_blob_rows(56)  # 4-dim rows, template seeds 2 dims
    with pytest.raises(ValueError, match="2-dim seed for 4-dim rows"):
        flat_cluster(rows, (2,), template=t)


def test_flat_cluster_skips_out_of_range_candidates():
    rows = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.warns(UserWarning, match="out of range"):
        cs = flat_cluster(rows, (1, 99), template=None)
    assert cs.k == 1
    with pytest.warns(UserWarning, match="out of range"):
        with pytest.raises(ValueError, match="no viable cluster count"):
            flat_cluster(rows, (99,), template=None)


def test_cluster_set_validation():
    with pytest.raises(ValueError, match="centroid count"):
        ClusterSet(k=2, centroids=np.zeros((1, 2)), labels=np.zeros(3, int))
    with pytest.raises(ValueError, match="labels out of range"):
        ClusterSet(k=1, centroids=np.zeros((1, 2)),
                   labels=np.array([0, 1]))
    with pytest.raises(ValueError, match="cluster 1 is empty"):
        ClusterSet(k=2, centroids=np.zeros((2, 2)),
                   labels=np.array([0, 0]))
    # the first empty cluster is the one named
    with pytest.raises(ValueError, match="cluster 1 is empty"):
        ClusterSet(k=4, centroids=np.zeros((4, 2)),
                   labels=np.array([2, 0, 2]))


# the sweep


def test_wce_sweep_nonincreasing():
    rng = np.random.default_rng(57)
    rows = np.concatenate([rng.normal(c, 1.0, (50, 4))
                           for c in (0.0, 6.0, 12.0)])
    out = wce_sweep(rows, range(1, 9))
    ks = [o["k"] for o in out]
    assert ks == list(range(1, 9))
    wces = [o["wce"] for o in out]
    assert all(b <= a + 1e-9 for a, b in zip(wces, wces[1:]))
    assert out[0]["score"] == 0.0


def test_wce_sweep_does_not_import_numpy_ma():
    # a bare np.unique imports numpy.ma (about 10 ms) in numpy 2.4
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from rolealign.clustering import wce_sweep\n"
        "rows = np.random.default_rng(5).normal(size=(60, 4))\n"
        "out = wce_sweep(rows, range(1, 6))\n"
        "print(sum(o['score'] > 0 for o in out), 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, check=True)
    assert proc.stdout.split() == ["4", "False"]


def test_wce_sweep_skips_impossible_k():
    rows = np.array([[0.0, 0.0], [3.0, 0.0]])
    out = wce_sweep(rows, [1, 2, 50])
    assert [o["k"] for o in out] == [1, 2]
    assert out[1]["wce"] == 0.0   # two rows, two centroids


# the template tree


@pytest.fixture(scope="module")
def mixed_formations():
    ta = generate_formation(4, separation=3.0, seed=41)
    tb = generate_formation(4, separation=3.0, seed=42)
    dsa, _ = sample_dataset(ta, 150, seed=41)
    dsb, _ = sample_dataset(tb, 150, seed=43)
    mix = center_normalize(concat_datasets([dsa, dsb]))
    return ta, tb, mix


def test_tree_single_formation_stays_flat():
    t = generate_formation(4, separation=3.0, seed=40)
    ds, _ = sample_dataset(t, 300, seed=40)
    tree = learn_tree(center_normalize(ds),
                      stop=TreeStop(min_node=50, k_candidates=(2, 3)),
                      cfg=DiscoveryConfig(k=4))
    assert tree.depth == 1
    assert tree.root.is_leaf
    assert tree.root.cluster is None
    assert len(tree.root.row_indices) == 300
    assert tree.root.stop_reason in ("no split", "score", "gain")


def test_tree_splits_a_two_formation_mix(mixed_formations):
    ta, tb, mix = mixed_formations
    tree = learn_tree(mix, stop=TreeStop(min_node=50, k_candidates=(2, 3)),
                      cfg=DiscoveryConfig(k=4))
    assert tree.depth == 2
    leaves = tree.leaves()
    assert len(leaves) == 2
    # each leaf collects exactly one source's frames
    fracs = sorted(float((np.array(l.row_indices) < 150).mean())
                   for l in leaves)
    assert fracs == [0.0, 1.0]
    assert tree.root.pairwise_loss is not None
    assert tree.root.stop_reason is None
    for leaf in leaves:
        assert leaf.wce < tree.root.wce
        assert leaf.stop_reason is not None
        assert leaf.row_indices.dtype == np.intp
        assert not leaf.row_indices.flags.writeable


def test_tree_to_dict_and_save(tmp_path, mixed_formations):
    ta, tb, mix = mixed_formations
    tree = learn_tree(mix, stop=TreeStop(min_node=50, k_candidates=(2, 3)),
                      cfg=DiscoveryConfig(k=4))
    d = tree.to_dict()
    assert d["depth"] == 2
    assert d["root"]["cluster_k"] == 2
    assert len(d["root"]["children"]) == 2
    assert d["root"]["children"][0]["children"] == []
    assert d["root"]["stop_reason"] is None
    rows = [r for child in d["root"]["children"] for r in child["rows"]]
    assert sorted(rows) == d["root"]["rows"] == list(range(300))
    assert all(type(r) is int for r in rows)
    p = tmp_path / "tree.json"
    tree.save(p)
    with open(p) as fh:
        assert json.load(fh) == d


def test_tree_respects_max_depth(mixed_formations):
    ta, tb, mix = mixed_formations
    tree = learn_tree(mix, stop=TreeStop(max_depth=1, min_node=50,
                                         k_candidates=(2, 3)),
                      cfg=DiscoveryConfig(k=4))
    assert tree.depth == 1 and tree.root.is_leaf
    assert tree.root.stop_reason == "depth"


def test_tree_min_node_blocks_splits(mixed_formations):
    ta, tb, mix = mixed_formations
    tree = learn_tree(mix, stop=TreeStop(min_node=10_000,
                                         k_candidates=(2, 3)),
                      cfg=DiscoveryConfig(k=4))
    assert tree.depth == 1
    assert tree.root.stop_reason == "size"
    assert tree.to_dict()["root"]["stop_reason"] == "size"


@pytest.mark.parametrize("rule,reason", [
    (dict(min_score=1.5), "score"),   # the E score is at most 1
    (dict(min_score=0.0, min_rel_improvement=1.5), "gain"),
])
def test_tree_records_why_the_root_did_not_split(mixed_formations, rule,
                                                 reason):
    ta, tb, mix = mixed_formations
    tree = learn_tree(mix, stop=TreeStop(min_node=50, k_candidates=(2, 3),
                                         **rule),
                      cfg=DiscoveryConfig(k=4))
    assert tree.root.is_leaf and tree.root.cluster is None
    assert tree.root.stop_reason == reason


def test_tree_with_no_viable_candidate_records_no_split(mixed_formations):
    ta, tb, mix = mixed_formations
    with pytest.warns(UserWarning, match="out of range"):
        tree = learn_tree(mix, stop=TreeStop(min_node=50,
                                             k_candidates=(0,)),
                          cfg=DiscoveryConfig(k=4))
    assert tree.root.stop_reason == "no split"


def test_tree_nodes_assign_as_a_fresh_assign_roles(mixed_formations,
                                                   monkeypatch):
    # every node's mappings, including those of nodes aligned to a parent,
    # are those of assign_roles on the node's frames and template
    import rolealign.clustering as clustering

    ta, tb, mix = mixed_formations
    made = []

    def spy(sub, template, *args, **kwargs):
        out = assign_roles(sub, template, *args, **kwargs)
        made.append(out.mappings)
        return out

    monkeypatch.setattr(clustering, "assign_roles", spy)
    tree = learn_tree(mix, stop=TreeStop(min_node=50, k_candidates=(2, 3)),
                      cfg=DiscoveryConfig(k=4))
    nodes = [tree.root, *tree.root.children]   # the order they were built
    assert len(nodes) == len(made) == 3
    for node, mappings in zip(nodes, made):
        fresh = assign_roles(mix.take(np.array(node.row_indices)),
                             node.template)
        assert np.array_equal(mappings, fresh.mappings)


# nearest-center searches, against the (P, k, D) broadcasts they replaced


def reference_score_E(x, c):
    d = np.sqrt(((x[:, None, :] - c.centroids[None, :, :]) ** 2).sum(axis=2))
    m = x.shape[0]
    own = d[np.arange(m), c.labels]
    others = d.copy()
    others[np.arange(m), c.labels] = np.inf
    neighbor = others.min(axis=1)
    safe = np.where(neighbor > 0, neighbor, 1.0)
    terms = np.where(neighbor > 0, (neighbor - own) / safe, 0.0)
    return float(terms.mean())


def reference_wce_sweep(x, ks):
    def extend(centers, extra):
        centers = list(centers)
        d = np.sqrt(((x[:, None, :] - np.stack(centers)[None]) ** 2)
                    .sum(axis=2))
        nearest = d.min(axis=1)
        for _ in range(extra):
            far = int(np.argmax(nearest))
            centers.append(x[far])
            newd = np.sqrt(((x - x[far]) ** 2).sum(axis=1))
            nearest = np.minimum(nearest, newd)
        return np.stack(centers)

    def unsquared(cent, lab):
        diff = x - cent[lab]
        return float(np.sqrt((diff * diff).sum(axis=1)).mean())

    out, centers = [], None
    for k in sorted(set(int(k) for k in ks)):
        if k < 1 or k > x.shape[0]:
            continue
        if centers is None:
            init = x.mean(axis=0, keepdims=True)
            if k > 1:
                init = extend(init, k - 1)
        else:
            init = extend(centers, k - len(centers))
        nearest = np.sqrt(((x[:, None, :] - init[None]) ** 2).sum(axis=2))
        cands = [(init, nearest.argmin(axis=1))]
        cent, lab, _ = reference_kmeans(x, init)
        cands.append((cent, lab))
        cent, lab = min(cands, key=lambda cl: unsquared(*cl))
        wce = unsquared(cent, lab)
        score = 0.0
        if k >= 2 and len(np.unique(lab)) == k:
            score = reference_score_E(
                x, ClusterSet(k=k, centroids=cent, labels=lab))
        out.append({"k": k, "wce": wce, "score": score})
        centers = cent
    return out


def _rows(case):
    rng = np.random.default_rng(71)
    blobs = rng.normal(0.0, 5.0, (12, 44))
    x = blobs[rng.integers(0, 12, 900)] + rng.normal(size=(900, 44))
    if case == "offset":       # every search falls back at 1e6
        return 1e6 + 1e-2 * x
    if case == "duplicates":   # repeated rows make exact ties
        return np.repeat(x[:150], 6, axis=0)
    return x


@pytest.mark.parametrize("case", ["random", "duplicates", "offset"])
def test_kmeans_44d_bit_identical_to_broadcast(case):
    x = _rows(case)
    rng = np.random.default_rng(72)
    init = x[rng.choice(len(x), 10, replace=False)]
    km = kmeans(x, init)
    centers, labels, inertia = reference_kmeans(x, init)
    assert km.n_iterations > 1
    assert np.array_equal(km.centers, centers)
    assert np.array_equal(km.labels, labels)
    assert km.inertia == inertia
    assert km.searched + km.settled == len(x) * km.n_iterations
    # at 1e6 no search is certified, so no row ever has a bound to settle it
    if case == "offset":
        assert km.settled == 0 and km.fallback == km.searched
    else:
        assert km.settled > 0 and km.fallback < km.searched


def test_kmeans_44d_empty_cluster_reseed_bit_identical():
    x = _rows("random")
    init = np.concatenate([x[:4], x[:2], np.full((1, 44), 1e4),
                           np.full((1, 44), -1e4)])
    km = kmeans(x, init)
    centers, labels, inertia = reference_kmeans(x, init)
    # the duplicated and far-off centers start empty and are reseeded
    assert np.bincount(nearest_centers(x, init).labels, minlength=8)[4:].sum() \
        == 0
    assert np.array_equal(km.centers, centers)
    assert np.array_equal(km.labels, labels)
    assert km.inertia == inertia
    assert np.all(np.diff(km.inertia) <= 0.0)
    assert km.fallback > 0     # the duplicated centers tie exactly


# K-means' bounds: rows they settle keep the broadcast loop's labels


def assert_kmeans_is_the_broadcast_loop(x, init):
    """kmeans against reference_kmeans with ==, in blocks of 7 rows and of
    the default BLOCK; returns the default run."""
    centers, labels, inertia = reference_kmeans(x, init)
    for block in (7, discovery.BLOCK):
        with mock.patch.object(discovery, "BLOCK", block):
            km = kmeans(x, init)
        assert np.array_equal(km.centers, centers)
        assert np.array_equal(km.labels, labels)
        assert km.inertia == inertia
        assert km.searched + km.settled == len(x) * km.n_iterations
    return km


@st.composite
def _lloyd_case(draw):
    """Blobs in 2 or 44 dimensions, maybe on an integer grid (exact ties),
    each row repeated 1 to 3 times, at a pitch-sized offset, with k of the
    rows (duplicates among them) as init."""
    dim = draw(st.sampled_from([2, 44]))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blobs = rng.normal(0.0, 5.0, (k, dim))
    x = blobs[rng.integers(0, k, draw(st.integers(k, 60)))]
    x = x + rng.normal(size=x.shape)
    if draw(st.booleans()):
        x = np.round(x)
    x = np.repeat(x, draw(st.integers(1, 3)), axis=0)
    x = x + draw(st.sampled_from([0.0, 34.0, 52.5, 105.0]))
    return x, x[rng.choice(len(x), k, replace=False)]


@settings(max_examples=60, deadline=None)
@given(_lloyd_case())
def test_kmeans_equals_broadcast_loop_property(case):
    assert_kmeans_is_the_broadcast_loop(*case)


def test_kmeans_cluster_emptied_after_the_first_iteration():
    # cluster 1 starts between two blobs and takes the rows at x = +-3.9;
    # once the outer centers move to about +-6 those rows leave it empty
    rng = np.random.default_rng(73)
    blob = rng.normal(0.0, 0.3, (150, 2))
    x = np.concatenate([blob + [-6.0, 0.0], blob[::-1] + [6.0, 0.0],
                        [[-3.9, 0.1], [3.9, -0.1], [-3.9, -0.1],
                         [3.9, 0.1]]])
    init = np.array([[-8.0, 0.0], [0.0, 0.0], [8.0, 0.0]])
    reseeds = []
    reference_kmeans(x, init, reseeds=reseeds)
    assert reseeds and min(reseeds) >= 1
    km = assert_kmeans_is_the_broadcast_loop(x, init)
    assert km.settled > 0


def test_kmeans_long_run_settles_most_rows():
    # four formations pooled, from the mean of their player-mean inits
    parts = [sample_dataset(generate_formation(10, 3.0, seed=200 + i), 300,
                            swap_rate=0.05, seed=300 + i)[0]
             for i in range(4)]
    x = np.concatenate([flatten(ds) for ds in parts])
    init = np.mean([player_mean_init(ds) for ds in parts], axis=0)
    km = assert_kmeans_is_the_broadcast_loop(x, init)
    assert km.n_iterations >= 20
    assert km.settled > 2 * km.searched


def test_kmeans_one_ulp_runner_up_goes_to_the_search():
    # Cluster 0 starts at the origin and, in the first iteration, takes each
    # tie row r right before -r, so their sums cancel exactly: the centers
    # after that iteration are those of 2t zero rows in their place.  The
    # rows r are one-ulp ties between those centers, labelled 0 by the
    # first iteration, and the second iteration moves some of them to 1.
    from test_geometry import _one_ulp_ties
    rng = np.random.default_rng(74)
    dim, t = 44, 24
    a = rng.normal(size=dim)
    bulk = np.concatenate([a + 0.1 * rng.normal(size=(200, dim)),
                           -a + 0.1 * rng.normal(size=(200, dim))])
    init = np.stack([np.zeros(dim), -a])
    centers = reference_kmeans(np.concatenate([np.zeros((2 * t, dim)), bulk]),
                               init, max_iters=1)[0]
    ties, _ = _one_ulp_ties(dim, seed=75, centers=centers)
    ties = ties[:t]
    x = np.concatenate([np.stack([ties, -ties], axis=1).reshape(-1, dim),
                        bulk])
    first = reference_kmeans(x, init, max_iters=1)
    assert np.array_equal(first[0], centers)
    assert not first[1][:2 * t].any()
    second = reference_kmeans(x, init, max_iters=2)[1][:2 * t:2]
    assert 0 < second.sum() < t
    km = assert_kmeans_is_the_broadcast_loop(x, init)
    assert km.n_iterations > 2 and km.settled > 0


def test_kmeans_context_sized_fit():
    ds, _ = sample_dataset(generate_formation(10, 3.0, seed=76), 600,
                           swap_rate=0.05, seed=76)
    x = flatten(ds)
    km = assert_kmeans_is_the_broadcast_loop(x, player_mean_init(ds))
    assert len(x) == 6000 and km.n_iterations > 2 and km.settled > 0


@pytest.mark.parametrize("case", ["random", "duplicates", "offset"])
def test_score_E_bit_identical_to_broadcast(case):
    x = _rows(case)
    km = kmeans(x, x[:: len(x) // 6][:6])
    cs = ClusterSet(k=6, centroids=km.centers, labels=km.labels)
    assert discriminative_score_E(x, cs) == reference_score_E(x, cs)
    # labels that are not the nearest centroid, and duplicated centroids
    lab = np.arange(len(x)) % 6
    cents = np.stack([x[lab == j].mean(axis=0) for j in range(6)])
    cents[4] = cents[2]
    cs = ClusterSet(k=6, centroids=cents, labels=lab)
    assert discriminative_score_E(x, cs) == reference_score_E(x, cs)


def test_score_E_near_ties_bit_identical_to_broadcast():
    # each row one ulp off the bisector of its two nearest other centroids
    from test_geometry import _one_ulp_ties
    x, pair = _one_ulp_ties()
    cents = np.concatenate([pair, [x.mean(axis=0)]])
    lab = np.full(len(x), 2)
    lab[:2] = [0, 1]
    cs = ClusterSet(k=3, centroids=cents, labels=lab)
    assert discriminative_score_E(x, cs) == reference_score_E(x, cs)


@pytest.mark.parametrize("case", ["random", "duplicates", "offset"])
def test_wce_sweep_bit_identical_to_broadcast(case):
    x = _rows(case)
    out = wce_sweep(x, range(1, 13))
    ref = reference_wce_sweep(x, range(1, 13))
    assert [{key: o[key] for key in ref[0]} for o in out] == ref
    for o in out:
        assert 0 <= o["fallback"] <= o["searched"]
    fallback = sum(o["fallback"] for o in out)
    searched = sum(o["searched"] for o in out)
    if case == "offset":   # all but the searches with no runner-up
        assert fallback > 0.9 * searched
    elif case == "random":
        assert fallback == 0
