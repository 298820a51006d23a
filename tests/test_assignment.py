"""Assignment solver against exhaustive oracles; Sinkhorn fixed points."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from rolealign import (SinkhornConvergenceError, assign_batch, hungarian,
                       sinkhorn_normalize)
from rolealign import assignment
from rolealign.assignment import (_alternating_cycles, _jv_lockstep,
                                  _lex_refine, _tight)


def brute_force(cost):
    """Minimum cost and the lexicographically smallest optimal mapping."""
    c = np.asarray(cost, dtype=float)
    n, m = c.shape
    best_cost = np.inf
    best_map = None
    for perm in itertools.permutations(range(m), n):
        total = sum(c[i, j] for i, j in enumerate(perm))
        if total < best_cost - 1e-12 or (
                abs(total - best_cost) <= 1e-12 and
                (best_map is None or list(perm) < best_map)):
            best_cost = total
            best_map = list(perm)
    return best_cost, best_map


def test_diagonal_zeros():
    cost = np.ones((3, 3)) - np.eye(3)
    a = hungarian(cost)
    assert a.mapping.tolist() == [0, 1, 2]
    assert a.total_cost == 0.0


def test_three_by_three_fixture():
    a = hungarian([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
    assert a.mapping.tolist() == [1, 0, 2]
    assert a.total_cost == pytest.approx(5.0, abs=1e-9)


def test_matches_brute_force_small():
    rng = np.random.default_rng(0)
    for n in range(1, 8):
        for _ in range(60):
            c = rng.normal(0, 10, (n, n))
            a = hungarian(c)
            best, _ = brute_force(c)
            assert a.total_cost == pytest.approx(best, abs=1e-9)
            assert sorted(a.mapping.tolist()) == list(range(n))


def test_rectangular_matches_brute_force():
    rng = np.random.default_rng(1)
    for _ in range(100):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(n + 1, 8))
        c = rng.normal(0, 5, (n, m))
        a = hungarian(c)
        best, _ = brute_force(c)
        assert a.total_cost == pytest.approx(best, abs=1e-9)
        assert len(set(a.mapping.tolist())) == n


def test_row_column_shift_invariance():
    rng = np.random.default_rng(2)
    c = rng.normal(0, 3, (5, 5))
    base = hungarian(c)
    shifted = c.copy()
    shifted[2] += 7.5       # one row
    shifted[:, 4] -= 2.25   # one column
    a = hungarian(shifted)
    assert a.mapping.tolist() == base.mapping.tolist()
    delta = 7.5 - (2.25 if 4 in base.mapping else 0.0)
    assert a.total_cost == pytest.approx(base.total_cost + delta, abs=1e-9)


def test_lexicographic_tie_break():
    # every permutation of an all-ones matrix is optimal; identity wins
    for n in (2, 3, 5, 8):
        assert hungarian(np.ones((n, n))).mapping.tolist() == list(range(n))
    a = hungarian([[1.0, 1.0, 5.0], [1.0, 1.0, 5.0], [5.0, 5.0, 1.0]])
    assert a.mapping.tolist() == [0, 1, 2]


def test_lexicographic_matches_brute_force_on_ties():
    # small integer costs make equal-cost optima common
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        c = rng.integers(0, 3, (n, n)).astype(float)
        a = hungarian(c)
        best, lex = brute_force(c)
        assert a.total_cost == pytest.approx(best, abs=1e-9)
        assert a.mapping.tolist() == lex


def test_total_cost_consistent_with_entries():
    rng = np.random.default_rng(5)
    c = rng.normal(0, 2, (6, 9))
    a = hungarian(c)
    direct = sum(c[i, j] for i, j in enumerate(a.mapping))
    assert a.total_cost == pytest.approx(direct, abs=1e-9)


def test_input_validation():
    with pytest.raises(ValueError, match="n <= m"):
        hungarian(np.ones((3, 2)))     # more rows than columns
    with pytest.raises(ValueError, match="non-finite"):
        hungarian([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError, match="non-finite"):
        hungarian([[1.0, np.inf], [0.0, 1.0]])
    with pytest.raises(ValueError, match="2-D matrix"):
        hungarian(np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="2-D matrix"):
        hungarian(np.ones((0, 3)))


def test_mapping_is_frozen():
    a = hungarian(np.eye(3))
    with pytest.raises(ValueError):
        a.mapping[0] = 2


# ------------------------------------------------------------ batch solver

def _jv_square(cost: list[list[float]]) -> tuple[list[int], list[float], list[float]]:
    """Solve a square assignment problem; returns (row->col, row duals, col duals).

    Classic 1-indexed shortest-augmenting-path formulation; column 0 is the
    virtual start column.
    """
    n = len(cost)
    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    matched = [0] * (n + 1)   # matched[j] = row occupying column j (1-based, 0 = free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        matched[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = matched[j0]
            row = cost[i0 - 1]
            ui0 = u[i0]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui0 - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[matched[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if matched[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            matched[j0] = matched[j1]
            j0 = j1
    mapping = [0] * n
    for j in range(1, n + 1):
        if matched[j]:
            mapping[matched[j] - 1] = j - 1
    return mapping, u[1:], v[1:]


def scalar_hungarian(c):
    """One (n, k) frame solved on its own, independently of ``assign_batch``:
    padded to k x k, solved by the scalar ``_jv_square``, then refined by
    ``_lex_refine`` when its tight edges hold another optimum (the frame is
    then tied).  The total is a 1-D sum over the frame's rows."""
    n = len(c)
    square = padded(c[None])[0]
    m, u, v = _jv_square(square.tolist())
    mapping = np.array(m)
    tight = _tight(square[None], np.array(u)[None], np.array(v)[None])
    tied = _alternating_cycles(tight, mapping[None], n)[0]
    if tied:
        mapping = np.array(_lex_refine(square, mapping, tight[0], n))
    mapping = mapping[:n]
    return mapping, c[np.arange(n), mapping].sum(), tied


def per_frame(cost):
    solved = [scalar_hungarian(c) for c in cost]
    return (np.array([m for m, _, _ in solved]),
            np.array([t for _, t, _ in solved]))


def assert_same_as_hungarian(cost):
    b = assign_batch(cost)
    mappings, totals = per_frame(cost)
    assert np.array_equal(b.mappings, mappings)
    assert np.array_equal(b.totals, totals)   # bit for bit, not approx
    return b


def role_costs(rng, s, n, k, spread):
    """Costs whose row minima are mostly unique and distinct: agent i sits
    nearest role i, blurred by ``spread``."""
    base = np.abs(np.arange(n)[:, None] - np.arange(k)[None, :]) * 2.0
    return base + rng.normal(0.0, spread, (s, n, k))


def test_batch_matches_hungarian_on_random_frames():
    rng = np.random.default_rng(20)
    cost = role_costs(rng, 400, 10, 10, 1.5)
    b = assert_same_as_hungarian(cost)
    assert 0 < b.n_certified < len(cost)   # both paths are exercised
    argmin = cost.argmin(axis=2)
    assert np.array_equal(b.mappings[b.certified], argmin[b.certified])


def test_batch_integer_ties_take_the_lexicographic_path():
    rng = np.random.default_rng(21)
    cost = rng.integers(0, 3, (300, 5, 5)).astype(float)
    b = assert_same_as_hungarian(cost)
    low2 = np.sort(cost, axis=2)[:, :, :2]
    tied = (low2[:, :, 0] == low2[:, :, 1]).any(axis=1)
    assert tied.sum() > 100 and not b.certified[tied].any()
    for c, m in zip(cost[:40], b.mappings[:40]):
        assert m.tolist() == brute_force(c)[1]


def test_batch_near_tie_is_not_certified():
    # the row argmins [1, 0] undercut [0, 1] by 2e-10, inside the slack
    # the lexicographic refinement accepts, so it returns [0, 1]
    eps = 1e-10
    cost = np.array([[[1.0 + eps, 1.0], [1.0, 1.0 + eps]]])
    b = assert_same_as_hungarian(cost)
    assert b.mappings.tolist() == [[0, 1]] and not b.certified[0]
    wide = np.array([[[1.5, 1.0], [1.0, 1.5]]])
    b = assert_same_as_hungarian(wide)
    assert b.mappings.tolist() == [[1, 0]] and b.certified[0]


def partition_certificate(cost):
    """The certificate as first written: runner-ups by ``np.partition``, the
    scale by ``np.abs``."""
    low2 = np.partition(cost, 1, axis=2)
    margin = assignment._CERT_MARGIN * (1.0 + np.abs(cost).max(axis=(1, 2)))
    unique = (low2[:, :, 1] - low2[:, :, 0] > margin[:, None]).all(axis=1)
    cols = np.sort(cost.argmin(axis=2), axis=1)
    return unique & (cols[:, 1:] != cols[:, :-1]).all(axis=1)


@pytest.mark.parametrize("kind", ["floats", "near ties", "integer ties"])
def test_certificate_matches_the_partition_reference(kind):
    rng = np.random.default_rng(26)
    if kind == "floats":
        cost = role_costs(rng, 300, 8, 10, 0.8)
    elif kind == "near ties":   # a runner-up on either side of the margin
        cost = role_costs(rng, 300, 6, 6, 0.1)
        cost[1::2] -= 30.0   # the largest magnitude is the least entry
        margin = assignment._CERT_MARGIN * (1.0 + np.abs(cost).max(
            axis=(1, 2)))
        low = cost.argmin(axis=2)[:, 0]
        cost[np.arange(300), 0, (low + 1) % 6] = cost[:, 0].min(axis=1) + \
            rng.choice([0.5, 0.999, 1.001, 2.0], 300) * margin
    else:
        cost = rng.integers(-2, 3, (300, 5, 7)).astype(float)
    copy = cost.copy()
    b = assign_batch(cost)
    assert np.array_equal(cost, copy)   # the caller's array is untouched
    certified = partition_certificate(cost)
    assert np.array_equal(b.certified, certified)
    assert 0 < b.n_certified < len(cost) or kind == "integer ties"
    solved = [scalar_hungarian(c) for c in cost]
    reference = np.where(certified[:, None], cost.argmin(axis=2),
                         [m for m, _, _ in solved])
    assert np.array_equal(b.mappings, reference)
    assert np.array_equal(b.totals, [t for _, t, _ in solved])
    assert np.array_equal(b.tied, ~certified & [t for _, _, t in solved])


@pytest.mark.parametrize("n,k", [(3, 7), (1, 4), (6, 9), (1, 1)])
def test_batch_rectangular_and_single_role(n, k):
    rng = np.random.default_rng(22 + 10 * n + k)
    b = assert_same_as_hungarian(role_costs(rng, 200, n, k, 1.0))
    if k == 1:
        assert b.certified.all()


def test_batch_distinct_argmin_check_applies_to_padded_frames():
    # both agents want role 2 with unique row minima: not certifiable
    cost = np.array([[[3.0, 2.0, 0.0, 5.0], [4.0, 1.0, 0.5, 6.0]]])
    b = assert_same_as_hungarian(cost)
    assert not b.certified[0]
    assert b.mappings.tolist() == [[2, 1]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_batch_rejects_non_finite_entry_in_certifiable_frame(bad):
    cost = role_costs(np.random.default_rng(23), 5, 4, 4, 0.1)
    assert assign_batch(cost).certified.all()
    cost[3, 1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        assign_batch(cost)


def test_batch_input_validation():
    with pytest.raises(ValueError, match="n <= m"):
        assign_batch(np.ones((2, 3, 2)))
    with pytest.raises(ValueError):
        assign_batch(np.ones((3, 3)))
    b = assign_batch(np.ones((0, 2, 3)))
    assert b.mappings.shape == (0, 2) and b.n_certified == 0


@st.composite
def cost_tensors(draw):
    n = draw(st.integers(1, 6))
    k = draw(st.integers(n, 6))
    s = draw(st.integers(1, 4))
    # small integers force ties; hundredths keep any two distinct totals
    # far apart next to the brute force's 1e-12 tie tolerance
    values = st.integers(0, 3).map(float) if draw(st.booleans()) else \
        st.integers(-5000, 5000).map(lambda v: v / 100.0)
    return draw(arrays(np.float64, (s, n, k), elements=values))


@settings(max_examples=150, deadline=None)
@given(cost_tensors())
def test_batch_property_against_brute_force(cost):
    b = assert_same_as_hungarian(cost)
    for c, m, t in zip(cost, b.mappings, b.totals):
        best, lex = brute_force(c)
        assert t == pytest.approx(best, abs=1e-9)
        assert m.tolist() == lex


def test_batch_against_scipy_oracle():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(24)
    cost = role_costs(rng, 200, 8, 11, 2.0)
    b = assign_batch(cost)
    for c, t in zip(cost, b.totals):
        rows, cols = optimize.linear_sum_assignment(c)
        assert t == pytest.approx(c[rows, cols].sum(), abs=1e-9)


def test_batch_against_scipy_oracle_uncertified_22():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(25)
    cost = role_costs(rng, 150, 22, 22, 1.5)
    b = assign_batch(cost)
    assert b.n_certified < 10 and b.n_tied == 0
    for c, m, t in zip(cost, b.mappings, b.totals):
        rows, cols = optimize.linear_sum_assignment(c)
        assert t == pytest.approx(c[rows, cols].sum(), abs=1e-9)
        assert m.tolist() == cols.tolist()   # the optimum is unique


# ------------------------------------------------------- lockstep solver

def padded(cost):
    """Each (n, k) frame of ``cost`` padded to k x k as assign_batch pads
    it, with rows of the frame's max entry + 1."""
    s, n, k = cost.shape
    sentinel = cost.max(axis=(1, 2)) + 1.0
    pad = np.broadcast_to(sentinel[:, None, None], (s, k - n, k))
    return np.concatenate([cost, pad], axis=1)


def assert_lockstep_is_scalar(square):
    mappings, u, v = _jv_lockstep(square)
    for f, c in enumerate(square):
        m, uf, vf = _jv_square(c.tolist())
        assert mappings[f].tolist() == m
        assert u[f].tobytes() == np.array(uf).tobytes()   # bit for bit
        assert v[f].tobytes() == np.array(vf).tobytes()


def test_lockstep_matches_scalar_on_random_floats():
    rng = np.random.default_rng(30)
    for n in range(1, 9):
        assert_lockstep_is_scalar(rng.normal(0.0, 5.0, (60, n, n)))
    assert_lockstep_is_scalar(rng.normal(0.0, 5.0, (200, 22, 22)))


def test_lockstep_matches_scalar_on_integer_ties():
    rng = np.random.default_rng(31)
    for n in (2, 5, 9):
        assert_lockstep_is_scalar(
            rng.integers(0, 3, (200, n, n)).astype(float))


def test_lockstep_matches_scalar_on_mixed_padded_frames():
    # easy frames finish each row's search in one turn, random ones run
    # long; all of them, padded as assign_batch pads, share one lockstep
    rng = np.random.default_rng(32)
    for n, k in ((3, 7), (10, 12), (1, 5)):
        easy = role_costs(rng, 150, n, k, 0.2)
        hard = rng.normal(0.0, 3.0, (150, n, k))
        ties = rng.integers(0, 3, (100, n, k)).astype(float)
        stack = np.concatenate([easy, hard, ties])
        assert_lockstep_is_scalar(padded(stack[rng.permutation(len(stack))]))


def tied_22(rng, s):
    """22 x 22 frames, most of them uncertified; rounding a few to whole
    numbers gives them equal-cost optima."""
    cost = role_costs(rng, s, 22, 22, 1.5)
    cost[::15] = np.round(cost[::15])
    return cost


def test_batch_matches_hungarian_on_uncertified_22():
    cost = tied_22(np.random.default_rng(33), 150)
    b = assert_same_as_hungarian(cost)
    assert b.n_certified < 10 and b.n_tied >= 1
    assert not (b.tied & b.certified).any()


def test_batch_matches_hungarian_across_chunks(monkeypatch):
    monkeypatch.setattr(assignment, "_LOCKSTEP_FRAMES", 16)
    cost = tied_22(np.random.default_rng(34), 100)
    b = assert_same_as_hungarian(cost)
    assert len(cost) - b.n_certified > 3 * 16 and b.n_tied >= 1


def test_each_uncertified_frame_reaches_the_lockstep_once(monkeypatch):
    # tied frames are refined from their own chunk's solve, not solved again
    monkeypatch.setattr(assignment, "_LOCKSTEP_FRAMES", 16)
    chunks = []

    def counted(square):
        chunks.append(len(square))
        return _jv_lockstep(square)

    monkeypatch.setattr(assignment, "_jv_lockstep", counted)
    cost = np.random.default_rng(35).integers(0, 3, (120, 6, 6)).astype(float)
    b = assign_batch(cost)
    solved = len(cost) - b.n_certified
    assert b.n_tied > 3 * 16
    assert len(chunks) == math.ceil(solved / 16) and sum(chunks) == solved


def test_hungarian_on_a_certifiable_matrix_skips_the_lockstep(monkeypatch):
    def no_solve(square):
        raise AssertionError("certifiable matrix sent to the lockstep")

    monkeypatch.setattr(assignment, "_jv_lockstep", no_solve)
    rng = np.random.default_rng(36)
    for n, k in ((6, 6), (4, 9)):
        cost = role_costs(rng, 1, n, k, 0.1)[0]
        assert hungarian(cost).mapping.tolist() == list(range(n))


@pytest.mark.parametrize("cost", [
    role_costs(np.random.default_rng(37), 1, 3, 7, 2.0)[0],     # rectangular
    np.random.default_rng(38).integers(0, 3, (6, 6)).astype(float),   # ties
    np.array([[1.0 + 1e-10, 1.0], [1.0, 1.0 + 1e-10]]),         # near-tie
    np.array([[0.0, 0.0, 5.0], [3.0, 0.0, 0.0], [4.0, 4.0, 4.0]]),
], ids=["rectangular", "integer-ties", "near-tie", "tied"])
def test_hungarian_is_assign_batch_of_one_frame(cost):
    a = hungarian(cost)
    b = assign_batch(cost[None])
    assert np.array_equal(a.mapping, b.mappings[0])
    assert a.total_cost == b.totals[0]


def test_extra_tight_edges_with_a_unique_optimum_are_not_tied(monkeypatch):
    # both rows want column 0, so the frame is not certified; the duals
    # leave 3 tight edges, row 0's tight column 0 lying left of its own,
    # yet [1, 0] is the only optimum
    cost = np.array([[0.0, 0.0], [0.0, 1.0]])
    m, u, v = _jv_square(cost.tolist())
    tight = _tight(cost[None], np.array(u)[None], np.array(v)[None])
    assert tight.sum() > 2 and not _alternating_cycles(tight, np.array([m]), 2)
    b = assert_same_as_hungarian(cost[None])
    assert not b.certified[0] and not b.tied[0]

    def no_search(*args):
        raise AssertionError("unique tight optimum searched")

    monkeypatch.setattr(assignment, "_find_augmenting", no_search)
    assert hungarian(cost).mapping.tolist() == [1, 0]


def test_tied_frame_takes_the_lexicographic_optimum():
    # [0, 1, 2] and [1, 2, 0] both cost 4; row 2 can take any column
    cost = np.array([[[0.0, 0.0, 5.0], [3.0, 0.0, 0.0], [4.0, 4.0, 4.0]]])
    b = assert_same_as_hungarian(cost)
    assert b.tied[0] and b.mappings.tolist() == [[0, 1, 2]]


def test_cycles_among_padding_rows_alone_are_not_ties():
    # both agents want role 0 and the optimum [1, 0] is unique; the two
    # padding rows can swap roles 2 and 3, which changes no agent's role
    cost = np.array([[[0.0, 1.0, 9.0, 9.0], [0.0, 5.0, 9.0, 9.0]]])
    b = assert_same_as_hungarian(cost)
    assert b.mappings.tolist() == [[1, 0]]
    assert not b.certified[0] and not b.tied[0]
    square = padded(cost)
    mapping, u, v = _jv_lockstep(square)
    tight = _tight(square, u, v)
    assert _alternating_cycles(tight, mapping, 4)[0]
    assert not _alternating_cycles(tight, mapping, 2)[0]


# ---------------------------------------------------------------- sinkhorn

def test_sinkhorn_fixed_point():
    ds = np.array([[0.5, 0.5], [0.5, 0.5]])
    r = sinkhorn_normalize(ds)
    assert r.converged
    assert r.iterations == 0
    assert np.array_equal(r.matrix, ds)


def test_sinkhorn_two_by_two():
    r = sinkhorn_normalize([[1.0, 2.0], [2.0, 1.0]])
    assert r.converged
    assert np.abs(r.matrix.sum(axis=1) - 1.0).max() <= 1e-6
    assert np.abs(r.matrix.sum(axis=0) - 1.0).max() <= 1e-6


def test_sinkhorn_random_positive():
    rng = np.random.default_rng(6)
    for n in (2, 3, 5, 9, 14, 20):
        a = rng.uniform(0.1, 4.0, (n, n))
        r = sinkhorn_normalize(a)
        assert r.converged
        assert r.iterations <= 1000
        assert np.abs(r.matrix.sum(axis=1) - 1.0).max() <= 1e-6
        assert np.abs(r.matrix.sum(axis=0) - 1.0).max() <= 1e-6
        assert np.all(r.matrix >= 0.0)


def test_sinkhorn_preserves_support():
    a = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    r = sinkhorn_normalize(a)
    assert r.converged
    assert np.all(r.matrix[a == 0.0] == 0.0)
    assert np.all(r.matrix[a > 0.0] > 0.0)


def test_sinkhorn_zero_row_or_column():
    with pytest.raises(SinkhornConvergenceError):
        sinkhorn_normalize([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(SinkhornConvergenceError):
        sinkhorn_normalize([[0.0, 1.0], [0.0, 1.0]])


def test_sinkhorn_input_validation():
    with pytest.raises(ValueError):
        sinkhorn_normalize([[1.0, -0.5], [0.5, 1.0]])
    with pytest.raises(ValueError):
        sinkhorn_normalize(np.ones((2, 3)))


def test_sinkhorn_no_total_support_reported():
    # (0,0) lies on no positive diagonal, so the scaling cannot converge;
    # that is reported rather than raised
    r = sinkhorn_normalize([[1.0, 1.0], [1.0, 0.0]], max_iters=200)
    assert not r.converged
    assert r.iterations == 200
    assert r.matrix[1, 1] == 0.0
