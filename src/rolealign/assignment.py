"""Exact bipartite assignment and doubly-stochastic matrix normalization.

Role assignment solves one minimum-cost assignment per frame, and
``assign_batch`` takes all frames at once.  Ties between equal-cost optima
are broken deterministically in favour of the lexicographically smallest
row->column mapping.  A frame whose row minima are unique and fall in
distinct columns is certified: its row argmins are the unique optimum.  The
remaining frames are solved together by ``_jv_lockstep``, the
shortest-augmenting-path method of Jonker and Volgenant (1987), O(n^3) for an
n x n matrix, vectorized over frames.  Only the solved frames whose tight
edges admit another optimal mapping are tied; ``_lex_refine`` refines their
lockstep mapping lexicographically from the lockstep duals.  ``hungarian``,
the solver of one matrix, is ``assign_batch`` of one frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ``_lex_refine`` keeps a refined mapping only if it costs at most this much
# (relative to the matrix's largest magnitude) more than the solved optimum.
_LEX_SLACK = 1e-6
# A frame is certified only if every row's runner-up exceeds its minimum by
# more than this (relative to 1 + the frame's largest magnitude), ten times
# the slack above, so the refinement can never prefer another mapping.
_CERT_MARGIN = 10 * _LEX_SLACK
# ``assign_batch`` solves the frames the certificate leaves in chunks of this
# many, so its working set stays a few MB when a full match leaves tens of
# thousands of frames uncertified.
_LOCKSTEP_FRAMES = 1024


class SinkhornConvergenceError(RuntimeError):
    """Raised when a matrix has no doubly-stochastic scaling (zero row/col)."""


@dataclass(frozen=True)
class Assignment:
    """An injective row->column mapping and its total cost."""

    mapping: np.ndarray
    total_cost: float

    def __post_init__(self):
        m = np.array(self.mapping, dtype=int)
        m.flags.writeable = False
        object.__setattr__(self, "mapping", m)
        object.__setattr__(self, "total_cost", float(self.total_cost))


def _lockstep_search(cost, frames, u, v, matched, way, minv, j0):
    """The turns after the first of one row's search in ``_jv_lockstep``,
    for the frames ``frames`` of a cost stack at once.

    The other arrays hold only those frames, laid out as in ``_jv_lockstep``
    (1-based, column 0 the virtual start), and are updated in place; every
    frame has had its first turn, from column 0 to column ``j0``, and that
    column is taken.  Each pass does one more turn in every frame still
    searching.  A frame that reaches a free column stops there, its ``j0``
    pointing at it, and the others go on with compacted copies of their
    arrays, so no pass computes anything for a frame that has stopped.
    """
    used = np.zeros(minv.shape, dtype=bool)
    used[:, 0] = True
    tree = np.zeros(minv.shape, dtype=bool)
    tree[np.arange(len(j0)), matched[:, 0]] = True
    work = [u, v, matched, way, minv, used, tree, j0]
    idx = None   # where the working copies sit in the arrays passed in
    while True:
        uw, vw, mw, ww, minv, used, tree, jw = work
        fr = np.arange(len(jw))
        rows = mw[fr, jw]
        used[fr, jw] = True
        tree[fr, rows] = True
        cur = (cost[frames, rows - 1] - uw[fr, rows][:, None]) - vw[:, 1:]
        better = (cur < minv[:, 1:]) & ~used[:, 1:]
        np.copyto(minv[:, 1:], cur, where=better)
        np.copyto(ww[:, 1:], jw[:, None], where=better)
        unused = np.where(used[:, 1:], np.inf, minv[:, 1:])
        j1 = unused.argmin(axis=1)   # the first minimum, as the scalar scan
        delta = unused[fr, j1][:, None]
        np.add(uw, delta, out=uw, where=tree)
        np.subtract(vw, delta, out=vw, where=used)
        np.subtract(minv, delta, out=minv, where=~used)
        jw[:] = j1 + 1
        searching = mw[fr, jw] != 0
        if searching.all():
            continue
        if idx is not None:
            u[idx], v[idx], way[idx], j0[idx] = uw, vw, ww, jw
        keep = np.flatnonzero(searching)
        if not len(keep):
            return
        idx = keep if idx is None else idx[keep]
        frames = frames[keep]
        work = [x[keep] for x in work]


def _jv_lockstep(cost):
    """Shortest-augmenting-path solve of every matrix of an (F, n, n) stack
    at once; returns the (F, n) row->column mappings and row and column duals.

    This is the classic 1-indexed one-matrix formulation, column 0 the
    virtual start column, with rows placed in its order, one row of every
    frame per outer step.  The first turn of a row's search is taken by every
    frame together; the few frames whose turn lands on a taken column
    continue in ``_lockstep_search``.  Each element sees the one-matrix
    code's IEEE operations in its order (the reduced cost
    ``(c - u[i0]) - v[j]``, strict ``<`` updates of ``minv`` and ``way``,
    ``delta`` from the first minimum over unused columns, the same dual
    updates and augmentation walk), so the mappings and duals are that
    code's, bit for bit; the tests keep it as the reference.
    """
    f, n, _ = cost.shape
    fr = np.arange(f)
    u = np.zeros((f, n + 1))
    v = np.zeros((f, n + 1))
    matched = np.zeros((f, n + 1), dtype=np.intp)
    way = np.zeros((f, n + 1), dtype=np.intp)
    for i in range(1, n + 1):
        matched[:, 0] = i
        # first turn: only row i and the virtual column 0 are in the tree
        minv = np.full((f, n + 1), np.inf)
        cur = (cost[:, i - 1] - u[:, i, None]) - v[:, 1:]
        better = cur < minv[:, 1:]
        np.copyto(minv[:, 1:], cur, where=better)
        np.copyto(way[:, 1:], 0, where=better)
        j0 = minv[:, 1:].argmin(axis=1) + 1
        delta = minv[fr, j0]
        u[:, i] += delta
        v[:, 0] -= delta
        minv[:, 1:] -= delta[:, None]
        a = np.flatnonzero(matched[fr, j0])
        if len(a):
            sub = [x[a] for x in (u, v, matched, way, minv, j0)]
            _lockstep_search(cost, a, *sub)
            u[a], v[a], way[a], j0[a] = sub[0], sub[1], sub[3], sub[5]
        while j0.any():   # way[:, 0] stays 0, so finished walks stand still
            j1 = way[fr, j0]
            matched[fr, j0] = matched[fr, j1]
            j0 = j1
    mapping = np.empty((f, n), dtype=np.intp)
    mapping[fr[:, None], matched[:, 1:] - 1] = np.arange(n)
    return mapping, u[:, 1:], v[:, 1:]


def _tight(cost, u, v):
    """The zero-reduced-cost edges of an (F, n, n) stack under duals u, v,
    up to 1e-9 of each matrix's largest magnitude (at least 1)."""
    scale = np.maximum(1.0, np.maximum(cost.max(axis=(1, 2)),
                                       -cost.min(axis=(1, 2))))
    reduced = cost - u[:, :, None]
    reduced -= v[:, None, :]
    return reduced <= (1e-9 * scale)[:, None, None]


def _alternating_cycles(tight, mapping, n_real):
    """Which frames of an (F, n, n) ``tight`` stack hold a tight perfect
    matching that gives one of the first ``n_real`` rows another column than
    ``mapping`` does.

    Two perfect matchings differ by alternating cycles, so such a matching
    exists exactly when a cycle of the digraph "row i can take the column of
    row i' along a tight edge" passes through one of those rows.  Rows with
    no way out are peeled off until only cycles and the paths into them are
    left; when padding rows (those from ``n_real`` on) are present, a closure
    of what is left tells which rows lie on a cycle.
    """
    f, n, _ = tight.shape
    owner = np.empty_like(mapping)
    owner[np.arange(f)[:, None], mapping] = np.arange(n)
    fs, rows, cols = np.nonzero(tight)
    src = fs * n + rows
    dst = fs * n + owner[fs, cols]
    keep = src != dst
    src, dst = src[keep], dst[keep]
    while True:
        has_out = np.zeros(f * n, dtype=bool)
        has_out[src] = True
        keep = has_out[dst]
        if keep.all():
            break
        src, dst = src[keep], dst[keep]
    cycles = np.zeros(f, dtype=bool)
    cycles[src // n] = True
    if n_real < n and len(src):
        frames, local = np.unique(src // n, return_inverse=True)
        reach = np.zeros((len(frames), n, n))
        reach[local, src % n, dst % n] = 1.0
        span = 1
        while span < n:   # paths of up to 2 * span edges
            reach = np.minimum(reach + reach @ reach, 1.0)
            span *= 2
        on_cycle = reach.diagonal(axis1=1, axis2=2)[:, :n_real]
        cycles[frames] = on_cycle.any(axis=1)
    return cycles


def _find_augmenting(row, adj, row_to_col, col_to_row, visited, blocked):
    for j in adj[row]:
        if blocked[j] or visited[j]:
            continue
        visited[j] = True
        occupant = col_to_row[j]
        if occupant < 0 or _find_augmenting(occupant, adj, row_to_col,
                                            col_to_row, visited, blocked):
            row_to_col[row] = j
            col_to_row[j] = row
            return True
    return False


def _lex_refine(cost, mapping, tight, n_real):
    """Rewrite ``mapping`` into the lexicographically smallest optimal one.

    ``cost`` is a padded n x n frame, ``mapping`` its solved row->column
    mapping and ``tight`` its tight subgraph (zero reduced cost edges under
    the solve's duals, from ``_tight``): by complementary slackness every
    perfect matching of tight edges is optimal.  It is called only for frames
    where ``_alternating_cycles`` found another such matching.  Rows are fixed
    in order, each to the smallest column that still leaves the remaining
    rows matchable.
    """
    n = len(cost)
    scale = max(1.0, float(np.abs(cost).max()))
    adj = [np.nonzero(tight[i])[0].tolist() for i in range(n)]
    row_to_col = mapping.tolist()
    col_to_row = [-1] * n
    for i, j in enumerate(row_to_col):
        col_to_row[j] = i
    blocked = [False] * n
    for i in range(n_real):
        current = row_to_col[i]
        for j in adj[i]:
            if blocked[j]:
                continue
            if j == current:
                break
            if j > current:
                break
            displaced = col_to_row[j]
            saved_rows = list(row_to_col)
            saved_cols = list(col_to_row)
            row_to_col[i] = j
            col_to_row[j] = i
            col_to_row[current] = -1   # the vacated column is free again
            row_to_col[displaced] = -1
            blocked[j] = True
            if _find_augmenting(displaced, adj, row_to_col, col_to_row,
                                [False] * n, blocked):
                blocked[j] = False
                break
            blocked[j] = False
            row_to_col[:] = saved_rows
            col_to_row[:] = saved_cols
        blocked[row_to_col[i]] = True
    refined_cost = sum(cost[i][row_to_col[i]] for i in range(n))
    original_cost = sum(cost[i][mapping[i]] for i in range(n))
    if refined_cost > original_cost + _LEX_SLACK * scale:
        return mapping  # tolerance artifact; keep the provably optimal result
    return row_to_col


@dataclass(frozen=True)
class BatchAssignment:
    """Per-frame optimal mappings of an (S, N, K) cost tensor.

    ``mappings[s]`` is frame s's optimal mapping, the lexicographically
    smallest among equal-cost optima, and ``totals[s]`` its total cost.
    ``certified[s]`` is True when frame s was settled by its row argmins
    alone; the other frames were solved in lockstep.  ``tied[s]`` marks the
    solved frames with more than one optimum, whose lockstep mapping was
    refined lexicographically from the lockstep duals.
    """

    mappings: np.ndarray
    totals: np.ndarray
    certified: np.ndarray
    tied: np.ndarray

    @property
    def n_certified(self):
        return int(self.certified.sum())

    @property
    def n_tied(self):
        return int(self.tied.sum())


def assign_batch(cost) -> BatchAssignment:
    """Exact minimum-cost assignment of every frame of an (S, N, K) cost
    tensor with finite entries, N <= K.

    A frame is certified when every row's minimum undercuts the row's
    runner-up by a margin and the row argmins are pairwise distinct.  Any
    other injective mapping then pays at least that margin more, so the
    argmin mapping is the unique optimum and the lexicographic rule has
    nothing to choose between.  The uncertified frames (ties, near-ties,
    two rows wanting one column) are padded to K x K with rows of the
    frame's max entry + 1, which every mapping pays alike and which are
    dropped from the result, and solved together by ``_jv_lockstep``.  A
    solved frame whose tight edges admit no other perfect matching keeps
    that mapping, which the lexicographic refinement would return unchanged;
    only the tied rest go to ``_lex_refine``, with their lockstep mapping
    and tight edges, so no frame is solved twice.  Each frame's result
    depends on that frame alone.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 3 or c.shape[1] < 1:
        raise ValueError("cost must be an (S, N, K) tensor with N >= 1")
    s, n, k = c.shape
    if n > k:
        raise ValueError(f"cost matrix must have n <= m, got {n}x{k}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix contains non-finite entries")
    mappings = c.argmin(axis=2)
    certified = np.ones(s, dtype=bool)
    if k > 1:
        # each row's minimum, then its runner-up: the least entry left once
        # the minimum is replaced by inf (in a copy, not the caller's array)
        at_min = mappings[:, :, None]
        low = np.take_along_axis(c, at_min, axis=2)[:, :, 0]
        rest = c.copy()
        np.put_along_axis(rest, at_min, np.inf, axis=2)
        scale = np.maximum(c.max(axis=(1, 2)), -low.min(axis=1))   # max |c|
        margin = _CERT_MARGIN * (1.0 + scale)
        certified &= (rest.min(axis=2) - low > margin[:, None]).all(axis=1)
        cols = np.sort(mappings, axis=1)
        certified &= (cols[:, 1:] != cols[:, :-1]).all(axis=1)
    tied = np.zeros(s, dtype=bool)
    solve = np.flatnonzero(~certified)
    for start in range(0, len(solve), _LOCKSTEP_FRAMES):
        frames = solve[start:start + _LOCKSTEP_FRAMES]
        square = c[frames]
        if n < k:
            sentinel = square.max(axis=(1, 2)) + 1.0
            square = np.concatenate(
                [square, np.broadcast_to(sentinel[:, None, None],
                                         (len(frames), k - n, k))], axis=1)
        solved, u, v = _jv_lockstep(square)
        tight = _tight(square, u, v)
        cycles = _alternating_cycles(tight, solved, n)
        for f in np.flatnonzero(cycles):
            solved[f] = _lex_refine(square[f], solved[f], tight[f], n)
        mappings[frames] = solved[:, :n]
        tied[frames] = cycles
    totals = np.take_along_axis(c, mappings[:, :, None], axis=2)[:, :, 0] \
        .sum(axis=1)
    return BatchAssignment(mappings=mappings, totals=totals,
                           certified=certified, tied=tied)


def hungarian(cost) -> Assignment:
    """Minimum-cost injective assignment of rows to columns.

    ``cost`` is an n x m array-like with n <= m and finite entries.  This is
    ``assign_batch`` of one frame: the assignment is exactly optimal, and its
    mapping is the lexicographically smallest among equal-cost optima.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or c.shape[0] < 1:
        raise ValueError("cost must be a 2-D matrix with at least one row")
    batch = assign_batch(c[None])
    return Assignment(mapping=batch.mappings[0], total_cost=batch.totals[0])


@dataclass(frozen=True)
class SinkhornResult:
    matrix: np.ndarray
    iterations: int
    converged: bool


def sinkhorn_normalize(q, max_iters: int = 1000, tol: float = 1e-6) -> SinkhornResult:
    """Scale a non-negative square matrix towards doubly stochastic form.

    Alternates row and column normalization until every row and column sum is
    within ``tol`` of 1 or ``max_iters`` is reached (reported via
    ``converged``).  A zero row or column makes the target unreachable and
    raises ``SinkhornConvergenceError``; the zero pattern of the input is
    always preserved.
    """
    a = np.array(q, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    if np.any(a < 0):
        raise ValueError("matrix entries must be non-negative")
    if np.any(a.sum(axis=1) == 0.0) or np.any(a.sum(axis=0) == 0.0):
        raise SinkhornConvergenceError("matrix has a zero row or column")

    def max_deviation(x):
        return max(np.abs(x.sum(axis=1) - 1.0).max(),
                   np.abs(x.sum(axis=0) - 1.0).max())

    for it in range(max_iters):
        if max_deviation(a) <= tol:
            return SinkhornResult(matrix=a, iterations=it, converged=True)
        a = a / a.sum(axis=1, keepdims=True)
        a = a / a.sum(axis=0, keepdims=True)
    return SinkhornResult(matrix=a, iterations=max_iters,
                          converged=max_deviation(a) <= tol)
