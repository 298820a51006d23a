"""Reference loops that more than one test file checks the package
against, and a check that no forked worker is left behind."""

import os

import numpy as np


def no_child_process():
    """Whether every child process of this one has been waited for (a
    zombie is reaped here, and counts as left behind)."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def reference_kmeans(pts, init, tol=1e-6, max_iters=1000, reseeds=None):
    """kmeans as it was with one broadcast distance tensor per iteration.
    The 0-based iteration of each empty-cluster reseed is appended to the
    list ``reseeds`` when one is given."""
    centers = np.array(init, dtype=float)
    k = centers.shape[0]
    rows = np.arange(len(pts))
    inertia = []
    for it in range(max_iters):
        d2 = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        counts = np.bincount(labels, minlength=k)
        for empty in range(k):
            if counts[empty]:
                continue
            if reseeds is not None:
                reseeds.append(it)
            far = int(np.argmax(np.where(counts[labels] > 1, d2[rows, labels],
                                         -np.inf)))
            centers[empty] = pts[far]
            counts[labels[far]] -= 1
            counts[empty] = 1
            labels[far] = empty
            d2[:, empty] = ((pts - centers[empty]) ** 2).sum(axis=1)
        inertia.append(float(d2[rows, labels].sum()))
        sums = np.stack([np.bincount(labels, weights=pts[:, c], minlength=k)
                         for c in range(pts.shape[1])], axis=1)
        new_centers = sums / counts[:, None]
        movement = float(np.sqrt(((new_centers - centers) ** 2)
                                 .sum(axis=1)).max())
        centers = new_centers
        if movement < tol:
            break
    return centers, labels, tuple(inertia)
