"""Per-frame role assignment and swap recovery.

Shows the two assignment primitives directly (Hungarian on a small cost
matrix, Sinkhorn normalization of a positive matrix), then runs the full
pipeline on swap-heavy data and scores how often the per-frame
permutations match the generator's ground truth.
"""

import numpy as np

from rolealign import (generate_formation, hungarian, run_pipeline,
                       recovery_score, sample_dataset, sinkhorn_normalize)

# --- exact matching on a toy cost matrix
cost = np.array([[4.0, 1.0, 3.0],
                 [2.0, 0.0, 5.0],
                 [3.0, 2.0, 2.0]])
a = hungarian(cost)
print(f"hungarian mapping {a.mapping.tolist()}, total cost {a.total_cost}")

# --- soft matching: drive a positive matrix to doubly stochastic form
rng = np.random.default_rng(0)
sk = sinkhorn_normalize(rng.uniform(0.5, 2.0, (5, 5)))
print(f"sinkhorn: {sk.iterations} sweeps, "
      f"row sums {sk.matrix.sum(axis=1).round(9).tolist()}")

# --- end to end: heavy swapping, then recover who played which role
truth = generate_formation(10, separation=3.0, seed=21)
ds, gt = sample_dataset(truth, 600, swap_rate=0.1, swap_run_mean=8.0,
                        seed=21)
res = run_pipeline(ds)

base = np.arange(ds.n_agents)
swapped = int((gt.true_maps != base).any(axis=1).sum())
print(f"\n{swapped}/{ds.n_frames} frames have at least one swapped pair")
print(f"recovery score: {recovery_score(res.aligned, gt):.4f}")

# one concrete frame with a swap in progress: agent order vs role order
s = int(np.argmax((gt.true_maps != base).any(axis=1)))
fid = res.aligned.frame_id[s]
print(f"frame {fid} assignment: {res.aligned.mappings[s].tolist()}")
print(f"frame {fid} truth:      "
      f"{gt.true_maps[s].tolist()}")
