"""Why role-ordered rows compress better than fixed player order.

Builds a two-formation corpus with heavy role churn, aligns each half
against the template learned on the union, and compares clustering
distortion (WCE) and PCA variance concentration between the role-aligned
matrix and the identity-ordered one.
"""

from dataclasses import replace

import numpy as np

from rolealign import (concat_datasets, generate_formation,
                       pca_variance_explained, run_pipeline, sample_dataset,
                       wce_sweep)

K = 10
S = 400

ta = generate_formation(K, separation=3.0, seed=100)
tb = generate_formation(K, separation=3.0, seed=101)
da, _ = sample_dataset(ta, S, swap_rate=0.5, swap_run_mean=2.0, seed=100)
db, _ = sample_dataset(tb, S, swap_rate=0.5, swap_run_mean=2.0, seed=101)
db = replace(db, frame_id=db.frame_id + S)

# shared template from the union, then per-half runs aligned to it
g = run_pipeline(concat_datasets([da, db])).template
ra = run_pipeline(da, parent=g)
rb = run_pipeline(db, parent=g)

aligned = np.vstack([ra.aligned.matrix, rb.aligned.matrix])
identity = np.vstack([ra.dataset.positions.reshape(S, -1),
                      rb.dataset.positions.reshape(S, -1)])

print("k    wce aligned   wce identity")
for row_a, row_i in zip(wce_sweep(aligned, range(2, 11)),
                        wce_sweep(identity, range(2, 11))):
    print(f"{row_a['k']:2d}   {row_a['wce']:11.3f}   {row_i['wce']:12.3f}")

cum_a = np.cumsum(pca_variance_explained(aligned))
cum_i = np.cumsum(pca_variance_explained(identity))
print("\ncomponent   cumulative aligned   cumulative identity")
for j in range(5):
    print(f"{j + 1:9d}   {cum_a[j]:18.3f}   {cum_i[j]:19.3f}")

print("\nsame points, same frames; only the column convention differs")
