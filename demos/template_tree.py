"""Split a mixed corpus into per-formation leaf templates.

Two different generators feed one dataset; the tree learner should
notice, split once, and fit a clean template per side.  A single
generator should leave the root as the only node.
"""

from dataclasses import replace

from rolealign import (DiscoveryConfig, TreeStop,
                       bhattacharyya_distance, align_template,
                       concat_datasets, generate_formation, learn_tree,
                       sample_dataset)
from rolealign.discovery import Formation

K = 6
stop = TreeStop(min_node=60, k_candidates=(2, 3))
cfg = DiscoveryConfig(k=K)

ta = generate_formation(K, separation=3.0, seed=110)
tb = generate_formation(K, separation=3.0, seed=111)
da, _ = sample_dataset(ta, 300, seed=110)
db, _ = sample_dataset(tb, 300, seed=112)
db = replace(db, frame_id=db.frame_id + 300)

tree = learn_tree(concat_datasets([da, db]), stop=stop, cfg=cfg)
print(f"mixture: depth {tree.depth}, {len(tree.leaves())} leaves")

for i, leaf in enumerate(tree.leaves()):
    rows = len(leaf.row_indices)
    # which generator does this leaf reproduce?
    best = None
    for name, gen in (("A", ta), ("B", tb)):
        at = align_template(Formation(components=leaf.template.roles), gen)
        b = max(bhattacharyya_distance(p, q)
                for p, q in zip(at.roles, gen.roles))
        if best is None or b < best[1]:
            best = (name, b)
    print(f"  leaf {i}: {rows} frames, closest generator {best[0]} "
          f"(max per-role distance {best[1]:.4f}), wce {leaf.wce:.3f}")

# control: one generator only, no split expected
tc = generate_formation(K, separation=3.0, seed=113)
dc, _ = sample_dataset(tc, 600, seed=113)
single = learn_tree(dc, stop=stop, cfg=cfg)
print(f"single formation: depth {single.depth} "
      f"(root wce {single.root.wce:.3f})")
