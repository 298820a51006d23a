"""Drive the command-line interface end to end on generated data.

Writes a two-team tracking CSV, then runs discover, compare, and
context through the same entry point the installed `rolealign` command
uses, and shows what lands on disk.
"""

import json
import tempfile
from dataclasses import replace
from pathlib import Path

from rolealign import (concat_datasets, generate_formation,
                       sample_dataset, write_tracking_csv)
from rolealign.cli import main

work = Path(tempfile.mkdtemp(prefix="rolealign_demo_"))

home_t = generate_formation(8, separation=3.0, seed=60)
away_t = generate_formation(8, separation=3.0, seed=61)
home, _ = sample_dataset(home_t, 150, event_rate=0.3, seed=60,
                         team="home", period=1)
away, _ = sample_dataset(away_t, 150, event_rate=0.3, seed=61,
                         team="away", period=1)
away = replace(away, frame_id=away.frame_id + 150)
csv_path = work / "match.csv"
write_tracking_csv(concat_datasets([home, away]), csv_path)
print(f"wrote {csv_path}")

# one formation over everything the file contains
out = work / "discover"
main(["discover", "--input", str(csv_path), "--out", str(out),
      "--k", "8", "--seed", "0"])
print(f"\ndiscover -> {sorted(p.name for p in out.iterdir())}")

# soft vs hard on the home side only
out = work / "compare"
main(["compare", "--input", str(csv_path), "--out", str(out),
      "--k", "8", "--filter", "team=home"])
report = json.loads((out / "report.json").read_text())
print(f"compare -> delta avg loglik "
      f"{report['delta_avg_loglik']:.3e}, files "
      f"{sorted(p.name for p in out.iterdir())}")

# one template per (team, game, period) context
out = work / "context"
main(["context", "--input", str(csv_path), "--out", str(out), "--k", "8"])
print(f"context -> {sorted(p.name for p in out.iterdir())}")
