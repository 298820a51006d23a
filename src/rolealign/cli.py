"""Batch command-line interface.

Four subcommands: discover (end-to-end formation learning on one input),
compare (soft pipeline against the hard-assignment baseline, with
compression sweeps), bench (per-iteration timing of both methods across
agent counts), and context (per-metadata-slice templates aligned to a
shared global one).  Every command writes a manifest.json capturing config,
input hash, seed and timings, enough to reproduce the run.

Exit codes: 0 success, 1 internal error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import io
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .alignment import Template, align_template, run_pipeline
from .baseline import hard_assignment_em, player_identity_template
from .clustering import pca_variance_explained, wce_sweep
from .discovery import DiscoveryConfig, discover_formation, em_step_full
from .geometry import kl_divergence, role_area, split_by_label
from .ingest import (EmptySelectionError, ParseError, center_normalize,
                     filter_key_frames, filter_metadata, flatten,
                     normalize_attack_direction, parse_tracking, write_csv,
                     write_json)
from .parallel import run_tasks
from .synth import generate_formation, sample_dataset
from .version import __version__


@dataclass
class RunManifest:
    command: str
    version: str
    config: dict
    input: str | None
    input_sha256: str | None
    seed: int
    timings: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    def save(self, path):
        write_json(path, asdict(self))


def _parse_filter(expr):
    """EXPR like "team=home;period=1" with keys team, game, period."""
    out = {}
    for part in expr.replace(",", ";").split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad filter clause {part!r}, expected key=value")
        key, value = part.split("=", 1)
        key = key.strip()
        if key not in ("team", "game", "period"):
            raise ValueError(f"unknown filter key {key!r}")
        try:
            out[key] = int(value) if key == "period" else value.strip()
        except ValueError:
            raise ValueError(f"filter period must be an integer, got "
                             f"{value!r}") from None
    if not out:
        raise ValueError(f"empty filter expression {expr!r}")
    return out


def _load_and_prepare(args):
    """Parse input, apply the metadata filter, and prepare the frames once
    (attack direction, then centering), the dataset every fit of the
    command uses as it comes; with the SHA-256 of the bytes parsed, read
    once."""
    data = Path(args.input).read_bytes()
    ds = parse_tracking(io.BytesIO(data), args.format)
    if getattr(args, "filter", None):
        clauses = _parse_filter(args.filter)
        try:
            ds = filter_metadata(ds, **clauses)
        except EmptySelectionError:
            raise EmptySelectionError(
                f"no frames match filter {args.filter!r}") from None
    return center_normalize(normalize_attack_direction(ds)), \
        hashlib.sha256(data).hexdigest()


def _config_dict(args, cfg=None):
    d = {k: v for k, v in vars(args).items() if k != "func"}
    if cfg is not None:
        d["discovery"] = asdict(cfg)
    return d


def _make_config(args, n_agents):
    k = args.k if args.k is not None else n_agents
    return DiscoveryConfig(k=k, eig_ratio_bound=args.eig_ratio,
                           em_tol=args.em_tol, max_iters=args.max_iters,
                           seed=args.seed, init_mode=args.init)


def cmd_discover(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    t0 = time.perf_counter()
    full, digest = _load_and_prepare(args)
    timings["parse"] = time.perf_counter() - t0

    training = filter_key_frames(full) if args.key_frames_only else full
    cfg = _make_config(args, full.n_agents)
    t1 = time.perf_counter()
    formation, trace = discover_formation(training, cfg)
    timings["discover"] = time.perf_counter() - t1

    outputs = []
    write_json(out / "formation.json", formation.to_dict())
    outputs.append("formation.json")
    if args.parent_template:
        parent = Template.load(args.parent_template)
        template = align_template(formation, parent)
        template.save(out / "template.json")
        outputs.append("template.json")
    trace.to_csv(out / "emtrace.csv")
    outputs.append("emtrace.csv")

    warnings_list = []
    if not trace.converged:
        warnings_list.append("EM stopped at max_iters without reaching the "
                             "gain threshold")
    manifest = RunManifest(
        command="discover", version=__version__,
        config=_config_dict(args, cfg), input=args.input,
        input_sha256=digest, seed=args.seed, timings=timings,
        warnings=warnings_list, outputs=outputs,
        stats={"total_rows": full.n_frames * full.n_agents,
               "training_rows": training.n_frames * training.n_agents,
               "em_iterations": len(trace.rows) - 1,
               "converged": trace.converged, "kmeans": trace.kmeans})
    manifest.save(out / "manifest.json")
    return 0


def _certificate(frames, certified, tied):
    """Frames settled by the row-argmin certificate vs solved in lockstep,
    and the solved frames with tied optima, refined lexicographically from
    the lockstep duals."""
    return {"certified": certified, "solved": frames - certified,
            "tied": tied}


def _search_totals(sweep):
    """Rows of a WCE sweep's nearest-center searches, how many of them the
    certificate left to the exact search, and the rows K-means settled
    without a search."""
    return {"rows": sum(r["searched"] for r in sweep),
            "fallback": sum(r["fallback"] for r in sweep),
            "settled": sum(r["settled"] for r in sweep)}


def _sweep_ks(frames):
    """The cluster counts of compare's WCE sweeps over ``frames`` rows."""
    return list(range(2, min(21, frames)))


def _soft_branch(full, cfg, parent, key_frames_only):
    """The soft pipeline and the aligned matrix's WCE sweep and PCA, and
    their time."""
    t = time.perf_counter()
    res = run_pipeline(full, cfg, parent=parent,
                       key_frames_only=key_frames_only)
    sweep = wce_sweep(res.aligned.matrix, _sweep_ks(full.n_frames))
    pca = pca_variance_explained(res.aligned.matrix)
    return res, sweep, pca, time.perf_counter() - t


def _hard_branch(full, max_iters):
    """The hard baseline from the player-identity template, and the
    identity matrix's WCE sweep and PCA, on the prepared dataset the soft
    branch fits, and their time; the baseline's mappings are dropped, so a
    worker sends back only what ``cmd_compare`` reads."""
    t = time.perf_counter()
    formation, _, trace = hard_assignment_em(
        full, player_identity_template(full), max_iters=max_iters)
    identity = full.positions.reshape(full.n_frames, -1)
    sweep = wce_sweep(identity, _sweep_ks(full.n_frames))
    pca = pca_variance_explained(identity)
    return formation, trace, sweep, pca, time.perf_counter() - t


def cmd_compare(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    t0 = time.perf_counter()
    full, digest = _load_and_prepare(args)
    timings["parse"] = time.perf_counter() - t0

    cfg = _make_config(args, full.n_agents)
    if cfg.k != full.n_agents:
        # fewer roles than agents cannot be assigned one agent each, and
        # more leave NaN slots, which the WCE sweep and the PCA cannot take
        raise ValueError(f"compare needs --k equal to the agent count: --k "
                         f"{cfg.k} but {full.n_agents} agents per frame")
    if full.n_frames < 2:
        # the PCA of one row is undefined
        raise ValueError(f"compare needs at least two frames, the input "
                         f"has {full.n_frames}")
    parent = Template.load(args.parent_template) if args.parent_template \
        else None
    # the two branches share only the parsed input: the soft one runs here
    # while a forked worker runs the hard one
    t1 = time.perf_counter()
    soft, hard = run_tasks([
        functools.partial(_soft_branch, full, cfg, parent,
                          args.key_frames_only),
        functools.partial(_hard_branch, full, args.max_iters)])
    timings["fits"] = time.perf_counter() - t1
    res, sweep_aligned, pca_aligned, soft_s = soft
    hard_formation, hard_trace, sweep_identity, pca_identity, hard_s = hard

    t2 = time.perf_counter()
    hard_ll = hard_trace.logliks[-1]
    hard_as_template = align_template(hard_formation, res.template)
    per_role_kl = [kl_divergence(a, b) for a, b in
                   zip(res.template.roles, hard_as_template.roles)]
    per_role_area = [role_area(a) - role_area(b) for a, b in
                     zip(res.template.roles, hard_as_template.roles)]
    s = full.n_frames

    report = {
        "soft_avg_loglik": res.avg_loglik,
        "hard_avg_loglik": hard_ll,
        "delta_avg_loglik": res.avg_loglik - hard_ll,
        "per_role_kl": per_role_kl,
        "per_role_area_diff": per_role_area,
        "wce": {"ks": [r["k"] for r in sweep_aligned],
                "aligned": [r["wce"] for r in sweep_aligned],
                "identity": [r["wce"] for r in sweep_identity]},
        "pca": {"aligned": pca_aligned.tolist(),
                "identity": pca_identity.tolist()},
        "soft_converged": res.trace.converged,
        "hard_converged": hard_trace.converged,
        "hard_oscillated": hard_trace.oscillated,
    }
    write_json(out / "report.json", report)
    write_csv(out / "wce_sweep.csv", ("k", "wce_aligned", "wce_identity"),
              ((ra["k"], ra["wce"], ri["wce"])
               for ra, ri in zip(sweep_aligned, sweep_identity)))
    write_csv(out / "pca.csv",
              ("component", "aligned_fraction", "identity_fraction"),
              zip(range(len(pca_aligned)), pca_aligned, pca_identity))
    res.trace.to_csv(out / "emtrace.csv")
    hard_trace.to_csv(out / "hard_trace.csv")
    timings["write"] = time.perf_counter() - t2

    manifest = RunManifest(
        command="compare", version=__version__,
        config=_config_dict(args, cfg), input=args.input,
        input_sha256=digest, seed=args.seed, timings=timings,
        outputs=["report.json", "wce_sweep.csv", "pca.csv", "emtrace.csv",
                 "hard_trace.csv"],
        stats={"delta_avg_loglik": report["delta_avg_loglik"],
               "soft_assignment": _certificate(s, res.aligned.n_certified,
                                               res.aligned.n_tied),
               "hard_assignment": [_certificate(s, c, t) for c, t in
                                   zip(hard_trace.certified, hard_trace.tied)],
               "nearest_centers": {"aligned": _search_totals(sweep_aligned),
                                   "identity": _search_totals(
                                       sweep_identity)},
               "soft": {"fit_s": soft_s}, "hard": {"fit_s": hard_s}})
    manifest.save(out / "manifest.json")
    return 0


def cmd_bench(args) -> int:
    ns = []
    for entry in filter(str.strip, args.n_range.split(",")):
        try:
            ns.append(int(entry))
        except ValueError:
            raise ValueError(f"--n-range entries must be integers, got "
                             f"{entry!r} in {args.n_range!r}") from None
    # the summary fits log-log slopes, which need two distinct N
    if len(set(ns)) < 2:
        raise ValueError(f"--n-range needs at least two distinct agent "
                         f"counts, got {args.n_range!r}")
    if min(ns) < 2:
        raise ValueError(f"--n-range needs agent counts of at least 2, "
                         f"got {min(ns)}")
    for flag, value in (("--s", args.s), ("--reps", args.reps)):
        if value < 1:
            raise ValueError(f"{flag} must be at least 1, got {value}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    rows = []
    for n in ns:
        tmpl = generate_formation(n, separation=3.0, seed=args.seed)
        ds, _ = sample_dataset(tmpl, args.s, swap_rate=0.05,
                               seed=args.seed + n)
        pts = flatten(ds)
        warm_cfg = DiscoveryConfig(k=n, max_iters=3, seed=args.seed)
        state, _ = discover_formation(ds, warm_cfg)
        init = player_identity_template(ds)
        # warm both paths once so lazy numpy setup is off the clock;
        # max_iters=0 is exactly one assign-and-refit pass of the baseline
        em_step_full(state, pts)
        hard_assignment_em(ds, init, max_iters=0)
        batch = 3  # soft iterations are sub-ms; time them in small batches
        soft_times = []
        hard_times = []
        for _ in range(args.reps):
            t = time.perf_counter()
            for _ in range(batch):
                em_step_full(state, pts)
            soft_times.append((time.perf_counter() - t) / batch)
            t = time.perf_counter()
            hard_assignment_em(ds, init, max_iters=0)
            hard_times.append(time.perf_counter() - t)
        # min over reps: scheduler noise only ever adds time
        rows.append({"n": n, "soft": float(min(soft_times)),
                     "hard": float(min(hard_times))})

    write_csv(out / "bench.csv",
              ("n", "soft_seconds", "hard_seconds", "ratio"),
              ((r["n"], r["soft"], r["hard"], r["hard"] / r["soft"])
               for r in rows))

    log_n = np.log([r["n"] for r in rows])
    slope_soft = float(np.polyfit(log_n, np.log([r["soft"] for r in rows]), 1)[0])
    slope_hard = float(np.polyfit(log_n, np.log([r["hard"] for r in rows]), 1)[0])
    ratio_at_10 = next((r["hard"] / r["soft"] for r in rows if r["n"] == 10),
                       None)
    summary = {"slope_soft": slope_soft, "slope_hard": slope_hard,
               "slope_difference": slope_hard - slope_soft,
               "ratio_at_10": ratio_at_10}
    write_json(out / "summary.json", summary)

    manifest = RunManifest(
        command="bench", version=__version__, config=_config_dict(args),
        input=None, input_sha256=None, seed=args.seed,
        outputs=["bench.csv", "summary.json"], stats=summary)
    manifest.save(out / "manifest.json")
    return 0


def _slug(value):
    text = str(value) if str(value) else "any"
    return "".join(ch if ch.isalnum() else "-" for ch in text)


def _fit(full, rows, cfg):
    """(formation, stats) of the fit to ``full`` (to its frames at ``rows``
    unless None), or the exception the fit raised: a context's error is
    raised once the outputs before it are written, as in a serial loop."""
    t = time.perf_counter()
    try:
        ds = full if rows is None else full.take(rows)
        formation, trace = discover_formation(ds, cfg)
    except Exception as exc:   # noqa: BLE001 - raised by cmd_context
        return exc
    return formation, {"frames": ds.n_frames,
                       "em_iterations": len(trace.rows) - 1,
                       "converged": trace.converged,
                       "kmeans": trace.kmeans,
                       "fit_s": time.perf_counter() - t}


def _fitted(result):
    if isinstance(result, Exception):
        raise result
    return result


def cmd_context(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    timings = {}
    t0 = time.perf_counter()
    full, digest = _load_and_prepare(args)
    timings["parse"] = time.perf_counter() - t0

    # distinct (team, game, period) in order of first appearance, each
    # named before any fit so that a clash of file names fails early
    t1 = time.perf_counter()
    keys = list(zip(full.team.tolist(), full.game.tolist(),
                    full.period.tolist()))
    code = {ctx: i for i, ctx in enumerate(dict.fromkeys(keys))}
    names = {}
    for ctx in code:
        name = "context_" + "_".join(map(_slug, ctx)) + ".template.json"
        if name in names:
            raise ValueError(f"contexts {names[name]!r} and {ctx!r} would "
                             f"both be written to {name}")
        names[name] = ctx
    # each context's frames in file order: the rows filter_metadata selects
    groups = split_by_label(np.arange(full.n_frames),
                            np.fromiter(map(code.__getitem__, keys), np.intp,
                                        len(keys)), len(code))
    cfg = _make_config(args, full.n_agents)
    # the global fit runs here while forked workers fit the contexts
    fits = run_tasks([functools.partial(_fit, full, rows, cfg)
                      for rows in [None, *groups]])
    timings["fits"] = time.perf_counter() - t1

    t2 = time.perf_counter()
    global_formation, global_stats = _fitted(fits[0])
    if args.parent_template:
        global_template = align_template(
            global_formation, Template.load(args.parent_template))
    else:
        global_template = Template.from_formation(global_formation)
    global_template.save(out / "global.template.json")
    outputs = ["global.template.json"]
    stats = {}
    for name, result in zip(names, fits[1:]):
        formation, stats[name] = _fitted(result)
        template = align_template(formation, global_template)
        template.save(out / name)
        outputs.append(name)
    timings["write"] = time.perf_counter() - t2

    manifest = RunManifest(
        command="context", version=__version__,
        config=_config_dict(args, cfg), input=args.input,
        input_sha256=digest, seed=args.seed, timings=timings,
        outputs=outputs, stats={"n_contexts": len(names),
                                "global": global_stats, "contexts": stats})
    manifest.save(out / "manifest.json")
    return 0


def _add_common(sp):
    sp.add_argument("--input", required=True, help="tracking data file")
    sp.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--k", type=int, default=None,
                    help="role count (default: agent count)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--eig-ratio", type=float, default=2.0,
                    help="covariance eigenvalue ratio guard band")
    sp.add_argument("--em-tol", type=float, default=1e-6)
    sp.add_argument("--max-iters", type=int, default=500)
    sp.add_argument("--init", choices=("player-means", "random"),
                    default="player-means")
    sp.add_argument("--parent-template", default=None,
                    help="template JSON fixing the role order")
    sp.add_argument("--filter", default=None, metavar="EXPR",
                    help="metadata filter, e.g. team=home;period=1")


def build_parser():
    p = argparse.ArgumentParser(
        prog="rolealign",
        description="Formation discovery and role alignment for "
                    "multi-agent tracking data")
    p.add_argument("--version", action="version",
                   version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("discover", help="learn a formation from one input")
    _add_common(d)
    d.add_argument("--key-frames-only", action="store_true")
    d.set_defaults(func=cmd_discover)

    c = sub.add_parser("compare",
                       help="soft pipeline vs hard-assignment baseline")
    _add_common(c)
    c.add_argument("--key-frames-only", action="store_true")
    c.set_defaults(func=cmd_compare)

    b = sub.add_parser("bench", help="per-iteration timing across N")
    b.add_argument("--n-range", default="4,6,8,10,12,14",
                   help="comma-separated agent counts")
    b.add_argument("--s", type=int, default=200, help="frames per dataset")
    b.add_argument("--reps", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    x = sub.add_parser("context",
                       help="per-context templates aligned to a global one")
    _add_common(x)
    x.set_defaults(func=cmd_context)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    try:
        return args.func(args)
    except (ParseError, EmptySelectionError, FileNotFoundError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:   # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
