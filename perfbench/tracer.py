"""Traced in-process CLI run, and the per-layer metrics derived from it.

Run as a script, this wraps every public function of the layer modules at
each module attribute it is bound to (``rolealign.discovery.kmeans`` and
``rolealign.clustering.kmeans`` alike), then calls ``rolealign.cli.main``:

    python perfbench/tracer.py SPANS_JSON -- discover --input ... --out ...

Each call records one span (name, start, end, parent span) plus a count
read from the function's public return value where one is useful.  Spans
stay in memory and are written to SPANS_JSON once ``main`` returns; the
exit code is ``main``'s.  No private function is wrapped and no program
file is changed: the wrapping only rebinds module attributes in this
process.  ``geometry`` is not wrapped (its per-pair calls run inside
``align_template``) and neither is ``synth``, which only builds inputs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

LAYERS = ("ingest", "discovery", "alignment", "assignment", "baseline",
          "clustering", "cli")


def _count(name, result):
    """Work count carried by a layer function's return value, or None."""
    if name == "ingest.parse_tracking":
        return result.n_frames * result.n_agents
    if name == "discovery.kmeans":
        return result.n_iterations
    if name == "discovery.discover_formation":
        from rolealign.discovery import SOFT_KMEANS

        trace = result[1]
        return [len(trace.rows) - 1, trace.update_kinds.count(SOFT_KMEANS)]
    if name == "alignment.assign_roles":
        return result.n_frames
    if name == "baseline.hard_assignment_em":
        return len(result[2].rows)
    return None


class Tracer:
    """Span recorder: one list entry per call, parents by index."""

    def __init__(self):
        self.spans = []     # [name, start, end, parent index, count]
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            span[4] = _count(name, result)
            return result
        return traced

    def install(self):
        """Rebind every public layer function wherever rolealign binds it."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"rolealign.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
        for modname, mod in list(sys.modules.items()):
            if modname != "rolealign" and not modname.startswith("rolealign."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])


def self_times(spans):
    """Per-span duration minus the time its direct children cover.

    Children run nested inside their parent on one thread, so their
    intervals never overlap and the covered part is the sum of their
    durations.
    """
    out = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            out[s[3]] -= s[2] - s[1]
    return out


def _under(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans):
    """Per-layer metrics (name -> (value, unit)) of one traced run.

    Every ``_s`` time is self time: a span's duration minus its wrapped
    children, so Hungarian solves inside ``hard_assignment_em`` count
    under ``assignment``, not ``baseline``.  ``discovery.em_s`` is the self
    time of ``discover_formation``.  K-means calls under a
    ``discover_formation`` span count for ``discovery``, all others for
    ``clustering``, in the layer's ``self_s`` too.  Each ratio is reported
    next to its base.
    """
    own = self_times(spans)
    time_of, calls, count = {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    km = {"discovery": [0.0, 0, 0], "clustering": [0.0, 0, 0]}
    em_iters = spherical = 0
    for i, (name, _, _, _, c) in enumerate(spans):
        time_of[name] = time_of.get(name, 0.0) + own[i]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        if name == "discovery.kmeans":
            if not _under(spans, i, "discovery.discover_formation"):
                layer = "clustering"
            side = km[layer]
            side[0] += own[i]
            side[1] += 1
            side[2] += c
        elif name == "discovery.discover_formation":
            em_iters += c[0]
            spherical += c[1]
        elif c is not None:
            count[name] = count.get(name, 0) + c
        layer_self[layer] += own[i]

    def t(*names):
        return sum(time_of.get(n, 0.0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    parse_s, rows = t("ingest.parse_tracking"), count.get(
        "ingest.parse_tracking", 0)
    hung_s, hung_n = t("assignment.hungarian"), calls.get(
        "assignment.hungarian", 0)
    hard_s, hard_n = t("baseline.hard_assignment_em"), count.get(
        "baseline.hard_assignment_em", 0)
    m = {
        "ingest.parse_s": (parse_s, "s"),
        "ingest.rows": (rows, "count"),
        "ingest.rows_per_s": (ratio(rows, parse_s), "1/s"),
        "ingest.normalize_s": (t("ingest.normalize_attack_direction",
                                 "ingest.center_normalize"), "s"),
        "ingest.filter_s": (t("ingest.filter_metadata",
                              "ingest.filter_key_frames"), "s"),
        "discovery.fits": (calls.get("discovery.discover_formation", 0),
                           "count"),
        "discovery.init_s": (t("discovery.player_mean_init"), "s"),
        "discovery.kmeans_s": (km["discovery"][0], "s"),
        "discovery.kmeans_iters": (km["discovery"][2], "count"),
        "discovery.kmeans_iter_s": (ratio(km["discovery"][0],
                                          km["discovery"][2]), "s"),
        "discovery.em_s": (t("discovery.discover_formation"), "s"),
        "discovery.em_iters": (em_iters, "count"),
        "discovery.spherical_steps": (spherical, "count"),
        "alignment.assign_roles_s": (t("alignment.assign_roles"), "s"),
        "alignment.assign_frames": (count.get("alignment.assign_roles", 0),
                                    "count"),
        "alignment.align_template_s": (t("alignment.align_template"), "s"),
        "alignment.loglik_s": (t("alignment.average_log_likelihood"), "s"),
        "assignment.hungarian_calls": (hung_n, "count"),
        "assignment.hungarian_s": (hung_s, "s"),
        "assignment.hungarian_us_per_call": (1e6 * ratio(hung_s, hung_n),
                                             "us"),
        "baseline.init_s": (t("baseline.player_identity_template"), "s"),
        "baseline.hard_em_s": (hard_s, "s"),
        "baseline.hard_iters": (hard_n, "count"),
        "baseline.hard_iter_s": (ratio(hard_s, hard_n), "s"),
        "clustering.wce_sweep_s": (t("clustering.wce_sweep"), "s"),
        "clustering.kmeans_s": (km["clustering"][0], "s"),
        "clustering.kmeans_calls": (km["clustering"][1], "count"),
        "clustering.kmeans_iters": (km["clustering"][2], "count"),
        "clustering.pca_s": (t("clustering.pca_variance_explained"), "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (layer_self[layer], "s")
    return m


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- CLI_ARGS...", file=sys.stderr)
        return 2
    import rolealign.cli

    tracer = Tracer()
    tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    code = rolealign.cli.main(argv[2:])
    after = resource.getrusage(resource.RUSAGE_SELF)
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime
                                                  - before.ru_stime)
    with open(argv[0], "w") as fh:
        json.dump({"spans": tracer.spans, "cpu_s": cpu_s}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
