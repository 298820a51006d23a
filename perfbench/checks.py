"""Output checks for one CLI run, and the quality numbers recomputed from it.

A check raises ``CheckError`` with a one-line reason; the caller counts the
run as failed.  Quality is recomputed with this file's own NumPy code from
the files the run wrote, not read from the program's timings or manifests.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np

# The recomputed average log-likelihood and the program's own value sum
# the same terms in a different order (the program sorts its points).
LOGLIK_RTOL = 1e-9

SCHEMA = "src/rolealign/schemas/compare_report.schema.json"


class CheckError(Exception):
    """The run's outputs are missing, malformed or wrong."""


def _load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CheckError(f"missing output {path.name}") from None
    except json.JSONDecodeError as exc:
        raise CheckError(f"{path.name} is not valid JSON: {exc.msg}") from None


def _gaussians(items):
    """(means (K, 2), covs (K, 2, 2), weights (K,)) from to_dict() items."""
    try:
        means = np.array([c["mean"] for c in items], dtype=float)
        covs = np.array([c["cov"] for c in items], dtype=float)
        weights = np.array([c["weight"] for c in items], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed Gaussian list: {exc}") from None
    if means.shape[1:] != (2,) or covs.shape[1:] != (2, 2):
        raise CheckError("malformed Gaussian shapes")
    return means, covs, weights


def avg_loglik(points, means, covs, weights):
    """Mean over points of log sum_k w_k N(x; mu_k, Sigma_k)."""
    det = covs[:, 0, 0] * covs[:, 1, 1] - covs[:, 0, 1] * covs[:, 1, 0]
    dx = points[:, None, 0] - means[None, :, 0]
    dy = points[:, None, 1] - means[None, :, 1]
    quad = (covs[:, 1, 1] * dx * dx - 2.0 * covs[:, 0, 1] * dx * dy
            + covs[:, 0, 0] * dy * dy) / det
    joint = (np.log(weights) - math.log(2.0 * math.pi) - 0.5 * np.log(det)
             - 0.5 * quad)
    top = joint.max(axis=1, keepdims=True)
    per_point = np.log(np.exp(joint - top).sum(axis=1)) + top[:, 0]
    return float(per_point.mean())


def _last_loglik(path):
    """Final average log-likelihood the program logged in an EM trace CSV."""
    try:
        lines = path.read_text().splitlines()
    except FileNotFoundError:
        raise CheckError(f"missing output {path.name}") from None
    if len(lines) < 2 or lines[0] != "iteration,loglik,update_kind," \
                                      "max_eig_ratio":
        raise CheckError(f"{path.name} has no trace rows")
    try:
        return float(lines[-1].split(",")[1])
    except (IndexError, ValueError):
        raise CheckError(f"{path.name} last row is malformed") from None


def _same(recomputed, reported, what):
    if not math.isclose(recomputed, reported, rel_tol=LOGLIK_RTOL):
        raise CheckError(f"{what}: recomputed avg_loglik {recomputed!r} != "
                         f"reported {reported!r}")


def _mean_err(learned, truth):
    """Largest distance between matched learned and true role means."""
    if learned.shape != truth.shape:
        raise CheckError(f"{learned.shape[0]} learned roles, "
                         f"{truth.shape[0]} true roles")
    return float(np.sqrt(((learned - truth) ** 2).sum(axis=1)).max())


def _best_match(learned, truth):
    """Learned means reordered to the true roles they sit closest to."""
    from rolealign.assignment import hungarian

    d = np.sqrt(((learned[:, None, :] - truth[None, :, :]) ** 2).sum(axis=2))
    order = np.empty(len(truth), dtype=int)
    order[hungarian(d).mapping] = np.arange(len(learned))
    return learned[order]


def _require(out, names):
    for name in names:
        if not (out / name).is_file():
            raise CheckError(f"missing output {name}")


def _finite(quality):
    for key, value in quality.items():
        if not math.isfinite(value):
            raise CheckError(f"{key} is not finite: {value!r}")
    return quality


def formation_loglik(inputs, out):
    """avg_loglik recomputed from a discover run's formation.json.

    It must equal the final value in the run's own emtrace.csv.
    """
    _require(out, ("formation.json", "emtrace.csv"))
    ll = avg_loglik(inputs.points,
                    *_gaussians(_load_json(out / "formation.json")
                                ["components"]))
    _same(ll, _last_loglik(out / "emtrace.csv"), "emtrace.csv")
    return ll


def check_discover(inputs, out, root):
    _require(out, ("template.json", "manifest.json"))
    ll = formation_loglik(inputs, out)
    template = _load_json(out / "template.json")["roles"]
    err = _mean_err(_gaussians(template)[0], inputs.truth_means["match"])
    return _finite({"avg_loglik": ll, "role_mean_err": err})


def check_compare(inputs, out, root):
    _require(out, ("report.json", "wce_sweep.csv", "pca.csv", "emtrace.csv",
                   "hard_trace.csv", "manifest.json"))
    report = _load_json(out / "report.json")
    schema = _load_json(root / SCHEMA)
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        raise CheckError(f"report.json fails the schema: {exc.message}") \
            from None
    k = inputs.agents
    if len(report["per_role_kl"]) != k or len(report["pca"]["aligned"]) \
            != 2 * k:
        raise CheckError("report.json sizes do not match K")
    ll = inputs.reference_loglik
    if ll is None:
        raise CheckError(inputs.reference_error)
    _same(ll, float(report["soft_avg_loglik"]), "report.json")
    _same(ll, _last_loglik(out / "emtrace.csv"), "emtrace.csv")
    return _finite({"avg_loglik": ll})


def check_context(inputs, out, root):
    names = {key: f"context_{key}.template.json"
             for key in inputs.truth_means}
    _require(out, ("global.template.json", "manifest.json",
                   *names.values()))
    ll = avg_loglik(inputs.points,
                    *_gaussians(_load_json(out / "global.template.json")
                                ["roles"]))
    err = 0.0
    for key, name in names.items():
        learned = _gaussians(_load_json(out / name)["roles"])[0]
        truth = inputs.truth_means[key]
        if learned.shape != truth.shape:
            raise CheckError(f"{name}: {learned.shape[0]} roles, "
                             f"expected {truth.shape[0]}")
        err = max(err, _mean_err(_best_match(learned, truth), truth))
    return _finite({"avg_loglik": ll, "role_mean_err": err})


CHECKS = {
    "discover-match": check_discover,
    "compare-k22": check_compare,
    "context-slices": check_context,
}


def check(workload, inputs, out: Path, root: Path) -> dict:
    """Check one run's outputs; returns its recomputed quality numbers."""
    try:
        return CHECKS[workload](inputs, out, root)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from None
