"""The batch interface: exit codes, output files, and the run manifest."""

import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest

from rolealign import parallel
from rolealign.alignment import Template, average_log_likelihood
from rolealign.baseline import hard_assignment_em, player_identity_template
from rolealign.cli import main
from rolealign.discovery import Formation
from rolealign.ingest import (center_normalize, concat_datasets,
                              normalize_attack_direction, parse_tracking,
                              write_tracking_csv)
from rolealign.synth import generate_formation, sample_dataset

from oracles import no_child_process


@pytest.fixture(scope="module")
def plain_csv(tmp_path_factory):
    """An 80-frame, 4-agent tracking file with no events or metadata."""
    tmpl = generate_formation(4, separation=3.0, seed=90)
    ds, _ = sample_dataset(tmpl, 80, swap_rate=0.05, seed=90)
    path = tmp_path_factory.mktemp("data") / "plain.csv"
    write_tracking_csv(ds, path)
    return str(path), tmpl


@pytest.fixture(scope="module")
def teams_csv(tmp_path_factory):
    """Two teams, events at 30%, same generating formation."""
    tmpl = generate_formation(4, separation=3.0, seed=91)
    home, _ = sample_dataset(tmpl, 60, event_rate=0.3, seed=91, team="home")
    away, _ = sample_dataset(tmpl, 60, event_rate=0.3, seed=92, team="away")
    # frame ids must stay unique across the concatenation
    shifted = replace(away, frame_id=away.frame_id + 100)
    ds = concat_datasets([home, shifted])
    path = tmp_path_factory.mktemp("data") / "teams.csv"
    write_tracking_csv(ds, path)
    return str(path), tmpl


def run(argv):
    return main(argv)


# discover


def test_discover_outputs(plain_csv, tmp_path):
    path, tmpl = plain_csv
    out = tmp_path / "out"
    assert run(["discover", "--input", path, "--out", str(out)]) == 0
    with open(out / "formation.json") as fh:
        formation = Formation.from_dict(json.load(fh))
    assert formation.k == 4
    lines = (out / "emtrace.csv").read_text().splitlines()
    assert lines[0] == "iteration,loglik,update_kind,max_eig_ratio"
    assert lines[1].split(",")[2] == "Init"
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["command"] == "discover"
    assert manifest["outputs"] == ["formation.json", "emtrace.csv"]
    assert manifest["stats"]["converged"] is True
    km = manifest["stats"]["kmeans"]
    assert km["iterations"] >= 1
    assert km["searched"] + km["settled"] == 80 * 4 * km["iterations"]
    assert 0 <= km["fallback"] <= km["searched"]
    with open(path, "rb") as fh:
        assert manifest["input_sha256"] == hashlib.sha256(fh.read()).hexdigest()


def test_discover_reproducible(plain_csv, tmp_path):
    path, _ = plain_csv
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["discover", "--input", path, "--out", str(a)]) == 0
    assert run(["discover", "--input", path, "--out", str(b)]) == 0
    assert (a / "formation.json").read_bytes() == \
        (b / "formation.json").read_bytes()
    assert (a / "emtrace.csv").read_bytes() == (b / "emtrace.csv").read_bytes()


def test_discover_with_parent_template(plain_csv, tmp_path):
    path, tmpl = plain_csv
    parent = tmp_path / "parent.json"
    tmpl.save(parent)
    out = tmp_path / "out"
    assert run(["discover", "--input", path, "--out", str(out),
                "--parent-template", str(parent)]) == 0
    aligned = Template.load(out / "template.json")
    gap = np.sqrt(((aligned.means - tmpl.means) ** 2).sum(axis=1))
    assert gap.max() < 0.5  # roles named consistently with the parent


def test_discover_key_frames_without_events(plain_csv, tmp_path, capsys):
    path, _ = plain_csv
    code = run(["discover", "--input", path, "--out", str(tmp_path / "o"),
                "--key-frames-only"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_context_takes_no_key_frames_flag(plain_csv, tmp_path, capsys):
    path, _ = plain_csv
    code = run(["context", "--input", path, "--out", str(tmp_path / "o"),
                "--key-frames-only"])
    assert code == 2
    assert "--key-frames-only" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_discover_k_conflicts_with_player_means(plain_csv, tmp_path, capsys):
    path, _ = plain_csv
    code = run(["discover", "--input", path, "--out", str(tmp_path / "o"),
                "--k", "2"])
    assert code == 2
    assert "use random init" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["discover", "compare", "context"])
def test_negative_max_iters_is_a_usage_error(plain_csv, tmp_path, capsys,
                                             command):
    # discover used to exit 0 with a header-only emtrace.csv, and compare
    # to fail with an internal error
    path, _ = plain_csv
    out = tmp_path / "o"
    code = run([command, "--input", path, "--out", str(out),
                "--max-iters", "-1"])
    assert code == 2
    assert "error: max_iters must be >= 0" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_missing_input_file(tmp_path, capsys):
    code = run(["discover", "--input", str(tmp_path / "nope.csv"),
                "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ['"frame_id positions"',
                                 '{"frame_id": 1, "positions": 5}',
                                 '{"frame_id": 1, "positions": [[0, 0]], '
                                 '"period": "x"}',
                                 '{"frame_id": 1, "positions": [[0, 0]], '
                                 '"agent_ids": [1]}'])
def test_malformed_jsonl_is_an_input_error(tmp_path, capsys, bad):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"frame_id": 0, "positions": [[0.0, 0.0]]}\n' + bad
                    + "\n")
    code = run(["discover", "--input", str(path), "--format", "jsonl",
                "--out", str(tmp_path / "o")])
    assert code == 2
    assert "error: line 2:" in capsys.readouterr().err


CSV_HEADER = b"frame_id,agent_id,x,y,is_event,attack_direction,team,game,period"
CSV_ROW = b"0,a,1.0,2.0,0,LR,,,1"


# a CR-only file, a field over the csv field limit, a Latin-1 byte: each
# used to escape as a csv.Error or a bare decode error
@pytest.mark.parametrize("data,where", [
    (b"\r".join([CSV_HEADER, CSV_ROW, CSV_ROW]) + b"\r", "line 1:"),
    (b"\n".join([CSV_HEADER, CSV_ROW, b"0,b,1.0,2.0,0,LR,"
                 + b"t" * 131073 + b",,1"]) + b"\n", "line 3:"),
    (b"\n".join([CSV_HEADER, CSV_ROW, b"0,b,1.0,2.0,0,LR,M\xfcnchen,,1"]),
     "line 3: byte 0xfc is not UTF-8"),
])
def test_malformed_csv_is_an_input_error(tmp_path, capsys, data, where):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    code = run(["discover", "--input", str(path), "--k", "2",
                "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"error: {where}" in capsys.readouterr().err


def test_bad_format_is_usage_error(plain_csv, tmp_path, capsys):
    path, _ = plain_csv
    code = run(["discover", "--input", path, "--out", str(tmp_path / "o"),
                "--format", "xml"])
    assert code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_filter_errors(teams_csv, tmp_path, capsys):
    path, _ = teams_csv
    assert run(["discover", "--input", path, "--out", str(tmp_path / "a"),
                "--filter", "oops"]) == 2
    assert "bad filter clause" in capsys.readouterr().err
    assert run(["discover", "--input", path, "--out", str(tmp_path / "b"),
                "--filter", "team=nosuch"]) == 2
    assert "no frames match filter" in capsys.readouterr().err
    assert run(["discover", "--input", path, "--out", str(tmp_path / "c"),
                "--filter", "color=red"]) == 2
    assert "unknown filter key" in capsys.readouterr().err
    assert run(["discover", "--input", path, "--out", str(tmp_path / "d"),
                "--filter", "team=home;period=x"]) == 2
    assert capsys.readouterr().err == \
        "error: filter period must be an integer, got 'x'\n"


def test_filter_selects_a_team(teams_csv, tmp_path):
    path, _ = teams_csv
    out = tmp_path / "out"
    assert run(["discover", "--input", path, "--out", str(out),
                "--filter", "team=home"]) == 0
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["stats"]["total_rows"] == 60 * 4


# compare


def test_compare_report_and_files(plain_csv, tmp_path):
    path, _ = plain_csv
    out = tmp_path / "out"
    assert run(["compare", "--input", path, "--out", str(out)]) == 0
    with open(out / "report.json") as fh:
        report = json.load(fh)
    schema_path = resources.files("rolealign") / \
        "schemas/compare_report.schema.json"
    jsonschema.validate(report, json.loads(schema_path.read_text()))
    assert report["delta_avg_loglik"] >= -1e-9
    assert report["delta_avg_loglik"] == pytest.approx(
        report["soft_avg_loglik"] - report["hard_avg_loglik"], abs=1e-12)
    assert len(report["per_role_kl"]) == 4

    wce_lines = (out / "wce_sweep.csv").read_text().splitlines()
    assert wce_lines[0] == "k,wce_aligned,wce_identity"
    assert len(wce_lines) == 1 + len(report["wce"]["ks"])
    pca_lines = (out / "pca.csv").read_text().splitlines()
    assert pca_lines[0] == "component,aligned_fraction,identity_fraction"
    assert len(pca_lines) == 1 + 8   # 2K columns of row data
    hard_lines = (out / "hard_trace.csv").read_text().splitlines()
    assert hard_lines[0] == "iteration,total_cost,avg_loglik,changed_frames"
    # every data cell is a plain number, e.g. not "np.float64(0.3)"
    cells = {name: np.array([[float(c) for c in line.split(",")]
                             for line in lines[1:]])
             for name, lines in (("wce", wce_lines), ("pca", pca_lines),
                                 ("hard", hard_lines))}
    assert np.abs(cells["pca"][:, 1:].sum(axis=0) - 1.0).max() <= 1e-9
    assert (out / "emtrace.csv").exists()
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["stats"]["delta_avg_loglik"] == report["delta_avg_loglik"]
    # per assignment run: frames the argmin certificate settled vs solved
    soft = manifest["stats"]["soft_assignment"]
    hard = manifest["stats"]["hard_assignment"]
    assert soft["certified"] + soft["solved"] == 80 and soft["certified"] > 0
    assert len(hard) == len(hard_lines) - 1
    assert all(p["certified"] + p["solved"] == 80 for p in hard)
    # the solved frames with tied optima, refined lexicographically
    assert all(0 <= p["tied"] <= p["solved"] for p in [soft] + hard)
    assert "certified" not in json.dumps(report)
    # per WCE sweep: rows of its nearest-center searches, those the
    # Gram-form certificate left to the exact search, and the rows K-means'
    # bounds settled without a search
    for side in ("aligned", "identity"):
        near = manifest["stats"]["nearest_centers"][side]
        assert near["rows"] > 0 and 0 <= near["fallback"] <= near["rows"]
        assert near["settled"] > 0
    assert "fallback" not in json.dumps(report)
    assert list(manifest["timings"]) == ["parse", "fits", "write"]
    for branch in ("soft", "hard"):   # timed where the branch ran
        assert list(manifest["stats"][branch]) == ["fit_s"]
        assert 0 < manifest["stats"][branch]["fit_s"] <= \
            manifest["timings"]["fits"]
    assert no_child_process()


@pytest.mark.parametrize("cpus", [1, 2])
def test_compare_whose_soft_branch_fails_writes_no_report(
        tmp_path, capsys, monkeypatch, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    tmpl = generate_formation(4, separation=3.0, seed=94)
    # no event frames: the soft branch's key-frame filter selects none,
    # while the hard branch, which fits every frame, succeeds
    ds, _ = sample_dataset(tmpl, 40, seed=94)
    path = tmp_path / "plain.csv"
    write_tracking_csv(ds, path)
    out = tmp_path / "cmp"
    assert run(["compare", "--input", str(path), "--out", str(out),
                "--key-frames-only"]) == 2
    assert capsys.readouterr().err == "error: no event frames in dataset\n"
    assert list(out.iterdir()) == []
    assert no_child_process()


# bench


def test_bench_small_run(tmp_path):
    out = tmp_path / "bench"
    assert run(["bench", "--n-range", "4,6", "--s", "40", "--reps", "1",
                "--out", str(out)]) == 0
    lines = (out / "bench.csv").read_text().splitlines()
    assert lines[0] == "n,soft_seconds,hard_seconds,ratio"
    assert [int(l.split(",")[0]) for l in lines[1:]] == [4, 6]
    for l in lines[1:]:
        _, soft, hard, ratio = l.split(",")
        assert float(soft) > 0 and float(hard) > 0
        assert float(ratio) == pytest.approx(float(hard) / float(soft))
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert set(summary) == {"slope_soft", "slope_hard", "slope_difference",
                            "ratio_at_10"}
    assert summary["ratio_at_10"] is None   # 10 not in the range
    assert summary["slope_difference"] == pytest.approx(
        summary["slope_hard"] - summary["slope_soft"], abs=1e-12)


def test_bench_empty_range(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["bench", "--n-range", ",", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --n-range needs at least two " \
        "distinct agent counts, got ','\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--n-range", "10"], "--n-range needs at least two distinct agent "
                          "counts, got '10'"),
    (["--n-range", "4,4"], "--n-range needs at least two distinct agent "
                           "counts, got '4,4'"),
    (["--n-range", "1,2"], "--n-range needs agent counts of at least 2, "
                           "got 1"),
    (["--reps", "0"], "--reps must be at least 1, got 0"),
    (["--s", "0"], "--s must be at least 1, got 0"),
    (["--n-range", "4,x"], "--n-range entries must be integers, got 'x' in "
                           "'4,x'"),
])
def test_bench_refuses_bad_flags_before_any_work(tmp_path, capsys, flags,
                                                 message):
    out = tmp_path / "bench"
    assert run(["bench", *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_compare_hard_loglik_is_the_last_hard_pass(plain_csv, tmp_path):
    # compare reads the hard log-likelihood off the trace; it is the
    # log-likelihood of the returned hard formation, bit for bit
    path, _ = plain_csv
    out = tmp_path / "out"
    assert run(["compare", "--input", path, "--out", str(out)]) == 0
    with open(out / "report.json") as fh:
        report = json.load(fh)
    ds = center_normalize(normalize_attack_direction(parse_tracking(path)))
    formation, _, trace = hard_assignment_em(ds, player_identity_template(ds))
    assert report["hard_avg_loglik"] == average_log_likelihood(ds, formation)
    assert report["hard_avg_loglik"] == trace.logliks[-1]
    last = (out / "hard_trace.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[2]) == report["hard_avg_loglik"]


def test_compare_and_discover_fit_the_same_prepared_data(tmp_path):
    # pitch coordinates in centimetres, some frames right to left: one
    # centering leaves residual means above center_normalize's 1e-12, so
    # a second pass would move these frames and change the fit
    tmpl = generate_formation(6, separation=3.0, seed=1)
    ds, _ = sample_dataset(tmpl, 300, swap_rate=0.05, seed=1)
    rl = np.arange(ds.n_frames) % 4 == 1
    pitch = ds.positions * 100.0 + np.array([5250.0, 3400.0])
    ds = replace(ds, positions=np.where(rl[:, None, None], -pitch, pitch),
                 right_to_left=rl)
    path = tmp_path / "pitch.csv"
    write_tracking_csv(ds, path)
    found, both = tmp_path / "discover", tmp_path / "compare"
    assert run(["discover", "--input", str(path), "--out", str(found),
                "--k", "6"]) == 0
    assert run(["compare", "--input", str(path), "--out", str(both),
                "--k", "6"]) == 0
    last = (found / "emtrace.csv").read_text().splitlines()[-1]
    assert (both / "emtrace.csv").read_text().splitlines()[-1] == last

    prepared = center_normalize(normalize_attack_direction(
        parse_tracking(path)))
    with open(found / "formation.json") as fh:
        formation = Formation.from_dict(json.load(fh))
    with open(both / "report.json") as fh:
        report = json.load(fh)
    assert report["soft_avg_loglik"] == float(last.split(",")[1])
    # the last EM pass sums the points in another order
    assert report["soft_avg_loglik"] == pytest.approx(
        average_log_likelihood(prepared, formation), rel=1e-13)

    _, _, trace = hard_assignment_em(prepared,
                                     player_identity_template(prepared))
    trace.to_csv(tmp_path / "hard_trace.csv")
    assert (both / "hard_trace.csv").read_bytes() == \
        (tmp_path / "hard_trace.csv").read_bytes()


def test_compare_reads_coordinates_near_1e40(tmp_path):
    # template alignment takes Bhattacharyya distances, whose covariance
    # determinants near 1e160 overflowed when multiplied together
    tmpl = generate_formation(6, separation=3.0, seed=96)
    ds, _ = sample_dataset(tmpl, 60, seed=96)
    path = tmp_path / "huge.csv"
    write_tracking_csv(replace(ds, positions=ds.positions * 1e40), path)
    assert run(["compare", "--input", str(path), "--out",
                str(tmp_path / "cmp"), "--k", "6"]) == 0


def test_compare_refuses_fewer_agents_than_roles(tmp_path, capsys):
    tmpl = generate_formation(10, separation=3.0, seed=95)
    ds, _ = sample_dataset(tmpl, 40, seed=95)
    path = tmp_path / "ten.csv"
    write_tracking_csv(ds, path)
    argv = ["--input", str(path), "--k", "12", "--init", "random"]
    out = tmp_path / "cmp"
    assert run(["compare", "--out", str(out), *argv]) == 2
    assert capsys.readouterr().err == \
        "error: compare needs --k equal to the agent count: --k 12 but 10 " \
        "agents per frame\n"
    assert not (out / "report.json").exists()
    assert run(["discover", "--out", str(tmp_path / "found"), *argv]) == 0


@pytest.mark.parametrize("init", [[], ["--init", "random"]])
def test_compare_refuses_more_agents_than_roles(tmp_path, capsys, init):
    tmpl = generate_formation(10, separation=3.0, seed=95)
    ds, _ = sample_dataset(tmpl, 40, seed=95)
    path = tmp_path / "ten.csv"
    write_tracking_csv(ds, path)
    out = tmp_path / "cmp"
    assert run(["compare", "--input", str(path), "--out", str(out), "--k",
                "8", *init]) == 2
    assert capsys.readouterr().err == \
        "error: compare needs --k equal to the agent count: --k 8 but 10 " \
        "agents per frame\n"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("cpus", [1, 2])
def test_one_frame_compare_refuses_and_discover_and_context_fit(
        tmp_path, capsys, monkeypatch, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    tmpl = generate_formation(4, separation=3.0, seed=97)
    ds, _ = sample_dataset(tmpl, 1, seed=97)
    path = tmp_path / "one.csv"
    write_tracking_csv(ds, path)
    out = tmp_path / "cmp"
    assert run(["compare", "--input", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        "error: compare needs at least two frames, the input has 1\n"
    assert not (out / "report.json").exists()
    for command in ("discover", "context"):
        assert run([command, "--input", str(path), "--out",
                    str(tmp_path / command)]) == 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_coincident_points_compare_refuses_and_discover_fits(
        tmp_path, capsys, monkeypatch, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    # every agent of every frame at one point: the PCA has no variance
    tmpl = generate_formation(4, separation=3.0, seed=98)
    ds, _ = sample_dataset(tmpl, 20, seed=98)
    path = tmp_path / "still.csv"
    write_tracking_csv(replace(ds, positions=np.zeros_like(ds.positions)),
                       path)
    out = tmp_path / "cmp"
    assert run(["compare", "--input", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: zero-variance data\n"
    assert not (out / "report.json").exists()
    assert run(["discover", "--input", str(path), "--out",
                str(tmp_path / "found")]) == 0
    assert no_child_process()


# context


def test_context_outputs(teams_csv, tmp_path):
    path, tmpl = teams_csv
    out = tmp_path / "ctx"
    assert run(["context", "--input", path, "--out", str(out)]) == 0
    assert (out / "global.template.json").exists()
    names = sorted(p.name for p in out.glob("context_*.template.json"))
    assert names == ["context_away_any_1.template.json",
                     "context_home_any_1.template.json"]
    glob_t = Template.load(out / "global.template.json")
    for name in names:
        ctx = Template.load(out / name)
        gap = np.sqrt(((ctx.means - glob_t.means) ** 2).sum(axis=1))
        assert gap.max() < 1.0   # same formation, shared role order
    with open(out / "manifest.json") as fh:
        manifest = json.load(fh)
    assert manifest["stats"]["n_contexts"] == 2
    assert list(manifest["timings"]) == ["parse", "fits", "write"]
    assert list(manifest["stats"]["contexts"]) == names[::-1]   # file order
    for fit in [manifest["stats"]["global"],
                *manifest["stats"]["contexts"].values()]:
        assert set(fit) == {"frames", "em_iterations", "converged", "kmeans",
                            "fit_s"}
        km = fit["kmeans"]
        assert km["searched"] + km["settled"] == \
            fit["frames"] * 4 * km["iterations"]
        assert 0 <= km["fallback"] <= km["searched"]
    assert manifest["stats"]["global"]["frames"] == 120
    assert no_child_process()


@pytest.mark.parametrize("cpus", [1, 3])
def test_context_with_fewer_points_than_k_fails_after_the_earlier_ones(
        tmp_path, capsys, monkeypatch, cpus):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
    tmpl = generate_formation(4, separation=3.0, seed=93)
    parts = [sample_dataset(tmpl, s, seed=93 + i, team=team)[0]
             for i, (s, team) in enumerate([(40, "a"), (1, "b"), (40, "c")])]
    ds = concat_datasets([replace(p, frame_id=p.frame_id + 100 * i)
                          for i, p in enumerate(parts)])
    path = tmp_path / "teams.csv"
    write_tracking_csv(ds, path)
    out = tmp_path / "ctx"
    assert run(["context", "--input", str(path), "--out", str(out), "--k",
                "6", "--init", "random"]) == 2
    # as when the contexts were fitted one after another: the global
    # template and every context before the failing one are written
    assert capsys.readouterr().err == \
        "error: k=6 exceeds total point count 4\n"
    assert sorted(p.name for p in out.iterdir()) == [
        "context_a_any_1.template.json", "global.template.json"]
    assert no_child_process()


@pytest.mark.parametrize("teams", [("a b", "a-b"), ("", "any")])
def test_context_name_collision_is_an_input_error(teams, tmp_path, capsys):
    tmpl = generate_formation(4, separation=3.0, seed=91)
    first, _ = sample_dataset(tmpl, 30, seed=91, team=teams[0])
    second, _ = sample_dataset(tmpl, 30, seed=92, team=teams[1])
    ds = concat_datasets([first, replace(second,
                                         frame_id=second.frame_id + 100)])
    path = tmp_path / "teams.csv"
    write_tracking_csv(ds, path)
    out = tmp_path / "ctx"
    assert run(["context", "--input", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert repr((teams[0], "", 1)) in err and repr((teams[1], "", 1)) in err
    assert list(out.iterdir()) == []   # every name is checked before a fit


# top-level plumbing


def test_version_flag(capsys):
    assert run(["--version"]) == 0
    assert "rolealign" in capsys.readouterr().out


def test_no_subcommand_is_usage_error(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_console_entry_point():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "rolealign.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "rolealign" in proc.stdout
