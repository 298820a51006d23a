"""Parsing, canonicalization, normalization, and the flatten round trip."""

import csv
import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolealign import ingest, parallel
from rolealign.ingest import (
    CSV_COLUMNS,
    Dataset,
    EmptySelectionError,
    Frame,
    ParseError,
    center_normalize,
    concat_datasets,
    filter_key_frames,
    filter_metadata,
    flatten,
    normalize_attack_direction,
    parse_tracking,
    unflatten,
    write_tracking_csv,
    write_tracking_jsonl,
)


def small_dataset():
    # ids already in sorted order so parser canonicalization is a no-op
    f0 = Frame(frame_id=0, positions=[[0.1, -3.7e-05], [1 / 3, 2.0]],
               agent_ids=("p0", "p1"), is_event=True,
               attack_direction="RL", team="home", game="g1", period=2)
    f1 = Frame(frame_id=7, positions=[[-4.25, 0.0], [9.5, -9.5]],
               agent_ids=("a", "b"), team="away", game="g1")
    return Dataset.from_frames((f0, f1))


def roundtrip_csv(ds):
    buf = io.StringIO()
    write_tracking_csv(ds, buf)
    return parse_tracking(io.StringIO(buf.getvalue()), format="csv")


def roundtrip_jsonl(ds):
    buf = io.StringIO()
    write_tracking_jsonl(ds, buf)
    return parse_tracking(io.StringIO(buf.getvalue()), format="jsonl")


def assert_datasets_equal(a, b):
    assert a.n_frames == b.n_frames
    for fa, fb in zip(a.frames, b.frames):
        assert fa.frame_id == fb.frame_id
        assert fa.agent_ids == fb.agent_ids
        assert np.array_equal(fa.positions, fb.positions)  # repr is exact
        assert (fa.is_event, fa.attack_direction) == \
            (fb.is_event, fb.attack_direction)
        assert (fa.team, fa.game, fa.period) == (fb.team, fb.game, fb.period)


# round trips


def test_csv_roundtrip_exact():
    ds = small_dataset()
    assert_datasets_equal(ds, roundtrip_csv(ds))


def test_csv_write_is_stable():
    # write -> parse -> write must reproduce the bytes
    ds = small_dataset()
    a, b = io.StringIO(), io.StringIO()
    write_tracking_csv(ds, a)
    write_tracking_csv(roundtrip_csv(ds), b)
    assert a.getvalue() == b.getvalue()


def test_jsonl_roundtrip_exact():
    ds = small_dataset()
    assert_datasets_equal(ds, roundtrip_jsonl(ds))


def test_jsonl_write_is_stable():
    ds = small_dataset()
    a, b = io.StringIO(), io.StringIO()
    write_tracking_jsonl(ds, a)
    write_tracking_jsonl(roundtrip_jsonl(ds), b)
    assert a.getvalue() == b.getvalue()


def test_roundtrips_random_datasets():
    rng = np.random.default_rng(52)
    for _ in range(20):
        s = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        frames = []
        fid = 0
        for i in range(s):
            fid += int(rng.integers(1, 50))  # increasing: parser sorts by id
            frames.append(Frame(
                frame_id=fid,
                positions=rng.normal(size=(n, 2)) * 30,
                agent_ids=[f"id{j}" for j in range(n)],
                is_event=bool(rng.integers(0, 2)),
                attack_direction="LR" if rng.integers(0, 2) else "RL",
                team=str(rng.integers(0, 3)), game="g",
                period=int(rng.integers(1, 3))))
        ds = Dataset.from_frames(tuple(frames))
        assert_datasets_equal(ds, roundtrip_csv(ds))
        assert_datasets_equal(ds, roundtrip_jsonl(ds))


# canonical ordering


def test_csv_row_order_is_irrelevant():
    ds = small_dataset()
    buf = io.StringIO()
    write_tracking_csv(ds, buf)
    lines = buf.getvalue().strip().splitlines()
    header, body = lines[0], lines[1:]
    shuffled = "\r\n".join([header] + body[::-1]) + "\r\n"
    assert_datasets_equal(ds, parse_tracking(io.StringIO(shuffled)))


def test_agents_sorted_by_id_within_frame():
    f = Frame(frame_id=0, positions=[[1.0, 2.0], [3.0, 4.0]],
              agent_ids=("z", "a"))  # Frame keeps the given order
    ds = Dataset.from_frames((f,))
    rt = roundtrip_csv(ds)
    assert rt.frames[0].agent_ids == ("a", "z")  # parser canonicalizes
    assert np.array_equal(rt.frames[0].positions, [[3.0, 4.0], [1.0, 2.0]])


def test_frames_sorted_by_frame_id():
    text = io.StringIO(
        ",".join(CSV_COLUMNS) + "\n"
        "5,a,1.0,2.0,0,LR,,,1\n"
        "2,a,3.0,4.0,0,LR,,,1\n")
    ds = parse_tracking(text)
    assert [f.frame_id for f in ds.frames] == [2, 5]


# JSONL defaults


def test_jsonl_defaults():
    text = io.StringIO('{"frame_id": 3, "positions": [[1.0, 2.0], [3.0, 4.0]]}\n')
    f = parse_tracking(text, format="jsonl").frames[0]
    assert f.agent_ids == ("a0", "a1")
    assert f.is_event is False
    assert f.attack_direction == "LR"
    assert (f.team, f.game, f.period) == ("", "", 1)


def jsonl_reads(monkeypatch):
    """Yields twice: for a read of JSONL text in one part in this process,
    then for one cut into parts of one-line chunks read by three processes
    (their results and errors must not differ)."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    yield "one part"
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    monkeypatch.setattr(ingest, "JSONL_CHUNK_LINES", 1)
    yield "parts"


def csv_reads(monkeypatch):
    """Yields twice: for a read of CSV text in one part in this process,
    then for quote-free text cut into parts of one-line chunks read by
    three processes (their results and errors must not differ)."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    yield "one part"
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    monkeypatch.setattr(ingest, "CSV_CHUNK_ROWS", 1)
    yield "parts"


@pytest.mark.parametrize("eol", ["\n", "\r\n"])
def test_jsonl_lines_end_at_lf_only(eol, monkeypatch):
    # U+2028, U+2029 and U+0085 may stand raw inside a JSON string
    import json

    teams = ["a\u2028b", "c\u2029d", "e\u0085f"]
    lines = [json.dumps({"frame_id": i, "positions": [[float(i), 0.0]],
                         "team": team, "game": "g\u2028"}, ensure_ascii=False)
             for i, team in enumerate(teams)]
    text = eol.join(lines) + eol
    assert all(ch in text for ch in "\u2028\u2029\u0085")
    for _ in jsonl_reads(monkeypatch):
        ds = parse_tracking(io.StringIO(text), format="jsonl")
        assert ds.team.tolist() == teams
        assert ds.game.tolist() == ["g\u2028"] * 3
        bad = eol.join(lines + ['{"frame_id": 9}']) + eol
        with pytest.raises(ParseError,
                           match="line 4: missing key 'positions'"):
            parse_tracking(io.StringIO(bad), format="jsonl")


# errors carry 1-based line numbers


def test_parse_error_message_prefix():
    err = ParseError("boom", line=7)
    assert err.line == 7 and str(err) == "line 7: boom"
    assert ParseError("boom").line is None


def header(*rows):
    return io.StringIO("\n".join((",".join(CSV_COLUMNS),) + rows) + "\n")


@pytest.mark.parametrize("row,line,fragment", [
    ("x,a,1.0,2.0,0,LR,,,1", 2, "non-integer frame_id"),
    ("1,a,nope,2.0,0,LR,,,1", 2, "non-numeric position"),
    ("1,a,1.0,2.0,yes,LR,,,1", 2, "is_event must be 0 or 1"),
    ("1,a,1.0,2.0,0,UP,,,1", 2, "attack_direction must be"),
    ("1,a,1.0,2.0,0,LR,,,x", 2, "non-integer period"),
    ("1,a,1.0,2.0,0,LR,,1", 2, "expected 9 fields"),
])
def test_csv_field_errors(row, line, fragment, monkeypatch):
    for _ in csv_reads(monkeypatch):
        with pytest.raises(ParseError, match=fragment) as exc:
            parse_tracking(header(row))
        assert exc.value.line == line


def test_csv_error_line_counts_from_file_start(monkeypatch):
    for _ in csv_reads(monkeypatch):   # in parts, line 3 is a later part's
        src = header("1,a,1.0,2.0,0,LR,,,1", "2,a,bad,2.0,0,LR,,,1")
        with pytest.raises(ParseError) as exc:
            parse_tracking(src)
        assert exc.value.line == 3 and str(exc.value).startswith("line 3:")


def test_csv_bad_header(monkeypatch):
    for _ in csv_reads(monkeypatch):
        with pytest.raises(ParseError, match="missing columns") as exc:
            parse_tracking(io.StringIO("frame_id,agent_id\n"))
        assert exc.value.line == 1


def test_csv_empty_and_headerless(monkeypatch):
    for _ in csv_reads(monkeypatch):
        with pytest.raises(ParseError, match="empty input"):
            parse_tracking(io.StringIO(""))
        for blank in ("", "\n", "\n\n"):
            with pytest.raises(ParseError, match="no data rows"):
                parse_tracking(io.StringIO(header().getvalue() + blank))


def test_csv_duplicate_agent(monkeypatch):
    for _ in csv_reads(monkeypatch):   # in parts, across a part boundary
        src = header("1,a,1.0,2.0,0,LR,,,1", "1,a,3.0,4.0,0,LR,,,1")
        with pytest.raises(ParseError,
                           match="duplicate agent 'a' in frame 1") as exc:
            parse_tracking(src)
        assert exc.value.line == 3


def test_csv_inconsistent_frame_fields(monkeypatch):
    for _ in csv_reads(monkeypatch):
        src = header("1,a,1.0,2.0,0,LR,,,1", "1,b,3.0,4.0,1,LR,,,1")
        with pytest.raises(ParseError,
                           match="frame-level fields disagree") as exc:
            parse_tracking(src)
        assert exc.value.line == 3


def test_uneven_agent_counts(monkeypatch):
    src = header("1,a,1.0,2.0,0,LR,,,1", "1,b,0.0,0.0,0,LR,,,1",
                 "2,a,3.0,4.0,0,LR,,,1").getvalue()
    for _ in csv_reads(monkeypatch):
        with pytest.raises(ParseError, match="frame 2 has 1 agents; other "
                                             "frames have 2") as exc:
            parse_tracking(io.StringIO(src))
        assert exc.value.line is None


@pytest.mark.parametrize("line_text,fragment", [
    ('{"frame_id": 1}', "missing key 'positions'"),
    ('{"positions": [[0.0, 0.0]]}', "missing key 'frame_id'"),
    ('{"frame_id": "x", "positions": [[0.0, 0.0]]}', "frame_id must be"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "agent_ids": ["a", "b"]}',
     "2 agent_ids for 1 positions"),
    ('{"frame_id": 1, "positions": [["a", 0.0]]}', "non-numeric position"),
    ('{bad json', "invalid JSON"),
    # lines the decoder's scanner starts on; the messages are json.loads'
    ('{"frame_id": 1, "positions": [[0.0, 0.0]]} {}',
     "invalid JSON: Extra data"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "team": }',
     "invalid JSON: Expecting value"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]]', "invalid JSON: Expecting"),
    # JSON types are not coerced
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "period": "x"}',
     "period must be an integer"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "period": 1.7}',
     "period must be an integer"),
    ('{"frame_id": true, "positions": [[0.0, 0.0]]}', "frame_id must be"),
    ('"frame_id positions"', "expected a JSON object"),
    ('{"frame_id": 1, "positions": 5}', "positions must be a non-empty list"),
    ('{"frame_id": 1, "positions": []}', "positions must be a non-empty list"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "attack_direction": "XX"}',
     "attack_direction must be LR or RL"),
    ('{"frame_id": 1, "positions": [["1.5", true]]}', "non-numeric position"),
    ('{"frame_id": 1, "positions": [[1.5, true]]}', "non-numeric position"),
    ('{"frame_id": 1, "positions": [[1.5, 2.0, 3.0]]}',
     "non-numeric position"),
    ('{"frame_id": 1, "positions": [[1e999999, 0]]}', "non-finite position"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "agent_ids": null}',
     "agent_ids must be a list"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "team": 7}',
     "team must be a string"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0], [1.0, 1.0]], '
     '"agent_ids": ["a", "a"]}', "duplicate agent 'a' in frame 1"),
    ('{"frame_id": 99999999999999999999, "positions": [[0.0, 0.0]]}',
     "frame_id 99999999999999999999 out of range"),
    # agent ids are JSON strings, not values printed as strings
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "agent_ids": [7]}',
     "agent_ids entries must be strings, got 7"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "agent_ids": [null]}',
     "agent_ids entries must be strings, got None"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "agent_ids": [{"k": 2}]}',
     "agent_ids entries must be strings, got {'k': 2}"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "agent_ids": [true]}',
     "agent_ids entries must be strings, got True"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "agent_ids": [["a"]]}',
     r"agent_ids entries must be strings, got \['a'\]"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0], [1.0, 1.0]], '
     '"agent_ids": ["a", 2.5]}', "agent_ids entries must be strings, got 2.5"),
])
def test_jsonl_errors(line_text, fragment, monkeypatch):
    good = '{"frame_id": 0, "positions": [[0.0, 0.0]]}'
    for _ in jsonl_reads(monkeypatch):
        with pytest.raises(ParseError, match=fragment) as exc:
            parse_tracking(io.StringIO(good + "\n" + line_text + "\n"),
                           format="jsonl")
        assert exc.value.line == 2


def test_jsonl_agent_ids_are_never_printed_into_strings(monkeypatch):
    # these used to parse to the ids '1', 'None' and "{'k': 2}"
    line = ('{"frame_id": 0, "positions": [[0, 0], [1, 1], [2, 2]], '
            '"agent_ids": [1, null, {"k": 2}]}')
    for _ in jsonl_reads(monkeypatch):
        with pytest.raises(ParseError, match="agent_ids entries must be "
                           "strings, got 1") as exc:
            parse_tracking(io.StringIO(line + "\n"), format="jsonl")
        assert exc.value.line == 1


@pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "null"])
def test_jsonl_is_event_must_be_a_json_boolean(value, monkeypatch):
    # bool("false") is True: a quoted flag must not be coerced
    good = '{"frame_id": 0, "positions": [[0.0, 0.0]], "is_event": false}'
    bad = '{"frame_id": 1, "positions": [[0.0, 0.0]], "is_event": %s}' % value
    for _ in jsonl_reads(monkeypatch):
        with pytest.raises(ParseError,
                           match="is_event must be true or false") as exc:
            parse_tracking(io.StringIO(good + "\n" + bad + "\n"),
                           format="jsonl")
        assert exc.value.line == 2


@pytest.mark.parametrize("point", ['["nan", 0.0]', "[0.0, NaN]",
                                   "[Infinity, 0.0]", '[1.0, "-inf"]'])
def test_jsonl_non_finite_position_names_its_line(point, monkeypatch):
    # a quoted coordinate is not a JSON number, whatever it spells
    fragment = "non-numeric" if '"' in point else "non-finite"
    good = '{"frame_id": 0, "positions": [[0.0, 0.0]]}'
    bad = '{"frame_id": 1, "positions": [%s]}' % point
    for _ in jsonl_reads(monkeypatch):
        with pytest.raises(ParseError, match=f"{fragment} position") as exc:
            parse_tracking(io.StringIO(good + "\n" + bad + "\n"),
                           format="jsonl")
        assert exc.value.line == 2


@pytest.mark.parametrize("x,y", [("nan", "0.0"), ("1.0", "inf"),
                                 ("-Infinity", "2.0")])
def test_csv_non_finite_position_names_its_line(x, y, monkeypatch):
    for _ in csv_reads(monkeypatch):
        src = header("1,a,1.0,2.0,0,LR,,,1", f"2,a,{x},{y},0,LR,,,1")
        with pytest.raises(ParseError, match="non-finite position") as exc:
            parse_tracking(src)
        assert exc.value.line == 3


def test_jsonl_duplicate_frame_id(monkeypatch):
    text = ('{"frame_id": 4, "positions": [[0.0, 0.0]]}\n'
            '{"frame_id": 4, "positions": [[1.0, 1.0]]}\n')
    for _ in jsonl_reads(monkeypatch):
        with pytest.raises(ParseError, match="duplicate frame_id 4") as exc:
            parse_tracking(io.StringIO(text), format="jsonl")
        assert exc.value.line == 2


def test_jsonl_frame_id_repeated_in_a_later_part_names_its_line(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 3)
    monkeypatch.setattr(ingest, "JSONL_CHUNK_LINES", 2)
    lines = ['{"frame_id": %d, "positions": [[%d.0, 0.0]]}' % (i, i)
             for i in range(9)]
    lines[7] = lines[1]   # three parts of three lines each
    with pytest.raises(ParseError, match="duplicate frame_id 1") as exc:
        parse_tracking(io.StringIO("\n".join(lines) + "\n"), format="jsonl")
    assert exc.value.line == 8


def test_jsonl_lines_may_hold_json_whitespace(monkeypatch):
    lines = ['{"frame_id": 0, "positions": [[1.0, 2.0]]}',
             ' \t{"frame_id": 1, "positions": [[3.0, 4.0]]}\r',
             '{ "frame_id": 2, "positions": [[5.0, 6.0]] }  ']
    for _ in jsonl_reads(monkeypatch):
        ds = parse_tracking(io.StringIO("\n".join(lines)), format="jsonl")
        assert ds.frame_id.tolist() == [0, 1, 2]
        assert ds.positions.ravel().tolist() == [1, 2, 3, 4, 5, 6]


def test_unknown_format():
    with pytest.raises(ValueError, match="unknown format 'xml'"):
        parse_tracking(io.StringIO("x"), format="xml")


# normalization pipeline


def test_attack_direction_reflects_rl_frames():
    ds = small_dataset()
    out = normalize_attack_direction(ds)
    assert np.array_equal(out.frames[0].positions, -ds.frames[0].positions)
    assert out.frames[0].attack_direction == "LR"
    # LR frames pass through untouched
    assert out.positions[1].tobytes() == ds.positions[1].tobytes()


def test_attack_direction_idempotent():
    once = normalize_attack_direction(small_dataset())
    assert normalize_attack_direction(once) is once


def test_center_normalize_zeroes_means():
    rng = np.random.default_rng(9)
    frames = tuple(Frame(frame_id=i, positions=rng.normal(2.0, 5.0, (6, 2)),
                         agent_ids=[str(j) for j in range(6)])
                   for i in range(4))
    out = center_normalize(Dataset.from_frames(frames))
    for f in out.frames:
        assert np.abs(f.positions.mean(axis=0)).max() < 1e-12


def test_center_normalize_idempotent():
    rng = np.random.default_rng(10)
    frames = tuple(Frame(frame_id=i, positions=rng.normal(size=(5, 2)),
                         agent_ids=[str(j) for j in range(5)])
                   for i in range(3))
    once = center_normalize(Dataset.from_frames(frames))
    # already-centered frames are passed through, not re-subtracted
    assert center_normalize(once) is once


def test_normalization_bit_identical_to_per_frame_loop():
    rng = np.random.default_rng(15)
    frames = [Frame(frame_id=i, positions=rng.normal(50.0, 30.0, (7, 2)),
                    agent_ids=[str(j) for j in range(7)],
                    attack_direction="RL" if i % 3 else "LR")
              for i in range(200)]
    frames.append(Frame(frame_id=200, positions=[[-1.0, 2.0], [1.0, -2.0]] * 3
                        + [[0.0, -0.0]], agent_ids=[str(j) for j in range(7)]))
    out = center_normalize(normalize_attack_direction(
        Dataset.from_frames(frames)))
    for f, got in zip(frames, out.positions):
        pos = -f.positions if f.attack_direction == "RL" else f.positions
        mean = pos.mean(axis=0)
        ref = pos if np.hypot(mean[0], mean[1]) <= 1e-12 else pos - mean
        assert got.tobytes() == ref.tobytes()


def test_filter_key_frames():
    ds = small_dataset()
    kept = filter_key_frames(ds)
    assert [f.frame_id for f in kept.frames] == [0]
    with pytest.raises(EmptySelectionError, match="no event frames"):
        filter_key_frames(Dataset.from_frames((ds.frames[1],)))


def test_filter_metadata():
    ds = small_dataset()
    assert filter_metadata(ds, team="home").n_frames == 1
    assert filter_metadata(ds, game="g1").n_frames == 2
    assert filter_metadata(ds, team="away", period=1).frames[0].frame_id == 7
    with pytest.raises(EmptySelectionError, match="no frames match"):
        filter_metadata(ds, team="neutral")


# flatten / unflatten


def test_flatten_row_order():
    ds = small_dataset()
    flat = flatten(ds)
    assert flat.shape == (4, 2)
    s = ds.positions
    for i in range(ds.n_frames):
        for j in range(ds.n_agents):
            assert np.array_equal(flat[i * ds.n_agents + j], s[i, j])


def test_unflatten_inverts_flatten():
    ds = small_dataset()
    back = unflatten(flatten(ds), like=ds)
    assert_datasets_equal(ds, back)


def test_unflatten_borrows_labels():
    ds = small_dataset()
    pts = np.zeros((4, 2))
    back = unflatten(pts, like=ds)
    assert back.frames[0].team == "home"
    assert back.frames[0].agent_ids == ds.frames[0].agent_ids
    assert np.array_equal(back.frames[1].positions, np.zeros((2, 2)))


def test_unflatten_shape_check():
    ds = small_dataset()
    with pytest.raises(ValueError, match=r"expected shape \(4, 2\)"):
        unflatten(np.zeros((5, 2)), like=ds)


# container validation


def test_frame_validation():
    with pytest.raises(ValueError, match=r"positions must be \(N, 2\)"):
        Frame(frame_id=0, positions=[1.0, 2.0], agent_ids=("a",))
    with pytest.raises(ValueError, match="non-finite"):
        Frame(frame_id=0, positions=[[np.nan, 0.0]], agent_ids=("a",))
    with pytest.raises(ValueError, match="2 agent ids for 1 positions"):
        Frame(frame_id=0, positions=[[0.0, 0.0]], agent_ids=("a", "b"))
    with pytest.raises(ValueError, match="duplicate agent ids"):
        Frame(frame_id=0, positions=[[0.0, 0.0], [1.0, 1.0]],
              agent_ids=("a", "a"))
    with pytest.raises(ValueError, match="bad attack_direction"):
        Frame(frame_id=0, positions=[[0.0, 0.0]], agent_ids=("a",),
              attack_direction="UP")


def test_frame_positions_frozen():
    f = Frame(frame_id=0, positions=[[0.0, 0.0]], agent_ids=("1",))
    assert not f.positions.flags.writeable
    assert f.agent_ids == ("1",)


@pytest.mark.parametrize("bad", [1, None, 2.5, b"a", ("a",)])
def test_frame_rejects_non_string_agent_ids(bad):
    with pytest.raises(ValueError, match="frame 0: agent ids must be strings"):
        Frame(frame_id=0, positions=[[0.0, 0.0], [1.0, 1.0]],
              agent_ids=["a", bad])


def test_frame_agent_ids_are_never_printed_into_strings():
    # the mixed ids that used to become the table ('1', 'None')
    with pytest.raises(ValueError, match="got 1"):
        Dataset.from_frames([Frame(frame_id=0, positions=[[0, 0], [1, 1]],
                                   agent_ids=[1, None])])
    f = Frame(frame_id=0, positions=[[0.0, 0.0]], agent_ids=np.array(["a"]))
    assert type(f.agent_ids[0]) is str


def test_dataset_validation():
    with pytest.raises(ValueError, match="at least one frame"):
        Dataset.from_frames(())
    a = Frame(frame_id=0, positions=[[0.0, 0.0]], agent_ids=("a",))
    b = Frame(frame_id=1, positions=[[0.0, 0.0], [1.0, 1.0]],
              agent_ids=("a", "b"))
    with pytest.raises(ValueError, match="frame 1 has 2 agents, expected 1"):
        Dataset.from_frames((a, b))


def test_concat_datasets():
    ds = small_dataset()
    both = concat_datasets([ds, ds])
    assert both.n_frames == 4
    assert [f.frame_id for f in both.frames] == [0, 7, 0, 7]
    with pytest.raises(ValueError, match="nothing to concatenate"):
        concat_datasets([])


def test_concat_merges_agent_tables():
    a, b = small_dataset(), replace(small_dataset(), frame_id=[1, 2])
    both = concat_datasets([b.take([1]), a.take([0])])
    assert both.agent_table == ("a", "b", "p0", "p1")
    assert both.agent_ids.tolist() == [["a", "b"], ["p0", "p1"]]


def test_take_and_agent_tracks():
    ds = roundtrip_csv(small_dataset()).take([1, 0])
    assert ds.frame_id.tolist() == [7, 0]
    with pytest.raises(ValueError, match="agent 'p0' missing from frame 7"):
        ds.agent_tracks()
    tracks = ds.take([1]).agent_tracks()
    assert np.array_equal(tracks, small_dataset().positions[:1])


# column conversion in chunks


def test_csv_chunks_join_seamlessly(monkeypatch):
    rng = np.random.default_rng(14)
    frames = [Frame(frame_id=i, positions=rng.normal(size=(3, 2)),
                    agent_ids=("c", "a", "b"), team=("x", "y")[i % 2])
              for i in range(20)]
    buf = io.StringIO()
    write_tracking_csv(Dataset.from_frames(frames), buf)
    lines = buf.getvalue().splitlines()
    text = "\n".join(lines[:10] + [""] + lines[10:]) + "\n"   # a blank line
    whole = parse_tracking(io.StringIO(text))
    monkeypatch.setattr(ingest, "CSV_CHUNK_ROWS", 7)
    run_tasks, parts = parallel.run_tasks, []

    def counted(tasks):
        parts.append(len(tasks))
        return run_tasks(tasks)

    monkeypatch.setattr(parallel, "run_tasks", counted)
    for cpus in (1, 3):   # one part, then three
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert_columns_equal(whole, parse_tracking(io.StringIO(text)))
        assert parts[-1] == cpus
        for eol in ("\n", "\r\n"):
            bad = lines[:10] + [""] + lines[10:40] + ["9,a,1.0,x,0,LR,,,1"]
            with pytest.raises(ParseError,
                               match="non-numeric position") as exc:
                parse_tracking(io.StringIO(eol.join(bad) + eol))
            assert exc.value.line == 42
            dup = lines[:30] + [lines[3]]
            with pytest.raises(ParseError, match="duplicate agent") as exc:
                parse_tracking(io.StringIO(eol.join(dup) + eol))
            assert exc.value.line == 31


# the two CSV tokenizers: str.split for text without a quote or CR,
# csv.reader otherwise


def reader_path(text):
    """The same CSV text with its header's first name quoted: csv.reader
    then tokenizes it, and every record and line number is unchanged."""
    assert text.startswith("frame_id,")
    return '"frame_id"' + text[len("frame_id"):]


def parse_or_error(text):
    try:
        return parse_tracking(io.StringIO(text))
    except ParseError as exc:
        return str(exc), exc.line


# odd field values by column: some are malformed, some are valid spellings
# that Python's int/float accept (" 3", "+2", "1_0", "1e-400")
ODD_FIELDS = [
    ["x", "1.5", "", " 3", "+2", "1_0", "99999999999999999999",
     "-9223372036854775809", "9223372036854775807"],
    ["", "p0", " p0", "q", "t" * 17],
    ["nope", "nan", "inf", "-inf", "1e999", "", " 2.5", "1_0.5", "1e-400",
     "12.500000000000001"],
    ["nan", "Infinity", "x", "0x1", "-0.0"],
    ["0", "1", "2", "yes", " 1", ""],
    ["LR", "RL", "lr", "UP", ""],
    ["", "home", "away", " x", "a;b", "t" * 17],
    ["", "g1", "g2", "t" * 17],
    ["1", "2", "x", "", "99999999999999999999", "1.0"],
]


@st.composite
def quote_free_csv(draw):
    """CSV text without a quote, its lines ending in LF or all in CRLF:
    valid rows, then a few mutations."""
    rnd = draw(st.randoms(use_true_random=False))
    rows = []
    for fid in range(draw(st.integers(1, 4))):
        labels = [rnd.choice("01"), rnd.choice(["LR", "RL"]),
                  rnd.choice(["", "home"]), "g1", rnd.choice("12")]
        for a in range(draw(st.integers(1, 3))):
            x, y = (repr(rnd.randint(-400, 400) / 4) for _ in range(2))
            rows.append([str(fid), f"p{a}", x, y] + labels)
    rnd.shuffle(rows)
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        i = rnd.randrange(len(lines))
        fields = lines[i].split(",")
        kind = draw(st.sampled_from(["field"] * 4 + [
            "drop", "extra", "blank", "copy", "delete"]))
        if kind == "field":   # includes frame labels that now disagree
            c = rnd.randrange(min(len(fields), len(ODD_FIELDS)))
            fields[c] = rnd.choice(ODD_FIELDS[c])
        elif kind == "drop":
            del fields[rnd.randrange(len(fields))]
        elif kind == "extra":
            fields.insert(rnd.randrange(len(fields) + 1), "x")
        elif kind == "blank":
            lines.insert(i, rnd.choice(["", "", " ", "\t", "  "]))
        elif kind == "copy":   # a duplicate agent
            lines.insert(rnd.randrange(len(lines) + 1), lines[i])
        elif len(lines) > 1:   # delete: uneven agent counts
            del lines[i]
        if kind in ("field", "drop", "extra"):
            lines[i] = ",".join(fields)
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    text = eol.join([",".join(CSV_COLUMNS)] + lines)
    return text + eol * draw(st.integers(0, 2))


@settings(max_examples=400, deadline=None)
@given(quote_free_csv(), st.sampled_from([1, 2, 3, 5, 1 << 14]),
       st.sampled_from([None, None, 16]), st.sampled_from([1, 3]))
def test_split_and_reader_tokenizers_agree(text, chunk_rows, limit, cpus):
    from unittest import mock

    assert '"' not in text and text.count("\r") == text.count("\r\n")
    old_limit = csv.field_size_limit()
    try:
        if limit is not None:
            csv.field_size_limit(limit)
        # the split path reads in parts on up to ``cpus`` processes
        with mock.patch.object(ingest, "CSV_CHUNK_ROWS", chunk_rows), \
                mock.patch.object(parallel, "usable_cpus", lambda: cpus):
            split, reader = (parse_or_error(t)
                             for t in (text, reader_path(text)))
    finally:
        csv.field_size_limit(old_limit)
    if isinstance(split, Dataset) and isinstance(reader, Dataset):
        assert split.agent_table == reader.agent_table
        assert_columns_equal(split, reader)
    else:
        assert split == reader


def test_tokenizers_agree_on_a_valid_file():
    ds = small_dataset()
    buf = io.StringIO()
    write_tracking_csv(ds, buf)
    text = buf.getvalue().replace("\r\n", "\n")
    assert_datasets_equal(parse_tracking(io.StringIO(text)), ds)
    assert_datasets_equal(parse_tracking(io.StringIO(reader_path(text))), ds)


def test_quoted_fields_still_parse():
    ds = parse_tracking(header('1,a,1.0,2.0,0,LR,"a,b","say ""hi""",1',
                               '1,b,3.0,4.0,0,LR,"a,b","say ""hi""",1'))
    assert ds.team.tolist() == ["a,b"] and ds.game.tolist() == ['say "hi"']
    assert ds.agent_table == ("a", "b")


@pytest.mark.parametrize("chunk_rows", [1, 2, 1 << 14])
def test_csv_error_lines_are_physical_after_a_quoted_newline(monkeypatch,
                                                             chunk_rows):
    for _ in csv_reads(monkeypatch):   # csv.reader text is never cut
        monkeypatch.setattr(ingest, "CSV_CHUNK_ROWS", chunk_rows)
        # records on lines 2-3 and 4-5 each hold a team with a newline
        src = header('1,a,1.0,2.0,0,LR,"home\nteam",,1',
                     '1,b,1.0,2.0,0,LR,"home\nteam",,1',
                     '2,a,bad,2.0,0,LR,"home",,1')
        with pytest.raises(ParseError, match="non-numeric position") as exc:
            parse_tracking(src)
        assert exc.value.line == 6
        # records on lines 2-4 and 6-8 around a blank line 5
        src = header('1,a,1.0,2.0,0,LR,"home\n\nteam",,1', "",
                     '1,a,1.0,2.0,0,LR,"home\n\nteam",,1')
        with pytest.raises(ParseError, match="duplicate agent") as exc:
            parse_tracking(src)
        assert exc.value.line == 6
        src = header('1,a,1.0,2.0,0,LR,"home\nteam",,1',
                     "1,b,1.0,2.0\r,0,LR,,,1")
        with pytest.raises(ParseError, match="carriage return") as exc:
            parse_tracking(src)
        assert exc.value.line == 4


def test_crlf_and_cr_only_line_ends(monkeypatch):
    rows = ("1,a,1.0,2.0,0,LR,,,1", "1,b,3.0,4.0,0,LR,,,1")
    lf = header(*rows).getvalue()
    buf = io.StringIO()
    write_tracking_csv(small_dataset(), buf)
    assert "\r\n" in buf.getvalue()
    reader_tokens = ingest._reader_tokens
    for _ in csv_reads(monkeypatch):
        monkeypatch.setattr(ingest, "_reader_tokens", reader_tokens)
        assert_columns_equal(parse_tracking(io.StringIO(lf)),
                             parse_tracking(io.StringIO(
                                 lf.replace("\n", "\r\n"))))
        with pytest.raises(ParseError, match="carriage return") as exc:
            parse_tracking(io.StringIO(lf.replace("\n", "\r")))
        assert exc.value.line == 1
        with pytest.raises(ParseError, match="carriage return") as exc:
            parse_tracking(io.StringIO(lf.replace("1,b,3.0", "1,b\r,3.0")))
        assert exc.value.line == 3
        # a CRLF file without quotes, as write_tracking_csv writes one, is
        # split without csv.reader
        monkeypatch.setattr(ingest, "_reader_tokens", None)
        assert_datasets_equal(parse_tracking(io.StringIO(buf.getvalue())),
                              small_dataset())


def test_other_csv_reader_errors_name_the_record(monkeypatch):
    """csv.reader before Python 3.11 rejects a NUL character; any error of
    csv.reader other than a CR or the field limit keeps its message."""
    real = csv.reader

    def reader(lines):
        rows = real(lines)

        class NulReader:
            def __iter__(self):
                return self

            def __next__(self):
                rec = next(rows)
                if "\0" in "".join(rec):
                    raise csv.Error("line contains NUL")
                return rec

            line_num = property(lambda self: rows.line_num)
        return NulReader()

    monkeypatch.setattr(csv, "reader", reader)
    for _ in csv_reads(monkeypatch):
        src = header('1,a,1.0,2.0,0,LR,"home\nteam",,1',
                     '1,b,1.0,2.0,0,LR,"x\ny\0",,1')
        with pytest.raises(ParseError, match="malformed CSV: line contains "
                                             "NUL") as exc:
            parse_tracking(src)
        assert exc.value.line == 4


@pytest.mark.parametrize("quote", [False, True])
def test_field_limit_is_the_same_on_both_tokenizers(quote, monkeypatch):
    limit = csv.field_size_limit()
    team = f'"{"t" * (limit + 1)}"' if quote else "t" * (limit + 1)
    half = "t" * (limit // 2 + 1)
    for _ in csv_reads(monkeypatch):
        src = header("1,a,1.0,2.0,0,LR,,,1", f"1,b,3.0,4.0,0,LR,{team},,1")
        with pytest.raises(ParseError, match="longer than the CSV field "
                                             f"limit of {limit}") as exc:
            parse_tracking(src)
        assert exc.value.line == 3
        if quote:   # a record over lines 3-4 is reported at its first line
            src = header("1,a,1.0,2.0,0,LR,,,1",
                         f'1,b,3.0,4.0,0,LR,"x\n{team[1:]},,1')
            with pytest.raises(ParseError, match="field limit") as exc:
                parse_tracking(src)
            assert exc.value.line == 3
        # an earlier bad line (in one part, in the same chunk) is still
        # reported first
        src = header("1,a,bad,2.0,0,LR,,,1", f"1,b,3.0,4.0,0,LR,{team},,1")
        with pytest.raises(ParseError, match="non-numeric position") as exc:
            parse_tracking(src)
        assert exc.value.line == 2
        # a line longer than the limit whose fields are all within it is
        # fine
        ds = parse_tracking(header(f"1,a,1.0,2.0,0,LR,{half},{half},1"))
        assert ds.team.tolist() == [half] and ds.game.tolist() == [half]


@pytest.mark.parametrize("fmt,text", [
    ("csv", ",".join(CSV_COLUMNS) + "\n1,a,1.0,2.0,0,LR,,,1\n"
     "1,b,3.0,4.0,0,LR,M\xfcnchen,,1\n"),
    ("jsonl", '{"frame_id": 1, "positions": [[0, 0]]}\n\n'
     '{"frame_id": 2, "positions": [[0, 0]], "team": "M\xfcnchen"}\n'),
])
def test_undecodable_byte_names_its_line(tmp_path, fmt, text):
    data = text.encode("latin-1")
    path = tmp_path / f"in.{fmt}"
    path.write_bytes(data)
    for source in (path, io.BytesIO(data)):
        with pytest.raises(ParseError, match=r"byte 0xfc is not UTF-8") as \
                exc:
            parse_tracking(source, format=fmt)
        assert exc.value.line == 3


def test_jsonl_chunks_join_seamlessly(monkeypatch):
    rng = np.random.default_rng(16)
    frames = [Frame(frame_id=i, positions=rng.normal(size=(3, 2)),
                    agent_ids=("c", "a", "b"), period=1 + i % 2)
              for i in range(20)]
    buf = io.StringIO()
    write_tracking_jsonl(Dataset.from_frames(frames), buf)
    lines = buf.getvalue().splitlines()
    text = "\n".join(lines[:5] + ["  "] + lines[5:]) + "\n"   # a blank line
    whole = parse_tracking(io.StringIO(text), format="jsonl")
    monkeypatch.setattr(ingest, "JSONL_CHUNK_LINES", 4)
    for cpus in (1, 3):   # one part, then three
        monkeypatch.setattr(parallel, "usable_cpus", lambda: cpus)
        assert_columns_equal(whole, parse_tracking(io.StringIO(text),
                                                   format="jsonl"))
        # a frame id repeated from an earlier chunk is an error on its own,
        # and the first one, ahead of a malformed line later in the chunk
        for tail in ([], ['{"frame_id": 99}']):
            bad = lines[:9] + [lines[2]] + tail
            with pytest.raises(ParseError,
                               match="duplicate frame_id 2") as exc:
                parse_tracking(io.StringIO("\n".join(bad) + "\n"),
                               format="jsonl")
            assert exc.value.line == 10


# properties


def assert_columns_equal(a, b):
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.agent_ids, b.agent_ids)
    for name in ("frame_id", "is_event", "right_to_left", "team", "game",
                 "period"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


@st.composite
def datasets(draw, max_coord=1e6):
    s, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    coord = st.floats(-max_coord, max_coord, allow_nan=False)
    frames = []
    for fid in draw(st.lists(st.integers(-99, 99), min_size=s, max_size=s,
                             unique=True)):
        ids = draw(st.permutations([f"p{j}" for j in range(n + 1)]))[:n]
        frames.append(Frame(
            frame_id=fid, agent_ids=ids,
            positions=draw(st.lists(st.tuples(coord, coord), min_size=n,
                                    max_size=n)),
            is_event=draw(st.booleans()),
            attack_direction=draw(st.sampled_from(["LR", "RL"])),
            team=draw(st.sampled_from(["", "home", "away"])),
            game=draw(st.sampled_from(["g1", "g2"])),
            period=draw(st.integers(1, 2))))
    return Dataset.from_frames(frames)


@settings(max_examples=60, deadline=None)
@given(datasets(), st.randoms(use_true_random=False))
def test_shuffled_rows_parse_to_equal_arrays(ds, rnd):
    for write, fmt, skip in ((write_tracking_csv, "csv", 1),
                             (write_tracking_jsonl, "jsonl", 0)):
        buf = io.StringIO()
        write(ds, buf)
        lines = buf.getvalue().splitlines()
        body = lines[skip:]
        rnd.shuffle(body)
        shuffled = "\n".join(lines[:skip] + body) + "\n"
        assert_columns_equal(
            parse_tracking(io.StringIO(buf.getvalue()), format=fmt),
            parse_tracking(io.StringIO(shuffled), format=fmt))


# within about a pitch, the residual mean of a centered frame is far below
# the 1e-12 pass-through threshold
@settings(max_examples=100, deadline=None)
@given(datasets(max_coord=200.0))
def test_normalization_is_idempotent_bit_for_bit(ds):
    once = center_normalize(normalize_attack_direction(ds))
    twice = center_normalize(normalize_attack_direction(once))
    assert twice.positions.tobytes() == once.positions.tobytes()
    assert not twice.right_to_left.any()


@settings(max_examples=100, deadline=None)
@given(datasets(), st.sampled_from([None, "", "home", "away"]),
       st.sampled_from([None, "g1", "g2", "g3"]),
       st.sampled_from([None, 1, 2]))
def test_filter_metadata_matches_per_frame_predicate(ds, team, game, period):
    expect = [f.frame_id for f in ds.frames
              if (team is None or f.team == team)
              and (game is None or f.game == game)
              and (period is None or f.period == period)]
    if not expect:
        with pytest.raises(EmptySelectionError):
            filter_metadata(ds, team=team, game=game, period=period)
    else:
        kept = filter_metadata(ds, team=team, game=game, period=period)
        assert kept.frame_id.tolist() == expect


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_from_frames_round_trips_every_column(ds):
    assert_columns_equal(ds, Dataset.from_frames(ds.frames))
