"""Parsing, canonicalization, normalization, and the flatten round trip."""

import io
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolealign import ingest
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
def test_csv_field_errors(row, line, fragment):
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_tracking(header(row))
    assert exc.value.line == line


def test_csv_error_line_counts_from_file_start():
    src = header("1,a,1.0,2.0,0,LR,,,1", "2,a,bad,2.0,0,LR,,,1")
    with pytest.raises(ParseError) as exc:
        parse_tracking(src)
    assert exc.value.line == 3 and str(exc.value).startswith("line 3:")


def test_csv_bad_header():
    with pytest.raises(ParseError, match="missing columns") as exc:
        parse_tracking(io.StringIO("frame_id,agent_id\n"))
    assert exc.value.line == 1


def test_csv_empty_and_headerless():
    with pytest.raises(ParseError, match="empty input"):
        parse_tracking(io.StringIO(""))
    with pytest.raises(ParseError, match="no data rows"):
        parse_tracking(header())


def test_csv_duplicate_agent():
    src = header("1,a,1.0,2.0,0,LR,,,1", "1,a,3.0,4.0,0,LR,,,1")
    with pytest.raises(ParseError, match="duplicate agent 'a' in frame 1") as exc:
        parse_tracking(src)
    assert exc.value.line == 3


def test_csv_inconsistent_frame_fields():
    src = header("1,a,1.0,2.0,0,LR,,,1", "1,b,3.0,4.0,1,LR,,,1")
    with pytest.raises(ParseError, match="frame-level fields disagree"):
        parse_tracking(src)


def test_uneven_agent_counts():
    src = header("1,a,1.0,2.0,0,LR,,,1", "1,b,0.0,0.0,0,LR,,,1",
                 "2,a,3.0,4.0,0,LR,,,1")
    with pytest.raises(ParseError,
                       match="frame 2 has 1 agents; other frames have 2"):
        parse_tracking(src)


@pytest.mark.parametrize("line_text,fragment", [
    ('{"frame_id": 1}', "missing key 'positions'"),
    ('{"positions": [[0.0, 0.0]]}', "missing key 'frame_id'"),
    ('{"frame_id": "x", "positions": [[0.0, 0.0]]}', "frame_id must be"),
    ('{"frame_id": 1, "positions": [[0.0, 0.0]], "agent_ids": ["a", "b"]}',
     "2 agent_ids for 1 positions"),
    ('{"frame_id": 1, "positions": [["a", 0.0]]}', "non-numeric position"),
    ('{bad json', "invalid JSON"),
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
def test_jsonl_errors(line_text, fragment):
    good = '{"frame_id": 0, "positions": [[0.0, 0.0]]}'
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_tracking(io.StringIO(good + "\n" + line_text + "\n"),
                       format="jsonl")
    assert exc.value.line == 2


def test_jsonl_agent_ids_are_never_printed_into_strings():
    # these used to parse to the ids '1', 'None' and "{'k': 2}"
    line = ('{"frame_id": 0, "positions": [[0, 0], [1, 1], [2, 2]], '
            '"agent_ids": [1, null, {"k": 2}]}')
    with pytest.raises(ParseError, match="agent_ids entries must be "
                       "strings, got 1") as exc:
        parse_tracking(io.StringIO(line + "\n"), format="jsonl")
    assert exc.value.line == 1


@pytest.mark.parametrize("value", ['"false"', '"true"', "0", "1", "null"])
def test_jsonl_is_event_must_be_a_json_boolean(value):
    # bool("false") is True: a quoted flag must not be coerced
    good = '{"frame_id": 0, "positions": [[0.0, 0.0]], "is_event": false}'
    bad = '{"frame_id": 1, "positions": [[0.0, 0.0]], "is_event": %s}' % value
    with pytest.raises(ParseError, match="is_event must be true or false") \
            as exc:
        parse_tracking(io.StringIO(good + "\n" + bad + "\n"), format="jsonl")
    assert exc.value.line == 2


@pytest.mark.parametrize("point", ['["nan", 0.0]', "[0.0, NaN]",
                                   "[Infinity, 0.0]", '[1.0, "-inf"]'])
def test_jsonl_non_finite_position_names_its_line(point):
    # a quoted coordinate is not a JSON number, whatever it spells
    fragment = "non-numeric" if '"' in point else "non-finite"
    good = '{"frame_id": 0, "positions": [[0.0, 0.0]]}'
    bad = '{"frame_id": 1, "positions": [%s]}' % point
    with pytest.raises(ParseError, match=f"{fragment} position") as exc:
        parse_tracking(io.StringIO(good + "\n" + bad + "\n"), format="jsonl")
    assert exc.value.line == 2


@pytest.mark.parametrize("x,y", [("nan", "0.0"), ("1.0", "inf"),
                                 ("-Infinity", "2.0")])
def test_csv_non_finite_position_names_its_line(x, y):
    src = header("1,a,1.0,2.0,0,LR,,,1", f"2,a,{x},{y},0,LR,,,1")
    with pytest.raises(ParseError, match="non-finite position") as exc:
        parse_tracking(src)
    assert exc.value.line == 3


def test_jsonl_duplicate_frame_id():
    text = ('{"frame_id": 4, "positions": [[0.0, 0.0]]}\n'
            '{"frame_id": 4, "positions": [[1.0, 1.0]]}\n')
    with pytest.raises(ParseError, match="duplicate frame_id 4"):
        parse_tracking(io.StringIO(text), format="jsonl")


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
    f = Frame(frame_id=0, positions=[[0.0, 0.0]], agent_ids=(1,))
    assert not f.positions.flags.writeable
    assert f.agent_ids == ("1",)  # ids coerced to strings


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
    assert_columns_equal(whole, parse_tracking(io.StringIO(text)))
    bad = lines[:10] + [""] + lines[10:40] + ["9,a,1.0,x,0,LR,,,1"]
    with pytest.raises(ParseError, match="non-numeric position") as exc:
        parse_tracking(io.StringIO("\n".join(bad) + "\n"))
    assert exc.value.line == 42
    dup = lines[:30] + [lines[3]]
    with pytest.raises(ParseError, match="duplicate agent") as exc:
        parse_tracking(io.StringIO("\n".join(dup) + "\n"))
    assert exc.value.line == 31


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
    assert_columns_equal(whole, parse_tracking(io.StringIO(text),
                                               format="jsonl"))
    # a frame id repeated from an earlier chunk is an error on its own, and
    # the first one, ahead of a malformed line later in the same chunk
    for tail in ([], ['{"frame_id": 99}']):
        bad = lines[:9] + [lines[2]] + tail
        with pytest.raises(ParseError, match="duplicate frame_id 2") as exc:
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
