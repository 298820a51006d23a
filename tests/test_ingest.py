"""Parsing, canonicalization, normalization, and the flatten round trip."""

import io

import numpy as np
import pytest

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
    return Dataset(frames=(f0, f1))


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
        ds = Dataset(frames=tuple(frames))
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
    ds = Dataset(frames=(f,))
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
])
def test_jsonl_errors(line_text, fragment):
    good = '{"frame_id": 0, "positions": [[0.0, 0.0]]}'
    with pytest.raises(ParseError, match=fragment) as exc:
        parse_tracking(io.StringIO(good + "\n" + line_text + "\n"),
                       format="jsonl")
    assert exc.value.line == 2


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
    good = '{"frame_id": 0, "positions": [[0.0, 0.0]]}'
    bad = '{"frame_id": 1, "positions": [%s]}' % point
    with pytest.raises(ParseError, match="non-finite position") as exc:
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
    assert out.frames[1] is ds.frames[1]  # LR frames pass through untouched


def test_attack_direction_idempotent():
    once = normalize_attack_direction(small_dataset())
    twice = normalize_attack_direction(once)
    assert all(a is b for a, b in zip(once.frames, twice.frames))


def test_center_normalize_zeroes_means():
    rng = np.random.default_rng(9)
    frames = tuple(Frame(frame_id=i, positions=rng.normal(2.0, 5.0, (6, 2)),
                         agent_ids=[str(j) for j in range(6)])
                   for i in range(4))
    out = center_normalize(Dataset(frames=frames))
    for f in out.frames:
        assert np.abs(f.positions.mean(axis=0)).max() < 1e-12


def test_center_normalize_idempotent():
    rng = np.random.default_rng(10)
    frames = tuple(Frame(frame_id=i, positions=rng.normal(size=(5, 2)),
                         agent_ids=[str(j) for j in range(5)])
                   for i in range(3))
    once = center_normalize(Dataset(frames=frames))
    twice = center_normalize(once)
    # already-centered frames are passed through, not re-subtracted
    assert all(a is b for a, b in zip(once.frames, twice.frames))


def test_filter_key_frames():
    ds = small_dataset()
    kept = filter_key_frames(ds)
    assert [f.frame_id for f in kept.frames] == [0]
    with pytest.raises(EmptySelectionError, match="no event frames"):
        filter_key_frames(Dataset(frames=(ds.frames[1],)))


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
    s = ds.stacked()
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
        Dataset(frames=())
    a = Frame(frame_id=0, positions=[[0.0, 0.0]], agent_ids=("a",))
    b = Frame(frame_id=1, positions=[[0.0, 0.0], [1.0, 1.0]],
              agent_ids=("a", "b"))
    with pytest.raises(ValueError, match="frame 1 has 2 agents, expected 1"):
        Dataset(frames=(a, b))


def test_concat_datasets():
    ds = small_dataset()
    both = concat_datasets([ds, ds])
    assert both.n_frames == 4
    assert [f.frame_id for f in both.frames] == [0, 7, 0, 7]
    with pytest.raises(ValueError, match="nothing to concatenate"):
        concat_datasets([])
