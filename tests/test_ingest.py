"""Parsing, canonicalization, normalization, and flatten."""

import csv
import io
import json
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rolealign import ingest, parallel
from rolealign.ingest import (
    CSV_COLUMNS,
    Dataset,
    EmptySelectionError,
    ParseError,
    center_normalize,
    concat_datasets,
    filter_key_frames,
    filter_metadata,
    flatten,
    normalize_attack_direction,
    parse_tracking,
    write_tracking_csv,
    write_tracking_jsonl,
)

from conftest import make_dataset


def small_dataset():
    # ids already in sorted order so parser canonicalization is a no-op
    return make_dataset([[[0.1, -3.7e-05], [1 / 3, 2.0]],
                         [[-4.25, 0.0], [9.5, -9.5]]],
                        [("p0", "p1"), ("a", "b")], frame_id=[0, 7],
                        is_event=[True, False], right_to_left=[True, False],
                        team=["home", "away"], game="g1", period=[2, 1])


def roundtrip_csv(ds):
    buf = io.StringIO()
    write_tracking_csv(ds, buf)
    return parse_tracking(io.StringIO(buf.getvalue()), format="csv")


def roundtrip_jsonl(ds):
    buf = io.StringIO()
    write_tracking_jsonl(ds, buf)
    return parse_tracking(io.StringIO(buf.getvalue()), format="jsonl")


def assert_columns_equal(a, b):
    """Every column equal: agent ids, each label, and the bits of every
    position (repr is exact, so round trips keep them)."""
    assert a.positions.shape == b.positions.shape
    assert a.positions.tobytes() == b.positions.tobytes()
    assert np.array_equal(a.agent_ids, b.agent_ids)
    for name in ("frame_id", "is_event", "right_to_left", "team", "game",
                 "period"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


# round trips


def test_csv_roundtrip_exact():
    ds = small_dataset()
    assert_columns_equal(ds, roundtrip_csv(ds))


def test_csv_write_is_stable(written):
    # write -> parse -> write must reproduce the bytes
    ds = small_dataset()
    assert written(partial(write_tracking_csv, ds)) == \
        written(partial(write_tracking_csv, roundtrip_csv(ds)))


def test_jsonl_roundtrip_exact():
    ds = small_dataset()
    assert_columns_equal(ds, roundtrip_jsonl(ds))


def test_jsonl_write_is_stable(written):
    ds = small_dataset()
    assert written(partial(write_tracking_jsonl, ds)) == \
        written(partial(write_tracking_jsonl, roundtrip_jsonl(ds)))


def test_roundtrips_random_datasets():
    rng = np.random.default_rng(52)
    for _ in range(20):
        s = int(rng.integers(1, 6))
        n = int(rng.integers(1, 8))
        fids, pos, labels = [], [], []
        fid = 0
        for i in range(s):
            fid += int(rng.integers(1, 50))  # increasing: parser sorts by id
            fids.append(fid)
            pos.append(rng.normal(size=(n, 2)) * 30)
            labels.append((bool(rng.integers(0, 2)),
                           not rng.integers(0, 2),   # "LR" if drawn nonzero
                           str(rng.integers(0, 3)), int(rng.integers(1, 3))))
        event, rtl, team, period = zip(*labels)
        ds = make_dataset(pos, [f"id{j}" for j in range(n)], frame_id=fids,
                          is_event=event, right_to_left=rtl, team=team,
                          game="g", period=period)
        assert_columns_equal(ds, roundtrip_csv(ds))
        assert_columns_equal(ds, roundtrip_jsonl(ds))


# canonical ordering


def test_csv_row_order_is_irrelevant():
    ds = small_dataset()
    buf = io.StringIO()
    write_tracking_csv(ds, buf)
    lines = buf.getvalue().strip().splitlines()
    header, body = lines[0], lines[1:]
    shuffled = "\r\n".join([header] + body[::-1]) + "\r\n"
    assert_columns_equal(ds, parse_tracking(io.StringIO(shuffled)))


def test_agents_sorted_by_id_within_frame():
    # the builder keeps the given order
    ds = make_dataset([[[1.0, 2.0], [3.0, 4.0]]], ("z", "a"))
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


def test_csv_leading_byte_order_mark_is_named(monkeypatch):
    # as Excel writes UTF-8 CSV; the format itself does not change
    text = header("1,a,1.0,2.0,0,LR,,,1").getvalue()
    quoted = '"frame_id"' + text[len("frame_id"):]   # read by csv.reader
    for _ in csv_reads(monkeypatch):
        for src in (io.StringIO("\ufeff" + text),
                    io.BytesIO(("\ufeff" + text).encode()),
                    io.StringIO("\ufeff" + quoted)):
            with pytest.raises(ParseError, match="starts with a UTF-8 "
                                                 "byte-order mark") as exc:
                parse_tracking(src)
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
    out = center_normalize(make_dataset(rng.normal(2.0, 5.0, (4, 6, 2)),
                                        [str(j) for j in range(6)]))
    for f in out.frames:
        assert np.abs(f.positions.mean(axis=0)).max() < 1e-12


def test_center_normalize_idempotent():
    rng = np.random.default_rng(10)
    once = center_normalize(make_dataset(rng.normal(size=(3, 5, 2)),
                                         [str(j) for j in range(5)]))
    # already-centered frames are passed through, not re-subtracted
    assert center_normalize(once) is once


def test_normalization_bit_identical_to_per_frame_loop():
    rng = np.random.default_rng(15)
    positions = np.concatenate([rng.normal(50.0, 30.0, (200, 7, 2)),
                                [[[-1.0, 2.0], [1.0, -2.0]] * 3
                                 + [[0.0, -0.0]]]])
    rtl = np.arange(201) % 3 != 0
    rtl[200] = False
    out = center_normalize(normalize_attack_direction(make_dataset(
        positions, [str(j) for j in range(7)], right_to_left=rtl)))
    for pos, flip, got in zip(positions, rtl, out.positions):
        pos = -pos if flip else pos
        mean = pos.mean(axis=0)
        ref = pos if np.hypot(mean[0], mean[1]) <= 1e-12 else pos - mean
        assert got.tobytes() == ref.tobytes()


def test_filter_key_frames():
    ds = small_dataset()
    kept = filter_key_frames(ds)
    assert [f.frame_id for f in kept.frames] == [0]
    with pytest.raises(EmptySelectionError, match="no event frames"):
        filter_key_frames(ds.take([1]))


def test_filter_metadata():
    ds = small_dataset()
    assert filter_metadata(ds, team="home").n_frames == 1
    assert filter_metadata(ds, game="g1").n_frames == 2
    assert filter_metadata(ds, team="away", period=1).frames[0].frame_id == 7
    with pytest.raises(EmptySelectionError, match="no frames match"):
        filter_metadata(ds, team="neutral")


# flatten


def test_flatten_row_order():
    ds = small_dataset()
    flat = flatten(ds)
    assert flat.shape == (4, 2)
    s = ds.positions
    for i in range(ds.n_frames):
        for j in range(ds.n_agents):
            assert np.array_equal(flat[i * ds.n_agents + j], s[i, j])


# container validation


def test_frame_validation():
    with pytest.raises(ValueError, match=r"positions must be \(S, N, 2\)"):
        make_dataset([[1.0, 2.0]], ("a",))
    with pytest.raises(ValueError, match="frame 0: non-finite"):
        make_dataset([[[np.nan, 0.0]]], ("a",))
    with pytest.raises(ValueError, match="could not be broadcast"):
        make_dataset([[[0.0, 0.0]]], ("a", "b"))   # 2 ids for 1 position
    with pytest.raises(ValueError, match="duplicate agent ids"):
        make_dataset([[[0.0, 0.0], [1.0, 1.0]]], ("a", "a"))


def test_frame_positions_frozen():
    f = make_dataset([[[0.0, 0.0]]], ("1",)).frames[0]
    assert not f.positions.flags.writeable
    assert f.agent_ids == ("1",)


def one_frame(table, codes=(0, 1)):
    """A Dataset of one frame (id 0) of two agents, made without a check."""
    return Dataset(positions=[[[0.0, 0.0], [1.0, 1.0]]], agent_codes=codes,
                   agent_table=table, frame_id=[0])


@pytest.mark.parametrize("bad", [1, None, 2.5, b"a", ("a",)])
def test_frame_rejects_non_string_agent_ids(bad):
    with pytest.raises(ValueError, match="frame 0: agent ids must be strings"):
        one_frame(("a", bad))


def test_frame_agent_ids_are_never_printed_into_strings():
    # the mixed ids that used to become the table ('1', 'None')
    with pytest.raises(ValueError, match="got 1"):
        one_frame((1, None))
    ds = one_frame(np.array(["a", "b"]))
    assert type(ds.agent_table[0]) is str
    assert type(ds.frames[0].agent_ids[0]) is str


@pytest.mark.parametrize("codes,table,message", [
    ([[0, 1], [1, 1]], ("a", "b"), "frame 8: duplicate agent ids"),
    ([[0, 1], [2, 0]], ("a", "b"), "frame 8: agent code 2 is not in"),
    ([[0, 1], [0, -1]], ("a", "b"), "frame 8: agent code -1 is not in"),
    ([[0, 1], [0, 1]], ("b", "a"), "not strictly increasing"),
    ([[0, 1], [0, 1]], ("a", "a"), "not strictly increasing"),
    ([[0, 1], [0, 2]], ("a", "b", 7), "frame 8: agent ids must be strings"),
    ([0, 0], ("a", "b"), "frame 3: duplicate agent ids"),   # one code row
], ids=["repeat", "past-table", "negative", "unsorted-table",
        "repeated-id", "non-str", "broadcast-repeat"])
def test_dataset_rejects_agent_columns_that_break_the_table(codes, table,
                                                            message):
    with pytest.raises(ValueError, match=message):
        Dataset(positions=np.zeros((2, 2, 2)), agent_codes=codes,
                agent_table=table, frame_id=[3, 8])


def test_dataset_validation():
    with pytest.raises(ValueError, match="at least one frame"):
        make_dataset(np.zeros((0, 1, 2)), ("a",))
    a = make_dataset([[[0.0, 0.0]]], ("a",))
    b = make_dataset([[[0.0, 0.0], [1.0, 1.0]]], ("a", "b"), frame_id=[1])
    with pytest.raises(ValueError, match="frame 1 has 2 agents, expected 1"):
        concat_datasets((a, b))


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


def test_agent_tracks_of_canonical_frames_are_the_positions():
    rng = np.random.default_rng(23)
    ids = ("p0", "p1", "p2", "p3")
    ds = make_dataset(rng.normal(size=(7, 4, 2)) * 30, ids,
                      frame_id=[2, 3, 5, 8, 13, 21, 34])
    tracks = ds.agent_tracks()
    assert tracks is ds.positions and not tracks.flags.writeable
    # the same frames with rows shuffled, frames and agents within each:
    # the tracks come from the sorts and gathers
    order = rng.permutation(7)
    within = np.argsort(rng.random((7, 4)), axis=1)
    shuffled = make_dataset(
        np.take_along_axis(ds.positions[order], within[:, :, None], axis=1),
        np.array(ids, dtype=object)[within], frame_id=ds.frame_id[order])
    gathered = shuffled.agent_tracks()
    assert gathered is not shuffled.positions
    assert gathered.tobytes() == tracks.tobytes()


def test_agent_tracks_name_a_missing_agent_with_frames_in_order():
    ids = [("p0", "p1", "p2")] * 3 + [("p0", "p1", "p3")]
    ds = make_dataset(np.zeros((4, 3, 2)), ids, frame_id=[1, 2, 3, 4])
    with pytest.raises(ValueError, match="agent 'p2' missing from frame 4"):
        ds.agent_tracks()


# column conversion in chunks


def test_csv_chunks_join_seamlessly(monkeypatch):
    rng = np.random.default_rng(14)
    ds = make_dataset(rng.normal(size=(20, 3, 2)), ("c", "a", "b"),
                      team=["x", "y"] * 10)
    buf = io.StringIO()
    write_tracking_csv(ds, buf)
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
# that Python's int/float accept (" 3", "+2", "1_0", "1e-400", "١٢"); some
# hold bytes that convert differently undecoded (non-ASCII digits and
# spaces, C0 controls, NULs), fields of 8 and 9 bytes (one or two uint64
# words of the byte tokenizer's keys) and fields over the 16-character
# limit in bytes but not in characters ("ü" * 9)
ODD_FIELDS = [
    ["x", "1.5", "", " 3", "+2", "1_0", "99999999999999999999",
     "-9223372036854775809", "9223372036854775807", "١٢", "\x1c1", "1\x00",
     "12345678", "123456789"],
    ["", "p0", " p0", "q", "t" * 17, "München", "p0\x00", "\x00", "abcdefgh",
     "abcdefghi", "\x1cp0", "ü" * 9, "ü" * 17],
    ["nope", "nan", "inf", "-inf", "1e999", "", " 2.5", "1_0.5", "1e-400",
     "12.500000000000001", "٣.٥", "\x1c1.5", "1.5\x00", "\x851.5",
     "\xa02.5", "12345678", "1234567.9"],
    ["nan", "Infinity", "x", "0x1", "-0.0", "٣.٥", "1.5\x00", "\x00"],
    ["0", "1", "2", "yes", " 1", "", "١", "1\x00"],
    ["LR", "RL", "lr", "UP", "", "LR\x00", "ＬＲ"],
    ["", "home", "away", " x", "a;b", "t" * 17, "München", "home\x00",
     "a\u2028b", "ü" * 9],
    ["", "g1", "g2", "t" * 17, "München", "g1\x00", "ü" * 9],
    ["1", "2", "x", "", "99999999999999999999", "1.0", "١٢", "1\x00",
     "\x1c1"],
]


def coordinate(rnd):
    """A coordinate: a multiple of 1/4, a repr of up to 17 significant
    digits (up to 18 decimals in (-1, 1)), or a spelling with an
    exponent."""
    kind = rnd.randrange(4)
    if kind == 0:
        return repr(rnd.randint(-400, 400) / 4)
    if kind < 3:
        return repr(rnd.uniform(-1, 1) * (120 if kind == 1 else 1))
    return rnd.choice(["1e-05", "-2.5e-07", "1E3", "1e+16", "6.02e+23",
                       "-1.5e-300"])


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
            x, y = (coordinate(rnd) for _ in range(2))
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
    assert_columns_equal(parse_tracking(io.StringIO(text)), ds)
    assert_columns_equal(parse_tracking(io.StringIO(reader_path(text))), ds)


# the coordinate reader: float()'s bits from uint64 words


def read_decimals(fields, extended, odd=None, pad=8):
    """``ingest._decimals`` of str fields joined by commas, then ``pad``
    zero bytes, with x87 extended precision on or off."""
    from unittest import mock

    raw = [f.encode() for f in fields]
    size = np.array([len(r) for r in raw], dtype=np.intp)
    starts = np.cumsum(size + 1) - size - 1
    data = b",".join(raw) + b"," + bytes(pad)
    with mock.patch.object(ingest, "_EXTENDED", extended):
        return ingest._decimals(data, starts, starts + size, odd)


def taken(field):
    """Whether the word reader reads a field itself (or, near a halfway
    point, hands it to float()): -D.D or D.D with at most 7 digits before
    the point and 19 in all, or -D or D of at most 7 digits."""
    import re

    return bool(re.fullmatch(r"-?[0-9]{1,7}(\.[0-9]+)?", field)) and \
        sum(map(str.isdigit, field)) <= 19


def floats(fields):
    return np.array(list(map(float, fields)))


EXTENDED = pytest.mark.parametrize("extended", [
    pytest.param(True, marks=pytest.mark.skipif(
        not ingest._EXTENDED, reason="long double is not x87 extended")),
    False])


@st.composite
def near_halfway(draw):
    """A decimal of 16 to 19 digits at, or one unit in its last digit
    from, the point halfway between two adjacent doubles."""
    from decimal import Decimal, localcontext

    x = draw(st.floats(0, 9999999))
    q = draw(st.integers(16, 19)) - len(str(int(x)))
    with localcontext() as ctx:
        ctx.prec = 60
        half = (Decimal(x) + Decimal(np.nextafter(x, np.inf))) / 2
        w = int((half * 10 ** q).to_integral_value())
    w = abs(w + draw(st.integers(-1, 1)))
    return f"{draw(st.sampled_from(['', '-']))}{w // 10 ** q}." \
        f"{w % 10 ** q:0{q}d}"


@EXTENDED
@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    near_halfway(),
    st.from_regex(r"-?[0-9]{1,9}(\.[0-9]{0,20})?", fullmatch=True),
    st.sampled_from(["-0.0", "0.0", "-0", "0", "0000000.5", "-00.25",
                     "1234567.123456789012", "-9999999.999999999999",
                     "12345678.5", "0.000000000000000001"])),
    min_size=1, max_size=40))
def test_the_word_reader_reads_what_float_reads(extended, fields):
    values, slow = read_decimals(fields, extended)
    assert values.tobytes() == floats(fields).tobytes()
    assert set(slow.tolist()) >= {j for j, f in enumerate(fields)
                                  if not taken(f)}


@EXTENDED
def test_long_mantissas_need_x87_extended_precision(extended):
    # 17 digits each: more than 2**53 as integers
    fields = ["-29.334339827745822", "0.12345678901234567", "52.5",
              "60.11452053377046"]
    values, slow = read_decimals(fields, extended)
    assert values.tobytes() == floats(fields).tobytes()
    assert slow.tolist() == ([] if extended else [0, 1])


@EXTENDED
def test_odd_coordinate_spellings_go_to_float(extended):
    for field in sorted(set(ODD_FIELDS[2] + ODD_FIELDS[3])):
        # decoded first where the CSV byte path decodes it
        odd = np.array([not all(32 <= ord(c) < 127 for c in field)])
        values, slow = read_decimals([field], extended, odd)
        try:
            expected = float(field)
        except ValueError:
            expected = np.nan
        assert values.tobytes() == np.float64(expected).tobytes(), field
        if not taken(field):
            assert slow.tolist() == [0], field
        elif extended:   # none of them lies near a halfway point
            assert slow.tolist() == [], field


def test_a_field_near_the_end_of_the_bytes_goes_to_float():
    # words start at bytes 0..10 of these 18; the last two fields end later
    values, slow = read_decimals(["1.25", "2.5", "3.75", "4.5"], False,
                                 pad=0)
    assert values.tolist() == [1.25, 2.5, 3.75, 4.5]
    assert slow.tolist() == [2, 3]


def test_a_field_float_does_not_read_makes_the_float_fields_nan():
    values, slow = read_decimals(["1.5", "x", "1e5"], False)
    assert values[0] == 1.5 and np.isnan(values[1:]).all()
    assert slow.tolist() == [1, 2]


# the byte core both parsers share: one LF chunker, one keyer

LINE_BYTES = st.binary(max_size=6).map(
    lambda b: b.replace(b"\n", b",").replace(b"\r", b"\t"))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(LINE_BYTES, st.sampled_from([b"\n", b"\r\n"])),
                min_size=1, max_size=30),
       st.booleans(), st.sampled_from([1, 2, 3, 16384]), st.data())
def test_lf_chunks_cut_whole_lines_and_count_them(lines, open_end, size,
                                                  data):
    text = b"".join(body + eol for body, eol in lines)
    if open_end:   # the last line without its LF (or CRLF)
        text = text[:-len(lines[-1][1])]
    starts = [0] + [i + 1 for i in range(len(text)) if text[i] == 10]
    start = data.draw(st.sampled_from(starts))
    end = data.draw(st.sampled_from([len(text)] + [
        s for s in starts if s > start]))
    chunks = list(ingest._lf_chunks(text, start, end, size))
    rebuilt, at = b"", start
    for j, (block, lf, line) in enumerate(chunks):
        assert block.endswith(b"\n" + bytes(8))
        body = block[:-8]
        assert lf.tolist() == [i for i in range(len(body))
                               if body[i] == 10]
        assert len(lf) == size or (j == len(chunks) - 1 and len(lf) < size)
        assert line == text.count(b"\n", 0, at) + 1
        rebuilt += body
        at += len(body)
    whole = text[start:end]
    assert rebuilt == (whole if whole.endswith(b"\n") or not whole
                       else whole + b"\n")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.binary(max_size=20), min_size=1, max_size=40),
       st.booleans())
def test_distinct_keys_fields_by_their_bytes(fields, collide):
    """Each field's code names its bytes, one code per distinct value.
    Fields holding a zero byte are marked, as the keys cannot tell them
    apart; with every factor 0 all keys of two words or more share one
    sum, so those fields are keyed one by one."""
    from unittest import mock

    block = b"".join(fields) + bytes(8)
    ends = np.cumsum([len(f) for f in fields])
    starts = ends - [len(f) for f in fields]
    odd = np.array([b"\0" in f for f in fields])
    with mock.patch.object(ingest, "_MIX",
                           np.uint64(0) if collide else ingest._MIX):
        table, codes = ingest._distinct(block, starts, ends, odd)
    assert [table[c] for c in codes] == fields
    assert sorted(table) == sorted(set(fields))


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
        assert_columns_equal(parse_tracking(io.StringIO(buf.getvalue())),
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
    ds = make_dataset(rng.normal(size=(20, 3, 2)), ("c", "a", "b"),
                      period=[1, 2] * 10)
    buf = io.StringIO()
    write_tracking_jsonl(ds, buf)
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


# the JSONL byte path (``_writer_rows``) against json.loads


def outcome(text):
    """The Dataset read from JSONL text, as comparable values, or the
    ParseError's message and line."""
    try:
        ds = parse_tracking(io.StringIO(text), format="jsonl")
    except ParseError as exc:
        return str(exc), exc.line
    return (ds.positions.tobytes(), ds.positions.shape, ds.agent_table,
            ds.agent_codes.tobytes(), ds.frame_id.tobytes(),
            ds.is_event.tobytes(), ds.right_to_left.tobytes(),
            ds.team.tolist(), ds.game.tolist(), ds.period.tobytes())


def byte_and_json_paths(text):
    """``outcome`` of the text read as it is, then with every chunk read by
    json.loads, and whether the byte path read every chunk."""
    from unittest import mock

    data = text.encode("utf-8", "surrogatepass")
    read = all(ingest._writer_rows(*block) is not None
               for block in ingest._lf_chunks(data, 0, len(data),
                                              ingest.JSONL_CHUNK_LINES))
    by_bytes = outcome(text)
    with mock.patch.object(ingest, "_writer_rows", lambda *a: None):
        by_json = outcome(text)
    return by_bytes, by_json, read


def writer_line(fid, points, ids, event=False, direction="LR", team="",
                game="", period=1):
    return json.dumps({"frame_id": fid, "positions": points,
                       "agent_ids": ids, "is_event": event,
                       "attack_direction": direction, "team": team,
                       "game": game, "period": period})


# strings that hold the structural characters and spaces
LABELS = ["", "home", "a, b", "x]y", "k: v", "{t}", " s p ", "[", "\u00e9"]
COORDS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e16,
                     -1e+16, 1.5e-7]),
    st.integers(-10 ** 20, 10 ** 20))
# replacements for a number token: each reads differently, or not at all,
# under float() and json.loads
TOKENS = ["-0", "0", "1_0", "01", "-01", "1.", ".5", "-.5", "+1", "1.e5",
          "1E5", "1e+5", "NaN", "Infinity", "-Infinity", "1e999", " 1",
          "1 ", "1 2", '"1"', "true", "null", "0x1", "9" * 25, "-0.0",
          "1e-400", "99999999999999999999"]


@st.composite
def writer_jsonl(draw):
    """JSONL text as write_tracking_jsonl writes it (with any JSON numbers
    as coordinates), then at most one mutation."""
    rnd = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 4))
    ids = draw(st.lists(st.sampled_from(["p0", "p1", "a b", "c,d", "]",
                                         "e:f", "{", "p\u00e9"]),
                        min_size=n, max_size=n, unique=True))
    fids = draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1,
                         max_size=5, unique=True))
    lines = [writer_line(fid, [[draw(COORDS), draw(COORDS)]
                               for _ in range(n)], ids,
                         draw(st.booleans()), rnd.choice(["LR", "RL"]),
                         rnd.choice(LABELS), rnd.choice(LABELS),
                         draw(st.integers(-3, 3)))
             for fid in fids]
    kind = draw(st.sampled_from(["none", "char", "char", "token", "token",
                                 "line"]))
    i = rnd.randrange(len(lines))
    if kind == "char":   # one character replaced, inserted or deleted
        at = rnd.randrange(len(lines[i]) + 1)
        ch = rnd.choice(list('" \\,][:{}-+.e_0123x\t\r\u00e9'))
        lines[i] = lines[i][:at] + rnd.choice(["", ch]) + \
            lines[i][at + rnd.choice([0, 1]):]
    elif kind == "token":   # one number replaced
        import re

        spans = [m.span() for m in re.finditer(r"-?[0-9][-+.eE0-9]*",
                                               lines[i])]
        a, b = rnd.choice(spans)
        lines[i] = lines[i][:a] + rnd.choice(TOKENS) + lines[i][b:]
    elif kind == "line":
        lines.insert(rnd.randrange(len(lines) + 1), rnd.choice(
            ["", " ", "\r", lines[i]]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + eol * draw(st.integers(0, 1))


@settings(max_examples=400, deadline=None)
@given(writer_jsonl(), st.sampled_from([1, 2, 1 << 11]),
       st.sampled_from([1, 3]))
def test_the_jsonl_byte_path_reads_what_json_loads_reads(text, chunk_lines,
                                                         cpus):
    from unittest import mock

    with mock.patch.object(ingest, "JSONL_CHUNK_LINES", chunk_lines), \
            mock.patch.object(parallel, "usable_cpus", lambda: cpus):
        by_bytes, by_json, _ = byte_and_json_paths(text)
    assert by_bytes == by_json


def test_the_jsonl_byte_path_reads_writer_output():
    rng = np.random.default_rng(19)
    ds = make_dataset(rng.normal(size=(5, 3, 2)) * 50, ("p2", "p0", "p1"),
                      team="home, away", game="g]1", period=2)
    buf = io.StringIO()
    write_tracking_jsonl(ds, buf)
    by_bytes, by_json, read = byte_and_json_paths(buf.getvalue())
    assert read and by_bytes == by_json


@pytest.mark.parametrize("token,read", [
    ("-0", True), ("1e+16", True), ("5e-324", True), ("12", True),
    ("-0.0", True), ("1E5", True), ("0e0", True),
    ("1_0", False), ("01", False), ("1.", False), (".5", False),
    ("+1", False), ("NaN", False), ("Infinity", False), ("1e999", False),
    ("1.e5", False), ("1.E5", False), ("-01", False), ("- 1", False)])
def test_jsonl_number_tokens(token, read, monkeypatch):
    text = "\n".join([writer_line(0, [[1.5, 2.5]], ["p0"]),
                      writer_line(1, [[float(token) if read else 0.0, 7.0]],
                                  ["p0"]).replace(
                          '"positions": [[' + repr(float(token) if read
                                                   else 0.0),
                          '"positions": [[' + token)]) + "\n"
    assert token in text
    for _ in jsonl_reads(monkeypatch):
        by_bytes, by_json, byte_read = byte_and_json_paths(text)
        assert by_bytes == by_json and byte_read == read
    if token == "-0":   # the int 0, as json.loads reads it: +0.0
        ds = parse_tracking(io.StringIO(text), format="jsonl")
        assert np.signbit(ds.positions[1, 0, 0]) == np.False_


def utf16_rests(text):
    import re

    return re.sub(r"\]\],( .*)", lambda m: "]],\0" + m.group(1).encode(
        "utf-16-le").decode("ascii"), text)


@pytest.mark.parametrize("edit,read", [
    # frame ids: int64's range, and JSON integers only
    (lambda t: t.replace('"frame_id": 1,',
                         '"frame_id": 9223372036854775808,'), False),
    (lambda t: t.replace('"frame_id": 1,',
                         '"frame_id": -9223372036854775808,'), True),
    (lambda t: t.replace('"frame_id": 1,', '"frame_id": 1.0,'), False),
    (lambda t: t.replace('"frame_id": 1,', '"frame_id": 01,'), False),
    (lambda t: t.replace('"frame_id": 1,', '"frame_id": 1_0,'), False),
    (lambda t: t.replace('"frame_id": 1,', '"frame_id": -0,'), True),
    # keys swapped, repeated or spaced otherwise; after the positions,
    # what json.loads reads the same as the whole line is read
    (lambda t: t.replace('"team": "home", "game": "g1"',
                         '"game": "g1", "team": "home"'), False),
    (lambda t: t.replace('"team": "home"', '"frame_id": 7'), False),
    (lambda t: t.replace('"team": "home"', '"team": "home", "team": "x"'),
     True),
    (lambda t: t.replace('"frame_id": 1, "positions"',
                         '"positions": [[0, 0]], "frame_id": 1, '
                         '"positions"'), False),
    (lambda t: t.replace('"period": 1}', '"period": 1, "period": 2}'),
     True),
    (lambda t: t.replace('{"frame_id": 1', '{ "frame_id": 1'), False),
    (lambda t: t.replace('[[1.5, 2.5]]', '[[1.5,2.5]]'), False),
    (lambda t: t.replace('[[1.5, 2.5]]', '[1.5, 2.5]'), False),   # no "]]"
    (lambda t: t.replace('[[1.5, 2.5]]', '[[1.5, 2.5], [3, 4]]'), False),
    (lambda t: t.replace('"team": "home"', '"team":  "home"'), True),
    (lambda t: t.replace('"period": 1}', '"period": 1} '), True),
    (lambda t: t.replace(']], "agent', ']] , "agent'), False),
    (lambda t: t.replace('"p0"]', '"p0" ]'), True),
    # escaped and non-ASCII ids, CRLF line ends
    (lambda t: t.replace('"p0"', '"p\\u0030"'), True),
    (lambda t: t.replace('"p0"', '"p\u00e9"'), True),
    (lambda t: t.replace('"frame_id": 1,', '"frame_id": \u0661,'), False),
    (lambda t: t.replace("\n", "\r\n"), True),
    (lambda t: t.replace("\n", "\r"), False),
    # labels of the wrong type, and agent ids that do not match
    (lambda t: t.replace('"is_event": false', '"is_event": 0'), False),
    (lambda t: t.replace('"period": 1}', '"period": 1.0}'), False),
    (lambda t: t.replace('"period": 1}', '"period": 9223372036854775808}'),
     False),
    (lambda t: t.replace('"attack_direction": "LR"',
                         '"attack_direction": "lr"'), False),
    (lambda t: t.replace('["p0"]', '["p0", "p1"]'), False),
    (lambda t: t.replace('["p0"]', '[7]'), False),
    # the rest after "]]," as UTF-16-LE (a NUL after each character) past
    # a NUL: not JSON in UTF-8, though "{" and it are JSON in UTF-16-LE
    (lambda t: utf16_rests(t), False),
])
def test_jsonl_lines_the_byte_path_reads_or_leaves(edit, read, monkeypatch):
    good = "\n".join([writer_line(0, [[0.5, 0.25]], ["p0"], team="home",
                                  game="g1"),
                      writer_line(1, [[1.5, 2.5]], ["p0"], team="home",
                                  game="g1")]) + "\n"
    text = edit(good)
    assert text != good
    for _ in jsonl_reads(monkeypatch):
        by_bytes, by_json, byte_read = byte_and_json_paths(text)
        assert by_bytes == by_json and byte_read == read
    if "u0030" in text:   # "p\u0030" is "p0"
        assert parse_tracking(io.StringIO(text),
                              format="jsonl").agent_table == ("p0",)


# properties


@st.composite
def datasets(draw, max_coord=1e6):
    s, n = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    coord = st.floats(-max_coord, max_coord, allow_nan=False)
    rows = []
    for fid in draw(st.lists(st.integers(-99, 99), min_size=s, max_size=s,
                             unique=True)):
        ids = draw(st.permutations([f"p{j}" for j in range(n + 1)]))[:n]
        rows.append((
            fid, ids,
            draw(st.lists(st.tuples(coord, coord), min_size=n, max_size=n)),
            draw(st.booleans()),
            draw(st.sampled_from(["LR", "RL"])) == "RL",
            draw(st.sampled_from(["", "home", "away"])),
            draw(st.sampled_from(["g1", "g2"])),
            draw(st.integers(1, 2))))
    fid, ids, pos, event, rtl, team, game, period = zip(*rows)
    return make_dataset(pos, ids, frame_id=fid, is_event=event,
                        right_to_left=rtl, team=team, game=game,
                        period=period)


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


def reference_group_rows(rows):
    """``ingest._group_rows`` as it was: every input sorted, by np.unique
    and np.lexsort."""
    fid, line = rows["frame_id"], rows["line"]
    table, agent = rows["agent"]
    label_table, label = rows["labels"]
    frame_ids, first, frame_of = np.unique(fid, return_index=True,
                                           return_inverse=True)
    order = np.lexsort((agent, fid))
    dup = order[1:][(fid[order][1:] == fid[order][:-1])
                    & (agent[order][1:] == agent[order][:-1])]
    disagree = label != label[first][frame_of]
    bad = disagree.argmax() if disagree.any() else len(fid)
    if dup.size and dup.min() < bad:
        r = dup.min()
        raise ParseError(f"duplicate agent {table[agent[r]]!r} in frame "
                         f"{fid[r]}", int(line[r]))
    if bad < len(fid):
        raise ParseError(f"frame {fid[bad]}: frame-level fields disagree "
                         f"with an earlier row", int(line[bad]))
    counts = np.bincount(frame_of)
    if counts.min() != counts.max():
        i = counts.argmin()
        raise ParseError(f"frame {frame_ids[i]} has {counts[i]} agents; "
                         f"other frames have {counts.max()}")
    shape = (len(frame_ids), counts[0])
    names = ("is_event", "right_to_left", "team", "game", "period")
    labels = {name: np.array(values, dtype=object if name in ("team", "game")
                             else None)[label[first]]
              for name, values in zip(names, zip(*label_table))}
    return Dataset(positions=rows["xy"][order].reshape(shape + (2,)),
                   agent_codes=agent[order].reshape(shape), agent_table=table,
                   frame_id=frame_ids, **labels)


def canonical_rows(ds):
    """The row columns a parser hands ``_group_rows`` for ``ds``, in
    (frame_id, agent) order."""
    n = ds.n_agents
    table, codes = ingest._codes(list(zip(
        ds.is_event.tolist(), ds.right_to_left.tolist(), ds.team.tolist(),
        ds.game.tolist(), ds.period.tolist())))
    rows = {"line": np.arange(2, 2 + ds.n_frames * n),
            "frame_id": np.repeat(ds.frame_id, n),
            "xy": ds.positions.reshape(-1, 2),
            "agent": (ds.agent_table, ds.agent_codes.ravel()),
            "labels": (table, np.repeat(codes, n))}
    order = np.lexsort((rows["agent"][1], rows["frame_id"]))
    return {k: (v[0], v[1][order]) if isinstance(v, tuple) else v[order]
            for k, v in rows.items()}


def grouped(group, rows):
    try:
        ds = group(rows)
    except ParseError as exc:
        return str(exc), exc.line
    return (ds.positions.tobytes(), ds.agent_table, ds.agent_codes.tobytes(),
            ds.frame_id.tobytes(), ds.is_event.tobytes(),
            ds.right_to_left.tobytes(), ds.team.tolist(), ds.game.tolist(),
            ds.period.tobytes(), ds.positions.shape)


@settings(max_examples=150, deadline=None)
@given(datasets(), st.randoms(use_true_random=False),
       st.sampled_from(["sorted", "shuffled", "swapped", "duplicate",
                        "label"]))
def test_group_rows_skips_the_sort_only_where_it_changes_nothing(ds, rnd,
                                                                  kind):
    rows = canonical_rows(ds)
    fid, (table, agent) = rows["frame_id"], rows["agent"]
    order = np.arange(len(fid))
    if kind == "shuffled":
        rnd.shuffle(order)
    elif kind == "swapped" and len(fid) > 1:   # a pair of neighbours
        i = rnd.randrange(len(fid) - 1)
        order[[i, i + 1]] = order[[i + 1, i]]
    rows = {k: (v[0], v[1][order]) if isinstance(v, tuple) else v[order]
            for k, v in rows.items()}
    if kind in ("duplicate", "label") and len(fid) > 1:
        i = rnd.randrange(1, len(fid))
        key = "agent" if kind == "duplicate" else "labels"
        codes = rows[key][1].copy()
        codes[i] = codes[i - 1] if kind == "duplicate" else \
            rnd.randrange(len(rows[key][0]))
        rows[key] = rows[key][0], codes
    assert grouped(ingest._group_rows, rows) == \
        grouped(reference_group_rows, rows)
    if kind == "sorted":   # taken as it stands: the positions are not copied
        assert np.shares_memory(ingest._group_rows(rows).positions,
                                rows["xy"])


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
    expect = [fid for fid, t, g, p in zip(ds.frame_id.tolist(), ds.team,
                                          ds.game, ds.period.tolist())
              if (team is None or t == team)
              and (game is None or g == game)
              and (period is None or p == period)]
    if not expect:
        with pytest.raises(EmptySelectionError):
            filter_metadata(ds, team=team, game=game, period=period)
    else:
        kept = filter_metadata(ds, team=team, game=game, period=period)
        assert kept.frame_id.tolist() == expect


@settings(max_examples=60, deadline=None)
@given(datasets())
def test_frame_records_carry_every_column(ds):
    rec = ds.frames
    labels = {name: [getattr(f, name) for f in rec]
              for name in ("frame_id", "is_event", "team", "game", "period")}
    assert_columns_equal(ds, make_dataset(
        [f.positions for f in rec], [f.agent_ids for f in rec],
        right_to_left=[f.attack_direction == "RL" for f in rec], **labels))
