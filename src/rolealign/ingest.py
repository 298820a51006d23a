"""Tracking-data ingestion and the fixed normalization pipeline.

Frames arrive as raw pitch coordinates with an attacking direction; discovery
wants a flat (S*N) x 2 matrix of direction-normalized, per-frame-centered
points.  The pipeline order is fixed: attack direction, then centering, then
the optional key-frame filter, then flattening.  A Dataset is columnar, so
each of these steps is an array expression.

Two interchange formats are supported and documented byte-for-byte in the
README: a long-form CSV (one agent per row) and a JSONL stream (one frame
object per line).  Both parsers check and convert whole columns; only when a
column check fails does a line-by-line scan run, to name the first bad line.
Parsing is canonical: agents within a frame are ordered by agent_id, frames
by frame_id, so any row order on disk yields the same Dataset.

The byte paths of both formats share one core.  ``_lf_chunks`` cuts the
lines into chunks, each copied once with an LF at its end and 8 zero
bytes after it; ``_distinct`` keys fields by their bytes, packed into
uint64 words, so each distinct value is decoded and converted once;
``_decimals`` reads coordinates as float() reads their bytes, bit for
bit, but plain decimals without float().  ``_read_parts`` cuts the input
at LF into parts read on every usable CPU (``_lf_parts``,
``parallel.run_tasks``); when one of several parts fails, or for JSONL
when a frame id of one part repeats in another, the whole is read again
as one part, so the Dataset and every error are those of a serial read.
Parts send back numeric arrays: each row's line, frame id and
coordinates, and codes into tables of distinct agent ids and frame
labels (``_group_rows``).

CSV input without a double quote whose lines end in LF or CRLF is read
as bytes (a str source is encoded once): every line is one record, and
its fields are the line, its end dropped, split at commas, which is
exactly what csv.reader reads there (``_byte_rows``).  A field holding a
byte outside printable ASCII is decoded first, so it converts as its
text would.  Any other input goes through csv.reader in one process, the
one tokenizer for quoted fields, since a quoted field may hold a
newline; its columns reach the same conversion (``_csv_rows``), so
values and messages do not depend on the tokenizer.  Line numbers count
physical lines (a record's first one).  A field longer than
``csv.field_size_limit()`` characters, a CR that does not end a line and
any other csv.reader error (before Python 3.11, a NUL character) raise a
ParseError naming the line, as do a byte that is not UTF-8 and a leading
byte-order mark.

A JSONL chunk of lines shaped as ``write_tracking_jsonl`` writes them is
read by one numpy scan and ``int`` on the bytes of each frame id
(``_writer_rows``); any other chunk is decoded and read by json.loads.
JSONL lines end at LF alone: U+2028, U+2029 and U+0085 may stand raw
inside a JSON string, and the CR of a CRLF is JSON whitespace.

Every file the package writes goes through the writers here:
``write_json`` (indent 1), ``write_csv`` (unquoted cells, numbers as
``repr(float)``), ``write_jsonl`` and the two tracking writers.  Each takes
a path, opened as UTF-8 and closed again, or an open text file, which is
left open.
"""

from __future__ import annotations

import io
import json
import csv
import math
import numbers
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from . import parallel

LEFT_TO_RIGHT = "LR"
RIGHT_TO_LEFT = "RL"

CSV_COLUMNS = ("frame_id", "agent_id", "x", "y", "is_event",
               "attack_direction", "team", "game", "period")

# records converted at a time (CSV lines or records, JSONL lines of about
# ten agents): the parsers never hold every record's Python objects at once
CSV_CHUNK_ROWS = 1 << 14
JSONL_CHUNK_LINES = 1 << 11


class ParseError(ValueError):
    """Malformed tracking input; carries the 1-based source line when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EmptySelectionError(ValueError):
    """A filter removed every frame."""


@dataclass(frozen=True)
class Frame:
    """One frame of a Dataset as a record: its agents' positions (a
    read-only view of the Dataset's), their ids and the frame's labels.
    Only ``Dataset.frames`` builds one; it checks nothing."""

    frame_id: int
    positions: np.ndarray
    agent_ids: tuple
    is_event: bool
    attack_direction: str
    team: str
    game: str
    period: int


def _codes(values):
    """Sorted distinct values, and each value's index into them."""
    table = sorted(set(values))
    index = dict(zip(table, range(len(table))))
    return tuple(table), np.fromiter(map(index.__getitem__, values),
                                     np.intp, len(values))


def _merge_codes(pairs):
    """One sorted table for several (table, codes) pairs; codes remapped."""
    table = tuple(sorted(set().union(*(t for t, _ in pairs))))
    index = dict(zip(table, range(len(table))))
    return table, np.concatenate([
        np.fromiter(map(index.__getitem__, t), np.intp, len(t))[c]
        for t, c in pairs])


# per-frame label columns: name, dtype, default
LABELS = (("frame_id", np.int64, None), ("is_event", bool, False),
          ("right_to_left", bool, False), ("team", object, ""),
          ("game", object, ""), ("period", np.int64, 1))


@dataclass(frozen=True, eq=False)
class Dataset:
    """S frames of N agents each, held column by column.

    ``positions[s, i]`` belongs to agent ``agent_table[agent_codes[s, i]]``.
    The table holds str ids in strictly increasing order, so code order is
    id order, and each frame's codes index into it without a repeat; a
    ValueError names the first frame that breaks this.  Each label holds
    one value per frame (team and game as object arrays of str, the attack
    direction as ``right_to_left``); one value, or one agent-code row, is
    broadcast to every frame.  Arrays are stored read-only, uncopied.
    """

    positions: np.ndarray      # (S, N, 2)
    agent_codes: np.ndarray    # (S, N)
    agent_table: tuple
    frame_id: np.ndarray
    is_event: np.ndarray = None
    right_to_left: np.ndarray = None
    team: np.ndarray = None
    game: np.ndarray = None
    period: np.ndarray = None

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 3 or pos.shape[2] != 2:
            raise ValueError(f"positions must be (S, N, 2), got {pos.shape}")
        if len(pos) == 0:
            raise ValueError("Dataset needs at least one frame")
        columns = {"positions": pos, "agent_codes": np.broadcast_to(
            np.asarray(self.agent_codes, dtype=np.intp), pos.shape[:2])}
        for name, dtype, default in LABELS:
            value = getattr(self, name)
            value = default if value is None else value
            columns[name] = np.broadcast_to(np.asarray(value, dtype=dtype),
                                            pos.shape[:1])
        fid, table = columns["frame_id"], tuple(self.agent_table)
        bad = ~np.isfinite(pos).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"frame {fid[bad.argmax()]}: non-finite position")
        # each frame's codes in order (a broadcast row once): the first and
        # last must be in the table, and no two neighbours equal
        codes = columns["agent_codes"]
        ranked = np.sort(codes[:1] if codes.strides[0] == 0 else codes, axis=1)
        outside = ((ranked[:, :1] < 0)
                   | (ranked[:, -1:] >= len(table))).any(axis=1)
        repeat = ranked[:, 1:] == ranked[:, :-1]
        if outside.any() or repeat.any():
            s = (outside | repeat.any(axis=1)).argmax()
            code = ranked[s, 0] if ranked[s, 0] < 0 else ranked[s, -1]
            raise ValueError(f"frame {fid[s]}: " + (
                f"agent code {code} is not in the table of {len(table)} ids"
                if outside[s] else "duplicate agent ids"))
        for code, agent in enumerate(table):
            if not isinstance(agent, str):
                bad = (ranked == code).any(axis=1)
                where = f"frame {fid[bad.argmax()]}: " if bad.any() else ""
                raise ValueError(f"{where}agent ids must be strings, got "
                                 f"{agent!r}")
        if any(a >= b for a, b in zip(table, table[1:])):
            raise ValueError(f"agent table {table!r} is not strictly "
                             f"increasing")
        for name, value in columns.items():
            value = value.view()
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        # plain str, not np.str_
        object.__setattr__(self, "agent_table", tuple(map(str, table)))

    @property
    def n_frames(self):
        return self.positions.shape[0]

    @property
    def n_agents(self):
        return self.positions.shape[1]

    @property
    def agent_ids(self) -> np.ndarray:
        """(S, N) object array: the id of every position's agent."""
        return np.array(self.agent_table, dtype=object)[self.agent_codes]

    @property
    def frames(self) -> tuple:
        """The frames as Frame records, built on each access.  No program
        path reads them; kept only for the benchmark's workload builder
        (``perfbench/workloads.py:_sample``)."""
        return tuple(
            Frame(int(fid), pos,
                  tuple(map(self.agent_table.__getitem__, row.tolist())),
                  bool(event), RIGHT_TO_LEFT if rtl else LEFT_TO_RIGHT, team,
                  game, int(period))
            for fid, pos, row, event, rtl, team, game, period in zip(
                self.frame_id, self.positions, self.agent_codes,
                self.is_event, self.right_to_left, self.team, self.game,
                self.period))

    def stacked(self) -> np.ndarray:
        """``positions``, under the name the benchmark's workload builder
        (``perfbench/workloads.py:_sample``) calls; kept only for it, so
        read ``positions``."""
        return self.positions

    def take(self, rows) -> "Dataset":
        """The frames at ``rows`` (indices or a boolean mask), in order."""
        return replace(self, positions=self.positions[rows],
                       agent_codes=self.agent_codes[rows],
                       **{name: getattr(self, name)[rows]
                          for name, _, _ in LABELS})

    def agent_tracks(self) -> np.ndarray:
        """Every agent's positions in all frames, as an (S, N, 2) array.

        Agents are matched by id and ordered by the sorted ids of the
        first frame; frames are in frame_id order (stable).  Both choices
        make the result independent of how the caller ordered frames or
        rows.  Raises ValueError when a frame lacks one of the agents.
        With frame ids and one row of codes increasing in every frame, as
        parsed, they are ``positions`` (read-only, C-ordered as a gather).
        """
        fid, codes = self.frame_id, self.agent_codes
        if (fid[1:] > fid[:-1]).all() and (codes == codes[0]).all() and \
                (codes[0, 1:] > codes[0, :-1]).all():
            return np.ascontiguousarray(self.positions)
        by_id = np.argsort(self.frame_id, kind="stable")
        codes = self.agent_codes[by_id]
        ids = np.sort(codes[0])
        by_agent = np.argsort(codes, axis=1)
        bad = (np.take_along_axis(codes, by_agent, axis=1) != ids).any(axis=1)
        if bad.any():
            s = bad.argmax()
            missing = ids[~np.isin(ids, codes[s])][0]
            raise ValueError(f"agent {self.agent_table[missing]!r} missing "
                             f"from frame {self.frame_id[by_id[s]]}")
        return np.take_along_axis(self.positions[by_id],
                                  by_agent[:, :, None], axis=1)


def _read(source):
    """The contents of a path or file-like source as read: bytes, or the
    str of a text source."""
    if hasattr(source, "read"):
        return source.read()
    with open(source, "rb") as fh:
        return fh.read()


def _utf8(data):
    """``data`` decoded as UTF-8; a byte that does not decode raises a
    ParseError naming its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8 "
                         f"({exc.reason})",
                         data.count(b"\n", 0, exc.start) + 1) from None


def _drop_blank(recs, lines, keep=None):
    """The non-blank records of a chunk and their lines.  ``keep(record)``
    (the record itself when None) is falsy for a blank one, which counts a
    line but holds no record."""
    from itertools import compress

    flags = recs if keep is None else list(map(keep, recs))
    if all(flags):
        return recs, lines
    kept = np.fromiter(map(bool, flags), bool, len(recs))
    return list(compress(recs, kept)), lines[kept]


def _merge_chunks(chunks):
    """One set of row columns from per-chunk ones (None for none), each
    (table, codes) pair merged into one table; a None chunk holds no row."""
    chunks = [c for c in chunks if c is not None]
    if len(chunks) < 2:   # nothing to merge (or to copy)
        return chunks[0] if chunks else None
    return {k: _merge_codes([c[k] for c in chunks]) if isinstance(v, tuple)
            else np.concatenate([c[k] for c in chunks])
            for k, v in chunks[0].items()}


def _scan(check, items, lines):
    """The fallback after a failed column check: check row by row and
    raise the first row's error."""
    for line, item in zip(lines.tolist(), items):
        check(line, item)
    raise RuntimeError("a column check failed but no row is malformed")


def _check_int(text, what, line):
    try:
        value = int(text)
    except ValueError:
        raise ParseError(f"non-integer {what} {text!r}", line) from None
    if not -2 ** 63 <= value < 2 ** 63:
        raise ParseError(f"{what} {text!r} out of range", line)


def _check_csv_row(line, rec):
    if len(rec) != len(CSV_COLUMNS):
        raise ParseError(f"expected {len(CSV_COLUMNS)} fields, "
                         f"got {len(rec)}", line)
    fid_s, _, x_s, y_s, ev_s, direction, _, _, period_s = rec
    _check_int(fid_s, "frame_id", line)
    try:
        x, y = float(x_s), float(y_s)
    except ValueError:
        raise ParseError(f"non-numeric position ({x_s!r}, {y_s!r})",
                         line) from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ParseError(f"non-finite position ({x_s!r}, {y_s!r})", line)
    if ev_s not in ("0", "1"):
        raise ParseError(f"is_event must be 0 or 1, got {ev_s!r}", line)
    if direction not in (LEFT_TO_RIGHT, RIGHT_TO_LEFT):
        raise ParseError(f"attack_direction must be "
                         f"{LEFT_TO_RIGHT} or {RIGHT_TO_LEFT}, "
                         f"got {direction!r}", line)
    _check_int(period_s, "period", line)


def _csv_rows(lines, fid, agent, tail, xy):
    """Row columns of one chunk of non-blank CSV records, or None when a
    value does not convert (the line-by-line check then names it).

    ``fid``, ``agent`` and ``tail`` are (distinct values, each row's index
    into them) pairs: of the frame_id fields, the agent_id fields (a
    sorted table) and the frame-level fields (is_event to period, a tuple
    of five strings).  Each distinct value is converted once.  ``xy``
    holds every row's x and y in turn, as float() reads them (NaN for a
    field it does not read).  The frame labels come back as one pair,
    ``labels``, whose table holds (is_event, right_to_left, team, game,
    period) tuples."""
    flags = {"0": False, "1": True}
    directions = {LEFT_TO_RIGHT: False, RIGHT_TO_LEFT: True}
    try:
        fids = np.fromiter(map(int, fid[0]), np.int64, len(fid[0]))
        ev, direction, team, game, period = zip(*tail[0])
        labels = list(zip(map(flags.__getitem__, ev),
                          map(directions.__getitem__, direction), team, game,
                          np.fromiter(map(int, period), np.int64,
                                      len(period)).tolist()))
    except (ValueError, OverflowError, KeyError):
        return None
    if not np.isfinite(xy).all():
        return None
    table, codes = _codes(labels)
    return {"line": lines, "frame_id": fids[fid[1]], "xy": xy.reshape(-1, 2),
            "agent": agent, "labels": (table, codes[tail[1]])}


def _floats(fields):
    """float() of each field (str or bytes) as float64; all NaN when one
    does not convert."""
    try:
        return np.fromiter(map(float, fields), float, len(fields))
    except ValueError:
        return np.full(len(fields), np.nan)


def _reader_rows(recs, lines):
    """Row columns of one chunk of csv.reader records (see ``_csv_rows``);
    the first malformed record raises."""
    from itertools import chain

    fid, agent, x, y, *tail = zip(*recs)
    rows = _csv_rows(lines, _codes(fid), _codes(agent),
                     _codes(list(zip(*tail))),
                     _floats([*chain.from_iterable(zip(x, y))]))
    if rows is None:
        _scan(_check_csv_row, recs, lines)
    return rows


def _long_field(line):
    return ParseError(f"a field is longer than the CSV field limit of "
                      f"{csv.field_size_limit()} characters", line)


# the low k bytes of a little-endian uint64, for k = 0, ..., 8
_LOW_BYTES = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
_MIX = np.uint64(0x9E3779B97F4A7C15)   # 2**64 over the golden ratio, odd


def _fields(block, starts, ends, odd=None):
    """The fields ``block[s:e]`` as bytes, or decoded where ``odd`` is set:
    a field holding a byte outside printable ASCII may convert differently
    as bytes (``float(b"\\xc2\\xa01")`` fails, ``float("\\xa01")`` is 1.0;
    numpy's S dtype would drop a trailing NUL)."""
    fields = [block[a:b] for a, b in zip(starts.tolist(), ends.tolist())]
    if odd is not None:
        for i in np.flatnonzero(odd).tolist():
            fields[i] = fields[i].decode()
    return fields


def _distinct(block, starts, ends, odd=None):
    """(distinct byte strings, each field's index into them) of the fields
    ``block[s:e]``, in no particular order; ``block`` ends in 8 zero bytes.

    A field is keyed by its bytes packed into uint64 words, zeros after
    them, so the keys of two fields without a zero byte are equal only
    when their bytes are.  A key of several words is summed into one for
    np.unique, each word times an odd factor.  Fields marked ``odd``,
    which may hold a zero byte, and fields whose sum is that of another
    key are keyed by their bytes one by one."""
    words = _words(block)
    codes = np.empty(len(starts), dtype=np.intp)
    slow = np.zeros(len(starts), bool) if odd is None else odd.copy()
    keyed = np.flatnonzero(~slow)
    table = []
    if len(keyed):
        at, size = starts[keyed], ends[keyed] - starts[keyed]
        j = np.arange(0, max(8, int(size.max())), 8)   # each word's offset
        key = words[np.minimum(at[:, None] + j, len(words) - 1)] & \
            _LOW_BYTES[np.clip(size[:, None] - j, 0, 8)]
        _, first, codes[keyed] = np.unique(
            key[:, 0] if len(j) == 1 else
            key @ ((2 * j + 1).astype(np.uint64) * _MIX),
            return_index=True, return_inverse=True)
        if len(j) > 1:
            slow[keyed] = (key != key[first][codes[keyed]]).any(axis=1)
        table = _fields(block, at[first], at[first] + size[first])
    if slow.any():
        rest = np.flatnonzero(slow)
        more, codes[rest] = _codes(_fields(block, starts[rest], ends[rest]))
        codes[rest] += len(table)
        table += more
    return table, codes


def _words(data):
    """``words[p]``: the 8 bytes from p on as one little-endian uint64."""
    return np.ndarray((len(data) - 7,), "<u8", data, 0, (1,))


# uint64 words of 8 equal bytes: 0x01, 0x80, "0", and the byte that, added
# to a digit value, sets the top bit when the value is over 9
_ONES, _TOPS, _ZEROS, _OVER_9 = (np.uint64(b * 0x0101010101010101)
                                 for b in (0x01, 0x80, 0x30, 0x76))
# per count k = 0..8 of digits in a word's low bytes: the factor that moves
# them to its high bytes, dropping the rest (a word of zeros for k = 0)
_TO_TOP = np.array([0] + [1 << 8 * (8 - k) for k in range(1, 9)], np.uint64)
_POW10 = np.array([10 ** k for k in range(9)], np.uint64)
_POW10_F = 10.0 ** np.arange(19)
# 10**q for q = 0..27, exact when long double is x87 extended precision
# (5**27 < 2**64) and rounds to 64 bits; one rounded to 53 bits fails the
# check in _EXTENDED from 10**23 on
_POW10_L = np.multiply.accumulate(np.array([1] + [10] * 27, np.longdouble))
_EXTENDED = np.finfo(np.longdouble).nmant == 63 and \
    [int(p) for p in _POW10_L] == [10 ** q for q in range(28)]


def _decimals(data, starts, ends, odd=None):
    """float() of each field ``data[s:e]`` as float64, bit for bit, and the
    indices of the fields read by float() itself (all NaN if one fails).

    A field -D.D or D.D with at most 7 digits before the point and 19 in
    all, or -D or D of at most 7 digits, is read from uint64 words 8 digits
    at a time (Lemire, SPE 2021) as w with q decimals.  w / 10**q is one
    correctly rounded division of exact numbers (Clinger, PLDI 1990): in
    float64 for w <= 2**53, else in x87 extended precision, then rounded to
    float64 unless within a unit in the last place of a halfway point.
    Other fields (an exponent, "+", "_", spaces, nan, ".5", "5.", non-ASCII
    bytes, more digits, an end in the last 7 bytes of ``data``, a large w
    without x87) go to float(), decoded where ``odd`` is set."""
    words = _words(data)
    last = len(words) - 1
    neg = np.frombuffer(data, np.uint8)[np.minimum(starts, len(data) - 1)] \
        == 45
    p = starts + neg   # the first digit
    size = ends - p
    # the position of the first "." in the word at p (8 for none): the
    # count of the bytes below the lowest of the 1s that mark "."s
    dots = (words[np.minimum(p, last)].view(np.uint8) == 46).view("<u8")
    dot = (((dots - 1) & ~dots & _ONES) * _ONES >> 56).astype(np.intp)
    i = np.minimum(dot, size)   # digits before the point
    f = size - i - 1   # digits after it; -1 without one
    # word 0 holds the integer part, words 1.. the decimals (as many as the
    # longest field needs), k digits from their first byte: digit values,
    # where any other byte sets its top bit
    step = np.arange(0, min(f.max(initial=0), 18), 8)[:, None]
    k = np.clip(np.concatenate([i[None], f - step]), 0, 8)
    d = words[np.minimum(np.concatenate([p[None], p + i + 1 + step]), last)]
    d -= _ZEROS
    d *= _TO_TOP[k]
    bad = ((d + _OVER_9) | d) & _TOPS
    # 8 digits to their value, first byte first: pairs, fours, then all
    for n, low in ((1, 0x00FF00FF00FF00FF), (2, 0x0000FFFF0000FFFF),
                   (4, 0xFFFFFFFF)):
        d *= np.uint64(10 ** n << 8 * n | 1)
        d >>= np.uint64(8 * n)
        d &= np.uint64(low)
    w = d[0]
    for r in range(1, len(d)):
        w = w * _POW10[k[r]] + d[r]
    ok = ~bad.any(axis=0) & (i >= 1) & (i <= 7) & (size <= 20) & \
        ((dot >= size) | (f >= 1)) & (ends <= len(words))
    q = np.clip(f, 0, 18)
    out = w.astype(float) / _POW10_F[q]
    big = np.flatnonzero(ok & (w > 2 ** 53))
    if _EXTENDED:
        quotient = w[big].astype(np.longdouble) / _POW10_L[q[big]]
        out[big] = quotient
        # the 11 bits of the 64-bit quotient below a float64's 53
        low = np.ldexp(np.frexp(quotient)[0], 64).astype(np.uint64) % 2048
        ok[big] = abs(low.astype(np.intp) - 1024) > 1
    else:
        ok[big] = False
    np.negative(out, out=out, where=neg)   # after dividing: -0.0 stays
    slow = np.flatnonzero(~ok)
    out[slow] = _floats(_fields(data, starts[slow], ends[slow],
                                None if odd is None else odd[slow]))
    return out, slow


def _count_lf(data, start, end):
    """``data.count(b"\\n", start, end)``, counted by numpy 1 MiB at a time:
    1.7 ms against 7.5 ms for an 11 MB file on a 2-vCPU VM."""
    buf = np.frombuffer(data, np.uint8)
    return sum(int(np.count_nonzero(buf[i:min(i + (1 << 20), end)] == 10))
               for i in range(start, end, 1 << 20))


def _lf_chunks(data, start, end, size):
    """(block, lf, line) for each ``size`` lines of ``data[start:end]``,
    which starts at a line's start: the lines' bytes, with an LF after a
    last line that lacks one and 8 zero bytes (for ``_words``); the
    offsets of the block's LFs; and the number of its first line in
    ``data``.  LFs are found 1 MiB at a time."""
    if start >= end:
        return
    buf = np.frombuffer(data, np.uint8)
    lf = np.concatenate([np.flatnonzero(buf[i:min(i + (1 << 20), end)] == 10)
                         + i for i in range(start, end, 1 << 20)])
    if data[end - 1] != 10:
        lf = np.append(lf, end)
    line = _count_lf(data, 0, start) + 1
    for j in range(0, len(lf), size):
        at = lf[j:j + size]
        stop = int(at[-1])
        yield b"".join((memoryview(data)[start:stop], b"\n", bytes(8))), \
            at - start, line + j
        start = stop + 1


def _spans(buf, lf):
    """The begin and end of each line of a block whose LFs are at ``lf``,
    the CR of a CRLF dropped."""
    begin = np.concatenate(([0], lf[:-1] + 1))
    return begin, lf - ((lf > begin) & (buf[lf - 1] == 13))


def _byte_rows(block, lf, line):
    """Row columns of one chunk of quote-free CSV lines (see
    ``_lf_chunks``); the first malformed line raises."""
    buf = np.frombuffer(block, np.uint8)
    begin, end = _spans(buf, lf)
    kept = end > begin   # a blank line counts but holds no record
    if not kept.any():
        return None
    lines = line + np.flatnonzero(kept)
    limit = csv.field_size_limit()
    rows = None
    commas = np.flatnonzero(buf == 44)
    # 8 commas on each line that holds a record (none on a blank one)
    if (np.diff(np.searchsorted(commas, lf), prepend=0)
            == (len(CSV_COLUMNS) - 1) * kept).all():
        # the bytes outside printable ASCII are the line ends alone
        plain = np.count_nonzero(np.subtract(buf[:-8], 32, dtype=np.uint8)
                                 > 94) == len(lf) + int((lf - end).sum())
        rows = _field_rows(block, commas.reshape(-1, len(CSV_COLUMNS) - 1),
                           begin[kept], end[kept], lines, plain, limit)
    if rows is None:
        def check(line, rec):
            if max(map(len, rec)) > limit:
                raise _long_field(line)
            _check_csv_row(line, rec)
        _scan(check, [rec.decode().split(",") for rec in _fields(
            block, begin[kept], end[kept])], lines)
    return rows


def _field_rows(block, commas, begin, end, lines, plain, limit):
    """``_csv_rows`` of the lines ``block[begin:end]``, field j of each
    ending at ``commas[:, j]`` (the last at ``end``), or None when a field
    holds more than ``limit`` characters or a value does not convert.
    Unless ``plain``, the fields holding a byte outside printable ASCII
    are decoded one by one."""
    def fields(a, b=None):
        """The starts and ends of the spans of fields a to b."""
        b = a if b is None else b
        return (begin if a == 0 else commas[:, a - 1] + 1,
                end if b == len(CSV_COLUMNS) - 1 else commas[:, b])

    odd = None
    if not plain or (end - begin).max() > limit:
        starts, stops = np.stack([fields(j) for j in range(len(CSV_COLUMNS))],
                                 axis=2)
        over = stops - starts > limit   # in bytes; the limit is characters
        if any(len(f.decode()) > limit
               for f in _fields(block, starts[over], stops[over])):
            return None
        seen = np.concatenate(([0], np.cumsum(np.subtract(np.frombuffer(
            block, np.uint8), 32, dtype=np.uint8) > 94, dtype=np.int32)))
        odd = seen[stops] > seen[starts]

    def column(a, b=None):
        table, codes = _distinct(block, *fields(a, b), None if odd is None
                                 else odd[:, a:(b or a) + 1].any(axis=1))
        return [t.decode() for t in table], codes
    tail, codes = column(4, 8)
    (x_start, x_stop), (y_start, y_stop) = fields(2), fields(3)
    xy, _ = _decimals(block, np.stack((x_start, y_start), 1).ravel(),
                      np.stack((x_stop, y_stop), 1).ravel(),
                      None if odd is None else odd[:, 2:4].ravel())
    return _csv_rows(lines, column(0), _merge_codes([column(1)]),
                     ([tuple(t.split(",")) for t in tail], codes), xy)


def _split_header(data):
    """The header fields of quote-free CSV bytes, and the offset of the
    line after it."""
    end = data.find(b"\n")
    if end < 0:
        end = len(data)
    header = data[:end].removesuffix(b"\r").decode()
    fields = header.split(",") if header else []
    if fields and max(map(len, fields)) > csv.field_size_limit():
        raise _long_field(1)
    return fields, min(end + 1, len(data))


def _reader_tokens(text, size):
    """The CSV tokenizer for text with a quote or a CR that does not end a
    line: csv.reader, whose quoted fields may hold commas, doubled quotes
    and newlines.  Yields the header, then (records, their lines) for up
    to ``size`` non-blank records at a time; a record's line is its first
    physical line.  A csv.reader error raises a ParseError at the first
    line of the record it stopped in, once the records before it have
    been yielded."""
    from itertools import islice, repeat

    def fault(exc, line):
        if "field limit" in str(exc):
            return _long_field(line)
        if "new-line character" in str(exc):
            return ParseError("carriage return inside an unquoted field; "
                              "lines must end in LF or CRLF", line)
        # e.g. "line contains NUL", which csv.reader raises before 3.11
        return ParseError(f"malformed CSV: {exc}", line)

    reader = csv.reader(io.StringIO(text))
    try:
        yield next(reader, [])   # the header
    except csv.Error as exc:
        raise fault(exc, 1) from None
    while True:
        first, recs, error = reader.line_num + 1, [], None
        try:
            recs.extend(islice(reader, size))
        except csv.Error as exc:   # the records read before it stay
            error = exc
        if not (recs or error):
            return
        # each record's first line, then the line after the last record
        lines = np.arange(first, first + len(recs) + 1)
        if error or lines[-1] != reader.line_num + 1:
            # a record spans one more line per newline in its quoted fields
            spans = np.fromiter(map(str.count, map("".join, recs),
                                    repeat("\n")), np.intp, len(recs))
            lines[1:] += np.cumsum(spans)
        kept, kept_lines = _drop_blank(recs, lines[:-1])
        if kept:
            if set(map(len, kept)) != {len(CSV_COLUMNS)}:
                _scan(_check_csv_row, kept, kept_lines)
            yield kept, kept_lines
        if error:
            raise fault(error, int(lines[-1]))


def _lf_parts(data, start, chunk_lines):
    """(start, end) offsets that cut ``data[start:]`` after an LF into one
    part per usable CPU, but no more parts than it has chunks of
    ``chunk_lines`` lines (see ``_read_parts``)."""
    lines = _count_lf(data, start, len(data)) + 1
    parts = min(parallel.usable_cpus(), -(-lines // chunk_lines))
    ends = sorted({data.find(b"\n", start + (len(data) - start) * j // parts)
                   + 1 or len(data) for j in range(1, parts)} | {len(data)})
    return list(zip([start, *ends[:-1]], ends))


def _read_parts(data, start, size, part, agree=None):
    """The merged row columns (None for no row) of ``part(data, a, b)``
    over the parts ``_lf_parts`` cuts ``data[start:]`` into, read with
    ``parallel.run_tasks``.  When one of several parts raises a
    ParseError, or ``agree(rows)`` is false, the whole is read again as
    one part, so the rows, every error and its line are a serial read's."""
    from functools import partial

    parts = _lf_parts(data, start, size)
    try:
        rows = _merge_chunks(parallel.run_tasks([partial(part, data, a, b)
                                                 for a, b in parts]))
        if agree is None or rows is None or agree(rows):
            return rows
    except ParseError:
        if len(parts) == 1:   # that part was the whole input
            raise
    return part(data, start, len(data))


def _csv_part(data, start, end):
    """The row columns (None for no record) of the quote-free CSV lines in
    ``data[start:end]``, with their line numbers in ``data``."""
    return _merge_chunks([_byte_rows(*chunk) for chunk in _lf_chunks(
        data, start, end, CSV_CHUNK_ROWS)])


def _parse_csv(data):
    """CSV bytes (or str, read encoded) without a quote whose every CR ends
    a line are read by the byte tokenizer in parts (``_read_parts``).
    Duplicate and label checks run once, on the merged rows.  Other text
    goes through csv.reader in this process, since a quoted field may hold
    a newline."""
    text = None   # for csv.reader
    if isinstance(data, str):
        text = data
        try:
            data = text.encode()
        except UnicodeEncodeError:   # a lone surrogate: read as text
            data = None
    elif not data.isascii():
        text = _utf8(data)
    if not (data or text):
        raise ParseError("empty input", 1)
    split = data is not None and b'"' not in data and (
        b"\r" not in data or data.count(b"\r") == data.count(b"\r\n"))
    if split:
        header, start = _split_header(data)
    else:
        tokens = _reader_tokens(data.decode() if text is None else text,
                                CSV_CHUNK_ROWS)
        header = next(tokens)
    if tuple(header) != CSV_COLUMNS:
        if header and header[0].startswith("\ufeff"):
            raise ParseError("the file starts with a UTF-8 byte-order mark "
                             "(U+FEFF); save it without one", 1)
        missing = set(CSV_COLUMNS) - set(header)
        detail = f"missing columns {sorted(missing)}" if missing else \
            f"got {header!r}"
        raise ParseError(f"header must be exactly "
                         f"{','.join(CSV_COLUMNS)}; {detail}", 1)
    rows = _read_parts(data, start, CSV_CHUNK_ROWS, _csv_part) if split \
        else _merge_chunks([_reader_rows(recs, lines)
                            for recs, lines in tokens])
    if rows is None:
        raise ParseError("no data rows")
    return _group_rows(rows)


def _group_rows(rows):
    """The Dataset of per-agent rows (in file order), canonically ordered.

    ``rows`` holds ``line``, ``frame_id`` and ``xy`` arrays and two
    (table, codes) pairs: ``agent``, whose table is sorted, and
    ``labels``, whose table holds (is_event, right_to_left, team, game,
    period) tuples.  Rows already in canonical order (frame ids
    non-decreasing, agent codes increasing within a frame, as the writers
    here write them) are taken as they stand; others are sorted.  The
    first row that disagrees with its frame's first row on a frame label,
    or repeats an agent of its frame, raises (the label check goes first
    on one row); then uneven agent counts do.
    """
    fid, line = rows["frame_id"], rows["line"]
    table, agent = rows["agent"]
    label_table, label = rows["labels"]
    new = fid[1:] != fid[:-1]
    if (fid[1:] >= fid[:-1]).all() and (agent[1:] > agent[:-1])[~new].all():
        order, dup = slice(None), np.empty(0, dtype=np.intp)
        first = np.flatnonzero(np.concatenate(([True], new)))
        frame_ids, frame_of = fid[first], np.cumsum(np.concatenate(([0], new)))
    else:
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
    labels = {name: np.array(values, dtype=dtype)[label[first]]
              for (name, dtype, _), values in zip(LABELS[1:],
                                                  zip(*label_table))}
    return Dataset(positions=rows["xy"][order].reshape(shape + (2,)),
                   agent_codes=agent[order].reshape(shape), agent_table=table,
                   frame_id=frame_ids, **labels)


_ABSENT = object()   # stands for a required JSONL key that is missing

# JSONL keys in check order: JSON type, what the message says it must be,
# and the value an absent key stands for ("agent_ids": () means "a<i>")
JSONL_KEYS = {"frame_id": (int, "an integer", _ABSENT),
              "positions": (list, "a non-empty list", _ABSENT),
              "agent_ids": (list, "a list", ()),
              "is_event": (bool, "true or false", False),
              "attack_direction": (str, f"{LEFT_TO_RIGHT} or {RIGHT_TO_LEFT}",
                                   LEFT_TO_RIGHT),
              "team": (str, "a string", ""), "game": (str, "a string", ""),
              "period": (int, "an integer", 1)}


def _check_jsonl_line(line, raw, seen):
    """Raise the ParseError of one JSONL line, if it has one; ``seen``
    holds the frame ids of the lines before it."""
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line) from None
    if type(obj) is not dict:
        raise ParseError(f"expected a JSON object, got {raw.strip()!r}", line)
    for key in ("frame_id", "positions"):
        if key not in obj:
            raise ParseError(f"missing key {key!r}", line)
    for key, (kind, wording, _) in JSONL_KEYS.items():
        if key in obj and type(obj[key]) is not kind:
            raise ParseError(f"{key} must be {wording}, got {obj[key]!r}",
                             line)
    fid, positions = obj["frame_id"], obj["positions"]
    _check_int(fid, "frame_id", line)
    if fid in seen:
        raise ParseError(f"duplicate frame_id {fid}", line)
    seen.add(fid)
    if not positions:
        raise ParseError("positions must be a non-empty list, got []", line)
    if len(obj.get("agent_ids", positions)) != len(positions):
        raise ParseError(f"{len(obj['agent_ids'])} agent_ids for "
                         f"{len(positions)} positions", line)
    for agent in obj.get("agent_ids", ()):
        if type(agent) is not str:
            raise ParseError(f"agent_ids entries must be strings, got "
                             f"{agent!r}", line)
    direction = obj.get("attack_direction", LEFT_TO_RIGHT)
    if direction not in (LEFT_TO_RIGHT, RIGHT_TO_LEFT):
        raise ParseError(f"attack_direction must be {LEFT_TO_RIGHT} or "
                         f"{RIGHT_TO_LEFT}, got {direction!r}", line)
    _check_int(obj.get("period", 1), "period", line)
    for pt in positions:
        if type(pt) is not list or len(pt) != 2 or \
                not {type(pt[0]), type(pt[1])} <= {int, float}:
            raise ParseError(f"non-numeric position {pt!r}", line)
        try:
            finite = math.isfinite(pt[0]) and math.isfinite(pt[1])
        except OverflowError:
            raise ParseError(f"non-numeric position {pt!r}", line) from None
        if not finite:
            raise ParseError(f"non-finite position {pt!r}", line)


def _jsonl_rows(objs, lines):
    """Row columns of decoded JSONL frames, or None when a value is
    malformed (the line-by-line check then names it).  ``xy`` and ``agent``
    hold one row per agent; the line, the frame id, the frame labels (a
    pair as ``_csv_rows`` makes it) and ``agents`` (the frame's agent
    count) one row per frame (see ``_per_agent``)."""
    from itertools import chain, compress, repeat
    from operator import methodcaller

    def typed(values, *types):
        return set(map(type, values)) <= set(types)

    if not typed(objs, dict):
        return None
    col = {}
    for key, (kind, _, default) in JSONL_KEYS.items():
        col[key] = list(map(methodcaller("get", key, default), objs))
        # an absent key reads as its default; a required key has none
        if not typed(col[key], kind, *(() if default is _ABSENT
                                        else (type(default),))):
            return None
    if not set(col["attack_direction"]) <= {LEFT_TO_RIGHT, RIGHT_TO_LEFT}:
        return None
    per_frame = np.fromiter(map(len, col["positions"]), np.intp, len(objs))
    given = np.fromiter(map(isinstance, col["agent_ids"], repeat(list)),
                        bool, len(objs))
    ids = list(compress(col["agent_ids"], given))
    points = list(chain.from_iterable(col["positions"]))
    if not (per_frame.all() and typed(points, list)
            and set(map(len, points)) == {2}
            and np.array_equal(list(map(len, ids)), per_frame[given])
            and typed(chain.from_iterable(ids), str)):
        return None
    coords = list(chain.from_iterable(points))
    if not typed(coords, int, float):
        return None
    try:
        xy = np.fromiter(coords, float, len(coords)).reshape(-1, 2)
        fid = np.array(col["frame_id"], dtype=np.int64)
        np.array(col["period"], dtype=np.int64)   # each one in range
    except OverflowError:
        return None
    if not np.isfinite(xy).all():
        return None
    # the given agent ids; "a<i>" for agent i of a frame without ids
    agent = np.empty(len(points), dtype=object)
    point_given = np.repeat(given, per_frame)
    agent[point_given] = list(chain.from_iterable(ids))
    if not given.all():
        within = np.arange(len(points)) - np.repeat(np.cumsum(per_frame)
                                                   - per_frame, per_frame)
        names = np.array([f"a{i}" for i in range(per_frame.max())],
                         dtype=object)
        agent[~point_given] = names[within[~point_given]]
    labels = zip(col["is_event"], map(RIGHT_TO_LEFT.__eq__,
                                       col["attack_direction"]),
                 col["team"], col["game"], col["period"])
    return {"line": lines, "frame_id": fid, "labels": _codes(list(labels)),
            "agents": per_frame, "xy": xy, "agent": _codes(agent.tolist())}


def _per_agent(rows):
    """``_jsonl_rows``' columns with one row per agent: each frame's line,
    frame id and label code repeated once per agent of the frame."""
    agents = rows.pop("agents")
    table, codes = rows.pop("labels")
    rows = {k: v if k in ("xy", "agent") else np.repeat(v, agents)
            for k, v in rows.items()}
    rows["labels"] = table, np.repeat(codes, agents)
    return rows


# the structural JSON characters, 1 in a translate table
_STRUCTURAL = bytes(b in b"{}[],:" for b in range(256))


def _skeleton(n):
    """The structural characters of a JSONL line of n agents up to the end
    of its positions, as write_tracking_jsonl writes it, and the gap after
    each but the last as [literal bytes, whether a number ("#") follows
    them]."""
    shape = ('{"frame_id": #, "positions": [' + ", ".join(["[#, #]"] * n)
             + "]")
    chars, gaps = "", []
    for ch in shape:
        if ch in "{}[],:":
            chars += ch
            gaps.append([b"", False])
        elif ch == "#":
            gaps[-1][1] = True
        else:
            gaps[-1][0] += ch.encode()
    return np.frombuffer(chars.encode(), np.uint8), gaps[:-1]


def _json_numbers(buf, at, end):
    """Whether each token ``buf[a:e]`` is a JSON number, given that it
    holds no "_", ".e" or ".E" and that float() (or int()) reads it: it
    starts with a digit, or "-" and a digit, has no leading zero and ends
    with a digit.  float() also reads "+1", ".5", "1.", "01", " 1", "1_0",
    "1.e5", "nan" and "inf"; these checks leave JSON's grammar alone."""
    def digit(p):
        return np.subtract(buf[p], 48, dtype=np.uint8) < 10

    first = at + (buf[at] == 45)
    return bool((digit(first) & digit(end - 1)
                 & ((buf[first] != 48) | ~digit(first + 1))).all())


def _writer_rows(block, lf, line):
    """``_jsonl_rows`` of the lines of a block (see ``_lf_chunks``) read
    from its bytes, or None unless every non-blank line starts as
    ``write_tracking_jsonl`` writes it: up to the first "]]", which ends
    its positions, exactly '{"frame_id": ' and an integer, then
    ', "positions": [' and [x, y] numbers with json.dumps' separators.
    The rest of a line, from the agent ids on, is read by json.loads once
    per distinct value and must hold the other six keys of
    ``JSONL_KEYS``, in order.  A coordinate is float() of its bytes, but
    an integer zero ("-0") is +0.0, as json.loads reads it; a frame id is
    int() of them.  A block holding a NUL byte, which JSON rejects raw and
    ``_distinct`` cannot key, is left to json.loads."""
    if block.find(b"\0", 0, len(block) - 8) >= 0:
        return None
    buf = np.frombuffer(block, np.uint8)
    begin, end = _spans(buf, lf)
    kept = np.flatnonzero(end > begin)   # a blank line holds no frame
    begin, end = begin[kept], end[kept]
    pairs = np.flatnonzero((buf[:-1] == 93) & (buf[1:] == 93))
    pair = np.searchsorted(pairs, begin)   # each line's first "]]"
    if not len(kept) or (pair == len(pairs)).any() or \
            (pairs[np.minimum(pair, len(pairs) - 1)] >= end).any():
        return None
    stop = pairs[pair]
    # the lines' heads, from their start to their first "]]", in a row
    head = b"".join(_fields(block, begin, stop + 2))
    at = np.cumsum(stop + 2 - begin) - (stop + 2 - begin)   # head starts
    buf = np.frombuffer(head, np.uint8)
    s = np.flatnonzero(np.frombuffer(head.translate(_STRUCTURAL), bool))
    count = np.diff(np.searchsorted(s, at), append=len(s))
    n = (int(count[0]) - 5) // 4
    if n < 1 or not (count == 4 * n + 5).all():
        return None
    chars, gaps = _skeleton(n)
    s = s.reshape(len(kept), len(chars))
    slot, offset, value = map(np.array, zip(*[
        (j, k, b) for j, (text, _) in enumerate(gaps)
        for k, b in enumerate(text)]))
    width = np.array([len(text) for text, _ in gaps])
    token = np.array([number for _, number in gaps])
    size = np.diff(s, axis=1) - 1
    first = s[:, :-1][:, token] + 1 + width[token]
    last = s[:, 1:][:, token]
    if not ((buf[s] == chars).all() and (s[:, 0] == at).all()
            and (s[:, -1] == at + stop + 1 - begin).all()
            and (buf[s[:, slot] + 1 + offset] == value).all()
            and (size[:, ~token] == width[~token]).all()
            and (size[:, token] > width[token]).all()
            and _json_numbers(buf, first, last)):
        return None
    # the rest of each line, keyed by its bytes: its values are checked
    # as json.loads and _jsonl_rows read them, once per distinct value
    rest, which = _distinct(block, stop + 2, end)
    try:
        objs = [json.loads("{" + r[1:].decode("utf-8", "surrogatepass"))
                for r in rest if r[:1] == b","]
    except json.JSONDecodeError:
        return None
    if len(objs) < len(rest) or \
            any(list(obj) != list(JSONL_KEYS)[2:] for obj in objs):
        return None   # a key of its own, or one missing, repeated or moved
    distinct = _jsonl_rows([{"frame_id": 0, "positions": [[0, 0]] * n,
                             **obj} for obj in objs], None)
    if distinct is None:
        return None
    fids = _fields(head, first[:, 0], last[:, 0])
    a, b = first[:, 1:].ravel(), last[:, 1:].ravel()   # the coordinates
    xy, slow = _decimals(head, a, b)
    # float() and int() read "1_0" and float() reads "1.e5", which JSON
    # does not; _decimals reads both with float()
    rest = b" ".join(fids + _fields(head, a[slow], b[slow]))
    if b"_" in rest or b".e" in rest or b".E" in rest:
        return None
    try:
        fid = np.fromiter(map(int, fids), np.int64, len(kept))
    except (ValueError, OverflowError):
        return None
    if not np.isfinite(xy).all():
        return None
    xy[(xy == 0) & (b - a == 2)] = 0.0  # "-0"
    (table, label), (ids, agent) = distinct["labels"], distinct["agent"]
    return {"line": line + kept, "frame_id": fid,
            "labels": (table, label[which]),
            "agents": np.full(len(kept), n), "xy": xy.reshape(-1, 2),
            "agent": (ids, agent.reshape(-1, n)[which].ravel())}


def _jsonl_part(data, start, end):
    """The ``_jsonl_rows`` columns (None for no frame) of the JSONL lines
    in ``data[start:end]``, with their line numbers in ``data``.  A chunk
    is read from its bytes (``_writer_rows``) or else decoded and read by
    json.loads.  Raises the ParseError of the first bad line, a frame id
    counting as repeated only within these lines."""
    chunks, seen = [], np.empty(0, dtype=np.int64)   # sorted, so far

    def more(rows):
        """The frame ids seen and those of ``rows``, sorted, or None when
        one repeats (or ``rows`` is None)."""
        if rows is None:
            return None
        ids = np.sort(np.concatenate([seen, rows["frame_id"]]), kind="stable")
        return None if (ids[1:] == ids[:-1]).any() else ids

    for block, lf, line in _lf_chunks(data, start, end, JSONL_CHUNK_LINES):
        rows = _writer_rows(block, lf, line)
        ids = more(rows)
        if ids is None:
            raw, lines = _drop_blank(
                block[:lf[-1]].decode("utf-8", "surrogatepass").split("\n"),
                np.arange(line, line + len(lf)), str.strip)
            if not raw:
                continue
            try:
                rows = _jsonl_rows(list(map(json.loads, raw)), lines)
            except json.JSONDecodeError:
                rows = None
            ids = more(rows)
            if ids is None:
                earlier = set(seen.tolist())
                _scan(lambda line, r: _check_jsonl_line(line, r, earlier),
                      raw, lines)
        seen = ids
        chunks.append(rows)
    return _merge_chunks(chunks)


def _parse_jsonl(data):
    """JSONL bytes read in parts (``_read_parts``), read again as a whole
    when a frame id of one part repeats in another.  Parts send their
    frame labels once per frame; they are repeated per agent here."""
    rows = _read_parts(data, 0, JSONL_CHUNK_LINES, _jsonl_part,
                       lambda rows: np.diff(np.sort(rows["frame_id"])).all())
    if rows is None:
        raise ParseError("no frames")
    return _group_rows(_per_agent(rows))


def parse_tracking(source, format: str = "csv") -> Dataset:
    """Parse a tracking file (path or file-like) into a Dataset.

    format is "csv" or "jsonl".  Errors raise ParseError with the 1-based
    line number of the offending record where applicable.
    """
    data = _read(source)
    if format == "csv":
        return _parse_csv(data)
    if format == "jsonl":
        if isinstance(data, str):   # lone surrogates pass, as in json.loads
            data = data.encode("utf-8", "surrogatepass")
        elif not data.isascii():
            _utf8(data)   # a byte that is not UTF-8 raises, naming its line
        return _parse_jsonl(data)
    raise ValueError(f"unknown format {format!r}")


def _label_columns(ds):
    """The per-frame labels in file order, the direction as LR/RL."""
    return (ds.is_event, np.where(ds.right_to_left, RIGHT_TO_LEFT,
                                  LEFT_TO_RIGHT), ds.team, ds.game, ds.period)


@contextmanager
def _open_output(path, **kwargs):
    """A str, bytes or os.PathLike ``path`` opened for writing as UTF-8 and
    closed afterwards; anything else is an open text file, left open."""
    if isinstance(path, (str, bytes, os.PathLike)):
        with open(path, "w", encoding="utf-8", **kwargs) as fh:
            yield fh
    else:
        yield path


def write_json(path, obj) -> None:
    """``obj`` as JSON with an indent of 1."""
    with _open_output(path) as fh:
        json.dump(obj, fh, indent=1)


def _cell(value):
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return str(value)
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    """A header line and one line per row, cells joined by commas and not
    quoted: a str cell as is, an integer with ``str`` and any other number
    as ``repr(float(v))``, which parses back to the same float."""
    with _open_output(path) as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(map(_cell, row)) + "\n" for row in rows)


def write_jsonl(path, objs) -> None:
    """One ``json.dumps`` line per object."""
    with _open_output(path) as fh:
        fh.writelines(map("{}\n".format, map(json.dumps, objs)))


def write_tracking_csv(ds: Dataset, path) -> None:
    """Inverse of the CSV parser; floats use repr for exact round-trips."""
    ev, direction, team, game, period = (np.repeat(c, ds.n_agents).tolist()
                                         for c in _label_columns(ds))
    xy = flatten(ds)
    rows = zip(np.repeat(ds.frame_id, ds.n_agents).tolist(),
               ds.agent_ids.ravel().tolist(), map(repr, xy[:, 0].tolist()),
               map(repr, xy[:, 1].tolist()), map(int, ev), direction, team,
               game, period)
    # csv.writer quotes a field that holds a comma, quote or line break
    with _open_output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)


def write_tracking_jsonl(ds: Dataset, path) -> None:
    from itertools import repeat

    keys = ("frame_id", "positions", "agent_ids", "is_event",
            "attack_direction", "team", "game", "period")
    values = zip(ds.frame_id.tolist(), ds.positions.tolist(),
                 ds.agent_ids.tolist(),
                 *(c.tolist() for c in _label_columns(ds)))
    write_jsonl(path, map(dict, map(zip, repeat(keys), values)))


def normalize_attack_direction(ds: Dataset) -> Dataset:
    """Reflect right-to-left frames through the origin; mark everything LR.

    The 180 degree rotation (negate both coordinates) keeps formation shape
    and chirality consistent relative to the attacking direction.  Frames
    already left-to-right pass through untouched, so a second application is
    the identity.
    """
    rl = ds.right_to_left
    if not rl.any():
        return ds
    return replace(ds, positions=np.where(rl[:, None, None], -ds.positions,
                                          ds.positions), right_to_left=None)


def center_normalize(ds: Dataset) -> Dataset:
    """Subtract each frame's agent-position mean, removing translation.

    Frames whose mean is already within 1e-12 of the origin are passed
    through unchanged, which makes the operation exactly idempotent.
    """
    mean = ds.positions.mean(axis=1)
    moved = np.hypot(mean[:, 0], mean[:, 1]) > 1e-12
    if not moved.any():
        return ds
    # x - 0.0 is x, bit for bit, so unmoved frames keep their values
    shift = np.where(moved[:, None], mean, 0.0)
    return replace(ds, positions=ds.positions - shift[:, None, :])


def filter_key_frames(ds: Dataset) -> Dataset:
    """Keep only event frames, in order."""
    if not ds.is_event.any():
        raise EmptySelectionError("no event frames in dataset")
    return ds.take(ds.is_event)


def filter_metadata(ds: Dataset, team=None, game=None, period=None) -> Dataset:
    """Select frames by team/game/period labels; None means no constraint."""
    keep = np.ones(ds.n_frames, dtype=bool)
    for column, value in ((ds.team, team), (ds.game, game),
                          (ds.period, period)):
        if value is not None:
            keep &= column == value
    if not keep.any():
        raise EmptySelectionError("no frames match the metadata filter")
    return ds.take(keep)


def flatten(ds: Dataset) -> np.ndarray:
    """All frames as an (S*N, 2) matrix, frame-major (a read-only view).

    Row s*N + n is agent n of frame s.
    """
    return ds.positions.reshape(-1, 2)


def concat_datasets(parts) -> Dataset:
    """Concatenate datasets (same agent count) into one frame sequence."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to concatenate")
    for p in parts:
        if p.n_agents != parts[0].n_agents:
            raise ValueError(f"frame {p.frame_id[0]} has {p.n_agents} "
                             f"agents, expected {parts[0].n_agents}")
    table, codes = _merge_codes([(p.agent_table, p.agent_codes.ravel())
                                 for p in parts])
    labels = {name: np.concatenate([getattr(p, name) for p in parts])
              for name, _, _ in LABELS}
    return Dataset(positions=np.concatenate([p.positions for p in parts]),
                   agent_codes=codes.reshape(-1, parts[0].n_agents),
                   agent_table=table, **labels)
