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

CSV text is tokenized one of two ways, chosen from the text alone.  Text
without a double quote whose lines end in LF or CRLF is split with
``str.split``: every line is one record, and its fields are the line, its
end dropped, split at commas, which is exactly what csv.reader reads
there.  Any other text goes through csv.reader, the one tokenizer for
quoted fields.  Both hand the same per-chunk columns to the same
conversions and checks, so values and messages do not depend on the
tokenizer.  Line numbers count physical lines (a record's first one).  A
field longer than ``csv.field_size_limit()``, a CR that does not end a
line and any other csv.reader error (before Python 3.11, a NUL character)
raise a ParseError naming the line, as does a byte that is not UTF-8.

JSONL lines end at LF alone: U+2028, U+2029 and U+0085 may stand raw inside
a JSON string, and the CR of a CRLF is JSON whitespace.

Quote-free CSV text and JSONL text of more than one chunk are cut at LF into
parts read on every usable CPU (``_lf_parts``, ``parallel.run_tasks``); the
Dataset and every error are those of a serial read (see ``_parse_csv`` and
``_parse_jsonl``).  CSV read by csv.reader is read in one process, since a
quoted field may hold a newline.
"""

from __future__ import annotations

import io
import json
import csv
import math
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
    """Positions of all agents at one instant, plus frame-level labels."""

    frame_id: int
    positions: np.ndarray
    agent_ids: tuple
    is_event: bool = False
    attack_direction: str = LEFT_TO_RIGHT
    team: str = ""
    game: str = ""
    period: int = 1

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must be (N, 2), got {pos.shape}")
        if not np.all(np.isfinite(pos)):
            raise ValueError(f"frame {self.frame_id}: non-finite position")
        for agent in self.agent_ids:
            if not isinstance(agent, str):
                raise ValueError(f"frame {self.frame_id}: agent ids must be "
                                 f"strings, got {agent!r}")
        ids = tuple(map(str, self.agent_ids))   # plain str, not np.str_
        if len(ids) != pos.shape[0]:
            raise ValueError(f"frame {self.frame_id}: {len(ids)} agent ids "
                             f"for {pos.shape[0]} positions")
        if len(set(ids)) != len(ids):
            raise ValueError(f"frame {self.frame_id}: duplicate agent ids")
        if self.attack_direction not in (LEFT_TO_RIGHT, RIGHT_TO_LEFT):
            raise ValueError(f"frame {self.frame_id}: bad attack_direction "
                             f"{self.attack_direction!r}")
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "agent_ids", ids)

    @property
    def n_agents(self):
        return self.positions.shape[0]


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

    ``positions[s, i]`` belongs to agent ``agent_table[agent_codes[s, i]]``;
    the table is sorted, so code order is id order.  Each label holds one
    value per frame (team and game as object arrays of str, the attack
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
        bad = ~np.isfinite(pos).all(axis=(1, 2))
        if bad.any():
            raise ValueError(f"frame {columns['frame_id'][bad.argmax()]}: "
                             f"non-finite position")
        for name, value in columns.items():
            value = value.view()
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "agent_table", tuple(self.agent_table))

    @classmethod
    def from_frames(cls, frames) -> "Dataset":
        """Build the columns from Frame records, keeping their order."""
        frames = tuple(frames)
        if not frames:
            raise ValueError("Dataset needs at least one frame")
        n = frames[0].n_agents
        for f in frames:
            if f.n_agents != n:
                raise ValueError(f"frame {f.frame_id} has {f.n_agents} "
                                 f"agents, expected {n}")
        table, codes = _codes([a for f in frames for a in f.agent_ids])
        labels = {name: [getattr(f, name) for f in frames]
                  for name, _, _ in LABELS if name != "right_to_left"}
        return cls(positions=np.stack([f.positions for f in frames]),
                   agent_codes=codes.reshape(len(frames), n),
                   agent_table=table,
                   right_to_left=[f.attack_direction == RIGHT_TO_LEFT
                                  for f in frames], **labels)

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
        """The frames as Frame records, built on each access (for building
        and inspecting; no hot path reads it)."""
        return tuple(map(self.frame, range(self.n_frames)))

    def frame(self, s) -> Frame:
        """Frame s as a Frame record."""
        return Frame(frame_id=int(self.frame_id[s]),
                     positions=self.positions[s],
                     agent_ids=tuple(map(self.agent_table.__getitem__,
                                         self.agent_codes[s].tolist())),
                     is_event=bool(self.is_event[s]),
                     attack_direction=RIGHT_TO_LEFT if self.right_to_left[s]
                     else LEFT_TO_RIGHT, team=self.team[s],
                     game=self.game[s], period=int(self.period[s]))

    def stacked(self) -> np.ndarray:
        """``positions``, under the name the benchmark's workload builder
        (``perfbench/workloads.py``) still calls; read ``positions``."""
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
        """
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


def _read_text(source):
    """The text of a path or file-like source; bytes are decoded as UTF-8,
    and a byte that does not decode raises a ParseError naming its line."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        with open(source, "rb") as fh:
            data = fh.read()
    if isinstance(data, str):
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte 0x{data[exc.start]:02x} is not UTF-8 "
                         f"({exc.reason})",
                         data.count(b"\n", 0, exc.start) + 1) from None


def _chunks(records, keep, size, line=1):
    """(non-blank records, their line numbers) for ``size`` records at a
    time, the first on ``line``; see ``_drop_blank`` for ``keep``."""
    from itertools import islice

    records = iter(records)
    while chunk := list(islice(records, size)):
        kept, lines = _drop_blank(chunk, np.arange(line, line + len(chunk)),
                                  keep)
        if kept:
            yield kept, lines
        line += len(chunk)


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
    """One set of row columns from per-chunk ones (None for none), agent
    codes merged; a None chunk holds no row."""
    chunks = [c for c in chunks if c is not None]
    if len(chunks) < 2:   # nothing to merge (or to copy)
        return chunks[0] if chunks else None
    rows = {k: np.concatenate([c[k] for c in chunks])
            for k in chunks[0] if k != "agent"}
    rows["agent"] = _merge_codes([c["agent"] for c in chunks])
    return rows


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


def _per_string(values, convert, dtype):
    """``convert`` of every value, called once per distinct string (for the
    frame-level columns, which repeat one string on every agent's row)."""
    table, codes = _codes(values)
    return np.fromiter(map(convert, table), dtype, len(table))[codes]


def _csv_rows(cols, lines):
    """Row columns of one chunk of non-blank CSV records, given as its nine
    columns of field strings (either tokenizer's) and physical lines."""
    fid_s, aid, x_s, y_s, ev_s, direction, team, game, period_s = cols
    n = len(lines)
    try:
        rows = {"line": lines, "frame_id": _per_string(fid_s, int, np.int64),
                "xy": np.stack([np.fromiter(map(float, x_s), float, n),
                                np.fromiter(map(float, y_s), float, n)], 1),
                "is_event": _per_string(
                    ev_s, {"0": False, "1": True}.__getitem__, bool),
                "right_to_left": _per_string(
                    direction, {LEFT_TO_RIGHT: False,
                                RIGHT_TO_LEFT: True}.__getitem__, bool),
                "period": _per_string(period_s, int, np.int64)}
    except (ValueError, OverflowError, KeyError):
        rows = None
    if rows is None or not np.isfinite(rows["xy"]).all():
        _scan(_check_csv_row, zip(*cols), lines)
    rows.update(agent=_codes(aid), team=np.array(team, dtype=object),
                game=np.array(game, dtype=object))
    return rows


def _long_field(line):
    return ParseError(f"a field is longer than the CSV field limit of "
                      f"{csv.field_size_limit()} characters", line)


def _text_lines(text, start, end, size):
    """Lists of ``size`` lines (the last may be shorter) of
    ``text[start:end]``, without their "\\n" or "\\r\\n".  The text is split
    one block of about 64 * size characters at a time, so no list of every
    line is built."""
    pending = []
    while start < end:
        stop = text.find("\n", start + 64 * size, end) + 1 or end
        block = text[start:stop]
        if "\r" in block:
            block = block.replace("\r\n", "\n")
        pending += block.split("\n")
        if block.endswith("\n"):
            pending.pop()
        start = stop
        while len(pending) >= size or (pending and start == end):
            yield pending[:size]
            del pending[:size]


def _too_long(rec, limit):
    """Whether a quote-free line holds a field over ``limit`` characters
    (only a line over the limit can)."""
    return len(rec) > limit and max(map(len, rec.split(","))) > limit


def _split_header(text):
    """The header record of text for ``_split_tokens``, and the offset of
    the line after it."""
    end = text.find("\n")
    if end < 0:
        end = len(text)
    header = text[:end].removesuffix("\r")
    if _too_long(header, csv.field_size_limit()):
        raise _long_field(1)
    return (header.split(",") if header else []), min(end + 1, len(text))


def _split_tokens(text, start, end, size):
    """The CSV tokenizer for text without a quote whose every CR ends a line
    (CRLF): each line is one record and its fields are ``line.split(",")``
    once the line end is gone, as csv.reader would read them.  Yields the
    (columns, lines) of each chunk of up to ``size`` lines of
    ``text[start:end]``, which starts at a line's start, numbered as lines
    of ``text``; a field over the csv module's field limit raises once the
    lines before it have been yielded.  ``_split_header`` reads the
    header."""
    from itertools import repeat

    limit = csv.field_size_limit()
    line = text.count("\n", 0, start) + 1
    for chunk in _text_lines(text, start, end, size):
        first, fault = line, None
        line += len(chunk)
        if max(map(len, chunk)) > limit:
            bad = next((j for j, rec in enumerate(chunk)
                        if _too_long(rec, limit)), None)
            if bad is not None:
                chunk, fault = chunk[:bad], _long_field(first + bad)
        chunk, lines = _drop_blank(chunk,
                                   np.arange(first, first + len(chunk)))
        if chunk:
            if set(map(str.count, chunk, repeat(","))) != \
                    {len(CSV_COLUMNS) - 1}:
                _scan(_check_csv_row, [r.split(",") for r in chunk], lines)
            fields = ",".join(chunk).split(",")
            yield [fields[i::len(CSV_COLUMNS)]
                   for i in range(len(CSV_COLUMNS))], lines
        if fault:
            raise fault


def _reader_tokens(text, size):
    """The CSV tokenizer for any other text: csv.reader, whose quoted fields
    may hold commas, doubled quotes and newlines.  Yields what
    ``_split_tokens`` yields, for up to ``size`` records at a time; a
    record's line is its first physical line.  A csv.reader error raises a
    ParseError at the first line of the record it stopped in, once the
    records before it have been yielded."""
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
            yield list(zip(*kept)), kept_lines
        if error:
            raise fault(error, int(lines[-1]))


def _lf_parts(text, start, chunk_lines):
    """(start, end) offsets that cut ``text[start:]`` after an LF into one
    part per usable CPU, but no more parts than it has chunks of
    ``chunk_lines`` lines; a parser reads them with ``parallel.run_tasks``.
    """
    parts = min(parallel.usable_cpus(),
                -(-(text.count("\n", start) + 1) // chunk_lines))
    ends = sorted({text.find("\n", start + (len(text) - start) * j // parts)
                   + 1 or len(text) for j in range(1, parts)} | {len(text)})
    return list(zip([start, *ends[:-1]], ends))


def _csv_part(text, start, end):
    """The row columns (None for no record) of the quote-free CSV lines in
    ``text[start:end]``, with their line numbers in ``text``."""
    return _merge_chunks([_csv_rows(cols, lines) for cols, lines in
                          _split_tokens(text, start, end, CSV_CHUNK_ROWS)])


def _parse_csv(text):
    """Quote-free text (``_split_tokens``) is cut at LF into parts read on
    every usable CPU, each part's errors being those of a serial read of
    it, so the first failing part's error is a serial read's.  Duplicate
    and label checks run once, on the merged rows.  Text read by
    csv.reader, whose quoted fields may hold a newline, is read in this
    process."""
    from functools import partial

    if not text:
        raise ParseError("empty input", 1)
    split = '"' not in text and ("\r" not in text or
                                 text.count("\r") == text.count("\r\n"))
    if split:
        header, start = _split_header(text)
    else:
        tokens = _reader_tokens(text, CSV_CHUNK_ROWS)
        header = next(tokens)
    if tuple(header) != CSV_COLUMNS:
        missing = set(CSV_COLUMNS) - set(header)
        detail = f"missing columns {sorted(missing)}" if missing else \
            f"got {header!r}"
        raise ParseError(f"header must be exactly "
                         f"{','.join(CSV_COLUMNS)}; {detail}", 1)
    if split:
        parts = parallel.run_tasks([
            partial(_csv_part, text, a, b)
            for a, b in _lf_parts(text, start, CSV_CHUNK_ROWS)])
    else:
        parts = [_merge_chunks([_csv_rows(cols, lines)
                                for cols, lines in tokens])]
    rows = _merge_chunks(parts)
    if rows is None:
        raise ParseError("no data rows")
    return _group_rows(rows)


def _group_rows(rows):
    """The Dataset of per-agent rows (in file order), canonically ordered.

    The first row that disagrees with its frame's first row on a frame
    label, or repeats an agent of its frame, raises (the label check goes
    first on one row); then uneven agent counts do.
    """
    fid, line = rows["frame_id"], rows["line"]
    table, agent = rows["agent"]
    frame_ids, first, frame_of = np.unique(fid, return_index=True,
                                           return_inverse=True)
    labels = {name: rows[name][first] for name, _, _ in LABELS
              if name != "frame_id"}
    disagree = np.zeros(len(fid), dtype=bool)
    for name, value in labels.items():
        disagree |= rows[name] != value[frame_of]
    order = np.lexsort((agent, fid))
    dup = order[1:][(fid[order][1:] == fid[order][:-1])
                    & (agent[order][1:] == agent[order][:-1])]
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
    hold one row per agent; the line, the frame labels and ``agents`` (the
    frame's agent count) one row per frame (see ``_per_agent``)."""
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
        period = np.array(col["period"], dtype=np.int64)
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
    return {"line": lines, "frame_id": fid, "period": period,
            "is_event": np.array(col["is_event"], dtype=bool),
            "right_to_left": np.array(col["attack_direction"])
            == RIGHT_TO_LEFT, "team": np.array(col["team"], dtype=object),
            "game": np.array(col["game"], dtype=object), "agents": per_frame,
            "xy": xy, "agent": _codes(agent.tolist())}


def _per_agent(rows):
    """``_jsonl_rows``' columns with one row per agent: each frame's line
    and labels repeated once per agent of the frame."""
    agents = rows.pop("agents")
    return {k: v if k in ("xy", "agent") else np.repeat(v, agents)
            for k, v in rows.items()}


_scan_object = json.JSONDecoder().scan_once


def _decode(line):
    """``json.loads(line)``.  A line that is exactly one object, "{" to
    "}", is read by the decoder's scanner alone, skipping json.loads'
    whitespace handling; any other line, and any error, is json.loads'."""
    if line.startswith("{") and line.endswith("}"):
        try:
            obj, end = _scan_object(line, 0)
        except (json.JSONDecodeError, StopIteration):
            pass
        else:
            if end == len(line):
                return obj
    return json.loads(line)


def _jsonl_part(text, start, end):
    """The ``_jsonl_rows`` columns (None for no frame) and sorted frame ids
    of the JSONL lines in ``text[start:end]``, with their line numbers in
    ``text``.  Raises the ParseError of its first bad line, a frame id
    counting as repeated only within these lines."""
    from operator import itemgetter

    chunks, seen = [], np.empty(0, dtype=np.int64)   # sorted, so far
    for raw, lines in _chunks(text[start:end].split("\n"), str.strip,
                              JSONL_CHUNK_LINES,
                              text.count("\n", 0, start) + 1):
        try:
            objs = list(map(_decode, raw))
        except json.JSONDecodeError:
            rows = None
        else:
            rows = _jsonl_rows(objs, lines)
        if rows is not None:
            ids = np.sort(np.concatenate([seen, np.fromiter(
                map(itemgetter("frame_id"), objs), np.int64, len(objs))]),
                kind="stable")
        if rows is None or (ids[1:] == ids[:-1]).any():
            earlier = set(seen.tolist())
            _scan(lambda line, r: _check_jsonl_line(line, r, earlier), raw,
                  lines)
        seen = ids
        chunks.append(rows)
    return _merge_chunks(chunks), seen


def _parse_jsonl(text):
    """Text of two or more chunks of lines is cut at LF into parts
    (``_lf_parts``), each read like the whole.  When a part fails, or
    repeats a frame id of another, the whole text is read in one part, so
    errors and their lines are those of a serial read.  Parts send their
    frame labels once per frame; they are repeated per agent here."""
    from functools import partial

    parts = _lf_parts(text, 0, JSONL_CHUNK_LINES)
    try:
        read = parallel.run_tasks([partial(_jsonl_part, text, a, b)
                                   for a, b in parts])
    except ParseError:
        if len(parts) == 1:   # that part was the whole text
            raise
        read = None
    if read is not None:
        ids = np.sort(np.concatenate([seen for _, seen in read]),
                      kind="stable")
        if (ids[1:] == ids[:-1]).any():
            read = None
    if read is None:
        read = [_jsonl_part(text, 0, len(text))]
    rows = _merge_chunks([r for r, _ in read])
    if rows is None:
        raise ParseError("no frames")
    return _group_rows(_per_agent(rows))


def parse_tracking(source, format: str = "csv") -> Dataset:
    """Parse a tracking file (path or file-like) into a Dataset.

    format is "csv" or "jsonl".  Errors raise ParseError with the 1-based
    line number of the offending record where applicable.
    """
    text = _read_text(source)
    if format == "csv":
        return _parse_csv(text)
    if format == "jsonl":
        return _parse_jsonl(text)
    raise ValueError(f"unknown format {format!r}")


def _label_columns(ds):
    """The per-frame labels in file order, the direction as LR/RL."""
    return (ds.is_event, np.where(ds.right_to_left, RIGHT_TO_LEFT,
                                  LEFT_TO_RIGHT), ds.team, ds.game, ds.period)


def _open_output(path, **kwargs):
    """(file object, whether this call opened it)."""
    own = isinstance(path, (str, bytes)) or hasattr(path, "__fspath__")
    return (open(path, "w", **kwargs) if own else path), own


def write_tracking_csv(ds: Dataset, path) -> None:
    """Inverse of the CSV parser; floats use repr for exact round-trips."""
    ev, direction, team, game, period = (np.repeat(c, ds.n_agents).tolist()
                                         for c in _label_columns(ds))
    xy = flatten(ds)
    rows = zip(np.repeat(ds.frame_id, ds.n_agents).tolist(),
               ds.agent_ids.ravel().tolist(), map(repr, xy[:, 0].tolist()),
               map(repr, xy[:, 1].tolist()), map(int, ev), direction, team,
               game, period)
    fh, own = _open_output(path, newline="")
    try:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows(rows)
    finally:
        if own:
            fh.close()


def write_tracking_jsonl(ds: Dataset, path) -> None:
    from itertools import repeat

    keys = ("frame_id", "positions", "agent_ids", "is_event",
            "attack_direction", "team", "game", "period")
    values = zip(ds.frame_id.tolist(), ds.positions.tolist(),
                 ds.agent_ids.tolist(),
                 *(c.tolist() for c in _label_columns(ds)))
    objs = map(dict, map(zip, repeat(keys), values))
    fh, own = _open_output(path)
    try:
        fh.writelines(map("{}\n".format, map(json.dumps, objs)))
    finally:
        if own:
            fh.close()


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

    Row s*N + n is agent n of frame s; the frame structure is recoverable
    through unflatten given a template Dataset.
    """
    return ds.positions.reshape(-1, 2)


def unflatten(points: np.ndarray, like: Dataset) -> Dataset:
    """Inverse of flatten, borrowing ids and labels from ``like``."""
    pts = np.array(points, dtype=float)
    s, n = like.n_frames, like.n_agents
    if pts.shape != (s * n, 2):
        raise ValueError(f"expected shape ({s * n}, 2), got {pts.shape}")
    return replace(like, positions=pts.reshape(s, n, 2))


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
