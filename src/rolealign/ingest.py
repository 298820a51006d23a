"""Tracking-data ingestion and the fixed normalization pipeline.

Frames arrive as raw pitch coordinates with an attacking direction; discovery
wants a flat (S*N) x 2 matrix of direction-normalized, per-frame-centered
points.  The pipeline order is fixed: attack direction, then centering, then
the optional key-frame filter, then flattening.

Two interchange formats are supported and documented byte-for-byte in the
README: a long-form CSV (one agent per row) and a JSONL stream (one frame
object per line).  Parsing is canonical: agents within a frame are ordered by
agent_id, frames by frame_id, so any row order on disk yields the same
Dataset.
"""

from __future__ import annotations

import io
import json
import csv
import math
from dataclasses import dataclass, replace

import numpy as np

LEFT_TO_RIGHT = "LR"
RIGHT_TO_LEFT = "RL"

CSV_COLUMNS = ("frame_id", "agent_id", "x", "y", "is_event",
               "attack_direction", "team", "game", "period")


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
        ids = tuple(str(a) for a in self.agent_ids)
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


@dataclass(frozen=True)
class Dataset:
    """An immutable sequence of frames with a uniform agent count."""

    frames: tuple

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ValueError("Dataset needs at least one frame")
        n = frames[0].n_agents
        for f in frames:
            if f.n_agents != n:
                raise ValueError(f"frame {f.frame_id} has {f.n_agents} agents, "
                                 f"expected {n}")
        object.__setattr__(self, "frames", frames)

    @property
    def n_frames(self):
        return len(self.frames)

    @property
    def n_agents(self):
        return self.frames[0].n_agents

    def stacked(self) -> np.ndarray:
        """All positions as an (S, N, 2) array."""
        return np.stack([f.positions for f in self.frames])


def _read_text(source):
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, bytes):
            data = data.decode("utf-8")
        return data
    with open(source, "rb") as fh:
        return fh.read().decode("utf-8")


def _build_frames(rows):
    """Group parsed per-agent rows into Frames, canonically ordered.

    rows: list of (line, frame_id, agent_id, x, y, is_event, direction,
    team, game, period).  Raises on duplicate agents or inconsistent
    frame-level fields.
    """
    by_frame = {}
    for row in rows:
        line, fid, aid, x, y, ev, direction, team, game, period = row
        meta = (ev, direction, team, game, period)
        if fid not in by_frame:
            by_frame[fid] = (meta, {})
        else:
            if by_frame[fid][0] != meta:
                raise ParseError(f"frame {fid}: frame-level fields disagree "
                                 f"with an earlier row", line)
        agents = by_frame[fid][1]
        if aid in agents:
            raise ParseError(f"duplicate agent {aid!r} in frame {fid}", line)
        agents[aid] = (x, y)
    frames = []
    for fid in sorted(by_frame):
        (ev, direction, team, game, period), agents = by_frame[fid]
        ids = sorted(agents)
        pos = np.array([agents[a] for a in ids], dtype=float)
        frames.append(Frame(frame_id=fid, positions=pos, agent_ids=ids,
                            is_event=ev, attack_direction=direction,
                            team=team, game=game, period=period))
    sizes = {f.n_agents for f in frames}
    if len(sizes) > 1:
        bad = min(frames, key=lambda f: f.n_agents)
        raise ParseError(f"frame {bad.frame_id} has {bad.n_agents} agents; "
                         f"other frames have {max(sizes)}")
    return Dataset(frames=tuple(frames))


def _parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("empty input", 1) from None
    if tuple(header) != CSV_COLUMNS:
        missing = set(CSV_COLUMNS) - set(header)
        detail = f"missing columns {sorted(missing)}" if missing else \
            f"got {header!r}"
        raise ParseError(f"header must be exactly "
                         f"{','.join(CSV_COLUMNS)}; {detail}", 1)
    rows = []
    for line, rec in enumerate(reader, start=2):
        if not rec:
            continue
        if len(rec) != len(CSV_COLUMNS):
            raise ParseError(f"expected {len(CSV_COLUMNS)} fields, "
                             f"got {len(rec)}", line)
        fid_s, aid, x_s, y_s, ev_s, direction, team, game, period_s = rec
        try:
            fid = int(fid_s)
        except ValueError:
            raise ParseError(f"non-integer frame_id {fid_s!r}", line) from None
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
        try:
            period = int(period_s)
        except ValueError:
            raise ParseError(f"non-integer period {period_s!r}", line) from None
        rows.append((line, fid, aid, x, y, ev_s == "1", direction,
                     team, game, period))
    if not rows:
        raise ParseError("no data rows")
    return _build_frames(rows)


def _parse_jsonl(text):
    rows = []
    seen_ids = set()
    for line, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip():
            continue
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc.msg}", line) from None
        for key in ("frame_id", "positions"):
            if key not in obj:
                raise ParseError(f"missing key {key!r}", line)
        fid = obj["frame_id"]
        if not isinstance(fid, int):
            raise ParseError(f"frame_id must be an integer, got {fid!r}", line)
        if fid in seen_ids:
            raise ParseError(f"duplicate frame_id {fid}", line)
        seen_ids.add(fid)
        positions = obj["positions"]
        ids = obj.get("agent_ids", [f"a{n}" for n in range(len(positions))])
        if len(ids) != len(positions):
            raise ParseError(f"{len(ids)} agent_ids for "
                             f"{len(positions)} positions", line)
        ev = obj.get("is_event", False)
        if not isinstance(ev, bool):
            raise ParseError(f"is_event must be true or false, got {ev!r}",
                             line)
        direction = obj.get("attack_direction", LEFT_TO_RIGHT)
        team = str(obj.get("team", ""))
        game = str(obj.get("game", ""))
        period = int(obj.get("period", 1))
        for aid, pt in zip(ids, positions):
            try:
                x, y = float(pt[0]), float(pt[1])
            except (TypeError, ValueError, IndexError):
                raise ParseError(f"non-numeric position {pt!r}", line) from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"non-finite position {pt!r}", line)
            rows.append((line, fid, str(aid), x, y, ev, direction,
                         team, game, period))
    if not rows:
        raise ParseError("no frames")
    return _build_frames(rows)


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


def write_tracking_csv(ds: Dataset, path) -> None:
    """Inverse of the CSV parser; floats use repr for exact round-trips."""
    own = isinstance(path, (str, bytes)) or hasattr(path, "__fspath__")
    fh = open(path, "w", newline="") if own else path
    try:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for f in ds.frames:
            for aid, (x, y) in zip(f.agent_ids, f.positions):
                writer.writerow([f.frame_id, aid, repr(float(x)),
                                 repr(float(y)), int(f.is_event),
                                 f.attack_direction, f.team, f.game, f.period])
    finally:
        if own:
            fh.close()


def write_tracking_jsonl(ds: Dataset, path) -> None:
    own = isinstance(path, (str, bytes)) or hasattr(path, "__fspath__")
    fh = open(path, "w") if own else path
    try:
        for f in ds.frames:
            obj = {"frame_id": f.frame_id,
                   "positions": [[float(x), float(y)] for x, y in f.positions],
                   "agent_ids": list(f.agent_ids),
                   "is_event": f.is_event,
                   "attack_direction": f.attack_direction,
                   "team": f.team, "game": f.game, "period": f.period}
            fh.write(json.dumps(obj) + "\n")
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
    out = []
    for f in ds.frames:
        if f.attack_direction == LEFT_TO_RIGHT:
            out.append(f)
        else:
            out.append(replace(f, positions=-f.positions,
                               attack_direction=LEFT_TO_RIGHT))
    return Dataset(frames=tuple(out))


def center_normalize(ds: Dataset) -> Dataset:
    """Subtract each frame's agent-position mean, removing translation.

    Frames whose mean is already within 1e-12 of the origin are passed
    through unchanged, which makes the operation exactly idempotent.
    """
    out = []
    for f in ds.frames:
        mean = f.positions.mean(axis=0)
        if float(np.hypot(mean[0], mean[1])) <= 1e-12:
            out.append(f)
        else:
            out.append(replace(f, positions=f.positions - mean))
    return Dataset(frames=tuple(out))


def filter_key_frames(ds: Dataset) -> Dataset:
    """Keep only event frames, in order."""
    kept = tuple(f for f in ds.frames if f.is_event)
    if not kept:
        raise EmptySelectionError("no event frames in dataset")
    return Dataset(frames=kept)


def filter_metadata(ds: Dataset, team=None, game=None, period=None) -> Dataset:
    """Select frames by team/game/period labels; None means no constraint."""
    kept = tuple(f for f in ds.frames
                 if (team is None or f.team == team)
                 and (game is None or f.game == game)
                 and (period is None or f.period == period))
    if not kept:
        raise EmptySelectionError("no frames match the metadata filter")
    return Dataset(frames=kept)


def flatten(ds: Dataset) -> np.ndarray:
    """Stack all frames into an (S*N, 2) matrix, frame-major.

    Row s*N + n is agent n of frame s; the frame structure is recoverable
    through unflatten given a template Dataset.
    """
    return ds.stacked().reshape(-1, 2)


def unflatten(points: np.ndarray, like: Dataset) -> Dataset:
    """Inverse of flatten, borrowing ids and labels from ``like``."""
    pts = np.asarray(points, dtype=float)
    s, n = like.n_frames, like.n_agents
    if pts.shape != (s * n, 2):
        raise ValueError(f"expected shape ({s * n}, 2), got {pts.shape}")
    cube = pts.reshape(s, n, 2)
    frames = tuple(replace(f, positions=cube[i])
                   for i, f in enumerate(like.frames))
    return Dataset(frames=frames)


def concat_datasets(parts) -> Dataset:
    """Concatenate datasets (same agent count) into one frame sequence."""
    parts = list(parts)
    if not parts:
        raise ValueError("nothing to concatenate")
    frames = tuple(f for ds in parts for f in ds.frames)
    return Dataset(frames=frames)
