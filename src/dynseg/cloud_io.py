"""Text formats for point-cloud frames, label files, manifests, and interaction logs.

Every format follows the same rules.  Readers skip blank lines and lines
starting with "#", and every parse error names the faulty line as
"path:line".  Frame and ground-truth files open with a "<magic> v1 <N>"
header.  Writers emit "\n" newlines, single-space separators, and no
trailing whitespace, so repeated runs produce byte-identical files.  Frame
files, which segmenting reads on its timed path, are parsed by numpy and
read line by line only when in doubt; every other format is read line by
line.
"""

from __future__ import annotations

import os
import warnings
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

import numpy as np

FRAME_MAGIC = "ptseq"
LABEL_MAGIC = "ptlab"
FORMAT_VERSION = "v1"
# an interaction log's first line; readers skip it as a comment
INTERACTION_HEADER = f"# interactions {FORMAT_VERSION}"
_FRAME_ROW = np.dtype([("x", "f8"), ("y", "f8"), ("z", "f8"), ("r", "i8"), ("g", "i8"), ("b", "i8")])


class ParseError(Exception):
    """Malformed input file; message carries path and line number."""


def _fail(path: str | os.PathLike, line_no: int, msg: str) -> None:
    raise ParseError(f"{path}:{line_no}: {msg}")


def _int64s(fields: list[str], path: str | os.PathLike, line_no: int, what: str) -> list[int]:
    """The integer fields of one line; a field that is no integer, or lies outside int64, fails naming the line."""
    try:
        values = [int(f) for f in fields]
    except ValueError:
        _fail(path, line_no, f"non-integer {what} in {' '.join(fields)!r}")
    if not all(-(2**63) <= v < 2**63 for v in values):
        _fail(path, line_no, f"{what} outside int64 in {' '.join(fields)!r}")
    return values


def significant_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """(line number from 1, stripped line) for each line that is neither blank nor a "#" comment."""
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _read_header(numbered: Iterator[tuple[int, str]], path: str | os.PathLike, magic: str, what: str) -> int:
    """The count N of the "<magic> v1 <N>" header, taken from the first of the significant lines."""
    first = next(numbered, None)
    if first is None:
        raise ParseError(f"{path}: missing '{magic} {FORMAT_VERSION}' header")
    line_no, line = first
    parts = line.split()
    if len(parts) != 3 or parts[0] != magic or parts[1] != FORMAT_VERSION:
        _fail(path, line_no, f"bad header {line!r}, expected '{magic} {FORMAT_VERSION} <N>'")
    try:
        count = int(parts[2])
    except ValueError:
        _fail(path, line_no, f"non-numeric {what} count {parts[2]!r}")
    if count < 0:
        _fail(path, line_no, f"negative {what} count")
    return count


def _write_lines(path: str | os.PathLike, lines: Iterable[str], row: str = "", rows: np.ndarray = np.empty(0)) -> None:
    """Write each line, then every row of the numeric table rows through the one %-format row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(f"{line}\n" for line in lines) + row * len(rows) % tuple(rows.ravel().tolist()))


def _numeric_rows(path: str | os.PathLike) -> np.ndarray | None:
    """The frame rows np.loadtxt parses, or None where it does not.

    The first line must be exactly "ptseq v1 <N>" and N rows must follow.
    loadtxt parses a subset of what float() and int() accept and skips blank
    lines as the line checker does; "#" lines are data to it, so they leave
    the file in doubt.  numpy releases that parse an integer field such as
    "12.0" through float only warn, so the warning is an error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        head, _, count = fh.readline().rstrip("\n").rpartition(" ")
    if head != f"{FRAME_MAGIC} {FORMAT_VERSION}" or not (count.isascii() and count.isdigit()):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows
            warnings.simplefilter("error", DeprecationWarning)
            rows = np.loadtxt(path, dtype=_FRAME_ROW, comments=None, skiprows=1, ndmin=2, encoding="utf-8")
    except (ValueError, DeprecationWarning):  # the line checker names the fault
        return None
    return rows if len(rows) == int(count) else None


@dataclass
class PointCloudFrame:
    """One foreground cloud: positions in meters, colors as 8-bit RGB."""

    frame_index: int
    points: np.ndarray  # (N, 3) float64
    colors: np.ndarray  # (N, 3) uint8

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=np.float64).reshape(-1, 3)
        self.colors = np.asarray(self.colors, dtype=np.uint8).reshape(-1, 3)
        if len(self.points) != len(self.colors):
            raise ValueError("points and colors must have equal length")
        if not np.all(np.isfinite(self.points)):
            raise ValueError("coordinates must be finite")

    @property
    def num_points(self) -> int:
        return len(self.points)


@dataclass
class LabeledFrame:
    """Per-point object ids for one frame."""

    frame_index: int
    labels: np.ndarray  # (N,) int64

    def __post_init__(self) -> None:
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)


@dataclass
class SequenceManifest:
    name: str
    frame_paths: list[str]
    gt_paths: list[str] = field(default_factory=list)


@dataclass(frozen=True)
class InteractionRecord:
    """Wire-format interaction event: closed frame interval plus object ids."""

    start_frame: int
    end_frame: int
    blob_hint: int
    object_ids: tuple[int, ...]


def load_frame(path: str | os.PathLike, frame_index: int = 0) -> PointCloudFrame:
    """Read one "ptseq v1" frame file. "#" lines are ignored anywhere.

    A file that is its header line and then the declared number of six-field
    rows is parsed with numpy.  On any doubt (a field count, the point count,
    a field that does not parse, a non-finite coordinate, a colour outside
    0-255, a "#" line) the line checker reads it again, so every error names
    its line and out-of-range colours are clamped with a warning.
    """
    rows = _numeric_rows(path)
    if rows is not None:  # (N, 1) rows of six 8-byte fields view as (N, 6)
        points, colors = rows.view(np.float64)[:, :3], rows.view(np.int64)[:, 3:]
        if np.isfinite(points).all() and ((colors >= 0) & (colors <= 255)).all():
            return PointCloudFrame(frame_index=frame_index, points=points.copy(), colors=colors)
    points, colors, clamped = _check_frame_lines(path)
    if clamped:
        warnings.warn(f"{path}: color values outside [0, 255] were clamped", stacklevel=2)
    return PointCloudFrame(frame_index=frame_index, points=points, colors=colors)


def _check_frame_lines(path: str | os.PathLike) -> tuple[np.ndarray, np.ndarray, bool]:
    """Read a frame file line by line: (points, clamped colors, whether any were clamped).

    Raises ParseError naming the first faulty line.
    """
    pts: list[tuple[float, float, float]] = []
    cols: list[tuple[int, int, int]] = []
    clamped = False
    with open(path, "r", encoding="utf-8") as fh:
        numbered = significant_lines(fh)
        expected = _read_header(numbered, path, FRAME_MAGIC, "point")
        for line_no, line in numbered:
            fields = line.split()
            if len(fields) != 6:
                _fail(path, line_no, f"expected 6 fields, got {len(fields)}")
            if len(pts) >= expected:
                _fail(path, line_no, f"more than the declared {expected} points")
            try:
                x, y, z = float(fields[0]), float(fields[1]), float(fields[2])
                r, g, b = int(fields[3]), int(fields[4]), int(fields[5])
            except ValueError:
                _fail(path, line_no, f"non-numeric field in {line!r}")
            if not (np.isfinite(x) and np.isfinite(y) and np.isfinite(z)):
                _fail(path, line_no, "non-finite coordinate")
            if not (0 <= r <= 255 and 0 <= g <= 255 and 0 <= b <= 255):
                clamped = True
                r, g, b = (min(max(c, 0), 255) for c in (r, g, b))
            pts.append((x, y, z))
            cols.append((r, g, b))
    if len(pts) != expected:
        raise ParseError(f"{path}: end of file: header declared {expected} points, found {len(pts)}")
    points = np.asarray(pts, dtype=np.float64).reshape(-1, 3)
    colors = np.asarray(cols, dtype=np.uint8).reshape(-1, 3)
    return points, colors, clamped


def write_frame(frame: PointCloudFrame, path: str | os.PathLike) -> None:
    """Write a frame with 9-significant-digit coordinates (round-trip safe)."""
    header = f"{FRAME_MAGIC} {FORMAT_VERSION} {frame.num_points}"
    # colours are exact in float64, so "%d" prints them as the uint8 values
    _write_lines(path, [header], "%.9g %.9g %.9g %d %d %d\n", np.hstack([frame.points, frame.colors]))


def load_ground_truth(path: str | os.PathLike) -> np.ndarray:
    """Read a "ptlab v1" file of per-point integer labels."""
    labels: list[int] = []
    with open(path, "r", encoding="utf-8") as fh:
        numbered = significant_lines(fh)
        expected = _read_header(numbered, path, LABEL_MAGIC, "label")
        for line_no, line in numbered:
            labels += _int64s([line], path, line_no, "label")
            if len(labels) > expected:
                _fail(path, line_no, f"more than the declared {expected} labels")
    if len(labels) != expected:
        raise ParseError(f"{path}: end of file: header declared {expected} labels, found {len(labels)}")
    return np.asarray(labels, dtype=np.int64)


def write_ground_truth(labels: np.ndarray, path: str | os.PathLike) -> None:
    labels = np.asarray(labels, dtype=np.int64).reshape(-1)
    _write_lines(path, [f"{LABEL_MAGIC} {FORMAT_VERSION} {len(labels)}"], "%d\n", labels)


def load_sequence(path: str | os.PathLike) -> SequenceManifest:
    """Read a manifest: ordered "frame <path>" lines, optional "gt <path>" and "name <string>"."""
    base = os.path.dirname(os.path.abspath(path))
    name = os.path.splitext(os.path.basename(path))[0]
    frames: list[str] = []
    gts: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in significant_lines(fh):
            parts = line.split(maxsplit=1)
            if len(parts) != 2:
                _fail(path, line_no, f"malformed manifest line {line!r}")
            key, value = parts
            if key == "frame":
                frames.append(os.path.join(base, value))
            elif key == "gt":
                gts.append(os.path.join(base, value))
            elif key == "name":
                name = value
            else:
                _fail(path, line_no, f"unknown manifest keyword {key!r}")
    if not frames:
        raise ParseError(f"{path}: manifest lists no frames")
    for fp in frames + gts:
        if not os.path.isfile(fp):
            raise ParseError(f"{path}: referenced file does not exist: {fp}")
    if gts and len(gts) != len(frames):
        raise ParseError(f"{path}: ground truth length mismatch: {len(frames)} frames, {len(gts)} gt files")
    # header-level point-count agreement between frames and ground truth
    for i, (fp, gp) in enumerate(zip(frames, gts)):
        with open(fp, "r", encoding="utf-8") as ffh, open(gp, "r", encoding="utf-8") as gfh:
            nf = _read_header(significant_lines(ffh), fp, FRAME_MAGIC, "point")
            ng = _read_header(significant_lines(gfh), gp, LABEL_MAGIC, "label")
        if nf != ng:
            raise ParseError(f"{path}: frame {i}: {nf} points but {ng} ground-truth labels")
    return SequenceManifest(name=name, frame_paths=frames, gt_paths=gts)


def write_manifest(manifest: SequenceManifest, path: str | os.PathLike) -> None:
    """Paths are written relative to the manifest directory."""
    base = os.path.dirname(os.path.abspath(path))
    lines = [f"name {manifest.name}"]
    lines.extend(f"frame {os.path.relpath(p, base)}" for p in manifest.frame_paths)
    lines.extend(f"gt {os.path.relpath(p, base)}" for p in manifest.gt_paths)
    _write_lines(path, lines)


def write_labels(frame: LabeledFrame, path: str | os.PathLike) -> None:
    """Write "frame_index point_index object_id" lines for one frame."""
    if len(frame.labels) == 0:
        raise ValueError("refusing to write an empty label set")
    if np.any(frame.labels < 0):
        raise ValueError("negative object id in labels")
    rows = np.column_stack([np.arange(len(frame.labels)), frame.labels])
    _write_lines(path, [], f"{frame.frame_index} %d %d\n", rows)


def read_label_file(path: str | os.PathLike) -> dict[int, dict[int, int]]:
    """Read label lines back into {frame_index: {point_index: object_id}}.

    Frames and points keep their file order.  Raises ParseError naming the
    first faulty line.
    """
    out: dict[int, dict[int, int]] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in significant_lines(fh):
            parts = line.split()
            if len(parts) != 3:
                _fail(path, line_no, f"expected 3 fields, got {len(parts)}")
            f, p, o = _int64s(parts, path, line_no, "field")
            rows = out.setdefault(f, {})
            if p in rows:
                _fail(path, line_no, f"repeated row for frame {f} point {p}")
            rows[p] = o
    return out


def read_labels_dir(labels_dir: str | os.PathLike) -> dict[int, np.ndarray]:
    """Collect all label files in a directory into dense per-frame arrays."""
    merged: dict[int, dict[int, int]] = {}
    names = sorted(n for n in os.listdir(labels_dir) if n.startswith("labels") and n.endswith(".txt"))
    if not names:
        raise ParseError(f"{labels_dir}: no label files found")
    for n in names:
        path = os.path.join(labels_dir, n)
        for f, rows in read_label_file(path).items():
            seen = merged.setdefault(f, {})
            if repeated := seen.keys() & rows.keys():
                raise ParseError(f"{path}: frame {f}: point {min(repeated)} is also in an earlier label file")
            seen.update(rows)
    dense: dict[int, np.ndarray] = {}
    for f, rows in sorted(merged.items()):
        n = len(rows)
        if sorted(rows) != list(range(n)):
            raise ParseError(f"{labels_dir}: frame {f}: point indices not contiguous from 0")
        dense[f] = np.asarray([rows[i] for i in range(n)], dtype=np.int64)
    return dense


def write_interaction_log(events: list[InteractionRecord], path: str | os.PathLike) -> None:
    """One event per line: start end blob_hint and the sorted object ids."""
    records = []
    for ev in events:
        ids = tuple(sorted(int(i) for i in ev.object_ids))
        records.append((int(ev.start_frame), int(ev.end_frame), int(ev.blob_hint), ids))
    records.sort(key=lambda r: (r[0], r[1], r[3]))
    lines = [INTERACTION_HEADER]
    lines.extend(f"{s} {e} {h} " + " ".join(str(i) for i in ids) for s, e, h, ids in records)
    _write_lines(path, lines)


def read_interaction_log(path: str | os.PathLike) -> list[InteractionRecord]:
    out: list[InteractionRecord] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in significant_lines(fh):
            parts = line.split()
            if len(parts) < 5:
                _fail(path, line_no, "expected 'start end blob_hint id id [...]'")
            vals = _int64s(parts, path, line_no, "field")
            out.append(
                InteractionRecord(
                    start_frame=vals[0],
                    end_frame=vals[1],
                    blob_hint=vals[2],
                    object_ids=tuple(sorted(vals[3:])),
                )
            )
    return out

