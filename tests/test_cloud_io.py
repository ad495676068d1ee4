import hashlib
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from dynseg import cloud_io
from dynseg.cloud_io import (
    InteractionRecord,
    LabeledFrame,
    ParseError,
    PointCloudFrame,
    SequenceManifest,
    _check_frame_lines,
    load_frame,
    load_ground_truth,
    load_sequence,
    read_interaction_log,
    read_label_file,
    read_labels_dir,
    write_frame,
    write_ground_truth,
    write_interaction_log,
    write_labels,
    write_manifest,
)
from dynseg.evaluation import generate_scenario, make_scenario


def _frame(n=4, frame_index=0):
    rng = np.random.default_rng(7)
    pts = rng.normal(size=(n, 3))
    cols = rng.integers(0, 256, size=(n, 3), dtype=np.uint8)
    return PointCloudFrame(frame_index=frame_index, points=pts, colors=cols)


def test_frame_roundtrip(tmp_path):
    frame = _frame(17)
    path = tmp_path / "f.txt"
    write_frame(frame, path)
    back = load_frame(path, frame_index=frame.frame_index)
    np.testing.assert_allclose(back.points, frame.points, rtol=1e-6, atol=1e-9)
    np.testing.assert_array_equal(back.colors, frame.colors)
    assert back.frame_index == frame.frame_index


def test_frame_header(tmp_path):
    path = tmp_path / "f.txt"
    write_frame(_frame(3), path)
    first = path.read_text().splitlines()[0]
    assert first == "ptseq v1 3"


def test_empty_frame_roundtrip(tmp_path):
    frame = PointCloudFrame(0, np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8))
    path = tmp_path / "empty.txt"
    write_frame(frame, path)
    assert load_frame(path).num_points == 0


def test_load_frame_bad_magic(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("nope v1 1\n0 0 0 1 2 3\n")
    with pytest.raises(ParseError) as err:
        load_frame(path)
    assert ":1:" in str(err.value)


def test_load_frame_count_mismatch(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ptseq v1 2\n0 0 0 1 2 3\n")
    with pytest.raises(ParseError):
        load_frame(path)


def test_load_frame_bad_field_count(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("ptseq v1 1\n0 0 0 1 2\n")
    with pytest.raises(ParseError) as err:
        load_frame(path)
    assert ":2:" in str(err.value)


def test_load_frame_clamps_colors(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("ptseq v1 1\n0 0 0 300 -5 90\n")
    with pytest.warns(UserWarning):
        frame = load_frame(path)
    np.testing.assert_array_equal(frame.colors[0], [255, 0, 90])


_COORDS = ["0", "-1.25", "+3", "1_0", "1__0", "1e-3", "-2E+2", ".5", "5.", "nan", "-inf", "Infinity", "infinity",
           "-Infinity", "1e999", "0x10", "abc", "\u0661", "\u0661\u0662"]
_COLORS = ["0", "255", "+7", "-0", "0_9", "1_2", "213.0", "2e2", "0x10", "256", "300", "-5", "99999999999999999999",
           "\u0663", "x"]
_LINES = ["# note", "  # 1 2 3 4 5 6", "", "   ", "1 2 3 4 5 6", "1 2 3 4 5", "1 2 3 4 5 6 7"]


@st.composite
def _frame_texts(draw):
    """A valid frame file, mutated field by field and line by line; (text, mutated)."""
    n = draw(st.integers(0, 5))
    coord = st.floats(-10, 10).map(lambda v: f"{v:.9g}")
    rows = [draw(st.lists(coord, min_size=3, max_size=3)) + [str(draw(st.integers(0, 255))) for _ in range(3)]
            for _ in range(n)]
    count = draw(st.sampled_from([str(n)] * 12 + [str(n + 1), str(max(n - 1, 0)), "-1", "x", "+" + str(n)]))
    mutated = count != str(n)
    for kind in draw(st.lists(st.sampled_from(["coord", "color", "color", "insert", "delete"]), max_size=2)):
        full = [row for row in rows if len(row) == 6]
        if kind in ("coord", "color") and full:
            row = full[draw(st.integers(0, len(full) - 1))]
            col = draw(st.integers(0, 2)) + (3 if kind == "color" else 0)
            row[col] = draw(st.sampled_from(_COORDS if kind == "coord" else _COLORS))
        elif kind == "insert":
            rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(_LINES)).split(" "))
        elif rows:
            del rows[draw(st.integers(0, len(rows) - 1))]
        mutated = True
    lines = [f"ptseq v1 {count}"] + [" ".join(row) for row in rows]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    ending = draw(st.sampled_from([newline, ""]))
    return newline.join(lines) + ending, mutated


def _outcome(read):
    """What a frame reader gives: its arrays and warnings, or its ParseError message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            frame = read()
        except ParseError as err:
            return str(err)
    points, colors = frame.points, frame.colors
    return points.dtype, points.tobytes(), colors.dtype, colors.tobytes(), [str(w.message) for w in caught]


def _line_checker(path):
    points, colors, clamped = _check_frame_lines(path)
    if clamped:
        warnings.warn(f"{path}: color values outside [0, 255] were clamped")
    return PointCloudFrame(0, points, colors)


def _lead_with_clean_rows(text, lead_rows):
    """text with lead_rows clean rows after its first significant line, whose plain count rises by lead_rows.

    A count that is not ascii digits (after an optional "+") is left as it is,
    so a faulty header stays faulty and a clean file stays clean.
    """
    lines = text.splitlines(keepends=True)
    first = next((i for i, line in enumerate(lines) if line.strip() and not line.strip().startswith("#")), None)
    if first is None:
        return text
    body = lines[first].rstrip("\r\n")
    ending = lines[first][len(body):] or "\n"
    head, sep, count = body.rpartition(" ")
    digits = count.removeprefix("+")
    if digits.isascii() and digits.isdigit():
        body = head + sep + count[:len(count) - len(digits)] + str(int(digits) + lead_rows)
    rows = [f"{i * 0.25:.9g} -1 2 {i % 256} 128 255{ending}" for i in range(lead_rows)]
    return "".join(lines[:first] + [body + ending] + rows + lines[first + 1:])


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_frame_texts())
@example(case=("ptseq v1 1\n1_0 0 0 1_0 0 0\n", True))  # underscores
@example(case=("ptseq v1 1\n+1 -2 +0 +7 -0 9\n", True))  # signs
@example(case=("ptseq v1 1\n1e-3 -2E+2 1e999 1 2 3\n", True))  # exponents
@example(case=("ptseq v1 2\n0 0 0 1 2 3\nnan inf 0 1 2 3\n", True))
@example(case=("ptseq v1 1\n0 0 0 213.0 2e2 3\n", True))  # float-looking colours
@example(case=("ptseq v1 1\n0 0 0 300 -5 99999999999999999999\n", True))  # clamped colours
@example(case=("# head\nptseq v1 1\n\n  # 1 2 3 4 5 6\n0 0 0 1 2 3\n", True))
@example(case=("ptseq v1 1\r\n0.5 0 0 1 2 3\r\n", False))
@example(case=("ptseq v1 1\n0 0 0 1 2 3\n0 0 0 1 2 3\n", True))  # an extra row
@example(case=("ptseq v1 2\n0 0 0 1 2 3\n", True))  # a missing row
@example(case=("ptlab v1 1\n0 0 0 1 2 3\n", True))  # another format's header
@example(case=("  ptseq  v1 1\n0 0 0 1 2 3\n", True))  # a header only the checker takes
# tokens float() and int() accept but loadtxt does not
@example(case=("ptseq v1 1\n0 1_0 0 1 2 3\n", True))
@example(case=("ptseq v1 1\n0 0 \u0661 1 2 3\n", True))
@example(case=("ptseq v1 1\n0 0 0 1 1_2 3\n", True))
# non-finite tokens loadtxt accepts
@example(case=("ptseq v1 1\ninf 0 0 1 2 3\n", True))
@example(case=("ptseq v1 1\n0 nan 0 1 2 3\n", True))
@example(case=("ptseq v1 1\n0 0 infinity 1 2 3\n", True))
@example(case=("ptseq v1 1\n-Infinity 0 0 1 2 3\n", True))
# colours both parsers take, then colours both reject
@example(case=("ptseq v1 1\n0 0 0  12 +12 3\n", False))
@example(case=("ptseq v1 1\n0 0 0 12.0 2 3\n", True))
@example(case=("ptseq v1 1\n0 0 0 1 0x10 3\n", True))
@example(case=("ptseq v1 1\n0 0 0 1 2 1e1\n", True))
@pytest.mark.parametrize("lead_rows", [2, 512])
def test_load_frame_matches_the_line_checker(tmp_path, lead_rows, case):
    """numpy conversion gives the frame, message or warning the line checker gives.

    The case's rows follow lead_rows clean rows, so faults also sit deep in a larger file.
    """
    text, mutated = case
    path = tmp_path / "frame.txt"
    path.write_bytes(_lead_with_clean_rows(text, lead_rows).encode("utf-8"))
    assert _outcome(lambda: load_frame(path)) == _outcome(lambda: _line_checker(path))
    if not mutated:  # a clean file skips the line checker
        with mock.patch.object(cloud_io, "_check_frame_lines", side_effect=AssertionError("line checker ran")):
            load_frame(path)


def test_an_integer_parsed_through_float_reaches_the_line_checker(tmp_path, monkeypatch):
    """numpy releases that parse "12.0" as an int64 field only warn; the file is still in doubt."""
    loadtxt = np.loadtxt

    def warning_loadtxt(path, *args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return loadtxt(path.read_text().replace("12.0", "12").splitlines(), *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", warning_loadtxt)
    (tmp_path / "frame.txt").write_text("ptseq v1 1\n0 0 0 12.0 2 3\n")
    with pytest.raises(ParseError, match=r"frame.txt:2: non-numeric field"):
        load_frame(tmp_path / "frame.txt")


def test_labels_roundtrip(tmp_path):
    labels = np.array([4, 4, 0, 2, 0])
    path = tmp_path / "gt.txt"
    write_ground_truth(labels, path)
    np.testing.assert_array_equal(load_ground_truth(path), labels)


@pytest.mark.parametrize("value", ["9223372036854775808", "-9223372036854775809", "99999999999999999999"])
def test_labels_outside_int64_name_their_line(tmp_path, value):
    gt = tmp_path / "gt.txt"
    gt.write_text(f"ptlab v1 2\n0\n{value}\n")
    with pytest.raises(ParseError, match=rf"gt.txt:3: label outside int64 in '{value}'"):
        load_ground_truth(gt)
    labels = tmp_path / "labels_0000.txt"
    labels.write_text(f"0 0 1\n0 1 {value}\n")
    with pytest.raises(ParseError, match=rf"labels_0000.txt:2: field outside int64 in '0 1 {value}'"):
        read_label_file(labels)


def test_int64_extremes_are_labels(tmp_path):
    lo, hi = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)
    gt = tmp_path / "gt.txt"
    write_ground_truth(np.array([lo, hi]), gt)
    assert load_ground_truth(gt).tolist() == [lo, hi]
    labels = tmp_path / "labels_0000.txt"
    labels.write_text(f"0 0 {lo}\n0 1 {hi}\n")
    assert read_label_file(labels) == {0: {0: lo, 1: hi}}


def test_label_file_roundtrip(tmp_path):
    frame = LabeledFrame(frame_index=3, labels=np.array([1, 1, 0]))
    path = tmp_path / "labels_0003.txt"
    write_labels(frame, path)
    data = read_label_file(path)
    assert data == {3: {0: 1, 1: 1, 2: 0}}


def test_write_labels_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        write_labels(LabeledFrame(0, np.zeros(0, dtype=np.int64)), tmp_path / "x.txt")


def test_read_labels_dir(tmp_path):
    write_labels(LabeledFrame(0, np.array([0, 0, 1])), tmp_path / "labels_0000.txt")
    write_labels(LabeledFrame(1, np.array([1, 1, 1])), tmp_path / "labels_0001.txt")
    merged = read_labels_dir(tmp_path)
    assert sorted(merged) == [0, 1]
    np.testing.assert_array_equal(merged[0], [0, 0, 1])
    np.testing.assert_array_equal(merged[1], [1, 1, 1])


def test_read_labels_dir_rejects_gaps(tmp_path):
    write_labels(LabeledFrame(0, np.array([0, 0])), tmp_path / "labels_0000.txt")
    path = tmp_path / "labels_0000.txt"
    text = path.read_text().replace("0 1 0", "0 2 0")
    path.write_text(text)
    with pytest.raises(ParseError):
        read_labels_dir(tmp_path)


def test_repeated_label_rows_are_rejected(tmp_path):
    path = tmp_path / "labels_0000.txt"
    path.write_text("0 0 1\n0 1 1\n0 0 2\n")
    with pytest.raises(ParseError) as err:
        read_label_file(path)
    assert str(err.value) == f"{path}:3: repeated row for frame 0 point 0"
    write_labels(LabeledFrame(0, np.array([1, 1])), path)
    later = tmp_path / "labels_0001.txt"
    write_labels(LabeledFrame(0, np.array([2])), later)
    with pytest.raises(ParseError) as err:
        read_labels_dir(tmp_path)
    assert str(err.value) == f"{later}: frame 0: point 0 is also in an earlier label file"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("0 0 1\n0 1 1\n0 0 2\n", ":3: repeated row for frame 0 point 0"),
        ("1 5 0\n0 2 1\n1 3 0\n", [(1, [(5, 0), (3, 0)]), (0, [(2, 1)])]),  # file order
        ("0 0 1.0\n", ":1: non-integer field in '0 0 1.0'"),
        ("0 0 +1_0\n", [(0, [(0, 10)])]),  # fields read as int() reads them
        ("0 0 \u0663\n", [(0, [(0, 3)])]),
        ("0 0 1\n\n  # c\n0 1 1\n", [(0, [(0, 1), (1, 1)])]),
        ("", []),
        ("0 0 1\r\n0 1 2\r\n", [(0, [(0, 1), (1, 2)])]),
        ("0 0 1\n0 1 2", [(0, [(0, 1), (1, 2)])]),  # no final newline
        ("0 0 0 # tail\n", ":1: expected 3 fields, got 5"),
        ("0 0\n", ":1: expected 3 fields, got 2"),
    ],
)
def test_read_label_file_rows_and_messages(tmp_path, text, expected):
    """Frames and points in file order with their ids, or the ParseError naming the faulty line."""
    path = tmp_path / "labels_0000.txt"
    path.write_bytes(text.encode("utf-8"))
    try:
        outcome = [(f, list(rows.items())) for f, rows in read_label_file(path).items()]
    except ParseError as err:
        outcome = str(err)
    assert outcome == (f"{path}{expected}" if isinstance(expected, str) else expected)


def test_manifest_roundtrip(tmp_path):
    f0 = tmp_path / "frames" / "f0.txt"
    f0.parent.mkdir()
    write_frame(_frame(2), f0)
    f1 = tmp_path / "frames" / "f1.txt"
    write_frame(_frame(2, frame_index=1), f1)
    g0 = tmp_path / "frames" / "g0.txt"
    g1 = tmp_path / "frames" / "g1.txt"
    write_ground_truth(np.array([0, 0]), g0)
    write_ground_truth(np.array([0, 1]), g1)
    manifest = SequenceManifest(name="demo", frame_paths=[str(f0), str(f1)], gt_paths=[str(g0), str(g1)])
    mpath = tmp_path / "manifest.txt"
    write_manifest(manifest, mpath)
    back = load_sequence(mpath)
    assert back.name == "demo"
    assert len(back.frame_paths) == 2
    assert back.frame_paths[0].endswith("f0.txt")
    assert len(back.gt_paths) == 2
    assert load_frame(back.frame_paths[1]).num_points == 2


def test_load_sequence_missing_frame(tmp_path):
    mpath = tmp_path / "manifest.txt"
    mpath.write_text("name demo\nframe missing.txt\n")
    with pytest.raises(ParseError):
        load_sequence(mpath)


def test_load_sequence_gt_count_mismatch(tmp_path):
    f0 = tmp_path / "f0.txt"
    write_frame(_frame(3), f0)
    g0 = tmp_path / "g0.txt"
    write_ground_truth(np.array([0, 1]), g0)
    mpath = tmp_path / "manifest.txt"
    mpath.write_text(f"name demo\nframe {f0.name}\ngt {g0.name}\n")
    with pytest.raises(ParseError):
        load_sequence(mpath)


def test_interaction_log_roundtrip(tmp_path):
    events = [
        InteractionRecord(start_frame=7, end_frame=9, blob_hint=2, object_ids=(1, 4)),
        InteractionRecord(start_frame=2, end_frame=2, blob_hint=0, object_ids=(0, 3, 5)),
    ]
    path = tmp_path / "log.txt"
    write_interaction_log(events, path)
    back = read_interaction_log(path)
    # log is sorted by (start, end, ids)
    assert back[0].start_frame == 2
    assert back[0].object_ids == (0, 3, 5)
    assert back[1] == events[0]


def test_interaction_log_empty(tmp_path):
    path = tmp_path / "log.txt"
    write_interaction_log([], path)
    assert read_interaction_log(path) == []


_ONE_ROW = {"ptseq": "ptseq v1 1\n0 0 0 1 2 3\n", "ptlab": "ptlab v1 1\n0\n"}


@pytest.mark.parametrize("header", ["nope v1 1", "{magic} v1 x", "{magic} v1 -1", None],
                         ids=["bad_magic", "non_numeric", "negative", "comments_only"])
@pytest.mark.parametrize("magic", ["ptseq", "ptlab"])
@pytest.mark.parametrize("via_manifest", [False, True], ids=["file", "manifest"])
def test_header_faults_name_the_line(tmp_path, via_manifest, magic, header):
    """load_frame, load_ground_truth and load_sequence's count check report a header fault alike."""
    bad = tmp_path / "bad.txt"
    bad.write_text("# comment\n" + (header.format(magic=magic) + "\n" if header else "\n# only comments\n"))
    if via_manifest:
        (tmp_path / "good.txt").write_text(_ONE_ROW["ptlab" if magic == "ptseq" else "ptseq"])
        frame, gt = ("bad.txt", "good.txt") if magic == "ptseq" else ("good.txt", "bad.txt")
        (tmp_path / "m.txt").write_text(f"frame {frame}\ngt {gt}\n")
        read, arg = load_sequence, tmp_path / "m.txt"
    else:
        read, arg = (load_frame if magic == "ptseq" else load_ground_truth), bad
    expected = f"{bad}:2: " if header else f"{bad}: missing '{magic} v1' header"
    with pytest.raises(ParseError) as err:
        read(arg)
    assert str(err.value).startswith(expected)


def test_written_files_have_no_trailing_whitespace(tmp_path):
    """Each writer's exact bytes: newline endings, single spaces, nothing trailing."""
    frame = PointCloudFrame(0, [[0.5, -1.25, 3.0], [1 / 3, 0.0, 1e-10]], [[1, 2, 3], [255, 0, 7]])
    write_frame(frame, tmp_path / "f.txt")
    write_ground_truth(np.array([0, 1, 2]), tmp_path / "g.txt")
    write_manifest(
        SequenceManifest(name="x", frame_paths=[str(tmp_path / "f.txt")], gt_paths=[str(tmp_path / "g.txt")]),
        tmp_path / "m.txt",
    )
    write_labels(LabeledFrame(3, np.array([1, 1, 0])), tmp_path / "labels_0003.txt")
    write_interaction_log(
        [InteractionRecord(7, 9, 2, (4, 1)), InteractionRecord(2, 2, 0, (0, 3, 5))], tmp_path / "i.txt"
    )
    write_interaction_log([], tmp_path / "empty.txt")
    expected = {
        "f.txt": b"ptseq v1 2\n0.5 -1.25 3 1 2 3\n0.333333333 0 1e-10 255 0 7\n",
        "g.txt": b"ptlab v1 3\n0\n1\n2\n",
        "m.txt": b"name x\nframe f.txt\ngt g.txt\n",
        "labels_0003.txt": b"3 0 1\n3 1 1\n3 2 0\n",
        "i.txt": b"# interactions v1\n2 2 0 0 3 5\n7 9 2 1 4\n",
        "empty.txt": b"# interactions v1\n",
    }
    assert {name: (tmp_path / name).read_bytes() for name in expected} == expected


def test_writers_pin_their_bytes(tmp_path):
    """sha256 of every frame, ground-truth and label file written for one generated scenario."""
    seq = generate_scenario(make_scenario("approach_merge_split", frame_count=6))
    digests = {name: hashlib.sha256() for name in ("frame", "ground_truth", "labels")}
    for frame, truth in zip(seq.frames, seq.truth_labels):
        write_frame(frame, tmp_path / "f.txt")
        write_ground_truth(truth.labels, tmp_path / "g.txt")
        write_labels(truth, tmp_path / "l.txt")
        for name, file in zip(digests, ("f.txt", "g.txt", "l.txt")):
            digests[name].update((tmp_path / file).read_bytes())
    assert {name: h.hexdigest() for name, h in digests.items()} == {
        "frame": "98326cc8a8610afd123db513435c464b68f1043d2b33e5011c9f445ac0414289",
        "ground_truth": "cdca821d38957a460c9c658c41a38d4f16645876a5052d9e7b43ba277d851fda",
        "labels": "47e8fa4eee41b91d65370ccc86620b6df7da98d62551901c43ce01a1309fe395",
    }
