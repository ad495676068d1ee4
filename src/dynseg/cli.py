"""Command line driver: segment | synth | eval | inspect.

Configuration is a flat list of dotted key=value pairs (file and/or flags,
flags win).  Every segment run writes the fully resolved configuration next
to its outputs so the run can be reproduced exactly.

Exit codes: 0 ok, 1 configuration error, 2 data error, 3 pipeline error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import traceback
import typing

import numpy as np

from . import cloud_io
from .cloud_io import LabeledFrame, ParseError, SequenceManifest, significant_lines
from .pipeline import PipelineConfig, format_run_report, run_sequence
from .supervoxel import grid_keys


class ConfigError(Exception):
    pass


def _config_keys() -> dict[str, type]:
    """Dotted key -> declared type for every tunable field: PipelineConfig's own and its sections'."""
    keys: dict[str, type] = {}
    for name, hint in typing.get_type_hints(PipelineConfig).items():
        if dataclasses.is_dataclass(hint):
            keys.update({f"{name}.{field}": t for field, t in typing.get_type_hints(hint).items()})
        else:
            keys[name] = hint
    return keys


def _holder(config: PipelineConfig, key: str) -> tuple[object, str]:
    """The config or section that holds a dotted key's field, and the field's name."""
    section, _, name = key.rpartition(".")
    return (getattr(config, section) if section else config), name


def _parse_value(key: str, text: str, hint) -> object:
    origin = typing.get_origin(hint)
    options = typing.get_args(hint) if origin is not None else (hint,)
    if type(None) in options and text.lower() in ("none", "auto"):
        return None
    base = next((t for t in options if t is not type(None)), hint)
    try:
        if base is int:
            return int(text)
        if base is float and math.isfinite(value := float(text)):
            return value
    except ValueError:
        pass
    raise ConfigError(f"bad value for {key!r}: {text!r}")


def read_config_file(path: str) -> dict[str, str]:
    pairs: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for line_no, line in significant_lines(fh):
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
                key, _, val = line.partition("=")
                pairs[key.strip()] = val.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return pairs


def build_config(pairs: dict[str, str]) -> PipelineConfig:
    keys = _config_keys()
    config = PipelineConfig()
    for key in pairs:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}")
    for key, text in pairs.items():
        setattr(*_holder(config, key), _parse_value(key, text, keys[key]))
    return config


def format_resolved_config(config: PipelineConfig) -> str:
    resolved = config.resolved()  # a no-op on a resolved config
    lines = []
    for key in sorted(_config_keys()):
        value = getattr(*_holder(resolved, key))
        lines.append(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
    return "\n".join(lines) + "\n"


def _collect_overrides(ns: argparse.Namespace) -> dict[str, str]:
    values = vars(ns)
    return {k: str(values[k]) for k in _config_keys() if values[k] is not None}


def cmd_segment(ns: argparse.Namespace) -> int:
    pairs = read_config_file(ns.config) if ns.config else {}
    pairs.update(_collect_overrides(ns))
    try:
        config = build_config(pairs).resolved()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = ns.out or "."
    manifest = cloud_io.load_sequence(ns.manifest)
    voxel = config.supervoxel.voxel_resolution

    def frames():
        # frames load one at a time as they are tracked; output starts once every frame is tracked
        for i, path in enumerate(manifest.frame_paths):
            frame = cloud_io.load_frame(path, frame_index=i)
            try:
                grid_keys(frame.points, voxel, voxel)
            except ValueError as exc:  # a coordinate the voxel grid cannot key
                raise ParseError(f"{path}: {exc}") from exc
            yield frame

    result = run_sequence(frames(), config)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config_resolved.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_resolved_config(config))
    for r in result.frames:
        if len(r.point_labels) == 0:
            continue
        cloud_io.write_labels(
            LabeledFrame(frame_index=r.frame_index, labels=r.point_labels),
            os.path.join(out_dir, f"labels_{r.frame_index:04d}.txt"),
        )
    cloud_io.write_interaction_log(result.interactions, os.path.join(out_dir, "interactions.txt"))
    with open(os.path.join(out_dir, "report.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(format_run_report(result))
    print(f"segmented {len(result.frames)} frames -> {out_dir}")
    return 0


def cmd_synth(ns: argparse.Namespace) -> int:
    from .evaluation import generate_scenario, scenario_from_spec  # here, so segmenting never loads it

    try:
        with open(ns.spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario spec {ns.spec}: {exc}") from exc
    try:
        scenario = scenario_from_spec(text, ns.spec)
        if ns.seed is not None:
            scenario = dataclasses.replace(scenario, rng_seed=ns.seed)
        generated = generate_scenario(scenario)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    out_dir = ns.out or "."
    os.makedirs(out_dir, exist_ok=True)
    frame_paths = []
    gt_paths = []
    for frame, truth in zip(generated.frames, generated.truth_labels):
        fp = os.path.join(out_dir, f"frame_{frame.frame_index:04d}.txt")
        gp = os.path.join(out_dir, f"gt_{frame.frame_index:04d}.txt")
        cloud_io.write_frame(frame, fp)
        cloud_io.write_ground_truth(truth.labels, gp)
        frame_paths.append(fp)
        gt_paths.append(gp)
    manifest = SequenceManifest(name=scenario.kind, frame_paths=frame_paths, gt_paths=gt_paths)
    cloud_io.write_manifest(manifest, os.path.join(out_dir, "manifest.txt"))
    cloud_io.write_interaction_log(
        generated.truth_interactions, os.path.join(out_dir, "interactions_gt.txt")
    )
    print(f"wrote {scenario.kind}: {len(generated.frames)} frames -> {out_dir}")
    return 0


def cmd_eval(ns: argparse.Namespace) -> int:
    from .evaluation import evaluate_run, format_metrics  # here, so segmenting never loads it

    manifest = cloud_io.load_sequence(ns.manifest)
    if not manifest.gt_paths:
        raise ParseError(f"{ns.manifest}: no ground-truth files listed")
    truth_frames = [
        LabeledFrame(frame_index=i, labels=cloud_io.load_ground_truth(p))
        for i, p in enumerate(manifest.gt_paths)
    ]
    found_labels = cloud_io.read_labels_dir(ns.labels_dir)
    found_path = os.path.join(ns.labels_dir, "interactions.txt")
    found_events = cloud_io.read_interaction_log(found_path) if os.path.exists(found_path) else []
    truth_path = os.path.join(os.path.dirname(os.path.abspath(ns.manifest)), "interactions_gt.txt")
    truth_events = cloud_io.read_interaction_log(truth_path) if os.path.exists(truth_path) else []
    try:
        report = evaluate_run(found_labels, truth_frames, found_events, truth_events)
    except ValueError as exc:  # the labels do not fit the manifest's frames
        raise ParseError(f"{ns.labels_dir}: {exc}") from exc
    sys.stdout.write(format_metrics(report))
    return 0


def _parse_as_ints(tokens: list[str]) -> bool:
    """Whether int() parses every token, as read_label_file reads its fields."""
    try:
        list(map(int, tokens))
    except ValueError:
        return False
    return True


def cmd_inspect(ns: argparse.Namespace) -> int:
    path = ns.path
    try:
        with open(path, encoding="utf-8") as fh:
            first = fh.readline().split()  # an empty interaction log has only its "#" line
            fh.seek(0)
            _, line = next(significant_lines(fh), (0, ""))
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    head = line.split()
    if head[:2] == [cloud_io.FRAME_MAGIC, cloud_io.FORMAT_VERSION]:
        frame = cloud_io.load_frame(path)
        lo = frame.points.min(axis=0) if frame.num_points else [0, 0, 0]
        hi = frame.points.max(axis=0) if frame.num_points else [0, 0, 0]
        print(f"frame file: {frame.num_points} points")
        print(f"bbox min {lo[0]:.4f} {lo[1]:.4f} {lo[2]:.4f}")
        print(f"bbox max {hi[0]:.4f} {hi[1]:.4f} {hi[2]:.4f}")
    elif head[:2] == [cloud_io.LABEL_MAGIC, cloud_io.FORMAT_VERSION]:
        labels = cloud_io.load_ground_truth(path)
        ids, counts = np.unique(labels, return_counts=True)
        print(f"label file: {len(labels)} entries, {len(ids)} ids")
        for i, c in zip(ids, counts):
            print(f"label {i}: {c}")
    elif first == cloud_io.INTERACTION_HEADER.split():
        records = cloud_io.read_interaction_log(path)
        print(f"interaction log: {len(records)} events")
        for rec in records:
            ids = " ".join(str(i) for i in rec.object_ids)
            print(f"interaction frames {rec.start_frame}-{rec.end_frame} objects {ids}")
    elif len(head) == 3 and _parse_as_ints(head):
        per_frame = cloud_io.read_label_file(path)
        total = sum(len(rows) for rows in per_frame.values())
        ids = {o for rows in per_frame.values() for o in rows.values()}
        print(f"point label file: {len(per_frame)} frames, {total} points, {len(ids)} objects")
    else:
        raise ParseError(f"{path}: unrecognized file header")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynseg", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_seg = sub.add_parser("segment", help="segment a sequence manifest")
    p_seg.add_argument("manifest", help="sequence manifest path")
    p_seg.add_argument("--out", default=None, help="output directory")
    p_seg.add_argument("--config", default=None, help="key=value config file")
    for key in sorted(_config_keys()):
        p_seg.add_argument(f"--{key}", dest=key, default=None, metavar="V")
    p_seg.set_defaults(func=cmd_segment)

    p_syn = sub.add_parser("synth", help="generate a synthetic scenario")
    p_syn.add_argument("spec", help="scenario spec file (key=value)")
    p_syn.add_argument("--out", default=None, help="output directory")
    p_syn.add_argument("--seed", type=int, default=None, help="scenario seed, in place of the spec's")
    p_syn.set_defaults(func=cmd_synth)

    p_eval = sub.add_parser("eval", help="score labels against ground truth")
    p_eval.add_argument("labels_dir", help="directory with labels_*.txt")
    p_eval.add_argument("manifest", help="sequence manifest with gt entries")
    p_eval.set_defaults(func=cmd_eval)

    p_insp = sub.add_parser("inspect", help="pretty-print a data file")
    p_insp.add_argument("path")
    p_insp.set_defaults(func=cmd_inspect)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, FileNotFoundError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any internal failure
        traceback.print_exc()
        print(f"pipeline error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
