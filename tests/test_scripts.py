"""Smoke runs of the scripts under scripts/, which build graphs by hand."""

import importlib.util
import re
from pathlib import Path

from dynseg.evaluation import SCENARIO_FRAMES

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_solver_bench_runs(capsys):
    assert _load("solver_bench").main(["all", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^pipeline enumerates up to 1300 labelings$", out, re.MULTILINE)
    assert len(re.findall(r"^ +\d+ +\d+ +\d+ +\d+ +\d+\.\d\d +\d+\.\d\d$", out, re.MULTILINE)) == 2
    assert re.search(r"^worst ratio \d+\.\d{3} over 2 instances$", out, re.MULTILINE)
    cut = re.search(r"^cut worst ratio (\d+\.\d{6}) over 2 instances, \d+\.\d\d ms per cut$", out, re.MULTILINE)
    assert cut and float(cut.group(1)) >= 1.0


def test_output_digest_is_stable(capsys):
    digest = _load("output_digest")
    outputs = []
    for _ in range(2):
        assert digest.main(["static-0"]) == 0
        outputs.append(capsys.readouterr().out)
    assert re.fullmatch(r"[0-9a-f]{64}  static-0\n", outputs[0])
    assert outputs[0] == outputs[1]


def test_check_set_covers_every_scenario_kind():
    entries = {(name, voxel) for name, _, voxel in _load("output_digest").check_set()}
    assert all((f"{kind}-0", 0.02) in entries for kind in SCENARIO_FRAMES)


def test_output_digest_matches_pinned_digests(capsys):
    """Four sequences at voxel 0.02 and two at the default voxel keep their outputs byte for byte.

    triple_contact_fine-0 puts the three-label expansion cut and the
    oversegmentation of several objects under the check;
    approach_merge_split-0 adds contact cuts at voxel 0.02,
    occlusion_split-0 components of several segments, and static-0-ghost
    an object that is a ghost for three frames and comes back under its id.
    The spectral bound rejects 1 of occlusion_split-0's 61 bisections unswept
    and every bisection of the other five, so occlusion_split-0 keeps the
    threshold sweep under the check.
    """
    names = ["crossing-0", "pair_contact_fine-0-seq0", "triple_contact_fine-0"]
    names += ["approach_merge_split-0", "occlusion_split-0", "static-0-ghost"]
    assert _load("output_digest").main(names) == 0
    assert capsys.readouterr().out == (
        "5e6e8b65fc4f88352e794571ef99553c5fa78702d428eb35a3a8f13b9c1ac53d  pair_contact_fine-0-seq0\n"
        "a2341d9840a8aa304253f62a1a660c88cf2a533135746fbbe17e0d56d25ec2c8  approach_merge_split-0\n"
        "df81571c49ee43a75ee44b0395fa2fa9778f3659f37f8574f82b8e77ab9a9357  occlusion_split-0\n"
        "0cdd175222d3c1c28a2d788ac871d9496f18c9a032105c1d65fdb88bd081cf0c  crossing-0\n"
        "ca0ccb94c0c41f0d7ae14e99bc6d3c7814f1d403adcc93a8e8e0b76f3cf73e38  triple_contact_fine-0\n"
        "d22280c8d4cdcf67e3aee19b5a91f9e2f63bcacc2102930632c867ca0b5a6053  static-0-ghost\n"
    )


def test_record_digest_matches_pinned_digest(capsys):
    """Supervoxels, tree labels, segment means and similarity tables keep their bytes in process.

    crossing-0 runs no cut; pair_contact_fine-0-seq0 runs the binary cut
    on reach-2 frames; triple_contact_fine-0 runs the three-label expansion
    cut on its contested blobs and over-segments each object piece, both
    through blob subgraphs; static-0-ghost revives a ghost, so its
    component ids follow the inheritance rule past a ghost's component.
    """
    names = ["--records", "crossing-0", "pair_contact_fine-0-seq0", "triple_contact_fine-0", "static-0-ghost"]
    assert _load("output_digest").main(names) == 0
    assert capsys.readouterr().out == (
        "bac4f826c017fbc5f872b02456cc6fb83c346d8769a75a9da7607169ceea93ba  pair_contact_fine-0-seq0\n"
        "26828caf1f1d30afcff01d907b4d109482947ae19ff9d74457dcd35776b54d31  crossing-0\n"
        "4a986809d43ec652f84f9b8f26a65fe50ce99a2d01f6f625e72c9fd3bf51c6cc  triple_contact_fine-0\n"
        "77e692482eed2a962aae0878df4283e805cd6721e2eefe619c1c45b8a6c1ec97  static-0-ghost\n"
    )


def test_run_scenarios_tabulates_one_row_per_seed(capsys):
    assert _load("run_scenarios").main(["--kinds", "static", "--seeds", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"kind +seed +frames +error +events +time", lines[0])
    assert re.fullmatch(r"static +0 +8 +\d\.\d{4} +0/0f/0t +\d+\.\ds", lines[1])
    assert re.fullmatch(r"static +mean error over 1 seeds: \d\.\d{4}", lines[2])
    assert len(lines) == 3
