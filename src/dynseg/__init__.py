"""Temporally consistent segmentation of 3D point-cloud sequences.

Per-frame foreground clouds are abstracted into supervoxels, linked into an
adjacency graph, and tracked through an object/component/segment tree that
survives splits, merges, and close-range interactions between objects.

The names below are exported lazily: ``import dynseg`` loads no submodule,
and the first access to a name imports only the module that defines it.
"""

import importlib

__version__ = "0.1.0"

# module -> the names it exports
_EXPORTS = {
    "cloud_io": "PointCloudFrame LabeledFrame SequenceManifest InteractionRecord ParseError"
    " load_frame write_frame load_sequence",
    "supervoxel": "Supervoxels SupervoxelConfig cluster_supervoxels voxelize",
    "graph": "AdjacencyGraph GraphConfig build_graph connected_components",
    "assignment": "AssignmentProblem Assignment EnergyParams GAConfig energy_of solve_ga solve_exhaustive",
    "graphcut": "CutProblem CutParams OversegConfig restricted_cut cut_energy normalized_cut_bisect"
    " ncut_value oversegment",
    "tree": "SegTree TreeParams init_tree update_tree compute_similarity"
    " accumulate_similarities confirm_splits_merges detect_interactions",
    "pipeline": "PipelineConfig PipelineState FrameResult init_state process_frame run_sequence",
    "evaluation": "SynthScenario ShapeSpec MetricsReport segmentation_error interaction_score evaluate_run"
    " generate_scenario make_scenario",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
