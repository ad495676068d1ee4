"""Temporally consistent segmentation of 3D point-cloud sequences.

Per-frame foreground clouds are abstracted into supervoxels, linked into an
adjacency graph, and tracked through an object/component/segment tree that
survives splits, merges, and close-range interactions between objects.
"""

__version__ = "0.1.0"

from .cloud_io import (
    PointCloudFrame,
    LabeledFrame,
    SequenceManifest,
    InteractionRecord,
    ParseError,
    load_frame,
    write_frame,
    load_sequence,
)
from .supervoxel import Supervoxels, SupervoxelConfig, cluster_supervoxels, voxelize
from .graph import AdjacencyGraph, GraphConfig, Blob, build_graph, connected_components
from .assignment import (
    AssignmentProblem,
    Assignment,
    EnergyParams,
    GAConfig,
    energy_of,
    solve_ga,
    solve_exhaustive,
)
from .graphcut import (
    CutProblem,
    CutParams,
    OversegConfig,
    restricted_cut,
    cut_energy,
    normalized_cut_bisect,
    ncut_value,
    oversegment,
)
from .tree import (
    SegTree,
    InteractionEvent,
    TreeParams,
    init_tree,
    update_tree,
    compute_similarity,
    accumulate_similarities,
    confirm_splits_merges,
    detect_interactions,
)
from .pipeline import (
    PipelineConfig,
    PipelineState,
    FrameResult,
    PipelineError,
    init_state,
    process_frame,
    run_sequence,
)
from .evaluation import (
    SynthScenario,
    ShapeSpec,
    MetricsReport,
    segmentation_error,
    interaction_score,
    evaluate_run,
    generate_scenario,
    make_scenario,
)
