"""Multi-scan rigid registration: soft-correspondence pairwise alignment,
spectral motion synchronization over a pose graph, and an outer loop that
prunes the edges the synchronization finds inconsistent.
"""

from .config import PipelineConfig
from .errors import (
    DegenerateConfiguration,
    DegenerateMatrix,
    DimensionMismatch,
    DisconnectedGraph,
    DisconnectedInput,
    DuplicateEdge,
    EigenSolverFailure,
    EmptyErrors,
    EmptyResiduals,
    IndexOutOfRange,
    LengthMismatch,
    MalformedConfig,
    MalformedEntry,
    MalformedHeader,
    MissingFeatures,
    NonRigidMatrix,
    RegistrationError,
    TooFewClouds,
    TruncatedPayload,
    UnsupportedFormat,
    ZeroWeightSum,
)
from .geometry import (
    PointCloud,
    RigidMotion,
    Rotation3,
    invert,
    transform_points,
)
from .graph import (
    Edge,
    PoseGraph,
    build_graph,
    cauchy_global_confidence,
    cauchy_scale,
    harmonic_fuse,
    is_connected,
    prune_edges,
)
from .io_formats import (
    TrajectoryEntry,
    read_config,
    read_features,
    read_ply,
    read_trajectory,
    trajectory_from_motions,
    voxel_downsample,
    write_features,
    write_ply,
    write_trajectory,
)
from .metrics import (
    ROTATION_ECDF_THRESHOLDS_DEG,
    TRANSLATION_ECDF_THRESHOLDS_M,
    ErrorReport,
    ecdf,
)
from .pairwise import (
    CorrespondenceSet,
    PairwiseFits,
    build_correspondences,
    local_confidence,
    register_batch,
    register_correspondences,
    register_pair,
    residuals,
    robust_reweight,
    wls_transform,
)
from .pipeline import (
    IterationStats,
    PipelineTrace,
    pairwise_chain_absolute,
    run_multiview,
    run_multiview_from_correspondences,
)
from .sync import (
    SyncResult,
    rotation_sync,
    transf_sync,
    translation_objective,
    translation_sync,
)
from .synthetic import (
    SyntheticScene,
    generate_scene,
    random_motion,
    random_rotation,
    rotation_about_axis,
    scene_correspondences,
)

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "RegistrationError",
    "DegenerateMatrix", "MissingFeatures", "DimensionMismatch",
    "DegenerateConfiguration", "ZeroWeightSum", "DuplicateEdge", "IndexOutOfRange",
    "EmptyResiduals", "DisconnectedGraph", "EigenSolverFailure", "TooFewClouds",
    "DisconnectedInput", "EmptyErrors", "LengthMismatch",
    "MalformedHeader", "UnsupportedFormat", "TruncatedPayload", "MalformedEntry",
    "MalformedConfig", "NonRigidMatrix",
    "Rotation3", "RigidMotion", "PointCloud",
    "invert", "transform_points",
    "CorrespondenceSet", "PairwiseFits",
    "build_correspondences", "wls_transform", "residuals",
    "robust_reweight", "local_confidence", "register_batch", "register_correspondences",
    "register_pair",
    "Edge", "PoseGraph", "build_graph", "cauchy_scale", "cauchy_global_confidence",
    "harmonic_fuse", "prune_edges", "is_connected",
    "SyncResult", "rotation_sync", "translation_sync", "translation_objective",
    "transf_sync",
    "IterationStats", "PipelineTrace", "pairwise_chain_absolute",
    "run_multiview", "run_multiview_from_correspondences",
    "ecdf", "ErrorReport",
    "ROTATION_ECDF_THRESHOLDS_DEG", "TRANSLATION_ECDF_THRESHOLDS_M",
    "SyntheticScene", "generate_scene", "scene_correspondences",
    "random_rotation", "random_motion", "rotation_about_axis",
    "TrajectoryEntry", "read_ply", "write_ply", "read_features", "write_features",
    "read_trajectory", "write_trajectory", "trajectory_from_motions",
    "read_config", "voxel_downsample",
]
