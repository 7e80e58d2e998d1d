"""Multi-scan rigid registration: soft-correspondence pairwise alignment,
spectral motion synchronization over a pose graph, and an iteratively
reweighted multiview refinement loop.
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
    EmptyPairs,
    EmptyResiduals,
    EmptyTarget,
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
    apply,
    compose,
    geodesic_angle,
    invert,
    project_to_so3,
    relative_from_absolute,
    rotation_about_z,
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
    angular_error,
    ecdf,
    registration_recall,
    sync_pair_error,
)
from .pairwise import (
    CorrespondenceSet,
    PairwiseFits,
    PairwiseResult,
    build_correspondences,
    local_confidence,
    register_batch,
    register_correspondences,
    register_pair,
    residuals,
    robust_reweight,
    soft_assign,
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
    "DegenerateMatrix", "EmptyTarget", "MissingFeatures", "DimensionMismatch",
    "DegenerateConfiguration", "ZeroWeightSum", "DuplicateEdge", "IndexOutOfRange",
    "EmptyResiduals", "DisconnectedGraph", "EigenSolverFailure", "TooFewClouds",
    "DisconnectedInput", "EmptyErrors", "EmptyPairs", "LengthMismatch",
    "MalformedHeader", "UnsupportedFormat", "TruncatedPayload", "MalformedEntry",
    "MalformedConfig", "NonRigidMatrix",
    "Rotation3", "RigidMotion", "PointCloud",
    "compose", "invert", "apply", "transform_points", "project_to_so3",
    "relative_from_absolute", "geodesic_angle", "rotation_about_z",
    "CorrespondenceSet", "PairwiseFits", "PairwiseResult",
    "soft_assign", "build_correspondences", "wls_transform", "residuals",
    "robust_reweight", "local_confidence", "register_batch", "register_correspondences",
    "register_pair",
    "Edge", "PoseGraph", "build_graph", "cauchy_scale", "cauchy_global_confidence",
    "harmonic_fuse", "prune_edges", "is_connected",
    "SyncResult", "rotation_sync", "translation_sync", "translation_objective",
    "transf_sync",
    "IterationStats", "PipelineTrace", "pairwise_chain_absolute",
    "run_multiview", "run_multiview_from_correspondences",
    "angular_error", "ecdf", "registration_recall", "sync_pair_error", "ErrorReport",
    "ROTATION_ECDF_THRESHOLDS_DEG", "TRANSLATION_ECDF_THRESHOLDS_M",
    "SyntheticScene", "generate_scene", "scene_correspondences",
    "random_rotation", "random_motion", "rotation_about_axis",
    "TrajectoryEntry", "read_ply", "write_ply", "read_features", "write_features",
    "read_trajectory", "write_trajectory", "trajectory_from_motions",
    "read_config", "voxel_downsample",
]
