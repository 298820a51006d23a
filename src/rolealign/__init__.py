"""Soft-assignment formation discovery and role-based alignment for
multi-agent tracking data."""

from .version import __version__
from .geometry import (Gaussian2D, bhattacharyya_distance,
                       component_log_pdfs, covariance_eigenvalues,
                       differential_entropy, gaussian_log_pdf, kl_divergence,
                       log_responsibilities, mahalanobis_between_means,
                       role_area, sample_covariance)
from .assignment import (Assignment, BatchAssignment,
                         SinkhornConvergenceError, SinkhornResult,
                         assign_batch, hungarian, sinkhorn_normalize)
from .ingest import (Dataset, EmptySelectionError, Frame, ParseError,
                     center_normalize, concat_datasets, filter_key_frames,
                     filter_metadata, flatten, normalize_attack_direction,
                     parse_tracking, unflatten, write_tracking_csv,
                     write_tracking_jsonl)
from .discovery import (DiscoveryConfig, EmTrace, Formation, KMeansResult,
                        discover_formation, em_step_full, kmeans,
                        player_mean_init)
from .alignment import (AlignedDataset, PipelineResult, Template,
                        align_template, assign_roles, average_log_likelihood,
                        run_pipeline)
from .baseline import (HardEmTrace, OverlapPenalty, hard_assignment_em,
                       overlap_penalty, player_identity_template)
from .clustering import (ClusterSet, TemplateTree, TreeNode, TreeStop,
                         WceResult, discriminative_score_E, flat_cluster,
                         learn_tree, pairwise_within_cluster,
                         pca_variance_explained, wce_sweep,
                         within_cluster_error)
from .synth import (GroundTruth, generate_formation, read_truth_maps,
                    recovery_score, sample_dataset, write_truth_jsonl)

__all__ = [
    "__version__",
    "Gaussian2D", "bhattacharyya_distance", "component_log_pdfs",
    "covariance_eigenvalues", "differential_entropy", "gaussian_log_pdf",
    "kl_divergence", "log_responsibilities", "mahalanobis_between_means",
    "role_area", "sample_covariance",
    "Assignment", "BatchAssignment", "SinkhornConvergenceError",
    "SinkhornResult", "assign_batch", "hungarian", "sinkhorn_normalize",
    "Dataset", "EmptySelectionError", "Frame", "ParseError",
    "center_normalize", "concat_datasets", "filter_key_frames",
    "filter_metadata", "flatten", "normalize_attack_direction",
    "parse_tracking", "unflatten", "write_tracking_csv",
    "write_tracking_jsonl",
    "DiscoveryConfig", "EmTrace", "Formation", "KMeansResult",
    "discover_formation", "em_step_full", "kmeans", "player_mean_init",
    "AlignedDataset", "PipelineResult", "Template", "align_template",
    "assign_roles", "average_log_likelihood", "run_pipeline",
    "HardEmTrace", "OverlapPenalty", "hard_assignment_em", "overlap_penalty",
    "player_identity_template",
    "ClusterSet", "TemplateTree", "TreeNode", "TreeStop", "WceResult",
    "discriminative_score_E", "flat_cluster", "learn_tree",
    "pairwise_within_cluster", "pca_variance_explained", "wce_sweep",
    "within_cluster_error",
    "GroundTruth", "generate_formation", "read_truth_maps", "recovery_score",
    "sample_dataset", "write_truth_jsonl",
]
