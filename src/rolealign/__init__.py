"""Soft-assignment formation discovery and role-based alignment for
multi-agent tracking data."""

from .version import __version__
from .geometry import (Gaussian2D, NearestCenters, bhattacharyya_distance,
                       component_log_pdfs, covariance_eigenvalues,
                       differential_entropy, gaussian_log_pdf, kl_divergence,
                       log_mixture_density, nearest_centers, role_area,
                       sample_covariance, split_by_label, sq_dist_to)
from .assignment import (Assignment, BatchAssignment,
                         SinkhornConvergenceError, SinkhornResult,
                         assign_batch, hungarian, sinkhorn_normalize)
from .ingest import (Dataset, EmptySelectionError, Frame, ParseError,
                     center_normalize, concat_datasets, filter_key_frames,
                     filter_metadata, flatten, normalize_attack_direction,
                     parse_tracking, write_tracking_csv, write_tracking_jsonl)
from .discovery import (DiscoveryConfig, EmTrace, Formation, KMeansResult,
                        discover_formation, em_step_full, kmeans,
                        player_mean_init)
from .alignment import (AlignedDataset, PipelineResult, Template,
                        align_template, assign_roles, average_log_likelihood,
                        run_pipeline)
from .baseline import (HardEmTrace, hard_assignment_em,
                       player_identity_template)
from .clustering import (ClusterSet, TemplateTree, TreeNode, TreeStop,
                         discriminative_score_E, flat_cluster,
                         learn_tree, pairwise_within_cluster,
                         pca_variance_explained, wce_sweep,
                         within_cluster_error)
from .synth import (GroundTruth, generate_formation, recovery_score,
                    sample_dataset)

__all__ = [
    "__version__",
    "Gaussian2D", "bhattacharyya_distance", "component_log_pdfs",
    "covariance_eigenvalues", "differential_entropy", "gaussian_log_pdf",
    "kl_divergence", "log_mixture_density", "NearestCenters",
    "nearest_centers", "role_area", "sample_covariance", "split_by_label",
    "sq_dist_to",
    "Assignment", "BatchAssignment", "SinkhornConvergenceError",
    "SinkhornResult", "assign_batch", "hungarian", "sinkhorn_normalize",
    "Dataset", "EmptySelectionError", "Frame", "ParseError",
    "center_normalize", "concat_datasets", "filter_key_frames",
    "filter_metadata", "flatten", "normalize_attack_direction",
    "parse_tracking", "write_tracking_csv", "write_tracking_jsonl",
    "DiscoveryConfig", "EmTrace", "Formation", "KMeansResult",
    "discover_formation", "em_step_full", "kmeans", "player_mean_init",
    "AlignedDataset", "PipelineResult", "Template", "align_template",
    "assign_roles", "average_log_likelihood", "run_pipeline",
    "HardEmTrace", "hard_assignment_em", "player_identity_template",
    "ClusterSet", "TemplateTree", "TreeNode", "TreeStop",
    "discriminative_score_E", "flat_cluster", "learn_tree",
    "pairwise_within_cluster", "pca_variance_explained", "wce_sweep",
    "within_cluster_error",
    "GroundTruth", "generate_formation", "recovery_score", "sample_dataset",
]
