"""Evaluation metrics: NMI, modularity, normalized MDL, influence."""

from repro.metrics.nmi import (
    contingency_table,
    entropy,
    mutual_information,
    normalized_mutual_information,
)
from repro.metrics.modularity import directed_modularity
from repro.metrics.mdl_metrics import partition_mdl, partition_normalized_mdl
from repro.metrics.influence import (
    pair_influence_matrix,
    total_influence,
    exerted_influence,
    degree_influence_scores,
    influence_degree_correlation,
)
from repro.metrics.correlation import CorrelationFit, fit_correlation
from repro.metrics.ari import adjusted_rand_index
from repro.metrics.alignment import (
    PartitionAlignment,
    align_partitions,
    PartitionStability,
    consecutive_nmi,
    consecutive_stability,
)

__all__ = [
    "contingency_table",
    "entropy",
    "mutual_information",
    "normalized_mutual_information",
    "directed_modularity",
    "partition_mdl",
    "partition_normalized_mdl",
    "pair_influence_matrix",
    "total_influence",
    "exerted_influence",
    "degree_influence_scores",
    "influence_degree_correlation",
    "adjusted_rand_index",
    "PartitionAlignment",
    "align_partitions",
    "PartitionStability",
    "consecutive_nmi",
    "consecutive_stability",
    "CorrelationFit",
    "fit_correlation",
]
