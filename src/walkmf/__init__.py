"""Random-walk co-occurrence statistics, their closed forms, and embeddings.

The pipeline: parse a graph, sample windowed node-context pairs from a long
random walk (or compute the exact limiting matrices directly), build the
log-domain target matrix, and factorize or SGNS-train embeddings whose dot
products approximate that target.
"""

from .graphs import (
    ConnectivityReport,
    EdgeListError,
    Graph,
    GraphStructureError,
    check_connectivity,
    load_edge_list,
    parse_edge_list,
    serialize_edge_list,
    stationary_distribution,
    transition_matrix,
)
from .sampling import (
    CooccurrenceCounts,
    SamplerConfig,
    Walk,
    default_sampler_config,
    empirical_conditional,
    empirical_frequency,
    extract_pairs,
    generate_walk,
    merge_counts,
    read_counts_csv,
    sample_counts,
    write_counts_csv,
    write_counts_sidecar,
)
from .targets import (
    ComparisonReport,
    TargetMatrix,
    WalkMatrix,
    compare_matrices,
    expected_neighbor_counts,
    read_matrix_csv,
    sgns_target_exact,
    sgns_target_from_counts,
    softmax_target,
    walk_probability_matrix,
    write_matrix_csv,
)
from .factorization import (
    EmbeddingPair,
    FactorizationError,
    factorize,
    read_embedding_matrix,
    reconstruction_error,
    singular_values,
    truncated_svd,
    write_embedding_matrix,
)
from .sgns import (
    TrainConfig,
    TrainResult,
    dot_matrix,
    dot_vs_shifted_pmi,
    sgns_objective,
    sgns_objective_gradient,
    sgns_objective_upper_bound,
    train_sgns,
)

__version__ = "0.1.0"
