"""Random-walk co-occurrence statistics, their closed forms, and embeddings.

The pipeline: parse a graph, sample windowed node-context pairs from a long
random walk (or compute the exact limiting matrices directly), build the
log-domain target matrix, and factorize or SGNS-train embeddings whose dot
products approximate that target.

Each name below loads its layer module on first use (PEP 562), so
`import walkmf` loads no layer and a command loads only the layers it runs.
"""

import importlib

_LAYERS = {
    "graphs": (
        "ConnectivityReport",
        "EdgeListError",
        "Graph",
        "GraphStructureError",
        "check_connectivity",
        "load_edge_list",
        "parse_edge_list",
        "serialize_edge_list",
        "stationary_distribution",
        "transition_matrix",
    ),
    "sampling": (
        "CooccurrenceCounts",
        "SamplerConfig",
        "Walk",
        "default_sampler_config",
        "empirical_conditional",
        "empirical_frequency",
        "extract_pairs",
        "generate_walk",
        "merge_counts",
        "read_counts_csv",
        "sample_counts",
        "write_counts_csv",
        "write_counts_sidecar",
    ),
    "targets": (
        "ComparisonReport",
        "TargetMatrix",
        "WalkMatrix",
        "compare_matrices",
        "expected_neighbor_counts",
        "read_matrix_csv",
        "sgns_target_exact",
        "sgns_target_from_counts",
        "softmax_target",
        "walk_probability_matrix",
        "write_matrix_csv",
    ),
    "factorization": (
        "EmbeddingPair",
        "FactorizationError",
        "factorize",
        "read_embedding_matrix",
        "reconstruction_error",
        "singular_values",
        "truncated_svd",
        "write_embedding_matrix",
    ),
    "sgns": (
        "TrainConfig",
        "TrainResult",
        "dot_matrix",
        "dot_vs_shifted_pmi",
        "sgns_objective",
        "sgns_objective_gradient",
        "sgns_objective_upper_bound",
        "train_sgns",
    ),
}
_LAYER_OF = {name: layer for layer, names in _LAYERS.items() for name in names}

__all__ = list(_LAYER_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # Read from the layer on every access, never cached here, so the package
    # and its layer always hand out the same object.
    layer = _LAYER_OF.get(name)
    if layer is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{layer}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
