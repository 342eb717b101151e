#!/usr/bin/env python3
"""Compare the two routes to embeddings on one graph.

Route A factorizes the exact shifted-PMI target with a truncated SVD and
reports reconstruction error as the rank grows. The graph is undirected, so
the target is symmetric and `factorize` reads its singular triplets off one
symmetric eigendecomposition. Route B samples counts from a walk, maximizes
the exact SGNS objective on them by full-batch Adam at d = n, and reports
how close the learned dot products get to the shifted PMI of those counts,
on the pairs with a nonzero count. As the walk grows, that matrix
approaches route A's target.

    python scripts/factorize_vs_train.py --demo -t 2
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from walkmf import (  # noqa: E402
    SamplerConfig,
    TrainConfig,
    dot_vs_shifted_pmi,
    factorize,
    load_edge_list,
    parse_edge_list,
    reconstruction_error,
    sample_counts,
    sgns_target_exact,
    stationary_distribution,
    train_sgns,
    walk_probability_matrix,
)

DEMO_EDGES = "0 1\n1 2\n2 3\n3 0\n0 2\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--input", "-i", help="edge-list file")
    parser.add_argument("--demo", action="store_true", help="use a built-in 4-node graph")
    parser.add_argument("--window", "-t", type=int, default=2)
    parser.add_argument("--negative", "-k", type=int, default=1)
    parser.add_argument("--length", "-L", type=int, default=20_000)
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--lr", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.demo or not args.input:
        graph = parse_edge_list(DEMO_EDGES)
    else:
        graph = load_edge_list(args.input)
    print(f"graph: n={graph.n}, |E|={graph.num_edges}, window={args.window}, k={args.negative}")

    target = sgns_target_exact(walk_probability_matrix(graph, args.window),
                               stationary_distribution(graph), k=args.negative,
                               zero_policy="truncate")
    norm = np.linalg.norm(target.values)
    print("\nroute A: truncated SVD of the exact shifted-PMI target")
    for dim in range(1, graph.n + 1):
        pair = factorize(target, dim)
        err = reconstruction_error(target, pair)
        rel = err / norm if norm > 0 else 0.0
        print(f"  d={dim}: frobenius error {err:.6f} (relative {rel:.2e})")

    print(f"\nroute B: SGNS training on counts sampled at L={args.length}")
    counts = sample_counts(graph, SamplerConfig(window=args.window, centers=args.length,
                                                seed=args.seed))
    cfg = TrainConfig(dim=graph.n, negatives=args.negative, epochs=args.epochs,
                      learning_rate=args.lr, seed=args.seed)
    result = train_sgns(counts, cfg)
    report = dot_vs_shifted_pmi(counts, result.embeddings, args.negative)
    print(f"  exact objective: start {result.objective_per_epoch[0]:.2f}, "
          f"final {result.final_objective:.2f}")
    print(f"  dot products vs shifted PMI: max abs {report.max_abs:.4f}, "
          f"mean abs {report.mean_abs:.4f} over {report.compared} entries")
    return 0


if __name__ == "__main__":
    sys.exit(main())
