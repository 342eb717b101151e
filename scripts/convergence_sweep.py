#!/usr/bin/env python3
"""Sweep the walk length and watch sampled statistics converge to their
closed forms.

For each L in the sweep, samples windowed pair counts and reports max-abs
deviations of: node frequency vs the stationary distribution, the empirical
conditional vs the averaged walk-probability matrix, and the counts-based
shifted PMI vs its infinite-sample limit.

    python scripts/convergence_sweep.py --input graph.edges -t 2
    python scripts/convergence_sweep.py --demo -t 2 --lengths 1000 10000 100000
"""

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from walkmf import (  # noqa: E402
    SamplerConfig,
    compare_matrices,
    empirical_conditional,
    empirical_frequency,
    load_edge_list,
    parse_edge_list,
    sample_counts,
    sgns_target_exact,
    sgns_target_from_counts,
    stationary_distribution,
    walk_probability_matrix,
)

DEMO_EDGES = "0 1\n1 2\n2 3\n3 0\n0 2\n1 4\n3 4\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--input", "-i", help="edge-list file")
    parser.add_argument("--demo", action="store_true", help="use a built-in 5-node graph")
    parser.add_argument("--window", "-t", type=int, default=2)
    parser.add_argument("--negative", "-k", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lengths", type=int, nargs="+",
                        default=[1_000, 10_000, 100_000, 1_000_000])
    parser.add_argument("--csv", help="also write the table to this CSV file")
    args = parser.parse_args()

    if args.demo or not args.input:
        graph = parse_edge_list(DEMO_EDGES)
        label = "demo graph"
    else:
        graph = load_edge_list(args.input)
        label = args.input
    print(f"{label}: n={graph.n}, |E|={graph.num_edges}, window={args.window}")

    pi = stationary_distribution(graph)
    p = walk_probability_matrix(graph, args.window)
    exact_pmi = sgns_target_exact(p, pi, k=args.negative, zero_policy="mask")

    rows = []
    header = f"{'L':>10}  {'freq max dev':>12}  {'cond max dev':>12}  {'pmi max dev':>12}"
    print(header)
    print("-" * len(header))
    for length in args.lengths:
        counts = sample_counts(graph, SamplerConfig(window=args.window, centers=length,
                                                    seed=args.seed))
        freq_dev = float(np.max(np.abs(empirical_frequency(counts) - pi)))
        cond_dev = compare_matrices(empirical_conditional(counts), p.probs).max_abs
        sampled_pmi = sgns_target_from_counts(counts, k=args.negative, zero_policy="mask")
        pmi_dev = compare_matrices(sampled_pmi.values, exact_pmi.values).max_abs
        print(f"{length:>10}  {freq_dev:>12.6f}  {cond_dev:>12.6f}  {pmi_dev:>12.6f}")
        rows.append({"L": length, "freq_max_dev": freq_dev,
                     "cond_max_dev": cond_dev, "pmi_max_dev": pmi_dev})

    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
