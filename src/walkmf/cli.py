"""Command-line front end for reproducible batch runs.

Every command resolves its full configuration (defaults included), writes its
outputs plus a manifest.json recording the config, input digests, and output
list. `walkmf rerun --manifest <file>` re-executes the recorded command; the
regenerated outputs are byte-identical because all randomness flows from the
recorded seed.

Exit codes: 0 success, 1 usage error, 2 data/validation error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .factorization import (
    SPLITS,
    FactorizationError,
    factorize,
    reconstruction_error,
    singular_values,
    write_embedding_matrix,
)
from .graphs import (
    EdgeListError,
    GraphStructureError,
    load_edge_list,
    require_connected,
    stationary_distribution,
    transition_matrix,
)
from .sampling import (
    START_MODES,
    SamplerConfig,
    default_sampler_config,
    empirical_conditional,
    empirical_frequency,
    read_counts_csv,
    sample_counts,
    write_counts_csv,
    write_counts_sidecar,
)
from .sgns import (
    STEPS_PER_EPOCH,
    TrainConfig,
    dot_vs_shifted_pmi,
    sgns_objective_upper_bound,
    train_sgns,
)
from .targets import (
    BIAS_MODES,
    ZERO_POLICIES,
    compare_matrices,
    sgns_target_exact,
    sgns_target_from_counts,
    softmax_target,
    walk_probability_matrix,
    write_matrix_csv,
    write_matrix_json,
    write_vector_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

DEFAULT_WINDOW = 5
DEFAULT_NEGATIVES = 5
DEFAULT_DIM = 64
DEFAULT_EPSILON = 1e-12
TARGET_KINDS = ("softmax", "sgns")
FORMATS = ("csv", "json")


class UsageError(Exception):
    """Bad flag combination detected after parsing (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage problems by default; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _sidecar_for(counts_path: Path) -> Path:
    return counts_path.with_suffix(".json")


def _resolved_zero_policy(policy, target_kind: str) -> str:
    if policy is not None:
        return policy
    return "floor" if target_kind == "softmax" else "truncate"


def _write_matrix(mat, out_dir: Path, stem: str, fmt: str, metadata=None) -> str:
    if fmt == "json":
        name = f"{stem}.json"
        write_matrix_json(mat, out_dir / name, metadata or {})
    else:
        name = f"{stem}.csv"
        write_matrix_csv(mat, out_dir / name)
    return name


def _write_vector(vec, out_dir: Path, stem: str, fmt: str, metadata=None) -> str:
    if fmt == "json":
        name = f"{stem}.json"
        payload = {"metadata": metadata or {}, "vector": np.asarray(vec).tolist()}
        with open(out_dir / name, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        name = f"{stem}.csv"
        write_vector_csv(vec, out_dir / name)
    return name


def _build_target(config, p, pi=None):
    """The configured target from the walk matrix p (and, for sgns, pi)."""
    policy = config["zero_policy"]
    if config["target"] == "softmax":
        return softmax_target(p, bias_mode=config["bias"], zero_policy=policy,
                              epsilon=config["epsilon"])
    return sgns_target_exact(p, pi, k=config["negatives"], zero_policy=policy,
                             epsilon=config["epsilon"])


def _closed_forms(g, window: int, with_pi: bool = True):
    """The walk matrix and, if asked, pi, from one transition matrix.

    Building pi checks connectivity. Without pi, an undirected graph is
    checked all the same; a directed one needs only the out-edges P is
    built from.
    """
    a = transition_matrix(g)
    pi = stationary_distribution(g, a) if with_pi else None
    if not with_pi and not g.directed:
        require_connected(g)
    return walk_probability_matrix(g, window, a), pi


def run_exact(config: dict, out_dir: Path) -> list[str]:
    g = load_edge_list(config["input"], directed=config["directed"])
    p, pi = _closed_forms(g, config["window"])
    target = _build_target(config, p, pi)

    fmt = config["format"]
    # One file at a time; each CSV writer formats its rows on all cores.
    names = [
        _write_matrix(p.probs, out_dir, "walk_matrix", fmt, {"window": p.window}),
        _write_matrix(target.values, out_dir, "target", fmt, target.metadata()),
        _write_vector(pi, out_dir, "stationary", fmt),
    ]
    if target.mask is not None:
        names.append(_write_matrix(target.mask.astype(int), out_dir, "target_mask", fmt))
    return names


def run_sample(config: dict, out_dir: Path) -> list[str]:
    g = load_edge_list(config["input"], directed=config["directed"])
    base = default_sampler_config(g, window=config["window"], centers=config["length"],
                                  seed=config["seed"], workers=config["workers"])
    cfg = SamplerConfig(
        window=base.window,
        centers=base.centers,
        seed=base.seed,
        start_mode=config["start_mode"] or base.start_mode,
        start_node=config["start_node"],
        burn_in=base.burn_in if config["burn_in"] is None else config["burn_in"],
        workers=base.workers,
    )
    counts = sample_counts(g, cfg)
    write_counts_csv(counts, out_dir / "counts.csv")
    write_counts_sidecar(counts, out_dir / "counts.json", cfg)
    return ["counts.csv", "counts.json"]


def run_compare(config: dict, out_dir: Path) -> list[str]:
    g = load_edge_list(config["input"], directed=config["directed"])
    counts, _ = read_counts_csv(config["counts"], config["counts_sidecar"])
    if counts.n != g.n:
        raise ValueError(f"counts cover {counts.n} nodes but the graph has {g.n}")

    p, pi = _closed_forms(g, config["window"])
    k = config["negatives"]
    # Each n x n array is let go as soon as its comparisons are done: the
    # counts, P and one more are the most held between steps.
    conditional = compare_matrices(empirical_conditional(counts), p.probs)
    frequency = compare_matrices(empirical_frequency(counts), pi)
    # Mask policy on both PMI sides keeps the comparison on pairs both can see.
    exact = sgns_target_exact(p, pi, k=k, zero_policy="mask")
    del p
    sampled = sgns_target_from_counts(counts, k=k, zero_policy="mask")
    del counts

    report = {
        "conditional_vs_walk_matrix": conditional.to_dict(),
        "frequency_vs_stationary": frequency.to_dict(),
        "sgns_counts_vs_exact": compare_matrices(sampled.values, exact.values).to_dict(),
        "window": config["window"],
        "negatives": k,
    }
    with open(out_dir / "comparison.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ["comparison.json"]


def run_embed(config: dict, out_dir: Path) -> list[str]:
    g = load_edge_list(config["input"], directed=config["directed"])
    if config["dim"] > g.n:
        raise UsageError(f"embedding dimension {config['dim']} exceeds node count {g.n}")
    p, pi = _closed_forms(g, config["window"], with_pi=config["target"] == "sgns")
    target = _build_target(config, p, pi)
    del p, pi  # the decompositions below need only the target
    pair = factorize(target, config["dim"], split=config["split"])
    error = reconstruction_error(target, pair)
    spectrum = singular_values(target)

    write_embedding_matrix(pair.w, out_dir / "embeddings_w.txt")
    write_embedding_matrix(pair.h, out_dir / "embeddings_h.txt")
    target_norm = float(np.linalg.norm(target.values))
    report = {
        "frobenius_error": error,
        "relative_error": error / target_norm if target_norm > 0 else 0.0,
        "singular_values": spectrum.tolist(),
        "dim": config["dim"],
        "target": target.metadata(),
    }
    with open(out_dir / "reconstruction.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ["embeddings_w.txt", "embeddings_h.txt", "reconstruction.json"]


def run_train(config: dict, out_dir: Path) -> list[str]:
    counts, _ = read_counts_csv(config["counts"], config["counts_sidecar"])
    cfg = TrainConfig(
        dim=config["dim"],
        negatives=config["negatives"],
        epochs=config["epochs"],
        learning_rate=config["learning_rate"],
        seed=config["seed"],
        init_scale=config["init_scale"],
    )
    result = train_sgns(counts, cfg)

    write_embedding_matrix(result.embeddings.w, out_dir / "embeddings_w.txt")
    write_embedding_matrix(result.embeddings.h, out_dir / "embeddings_h.txt")
    with open(out_dir / "training_log.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "objective"])
        for epoch, value in enumerate(result.objective_per_epoch):
            writer.writerow([epoch, "%.17g" % value])

    comparison = dot_vs_shifted_pmi(counts, result.embeddings, cfg.negatives)
    upper_bound = sgns_objective_upper_bound(counts, cfg.negatives)
    report = {
        "dot_vs_shifted_pmi": comparison.to_dict(),
        "final_objective": result.final_objective,
        "negatives": cfg.negatives,
        "objective_gap": (upper_bound - result.final_objective) / abs(upper_bound),
        "steps": cfg.epochs * STEPS_PER_EPOCH,
        "upper_bound": upper_bound,
    }
    with open(out_dir / "comparison.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return ["embeddings_w.txt", "embeddings_h.txt", "training_log.csv", "comparison.json"]


_RUNNERS = {
    "exact": run_exact,
    "sample": run_sample,
    "compare": run_compare,
    "embed": run_embed,
    "train": run_train,
}

_INPUT_KEYS = {
    "exact": ("input",),
    "sample": ("input",),
    "compare": ("input", "counts", "counts_sidecar"),
    "embed": ("input",),
    "train": ("counts", "counts_sidecar"),
}

# The keys of each command's config, as _config_from_args makes it, with
# the types a value may have or, for a choice, the values it may take.
# A float may also be written as an integer; a bool is never an int.
_NONE = type(None)
_CONFIG_SCHEMA = {
    "exact": {"input": (str,), "directed": (bool,), "window": (int,),
              "target": TARGET_KINDS, "bias": BIAS_MODES, "negatives": (int,),
              "zero_policy": ZERO_POLICIES, "epsilon": (float, int), "format": FORMATS},
    "sample": {"input": (str,), "directed": (bool,), "window": (int,), "length": (int,),
               "seed": (int,), "workers": (int,), "start_mode": (*START_MODES, None),
               "start_node": (int, _NONE), "burn_in": (int, _NONE)},
    "compare": {"input": (str,), "directed": (bool,), "counts": (str,),
                "counts_sidecar": (str,), "window": (int,), "negatives": (int,)},
    "embed": {"input": (str,), "directed": (bool,), "window": (int,), "dim": (int,),
              "target": TARGET_KINDS, "bias": BIAS_MODES, "negatives": (int,),
              "zero_policy": ZERO_POLICIES, "epsilon": (float, int), "split": SPLITS},
    "train": {"counts": (str,), "counts_sidecar": (str,), "dim": (int,), "negatives": (int,),
              "epochs": (int,), "learning_rate": (float, int), "init_scale": (float, int, _NONE),
              "seed": (int,)},
}


def _config_problem(command: str, config: dict):
    """What makes config differ from every config _config_from_args makes
    for command: a missing or unknown key, or a value of the wrong type or
    outside its choices. None if there is nothing."""
    schema = _CONFIG_SCHEMA[command]
    for key, allowed in schema.items():
        if key not in config:
            return f"config '{key}' is missing"
        value = config[key]
        if isinstance(allowed[0], type):
            if type(value) not in allowed:
                names = " or ".join("null" if t is _NONE else t.__name__ for t in allowed)
                return f"config '{key}' must be {names}, got {value!r}"
        elif not any(type(value) is type(choice) and value == choice for choice in allowed):
            return f"config '{key}' must be one of {list(allowed)}, got {value!r}"
    unknown = sorted(config.keys() - schema.keys())
    return f"config has unknown key '{unknown[0]}'" if unknown else None


def execute(command: str, config: dict, out_dir: Path) -> Path:
    """Run a command, write its manifest, and return the manifest path."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for key in _INPUT_KEYS[command]:
        if not Path(config[key]).is_file():
            raise ValueError(f"input file not found: {config[key]}")
    inputs = {str(config[key]): _sha256(Path(config[key])) for key in _INPUT_KEYS[command]}

    started = datetime.now(timezone.utc).isoformat()
    t0 = time.perf_counter()
    outputs = _RUNNERS[command](config, out_dir)
    duration = time.perf_counter() - t0

    manifest = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "outputs": outputs,
        "started": started,
        "duration_seconds": duration,
        "tool": {"name": "walkmf", "version": __version__},
    }
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest_path


def _manifest_parts(manifest, manifest_path):
    """The command, config and inputs a manifest records, or a ValueError
    naming the manifest and the part that is missing or of the wrong type."""
    if not isinstance(manifest, dict):
        raise ValueError(f"manifest {manifest_path}: expected a JSON object, "
                         f"got {type(manifest).__name__}")
    command, config, inputs = (manifest.get(key) for key in ("command", "config", "inputs"))
    if not isinstance(command, str) or command not in _RUNNERS:
        raise ValueError(f"manifest {manifest_path}: 'command' is missing or unknown: "
                         f"{command!r}")
    for key, value in (("config", config), ("inputs", inputs)):
        if not isinstance(value, dict):
            raise ValueError(f"manifest {manifest_path}: '{key}' is missing or not an object")
    problem = _config_problem(command, config)
    if problem:
        raise ValueError(f"manifest {manifest_path}: {problem}")
    return command, config, inputs


def run_from_manifest(manifest_path, out_dir=None, check_digests: bool = True) -> Path:
    """Re-execute the command a manifest records; outputs are byte-identical."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    command, config, inputs = _manifest_parts(manifest, manifest_path)
    if check_digests:
        for path, digest in inputs.items():
            if not Path(path).is_file():
                raise ValueError(f"manifest input missing: {path}")
            if _sha256(Path(path)) != digest:
                raise ValueError(f"manifest input changed since the recorded run: {path}")
    target_dir = Path(out_dir) if out_dir is not None else Path(manifest_path).parent
    return execute(command, config, target_dir)


def _add_graph_args(sub):
    sub.add_argument("--input", "-i", required=True, help="edge-list file")
    sub.add_argument("--directed", action="store_true", help="treat edges as directed")


def _add_target_args(sub):
    sub.add_argument("--target", choices=TARGET_KINDS, default="softmax",
                     help="which closed-form target matrix to build")
    sub.add_argument("--bias", choices=BIAS_MODES, default="zero",
                     help="softmax target bias mode")
    sub.add_argument("--negative", "-k", type=_positive_int, default=DEFAULT_NEGATIVES,
                     help="negative samples per positive (sgns targets)")
    sub.add_argument("--zero-policy", choices=ZERO_POLICIES, default=None,
                     help="log(0) handling; defaults to floor for softmax, truncate for sgns")
    sub.add_argument("--epsilon", type=_positive_float, default=DEFAULT_EPSILON,
                     help="floor value for zero probabilities")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="walkmf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"walkmf {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("exact", help="closed-form walk/target matrices for a graph")
    _add_graph_args(p)
    p.add_argument("--window", "-t", type=_positive_int, default=DEFAULT_WINDOW)
    _add_target_args(p)
    p.add_argument("--format", choices=FORMATS, default="csv")
    p.add_argument("--out-dir", "-o", required=True)

    p = subs.add_parser("sample", help="sample windowed pair counts from a random walk")
    _add_graph_args(p)
    p.add_argument("--window", "-t", type=_positive_int, default=DEFAULT_WINDOW)
    p.add_argument("--length", "-L", type=_positive_int, required=True,
                   help="number of walk positions used as centers")
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--workers", type=_positive_int, default=1)
    p.add_argument("--start-mode", choices=START_MODES, default=None,
                   help="default: stationary for undirected, uniform for directed")
    p.add_argument("--start-node", type=_nonnegative_int, default=None)
    p.add_argument("--burn-in", type=_nonnegative_int, default=None,
                   help="default: 0 for undirected, 1000 for directed")
    p.add_argument("--out-dir", "-o", required=True)

    p = subs.add_parser("compare", help="sampled statistics vs their closed forms")
    _add_graph_args(p)
    p.add_argument("--counts", required=True, help="counts CSV written by `sample`")
    p.add_argument("--counts-sidecar", default=None,
                   help="sidecar JSON (default: counts path with .json suffix)")
    p.add_argument("--window", "-t", type=_positive_int, default=DEFAULT_WINDOW)
    p.add_argument("--negative", "-k", type=_positive_int, default=DEFAULT_NEGATIVES)
    p.add_argument("--out-dir", "-o", required=True)

    p = subs.add_parser("embed", help="factorize a closed-form target into embeddings")
    _add_graph_args(p)
    p.add_argument("--window", "-t", type=_positive_int, default=DEFAULT_WINDOW)
    p.add_argument("--dim", "-d", type=_positive_int, default=DEFAULT_DIM)
    _add_target_args(p)
    p.add_argument("--split", choices=SPLITS, default="symmetric",
                   help="singular-value split between the two factors")
    p.add_argument("--out-dir", "-o", required=True)

    p = subs.add_parser("train", help="train SGNS embeddings on sampled counts")
    p.add_argument("--counts", required=True, help="counts CSV written by `sample`")
    p.add_argument("--counts-sidecar", default=None)
    p.add_argument("--dim", "-d", type=_positive_int, default=DEFAULT_DIM)
    p.add_argument("--negative", "-k", type=_positive_int, default=DEFAULT_NEGATIVES)
    p.add_argument("--epochs", type=_nonnegative_int, default=5)
    p.add_argument("--lr", type=_positive_float, default=0.1,
                   help="initial Adam step size, decayed linearly")
    p.add_argument("--init-scale", type=_positive_float, default=None)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.add_argument("--out-dir", "-o", required=True)

    p = subs.add_parser("rerun", help="re-execute a recorded run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", "-o", default=None,
                   help="default: the manifest's own directory")
    p.add_argument("--skip-digest-check", action="store_true")

    return parser


def _config_from_args(args) -> dict:
    def path_of(value):
        return str(Path(value).resolve()) if value is not None else None

    if args.command == "exact":
        return {
            "input": path_of(args.input),
            "directed": args.directed,
            "window": args.window,
            "target": args.target,
            "bias": args.bias,
            "negatives": args.negative,
            "zero_policy": _resolved_zero_policy(args.zero_policy, args.target),
            "epsilon": args.epsilon,
            "format": args.format,
        }
    if args.command == "sample":
        if (args.start_node is not None) != (args.start_mode == "fixed"):
            raise UsageError("--start-node and --start-mode fixed must be given together")
        return {
            "input": path_of(args.input),
            "directed": args.directed,
            "window": args.window,
            "length": args.length,
            "seed": args.seed,
            "workers": args.workers,
            "start_mode": args.start_mode,
            "start_node": args.start_node,
            "burn_in": args.burn_in,
        }
    if args.command == "compare":
        counts = Path(args.counts)
        return {
            "input": path_of(args.input),
            "directed": args.directed,
            "counts": path_of(counts),
            "counts_sidecar": path_of(args.counts_sidecar or _sidecar_for(counts)),
            "window": args.window,
            "negatives": args.negative,
        }
    if args.command == "embed":
        return {
            "input": path_of(args.input),
            "directed": args.directed,
            "window": args.window,
            "dim": args.dim,
            "target": args.target,
            "bias": args.bias,
            "negatives": args.negative,
            "zero_policy": _resolved_zero_policy(args.zero_policy, args.target),
            "epsilon": args.epsilon,
            "split": args.split,
        }
    if args.command == "train":
        counts = Path(args.counts)
        return {
            "counts": path_of(counts),
            "counts_sidecar": path_of(args.counts_sidecar or _sidecar_for(counts)),
            "dim": args.dim,
            "negatives": args.negative,
            "epochs": args.epochs,
            "learning_rate": args.lr,
            "init_scale": args.init_scale,
            "seed": args.seed,
        }
    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "rerun":
            run_from_manifest(args.manifest, out_dir=args.out_dir,
                              check_digests=not args.skip_digest_check)
        else:
            config = _config_from_args(args)
            execute(args.command, config, Path(args.out_dir))
        return EXIT_OK
    except UsageError as exc:
        print(f"walkmf: usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EdgeListError, GraphStructureError, FactorizationError, ValueError, OSError,
            json.JSONDecodeError) as exc:
        print(f"walkmf: error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError as exc:
        # An input whose sizes cannot fit (NumPy's message names the
        # allocation that failed) is a data error, not a crash.
        print(f"walkmf: error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_DATA


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
