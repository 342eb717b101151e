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
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace
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
    symmetrize_in_place,
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
    DEFAULT_EPSILON,
    ZERO_POLICIES,
    compare_matrices,
    sgns_target_exact,
    sgns_target_from_counts,
    softmax_target,
    walk_probability_matrix,
    write_matrix_csv,
    write_vector_csv,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2

DEFAULT_WINDOW = 5
# The largest --window, far above DeepWalk's t = 10. The walk matrix takes
# t - 1 n x n products and pair extraction one pass over the centers per
# offset, so without a bound a window could keep a command running forever.
MAX_WINDOW = 1000
DEFAULT_NEGATIVES = 5
DEFAULT_DIM = 64
TARGET_KINDS = ("softmax", "sgns")
FORMATS = ("csv", "json")


class UsageError(Exception):
    """A usage error (exit code 1), with the parser if one refused a flag."""

    def __init__(self, message: str, parser=None):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; here main exits 1 and rerun reports them.
    def error(self, message):
        raise UsageError(message, self)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _window(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_WINDOW:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_WINDOW}, got {text}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _fraction(text: str) -> float:
    value = float(text)
    if not 0 < value < 1:  # written so that nan fails too
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _sidecar_for(counts_path: Path) -> Path:
    return counts_path.with_suffix(".json")


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_array(array: np.ndarray, out_dir: Path, stem: str, fmt: str, metadata=None) -> str:
    """Write a matrix or, if 1-d, a vector as <stem>.csv or as <stem>.json,
    whose payload holds it under "matrix" or "vector" beside its metadata."""
    name = f"{stem}.{fmt}"
    if fmt == "json":
        key = "matrix" if array.ndim == 2 else "vector"
        _write_json(out_dir / name, {"metadata": metadata or {}, key: array.tolist()})
    elif array.ndim == 2:
        write_matrix_csv(array, out_dir / name)
    else:
        write_vector_csv(array, out_dir / name)
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
        _write_array(p.probs, out_dir, "walk_matrix", fmt, {"window": p.window}),
        _write_array(target.values, out_dir, "target", fmt, target.metadata()),
        _write_array(pi, out_dir, "stationary", fmt),
    ]
    mask = target.mask
    if mask is not None:
        names.append(_write_array(mask.astype(int), out_dir, "target_mask", fmt))
    return names


def run_sample(config: dict, out_dir: Path) -> list[str]:
    g = load_edge_list(config["input"], directed=config["directed"])
    given = {key: config[key] for key in ("start_mode", "burn_in") if config[key] is not None}
    cfg = replace(default_sampler_config(g, window=config["window"], centers=config["length"],
                                         seed=config["seed"], workers=config["workers"]),
                  start_node=config["start_node"], **given)
    counts = sample_counts(g, cfg)
    write_counts_csv(counts, out_dir / "counts.csv")
    write_counts_sidecar(counts, out_dir / "counts.json", cfg)
    return ["counts.csv", "counts.json"]


def run_compare(config: dict, out_dir: Path) -> list[str]:
    g = load_edge_list(config["input"], directed=config["directed"])
    counts, sampled_with = read_counts_csv(config["counts"], config["counts_sidecar"])
    if counts.n != g.n:
        raise ValueError(f"counts cover {counts.n} nodes but the graph has {g.n}")
    if sampled_with is not None and sampled_with.window != config["window"]:
        raise ValueError(f"counts were sampled at window {sampled_with.window} but the "
                         f"comparison is at window {config['window']}")

    p, pi = _closed_forms(g, config["window"])
    k = config["negatives"]
    # Each n x n array is let go as soon as its comparisons are done: the
    # counts, P and one more are the most held between steps.
    conditional = asdict(compare_matrices(empirical_conditional(counts), p.probs))
    frequency = asdict(compare_matrices(empirical_frequency(counts), pi))
    # Mask policy on both PMI sides keeps the comparison on pairs both can see.
    exact = sgns_target_exact(p, pi, k=k, zero_policy="mask")
    del p
    sampled = sgns_target_from_counts(counts, k=k, zero_policy="mask")
    del counts

    report = {
        "conditional_vs_walk_matrix": conditional,
        "frequency_vs_stationary": frequency,
        "sgns_counts_vs_exact": asdict(compare_matrices(sampled.values, exact.values)),
        "window": config["window"],
        "negatives": k,
    }
    _write_json(out_dir / "comparison.json", report)
    return ["comparison.json"]


def run_embed(config: dict, out_dir: Path) -> list[str]:
    g = load_edge_list(config["input"], directed=config["directed"])
    if config["dim"] > g.n:
        raise UsageError(f"embedding dimension {config['dim']} exceeds node count {g.n}")
    p, pi = _closed_forms(g, config["window"], with_pi=config["target"] == "sgns")
    target = _build_target(config, p, pi)
    del p, pi  # the decompositions below need only the target
    # A target symmetric to rounding becomes the (M + M^T)/2 that the eigh
    # route factors, so that route makes no copy of it, and the report
    # describes the matrix factored.
    symmetrize_in_place(target.values)
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
    _write_json(out_dir / "reconstruction.json", report)
    return ["embeddings_w.txt", "embeddings_h.txt", "reconstruction.json"]


def run_train(config: dict, out_dir: Path) -> list[str]:
    cfg = TrainConfig(**{field.name: config[field.name] for field in fields(TrainConfig)})
    counts, _ = read_counts_csv(config["counts"], config["counts_sidecar"])
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
        "dot_vs_shifted_pmi": asdict(comparison),
        "final_objective": result.final_objective,
        "negatives": cfg.negatives,
        "objective_gap": (upper_bound - result.final_objective) / abs(upper_bound),
        "steps": cfg.epochs * STEPS_PER_EPOCH,
        "upper_bound": upper_bound,
    }
    _write_json(out_dir / "comparison.json", report)
    return ["embeddings_w.txt", "embeddings_h.txt", "training_log.csv", "comparison.json"]


_RUNNERS = {
    "exact": run_exact,
    "sample": run_sample,
    "compare": run_compare,
    "embed": run_embed,
    "train": run_train,
}


def _with_help(option, text: str):
    """The option with text as its help."""
    flags, key, kwargs = option
    return flags, key, {**kwargs, "help": text}


# Every option a command records in its config is declared once, as (flags,
# config key, add_argument keywords); the config key is argparse's dest. The
# parser, the recorded config, rerun's check of a manifest's config and the
# input files all come from these rows. type=Path marks an input file: the
# config records its resolved path and the manifest its digest.
_INPUT = (("--input", "-i"), "input", {"type": Path, "required": True, "help": "edge-list file"})
_DIRECTED = (("--directed",), "directed",
             {"action": "store_true", "help": "treat edges as directed"})
_WINDOW = (("--window", "-t"), "window", {"type": _window, "default": DEFAULT_WINDOW,
                                          "help": f"window size t, 1 to {MAX_WINDOW}"})
_NEGATIVES = (("--negative", "-k"), "negatives",
              {"type": _positive_int, "default": DEFAULT_NEGATIVES, "metavar": "NEGATIVE"})
_DIM = (("--dim", "-d"), "dim", {"type": _positive_int, "default": DEFAULT_DIM})
_SEED = (("--seed",), "seed", {"type": _nonnegative_int, "default": 0})
_COUNTS = (("--counts",), "counts",
           {"type": Path, "required": True, "help": "counts CSV written by `sample`"})
_COUNTS_SIDECAR = (("--counts-sidecar",), "counts_sidecar", {"type": Path, "default": None})
_TARGET_OPTIONS = (
    (("--target",), "target", {"choices": TARGET_KINDS, "default": "softmax",
                               "help": "which closed-form target matrix to build"}),
    (("--bias",), "bias", {"choices": BIAS_MODES, "default": "zero",
                           "help": "softmax target bias mode"}),
    _with_help(_NEGATIVES, "negative samples per positive (sgns targets)"),
    (("--zero-policy",), "zero_policy", {
        "choices": ZERO_POLICIES, "default": None,
        "help": "log(0) handling; defaults to floor for softmax, truncate for sgns"}),
    (("--epsilon",), "epsilon", {"type": _fraction, "default": DEFAULT_EPSILON,
                                 "help": "floor value for zero probabilities"}),
)

# Each command's help line and options, in --help order.
_COMMANDS = {
    "exact": ("closed-form walk/target matrices for a graph", (
        _INPUT, _DIRECTED, _WINDOW, *_TARGET_OPTIONS,
        (("--format",), "format", {"choices": FORMATS, "default": "csv"}),
    )),
    "sample": ("sample windowed pair counts from a random walk", (
        _INPUT, _DIRECTED, _WINDOW,
        (("--length", "-L"), "length", {"type": _positive_int, "required": True,
                                        "help": "number of walk positions used as centers"}),
        _SEED,
        (("--workers",), "workers", {"type": _positive_int, "default": 1}),
        (("--start-mode",), "start_mode", {
            "choices": START_MODES, "default": None,
            "help": "default: stationary for undirected, uniform for directed"}),
        (("--start-node",), "start_node", {"type": _nonnegative_int, "default": None}),
        (("--burn-in",), "burn_in", {"type": _nonnegative_int, "default": None,
                                     "help": "default: 0 for undirected, 1000 for directed"}),
    )),
    "compare": ("sampled statistics vs their closed forms", (
        _INPUT, _DIRECTED, _COUNTS,
        _with_help(_COUNTS_SIDECAR, "sidecar JSON (default: counts path with .json suffix)"),
        _WINDOW, _NEGATIVES,
    )),
    "embed": ("factorize a closed-form target into embeddings", (
        _INPUT, _DIRECTED, _WINDOW, _DIM, *_TARGET_OPTIONS,
        (("--split",), "split", {"choices": SPLITS, "default": "symmetric",
                                 "help": "singular-value split between the two factors"}),
    )),
    "train": ("train SGNS embeddings on sampled counts", (
        _COUNTS, _COUNTS_SIDECAR, _DIM, _NEGATIVES,
        (("--epochs",), "epochs", {"type": _nonnegative_int, "default": 5}),
        (("--lr",), "learning_rate", {"type": _positive_float, "default": 0.1, "metavar": "LR",
                                      "help": "initial Adam step size, decayed linearly"}),
        (("--init-scale",), "init_scale", {"type": _positive_float, "default": None}),
        _SEED,
    )),
}

# Options whose unset value defaults to one that depends on other options.
# The config records the value they default to, so it is never null.
_DERIVED_DEFAULTS = {
    "zero_policy": lambda config: "floor" if config["target"] == "softmax" else "truncate",
    "counts_sidecar": lambda config: _sidecar_for(config["counts"]),
}


def _input_keys(command: str) -> list[str]:
    _, options = _COMMANDS[command]
    return [key for _, key, kwargs in options if kwargs.get("type") is Path]


def _config_problem(command: str, config: dict):
    """Why config is not a config _config_from_args makes for command, or
    None: a missing or unknown key, a value its flag refuses, in the command
    line's words, or one it reads back as another value or type (an int may
    stand for a float). Values go in as --flag=value, so "--help" is a value."""
    _, options = _COMMANDS[command]
    for _, key, _ in options:
        if key not in config:
            return f"config '{key}' is missing"
    unknown = sorted(config.keys() - {key for _, key, _ in options})
    if unknown:
        return f"config has unknown key '{unknown[0]}'"
    argv = [command, "--out-dir", "."]
    for flags, key, kwargs in options:
        value = config[key]
        if kwargs.get("action") == "store_true":
            argv += [flags[0]] if value is True else []
        elif value is not None:
            argv.append(f"{flags[0]}={value}")
    try:
        rebuilt = _config_from_args(build_parser().parse_args(argv))
    except UsageError as exc:
        return f"config: {exc}"
    for key, want in rebuilt.items():
        value = config[key]
        if value != want or (type(value) is not type(want)
                             and (type(value), type(want)) != (int, float)):
            return f"config '{key}' is {value!r}, but its flag reads it as {want!r}"
    return None


def execute(command: str, config: dict, out_dir: Path, digests=None) -> Path:
    """Run a command, write its manifest, and return the manifest path.

    `digests`, if given, maps each input file to the SHA-256 digest it must
    still have; the first input whose digest differs fails the run before
    the command starts. If the command fails, the directories this call
    created for out_dir are removed again, innermost first, as long as they
    are empty; one that existed before, or that holds files, is left as it
    is."""
    created = [d for d in (out_dir, *out_dir.parents) if not d.exists()]
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _execute(command, config, out_dir, digests)
    except BaseException:
        for directory in created:
            if any(directory.iterdir()):
                break
            directory.rmdir()
        raise


def _execute(command: str, config: dict, out_dir: Path, digests) -> Path:
    for key in _input_keys(command):
        if not Path(config[key]).is_file():
            raise ValueError(f"input file not found: {config[key]}")
    inputs = {str(config[key]): _sha256(Path(config[key])) for key in _input_keys(command)}
    if digests is not None:
        for path, digest in inputs.items():
            if digests[path] != digest:
                raise ValueError(f"manifest input changed since the recorded run: {path}")

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
    _write_json(manifest_path, manifest)
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
    # The digests must cover exactly the config's input files, or a changed
    # input could rerun unchecked.
    files = [config[key] for key in _input_keys(command)]
    for path in files:
        if path not in inputs:
            raise ValueError(f"manifest {manifest_path}: 'inputs' records no digest "
                             f"for input file {path}")
    for path in inputs:
        if path not in files:
            raise ValueError(f"manifest {manifest_path}: 'inputs' names {path}, "
                             f"which is not an input file of its config")
    return command, config, inputs


def run_from_manifest(manifest_path, out_dir=None, check_digests: bool = True) -> Path:
    """Re-execute the command a manifest records; outputs are byte-identical."""
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    command, config, inputs = _manifest_parts(manifest, manifest_path)
    target_dir = Path(out_dir) if out_dir is not None else Path(manifest_path).parent
    return execute(command, config, target_dir, inputs if check_digests else None)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="walkmf", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"walkmf {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    for command, (help_text, options) in _COMMANDS.items():
        p = subs.add_parser(command, help=help_text)
        for flags, key, kwargs in options:
            p.add_argument(*flags, dest=key, **kwargs)
        p.add_argument("--out-dir", "-o", required=True)

    p = subs.add_parser("rerun", help="re-execute a recorded run from its manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out-dir", "-o", default=None,
                   help="default: the manifest's own directory")
    p.add_argument("--skip-digest-check", action="store_true")

    return parser


def _config_from_args(args) -> dict:
    """The config a command records: each option's value under its key, with
    the derived defaults filled in and each input file's path resolved."""
    if args.command == "sample" and (args.start_node is not None) != (args.start_mode == "fixed"):
        raise UsageError("--start-node and --start-mode fixed must be given together")
    _, options = _COMMANDS[args.command]
    config = {key: getattr(args, key) for _, key, _ in options}
    for flags, key, _ in options:
        if isinstance(config[key], list):  # argparse before 3.12 drops a "--" value
            raise UsageError(f"argument {'/'.join(flags)}: expected one argument")
    # Before the paths resolve: the default sidecar sits beside the counts
    # path as given, even where that is a link.
    for key, default in _DERIVED_DEFAULTS.items():
        if key in config and config[key] is None:
            config[key] = default(config)
    for key in _input_keys(args.command):
        # Not Path.resolve, which raises RuntimeError on a symlink loop.
        config[key] = os.path.realpath(config[key])
    return config


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    except UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

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
