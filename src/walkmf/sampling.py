"""Random-walk co-occurrence sampling.

One long walk is generated per worker, the workers' walks side by side
on the machine's cores (one in this process, the others in forked children,
see parallel.run_jobs); every position in the center range emits its
following `window` positions as (center, context) pairs, and for
undirected emission the mirrored (context, center) pair as well. A long
walk is stepped in segments: NumPy first guesses every segment from a
common start node in lockstep, each guess walker starting a quarter segment
early so that it has usually met the walk before its segment begins, then
Python steps the walk exactly and keeps each guess from the first node where
the two agree, so the walk is the same as stepping it one position at a time.

Memory is bounded per walk step, not per pair: the walk is int32 (4 bytes
a step) whenever the node ids fit, its uniforms are drawn into one reused
buffer of _WALK_CHUNK floats, pairs are counted a block of centers at a
time, and a process frees each walk it counts before it generates another.
The workers' counts are summed into one running total as they arrive.

Counts are accumulated exactly (integer arithmetic throughout) into one
dense n x n int64 matrix, the only representation of counts; the marginals
are derived from it, so all marginal identities hold to the last count.
This module alone knows the counts.csv / counts.json interchange format.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Optional

import numpy as np

from .graphs import Graph, require_connected, stationary_distribution
from .parallel import run_jobs

START_MODES = ("stationary", "uniform", "fixed")

DIRECTED_DEFAULT_BURN_IN = 1000
_WALK_CHUNK = 1 << 20  # walk steps per chunk of uniforms
_SEGMENT = 2048  # walk steps per guessed segment
_MIN_GUESSED_SEGMENTS = 64  # a chunk with fewer segments is walked without guesses
_GUESS_PIECE = 256  # steps converted to lists at a time while a segment seeks its guess
_PAIR_BLOCK = 1 << 18  # centers whose pair codes are built at a time
_CSV_BLOCK_ROWS = 1 << 16  # counts rows formatted per write


@dataclass(frozen=True)
class SamplerConfig:
    """Walk-sampling parameters.

    `centers` is the number of walk positions used as pair centers; every
    center gets a complete right window, so the walk itself is
    `burn_in + centers + window` positions long.
    """

    window: int
    centers: int
    seed: int = 0
    start_mode: str = "stationary"
    start_node: Optional[int] = None
    burn_in: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.centers < 1:
            raise ValueError(f"centers must be >= 1, got {self.centers}")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.burn_in < 0:
            raise ValueError(f"burn_in must be >= 0, got {self.burn_in}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.start_mode not in START_MODES:
            raise ValueError(f"start_mode must be one of {START_MODES}, got {self.start_mode!r}")
        if self.start_mode == "fixed" and self.start_node is None:
            raise ValueError("start_mode 'fixed' requires start_node")

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "centers": self.centers,
            "seed": self.seed,
            "start_mode": self.start_mode,
            "start_node": self.start_node,
            "burn_in": self.burn_in,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SamplerConfig":
        return cls(**data)


def default_sampler_config(g: Graph, window: int, centers: int, seed: int = 0,
                           workers: int = 1) -> SamplerConfig:
    """Defaults that keep counts unbiased: undirected graphs start at a
    degree-proportional node (the stationary law, so no burn-in is needed);
    directed graphs start uniformly and discard a burn-in prefix."""
    if g.directed:
        return SamplerConfig(window=window, centers=centers, seed=seed,
                             start_mode="uniform", burn_in=DIRECTED_DEFAULT_BURN_IN,
                             workers=workers)
    return SamplerConfig(window=window, centers=centers, seed=seed,
                         start_mode="stationary", burn_in=0, workers=workers)


@dataclass(frozen=True, eq=False)
class Walk:
    """A realized random walk over node ids, with the seed that produced it.

    generate_walk stores `nodes` as int32 when every id fits (n <= 2**31 - 1)
    and as int64 otherwise; extract_pairs takes either integer dtype.
    """

    nodes: np.ndarray
    n: int
    seed: int

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True, eq=False)
class CooccurrenceCounts:
    """Exact pair counts as one dense n x n int64 matrix.

    `dense[v, c]` is #(v, c), the number of pairs with center v and context
    c. The marginals are derived from it here and nowhere else:
    `node_counts[v]` = #(v) (row sums), `context_counts[c]` = #(c) (column
    sums), `total` = |D|. `dense` is a read-only view, so they cannot
    disagree with it.
    """

    dense: np.ndarray
    node_counts: np.ndarray = field(init=False)
    context_counts: np.ndarray = field(init=False)
    total: int = field(init=False)

    def __post_init__(self):
        mat = np.asarray(self.dense)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"count matrix must be square, got shape {mat.shape}")
        if mat.dtype.kind not in "iu":
            raise ValueError(f"counts must be integers, got dtype {mat.dtype}")
        mat = mat.astype(np.int64, copy=False).view()
        if np.any(mat < 0):
            raise ValueError("counts must be non-negative")
        mat.flags.writeable = False
        object.__setattr__(self, "dense", mat)
        object.__setattr__(self, "node_counts", mat.sum(axis=1))
        object.__setattr__(self, "context_counts", mat.sum(axis=0))
        object.__setattr__(self, "total", int(self.node_counts.sum()))

    def __reduce__(self):
        # Pickled as the matrix alone (a forked worker sends its counts this
        # way), so unpickling runs the checks again and dense stays read-only.
        return (CooccurrenceCounts, (self.dense,))

    @classmethod
    def from_matrix(cls, mat) -> "CooccurrenceCounts":
        return cls(mat)

    @property
    def n(self) -> int:
        return self.dense.shape[0]

    def count(self, v: int, c: int) -> int:
        return int(self.dense[v, c])

    def is_symmetric(self) -> bool:
        return np.array_equal(self.dense, self.dense.T)


def merge_counts(parts: Iterable[CooccurrenceCounts]) -> CooccurrenceCounts:
    """Sum count sets over the same node set (order-independent).

    `parts` may be any iterable, such as a generator that makes each part
    on demand: one running total is kept and each part is let go before
    the next is drawn, so the sum holds two n x n matrices at a time.
    """
    total = None
    for part in parts:
        if total is None:
            total = part.dense.copy()
        elif part.n != len(total):
            raise ValueError("cannot merge counts over different node sets")
        else:
            total += part.dense
        del part
    if total is None:
        raise ValueError("nothing to merge")
    return CooccurrenceCounts(total)


def _draw_start(g: Graph, cfg: SamplerConfig, rng: np.random.Generator) -> int:
    if cfg.start_mode == "fixed":
        if not (0 <= cfg.start_node < g.n):
            raise ValueError(f"start node {cfg.start_node} out of range 0..{g.n - 1}")
        return cfg.start_node
    if cfg.start_mode == "uniform":
        return int(rng.integers(g.n))
    return int(rng.choice(g.n, p=stationary_distribution(g)))


def generate_walk(g: Graph, cfg: SamplerConfig) -> Walk:
    """Run one uniform random walk of burn_in + centers + window positions.

    Deterministic given cfg.seed. Requires a (strongly) connected graph so
    the walk can never get stuck. Step i takes the i-th uniform u of the
    seeded stream and moves from node v to its out-neighbour number
    floor(u deg(v)), in sorted order. The walk is int32 when n <= 2**31 - 1
    and int64 otherwise.

    The uniforms come _WALK_CHUNK at a time, each chunk drawn into the same
    buffer, and a long chunk runs in two passes over _SEGMENT-step
    segments. The guess pass steps one walker per segment after the first,
    all in lockstep, each from the chunk's start node; a walker takes the
    last quarter of the previous segment's uniforms as a lead-in, then its
    own segment's, and writes its nodes over its own segment of the walk.
    The exact pass then steps the walk itself from its true node, segment
    by segment, and ends a segment at the first position where it lands on
    the guess: the same node and the same uniforms give the same path from
    there on. The walk is therefore the one that stepping every position in
    turn would give, whichever guesses met. When a chunk's exact pass walks
    more than half its steps, guesses rarely meet on this graph (on a
    directed cycle, one meets the walk only if its offset is a multiple of
    the cycle's length), and later chunks are walked without them. Walks
    shorter than _MIN_GUESSED_SEGMENTS segments are never guessed.
    """
    require_connected(g)
    rng = np.random.default_rng(cfg.seed)
    start = _draw_start(g, cfg, rng)

    length = cfg.burn_in + cfg.centers + cfg.window
    # Python lists keep the exact pass free of NumPy scalar indexing, and
    # successive rng.random chunks are the same stream as one draw for
    # every step. Uniforms become lists a segment at a time: a whole chunk
    # as Python floats would take ~32 bytes per step.
    rule = (g.indptr.tolist(), g.indices.tolist(), g.degrees.tolist())
    walk = np.empty(length, dtype=np.int32 if g.n <= np.iinfo(np.int32).max else np.int64)
    walk[0] = cur = start
    buffer = np.empty(min(_WALK_CHUNK, length - 1))
    guessing = True
    for lo in range(1, length, _WALK_CHUNK):
        uniforms = rng.random(out=buffer[:min(_WALK_CHUNK, length - lo)])
        chunk = walk[lo:lo + len(uniforms)]
        segments = len(uniforms) // _SEGMENT
        guessed = segments if guessing and segments >= _MIN_GUESSED_SEGMENTS else 0
        if guessed:
            _guess_segments(g, cur, uniforms[:guessed * _SEGMENT], chunk)
        exact = 0
        for a in range(0, len(uniforms), _SEGMENT):
            b = min(a + _SEGMENT, len(uniforms))
            if 0 < a < guessed * _SEGMENT:
                path = _step_to_guess(cur, uniforms[a:b], chunk[a:b], *rule)
            else:
                path = _step(cur, uniforms[a:b].tolist(), *rule)
            chunk[a:a + len(path)] = path
            exact += len(path)
            cur = int(chunk[b - 1])
        if guessed and 2 * exact > len(uniforms):
            guessing = False
    return Walk(nodes=walk, n=g.n, seed=cfg.seed)


def _step(cur: int, uniforms: list, indptr: list, indices: list, degrees: list) -> list:
    """The nodes after cur, one step per uniform. Kept apart from
    _step_to_guess so that unguessed steps pay for no comparison."""
    path = []
    for u in uniforms:
        cur = indices[indptr[cur] + int(u * degrees[cur])]
        path.append(cur)
    return path


def _step_to_guess(cur: int, uniforms: np.ndarray, guesses: np.ndarray, indptr: list,
                   indices: list, degrees: list) -> list:
    """As _step, but the path ends at the first node equal to its guess.

    Most paths meet their guess early, so the arrays are converted to lists
    _GUESS_PIECE entries at a time rather than whole."""
    path = []
    for lo in range(0, len(uniforms), _GUESS_PIECE):
        hi = lo + _GUESS_PIECE
        for u, guess in zip(uniforms[lo:hi].tolist(), guesses[lo:hi].tolist()):
            cur = indices[indptr[cur] + int(u * degrees[cur])]
            path.append(cur)
            if cur == guess:
                return path
    return path


def _guess_segments(g: Graph, start: int, uniforms: np.ndarray, out: np.ndarray) -> None:
    """Write into out, for every _SEGMENT-step segment of uniforms but the
    first, the walk that starts at `start`, takes the last _SEGMENT // 4
    uniforms of the previous segment as a lead-in and then that segment's
    uniforms; only the segment's own nodes are written. The walkers step
    together, one NumPy gather per step, by the rule generate_walk's exact
    pass uses. Walks that share uniforms tend to merge, so the lead-in lets
    most guesses meet the walk before their segment begins."""
    rows = uniforms.reshape(-1, _SEGMENT)
    guesses = out[_SEGMENT:len(uniforms)].reshape(-1, _SEGMENT)
    cur = np.full(len(guesses), start, dtype=np.int64)

    def step(cur, us):
        return g.indices[g.indptr[cur] + (us * g.degrees[cur]).astype(np.int64)]

    for j in range(_SEGMENT - _SEGMENT // 4, _SEGMENT):
        cur = step(cur, rows[:-1, j])
    for j in range(_SEGMENT):
        cur = step(cur, rows[1:, j])
        guesses[:, j] = cur


def extract_pairs(walk: Walk, window: int, directed: bool, burn_in: int,
                  centers: int) -> CooccurrenceCounts:
    """Windowed pair extraction over the center range.

    Center position i (burn_in <= i < burn_in + centers) emits (w[i], w[i+o])
    for offsets o = 1..window; undirected emission also records the mirrored
    pair, so the count map is exactly symmetric and the total is
    2 * window * centers (window * centers when directed).

    Centers are taken max(_PAIR_BLOCK, n*n) at a time, so the pair codes
    v*n + c take ~16 bytes per block center rather than per walk step, and
    no more than the n*n counts themselves. A block is never smaller than
    n*n because every bincount call also returns n*n counts to add. The
    codes are int64 whatever the walk's dtype: an int32 walk times n would
    wrap once n*n > 2**31 under NumPy 1.x.
    """
    needed = burn_in + centers + window
    if len(walk) < needed:
        raise ValueError(f"walk has {len(walk)} positions, need at least {needed}")
    n = walk.n
    nodes = walk.nodes
    forward = np.zeros(n * n, dtype=np.int64)
    end = burn_in + centers
    block = max(_PAIR_BLOCK, n * n)
    for lo in range(burn_in, end, block):
        hi = min(lo + block, end)
        rows = nodes[lo:hi].astype(np.int64)
        rows *= n
        for offset in range(1, window + 1):
            forward += np.bincount(rows + nodes[lo + offset:hi + offset], minlength=n * n)
    mat = forward.reshape(n, n)
    if not directed:
        mat = mat + mat.T
    return CooccurrenceCounts(mat)


def _worker_seed(seed: int, worker: int) -> int:
    # Mixes (seed, worker index) into an independent 64-bit stream seed.
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(worker,)).generate_state(1, np.uint64)[0])


def _count_walk(g: Graph, cfg: SamplerConfig) -> CooccurrenceCounts:
    return extract_pairs(generate_walk(g, cfg), cfg.window, g.directed, cfg.burn_in, cfg.centers)


def sample_counts(g: Graph, cfg: SamplerConfig) -> CooccurrenceCounts:
    """Generate walk(s) and accumulate windowed pair counts.

    With workers > 1, the center budget is split across workers, each worker
    runs its own walk from a seed mixed out of (cfg.seed, worker index), and
    the partial counts are summed. Deterministic given (seed, workers), on
    any number of cores. The workers' walks run concurrently, up to one per
    core (see parallel.run_jobs): this process walks one and forked children
    the others. Each walk goes straight to extract_pairs and is freed
    before the process walks another, and merge_counts adds each worker's
    counts to one running total as they arrive, so this process holds one
    walk, the counts being made from it and the total.
    """
    if cfg.workers == 1:
        return _count_walk(g, cfg)

    base, extra = divmod(cfg.centers, cfg.workers)
    # Workers beyond the first `centers` would get no centers, so they do not run.
    jobs = [partial(_count_walk, g, replace(cfg, centers=base + (w < extra),
                                            seed=_worker_seed(cfg.seed, w), workers=1))
            for w in range(min(cfg.workers, cfg.centers))]
    return merge_counts(run_jobs(jobs))


def empirical_conditional(counts: CooccurrenceCounts) -> np.ndarray:
    """Row-normalized pair counts: entry (i, j) = #(i,j)/#(i).

    Rows of nodes that never occurred are NaN (flagged absent rather than
    fabricated); observed rows sum to 1 exactly.
    """
    out = np.full((counts.n, counts.n), np.nan)
    observed = counts.node_counts > 0
    dense = counts.dense.astype(float)
    out[observed] = dense[observed] / counts.node_counts[observed, None]
    return out


def empirical_frequency(counts: CooccurrenceCounts) -> np.ndarray:
    """Node occurrence frequencies #(v)/|D|; sums to 1."""
    if counts.total == 0:
        raise ValueError("counts are empty")
    return counts.node_counts / counts.total


def write_counts_csv(counts: CooccurrenceCounts, path) -> None:
    """Nonzero counts as 'v,c,count' rows, ordered by (v, c). Lines end in
    CRLF, as csv.writer ends them; each block of rows is formatted by one
    string operation."""
    v, c = np.nonzero(counts.dense)  # row-major, so already in (v, c) order
    cnt = counts.dense[v, c]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("v,c,count\r\n")
        for lo in range(0, len(v), _CSV_BLOCK_ROWS):
            part = slice(lo, lo + _CSV_BLOCK_ROWS)
            block = np.column_stack((v[part], c[part], cnt[part]))
            fh.write(("%d,%d,%d\r\n" * len(block)) % tuple(block.ravel().tolist()))


def write_counts_sidecar(counts: CooccurrenceCounts, path, config: Optional[SamplerConfig] = None) -> None:
    payload = {
        "n": counts.n,
        "total": counts.total,
        "node_counts": counts.node_counts.tolist(),
        "context_counts": counts.context_counts.tolist(),
        "sampler_config": config.to_dict() if config is not None else None,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_SIDECAR_KEYS = ("n", "total", "node_counts", "context_counts")


def read_counts_csv(path, sidecar_path) -> tuple[CooccurrenceCounts, Optional[SamplerConfig]]:
    """Load counts written by write_counts_csv + sidecar.

    Every malformed input raises ValueError naming the file: a bad header,
    a row without exactly three integer fields, a node id outside 0..n-1, a
    negative count, a repeated (v, c) row, a sidecar that is not JSON, lacks
    `n`, `total`, `node_counts` or `context_counts`, has marginals that are
    not lists of n integers or a malformed `sampler_config`, and marginals
    that disagree with the rows. Rows may end in \r\n or \n; a header-only
    file holds all-zero counts.
    """
    with open(sidecar_path, "r", encoding="utf-8") as fh:
        try:
            meta = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{sidecar_path}: not valid JSON: {exc}") from None
    if not isinstance(meta, dict) or any(key not in meta for key in _SIDECAR_KEYS):
        raise ValueError(f"{sidecar_path}: sidecar must be an object with keys {', '.join(_SIDECAR_KEYS)}")
    n = meta["n"]
    if type(n) is not int or n < 1:
        raise ValueError(f"{sidecar_path}: n must be a positive integer, got {n!r}")
    # Checked before the n x n allocation, so a bogus n cannot exhaust memory.
    for key in ("node_counts", "context_counts"):
        marginal = meta[key]
        if not (isinstance(marginal, list) and len(marginal) == n
                and all(type(x) is int for x in marginal)):
            raise ValueError(f"{sidecar_path}: {key} must be a list of n = {n} integers")

    with open(path, "r", newline="", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\r\n")
        if header != "v,c,count":
            raise ValueError(f"{path}: unexpected counts header: {header!r}")
        try:
            with warnings.catch_warnings():
                # loadtxt warns on a header-only file, which is valid.
                warnings.simplefilter("ignore", UserWarning)
                rows = np.loadtxt(fh, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if rows.size == 0:
        rows = rows.reshape(0, 3)
    elif rows.shape[1] != 3:
        raise ValueError(f"{path}: rows must have 3 fields v,c,count, got {rows.shape[1]}")
    v, c, cnt = rows.T
    if np.any((v < 0) | (v >= n) | (c < 0) | (c >= n)):
        raise ValueError(f"{path}: node id outside 0..{n - 1}")
    if np.any(cnt < 0):
        raise ValueError(f"{path}: negative count")
    codes = np.sort(v * n + c)
    if np.any(codes[1:] == codes[:-1]):
        raise ValueError(f"{path}: repeated (v, c) row")
    mat = np.zeros((n, n), dtype=np.int64)
    mat[v, c] = cnt
    counts = CooccurrenceCounts(mat)
    for key in ("total", "node_counts", "context_counts"):
        if not np.array_equal(getattr(counts, key), meta[key]):
            raise ValueError(f"{path}: counts file {key} disagrees with sidecar {sidecar_path}")

    cfg = meta.get("sampler_config")
    if not cfg:
        return counts, None
    try:
        return counts, SamplerConfig.from_dict(cfg)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{sidecar_path}: bad sampler_config: {exc}") from None
