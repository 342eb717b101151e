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

Memory is bounded per walk step, not per pair: the walk is held in the
narrowest unsigned type that holds every node id (1 byte a step up to 256
nodes, 2 up to 65,536, 4 beyond), the guesses read one reused buffer of
_WALK_CHUNK float32 copies of the uniforms (4 bytes a step) while the
exact pass draws its float64 uniforms a piece at a time, pairs are counted
a block of centers at a time, and a process frees each walk it counts
before it generates another.
The workers' counts are summed into one running total as they arrive.

Counts are accumulated exactly (integer arithmetic throughout) into one
dense n x n int64 matrix, the only representation of counts; the marginals
are derived from it, so all marginal identities hold to the last count.
This module alone knows the counts.csv / counts.json interchange format.
"""

from __future__ import annotations

import json
import warnings
from bisect import bisect_left
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Iterable, Optional

import numpy as np

from .graphs import Graph, require_connected, stationary_distribution
from .parallel import run_jobs, write_rows

START_MODES = ("stationary", "uniform", "fixed")

DIRECTED_DEFAULT_BURN_IN = 1000
_WALK_CHUNK = 1 << 20  # walk steps per guessed chunk
_SEGMENT = 2048  # walk steps per guessed segment
# Chunks of fewer segments are walked unguessed: on a 2-core VM, guessing broke
# even at 18 to 20 segments on 800-node undirected and 300-node directed graphs.
_MIN_GUESSED_SEGMENTS = 20
_GUESS_PIECE = 16  # steps in the first piece a segment walks while it seeks its guess
# Guess steps whose uniforms and nodes are transposed at a time. On a 2-core
# VM, a 2M-step walk on a 300-node directed graph guessed equally fast in
# pieces of 16 to 128 steps, and `sample`'s peak RSS was lowest with 32
# (0.4 MB below pieces of 64).
_LOCKSTEP_PIECE = 32
_PAIR_BLOCK = 1 << 18  # centers whose pair codes are built at a time
# The largest float32 below 1: a guess uniform rounded up to 1.0 would pick
# the out-neighbour past its node's last. A Python float, so that importing
# walkmf calls no NumPy function.
_BELOW_ONE = 1 - 2**-24
_DRAW_PIECE = 1 << 14  # float64 uniforms drawn, rounded to float32 and checked at a time
_UNSURE_BINS = 1 << 16  # bins of [0, 1) that prefilter the unsure float32 uniforms
# Most pairs a count set may hold: below it every int64 marginal is exact.
_MAX_TOTAL = 2**62


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
        if (self.start_node is None) == (self.start_mode == "fixed"):
            raise ValueError(f"start_node is given exactly when start_mode is 'fixed', got "
                             f"start_mode {self.start_mode!r}, start_node {self.start_node!r}")


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

    generate_walk stores `nodes` as np.min_scalar_type(n - 1), the narrowest
    unsigned type that holds every id: uint8 up to 256 nodes, uint16 up to
    65,536 and uint32 up to 2**32. extract_pairs takes any integer dtype that
    widens to int64.
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
    disagree with it, and it may hold at most 2**62 pairs, so none wraps.
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
        if mat.sum(dtype=float) > _MAX_TOTAL:
            raise ValueError("counts total more than 2**62 pairs; their int64 sums could wrap")
        mat.flags.writeable = False
        object.__setattr__(self, "dense", mat)
        object.__setattr__(self, "node_counts", mat.sum(axis=1))
        object.__setattr__(self, "context_counts", mat.sum(axis=0))
        object.__setattr__(self, "total", int(self.node_counts.sum()))

    def __reduce__(self):
        # Pickled as the matrix alone (a forked worker sends its counts this
        # way), so unpickling runs the checks again and dense stays read-only.
        return (CooccurrenceCounts, (self.dense,))

    @property
    def n(self) -> int:
        return self.dense.shape[0]

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


def _draw_start(g: Graph, cfg: SamplerConfig, rng: np.random.Generator,
                pi: Optional[np.ndarray]) -> int:
    if cfg.start_mode == "fixed":
        if not (0 <= cfg.start_node < g.n):
            raise ValueError(f"start node {cfg.start_node} out of range 0..{g.n - 1}")
        return cfg.start_node
    if cfg.start_mode == "uniform":
        return int(rng.integers(g.n))
    return int(rng.choice(g.n, p=stationary_distribution(g) if pi is None else pi))


def generate_walk(g: Graph, cfg: SamplerConfig, pi: Optional[np.ndarray] = None) -> Walk:
    """Run one uniform random walk of burn_in + centers + window positions.

    Deterministic given cfg.seed. Requires a (strongly) connected graph so
    the walk can never get stuck. Step i takes the i-th uniform u of the
    seeded stream and moves from node v to its out-neighbour number
    floor(u deg(v)), in sorted order. The walk's dtype is
    np.min_scalar_type(n - 1): 1 byte a step up to 256 nodes, 2 up to
    65,536 and 4 up to 2**32.

    The walk runs _WALK_CHUNK steps at a time, and a long chunk in two
    passes over _SEGMENT-step segments. The guess pass reads float32 copies
    of the chunk's uniforms, drawn into one reused buffer, after which the
    generator is rewound to the chunk's start. It steps one walker per
    segment after the first, all in lockstep, each from the chunk's start
    node; a walker takes the last quarter of the previous segment's
    uniforms as a lead-in, then its own segment's, and writes its nodes
    over its own segment of the walk. The exact pass then draws the float64
    uniforms again and steps the walk itself from its true node, segment by
    segment; it ends a segment at the first position where it lands on the
    guess, since the same node and the same uniforms give the same path
    from there on, and skips the segment's remaining uniforms with
    PCG64.advance. A float32 copy can pick another out-neighbour than its
    original only if it is one of the few values _unsure_uniforms lists;
    the exact pass takes such a step itself and lands on the guess again
    before it keeps the rest. The walk is therefore the one that stepping
    every position in turn would give, whichever guesses met.
    If the exact pass walks more than half the steps of a chunk's first
    _MIN_GUESSED_SEGMENTS guessed segments, or of all of them, guesses
    rarely meet on this graph (on a directed cycle, one meets the walk only
    if its offset is a multiple of the cycle's length), and the rest of the
    walk is stepped without them. Walks shorter than _MIN_GUESSED_SEGMENTS
    segments are never guessed.

    A stationary start draws from `pi`, g's stationary_distribution, when
    the caller has solved it already, and otherwise solves it here.
    """
    require_connected(g)
    rng = np.random.default_rng(cfg.seed)
    start = _draw_start(g, cfg, rng, pi)

    length = cfg.burn_in + cfg.centers + cfg.window
    # Python lists keep the exact pass free of NumPy scalar indexing, and
    # successive rng.random draws are the same stream as one draw for
    # every step. Uniforms become lists a segment at a time: a whole chunk
    # as Python floats would take ~32 bytes per step.
    rule = (g.indptr.tolist(), g.indices.tolist(), g.degrees.tolist())
    walk = np.empty(length, dtype=np.min_scalar_type(g.n - 1))
    walk[0] = cur = start
    guessable = min(_WALK_CHUNK, length - 1) // _SEGMENT
    guessing = guessable >= _MIN_GUESSED_SEGMENTS
    if guessing:
        copy = np.empty(guessable * _SEGMENT, dtype=np.float32)
        unsure = _unsure_uniforms(g)
    for lo in range(1, length, _WALK_CHUNK):
        chunk = walk[lo:lo + _WALK_CHUNK]
        segments = len(chunk) // _SEGMENT
        guessed = segments if guessing and segments >= _MIN_GUESSED_SEGMENTS else 0
        if guessed:
            uniforms = copy[:guessed * _SEGMENT]
            cuts = _guess_uniforms(rng, uniforms, *unsure)
            _guess_segments(g, cur, uniforms, chunk)
        exact = 0  # steps walked exactly in the guessed segments
        for a in range(0, len(chunk), _SEGMENT):
            b = min(a + _SEGMENT, len(chunk))
            if 0 < a < guessed * _SEGMENT:
                # A guess that met the walk is kept up to its next unsure step
                # only; from there the walk must meet the guess again.
                bounds = [a, *cuts[bisect_left(cuts, a + 1):bisect_left(cuts, b)], b]
                for p, q in zip(bounds, bounds[1:]):
                    path = _step_to_guess(cur, rng, chunk[p:q], *rule)
                    chunk[p:p + len(path)] = path
                    exact += len(path)
                    cur = int(chunk[q - 1])
                if (a // _SEGMENT in (_MIN_GUESSED_SEGMENTS, guessed - 1)
                        and 2 * exact > b - _SEGMENT):
                    guessed = 0
                    guessing = False
            else:
                path = _step(cur, rng.random(b - a).tolist(), *rule)
                chunk[a:b] = path
                cur = path[-1]
    return Walk(nodes=walk, n=g.n, seed=cfg.seed)


def _unsure_uniforms(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The float32 uniforms from which a step of g may go to another
    out-neighbour than the float64 uniforms that round to them, sorted, and
    a table of the _UNSURE_BINS bins of [0, 1) that hold a float64 uniform
    rounding to any of them.

    Node v takes out-neighbour floor(u deg(v)), and the guess pass forms
    that product in float64, so a uniform and its float32 copy pick
    differently only if some k/deg(v) lies between them; a copy lies within
    half a float32 spacing of its original, and one spacing when clamped to
    _BELOW_ONE. Every float32 value within two spacings of some k/d, for an
    out-degree d of g and 1 <= k <= d, is held unsure, a margin that also
    covers rounding k/d itself: at most 5 values an arc of g. With
    out-degrees below 10, a few uniforms in a million are unsure."""
    edges = np.concatenate([np.arange(1, d + 1) / d for d in set(g.degrees.tolist())])
    # Positive float32 values in order have consecutive bit patterns.
    bits = edges.astype(np.float32).view(np.int32)
    unsure = np.sort((bits[:, None] + np.arange(-2, 3, dtype=np.int32)).view(np.float32).ravel())
    unsure = unsure[unsure < 1]
    table = np.zeros(_UNSURE_BINS, dtype=bool)
    for side in (-(2.0**-24), 2.0**-24):
        bins = ((unsure + side) * _UNSURE_BINS).astype(np.intp)
        table[bins.clip(0, _UNSURE_BINS - 1)] = True
    return unsure, table


def _guess_uniforms(rng: np.random.Generator, out: np.ndarray, unsure: np.ndarray,
                    table: np.ndarray) -> list:
    """Fill out, a float32 array, with the next len(out) uniforms of rng,
    each below 1, and rewind rng to where it was. Returns the positions of
    out, in order, whose value is one of the sorted `unsure` ones.

    The float64 uniforms are drawn _DRAW_PIECE at a time, and only those in
    a bin that `table` marks are looked at again. Rounding to float32 makes
    a uniform 1.0 only in the top bin, which holds _BELOW_ONE, an unsure
    value for every graph; there the copy is clamped to _BELOW_ONE."""
    state = rng.bit_generator.state
    drawn = np.empty(min(_DRAW_PIECE, len(out)))
    bins = np.empty(len(drawn), dtype=np.intp)
    cuts = []
    for lo in range(0, len(out), _DRAW_PIECE):
        piece = out[lo:lo + _DRAW_PIECE]
        uniforms = rng.random(out=drawn[:len(piece)])
        piece[...] = uniforms
        np.multiply(uniforms, _UNSURE_BINS, out=bins[:len(piece)], casting="unsafe")
        binned = np.flatnonzero(table[bins[:len(piece)]])
        near = piece[binned]
        near[near == 1] = _BELOW_ONE
        piece[binned] = near
        found = np.searchsorted(unsure, near).clip(max=len(unsure) - 1)
        cuts += (binned[unsure[found] == near] + lo).tolist()
    rng.bit_generator.state = state
    return cuts


def _step(cur: int, uniforms: list, indptr: list, indices: list, degrees: list) -> list:
    """The nodes after cur, one step per uniform. Kept apart from
    _step_to_guess so that unguessed steps pay for no comparison."""
    path = []
    for u in uniforms:
        cur = indices[indptr[cur] + int(u * degrees[cur])]
        path.append(cur)
    return path


def _step_to_guess(cur: int, rng: np.random.Generator, guesses: np.ndarray, indptr: list,
                   indices: list, degrees: list) -> list:
    """As _step, one uniform of rng a step, but the path ends at the first
    node equal to its guess. rng moves on by len(guesses) uniforms all the
    same: those the path does not walk with are skipped.

    Most paths meet their guess within a few steps, so uniforms are drawn
    and guesses converted to lists in pieces, the first _GUESS_PIECE long
    and each one after twice the one before."""
    path = []
    lo, size = 0, _GUESS_PIECE
    while lo < len(guesses):
        hi = min(lo + size, len(guesses))
        for u, guess in zip(rng.random(hi - lo).tolist(), guesses[lo:hi].tolist()):
            cur = indices[indptr[cur] + int(u * degrees[cur])]
            path.append(cur)
            if cur == guess:
                # default_rng is PCG64, and random() takes one 64-bit output a float.
                rng.bit_generator.advance(len(guesses) - hi)
                return path
        lo, size = hi, 2 * size
    return path


def _guess_segments(g: Graph, start: int, uniforms: np.ndarray, out: np.ndarray) -> None:
    """Write into out, for every _SEGMENT-step segment of uniforms but the
    first, the walk that starts at `start`, takes the last _SEGMENT // 4
    uniforms of the previous segment as a lead-in and then that segment's
    uniforms; only the segment's own nodes are written. The walkers step
    together, one NumPy gather per step, by the rule generate_walk's exact
    pass uses. Walks that share uniforms tend to merge, so the lead-in lets
    most guesses meet the walk before their segment begins. The uniforms
    may be float32, below 1: they are widened to float64 as they are read,
    so a step's product with its degree is exact and below the degree, and
    every step is an arc.

    A step's uniforms are a column of the segments, so they are read
    through transposed copies of _LOCKSTEP_PIECE steps, and the nodes are
    written into one such piece that is then transposed into out: each step
    reads and writes contiguous memory."""
    rows = uniforms.reshape(-1, _SEGMENT)
    guesses = out[_SEGMENT:len(uniforms)].reshape(-1, _SEGMENT)
    cur = np.full(len(guesses), start, dtype=np.int64)
    starts, indices, degrees = g.indptr[:-1], g.indices, g.degrees.astype(float)
    piece = np.empty((_LOCKSTEP_PIECE, len(guesses)), dtype=out.dtype)

    def step(cur, us):
        return indices[starts[cur] + (us * degrees[cur]).astype(np.int64)]

    for lo in range(_SEGMENT - _SEGMENT // 4, _SEGMENT, _LOCKSTEP_PIECE):
        for us in rows[:-1, lo:lo + _LOCKSTEP_PIECE].T.astype(float, order="C"):
            cur = step(cur, us)
    for lo in range(0, _SEGMENT, _LOCKSTEP_PIECE):
        width = min(_LOCKSTEP_PIECE, _SEGMENT - lo)
        for k, us in enumerate(rows[1:, lo:lo + width].T.astype(float, order="C")):
            cur = piece[k] = step(cur, us)
        guesses[:, lo:lo + width] = piece[:width].T


def extract_pairs(walk: Walk, window: int, directed: bool, burn_in: int,
                  centers: int) -> CooccurrenceCounts:
    """Windowed pair extraction over the center range.

    Center position i (burn_in <= i < burn_in + centers) emits (w[i], w[i+o])
    for offsets o = 1..window; undirected emission also records the mirrored
    pair, so the count map is exactly symmetric and the total is
    2 * window * centers (window * centers when directed).

    Centers are taken max(_PAIR_BLOCK, n*n) at a time, and one int64 buffer
    holds a block's pair codes v*n + c for one offset at a time: each offset
    adds its contexts to the centers' v*n, counts the codes and takes the
    contexts off again. So the codes take ~8 bytes per block center rather
    than per walk step, and no more than the n*n counts themselves. A block
    is never smaller than n*n because every bincount call also returns n*n
    counts to add. The codes are int64 whatever the walk's dtype: a uint16
    walk times n would wrap once v*n reaches 2**16, and an int32 one once
    n*n > 2**31 under NumPy 1.x.
    """
    needed = burn_in + centers + window
    if len(walk) < needed:
        raise ValueError(f"walk has {len(walk)} positions, need at least {needed}")
    n = walk.n
    nodes = walk.nodes
    forward = np.zeros(n * n, dtype=np.int64)
    end = burn_in + centers
    block = max(_PAIR_BLOCK, n * n)
    codes = np.empty(min(block, centers), dtype=np.int64)
    for lo in range(burn_in, end, block):
        codes = codes[:end - lo]
        hi = lo + len(codes)
        codes[...] = nodes[lo:hi]
        codes *= n
        for offset in range(1, window + 1):
            contexts = nodes[lo + offset:hi + offset]
            codes += contexts
            forward += np.bincount(codes, minlength=n * n)
            codes -= contexts
    mat = forward.reshape(n, n)
    del codes, forward  # mat alone holds the forward counts, so mat + mat.T frees them
    if not directed:
        mat = mat + mat.T
    return CooccurrenceCounts(mat)


def _worker_seed(seed: int, worker: int) -> int:
    # Mixes (seed, worker index) into an independent 64-bit stream seed.
    return int(np.random.SeedSequence(entropy=seed, spawn_key=(worker,)).generate_state(1, np.uint64)[0])


def _count_walk(g: Graph, cfg: SamplerConfig, pi: Optional[np.ndarray]) -> CooccurrenceCounts:
    return extract_pairs(generate_walk(g, cfg, pi), cfg.window, g.directed, cfg.burn_in,
                         cfg.centers)


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
    walk, the counts being made from it and the total. A stationary start
    solves pi once, here, for every worker.
    """
    pi = stationary_distribution(g) if cfg.start_mode == "stationary" else None
    if cfg.workers == 1:
        return _count_walk(g, cfg, pi)

    base, extra = divmod(cfg.centers, cfg.workers)
    # Workers beyond the first `centers` would get no centers, so they do not run.
    jobs = [partial(_count_walk, g, replace(cfg, centers=base + (w < extra),
                                            seed=_worker_seed(cfg.seed, w), workers=1), pi)
            for w in range(min(cfg.workers, cfg.centers))]
    return merge_counts(run_jobs(jobs))


def empirical_conditional(counts: CooccurrenceCounts) -> np.ndarray:
    """Row-normalized pair counts: entry (i, j) = #(i,j)/#(i).

    Rows of nodes that never occurred are NaN (flagged absent rather than
    fabricated); observed rows sum to 1 exactly.
    """
    out = np.full((counts.n, counts.n), np.nan)
    observed = counts.node_counts > 0
    np.divide(counts.dense, counts.node_counts[:, None], out=out, where=observed[:, None])
    return out


def empirical_frequency(counts: CooccurrenceCounts) -> np.ndarray:
    """Node occurrence frequencies #(v)/|D|; sums to 1."""
    if counts.total == 0:
        raise ValueError("counts are empty")
    return counts.node_counts / counts.total


def write_counts_csv(counts: CooccurrenceCounts, path) -> None:
    """Nonzero counts as 'v,c,count' rows, ordered by (v, c), with the rows
    formatted on all cores (parallel.write_rows). Lines end in CRLF, as
    csv.writer ends them.

    Rows come sorted by center, so a slice's template repeats each center's
    text, already formatted, over its run of rows, and only the context and
    the count are formatted per row."""
    v, c = np.nonzero(counts.dense)  # row-major, so already in (v, c) order
    cnt = counts.dense[v, c]

    def format_rows(lo: int, hi: int) -> bytes:
        centers = v[lo:hi]
        starts = np.flatnonzero(centers[1:] != centers[:-1]) + 1
        bounds = [0, *starts.tolist(), hi - lo]
        template = "".join(("%d,%%d,%%d\r\n" % center) * (b - a) for center, a, b in
                           zip(centers[bounds[:-1]].tolist(), bounds[:-1], bounds[1:]))
        return (template % tuple(np.column_stack((c[lo:hi], cnt[lo:hi])).ravel().tolist())).encode()

    write_rows(path, len(v), format_rows, 3, "v,c,count\r\n")


def write_counts_sidecar(counts: CooccurrenceCounts, path, config: Optional[SamplerConfig] = None) -> None:
    payload = {
        "n": counts.n,
        "total": counts.total,
        "node_counts": counts.node_counts.tolist(),
        "context_counts": counts.context_counts.tolist(),
        "sampler_config": asdict(config) if config is not None else None,
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
    not lists of n integers or a malformed `sampler_config`, marginals that
    disagree with the rows, and rows totalling more than 2**62 pairs. Rows
    may end in \r\n or \n; a header-only file holds all-zero counts.
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
    codes = v * n + c
    codes.sort()
    if np.any(codes[1:] == codes[:-1]):
        raise ValueError(f"{path}: repeated (v, c) row")
    mat = np.zeros((n, n), dtype=np.int64)
    mat[v, c] = cnt
    try:
        counts = CooccurrenceCounts(mat)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    for key in ("total", "node_counts", "context_counts"):
        if not np.array_equal(getattr(counts, key), meta[key]):
            raise ValueError(f"{path}: counts file {key} disagrees with sidecar {sidecar_path}")

    cfg = meta.get("sampler_config")
    if not cfg:
        return counts, None
    try:
        return counts, SamplerConfig(**cfg)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{sidecar_path}: bad sampler_config: {exc}") from None
