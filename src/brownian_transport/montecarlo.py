"""Stochastic and analytic verification of transport solutions.

Path simulations run against solved stopping rules as a random walk
that reproduces the engine's law exactly, empirical measures carry the
statistical distances, and the Hermite expansion check provides an
independent necessary condition on the assembled counter-example.
Gaussian-weighted integrals all take their nodes from one piecewise
Gauss-Legendre rule, ``gauss_legendre``.

Randomness comes from a counter-based generator (Philox) keyed by the
seed.  Start positions, drawn from a lattice measure, take one row of
num_paths variates; every walk step t takes a row of survival uniforms,
and when t mod 64 = 0 a row of coins after it, with word i of a row
belonging to path i.  So path i's trajectory is a pure function of
(seed, num_paths, i) regardless of scheduling; the row width makes
num_paths part of the key.  The walk reads raw 64-bit words: the uniform
of word w is (w >> 11) * 2^-53, exactly ``Generator.random``'s double.
Each bit of a Philox word is an independent fair coin, so one coin word
serves 64 steps: path i's coin at step t is bit 63 - (t mod 64) of its
word in the coin row of step 64 * floor(t / 64), the sign bit of that
word shifted left by t mod 64, and a clear bit is a step up.  A step at
which no cell freezes needs no survival uniform, so its row is skipped
by advancing the counter instead of drawing it; the stream stays where
drawing would leave it.

Since no path reads another path's words, the walk runs in chunks of
WALK_CHUNK paths.  Chunk [lo, hi) owns a generator keyed by the seed,
reads words lo..hi-1 of each row, the start row included, and skips the
rest, so it sees the words the whole population would.  It writes the
stop positions and times of its paths into its own slices of the
outputs, and a stopped path stays in its place, parked off the window
where no cell stops it, so no step compacts or gathers the paths.  The
chunks run in a thread pool with one worker per available CPU (drawing
words and the integer array operations release the GIL) and give the
same sample in any order.

Every other population-sized loop runs in the same chunks, so only the
draws and the outputs outgrow a chunk.  The counter-example draws X
whole, then Y chunk by chunk from the same generator, which fills
sequentially, and turns X into Z = X + phi(X) * Y in place; the KS
statistic evaluates the CDF and compares it with the empirical steps
chunk by chunk, keeping the running maximum.  phi and the CDF are
evaluated pointwise on chunks, so they must be elementwise functions;
the sample and the statistic are then those of one pass, bit for bit.
"""

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import measures
from .errors import NonTerminationError, NumericToleranceError, PreconditionError
from .lattice import LatticeMeasure
from .solver import TransportSolution

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Sorted Monte-Carlo samples, read by the KS statistics."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.sort(np.asarray(self.samples, dtype=float))
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def count(self):
        return self.samples.size


@dataclass(frozen=True)
class PathSimConfig:
    num_paths: int = 100_000
    max_time: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.num_paths < 1:
            raise PreconditionError("num_paths must be >= 1")
        if self.max_time <= 0.0:
            raise PreconditionError("max_time must be positive")
        check_seed(self.seed)


def check_seed(seed):
    """The seed as an int; a Philox key is one 64-bit word, so a seed
    outside [0, 2^64) is refused."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise PreconditionError(f"seed must lie in [0, 2^64), got {seed}")
    return seed


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class FirstIntersectionResult:
    """Stopped positions and times of simulated paths."""

    empirical: EmpiricalMeasure
    positions: np.ndarray  # path order
    times: np.ndarray  # path order
    exceeded: int


def _skip_raw(bit_generator, k):
    """Move a Philox stream past k raw words, as drawing them would.

    ``Philox.advance`` counts blocks of four words and discards what is
    left of the current block, so that rest is drawn first, then whole
    blocks are advanced over and the last k mod 4 words drawn.
    """
    head = min((4 - bit_generator.state["buffer_pos"]) % 4, k)
    bit_generator.random_raw(head)
    blocks, tail = divmod(k - head, 4)
    if blocks:
        bit_generator.advance(blocks)
    bit_generator.random_raw(tail)


WALK_CHUNK = 1 << 16  # paths or draws per chunk: rows stay in cache
_PARKED = -(1 << 62)  # a stopped path's cell: far left of the window


def ThreadPoolExecutor(max_workers):
    """``concurrent.futures.ThreadPoolExecutor``, for the walk's chunks.

    Only a walk on more than one CPU starts a pool, so the module, which
    loads ``logging``, is imported on the first call only; that call
    rebinds this name to the class, as `measures.ndtr` does.
    """
    global ThreadPoolExecutor
    from concurrent.futures import ThreadPoolExecutor
    return ThreadPoolExecutor(max_workers)


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _walk_chunk(lo, hi, num, cum, cells, g, q, freeze_steps, max_steps,
                seed, n, offset, x, times):
    """Walk paths lo..hi-1 until they stop; return the ids still running.

    The chunk's generator draws words lo..hi-1 of the start row, whose
    uniforms pick start cells in the cumulative masses ``cum`` and map
    through ``cells`` to cells of the window ``g``, then draws the
    chunk's hi - lo words of every row and skips the other words of the
    row.  ``g`` and ``q`` carry a never-firing cell at each end; a
    stopped path is parked off the window, where ``np.take`` clips it to
    such a cell, so paths keep their places.  Only the slices [lo, hi) of
    the stop positions ``x`` = (cell + offset) / n and of the stop times
    ``times`` are written.
    """
    m = hi - lo
    bits = np.random.Philox(key=np.uint64(seed))
    _skip_raw(bits, lo)
    p = cells[np.searchsorted(cum, (bits.random_raw(m) >> 11) * 2.0**-53,
                              side="right")]
    _skip_raw(bits, num - m)
    x, times = x[lo:hi], times[lo:hi]
    step = np.empty(m, np.int64)
    running = m
    for t in range(max_steps + 1):
        if not running:
            break
        # paths on cells frozen before t stop; those on cells frozen at t
        # stop with probability 1 - q and are the only survival-row readers
        cand = np.flatnonzero(np.take(g <= t, p, mode="clip"))
        pc = p[cand]
        stop = g[pc] < t
        if t in freeze_steps:
            due = np.flatnonzero(~stop)
            row = bits.random_raw(m)
            u = (row[cand[due]] >> 11) * 2.0**-53
            stop[due] = u >= q[pc[due]]
            _skip_raw(bits, num - m)
        else:
            _skip_raw(bits, num)
        out = cand[stop]
        if out.size:
            times[out] = t / float(n * n)
            x[out] = (p[out] + offset) / n
            p[out] = _PARKED
            running -= out.size
        if not t % 64:
            coins = bits.random_raw(m)
            _skip_raw(bits, num - m)
        # coins holds the coin words shifted left by t mod 64: their sign
        # bit gives 0 (a step up) where it is clear, else -1
        np.right_shift(coins.view(np.int64), 63, out=step)
        step |= 1
        p += step
        coins <<= 1
    live = np.flatnonzero(p >= 0)
    x[live] = (p[live] + offset) / n
    return live + lo


def simulate_first_intersection(start, stopping, cfg: PathSimConfig):
    """Sample (X_T, T) for random-walk paths stopped by a transport rule.

    ``stopping`` is a TransportSolution; anything else is refused.  Paths
    walk the solution's lattice (1/n)Z and stop by its discrete rule, with
    survival probabilities at freshly frozen cells.  The start is a
    LatticeMeasure whose mass lies on that lattice and inside the solved
    window; both are checked on the cells of positive mass before any
    word is drawn.  Start cells take one row of num_paths raw words, and
    each step t one row for the survival uniforms, skipped without
    drawing when no cell freezes at t, followed when t mod 64 = 0 by one
    row of +-1 coins: bit 63 - (t mod 64) of a path's word in it is its
    coin at step t, a clear bit a step up.
    The paths are walked in chunks of WALK_CHUNK (``_walk_chunk``), on a
    pool of one thread per available CPU, inline when there is one chunk
    or one CPU; the sample does not depend on either.  Paths still
    running at max_time are counted; more than 0.1 percent of them fails
    the run.
    """
    if not isinstance(stopping, TransportSolution):
        raise PreconditionError(
            f"paths are stopped by a TransportSolution, not by a "
            f"{type(stopping).__name__}"
        )
    if not isinstance(start, LatticeMeasure):
        raise PreconditionError(
            f"walks start from a LatticeMeasure, not from a "
            f"{type(start).__name__}"
        )
    n = stopping.mesh_n
    num = cfg.num_paths
    k = start.positions[start.masses > 0] * n
    off = float(np.max(np.abs(k - np.rint(k)), initial=0.0)) / n
    if off > 1e-9:
        raise PreconditionError(
            f"start measure on mesh {start.mesh_n} off the mesh-{n} lattice "
            f"(1/{n})Z of the solution by up to {off:.3g}; walk mode needs "
            f"starts on that lattice"
        )
    g = stopping.freeze_step
    # start cells on the window, padded by one cell a side
    cells = np.rint(start.cells / start.mesh_n * n).astype(np.int64)
    cells -= stopping.offset - 1
    if np.any(((cells < 1) | (cells > g.size)) & (start.masses > 0)):
        raise PreconditionError("start mass outside the solved window")
    cum = np.cumsum(start.masses)
    max_steps = int(math.ceil(cfg.max_time * n * n))
    x = np.empty(num)
    times = np.zeros(num)
    walk = partial(
        _walk_chunk, num=num, cum=cum / cum[-1], cells=cells,
        g=np.pad(g, 1, constant_values=max_steps + 1),
        q=np.pad(stopping.survival, 1), freeze_steps=set(g.tolist()),
        max_steps=max_steps, seed=cfg.seed, n=n,
        offset=stopping.offset - 1, x=x, times=times,
    )
    los = range(0, num, WALK_CHUNK)
    his = [min(lo + WALK_CHUNK, num) for lo in los]
    workers = min(_cpus(), len(los))
    if workers == 1:
        running = list(map(walk, los, his))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            running = list(pool.map(walk, los, his))
    running = np.concatenate(running)
    exceeded = running.size
    if exceeded > 0.001 * num:
        raise NonTerminationError(
            f"{exceeded} of {num} paths exceeded max_time"
        )
    return FirstIntersectionResult(
        empirical=EmpiricalMeasure(np.delete(x, running) if exceeded else x),
        positions=x,
        times=times,
        exceeded=exceeded,
    )


@dataclass(frozen=True)
class CounterexampleSample:
    """Samples of Z = X + phi(X) * Y with the matching Gaussian target."""

    empirical: EmpiricalMeasure
    variance: float  # variance of the target Gaussian

    def target_cdf(self, z):
        return measures.ndtr(np.asarray(z) / math.sqrt(self.variance))


def simulate_counterexample(result, cfg: PathSimConfig):
    """Draw Z = X + phi(X) * Y for independent standard Gaussians X, Y.

    ``result`` provides the function phi and the horizon C; the matching
    claim is Z ~ N(0, C).
    """
    rng = _rng(cfg.seed)
    Z = rng.standard_normal(cfg.num_paths)  # X, turned into Z in place
    for lo in range(0, Z.size, WALK_CHUNK):
        X = Z[lo:lo + WALK_CHUNK]
        X += np.asarray(result.phi(X)) * rng.standard_normal(X.size)
    return CounterexampleSample(
        empirical=EmpiricalMeasure(Z),
        variance=float(result.C),
    )


# ---------------------------------------------------------------------------
# Statistical distances


def ks_distance(e: EmpiricalMeasure, cdf):
    """One-sample Kolmogorov-Smirnov statistic against an evaluable CDF."""
    if e.count < 1:
        raise PreconditionError("empty sample")
    m = e.count
    d = 0.0
    for a in range(0, m, WALK_CHUNK):
        b = min(a + WALK_CHUNK, m)
        F = np.asarray(cdf(e.samples[a:b]), dtype=float)
        d = np.maximum(d, np.maximum(np.abs(np.arange(a + 1, b + 1) / m - F),
                                     np.abs(np.arange(a, b) / m - F)).max())
    return float(d)


def ks_distance_lattice(e: EmpiricalMeasure, m: LatticeMeasure):
    """KS statistic against an atomic lattice law, exact at the jumps.

    Both CDFs are flat between cells, so the sup runs over cell values and
    their left limits.
    """
    pos = m.positions
    cum = np.cumsum(m.masses) / m.total_mass
    cum_left = np.concatenate([[0.0], cum[:-1]])
    emp_right = np.searchsorted(e.samples, pos, side="right") / e.count
    emp_left = np.searchsorted(e.samples, pos, side="left") / e.count
    return float(
        np.maximum(np.abs(emp_right - cum), np.abs(emp_left - cum_left)).max()
    )


# ---------------------------------------------------------------------------
# Hermite expansion check


@dataclass(frozen=True)
class HermiteReport:
    """Hermite projections of phi and of g = phi^2, and the conditions on g.

    ``coeffs[n]`` is the coefficient of phi against He_n / sqrt(n!), so
    the classical coefficients are coeffs[n] * sqrt(n!).  The conditions
    are stated on the coefficients b_n of g = phi^2 = C - f:
    ``phi1_abs`` is |b_1|, ``identity_residual`` is
    |2 sqrt(2) b_2 + sum_{n>=2} b_n^2| with the sum closed by Parseval,
    ``sup_excess`` is sup g - (b_0 + 1), and ``tail_estimate`` is the part
    of E g^2 that the coefficients up to max_n leave out.
    """

    coeffs: np.ndarray
    phi1_abs: float
    identity_residual: float
    tail_estimate: float
    sup_excess: float


def _normalized_hermite(x, max_n):
    H = np.empty((max_n + 1,) + x.shape)
    H[0] = 1.0
    if max_n >= 1:
        H[1] = x
    for n in range(1, max_n):
        H[n + 1] = (x * H[n] - math.sqrt(n) * H[n - 1]) / math.sqrt(n + 1)
    return H


def _gauss_weight(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


QUAD_WINDOW = 8.5  # Gaussian-weighted integrals run over [-8.5, 8.5]


def gauss_legendre(breakpoints, piece_width, nodes):
    """Piecewise Gauss-Legendre rule on [-QUAD_WINDOW, QUAD_WINDOW].

    The breakpoints inside the window cut it into parts, each part is
    split into equal pieces at most ``piece_width`` wide, and every piece
    gets ``nodes`` nodes.  Returns the nodes and their weights, with no
    weight function applied.
    """
    bps = np.asarray(breakpoints, dtype=float)
    cuts = np.unique(np.concatenate(
        [[-QUAD_WINDOW, QUAD_WINDOW],
         bps[(bps > -QUAD_WINDOW) & (bps < QUAD_WINDOW)]]
    ))
    edges = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        k = max(int(math.ceil((b - a) / piece_width)), 1)
        edges.append(np.linspace(a, b, k + 1)[:-1])
    edges = np.concatenate(edges + [[QUAD_WINDOW]])
    gl_x, gl_w = np.polynomial.legendre.leggauss(nodes)
    a, b = edges[:-1, None], edges[1:, None]
    half = 0.5 * (b - a)
    return (0.5 * (a + b) + half * gl_x).ravel(), (half * gl_w).ravel()


def hermite_check(phi, max_n=40, quad_tol=1e-9, breakpoints=()):
    """Expand phi and g = phi^2 in the Gaussian-weighted Hermite basis and
    test necessary conditions for X + phi(X) * Y to be N(0, C).

    With f = C - g, the claim reads E[exp(iuX + u^2 f(X) / 2)] = 1 for all
    u.  The u^2 term gives E f = 1, the u^3 term E[X f] = 0, that is
    b_1 = 0, and the u^4 term 1 - 2 E[X^2 f] + E f^2 = 0.  In the
    coefficients b_n of g the last one is
    (1 - E f)^2 + 2 sqrt(2) b_2 + sum_{n>=1} b_n^2 = 0; the residual drops
    the first term, which needs C, and b_1^2, which the u^3 condition
    tests.  The tail sum is closed by Parseval, E g^2 - b_0^2 - b_1^2, on
    the same quadrature, so the residual does not depend on max_n.  And
    f >= 0 with E f = 1 reads g <= b_0 + 1.

    Quadrature is the piecewise Gauss-Legendre rule ``gauss_legendre`` on
    the breakpoints with pieces at most 0.25 wide and 12 nodes a piece;
    the node count is doubled once and the change in every coefficient of
    phi and g, and in E g^2, must stay below quad_tol.
    """
    if max_n < 8:
        raise PreconditionError("max_n must be at least 8")

    def project(n_nodes):
        xs, ws = gauss_legendre(breakpoints, 0.25, n_nodes)
        ws = ws * _gauss_weight(xs)
        vals = np.asarray(phi(xs), dtype=float)
        g = vals * vals
        H = _normalized_hermite(xs, max_n)
        return H @ (vals * ws), H @ (g * ws), float((g * g) @ ws), g

    coarse = project(12)
    coeffs, b, g2, g = project(24)
    drift = max(float(np.abs(coeffs - coarse[0]).max()),
                float(np.abs(b - coarse[1]).max()), abs(g2 - coarse[2]))
    if drift > quad_tol:
        raise NumericToleranceError(
            f"Hermite quadrature unstable: refinement moved coefficients "
            f"by {drift:.3e}"
        )

    tail_sum = g2 - b[0] ** 2 - b[1] ** 2
    residual = abs(2.0 * math.sqrt(2.0) * b[2] + tail_sum)
    return HermiteReport(
        coeffs=coeffs,
        phi1_abs=float(abs(b[1])),
        identity_residual=float(residual),
        tail_estimate=float(g2 - np.sum(b ** 2)),
        sup_excess=float(np.max(g - (b[0] + 1.0))),
    )


# ---------------------------------------------------------------------------
# Expected-time identity


@dataclass(frozen=True)
class ExpectedTimeReport:
    expected_time: float
    variance_gap: float
    residual: float
    passed: bool


def expected_time_check(sol: TransportSolution, mu0n: LatticeMeasure,
                        mu1n: LatticeMeasure, tol=1e-8):
    """Martingale identity: E T equals the variance gap of the measures."""
    gap = mu1n.variance() - mu0n.variance()
    residual = abs(sol.expected_time - gap)
    return ExpectedTimeReport(
        expected_time=sol.expected_time,
        variance_gap=gap,
        residual=float(residual),
        passed=bool(residual <= tol),
    )
