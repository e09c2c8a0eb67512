"""Stochastic and analytic verification of transport solutions.

Path simulations run against solved stopping rules as a random walk
that reproduces the engine's law exactly, empirical measures carry the
statistical distances, and the Hermite expansion check provides an
independent necessary condition on the assembled counter-example.

Randomness comes from a counter-based generator (Philox) keyed by the
seed.  Start positions, drawn from a lattice measure, take one row of
num_paths variates, and every walk step takes two more rows, survival
uniforms and then coins, with word i of a row belonging to path i.  So
path i's trajectory is a pure function of (seed, num_paths, i)
regardless of scheduling; the row width makes num_paths part of the
key.  The walk
reads raw 64-bit words: the uniform of word w is (w >> 11) * 2^-53,
exactly ``Generator.random``'s double, and the coin ``random() < 0.5``
is the top bit of w being clear.  A step at which no cell freezes needs
no survival uniform, so its row is skipped by advancing the counter
instead of drawing it; the stream stays where drawing would leave it.

Since no path reads another path's words, the walk runs in chunks of
WALK_CHUNK paths.  Chunk [lo, hi) owns a generator keyed by the seed,
reads words lo..hi-1 of each row and skips the rest, so it sees the
words the whole population would.  The chunks run in a thread pool with
one worker per available CPU (drawing words and the integer array
operations release the GIL) and give the same sample in any order.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtr

from .errors import NonTerminationError, NumericToleranceError, PreconditionError
from .lattice import LatticeMeasure
from .solver import TransportSolution

_SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Sorted Monte-Carlo samples with CDF evaluation."""

    samples: np.ndarray
    seed: int

    def __post_init__(self):
        s = np.sort(np.asarray(self.samples, dtype=float))
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def count(self):
        return self.samples.size

    def cdf(self, x):
        out = np.searchsorted(self.samples, np.asarray(x), side="right") / (
            self.count
        )
        return float(out) if np.ndim(x) == 0 else out


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


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


@dataclass(frozen=True)
class FirstIntersectionResult:
    """Stopped positions and times of simulated paths."""

    empirical: EmpiricalMeasure
    positions: np.ndarray  # path order
    times: np.ndarray  # path order
    exceeded: int
    seed: int


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


def _start_cells(start, num_paths, rng, n):
    """Lattice indices k of num_paths starts k / n drawn from a
    LatticeMeasure; a measure with mass off (1/n)Z is refused."""
    if not isinstance(start, LatticeMeasure):
        raise PreconditionError(
            f"walks start from a LatticeMeasure, not from a "
            f"{type(start).__name__}"
        )
    k = start.positions[start.masses > 0] * n
    off = float(np.max(np.abs(k - np.rint(k)), initial=0.0)) / n
    if off > 1e-9:
        raise PreconditionError(
            f"start measure on mesh {start.mesh_n} off the mesh-{n} lattice "
            f"(1/{n})Z of the solution by up to {off:.3g}; walk mode needs "
            f"starts on that lattice"
        )
    cum = np.cumsum(start.masses)
    cum = cum / cum[-1]
    cells = np.searchsorted(cum, rng.random(num_paths), side="right")
    return np.rint((start.offset + cells) / start.mesh_n * n).astype(np.int64)


WALK_CHUNK = 1 << 16  # paths per walk chunk: its rows stay in cache


def _cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _walk_chunk(lo, hi, pos, T, g, q, freeze_steps, max_steps, seed):
    """Walk paths lo..hi-1 until they stop; return the ids still running.

    The chunk's generator starts past the start row at word lo, draws the
    chunk's hi - lo words of every row and skips the other words of the
    row.  Only the slices [lo, hi) of the start cells ``pos`` and of the
    stop steps ``T`` are written: ``pos`` ends at the stop cells.
    """
    num = pos.size
    m = hi - lo
    bits = np.random.Philox(key=np.uint64(seed))
    _skip_raw(bits, num + lo)
    pos, T = pos[lo:hi], T[lo:hi]
    # running paths: ids in the chunk and positions
    ids = np.arange(m)
    p = pos.copy()
    for t in range(max_steps + 1):
        if ids.size == 0:
            break
        # paths on cells frozen before t stop; those on cells frozen at t
        # stop with probability 1 - q and are the only survival-row readers
        cand = np.flatnonzero((g <= t)[p])
        pc = p[cand]
        stop = g[pc] < t
        if t in freeze_steps:
            due = np.flatnonzero(~stop)
            row = bits.random_raw(m)
            u = (row[ids[cand[due]]] >> 11) * 2.0**-53
            stop[due] = u >= q[pc[due]]
            _skip_raw(bits, num - m)
        else:
            _skip_raw(bits, num)
        out = cand[stop]
        if out.size:
            T[ids[out]] = t
            pos[ids[out]] = p[out]
            keep = np.ones(ids.size, dtype=bool)
            keep[out] = False
            ids = ids[keep]
            p = p[keep]
        step = bits.random_raw(m).view(np.int64)
        _skip_raw(bits, num - m)
        if ids.size < m:  # else every path runs, in row order
            step = step[ids]
        step >>= 63  # 0 where random() < 0.5 (a step up), else -1
        step |= 1
        p += step
    pos[ids] = p
    return ids + lo


def simulate_first_intersection(start, stopping, cfg: PathSimConfig):
    """Sample (X_T, T) for random-walk paths stopped by a transport rule.

    ``stopping`` is a TransportSolution; anything else is refused.  Paths
    walk the solution's lattice (1/n)Z and stop by its discrete rule, with
    survival probabilities at freshly frozen cells.  The start is a
    LatticeMeasure whose mass lies on that lattice.  Each step t takes one
    row of num_paths raw words for the survival uniforms, skipped without
    drawing when no cell freezes at t, and one row for the +-1 coins; only
    paths still running are moved.  The paths are walked in chunks of
    WALK_CHUNK (``_walk_chunk``), on a pool of one thread per available
    CPU, inline when there is one chunk or one CPU; the sample does not
    depend on either.  Paths still running at max_time are counted; more
    than 0.1 percent of them fails the run.
    """
    if not isinstance(stopping, TransportSolution):
        raise PreconditionError(
            f"paths are stopped by a TransportSolution, not by a "
            f"{type(stopping).__name__}"
        )
    n = stopping.mesh_n
    num = cfg.num_paths
    pos = _start_cells(start, num, _rng(cfg.seed), n)
    pos -= stopping.offset
    g = stopping.freeze_step
    if np.any(pos < 0) or np.any(pos >= g.size):
        raise PreconditionError("start mass outside the solved window")
    T = np.zeros(num, dtype=np.int64)
    walk = partial(
        _walk_chunk, pos=pos, T=T, g=g, q=stopping.survival,
        freeze_steps=set(g.tolist()),
        max_steps=int(math.ceil(cfg.max_time * n * n)), seed=cfg.seed,
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
    alive = np.zeros(num, dtype=bool)
    alive[running] = True
    pos += stopping.offset
    x = pos / n
    times = T / float(n * n)
    return FirstIntersectionResult(
        empirical=EmpiricalMeasure(x[~alive] if exceeded else x, cfg.seed),
        positions=x,
        times=times,
        exceeded=exceeded,
        seed=cfg.seed,
    )


@dataclass(frozen=True)
class CounterexampleSample:
    """Samples of Z = X + phi(X) * Y with the matching Gaussian target."""

    empirical: EmpiricalMeasure
    variance: float  # variance of the target Gaussian
    seed: int

    def target_cdf(self, z):
        return ndtr(np.asarray(z) / math.sqrt(self.variance))


def simulate_counterexample(result, cfg: PathSimConfig):
    """Draw Z = X + phi(X) * Y for independent standard Gaussians X, Y.

    ``result`` provides the function phi and the horizon C; the matching
    claim is Z ~ N(0, C).
    """
    rng = _rng(cfg.seed)
    X = rng.standard_normal(cfg.num_paths)
    Y = rng.standard_normal(cfg.num_paths)
    Z = X + np.asarray(result.phi(X)) * Y
    return CounterexampleSample(
        empirical=EmpiricalMeasure(Z, cfg.seed),
        variance=float(result.C),
        seed=cfg.seed,
    )


# ---------------------------------------------------------------------------
# Statistical distances


def ks_distance(e: EmpiricalMeasure, cdf):
    """One-sample Kolmogorov-Smirnov statistic against an evaluable CDF."""
    if e.count < 1:
        raise PreconditionError("empty sample")
    m = e.count
    F = np.asarray(cdf(e.samples), dtype=float)
    hi = np.arange(1, m + 1) / m
    lo = np.arange(0, m) / m
    return float(np.maximum(np.abs(hi - F), np.abs(lo - F)).max())


DKW_ALPHA = 0.05


def dkw_epsilon(count):
    """Sampling error of a KS statistic from ``count`` draws.

    By the Dvoretzky-Kiefer-Wolfowitz inequality the empirical CDF stays
    within sqrt(ln(2 / alpha) / (2 count)) of the true CDF with
    probability at least 1 - alpha, here alpha = DKW_ALPHA.
    """
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * count))


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


def hermite_check(phi, max_n=40, quad_tol=1e-9, breakpoints=(), window=8.5,
                  nodes_per_piece=12):
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

    Quadrature is piecewise Gauss-Legendre on the breakpoints refined to a
    maximum piece width; the node count is doubled once and the change in
    every coefficient of phi and g, and in E g^2, must stay below quad_tol.
    """
    if max_n < 8:
        raise PreconditionError("max_n must be at least 8")
    cuts = sorted({-window, window, *(float(b) for b in breakpoints
                                      if -window < b < window)})
    edges = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        k = max(int(math.ceil((b - a) / 0.25)), 1)
        edges.append(np.linspace(a, b, k + 1)[:-1])
    edges.append(np.array([window]))
    edges = np.concatenate(edges)

    def project(n_nodes):
        gl_x, gl_w = np.polynomial.legendre.leggauss(n_nodes)
        a, b = edges[:-1], edges[1:]
        mid = 0.5 * (a + b)[:, None]
        half = 0.5 * (b - a)[:, None]
        xs = (mid + half * gl_x[None, :]).ravel()
        ws = (half * gl_w[None, :]).ravel() * _gauss_weight(xs)
        vals = np.asarray(phi(xs), dtype=float)
        g = vals * vals
        H = _normalized_hermite(xs, max_n)
        return H @ (vals * ws), H @ (g * ws), float((g * g) @ ws), g

    coarse = project(nodes_per_piece)
    coeffs, b, g2, g = project(nodes_per_piece * 2)
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
