"""Stochastic and analytic verification of transport solutions.

Path simulations run against solved stopping rules (random walk mode
reproduces the engine's law exactly; Euler mode first-crosses the graph
of a continuous stopping function), empirical measures carry the
statistical distances, and the Hermite expansion check provides an
independent necessary condition on the assembled counter-example.

Randomness comes from a counter-based generator (Philox) keyed by the
seed.  Start positions take one row of num_paths variates when they are
sampled, and every walk step takes two more rows, survival uniforms and
then coins, with word i of a row belonging to path i.  So path i's
trajectory is a pure function of (seed, num_paths, i) regardless of
scheduling; the row width makes num_paths part of the key.  The walk
reads raw 64-bit words: the uniform of word w is (w >> 11) * 2^-53,
exactly ``Generator.random``'s double, and the coin ``random() < 0.5``
is the top bit of w being clear.  A step at which no cell freezes needs
no survival uniform, so its row is skipped by advancing the counter
instead of drawing it; the stream stays where drawing would leave it.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import NonTerminationError, NumericToleranceError, PreconditionError
from .lattice import LatticeMeasure
from .measures import DensityMeasure
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

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("sample\n")
            for v in self.samples:
                fh.write(f"{v:.17g}\n")


@dataclass(frozen=True)
class PathSimConfig:
    num_paths: int = 100_000
    time_step: float = 1e-4
    max_time: float = 10.0
    seed: int = 0

    def __post_init__(self):
        if self.num_paths < 1:
            raise PreconditionError("num_paths must be >= 1")
        if self.max_time <= 0.0:
            raise PreconditionError("max_time must be positive")


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def _start_positions(start, num_paths, rng):
    if isinstance(start, np.ndarray):
        if start.size != num_paths:
            raise PreconditionError("start array size must match num_paths")
        return start.astype(float, copy=True)
    if isinstance(start, (int, float)):
        return np.full(num_paths, float(start))
    if isinstance(start, LatticeMeasure):
        cum = np.cumsum(start.masses)
        cum = cum / cum[-1]
        cells = np.searchsorted(cum, rng.random(num_paths), side="right")
        return (start.offset + cells) / start.mesh_n
    if isinstance(start, DensityMeasure):
        return start.quantile(rng.random(num_paths))
    raise PreconditionError(f"cannot sample start positions from {start!r}")


@dataclass(frozen=True)
class FirstIntersectionResult:
    """Stopped positions and times of simulated paths."""

    empirical: EmpiricalMeasure
    positions: np.ndarray  # path order
    times: np.ndarray  # path order
    exceeded: int
    seed: int


def _check_exceeded(alive, num_paths):
    exceeded = int(alive.sum())
    if exceeded > 0.001 * num_paths:
        raise NonTerminationError(
            f"{exceeded} of {num_paths} paths exceeded max_time"
        )
    return exceeded


def simulate_first_intersection(start, stopping, cfg: PathSimConfig):
    """Sample (X_T, T) for paths stopped by a transport rule.

    ``stopping`` is either a TransportSolution (random-walk mode, the
    discrete rule with survival probabilities at freshly frozen cells) or
    a continuous nonnegative function (Euler mode, first crossing of the
    graph t = f(x) with linear-in-time detection).  Paths still running
    at max_time are counted; more than 0.1 percent of them fails the run.

    In walk mode the start must lie on the solution's lattice (1/n)Z, and
    each step t takes one row of num_paths raw words for the survival
    uniforms, skipped without drawing when no cell freezes at t, and one
    row for the +-1 coins; only paths still running are moved.
    """
    if isinstance(stopping, TransportSolution):
        return _simulate_lattice(start, stopping, cfg)
    return _simulate_continuum(start, stopping, cfg)


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


def _start_cells(start, x0, n):
    """Lattice indices k of start positions k / n; others are refused."""
    on_lattice = isinstance(start, LatticeMeasure)
    k = (start.positions[start.masses > 0] if on_lattice else x0) * n
    off = float(np.max(np.abs(k - np.rint(k)), initial=0.0)) / n
    if off > 1e-9:
        what = (f"start measure on mesh {start.mesh_n}" if on_lattice
                else "start positions")
        raise PreconditionError(
            f"{what} off the mesh-{n} lattice (1/{n})Z of the solution by "
            f"up to {off:.3g}; walk mode needs starts on that lattice"
        )
    return np.rint(x0 * n).astype(np.int64)


def _simulate_lattice(start, sol: TransportSolution, cfg):
    rng = _rng(cfg.seed)
    bits = rng.bit_generator
    n = sol.mesh_n
    num = cfg.num_paths
    if start is None:
        raise PreconditionError("lattice mode needs a start measure")
    pos = _start_cells(start, _start_positions(start, num, rng), n)
    pos -= sol.offset
    g = sol.freeze_step
    q = sol.survival
    if np.any(pos < 0) or np.any(pos >= g.size):
        raise PreconditionError("start mass outside the solved window")
    freeze_steps = set(g.tolist())
    max_steps = int(math.ceil(cfg.max_time * n * n))
    T = np.zeros(num, dtype=np.int64)
    # live paths: ids and positions; pos keeps the stop positions
    ids = np.arange(num)
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
            row = bits.random_raw(num)
            u = (row[ids[cand[due]]] >> 11) * 2.0**-53
            del row
            stop[due] = u >= q[pc[due]]
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
        step = bits.random_raw(num).view(np.int64)
        if ids.size < num:  # else every path runs, in row order
            step = step[ids]
        step >>= 63  # 0 where random() < 0.5 (a step up), else -1
        step |= 1
        p += step
    pos[ids] = p
    alive = np.zeros(num, dtype=bool)
    alive[ids] = True
    exceeded = _check_exceeded(alive, num)
    pos += sol.offset
    x = pos / n
    times = T / float(n * n)
    return FirstIntersectionResult(
        empirical=EmpiricalMeasure(x[~alive] if exceeded else x, cfg.seed),
        positions=x,
        times=times,
        exceeded=exceeded,
        seed=cfg.seed,
    )


def _simulate_continuum(start, f, cfg):
    rng = _rng(cfg.seed)
    num = cfg.num_paths
    dt = cfg.time_step
    x = _start_positions(start, num, rng)
    xT = x.copy()
    T = np.zeros(num)
    h = 0.0 - np.asarray(f(x), dtype=float)
    alive = h < 0.0  # paths starting on or above the graph stop at once
    sqdt = math.sqrt(dt)
    t = 0.0
    while t < cfg.max_time and alive.any():
        xi = rng.standard_normal(num)
        x_new = np.where(alive, x + sqdt * xi, x)
        h_new = (t + dt) - np.asarray(f(x_new), dtype=float)
        cross = alive & (h_new >= 0.0)
        if cross.any():
            # root of s -> t + s dt - f(x + s dx) on the linear-in-time
            # path; bisection handles the kinks of a piecewise-linear f
            x0 = x[cross]
            dx = x_new[cross] - x0
            lo = np.zeros(x0.size)
            hi = np.ones(x0.size)
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                hm = (t + mid * dt) - np.asarray(f(x0 + mid * dx),
                                                 dtype=float)
                below = hm < 0.0
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            T[cross] = t + hi * dt
            xT[cross] = x0 + hi * dx
        x = x_new
        h = h_new
        alive &= ~cross
        t += dt
    exceeded = _check_exceeded(alive, num)
    return FirstIntersectionResult(
        empirical=EmpiricalMeasure(xT[~alive] if exceeded else xT, cfg.seed),
        positions=xT,
        times=T,
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


def simulate_counterexample_paths(result, cfg: PathSimConfig):
    """Path-level run of the full stopping rule behind the counter-example.

    At time t0 each path lands at sqrt(t0) times a standard Gaussian; on
    the Cantor set it stops there with probability equal to the ratio of
    the unit-variance to the variance-t0 density.  Survivors continue as
    Euler paths until first crossing t = t0 + f1(x).  The law of the
    stopped position is standard Gaussian.
    """
    rng = _rng(cfg.seed)
    t0 = result.config.t0
    x = math.sqrt(t0) * rng.standard_normal(cfg.num_paths)
    u = rng.random(cfg.num_paths)
    ratio = np.exp(-0.5 * x * x * (1.0 - 1.0 / t0)) * math.sqrt(t0)
    killed = result.f.on_set(x) & (u < ratio)
    survivors = np.nonzero(~killed)[0]
    sub = PathSimConfig(
        num_paths=survivors.size,
        time_step=cfg.time_step,
        max_time=cfg.max_time,
        seed=cfg.seed + 1,
    )
    cont = simulate_first_intersection(x[survivors], result.f1, sub)
    positions = x.copy()
    times = np.full(cfg.num_paths, t0)
    positions[survivors] = cont.positions
    times[survivors] = t0 + cont.times
    return FirstIntersectionResult(
        empirical=EmpiricalMeasure(positions, cfg.seed),
        positions=positions,
        times=times,
        exceeded=cont.exceeded,
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


def lattice_cdf(m: LatticeMeasure):
    """Right-continuous CDF of a lattice measure as a callable."""
    cum = np.concatenate([[0.0], np.cumsum(m.masses)])
    pos = m.positions

    def F(x):
        idx = np.searchsorted(pos, np.asarray(x) + 0.5 / m.mesh_n, side="left")
        out = cum[idx]
        return float(out) if np.ndim(x) == 0 else out

    return F


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


def levy_distance(F, G, grid, tol=1e-9):
    """Levy distance surrogate on a grid, by bisection over the offset.

    Smallest delta with F(x - delta) - delta <= G(x) <= F(x + delta) + delta
    at every grid point; metrizes weak-star convergence on the line.
    """
    grid = np.asarray(grid, dtype=float)

    def ok(d):
        Fl = np.asarray(F(grid - d), dtype=float)
        Fr = np.asarray(F(grid + d), dtype=float)
        G_ = np.asarray(G(grid), dtype=float)
        return bool(np.all(Fl - d <= G_ + 1e-12) and np.all(G_ <= Fr + d + 1e-12))

    lo, hi = 0.0, 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > 1e6:
            raise NumericToleranceError("Levy bisection failed to bracket")
    if ok(lo):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


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

    @property
    def mean_level(self):
        return float(self.coeffs[0])


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
