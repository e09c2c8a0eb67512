"""Acceptance suite: every checkable claim behind the construction.

Each criterion function returns a CriterionResult with a pass flag and a
one-line detail string; run_all executes them in order against a shared
cache of pipeline runs and records each one's wall time.  Tolerances are
fixed here, not configurable, and a count below 1 (paths, instances,
samples, cells) is refused, since a criterion over nothing would pass.

Criterion 1 works on the integer 1/8-grid vectors of its enumeration:
`width_batches` builds each batch's step-0 state in one `start_state`
pass over (rows x cells) arrays, `solve_by_width` solves the batches,
the scalar brute-force oracle checks every instance step by step, and
the expected-time reference is the exact variance gap of the integers.
"""

import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from . import montecarlo as mc
from .bruteforce import exhaustive_transport
from .errors import ConsistencyError, NonTerminationError, PreconditionError
from .lattice import LatticeMeasure
from .measures import build_cantor, cantor_gap_constants
from .pipeline import CantelliConfig, f1_asymptotics_report, run_pipeline
from .solver import InvariantCheck, solve, solve_batch, start_state


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    # wall time in run_all; the criterion that first needs a cached
    # pipeline run pays for building it
    seconds: float = field(default=0.0, compare=False)

    def line(self):
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] criterion {self.number}: {self.name} - {self.details}"


class AcceptanceContext:
    """Shared parameters and cached pipeline runs for the suite."""

    def __init__(self, seed=42, paths=1_000_000, meshes=(100, 200, 400),
                 random_instances=100, gap_samples=10_000, sim_mesh=16,
                 enumeration_cells=7):
        self.seed = int(seed)
        self.paths = int(paths)
        self.meshes = tuple(int(n) for n in meshes)
        self.random_instances = int(random_instances)
        self.gap_samples = int(gap_samples)
        self.sim_mesh = int(sim_mesh)
        self.enumeration_cells = int(enumeration_cells)
        # a criterion over zero instances, samples or paths would pass on
        # no evidence
        for name in ("paths", "random_instances", "gap_samples",
                     "enumeration_cells"):
            if getattr(self, name) < 1:
                raise PreconditionError(
                    f"{name} must be at least 1, got {getattr(self, name)}"
                )
        if not self.meshes:
            raise PreconditionError("meshes must name at least one mesh")
        self._pipelines = {}
        self.et_residuals = []  # (label, residual) from every solved instance
        self.checked_solves = 0  # solves run with InvariantCheck at every step

    def pipeline(self, n):
        if n not in self._pipelines:
            self._pipelines[n] = run_pipeline(CantelliConfig(mesh_n=n))
        return self._pipelines[n]

    @property
    def headline_mesh(self):
        return self.meshes[-1]


# ---------------------------------------------------------------------------
# Criterion 1: exhaustive oracle equivalence on the eighth-mass grid


def _eighth_vectors(cells):
    """All mass vectors on `cells` cells with masses k/8 summing to 1."""
    if cells < 1:
        raise PreconditionError(f"cells must be at least 1, got {cells}")
    if cells == 1:
        return [(8,)]
    out = []
    for comb in itertools.combinations(range(8 + cells - 1), cells - 1):
        parts, prev = [], -1
        for x in comb:
            parts.append(x - prev - 1)
            prev = x
        parts.append(8 + cells - 2 - comb[-1])
        out.append(tuple(parts))
    return out


def _cost_nonnegative(m0, m1):
    s, ph = 0, 0
    for z in range(len(m0)):
        ph += s
        if ph < 0:
            return False
        s += m1[z] - m0[z]
    return True


def enumerate_instances(cells=7):
    """Canonical feasible pairs on the 1/8 mass grid, up to translation
    and reflection (both symmetries act exactly on the arithmetic)."""
    vecs = _eighth_vectors(cells)
    by_mean = defaultdict(list)
    for v in vecs:
        nz = [i for i, m in enumerate(v) if m]
        by_mean[sum(i * m for i, m in enumerate(v))].append(
            (v, nz[0], nz[-1])
        )
    pairs = []
    for group in by_mean.values():
        for v0, lo0, hi0 in group:
            for v1, lo1, hi1 in group:
                if min(lo0, lo1) != 0:
                    continue  # translation canon: joint support starts at 0
                if lo0 < lo1 or hi0 > hi1:
                    continue
                if hi0 - lo0 >= 2 and any(
                    v1[k] == 0 for k in range(lo0 + 1, hi0)
                ):
                    continue
                if not _cost_nonnegative(v0, v1):
                    continue
                mv0, mv1 = tuple(reversed(v0)), tuple(reversed(v1))
                shift = min(i for i in range(cells) if mv0[i] or mv1[i])
                mv0 = mv0[shift:] + (0,) * shift
                mv1 = mv1[shift:] + (0,) * shift
                if (v0, v1) > (mv0, mv1):
                    continue  # reflection canon
                pairs.append((v0, v1))
    return pairs


BATCH_ROWS = 256  # rows per criterion-1 batch, which bounds its memory


def width_batches(pairs):
    """Step-0 states of pairs of 1/8-grid mass vectors from
    `enumerate_instances`, in batches of equal window width and at most
    BATCH_ROWS rows.

    Yields each batch's indices into `pairs` and its state, built in one
    `start_state` pass at mesh 1 on the window from cell 0 to the last
    cell of the target, which the translation canon makes the target's
    support hull.
    """
    by_width = defaultdict(list)
    for k, (_, v1) in enumerate(pairs):
        by_width[max(i for i, m in enumerate(v1) if m) + 1].append(k)
    for w, group in by_width.items():
        for first in range(0, len(group), BATCH_ROWS):
            batch = group[first:first + BATCH_ROWS]
            v = np.array([[pairs[k][0][:w], pairs[k][1][:w]] for k in batch])
            yield batch, start_state(1, 0, v[:, 0] / 8.0, v[:, 1] / 8.0)


def solve_by_width(pairs, max_steps=100_000):
    """Solve pairs of 1/8-grid mass vectors from `enumerate_instances` as
    the batches of `width_batches`, with the invariant check at every
    step.

    Yields, batch by batch, each instance's index in `pairs`, its start
    and target masses on its window, its solution and its live mass at
    every step (the rows of one array).
    """
    for batch, state in width_batches(pairs):
        live, target = state.live.copy(), state.target
        check, rows, lives = InvariantCheck(), [], []

        def observe(state):
            check(state)
            rows.append(state.rows)
            lives.append(state.live.copy())

        sols = solve_batch(state, max_steps=max_steps, observe=observe)
        # regroup the snapshots by instance, in step order; an instance is
        # seen at steps 0 to its last, the terminating one included
        order = np.argsort(np.concatenate(rows), kind="stable")
        ends = np.cumsum([sol.steps + 1 for sol in sols])[:-1]
        histories = np.split(np.concatenate(lives)[order], ends)
        yield from zip(batch, live, target, sols, histories)


def criterion_1(ctx: AcceptanceContext):
    pairs = enumerate_instances(ctx.enumeration_cells)
    # the variance gap, exactly: the means agree and the masses are 1, so
    # Var1 - Var0 = sum of i^2 (v1_i - v0_i) / 8 over the cells i
    v = np.array(pairs)
    sq = np.arange(ctx.enumeration_cells) ** 2
    var_gap = ((v[:, 1] - v[:, 0]) @ sq) / 8.0
    gaps = [0.0] * len(pairs)
    worst = 0.0
    worst_stop = 0.0
    for k, live, target, sol, live_history in solve_by_width(pairs):
        ref = exhaustive_transport(live, target, max_steps=100_000)
        steps = min(len(live_history), len(ref["walking_history"]))
        worst = max(worst, float(np.abs(
            live_history[:steps]
            - np.asarray(ref["walking_history"][:steps])
        ).max()))
        worst_stop = max(
            worst_stop,
            float(np.abs(sol.stopped.masses - np.asarray(ref["parked"])).max()),
        )
        gaps[k] = abs(sol.expected_time - float(var_gap[k]))
    ctx.et_residuals.extend(
        (f"enum{v0}{v1}", gap) for (v0, v1), gap in zip(pairs, gaps)
    )
    ctx.checked_solves += len(pairs)
    ok = worst <= 1e-12 and worst_stop <= 1e-12
    return CriterionResult(
        1, "oracle equivalence on the 1/8 grid", ok,
        f"{len(pairs)} canonical instances; worst per-step live gap "
        f"{worst:.2e}, worst final gap {worst_stop:.2e} (tolerance 1e-12)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: termination and exactness on randomized instances


def random_feasible_pair(rng, max_cells=50):
    """Target with positive masses; start built from mean-preserving
    contractions of it, which keeps the cost profile nonnegative."""
    w = int(rng.integers(5, max_cells + 1))
    m1 = rng.uniform(0.05, 1.0, w)
    m1 /= m1.sum()
    m0 = m1.copy()
    for _ in range(int(rng.integers(1, 3 * w))):
        i, j = np.sort(rng.choice(w, size=2, replace=False))
        if j - i < 2:
            continue
        k = int(rng.integers(i + 1, j))
        cap = min(m0[i] / (j - k), m0[j] / (k - i))
        if cap <= 0.0:
            continue
        s = cap * rng.uniform(0.1, 0.9)
        di, dj = s * (j - k), s * (k - i)
        m0[i] -= di
        m0[j] -= dj
        m0[k] += di + dj
    mesh = int(rng.integers(1, 51))
    offset = int(rng.integers(-10, 11))
    return (
        LatticeMeasure(mesh, offset, m0),
        LatticeMeasure(mesh, offset, m1),
    )


def criterion_2(ctx: AcceptanceContext):
    rng = np.random.default_rng(ctx.seed)
    worst = 0.0
    failures = 0
    for k in range(ctx.random_instances):
        m0, m1 = random_feasible_pair(rng)
        try:
            sol = solve(m0, m1, observe=InvariantCheck())
        except (ConsistencyError, NonTerminationError, PreconditionError):
            failures += 1
            continue
        tgt = m1.trimmed().with_window(
            sol.offset, sol.offset + sol.freeze_step.size - 1
        ).masses
        worst = max(worst, float(np.abs(sol.stopped.masses - tgt).max()))
        gap = abs(
            sol.expected_time - (m1.variance() - m0.variance())
        )
        ctx.et_residuals.append((f"random{k}", gap))
        ctx.checked_solves += 1
    ok = failures == 0 and worst <= 1e-9
    return CriterionResult(
        2, "termination and exactness on random instances", ok,
        f"{ctx.random_instances} instances, {failures} failures; worst "
        f"cellwise gap to the target {worst:.2e} (tolerance 1e-9)",
    )


def criterion_3(ctx: AcceptanceContext):
    res = ctx.pipeline(ctx.headline_mesh)
    rep = mc.expected_time_check(res.solution, res.mu0n, res.mu1n)
    ctx.et_residuals.append(("pipeline", rep.residual))
    worst = max(r for _, r in ctx.et_residuals)
    ok = worst <= 1e-8
    return CriterionResult(
        3, "expected-time identity", ok,
        f"max |E T - variance gap| over {len(ctx.et_residuals)} solved "
        f"instances = {worst:.2e} (tolerance 1e-8); pipeline residual "
        f"{rep.residual:.2e}",
    )


def criterion_4(ctx: AcceptanceContext):
    # criteria 1 and 2 run every solve with the coincidence check enabled;
    # any violation raises and fails those criteria, so reaching this point
    # with their instance counts recorded means zero violations
    checked = ctx.checked_solves
    ok = checked > 0
    return CriterionResult(
        4, "discrete coincidence invariant", ok,
        f"asserted at every step of {checked} solves of criteria 1 and 2, "
        "zero violations; the pipeline solve is not checked",
    )


def criterion_5(ctx: AcceptanceContext):
    cfg = CantelliConfig()
    K = build_cantor((-cfg.cantor_radius, cfg.cantor_radius),
                     cfg.cantor_depth)
    exact = True
    for d in range(cfg.cantor_depth + 1):
        Kd = build_cantor((-cfg.cantor_radius, cfg.cantor_radius), d)
        expect = 2 * Fraction(cfg.cantor_radius)
        for n in range(1, d + 1):
            expect *= 1 - Fraction(1, (n + 1) ** 2)
        exact = exact and Kd.total_length() == expect
        exact = exact and len(Kd.intervals) == 2**d
    gaps = cantor_gap_constants(K, ctx.gap_samples, seed=ctx.seed)
    ok = exact and gaps.alpha_quadratic > 0.0
    return CriterionResult(
        5, "Cantor geometry", ok,
        f"lengths match the telescoping product exactly through depth "
        f"{cfg.cantor_depth}; alpha_quadratic = {gaps.alpha_quadratic:.4f} "
        f"over {ctx.gap_samples} intervals",
    )


def criterion_6(ctx: AcceptanceContext):
    res = ctx.pipeline(ctx.headline_mesh)
    z = mc.simulate_counterexample(
        res, mc.PathSimConfig(num_paths=ctx.paths, seed=ctx.seed)
    )
    ks = mc.ks_distance(z.empirical, z.target_cdf)
    lo, hi = res.phi_range()
    spread = hi - lo
    ok = ks <= 0.01 and spread >= 0.01
    return CriterionResult(
        6, "headline counter-example", ok,
        f"KS(Z, N(0, C)) = {ks:.5f} at {ctx.paths} samples (budget 0.01); "
        f"sup phi - inf phi = {spread:.3f} (needs >= 0.01)",
    )


def counterexample_exact_ks(res, nz=801, width=8.5):
    """Distributional KS of X + phi(X) Y against N(0, C), by quadrature.

    Deterministic companion to the sampled statistic: the conditional law
    given X = x is N(x, phi(x)^2), so the CDF is a Gaussian mixture.
    """
    bps = res.breakpoints()
    cuts = np.unique(np.concatenate(
        [[-width, width], bps[(bps > -width) & (bps < width)]]
    ))
    segs = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        k = max(int(math.ceil((b - a) / 0.02)), 1)
        segs.append(np.linspace(a, b, k + 1)[:-1])
    edges = np.concatenate(segs + [np.array([width])])
    gx, gw = np.polynomial.legendre.leggauss(6)
    a, b = edges[:-1], edges[1:]
    xs = (0.5 * (a + b)[:, None] + 0.5 * (b - a)[:, None] * gx[None, :]).ravel()
    ws = (0.5 * (b - a)[:, None] * gw[None, :]).ravel()
    ws = ws * np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    ph = np.asarray(res.phi(xs))
    s = math.sqrt(res.C)
    zs = np.linspace(-4.5 * s, 4.5 * s, nz)
    FZ = np.array([float(np.sum(ws * ndtr((z - xs) / ph))) for z in zs])
    return float(np.abs(FZ - ndtr(zs / s)).max())


def criterion_7(ctx: AcceptanceContext):
    mc_ks, exact_ks = [], []
    for n in ctx.meshes:
        res = ctx.pipeline(n)
        z = mc.simulate_counterexample(
            res, mc.PathSimConfig(num_paths=ctx.paths, seed=ctx.seed)
        )
        mc_ks.append(mc.ks_distance(z.empirical, z.target_cdf))
        exact_ks.append(counterexample_exact_ks(res))
    # the sampled values sit at their noise floor, so they may rise by up
    # to the sampling error without contradicting a shrinking bias
    eps = mc.dkw_epsilon(ctx.paths)
    nonincreasing = all(b <= a + eps for a, b in zip(mc_ks, mc_ks[1:]))
    # the exact values carry no sampling error: their trend is strict
    decreasing = all(a > b for a, b in zip(exact_ks, exact_ks[1:]))

    # sup-node distances between consecutive meshes, over the whole window
    # and on |x| <= R - 1; a Cauchy factor is the ratio of two of them
    dists, dists_interior = [], []
    for n_c, n_f in zip(ctx.meshes, ctx.meshes[1:]):
        fc = ctx.pipeline(n_c).f1
        ff = ctx.pipeline(n_f).f1
        R = ctx.pipeline(n_c).config.truncation_R
        inner = np.abs(fc.xs) <= R - 1.0
        dists.append(float(np.abs(fc.ys - ff(fc.xs)).max()))
        dists_interior.append(
            float(np.abs(fc.ys[inner] - ff(fc.xs[inner])).max()))
    if len(dists) < 2:
        cauchy_ok = False
        cauchy = (f"sup-node Cauchy factor needs three or more meshes, got "
                  f"{len(ctx.meshes)}")
    else:
        cauchy_ok = all(a >= 1.5 * b for a, b in zip(dists, dists[1:]))
        factors, factors_interior = (
            ["%.2f" % (a / b) for a, b in zip(d, d[1:])]
            for d in (dists, dists_interior)
        )
        cauchy = (f"sup-node Cauchy factors {factors} (need >= 1.5; "
                  f"interior |x| <= R-1 factors {factors_interior})")
    ok = nonincreasing and decreasing and cauchy_ok
    return CriterionResult(
        7, "mesh convergence", ok,
        f"sampled KS {['%.5f' % v for v in mc_ks]} nonincreasing within "
        f"the sampling error {eps:.2e}: {nonincreasing}; exact "
        f"distributional KS {['%.2e' % v for v in exact_ks]} decreasing: "
        f"{decreasing}; {cauchy}",
    )


def criterion_8(ctx: AcceptanceContext):
    res = ctx.pipeline(ctx.headline_mesh)
    rep = f1_asymptotics_report(res)
    ok = rep.lower_bound_ok and rep.monotone_ok
    tol = 5.0 / ctx.headline_mesh
    return CriterionResult(
        8, "stopping-function asymptotics", ok,
        f"min(f1 - (1 - t0)) on [2, 3] = {rep.min_deviation:+.5f} "
        f"(budget {-tol:+.5f}); band maxima inner {rep.inner_band_max:.5f} "
        f">= outer {rep.outer_band_max:.5f} is {rep.monotone_ok}; fitted "
        f"decay exponent {rep.fitted_beta:.2f}",
    )


def criterion_9(ctx: AcceptanceContext):
    reps = {}
    for n in ctx.meshes:
        res = ctx.pipeline(n)
        reps[n] = mc.hermite_check(
            res.phi, max_n=40, breakpoints=res.breakpoints(), quad_tol=1e-7
        )
    rep = reps[ctx.headline_mesh]
    point_ok = (
        rep.phi1_abs <= 0.01
        and rep.identity_residual <= 0.02
        and rep.sup_excess <= 0.01
    )
    phi1s = [reps[n].phi1_abs for n in ctx.meshes]
    resids = [reps[n].identity_residual for n in ctx.meshes]
    trend_ok = all(a >= b - 1e-15 for a, b in zip(phi1s, phi1s[1:])) and all(
        a >= b for a, b in zip(resids, resids[1:])
    )
    ok = point_ok and trend_ok
    return CriterionResult(
        9, "Hermite constraints", ok,
        f"|b_1| = {rep.phi1_abs:.2e} (<= 0.01), u^4 identity residual of "
        f"phi^2 = {rep.identity_residual:.2e} (<= 0.02), sup excess "
        f"{rep.sup_excess:+.3f} (<= 0.01); residual trend over meshes "
        f"{['%.2e' % v for v in resids]} shrinking={trend_ok}",
    )


def criterion_10(ctx: AcceptanceContext):
    res = ctx.pipeline(ctx.sim_mesh)
    sim = mc.simulate_first_intersection(
        res.mu0n, res.solution,
        mc.PathSimConfig(num_paths=ctx.paths, seed=ctx.seed, max_time=50.0),
    )
    ks = mc.ks_distance_lattice(sim.empirical, res.solution.stopped)
    ok = ks <= 0.003
    return CriterionResult(
        10, "walk simulation matches the deterministic law", ok,
        f"KS = {ks:.5f} at {ctx.paths} paths on the mesh-{ctx.sim_mesh} "
        f"pipeline instance (tolerance 0.003)",
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
)


def run_all(report=None, **params):
    """Run the whole suite on ``AcceptanceContext(**params)``; returns the
    list of CriterionResult, each with its wall time in ``seconds``.
    ``report``, if given, is called with each result as soon as its
    criterion finishes."""
    ctx = AcceptanceContext(**params)
    out = []
    for fn in CRITERIA:
        t = time.perf_counter()
        result = fn(ctx)
        result = replace(result, seconds=time.perf_counter() - t)
        out.append(result)
        if report is not None:
            report(result)
    return out
