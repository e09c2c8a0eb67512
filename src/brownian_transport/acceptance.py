"""Acceptance suite: every checkable claim behind the construction.

Each criterion function returns a CriterionResult with a pass flag and a
one-line detail string; run_all executes them in order against a shared
cache of pipeline runs and records each one's wall time.  Tolerances are
fixed here, not configurable, and a count below 1 (paths, instances,
samples, cells) is refused, since a criterion over nothing would pass.

Criteria 1 and 2 solve their instances as the batches padded on the
left of `solve_padded`, each row bit for bit as `solve` gives it, within
its own step budget, and failing on its own.  Criterion 1 takes its
instances straight from the integer 1/8-grid vectors of its enumeration
(`eighth_grid_instances`) and runs the exact integer oracle of
`bruteforce` on each again.  The engine's freeze steps, survival and
step count must equal the oracle's exactly, and its live mass at every
step and its stopped mass must lie within 1e-12 of the exact values;
the expected-time reference is the exact variance gap of the integers.
The law of the counter-example is checked at every mesh by its exact
distributional KS (`counterexample_exact_ks`, cached per mesh by the
context); criterion 6 also draws the suite's one sample of it, at the
headline mesh, to test the sampler.  Criterion 7 reads its mesh table
from `mesh_convergence`, which the ``convergence`` command writes out.
"""

import itertools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import measures, montecarlo as mc
from .bruteforce import exhaustive_transport
from .errors import ConsistencyError, NonTerminationError, PreconditionError
from .lattice import LatticeMeasure
from .measures import build_cantor, cantor_gap_constants
from .pipeline import CantelliConfig, f1_asymptotics_report, run_pipeline
from .solver import InvariantCheck, joint_window, solve_batch, start_state


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
    """Shared parameters, and the suite's pipeline runs and exact
    counter-example KS values, each computed once per mesh."""

    def __init__(self, seed=42, paths=1_000_000, meshes=(100, 200, 400),
                 random_instances=100, gap_samples=10_000, sim_mesh=16,
                 enumeration_cells=7):
        self.seed = mc.check_seed(seed)
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
        if any(a >= b for a, b in zip(self.meshes, self.meshes[1:])):
            raise PreconditionError(
                f"meshes must strictly increase, got {list(self.meshes)}")
        # every run's config is built here, so a mesh that CantelliConfig
        # refuses stops the suite before any criterion runs
        self.configs = {n: CantelliConfig(mesh_n=n)
                        for n in (*self.meshes, self.sim_mesh)}
        self._pipelines = {}
        self._exact_ks = {}
        self.et_residuals = []  # (label, residual) from every solved instance
        self.checked_solves = []  # per checked solve: True if it finished

    def pipeline(self, n):
        if n not in self._pipelines:
            self._pipelines[n] = run_pipeline(self.configs[n])
        return self._pipelines[n]

    def exact_ks(self, n):
        """`counterexample_exact_ks` of the mesh-n pipeline, computed once
        per mesh."""
        if n not in self._exact_ks:
            self._exact_ks[n] = counterexample_exact_ks(self.pipeline(n))
        return self._exact_ks[n]

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


BATCH_ROWS = 256  # rows per batch of criteria 1 and 2, which bounds its memory
ORACLE_STEPS = 100_000  # step budget of every criterion-1 oracle run


def eighth_grid_instances(pairs):
    """The `solve_padded` instance map of pairs from `enumerate_instances`:
    each pair's masses at mesh 1 on the window from cell 0 to the last
    cell of the target, which the translation canon makes its hull."""
    m = np.array(pairs) / 8
    widths = m.shape[-1] - np.argmax(m[:, 1, ::-1] > 0, axis=-1)
    return {k: (1, 0, m[k, 0, :w], m[k, 1, :w])
            for k, w in enumerate(widths.tolist())}


def criterion_1(ctx: AcceptanceContext):
    pairs = enumerate_instances(ctx.enumeration_cells)
    instances = eighth_grid_instances(pairs)
    # the variance gap, exactly: the means agree and the masses are 1, so
    # Var1 - Var0 = sum of i^2 (v1_i - v0_i) / 8 over the cells i
    v = np.array(pairs)
    sq = np.arange(ctx.enumeration_cells) ** 2
    var_gap = ((v[:, 1] - v[:, 0]) @ sq) / 8.0
    worst = worst_stop = 0.0
    failures = unequal = 0  # not solved; freeze record or steps unequal
    for k, (sol, live_history) in solve_padded(instances, history=True):
        ctx.checked_solves.append(sol is not None)
        if sol is None:
            failures += 1
            continue
        ref = exhaustive_transport(*instances[k][2:], max_steps=ORACLE_STEPS)
        # a cell that never froze reads freeze step 0 and survival 0 in the
        # engine's solution, and g = None in the oracle's
        g = [0 if s is None else s for s in ref["g"]]
        q = [0.0 if s is None else f for s, f in zip(ref["g"], ref["q"])]
        if (g != sol.freeze_step.tolist() or q != sol.survival.tolist()
                or len(live_history) != len(ref["walking_history"])):
            unequal += 1
        else:
            worst = max(worst, float(np.abs(
                live_history - np.array(ref["walking_history"])).max()))
        worst_stop = max(worst_stop, float(np.abs(
            sol.stopped.masses - np.array(ref["parked"])).max()))
        ctx.et_residuals.append((f"enum{pairs[k][0]}{pairs[k][1]}",
                                 abs(sol.expected_time - float(var_gap[k]))))
    ok = failures == unequal == 0 and worst <= 1e-12 and worst_stop <= 1e-12
    unsolved = f", {failures} not solved" if failures else ""
    return CriterionResult(
        1, "oracle equivalence on the 1/8 grid", ok,
        f"{len(pairs)} canonical instances{unsolved}; freeze steps, "
        f"survival and step counts equal to the exact oracle's on "
        f"{len(pairs) - failures - unequal}; worst per-step live gap "
        f"{worst:.2e}, worst final gap {worst_stop:.2e} to it (tolerance "
        "1e-12)",
    )


# ---------------------------------------------------------------------------
# Criterion 2: termination and exactness on randomized instances


def random_feasible_pair(rng):
    """Target with positive masses on 5 to 50 cells; start built from
    mean-preserving contractions, which keeps the cost profile >= 0."""
    w = int(rng.integers(5, 51))
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


# numpy sums a contiguous row of at most 128 floats in 8 interleaved lanes
# (pairwise summation) and adds the last (cells mod 8) ones in turn; a row
# padded on the left by a multiple of 8 zero cells keeps each of its cells
# in the lane and the order it had on its own window, behind zeros, so its
# full-row sums, and with them E T, round as they do there
PAD_LANES = 8
PAD_WIDTH = 128  # the widest padded batch, in cells


def padded_batches(instances):
    """Batches of instances padded on the left to a common window width.

    ``instances`` maps a key to (mesh, first cell, start masses, target
    masses) on the instance's own window.  A row is padded on the left
    only, so its right window edge, where `start_state` forces the cost
    to 0, stays its own, and the padded cells carry no mass and cost
    exactly 0.  Rows share a batch when their widths differ by a
    multiple of PAD_LANES and none exceeds PAD_WIDTH cells (a wider row
    shares only with rows of its own width), at most BATCH_ROWS rows a
    batch.  Yields each batch's keys, each row's padding in cells and
    the `start_state` arguments: meshes, first cells, start and target
    masses.
    """
    groups = defaultdict(list)
    for key, (_, _, live, _) in instances.items():
        w = live.size
        groups[w % PAD_LANES if w <= PAD_WIDTH else w].append(key)
    for group in groups.values():
        for first in range(0, len(group), BATCH_ROWS):
            keys = group[first:first + BATCH_ROWS]
            width = max(instances[k][2].size for k in keys)
            pads = [width - instances[k][2].size for k in keys]
            mesh, offset = (np.array([instances[k][i] for k in keys])
                            for i in (0, 1))
            live, target = np.zeros((2, len(keys), width))
            for row, (k, pad) in enumerate(zip(keys, pads)):
                _, _, live[row, pad:], target[row, pad:] = instances[k]
            yield keys, pads, (mesh, offset - pads, live, target)


def solve_padded(instances, history=False):
    """Solve an instance map of `padded_batches` as its batches, with the
    invariant check at every step and, per row, the step budget that
    `solve` gives the instance; a batch that raises is split in halves
    until each failing instance stands alone.

    Yields, batch by batch, each key and the instance's solution on its
    own window, or None where it fails (a precondition, a check or its
    budget); with ``history``, (solution, live masses at every step as
    the rows of one array), or (None, None).  Freeze steps, survival,
    stopped mass, steps, E T and maximal time are bit for bit those of
    `solve`; the mean live span is the batch's window width.
    """
    for keys, pads, batch in padded_batches(instances):
        check, rows, lives = InvariantCheck(), [], []

        def record(state):
            check(state)
            rows.append(state.rows)
            lives.append(state.live.copy())

        try:
            sols = solve_batch(start_state(*batch),
                               observe=record if history else check)
        except (ConsistencyError, NonTerminationError, PreconditionError):
            if len(keys) == 1:
                yield keys[0], (None, None) if history else None
            else:
                h = len(keys) // 2
                for half in (keys[:h], keys[h:]):
                    yield from solve_padded(
                        {k: instances[k] for k in half}, history)
            continue
        for i, (sol, pad) in enumerate(zip(sols, pads)):
            if pad:
                first = sol.offset + pad
                sols[i] = replace(
                    sol, offset=first, freeze_step=sol.freeze_step[pad:],
                    survival=sol.survival[pad:],
                    stopped=LatticeMeasure(sol.mesh_n, first,
                                           sol.stopped.masses[pad:]))
        if history:
            # regroup the snapshots by row, in step order; a row is seen at
            # steps 0 to its last, the terminating one included
            order = np.argsort(np.concatenate(rows), kind="stable")
            ends = np.cumsum([sol.steps + 1 for sol in sols])[:-1]
            histories = np.split(np.concatenate(lives)[order], ends)
            sols = [(sol, live[:, pad:])
                    for sol, live, pad in zip(sols, histories, pads)]
        yield from zip(keys, sols)


def criterion_2(ctx: AcceptanceContext):
    rng = np.random.default_rng(ctx.seed)
    pairs = [random_feasible_pair(rng) for _ in range(ctx.random_instances)]
    instances = {}
    for k, (m0, m1) in enumerate(pairs):
        try:
            instances[k] = (m0.mesh_n, *joint_window(m0, m1))
        except PreconditionError:
            pass  # refused before the run: the instance fails
    sols = dict(solve_padded(instances))
    ctx.checked_solves.extend(sol is not None for sol in sols.values())
    worst, failures = 0.0, 0
    for k, (m0, m1) in enumerate(pairs):
        sol = sols.get(k)
        if sol is None:
            failures += 1
            continue
        tgt = instances[k][3]
        worst = max(worst, float(np.abs(sol.stopped.masses - tgt).max()))
        rep = mc.expected_time_check(sol, m0, m1)
        ctx.et_residuals.append((f"random{k}", rep.residual))
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
    # a violation stops its solve, which is then counted as stopped, so
    # only the finished solves ran violation-free
    checked = sum(ctx.checked_solves)
    stopped = len(ctx.checked_solves) - checked
    ok = checked > 0 and stopped == 0
    halted = f"; {stopped} more stopped on an error" if stopped else ""
    return CriterionResult(
        4, "discrete coincidence invariant", ok,
        f"asserted at every step of {checked} solves of criteria 1 and 2, "
        f"zero violations{halted}; the pipeline solve is not checked",
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
    exact = ctx.exact_ks(ctx.headline_mesh)
    # the sampler reads the mesh only through phi, so one sample at the
    # headline mesh tests it
    z = mc.simulate_counterexample(
        res, mc.PathSimConfig(num_paths=ctx.paths, seed=ctx.seed))
    ks = mc.ks_distance(z.empirical, z.target_cdf)
    lo, hi = res.phi_range()
    spread = hi - lo
    ok = exact <= 0.01 and ks <= 0.01 and spread >= 0.01
    return CriterionResult(
        6, "headline counter-example", ok,
        f"exact KS(Z, N(0, C)) = {exact:.2e}, sampled KS = {ks:.5f} at "
        f"{ctx.paths} samples (budget 0.01 each); sup phi - inf phi = "
        f"{spread:.3f} (needs >= 0.01)",
    )


def counterexample_exact_ks(res):
    """Distributional KS of X + phi(X) Y against N(0, C), by quadrature.

    The suite's evidence for the law at every mesh: the conditional law
    given X = x is N(x, phi(x)^2), so the CDF is a Gaussian mixture,
    integrated over X by ``mc.gauss_legendre`` with six nodes on pieces at
    most 0.02 wide, and compared at 801 points evenly spaced over
    +-4.5 sqrt(C).
    """
    xs, ws = mc.gauss_legendre(res.breakpoints(), 0.02, 6)
    ws = ws * np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    ph = np.asarray(res.phi(xs))
    s = math.sqrt(res.C)
    zs = np.linspace(-4.5 * s, 4.5 * s, 801)
    FZ = np.array([float(np.sum(ws * measures.ndtr((z - xs) / ph)))
                   for z in zs])
    return float(np.abs(FZ - measures.ndtr(zs / s)).max())


class MeshRow(NamedTuple):
    """One mesh of criterion 7's table, as ``convergence.csv`` holds it."""

    n: int
    ks_exact: float
    C: float
    E_T: float


def mesh_convergence(ctx: AcceptanceContext):
    """Criterion 7's mesh table: a MeshRow per mesh of the context, with
    the exact distributional KS, and per pair of
    consecutive meshes the sup-node distances between their f1, over the
    whole window and on |x| <= R - 1."""
    runs = [ctx.pipeline(n) for n in ctx.meshes]
    rows, gaps = [], []
    for n, res in zip(ctx.meshes, runs):
        rows.append(MeshRow(n, ctx.exact_ks(n), float(res.C),
                            res.solution.expected_time))
    for coarse, fine in zip(runs, runs[1:]):
        fc, ff = coarse.f1, fine.f1
        inner = np.abs(fc.xs) <= coarse.config.truncation_R - 1.0
        gaps.append((float(np.abs(fc.ys - ff(fc.xs)).max()),
                     float(np.abs(fc.ys[inner] - ff(fc.xs[inner])).max())))
    return rows, gaps


def criterion_7(ctx: AcceptanceContext):
    rows, gaps = mesh_convergence(ctx)
    exact_ks = [r.ks_exact for r in rows]
    # the exact values carry no sampling error: their trend is strict
    decreasing = all(a > b for a, b in zip(exact_ks, exact_ks[1:]))

    # a Cauchy factor is the ratio of two consecutive sup-node distances
    if len(gaps) < 2:
        cauchy_ok = False
        cauchy = (f"sup-node Cauchy factor needs three or more meshes, got "
                  f"{len(ctx.meshes)}")
    else:
        cauchy_ok = all(a[0] >= 1.5 * b[0] for a, b in zip(gaps, gaps[1:]))
        factors, factors_interior = (
            ["%.2f" % (a[k] / b[k]) for a, b in zip(gaps, gaps[1:])]
            for k in (0, 1)
        )
        cauchy = (f"sup-node Cauchy factors {factors} (need >= 1.5; "
                  f"interior |x| <= R-1 factors {factors_interior})")
    ok = decreasing and cauchy_ok
    return CriterionResult(
        7, "mesh convergence", ok,
        f"exact distributional KS {['%.2e' % v for v in exact_ks]} "
        f"decreasing: {decreasing}; {cauchy}",
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
    # the 95 % DKW error of an empirical CDF of N samples is
    # sqrt(ln(2 / 0.05) / (2 N)), above the tolerance for N < 204 938
    dkw = math.sqrt(math.log(40.0) / (2 * ctx.paths))
    below = (f", below the 95 % DKW error {dkw:.2g} at {ctx.paths} paths"
             if dkw > 0.003 else "")
    return CriterionResult(
        10, "walk simulation matches the deterministic law", ok,
        f"KS = {ks:.5f} at {ctx.paths} paths on the mesh-{ctx.sim_mesh} "
        f"pipeline instance (tolerance 0.003{below})",
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
