"""End-to-end assembly of the Cantelli counter-example.

Start from two laws that differ by the same removed part: the not-yet-
stopped density at time t0 (a Gaussian of variance t0 with the standard
Gaussian density carved out on a fat Cantor set) and the standard
Gaussian conditioned off that set.  A bounded Brownian transport between
them, computed on the window [-R, R] at mesh 1/n, yields a
stopping function f1; gluing the freeze level t0 on the Cantor set and
t0 + f1 off it gives f, and phi = sqrt(C - f) is the non-constant
function with X + phi(X) * Y Gaussian.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from . import measures
from .errors import PreconditionError
from .lattice import LatticeMeasure, discretize
from .measures import (
    CantorSet,
    build_cantor,
    from_pieces,
    gamma_center,
)
from .solver import PiecewiseLinear, TransportSolution, extend_f, solve


def crossing_radius(t0):
    """Radius where the N(0, t0) and N(0, 1) densities cross.

    The variance-t0 density strictly dominates inside (-radius, radius).
    """
    if not 0.0 < t0 < 1.0:
        raise PreconditionError("t0 must lie in (0, 1)")
    return math.sqrt(t0 * math.log(1.0 / t0) / (1.0 - t0))


@dataclass(frozen=True)
class CantelliConfig:
    """Parameters of the counter-example construction."""

    t0: float = 0.5
    cantor_radius: float | None = None  # default 0.8 * crossing radius
    cantor_depth: int | None = None  # default: finer than the mesh, >= 8
    truncation_R: float = 4.0
    mesh_n: int = 400
    horizon_margin: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.t0 < 1.0:
            raise PreconditionError("t0 must lie in (0, 1)")
        x_star = crossing_radius(self.t0)
        r = self.cantor_radius
        if r is None:
            r = 0.8 * x_star
            object.__setattr__(self, "cantor_radius", r)
        if not 0.0 < r < x_star:
            raise PreconditionError(
                f"cantor_radius must lie in (0, {x_star:.6g}), the density "
                "crossing radius"
            )
        if self.mesh_n < 16:
            raise PreconditionError(
                f"mesh_n must be at least 16, got {self.mesh_n}")
        if self.cantor_depth is None:
            # every depth-d interval has length r (d+2) / ((d+1) 2^d); take
            # the first depth from 8 whose intervals are below the hat width
            d = 8
            while r * (d + 2) / ((d + 1) * 2.0**d) >= 2.0 / self.mesh_n:
                d += 1
            object.__setattr__(self, "cantor_depth", d)
        if self.cantor_depth < 0:
            raise PreconditionError("cantor_depth must be nonnegative")
        if not self.truncation_R > 1.0:
            raise PreconditionError("truncation_R must exceed 1")
        if self.horizon_margin < 0.0:
            raise PreconditionError("horizon_margin must be nonnegative")

    def cantor(self):
        r = self.cantor_radius
        return build_cantor((-r, r), self.cantor_depth)


def build_problem(cfg: CantelliConfig, cantor: CantorSet | None = None):
    """Measures of the residual transport problem and the normalizer c.

    mu0 is the conditional law of the particles still moving at time t0;
    mu1 is the standard Gaussian conditioned off the Cantor set.  Both
    are probability measures with mean zero, and c is the Gaussian mass
    off the set.
    """
    if cantor is None:
        cantor = cfg.cantor()
    t0 = cfg.t0
    ivals = cantor.float_intervals()
    inside = float(np.sum(measures.ndtr(ivals[:, 1])
                          - measures.ndtr(ivals[:, 0])))
    c = 1.0 - inside
    inv = 1.0 / c

    flat = [-math.inf, *ivals.reshape(-1), math.inf]
    mu0_pieces, mu1_pieces = [], []
    for i, (lo, hi) in enumerate(zip(flat[:-1], flat[1:])):
        if hi <= lo:
            continue
        on_set = i % 2 == 1
        if on_set:
            mu0_pieces.append((lo, hi, [(inv, t0), (-inv, 1.0)]))
            mu1_pieces.append((lo, hi, []))
        else:
            mu0_pieces.append((lo, hi, [(inv, t0)]))
            mu1_pieces.append((lo, hi, [(inv, 1.0)]))
    return from_pieces(mu0_pieces), from_pieces(mu1_pieces), c


@dataclass(frozen=True)
class CantelliResult:
    cantor: CantorSet
    c: float
    f1: PiecewiseLinear
    set_edges: np.ndarray  # the Cantor set's flattened interval endpoints
    C: float
    config: CantelliConfig
    solution: TransportSolution
    mu0n: LatticeMeasure
    mu1n: LatticeMeasure
    diagnostics: dict

    def f(self, x):
        """The glued stopping function: t0 on the Cantor set, t0 + f1 off
        it."""
        xs = np.asarray(x, dtype=float)
        on_set = np.searchsorted(self.set_edges, xs, side="right") % 2 == 1
        t0 = self.config.t0
        out = np.where(on_set, t0, t0 + self.f1(xs))
        return float(out) if np.ndim(x) == 0 else out

    def phi(self, x):
        """phi(x) = sqrt(C - f(x)); positive when C dominates f."""
        out = np.sqrt(np.maximum(self.C - self.f(x), 0.0))
        return float(out) if np.ndim(x) == 0 else out

    def phi_range(self):
        """(inf, sup) of phi over set and node values."""
        on = math.sqrt(self.C - self.config.t0)
        off = np.sqrt(np.maximum(self.C - self.config.t0 - self.f1.ys, 0.0))
        return float(min(off.min(), on)), float(max(off.max(), on))

    def breakpoints(self):
        """Discontinuity and kink locations of f (set edges and nodes)."""
        return np.unique(np.concatenate([self.set_edges, self.f1.xs]))


def run_pipeline(cfg: CantelliConfig | None = None) -> CantelliResult:
    """Assemble the counter-example for the given configuration.

    Builds the Cantor set and the two measures, re-centers them (which
    corrects only round-off, as both are symmetric about 0), and
    discretizes each at mesh 1/n as the law of clip(X, -R, R).  The tail
    mass beyond +-R
    stays on the window's edge nodes, so each measure keeps its total
    mass and, by symmetry, its zero mean, and the cost profile at the
    nodes is the untruncated one less its value at -R.  Then it solves
    the lattice transport and returns f and phi = sqrt(C - f) with C just
    above the largest stopping time.

    ``diagnostics`` records, besides the centring constants and solver
    counts, the wall seconds of each phase (``phase_s``: build, centre,
    discretize, solve, assemble), the solver's ``steps_per_s``, the
    number of steps at which a cell froze (``freeze_steps``) and the mean
    width of the live span in cells (``mean_live_span``).
    """
    marks = [time.perf_counter()]  # phase boundaries
    cfg = cfg or CantelliConfig()
    cantor = cfg.cantor()
    finest = float(min(b - a for a, b in cantor.intervals))
    if finest >= 2.0 / cfg.mesh_n:
        raise PreconditionError(
            f"mesh 1/{cfg.mesh_n} resolves the depth-{cfg.cantor_depth} "
            f"construction (finest interval {finest:.3g} >= hat width "
            f"{2.0 / cfg.mesh_n:.3g}); increase cantor_depth or lower mesh_n"
        )
    mu0, mu1, c = build_problem(cfg, cantor)
    marks.append(time.perf_counter())

    R = cfg.truncation_R
    mu0c, c0, d0 = gamma_center(mu0)
    mu1c, c1, d1 = gamma_center(mu1)
    marks.append(time.perf_counter())
    mu0n = discretize(mu0c, cfg.mesh_n, clip=R)
    mu1n = discretize(mu1c, cfg.mesh_n, clip=R)
    marks.append(time.perf_counter())

    try:
        sol = solve(mu0n, mu1n)
    except PreconditionError as exc:
        raise PreconditionError(
            f"{exc}; the truncated problem violates the transport "
            "hypotheses, try a larger truncation_R or a finer mesh"
        ) from exc
    marks.append(time.perf_counter())

    level = 1.0 - cfg.t0
    f1 = extend_f(sol, left=level, right=level)
    C = cfg.t0 + float(f1.ys.max()) + cfg.horizon_margin
    node_gap = float(np.abs(np.diff(f1.ys)).max())
    marks.append(time.perf_counter())
    phase_s = dict(zip(("build", "centre", "discretize", "solve", "assemble"),
                       np.diff(marks).tolist()))
    diagnostics = {
        "c": c,
        "gamma_c0": c0, "gamma_d0": d0, "gamma_c1": c1, "gamma_d1": d1,
        "steps": sol.steps,
        "expected_time": sol.expected_time,
        "max_time": sol.max_time,
        "modulus_step": node_gap,  # largest f1 jump between adjacent nodes
        # wall times, kept out of every written file
        "phase_s": phase_s,
        "steps_per_s": sol.steps / phase_s["solve"],
        "freeze_steps": sol.freeze_steps,
        "mean_live_span": sol.mean_live_span,
    }
    return CantelliResult(
        cantor=cantor,
        c=c,
        f1=f1,
        set_edges=cantor.float_intervals().reshape(-1),
        C=C,
        config=cfg,
        solution=sol,
        mu0n=mu0n,
        mu1n=mu1n,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class AsymptoticsReport:
    """Behaviour of f1 - (1 - t0) on the far bands of the window."""

    min_deviation: float
    fitted_beta: float
    lower_bound_ok: bool
    inner_band_max: float
    outer_band_max: float
    monotone_ok: bool


def f1_asymptotics_report(res: CantelliResult) -> AsymptoticsReport:
    """Check the tail behaviour of the transport stopping function.

    On nodes with 2 <= |x| <= R - 1 the function should sit above
    1 - t0 - 5/n and decay toward 1 - t0; the positive deviation is
    fitted against exp(-beta x^2) and compared between the bands
    [2, 2.5] and [2.5, 3].
    """
    cfg = res.config
    R = cfg.truncation_R
    if R < 3.0:
        raise PreconditionError("asymptotics need truncation_R >= 3")
    xs, ys = res.f1.xs, res.f1.ys
    level = 1.0 - cfg.t0
    band = (np.abs(xs) >= 2.0) & (np.abs(xs) <= R - 1.0)
    dev = ys[band] - level
    ax = np.abs(xs[band])
    tol = 5.0 / cfg.mesh_n

    pos = dev > 1e-12
    if np.any(pos):
        slope, _ = np.polyfit(ax[pos] ** 2, np.log(dev[pos]), 1)
        beta = -float(slope)
    else:
        beta = math.inf

    inner = (np.abs(xs) >= 2.0) & (np.abs(xs) <= 2.5)
    outer = (np.abs(xs) >= 2.5) & (np.abs(xs) <= 3.0)
    inner_max = float((ys[inner] - level).max())
    outer_max = float((ys[outer] - level).max())
    return AsymptoticsReport(
        min_deviation=float(dev.min()),
        fitted_beta=beta,
        lower_bound_ok=bool(dev.min() >= -tol),
        inner_band_max=inner_max,
        outer_band_max=outer_max,
        monotone_ok=bool(outer_max <= inner_max + 1e-12),
    )
