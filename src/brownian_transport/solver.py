"""Deterministic freeze/diffuse engine for discrete Brownian transport.

State at integer step t holds the live mass vector (particles still
walking), the frozen mass accumulated so far, and the cost-to-target
profile in integer lattice units.  One step decides, simultaneously from
the time-t snapshot, how much mass diffuses on from each cell:

  d = min(live, 2 * cost)

which covers every case at once, because the factors 2 and 1/2 are
exact in floating point:

  cost(x) = 0            cell is (or becomes) absorbing, live mass stops
  0 < cost(x) < live/2   partial freeze: exactly 2*cost(x) diffuses on,
                         the rest stops; the cell absorbs afterwards
  cost(x) >= live/2      full diffusion (equality also stamps the freeze
                         step, with survival 1)

then the diffusing mass splits in halves onto the two neighbours and the
cost profile decreases by d/2.  Mass reaching an absorbing cell stops
there at its arrival step.  The procedure terminates with the frozen
mass equal to the target measure.

`solve` is the only run loop.  It updates one `SolverState` in place and
hands it to an optional ``observe`` callback at the top of every
iteration; `InvariantCheck`, the live history of the acceptance suite,
`component_collapse_diagnostic` and the CLI step log are such observers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, NonTerminationError, PreconditionError
from .lattice import LatticeMeasure, phi_cells

PHI_CLAMP = -1e-12  # round-off absorbed silently
PHI_ABORT = -1e-9  # beyond this the run is inconsistent
LIVE_TOL = 1e-12


@dataclass
class SolverState:
    """The transport iteration at step t.

    `solve` updates the arrays in place, so an observer that keeps one
    beyond the current step must copy it.
    """

    mesh_n: int
    offset: int  # absolute cell index of the window's left edge
    t: int
    live: np.ndarray  # not-yet-stopped mass, zero at absorbing cells
    stopped: np.ndarray  # accumulated frozen mass
    phi: np.ndarray  # integer-unit cost to the target, >= 0
    freeze_step: np.ndarray  # int, -1 while a cell has not frozen
    survival: np.ndarray  # fraction diffusing at the freeze step, NaN before
    target: np.ndarray  # target masses on the window
    absorbing: np.ndarray = field(init=False)  # freeze_step >= 0
    # per-step work buffers of the kernel
    _diffused: np.ndarray = field(init=False, repr=False)
    _half: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.absorbing = self.freeze_step >= 0
        self._diffused = np.empty_like(self.live)
        self._half = np.empty_like(self.live)

    def total_mass(self):
        return float(self.live.sum() + self.stopped.sum())


def init_state(mu0n: LatticeMeasure, mu1n: LatticeMeasure) -> SolverState:
    """Validate the transport hypotheses and set up the step-0 state.

    Requirements checked cell by cell: equal meshes, equal means, a
    nonnegative cost profile, and a target that is positive everywhere
    between the first and last cell of the start measure.
    """
    if mu0n.mesh_n != mu1n.mesh_n:
        raise PreconditionError(
            f"mesh mismatch: {mu0n.mesh_n} vs {mu1n.mesh_n}"
        )
    gap = mu0n.mean() - mu1n.mean()
    if abs(gap) > 1e-9:
        raise PreconditionError(f"means differ by {gap:.3e} (tolerance 1e-9)")
    if abs(mu0n.total_mass - mu1n.total_mass) > 1e-9:
        raise PreconditionError("total masses differ")

    lo0, hi0 = mu0n.support_cells()
    lo1, hi1 = mu1n.support_cells()
    if lo0 < lo1 or hi0 > hi1:
        raise PreconditionError(
            "start measure support must lie inside the target support hull"
        )
    if hi0 - lo0 >= 2:
        tgt = mu1n.masses[lo0 + 1 - mu1n.offset : hi0 - mu1n.offset]
        zero = np.nonzero(tgt <= 0.0)[0]
        if zero.size:
            cell = lo0 + 1 + int(zero[0])
            raise PreconditionError(
                f"target mass vanishes at cell {cell} strictly inside the "
                "start support"
            )

    lo, hi = min(lo0, lo1), max(hi0, hi1)
    cells, phi = phi_cells(mu0n.trimmed(), mu1n.trimmed())
    full = np.zeros(hi - lo + 1)
    full[cells - lo] = phi
    # both window edges carry cost n * (mean gap), zero for exactly matched
    # inputs; values inside the mean tolerance are forced to zero so the
    # edges absorb, larger residues mean the window cannot hold the transport
    edge_tol = 1.01e-9 * mu0n.mesh_n + 1e-12
    for k in (0, full.size - 1):
        if abs(full[k]) > edge_tol:
            raise PreconditionError(
                f"cost at window edge cell {lo + k} is {full[k]:.3e}; "
                "center the measures more precisely"
            )
        full[k] = 0.0
    neg = np.nonzero(full < PHI_CLAMP)[0]
    if neg.size:
        cell = lo + int(neg[0])
        raise PreconditionError(
            f"cost profile is negative at cell {cell}: {full[cell - lo]:.3e}"
        )
    full = np.maximum(full, 0.0)

    live = mu0n.trimmed().with_window(lo, hi).masses.copy()
    target = mu1n.trimmed().with_window(lo, hi).masses.copy()
    w = hi - lo + 1
    return SolverState(
        mesh_n=mu0n.mesh_n,
        offset=lo,
        t=0,
        live=live,
        stopped=np.zeros(w),
        phi=full,
        freeze_step=np.full(w, -1, dtype=np.int64),
        survival=np.full(w, np.nan),
        target=target,
    )


def _advance(state: SolverState):
    """One freeze/diffuse update of the state's arrays, in place.

    Returns (diffused mass, mass stopped at t, mass landing on absorbing
    cells, which stops at t + 1).
    """
    live, phi, d, half = state.live, state.phi, state._diffused, state._half
    t = state.t

    np.multiply(phi, 2.0, out=d)
    # absorbing cells hold no live mass, so live > 0 excludes them
    newly = (live > 0.0) & (d <= live)
    np.minimum(live, d, out=d)
    if newly.any():
        state.freeze_step[newly] = t
        state.survival[newly] = d[newly] / live[newly]
        state.absorbing |= newly
    if d[0] != 0.0 or d[-1] != 0.0:
        raise ConsistencyError(
            f"mass diffusing out of the window at step {t}"
        )

    np.subtract(live, d, out=live)  # the mass stopping at t
    state.stopped += live
    stopped_now = float(live.sum())

    np.multiply(d, 0.5, out=half)
    phi -= half
    if phi.min() < PHI_ABORT:
        k = int(np.argmin(phi))
        raise ConsistencyError(
            f"cost went negative ({phi[k]:.3e}) at cell "
            f"{state.offset + k}, step {t}"
        )

    # live becomes the arrivals; those on absorbing cells stop at t + 1
    live[:-1] = half[1:]
    live[-1] = 0.0
    live[1:] += half[:-1]
    np.multiply(live, state.absorbing, out=half)
    state.stopped += half
    live -= half
    state.t = t + 1
    return float(d.sum()), stopped_now, float(half.sum())


def _coincidence_violation(state: SolverState, tol=1e-10):
    """Discrete coincidence check between zero-cost cells.

    For zero cells x < y, with A the occupation (live + stopped) and M the
    target, the interval masses must interlace:
    M[x,y] >= A[x,y] >= A[x+1,y-1] >= M[x+1,y-1].
    """
    z = np.nonzero(state.phi <= 0.0)[0]
    if z.size < 2:
        return None
    occ = state.live + state.stopped
    # D[j] = sum over cells i < j of (target - occupation)
    D = np.concatenate([[0.0], np.cumsum(state.target - occ)])
    at_x = D[z]  # D[x] per zero cell
    past_y = D[z + 1]  # D[y+1] per zero cell
    # M[x,y] >= A[x,y]  <=>  D[y+1] >= D[x] for all zero pairs x < y
    run_max = np.maximum.accumulate(at_x)
    if np.any(past_y[1:] < run_max[:-1] - tol):
        return "outer interval mass order violated"
    # A[x+1,y-1] >= M[x+1,y-1]  <=>  D[y] <= D[x+1]
    run_min = np.minimum.accumulate(past_y)
    if np.any(at_x[1:] > run_min[:-1] + tol):
        return "inner interval mass order violated"
    return None


class InvariantCheck:
    """Observer for `solve` that asserts, at every step, the discrete
    coincidence invariant and that no cell's cost increases."""

    def __init__(self):
        self.prev_phi = None

    def __call__(self, state: SolverState):
        msg = _coincidence_violation(state)
        if msg is not None:
            raise ConsistencyError(
                f"coincidence invariant failed at step {state.t}: {msg}"
            )
        if self.prev_phi is not None and np.any(
            state.phi > self.prev_phi + 1e-15
        ):
            raise ConsistencyError("cost increased across a step")
        self.prev_phi = state.phi.copy()


@dataclass(frozen=True)
class TransportSolution:
    """Outcome of a terminated freeze/diffuse run (physical units)."""

    mesh_n: int
    offset: int
    freeze_step: np.ndarray  # per-cell freeze step (integer time units)
    survival: np.ndarray  # per-cell diffusing fraction at the freeze step
    stopped: LatticeMeasure  # final frozen mass, equals the target measure
    expected_time: float
    max_time: float
    steps: int

    @property
    def cells(self):
        return self.offset + np.arange(self.freeze_step.size)

    @property
    def positions(self):
        return self.cells / self.mesh_n

    @property
    def freeze_time(self):
        """Per-cell freeze time in physical units (step / n^2)."""
        return self.freeze_step / float(self.mesh_n**2)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("position,g_physical,q\n")
            for x, g, q in zip(self.positions, self.freeze_time,
                               self.survival):
                fh.write(f"{x:.17g},{g:.17g},{q:.17g}\n")


def solve(
    mu0n: LatticeMeasure,
    mu1n: LatticeMeasure,
    max_steps: int | None = None,
    observe=None,
) -> TransportSolution:
    """Run the freeze/diffuse iteration until all mass has stopped.

    Stops when the cost profile has vanished and the live mass is below
    1e-12; the frozen measure then equals the target cellwise.  Raises
    NonTerminationError with residual diagnostics if the step budget runs
    out first.  ``observe(state)``, if given, runs at the top of every
    iteration, the terminating one included; it must not modify the
    state, whose arrays change in place after it returns.
    """
    state = init_state(mu0n, mu1n)
    if max_steps is None:
        width = (state.live.size - 1) / state.mesh_n
        max_steps = int(50 * state.mesh_n**2 * max(width, 1.0) ** 2)

    total0 = state.total_mass()
    moves = []
    last_stop = 0

    while state.t <= max_steps:
        if observe is not None:
            observe(state)
        if float(state.live.sum()) <= LIVE_TOL:
            phi_max = float(state.phi.max())
            if phi_max <= 1e-9:
                break
            raise ConsistencyError(
                f"live mass exhausted at step {state.t} with residual cost "
                f"{phi_max:.3e}"
            )
        t = state.t
        diffused_sum, stopped_now, landed = _advance(state)
        if abs(state.total_mass() - total0) > 1e-12 * max(1.0, total0):
            raise ConsistencyError(f"mass drift beyond 1e-12 at step {t}")
        moves.append(diffused_sum)
        # decided stops carry time t, landings on absorbing cells t + 1
        if landed > 0.0:
            last_stop = t + 1
        elif stopped_now > 0.0:
            last_stop = t
    else:
        raise NonTerminationError(
            f"no termination in {max_steps} steps; live mass "
            f"{float(state.live.sum()):.3e}, max cost "
            f"{float(state.phi.max()):.3e}"
        )

    residual = state.stopped - state.target
    worst = float(np.abs(residual).max())
    if worst > 1e-9:
        raise ConsistencyError(
            f"frozen mass differs from the target by {worst:.3e}"
        )

    n2 = float(state.mesh_n**2)
    freeze_step = state.freeze_step
    survival = state.survival
    never = freeze_step < 0  # cells no mass ever visited
    freeze_step[never] = 0
    survival[never] = 0.0

    return TransportSolution(
        mesh_n=state.mesh_n,
        offset=state.offset,
        freeze_step=freeze_step,
        survival=survival,
        stopped=LatticeMeasure(state.mesh_n, state.offset, state.stopped),
        expected_time=math.fsum(moves) / n2,
        max_time=last_stop / n2,
        steps=state.t,
    )


def component_collapse_diagnostic(mu0n: LatticeMeasure, mu1n: LatticeMeasure,
                                  max_steps=100_000):
    """Empirical collapse ratios of the not-yet-frozen intervals.

    For every maximal run of positive-cost cells present at a step, the
    physical time until the whole run freezes is divided by the run's
    physical width.  The maximum ratio is a diagnostic constant; theory
    bounds it but assigns it no value.
    """
    masks = []
    solve(mu0n, mu1n, max_steps=max_steps,
          observe=lambda state: masks.append(state.phi > 0.0))
    alive = np.vstack(masks)
    # first step at which each cell's cost has vanished for good
    zero_from = np.where(
        alive.any(axis=0), alive.shape[0] - np.argmax(alive[::-1], axis=0),
        0,
    )
    n2 = float(mu0n.mesh_n**2)
    ratios = []
    for t, mask in enumerate(masks):
        runs = np.nonzero(np.diff(np.concatenate([[0], mask.view(np.int8),
                                                  [0]])))[0].reshape(-1, 2)
        for a, b in runs:
            width = (b - a) / mu0n.mesh_n
            vanish = int(zero_from[a:b].max())
            ratios.append(((vanish - t) / n2) / width)
    return ratios


@dataclass(frozen=True)
class PiecewiseLinear:
    """Piecewise-linear function on a node grid with constant extensions."""

    xs: np.ndarray
    ys: np.ndarray
    left: float
    right: float

    def __call__(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.xs, self.ys,
                        left=self.left, right=self.right)
        return float(out) if np.ndim(x) == 0 else out


def extend_f(sol: TransportSolution, left=None, right=None) -> PiecewiseLinear:
    """Extend the per-cell freeze times to a piecewise-linear function.

    Node values are the physical freeze times g(k)/n^2; between nodes the
    function interpolates linearly, and outside the window it continues
    with the given constants (edge values by default).
    """
    ys = sol.freeze_time
    if np.any(sol.freeze_step < 0):
        raise ConsistencyError("freeze time undefined on part of the window")
    xs = sol.positions
    return PiecewiseLinear(
        xs=xs,
        ys=ys,
        left=float(ys[0]) if left is None else float(left),
        right=float(ys[-1]) if right is None else float(right),
    )
