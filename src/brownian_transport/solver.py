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

A `SolverState` holds one instance, with arrays of shape (cells,), or a
batch of instances of equal window width, with arrays of shape
(rows, cells).  Rows may differ in mesh and offset, since the step works
in integer lattice units.  `_advance` is the one stepping kernel; it acts
along the last axis, so one instance is the one-row case.  `_run` is the
one run loop: `solve` runs it on one instance and `solve_batch` on a
stack of `init_state` results.  A row leaves the batch at the step at
which its live mass falls to LIVE_TOL, because stepping it further would
move its residual (about 1e-13) into `stopped`; so every row of a batch
ends bit-identical to `solve` on its instance.  The loop hands the state
to an optional ``observe`` callback at the top of every iteration;
`InvariantCheck`, the live history of the acceptance suite and the CLI
step log are such observers.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, NonTerminationError, PreconditionError
from .lattice import LatticeMeasure, phi_lattice

PHI_CLAMP = -1e-12  # round-off absorbed silently
PHI_ABORT = -1e-9  # beyond this the run is inconsistent
LIVE_TOL = 1e-12

_ARRAYS = ("live", "stopped", "phi", "freeze_step", "survival", "target")


@dataclass
class SolverState:
    """The transport iteration at step t, for one instance or a batch.

    The arrays have shape (cells,) for one instance and (rows, cells) for
    a batch, whose `mesh_n`, `offset` and `rows` hold one entry per row.
    The run loop updates the arrays in place and, when rows of a batch
    finish, replaces them by the remaining rows, so an observer that
    keeps an array beyond the current step must copy it.
    """

    mesh_n: int | np.ndarray
    offset: int | np.ndarray  # absolute cell index of the window's left edge
    t: int
    live: np.ndarray  # not-yet-stopped mass, zero at absorbing cells
    stopped: np.ndarray  # accumulated frozen mass
    phi: np.ndarray  # integer-unit cost to the target, >= 0
    freeze_step: np.ndarray  # int, -1 while a cell has not frozen
    survival: np.ndarray  # fraction diffusing at the freeze step, NaN before
    target: np.ndarray  # target masses on the window
    rows: np.ndarray | None = None  # batch index of each row, increasing
    absorbing: np.ndarray = field(init=False)  # freeze_step >= 0
    # work buffers of the kernel, set up by the run loop: the diffused
    # mass and a view of its edge cells, the halves, and the per-row sums
    # of live, stopped, diffused, stopping and landing mass, written
    # through views shaped like the arrays' leading axes
    _diffused: np.ndarray = field(init=False, repr=False, default=None)
    _half: np.ndarray = field(init=False, repr=False, default=None)
    _edges: np.ndarray = field(init=False, repr=False, default=None)
    _sums: np.ndarray = field(init=False, repr=False, default=None)
    _sum_out: list = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.absorbing = self.freeze_step >= 0

    def _buffers(self):
        lead, w = self.live.shape[:-1], self.live.shape[-1]
        self._diffused = np.empty_like(self.live)
        self._half = np.empty_like(self.live)
        self._edges = self._diffused[..., ::max(w - 1, 1)]
        self._sums = np.zeros((5, math.prod(lead)))
        self._sum_out = [s.reshape(lead) for s in self._sums]

    @classmethod
    def stack(cls, states):
        """One batch from one-instance states of equal window width at the
        same step; the given states are left as they are."""
        if not states or any(
            s.rows is not None or s.live.shape != states[0].live.shape
            or s.t != states[0].t for s in states
        ):
            raise PreconditionError(
                "a batch stacks one or more one-instance states of equal "
                "window width at the same step"
            )
        stacked = {name: np.stack([getattr(s, name) for s in states])
                   for name in _ARRAYS}
        return cls(
            mesh_n=np.array([s.mesh_n for s in states]),
            offset=np.array([s.offset for s in states]),
            t=states[0].t,
            rows=np.arange(len(states)),
            **stacked,
        )

    def _keep(self, keep):
        """Drop the rows of a batch where the mask `keep` is false."""
        for name in _ARRAYS + ("absorbing", "mesh_n", "offset", "rows"):
            setattr(self, name, getattr(self, name)[keep])
        self._buffers()

    def _name(self, i):
        """Words naming row i in an error: empty for one instance."""
        if self.rows is None:
            return ""
        return (f" (instance {self.rows[i]} of the batch: mesh "
                f"{self.mesh_n[i]}, window from cell {self.offset[i]})")


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
    mu0t, mu1t = mu0n.trimmed(), mu1n.trimmed()
    # the cost profile in integer lattice units over the joint window
    cells = np.arange(lo, hi + 1)
    full = mu0n.mesh_n * (phi_lattice(mu1t, cells) - phi_lattice(mu0t, cells))
    w = cells.size
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

    live = np.zeros(w)
    live[lo0 - lo : hi0 - lo + 1] = mu0t.masses
    target = np.zeros(w)
    target[lo1 - lo : hi1 - lo + 1] = mu1t.masses
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
    """One freeze/diffuse update of the state's arrays, in place, along
    the last axis.

    Leaves in ``state._sums`` the per-row sums of the live and stopped
    mass after the step, of the diffused mass, of the mass stopped at t
    and of the mass landing on absorbing cells, which stops at t + 1.
    """
    live, phi, d, half = state.live, state.phi, state._diffused, state._half
    live_sum, stopped_sum, diffused, stopped_now, landed = state._sum_out
    t = state.t

    np.multiply(phi, 2.0, out=d)
    # absorbing cells hold no live mass, so live > 0 excludes them
    newly = (live > 0.0) & (d <= live)
    np.minimum(live, d, out=d)
    if newly.any():
        state.freeze_step[newly] = t
        state.survival[newly] = d[newly] / live[newly]
        state.absorbing |= newly
    if np.count_nonzero(state._edges):
        i = int(np.flatnonzero(state._edges.any(axis=-1))[0])
        raise ConsistencyError(
            f"mass diffusing out of the window at step {t}{state._name(i)}"
        )

    np.subtract(live, d, out=live)  # the mass stopping at t
    state.stopped += live
    np.add.reduce(live, -1, out=stopped_now)

    np.multiply(d, 0.5, out=half)
    phi -= half
    if phi.min() < PHI_ABORT:
        j = int(np.argmin(phi))
        i, k = divmod(j, phi.shape[-1])
        cell = int(np.reshape(state.offset, -1)[i]) + k
        raise ConsistencyError(
            f"cost went negative ({phi.flat[j]:.3e}) at cell {cell}, "
            f"step {t}{state._name(i)}"
        )

    # live becomes the arrivals; those on absorbing cells stop at t + 1
    live[..., :-1] = half[..., 1:]
    live[..., -1] = 0.0
    live[..., 1:] += half[..., :-1]
    np.multiply(live, state.absorbing, out=half)
    state.stopped += half
    live -= half
    np.add.reduce(d, -1, out=diffused)
    np.add.reduce(half, -1, out=landed)
    np.add.reduce(live, -1, out=live_sum)
    np.add.reduce(state.stopped, -1, out=stopped_sum)
    state.t = t + 1


def _coincidence_violation(state: SolverState, tol=1e-10):
    """Discrete coincidence check between zero-cost cells, per row.

    For zero cells x < y, with A the occupation (live + stopped) and M the
    target, the interval masses must interlace:
    M[x,y] >= A[x,y] >= A[x+1,y-1] >= M[x+1,y-1].
    Returns (row, message) for the first violation, or None.
    """
    zero = state.phi <= 0.0
    # D[..., j] = sum over cells i < j of (target - occupation)
    D = np.zeros(zero.shape[:-1] + (zero.shape[-1] + 1,))
    np.cumsum(state.target - (state.live + state.stopped), axis=-1,
              out=D[..., 1:])
    at_x, past_y = D[..., :-1], D[..., 1:]  # D[x] and D[x + 1] per cell
    # M[x,y] >= A[x,y]  <=>  D[y+1] >= D[x] for all zero pairs x < y;
    # other cells are masked out of the running extremes by -inf / +inf
    run_max = np.maximum.accumulate(np.where(zero, at_x, -np.inf), axis=-1)
    outer = zero[..., 1:] & (past_y[..., 1:] < run_max[..., :-1] - tol)
    # A[x+1,y-1] >= M[x+1,y-1]  <=>  D[y] <= D[x+1]
    run_min = np.minimum.accumulate(np.where(zero, past_y, np.inf), axis=-1)
    inner = zero[..., 1:] & (at_x[..., 1:] > run_min[..., :-1] + tol)
    for bad, msg in ((outer, "outer interval mass order violated"),
                     (inner, "inner interval mass order violated")):
        rows = np.flatnonzero(bad.any(axis=-1))
        if rows.size:
            return int(rows[0]), msg
    return None


class InvariantCheck:
    """Observer for the run loop that asserts, at every step and in every
    row, the discrete coincidence invariant and that no cell's cost
    increases."""

    def __init__(self):
        self.prev_phi = None
        self.prev_rows = None

    def __call__(self, state: SolverState):
        bad = _coincidence_violation(state)
        if bad is not None:
            i, msg = bad
            raise ConsistencyError(
                f"coincidence invariant failed at step {state.t}: "
                f"{msg}{state._name(i)}"
            )
        prev = self.prev_phi
        if prev is not None:
            if prev.shape != state.phi.shape:  # rows have left the batch
                prev = prev[np.isin(self.prev_rows, state.rows)]
            up = np.flatnonzero((state.phi > prev + 1e-15).any(axis=-1))
            if up.size:
                raise ConsistencyError(
                    f"cost increased across a step{state._name(int(up[0]))}"
                )
        self.prev_phi = state.phi.copy()
        self.prev_rows = state.rows


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


def _run(state: SolverState, max_steps, observe) -> list:
    """The run loop: step `state` until every row's live mass is at most
    LIVE_TOL, and return one TransportSolution per row, in row order.

    Every check holds per row: the mass drift stays within 1e-12, the
    cost has vanished when the live mass runs out, the row terminates
    within its step budget (``max_steps``, or by default
    50 n^2 max(W, 1)^2 for a window W wide in physical units), and its
    frozen mass ends within 1e-9 of the target.  A row leaves the state
    at the step at which its live mass falls to LIVE_TOL.
    """
    state._buffers()
    width = state.live.shape[-1] - 1
    meshes = np.reshape(state.mesh_n, -1).tolist()
    offsets = np.reshape(state.offset, -1).tolist()
    budget = [
        int(50 * n**2 * max(width / n, 1.0) ** 2) if max_steps is None
        else max_steps for n in meshes
    ]
    np.add.reduce(state.live, -1, out=state._sum_out[0])
    np.add.reduce(state.stopped, -1, out=state._sum_out[1])
    live_sum, stopped_sum = state._sums[:2].tolist()
    total0 = [a + b for a, b in zip(live_sum, stopped_sum)]
    drift_tol = [1e-12 * max(1.0, m) for m in total0]
    moves = [[] for _ in meshes]  # diffused mass per step, per row
    last_stop = [0] * len(meshes)
    solutions = [None] * len(meshes)
    ids = list(range(len(meshes)))  # the batch index of each current row
    limit = min(budget)

    while True:
        if state.t > limit:
            i = next(i for i, k in enumerate(ids) if state.t > budget[k])
            phi_max = float(state.phi.reshape(len(ids), -1)[i].max())
            raise NonTerminationError(
                f"no termination in {budget[ids[i]]} steps; live mass "
                f"{live_sum[i]:.3e}, max cost {phi_max:.3e}{state._name(i)}"
            )
        if observe is not None:
            observe(state)
        done = [i for i, s in enumerate(live_sum) if s <= LIVE_TOL]
        if done:
            for i in done:
                k = ids[i]
                solutions[k] = _solution(
                    state, i, meshes[k], offsets[k], moves[k], last_stop[k]
                )
            if len(done) == len(ids):
                return solutions
            keep = np.ones(len(ids), dtype=bool)
            keep[done] = False
            state._keep(keep)
            ids = state.rows.tolist()
            limit = min(budget[k] for k in ids)
        t = state.t
        _advance(state)
        live_sum, stopped_sum, diffused, stopped_now, landed = \
            state._sums.tolist()
        for i, k in enumerate(ids):
            if abs(live_sum[i] + stopped_sum[i] - total0[k]) > drift_tol[k]:
                raise ConsistencyError(
                    f"mass drift beyond 1e-12 at step {t}{state._name(i)}"
                )
            moves[k].append(diffused[i])
            # decided stops carry time t, landings on absorbing cells t + 1
            if landed[i] > 0.0:
                last_stop[k] = t + 1
            elif stopped_now[i] > 0.0:
                last_stop[k] = t


def _solution(state, i, mesh_n, offset, moves, last_stop):
    """The solution of row i, whose live mass has run out."""
    w = state.live.shape[-1]
    phi, stopped, target, freeze_step, survival = (
        a.reshape(-1, w)[i] for a in (state.phi, state.stopped, state.target,
                                      state.freeze_step, state.survival)
    )
    phi_max = float(phi.max())
    if phi_max > 1e-9:
        raise ConsistencyError(
            f"live mass exhausted at step {state.t} with residual cost "
            f"{phi_max:.3e}{state._name(i)}"
        )
    worst = float(np.abs(stopped - target).max())
    if worst > 1e-9:
        raise ConsistencyError(
            f"frozen mass differs from the target by {worst:.3e}"
            f"{state._name(i)}"
        )
    never = freeze_step < 0  # cells no mass ever visited
    freeze_step[never] = 0
    survival[never] = 0.0
    n2 = float(mesh_n**2)
    return TransportSolution(
        mesh_n=mesh_n,
        offset=offset,
        freeze_step=freeze_step,
        survival=survival,
        stopped=LatticeMeasure(mesh_n, offset, stopped),
        expected_time=math.fsum(moves) / n2,
        max_time=last_stop / n2,
        steps=state.t,
    )


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
    return _run(init_state(mu0n, mu1n), max_steps, observe)[0]


def solve_batch(states, max_steps=None, observe=None) -> list:
    """Solve `init_state` results of equal window width as one batch.

    Returns their solutions in the given order, each bit-identical to
    `solve` on its instance; the given states are left as they are.
    ``max_steps`` and ``observe`` act as in `solve`, per row, and the
    observer sees the batch state, whose ``rows`` name the instances
    still running.  An error names the instance of the failing row.
    """
    return _run(SolverState.stack(states), max_steps, observe)


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
