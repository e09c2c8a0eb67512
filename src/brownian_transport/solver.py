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
in integer lattice units.  `start_state` is the one set-up: it checks the
transport hypotheses and builds the cost profile row by row from start
and target masses on a common window, and `init_state` is its one-row
case for two `LatticeMeasure`s, placed on their joint support window by
`joint_window`.  A row's default step budget follows its support hull,
so cells padded onto a row do not raise it.  `_advance` is the one
stepping kernel; it acts along the last axis, so one instance is the
one-row case.
`_run` is the one run loop: `solve` runs it on one instance and
`solve_batch` on a batch state.  A row leaves the batch at the step at
which its live mass falls to LIVE_TOL, because stepping it further would
move its residual (about 1e-13) into `stopped`; so every row of a batch
ends bit-identical to `solve` on its instance.  The loop hands the state
to an optional ``observe`` callback at the top of every iteration;
`InvariantCheck`, the live history of the acceptance suite and the CLI
step log are such observers.

The kernel spends work only where mass moves.  The live span of one
instance is the hull [a, b] of the cells that hold live mass; every
elementwise operation runs on it, arrivals are written on [a-1, b+1],
and outside that range a step changes nothing, so the arrays stay
full-width and observers see them as before.  A batch steps whole rows:
a part-row slice of a (rows, cells) array is strided, and numpy works it
row by row, at several times the cost of the whole array for the narrow
windows batches hold.  Most steps freeze nothing (a cell freezes at
754 of the 32 570 steps of the n = 200 pipeline): on such a quiet step
d = live, so nothing stops and the step only halves, subtracts the
halves from the cost and moves them.  A step is quiet when the halved
live mass exceeds the cost on every cell of the range but the absorbing
ones, which carry neither; the test writes into a mask held with the
range and counts the cells that pass, and any other step, and any
doubt, takes the exact update above.  The cost stays nonnegative: a
quiet step has just shown cost > live/2 on every cell that does not
absorb, so cost - live/2 > 0 there, and 0 - 0 on the absorbing cells,
so it needs no PHI_ABORT check; the exact update subtracts
min(live/2, cost).  A negative cost is at most live/2, so the step that
meets one is exact, and that step checks the cost it starts from
against PHI_ABORT.  Arrivals stop on the absorbing cells of the range:
one by one where there are a handful, listed when the range or the
absorbing set changes, and through the absorbing mask otherwise.

The live and stopped masses are the two rows of one occupation array,
of shape (2, cells) or (2, rows, cells), which the run loop sets up, so
one reduction along the last axis gives both full-row sums, each row
summed pairwise as it would be alone.  They stay full-row sums of the
whole window, since a sum over a slice rounds differently; the diffused
mass of a quiet step is the live sum of the step before, the same
reduction of the same numbers.  So freeze steps, survival, stopped
mass, step counts, E T and the maximal time are bit for bit those of
the full-window update.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ConsistencyError, NonTerminationError, PreconditionError
from .lattice import LatticeMeasure, write_csv

PHI_CLAMP = -1e-12  # round-off absorbed silently
PHI_ABORT = -1e-9  # beyond this the run is inconsistent
LIVE_TOL = 1e-12
# arrivals on at most this many absorbing cells stop one cell at a time in
# Python, more through the absorbing mask: the loop costs 0.3-0.5 us a
# cell and the mask product 4-12 us a step, so the loop is the cheaper up
# to 10-24 cells on ranges of 50 and 1 150 cells and on batches of
# 64 x 6 and 256 x 6 cells (2-core x86_64 host); one instance lands on 2
# cells a step in the median, a criterion-1 batch on 14
FEW_LANDING = 8
# the kernel's factors, as 0-d arrays: a ufunc converts a Python float
# operand on every call
_HALF, _TWO = np.array(0.5), np.array(2.0)


@dataclass
class SolverState:
    """The transport iteration at step t, for one instance or a batch.

    The arrays have shape (cells,) for one instance and (rows, cells) for
    a batch, whose `mesh_n`, `offset` and `rows` hold one entry per row.
    When it starts, and whenever rows of a batch finish, the run loop
    replaces the arrays: those of the finished rows are dropped, and
    `live` and `stopped` become the two rows of a new occupation array.
    In between it updates them in place, so an observer that keeps an
    array beyond the current step must copy it.
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
    # the last step at which mass stopped, per row: a record of the run
    _last_stop: np.ndarray = field(init=False, repr=False)
    # set up by the run loop (`_buffers`): the occupation, which holds
    # `live` and `stopped` as its two rows, the kernel's work buffers, the
    # edge cells of live and diffused mass, the full-row sums of live,
    # stopped and diffused mass (rows of `_sums`, written through views
    # shaped like the leading axes), the live span, and the arrival range
    # with its landing cells
    _occupation: np.ndarray = field(init=False, repr=False, default=None)
    _diffused: np.ndarray = field(init=False, repr=False, default=None)
    _half: np.ndarray = field(init=False, repr=False, default=None)
    _passed: np.ndarray = field(init=False, repr=False, default=None)
    _edges: tuple = field(init=False, repr=False, default=None)
    _sums: np.ndarray = field(init=False, repr=False, default=None)
    _sum_out: tuple = field(init=False, repr=False, default=None)
    _span: tuple = field(init=False, repr=False, default=None)
    _range: "_ArrivalRange" = field(init=False, repr=False, default=None)
    _landing: tuple = field(init=False, repr=False, default=None)

    def __post_init__(self):
        self.absorbing = self.freeze_step >= 0
        self._last_stop = np.zeros(math.prod(self.live.shape[:-1]),
                                   dtype=np.int64)

    def _buffers(self):
        lead, w = self.live.shape[:-1], self.live.shape[-1]
        self._occupation = np.stack((self.live, self.stopped))
        self.live, self.stopped = self._occupation
        self._diffused = np.zeros_like(self.live)
        # cell k at index k + 1: the cells beyond both edges hold zero
        self._half = np.zeros(lead + (w + 2,))
        self._passed = np.empty(self.live.shape, dtype=bool)
        ends = np.s_[..., ::max(w - 1, 1)]  # cells 0 and w - 1
        self._edges = self.live[ends], self._diffused[ends]
        self._sums = np.empty((3, math.prod(lead)))
        # the live and stopped sums, and the diffused one
        self._sum_out = (self._sums[:2].reshape((2,) + lead),
                         self._sums[2].reshape(lead))
        np.add.reduce(self._occupation, -1, out=self._sum_out[0])
        # a batch steps whole rows (see the module docstring)
        self._span = _hull(self.live, 0, w - 1) if self.live.ndim == 1 \
            else (0, w - 1)
        self._range = None

    def _keep(self, keep):
        """Drop the rows of a batch where the mask `keep` is false."""
        for name in ("live", "stopped", "phi", "freeze_step", "survival",
                     "target", "absorbing", "mesh_n", "offset", "rows",
                     "_last_stop"):
            setattr(self, name, getattr(self, name)[keep])

    def _name(self, i):
        """Words naming row i in an error: empty for one instance."""
        if self.rows is None:
            return ""
        return (f" (instance {self.rows[i]} of the batch: mesh "
                f"{self.mesh_n[i]}, window from cell {self.offset[i]})")


def joint_window(mu0n: LatticeMeasure, mu1n: LatticeMeasure):
    """The first cell of the joint support window of two measures of one
    mesh, and their start and target masses on it."""
    if mu0n.mesh_n != mu1n.mesh_n:
        raise PreconditionError(
            f"mesh mismatch: {mu0n.mesh_n} vs {mu1n.mesh_n}"
        )
    spans = [m.support_cells() for m in (mu0n, mu1n)]
    lo = min(a for a, _ in spans)
    w = max(b for _, b in spans) - lo + 1
    live, target = np.zeros(w), np.zeros(w)
    for out, m, (a, b) in zip((live, target), (mu0n, mu1n), spans):
        out[a - lo : b - lo + 1] = m.masses[a - m.offset : b - m.offset + 1]
    return lo, live, target


def init_state(mu0n: LatticeMeasure, mu1n: LatticeMeasure) -> SolverState:
    """Validate the transport hypotheses and set up the step-0 state.

    Places both measures on their joint support window (`joint_window`,
    which checks that the meshes agree) and runs the checks of
    `start_state` on it.
    """
    return start_state(mu0n.mesh_n, *joint_window(mu0n, mu1n))


def start_state(mesh_n, offset, live, target) -> SolverState:
    """The step-0 state of one instance or of a batch, from its start
    (``live``) and target masses on a common window of cells offset,
    offset + 1, ... that holds both supports.

    The masses have shape (cells,) for one instance, with integer
    ``mesh_n`` and ``offset``, or (rows, cells) for a batch, with one mesh
    and one offset per row (a scalar applies to every row).  The state
    takes the two arrays as its own; the run loop steps a copy of
    ``live``, so the given array keeps the start masses.  Checked per
    row, in this order: both measures carry mass, equal means and total
    masses (within 1e-9), a start support inside the target's support
    hull, a target positive strictly inside the start support, a cost
    that vanishes at both window edges within the mean tolerance (and is
    then set to 0 there) and is nowhere below PHI_CLAMP.  In a batch the
    error names the failing row's instance.
    """
    live = np.asarray(live, dtype=float)
    target = np.asarray(target, dtype=float)
    if live.shape != target.shape or live.ndim not in (1, 2) \
            or live.shape[-1] == 0:
        raise PreconditionError(
            "start and target masses must share a shape (cells,) or "
            f"(rows, cells), got {live.shape} and {target.shape}"
        )
    batch = live.ndim == 2
    rows, w = (live.shape[0] if batch else 1), live.shape[-1]
    state = SolverState(
        mesh_n=np.full(rows, mesh_n, dtype=np.int64) if batch
        else int(mesh_n),
        offset=np.full(rows, offset, dtype=np.int64) if batch
        else int(offset),
        t=0,
        live=live,
        stopped=np.zeros_like(live),
        phi=np.empty_like(live),
        freeze_step=np.full(live.shape, -1, dtype=np.int64),
        survival=np.full(live.shape, np.nan),
        target=target,
        rows=np.arange(rows) if batch else None,
    )

    def check(bad, message):
        """Raise for the first row where `bad` holds, worded by
        ``message(row)``."""
        hit = np.flatnonzero(bad)
        if hit.size:
            i = int(hit[0])
            raise PreconditionError(message(i) + state._name(i))

    # one row per instance from here on: views of the state's arrays
    m0, m1, phi = (a.reshape(rows, w) for a in (live, target, state.phi))
    n = np.reshape(state.mesh_n, (rows, 1))
    first = np.reshape(state.offset, (rows, 1))
    cells = first + np.arange(w)  # absolute cell indices
    check(~((m0 > 0.0).any(-1) & (m1 > 0.0).any(-1)),
          lambda i: "measure has no mass")
    mass0, mass1 = m0.sum(-1), m1.sum(-1)
    gap = (cells / n * m0).sum(-1) / mass0 - (cells / n * m1).sum(-1) / mass1
    check(np.abs(gap) > 1e-9,
          lambda i: f"means differ by {gap[i]:.3e} (tolerance 1e-9)")
    check(np.abs(mass0 - mass1) > 1e-9, lambda i: "total masses differ")

    # first and last window cell of each support
    lo0, lo1 = (np.argmax(m > 0.0, axis=-1) for m in (m0, m1))
    hi0, hi1 = (w - 1 - np.argmax(m[:, ::-1] > 0.0, axis=-1)
                for m in (m0, m1))
    check((lo0 < lo1) | (hi0 > hi1), lambda i: (
        "start measure support must lie inside the target support hull"))
    k = np.arange(w)
    vanish = (k > lo0[:, None]) & (k < hi0[:, None]) & (m1 <= 0.0)
    check(vanish.any(-1), lambda i: (
        f"target mass vanishes at cell {cells[i, np.argmax(vanish[i])]} "
        "strictly inside the start support"))

    # the cost profile n (Phi1 - Phi0) in integer lattice units, where
    # n Phi(k) = k (mass below k) - (first moment below k, in cells): two
    # exclusive prefix sums along the cell axis
    def primitive(m):
        acc = np.zeros((2, rows, w + 1))
        np.cumsum(m, axis=-1, out=acc[0, :, 1:])
        np.cumsum(cells * m, axis=-1, out=acc[1, :, 1:])
        return (cells * acc[0, :, :w] - acc[1, :, :w]) / n

    phi[...] = n * (primitive(m1) - primitive(m0))
    # both window edges carry cost n * (mean gap), zero for exactly matched
    # inputs; values inside the mean tolerance are forced to zero so the
    # edges absorb, larger residues mean the window cannot hold the transport
    edge_tol = 1.01e-9 * n + 1e-12
    edges = phi[:, ::max(w - 1, 1)]  # cells 0 and w - 1 (one cell if w = 1)
    off = np.abs(edges) > edge_tol
    check(off.any(-1), lambda i: (
        f"cost at window edge cell "
        f"{cells[i, 0] + (w - 1) * int(np.argmax(off[i]))} is "
        f"{edges[i, np.argmax(off[i])]:.3e}; center the measures more "
        "precisely"))
    edges[...] = 0.0
    neg = phi < PHI_CLAMP
    check(neg.any(-1), lambda i: (
        f"cost profile is negative at cell {cells[i, np.argmax(neg[i])]}: "
        f"{phi[i, np.argmax(neg[i])]:.3e}"))
    np.maximum(phi, 0.0, out=phi)
    return state


def _hull(live, lo, hi):
    """First and last cell in [lo, hi] at which the one-instance ``live``
    holds mass, or (0, -1) if none does."""
    # a step moves each end by a cell or two, so both scans are short
    a, b = lo, hi
    while a <= b and not live.item(a):
        a += 1
    while b > a and not live.item(b):
        b -= 1
    return (a, b) if a <= b else (0, -1)


def _advance(state: SolverState):
    """One freeze/diffuse update of the state's arrays, in place, along
    the last axis.

    Works on the arrival range, the live span [a, b] widened by a cell
    on each side within the window (whole rows in a batch); outside it
    the update changes nothing.  Leaves in ``state._sums`` the full-row
    sums of the live and stopped mass after the step and of the diffused
    mass, updates the per-row records, and moves the live span to the
    cells that hold live mass after the step.  A row's last stop is the
    last step at which a nonzero mass stopped or landed in it.  Returns
    whether the step was quiet; a quiet step does not write the sum of
    the diffused mass, which is then the live sum before the step.
    """
    live, t = state.live, state.t
    occupied, diffused = state._sum_out
    if state._range is None:
        a, b = state._span
        _arrival_range(state, max(a - 1, 0), min(b + 1, live.shape[-1] - 1))
    lo, hi, edge, ls, ps, hs, left, right, landing, passed = state._range
    absorbing, few = state._landing

    np.multiply(ls, _HALF, out=hs)
    # 2 phi <= live implies phi <= live / 2 (also where halving rounds),
    # and absorbing cells, with no live mass and no cost, pass too; so
    # when no other cell passes, no cell freezes, and otherwise the exact
    # update runs
    np.less_equal(ps, hs, out=passed)
    quiet = np.count_nonzero(passed) == absorbing
    if quiet:
        # quiet: d == live, nothing stops and the halves are final.  The
        # test has just shown phi > live / 2 on every other cell, so
        # phi - live / 2 > 0 there, and 0 - 0 on the absorbing cells: the
        # cost stays nonnegative and PHI_ABORT needs no check
        if edge and np.count_nonzero(state._edges[0]):
            _leak(state, state._edges[0], t)
    else:
        # a negative cost is at most live / 2, so the step that meets one
        # is exact; the update itself keeps a cost nonnegative, as
        # d / 2 = min(live / 2, phi) <= phi
        if ps.min() < PHI_ABORT:
            _negative_cost(state, ps, lo, hi, t)
        d = state._diffused  # zero outside the range, as d is there
        d[..., :lo] = 0.0
        d[..., hi + 1:] = 0.0
        ds = d[..., lo:hi + 1]
        np.multiply(ps, _TWO, out=ds)
        # absorbing cells hold no live mass, so live > 0 excludes them
        newly = np.less_equal(ds, ls, out=passed)
        newly &= ls > 0.0
        np.minimum(ls, ds, out=ds)
        frozen = np.count_nonzero(newly)
        if frozen:
            np.copyto(state.freeze_step[..., lo:hi + 1], t, where=newly)
            np.divide(ds, ls, out=state.survival[..., lo:hi + 1],
                      where=newly)
            state.absorbing[..., lo:hi + 1] |= newly
            # the new absorbing cells land arrivals from this step on
            absorbing += frozen
            few = few + _cells(newly, lo) \
                if few is not None and absorbing <= FEW_LANDING else None
            state._landing = absorbing, few
        if edge and np.count_nonzero(state._edges[1]):
            _leak(state, state._edges[1], t)
        np.subtract(ls, ds, out=ls)  # the mass stopping at t
        state.stopped[..., lo:hi + 1] += ls
        np.copyto(state._last_stop, t, where=np.logical_or.reduce(ls, -1))
        np.multiply(ds, _HALF, out=hs)
        np.add.reduce(d, -1, out=diffused)
    np.subtract(ps, hs, out=ps)

    # live becomes the arrivals; those on absorbing cells stop at t + 1
    np.add(left, right, out=ls)
    if few is not None:  # the same sums, cell by cell
        stopped, last_stop = state.stopped, state._last_stop
        for i, k in few:
            arrived = live.item(k)
            if arrived:
                stopped[k] = stopped.item(k) + arrived
                live[k] = 0.0
                last_stop[i] = t + 1
    else:
        np.multiply(ls, landing, out=hs)
        state.stopped[..., lo:hi + 1] += hs
        ls -= hs
        np.copyto(state._last_stop, t + 1,
                  where=np.logical_or.reduce(hs, -1))
    # one reduction sums the live and the stopped rows
    np.add.reduce(state._occupation, -1, out=occupied)

    if live.ndim == 1:
        span = _hull(live, lo, hi)
        if span != state._span:
            state._span, state._range = span, None
    state.t = t + 1
    return quiet


def _negative_cost(state, ps, lo, hi, t):
    """Raise for the most negative cost on the range [lo, hi]."""
    j = int(np.argmin(ps))
    i, k = divmod(j, hi - lo + 1)
    cell = int(np.reshape(state.offset, -1)[i]) + lo + k
    raise ConsistencyError(
        f"cost went negative ({ps.flat[j]:.3e}) at cell {cell}, "
        f"step {t}{state._name(i)}"
    )


class _ArrivalRange(NamedTuple):
    """The cells [lo, hi] a step works on, with views of the state's
    arrays on them, and its landing cells, the absorbing ones."""

    lo: int
    hi: int
    # whether the range holds a window edge cell that did not absorb when
    # the range was set up; an absorbing cell holds no live mass at the
    # top of a step and diffuses none
    edge: bool
    live: np.ndarray
    phi: np.ndarray
    half: np.ndarray  # the halves of the range's own cells
    left: np.ndarray  # the halves arriving from the left neighbours
    right: np.ndarray  # the halves arriving from the right neighbours
    landing: np.ndarray  # whether each cell of the range is absorbing
    passed: np.ndarray  # the quiet test's buffer: phi <= live / 2


def _arrival_range(state, lo, hi):
    """Set up the arrival range [lo, hi] as ``state._range``, and its
    landing cells, the absorbing ones, as ``state._landing``: their
    number and, if at most FEW_LANDING, the (row, index into the state's
    arrays) of each."""
    half = state._half
    # the cells beyond the range hold no halves
    half[..., lo] = 0.0
    half[..., hi + 2] = 0.0
    landing = state.absorbing[..., lo:hi + 1]
    absorbing = np.count_nonzero(landing)
    few = _cells(landing, lo) if absorbing <= FEW_LANDING else None
    first, last = state.absorbing[..., 0], state.absorbing[..., -1]
    edge = (lo == 0 and not first.all()) \
        or (hi == state.live.shape[-1] - 1 and not last.all())
    state._range = _ArrivalRange(
        lo, hi, edge,
        state.live[..., lo:hi + 1], state.phi[..., lo:hi + 1],
        half[..., lo + 1:hi + 2], half[..., lo:hi + 1],
        half[..., lo + 2:hi + 3], landing, state._passed[..., lo:hi + 1])
    state._landing = absorbing, few


def _cells(mask, lo):
    """(row, index into the state's arrays) of each cell where ``mask``,
    a mask of the cells from ``lo`` on, holds."""
    *rows, cols = np.nonzero(mask)
    cols = (cols + lo).tolist()
    if not rows:
        return [(0, k) for k in cols]
    rows = rows[0].tolist()
    return list(zip(rows, zip(rows, cols)))


def _leak(state, edges, t):
    """Raise for the first row with mass on a window edge in `edges`."""
    i = int(np.flatnonzero(edges.reshape(-1, edges.shape[-1]).any(-1))[0])
    raise ConsistencyError(
        f"mass diffusing out of the window at step {t}{state._name(i)}"
    )


def _coincidence_violation(state: SolverState):
    """Discrete coincidence check between zero-cost cells, per row.

    For zero cells x < y, with A the occupation (live + stopped) and M the
    target, the interval masses must interlace:
    M[x,y] >= A[x,y] >= A[x+1,y-1] >= M[x+1,y-1].
    Returns (row, message) for the first violation, or None.
    """
    zero = state.phi <= 0.0
    tol = 1e-10  # slack of the interval mass order checks
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
    freeze_steps: int  # steps at which at least one cell froze
    # mean width in cells of the live span the kernel stepped; a batch
    # steps whole rows, so a batch row reports its window width
    mean_live_span: float

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
        write_csv(path, ("position", "g_physical", "q"),
                  zip(self.positions, self.freeze_time, self.survival))


def _run(state: SolverState, max_steps, observe) -> list:
    """The run loop: step `state` until every row's live mass is at most
    LIVE_TOL, and return one TransportSolution per row, in row order.

    Every check holds per row: the mass drift stays within 1e-12, the
    cost has vanished when the live mass runs out, the row terminates
    within its step budget (`_budgets`), and its frozen mass ends within
    1e-9 of the target.  A row leaves the state at the step at which its
    live mass falls to LIVE_TOL.
    """
    budget = _budgets(state, max_steps)
    state._buffers()
    meshes = np.reshape(state.mesh_n, -1).tolist()
    offsets = np.reshape(state.offset, -1).tolist()
    live_sum, stopped_sum, _ = state._sums.tolist()
    total0 = [a + b for a, b in zip(live_sum, stopped_sum)]
    drift_tol = [1e-12 * max(1.0, m) for m in total0]
    moves = np.empty((64, len(meshes)))  # diffused mass per step and row
    spans = 0  # live-span widths summed over the steps taken
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
        if min(live_sum) <= LIVE_TOL:
            keep = np.array(live_sum) > LIVE_TOL
            for i in np.flatnonzero(~keep).tolist():
                solutions[ids[i]] = _solution(
                    state, i, meshes[ids[i]], offsets[ids[i]],
                    moves[:state.t, i], spans)
            if not keep.any():
                return solutions
            state._keep(keep)
            state._buffers()
            moves = moves[:, keep]
            live_sum, total0, drift_tol = (
                [x for x, k in zip(v, keep) if k]
                for v in (live_sum, total0, drift_tol))
            ids = state.rows.tolist()
            limit = min(budget[k] for k in ids)
        t = state.t
        if t == len(moves):
            moves = np.concatenate((moves, np.empty_like(moves)))
        spans += state._span[1] - state._span[0] + 1
        quiet = _advance(state)
        sums = state._sums.tolist()
        # a quiet step moves all the live mass it starts from
        moves[t] = live_sum if quiet else sums[2]
        live_sum, stopped_sum = sums[0], sums[1]
        for i, (a, b, m, tol) in enumerate(
                zip(live_sum, stopped_sum, total0, drift_tol)):
            if abs(a + b - m) > tol:
                raise ConsistencyError(
                    f"mass drift beyond 1e-12 at step {t}{state._name(i)}"
                )


def _budgets(state, max_steps):
    """Each row's step budget: ``max_steps``, or by default
    50 n^2 max(W, 1)^2 for a row whose support hull, the cells from the
    first to the last that carry start or target mass, is W wide in
    physical units.  The hull is the window for a state that `init_state`
    builds; cells padded onto a row do not raise its budget."""
    meshes = np.reshape(state.mesh_n, -1)
    if max_steps is not None:
        if max_steps < 0:
            raise PreconditionError(
                f"max_steps must be nonnegative, got {max_steps}")
        return [max_steps] * meshes.size
    w = state.live.shape[-1]
    held = ((state.live != 0.0) | (state.target != 0.0)).reshape(-1, w)
    # a row that holds nothing spans the window: argmax gives 0 both ways
    width = w - 1 - np.argmax(held[:, ::-1], -1) - np.argmax(held, -1)
    return [int(50 * n**2 * max(c / n, 1.0) ** 2)
            for n, c in zip(meshes.tolist(), width.tolist())]


def _solution(state, i, mesh_n, offset, moves, spans):
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
    # each step at which a cell froze stamped it with its number
    freeze_steps = len(set(freeze_step[~never].tolist()))
    freeze_step[never] = 0
    survival[never] = 0.0
    n2 = float(mesh_n**2)
    return TransportSolution(
        mesh_n=mesh_n,
        offset=offset,
        freeze_step=freeze_step,
        survival=survival,
        stopped=LatticeMeasure(mesh_n, offset, stopped),
        expected_time=math.fsum(moves.tolist()) / n2,
        max_time=int(state._last_stop[i]) / n2,
        steps=state.t,
        freeze_steps=freeze_steps,
        mean_live_span=spans / state.t if state.t else 0.0,
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


def solve_batch(state: SolverState, max_steps=None, observe=None) -> list:
    """Solve a step-0 batch state from `start_state`, and return one
    solution per row, in row order.

    Each solution is bit-identical to `solve` on its instance.  The run
    loop steps the state in place and drops its finished rows.
    ``max_steps`` and ``observe`` act as in `solve`, per row, and the
    observer sees the batch state, whose ``rows`` name the instances
    still running.  An error names the instance of the failing row.
    """
    if state.rows is None:
        raise PreconditionError(
            "solve_batch takes a batch state; solve one instance with solve"
        )
    return _run(state, max_steps, observe)


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
