import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from brownian_transport.bruteforce import exhaustive_transport
from brownian_transport.acceptance import (
    eighth_grid_instances,
    enumerate_instances,
    padded_batches,
    random_feasible_pair,
)
from brownian_transport.errors import (
    ConsistencyError,
    NonTerminationError,
    PreconditionError,
)
from brownian_transport.lattice import LatticeMeasure
from brownian_transport.pipeline import CantelliConfig, run_pipeline
from brownian_transport import solver as solver_module
from brownian_transport.solver import (
    InvariantCheck,
    PiecewiseLinear,
    SolverState,
    _coincidence_violation,
    extend_f,
    init_state,
    joint_window,
    solve,
    solve_batch,
    start_state,
)

DELTA0 = LatticeMeasure(1, 0, np.array([1.0]))
HALVES = LatticeMeasure(1, -1, np.array([0.5, 0.0, 0.5]))
QUARTERS = LatticeMeasure(1, -2, np.array([0.25, 0.25, 0.0, 0.25, 0.25]))
POSITIVE = LatticeMeasure(1, -1, np.array([0.25, 0.5, 0.25]))
UNIFORM5 = LatticeMeasure(1, -2, np.full(5, 0.2))


class Snapshots:
    """solve observer that checks the invariants and keeps a copy of
    every state it sees."""

    FIELDS = ("live", "stopped", "phi", "freeze_step", "survival")

    def __init__(self):
        self.states = []
        self.check = InvariantCheck()

    def __call__(self, state):
        self.check(state)
        self.states.append(SimpleNamespace(
            t=state.t, **{f: getattr(state, f).copy() for f in self.FIELDS}
        ))


def batch_state(pairs):
    """The step-0 batch of instances (mu0, mu1) whose joint windows are
    equally wide, one row each, in order."""
    meshes, offsets, lives, targets = zip(
        *((m0.mesh_n, *joint_window(m0, m1)) for m0, m1 in pairs))
    return start_state(np.array(meshes), np.array(offsets), np.stack(lives),
                       np.stack(targets))


def state_at(mu0, mu1, t):
    """The solver state at step t, read through the observer."""
    snaps = Snapshots()
    solve(mu0, mu1, observe=snaps)
    assert snaps.states[t].t == t
    return snaps.states[t]


class TestInitState:
    def test_identity_has_zero_cost(self):
        st = init_state(POSITIVE, POSITIVE)
        assert np.all(st.phi == 0.0)
        assert np.array_equal(st.live, POSITIVE.masses)
        assert np.all(st.freeze_step == -1)

    def test_point_to_halves_profile(self):
        st = init_state(DELTA0, HALVES)
        assert np.array_equal(st.phi, [0.0, 0.5, 0.0])

    def test_interior_zero_target_rejected(self):
        mu0 = LatticeMeasure(1, -1, np.array([0.25, 0.5, 0.25]))
        mu1 = LatticeMeasure(1, -2, np.array([0.5, 0.0, 0.0, 0.0, 0.5]))
        with pytest.raises(PreconditionError, match="cell 0"):
            init_state(mu0, mu1)

    def test_mesh_mismatch_rejected(self):
        with pytest.raises(PreconditionError, match="mesh"):
            init_state(DELTA0, LatticeMeasure(2, -1, np.array([0.5, 0, 0.5])))

    def test_mean_mismatch_rejected(self):
        shifted = LatticeMeasure(1, 0, np.array([0.5, 0.0, 0.5]))
        with pytest.raises(PreconditionError, match="means"):
            init_state(DELTA0, shifted)

    def test_negative_cost_rejected(self):
        # start wider than the target forces a negative cost
        mu0 = LatticeMeasure(1, -2, np.array([0.5, 0, 0, 0, 0.5]))
        mu1 = LatticeMeasure(1, -1, np.array([0.5, 0.0, 0.5]))
        with pytest.raises(PreconditionError):
            init_state(mu0, mu1)


class TestStepBranches:
    def test_tie_diffuses_fully_and_freezes(self):
        nxt = state_at(DELTA0, HALVES, 1)
        # the center had cost exactly half its mass: survival 1, frozen now
        assert nxt.freeze_step[1] == 0 and nxt.survival[1] == 1.0
        assert np.array_equal(nxt.live, [0.5, 0.0, 0.5])
        assert nxt.phi[1] == 0.0

    def test_full_diffusion_without_freeze(self):
        st = init_state(DELTA0, QUARTERS)
        assert st.phi[2] == 0.75  # above half the unit mass
        nxt = state_at(DELTA0, QUARTERS, 1)
        assert nxt.freeze_step[2] == -1
        assert nxt.phi[2] == 0.25
        assert np.array_equal(nxt.live, [0.0, 0.5, 0.0, 0.5, 0.0])

    def test_zero_cost_cell_absorbs(self):
        nxt = state_at(POSITIVE, POSITIVE, 1)
        assert np.all(nxt.freeze_step == 0)
        assert np.all(nxt.survival == 0.0)
        assert np.all(nxt.live == 0.0)
        assert np.array_equal(nxt.stopped, POSITIVE.masses)

    def test_partial_freeze_splits_mass(self):
        # cost below half the live mass keeps exactly 2 * cost moving
        mu1 = LatticeMeasure(1, -1, np.array([0.1, 0.8, 0.1]))
        st = init_state(DELTA0, mu1)
        assert st.phi[1] == pytest.approx(0.1)
        nxt = state_at(DELTA0, mu1, 1)
        assert nxt.freeze_step[1] == 0
        assert nxt.survival[1] == pytest.approx(0.2)
        assert nxt.stopped[1] == pytest.approx(0.8)
        assert np.allclose(nxt.live, [0.1, 0.0, 0.1])


class TestSolve:
    def test_point_to_halves(self):
        sol = solve(DELTA0, HALVES, observe=InvariantCheck())
        assert np.array_equal(sol.freeze_step, [1, 0, 1])
        assert np.array_equal(sol.survival, [0.0, 1.0, 0.0])
        assert np.array_equal(sol.stopped.masses, [0.5, 0.0, 0.5])
        # two equiprobable one-step paths stop at -1 and 1 at time 1
        assert sol.expected_time == 1.0
        assert sol.max_time == 1.0

    def test_identity_is_instant(self):
        sol = solve(POSITIVE, POSITIVE, observe=InvariantCheck())
        assert np.all(sol.freeze_step == 0)
        assert sol.expected_time == 0.0

    def test_point_to_quarters_matches_oracle(self):
        snaps = Snapshots()
        sol = solve(DELTA0, QUARTERS, observe=snaps)
        assert sol.expected_time == pytest.approx(2.5, abs=1e-12)
        offset, w0, w1 = joint_window(DELTA0, QUARTERS)
        assert offset == sol.offset
        ref = exhaustive_transport(w0, w1)
        assert ref["g"] == sol.freeze_step.tolist()
        # the exact oracle's values, each rounded once to a float
        assert np.array_equal(ref["q"], sol.survival)
        assert np.array_equal(ref["parked"], sol.stopped.masses)
        assert len(snaps.states) == len(ref["walking_history"])
        for ours, theirs in zip(snaps.states, ref["walking_history"]):
            assert np.array_equal(ours.live, np.asarray(theirs))

    def test_oracle_conserves_mass_exactly_at_every_step(self):
        # walking plus parked mass is the input total, 1, at every step of
        # every criterion-1 instance at 4 cells, in exact numerators
        for v0, v1 in enumerate_instances(4):
            w = max(i for i, m in enumerate(v1) if m) + 1
            ref = exhaustive_transport(np.array(v0[:w]) / 8.0,
                                       np.array(v1[:w]) / 8.0)
            bits = ref["scale_bits"]
            assert 1 << bits == 8 // math.gcd(8, *v0, *v1)
            history = list(zip(ref["walking_exact"], ref["parked_exact"]))
            assert len(history) == len(ref["walking_history"])
            for t, (walking, parked) in enumerate(history):
                assert sum(walking) + sum(parked) == 1 << (bits + t)

    def test_expected_time_equals_stop_time_average(self):
        snaps = Snapshots()
        sol = solve(DELTA0, QUARTERS, observe=snaps)
        n2 = sol.mesh_n**2
        from_log = 0.0
        for st, nxt in zip(snaps.states, snaps.states[1:]):
            # stops decided at t carry time t, landings on absorbing
            # cells the rest of the change in stopped, time t + 1
            s = float(np.sum(st.live - np.minimum(st.live, 2.0 * st.phi)))
            landed = float(np.sum(nxt.stopped - st.stopped)) - s
            from_log += st.t * s + (st.t + 1) * landed
        assert sol.expected_time == pytest.approx(from_log / n2, abs=1e-12)

    def test_mass_conserved_and_cost_monotone(self):
        rng = np.random.default_rng(5)
        m1 = rng.uniform(0.05, 1.0, 9)
        m1 = m1 + m1[::-1]  # symmetric target, mean exactly on the center
        m1 /= m1.sum()
        mu1 = LatticeMeasure(1, -4, m1)
        mu0 = LatticeMeasure(1, 0, np.array([1.0]))
        snaps = Snapshots()
        solve(mu0, mu1, observe=snaps)
        first = snaps.states[0]
        total = first.live.sum() + first.stopped.sum()
        for st, nxt in zip(snaps.states, snaps.states[1:]):
            assert nxt.live.sum() + nxt.stopped.sum() == pytest.approx(
                total, abs=1e-12
            )
            assert np.all(nxt.phi <= st.phi + 1e-15)

    @pytest.mark.parametrize("mu1, steps, freeze_steps, span", [
        (HALVES, 2, 2, 2.0),  # widths 1 and 3
        (QUARTERS, 3, 2, 3.0),  # widths 1, 3 and 5
    ])
    def test_freeze_steps_and_mean_live_span(self, mu1, steps, freeze_steps,
                                             span):
        sol = solve(DELTA0, mu1)
        assert (sol.steps, sol.freeze_steps) == (steps, freeze_steps)
        assert sol.mean_live_span == span

    def test_leak_at_the_window_edge_is_raised(self):
        # live mass on the last cell, whose cost lets all of it diffuse,
        # which no state from start_state holds: once on a step that
        # freezes nothing, once on a step at which the cell next to it
        # freezes; the half sent off the window is a drift of the mass
        for phi, frozen in (([0.0, 1.0, 1.0], -1), ([0.0, 0.25, 1.0], 0)):
            batch = SolverState(
                mesh_n=np.array([1]), offset=np.array([0]), t=0,
                live=np.array([[0.0, 1.0, 1.0]]), stopped=np.zeros((1, 3)),
                phi=np.array([phi]), freeze_step=np.full((1, 3), -1),
                survival=np.full((1, 3), np.nan),
                target=np.array([[0.5, 1.0, 0.5]]), rows=np.arange(1),
            )
            with pytest.raises(ConsistencyError) as err:
                solve_batch(batch)
            assert str(err.value) == (
                "mass drift beyond 1e-12 at step 0 (instance 0 of the "
                "batch: mesh 1, window from cell 0)")
            assert batch.freeze_step[0, 1] == frozen

    def test_nontermination_budget(self):
        with pytest.raises(NonTerminationError):
            solve(DELTA0, QUARTERS, max_steps=1)

    def test_edge_cells_freeze_before_leaking(self):
        sol = solve(DELTA0, QUARTERS)
        assert sol.freeze_step[0] >= 0
        assert sol.freeze_step[-1] >= 0
        assert sol.stopped.masses.sum() == pytest.approx(1.0, abs=1e-12)

    def test_stefan_residuals(self):
        # after a cell freezes its cost stays zero and no mass walks there
        snaps = Snapshots()
        solve(DELTA0, QUARTERS, observe=snaps)
        states = snaps.states
        final = states[-1]
        for k in range(final.freeze_step.size):
            g = final.freeze_step[k]
            if g < 0:
                continue
            for s in states:
                if s.t == g + 1:
                    assert s.phi[k] == 0.0
                if s.t > g:
                    assert s.live[k] == 0.0


def assert_same_solution(a, b):
    assert (a.mesh_n, a.offset, a.steps) == (b.mesh_n, b.offset, b.steps)
    assert np.array_equal(a.freeze_step, b.freeze_step)
    assert np.array_equal(a.survival, b.survival)
    assert np.array_equal(a.stopped.masses, b.stopped.masses)
    assert a.expected_time == b.expected_time
    assert a.max_time == b.max_time
    assert a.freeze_steps == b.freeze_steps


def eighths(v):
    return LatticeMeasure(1, 0, np.array(v, dtype=float) / 8.0)


def far_apart_pairs():
    """One window width of 25 cells: point masses at cells 4 and 20, which
    spread toward targets mostly at the near edge, and an identity that
    leaves a batch after one step."""
    def target(masses):
        m = np.zeros(25)
        for cell, eighths in masses.items():
            m[cell] = eighths / 8.0
        return LatticeMeasure(1, 0, m)

    return [
        (LatticeMeasure(1, 4, np.array([1.0])), target({0: 3, 2: 4, 24: 1})),
        (LatticeMeasure(1, 20, np.array([1.0])),
         target({0: 1, 16: 1, 24: 6})),
        (LatticeMeasure(1, 0, np.full(25, 0.04)),
         LatticeMeasure(1, 0, np.full(25, 0.04))),
    ]


class TestBatch:
    def test_criterion_1_instances_match_solve(self):
        pairs = [(eighths(v0), eighths(v1))
                 for v0, v1 in enumerate_instances(4)]
        assert len(pairs) == 227
        widths = [joint_window(*p)[1].size for p in pairs]
        assert min(widths) == 1
        for w in sorted(set(widths)):
            group = [k for k, v in enumerate(widths) if v == w]
            batch = solve_batch(batch_state([pairs[k] for k in group]))
            for k, sol in zip(group, batch):
                assert_same_solution(sol, solve(*pairs[k]))

    def test_mixed_meshes_and_an_early_finisher(self):
        # equal window width 5 at meshes 1, 1, 3 and 2: the uniform
        # identity leaves the batch after one step, the last row after 80
        pairs = [
            (DELTA0, QUARTERS),
            (UNIFORM5, UNIFORM5),
            (LatticeMeasure(3, 0, np.array([1.0])),
             LatticeMeasure(3, -2, QUARTERS.masses)),
            (LatticeMeasure(2, 0, np.array([1.0])),
             LatticeMeasure(2, -2, np.array([0.5, 0.0, 0.0, 0.0, 0.5]))),
        ]
        seen = []
        batch = solve_batch(batch_state(pairs),
                            observe=lambda st: seen.append(st.rows.tolist()))
        singles = [solve(*p) for p in pairs]
        for a, b in zip(batch, singles):
            assert_same_solution(a, b)
        assert [s.steps for s in singles] == [3, 1, 3, 80]
        assert [s.mesh_n for s in batch] == [1, 1, 3, 2]
        assert seen[:6] == [
            [0, 1, 2, 3], [0, 1, 2, 3], [0, 2, 3], [0, 2, 3], [3], [3],
        ]
        assert len(seen) == 81

    def test_far_apart_live_spans_match_solve(self):
        pairs = far_apart_pairs()
        batch = solve_batch(batch_state(pairs))
        singles = [solve(*p) for p in pairs]
        for a, b in zip(batch, singles):
            assert_same_solution(a, b)
        assert [s.steps for s in singles] == [2634, 1454, 1]
        assert [s.freeze_steps for s in batch] == [4, 6, 1]

    def test_both_landing_paths_agree(self, monkeypatch):
        # arrivals on at most FEW_LANDING absorbing cells stop one cell at
        # a time, more through the absorbing mask: each way alone gives
        # the same solutions, one instance and a batch alike
        pairs = far_apart_pairs()
        runs = []
        for few in (0, 10**9):
            monkeypatch.setattr(solver_module, "FEW_LANDING", few)
            runs.append([solve(*p) for p in pairs]
                        + solve_batch(batch_state(pairs)))
        for a, b in zip(*runs):
            assert_same_solution(a, b)

    def test_exhausted_budget_names_the_instance(self):
        slow = LatticeMeasure(1, -1, np.array([0.25, 0.5, 0.25]))
        assert solve(DELTA0, slow).steps == 2
        with pytest.raises(NonTerminationError,
                           match="in 1 steps.*instance 1 of the batch"):
            solve_batch(batch_state([(POSITIVE, POSITIVE), (DELTA0, slow)]),
                        max_steps=1)


class TestStartState:
    @pytest.mark.parametrize("cells, count", [(4, 227), (6, 2902)])
    def test_batch_rows_equal_init_state(self, cells, count):
        # compared as bytes, so a signed zero counts as a difference; the
        # widths of at most 7 cells differ mod 8, so no row is padded
        pairs = enumerate_instances(cells)
        seen = 0
        for batch, pads, arrays in padded_batches(
                eighth_grid_instances(pairs)):
            assert not any(pads)
            state = start_state(*arrays)
            for row, k in enumerate(batch):
                ref = init_state(*(eighths(v) for v in pairs[k]))
                for name in ("phi", "live", "target"):
                    assert (getattr(state, name)[row].tobytes()
                            == getattr(ref, name).tobytes()), (k, name)
                seen += 1
        assert seen == count

    # rows of width 5 at mesh 2 from cell -3; rows 0 and 2 are the
    # transport of a point mass to four quarters
    GOOD = ([0, 0, 1, 0, 0], [0.25, 0.25, 0, 0.25, 0.25])

    @pytest.mark.parametrize("live, target, message", [
        ([0, 0, 0, 0, 0], GOOD[1], "measure has no mass"),
        ([0, 0, 0, 1, 0], GOOD[1], "means differ by 5.000e-01"),
        ([0, 0, 1.5, 0, 0], GOOD[1], "total masses differ"),
        ([0.5, 0, 0, 0, 0.5], [0, 0.5, 0, 0.5, 0],
         "start measure support must lie inside the target support hull"),
        ([0, 1 / 3, 1 / 3, 1 / 3, 0], [0.5, 0, 0, 0, 0.5],
         "target mass vanishes at cell -1 strictly inside"),
        # within the mass and mean tolerances, 2.4e-9 at the right edge
        (GOOD[0], [0.25 + 6e-10, 0.25, 0, 0.25, 0.25],
         "cost at window edge cell 1 is 2.400e-09"),
        ([0.5, 0, 0, 0, 0.5], [0.2] * 5,
         "cost profile is negative at cell -2: -3.000e-01"),
    ])
    def test_each_check_names_the_failing_row(self, live, target, message):
        masses = [np.array([self.GOOD[j], m, self.GOOD[j]], dtype=float)
                  for j, m in enumerate((live, target))]
        with pytest.raises(PreconditionError) as err:
            start_state(np.array([1, 2, 1]), np.array([0, -3, 0]), *masses)
        assert str(err.value).startswith(message)
        assert str(err.value).endswith(
            "(instance 1 of the batch: mesh 2, window from cell -3)")

    @pytest.mark.parametrize("mesh", [0, -2])
    def test_mesh_below_1_names_the_row(self, mesh):
        with pytest.raises(PreconditionError,
                           match=f"^mesh must be at least 1, got {mesh}$"):
            start_state(mesh, 0, np.ones(1), np.ones(1))
        masses = [np.array([g] * 3, dtype=float) for g in self.GOOD]
        with pytest.raises(PreconditionError) as err:
            start_state(np.array([1, mesh, 1]), np.array([0, -3, 0]), *masses)
        assert str(err.value) == (
            f"mesh must be at least 1, got {mesh} (instance 1 of the batch: "
            f"mesh {mesh}, window from cell -3)")

    def test_width_1_batch_solves(self):
        state = start_state(1, 0, np.ones((2, 1)), np.ones((2, 1)))
        sols = solve_batch(state)
        assert [s.steps for s in sols] == [1, 1]
        assert all(s.stopped.masses.tolist() == [1.0] for s in sols)

    def test_the_given_start_masses_stay_as_they_are(self):
        # the run steps the rows of its own occupation array
        live, target = np.ones((2, 1)), np.ones((2, 1))
        assert [s.steps for s in solve_batch(start_state(1, 0, live, target))
                ] == [1, 1]
        assert live.tolist() == [[1.0], [1.0]]

    def test_solve_batch_refuses_one_instance(self):
        with pytest.raises(PreconditionError, match="batch state"):
            solve_batch(init_state(DELTA0, HALVES))


@pytest.mark.parametrize("mesh", range(1, 11))
def test_one_cell_unit_instance_solves_alike_at_every_mesh(mesh):
    # the point mass to four quarters in cell units: the step-0 cost is
    # formed in cells, so every mesh gives the exact oracle's record
    ref = exhaustive_transport(*joint_window(DELTA0, QUARTERS)[1:])
    sol = solve(LatticeMeasure(mesh, 0, DELTA0.masses),
                LatticeMeasure(mesh, -2, QUARTERS.masses))
    assert sol.freeze_step.tolist() == ref["g"] == [2, 1, 2, 1, 2]
    assert sol.survival.tolist() == ref["q"]
    assert sol.steps == len(ref["walking_history"]) - 1 == 3


def test_pipeline_step_0_cost_is_near_the_exact_cost():
    # the same recurrence in exact rationals; the last cell is the window
    # edge, whose cost, the centring residue, the set-up forces to zero
    res = run_pipeline(CantelliConfig(mesh_n=100))
    _, live, target = joint_window(res.mu0n, res.mu1n)
    phi = init_state(res.mu0n, res.mu1n).phi
    below = exact = Fraction(0)
    worst = 0.0
    for x in range(live.size - 1):
        exact += below
        worst = max(worst, abs(float(exact) - phi[x]))
        below += Fraction(target[x]) - Fraction(live[x])
    assert worst < 1e-13


def planted_error(batch, name, value):
    """The error of the point mass to four quarters, solved alone or as
    row 1 of a batch of three, when an observer adds ``value`` to the
    array ``name`` on cell -1 at the top of step 1, where that cell and
    cell 1 hold one half of live mass each."""
    def plant(state):
        if state.t == 1:
            getattr(state, name)[(1, 1) if batch else 1] += value

    with pytest.raises(ConsistencyError) as err:
        if batch:
            solve_batch(batch_state([(DELTA0, QUARTERS)] * 3), observe=plant)
        else:
            solve(DELTA0, QUARTERS, observe=plant)
    return str(err.value)


ROW1 = " (instance 1 of the batch: mesh 1, window from cell -2)"


class TestKernelChecks:
    @pytest.mark.parametrize("batch", [False, True])
    def test_planted_live_mass_is_a_mass_drift(self, batch):
        assert planted_error(batch, "live", 1e-9) == (
            "mass drift beyond 1e-12 at step 1" + (ROW1 if batch else ""))

    @pytest.mark.parametrize("batch", [False, True])
    def test_planted_negative_cost_leaves_a_residual_cost(self, batch):
        # the cost of cell -1 is 1/4 at step 1; at -3/4 that step sends
        # negative halves to its neighbours, the live sum falls below
        # zero, and the run stops at step 2 with cell 0's cost 1/4 left
        assert planted_error(batch, "phi", -1.0) == (
            "live mass exhausted at step 2 with residual cost 2.500e-01"
            + (ROW1 if batch else ""))


def nonnegative_cost(state):
    # the invariant that keeps mass on the window: cost >= 0 everywhere,
    # and exactly 0 on both window edge cells of every row
    assert state.phi.min() >= 0.0, state.t
    assert not state.phi[..., [0, -1]].any(), state.t


@pytest.mark.parametrize("n", [16, 100])
def test_pipeline_cost_stays_nonnegative_at_every_step(n):
    res = run_pipeline(CantelliConfig(mesh_n=n))
    sol = solve(res.mu0n, res.mu1n, observe=nonnegative_cost)
    assert sol.steps == res.solution.steps


def test_criterion_1_batch_costs_stay_nonnegative_at_every_step():
    # criterion 1's instances at 6 cells, and criterion 2's at seed 0,
    # whose rows are padded on the left with zero-cost cells
    rng = np.random.default_rng(0)
    random_pairs = [random_feasible_pair(rng) for _ in range(100)]
    for instances, count in (
            (eighth_grid_instances(enumerate_instances(6)), 2902),
            ({k: (m0.mesh_n, *joint_window(m0, m1))
              for k, (m0, m1) in enumerate(random_pairs)}, 100)):
        solved = 0
        for _, _, arrays in padded_batches(instances):
            solved += len(solve_batch(start_state(*arrays),
                                      observe=nonnegative_cost))
        assert solved == len(instances) == count


def unfrozen_state(live, stopped, phi, target):
    """A state at step 0, of one instance or of a batch of rows at mesh 1,
    that holds the given arrays and no frozen cell."""
    return SolverState(
        mesh_n=1, offset=0, t=0, live=live, stopped=stopped, phi=phi,
        freeze_step=np.full(live.shape, -1),
        survival=np.full(live.shape, np.nan), target=target,
    )


def violating_state():
    """Zero-cost cells 0 and 2 whose target interval holds less mass than
    the occupation: the outer interval order fails."""
    return unfrozen_state(np.array([0.0, 1.0, 0.0]), np.zeros(3),
                          np.array([0.0, 0.5, 0.0]), np.full(3, 0.25))


class TestInvariantCheckRows:
    def test_flags_a_violation_on_one_instance(self):
        with pytest.raises(ConsistencyError, match="outer interval"):
            InvariantCheck()(violating_state())

    def test_flags_the_violating_row_of_a_batch(self):
        # row 1 of three transports of a point mass to halves, on the
        # same window, replaced by the violating state
        batch = batch_state([(DELTA0, HALVES)] * 3)
        bad = violating_state()
        for name in ("live", "stopped", "phi", "target"):
            getattr(batch, name)[1] = getattr(bad, name)
        with pytest.raises(ConsistencyError,
                           match="outer interval.*instance 1 of the batch"):
            InvariantCheck()(batch)
        InvariantCheck()(batch_state([(DELTA0, HALVES)] * 2))

    def test_cost_increase_in_a_compacted_batch(self):
        check = InvariantCheck()
        batch = batch_state([(DELTA0, HALVES)] * 3)
        check(batch)
        batch._keep(np.array([True, False, True]))
        batch.phi[1, 1] += 0.25  # the row of instance 2
        with pytest.raises(ConsistencyError,
                           match="cost increased.*instance 2 of the batch"):
            check(batch)


    def test_rows_match_the_cell_by_cell_reference(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w, n = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            rows = []
            for _ in range(n):
                live, stopped = rng.random(w), rng.random(w)
                target = (live + stopped if rng.random() < 0.3
                          else rng.random(w) * 2.0)
                phi = np.where(rng.random(w) < 0.6, 0.0, rng.random(w))
                rows.append((live, stopped, phi, target))
            states = [unfrozen_state(*row) for row in rows]
            verdicts = [coincidence_reference(st) for st in states]
            for st, verdict in zip(states, verdicts):
                got = _coincidence_violation(st)
                assert (got and got[1].split()[0]) == verdict
            batch = _coincidence_violation(
                unfrozen_state(*map(np.stack, zip(*rows))))
            for kind in ("outer", "inner"):
                if kind in verdicts:
                    assert batch[0] == verdicts.index(kind)
                    assert batch[1].startswith(kind)
                    break
            else:
                assert batch is None


def coincidence_reference(state, tol=1e-10):
    """The coincidence check of one instance, pair by pair of zero-cost
    cells, as a reference for the row-vectorised check."""
    z = np.nonzero(state.phi <= 0.0)[0]
    D = np.concatenate([[0.0], np.cumsum(state.target
                                         - (state.live + state.stopped))])
    for i, x in enumerate(z):
        for y in z[i + 1:]:
            if D[y + 1] < D[x] - tol:
                return "outer"
    for i, x in enumerate(z):
        for y in z[i + 1:]:
            if D[y] > D[x + 1] + tol:
                return "inner"
    return None


class TestExtendF:
    def test_constant_freeze(self):
        sol = solve(POSITIVE, POSITIVE)
        f = extend_f(sol)
        assert f(0.0) == 0.0 and f(-3.0) == 0.0

    def test_node_values_and_interpolation(self):
        sol = solve(DELTA0, HALVES)
        f = extend_f(sol)
        assert np.array_equal(f(sol.positions), sol.freeze_time)
        assert f(0.5) == pytest.approx(0.5)
        assert f(-0.5) == pytest.approx(0.5)

    def test_physical_scaling(self):
        mu0 = LatticeMeasure(4, 0, np.array([1.0]))
        mu1 = LatticeMeasure(4, -1, np.array([0.5, 0.0, 0.5]))
        sol = solve(mu0, mu1)
        f = extend_f(sol)
        # one lattice step at mesh 1/4 is physical time 1/16
        assert f(0.25) == pytest.approx(1.0 / 16.0)
        assert sol.expected_time == pytest.approx(
            mu1.variance() - mu0.variance(), abs=1e-14
        )


def test_piecewise_linear_extension():
    f = PiecewiseLinear(np.array([0.0, 1.0]), np.array([2.0, 3.0]),
                        left=2.0, right=3.0)
    assert f(-5.0) == 2.0 and f(5.0) == 3.0 and f(0.5) == 2.5


def test_solution_csv(tmp_path):
    sol = solve(DELTA0, HALVES)
    path = tmp_path / "solution.csv"
    sol.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "position,g_physical,q"
    assert len(lines) == 4
