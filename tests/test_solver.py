import math
from types import SimpleNamespace

import numpy as np
import pytest

from brownian_transport.bruteforce import exhaustive_transport
from brownian_transport.errors import (
    NonTerminationError,
    PreconditionError,
)
from brownian_transport.lattice import LatticeMeasure
from brownian_transport.solver import (
    InvariantCheck,
    PiecewiseLinear,
    component_collapse_diagnostic,
    extend_f,
    init_state,
    solve,
)

DELTA0 = LatticeMeasure(1, 0, np.array([1.0]))
HALVES = LatticeMeasure(1, -1, np.array([0.5, 0.0, 0.5]))
QUARTERS = LatticeMeasure(1, -2, np.array([0.25, 0.25, 0.0, 0.25, 0.25]))
POSITIVE = LatticeMeasure(1, -1, np.array([0.25, 0.5, 0.25]))


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
        hi = sol.offset + sol.freeze_step.size - 1
        w0 = DELTA0.trimmed().with_window(sol.offset, hi).masses
        w1 = QUARTERS.trimmed().with_window(sol.offset, hi).masses
        ref = exhaustive_transport(w0, w1)
        assert ref["g"] == sol.freeze_step.tolist()
        assert np.allclose(ref["q"], sol.survival, atol=0)
        assert np.allclose(ref["parked"], sol.stopped.masses, atol=0)
        assert len(snaps.states) == len(ref["walking_history"])
        for ours, theirs in zip(snaps.states, ref["walking_history"]):
            assert np.array_equal(ours.live, np.asarray(theirs))

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


def test_component_collapse_ratios_bounded():
    ratios = component_collapse_diagnostic(DELTA0, QUARTERS)
    assert ratios
    assert all(r >= 0.0 for r in ratios)
    assert max(ratios) < 10.0


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
