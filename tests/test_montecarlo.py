import math

import numpy as np
import pytest
from scipy.special import ndtr

import brownian_transport as bt
from brownian_transport import montecarlo as mc
from brownian_transport.errors import NonTerminationError, PreconditionError
from brownian_transport.lattice import LatticeMeasure
from brownian_transport.solver import PiecewiseLinear, solve

DELTA0 = LatticeMeasure(1, 0, np.array([1.0]))
HALVES = LatticeMeasure(1, -1, np.array([0.5, 0.0, 0.5]))


def normal_cdf(x, var=1.0):
    return ndtr(np.asarray(x) / math.sqrt(var))


class TestKsDistance:
    def test_single_sample_at_median(self):
        e = mc.EmpiricalMeasure(np.array([0.0]), 0)
        assert mc.ks_distance(e, normal_cdf) == pytest.approx(0.5)

    def test_matching_law_stays_below_asymptotic_band(self):
        # 1.95 / sqrt(m) is the 99.9 percent KS quantile asymptotically
        rng = np.random.Generator(np.random.Philox(key=np.uint64(11)))
        m = 10**6
        e = mc.EmpiricalMeasure(rng.standard_normal(m), 11)
        assert mc.ks_distance(e, normal_cdf) < 1.95 / math.sqrt(m)

    def test_location_shift_lower_bound(self):
        # a shift by delta moves the CDF by at least delta times the
        # density low on the shift interval
        rng = np.random.Generator(np.random.Philox(key=np.uint64(12)))
        m = 10**5
        delta = 0.2
        e = mc.EmpiricalMeasure(rng.standard_normal(m), 12)
        d = mc.ks_distance(e, lambda x: normal_cdf(np.asarray(x) - delta))
        floor = delta * math.exp(-0.5 * delta**2) / math.sqrt(2 * math.pi)
        assert d >= 0.9 * floor

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            mc.ks_distance(mc.EmpiricalMeasure(np.array([]), 0), normal_cdf)


class TestLevyDistance:
    GRID = np.linspace(-3, 3, 3001)

    def test_identity(self):
        assert mc.levy_distance(normal_cdf, normal_cdf, self.GRID) == 0.0

    def test_point_masses(self):
        a = 0.3
        F = lambda x: (np.asarray(x) >= 0).astype(float)
        G = lambda x: (np.asarray(x) >= a).astype(float)
        got = mc.levy_distance(F, G, np.linspace(-1, 2, 6001))
        assert got == pytest.approx(a, abs=1e-3)

    def test_shifted_gaussians(self):
        G = lambda x: normal_cdf(np.asarray(x) - 0.1)
        got = mc.levy_distance(normal_cdf, G, self.GRID)
        assert 0.0 < got <= 0.1


class TestFirstIntersection:
    def test_zero_function_stops_at_start(self):
        start = LatticeMeasure(2, -1, np.array([0.25, 0.5, 0.25]))
        f = PiecewiseLinear(np.array([-1.0, 1.0]), np.zeros(2), 0.0, 0.0)
        r = mc.simulate_first_intersection(
            start, f, mc.PathSimConfig(num_paths=4000, seed=1, max_time=1.0)
        )
        assert np.all(r.times == 0.0)
        emp = np.array([np.mean(r.positions == p) for p in start.positions])
        assert np.allclose(emp, start.masses, atol=0.03)

    def test_constant_level_gives_gaussian(self):
        c = 0.5
        f = PiecewiseLinear(np.array([-9.0, 9.0]), np.full(2, c), c, c)
        r = mc.simulate_first_intersection(
            0.0, f,
            mc.PathSimConfig(num_paths=40000, time_step=1e-3, seed=2,
                             max_time=2.0),
        )
        assert np.allclose(r.times, c)
        d = mc.ks_distance(r.empirical, lambda x: normal_cdf(x, var=c))
        assert d < 1.95 / math.sqrt(40000) + 0.005

    def test_lattice_two_point_law(self):
        sol = solve(DELTA0, HALVES)
        m = 100_000
        r = mc.simulate_first_intersection(
            DELTA0, sol, mc.PathSimConfig(num_paths=m, seed=3, max_time=10.0)
        )
        assert np.all(r.times == 1.0)
        frac = float(np.mean(r.positions > 0))
        assert abs(frac - 0.5) <= 3 * 0.5 / math.sqrt(m)
        d = mc.ks_distance_lattice(r.empirical, sol.stopped)
        assert d <= 1.95 / math.sqrt(m) * 1.5

    def test_crossing_time_matches_function(self):
        # T = f(X_T) up to twice the Euler step
        dt = 5e-4
        f = PiecewiseLinear(np.array([-6.0, 0.0, 6.0]),
                            np.array([0.8, 0.2, 0.8]), 0.8, 0.8)
        r = mc.simulate_first_intersection(
            0.0, f,
            mc.PathSimConfig(num_paths=5000, time_step=dt, seed=4,
                             max_time=5.0),
        )
        gap = np.abs(r.times - f(r.positions))
        assert float(gap.max()) <= 2 * dt

    def test_budget_overrun_fails(self):
        f = PiecewiseLinear(np.array([-9.0, 9.0]), np.full(2, 5.0), 5.0, 5.0)
        with pytest.raises(NonTerminationError):
            mc.simulate_first_intersection(
                0.0, f,
                mc.PathSimConfig(num_paths=100, time_step=1e-2, seed=5,
                                 max_time=1.0),
            )


class _ConstantPhi:
    def __init__(self, k):
        self.k = k
        self.C = 1.0 + k * k

    def phi(self, x):
        return np.full_like(np.asarray(x, dtype=float), self.k)


class TestCounterexampleSampling:
    def test_constant_phi_is_gaussian(self):
        fake = _ConstantPhi(0.7)
        z = mc.simulate_counterexample(
            fake, mc.PathSimConfig(num_paths=200_000, seed=6)
        )
        d = mc.ks_distance(z.empirical, z.target_cdf)
        assert d < 1.95 / math.sqrt(200_000)

    def test_seed_reproducibility(self):
        fake = _ConstantPhi(0.3)
        cfg = mc.PathSimConfig(num_paths=1000, seed=7)
        a = mc.simulate_counterexample(fake, cfg)
        b = mc.simulate_counterexample(fake, cfg)
        assert np.array_equal(a.empirical.samples, b.empirical.samples)

    def test_pipeline_z_statistic(self, small_pipeline):
        z = mc.simulate_counterexample(
            small_pipeline, mc.PathSimConfig(num_paths=200_000, seed=8)
        )
        assert mc.ks_distance(z.empirical, z.target_cdf) < 0.01


class TestHermite:
    def test_constant_function(self):
        rep = mc.hermite_check(
            lambda x: np.full_like(np.asarray(x, dtype=float), 0.7), max_n=16
        )
        assert rep.coeffs[0] == pytest.approx(0.7, abs=1e-12)
        assert rep.phi1_abs < 1e-12
        assert rep.identity_residual < 1e-12
        assert rep.sup_excess == pytest.approx(-1.0, abs=1e-12)

    def test_linear_function_flagged(self):
        # phi = x gives the same law of Z as phi = |x| (Y is symmetric), so
        # its odd part proves nothing; g = x^2 has b_2 = sqrt(2) and
        # Parseval tail E x^4 - 1 = 2, so the residual is 4 + 2
        rep = mc.hermite_check(lambda x: np.asarray(x, dtype=float), max_n=16)
        assert rep.identity_residual == pytest.approx(6.0, abs=1e-10)

    def test_shifted_square_satisfies_identity(self):
        # phi(x) = sqrt(C - x^2 / a) style smooth test via a quadratic:
        # for phi = He_2 scaled, the identity ties its own coefficients
        rep = mc.hermite_check(
            lambda x: 1.0 + 0.0 * np.asarray(x, dtype=float), max_n=12
        )
        assert rep.identity_residual < 1e-12

    def test_residual_independent_of_order(self):
        # a jump makes the expansion of phi^2 converge slowly; the
        # Parseval-closed residual must not move with the order
        def step(x):
            return np.where(np.asarray(x, dtype=float) < 0.5, 0.6, 0.9)

        lo = mc.hermite_check(step, max_n=16, breakpoints=(0.5,))
        hi = mc.hermite_check(step, max_n=64, breakpoints=(0.5,))
        assert hi.tail_estimate < lo.tail_estimate
        assert hi.identity_residual == pytest.approx(lo.identity_residual,
                                                     abs=1e-9)
        assert lo.identity_residual > 0.01

    def test_small_maxn_rejected(self):
        with pytest.raises(PreconditionError):
            mc.hermite_check(lambda x: np.asarray(x), max_n=4)


class TestExpectedTime:
    def test_two_point_instance(self):
        sol = solve(DELTA0, HALVES)
        rep = mc.expected_time_check(sol, DELTA0, HALVES)
        assert rep.passed
        assert rep.expected_time == 1.0
        assert rep.variance_gap == 1.0

    def test_identity_instance(self):
        pos = LatticeMeasure(1, -1, np.array([0.25, 0.5, 0.25]))
        sol = solve(pos, pos)
        rep = mc.expected_time_check(sol, pos, pos)
        assert rep.passed
        assert rep.expected_time == 0.0


class TestFullStoppingRule:
    def test_path_level_law_is_standard_gaussian(self, small_pipeline):
        # kill on the set at t0, then first-cross t0 + f1: the stopped
        # position follows N(0, 1)
        cfg = mc.PathSimConfig(num_paths=20_000, time_step=4e-4, seed=5,
                               max_time=3.0)
        r = mc.simulate_counterexample_paths(small_pipeline, cfg)
        assert r.exceeded == 0
        d = mc.ks_distance(r.empirical, lambda x: normal_cdf(x))
        assert d < 0.025
        # every path's stopping time is bounded by the horizon
        assert float(r.times.max()) < small_pipeline.C
        assert float(r.times.min()) == small_pipeline.config.t0

    def test_survivors_stop_on_the_shifted_branch(self, small_pipeline):
        res = small_pipeline
        dt = 4e-4
        cfg = mc.PathSimConfig(num_paths=5_000, time_step=dt, seed=6,
                               max_time=3.0)
        r = mc.simulate_counterexample_paths(res, cfg)
        t0 = res.config.t0
        survivors = r.times > t0
        gap = np.abs(
            r.times[survivors] - t0 - res.f1(r.positions[survivors])
        )
        assert float(gap.max()) <= 2 * dt

    def test_killed_fraction_matches_set_mass(self, small_pipeline):
        res = small_pipeline
        cfg = mc.PathSimConfig(num_paths=50_000, time_step=1e-3, seed=7,
                               max_time=3.0)
        r = mc.simulate_counterexample_paths(res, cfg)
        t0 = res.config.t0
        killed = float(np.mean(r.times == t0))
        assert killed == pytest.approx(1.0 - res.c, abs=0.01)


def test_stopped_law_approaches_target_with_mesh():
    # weak-star convergence of the discrete stopped laws to the law the
    # solver embeds, clip(X, -R, R) for X under the centred conditioned
    # Gaussian, measured in the Levy metric
    from brownian_transport.measures import gamma_center
    from brownian_transport.pipeline import (
        CantelliConfig,
        build_problem,
        run_pipeline,
    )

    cfg = CantelliConfig(mesh_n=50, cantor_depth=6)
    _, mu1, _ = build_problem(cfg)
    mu1c, _, _ = gamma_center(mu1)
    R = cfg.truncation_R

    def clipped_cdf(x):
        x = np.asarray(x, dtype=float)
        return np.where(x < -R, 0.0, np.where(x >= R, 1.0, mu1c.cdf(x)))

    grid = np.linspace(-4.2, 4.2, 1501)
    dists = []
    for n in (25, 50, 100):
        res = run_pipeline(CantelliConfig(mesh_n=n, cantor_depth=6))
        F = mc.lattice_cdf(res.solution.stopped)
        dists.append(mc.levy_distance(F, clipped_cdf, grid))
    assert all(a >= 1.5 * b for a, b in zip(dists, dists[1:])), dists


def test_empirical_measure_sorted_and_streamable(tmp_path):
    e = mc.EmpiricalMeasure(np.array([0.3, -1.2, 0.0]), 0)
    assert np.array_equal(e.samples, [-1.2, 0.0, 0.3])
    assert e.count == 3
    e.to_csv(tmp_path / "samples.csv")
    lines = (tmp_path / "samples.csv").read_text().splitlines()
    assert lines[0] == "sample" and len(lines) == 4


def test_lattice_simulation_reproducible_and_seed_sensitive():
    sol = solve(DELTA0, HALVES)
    cfg = mc.PathSimConfig(num_paths=2000, seed=9, max_time=5.0)
    a = mc.simulate_first_intersection(DELTA0, sol, cfg)
    b = mc.simulate_first_intersection(DELTA0, sol, cfg)
    assert np.array_equal(a.positions, b.positions)
    c = mc.simulate_first_intersection(
        DELTA0, sol, mc.PathSimConfig(num_paths=2000, seed=10, max_time=5.0)
    )
    assert not np.array_equal(a.positions, c.positions)
