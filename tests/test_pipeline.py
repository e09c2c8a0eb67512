import hashlib
import math

import numpy as np
import pytest
from scipy.special import ndtr

import brownian_transport as bt
from brownian_transport.errors import PreconditionError
from brownian_transport.lattice import discretize
from brownian_transport.measures import gamma_center
from brownian_transport.pipeline import (
    CantelliConfig,
    build_problem,
    crossing_radius,
    f1_asymptotics_report,
    run_pipeline,
)

from conftest import (
    bisect_oracle,
    gauss_cdf_series,
    primitive,
    simpson_oracle,
)

SQRT_2PI = math.sqrt(2 * math.pi)


def density_gap(t0, x):
    a = math.exp(-0.5 * x * x / t0) / math.sqrt(2 * math.pi * t0)
    b = math.exp(-0.5 * x * x) / SQRT_2PI
    return a - b


def gauss_mass(a, b, var=1.0):
    """Mass of N(0, var) on [a, b], closed form."""
    s = math.sqrt(var)
    return float(ndtr(b / s) - ndtr(a / s))


class TestCrossingRadius:
    def test_half_matches_bisection_oracle(self):
        got = crossing_radius(0.5)
        assert got == pytest.approx(math.sqrt(math.log(2)), abs=1e-14)
        root = bisect_oracle(lambda x: density_gap(0.5, x), 0.1, 2.0)
        assert got == pytest.approx(root, abs=1e-12)

    def test_limit_toward_one(self):
        assert crossing_radius(1 - 1e-6) == pytest.approx(1.0, abs=1e-5)

    @pytest.mark.parametrize("t0", [0.1, 0.3, 0.5, 0.8, 0.99])
    def test_gap_positive_inside(self, t0):
        assert density_gap(t0, 0.0) > 0.0
        r = crossing_radius(t0)
        assert density_gap(t0, 0.5 * r) > 0.0
        assert abs(density_gap(t0, r)) < 1e-12

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(PreconditionError):
                crossing_radius(bad)


class TestConfig:
    def test_default_radius_under_crossing(self):
        cfg = CantelliConfig()
        assert cfg.cantor_radius == pytest.approx(
            0.8 * crossing_radius(0.5), abs=1e-14
        )

    def test_radius_too_large_rejected(self):
        with pytest.raises(PreconditionError, match="crossing"):
            CantelliConfig(t0=0.5, cantor_radius=0.9)

    def test_bad_t0_rejected(self):
        with pytest.raises(PreconditionError):
            CantelliConfig(t0=1.5)

    def test_mesh_lower_bound(self):
        with pytest.raises(PreconditionError):
            CantelliConfig(mesh_n=8)

    def test_default_depth_resolves_the_mesh(self):
        assert CantelliConfig(mesh_n=400).cantor_depth == 8
        assert CantelliConfig(mesh_n=800).cantor_depth == 9
        assert CantelliConfig(mesh_n=800, cantor_depth=12).cantor_depth == 12
        for n in (400, 800, 1600):
            K = CantelliConfig(mesh_n=n).cantor()
            assert float(min(b - a for a, b in K.intervals)) < 2.0 / n

    def test_unresolvable_depth_rejected(self):
        with pytest.raises(PreconditionError, match="finest"):
            run_pipeline(CantelliConfig(mesh_n=400, cantor_depth=2))


class TestBuildProblem:
    def test_normalizer_against_cdf_oracle(self):
        cfg = CantelliConfig(t0=0.5, cantor_radius=0.6, cantor_depth=8)
        _, _, c = build_problem(cfg)
        K = cfg.cantor()
        inside = sum(
            gauss_cdf_series(float(b)) - gauss_cdf_series(float(a))
            for a, b in K.intervals
        )
        assert c == pytest.approx(1.0 - inside, abs=1e-12)

    def test_densities_and_mass(self):
        cfg = CantelliConfig(t0=0.5, cantor_depth=4, mesh_n=64)
        mu0, mu1, c = build_problem(cfg)
        # off the set the start law is the variance-t0 Gaussian over c, the
        # target the standard one
        a, b = 1.25, 1.75
        assert mu0.moments(a, b)[0] == pytest.approx(
            gauss_mass(a, b, 0.5) / c, rel=1e-12
        )
        assert mu1.moments(a, b)[0] == pytest.approx(
            gauss_mass(a, b) / c, rel=1e-12
        )
        # on the set the target has no mass and the start has the gap
        K = cfg.cantor()
        a, b = (float(v) for v in K.intervals[0])
        assert mu1.moments(a, b) == (0.0, 0.0)
        gap = mu0.moments(a, b)[0]
        assert gap == pytest.approx(
            (gauss_mass(a, b, 0.5) - gauss_mass(a, b)) / c, rel=1e-12
        )
        assert gap > 0.0
        for m in (mu0, mu1):
            mass, mean = m.moments(-math.inf, math.inf)
            assert mass == pytest.approx(1.0, abs=1e-12)
            assert mean == pytest.approx(0.0, abs=1e-12)

    def test_cost_at_origin(self):
        # half the heat-flow time integral between the two variances,
        # scaled by the conditioning constant
        cfg = CantelliConfig(t0=0.5, cantor_depth=6)
        mu0, mu1, c = build_problem(cfg)
        oracle = 0.5 / c * simpson_oracle(
            lambda t: 1.0 / math.sqrt(2 * math.pi * t), 0.5, 1.0
        )
        got = primitive(mu1, 0.0) - primitive(mu0, 0.0)
        assert got == pytest.approx(oracle, abs=1e-10)
        assert got == pytest.approx(
            (1 - math.sqrt(0.5)) / SQRT_2PI / c, abs=1e-12
        )

    def test_cost_positive_on_grid(self):
        cfg = CantelliConfig(cantor_depth=5)
        mu0, mu1, _ = build_problem(cfg)
        xs = np.linspace(-3.5, 3.5, 701)
        vals = np.array([primitive(mu1, x) - primitive(mu0, x) for x in xs])
        assert vals.min() > 0.0

    def test_start_density_nonnegative(self):
        cfg = CantelliConfig(cantor_depth=6)
        mu0, _, _ = build_problem(cfg)
        # every grid cell, split at the piece edges, has nonnegative mass
        xs = np.linspace(-1.0, 1.0, 2001)
        cuts = np.union1d(xs, [e for e in mu0.breakpoints if -1 < e < 1])
        mass = mu0.moments_batch(cuts[:-1], cuts[1:])[0]
        assert np.all(mass >= 0.0)


class TestRunPipeline:
    def test_phi_is_square_root_gap(self, small_pipeline):
        res = small_pipeline
        xs = np.linspace(-3.5, 3.5, 401)
        assert np.allclose(
            np.asarray(res.phi(xs)) ** 2 + np.asarray(res.f(xs)),
            res.C,
            atol=1e-12,
        )

    def test_f_level_on_the_set(self, small_pipeline):
        res = small_pipeline
        for a, b in res.cantor.float_intervals():
            mid = 0.5 * (a + b)
            assert res.f(mid) == res.config.t0
        # off the set strictly above t0 inside the window
        assert res.f(0.0) > res.config.t0

    def test_horizon_dominates(self, small_pipeline):
        res = small_pipeline
        xs = np.linspace(-6, 6, 1501)
        assert res.C >= float(np.asarray(res.f(xs)).max())
        assert res.C == pytest.approx(
            res.config.t0 + res.f1.ys.max() + res.config.horizon_margin
        )

    def test_phi_nonconstant_and_positive(self, small_pipeline):
        lo, hi = small_pipeline.phi_range()
        assert lo > 0.0
        assert hi - lo > 0.01

    def test_expected_time_identity(self, small_pipeline):
        res = small_pipeline
        gap = res.mu1n.variance() - res.mu0n.variance()
        assert res.solution.expected_time == pytest.approx(gap, abs=1e-8)

    def test_gamma_diagnostics_near_one(self, small_pipeline):
        d = small_pipeline.diagnostics
        for key in ("gamma_c0", "gamma_d0", "gamma_c1", "gamma_d1"):
            assert d[key] == pytest.approx(1.0, abs=1e-9)

    def test_grid_cauchy_trend_interior(self):
        # successive meshes approach each other away from the window edges
        runs = {n: run_pipeline(CantelliConfig(mesh_n=n, cantor_depth=6))
                for n in (25, 50, 100)}
        R = runs[25].config.truncation_R
        d = []
        for a, b in ((25, 50), (50, 100)):
            xs = runs[a].f1.xs
            inner = np.abs(xs) <= R - 1.0
            d.append(float(np.abs(
                runs[a].f1.ys[inner] - runs[b].f1(xs[inner])
            ).max()))
        assert d[1] < d[0]

    def test_modulus_diagnostic_present(self, small_pipeline):
        assert small_pipeline.diagnostics["modulus_step"] > 0.0

    def test_phase_timings_in_diagnostics(self, small_pipeline):
        d = small_pipeline.diagnostics
        assert list(d["phase_s"]) == [
            "build", "centre", "discretize", "solve", "assemble"]
        assert all(s >= 0.0 for s in d["phase_s"].values())
        assert d["steps_per_s"] == d["steps"] / d["phase_s"]["solve"]

    # sha256 of freeze_step (<i8), survival and stopped masses (<f8), cut
    # to 16 hex digits, with the step count and E T as recorded before the
    # solver kernel was rewritten in place: a kernel change must keep them
    @pytest.mark.parametrize("n, digest, steps, expected_time", [
        (16, "a0e52c4c498a15e3", 208, "0x1.5db1283c46ee1p-1"),
        (100, "0d2ad55eb8baad7e", 8142, "0x1.5db12a133d583p-1"),
        (200, "b46e246a06d36b8c", 32570, "0x1.5db12a1c87a48p-1"),
    ])
    def test_solve_bit_identical(self, n, digest, steps, expected_time):
        res = run_pipeline(CantelliConfig(mesh_n=n))
        sol = res.solution
        h = hashlib.sha256()
        for arr, dtype in ((sol.freeze_step, "<i8"), (sol.survival, "<f8"),
                           (sol.stopped.masses, "<f8")):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        assert h.hexdigest()[:16] == digest
        assert sol.steps == steps
        assert sol.expected_time == float.fromhex(expected_time)
        # the steps at which some cell froze, and the live-span widths
        # summed over the steps: about 72 % of the 1 601-cell window at
        # n = 200
        d = res.diagnostics
        assert (d["freeze_steps"], d["mean_live_span"] * d["steps"]) == {
            16: (41, 19_086), 100: (373, 4_674_828), 200: (754, 37_425_912),
        }[n]


# the centring constants (c0, d0, c1, d1) as float hex and, for mu0n and
# mu1n, the first cell, the cell count and the sha256 of the masses (<f8),
# as the moments were read one piece at a time: reading the pieces of
# one shape together must keep them
MOMENT_PINS = {
    16: (("0x1.0000000000001p+0", "0x1.0000000000002p+0",
          "0x1.0000000000002p+0", "0x1.0000000000000p+0"),
         (-64, 129, "083da3b21a32e134d663017cd5b17954"
                    "241649a1f317b54781fae90d79a83b83"),
         (-64, 129, "a8ca07a5e4647d18e515f5728565eaa5"
                    "a8eb57130375044d9e86b1754fa8ec7a")),
    200: (("0x1.0000000000001p+0", "0x1.0000000000002p+0",
           "0x1.0000000000002p+0", "0x1.0000000000000p+0"),
          (-800, 1601, "01b6f253bdfcd8119a1db3f5455aece0"
                       "91a8a3ad63b628e86d5e8c0e9c517b99"),
          (-800, 1601, "6fe312a7a5f507a08698645c6b5bf266"
                       "fd42e9c2130fdb8252421c3f8dc90592")),
}


@pytest.mark.parametrize("n", sorted(MOMENT_PINS))
def test_centring_and_discretization_are_pinned(n):
    # run_pipeline's steps before the solve
    cfg = CantelliConfig(mesh_n=n)
    constants, *pins = MOMENT_PINS[n]
    mu0, mu1, _ = build_problem(cfg)
    seen = []
    for mu, (offset, cells, digest) in zip((mu0, mu1), pins):
        centred, c, d = gamma_center(mu)
        seen += [c.hex(), d.hex()]
        m = discretize(centred, n, clip=cfg.truncation_R)
        assert (m.offset, m.masses.size) == (offset, cells)
        assert hashlib.sha256(
            np.ascontiguousarray(m.masses, dtype="<f8").tobytes()
        ).hexdigest() == digest
    assert tuple(seen) == constants


class TestTruncation:
    def test_tails_sit_on_the_window_edges(self, small_pipeline):
        # each measure keeps its mass beyond +-R on the edge nodes instead
        # of spreading it over the inside by renormalising
        res = small_pipeline
        n, R = res.config.mesh_n, res.config.truncation_R
        edge = round(R * n)
        for m, var in ((res.mu0n, res.config.t0), (res.mu1n, 1.0)):
            # init_state's tolerances on the mass and the mean
            assert m.total_mass == pytest.approx(1.0, abs=1e-9)
            assert m.mean() == pytest.approx(0.0, abs=1e-9)
            assert (m.cells[0], m.cells[-1]) == (-edge, edge)
            s = math.sqrt(var)
            tail = (1.0 - gauss_cdf_series(R / s)) / res.c

            def half_hat(x, var=var, s=s):
                weight = 1.0 - n * (R - x)
                return weight * math.exp(-0.5 * x * x / var) / (
                    SQRT_2PI * s * res.c)

            inside = simpson_oracle(half_hat, R - 1.0 / n, R, rtol=1e-13)
            for edge_mass in (m.masses[0], m.masses[-1]):
                assert edge_mass == pytest.approx(tail + inside, abs=1e-12)


class TestAsymptotics:
    def test_report_on_small_pipeline(self, small_pipeline):
        rep = f1_asymptotics_report(small_pipeline)
        n = small_pipeline.config.mesh_n
        assert rep.lower_bound_ok  # 5/n budget at a coarse mesh
        assert rep.min_deviation >= -5.0 / n
        assert rep.monotone_ok
        assert rep.outer_band_max <= rep.inner_band_max
        assert rep.fitted_beta > 0.0

    def test_needs_wide_window(self, small_pipeline):
        cfg = CantelliConfig(truncation_R=2.5, mesh_n=50, cantor_depth=6)
        res = run_pipeline(cfg)
        with pytest.raises(PreconditionError):
            f1_asymptotics_report(res)
