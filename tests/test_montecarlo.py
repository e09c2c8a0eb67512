import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtr

import brownian_transport as bt
from brownian_transport import montecarlo as mc
from brownian_transport.errors import NonTerminationError, PreconditionError
from brownian_transport.lattice import LatticeMeasure
from brownian_transport.solver import PiecewiseLinear, solve

from conftest import lattice_cdf, levy_distance

DELTA0 = LatticeMeasure(1, 0, np.array([1.0]))
HALVES = LatticeMeasure(1, -1, np.array([0.5, 0.0, 0.5]))
QUARTERS = LatticeMeasure(1, -2, np.array([0.25, 0.25, 0.0, 0.25, 0.25]))


def normal_cdf(x, var=1.0):
    return ndtr(np.asarray(x) / math.sqrt(var))


class TestKsDistance:
    def test_single_sample_at_median(self):
        e = mc.EmpiricalMeasure(np.array([0.0]))
        assert mc.ks_distance(e, normal_cdf) == pytest.approx(0.5)

    def test_matching_law_stays_below_asymptotic_band(self):
        # 1.95 / sqrt(m) is the 99.9 percent KS quantile asymptotically
        rng = np.random.Generator(np.random.Philox(key=np.uint64(11)))
        m = 10**6
        e = mc.EmpiricalMeasure(rng.standard_normal(m))
        assert mc.ks_distance(e, normal_cdf) < 1.95 / math.sqrt(m)

    def test_location_shift_lower_bound(self):
        # a shift by delta moves the CDF by at least delta times the
        # density low on the shift interval
        rng = np.random.Generator(np.random.Philox(key=np.uint64(12)))
        m = 10**5
        delta = 0.2
        e = mc.EmpiricalMeasure(rng.standard_normal(m))
        d = mc.ks_distance(e, lambda x: normal_cdf(np.asarray(x) - delta))
        floor = delta * math.exp(-0.5 * delta**2) / math.sqrt(2 * math.pi)
        assert d >= 0.9 * floor

    def test_empty_rejected(self):
        with pytest.raises(PreconditionError):
            mc.ks_distance(mc.EmpiricalMeasure(np.array([])), normal_cdf)


class TestLevyDistance:
    GRID = np.linspace(-3, 3, 3001)

    def test_identity(self):
        assert levy_distance(normal_cdf, normal_cdf, self.GRID) == 0.0

    def test_point_masses(self):
        a = 0.3
        F = lambda x: (np.asarray(x) >= 0).astype(float)
        G = lambda x: (np.asarray(x) >= a).astype(float)
        got = levy_distance(F, G, np.linspace(-1, 2, 6001))
        assert got == pytest.approx(a, abs=1e-3)

    def test_shifted_gaussians(self):
        G = lambda x: normal_cdf(np.asarray(x) - 0.1)
        got = levy_distance(normal_cdf, G, self.GRID)
        assert 0.0 < got <= 0.1


class TestFirstIntersection:
    def test_zero_function_stops_at_start(self):
        # the identity transport freezes every cell at step 0
        start = LatticeMeasure(2, -1, np.array([0.25, 0.5, 0.25]))
        sol = solve(start, start)
        assert not sol.freeze_step.any()
        r = mc.simulate_first_intersection(
            start, sol, mc.PathSimConfig(num_paths=4000, seed=1, max_time=1.0)
        )
        assert np.all(r.times == 0.0)
        emp = np.array([np.mean(r.positions == p) for p in start.positions])
        assert np.allclose(emp, start.masses, atol=0.03)

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

    def test_budget_overrun_fails(self):
        # the outer cells freeze at step 2, past max_time = 1 step
        sol = solve(DELTA0, QUARTERS)
        with pytest.raises(NonTerminationError, match="exceeded max_time"):
            mc.simulate_first_intersection(
                DELTA0, sol,
                mc.PathSimConfig(num_paths=1000, seed=5, max_time=1.0),
            )

    def test_callable_stopping_refused(self):
        f = PiecewiseLinear(np.array([-9.0, 9.0]), np.full(2, 0.5), 0.5, 0.5)
        with pytest.raises(PreconditionError, match="not by a PiecewiseLinear"):
            mc.simulate_first_intersection(
                DELTA0, f, mc.PathSimConfig(num_paths=100, seed=5)
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
    _, mu1, c = build_problem(cfg)
    _, left, right = gamma_center(mu1)
    R = cfg.truncation_R
    lo, hi = cfg.cantor().float_intervals().T

    def mu1_cdf(x):
        # N(0, 1) less its mass on the Cantor intervals, over c
        x = np.asarray(x, dtype=float)[..., None]
        on_set = (ndtr(np.minimum(hi, x)) - ndtr(np.minimum(lo, x))).sum(-1)
        return (ndtr(x[..., 0]) - on_set) / c

    F0 = mu1_cdf(0.0)

    def clipped_cdf(x):
        # the two sides of 0 reweighted as gamma_center does
        F = mu1_cdf(x)
        F = left * np.minimum(F, F0) + right * np.maximum(F - F0, 0.0)
        x = np.asarray(x, dtype=float)
        return np.where(x < -R, 0.0, np.where(x >= R, 1.0, F))

    grid = np.linspace(-4.2, 4.2, 1501)
    dists = []
    for n in (25, 50, 100):
        res = run_pipeline(CantelliConfig(mesh_n=n, cantor_depth=6))
        F = lattice_cdf(res.solution.stopped)
        dists.append(levy_distance(F, clipped_cdf, grid))
    assert all(a >= 1.5 * b for a, b in zip(dists, dists[1:])), dists


def test_empirical_measure_sorted_and_streamable():
    e = mc.EmpiricalMeasure(np.array([0.3, -1.2, 0.0]))
    assert np.array_equal(e.samples, [-1.2, 0.0, 0.3])
    assert e.count == 3


@pytest.mark.parametrize("start", [
    LatticeMeasure(2, -1, np.array([0.25, 0.5, 0.25])),
    # all mass at 0.25
    pytest.param(LatticeMeasure(4, 1, np.array([1.0])), id="0.25"),
    # all mass at 1 + 2e-9, just beyond the 1e-9 tolerance
    pytest.param(LatticeMeasure(500_000_000, 500_000_001, np.array([1.0])),
                 id="1.000000002"),
])
def test_lattice_start_off_the_solution_lattice_rejected(start):
    # rounding such a start to the nearest cell would walk a law that
    # was never asked for
    sol = solve(DELTA0, HALVES)
    with pytest.raises(PreconditionError, match="mesh-1 lattice") as err:
        mc.simulate_first_intersection(
            start, sol, mc.PathSimConfig(num_paths=2001, seed=3)
        )
    assert f"mesh {start.mesh_n} " in str(err.value)


@pytest.mark.parametrize("start", [np.zeros(5), 0.0])
def test_start_other_than_a_lattice_measure_refused(start):
    sol = solve(DELTA0, HALVES)
    with pytest.raises(PreconditionError, match="start from a LatticeMeasure"):
        mc.simulate_first_intersection(
            start, sol, mc.PathSimConfig(num_paths=5, seed=0)
        )


def test_lattice_start_on_a_coarser_mesh_accepted():
    # a mesh-1 law lies on (1/2)Z, and its zero-mass cells do not matter,
    # not even outside the solved window
    sol = solve(LatticeMeasure(2, 0, np.array([1.0])),
                LatticeMeasure(2, -1, np.array([0.5, 0.0, 0.5])))
    for start in (DELTA0, LatticeMeasure(2, -1, np.array([0.0, 1.0, 0.0])),
                  LatticeMeasure(1, -4, np.eye(8)[4])):
        r = mc.simulate_first_intersection(
            start, sol, mc.PathSimConfig(num_paths=5, seed=0)
        )
        assert set(np.abs(r.positions)) == {0.5}


@pytest.mark.parametrize("k", [0, 1, 3, 4, 7, 10**6])
@pytest.mark.parametrize("drawn", range(8))
def test_skipped_raw_words_equal_drawn_ones(drawn, k):
    # skipping k words from any point in a Philox block must leave the
    # stream where drawing them does
    skipped = np.random.Philox(key=np.uint64(5))
    plain = np.random.Philox(key=np.uint64(5))
    skipped.random_raw(drawn)
    plain.random_raw(drawn)
    mc._skip_raw(skipped, k)
    plain.random_raw(k)
    assert np.array_equal(skipped.random_raw(9), plain.random_raw(9))
    assert np.random.Generator(skipped).random() == (
        np.random.Generator(plain).random())


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


def _walk_digest(r):
    h = hashlib.sha256()
    h.update(r.positions.tobytes())
    h.update(r.times.tobytes())
    h.update(str(r.exceeded).encode())
    return h.hexdigest()[:16]


@pytest.fixture(scope="module")
def mesh16_pipeline():
    from brownian_transport.pipeline import CantelliConfig, run_pipeline

    return run_pipeline(CantelliConfig(mesh_n=16))


PINNED_WALKS = [
    # criterion 10's instance: start words drawn, rows of 10^4 words
    ("mesh16", 10_000, 0, "d73529d66269e5aa"),
    # 2 001 % 4 != 0: rows end inside a Philox block
    ("mesh16", 2001, 1, "6e07380757018af4"),
    ("halves-lattice", 2001, 3, "034c886134cbcd99"),
    # no cell freezes at t = 0, so its survival row is skipped
    ("quarters-lattice", 2001, 3, "1e41d0700d965812"),
]

# each walk's digest as first pinned, before its coins came 64 steps to
# a Philox word.  The chunk-size and one-CPU tests below check that a
# walk does not depend on how it is run, so they keep naming a walk by
# this digest when its pinned one is re-taken
FIRST_DIGESTS = {
    ("mesh16", 10_000, 0): "87908b1c02f195ec",
    ("mesh16", 2001, 1): "120b47210cb1293d",
    ("halves-lattice", 2001, 3): "034c886134cbcd99",
    ("quarters-lattice", 2001, 3): "79ea1ff71cb9c5d7",
}


def _walk_id(case, num, seed, digest):
    return f"{case}-{num}-{seed}-{FIRST_DIGESTS[case, num, seed]}"


def _pinned_walk(mesh16_pipeline, case, num, seed):
    if case == "mesh16":
        start, sol = mesh16_pipeline.mu0n, mesh16_pipeline.solution
        max_time = 50.0
    else:
        target = QUARTERS if case.startswith("quarters") else HALVES
        start = DELTA0
        sol = solve(DELTA0, target)
        max_time = 10.0
    return mc.simulate_first_intersection(
        start, sol, mc.PathSimConfig(num_paths=num, seed=seed,
                                     max_time=max_time)
    )


@pytest.mark.parametrize("case, num, seed, digest", PINNED_WALKS)
def test_lattice_walk_sample_pinned(mesh16_pipeline, case, num, seed, digest):
    # positions, times and exceeded count of fixed walks, bit for bit
    r = _pinned_walk(mesh16_pipeline, case, num, seed)
    assert _walk_digest(r) == digest


def _reference_path(start, sol, num, seed, i, max_time):
    """Path i of a walk, one Python step at a time, from the documented
    layout: word i of the start row, then per step t word i of the
    survival row, read if the path's cell freezes at t, and at
    t mod 64 = 0 word i of a coin row, whose bit 63 - (t mod 64) is step
    t's coin.  Returns the stop position, the stop time (0 for a path
    still running), and whether the path read a survival uniform."""
    def word(index):
        bits = np.random.Philox(key=np.uint64(seed))
        mc._skip_raw(bits, index)
        return int(bits.random_raw())

    n = sol.mesh_n
    g, q = sol.freeze_step.tolist(), sol.survival.tolist()
    max_steps = math.ceil(max_time * n * n)
    u = (word(i) >> 11) * 2.0**-53
    cum = np.cumsum(start.masses)
    k = int(start.cells[np.searchsorted(cum / cum[-1], u, side="right")])
    k = k * n // start.mesh_n  # the lattice index on the solution's mesh
    row = num  # the first word of the next row
    read_survival = False
    for t in range(max_steps + 1):
        j = k - sol.offset
        frozen = g[j] if 0 <= j < len(g) else max_steps + 1
        if frozen == t:
            read_survival = True
            if (word(row + i) >> 11) * 2.0**-53 >= q[j]:
                return k / n, t / float(n * n), read_survival
        row += num
        if frozen < t:
            return k / n, t / float(n * n), read_survival
        if t % 64 == 0:
            coins = word(row + i)
            row += num
        k += -1 if coins >> (63 - t % 64) & 1 else 1
    return k / n, 0.0, read_survival


def test_walk_follows_the_documented_stream_layout(mesh16_pipeline):
    # chosen paths of a 2 001-path mesh-16 walk, rebuilt from fresh
    # generators word by word, equal the sample bit for bit
    start, sol = mesh16_pipeline.mu0n, mesh16_pipeline.solution
    num, seed = 2001, 1
    r = mc.simulate_first_intersection(
        start, sol, mc.PathSimConfig(num_paths=num, seed=seed, max_time=50.0)
    )
    steps = np.rint(r.times * sol.mesh_n**2).astype(int)
    late = np.argsort(steps, kind="stable")[-6:]
    paths = sorted({0, 1, 2, 3, 999, num - 1, *np.flatnonzero(
        (steps > 64) & (steps < 128))[:4].tolist(), *late.tolist()})
    read = []
    for i in paths:
        x, t, read_survival = _reference_path(start, sol, num, seed, i, 50.0)
        assert (r.positions[i], r.times[i]) == (x, t), i
        read.append(read_survival)
    # every path reads the coin row of step 64, the late ones that of 128
    assert steps[paths].min() > 64 and steps[late].min() > 128
    assert any(read) and not all(read)


def _affinity(monkeypatch, count):
    monkeypatch.setattr(mc.os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


# chunks of 1, 7 and 777 paths end inside Philox blocks.  A mesh-16
# chunk walks about 200 steps at a fixed cost per step, so the mesh-16
# walks are split into at most 300 chunks here
CHUNKED_WALKS = [
    (chunk, *walk) for chunk in (1, 7, 300, 777) for walk in PINNED_WALKS
    if walk[0] != "mesh16" or -(-walk[1] // chunk) <= 300
]


@pytest.mark.parametrize(
    "chunk, case, num, seed, digest", CHUNKED_WALKS,
    ids=[f"{w[0]}-{_walk_id(*w[1:])}" for w in CHUNKED_WALKS])
def test_pinned_walk_independent_of_chunk_size(
        monkeypatch, mesh16_pipeline, chunk, case, num, seed, digest):
    _affinity(monkeypatch, 2)
    monkeypatch.setattr(mc, "WALK_CHUNK", chunk)
    r = _pinned_walk(mesh16_pipeline, case, num, seed)
    assert _walk_digest(r) == digest


@pytest.mark.parametrize("case, num, seed, digest", PINNED_WALKS,
                         ids=[_walk_id(*w) for w in PINNED_WALKS])
def test_pinned_walk_on_one_cpu_runs_inline(
        monkeypatch, mesh16_pipeline, case, num, seed, digest):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started on one CPU")

    _affinity(monkeypatch, 1)
    monkeypatch.setattr(mc, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(mc, "WALK_CHUNK", 777)
    r = _pinned_walk(mesh16_pipeline, case, num, seed)
    assert _walk_digest(r) == digest


def test_walk_chunks_under_fast_thread_switching(monkeypatch,
                                                 mesh16_pipeline):
    # more workers than cores, switching threads every microsecond: each
    # chunk writes its own slices of the shared arrays, so the sample holds
    _affinity(monkeypatch, 8)
    monkeypatch.setattr(mc, "WALK_CHUNK", 300)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        r = _pinned_walk(mesh16_pipeline, "mesh16", 10_000, 0)
    finally:
        sys.setswitchinterval(interval)
    assert _walk_digest(r) == PINNED_WALKS[0][3]


def test_budget_overrun_message_independent_of_chunks(monkeypatch):
    sol = solve(DELTA0, QUARTERS)
    cfg = mc.PathSimConfig(num_paths=1000, seed=5, max_time=1.0)
    _affinity(monkeypatch, 2)
    messages = []
    for chunk in (mc.WALK_CHUNK, 7):
        monkeypatch.setattr(mc, "WALK_CHUNK", chunk)
        with pytest.raises(NonTerminationError) as err:
            mc.simulate_first_intersection(DELTA0, sol, cfg)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith("of 1000 paths exceeded max_time")


def test_walk_pool_leaves_no_threads(monkeypatch):
    _affinity(monkeypatch, 2)
    monkeypatch.setattr(mc, "WALK_CHUNK", 300)
    before = threading.active_count()
    mc.simulate_first_intersection(
        DELTA0, solve(DELTA0, HALVES),
        mc.PathSimConfig(num_paths=2001, seed=3),
    )
    assert threading.active_count() == before


@pytest.mark.parametrize("start", [
    # 1e-12 of the mass three cells left of the window -1..1
    LatticeMeasure(1, -4, np.array([1e-12, 0.0, 0.0, 0.0, 1.0])),
    # and one cell right of it
    LatticeMeasure(1, 0, np.array([1.0, 0.0, 1e-12])),
])
@pytest.mark.parametrize("seed", range(4))
def test_start_mass_outside_the_window_refused_for_every_seed(start, seed):
    # no path is likely to draw that mass, so the refusal must not wait
    # for one to
    sol = solve(DELTA0, HALVES)
    with pytest.raises(PreconditionError,
                       match="start mass outside the solved window"):
        mc.simulate_first_intersection(
            start, sol, mc.PathSimConfig(num_paths=2001, seed=seed)
        )


PINNED_SAMPLES = [
    # counter-example draws on the mesh-16 result: sorted sample digest
    # and KS statistic as a float hex; both sizes end inside a chunk
    (100_003, 0, "a1456dc7fd73df75", "0x1.c7af9be656580p-9"),
    (2001, 5, "d01e8898b80d3acc", "0x1.0a5d84362a8a0p-6"),
]


def _sample_digest(mesh16_pipeline, num, seed):
    z = mc.simulate_counterexample(
        mesh16_pipeline, mc.PathSimConfig(num_paths=num, seed=seed)
    )
    digest = hashlib.sha256(z.empirical.samples.tobytes()).hexdigest()[:16]
    return digest, mc.ks_distance(z.empirical, z.target_cdf).hex()


@pytest.mark.parametrize("num, seed, digest, ks", PINNED_SAMPLES)
def test_counterexample_sample_and_ks_pinned(mesh16_pipeline, num, seed,
                                             digest, ks):
    assert _sample_digest(mesh16_pipeline, num, seed) == (digest, ks)


@pytest.mark.parametrize("chunk", [1, 7, 777])
def test_pinned_sample_independent_of_chunk_size(monkeypatch,
                                                 mesh16_pipeline, chunk):
    num, seed, digest, ks = PINNED_SAMPLES[1]
    monkeypatch.setattr(mc, "WALK_CHUNK", chunk)
    assert _sample_digest(mesh16_pipeline, num, seed) == (digest, ks)


def _traced_peak(f):
    """f's result and the peak of traced memory above the start, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = f()
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


CHUNK_TEMPS = 6 * 8 * mc.WALK_CHUNK  # bytes: six 8-byte words per chunk path


def test_counterexample_and_ks_stream_in_chunks(mesh16_pipeline):
    # the draws, turned into Z in place, and their sorted copy are the
    # only population-sized arrays; the rest is a chunk's temporaries
    def run():
        z = mc.simulate_counterexample(
            mesh16_pipeline, mc.PathSimConfig(num_paths=300_000, seed=2)
        )
        return z.empirical.samples.nbytes, mc.ks_distance(z.empirical,
                                                          z.target_cdf)

    (sample, ks), peak = _traced_peak(run)
    assert ks < 0.01
    assert peak <= 2 * sample + CHUNK_TEMPS


@pytest.mark.parametrize("cpus", [1, 2])
def test_walk_streams_in_chunks(monkeypatch, mesh16_pipeline, cpus):
    # positions, times and the sorted sample are held; each running
    # chunk adds its own temporaries
    _affinity(monkeypatch, cpus)
    r, peak = _traced_peak(lambda: _pinned_walk(mesh16_pipeline, "mesh16",
                                                300_000, 4))
    held = r.positions.nbytes + r.times.nbytes + r.empirical.samples.nbytes
    assert peak <= held + cpus * CHUNK_TEMPS


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_path_config_refuses_a_seed_outside_64_bits(seed):
    # a Philox key is one 64-bit word
    with pytest.raises(PreconditionError,
                       match=r"seed must lie in \[0, 2\^64\)"):
        mc.PathSimConfig(seed=seed)
    assert mc._rng(mc.PathSimConfig(seed=2**64 - 1).seed).random() < 1.0
