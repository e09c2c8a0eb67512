"""Acceptance suite at the pinned defaults.

The shared fixture runs all ten criteria once and prints one pass/fail
line per criterion; the tests then assert the individual clauses.  The
sampled-KS mesh trend is asserted within the statistic's own sampling
error, since the bias it ranks is far below that error; the exact
distributional KS, asserted alongside, carries the strict trend.  One
clause fails for a measured reason and is asserted as stated anyway: the
Hermite identity residual of phi^2 at R = 4 rises toward a floor of
about 9e-4 that the window sets, while its mesh part halves per mesh
doubling.
"""

import hashlib
import re

import numpy as np
import pytest

from brownian_transport import acceptance
from brownian_transport import montecarlo as mc
from brownian_transport import solver as solver_module
from brownian_transport.errors import ConsistencyError, PreconditionError
from brownian_transport.lattice import LatticeMeasure
from brownian_transport.pipeline import f1_asymptotics_report
from brownian_transport.solver import (
    InvariantCheck,
    init_state,
    joint_window,
    solve,
    start_state,
)


@pytest.fixture(scope="module")
def suite():
    ctx = acceptance.AcceptanceContext()
    results = {}
    for fn in acceptance.CRITERIA:
        r = fn(ctx)
        print(r.line())
        results[r.number] = r
    return ctx, results


def _assert_criterion(results, k):
    r = results[k]
    assert r.passed, r.details


def test_criterion_1_oracle_equivalence(suite):
    _assert_criterion(suite[1], 1)


def test_criterion_2_termination_exactness(suite):
    _assert_criterion(suite[1], 2)


def test_criterion_3_expected_time_identity(suite):
    _assert_criterion(suite[1], 3)


def test_criterion_4_coincidence_invariant(suite):
    _assert_criterion(suite[1], 4)


def test_criterion_4_counts_only_the_checked_solves(suite):
    # criterion 3 adds the n = 400 pipeline solve, which runs no invariant
    # check, to the expected-time residuals
    ctx, results = suite
    assert len(ctx.et_residuals) == 7272
    assert results[4].details.startswith(
        "asserted at every step of 7271 solves of criteria 1 and 2")
    assert results[4].details.endswith("the pipeline solve is not checked")


def test_criterion_5_cantor_geometry(suite):
    _assert_criterion(suite[1], 5)


def test_criterion_6_headline_counterexample(suite):
    _assert_criterion(suite[1], 6)


def test_criterion_7_sampled_ks_nonincreasing(suite):
    ctx, _ = suite
    ks = []
    for n in ctx.meshes:
        z = mc.simulate_counterexample(
            ctx.pipeline(n), mc.PathSimConfig(num_paths=ctx.paths,
                                              seed=ctx.seed)
        )
        ks.append(mc.ks_distance(z.empirical, z.target_cdf))
    # the bias being ranked (about 2e-4 and below) is under the sampling
    # error, so a rise within that error is no evidence against the trend
    eps = mc.dkw_epsilon(ctx.paths)
    assert all(b <= a + eps for a, b in zip(ks, ks[1:])), (
        f"sampled KS over meshes {ctx.meshes}: {ks} rises by more than the "
        f"sampling error {eps:.2e} at {ctx.paths} samples"
    )


def test_criterion_7_distributional_ks_decreases(suite):
    # deterministic companion: the exact law of Z approaches N(0, C)
    ctx, _ = suite
    exact = [acceptance.counterexample_exact_ks(ctx.pipeline(n))
             for n in ctx.meshes]
    assert all(a > b for a, b in zip(exact, exact[1:])), exact


def test_criterion_7_f1_cauchy_factor(suite):
    ctx, _ = suite
    dists = []
    for n_c, n_f in zip(ctx.meshes, ctx.meshes[1:]):
        fc, ff = ctx.pipeline(n_c).f1, ctx.pipeline(n_f).f1
        dists.append(float(np.abs(fc.ys - ff(fc.xs)).max()))
    assert all(a >= 1.5 * b for a, b in zip(dists, dists[1:])), (
        f"sup-node distances {dists} do not contract by 1.5 per mesh "
        "doubling over the whole window"
    )


def test_criterion_7_f1_cauchy_factor_interior(suite):
    # away from the window edges the grids contract at first order
    ctx, _ = suite
    R = ctx.pipeline(ctx.meshes[0]).config.truncation_R
    dists = []
    for n_c, n_f in zip(ctx.meshes, ctx.meshes[1:]):
        fc, ff = ctx.pipeline(n_c).f1, ctx.pipeline(n_f).f1
        inner = np.abs(fc.xs) <= R - 1.0
        dists.append(float(np.abs(fc.ys[inner] - ff(fc.xs[inner])).max()))
    assert all(a >= 1.5 * b for a, b in zip(dists, dists[1:])), dists


def test_criterion_8_far_band_lower_bound(suite):
    ctx, _ = suite
    res = ctx.pipeline(ctx.headline_mesh)
    rep = f1_asymptotics_report(res)
    tol = 5.0 / ctx.headline_mesh
    assert rep.min_deviation >= -tol, (
        f"min(f1 - (1 - t0)) on [2, 3] is {rep.min_deviation:+.5f} against "
        f"the {-tol:+.5f} budget"
    )


def test_criterion_8_band_maxima_monotone(suite):
    ctx, _ = suite
    rep = f1_asymptotics_report(ctx.pipeline(ctx.headline_mesh))
    assert rep.monotone_ok, (rep.inner_band_max, rep.outer_band_max)


def test_criterion_9_stated_constraints(suite):
    ctx, _ = suite
    res = ctx.pipeline(ctx.headline_mesh)
    rep = mc.hermite_check(res.phi, max_n=40, breakpoints=res.breakpoints(),
                           quad_tol=1e-7)
    assert rep.phi1_abs <= 0.01, rep.phi1_abs
    assert rep.identity_residual <= 0.02, rep.identity_residual
    assert rep.sup_excess <= 0.01, rep.sup_excess


def test_criterion_9_residual_trend(suite):
    ctx, _ = suite
    resids = []
    for n in ctx.meshes:
        res = ctx.pipeline(n)
        rep = mc.hermite_check(res.phi, max_n=40,
                               breakpoints=res.breakpoints(), quad_tol=1e-7)
        resids.append(rep.identity_residual)
    assert all(a >= b for a, b in zip(resids, resids[1:])), (
        f"identity residuals over meshes {ctx.meshes}: {resids}; measured "
        "cause: at R = 4 the window truncation sets a floor of about +9e-4 "
        "while the mesh error (about -6e-4 at n = 100) halves per mesh "
        "doubling, so the residual rises toward the floor (2.6e-4, 5.6e-4, "
        "7.2e-4); at R = 5 it falls (6.5e-4, 3.3e-4 at n = 100, 200)"
    )


def test_criterion_10_simulation_matches_law(suite):
    _assert_criterion(suite[1], 10)


def _group_digest(solutions):
    """sha256 of each solution's freeze_step (<i8), survival and stopped
    masses (<f8), cut to 16 hex digits, joined in instance order and
    hashed again, cut to 16 hex digits."""
    digests = []
    for sol in solutions:
        h = hashlib.sha256()
        for arr, dtype in ((sol.freeze_step, "<i8"), (sol.survival, "<f8"),
                           (sol.stopped.masses, "<f8")):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        digests.append(h.hexdigest()[:16])
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def _random_pairs(seed, count=100):
    rng = np.random.default_rng(seed)
    return [acceptance.random_feasible_pair(rng) for _ in range(count)]


def _windows(pairs):
    """The instance map that criterion 2 forms of pairs of start and
    target LatticeMeasures."""
    return {k: (m0.mesh_n, *joint_window(m0, m1))
            for k, (m0, m1) in enumerate(pairs)}


def _in_order(results):
    """The results that `solve_padded` yields, in key order."""
    return [result for _, result in sorted(results, key=lambda kv: kv[0])]


def test_criterion_1_batches_keep_the_reference_digest():
    # the `criterion_1 cells=4` digest, taken with one `solve` per
    # instance before criterion 1 ran as batches
    pairs = acceptance.enumerate_instances(4)
    results = _in_order(acceptance.solve_padded(
        acceptance.eighth_grid_instances(pairs), history=True))
    assert len(results) == 227
    assert _group_digest([sol for sol, _ in results]) == "fbbc1ead997f6a7b"


def test_criterion_2_batches_keep_the_reference_digest():
    # the `criterion_2 seed=0 instances=100` digest, taken with one `solve`
    # per instance when the step-0 cost became the two running sums of
    # target - start (freeze steps and step counts as before)
    results = acceptance.solve_padded(_windows(_random_pairs(0)))
    assert _group_digest(_in_order(results)) == "65c4fcfed76b0c49"


@pytest.mark.parametrize("seed", [1, 7, 23])
def test_padded_rows_match_solve(seed):
    pairs = _random_pairs(seed)
    batches = list(acceptance.padded_batches(_windows(pairs)))
    # rows of several widths share each batch, padded by multiples of 8
    assert max(max(pads) for _, pads, _ in batches) >= 16
    assert all(pad % 8 == 0 for _, pads, _ in batches for pad in pads)
    results = acceptance.solve_padded(_windows(pairs))
    for (m0, m1), a in zip(pairs, _in_order(results)):
        b = solve(m0, m1)
        assert a.offset == b.offset
        for name in ("freeze_step", "survival"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        assert a.stopped.masses.tobytes() == b.stopped.masses.tobytes()
        assert (a.steps, a.expected_time.hex(), a.max_time.hex()) == \
            (b.steps, b.expected_time.hex(), b.max_time.hex())


def test_padded_row_keeps_the_step_budget_of_solve():
    # at mesh 1 a window of w cells gets 50 (w - 1)^2 steps; a row padded
    # from 5 to 21 cells keeps 800, not the padded window's 20 000
    pairs = [
        (LatticeMeasure(1, 0, np.array([1.0])),
         LatticeMeasure(1, -2, np.full(5, 0.2))),
        (LatticeMeasure(1, 3, np.array([1.0])),
         LatticeMeasure(1, -7, np.full(21, 1 / 21))),
    ]
    (keys, pads, arrays), = acceptance.padded_batches(_windows(pairs))
    assert keys == [0, 1] and pads == [16, 0]
    expected = [solver_module._budgets(init_state(*p), None)[0]
                for p in pairs]
    assert expected == [800, 20_000]
    assert solver_module._budgets(start_state(*arrays), None) == expected


def test_padded_failures_are_counted_per_instance(monkeypatch):
    # three failing instances: a mean mismatch that `start_state` refuses
    # in a batch beside a good row of its width, a mesh mismatch refused
    # before any batch, and a row whose run raises; each one alone gets no
    # solution, and every other row its own
    good = _random_pairs(0, 8)
    expected = _in_order(acceptance.solve_padded(_windows(good)))
    m0, m1 = good[1]
    mirrored = (m0, LatticeMeasure(m1.mesh_n, m1.offset, m1.masses[::-1]))
    bad_mesh = (LatticeMeasure(2, 0, np.array([1.0])),
                LatticeMeasure(1, -1, np.array([0.5, 0.0, 0.5])))
    planted = good[5][1].masses

    class FailingRow(InvariantCheck):
        """Raises at step 2 in any batch that holds good[5], the row
        whose target ends in its target masses."""

        def __call__(self, state):
            super().__call__(state)
            tail = state.target[:, -planted.size:]
            if state.t == 2 and (tail == planted).all(-1).any():
                raise ConsistencyError("planted")

    monkeypatch.setattr(acceptance, "InvariantCheck", FailingRow)
    pairs = good[:3] + [mirrored] + good[3:] + [bad_mesh]
    with pytest.raises(PreconditionError, match="mesh mismatch"):
        _windows(pairs[9:])
    sols = _in_order(acceptance.solve_padded(_windows(pairs[:9])))
    assert [k for k, sol in enumerate(sols) if sol is None] == [3, 6]
    del sols[6], sols[3]
    del expected[5]
    assert _group_digest(sols) == _group_digest(expected)
    # criterion 2 counts all three, the refused one included
    draws = iter(pairs)
    monkeypatch.setattr(acceptance, "random_feasible_pair",
                        lambda rng: next(draws))
    r = acceptance.criterion_2(acceptance.AcceptanceContext(
        random_instances=len(pairs)))
    assert not r.passed
    assert r.details.startswith("10 instances, 3 failures;")


class PlantedViolation(InvariantCheck):
    """Raises at step 2 in a batch that holds a row whose start and target
    masses end in ``live`` and ``target`` at step 0 (rows are padded on
    the left only)."""

    live = target = None

    def __call__(self, state):
        super().__call__(state)
        n = self.live.size
        if state.t == 0:
            self.held = state.live.shape[-1] >= n and bool((
                (state.live[..., -n:] == self.live)
                & (state.target[..., -n:] == self.target)).all(-1).any())
        if state.t == 2 and self.held:
            raise ConsistencyError("planted coincidence violation")


def test_planted_criterion_1_failure_is_counted(monkeypatch):
    # one row of the 227 instances at 4 cells fails in its batch; the
    # other 226 are still solved and compared with the oracle
    pairs = acceptance.enumerate_instances(4)
    instances = acceptance.eighth_grid_instances(pairs)
    planted = next(k for k, (sol, _) in acceptance.solve_padded(
        instances, history=True) if sol.steps > 2)
    monkeypatch.setattr(PlantedViolation, "live", instances[planted][2])
    monkeypatch.setattr(PlantedViolation, "target", instances[planted][3])
    monkeypatch.setattr(acceptance, "InvariantCheck", PlantedViolation)
    oracle, calls = acceptance.exhaustive_transport, []

    def counted(live, target, max_steps):
        calls.append(max_steps)
        return oracle(live, target, max_steps=max_steps)

    monkeypatch.setattr(acceptance, "exhaustive_transport", counted)
    ctx = acceptance.AcceptanceContext(enumeration_cells=4)
    r = acceptance.criterion_1(ctx)
    assert not r.passed
    assert r.details.startswith("227 canonical instances, 1 not solved;")
    assert "equal to the exact oracle's on 226;" in r.details
    assert len(calls) == 226 and len(ctx.et_residuals) == 226
    assert ctx.checked_solves.count(False) == 1


def test_criterion_4_fails_on_a_stopped_solve(monkeypatch):
    # one planted violation among criterion 2's 100 instances stops that
    # solve: criterion 4 must not report the run as violation-free
    ctx = acceptance.AcceptanceContext()
    (live, target), = [
        joint_window(m0, m1)[1:] for m0, m1 in _random_pairs(ctx.seed)[7:8]]
    monkeypatch.setattr(PlantedViolation, "live", live)
    monkeypatch.setattr(PlantedViolation, "target", target)
    monkeypatch.setattr(acceptance, "InvariantCheck", PlantedViolation)
    assert "100 instances, 1 failures;" in acceptance.criterion_2(ctx).details
    r = acceptance.criterion_4(ctx)
    assert not r.passed
    assert r.details == (
        "asserted at every step of 99 solves of criteria 1 and 2, zero "
        "violations; 1 more stopped on an error; the pipeline solve is not "
        "checked")


def test_criterion_1_counts_instances_unequal_to_the_oracle(monkeypatch):
    oracle = acceptance.exhaustive_transport
    calls = []  # the oracle's results so far

    def late_freeze(live, target, max_steps):
        ref = oracle(live, target, max_steps=max_steps)
        calls.append(ref)
        if len(calls) == 5:  # one cell of one instance freezes a step late
            x = next(x for x, s in enumerate(ref["g"]) if s is not None)
            ref["g"][x] += 1
        return ref

    monkeypatch.setattr(acceptance, "exhaustive_transport", late_freeze)
    r = acceptance.criterion_1(acceptance.AcceptanceContext(
        enumeration_cells=4))
    assert not r.passed
    assert "equal to the exact oracle's on 226;" in r.details


def test_criterion_7_prints_every_cauchy_factor():
    ctx = acceptance.AcceptanceContext(seed=1, paths=4000,
                                       meshes=(16, 32, 64, 128))
    r = acceptance.criterion_7(ctx)
    assert "nan" not in r.details
    for label in ("Cauchy factors", "interior |x| <= R-1 factors"):
        factors = re.search(re.escape(label) + r" \[([^\]]*)\]", r.details)
        assert len(factors.group(1).split(",")) == 2, r.details


def test_one_cell_has_one_instance():
    # a single cell holds all eight eighths; zero cells hold no vector
    assert acceptance._eighth_vectors(1) == [(8,)]
    with pytest.raises(PreconditionError, match="cells must be at least 1"):
        acceptance.enumerate_instances(0)
    r = acceptance.criterion_1(acceptance.AcceptanceContext(
        enumeration_cells=1))
    assert r.passed and r.details.startswith("1 canonical instances")


@pytest.mark.parametrize("key", ["paths", "random_instances", "gap_samples",
                                 "enumeration_cells"])
def test_zero_counts_refused(key):
    with pytest.raises(PreconditionError, match=f"{key} must be at least 1"):
        acceptance.AcceptanceContext(**{key: 0})


def test_criterion_1_reference_is_the_exact_variance_gap():
    ctx = acceptance.AcceptanceContext(enumeration_cells=4)
    assert acceptance.criterion_1(ctx).passed
    assert len(ctx.et_residuals) == 227
    assert max(gap for _, gap in ctx.et_residuals) < 1e-11


def test_counterexample_sample_drawn_once_per_mesh(monkeypatch):
    # criterion 6 and criterion 7's headline row read one sampled KS
    draws = []
    simulate = mc.simulate_counterexample

    def counting(res, cfg):
        draws.append(res.config.mesh_n)
        return simulate(res, cfg)

    monkeypatch.setattr(mc, "simulate_counterexample", counting)
    ctx = acceptance.AcceptanceContext(seed=1, paths=4000, meshes=(16, 32))
    c6 = acceptance.criterion_6(ctx)
    rows, _ = acceptance.mesh_convergence(ctx)
    acceptance.criterion_7(ctx)
    assert sorted(draws) == [16, 32]
    z = simulate(ctx.pipeline(32), mc.PathSimConfig(num_paths=4000, seed=1))
    ks = mc.ks_distance(z.empirical, z.target_cdf)
    assert rows[-1].ks_sampled == ks
    assert f"KS(Z, N(0, C)) = {ks:.5f} at 4000 samples" in c6.details
