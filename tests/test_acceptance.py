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
from brownian_transport.errors import PreconditionError
from brownian_transport.pipeline import f1_asymptotics_report


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


def test_criterion_1_batches_keep_the_reference_digest():
    # sha256 of each solve's freeze_step (<i8), survival and stopped
    # masses (<f8), cut to 16 hex digits, joined in enumeration order and
    # hashed again: the `criterion_1 cells=4` digest, taken with one
    # `solve` per instance before criterion 1 ran as width batches
    pairs = acceptance.enumerate_instances(4)
    digests = [None] * len(pairs)
    for k, _, _, sol, _ in acceptance.solve_by_width(pairs):
        h = hashlib.sha256()
        for arr, dtype in ((sol.freeze_step, "<i8"), (sol.survival, "<f8"),
                           (sol.stopped.masses, "<f8")):
            h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
        digests[k] = h.hexdigest()[:16]
    assert len(digests) == 227
    joined = hashlib.sha256("".join(digests).encode()).hexdigest()[:16]
    assert joined == "fbbc1ead997f6a7b"


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
