"""Shared fixtures and independent numerical oracles.

The oracles here deliberately avoid the package's own integration
machinery: the Gaussian CDF comes from its Maclaurin series, integrals
from a fixed-refinement composite Simpson rule.  Distances between laws
(the Levy metric, a lattice measure's CDF) are test tools too, and so are
a density measure's CDF and CDF primitive, scalar read-outs of its
closed-form interval moments.
"""

import math

import numpy as np
import pytest

from brownian_transport.pipeline import CantelliConfig, run_pipeline


def gauss_cdf_series(x, terms=200):
    """Standard normal CDF by the series 1/2 + pdf(x) * sum x^(2k+1)/(2k+1)!!."""
    total = 0.0
    term = x
    for k in range(terms):
        total += term
        term *= x * x / (2 * k + 3)
        if abs(term) < 1e-18:
            break
    return 0.5 + math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi) * total


def simpson_oracle(f, a, b, rtol=1e-11, max_iter=22):
    """Composite Simpson with doubling panels until the value settles."""
    prev = None
    n = 8
    for _ in range(max_iter):
        xs = np.linspace(a, b, n + 1)
        ys = np.asarray([f(float(x)) for x in xs])
        h = (b - a) / n
        val = h / 3 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())
        if prev is not None and abs(val - prev) <= rtol * (1 + abs(val)):
            return val
        prev = val
        n *= 2
    raise AssertionError("oracle quadrature did not settle")


def bisect_oracle(f, a, b, iters=200):
    """Sign-change bisection for root finding."""
    fa = f(a)
    for _ in range(iters):
        m = 0.5 * (a + b)
        if f(m) * fa > 0:
            a = m
        else:
            b = m
    return 0.5 * (a + b)


def cdf(m, x):
    """F(x): the mass of (-inf, x], from the closed-form interval moments."""
    return m.moments(-math.inf, x)[0]


def primitive(m, x):
    """Phi(x) = integral of F over (-inf, x] = x M0 - M1, with (M0, M1) the
    mass and first moment of (-inf, x]."""
    M0, M1 = m.moments(-math.inf, x)
    return x * M0 - M1


def lattice_cdf(m):
    """Right-continuous CDF of a lattice measure as a callable."""
    cum = np.concatenate([[0.0], np.cumsum(m.masses)])
    pos = m.positions

    def F(x):
        idx = np.searchsorted(pos, np.asarray(x) + 0.5 / m.mesh_n, side="left")
        out = cum[idx]
        return float(out) if np.ndim(x) == 0 else out

    return F


def levy_distance(F, G, grid, tol=1e-9):
    """Levy distance surrogate on a grid, by bisection over the offset.

    Smallest delta with F(x - delta) - delta <= G(x) <= F(x + delta) + delta
    at every grid point; metrizes weak-star convergence on the line.
    """
    grid = np.asarray(grid, dtype=float)

    def ok(d):
        Fl = np.asarray(F(grid - d), dtype=float)
        Fr = np.asarray(F(grid + d), dtype=float)
        G_ = np.asarray(G(grid), dtype=float)
        return bool(np.all(Fl - d <= G_ + 1e-12) and np.all(G_ <= Fr + d + 1e-12))

    lo, hi = 0.0, 1.0
    while not ok(hi):
        hi *= 2.0
        if hi > 1e6:
            raise AssertionError("Levy bisection failed to bracket")
    if ok(lo):
        return 0.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            hi = mid
        else:
            lo = mid
    return float(hi)


@pytest.fixture(scope="session")
def small_pipeline():
    """A fast, fully assembled counter-example (coarse mesh)."""
    return run_pipeline(CantelliConfig(mesh_n=50, cantor_depth=6))
