import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import brownian_transport as bt
from brownian_transport.errors import PreconditionError
from brownian_transport.lattice import LatticeMeasure, discretize, phi_lattice

from conftest import primitive


def test_uniform_n2_masses_symbolic():
    L = discretize(bt.uniform(-1, 1), 2)
    assert L.offset == -2 and L.masses.size == 5
    x = sympy.symbols("x")
    expected = []
    for k in range(-2, 3):
        hat = sympy.Max(1 - 2 * sympy.Abs(x - sympy.Rational(k, 2)), 0)
        expected.append(
            float(sympy.integrate(hat * sympy.Rational(1, 2), (x, -1, 1)))
        )
    assert np.allclose(L.masses, expected, atol=1e-14)
    assert np.allclose(L.masses, [1 / 8, 1 / 4, 1 / 4, 1 / 4, 1 / 8],
                       atol=1e-14)


def test_point_mass_lands_on_its_node():
    L = discretize(bt.triangle(0.5, 1e-4), 2)
    k = 1 - L.offset
    assert L.masses[k] == pytest.approx(1.0, abs=1e-3)
    assert L.total_mass == pytest.approx(1.0, abs=1e-12)


@given(st.integers(min_value=1, max_value=13), st.floats(0.3, 2.5))
@settings(max_examples=20, deadline=None)
def test_mass_and_mean_preserved(n, r):
    m = bt.truncate_normalize(bt.gaussian(1.0), r)
    L = discretize(m, n)
    assert L.total_mass == pytest.approx(1.0, abs=1e-11)
    assert L.mean() == pytest.approx(0.0, abs=1e-11)


def test_hat_weights_partition_of_unity():
    # the two hats covering x sum to one, exactly in rational arithmetic
    n = 7
    for x in (Fraction(1, 3), Fraction(9, 5), Fraction(-22, 7)):
        k = math.floor(x * n)
        left = 1 - n * (x - Fraction(k, n))
        right = 1 - n * (Fraction(k + 1, n) - x)
        assert left + right == 1
        assert 0 <= left <= 1 and 0 <= right <= 1


def test_unbounded_support_rejected():
    with pytest.raises(PreconditionError):
        discretize(bt.gaussian(1.0), 4)


def test_phi_point_mass():
    d0 = LatticeMeasure(1, 0, np.array([1.0]))
    assert phi_lattice(d0, 2) == pytest.approx(2.0, abs=0)
    assert phi_lattice(d0, 0) == 0.0
    assert phi_lattice(d0, -3) == 0.0


def test_phi_half_masses():
    half = LatticeMeasure(1, -1, np.array([0.5, 0.0, 0.5]))
    assert phi_lattice(half, 0) == pytest.approx(0.5, abs=0)


def test_phi_exact_at_nodes():
    # hats reproduce piecewise-linear integrands, so the node values of
    # the discrete profile equal the continuous one exactly
    m = bt.truncate_normalize(bt.gaussian(1.0), 3.0)
    for n in (4, 8, 16):
        L = discretize(m, n)
        k = n // 2
        assert phi_lattice(L, k) == pytest.approx(primitive(m, k / n),
                                                  abs=5e-14)


def test_phi_off_node_second_order():
    # off the nodes the lattice profile converges at order h^2; the point
    # sits a third of the way into its cell at every mesh below, so the
    # interpolation prefactor matches across doublings
    m = bt.truncate_normalize(bt.gaussian(1.0), 3.0)
    x = 4.0 / 15.0

    def lattice_phi_at(L, x):
        pos = L.positions
        return float(np.sum(np.maximum(x - pos, 0.0) * L.masses))

    errs = []
    for n in (5, 10, 20):
        L = discretize(m, n)
        errs.append(abs(lattice_phi_at(L, x) - primitive(m, x)))
    assert errs[0] / errs[1] >= 3.0
    assert errs[1] / errs[2] >= 3.0


def test_csv_roundtrip(tmp_path):
    m = LatticeMeasure(5, -3, np.array([0.25, 0.5, 0.25]))
    path = tmp_path / "m.csv"
    m.to_csv(path)
    back = LatticeMeasure.from_csv(path)
    assert back.mesh_n == 5 and back.offset == -3
    assert np.array_equal(back.masses, m.masses)


def test_window_and_trim():
    m = LatticeMeasure(1, 0, np.array([0.0, 1.0, 0.0]))
    t = m.trimmed()
    assert t.offset == 1 and t.masses.size == 1
    w = t.with_window(-1, 3)
    assert w.offset == -1 and w.masses.size == 5
    with pytest.raises(PreconditionError):
        t.with_window(2, 3)


def test_negative_mass_rejected():
    with pytest.raises(PreconditionError):
        LatticeMeasure(1, 0, np.array([0.5, -0.1]))
