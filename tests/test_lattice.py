import math
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import brownian_transport as bt
from brownian_transport.errors import PreconditionError
from brownian_transport.lattice import LatticeMeasure, discretize
from brownian_transport.solver import start_state

from conftest import primitive


def test_gaussian_n2_masses_symbolic():
    # N(0, 1) conditioned on [-1, 1] at mesh 2: each hat in its two linear
    # halves, so that sympy integrates in closed forms of erf and exp
    L = discretize(bt.truncate_normalize(bt.gaussian(1.0), 1.0), 2)
    assert L.offset == -2 and L.masses.size == 5
    x = sympy.symbols("x")
    density = sympy.exp(-x**2 / 2) / sympy.erf(1 / sympy.sqrt(2)) \
        / sympy.sqrt(2 * sympy.pi)
    expected = []
    for k in range(-2, 3):
        node = sympy.Rational(k, 2)
        halves = ((node - sympy.Rational(1, 2), node, 1 + 2 * (x - node)),
                  (node, node + sympy.Rational(1, 2), 1 - 2 * (x - node)))
        expected.append(sum(
            sympy.integrate(hat * density, (x, max(a, -1), min(b, 1)))
            for a, b, hat in halves if max(a, -1) < min(b, 1)))
    assert all(not m.has(sympy.Integral) for m in expected)
    assert np.allclose(L.masses, [float(m) for m in expected], rtol=0,
                       atol=1e-14)


def test_point_mass_lands_on_its_node():
    L = discretize(bt.truncate_normalize(bt.gaussian(1.0), 1e-4), 2)
    k = -L.offset
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


def primitive_at_cells(L):
    """n Phi of the lattice measure L at its window cells, read off
    `start_state`'s cost n (Phi_L - Phi_0) for a unit point mass at cell 0
    (L's mean), whose own n Phi at cell k is max(k, 0)."""
    start = np.zeros(L.masses.size)
    start[-L.offset] = 1.0
    state = start_state(L.mesh_n, L.offset, start, L.masses.copy())
    return state.phi + np.maximum(L.cells, 0)


def test_phi_point_mass():
    # n Phi of the point mass at 0 is max(k, 0); of the halves at -2 and 2
    # it is (max(k + 2, 0) + max(k - 2, 0)) / 2, so the cost from one to
    # the other on cells -3 .. 3 is
    state = start_state(1, -3, np.array([0, 0, 0, 1.0, 0, 0, 0]),
                        np.array([0, 0.5, 0, 0, 0, 0.5, 0]))
    assert state.phi.tolist() == [0.0, 0.0, 0.5, 1.0, 0.5, 0.0, 0.0]


def test_phi_half_masses():
    half = LatticeMeasure(1, -1, np.array([0.5, 0.0, 0.5]))
    assert primitive_at_cells(half).tolist() == [0.0, 0.5, 1.0]


def test_phi_exact_at_nodes():
    # hats reproduce piecewise-linear integrands, so the node values of
    # the discrete profile equal the continuous one exactly
    m = bt.truncate_normalize(bt.gaussian(1.0), 3.0)
    for n in (4, 8, 16):
        L = discretize(m, n)
        k = n // 2
        got = primitive_at_cells(L)[k - L.offset] / n
        assert got == pytest.approx(primitive(m, k / n), abs=5e-14)


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
