import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brownian_transport import build_cantor, cantor_gap_constants
from brownian_transport.errors import PreconditionError


def telescoping_product(depth):
    """Exact remaining-length fraction (m-1)(m+1)/m^2 telescoped."""
    out = Fraction(1)
    for n in range(1, depth + 1):
        m = n + 1
        out *= Fraction((m - 1) * (m + 1), m * m)
    return out


def test_depth_zero_is_ambient():
    K = build_cantor((0, 1), 0)
    assert K.intervals == ((Fraction(0), Fraction(1)),)


def test_first_removal_is_a_quarter():
    K = build_cantor((0, 1), 1)
    assert K.intervals == (
        (Fraction(0), Fraction(3, 8)),
        (Fraction(5, 8), Fraction(1)),
    )


@given(st.integers(min_value=0, max_value=10))
@settings(max_examples=11, deadline=None)
def test_length_matches_product_exactly(depth):
    K = build_cantor((Fraction(-2, 3), Fraction(1, 2)), depth)
    ambient = Fraction(1, 2) - Fraction(-2, 3)
    assert K.total_length() == ambient * telescoping_product(depth)
    assert len(K.intervals) == 2**depth


def test_product_limit_is_one_half():
    # telescoping gives (depth + 2) / (2 depth + 2), limiting to 1/2
    for depth in (1, 4, 16, 128):
        assert telescoping_product(depth) == Fraction(depth + 2, 2 * depth + 2)
    assert abs(telescoping_product(4096) - Fraction(1, 2)) < Fraction(1, 8000)


def test_membership_and_complement():
    K = build_cantor((0, 1), 2)

    def contains(x):
        return any(a <= x <= b for a, b in K.intervals)

    assert contains(0.0) and contains(1.0)
    assert contains(0.1)
    assert not contains(0.5)  # central gap
    # exact complement of the whole ambient
    assert K.complement_within(0, 1) == 1 - K.total_length()


def test_empty_ambient_rejected():
    with pytest.raises(PreconditionError):
        build_cantor((1, 1), 3)
    with pytest.raises(PreconditionError):
        build_cantor((0, 1), -1)


def test_gap_constants_depth_zero_flags():
    K = build_cantor((0, 1), 0)
    gaps = cantor_gap_constants(K, 200, seed=3)
    assert gaps.alpha_quadratic == 0.0
    assert not gaps.quadratic_ok
    assert math.isinf(gaps.alpha_exp)


def test_gap_constants_positive_at_depth_8():
    K = build_cantor((-0.5, 0.5), 8)
    gaps = cantor_gap_constants(K, 2000, seed=3)
    assert gaps.quadratic_ok
    assert gaps.alpha_quadratic > 0.0
    assert 0.0 < gaps.alpha_exp < math.inf


def test_removed_gap_ratio_trivial():
    K = build_cantor((0, 1), 1)
    a, b = Fraction(3, 8), Fraction(5, 8)  # the removed middle
    leb = K.complement_within(a, b)
    assert leb == b - a
    L = float(b - a)
    assert float(leb) / L**2 == pytest.approx(1.0 / L)


def test_complement_matches_interval_loop():
    # the prefix-sum bisection against the direct sum over all intervals,
    # on random rationals, interval endpoints and points outside the hull
    K = build_cantor((-1, 1), 5)
    ends = [e for iv in K.intervals for e in iv]
    rng = random.Random(7)

    def point():
        if rng.random() < 0.4:
            return rng.choice(ends)
        return Fraction(rng.randint(-1300, 1300), rng.randint(1, 1000))

    def by_loop(a, b):
        if b <= a:
            return Fraction(0)
        covered = sum((min(hi, b) - max(lo, a) for lo, hi in K.intervals
                       if min(hi, b) > max(lo, a)), Fraction(0))
        return (b - a) - covered

    for _ in range(3000):
        a, b = point(), point()
        assert K.complement_within(a, b) == by_loop(a, b)
