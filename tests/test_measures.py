import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

import brownian_transport as bt
from brownian_transport.errors import PreconditionError

from conftest import cdf, gauss_cdf_series, primitive, simpson_oracle

SQRT_2PI = math.sqrt(2 * math.pi)


def two_bumps(a, b, w):
    """Mass a on [-1 - w, -1 + w] and b on [1 - w, 1 + w], each with the
    shape of the N(0, 1) density there, and zero density between."""
    side = gauss_cdf_series(1 + w) - gauss_cdf_series(1 - w)
    return bt.from_pieces([
        (-1 - w, -1 + w, [(a / side, 1.0)]),
        (-1 + w, 1 - w, []),
        (1 - w, 1 + w, [(b / side, 1.0)]),
    ])


def narrow(w):
    """N(0, 1) conditioned on [-w, w]: nearly a unit point mass at 0."""
    return bt.truncate_normalize(bt.gaussian(1.0), w)


GAUSS = [(1.0, 1.0)]  # the one Gaussian term of N(0, 1)


@pytest.mark.parametrize("pieces, message", [
    ([], "a measure needs at least one piece"),
    ([(0.0, 0.0, GAUSS)], "empty piece"),
    ([(1.0, 0.5, GAUSS)], "empty piece"),
    ([(-math.inf, 0.0, GAUSS), (0.5, math.inf, GAUSS)],
     "pieces must be contiguous and sorted"),
    ([(0.0, math.inf, GAUSS), (-math.inf, 0.0, GAUSS)],
     "pieces must be contiguous and sorted"),
])
def test_malformed_pieces_are_refused_by_name(pieces, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        bt.from_pieces(pieces)


def test_batch_reads_an_infinite_left_end_in_its_own_piece():
    # the midpoint of (-inf, 0] is 0, the left edge of the next piece
    m = bt.from_pieces([
        (-math.inf, 0.0, [(1.0, 1.0)]),
        (0.0, math.inf, [(2.0, 1.0)]),
    ])
    m0, m1 = m.moments_batch([-math.inf], [0.0])
    assert (m0[0], m1[0]) == m.moments(-math.inf, 0.0)
    assert m0[0] == pytest.approx(0.5, abs=1e-15)
    assert m1[0] == pytest.approx(-1.0 / SQRT_2PI, abs=1e-15)


# pieces of 0, 1 and 2 Gaussian terms, with infinite ends
MIXED = bt.from_pieces([
    (-math.inf, -2.0, [(0.3, 1.0)]),
    (-2.0, -0.5, [(0.2, 0.5), (0.05, 4.0)]),
    (-0.5, 0.0, []),
    (0.0, 0.25, [(0.1, 0.2)]),
    (0.25, 1.5, [(0.4, 2.0), (-0.1, 1.0)]),
    (1.5, 3.0, [(0.1, 0.7)]),
    (3.0, math.inf, [(0.2, 1.5), (0.05, 3.0)]),
])


def one_piece_read(piece, p, q):
    """(mass, first moment) of one piece over intervals inside it, term by
    term from zeros, as each piece was read before the pieces were
    grouped by shape: each Gaussian term in order, with scalar
    coefficients."""
    from scipy.special import ndtr

    def pdf(x, var):
        return np.exp(-0.5 * x * x / var) / (SQRT_2PI * math.sqrt(var))

    m0 = m1 = np.zeros(np.shape(p))
    for coef, var in piece.gauss:
        s = math.sqrt(var)
        m0 = m0 + coef * (ndtr(q / s) - ndtr(p / s))
        m1 = m1 + coef * var * (pdf(p, var) - pdf(q, var))
    return m0, m1


def test_moments_batch_reads_each_piece_bit_for_bit():
    # intervals of every piece, the whole piece and its infinite ends
    # among them, shuffled: pieces of one shape are read together
    rng = np.random.default_rng(4)
    intervals = []
    for pc in MIXED.pieces:
        lo = pc.lo if math.isfinite(pc.lo) else pc.hi - 6.0
        hi = pc.hi if math.isfinite(pc.hi) else pc.lo + 6.0
        cuts = np.sort(rng.uniform(lo, hi, (5, 2)), axis=1).tolist()
        intervals += [(pc.lo, pc.hi), (pc.lo, cuts[0][1]),
                      (cuts[1][0], pc.hi)] + cuts[2:]
    p, q = np.array(intervals)[rng.permutation(len(intervals))].T
    m0, m1 = MIXED.moments_batch(p, q)
    shapes = set()
    for pc in MIXED.pieces:
        at = (p >= pc.lo) & (p < pc.hi)
        r0, r1 = one_piece_read(pc, p[at], q[at])
        assert m0[at].tobytes() == r0.tobytes()
        assert m1[at].tobytes() == r1.tobytes()
        shapes.add(len(pc.gauss))
    assert shapes == {0, 1, 2}


class TestCdf:
    def test_gaussian_symmetry(self):
        assert cdf(bt.gaussian(1.0), 0.0) == pytest.approx(0.5, abs=1e-15)

    def test_gaussian_value_against_series_oracle(self):
        # frozen from the series oracle; quadrature agrees independently
        oracle = gauss_cdf_series(1.0)
        assert oracle == pytest.approx(0.841344746068543, abs=1e-13)
        g = bt.gaussian(1.0)
        assert cdf(g, 1.0) == pytest.approx(0.841345, abs=1e-6)
        assert cdf(g, 1.0) == pytest.approx(oracle, abs=1e-12)
        quad = simpson_oracle(
            lambda s: math.exp(-0.5 * s * s) / SQRT_2PI, -12.0, 1.0
        )
        assert cdf(g, 1.0) == pytest.approx(quad, abs=1e-9)

    def test_monotone(self):
        g = bt.gaussian(0.7)
        xs = np.linspace(-4, 4, 101)
        vals = np.array([cdf(g, x) for x in xs])
        assert np.all(np.diff(vals) >= 0)
        assert np.all((vals >= 0) & (vals <= 1 + 1e-12))


def mean(m):
    """Mean from the closed-form moments over the line."""
    m0, m1 = m.moments(-math.inf, math.inf)
    return m1 / m0


class TestMeanVar:
    def test_gaussian_parameters(self):
        assert mean(bt.gaussian(0.25)) == pytest.approx(0.0, abs=1e-14)


class TestPhi:
    def test_point_mass_limits(self):
        t = narrow(1e-3)
        assert primitive(t, 1.0) == pytest.approx(1.0, abs=1e-3)
        assert primitive(t, -1.0) == 0.0

    def test_vanishes_far_left(self):
        assert primitive(narrow(1.0), -5.0) == 0.0
        assert primitive(bt.gaussian(1.0), -40.0) == pytest.approx(
            0.0, abs=1e-15)

    @pytest.mark.parametrize(
        "measure",
        [
            bt.gaussian(1.0),
            two_bumps(0.25, 0.75, 0.2),
            MIXED,
            bt.truncate_normalize(bt.gaussian(1.0), 2.0),
        ],
    )
    def test_two_evaluations_agree(self, measure):
        # first-moment form against a direct integral of the CDF
        lo = max(measure.support[0], -12.0)
        for x in (-1.5, -0.3, 0.0, 0.4, 1.2):
            cuts = [lo, *(b for b in measure.breakpoints if lo < b < x), x]
            quad = sum(
                integrate.quad(lambda y: cdf(measure, y), p, q,
                               epsabs=1e-13)[0]
                for p, q in zip(cuts, cuts[1:]) if q > p
            )
            assert primitive(measure, x) == pytest.approx(quad, abs=1e-9)

    @given(st.floats(min_value=-3.0, max_value=3.0))
    @settings(max_examples=25, deadline=None)
    def test_gaussian_closed_form(self, x):
        # phi of N(0,1) is x F(x) + pdf(x)
        g = bt.gaussian(1.0)
        expect = x * gauss_cdf_series(x) + math.exp(-0.5 * x * x) / SQRT_2PI
        assert primitive(g, x) == pytest.approx(expect, abs=1e-12)


def cost(mu0, mu1, x):
    """The transport cost at x: the gap phi(mu1) - phi(mu0) of primitives."""
    return primitive(mu1, x) - primitive(mu0, x)


class TestCost:
    def test_gaussian_pair_value(self):
        # time integral of the half heat flow between variances t0 and 1
        t0 = 0.25
        oracle = 0.5 * simpson_oracle(
            lambda t: 1.0 / math.sqrt(2 * math.pi * t), t0, 1.0
        )
        got = cost(bt.gaussian(t0), bt.gaussian(1.0), 0.0)
        assert got == pytest.approx(oracle, abs=1e-10)
        assert got == pytest.approx((1 - math.sqrt(t0)) / SQRT_2PI, abs=1e-13)

    def test_point_vs_half_masses(self):
        # unit mass at 0 against halves at -1 and 1: cost at 0 is 1/2
        w = 1e-3
        mu0 = narrow(w)
        mix = two_bumps(0.5, 0.5, w)
        assert cost(mu0, mix, 0.0) == pytest.approx(0.5, abs=5 * w)

    def test_cost_function_invariants(self):
        mu0, mu1 = bt.gaussian(0.5), bt.gaussian(1.0)
        f = lambda x: cost(mu0, mu1, x)
        assert f(-12.0) == pytest.approx(0.0, abs=1e-12)
        assert f(12.0) == pytest.approx(0.0, abs=1e-12)
        xs = np.linspace(-3, 3, 301)
        vals = np.array([f(float(x)) for x in xs])
        h = xs[1] - xs[0]
        # the derivative of the cost is a difference of CDFs, bounded by 1
        assert np.max(np.abs(np.diff(vals))) <= h * (1 + 1e-9)


class TestGammaCenter:
    def test_symmetric_fixed_point(self):
        base = narrow(1.0)
        m, c, d = bt.gamma_center(base)
        assert c == pytest.approx(1.0, abs=1e-12)
        assert d == pytest.approx(1.0, abs=1e-12)
        normalizer = gauss_cdf_series(1.0) - gauss_cdf_series(-1.0)
        for a, b in ((-0.75, -0.25), (0.0, 0.5)):
            expect = (gauss_cdf_series(b) - gauss_cdf_series(a)) / normalizer
            assert m.moments(a, b)[0] == pytest.approx(expect, abs=1e-12)

    def test_two_bump_weights(self):
        w = 1e-3
        base = two_bumps(0.25, 0.75, w)
        m, c, d = bt.gamma_center(base)
        # oracle: direct 2x2 solve on the exact interval moments
        n0, n1 = base.moments(-math.inf, 0.0)
        p0, p1 = base.moments(0.0, math.inf)
        oc, od = np.linalg.solve([[n0, p0], [n1, p1]], [1.0, 0.0])
        assert c == pytest.approx(oc, rel=1e-9)
        assert d == pytest.approx(od, rel=1e-9)
        assert c == pytest.approx(2.0, abs=1e-5)
        assert d == pytest.approx(2.0 / 3.0, abs=1e-5)
        assert mean(m) == pytest.approx(0.0, abs=1e-9)
        assert m.moments(-math.inf, 0.0)[0] == pytest.approx(0.5, abs=1e-5)

    def test_one_sided_rejected(self):
        with pytest.raises(PreconditionError):
            bt.gamma_center(bt.from_pieces([(0.5, 2.0, GAUSS)]))

    def test_weights_approach_one_with_window(self):
        # centered but asymmetric: mass 2/3 with the N(0, 1) density on
        # the negative half-line, 1/3 with the N(0, 4) density on the other
        m = bt.from_pieces([
            (-math.inf, 0.0, [(4.0 / 3.0, 1.0)]),
            (0.0, math.inf, [(2.0 / 3.0, 4.0)]),
        ])
        gaps = []
        for R in (2.0, 3.0, 4.0, 5.0):
            _, c, d = bt.gamma_center(bt.truncate_normalize(m, R))
            gaps.append(abs(c - 1.0) + abs(d - 1.0))
        assert all(a >= b - 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < gaps[0]


class TestTruncateNormalize:
    def test_gaussian_normalizer(self):
        t = bt.truncate_normalize(bt.gaussian(1.0), 1.0)
        normalizer = gauss_cdf_series(1.0) - gauss_cdf_series(-1.0)
        assert normalizer == pytest.approx(0.682689, abs=1e-6)
        a, b = 0.2, 0.4
        expect = (gauss_cdf_series(b) - gauss_cdf_series(a)) / normalizer
        assert t.moments(a, b)[0] == pytest.approx(expect, rel=1e-10)

    def test_empty_window_rejected(self):
        with pytest.raises(PreconditionError):
            bt.truncate_normalize(bt.gaussian(1.0), 0.0)
