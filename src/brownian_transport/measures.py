"""One-dimensional measures with piecewise Gaussian and affine densities.

Every measure is built from contiguous pieces, each an affine density
plus Gaussian terms, by the constructors in this module (``gaussian``,
``uniform``, ``triangle``, ``from_pieces``).  The one read-out is the
closed-form (mass, first moment) pair over an interval, which is all the
hat projection onto the lattice and the centering need; every integral
downstream is therefore exact to rounding.  The module also builds
Cantor sets with exact rational endpoints and provides the centering /
truncation transforms that prepare measures for discretization.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np
from scipy.special import ndtr

from .errors import NumericToleranceError, PreconditionError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Closed-form piece moments


def _gauss_pdf(x, var):
    return np.exp(-0.5 * x * x / var) / (_SQRT_2PI * math.sqrt(var))


def _gauss_piece_moments(p, q, coef, var):
    """(m0, m1) of coef * N(0, var) density over [p, q]; p, q may be inf."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    s = math.sqrt(var)
    m0 = coef * (ndtr(q / s) - ndtr(p / s))
    m1 = coef * var * (_gauss_pdf(p, var) - _gauss_pdf(q, var))
    return m0, m1


def _affine_piece_moments(p, q, c0, c1):
    # factored through (q - p) to stay stable for narrow pieces with
    # steep slopes
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    w = q - p
    s1 = p + q
    m0 = w * (c0 + 0.5 * c1 * s1)
    m1 = w * (0.5 * c0 * s1 + c1 * (p * p + p * q + q * q) / 3.0)
    return m0, m1


@dataclass(frozen=True)
class _Piece:
    lo: float
    hi: float
    affine: tuple[float, float]  # density contribution c0 + c1*x
    gauss: tuple[tuple[float, float], ...]  # (coef, var) pairs

    def moments(self, p, q):
        m0 = m1 = np.zeros(np.shape(p)) if np.ndim(p) else 0.0
        c0, c1 = self.affine
        if c0 != 0.0 or c1 != 0.0:
            a0, a1 = _affine_piece_moments(p, q, c0, c1)
            m0, m1 = m0 + a0, m1 + a1
        for coef, var in self.gauss:
            g0, g1 = _gauss_piece_moments(p, q, coef, var)
            m0, m1 = m0 + g0, m1 + g1
        return m0, m1


class _Segments:
    """Sorted disjoint pieces with closed-form interval moments."""

    def __init__(self, pieces):
        pieces = tuple(pieces)
        for a, b in zip(pieces, pieces[1:]):
            if not a.hi == b.lo:
                raise ValueError("pieces must be contiguous and sorted")
        for pc in pieces:
            if not pc.lo < pc.hi:
                raise ValueError("empty piece")
            if (pc.affine != (0.0, 0.0)) and not (
                math.isfinite(pc.lo) and math.isfinite(pc.hi)
            ):
                raise ValueError("affine terms need finite piece bounds")
        self.pieces = pieces
        self.edges = np.array([pieces[0].lo] + [pc.hi for pc in pieces])

    def moments(self, a, b):
        """(m0, m1) of the density over [a, b], scalars."""
        if b <= a:
            return 0.0, 0.0
        out = np.zeros(2)
        lo_idx = max(bisect_right(self.edges, a) - 1, 0)
        for pc in self.pieces[lo_idx:]:
            if pc.lo >= b:
                break
            p, q = max(pc.lo, a), min(pc.hi, b)
            if q > p:
                out += pc.moments(p, q)
        return float(out[0]), float(out[1])

    def moments_batch(self, p, q):
        """(m0, m1) over many [p_i, q_i]; intervals must not straddle edges."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        mid = np.where(np.isfinite(p), p, q) * 0.5 + np.where(
            np.isfinite(q), q, p
        ) * 0.5
        idx = np.clip(np.searchsorted(self.edges, mid, side="right") - 1, 0,
                      len(self.pieces) - 1)
        m0 = np.zeros_like(p)
        m1 = np.zeros_like(p)
        for j in np.unique(idx):
            sel = idx == j
            m0[sel], m1[sel] = self.pieces[j].moments(p[sel], q[sel])
        return m0, m1

    def clipped_scaled(self, lo, hi, factor):
        pieces = []
        for pc in self.pieces:
            p, q = max(pc.lo, lo), min(pc.hi, hi)
            if q <= p:
                continue
            aff = (pc.affine[0] * factor, pc.affine[1] * factor)
            gauss = tuple((c * factor, v) for c, v in pc.gauss)
            pieces.append(_Piece(p, q, aff, gauss))
        return _Segments(pieces)

    def reweighted_sides(self, c, d):
        pieces = []
        for pc in self.pieces:
            parts = []
            if pc.lo < 0.0 < pc.hi:
                parts = [(pc.lo, 0.0, c), (0.0, pc.hi, d)]
            else:
                parts = [(pc.lo, pc.hi, c if pc.hi <= 0.0 else d)]
            for p, q, w in parts:
                aff = (pc.affine[0] * w, pc.affine[1] * w)
                gauss = tuple((cf * w, v) for cf, v in pc.gauss)
                pieces.append(_Piece(p, q, aff, gauss))
        return _Segments(pieces)


# ---------------------------------------------------------------------------
# DensityMeasure


@dataclass(frozen=True)
class DensityMeasure:
    """A measure on the line given by a nonnegative piecewise density.

    ``segments`` holds the contiguous pieces.  The measure is read only
    through closed-form interval moments: ``moments`` gives the (mass,
    first moment) pair over one interval and ``moments_batch`` the pairs
    over many.  ``total_mass`` is 1 for probability measures and below 1
    for sub-probability restrictions.  ``support`` (the closed hull of the
    pieces, endpoints may be infinite) and ``breakpoints`` (the finite
    piece edges) are read off the segments.
    """

    segments: _Segments
    total_mass: float = 1.0

    @property
    def support(self):
        edges = self.segments.edges
        return float(edges[0]), float(edges[-1])

    @property
    def breakpoints(self):
        return tuple(float(e) for e in self.segments.edges
                     if math.isfinite(e))

    def moments(self, a, b):
        """(mass, first moment) of the density over [a, b]."""
        return self.segments.moments(a, b)

    def moments_batch(self, p, q):
        """(mass, first moment) over many intervals, for discretization."""
        return self.segments.moments_batch(p, q)


# ---------------------------------------------------------------------------
# Constructors


def _measure_from_segments(segments, total_mass=None):
    if total_mass is None:
        total_mass = segments.moments(-math.inf, math.inf)[0]
    return DensityMeasure(segments, float(total_mass))


def gaussian(variance=1.0, total_mass=1.0):
    """Centered Gaussian N(0, variance), optionally scaled."""
    if variance <= 0.0:
        raise PreconditionError("variance must be positive")
    seg = _Segments(
        [_Piece(-math.inf, math.inf, (0.0, 0.0), ((total_mass, variance),))]
    )
    return _measure_from_segments(seg, total_mass=total_mass)


def uniform(lo, hi):
    """Uniform probability measure on [lo, hi]."""
    if not lo < hi:
        raise PreconditionError("empty interval")
    seg = _Segments([_Piece(lo, hi, (1.0 / (hi - lo), 0.0), ())])
    return _measure_from_segments(seg, total_mass=1.0)


def triangle(center=0.0, halfwidth=1e-3):
    """Unit-mass triangular bump; narrow widths approximate a point mass."""
    if halfwidth <= 0.0:
        raise PreconditionError("halfwidth must be positive")
    h = 1.0 / halfwidth  # peak height, d(x) = h * (1 - |x - center| / halfwidth)
    slope = h / halfwidth
    left = _Piece(center - halfwidth, center, (h - slope * center, slope), ())
    right = _Piece(center, center + halfwidth, (h + slope * center, -slope), ())
    seg = _Segments([left, right])
    return _measure_from_segments(seg, total_mass=1.0)


def from_pieces(pieces, total_mass=None):
    """Measure from (lo, hi, affine, gauss_terms) pieces with exact moments."""
    segs = _Segments(
        [_Piece(float(lo), float(hi), tuple(aff), tuple(gauss))
         for lo, hi, aff, gauss in pieces]
    )
    return _measure_from_segments(segs, total_mass=total_mass)


# ---------------------------------------------------------------------------
# Centering and truncation


def gamma_center(m):
    """Reweight the two sides of the origin to a centered probability measure.

    Returns (measure, c, d) where c and d scale the restriction to the
    negative and positive half-lines.
    """
    n0, n1 = m.moments(-math.inf, 0.0)
    p0, p1 = m.moments(0.0, math.inf)
    if n0 <= 1e-14 or p0 <= 1e-14:
        raise PreconditionError(
            "gamma centering needs mass on both sides of the origin"
        )
    det = n0 * p1 - p0 * n1
    if abs(det) < 1e-14:
        raise NumericToleranceError("singular centering system")
    c = p1 / det
    d = -n1 / det
    seg = m.segments.reweighted_sides(c, d)
    return _measure_from_segments(seg, total_mass=1.0), c, d


def truncate_normalize(m, R):
    """Restrict to [-R, R] and renormalize to a probability measure."""
    mass = m.moments(-R, R)[0]
    if mass <= 1e-300:
        raise PreconditionError(f"no mass in [-{R}, {R}]")
    seg = m.segments.clipped_scaled(-R, R, 1.0 / mass)
    return _measure_from_segments(seg, total_mass=1.0)


# ---------------------------------------------------------------------------
# Cantor sets


@dataclass(frozen=True)
class CantorSet:
    """Closed intervals remaining after middle removals, exact endpoints."""

    ambient: tuple[Fraction, Fraction]
    depth: int
    intervals: tuple[tuple[Fraction, Fraction], ...]

    def total_length(self):
        return sum((b - a for a, b in self.intervals), Fraction(0))

    def float_intervals(self):
        return np.array([[float(a), float(b)] for a, b in self.intervals])

    @cached_property
    def _prefix_lengths(self):
        """Left endpoints, and the total length of the first k intervals."""
        lefts = [lo for lo, _ in self.intervals]
        prefix = [Fraction(0)]
        for lo, hi in self.intervals:
            prefix.append(prefix[-1] + (hi - lo))
        return lefts, prefix

    def _covered_up_to(self, x):
        """Exact length of the set left of x; the intervals are sorted and
        disjoint, as `build_cantor` makes them."""
        lefts, prefix = self._prefix_lengths
        k = bisect_right(lefts, x)
        if k == 0:
            return Fraction(0)
        lo, hi = self.intervals[k - 1]
        return prefix[k - 1] + min(x, hi) - lo

    def complement_within(self, a, b):
        """Exact Lebesgue measure of [a, b] minus the set (Fractions)."""
        a, b = Fraction(a), Fraction(b)
        if b <= a:
            return Fraction(0)
        return (b - a) - (self._covered_up_to(b) - self._covered_up_to(a))


def build_cantor(ambient, depth):
    """Cantor set removing a 1/(n+1)^2 middle part at step n.

    The total remaining length after each step follows the telescoping
    product and converges to half the ambient length.
    """
    lo, hi = Fraction(ambient[0]), Fraction(ambient[1])
    if not lo < hi:
        raise PreconditionError("empty ambient interval")
    if depth < 0:
        raise PreconditionError("depth must be nonnegative")
    intervals = [(lo, hi)]
    for n in range(1, depth + 1):
        keep = (1 - Fraction(1, (n + 1) ** 2)) / 2
        nxt = []
        for a, b in intervals:
            h = (b - a) * keep
            nxt.append((a, a + h))
            nxt.append((b - h, b))
        intervals = nxt
    return CantorSet(ambient=(lo, hi), depth=depth, intervals=tuple(intervals))


@dataclass(frozen=True)
class GapConstants:
    alpha_quadratic: float
    alpha_exp: float
    n_samples: int
    min_length: float
    quadratic_ok: bool


def cantor_gap_constants(K, samples, seed=0, min_length=None):
    """Empirical gap constants over random subintervals of the ambient.

    Samples interval lengths log-uniformly down to a resolution floor
    (finite construction depth leaves solid intervals below the finest
    scale, where the limiting set's gap estimates are not yet visible).
    Returns the largest quadratic constant and the smallest exponential
    constant consistent with the sampled intervals.
    """
    if not K.intervals:
        raise PreconditionError("empty Cantor set")
    if samples < 1:  # a minimum over no interval would read inf
        raise PreconditionError(f"samples must be at least 1, got {samples}")
    lo, hi = float(K.ambient[0]), float(K.ambient[1])
    span = hi - lo
    finest = float(min(b - a for a, b in K.intervals))
    if min_length is None:
        min_length = min(2.0 * finest, 0.5 * span)
    rng = np.random.default_rng(seed)
    lengths = np.exp(
        rng.uniform(math.log(min_length), math.log(span), size=samples)
    )
    starts = lo + rng.uniform(0.0, 1.0, size=samples) * (span - lengths)
    alpha_q = math.inf
    alpha_e = 0.0
    for a, L in zip(starts, lengths):
        gap = float(K.complement_within(Fraction(float(a)),
                                        Fraction(float(a + L))))
        alpha_q = min(alpha_q, gap / (L * L))
        if gap <= 0.0:
            alpha_e = math.inf
        else:
            alpha_e = max(alpha_e, -L * math.log(gap))
    return GapConstants(
        alpha_quadratic=float(alpha_q),
        alpha_exp=float(alpha_e),
        n_samples=int(samples),
        min_length=float(min_length),
        quadratic_ok=alpha_q > 0.0,
    )
