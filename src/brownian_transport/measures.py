"""One-dimensional measures with piecewise Gaussian densities.

Every measure is a `DensityMeasure` of contiguous pieces, each a sum of
centred Gaussian density terms, built by the constructors in this module
(``gaussian``, ``from_pieces``).  The one read-out is the closed-form
(mass, first moment) pair over an interval, which is all the hat
projection onto the lattice and the centering need; every integral
downstream is therefore exact to rounding.  Many intervals are read at
once, one vectorized pass for all those in pieces of one shape (the
number of Gaussian terms), each term added in the same order as for one
piece alone, so a value does not depend on what is read beside it.  The
module also builds Cantor sets with exact rational endpoints and
provides the centering / truncation transforms that prepare measures
for discretization.
"""

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import NumericToleranceError, PreconditionError

_SQRT_2PI = math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Closed-form piece moments


def ndtr(x):
    """The standard normal CDF, ``scipy.special.ndtr``, for every module.

    The lattice transport reads no Gaussian, so scipy.special is imported
    on the first call only; that call rebinds this name to the ufunc, and
    a later ``ndtr`` or ``measures.ndtr`` is one dictionary lookup away.
    """
    global ndtr
    from scipy.special import ndtr
    return ndtr(x)


def _gauss_pdf(x, var, s):
    return np.exp(-0.5 * x * x / var) / (_SQRT_2PI * s)


def _gauss_piece_moments(p, q, coef, var):
    """(m0, m1) of coef * N(0, var) density over [p, q]; p, q may be inf.
    coef and var are scalars or hold one entry per interval."""
    s = np.sqrt(var)
    m0 = coef * (ndtr(q / s) - ndtr(p / s))
    m1 = coef * var * (_gauss_pdf(p, var, s) - _gauss_pdf(q, var, s))
    return m0, m1


@dataclass(frozen=True)
class _Piece:
    lo: float
    hi: float
    gauss: tuple[tuple[float, float], ...]  # (coef, var) pairs

    def scaled(self, lo, hi, w):
        """This piece's density times w, on [lo, hi]."""
        return _Piece(lo, hi, tuple((c * w, v) for c, v in self.gauss))


# ---------------------------------------------------------------------------
# DensityMeasure


@dataclass(frozen=True)
class DensityMeasure:
    """A measure on the line given by a nonnegative piecewise density.

    ``pieces`` are contiguous and sorted, each a sum of Gaussian terms,
    read only through closed-form interval moments: ``moments_batch``
    gives the (mass, first moment) pairs over many intervals, each inside
    one piece, and ``moments`` cuts one interval at the piece edges and
    sums them.  ``support`` (the closed hull, endpoints may be infinite)
    and ``breakpoints`` (the finite edges) are read off the pieces.
    """

    pieces: tuple[_Piece, ...]

    def __post_init__(self):
        if not self.pieces:
            raise ValueError("a measure needs at least one piece")
        for a, b in zip(self.pieces, self.pieces[1:]):
            if not a.hi == b.lo:
                raise ValueError("pieces must be contiguous and sorted")
        for pc in self.pieces:
            if not pc.lo < pc.hi:
                raise ValueError("empty piece")

    @cached_property
    def edges(self):
        return np.array([self.pieces[0].lo] + [pc.hi for pc in self.pieces])

    @cached_property
    def _terms(self):
        """Per piece: its shape, which is its number of Gaussian terms, and
        its (coef, var) pairs padded with zeros to one count."""
        counts = np.array([len(pc.gauss) for pc in self.pieces])
        terms = np.zeros((len(self.pieces), counts.max(), 2))
        for row, pc in zip(terms, self.pieces):
            for k, term in enumerate(pc.gauss):
                row[k] = term
        return counts, terms

    @property
    def support(self):
        return float(self.edges[0]), float(self.edges[-1])

    @property
    def breakpoints(self):
        return tuple(float(e) for e in self.edges if math.isfinite(e))

    def moments(self, a, b):
        """(mass, first moment) of the density over [a, b], scalars."""
        p = np.maximum(self.edges[:-1], a)
        q = np.minimum(self.edges[1:], b)
        cut = q > p
        if not cut.any():
            return 0.0, 0.0
        m0, m1 = self.moments_batch(p[cut], q[cut])
        # a running sum in piece order: pairwise summation would round
        # the centering weights differently
        return float(np.cumsum(m0)[-1]), float(np.cumsum(m1)[-1])

    def moments_batch(self, p, q):
        """(mass, first moment) over many intervals [p_i, q_i], for
        discretization.  Each interval must lie in one piece, the one that
        holds its left end; the intervals in pieces with one number of
        Gaussian terms are read together, with the coefficients of each
        interval's piece."""
        p = np.asarray(p, dtype=float)
        q = np.asarray(q, dtype=float)
        idx = np.clip(np.searchsorted(self.edges, p, side="right") - 1, 0,
                      len(self.pieces) - 1)
        counts, terms = self._terms
        count = counts[idx]
        m0 = np.zeros_like(p)
        m1 = np.zeros_like(p)
        for c in np.unique(count).tolist():
            sel = count == c
            at, ps, qs = idx[sel], p[sel], q[sel]
            # the terms added to zeros in the order of a piece read alone,
            # so each value, signed zeros included, is the one that read
            # gives
            s0 = s1 = np.zeros(ps.shape)
            for k in range(c):
                g0, g1 = _gauss_piece_moments(ps, qs, terms[at, k, 0],
                                              terms[at, k, 1])
                s0, s1 = s0 + g0, s1 + g1
            m0[sel], m1[sel] = s0, s1
        return m0, m1


# ---------------------------------------------------------------------------
# Constructors


def gaussian(variance=1.0):
    """Centered Gaussian probability measure N(0, variance)."""
    if variance <= 0.0:
        raise PreconditionError("variance must be positive")
    return DensityMeasure((_Piece(-math.inf, math.inf, ((1.0, variance),)),))


def from_pieces(pieces):
    """Measure from (lo, hi, gauss_terms) pieces with exact moments, each
    term a (coef, var) pair for coef times the N(0, var) density."""
    return DensityMeasure(tuple(_Piece(float(lo), float(hi), tuple(gauss))
                                for lo, hi, gauss in pieces))


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
    pieces = []
    for pc in m.pieces:
        if pc.lo < 0.0 < pc.hi:
            pieces += [pc.scaled(pc.lo, 0.0, c), pc.scaled(0.0, pc.hi, d)]
        else:
            pieces.append(pc.scaled(pc.lo, pc.hi, c if pc.hi <= 0.0 else d))
    return DensityMeasure(tuple(pieces)), c, d


def truncate_normalize(m, R):
    """Restrict to [-R, R] and renormalize to a probability measure."""
    mass = m.moments(-R, R)[0]
    if mass <= 1e-300:
        raise PreconditionError(f"no mass in [-{R}, {R}]")
    pieces = [pc.scaled(max(pc.lo, -R), min(pc.hi, R), 1.0 / mass)
              for pc in m.pieces if max(pc.lo, -R) < min(pc.hi, R)]
    return DensityMeasure(tuple(pieces))


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


def cantor_gap_constants(K, samples, seed=0):
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
