"""Exact mass-evolution oracle for small lattice transports.

Independent cross-check for the freeze/diffuse engine, run in Python
integers.  Every input mass is a dyadic float, which
`float.as_integer_ratio` converts exactly to a numerator over one power
of two, 2**e.  A step
halves the mass that diffuses and a partial freeze lets 2 phi walk on, so
at step t every mass is an integer numerator over 2**(e + t): doubling
the scale each step keeps the halves integer.  The cost profile is formed
from its definition at every step,

  phi(x) = sum over z < x of (x - z) (target - occupation)(z)
         = x A(x) - B(x),

with A and B the running sums of the difference and of z times it, in
O(width).  Every decision compares integers: the cost against half the
live mass, and the walking mass against the engine's LIVE_TOL.  Only the
survival 2 phi / nu is a ratio; it is rounded once to a float and never
fed back.  No float arithmetic touches the state: the floats returned
beside the exact values are each rounded once from them.
"""

from .errors import ConsistencyError, NonTerminationError
from .solver import LIVE_TOL


def _numerators(masses):
    """Numerators of the float masses over one power of two 2**bits, and
    bits."""
    ratios = [float(m).as_integer_ratio() for m in masses]
    den = max(d for _, d in ratios)  # every d is a power of two
    return [n * (den // d) for n, d in ratios], den.bit_length() - 1


def exhaustive_transport(mu0, mu1, max_steps=4096):
    """Evolve the full mass vector exactly until everything has stopped,
    that is until the walking mass is at most the engine's LIVE_TOL.

    ``mu0`` and ``mu1`` are the start and target masses on one window.
    Returns a dict with the freeze record, ``g`` (the freeze step per
    cell, None where no cell froze) and ``q`` (the survival at it, a
    float), the final parked masses ``parked`` and the walking masses at
    every step, ``walking_history``, all as floats rounded once from the
    exact values.  The exact values sit beside them: ``walking_exact``
    and ``parked_exact`` hold the walking and parked masses at every step
    as integer numerators, over 2**(scale_bits + t) at step t.
    """
    w = len(mu0)
    if len(mu1) != w:
        raise ValueError("windows differ")
    nums, bits = _numerators(list(mu0) + list(mu1))
    walking, target = nums[:w], nums[w:]
    parked = [0] * w
    g = [None] * w
    q = [None] * w  # survival 2 phi / nu at the freeze step
    tol_num, tol_den = LIVE_TOL.as_integer_ratio()
    walking_exact, parked_exact = [], []

    for t in range(max_steps + 1):
        walking_exact.append(walking)
        parked_exact.append(parked)
        # at step t every numerator is over 2**(bits + t)
        if sum(walking) * tol_den <= tol_num << (bits + t):
            break
        # one pass: the cost at x from the sums over the cells below x,
        # then what walks on from x; the next step's numerators are over
        # twice the scale, so a half of what leaves x is its numerator
        nxt = [0] * w
        stays = [0] * w
        below = moment = 0  # A(x) and B(x)
        for x in range(w):
            nu = walking[x]
            phi = x * below - moment
            diff = target[x] - nu - parked[x]
            below += diff
            moment += x * diff
            if phi <= 0:
                # absorbing cell: everything sitting here stops
                if g[x] is None and nu:
                    g[x], q[x] = t, 0.0
                out = 0
            elif 2 * phi > nu:
                out = nu
            else:
                # partial freeze, 2 phi walks on (all of it on a tie)
                if g[x] is None:
                    g[x], q[x] = t, 2 * phi / nu  # correctly rounded
                out = 2 * phi
            stays[x] = 2 * (parked[x] + nu - out)
            if out:
                if x == 0 or x == w - 1:
                    raise ConsistencyError(
                        f"mass leaving the window at step {t}"
                    )
                nxt[x - 1] += out
                nxt[x + 1] += out
        # arrivals on frozen cells stop there
        for x in range(w):
            if g[x] is not None and nxt[x]:
                stays[x] += nxt[x]
                nxt[x] = 0
        walking, parked = nxt, stays
        target = [2 * m for m in target]
    else:
        raise NonTerminationError("oracle exhausted its step budget")

    def floats(numerators, t):
        den = 1 << (bits + t)
        return [m / den for m in numerators]  # correctly rounded

    return {
        "g": g,
        "q": q,
        "parked": floats(parked, t),
        "walking_history": [floats(v, s)
                            for s, v in enumerate(walking_exact)],
        "scale_bits": bits,
        "walking_exact": walking_exact,
        "parked_exact": parked_exact,
    }
