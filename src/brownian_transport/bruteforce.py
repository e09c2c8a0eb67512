"""Exhaustive mass-evolution oracle for small lattice transports.

Independent cross-check for the freeze/diffuse engine: plain Python
lists, the cost profile recomputed from its definition at every step
(double sum over cells), and bookkeeping written directly from the
stopping rule.  Intended for windows of a handful of cells; everything
is O(width^2) per step.
"""

from .errors import NonTerminationError
from .solver import LIVE_TOL


def _phi_from_occupation(target, occupation):
    """Cost profile from the definition: sum over z < x of (x - z) * diff."""
    w = len(target)
    phi = []
    for x in range(w):
        s = 0.0
        for z in range(x):
            s += (x - z) * (target[z] - occupation[z])
        phi.append(s)
    return phi


def exhaustive_transport(mu0, mu1, max_steps=4096):
    """Evolve the full mass vector until everything has stopped, that is
    until the walking mass is at most the engine's LIVE_TOL.

    Returns a dict with the freeze record (g, q), the final parked mass
    and the per-step walking-mass snapshots.
    """
    w = len(mu0)
    if len(mu1) != w:
        raise ValueError("windows differ")
    walking = [float(m) for m in mu0]
    parked = [0.0] * w
    g = [None] * w
    q = [None] * w
    history = []

    for t in range(max_steps + 1):
        history.append(list(walking))
        if sum(walking) <= LIVE_TOL:
            break
        occupation = [a + b for a, b in zip(walking, parked)]
        phi = _phi_from_occupation(mu1, occupation)
        outflow = [0.0] * w
        for x in range(w):
            nu = walking[x]
            if phi[x] <= 0.0:
                # absorbing cell: everything sitting here stops
                if g[x] is None and nu > 0.0:
                    g[x], q[x] = t, 0.0
                parked[x] += nu
            elif phi[x] > 0.5 * nu:
                outflow[x] = nu
            else:
                # partial freeze, fraction 2 phi / nu walks on (1 on a tie)
                if g[x] is None:
                    g[x] = t
                    q[x] = 2.0 * phi[x] / nu if nu > 0.0 else 0.0
                outflow[x] = 2.0 * phi[x]
                parked[x] += nu - outflow[x]
        nxt = [0.0] * w
        for x in range(w):
            if outflow[x] == 0.0:
                continue
            if x == 0 or x == w - 1:
                raise AssertionError("mass leaving the window")
            nxt[x - 1] += 0.5 * outflow[x]
            nxt[x + 1] += 0.5 * outflow[x]
        for x in range(w):
            if g[x] is not None and nxt[x] > 0.0:
                parked[x] += nxt[x]
                nxt[x] = 0.0
        walking = nxt
    else:
        raise NonTerminationError("oracle exhausted its step budget")

    return {
        "g": g,
        "q": q,
        "parked": parked,
        "walking_history": history,
    }
