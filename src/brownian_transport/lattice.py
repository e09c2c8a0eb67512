"""Discretization of measures onto the grid (1/n)Z.

Masses are projected with the normalized hat kernel (1 - n|x - k/n|)+,
a partition of unity on the support, so total mass and mean carry over
from the continuous measure.  The discrete CDF primitive matches the
continuous one at the nodes.  ``write_csv`` writes every CSV file of the
package.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

MASS_TOL = 1e-12


@dataclass(frozen=True)
class LatticeMeasure:
    """Nonnegative masses on cells offset, offset+1, ... of (1/mesh_n)Z."""

    mesh_n: int
    offset: int
    masses: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.masses, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise PreconditionError("masses must be a nonempty 1-d array")
        if np.any(m < -MASS_TOL):
            raise PreconditionError("negative mass")
        m = np.maximum(m, 0.0)
        m.setflags(write=False)
        object.__setattr__(self, "masses", m)
        if self.mesh_n < 1:
            raise PreconditionError("mesh_n must be >= 1")

    @property
    def cells(self):
        return self.offset + np.arange(self.masses.size)

    @property
    def positions(self):
        return self.cells / self.mesh_n

    @property
    def total_mass(self):
        return float(self.masses.sum())

    def mean(self):
        return float(self.positions @ self.masses) / self.total_mass

    def variance(self):
        mu = self.mean()
        d = self.positions - mu
        return float((d * d) @ self.masses) / self.total_mass

    def support_cells(self):
        """(first, last) absolute cell index carrying positive mass."""
        nz = np.nonzero(self.masses)[0]
        if nz.size == 0:
            raise PreconditionError("measure has no mass")
        return self.offset + int(nz[0]), self.offset + int(nz[-1])

    def trimmed(self):
        """Drop zero-mass cells at both ends of the window."""
        lo, hi = self.support_cells()
        i, j = lo - self.offset, hi - self.offset
        return LatticeMeasure(self.mesh_n, lo, self.masses[i : j + 1].copy())

    def to_csv(self, path):
        write_csv(path, ("cell_index", "position", "mass"),
                  zip(self.cells, self.positions, self.masses))

    @classmethod
    def from_csv(cls, path):
        """Read a `to_csv` file.  The mesh is read off the first row at a
        nonzero position, and every row's position must be its cell index
        over that mesh; a file whose rows all sit at position 0 does not
        state its mesh and reads as mesh 1."""
        cells, positions, masses, linenos = [], [], [], []
        try:
            fh = open(path)
        except OSError as exc:
            raise PreconditionError(
                f"cannot read lattice CSV {path}: {exc.strerror}"
            ) from exc
        with fh:
            header = fh.readline().strip().split(",")
            if header[:3] != ["cell_index", "position", "mass"]:
                raise PreconditionError(
                    f"{path}: unexpected lattice CSV header {header}"
                )
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    k, x, m = line.strip().split(",")
                    cells.append(int(k))
                    positions.append(float(x))
                    masses.append(float(m))
                except ValueError as exc:
                    raise PreconditionError(
                        f"{path} line {lineno}: expected "
                        f"cell_index,position,mass, got {line.strip()!r}"
                    ) from exc
                linenos.append(lineno)
        if not cells:
            raise PreconditionError(f"{path}: lattice CSV has no rows")
        mesh = max(next((round(k / x) for k, x in zip(cells, positions)
                         if x != 0.0), 1), 1)
        cells = np.asarray(cells)
        off = np.abs(np.asarray(positions) - cells / mesh) > 1e-9
        if off.any():
            i = int(np.argmax(off))
            raise PreconditionError(
                f"{path} line {linenos[i]}: position {positions[i]!r} is not "
                f"cell_index / mesh = {cells[i]}/{mesh}"
            )
        if np.any(np.diff(cells) != 1):
            raise PreconditionError("lattice CSV cells must be consecutive")
        return cls(int(mesh), int(cells[0]), np.asarray(masses, dtype=float))


def format_value(v):
    """A value as the written files hold it: a float with all 17
    significant digits, anything else as ``str`` gives it."""
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def write_csv(path, header, rows):
    """The one CSV writer: a header line, then one line per row."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(map(format_value, row)) + "\n")


def discretize(m, n, clip=None):
    """Project a bounded-support measure onto (1/n)Z with hat weights.

    The mass at node k/n is the integral of (1 - n|x - k/n|)+ against the
    measure.  Hats form a partition of unity over the support, so the
    total mass is preserved, and they reproduce affine functions, so the
    mean is preserved as well.

    With ``clip=R`` the projected measure is the law of clip(X, -R, R):
    the mass beyond each end of [-R, R] becomes an atom at that end (all
    of it on the edge node when R*n is an integer).  Clipping keeps the
    total mass, and it keeps the mean of a measure symmetric about 0.
    """
    if n < 1:
        raise PreconditionError("n must be >= 1")
    lo, hi = m.support
    if clip is not None:
        lo, hi = max(lo, -clip), min(hi, clip)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise PreconditionError("unbounded support; truncate first")
    k_min = math.floor(lo * n)
    k_max = math.ceil(hi * n)
    # sub-segments: node grid refined by the measure's breakpoints
    nodes = np.arange(k_min, k_max + 1) / n
    cuts = np.unique(
        np.concatenate(
            [
                nodes,
                [b for b in m.breakpoints if lo < b < hi],
                [lo, hi],
            ]
        )
    )
    cuts = cuts[(cuts >= lo - 1e-15) & (cuts <= hi + 1e-15)]
    p, q = cuts[:-1], cuts[1:]
    keep = q > p
    p, q = p[keep], q[keep]
    m0, m1 = m.moments_batch(p, q)
    # each sub-segment lies in one inter-node span [j/n, (j+1)/n]
    j = np.floor(0.5 * (p + q) * n).astype(int)
    if clip is not None:
        ends = np.array([lo, hi])
        tails = np.array([m.moments(-math.inf, lo)[0],
                          m.moments(hi, math.inf)[0]])
        m0 = np.append(m0, tails)
        m1 = np.append(m1, tails * ends)
        j = np.append(j, np.clip(np.floor(ends * n), k_min, k_max - 1)
                      .astype(int))
    masses = np.zeros(k_max - k_min + 2)
    # node j takes weight 1 + j - n x, node j+1 takes weight 1 - j - ... + n x
    np.add.at(masses, j - k_min, (1.0 + j) * m0 - n * m1)
    np.add.at(masses, j + 1 - k_min, (-j) * m0 + n * m1)
    masses = masses[: k_max - k_min + 1]
    if np.any(masses < -1e-12):
        raise PreconditionError("hat projection produced negative mass")
    masses = np.maximum(masses, 0.0)
    return LatticeMeasure(n, k_min, masses).trimmed()

