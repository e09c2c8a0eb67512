import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import brownian_transport as bt


def test_star_import_names_only_existing_objects():
    namespace = {}
    exec("from brownian_transport import *", namespace)
    assert set(bt.__all__) <= set(namespace)


def test_density_measure_is_pieces():
    names = [f.name for f in dataclasses.fields(bt.DensityMeasure)]
    assert names == ["pieces"]


GAUSS_FREE_RUN = """
import sys

import numpy as np

import brownian_transport as bt
from brownian_transport import acceptance, cli, measures

mu0 = bt.LatticeMeasure(1, 0, np.array([1.0]))
mu1 = bt.LatticeMeasure(1, -2, np.array([0.25, 0.25, 0.0, 0.25, 0.25]))
bt.solve(mu0, mu1, observe=bt.InvariantCheck())
mu0.to_csv("mu0.csv")
mu1.to_csv("mu1.csv")
ctx = acceptance.AcceptanceContext(enumeration_cells=3, random_instances=3)
assert acceptance.criterion_1(ctx).passed
assert acceptance.criterion_2(ctx).passed
assert cli.main(["solve", "mu0=mu0.csv", "mu1=mu1.csv", "out_dir=sol"]) == 0
assert cli.main(["cantor", "depth=4", "samples=50", "out_dir=cantor"]) == 0
assert "scipy.special" not in sys.modules, "loaded without a Gaussian read-out"

x = np.concatenate([np.linspace(-40.0, 40.0, 8001), [-np.inf, np.inf]])
first = measures.ndtr(x)  # the first Gaussian read-out
assert "scipy.special" in sys.modules
from scipy.special import ndtr

assert measures.ndtr is ndtr
assert first.tobytes() == ndtr(x).tobytes()
"""


def test_scipy_special_loads_on_the_first_gaussian_read_out(tmp_path):
    # in a fresh interpreter: the lattice transport, criteria 1 and 2 and
    # the solve and cantor commands never import scipy.special, and the
    # normal CDF is scipy's ndtr bit for bit, both tails and +-inf included
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", GAUSS_FREE_RUN], cwd=tmp_path,
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr


SOLVE_ONLY_RUN = """
import sys

import numpy as np

import brownian_transport as bt

mu0 = bt.LatticeMeasure(1, 0, np.array([1.0]))
mu1 = bt.LatticeMeasure(1, -2, np.array([0.25, 0.25, 0.0, 0.25, 0.25]))
assert bt.solve(mu0, mu1).steps == 3
loaded = {"concurrent.futures", "scipy.special"} & set(sys.modules)
assert not loaded, sorted(loaded)
"""


def test_import_and_solve_load_neither_scipy_special_nor_a_thread_pool():
    # in a fresh interpreter: the thread pool of the lattice walk, like the
    # normal CDF, is imported on its first use
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", SOLVE_ONLY_RUN],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
