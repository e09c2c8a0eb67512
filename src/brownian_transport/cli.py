"""Command-line front end.

Plain ``command key=value ...`` arguments, an optional ``config=FILE`` of
key=value lines (explicit arguments win), and CSV and key=value outputs
with full-precision floats (``lattice.write_csv``, ``_write_keys``).  A
key left out keeps the default of the function it feeds; every value is
parsed before any work, and a bad one is refused by its key.  Exit codes:
0 all checks pass, 1 a check failed, 2 configuration or precondition
error.
"""

import contextlib
import itertools
import os
import sys
import time

import numpy as np

from . import acceptance
from . import montecarlo as mc
from .errors import (
    ConsistencyError,
    NonTerminationError,
    NumericToleranceError,
    PreconditionError,
)
from .lattice import LatticeMeasure, format_value, write_csv
from .measures import build_cantor, cantor_gap_constants
from .pipeline import CantelliConfig, run_pipeline
from .solver import LIVE_TOL, solve

ENV_OUT_DIR = "BROWNIAN_TRANSPORT_OUT_DIR"


def _meshes(value):
    return tuple(int(m) for m in value.split(",") if m)


# per command, each key, the parser of its value and the keyword argument
# of the callee it feeds (`_given`), or None for a key the command reads
# itself: every value is parsed before the command does any work or
# writes any file
_KEYS = {
    "solve": {"mu0": (str, None), "mu1": (str, None),
              "out_dir": (str, None), "verbose": (int, None),
              "max_steps": (int, "max_steps")},
    "pipeline": {"t0": (float, "t0"), "r": (float, "cantor_radius"),
                 "depth": (int, "cantor_depth"), "R": (float, "truncation_R"),
                 "n": (int, "mesh_n"), "margin": (float, "horizon_margin"),
                 "out_dir": (str, None), "svg": (int, None)},
    # verify writes no file, so it takes no out_dir
    "verify": {"seed": (mc.check_seed, "seed"), "paths": (int, "paths"),
               "meshes": (_meshes, "meshes"),
               "instances": (int, "random_instances"),
               "gap_samples": (int, "gap_samples"),
               "sim_mesh": (int, "sim_mesh"),
               "cells": (int, "enumeration_cells")},
    "cantor": {"r": (float, None), "lo": (float, None), "hi": (float, None),
               "depth": (int, None), "samples": (int, None),
               "seed": (mc.check_seed, None), "out_dir": (str, None)},
    "convergence": {"meshes": (_meshes, "meshes"), "out_dir": (str, None)},
}


def _parse_args(tokens):
    if not tokens or tokens[0] not in _KEYS:
        raise PreconditionError(
            f"usage: brownian-transport {{{'|'.join(_KEYS)}}} key=value ..."
        )
    command = tokens[0]
    params = {}
    for tok in tokens[1:]:
        if "=" not in tok:
            raise PreconditionError(f"expected key=value, got {tok!r}")
        key, value = tok.split("=", 1)
        params[key] = value
    if "config" in params:
        path = params.pop("config")
        try:
            with open(path) as fh:
                for lineno, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise PreconditionError(
                            f"{path} line {lineno}: expected key=value, "
                            f"got {line!r}"
                        )
                    key, value = line.split("=", 1)
                    params.setdefault(key.strip(), value.strip())
        except OSError as exc:
            raise PreconditionError(f"cannot read config file: {exc}") from exc
    keys = _KEYS[command]
    unknown = set(params) - set(keys)
    if unknown:
        raise PreconditionError(
            f"unknown keys for {command}: {sorted(unknown)}; valid: "
            f"{sorted(keys)}"
        )
    for key, value in params.items():
        try:
            params[key] = keys[key][0](value)
        except (PreconditionError, ValueError) as exc:
            raise PreconditionError(f"{key}={value}: {exc}") from exc
    return command, params


def _out_dir(params):
    out = params.get("out_dir") or os.environ.get(ENV_OUT_DIR) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_keys(path, **values):
    """One key=value line per value, formatted as in the CSV files."""
    with open(path, "w") as fh:
        for key, value in values.items():
            fh.write(f"{key}={format_value(value)}\n")


def write_svg_lineplot(path, xs, ys, title=""):
    """Minimal self-contained 640 x 360 polyline plot."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    width, height, pad = 640, 360, 40
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if y1 == y0:
        y1 = y0 + 1.0
    sx = (width - 2 * pad) / (x1 - x0)
    sy = (height - 2 * pad) / (y1 - y0)
    pts = " ".join(
        f"{pad + (x - x0) * sx:.2f},{height - pad - (y - y0) * sy:.2f}"
        for x, y in zip(xs, ys)
    )
    with open(path, "w") as fh:
        fh.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
            f'height="{height}">\n'
            f'<rect width="100%" height="100%" fill="white"/>\n'
            f'<text x="{width // 2}" y="20" text-anchor="middle" '
            f'font-size="14">{title}</text>\n'
            f'<polyline fill="none" stroke="black" stroke-width="1" '
            f'points="{pts}"/>\n</svg>\n'
        )


def _given(command, params):
    """Keyword arguments of the callee for the keys of ``command`` that
    the user gave (`_KEYS`); the others keep the callee's defaults."""
    return {arg: params[key] for key, (_, arg) in _KEYS[command].items()
            if arg is not None and key in params}


def _cmd_pipeline(params):
    cfg = CantelliConfig(**_given("pipeline", params))
    res = run_pipeline(cfg)
    out = _out_dir(params)
    xs = res.f1.xs
    write_csv(os.path.join(out, "f.csv"), ["x", "f"],
              zip(xs.tolist(), np.asarray(res.f(xs)).tolist()))
    write_csv(os.path.join(out, "phi.csv"), ["x", "phi"],
              zip(xs.tolist(), np.asarray(res.phi(xs)).tolist()))
    write_csv(os.path.join(out, "cantor.csv"), ["a", "b"],
              res.cantor.float_intervals())
    _write_keys(os.path.join(out, "meta"), t0=cfg.t0, c=res.c, C=res.C,
                E_T=res.solution.expected_time, n=cfg.mesh_n,
                R=cfg.truncation_R)
    if params.get("svg", 0):
        write_svg_lineplot(os.path.join(out, "f1.svg"), xs, res.f1.ys,
                           "transport stopping function")
        write_svg_lineplot(os.path.join(out, "phi.svg"), xs,
                           np.asarray(res.phi(xs)), "phi")
    print(
        f"pipeline done: n={cfg.mesh_n} steps={res.solution.steps} "
        f"C={res.C:.6g} E_T={res.solution.expected_time:.6g} -> {out}"
    )
    return 0


def _cmd_solve(params):
    if "mu0" not in params or "mu1" not in params:
        raise PreconditionError("solve needs mu0=FILE.csv and mu1=FILE.csv")
    mu0 = LatticeMeasure.from_csv(params["mu0"])
    mu1 = LatticeMeasure.from_csv(params["mu1"])
    # a file whose rows all sit at position 0 does not state its mesh; it
    # takes the other input's
    if not mu0.positions.any():
        mu0 = LatticeMeasure(mu1.mesh_n, mu0.offset, mu0.masses)
    elif not mu1.positions.any():
        mu1 = LatticeMeasure(mu0.mesh_n, mu1.offset, mu1.masses)
    verbose = params.get("verbose", 0)
    start = time.perf_counter()
    with contextlib.ExitStack() as files:
        observe = None
        if verbose >= 2:
            log = None

            def observe(state):
                nonlocal log
                if log is None:
                    # solve observes its first state once its checks have
                    # passed, so a refused solve writes no file
                    log = files.enter_context(open(
                        os.path.join(_out_dir(params), "steplog.csv"), "w"))
                    log.write("t,cell,nu,phi,frozen_flag\n")
                if float(state.live.sum()) <= LIVE_TOL:
                    return  # the terminating state takes no step
                # one format over the step's rows: t, cell, nu, phi, flag
                w = state.live.size
                rows = zip(range(state.offset, state.offset + w),
                           state.live.tolist(), state.phi.tolist(),
                           state.absorbing.tolist())
                log.write((f"{state.t},%d,%.17g,%.17g,%d\n" * w)
                          % tuple(itertools.chain.from_iterable(rows)))

        sol = solve(mu0, mu1, observe=observe, **_given("solve", params))
    out = _out_dir(params)
    if verbose >= 1:
        # run statistics go to stderr: standard output and the files stay
        # the same run to run
        seconds = time.perf_counter() - start
        print(
            f"solve: {sol.steps} steps, {sol.freeze_steps} freeze steps, "
            f"mean live span {sol.mean_live_span:.1f} of "
            f"{sol.freeze_step.size} cells, "
            f"{sol.steps / seconds:.0f} steps/s",
            file=sys.stderr,
        )
    sol.to_csv(os.path.join(out, "solution.csv"))
    sol.stopped.to_csv(os.path.join(out, "stopped.csv"))
    rep = mc.expected_time_check(sol, mu0, mu1)
    print(
        f"solved in {sol.steps} steps: E_T={sol.expected_time:.12g} "
        f"(identity residual {rep.residual:.2e}) -> {out}"
    )
    return 0 if rep.passed else 1


def _print_criterion(result):
    # timings go to stderr, so standard output stays the same run to run
    print(result.line())
    print(f"criterion {result.number}: {result.seconds:.2f} s",
          file=sys.stderr)


def _cmd_verify(params):
    results = acceptance.run_all(report=_print_criterion,
                                 **_given("verify", params))
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


def _cmd_cantor(params):
    ends = [key for key in ("lo", "hi") if key in params]
    if ends and "r" in params:
        raise PreconditionError(
            "cantor takes r= or both lo= and hi=, not r= with "
            + " and ".join(f"{key}=" for key in ends))
    if ends:
        missing = [key for key in ("lo", "hi") if key not in params]
        if missing:
            raise PreconditionError(
                f"cantor needs both lo= and hi=; {missing[0]}= is missing"
            )
        lo, hi = params["lo"], params["hi"]
    else:
        r = params.get("r", 0.5)
        lo, hi = -r, r
    K = build_cantor((lo, hi), params.get("depth", 8))
    gaps = cantor_gap_constants(K, params.get("samples", 10_000),
                                seed=params.get("seed", 0))
    out = _out_dir(params)
    write_csv(os.path.join(out, "cantor.csv"), ["a", "b"],
              K.float_intervals())
    _write_keys(os.path.join(out, "gap_constants"),
                alpha_quadratic=gaps.alpha_quadratic,
                alpha_exp=gaps.alpha_exp, n_samples=gaps.n_samples,
                min_length=gaps.min_length)
    print(
        f"{len(K.intervals)} intervals, total length "
        f"{float(K.total_length()):.12g}; alpha_quadratic="
        f"{gaps.alpha_quadratic:.6g} alpha_exp={gaps.alpha_exp:.6g} -> {out}"
    )
    return 0 if gaps.quadratic_ok else 1


def _cmd_convergence(params):
    ctx = acceptance.AcceptanceContext(**_given("convergence", params))
    out = _out_dir(params)
    rows, gaps = acceptance.mesh_convergence(ctx)
    for r in rows:
        print(f"n={r.n}: exact KS={r.ks_exact:.2e} C={r.C:.6f} "
              f"E_T={r.E_T:.6f}")
    write_csv(os.path.join(out, "convergence.csv"), acceptance.MeshRow._fields,
              rows)
    for r_c, r_f, (gap, _) in zip(rows, rows[1:], gaps):
        print(f"sup-node |f1({r_c.n}) - f1({r_f.n})| = {gap:.6f}")
    return 0


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, params = _parse_args(list(argv))
        handler = {
            "solve": _cmd_solve,
            "pipeline": _cmd_pipeline,
            "verify": _cmd_verify,
            "cantor": _cmd_cantor,
            "convergence": _cmd_convergence,
        }[command]
        return handler(params)
    except (PreconditionError, NumericToleranceError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConsistencyError, NonTerminationError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
