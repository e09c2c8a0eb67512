"""Command-line front end.

Plain ``command key=value ...`` arguments, an optional ``config=FILE`` of
key=value lines (explicit arguments win), and CSV outputs with
full-precision floats.  Exit codes: 0 all checks pass, 1 a check failed,
2 configuration or precondition error.
"""

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
from .lattice import LatticeMeasure
from .measures import build_cantor, cantor_gap_constants
from .pipeline import CantelliConfig, run_pipeline
from .solver import LIVE_TOL, solve

ENV_OUT_DIR = "BROWNIAN_TRANSPORT_OUT_DIR"

_COMMANDS = ("solve", "pipeline", "verify", "cantor", "convergence")

_VALID_KEYS = {
    "solve": {"mu0", "mu1", "out_dir", "verbose", "max_steps"},
    "pipeline": {"t0", "r", "depth", "R", "n", "margin", "out_dir", "svg"},
    "verify": {"seed", "paths", "meshes", "instances", "gap_samples",
               "sim_mesh", "cells", "out_dir"},
    "cantor": {"r", "lo", "hi", "depth", "samples", "seed", "out_dir"},
    "convergence": {"meshes", "paths", "seed", "out_dir"},
}


def _fmt(x):
    return f"{x:.17g}"


def _parse_args(tokens):
    if not tokens or tokens[0] not in _COMMANDS:
        raise PreconditionError(
            f"usage: brownian-transport {{{'|'.join(_COMMANDS)}}} key=value ..."
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
    unknown = set(params) - _VALID_KEYS[command]
    if unknown:
        raise PreconditionError(
            f"unknown keys for {command}: {sorted(unknown)}; valid: "
            f"{sorted(_VALID_KEYS[command])}"
        )
    return command, params


def _out_dir(params):
    out = params.get("out_dir") or os.environ.get(ENV_OUT_DIR) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def write_svg_lineplot(path, xs, ys, title="", width=640, height=360):
    """Minimal self-contained polyline plot."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    pad = 40
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


def _given(params, fields):
    """Keyword arguments for the keys the user gave; the others keep the
    defaults of the callee.  ``fields`` maps key -> (argument, parser)."""
    return {arg: parse(params[key]) for key, (arg, parse) in fields.items()
            if key in params}


_PIPELINE_FIELDS = {
    "t0": ("t0", float),
    "r": ("cantor_radius", float),
    "depth": ("cantor_depth", int),
    "R": ("truncation_R", float),
    "n": ("mesh_n", int),
    "margin": ("horizon_margin", float),
}


def _cmd_pipeline(params):
    cfg = CantelliConfig(**_given(params, _PIPELINE_FIELDS))
    res = run_pipeline(cfg)
    out = _out_dir(params)
    xs = res.f1.xs
    _write_csv(os.path.join(out, "f.csv"), ["x", "f"],
               zip(xs.tolist(), np.asarray(res.f(xs)).tolist()))
    _write_csv(os.path.join(out, "phi.csv"), ["x", "phi"],
               zip(xs.tolist(), np.asarray(res.phi(xs)).tolist()))
    _write_csv(os.path.join(out, "cantor.csv"), ["a", "b"],
               [(float(a), float(b)) for a, b in res.cantor.intervals])
    with open(os.path.join(out, "meta"), "w") as fh:
        fh.write(f"t0={_fmt(cfg.t0)}\n")
        fh.write(f"c={_fmt(res.c)}\n")
        fh.write(f"C={_fmt(res.C)}\n")
        fh.write(f"E_T={_fmt(res.solution.expected_time)}\n")
        fh.write(f"n={cfg.mesh_n}\n")
        fh.write(f"R={_fmt(cfg.truncation_R)}\n")
    if int(params.get("svg", 0)):
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
    out = _out_dir(params)
    verbose = int(params.get("verbose", 0))
    max_steps = int(params["max_steps"]) if "max_steps" in params else None
    start = time.perf_counter()
    if verbose >= 2:
        with open(os.path.join(out, "steplog.csv"), "w") as log:
            log.write("t,cell,nu,phi,frozen_flag\n")

            def write_rows(state):
                if float(state.live.sum()) <= LIVE_TOL:
                    return  # the terminating state takes no step
                # one format over the step's rows: t, cell, nu, phi, flag
                w = state.live.size
                rows = zip(range(state.offset, state.offset + w),
                           state.live.tolist(), state.phi.tolist(),
                           state.absorbing.tolist())
                log.write((f"{state.t},%d,%.17g,%.17g,%d\n" * w)
                          % tuple(itertools.chain.from_iterable(rows)))

            sol = solve(mu0, mu1, max_steps=max_steps, observe=write_rows)
    else:
        sol = solve(mu0, mu1, max_steps=max_steps)
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
    gap = abs(sol.expected_time - (mu1.variance() - mu0.variance()))
    print(
        f"solved in {sol.steps} steps: E_T={sol.expected_time:.12g} "
        f"(identity residual {gap:.2e}) -> {out}"
    )
    return 0 if gap <= 1e-8 else 1


def _print_criterion(result):
    # timings go to stderr, so standard output stays the same run to run
    print(result.line())
    print(f"criterion {result.number}: {result.seconds:.2f} s",
          file=sys.stderr)


_VERIFY_FIELDS = {
    "seed": ("seed", int),
    "paths": ("paths", int),
    "meshes": ("meshes",
               lambda v: tuple(int(m) for m in v.split(",") if m)),
    "instances": ("random_instances", int),
    "gap_samples": ("gap_samples", int),
    "sim_mesh": ("sim_mesh", int),
    "cells": ("enumeration_cells", int),
}


def _cmd_verify(params):
    kwargs = _given(params, _VERIFY_FIELDS)
    results = acceptance.run_all(report=_print_criterion, **kwargs)
    passed = sum(r.passed for r in results)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


def _cmd_cantor(params):
    depth = int(params.get("depth", 8))
    if "lo" in params or "hi" in params:
        missing = [key for key in ("lo", "hi") if key not in params]
        if missing:
            raise PreconditionError(
                f"cantor needs both lo= and hi=; {missing[0]}= is missing"
            )
        lo, hi = float(params["lo"]), float(params["hi"])
    else:
        r = float(params.get("r", 0.5))
        lo, hi = -r, r
    K = build_cantor((lo, hi), depth)
    out = _out_dir(params)
    _write_csv(os.path.join(out, "cantor.csv"), ["a", "b"],
               [(float(a), float(b)) for a, b in K.intervals])
    gaps = cantor_gap_constants(K, int(params.get("samples", 10_000)),
                                seed=int(params.get("seed", 0)))
    with open(os.path.join(out, "gap_constants"), "w") as fh:
        fh.write(f"alpha_quadratic={_fmt(gaps.alpha_quadratic)}\n")
        fh.write(f"alpha_exp={_fmt(gaps.alpha_exp)}\n")
        fh.write(f"n_samples={gaps.n_samples}\n")
        fh.write(f"min_length={_fmt(gaps.min_length)}\n")
    print(
        f"{len(K.intervals)} intervals, total length "
        f"{float(K.total_length()):.12g}; alpha_quadratic="
        f"{gaps.alpha_quadratic:.6g} alpha_exp={gaps.alpha_exp:.6g} -> {out}"
    )
    return 0 if gaps.quadratic_ok else 1


def _cmd_convergence(params):
    meshes = tuple(
        int(v) for v in params.get("meshes", "100,200,400").split(",") if v
    )
    paths = int(params.get("paths", 1_000_000))
    seed = int(params.get("seed", 42))
    out = _out_dir(params)
    rows = []
    runs = {}
    for n in meshes:
        res = run_pipeline(CantelliConfig(mesh_n=n))
        runs[n] = res
        z = mc.simulate_counterexample(
            res, mc.PathSimConfig(num_paths=paths, seed=seed)
        )
        rows.append(
            (n, mc.ks_distance(z.empirical, z.target_cdf),
             acceptance.counterexample_exact_ks(res),
             float(res.C), res.solution.expected_time)
        )
        print(
            f"n={n}: sampled KS={rows[-1][1]:.6f} exact KS={rows[-1][2]:.2e} "
            f"C={res.C:.6f} E_T={res.solution.expected_time:.6f}"
        )
    _write_csv(os.path.join(out, "convergence.csv"),
               ["n", "ks_sampled", "ks_exact", "C", "E_T"], rows)
    for n_c, n_f in zip(meshes, meshes[1:]):
        fc, ff = runs[n_c].f1, runs[n_f].f1
        d = float(np.abs(fc.ys - ff(fc.xs)).max())
        print(f"sup-node |f1({n_c}) - f1({n_f})| = {d:.6f}")
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
