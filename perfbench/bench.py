"""Workloads, timed runs and traced runs of the benchmark.

Three workloads drive the package through its public functions:

  pipeline-n200      one run_pipeline at mesh 200: a single wide solve,
                     about 92 % of it in the solver kernel
  oracle-small       criteria 1 and 2 on a fresh acceptance context:
                     thousands of checked solves on windows of <= 50
                     cells plus the brute-force oracle
  montecarlo-checks  sampled counter-example, exact KS, Hermite check,
                     mesh-16 walk and Cantor gap constants on pipeline
                     results built in set-up: no solve in the timed part

An op fails only on the program's own stated checks (the budgets of
acceptance criteria 1, 2, 3, 5, 6, 9 and 10) or when it raises.
"""

import hashlib
import os
import platform
import resource
import statistics
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from io import StringIO

import numpy as np
import scipy

from brownian_transport import (
    acceptance,
    bruteforce,
    cli,
    lattice,
    measures,
    montecarlo as mc,
    pipeline,
    solver,
)
from tracer import Tracer, span_cost

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_FILE = os.path.join(HERE, "reference_digests.txt")
OUT_DIR = os.path.join(HERE, "out")

# budgets stated by the program: criterion 3 (expected-time identity),
# criterion 6 (sampled KS), criterion 10 (walk KS), criterion 9 (points)
ET_TOL = 1e-8
KS_BUDGET = 0.01
WALK_KS_BUDGET = 0.003
PHI1_BUDGET = 0.01
HERMITE_RESIDUAL_BUDGET = 0.02
SUP_EXCESS_BUDGET = 0.01

WALK_MESH = 16  # criterion 10's walk instance
HERMITE_ORDER = 40  # criterion 9's expansion order


@dataclass(frozen=True)
class Sizes:
    mesh_n: int = 200  # pipeline-n200
    cells: int = 6  # oracle-small enumeration (2 902 instances)
    instances: int = 100  # oracle-small random instances
    mc_mesh: int = 100  # montecarlo-checks: counter-example pipeline
    draws: int = 1_000_000
    walk_paths: int = 1_000_000
    gap_samples: int = 2_000
    probe_mesh: int = 400  # traced run: one wide solve
    cli_mesh: int = 200  # traced run: the CLI pipeline command


FULL = Sizes()
TOY = Sizes(mesh_n=50, cells=4, instances=10, mc_mesh=50, draws=10_000,
            walk_paths=10_000, gap_samples=100, probe_mesh=64, cli_mesh=50)


# ---------------------------------------------------------------------------
# Workloads.  Every package call goes through a module attribute so that
# the tracer's wrappers see it.


def _setup_pipeline(seed, sizes):
    return pipeline.CantelliConfig(mesh_n=sizes.mesh_n)


def _op_pipeline(cfg, seed, sizes):
    res = pipeline.run_pipeline(cfg)
    sol = res.solution
    rep = mc.expected_time_check(sol, res.mu0n, res.mu1n, tol=ET_TOL)
    failures = [] if rep.passed else [
        f"expected-time residual {rep.residual:.2e} above {ET_TOL:g}"
    ]
    return _cell_steps(sol), failures


def _setup_oracle(seed, sizes):
    return None


def _op_oracle(_, seed, sizes):
    ctx = acceptance.AcceptanceContext(
        seed, enumeration_cells=sizes.cells, random_instances=sizes.instances
    )
    results = [acceptance.criterion_1(ctx), acceptance.criterion_2(ctx)]
    failures = [r.line() for r in results if not r.passed]
    worst = max((gap for _, gap in ctx.et_residuals), default=0.0)
    if worst > ET_TOL:
        failures.append(f"expected-time residual {worst:.2e} above {ET_TOL:g}")
    return len(ctx.et_residuals), failures


def _setup_montecarlo(seed, sizes):
    return (
        pipeline.run_pipeline(pipeline.CantelliConfig(mesh_n=sizes.mc_mesh)),
        pipeline.run_pipeline(pipeline.CantelliConfig(mesh_n=WALK_MESH)),
        pipeline.CantelliConfig().cantor(),
    )


def _op_montecarlo(state, seed, sizes):
    res, walk_res, cantor = state
    failures = []
    z = mc.simulate_counterexample(
        res, mc.PathSimConfig(num_paths=sizes.draws, seed=seed)
    )
    ks = mc.ks_distance(z.empirical, z.target_cdf)
    if ks > KS_BUDGET:
        failures.append(f"sampled KS {ks:.5f} above {KS_BUDGET}")
    acceptance.counterexample_exact_ks(res)
    h = mc.hermite_check(res.phi, max_n=HERMITE_ORDER,
                         breakpoints=res.breakpoints(), quad_tol=1e-7)
    if not (h.phi1_abs <= PHI1_BUDGET
            and h.identity_residual <= HERMITE_RESIDUAL_BUDGET
            and h.sup_excess <= SUP_EXCESS_BUDGET):
        failures.append(
            f"Hermite point budgets missed: |phi_1| {h.phi1_abs:.2e}, "
            f"residual {h.identity_residual:.4f}, sup excess "
            f"{h.sup_excess:+.3f}"
        )
    sim = mc.simulate_first_intersection(
        walk_res.mu0n, walk_res.solution,
        mc.PathSimConfig(num_paths=sizes.walk_paths, seed=seed, max_time=50.0),
    )
    walk_ks = mc.ks_distance_lattice(sim.empirical, walk_res.solution.stopped)
    if walk_ks > WALK_KS_BUDGET:
        failures.append(f"walk KS {walk_ks:.5f} above {WALK_KS_BUDGET}")
    gaps = measures.cantor_gap_constants(cantor, sizes.gap_samples, seed=seed)
    if not gaps.alpha_quadratic > 0.0:
        failures.append(f"alpha_quadratic {gaps.alpha_quadratic:.4f} <= 0")
    return sizes.draws + sizes.walk_paths, failures


@dataclass(frozen=True)
class Workload:
    setup: object
    op: object
    work_unit: str  # what work_per_s counts on this workload


WORKLOADS = {
    "pipeline-n200": Workload(_setup_pipeline, _op_pipeline, "cell_steps"),
    "oracle-small": Workload(_setup_oracle, _op_oracle, "instances"),
    "montecarlo-checks": Workload(_setup_montecarlo, _op_montecarlo, "paths"),
}


def setup(name, seed, sizes=FULL):
    return WORKLOADS[name].setup(seed, sizes)


def _run_op(name, state, seed, sizes):
    """One op: (wall seconds, work done, failure messages)."""
    start = time.perf_counter()
    try:
        work, failures = WORKLOADS[name].op(state, seed, sizes)
    except Exception as exc:  # a raising op is a failed op; the run goes on
        work, failures = 0, [f"{type(exc).__name__}: {exc}"]
    return time.perf_counter() - start, work, failures


# ---------------------------------------------------------------------------
# Results


def machine_context(thread_vars):
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in thread_vars},
        "machine": platform.machine(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _result(attempted, failed, metrics):
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def measure(name, state, seed, seconds, setup_samples, sizes=FULL, log=print):
    """Run ops back to back while the next one is expected to end within
    ``seconds`` (at least one op) and return the end-to-end result."""
    times, rates, failed = [], [], 0
    start = time.perf_counter()
    while not times or (time.perf_counter() - start
                        + statistics.median(times) <= seconds):
        dt, work, failures = _run_op(name, state, seed, sizes)
        times.append(dt)
        rates.append(work / dt)
        if failures:
            failed += 1
            for msg in failures:
                log(f"op {len(times) - 1} failed: {msg}")
    unit = WORKLOADS[name].work_unit
    log(f"op wall times (s): {' '.join(f'{t:.4f}' for t in times)}")
    log(f"work_per_s counts {unit}: "
        f"{unit}_per_s = {statistics.median(rates):.6g}")
    log(f"failed_ratio = {failed}/{len(times)}")
    return _result(len(times), failed, {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (statistics.median(times), "s"),
        "work_per_s": (statistics.median(rates), "1/s"),
        "ok_ratio": ((len(times) - failed) / len(times), "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    })


# ---------------------------------------------------------------------------
# Traced run

TRACED = (
    measures.build_cantor, measures.from_pieces, measures.truncate_normalize,
    measures.gamma_center, measures.cantor_gap_constants,
    lattice.discretize,
    solver.solve, solver.extend_f,
    bruteforce.exhaustive_transport,
    pipeline.build_problem, pipeline.run_pipeline,
    mc.simulate_counterexample, mc.ks_distance, mc.ks_distance_lattice,
    mc.hermite_check, mc.simulate_first_intersection, mc.expected_time_check,
    acceptance.enumerate_instances, acceptance.criterion_1,
    acceptance.criterion_2, acceptance.counterexample_exact_ks,
    cli.main,
)
KEEP = ("solver.solve", "montecarlo.simulate_first_intersection",
        "measures.cantor_gap_constants")
LAYERS = ("measures", "lattice", "solver", "bruteforce", "pipeline",
          "montecarlo", "acceptance", "cli")
PREPARE = ("measures.build_cantor", "pipeline.build_problem",
           "measures.truncate_normalize", "measures.gamma_center")
WORKLOAD_OPS = ("setup", "op")  # the probes are tagged otherwise
CLI_FILES = ("f.csv", "phi.csv", "cantor.csv", "meta")


def solution_digest(sol):
    """Digest of the freeze steps, survival and stopped masses of a solve."""
    h = hashlib.sha256()
    for arr, dtype in ((sol.freeze_step, "<i8"), (sol.survival, "<f8"),
                       (sol.stopped.masses, "<f8")):
        h.update(np.ascontiguousarray(arr, dtype=dtype).tobytes())
    return h.hexdigest()[:16]


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def load_refs(path=REFERENCE_FILE):
    """Reference digests: one ``<digest> <label>`` per line."""
    refs = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                digest, label = line.split(" ", 1)
                refs[label] = digest
    return refs


def solve_groups(tracer, seed, sizes):
    """Solution digests of every traced solve, grouped under the labels of
    the reference file: one group per pipeline solve, one per criterion."""
    labels = {
        "pipeline.run_pipeline": None,
        "acceptance.criterion_1": f"criterion_1 cells={sizes.cells}",
        "acceptance.criterion_2":
            f"criterion_2 seed={seed} instances={sizes.instances}",
    }
    groups = []  # (label, [digest, ...]) in call order
    open_group = {}
    for i, s in enumerate(tracer.spans):
        if s.name != "solver.solve" or s.parent < 0:
            continue
        parent = tracer.spans[s.parent].name
        if parent not in labels:
            continue
        sol = tracer.results[i]
        if labels[parent] is None:
            groups.append((f"pipeline n={sol.mesh_n}", [solution_digest(sol)]))
            continue
        if s.parent not in open_group:
            open_group[s.parent] = (labels[parent], [])
            groups.append(open_group[s.parent])
        open_group[s.parent][1].append(solution_digest(sol))
    return [
        (label, len(ds), ds[0] if len(ds) == 1 else
         hashlib.sha256("".join(ds).encode()).hexdigest()[:16])
        for label, ds in groups
    ]


def compare(observed, refs, log=print):
    """(all compared equal, solves compared); unreferenced groups are
    reported and left out."""
    same, solves = True, 0
    for label, count, digest in observed:
        if label not in refs:
            log(f"no reference digest for {label}")
            continue
        solves += count
        if refs[label] != digest:
            same = False
            log(f"digest mismatch for {label}: {digest} != {refs[label]}")
    return same and solves > 0, solves


def _sum(values):
    return float(sum(values))


def _cell_steps(sol):
    return sol.steps * sol.freeze_step.size


def layer_metrics(tracer, op_span, untraced_op_s):
    spans = tracer.spans
    selfs = tracer.self_times()

    def pick(names, ops=WORKLOAD_OPS, parent=None):
        return [i for i, s in enumerate(spans)
                if s.name in names and s.op in ops
                and (parent is None or (
                    s.parent >= 0
                    and spans[s.parent].name.startswith(parent)))]

    def total(names, ops=WORKLOAD_OPS, parent=None):
        return _sum(spans[i].duration for i in pick(names, ops, parent))

    wide = pick(("solver.solve",), parent="pipeline.")
    small = pick(("solver.solve",), parent="acceptance.")
    steps = sum(tracer.results[i].steps for i in wide)
    cell_steps = sum(_cell_steps(tracer.results[i]) for i in wide)
    solve_s = total(("solver.solve",), parent="pipeline.")
    small_steps = sum(tracer.results[i].steps for i in small)
    small_s = total(("solver.solve",), parent="acceptance.")
    walks = pick(("montecarlo.simulate_first_intersection",))
    walk_iterations = 0
    for i in walks:
        # the walk loop runs one iteration per step until the last stop
        last = float(tracer.results[i].times.max()) * WALK_MESH ** 2
        walk_iterations += int(round(last)) + 1
    gaps = pick(("measures.cantor_gap_constants",))

    probe = pick(("solver.solve",), ops=("probe.n400",))
    probe_cells = sum(_cell_steps(tracer.results[i]) for i in probe)
    probe_s = total(("solver.solve",), ops=("probe.n400",))
    cli_main = pick(("cli.main",), ops=("probe.cli",))

    in_op = tracer.descendants(op_span)
    layer_self = {layer: _sum(selfs[i] for i in in_op
                              if spans[i].layer == layer)
                  for layer in LAYERS}
    layer_self["cli"] = _sum(selfs[i] for i in cli_main)
    op_s = spans[op_span].duration
    package_self = _sum(selfs[i] for i in in_op if i != op_span)
    return {
        "measures.prepare_s": (total(PREPARE), "s"),
        "measures.cantor_gap_s": (
            total(("measures.cantor_gap_constants",)), "s"),
        "measures.gap_samples": (
            sum(tracer.results[i].n_samples for i in gaps), "count"),
        "lattice.discretize_s": (total(("lattice.discretize",)), "s"),
        "lattice.window_cells": (max((tracer.results[i].freeze_step.size
                                      for i in wide), default=0), "count"),
        "solver.solve_s": (solve_s, "s"),
        "solver.steps": (steps, "count"),
        "solver.cell_steps": (cell_steps, "count"),
        "solver.cell_steps_per_s": (cell_steps / solve_s if solve_s else 0.0,
                                    "1/s"),
        "solver.extend_s": (total(("solver.extend_f",)), "s"),
        "solver.n400.cell_steps_per_s": (probe_cells / probe_s, "1/s"),
        "solver.small.calls": (len(small), "count"),
        "solver.small.steps": (small_steps, "count"),
        "solver.small.checked_s": (small_s, "s"),
        "solver.small.us_per_step": (1e6 * small_s / small_steps
                                     if small_steps else 0.0, "us"),
        "bruteforce.calls": (len(pick(("bruteforce.exhaustive_transport",))),
                             "count"),
        "bruteforce.oracle_s": (total(("bruteforce.exhaustive_transport",)),
                                "s"),
        "acceptance.enumerate_s": (total(("acceptance.enumerate_instances",)),
                                   "s"),
        "acceptance.exact_ks_s": (
            total(("acceptance.counterexample_exact_ks",)), "s"),
        "montecarlo.counterexample_s": (
            total(("montecarlo.simulate_counterexample",)), "s"),
        "montecarlo.ks_s": (total(("montecarlo.ks_distance",
                                   "montecarlo.ks_distance_lattice")), "s"),
        "montecarlo.walk_s": (
            total(("montecarlo.simulate_first_intersection",)), "s"),
        "montecarlo.walk_iterations": (walk_iterations, "count"),
        "montecarlo.hermite_s": (total(("montecarlo.hermite_check",)), "s"),
        "cli.pipeline_s": (total(("cli.main",), ops=("probe.cli",)), "s"),
        **{f"{layer}.self_s": (v, "s") for layer, v in layer_self.items()},
        "bench.self_s": (selfs[op_span], "s"),
        "trace.op_s": (op_s, "s"),
        "trace.untraced_op_s": (untraced_op_s, "s"),
        "trace.overhead": (op_s / untraced_op_s - 1.0, "ratio"),
        "trace.coverage": (package_self / op_s, "ratio"),
        "trace.spans": (len(spans), "count"),
        "trace.span_cost_us": (1e6 * span_cost(), "us"),
    }


def trace_run(name, seed, sizes=FULL, refs=None, log=print):
    """Traced set-up and op of a workload plus the two probes (a wide solve
    and the CLI pipeline command); returns the per-layer result and the
    observed digests."""
    refs = load_refs() if refs is None else refs
    origin = time.perf_counter()
    tracer = Tracer(TRACED, keep=KEEP)
    with tracer.active("setup"):
        state = setup(name, seed, sizes)
    untraced_s, _, failures = _run_op(name, state, seed, sizes)
    with tracer.active("op"), tracer.span("bench.op") as op_span:
        _, _, traced_failures = _run_op(name, state, seed, sizes)
    for msg in failures + traced_failures:
        log(f"op failed: {msg}")
    failed = bool(failures) + bool(traced_failures)

    with tracer.active("probe.n400"):
        wide = pipeline.run_pipeline(
            pipeline.CantelliConfig(mesh_n=sizes.probe_mesh))
    ks_exact = acceptance.counterexample_exact_ks(wide)

    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        with tracer.active("probe.cli"), redirect_stdout(StringIO()):
            code = cli.main(["pipeline", f"n={sizes.cli_mesh}",
                             f"out_dir={tmp}"])
        failed += code != 0
        files = [(f"cli pipeline n={sizes.cli_mesh} {f}", 1,
                  file_digest(os.path.join(tmp, f))) for f in CLI_FILES]
        written = sum(os.path.getsize(os.path.join(tmp, f))
                      for f in os.listdir(tmp))

    observed = solve_groups(tracer, seed, sizes)
    bitident, solves = compare(observed, refs, log)
    files_same, _ = compare(files, refs, log)
    metrics = layer_metrics(tracer, op_span, untraced_s)
    metrics.update({
        "solver.bitident": (int(bitident), "flag"),
        "solver.bitident_solves": (solves, "count"),
        "pipeline.n400.ks_exact": (ks_exact, "1"),
        "cli.bytes_written": (written, "bytes"),
        "cli.files_identical": (int(files_same), "flag"),
    })
    spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.jsonl")
    tracer.write(spans_path, origin)
    log(f"spans written to {os.path.relpath(spans_path)}")
    return _result(4, failed, metrics), observed + files
