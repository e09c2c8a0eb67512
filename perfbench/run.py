"""Benchmark entry point.

    python3 perfbench/run.py --workload pipeline-n200 --seed 1 \\
        --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  Exit code 2 means the benchmark could not run.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOAD_NAMES = ("pipeline-n200", "oracle-small", "montecarlo-checks")
# BLAS/OpenMP pools of this process and its set-up children stay at one
# thread; the variables must be set before numpy is imported
THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
SETUP_SAMPLES = 3  # this process plus two fresh set-up processes
CHILD_TIMEOUT_S = 120


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be non-negative")
    return value


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=_seed, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--toy", action="store_true",
                   help="toy sizes (n=50, 4 cells, 10^4 paths)")
    p.add_argument("--setup-only", action="store_true",
                   help="print this process's set-up seconds and exit")
    return p.parse_args(argv)


def _import_bench():
    """Import the harness against the checkout's own sources."""
    if not os.path.isdir(os.path.join(SRC, "brownian_transport")):
        raise ImportError(f"no package sources under {SRC}")
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    import bench
    import brownian_transport

    origin = os.path.abspath(brownian_transport.__file__)
    if not origin.startswith(SRC + os.sep):
        raise ImportError(
            f"brownian_transport imported from {origin}, not from {SRC}")
    return bench


def _child_setup_s(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    if args.toy:
        cmd.append("--toy")
    out = subprocess.run(cmd, capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    args = _parse(argv)
    start = time.perf_counter()
    os.environ.update(THREAD_PINS)
    try:
        bench = _import_bench()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sizes = bench.TOY if args.toy else bench.FULL
    if args.trace:
        result, _ = bench.trace_run(args.workload, args.seed, sizes)
    else:
        state = bench.setup(args.workload, args.seed, sizes)
        setup_s = time.perf_counter() - start
        if args.setup_only:
            print(repr(setup_s))
            return 0
        samples = [setup_s] + [_child_setup_s(args)
                               for _ in range(SETUP_SAMPLES - 1)]
        print(f"set-up samples (s): {' '.join(f'{s:.4f}' for s in samples)}")
        result = bench.measure(args.workload, state, args.seed, args.seconds,
                               samples, sizes)
    print("context " + json.dumps(bench.machine_context(THREAD_PINS)))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
