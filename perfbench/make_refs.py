"""Write the reference digests that solver.bitident and cli.files_identical
compare against.

    python3 perfbench/make_refs.py

Run it only at a commit whose solver output is the accepted reference:
the digests cover the freeze steps, survival and stopped masses of every
solve the traced runs make (full and toy sizes, seed 0), the random
instances of criterion 2 for seeds 0-99, and the CLI pipeline files.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import bench  # noqa: E402
from brownian_transport import acceptance  # noqa: E402
from tracer import Tracer  # noqa: E402

CRITERION_2_SEEDS = range(100)


def main():
    found = {}
    for sizes in (bench.FULL, bench.TOY):
        for name in bench.WORKLOADS:
            _, observed = bench.trace_run(name, 0, sizes, refs={},
                                          log=lambda msg: None)
            found.update((label, d) for label, _, d in observed)
    for seed in CRITERION_2_SEEDS:
        tracer = Tracer(bench.TRACED, keep=bench.KEEP)
        ctx = acceptance.AcceptanceContext(
            seed, random_instances=bench.FULL.instances)
        with tracer.active("op"):
            acceptance.criterion_2(ctx)
        for label, _, digest in bench.solve_groups(tracer, seed, bench.FULL):
            found[label] = digest
    with open(bench.REFERENCE_FILE, "w") as fh:
        fh.write("# <digest> <label>; written by make_refs.py\n")
        for label in sorted(found):
            fh.write(f"{found[label]} {label}\n")
    print(f"{len(found)} digests -> {bench.REFERENCE_FILE}")


if __name__ == "__main__":
    main()
