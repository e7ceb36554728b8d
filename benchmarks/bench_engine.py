"""White-scale mean-field run: E14 on the paper's ASCI White machine.

Runs E14's ``white`` grid, 8192 ranks on 512 nodes x 16 CPUs, exact
against mean-field batch 32, and prints the curve: event reduction, wall
speedup, makespan and mean deviation.  It takes minutes of wall time::

    PYTHONPATH=src python benchmarks/bench_engine.py --white

Engine timing is ``perfbench/bench.py``'s job, not this script's.
"""

import argparse
import sys

from repro.experiments.e14_meanfield import format_e14, run_e14


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--white", action="store_true", help="run the White-scale E14 grid")
    args = parser.parse_args(argv)
    if not args.white:
        print("only --white runs here; time the engine with perfbench/bench.py",
              file=sys.stderr)
        return 2
    print(format_e14(run_e14("white")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
