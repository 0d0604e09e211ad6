"""``python -m benchmarks.e2e {run,compare}`` (and the internal ``child``)."""

from __future__ import annotations

import argparse
import sys


def parse(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser(
        "run", help="run the workloads, check their outputs, print every metric"
    )
    run.add_argument("--workload", help="one workload of BENCHMARK.json (default: all)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float,
                     help="timed window (default: BENCHMARK.json's run_seconds)")
    run.add_argument("--trace", type=int, choices=(0, 1),
                     help="0: the timed pass only; 1: the traced pass only "
                          "(default: the timed pass, then the traced pass)")
    run.add_argument("--out", default=".",
                     help="directory for BENCH_e2e.json and TRACE_e2e_<workload>.json")
    run.add_argument("--quick", action="store_true",
                     help="2 s windows, one cold start, a minimal traced pass")
    run.add_argument("--repeat", type=int, default=1,
                     help="runs per workload; compare reads their spread")

    compare = commands.add_parser("compare", help="judge result file B against A")
    compare.add_argument("a")
    compare.add_argument("b")

    child = commands.add_parser("child")  # started by run, one per measurement
    child.add_argument("--workload", required=True)
    child.add_argument("--seed", type=int, required=True)
    child.add_argument("--seconds", type=float, required=True)
    child.add_argument("--mode", choices=("setup", "timed", "traced"), required=True)
    child.add_argument("--t0", type=float, required=True)
    child.add_argument("--work", required=True)
    child.add_argument("--trace-out")
    child.add_argument("--quick", action="store_true")
    return parser.parse_args(argv)


def main() -> int:
    args = parse()
    if args.command == "child":
        from . import child

        return child.main(args)
    if args.command == "compare":
        from . import compare

        return compare.main(args)
    from . import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
