"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload line-dcf --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separate traced run.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every output check passed, 1 when one failed and 2 when
the program to measure is missing or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.bench import Run, execute
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        rec = execute(Run(
            workload=WORKLOADS[args.workload], seed=args.seed, seconds=args.seconds,
            trace=bool(args.trace), root=ROOT, work=work,
        ))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for note in rec.notes:
        print(note)
    for failure in rec.failures:
        print(f"FAILED: {failure}")
    for name, (value, unit) in rec.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps(rec.summary()), flush=True)
    return 0 if rec.correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
