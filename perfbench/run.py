"""Benchmark entry point; run from the repository root:

    python3 perfbench/run.py --workload mlp-smoke --seed 0 --seconds 20 --trace 0

It imports fedfocal from `src/` beside this directory, runs one workload,
checks its outputs, prints a text report and, as the last line, one JSON
object: the end-to-end metrics with `--trace 0`, the per-layer metrics of a
separate traced run with `--trace 1`. It exits 2 when `src/fedfocal` is
missing and 1 when no operation succeeded.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s.p50": "s",
    "final_macro_auc": "ratio",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "fedfocal" / "__init__.py").is_file():
        print(f"error: no fedfocal sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    session = workloads.Session(workloads.WORKLOADS[args.workload], args.seed,
                                args.seconds, ROOT, work)
    try:
        metrics, lines = (workloads.trace if args.trace else workloads.measure)(session)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    if not metrics:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    units = {n: u for n, (u, *_) in workloads.layers.METRICS.items()} if args.trace \
        else END_TO_END_UNITS
    result = {"correct": session.failed == 0, "attempted": session.attempted,
              "failed": session.failed,
              "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
