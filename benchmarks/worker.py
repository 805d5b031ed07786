"""One benchmark step in a fresh process; ``run.py`` starts it.

    worker.py prepare --workload W --seed S --size full|smoke --prep DIR
    worker.py setup   --workload W --seed S --size full|smoke --prep DIR
    worker.py op      --workload W --seed S --size full|smoke --prep DIR --out DIR --trace 0|1

``setup`` imports strisk and parses the workload config, nothing else;
its parent times the whole process. ``op`` runs one timed operation,
reads its peak memory before anything else runs, then checks the
outputs and prints one JSON line.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _op(args: argparse.Namespace) -> dict:
    import checks
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    cpu_start = _cpu_seconds()
    start = time.perf_counter()
    try:
        workloads.operate(args.workload, args.prep, args.out)
    finally:
        run_s = time.perf_counter() - start
        cpu_s = _cpu_seconds() - cpu_start
        # ru_maxrss is in KiB on Linux.
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
    orgs = workloads.SIZES[args.size][args.workload]["orgs"]
    result = {"run_s": run_s, "peak_rss_mb": peak_rss_mb, "cpu_s": cpu_s, "orgs": orgs}
    if tracer:
        tracer.write(args.out / "spans.jsonl")
        result["layers"] = tracer.metrics(cpu_s)
    result["errors"], result["fingerprint"], result["quality"] = checks.check(
        args.workload, args.prep, args.out, args.seed
    )
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("prepare", "setup", "op"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--prep", type=Path, required=True)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        import strisk.cli  # noqa: F401  (every strisk invocation pays this import)
        import workloads

        workloads.parse_config(args.workload, args.prep)
        return 0
    if args.mode == "prepare":
        import workloads

        workloads.prepare(
            args.workload, args.seed, workloads.SIZES[args.size][args.workload], args.prep
        )
        return 0
    try:
        result = _op(args)
    except Exception:  # reported as a failed operation, never hidden
        traceback.print_exc()
        result = {"errors": [traceback.format_exc(limit=3).strip().splitlines()[-1]]}
    print(json.dumps(result))
    return 0 if not result["errors"] else 1


if __name__ == "__main__":
    sys.exit(main())
