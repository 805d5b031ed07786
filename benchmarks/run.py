"""Benchmark command for strisk.

    python3 benchmarks/run.py --workload quickstart-2k --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --smoke

Run from the root of a checkout. One invocation prepares the workload's
inputs from the seed (untimed), times the set-up of a fresh strisk
process several times, then runs timed operations, each in a fresh
single-threaded process, until ``--seconds`` of operation time have
been measured. Every operation's outputs are checked; a failed check
counts as a failed operation. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics, each a
median over the operations of the invocation).

``--smoke`` runs every workload at a small size, traced and untraced,
with every check, in well under a minute.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_DIR = ROOT / ".benchwork"

# The workloads BENCHMARK.json lists. ingest-5k runs only when asked for:
# with it the gated runs would not fit their time budget at this run length.
WORKLOADS = ("quickstart-2k", "score-5k")
UNGATED = ("ingest-5k",)
SETUP_REPEATS = {"full": 5, "smoke": 1}
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "orgs_per_s": "orgs/s", "peak_rss_mb": "MiB"}
# Each child is killed if it runs longer than this.
CHILD_TIMEOUT_S = 150


class BenchmarkError(Exception):
    """The benchmark itself cannot run here."""


def child_env() -> dict[str, str]:
    """One BLAS thread, fixed hashing, and the checkout's own strisk."""
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(ROOT / "src"),
    )
    return env


def _worker(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(WORKER), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )


def _last_json(stdout: str) -> dict | None:
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def _source_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def prepared(common: list[str], name: str, env: dict[str, str]) -> Path:
    """The workload's inputs, prepared once per seed and source version.

    Preparation is deterministic in the seed and the sources, so a later
    invocation with the same seed reuses the inputs instead of spending
    untimed minutes rebuilding them.
    """
    prep = WORK_DIR / "prep" / f"{name}-{_source_digest()}"
    if prep.is_dir():
        return prep
    partial = prep.with_name(f"{prep.name}.partial{os.getpid()}")
    shutil.rmtree(partial, ignore_errors=True)
    done = _worker(["prepare", *common, "--prep", str(partial)], env)
    if done.returncode != 0:
        shutil.rmtree(partial, ignore_errors=True)
        raise BenchmarkError(f"preparing {name} failed:\n{done.stderr}")
    try:
        partial.rename(prep)
    except OSError:  # prepared meanwhile by another invocation
        shutil.rmtree(partial, ignore_errors=True)
    return prep


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    """Prepare, time set-up, run and check operations; return the result object."""
    env = child_env()
    name = f"{workload}-{size}-s{seed}"
    work = WORK_DIR / f"{name}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    phase = time.perf_counter()
    prep = prepared(common, name, env)
    prepare_s = time.perf_counter() - phase
    common += ["--prep", str(prep)]

    setup_times = []
    for _ in range(SETUP_REPEATS[size]):
        start = time.perf_counter()
        done = _worker(["setup", *common], env)
        setup_times.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise BenchmarkError(f"set-up of {workload} failed:\n{done.stderr}")

    phase = time.perf_counter()
    ops: list[dict] = []
    measured = 0.0
    while not ops or measured < seconds:
        out = work / f"op{len(ops)}"
        done = _worker(["op", *common, "--out", str(out), "--trace", str(int(trace))], env)
        result = _last_json(done.stdout) or {"errors": [f"worker exited {done.returncode}"]}
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
        ops.append(result)
        if "run_s" not in result:
            break
        measured += result["run_s"]
        if not result["errors"]:
            shutil.rmtree(out, ignore_errors=True)

    # Outputs must repeat exactly across the operations of one invocation.
    first = ops[0].get("fingerprint")
    for op in ops[1:]:
        if not op.get("errors") and op.get("fingerprint") != first:
            op["errors"] = ["output differs from the first operation of this invocation"]
    failed = sum(1 for op in ops if op.get("errors"))
    for op in ops:
        for error in op.get("errors", []):
            sys.stderr.write(f"{workload} seed {seed}: {error}\n")
    timed = [op for op in ops if "run_s" in op]
    if not timed:
        raise BenchmarkError(f"no operation of {workload} completed")

    if trace:
        metrics = {
            name: {
                "value": statistics.median(op["layers"][name] for op in timed),
                "unit": spans.metric_unit(name),
            }
            for name in spans.metric_names()
        }
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": statistics.median(op["run_s"] for op in timed),
            "orgs_per_s": statistics.median(op["orgs"] / op["run_s"] for op in timed),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in timed),
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    if failed == 0:
        shutil.rmtree(work, ignore_errors=True)
    print(
        f"{workload} seed={seed} trace={int(trace)} ops={len(ops)} "
        f"run_s={[round(op['run_s'], 3) for op in timed]} "
        f"cpu_s={[round(op['cpu_s'], 3) for op in timed]} prepare_s={prepare_s:.1f} "
        f"setup_total_s={sum(setup_times):.1f} ops_total_s={time.perf_counter() - phase:.1f} "
        f"quality={timed[0].get('quality')}"
    )
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + UNGATED)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "strisk" / "__init__.py").is_file():
        sys.stderr.write(f"no strisk sources under {ROOT / 'src'}; run from a checkout\n")
        return 2
    try:
        if args.smoke:
            results = [
                run_workload(w, args.seed, 0.0, trace, "smoke")
                for w in WORKLOADS + UNGATED
                for trace in (False, True)
            ]
            for result in results:
                print(json.dumps(result))
            summary = {
                "correct": all(r["correct"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": {},
            }
        else:
            if args.workload is None:
                parser.error("--workload is required unless --smoke is given")
            summary = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
