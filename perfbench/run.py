"""trimodal benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload verify --seed 0 --seconds 50 --trace 0

Runs from the root of a checkout and measures the trimodal sources in its
src/ directory.  Workload processes run one at a time with BLAS and OpenMP
threading pinned to one thread.  With --trace 0 the result holds the
end-to-end metrics; with --trace 1, the per-layer metrics of a traced run.
Earlier lines describe the environment and the sample counts; the last line
is the result object.  The exit status is 0 only when a result was printed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify", "dynamics")
SETUP_SAMPLES = 9          # set-up is timed this many times per run, median reported
DEADLINE_S = 170           # the whole run ends within this, or its worker is killed
PINNED = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                 "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                 "NUMEXPR_NUM_THREADS")}


def git_sha() -> str:
    """HEAD's commit from .git, without running git; 'none' outside a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "none"


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, setup_only: bool):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                            text=True)


def run_worker(args, setup_only: bool, deadline: float) -> tuple[float, dict | None]:
    """(seconds from process start to 'ready', the worker's result or None).

    The worker is killed if it is still running at `deadline`."""
    started = time.perf_counter()
    proc = start_worker(args, setup_only)
    killer = threading.Timer(max(0.0, deadline - started), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        out = proc.stdout.read()
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode} (first line {first.strip()!r})")
    lines = out.strip().splitlines()
    return setup_s, (json.loads(lines[-1]) if lines and not setup_only else None)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "trimodal" / "__init__.py").is_file():
        print(f"run.py: no trimodal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    try:
        # set-up-only processes before and after the measured one, so the
        # median of the set-up times spans the whole run
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [run_worker(args, setup_only=True, deadline=deadline)[0]
                  for _ in range(extra // 2)]
        setup_s, result = run_worker(args, setup_only=False, deadline=deadline)
        setups.append(setup_s)
        setups += [run_worker(args, setup_only=True, deadline=deadline)[0]
                   for _ in range(extra - extra // 2)]
    except (RuntimeError, json.JSONDecodeError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1

    for line in result["errors"]:
        print(f"# error: {line}", file=sys.stderr)
    env = dict(result["environment"], git_sha=git_sha(), seed=args.seed,
               workload=args.workload)
    print("# env " + json.dumps(env))
    if args.trace:
        metrics = result["layers"]
    else:
        if not result["round_op_s"]:
            print(f"run.py: {args.workload}: no operation succeeded", file=sys.stderr)
            return 1
        metrics = {
            "op_s": {"value": statistics.median(result["round_op_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        print(f"# samples op_s={len(result['round_op_s'])} rounds of "
              f"{len(result['op_s'])} operations, setup_s={len(setups)}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
