"""One workload process: set up, print 'ready', run whole rounds, report.

Started by run.py with BLAS/OpenMP threading pinned and PYTHONPATH set to
the checkout's src.  Prints 'ready' on its own line once set-up is done (run.py
times process start to that line as set-up), then, after --seconds of whole
rounds, one JSON line with the raw measurements.  With --trace 1 it
alternates untraced and traced rounds, so the tracing overhead is measured
in the same process; the untraced rounds run with the tracer's wrappers
taken out again.  A traced run ends with one cold CLI process per
subcommand, for the import and command-line layer times.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    tracer = None
    # the library is imported from the checkout, never from elsewhere
    sys.path.insert(0, str(SRC))
    import trimodal
    if Path(trimodal.__file__).resolve().parent != SRC / "trimodal":
        raise SystemExit(f"trimodal imported from {trimodal.__file__}, not {SRC}")
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
    workload = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    attempted = failed = 0
    errors: list[str] = []         # failed operations and wrong outputs
    wrong = 0
    op_s: list[float] = []         # untraced operations that succeeded
    traced_op_s: list[float] = []
    round_op_s: list[float] = []   # mean seconds per operation, per untraced round
    snapshots: list[dict] = []
    rounds = 0
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and rounds % 2 == 1
        if tracer is not None and traced:
            tracer.install()
        elif tracer is not None:
            tracer.uninstall()
        done, busy = 0, 0.0
        for label, operation in workload.round():
            attempted += 1
            if tracer is not None:
                tracer.reset()
                tracer.op = attempted
                tracer.active = traced
            t0 = time.perf_counter()
            try:
                output = operation()
            except Exception:  # a failed operation is counted, and the run goes on
                failed += 1
                errors.append(f"{label}: {traceback.format_exc(limit=3)}")
                continue
            finally:
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
            (traced_op_s if traced else op_s).append(dt)
            done, busy = done + 1, busy + dt
            if traced and tracer is not None:
                snapshots.append(tracer.snapshot())
            try:
                workload.check(label, output)
            except Exception as exc:  # an output the check cannot even read is wrong too
                wrong += 1
                errors.append(f"{label}: {exc}")
            # released before the next operation, whose peak memory must not
            # include this result
            output = None
        if not traced and done:
            round_op_s.append(busy / done)
        rounds += 1
        if time.perf_counter() - start >= args.seconds and (not args.trace or rounds >= 2):
            break
    try:
        workload.finish()
    except Exception as exc:
        wrong += 1
        errors.append(f"finish: {exc}")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.trace:
        from tracer import layer_metrics
        from workloads import CliStarts
        cold = CliStarts(args.seed)
        for label in cold.commands:
            attempted += 1
            try:
                output = cold.run(label)
            except Exception:
                failed += 1
                errors.append(f"cli {label}: {traceback.format_exc(limit=3)}")
                continue
            try:
                cold.check(label, output)
            except Exception as exc:
                wrong += 1
                errors.append(f"cli {label}: {exc}")

    result = {
        "attempted": attempted, "failed": failed, "correct": wrong == 0, "errors": errors,
        "op_s": op_s, "round_op_s": round_op_s, "rounds": rounds,
        "peak_rss_mb": peak_rss_mb, "environment": environment(),
    }
    if args.trace:
        layers = layer_metrics(snapshots)

        def median(values):
            return statistics.median(values) if values else 0.0

        layers.update({
            "import.trimodal_s": {"value": median(cold.import_s), "unit": "s"},
            "import.scipy_s": {"value": median(cold.scipy_s), "unit": "s"},
            "cli.after_import_s": {"value": median(cold.after_import_s), "unit": "s"},
            "trace.overhead_pct": {"value": 100.0 * (
                statistics.median(traced_op_s) / statistics.median(op_s) - 1.0), "unit": "%"},
        })
        result["layers"] = layers
        out = ROOT / "perfbench" / "out"
        out.mkdir(exist_ok=True)
        tracer.write_spans(out / f"spans-{args.workload}-seed{args.seed}.tsv")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
