"""slopekit benchmark: one workload per call, checked outputs, JSON metrics.

    python3 perfbench/run.py --workload graphs --seed 1 --seconds 40 --trace 0

Run from the root of a slopekit source tree; the program is imported
from its `src/` directory. With --trace 0 the run reports the end-to-end
metrics; with --trace 1 it installs the per-layer tracer and reports the
per-layer metrics instead. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. A copy of
the result, with the raw timings, goes to perfbench/out/.
"""
from __future__ import annotations

import os

# One thread for BLAS and OpenMP, here and in every child process, so
# that a run uses one core of the machine and numbers do not depend on
# what else is scheduled beside it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is repeated this many times per untraced run; setup_s is the median.
SETUP_REPEATS = 11


def import_program(modules):
    """Import slopekit afresh from src/, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "slopekit" or m.startswith("slopekit.")]:
        del sys.modules[name]
    loaded = [importlib.import_module(m) for m in modules]
    sk = loaded[0]
    if Path(sk.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"slopekit imported from {sk.__file__}, not from {SRC}")
    return sk


def run_op(op, durations, errors):
    """Run one operation timed, then check it untimed. Returns (ran, correct)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        errors.append(f"{op.label}: {traceback.format_exc()}")
        return False, True
    durations.append(time.perf_counter() - t0)
    try:
        op.check(out)
    except Exception as exc:  # a malformed output can break a checker too
        errors.append(f"{op.label}: check failed: {exc!r}")
        return True, False
    return True, True


def per_round(setup: dict, totals: dict, rounds: int) -> dict:
    """Set-up spans plus the spans of one round; counts stay whole numbers."""
    out = {}
    for name, value in totals.items():
        each = value / rounds
        if isinstance(value, int) and each.is_integer():
            each = int(each)
        out[name] = setup[name] + each
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "slopekit" / "__init__.py").is_file():
        print(f"perfbench: no slopekit sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        kind = WORKLOADS[args.workload]
        wl = kind(args.seed, workdir)

        tracer = tracing.Tracer() if traced else None
        setup_times = []
        for _ in range(1 if traced else SETUP_REPEATS):
            gc.collect()
            t0 = time.perf_counter()
            sk = import_program(kind.modules)
            if traced:
                tracing.install(tracer)
            wl.build(sk)
            setup_times.append(time.perf_counter() - t0)
        setup_layers = tracer.snapshot() if traced else None
        wl.prepare()
        ops = wl.round(tracer)

        errors: list[str] = []
        warmup: list[float] = []
        _, correct = run_op(ops[0], warmup, errors)
        if traced:
            tracer.reset()

        durations: list[float] = []
        attempted = failed = points = rounds = 0
        start = time.perf_counter()
        while True:
            for op in ops:
                attempted += 1
                ran, ok = run_op(op, durations, errors)
                failed += not ran
                correct = correct and ok
                points += op.points if ran else 0
            rounds += 1
            if time.perf_counter() - start >= args.seconds:
                break
        for err in errors:
            print(f"perfbench: {err}", file=sys.stderr)

        detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "rounds": rounds, "op_seconds": durations,
                  "setup_seconds": setup_times, "warmup_seconds": warmup}
        if traced:
            layers = per_round(setup_layers, tracer.snapshot(), rounds)
            if args.workload == "cli":
                layers["cli.import.s"] = wl.import_seconds()
            metrics = {name: {"value": layers[name], "unit": unit}
                       for name, unit in tracing.LAYER_METRICS.items()}
            detail["op_p50_s"] = statistics.median(durations) if durations else None
        else:
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            metrics = {
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "op_p50_s": {"value": statistics.median(durations), "unit": "s"},
                "points_per_s": {"value": points / sum(durations), "unit": "1/s"},
                "peak_rss_mb": {"value": resource.getrusage(who).ru_maxrss / 1024.0,
                                "unit": "MiB"},
            }
        result = {"correct": correct, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
