"""qgini benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload search|report|check --seed N --seconds T --trace 0|1

Run from the repository root. The package is taken from ``src/`` of the same
tree; nothing is installed. With ``--trace 0`` the run times set-up several
times in fresh interpreters and then measures the workload untraced; with
``--trace 1`` it measures the per-layer spans instead. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it describe the environment, the tail percentile and the unscaled
wall times.
"""

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS/OpenMP thread. With two OpenBLAS threads on a 2-core machine a
# single d=41 momentum_probs call sometimes stalls for ~30 ms instead of
# 0.05 ms, and the last digits of the d=401/1001 reports depend on the thread
# count; one thread removes both, at the price of slower d=1001 matmuls.
# Set before numpy loads, for the calibration kernel in this process too.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update(dict.fromkeys(THREAD_VARS, BLAS_THREADS))

import calibrate  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_SCRIPT = BENCH_DIR / "workload.py"

SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0


def workload_env():
    """Environment of the workload processes: this one's pinned threads, src/ on the path."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(args, env, timeout, capture):
    """Run workload.py to completion; returns (wall seconds, stdout).

    The wait blocks in waitpid rather than polling, which would round the
    wall time up to the poll interval; a timer kills a process that overruns.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKLOAD_SCRIPT), *args],
        env=env,
        cwd=ROOT,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        text=True,
    )
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        stdout, _ = proc.communicate()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"workload.py {args[0]} exited with {proc.returncode}")
    return elapsed, stdout


def main():
    parser = argparse.ArgumentParser(description="qgini benchmark")
    parser.add_argument("--workload", choices=("search", "report", "check"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "qgini" / "__init__.py").is_file():
        print(f"error: no qgini sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    began = time.perf_counter()
    env = workload_env()
    work = ROOT / ".bench_work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--dir", str(work)]
    try:
        # the first set-up compiles bytecode and warms the file cache; it is not
        # timed. Each timed one follows a run of the calibration kernel.
        setup_times, kernel_s = [], []
        for i in range(1 if args.trace else SETUP_REPEATS + 1):
            if i:
                kernel_s.append(calibrate.time_kernel())
            elapsed, _ = _spawn(["setup", *common], env, timeout=60, capture=False)
            if i:
                setup_times.append(elapsed)
        remaining = RUN_LIMIT_S - (time.perf_counter() - began)
        _, stdout = _spawn(
            ["measure", *common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, timeout=remaining, capture=True,
        )
    except RuntimeError as exc:
        print(f"error: workload process failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    report = json.loads(stdout.strip().splitlines()[-1])
    metrics = report["metrics"]
    print("# environment " + json.dumps(report["environment"], sort_keys=True))
    if args.trace:
        print("# spans [calls, self_s, total_s] " + json.dumps(report["spans"]))
    else:
        scaled = calibrate.scale(setup_times, kernel_s)
        metrics["setup_s"] = {"value": statistics.median(scaled), "unit": "s"}
        tail = report["tail"]
        wall = report["wall"] | {"setup_s": statistics.median(setup_times)}
        print(
            f"# op_s_tail is p{tail['percentile']:.1f} of {tail['samples']} ops "
            f"({tail['beyond']} beyond); setup_s samples {[round(t, 4) for t in scaled]}"
        )
        print("# unscaled wall times " + json.dumps(wall, sort_keys=True))
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
