"""Workload process of the qgini benchmark.

``run.py`` starts this script with the thread-pinned environment it builds,
first as ``setup`` (import qgini and write the workload's input files, timed
from outside) and then once as ``measure``: a closed loop with one client
that calls ``qgini.cli.run(argv)`` in-process with stdout captured, checks
every output, and prints one JSON object as the last line of stdout.

    python3 bench/workload.py setup   --workload W --seed S --dir D
    python3 bench/workload.py measure --workload W --seed S --dir D --seconds T --trace 0|1

See README.md in this directory for the workloads and the metrics.
"""

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import qgini
from qgini import cli
from qgini.gini import gini_report
from qgini.qsystem import DensityMatrix, new_system, pure_density, validate_density
from qgini.statefile import load_state_file, save_state_file
from qgini.uncertainty import example_gini_closed_form

import calibrate
from spans import Tracer

SEARCH_DIMS = (5, 11, 21)
SEARCH_RESTARTS = 4
SEARCH_ITERS = 2000
REPORT_DIMS = (101, 401, 1001)
REPORT_DENSITY_DIM = 201
CHECK_DIMS = (5, 11, 41)
CHECK_SAMPLES = 20
# exact supremum of g_x + g_p at d = 5, computed by brute force over orderings
EXACT_SUP_D5 = 0.992276464632
TAIL_BEYOND = 10
# a run lasts at least this many cycles, so that the slowest op class (two
# ops per report cycle, one per search/check cycle) has 16 samples and
# op_s_tail stays inside it even on a slow machine
MIN_CYCLES = {"search": 16, "report": 8, "check": 16}


def _gini_cap(d):
    return (d - 1.0) / (d + 1.0)


def _g_lower(d):
    """Closed-form combined index of the example state, the bracket's floor."""
    return _gini_cap(d) * (1.0 + 1.0 / (1.0 + math.sqrt(d)))


# ---- inputs ------------------------------------------------------------------


def _haar_vector(d, rng):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def write_inputs(workload, seed, directory):
    """Write the workload's state files (only `report` reads any)."""
    if workload != "report":
        return
    rng = np.random.default_rng(seed)
    for d in REPORT_DIMS:
        save_state_file(directory / f"pure_{d}.json", qgini.StateVector(_haar_vector(d, rng)))
    d = REPORT_DENSITY_DIM
    weights = rng.dirichlet(np.ones(8))
    rho = np.zeros((d, d), dtype=np.complex128)
    for w in weights:
        v = _haar_vector(d, rng)
        rho += w * np.outer(v, v.conj())
    save_state_file(directory / f"density_{d}.json", validate_density(rho))


# ---- ops and their output checks -------------------------------------------


class Op:
    """One CLI invocation and the rule that decides whether its output is right."""

    def __init__(self, argv, check, dim):
        self.argv = [str(a) for a in argv]
        self.check = check
        self.dim = dim


def _check_estimate(doc, dim, rc):
    g = doc["g_sup_estimate"]
    if rc != 0 or doc["dim"] != dim:
        return f"exit {rc}, dim {doc['dim']}"
    if not _g_lower(dim) - 1e-9 <= g < 2.0 * _gini_cap(dim):
        return f"g_sup_estimate {g!r} outside [g_lower, 2 cap)"
    if dim == 5 and abs(g - EXACT_SUP_D5) > 1e-9:
        return f"g_sup_estimate {g!r} misses the exact d=5 supremum"
    return None


def _check_example(doc, dim, rc):
    expected = example_gini_closed_form(dim)
    if rc != 0 or abs(doc["g_xp"] - expected) > 1e-12:
        return f"exit {rc}, g_xp {doc['g_xp']!r} vs closed form {expected!r}"
    return None


def _probe_check(reference):
    def check(doc, dim, rc):
        if rc != 0 or doc["dim"] != dim:
            return f"exit {rc}, dim {doc['dim']}"
        for key in ("g_x", "g_p"):
            if abs(doc[key] - getattr(reference, key)) > 1e-12:
                return f"{key} {doc[key]!r} vs gini_report {getattr(reference, key)!r}"
        return None

    return check


def _check_check(doc, dim, rc):
    if rc != 0 or doc["all_passed"] is not True or doc["dim"] != dim:
        return f"exit {rc}, all_passed {doc['all_passed']!r}"
    return None


def _reference_report(path):
    state = load_state_file(path)
    rho = state if isinstance(state, DensityMatrix) else pure_density(state)
    return gini_report(new_system(state.dim), rho)


class Workload:
    """Yields the ops of one cycle at a time; every op seed comes from the run seed."""

    def __init__(self, name, seed, directory):
        self.name = name
        self._rng = random.Random(seed)
        self._report_ops = []
        if name == "report":
            for d in REPORT_DIMS:
                self._report_ops.append(Op(["example", "--dim", d], _check_example, d))
            for tag in [f"pure_{d}" for d in REPORT_DIMS] + [f"density_{REPORT_DENSITY_DIM}"]:
                path = directory / f"{tag}.json"
                ref = _reference_report(path)
                self._report_ops.append(Op(["probe", "--input", path], _probe_check(ref), ref.dim))

    def _op_seed(self):
        return self._rng.randrange(2**31)

    def estimate_op(self, dim, restarts):
        argv = ["estimate", "--dim", dim, "--restarts", restarts, "--iters", SEARCH_ITERS,
                "--seed", self._op_seed()]
        return Op(argv, _check_estimate, dim)

    def cycle(self):
        if self.name == "search":
            return [self.estimate_op(d, SEARCH_RESTARTS) for d in SEARCH_DIMS]
        if self.name == "report":
            return list(self._report_ops)
        return [
            Op(["check", "--dim", d, "--samples", CHECK_SAMPLES, "--seed", self._op_seed()], _check_check, d)
            for d in CHECK_DIMS
        ]


# ---- running ops --------------------------------------------------------------


def call_cli(argv):
    """Run ``qgini.cli.run(argv)`` in-process; returns (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.run(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    if rc != 0:
        sys.stderr.write(f"op {' '.join(argv)} exited {rc}: {err.getvalue()[-2000:]}\n")
    return rc, out.getvalue(), elapsed


def verify(op, rc, stdout):
    """None when the op's output passes its check, else the reason it failed."""
    if rc is None:
        return "raised"
    try:
        doc = json.loads(stdout)
        return op.check(doc, op.dim, rc)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, op, reason):
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            sys.stderr.write(f"FAILED {' '.join(op.argv)}: {reason}\n")


def tail(durations):
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(durations)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return ordered[index], 100.0 * (index + 1) / n


def run_timed(workload, seconds, tally):
    """Closed loop over whole cycles until `seconds` have passed.

    The calibration kernel runs right before every op, so that each op time
    can be scaled by the host speed around it (calibrate.py).
    """
    durations, kernel_s, lifts, first = [], [], [], None
    start = time.perf_counter()
    for cycle in itertools.count(1):
        for op in workload.cycle():
            kernel_s.append(calibrate.time_kernel())
            rc, stdout, elapsed = call_cli(op.argv)
            reason = verify(op, rc, stdout)
            tally.record(op, reason)
            durations.append(elapsed)
            if first is None:
                first = (op, stdout)
            if op.argv[0] == "estimate" and reason is None:
                lifts.append(json.loads(stdout)["g_sup_estimate"] - _g_lower(op.dim))
        if time.perf_counter() - start >= seconds and cycle >= MIN_CYCLES[workload.name]:
            break
    return durations, kernel_s, lifts, first


def run_traced(workload, seconds, tally, tracer):
    """Each op untraced and traced, alternating which goes first; outputs must match."""
    ops, untraced_s, traced_s, restarts = 0, 0.0, 0.0, 0
    start = time.perf_counter()
    while True:
        for op in workload.cycle():
            runs = {}
            for traced in ((False, True) if ops % 2 == 0 else (True, False)):
                if traced:
                    with tracer:
                        runs[traced] = call_cli(op.argv)
                else:
                    runs[traced] = call_cli(op.argv)
            (rc_u, out_u, t_u), (rc_t, out_t, t_t) = runs[False], runs[True]
            reason = verify(op, rc_u, out_u)
            if reason is None and (rc_t != rc_u or out_t != out_u):
                reason = "traced output differs from untraced output"
            tally.record(op, reason)
            ops += 1
            untraced_s += t_u
            traced_s += t_t
            if op.argv[0] == "estimate":
                restarts += int(op.argv[op.argv.index("--restarts") + 1])
        if time.perf_counter() - start >= seconds:
            break
    return ops, untraced_s, traced_s, restarts


def per_layer_metrics(tracer, ops, untraced_s, traced_s, restarts):
    def m(value, unit):
        return {"value": value, "unit": unit}

    metrics = {}
    for span in (
        "qsystem.new_system", "qsystem.unitary", "qsystem.pure_density", "qsystem.probs",
        "qsystem.density", "qsystem.displacement", "qsystem.conjugate_mix",
        "qsystem.distribution", "lorenz.curve", "lorenz.validate", "gini.index",
        "gini.report", "uncertainty.estimate", "uncertainty.bounds", "serialize.to_json",
        "statefile.load", "sampling", "checks", "cli",
    ):
        stats = tracer.get(span)
        metrics[f"{span}.calls"] = m(stats.calls / ops, "calls/op")
        metrics[f"{span}.self_s"] = m(stats.self_s / ops, "s/op")
    estimate_self = tracer.get("uncertainty.estimate").self_s
    metrics["uncertainty.restart_s"] = m(estimate_self / restarts if restarts else 0.0, "s")
    metrics["trace.overhead_frac"] = m(traced_s / untraced_s - 1.0, "ratio")
    metrics["trace.ops"] = m(ops, "count")
    return metrics


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dicts mode still runs the benchmark
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def measure(args):
    directory = Path(args.dir)
    workload = Workload(args.workload, args.seed, directory)
    tally = Tally()
    result = {"environment": environment()}
    if args.trace:
        tracer = Tracer()
        ops, untraced_s, traced_s, restarts = run_traced(workload, args.seconds, tally, tracer)
        if tracer.missing:
            sys.stderr.write(f"untraced (missing) targets: {', '.join(tracer.missing)}\n")
        result["metrics"] = per_layer_metrics(tracer, ops, untraced_s, traced_s, restarts)
        result["spans"] = {
            name: [s.calls, round(s.self_s, 6), round(s.total_s, 6)] for name, s in sorted(tracer.stats.items())
        }
    else:
        durations, kernel_s, lifts, first = run_timed(workload, args.seconds, tally)
        if workload.name == "search":
            # determinism probe: the first op again, byte for byte
            op, stdout = first
            rc, again, _ = call_cli(op.argv)
            reason = verify(op, rc, again)
            if reason is None and again != stdout:
                reason = "rerun stdout differs from the first run"
            tally.record(op, reason)
        else:
            # search is idle here; one untimed estimate keeps g_sup_lift defined
            op = workload.estimate_op(5, 2)
            rc, stdout, _ = call_cli(op.argv)
            reason = verify(op, rc, stdout)
            tally.record(op, reason)
            if reason is None:
                lifts.append(json.loads(stdout)["g_sup_estimate"] - _g_lower(5))
        scaled = calibrate.scale(durations, kernel_s)
        tail_s, tail_pct = tail(scaled)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["metrics"] = {
            "op_s_p50": {"value": statistics.median(scaled), "unit": "s"},
            "op_s_tail": {"value": tail_s, "unit": "s"},
            "ops_per_s": {"value": len(scaled) / math.fsum(scaled), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            "ok_frac": {"value": 1.0 - tally.failed / tally.attempted, "unit": "ratio"},
            "g_sup_lift": {"value": statistics.fmean(lifts) if lifts else 0.0, "unit": "1"},
        }
        result["wall"] = {
            "op_s_p50": statistics.median(durations),
            "op_s_tail": tail(durations)[0],
            "ops_per_s": len(durations) / math.fsum(durations),
            "kernel_s_p50": statistics.median(kernel_s),
        }
        result["tail"] = {"percentile": tail_pct, "samples": len(durations), "beyond": TAIL_BEYOND}
    result["attempted"] = tally.attempted
    result["failed"] = tally.failed
    print(json.dumps(result))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", choices=("search", "report", "check"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        write_inputs(args.workload, args.seed, Path(args.dir))
    else:
        measure(args)


if __name__ == "__main__":
    main()
