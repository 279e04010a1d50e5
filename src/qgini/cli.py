"""Command-line interface.

Commands
--------
probe      report Lorenz values, Gini indices and bounds for a stored state
example    the same report for the built-in benchmark superposition state
estimate   search for the supremum of the combined index at one dimension
sweep      one summary row per dimension: bounds, example value, estimate
check      run the seeded property suites and report verdicts

One document (JSON by default, CSV on request) goes to standard output;
progress and error messages go to standard error. Exit status is 0 on
success, 1 when a value fails validation (bad state file, even dimension,
impossible budget, failed check), and 2 for unusable command lines.
"""

import argparse
import csv
import functools
import io
import os
import sys

from qgini import __version__
from qgini.checks import run_property_checks
from qgini.errors import ValidationError
from qgini.gini import GiniReport, _gini_rows, gini_report
from qgini.lorenz import _lorenz_rows
from qgini.qsystem import _distribution_rows, check_dimension, new_system
from qgini.sampling import check_seed
from qgini.serialize import _scalar_list_text, scalar_text, to_json
from qgini.statefile import load_state_file
from qgini.uncertainty import BoundSet, check_search_budget, estimate_sup_gini, example_state

SWEEP_COLUMNS = (
    "dim",
    "gini_cap",
    "g_lower",
    "eta_upper",
    "example_g_xp",
    "g_sup_estimate",
    "eta_estimate",
)


def _dims_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated list of integers, got {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every run()."""
    parser = argparse.ArgumentParser(
        prog="qgini",
        description="Lorenz values, Gini indices and uncertainty bounds for finite quantum systems.",
    )
    parser.add_argument("--version", action="version", version=f"qgini {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json", help="output format")

    def add_budget(p):
        p.add_argument("--restarts", type=int, default=32, help="number of search restarts")
        p.add_argument("--iters", type=int, default=2000, help="most coordinate sweeps per restart before its finish")
        p.add_argument("--seed", type=int, default=42, help="master seed for the restart starts")

    p_probe = sub.add_parser("probe", help="report on a state loaded from a file")
    p_probe.add_argument("--input", required=True, help="path to a JSON state file")
    add_format(p_probe)

    p_example = sub.add_parser("example", help="report on the benchmark superposition state")
    p_example.add_argument("--dim", type=int, required=True, help="odd dimension, at least 3")
    add_format(p_example)

    p_est = sub.add_parser("estimate", help="search for the supremum of the combined index")
    p_est.add_argument("--dim", type=int, required=True, help="odd dimension, at least 3")
    add_budget(p_est)
    add_format(p_est)

    p_sweep = sub.add_parser("sweep", help="summary row per dimension")
    p_sweep.add_argument("--dims", type=_dims_list, required=True, help="comma-separated odd dimensions")
    add_budget(p_sweep)
    add_format(p_sweep)

    p_check = sub.add_parser("check", help="run the seeded property suites")
    p_check.add_argument("--dim", type=int, required=True, help="odd dimension, at least 3")
    p_check.add_argument("--samples", type=int, default=200, help="sample count per suite")
    p_check.add_argument("--seed", type=int, default=42, help="master seed for the suites")

    return parser


# ---- report assembly ---------------------------------------------------------


def _build_record(system, state, label: str, estimate=None) -> dict:
    """Everything the report commands emit for one state, in output order.

    `state` is a StateVector or a DensityMatrix. Its two distributions are
    one (2, d) array, scored by the row kernels with the bits of
    `gini_report`, `lorenz_curve` and `LorenzCurve.order`. The estimator
    block is present only when `estimate` is given; its state is then
    `estimate.best_state`, so its g_sup_estimate equals the record's g_xp.
    """
    rows = _distribution_rows(*system._state_array(state))
    g_x, g_p = _gini_rows(rows)
    rep = GiniReport(system.d, float(g_x), float(g_p))
    lorenz_x, lorenz_p = _lorenz_rows(rows).tolist()
    order_x, order_p = rows.argsort(axis=-1, kind="stable").tolist()
    bound_set = BoundSet(system.d)
    record = {
        "dim": system.d,
        "state_label": label,
        "g_x": rep.g_x,
        "g_p": rep.g_p,
        "g_xp": rep.g_xp,
        "lorenz_x": lorenz_x,
        "lorenz_p": lorenz_p,
        "permutation_x": order_x,
        "permutation_p": order_p,
        "gini_cap": bound_set.gini_cap,
        "g_lower": bound_set.g_lower,
        "g_strict_upper": bound_set.g_strict_upper,
        "eta_upper": bound_set.eta_upper,
    }
    if estimate is not None:
        record.update(
            g_sup_estimate=estimate.g_sup_estimate,
            eta_estimate=estimate.eta_estimate,
            restarts=estimate.restarts,
            iterations=estimate.iterations,
            seed=estimate.seed,
            converged=estimate.converged,
        )
    return record


def _csv_cell(value) -> str:
    """A string as it is, a flat list joined by ';', any other plain scalar as in JSON."""
    if isinstance(value, str):
        return value
    if isinstance(value, list):
        return _scalar_list_text(value, ";")
    return scalar_text(value)


def _emit(rows, fmt: str) -> None:
    """Write one document or a list of row documents to stdout."""
    if fmt == "json":
        sys.stdout.write(to_json(rows) + "\n")
        return
    table = rows if isinstance(rows, list) else [rows]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(table[0].keys())
    for row in table:
        writer.writerow([_csv_cell(v) for v in row.values()])
    sys.stdout.write(buf.getvalue())


# ---- command handlers --------------------------------------------------------


def _cmd_probe(args: argparse.Namespace) -> int:
    state = load_state_file(args.input)
    system = new_system(state.dim)
    _emit(_build_record(system, state, os.path.basename(args.input)), args.format)
    return 0


def _cmd_example(args: argparse.Namespace) -> int:
    system = new_system(args.dim)
    _emit(_build_record(system, example_state(system), "example"), args.format)
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    system = new_system(args.dim)
    estimate = estimate_sup_gini(system, restarts=args.restarts, iterations=args.iters, seed=args.seed)
    _emit(_build_record(system, estimate.best_state, "estimate_best", estimate=estimate), args.format)
    return 0


def _sweep_row(dim: int, args: argparse.Namespace) -> dict:
    system = new_system(dim)
    estimate = estimate_sup_gini(system, restarts=args.restarts, iterations=args.iters, seed=args.seed)
    b = estimate.bounds
    example_g_xp = gini_report(system, example_state(system)).g_xp
    values = (dim, b.gini_cap, b.g_lower, b.eta_upper, example_g_xp, estimate.g_sup_estimate, estimate.eta_estimate)
    return dict(zip(SWEEP_COLUMNS, values))


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not args.dims:
        raise ValidationError("dimension list is empty")
    for dim in args.dims:
        check_dimension(dim)
    check_search_budget(args.restarts, args.iters)
    check_seed(args.seed)
    rows = []
    for dim in args.dims:
        print(f"sweep: dimension {dim}", file=sys.stderr)
        rows.append(_sweep_row(dim, args))
    _emit(rows, args.format)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    results = run_property_checks(args.dim, samples=args.samples, seed=args.seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}", file=sys.stderr)
    document = {
        "dim": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "all_passed": all(r.passed for r in results),
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results],
    }
    _emit(document, "json")
    return 0 if document["all_passed"] else 1


_HANDLERS = {
    "probe": _cmd_probe,
    "example": _cmd_example,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "check": _cmd_check,
}


# ---- entry points --------------------------------------------------------------


def run(argv) -> int:
    """Parse `argv` (no program name) and execute; returns the exit status."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        code = exc.code
        return 0 if code in (0, None) else int(code)
    try:
        return _HANDLERS[args.command](args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
