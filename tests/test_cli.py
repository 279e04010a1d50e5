import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qgini import (
    LorenzCurve,
    QuantumSystem,
    StateVector,
    checks,
    cli,
    example_state,
    gini_index,
    gini_report,
    load_state_file,
    lorenz_curve,
    new_system,
    pure_density,
    qsystem,
    random_density_matrix,
    random_state_vector,
    save_state_file,
    uncertainty,
    validate_density,
)
from qgini.checks import MAX_SAMPLES
from qgini.cli import SWEEP_COLUMNS, _csv_cell, run
from qgini.statefile import dumps_state
from qgini.uncertainty import MAX_ITERATIONS, MAX_RESTARTS

from conftest import huge_density_document, traced_peak


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---- exit codes ----


def test_no_arguments_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 2
    assert err


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


def test_bad_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "example", "--dim", "3", "--format", "xml")
    assert code == 2
    assert "--format" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "probe" in out


def test_even_dimension_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "estimate", "--dim", "4", "--restarts", "1", "--iters", "1")
    assert code == 1
    assert "dimension must be odd" in err


def test_missing_input_file_is_validation_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "probe", "--input", str(tmp_path / "nope.json"))
    assert code == 1 and "error:" in err


def test_malformed_state_file_is_validation_error(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{oops")
    code, _, err = run_cli(capsys, "probe", "--input", str(path))
    assert code == 1 and "state file" in err


def test_bad_budget_is_validation_error(capsys):
    code, _, err = run_cli(capsys, "estimate", "--dim", "3", "--restarts", "0")
    assert code == 1 and "restarts" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"dim": 3, "kind": "pure", "amplitudes": [[NaN, 0.0], [0.6, 0.0], [0.8, 0.0]]}',
        '{"dim": 3, "kind": "density", "entries": [[[NaN, 0], [0, 0], [0, 0]], '
        '[[0, 0], [0.5, 0], [0, 0]], [[0, 0], [0, 0], [0.5, 0]]]}',
    ],
)
def test_non_finite_state_file_is_validation_error(capsys, tmp_path, text):
    path = tmp_path / "nan.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "probe", "--input", str(path))
    assert code == 1 and out == ""
    assert err == "error: state file holds the non-finite number NaN\n"


def in_fresh_interpreter(*argv, flag="-m"):
    # `python -m <argv>` (or `python -c <argv>`) with the package's source
    # directory on PYTHONPATH, as an uninstalled checkout runs it
    import qgini

    src = os.path.dirname(os.path.dirname(qgini.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, flag, *argv], capture_output=True, text=True, env=env, timeout=120)


def probe_in_fresh_interpreter(path):
    # a fresh interpreter with default warning filters, so a numpy warning or
    # a traceback reaches stderr as it does for a user
    return in_fresh_interpreter("qgini.cli", "probe", "--input", str(path))


def test_python_dash_m_runs_the_command(capsys):
    proc = in_fresh_interpreter("qgini", "example", "--dim", "3")
    assert proc.returncode == 0 and proc.stderr == ""
    code, out, _ = run_cli(capsys, "example", "--dim", "3")
    assert code == 0 and proc.stdout == out
    proc = in_fresh_interpreter("qgini", "example", "--dim", "4")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: dimension must be odd, got 4\n"


def test_one_parser_serves_every_call_in_a_process(capsys, monkeypatch):
    # the parser is built once per process; a usage error or --version must
    # not leave it printing anything other than a fresh interpreter does
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["example", "--dim", "3", "--format", "xml"],
        ["--version"],
        ["example", "--dim", "3"],
        ["check", "--dim", "5", "--samples", "2"],
    ]
    codes = []
    for argv in calls:
        proc = in_fresh_interpreter("qgini", *argv)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
        codes.append(code)
    assert codes == [2, 0, 0, 0]
    assert cli.build_parser() is cli.build_parser()


def test_overflowing_density_file_gets_one_error_line(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(huge_density_document(1e308, -1e308))
    proc = probe_in_fresh_interpreter(path)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: matrix is not Hermitian: max |M - M^dag| = inf\n"


_PAST_DIGIT_LIMIT = "error: state file holds an integer past Python's limit of "


@pytest.mark.parametrize(
    "text, first_words",
    [
        ('{"dim": 1' + "0" * 5000 + ', "kind": "pure", "amplitudes": []}', _PAST_DIGIT_LIMIT),
        ('{"dim": 1, "kind": "pure", "amplitudes": [[1' + "0" * 5000 + ', 0]]}', _PAST_DIGIT_LIMIT),
        (
            '{"dim": 3, "kind": "density", "entries": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0]]]}',
            "error: entries[2] must be a list of 3",
        ),
        (
            '{"dim": 3, "kind": "density", "entries": [[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, "y"]], [[0, 0], [0, 0], [0, 0]]]}',
            "error: entries[1][2] must be a [re, im] pair",
        ),
    ],
    ids=["dim-past-digit-limit", "amplitude-past-digit-limit", "short-density-row", "bad-density-pair"],
)
def test_unreadable_state_file_gets_one_error_line(tmp_path, text, first_words):
    path = tmp_path / "state.json"
    path.write_text(text)
    proc = probe_in_fresh_interpreter(path)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(first_words)


@pytest.mark.parametrize(
    "raw",
    [b"\xff\xfe\x00garbage", b'{"dim": 3, "kind": "pure", "amplitudes": "caf\xe9"}'],
    ids=["binary", "latin-1"],
)
def test_file_that_is_not_utf8_gets_one_error_line(tmp_path, raw):
    path = tmp_path / "state.json"
    path.write_bytes(raw)
    proc = probe_in_fresh_interpreter(path)
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: state file is not UTF-8 text")


def test_oversize_dimension_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "example", "--dim", "200001")
    assert code == 1 and out == ""
    assert err == "error: dimension must be at most 4001, got 200001\n"


def test_bad_sample_count_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "check", "--dim", "3", "--samples", "-5")
    assert code == 1 and out == ""
    assert err == "error: samples must be at least 1, got -5\n"


@pytest.mark.parametrize(
    "argv, name, ceiling",
    [
        (["estimate", "--dim", "5", "--restarts"], "restarts", MAX_RESTARTS),
        (["estimate", "--dim", "5", "--iters"], "iterations", MAX_ITERATIONS),
        (["sweep", "--dims", "3,5", "--restarts"], "restarts", MAX_RESTARTS),
        (["sweep", "--dims", "3,5", "--iters"], "iterations", MAX_ITERATIONS),
        (["check", "--dim", "5", "--samples"], "samples", MAX_SAMPLES),
    ],
)
def test_oversize_budget_is_refused_before_any_work(monkeypatch, capsys, argv, name, ceiling):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the budget check")

    monkeypatch.setattr(uncertainty, "_combined_gini_objective", refuse)
    monkeypatch.setattr(cli, "_sweep_row", refuse)
    monkeypatch.setattr(checks, "_CHECKS", (("refuse", refuse),))
    code, out, err = run_cli(capsys, *argv, str(ceiling + 1))
    assert code == 1 and out == ""
    assert err == f"error: {name} must be at most {ceiling}, got {ceiling + 1}\n"


SEED_COMMANDS = {
    "estimate": ["estimate", "--dim", "3", "--restarts", "1", "--iters", "1"],
    "sweep": ["sweep", "--dims", "3,5", "--restarts", "1", "--iters", "1"],
    "check": ["check", "--dim", "3", "--samples", "2"],
}


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_seed_outside_64_bits_is_refused_before_any_work(monkeypatch, capsys, command, seed):
    def refuse(*args, **kwargs):
        raise AssertionError("work started before the seed check")

    monkeypatch.setattr(uncertainty, "_combined_gini_objective", refuse)
    monkeypatch.setattr(cli, "_sweep_row", refuse)
    monkeypatch.setattr(checks, "_CHECKS", (("refuse", refuse),))
    code, out, err = run_cli(capsys, *SEED_COMMANDS[command], "--seed", seed)
    assert code == 1 and out == ""
    assert err == f"error: seed must lie in [0, 2**64), got {seed}\n"


@pytest.mark.parametrize("seed", ["0", str(2**64 - 1)])
@pytest.mark.parametrize("command", SEED_COMMANDS)
def test_seeds_at_the_64_bit_edges_run(capsys, command, seed):
    code, out, _ = run_cli(capsys, *SEED_COMMANDS[command], "--seed", seed)
    assert code == 0
    if command != "sweep":
        assert json.loads(out)["seed"] == int(seed)


# ---- probe and example ----


def test_example_record(capsys):
    code, out, _ = run_cli(capsys, "example", "--dim", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["dim"] == 3
    assert doc["state_label"] == "example"
    assert abs(doc["g_xp"] - 0.6830127) < 1e-7
    assert len(doc["lorenz_x"]) == 3 and len(doc["permutation_p"]) == 3
    assert abs(doc["g_lower"] + doc["eta_upper"] - doc["g_strict_upper"]) < 1e-12
    # 17 significant digits survive in the raw text
    assert "0.68301270189221941" in out


def test_pure_reports_never_build_the_fourier_matrix(monkeypatch, capsys, tmp_path):
    # a pure state's momentum distribution is an FFT, and a density matrix's
    # an inverse FFT of its wrapped-diagonal sums; the search scores its
    # candidates by the same FFT, so no command here needs F; the basis
    # states take single rows
    rows = QuantumSystem._fourier_rows

    def fourier_rows(self, r):
        if np.ndim(r):
            raise AssertionError("a report or search built rows of the Fourier matrix")
        return rows(self, r)

    path, density = tmp_path / "pure.json", tmp_path / "density.json"
    save_state_file(path, random_state_vector(41, 5))
    save_state_file(density, random_density_matrix(41, 5))
    monkeypatch.setattr(QuantumSystem, "_fourier_rows", fourier_rows)
    # one dense d x d complex matrix would take 16 d^2 bytes
    code, peak = traced_peak(lambda: run(["example", "--dim", "4001"]))
    assert code == 0
    assert peak < 4001 * 4001
    code, peak = traced_peak(lambda: run(["estimate", "--dim", "1001", "--restarts", "1", "--iters", "1"]))
    assert code == 0
    assert peak < 16 * 1001 * 1001
    assert run(["probe", "--input", str(path)]) == 0
    assert run(["probe", "--input", str(density)]) == 0
    assert run(["estimate", "--dim", "5", "--restarts", "1"]) == 0
    assert run(["sweep", "--dims", "3,5", "--restarts", "1", "--iters", "50"]) == 0
    capsys.readouterr()


def test_probe_maximally_mixed(capsys, tmp_path):
    path = tmp_path / "mixed.json"
    save_state_file(path, validate_density(np.eye(3) / 3))
    code, out, _ = run_cli(capsys, "probe", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["state_label"] == "mixed.json"
    assert max(abs(doc["g_x"]), abs(doc["g_p"]), abs(doc["g_xp"])) <= 1e-12


def test_probe_round_trip_matches_library(capsys, tmp_path):
    st = random_state_vector(7, 321)
    path = tmp_path / "pure.json"
    save_state_file(path, st)
    code, out, _ = run_cli(capsys, "probe", "--input", str(path))
    assert code == 0
    doc = json.loads(out)
    want = gini_report(new_system(7), pure_density(st)).g_xp
    assert abs(doc["g_xp"] - want) <= 1e-12


def test_probe_accepts_a_state_at_the_norm_tolerance(capsys, tmp_path):
    # amplitude moduli squared sum to 1 + 5e-11, inside NORM_TOL: what the
    # file boundary accepts must report, with no stricter check downstream
    path = tmp_path / "heavy.json"
    path.write_text(
        '{"dim": 3, "kind": "pure", "amplitudes": '
        "[[0.600000000015, 0.0], [0.480000000012, 0.0], [0.640000000016, 0.0]]}"
    )
    code, out, err = run_cli(capsys, "probe", "--input", str(path))
    assert code == 0, err
    doc = json.loads(out)
    assert abs(doc["lorenz_x"][-1] - (1.0 + 5e-11)) < 1e-15


def test_probe_accepts_a_density_at_the_eigenvalue_tolerance(capsys, tmp_path):
    # a diagonal entry of -5e-11 is inside EIGEN_TOL, so the file boundary
    # accepts the matrix; its distributions must report it, not re-check it
    # against the stricter clamp for outside probabilities
    path = tmp_path / "edge.json"
    path.write_text(
        '{"dim": 3, "kind": "density", "entries": ['
        "[[0.50000000005, 0.0], [0.0, 0.0], [0.0, 0.0]], "
        "[[0.0, 0.0], [0.5, 0.0], [0.0, 0.0]], "
        "[[0.0, 0.0], [0.0, 0.0], [-0.00000000005, 0.0]]]}"
    )
    code, out, err = run_cli(capsys, "probe", "--input", str(path))
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert abs(doc["g_x"] - 0.249999999975) < 1e-15


def test_probe_accepts_a_light_state_at_the_norm_tolerance(capsys, tmp_path):
    # moduli squared sum to 1 - 6e-11, inside NORM_TOL: g_x lands 3e-11 above
    # the cap, which the report's range guard must allow
    path = tmp_path / "light.json"
    path.write_text('{"dim": 3, "kind": "pure", "amplitudes": [[0.99999999997, 0.0], [0.0, 0.0], [0.0, 0.0]]}')
    code, out, err = run_cli(capsys, "probe", "--input", str(path))
    assert code == 0, err
    doc = json.loads(out)
    assert 0.5 < doc["g_x"] <= 0.5 + 1e-10


def test_probe_even_dimension_file(capsys, tmp_path):
    path = tmp_path / "even.json"
    path.write_text('{"dim": 2, "kind": "pure", "amplitudes": [[1.0, 0.0], [0.0, 0.0]]}')
    code, _, err = run_cli(capsys, "probe", "--input", str(path))
    assert code == 1 and "odd" in err


# ---- estimate ----


def test_estimate_record(capsys):
    code, out, _ = run_cli(
        capsys, "estimate", "--dim", "3", "--restarts", "2", "--iters", "150", "--seed", "6"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["state_label"] == "estimate_best"
    assert (doc["restarts"], doc["iterations"], doc["seed"]) == (2, 150, 6)
    assert doc["g_lower"] - 1e-9 <= doc["g_sup_estimate"] < doc["g_strict_upper"]
    assert 0.0 < doc["eta_estimate"] <= doc["eta_upper"] + 1e-9
    assert isinstance(doc["converged"], bool)
    assert abs(doc["g_xp"] - doc["g_sup_estimate"]) <= 1e-10


def test_estimate_is_deterministic_through_the_cli(capsys):
    args = ("estimate", "--dim", "3", "--restarts", "2", "--iters", "100", "--seed", "4")
    _, out_a, _ = run_cli(capsys, *args)
    _, out_b, _ = run_cli(capsys, *args)
    assert out_a == out_b


# ---- sweep ----


# stdout saved from the one-restart-at-a-time search; the lockstep search
# must take exactly the same moves, so it prints the same bytes
SAVED_OUTPUT = Path(__file__).parent / "data"
SEARCH_BUDGET = ["--restarts", "4", "--iters", "2000", "--seed", "7"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["estimate", "--dim", "5", *SEARCH_BUDGET], "estimate-d5-r4-i2000-s7.json"),
        (["estimate", "--dim", "11", *SEARCH_BUDGET], "estimate-d11-r4-i2000-s7.json"),
        (["estimate", "--dim", "21", *SEARCH_BUDGET], "estimate-d21-r4-i2000-s7.json"),
        (["estimate", "--dim", "7"], "estimate-d7-default.json"),
        (
            ["sweep", "--dims", "3,5,7", "--restarts", "4", "--iters", "500", "--seed", "7", "--format", "csv"],
            "sweep-d3-5-7-r4-i500-s7.csv",
        ),
        (["estimate", "--dim", "41", *SEARCH_BUDGET], "estimate-d41-r4-i2000-s7.json"),
        (
            ["sweep", "--dims", "3,5,7", "--restarts", "4", "--iters", "500", "--seed", "7"],
            "sweep-d3-5-7-r4-i500-s7.json",
        ),
        (
            ["estimate", "--dim", "101", "--restarts", "2", "--iters", "50", "--seed", "7"],
            "estimate-d101-r2-i50-s7.json",
        ),
        (
            ["estimate", "--dim", "201", "--restarts", "1", "--iters", "1", "--seed", "7"],
            "estimate-d201-r1-i1-s7.json",
        ),
        (["estimate", "--dim", "15", "--seed", "42"], "estimate-d15-default-s42.json"),
        (["estimate", "--dim", "25", "--seed", "42"], "estimate-d25-default-s42.json"),
    ],
)
def test_search_prints_the_saved_bytes(capsys, argv, name):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (SAVED_OUTPUT / name).read_bytes()


# saved report stdout: however a report's state and bracket are built, the
# values are the same arrays, so the bytes must not move. The state files
# are save_state_file of random_state_vector(5, 7) and
# random_density_matrix(5, 7). The d = 401 example pins a long record
# whose tied probabilities keep index order. No report's distributions take
# a BLAS product, so the bytes do not depend on the thread count.
@pytest.mark.parametrize(
    "argv, name",
    [
        (["example", "--dim", "11"], "example-d11.json"),
        (["example", "--dim", "11", "--format", "csv"], "example-d11.csv"),
        (["probe", "--input", str(SAVED_OUTPUT / "pure-d5-s7.json")], "probe-pure-d5-s7.json"),
        (["probe", "--input", str(SAVED_OUTPUT / "density-d5-s7.json")], "probe-density-d5-s7.json"),
        (["example", "--dim", "401"], "example-d401.json"),
        (["example", "--dim", "401", "--format", "csv"], "example-d401.csv"),
    ],
)
def test_reports_print_the_saved_bytes(capsys, argv, name):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (SAVED_OUTPUT / name).read_bytes()


def _density_text(rho, layout):
    """State-file text of rho: as save_state_file writes it, compact, or with the keys reordered."""
    if layout == "saved":
        return dumps_state(rho)
    entries = np.stack((rho.entries.real, rho.entries.imag), axis=-1).tolist()
    if layout == "compact":
        return json.dumps({"dim": rho.dim, "kind": "density", "entries": entries}, separators=(",", ":"))
    return json.dumps({"entries": entries, "kind": "density", "dim": rho.dim})


@pytest.mark.parametrize("layout", ["saved", "compact", "reordered"])
def test_d201_density_probe_prints_the_saved_bytes(tmp_path, monkeypatch, layout):
    # saved output of probe for save_state_file of random_density_matrix(201, 5);
    # the reordered keys take the general reader. The momentum distribution
    # takes no BLAS product, so fresh interpreters on one and on two BLAS
    # threads print the same bytes
    path = tmp_path / "density-201.json"
    path.write_text(_density_text(random_density_matrix(201, 5), layout))
    for threads in ("1", "2"):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, threads)
        for fmt, name in (("json", "probe-density-d201-s5.json"), ("csv", "probe-density-d201-s5.csv")):
            proc = in_fresh_interpreter("qgini.cli", "probe", "--input", str(path), "--format", fmt)
            assert proc.returncode == 0 and proc.stderr == ""
            assert proc.stdout.encode() == (SAVED_OUTPUT / name).read_bytes(), (threads, fmt)


@pytest.mark.parametrize("path", sorted(SAVED_OUTPUT.glob("estimate-*.json")), ids=lambda path: path.name)
def test_estimate_report_rescores_the_best_state_within_4_ulp(path):
    # the estimate's value is the report of the state it prints, so the
    # saved g_xp and g_sup_estimate are the same float, with no ulp between them
    doc = json.loads(path.read_text())
    assert doc["g_xp"] == doc["g_sup_estimate"]
    assert doc["eta_estimate"] == doc["g_strict_upper"] - doc["g_sup_estimate"]


# saved check stdout: the coherent suites displace one validated fiducial
# directly, and their verdicts and margins must equal those of one
# coherent_state call per pair. d = 11 is the largest dimension where both
# suites run every displacement pair; d = 41 pins the 100 drawn pairs. The
# default 200 samples at d = 11 score several chunks per sampled suite,
# 20 Fourier-swap states and 4 displacement states; 200 samples at d = 41
# score 4 displacement states of 100 drawn pairs, each over several chunks.
# d = 101 pins the Fourier swap's dense F products at a size where BLAS
# blocks them differently; it printed the same bytes at one and two threads.
@pytest.mark.parametrize(
    "argv, name",
    [
        (["check", "--dim", "5", "--samples", "20", "--seed", "7"], "check-d5-n20-s7.json"),
        (["check", "--dim", "11", "--samples", "20", "--seed", "7"], "check-d11-n20-s7.json"),
        (["check", "--dim", "41", "--samples", "20", "--seed", "7"], "check-d41-n20-s7.json"),
        (["check", "--dim", "11", "--seed", "7"], "check-d11-n200-s7.json"),
        (["check", "--dim", "41", "--samples", "200", "--seed", "7"], "check-d41-n200-s7.json"),
        (["check", "--dim", "101", "--samples", "20", "--seed", "7"], "check-d101-n20-s7.json"),
    ],
)
def test_checks_print_the_saved_bytes(capsys, argv, name):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (SAVED_OUTPUT / name).read_bytes()


def test_each_bracket_and_state_is_built_once(monkeypatch, capsys):
    # one bracket per estimate (from its state's dimension) and one per
    # record, and the example state is wrapped, not re-validated
    built = {"BoundSet": 0, "StateVector": 0}

    def counting(cls):
        init = cls.__init__

        def wrapper(self, *args, **kwargs):
            built[cls.__name__] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", wrapper)

    counting(uncertainty.BoundSet)
    counting(StateVector)
    assert run(["estimate", "--dim", "5", "--restarts", "2", "--iters", "50"]) == 0
    assert run(["sweep", "--dims", "3,5", "--restarts", "2", "--iters", "50"]) == 0
    assert run(["example", "--dim", "5"]) == 0
    capsys.readouterr()
    assert built == {"BoundSet": 5, "StateVector": 0}


def test_reports_score_one_distribution_array(monkeypatch, capsys, tmp_path):
    # a report takes both distributions from one (2, d) array: it builds no
    # LorenzCurve, calls neither position_probs nor momentum_probs and runs
    # the momentum kernel once. Its values are still those of lorenz_curve,
    # gini_index and gini_report bit for bit, ties and their order included
    d11 = new_system(11)
    states = {"basis.json": d11.position_state(4), "mixed.json": d11.maximally_mixed()}
    states["density.json"] = random_density_matrix(201, 5)
    argvs = [["example", "--dim", str(d)] for d in (3, 11, 401)]
    for name, state in states.items():
        save_state_file(tmp_path / name, state)
        argvs.append(["probe", "--input", str(tmp_path / name)])
    calls = dict.fromkeys(("LorenzCurve", "position_probs", "momentum_probs", "_momentum_rows"), 0)

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, wrapper)

    counting(LorenzCurve, "__init__", "LorenzCurve")
    counting(QuantumSystem, "position_probs", "position_probs")
    counting(QuantumSystem, "momentum_probs", "momentum_probs")
    counting(qsystem, "_momentum_rows", "_momentum_rows")
    docs = []
    for argv in argvs:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        docs.append(json.loads(out))
    assert calls == {"LorenzCurve": 0, "position_probs": 0, "momentum_probs": 0, "_momentum_rows": len(argvs)}
    monkeypatch.undo()

    def bits(values):
        return np.asarray(values, dtype=np.float64).tobytes()

    for argv, doc in zip(argvs, docs):
        if argv[0] == "example":
            system = new_system(doc["dim"])
            state = example_state(system)
        else:
            state = load_state_file(argv[2])
            system = new_system(state.dim)
        rep = gini_report(system, state)
        for axis, p in (("x", system.position_probs(state)), ("p", system.momentum_probs(state))):
            curve = lorenz_curve(p)
            assert bits(doc[f"lorenz_{axis}"]) == bits(curve.values), (argv, axis)
            assert doc[f"permutation_{axis}"] == curve.order.tolist(), (argv, axis)
            assert bits(doc[f"g_{axis}"]) == bits(gini_index(p)) == bits(getattr(rep, f"g_{axis}")), (argv, axis)
        assert bits(doc["g_xp"]) == bits(rep.g_xp), argv


def test_reports_leave_numpy_random_unloaded(tmp_path):
    # no report draws anything, so `import qgini`, `example` and `probe`
    # need not import numpy.random (about 10 ms and 6 MB of peak RSS);
    # `estimate` and `check` load it when they draw
    path = tmp_path / "density.json"
    save_state_file(path, random_density_matrix(5, 7))
    script = "\n".join((
        "import contextlib, io, sys",
        "import numpy",
        "preloaded = 'numpy.random' in sys.modules",
        "from qgini.cli import run",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = run(['example', '--dim', '11']), run(['probe', '--input', sys.argv[1]])",
        "print(preloaded, codes == (0, 0), 'numpy.random' in sys.modules)",
    ))
    proc = in_fresh_interpreter(script, str(path), flag="-c")
    assert proc.returncode == 0 and proc.stderr == ""
    preloaded, reported, loaded = proc.stdout.split()
    if preloaded == "True":
        pytest.skip("this numpy imports numpy.random on `import numpy`")
    assert (reported, loaded) == ("True", "False")


def test_sweep_json_rows_in_order(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--dims", "3,5", "--restarts", "2", "--iters", "100"
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["dim"] for row in rows] == [3, 5]
    # a JSON row holds the CSV columns, in the CSV order
    assert all(tuple(row) == SWEEP_COLUMNS for row in rows)
    r3 = rows[0]
    assert abs(r3["gini_cap"] - 0.5) < 1e-12
    assert abs(r3["g_lower"] - 0.6830127) < 1e-7
    assert abs(r3["eta_upper"] - 0.3169873) < 1e-7
    r5 = rows[1]
    assert abs(r5["gini_cap"] - 0.6666667) < 1e-7
    assert abs(r5["g_lower"] - 0.8726780) < 1e-7
    assert abs(r5["eta_upper"] - 0.4606553) < 1e-7
    assert "dimension 3" in err  # progress goes to stderr, not stdout


def test_sweep_csv_header_and_values_match_json(capsys):
    args = ("sweep", "--dims", "3", "--restarts", "2", "--iters", "80", "--seed", "2")
    code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    lines = out_csv.strip().split("\n")
    assert lines[0] == ",".join(SWEEP_COLUMNS)
    code, out_json, _ = run_cli(capsys, *args)
    row_json = json.loads(out_json)[0]
    row_csv = next(csv.DictReader(io.StringIO(out_csv)))
    for column in SWEEP_COLUMNS:
        assert float(row_csv[column]) == float(row_json[column])


def test_sweep_rejects_even_member(capsys):
    code, _, err = run_cli(capsys, "sweep", "--dims", "3,4", "--restarts", "1", "--iters", "1")
    assert code == 1 and "odd" in err


def test_sweep_rejects_non_integer_list(capsys):
    code, _, _ = run_cli(capsys, "sweep", "--dims", "3,x")
    assert code == 2


def test_sweep_rejects_an_empty_list(capsys):
    code, out, err = run_cli(capsys, "sweep", "--dims", ",")
    assert (code, out, err) == (1, "", "error: dimension list is empty\n")


# ---- check ----


def test_check_passes_and_reports(capsys):
    code, out, err = run_cli(capsys, "check", "--dim", "3", "--samples", "15", "--seed", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 12
    assert err.count("PASS") == 12


def test_check_verdicts_are_deterministic(capsys):
    args = ("check", "--dim", "3", "--samples", "10", "--seed", "3")
    _, out_a, err_a = run_cli(capsys, *args)
    _, out_b, err_b = run_cli(capsys, *args)
    assert out_a == out_b and err_a == err_b


# ---- format parity ----


def test_example_csv_and_json_values_agree(capsys):
    code, out_json, _ = run_cli(capsys, "example", "--dim", "5")
    code2, out_csv, _ = run_cli(capsys, "example", "--dim", "5", "--format", "csv")
    assert code == 0 and code2 == 0
    doc = json.loads(out_json)
    row = next(csv.DictReader(io.StringIO(out_csv)))
    assert set(row) == set(doc)
    for key, value in doc.items():
        cell = row[key]
        if isinstance(value, list):
            parts = cell.split(";") if cell else []
            assert [float(v) for v in parts] == [float(v) for v in value]
        elif isinstance(value, bool):
            assert cell == ("true" if value else "false")
        elif isinstance(value, (int, float)):
            assert float(cell) == float(value)
        else:
            assert cell == str(value)


# ---- every document reaches the writer as plain Python values ----


_REPORTS = {
    "probe-pure": ["probe", "--input", "pure.json"],
    "probe-density": ["probe", "--input", "density.json"],
    "example": ["example", "--dim", "7"],
    "estimate": ["estimate", "--dim", "5", "--restarts", "2", "--iters", "50", "--seed", "3"],
    "sweep": ["sweep", "--dims", "3,5", "--restarts", "2", "--iters", "50"],
}


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(argv + ["--format", fmt], id=f"{name}-{fmt}")
        for name, argv in _REPORTS.items()
        for fmt in ("json", "csv")
    ]
    + [pytest.param(["check", "--dim", "5", "--samples", "5", "--seed", "2"], id="check")],
)
def test_every_document_is_written(capsys, tmp_path, monkeypatch, argv):
    # a numpy scalar or array in a document makes the writer raise TypeError,
    # which run() does not catch
    monkeypatch.chdir(tmp_path)
    save_state_file("pure.json", random_state_vector(5, 11))
    save_state_file("density.json", random_density_matrix(5, 11))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    if argv[-1] == "csv":
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows and all(None not in row and "" not in row.values() for row in rows)
    else:
        assert isinstance(json.loads(out), (dict, list))


@pytest.mark.parametrize(
    "value", [np.array([0.25, 0.75]), (0.25, 0.75), [[0.25], [0.75]]], ids=["array", "tuple", "nested-list"]
)
def test_csv_cell_refuses_what_the_json_writer_refuses(value):
    with pytest.raises(TypeError):
        _csv_cell(value)
