import csv
import io
import json

import numpy as np
import pytest

from qgini import (
    gini_report,
    new_system,
    pure_density,
    random_state_vector,
    save_state_file,
    validate_density,
)
from qgini.cli import SWEEP_COLUMNS, run


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
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "NaN" in err


def test_oversize_dimension_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "example", "--dim", "200001")
    assert code == 1 and out == ""
    assert err == "error: dimension must be at most 4001, got 200001\n"


def test_bad_sample_count_is_validation_error(capsys):
    code, out, err = run_cli(capsys, "check", "--dim", "3", "--samples", "-5")
    assert code == 1 and out == ""
    assert err == "error: samples must be at least 1, got -5\n"


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
    assert "0.68301270189221963" in out


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


def test_sweep_json_rows_in_order(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--dims", "3,5", "--restarts", "2", "--iters", "100"
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["dim"] for row in rows] == [3, 5]
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
