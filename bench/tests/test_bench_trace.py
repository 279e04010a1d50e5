"""The traced run must not change results, and the output checks must bite."""

import json
import sys

import pytest

import workload as wl
from spans import FUNCTION_SPANS, Tracer

EXPECTED_LAYERS = {
    "search": {"cli", "uncertainty.estimate", "uncertainty.bounds", "qsystem.new_system", "serialize.to_json"},
    "report": {"cli", "qsystem.unitary", "qsystem.density", "qsystem.probs", "qsystem.pure_density",
               "statefile.load", "gini.report", "lorenz.curve", "lorenz.validate", "serialize.to_json"},
    "check": {"cli", "checks", "sampling", "qsystem.density", "qsystem.displacement",
              "qsystem.conjugate_mix", "gini.index", "lorenz.curve"},
}


def _qgini_namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items() if name.startswith("qgini")}


@pytest.mark.parametrize("name", ["search", "report", "check"])
def test_traced_stdout_equals_untraced(name, tmp_path):
    wl.write_inputs(name, 7, tmp_path)
    tally, tracer = wl.Tally(), Tracer()
    # seconds=0 runs exactly one cycle; each op is compared byte for byte
    ops, _, _, _ = wl.run_traced(wl.Workload(name, 7, tmp_path), 0, tally, tracer)
    assert ops == tally.attempted > 0
    assert tally.failed == 0
    assert tracer.missing == []
    assert EXPECTED_LAYERS[name] <= set(tracer.stats)
    assert tracer.get("cli").calls == ops


def test_uninstall_restores_every_namespace():
    import qgini.cli
    import qgini.gini
    from qgini.qsystem import DensityMatrix

    before = _qgini_namespaces()
    init = DensityMatrix.__init__
    with Tracer():
        assert qgini.cli.gini_report is not before["qgini.gini"]["gini_report"]
        assert qgini.gini.lorenz_curve is qgini.lorenz.lorenz_curve
        assert DensityMatrix.__init__ is not init
    assert DensityMatrix.__init__ is init
    after = _qgini_namespaces()
    for module, attrs in before.items():
        for key, value in attrs.items():
            assert after[module][key] is value, f"{module}.{key} not restored"
    # every function target was found in at least its own module
    for module, attr, _ in FUNCTION_SPANS:
        assert attr in before[module]


def _doc(argv):
    rc, out, _ = wl.call_cli(argv)
    return rc, json.loads(out)


def test_checks_reject_wrong_outputs():
    est = wl.Op(["estimate", "--dim", 5, "--restarts", 1, "--iters", 2000], wl._check_estimate, 5)
    rc, doc = _doc(est.argv)
    assert wl.verify(est, rc, json.dumps(doc)) is None
    doc["g_sup_estimate"] -= 1e-6
    assert "exact" in wl.verify(est, rc, json.dumps(doc))

    ex = wl.Op(["example", "--dim", 11], wl._check_example, 11)
    rc, doc = _doc(ex.argv)
    assert wl.verify(ex, rc, json.dumps(doc)) is None
    doc["g_xp"] += 1e-9
    assert wl.verify(ex, rc, json.dumps(doc)) is not None

    chk = wl.Op(["check", "--dim", 5, "--samples", 2], wl._check_check, 5)
    rc, doc = _doc(chk.argv)
    assert wl.verify(chk, rc, json.dumps(doc)) is None
    doc["all_passed"] = False
    assert wl.verify(chk, rc, json.dumps(doc)) is not None
    assert wl.verify(chk, 0, "not json") is not None
    assert wl.verify(chk, None, "") == "raised"


def test_tail_has_ten_samples_beyond():
    value, pct = wl.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and pct == 75.0
