import pytest

from qgini.checks import run_property_checks
from qgini.qsystem import QuantumSystem


def test_all_checks_pass_on_small_samples():
    results = run_property_checks(3, samples=30, seed=1)
    assert len(results) == 12
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_checks_are_deterministic():
    a = run_property_checks(5, samples=20, seed=9)
    b = run_property_checks(5, samples=20, seed=9)
    assert [(r.name, r.passed, r.detail) for r in a] == [(r.name, r.passed, r.detail) for r in b]


def test_check_names_are_unique():
    results = run_property_checks(3, samples=5, seed=0)
    names = [r.name for r in results]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("d", [5, 41])
def test_each_coherent_suite_validates_its_fiducial_once(monkeypatch, d):
    # coherent_equality and resolution_of_identity each check one fiducial
    # through coherent_state and displace it directly from there
    calls = []
    coherent_state = QuantumSystem.coherent_state

    def counting(self, *args, **kwargs):
        calls.append(args)
        return coherent_state(self, *args, **kwargs)

    monkeypatch.setattr(QuantumSystem, "coherent_state", counting)
    results = run_property_checks(d, samples=20, seed=7)
    assert all(r.passed for r in results)
    assert len(calls) <= 2
