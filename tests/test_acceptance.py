"""Acceptance gate: one test per shipped guarantee, one printed verdict each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines; each
test also asserts, so the suite fails loudly without -s too.
"""

import io
import itertools
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from qgini import (
    DensityMatrix,
    ProbabilityDistribution,
    StateVector,
    comonotonic,
    example_gini_closed_form,
    example_state,
    gini_cap,
    gini_index,
    gini_report,
    lorenz_curve,
    new_system,
    pure_density,
    random_density_matrix,
    random_state_vector,
)
from qgini.cli import run as cli_run

from conftest import conjugated, displacement_matrix, reference_fourier


def verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'} {label}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_reproduction():
    t0 = time.perf_counter()
    worst = 0.0
    for d in (3, 5, 7, 9, 11, 15, 21):
        system = new_system(d)
        rep = gini_report(system, pure_density(example_state(system)))
        worst = max(worst, abs(rep.g_xp - example_gini_closed_form(d)))
    spots = max(
        abs(example_gini_closed_form(3) - 0.6830127),
        abs(example_gini_closed_form(5) - 0.8726780),
        abs(example_gini_closed_form(7) - 0.9557189),
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and spots < 1e-7 and elapsed < 1.0
    verdict(1, "closed-form reproduction d in {3..21}", ok, f"max dev {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_example_profile():
    system = new_system(3)
    px = np.sort(system.position_probs(pure_density(example_state(system))).probs)
    rd = np.sqrt(3.0)
    exact = np.array([1.0 / (6.0 + 2.0 * rd), 1.0 / (6.0 + 2.0 * rd), (4.0 + 2.0 * rd) / (6.0 + 2.0 * rd)])
    printed = np.array([0.1056624, 0.1056624, 0.7886751])
    curve = lorenz_curve(system.position_probs(pure_density(example_state(system))))
    printed_lorenz = np.array([0.1056624, 0.2113249, 1.0])
    dev_exact = float(np.max(np.abs(px - exact)))
    dev_printed = float(np.max(np.abs(px - printed)))
    dev_lorenz = float(np.max(np.abs(curve.values - printed_lorenz)))
    ok = dev_exact <= 1e-12 and dev_printed < 1e-7 and dev_lorenz < 1e-7
    verdict(2, "example probability and Lorenz profile at d=3", ok, f"exact dev {dev_exact:.2e}")


def test_criterion_03_lorenz_bound():
    t0 = time.perf_counter()
    worst_excess = -np.inf
    worst_neg = np.inf
    for d in (3, 5, 7):
        system = new_system(d)
        rng = np.random.default_rng(1000 + d)
        line = np.arange(1, d + 1) / d
        for _ in range(1000):
            rho = random_density_matrix(d, rng)
            for p in (system.position_probs(rho), system.momentum_probs(rho)):
                values = lorenz_curve(p).values
                worst_excess = max(worst_excess, float(np.max(values - line)))
                worst_neg = min(worst_neg, float(values[0]))
    elapsed = time.perf_counter() - t0
    ok = worst_excess <= 1e-12 and worst_neg >= 0.0 and elapsed < 10.0
    verdict(3, "Lorenz bound on 1000 states per d in {3,5,7}", ok, f"max excess {worst_excess:.2e}, {elapsed:.1f}s")


def test_criterion_04_superadditivity_and_comonotonic_additivity():
    system = new_system(5)
    rng = np.random.default_rng(2040)
    worst_margin = np.inf
    for _ in range(500):
        rho = random_density_matrix(5, rng)
        sigma = random_density_matrix(5, rng)
        lam = float(rng.uniform())
        tau = DensityMatrix(lam * rho.entries + (1.0 - lam) * sigma.entries)
        for probs_of in (system.position_probs, system.momentum_probs):
            mixed = lorenz_curve(probs_of(tau)).values
            parts = lam * lorenz_curve(probs_of(rho)).values + (1 - lam) * lorenz_curve(probs_of(sigma)).values
            worst_margin = min(worst_margin, float(np.min(mixed - parts)))
    worst_gap = 0.0
    for _ in range(100):
        d = 5
        perm = rng.permutation(d)
        pa = np.sort(rng.dirichlet(np.ones(d)))[perm]
        pb = np.sort(rng.dirichlet(np.ones(d)))[perm]
        da, db = ProbabilityDistribution(pa), ProbabilityDistribution(pb)
        assert comonotonic(da, db)
        lam = float(rng.uniform())
        mixed = lorenz_curve(ProbabilityDistribution(lam * pa + (1 - lam) * pb)).values
        parts = lam * lorenz_curve(da).values + (1 - lam) * lorenz_curve(db).values
        worst_gap = max(worst_gap, float(np.max(np.abs(mixed - parts))))
    ok = worst_margin >= -1e-12 and worst_gap <= 1e-12
    verdict(
        4,
        "superadditivity (500 triples) and comonotonic additivity (100 pairs)",
        ok,
        f"min margin {worst_margin:.2e}, max gap {worst_gap:.2e}",
    )


def test_criterion_05_range_and_extremizers():
    rng = np.random.default_rng(2050)
    range_ok = True
    for d in (3, 5, 7):
        system = new_system(d)
        cap = gini_cap(d)
        for _ in range(200):
            rep = gini_report(system, random_density_matrix(d, rng))
            range_ok &= 0.0 <= rep.g_x <= cap + 1e-12 and 0.0 <= rep.g_p <= cap + 1e-12
    worst = 0.0
    for d in (3, 5, 7):
        system = new_system(d)
        cap = gini_cap(d)
        for r in range(d):
            rep_x = gini_report(system, pure_density(system.position_state(r)))
            rep_p = gini_report(system, pure_density(system.momentum_state(r)))
            worst = max(worst, abs(rep_x.g_x - cap), rep_x.g_p, abs(rep_p.g_p - cap), rep_p.g_x)
        flat = gini_report(system, system.maximally_mixed())
        worst = max(worst, flat.g_x, flat.g_p)
    ok = range_ok and worst <= 1e-12
    verdict(5, "Gini range and extremizers", ok, f"max extremizer dev {worst:.2e}")


def test_criterion_06_subadditivity_and_position_mixtures():
    system = new_system(5)
    rng = np.random.default_rng(2060)
    worst_excess = -np.inf
    for _ in range(500):
        rho = random_density_matrix(5, rng)
        sigma = random_density_matrix(5, rng)
        lam = float(rng.uniform())
        rep_m = gini_report(system, DensityMatrix(lam * rho.entries + (1.0 - lam) * sigma.entries))
        rep_a, rep_b = gini_report(system, rho), gini_report(system, sigma)
        for field in ("g_x", "g_p", "g_xp"):
            excess = getattr(rep_m, field) - lam * getattr(rep_a, field) - (1 - lam) * getattr(rep_b, field)
            worst_excess = max(worst_excess, excess)
    cap_excess = -np.inf
    cap = gini_cap(5)
    for _ in range(200):
        rho = DensityMatrix(np.diag(rng.dirichlet(np.ones(5))))
        cap_excess = max(cap_excess, gini_report(system, rho).g_xp - cap)
    ok = worst_excess <= 1e-12 and cap_excess <= 1e-12
    verdict(
        6,
        "subadditivity (500 triples) and position-mixture bound (200 mixtures)",
        ok,
        f"max excesses {worst_excess:.2e}, {cap_excess:.2e}",
    )


def test_criterion_07_invariance():
    worst = 0.0
    for d in (3, 5):
        system = new_system(d)
        rng = np.random.default_rng(2070 + d)
        for _ in range(3):
            rho = random_density_matrix(d, rng)
            ref = gini_report(system, rho)
            ref_lx = lorenz_curve(system.position_probs(rho)).values
            ref_lp = lorenz_curve(system.momentum_probs(rho)).values
            for a in range(d):
                for b in range(d):
                    moved = DensityMatrix(conjugated(rho.entries, displacement_matrix(system, a, b)))
                    rep = gini_report(system, moved)
                    worst = max(
                        worst,
                        abs(rep.g_xp - ref.g_xp),
                        float(np.max(np.abs(lorenz_curve(system.position_probs(moved)).values - ref_lx))),
                        float(np.max(np.abs(lorenz_curve(system.momentum_probs(moved)).values - ref_lp))),
                    )
            swapped = DensityMatrix(conjugated(rho.entries, reference_fourier(d)))
            worst = max(worst, abs(gini_report(system, swapped).g_xp - ref.g_xp))
    coherent_worst = 0.0
    for d in (3, 5, 7):
        system = new_system(d)
        fid = system.default_fiducial()
        ref = gini_report(system, pure_density(system.coherent_state(fid, 0, 0))).g_xp
        for a in range(d):
            for b in range(d):
                rep = gini_report(system, pure_density(system.coherent_state(fid, a, b)))
                coherent_worst = max(coherent_worst, abs(rep.g_xp - ref))
    ok = worst <= 1e-10 and coherent_worst <= 1e-10
    verdict(7, "displacement/Fourier invariance and coherent equality", ok, f"max drift {worst:.2e}")


def _cli_estimate(dim: int) -> tuple[str, dict]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_run(
            ["estimate", "--dim", str(dim), "--restarts", "32", "--iters", "2000", "--seed", "42"]
        )
    assert code == 0, err.getvalue()
    text = out.getvalue()
    return text, json.loads(text)


def test_criterion_08_uncertainty_bracket_and_determinism():
    ok = True
    details = []
    for d in (3, 5, 7, 11):
        t0 = time.perf_counter()
        text_a, doc_a = _cli_estimate(d)
        elapsed = time.perf_counter() - t0
        text_b, doc_b = _cli_estimate(d)
        cap = gini_cap(d)
        lower = example_gini_closed_form(d)
        eta_cap = cap * np.sqrt(d) / (1.0 + np.sqrt(d))
        g_est = doc_a["g_sup_estimate"]
        eta_est = doc_a["eta_estimate"]
        bracket = lower - 1e-9 <= g_est < 2.0 * cap and 0.0 < eta_est <= eta_cap + 1e-9
        identical = text_a == text_b and doc_b["g_sup_estimate"] == g_est
        ok = ok and bracket and identical and elapsed < 60.0
        details.append(f"d={d}: g={g_est:.9f} eta={eta_est:.9f} {elapsed:.1f}s")
    verdict(8, "uncertainty bracket with bit-identical reruns, d in {3,5,7,11}", ok, "; ".join(details))


def test_criterion_09_operator_algebra():
    pair_worst = 0.0
    for d in (3, 5, 7):
        system = new_system(d)
        for a in range(d):
            for b in range(d):
                dev = np.max(
                    np.abs(displacement_matrix(system, a, b).conj().T - displacement_matrix(system, -a, -b))
                )
                pair_worst = max(pair_worst, float(dev))
    system9 = new_system(9)
    rng = np.random.default_rng(2090)
    for a, b in rng.integers(0, 9, size=(100, 2)):
        dev = np.max(
            np.abs(
                displacement_matrix(system9, int(a), int(b)).conj().T
                - displacement_matrix(system9, -int(a), -int(b))
            )
        )
        pair_worst = max(pair_worst, float(dev))
    res_worst = 0.0
    for d in (3, 5):
        system = new_system(d)
        fiducials = (
            system.default_fiducial(),
            StateVector.normalized(np.arange(d, 0, -1) + 0.5j),
            random_state_vector(d, 2091),
        )
        for fid in fiducials:
            total = np.zeros((d, d), dtype=np.complex128)
            for a in range(d):
                for b in range(d):
                    amp = system.coherent_state(fid, a, b).amplitudes
                    total += np.outer(amp, amp.conj())
            res_worst = max(res_worst, float(np.max(np.abs(total / d - np.eye(d)))))
    ok = pair_worst <= 1e-12 and res_worst <= 1e-10
    verdict(
        9,
        "displacement dagger pairing and coherent resolution of identity",
        ok,
        f"pair dev {pair_worst:.2e}, residual {res_worst:.2e}",
    )


def test_criterion_10_dual_form_cross_check():
    worst = 0.0
    for d in (3, 5, 7):
        rng = np.random.default_rng(2100 + d)
        w = list(range(d, 0, -1))
        for _ in range(1000):
            p = rng.dirichlet(np.ones(d))
            # weighted-form oracle: sum_k (d-k) p_(k) over the ascending sort
            acc = sum(wk * pk for wk, pk in zip(w, sorted(p)))
            weighted = 1.0 - (2.0 / (d + 1.0)) * acc
            # definition oracle: 1 - 2/(d+1) * sum of the Lorenz values
            definition = 1.0 - (2.0 / (d + 1.0)) * sum(itertools.accumulate(sorted(p)))
            got = gini_index(ProbabilityDistribution(p))
            worst = max(worst, abs(got - max(weighted, 0.0)))
            worst = max(worst, abs(got - max(definition, 0.0)))
    ok = worst <= 1e-12
    verdict(10, "Lorenz-sum vs weighted-form agreement, 1000 per d in {3,5,7}", ok, f"max gap {worst:.2e}")
