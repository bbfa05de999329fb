"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with -s to see them live).  The
expensive simulations are shared through module-scoped fixtures:

* criterion 1 uses the unperturbed black preset (N = 1024, L = 25, z = 10);
* criteria 2, 3 (black side) and 5 share one black dispersive run at
  N = 2048, L = 50, z = 30;
* criterion 3 (grey side) uses the grey dispersive preset at 4 pi/5;
* criterion 4 sweeps {2pi/5, 3pi/5, 4pi/5, pi} with per-angle run lengths
  chosen by the measurement-window rules;
* criterion 6 is a pure-library property suite.
"""

import math
import time

import numpy as np
import pytest

from darkshelf import asymptotics, harness
from darkshelf.airy import airy_ai
from darkshelf.asymptotics import (
    evolve_background,
    evolve_core_parameters,
    grey_parameter_rhs,
    phase_conservation_check,
)
from darkshelf.boundary_layer import LayerProfile, shelf_magnitude_profile
from darkshelf.perturbations import dispersive_damping, linear_damping, two_photon
from darkshelf.quadrature import SOLITON_NODES, soliton_integrals
from darkshelf.soliton import CoreParams
from theory_reference import homogeneous_solutions, linearized_residual

SWEEP_ANGLES = [2 * math.pi / 5, 3 * math.pi / 5, 4 * math.pi / 5, math.pi]


def _announce(criterion: str, report_rows, extra: str = "") -> bool:
    ok = all(r.passed for r in report_rows)
    worst = max(report_rows, key=lambda r: r.error / r.tolerance if r.tolerance else 0)
    print(
        f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} "
        f"(worst: {worst.name} err={worst.error:.3g} tol={worst.tolerance:.3g}){extra}"
    )
    return ok


@pytest.fixture(scope="module")
def unperturbed_result():
    start = time.time()
    report, artifacts = harness.compare(harness.validate(harness.load_config("black_unperturbed")))
    return report, time.time() - start


@pytest.fixture(scope="module")
def black_result():
    exp = harness.validate(harness.load_config("black_dispersive"))
    return harness.compare(exp)


@pytest.fixture(scope="module")
def grey_result():
    exp = harness.validate(harness.load_config("grey_dispersive"))
    return harness.compare(exp)


@pytest.fixture(scope="module")
def sweep_result():
    return harness.run_sweep(harness.load_config("grey_dispersive"), SWEEP_ANGLES)


def _rows(report, names):
    got = {r.name: r for r in report.rows}
    missing = [n for n in names if n not in got]
    assert not missing, f"missing report rows: {missing}"
    return [got[n] for n in names]


def test_criterion_1_unperturbed_fidelity(unperturbed_result):
    report, elapsed = unperturbed_result
    rows = _rows(report, [
        "fidelity_max_pointwise_dev",
        "conservation_drift_H",
        "conservation_drift_E",
        "conservation_drift_I",
        "dRdz_plus_I_residual",
    ])
    ok = _announce("1 unperturbed-fidelity", rows, f" [runtime {elapsed:.0f}s]")
    assert elapsed < 120.0
    assert ok


def test_criterion_2_black_dispersive(black_result):
    report, _ = black_result
    rows = _rows(report, ["eps_q1_diff_signed", "phi1t_sum", "sigma0_rate", "t0_drift"])
    assert _announce("2 black-dispersive", rows)
    diff = {r.name: r for r in rows}["eps_q1_diff_signed"]
    assert diff.predicted == pytest.approx(-(4.0 / 3.0) * 0.05, abs=1e-12)


def test_criterion_3_edge_kinematics(black_result, grey_result):
    rows = _rows(black_result[0], ["edge_speed_right", "edge_speed_left"])
    rows += _rows(grey_result[0], ["edge_speed_right", "edge_speed_left"])
    assert _announce("3 shelf-edge-kinematics", rows)
    # Black edges at +-u_inf; grey comoving speeds at u_inf -+ A.
    assert rows[0].predicted == 1.0 and rows[1].predicted == -1.0
    assert rows[2].predicted == pytest.approx(1.0 - 0.309016994374947, abs=1e-9)
    assert rows[3].predicted == pytest.approx(-1.309016994374947, abs=1e-9)


def test_criterion_4_grey_shelf_heights(sweep_result):
    names = []
    for dphi in SWEEP_ANGLES:
        tag = f"dphi{dphi:.6g}"
        names += [f"{tag}.eps_q1_plus", f"{tag}.eps_q1_minus", f"{tag}.A_velocity_constancy"]
    rows = _rows(sweep_result, names)
    assert _announce("4 grey-shelf-heights", rows)
    # Spot-check the predictions against the closed forms.
    by = {r.name: r for r in rows}
    for dphi in SWEEP_ANGLES:
        params = CoreParams.from_background(1.0, dphi)
        a = 0.5 * params.delta_phi0
        expect = -(2.0 / 3.0) * 0.05 * (1.0 + params.A) * math.sin(a)
        assert by[f"dphi{dphi:.6g}.eps_q1_plus"].predicted == pytest.approx(expect, abs=1e-9)


def test_criterion_5_boundary_layer_profile(black_result):
    report, _ = black_result
    rows = _rows(report, ["layer_max_deviation"])
    assert _announce("5 boundary-layer-profile", rows)
    assert rows[0].tolerance == pytest.approx(0.2 * 0.05)


def test_criterion_6_property_suites(monkeypatch):
    failures = []

    # Boxed-system identity u u_Z = A A_Z + B B_Z, exact algebra.
    for pert in (dispersive_damping(1.0), linear_damping(0.5), two_photon(0.8)):
        for dphi in (math.pi, 2.2, 1.1):
            p = CoreParams.from_background(1.1, dphi)
            sh = grey_parameter_rhs(pert, p)
            resid = abs(p.u_inf * sh.u_inf_rate - p.A * sh.A_rate - p.B * sh.B_rate)
            if resid > 1e-12:
                failures.append(f"cascade identity {pert.label} dphi={dphi}: {resid:.2e}")

    # Phase conservation d/dZ(dphi0 + eps dphi1) along trajectories.
    grey = CoreParams.from_background(1.0, 4 * math.pi / 5)
    for pert in (dispersive_damping(1.0), linear_damping(0.5)):
        with monkeypatch.context() as patch:
            patch.setattr(asymptotics, "STEPS_PER_Z", 600)  # 600 steps over Z = 1
            traj = evolve_core_parameters(pert, grey, 0.05, 20.0)
        resid = phase_conservation_check(traj)
        if resid > 1e-8:
            failures.append(f"phase conservation {pert.label}: {resid:.2e}")

    # Linearization annihilates all four homogeneous solutions.
    T = np.arange(-10.0 / grey.B, 10.0 / grey.B + 5e-4, 1e-3)
    for i, pair in enumerate(homogeneous_solutions(grey, T)):
        resid = linearized_residual(grey, pair, T)
        if resid > 1e-6:
            failures.append(f"L U1{i + 1} residual {resid:.2e}")

    # Airy ODE residual via a 6th-order stencil at h = 0.01.
    h = 0.01
    xi = np.arange(-10.0, 5.0 + h / 2, h)
    f = airy_ai(xi)
    c = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
    d2 = sum(ck * np.roll(f, 3 - i) for i, ck in enumerate(c)) / h**2
    airy_resid = float(np.max(np.abs(d2[3:-3] - xi[3:-3] * f[3:-3])))
    if airy_resid > 1e-8:
        failures.append(f"airy ODE residual {airy_resid:.2e}")

    # Similarity collapse (zeta, x) <-> (8 zeta, 2 x).
    lay = LayerProfile.at_edge("right", 1.0, -0.5)
    for zeta, x in ((1.0, 0.7), (3.7, -4.0), (20.0, 9.0)):
        d = abs(shelf_magnitude_profile(lay, zeta, x) - shelf_magnitude_profile(lay, 8 * zeta, 2 * x))
        if d > 5e-13:
            failures.append(f"similarity collapse ({zeta},{x}): {d:.2e}")

    # Quadrature oracles.
    for B in (0.5, 1.0, 2.0):
        T = SOLITON_NODES / B
        e, g = soliton_integrals((B**2 / np.cosh(B * T) ** 2, B**4 / np.cosh(B * T) ** 4), B)
        if abs(e - 2 * B) > 1e-10 * 2 * B:
            failures.append(f"sech^2 quadrature B={B}")
        if abs(g - (4.0 / 3.0) * B**3) > 1e-10 * (4.0 / 3.0) * B**3:
            failures.append(f"gradient quadrature B={B}")

    # Evolving background under linear damping.
    bg = evolve_background(linear_damping(1.0), 1.0, 1.0)
    if abs(bg.u_inf[-1] - math.exp(-1.0)) > 1e-8:
        failures.append("background exponential")

    print(f"ACCEPTANCE 6 property-suites: {'PASS' if not failures else 'FAIL ' + '; '.join(failures)}")
    assert not failures
