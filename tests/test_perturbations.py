import math

import numpy as np
import pytest

from darkshelf.perturbations import (
    Perturbation,
    check_phase_symmetry,
    dispersive_damping,
    linear_damping,
    local_forcing,
    two_photon,
)
from darkshelf.finitediff import second_derivative
from darkshelf.quadrature import SOLITON_NODES, soliton_integrals
from darkshelf.soliton import CoreParams, profile_with_derivatives

T = np.linspace(-20, 20, 2001)
DX = T[1] - T[0]


def on_grid(pert, u, dx=DX):
    """F on grid samples, with the finite-difference u_tt the stepper passes."""
    return pert.grid_eval(u, second_derivative(u, dx))


def test_strengths_validated():
    for ctor in (dispersive_damping, linear_damping, two_photon):
        with pytest.raises(ValueError):
            ctor(-1.0)
        with pytest.raises(ValueError):
            ctor(0.0)


def test_dispersive_on_constant_field_vanishes():
    u = np.full(T.size, 1.3 + 0j)
    # Exact cancellation is limited by the 1/dx^2 roundoff amplification.
    np.testing.assert_allclose(on_grid(dispersive_damping(2.0), u), 0.0, atol=1e-10)


def test_dispersive_on_plane_wave():
    k = 1.7
    u = np.exp(1j * k * T)
    got = on_grid(dispersive_damping(0.8), u)
    expect = -1j * 0.8 * k**2 * u
    interior = slice(4, -4)
    np.testing.assert_allclose(got[interior], expect[interior], atol=5e-6)


def test_dispersive_black_energy_integral():
    # |Im int F[u0] u0* dT| = gamma * (4/3) u_inf^3 on a black profile.
    p = CoreParams.from_background(1.0, math.pi)
    pert = dispersive_damping(1.0)

    def density(TT):
        u0, u0_T, u0_TT = profile_with_derivatives(p, TT)
        return np.imag(pert.point_eval(u0, u0_TT) * np.conj(u0))

    (val,) = soliton_integrals((density(SOLITON_NODES / p.B),), p.B)
    assert val == pytest.approx(-(4.0 / 3.0), rel=1e-10)


def test_linear_damping_definition():
    u = np.ones(T.size, dtype=complex)
    np.testing.assert_allclose(on_grid(linear_damping(1.0), u), -1j, atol=1e-14)


def test_two_photon_definition():
    u = np.full(T.size, 2.0 + 0j)
    np.testing.assert_allclose(on_grid(two_photon(1.0), u), -8j, atol=1e-13)


def test_background_rate_is_imaginary_part():
    # du_inf/dZ = Im F[u_inf]: linear damping gives -Gamma*u_inf.
    assert linear_damping(0.5).on_background(2.0).imag == pytest.approx(-1.0)
    assert two_photon(1.0).on_background(1.0).imag == pytest.approx(-1.0)
    assert dispersive_damping(1.0).on_background(1.0).imag == 0.0


@pytest.mark.parametrize("pert", [dispersive_damping(1.0), linear_damping(0.5), two_photon(0.7)])
def test_builtins_phase_symmetric(pert):
    fields = [
        np.exp(1j * 0.4 * T) * (1 + 0.2 / np.cosh(T)),
        (0.3 + 1j * 0.95 * np.tanh(0.95 * T)),
    ]
    for u in fields:
        ok, dev = check_phase_symmetry(pert, u, second_derivative(u, DX))
        assert ok and dev < 1e-10


def test_asymmetric_double_detected():
    bad = Perturbation(
        label="conjugate_sum",
        grid_eval=lambda u, u_tt: np.asarray(u) + np.conj(u),
        point_eval=lambda u, u_tt: u + np.conj(u),
    )
    u = np.exp(1j * 0.3 * T)
    ok, dev = check_phase_symmetry(bad, u, second_derivative(u, DX))
    assert not ok and dev > 0.1


def test_empty_test_set_rejected():
    with pytest.raises(ValueError):
        check_phase_symmetry(dispersive_damping(1.0), np.array([]), np.array([]))


def test_grid_matches_point_on_profile():
    p = CoreParams.from_background(1.0, 4 * math.pi / 5)
    t_fine = np.linspace(-20, 20, 8001)
    u0, _, u0_TT = profile_with_derivatives(p, t_fine)
    for pert in (dispersive_damping(1.0), linear_damping(0.5), two_photon(0.7)):
        grid_vals = on_grid(pert, u0, t_fine[1] - t_fine[0])
        point_vals = pert.point_eval(u0, u0_TT)
        interior = slice(4, -4)
        np.testing.assert_allclose(grid_vals[interior], point_vals[interior], atol=1e-8)


def test_local_forcing_uses_one_formula():
    # A user-defined forcing: the grid, pointwise and background evaluators
    # all apply the same formula.
    pert = local_forcing("mixed", lambda u, u_tt: 0.5j * u_tt - 0.2j * u)
    u = np.exp(1j * 0.4 * T) * (1 + 0.2 / np.cosh(T))
    u_tt = np.cos(T) + 0j
    np.testing.assert_array_equal(pert.grid_eval(u, u_tt), 0.5j * u_tt - 0.2j * u)
    np.testing.assert_array_equal(pert.grid_eval(u, u_tt), pert.point_eval(u, u_tt))
    assert pert.on_background(2.0) == -0.4j
    assert check_phase_symmetry(pert, u, u_tt)[0]


def test_grid_eval_fourth_order():
    p = CoreParams.from_background(1.0, math.pi)
    pert = dispersive_damping(1.0)
    errs = []
    for n in (801, 1601):
        t = np.linspace(-15, 15, n)
        u0, _, u0_TT = profile_with_derivatives(p, t)
        err = np.max(np.abs(on_grid(pert, u0, t[1] - t[0]) - 1j * u0_TT))
        errs.append(err)
    assert np.log2(errs[0] / errs[1]) > 3.5
