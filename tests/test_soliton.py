import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from darkshelf.soliton import (
    CoreParams,
    InvalidParamsError,
    ab_from_background,
    grey_profile,
    profile_with_derivatives,
)
from darkshelf.quadrature import SOLITON_NODES, soliton_integrals


class TestABFromBackground:
    def test_black_limit_exact(self):
        assert ab_from_background(1.0, math.pi) == (0.0, 1.0)

    def test_four_fifths_pi(self):
        A, B = ab_from_background(1.0, 4 * math.pi / 5)
        assert A == pytest.approx(0.309016994374947, abs=1e-12)
        assert B == pytest.approx(0.951056516295154, abs=1e-12)

    def test_u2_right_angle(self):
        A, B = ab_from_background(2.0, math.pi / 2)
        assert A == pytest.approx(1.414213562373095, abs=1e-12)
        assert B == pytest.approx(A, abs=1e-14)
        assert A**2 + B**2 == pytest.approx(4.0, rel=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.pi + 0.1, 7.0])
    def test_domain_rejected(self, bad):
        with pytest.raises(ValueError):
            ab_from_background(1.0, bad)

    @given(st.floats(0.2, 3.0), st.floats(0.05, math.pi))
    @settings(max_examples=50, deadline=None)
    def test_pythagoras(self, u_inf, dphi):
        A, B = ab_from_background(u_inf, dphi)
        assert A**2 + B**2 == pytest.approx(u_inf**2, rel=1e-12)


class TestCoreParams:
    def test_invariant_enforced(self):
        with pytest.raises(InvalidParamsError):
            CoreParams(u_inf=1.0, A=0.8, B=0.8)

    def test_delta_phi0_computed(self):
        p = CoreParams.from_background(1.0, 4 * math.pi / 5)
        assert p.delta_phi0 == pytest.approx(2 * math.atan2(p.B, p.A), abs=1e-14)

    def test_black_flag(self):
        assert CoreParams.from_background(1.0, math.pi).is_black
        assert not CoreParams.from_background(1.0, 1.0).is_black


class TestGreyProfile:
    def test_black_center_zero(self):
        p = CoreParams.from_background(1.0, math.pi)
        assert grey_profile(p, 0.0) == 0.0

    def test_black_signed_tail(self):
        # Signed representation: q0 -> +1 with zero phase on the right.
        p = CoreParams.from_background(1.0, math.pi)
        val = grey_profile(p, 20.0 / p.B)
        assert abs(abs(val) - 1.0) < 1e-12
        assert abs(np.angle(val)) < 1e-12

    def test_grey_center_modulus(self):
        p = CoreParams.from_background(1.0, 4 * math.pi / 5)
        assert abs(grey_profile(p, 0.0)) == pytest.approx(0.309016994374947, abs=1e-9)

    def test_modulus_approaches_background(self):
        for dphi in (math.pi, 4 * math.pi / 5, 1.0):
            p = CoreParams.from_background(1.3, dphi)
            for sign in (+1, -1):
                val = grey_profile(p, sign * 20.0 / p.B)
                assert abs(abs(val) - p.u_inf) < 1e-12

    def test_phase_jump_equals_delta_phi0(self):
        p = CoreParams.from_background(1.0, 4 * math.pi / 5)
        T = np.linspace(-30, 30, 4001)
        phases = np.unwrap(np.angle(grey_profile(p, T)))
        assert phases[-1] - phases[0] == pytest.approx(p.delta_phi0, abs=1e-9)

    def test_black_odd_up_to_global_phase(self):
        p = CoreParams.from_background(1.0, math.pi, sigma0=0.7)
        T = np.linspace(-5, 5, 101)
        u = grey_profile(p, T)
        np.testing.assert_allclose(u, -u[::-1], atol=1e-14)

    def test_rejects_bad_arguments(self):
        p = CoreParams.from_background(1.0, math.pi)
        with pytest.raises(ValueError):
            grey_profile(p, float("nan"))
        with pytest.raises(InvalidParamsError):
            # B = 0 is a constant wave, not a soliton.
            grey_profile(CoreParams(u_inf=1.0, A=1.0, B=0.0), 0.0)

    def test_derivatives_match_finite_differences(self):
        p = CoreParams.from_background(1.0, 2.0, sigma0=0.3)
        T = np.linspace(-3, 3, 7)
        u0, u0_T, u0_TT = profile_with_derivatives(p, T)
        h = 1e-5
        up, _, _ = profile_with_derivatives(p, T + h)
        um, _, _ = profile_with_derivatives(p, T - h)
        np.testing.assert_allclose((up - um) / (2 * h), u0_T, atol=1e-9)
        np.testing.assert_allclose((up - 2 * u0 + um) / h**2, u0_TT, atol=1e-5)


def invariants(p):
    """E, I, R and H of the profile centred at t0, by the soliton rule on the conserved densities.

    E = int (u_inf^2 - |u0|^2), I = int Im(u0 conj(u0_T)), R = int t (u_inf^2 - |u0|^2) and
    H = int (1/2)|u0_T|^2 + (1/2)(u_inf^2 - |u0|^2)^2, with t = t0 + T.
    """
    T = SOLITON_NODES / p.B
    u0, u0_T, _ = profile_with_derivatives(p, T)
    dip = p.u_inf**2 - np.abs(u0) ** 2
    densities = (dip, np.imag(u0 * np.conj(u0_T)), (p.t0 + T) * dip, 0.5 * np.abs(u0_T) ** 2 + 0.5 * dip**2)
    return soliton_integrals(densities, p.B)


class TestInvariants:
    """The analytic profile carries the dark soliton's closed-form invariants:
    E = 2B, I = -2AB, R = 2B t0 and H = (4/3) B^3."""

    def test_black_energy(self):
        E, I, _, H = invariants(CoreParams.from_background(1.0, math.pi))
        assert E == pytest.approx(2.0, rel=1e-12)
        assert I == 0.0
        assert H == pytest.approx(4.0 / 3.0, rel=1e-10)

    def test_grey_momentum(self):
        _, I, _, _ = invariants(CoreParams.from_background(1.0, 4 * math.pi / 5))
        assert I == pytest.approx(-0.587785252292473, abs=1e-12)

    @pytest.mark.parametrize("B", [1e-3, 1.0, 200.0])
    @pytest.mark.parametrize("dphi", [math.pi, 4 * math.pi / 5, 2 * math.pi / 5])
    def test_tabulated_rule_scales_with_width(self, B, dphi):
        # The unit-width rule scaled by 1/B integrates H = (4/3) B^3 at widths far apart.
        p = CoreParams.from_background(B / math.sin(dphi / 2), dphi)
        assert invariants(p)[3] == pytest.approx((4.0 / 3.0) * p.B**3, rel=1e-12)

    @given(st.floats(0.3, 2.0), st.floats(0.3, math.pi), st.floats(-3.0, 3.0))
    @settings(max_examples=25, deadline=None)
    def test_quadrature_matches_closed_forms(self, u_inf, dphi, t0):
        p = CoreParams.from_background(u_inf, dphi, t0=t0)
        E, I, R, H = invariants(p)
        assert E == pytest.approx(2 * p.B, rel=1e-10)
        assert I == pytest.approx(-2 * p.A * p.B, abs=1e-10)
        assert R == pytest.approx(2 * p.B * t0, rel=1e-10, abs=1e-12)
        assert H == pytest.approx((4.0 / 3.0) * p.B**3, rel=1e-10)
