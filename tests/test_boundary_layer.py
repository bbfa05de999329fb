
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from darkshelf.asymptotics import BackgroundTrajectory, ParameterTrajectory, _Records
from darkshelf.boundary_layer import LayerProfile, shelf_magnitude_profile, shelf_phase_profile
from darkshelf.soliton import CoreParams


def right_layer(amplitude=-2.0 / 3.0):
    return LayerProfile.at_edge("right", 1.0, amplitude)


class TestLayerGeometry:
    def test_velocity_and_scale_signs(self):
        r = LayerProfile.at_edge("right", 1.0, -0.5)
        l = LayerProfile.at_edge("left", 1.0, -0.5)
        assert r.V == 1.0 and l.V == -1.0
        assert r.a == pytest.approx(-2.0 * (1.0 / 3.0) ** (1.0 / 3.0), abs=1e-14)
        assert l.a == -r.a

    def test_side_validated(self):
        with pytest.raises(ValueError):
            LayerProfile.at_edge("up", 1.0, 0.1)


class TestMagnitudeProfile:
    def test_matching_conditions(self):
        for side in ("right", "left"):
            lay = LayerProfile.at_edge(side, 1.0, -0.4)
            outer = 60.0 if side == "right" else -60.0
            inner = -outer
            assert abs(shelf_magnitude_profile(lay, 30.0, outer)) < 0.05 * 0.4
            assert shelf_magnitude_profile(lay, 30.0, inner) == pytest.approx(-0.4, abs=1e-10)

    def test_black_plateau_value(self):
        # eps*q1+ = -(2/3)*0.05 at the right edge of a black dispersive run.
        lay = LayerProfile.at_edge("right", 1.0, -(2.0 / 3.0))
        assert 0.05 * shelf_magnitude_profile(lay, 30.0, -40.0) == pytest.approx(-0.0333333333, abs=1e-8)

    def test_zeta_positive_required(self):
        with pytest.raises(ValueError):
            shelf_magnitude_profile(right_layer(), 0.0, 1.0)

    @given(st.floats(0.5, 50.0), st.floats(-20.0, 20.0))
    @settings(max_examples=50, deadline=None)
    def test_similarity_collapse(self, zeta, x):
        lay = right_layer()
        a = shelf_magnitude_profile(lay, zeta, x)
        b = shelf_magnitude_profile(lay, 8 * zeta, 2 * x)
        # The similarity variables agree to one ulp; the comparison floor is
        # the documented ~1e-11 pointwise accuracy of the Ai integral.
        assert a == pytest.approx(b, abs=1e-11)

    def test_width_grows_like_cube_root(self):
        # 10-90% transition width ratio between zeta = 8 and zeta = 1 is 2.
        lay = right_layer()

        def crossing(zeta, frac):
            lo = -30.0 * zeta ** (1.0 / 3.0)
            hi = 30.0 * zeta ** (1.0 / 3.0)
            return brentq(
                lambda x: shelf_magnitude_profile(lay, zeta, x) / lay.amplitude - frac,
                lo, hi, xtol=1e-12,
            )

        w1 = crossing(1.0, 0.1) - crossing(1.0, 0.9)
        w8 = crossing(8.0, 0.1) - crossing(8.0, 0.9)
        assert w8 / w1 == pytest.approx(2.0, abs=1e-6)

    def test_reduced_equation_residual(self):
        # 2 V w_{zeta x} = (1/4) w_{xxxx}, residual refining at 4th order.
        lay = right_layer()
        errs = []
        for h in (0.08, 0.04):
            x = np.arange(-6.0, 6.0 + h / 2, h)
            zeta0 = 9.0
            dz = h
            w = {dzk: shelf_magnitude_profile(lay, zeta0 + dzk, x) for dzk in (-dz, 0.0, dz)}
            w_z = (w[dz] - w[-dz]) / (2 * dz)
            w_zx = np.gradient(w_z, h, edge_order=2)
            w0 = w[0.0]
            w_xxxx = (w0[:-4] - 4 * w0[1:-3] + 6 * w0[2:-2] - 4 * w0[3:-1] + w0[4:]) / h**4
            resid = 2 * lay.V * w_zx[2:-2] - 0.25 * w_xxxx
            errs.append(np.max(np.abs(resid)))
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3


class TestPhaseProfile:
    def test_matching_conditions(self):
        for side, amp in (("right", 1.2), ("left", -0.8)):
            lay = LayerProfile.at_edge(side, 1.0, amp)
            inner = -20.0 if side == "right" else 20.0
            outer = -inner * 3
            h = 1e-4
            slope = (shelf_phase_profile(lay, 30.0, inner + h) - shelf_phase_profile(lay, 30.0, inner - h)) / (2 * h)
            assert slope == pytest.approx(amp, rel=1e-8)
            assert abs(shelf_phase_profile(lay, 30.0, outer)) < 0.02 * abs(amp)

    def test_black_dispersive_inner_slope(self):
        # eps*(4/3)*gamma*u_inf = 0.0667 for eps*gamma = 0.05.
        lay = LayerProfile.at_edge("right", 1.0, 4.0 / 3.0)
        h = 1e-4
        x = -25.0
        slope = 0.05 * (shelf_phase_profile(lay, 30.0, x + h) - shelf_phase_profile(lay, 30.0, x - h)) / (2 * h)
        assert slope == pytest.approx(0.066666667, abs=1e-7)


def shelf_edges(z, u_inf, A, zeta):
    """(S_L, S_R) from ParameterTrajectory.edges on a sampled (z, u_inf, A) history."""
    u_inf, A, z = (np.asarray(v, dtype=float) for v in (u_inf, A, z))
    params = _Records(CoreParams(u_inf=u_inf, A=A, B=np.sqrt(u_inf * u_inf - A * A)), z.size)
    return ParameterTrajectory(0.05, z, params, [], BackgroundTrajectory(0.05 * z, u_inf)).edges(zeta)


class TestShelfEdges:
    def test_black_constant_background(self):
        z = np.linspace(0, 40, 81)
        s_l, s_r = shelf_edges(z, np.ones_like(z), np.zeros_like(z), 30.0)
        assert (s_l, s_r) == (pytest.approx(-30.0, abs=1e-12), pytest.approx(30.0, abs=1e-12))

    def test_grey_constant_background(self):
        z = np.linspace(0, 40, 81)
        A = np.full_like(z, 0.309016994374947)
        s_l, s_r = shelf_edges(z, np.ones_like(z), A, 30.0)
        assert s_l == pytest.approx(-39.2705098312484, abs=1e-9)
        assert s_r == pytest.approx(20.7294901687516, abs=1e-9)

    def test_zeta_zero(self):
        z = np.linspace(0, 10, 11)
        s_l, s_r = shelf_edges(z, np.ones_like(z), np.zeros_like(z), 0.0)
        assert (s_l, s_r) == (0.0, 0.0)
        assert math.copysign(1.0, s_l) == 1.0  # +0.0: CSVs print "0", not "-0"

    def test_coverage_gap(self):
        z = np.linspace(0, 10, 11)
        with pytest.raises(ValueError):
            shelf_edges(z, np.ones_like(z), np.zeros_like(z), 11.0)

    def test_ordering_invariant(self):
        z = np.linspace(0, 20, 41)
        A = np.full_like(z, 0.8)
        s_l, s_r = shelf_edges(z, np.ones_like(z), A, 15.0)
        assert s_l < 0.0 < s_r
