import math
from dataclasses import astuple, fields, replace

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from darkshelf import asymptotics, soliton
from darkshelf.asymptotics import (
    BackgroundCollapseError,
    BackgroundTrajectory,
    ParameterTrajectory,
    ShallowSolitonError,
    ShelfParams,
    evolve_background,
    evolve_core_parameters,
    grey_parameter_rhs,
    phase_conservation_check,
    slow_steps,
)
from darkshelf.perturbations import Perturbation, dispersive_damping, linear_damping, local_forcing, two_photon
from darkshelf.quadrature import SOLITON_NODES, QuadratureError, soliton_integrals
from darkshelf.simulator import SimBackground
from darkshelf.soliton import CoreParams, profile_with_derivatives
from theory_reference import black_phi1, black_phi1_t, black_q1, dop853_cascade, rk4_cascade

GREY = CoreParams.from_background(1.0, 4 * math.pi / 5)
BLACK = CoreParams.from_background(1.0, math.pi)


def use_steps(monkeypatch, steps, Z_span):
    """Set STEPS_PER_Z so that slow_steps gives the slow span Z_span ``steps`` background-table intervals."""
    monkeypatch.setattr(asymptotics, "STEPS_PER_Z", steps / Z_span)
    assert asymptotics.slow_steps(Z_span) == steps


def dispersive_closed_forms(params, gamma):
    """Closed-form rates for F = i gamma u_tt (independent oracle)."""
    a = 0.5 * params.delta_phi0
    u, A = params.u_inf, params.A
    return {
        "A_rate": 0.0,
        "sigma0_rate": -(4.0 / 3.0) * gamma * u**2 * math.sin(a) ** 3,
        "q1_plus": -(2.0 / 3.0) * gamma * (u + A) * math.sin(a),
        "q1_minus": -(2.0 / 3.0) * gamma * (u - A) * math.sin(a),
        "phi1t_plus": (4.0 / 3.0) * gamma * (u + A) * math.sin(a),
        "phi1t_minus": -(4.0 / 3.0) * gamma * (u - A) * math.sin(a),
    }


class TestGreyParameterRhs:
    @pytest.mark.parametrize("dphi", [math.pi, 4 * math.pi / 5, 3 * math.pi / 5, 2 * math.pi / 5])
    @pytest.mark.parametrize("u_inf", [1.0, 1.5])
    def test_dispersive_matches_closed_forms(self, dphi, u_inf):
        params = CoreParams.from_background(u_inf, dphi)
        sh = grey_parameter_rhs(dispersive_damping(0.7), params)
        want = dispersive_closed_forms(params, 0.7)
        for key, val in want.items():
            assert getattr(sh, key) == pytest.approx(val, abs=1e-10), key

    def test_linear_damping_rates(self):
        sh = grey_parameter_rhs(linear_damping(0.5), GREY)
        assert sh.u_inf_rate == pytest.approx(-0.5, abs=1e-12)
        assert sh.A_rate == pytest.approx(-0.5 * GREY.A, abs=1e-10)
        assert sh.B_rate == pytest.approx(-0.5 * GREY.B, abs=1e-10)
        assert sh.delta_phi0_rate == pytest.approx(0.0, abs=1e-10)

    def test_two_photon_rates(self):
        sh = grey_parameter_rhs(two_photon(1.0), GREY)
        A, B = GREY.A, GREY.B
        assert sh.A_rate == pytest.approx(-A * (A**2 + B**2 / 3.0), abs=1e-10)
        assert sh.delta_phi0_rate == pytest.approx(-(4.0 / 3.0) * A * B, abs=1e-10)

    @pytest.mark.parametrize("pert", [dispersive_damping(1.0), linear_damping(0.5), two_photon(0.8)])
    @pytest.mark.parametrize("dphi", [math.pi, 2.0, 1.0])
    def test_magnitude_constraint_identity(self, pert, dphi):
        # u_inf u_inf_Z = A A_Z + B B_Z holds exactly by construction.
        params = CoreParams.from_background(1.2, dphi)
        sh = grey_parameter_rhs(pert, params)
        lhs = params.u_inf * sh.u_inf_rate
        rhs = params.A * sh.A_rate + params.B * sh.B_rate
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_plateau_slope_rows(self):
        sh = grey_parameter_rhs(dispersive_damping(1.0), GREY)
        assert sh.phi1t_plus == -2.0 * sh.q1_plus
        assert sh.phi1t_minus == 2.0 * sh.q1_minus

    def test_black_limit_matches_first_order_solution(self):
        # The black first-order solution at gamma = u_inf = 1: sigma0_Z = -(4/3) gamma u^2, signed plateaus
        # q1+- = -+(2/3) gamma u and phase slopes phi1t+- = +-(4/3) gamma u.  The cascade reports q1- in the
        # positive-magnitude convention, which flips the signed q1 on the left.
        sh = grey_parameter_rhs(dispersive_damping(1.0), BLACK)
        assert sh.sigma0_rate == pytest.approx(-4.0 / 3.0, abs=1e-10)
        assert sh.q1_plus == pytest.approx(-2.0 / 3.0, abs=1e-10)
        assert sh.q1_minus == pytest.approx(-2.0 / 3.0, abs=1e-10)
        assert sh.phi1t_plus == pytest.approx(4.0 / 3.0, abs=1e-10)
        assert sh.phi1t_minus == pytest.approx(-4.0 / 3.0, abs=1e-10)

    def test_zero_perturbation_is_quiescent(self):
        null = local_forcing("null", lambda u, u_tt: 0.0 * u)
        sh = grey_parameter_rhs(null, GREY)
        for f in ("q1_plus", "q1_minus", "phi1t_plus", "phi1t_minus",
                  "u_inf_rate", "A_rate", "B_rate", "sigma0_rate", "delta_phi0_rate"):
            assert getattr(sh, f) == pytest.approx(0.0, abs=1e-13)

    def test_shallow_soliton_rejected(self):
        params = CoreParams.from_background(1.0, 2e-5)
        with pytest.raises(ShallowSolitonError):
            grey_parameter_rhs(dispersive_damping(1.0), params)


class TestEvolveBackground:
    def test_dispersive_constant(self):
        traj = evolve_background(dispersive_damping(1.0), 1.0, 2.0)
        np.testing.assert_allclose(traj.u_inf, 1.0, atol=1e-14)

    def test_linear_damping_exponential(self):
        traj = evolve_background(linear_damping(0.5), 1.0, 1.0)
        assert traj.u_inf[-1] == pytest.approx(math.exp(-0.5), abs=1e-8)

    def test_two_photon_algebraic(self):
        # du/dZ = -u^3 from u(0)=1 gives (1+2Z)^(-1/2).
        traj = evolve_background(two_photon(1.0), 1.0, 1.0)
        assert traj.u_inf[-1] == pytest.approx(3.0 ** (-0.5), abs=1e-8)

    def test_collapse_detected(self):
        sinker = local_forcing("sink", lambda u, u_tt: -1j + 0.0 * u)
        with pytest.raises(BackgroundCollapseError):
            evolve_background(sinker, 0.5, 1.0)


class TestSlowSteps:
    @pytest.mark.parametrize("Z_span, expected", [(0.01, 120), (0.365, 120), (1.0, 600), (1.5, 960), (3.75, 2400)])
    def test_rule(self, Z_span, expected):
        # The cascade's count: max(120, int(640 Z)) rounded down to a multiple of 120.
        steps = slow_steps(Z_span)
        assert steps == expected
        assert steps >= asymptotics.SAMPLES - 1 and steps % (asymptotics.SAMPLES - 1) == 0

    @pytest.mark.parametrize("pert, z_span", [(linear_damping(0.5), 20.0), (linear_damping(0.5), 75.0),
                                              (two_photon(1.0), 7.3), (two_photon(1.0), 30.0),
                                              (dispersive_damping(1.0), 30.0), (two_photon(2000.0), 1.0)])
    def test_pde_background_is_the_trajectory_at_every_sample(self, pert, z_span):
        # The cascade's u_inf column meets the closed form at every table node, and the PDE reads it.  At
        # gamma3 = 2000 u_inf falls to 0.07 by z = 1, where RK4 at 640 steps per unit Z missed it by 6.3e-4.
        traj = evolve_core_parameters(pert, GREY, 0.05, z_span)
        steps = slow_steps(0.05 * z_span)
        assert np.array_equal(traj.background.Z, np.linspace(0.0, 0.05 * z_span, steps + 1))
        np.testing.assert_allclose(traj.background.u_inf, background_closed_form(pert, traj.background.Z),
                                   rtol=0, atol=1e-12)
        background = SimBackground.from_perturbation(pert, traj)
        for z, p in zip(traj.z, traj.params):
            assert background.u_inf_fn(z) == p.u_inf


def background_closed_form(pert, Z):
    """u_inf(Z) from u_inf(0) = 1 for the built-in forcings at the strengths the tests use."""
    strength = pert.on_background(1.0).imag  # -gamma3, -Gamma or 0
    if pert.label == "two_photon":
        return (1.0 - 2.0 * strength * Z) ** -0.5
    return np.exp(strength * Z)


def trajectory_columns(traj):
    """Every CoreParams and ShelfParams field at every sample, one row per sample."""
    return np.array([[*astuple(p), *astuple(sh)] for p, sh in zip(traj.params, traj.shelf)])


def dop853_columns(pert, params0, epsilon, z_span):
    """trajectory_columns of the DOP853 reference cascade."""
    params, shelf = dop853_cascade(pert, params0, epsilon, z_span)
    return np.array([[*astuple(p), *astuple(sh)] for p, sh in zip(params, shelf)])


class TestSlowStepConvergence:
    @pytest.mark.parametrize("z_span", [20.0, 30.0])
    @pytest.mark.parametrize("dphi", [2 * math.pi / 5, 4 * math.pi / 5, math.pi], ids=["2pi/5", "4pi/5", "pi"])
    @pytest.mark.parametrize("pert", [dispersive_damping(1.0), linear_damping(0.5), two_photon(1.0)],
                             ids=["dispersive", "linear", "two_photon"])
    def test_collocation_meets_dop853(self, pert, dphi, z_span):
        # Every column at every sample against scipy's DOP853 at rtol 1e-13; measured <= 8.3e-13.  DOP853 meets
        # the RK4 reference at 8 x 640 steps per unit Z to 2.4e-13 (each forcing at pi, z_span = 30).
        params0 = CoreParams.from_background(1.0, dphi)
        got = trajectory_columns(evolve_core_parameters(pert, params0, 0.05, z_span))
        reference = dop853_columns(pert, params0, 0.05, z_span)
        assert np.max(np.abs(got - reference)) <= 1e-10

    @pytest.mark.parametrize("pert", [linear_damping(0.5), two_photon(1.0)], ids=["linear", "two_photon"])
    def test_newton_probe_near_the_black_limit(self, pert):
        # A = 5e-8 is below the probe's step: A - _PROBE < 0 would take delta_phi0 out of (0, pi] and raise
        # ValueError, so the probe steps A up.
        params0 = CoreParams.from_background(1.0, math.pi - 1e-7)
        assert 0.0 < params0.A < asymptotics._PROBE
        got = trajectory_columns(evolve_core_parameters(pert, params0, 0.05, 20.0))
        assert np.max(np.abs(got - dop853_columns(pert, params0, 0.05, 20.0))) <= 1e-10


class TestEvolveCoreParameters:
    def test_tabulated_rule_evaluations(self, monkeypatch):
        # The analytic profile is built once, for the phase-symmetry probe; each RHS call reads the rule's
        # tables for a whole batch of states.
        profiles, rhs_calls = [], []
        profile, rhs = soliton.profile_with_derivatives, asymptotics.grey_parameter_rhs
        counted_profile = lambda p, T: profiles.append(p) or profile(p, T)
        for module in (soliton, asymptotics):
            monkeypatch.setattr(module, "profile_with_derivatives", counted_profile)
        monkeypatch.setattr(asymptotics, "grey_parameter_rhs", lambda pert, p: rhs_calls.append(p) or rhs(pert, p))
        evolve_core_parameters(two_photon(1.0), GREY, 0.05, 30.0)
        assert profiles == [GREY]
        assert len(rhs_calls) <= 24  # 22 with simplified Newton on A and segments halved on the background's tail

    def test_no_four_column_solve_is_thrown_away(self, monkeypatch):
        # Two-photon damping's background (1 + 2 gamma3 Z)^-1/2 has its pole at Z = -1/(2 gamma3), so 16 nodes
        # resolve it only on short segments.  A segment too long for them is halved on its background column:
        # each four-column solve becomes a segment of the trajectory, and together they tile the span.
        solves, collocate = [], asymptotics._collocate

        def counted(rates, y0, Z0, H, Y, newton=False):
            if newton:
                solves.append((Z0, H))
            return collocate(rates, y0, Z0, H, Y, newton)

        monkeypatch.setattr(asymptotics, "_collocate", counted)
        evolve_core_parameters(two_photon(1.0), CoreParams.from_background(1.0, 2.0), 0.05, 30.0)
        starts, ends = [Z0 for Z0, _ in solves], [Z0 + H for Z0, H in solves]
        assert starts == pytest.approx([0.0, *ends[:-1]], abs=1e-15)
        assert ends[-1] == pytest.approx(1.5, abs=1e-15)
        assert len(solves) == 3

    def test_batched_rhs_equals_scalar_calls(self):
        # Every field of a batched evaluation (19 states: more than one chunk) is the scalar evaluation there.
        u = np.linspace(0.4, 1.3, 19)
        A = u * np.cos(np.linspace(0.3, 0.5 * math.pi, 19))
        batch = CoreParams(u_inf=u, A=A, B=np.sqrt(u**2 - A**2), t0=0.4, sigma0=np.linspace(0.0, 2.0, 19))
        for pert in (dispersive_damping(0.7), linear_damping(0.5), two_photon(1.3)):
            got = grey_parameter_rhs(pert, batch)
            for i in range(u.size):
                p = CoreParams(u_inf=u[i], A=A[i], B=batch.B[i], t0=0.4, sigma0=batch.sigma0[i])
                want = grey_parameter_rhs(pert, p)
                for f in fields(ShelfParams):
                    assert np.broadcast_to(getattr(got, f.name), u.shape)[i] == getattr(want, f.name), f.name

    def test_negative_epsilon_runs_backward(self):
        # eps < 0 steps Z from 0 down to eps*z_span: linear damping grows the background as exp(Gamma |Z|).
        traj = evolve_core_parameters(linear_damping(0.5), GREY, -0.05, 20.0)
        assert traj.z[0] == 0.0 and traj.z[-1] == pytest.approx(20.0, abs=1e-12)
        assert traj.Z[-1] == pytest.approx(-1.0, abs=1e-12)
        np.testing.assert_allclose(traj.background.u_inf, np.exp(-0.5 * traj.background.Z), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("pert", [dispersive_damping(1.0), linear_damping(0.5), two_photon(1.0)])
    @pytest.mark.parametrize("u_inf, dphi", [(1.0, math.pi), (1.0, 2.0), (0.3, 1.0), (40.0, 2.5)])
    def test_tabulated_densities_match_the_analytic_profile(self, pert, u_inf, dphi):
        # Reference: the densities on profile_with_derivatives at T, integrated by the same rule.
        params = CoreParams.from_background(u_inf, dphi, sigma0=0.9)
        f_inf = pert.on_background(u_inf) * u_inf

        def densities(T):
            u0, u0_T, u0_TT = profile_with_derivatives(replace(params, sigma0=0.0), T)
            F = pert.point_eval(u0, u0_TT)
            return np.real(F * np.conj(u0_T)), np.imag(f_inf - F * np.conj(u0))

        reference = soliton_integrals(densities(SOLITON_NODES / params.B), params.B)
        got = asymptotics._forcing_integrals(pert, params, f_inf)
        np.testing.assert_allclose(got, reference, rtol=0, atol=1e-13 * max(1.0, *map(abs, reference)))

    def test_nan_density_raises(self):
        nan_core = local_forcing("nan_core", lambda u, u_tt: u_tt * np.nan)
        with pytest.raises(QuadratureError):
            grey_parameter_rhs(nan_core, GREY)

    def test_black_sigma0_at_30(self, monkeypatch):
        use_steps(monkeypatch, 600, 0.05 * 30.0)
        traj = evolve_core_parameters(dispersive_damping(1.0), BLACK, 0.05, 30.0)
        assert traj.params[-1].sigma0 == pytest.approx(-2.0, abs=1e-9)

    def test_grey_sigma0_at_30(self, monkeypatch):
        # -30*0.05*(4/3)*sin^3(2 pi/5), evaluated directly.
        expect = -30 * 0.05 * (4.0 / 3.0) * math.sin(2 * math.pi / 5) ** 3
        use_steps(monkeypatch, 600, 0.05 * 30.0)
        traj = evolve_core_parameters(dispersive_damping(1.0), GREY, 0.05, 30.0)
        assert traj.params[-1].sigma0 == pytest.approx(expect, abs=1e-9)
        assert expect == pytest.approx(-1.7204774005889667, abs=1e-12)

    def test_epsilon_zero_constant(self):
        traj = evolve_core_parameters(None, GREY, 0.0, 10.0)
        assert all(p == GREY for p in traj.params)
        assert np.all(traj.Z == 0.0)

    def test_constraint_holds_at_every_sample(self, monkeypatch):
        # t0 is held at its initial value; the cascade gives it no rate.
        use_steps(monkeypatch, 600, 0.05 * 20.0)
        traj = evolve_core_parameters(linear_damping(0.5), replace(GREY, t0=0.7), 0.05, 20.0)
        for p in traj.params:
            assert abs(p.A**2 + p.B**2 - p.u_inf**2) < 1e-10
            assert p.t0 == 0.7

    def test_linear_damping_background_tracks_exponential(self, monkeypatch):
        use_steps(monkeypatch, 600, 0.05 * 10.0)
        traj = evolve_core_parameters(linear_damping(0.5), GREY, 0.05, 10.0)
        assert traj.params[-1].u_inf == pytest.approx(math.exp(-0.5 * 0.5), abs=1e-8)

    def test_one_rhs_call_per_sweep(self, monkeypatch):
        # Each sweep evaluates all 16 nodes of its segment in one call, as does the Newton probe, one more
        # call in a segment whose second sweep has not converged; one more call evaluates the samples.  The
        # segments, and so the sweeps, do not depend on the sample count.
        rhs, sweeps = asymptotics.grey_parameter_rhs, []
        for samples in (2, 11, 121):
            batches = []
            monkeypatch.setattr(asymptotics, "grey_parameter_rhs",
                                lambda pert, p: batches.append(p.u_inf.size) or rhs(pert, p))
            monkeypatch.setattr(asymptotics, "SAMPLES", samples)
            use_steps(monkeypatch, 600, 0.05 * 20.0)
            evolve_core_parameters(two_photon(1.0), GREY, 0.05, 20.0)
            assert batches[:-1] == [asymptotics._NODES.size] * (len(batches) - 1) and batches[-1] == samples
            sweeps.append(len(batches) - 1)
        assert sweeps[0] == sweeps[1] == sweeps[2]

    def test_delta_phi1_independent_of_sample_count(self, monkeypatch):
        # delta_phi1 is read off the flux integral's interpolant; samples only read the state.
        final = []
        for n in (11, 121, 601):
            monkeypatch.setattr(asymptotics, "SAMPLES", n)
            use_steps(monkeypatch, 600, 0.05 * 20.0)
            final.append(evolve_core_parameters(two_photon(1.0), GREY, 0.05, 20.0).shelf[-1])
        assert final[0].delta_phi1 == final[1].delta_phi1 == final[2].delta_phi1
        assert final[0].delta_phi1 == pytest.approx(9.925348, abs=1e-6)

    def test_delta_phi1_matches_rk4_reference(self):
        # The RK4 reference at 8 x 640 steps per unit Z, whose delta_phi1 converges at fourth order.
        got = evolve_core_parameters(two_photon(1.0), GREY, 0.05, 20.0).shelf
        _, _, reference = rk4_cascade(two_photon(1.0), GREY, 0.05, 20.0, 8 * slow_steps(0.05 * 20.0))
        assert max(abs(a.delta_phi1 - b.delta_phi1) for a, b in zip(got, reference)) <= 1e-10

    def test_one_background_evaluation_per_rhs(self, monkeypatch):
        # F[u_inf] is evaluated once and shared by the rates and the forcing integrals.
        calls = []
        on_background = Perturbation.on_background
        monkeypatch.setattr(Perturbation, "on_background", lambda pert, u: calls.append(u) or on_background(pert, u))
        for pert in (dispersive_damping(1.0), linear_damping(0.5), two_photon(1.0)):
            calls.clear()
            grey_parameter_rhs(pert, GREY)
            assert calls == [GREY.u_inf]

    def test_phase_asymmetric_forcing_rejected(self):
        # Re F[u_inf] = 0, but F[u e^{i theta}] = F[u] e^{-i theta}.
        skew = local_forcing("skew", lambda u, u_tt: -1j * np.conj(u))
        with pytest.raises(ValueError, match="skew"):
            evolve_core_parameters(skew, GREY, 0.05, 1.0)

    def test_comoving_shift_linear_for_dispersive(self, monkeypatch):
        use_steps(monkeypatch, 360, 0.05 * 20.0)
        traj = evolve_core_parameters(dispersive_damping(1.0), GREY, 0.05, 20.0)
        assert traj.comoving_shift(20.0) == pytest.approx(GREY.A * 20.0, rel=1e-6)

    def test_frame_and_edges_read_one_integral(self, monkeypatch):
        # Linear damping: the comoving origin plus either edge is t0 +- int_0^z u_inf ds,
        # at the samples and halfway between them.
        use_steps(monkeypatch, 600, 0.05 * 20.0)
        traj = evolve_core_parameters(linear_damping(0.5), replace(GREY, t0=0.7), 0.05, 20.0)
        travelled = cumulative_trapezoid([p.u_inf for p in traj.params], traj.z, initial=0.0)
        halfway = zip(0.5 * (traj.z[1:] + traj.z[:-1]), 0.5 * (travelled[1:] + travelled[:-1]))
        for z, dist in [*zip(traj.z, travelled), *halfway]:
            shift, (s_l, s_r) = traj.comoving_shift(z), traj.edges(z)
            assert isinstance(shift, float)
            assert shift + s_r == pytest.approx(0.7 + dist, abs=1e-12)
            assert shift + s_l == pytest.approx(0.7 - dist, abs=1e-12)
        assert traj._integrals is traj._integrals  # built once per trajectory

    def test_singular_newton_matrix_fails_the_segment(self):
        # A linear A rate j A with j = 1 at node k alone gives J = e_k exactly (A - _PROBE is exact), so where
        # (H/2) M[k, k] = 1, M = _AT_NODES _ANTIDERIVATIVE, row k of I - (H/2) M diag J is zero.  The probe's
        # sweep fails as a sweep that does not contract would, with BackgroundCollapseError: the segment halves.
        M = asymptotics._AT_NODES @ asymptotics._ANTIDERIVATIVE
        k, m = 8, M[8, 8]
        H = 2.0 / m
        for _ in range(8):  # the H whose (H/2) m rounds to 1 is within a few ulps
            if 0.5 * H * m != 1.0:
                H = np.nextafter(H, 0.0 if 0.5 * H * m > 1.0 else math.inf)
        J = np.eye(asymptotics._NODES.size)[k]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.inv(np.eye(J.size) - (0.5 * H) * M * J)
        calls = []

        def rates(Y, Z):
            calls.append(Y)
            return np.outer(J * Y[:, 1], [0.0, 1.0, 0.0, 0.0])

        y0 = np.array([1.0, 0.5, 0.0, 0.0])
        with pytest.raises(BackgroundCollapseError, match="does not converge"):
            asymptotics._collocate(rates, y0, 0.0, H, np.tile(y0, (J.size, 1)), newton=True)
        assert len(calls) == 3  # two sweeps, then the probe

    def test_segments_start_a_on_the_background(self, monkeypatch):
        # Linear damping keeps A/u_inf fixed, so A started at A0 u_inf/u_inf0 on each segment's nodes is the solution,
        # even for a shallow soliton whose A would pass the decaying u_inf if started at A0 on every node.
        collocate, calls = asymptotics._collocate, []
        monkeypatch.setattr(asymptotics, "_collocate", lambda *args, **kw: calls.append(args) or collocate(*args, **kw))
        evolve_core_parameters(linear_damping(1.13), CoreParams.from_background(0.55, 0.2), 0.05, 50.0)
        assert len(calls) <= 20

    def test_background_collapse_in_the_cascade(self):
        # Two-photon absorption this strong takes the background's iterate through zero on a segment one
        # table interval long (h * 3 gamma3 = 12.5), where the cascade stops halving.
        with pytest.raises(BackgroundCollapseError, match=r"u_inf reached -[0-9.]+ at Z="):
            evolve_core_parameters(two_photon(1e4), GREY, 0.05, 1.0)


class TestPhaseConservation:
    def test_dispersive_grey(self, monkeypatch):
        use_steps(monkeypatch, 600, 0.05 * 30.0)
        traj = evolve_core_parameters(dispersive_damping(1.0), GREY, 0.05, 30.0)
        assert phase_conservation_check(traj) < 1e-8

    def test_linear_damping(self, monkeypatch):
        use_steps(monkeypatch, 600, 0.05 * 20.0)
        traj = evolve_core_parameters(linear_damping(0.5), GREY, 0.05, 20.0)
        assert phase_conservation_check(traj) < 1e-8

    def test_unperturbed(self):
        traj = evolve_core_parameters(None, GREY, 0.0, 10.0)
        assert phase_conservation_check(traj) == 0.0

    def test_too_few_samples(self):
        flat = BackgroundTrajectory(np.zeros(2), np.ones(2))
        traj = ParameterTrajectory(0.0, np.array([0.0, 10.0]), [GREY] * 2, [ShelfParams(*(0.0,) * 9)] * 2, flat)
        with pytest.raises(ValueError):
            phase_conservation_check(traj)


class TestBlackFirstOrder:
    """The closed-form black solution of theory_reference against its own equations."""

    def test_vanishes_at_center(self):
        assert black_q1(0.3, 1.0, 1.0, t0=0.3) == 0.0

    def test_signed_asymptotes(self):
        assert black_q1(25.0, 1.0, 1.0) == pytest.approx(-(2.0 / 3.0), abs=1e-10)
        assert black_q1(-25.0, 1.0, 1.0) == pytest.approx(+(2.0 / 3.0), abs=1e-10)

    def test_phase_slope_asymptotes(self):
        expect = (4.0 / 3.0) * 0.7 * 1.2
        assert black_phi1_t(30.0, 0.7, 1.2) == pytest.approx(expect, abs=1e-10)
        assert black_phi1_t(-30.0, 0.7, 1.2) == pytest.approx(-expect, abs=1e-10)

    def test_amplitude_equation_residual(self):
        # -(1/2) q1'' + (3 q0^2 - u_inf^2) q1 - sigma0_Z q0 = 0, sigma0_Z = -(4/3) gamma u_inf^2.
        sigma0_rate = -4.0 / 3.0
        t = np.linspace(-8, 8, 4001)
        h = t[1] - t[0]
        q1 = black_q1(t, 1.0, 1.0)
        q0 = np.tanh(t)
        d2 = (q1[:-2] - 2 * q1[1:-1] + q1[2:]) / h**2
        resid = -0.5 * d2 + (3 * q0[1:-1] ** 2 - 1.0) * q1[1:-1] - sigma0_rate * q0[1:-1]
        assert np.max(np.abs(resid)) < 1e-5

    def test_phase_equation_residual(self):
        # q0_t phi1_t + (1/2) q0 phi1_tt + gamma q0_tt = 0 (t0_Z = 0).
        gamma = 0.8
        t = np.linspace(-8, 8, 4001)
        h = t[1] - t[0]
        p1t = black_phi1_t(t, gamma, 1.0)
        q0 = np.tanh(t)
        q0t = 1 / np.cosh(t) ** 2
        q0tt = -2 * np.tanh(t) / np.cosh(t) ** 2
        p1tt = (p1t[2:] - p1t[:-2]) / (2 * h)
        resid = q0t[1:-1] * p1t[1:-1] + 0.5 * q0[1:-1] * p1tt + gamma * q0tt[1:-1]
        assert np.max(np.abs(resid)) < 1e-6

    def test_phi1_matches_log_cosh(self):
        assert black_phi1(2.0, 1.0, 1.0) == pytest.approx((4.0 / 3.0) * math.log(math.cosh(2.0)), rel=1e-12)
        assert black_phi1(700.0, 1.0, 1.0) == pytest.approx((4.0 / 3.0) * (700.0 - math.log(2.0)), rel=1e-12)
