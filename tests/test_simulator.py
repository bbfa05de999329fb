import math

import numpy as np
import pytest

from darkshelf import simulator
from darkshelf.asymptotics import evolve_core_parameters
from darkshelf.finitediff import first_derivative, second_derivative
from darkshelf.observe import (
    MeasurementError,
    measure_core_minimum,
    measure_shelf,
    measure_sigma0_rate,
    track_edges,
)
from darkshelf.perturbations import BUILTINS, dispersive_damping, linear_damping, local_forcing
from darkshelf.soliton import CoreParams, grey_profile
from darkshelf.simulator import (
    D2_SPECTRAL_RADIUS,
    MAX_UINF_DT,
    RK4_IMAGINARY_LIMIT,
    STABILITY_MARGIN,
    FieldState,
    Grid,
    SimBackground,
    SimConfig,
    conservation_residuals,
    conserved_quantities,
    dz_per_dt2,
    nls_rate,
    run,
    write_snapshot_csv,
)
from theory_reference import reference_run

BLACK = CoreParams.from_background(1.0, math.pi)
GREY = CoreParams.from_background(1.0, 4 * math.pi / 5)


def lab(z):
    """Comoving origin of a soliton that stays at t = 0."""
    return 0.0


def small_run(params, epsilon=0.0, pert=None, z_max=3.0, n=1024, L=50.0):
    grid = Grid(half_width=L, n_points=n)
    cfg = SimConfig(epsilon=epsilon, perturbation=pert)
    bg = SimBackground.constant(params.u_inf)
    snaps = run(cfg, grid, params, bg, z_max)
    return grid, cfg, bg, snaps


class TestGridAndConfig:
    def test_grid_invariants(self):
        with pytest.raises(ValueError):
            Grid(half_width=10.0, n_points=128)
        g = Grid(half_width=50.0, n_points=1000)
        assert g.dt == pytest.approx(0.1)
        assert g.t[0] == pytest.approx(-50.0 + 0.05)
        assert g.t[-1] == pytest.approx(50.0 - 0.05)
        # Cell-centered grid is symmetric about t = 0.
        np.testing.assert_allclose(g.t + g.t[::-1], 0.0, atol=1e-12)

    def test_perturbation_required_with_epsilon(self):
        with pytest.raises(ValueError):
            SimConfig(epsilon=0.1)

    @pytest.mark.parametrize("u_inf", [1.0, 3.0])
    def test_snapshot_stride_from_snapshot_dz(self, u_inf):
        g = Grid(half_width=50.0, n_points=1024)
        bound = dz_per_dt2(u_inf * g.dt) * g.dt**2
        for snapshot_dz, n_snap in ((0.5, 6), (0.1, 30)):
            dz, n_steps, stride = SimConfig(snapshot_dz=snapshot_dz).resolve(g, 3.0, u_inf)
            assert dz <= bound and n_steps * dz == pytest.approx(3.0)
            # Equal intervals, each with the fewest steps the bound allows.
            assert n_steps == n_snap * stride and n_snap * (stride - 1) * bound < 3.0

    def test_step_shrinks_with_the_background(self):
        # The top linearized frequency (8/3) dt^-2 sqrt(1 + 3/4 (u_inf dt)^2) sets the step.
        g = Grid(half_width=50.0, n_points=1024)
        assert dz_per_dt2(0.0) == pytest.approx(STABILITY_MARGIN * RK4_IMAGINARY_LIMIT / (0.5 * D2_SPECTRAL_RADIUS))
        assert dz_per_dt2(1.0) == pytest.approx(dz_per_dt2(0.0) / math.sqrt(1.75))
        assert SimConfig().resolve(g, 3.0, 10.0)[1] > SimConfig().resolve(g, 3.0, 1.0)[1]

    def test_snapshots_on_exact_grid(self):
        grid = Grid(half_width=50.0, n_points=1024)
        cfg = SimConfig(snapshot_dz=0.7)  # 3.0 / 0.7 rounds to 4 intervals of 0.75
        snaps = run(cfg, grid, BLACK, SimBackground.constant(1.0), 3.0)
        np.testing.assert_allclose([s.z for s in snaps], 0.75 * np.arange(5), rtol=0.0, atol=1e-12)
        # A snapshot_dz below the step bound keeps every step, at the bound's dz.
        dz, _, stride = SimConfig(snapshot_dz=1e-9).resolve(grid, 3.0, 1.0)
        assert stride == 1 and dz == SimConfig(snapshot_dz=3.0).resolve(grid, 3.0, 1.0)[0]

    def test_a_run_takes_at_least_one_step(self):
        # z_max / (dz_per_dt2 dt^2) underflows to 0 here; the run still needs its one step.
        assert SimConfig().resolve(Grid(half_width=300.0, n_points=256), 5e-324, 0.3) == (5e-324, 1, 1)

    GRID = Grid(half_width=12.8, n_points=256)

    @staticmethod
    def _pinned_d2(grid):
        # The pinned boundary samples do not evolve: drop their rows and columns.
        eye = np.eye(grid.n_points)
        return np.column_stack([second_derivative(e, grid.dt) for e in eye])[1:-1, 1:-1]

    @staticmethod
    def _rk4_growth(dz, lam):
        w = dz * lam
        return np.max(np.abs(1.0 + w + w**2 / 2 + w**3 / 6 + w**4 / 24))

    @pytest.mark.parametrize("eps_gamma", [0.0, 0.05])  # eps gamma of dispersive damping
    def test_step_inside_rk4_stability_region(self, eps_gamma):
        grid = self.GRID
        lam = (-0.5j + eps_gamma) * np.linalg.eigvals(self._pinned_d2(grid))
        assert self._rk4_growth(SimConfig().resolve(grid, 1.0, 1.0)[0], lam) <= 1.0 + 1e-12  # roundoff in R
        # The margin is taken under the true limit: just past it, RK4 grows.
        assert self._rk4_growth(1.07 * RK4_IMAGINARY_LIMIT / (0.5 * D2_SPECTRAL_RADIUS) * grid.dt**2, lam) > 1.0

    @pytest.mark.parametrize("uinf_dt", [1e-9, 0.5, 1.0, MAX_UINF_DT, 2.0])
    def test_step_inside_rk4_stability_region_on_the_background(self, uinf_dt):
        # Linearized about u_inf, (Re, Im) of a perturbation evolve by [[0, D2/2], [2 u_inf^2 - D2/2, 0]]:
        # Bogoliubov modes at sqrt(a (a + 2 u_inf^2)), a = -D2/2, whose top the step rule takes at
        # STABILITY_MARGIN of RK4's limit, for every u_inf dt.
        grid = self.GRID
        d2 = self._pinned_d2(grid)
        u2 = (uinf_dt / grid.dt) ** 2
        op = np.block([[np.zeros_like(d2), 0.5 * d2], [2.0 * u2 * np.eye(len(d2)) - 0.5 * d2, np.zeros_like(d2)]])
        lam = np.linalg.eigvals(op)
        dz = dz_per_dt2(uinf_dt) * grid.dt**2
        assert self._rk4_growth(dz, lam) <= 1.0 + 1e-12
        assert self._rk4_growth(1.07 / STABILITY_MARGIN * dz, lam) > 1.0

    def test_domain_size_guard(self):
        # The edges' reach 20 + dt/2 passes 0.9 L = 18 from t0 = 0, so the domain is at fault.
        grid = Grid(half_width=20.0, n_points=512)
        bg = SimBackground.constant(1.0)
        with pytest.raises(ValueError, match="^grid.half_width: "):
            run(SimConfig(), grid, BLACK, bg, z_max=20.0)


class TestUnperturbedFidelity:
    def test_black_short_run(self):
        grid, _, _, snaps = small_run(BLACK, z_max=3.0)
        exact = grey_profile(BLACK, grid.t)
        err = max(np.max(np.abs(s.samples - exact)) for s in snaps)
        assert err < 5e-5

    def test_grey_minimum_tracks_velocity(self):
        grid, _, _, snaps = small_run(GREY, z_max=5.0)
        pos, val = measure_core_minimum(snaps[-1], grid)
        assert pos == pytest.approx(GREY.A * snaps[-1].z, abs=1e-3)
        assert val == pytest.approx(abs(GREY.A), abs=1e-3)

    def test_nls_rate_of_travelling_soliton(self):
        # u(t - A z) solves the unperturbed NLS, so u_z = -A u_t away from the edges.
        grid = Grid(half_width=30.0, n_points=2048)
        u = grey_profile(GREY, grid.t)
        w, F = nls_rate(u, grid.dt, GREY.u_inf, 0.0, None)
        assert F is None
        np.testing.assert_allclose(-1j * w[4:-4], -GREY.A * first_derivative(u, grid.dt)[4:-4], atol=1e-6)


class TestBufferedStage:
    """run reads the background from one table and writes each stage into one set of buffers;
    its snapshots must carry the very bits of the allocating loop with per-stage lookups."""

    GRID = Grid(half_width=15.0, n_points=256)
    STRENGTHS = {"dispersive_damping": 1.0, "linear_damping": 0.5, "two_photon": 1.0}

    @staticmethod
    def _same_bits(cfg, params, background, z_max):
        snaps = run(cfg, TestBufferedStage.GRID, params, background, z_max)
        ref = reference_run(cfg, TestBufferedStage.GRID, params, background, z_max)
        assert len(snaps) == len(ref) > 2
        for s, r in zip(snaps, ref):
            assert np.array_equal(s.samples, r) and s.samples.tobytes() == r.tobytes(), s.z

    @pytest.mark.parametrize("params", [BLACK, GREY], ids=["black", "grey"])
    def test_unperturbed(self, params):
        self._same_bits(SimConfig(snapshot_dz=0.25), params, SimBackground.constant(params.u_inf), 1.0)

    @pytest.mark.parametrize("label", sorted(BUILTINS))
    def test_forced(self, label):
        pert = BUILTINS[label](self.STRENGTHS[label])
        traj = evolve_core_parameters(pert, GREY, 0.05, 1.0)
        background = SimBackground.from_perturbation(pert, traj)
        self._same_bits(SimConfig(0.05, pert, 0.25), GREY, background, 1.0)

    def test_one_lookup_of_each_background_function(self):
        pert = linear_damping(0.5)
        traj = evolve_core_parameters(pert, GREY, 0.05, 1.0)
        table = SimBackground.from_perturbation(pert, traj)
        calls = []

        def counted(fn):
            return lambda z: calls.append(np.shape(z)) or fn(z)

        run(SimConfig(0.05, pert, 0.25), self.GRID, GREY,
            SimBackground(counted(table.u_inf_fn), counted(table.rate_fn)), 1.0)
        steps = SimConfig(0.05, pert, 0.25).resolve(self.GRID, 1.0, GREY.u_inf)[1]
        assert calls == [(3 * steps + 1,)] * 2  # n dz for n <= steps, n dz + dz/2 and n dz + dz for n < steps

    def test_scalar_and_array_lookups_agree(self):
        # A stage z read alone gives the bits the table holds for it.
        pert = BUILTINS["two_photon"](1.0)
        background = SimBackground.from_perturbation(pert, evolve_core_parameters(pert, GREY, 0.05, 1.0))
        zs = np.linspace(0.0, 1.0, 2001)
        for fn in (background.u_inf_fn, background.rate_fn):
            assert np.array_equal(fn(zs), [fn(z) for z in zs.tolist()])


class TestGridRefinement:
    def test_fourth_order_convergence_in_dt(self):
        errs = []
        for n in (1024, 2048):
            grid, _, _, snaps = small_run(BLACK, z_max=5.0, n=n, L=50.0)
            exact = grey_profile(BLACK, grid.t)
            errs.append(float(np.max(np.abs(snaps[-1].samples - exact))))
        assert errs[0] / errs[1] > 10.0  # ~16 for a clean 4th-order scheme


class TestConservedQuantities:
    def test_constant_background_all_zero(self):
        grid = Grid(half_width=50.0, n_points=512)
        state = FieldState(z=0.0, samples=np.full(512, 1.0 + 0j))
        q = conserved_quantities(state, grid, 1.0)
        # H picks up squared one-sided-stencil roundoff (~1e-31); the rest
        # vanish identically.
        assert abs(q.H) < 1e-20
        assert (q.E, q.I, q.R) == (0.0, 0.0, 0.0)

    def test_black_profile_values(self):
        grid = Grid(half_width=60.0, n_points=4096)
        state = FieldState(z=0.0, samples=grey_profile(BLACK, grid.t))
        q = conserved_quantities(state, grid, 1.0)
        assert q.E == pytest.approx(2.0, abs=1e-8)
        assert q.I == pytest.approx(0.0, abs=1e-8)
        assert q.H == pytest.approx(4.0 / 3.0, abs=1e-7)

    def test_grey_momentum_value(self):
        grid = Grid(half_width=60.0, n_points=4096)
        state = FieldState(z=0.0, samples=grey_profile(GREY, grid.t))
        q = conserved_quantities(state, grid, 1.0)
        assert q.I == pytest.approx(-0.587785252292473, abs=1e-8)

    def test_unperturbed_conservation(self):
        grid, cfg, bg, snaps = small_run(BLACK, z_max=3.0)
        res = conservation_residuals(snaps, grid, cfg, bg)
        for law, val in res.items():
            assert val < 1e-6, law

    def test_dRdz_matches_momentum_for_moving_soliton(self):
        grid, cfg, bg, snaps = small_run(GREY, z_max=3.0)
        res = conservation_residuals(snaps, grid, cfg, bg)
        assert res["R"] < 1e-5

    def test_perturbed_residuals(self):
        # Residuals evaluated after the shelf-formation transient, where the
        # centered z-differences of the developed quantities are clean.
        grid, cfg, bg, snaps = small_run(
            BLACK, epsilon=0.05, pert=dispersive_damping(1.0), z_max=12.0, n=2048, L=50.0
        )
        developed = [s for s in snaps if s.z >= 6.0]
        res = conservation_residuals(developed, grid, cfg, bg)
        assert res["E"] < 1e-4
        assert res["I"] < 1e-4
        assert res["H"] < 1e-4
        assert res["R"] < 1e-4

    def test_needs_three_snapshots(self):
        grid, cfg, bg, snaps = small_run(BLACK, z_max=1.0)
        with pytest.raises(ValueError):
            conservation_residuals(snaps[:2], grid, cfg, bg)


class TestBackground:
    def test_linear_damping_table_matches_closed_form(self):
        # du_inf/dz = -eps Gamma u_inf: the cascade's u_inf column covers [0, z_max].
        traj = evolve_core_parameters(linear_damping(0.5), GREY, 0.05, 20.0)
        bg = SimBackground.from_perturbation(linear_damping(0.5), traj)
        for z in (0.0, 0.7, 5.0, 20.0):
            assert bg.u_inf_fn(z) == pytest.approx(math.exp(-0.025 * z), abs=1e-8)
            assert bg.rate_fn(z) == pytest.approx(-0.025 * math.exp(-0.025 * z), abs=1e-9)

    def test_negative_epsilon_rejected(self):
        traj = evolve_core_parameters(linear_damping(0.5), GREY, -0.05, 20.0)
        with pytest.raises(ValueError, match="epsilon"):
            SimBackground.from_perturbation(linear_damping(0.5), traj)

    def test_unperturbed_trajectory_rejected(self):
        # eps = 0 has one background, SimBackground.constant.
        traj = evolve_core_parameters(linear_damping(0.5), GREY, 0.0, 20.0)
        with pytest.raises(ValueError, match="epsilon"):
            SimBackground.from_perturbation(linear_damping(0.5), traj)

    def test_real_forcing_on_background_rejected(self):
        # Phase-symmetric, but Re F[u_inf] != 0 would rotate the boundary phases.
        gain = local_forcing("gain", lambda u, u_tt: 0.1 * u)
        traj = evolve_core_parameters(gain, GREY, 0.05, 20.0)
        with pytest.raises(ValueError, match="gain"):
            SimBackground.from_perturbation(gain, traj)


class TestBoundaryHandling:
    def test_boundary_samples_pinned(self):
        grid, _, _, snaps = small_run(BLACK, z_max=3.0)
        for s in snaps:
            assert abs(abs(s.samples[0]) - 1.0) < 1e-6
            assert abs(abs(s.samples[-1]) - 1.0) < 1e-6

    def test_total_phase_difference_constant(self):
        grid, _, _, snaps = small_run(
            GREY, epsilon=0.05, pert=dispersive_damping(1.0), z_max=6.0, n=1024, L=50.0
        )
        jumps = [np.angle(s.samples[-1]) - np.angle(s.samples[0]) for s in snaps]
        assert max(abs(j - jumps[0]) for j in jumps) < 1e-6

    def test_contamination_detected_for_offset_soliton(self, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("stepped a run whose shelf edges reach the boundary")

        monkeypatch.setattr(simulator, "second_derivative", no_step)  # every stage calls it: refused before the first
        params = CoreParams.from_background(1.0, math.pi, t0=40.0)
        grid = Grid(half_width=50.0, n_points=1024)
        bg = SimBackground.constant(1.0)
        with pytest.raises(ValueError, match="^soliton.t0: "):
            run(SimConfig(), grid, params, bg, z_max=12.0)


def synthetic_shelf(grid, eps, q1p, q1m, p1tp, p1tm, s_l, s_r, u_inf=1.0, B=1.0):
    """Analytic plateau field: core + flat shelves with linear phase ramps."""
    T = grid.t
    mag = u_inf + eps * np.where(
        (T > 0) & (T < s_r), q1p, np.where((T < 0) & (T > s_l), q1m, 0.0)
    )
    core = np.abs(grey_profile(CoreParams.from_background(u_inf, math.pi), T))
    mag = np.minimum(mag, np.where(np.abs(T) < 8, core + eps * q1p, np.inf))
    phase = eps * np.where(
        T >= 0, p1tp * np.clip(T, 0, s_r), p1tm * np.clip(T, s_l, 0)
    )
    return FieldState(z=30.0, samples=mag * np.exp(1j * phase))


class TestShelfMeasurement:
    # Windows [10/B, 0.7 S_R] and [0.7 S_L, -10/B] for B = 1 and edges (-39, 21).
    RIGHT, LEFT = (10.0, 0.7 * 21.0), (0.7 * -39.0, -10.0)

    def test_synthetic_plateaus_recovered(self):
        grid = Grid(half_width=100.0, n_points=4096)
        eps = 0.05
        state = synthetic_shelf(grid, eps, -0.66, -0.44, 1.32, -0.88, -39.0, 21.0)
        q1p, phi1tp, flat_right = measure_shelf(state, grid, lab, self.RIGHT, eps, 1.0)
        q1m, phi1tm, flat_left = measure_shelf(state, grid, lab, self.LEFT, eps, 1.0)
        assert q1p == pytest.approx(-0.66, rel=1e-6)
        assert q1m == pytest.approx(-0.44, rel=1e-6)
        assert phi1tp == pytest.approx(1.32, rel=1e-6)
        assert phi1tm == pytest.approx(-0.88, rel=1e-6)
        assert flat_right and flat_left

    def test_comoving_shift_moves_windows(self):
        # The same shelf displaced by 143 samples in the lab is recovered in the comoving frame.
        grid = Grid(half_width=100.0, n_points=4096)
        state = synthetic_shelf(grid, 0.05, -0.66, -0.44, 1.32, -0.88, -39.0, 21.0)
        moved = FieldState(z=state.z, samples=np.roll(state.samples, 143))

        def shift(z):
            return 143 * grid.dt

        for window, q1 in ((self.RIGHT, -0.66), (self.LEFT, -0.44)):
            assert measure_shelf(moved, grid, shift, window, 0.05, 1.0)[0] == pytest.approx(q1, rel=1e-6)

    def test_narrow_plateau_rejected(self):
        # Edges at +-5 leave [10, 3.5] and [-3.5, -10] empty; [10, 10.5] holds 10 points, under plateau_points.
        grid = Grid(half_width=100.0, n_points=4096)
        state = synthetic_shelf(grid, 0.05, -0.66, -0.44, 1.32, -0.88, -5.0, 5.0)
        for window in ((10.0, 3.5), (-3.5, -10.0), (10.0, 10.5)):
            with pytest.raises(MeasurementError):
                measure_shelf(state, grid, lab, window, 0.05, 1.0)

    def test_epsilon_zero_rejected(self):
        grid = Grid(half_width=100.0, n_points=512)
        state = FieldState(z=1.0, samples=np.ones(512, dtype=complex))
        with pytest.raises(ValueError):
            measure_shelf(state, grid, lab, (10.0, 3.5), 0.0, 1.0)


class TestEdgeTracking:
    def test_synthetic_moving_edges(self):
        grid = Grid(half_width=100.0, n_points=2048)
        eps = 0.05
        snaps = []
        for z in np.arange(10.0, 30.5, 1.0):
            state = synthetic_shelf(grid, eps, -0.66, -0.66, 0.0, 0.0, -z, z)
            snaps.append(FieldState(z=z, samples=state.samples))
        speed_right, speed_left = track_edges(snaps, grid, lab, eps * -0.66, eps * -0.66)
        assert speed_right == pytest.approx(1.0, abs=0.02)
        assert speed_left == pytest.approx(-1.0, abs=0.02)


class TestSigmaRate:
    def test_unperturbed_rate_is_zero(self):
        grid, _, _, snaps = small_run(BLACK, z_max=3.0, n=2048)
        rate = measure_sigma0_rate(snaps, grid, lab, 2.0, 0.0, lambda z: (-40.0, 40.0))
        assert abs(rate) < 1e-6

    def test_probe_at_center_rejected(self):
        grid, _, _, snaps = small_run(BLACK, z_max=1.0)
        with pytest.raises(ValueError):
            measure_sigma0_rate(snaps, grid, lab, 0.0, 0.0, lambda z: (-40.0, 40.0))

    def test_probe_overtaken_detected(self):
        grid, _, _, snaps = small_run(BLACK, z_max=3.0)
        with pytest.raises(MeasurementError):
            measure_sigma0_rate(snaps, grid, lab, 5.0, 0.05, lambda z: (-z, z))


class TestSnapshotDump:
    def test_write_csv_formats_each_value_as_fmt(self, tmp_path):
        # One format call per row gives each value's own FMT.format, on rows longer and shorter than the header.
        values = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1.8e308, 0.1, 0, 7, -(10**20),
                  np.float64(-0.0), np.float64(1 / 3), np.int64(-3), np.int64(2**62)]
        rows = [values, values[2:5], (np.int64(1),)]
        simulator.write_csv(tmp_path / "v.csv", ("z", "1.5"), rows)
        expect = "z,1.5\n" + "".join(",".join(simulator.FMT.format(v) for v in row) + "\n" for row in rows)
        assert (tmp_path / "v.csv").read_bytes() == expect.encode()

    def test_csv_format(self, tmp_path):
        grid = Grid(half_width=50.0, n_points=512)
        state = FieldState(z=1.5, samples=np.full(512, 0.5 - 0.25j))
        path = write_snapshot_csv(state, grid, tmp_path, "runx")
        lines = open(path).read().splitlines()
        assert path.endswith("runx_z1.5.csv")
        assert lines[0] == "z,1.5"
        assert len(lines) == 1 + 512
        t, re, im = lines[1].split(",")
        assert float(re) == 0.5 and float(im) == -0.25
        assert float(t) == pytest.approx(grid.t[0])
