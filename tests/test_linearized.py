import math

import numpy as np
import pytest

from darkshelf.soliton import CoreParams
from theory_reference import homogeneous_solutions, linearized_apply, linearized_residual

GREY = CoreParams.from_background(1.0, 4 * math.pi / 5)


def window(params, dT=1e-3):
    half = 10.0 / params.B
    n = int(2 * half / dT) + 1
    return np.linspace(-half, half, n)


def test_squared_variant_annihilates_all_four():
    T = window(GREY)
    for i, pair in enumerate(homogeneous_solutions(GREY, T)):
        res = linearized_residual(GREY, pair, T)
        assert res < 1e-6, f"U1{i + 1} residual {res}"


def test_second_grey_angle():
    params = CoreParams.from_background(1.3, 2.0)
    T = window(params)
    for pair in homogeneous_solutions(params, T):
        assert linearized_residual(params, pair, T) < 1e-6


def test_negative_control_smooth_field():
    # A generic smooth pair is not in the kernel, and the finite-difference
    # application converges to the analytic operator at 4th order.
    params = GREY
    A, B, u2 = params.A, params.B, params.u_inf**2

    def exact_apply(T):
        U = np.exp(-(T**2))
        W = np.sin(T) * np.exp(-(T**2) / 4)
        U_T = -2 * T * U
        U_TT = (4 * T**2 - 2) * U
        W_T = (np.cos(T) - 0.5 * T * np.sin(T)) * np.exp(-(T**2) / 4)
        W_TT = (-1.5 * np.sin(T) - T * np.cos(T) + 0.25 * T**2 * np.sin(T)) * np.exp(-(T**2) / 4)
        tau = np.tanh(B * T)
        pot1 = 3 * A**2 + B**2 * tau**2 - u2
        pot2 = A**2 + 3 * B**2 * tau**2 - u2
        cross = 2 * A * B * tau
        r1 = -0.5 * U_TT + pot1 * U + A * W_T + cross * W
        r2 = -0.5 * W_TT + pot2 * W - A * U_T + cross * U
        return U, W, r1, r2

    errs = []
    for n in (801, 1601):
        T = np.linspace(-6, 6, n)
        U, W, r1_exact, r2_exact = exact_apply(T)
        assert max(np.max(np.abs(r1_exact)), np.max(np.abs(r2_exact))) > 0.1
        r1, r2 = linearized_apply(params, U, W, T)
        sl = slice(4, -4)
        errs.append(max(np.max(np.abs(r1[sl] - r1_exact[sl])), np.max(np.abs(r2[sl] - r2_exact[sl]))))
    assert np.log2(errs[0] / errs[1]) > 3.5


def test_degenerate_depth_rejected():
    params = CoreParams.from_background(1.0, math.pi / 2)  # A = B
    with pytest.raises(ValueError):
        homogeneous_solutions(params, np.linspace(-1, 1, 11))


def test_black_params_supported():
    black = CoreParams.from_background(1.0, math.pi)
    T = window(black)
    pairs = homogeneous_solutions(black, T)
    assert np.all(pairs[3][0] == 0.0)  # first component carries a factor A
    for pair in pairs:
        assert linearized_residual(black, pair, T) < 1e-6
