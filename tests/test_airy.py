import warnings

import numpy as np
import pytest
from scipy import integrate, special

from darkshelf.airy import airy_ai, airy_ai_double_integral, airy_ai_integral, airy_ai_prime

GRID = np.concatenate([np.linspace(-40, 40, 801), [-12.01, -11.99, -8.61, -8.59, 6.49, 6.51]])


def test_value_at_origin():
    # 3^(-2/3)/Gamma(2/3), evaluated independently.
    ref = 3.0 ** (-2.0 / 3.0) / special.gamma(2.0 / 3.0)
    assert airy_ai(0.0) == pytest.approx(ref, abs=1e-15)


def test_against_scipy_everywhere():
    ai_ref, aip_ref, _, _ = special.airy(GRID)
    np.testing.assert_allclose(airy_ai(GRID), ai_ref, atol=5e-11)
    np.testing.assert_allclose(airy_ai_prime(GRID), aip_ref, atol=5e-10)


BRIDGE = np.concatenate([np.linspace(-12.0, -8.4, 1441)[:-1], np.arange(-12.0, -8.4, 0.25), [-8.4]])


@pytest.mark.parametrize("sub, bound", [
    (BRIDGE, 1e-15),  # the Airy bridge, 1,440 points and its 16 anchors
    (np.linspace(-12.0, 6.5, 741), 7e-14),
    (np.concatenate([np.linspace(-25, 25, 41), [-12.3, -11.7, -9.0, -8.45, 6.4, 6.6]]), 5e-9),
], ids=["bridge", "table_and_bridge", "wide"])
def test_integral_against_mpmath(sub, bound):
    # High-precision oracle: mpmath's antiderivative of Ai anchored at 0.
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 25
    ref = np.array([float(mp.airyai(mp.mpf(float(v)), derivative=-1) + mp.mpf(2) / 3) for v in sub])
    np.testing.assert_allclose(airy_ai_integral(sub), ref, rtol=0.0, atol=bound)


def test_total_integral_is_one():
    assert airy_ai_integral(40.0) == pytest.approx(1.0, abs=1e-13)
    # The left tail decays like |x|^(-3/4): still ~0.035 at -40.
    assert abs(airy_ai_integral(-40.0)) < 1.0 / (np.sqrt(np.pi) * 40.0**0.75) * 1.05


def test_defining_ode_residual():
    # f'' = xi f over [-10, 8], across both ends of the anchor table; a 7-point
    # 6th-order stencil at h = 0.01 keeps the differencing truncation below
    # the 1e-8 target (|f^(8)| ~ xi^4 f).
    h = 0.01
    xi = np.arange(-10.0, 8.0 + h / 2, h)
    f = airy_ai(xi)
    c = np.array([1 / 90, -3 / 20, 3 / 2, -49 / 18, 3 / 2, -3 / 20, 1 / 90])
    d2 = sum(ck * np.roll(f, 3 - i) for i, ck in enumerate(c)) / h**2
    resid = d2[3:-3] - xi[3:-3] * f[3:-3]
    assert np.max(np.abs(resid)) < 1e-8


def test_integral_derivative_consistency():
    # d/dx AiI = Ai via centered differences.
    x = np.linspace(-6, 6, 241)
    h = x[1] - x[0]
    F = airy_ai_integral(x)
    mid = (F[2:] - F[:-2]) / (2 * h)
    np.testing.assert_allclose(mid, airy_ai(x[1:-1]), atol=1e-3)


def test_double_integral_identity():
    # Increments of AiII must equal scipy's quadrature of AiI (independent route),
    # and AiII(x) - x -> 0 on the right while AiII -> 0 on the far left.
    lo = -6.0
    for x in (-2.0, 0.0, 1.5, 4.0):
        direct, _ = integrate.quad(airy_ai_integral, lo, x, epsabs=1e-12, epsrel=0.0, limit=200)
        got = airy_ai_double_integral(x) - airy_ai_double_integral(lo)
        assert got == pytest.approx(direct, abs=1e-9)
    assert airy_ai_double_integral(25.0) == pytest.approx(25.0, abs=1e-10)
    assert abs(airy_ai_double_integral(-40.0)) < 2e-3


def test_double_integral_slope_is_integral():
    x = np.linspace(-4, 4, 161)
    h = x[1] - x[0]
    G = airy_ai_double_integral(x)
    mid = (G[2:] - G[:-2]) / (2 * h)
    np.testing.assert_allclose(mid, airy_ai_integral(x[1:-1]), atol=1e-3)


def test_array_equals_scalar_calls():
    # Both sides of each branch switch, and anchor midpoints, where a step is longest.
    switches = [v + dv for v in (-12.0, -8.4, 6.5) for dv in (-1e-9, 0.0, 1e-9, -0.01, 0.01)]
    x = np.array(switches + list((np.arange(-34, 26) + 0.5) * 0.25))
    for fn in (airy_ai, airy_ai_prime, airy_ai_integral, airy_ai_double_integral):
        assert np.array_equal(fn(x), [fn(float(v)) for v in x]), fn.__name__


@pytest.mark.parametrize("fn", [airy_ai, airy_ai_prime, airy_ai_integral, airy_ai_double_integral])
@pytest.mark.parametrize("bad", [-np.inf, np.inf, np.nan])
def test_non_finite_rejected(fn, bad):
    with pytest.raises(ValueError, match="must be finite"):
        fn(bad)
    with pytest.raises(ValueError, match="must be finite"):
        fn(np.array([0.0, bad]))


def test_huge_arguments_quiet_and_bounded():
    # Past 5.6e102 x**3 overflows and past 3.9e205 so does the phase (2/3)|x|^1.5.
    big = np.array([1e20, 1e100, 1.0000000000000002e100, 1e103, 1e120, 1e206, 1e250, np.finfo(float).max])
    x = np.concatenate([-big[::-1], big])
    fns = (airy_ai, airy_ai_prime, airy_ai_integral, airy_ai_double_integral)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ai, aip, aii, aiii = (fn(x) for fn in fns)
        scalars = [[fn(float(v)) for v in x] for fn in fns]
    assert np.array_equal([ai, aip, aii, aiii], scalars)
    left, y = x < 0, np.abs(x)
    # Oscillatory side: within the amplitude bounds of the asymptotic forms.
    amp = 1.01 * y[left] ** 0.25 / np.sqrt(np.pi)
    assert np.all(np.abs(ai[left]) <= amp / y[left] ** 0.5)
    assert np.all(np.abs(aip[left]) <= amp)
    assert np.all(np.abs(aii[left]) <= amp / y[left])
    assert np.all(np.abs(aiii[left]) <= 2.0 * amp)
    # Decaying side: the float64 limits.
    assert np.all(ai[~left] == 0.0) and np.all(aip[~left] == 0.0)
    assert np.all(aii[~left] == 1.0) and np.array_equal(aiii[~left], x[~left])


def test_scalar_and_array_forms():
    assert np.isscalar(airy_ai(1.0)) or isinstance(airy_ai(1.0), float)
    out = airy_ai(np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert out.shape == (2, 2)
