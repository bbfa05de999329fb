import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate as sci

from darkshelf import airy
from darkshelf.quadrature import SOLITON_NODES, QuadratureError, integrate, rk4_step, soliton_integrals


def test_polynomial_exact():
    assert integrate(lambda x: 3 * x**2, 0.0, 2.0) == pytest.approx(8.0, abs=1e-13)


@pytest.mark.parametrize("width", [0.1, 0.125, 0.25])
def test_one_panel_against_scipy_on_bridge_lengths(width):
    # Ai oscillates at local wavenumber sqrt(|x|) <= 3.5 on the Airy bridge; this integrand at twice that.
    f = lambda x: np.sin(7.3 * x) * np.exp(-0.1 * x)
    a = np.linspace(0.0, 20.0, 41)
    ref = [sci.quad(lambda x: float(f(np.array(x))), lo, lo + width, epsabs=1e-17)[0] for lo in a]
    np.testing.assert_allclose(integrate(f, a, a + width), ref, rtol=0.0, atol=1e-15)


def soliton_integral(f, B):
    """The soliton rule's integral of one density f(T), sampled at its nodes T = SOLITON_NODES / B."""
    (value,) = soliton_integrals((f(SOLITON_NODES / B),), B)
    return value


@pytest.mark.parametrize("B", [0.05, 0.3, 0.5, 1.0, 2.0])
def test_sech2_closed_form(B):
    # int B^2 sech^2(BT) dT = 2B
    val = soliton_integral(lambda T: B**2 / np.cosh(B * T) ** 2, B)
    assert val == pytest.approx(2 * B, rel=1e-10)


@pytest.mark.parametrize("B", [1e-3, 0.05, 0.3, 0.5, 1.0, 2.0, 200.0])
def test_profile_gradient_closed_form(B):
    # int |u0_T|^2 dT = int B^4 sech^4 = (4/3) B^3, also the soliton's Hamiltonian H.
    # B = 1e-3 and 200: the unit-width rule scaled by 1/B holds at widths far apart.
    val = soliton_integral(lambda T: B**4 / np.cosh(B * T) ** 4, B)
    assert val == pytest.approx((4.0 / 3.0) * B**3, rel=1e-12)
    ref, _ = sci.quad(lambda T: B**4 / np.cosh(B * T) ** 4, -40 / B, 40 / B, epsabs=0.0)
    assert val == pytest.approx(ref, rel=1e-10)


def test_soliton_rule_rejects_unresolved_density():
    # The fixed panels cannot resolve a fast oscillation; the embedded estimate says so.
    with pytest.raises(QuadratureError):
        soliton_integral(lambda T: np.cos(40.0 * T) / np.cosh(T) ** 2, 1.0)


def one_inf_node(T):
    d = 1.0 / np.cosh(T) ** 2
    d[7] = np.inf
    return d


@pytest.mark.parametrize("density", [lambda T: np.full_like(T, np.nan), one_inf_node], ids=["nan", "one_inf_node"])
def test_soliton_rule_rejects_non_finite_density(density):
    # A nan error estimate is not above the tolerance, and an inf integral's estimate is not above inf.
    with pytest.raises(QuadratureError):
        soliton_integral(density, 1.0)


def test_empty_interval():
    assert integrate(lambda x: x, 1.0, 1.0) == 0.0


def inf_near_a_tenth(x):
    return np.where(np.abs(x - 0.1) < 0.05, np.inf, x)


@pytest.mark.parametrize("f", [lambda x: np.sin(7.3 * x) * np.exp(-0.1 * x), inf_near_a_tenth],
                         ids=["estimate_above_tol", "inf_integrand"])
def test_the_interval_that_fails_is_named(f):
    # One panel on [-0.25, 0.25] estimates 4.3e-13 for sin(7.3 x), above the 1e-13 tolerance, and it samples
    # the inf of the other integrand; the intervals beside it pass.
    with pytest.raises(QuadratureError, match=r"on \[-0\.25, 0\.25\]"):
        integrate(f, np.array([-1.0, -0.25, 2.0]), np.array([-0.99, 0.25, 2.01]))


def test_array_limits_match_scalar_calls_on_the_airy_bridge():
    # Each bridge point from its nearest anchor, as airy._bridge integrates them.
    x = np.linspace(-12.0, -8.4, 721)[:-1]
    a = airy._BRIDGE_ANCHORS[np.abs(x[:, None] - airy._BRIDGE_ANCHORS).argmin(axis=1)]
    scalar = [integrate(airy._left_ai, lo, hi) for lo, hi in zip(a.tolist(), x.tolist())]
    assert integrate(airy._left_ai, a, x).tobytes() == np.array(scalar).tobytes()
    # The anchors: the value at -8.4 minus one panel per gap, summed leftward from -8.4.
    anchors, total = [airy._AII_LO], 0.0
    for lo, hi in zip(airy._BRIDGE_ANCHORS[-2::-1].tolist(), airy._BRIDGE_ANCHORS[:0:-1].tolist()):
        total += integrate(airy._left_ai, lo, hi)
        anchors.insert(0, airy._AII_LO - total)
    assert airy._BRIDGE_AII.tobytes() == np.array(anchors).tobytes()


def test_array_limits_take_one_call_of_f():
    calls = []

    def f(x):
        calls.append(x.size)
        return np.cos(40.0 * x) * np.exp(-x * x)

    a, b = np.array([[0.0, -1.0], [0.05, 2.0]]), np.array([[0.01, -0.95], [0.05, 2.01]])
    got = integrate(f, a, b)
    assert calls == [4 * 15]
    scalar = [integrate(f, lo, hi) for lo, hi in zip(a.ravel().tolist(), b.ravel().tolist())]
    assert got.shape == (2, 2) and got.tobytes() == np.array(scalar).reshape(2, 2).tobytes()
    assert got[1, 0] == 0.0 and np.copysign(1.0, got[1, 0]) == 1.0  # a == b: +0.0, though f < 0 there
    assert isinstance(integrate(f, 0.0, 0.01), float)
    assert integrate(f, np.array([0.0, 1.0]), 0.01).shape == (2,)  # limits broadcast


def test_nonfinite_limits_rejected():
    with pytest.raises(ValueError):
        integrate(lambda x: x, 0.0, np.inf)


_NONZERO = st.floats(-4.0, 4.0).filter(lambda x: abs(x) >= 1e-3)
_COMPLEX = st.builds(complex, _NONZERO, _NONZERO)


@given(st.lists(_COMPLEX, min_size=1, max_size=8), st.lists(_COMPLEX, min_size=4, max_size=4), st.floats(1e-6, 1.0))
@settings(max_examples=200, deadline=None)
def test_bracket_stepped_with_minus_i_dz_is_its_rate_stepped_with_dz(y, coefficients, dz):
    # simulator.run steps the bracket w of u_z = -i w with h = -i dz.  Each product with that purely imaginary h
    # must round as the product of dz with -i w does, so both steps carry the same bits; f is asked for by node.
    y = np.array(y)
    c0, c1, c2, c3 = coefficients

    def bracket(v):
        return c0 + v * (c1 + v * (c2 + v * c3))

    nodes = []

    def at_node(v, node):
        nodes.append(node)
        return bracket(v)

    got = rk4_step(at_node, y, -1j * dz, bracket(y))
    assert nodes == [1, 1, 2]
    want = rk4_step(lambda v, _node: np.multiply(-1j, bracket(v)), y, dz, np.multiply(-1j, bracket(y)))
    assert np.array_equal(got, want)
