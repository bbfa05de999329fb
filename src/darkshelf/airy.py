"""Airy function Ai and its first and second antiderivatives.

Self-contained and vectorized: every branch evaluates a whole array at once.
On [-8.4, 6.5] each point takes one Taylor step of f'' = x f from the
nearest of a table of anchors 0.25 apart holding (Ai, Ai', AiI), where
AiI(x) = int_{-inf}^x Ai.  The table is built once at import by walking the
same step leftward from two seeds: x = 0, with the exact Ai(0), Ai'(0) and
AiI(0) = 2/3, and x = 6.5, off the asymptotic branch (walking right from 0
would grow the Bi component).  Evaluation steps are at most 0.125 long, so
their terms do not cancel and a plain sum is exact to rounding.

Outside the table Ai and Ai' come from the classical asymptotic expansions
(DLMF 9.7) and AiI from an integration-by-parts tail series in the same Ai
and Ai', each a fixed-length sum whose terms still decrease at the switch
point.  On [-12, -8.4), where the tail series is not yet accurate, AiI is
bridged from the nearest of the anchors -12, -11.75, ..., -8.5, -8.4 by one
15-point Gauss-Kronrod panel (quadrature.integrate), all of an evaluation's
bridge points in one call.  The anchors' values are built at import from
the table's value at -8.4, less one such panel per gap between neighbouring
anchors (0.25 wide, the last 0.1).  One dispatch gives the rows Ai, Ai' and
AiI of every point, so the second antiderivative, which reduces exactly to
x*AiI(x) - Ai'(x), reads both from one pass.  Past |x| = 1e100 Ai and Ai'
are 0 and AiI is 1 on the right (exact in float64) and 0 on the left
(within the amplitude bound; float64 no longer resolves the phase there).

Accuracy against mpmath (absolute): Ai, Ai' and AiI within 7e-14 on
[-12, 6.5] and AiI within 1e-15 on the bridge, Ai' 3e-14 and AiI 1.2e-13
further left, and AiI 1.5e-11 just right of 6.5, where the tail series
stops at its smallest term.
"""

from __future__ import annotations

import math

import numpy as np

from .quadrature import integrate

_AI0 = 0.3550280538878172  # Ai(0)  = 3^(-2/3)/Gamma(2/3)
_AIP0 = -0.2588194037928068  # Ai'(0) = -3^(-1/3)/Gamma(1/3)
_SQRTPI = math.sqrt(math.pi)

_TABLE_LO = -8.4
_TABLE_HI = 6.5
_BRIDGE_LO = -12.0
_SPACING = 0.25
_TAYLOR_TERMS = 24  # 20 already reach rounding on a full 0.25 walking step at |x| <= 8.5
_FAR = 1e100  # past it the far-field limits apply (module docstring)


def _asym_coeffs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """First n coefficients u_k, v_k of the standard Airy asymptotic series."""
    u = [1.0]
    v = [1.0]
    for k in range(1, n):
        u.append(u[-1] * (6 * k - 5) * (6 * k - 3) * (6 * k - 1) / (216.0 * k * (2 * k - 1)))
        v.append(u[-1] * (6 * k + 1) / (1 - 6 * k))
    return np.array(u), np.array(v)


_UK, _VK = _asym_coeffs(26)
_ALT = (-1.0) ** np.arange(26)


def _asym_right(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') for x >= 6.5."""
    zeta = (2.0 / 3.0) * x**1.5
    amp = np.exp(-zeta) / (2.0 * _SQRTPI)
    w = 1.0 / zeta
    return (amp * np.polyval((_ALT * _UK)[::-1], w) / x**0.25,
            -amp * np.polyval((_ALT * _VK)[::-1], w) * x**0.25)


# The oscillatory side's four series in w^2, highest power first: each of u_k and v_k splits into even and
# odd powers of w, alternating in sign pairwise.
_LEFT_SERIES = (_ALT[:13] * np.array([_UK[0::2], _UK[1::2], _VK[0::2], _VK[1::2]]))[:, ::-1]


def _asym_left(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Ai, Ai') for x <= -8.4 (oscillatory side)."""
    y = -x
    zeta = (2.0 / 3.0) * y**1.5
    w = 1.0 / zeta
    ww = w * w
    series = np.zeros((4, *ww.shape))
    for c in _LEFT_SERIES.T:  # Horner, all four at once: np.polyval's multiply-adds
        series = series * ww + c[:, None]
    ceven, codd, seven, sodd = series[0], w * series[1], series[2], w * series[3]
    c = np.cos(zeta - 0.25 * math.pi)
    s = np.sin(zeta - 0.25 * math.pi)
    return (c * ceven + s * codd) / (_SQRTPI * y**0.25), (s * seven - c * sodd) * y**0.25 / _SQRTPI


def _byparts(x: np.ndarray, ai: np.ndarray, aip: np.ndarray, terms: int) -> np.ndarray:
    """int_{-inf}^x Ai for x < 0, or -int_x^inf Ai for x > 0.

    Repeated integration by parts through Ai = Ai''/t: an asymptotic series
    in x^-3 whose first ``terms`` terms decrease over the range it serves.
    """
    n = 3 * np.arange(terms)
    coef = np.cumprod(np.concatenate(([1.0], ((n + 1) * (n + 2))[:-1])))
    w = 1.0 / x**3
    return aip / x * np.polyval(coef[::-1], w) + ai / x**2 * np.polyval(((n + 1) * coef)[::-1], w)


def _taylor_step(x0, f0, fp0, F0, d):
    """(Ai, Ai', AiI) at x0 + d from their values at x0.

    Sums the Taylor series of f'' = x f, whose coefficients obey
    c_{n+2} = (x0 c_n + c_{n-1}) / ((n+1)(n+2)).
    """
    c_prev, c, c_next = 0.0, f0, fp0  # c_{n-1}, c_n, c_{n+1}
    f = fp = 0.0
    F = F0
    dn = 1.0  # d^n
    for n in range(_TAYLOR_TERMS):
        f = f + c * dn
        fp = fp + (n + 1) * c_next * dn
        F = F + c * dn * d / (n + 1)
        c_prev, c, c_next = c, c_next, (x0 * c + c_prev) / ((n + 1) * (n + 2))
        dn = dn * d
    return f, fp, F


def _walk(start: int, stop: int, seed: tuple[float, float, float]) -> list[tuple[float, float, float]]:
    """Anchors k = start, start - 1, ..., stop (x = k * _SPACING), walked left from ``seed``."""
    rows = [seed]
    for k in range(start, stop, -1):
        rows.append(_taylor_step(k * _SPACING, *rows[-1], -_SPACING))
    return rows


def _anchors() -> np.ndarray:
    """Columns Ai, Ai', AiI; row i is the anchor x = (i + _K_LO) * _SPACING.

    The right half's integral is carried from zero at x = 6.5 and then
    shifted to meet the exact 2/3 at x = 0.
    """
    left = _walk(0, _K_LO, (_AI0, _AIP0, 2.0 / 3.0))[::-1]
    ai, aip = _asym_right(np.array([_TABLE_HI]))
    right = np.array(_walk(_K_HI, 0, (float(ai[0]), float(aip[0]), 0.0))[::-1])
    right[:, 2] += 2.0 / 3.0 - right[0, 2]
    return np.concatenate((left, right[1:])).T


_K_LO = round(_TABLE_LO / _SPACING)
_K_HI = round(_TABLE_HI / _SPACING)
_ANCHORS = _anchors()


def _table(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Ai, Ai', AiI) on [-8.4, 6.5] by one step from the nearest anchor."""
    k = np.rint(x / _SPACING)
    i = k.astype(int) - _K_LO
    x0 = k * _SPACING
    return _taylor_step(x0, *_ANCHORS[:, i], x - x0)


_AII_LO = float(_table(np.array([_TABLE_LO]))[2][0])


_BRIDGE_ANCHORS = np.append(np.arange(_BRIDGE_LO, _TABLE_LO, _SPACING), _TABLE_LO)  # -12, -11.75, ..., -8.5, -8.4


def _left_ai(x: np.ndarray) -> np.ndarray:
    return _asym_left(x)[0]


# AiI at _BRIDGE_ANCHORS: the table's value at -8.4 minus one panel per gap up to -8.4, summed from the right.
_BRIDGE_GAPS = integrate(_left_ai, _BRIDGE_ANCHORS[:-1], _BRIDGE_ANCHORS[1:])
_BRIDGE_AII = _AII_LO - np.append(np.cumsum(_BRIDGE_GAPS[::-1])[::-1], 0.0)


def _bridge(x: np.ndarray) -> np.ndarray:
    """AiI on [-12, -8.4): the nearest bridge anchor's value plus one panel from it, all points in one call."""
    i = np.abs(x[:, None] - _BRIDGE_ANCHORS).argmin(axis=1)
    return _BRIDGE_AII[i] + integrate(_left_ai, _BRIDGE_ANCHORS[i], x)


def _left_tail(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Ai, Ai', AiI) for x < -12, AiI by parts from the same Ai and Ai'."""
    ai, aip = _asym_left(x)
    return ai, aip, _byparts(x, ai, aip, 12)


def _right_tail(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Ai, Ai', AiI) for x > 6.5, AiI by parts from the same Ai and Ai'."""
    ai, aip = _asym_right(x)
    return ai, aip, 1.0 + _byparts(x, ai, aip, 6)


def _piecewise(x: np.ndarray) -> np.ndarray:
    """Rows Ai, Ai', AiI at the points of a 1-d array, each from the branch that covers it."""
    out = np.zeros((3, *x.shape))
    out[2, x > _FAR] = 1.0  # past the far field: Ai = Ai' = 0 and AiI = 1
    for mask, fn in (
        ((x >= -_FAR) & (x < _BRIDGE_LO), _left_tail),
        ((x >= _BRIDGE_LO) & (x < _TABLE_LO), lambda v: (*_asym_left(v), _bridge(v))),
        ((x >= _TABLE_LO) & (x <= _TABLE_HI), _table),
        ((x > _TABLE_HI) & (x <= _FAR), _right_tail),
    ):
        if mask.any():
            out[:, mask] = fn(x[mask])
    return out


def _apply(fn, x):
    """fn(v, rows) at the points v of x, given the rows Ai, Ai', AiI there; a float for a scalar x."""
    arr = np.asarray(x, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError("x must be finite")
    v = arr.ravel()
    out = fn(v, _piecewise(v))
    return float(out[0]) if np.isscalar(x) else out.reshape(arr.shape)


def airy_ai(x):
    """Airy function Ai(x); accepts scalars or arrays."""
    return _apply(lambda v, rows: rows[0], x)


def airy_ai_prime(x):
    """Derivative Ai'(x)."""
    return _apply(lambda v, rows: rows[1], x)


def airy_ai_integral(x):
    """Cumulative integral int_{-inf}^x Ai(s) ds; tends to 0 / 1 at -inf / +inf."""
    return _apply(lambda v, rows: rows[2], x)


def airy_ai_double_integral(x):
    """Second antiderivative int_{-inf}^x int_{-inf}^s Ai dt ds.

    Integration by parts collapses it to x*AiI(x) - Ai'(x); the boundary
    contribution at -infinity cancels between the two terms.
    """
    return _apply(lambda v, rows: v * rows[2] - rows[1], x)
