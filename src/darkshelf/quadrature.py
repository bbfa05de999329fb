"""Integration rules: Gauss-Kronrod quadrature and the classical RK4 step.

Both quadrature rules apply the 15-point Kronrod extension of 7-point Gauss
quadrature (the classic QUADPACK pair) on fixed panels, through one kernel
that returns each panel's Kronrod sum and its distance from the embedded
Gauss sum.  The estimate is checked, never refined.  ``integrate``, which
serves the Airy bridge, takes one panel per interval, all of them from one
call of the integrand.  ``soliton_integrals`` applies one fixed composite
panel rule, tabulated at import at unit width (nodes s_k, weights, tanh s_k
and sech^2 s_k) and scaled by the soliton width 1/B, which resolves every
sech^2-localized density of the theory.  ``rk4_step`` is the one RK4 step
of the PDE stepper and of the background ODE's reference integrator; the
slow-parameter cascade is solved by Chebyshev collocation instead
(asymptotics).  It names its stages by node, 0 (z), 1 (z + h/2, both
midpoint stages) and 2 (z + h), not by z, and takes a complex h: the PDE
steps the NLS bracket w of u_z = -i w with h = -i dz.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

# 15-point Kronrod abscissae/weights with the embedded 7-point Gauss weights.
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full symmetric node/weight tables.
_NODES = np.concatenate((-_XGK[:-1], _XGK[::-1]))
_WK = np.concatenate((_WGK[:-1], _WGK[::-1]))
_WGFULL = np.zeros_like(_WK)
_WGFULL[1:-1:2] = np.concatenate((_WG[:-1], _WG[::-1]))
_WERR = _WK - _WGFULL  # Kronrod minus embedded Gauss: the error-estimate weights


class QuadratureError(RuntimeError):
    """Raised when an integral is not finite or its error estimate misses its tolerance."""


TOL = 1e-13  # absolute tolerance of each ``integrate`` interval's error estimate


def _panel_sums(fx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Kronrod sum, |Kronrod - Gauss|) of panels of half-width 1 sampled at _NODES along the last axis.

    Sums along the last axis, not matmul, whose rounding would depend on the number of panels.
    """
    return (fx * _WK).sum(-1), np.abs((fx * _WERR).sum(-1))


def integrate(f: Callable[[np.ndarray], np.ndarray], a, b):
    """Integrate ``f`` over [a, b] with one 15-point Kronrod panel.

    ``f`` must accept a 1-d numpy array of sample points and return values of
    the same shape.  ``a`` and ``b`` may be arrays, broadcast together: each
    interval is integrated on its own, all of them by one call of ``f``, and
    the result has their shape (a float for scalar limits).  An empty
    interval a == b integrates to +0.0.  The panel is never refined: an
    interval whose integral is not finite, or whose embedded Gauss estimate
    exceeds TOL, raises QuadratureError naming that interval.
    """
    shape = np.broadcast(a, b).shape
    lo, hi = (np.broadcast_to(np.asarray(v, dtype=float), shape).ravel() for v in (a, b))
    if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
        raise ValueError("integration limits must be finite")
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _NODES
    with np.errstate(over="ignore", invalid="ignore"):
        values, errs = (half * s for s in _panel_sums(np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)))
    values[lo == hi] = errs[lo == hi] = 0.0
    bad = np.flatnonzero(~(np.isfinite(values) & (errs <= TOL)))  # a nan fails both
    if bad.size:
        i = bad[0]
        raise QuadratureError(f"integral {values[i]:.3g}, error estimate {errs[i]:.3e} "
                              f"(tolerance {TOL:.0e}) on [{lo[i]}, {hi[i]}]")
    return values.reshape(shape) if shape else values.item()


# Composite panel edges for sech^2-localized densities, in units of 1/B.
# Fine panels across the core, geometric in the exponential tail; the
# truncation at |T| = 40/B leaves less than 1e-27 of the mass outside.
_PANEL_EDGES = np.array([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0, 14.0, 20.0, 28.0, 40.0])
_PANEL_EDGES = np.concatenate((-_PANEL_EDGES[:0:-1], _PANEL_EDGES))
_PANEL_HALF = 0.5 * np.diff(_PANEL_EDGES)
# The rule at B = 1, built once: nodes s_k and the profile's tanh s_k, sech^2 s_k there.
SOLITON_NODES = (0.5 * (_PANEL_EDGES[1:] + _PANEL_EDGES[:-1])[:, None] + _PANEL_HALF[:, None] * _NODES).ravel()
SOLITON_TANH = np.tanh(SOLITON_NODES)
SOLITON_SECH2 = 1.0 / np.cosh(SOLITON_NODES) ** 2


def soliton_integrals(densities: Sequence[np.ndarray], B: float | np.ndarray) -> np.ndarray:
    """Integrate soliton-localized densities over the line with one fixed rule.

    Each density is sampled at the nodes T = SOLITON_NODES / B of a fixed
    composite 15-point Kronrod rule on |T| <= 40/B.  B may be an array of
    widths, one per state, with each density's samples along its last axis:
    the result has one row per density and one column per state.  Each
    integral must be finite, and its error estimate from the embedded Gauss
    rule must stay below 1e-9 of max(1, |integral|); QuadratureError otherwise.
    """
    if np.any(B <= 0):
        raise ValueError("B must be positive")
    panels = np.asarray(densities).reshape(len(densities), *np.shape(B), _PANEL_HALF.size, _NODES.size)
    # A sum that overflows fails the finiteness test below.
    with np.errstate(over="ignore", invalid="ignore"):
        values, errs = ((s * _PANEL_HALF).sum(-1) / B for s in _panel_sums(panels))
    bad = ~(np.isfinite(values) & (errs <= 1e-9 * np.maximum(np.abs(values), 1.0)))  # a nan fails both
    if bad.any():
        d, *k = np.argwhere(bad)[0]
        raise QuadratureError(f"soliton-density integral {values[(d, *k)]:.3g}, error estimate "
                              f"{errs[(d, *k)]:.2e} (B={np.asarray(B)[tuple(k)]})")
    return values


def rk4_step(f: Callable, y, h, k1):
    """One classical RK4 step of dy/dz = f(y, node) from y over h, which may be complex.

    ``k1``, the rate at node 0 (z), is passed in, so a caller can keep the
    first stage's rate.  f is called once per later stage, at node 1 (z +
    h/2) for both midpoint stages and at node 2 (z + h) for the end, so a
    caller that tabulates its coefficients at those nodes never rounds a z.
    Each rate is consumed before f is called again, so f may return one
    buffer it reuses; the stage states share one buffer too.  The sum is
    y + h/6 (k1 + 2 k2 + 2 k3 + k4), rounded term by term in that order.
    """
    acc = np.array(k1)
    stage = np.empty_like(acc)
    k = k1
    for _ in range(2):
        np.multiply(0.5 * h, k, out=stage)
        stage += y
        k = f(stage, 1)
        np.multiply(2.0, k, out=stage)
        acc += stage
    np.multiply(h, k, out=stage)
    stage += y
    acc += f(stage, 2)
    acc *= h / 6.0
    acc += y
    return acc
