"""Airy similarity layers at the shelf edges.

Each edge of the shelf (at ParameterTrajectory.edges) moves at the
instantaneous long-wave speed +-u_inf and carries a transition layer obeying
2 V w_{zeta x} = (1/4) w_{xxxx}.  In the similarity variable
xi = a x / zeta^(1/3) with a = -2 (V/3)^(1/3) (real signed cube root) the
magnitude step is an Airy integral and the phase is its second
antiderivative.  The orientation (outer side -> 0, shelf side -> plateau)
comes out of the sign of a automatically: dispersive ripples run ahead of
the edge, on the outer side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .airy import airy_ai_double_integral, airy_ai_integral

LEFT = "left"
RIGHT = "right"


@dataclass(frozen=True)
class LayerProfile:
    """One moving transition layer.

    ``amplitude`` is the shelf-side value the layer matches: q1 of the
    adjacent plateau for magnitude layers, phi1t for phase layers.  ``x`` in
    the evaluators is measured from the instantaneous edge position
    (comoving T - S_side, equivalently lab t - V*zeta), positive toward +t.
    """

    V: float
    amplitude: float
    a: float

    @classmethod
    def at_edge(cls, side: str, u_inf: float, amplitude: float) -> "LayerProfile":
        if side not in (LEFT, RIGHT):
            raise ValueError("side must be 'left' or 'right'")
        if u_inf <= 0:
            raise ValueError("u_inf must be positive")
        V = u_inf if side == RIGHT else -u_inf
        a = -2.0 * math.copysign(abs(V / 3.0) ** (1.0 / 3.0), V)
        return cls(V=V, amplitude=amplitude, a=a)


def similarity_variable(layer: LayerProfile, zeta: float, x) -> np.ndarray:
    if zeta <= 0:
        raise ValueError("zeta must be positive")
    return layer.a * np.asarray(x, dtype=float) / zeta ** (1.0 / 3.0)


def shelf_magnitude_profile(layer: LayerProfile, zeta: float, x):
    """Layer magnitude correction w(zeta, x) = q1_side * AiI(a x / zeta^(1/3)).

    w tends to the plateau value on the shelf side and to 0 on the outer
    side; the first-order field magnitude near the edge is u_inf + eps*w.
    """
    return layer.amplitude * airy_ai_integral(similarity_variable(layer, zeta, x))


def shelf_phase_profile(layer: LayerProfile, zeta: float, x):
    """Layer phase correction theta(zeta, x).

    The double Airy integral, scaled so the slope d theta/dx tends to the
    plateau value phi1t_side on the shelf side while theta -> 0 outside.
    """
    xi = similarity_variable(layer, zeta, x)
    scale = zeta ** (1.0 / 3.0) / layer.a
    return layer.amplitude * scale * airy_ai_double_integral(xi)

