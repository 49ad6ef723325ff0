"""Limit cycles as fixed points of a section return map.

The return map P is evaluated by event-located integration; cycles are
zeros of P(x) - x on a section coordinate bracket, and their multiplier is
the central-difference derivative of P.  A multiplier within
``MULTIPLIER_TOL`` of 1 marks a semi-stable cycle.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import integrate as hi
from .errors import HetContourError, NoCycleInBracket
from .roots import brent

MULTIPLIER_TOL = 1e-4
MULTIPLIER_STEP = 1e-6


class Stability(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    SEMI_STABLE = "semi_stable"


@dataclass(frozen=True)
class LimitCycle:
    section: hi.CrossSection
    fixed_point: float
    period: float
    multiplier: float
    stability: Stability


def return_map(sys, params, section, coord, max_time=500.0,
               tol=hi.DEFAULT_TOL, direction=None):
    """P(coord): section coordinate of the first return."""
    x0 = section.point_at(coord)
    c, _ = hi.poincare_map(sys, params, section, x0, max_time,
                           tol=tol, direction=direction)
    return c


def find_cycle(sys, params, section, bracket, max_time=500.0,
               tol=hi.DEFAULT_TOL, direction=None, xtol=1e-12,
               multiplier_tol=MULTIPLIER_TOL):
    """Cycle through the section with coordinate in ``bracket``.

    Requires a sign change of P(x) - x on the bracket; the root is located
    by Brent's method to within ``xtol``.
    """
    g = lambda x: return_map(sys, params, section, x, max_time, tol,
                             direction) - x
    a, b = float(bracket[0]), float(bracket[1])
    try:
        ga, gb = g(a), g(b)
    except HetContourError as exc:
        raise NoCycleInBracket(f"return map undefined on bracket: {exc}")
    if ga * gb > 0:
        raise NoCycleInBracket(
            f"displacement has the same sign at both ends "
            f"({ga:+.3e}, {gb:+.3e})")
    x_star, _ = brent(g, a, b, ga, gb, xtol)
    _, period = hi.poincare_map(sys, params, section,
                                section.point_at(x_star), max_time,
                                tol=tol, direction=direction)
    m = multiplier(sys, params, section, x_star, max_time, tol, direction)
    if m < 1 - multiplier_tol:
        stab = Stability.STABLE
    elif m > 1 + multiplier_tol:
        stab = Stability.UNSTABLE
    else:
        stab = Stability.SEMI_STABLE
    return LimitCycle(section, float(x_star), float(period), float(m), stab)


def multiplier(sys, params, section, x_star, max_time=500.0,
               tol=hi.DEFAULT_TOL, direction=None, h=MULTIPLIER_STEP):
    """Central-difference derivative of the return map at ``x_star``."""
    p_plus = return_map(sys, params, section, x_star + h, max_time, tol,
                        direction)
    p_minus = return_map(sys, params, section, x_star - h, max_time, tol,
                         direction)
    return (p_plus - p_minus) / (2 * h)


def fixed_points(sys, params, section, bracket, samples=40, max_time=500.0,
                 tol=hi.DEFAULT_TOL, direction=None):
    """All return-map fixed points found by scanning ``bracket``."""
    xs = np.linspace(bracket[0], bracket[1], samples)
    vals = []
    for x in xs:
        try:
            vals.append(return_map(sys, params, section, x, max_time, tol,
                                   direction) - x)
        except HetContourError:
            vals.append(math.nan)
    roots = []
    for x0, x1, g0, g1 in zip(xs[:-1], xs[1:], vals[:-1], vals[1:]):
        if math.isnan(g0) or math.isnan(g1) or g0 * g1 > 0:
            continue
        cyc = find_cycle(sys, params, section, (x0, x1), max_time, tol,
                         direction)
        roots.append(cyc)
    return roots
