"""Limit cycles as fixed points of a section return map.

The return map P is evaluated by event-located integration; cycles are
zeros of P(x) - x on a section coordinate bracket, and their multiplier is
the central-difference derivative of P.  A multiplier within
``MULTIPLIER_TOL`` of 1 marks a semi-stable cycle.  The return is counted
in the direction in which the flow leaves the section.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import integrate as hi
from .errors import BracketError, HetContourError, NoCycleInBracket
from .roots import brent, grid_roots, sample

MULTIPLIER_TOL = 1e-4
MULTIPLIER_STEP = 1e-6
XTOL = 1e-12


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
               tol=hi.DEFAULT_TOL):
    """P(coord): section coordinate of the first return."""
    x0 = section.point_at(coord)
    c, _ = hi.poincare_map(sys, params, section, x0, max_time, tol=tol)
    return c


def _displacement(sys, params, section, max_time, tol):
    """x -> P(x) - x, and the dict it fills with the return time of x."""
    periods = {}

    def g(x):
        c, periods[x] = hi.poincare_map(sys, params, section,
                                        section.point_at(x), max_time, tol=tol)
        return c - x
    return g, periods


def find_cycle(sys, params, section, bracket, max_time=500.0,
               tol=hi.DEFAULT_TOL):
    """Cycle through the section with coordinate in ``bracket``.

    Requires a sign change of P(x) - x on the bracket; the root is located
    by Brent's method to within ``XTOL``.
    """
    g, periods = _displacement(sys, params, section, max_time, tol)
    a, b = float(bracket[0]), float(bracket[1])
    try:
        ga, gb = g(a), g(b)
    except HetContourError as exc:
        raise NoCycleInBracket(f"return map undefined on bracket: {exc}")
    try:
        x_star, _ = brent(g, a, b, ga, gb, XTOL)
    except BracketError as exc:
        raise NoCycleInBracket(f"displacement: {exc}")
    return _cycle_at(sys, params, section, x_star, periods[x_star], max_time,
                     tol)


def _cycle_at(sys, params, section, x_star, period, max_time, tol):
    """The cycle through the fixed point ``x_star`` of return time
    ``period``: its multiplier and stability."""
    m = multiplier(sys, params, section, x_star, max_time, tol)
    if m < 1 - MULTIPLIER_TOL:
        stab = Stability.STABLE
    elif m > 1 + MULTIPLIER_TOL:
        stab = Stability.UNSTABLE
    else:
        stab = Stability.SEMI_STABLE
    return LimitCycle(section, float(x_star), float(period), float(m), stab)


def multiplier(sys, params, section, x_star, max_time=500.0,
               tol=hi.DEFAULT_TOL):
    """Central-difference derivative of the return map at ``x_star``."""
    h = MULTIPLIER_STEP
    p_plus = return_map(sys, params, section, x_star + h, max_time, tol)
    p_minus = return_map(sys, params, section, x_star - h, max_time, tol)
    return (p_plus - p_minus) / (2 * h)


def fixed_points(sys, params, section, bracket, samples=40, max_time=500.0,
                 tol=hi.DEFAULT_TOL):
    """All return-map fixed points found by scanning ``bracket``.

    P(x) - x is sampled at ``samples`` even steps.  A zero sample is one
    cycle, a cell of strictly opposite end signs holds one (solved from the
    held end values), and a sample with no return (its orbit escapes, a
    sink captures it, or ``max_time`` runs out) brackets nothing.
    """
    g, periods = _displacement(sys, params, section, max_time, tol)
    xs = np.linspace(bracket[0], bracket[1], samples)
    return [_cycle_at(sys, params, section, x, periods[x], max_time, tol)
            for x, _ in grid_roots(g, xs, sample(g, xs), XTOL)]
