"""Melnikov integrals along the straight-line and parabola connections.

For the degree-2 monodromic family the two connections admit an x-domain
reduction: with y eliminated along the connection, both the divergence
weight and the perturbation term become rational in x, so the weight
exponential integrates in closed form via partial fractions and only the
final integral over (0, 1) is done by adaptive quadrature.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError


class Connection(enum.Enum):
    X_AXIS = "x_axis"       # splits under the parameter multiplying (y - x(1-x))
    PARABOLA = "parabola"   # splits under the parameter multiplying y


@dataclass(frozen=True)
class MelnikovProblem:
    a: float = 1.0
    b: float = -3.0
    c: float = 1.5
    connection: Connection = Connection.PARABOLA
    tolerance: float = 1e-9


@dataclass(frozen=True)
class MelnikovResult:
    value: float
    error_estimate: float
    sign_certified_negative: bool
    orientation_note: str


def _rational_weight(num_coeffs, roots, ref=0.5):
    """exp[-integral_{ref}^{x} num/den] for den with simple roots.

    ``num_coeffs`` are highest-first polynomial coefficients of the
    numerator; ``den = lead * prod (x - r_i)``.  Partial fractions give the
    antiderivative as a sum of residue-weighted logarithms.
    """
    num = np.poly1d(num_coeffs)
    residues = []
    for i, r in enumerate(roots):
        dprime = np.prod([r - s for j, s in enumerate(roots) if j != i])
        residues.append(num(r) / dprime)

    def weight(x):
        s = 0.0
        for r, c in zip(roots, residues):
            s += c * (math.log(abs(x - r)) - math.log(abs(ref - r)))
        return math.exp(-s)

    return weight, residues


def _parabola_pieces(a, b, c):
    # f restricted to y = x(1-x):  f = (a+b)x + (c-a-b)x^2 - c x^3
    # divergence restricted:       (2a+b) + (4c-4a-2b)x - 5c x^2
    lead = -c
    # roots of f/x: always x=1 and x = -(a+b)/c
    r3 = -(a + b) / c
    roots = [0.0, 1.0, r3]
    div = [-5 * c, 4 * c - 4 * a - 2 * b, 2 * a + b]
    num = [x / lead for x in div]   # num / prod(x - r_i)
    return num, roots


def _axis_pieces(a, b, c):
    # f on y = 0: a x (1 - x) = -a (x)(x-1); divergence: (2a+b) - (3a+2b+c)x
    lead = -a
    roots = [0.0, 1.0]
    div = [-(3 * a + 2 * b + c), 2 * a + b]
    num = [x / lead for x in div]
    return num, roots


def melnikov_integral(problem):
    """Melnikov integral of the requested connection at the critical
    parameter value.

    Parabola: the perturbation multiplies y in dx/dt; the connection runs
    from (1,0) to (0,0), so the time integral maps to ``-∫_0^1``.
    X-axis: the perturbation multiplies (y - x(1-x)) in dy/dt; the
    connection runs from (0,0) to (1,0) and the integrand is negative
    throughout, certifying a negative integral.
    """
    # imported on use: the rest of the package runs without SciPy
    from scipy.integrate import quad

    a, b, c = problem.a, problem.b, problem.c
    if problem.connection is Connection.PARABOLA:
        num, roots = _parabola_pieces(a, b, c)
        if any(0.0 < r < 1.0 for r in roots[2:]):
            raise QuadratureError(
                f"interior zero of dx/dt at x={roots[2]:.4g}; connection broken")
        weight, _ = _rational_weight(num, roots)
        integrand = lambda x: weight(x) * x * (-2 * x * x + 3 * x - 1)
        sign_factor = -1.0
        note = ("section coordinate oriented toward the contour interior; "
                "time runs from M=(1,0) to L=(0,0)")
    else:
        num, roots = _axis_pieces(a, b, c)
        weight, _ = _rational_weight(num, roots)
        integrand = lambda x: weight(x) * (-x * (1 - x))
        sign_factor = 1.0
        note = ("section coordinate oriented toward the contour interior; "
                "time runs from L=(0,0) to M=(1,0)")

    val, err = quad(integrand, 0.0, 1.0, epsabs=problem.tolerance,
                    epsrel=problem.tolerance, limit=200, points=[0.5])
    if not math.isfinite(val) or err > 1e-6:
        raise QuadratureError(f"quadrature error estimate {err:.2e}")
    value = sign_factor * val

    certified = False
    if problem.connection is Connection.X_AXIS:
        # weight > 0 and -x(1-x) < 0 on (0,1): integrand strictly negative
        certified = value < 0
    return MelnikovResult(float(value), float(err), certified, note)


def splitting_derivative_check(gap_fn, h=1e-4):
    """Central finite difference of a gap function at parameter 0."""
    return (gap_fn(h) - gap_fn(-h)) / (2 * h)
