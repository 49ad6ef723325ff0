"""Melnikov integrals along the straight-line and parabola connections.

For the degree-2 monodromic family the two connections admit an x-domain
reduction: with y eliminated along the connection, both the divergence
weight and the perturbation term become rational in x, and partial
fractions give the integrand on (0, 1) as x(1-x) q(x) prod |x - r_i|^-res_i.
It goes like x^(1 - res_0) at 0 and (1-x)^(1 - res_1) at 1, so it is
integrable iff both exponents exceed -1: that, and simple roots, are decided
before the tanh-sinh rule of Takahasi & Mori (1974) computes the integral.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError

# tanh-sinh: the first step in t, the number of rules (each halves the
# step), and a |t| beyond which every node weight underflows
FIRST_STEP = 0.125
RULES = 4
T_MAX = 6.5


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


def _integrand(num_coeffs, roots, q):
    """``term(x, xc, logw)``: x(1-x) q(x) exp[-integral_{1/2}^{x} num/den]
    times e^logw at x = 1 - xc, summed in logs, for num with ``num_coeffs``
    (highest first) and den = lead * prod(x - r), ``roots[:2] == [0, 1]``;
    QuadratureError unless its integral over (0, 1) exists."""
    if any(0.0 < r < 1.0 for r in roots[2:]):
        raise QuadratureError(
            f"interior zero of dx/dt at x={roots[2]:.4g}; connection broken")
    if len(set(roots)) < len(roots):
        raise QuadratureError(f"coincident roots {roots}: no finite residue")
    num = np.poly1d(num_coeffs)
    res = [float(num(r)) / math.prod(r - s for s in roots if s != r)
           for r in roots]
    shift = sum(c * math.log(abs(0.5 - r)) for r, c in zip(roots, res))
    ends = (1 - res[0], 1 - res[1])
    if min(ends) <= -1:
        raise QuadratureError(
            f"divergent integral: the integrand goes like x^{ends[0]:.4g} at "
            f"x=0 and (1-x)^{ends[1]:.4g} at x=1")

    def term(x, xc, logw):
        log = logw + shift + ends[0] * np.log(x) + ends[1] * np.log(xc)
        for r, c in zip(roots[2:], res[2:]):
            log -= c * np.log(np.abs(x - r))
        return np.polyval(q, x) * np.exp(log)

    return term


def _tanh_sinh(term, tolerance):
    """(I, |I_h - I_2h|) for the integral of ``term`` over (0, 1), halving h
    from FIRST_STEP until two rules agree within ``tolerance``.  Nodes are
    x = 1/(1 + e^-2u), u = (pi/2) sinh t, with 1 - x from the same formula."""
    total = math.nan
    for i in range(RULES):
        h = FIRST_STEP / 2 ** i
        t = np.arange(-T_MAX, T_MAX + h / 2, h)
        u = np.pi / 2 * np.sinh(t)
        s = np.exp(-2 * np.abs(u))
        near, far = s / (1 + s), 1 / (1 + s)     # distances to the two ends
        w = h * np.pi * np.cosh(t) * near * far  # h dx/dt, 0 if underflowed
        keep = w > 0
        x, xc = np.where(u < 0, near, far), np.where(u < 0, far, near)
        rule = float(np.sum(term(x[keep], xc[keep], np.log(w[keep]))))
        err, total = abs(rule - total), rule
        if err <= tolerance:
            break
    return total, err


def _pieces(parabola, a, b, c):
    """``_integrand``'s (num_coeffs, roots, q) for either connection."""
    if (c if parabola else a) == 0:
        raise QuadratureError("zero leading coefficient of f on the path")
    if parabola:
        # on y = x(1-x): f = (a+b)x + (c-a-b)x^2 - c x^3 with roots 0, 1 and
        # -(a+b)/c; divergence (2a+b) + (4c-4a-2b)x - 5c x^2; perturbation
        # term x(1-x)(2x-1), negated as time runs from x=1 to x=0: q = 1 - 2x
        div = [-5 * c, 4 * c - 4 * a - 2 * b, 2 * a + b]
        return [x / -c for x in div], [0.0, 1.0, -(a + b) / c], [-2.0, 1.0]
    # f on y = 0: a x (1 - x) = -a (x)(x-1); divergence: (a - 2ax) +
    # ((a+b) - (2a+2b+c)x) = (2a+b) - (4a+2b+c)x; perturbation term
    # -x(1-x): q = -1
    div = [-(4 * a + 2 * b + c), 2 * a + b]
    return [x / -a for x in div], [0.0, 1.0], [-1.0]


def melnikov_integral(problem):
    """Melnikov integral of the requested connection at the critical
    parameter value.  Parabola: the perturbation multiplies y in dx/dt; the
    connection runs from (1,0) to (0,0), so the time integral maps to
    ``-∫_0^1``.  X-axis: the perturbation multiplies (y - x(1-x)) in dy/dt;
    the connection runs from (0,0) to (1,0) and the integrand is negative,
    certifying the sign."""
    parabola = problem.connection is Connection.PARABOLA
    with np.errstate(over="ignore", invalid="ignore"):  # inf/nan fail below
        term = _integrand(*_pieces(parabola, problem.a, problem.b, problem.c))
        value, err = _tanh_sinh(term, problem.tolerance)
    if not math.isfinite(value) or err > 1e-6:
        raise QuadratureError(f"quadrature error estimate {err:.2e}")
    note = ("section coordinate oriented toward the contour interior; time "
            "runs from " + ("M=(1,0) to L=(0,0)" if parabola
                            else "L=(0,0) to M=(1,0)"))
    return MelnikovResult(value, err, not parabola and value < 0, note)
