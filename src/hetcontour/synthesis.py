"""Synthesis of polynomial vector fields tangent to a plane algebraic curve.

Given a squarefree polynomial G and a degree budget, every field (f, g)
with  <grad G, (f, g)>  divisible by G leaves {G = 0} invariant.  The
divisibility condition is linear in the ansatz coefficients: we divide the
tangency polynomial by G (graded reverse lexicographic leading term) and
require the remainder to vanish identically.  The polynomials and their
arithmetic are ``affine``'s: the tangency polynomial's coefficients are
AffineExprs over the ansatz coefficients, so each remainder coefficient is
one row of the linear system.  All arithmetic is exact rational; floating
point never enters this module.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .affine import (AffineExpr, parse_poly, poly_add, poly_dx, poly_dy,
                     poly_mul)
from .errors import BadPerturbation, EmptyFamily, ParseError
from .vectorfield import MAX_DEGREE, ParametricSystem


# -- exact bivariate polynomials ------------------------------------------


def poly_from_string(text):
    """Parse e.g. ``"y*(y - x*(1-x))"`` into ``{(px, py): Fraction}``."""
    poly = parse_poly(text, ("x", "y"))
    unknown = sorted({n for c in poly.values() for n in c.param_names()})
    if unknown:
        raise ParseError(f"unknown variable(s) {unknown} in {text!r}")
    return {m: c.const for m, c in poly.items()}


def _grevlex_key(mono):
    mx, my = mono
    return (mx + my, -my)


def leading_monomial(p):
    return max(p, key=_grevlex_key)


def poly_divmod_single(p, g):
    """Remainder of p upon division by the single polynomial g, grevlex
    leading term.  Works for AffineExpr coefficients as well."""
    lt = leading_monomial(g)
    scale = Fraction(-1) / g[lt]
    rem = dict(p)
    while divisible := [m for m in rem if m[0] >= lt[0] and m[1] >= lt[1]]:
        m = max(divisible, key=_grevlex_key)
        quotient = {(m[0] - lt[0], m[1] - lt[1]): rem[m] * scale}
        rem = poly_add(rem, poly_mul(quotient, g))
    return rem


# -- tangency linear system ------------------------------------------------


@dataclass(frozen=True)
class Variety:
    """Zero set of a single bivariate polynomial with rational coefficients."""

    G: dict

    def __post_init__(self):
        if not self.G:
            raise ParseError("variety polynomial is identically zero")

    @classmethod
    def from_string(cls, text):
        return cls(poly_from_string(text))


def ansatz_symbols(degree):
    """Coefficient names a_jk, b_jk for all monomials of degree 1..degree."""
    monos = [(i, j) for d in range(1, degree + 1)
             for i in range(d + 1) for j in (d - i,)]
    return [f"a{i}{j}" for i, j in monos], [f"b{i}{j}" for i, j in monos], monos


def tangency_system(variety, degree):
    """Linear system  (rows over ansatz coefficients) = 0  expressing that
    the tangency polynomial has zero remainder modulo G.

    Returns (symbols, rows) where each row is a dict symbol -> Fraction,
    the ``terms`` of one remainder coefficient.
    """
    if degree < 1:
        raise ParseError("degree must be at least 1")
    if degree > MAX_DEGREE:
        raise ParseError(f"degree above cap {MAX_DEGREE}")
    a_syms, b_syms, monos = ansatz_symbols(degree)
    f = {m: AffineExpr.param(s) for m, s in zip(monos, a_syms)}
    g = {m: AffineExpr.param(s) for m, s in zip(monos, b_syms)}
    tangency = poly_add(poly_mul(poly_dx(variety.G), f),
                        poly_mul(poly_dy(variety.G), g))
    rem = poly_divmod_single(tangency, variety.G)
    return a_syms + b_syms, [c.terms for c in rem.values()]


def rational_nullspace(symbols, rows, prefer_free=()):
    """Exact nullspace basis of the homogeneous system; vectors as dicts.

    Symbols in ``prefer_free`` are moved to the last columns so they become
    the free parameters of the solution when the system allows it.
    """
    symbols = ([s for s in symbols if s not in prefer_free]
               + [s for s in prefer_free if s in symbols])
    n = len(symbols)
    mat = [[row.get(s, Fraction(0)) for s in symbols] for row in rows]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = Fraction(1) / mat[r][c]
        mat[r] = [v * inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                fac = mat[i][c]
                mat[i] = [vi - fac * vr for vi, vr in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for ri, pc in enumerate(pivots):
            vec[pc] = -mat[ri][fc]
        basis.append({symbols[i]: v for i, v in enumerate(vec) if v != 0})
    return basis, [symbols[c] for c in free]


@dataclass(frozen=True)
class TangentFamily:
    variety: Variety
    degree: int
    free_parameters: tuple        # names given to the nullspace directions
    basis: tuple                  # nullspace vectors, dicts symbol -> Fraction
    field: ParametricSystem       # coefficients affine in the free parameters


def solve_family(variety, degree, parameter_names=None, free_symbols=()):
    """All degree-``degree`` polynomial fields leaving the variety invariant.

    ``free_symbols`` requests which ansatz coefficients should serve as the
    free parameters; for the parabola-union-line variety at degree 2,
    free_symbols=("a10", "a01", "a11") with names ("a", "b", "c") yields
    the familiar three-parameter quadratic family verbatim.
    """
    symbols, rows = tangency_system(variety, degree)
    basis, free = rational_nullspace(symbols, rows, prefer_free=free_symbols)
    if not basis:
        raise EmptyFamily("only the zero field is tangent to the variety")
    missing = [s for s in free_symbols if s not in free]
    if missing:
        raise ParseError(f"requested free symbols {missing} are constrained")
    if parameter_names is None:
        parameter_names = [f"p_{s}" for s in free]
    if len(parameter_names) != len(basis):
        raise ParseError(
            f"{len(basis)} free parameters, got {len(parameter_names)} names")

    def coefficient(symbol):
        return sum(AffineExpr.param(pname, vec.get(symbol, 0))
                   for pname, vec in zip(parameter_names, basis))

    a_syms, b_syms, monos = ansatz_symbols(degree)
    x_dot, y_dot = ({m: c for m, s in zip(monos, syms) if (c := coefficient(s))}
                    for syms in (a_syms, b_syms))
    field = ParametricSystem(
        f"tangent_family_deg{degree}",
        [(p, 0) for p in parameter_names], x_dot, y_dot)
    return TangentFamily(variety, degree, tuple(parameter_names),
                         tuple(basis), field)


def tangency_residual(variety, system, params):
    """Remainder of <grad G, (f,g)> mod G for a concrete member; exact."""
    f, g = ({m: Fraction(c.evaluate(params)) for m, c in poly.items()}
            for poly in (system.x_dot, system.y_dot))
    tang = poly_add(poly_mul(poly_dx(variety.G), f),
                    poly_mul(poly_dy(variety.G), g))
    return poly_divmod_single(tang, variety.G)


@dataclass(frozen=True)
class Perturbation:
    parameter: str
    equation: str                 # "x" or "y"
    poly: dict                    # perturbing polynomial
    vanishes_on: dict             # component of G it must be divisible by


def perturb_connections(field, assignments, perturbations, name=None):
    """Fix the family parameters and add connection-breaking terms.

    Each perturbation contributes ``parameter * poly`` to one equation and
    must vanish on its claimed component of the variety (exact divisibility
    check); otherwise BadPerturbation is raised.
    """
    for pert in perturbations:
        rem = poly_divmod_single(pert.poly, pert.vanishes_on)
        if rem:
            raise BadPerturbation(
                f"{pert.parameter!r} term does not vanish on its component")
        if pert.equation not in ("x", "y"):
            raise ParseError(f"equation must be 'x' or 'y', got {pert.equation!r}")

    fixed = {k: Fraction(v) for k, v in assignments.items()}
    rows = {eq: {m: AffineExpr.constant(v) for m, c in poly.items()
                 if (v := c.evaluate(fixed))}
            for eq, poly in (("x", field.x_dot), ("y", field.y_dot))}
    for pert in perturbations:
        rows[pert.equation] = poly_add(rows[pert.equation], {
            m: AffineExpr.param(pert.parameter, c)
            for m, c in sorted(pert.poly.items())})
    names = dict.fromkeys(pert.parameter for pert in perturbations)
    return ParametricSystem(name or field.name + "_perturbed",
                            [(n, 0) for n in names], rows["x"], rows["y"])
