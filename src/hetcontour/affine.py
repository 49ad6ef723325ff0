"""Exact affine expressions and the bivariate polynomials built from them.

This is the package's one exact-algebra module.  Coefficients of the
polynomial vector fields are affine combinations of parameters with rational
constants, e.g. ``"a + 2*b"``, ``"-(2*a+2*b+c)"``, ``"3/2"``.  They are
stored exactly (``fractions.Fraction``) so that invariance checks can be
carried out without floating point.  A polynomial is a dict
``{(px, py): coefficient}`` whose coefficients are Fractions or
:class:`AffineExpr`; the ``poly_*`` functions take either.  One expression
walker, :func:`parse_poly`, reads coefficients, polynomials and numbers,
and :func:`parse_number` is the one reader of constants, for the command
line and for system files alike.
Evaluation adds the parameter terms in sorted name order, so a float sum
does not depend on the order the terms were written in.
"""
from __future__ import annotations

import ast
from fractions import Fraction

from .errors import ParseError

_CONST = ""  # key of the constant term
MAX_POWER = 64  # largest exponent the walker expands


class AffineExpr:
    """An affine form  c0 + sum_i c_i * p_i  with Fraction coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def constant(cls, value):
        return cls({_CONST: Fraction(value)})

    @classmethod
    def param(cls, name, coeff=1):
        return cls({name: Fraction(coeff)})

    def __add__(self, other):
        if not isinstance(other, AffineExpr):
            other = AffineExpr.constant(other)
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, 0) + v
        return AffineExpr(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return self * -1

    def __mul__(self, other):
        """Scale by a number or by a constant AffineExpr, from either side."""
        if isinstance(other, AffineExpr):
            if self.is_constant:
                self, other = other, self
            if not other.is_constant:
                raise ParseError(f"non-affine product {self} * {other}")
            other = other.const
        scalar = Fraction(other)
        return AffineExpr({k: v * scalar for k, v in self.terms.items()})

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, AffineExpr) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    @property
    def is_constant(self):
        return all(k == _CONST for k in self.terms)

    @property
    def const(self):
        return self.terms.get(_CONST, Fraction(0))

    def param_names(self):
        """The parameter names, sorted: the order every sum adds them in."""
        return sorted(k for k in self.terms if k != _CONST)

    def evaluate(self, params):
        """Evaluate with a mapping of parameter values (float or Fraction).

        All-Fraction values give the exact value; otherwise the float sum is
        taken term by term in :meth:`param_names` order.
        """
        names = self.param_names()
        if all(isinstance(params.get(k), Fraction) for k in names):
            return self.const + sum(self.terms[k] * params[k] for k in names)
        acc = float(self.const)
        for k in names:
            acc += float(self.terms[k]) * float(params[k])
        return acc

    def __repr__(self):
        return f"AffineExpr({self.to_string()!r})"

    def to_string(self):
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms, key=lambda k: (k != _CONST, k)):
            c = self.terms[key]
            if key == _CONST:
                parts.append(str(c))
            elif c == 1:
                parts.append(key)
            elif c == -1:
                parts.append(f"-{key}")
            else:
                parts.append(f"{c}*{key}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


# -- exact bivariate polynomials ------------------------------------------


def _clean(p):
    return {m: c for m, c in p.items() if c}


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, 0) + c
    return _clean(out)


def poly_scale(p, s):
    return _clean({m: c * s for m, c in p.items()})


def poly_mul(p, q):
    out = {}
    for (ax, ay), ac in p.items():
        for (bx, by), bc in q.items():
            m = (ax + bx, ay + by)
            out[m] = out.get(m, 0) + ac * bc
    return _clean(out)


def poly_dx(p):
    return _clean({(mx - 1, my): c * mx for (mx, my), c in p.items() if mx > 0})


def poly_dy(p):
    return _clean({(mx, my - 1): c * my for (mx, my), c in p.items() if my > 0})


# -- the expression walker ------------------------------------------------


def parse_poly(text, variables=(), path=None):
    """Parse ``text`` into ``{(px, py): AffineExpr}``.

    ``variables`` names the polynomial variables, ``()`` or ``("x", "y")``;
    every other name is a parameter.  Only ``+ - * /`` and ``**`` by an
    integer literal in 0..MAX_POWER are allowed, over finite numeric literals.
    A product of two parameters, division by anything but a nonzero
    constant, and any other syntax are :class:`ParseError`.
    """
    def fail(what):
        raise ParseError(f"{what} in {text!r}", path)

    def product(left, right):
        if not (all(c.is_constant for c in left.values())
                or all(c.is_constant for c in right.values())):
            fail("non-affine product")
        return poly_mul(left, right)

    def ev(node):
        if isinstance(node, ast.Constant):
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                fail("non-numeric literal")
            # decimal literals are exact; inf (1e400) raises ValueError
            return _clean({(0, 0): AffineExpr.constant(Fraction(str(value)))})
        if isinstance(node, ast.Name):
            if node.id in variables:
                return {(1, 0) if node.id == variables[0] else (0, 1):
                        AffineExpr.constant(1)}
            return {(0, 0): AffineExpr.param(node.id)}
        if isinstance(node, ast.UnaryOp) and isinstance(
                node.op, (ast.USub, ast.UAdd)):
            inner = ev(node.operand)
            return poly_scale(inner, -1) if isinstance(node.op, ast.USub) \
                else inner
        if not isinstance(node, ast.BinOp):
            fail("unsupported syntax")
        left, right = ev(node.left), ev(node.right)
        if isinstance(node.op, ast.Add):
            return poly_add(left, right)
        if isinstance(node.op, ast.Sub):
            return poly_add(left, poly_scale(right, -1))
        if isinstance(node.op, ast.Mult):
            return product(left, right)
        if isinstance(node.op, ast.Div):
            denom = right.get((0, 0), AffineExpr())
            if set(right) - {(0, 0)} or not denom.is_constant:
                fail("division by a non-constant")
            if not denom:
                fail("division by zero")
            return poly_scale(left, 1 / denom.const)
        if isinstance(node.op, ast.Pow):
            n = node.right
            if not (isinstance(n, ast.Constant) and type(n.value) is int
                    and 0 <= n.value <= MAX_POWER):
                fail(f"power that is not an integer literal in 0..{MAX_POWER}")
            out = {(0, 0): AffineExpr.constant(1)}
            for _ in range(n.value):
                out = product(out, left)
            return out
        fail("unsupported operator")

    try:
        return ev(ast.parse(text, mode="eval").body)
    except (SyntaxError, ValueError, RecursionError) as exc:
        raise ParseError(f"invalid expression {text!r}: "
                         f"{getattr(exc, 'msg', exc)}", path)


def parse_affine(text, path=None):
    """Parse an affine-expression string into an :class:`AffineExpr`.

    The weights are evaluated in floats, so one that overflows a float is a
    :class:`ParseError` naming ``path`` here, not an ``OverflowError`` later.
    """
    expr = parse_poly(text, path=path).get((0, 0), AffineExpr())
    try:
        for weight in expr.terms.values():
            float(weight)
    except OverflowError:
        raise ParseError(f"{text!r} overflows a float", path)
    return expr


def parse_number(text, path=None):
    """The exact value of a constant expression such as ``3/2`` or ``2**3``."""
    value = parse_affine(text, path)
    if not value.is_constant:
        raise ParseError(f"{text!r} is not a number", path)
    return value.const
