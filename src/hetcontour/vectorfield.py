"""Parametric planar vector fields and the built-in example systems.

A :class:`ParametricSystem` is a planar field ``(dx/dt, dy/dt) = (f, g)``
whose right-hand side is a pair of ``affine`` polynomials
``{(px, py): AffineExpr}``, coefficients affine in named parameters.
Coefficients are stored as exact rationals; evaluation is done in 64-bit
floats unless Fractions are passed in.
"""
from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from types import MappingProxyType

import numpy as np

from .affine import (parse_affine, parse_number, parse_poly, poly_dx,
                     poly_dy, poly_scale)
from .errors import ConfigError, DomainError, NotFound, ParseError

MAX_DEGREE = 6


class ParametricSystem:
    """Immutable planar vector field with named parameters."""

    def __init__(self, name, parameters, x_dot, y_dot):
        self.name = name
        self.parameters = tuple((n, Fraction(d)) for n, d in parameters)
        # read-only copies: the compiled fields below are built from them
        self.x_dot = MappingProxyType(dict(x_dot))
        self.y_dot = MappingProxyType(dict(y_dot))
        self._declared = frozenset(n for n, _ in self.parameters)
        for key, poly in (("x_dot", self.x_dot), ("y_dot", self.y_dot)):
            for (px, py), coeff in poly.items():
                if px < 0 or py < 0:
                    raise ParseError(
                        f"negative exponent in term ({px},{py})", key)
                if px + py > MAX_DEGREE:
                    raise ParseError(
                        f"term ({px},{py}) degree exceeds cap {MAX_DEGREE}", key)
                if undeclared := set(coeff.param_names()) - self._declared:
                    raise ParseError(f"coefficient uses undeclared "
                                     f"parameter(s) {sorted(undeclared)}", key)
        # f, g and their partials df/dx, df/dy, dg/dx, dg/dy: one flat
        # coefficient list feeds one closure factory compiled here; the
        # parameter partials of f and g have constant coefficients
        polys = (self.x_dot, self.y_dot, poly_dx(self.x_dot),
                 poly_dy(self.x_dot), poly_dx(self.y_dot), poly_dy(self.y_dot))
        names = [n for n, _ in self.parameters]
        self._coeffs = tuple(_float_affine(c, names)
                             for poly in polys for c in poly.values())
        # rhs_source: the coefficient names and expressions of f and g, for
        # code that evaluates the field inline
        self._field_factory, self.rhs_source = _compile_factory(polys, [
            {m: float(c.terms[n]) for m, c in poly.items() if n in c.terms}
            for n in names for poly in (self.x_dot, self.y_dot)])
        # the last parameter point's closures, keyed by its floats: a
        # branch's run and a gap's saddle solves share one point
        self._last_fields = (None, None)

    # -- parameters -------------------------------------------------------

    def defaults(self):
        return {n: float(d) for n, d in self.parameters}

    def full_params(self, overrides=None, exact=False):
        """Defaults updated with overrides; unknown names are rejected."""
        out = {n: (d if exact else float(d)) for n, d in self.parameters}
        for k, v in (overrides or {}).items():
            if k not in self._declared:
                raise ConfigError(f"unknown parameter {k!r} for system {self.name!r}")
            out[k] = Fraction(v) if exact else float(v)
        return out

    # -- evaluation -------------------------------------------------------

    def rhs(self, x, y, params=None):
        """Evaluate (dx/dt, dy/dt) at a point."""
        check_state(x, y)
        if isinstance(x, Fraction) and isinstance(y, Fraction):
            pe = {k: Fraction(v) for k, v in self._resolve(params).items()}
            return tuple(sum((c.evaluate(pe) * x**px * y**py
                              for (px, py), c in poly.items()), Fraction(0))
                         for poly in (self.x_dot, self.y_dot))
        out = self.compiled_rhs(params)(0.0, (x, y))
        return out[0], out[1]

    def jacobian(self, x, y, params=None):
        return self.fields(params)[1](x, y)

    def _resolve(self, params):
        """Accept None, partial overrides, or a full parameter mapping."""
        if params is None:
            return self.defaults()
        if params.keys() == self._declared:
            return params
        given = set(params)
        if given < self._declared:
            return self.full_params(params)
        missing = self._declared - given
        if missing:
            raise ConfigError(f"missing parameter(s) {sorted(missing)}")
        raise ConfigError(
            f"unknown parameter(s) {sorted(given - self._declared)}")

    def compiled_rhs(self, params):
        """A fast ``f(t, (x, y)) -> [fx, fy]`` closure for the integrator."""
        return self.fields(params)[0]

    def fields(self, params):
        """The (rhs, jacobian, variation) closures at one parameter point,
        built together.

        ``variation(x, y)`` is the array of the divergence of the field and
        the partials (df/dp, dg/dp) of each parameter in declaration order,
        at a point or elementwise on arrays.  Each coefficient is summed as
        ``AffineExpr.evaluate`` sums it in floats, term by term in the same
        order, so the values are the same.  The closures of the last point
        asked for are kept and handed out again.
        """
        return self._at(params)[1]

    def coefficients(self, params):
        """The float coefficients ``c0, c1, ...`` at ``params`` that the
        closures of `fields` are bound to; those of ``rhs_source`` come
        first."""
        return self._at(params)[0]

    def _at(self, params):
        """The coefficients and the closures at ``params``, kept for the
        last point asked for."""
        p = self._resolve(params)
        vals = tuple(float(p[n]) for n, _ in self.parameters)
        key, at = self._last_fields
        if key == vals:
            return at
        coeffs = []
        for acc, weights in self._coeffs:
            for i, w in weights:
                acc += w * vals[i]
            coeffs.append(acc)
        at = (tuple(coeffs), self._field_factory(*coeffs))
        self._last_fields = (vals, at)
        return at

    def finite_difference_jacobian(self, x, y, params=None, h=1e-7):
        f = self.compiled_rhs(params)
        f0 = np.asarray(f(0.0, (x, y)))
        fx = (np.asarray(f(0.0, (x + h, y))) - f0) / h
        fy = (np.asarray(f(0.0, (x, y + h))) - f0) / h
        return np.column_stack([fx, fy])

    # -- transforms -------------------------------------------------------

    def time_reversed(self):
        return ParametricSystem(
            self.name + "_reversed", self.parameters,
            poly_scale(self.x_dot, -1), poly_scale(self.y_dot, -1))

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {
            "name": self.name,
            "parameters": [{"name": n, "default": str(d)}
                           for n, d in self.parameters],
            "x_dot": _term_dicts(self.x_dot),
            "y_dot": _term_dicts(self.y_dot),
        }

    def __eq__(self, other):
        return (isinstance(other, ParametricSystem)
                and self.name == other.name
                and self.parameters == other.parameters
                and self.x_dot == other.x_dot
                and self.y_dot == other.y_dot)

    def __repr__(self):
        return f"ParametricSystem({self.name!r}, params={[n for n, _ in self.parameters]})"


def check_state(x, y):
    """DomainError unless the state ``(x, y)`` is finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"non-finite state ({x}, {y})")


def _term_dicts(poly):
    return [{"coeff": c.to_string(), "px": px, "py": py}
            for (px, py), c in poly.items()]


def _float_affine(expr, names):
    """(constant, ((parameter index, weight), ...)) of ``expr`` in floats,
    the weights in the order ``AffineExpr.evaluate`` adds them."""
    return float(expr.const), tuple((names.index(k), float(expr.terms[k]))
                                    for k in expr.param_names())


def _compile_factory(polys, partials):
    """``factory(*coeffs) -> (rhs, jacobian, variation)`` for the six
    polynomials, each summed in its key order, and the ``partials``, whose
    float coefficients are written into the source; and the source
    ``(names, f, g)`` of the first two, in ``x``, ``y`` and the coefficient
    names ``c0, c1, ...`` they use."""
    args = []

    def arg(_):
        args.append(f"c{len(args)}")
        return args[-1]

    def source(poly, coeff):
        parts = ["*".join([coeff(c)] + ["x"] * px + ["y"] * py)
                 for (px, py), c in poly.items()]
        return " + ".join(parts) if parts else "0.0"

    f, g = source(polys[0], arg), source(polys[1], arg)
    rhs_source = (tuple(args), f, g)
    fx, fy, gx, gy = (source(poly, arg) for poly in polys[2:])
    # every row gets ``z``, so that a constant one takes the shape of x
    rows = ", ".join(f"{r} + z" for r in [f"{fx} + {gy}"] + [
        source(poly, repr) for poly in partials])
    ns = {"np": np}
    exec(f"def _factory({', '.join(args)}):\n"
         " def rhs(t, z):\n"
         "  x = z[0]; y = z[1]\n"
         f"  return [{f}, {g}]\n"
         " def jacobian(x, y):\n"
         f"  return np.array([[{fx}, {fy}], [{gx}, {gy}]])\n"
         " def variation(x, y):\n"
         "  z = 0.0 * x\n"
         f"  return np.array([{rows}])\n"
         " return rhs, jacobian, variation\n", ns)
    return ns["_factory"], rhs_source


# -- the built-in systems ------------------------------------------------

# name -> (parameters with defaults, dx/dt, dy/dt); each equation is written
# in the order its float sum is taken
_BUILTINS = {
    "mono_unperturbed": (
        [("a", 1), ("b", -3), ("c", Fraction(3, 2))],
        "a*x + b*y + c*x*y - a*x**2",
        "(a+b)*y - (2*a+2*b+c)*x*y + 2*c*y**2"),
    "mono_perturbed": (
        [("a", 1), ("b", -3), ("c", Fraction(3, 2)),
         ("alpha", 0), ("epsilon", 0)],
        "a*x + b*y + c*x*y - a*x**2 + epsilon*y",
        "(a+b)*y - (2*a+2*b+c)*x*y + 2*c*y**2"
        " + alpha*y - alpha*x + alpha*x**2"),
    "revers_base": ([], "y", "x + x*y - x**3"),
    "revers_gamma": ([("gamma", Fraction(27, 10))],
                     "y**2 + gamma*y", "x + x*y - x**3"),
    "diss_heart": (
        [("gamma", Fraction(27, 10)), ("alpha", 0), ("epsilon", 0)],
        "epsilon*x + y**2 + gamma*y",
        "alpha*y + x + x*y - x**3"),
}
BUILTIN_NAMES = tuple(_BUILTINS)


@functools.cache
def builtin(name):
    """Return one of the paper-scale example systems by name: one shared,
    read-only instance per name, parsed on the first call."""
    if name not in _BUILTINS:
        raise NotFound(f"unknown built-in system {name!r}")
    params, f, g = _BUILTINS[name]
    return ParametricSystem(name, params, parse_poly(f, ("x", "y")),
                            parse_poly(g, ("x", "y")))


# -- JSON file format -----------------------------------------------------


def load(path_or_file):
    """Load a system from the JSON schema; see README for the grammar."""
    if hasattr(path_or_file, "read"):
        data = json.load(path_or_file)
    else:
        with open(path_or_file) as fh:
            data = json.load(fh)
    return from_dict(data)


def from_dict(data):
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    for key in ("name", "parameters", "x_dot", "y_dot"):
        if key not in data:
            raise ParseError("missing field", key)
        if key != "name" and not isinstance(data[key], list):
            raise ParseError("must be a list", key)
    params = []
    for i, p in enumerate(data["parameters"]):
        loc = f"parameters[{i}]"
        if not isinstance(p, dict) or "name" not in p or "default" not in p:
            raise ParseError("parameter entries need 'name' and 'default'", loc)
        if not isinstance(p["name"], str):
            raise ParseError("parameter name must be a string", f"{loc}.name")
        if any(p["name"] == n for n, _ in params):
            raise ParseError(f"repeated parameter {p['name']!r}", f"{loc}.name")
        params.append((p["name"], parse_number(str(p["default"]), loc)))

    def read_poly(key):
        out = {}
        for i, t in enumerate(data[key]):
            loc = f"{key}[{i}]"
            if not isinstance(t, dict):
                raise ParseError("term must be an object", loc)
            for f_ in ("coeff", "px", "py"):
                if f_ not in t:
                    raise ParseError("missing field", f"{loc}.{f_}")
            px, py = t["px"], t["py"]
            if type(px) is not int or type(py) is not int:  # bool is no int
                raise ParseError("exponents must be integers", loc)
            coeff = parse_affine(str(t["coeff"]), loc)
            # summed, not cleaned: a zero sum stays for the constructor's checks
            out[px, py] = out.get((px, py), 0) + coeff
        return out

    return ParametricSystem(
        data["name"], params, read_poly("x_dot"), read_poly("y_dot"))


def to_json(sys):
    """The text of ``sys`` in the JSON schema, ending in a newline."""
    return json.dumps(sys.to_dict(), indent=2, sort_keys=True) + "\n"


def save(sys, path_or_file):
    text = to_json(sys)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
