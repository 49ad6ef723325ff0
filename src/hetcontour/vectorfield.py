"""Parametric planar vector fields and the built-in example systems.

A :class:`ParametricSystem` is a planar field ``(dx/dt, dy/dt) = (f, g)``
whose right-hand side is a list of monomial terms with coefficients that are
affine in named parameters.  Coefficients are stored as exact rationals;
evaluation is done in 64-bit floats unless Fractions are passed in.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .affine import AffineExpr, parse_affine, parse_number
from .errors import ConfigError, DomainError, NotFound, ParseError

MAX_DEGREE = 6

BUILTIN_NAMES = (
    "mono_unperturbed",
    "mono_perturbed",
    "revers_base",
    "revers_gamma",
    "diss_heart",
)


@dataclass(frozen=True)
class MonomialTerm:
    """coefficient * x**px * y**py, coefficient affine in the parameters."""

    coeff: AffineExpr
    px: int
    py: int

    def __post_init__(self):
        if self.px < 0 or self.py < 0:
            raise ParseError(f"negative exponent in term ({self.px},{self.py})")
        if self.px + self.py > MAX_DEGREE:
            raise ParseError(
                f"term degree {self.px + self.py} exceeds cap {MAX_DEGREE}")


class ParametricSystem:
    """Immutable planar vector field with named parameters."""

    def __init__(self, name, parameters, x_terms, y_terms):
        self.name = name
        self.state_dim = 2
        self.parameters = tuple((n, Fraction(d)) for n, d in parameters)
        self.x_terms = tuple(x_terms)
        self.y_terms = tuple(y_terms)
        self._declared = frozenset(n for n, _ in self.parameters)
        for t in self.x_terms + self.y_terms:
            undeclared = [n for n in t.coeff.param_names()
                          if n not in self._declared]
            if undeclared:
                raise ParseError(
                    f"coefficient uses undeclared parameter(s) {undeclared}")
        # f, g and their partials df/dx, df/dy, dg/dx, dg/dy: one flat
        # coefficient list feeds one closure factory compiled here
        polys = (self.x_terms, self.y_terms, _ddx(self.x_terms),
                 _ddy(self.x_terms), _ddx(self.y_terms), _ddy(self.y_terms))
        names = [n for n, _ in self.parameters]
        self._coeffs = tuple(_float_affine(t.coeff, names)
                             for terms in polys for t in terms)
        self._field_factory = _compile_factory(polys)

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
            fx = sum((t.coeff.evaluate(pe) * x**t.px * y**t.py
                      for t in self.x_terms), Fraction(0))
            fy = sum((t.coeff.evaluate(pe) * x**t.px * y**t.py
                      for t in self.y_terms), Fraction(0))
            return fx, fy
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
        """The (rhs, jacobian) closures at one parameter point, built together.

        Each coefficient is summed as ``AffineExpr.evaluate`` sums it in
        floats, term by term in the same order, so the values are the same.
        """
        p = self._resolve(params)
        vals = [float(p[n]) for n, _ in self.parameters]
        coeffs = []
        for acc, weights in self._coeffs:
            for i, w in weights:
                acc += w * vals[i]
            coeffs.append(acc)
        return self._field_factory(*coeffs)

    def finite_difference_jacobian(self, x, y, params=None, h=1e-7):
        f = self.compiled_rhs(params)
        f0 = np.asarray(f(0.0, (x, y)))
        fx = (np.asarray(f(0.0, (x + h, y))) - f0) / h
        fy = (np.asarray(f(0.0, (x, y + h))) - f0) / h
        return np.column_stack([fx, fy])

    # -- transforms -------------------------------------------------------

    def time_reversed(self):
        neg = lambda terms: [MonomialTerm(t.coeff * -1, t.px, t.py) for t in terms]
        return ParametricSystem(
            self.name + "_reversed", self.parameters,
            neg(self.x_terms), neg(self.y_terms))

    # -- serialization ----------------------------------------------------

    def to_dict(self):
        return {
            "name": self.name,
            "parameters": [{"name": n, "default": str(d)}
                           for n, d in self.parameters],
            "x_dot": [_term_dict(t) for t in self.x_terms],
            "y_dot": [_term_dict(t) for t in self.y_terms],
        }

    def __eq__(self, other):
        return (isinstance(other, ParametricSystem)
                and self.name == other.name
                and self.parameters == other.parameters
                and self.x_terms == other.x_terms
                and self.y_terms == other.y_terms)

    def __repr__(self):
        return f"ParametricSystem({self.name!r}, params={[n for n, _ in self.parameters]})"


def check_state(x, y):
    """DomainError unless the state ``(x, y)`` is finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"non-finite state ({x}, {y})")


def _term_dict(t):
    return {"coeff": t.coeff.to_string(), "px": t.px, "py": t.py}


def _ddx(terms):
    return [MonomialTerm(t.coeff * t.px, t.px - 1, t.py) for t in terms if t.px > 0]


def _ddy(terms):
    return [MonomialTerm(t.coeff * t.py, t.px, t.py - 1) for t in terms if t.py > 0]


def _float_affine(expr, names):
    """(constant, ((parameter index, weight), ...)) of ``expr`` in floats,
    the weights in the order ``AffineExpr.evaluate`` adds them."""
    return float(expr.const), tuple((names.index(k), float(expr.terms[k]))
                                    for k in expr.param_names())


def _compile_factory(polys):
    """``factory(*coeffs) -> (rhs, jacobian)`` for the six term lists."""
    args, sources = [], []
    for terms in polys:
        parts = []
        for t in terms:
            c = f"c{len(args)}"
            args.append(c)
            parts.append("*".join([c] + ["x"] * t.px + ["y"] * t.py))
        sources.append(" + ".join(parts) if parts else "0.0")
    f, g, fx, fy, gx, gy = sources
    ns = {"np": np}
    exec(f"def _factory({', '.join(args)}):\n"
         " def rhs(t, z):\n"
         "  x = z[0]; y = z[1]\n"
         f"  return [{f}, {g}]\n"
         " def jacobian(x, y):\n"
         f"  return np.array([[{fx}, {fy}], [{gx}, {gy}]])\n"
         " return rhs, jacobian\n", ns)
    return ns["_factory"]


# -- construction helpers -------------------------------------------------


def _terms(spec):
    """[(coeff-string, px, py), ...] -> tuple of MonomialTerm."""
    return tuple(MonomialTerm(parse_affine(c), px, py) for c, px, py in spec)


def builtin(name):
    """Return one of the paper-scale example systems by name."""
    if name == "mono_unperturbed":
        return ParametricSystem(
            name,
            [("a", 1), ("b", -3), ("c", Fraction(3, 2))],
            _terms([("a", 1, 0), ("b", 0, 1), ("c", 1, 1), ("-a", 2, 0)]),
            _terms([("a+b", 0, 1), ("-(2*a+2*b+c)", 1, 1), ("2*c", 0, 2)]),
        )
    if name == "mono_perturbed":
        return ParametricSystem(
            name,
            [("a", 1), ("b", -3), ("c", Fraction(3, 2)),
             ("alpha", 0), ("epsilon", 0)],
            _terms([("a", 1, 0), ("b", 0, 1), ("c", 1, 1), ("-a", 2, 0),
                    ("epsilon", 0, 1)]),
            _terms([("a+b", 0, 1), ("-(2*a+2*b+c)", 1, 1), ("2*c", 0, 2),
                    ("alpha", 0, 1), ("-alpha", 1, 0), ("alpha", 2, 0)]),
        )
    if name == "revers_base":
        return ParametricSystem(
            name, [],
            _terms([("1", 0, 1)]),
            _terms([("1", 1, 0), ("1", 1, 1), ("-1", 3, 0)]),
        )
    if name == "revers_gamma":
        return ParametricSystem(
            name, [("gamma", Fraction(27, 10))],
            _terms([("1", 0, 2), ("gamma", 0, 1)]),
            _terms([("1", 1, 0), ("1", 1, 1), ("-1", 3, 0)]),
        )
    if name == "diss_heart":
        return ParametricSystem(
            name,
            [("gamma", Fraction(27, 10)), ("alpha", 0), ("epsilon", 0)],
            _terms([("epsilon", 1, 0), ("1", 0, 2), ("gamma", 0, 1)]),
            _terms([("alpha", 0, 1), ("1", 1, 0), ("1", 1, 1), ("-1", 3, 0)]),
        )
    raise NotFound(f"unknown built-in system {name!r}")


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
        params.append((p["name"], parse_number(str(p["default"]), loc)))

    def read_terms(key):
        out = []
        for i, t in enumerate(data[key]):
            loc = f"{key}[{i}]"
            if not isinstance(t, dict):
                raise ParseError("term must be an object", loc)
            for f_ in ("coeff", "px", "py"):
                if f_ not in t:
                    raise ParseError("missing field", f"{loc}.{f_}")
            px, py = t["px"], t["py"]
            if not isinstance(px, int) or not isinstance(py, int):
                raise ParseError("exponents must be integers", loc)
            if px < 0 or py < 0:
                raise ParseError("negative exponent", loc)
            if px + py > MAX_DEGREE:
                raise ParseError(f"degree above cap {MAX_DEGREE}", loc)
            out.append(MonomialTerm(parse_affine(str(t["coeff"]), loc), px, py))
        return out

    return ParametricSystem(
        data["name"], params, read_terms("x_dot"), read_terms("y_dot"))


def save(sys, path_or_file):
    payload = json.dumps(sys.to_dict(), indent=2, sort_keys=True)
    if hasattr(path_or_file, "write"):
        path_or_file.write(payload)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(payload)
