"""Parametric system construction, evaluation, and exact invariances."""
from fractions import Fraction

import numpy as np
import pytest

from hetcontour import equilibria as eq
from hetcontour import manifolds as mf
from hetcontour import synthesis as sy
from hetcontour import vectorfield as vf
from hetcontour.affine import AffineExpr, parse_poly
from hetcontour.errors import ConfigError, ParseError


@pytest.mark.parametrize("name", vf.BUILTIN_NAMES)
def test_fd_jacobian_matches_analytic(name, rng):
    sys_ = vf.builtin(name)
    params = sys_.full_params()
    for _ in range(100):
        x, y = rng.uniform(-3, 3, size=2)
        j_an = np.asarray(sys_.jacobian(x, y, params))
        j_fd = np.asarray(sys_.finite_difference_jacobian(x, y, params))
        assert np.allclose(j_an, j_fd, atol=1e-6 * (1 + np.abs(j_an).max()))


# the built-in systems written out, parameters in their declared order
EQUATIONS = {
    "mono_unperturbed": lambda x, y, a, b, c: (
        a * x + b * y + c * x * y - a * x**2,
        (a + b) * y - (2 * a + 2 * b + c) * x * y + 2 * c * y**2),
    "mono_perturbed": lambda x, y, a, b, c, alpha, epsilon: (
        a * x + b * y + c * x * y - a * x**2 + epsilon * y,
        (a + b) * y - (2 * a + 2 * b + c) * x * y + 2 * c * y**2
        + alpha * (y - x + x**2)),
    "revers_base": lambda x, y: (y, x + x * y - x**3),
    "revers_gamma": lambda x, y, gamma: (y**2 + gamma * y,
                                         x + x * y - x**3),
    "diss_heart": lambda x, y, gamma, alpha, epsilon: (
        epsilon * x + y**2 + gamma * y, alpha * y + x + x * y - x**3),
}


@pytest.mark.parametrize("name", vf.BUILTIN_NAMES)
def test_builtins_are_their_equations(name):
    sys_ = vf.builtin(name)
    values = [Fraction((-1) ** i * (i + 2), 7)
              for i in range(len(sys_.parameters))]
    params = {n: v for (n, _), v in zip(sys_.parameters, values)}
    for x, y in ((Fraction(3, 10), Fraction(-7, 10)),
                 (Fraction(-11, 10), Fraction(9, 20)),
                 (Fraction(2), Fraction(1))):
        assert sys_.rhs(x, y, params) == EQUATIONS[name](x, y, *values)


# compiled_rhs and jacobian of the systems behind the heart, flashing and
# reversible diagrams, recorded bit for bit as float hex strings
PINNED = {
    ("diss_heart", (0.3, -0.7)): (
        ["-0x1.498c7e28240b6p+0", "0x1.b98c7e28240b8p-5"],
        [["-0x1.5810624dd2f1bp-6", "0x1.2147ae147ae14p+0"],
         ["0x1.eb851eb851ed0p-6", "0x1.4083126e978d5p-2"]]),
    ("diss_heart", (-1.1, 0.45)): (
        ["0x1.5d35a858793ddp+0", "-0x1.0858793dd97f4p-2"],
        [["-0x1.5810624dd2f1bp-6", "0x1.b70a3d70a3d70p+1"],
         ["-0x1.170a3d70a3d72p+1", "-0x1.1645a1cac0832p+0"]]),
    ("diss_heart", (1.7, 1.3)): (
        ["0x1.3c5f06f694467p+2", "-0x1.f8e219652bd38p-1"],
        [["-0x1.5810624dd2f1bp-6", "0x1.4851eb851eb85p+2"],
         ["-0x1.97ae147ae147bp+2", "0x1.b6872b020c49bp+0"]]),
    ("revers_gamma", (0.3, -0.7)): (
        ["-0x1.481d7dbf487fdp+0", "0x1.020c49ba5e354p-4"],
        [["0x0.0p+0", "0x1.2189374bc6a80p+0"],
         ["0x1.eb851eb851ed0p-6", "0x1.3333333333333p-2"]]),
    ("revers_gamma", (-1.1, 0.45)): (
        ["0x1.57694467381d8p+0", "-0x1.0e56041893748p-2"],
        [["0x0.0p+0", "0x1.b72b020c49ba6p+1"],
         ["-0x1.170a3d70a3d72p+1", "-0x1.199999999999ap+0"]]),
    ("revers_gamma", (1.7, 1.3)): (
        ["0x1.3ebd3c3611341p+2", "-0x1.00c49ba5e353cp+0"],
        [["0x0.0p+0", "0x1.48624dd2f1aa0p+2"],
         ["-0x1.97ae147ae147bp+2", "0x1.b333333333333p+0"]]),
}
PINNED_PARAMS = {"diss_heart": {"gamma": 2.53, "alpha": 0.013,
                                "epsilon": -0.021},
                 "revers_gamma": {"gamma": 2.531}}


@pytest.mark.parametrize("name, point", sorted(PINNED))
def test_compiled_fields_keep_their_floats(name, point):
    sys_ = vf.builtin(name)
    params = sys_.full_params(PINNED_PARAMS[name])
    rhs, jac = PINNED[name, point]
    assert [v.hex() for v in sys_.compiled_rhs(params)(0.0, point)] == rhs
    assert [[float(v).hex() for v in row]
            for row in sys_.jacobian(*point, params)] == jac


@pytest.mark.parametrize("x_dot, match", [
    ({(-1, 0): AffineExpr.constant(1)}, "negative exponent"),
    ({(4, 3): AffineExpr.param("a")}, "exceeds cap"),
    ({(1, 0): AffineExpr.param("b")}, "undeclared parameter"),
])
def test_constructor_rejects_malformed_terms(x_dot, match):
    with pytest.raises(ParseError, match=match) as err:
        vf.ParametricSystem("s", [("a", 1)], {(0, 1): AffineExpr.param("a")},
                            x_dot)
    assert err.value.path == "y_dot"


def test_polynomials_are_read_only():
    # the compiled fields are built once, from the polynomials as given
    sys_ = vf.builtin("revers_base")
    with pytest.raises(TypeError):
        sys_.x_dot[1, 0] = AffineExpr.constant(5)


def test_contour_variety_invariant_exactly():
    # the unperturbed system leaves y*(y - x*(1-x)) = 0 invariant:
    # <grad G, (f, g)> has zero remainder mod G in exact rational arithmetic
    sys_ = vf.builtin("mono_unperturbed")
    variety = sy.Variety(sy.poly_from_string("y*(y-x*(1-x))"))
    params = sys_.full_params(exact=True)
    rem = sy.tangency_residual(variety, sys_, params)
    assert rem == {}


def test_reversible_base_involution(rng):
    # (t, x, y) -> (-t, -x, y): if (u, v) = rhs(x, y) then rhs(-x, y) = (u, -v)
    sys_ = vf.builtin("revers_base")
    params = sys_.full_params()
    for _ in range(100):
        x, y = rng.uniform(-3, 3, size=2)
        u, v = sys_.rhs(x, y, params)
        u2, v2 = sys_.rhs(-x, y, params)
        assert abs(u2 - u) < 1e-12 * (1 + abs(u))
        assert abs(v2 + v) < 1e-12 * (1 + abs(v))


def test_time_reversed_negates_rhs(rng):
    sys_ = vf.builtin("diss_heart")
    rev = sys_.time_reversed()
    params = sys_.full_params()
    for _ in range(20):
        x, y = rng.uniform(-2, 2, size=2)
        f = np.asarray(sys_.rhs(x, y, params))
        g = np.asarray(rev.rhs(x, y, params))
        assert np.allclose(f, -g, atol=1e-14)


def test_dict_roundtrip_preserves_system():
    for name in vf.BUILTIN_NAMES:
        sys_ = vf.builtin(name)
        again = vf.from_dict(sys_.to_dict())
        assert again == sys_


def test_save_load_roundtrip(tmp_path):
    sys_ = vf.builtin("mono_perturbed")
    path = tmp_path / "system.json"
    vf.save(sys_, path)
    assert vf.load(path) == sys_


@pytest.mark.parametrize("field, value, path", [
    ("parameters", 3, "parameters"),
    ("x_dot", 5, "x_dot"),
    ("y_dot", {"coeff": "1", "px": 0, "py": 0}, "y_dot"),
    ("parameters", [{"name": ["a"], "default": 1}], "parameters[0].name"),
    # True is an int to isinstance, and (True, 0) a key equal to (1, 0)
    ("x_dot", [{"coeff": "1", "px": True, "py": 0}], "x_dot[0]"),
    ("parameters", [{"name": "a", "default": 1}, {"name": "a", "default": 5}],
     "parameters[1].name"),
    # a term is checked even when its coefficient is zero
    ("x_dot", [{"coeff": "0", "px": 7, "py": 0}], "x_dot"),
])
def test_from_dict_reports_malformed_fields_with_their_path(field, value,
                                                            path):
    data = vf.builtin("mono_perturbed").to_dict()
    data[field] = value
    with pytest.raises(ParseError) as err:
        vf.from_dict(data)
    assert err.value.path == path


def test_from_dict_sums_repeated_monomials():
    data = vf.builtin("mono_unperturbed").to_dict()
    data["x_dot"].append({"coeff": "2*a", "px": 1, "py": 0})
    sys_ = vf.from_dict(data)
    assert sys_.x_dot[1, 0] == AffineExpr.param("a", 3)
    assert sys_.rhs(Fraction(1), Fraction(0)) == (2, 0)


def test_a_default_reads_as_a_coefficient_does():
    # one constant reader: 2**3 is 8 as a default as it is in a coefficient
    data = vf.builtin("mono_unperturbed").to_dict()
    data["parameters"][0]["default"] = "2**3"
    data["x_dot"][0]["coeff"] = "2**3*a"
    sys_ = vf.from_dict(data)
    assert sys_.parameters[0] == ("a", 8)
    assert sys_.x_dot[1, 0] == AffineExpr.param("a", 8)


@pytest.mark.parametrize("field, value, path", [
    ("default", "1e400", "parameters[0]"),
    ("default", "1e300*1e300", "parameters[0]"),
    ("coeff", "1e300*1e300*a", "x_dot[0]"),
])
def test_numbers_beyond_the_float_range_are_parse_errors(field, value, path):
    data = vf.builtin("mono_unperturbed").to_dict()
    entry = data["parameters"][0] if field == "default" else data["x_dot"][0]
    entry[field] = value
    with pytest.raises(ParseError) as err:
        vf.from_dict(data)
    assert err.value.path == path


def test_from_dict_rejects_an_undeclared_parameter():
    data = vf.builtin("mono_perturbed").to_dict()
    data["parameters"] = [p for p in data["parameters"] if p["name"] != "c"]
    with pytest.raises(ParseError, match="undeclared parameter"):
        vf.from_dict(data)


def test_unknown_parameter_rejected():
    sys_ = vf.builtin("mono_unperturbed")
    with pytest.raises(ConfigError):
        sys_.full_params({"nope": 1.0})


def test_parameter_mappings_are_resolved_once(monkeypatch):
    sys_ = vf.builtin("diss_heart")
    calls = []
    resolve = vf.ParametricSystem._resolve

    def counted(self, params):
        calls.append(params)
        return resolve(self, params)
    monkeypatch.setattr(vf.ParametricSystem, "_resolve", counted)
    full = sys_.full_params({"alpha": 0.1})
    assert sys_.rhs(0.3, -0.2, full) == sys_.rhs(0.3, -0.2, {"alpha": 0.1})
    assert len(calls) == 2
    with pytest.raises(ConfigError, match=r"missing parameter\(s\) \['gamma'\]"):
        sys_.compiled_rhs({"alpha": 0.1, "epsilon": 0.0, "nope": 1.0})
    with pytest.raises(ConfigError, match=r"unknown parameter\(s\) \['nope'\]"):
        sys_.compiled_rhs(dict(full, nope=1.0))


def test_exact_parameters_are_rational():
    params = vf.builtin("mono_unperturbed").full_params(exact=True)
    assert params["c"] == Fraction(3, 2)


def test_unknown_builtin_rejected():
    with pytest.raises(Exception):
        vf.builtin("no_such_system")


def test_compiled_rhs_matches_rhs(rng):
    # against the exact rational path of rhs; every other parameter is 0,
    # so terms whose coefficient vanishes at this point are exercised too
    for name in vf.BUILTIN_NAMES:
        sys_ = vf.builtin(name)
        params = {n: (0.0 if i % 2 else float(rng.uniform(-2, 2)))
                  for i, (n, _) in enumerate(sys_.parameters)}
        exact = {n: Fraction(v) for n, v in params.items()}
        f = sys_.compiled_rhs(params)
        for _ in range(20):
            x, y = rng.uniform(-2, 2, size=2)
            want = sys_.rhs(Fraction(x), Fraction(y), exact)
            assert np.allclose(f(0.0, [x, y]), [float(v) for v in want],
                               rtol=1e-13, atol=1e-13), name


def test_compiled_rhs_keeps_its_parameter_point():
    sys_ = vf.builtin("diss_heart")
    p1 = sys_.full_params({"alpha": 0.3, "epsilon": -0.2})
    p2 = sys_.full_params({"alpha": -0.1, "epsilon": 0.4})
    f1 = sys_.compiled_rhs(p1)
    before = f1(0.0, [0.5, -0.7])
    f2 = sys_.compiled_rhs(p2)
    assert f2(0.0, [0.5, -0.7]) != before
    assert f1(0.0, [0.5, -0.7]) == before


def test_many_parameter_points_leave_the_system_unchanged():
    # bounded per-point state: the system holds what it held after
    # construction, the one cached field pair included
    sys_ = vf.builtin("diss_heart")

    def layout():
        return {k: len(v) if hasattr(v, "__len__") else None
                for k, v in vars(sys_).items()}

    before = layout()
    for i in range(1000):
        p = sys_.full_params({"alpha": i * 1e-3, "epsilon": -i * 1e-3})
        sys_.compiled_rhs(p)
        sys_.jacobian(0.1, 0.2, p)
    assert layout() == before


def test_fields_are_built_once_per_parameter_point(watch_ends):
    # one gap's saddle solves share one point's fields, and so do one
    # branch's windows; the system keeps the last point's pair only
    base = vf.builtin("revers_gamma")
    sys_ = vf.ParametricSystem(base.name, base.parameters, base.x_dot,
                               base.y_dot)
    built = []
    factory = sys_._field_factory
    sys_._field_factory = lambda *c: built.append(c) or factory(*c)
    params = sys_.full_params({"gamma": 2.53})
    saddles = [eq.saddle_data(sys_, params,
                              eq.find_equilibrium(sys_, params, seed)[0])
               for seed in ((0.0, 0.0), (0.0, -2.53))]
    assert len(built) == 1
    mf.grow_branch(sys_, params, saddles[0], mf.Kind.UNSTABLE, 1,
                   time_cap=20.0)
    assert len(watch_ends) > 1 and len(built) == 1
    other = sys_.full_params({"gamma": 2.6})
    sys_.compiled_rhs(other)
    sys_.jacobian(0.1, 0.2, other)
    sys_.compiled_rhs(params)
    assert len(built) == 3


def test_builtins_are_parsed_once(monkeypatch):
    vf.builtin.cache_clear()
    parsed = []
    monkeypatch.setattr(vf, "parse_poly",
                        lambda text, *a: parsed.append(text)
                        or parse_poly(text, *a))
    first = vf.builtin("mono_perturbed")
    second = vf.builtin("mono_perturbed")
    assert len(parsed) == 2
    assert first == second
    params, f, g = vf._BUILTINS["mono_perturbed"]
    assert first == vf.ParametricSystem(
        "mono_perturbed", params, parse_poly(f, ("x", "y")),
        parse_poly(g, ("x", "y")))
