"""Parametric system construction, evaluation, and exact invariances."""
from fractions import Fraction

import numpy as np
import pytest

from hetcontour import synthesis as sy
from hetcontour import vectorfield as vf
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


def test_contour_variety_invariant_exactly():
    # the unperturbed system leaves y*(y - x*(1-x)) = 0 invariant:
    # <grad G, (f, g)> has zero remainder mod G in exact rational arithmetic
    sys_ = vf.builtin("mono_unperturbed")
    variety = sy.Variety(sy.poly_from_string("y*(y-x*(1-x))"))
    params = sys_.full_params(exact=True)
    rem = sy.tangency_residual(variety, sys_.x_terms, sys_.y_terms, params)
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
])
def test_from_dict_reports_malformed_fields_with_their_path(field, value,
                                                            path):
    data = vf.builtin("mono_perturbed").to_dict()
    data[field] = value
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
    # no per-point state: the system holds what it held after construction
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
