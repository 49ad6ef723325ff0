"""First-order splitting integrals of the cubic contour family, against a
closed form and against scipy's quad."""
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from hetcontour import equilibria as eq
from hetcontour import melnikov as ml
from hetcontour import vectorfield as vf
from hetcontour.errors import QuadratureError


@pytest.mark.parametrize("c,expected", [(0.5, -0.0177888), (1.5, -0.0866532)])
def test_parabola_integral_values(c, expected):
    prob = ml.MelnikovProblem(c=c, connection=ml.Connection.PARABOLA)
    res = ml.melnikov_integral(prob)
    assert abs(res.value - expected) < 1e-5
    assert res.error_estimate < 1e-6


@pytest.mark.parametrize("c", [0.5, 1.5])
def test_axis_integral_certified_negative(c):
    prob = ml.MelnikovProblem(c=c, connection=ml.Connection.X_AXIS)
    res = ml.melnikov_integral(prob)
    assert res.value < 0
    assert res.sign_certified_negative


def test_value_stable_under_tolerance_halving():
    vals = []
    for tol in (1e-9, 5e-10):
        prob = ml.MelnikovProblem(c=1.5, tolerance=tol)
        vals.append(ml.melnikov_integral(prob).value)
    assert abs(vals[0] - vals[1]) < 1e-8


def test_broken_connection_rejected():
    # an interior zero of dx/dt on the parabola invalidates the integral
    prob = ml.MelnikovProblem(a=1.0, b=-1.5, c=1.0,
                              connection=ml.Connection.PARABOLA)
    with pytest.raises(QuadratureError):
        ml.melnikov_integral(prob)


@pytest.mark.parametrize("connection, a, c, reason", [
    # res_1 = c - 1 = 4: the integrand goes like (1 - x)^-3 at x = 1
    (ml.Connection.X_AXIS, 1.0, 5.0, "divergent integral"),
    # r_3 = -(a + b)/c = 1 is a double root of dx/dt
    (ml.Connection.PARABOLA, 1.0, 2.0, "coincident roots"),
    # f = a x(1 - x) on the x-axis and f = (a+b)x + (c-a-b)x^2 - c x^3 on
    # the parabola lose their leading terms
    (ml.Connection.X_AXIS, 0.0, 1.5, "zero leading coefficient"),
    (ml.Connection.PARABOLA, 1.0, 0.0, "zero leading coefficient"),
    # the weight's exponents, about 3e300, overflow a float
    (ml.Connection.X_AXIS, 1e-300, 0.5, "quadrature error estimate nan"),
])
def test_faulty_integrals_are_decided_without_a_warning(connection, a, c,
                                                        reason):
    prob = ml.MelnikovProblem(a=a, c=c, connection=connection)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=reason):
            ml.melnikov_integral(prob)


@pytest.mark.parametrize("a, b, c", [
    (1.0, -3.0, 0.6), (1.0, -3.0, 1.0), (1.0, -3.0, 1.5), (1.0, -3.0, 1.9),
    (2.0, -5.0, 1.0),
])
def test_axis_integral_is_a_beta_function(a, b, c):
    # on the axis the weight exp(-int_{1/2}^x div / f) is (2x)^-r0
    # (2(1-x))^-r1, with the residues of div / f at the saddles: r0 =
    # 1 + lambda_s / lambda_u at L and r1 = 1 + lambda_u / lambda_s at M,
    # read off the field's own eigenvalues; so the integral is
    # -2^-(r0+r1) B(2 - r0, 2 - r1).  M is a saddle for c < 2
    sys_ = vf.builtin("mono_unperturbed")
    p = sys_.full_params({"a": a, "b": b, "c": c})
    L, M = (eq.saddle_data(sys_, p, z) for z in ((0.0, 0.0), (1.0, 0.0)))
    r0, r1 = 1 + L.lambda_s / L.lambda_u, 1 + M.lambda_u / M.lambda_s
    exact = -2 ** -(r0 + r1) * math.gamma(2 - r0) * math.gamma(2 - r1) \
        / math.gamma(4 - r0 - r1)
    res = ml.melnikov_integral(ml.MelnikovProblem(
        a=a, b=b, c=c, connection=ml.Connection.X_AXIS))
    assert abs(res.value - exact) <= 1e-14 * abs(exact)
    assert res.error_estimate <= 1e-9


@pytest.mark.parametrize("c, expected", [(0.5, -0.1436661), (1.5, -0.2154992)])
def test_axis_integral_matches_nested_scipy_quadrature(c, expected):
    # the divergence from the trace of the field's own Jacobian on y = 0
    sys_ = vf.builtin("mono_unperturbed")
    p = sys_.full_params({"c": c})
    f = lambda x: sys_.rhs(x, 0.0, p)[0]
    div = lambda x: float(np.trace(sys_.jacobian(x, 0.0, p)))
    weight = lambda x: math.exp(-quad(lambda s: div(s) / f(s), 0.5, x)[0])
    ref = quad(lambda x: -x * (1 - x) * weight(x), 0, 1)[0]
    value = ml.melnikov_integral(ml.MelnikovProblem(
        c=c, connection=ml.Connection.X_AXIS)).value
    assert abs(value - ref) <= 1e-10
    assert abs(value - expected) <= 1e-7


@pytest.mark.parametrize("c", [0.5, 1.0, 1.5, 1.9])
def test_parabola_integral_matches_nested_scipy_quadrature(c):
    # independent of the partial fractions: the weight exp(-int_{1/2}^x
    # div/f) is a quadrature too, with f and div restricted to y = x(1-x)
    a, b = 1.0, -3.0
    f = lambda x: (a + b) * x + (c - a - b) * x ** 2 - c * x ** 3
    div = lambda x: (2 * a + b) + (4 * c - 4 * a - 2 * b) * x - 5 * c * x ** 2
    weight = lambda x: math.exp(-quad(lambda s: div(s) / f(s), 0.5, x)[0])
    ref = -quad(lambda x: weight(x) * x * (-2 * x * x + 3 * x - 1), 0, 1)[0]
    value = ml.melnikov_integral(ml.MelnikovProblem(c=c)).value
    assert abs(value - ref) <= 1e-12
