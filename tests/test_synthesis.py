"""Exact synthesis of polynomial fields tangent to an algebraic curve."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcontour import synthesis as sy
from hetcontour import vectorfield as vf
from hetcontour.errors import BadPerturbation, ParseError

PARABOLA_LINE = "y*(y - x*(1-x))"

rationals = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=20)


@pytest.fixture(scope="module")
def family():
    return sy.solve_family(sy.Variety.from_string(PARABOLA_LINE), 2,
                           parameter_names=("a", "b", "c"),
                           free_symbols=("a10", "a01", "a11"))


def test_family_dimension_is_three(family):
    assert family.free_parameters == ("a", "b", "c")
    assert len(family.basis) == 3


def test_family_matches_reference_field_coefficient_by_coefficient(family):
    ref = vf.builtin("mono_unperturbed").to_dict()
    got = family.field.to_dict()

    def normalize(d):
        return {(t["px"], t["py"]): t["coeff"].replace(" ", "")
                for t in d}

    assert normalize(got["x_dot"]) == normalize(ref["x_dot"])
    assert normalize(got["y_dot"]) == normalize(ref["y_dot"])


@settings(max_examples=50, deadline=None)
@given(rationals, rationals, rationals)
def test_every_member_is_exactly_tangent(a, b, c):
    fam = sy.solve_family(sy.Variety.from_string(PARABOLA_LINE), 2,
                          parameter_names=("a", "b", "c"),
                          free_symbols=("a10", "a01", "a11"))
    rem = sy.tangency_residual(fam.variety, fam.field,
                               {"a": a, "b": b, "c": c})
    assert rem == {}


def test_circle_admits_the_rotation_field():
    fam = sy.solve_family(sy.Variety.from_string("x*x + y*y - 1"), 1)
    rem = sy.tangency_residual(
        fam.variety, fam.field, {p: Fraction(1) for p in fam.free_parameters})
    assert rem == {}


def test_parse_errors():
    with pytest.raises(ParseError):
        sy.poly_from_string("x + z")
    with pytest.raises(ParseError):
        sy.poly_from_string("x ** y")
    with pytest.raises(ParseError):
        sy.Variety.from_string("0")


def test_requested_free_symbol_must_be_free():
    with pytest.raises(ParseError):
        sy.solve_family(sy.Variety.from_string(PARABOLA_LINE), 2,
                        free_symbols=("b10",))


def test_degree_cap():
    with pytest.raises(ParseError):
        sy.tangency_system(sy.Variety.from_string(PARABOLA_LINE), 7)


def test_bad_perturbation_rejected(family):
    pert = sy.Perturbation("epsilon", "x",
                           sy.poly_from_string("x"),
                           sy.poly_from_string("y"))
    with pytest.raises(BadPerturbation):
        sy.perturb_connections(family.field, {"a": 1, "b": -3, "c": 1.5},
                               [pert])


def test_good_perturbation_accepted(family):
    # a multiple of y vanishes on the x-axis component
    pert = sy.Perturbation("epsilon", "x",
                           sy.poly_from_string("y"),
                           sy.poly_from_string("y"))
    sys_ = sy.perturb_connections(family.field,
                                  {"a": 1, "b": -3, "c": Fraction(3, 2)},
                                  [pert])
    assert ("epsilon", 0) in [(n, d) for n, d in sys_.parameters]


def test_perturbation_above_the_degree_cap_rejected(family):
    # y * x**6 vanishes on the x-axis, but its degree 7 exceeds the cap
    pert = sy.Perturbation("epsilon", "x",
                           sy.poly_from_string("y*x**6"),
                           sy.poly_from_string("y"))
    with pytest.raises(ParseError, match="exceeds cap"):
        sy.perturb_connections(family.field,
                               {"a": 1, "b": -3, "c": Fraction(3, 2)},
                               [pert])
