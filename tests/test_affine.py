"""The exact algebra: one expression walker, exact affine forms, and float
sums whose order does not depend on the hash seed."""
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetcontour import synthesis as sy
from hetcontour.affine import AffineExpr, parse_affine, parse_poly
from hetcontour.errors import ParseError

ERR = ParseError
F = Fraction

# text -> (parse_affine value, poly_from_string value)
TABLE = {
    "x/0": (ERR, ERR),
    "1e400": (ERR, ERR),
    "2**3": (AffineExpr.constant(8), {(0, 0): F(8)}),
    "a*b": (ERR, ERR),
    "a**2": (ERR, ERR),
    "a/(b-b)": (ERR, ERR),
    "x + z": (AffineExpr({"x": 1, "z": 1}), ERR),
    "x ** y": (ERR, ERR),
    "0": (AffineExpr(), {}),
    "-(2*a+2*b+c)": (AffineExpr({"a": -2, "b": -2, "c": -1}), ERR),
    "3/2*a - 1.5": (AffineExpr({"a": F(3, 2), "": F(-3, 2)}), ERR),
}


@pytest.mark.parametrize("text", sorted(TABLE))
@pytest.mark.parametrize("entry", [0, 1], ids=["affine", "poly"])
def test_both_entry_points_agree_on_the_table(text, entry):
    parse = (parse_affine, sy.poly_from_string)[entry]
    expected = TABLE[text][entry]
    if expected is ERR:
        with pytest.raises(ParseError):
            parse(text)
    else:
        assert parse(text) == expected


@pytest.mark.parametrize("text", [
    "x**65", "2**-1", "-" * 5000 + "1", "1\x00", "1 if a else 2", "a.b"],
    ids=["power-65", "negative-power", "deep-nesting", "null-byte",
         "conditional", "attribute"])
@pytest.mark.parametrize("parse", [parse_affine, sy.poly_from_string],
                         ids=["affine", "poly"])
def test_hostile_input_is_a_parse_error(text, parse):
    with pytest.raises(ParseError):
        parse(text)


def test_walker_keeps_variables_and_parameters_apart():
    assert parse_poly("a*x*y - (x + 1)/2", ("x", "y")) == {
        (1, 1): AffineExpr.param("a"), (1, 0): AffineExpr.constant(F(-1, 2)),
        (0, 0): AffineExpr.constant(F(-1, 2))}


def test_affine_forms_mix_with_numbers_from_either_side():
    a = AffineExpr.param("a")
    three = AffineExpr.constant(3)
    assert 1 - a == -(a - 1) == AffineExpr({"": 1, "a": -1})
    assert three * a == a * three == 3 * a == AffineExpr.param("a", 3)
    assert sum([a, a]) == F(2) * a and not a - a
    with pytest.raises(ParseError):
        a * a


names = st.sampled_from(["", "a", "b", "c", "alpha", "epsilon", "gamma"])
affine_exprs = st.dictionaries(names, st.fractions()).map(AffineExpr)


@settings(max_examples=200, deadline=None)
@given(affine_exprs)
def test_to_string_round_trips(e):
    assert parse_affine(e.to_string()) == e


def test_float_sums_do_not_depend_on_the_hash_seed():
    # a + b + c at (1e16, 1, -1e16) is 0.0 or 1.0 by the order of the sum
    code = ("from hetcontour import vectorfield as vf\n"
            "from hetcontour.affine import parse_affine\n"
            "e = parse_affine('a + b + c')\n"
            "p = {'a': 1e16, 'b': 1.0, 'c': -1e16}\n"
            "s = vf.ParametricSystem('s', [(n, 0) for n in 'abc'],\n"
            "                        {(0, 0): e}, {})\n"
            "print(e.evaluate(p), s.rhs(0.0, 0.0, p)[0])\n")
    src = str(Path(sy.__file__).resolve().parents[1])
    outs = []
    for seed in ("1", "5"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout.split())
    assert outs[0] == outs[1]
    assert outs[0][0] == outs[0][1]
