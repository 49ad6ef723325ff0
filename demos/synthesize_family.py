"""Exact synthesis of the quadratic family tangent to axis and parabola.

The variety G = y (y - x(1-x)) is the union of the x-axis and a parabola.
Requiring <grad G, (f, g)> to vanish modulo G is linear in the ansatz
coefficients; the rational nullspace gives a three-parameter family whose
coefficients match the cubic contour system exactly.
"""
from fractions import Fraction

from hetcontour import synthesis as sy


def main():
    variety = sy.Variety.from_string("y*(y - x*(1-x))")
    fam = sy.solve_family(variety, 2, parameter_names=("a", "b", "c"),
                          free_symbols=("a10", "a01", "a11"))
    print(f"family dimension: {len(fam.basis)}")
    d = fam.field.to_dict()
    for eqn in ("x_dot", "y_dot"):
        terms = " + ".join(f"({t['coeff']}) x^{t['px']} y^{t['py']}"
                           for t in d[eqn])
        print(f"  {eqn} = {terms}")
    rem = sy.tangency_residual(fam.variety, fam.field,
                               {"a": Fraction(1), "b": Fraction(-3),
                                "c": Fraction(3, 2)})
    print(f"tangency remainder at (a,b,c) = (1,-3,3/2): {rem or 'exactly 0'}")


if __name__ == "__main__":
    main()
