"""Melnikov integrals of the two connections, checked against the flow.

Each connection of the unperturbed contour splits under exactly one of the
two perturbation parameters.  The Melnikov integral M gives the first-order
splitting rate: the gap's derivative is M / |f(q)| at the section's base q.
Central finite differences of the measured gaps, and the gaps' gradients
from the branches themselves, confirm it and the vanishing
cross-derivatives.
"""
import math

from hetcontour import diagrams as dg
from hetcontour import melnikov as ml


def main():
    for c in (0.5, 1.5):
        for conn in (ml.Connection.PARABOLA, ml.Connection.X_AXIS):
            res = ml.melnikov_integral(ml.MelnikovProblem(c=c, connection=conn))
            cert = " (sign certified)" if res.sign_certified_negative else ""
            print(f"c={c}: {conn.value:8s} M(0) = {res.value:+.7f} "
                  f"+/- {res.error_estimate:.1e}{cert}")

    print()
    print("gap derivatives at the origin (c=3/2): differences, gradient,")
    print("and M / |f(q)| for the parameter the connection splits under")
    scn = dg.scenario("mono_first")
    params = dg._params_at(scn, (0.0, 0.0))
    h = 1e-4
    for name, conn in (("axis", ml.Connection.X_AXIS),
                       ("parabola", ml.Connection.PARABOLA)):
        g = dg.gap_function(scn, name)
        da = (g(scn.system, (h, 0)) - g(scn.system, (-h, 0))) / (2 * h)
        de = (g(scn.system, (0, h)) - g(scn.system, (0, -h))) / (2 * h)
        _, grad = dg.gradient_function(scn, name)(scn.system, (0.0, 0.0))
        base = scn.recipes[name].section_base
        rate = ml.melnikov_integral(ml.MelnikovProblem(
            connection=conn)).value / math.hypot(*scn.system.rhs(*base,
                                                                 params))
        print(f"  {name:8s} d/dalpha = {da:+.7f} ({grad[0]:+.7f})   "
              f"d/depsilon = {de:+.7f} ({grad[1]:+.7f})   "
              f"M/|f(q)| = {rate:+.7f}")
    print("each connection responds to one parameter only, at the rate")
    print("its Melnikov integral gives")


if __name__ == "__main__":
    main()
