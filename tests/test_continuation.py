"""Curve tracing, codim-2 Newton, the reversible family, flashing search."""
import math

import numpy as np
import pytest

from hetcontour import connections as cn
from hetcontour import continuation as ct
from hetcontour import diagrams as dg
from hetcontour import integrate as hi
from hetcontour import manifolds as mf
from hetcontour import vectorfield as vf
from hetcontour.errors import (BracketError, CurveStall, Degenerate,
                               DomainError, NoConvergence, NoIntersection)


def circle_gap(radius):
    # analytic zero set: a circle in the parameter plane
    return lambda sys, z: z[0] ** 2 + z[1] ** 2 - radius ** 2


def circle_start(radius):
    # the start (r, 0) of the circle, its gap and its gradient there
    return (radius, 0.0), 0.0, (2 * radius, 0.0)


def test_continue_curve_traces_circle():
    r = 0.1
    curve = ct.continue_curve(None, circle_gap(r), *circle_start(r),
                              step=5e-3, max_points=200)
    radii = np.linalg.norm(curve.points, axis=1)
    # residual tol 1e-6 on r^2 - r0^2 allows radius error ~ tol / (2 r0)
    assert np.max(np.abs(radii - r)) < 1e-5
    assert np.max(np.abs(curve.residuals)) <= ct.RESIDUAL_TOL
    # with enough points the trace wraps most of the way around
    angles = np.arctan2(curve.points[:, 1], curve.points[:, 0])
    assert np.ptp(np.unwrap(angles)) > 4.0


def _gap_budget(curve):
    # no gap at the start, whose gap and gradient the caller gives; then
    # the predictor and one secant step from the carried slope per
    # continuation point
    return 2 * (len(curve.points) - 1)


def test_continue_curve_gap_budget_on_the_circle():
    calls = []
    gap = circle_gap(0.1)
    curve = ct.continue_curve(None, lambda s, z: calls.append(1) or gap(s, z),
                              *circle_start(0.1), step=5e-3, max_points=200)
    assert len(curve.points) == 399
    assert len(calls) <= _gap_budget(curve)


def test_continue_curve_gap_budget_on_heart():
    # the first heart curve, H_L from C1, as assemble_diagram traces it
    # from the contour point's first residual and Jacobian row, at 20
    # points a side: three gaps a point with a difference slope in every
    # corrector
    scn = dg.scenario("heart")
    seed = scn.codim2[0]
    point = dg.contour_point(scn, seed)
    z0 = point.location
    gap = dg.gap_function(scn, seed.recipes[0])
    calls = []
    box = tuple((c - scn.span, c + scn.span) for c in z0)
    curve = ct.continue_curve(scn.system,
                              lambda s, z: calls.append(1) or gap(s, z), z0,
                              point.residuals[0], point.jacobian[0],
                              ct.CurveTag.H_L, step=5e-4, step_max=2e-3,
                              bounds=box, max_points=20)
    assert curve.endpoints == ("max_points", "max_points")
    assert len(curve.points) == 39
    assert np.max(np.abs(curve.residuals)) <= ct.RESIDUAL_TOL
    assert len(calls) <= _gap_budget(curve)


def test_corrector_falls_back_to_a_difference_slope():
    # a carried slope of the wrong sign: the first step grows |f|, so the
    # corrector differences once and converges from there
    calls = []
    f = lambda z: calls.append(tuple(z)) or z[0] - 0.3
    z, fz, slope = ct._refine_on_normal(f, np.array([0.0, 0.0]),
                                        np.array([1.0, 0.0]), -0.3, -1.0,
                                        1e-9)
    assert abs(fz) <= 1e-9 and abs(z[0] - 0.3) <= 1e-9
    assert abs(slope - 1.0) < 1e-6
    assert calls[1] == (ct.CORRECTOR_H, 0.0) and len(calls) == 3


def test_continue_curve_respects_bounds():
    r = 0.1
    curve = ct.continue_curve(None, circle_gap(r), *circle_start(r),
                              step=5e-3,
                              bounds=((0.0, np.inf), (-np.inf, np.inf)),
                              max_points=400)
    assert "bounds" in curve.endpoints
    assert np.min(curve.points[:, 0]) >= -1e-12


def test_continue_curve_rejects_bad_start():
    with pytest.raises(CurveStall):
        ct.continue_curve(None, circle_gap(0.1), (0.2, 0.0), 0.03,
                          (0.4, 0.0))


@pytest.mark.parametrize("gradient", [(0.0, 0.0), (math.nan, 1.0)])
def test_continue_curve_rejects_a_start_gradient_with_no_direction(gradient):
    with pytest.raises(NoConvergence, match="gradient vanished"):
        ct.continue_curve(None, circle_gap(0.1), (0.1, 0.0), 0.0, gradient)


@pytest.mark.parametrize("step", [-5e-4, 0.0, math.inf, math.nan])
def test_continue_curve_rejects_a_step_that_is_not_positive(step):
    # step_max never caps a negative step, and a zero one stalls at once
    calls = []
    gap = circle_gap(0.1)
    with pytest.raises(DomainError, match="continuation step"):
        ct.continue_curve(None, lambda s, z: calls.append(1) or gap(s, z),
                          *circle_start(0.1), step=step)
    assert calls == []


def test_mirrored_curve():
    curve = ct.continue_curve(None, circle_gap(0.05), *circle_start(0.05),
                              step=5e-3, max_points=30)
    mir = curve.mirrored()
    assert np.allclose(mir.points, -curve.points[::-1])
    assert mir.tag is curve.tag and mir.k == curve.k


def test_find_codim2_analytic_pair():
    # the residual pair vanishes exactly at the default (b, c) of the cubic
    # family, so the attached saddle data matches the default system
    sys_ = vf.builtin("mono_unperturbed")
    pair = lambda s, z: ((z[0] + 3.0, z[1] - 1.5), np.eye(2))
    pt = ct.find_codim2(sys_, pair, (-2.9, 1.4), ((0.0, 0.0), (1.0, 0.0)),
                        lambda z: {"b": z[0], "c": z[1]})
    assert np.allclose(pt.location, (-3.0, 1.5), atol=1e-8)
    assert max(abs(r) for r in pt.residuals) < 1e-8
    assert abs(pt.saddle_L.index - 2.0) < 1e-10
    assert abs(pt.saddle_M.index - 2.0) < 1e-10
    assert pt.subcase.canonical_id in (1, 2, 6)


def test_find_codim2_attaches_saddles_at_the_scenario_parameters():
    # mono_second runs at c = 1/2, not the system's default 3/2: there the
    # saddle M at (1, 0) has index 2/3 and L at (0, 0) has index 2
    scn = dg.scenario("mono_second")
    pair = lambda s, z: ((z[0], z[1]), np.eye(2))
    pt = ct.find_codim2(scn.system, pair, (1e-3, -1e-3),
                        ((0.0, 0.0), (1.0, 0.0)),
                        lambda z: dg._params_at(scn, z))
    assert np.allclose(pt.location, (0.0, 0.0), atol=1e-12)
    assert abs(pt.saddle_L.index - 2.0) < 1e-10
    assert abs(pt.saddle_M.index - 2.0 / 3.0) < 1e-10


def test_find_codim2_step_rule_exit_reuses_the_accepted_residuals():
    # a steep cubic with its exact Jacobian, 1e-8 from its root: Newton's
    # step there, a third of that, is below step_tol while |F| = 1e-8 is
    # above tol, so the loop ends on the step rule after one pair at the
    # guess and one accepted, and keeps the accepted pair
    sys_ = vf.builtin("mono_unperturbed")
    seen = []

    def pair(s, z):
        seen.append(tuple(z))
        return ((1e16 * (z[0] - 0.3) ** 3, z[1] - 0.2),
                ((3e16 * (z[0] - 0.3) ** 2, 0.0), (0.0, 1.0)))

    pt = ct.find_codim2(sys_, pair, (0.3 + 1e-8, 0.2),
                        ((0.0, 0.0), (1.0, 0.0)), lambda z: {})
    assert np.linalg.norm(pt.residuals) > 1e-9
    assert len(seen) == 2 and len(set(seen)) == 2
    assert pt.location == seen[-1]
    F, J = pair(None, pt.location)
    assert pt.residuals == F and pt.jacobian == J


@pytest.mark.parametrize("index,before", [
    (0, (0.4224379963109239, -0.45201089935208644)),
    (1, (-0.4224379961738838, 0.4520108993193541))])
def test_find_codim2_on_heart_takes_few_pairs(index, before, monkeypatch):
    # ``before``: the points a Newton step with a fresh difference Jacobian
    # at every iterate found, from ten pairs each; a pair is now two gaps
    # with their gradients, and no other gap is measured
    calls = []
    gap_gradient, splitting = cn.gap_gradient, cn.splitting
    monkeypatch.setattr(
        cn, "gap_gradient",
        lambda *a, **k: calls.append(1) or gap_gradient(*a, **k))
    monkeypatch.setattr(
        cn, "splitting", lambda *a, **k: calls.append(0) or splitting(*a, **k))
    scn = dg.scenario("heart")
    pt = dg.contour_point(scn, scn.codim2[index])
    assert 0 not in calls and len(calls) <= 2 * 4
    assert np.max(np.abs(np.subtract(pt.location, before))) <= 1e-9
    assert np.linalg.norm(pt.residuals) <= 1e-9


def test_find_codim2_singular_jacobian():
    pair = lambda s, z: ((z[0] + z[1], 2.0 * (z[0] + z[1]) + 1.0),
                         ((1.0, 1.0), (2.0, 2.0)))
    with pytest.raises(Degenerate):
        ct.find_codim2(None, pair, (0.3, 0.2), (), None)


def test_reversible_bracket_must_change_sign():
    sys_ = vf.builtin("revers_gamma")
    with pytest.raises(BracketError):
        ct.find_reversible_contour(sys_, (3.0, 3.1))


def test_reversible_contour_asymmetry_vanishes_at_the_contour_only():
    # every section closes at the contour value, none a little past it
    sys_ = vf.builtin("revers_gamma")
    gamma0 = ct.find_reversible_contour(sys_, (2.4, 2.6))
    assert ct.reversible_contour_asymmetry(sys_, gamma0) <= 1e-5
    assert ct.reversible_contour_asymmetry(sys_, gamma0 + 0.05) >= 0.01


# _reversible_splitting recorded when it grew all four unstable branches and
# kept the largest hit of L's and the smallest of M's; None: BracketError
REVERSIBLE_SPLITS = [
    (1.5, 0.25, "0x1.27181e38ea640p-1"),
    (2.0, 0.5, "0x1.dc2ac6e7b3a34p-2"),
    (2.5315, 0.5, "-0x1.7bcefa7380000p-13"),
    (2.6, 0.75, "-0x1.a9aa0a317e77ap-2"),
    (2.9, 0.5, "-0x1.ae407d78141e9p-1"),
    (3.0, 0.5, None),
]


@pytest.mark.parametrize("gamma,frac,split", REVERSIBLE_SPLITS)
def test_reversible_splitting_is_pinned_bit_for_bit(gamma, frac, split):
    sys_ = vf.builtin("revers_gamma")
    if split is None:
        with pytest.raises(BracketError):
            ct._reversible_splitting(sys_, gamma, frac)
    else:
        assert ct._reversible_splitting(sys_, gamma, frac).hex() == split


@pytest.fixture
def grown(monkeypatch):
    # the terminations of the branches mf.grow_branch grows
    ends = []
    grow_branch = mf.grow_branch

    def counted(*a, **k):
        br = grow_branch(*a, **k)
        ends.append(br.curve.termination)
        return br
    monkeypatch.setattr(mf, "grow_branch", counted)
    return ends


def test_reversible_splitting_grows_one_branch_per_saddle(grown):
    ct._reversible_splitting(vf.builtin("revers_gamma"), 2.5315)
    assert grown == [hi.Termination.EVENT] * 2


def test_reversible_splitting_names_the_branch_that_missed(grown):
    # from gamma = 2.95 on, the x > 0 branch of L turns back into the sink
    # trap of the focus (-1, 0) before it reaches y = -gamma / 2
    with pytest.raises(BracketError, match=(
            r"^the x > 0 unstable branch of the saddle at \(0, 0\) ended "
            r"settled before y = -2$")):
        ct._reversible_splitting(vf.builtin("revers_gamma"), 4.0)
    assert grown == [hi.Termination.SETTLED]


def test_crossing_needs_a_saddle_with_an_x_side(grown):
    # x' = -x, y' = y: both unstable branches run along the y axis
    sys_ = vf.from_dict({
        "name": "axis_saddle", "parameters": [],
        "x_dot": [{"coeff": "-1", "px": 1, "py": 0}],
        "y_dot": [{"coeff": "1", "px": 0, "py": 1}]})
    section = hi.CrossSection.at((0.0, 1.0), (0.0, 1.0))
    with pytest.raises(Degenerate, match="no x side"):
        ct._crossing(sys_, sys_.full_params(), (0.0, 0.0), section, 1)
    assert grown == []


def test_reversible_contour_asymmetry_needs_a_section_reached():
    # at gamma = 4 no section is reached: no asymmetry was measured
    with pytest.raises(BracketError, match="no section reached"):
        ct.reversible_contour_asymmetry(vf.builtin("revers_gamma"), 4.0)


def analytic_gaps(sys, p, k):
    # gap at winding j = x - j/10: one zero per winding, at x = j/10
    return tuple(p[0] - j / 10.0 for j in range(k + 1))


@pytest.mark.parametrize("segment,samples,k_max", [
    (((-0.0531, 0.0), (0.45, 0.0)), 23, 5),
    # zeros at t = 0.2 k: most of them sit exactly on a sample
    (((0.0, 0.0), (0.5, 0.0)), 6, 4),
], ids=["between_samples", "on_samples"])
def test_flashing_series_analytic(segment, samples, k_max):
    series = ct.flashing_series(None, analytic_gaps, segment, k_max=k_max,
                                samples=samples)
    assert series.k_found == [0, 1, 2, 3, 4]
    for k, t, point, res in series.zeros:
        assert abs(point[0] - k / 10.0) < 1e-7
        assert abs(res) < 1e-6
    # a reason exactly when the series stopped short of k_max
    assert (series.truncated_reason is None) == (len(series.zeros) > k_max)


def test_flashing_series_measures_each_sample_once():
    # every sample is measured once, for all windings up to k_max; each k
    # then measures only the Brent iterates of its own bracket
    calls = []

    def gap(sys, p, k):
        calls.append((tuple(p), k))
        return analytic_gaps(sys, p, k)

    segment = ((-0.0531, 0.0), (0.45, 0.0))
    series = ct.flashing_series(None, gap, segment, k_max=5, samples=23)
    assert series.k_found == [0, 1, 2, 3, 4]
    p0, p1 = np.asarray(segment)
    nodes = {tuple(p0 + t * (p1 - p0)) for t in np.linspace(0.0, 1.0, 23)}
    assert sorted(c for c in calls if c[0] in nodes) == sorted(
        (node, 5) for node in nodes)
    iterates = [c for c in calls if c[0] not in nodes]
    assert len(iterates) == len(set(iterates))
    assert {k for _, k in iterates} == set(series.k_found)


def test_flashing_series_stops_at_insufficient_winding():
    # the branch never makes a second turn: no gap at windings 2 and up
    def gap(sys, p, k):
        return tuple(g if j < 2 else math.nan
                     for j, g in enumerate(analytic_gaps(sys, p, k)))

    series = ct.flashing_series(None, gap, ((-0.0531, 0.0), (0.45, 0.0)),
                                k_max=5, samples=23)
    assert series.k_found == [0, 1]
    assert "2" in series.truncated_reason


def test_flashing_series_ends_at_a_failure_inside_the_bracket():
    # the 1-turn gap changes sign between two samples but cannot be
    # measured next to its zero: no zero may be reported for k = 1
    def gap(sys, p, k):
        if k >= 1 and 0.0995 <= p[0] <= 0.1005:
            raise NoIntersection("branch missed the section")
        return analytic_gaps(sys, p, k)

    series = ct.flashing_series(None, gap, ((-0.0531, 0.0), (0.45, 0.0)),
                                k_max=5, samples=23)
    assert series.k_found == [0]
    reason = series.truncated_reason
    assert "1-turn" in reason and "NoIntersection" in reason
    t = float(reason.split("t = ")[1].split()[0])
    assert 0.0995 <= -0.0531 + t * 0.5031 <= 0.1005


def test_flashing_series_names_a_missing_winding_inside_the_bracket():
    # next to its zero the branch has no hit at winding 1: the reason names
    # the typed error, not the NaN
    def gap(sys, p, k):
        gaps = analytic_gaps(sys, p, k)
        if 0.0995 <= p[0] <= 0.1005:
            return gaps[:1] + (math.nan,) * k
        return gaps

    series = ct.flashing_series(None, gap, ((-0.0531, 0.0), (0.45, 0.0)),
                                k_max=5, samples=23)
    assert series.k_found == [0]
    assert "1-turn" in series.truncated_reason
    assert "InsufficientWinding: requested winding 1, achieved only 0" \
        in series.truncated_reason
