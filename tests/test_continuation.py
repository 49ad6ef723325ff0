"""Curve tracing, codim-2 Newton, the reversible family, flashing search."""
import numpy as np
import pytest

from hetcontour import continuation as ct
from hetcontour import diagrams as dg
from hetcontour import vectorfield as vf
from hetcontour.errors import (BracketError, CurveStall, Degenerate,
                               InsufficientWinding, NoIntersection)


def circle_gap(radius):
    # analytic zero set: a circle in the parameter plane
    return lambda sys, z: z[0] ** 2 + z[1] ** 2 - radius ** 2


def test_continue_curve_traces_circle():
    r = 0.1
    curve = ct.continue_curve(None, circle_gap(r), (r, 0.0),
                              step=5e-3, max_points=200)
    radii = np.linalg.norm(curve.points, axis=1)
    # residual tol 1e-6 on r^2 - r0^2 allows radius error ~ tol / (2 r0)
    assert np.max(np.abs(radii - r)) < 1e-5
    assert np.max(np.abs(curve.residuals)) <= ct.RESIDUAL_TOL
    # with enough points the trace wraps most of the way around
    angles = np.arctan2(curve.points[:, 1], curve.points[:, 0])
    assert np.ptp(np.unwrap(angles)) > 4.0


def test_continue_curve_respects_bounds():
    r = 0.1
    curve = ct.continue_curve(None, circle_gap(r), (r, 0.0), step=5e-3,
                              bounds=((0.0, np.inf), (-np.inf, np.inf)),
                              max_points=400)
    assert "bounds" in curve.endpoints
    assert np.min(curve.points[:, 0]) >= -1e-12


def test_continue_curve_rejects_bad_start():
    with pytest.raises(CurveStall):
        ct.continue_curve(None, circle_gap(0.1), (0.2, 0.0))


def test_mirrored_curve():
    curve = ct.continue_curve(None, circle_gap(0.05), (0.05, 0.0),
                              step=5e-3, max_points=30)
    mir = curve.mirrored()
    assert np.allclose(mir.points, -curve.points[::-1])
    assert mir.tag is curve.tag and mir.k == curve.k


def test_find_codim2_analytic_pair():
    # the residual pair vanishes exactly at the default (b, c) of the cubic
    # family, so the attached saddle data matches the default system
    sys_ = vf.builtin("mono_unperturbed")
    pair = lambda s, z: (z[0] + 3.0, z[1] - 1.5)
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
    pair = lambda s, z: (z[0], z[1])
    pt = ct.find_codim2(scn.system, pair, (1e-3, -1e-3),
                        ((0.0, 0.0), (1.0, 0.0)),
                        lambda z: dg._params_at(scn, z))
    assert np.allclose(pt.location, (0.0, 0.0), atol=1e-12)
    assert abs(pt.saddle_L.index - 2.0) < 1e-10
    assert abs(pt.saddle_M.index - 2.0 / 3.0) < 1e-10


def test_find_codim2_singular_jacobian():
    pair = lambda s, z: (z[0] + z[1], 2.0 * (z[0] + z[1]) + 1.0)
    with pytest.raises(Degenerate):
        ct.find_codim2(None, pair, (0.3, 0.2), (), None)


def test_reversible_bracket_must_change_sign():
    sys_ = vf.builtin("revers_gamma")
    with pytest.raises(BracketError):
        ct.find_reversible_contour(sys_, (3.0, 3.1))


@pytest.mark.parametrize("segment,samples,k_max", [
    (((-0.0531, 0.0), (0.45, 0.0)), 23, 5),
    # zeros at t = 0.2 k: most of them sit exactly on a sample
    (((0.0, 0.0), (0.5, 0.0)), 6, 4),
], ids=["between_samples", "on_samples"])
def test_flashing_series_analytic(segment, samples, k_max):
    # gap(point, k) = x - k/10: one zero per k, at x = k/10
    gap = lambda sys, p, k: p[0] - k / 10.0
    series = ct.flashing_series(None, gap, segment, k_max=k_max,
                                samples=samples)
    assert series.k_found == [0, 1, 2, 3, 4]
    for k, t, point, res in series.zeros:
        assert abs(point[0] - k / 10.0) < 1e-7
        assert abs(res) < 1e-6
    # a reason exactly when the series stopped short of k_max
    assert (series.truncated_reason is None) == (len(series.zeros) > k_max)


def test_flashing_series_stops_at_insufficient_winding():
    def gap(sys, p, k):
        if k >= 2:
            raise InsufficientWinding(k, 1)
        return p[0] - k / 10.0

    series = ct.flashing_series(None, gap, ((-0.0531, 0.0), (0.45, 0.0)),
                                k_max=5, samples=23)
    assert series.k_found == [0, 1]
    assert "2" in series.truncated_reason


def test_flashing_series_ends_at_a_failure_inside_the_bracket():
    # the 1-turn gap changes sign between two samples but cannot be
    # measured next to its zero: no zero may be reported for k = 1
    def gap(sys, p, k):
        if k == 1 and 0.0995 <= p[0] <= 0.1005:
            raise NoIntersection("branch missed the section")
        return p[0] - k / 10.0

    series = ct.flashing_series(None, gap, ((-0.0531, 0.0), (0.45, 0.0)),
                                k_max=5, samples=23)
    assert series.k_found == [0]
    reason = series.truncated_reason
    assert "1-turn" in reason and "NoIntersection" in reason
    t = float(reason.split("t = ")[1].split()[0])
    assert 0.0995 <= -0.0531 + t * 0.5031 <= 0.1005
