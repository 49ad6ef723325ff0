"""Return maps, cycle detection, multipliers."""
import math
from types import SimpleNamespace

import pytest

from hetcontour import connections as cn
from hetcontour import cycles as cy
from hetcontour import diagrams as dg
from hetcontour import equilibria as eq
from hetcontour import integrate as hi
from hetcontour.errors import NoCycleInBracket, NoIntersection, NoReturn


@pytest.fixture(scope="module")
def wedge_setup():
    # inside the wedge of the first monodromic subcase one stable cycle
    # surrounds the interior focus
    scn = dg.scenario("mono_first")
    th = math.radians(225.0)
    point = (2e-3 * math.cos(th), 2e-3 * math.sin(th))
    params = dg._params_at(scn, point)
    focus, _ = eq.find_equilibrium(scn.system, params, scn.focus_seed)
    section = hi.CrossSection.at(tuple(focus), (1.0, 0.0))
    return scn, params, section, focus


def test_find_cycle_in_wedge(wedge_setup):
    # the cycle born from the broken contour passes close to the contour
    # itself: its lower crossing sits at height ~4e-4 above the axis
    scn, params, section, focus = wedge_setup
    bracket = (1e-4 - focus[1], 1e-3 - focus[1])
    cyc = cy.find_cycle(scn.system, params, section, bracket)
    assert cyc.stability is cy.Stability.STABLE
    assert 0.0 < cyc.multiplier < 1.0
    assert cyc.period > 0
    # the fixed point is genuinely fixed under the return map
    p = cy.return_map(scn.system, params, section, cyc.fixed_point)
    assert abs(p - cyc.fixed_point) < 1e-7


def test_displacement_sign_flips_across_cycle(wedge_setup):
    scn, params, section, focus = wedge_setup
    bracket = (1e-4 - focus[1], 1e-3 - focus[1])
    cyc = cy.find_cycle(scn.system, params, section, bracket)
    g = lambda x: cy.return_map(scn.system, params, section, x) - x
    delta = 1e-4
    below, above = g(cyc.fixed_point - delta), g(cyc.fixed_point + delta)
    # multiplier < 1: displacement attracts toward the cycle from both sides
    assert below > 0 > above


def test_no_cycle_without_sign_change(wedge_setup):
    scn, params, section, focus = wedge_setup
    with pytest.raises(NoCycleInBracket):
        cy.find_cycle(scn.system, params, section,
                      (0.005 - focus[1], 0.05 - focus[1]))


def _counted_poincare_map(monkeypatch, stub=None):
    """Patch ``hi.poincare_map`` to record the start of every call."""
    calls = []
    inner = stub or hi.poincare_map

    def counted(sys, params, section, x0, *args, **kwargs):
        calls.append(section.coord(x0))
        return inner(sys, params, section, x0, *args, **kwargs)
    monkeypatch.setattr(hi, "poincare_map", counted)
    return calls


def test_find_cycle_integrates_each_point_once(wedge_setup, monkeypatch):
    # the period is the return time of the solver's own last iterate, so
    # no start is integrated twice, and the cycle is the one an extra
    # integration at the root would give
    scn, params, section, focus = wedge_setup
    bracket = (1e-4 - focus[1], 1e-3 - focus[1])
    calls = _counted_poincare_map(monkeypatch)
    cyc = cy.find_cycle(scn.system, params, section, bracket)
    assert len(calls) == len(set(calls))
    monkeypatch.undo()
    _, period = hi.poincare_map(scn.system, params, section,
                                section.point_at(cyc.fixed_point), 500.0)
    assert cyc == cy.LimitCycle(
        section, cyc.fixed_point, period,
        cy.multiplier(scn.system, params, section, cyc.fixed_point),
        cy.Stability.STABLE)


def test_fixed_points_scan_finds_the_cycle(wedge_setup, monkeypatch):
    scn, params, section, focus = wedge_setup
    calls = _counted_poincare_map(monkeypatch)
    found = cy.fixed_points(scn.system, params, section,
                            (1e-4 - focus[1], 1e-3 - focus[1]), samples=12)
    assert len(found) == 1
    # 12 samples, the solver's iterates and 2 for the multiplier: neither
    # the cell's end values nor the root (for its period) are integrated
    # again
    assert len(calls) <= 17


def test_fixed_points_take_a_zero_sample_once(monkeypatch):
    # P(x) - x = (0.5 - x) / 2 is zero at the middle sample of (0, 1)
    section = hi.CrossSection.at((0.0, 0.0), (1.0, 0.0))
    stub = lambda sys, params, sec, x0, *args, **kwargs: (
        0.25 + sec.coord(x0) / 2, 1.0)
    calls = _counted_poincare_map(monkeypatch, stub)
    found = cy.fixed_points(None, {}, section, (0.0, 1.0), samples=5)
    assert [c.fixed_point for c in found] == [0.5]
    assert found[0].multiplier == pytest.approx(0.5)
    assert found[0].stability is cy.Stability.STABLE
    # 5 samples and 2 for the multiplier; the period is the zero sample's
    assert len(calls) == 7
    assert found[0].period == 1.0


def test_flow_cycle_counts_change_into_wedge():
    # on the ring of radius 2e-3, P_L crosses at 176.75 deg and P_M at
    # 270.12 deg; next to P_M the cycle hugs the edge of the broken contour
    scn = dg.scenario("mono_first")
    angles = (170.0, 176.0, 178.0, 225.0, 260.0, 265.0, 270.0, 271.0, 275.0,
              280.0)
    counts = []
    for theta in angles:
        th = math.radians(theta)
        counts.append(dg.flow_cycle_count(
            scn, (2e-3 * math.cos(th), 2e-3 * math.sin(th))))
    assert counts == [0, 0, 1, 1, 1, 1, 1, 0, 0, 0]


def test_flow_cycle_count_counts_a_zero_sample(monkeypatch):
    # the displacement is zero at one sample and positive at the others
    scn = dg.scenario("mono_first")
    point = (2e-3 * math.cos(math.radians(225.0)),
             2e-3 * math.sin(math.radians(225.0)))
    xs = []
    monkeypatch.setattr(cy, "return_map", lambda sys, params, section, x,
                        **kwargs: xs.append(x) or x + 1.0)
    assert dg.flow_cycle_count(scn, point) == 0
    assert len(xs) == dg.CYCLE_SAMPLES
    monkeypatch.setattr(cy, "return_map", lambda sys, params, section, x,
                        **kwargs: x + abs(x - xs[5]))
    assert dg.flow_cycle_count(scn, point) == 1


def test_flow_cycle_count_needs_an_edge_below_the_focus(monkeypatch):
    # both edge branches hit the focus line only far above the focus, so
    # there is no window to count on
    scn = dg.scenario("mono_first")
    monkeypatch.setattr(cn, "recipe_curve", lambda *args, **kwargs:
                        SimpleNamespace(event_hits=[(0, 1.0, (0.7, 10.0))]))
    with pytest.raises(NoIntersection, match="below"):
        dg.flow_cycle_count(scn, (-1.4e-3, -1.4e-3))


def _count_rk_steps(monkeypatch):
    steps = []
    integrate = hi.integrate

    def counted(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        steps.append(len(traj.t) - 1)
        return traj
    monkeypatch.setattr(hi, "integrate", counted)
    return steps


def test_cycle_count_stops_samples_that_cannot_return(monkeypatch):
    # at 58.92 deg on the mono_first ring, 7 of the 8 samples escape, and a
    # start 1e-4 above the axis falls into the stable node near (4/3, -4/9);
    # followed to max_time and to |z| = 1e6, such starts made a count cost
    # 4 760 RK steps, where about 500 suffice with both edge branches
    scn = dg.scenario("mono_first")
    th = math.radians(58.92)
    point = (2e-3 * math.cos(th), 2e-3 * math.sin(th))
    steps = _count_rk_steps(monkeypatch)
    assert dg.flow_cycle_count(scn, point) == 0
    assert sum(steps) <= 2500
    monkeypatch.undo()
    params = dg._params_at(scn, point)
    focus, _ = eq.find_equilibrium(scn.system, params, scn.focus_seed)
    section = hi.CrossSection.at(tuple(focus), (1.0, 0.0))
    low = 1e-4 - focus[1]
    with pytest.raises(NoReturn, match=r"captured by the sink at "
                                       r"\(1\.33283, -0\.444022\) by t = 31\.25"):
        cy.return_map(scn.system, params, section, low, tol=dg.CYCLE_TOL)
