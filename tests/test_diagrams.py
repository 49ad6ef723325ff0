"""Scenario registry, model-map wiring, distances, counting windows."""
import math
from dataclasses import replace

import numpy as np
import pytest

from hetcontour import connections as cn
from hetcontour import diagrams as dg
from hetcontour import modelmap as mm
from hetcontour import vectorfield as vf
from hetcontour.continuation import CurveTag
from hetcontour.errors import BracketError, NotFound


def test_scenario_registry():
    assert dg.scenario_names() == ["heart", "mono_first", "mono_second"]
    for name in dg.scenario_names():
        scn = dg.scenario(name)
        assert scn.name == name
        assert scn.recipes and scn.span > 0
        # every H curve starts at a contour point, where the model map is
        # read too; only the homoclinic curves start on an arc
        assert scn.codim2
        assert all(s.tag in (CurveTag.P_L, CurveTag.P_M) for s in scn.curves)
        names = [s.recipe for s in scn.curves]
        names += [r for seed in scn.codim2 for r in seed.recipes]
        assert set(names) <= set(scn.recipes)


def test_scenario_builds_only_its_own_system(monkeypatch):
    built = []
    init = vf.ParametricSystem.__init__

    def counting_init(self, name, *args, **kwargs):
        built.append(name)
        init(self, name, *args, **kwargs)
    monkeypatch.setattr(vf.ParametricSystem, "__init__", counting_init)
    # builtin shares one instance per name: start from none built
    vf.builtin.cache_clear()
    dg.scenario("heart")
    assert built == ["diss_heart"]


def test_unknown_scenario_rejected():
    with pytest.raises(NotFound):
        dg.scenario("nope")


def _first_point(scn):
    return dg.contour_point(scn, scn.codim2[0])


def test_model_map_wiring():
    scn = dg.scenario("heart")
    heart = dg.model_map_for(scn, _first_point(scn))
    assert heart.orientation is mm.Orientation.NON_MONODROMIC
    assert 1.0 < heart.lam < heart.mu
    scn = dg.scenario("mono_first")
    first = dg.model_map_for(scn, _first_point(scn))
    assert first.orientation is mm.Orientation.MONODROMIC
    assert first.lam == first.mu == 2.0


def test_mono_second_diagram_has_no_failures():
    d = dg.assemble_diagram(dg.scenario("mono_second"), k_max=0,
                            max_points=3)
    assert d.failures == {}


def test_model_map_failure_is_recorded():
    # with no codim-2 seed there is no contour point to read the map at,
    # nor one for the P_M arc to circle
    scn = replace(dg.scenario("mono_second"), codim2=())
    d = dg.assemble_diagram(scn, k_max=0)
    assert d.curves == [] and d.model_curves == []
    assert sorted(d.failures) == ["P_M[0]@loop_M", "model_map"]
    assert all(v.startswith("NotFound: ") for v in d.failures.values())


def test_heart_h_curves_start_at_their_contour_points():
    # each seed's H_L and H_M curves run through its located point
    d = dg.assemble_diagram(dg.scenario("heart"), k_max=0, max_points=2)
    assert d.failures == {} and len(d.codim2) == 2
    assert [c.tag for c in d.curves] == [CurveTag.H_L, CurveTag.H_M] * 2
    for i, curve in enumerate(d.curves):
        assert list(d.codim2[i // 2].location) in curve.points.tolist()


def test_model_bifurcation_set_of_second_subcase_has_fold():
    scn = dg.scenario("mono_second")
    curves = dg.model_bifurcation_set(scn, 1, _first_point(scn))
    tags = {c.tag for c in curves}
    assert {CurveTag.P_L, CurveTag.P_M, CurveTag.F,
            CurveTag.H_L, CurveTag.H_M} <= tags


def test_monodromic_model_set_evaluates_no_k_turn_condition(monkeypatch):
    # on a monodromic map H^(k), k >= 1, has no zero off the origin, so
    # the bifurcation set does not search for one
    calls = []

    def counting(cond):
        def counted(m, k):
            calls.append(k)
            return cond(m, k)
        return counted

    for name in ("condition_H_L", "condition_H_M"):
        monkeypatch.setattr(mm, name, counting(getattr(mm, name)))
    scn = dg.scenario("mono_second")
    curves = dg.model_bifurcation_set(scn, 2, _first_point(scn))
    assert {c.k for c in curves} == {0}
    assert calls and not [k for k in calls if k >= 1]


def test_hausdorff_properties():
    rng = np.random.RandomState(7)
    a = rng.rand(40, 2)
    assert dg.hausdorff(a, a) == 0.0
    shift = a + (0.3, 0.0)
    assert abs(dg.hausdorff(a, shift) - 0.3) < 1e-12
    b = rng.rand(25, 2)
    assert dg.hausdorff(a, b) == dg.hausdorff(b, a)


def test_cycle_window_absent_for_heart():
    with pytest.raises(NotFound):
        dg.flow_cycle_count(dg.scenario("heart"), (0.0, 0.0))


def test_curve_start_needs_a_sign_change():
    scn = dg.scenario("mono_first")
    start = dg.CurveStart(CurveTag.H_L, "axis", (20.0, 30.0))
    with pytest.raises(BracketError):
        dg.find_curve_start(scn, start, (0.0, 0.0))


def test_params_at_maps_to_declared_names():
    scn = dg.scenario("mono_first")
    params = dg._params_at(scn, (0.01, -0.02))
    assert math.isclose(params["alpha"], 0.01)
    assert math.isclose(params["epsilon"], -0.02)


def test_curve_start_gap_budget(monkeypatch):
    # Brent's method from the two arc-end gaps: a handful of gap
    # evaluations per start, where bisection to 1e-7 degrees took ~31
    calls = []
    splitting = cn.splitting

    def counted(*args, **kwargs):
        calls.append(args[1])
        return splitting(*args, **kwargs)
    monkeypatch.setattr(cn, "splitting", counted)
    for name in ("mono_first", "mono_second"):
        scn = dg.scenario(name)
        center = dg.contour_point(scn, scn.codim2[0]).location
        for start in scn.curves:
            calls.clear()
            z = dg.find_curve_start(scn, start, center)
            assert 2 < len(calls) <= 8
            gap = dg.gap_function(scn, start.recipe)(scn.system, z)
            assert abs(gap) < 1e-9
