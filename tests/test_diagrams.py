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
        assert scn.recipes
        # the model map is read at the first H_L start
        assert any(s.tag is CurveTag.H_L for s in scn.curves)
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


def test_model_map_wiring():
    heart = dg.model_map_for(dg.scenario("heart"))
    assert heart.orientation is mm.Orientation.NON_MONODROMIC
    assert 1.0 < heart.lam < heart.mu
    first = dg.model_map_for(dg.scenario("mono_first"))
    assert first.orientation is mm.Orientation.MONODROMIC
    assert first.lam == first.mu == 2.0


def test_mono_second_diagram_has_no_failures():
    d = dg.assemble_diagram(dg.scenario("mono_second"), k_max=0,
                            max_points=3)
    assert d.failures == {}


def test_model_map_failure_is_recorded():
    # with no H_L start there is no contour point to read the map at
    scn = replace(dg.scenario("mono_second"), curves=())
    d = dg.assemble_diagram(scn, k_max=0)
    assert d.model_curves == []
    assert list(d.failures) == ["model_map"]
    assert d.failures["model_map"].startswith("NotFound: ")


def test_model_bifurcation_set_of_second_subcase_has_fold():
    curves = dg.model_bifurcation_set(dg.scenario("mono_second"), k_max=1)
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
    curves = dg.model_bifurcation_set(dg.scenario("mono_second"), k_max=2)
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
    start = dg.CurveStart(CurveTag.H_L, "axis", 2e-3, (20.0, 30.0))
    with pytest.raises(BracketError):
        dg.find_curve_start(scn, start)


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
    scn = dg.scenario("heart")
    for start in scn.curves:
        calls.clear()
        z = dg.find_curve_start(scn, start)
        assert 2 < len(calls) <= 8
        gap = dg.gap_function(scn, start.recipe, k=start.k)(scn.system, z)
        assert abs(gap) < 1e-9
