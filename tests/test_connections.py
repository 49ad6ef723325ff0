"""Connection splitting gaps: signs, winding stability, failure modes."""
import numpy as np
import pytest

from hetcontour import connections as cn
from hetcontour import diagrams as dg
from hetcontour import equilibria as eq
from hetcontour import integrate as hi
from hetcontour import manifolds as mf
from hetcontour import modelmap as mm
from hetcontour import vectorfield as vf
from hetcontour.errors import (HetContourError, InsufficientWinding,
                               NoIntersection, StiffnessError)


@pytest.fixture(scope="module")
def mono_first():
    return dg.scenario("mono_first")


def test_unperturbed_gaps_vanish(mono_first):
    scn = mono_first
    for recipe in ("axis", "parabola"):
        g = dg.gap_function(scn, recipe)
        assert abs(g(scn.system, (0.0, 0.0))) < 1e-8


def test_gap_sign_flips_with_alpha(mono_first):
    # the axis connection splits to opposite sides for opposite alpha
    scn = mono_first
    g = dg.gap_function(scn, "axis")
    plus = g(scn.system, (1e-4, 0.0))
    minus = g(scn.system, (-1e-4, 0.0))
    assert plus * minus < 0
    mid = g(scn.system, (5e-5, 0.0))
    assert min(plus, minus) < mid < max(plus, minus)


def test_gap_linear_near_zero(mono_first):
    scn = mono_first
    g = dg.gap_function(scn, "axis")
    g1 = g(scn.system, (1e-4, 0.0))
    g2 = g(scn.system, (2e-4, 0.0))
    assert abs(g2 / g1 - 2.0) < 0.05


def test_no_intersection_when_branch_misses(mono_first):
    # at positive alpha the loop of L opens away from the parabola section
    scn = mono_first
    g = dg.gap_function(scn, "loop_L")
    with pytest.raises(NoIntersection):
        g(scn.system, (0.001, 0.0005))


def test_winding_count_tolerance_stable():
    # a one-turn connection point near C1 keeps its winding count when the
    # integration tolerance is halved
    scn = dg.scenario("heart")
    point = (0.410402, -0.436038)
    for tol in ((1e-9, 1e-9), (5e-10, 5e-10)):
        split = dg._splitting_function(scn, "LM_low", False, tol)
        assert np.isfinite(split(scn.system, point, 1).gap)
        with pytest.raises(InsufficientWinding):
            split(scn.system, point, 3)
        # the flashing row of the same branch: a gap at 1 turn, none at 3
        row = dg._splitting_function(scn, "LM_low", True, tol)(
            scn.system, point, 3)
        assert np.isfinite(row[1]) and np.isnan(row[3])


def test_splitting_result_fields(mono_first):
    scn = mono_first
    params = dg._params_at(scn, (1e-4, 0.0))
    recipe = scn.recipes["axis"]
    src, tgt, sec = dg._build_spec(scn.system, params, recipe)
    spec = cn.ConnectionSpec(src, tgt, sec, recipe.source_side,
                             recipe.target_side,
                             crossing_direction=recipe.crossing_direction)
    res = cn.splitting(scn.system, params, spec)
    assert res.transversal is True
    assert res.winding_count == 0
    assert abs(res.gap - (res.unstable_coord - res.stable_coord)) < 1e-14


def test_winding_count_follows_a_step_that_turns_one_and_a_half_times():
    # one step whose orbit turns 3 pi around the origin, most of it late in
    # the step: split into four equal pieces, its last piece turns 1.31 pi,
    # which unwraps the wrong way round and loses the turn
    def spiral(t):
        angle = 3 * np.pi * np.asarray(t, float) ** 2
        return np.array([np.cos(angle), np.sin(angle)])
    ends = np.array([0.0, 1.0])
    traj = hi.Trajectory(ends, spiral(ends).T, spiral,
                         hi.Termination.TIME_LIMIT, [])
    assert cn._winding_at(traj, (0.0, 0.0), [0.5, 0.9, 1.0]) == [0, 1, 1]


def _splitting_from_all_hits(sys, params, spec, tol, arclength_cap,
                             time_cap, transversality_min=1e-8):
    """``splitting`` computed the long way: both branches run to their caps
    with no terminal event, and the hits are picked afterwards."""
    p = sys.full_params(params)
    center = spec.source.location

    def hits(saddle, kind, side):
        br = mf.grow_branch(sys, p, saddle, kind, side,
                            arclength_cap=arclength_cap,
                            events=[spec.section],
                            directions=[spec.crossing_direction],
                            terminal=[], tol=tol, time_cap=time_cap)
        return br.curve, br.curve.event_hits

    curve, uhits = hits(spec.source, mf.Kind.UNSTABLE, spec.source_side)
    if not uhits:
        raise NoIntersection("unstable branch never met the section")
    winds = cn._winding_at(curve, center, [h[1] for h in uhits])
    chosen = [(z, w) for (_, _, z), w in zip(uhits, winds)
              if w == spec.winding_count]
    if not chosen:
        if spec.winding_count == 0:
            raise NoIntersection("no section hit at winding 0")
        raise InsufficientWinding(spec.winding_count, max(winds))
    z_u, w_u = chosen[0]
    _, shits = hits(spec.target, mf.Kind.STABLE, spec.target_side)
    if not shits:
        raise NoIntersection("stable branch never met the section")
    z_s = shits[0][2]
    n = spec.section.normal
    fu, fs = sys.rhs(*z_u, p), sys.rhs(*z_s, p)
    u, s = spec.section.coord(z_u), spec.section.coord(z_s)
    return cn.SplittingResult(
        float(u - s), w_u,
        abs(fu[0] * n[0] + fu[1] * n[1]) > transversality_min
        and abs(fs[0] * n[0] + fs[1] * n[1]) > transversality_min,
        float(u), float(s))


def _outcome(fn):
    try:
        return fn()
    except HetContourError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name,recipe_name,point", [
    ("heart", "LM_low", (0.422438, -0.452011)),
    ("heart", "LM_low", (0.410402, -0.436038)),
    ("heart", "ML_low", (0.422438, -0.452011)),
    ("heart", "ML_low", (0.435, -0.47)),
    ("mono_first", "axis", (1e-4, 5e-5)),
    ("mono_first", "parabola", (1e-4, 5e-5)),
])
def test_first_hit_gaps_match_all_hits(name, recipe_name, point):
    # stopping a branch at its first section hit must not change the gap
    scn = dg.scenario(name)
    params = dg._params_at(scn, point)
    recipe = scn.recipes[recipe_name]
    src, tgt, sec = dg._build_spec(scn.system, params, recipe)
    tol = (1e-10, 1e-10)
    for k in (0, 1):
        spec = cn.ConnectionSpec(src, tgt, sec, recipe.source_side,
                                 recipe.target_side, winding_count=k,
                                 crossing_direction=recipe.crossing_direction)
        caps = dict(tol=tol, arclength_cap=recipe.arclength_cap,
                    time_cap=recipe.time_cap)
        got = _outcome(lambda: cn.splitting(scn.system, params, spec,
                                            **caps))
        want = _outcome(lambda: _splitting_from_all_hits(
            scn.system, params, spec, **caps))
        assert got == want, (k, got, want)


def test_k_turn_branch_stops_after_its_hit(monkeypatch):
    # a k > 0 unstable branch ends at the window that brought its winding-k
    # hit: fewer steps, and the gap of the branch grown to its end
    scn = dg.scenario("heart")
    params = dg._params_at(scn, (0.410402, -0.436038))
    recipe = scn.recipes["LM_low"]
    src, tgt, sec = dg._build_spec(scn.system, params, recipe)
    spec = cn.ConnectionSpec(src, tgt, sec, recipe.source_side,
                             recipe.target_side, winding_count=1,
                             crossing_direction=recipe.crossing_direction)
    caps = dict(tol=(1e-10, 1e-10), arclength_cap=recipe.arclength_cap,
                time_cap=recipe.time_cap)
    grown = []
    grow = mf.grow_branch

    def recorded(*args, **kwargs):
        grown.append(grow(*args, **kwargs))
        return grown[-1]
    monkeypatch.setattr(mf, "grow_branch", recorded)

    got = cn.splitting(scn.system, params, spec, **caps)
    row = cn.splitting(scn.system, params, spec, every_winding=True, **caps)
    stopped = grown[0].curve
    grown.clear()
    want = _splitting_from_all_hits(scn.system, params, spec, **caps)
    assert got.gap == want.gap == row[1]
    assert stopped.termination is hi.Termination.ENOUGH_HITS
    assert len(stopped.t) < len(grown[0].curve.t)


def test_probe_stops_on_toolkit_errors_only(monkeypatch):
    # a failed probe integration means "no accumulation"; any other
    # exception is a bug and must surface
    contour = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.25]])
    scn = dg.scenario("mono_first")
    params = scn.system.full_params(scn.base_params)

    def stiff(*args, **kwargs):
        raise StiffnessError("step size underflow")
    monkeypatch.setattr(cn.hi, "integrate", stiff)
    assert cn._probe_accumulates(scn.system, params, (0.5, 0.1), contour,
                                 (1e-9, 1e-9)) is False

    def broken(*args, **kwargs):
        raise ZeroDivisionError
    monkeypatch.setattr(cn.hi, "integrate", broken)
    with pytest.raises(ZeroDivisionError):
        cn._probe_accumulates(scn.system, params, (0.5, 0.1), contour,
                              (1e-9, 1e-9))


# (lam, mu) of each scenario's model map: the indices of L and M, in order
PINNED_INDICES = {"mono_first": (2.0, 2.0), "mono_second": (2.0, 2.0 / 3.0),
                  "heart": (1.0175, 1.2674)}


@pytest.mark.parametrize("scenario, system, params, seed_M, monodromic", [
    ("mono_first", "mono_unperturbed", {"c": 1.5}, (1.0, 0.0), True),
    ("mono_second", "mono_unperturbed", {"c": 0.5}, (1.0, 0.0), True),
    ("heart", "diss_heart", {}, (-0.57, -2.6), False),
])
def test_classify_contour_matches_model_indices(scenario, system, params,
                                                seed_M, monodromic):
    # each scenario's contour, classified from the flow, against the
    # orientation and saddle indices of the model map derived for it; empty
    # params stand for the located contour point (heart's C1)
    sys_ = vf.builtin(system)
    scn = dg.scenario(scenario)
    point = dg.contour_point(scn, scn.codim2[0])
    if not params:
        params = dg._params_at(scn, point.location)
    p = sys_.full_params(params)
    L, M = (eq.saddle_data(sys_, p, eq.find_equilibrium(sys_, p, seed)[0])
            for seed in ((0.0, 0.0), seed_M))
    res = cn.classify_contour(sys_, p, L, M)
    assert res.monodromic is monodromic
    assert res.probe_agrees is True
    m = dg.model_map_for(scn, point)
    assert (m.orientation is mm.Orientation.MONODROMIC) is monodromic
    assert (m.lam, m.mu) == pytest.approx(PINNED_INDICES[scenario], abs=1e-4)
    assert (m.lam, m.mu) == pytest.approx((L.index, M.index), abs=1e-10)


def test_chunk_end_sink_checks_make_no_newton_solve(monkeypatch,
                                                   watch_ends):
    # one LM_low gap on heart: three window checks of its two branch runs
    # go on, and each of their sink checks stops at the cheap filter
    scn = dg.scenario("heart")
    steps, solves = [], []
    integrate, find = hi.integrate, eq.find_equilibrium

    def counted(*args, **kwargs):
        traj = integrate(*args, **kwargs)
        steps.append(len(traj.t) - 1)
        return traj
    monkeypatch.setattr(hi, "integrate", counted)
    monkeypatch.setattr(eq, "find_equilibrium",
                        lambda *a, **k: solves.append(a) or find(*a, **k))
    split = dg._splitting_function(scn, "LM_low", False)
    split(scn.system, (0.422438, -0.452011), 0)
    assert len(solves) == 2          # the spec's two saddles
    assert len(watch_ends) == 3
    assert sum(steps) == 59


def test_one_integration_per_orbit(monkeypatch):
    # a gap integrates each of its two branches once, and a return map its
    # orbit once, however many windows the orbit takes
    calls = []
    integrate = hi.integrate
    monkeypatch.setattr(hi, "integrate",
                        lambda *a, **k: calls.append(1) or integrate(*a, **k))
    scn = dg.scenario("heart")
    split = dg._splitting_function(scn, "LM_low", False)
    split(scn.system, (0.422438, -0.452011), 0)
    assert len(calls) == 2
    calls.clear()
    # x' = -16 y, y' = x / 16 returns to x = 0 after 2 pi, in the seventh
    # window of 1
    ellipse = vf.from_dict({
        "name": "ellipse", "parameters": [],
        "x_dot": [{"coeff": "-16", "px": 0, "py": 1}],
        "y_dot": [{"coeff": "1/16", "px": 1, "py": 0}]})
    sec = hi.CrossSection.at((0.0, 0.0), (1.0, 0.0))
    _, period = hi.poincare_map(ellipse, {}, sec, (0.0, 1.0), 16.0)
    assert period == pytest.approx(2 * np.pi, rel=1e-8)
    assert len(calls) == 1
