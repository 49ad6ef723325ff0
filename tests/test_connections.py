"""Connection splitting gaps: signs, winding stability, failure modes."""
import dataclasses

import numpy as np
import pytest

from hetcontour import connections as cn
from hetcontour import diagrams as dg
from hetcontour import equilibria as eq
from hetcontour import integrate as hi
from hetcontour import manifolds as mf
from hetcontour import modelmap as mm
from hetcontour import vectorfield as vf
from hetcontour.errors import HetContourError, NoIntersection


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


def test_gap_is_no_intersection_where_its_row_has_no_winding_0_gap(
        monkeypatch):
    monkeypatch.setattr(cn, "splitting", lambda *args: (np.nan,))
    scn = dg.scenario("mono_first")
    with pytest.raises(NoIntersection, match="no section hit at winding 0"):
        dg.gap_function(scn, "axis")(scn.system, (0.0, 0.0))


def test_winding_count_tolerance_stable():
    # a one-turn connection point near C1 keeps its winding count when the
    # integration tolerance is halved
    scn = dg.scenario("heart")
    params = dg._params_at(scn, (0.410402, -0.436038))
    recipe = scn.recipes["LM_low"]
    for tol in ((1e-9, 1e-9), (5e-10, 5e-10)):
        assert np.isfinite(cn.splitting(scn.system, params, recipe, 1,
                                        tol)[1])
        # a row grown on to 3 turns: a gap at 1 turn, none at 3
        row = cn.splitting(scn.system, params, recipe, 3, tol)
        assert np.isfinite(row[1]) and np.isnan(row[3])


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
    hits = [(0, t, tuple(spiral(t))) for t in (0.5, 0.9, 1.0)]
    assert cn._winding_at(traj, (0.0, 0.0), hits) == [0, 1, 1]


def _splitting_from_all_hits(sys, params, recipe, k, tol):
    """``splitting`` computed the long way: both branches run to their caps
    with no terminal event, and the hits are picked afterwards."""
    p = sys.full_params(params)
    source, target = (
        eq.saddle_data(sys, p, eq.find_equilibrium(sys, p, seed)[0])
        for seed in (recipe.source_seed, recipe.target_seed))
    section = hi.CrossSection.transverse_to_flow(sys, p, recipe.section_base)

    def hits(saddle, kind, side):
        br = mf.grow_branch(sys, p, saddle, kind, side,
                            arclength_cap=recipe.arclength_cap,
                            events=[section],
                            directions=[recipe.crossing_direction],
                            terminal=[], tol=tol, time_cap=recipe.time_cap)
        return br.curve, br.curve.event_hits

    curve, uhits = hits(source, mf.Kind.UNSTABLE, recipe.source_side)
    if not uhits:
        raise NoIntersection("unstable branch never met the section")
    winds = cn._winding_at(curve, source.location, uhits)
    firsts = [next((z for (_, _, z), w in zip(uhits, winds) if w == want),
                   None) for want in range(k + 1)]
    _, shits = hits(target, mf.Kind.STABLE, recipe.target_side)
    if not shits:
        raise NoIntersection("stable branch never met the section")
    s = section.coord(shits[0][2])
    return tuple(np.nan if z is None else float(section.coord(z) - s)
                 for z in firsts)


def _outcome(fn):
    # a row by its repr, so that rows compare bit for bit, NaN included
    try:
        return repr(fn())
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
    tol = (1e-10, 1e-10)
    for k in (0, 1):
        got = _outcome(lambda: cn.splitting(scn.system, params, recipe, k,
                                            tol))
        want = _outcome(lambda: _splitting_from_all_hits(
            scn.system, params, recipe, k, tol))
        assert got == want, (k, got, want)


def test_k_turn_branch_stops_after_its_hit(monkeypatch):
    # a k > 0 unstable branch ends at the window that brought its winding-k
    # hit: fewer steps, and the gap of the branch grown to its end
    scn = dg.scenario("heart")
    params = dg._params_at(scn, (0.410402, -0.436038))
    recipe = scn.recipes["LM_low"]
    tol = (1e-10, 1e-10)
    grown = []
    grow = mf.grow_branch

    def recorded(*args, **kwargs):
        grown.append(grow(*args, **kwargs))
        return grown[-1]
    monkeypatch.setattr(mf, "grow_branch", recorded)

    row = cn.splitting(scn.system, params, recipe, 1, tol)
    stopped = grown[0].curve
    grown.clear()
    want = _splitting_from_all_hits(scn.system, params, recipe, 1, tol)
    assert np.isfinite(row).all() and row == want
    assert stopped.termination is hi.Termination.ENOUGH_HITS
    assert len(stopped.t) < len(grown[0].curve.t)


def test_monodromic_oracle():
    # mono_perturbed at alpha = epsilon = 0, c = 3/2: J(L) = [[1, -3],
    # [0, -2]] at the origin and J(M) = [[-1, c - 3], [0, 2 - c]] at (1, 0),
    # so by hand v_u(L) = (1, 0), v_s(L) = (1, 1) / sqrt 2, v_s(M) = (1, 0)
    # and v_u(M) = (1, -1) / sqrt 2.  The axis leaves L to the right and
    # enters M from the left; the parabola leaves M up-left and enters L
    # from the upper right: both saddles turn counterclockwise.
    r = 1 / np.sqrt(2)
    L = eq.Saddle((0.0, 0.0), -2.0, 1.0, (r, r), (1.0, 0.0))
    M = eq.Saddle((1.0, 0.0), -1.0, 0.5, (1.0, 0.0), (r, -r))
    scn = dg.scenario("mono_first")
    sys_ = scn.system
    p = sys_.full_params(scn.base_params)
    for hand in (L, M):
        flow = eq.saddle_data(sys_, p, hand.location)
        assert np.allclose(np.hstack(dataclasses.astuple(flow)),
                           np.hstack(dataclasses.astuple(hand)), atol=1e-12)
    axis, parabola = scn.recipes["axis"], scn.recipes["parabola"]
    assert cn.monodromic(L, M, axis, parabola) is True
    flipped = dataclasses.replace(parabola, target_side=-parabola.target_side)
    assert cn.monodromic(L, M, axis, flipped) is False
    heart = dg.scenario("heart")
    point = dg.contour_point(heart, heart.codim2[0])
    assert cn.monodromic(point.saddle_L, point.saddle_M,
                         *(heart.recipes[n] for n in heart.codim2[0].recipes)
                         ) is False


# (lam, mu) of each scenario's model map: the indices of L and M, in order
PINNED_INDICES = {"mono_first": (2.0, 2.0), "mono_second": (2.0, 2.0 / 3.0),
                  "heart": (1.0175, 1.2674)}


@pytest.mark.parametrize("scenario, system, params, seed_M, monodromic", [
    ("mono_first", "mono_unperturbed", {"c": 1.5}, (1.0, 0.0), True),
    ("mono_second", "mono_unperturbed", {"c": 0.5}, (1.0, 0.0), True),
    ("heart", "diss_heart", {}, (-0.57, -2.6), False),
])
def test_model_map_orientation_and_indices_at_first_contour_point(
        scenario, system, params, seed_M, monodromic):
    # each scenario's model map, derived at its first contour point: its
    # orientation, and its indices against the saddles of the flow there;
    # empty params stand for the located contour point (heart's C1)
    sys_ = vf.builtin(system)
    scn = dg.scenario(scenario)
    point = dg.contour_point(scn, scn.codim2[0])
    if not params:
        params = dg._params_at(scn, point.location)
    p = sys_.full_params(params)
    L, M = (eq.saddle_data(sys_, p, eq.find_equilibrium(sys_, p, seed)[0])
            for seed in ((0.0, 0.0), seed_M))
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
    dg.gap_function(scn, "LM_low")(scn.system, (0.422438, -0.452011))
    assert len(solves) == 2          # the recipe's two saddles
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
    dg.gap_function(scn, "LM_low")(scn.system, (0.422438, -0.452011))
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


# gap_gradient's test points: every recipe of the three scenarios, at the
# contour points and up to 0.1 off them; the homoclinic recipes where their
# branch meets its section, about the P curves
GRADIENT_POINTS = [
    ("heart", recipe, point)
    for recipe in ("LM_low", "ML_low")
    for point in ((0.4224379964, -0.4520108994), (0.5, -0.5), (0.3, -0.35))
] + [
    ("heart", recipe, point)
    for recipe in ("LM_up", "ML_up")
    for point in ((-0.4224379963, 0.4520108994), (-0.5, 0.5))
] + [
    (name, recipe, point)
    for name in ("mono_first", "mono_second")
    for recipe in ("axis", "parabola")
    for point in ((0.0, 0.0), (-0.007071, 0.007071))
] + [
    ("mono_first", "loop_L", (-0.001992, 0.000174)),
    ("mono_first", "loop_L", (-0.001414, -0.001414)),
    ("mono_first", "loop_M", (-0.001414, -0.001414)),
    ("mono_first", "loop_M", (0.001, -0.001732)),
    ("mono_second", "loop_L", (-0.02, 0.0)),
    ("mono_second", "loop_L", (-0.014142, -0.014142)),
    ("mono_second", "loop_M", (-0.014142, -0.014142)),
    ("mono_second", "loop_M", (0.01, -0.017321)),
]


@pytest.mark.parametrize("name,recipe_name,point", GRADIENT_POINTS)
def test_gap_gradient_matches_central_differences(name, recipe_name, point):
    # the differences over h = 1e-5 of gaps measured at a tolerance of
    # 1e-12 agree to 1.6e-7 or better; the bound of 1e-6 still sees the
    # saddle-to-seed term, 1.5e-6 of the gradient on heart
    scn = dg.scenario(name)
    recipe = scn.recipes[recipe_name]
    at = lambda z: dg._params_at(scn, z)
    gap, grad = cn.gap_gradient(scn.system, at(point), recipe, scn.active)
    assert gap == cn.splitting(scn.system, at(point), recipe)[0]
    h, tol = 1e-5, (1e-12, 1e-12)
    diff = [(cn.splitting(scn.system, at(np.add(point, step)), recipe, 0,
                          tol)[0]
             - cn.splitting(scn.system, at(np.subtract(point, step)), recipe,
                            0, tol)[0]) / (2 * h)
            for step in ((h, 0.0), (0.0, h))]
    assert np.linalg.norm(grad - diff) <= 1e-6 * np.linalg.norm(grad)


def test_gap_gradient_has_no_winding_0_gap_where_splitting_has_none(
        monkeypatch):
    # splitting's row with no winding-0 hit: NoIntersection, as gap_function
    scn = dg.scenario("mono_first")
    measure = cn._measure
    monkeypatch.setattr(cn, "_measure", lambda *a: ((np.nan,),
                                                    measure(*a)[1]))
    with pytest.raises(NoIntersection, match="no section hit at winding 0"):
        cn.gap_gradient(scn.system, dg._params_at(scn, (0.0, 0.0)),
                        scn.recipes["axis"], scn.active)


def test_gauss_legendre_constants():
    # the nodes and weights on [0, 1], and the integrals from 0 to each node
    # of the Lagrange basis polynomials of the nodes
    from numpy.polynomial import legendre

    xi, w = legendre.leggauss(8)
    assert np.allclose(cn.GL_NODES, (1 + xi) / 2, rtol=0, atol=1e-15)
    assert np.allclose(cn.GL_WEIGHTS, w / 2, rtol=0, atol=1e-15)
    basis = np.linalg.inv(legendre.legvander(xi, 7))
    cumulative = np.array([[legendre.legval(x, legendre.legint(basis[:, j],
                                                               lbnd=-1)) / 2
                            for j in range(8)] for x in xi])
    assert np.allclose(cn.GL_CUMULATIVE, cumulative, rtol=0, atol=1e-14)
