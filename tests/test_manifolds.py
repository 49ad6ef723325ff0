"""Invariant-manifold branch growth: tangency, duality, termination."""
import numpy as np
import pytest

from hetcontour import connections as cn
from hetcontour import diagrams as dg
from hetcontour import equilibria as eq
from hetcontour import integrate as hi
from hetcontour import manifolds as mf
from hetcontour import vectorfield as vf


@pytest.fixture(scope="module")
def mono_saddle():
    sys_ = vf.builtin("mono_unperturbed")
    params = sys_.full_params()
    return sys_, params, eq.saddle_data(sys_, params, (0.0, 0.0))


def _arclengths(points):
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return np.concatenate([[0.0], np.cumsum(seg)])


@pytest.mark.parametrize("kind", [mf.Kind.UNSTABLE, mf.Kind.STABLE])
@pytest.mark.parametrize("side", [1, -1])
def test_branch_tangent_to_eigenvector(mono_saddle, kind, side):
    sys_, params, sad = mono_saddle
    br = mf.grow_branch(sys_, params, sad, kind, side, arclength_cap=0.1)
    v = np.asarray(sad.v_u if kind is mf.Kind.UNSTABLE else sad.v_s)
    d = br.points[min(5, len(br.points) - 1)] - np.asarray(sad.location)
    d = d / np.linalg.norm(d)
    angle = np.arccos(np.clip(abs(float(d @ v)), -1, 1))
    assert angle < 1e-3


def test_stable_unstable_duality_under_time_reversal(mono_saddle):
    sys_, params, sad = mono_saddle
    rev = sys_.time_reversed()
    sad_rev = eq.saddle_data(rev, params, (0.0, 0.0))
    a = mf.grow_branch(sys_, params, sad, mf.Kind.STABLE, 1,
                       arclength_cap=0.5)
    b = mf.grow_branch(rev, params, sad_rev, mf.Kind.UNSTABLE, 1,
                       arclength_cap=0.5)
    # the same curve traversed the same way: compare at matched arclengths
    sa, sb = _arclengths(a.points), _arclengths(b.points)
    s_common = np.linspace(0.0, min(sa[-1], sb[-1]) * 0.99, 50)
    for axis in (0, 1):
        va = np.interp(s_common, sa, a.points[:, axis])
        vb = np.interp(s_common, sb, b.points[:, axis])
        assert np.max(np.abs(va - vb)) < 1e-6


def test_branch_moves_away_from_saddle(mono_saddle):
    sys_, params, sad = mono_saddle
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, 1,
                        arclength_cap=0.3)
    d = np.linalg.norm(br.points - np.asarray(sad.location), axis=1)
    assert d[-1] > 0.2


def test_sides_are_distinct(mono_saddle):
    sys_, params, sad = mono_saddle
    plus = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, 1,
                          arclength_cap=0.2)
    minus = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, -1,
                           arclength_cap=0.2)
    assert np.linalg.norm(plus.points[-1] - minus.points[-1]) > 0.1


def test_section_event_recorded(mono_saddle):
    sys_, params, sad = mono_saddle
    sec = hi.CrossSection.at((0.5, 0.0), (1.0, 0.0))   # the line x = 0.5
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, 1,
                        arclength_cap=5.0, events=[sec], directions=[0],
                        terminal=[])
    assert br.curve.event_hits
    # the x-axis is invariant: the unstable branch along it hits (0.5, 0)
    _, _, z = br.curve.event_hits[0]
    assert abs(z[0] - 0.5) < 1e-9 and abs(z[1]) < 1e-6


def test_equilibrium_approach_termination(mono_saddle):
    sys_, params, sad = mono_saddle
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, 1,
                        arclength_cap=50.0, equilibria=[(1.0, 0.0)],
                        equilibrium_radius=1e-6)
    assert br.curve.termination is hi.Termination.EQUILIBRIUM_APPROACH


def test_chained_interpolant_matches_samples(mono_saddle, monkeypatch,
                                             watch_ends):
    sys_, params, sad = mono_saddle
    monkeypatch.setattr(mf, "CHUNK", 0.5)
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, 1,
                        arclength_cap=5.0)
    # the check means something only if the run was read between windows
    assert len(watch_ends) > 1
    ts = br.curve.t
    zs = br.curve.interpolant(ts)
    assert np.max(np.abs(zs.T - br.points)) < 1e-9


def test_branch_into_focus_ends_settled(watch_ends):
    # one unstable branch of the origin of the reversible family spirals into
    # the stable focus at (-1, 0); it must stop there, not crawl to time_cap
    sys_ = vf.builtin("revers_gamma")
    params = sys_.full_params({"gamma": 2.5315})
    sad = eq.saddle_data(sys_, params, (0.0, 0.0))
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, -1,
                        arclength_cap=30.0)
    assert br.curve.termination is hi.Termination.SETTLED
    assert np.linalg.norm(br.points[-1] - np.array([-1.0, 0.0])) < 1e-6
    assert len(watch_ends) <= 15


def test_branch_escaping_slow_saddle_is_not_settled(watch_ends):
    # x' = x / 20, y' = -y: after the first window, 3 / rate = 60 long, the
    # branch is still within 1e-5 of the saddle and a 5-unit window adds
    # less arclength than the settling threshold at this tolerance, but
    # more than the window before it
    sys_ = vf.from_dict({
        "name": "slow_saddle", "parameters": [{"name": "r", "default": "1/20"}],
        "x_dot": [{"coeff": "r", "px": 1, "py": 0}],
        "y_dot": [{"coeff": "-1", "px": 0, "py": 1}]})
    params = sys_.full_params()
    sad = eq.saddle_data(sys_, params, (0.0, 0.0))
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, 1,
                        arclength_cap=1.0, tol=(1e-8, 1e-8))
    assert br.curve.termination is hi.Termination.ARCLENGTH_CAP
    # the checks before the first window's end do not count
    assert sum(t >= 60.0 for t in watch_ends) > 2


@pytest.fixture(scope="module")
def escaping():
    # x' = x, y' = -y: the unstable branches run along y = 0 to infinity
    sys_ = vf.from_dict({
        "name": "escaping", "parameters": [],
        "x_dot": [{"coeff": "1", "px": 1, "py": 0}],
        "y_dot": [{"coeff": "-1", "px": 0, "py": 1}]})
    return sys_, eq.saddle_data(sys_, {}, (0.0, 0.0))


def test_section_seeking_branch_ends_on_its_escape_radius(escaping):
    sys_, sad = escaping
    sec = hi.CrossSection.at((0.0, 1.0), (0.0, 1.0))   # y = 1, never met
    radius = hi.escape_radius(sad.location, sec.base)
    assert radius == 20.0
    br = mf.grow_branch(sys_, {}, sad, mf.Kind.UNSTABLE, 1,
                        arclength_cap=np.inf, events=[sec])
    assert br.curve.termination is hi.Termination.BLOWUP
    r = np.hypot(*br.points.T)
    assert r[-1] == pytest.approx(radius, rel=1e-12) and r[-2] < radius


def test_branch_without_events_runs_out_to_the_default_radius(escaping):
    sys_, sad = escaping
    br = mf.grow_branch(sys_, {}, sad, mf.Kind.UNSTABLE, 1,
                        arclength_cap=np.inf)
    assert br.curve.termination is hi.Termination.BLOWUP
    assert np.hypot(*br.points[-1]) == pytest.approx(hi.BLOWUP_RADIUS,
                                                     rel=1e-12)


def test_branch_into_a_sink_trap_settles_within_four_chunks(watch_ends):
    # with criterion 3's section y = -gamma/2, the side -1 branch of the
    # origin spirals into the stable focus (-1, 0) without meeting it; the
    # arclength test alone ends it after 11 windows
    sys_ = vf.builtin("revers_gamma")
    gamma = 2.5315
    params = sys_.full_params({"gamma": gamma})
    sad = eq.saddle_data(sys_, params, (0.0, 0.0))
    sec = hi.CrossSection.at((0.0, -gamma / 2), (0.0, 1.0))
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, -1,
                        arclength_cap=30.0, events=[sec], directions=[0],
                        terminal=[0], tol=(1e-10, 1e-10))
    assert br.curve.termination is hi.Termination.SETTLED
    assert br.curve.event_hits == []
    assert len(watch_ends) <= 4


def _assert_plain_prefix(curve, plain):
    """``curve`` is, bit for bit, the start of the unwatched run ``plain``."""
    n = len(curve.t)
    assert n < len(plain.t)
    assert np.array_equal(curve.t, plain.t[:n])
    assert np.array_equal(curve.xy, plain.xy[:n])
    assert curve.event_hits == [h for h in plain.event_hits
                                if abs(h[1]) <= abs(curve.t[-1])]


def test_settled_branch_takes_the_steps_of_a_plain_run():
    # the watch reads the run between windows and changes none of its steps
    sys_ = vf.builtin("revers_gamma")
    params = sys_.full_params({"gamma": 2.5315})
    sad = eq.saddle_data(sys_, params, (0.0, 0.0))
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, -1,
                        arclength_cap=30.0)
    assert br.curve.termination is hi.Termination.SETTLED
    x0, _ = mf.seed_point(sad, mf.Kind.UNSTABLE, -1)
    _assert_plain_prefix(br.curve, hi.integrate(sys_, params, x0, (0.0, 1e4)))


def test_branch_with_enough_hits_takes_the_steps_of_a_plain_run(monkeypatch):
    # a winding-1 gap on heart stops its unstable branch by ``until``
    scn = dg.scenario("heart")
    params = dg._params_at(scn, (0.410402, -0.436038))
    recipe = scn.recipes["LM_low"]
    src, tgt, sec = dg._build_spec(scn.system, params, recipe)
    spec = cn.ConnectionSpec(src, tgt, sec, recipe.source_side,
                             recipe.target_side, winding_count=1,
                             crossing_direction=recipe.crossing_direction)
    tol = (1e-10, 1e-10)
    grown = []
    grow = mf.grow_branch
    monkeypatch.setattr(mf, "grow_branch", lambda *a, **k: grown.append(
        grow(*a, **k)) or grown[-1])
    cn.splitting(scn.system, params, spec, tol=tol,
                 arclength_cap=recipe.arclength_cap, time_cap=recipe.time_cap)
    curve = grown[0].curve
    assert curve.termination is hi.Termination.ENOUGH_HITS
    x0, _ = mf.seed_point(src, mf.Kind.UNSTABLE, recipe.source_side)
    plain = hi.integrate(scn.system, params, x0, (0.0, recipe.time_cap),
                         tol=tol, events=[sec],
                         directions=[recipe.crossing_direction], terminal=[],
                         blowup_radius=hi.escape_radius(src.location,
                                                        sec.base))
    _assert_plain_prefix(curve, plain)
