"""Invariant-manifold branch growth: tangency, duality, termination."""
import numpy as np
import pytest

from hetcontour import equilibria as eq
from hetcontour import integrate as hi
from hetcontour import manifolds as mf
from hetcontour import vectorfield as vf


@pytest.fixture(scope="module")
def mono_saddle():
    sys_ = vf.builtin("mono_unperturbed")
    params = sys_.full_params()
    return sys_, params, eq.saddle_data(sys_, params, (0.0, 0.0))


def _count_chunks(monkeypatch):
    calls = []
    integrate = hi.integrate

    def counted(*args, **kwargs):
        calls.append(1)
        return integrate(*args, **kwargs)
    monkeypatch.setattr(hi, "integrate", counted)
    return calls


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


def test_chained_interpolant_matches_samples(mono_saddle, monkeypatch):
    sys_, params, sad = mono_saddle
    chunks = _count_chunks(monkeypatch)
    monkeypatch.setattr(mf, "CHUNK", 0.5)
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, 1,
                        arclength_cap=5.0)
    # the check means something only if the branch ran through a chain
    assert len(chunks) > 1
    ts = br.curve.t
    zs = br.curve.interpolant(ts)
    assert np.max(np.abs(zs.T - br.points)) < 1e-9


def test_branch_into_focus_ends_settled(monkeypatch):
    # one unstable branch of the origin of the reversible family spirals into
    # the stable focus at (-1, 0); it must stop there, not crawl to time_cap
    sys_ = vf.builtin("revers_gamma")
    params = sys_.full_params({"gamma": 2.5315})
    sad = eq.saddle_data(sys_, params, (0.0, 0.0))
    chunks = _count_chunks(monkeypatch)
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, -1,
                        arclength_cap=30.0)
    assert br.curve.termination is hi.Termination.SETTLED
    assert np.linalg.norm(br.points[-1] - np.array([-1.0, 0.0])) < 1e-6
    assert len(chunks) <= 15


def test_branch_escaping_slow_saddle_is_not_settled(monkeypatch):
    # x' = x / 20, y' = -y: after the first chunk the branch is still
    # within 1e-5 of the saddle and a 5-unit chunk adds less arclength than
    # the settling threshold at this tolerance, but more than the chunk
    # before it
    sys_ = vf.from_dict({
        "name": "slow_saddle", "parameters": [{"name": "r", "default": "1/20"}],
        "x_dot": [{"coeff": "r", "px": 1, "py": 0}],
        "y_dot": [{"coeff": "-1", "px": 0, "py": 1}]})
    params = sys_.full_params()
    sad = eq.saddle_data(sys_, params, (0.0, 0.0))
    chunks = _count_chunks(monkeypatch)
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, 1,
                        arclength_cap=1.0, tol=(1e-8, 1e-8))
    assert br.curve.termination is hi.Termination.ARCLENGTH_CAP
    assert len(chunks) > 2


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


def test_branch_into_a_sink_trap_settles_within_four_chunks(monkeypatch):
    # with criterion 3's section y = -gamma/2, the side -1 branch of the
    # origin spirals into the stable focus (-1, 0) without meeting it; the
    # arclength test alone ends it after 11 chunks
    sys_ = vf.builtin("revers_gamma")
    gamma = 2.5315
    params = sys_.full_params({"gamma": gamma})
    sad = eq.saddle_data(sys_, params, (0.0, 0.0))
    sec = hi.CrossSection.at((0.0, -gamma / 2), (0.0, 1.0))
    chunks = _count_chunks(monkeypatch)
    br = mf.grow_branch(sys_, params, sad, mf.Kind.UNSTABLE, -1,
                        arclength_cap=30.0, events=[sec], directions=[0],
                        terminal=[0], tol=(1e-10, 1e-10))
    assert br.curve.termination is hi.Termination.SETTLED
    assert br.curve.event_hits == []
    assert len(chunks) <= 4
