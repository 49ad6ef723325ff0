"""Saddle data, symbolic eigenvalue checks, subcase classification."""
import math
import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hetcontour import diagrams as dg
from hetcontour import equilibria as eq
from hetcontour import integrate as hi
from hetcontour import vectorfield as vf
from hetcontour.affine import AffineExpr
from hetcontour.errors import DomainError, NoConvergence, NotASaddle


@pytest.fixture(scope="module")
def mono():
    return vf.builtin("mono_unperturbed")


def test_find_equilibrium_locates_saddles(mono):
    params = mono.full_params()
    for guess, expected in (((0.1, -0.05), (0.0, 0.0)),
                            ((0.9, 0.1), (1.0, 0.0)),
                            ((0.6, 0.12), (2 / 3, 1 / 9))):
        loc, _ = eq.find_equilibrium(mono, params, guess)
        assert np.allclose(loc, expected, atol=1e-10)


def test_symbolic_eigenvalues_on_parameter_grid(mono):
    # at (0,0) the eigenvalues are a and a+b; at (1,0) they are -a, -a-b-c
    for a in np.linspace(0.5, 2.5, 5):
        for b in np.linspace(-4.0, -2.0, 5):
            for c in np.linspace(0.5, 2.0, 5):
                if a + b >= 0 or -a - b - c <= 0:
                    continue       # either point fails to be a saddle
                params = mono.full_params({"a": a, "b": b, "c": c})
                sL = eq.saddle_data(mono, params, (0.0, 0.0))
                assert abs(sL.lambda_u - a) < 1e-12 * max(1, abs(a))
                assert abs(sL.lambda_s - (a + b)) < 1e-12 * max(1, abs(a + b))
                sM = eq.saddle_data(mono, params, (1.0, 0.0))
                assert abs(sM.lambda_s + a) < 1e-12 * max(1, abs(a))
                assert abs(sM.lambda_u + a + b + c) < 1e-11


def test_index_duality_under_time_reversal(mono):
    params = mono.full_params()
    s = eq.saddle_data(mono, params, (0.0, 0.0))
    s_rev = eq.saddle_data(mono.time_reversed(), params, (0.0, 0.0))
    assert abs(s_rev.index - 1.0 / s.index) < 1e-10


def test_classify_types(mono):
    params = mono.full_params()
    assert eq.classify(mono, params, (0.0, 0.0)) is eq.EquilibriumType.SADDLE
    focus_type = eq.classify(mono, params, (2 / 3, 1 / 9))
    assert focus_type in (eq.EquilibriumType.UNSTABLE_FOCUS,
                          eq.EquilibriumType.STABLE_FOCUS)


def test_saddle_data_rejects_focus(mono):
    with pytest.raises(NotASaddle):
        eq.saddle_data(mono, mono.full_params(), (2 / 3, 1 / 9))


@pytest.mark.parametrize("lambda_s,lambda_u", [
    (0.5, 1.0), (-0.5, -1.0), (0.0, 1.0), (-1.0, 0.0)])
def test_saddle_rejects_eigenvalues_of_one_sign(lambda_s, lambda_u):
    with pytest.raises(NotASaddle):
        eq.Saddle((0.0, 0.0), lambda_s, lambda_u, (1.0, 0.0), (0.0, 1.0))


def test_saddle_check_survives_optimized_mode():
    # the check must not be an assert, which ``python -O`` strips
    code = ("from hetcontour import equilibria as eq\n"
            "from hetcontour.errors import NotASaddle\n"
            "try:\n"
            "    eq.Saddle((0.0, 0.0), 0.5, 1.0, (1.0, 0.0), (0.0, 1.0))\n"
            "except NotASaddle:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit(3)\n")
    src = str(Path(eq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          timeout=120)
    assert done.returncode == 0


def test_newton_no_convergence_far_from_roots(mono):
    with pytest.raises(NoConvergence):
        eq.find_equilibrium(mono, mono.full_params(), (500.0, 500.0),
                            max_iter=5)


def _fake_saddle(index):
    # any hyperbolic pair with the requested index -lambda_s / lambda_u
    return eq.Saddle((0.0, 0.0), -index, 1.0, (1.0, 0.0), (0.0, 1.0))


@pytest.mark.parametrize("lam,mu", [
    (2.0, 3.0), (0.5, 3.0), (3.0, 0.5), (0.5, 0.5),
    (0.5, 1.5), (1.5, 0.5), (2.0, 0.4), (0.4, 2.0),
])
def test_subcase_canonicalization(lam, mu):
    tag = eq.classify_subcase(_fake_saddle(lam), _fake_saddle(mu))
    assert tag.canonical_id in (1, 2, 6)
    if tag.case_id == tag.canonical_id:
        assert tag.reductions == ()


def test_subcase_reduction_idempotent():
    # one pair of each case; its tag's reductions, applied to the pair (swap
    # exchanges the indices, time reversal takes reciprocals), give a pair
    # of the canonical case that needs no further reduction
    pairs = {1: (0.5, 1.5), 2: (0.5, 3.0), 3: (3.0, 0.5), 4: (1.5, 0.5),
             5: (2.0, 3.0), 6: (0.5, 0.5)}
    for case_id, (lam, mu) in pairs.items():
        tag = eq.classify_subcase(_fake_saddle(lam), _fake_saddle(mu))
        assert tag.case_id == case_id
        for reduction in tag.reductions:
            lam, mu = {"swap": (mu, lam),
                       "time_reversal": (1 / lam, 1 / mu)}[reduction]
        again = eq.classify_subcase(_fake_saddle(lam), _fake_saddle(mu))
        assert again.case_id == tag.canonical_id
        assert again.reductions == ()


def test_eigenvectors_are_eigenvectors(mono):
    params = mono.full_params()
    s = eq.saddle_data(mono, params, (1.0, 0.0))
    j = np.asarray(mono.jacobian(1.0, 0.0, params))
    for v, lam in ((s.v_s, s.lambda_s), (s.v_u, s.lambda_u)):
        v = np.asarray(v)
        assert np.linalg.norm(j @ v - lam * v) < 1e-9


def test_find_equilibrium_builds_the_field_once(monkeypatch):
    sys_ = vf.builtin("diss_heart")
    built = []
    fields = vf.ParametricSystem.fields

    def counted(self, params):
        built.append(params)
        return fields(self, params)
    monkeypatch.setattr(vf.ParametricSystem, "fields", counted)
    params = sys_.full_params()
    for guess in ((0.05, -0.05), (-0.57, -2.6), (0.55, -2.6)):
        built.clear()
        loc, kind = eq.find_equilibrium(sys_, params, guess)
        assert len(built) == 1
        assert kind is eq.EquilibriumType.SADDLE
        assert np.hypot(*sys_.rhs(*loc, params)) <= 1e-12


# -- closed-form 2x2 eigen-data ---------------------------------------------


def _similar(eigenblock, angles):
    """V B V^-1 with V's unit columns at the two angles."""
    V = np.array([[math.cos(t) for t in angles],
                  [math.sin(t) for t in angles]])
    return V @ np.asarray(eigenblock, float) @ np.linalg.inv(V)


decade = st.floats(-3.0, 3.0)
angle = st.floats(0.0, math.pi)


@settings(max_examples=300, deadline=None)
@given(decade, decade, angle, angle,
       st.sampled_from(("similar", "upper", "lower")), st.booleans(),
       st.floats(-3.0, 3.0))
def test_saddle_data_matches_lapack(e_s, e_u, t_s, t_u, shape, swap, off):
    # |lambda_u / lambda_s| from 1e-6 to 1e6.  The small eigenvalue of a
    # non-normal J is fixed only to roundoff in |J| by either method, so
    # there the match is relative to the larger one; a triangular J's
    # eigenvalues are its diagonal, each matched relative to itself.
    lam_s, lam_u = -10.0 ** e_s, 10.0 ** e_u
    big = max(-lam_s, lam_u)
    if shape == "similar":
        assume(abs(math.sin(t_s - t_u)) >= 0.2)
        J = _similar(np.diag([lam_s, lam_u]), (t_s, t_u))
    else:
        d1, d2 = (lam_u, lam_s) if swap else (lam_s, lam_u)
        J = np.array([[d1, off * big], [0.0, d2]])
        if shape == "lower":
            J = J.T
    sad = eq.saddle_data(_field_about((0.0, 0.0), J.tolist(), {}), {},
                         (0.0, 0.0))
    w, V = np.linalg.eig(J)
    assert not np.any(np.imag(w))
    w, V = np.real(w), np.real(V)
    i_s, i_u = int(np.argmin(w)), int(np.argmax(w))
    for got, want in ((sad.lambda_s, w[i_s]), (sad.lambda_u, w[i_u])):
        scale = big if shape == "similar" else abs(want)
        assert abs(got - want) <= 1e-13 * scale
    for got, i in ((sad.v_s, i_s), (sad.v_u, i_u)):
        assert math.dist(got, eq._normalize(tuple(V[:, i]))) <= 1e-12


def _eigvals_rule(J):
    """The classification by LAPACK's eigenvalues that `_classify` keeps."""
    ev = np.linalg.eigvals(J)
    re = np.real(ev)
    if np.any(np.abs(re) < eq.HYPERBOLICITY_CUTOFF):
        return eq.EquilibriumType.NON_HYPERBOLIC
    if np.all(np.abs(np.imag(ev)) > 0):
        return (eq.EquilibriumType.STABLE_FOCUS if re[0] < 0
                else eq.EquilibriumType.UNSTABLE_FOCUS)
    if re[0] * re[1] < 0:
        return eq.EquilibriumType.SADDLE
    return (eq.EquilibriumType.STABLE_NODE if re[0] < 0
            else eq.EquilibriumType.UNSTABLE_NODE)


# magnitudes of real parts: ordinary ones, and ones a decade or more on
# either side of HYPERBOLICITY_CUTOFF
magnitude = st.one_of(st.builds(lambda e: 10.0 ** e, decade),
                      st.sampled_from((1e-10, 1e-9, 1e-7, 1e-6)))
sign = st.sampled_from((-1.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(("node", "focus", "saddle")), magnitude, magnitude,
       sign, sign, decade, angle, angle)
def test_classify_matches_the_eigenvalue_rule(kind, m1, m2, s1, s2, e_im,
                                              t1, t2):
    assume(abs(math.sin(t1 - t2)) >= 0.2)
    if kind == "focus":
        im = 10.0 ** e_im
        block = [[s1 * m1, im], [-im, s1 * m1]]
    else:
        # a node's eigenvalues stay apart, clear of the node-focus border
        assume(kind == "saddle" or abs(m1 - m2) >= 0.1 * max(m1, m2))
        block = np.diag([s1 * m1, (-s1 if kind == "saddle" else s1) * m2])
    J = _similar(block, (t1, t2))
    assert eq._classify(J) is _eigvals_rule(J)


class _NumpyWithoutLinalg:
    def __getattr__(self, name):
        if name == "linalg":
            raise AssertionError("equilibria used np.linalg")
        return getattr(np, name)


def test_gap_spec_makes_no_linalg_call(monkeypatch):
    # a gap's saddle solves are closed-form 2x2 arithmetic: no LAPACK call
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call")
    for name in ("solve", "eig", "eigvals", "det", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    saddles = []
    saddle_data = eq.saddle_data
    monkeypatch.setattr(eq, "saddle_data", lambda *a, **k: saddles.append(
        saddle_data(*a, **k)) or saddles[-1])
    monkeypatch.setattr(eq, "np", _NumpyWithoutLinalg())
    scn = dg.scenario("heart")
    assert math.isfinite(dg.gap_function(scn, "LM_low")(scn.system,
                                                       (0.42, -0.45)))
    src, tgt = saddles
    assert src.location == pytest.approx((0.0, 0.0), abs=1e-12)
    assert 1.0 < src.index < 1.1 and 1.2 < tgt.index < 1.3


def test_find_equilibrium_rejects_a_non_finite_state(mono):
    with pytest.raises(DomainError, match="non-finite state"):
        eq.find_equilibrium(mono, mono.full_params(), (math.nan, 0.0))


# -- the certified sink trap ------------------------------------------------


def _field_about(q, A, higher):
    """Constant-coefficient system with F(q + e) = A e + sum c e_x^a e_y^b,
    ``higher`` mapping (a, b) to the pair (c_f, c_g)."""
    q = [Fraction(v) for v in q]
    terms = ({}, {})
    parts = dict(higher)
    parts[(1, 0)] = (A[0][0], A[1][0])
    parts[(0, 1)] = (A[0][1], A[1][1])
    for (a, b), pair in parts.items():
        # e_x^a e_y^b = (x - q_x)^a (y - q_y)^b, expanded binomially
        for i in range(a + 1):
            for j in range(b + 1):
                w = (math.comb(a, i) * (-q[0]) ** (a - i)
                     * math.comb(b, j) * (-q[1]) ** (b - j))
                for acc, c in zip(terms, pair):
                    acc[(i, j)] = acc.get((i, j), 0) + Fraction(c) * w
    f, g = ({m: AffineExpr.constant(c) for m, c in acc.items() if c != 0}
            for acc in terms)
    return vf.ParametricSystem("about_q", [], f, g)


def _trap_of(sys_, q):
    A = sys_.jacobian(*q, {}).tolist()
    return eq._lyapunov_trap(A, eq._remainder_bounds(sys_, {}, q))


unit = st.floats(-1.0, 1.0)
coeff = st.builds(lambda m, s: m * s, st.floats(0.05, 1.0),
                  st.sampled_from((-1.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(st.tuples(unit, unit), st.floats(0.2, 3.0), st.floats(0.2, 3.0),
       st.floats(-2.0, 2.0), st.floats(-0.7, 0.7), st.floats(-0.7, 0.7),
       st.lists(st.tuples(coeff, coeff), min_size=7, max_size=7),
       st.booleans())
def test_certified_trap_keeps_and_attracts_its_orbits(q, r1, r2, omega, v, w,
                                                     coeffs, cubic):
    # A = V B V^-1 with tr B < 0 < det B: a stable node or focus
    V = np.array([[1.0, v], [w, 1.0]])
    B = np.array([[-r1, omega], [-omega, -r2]])
    A = (V @ B @ np.linalg.inv(V)).tolist()
    monomials = [(2, 0), (1, 1), (0, 2)] + cubic * [(3, 0), (2, 1), (1, 2),
                                                   (0, 3)]
    higher = dict(zip(monomials, coeffs))
    sys_ = _field_about(q, A, higher)
    (p11, p12, p22), lmax, radius = _trap_of(sys_, q)
    P = np.array([[p11, p12], [p12, p22]])
    An = np.array(A)
    assert np.allclose(An.T @ P + P @ An, -np.eye(2), atol=1e-9)
    lmin = p11 + p22 - lmax
    assert 0 < lmin <= lmax and 0 < radius < math.inf
    level = lmin * radius * radius
    # V decays at least as fast as exp(-t / (2 lmax)): by t_end every orbit
    # from the ellipse is within 1e-7 of q
    t_end = 2 * lmax * math.log(level / (lmin * 1e-14)) + 1.0
    for angle in np.linspace(0.0, 2 * math.pi, 8, endpoint=False):
        u = np.array([math.cos(angle), math.sin(angle)])
        e = u * math.sqrt(level / (u @ P @ u))
        traj = hi.integrate(sys_, {}, np.asarray(q) + e, (0.0, t_end))
        dist = np.hypot(*(traj.xy - np.asarray(q)).T)
        assert dist.max() <= radius * (1 + 1e-9)
        assert dist[-1] < 1e-6
    # a point well inside the ellipse is in the trap of q
    z = np.asarray(q) + min(1e-3, 0.5 * math.sqrt(level / lmax)) * np.array(
        [0.6, -0.8])
    assert np.allclose(eq.sink_trap(sys_, {}, z), q, atol=1e-10)


@pytest.mark.parametrize("A", [((1.0, 0.0), (0.0, -1.0)),    # saddle
                               ((1.0, 0.0), (0.0, 2.0)),     # unstable node
                               ((0.5, 1.0), (-1.0, 0.5))])   # unstable focus
def test_no_trap_about_a_saddle_or_a_source(A):
    sys_ = _field_about((0.3, -0.2), A, {(2, 0): (1.0, 0.5)})
    assert eq.sink_trap(sys_, {}, (0.3001, -0.2)) is None


def test_no_trap_that_a_section_runs_through():
    q = (0.3, -0.2)
    sys_ = _field_about(q, ((-1.0, 2.0), (-2.0, -1.0)),
                        {(2, 0): (1.0, 0.5), (1, 2): (-0.5, 0.25)})
    radius = _trap_of(sys_, q)[2]
    z = (q[0] + 1e-4, q[1])
    far = hi.CrossSection.at((q[0], q[1] + 1.5 * radius), (0.0, 1.0))
    through = hi.CrossSection.at(q, (1.0, 1.0))
    near = hi.CrossSection.at((q[0] + 0.5 * radius, q[1]), (1.0, 0.0))
    assert np.allclose(eq.sink_trap(sys_, {}, z, [far]), q, atol=1e-12)
    assert eq.sink_trap(sys_, {}, z, [far, through]) is None
    assert eq.sink_trap(sys_, {}, z, [near]) is None


def test_cheap_filter_makes_no_newton_step(monkeypatch):
    q = (0.3, -0.2)
    sink = _field_about(q, ((-1.0, 2.0), (-2.0, -1.0)), {(2, 0): (1.0, 0.5)})
    saddle = _field_about(q, ((1.0, 0.0), (0.0, -1.0)), {(2, 0): (1.0, 0.5)})
    evaluated = []
    fields = vf.ParametricSystem.fields

    def counted(self, params):
        rhs, jacobian, variation = fields(self, params)
        return (rhs, lambda x, y: evaluated.append((x, y)) or jacobian(x, y),
                variation)
    monkeypatch.setattr(vf.ParametricSystem, "fields", counted)
    # a Newton step far above TRAP_NEWTON_STEP, and det J < 0: one
    # Jacobian each
    assert eq.sink_trap(sink, {}, (q[0] + 0.2, q[1])) is None
    assert eq.sink_trap(saddle, {}, (q[0] + 1e-4, q[1])) is None
    assert len(evaluated) == 2
    evaluated.clear()
    assert eq.sink_trap(sink, {}, (q[0] + 1e-4, q[1])) is not None
    assert len(evaluated) == eq.TRAP_NEWTON_ITERATIONS + 1
