"""One-dimensional model return map: monotonicity, conditions, curves."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hetcontour import modelmap as mm
from hetcontour.continuation import CurveTag
from hetcontour.errors import Degenerate, DomainError

indices = st.floats(min_value=0.3, max_value=3.0).filter(
    lambda v: abs(v - 1.0) > 0.05)
betas = st.floats(min_value=-0.3, max_value=0.3)
orientations = st.sampled_from(list(mm.Orientation))


def _make(lam, mu, orientation, b1, b2):
    return mm.ModelMap(lam, mu, orientation=orientation,
                       beta1=b1, beta2=b2)


@settings(max_examples=200, deadline=None)
@given(indices, indices, orientations, betas, betas,
       st.floats(min_value=1e-4, max_value=2.0),
       st.floats(min_value=1e-4, max_value=2.0))
# beta1 + x**9 with x = 2**-7 rounds to beta1 = 0.25 at both points
@example(3.0, 3.0, mm.Orientation.MONODROMIC, 0.25, 0.0, 2 ** -7, 2 ** -8)
def test_map_strictly_increasing_on_domain(lam, mu, orient, b1, b2, x0, dx):
    m = _make(lam, mu, orient, b1, b2)
    x1 = x0 + dx
    p0, p1 = mm.eval_map(m, x0), mm.eval_map(m, x1)
    if p0 is mm.OUT_OF_DOMAIN or p1 is mm.OUT_OF_DOMAIN:
        return
    # P rises strictly, unless the rise of the term added to beta1 is below
    # the float spacing at P, so that the sum rounds to the same value
    s = m.sign
    rise = s * m.theta2 * ((m.beta2 + s * m.theta1 * x1 ** lam) ** mu
                           - (m.beta2 + s * m.theta1 * x0 ** lam) ** mu)
    assert p1 > p0 or (p1 == p0 and abs(rise) <= math.ulp(p0)), (p0, p1, rise)


@settings(max_examples=100, deadline=None)
@given(indices, indices, orientations, betas, betas)
def test_dual_is_an_involution(lam, mu, orient, b1, b2):
    m = _make(lam, mu, orient, b1, b2)
    d = mm.dual(m)
    assert d.orientation is not m.orientation
    assert mm.dual(d) == m


@settings(max_examples=100, deadline=None)
@given(indices, indices, orientations,
       st.floats(min_value=0.01, max_value=0.3))
def test_homoclinic_conditions_vanish_on_their_curves(lam, mu, orient, b2):
    # the closed-form loop curves are exact zero sets of their conditions
    m0 = _make(lam, mu, orient, 0.0, 0.0)
    s = m0.sign
    b1 = -s * m0.theta2 * b2 ** mu
    assert abs(mm.condition_P_L(m0.at(b1, b2))) < 1e-14
    b1 = 0.2
    b2_on = -s * m0.theta1 * b1 ** lam
    if b2_on >= 0 or s > 0:
        v = mm.condition_P_M(m0.at(b1, b2_on))
        assert v is None or abs(v) < 1e-14


def _displacement(m, x):
    p = mm.eval_map(m, x) if x >= 0 else mm.OUT_OF_DOMAIN
    return math.nan if p is mm.OUT_OF_DOMAIN else p - x


@settings(max_examples=60, deadline=None)
@given(indices, indices, orientations, betas, betas)
# roots where P is steep: |P(r) - r| is 2.4e-8 and 2.7e-8 at the float
# nearest the root, and 2.1e-4 at a root next to the edge of the domain
@example(0.375, 0.3125, mm.Orientation.MONODROMIC, 0.0, -0.0625)
@example(0.3125, 0.3125, mm.Orientation.NON_MONODROMIC, 2 ** -7, 2 ** -7)
@example(0.34375, 0.34375, mm.Orientation.NON_MONODROMIC, 0.0005, 0.0005)
def test_fixed_points_are_fixed_and_counted(lam, mu, orient, b1, b2):
    m = _make(lam, mu, orient, b1, b2)
    roots = mm.fixed_points(m, xi_max=5.0)
    for r in roots:
        assert mm.eval_map(m, r) is not mm.OUT_OF_DOMAIN
        # P(x) - x changes sign within twice the bracket brentq stops at
        # (xtol 1e-15, rtol 4 eps) around r; the grid is fine enough to see a
        # change squeezed between r and the edge of the domain
        w = 2 * (1e-15 + 4 * np.finfo(float).eps * r)
        near = [_displacement(m, x) for x in r + w * np.linspace(-1, 1, 1001)]
        near = [d for d in near if not math.isnan(d)]
        assert min(near) <= 0 <= max(near), r
    assert mm.fixed_point_count(m, xi_max=5.0) == len(roots)


def test_out_of_domain_is_a_falsy_singleton():
    m = _make(2.0, 2.0, mm.Orientation.NON_MONODROMIC, 0.0, 0.01)
    v = mm.eval_map(m, 1.0)   # inner base 0.01 - 1 < 0
    assert v is mm.OUT_OF_DOMAIN
    assert not v
    assert mm.OUT_OF_DOMAIN is mm._OutOfDomain()


def test_negative_xi_rejected():
    m = _make(2.0, 2.0, mm.Orientation.MONODROMIC, 0.0, 0.0)
    with pytest.raises(DomainError):
        mm.eval_map(m, -0.1)


def test_nonpositive_indices_rejected():
    with pytest.raises(DomainError):
        mm.ModelMap(0.0, 2.0)
    with pytest.raises(DomainError):
        mm.ModelMap(2.0, -1.0)


def test_degenerate_indices_rejected_by_bifurcation_set():
    for lam, mu in ((1.0, 2.0), (2.0, 1.0), (2.0, 0.5)):
        with pytest.raises(Degenerate):
            mm.bifurcation_set(mm.ModelMap(lam, mu))


def test_fold_curve_existence_rule():
    assert mm.has_fold_curve(mm.ModelMap(0.5, 3.0))
    assert mm.has_fold_curve(mm.ModelMap(3.0, 0.5))
    assert not mm.has_fold_curve(mm.ModelMap(2.0, 3.0))
    assert not mm.has_fold_curve(mm.ModelMap(0.5, 0.5))


def test_fold_points_satisfy_unit_derivative():
    m = mm.ModelMap(0.5, 3.0, beta1=0.05, beta2=0.1)
    roots = mm.fold_points(m)
    assert roots
    for xi in roots:
        assert abs(mm.eval_derivative(m, xi) - 1.0) < 1e-9


def test_fold_points_find_a_root_next_to_the_domain_edge():
    # mu < 1: P' diverges at the upper domain edge 0.2050049 and crosses 1
    # only 1.3e-7 below it
    m = mm.ModelMap(1.943, 0.947, orientation=mm.Orientation.NON_MONODROMIC,
                    beta2=0.046)
    roots = mm.fold_points(m)
    assert roots == [pytest.approx(0.205005, abs=1e-6)]
    assert abs(mm.eval_derivative(m, roots[0]) - 1.0) < 1e-9


@pytest.mark.parametrize("b1", [0.03840, 0.038434])
def test_fixed_point_pair_next_to_a_fold_is_counted(b1):
    # 3.4e-5 and 3.1e-7 in beta1 below the double-fixed-point locus at
    # 0.0384343, where a 600- and a 2000-point scan count 0
    m = mm.ModelMap(2 / 3, 2.0, beta1=b1, beta2=0.06350)
    assert mm.fixed_point_count(m, xi_max=5.0) == 2
    assert len(mm.fixed_points(m, xi_max=5.0)) == 2


def test_bifurcation_set_curve_inventory():
    # second-family indices produce a fold curve, first-family ones do not
    with_f = mm.bifurcation_set(mm.ModelMap(2.0 / 3.0, 2.0), k_max=1)
    tags_f = {c.tag for c in with_f}
    assert {CurveTag.P_L, CurveTag.P_M, CurveTag.F} <= tags_f
    without = mm.bifurcation_set(mm.ModelMap(2.0, 2.0), k_max=1)
    assert CurveTag.F not in {c.tag for c in without}
    for c in with_f + without:
        assert np.max(np.abs(c.residuals)) < 1e-10


def test_flashing_series_map_ordering():
    # along a segment crossing the wedge the k-turn zeros appear in order
    # with strictly shrinking spacing (double-exponential accumulation)
    m = mm.ModelMap(0.5, 0.5, orientation=mm.Orientation.NON_MONODROMIC)
    zeros = mm.flashing_series_map(
        m, ((-0.01, 0.25), (0.068, 0.25)), k_max=5)
    ks = [z[0] for z in zeros]
    assert ks[:3] == [0, 1, 2]
    ts = [z[1] for z in zeros]
    assert all(t0 < t1 for t0, t1 in zip(ts, ts[1:]))
    gaps = [t1 - t0 for t0, t1 in zip(ts, ts[1:])]
    assert all(g1 < g0 for g0, g1 in zip(gaps, gaps[1:]))


def test_iterate_matches_repeated_eval():
    m = mm.ModelMap(1.3, 0.8, beta1=0.05, beta2=0.1)
    x = 0.2
    for _ in range(3):
        x = mm.eval_map(m, x)
    assert abs(mm.iterate(m, 0.2, 3) - x) < 1e-15


def test_domain_interval_edges():
    m = mm.ModelMap(2.0, 2.0, beta2=-0.04)
    lo, hi = mm.domain_interval(m)
    assert abs(lo - 0.2) < 1e-12 and math.isinf(hi)
    m = mm.ModelMap(2.0, 2.0, orientation=mm.Orientation.NON_MONODROMIC,
                    beta2=0.04)
    lo, hi = mm.domain_interval(m)
    assert lo == 0.0 and abs(hi - 0.2) < 1e-12
    assert mm.domain_interval(
        mm.ModelMap(2.0, 2.0, orientation=mm.Orientation.NON_MONODROMIC,
                    beta2=-0.1)) is None
