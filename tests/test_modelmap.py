"""One-dimensional model return map: monotonicity, conditions, curves."""
import hashlib
import math
from dataclasses import replace

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
    if math.isnan(p0) or math.isnan(p1):
        return
    # P rises strictly, unless the rise of the term added to beta1 is below
    # the float spacing at P, so that the sum rounds to the same value
    s = m.sign
    rise = s * m.theta2 * ((m.beta2 + s * m.theta1 * x1 ** lam) ** mu
                           - (m.beta2 + s * m.theta1 * x0 ** lam) ** mu)
    assert p1 > p0 or (p1 == p0 and abs(rise) <= math.ulp(p0)), (p0, p1, rise)


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
        assert math.isnan(v) or abs(v) < 1e-14


def _displacement(m, x):
    return mm.eval_map(m, x) - x if x >= 0 else math.nan


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
        assert not math.isnan(mm.eval_map(m, r))
        # P(x) - x changes sign within twice the bracket brentq stops at
        # (xtol 1e-15, rtol 4 eps) around r; the grid is fine enough to see a
        # change squeezed between r and the edge of the domain
        w = 2 * (1e-15 + 4 * np.finfo(float).eps * r)
        near = [_displacement(m, x) for x in r + w * np.linspace(-1, 1, 1001)]
        near = [d for d in near if not math.isnan(d)]
        assert min(near) <= 0 <= max(near), r
    assert mm.fixed_point_count(m, xi_max=5.0) == len(roots)


def test_out_of_domain_is_nan_never_clamped():
    m = _make(2.0, 2.0, mm.Orientation.NON_MONODROMIC, 0.0, 0.01)
    # inner base 0.01 - 1 < 0: clamped to 0 it would give P = 0, P' = 0
    assert math.isnan(mm.eval_map(m, 1.0))
    assert math.isnan(mm.eval_derivative(m, 1.0))
    assert math.isnan(mm.iterate(m, 1.0, 2))
    # inside the domain, which ends at xi = 0.1, P is defined
    assert mm.eval_map(m, 0.05) == pytest.approx(-0.0075 ** 2)


def test_negative_xi_rejected():
    m = _make(2.0, 2.0, mm.Orientation.MONODROMIC, 0.0, 0.0)
    with pytest.raises(DomainError):
        mm.eval_map(m, -0.1)


def test_nonpositive_indices_rejected():
    with pytest.raises(DomainError):
        mm.ModelMap(0.0, 2.0)
    with pytest.raises(DomainError):
        mm.ModelMap(2.0, -1.0)


@pytest.mark.parametrize("n, k_max", [(1, 0), (101, -1)])
def test_bifurcation_set_rejects_too_few_points_or_turns(n, k_max):
    with pytest.raises(DomainError, match="need n >= 2 and k_max >= 0"):
        mm.bifurcation_set(mm.ModelMap(2.0, 2.0), n=n, k_max=k_max)


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


MONO, NON_MONO = mm.Orientation.MONODROMIC, mm.Orientation.NON_MONODROMIC
# both families, both orientations, and mu within 0.05 of 1, where the inner
# base at a fold under- or overflows
RESIDUAL_PANEL = [(2 / 3, 2.0, MONO), (2.0, 2 / 3, NON_MONO),
                  (0.5, 3.0, NON_MONO), (3.0, 0.5, NON_MONO),
                  (2.0, 0.95, MONO), (2.0, 0.95, NON_MONO),
                  (0.6, 1.04, MONO), (0.6, 1.04, NON_MONO),
                  (2.0, 2.0, MONO), (0.5, 0.5, NON_MONO)]


def test_bifurcation_set_curve_inventory():
    # second-family indices produce a fold curve, first-family ones do not
    with_f = mm.bifurcation_set(mm.ModelMap(2.0 / 3.0, 2.0), k_max=1)
    tags_f = {c.tag for c in with_f}
    assert {CurveTag.P_L, CurveTag.P_M, CurveTag.F} <= tags_f
    without = mm.bifurcation_set(mm.ModelMap(2.0, 2.0), k_max=1)
    assert CurveTag.F not in {c.tag for c in without}
    for c in with_f + without:
        assert np.max(np.abs(c.residuals)) < 1e-10
    # a residual is never hidden: every point satisfies its condition
    for k_max in (2, 3):
        for lam, mu, ori in RESIDUAL_PANEL:
            m = mm.ModelMap(lam, mu, orientation=ori)
            for c in mm.bifurcation_set(m, ((-0.3, 0.3), (-0.3, 0.3)),
                                        k_max=k_max):
                assert np.all(np.abs(c.residuals) <= 1e-10), \
                    (lam, mu, ori, c.tag, c.k)


@pytest.mark.parametrize("m, half_box, n", [
    (mm.ModelMap(2 / 3, 2.0), 0.12, 61),    # the benchmark's fold map
    (mm.ModelMap(2.0, 2 / 3), 0.12, 101),   # mono_second's map and box
    (mm.ModelMap(0.5, 3.0), 0.3, 101),      # the CLI's default box
    # P_L leaves the box at beta2 = 0.09, a third of the box
    (mm.ModelMap(3.0, 0.5), 0.3, 101),
    (mm.ModelMap(2.0, 2 / 3, orientation=NON_MONO), 0.12, 101),
    (mm.ModelMap(0.5, 3.0, orientation=NON_MONO), 0.3, 101),
])
def test_fold_curve_has_no_chord(m, half_box, n):
    # each piece of F, P_L, P_M and H^(k) is one geometric branch: no step
    # between neighbours jumps across to another branch or leaves a gap
    box = ((-half_box, half_box), (-half_box, half_box))
    curves = mm.bifurcation_set(m, box, n=n, k_max=3)
    assert {CurveTag.F, CurveTag.P_L, CurveTag.P_M} <= {c.tag for c in curves}
    if m.sign < 0:
        # the k-turn series in full, also the H_L^(k) of (2, 2/3), which
        # are nearly flat in beta2
        for tag in (CurveTag.H_L, CurveTag.H_M):
            for k in (1, 2, 3):
                assert sum(len(c.points) for c in curves
                           if (c.tag, c.k) == (tag, k)) >= 90, (tag, k)
    for c in curves:
        steps = np.hypot(*np.diff(c.points, axis=0).T)
        assert steps.max() <= 3 * np.median(steps), (c.tag, c.k)
        assert np.all(np.abs(c.residuals) <= 1e-10)


def _edge_distance(p, half_box):
    return abs(half_box - max(abs(p[0]), abs(p[1])))


def test_curves_leaving_the_box_end_on_its_edge():
    # P_L, P_M and H^(1) run from the origin out of the box; F of the
    # benchmark's fold map leaves it three times
    for lam, mu, ori in RESIDUAL_PANEL:
        m = mm.ModelMap(lam, mu, orientation=ori)
        for c in mm.bifurcation_set(m, ((-0.3, 0.3), (-0.3, 0.3)), k_max=1):
            if c.tag in (CurveTag.P_L, CurveTag.P_M) or c.k == 1:
                assert _edge_distance(c.points[-1], 0.3) <= 1e-12, \
                    (lam, mu, ori, c.tag, c.k)
    folds = [c.points for c in mm.bifurcation_set(
        mm.ModelMap(2 / 3, 2.0), ((-0.12, 0.12), (-0.12, 0.12)), n=61,
        k_max=0) if c.tag is CurveTag.F]
    ends = [p for f in folds for p in (f[0], f[-1])]
    assert sum(_edge_distance(p, 0.12) <= 1e-12 for p in ends) == 3


def _polyline_distance(p, pts):
    a, b = pts[:-1], pts[1:]
    d = b - a
    u = np.clip(np.einsum("ij,ij->i", p - a, d)
                / np.einsum("ij,ij->i", d, d), 0.0, 1.0)
    return np.hypot(*(a + u[:, None] * d - p).T).min()


def test_k_turn_curve_meets_the_map_level_series():
    # the map-level k = 2 zero lies 1.9e-6 in beta1 below the domain edge
    # 0.0625 at beta2 = 0.25, beyond which the condition is undefined
    m = mm.ModelMap(0.5, 0.5, orientation=NON_MONO)
    zeros = mm.flashing_series_map(m, ((-0.01, 0.25), (0.068, 0.25)),
                                   k_max=2)
    curves = mm.bifurcation_set(m, ((-0.3, 0.3), (-0.3, 0.3)), k_max=2)
    for k, _, p in zeros[1:]:
        h_m = [c.points for c in curves if (c.tag, c.k) == (CurveTag.H_M, k)]
        assert h_m, k
        assert min(_polyline_distance(np.asarray(p), c) for c in h_m) <= 1e-5


@pytest.mark.parametrize("lam, mu", [(2.0, 2 / 3), (0.5, 0.5), (0.6, 1.04)])
def test_k_turn_series_nests_inside_its_bracket(lam, mu):
    # at one t, the free coordinate of H^(k) lies between that of H^(k-1)
    # and the homoclinic loop's (P_L for H_L, P_M for H_M)
    m = mm.ModelMap(lam, mu, orientation=NON_MONO)
    h = mm._k_turn_curves(m)
    checked = 0
    for t in np.geomspace(1e-6, 0.5, 60).tolist():
        for tag, j in ((CurveTag.H_L, 0), (CurveTag.H_M, 1)):
            for k in (2, 3, 4):
                b1, b2, ok = h(tag, t, k)
                if not ok:
                    continue
                prev = h(tag, t, k - 1)
                assert prev[1 - j] == (b1, b2)[1 - j]
                loop = b2 ** mu if j == 0 else b1 ** lam
                lo, hi = sorted((prev[j], loop))
                x = (b1, b2)[j]
                assert lo - 4 * math.ulp(lo) <= x <= hi + 4 * math.ulp(hi)
                checked += 1
    assert checked > 50


def test_fold_next_to_an_upper_domain_edge_is_found():
    # the domain ends at xi = 6.0, and P' = 1 with P(1.5) = 1.5: the search
    # end must lie inside the edge, where P' and P are defined
    m = mm.ModelMap(0.5, 2.0, orientation=NON_MONO, beta2=2.449489742783178)
    roots = mm.fold_points(replace(m, beta1=3.0))
    assert roots == [pytest.approx(1.5, abs=1e-12)]
    for b1 in (3.001, 3.01):
        assert mm.fixed_point_count(replace(m, beta1=b1)) == 2


def test_monodromic_k_turn_conditions_are_nonnegative():
    # P(xi) >= beta1 >= 0 wherever P^k(beta1) is defined, and H_L needs
    # beta2 >= 0: no k-turn connection exists off the origin
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(300):
        lam, mu = np.exp(rng.uniform(-1.5, 1.5, 2))
        b1, b2 = rng.uniform(-0.3, 0.3, 2)
        m = mm.ModelMap(lam, mu, beta1=b1, beta2=b2)
        for k in range(1, 5):
            for cond in (mm.condition_H_L, mm.condition_H_M):
                v = cond(m, k)
                if not math.isnan(v):
                    assert v >= 0.0
                    checked += 1
    assert checked > 500


@pytest.mark.parametrize("m, box", [
    (mm.ModelMap(2.0, 2.0), ((-0.5, 0.5), (-0.5, 0.5))),
    (mm.ModelMap(2.0, 2.0 / 3.0), ((-0.12, 0.12), (-0.12, 0.12))),
    (mm.ModelMap(2.0 / 3.0, 2.0), ((-0.05, 0.05), (-0.02, 0.1))),
])
def test_zero_turn_connections_are_the_coordinate_lines(m, box):
    # H_L^(0) is beta2 = 0 and H_M^(0) is beta1 = 0, swept across the box
    (b1lo, b1hi), (b2lo, b2hi) = box
    n = 41
    curves = {c.tag: c for c in mm.bifurcation_set(m, box, n=n, k_max=0)
              if c.k == 0 and c.tag in (CurveTag.H_L, CurveTag.H_M)}
    h_l = curves[CurveTag.H_L].points
    assert len(h_l) == n and np.all(h_l[:, 1] == 0.0)
    assert (h_l[0, 0], h_l[-1, 0]) == (b1lo, b1hi)
    h_m = curves[CurveTag.H_M].points
    assert len(h_m) == n and np.all(h_m[:, 0] == 0.0)
    assert (h_m[0, 1], h_m[-1, 1]) == (b2lo, b2hi)


def test_zero_turn_lines_outside_the_box_are_left_out():
    curves = mm.bifurcation_set(mm.ModelMap(2.0, 2.0),
                                ((0.1, 0.5), (0.1, 0.5)), k_max=0)
    assert not [c for c in curves if c.tag in (CurveTag.H_L, CurveTag.H_M)]


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


def _token(v):
    """v as float.hex, with one token for every undefined value."""
    try:
        v = float(v)
    except TypeError:       # None, or a marker that is not a number
        return "undefined"
    return "undefined" if math.isnan(v) else v.hex()


def _map_values(m):
    """Every condition, iterate, count and map value of m, as tokens."""
    vals = [mm.condition_P_L(m), mm.condition_P_M(m), mm.condition_F(m),
            mm.fixed_point_count(m)]
    vals += [c(m, k) for c in (mm.condition_H_L, mm.condition_H_M)
             for k in range(4)]
    vals += [mm.iterate(m, xi, k) for xi in (0.0, 0.1, 1.5)
             for k in range(1, 4)]
    vals += [mm.eval_map(m, xi) for xi in (0.0, 0.1, 1.5)]
    vals += [mm.eval_derivative(m, xi) for xi in (0.1, 1.5)]
    return [_token(v) for v in vals]


def _curves_digest(curves):
    h = hashlib.sha256()
    for c in curves:
        h.update(repr((c.tag.name, c.k, c.endpoints)).encode())
        h.update(c.points.tobytes())
        h.update(c.residuals.tobytes())
    return h.hexdigest()


# recorded when the map and the conditions marked an undefined value with
# a singleton and None, before NaN became the one marker
PINNED_GRID = (
    "da647a77eb690d2c0e4cdef7639aeed210ad467499d5f88c38eae8276247d441", 3001)
PINNED_SETS = {
    (0.5, 0.5, "NON_MONODROMIC", 0.3):
        "c412cfa4a2388aa0c2520280236826f047c56ec20873e35e60a68399378d3ed5",
    (3.0, 3.0, "NON_MONODROMIC", 0.3):
        "6177e9ada81cbdacd3f7c65cf9fa613357d42867b763680664ee7e120011a156",
    (2 / 3, 2.0, "MONODROMIC", 0.12):
        "3aa8eba6309a46f10d564d01c472c887e2e35dd2e484a82750a09c82579f0edc"}
PINNED_SERIES = [
    (0, "0x1.0690690690691p-3", "0x1.0000000000000p-59",
     "0x1.0000000000000p-2"),
    (1, "0x1.cfe78befb8ad0p-1", "0x1.f10864e9a2e43p-5",
     "0x1.0000000000000p-2"),
    (2, "0x1.dbe29847ab062p-1", "0x1.fffc12036cfd7p-5",
     "0x1.0000000000000p-2")]


def test_model_map_is_pinned_bit_for_bit():
    grid = [_map_values(mm.ModelMap(lam, mu, orientation=ori, beta1=b1,
                                    beta2=b2))
            for lam in (0.5, 2 / 3, 2.0) for mu in (0.5, 2.0, 3.0)
            for ori in mm.Orientation
            for b1 in (-0.05, 0.0, 0.03, 0.2)
            for b2 in (-0.05, 0.0, 0.03, 0.2)]
    tokens = [t for row in grid for t in row]
    assert (hashlib.sha256(" ".join(tokens).encode()).hexdigest(),
            tokens.count("undefined")) == PINNED_GRID
    sets = {(lam, mu, ori.name, h): _curves_digest(mm.bifurcation_set(
                mm.ModelMap(lam, mu, orientation=ori),
                ((-h, h), (-h, h)), k_max=3))
            for lam, mu, ori, h in ((0.5, 0.5, NON_MONO, 0.3),
                                    (3.0, 3.0, NON_MONO, 0.3),
                                    (2 / 3, 2.0, MONO, 0.12))}
    assert sets == PINNED_SETS
    series = mm.flashing_series_map(
        mm.ModelMap(0.5, 0.5, orientation=NON_MONO),
        ((-0.01, 0.25), (0.068, 0.25)), 5)
    assert [(k, _token(t), _token(b1), _token(b2))
            for k, t, (b1, b2) in series] == PINNED_SERIES


# the cycles benchmark's five maps on a 16 x 16 grid offset as it offsets
# its grids, and criterion 8's four maps on every fifth point of its grid
WORKLOAD_MAPS = [(2.0, 3.0, MONO), (0.5, 3.0, MONO), (0.5, 0.5, MONO),
                 (0.5, 0.5, NON_MONO), (2 / 3, 2.0, MONO)]
CRITERION_8_MAPS = WORKLOAD_MAPS[:4]


def _sweep_grids():
    rng = np.random.default_rng(1)
    base = np.linspace(-0.3, 0.3, 16)
    half = 0.5 * (base[1] - base[0])
    for lam, mu, ori in WORKLOAD_MAPS:
        b1s = (base + rng.uniform(-half, half)).tolist()
        b2s = (base + rng.uniform(-half, half)).tolist()
        yield (lam, mu, ori.name, "workload"), mm.ModelMap(
            lam, mu, orientation=ori), b1s, b2s
    grid = np.linspace(-0.3, 0.3, 100)[::5].tolist()
    for lam, mu, ori in CRITERION_8_MAPS:
        yield (lam, mu, ori.name, "criterion 8"), mm.ModelMap(
            lam, mu, orientation=ori), grid, grid


def _sweep_digest(m, points):
    """sha256 of the count and the fixed points at each (beta1, beta2) of
    ``points``, taken in that order and hashed in sorted order."""
    got = {(b1, b2): (mm.fixed_point_count(m.at(b1, b2), xi_max=5.0),
                      [r.hex() for r in mm.fixed_points(m.at(b1, b2),
                                                        xi_max=5.0)])
           for b1, b2 in points}
    return hashlib.sha256(repr([(b1.hex(), b2.hex(), *got[b1, b2])
                                for b1, b2 in sorted(got)]).encode()
                          ).hexdigest()


# recorded before the counts read a cached row
PINNED_SWEEPS = {
    (2.0, 3.0, "MONODROMIC", "workload"):
        "b9a4b3e92f99b067b6ca50588745ffd7c2c3ebbd7130e774ea553b8e8c1dffe7",
    (0.5, 3.0, "MONODROMIC", "workload"):
        "0bd30d2bb03ec9c0bd19f65d767eb6f4626fe6c8812608371b83672f90126224",
    (0.5, 0.5, "MONODROMIC", "workload"):
        "9fc70ebeebe7317e6d162a9cbe62baafc2b3e4e040a938ce26a0b1e65f1ae0c6",
    (0.5, 0.5, "NON_MONODROMIC", "workload"):
        "1ec3c221e5c2349359c8ec20eed8e4d957c47ad3bc4f2a93375ea3a13c313ba2",
    (2 / 3, 2.0, "MONODROMIC", "workload"):
        "83c43c2e091f954a4c5f408008449df471bc7cc5759e314bbe49c2d1b0815984",
    (2.0, 3.0, "MONODROMIC", "criterion 8"):
        "59649730186b73b9c670fc56e09dc462094b3e380e74bb4e4f327d79bcc2a44e",
    (0.5, 3.0, "MONODROMIC", "criterion 8"):
        "695f82f6c8b20bc556936559d83706ea97bbcbf345d27f8832f8757a3fb35ab4",
    (0.5, 0.5, "MONODROMIC", "criterion 8"):
        "0867b9b45fa18450ec69b5785662acdb9ffbb667875c41ea87c0839035008bf1",
    (0.5, 0.5, "NON_MONODROMIC", "criterion 8"):
        "59d75f1a3d43d0797492cbe685c9221cf0595bb5a863464b9ee80ac0305e93b9"}


def test_fixed_point_sweeps_are_pinned_bit_for_bit():
    # beta2 outer (the benchmark's order, one beta2 row at a time) and
    # beta1 outer (criterion 8's, every beta2 in turn) give the same values
    digests = {}
    for key, m, b1s, b2s in _sweep_grids():
        rows = _sweep_digest(m, [(b1, b2) for b2 in b2s for b1 in b1s])
        cols = _sweep_digest(m, [(b1, b2) for b1 in b1s for b2 in b2s])
        digests[key] = rows if rows == cols else (rows, cols)
    assert digests == PINNED_SWEEPS


def _row_values(m, xi_max):
    """The count, the fixed points and the scan's nodes and values of m
    (P(xi) - xi at its monotone pieces' ends), as tokens."""
    _, xs, vals = mm._displacement_scan(m, xi_max)
    return (mm.fixed_point_count(m, xi_max=xi_max),
            [_token(x) for x in mm.fixed_points(m, xi_max=xi_max)],
            [_token(v) for v in (*xs, *vals)])


# the benchmark's fold map next to its double-fixed-point locus, where it
# has two fixed points
ROW = dict(lam=2 / 3, mu=2.0, theta1=1.0, theta2=1.0, orientation=MONO,
           beta2=0.0635, xi_max=5.0)


@pytest.mark.parametrize("first, change", [
    ({}, {"lam": 0.6}), ({}, {"mu": 2.5}), ({}, {"theta1": 1.5}),
    ({}, {"theta2": 0.5}), ({}, {"orientation": NON_MONO}),
    ({}, {"xi_max": 2.0}), ({}, {"beta2": 0.06}),
    ({"beta2": 0.0}, {"beta2": -0.0}), ({"beta2": -0.0}, {"beta2": 0.0}),
    ({"orientation": NON_MONO, "beta2": 0.0}, {"beta2": -0.0}),
    # the upper domain edge of the non-monodromic map at xi_max
    ({"orientation": NON_MONO}, {"beta2": 5.0 ** (2 / 3)}),
    ({}, {"beta2": math.nan})])
def test_a_cached_row_serves_only_its_own_key(first, change):
    def values(kw):
        kw = dict(kw)
        xi_max = kw.pop("xi_max")
        return [_row_values(mm.ModelMap(**kw, beta1=b1), xi_max)
                for b1 in (-0.1, 0.0, 0.0384, 0.1)]

    first = {**ROW, **first}
    values(first)       # the first row, cached
    warm = values({**first, **change})
    mm._row.cache_clear()
    assert warm == values({**first, **change})


def test_row_cache_stays_bounded_over_a_criterion_8_sweep():
    mm._row.cache_clear()
    grid = np.linspace(-0.3, 0.3, 100).tolist()
    for lam, mu, ori in CRITERION_8_MAPS:
        m = mm.ModelMap(lam, mu, orientation=ori)
        for b1 in grid:
            for b2 in grid:
                mm.fixed_point_count(m.at(b1, b2), xi_max=5.0)
    info = mm._row.cache_info()
    assert info.currsize <= info.maxsize
    # each map's 100 rows fit: every row is built once, not once per beta1
    assert info.misses == 4 * 100
