"""Truncated one-dimensional return maps for a saddle contour.

The map is the composition of two saddle passages and two global
excursions:  P(xi) = beta1 + s*theta2*(beta2 + s*theta1*xi**lam)**mu  with
s = +1 (monodromic) or s = -1 (non-monodromic).  Points whose inner base is
negative miss the second section; the map, its derivative and every
condition that needs them are NaN there, never clamped.  Connection
conditions (homoclinic P_L / P_M and the k-turn heteroclinic series H^(k))
and the fold-of-cycles curve F are drawn in the (beta1, beta2) plane by one
arclength tracer, each from an exact parametrisation: closed form for P_L,
P_M, F and H^(1), and for each non-monodromic H^(k), k >= 2, one Brent
solve from H^(k-1) on an exact bracket.  No curve is found by a sampled
search.

Fixed points and folds are counted exactly, on the at most four points
between which P' - 1 and P(xi) - xi are monotone, not on a sample grid.
"""
from __future__ import annotations

import enum
import math
from array import array
from bisect import bisect
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import accumulate, chain, groupby, pairwise

import numpy as np

from .continuation import (K_MAX_DEFAULT, BifurcationCurve, CurveTag,
                           flashing_series)
from .errors import Degenerate, DomainError
from .roots import brent, grid_roots, sample, sign_changes

XI_MIN, XI_MAX = 1e-12, 10.0    # the searched part of the domain


class Orientation(enum.Enum):
    MONODROMIC = 1
    NON_MONODROMIC = -1


@dataclass(frozen=True)
class ModelMap:
    lam: float
    mu: float
    theta1: float = 1.0
    theta2: float = 1.0
    orientation: Orientation = Orientation.MONODROMIC
    beta1: float = 0.0
    beta2: float = 0.0
    sign: float = field(init=False)     # s, +1.0 or -1.0

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise DomainError("saddle indices must be positive")
        if self.theta1 <= 0 or self.theta2 <= 0:
            raise DomainError("theta coefficients must be positive")
        object.__setattr__(self, "sign", float(self.orientation.value))

    def at(self, beta1, beta2):
        return ModelMap(self.lam, self.mu, self.theta1, self.theta2,
                        self.orientation, float(beta1), float(beta2))


def _base(m, xi):
    """The inner base beta2 + s*theta1*xi**lam, NaN unless xi >= 0."""
    return m.beta2 + m.sign * m.theta1 * xi ** m.lam if xi >= 0 else math.nan


def eval_map(m, xi):
    """P(xi), NaN where the inner base is negative.  DomainError for
    xi < 0."""
    if xi < 0:
        raise DomainError(f"xi must be >= 0, got {xi}")
    base = _base(m, xi)
    if not base >= 0:
        return math.nan
    return m.beta1 + m.sign * m.theta2 * base ** m.mu


def eval_derivative(m, xi):
    """P'(xi) on the interior of the domain, NaN outside it."""
    if xi <= 0:
        raise DomainError("derivative needs xi > 0")
    base = _base(m, xi)
    if not base > 0:
        return math.nan
    return (m.theta2 * m.mu * base ** (m.mu - 1)
            * m.theta1 * m.lam * xi ** (m.lam - 1))


def iterate(m, xi, k):
    """k-fold composition, stopped at the first iterate that is not >= 0
    (negative, or NaN off the domain), which it returns."""
    for _ in range(k):
        if not xi >= 0:
            break
        xi = eval_map(m, xi)
    return xi


# -- connection conditions -------------------------------------------------
# Each is NaN where it is undefined.


def condition_P_L(m):
    """Homoclinic loop of L: the critical value P(0) lands back on xi=0."""
    return eval_map(m, 0.0)


def condition_P_M(m):
    """Homoclinic loop of M: the mirror critical value closes on Sigma_M."""
    return _base(m, m.beta1)


def condition_H_M(m, k):
    """k-turn heteroclinic from M to L: P^k(beta1) = 0."""
    return _H_M_row(m, k)[k]


def _H_M_row(m, k):
    """H_M^(0..k): beta1 (before any saddle passage, the signed
    coordinate), then its images, one ``iterate`` step each."""
    if m.beta1 < 0:
        return [m.beta1] + [math.nan] * k
    return list(accumulate(range(k), lambda xi, _: iterate(m, xi, 1),
                           initial=m.beta1))


def condition_H_L(m, k):
    """k-turn heteroclinic from L to M: the k-th image of the L-critical
    value lands on the Sigma_M boundary."""
    return m.beta2 if k == 0 else _base(m, iterate(m, 0.0, k))


def fold_points(m, xi_max=XI_MAX):
    """All xi in the searched domain solving P'(xi) = 1, in increasing
    order; the fold bounding a two-fixed-point region is the larger."""
    return [x for x, _ in grid_roots(*_fold_scan(m, xi_max), 1e-14)]


def _fold_scan(m, xi_max):
    """P' - 1, the ends and the turning point between which it is
    monotone, and its values there.

    d log P'/dxi = ((lam-1) beta2 + s theta1 (lam mu-1) xi**lam) / (xi u),
    u the inner base, has at most one zero (none when lam mu = 1): P' - 1
    has at most one root on each side of it, each bracketed exactly.
    """
    xs = _ends(m, xi_max)
    c = m.sign * m.theta1 * (m.lam * m.mu - 1)
    t = -(m.lam - 1) * m.beta2 / c if c else 0.0
    turn = t ** (1.0 / m.lam) if t > 0 else 0.0
    if xs and xs[0] < turn < xs[1]:
        xs.insert(1, turn)
    f = lambda x: eval_derivative(m, x) - 1.0
    return f, xs, sample(f, xs)


def condition_F(m, xi_max=XI_MAX):
    """Signed distance to the nearest fold of fixed points.

    P(xi) - xi evaluated at the P'(xi) = 1 point closest to balance;
    NaN when P is defined at no P' = 1 point.
    """
    rs = [eval_map(m, xi) - xi for xi in fold_points(m, xi_max)]
    return min((r for r in rs if not math.isnan(r)), key=abs,
               default=math.nan)


# -- fixed points ----------------------------------------------------------


def domain_interval(m):
    """The xi-interval where the inner base is nonnegative.

    Monodromic with beta2 < 0 starts above a lower edge; non-monodromic
    ends at an upper edge (empty when beta2 < 0).
    """
    if m.sign > 0:
        if m.beta2 >= 0:
            return 0.0, math.inf
        return (-m.beta2 / m.theta1) ** (1.0 / m.lam), math.inf
    if m.beta2 < 0:
        return None
    return 0.0, (m.beta2 / m.theta1) ** (1.0 / m.lam)


def _ends(m, xi_max):
    """[a, b], the ends of the searched part of the domain, or [].

    a is XI_MIN, or a lower domain edge; b is ``xi_max``, or an upper
    domain edge below it, each moved just inside by ``_inside``.
    """
    dom = domain_interval(m)
    if dom is None:
        return []
    lo, hi = dom
    a = _inside(m, lo, 1.0) if lo > 0 else XI_MIN
    b = _inside(m, hi, -1.0) if a < hi < xi_max else min(hi, xi_max)
    return [a, b] if a < b else []


def _inside(m, edge, d):
    """The domain edge ``edge`` refined by a Newton step on the inner base
    (the power that computed it can leave it many ulps off), then moved in
    direction d by the fewest ulps, in powers of two, at which the inner
    base is positive, so that P and P' are defined there."""
    edge -= _base(m, edge) / (m.sign * m.theta1 * m.lam
                              * edge ** (m.lam - 1))
    step = math.ulp(edge)
    while _base(m, edge + d * step) <= 0:
        step *= 2
    return edge + d * step


def _displacement_scan(m, xi_max):
    """P(xi) - xi, the ends and fold points between which it is monotone,
    and its values there, beta1 + A - xi as ``eval_map`` adds them."""
    xs, terms = _row(m.lam, m.mu, m.theta1, m.theta2, m.orientation,
                     m.beta2, xi_max)
    return (lambda x: eval_map(m, x) - x, xs,
            [m.beta1 + a - x for x, a in zip(xs, terms)])


@lru_cache(maxsize=128)
def _row(lam, mu, theta1, theta2, orientation, beta2, xi_max):
    """The nodes of ``_displacement_scan`` and A = s*theta2*base**mu at
    each (NaN off the domain): all of it but beta1, which neither depends
    on.  Bounded, and large enough for every row of a sweep of 100 beta2
    per beta1."""
    m = ModelMap(lam, mu, theta1, theta2, orientation, 0.0, beta2)
    xs = _ends(m, xi_max)
    if xs:
        xs[1:1] = [x for x in fold_points(m, xi_max) if xs[0] < x < xs[-1]]
    st = m.sign * theta2
    return tuple(xs), tuple(st * b ** mu if b >= 0 else math.nan
                            for b in (_base(m, x) for x in xs))


def fixed_points(m, xi_max=XI_MAX):
    """All fixed points of P in the searched domain, in increasing order.

    P(xi) - xi is monotone between the fold points, so the count is exact:
    a zero value at a piece end is one fixed point (a double one at a
    fold), and a piece whose end values have strictly opposite signs holds
    one, found by Brent's method.
    """
    return [x for x, _ in grid_roots(*_displacement_scan(m, xi_max), 1e-15)]


def fixed_point_count(m, xi_max=XI_MAX, samples=None):
    """Number of fixed points in the searched domain: the sign changes, by
    the rule of ``fixed_points``, over its monotone pieces, read from the
    beta1-free row ``_row`` caches.  ``samples`` is ignored; it is kept
    only because ``perfbench/workloads.py`` passes it.
    """
    return len(sign_changes(_displacement_scan(m, xi_max)[2]))


# -- bifurcation set in the (beta1, beta2) plane ---------------------------


def _check_generic(m):
    if abs(m.lam - 1) < 1e-10 or abs(m.mu - 1) < 1e-10 \
            or abs(m.lam * m.mu - 1) < 1e-10:
        raise Degenerate(
            f"indices degenerate (lam={m.lam}, mu={m.mu})")


def _add_curve(curves, tag, k, pieces, residual_fn):
    """Append a curve through each nonempty piece of points in ``pieces``;
    its residuals are ``residual_fn``'s, NaN where it is undefined."""
    for piece in filter(len, pieces):
        curves.append(BifurcationCurve(
            tag, k, np.asarray(piece),
            np.asarray([residual_fn(b1, b2) for b1, b2 in piece]),
            ("range", "range")))


def has_fold_curve(m):
    """F exists when the indices straddle 1 (second family)."""
    return (m.lam - 1) * (m.mu - 1) < 0


def _trace(curve, box, n, keep=None):
    """The pieces in ``box`` of the curve t -> (beta1, beta2), each as n
    points evenly spaced in arclength.

    t runs over 0, where the curves from the origin start, and 2000
    log-spaced values in [XI_MIN, XI_MAX]; a point whose computation
    overflows or divides by zero is NaN, and NaN is outside the box.  Each
    run of grid points in the box is extended by Brent's method to where
    the curve crosses the box edge, then resampled to n points, and of
    these the runs of finite points that pass ``keep(t, beta1, beta2)``
    (if given) are kept.  The grid is streamed, so only each run's t and
    arclengths are held.
    """
    (b1lo, b1hi), (b2lo, b2hi) = box

    def at(t):
        """(t, point, its excess over the box: > 0 outside, NaN if NaN)"""
        try:
            b1, b2 = curve(t)
        except (OverflowError, ZeroDivisionError):
            b1 = b2 = math.nan
        g = max(b1lo - b1, b1 - b1hi, b2lo - b2, b2 - b2hi)
        return t, (b1, b2), math.nan if math.isnan(b1 + b2) else g

    def add(a, b=None):
        """Append grid item a, or the crossing of the edge from a to b."""
        nonlocal prev
        if b is not None:
            try:
                a = at(brent(lambda t: at(t)[2], a[0], b[0], a[2], b[2],
                             0.0)[0])
            except DomainError:     # b is outside by being undefined
                return
        arc.append(arc[-1] + math.dist(prev, a[1]) if arc else 0.0)
        tr.append(a[0])
        prev = a[1]

    tr = arc = prev = None
    ts = (XI_MIN * (XI_MAX / XI_MIN) ** (i / 1999) for i in range(2000))
    out = (math.nan, None, math.nan)
    for a, b in pairwise(chain([out], map(at, chain([0.0], ts)), [out])):
        if b[2] <= 0:
            if tr is None:
                tr, arc = array("d"), array("d")
                add(b, a)
            add(b)
        elif tr is not None:
            add(a, b)
            run_t, run_arc, tr = tr, arc, None
            if len(run_t) < 2:
                continue
            ts_run = np.interp(np.linspace(0.0, run_arc[-1], n), run_arc,
                               run_t).tolist()
            ps = [at(t)[1] for t in ts_run]
            ok = [math.isfinite(p[0]) and (keep is None or keep(t, *p))
                  for t, p in zip(ts_run, ps)]
            for k, r in groupby(range(n), ok.__getitem__):
                r = list(r)
                if k and len(r) > 1:
                    yield [ps[j] for j in r]


def _fold_curve(m):
    """F by its fold point xi, and the test that keeps a point.

    At a fold point, P'(xi) = 1 gives the inner base u, and P(xi) = xi
    then beta1.  A point is kept where ``fold_points`` brackets its xi at
    its own (beta1, beta2), as it cannot for a fold within roundoff of a
    domain edge.
    """
    s = m.sign
    lam, mu = float(m.lam), float(m.mu)     # Python floats raise on overflow
    c, e = float(m.theta1 * m.theta2) * lam * mu, -1.0 / (mu - 1)

    def curve(xi):
        u = (c * xi ** (lam - 1)) ** e
        return xi - s * m.theta2 * u ** mu, u - s * m.theta1 * xi ** lam

    def seen(xi, b1, b2):
        _, xs, vals = _fold_scan(m.at(b1, b2), XI_MAX)
        j = bisect(xs, xi)
        return 0 < j < len(xs) and vals[j - 1] * vals[j] < 0

    return curve, seen


def _k_turn_curves(m):
    """(tag, t, k) -> (beta1, beta2, confirmed) on H_L^(k) or H_M^(k),
    k >= 1, of a non-monodromic map, memoised.

    H_L^(1) is at the domain edge t: beta2 = theta1 t^lam, P(0) = t.
    H_M^(1) is at beta1 = t, where P(t) = 0.  H^(k) solves its condition
    from H^(k-1), where the k-th iterate has just crossed, to the
    homoclinic curve on which the critical orbit is stationary: P_L
    (P(0) = 0) along beta1 for H_L, P_M (P(beta1) = beta1) along beta2
    for H_M.  P^k is monotone on that line, so the zero is unique.
    """
    lam, mu, t1, t2 = float(m.lam), float(m.mu), m.theta1, m.theta2
    kinds = {   # H^(1); the free coordinate and its value on the loop
        CurveTag.H_L: (lambda t: (t + t2 * (t1 * t ** lam) ** mu,
                                  t1 * t ** lam),
                       0, lambda p: t2 * p[1] ** mu, condition_H_L),
        CurveTag.H_M: (lambda t: (t, t1 * t ** lam + (t / t2) ** (1 / mu)),
                       1, lambda p: t1 * p[0] ** lam, condition_H_M)}

    @cache
    def h(tag, t, k):
        first, j, loop, cond = kinds[tag]
        if k == 1:
            return (*first(t), True)
        p = h(tag, t, k - 1)
        return _next_turn(m, cond, k, p, j, loop(p))

    return h


def _next_turn(m, cond, k, p, j, loop):
    """The zero of ``cond(., k)`` on the line from the point p to where
    its coordinate j is ``loop``, as (beta1, beta2, confirmed): confirmed
    if p was, the bracket is strict and |cond| <= 1e-10 there.  Without a
    strict bracket the end nearer a zero stands in, unconfirmed.  Each end
    is valued once, moved inside by ``_defined`` if undefined."""
    at = lambda x: (x, p[1]) if j == 0 else (p[0], x)
    f = lambda x: cond(m.at(*at(x)), k)
    ends = _defined(f, p[j], loop), _defined(f, loop, p[j])
    if None in ends:
        return math.nan, math.nan, False
    (a, fa), (b, fb) = ends
    if not (fa < 0 < fb or fb < 0 < fa):
        return (*at(a if abs(fa) <= abs(fb) else b), False)
    try:
        x, fx = brent(f, a, b, fa, fb, 0.0)
    except DomainError:
        return math.nan, math.nan, False
    return (*at(x), p[2] and abs(fx) <= 1e-10)


def _defined(f, x, other):
    """(x, f(x)), x moved toward ``other`` by the fewest ulps, in powers
    of two, at which f is not NaN; None if that passes ``other`` (or x
    is NaN)."""
    x0, d, step, fx = x, math.copysign(1.0, other - x), math.ulp(x), f(x)
    while math.isnan(fx):
        x = x0 + d * step
        if not d * (other - x) > 0:
            return None
        fx, step = f(x), 2 * step
    return x, fx


def bifurcation_set(m, box=((-0.5, 0.5), (-0.5, 0.5)), n=101,
                    k_max=K_MAX_DEFAULT):
    """Connection and fold curves of the family (beta1, beta2) in ``box``.

    H^(0) are the lines beta2 = 0 (H_L) and beta1 = 0 (H_M).  Every other
    curve is traced by ``_trace``: P_L by beta2, P_M by beta1, F by its
    fold point (``_fold_curve``) and, for s = -1, each H^(k), k >= 1, by
    ``_k_turn_curves``; n is the number of points per piece.  A
    monodromic H^(k>0) is >= 0 where defined and 0 only at the origin, so
    none is drawn.  Residuals are NaN where a condition is undefined.
    DomainError for n < 2 or k_max < 0.
    """
    if n < 2 or k_max < 0:
        raise DomainError(f"need n >= 2 and k_max >= 0, got {n} and {k_max}")
    _check_generic(m)
    (b1lo, b1hi), (b2lo, b2hi) = box
    s, lam, mu = m.sign, float(m.lam), float(m.mu)
    curves = []
    _add_curve(curves, CurveTag.P_L, 0,
               _trace(lambda t: (-s * m.theta2 * t ** mu, t), box, n),
               lambda b1, b2: condition_P_L(m.at(b1, b2)))
    _add_curve(curves, CurveTag.P_M, 0,
               _trace(lambda t: (t, -s * m.theta1 * t ** lam), box, n),
               lambda b1, b2: condition_P_M(m.at(b1, b2)))
    if has_fold_curve(m):
        curve, seen = _fold_curve(m)
        _add_curve(curves, CurveTag.F, 0, _trace(curve, box, n, seen),
                   lambda b1, b2: condition_F(m.at(b1, b2)))

    if b2lo <= 0.0 <= b2hi:
        _add_curve(curves, CurveTag.H_L, 0,
                   [[(b1, 0.0) for b1 in np.linspace(b1lo, b1hi, n)]],
                   lambda b1, b2: condition_H_L(m.at(b1, b2), 0))
    if b1lo <= 0.0 <= b1hi:
        _add_curve(curves, CurveTag.H_M, 0,
                   [[(0.0, b2) for b2 in np.linspace(b2lo, b2hi, n)]],
                   lambda b1, b2: condition_H_M(m.at(b1, b2), 0))

    h = _k_turn_curves(m)
    for k in range(1, k_max + 1 if s < 0 else 1):
        for tag, cond in ((CurveTag.H_L, condition_H_L),
                          (CurveTag.H_M, condition_H_M)):
            _add_curve(curves, tag, k, _trace(
                lambda t, tag=tag, k=k: h(tag, t, k)[:2], box, n,
                lambda t, b1, b2, tag=tag, k=k: h(tag, t, k)[2]),
                lambda b1, b2, c=cond, k=k: c(m.at(b1, b2), k))
    return curves


# -- flashing series at the map level --------------------------------------


def flashing_series_map(m, segment, k_max=K_MAX_DEFAULT):
    """Ordered zeros of the k-turn conditions H_M^(k) along a (beta1,beta2)
    segment.

    ``segment = ((b1,b2) start, (b1,b2) end)``.  This is ``flashing_series``
    on the row H_M^(0..k_max), at 2000 steps in t in [0,1], to xtol 1e-15.
    Returns [(k, t, (b1,b2)), ...], truncated at the first k with no zero.
    """
    series = flashing_series(None, lambda _, p, k: _H_M_row(m.at(*p), k),
                             segment, k_max, samples=2000, xtol=1e-15)
    return [(k, t, tuple(p)) for k, t, p, _ in series.zeros]
