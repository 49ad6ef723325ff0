"""Truncated one-dimensional return maps for a saddle contour.

The map is the composition of two saddle passages and two global
excursions:  P(xi) = beta1 + s*theta2*(beta2 + s*theta1*xi**lam)**mu  with
s = +1 (monodromic) or s = -1 (non-monodromic).  Points whose inner base is
negative miss the second section; that is reported as OutOfDomain, never
clamped.  Connection conditions (homoclinic P_L / P_M and the k-turn
heteroclinic series H^(k)) and the fold-of-cycles curve F are computed in
the (beta1, beta2) plane.

Fixed points and folds are counted exactly, on the at most four points
between which P' - 1 and P(xi) - xi are monotone, not on a sample grid.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .continuation import K_MAX_DEFAULT, BifurcationCurve, CurveTag
from .errors import Degenerate, DomainError
from .roots import grid_roots, sample, sign_changes


class _OutOfDomain:
    """Singleton marker: the orbit misses the far section."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "OutOfDomain"

    def __bool__(self):
        return False


OUT_OF_DOMAIN = _OutOfDomain()


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

    def __post_init__(self):
        if self.lam <= 0 or self.mu <= 0:
            raise DomainError("saddle indices must be positive")
        if self.theta1 <= 0 or self.theta2 <= 0:
            raise DomainError("theta coefficients must be positive")

    @property
    def sign(self):
        return float(self.orientation.value)

    def at(self, beta1, beta2):
        return replace(self, beta1=float(beta1), beta2=float(beta2))


def eval_map(m, xi):
    """P(xi), or OUT_OF_DOMAIN when the inner base is negative."""
    if xi < 0:
        raise DomainError(f"xi must be >= 0, got {xi}")
    s = m.sign
    base = m.beta2 + s * m.theta1 * xi ** m.lam
    if base < 0:
        return OUT_OF_DOMAIN
    return m.beta1 + s * m.theta2 * base ** m.mu


def eval_derivative(m, xi):
    """P'(xi) on the interior of the domain."""
    if xi <= 0:
        raise DomainError("derivative needs xi > 0")
    s = m.sign
    base = m.beta2 + s * m.theta1 * xi ** m.lam
    if base <= 0:
        return OUT_OF_DOMAIN
    return (m.theta2 * m.mu * base ** (m.mu - 1)
            * m.theta1 * m.lam * xi ** (m.lam - 1))


def iterate(m, xi, k):
    """k-fold composition; OUT_OF_DOMAIN propagates, negative xi stops."""
    for _ in range(k):
        xi = eval_map(m, xi)
        if xi is OUT_OF_DOMAIN or xi < 0:
            return OUT_OF_DOMAIN if xi is OUT_OF_DOMAIN else xi
    return xi


def dual(m):
    """Same map in the opposite orientation convention.

    (theta1, theta2) -> (-theta1, -theta2) swaps Eq-form monodromic and
    non-monodromic; with positive thetas this is an orientation flip.
    """
    flip = (Orientation.NON_MONODROMIC
            if m.orientation is Orientation.MONODROMIC
            else Orientation.MONODROMIC)
    return replace(m, orientation=flip)


# -- connection conditions -------------------------------------------------


def condition_P_L(m):
    """Homoclinic loop of L: the critical value P(0) lands back on xi=0."""
    if m.beta2 < 0:
        return None
    return m.beta1 + m.sign * m.theta2 * m.beta2 ** m.mu


def condition_P_M(m):
    """Homoclinic loop of M: the mirror critical value closes on Sigma_M."""
    if m.beta1 < 0:
        return None
    return m.beta2 + m.sign * m.theta1 * m.beta1 ** m.lam


def condition_H_M(m, k):
    """k-turn heteroclinic from M to L: P^k(beta1) = 0."""
    if k == 0:
        # no saddle passage yet: the residual is the signed coordinate
        return m.beta1
    v = iterate(m, m.beta1, k) if m.beta1 >= 0 else OUT_OF_DOMAIN
    if v is OUT_OF_DOMAIN:
        return None
    return v


def condition_H_L(m, k):
    """k-turn heteroclinic from L to M: the k-th image of the L-critical
    value lands on the Sigma_M boundary."""
    if k == 0:
        return m.beta2
    v = iterate(m, 0.0, k)
    if v is OUT_OF_DOMAIN or v < 0:
        return None
    return m.beta2 + m.sign * m.theta1 * v ** m.lam


def fold_points(m, xi_max=10.0):
    """All xi in the searched domain solving P'(xi) = 1, in increasing order.

    d log P'/dxi = ((lam-1) beta2 + s theta1 (lam mu-1) xi**lam) / (xi u),
    u the inner base, has at most one zero (none when lam mu = 1): P' - 1
    has at most one root on each side of it, each bracketed exactly.  The
    fold bounding a two-fixed-point region is the larger root.
    """
    xs = _ends(m, xi_max)
    c = m.sign * m.theta1 * (m.lam * m.mu - 1)
    t = -(m.lam - 1) * m.beta2 / c if c else 0.0
    turn = t ** (1.0 / m.lam) if t > 0 else 0.0
    if xs and xs[0] < turn < xs[1]:
        xs.insert(1, turn)
    f = lambda x: _fin(eval_derivative(m, x)) - 1.0
    return [x for x, _ in grid_roots(f, xs, sample(f, xs), 1e-14)]


def condition_F(m, xi_max=10.0):
    """Signed distance to the nearest fold of fixed points.

    P(xi) - xi evaluated at the P'(xi) = 1 point closest to balance;
    None when no P' = 1 point exists.
    """
    best = None
    for xi in fold_points(m, xi_max):
        p = eval_map(m, xi)
        if p is OUT_OF_DOMAIN:
            continue
        r = p - xi
        if best is None or abs(r) < abs(best):
            best = r
    return best


def _fin(v):
    """``v`` as a float, NaN for OUT_OF_DOMAIN or a missing value."""
    return math.nan if v is None or v is OUT_OF_DOMAIN else float(v)


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

    a is 1e-12 above 0, or 1e-15 inside a lower domain edge; b is
    ``xi_max``, or 1e-15 inside an upper domain edge below it.
    """
    dom = domain_interval(m)
    if dom is None:
        return []
    lo, hi = dom
    a = lo + 1e-15 if lo > 0 else 1e-12
    b = hi - 1e-15 if hi < xi_max else xi_max
    return [a, b] if a < b else []


def _displacement_scan(m, xi_max):
    """P(xi) - xi, the ends and fold points between which it is monotone,
    and its values there."""
    f = lambda x: _fin(eval_map(m, x)) - x
    xs = _ends(m, xi_max)
    if xs:
        xs[1:1] = [x for x in fold_points(m, xi_max) if xs[0] < x < xs[-1]]
    return f, xs, sample(f, xs)


def fixed_points(m, xi_max=10.0):
    """All fixed points of P in the searched domain, in increasing order.

    P(xi) - xi is monotone between the fold points, so the count is exact:
    a zero value at a piece end is one fixed point (a double one at a
    fold), and a piece whose end values have strictly opposite signs holds
    one, found by Brent's method.
    """
    return [x for x, _ in grid_roots(*_displacement_scan(m, xi_max), 1e-15)]


def fixed_point_count(m, xi_max=10.0, samples=None):
    """Number of fixed points in the searched domain: the sign changes, by
    the rule of ``fixed_points``, over its monotone pieces.  ``samples`` is
    ignored; it is kept only because ``perfbench/workloads.py`` passes it.
    """
    return len(sign_changes(_displacement_scan(m, xi_max)[2]))


# -- bifurcation set in the (beta1, beta2) plane ---------------------------


def _check_generic(m):
    if abs(m.lam - 1) < 1e-10 or abs(m.mu - 1) < 1e-10 \
            or abs(m.lam * m.mu - 1) < 1e-10:
        raise Degenerate(
            f"indices degenerate (lam={m.lam}, mu={m.mu})")


def _add_curve(curves, tag, k, sweep, residual_fn):
    """Append the curve through the points ``sweep``, if there are any;
    its residuals are ``residual_fn``'s, None read as 0."""
    if sweep:
        res = [residual_fn(b1, b2) for b1, b2 in sweep]
        curves.append(BifurcationCurve(
            tag, k, np.asarray(sweep),
            np.asarray([0.0 if r is None else r for r in res]),
            ("range", "range")))


def has_fold_curve(m):
    """F exists when the indices straddle 1 (second family)."""
    return (m.lam - 1) * (m.mu - 1) < 0


def bifurcation_set(m, box=((-0.5, 0.5), (-0.5, 0.5)), n=101,
                    k_max=K_MAX_DEFAULT):
    """Connection and fold curves of the family (beta1, beta2) in ``box``.

    P_L, P_M and H^(0) are closed-form; F is swept in beta2 solving
    P'(xi)=1; H^(k), k >= 1, zeros are bracketed on beta1 lines per beta2
    sample.  Residuals of the returned polylines are <= 1e-10 by
    construction.
    """
    _check_generic(m)
    (b1lo, b1hi), (b2lo, b2hi) = box
    s = m.sign
    curves = []

    b2s = np.linspace(max(0.0, b2lo), b2hi, n)
    sweep = [(-s * m.theta2 * b2 ** m.mu, b2) for b2 in b2s
             if b1lo <= -s * m.theta2 * b2 ** m.mu <= b1hi]
    _add_curve(curves, CurveTag.P_L, 0, sweep,
               lambda b1, b2: condition_P_L(m.at(b1, b2)))

    b1s = np.linspace(max(0.0, b1lo), b1hi, n)
    sweep = [(b1, -s * m.theta1 * b1 ** m.lam) for b1 in b1s
             if b2lo <= -s * m.theta1 * b1 ** m.lam <= b2hi]
    _add_curve(curves, CurveTag.P_M, 0, sweep,
               lambda b1, b2: condition_P_M(m.at(b1, b2)))

    if has_fold_curve(m):
        branches = {}
        for b2 in np.linspace(b2lo, b2hi, n):
            probe = m.at(0.0, b2)
            for i, xi in enumerate(fold_points(probe)):
                # beta1 enters P - xi additively: solve directly
                base = b2 + s * m.theta1 * xi ** m.lam
                if base < 0:
                    continue
                b1 = xi - s * m.theta2 * base ** m.mu
                if b1lo <= b1 <= b1hi:
                    branches.setdefault(i, []).append((b1, b2))
        for i in sorted(branches):
            _add_curve(curves, CurveTag.F, 0, branches[i],
                       lambda b1, b2: condition_F(m.at(b1, b2)) or 0.0)

    # H^(0) are the lines beta2 = 0 (H_L) and beta1 = 0 (H_M)
    if b2lo <= 0.0 <= b2hi:
        _add_curve(curves, CurveTag.H_L, 0,
                   [(b1, 0.0) for b1 in np.linspace(b1lo, b1hi, n)],
                   lambda b1, b2: condition_H_L(m.at(b1, b2), 0))
    if b1lo <= 0.0 <= b1hi:
        _add_curve(curves, CurveTag.H_M, 0,
                   [(0.0, b2) for b2 in np.linspace(b2lo, b2hi, n)],
                   lambda b1, b2: condition_H_M(m.at(b1, b2), 0))

    for k in range(1, k_max + 1):
        for tag, cond in ((CurveTag.H_L, condition_H_L),
                          (CurveTag.H_M, condition_H_M)):
            pts = []
            for b2 in np.linspace(b2lo, b2hi, n):
                b1 = _solve_b1(m, cond, k, b2, b1lo, b1hi)
                if b1 is not None:
                    pts.append((b1, b2))
            _add_curve(curves, tag, k, pts,
                       lambda b1, b2, c=cond, kk=k: c(m.at(b1, b2), kk) or 0.0)
    return curves


def _solve_b1(m, cond, k, b2, b1lo, b1hi):
    f = lambda b1: _fin(cond(m.at(b1, b2), k))
    b1s = np.linspace(b1lo, b1hi, 400)
    return next((b1 for b1, _ in grid_roots(f, b1s, sample(f, b1s), 1e-14)),
                None)


# -- flashing series at the map level --------------------------------------


def flashing_series_map(m, segment, k_max=K_MAX_DEFAULT):
    """Ordered zeros of the k-turn conditions H_M^(k) along a (beta1,beta2)
    segment.

    ``segment = ((b1,b2) start, (b1,b2) end)``; the condition is evaluated
    at 2000 even steps of the segment parameter t in [0,1] and each sign
    change is refined by Brent's method.  Returns [(k, t, (b1,b2)), ...]
    for k = 0..k_max, truncated at the first k with no zero.
    """
    p0 = np.asarray(segment[0], float)
    p1 = np.asarray(segment[1], float)
    at = lambda t: p0 + t * (p1 - p0)

    zeros = []
    ts = np.linspace(0.0, 1.0, 2000)
    for k in range(k_max + 1):
        f = lambda t: _fin(condition_H_M(m.at(*at(t)), k))
        hit = next(grid_roots(f, ts, sample(f, ts), 1e-15), None)
        if hit is None:
            break
        zeros.append((k, hit[0], tuple(at(hit[0]))))
    return zeros
