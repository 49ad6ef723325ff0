"""Truncated one-dimensional return maps for a saddle contour.

The map is the composition of two saddle passages and two global
excursions:  P(xi) = beta1 + s*theta2*(beta2 + s*theta1*xi**lam)**mu  with
s = +1 (monodromic) or s = -1 (non-monodromic).  Points whose inner base is
negative miss the second section; that is reported as OutOfDomain, never
clamped.  Connection conditions (homoclinic P_L / P_M and the k-turn
heteroclinic series H^(k)) and the fold-of-cycles curve F are computed in
the (beta1, beta2) plane.
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


def fold_points(m, xi_max=10.0, samples=200):
    """All xi > 0 solving P'(xi) = 1, in increasing order.

    The derivative is monotone only piecewise (it diverges at a domain
    edge when an index is below one), so there may be two roots: the fold
    bounding a two-fixed-point region is the larger one.
    """
    f = lambda x: _fin(eval_derivative(m, x)) - 1.0
    xs = np.geomspace(1e-12, xi_max, samples)
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


def _scan_grid(m, xi_max, samples):
    """Geometric sample grid of the domain, refined toward both edges."""
    dom = domain_interval(m)
    if dom is None:
        return None
    lo, hi = dom
    hi = min(hi, xi_max)
    if lo >= hi:
        return None
    if lo > 0:
        return lo + np.geomspace(1e-15, hi - lo, samples)
    half = samples // 2
    xs = np.geomspace(1e-12, hi, samples - half)
    if math.isfinite(hi):
        # refine toward the upper edge as well
        xs = np.unique(np.concatenate([xs, hi - np.geomspace(1e-15, hi, half)]))
    return xs[(xs > 0) & (xs <= hi)]


def _displacement(m, xs):
    """P(xs) - xs, vectorized; NaN where the inner base is negative."""
    s = m.sign
    base = m.beta2 + s * m.theta1 * np.power(xs, m.lam)
    with np.errstate(invalid="ignore"):
        p = np.where(base >= 0,
                     m.beta1 + s * m.theta2 * np.power(np.abs(base), m.mu),
                     np.nan)
    return p - xs


def fixed_points(m, xi_max=10.0, samples=2000):
    """All fixed points of P in (0, xi_max], by dense sign scanning.

    Sampling is geometric from the domain edges so roots created right at
    an edge (the homoclinic boundary) are not missed.  A zero sample of
    P(xi) - xi is one fixed point, a cell of strictly opposite end signs
    holds one, and a sample off the domain brackets nothing.
    """
    xs = _scan_grid(m, xi_max, samples)
    if xs is None:
        return []
    # sampled in scalar arithmetic, as the solver's iterates are computed
    f = lambda x: _fin(eval_map(m, x)) - x
    return [x for x, _ in grid_roots(f, xs, sample(f, xs), 1e-15)]


def fixed_point_count(m, xi_max=10.0, samples=2000):
    """Number of fixed points in (0, xi_max]: the sign changes, by the rule
    of ``fixed_points``, of the vectorized displacement on its grid."""
    xs = _scan_grid(m, xi_max, samples)
    if xs is None:
        return 0
    return len(sign_changes(_displacement(m, xs)))


# -- bifurcation set in the (beta1, beta2) plane ---------------------------


def _check_generic(m):
    if abs(m.lam - 1) < 1e-10 or abs(m.mu - 1) < 1e-10 \
            or abs(m.lam * m.mu - 1) < 1e-10:
        raise Degenerate(
            f"indices degenerate (lam={m.lam}, mu={m.mu})")


def _sweep_curve(tag, k, sweep, residual_fn):
    pts, res = [], []
    for b1, b2 in sweep:
        pts.append((b1, b2))
        r = residual_fn(b1, b2)
        res.append(0.0 if r is None else r)
    return BifurcationCurve(tag, k, np.asarray(pts), np.asarray(res),
                            ("range", "range"))


def has_fold_curve(m):
    """F exists when the indices straddle 1 (second family)."""
    return (m.lam - 1) * (m.mu - 1) < 0


def bifurcation_set(m, box=((-0.5, 0.5), (-0.5, 0.5)), n=101,
                    k_max=K_MAX_DEFAULT):
    """Connection and fold curves of the family (beta1, beta2) in ``box``.

    P_L and P_M are closed-form; F is swept in beta2 solving P'(xi)=1;
    H^(k) zeros are bracketed on beta1 lines per beta2 sample.  Residuals
    of the returned polylines are <= 1e-10 by construction.
    """
    _check_generic(m)
    (b1lo, b1hi), (b2lo, b2hi) = box
    s = m.sign
    curves = []

    b2s = np.linspace(max(0.0, b2lo), b2hi, n)
    sweep = [(-s * m.theta2 * b2 ** m.mu, b2) for b2 in b2s
             if b1lo <= -s * m.theta2 * b2 ** m.mu <= b1hi]
    if sweep:
        curves.append(_sweep_curve(
            CurveTag.P_L, 0, sweep,
            lambda b1, b2: condition_P_L(m.at(b1, b2))))

    b1s = np.linspace(max(0.0, b1lo), b1hi, n)
    sweep = [(b1, -s * m.theta1 * b1 ** m.lam) for b1 in b1s
             if b2lo <= -s * m.theta1 * b1 ** m.lam <= b2hi]
    if sweep:
        curves.append(_sweep_curve(
            CurveTag.P_M, 0, sweep,
            lambda b1, b2: condition_P_M(m.at(b1, b2))))

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
            curves.append(_sweep_curve(
                CurveTag.F, 0, branches[i],
                lambda b1, b2: condition_F(m.at(b1, b2)) or 0.0))

    for k in range(k_max + 1):
        for tag, cond in ((CurveTag.H_L, condition_H_L),
                          (CurveTag.H_M, condition_H_M)):
            pts = []
            for b2 in np.linspace(b2lo, b2hi, n):
                b1 = _solve_b1(m, cond, k, b2, b1lo, b1hi)
                if b1 is not None:
                    pts.append((b1, b2))
            if pts:
                curves.append(_sweep_curve(
                    tag, k, pts,
                    lambda b1, b2, c=cond, kk=k: c(m.at(b1, b2), kk) or 0.0))
    return curves


def _solve_b1(m, cond, k, b2, b1lo, b1hi, samples=400):
    f = lambda b1: _fin(cond(m.at(b1, b2), k))
    b1s = np.linspace(b1lo, b1hi, samples)
    return next((b1 for b1, _ in grid_roots(f, b1s, sample(f, b1s), 1e-14)),
                None)


# -- flashing series at the map level --------------------------------------


def flashing_series_map(m, segment, k_max=K_MAX_DEFAULT, which="H_M",
                        samples=2000):
    """Ordered zeros of the k-turn conditions along a (beta1,beta2) segment.

    ``segment = ((b1,b2) start, (b1,b2) end)``; the condition is evaluated
    densely in the segment parameter t in [0,1] and each sign change is
    refined by Brent's method.  Returns [(k, t, (b1,b2)), ...] for
    k = 0..k_max, truncated at the first k with no zero.
    """
    cond = {"H_M": condition_H_M, "H_L": condition_H_L}[which]
    p0 = np.asarray(segment[0], float)
    p1 = np.asarray(segment[1], float)
    at = lambda t: p0 + t * (p1 - p0)

    zeros = []
    ts = np.linspace(0.0, 1.0, samples)
    for k in range(k_max + 1):
        f = lambda t: _fin(cond(m.at(*at(t)), k))
        hit = next(grid_roots(f, ts, sample(f, ts), 1e-15), None)
        if hit is None:
            break
        zeros.append((k, hit[0], tuple(at(hit[0]))))
    return zeros
