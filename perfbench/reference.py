"""Reference computations kept apart from the package.

Nothing here imports ``hetcontour``.  The two fields the workloads check are
written out by hand together with their Jacobians, saddle data come from the
closed-form 2x2 eigen-decomposition, manifold branches are shot with
scipy's DOP853 at a tighter tolerance than the package uses, and model-map
fixed points are counted by brute-force sampling of the map formula.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

SHOOT_TOL = 1e-12
SEED_OFFSET = 1e-8


# -- the two fields, by hand ----------------------------------------------


def revers_gamma(gamma):
    """x' = y^2 + gamma y,  y' = x + x y - x^3, with its Jacobian."""
    def f(t, z):
        x, y = z
        return [y * y + gamma * y, x + x * y - x ** 3]

    def jac(x, y):
        return np.array([[0.0, 2.0 * y + gamma],
                         [1.0 + y - 3.0 * x * x, x]])
    return f, jac


def diss_heart(gamma, alpha, epsilon):
    """x' = eps x + y^2 + gamma y,  y' = alpha y + x + x y - x^3."""
    def f(t, z):
        x, y = z
        return [epsilon * x + y * y + gamma * y,
                alpha * y + x + x * y - x ** 3]

    def jac(x, y):
        return np.array([[epsilon, 2.0 * y + gamma],
                         [1.0 + y - 3.0 * x * x, alpha + x]])
    return f, jac


# -- saddles ---------------------------------------------------------------


def equilibrium(f, jac, guess, tol=1e-14, max_iter=50):
    """Plain Newton from ``guess`` with the hand-written Jacobian."""
    z = np.asarray(guess, float)
    for _ in range(max_iter):
        r = np.asarray(f(0.0, z))
        if np.max(np.abs(r)) <= tol:
            return z
        z = z - np.linalg.solve(jac(*z), r)
    raise RuntimeError(f"no equilibrium near {guess}")


def _unit(v):
    v = np.asarray(v, float) / math.hypot(v[0], v[1])
    lead = v[0] if abs(v[0]) > 1e-14 else v[1]
    return v if lead > 0 else -v


def saddle(f, jac, guess):
    """Location, (lambda_s, lambda_u), (v_s, v_u) from the 2x2 formulas.

    Eigenvectors are unit length with their first nonzero component
    positive, the sign convention the branch sides refer to.
    """
    z = equilibrium(f, jac, guess)
    (a, b), (c, d) = jac(*z)
    half_tr = 0.5 * (a + d)
    disc = half_tr * half_tr - (a * d - b * c)
    if disc <= 0:
        raise RuntimeError(f"equilibrium {z} is not a saddle")
    root = math.sqrt(disc)
    lam_s, lam_u = half_tr - root, half_tr + root
    if not lam_s < 0 < lam_u:
        raise RuntimeError(f"equilibrium {z} is not a saddle")

    def vec(lam):
        # (J - lam I) v = 0 from whichever row is better conditioned
        if abs(b) + abs(a - lam) >= abs(c) + abs(d - lam):
            return _unit((b, lam - a))
        return _unit((lam - d, c))
    return z, (lam_s, lam_u), (vec(lam_s), vec(lam_u))


def index(f, jac, guess):
    """Saddle index -lambda_s / lambda_u."""
    _, (lam_s, lam_u), _ = saddle(f, jac, guess)
    return -lam_s / lam_u


# -- shooting --------------------------------------------------------------


def shoot(f, jac, guess, unstable, side, base, normal, direction=0,
          t_max=200.0):
    """First crossing of a branch with the line through ``base``.

    The branch of the saddle near ``guess`` leaves along ``side`` times its
    unit eigenvector; stable branches are shot in backward time.
    ``direction`` filters the crossing by the sign of d/dt of the offset
    along ``normal`` in forward time.  Returns the crossing point or None.
    """
    z, _, (v_s, v_u) = saddle(f, jac, guess)
    v = v_u if unstable else v_s
    x0 = z + side * SEED_OFFSET * (1.0 + np.linalg.norm(z)) * v
    n = np.asarray(normal, float) / math.hypot(normal[0], normal[1])
    sign = 1.0 if unstable else -1.0

    def event(t, p):
        return (p[0] - base[0]) * n[0] + (p[1] - base[1]) * n[1]
    event.terminal = True
    event.direction = sign * direction

    def escape(t, p):
        return p[0] * p[0] + p[1] * p[1] - 1e6
    escape.terminal = True

    sol = solve_ivp(f, (0.0, sign * t_max), x0, method="DOP853",
                    rtol=SHOOT_TOL, atol=SHOOT_TOL, events=[event, escape])
    hits = sol.y_events[0]
    return tuple(hits[0]) if len(hits) else None


def reversible_split(gamma):
    """x_L + x_M where the unstable branches of the two saddles of
    ``revers_gamma`` first cross the mid-line y = -gamma/2.

    x_L is the rightmost crossing of the saddle at the origin, x_M the
    leftmost crossing of the saddle at (0, -gamma); by the x -> -x
    reversibility the contour closes where their sum vanishes.
    """
    f, jac = revers_gamma(gamma)
    base = (0.0, -gamma / 2.0)

    def crossings(guess):
        xs = []
        for side in (1, -1):
            hit = shoot(f, jac, guess, True, side, base, (0.0, 1.0))
            if hit is not None:
                xs.append(hit[0])
        if not xs:
            raise RuntimeError(f"no branch of {guess} reached the mid-line")
        return xs
    return max(crossings((0.0, 0.0))) + min(crossings((0.0, -gamma)))


# the two connections of the lower contour point of diss_heart at
# gamma = 2.7: (source seed, source side, target seed, target side,
# section base); sections are transverse to the flow at their base and
# the crossing is taken in the flow direction
HEART_CONNECTIONS = {
    "LM": ((0.0, 0.0), 1, (-0.57, -2.6), 1, (0.0, -2.16)),
    "ML": ((-0.57, -2.6), -1, (0.0, 0.0), -1, (-0.35, 0.15)),
}
HEART_GAMMA = 2.7


def heart_gap(alpha, epsilon, connection):
    """Signed splitting of one connection of ``diss_heart`` at (alpha, eps).

    Distance along the section between the source's unstable branch and
    the target's stable branch, at their first crossings.
    """
    f, jac = diss_heart(HEART_GAMMA, alpha, epsilon)
    src, src_side, tgt, tgt_side, base = HEART_CONNECTIONS[connection]
    normal = np.asarray(f(0.0, base))
    normal = normal / np.linalg.norm(normal)
    tangent = np.array([-normal[1], normal[0]])
    u = shoot(f, jac, src, True, src_side, base, normal, direction=1)
    s = shoot(f, jac, tgt, False, tgt_side, base, normal, direction=1)
    if u is None or s is None:
        raise RuntimeError(f"{connection}: a branch never met the section")
    return float(np.dot(np.subtract(u, s), tangent))


def heart_indices(alpha, epsilon, seeds=((0.0, 0.0), (-0.57, -2.6))):
    """Saddle indices of ``diss_heart`` at (alpha, eps) near ``seeds``."""
    f, jac = diss_heart(HEART_GAMMA, alpha, epsilon)
    return tuple(index(f, jac, s) for s in seeds)


# -- model map -------------------------------------------------------------


def _domain_grid(lam, sign, b2, xi_max, n):
    """Samples of the map's domain in (0, xi_max], geometric toward both
    ends, where roots created at an edge sit; None for an empty domain."""
    if sign > 0:
        lo = 0.0 if b2 >= 0 else (-b2) ** (1.0 / lam)
        hi = xi_max
    else:
        if b2 < 0:
            return None
        lo, hi = 0.0, min(xi_max, b2 ** (1.0 / lam))
    if lo >= hi:
        return None
    span = hi - lo
    xs = np.unique(np.concatenate([lo + np.geomspace(1e-15, span, n),
                                   hi - np.geomspace(1e-15, span, n)]))
    return xs[(xs > lo) & (xs < hi)]


def map_fixed_point_count(lam, mu, sign, b1, b2, xi_max=5.0, n=3000):
    """Fixed points of P(xi) = b1 + s (b2 + s xi^lam)^mu in (0, xi_max],
    counted by brute force as sign changes of P(xi) - xi on a fine grid."""
    xs = _domain_grid(lam, sign, b2, xi_max, n)
    if xs is None:
        return 0
    inner = b2 + sign * xs ** lam
    with np.errstate(invalid="ignore"):
        g = np.where(inner >= 0, b1 + sign * np.abs(inner) ** mu, np.nan) - xs
        return int(np.count_nonzero(g[:-1] * g[1:] < 0)
                   + np.count_nonzero(g == 0.0))


def map_fold_b1(lam, mu, sign, b2, xi_max=5.0, n=3000):
    """beta1 values at which P has a double fixed point, for this beta2.

    A double fixed point xi has P'(xi) = 1 and P(xi) = xi; since beta1
    enters P additively, each root of P' = 1 on the domain gives one beta1.
    """
    xs = _domain_grid(lam, sign, b2, xi_max, n)
    if xs is None:
        return []

    def slope_minus_one(x):
        with np.errstate(divide="ignore", invalid="ignore"):
            inner = np.maximum(b2 + sign * x ** lam, 0.0)
            return mu * inner ** (mu - 1) * lam * x ** (lam - 1) - 1.0

    d = slope_minus_one(xs)
    out = []
    for i in np.flatnonzero(np.isfinite(d[:-1]) & np.isfinite(d[1:])
                            & (d[:-1] * d[1:] < 0)):
        a, b, fa = xs[i], xs[i + 1], d[i]
        while b - a > 1e-15 * max(1.0, b):
            m = 0.5 * (a + b)
            fm = slope_minus_one(m)
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        xi = 0.5 * (a + b)
        out.append(xi - sign * max(b2 + sign * xi ** lam, 0.0) ** mu)
    return out
