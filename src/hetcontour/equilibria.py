"""Equilibrium location, classification, and saddle eigen-data.

Saddle indices follow the convention  lambda = -lambda_s / lambda_u  (ratio
of stable to unstable eigenvalue magnitudes); an index above 1 marks a
dissipative saddle.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, NoConvergence, NotASaddle
from .roots import RTOL, brent
from .vectorfield import MAX_DEGREE, check_state

HYPERBOLICITY_CUTOFF = 1e-8
INDEX_DEGENERACY_CUTOFF = 1e-10
TRAP_NEWTON_STEP = 1e-2     # largest |J^-1 F| / (1 + |z|) of a trap search
TRAP_NEWTON_ITERATIONS = 8
EIGEN_RESIDUAL_MAX = 1e-10  # largest |J v - lambda v| of a saddle eigenpair


class EquilibriumType(enum.Enum):
    SADDLE = "saddle"
    STABLE_FOCUS = "stable_focus"
    UNSTABLE_FOCUS = "unstable_focus"
    STABLE_NODE = "stable_node"
    UNSTABLE_NODE = "unstable_node"
    NON_HYPERBOLIC = "non_hyperbolic"


@dataclass(frozen=True)
class Saddle:
    location: tuple
    lambda_s: float
    lambda_u: float
    v_s: tuple
    v_u: tuple

    @property
    def index(self):
        return -self.lambda_s / self.lambda_u

    def __post_init__(self):
        if not self.lambda_s < 0 < self.lambda_u:
            raise NotASaddle(f"eigenvalues ({self.lambda_s}, {self.lambda_u})"
                             " are not of opposite sign")


@dataclass(frozen=True)
class SubcaseTag:
    """Case of the six-case taxonomy that the positions of (lambda, mu,
    lambda*mu) relative to 1 name, with the reduction to a canonical
    representative."""

    case_id: int
    canonical_id: int          # 1, 2 or 6
    reductions: tuple          # subset of ("swap", "time_reversal")

    @property
    def family(self):
        """'first' = both indices on the same side (cases 5/6),
        'second' = indices straddling 1 (cases 1-4)."""
        return "first" if self.canonical_id == 6 else "second"


def find_equilibrium(sys, params=None, guess=(0.0, 0.0), tol=1e-12,
                     max_iter=100):
    """Damped (Armijo) Newton search for an equilibrium near ``guess``.

    Returns ``(point, EquilibriumType)``.  The field and its Jacobian are
    built once for the whole search, and each Newton step is the 2x2
    solve by Cramer's rule.
    """
    p = sys.full_params(params)
    rhs, jacobian, _ = sys.fields(p)

    def field(x, y):
        check_state(x, y)
        return rhs(0.0, (x, y))

    x, y = (float(v) for v in guess)
    fx, fy = field(x, y)
    for _ in range(max_iter):
        nf = math.hypot(fx, fy)
        if nf <= tol:
            break
        (a, b), (c, d) = jacobian(x, y).tolist()
        det = a * d - b * c
        if det == 0:
            raise NoConvergence("singular Jacobian during Newton iteration")
        sx, sy = (b * fy - d * fx) / det, (c * fx - a * fy) / det
        lam = 1.0
        while lam > 1e-12:
            x_new, y_new = x + lam * sx, y + lam * sy
            f_new = field(x_new, y_new)
            if math.hypot(*f_new) < (1 - 0.25 * lam) * nf:
                x, y, (fx, fy) = x_new, y_new, f_new
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"Newton stagnated at {(x, y)} (|rhs|={nf:.3e})")
    else:
        raise NoConvergence(f"no convergence after {max_iter} damped steps")
    return (x, y), _classify(jacobian(x, y))


def classify(sys, params, point):
    return _classify(sys.jacobian(point[0], point[1], params))


def _eigenvalues(a, b, c, d):
    """The real eigenvalues ``(lam1, lam2)`` of [[a, b], [c, d]], with
    |lam1| >= |lam2|, or None for a complex pair.

    lam1 = tr/2 + sign(tr) sqrt(disc) adds two numbers of one sign and
    lam2 = det / lam1, so neither root loses digits to cancellation; disc =
    ((a - d)/2)^2 + b c is (tr/2)^2 - det.
    """
    half = (a + d) / 2
    disc = ((a - d) / 2) ** 2 + b * c
    if disc < 0:
        return None
    lam1 = half + math.copysign(math.sqrt(disc), half)
    return lam1, ((a * d - b * c) / lam1 if lam1 else 0.0)


def _classify(J):
    (a, b), (c, d) = np.asarray(J, float).tolist()
    ev = _eigenvalues(a, b, c, d)
    if ev is None:                      # a focus: both real parts are tr/2
        re = (a + d) / 2
        if abs(re) < HYPERBOLICITY_CUTOFF:
            return EquilibriumType.NON_HYPERBOLIC
        return (EquilibriumType.STABLE_FOCUS if re < 0
                else EquilibriumType.UNSTABLE_FOCUS)
    if min(abs(ev[0]), abs(ev[1])) < HYPERBOLICITY_CUTOFF:
        return EquilibriumType.NON_HYPERBOLIC
    if ev[0] * ev[1] < 0:
        return EquilibriumType.SADDLE
    return (EquilibriumType.STABLE_NODE if ev[0] < 0
            else EquilibriumType.UNSTABLE_NODE)


def sink_trap(sys, params, z, sections=()):
    """The stable node or focus q whose certified trap holds ``z`` and
    passes within r* of no section line, else None.

    q is ``TRAP_NEWTON_ITERATIONS`` closed-form Newton steps from ``z``,
    each from a point where tr J < 0 < det J and at most
    ``TRAP_NEWTON_STEP`` long, so a rejected ``z`` costs one field build.
    With A = J(q), A^T P + P A = -I and |F(q + e) - A e| <= sum C_k |e|^k,
    2 lambda_max(P) sum C_k r*^(k-1) = 1/2 gives dV/dt <= -|e|^2 / 2 for
    V = e^T P e on the trap V <= lambda_min(P) r*^2, so every orbit in it
    stays there and tends to q (Khalil, *Nonlinear Systems*, 3rd ed., 8.2).
    """
    rhs, jacobian, _ = sys.fields(params)
    # plain steps, not find_equilibrium's damped search: every iterate
    # must pass the sink and step-length tests below
    q = (float(z[0]), float(z[1]))
    for i in range(TRAP_NEWTON_ITERATIONS + 1):
        if i:
            q = (q[0] - sx, q[1] - sy)
        (a, b), (c, d) = A = jacobian(q[0], q[1]).tolist()
        det = a * d - b * c
        if not a + d < 0 < det:
            return None
        fx, fy = rhs(0.0, q)
        sx, sy = (d * fx - b * fy) / det, (a * fy - c * fx) / det
        if math.hypot(sx, sy) > TRAP_NEWTON_STEP * (1 + math.hypot(*q)):
            return None
    (p11, p12, p22), lmax, radius = _lyapunov_trap(
        A, _remainder_bounds(sys, params, q))
    level = (p11 + p22 - lmax) * radius * radius   # lambda_min r*^2
    ex, ey = z[0] - q[0], z[1] - q[1]
    # with Newton's residual F(q), dV/dt <= -|e|^2/2 + 2 lmax |e| |F(q)|
    if (p11 * ex * ex + 2 * p12 * ex * ey + p22 * ey * ey > level
            or 4 * lmax * math.hypot(fx, fy) >= math.sqrt(level / lmax)
            or any(abs(s.offset(q)) <= radius for s in sections)):
        return None
    return q


def _lyapunov_trap(A, bounds):
    """``((P11, P12, P22), lambda_max(P), r*)`` for a sink's Jacobian ``A``
    and remainder bounds ``C_k`` (index k); r* = inf for a linear field."""
    (a, b), (c, d) = A
    # A^T P + P A = -I: three linear equations in P11, P12, P22, by Cramer
    t2d = 2 * (a + d) * (a * d - b * c)
    P = (-(d * (a + d) - b * c + c * c) / t2d, (a * c + b * d) / t2d,
         -(a * (a + d) - b * c + b * b) / t2d)
    lmax = (P[0] + P[2]) / 2 + math.hypot((P[0] - P[2]) / 2, P[1])
    terms = [(k, C) for k, C in enumerate(bounds) if C > 0]
    if not terms:
        return P, lmax, math.inf
    g = lambda r: 2 * lmax * sum(C * r ** (k - 1) for k, C in terms) - 0.5
    # one term alone is 1/2 at top / 2; r* is the low end of brent's bracket
    top = 2 * min((4 * lmax * C) ** (-1 / (k - 1)) for k, C in terms)
    root, _ = brent(g, 0.0, top, -0.5, g(top), 1e-9 * top)
    return P, lmax, root - 1e-9 * top - RTOL * root


def _remainder_bounds(sys, params, q):
    """``C_k`` (index k >= 2), |F(q + e) - F(q) - J(q) e| <= sum C_k |e|^k:
    the monomials' absolute Taylor coefficients at q, by |e_x^i e_y^j| <=
    |e|^(i + j)."""
    p = sys.full_params(params)
    per = np.zeros((2, MAX_DEGREE + 1))
    for row, poly in enumerate((sys.x_dot, sys.y_dot)):
        for (px, py), coeff in poly.items():
            c = float(coeff.evaluate(p))
            for a in range(px + 1):
                for b in range(max(0, 2 - a), py + 1):
                    per[row, a + b] += abs(
                        c * math.comb(px, a) * math.comb(py, b)
                        * q[0] ** (px - a) * q[1] ** (py - b))
    return np.hypot(*per).tolist()


def saddle_data(sys, params, point):
    """Eigen-data of a saddle equilibrium, with a deterministic eigenvector
    sign convention (first nonzero component positive).

    The eigenvalues are `_eigenvalues`'s roots; each eigenvector is the
    null vector of the larger-norm row of J - lambda I.
    """
    p = sys.full_params(params)
    (a, b), (c, d) = sys.jacobian(point[0], point[1], p).tolist()
    ev = _eigenvalues(a, b, c, d)
    if ev is None:
        raise NotASaddle(f"complex eigenvalues at {tuple(point)}")
    lam_s, lam_u = min(ev), max(ev)
    if not lam_s < 0 < lam_u:
        raise NotASaddle(f"eigenvalues {ev} are not of opposite sign")
    pairs = []
    for lam in (lam_s, lam_u):
        r0, r1 = max(((a - lam, b), (c, d - lam)),
                     key=lambda row: math.hypot(*row))
        v = _normalize((-r1, r0))
        resid = math.hypot(a * v[0] + b * v[1] - lam * v[0],
                           c * v[0] + d * v[1] - lam * v[1])
        if resid > EIGEN_RESIDUAL_MAX:
            raise NotASaddle(f"eigenpair residual {resid:.2e} too large")
        pairs.append(v)
    return Saddle((float(point[0]), float(point[1])), lam_s, lam_u, *pairs)


def saddles_at(sys, params, seeds):
    """`saddle_data` of the equilibrium found from each of ``seeds``."""
    return [saddle_data(sys, params, find_equilibrium(sys, params, s)[0])
            for s in seeds]


def _normalize(v):
    n = math.hypot(*v)
    v = (v[0] / n, v[1] / n)
    lead = v[0] if abs(v[0]) > 1e-14 else v[1]
    return v if lead > 0 else (-v[0], -v[1])


_CASE_TABLE = {
    (True, False, True): 1,
    (True, False, False): 2,
    (False, True, False): 3,
    (False, True, True): 4,
    (False, False, False): 5,
    (True, True, True): 6,
}

_REDUCTION = {
    1: (1, ()),
    2: (2, ()),
    3: (2, ("swap",)),
    4: (1, ("swap",)),
    5: (6, ("time_reversal",)),
    6: (6, ()),
}


def classify_subcase(saddle_L, saddle_M):
    """Six-case tag for a saddle pair plus reduction to canonical form.

    Reductions: swapping the roles of L and M maps 3 -> 2 and 4 -> 1; time
    reversal (indices -> reciprocals) maps 5 -> 6.  Canonical ids are 6
    (both indices below 1) and 1/2 (indices straddling 1).
    """
    lam = saddle_L.index
    mu = saddle_M.index
    if abs(lam - 1) < INDEX_DEGENERACY_CUTOFF or abs(mu - 1) < INDEX_DEGENERACY_CUTOFF:
        raise Degenerate(f"saddle index at 1 within tolerance (lambda={lam}, mu={mu})")
    case_id = _CASE_TABLE[(lam < 1, mu < 1, lam * mu < 1)]
    return SubcaseTag(case_id, *_REDUCTION[case_id])
