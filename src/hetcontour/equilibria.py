"""Equilibrium location, classification, and saddle eigen-data.

Saddle indices follow the convention  lambda = -lambda_s / lambda_u  (ratio
of stable to unstable eigenvalue magnitudes); an index above 1 marks a
dissipative saddle.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import Degenerate, NoConvergence, NotASaddle
from .vectorfield import check_state

HYPERBOLICITY_CUTOFF = 1e-8
INDEX_DEGENERACY_CUTOFF = 1e-10


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
    """Position of (lambda, mu, lambda*mu) relative to 1, per the six-case
    taxonomy, with the reduction to a canonical representative."""

    lambda_lt_1: bool
    mu_lt_1: bool
    product_lt_1: bool
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
    built once for the whole search.
    """
    p = sys.full_params(params)
    rhs, jacobian = sys.fields(p)

    def field(z):
        check_state(z[0], z[1])
        return np.asarray(rhs(0.0, (z[0], z[1])))

    z = np.asarray(guess, float)
    f = field(z)
    for _ in range(max_iter):
        nf = np.linalg.norm(f)
        if nf <= tol:
            break
        J = jacobian(z[0], z[1])
        try:
            step = np.linalg.solve(J, -f)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular Jacobian during Newton iteration")
        lam = 1.0
        while lam > 1e-12:
            z_new = z + lam * step
            f_new = field(z_new)
            if np.linalg.norm(f_new) < (1 - 0.25 * lam) * nf:
                z, f = z_new, f_new
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"Newton stagnated at {tuple(z)} (|rhs|={nf:.3e})")
    else:
        raise NoConvergence(f"no convergence after {max_iter} damped steps")
    return (float(z[0]), float(z[1])), _classify(jacobian(z[0], z[1]))


def classify(sys, params, point):
    return _classify(sys.jacobian(point[0], point[1], params))


def _classify(J):
    ev = np.linalg.eigvals(J)
    re = np.real(ev)
    if np.any(np.abs(re) < HYPERBOLICITY_CUTOFF):
        return EquilibriumType.NON_HYPERBOLIC
    if np.all(np.abs(np.imag(ev)) > 0):
        return (EquilibriumType.STABLE_FOCUS if re[0] < 0
                else EquilibriumType.UNSTABLE_FOCUS)
    if re[0] * re[1] < 0:
        return EquilibriumType.SADDLE
    return (EquilibriumType.STABLE_NODE if re[0] < 0
            else EquilibriumType.UNSTABLE_NODE)


def saddle_data(sys, params, point, check_residual=1e-10):
    """Eigen-data of a saddle equilibrium, with a deterministic eigenvector
    sign convention (first nonzero component positive)."""
    p = sys.full_params(params)
    J = np.asarray(sys.jacobian(point[0], point[1], p), float)
    w, V = np.linalg.eig(J)
    if np.any(np.abs(np.imag(w)) > 0):
        raise NotASaddle(f"complex eigenvalues at {tuple(point)}")
    w = np.real(w)
    V = np.real(V)
    if not (w.min() < 0 < w.max()):
        raise NotASaddle(f"eigenvalues {w} are not of opposite sign")
    i_s, i_u = int(np.argmin(w)), int(np.argmax(w))
    vs = _normalize(V[:, i_s])
    vu = _normalize(V[:, i_u])
    for lam, v in ((w[i_s], vs), (w[i_u], vu)):
        resid = np.linalg.norm(J @ v - lam * v)
        if resid > check_residual:
            raise NotASaddle(f"eigenpair residual {resid:.2e} too large")
    return Saddle((float(point[0]), float(point[1])),
                  float(w[i_s]), float(w[i_u]), tuple(vs), tuple(vu))


def _normalize(v):
    v = v / np.linalg.norm(v)
    lead = v[0] if abs(v[0]) > 1e-14 else v[1]
    return v if lead > 0 else -v


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
    key = (lam < 1, mu < 1, lam * mu < 1)
    case_id = _CASE_TABLE[key]
    canonical, ops = _REDUCTION[case_id]
    return SubcaseTag(*key, case_id, canonical, ops)
