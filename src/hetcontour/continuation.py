"""Bifurcation-curve tracing in two-parameter planes.

Curves are zero sets of scalar gap functions, traced by pseudo-arclength
continuation (secant predictor, 1D Newton corrector transverse to the
tangent).  Codim-2 contour points are found by 2D Newton on a pair of gaps;
the reversible one-parameter family is handled by a dedicated scalar search
that exploits the x -> -x symmetry.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import equilibria as eq
from . import integrate as hi
from . import manifolds as mf
from .errors import (BracketError, CurveStall, Degenerate, HetContourError,
                     NoConvergence)
from .roots import brent, grid_roots, sample

RESIDUAL_TOL = 1e-6
STEP_MIN = 1e-6
STEP_MAX = 1e-2
K_MAX_DEFAULT = 5


class CurveTag(enum.Enum):
    P_L = "P_L"          # homoclinic loop of L
    P_M = "P_M"          # homoclinic loop of M
    F = "F"              # fold of limit cycles
    H_L = "H_L"          # k-turn heteroclinic onto L's stable side
    H_M = "H_M"          # k-turn heteroclinic onto M's stable side


@dataclass
class BifurcationCurve:
    tag: CurveTag
    k: int
    points: np.ndarray          # (n, 2) in the active parameter plane
    residuals: np.ndarray
    endpoints: tuple            # (reason at start end, reason at finish end)

    def __post_init__(self):
        self.points = np.asarray(self.points, float)
        self.residuals = np.asarray(self.residuals, float)

    def mirrored(self):
        """The curve reflected through the parameter-plane origin."""
        return BifurcationCurve(self.tag, self.k, -self.points[::-1],
                                self.residuals[::-1], self.endpoints[::-1])


@dataclass(frozen=True)
class Codim2Point:
    location: tuple
    residuals: tuple
    saddle_L: eq.Saddle
    saddle_M: eq.Saddle
    subcase: eq.SubcaseTag


@dataclass
class FlashingSeries:
    zeros: list                 # (k, t, point (2,), residual) in k order
    truncated_reason: str | None = None

    @property
    def k_found(self):
        return [z[0] for z in self.zeros]


# -- scalar curve tracing --------------------------------------------------


def _refine_on_normal(f, z, n, f0, tol, max_iter=12, h=1e-7):
    """1D Newton for f(z + s n) = 0 starting at s = 0."""
    s = 0.0
    fs = f0
    slope = None
    for _ in range(max_iter):
        if abs(fs) <= tol:
            return z + s * n, fs
        if slope is None:
            f_plus = f(z + (s + h) * n)
            slope = (f_plus - fs) / h
        if slope == 0 or not math.isfinite(slope):
            break
        s_new = s - fs / slope
        f_new = f(z + s_new * n)
        slope = (f_new - fs) / (s_new - s)   # secant update for next round
        s, fs = s_new, f_new
    if abs(fs) <= tol:
        return z + s * n, fs
    raise NoConvergence(f"corrector stalled (|f|={abs(fs):.2e})")


def _initial_tangent(f, z, f0, h=1e-6):
    gx = (f(z + np.array([h, 0.0])) - f0) / h
    gy = (f(z + np.array([0.0, h])) - f0) / h
    g = np.array([gx, gy])
    ng = np.linalg.norm(g)
    if ng == 0 or not np.isfinite(ng):
        raise NoConvergence("gap gradient vanished at the start point")
    return np.array([-g[1], g[0]]) / ng


def continue_curve(sys, zero_function, start, tag=CurveTag.H_L, k=0,
                   step=1e-3, step_min=STEP_MIN, step_max=STEP_MAX,
                   bounds=((-np.inf, np.inf), (-np.inf, np.inf)),
                   max_points=400, residual_tol=RESIDUAL_TOL,
                   both_directions=True):
    """Trace the zero curve of ``zero_function`` through ``start``.

    ``zero_function(sys, point)`` is a scalar gap; the start must already
    satisfy it to ``residual_tol``.  Returns a BifurcationCurve; corrector
    divergence below ``step_min`` raises CurveStall carrying the partial
    curve.
    """
    f = lambda z: float(zero_function(sys, z))
    z0 = np.asarray(start, float)
    f0 = f(z0)
    if abs(f0) > residual_tol:
        raise CurveStall(f"start residual {abs(f0):.2e} above tolerance")

    def in_bounds(z):
        return (bounds[0][0] <= z[0] <= bounds[0][1]
                and bounds[1][0] <= z[1] <= bounds[1][1])

    t0 = _initial_tangent(f, z0, f0)
    halves = []
    reasons = []
    for direction in ((1.0, -1.0) if both_directions else (1.0,)):
        pts = [z0.copy()]
        res = [f0]
        tangent = direction * t0
        h = step
        reason = "max_points"
        while len(pts) < max_points:
            z = pts[-1]
            zp = z + h * tangent
            n = np.array([-tangent[1], tangent[0]])
            try:
                z_new, f_new = _refine_on_normal(f, zp, n, f(zp), residual_tol)
            except HetContourError:
                if h > step_min * 1.001:
                    h = max(step_min, h / 2)
                    continue
                reason = "stall"
                break
            if not in_bounds(z_new):
                reason = "bounds"
                break
            step_len = np.linalg.norm(z_new - z)
            if step_len < 1e-14:
                reason = "stall"
                break
            pts.append(z_new)
            res.append(f_new)
            tangent = (z_new - z) / step_len
            h = min(step_max, 1.3 * h)
        halves.append((pts, res))
        reasons.append(reason)
    if both_directions:
        back_pts, back_res = halves[1]
        pts = back_pts[::-1] + halves[0][0][1:]
        res = back_res[::-1] + halves[0][1][1:]
        endpoints = (reasons[1], reasons[0])
    else:
        pts, res = halves[0]
        endpoints = ("start", reasons[0])
    curve = BifurcationCurve(tag, k, np.asarray(pts), np.asarray(res),
                             endpoints)
    if "stall" in endpoints and len(pts) < 3:
        raise CurveStall("continuation stalled immediately", partial=curve)
    return curve


# -- codim-2 Newton --------------------------------------------------------


def find_codim2(sys, residual_pair, guess, saddle_seeds, params_at,
                h=1e-5, tol=1e-9, step_tol=1e-8, max_iter=25):
    """2D Newton on a pair of gap functions.

    ``residual_pair(sys, point) -> (r1, r2)``; ``saddle_seeds`` are rough
    locations of the two saddles, used to attach eigen-data and the subcase
    tag at the solution, with the parameters ``params_at(point)``.
    """
    z = np.asarray(guess, float)
    F = np.asarray(residual_pair(sys, z), float)
    for _ in range(max_iter):
        if np.linalg.norm(F) <= tol:
            break
        J = np.empty((2, 2))
        for j in range(2):
            dz = np.zeros(2)
            dz[j] = h
            J[:, j] = (np.asarray(residual_pair(sys, z + dz), float) - F) / h
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise Degenerate("singular Jacobian of the residual pair")
        if abs(np.linalg.det(J)) < 1e-14:
            raise Degenerate("singular Jacobian of the residual pair")
        lam = 1.0
        nF = np.linalg.norm(F)
        while lam > 1e-6:
            z_new = z + lam * step
            F_new = np.asarray(residual_pair(sys, z_new), float)
            if np.linalg.norm(F_new) < nF:
                z, F = z_new, F_new
                break
            lam *= 0.5
        else:
            raise NoConvergence(f"codim-2 Newton stagnated at {tuple(z)}")
        if np.linalg.norm(lam * step) <= step_tol:
            F = np.asarray(residual_pair(sys, z), float)
            break
    else:
        raise NoConvergence("codim-2 Newton did not converge")

    params = params_at(z)
    saddles = []
    for seed in saddle_seeds:
        loc, _ = eq.find_equilibrium(sys, params, seed)
        saddles.append(eq.saddle_data(sys, params, loc))
    tag = eq.classify_subcase(saddles[0], saddles[1])
    return Codim2Point(tuple(z), tuple(F), saddles[0], saddles[1], tag)


# -- reversible one-parameter family ---------------------------------------


def _crossing(sys, params, seed_loc, section, pick, tol, arclength_cap):
    """``pick`` of the x at which the unstable branches of the saddle near
    ``seed_loc`` first cross ``section``; BracketError if neither does."""
    loc, _ = eq.find_equilibrium(sys, params, seed_loc)
    sad = eq.saddle_data(sys, params, loc)
    xs = []
    for side in (1, -1):
        br = mf.grow_branch(sys, params, sad, mf.Kind.UNSTABLE, side,
                            arclength_cap=arclength_cap, events=[section],
                            directions=[0], terminal=[0], tol=tol)
        xs.extend(z[0] for _, _, z in br.curve.event_hits)
    if not xs:
        raise BracketError(
            f"no unstable branch of {seed_loc} reached y = {section.base[1]}")
    return pick(xs)


def _reversible_splitting(sys, gamma, tol=(1e-10, 1e-10), arclength_cap=30.0,
                          frac=0.5):
    """Scalar contour condition for the x -> -x reversible family.

    The two saddles sit on the symmetry axis at (0,0) and (0,-gamma); the
    mirror of the unstable manifold of one is the stable manifold of the
    other, so the contour closes exactly when the two unstable branches
    cross a line y = -frac*gamma at opposite x.  Returns x_L + x_M.
    """
    params = sys.full_params({"gamma": gamma})
    section = hi.CrossSection.at((0.0, -gamma * frac), (0.0, 1.0))
    # the branch on the x > 0 side, and the one whose mirror matches it
    x_L = _crossing(sys, params, (0.0, 0.0), section, max, tol, arclength_cap)
    x_M = _crossing(sys, params, (0.0, -gamma), section, min, tol,
                    arclength_cap)
    return x_L + x_M


def find_reversible_contour(sys, bracket, xtol=1e-6, tol=(1e-10, 1e-10)):
    """Parameter value at which the reversible family has a full contour.

    Brent's method on the scalar splitting; raises BracketError when the
    splitting does not change sign on ``bracket``.
    """
    f = lambda gamma: _reversible_splitting(sys, gamma, tol=tol)
    a, b = float(bracket[0]), float(bracket[1])
    return brent(f, a, b, f(a), f(b), xtol)[0]


def reversible_contour_asymmetry(sys, gamma, fractions=(0.25, 0.5, 0.75),
                                 tol=(1e-10, 1e-10)):
    """Largest |x_L + x_M| over several horizontal sections of the contour."""
    worst = 0.0
    for frac in fractions:
        try:
            split = _reversible_splitting(sys, gamma, tol, frac=frac)
        except BracketError:
            continue                  # a section no branch reaches
        worst = max(worst, abs(split))
    return worst


# -- flashing series -------------------------------------------------------


def flashing_series(sys, gap_fn, segment, k_max=K_MAX_DEFAULT, samples=25,
                    xtol=1e-8):
    """Zeros of the k-turn connection gaps along a parameter segment.

    ``gap_fn(sys, point, k)`` is the winding gap (may raise
    InsufficientWinding when the branch leaves before k turns);
    ``segment = (p0, p1)`` are the endpoints in the parameter plane.
    Each k's gap is sampled at ``samples`` even steps; its zero is the
    first zero sample or cell of strictly opposite end signs along the
    segment, and a sample where the gap fails brackets nothing.
    Returns a FlashingSeries with one zero per reachable k; the series
    ends, with the reason, at the first k whose gap keeps its sign along
    the segment or fails inside the bracket of its zero.
    """
    p0 = np.asarray(segment[0], float)
    p1 = np.asarray(segment[1], float)
    point_at = lambda t: p0 + t * (p1 - p0)

    zeros = []
    reason = None
    ts = np.linspace(0.0, 1.0, samples)
    for k in range(k_max + 1):
        tried = []

        def f(t):
            tried.append(t)
            return float(gap_fn(sys, point_at(t), k))
        # a failure inside the bracket ends the series: the zero is not
        # known there, and shrinking past the failure could report one
        try:
            t, r = next(grid_roots(f, ts, sample(f, ts), xtol))
        except StopIteration:
            reason = f"no sign change of the {k}-turn gap along the segment"
            break
        except HetContourError as exc:
            reason = (f"the {k}-turn gap failed at t = {tried[-1]!r} inside "
                      f"its bracket: {type(exc).__name__}: {exc}")
            break
        zeros.append((k, t, point_at(t), r))
    return FlashingSeries(zeros, reason)
