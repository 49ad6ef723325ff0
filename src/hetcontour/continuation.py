"""Bifurcation-curve tracing in two-parameter planes.

Curves are zero sets of scalar gap functions, traced by pseudo-arclength
continuation (secant predictor, 1D secant corrector transverse to the
tangent, each corrector starting from the last slope of the one before)
from a start whose gap and gradient the caller supplies.  Codim-2 contour
points are found by damped Newton on a pair of gaps and their exact
Jacobian; the reversible one-parameter family is handled by a dedicated
scalar search that exploits the x -> -x symmetry.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import equilibria as eq
from . import integrate as hi
from . import manifolds as mf
from .errors import (BracketError, CurveStall, Degenerate, DomainError,
                     HetContourError, InsufficientWinding, NoConvergence)
from .roots import brent, grid_roots

# a curve point's gap is at most RESIDUAL_TOL; a failed corrector halves
# the step down to STEP_MIN, and a good one grows it up to ``step_max``
# (STEP_MAX by default)
RESIDUAL_TOL = 1e-6
STEP_MIN = 1e-6
STEP_MAX = 1e-2
# the forward-difference step of the corrector's fallback slope
CORRECTOR_H = 1e-7
# the codim-2 Newton stops at |F| <= CODIM2_TOL or a step of at most
# CODIM2_STEP_TOL, and fails after CODIM2_MAX_ITER steps
CODIM2_TOL, CODIM2_STEP_TOL, CODIM2_MAX_ITER = 1e-9, 1e-8, 25
K_MAX_DEFAULT = 5


class CurveTag(enum.Enum):
    P_L = "P_L"          # homoclinic loop of L
    P_M = "P_M"          # homoclinic loop of M
    F = "F"              # fold of limit cycles
    H_L = "H_L"          # k-turn heteroclinic connection L -> M
    H_M = "H_M"          # k-turn heteroclinic connection M -> L


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
    jacobian: tuple             # rows: the residuals' gradients there
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


def _refine_on_normal(f, z, n, f0, slope, tol, max_iter=12):
    """1D Newton for f(z + s n) = 0 starting at s = 0 from the given slope
    df/ds, with the secant slope of each step for the next.

    When the first step from the given slope does not shrink |f|, or f
    cannot be measured there, the slope falls back to one difference over
    ``CORRECTOR_H`` at s = 0.  Returns ``(point, f there, last slope)``.
    """
    s, fs = 0.0, f0
    for i in range(max_iter):
        if abs(fs) <= tol:
            return z + s * n, fs, slope
        if slope == 0 or not math.isfinite(slope):
            break
        s_new = s - fs / slope
        try:
            f_new = f(z + s_new * n)
        except HetContourError:
            if i:
                raise
            f_new = math.inf
        if i == 0 and not abs(f_new) < abs(fs):
            slope = (f(z + CORRECTOR_H * n) - fs) / CORRECTOR_H
            continue
        slope = (f_new - fs) / (s_new - s)   # secant slope for the next step
        s, fs = s_new, f_new
    if abs(fs) <= tol:
        return z + s * n, fs, slope
    raise NoConvergence(f"corrector stalled (|f|={abs(fs):.2e})")


def check_step(step):
    """DomainError unless the first continuation ``step`` is a positive
    finite number."""
    if not 0 < step < math.inf:
        raise DomainError(f"continuation step must be positive and finite, "
                          f"got {step!r}")


def continue_curve(sys, zero_function, start, start_gap, start_gradient,
                   tag=CurveTag.H_L, k=0, step=1e-3, step_max=STEP_MAX,
                   bounds=((-np.inf, np.inf), (-np.inf, np.inf)),
                   max_points=400):
    """Trace the zero curve of ``zero_function`` through ``start``, in both
    directions.

    ``zero_function(sys, point)`` is a scalar gap.  ``start_gap`` and
    ``start_gradient`` are its value and gradient at the start, which the
    caller has measured: the value must be within ``RESIDUAL_TOL`` of zero,
    the gradient finite and nonzero (else NoConvergence), and the first
    ``step`` must pass `check_step`.  Each direction's first step is
    ``min(step, step_max)``.
    Returns a BifurcationCurve whose ``endpoints`` name why each direction
    ended: ``"bounds"`` when its next point leaves ``bounds``, ``"stall"``
    when the corrector fails at ``STEP_MIN`` or a step makes no progress,
    ``"max_points"`` when it holds ``max_points`` points.  A stalled curve
    of fewer than 3 points raises CurveStall carrying the partial curve.
    """
    check_step(step)
    f = lambda z: float(zero_function(sys, z))
    z0 = np.asarray(start, float)
    f0 = float(start_gap)
    if abs(f0) > RESIDUAL_TOL:
        raise CurveStall(f"start residual {abs(f0):.2e} above tolerance")
    g = np.asarray(start_gradient, float)
    ng = np.linalg.norm(g)
    if ng == 0 or not np.isfinite(ng):
        raise NoConvergence("gap gradient vanished or is not finite at "
                            "the start point")

    def in_bounds(z):
        return (bounds[0][0] <= z[0] <= bounds[0][1]
                and bounds[1][0] <= z[1] <= bounds[1][1])

    t0 = np.array([-g[1], g[0]]) / ng
    halves = []
    for direction in (1.0, -1.0):
        pts = [z0.copy()]
        res = [f0]
        tangent = direction * t0
        # each corrector starts from the last slope of the one before
        slope = float(g @ np.array([-tangent[1], tangent[0]]))
        h = min(step, step_max)
        reason = "max_points"
        while len(pts) < max_points:
            z = pts[-1]
            zp = z + h * tangent
            n = np.array([-tangent[1], tangent[0]])
            try:
                z_new, f_new, slope = _refine_on_normal(f, zp, n, f(zp),
                                                        slope, RESIDUAL_TOL)
            except HetContourError:
                if h > STEP_MIN * 1.001:
                    h = max(STEP_MIN, h / 2)
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
        halves.append((pts, res, reason))
    (fwd_pts, fwd_res, fwd_end), (back_pts, back_res, back_end) = halves
    pts = back_pts[::-1] + fwd_pts[1:]
    res = back_res[::-1] + fwd_res[1:]
    endpoints = (back_end, fwd_end)
    curve = BifurcationCurve(tag, k, np.asarray(pts), np.asarray(res),
                             endpoints)
    if "stall" in endpoints and len(pts) < 3:
        raise CurveStall("continuation stalled immediately", partial=curve)
    return curve


# -- codim-2 Newton --------------------------------------------------------


def _newton_step(J, F):
    """-J^-1 F by Cramer's rule; Degenerate for a singular J."""
    (a, b), (c, d) = J
    det = a * d - b * c
    if not abs(det) >= 1e-14:
        raise Degenerate("singular Jacobian of the residual pair")
    return np.array([(b * F[1] - d * F[0]) / det, (c * F[0] - a * F[1]) / det])


def find_codim2(sys, residual_pair, guess, saddle_seeds, params_at):
    """Damped Newton on a pair of gap functions with their Jacobian.

    ``residual_pair(sys, point) -> ((r1, r2), J)``, J the 2x2 Jacobian of
    the pair at the point; ``saddle_seeds`` are rough locations of the two
    saddles, used to attach eigen-data and the subcase tag at the solution,
    with the parameters ``params_at(point)``.

    A full Newton step that does not reduce |F| is halved until it does.
    It stops at ``|F| <= CODIM2_TOL`` or a step of at most
    ``CODIM2_STEP_TOL``, and keeps the residuals and Jacobian of the point
    it stops at; NoConvergence after ``CODIM2_MAX_ITER`` steps.
    """
    def pair(z):
        F, J = residual_pair(sys, z)
        return np.asarray(F, float), np.asarray(J, float)

    z = np.asarray(guess, float)
    F, J = pair(z)
    for _ in range(CODIM2_MAX_ITER):
        nF = np.linalg.norm(F)
        if nF <= CODIM2_TOL:
            break
        step = _newton_step(J, F)
        lam = 1.0
        F_new, J_new = pair(z + step)
        while not np.linalg.norm(F_new) < nF:
            lam *= 0.5
            if lam <= 1e-6:
                raise NoConvergence(f"codim-2 Newton stagnated at {tuple(z)}")
            F_new, J_new = pair(z + lam * step)
        z, F, J = z + lam * step, F_new, J_new
        if lam * np.linalg.norm(step) <= CODIM2_STEP_TOL:
            break
    else:
        raise NoConvergence("codim-2 Newton did not converge")

    saddles = eq.saddles_at(sys, params_at(z), saddle_seeds)
    tag = eq.classify_subcase(saddles[0], saddles[1])
    return Codim2Point(tuple(z), tuple(F), tuple(map(tuple, J)), saddles[0],
                       saddles[1], tag)


# -- reversible one-parameter family ---------------------------------------


def _crossing(sys, params, seed_loc, section, x_sign):
    """x at which one unstable branch of the saddle near ``seed_loc``, the
    one leaving towards ``x_sign`` x, first crosses ``section``.  Only that
    branch is grown.  Degenerate if v_u has no x component; BracketError,
    naming the branch's termination, if the branch never hits."""
    sad, = eq.saddles_at(sys, params, [seed_loc])
    if sad.v_u[0] == 0:
        raise Degenerate(f"the unstable eigenvector {sad.v_u} of the saddle "
                         f"at {sad.location} has no x side")
    side = x_sign if sad.v_u[0] > 0 else -x_sign
    curve = mf.grow_branch(sys, params, sad, mf.Kind.UNSTABLE, side,
                           arclength_cap=30.0, events=[section],
                           directions=[0], terminal=[0]).curve
    if not curve.event_hits:
        x, y = sad.location
        raise BracketError(
            f"the x {'>' if x_sign > 0 else '<'} 0 unstable branch of the "
            f"saddle at ({x:.6g}, {y:.6g}) ended {curve.termination.value} "
            f"before y = {section.base[1]:.6g}")
    return curve.event_hits[0][2][0]


def _reversible_splitting(sys, gamma, frac=0.5):
    """Scalar contour condition for the x -> -x reversible family.

    The two saddles sit on the symmetry axis at (0,0) and (0,-gamma); the
    mirror of the unstable manifold of one is the stable manifold of the
    other, so the contour closes exactly when L's unstable branch towards
    x > 0 and its mirror, M's towards x < 0 (the only two grown), cross a
    line y = -frac*gamma at opposite x.  Returns x_L + x_M.
    """
    params = sys.full_params({"gamma": gamma})
    section = hi.CrossSection.at((0.0, -gamma * frac), (0.0, 1.0))
    x_L = _crossing(sys, params, (0.0, 0.0), section, 1)
    x_M = _crossing(sys, params, (0.0, -gamma), section, -1)
    return x_L + x_M


def find_reversible_contour(sys, bracket, xtol=1e-6):
    """Parameter value at which the reversible family has a full contour.

    Brent's method on the scalar splitting; raises BracketError when the
    splitting does not change sign on ``bracket``.
    """
    f = lambda gamma: _reversible_splitting(sys, gamma)
    a, b = float(bracket[0]), float(bracket[1])
    return brent(f, a, b, f(a), f(b), xtol)[0]


def reversible_contour_asymmetry(sys, gamma):
    """Largest |x_L + x_M| over the three horizontal sections of the
    contour that its branches reach; BracketError if they reach none."""
    splits = []
    for frac in (0.25, 0.5, 0.75):
        try:
            splits.append(abs(_reversible_splitting(sys, gamma, frac)))
        except BracketError as exc:
            missed = exc              # a section no branch reaches
    if not splits:
        raise BracketError(f"no section reached at gamma = {gamma}: {missed}")
    return max(splits)


# -- flashing series -------------------------------------------------------


def flashing_series(sys, gap_fn, segment, k_max=K_MAX_DEFAULT, samples=25,
                    xtol=1e-8):
    """Zeros of the k-turn connection gaps along a parameter segment.

    ``gap_fn(sys, point, k)`` returns the gaps at windings 0..k, NaN at a
    winding the branch has no hit at (or raises a HetContourError);
    ``segment = (p0, p1)`` are the endpoints in the parameter plane.  The
    gaps are sampled once, for every k <= ``k_max``, at ``samples`` even
    steps.  Each k's zero is the first zero sample or cell of strictly
    opposite end signs along the segment, solved by Brent's method at
    points measured for that k alone; a failed sample brackets nothing.
    Returns a FlashingSeries with one zero per reachable k; the series
    ends, with the reason, at the first k whose gap keeps its sign along
    the segment or fails inside the bracket of its zero (a NaN there is
    InsufficientWinding).
    """
    p0 = np.asarray(segment[0], float)
    p1 = np.asarray(segment[1], float)
    point_at = lambda t: p0 + t * (p1 - p0)

    ts = np.linspace(0.0, 1.0, samples)
    rows = []
    for t in ts:
        try:
            rows.append([float(g) for g in gap_fn(sys, point_at(t), k_max)])
        except HetContourError:
            rows.append([math.nan] * (k_max + 1))
    zeros, reason = [], None
    for k in range(k_max + 1):
        tried = []

        def f(t):
            tried.append(t)
            gaps = gap_fn(sys, point_at(t), k)
            if math.isnan(gaps[k]):
                hit = [w for w, g in enumerate(gaps) if not math.isnan(g)]
                raise InsufficientWinding(k, max(hit, default=0))
            return float(gaps[k])
        # a failure inside the bracket ends the series: the zero is not
        # known there, and shrinking past the failure could report one
        try:
            t, r = next(grid_roots(f, ts, [row[k] for row in rows], xtol))
        except StopIteration:
            reason = f"no sign change of the {k}-turn gap along the segment"
            break
        except HetContourError as exc:
            reason = (f"the {k}-turn gap failed at t = {tried[-1]!r} inside "
                      f"its bracket: {type(exc).__name__}: {exc}")
            break
        zeros.append((k, t, point_at(t), r))
    return FlashingSeries(zeros, reason)
