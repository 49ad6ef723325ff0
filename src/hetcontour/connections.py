"""Splitting of saddle connections measured on cross-sections.

The gap of a connection is the signed difference, in the section coordinate,
between where the source's unstable branch and the target's stable branch
hit the section.  Winding counts are accumulated-angle turns around the
source saddle, which is robust near tangencies.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import integrate as hi
from . import manifolds as mf
from .errors import (HetContourError, InsufficientWinding, NoContour,
                     NoIntersection)

# a winding count splits a step whose ends lie more than WINDING_TURN apart
# in angle into WINDING_PIECES pieces of its dense output, then halves the
# pieces that still do, down to WINDING_PIECES_MAX pieces per step
WINDING_TURN = np.pi / 4
WINDING_PIECES, WINDING_PIECES_MAX = 4, 1024
# a contour probe runs to |t| = PROBE_T_MAX, watched every PROBE_CHUNK; a
# window that keeps within PROBE_CLOSE times the contour's extent of the
# contour counts as accumulation
PROBE_T_MAX = 210.0
PROBE_CHUNK = 15.0
PROBE_CLOSE = 0.03
# a contour's connections are grown at CONTOUR_TOL, up to CONTOUR_ARCLENGTH
# and CONTOUR_TIME, and one reaches its target within CONTOUR_RADIUS
CONTOUR_TOL, CONTOUR_RADIUS = (1e-9, 1e-9), 1e-3
CONTOUR_ARCLENGTH, CONTOUR_TIME = 50.0, 200.0


@dataclass(frozen=True)
class ConnectionSpec:
    source: object                 # Saddle
    target: object                 # Saddle
    section: hi.CrossSection
    source_side: int = 1
    target_side: int = 1
    winding_count: int = 0         # turns around the source saddle
    crossing_direction: int = 0    # geometric direction filter on the section


@dataclass(frozen=True)
class SplittingResult:
    gap: float
    winding_count: int
    transversal: bool
    unstable_coord: float
    stable_coord: float


@dataclass(frozen=True)
class ContourClass:
    monodromic: bool
    source_sides: tuple            # (side of W^u(L) used, side of W^u(M) used)
    cross_signs: tuple             # orientation signs at (L, M)
    probe_agrees: bool | None


def _step_points(traj, n):
    """Times and points (shape ``(2, m)``) of ``traj`` with step ``i`` split
    into ``n[i]`` equal pieces: the samples at the step ends, the dense
    output inside, so that only the split steps are interpolated."""
    ts = traj.t
    step = np.repeat(np.arange(len(n)), n)
    frac = (np.arange(1, len(step) + 1)
            - np.repeat(np.cumsum(n) - n, n)) / n[step]
    end = frac == 1
    a, b = ts[step], ts[step + 1]
    times = np.concatenate([ts[:1], np.where(end, b, a + (b - a) * frac)])
    pts = np.empty((2, len(times)))
    pts[:, np.r_[True, end]] = traj.xy.T
    pts[:, np.r_[False, ~end]] = traj(times[1:][~end])
    return times, pts


def _curve_points(curve, spacing):
    """Points of ``curve``, each step split into pieces whose chord is about
    ``spacing`` at most."""
    chord = np.linalg.norm(np.diff(curve.xy, axis=0), axis=1)
    n = np.maximum(1, np.ceil(chord / spacing)).astype(int)
    return _step_points(curve, n)[1].T


def _angles(pts, center):
    return np.arctan2(pts[1] - center[1], pts[0] - center[0])


def _winding_at(traj, center, times):
    """Accumulated |angle| around ``center`` at each of ``times``, in turns.

    The angle is followed along the samples.  A step whose ends lie more
    than WINDING_TURN apart in angle is split on the dense output, and its
    pieces are halved until none does.  A piece of an orbit that turns by
    less than 3 pi / 4 sweeps less than 7 pi / 4 around any point, so each
    piece has then swept less than WINDING_TURN, and unwrapping keeps every
    turn however far a step sweeps.  The orbit at ``times`` is read off the
    dense output, not interpolated between samples.
    """
    n = np.ones(len(traj.t) - 1, int)
    fine, pts = traj.t, traj.xy.T
    while True:
        turn = np.diff(_angles(pts, center))
        wide = np.abs(np.remainder(turn + np.pi, 2 * np.pi) - np.pi) \
            > WINDING_TURN
        grow = np.unique(np.repeat(np.arange(len(n)), n)[wide])
        grow = grow[n[grow] < WINDING_PIECES_MAX]
        if not grow.size:
            break
        n[grow] = np.maximum(2 * n[grow], WINDING_PIECES)
        fine, pts = _step_points(traj, n)
    tq = np.concatenate([fine, times])
    pq = np.concatenate([pts, traj(np.asarray(times, float)).reshape(2, -1)],
                        axis=1)
    order = np.argsort(tq if fine[-1] >= fine[0] else -tq, kind="stable")
    acc = np.empty(len(tq))
    ang = np.unwrap(_angles(pq[:, order], center))
    acc[order] = np.abs(ang - ang[0])
    return [int(a // (2 * np.pi)) for a in acc[len(fine):]]


def splitting(sys, params, spec, tol=(1e-9, 1e-9), arclength_cap=200.0,
              time_cap=500.0, every_winding=False):
    """Measure the splitting gap of ``spec`` (at the requested winding).

    The gap is the unstable hit's section coordinate minus the stable
    hit's.  Both hits are transversal when the flow's normal speed there
    exceeds ``hi.TRANSVERSALITY_MIN``.  The unstable hit at winding k is
    its first hit of ``_winding_at`` count k; the branch stops at its first
    hit for k = 0, else at the end of the ``grow_branch`` window of a hit at
    winding k or more.
    With ``every_winding``, it returns the tuple of gaps at windings 0..k
    instead, NaN at a winding with no hit, and checks no transversality.
    """
    k = spec.winding_count
    p = sys.full_params(params)
    center = spec.source.location
    wound = lambda curve: max(_winding_at(
        curve, center, [h[1] for h in curve.event_hits])) >= k
    ub = mf.grow_branch(sys, p, spec.source, mf.Kind.UNSTABLE,
                        spec.source_side, arclength_cap=arclength_cap,
                        events=[spec.section],
                        directions=[spec.crossing_direction],
                        terminal=[0] if k == 0 else [], tol=tol,
                        time_cap=time_cap, until=wound if k else None)
    hits = ub.curve.event_hits
    if not hits:
        raise NoIntersection("unstable branch never met the section")
    winds = _winding_at(ub.curve, center, [h[1] for h in hits])
    # each winding's first hit: the earliest one is written last
    first = dict(zip(winds[::-1], [z for _, _, z in hits[::-1]]))
    if k not in first and not every_winding:
        if k == 0:
            raise NoIntersection("no section hit at winding 0")
        raise InsufficientWinding(k, max(winds))

    sb = mf.grow_branch(sys, p, spec.target, mf.Kind.STABLE,
                        spec.target_side, arclength_cap=arclength_cap,
                        events=[spec.section],
                        directions=[spec.crossing_direction], terminal=[0],
                        tol=tol, time_cap=time_cap)
    shits = sb.curve.event_hits
    if not shits:
        raise NoIntersection("stable branch never met the section")
    z_s = shits[0][2]
    s_coord = spec.section.coord(z_s)
    if every_winding:
        return tuple(float(spec.section.coord(first[w]) - s_coord)
                     if w in first else np.nan for w in range(k + 1))
    z_u = first[k]
    u_coord = spec.section.coord(z_u)
    n = spec.section.normal
    fu, fs = (sys.rhs(z[0], z[1], p) for z in (z_u, z_s))
    transversal = bool(
        abs(fu[0] * n[0] + fu[1] * n[1]) > hi.TRANSVERSALITY_MIN
        and abs(fs[0] * n[0] + fs[1] * n[1]) > hi.TRANSVERSALITY_MIN)
    return SplittingResult(float(u_coord - s_coord), k, transversal,
                           float(u_coord), float(s_coord))


def find_connection_side(sys, params, source, target):
    """Which unstable side of ``source`` flows into ``target``.

    Returns (side, branch); raises NoContour if neither branch approaches.
    """
    p = sys.full_params(params)
    best = None
    for side in (1, -1):
        br = mf.grow_branch(sys, p, source, mf.Kind.UNSTABLE, side,
                            arclength_cap=CONTOUR_ARCLENGTH, tol=CONTOUR_TOL,
                            time_cap=CONTOUR_TIME,
                            equilibria=[target.location],
                            equilibrium_radius=CONTOUR_RADIUS)
        d = np.min(np.linalg.norm(br.points - np.asarray(target.location),
                                  axis=1))
        if br.curve.termination is hi.Termination.EQUILIBRIUM_APPROACH \
                or d < CONTOUR_RADIUS:
            return side, br
        if best is None or d < best[1]:
            best = (side, d)
    raise NoContour(
        f"no unstable branch of {source.location} reaches {target.location} "
        f"(closest approach {best[1]:.2e})")


def classify_contour(sys, params, saddle_L, saddle_M, probe=True):
    """Monodromic vs non-monodromic decision for an existing contour.

    The primary criterion is the relative orientation of incoming and
    outgoing connection directions at each saddle (equal turning signs =
    monodromic); a limit-set probe orbit is run as a cross-check.
    """
    p = sys.full_params(params)
    side_LM, br_LM = find_connection_side(sys, p, saddle_L, saddle_M)
    side_ML, br_ML = find_connection_side(sys, p, saddle_M, saddle_L)

    def cross_sign(branch, target, out_dir):
        z = branch.points[-2] if len(branch.points) > 1 else branch.points[-1]
        v = np.asarray(sys.rhs(z[0], z[1], p))
        d_in = v / np.linalg.norm(v)
        d_out = np.asarray(out_dir) / np.linalg.norm(out_dir)
        return np.sign(d_in[0] * d_out[1] - d_in[1] * d_out[0])

    s_M = cross_sign(br_LM, saddle_M, side_ML * np.asarray(saddle_M.v_u))
    s_L = cross_sign(br_ML, saddle_L, side_LM * np.asarray(saddle_L.v_u))
    monodromic = bool(s_M == s_L)

    agrees = None
    if probe:
        # the contour on its dense output, finer than the probe's closeness
        samples = np.vstack([br_LM.points, br_ML.points])
        spacing = 0.5 * PROBE_CLOSE * np.ptp(samples, axis=0).max()
        contour = np.vstack([_curve_points(br.curve, spacing)
                             for br in (br_LM, br_ML)])
        seed = contour.mean(axis=0)
        approach = _probe_accumulates(sys, p, seed, contour, CONTOUR_TOL)
        agrees = approach == monodromic
    return ContourClass(monodromic, (side_LM, side_ML),
                        (float(s_L), float(s_M)), agrees)


def _probe_accumulates(sys, params, seed, contour, tol):
    """True if a probe orbit ends up tracking the whole contour.

    A forward or backward window counts as accumulation when *all* of its
    samples lie near the contour, i.e. a full revolution hugs it; merely
    passing close to one saddle corner does not qualify.  The watch ends
    such a run SETTLED.
    """
    scale = max(np.ptp(contour[:, 0]), np.ptp(contour[:, 1]))
    close = PROBE_CLOSE * scale

    def check(run):
        nonlocal seen
        d = np.min(np.linalg.norm(run.xy[seen:, None, :] - contour[None, :, :],
                                  axis=2), axis=1)
        seen = len(run.t) - 1
        return hi.Termination.SETTLED if np.max(d) < close else None

    for sign in (1.0, -1.0):
        seen = 0
        try:
            traj = hi.integrate(sys, params, seed, (0.0, sign * PROBE_T_MAX),
                                tol=tol, watch=(PROBE_CHUNK, check))
        except HetContourError:
            continue
        if traj.termination is hi.Termination.SETTLED:
            return True
    return False
