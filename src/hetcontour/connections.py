"""Splitting of saddle connections measured on cross-sections.

A `ConnectionRecipe` names a connection: seeds of its source and target
saddles, the base point of its section, the branch sides and the caps of
both branches.  `splitting` measures it at one parameter point and returns
the row of its gaps at windings 0..k.  A gap is the signed difference, in
the section coordinate, between where the source's unstable branch and the
target's stable branch hit the section.  Winding counts are
accumulated-angle turns around the source saddle, which is robust near
tangencies.  `monodromic` reads a contour's orientation off the branch
sides of its two recipes.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import equilibria as eq
from . import integrate as hi
from . import manifolds as mf
from .errors import NoIntersection

# a winding count splits a step whose ends lie more than WINDING_TURN apart
# in angle into WINDING_PIECES pieces of its dense output, then halves the
# pieces that still do, down to WINDING_PIECES_MAX pieces per step
WINDING_TURN = np.pi / 4
WINDING_PIECES, WINDING_PIECES_MAX = 4, 1024


@dataclass(frozen=True)
class ConnectionRecipe:
    """How to measure one connection gap: seeds, section, branch sides."""
    source_seed: tuple
    target_seed: tuple
    section_base: tuple
    source_side: int
    target_side: int
    time_cap: float
    arclength_cap: float
    crossing_direction: int = 1


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


def recipe_curve(sys, p, recipe, saddle, kind, section, tol=hi.DEFAULT_TOL,
                 until=None):
    """``recipe``'s ``kind`` branch of ``saddle``, grown with its side and
    caps to the first ``section`` hit in its crossing direction, or to the
    end of the `grow_branch` window at which ``until`` holds."""
    side = (recipe.source_side if kind is mf.Kind.UNSTABLE
            else recipe.target_side)
    return mf.grow_branch(
        sys, p, saddle, kind, side, arclength_cap=recipe.arclength_cap,
        events=[section], directions=[recipe.crossing_direction],
        terminal=[] if until else [0], tol=tol, time_cap=recipe.time_cap,
        until=until).curve


def splitting(sys, params, recipe, k=0, tol=hi.DEFAULT_TOL):
    """The gaps of ``recipe``'s connection at windings 0..k, NaN at a
    winding its unstable branch has no hit at.

    The saddles are solved from the recipe's seeds, and the section runs
    through its base point across the flow there.  The gap at winding w is
    the section coordinate of the unstable branch's first hit of
    ``_winding_at`` count w minus that of the stable branch's first hit.
    The unstable branch stops at its first hit for k = 0, else at the end
    of the ``grow_branch`` window of a hit at winding k or more.
    NoIntersection when either branch never meets the section.
    """
    p = sys.full_params(params)
    source, target = eq.saddles_at(sys, params, (recipe.source_seed,
                                                 recipe.target_seed))
    section = hi.CrossSection.transverse_to_flow(sys, p, recipe.section_base)
    center = source.location
    wound = lambda curve: max(_winding_at(
        curve, center, [h[1] for h in curve.event_hits])) >= k
    ub = recipe_curve(sys, p, recipe, source, mf.Kind.UNSTABLE, section, tol,
                      until=wound if k else None)
    hits = ub.event_hits
    if not hits:
        raise NoIntersection("unstable branch never met the section")
    winds = _winding_at(ub, center, [h[1] for h in hits])
    # each winding's first hit: the earliest one is written last
    first = dict(zip(winds[::-1], [z for _, _, z in hits[::-1]]))

    shits = recipe_curve(sys, p, recipe, target, mf.Kind.STABLE, section,
                         tol).event_hits
    if not shits:
        raise NoIntersection("stable branch never met the section")
    s_coord = section.coord(shits[0][2])
    return tuple(float(section.coord(first[w]) - s_coord)
                 if w in first else np.nan for w in range(k + 1))


def monodromic(saddle_L, saddle_M, to_M, to_L):
    """Whether the contour of the connections ``to_M`` (L -> M) and
    ``to_L`` (M -> L) is monodromic, from their recipes' branch sides.

    At each saddle the connection in arrives along ``-target_side v_s``
    and the one out leaves along the other recipe's ``source_side v_u``.
    The contour is monodromic when both saddles turn the same way: the
    cross products of these two directions have one sign.
    """
    def turn(saddle, arrive, leave):
        # (-t v_s) x (s v_u) = -t s (v_s x v_u)
        (sx, sy), (ux, uy) = saddle.v_s, saddle.v_u
        return (-arrive.target_side * leave.source_side
                * (sx * uy - sy * ux)) > 0

    return bool(turn(saddle_L, to_L, to_M) == turn(saddle_M, to_M, to_L))
