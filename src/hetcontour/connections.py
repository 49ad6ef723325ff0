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

import math
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
# 8-point Gauss-Legendre on [0, 1]: the nodes, the weights, and row i of
# GL_CUMULATIVE the integrals from 0 to node i of the Lagrange basis
# polynomials of the nodes, so that GL_CUMULATIVE @ v integrates the
# polynomial through the node values v from 0 to each node
GL_NODES = np.array([
    0.019855071751231884, 0.10166676129318664, 0.2372337950418355,
    0.4082826787521751, 0.591717321247825, 0.7627662049581645,
    0.8983332387068134, 0.9801449282487681])
GL_WEIGHTS = np.array([
    0.05061426814518813, 0.11119051722668724, 0.15685332293894363,
    0.181341891689181, 0.181341891689181, 0.15685332293894363,
    0.11119051722668724, 0.05061426814518813])
GL_CUMULATIVE = np.array([
    [0.025307134072594065, -0.009105943305970076, 0.006280831147030474,
     -0.004483015613054752, 0.0030784913683267797, -0.0019176752546369523,
     0.0009727576640592635, -0.0002775083271169192],
    [0.05475932176755432, 0.05559525861334362, -0.01363979623578167,
     0.008149708858360551, -0.0052153520891471536, 0.003139752985463669,
     -0.0015649349109489424, 0.00044280230434223783],
    [0.048587535998912884, 0.12085952499717317, 0.07842666146947182,
     -0.01597510336187843, 0.008371732720226163, -0.00464346586210448,
     0.0022257147752849, -0.0006188056952505154],
    [0.05186552097058123, 0.1061934901483484, 0.17067113427455363,
     0.0906709458445905, -0.016021041321025012, 0.00724120656122227,
     -0.0031978143103607703, 0.0008592365842648527],
    [0.04975503156092328, 0.114388331537048, 0.14961211637772137,
     0.197362933010206, 0.0906709458445905, -0.013817811335609978,
     0.004997027078338829, -0.001251252825393105],
    [0.051233073840438646, 0.10896480245140233, 0.16149678880104812,
     0.17297015896895482, 0.19731699505105943, 0.07842666146947182,
     -0.009669007770485932, 0.0020267321462752487],
    [0.05017146584084589, 0.11275545213763617, 0.15371356995347998,
     0.18655724377832814, 0.17319218283082044, 0.17049311917472532,
     0.05559525861334362, -0.004145053622366191],
    [0.05089177647230505, 0.11021775956262797, 0.1587709981935806,
     0.17826340032085422, 0.18582490730223575, 0.15057249179191318,
     0.12029646053265731, 0.025307134072594065]])


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


def _winding_at(traj, center, hits):
    """Accumulated |angle| around ``center`` at each of the ``event_hits``
    entries ``hits`` of ``traj``, in turns.

    The angle is followed along the samples.  A step whose ends lie more
    than WINDING_TURN apart in angle is split on the dense output, and its
    pieces are halved until none does.  A piece of an orbit that turns by
    less than 3 pi / 4 sweeps less than 7 pi / 4 around any point, so each
    piece has then swept less than WINDING_TURN, and unwrapping keeps every
    turn however far a step sweeps.  The orbit at a hit is the point the
    run located it at, not one interpolated between samples.
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
    tq = np.concatenate([fine, [t for _, t, _ in hits]])
    pq = np.concatenate(
        [pts, np.array([z for _, _, z in hits], float).reshape(-1, 2).T],
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


def _measure(sys, params, recipe, k, tol):
    """``splitting``'s row of gaps, with what it was measured from: the
    full parameters, the source saddle, the target saddle, the section and
    the unstable and stable branch curves."""
    p = sys.full_params(params)
    source, target = eq.saddles_at(sys, params, (recipe.source_seed,
                                                 recipe.target_seed))
    section = hi.CrossSection.transverse_to_flow(sys, p, recipe.section_base)
    center = source.location
    wound = lambda curve: max(_winding_at(curve, center,
                                          curve.event_hits)) >= k
    ub = recipe_curve(sys, p, recipe, source, mf.Kind.UNSTABLE, section, tol,
                      until=wound if k else None)
    hits = ub.event_hits
    if not hits:
        raise NoIntersection("unstable branch never met the section")
    winds = _winding_at(ub, center, hits)
    # each winding's first hit: the earliest one is written last
    first = dict(zip(winds[::-1], [z for _, _, z in hits[::-1]]))

    sb = recipe_curve(sys, p, recipe, target, mf.Kind.STABLE, section, tol)
    if not sb.event_hits:
        raise NoIntersection("stable branch never met the section")
    s_coord = section.coord(sb.event_hits[0][2])
    row = tuple(float(section.coord(first[w]) - s_coord)
                if w in first else np.nan for w in range(k + 1))
    return row, (p, source, target, section, ub, sb)


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
    return _measure(sys, params, recipe, k, tol)[0]


def _branch_integrals(rhs, variation, curves, rows):
    """Per curve, the integrals over its run of ``e^(D(end) - D) f ^ g``
    for the ``rows`` of ``variation`` that hold g = (gx, gy), with D the
    running integral of the divergence along the run from its start.

    Each step is summed by GL_NODES-point Gauss-Legendre on its dense
    output, with D at the nodes from GL_CUMULATIVE.  The steps of all the
    curves are read in one array pass.  Returns the integrals, shape
    ``(len(curves), len(rows))``, and ``e^D(end)`` of each curve.
    """
    step_t = [np.diff(c.t) for c in curves]
    start = np.concatenate([c.xy[:-1] for c in curves]).T
    dt = np.concatenate(step_t)
    h = np.concatenate([c.interpolant.h for c in curves])
    k = np.concatenate([c.interpolant.k for c in curves]).T
    F = np.array(hi._dense_coefficients(rhs, *start, h, k))[:, :, None]
    x, y = hi._interpolate(F, start[0, :, None], start[1, :, None],
                           (dt / h)[:, None] * GL_NODES)
    fx, fy = rhs(0.0, (x, y))
    var = variation(x, y)
    wedge = np.array([fx * var[i + 1] - fy * var[i] for i in rows])
    integrals, growth = [], []
    ends = np.cumsum([0] + [len(t) for t in step_t])
    for a, b in zip(ends[:-1], ends[1:]):
        step, div = dt[a:b], var[0, a:b]
        d_step = step * (div @ GL_WEIGHTS)
        d_end = np.cumsum(d_step)
        d = (d_end - d_step)[:, None] + step[:, None] * (div @ GL_CUMULATIVE.T)
        integrals.append(wedge[:, a:b] * np.exp(d_end[-1] - d)
                         @ GL_WEIGHTS @ step)
        growth.append(np.exp(d_end[-1]))
    return np.array(integrals), np.array(growth)


def gap_gradient(sys, params, recipe, active):
    """``(gap, gradient)``: ``recipe``'s winding-0 gap as `splitting`
    measures it, and its partial derivatives in the two ``active``
    parameters, from the same two branches.

    Melnikov's first-order formula on each branch (Guckenheimer & Holmes,
    *Nonlinear Oscillations*, 4.5): with g = df/dp, div the divergence and
    the weight e^(-int div) normalised at the hit q, the unstable hit moves
    by I_u / (n . f(q)) and the stable one by -I_s / (n . f(q)), where I_u
    integrates the weighted f ^ g from the saddle to q and I_s from q to
    the saddle.  The part between saddle and seed is the integrand at the
    seed over |lambda_s| (unstable) or lambda_u (stable).  The section's
    normal follows f at its base, so it turns by T . g(base) / |f(base)|,
    and a hit at coordinate s moves by -s (f . T) / (f . n) times that.
    NoIntersection where `splitting` has no winding-0 gap.
    """
    (gap,), (p, source, target, section, ub, sb) = _measure(
        sys, params, recipe, 0, hi.DEFAULT_TOL)
    if math.isnan(gap):
        raise NoIntersection("no section hit at winding 0")
    names = [n for n, _ in sys.parameters]
    rows = [1 + 2 * names.index(a) for a in active]
    rhs, _, variation = sys.fields(p)
    integrals, growth = _branch_integrals(rhs, variation, (ub, sb), rows)

    # seeds, hits and the section base, in one array
    pts = np.array([ub.xy[0], sb.xy[0], ub.event_hits[0][2],
                    sb.event_hits[0][2], section.base]).T
    fx, fy = rhs(0.0, pts)
    var = variation(*pts)
    gx, gy = var[rows], var[[r + 1 for r in rows]]
    wedge = fx[:2] * gy[:, :2] - fy[:2] * gx[:, :2]
    rates = np.array([-source.lambda_s, target.lambda_u])
    # I_u and I_s: the stable run goes backward in time, from q to its seed
    i_u, i_s = integrals * [[1.0], [-1.0]] + (growth * wedge / rates).T
    n, t = np.array(section.normal), np.array(section.tangent)
    f_hit = np.array([fx[2:4], fy[2:4]])
    normal_speed = n @ f_hit
    turn = (t @ [gx[:, 4], gy[:, 4]]) / math.hypot(fx[4], fy[4])
    s_u, s_s = (section.coord(q) for q in pts[:, 2:4].T)
    shift = -(t @ f_hit) / normal_speed * [s_u, s_s]
    grad = (i_u / normal_speed[0] + i_s / normal_speed[1]
            + (shift[0] - shift[1]) * turn)
    return gap, grad


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
