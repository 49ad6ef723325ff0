"""One-dimensional invariant-manifold branches of planar saddles.

Branches are grown by shooting from a small offset along the corresponding
eigenvector; stable branches are integrated in backward time so every curve
is traversed away from its saddle.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import equilibria as eq
from . import integrate as hi
from .errors import BlowupAtSeed

# a branch starts this far (scaled by 1 + |saddle|) along its eigenvector
SEED_OFFSET = 1e-7
# a chunk adding less arclength than this many absolute tolerances (scaled by
# 1 + |z|) has settled; the integrator's own noise at a sink is 0.2-1.1 atol
# per chunk
SETTLED_ATOLS = 100.0
# a branch is integrated in pieces this long in time
CHUNK = 5.0


class Kind(enum.Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"


@dataclass
class ManifoldBranch:
    saddle: object
    kind: Kind
    side: int                  # +1 or -1, sign of the eigenvector offset
    curve: hi.Trajectory

    @property
    def points(self):
        return self.curve.xy


def seed_point(saddle, kind, side):
    loc = np.asarray(saddle.location)
    delta = SEED_OFFSET * (1.0 + np.linalg.norm(loc))
    v = np.asarray(saddle.v_u if kind is Kind.UNSTABLE else saddle.v_s)
    return loc + side * delta * v, delta


def grow_branch(sys, params, saddle, kind, side, arclength_cap=20.0,
                events=(), directions=None, terminal=None,
                tol=hi.DEFAULT_TOL, time_cap=1e4,
                equilibria=(), equilibrium_radius=1e-8, until=None):
    """Grow one of the four branches of ``saddle`` up to ``arclength_cap``.

    The branch is integrated in CHUNK-long pieces.  Its ``termination``
    says why it ended: ARCLENGTH_CAP, TIME_LIMIT at ``time_cap``, EVENT at a
    terminal event hit, BLOWUP, EQUILIBRIUM_APPROACH to any of the
    registered ``equilibria``, SETTLED when a full chunk adds next to no
    arclength, and no more than the chunk before it, or ends in a sink's
    trap that meets none of the ``events`` (the branch has come to rest on
    an attractor), or ENOUGH_HITS at the end of a chunk with event hits
    where ``until(curve so far)`` holds: every step and hit up to it is
    that of a branch grown on.  With ``events`` BLOWUP is at the
    ``hi.escape_radius`` of the saddle and section bases, else at 1e6.
    """
    x0, delta = seed_point(saddle, kind, side)
    sign = 1.0 if kind is Kind.UNSTABLE else -1.0
    rate = saddle.lambda_u if kind is Kind.UNSTABLE else -saddle.lambda_s

    p = sys.full_params(params)
    pieces = []
    hits = []
    length = 0.0
    t_now = 0.0
    z_now = x0
    termination = hi.Termination.TIME_LIMIT
    terminal_index = None
    prev_seg = np.inf
    radius = (hi.escape_radius(saddle.location, *(s.base for s in events))
              if events else hi.BLOWUP_RADIUS)
    # first chunk covers the slow escape from the linear zone
    t_chunk = max(CHUNK, 3.0 / max(rate, 1e-6))
    while True:
        t_next = t_now + sign * t_chunk
        traj = hi.integrate(sys, p, z_now, (t_now, t_next), tol=tol,
                            events=events, directions=directions,
                            terminal=terminal, equilibria=equilibria,
                            equilibrium_radius=equilibrium_radius,
                            blowup_radius=radius)
        pieces.append(traj)
        hits.extend(traj.event_hits)
        seg = float(np.sum(np.linalg.norm(np.diff(traj.xy, axis=0), axis=1)))
        length += seg
        t_now = float(traj.t[-1])
        z_now = traj.end
        if traj.termination is not hi.Termination.TIME_LIMIT:
            termination = traj.termination
            terminal_index = traj.terminal_index
            break
        if until is not None and traj.event_hits and until(
                _concat(pieces, termination, hits, None)):
            termination = hi.Termination.ENOUGH_HITS
            break
        if length >= arclength_cap:
            termination = hi.Termination.ARCLENGTH_CAP
            break
        # a branch still escaping a slow saddle gains arclength from chunk
        # to chunk, so only a chunk adding no more than the one before counts
        if len(pieces) > 2 and seg <= min(
                prev_seg, SETTLED_ATOLS * tol[0] * (1.0 + np.linalg.norm(z_now))) \
                or events and eq.sink_trap(sys, p, z_now, events) is not None:
            termination = hi.Termination.SETTLED
            break
        if abs(t_now) >= time_cap:
            break
        t_chunk = CHUNK
        prev_seg = seg

    if termination is hi.Termination.BLOWUP and len(pieces) == 1 \
            and pieces[0].arclength() < 10 * delta:
        raise BlowupAtSeed(f"branch blew up within {pieces[0].arclength():.2e}")

    curve = _concat(pieces, termination, hits, terminal_index)
    return ManifoldBranch(saddle, kind, side, curve)


def _concat(pieces, termination, hits, terminal_index):
    """One trajectory, with one dense output, from consecutive chunks."""
    if len(pieces) == 1:
        tr = pieces[0]
        return hi.Trajectory(tr.t, tr.xy, tr.interpolant, termination,
                             hits, terminal_index)
    # each chunk starts at the last sample of the one before
    t = np.concatenate([pieces[0].t] + [p.t[1:] for p in pieces[1:]])
    xy = np.concatenate([pieces[0].xy] + [p.xy[1:] for p in pieces[1:]])
    dense = hi.DenseOutput(
        pieces[0].interpolant.f, t, xy,
        np.concatenate([p.interpolant.h for p in pieces]),
        np.concatenate([p.interpolant.k for p in pieces]))
    return hi.Trajectory(t, xy, dense, termination, hits, terminal_index)
