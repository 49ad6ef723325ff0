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
# a window adding less arclength than this many absolute tolerances (scaled
# by 1 + |z|) has settled; the integrator's own noise at a sink is 0.2-1.1
# atol per window
SETTLED_ATOLS = 100.0
# a branch's run is checked at the end of each window this long in time
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

    The branch is one ``integrate`` run to ``time_cap``, watched at each
    multiple of CHUNK in time from ``max(CHUNK, 3 / rate)`` on.  Its
    ``termination`` says why it ended: ARCLENGTH_CAP, TIME_LIMIT at
    ``time_cap``, EVENT at a terminal event hit, BLOWUP,
    EQUILIBRIUM_APPROACH to any of the registered ``equilibria``, SETTLED
    when a full window adds next to no arclength, and no more than the
    window before it, or ends in a sink's trap that meets none of the
    ``events`` (the branch has come to rest on an attractor), or
    ENOUGH_HITS at the end of a window with event hits
    where ``until(curve so far)`` holds: every step and hit up to it is
    that of a branch grown on.  With ``events`` BLOWUP is at the
    ``hi.escape_radius`` of the saddle and section bases, else at 1e6.
    """
    x0, delta = seed_point(saddle, kind, side)
    sign = 1.0 if kind is Kind.UNSTABLE else -1.0
    rate = saddle.lambda_u if kind is Kind.UNSTABLE else -saddle.lambda_s

    p = sys.full_params(params)
    radius = (hi.escape_radius(saddle.location, *(s.base for s in events))
              if events else hi.BLOWUP_RADIUS)
    # the first window covers the slow escape from the linear zone
    first = max(CHUNK, 3.0 / max(rate, 1e-6))
    # the sample and hit count at the last window end, the windows so far,
    # the arclength so far and the last window's
    seen, n_hits, windows, length, prev_seg = 0, 0, 0, 0.0, np.inf

    def check(run):
        nonlocal seen, n_hits, windows, length, prev_seg
        if abs(run.t[-1]) < first:
            return None
        seg = float(np.sum(np.linalg.norm(np.diff(run.xy[seen:], axis=0),
                                          axis=1)))
        new_hits = len(run.event_hits) > n_hits
        seen, n_hits = len(run.t) - 1, len(run.event_hits)
        windows += 1
        length += seg
        z = run.end
        if until is not None and new_hits and until(run):
            return hi.Termination.ENOUGH_HITS
        if length >= arclength_cap:
            return hi.Termination.ARCLENGTH_CAP
        # a branch still escaping a slow saddle gains arclength from window
        # to window, so only a window adding no more than the one before
        # counts
        if windows > 2 and seg <= min(
                prev_seg, SETTLED_ATOLS * tol[0] * (1.0 + np.linalg.norm(z))) \
                or events and eq.sink_trap(sys, p, z, events) is not None:
            return hi.Termination.SETTLED
        prev_seg = seg
        return None

    curve = hi.integrate(sys, p, x0, (0.0, sign * time_cap), tol=tol,
                         events=events, directions=directions,
                         terminal=terminal, equilibria=equilibria,
                         equilibrium_radius=equilibrium_radius,
                         blowup_radius=radius, watch=(CHUNK, check))
    if curve.termination is hi.Termination.BLOWUP \
            and curve.arclength() < 10 * delta:
        raise BlowupAtSeed(f"branch blew up within {curve.arclength():.2e}")
    return ManifoldBranch(saddle, kind, side, curve)
