"""Adaptive RK5(4) integration with dense output and section-crossing events.

Thin layer over ``scipy.integrate.solve_ivp`` (Dormand-Prince pair with
quartic dense output) adding the trajectory/termination bookkeeping and the
cross-section geometry the rest of the toolkit works with.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, NoReturn, StiffnessError, TangencyError

DEFAULT_TOL = (1e-10, 1e-10)
BLOWUP_RADIUS = 1e6


class Termination(enum.Enum):
    """Why an integration ended.

    ``integrate`` ends on TIME_LIMIT, EVENT, BLOWUP or EQUILIBRIUM_APPROACH.
    ``manifolds.grow_branch`` adds ARCLENGTH_CAP, and SETTLED for a branch
    whose latest chunk added next to no arclength.
    """

    TIME_LIMIT = "time_limit"
    EVENT = "event"
    BLOWUP = "blowup"
    EQUILIBRIUM_APPROACH = "equilibrium_approach"
    ARCLENGTH_CAP = "arclength_cap"
    SETTLED = "settled"


@dataclass(frozen=True)
class CrossSection:
    """A line through ``base`` used to measure crossings.

    ``normal`` is transverse to the section (usually the local flow
    direction), ``tangent`` spans it; the section coordinate of a point is
    its signed distance from ``base`` along ``tangent``.
    """

    base: tuple
    normal: tuple
    tangent: tuple

    @staticmethod
    def at(base, normal):
        n = np.asarray(normal, float)
        n = n / np.linalg.norm(n)
        t = np.array([-n[1], n[0]])
        return CrossSection(tuple(np.asarray(base, float)), tuple(n), tuple(t))

    @staticmethod
    def transverse_to_flow(sys, params, base, positive_toward=None):
        """Section at ``base`` with normal along the flow there.

        ``positive_toward``: optional reference point; the tangent is flipped
        so that the reference has positive section coordinate.
        """
        fx, fy = sys.rhs(base[0], base[1], params)
        sec = CrossSection.at(base, (fx, fy))
        if positive_toward is not None and sec.coord(positive_toward) < 0:
            sec = CrossSection(sec.base, sec.normal,
                               tuple(-np.asarray(sec.tangent)))
        return sec

    def coord(self, point):
        return ((point[0] - self.base[0]) * self.tangent[0]
                + (point[1] - self.base[1]) * self.tangent[1])

    def offset(self, point):
        return ((point[0] - self.base[0]) * self.normal[0]
                + (point[1] - self.base[1]) * self.normal[1])

    def point_at(self, coord):
        return (self.base[0] + coord * self.tangent[0],
                self.base[1] + coord * self.tangent[1])


@dataclass
class Trajectory:
    """Solution samples plus dense output and the reason integration ended."""

    t: np.ndarray
    xy: np.ndarray            # shape (n, 2), aligned with t
    interpolant: object       # OdeSolution over [t[0], t[-1]]
    termination: Termination
    event_hits: list          # (event_index, t, (x, y)) in time order
    terminal_index: int | None = None   # index into the events argument

    def __call__(self, t):
        return self.interpolant(t)

    @property
    def start(self):
        return self.xy[0]

    @property
    def end(self):
        return self.xy[-1]

    def arclength(self):
        return float(np.sum(np.linalg.norm(np.diff(self.xy, axis=0), axis=1)))


ARM_OFFSET = 1e-10


def _section_event(section, direction, forward, x0, drift):
    # in backward time a geometric crossing direction is reversed
    sign = 1.0 if forward else -1.0

    if abs(section.offset(x0)) < ARM_OFFSET and drift != 0.0:
        # starting on the section: hold the event function at the departure
        # sign until the orbit has actually left, so the start point is not
        # re-detected as a zero-width crossing
        state = {"armed": False}

        def g(t, z):
            off = section.offset(z)
            if not state["armed"]:
                if abs(off) < ARM_OFFSET:
                    return math.copysign(ARM_OFFSET, drift)
                state["armed"] = True
            return off
    else:
        def g(t, z):
            return section.offset(z)

    g.direction = sign * direction
    return g


def integrate(sys, params, x0, t_span, tol=DEFAULT_TOL, events=(),
              directions=None, terminal=None, blowup_radius=BLOWUP_RADIUS,
              equilibria=(), equilibrium_radius=1e-8, max_step=np.inf):
    """Integrate ``sys`` from ``x0`` over ``t_span``.

    events: CrossSection instances; crossings are located on the dense
    output to machine precision.  ``directions[i]`` in {-1, 0, 1} filters
    the geometric crossing direction (sign of d/dt of the normal offset in
    forward time).  ``terminal``: indices of events that stop the run.
    ``equilibria``: points whose ``equilibrium_radius``-neighborhood stops
    the run (EQUILIBRIUM_APPROACH).
    """
    x0 = np.asarray(x0, float)
    if not np.all(np.isfinite(x0)):
        raise DomainError(f"non-finite initial state {x0}")
    p = sys.full_params(params)
    f = sys.compiled_rhs(p)
    t0, t1 = float(t_span[0]), float(t_span[1])
    forward = t1 >= t0
    directions = list(directions) if directions is not None else [0] * len(events)
    terminal = set(terminal if terminal is not None else range(len(events)))

    fx0, fy0 = f(t0, x0)
    t_dir = 1.0 if forward else -1.0
    ev_fns = [
        _section_event(
            s, d, forward, x0,
            t_dir * (fx0 * s.normal[0] + fy0 * s.normal[1]))
        for s, d in zip(events, directions)]
    for i, g in enumerate(ev_fns):
        g.terminal = i in terminal

    def blowup(t, z):
        return z[0] * z[0] + z[1] * z[1] - blowup_radius * blowup_radius
    blowup.terminal = True
    blowup.direction = 1
    ev_fns.append(blowup)

    eq_offset = len(ev_fns)
    for q in equilibria:
        qx, qy = float(q[0]), float(q[1])

        def near(t, z, qx=qx, qy=qy):
            return ((z[0] - qx) ** 2 + (z[1] - qy) ** 2
                    - equilibrium_radius ** 2)
        near.terminal = True
        near.direction = -1
        ev_fns.append(near)

    sol = solve_ivp(f, (t0, t1), x0, method="RK45", dense_output=True,
                    rtol=tol[1], atol=tol[0], events=ev_fns, max_step=max_step)
    if sol.status == -1:
        raise StiffnessError(sol.message)

    hits = []
    for i in range(len(events)):
        for te, ze in zip(sol.t_events[i], sol.y_events[i]):
            hits.append((i, float(te), (float(ze[0]), float(ze[1]))))
    hits.sort(key=lambda h: h[1], reverse=not forward)

    termination = Termination.TIME_LIMIT
    terminal_index = None
    if sol.status == 1:
        which = [i for i, te in enumerate(sol.t_events) if len(te)
                 and math.isclose(float(te[-1]), float(sol.t[-1]),
                                  rel_tol=0, abs_tol=1e-12 + 1e-12 * abs(sol.t[-1]))]
        idx = which[-1] if which else None
        if idx is None:
            termination = Termination.EVENT
        elif idx < len(events):
            termination = Termination.EVENT
            terminal_index = idx
        elif idx == len(events):
            termination = Termination.BLOWUP
        else:
            termination = Termination.EQUILIBRIUM_APPROACH
            terminal_index = idx - eq_offset

    return Trajectory(sol.t, sol.y.T, sol.sol, termination, hits, terminal_index)


def poincare_map(sys, params, section, x0_on_section, max_time,
                 tol=DEFAULT_TOL, direction=None, transversality_min=1e-8):
    """First return of the flow to ``section``.

    Returns ``(coordinate, return_time)`` of the first crossing in the given
    geometric direction (default: the departure direction of the flow at
    ``x0``).  Raises NoReturn / TangencyError.
    """
    x0 = np.asarray(x0_on_section, float)
    if abs(section.offset(x0)) > 1e-10:
        raise DomainError("start point is not on the section")
    p = sys.full_params(params)
    fx, fy = sys.rhs(x0[0], x0[1], p)
    v_n = fx * section.normal[0] + fy * section.normal[1]
    if abs(v_n) <= transversality_min:
        raise TangencyError("flow tangent to section at start point")
    if direction is None:
        direction = 1 if v_n > 0 else -1

    # leave the section before arming the terminal crossing event
    speed = math.hypot(fx, fy)
    dt = max(1e-8, 1e-6 / max(speed, 1e-12))
    lead = integrate(sys, p, x0, (0.0, dt), tol=tol)
    t_off = lead.t[-1]
    z_off = lead.end

    traj = integrate(sys, p, z_off, (t_off, max_time), tol=tol,
                     events=[section], directions=[direction], terminal=[0])
    if traj.termination is not Termination.EVENT:
        raise NoReturn(f"no return within t={max_time} ({traj.termination})")
    t_ret = traj.t[-1]
    z_ret = traj.end
    fr = sys.rhs(z_ret[0], z_ret[1], p)
    v_ret = fr[0] * section.normal[0] + fr[1] * section.normal[1]
    if abs(v_ret) <= transversality_min:
        raise TangencyError("tangential return crossing")
    return section.coord(z_ret), float(t_ret)
