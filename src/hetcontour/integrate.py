"""Adaptive RK5(4) integration with dense output and section-crossing events.

One Dormand-Prince 5(4) loop over plain floats (Hairer, Norsett & Wanner,
*Solving ODEs I*, II.4-II.6): the tableau, initial step, error norm and
step-size control of SciPy's RK45, with Shampine's quartic continuous
extension for the dense output.  Events are located on that extension with
``roots.brent`` by SciPy's event rules (Shampine & Thompson, "Event location
for ODEs", 2000).  Around the loop sit the trajectory/termination
bookkeeping and the cross-section geometry the rest of the toolkit works with.
"""
from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass

import numpy as np

from . import equilibria as eq
from .errors import DomainError, NoReturn, StiffnessError, TangencyError
from .roots import EPS, brent

DEFAULT_TOL = (1e-10, 1e-10)
BLOWUP_RADIUS = 1e6
ESCAPE_FACTOR = 10.0        # escape radius / (1 + extent of the geometry)
TRANSVERSALITY_MIN = 1e-8   # least normal speed of a transversal crossing


class Termination(enum.Enum):
    """Why an integration ended.

    ``integrate`` ends on TIME_LIMIT, EVENT, BLOWUP (left the call's escape
    disc) or EQUILIBRIUM_APPROACH.  ``manifolds.grow_branch`` adds
    ARCLENGTH_CAP, SETTLED for a branch that has come to rest on an
    attractor, and ENOUGH_HITS for a branch whose section hits so far are
    all its caller asked for.
    """

    TIME_LIMIT = "time_limit"
    EVENT = "event"
    BLOWUP = "blowup"
    EQUILIBRIUM_APPROACH = "equilibrium_approach"
    ARCLENGTH_CAP = "arclength_cap"
    SETTLED = "settled"
    ENOUGH_HITS = "enough_hits"


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
    def transverse_to_flow(sys, params, base):
        """Section at ``base`` with normal along the flow there."""
        return CrossSection.at(base, sys.rhs(base[0], base[1], params))

    def coord(self, point):
        return ((point[0] - self.base[0]) * self.tangent[0]
                + (point[1] - self.base[1]) * self.tangent[1])

    def offset(self, point):
        return ((point[0] - self.base[0]) * self.normal[0]
                + (point[1] - self.base[1]) * self.normal[1])

    def point_at(self, coord):
        return (self.base[0] + coord * self.tangent[0],
                self.base[1] + coord * self.tangent[1])


def escape_radius(*points):
    """Radius ``ESCAPE_FACTOR (1 + max |p|)`` of a call's escape disc."""
    return ESCAPE_FACTOR * (1.0 + max(math.hypot(p[0], p[1]) for p in points))


# Dormand-Prince 5(4): stages, fifth-order weights and the error weights
# (fifth minus fourth order); stage 2 has weight 0 in B, E and P.  The
# fields are autonomous, so the nodes c_i are not needed
A21 = 1 / 5
A31, A32 = 3 / 40, 9 / 40
A41, A42, A43 = 44 / 45, -56 / 15, 32 / 9
A51, A52, A53, A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
A61, A62, A63, A64, A65 = (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                           -5103 / 18656)
B1, B3, B4, B5, B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
E1, E3, E4, E5, E6, E7 = (-71 / 57600, 71 / 16695, -71 / 1920,
                          17253 / 339200, -22 / 525, 1 / 40)
# quartic continuous extension (Shampine 1986): y(t_old + s h) =
# y_old + h * sum_j (K^T P)[:, j] s^(j+1), rows for stages 1, 3, 4, 5, 6, 7
DENSE_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608,
     -12715105075 / 11282082432],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933,
     87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304,
     -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408,
     701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883,
     -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423]])
STAGES = len(DENSE_P)

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1 / 5
SQRT2 = 2 ** 0.5


class DenseOutput:
    """Piecewise quartic ``y(t)`` over the accepted steps of a run.

    Step ``i`` starts at ``t[i]``, ``xy[i]``, has size ``h[i]`` and the
    stage derivatives ``k[i]`` (shape ``(6, 2)``).  A step cut short by a
    terminal event keeps its full ``h``: its polynomial spans the whole step.
    Calls take a time or a 1-D array of times and return shape ``(2,)`` or
    ``(2, n)``; at a shared step end the earlier step is used.
    """

    def __init__(self, t, xy, h, k):
        self.t, self.xy, self.h, self.k = t, xy, h, k
        self._q = None

    def __call__(self, tq):
        tq = np.asarray(tq, float)
        t, n = self.t, len(self.h)
        if t[-1] >= t[0]:
            seg = np.clip(np.searchsorted(t, tq, side="left") - 1, 0, n - 1)
        else:
            seg = n - 1 - np.clip(
                np.searchsorted(t[::-1], tq, side="right") - 1, 0, n - 1)
        if self._q is None:
            # (n, 2, 4): coefficients of s, s^2, s^3, s^4 per component
            self._q = np.einsum("nsd,sj->ndj", self.k, DENSE_P)
        q, h = self._q[seg], self.h[seg]
        s1 = ((tq - t[seg]) / h)[..., None]
        s2 = s1 * s1
        s3 = s2 * s1
        y = self.xy[seg] + h[..., None] * (q[..., 0] * s1 + q[..., 1] * s2
                                           + q[..., 2] * s3
                                           + q[..., 3] * (s3 * s1))
        return np.moveaxis(y, -1, 0)


@dataclass
class Trajectory:
    """Solution samples plus dense output and the reason integration ended."""

    t: np.ndarray
    xy: np.ndarray            # shape (n, 2), aligned with t
    interpolant: DenseOutput  # over [t[0], t[-1]]
    termination: Termination
    event_hits: list          # (event_index, t, (x, y)) in time order
    terminal_index: int | None = None   # index into the events argument

    def __call__(self, t):
        return self.interpolant(t)

    @property
    def end(self):
        return self.xy[-1]

    def arclength(self):
        return float(np.sum(np.linalg.norm(np.diff(self.xy, axis=0), axis=1)))


ARM_OFFSET = 1e-10


def _section_event(section, x0, drift):
    bx, by = map(float, section.base)
    nx, ny = map(float, section.normal)

    def offset(x, y):
        return (x - bx) * nx + (y - by) * ny

    if abs(offset(x0[0], x0[1])) < ARM_OFFSET and drift != 0.0:
        # starting on the section: hold the event function at the departure
        # sign until the orbit has actually left, so the start point is not
        # re-detected as a zero-width crossing
        armed = False

        def held(x, y):
            nonlocal armed
            off = offset(x, y)
            if not armed:
                if abs(off) < ARM_OFFSET:
                    return math.copysign(ARM_OFFSET, drift)
                armed = True
            return off
        return held
    return offset


def _rms(a, b):
    return math.sqrt(a * a + b * b) / SQRT2


def _initial_step(f, t0, x0, y0, fx0, fy0, span, direction, rtol, atol):
    """First step size, HNW II.4, as SciPy's ``select_initial_step``."""
    sx, sy = atol + abs(x0) * rtol, atol + abs(y0) * rtol
    d0 = _rms(x0 / sx, y0 / sy)
    d1 = _rms(fx0 / sx, fy0 / sy)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, span)
    fx1, fy1 = f(t0 + h0 * direction, (x0 + h0 * direction * fx0,
                                       y0 + h0 * direction * fy0))
    d2 = _rms((fx1 - fx0) / sx, (fy1 - fy0) / sy) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 5)
    return min(100 * h0, h1, span)


def _dopri5(f, t0, x0, y0, t_end, rtol, atol, events, n_sections):
    """Dormand-Prince 5(4) from ``(x0, y0)`` at ``t0`` towards ``t_end``.

    ``events``: ``(g, direction, terminal)`` triples with ``g(x, y)``; a
    step is searched for a root of ``g`` when ``g <= 0 <= g_new`` (or the
    reverse) in a direction ``direction`` admits, and roots are kept up to
    and including the first terminal one.  Returns the sample, step-size and
    stage arrays, the hits of the first ``n_sections`` events and the index
    of the event that ended the run (None at ``t_end``).
    """
    direction = 1.0 if t_end >= t0 else -1.0
    # samples, step sizes and stage derivatives, kept compact until the end
    ts, zs = array("d", (t0,)), array("d", (x0, y0))
    hs, ks = array("d"), array("d")
    hits, stop = [], None
    t, x, y = t0, x0, y0
    k1x, k1y = f(t, (x, y))
    h_abs = _initial_step(f, t, x, y, k1x, k1y, abs(t_end - t0), direction,
                          rtol, atol)
    g = [ev(x, y) for ev, _, _ in events]
    while True:
        min_step = 10 * abs(math.nextafter(t, direction * math.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                raise StiffnessError(
                    f"step size underflow at t={t!r}: required step size is "
                    "less than spacing between numbers")
            t_new = t + h_abs * direction
            if direction * (t_new - t_end) > 0:
                t_new = t_end
            h = t_new - t
            h_abs = abs(h)
            k2x, k2y = f(t, (x + A21 * k1x * h, y + A21 * k1y * h))
            k3x, k3y = f(t, (x + (A31 * k1x + A32 * k2x) * h,
                             y + (A31 * k1y + A32 * k2y) * h))
            k4x, k4y = f(t, (x + (A41 * k1x + A42 * k2x + A43 * k3x) * h,
                             y + (A41 * k1y + A42 * k2y + A43 * k3y) * h))
            k5x, k5y = f(t, (
                x + (A51 * k1x + A52 * k2x + A53 * k3x + A54 * k4x) * h,
                y + (A51 * k1y + A52 * k2y + A53 * k3y + A54 * k4y) * h))
            k6x, k6y = f(t, (
                x + (A61 * k1x + A62 * k2x + A63 * k3x + A64 * k4x
                     + A65 * k5x) * h,
                y + (A61 * k1y + A62 * k2y + A63 * k3y + A64 * k4y
                     + A65 * k5y) * h))
            xn = x + h * (B1 * k1x + B3 * k3x + B4 * k4x + B5 * k5x
                          + B6 * k6x)
            yn = y + h * (B1 * k1y + B3 * k3y + B4 * k4y + B5 * k5y
                          + B6 * k6y)
            k7x, k7y = f(t_new, (xn, yn))
            err = _rms(
                (E1 * k1x + E3 * k3x + E4 * k4x + E5 * k5x + E6 * k6x
                 + E7 * k7x) * h / (atol + max(abs(x), abs(xn)) * rtol),
                (E1 * k1y + E3 * k3y + E4 * k4y + E5 * k5y + E6 * k6y
                 + E7 * k7y) * h / (atol + max(abs(y), abs(yn)) * rtol))
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(
                    MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True

        stages = (k1x, k1y, k3x, k3y, k4x, k4y, k5x, k5y, k6x, k6y, k7x, k7y)
        t_old, x_old, y_old = t, x, y
        t, x, y = t_new, xn, yn
        k1x, k1y = k7x, k7y
        done = direction * (t - t_end) >= 0

        active = []
        for i, (ev, d, _) in enumerate(events):
            g_old, g[i] = g[i], ev(x, y)
            if (g_old <= 0 <= g[i] and d >= 0) or (g_old >= 0 >= g[i]
                                                   and d <= 0):
                active.append(i)
        if active:
            dense = _step_polynomial(t_old, x_old, y_old, h, stages)
            roots = []
            for i in active:
                ev_t = lambda s, ev=events[i][0]: ev(*dense(s))
                roots.append((brent(ev_t, t_old, t, ev_t(t_old), ev_t(t),
                                    4 * EPS)[0], i))
            roots.sort(key=lambda r: direction * r[0])
            cut = next((j for j, (_, i) in enumerate(roots)
                        if events[i][2]), None)
            if cut is not None:
                roots = roots[:cut + 1]
            for t_root, i in roots:
                if i < n_sections:
                    hits.append((i, t_root, dense(t_root)))
            if cut is not None:
                t, stop = roots[-1]
                x, y = dense(t)
                done = True
                if len(ts) > 1 and t == ts[-1]:
                    # the run ended at the previous sample: no new step
                    break
        ts.append(t)
        zs.extend((x, y))
        hs.append(h)
        ks.extend(stages)
        if done:
            break
    return ts, zs, hs, ks, hits, stop


def _step_polynomial(t_old, x_old, y_old, h, stages):
    """The quartic of one step as a scalar function of time."""
    q = np.array(stages).reshape(STAGES, 2).T @ DENSE_P
    qx0, qx1, qx2, qx3 = (float(v) for v in q[0])
    qy0, qy1, qy2, qy3 = (float(v) for v in q[1])

    def dense(t):
        s1 = (t - t_old) / h
        s2 = s1 * s1
        s3 = s2 * s1
        s4 = s3 * s1
        return (x_old + h * (qx0 * s1 + qx1 * s2 + qx2 * s3 + qx3 * s4),
                y_old + h * (qy0 * s1 + qy1 * s2 + qy2 * s3 + qy3 * s4))
    return dense


def integrate(sys, params, x0, t_span, tol=DEFAULT_TOL, events=(),
              directions=None, terminal=None, blowup_radius=BLOWUP_RADIUS,
              equilibria=(), equilibrium_radius=1e-8):
    """Integrate ``sys`` from ``x0`` over ``t_span``.

    events: CrossSection instances; crossings are located on the dense
    output to machine precision.  ``directions[i]`` in {-1, 0, 1} filters
    the geometric crossing direction (sign of d/dt of the normal offset in
    forward time).  ``terminal``: indices of events that stop the run.
    ``equilibria``: points whose ``equilibrium_radius``-neighborhood stops
    the run (EQUILIBRIUM_APPROACH).  ``tol`` is ``(atol, rtol)``; atol must
    be positive, since the error is scaled by ``atol + |y| rtol``.  Raises
    StiffnessError when the step size underflows.
    """
    x0 = np.asarray(x0, float)
    if not np.all(np.isfinite(x0)):
        raise DomainError(f"non-finite initial state {x0}")
    if not 0 < tol[0] < math.inf:
        raise DomainError(f"absolute tolerance must be positive, got {tol[0]}")
    p = sys.full_params(params)
    f = sys.compiled_rhs(p)
    t0, t1 = float(t_span[0]), float(t_span[1])
    x, y = float(x0[0]), float(x0[1])
    if t0 == t1:
        # nothing to integrate: one constant step
        t, xy = np.array([t0, t0]), np.array([x0, x0])
        return Trajectory(t, xy, DenseOutput(t, xy, np.ones(1),
                                             np.zeros((1, STAGES, 2))),
                          Termination.TIME_LIMIT, [])
    # in backward time a geometric crossing direction is reversed
    t_dir = 1.0 if t1 > t0 else -1.0
    directions = list(directions) if directions is not None else [0] * len(events)
    terminal = set(terminal if terminal is not None else range(len(events)))

    fx0, fy0 = f(t0, (x, y))
    evs = [(_section_event(s, (x, y),
                           t_dir * (fx0 * s.normal[0] + fy0 * s.normal[1])),
            t_dir * d, i in terminal)
           for i, (s, d) in enumerate(zip(events, directions))]
    r2 = blowup_radius * blowup_radius
    evs.append((lambda x, y: x * x + y * y - r2, 1, True))
    eq_offset = len(evs)
    e2 = equilibrium_radius ** 2
    for q in equilibria:
        qx, qy = float(q[0]), float(q[1])
        evs.append((lambda x, y, qx=qx, qy=qy:
                    (x - qx) * (x - qx) + (y - qy) * (y - qy) - e2, -1, True))

    rtol, atol = max(float(tol[1]), 100 * EPS), float(tol[0])
    ts, zs, hs, ks, hits, stop = _dopri5(
        f, t0, x, y, t1, rtol, atol, evs, len(events))

    t = np.frombuffer(ts)
    xy = np.frombuffer(zs).reshape(-1, 2)
    dense = DenseOutput(t, xy, np.frombuffer(hs),
                        np.frombuffer(ks).reshape(-1, STAGES, 2))
    termination, terminal_index = Termination.TIME_LIMIT, None
    if stop is None:
        pass
    elif stop < len(events):
        termination, terminal_index = Termination.EVENT, stop
    elif stop == len(events):
        termination = Termination.BLOWUP
    else:
        termination = Termination.EQUILIBRIUM_APPROACH
        terminal_index = stop - eq_offset
    return Trajectory(t, xy, dense, termination, hits, terminal_index)


def poincare_map(sys, params, section, x0_on_section, max_time,
                 tol=DEFAULT_TOL):
    """First return of the flow to ``section``.

    Returns ``(coordinate, return_time)`` of the first crossing in the
    geometric direction in which the flow leaves ``x0``.  A flow whose
    normal speed is within ``TRANSVERSALITY_MIN`` of zero at either end
    raises TangencyError.  The orbit runs in windows doubling from
    ``max_time / 16``; NoReturn says why it cannot return: it left the disc
    of ``escape_radius(x0, section.base)``, a sink's trap caught it at a
    window end (``equilibria.sink_trap``), or ``max_time`` ran out.
    """
    x0 = np.asarray(x0_on_section, float)
    if abs(section.offset(x0)) >= ARM_OFFSET:
        raise DomainError("start point is not on the section")
    p = sys.full_params(params)
    fx, fy = sys.rhs(x0[0], x0[1], p)
    v_n = fx * section.normal[0] + fy * section.normal[1]
    if abs(v_n) <= TRANSVERSALITY_MIN:
        raise TangencyError("flow tangent to section at start point")
    direction = 1 if v_n > 0 else -1

    # the event is held at the departure sign until the orbit has left the
    # section (``_section_event``), so the start is not found as a return
    radius = escape_radius(x0, section.base)
    t, z, window = 0.0, x0, max_time / 16
    while True:
        t_end = min(t + window, max_time)
        traj = integrate(sys, p, z, (t, t_end), tol=tol, events=[section],
                         directions=[direction], terminal=[0],
                         blowup_radius=radius)
        if traj.termination is Termination.EVENT:
            break
        if traj.termination is Termination.BLOWUP:
            raise NoReturn(f"escaped past |z| = {radius:.6g}")
        if t_end >= max_time:
            raise NoReturn(f"no return by t = {max_time}")
        t, z, window = t_end, traj.end, 2 * window
        sink = eq.sink_trap(sys, p, z, [section])
        if sink is not None:
            raise NoReturn(f"captured by the sink at ({sink[0]:.6g}, "
                           f"{sink[1]:.6g}) by t = {t:.6g}")
    z_ret = traj.end
    fr = sys.rhs(z_ret[0], z_ret[1], p)
    v_ret = fr[0] * section.normal[0] + fr[1] * section.normal[1]
    if abs(v_ret) <= TRANSVERSALITY_MIN:
        raise TangencyError("tangential return crossing")
    return section.coord(z_ret), float(traj.t[-1])
