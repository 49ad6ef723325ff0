"""Adaptive eighth-order integration with dense output and section events.

One DOP853 loop over plain floats (Dormand & Prince 1980; Hairer, Norsett &
Wanner, *Solving ODEs I*, II.4 and II.10): the tableau, initial step,
error norm and step-size control of SciPy's DOP853, with its seventh-order
interpolant for the dense output.  The interpolant costs three more field
calls per step, so the loop builds it only for a step with an event to
locate, and a trajectory only for a step that is read.  Events are located
on it with ``roots.brent`` by SciPy's event rules (Shampine & Thompson,
"Event location for ODEs", 2000).  Around the loop sit the
trajectory/termination bookkeeping and the cross-section geometry the rest
of the toolkit works with.
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
    disc), or what its watch returns.  The watch of ``manifolds.grow_branch``
    returns ARCLENGTH_CAP, SETTLED for a branch that has come to rest on an
    attractor, and ENOUGH_HITS for a branch whose section hits so far are
    all its caller asked for.
    """

    TIME_LIMIT = "time_limit"
    EVENT = "event"
    BLOWUP = "blowup"
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


# DOP853 (Dormand & Prince 1980; HNW II.10) under the names of Hairer's
# Fortran code: the stages 2-12 (A), the eighth-order weights B of stages 1
# and 6-12, the fifth-order error weights ER, and BHH, which the third-order
# error estimate takes off B at stages 1, 9 and 12.  The fields are
# autonomous, so the nodes c_i are not needed
A21 = 0.05260015195876773
A31, A32 = 0.0197250569845379, 0.0591751709536137
A41, A43 = 0.02958758547680685, 0.08876275643042054
A51, A53, A54 = 0.2413651341592667, -0.8845494793282861, 0.924834003261792
A61, A64, A65 = (0.037037037037037035, 0.17082860872947386,
                 0.12546768756682242)
A71, A74, A75, A76 = (0.037109375, 0.17025221101954405, 0.06021653898045596,
                      -0.017578125)
A81, A84, A85, A86, A87 = (0.03709200011850479, 0.17038392571223998,
                           0.10726203044637328, -0.015319437748624402,
                           0.008273789163814023)
A91, A94, A95, A96, A97, A98 = (0.6241109587160757, -3.3608926294469414,
                                -0.868219346841726, 27.59209969944671,
                                20.154067550477894, -43.48988418106996)
A101, A104, A105, A106, A107, A108, A109 = (
    0.47766253643826434, -2.4881146199716677, -0.590290826836843,
    21.230051448181193, 15.279233632882423, -33.28821096898486,
    -0.020331201708508627)
A111, A114, A115, A116, A117, A118, A119, A1110 = (
    -0.9371424300859873, 5.186372428844064, 1.0914373489967295,
    -8.149787010746927, -18.52006565999696, 22.739487099350505,
    2.4936055526796523, -3.0467644718982196)
A121, A124, A125, A126, A127, A128, A129, A1210, A1211 = (
    2.273310147516538, -10.53449546673725, -2.0008720582248625,
    -17.9589318631188, 27.94888452941996, -2.8589982771350235,
    -8.87285693353063, 12.360567175794303, 0.6433927460157636)
B1, B6, B7, B8, B9, B10, B11, B12 = (
    0.054293734116568765, 4.450312892752409, 1.8915178993145003,
    -5.801203960010585, 0.3111643669578199, -0.1521609496625161,
    0.20136540080403034, 0.04471061572777259)
ER1, ER6, ER7, ER8, ER9, ER10, ER11, ER12 = (
    0.01312004499419488, -1.2251564463762044, -0.4957589496572502,
    1.6643771824549864, -0.35032884874997366, 0.3341791187130175,
    0.08192320648511571, -0.022355307863886294)
BHH1, BHH2, BHH3 = 0.2440944881889764, 0.7338466882816118, 0.022058823529411766
# the seventh-order interpolant: three more stages, 14-16, and the weights
# D4-D7 of stages 1 and 6-16 in its coefficients F3-F6
A141, A147, A148, A149, A1410, A1411, A1412, A1413 = (
    0.056167502283047954, 0.25350021021662483, -0.2462390374708025,
    -0.12419142326381637, 0.15329179827876568, 0.00820105229563469,
    0.007567897660545699, -0.008298)
A151, A156, A157, A158, A1511, A1512, A1513, A1514 = (
    0.03183464816350214, 0.028300909672366776, 0.053541988307438566,
    -0.05492374857139099, -0.00010834732869724932, 0.0003825710908356584,
    -0.00034046500868740456, 0.1413124436746325)
A161, A166, A167, A168, A169, A1613, A1614, A1615 = (
    -0.42889630158379194, -4.697621415361164, 7.683421196062599,
    4.06898981839711, 0.3567271874552811, -0.0013990241651590145,
    2.9475147891527724, -9.15095847217987)
D41, D46, D47, D48, D49, D410, D411, D412, D413, D414, D415, D416 = (
    -8.428938276109013, 0.5667149535193777, -3.0689499459498917,
    2.38466765651207, 2.117034582445028, -0.871391583777973,
    2.2404374302607883, 0.6315787787694688, -0.08899033645133331,
    18.148505520854727, -9.194632392478356, -4.436036387594894)
D51, D56, D57, D58, D59, D510, D511, D512, D513, D514, D515, D516 = (
    10.427508642579134, 242.28349177525817, 165.20045171727028,
    -374.5467547226902, -22.113666853125306, 7.733432668472264,
    -30.674084731089398, -9.332130526430229, 15.697238121770845,
    -31.139403219565178, -9.35292435884448, 35.81684148639408)
D61, D66, D67, D68, D69, D610, D611, D612, D613, D614, D615, D616 = (
    19.985053242002433, -387.0373087493518, -189.17813819516758,
    527.8081592054236, -11.57390253995963, 6.8812326946963,
    -1.0006050966910838, 0.7777137798053443, -2.778205752353508,
    -60.19669523126412, 84.32040550667716, 11.99229113618279)
D71, D76, D77, D78, D79, D710, D711, D712, D713, D714, D715, D716 = (
    -25.69393346270375, -154.18974869023643, -231.5293791760455,
    357.6391179106141, 93.40532418362432, -37.45832313645163,
    104.0996495089623, 29.8402934266605, -43.53345659001114,
    96.32455395918828, -39.17726167561544, -149.72683625798564)
KEPT = 18       # stages 1 and 6-13 of a step, x and y interleaved
COEFFS = 14     # interpolant coefficients F0-F6, x and y interleaved

SAFETY, MIN_FACTOR, MAX_FACTOR = 0.9, 0.2, 10.0
ERROR_EXPONENT = -1 / 8
SQRT2 = 2 ** 0.5


def _dense_coefficients(f, x, y, h, k):
    """F0-F6 of DOP853's interpolant of the step of size ``h`` from
    ``(x, y)`` with the kept stages ``k``."""
    (k1x, k1y, k6x, k6y, k7x, k7y, k8x, k8y, k9x, k9y, k10x, k10y,
     k11x, k11y, k12x, k12y, k13x, k13y) = k
    # the step's end, summed as the stepper sums it
    dx = x + h * (B1 * k1x + B6 * k6x + B7 * k7x + B8 * k8x + B9 * k9x
                  + B10 * k10x + B11 * k11x + B12 * k12x) - x
    dy = y + h * (B1 * k1y + B6 * k6y + B7 * k7y + B8 * k8y + B9 * k9y
                  + B10 * k10y + B11 * k11y + B12 * k12y) - y
    k14x, k14y = f(0.0, (
        x + (A141 * k1x + A147 * k7x + A148 * k8x + A149 * k9x + A1410 * k10x
             + A1411 * k11x + A1412 * k12x + A1413 * k13x) * h,
        y + (A141 * k1y + A147 * k7y + A148 * k8y + A149 * k9y + A1410 * k10y
             + A1411 * k11y + A1412 * k12y + A1413 * k13y) * h))
    k15x, k15y = f(0.0, (
        x + (A151 * k1x + A156 * k6x + A157 * k7x + A158 * k8x + A1511 * k11x
             + A1512 * k12x + A1513 * k13x + A1514 * k14x) * h,
        y + (A151 * k1y + A156 * k6y + A157 * k7y + A158 * k8y + A1511 * k11y
             + A1512 * k12y + A1513 * k13y + A1514 * k14y) * h))
    k16x, k16y = f(0.0, (
        x + (A161 * k1x + A166 * k6x + A167 * k7x + A168 * k8x + A169 * k9x
             + A1613 * k13x + A1614 * k14x + A1615 * k15x) * h,
        y + (A161 * k1y + A166 * k6y + A167 * k7y + A168 * k8y + A169 * k9y
             + A1613 * k13y + A1614 * k14y + A1615 * k15y) * h))
    return (
        dx, dy, h * k1x - dx, h * k1y - dy,
        2 * dx - h * (k13x + k1x), 2 * dy - h * (k13y + k1y),
        h * (D41 * k1x + D46 * k6x + D47 * k7x + D48 * k8x + D49 * k9x
             + D410 * k10x + D411 * k11x + D412 * k12x + D413 * k13x
             + D414 * k14x + D415 * k15x + D416 * k16x),
        h * (D41 * k1y + D46 * k6y + D47 * k7y + D48 * k8y + D49 * k9y
             + D410 * k10y + D411 * k11y + D412 * k12y + D413 * k13y
             + D414 * k14y + D415 * k15y + D416 * k16y),
        h * (D51 * k1x + D56 * k6x + D57 * k7x + D58 * k8x + D59 * k9x
             + D510 * k10x + D511 * k11x + D512 * k12x + D513 * k13x
             + D514 * k14x + D515 * k15x + D516 * k16x),
        h * (D51 * k1y + D56 * k6y + D57 * k7y + D58 * k8y + D59 * k9y
             + D510 * k10y + D511 * k11y + D512 * k12y + D513 * k13y
             + D514 * k14y + D515 * k15y + D516 * k16y),
        h * (D61 * k1x + D66 * k6x + D67 * k7x + D68 * k8x + D69 * k9x
             + D610 * k10x + D611 * k11x + D612 * k12x + D613 * k13x
             + D614 * k14x + D615 * k15x + D616 * k16x),
        h * (D61 * k1y + D66 * k6y + D67 * k7y + D68 * k8y + D69 * k9y
             + D610 * k10y + D611 * k11y + D612 * k12y + D613 * k13y
             + D614 * k14y + D615 * k15y + D616 * k16y),
        h * (D71 * k1x + D76 * k6x + D77 * k7x + D78 * k8x + D79 * k9x
             + D710 * k10x + D711 * k11x + D712 * k12x + D713 * k13x
             + D714 * k14x + D715 * k15x + D716 * k16x),
        h * (D71 * k1y + D76 * k6y + D77 * k7y + D78 * k8y + D79 * k9y
             + D710 * k10y + D711 * k11y + D712 * k12y + D713 * k13y
             + D714 * k14y + D715 * k15y + D716 * k16y))


def _interpolate(F, x, y, s):
    """The interpolant with coefficients ``F`` of a step from ``(x, y)``, at
    the step fraction ``s``; floats or arrays alike."""
    f0x, f0y, f1x, f1y, f2x, f2y, f3x, f3y, f4x, f4y, f5x, f5y, f6x, f6y = F
    r = 1 - s
    return (x + ((((((f6x * s + f5x) * r + f4x) * s + f3x) * r + f2x) * s
                  + f1x) * r + f0x) * s,
            y + ((((((f6y * s + f5y) * r + f4y) * s + f3y) * r + f2y) * s
                  + f1y) * r + f0y) * s)


def _still(t, z):
    """The field of a run that does not move."""
    return 0.0, 0.0


class DenseOutput:
    """Piecewise seventh-order ``y(t)`` over the accepted steps of a run.

    Step ``i`` starts at ``t[i]``, ``xy[i]``, has size ``h[i]`` and keeps
    the stage derivatives ``k[i]`` of stages 1 and 6-13 (shape ``(18,)``).
    A step cut short by a terminal event keeps its full ``h``: its
    polynomial spans the whole step.  A step's polynomial costs three more
    calls of the field ``f``; it is built when the step is first read.
    Calls take a time or a 1-D array of times and return shape ``(2,)`` or
    ``(2, n)``; at a shared step end the earlier step is used.
    """

    def __init__(self, f, t, xy, h, k):
        self.f, self.t, self.xy, self.h, self.k = f, t, xy, h, k
        self._coeffs = self._built = None

    def __call__(self, tq):
        tq = np.asarray(tq, float)
        t, n = self.t, len(self.h)
        if t[-1] >= t[0]:
            seg = np.clip(np.searchsorted(t, tq, side="left") - 1, 0, n - 1)
        else:
            seg = n - 1 - np.clip(
                np.searchsorted(t[::-1], tq, side="right") - 1, 0, n - 1)
        if self._coeffs is None:
            self._coeffs = np.empty((n, COEFFS))
            self._built = np.zeros(n, bool)
        for i in np.unique(seg[~self._built[seg]]).tolist():
            self._coeffs[i] = _dense_coefficients(
                self.f, *self.xy[i].tolist(), float(self.h[i]),
                self.k[i].tolist())
            self._built[i] = True
        return np.array(_interpolate(self._coeffs[seg].T, *self.xy[seg].T,
                                     (tq - t[seg]) / self.h[seg]))


@dataclass
class Trajectory:
    """Solution samples plus dense output and the reason integration ended."""

    t: np.ndarray
    xy: np.ndarray            # shape (n, 2), aligned with t
    interpolant: DenseOutput  # over [t[0], t[-1]]
    termination: Termination
    event_hits: list          # (event_index, t, (x, y)) in time order

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
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, span)


def _trajectory(f, ts, zs, hs, ks, termination, hits, read):
    """The run held in the compact arrays, each read by ``read``."""
    t, xy = read(ts), read(zs).reshape(-1, 2)
    return Trajectory(t, xy, DenseOutput(f, t, xy, read(hs),
                                         read(ks).reshape(-1, KEPT)),
                      termination, hits)


def _dop853(f, t0, x0, y0, t_end, rtol, atol, events, n_sections, watch):
    """DOP853 from ``(x0, y0)`` at ``t0`` towards ``t_end``.

    ``events``: ``(g, direction, terminal)`` triples with ``g(x, y)``; a
    step is searched for a root of ``g`` when ``g <= 0 <= g_new`` (or the
    reverse) in a direction ``direction`` admits, and roots are kept up to
    and including the first terminal one.  ``watch``: see ``integrate``.
    Returns the sample, step-size and kept-stage arrays, the hits of the
    first ``n_sections`` events and why the run ended: the index of the
    event, a watch's Termination, or None at ``t_end``.
    """
    direction = 1.0 if t_end >= t0 else -1.0
    window, check = watch or (math.inf, None)
    due = window
    # samples, step sizes and kept stages, compact until the end
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
            k4x, k4y = f(t, (x + (A41 * k1x + A43 * k3x) * h,
                             y + (A41 * k1y + A43 * k3y) * h))
            k5x, k5y = f(t, (x + (A51 * k1x + A53 * k3x + A54 * k4x) * h,
                             y + (A51 * k1y + A53 * k3y + A54 * k4y) * h))
            k6x, k6y = f(t, (x + (A61 * k1x + A64 * k4x + A65 * k5x) * h,
                             y + (A61 * k1y + A64 * k4y + A65 * k5y) * h))
            k7x, k7y = f(t, (
                x + (A71 * k1x + A74 * k4x + A75 * k5x + A76 * k6x) * h,
                y + (A71 * k1y + A74 * k4y + A75 * k5y + A76 * k6y) * h))
            k8x, k8y = f(t, (
                x + (A81 * k1x + A84 * k4x + A85 * k5x + A86 * k6x
                     + A87 * k7x) * h,
                y + (A81 * k1y + A84 * k4y + A85 * k5y + A86 * k6y
                     + A87 * k7y) * h))
            k9x, k9y = f(t, (
                x + (A91 * k1x + A94 * k4x + A95 * k5x + A96 * k6x
                     + A97 * k7x + A98 * k8x) * h,
                y + (A91 * k1y + A94 * k4y + A95 * k5y + A96 * k6y
                     + A97 * k7y + A98 * k8y) * h))
            k10x, k10y = f(t, (
                x + (A101 * k1x + A104 * k4x + A105 * k5x + A106 * k6x
                     + A107 * k7x + A108 * k8x + A109 * k9x) * h,
                y + (A101 * k1y + A104 * k4y + A105 * k5y + A106 * k6y
                     + A107 * k7y + A108 * k8y + A109 * k9y) * h))
            k11x, k11y = f(t, (
                x + (A111 * k1x + A114 * k4x + A115 * k5x + A116 * k6x
                     + A117 * k7x + A118 * k8x + A119 * k9x
                     + A1110 * k10x) * h,
                y + (A111 * k1y + A114 * k4y + A115 * k5y + A116 * k6y
                     + A117 * k7y + A118 * k8y + A119 * k9y
                     + A1110 * k10y) * h))
            k12x, k12y = f(t, (
                x + (A121 * k1x + A124 * k4x + A125 * k5x + A126 * k6x
                     + A127 * k7x + A128 * k8x + A129 * k9x + A1210 * k10x
                     + A1211 * k11x) * h,
                y + (A121 * k1y + A124 * k4y + A125 * k5y + A126 * k6y
                     + A127 * k7y + A128 * k8y + A129 * k9y + A1210 * k10y
                     + A1211 * k11y) * h))
            bx = (B1 * k1x + B6 * k6x + B7 * k7x + B8 * k8x + B9 * k9x
                  + B10 * k10x + B11 * k11x + B12 * k12x)
            by = (B1 * k1y + B6 * k6y + B7 * k7y + B8 * k8y + B9 * k9y
                  + B10 * k10y + B11 * k11y + B12 * k12y)
            xn, yn = x + h * bx, y + h * by
            k13x, k13y = f(t_new, (xn, yn))
            # the fifth- and third-order error estimates, scaled
            sx = atol + max(abs(x), abs(xn)) * rtol
            sy = atol + max(abs(y), abs(yn)) * rtol
            e5x = (ER1 * k1x + ER6 * k6x + ER7 * k7x + ER8 * k8x + ER9 * k9x
                   + ER10 * k10x + ER11 * k11x + ER12 * k12x) / sx
            e5y = (ER1 * k1y + ER6 * k6y + ER7 * k7y + ER8 * k8y + ER9 * k9y
                   + ER10 * k10y + ER11 * k11y + ER12 * k12y) / sy
            e3x = (bx - BHH1 * k1x - BHH2 * k9x - BHH3 * k12x) / sx
            e3y = (by - BHH1 * k1y - BHH2 * k9y - BHH3 * k12y) / sy
            e5 = e5x * e5x + e5y * e5y
            e3 = e3x * e3x + e3y * e3y
            err = h_abs * e5 / math.sqrt(2 * (e5 + 0.01 * e3)) if e5 else 0.0
            if err < 1:
                factor = MAX_FACTOR if err == 0 else min(
                    MAX_FACTOR, SAFETY * err ** ERROR_EXPONENT)
                if rejected:
                    factor = min(1, factor)
                h_abs *= factor
                break
            h_abs *= max(MIN_FACTOR, SAFETY * err ** ERROR_EXPONENT)
            rejected = True

        stages = (k1x, k1y, k6x, k6y, k7x, k7y, k8x, k8y, k9x, k9y,
                  k10x, k10y, k11x, k11y, k12x, k12y, k13x, k13y)
        t_old, x_old, y_old = t, x, y
        t, x, y = t_new, xn, yn
        k1x, k1y = k13x, k13y
        done = direction * (t - t_end) >= 0

        active = []
        for i, (ev, d, _) in enumerate(events):
            g_old, g[i] = g[i], ev(x, y)
            if (g_old <= 0 <= g[i] and d >= 0) or (g_old >= 0 >= g[i]
                                                   and d <= 0):
                active.append(i)
        if active:
            F = _dense_coefficients(f, x_old, y_old, h, stages)

            def dense(s):
                return _interpolate(F, x_old, y_old, (s - t_old) / h)
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
        if stop is None and abs(t - t0) >= due:
            # copies: an array cannot grow while numpy holds its buffer
            stop = check(_trajectory(f, ts, zs, hs, ks, Termination.TIME_LIMIT,
                                     list(hits), np.array))
            due = window * (abs(t - t0) // window + 1)
            done = done or stop is not None
        if done:
            break
    return ts, zs, hs, ks, hits, stop


def integrate(sys, params, x0, t_span, tol=DEFAULT_TOL, events=(),
              directions=None, terminal=None, blowup_radius=BLOWUP_RADIUS,
              watch=None):
    """Integrate ``sys`` from ``x0`` over ``t_span``.

    events: CrossSection instances; crossings are located on the dense
    output to machine precision.  ``directions[i]`` in {-1, 0, 1} filters
    the geometric crossing direction (sign of d/dt of the normal offset in
    forward time).  ``terminal``: indices of events that stop the run.
    ``tol`` is ``(atol, rtol)``; atol must be positive, since the error is
    scaled by ``atol + |y| rtol``.
    ``watch = (window, check)``: at the first accepted step at or past
    each ``window`` of time from ``t_span[0]``, ``check(run so far)`` (a
    Trajectory with its hits) returns None to go on or a Termination that
    ends the run at that sample; an exception it raises ends the run too.
    The watch changes no step.  Raises StiffnessError when the step size
    underflows.
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
        return Trajectory(t, xy, DenseOutput(_still, t, xy, np.ones(1),
                                             np.zeros((1, KEPT))),
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

    rtol, atol = max(float(tol[1]), 100 * EPS), float(tol[0])
    ts, zs, hs, ks, hits, stop = _dop853(
        f, t0, x, y, t1, rtol, atol, evs, len(events), watch)

    if stop is None:
        termination = Termination.TIME_LIMIT
    elif isinstance(stop, Termination):
        termination = stop
    elif stop < len(events):
        termination = Termination.EVENT
    else:
        termination = Termination.BLOWUP
    return _trajectory(f, ts, zs, hs, ks, termination, hits, np.frombuffer)


def poincare_map(sys, params, section, x0_on_section, max_time,
                 tol=DEFAULT_TOL):
    """First return of the flow to ``section``.

    Returns ``(coordinate, return_time)`` of the first crossing in the
    geometric direction in which the flow leaves ``x0``.  A flow whose
    normal speed is within ``TRANSVERSALITY_MIN`` of zero at either end
    raises TangencyError.  The orbit is one run to ``max_time``, watched
    every ``max_time / 16``; NoReturn says why it cannot return: it left
    the disc of ``escape_radius(x0, section.base)``, a sink's trap caught
    it at a window end (``equilibria.sink_trap``), or ``max_time`` ran out.
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

    window = max_time / 16

    def check(run):
        # the orbit at the window end, on the dense output
        t = window * (run.t[-1] // window)
        sink = eq.sink_trap(sys, p, run(t), [section])
        if sink is not None:
            raise NoReturn(f"captured by the sink at ({sink[0]:.6g}, "
                           f"{sink[1]:.6g}) by t = {t:.6g}")

    # the event is held at the departure sign until the orbit has left the
    # section (``_section_event``), so the start is not found as a return
    radius = escape_radius(x0, section.base)
    traj = integrate(sys, p, x0, (0.0, max_time), tol=tol, events=[section],
                     directions=[direction], terminal=[0],
                     blowup_radius=radius, watch=(window, check))
    if traj.termination is Termination.BLOWUP:
        raise NoReturn(f"escaped past |z| = {radius:.6g}")
    if traj.termination is not Termination.EVENT:
        raise NoReturn(f"no return by t = {max_time}")
    z_ret = traj.end
    fr = sys.rhs(z_ret[0], z_ret[1], p)
    v_ret = fr[0] * section.normal[0] + fr[1] * section.normal[1]
    if abs(v_ret) <= TRANSVERSALITY_MIN:
        raise TangencyError("tangential return crossing")
    return section.coord(z_ret), float(traj.t[-1])
