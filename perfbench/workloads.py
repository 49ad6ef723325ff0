"""The four benchmark workloads.

Each workload draws its inputs from the seed, builds what it needs once
(``setup``), computes its results in ``run`` (the timed round), counts the
operations of a round that failed, and checks the results against the
independent computations in ``reference`` and against properties the
method must have.  The seed only moves inputs inside ranges where the
expected outcome is known; see README.md for the ranges.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import tempfile

import numpy as np

from hetcontour import cli
from hetcontour import continuation as ct
from hetcontour import diagrams as dg
from hetcontour import modelmap as mm
from hetcontour import vectorfield as vf
from hetcontour.errors import HetContourError

import reference as ref

MONO = mm.Orientation.MONODROMIC
NON_MONO = mm.Orientation.NON_MONODROMIC


def _compile_first_field(system, params):
    system.compiled_rhs(system.full_params(params))


def hausdorff(a, b):
    """Symmetric Hausdorff distance, kept apart from diagrams.hausdorff so
    that the symmetry check does not rest on the package's own helper."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    d = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


class Reversible:
    """Contour value gamma0 of ``revers_gamma`` by bisection and secant."""

    name = "reversible"
    ops = 1
    GAMMA0 = 2.5315                # the paper's contour value
    XTOL = 1e-4

    def __init__(self, seed):
        # the bracket is always wider than 64 * XTOL and at most twice that,
        # so every seed bisects exactly once before the secant polish
        rng = np.random.default_rng(seed)
        lo, hi = rng.uniform(3.5e-3, 6e-3, size=2)
        self.bracket = (self.GAMMA0 - lo, self.GAMMA0 + hi)

    def setup(self):
        _compile_first_field(vf.builtin("revers_gamma"),
                             {"gamma": self.bracket[0]})

    def run(self):
        try:
            return ct.find_reversible_contour(
                vf.builtin("revers_gamma"), self.bracket, xtol=self.XTOL)
        except HetContourError:
            return None

    def failed(self, gamma0):
        return int(gamma0 is None)

    def check(self, gamma0):
        if gamma0 is None:
            return []
        problems = []
        if abs(gamma0 - self.GAMMA0) > 1e-3:
            problems.append(f"gamma0 = {gamma0} is not within 1e-3 of "
                            f"{self.GAMMA0}")
        lo = ref.reversible_split(gamma0 - 1e-3)
        hi = ref.reversible_split(gamma0 + 1e-3)
        if not lo * hi < 0:
            problems.append(f"reference splitting keeps its sign on "
                            f"gamma0 -+ 1e-3 ({lo:+.3e}, {hi:+.3e})")
        return problems


class Heart:
    """``hetcontour diagram --scenario heart --kmax 0``, run in-process."""

    name = "heart"
    ops = 6                        # two codim-2 points, four H curves
    MAX_POINTS = 2
    C1 = (0.422432, -0.452007)     # the paper's lower contour point
    INDICES = (1.0175, 1.2674)     # the paper's saddle indices at C1

    def __init__(self, seed, scratch):
        rng = np.random.default_rng(seed)
        self.step = float(rng.uniform(4.5e-4, 5.5e-4))
        self.scratch = scratch

    def setup(self):
        scn = dg.scenario("heart")
        _compile_first_field(scn.system, scn.base_params)

    def run(self):
        out = tempfile.mkdtemp(prefix="heart-", dir=self.scratch)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([
                    "diagram", "--scenario", "heart", "--kmax", "0",
                    "--max-points", str(self.MAX_POINTS),
                    "--step", repr(self.step), "--out", out])
            bundle = None
            if code != cli.EXIT_HARD:
                with open(f"{out}/diagram.json") as fh:
                    bundle = json.load(fh)
        finally:
            shutil.rmtree(out)
        return code, bundle

    def failed(self, result):
        code, bundle = result
        if bundle is None:
            return self.ops
        return min(self.ops, len(bundle["failures"]))

    def check(self, result):
        code, bundle = result
        if bundle is None or bundle["failures"]:
            return []
        problems = []
        tags = [c["tag"] for c in bundle["curves"]]
        if tags != ["H_L", "H_M", "H_L", "H_M"] or len(bundle["codim2"]) != 2:
            return [f"expected 4 H curves and 2 codim-2 points, got {tags} "
                    f"and {len(bundle['codim2'])}"]
        c1, c2 = bundle["codim2"]
        z1 = np.array([float(v) for v in c1["location"]])
        z2 = np.array([float(v) for v in c2["location"]])
        if np.max(np.abs(z1 - self.C1)) > 1e-3:
            problems.append(f"C1 = {tuple(z1)} is not within 1e-3 of "
                            f"{self.C1}")
        if np.max(np.abs(z1 + z2)) > 1e-7:
            problems.append(f"C2 = {tuple(z2)} is not -C1")
        lam, mu = ref.heart_indices(*z1)
        if max(abs(lam - self.INDICES[0]), abs(mu - self.INDICES[1])) > 1e-3:
            problems.append(f"reference indices at C1 ({lam}, {mu}) are not "
                            f"within 1e-3 of {self.INDICES}")
        for point, want in ((c1, (lam, mu)), (c2, (1 / lam, 1 / mu))):
            got = (float(point["lambda"]), float(point["mu"]))
            if max(abs(g - w) for g, w in zip(got, want)) > 1e-6:
                problems.append(f"indices {got} differ from {want}")
        for conn in ("LM", "ML"):
            gap = ref.heart_gap(*z1, conn)
            if abs(gap) > 1e-6:
                problems.append(f"reference {conn} gap at C1 is {gap:+.2e}")
        pts = [np.array(c["points"], float) for c in bundle["curves"]]
        sym = max(hausdorff(-pts[0], pts[3]), hausdorff(-pts[1], pts[2]))
        if sym > 1e-4:
            problems.append(f"curves miss their inversion images by {sym:.2e}")
        worst = max(float(c["max_residual"]) for c in bundle["curves"])
        if worst > 1e-6:
            problems.append(f"curve residual {worst:.2e} above 1e-6")
        return problems


class Flashing:
    """Zeros of the k-turn LM gaps along a chord near the lower point."""

    name = "flashing"
    K_MAX = 2
    ops = K_MAX + 1
    CENTER = (0.422438, -0.452011)  # the scenario's search-arc center
    RADIUS = 0.02
    SAMPLES = 17
    XTOL = 2e-3

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.angles = (float(rng.uniform(117.5, 118.5)),
                       float(rng.uniform(131.5, 132.5)))

    def chord(self):
        cx, cy = self.CENTER
        return tuple((cx + self.RADIUS * math.cos(math.radians(a)),
                      cy + self.RADIUS * math.sin(math.radians(a)))
                     for a in self.angles)

    def setup(self):
        scn = dg.scenario("heart")
        _compile_first_field(scn.system, scn.base_params)

    def run(self):
        scn = dg.scenario("heart")
        return ct.flashing_series(
            scn.system, dg.winding_gap_function(scn, "LM_low"), self.chord(),
            k_max=self.K_MAX, samples=self.SAMPLES, xtol=self.XTOL)

    def failed(self, series):
        return self.ops - len(series.zeros)

    def check(self, series):
        problems = []
        ks = series.k_found
        if ks != list(range(len(ks))):
            problems.append(f"zeros found for k = {ks}")
        ts = [float(t) for _, t, _, _ in series.zeros]
        if any(b <= a for a, b in zip(ts, ts[1:])):
            problems.append(f"zeros not strictly ordered along the chord: {ts}")
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        if any(g1 >= g0 for g0, g1 in zip(gaps, gaps[1:])):
            problems.append(f"zero spacing does not shrink: {gaps}")
        bad = [k for k, _, _, r in series.zeros if not math.isfinite(r)]
        if bad:
            problems.append(f"no gap value at the zeros for k = {bad}")
        return problems


class Cycles:
    """Flow cycle counts on a ring around the ``mono_first`` contour point,
    and model-map fixed-point counts and fold curves."""

    name = "cycles"
    RADIUS = 2e-3
    # angles (degrees) at which P_L and P_M cross the ring, located with
    # diagrams.find_curve_start on the scenario's own search arcs
    P_L, P_M = 176.75, 270.12
    # ring angles keep clear of both crossings; near P_M the cycle lies too
    # close to the loop of M for the 14-sample counting window to resolve
    CLEAR_L, CLEAR_M = 3.0, 15.0
    N_INSIDE, N_OUTSIDE = 6, 10
    MAPS = [(2.0, 3.0, MONO), (0.5, 3.0, MONO), (0.5, 0.5, MONO),
            (0.5, 0.5, NON_MONO), (2 / 3, 2.0, MONO)]
    GRID = 16
    # grid points this close (in beta1) to a double-fixed-point locus are
    # left out: fixed_point_count misses the pair of fixed points there
    FOLD_CLEAR = 1e-3
    FOLD_MAP = (2 / 3, 2.0, MONO)
    NO_FOLD_MAP = (2.0, 2.0, MONO)
    FOLD_BOX = ((-0.12, 0.12), (-0.12, 0.12))
    FOLD_N = 61
    XI_MAX, MAP_SAMPLES = 5.0, 600

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        inside = rng.uniform(self.P_L + self.CLEAR_L, self.P_M - self.CLEAR_M,
                             self.N_INSIDE)
        outside = rng.uniform(self.P_M + self.CLEAR_M,
                              self.P_L - self.CLEAR_L + 360.0,
                              self.N_OUTSIDE) % 360.0
        self.angles = sorted(float(a) for a in np.concatenate([inside,
                                                               outside]))
        base = np.linspace(-0.3, 0.3, self.GRID)
        half = 0.5 * (base[1] - base[0])
        self.grids = []
        for lam, mu, ori in self.MAPS:
            b1s = base + rng.uniform(-half, half)
            b2s = base + rng.uniform(-half, half)
            self.grids.append([
                (b1, b2) for b2 in b2s
                for folds in [ref.map_fold_b1(lam, mu, ori.value, b2)]
                for b1 in b1s
                if all(abs(b1 - f) > self.FOLD_CLEAR for f in folds)])
        self.ops = (len(self.angles) + sum(len(g) for g in self.grids) + 2)

    def expected_count(self, angle):
        return int(self.P_L < angle < self.P_M)

    def setup(self):
        scn = dg.scenario("mono_first")
        _compile_first_field(scn.system, scn.base_params)

    def run(self):
        scn = dg.scenario("mono_first")
        counts = []
        for a in self.angles:
            th = math.radians(a)
            try:
                counts.append(dg.flow_cycle_count(
                    scn, (self.RADIUS * math.cos(th),
                          self.RADIUS * math.sin(th))))
            except HetContourError:
                counts.append(None)
        map_counts = []
        for (lam, mu, ori), grid in zip(self.MAPS, self.grids):
            m = mm.ModelMap(lam, mu, orientation=ori)
            map_counts.append([
                mm.fixed_point_count(m.at(b1, b2), xi_max=self.XI_MAX,
                                     samples=self.MAP_SAMPLES)
                for b1, b2 in grid])
        folds = {}
        for key in (self.FOLD_MAP, self.NO_FOLD_MAP):
            lam, mu, ori = key
            curves = mm.bifurcation_set(mm.ModelMap(lam, mu, orientation=ori),
                                        self.FOLD_BOX, n=self.FOLD_N,
                                        k_max=0)
            folds[key] = [c.points for c in curves
                          if c.tag is ct.CurveTag.F]
        return counts, map_counts, folds

    def failed(self, result):
        return sum(c is None for c in result[0])

    def check(self, result):
        counts, map_counts, folds = result
        problems = []
        for a, c in zip(self.angles, counts):
            if c is not None and c != self.expected_count(a):
                problems.append(f"{c} cycles at {a:.2f} deg, expected "
                                f"{self.expected_count(a)}")
        for (lam, mu, ori), grid, got in zip(self.MAPS, self.grids,
                                             map_counts):
            want = [ref.map_fixed_point_count(lam, mu, ori.value, b1, b2,
                                              xi_max=self.XI_MAX)
                    for b1, b2 in grid]
            bad = sum(g != w for g, w in zip(got, want))
            if bad:
                problems.append(f"{bad} model-map counts differ from brute "
                                f"force for lam={lam}, mu={mu}, {ori.name}")
        lam, mu, ori = self.FOLD_MAP
        if not folds[self.FOLD_MAP]:
            problems.append(f"no fold curve for lam={lam}, mu={mu}")
        for pts in folds[self.FOLD_MAP]:
            # probe close to the curve: for beta2 > 0 one fold branch runs
            # within 3e-4 of P_L, where the count changes by one
            b1, b2 = pts[len(pts) // 2]
            left, right = (ref.map_fixed_point_count(lam, mu, ori.value,
                                                     b1 + d, b2)
                           for d in (-1e-4, 1e-4))
            if abs(left - right) != 2:
                problems.append(f"count goes {left} -> {right} across the "
                                f"fold at ({b1:.4f}, {b2:.4f})")
        if folds[self.NO_FOLD_MAP]:
            problems.append("a fold curve for lam = mu = 2")
        return problems


def make(name, seed, scratch):
    if name == "heart":
        return Heart(seed, scratch)
    return {"reversible": Reversible, "flashing": Flashing,
            "cycles": Cycles}[name](seed)
