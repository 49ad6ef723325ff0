"""End-to-end acceptance gate: one test per shipped guarantee.

Each test measures its own runtime, records a PASS/FAIL line (printed in
the terminal summary by conftest), and then asserts.  Tolerances are the
published ones; reference values come from independent derivations (exact
eigenvalue formulas, certified quadrature, brute-force counting oracles).
"""
import hashlib
import math
import time

import numpy as np
import pytest

from hetcontour import cli
from hetcontour import continuation as ct
from hetcontour import diagrams as dg
from hetcontour import equilibria as eq
from hetcontour import melnikov as ml
from hetcontour import modelmap as mm
from hetcontour import synthesis as sy
from hetcontour import vectorfield as vf
from hetcontour.continuation import CurveTag

from conftest import record_criterion


def test_criterion_01_saddle_index_table():
    t0 = time.perf_counter()
    sys_ = vf.builtin("mono_unperturbed")
    rows = []
    for c, lam_ref, mu_ref in ((1.5, 2.0, 2.0), (0.5, 2.0, 2.0 / 3.0)):
        params = sys_.full_params({"c": c})
        lam = eq.saddle_data(sys_, params, (0.0, 0.0)).index
        mu = eq.saddle_data(sys_, params, (1.0, 0.0)).index
        rows.append((c, lam, mu, lam_ref, mu_ref))
    err = max(max(abs(lam - lr), abs(mu - mr))
              for _, lam, mu, lr, mr in rows)
    prod_err = abs(rows[1][1] * rows[1][2] - 4.0 / 3.0)
    dt = time.perf_counter() - t0
    ok = err <= 1e-12 and prod_err <= 1e-12 and dt < 1.0
    record_criterion(1, ok,
                     f"index error {err:.1e}, lam*mu error {prod_err:.1e}, "
                     f"{dt:.2f}s (< 1 s)")
    assert ok


def test_criterion_02_melnikov_values():
    t0 = time.perf_counter()
    vals = {}
    certified = []
    for c in (0.5, 1.5):
        res = ml.melnikov_integral(
            ml.MelnikovProblem(c=c, connection=ml.Connection.PARABOLA))
        vals[c] = res.value
        res_ax = ml.melnikov_integral(
            ml.MelnikovProblem(c=c, connection=ml.Connection.X_AXIS))
        certified.append(res_ax.sign_certified_negative and res_ax.value < 0)
    err = max(abs(vals[0.5] + 0.0177888), abs(vals[1.5] + 0.0866532))
    dt = time.perf_counter() - t0
    ok = err <= 1e-5 and all(certified) and dt < 5.0
    record_criterion(2, ok,
                     f"parabola values {vals[0.5]:.7f}/{vals[1.5]:.7f} "
                     f"(err {err:.1e} <= 1e-5), axis certified negative: "
                     f"{all(certified)}, {dt:.2f}s (< 5 s)")
    assert ok


def test_criterion_03_reversible_contour():
    t0 = time.perf_counter()
    gamma0 = ct.find_reversible_contour(vf.builtin("revers_gamma"),
                                        (2.4, 2.6))
    err = abs(gamma0 - 2.5315)
    dt = time.perf_counter() - t0
    ok = err <= 1e-3 and dt < 30.0
    record_criterion(3, ok,
                     f"gamma0 = {gamma0:.7f} (err {err:.1e} <= 1e-3), "
                     f"{dt:.1f}s (< 30 s)")
    assert ok


def test_criterion_04_codim2_contour_points():
    t0 = time.perf_counter()
    scn = dg.scenario("heart")
    points = []
    for seed in scn.codim2:
        recipe = scn.recipes[seed.recipes[0]]
        points.append(ct.find_codim2(
            scn.system, dg.residual_pair_function(scn, seed), seed.guess,
            [recipe.source_seed, recipe.target_seed],
            lambda z: dg._params_at(scn, z)))
    c1, c2 = points
    c1_err = max(abs(c1.location[0] - 0.422432),
                 abs(c1.location[1] + 0.452007))
    c2_err = max(abs(c2.location[0] + c1.location[0]),
                 abs(c2.location[1] + c1.location[1]))
    m_err = max(abs(c1.saddle_M.location[0] + 0.57039),
                abs(c1.saddle_M.location[1] + 2.6009))
    idx_err = max(abs(c1.saddle_L.index - 1.0175),
                  abs(c1.saddle_M.index - 1.2674))
    dt = time.perf_counter() - t0
    ok = max(c1_err, c2_err, m_err, idx_err) <= 1e-3 and dt < 120.0
    record_criterion(4, ok,
                     f"C1 = ({c1.location[0]:.6f}, {c1.location[1]:.6f}), "
                     f"C2 = -C1 to {c2_err:.1e}, saddle M to {m_err:.1e}, "
                     f"indices to {idx_err:.1e} (all <= 1e-3), "
                     f"{dt:.1f}s (< 2 min)")
    assert ok


def test_criterion_05_exact_invariance_and_family():
    t0 = time.perf_counter()
    fam = sy.solve_family(sy.Variety.from_string("y*(y - x*(1-x))"), 2,
                          parameter_names=("a", "b", "c"),
                          free_symbols=("a10", "a01", "a11"))
    from fractions import Fraction
    rem = sy.tangency_residual(fam.variety, fam.field.x_terms,
                               fam.field.y_terms,
                               {"a": Fraction(1), "b": Fraction(-3),
                                "c": Fraction(3, 2)})
    ref = vf.builtin("mono_unperturbed").to_dict()
    got = fam.field.to_dict()
    norm = lambda d: {(t["px"], t["py"]): t["coeff"].replace(" ", "")
                      for t in d}
    identical = (norm(got["x_dot"]) == norm(ref["x_dot"])
                 and norm(got["y_dot"]) == norm(ref["y_dot"]))
    dt = time.perf_counter() - t0
    ok = rem == {} and identical and dt < 1.0
    record_criterion(5, ok,
                     f"tangency remainder exactly zero: {rem == {}}, "
                     f"family coefficient-identical: {identical}, "
                     f"{dt:.2f}s (< 1 s)")
    assert ok


def _curves_by_tag(diagram):
    out = {}
    for c in diagram.curves:
        out.setdefault(c.tag, []).append(c)
    return out


def test_criterion_06_diagram_topologies():
    t0 = time.perf_counter()
    checks = {}

    # (a) first monodromic subcase: all four curves through the origin, no F
    first = dg.scenario("mono_first")
    d1 = dg.assemble_diagram(first, k_max=0, step=4e-4, max_points=20)
    by_tag = _curves_by_tag(d1)
    dists = {t: min(np.linalg.norm(c.points, axis=1).min()
                    for c in by_tag[t])
             for t in (CurveTag.P_L, CurveTag.P_M,
                       CurveTag.H_L, CurveTag.H_M) if t in by_tag}
    checks["a_curves"] = bool(len(dists) == 4
                              and max(dists.values()) <= 2e-3)
    checks["a_no_fold"] = (CurveTag.F not in by_tag
                           and not mm.has_fold_curve(dg.model_map_for(first)))

    # (b) second monodromic subcase: F exists and bounds a two-cycle region
    second = dg.scenario("mono_second")
    d2 = dg.assemble_diagram(second, k_max=0, step=4e-4, max_points=20)
    f_curves = [c for c in d2.model_curves if c.tag is CurveTag.F]
    checks["b_fold_exists"] = bool(f_curves)
    m2 = dg.model_map_for(second)
    jump_two = False
    for c in f_curves:
        b1, b2 = c.points[len(c.points) // 2]
        inside = mm.fixed_point_count(m2.at(b1 - 3e-3, b2), xi_max=5.0)
        outside = mm.fixed_point_count(m2.at(b1 + 3e-3, b2), xi_max=5.0)
        if {inside, outside} == {2, 0}:
            jump_two = True
    checks["b_two_cycles"] = jump_two

    # (c) dissipative pair: the diagram maps onto itself under inversion
    heart = dg.scenario("heart")
    d3 = dg.assemble_diagram(heart, k_max=0, step=1.5e-3, step_max=3e-3,
                             max_points=15)
    checks["c_complete"] = not d3.failures and len(d3.curves) == 4
    sym = math.inf
    if checks["c_complete"]:
        low_HL, low_HM, up_HL, up_HM = d3.curves
        sym = max(dg.hausdorff(-low_HL.points, up_HM.points),
                  dg.hausdorff(-low_HM.points, up_HL.points))
    checks["c_symmetric"] = sym <= 1e-4

    # (d) cycle counts: +1 across each homoclinic curve into the wedge
    counts = []
    for theta in (170.0, 225.0, 280.0):
        th = math.radians(theta)
        counts.append(dg.flow_cycle_count(
            first, (2e-3 * math.cos(th), 2e-3 * math.sin(th))))
    checks["d_wedge_counts"] = counts == [0, 1, 0]

    dt = time.perf_counter() - t0
    ok = all(checks.values()) and dt < 600.0
    record_criterion(6, ok,
                     f"{checks}, symmetry mismatch {sym:.1e} (<= 1e-4), "
                     f"wedge counts {counts}, {dt:.0f}s (< 10 min)")
    assert ok, checks


def test_criterion_07_flashing_series():
    t0 = time.perf_counter()

    # map level: lambda = mu = 1/2, non-monodromic, wedge-crossing segment
    m = mm.ModelMap(0.5, 0.5, orientation=mm.Orientation.NON_MONODROMIC)
    map_zeros = mm.flashing_series_map(
        m, ((-0.01, 0.25), (0.068, 0.25)), k_max=5)
    map_ts = [t for _, t, _ in map_zeros]
    map_gaps = [t1 - t0_ for t0_, t1 in zip(map_ts, map_ts[1:])]
    map_ok = ([k for k, _, _ in map_zeros][:3] == [0, 1, 2]
              and all(a < b for a, b in zip(map_ts, map_ts[1:]))
              and all(g1 < g0 for g0, g1 in zip(map_gaps, map_gaps[1:])))

    # flow level: chord across the wedge near the lower contour point
    scn = dg.scenario("heart")
    c1 = (0.422438, -0.452011)
    at = lambda deg: (c1[0] + 0.02 * math.cos(math.radians(deg)),
                      c1[1] + 0.02 * math.sin(math.radians(deg)))
    series = ct.flashing_series(scn.system,
                                dg.winding_gap_function(scn, "LM_low"),
                                (at(116.0), at(135.0)), k_max=2)
    ode_ts = [t for _, t, _, _ in series.zeros]
    ode_gaps = [t1 - t0_ for t0_, t1 in zip(ode_ts, ode_ts[1:])]
    ode_ok = (series.k_found == [0, 1, 2]
              and all(a < b for a, b in zip(ode_ts, ode_ts[1:]))
              and all(g1 < g0 for g0, g1 in zip(ode_gaps, ode_gaps[1:])))

    dt = time.perf_counter() - t0
    ok = map_ok and ode_ok and dt < 300.0
    record_criterion(7, ok,
                     f"map zeros k={[k for k, _, _ in map_zeros]} at "
                     f"t={[round(t, 4) for t in map_ts]}, flow zeros "
                     f"k={series.k_found} at "
                     f"t={[round(float(t), 4) for t in ode_ts]}, gaps strictly "
                     f"decreasing both levels, {dt:.0f}s (< 5 min)")
    assert ok


def _oracle_count(lam, mu, sign, b1, b2, xi_max=5.0, n=3000):
    """Brute-force fixed-point count from the raw map formula.

    Independent of the package implementation: direct sampling of
    P(x) - x with geometric refinement toward both domain edges (roots
    hug an edge quadratically when an index is below one).
    """
    if sign > 0:
        lo = 0.0 if b2 >= 0 else (-b2) ** (1.0 / lam)
        hi = xi_max
    else:
        if b2 < 0:
            return 0
        lo = 0.0
        hi = min(xi_max, b2 ** (1.0 / lam))
    if lo >= hi:
        return 0
    span = hi - lo
    xs = np.unique(np.concatenate([lo + np.geomspace(1e-15, span, n),
                                   hi - np.geomspace(1e-15, span, n)]))
    xs = xs[(xs > 0) & (xs > lo) & (xs < hi)]
    base = b2 + sign * xs ** lam
    with np.errstate(invalid="ignore"):
        g = np.where(base >= 0, b1 + sign * np.abs(base) ** mu, np.nan) - xs
    v0, v1 = g[:-1], g[1:]
    with np.errstate(invalid="ignore"):
        return int(np.count_nonzero(v0 * v1 < 0)
                   + np.count_nonzero(g == 0.0))


def test_criterion_08_model_map_oracle_equivalence():
    t0 = time.perf_counter()
    configs = [(2.0, 3.0, mm.Orientation.MONODROMIC),
               (0.5, 3.0, mm.Orientation.MONODROMIC),
               (0.5, 0.5, mm.Orientation.MONODROMIC),
               (0.5, 0.5, mm.Orientation.NON_MONODROMIC)]
    grid = np.linspace(-0.3, 0.3, 100)
    mismatches = 0
    for lam, mu, ori in configs:
        m0 = mm.ModelMap(lam, mu, orientation=ori)
        for b1 in grid:
            for b2 in grid:
                got = mm.fixed_point_count(m0.at(b1, b2), xi_max=5.0)
                want = _oracle_count(lam, mu, m0.sign, b1, b2)
                if got != want:
                    mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 30.0
    record_criterion(8, ok,
                     f"{mismatches} mismatches on 4 x 100x100 grids, "
                     f"{dt:.1f}s (< 30 s)")
    assert ok


def test_criterion_09_melnikov_splitting_consistency():
    t0 = time.perf_counter()
    scn = dg.scenario("mono_first")
    h = 1e-4
    deriv = {}
    for name in ("axis", "parabola"):
        g = dg.gap_function(scn, name)
        deriv[name, "alpha"] = (g(scn.system, (h, 0.0))
                                - g(scn.system, (-h, 0.0))) / (2 * h)
        deriv[name, "epsilon"] = (g(scn.system, (0.0, h))
                                  - g(scn.system, (0.0, -h))) / (2 * h)
    null_err = max(abs(deriv["axis", "epsilon"]),
                   abs(deriv["parabola", "alpha"]))
    mel_axis = ml.melnikov_integral(
        ml.MelnikovProblem(connection=ml.Connection.X_AXIS)).value
    mel_par = ml.melnikov_integral(
        ml.MelnikovProblem(connection=ml.Connection.PARABOLA)).value
    signs_ok = (deriv["axis", "alpha"] < 0 and mel_axis < 0
                and deriv["parabola", "epsilon"] < 0 and mel_par < 0)
    dt = time.perf_counter() - t0
    ok = null_err <= 1e-8 and signs_ok and dt < 60.0
    record_criterion(9, ok,
                     f"non-affecting derivatives {null_err:.1e} (<= 1e-8), "
                     f"affecting pairs negative matching integrals "
                     f"({deriv['axis', 'alpha']:.3f} vs {mel_axis:.3f}, "
                     f"{deriv['parabola', 'epsilon']:.3f} vs {mel_par:.3f}), "
                     f"{dt:.1f}s (< 1 min)")
    assert ok


def test_criterion_10_deterministic_artifacts(tmp_path):
    t0 = time.perf_counter()
    runs = [["melnikov", "--case", "parabola", "--c", "3/2"],
            ["modelmap", "--orientation", "monodromic",
             "--lambda", "2", "--mu", "3", "--kmax", "1", "--n", "31"]]
    digests = []
    for attempt in ("first", "second"):
        d = tmp_path / attempt
        for i, argv in enumerate(runs):
            out = d / str(i)
            code = cli.main(argv + ["--out", str(out), "--format", "all"])
            assert code == cli.EXIT_OK
        files = sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file())
        digests.append([(str(p), hashlib.sha256((d / p).read_bytes())
                         .hexdigest()) for p in files])
    identical = digests[0] == digests[1]
    dt = time.perf_counter() - t0
    ok = identical and len(digests[0]) >= 4
    record_criterion(10, ok,
                     f"{len(digests[0])} artifacts hash-identical across "
                     f"repeated runs: {identical}, {dt:.1f}s")
    assert ok
