"""Tests of the benchmark itself.

Each workload check accepts a right result and rejects a deliberately wrong
one; two traced runs of the same work give identical per-layer counts; the
metric names match BENCHMARK.json; and the runner refuses to run without
the package source.  Run from the repository root:

    python3 -m pytest -q perfbench
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import layertrace  # noqa: E402
import reference as ref  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from hetcontour import continuation as ct  # noqa: E402
from hetcontour import diagrams as dg  # noqa: E402
from hetcontour import integrate as hi  # noqa: E402
from hetcontour import modelmap as mm  # noqa: E402
from hetcontour import vectorfield as vf  # noqa: E402

# the zero of the reference splitting of revers_gamma, to 1e-5
GAMMA0 = 2.53135


# -- reversible ------------------------------------------------------------


def test_reversible_accepts_the_contour_value():
    assert wl.Reversible(1).check(GAMMA0) == []


@pytest.mark.parametrize("gamma0", [GAMMA0 + 2e-3, GAMMA0 + 1.05e-3])
def test_reversible_rejects_a_shifted_value(gamma0):
    # the second value is within 1e-3 of the paper's 2.5315, so only the
    # reference shooter can reject it
    assert wl.Reversible(1).check(gamma0)


# -- heart -----------------------------------------------------------------

# diagram.json of `hetcontour diagram --scenario heart --kmax 0
# --max-points 2`, reduced to the fields the check reads
HEART_BUNDLE = {
    "codim2": [
        {"location": ["0.42243799625873174", "-0.452010899229828"],
         "lambda": "1.017544892618414", "mu": "1.267411178716201"},
        {"location": ["-0.4224379964287573", "0.45201089946838663"],
         "lambda": "0.9827576229948568", "mu": "0.7890099256751144"},
    ],
    "curves": [
        {"tag": "H_L", "max_residual": "2.6e-07", "points": [
            ["0.41270834169334647", "-0.4351117745602409"],
            ["0.41245767812975576", "-0.4346791456454791"],
            ["0.41220701456616504", "-0.4342465167307173"]]},
        {"tag": "H_M", "max_residual": "8.1e-08", "points": [
            ["0.40583028596227744", "-0.4417917040107989"],
            ["0.40540557889402073", "-0.44152784058746636"],
            ["0.40498087182576403", "-0.4412639771641338"]]},
        {"tag": "H_L", "max_residual": "2.1e-07", "points": [
            ["-0.40498087185200266", "0.44126397712236615"],
            ["-0.4054055788633487", "0.44152784063730044"],
            ["-0.4058302858746948", "0.44179170415223473"]]},
        {"tag": "H_M", "max_residual": "3.4e-08", "points": [
            ["-0.41220701473890353", "0.4342465166308288"],
            ["-0.4124576781846918", "0.4346791456138449"],
            ["-0.4127083416304801", "0.435111774596861"]]},
    ],
    "failures": {},
}


def _heart(mutate=None):
    bundle = json.loads(json.dumps(HEART_BUNDLE))
    if mutate is not None:
        mutate(bundle)
    return wl.Heart(1, None).check((0, bundle))


def _move_c1(dx):
    """Move C1 by dx in alpha and C2 by -dx, so C2 = -C1 still holds."""
    def mutate(bundle):
        c1, c2 = bundle["codim2"]
        c1["location"][0] = repr(float(c1["location"][0]) + dx)
        c2["location"][0] = repr(float(c2["location"][0]) - dx)
    return mutate


def test_heart_accepts_the_diagram():
    assert _heart() == []


def test_heart_rejects_c2_not_minus_c1():
    def mutate(b):
        b["codim2"][1]["location"][0] = repr(-0.42243799625873174 + 1e-5)
    assert _heart(mutate)


def test_heart_rejects_c1_off_the_paper_value():
    assert _heart(_move_c1(2e-3))


def test_heart_rejects_c1_where_the_reference_gaps_do_not_vanish():
    # 1e-5 off is within 1e-3 of the paper, and C2 = -C1 still holds
    problems = _heart(_move_c1(1e-5))
    assert any("gap" in p for p in problems)


def test_heart_rejects_indices_that_are_not_reciprocal():
    def mutate(b):
        b["codim2"][1]["lambda"] = b["codim2"][0]["lambda"]
    assert _heart(mutate)


def test_heart_rejects_curves_that_are_not_inversion_images():
    def mutate(b):
        b["curves"][3]["points"][1][0] = "-0.4123"
    assert _heart(mutate)


def test_heart_counts_reported_failures():
    bundle = dict(HEART_BUNDLE, failures={"H_L[0]@LM_low": "BracketError"})
    assert wl.Heart(1, None).failed((2, bundle)) == 1
    assert wl.Heart(1, None).failed((1, None)) == wl.Heart.ops


# -- flashing --------------------------------------------------------------


def _series(ts, ks=(0, 1, 2), residual=1e-6):
    return ct.FlashingSeries([(k, t, np.zeros(2), residual)
                              for k, t in zip(ks, ts)])


def test_flashing_accepts_an_accumulating_series():
    assert wl.Flashing(1).check(_series([0.13, 0.81, 0.90])) == []


@pytest.mark.parametrize("series", [
    _series([0.13, 0.90, 0.81]),                 # out of order
    _series([0.13, 0.50, 0.87]),                 # spacing does not shrink
    _series([0.13, 0.81, 0.90], ks=(0, 2, 1)),   # k out of order
    _series([0.13, 0.81, 0.90], residual=math.nan),
])
def test_flashing_rejects_a_wrong_series(series):
    assert wl.Flashing(1).check(series)


def test_flashing_counts_a_missing_zero_as_failed():
    assert wl.Flashing(1).failed(_series([0.13, 0.81], ks=(0, 1))) == 1


# -- cycles ----------------------------------------------------------------


@pytest.fixture(scope="module")
def cycles_case():
    c = wl.Cycles(1)
    counts = [c.expected_count(a) for a in c.angles]
    map_counts = [[ref.map_fixed_point_count(lam, mu, ori.value, b1, b2)
                   for b1, b2 in grid]
                  for (lam, mu, ori), grid in zip(c.MAPS, c.grids)]
    folds = {}
    for key in (c.FOLD_MAP, c.NO_FOLD_MAP):
        lam, mu, ori = key
        folds[key] = [cv.points for cv in mm.bifurcation_set(
            mm.ModelMap(lam, mu, orientation=ori), c.FOLD_BOX, n=c.FOLD_N,
            k_max=0) if cv.tag is ct.CurveTag.F]
    return c, (counts, map_counts, folds)


def test_cycles_accepts_the_expected_counts(cycles_case):
    c, result = cycles_case
    assert c.check(result) == []


def _off_by_one_ring(result):
    counts, map_counts, folds = result
    return [counts[0] + 1] + counts[1:], map_counts, folds


def _off_by_one_map(result):
    counts, map_counts, folds = result
    return counts, [[map_counts[0][0] + 1] + map_counts[0][1:]] \
        + map_counts[1:], folds


def _no_fold(result):
    counts, map_counts, folds = result
    return counts, map_counts, {k: [] for k in folds}


def _fold_for_equal_indices(result):
    counts, map_counts, folds = result
    key = wl.Cycles.FOLD_MAP
    return counts, map_counts, {k: folds[key] for k in folds}


@pytest.mark.parametrize("wrong", [_off_by_one_ring, _off_by_one_map,
                                   _no_fold, _fold_for_equal_indices])
def test_cycles_rejects_a_wrong_result(cycles_case, wrong):
    c, result = cycles_case
    assert c.check(wrong(result))


def test_cycles_ring_keeps_clear_of_the_homoclinic_curves():
    for seed in range(20):
        c = wl.Cycles(seed)
        for a in c.angles:
            assert abs(a - c.P_L) >= c.CLEAR_L
            assert abs(a - c.P_M) >= c.CLEAR_M


# -- inputs, tracing, metric names, bare checkout --------------------------


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_inputs_follow_the_seed(name):
    def inputs(seed):
        w = wl.make(name, seed, None)
        return repr({k: v for k, v in vars(w).items() if k != "scratch"})
    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def _small_work():
    cyc = wl.Cycles(1)
    cyc.angles = [225.0]
    cyc.grids = [g[:5] for g in cyc.grids]
    cyc.FOLD_N = 11
    cyc.run()
    scn = dg.scenario("heart")
    dg.gap_function(scn, "LM_low")(scn.system, (0.4224, -0.4520))
    ct.find_reversible_contour(vf.builtin("revers_gamma"), (2.53, 2.533),
                               xtol=1e-3)


def _traced_counts():
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        _small_work()
    finally:
        tracer.uninstall()
    values = layertrace.layer_metrics(tracer, 1.0, 1.0)
    return {name: values[name] for name, unit in layertrace.METRICS
            if unit != "s" and unit != "us"}


def test_traced_runs_repeat_their_counts():
    first = _traced_counts()
    assert first["integrate.calls"] > 0
    assert first["connections.splitting.calls"] == 1
    assert first["continuation.find_reversible_contour.gap_evals"] > 0
    assert first == _traced_counts()


def test_uninstall_restores_the_package():
    original = hi.integrate, vf.ParametricSystem.compiled_rhs
    tracer = layertrace.Tracer()
    tracer.install()
    assert hi.integrate is not original[0]
    tracer.uninstall()
    assert (hi.integrate, vf.ParametricSystem.compiled_rhs) == original


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] \
        == layertrace.METRICS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} \
        == {"wall_s", "setup_s", "peak_rss_mib"}


def test_runner_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cycles",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
