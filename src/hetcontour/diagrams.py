"""Named contour scenarios and two-parameter bifurcation diagram assembly.

A scenario bundles a built-in system with the geometry of its heteroclinic
contour: saddle seeds, cross-section base points, branch sides for every
connection of interest, starting arcs for curve tracing, and the location of
the interior focus used for cycle counting.  Its one-dimensional model map
is not stored: `model_map_for` reads the saddle indices and the orientation
off the flow at the contour point.

Curves are traced in the scenario's two active parameters with the
pseudo-arclength tracer from `continuation`; fold-of-cycles curves that are
only resolvable at the model-map level are attached from
`modelmap.bifurcation_set` in the model's (beta1, beta2) plane.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import connections as cn
from . import continuation as ct
from . import cycles as cy
from . import equilibria as eq
from . import integrate as hi
from . import modelmap as mm
from . import vectorfield as vf
from .errors import HetContourError, NotFound
from .roots import brent, sample, sign_changes

CIRCLE_XTOL = 1e-7
CYCLE_SAMPLES = 14            # heights sampled by flow_cycle_count
CYCLE_TOL = (1e-9, 1e-9)      # integration tolerance of its return maps


@dataclass(frozen=True)
class ConnectionRecipe:
    """How to measure one connection gap: seeds, section, branch sides."""
    source_seed: tuple
    target_seed: tuple
    section_base: tuple
    source_side: int
    target_side: int
    crossing_direction: int = 1
    time_cap: float = 500.0
    arclength_cap: float = 200.0


@dataclass(frozen=True)
class CurveStart:
    """A curve of the diagram: tag, recipe, and a search arc for its start."""
    tag: ct.CurveTag
    recipe: str
    radius: float
    theta_bracket: tuple          # degrees, gap changes sign across the arc
    center: tuple = (0.0, 0.0)    # arc center in the active-parameter plane
    k: int = 0


@dataclass(frozen=True)
class Codim2Seed:
    guess: tuple
    recipes: tuple                # two recipe names whose gaps vanish jointly


@dataclass(frozen=True)
class Scenario:
    name: str
    system: vf.ParametricSystem
    base_params: dict
    active: tuple                 # the two continued parameter names
    curves: tuple = ()
    recipes: dict = field(default_factory=dict)
    codim2: tuple = ()
    focus_seed: tuple | None = None
    cycle_bracket: tuple | None = None   # (d_lo, d_hi) distances above the
                                         # lower contour edge, log-sampled
    model_box: tuple | None = None       # (beta1, beta2) half-widths
    notes: str = ""


@dataclass
class Diagram:
    scenario: str
    curves: list
    model_curves: list
    codim2: list
    failures: dict


def _params_at(scn, point):
    params = dict(scn.base_params)
    params[scn.active[0]] = float(point[0])
    params[scn.active[1]] = float(point[1])
    return params


def _build_spec(sys, params, recipe):
    p = sys.full_params(params)
    src = eq.saddle_data(sys, params,
                         eq.find_equilibrium(sys, params, recipe.source_seed)[0])
    tgt = eq.saddle_data(sys, params,
                         eq.find_equilibrium(sys, params, recipe.target_seed)[0])
    sec = hi.CrossSection.transverse_to_flow(sys, p, recipe.section_base)
    return src, tgt, sec


def _splitting_function(scn, recipe_name, every_winding, tol=(1e-10, 1e-10)):
    """(sys, point, k) -> ``cn.splitting`` of the k-turn connection."""
    recipe = scn.recipes[recipe_name]

    def split(sys, point, k):
        params = _params_at(scn, point)
        src, tgt, sec = _build_spec(sys, params, recipe)
        spec = cn.ConnectionSpec(src, tgt, sec, recipe.source_side,
                                 recipe.target_side, winding_count=k,
                                 crossing_direction=recipe.crossing_direction)
        return cn.splitting(sys, params, spec, tol=tol,
                            time_cap=recipe.time_cap,
                            arclength_cap=recipe.arclength_cap,
                            every_winding=every_winding)

    return split


def winding_gap_function(scn, recipe_name):
    """(sys, point, k) -> the gaps at windings 0..k from one branch pair,
    NaN at a winding with no hit, for flashing scans."""
    return _splitting_function(scn, recipe_name, True)


def gap_function(scn, recipe_name, k=0):
    """Scalar zero function (sys, point) -> gap of the k-turn connection;
    InsufficientWinding where the branch has no hit at winding k."""
    split = _splitting_function(scn, recipe_name, False)
    return lambda sys, point: split(sys, point, k).gap


def residual_pair_function(scn, seed):
    gaps = [gap_function(scn, name) for name in seed.recipes]
    return lambda sys, z: tuple(g(sys, z) for g in gaps)


def find_curve_start(scn, start):
    """Zero of the start's gap on its search arc, by Brent's method in angle
    to within ``CIRCLE_XTOL`` degrees; BracketError when the gap has the
    same sign at both arc ends."""
    gap = gap_function(scn, start.recipe, k=start.k)
    cx, cy_ = start.center
    r = start.radius

    def at(theta_deg):
        th = math.radians(theta_deg)
        return (cx + r * math.cos(th), cy_ + r * math.sin(th))

    f = lambda theta: float(gap(scn.system, at(theta)))
    a, b = start.theta_bracket
    return at(brent(f, a, b, f(a), f(b), CIRCLE_XTOL)[0])


def assemble_diagram(scn, bounds=None, k_max=2, step=5e-4, step_min=1e-6,
                     step_max=2e-3, max_points=40, residual_tol=1e-6):
    """Trace every curve of the scenario; collect per-curve failures.

    Each traced curve starts from a sign change on its search arc and is
    continued in both directions inside ``bounds``.  Scenarios with a
    ``model_box`` also get the model map's curves from
    ``model_bifurcation_set``; a failure to derive the map is recorded under
    ``"model_map"``.
    """
    curves, failures = [], {}
    for start in scn.curves:
        try:
            z0 = find_curve_start(scn, start)
            gap = gap_function(scn, start.recipe, k=start.k)
            box = bounds
            if box is None:
                r = 8 * start.radius
                box = ((start.center[0] - r, start.center[0] + r),
                       (start.center[1] - r, start.center[1] + r))
            curve = ct.continue_curve(scn.system, gap, z0, start.tag,
                                      k=start.k, step=step, step_min=step_min,
                                      step_max=step_max, bounds=box,
                                      max_points=max_points,
                                      residual_tol=residual_tol)
            curves.append(curve)
        except HetContourError as exc:
            failures[f"{start.tag.name}[{start.k}]@{start.recipe}"] = (
                f"{type(exc).__name__}: {exc}")

    codim2 = []
    for seed in scn.codim2:
        try:
            codim2.append(ct.find_codim2(
                scn.system, residual_pair_function(scn, seed), seed.guess,
                [scn.recipes[seed.recipes[0]].source_seed,
                 scn.recipes[seed.recipes[0]].target_seed],
                lambda z: _params_at(scn, z)))
        except HetContourError as exc:
            failures[f"codim2@{seed.guess}"] = f"{type(exc).__name__}: {exc}"

    model_curves = []
    if scn.model_box is not None:
        try:
            model_curves = model_bifurcation_set(scn, k_max=k_max)
        except HetContourError as exc:
            failures["model_map"] = f"{type(exc).__name__}: {exc}"

    return Diagram(scn.name, curves, model_curves, codim2, failures)


def model_map_for(scn):
    """The contour's model map, read from the flow at the contour point.

    The point is the center of the scenario's first H_L start, whose recipe
    runs L -> M: lam is L's saddle index, mu is M's, and the orientation is
    `connections.classify_contour`'s.
    """
    start = next((s for s in scn.curves if s.tag is ct.CurveTag.H_L), None)
    if start is None:
        raise NotFound(f"scenario {scn.name} has no H_L curve start")
    params = scn.system.full_params(_params_at(scn, start.center))
    L, M, _ = _build_spec(scn.system, params, scn.recipes[start.recipe])
    contour = cn.classify_contour(scn.system, params, L, M, probe=False)
    return mm.ModelMap(L.index, M.index, orientation=mm.Orientation(
        1 if contour.monodromic else -1))


def model_bifurcation_set(scn, k_max=2, n=101):
    b1, b2 = scn.model_box
    return mm.bifurcation_set(model_map_for(scn), ((-b1, b1), (-b2, b2)),
                              n=n, k_max=k_max)


def flow_cycle_count(scn, point):
    """Number of limit cycles crossing the scenario's counting window.

    The section runs through the interior focus; return displacements are
    sampled at ``CYCLE_SAMPLES`` log-spaced heights above the lower contour
    edge (cycles near a contour live at exponentially small heights).  A
    zero displacement sample counts one cycle, so does each cell of strictly
    opposite end signs, and a sample whose orbit cannot return (it escapes,
    or a sink captures it) brackets nothing.
    """
    if scn.focus_seed is None or scn.cycle_bracket is None:
        raise NotFound(f"scenario {scn.name} has no cycle-counting window")
    params = _params_at(scn, point)
    focus, _ = eq.find_equilibrium(scn.system, params, scn.focus_seed)
    section = hi.CrossSection.at(tuple(focus), (1.0, 0.0))
    d_lo, d_hi = scn.cycle_bracket
    xs = np.geomspace(d_lo, d_hi, CYCLE_SAMPLES) - focus[1]
    g = lambda x: cy.return_map(scn.system, params, section, x,
                                tol=CYCLE_TOL) - x
    return len(sign_changes(sample(g, xs)))


def hausdorff(points_a, points_b):
    """Symmetric Hausdorff distance between two point sets."""
    a = np.asarray(points_a, float)
    b = np.asarray(points_b, float)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _mono_scenario(name, c, curves, focus_seed, cycle_bracket,
                   model_box=None, notes=""):
    return Scenario(
        name=name,
        system=vf.builtin("mono_perturbed"),
        base_params={"c": c, "alpha": 0.0, "epsilon": 0.0},
        active=("alpha", "epsilon"),
        recipes={
            # axis connection L -> M, section on the invariant line
            "axis": ConnectionRecipe((0, 0), (1, 0), (0.5, 0.0), 1, -1,
                                     crossing_direction=0, time_cap=120,
                                     arclength_cap=60),
            # parabola connection M -> L
            "parabola": ConnectionRecipe((1, 0), (0, 0), (0.5, 0.25), -1, 1,
                                         crossing_direction=0, time_cap=120,
                                         arclength_cap=60),
            # homoclinic of L: unstable branch back to the parabola section
            "loop_L": ConnectionRecipe((0, 0), (0, 0), (0.5, 0.25), 1, 1,
                                       time_cap=120, arclength_cap=60),
            # homoclinic of M: unstable branch back to the axis section
            "loop_M": ConnectionRecipe((1, 0), (1, 0), (0.5, 0.0), -1, -1,
                                       time_cap=120, arclength_cap=60),
        },
        curves=curves,
        focus_seed=focus_seed,
        cycle_bracket=cycle_bracket,
        model_box=model_box,
        notes=notes,
    )


def _heart_scenario():
    return Scenario(
        name="heart",
        system=vf.builtin("diss_heart"),
        base_params={"gamma": 2.7, "alpha": 0.0, "epsilon": 0.0},
        active=("alpha", "epsilon"),
        recipes={
            # lower contour point: L -> M around the outer lobe, M -> L up
            # the left side; sections sit on the respective connections
            "LM_low": ConnectionRecipe((0, 0), (-0.57, -2.6), (0.0, -2.16),
                                       1, 1, time_cap=100,
                                       arclength_cap=100),
            "ML_low": ConnectionRecipe((-0.57, -2.6), (0, 0), (-0.35, 0.15),
                                       -1, -1, time_cap=100,
                                       arclength_cap=100),
            # upper contour point: the inversion image; saddle M mirrored,
            # connection routes mirrored through x -> -x with time reversal
            "LM_up": ConnectionRecipe((0, 0), (0.55, -2.6), (1.1, -1.9),
                                      1, 1, time_cap=100, arclength_cap=100),
            "ML_up": ConnectionRecipe((0.55, -2.6), (0, 0), (-0.8, 0.6),
                                      -1, -1, time_cap=100,
                                      arclength_cap=100),
        },
        curves=(
            CurveStart(ct.CurveTag.H_L, "LM_low", 0.02, (90.0, 130.0),
                       center=(0.422438, -0.452011)),
            CurveStart(ct.CurveTag.H_M, "ML_low", 0.02, (120.0, 150.0),
                       center=(0.422438, -0.452011)),
            CurveStart(ct.CurveTag.H_L, "LM_up", 0.02, (315.0, 345.0),
                       center=(-0.422438, 0.452011)),
            CurveStart(ct.CurveTag.H_M, "ML_up", 0.02, (280.0, 315.0),
                       center=(-0.422438, 0.452011)),
        ),
        codim2=(
            Codim2Seed((0.4, -0.45), ("LM_low", "ML_low")),
            Codim2Seed((-0.4, 0.45), ("LM_up", "ML_up")),
        ),
        notes="inversion-symmetric pair of codim-2 contour points at "
              "gamma=2.7; flashing connections wind around the saddle at "
              "the origin",
    )


def _mono_first():
    r = 2e-3
    return _mono_scenario(
        "mono_first", 1.5,
        curves=(
            CurveStart(ct.CurveTag.H_L, "axis", r, (45.0, 135.0)),
            CurveStart(ct.CurveTag.H_M, "parabola", r, (135.0, 225.0)),
            CurveStart(ct.CurveTag.P_L, "loop_L", r, (170.0, 185.0)),
            CurveStart(ct.CurveTag.P_M, "loop_M", r, (262.0, 280.0)),
        ),
        focus_seed=(2 / 3, 1 / 9),
        cycle_bracket=(1e-4, 0.1),
        notes="both saddle indices exceed 1: no fold-of-cycles curve",
    )


def _mono_second():
    return _mono_scenario(
        "mono_second", 0.5,
        curves=(
            CurveStart(ct.CurveTag.H_L, "axis", 0.02, (225.0, 315.0)),
            CurveStart(ct.CurveTag.H_M, "parabola", 0.02, (135.0, 225.0)),
            CurveStart(ct.CurveTag.P_M, "loop_M", 0.02, (268.0, 273.0)),
        ),
        model_box=(0.12, 0.12),
        focus_seed=(6 / 11, 1 / 11),
        cycle_bracket=(3e-6, 0.08),
        notes="saddle indices 2 and 2/3 straddle 1: the fold-of-cycles "
              "curve exists and is computed from the model map, and so is "
              "P_L: the flow's loop_L gap keeps its sign on circles of "
              "radius 0.02 and 0.005 about the contour point",
    )


# each name maps to its builder, so a scenario builds only its own system
_SCENARIOS = {
    "mono_first": _mono_first,
    "mono_second": _mono_second,
    "heart": _heart_scenario,
}


def scenario(name):
    if name not in _SCENARIOS:
        raise NotFound(f"unknown scenario {name!r}; have {scenario_names()}")
    return _SCENARIOS[name]()


def scenario_names():
    return sorted(_SCENARIOS)
