"""Named contour scenarios and two-parameter bifurcation diagram assembly.

A scenario bundles a built-in system with the geometry of its heteroclinic
contour: a `connections.ConnectionRecipe` for every connection of interest,
a guess of each codim-2 contour point, angle brackets that start the
homoclinic curves, and the interior focus; cycles are counted on the line
through it, up from where the L -> M branches cross it.  The model map is
not stored: `model_map_for` reads the saddle indices off the flow at the
first contour point, and the orientation off its two recipes' branch sides.

Every curve of the diagram starts at a contour point.  The H_L and H_M
curves of a codim-2 seed are continued from its located point, where both
gaps vanish; a homoclinic curve starts on a small arc about the first
point.  A gap is `connections.splitting` of a recipe at a point of the
scenario's two active parameters: `gap_function` reads its winding-0 gap,
`winding_gap_function` its row of k-turn gaps, and `gradient_function`
the winding-0 gap with its gradient (`connections.gap_gradient`), which
the contour point's Newton and every curve start take.  Curves are traced
with the pseudo-arclength tracer from `continuation`; fold-of-cycles
curves that are only resolvable at the model-map level are attached from
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
from . import manifolds as mf
from . import modelmap as mm
from . import vectorfield as vf
from .connections import ConnectionRecipe
from .errors import DomainError, HetContourError, NoIntersection, NotFound
from .roots import brent, sample, sign_changes

CIRCLE_XTOL = 1e-7
CYCLE_SAMPLES = 8             # starts sampled by flow_cycle_count
CYCLE_WINDOW = (1e-11, 0.9)   # their fractions of the way edge -> focus
CYCLE_TOL = (1e-9, 1e-9)      # integration tolerance of its return maps


@dataclass(frozen=True)
class CurveStart:
    """A homoclinic curve of the diagram: its start is the zero of its gap
    between two angles (degrees) on the arc of radius ``span / 8`` about
    the scenario's first contour point."""
    tag: ct.CurveTag
    recipe: str
    theta_bracket: tuple


@dataclass(frozen=True)
class Codim2Seed:
    """A guess of a contour point and the recipes whose gaps vanish there:
    the first runs L -> M and traces H_L, the second M -> L and H_M."""
    guess: tuple
    recipes: tuple


@dataclass(frozen=True)
class Scenario:
    name: str
    system: vf.ParametricSystem
    base_params: dict
    active: tuple                 # the two continued parameter names
    span: float                   # box half-width about a contour point
    curves: tuple = ()
    recipes: dict = field(default_factory=dict)
    codim2: tuple = ()
    focus_seed: tuple | None = None      # cycles' centre; None: no count
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


def winding_gap_function(scn, recipe_name):
    """(sys, point, k) -> the gaps at windings 0..k from one branch pair,
    NaN at a winding with no hit, for flashing scans."""
    recipe = scn.recipes[recipe_name]
    return lambda sys, point, k: cn.splitting(sys, _params_at(scn, point),
                                              recipe, k)


def gap_function(scn, recipe_name):
    """Scalar zero function (sys, point) -> gap of the direct connection;
    NoIntersection where the branch has no hit at winding 0."""
    row = winding_gap_function(scn, recipe_name)

    def gap(sys, point):
        g, = row(sys, point, 0)
        if math.isnan(g):
            raise NoIntersection("no section hit at winding 0")
        return g

    return gap


def gradient_function(scn, recipe_name):
    """(sys, point) -> (gap, gradient in the active parameters) of the
    direct connection, by `connections.gap_gradient`."""
    recipe = scn.recipes[recipe_name]
    return lambda sys, point: cn.gap_gradient(sys, _params_at(scn, point),
                                              recipe, scn.active)


def contour_point(scn, seed):
    """The seed's codim-2 contour point, by `continuation.find_codim2` on
    the gaps and gradients of its two recipes, with L and M the first
    recipe's saddles."""
    grads = [gradient_function(scn, name) for name in seed.recipes]
    recipe = scn.recipes[seed.recipes[0]]

    def pair(sys, z):
        (g1, j1), (g2, j2) = (g(sys, z) for g in grads)
        return (g1, g2), (j1, j2)

    return ct.find_codim2(scn.system, pair, seed.guess,
                          [recipe.source_seed, recipe.target_seed],
                          lambda z: _params_at(scn, z))


def find_curve_start(scn, start, center):
    """Zero of the start's gap on its arc about ``center``, by Brent's
    method in angle to within ``CIRCLE_XTOL`` degrees; BracketError when
    the gap has the same sign at both arc ends."""
    gap = gap_function(scn, start.recipe)
    (cx, cy_), r = center, scn.span / 8
    at = lambda deg: (cx + r * math.cos(math.radians(deg)),
                      cy_ + r * math.sin(math.radians(deg)))
    f = lambda theta: float(gap(scn.system, at(theta)))
    a, b = start.theta_bracket
    return at(brent(f, a, b, f(a), f(b), CIRCLE_XTOL)[0])


def assemble_diagram(scn, bounds=None, k_max=2, step=5e-4, step_max=2e-3,
                     max_points=40):
    """Trace every curve of the scenario; collect per-curve failures.

    Each seed's contour point is located once; its H_L and H_M curves are
    continued both ways from it, starting from its residuals and Jacobian
    rows, and each homoclinic curve from the sign change on its arc about
    the first point, starting from one `gradient_function` there.  A curve
    stays inside ``bounds``, by default its contour point +- ``scn.span``.
    With a ``model_box`` the model map's curves, read at the first point,
    are added; a failure to derive them is recorded under ``"model_map"``.
    A bad ``step``, ``max_points < 2`` or ``k_max < 0`` is DomainError.
    """
    ct.check_step(step)
    if max_points < 2 or k_max < 0:
        raise DomainError(f"need max_points >= 2 and k_max >= 0, got "
                          f"{max_points} and {k_max}")
    curves, codim2, failures = [], [], {}
    first = None                  # the first seed's contour point
    unlocated = f"scenario {scn.name} has no located first contour point"

    def trace(tag, recipe, point, start, row=None):
        try:
            if point is None:
                raise NotFound(unlocated)
            z0 = point.location
            box = bounds or tuple((c - scn.span, c + scn.span) for c in z0)
            if start is None:
                gap, grad = point.residuals[row], point.jacobian[row]
            else:
                z0 = find_curve_start(scn, start, z0)
                gap, grad = gradient_function(scn, recipe)(scn.system, z0)
            curves.append(ct.continue_curve(
                scn.system, gap_function(scn, recipe), z0, gap, grad, tag,
                step=step, step_max=step_max, bounds=box,
                max_points=max_points))
        except HetContourError as exc:
            failures[f"{tag.name}[0]@{recipe}"] = (
                f"{type(exc).__name__}: {exc}")

    for i, seed in enumerate(scn.codim2):
        try:
            point = contour_point(scn, seed)
        except HetContourError as exc:
            failures[f"codim2@{seed.guess}"] = f"{type(exc).__name__}: {exc}"
            continue
        codim2.append(point)
        first = point if i == 0 else first
        for row, (tag, recipe) in enumerate(zip(
                (ct.CurveTag.H_L, ct.CurveTag.H_M), seed.recipes)):
            trace(tag, recipe, point, None, row)
    for start in scn.curves:
        trace(start.tag, start.recipe, first, start)

    model_curves = []
    if scn.model_box is not None:
        try:
            if first is None:
                raise NotFound(unlocated)
            model_curves = model_bifurcation_set(scn, k_max, first)
        except HetContourError as exc:
            failures["model_map"] = f"{type(exc).__name__}: {exc}"

    return Diagram(scn.name, curves, model_curves, codim2, failures)


def model_map_for(scn, point):
    """The contour's model map at ``point``, the located contour point (a
    `Codim2Point`) of ``scn.codim2[0]``: lam is the index of its saddle L,
    mu is M's, and the orientation is `connections.monodromic` of that
    seed's two recipes."""
    L, M = point.saddle_L, point.saddle_M
    to_M, to_L = (scn.recipes[name] for name in scn.codim2[0].recipes)
    return mm.ModelMap(L.index, M.index, orientation=mm.Orientation(
        1 if cn.monodromic(L, M, to_M, to_L) else -1))


def model_bifurcation_set(scn, k_max, point):
    b1, b2 = scn.model_box
    return mm.bifurcation_set(model_map_for(scn, point),
                              ((-b1, b1), (-b2, b2)), k_max=k_max)


def flow_cycle_count(scn, point):
    """Number of limit cycles between the contour's edge and the focus.

    On the vertical line through the focus, the edge is the higher of the
    first hits below the focus of the two branches of ``scn.codim2[0]``'s
    L -> M recipe, grown as `splitting` grows them (NoIntersection if none
    is there).  Return displacements are sampled from ``CYCLE_SAMPLES``
    points edge + u (focus - edge), u log-spaced over ``CYCLE_WINDOW``.  A
    zero sample counts one cycle, so does each cell of strictly opposite
    end signs, and a sample whose orbit cannot return (it escapes, or a
    sink captures it) brackets nothing.
    """
    if scn.focus_seed is None:
        raise NotFound(f"scenario {scn.name} has no focus to count about")
    sys, params = scn.system, _params_at(scn, point)
    focus, _ = eq.find_equilibrium(sys, params, scn.focus_seed)
    section = hi.CrossSection.at(tuple(focus), (1.0, 0.0))
    to_M = scn.recipes[scn.codim2[0].recipes[0]]
    L, M = eq.saddles_at(sys, params, (to_M.source_seed, to_M.target_seed))
    firsts = [section.coord(hits[0][2]) for hits in (
        cn.recipe_curve(sys, params, to_M, s, kind, section).event_hits
        for s, kind in ((L, mf.Kind.UNSTABLE), (M, mf.Kind.STABLE))) if hits]
    below = [c for c in firsts if c < 0]
    if not below:
        raise NoIntersection("no edge branch meets the focus line below it")
    xs = max(below) * (1 - np.geomspace(*CYCLE_WINDOW, CYCLE_SAMPLES))
    g = lambda x: cy.return_map(sys, params, section, x, tol=CYCLE_TOL) - x
    return len(sign_changes(sample(g, xs)))


def hausdorff(points_a, points_b):
    """Symmetric Hausdorff distance between two point sets."""
    a = np.asarray(points_a, float)
    b = np.asarray(points_b, float)
    d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _mono_scenario(name, c, span, curves, focus_seed, model_box=None,
                   notes=""):
    return Scenario(
        name=name,
        system=vf.builtin("mono_perturbed"),
        base_params={"c": c, "alpha": 0.0, "epsilon": 0.0},
        active=("alpha", "epsilon"),
        span=span,
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
        # the contour exists at alpha = epsilon = 0 by construction
        codim2=(Codim2Seed((0.0, 0.0), ("axis", "parabola")),),
        focus_seed=focus_seed,
        model_box=model_box,
        notes=notes,
    )


def _heart_scenario():
    return Scenario(
        name="heart",
        system=vf.builtin("diss_heart"),
        base_params={"gamma": 2.7, "alpha": 0.0, "epsilon": 0.0},
        active=("alpha", "epsilon"),
        span=0.16,
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
        codim2=(
            Codim2Seed((0.4, -0.45), ("LM_low", "ML_low")),
            Codim2Seed((-0.4, 0.45), ("LM_up", "ML_up")),
        ),
        notes="inversion-symmetric pair of codim-2 contour points at "
              "gamma=2.7; flashing connections wind around the saddle at "
              "the origin",
    )


def _mono_first():
    return _mono_scenario(
        "mono_first", 1.5, 0.016,
        curves=(
            CurveStart(ct.CurveTag.P_L, "loop_L", (170.0, 185.0)),
            CurveStart(ct.CurveTag.P_M, "loop_M", (262.0, 280.0)),
        ),
        focus_seed=(2 / 3, 1 / 9),
        notes="both saddle indices exceed 1: no fold-of-cycles curve",
    )


def _mono_second():
    return _mono_scenario(
        "mono_second", 0.5, 0.16,
        curves=(CurveStart(ct.CurveTag.P_M, "loop_M", (268.0, 273.0)),),
        model_box=(0.12, 0.12),
        focus_seed=(6 / 11, 1 / 11),
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
