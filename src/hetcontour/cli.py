"""Command-line front end with reproducible CSV/JSON/SVG artifacts.

Every figure-producing command also writes the raw data it was drawn from,
plus a manifest of (path, type, sha-256) entries.  Runs are deterministic:
identical flags produce byte-identical artifacts.  SVG is written directly
(paths and markers, no plotting dependency); heteroclinic curves are drawn
green, homoclinic curves blue, the fold-of-cycles curve in a distinct red.

Exit codes: 0 success, 2 partial (some curves failed, run continued),
1 hard error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import diagrams as dg
from . import equilibria as eq
from . import integrate as hi
from . import manifolds as mf
from . import melnikov as mel
from . import modelmap as mm
from . import synthesis as sy
from . import vectorfield as vf
from .affine import parse_number
from .errors import HetContourError

EXIT_OK, EXIT_HARD, EXIT_PARTIAL = 0, 1, 2

HETEROCLINIC_COLOR = "#2ca02c"
HOMOCLINIC_COLOR = "#1f77b4"
FOLD_COLOR = "#d62728"
CURVE_COLORS = {
    "H_L": HETEROCLINIC_COLOR, "H_M": HETEROCLINIC_COLOR,
    "P_L": HOMOCLINIC_COLOR, "P_M": HOMOCLINIC_COLOR,
    "F": FOLD_COLOR,
}
SVG_SIZE = 640.0
SVG_MARGIN = 40.0


# -- artifact plumbing -----------------------------------------------------


class ArtifactWriter:
    """Collects artifacts under one directory and writes the manifest."""

    def __init__(self, out_dir, formats):
        self.dir = Path(out_dir) if out_dir is not None else None
        self.formats = formats
        self.entries = []
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)

    def wants(self, kind):
        return self.dir is not None and (self.formats == "all"
                                         or kind == self.formats)

    def write(self, name, kind, text):
        if not self.wants(kind):
            return
        data = text.encode()
        (self.dir / name).write_bytes(data)
        self.entries.append({"path": name, "type": kind,
                             "sha256": hashlib.sha256(data).hexdigest()})

    def finish(self):
        if self.dir is None or not self.entries:
            return
        entries = sorted(self.entries, key=lambda e: e["path"])
        data = json.dumps(entries, indent=2, sort_keys=True) + "\n"
        (self.dir / "manifest.json").write_text(data)


def _f(v):
    """Shortest round-trip decimal form of a float (deterministic)."""
    return repr(float(v))


def curves_csv(curves):
    """CSV of bifurcation curves: header (tag, k, param1, param2, residual)."""
    lines = ["tag,k,param1,param2,residual"]
    for c in curves:
        for (p1, p2), r in zip(c.points, c.residuals):
            lines.append(f"{c.tag.value},{c.k},{_f(p1)},{_f(p2)},{_f(r)}")
    return "\n".join(lines) + "\n"


def polylines_csv(named_polylines):
    """CSV of plain polylines: header (name, index, x, y)."""
    lines = ["name,index,x,y"]
    for name, pts in named_polylines:
        for i, (x, y) in enumerate(np.asarray(pts, float)):
            lines.append(f"{name},{i},{_f(x)},{_f(y)}")
    return "\n".join(lines) + "\n"


def svg_document(polylines, markers=()):
    """Standalone SVG: polylines as (points, color, dash), markers as
    (x, y, color)."""
    pts = [np.asarray(p, float) for p, _, _ in polylines if len(p)]
    pts += [np.array([[x, y]]) for x, y, _ in markers]
    if not pts:
        return ('<svg xmlns="http://www.w3.org/2000/svg" width="64" '
                'height="64"><!-- EmptyPlot --></svg>\n')
    allp = np.concatenate(pts)
    lo, hi = allp.min(axis=0), allp.max(axis=0)
    span = np.maximum(hi - lo, 1e-12)
    scale = (SVG_SIZE - 2 * SVG_MARGIN) / span.max()

    def to_px(p):
        x = SVG_MARGIN + (p[0] - lo[0]) * scale
        y = SVG_SIZE - SVG_MARGIN - (p[1] - lo[1]) * scale
        return f"{x:.2f},{y:.2f}"

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_SIZE:g}" '
             f'height="{SVG_SIZE:g}" viewBox="0 0 {SVG_SIZE:g} {SVG_SIZE:g}">']
    for p, color, dash in polylines:
        p = np.asarray(p, float)
        if len(p) == 0:
            continue
        d = "M" + "L".join(to_px(q) for q in p)
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"{extra}/>')
    for x, y, color in markers:
        px, py = to_px((x, y)).split(",")
        parts.append(f'<circle cx="{px}" cy="{py}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _curve_polyline(c, dash_for_model=False):
    color = CURVE_COLORS.get(c.tag.value, "#444444")
    dash = "6,3" if dash_for_model else ""
    return (c.points, color, dash)


# -- shared argument handling ----------------------------------------------


def _number(text, flag):
    """The float of a number argument such as ``2/3`` or ``5e-4``."""
    return float(parse_number(text, flag))


def _numbers(texts, flag):
    return [_number(t, flag) for t in texts]


def _parse_params(pairs):
    params = {}
    for item in pairs or ():
        if "=" not in item:
            raise SystemExit(f"--params expects k=v, got {item!r}")
        k, v = item.split("=", 1)
        params[k] = _number(v, f"--params {k}")
    return params


def _system_from_arg(name):
    if name in vf.BUILTIN_NAMES:
        return vf.builtin(name)
    return vf.load(name)            # treat as a path to a JSON system file


def _add_output(p):
    p.add_argument("--out", default=None, help="artifact output directory")
    p.add_argument("--format", choices=("csv", "json", "svg", "all"),
                   default="all")


# -- subcommands -----------------------------------------------------------


def cmd_portrait(args):
    system = _system_from_arg(args.system)
    params = system.full_params(_parse_params(args.params))
    xmin, xmax, ymin, ymax = _numbers(args.region, "--region")
    seeds = [_numbers(s, "--seeds") for s in args.seeds]
    t_end = _number(args.time, "--time")
    tol = (_number(args.tol_abs, "--tol-abs"),
           _number(args.tol_rel, "--tol-rel"))
    rng = np.random.RandomState(args.seed)
    diag = float(np.hypot(xmax - xmin, ymax - ymin))

    # equilibria: Newton from a jittered grid of guesses, deduplicated
    found = []
    for gx in np.linspace(xmin, xmax, 8):
        for gy in np.linspace(ymin, ymax, 8):
            guess = (gx + 0.01 * diag * rng.uniform(-1, 1),
                     gy + 0.01 * diag * rng.uniform(-1, 1))
            try:
                loc, kind = eq.find_equilibrium(system, params, guess)
            except HetContourError:
                continue
            if not (xmin <= loc[0] <= xmax and ymin <= loc[1] <= ymax):
                continue
            if any(np.hypot(loc[0] - f[0], loc[1] - f[1]) < 1e-6
                   for f, _ in found):
                continue
            found.append((loc, kind))
    found.sort(key=lambda fc: (round(fc[0][0], 9), round(fc[0][1], 9)))

    polylines, names = [], []
    for loc, kind in found:
        if kind is not eq.EquilibriumType.SADDLE:
            continue
        sad = eq.saddle_data(system, params, loc)
        for mkind in (mf.Kind.UNSTABLE, mf.Kind.STABLE):
            for side in (1, -1):
                br = mf.grow_branch(system, params, sad, mkind, side,
                                    arclength_cap=2 * diag, tol=tol,
                                    time_cap=100.0)
                color = (FOLD_COLOR if mkind is mf.Kind.UNSTABLE
                         else HOMOCLINIC_COLOR)
                polylines.append((br.points, color, ""))
                names.append((f"manifold_{mkind.value}_{_f(loc[0])}_"
                              f"{_f(loc[1])}_{side}", br.points))
    for i, seed_pt in enumerate(seeds):
        traj = hi.integrate(system, params, seed_pt, (0.0, t_end), tol=tol)
        polylines.append((traj.xy, "#888888", ""))
        names.append((f"trajectory_{i}", traj.xy))

    markers = [(loc[0], loc[1],
                "#000000" if kind is eq.EquilibriumType.SADDLE else "#666666")
               for loc, kind in found]
    if not polylines and not markers:
        print("warning: EmptyPlot (no equilibria or trajectories in region)")

    w = ArtifactWriter(args.out, args.format)
    w.write("portrait.csv", "csv", polylines_csv(names))
    w.write("portrait.svg", "svg", svg_document(polylines, markers))
    w.write("portrait.json", "json", json.dumps({
        "system": system.name,
        "params": {k: _f(v) for k, v in sorted(params.items())},
        "equilibria": [{"location": [_f(loc[0]), _f(loc[1])],
                        "type": kind.value} for loc, kind in found],
    }, indent=2, sort_keys=True) + "\n")
    w.finish()
    for loc, kind in found:
        print(f"equilibrium ({_f(loc[0])}, {_f(loc[1])}): {kind.value}")
    return EXIT_OK


def _diagram_bundle(scn, diagram):
    def curve_entry(c):
        return {"tag": c.tag.value, "k": c.k, "n_points": int(len(c.points)),
                "points": [[_f(a), _f(b)] for a, b in c.points],
                "max_residual": _f(np.max(np.abs(c.residuals)))}

    return {
        "scenario": scn.name,
        "active_parameters": list(scn.active),
        "curves": [curve_entry(c) for c in diagram.curves],
        "model_curves": [curve_entry(c) for c in diagram.model_curves],
        "codim2": [{
            "location": [_f(p.location[0]), _f(p.location[1])],
            "residuals": [_f(p.residuals[0]), _f(p.residuals[1])],
            "lambda": _f(p.saddle_L.index),
            "mu": _f(p.saddle_M.index),
            "subcase": p.subcase.case_id,
            "canonical_subcase": p.subcase.canonical_id,
        } for p in diagram.codim2],
        "failures": dict(sorted(diagram.failures.items())),
    }


def cmd_diagram(args):
    scn = dg.scenario(args.scenario)
    bounds = None
    if args.bounds is not None:
        b = _numbers(args.bounds, "--bounds")
        bounds = ((b[0], b[1]), (b[2], b[3]))
    diagram = dg.assemble_diagram(scn, bounds=bounds, k_max=args.kmax,
                                  step=_number(args.step, "--step"),
                                  max_points=args.max_points)

    w = ArtifactWriter(args.out, args.format)
    w.write("diagram.csv", "csv", curves_csv(diagram.curves))
    if diagram.model_curves:
        w.write("model_diagram.csv", "csv", curves_csv(diagram.model_curves))
    w.write("diagram.json", "json",
            json.dumps(_diagram_bundle(scn, diagram), indent=2,
                       sort_keys=True) + "\n")
    polylines = [_curve_polyline(c) for c in diagram.curves]
    markers = [(p.location[0], p.location[1], "#000000")
               for p in diagram.codim2]
    w.write("diagram.svg", "svg", svg_document(polylines, markers))
    if diagram.model_curves:
        w.write("model_diagram.svg", "svg", svg_document(
            [_curve_polyline(c, dash_for_model=(c.k > 0))
             for c in diagram.model_curves]))
    w.finish()

    for c in diagram.curves:
        print(f"{c.tag.value}[{c.k}]: {len(c.points)} points, "
              f"max residual {np.max(np.abs(c.residuals)):.2e}")
    for p in diagram.codim2:
        print(f"codim-2 point at ({_f(p.location[0])}, {_f(p.location[1])}), "
              f"lambda={p.saddle_L.index:.6f} mu={p.saddle_M.index:.6f}")
    for key, reason in sorted(diagram.failures.items()):
        print(f"failed: {key}: {reason}")
    return EXIT_PARTIAL if diagram.failures else EXIT_OK


def cmd_melnikov(args):
    conn = {"parabola": mel.Connection.PARABOLA,
            "axis": mel.Connection.X_AXIS}[args.case]
    a, b, c = (_number(getattr(args, n), f"--{n}") for n in "abc")
    prob = mel.MelnikovProblem(a=a, b=b, c=c,
                               connection=conn,
                               tolerance=_number(args.tol_abs, "--tol-abs"))
    res = mel.melnikov_integral(prob)
    print(f"M(0) = {_f(res.value)} +/- {res.error_estimate:.2e}")
    print(f"sign certified negative: {res.sign_certified_negative}")
    print(res.orientation_note)
    w = ArtifactWriter(args.out, args.format)
    w.write("melnikov.json", "json", json.dumps({
        "case": args.case, "a": _f(a), "b": _f(b), "c": _f(c),
        "value": _f(res.value), "error_estimate": _f(res.error_estimate),
        "sign_certified_negative": res.sign_certified_negative,
    }, indent=2, sort_keys=True) + "\n")
    w.finish()
    return EXIT_OK


def cmd_synthesize(args):
    variety = sy.Variety(sy.poly_from_string(args.variety))
    free = tuple(args.free.split(",")) if args.free else ()
    names = tuple(args.names.split(",")) if args.names else None
    fam = sy.solve_family(variety, args.degree, parameter_names=names,
                          free_symbols=free)
    doc = json.dumps(fam.field.to_dict(), indent=2, sort_keys=True) + "\n"
    print(doc, end="")
    w = ArtifactWriter(args.out, args.format)
    w.write("family.json", "json", doc)
    w.finish()
    return EXIT_OK


def cmd_modelmap(args):
    ori = {"monodromic": mm.Orientation.MONODROMIC,
           "non-monodromic": mm.Orientation.NON_MONODROMIC}[args.orientation]
    m = mm.ModelMap(lam=_number(args.lam, "--lambda"),
                    mu=_number(args.mu, "--mu"), orientation=ori)
    b1, b2 = _numbers(args.box, "--box")
    curves = mm.bifurcation_set(m, ((-b1, b1), (-b2, b2)), n=args.n,
                                k_max=args.kmax)
    w = ArtifactWriter(args.out, args.format)
    w.write("modelmap.csv", "csv", curves_csv(curves))
    w.write("modelmap.svg", "svg", svg_document(
        [_curve_polyline(c, dash_for_model=(c.k > 0)) for c in curves]))
    w.finish()
    for c in curves:
        print(f"{c.tag.value}[{c.k}]: {len(c.points)} points")
    return EXIT_OK


# -- entry point -----------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads a token such as ``-6/2``, ``-5e-3`` or ``-(1/2)`` as a value:
    a ``-`` before a digit, ``.`` or ``(`` starts a number, not a flag.
    Subcommand parsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-[\d.(]")


def build_parser():
    p = _Parser(
        prog="hetcontour",
        description="bifurcation analysis of planar heteroclinic contours")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("portrait", help="phase portrait with manifolds")
    sp.add_argument("--system", required=True,
                    help=f"builtin {vf.BUILTIN_NAMES} or a JSON file path")
    sp.add_argument("--region", nargs=4, required=True,
                    metavar=("XMIN", "XMAX", "YMIN", "YMAX"))
    sp.add_argument("--seeds", nargs=2, action="append",
                    default=[], metavar=("X", "Y"))
    sp.add_argument("--time", default="40")
    sp.add_argument("--seed", type=int, default=0,
                    help="random seed for the equilibrium-search grid jitter")
    sp.add_argument("--params", nargs="*", metavar="K=V", default=[],
                    help="parameter overrides k=v, v a number such as 3/2")
    sp.add_argument("--tol-abs", default="1e-10")
    sp.add_argument("--tol-rel", default="1e-10")
    _add_output(sp)
    sp.set_defaults(func=cmd_portrait)

    sp = sub.add_parser("diagram", help="two-parameter bifurcation diagram")
    sp.add_argument("--scenario", required=True,
                    help=f"one of {dg.scenario_names()}")
    sp.add_argument("--bounds", nargs=4, default=None,
                    metavar=("P1MIN", "P1MAX", "P2MIN", "P2MAX"))
    sp.add_argument("--kmax", type=int, default=2)
    sp.add_argument("--step", default="5e-4")
    sp.add_argument("--max-points", type=int, default=40)
    _add_output(sp)
    sp.set_defaults(func=cmd_diagram)

    sp = sub.add_parser("melnikov", help="first-order splitting integral")
    sp.add_argument("--case", choices=("parabola", "axis"), required=True)
    sp.add_argument("--c", default="3/2", help="a number such as 1/2")
    sp.add_argument("--a", default="1")
    sp.add_argument("--b", default="-3")
    sp.add_argument("--tol-abs", default="1e-10", help="quadrature tolerance")
    _add_output(sp)
    sp.set_defaults(func=cmd_melnikov)

    sp = sub.add_parser("synthesize",
                        help="polynomial family tangent to a variety")
    sp.add_argument("--variety", required=True,
                    help='polynomial in x, y, e.g. "y*(y-x*(1-x))"')
    sp.add_argument("--degree", type=int, default=2)
    sp.add_argument("--free", default="",
                    help="comma list of ansatz coefficients kept free")
    sp.add_argument("--names", default="",
                    help="comma list of parameter names for the family")
    _add_output(sp)
    sp.set_defaults(func=cmd_synthesize)

    sp = sub.add_parser("modelmap", help="model-map bifurcation set")
    sp.add_argument("--orientation",
                    choices=("monodromic", "non-monodromic"), required=True)
    sp.add_argument("--lambda", dest="lam", required=True,
                    help="a number such as 2/3")
    sp.add_argument("--mu", required=True)
    sp.add_argument("--kmax", type=int, default=mm.K_MAX_DEFAULT)
    sp.add_argument("--box", nargs=2, default=("0.3", "0.3"),
                    metavar=("B1", "B2"))
    sp.add_argument("--n", type=int, default=101)
    _add_output(sp)
    sp.set_defaults(func=cmd_modelmap)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HetContourError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_HARD


if __name__ == "__main__":
    raise SystemExit(main())
