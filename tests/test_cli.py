"""Command-line interface: exit codes, artifact schemas, determinism."""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hetcontour import cli
from hetcontour import vectorfield as vf


def run(argv):
    return cli.main(argv)


def test_melnikov_command_writes_manifest(tmp_path, capsys):
    code = run(["melnikov", "--case", "parabola", "--c", "3/2",
                "--out", str(tmp_path), "--format", "json"])
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "M(0) = " in out
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert {e["path"] for e in manifest} == {"melnikov.json"}
    assert all(len(e["sha256"]) == 64 for e in manifest)
    doc = json.loads((tmp_path / "melnikov.json").read_text())
    assert abs(float(doc["value"]) + 0.0866532) < 1e-5


def test_melnikov_json_writes_the_parsed_c(tmp_path):
    # the same c typed two ways is the same problem and the same artifact
    docs = []
    for c in ("1/2", "0.5"):
        d = tmp_path / c.replace("/", "_")
        assert run(["melnikov", "--case", "axis", "--c", c, "--out", str(d),
                    "--format", "json"]) == cli.EXIT_OK
        docs.append((d / "melnikov.json").read_bytes())
    assert docs[0] == docs[1]
    assert json.loads(docs[0])["c"] == "0.5"


def test_identical_runs_are_byte_identical(tmp_path):
    # the modelmap run draws the k-turn series H^(1..3), which only a
    # non-monodromic map has
    for i, argv in enumerate((
            ["melnikov", "--case", "axis", "--c", "1/2", "--format", "json"],
            ["modelmap", "--orientation", "non-monodromic", "--lambda", "2",
             "--mu", "0.6667", "--kmax", "3", "--n", "31",
             "--format", "all"])):
        outs = []
        for name in ("one", "two"):
            d = tmp_path / f"{i}-{name}"
            assert run(argv + ["--out", str(d)]) == cli.EXIT_OK
            outs.append({f.name: f.read_bytes() for f in d.iterdir()})
        assert len(outs[0]) > 1 and outs[0] == outs[1]
    rows = outs[0]["modelmap.csv"].decode().splitlines()[1:]
    tags = {tuple(r.split(",")[:2]) for r in rows}
    assert {(t, str(k)) for t in ("H_L", "H_M") for k in (1, 2, 3)} <= tags


def test_modelmap_csv_schema_and_svg(tmp_path, capsys):
    code = run(["modelmap", "--orientation", "monodromic",
                "--lambda", "2", "--mu", "2", "--kmax", "1", "--n", "21",
                "--out", str(tmp_path), "--format", "all"])
    assert code == cli.EXIT_OK
    lines = (tmp_path / "modelmap.csv").read_text().splitlines()
    assert lines[0] == "tag,k,param1,param2,residual"
    assert len(lines) > 10
    svg = (tmp_path / "modelmap.svg").read_text()
    assert svg.startswith("<svg") or "<svg" in svg
    assert cli.HETEROCLINIC_COLOR in svg


def test_synthesize_prints_family(capsys):
    code = run(["synthesize", "--variety", "y*(y-x*(1-x))", "--degree", "2",
                "--free", "a10,a01,a11", "--names", "a,b,c"])
    assert code == cli.EXIT_OK
    doc = json.loads(capsys.readouterr().out)
    assert {p["name"] for p in doc["parameters"]} == {"a", "b", "c"}


@pytest.mark.parametrize("argv", [
    ["diagram", "--scenario", "heart", "--tol-abs", "1e-6"],
    ["diagram", "--scenario", "heart", "--tol-rel", "1e-6"],
    ["diagram", "--scenario", "heart", "--params", "gamma=13/5"],
    ["melnikov", "--case", "axis", "--tol-rel", "1e-6"],
    ["synthesize", "--variety", "y", "--tol-abs", "1e-6"],
    ["modelmap", "--orientation", "monodromic", "--lambda", "2",
     "--mu", "2", "--params", "a=1"],
])
def test_flags_a_command_ignores_are_rejected(argv, capsys):
    # a flag is accepted only by the commands that read it
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["portrait", "--system", "mono_unperturbed", "--region", "0", "1", "0",
     "1", "--params", "a=1/0"],
    ["portrait", "--system", "mono_unperturbed", "--region", "0", "1", "0",
     "1", "--params", "a=abc"],
    ["portrait", "--system", "mono_unperturbed", "--region", "0", "1/0",
     "0", "1"],
    ["melnikov", "--case", "axis", "--c", "1/0"],
    ["melnikov", "--case", "axis", "--c", "1e300*1e300"],
    ["melnikov", "--case", "axis", "--a", "1/0"],
    ["modelmap", "--orientation", "monodromic", "--lambda", "2/0",
     "--mu", "2"],
    ["diagram", "--scenario", "heart", "--step", "x"],
    ["synthesize", "--variety", "x/0"],
    ["synthesize", "--variety", "1e400*x"],
])
def test_bad_numbers_are_parse_errors(argv, capsys):
    assert run(argv) == cli.EXIT_HARD
    assert "error: ParseError: " in capsys.readouterr().err


@pytest.mark.parametrize("exact, decimal", [
    (["modelmap", "--orientation", "monodromic", "--lambda", "2/3", "--mu",
      "2", "--kmax", "1", "--n", "21", "--box", "3/10", "0.3"],
     ["modelmap", "--orientation", "monodromic", "--lambda",
      "0.6666666666666666", "--mu", "2", "--kmax", "1", "--n", "21"]),
    # a negative expression may join its flag with "="
    (["melnikov", "--case", "axis", "--a", "1/2", "--b=-6/2"],
     ["melnikov", "--case", "axis", "--a", "0.5"]),
    (["melnikov", "--case", "axis", "--tol-abs", "1/1e8"],
     ["melnikov", "--case", "axis", "--tol-abs", "1e-8"]),
])
def test_number_arguments_read_exact_expressions(exact, decimal, tmp_path):
    # every number argument goes through the reader that --c and --params
    # use, so 2/3 is the float nearest to two thirds
    outs = []
    for name, argv in (("exact", exact), ("decimal", decimal)):
        assert run(argv + ["--out", str(tmp_path / name)]) == cli.EXIT_OK
        outs.append({f.name: f.read_bytes()
                     for f in (tmp_path / name).iterdir()})
    assert len(outs[0]) > 1 and outs[0] == outs[1]


@pytest.mark.parametrize("expression, plain", [
    (["melnikov", "--case", "axis", "--b", "-6/2"],
     ["melnikov", "--case", "axis", "--b=-6/2"]),
    (["diagram", "--scenario", "mono_first", "--bounds", "-5e-3", "5e-3",
      "-5e-3", "5e-3", "--max-points", "3", "--format", "json"],
     ["diagram", "--scenario", "mono_first", "--bounds", "-0.005", "0.005",
      "-0.005", "0.005", "--max-points", "3", "--format", "json"]),
    (["portrait", "--system", "diss_heart", "--region", "-1.5", "1.5",
      "-1e0", "1", "--seeds", "-(1/2)", "-.25", "--time", "1"],
     ["portrait", "--system", "diss_heart", "--region", "-1.5", "1.5",
      "-1", "1", "--seeds", "-0.5", "-0.25", "--time", "1"]),
])
def test_a_negative_expression_is_a_value_not_a_flag(expression, plain,
                                                     tmp_path):
    # a "-" before a digit, "." or "(" starts a number, for one-value and
    # multi-value flags alike
    outs = []
    for name, argv in (("expression", expression), ("plain", plain)):
        assert run(argv + ["--out", str(tmp_path / name)]) == cli.EXIT_OK
        outs.append({f.name: f.read_bytes()
                     for f in (tmp_path / name).iterdir()})
    assert len(outs[0]) > 1 and outs[0] == outs[1]


def test_no_flag_reads_a_bare_float():
    # a number flag is read by affine.parse_number, never by float()
    def actions(parser):
        for action in parser._actions:
            yield parser.prog, action
            if isinstance(action, argparse._SubParsersAction):
                for sub in action.choices.values():
                    yield from actions(sub)
    found = list(actions(cli.build_parser()))
    assert "hetcontour modelmap" in {prog for prog, _ in found}
    assert [(prog, a.option_strings) for prog, a in found
            if a.type is float] == []


@pytest.mark.parametrize("n", ["-3", "0", "1"])
def test_modelmap_needs_two_points_a_curve(n, tmp_path, capsys):
    code = run(["modelmap", "--orientation", "monodromic", "--lambda", "2",
                "--mu", "2", "--n", n, "--out", str(tmp_path)])
    assert code == cli.EXIT_HARD
    assert "error: DomainError: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scenario, subcase", [("mono_first", 5),
                                               ("mono_second", 3)])
def test_mono_diagram_has_its_contour_point_at_the_origin(scenario, subcase,
                                                          tmp_path):
    code = run(["diagram", "--scenario", scenario, "--kmax", "0",
                "--max-points", "3", "--format", "json",
                "--out", str(tmp_path)])
    assert code == cli.EXIT_OK
    doc = json.loads((tmp_path / "diagram.json").read_text())
    assert doc["failures"] == {}
    assert [(p["location"], p["subcase"]) for p in doc["codim2"]] == [
        (["0.0", "0.0"], subcase)]


def test_system_file_out_of_float_range_is_a_parse_error(tmp_path, capsys):
    data = vf.builtin("mono_unperturbed").to_dict()
    data["x_dot"][0]["coeff"] = "1e300*1e300*a"
    path = tmp_path / "system.json"
    path.write_text(json.dumps(data))
    code = run(["portrait", "--system", str(path), "--region", "0", "1", "0",
                "1"])
    assert code == cli.EXIT_HARD
    assert "error: ParseError: x_dot[0]: " in capsys.readouterr().err


def test_unknown_scenario_is_hard_error(tmp_path, capsys):
    code = run(["diagram", "--scenario", "nope", "--out", str(tmp_path)])
    assert code == cli.EXIT_HARD
    assert "NotFound" in capsys.readouterr().err


def test_degenerate_modelmap_is_hard_error(capsys):
    code = run(["modelmap", "--orientation", "monodromic",
                "--lambda", "1", "--mu", "2"])
    assert code == cli.EXIT_HARD
    assert "Degenerate" in capsys.readouterr().err


def test_portrait_finds_equilibria(tmp_path, capsys):
    code = run(["portrait", "--system", "mono_unperturbed",
                "--region", "-0.5", "1.5", "-0.5", "0.7",
                "--time", "5", "--out", str(tmp_path), "--format", "all"])
    assert code == cli.EXIT_OK
    doc = json.loads((tmp_path / "portrait.json").read_text())
    # saddles at (0,0) and (1,0), focus at (2/3,1/9), node on the parabola
    assert len(doc["equilibria"]) == 4
    types = {e["type"] for e in doc["equilibria"]}
    assert "saddle" in types


def test_the_package_runs_without_scipy(tmp_path):
    # scipy is a test oracle only: with it blocked before any import, both
    # Melnikov integrals and the melnikov command run
    code = ("import sys\n"
            "sys.modules['scipy'] = None\n"
            "from hetcontour import cli, melnikov as ml\n"
            "for conn in ml.Connection:\n"
            "    ml.melnikov_integral(ml.MelnikovProblem(connection=conn))\n"
            "sys.exit(cli.main(['melnikov', '--case', 'parabola',\n"
            f"                   '--out', {str(tmp_path)!r}]))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "melnikov.json").is_file()
