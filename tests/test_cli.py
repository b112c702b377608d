import json
import logging
import os
import xml.etree.ElementTree as ET
from types import SimpleNamespace

import numpy as np
import pytest

from sqplan import pipeline
from sqplan.cli import (EXIT_INTERNAL, EXIT_NO_PATH, EXIT_OK, EXIT_VALIDATION, main)
from sqplan.scenario import load_scenario


def test_demo_then_plan(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["demo", "--name", "narrow2d", "--out", out]) == EXIT_OK
    scenario_path = os.path.join(out, "narrow2d.json")
    assert os.path.exists(scenario_path)
    load_scenario(scenario_path)  # validates

    run = os.path.join(out, "run")
    code = main(["plan", "--scenario", scenario_path, "--out", run, "--plot"])
    assert code == EXIT_OK
    for name in ("trajectory.csv", "metrics.json", "geometry.json",
                 "scene.svg"):
        assert os.path.exists(os.path.join(run, name)), name
    with open(os.path.join(run, "metrics.json")) as f:
        metrics = json.load(f)
    assert metrics["success"] is True
    assert metrics["min_distance_m"] > 0.01
    with open(os.path.join(run, "geometry.json")) as f:
        graph = json.load(f)["graph"]
    assert (graph["segments_decided"], graph["segments_rejected"], graph["bridges_added"]) == (7, 2, 0)
    out_text = capsys.readouterr().out
    assert "success" in out_text


def test_plan_3d_writes_obj(tmp_path):
    out = str(tmp_path)
    main(["demo", "--name", "pillars3d", "--out", out])
    run = os.path.join(out, "run")
    code = main(["plan", "--scenario", os.path.join(out, "pillars3d.json"),
                 "--out", run, "--plot"])
    assert code == EXIT_OK
    assert os.path.exists(os.path.join(run, "scene.obj"))
    assert os.path.exists(os.path.join(run, "scene_topdown.svg"))


SVG = "{http://www.w3.org/2000/svg}"


def svg_groups(path):
    """(id, child tags) of each <g> of an SVG file, in document order."""
    root = ET.parse(path).getroot()
    return [(g.get("id"), [c.tag.removeprefix(SVG) for c in g]) for g in root.iter(SVG + "g")]


def plotted(tmp_path, name):
    """`sqplan plan --plot` on a benchmark's demo file: the output directory
    and the same plan in-process."""
    out = str(tmp_path)
    main(["demo", "--name", name, "--out", out])
    scenario_path = os.path.join(out, f"{name}.json")
    assert main(["plan", "--scenario", scenario_path, "--out", out, "--plot"]) == EXIT_OK
    return out, pipeline.plan(load_scenario(scenario_path))


def test_scene_svg_has_a_path_per_shape_and_edge(tmp_path):
    # one path per grown obstacle, obstacle, cell edge and graph edge, one per
    # path, and a circle per terminal
    out, result = plotted(tmp_path, "narrow2d")
    n_obstacles, n_edges = len(result.diagram.expanded), len(result.graph.live_edges())
    n_cell_edges = sum(len(cell.edges) for cell in result.diagram.cells)
    assert n_obstacles == 3 and n_cell_edges > 0 and n_edges > 0
    assert svg_groups(os.path.join(out, "scene.svg")) == [
        ("expanded-obstacles", ["path"] * n_obstacles), ("obstacles", ["path"] * n_obstacles),
        ("cells", ["path"] * n_cell_edges), ("graph", ["path"] * n_edges),
        ("raw-path", ["path"]), ("smoothed-path", ["path"]), ("terminals", ["circle"] * 2)]


def test_topdown_svg_and_obj_have_an_element_per_obstacle_and_edge(tmp_path):
    out, result = plotted(tmp_path, "pillars3d")
    n_obstacles, n_edges = len(result.diagram.expanded), len(result.graph.live_edges())
    assert n_obstacles > 0 and n_edges > 0
    assert svg_groups(os.path.join(out, "scene_topdown.svg")) == [
        ("obstacles", ["path"] * n_obstacles), ("graph", ["path"] * n_edges),
        ("smoothed-path", ["path"])]
    with open(os.path.join(out, "scene.obj")) as f:
        objects = [line.split()[1] for line in f if line.startswith("o ")]
    assert objects == ([f"obstacle_{k}" for k in range(n_obstacles)]
                       + [f"edge_{k}" for k in range(n_edges)] + ["raw_path", "smoothed_path"])


def test_plan_invalid_scenario_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "version": 1, "dim": 2,
        "world": {"min": [0, 0], "max": [1, 1]},
        "robot": {"eps": [0.5], "axes": [0.02, 0.06],
                  "position": [0, 0], "rotation": [0]},
        "obstacles": [{"eps": [1.0], "axes": [0.1, -0.1],
                       "position": [0.5, 0.5], "rotation": [0]}],
        "start": {"position": [0.1, 0.1], "rotation": [0]},
        "goal": {"position": [0.9, 0.9], "rotation": [0]},
    }))
    code = main(["plan", "--scenario", str(bad), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    assert "obstacles[0]" in capsys.readouterr().err


def test_plan_obstacle_free_scenario_exits_2(tmp_path, capsys):
    # a scene needs an obstacle for the planner to build a roadmap around
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "version": 1, "dim": 2,
        "world": {"min": [0, 0], "max": [0.5, 0.5]},
        "robot": {"eps": [0.5], "axes": [0.02, 0.06], "position": [0.1, 0.1]},
        "obstacles": [],
        "start": {"position": [0.1, 0.1]},
        "goal": {"position": [0.4, 0.4]},
    }))
    code = main(["plan", "--scenario", str(empty), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "obstacles" in err and "internal error" not in err


def test_plan_blocked_scenario_exits_3(tmp_path):
    blocked = tmp_path / "blocked.json"
    # a wall sealing the world between start and goal
    blocked.write_text(json.dumps({
        "version": 1, "dim": 2,
        "world": {"min": [0, 0], "max": [0.5, 0.5]},
        "robot": {"eps": [0.5], "axes": [0.02, 0.06],
                  "position": [0, 0], "rotation": [0]},
        "obstacles": [
            {"eps": [0.2], "axes": [0.13, 0.02],
             "position": [0.125, 0.25], "rotation": [0]},
            {"eps": [0.2], "axes": [0.13, 0.02],
             "position": [0.375, 0.25], "rotation": [0]},
        ],
        "start": {"position": [0.25, 0.1], "rotation": [0]},
        "goal": {"position": [0.25, 0.4], "rotation": [0]},
    }))
    out = str(tmp_path / "o")
    code = main(["plan", "--scenario", str(blocked), "--out", out])
    assert code == EXIT_NO_PATH
    with open(os.path.join(out, "metrics.json")) as f:
        metrics = json.load(f)
    assert metrics["success"] is False
    assert metrics["reason"] == "no-feasible-passage"


def test_plan_roadmap_without_edges_exits_3(tmp_path, capsys):
    # a disc touching all four walls leaves no roadmap edge at all
    scene = tmp_path / "no_edges.json"
    scene.write_text(json.dumps({
        "version": 1, "dim": 2,
        "world": {"min": [0, 0], "max": [1, 1]},
        "robot": {"eps": [0.5], "axes": [0.02, 0.06], "position": [0.05, 0.05]},
        "obstacles": [{"eps": [1.0], "axes": [0.5, 0.5], "position": [0.5, 0.5]}],
        "start": {"position": [0.05, 0.05]},
        "goal": {"position": [0.95, 0.95]},
    }))
    out = str(tmp_path / "o")
    assert main(["plan", "--scenario", str(scene), "--out", out]) == EXIT_NO_PATH
    err = capsys.readouterr().err
    assert "internal error" not in err and "Traceback" not in err
    with open(os.path.join(out, "metrics.json")) as f:
        assert json.load(f)["reason"] == "no-feasible-passage"


def test_bench_2d_table_and_results(tmp_path, capsys):
    out = str(tmp_path)
    code = main(["bench", "--suite", "2d", "--runs", "1", "--out", out])
    assert code == EXIT_OK
    text = capsys.readouterr().out
    for name in ("narrow2d", "t_block", "u_block"):
        assert name in text
    with open(os.path.join(out, "results.json")) as f:
        results = json.load(f)
    assert results["suite"] == "2d"
    assert len(results["benchmarks"]) == 3
    for entry in results["benchmarks"]:
        assert len(entry["runs"]) == 1
        assert entry["runs"][0]["success"] is True
        run, mean = entry["runs"][0], entry["mean"]
        assert np.isclose(run["arc_length_m"], mean["arc_length_m"])
        assert np.isclose(run["min_distance_m"], mean["min_distance_m"])
        # the diagram's solve counters: every pair decided, all converged
        counters = entry["diagram"]
        assert set(counters) == {"pairs", "threshold_decided", "full_solves",
                                 "gjk_iterations", "newton_steps", "nonconverged"}
        assert counters["nonconverged"] == 0
        assert counters["gjk_iterations"] >= counters["pairs"] + counters["full_solves"]


def test_unknown_demo_name_rejected(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demo", "--name", "nope", "--out", str(tmp_path)])
    assert exc.value.code != 0
    assert "narrow2d" in capsys.readouterr().err  # lists valid names


@pytest.mark.parametrize("argv, flag", [
    (["bench", "--suite", "2d", "--runs", "0"], "--runs"),
    (["bench", "--suite", "2d", "--runs", "-2"], "--runs"),
    (["bench", "--suite", "3d", "--seed", "-1"], "--seed"),
    (["demo", "--name", "moderate3d", "--seed", "-1"], "--seed"),
])
def test_out_of_range_counts_exit_2(tmp_path, capsys, argv, flag):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"argument {flag}: expected an integer >= " in err
    assert "internal error" not in err and "Traceback" not in err
    assert not out.exists()


def test_internal_error_exits_4_without_traceback(tmp_path, capsys, caplog, monkeypatch):
    out = str(tmp_path)
    main(["demo", "--name", "narrow2d", "--out", out])

    def broken(*args, **kwargs):
        raise RuntimeError("planner broke")

    monkeypatch.setattr(pipeline, "plan", broken)
    caplog.set_level(logging.DEBUG, logger="sqplan")
    code = main(["plan", "--scenario", os.path.join(out, "narrow2d.json"),
                 "--out", os.path.join(out, "run")])
    assert code == EXIT_INTERNAL
    assert "internal error: planner broke" in capsys.readouterr().err
    # the traceback is logged at debug level only
    assert any(r.exc_info for r in caplog.records if r.levelno == logging.DEBUG)
    assert not any(r.exc_info for r in caplog.records if r.levelno >= logging.WARNING)


def test_bench_exits_non_zero_when_runs_fail(tmp_path, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("planner broke")

    monkeypatch.setattr(pipeline, "plan", broken)
    out = str(tmp_path / "raised")
    assert main(["bench", "--suite", "2d", "--runs", "1", "--out", out]) == EXIT_INTERNAL
    with open(os.path.join(out, "results.json")) as f:
        results = json.load(f)
    assert all(run["error"] == "planner broke"
               for entry in results["benchmarks"] for run in entry["runs"])
    assert "failed" in capsys.readouterr().out

    monkeypatch.setattr(pipeline, "plan", lambda *args: SimpleNamespace(
        success=False, reason="no-feasible-passage"))
    out = str(tmp_path / "no_plan")
    assert main(["bench", "--suite", "2d", "--runs", "1", "--out", out]) == EXIT_NO_PATH


def _narrow2d_with(tmp_path, params):
    main(["demo", "--name", "narrow2d", "--out", str(tmp_path)])
    path = tmp_path / "narrow2d.json"
    scene = json.loads(path.read_text())
    scene["params"] = params
    path.write_text(json.dumps(scene))
    return str(path)


# parameters the planner derives: bridging distance, rollout step and
# demonstration samples; a scene that still sets one, even as null, is
# rejected like any unknown key
RETIRED_PARAMS = ("params.h", "params.dt", "params.n_samples")


@pytest.mark.parametrize("params, where", [
    ({"dt": None}, "params.dt"), ({"dt": 0.001}, "params.dt"), ({"dt": 1e-7}, "params.dt"),
    ({"dt": 5}, "params.dt"), ({"dt": 0}, "params.dt"),
    ({"n_samples": None}, "params.n_samples"), ({"n_samples": 3}, "params.n_samples"),
    ({"n_samples": 400}, "params.n_samples"), ({"n_samples": 0}, "params.n_samples"),
    ({"dmp_basis": 1}, "params.dmp_basis"), ({"dmp_basis": 2.7}, "params.dmp_basis"),
    ({"dmp_basis": None}, "params.dmp_basis"), ({"dmp_basis": True}, "params.dmp_basis"),
    ({"h": None}, "params.h"), ({"h": 0}, "params.h"), ({"h": 0.01}, "params.h"),
    ([1], "params"), ({"dmp_basis": 101}, "params.dmp_basis"),
    ({"dmp_basis": 150}, "params.dmp_basis"), ({"dmp_basis": 20000}, "params.dmp_basis"),
    # keys are checked in file order
    ({"h": 1, "dmp_basis": 101}, "params.h"), ({"dmp_basis": 101, "h": 1}, "params.dmp_basis"),
])
def test_plan_invalid_params_exit_2(tmp_path, capsys, params, where):
    path = _narrow2d_with(tmp_path, params)
    capsys.readouterr()
    code = main(["plan", "--scenario", path, "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"invalid scenario: {where}:" in err and "internal error" not in err
    if where in RETIRED_PARAMS:
        assert f"{where}: unknown parameter" in err
    elif where == "params.dmp_basis":
        assert "expected an integer in [2, 100]" in err


@pytest.mark.parametrize("params", [{"dmp_basis": 2}, {"dmp_basis": 100}])
def test_plan_boundary_params_plan(tmp_path, params):
    path = _narrow2d_with(tmp_path, params)
    assert main(["plan", "--scenario", path, "--out", str(tmp_path / "o")]) == EXIT_OK


def test_dmp_basis_flag_plans_like_the_file_param(tmp_path):
    # --dmp-basis 40 on a scene without params and params.dmp_basis 40 in
    # the file write the same trajectory, and not the default basis's
    csv = {}
    for label, params, flags in (("flag", {}, ["--dmp-basis", "40"]),
                                 ("file", {"dmp_basis": 40}, []),
                                 ("default", {}, [])):
        path = _narrow2d_with(tmp_path / label, params)
        out = tmp_path / label / "o"
        assert main(["plan", "--scenario", path, "--out", str(out)] + flags) == EXIT_OK
        csv[label] = (out / "trajectory.csv").read_bytes()
    assert csv["flag"] == csv["file"] != csv["default"]


def test_plan_dt_beyond_a_tenth_of_the_duration_exits_2(tmp_path, capsys):
    # the rollout step is derived from the planned path, so dt is no longer
    # a parameter: a scene asking for one exits 2 at load, before planning,
    # not in the middle of a query
    path = _narrow2d_with(tmp_path, {"dt": 5})
    capsys.readouterr()
    out = tmp_path / "o"
    code = main(["plan", "--scenario", path, "--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert "invalid scenario: params.dt: unknown parameter" in err
    assert "internal error" not in err and not any(out.iterdir())


@pytest.mark.parametrize("kind, message", [
    ("missing", "cannot read the file"), ("directory", "cannot read the file"),
    ("not-utf8", "invalid JSON"),
])
def test_plan_unreadable_scenario_file_exits_2(tmp_path, capsys, kind, message):
    path = tmp_path / "scene.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe{}")
    code = main(["plan", "--scenario", str(path), "--out", str(tmp_path / "o")])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"invalid scenario: {path}: {message}" in err
    assert "internal error" not in err


@pytest.mark.parametrize("flag, value", [
    ("--h", "-1"), ("--h", "nan"), ("--dmp-basis", "1"), ("--dt", "0"), ("--dt", "inf"),
    ("--dmp-basis", "101"), ("--h", "0.01"), ("--dt", "0.001"),
])
def test_plan_invalid_override_flags_exit_2(tmp_path, capsys, flag, value):
    # --dmp-basis outside [2, 100] is rejected by the params rule; --h and
    # --dt are gone, so argparse rejects them whatever their value (and --h
    # is not read as an abbreviation of --help)
    path = _narrow2d_with(tmp_path, {})
    capsys.readouterr()
    try:
        code = main(["plan", "--scenario", path, "--out", str(tmp_path / "o"), flag, value])
    except SystemExit as exc:
        code = exc.code
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    want = (f"invalid scenario: --dmp-basis: expected an integer in [2, 100], got {value}"
            if flag == "--dmp-basis" else f"unrecognized arguments: {flag} {value}")
    assert want in err and "internal error" not in err


@pytest.mark.parametrize("argv", [
    ["plan", "--scenario", "missing.json"], ["bench", "--suite", "2d", "--runs", "1"],
    ["demo", "--name", "narrow2d"],
])
def test_out_that_cannot_be_created_exits_2(tmp_path, capsys, argv):
    # --out is created before any work, and a path that cannot be a
    # directory is a bad argument, not an internal error
    out = tmp_path / "taken"
    out.write_text("a file\n")
    code = main(argv + ["--out", str(out)])
    assert code == EXIT_VALIDATION
    err = capsys.readouterr().err
    assert f"--out {out}: cannot create the directory" in err
    assert "internal error" not in err and out.read_text() == "a file\n"
