import dataclasses
import hashlib
import json
from fractions import Fraction

import pytest

from hcfill.cli import main
from hcfill.config import RunConfig
from hcfill.errors import InputError
from hcfill.shapes import make_cube, make_dumbbell, make_ring
from hcfill.space import VoxelSpace, save_space
from oracles import net_point_dist


@pytest.fixture()
def cube_path(tmp_path):
    path = tmp_path / "cube2.json"
    save_space(make_cube(2, 8, Fraction(1, 8)), str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _report_digest(doc: dict) -> str:
    """First 16 hex digits of the sha256 of a report's sorted-key JSON,
    without the package version."""
    rest = {k: v for k, v in doc.items() if k != "version"}
    return hashlib.sha256(json.dumps(rest, sort_keys=True).encode()).hexdigest()[:16]


def test_content_reports_quarter(capsys, cube_path, tmp_path):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(capsys, "content", "--space", cube_path, "--m", "2",
                         "--exact", "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["result"]["value_upper"] == "1/4"
    assert doc["result"]["optimal"] is True
    assert doc["volume_lower_bound"] == "1/4"
    assert doc["schema"] == "hcfill/1"


def test_content_volume_bound_stays_below_the_optimum_at_m_above_n(capsys, tmp_path):
    path = tmp_path / "two_cells.json"
    save_space(VoxelSpace(1, Fraction(1), frozenset({(0,), (1,)})), str(path))
    code, out, _ = run_cli(capsys, "content", "--space", str(path), "--m", "2",
                           "--exact")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value_upper"] == "1/2"
    assert doc["volume_lower_bound"] == "1/2"


def test_greedy_content(capsys, cube_path):
    code, out, _ = run_cli(capsys, "content", "--space", cube_path, "--m", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["optimal"] is False


def test_missing_space_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "content", "--space",
                           str(tmp_path / "nope.json"), "--m", "1", "--exact")
    assert code == 1


def test_corrupted_space_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "content", "--space", str(bad), "--m", "1")
    assert code == 1
    assert "bad.json" in err


def test_decompose_and_fill(capsys, tmp_path):
    path = tmp_path / "ring.json"
    save_space(make_ring(8, Fraction(1, 8)), str(path))
    code, out, _ = run_cli(capsys, "decompose", "--space", str(path), "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert 1 / 12 < doc["decomposition"]["alpha"] <= 1 + 1e-9

    report = tmp_path / "cert.json"
    plot = tmp_path / "steps.csv"
    code, out, _ = run_cli(capsys, "fill", "--space", str(path), "--m", "2",
                           "--report", str(report), "--emit-plot", str(plot))
    assert code == 0
    cert = json.loads(report.read_text())
    assert all(c["ok"] for c in cert["certificate"]["checks"]
               if not c.get("advisory"))
    rows = plot.read_text().strip().splitlines()
    assert rows[0] == "step,content,displacement"
    assert len(rows) >= 2


@pytest.mark.parametrize("argv", [
    ("fill", "--eps", "-1"),
    ("fill", "--eps", "1e400"),
    ("decompose", "--eps", "-1"),
    ("decompose", "--eps", "1e400"),
])
def test_a_bad_eps_is_an_input_error(capsys, cube_path, argv):
    """A negative eps, or one too large for a float, exits 1 with a plain
    error, not 2 with a false counterexample or an `OverflowError`."""
    code, out, err = run_cli(capsys, argv[0], "--space", cube_path, "--m", "2", *argv[1:])
    assert code == 1
    assert out == ""
    assert err in ("error: eps must be >= 0, got -1.0\n", "error: eps is beyond the float range\n")


def test_cone_subcommand(capsys, tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({
        "m": 1,
        "balls": [{"center": ["1/2", "0"], "radius": "1/4"}],
        "target": [],
    }))
    code, out, _ = run_cli(capsys, "cone", "--cover", str(cover), "--apex",
                           "0,0", "--R", "1", "--m", "2", "--variant",
                           "improved")
    assert code == 0
    doc = json.loads(out)
    assert doc["coverage"] == {"inputs": 1, "uncovered": []}
    # coverage is proved, not sampled: there is no sample count to set
    with pytest.raises(SystemExit):
        main(["cone", "--cover", str(cover), "--apex", "0,0", "--R", "1",
              "--m", "2", "--samples", "300"])


def test_cone_subcommand_on_an_empty_cover(capsys, tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"balls": []}))
    code, out, _ = run_cli(capsys, "cone", "--cover", str(cover), "--apex",
                           "0,0", "--R", "1", "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["cost"] == 0
    assert doc["certificate"]["balls"] == []
    assert doc["coverage"] == {"inputs": 0, "uncovered": []}


@pytest.mark.parametrize("text, message", [
    ("{oops", "not valid JSON"),
    (json.dumps({"m": 1}), "a cover document needs a 'balls' list"),
    (json.dumps([1, 2]), "a cover document needs a 'balls' list"),
    (json.dumps({"balls": [{"radius": "1/4"}]}), "a ball needs a numeric center and radius"),
    (json.dumps({"balls": [{"center": ["x", 0], "radius": "1/4"}]}),
     "a ball needs a numeric center and radius"),
    (json.dumps({"balls": [{"center": [0, 0], "radius": None}]}),
     "a ball needs a numeric center and radius"),
    (json.dumps({"balls": [{"center": 5, "radius": "1/4"}]}),
     "a ball needs a numeric center and radius"),
    (json.dumps({"balls": [], "target": [["a"]]}),
     "cover target cell: not a row of numbers: ['a']"),
    # a fractional target cell is refused, not truncated to (0, 0)
    (json.dumps({"balls": [], "target": [[0.5, 0]]}),
     "cover target cell: not a row of numbers: [0.5, 0]"),
    (json.dumps({"balls": [], "target": 5}),
     "cover document field 'target': not a valid value: 5"),
    (json.dumps({"balls": [], "m": "x"}), "cover document field 'm': not a valid value: 'x'"),
])
@pytest.mark.parametrize("argv", [
    ("cone", "--apex", "0,0", "--R", "1", "--m", "2", "--cover"),
    ("coarea", "--f", "dist:0,0", "--m", "1", "--cover"),
    ("content", "--m", "1", "--family", "fixed", "--family-file"),
])
def test_malformed_cover_files_are_input_errors(capsys, tmp_path, cube_path, text,
                                                message, argv):
    cover = tmp_path / "cover.json"
    cover.write_text(text)
    if argv[0] != "cone":
        argv = (*argv[:1], "--space", cube_path, *argv[1:])
    code, out, err = run_cli(capsys, *argv, str(cover))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("kind, doc, message", [
    ("dist-set", [[0, 0], [0.5, 0]], "dist-set cell: not a row of numbers: [0.5, 0]"),
    ("dist-set", [["a", 0]], "dist-set cell: not a row of numbers: ['a', 0]"),
    ("dist-set", {"cells": [[0, 0]]}, "a dist-set document is a list of cells"),
    ("values", {"values": [[[0.5, 0], 1]], "lip": 1},
     "values cell: not a row of numbers: [0.5, 0]"),
    ("values", {"values": [[[0, 0], "x"]], "lip": 1},
     "values document field 'values': not a valid value: [[[0, 0], 'x']]"),
    ("values", {"lip": 1}, "values document lacks the 'values' field"),
    ("values", {"values": [[[0, 0], 1]]}, "values document lacks the 'lip' field"),
    ("values", [[[0, 0], 1]], "a values document is an object with 'values' and 'lip'"),
    ("dist-set", [], "the distance to an empty set is undefined: dist-set needs a cell"),
])
def test_malformed_coarea_functions_are_input_errors(capsys, tmp_path, cube_path,
                                                     kind, doc, message):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"m": 1, "balls": [{"center": [0, 0], "radius": 1}]}))
    function = tmp_path / "function.json"
    function.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "coarea", "--space", cube_path, "--cover", str(cover),
                             "--f", f"{kind}:{function}", "--m", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(message + "\n")


def test_coarea_on_an_empty_domain_needs_a_range(capsys, tmp_path):
    """A space without cells under a cover without a target has no value
    range to slice unless `--range` gives one."""
    path = tmp_path / "empty.json"
    save_space(VoxelSpace(2, Fraction(1, 4), frozenset()), str(path))
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"m": 1, "balls": [{"center": [0, 0], "radius": 1}]}))
    argv = ("coarea", "--space", str(path), "--cover", str(cover), "--f", "dist:0,0",
            "--m", "1")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == "error: an empty domain has no value range: give the range\n"
    code, out, _ = run_cli(capsys, *argv, "--range", "0:1")
    assert code == 0 and json.loads(out)["slice_cells"] == 0


def test_pushout_subcommand(capsys, tmp_path):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["1/3", "2/7"], ["3/5", "1/2"]]))
    plot = tmp_path / "trace.csv"
    code, out, _ = run_cli(capsys, "pushout", "--points", str(pts), "--grid-R",
                           "1", "--m", "2", "--n", "2", "--emit-plot", str(plot))
    assert code == 0
    doc = json.loads(out)
    assert doc["trace"]["checks"]["final_in_skeleton"] is True
    assert plot.exists()
    assert _report_digest(doc) == "cd83858fd09ca575"


def test_pushout_floor_accounts_content(capsys, tmp_path):
    """Separated points cover at cost 0 without a floor; `--floor` passes
    the least ball radius to the descent, which then accounts content, and
    a negative floor is an input error."""
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps([["1/3", "2/7", "1/5"], ["3/5", "1/2", "2/3"],
                               ["5/4", "1/8", "7/8"]]))
    argv = ("pushout", "--points", str(pts), "--grid-R", "1", "--m", "2", "--n", "3")
    contents = []
    for floor in ("0", "1/256"):
        code, out, _ = run_cli(capsys, *argv, "--floor", floor)
        assert code == 0
        contents.append(json.loads(out)["trace"]["checks"]["trace_vs_input"]["input_content"])
    assert contents[0] == 0 and Fraction(contents[1]) > 0
    code, out, err = run_cli(capsys, *argv, "--floor=-1/2")
    assert (code, out) == (1, "")
    assert "--floor must be >= 0" in err


@pytest.mark.parametrize("points", [[["1/3", "2/7", "1/2"]], [["1/3"], ["3/5"]]])
def test_pushout_rejects_wrong_point_dimension(capsys, tmp_path, points):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(points))
    code, out, err = run_cli(capsys, "pushout", "--points", str(pts), "--grid-R",
                             "1", "--m", "2", "--n", "2")
    assert code == 1
    assert out == ""
    assert "points need n coordinates" in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_pushout_rejects_a_grid_dimension_below_one(capsys, tmp_path, n):
    """An empty point set on a grid of dimension 0 or -1 is an input
    error, not a descent run with a negative displacement bound."""
    pts = tmp_path / "pts.json"
    pts.write_text("[]")
    code, out, err = run_cli(capsys, "pushout", "--points", str(pts), "--grid-R",
                             "1", "--m", "2", "--n", n)
    assert (code, out) == (1, "")
    assert "grid dimension must be an int >= 1" in err


@pytest.mark.parametrize("points", [[["a", 0]], {"x": 1}, [5], ["12"], [["1/0", 0]]])
def test_pushout_rejects_malformed_points(capsys, tmp_path, points):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(points))
    code, out, err = run_cli(capsys, "pushout", "--points", str(pts), "--grid-R",
                             "1", "--m", "2", "--n", "2")
    assert code == 1
    assert out == ""
    assert str(pts) in err


def test_centers_in_family_reads_its_points(capsys, cube_path, tmp_path):
    pts = tmp_path / "centers.json"
    pts.write_text(json.dumps([["1/16", "1/16"], [0.5, 0.5]]))
    code, out, _ = run_cli(capsys, "content", "--space", cube_path, "--m", "2",
                           "--family", "centers-in", "--family-file", str(pts))
    assert code == 0
    assert json.loads(out)["result"]["value_upper"]


@pytest.mark.parametrize("points", [[["a", 0]], {"x": 1}, [5], ["12"], [["1/0", 0]]])
def test_centers_in_family_rejects_malformed_points(capsys, cube_path, tmp_path, points):
    pts = tmp_path / "centers.json"
    pts.write_text(json.dumps(points))
    code, out, err = run_cli(capsys, "content", "--space", cube_path, "--m", "2",
                             "--family", "centers-in", "--family-file", str(pts))
    assert code == 1
    assert out == ""
    assert str(pts) in err


def test_lw_and_cube_eq(capsys, tmp_path):
    path = tmp_path / "dumb.json"
    save_space(make_dumbbell(), str(path))
    code, out, _ = run_cli(capsys, "lw-check", "--space", str(path))
    assert code == 0
    assert json.loads(out)["report"]["ok"] is True

    code, out, _ = run_cli(capsys, "cube-eq", "--n", "2")
    assert code == 0
    assert json.loads(out)["report"]["equality"] is True


def test_width_subcommands(capsys, tmp_path):
    path = tmp_path / "dumb.json"
    save_space(make_dumbbell(), str(path))
    code, out, _ = run_cli(capsys, "width", "--space", str(path), "--m", "2",
                           "--budget", "60")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["trivial"] is False


@pytest.mark.parametrize("command, extra", [("width", ())])
def test_width_budget_zero_and_negative(capsys, tmp_path, command, extra):
    path = tmp_path / "dumb.json"
    save_space(make_dumbbell(), str(path))
    code, out, _ = run_cli(capsys, command, "--space", str(path), "--m", "2",
                           *extra, "--budget", "0")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["trivial"] is True
    assert doc["result"]["bound"] == "7/4"  # the diameter

    code, out, err = run_cli(capsys, command, "--space", str(path), "--m", "2",
                             *extra, "--budget", "-3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


@pytest.mark.parametrize("argv, message", [
    (("width", "--space", "SPACE", "--m", "1.5"), "width index needs integer m >= 1"),
    (("width", "--space", "SPACE", "--m", "abc"), "--m: not a number"),
    (("width", "--space", "SPACE", "--m", "3/2", "--budget", "0"),
     "width index needs integer m >= 1"),
    (("cone", "--cover", "COVER", "--apex", "0,0", "--m", "2", "--R", "abc"),
     "--R: not a number"),
    (("cone", "--cover", "COVER", "--apex", "0,0", "--m", "2", "--R", "1/0"),
     "--R: not a number"),
    (("content", "--space", "SPACE", "--m", "abc"), "--m: not a number"),
    (("content", "--space", "SPACE", "--m", "1/0"), "--m: not a number"),
    (("content", "--space", "SPACE", "--m", "1", "--radius-cap", "x"),
     "--radius-cap: not a number"),
    (("decompose", "--space", "SPACE", "--m", "2", "--eps", "tiny"), "--eps: not a number"),
    (("cube-eq", "--n", "2", "--delta", "1/0"), "--delta: not a number"),
    (("cube-eq", "--n", "2", "--delta", "0"), "delta must be positive"),
    (("content", "--space", "SPACE", "--m=-1", "--exact"), "needs a finite m >= 0"),
    (("content", "--space", "SPACE", "--m=-1/2"), "needs a finite m >= 0"),
    (("cube-eq", "--n", "1"), "cube equality needs dimension n >= 2, got 1"),
    (("cube-eq", "--n", "2", "--delta", "3"), "cube equality needs delta <= 1, got delta = 3"),
    (("fill", "--space", "SPACE", "--m", "78"), "the constants at m = 78 overflow a float"),
    (("fill", "--space", "SPACE", "--m", "80"), "the constants at m = 80 overflow a float"),
    (("decompose", "--space", "SPACE", "--m", "80"), "the constants at m = 80 overflow a float"),
])
def test_malformed_numeric_options_are_input_errors(capsys, tmp_path, argv, message):
    path = tmp_path / "cube.json"
    save_space(make_cube(2, 2, Fraction(1, 4)), str(path))
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({"balls": [{"center": ["1/2", "0"], "radius": "1/4"}]}))
    argv = [{"SPACE": str(path), "COVER": str(cover)}.get(a, a) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("extra", [(), ("--budget", "0")])
def test_integral_width_index_reports_as_an_integer(capsys, tmp_path, extra):
    path = tmp_path / "cube.json"
    save_space(make_cube(2, 2, Fraction(1, 4)), str(path))
    outs = [run_cli(capsys, "width", "--space", str(path), "--m", m, *extra)
            for m in ("2", "2.0", "4/2")]
    assert outs[0][0] == 0
    assert outs[1] == outs[2] == outs[0]


def test_coarea_subcommand(capsys, tmp_path):
    path = tmp_path / "cube.json"
    save_space(make_cube(2, 4, Fraction(1, 4)), str(path))
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({
        "m": 2,
        "balls": [{"center": ["1/2", "1/2"], "radius": "1/2"}],
        "target": [[i, j] for i in range(4) for j in range(4)],
    }))
    code, out, _ = run_cli(capsys, "coarea", "--space", str(path), "--f",
                           "dist:1/8,1/8", "--cover", str(cover), "--m", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["integral_ok"] and doc["slice_cost_ok"]
    assert _report_digest(doc) == "073f2cf3a32844a3"


@pytest.mark.parametrize("cover_doc", [{}, {"m": 2}, {"m": 1}])
def test_coarea_bound_is_priced_at_the_command_m(capsys, tmp_path, cover_doc):
    # one ball of radius 4 over the 8x8 square of side-1 cells: the bound is
    # 2 lip 4^m at --m 2, 32, whatever m the cover file holds (1 when none)
    path = tmp_path / "cube.json"
    save_space(make_cube(2, 8, Fraction(1)), str(path))
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({**cover_doc, "balls": [{"center": [4, 4], "radius": 4}]}))
    code, out, _ = run_cli(capsys, "coarea", "--space", str(path), "--f", "dist:0,0",
                           "--cover", str(cover), "--m", "2")
    doc = json.loads(out)
    assert (code, doc["integral"], doc["integral_bound"]) == (0, 32, 32.0)


def test_coarea_reports_a_ball_holding_no_domain_cell_as_null(capsys, tmp_path):
    # the 8x8 square's 64 cells plus the unoccupied (8, 0): the ball at
    # (17/16, 1/16) holds that cell, and the one at (3, 3) holds none.  The
    # command raised TypeError on the second ball's missing interval.
    path = tmp_path / "cube2.json"
    save_space(make_cube(2, 8), str(path))
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({
        "m": 2,
        "balls": [{"center": ["1/2", "1/2"], "radius": "1/2"},
                  {"center": ["17/16", "1/16"], "radius": "1/16"},
                  {"center": [3, 3], "radius": "1/16"}],
        "target": [[i, j] for i in range(8) for j in range(8)] + [[8, 0]],
    }))
    code, out, _ = run_cli(capsys, "coarea", "--space", str(path), "--f", "dist:0,0",
                           "--cover", str(cover), "--m", "2")
    doc = json.loads(out)
    assert code == 0
    assert doc["profile"]["intervals"] == [[0, 1], [1, "9/8"], None]
    assert (doc["integral"], doc["best_R"], doc["slice_cost"], doc["slice_cells"]) == (
        "65/128", "17/16", "1/16", 1)


def test_corpus_suite(capsys, tmp_path):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    save_space(make_cube(2, 4, Fraction(1, 4)), str(fixtures / "a.json"))
    save_space(make_dumbbell(), str(fixtures / "b.json"))
    code, out, _ = run_cli(capsys, "corpus", "--dir", str(fixtures),
                           "--suite", "invariants")
    assert code == 0
    doc = json.loads(out)
    assert doc["fixtures"] == 2 and doc["failures"] == 0

    code, out, _ = run_cli(capsys, "corpus", "--dir", str(fixtures),
                           "--suite", "lw")
    assert code == 0


def test_corpus_empty_dir(capsys, tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code, out, _ = run_cli(capsys, "corpus", "--dir", str(empty))
    assert code == 0
    assert json.loads(out)["fixtures"] == 0


def test_corpus_missing_dir(capsys, tmp_path):
    code, _, err = run_cli(capsys, "corpus", "--dir", str(tmp_path / "nope"))
    assert code == 1


def test_corpus_corrupted_fixture(capsys, tmp_path):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    (fixtures / "broken.json").write_text("{oops")
    code, _, err = run_cli(capsys, "corpus", "--dir", str(fixtures))
    assert code == 1
    assert "broken.json" in err


def test_determinism_byte_identical(capsys, cube_path, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code, _, _ = run_cli(capsys, "content", "--space", cube_path, "--m",
                             "1", "--exact", "--out", str(out))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def save_config(cfg, path):
    path.write_text(json.dumps(dataclasses.asdict(cfg), indent=2, sort_keys=True) + "\n")


def test_config_roundtrip_and_env(tmp_path, monkeypatch, capsys, cube_path):
    cfg = RunConfig(node_budget=12345, step_cap=7)
    path = tmp_path / "cfg.json"
    save_config(cfg, path)
    assert RunConfig.load(str(path)) == cfg

    monkeypatch.setenv("HCFILL_CONFIG", str(path))
    assert RunConfig.load() == cfg
    code, _, _ = run_cli(capsys, "content", "--space", cube_path, "--m", "1",
                         "--exact")
    assert code == 0

    with pytest.raises(InputError):
        RunConfig.from_dict({"unknown_knob": 1})
    # knobs that nothing read were removed, so a config naming one is rejected
    with pytest.raises(InputError):
        RunConfig.from_dict({**dataclasses.asdict(cfg), "eps_rel": 1e-3})
    # the coarea slack and the pushout thresholds are constants now
    for knob, value in (("tolerance", 1e-9), ("c0_base", 0.25), ("ratio_ceiling_base", 10.0)):
        with pytest.raises(InputError, match=f"unknown config keys: \\['{knob}'\\]"):
            RunConfig.from_dict({**dataclasses.asdict(cfg), knob: value})
    with pytest.raises(InputError):
        RunConfig(node_budget=0)
    # width_budget selected nothing: every positive value gave the same report
    with pytest.raises(InputError, match="width_budget"):
        RunConfig.from_dict({**dataclasses.asdict(cfg), "width_budget": 2000})
    # seed only drove the cone coverage sampler, which an exact check replaced
    assert len(dataclasses.asdict(cfg)) == 3
    with pytest.raises(InputError, match=r"unknown config keys: \['seed'\]"):
        RunConfig.from_dict({**dataclasses.asdict(cfg), "seed": 0})


@pytest.mark.parametrize("knob, value, message", [
    ("node_budget", 2.5, "must be an integer"),
    ("node_budget", True, "not a bool"),
    ("node_budget", "100", "must be an integer"),
    ("step_cap", 2.5, "must be an integer"),
    ("pushout_candidates", 2.5, "must be an integer"),
    ("step_cap", 0, "must be positive"),
])
def test_config_knobs_need_their_type(knob, value, message):
    with pytest.raises(InputError, match=message):
        RunConfig(**{knob: value})


def test_config_file_with_a_fractional_budget_is_an_input_error(capsys, tmp_path,
                                                                 cube_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"node_budget": 2.5}))
    code, out, err = run_cli(capsys, "--config", str(path), "content", "--space",
                             cube_path, "--m", "1", "--exact")
    assert code == 1
    assert out == ""
    assert err == "error: config knob node_budget must be an integer\n"


@pytest.mark.parametrize("text", ["5", "null", '"abc"', "[]"])
def test_config_document_that_is_not_an_object_is_an_input_error(capsys, tmp_path,
                                                                 cube_path, text):
    path = tmp_path / "cfg.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "--config", str(path), "content", "--space",
                             cube_path, "--m", "1")
    assert (code, out) == (1, "")
    assert err == "error: a config document must be a JSON object\n"


def test_config_file_naming_a_removed_knob_is_an_input_error(capsys, tmp_path, cube_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"tolerance": 1e-9}))
    code, out, err = run_cli(capsys, "--config", str(path), "content", "--space",
                             cube_path, "--m", "1")
    assert (code, out) == (1, "")
    assert err == "error: unknown config keys: ['tolerance']\n"


@pytest.mark.parametrize("argv", [
    ("content",),
    ("width", "--space", "s.json", "--m", "2", "--budget", "abc"),
    ("nosuch",),
    ("local-width", "--space", "s.json", "--m", "2", "--R", "1"),
])
def test_usage_errors_exit_1(capsys, argv):
    """The parser's own errors are input errors, as the exit-code contract
    says; 2 is kept for a certified inequality that failed."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "error: " in capsys.readouterr().err


@pytest.mark.parametrize("argv", [("--help",), ("width", "--help")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert "usage: hcfill" in capsys.readouterr().out


@pytest.mark.parametrize("brackets, verdict, code", [
    # (lower, upper) of HC_1 and of HC_2 on the unit square, delta 1/4
    (((Fraction(1, 2),) * 2, (Fraction(1, 4),) * 2), True, 0),
    (((Fraction(1, 2),) * 2, (Fraction(1, 8), Fraction(1, 4))), True, 0),
    (((Fraction(1, 4), Fraction(1, 2)), (Fraction(1, 8), Fraction(1, 4))), None, 0),
    (((Fraction(1, 4),) * 2, (Fraction(1, 8), Fraction(1, 4))), False, 2),
])
def test_invariant_suite_reads_the_sound_side_of_each_bracket(
        capsys, tmp_path, monkeypatch, brackets, verdict, code):
    """HC_1^2 >= HC_2 holds when upper(HC_2) <= lower(HC_1)^2, fails when
    lower(HC_2) > upper(HC_1)^2, and is undecided in between: the third
    case passed when both sides read the upper values."""
    import dataclasses

    import hcfill.cli
    from hcfill.errors import VerificationError

    real = hcfill.cli.exact_content

    def bracketed(space, target, m, **kwargs):
        lower, upper = brackets[m - 1]
        return dataclasses.replace(real(space, target, m, **kwargs), value_lower=lower,
                                   value_upper=upper, optimal=lower == upper)

    monkeypatch.setattr(hcfill.cli, "exact_content", bracketed)
    space = make_cube(2, 4, Fraction(1, 4))
    if verdict is False:
        with pytest.raises(VerificationError) as exc:
            hcfill.cli._suite_invariants(space, RunConfig())
        assert exc.value.report["dimension_comparison"] is False
    else:
        row = hcfill.cli._suite_invariants(space, RunConfig())
        assert row["checks"].pop("dimension_comparison") is verdict
        assert all(row["checks"].values())
        assert row["ok"] is (verdict is True)
        assert row.get("undecided") == (None if verdict else ["dimension_comparison"])

    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    save_space(space, str(fixtures / "a.json"))
    got, out, _ = run_cli(capsys, "corpus", "--dir", str(fixtures), "--suite", "invariants")
    doc = json.loads(out)
    assert (got, doc["failures"], doc["rows"][0]["ok"]) == (code, code // 2, verdict is True)


def test_family_file_required(capsys, cube_path):
    code, _, err = run_cli(capsys, "content", "--space", cube_path, "--m", "1",
                           "--family", "fixed")
    assert code == 1


def test_verification_failure_exit_code(capsys, cube_path, monkeypatch):
    from hcfill.errors import VerificationError

    def boom(*args, **kwargs):
        raise VerificationError("synthetic violation", {"lhs": 2, "rhs": 1})

    monkeypatch.setattr("hcfill.cli.decompose", boom)
    code, _, err = run_cli(capsys, "decompose", "--space", cube_path, "--m", "2")
    assert code == 2
    assert "synthetic violation" in err
    assert "counterexample" in err


def test_ragged_csv_net_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("0,0\n1\n5,5\n")
    code, out, err = run_cli(capsys, "content", "--space", str(path), "--m", "1")
    assert (code, out) == (1, "")
    assert err == "error: net points must all have the same number of coordinates\n"


@pytest.mark.parametrize("name, text, where", [
    ("letters.csv", "0,0\na,b\n", "net point: not a row of numbers: ['a', 'b']"),
    ("net.json", json.dumps({"variant": "net", "points": [[0, 0], ["x", 1]]}),
     "net point: not a row of numbers: ['x', 1]"),
    ("voxel.json", json.dumps({"variant": "voxel", "n": 2, "delta": "1",
                               "cells": [[0, 0], ["a", 0]]}),
     "voxel cell: not a row of numbers: ['a', 0]"),
    # a fractional coordinate is refused, not truncated
    ("fractional.json", json.dumps({"variant": "voxel", "n": 2, "delta": "1",
                                    "cells": [[0, 0], [0.5, 0]]}),
     "voxel cell: not a row of numbers: [0.5, 0]"),
])
def test_non_numeric_coordinates_are_an_input_error(capsys, tmp_path, name, text, where):
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, "content", "--space", str(path), "--m", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.endswith(where + "\n")


@pytest.mark.parametrize("doc, message", [
    ({"variant": "voxel", "n": 2}, "space document lacks the 'delta' field"),
    ({"variant": "voxel", "n": 2, "delta": "1/8"}, "space document lacks the 'cells' field"),
    ({"variant": "voxel", "n": "two", "delta": "1/8", "cells": [[0, 0]]},
     "space document field 'n': not a valid value: 'two'"),
    ({"variant": "net", "points": [[0, 0], [1, 1]], "eps_net": "x"},
     "space document field 'eps_net': not a valid value: 'x'"),
    # a fractional or bool dimension is refused, not truncated to 2 or 1
    ({"variant": "voxel", "n": 2.7, "delta": "1/8", "cells": [[0, 0], [1, 0]]},
     "space document field 'n': not a valid value: 2.7"),
    ({"variant": "voxel", "n": True, "delta": "1/8", "cells": [[0], [1]]},
     "space document field 'n': not a valid value: True"),
])
def test_missing_or_non_numeric_fields_are_an_input_error(capsys, tmp_path, doc, message):
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "content", "--space", str(path), "--m", "1")
    assert (code, out, err) == (1, "", f"error: {message}\n")


_CONTENT = ("content", "--space", "{}", "--m", "1")


@pytest.mark.parametrize("name, text, argv, message", [
    ("cover.json", '{"balls": [{"center": ["1/2", "0"], "radius": Infinity}]}',
     ("cone", "--cover", "{}", "--apex", "0,0", "--R", "1", "--m", "2"),
     "a ball needs a numeric center and radius"),
    ("points.json", '[[Infinity, 0], ["1/2", "1/3"]]',
     ("pushout", "--points", "{}", "--grid-R", "1", "--m", "2", "--n", "2"),
     "point: not a row of numbers"),
    ("delta.json", '{"variant": "voxel", "n": 1, "delta": Infinity, "cells": [[0]]}',
     _CONTENT, "field 'delta': not a valid value"),
    ("inf.csv", "0,0\ninf,0\n", _CONTENT, "net point: not a row of numbers"),
    ("nan.csv", "0,0\nnan,0\n", _CONTENT, "net point: not a row of numbers"),
    ("eps.json", '{"variant": "net", "points": [[0, 0]], "eps_net": Infinity}',
     _CONTENT, "field 'eps_net': not a valid value"),
    ("matrix.json", '{"variant": "net", "metric": "matrix", "points": [[0], [1]], '
                    '"matrix": [[0, NaN], [NaN, 0]]}',
     _CONTENT, "distance matrix row: not a row of numbers"),
    ("bool.json", '{"variant": "net", "points": [[true, 0], [0, 0], [3, 1]], "eps_net": false}',
     _CONTENT, "net point: not a row of numbers"),
    ("bool_eps.json", '{"variant": "net", "points": [[0, 0], [3, 1]], "eps_net": false}',
     _CONTENT, "field 'eps_net': not a valid value"),
    ("bool_delta.json", '{"variant": "voxel", "n": 1, "delta": true, "cells": [[0]]}',
     ("content", "--space", "{}", "--exact", "--m", "1"),
     "field 'delta': not a valid value: True"),
    ("bool_center.json", '{"balls": [{"center": [true, "0"], "radius": "1/4"}]}',
     ("cone", "--cover", "{}", "--apex", "0,0", "--R", "1", "--m", "2"),
     "a ball needs a numeric center and radius"),
])
def test_non_finite_numbers_in_input_documents_are_input_errors(
        capsys, tmp_path, name, text, argv, message):
    """JSON `Infinity` and `NaN` and CSV `inf` and `nan` are refused where
    they are read, with exit 1, neither escaping as `OverflowError` nor
    reaching a solver.  So are JSON booleans in a net, which loaded as 1.0
    and 0.0, and as a voxel delta or a cover ball's centre, which loaded as
    1 and 0."""
    path = tmp_path / name
    path.write_text(text)
    code, out, err = run_cli(capsys, *(arg.format(path) for arg in argv))
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and message in err


def test_matrix_net_loader(tmp_path):
    from hcfill.space import load_matrix_net

    path = tmp_path / "m.csv"
    path.write_text("0,1,2\n1,0,1.5\n2,1.5,0\n")
    net = load_matrix_net(str(path), eps_net=0.1)
    assert net.metric == "matrix"
    assert net_point_dist(net, 0, 2) == 2
    path.write_text("0,1\n1,x\n")
    with pytest.raises(InputError, match=r"distance matrix row: not a row of numbers: \['1', 'x'\]"):
        load_matrix_net(str(path))
    path.write_text("0,inf\ninf,0\n")
    with pytest.raises(InputError, match=r"distance matrix row: not a row of numbers: \['0', 'inf'\]"):
        load_matrix_net(str(path))


def test_corpus_decompose_and_width_aggregates(capsys, tmp_path):
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    save_space(make_cube(2, 4, Fraction(1, 8)), str(fixtures / "a.json"))
    save_space(make_ring(6, Fraction(1, 8)), str(fixtures / "b.json"))
    code, out, _ = run_cli(capsys, "corpus", "--dir", str(fixtures),
                           "--suite", "decompose")
    assert code == 0
    doc = json.loads(out)
    assert "alpha_summary" in doc
    assert 1 / 12 < doc["alpha_summary"]["mean"] <= 1 + 1e-9

    code, out, _ = run_cli(capsys, "corpus", "--dir", str(fixtures),
                           "--suite", "width")
    assert code == 0
    assert "c_measured_summary" in json.loads(out)


def test_width_uses_config_node_budget(capsys, tmp_path, monkeypatch):
    import hcfill.width

    seen = []
    real = hcfill.width.exact_content

    def recording(*args, **kwargs):
        seen.append(kwargs["node_budget"])
        return real(*args, **kwargs)

    monkeypatch.setattr(hcfill.width, "exact_content", recording)
    space = tmp_path / "cube.json"
    save_space(make_cube(2, 2, Fraction(1, 8)), str(space))
    cfg = tmp_path / "cfg.json"
    save_config(RunConfig(node_budget=4321), cfg)
    code, _, _ = run_cli(capsys, "--config", str(cfg), "width", "--space",
                         str(space), "--m", "2", "--budget", "5")
    assert code == 0
    assert seen == [4321]


@pytest.mark.parametrize("module, argv", [
    ("width", ("corpus", "--suite", "width")),
    ("pushout", ("corpus", "--suite", "lw")),
    ("pushout", ("lw-check",)),
])
def test_width_and_lw_suites_use_config_node_budget(capsys, tmp_path, monkeypatch,
                                                    module, argv):
    import importlib

    solver = importlib.import_module(f"hcfill.{module}")
    seen = []
    real = solver.exact_content

    def recording(*args, **kwargs):
        seen.append(kwargs.get("node_budget"))
        return real(*args, **kwargs)

    monkeypatch.setattr(solver, "exact_content", recording)
    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    space = fixtures / "cube.json"
    save_space(make_cube(2, 2, Fraction(1, 8)), str(space))
    cfg = tmp_path / "cfg.json"
    save_config(RunConfig(node_budget=4321), cfg)
    where = ("--dir", str(fixtures)) if argv[0] == "corpus" else ("--space", str(space))
    code, _, _ = run_cli(capsys, "--config", str(cfg), argv[0], *where, *argv[1:])
    assert code == 0
    assert seen and set(seen) == {4321}


@pytest.mark.parametrize("argv", [
    ("width", "--m", "1"),
    ("fill", "--m", "2"),
    ("coarea", "--f", "dist:0,0", "--cover", "unread.json", "--m", "2"),
    ("lw-check",),
])
def test_voxel_only_subcommands_refuse_nets(capsys, tmp_path, argv):
    path = tmp_path / "net.csv"
    path.write_text("0,0\n1,0\n0,1\n")
    code, _, err = run_cli(capsys, argv[0], "--space", str(path), *argv[1:])
    assert code == 1
    assert err.startswith("error: ") and "needs the voxel model" in err


@pytest.mark.parametrize("suite", ["invariants", "decompose", "width", "lw"])
def test_corpus_suites_skip_net_fixtures(capsys, tmp_path, suite):
    from hcfill.space import NetSpace

    fixtures = tmp_path / "fx"
    fixtures.mkdir()
    save_space(NetSpace("linf", ((0.0, 0.0), (1.0, 0.0))), str(fixtures / "a.json"))
    save_space(make_cube(2, 4, Fraction(1, 8)), str(fixtures / "b.json"))
    code, out, _ = run_cli(capsys, "corpus", "--dir", str(fixtures), "--suite", suite)
    assert code == 0
    doc = json.loads(out)
    assert (doc["fixtures"], doc["failures"]) == (2, 0)
    assert doc["rows"][0] == {"fixture": "a.json", "skipped": "net fixture"}
    assert doc["rows"][1]["ok"] is True
