import json
from fractions import Fraction

import pytest

from hcfill.cli import main
from hcfill.config import RunConfig
from hcfill.errors import InputError
from hcfill.shapes import make_cube, make_dumbbell, make_ring
from hcfill.space import save_space


@pytest.fixture()
def cube_path(tmp_path):
    path = tmp_path / "cube2.json"
    save_space(make_cube(2, 8, Fraction(1, 8)), str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


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


def test_cone_subcommand(capsys, tmp_path):
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps({
        "m": 1,
        "balls": [{"center": ["1/2", "0"], "radius": "1/4"}],
        "target": [],
    }))
    code, out, _ = run_cli(capsys, "cone", "--cover", str(cover), "--apex",
                           "0,0", "--R", "1", "--m", "2", "--variant",
                           "improved", "--samples", "300")
    assert code == 0
    doc = json.loads(out)
    assert doc["coverage"]["misses"] == 0


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


@pytest.mark.parametrize("points", [[["1/3", "2/7", "1/2"]], [["1/3"], ["3/5"]]])
def test_pushout_rejects_wrong_point_dimension(capsys, tmp_path, points):
    pts = tmp_path / "pts.json"
    pts.write_text(json.dumps(points))
    code, out, err = run_cli(capsys, "pushout", "--points", str(pts), "--grid-R",
                             "1", "--m", "2", "--n", "2")
    assert code == 1
    assert out == ""
    assert "points need n coordinates" in err


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

    code, out, _ = run_cli(capsys, "local-width", "--space", str(path), "--m",
                           "2", "--R", "1/2", "--budget", "40")
    assert code == 0
    assert json.loads(out)["report"]["max_ball_content_ratio"] > 0


@pytest.mark.parametrize("command, extra", [
    ("width", ()),
    ("local-width", ("--R", "1/2")),
])
def test_width_budget_zero_and_negative(capsys, tmp_path, command, extra):
    path = tmp_path / "dumb.json"
    save_space(make_dumbbell(), str(path))
    code, out, _ = run_cli(capsys, command, "--space", str(path), "--m", "2",
                           *extra, "--budget", "0")
    assert code == 0
    doc = json.loads(out)
    if command == "width":
        assert doc["result"]["trivial"] is True
        assert doc["result"]["bound"] == "7/4"  # the diameter
    else:
        assert doc["report"]["width_trivial"] is True
        assert doc["report"]["width_bound"] == doc["report"]["diameter"] == "7/4"

    code, out, err = run_cli(capsys, command, "--space", str(path), "--m", "2",
                             *extra, "--budget", "-3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "budget" in err


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


def test_config_roundtrip_and_env(tmp_path, monkeypatch, capsys, cube_path):
    cfg = RunConfig(node_budget=12345, seed=7)
    path = tmp_path / "cfg.json"
    cfg.save(str(path))
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
        RunConfig.from_dict({**cfg.to_dict(), "eps_rel": 1e-3})
    with pytest.raises(InputError):
        RunConfig(node_budget=0)


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


def test_matrix_net_loader(tmp_path):
    from hcfill.space import load_matrix_net

    path = tmp_path / "m.csv"
    path.write_text("0,1,2\n1,0,1.5\n2,1.5,0\n")
    net = load_matrix_net(str(path), eps_net=0.1)
    assert net.metric == "matrix"
    assert net.dist(0, 2) == 2


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


def test_local_width_uses_config_node_budget(capsys, tmp_path, monkeypatch):
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
    RunConfig(node_budget=4321).save(str(cfg))
    code, _, _ = run_cli(capsys, "--config", str(cfg), "local-width", "--space",
                         str(space), "--m", "2", "--R", "1/2", "--budget", "5")
    assert code == 0
    assert seen == [4321]


@pytest.mark.parametrize("argv", [
    ("width", "--m", "1"),
    ("fill", "--m", "2"),
    ("local-width", "--m", "1", "--R", "1"),
])
def test_voxel_only_subcommands_refuse_nets(capsys, tmp_path, argv):
    path = tmp_path / "net.csv"
    path.write_text("0,0\n1,0\n0,1\n")
    code, _, err = run_cli(capsys, argv[0], "--space", str(path), *argv[1:])
    assert code == 1
    assert err.startswith("error: ") and "needs the voxel model" in err
