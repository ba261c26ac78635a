"""The benchmark's own test: machine-independent counters repeat exactly
between two traced runs of one seed, the default seed reproduces the
ROADMAP baseline counts, traced and untraced reports agree, and the
benchmark refuses to run without the library's sources.

    python3 -m pytest -q perfbench/test_perfbench.py

It runs every workload traced twice with --seconds 1 (the fixed instances
plus one of each seeded kind); allow about four minutes on two cores.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("content_root", "content_bnb", "fill", "width")


def bench(workload: str, trace: int, seed: int = 0, seconds: float = 1) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True, timeout=600, cwd=ROOT,
    )
    lines = out.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: (bench(w, 1), bench(w, 1)) for w in WORKLOADS}


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _op(run: dict, op_id: str) -> dict:
    return next(r for r in run["ops"] if r["op"] == op_id)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_exactly(traced, declared, workload):
    (run_a, res_a), (run_b, res_b) = traced[workload]
    assert res_a["correct"] and res_b["correct"]
    assert run_a["summary"]["digest_mismatches"] == 0
    assert run_a["counts"] == run_b["counts"]
    units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    for name, unit in units.items():
        if unit == "count":
            assert res_a["metrics"][name] == res_b["metrics"][name], name
    assert [r.get("digest") for r in run_a["ops"]] == [r.get("digest") for r in run_b["ops"]]
    assert [r.get("result") for r in run_a["ops"]] == [r.get("result") for r in run_b["ops"]]


def test_baseline_counts(traced):
    root = traced["content_root"][0][0]
    for m in (1, 2, 3):
        assert _op(root, f"cube3-8-m{m}:exact")["result"]["nodes"] == 1
    bnb = traced["content_bnb"][0][0]
    assert _op(bnb, "blob3d-80-s3-m2:exact")["result"]["nodes"] == 2784
    fill = traced["fill"][0][0]
    for name in ("ring16", "square8", "dumbbell", "blob77", "box3d", "box4d"):
        assert _op(fill, f"c7-{name}:fill")["result"] == {
            "steps": 1, "balls": 1, "empty_slices": 1, "residue": False}


def test_wrappers_cover_every_import_binding(traced):
    patched = set(traced["fill"][0][0]["patched"])
    for where in ("content", "decomposition", "width", "pushout"):
        assert f"hcfill.{where}.exact_content" in patched
    for where in ("space", "content", "decomposition", "width"):
        assert f"hcfill.{where}.ball_members" in patched
    for where in ("cone", "decomposition"):
        assert f"hcfill.{where}.cone_covering" in patched
    assert "hcfill.decomposition.TildeContent.solve" in patched


def test_refuses_to_run_without_sources(tmp_path):
    bench_dir = tmp_path / "perfbench"
    bench_dir.mkdir()
    for name in os.listdir(HERE):
        if os.path.isfile(os.path.join(HERE, name)):
            (bench_dir / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    out = subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "fill", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
