"""The committed paired-run records, `BENCH_<n>.json` at the repository
root: every run in one names exactly the end-to-end metrics that
`BENCHMARK.json` declares, with both sides' medians and quartiles and a
won/tied/lost count per pair."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_records_name_the_declared_metrics(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"]]
    workloads = {w["name"] for w in declared["workloads"]}
    record = json.loads(path.read_text())
    assert record["runs"]
    for run in record["runs"]:
        assert run["workload"] in workloads
        assert list(run["metrics"]) == names
        for metric in run["metrics"].values():
            for side in ("parent", "change"):
                assert metric[side]["q1"] <= metric[side]["median"] <= metric[side]["q3"]
            assert metric["pairs_won"] + metric["pairs_tied"] + metric["pairs_lost"] == run["pairs"]
        assert isinstance(run["digests_equal"], bool)
