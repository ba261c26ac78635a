#!/usr/bin/env python3
"""Regenerate perfbench/reference.json: the cheapest cover cost found for
every content instance of the default-seed runs, by exact_content with a
large node budget.

    python3 perfbench/make_reference.py

Takes a few minutes on two cores (the dumbbell alone runs 20,000 nodes).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import hcfill  # noqa: E402
from hcfill.exact import fmt_scalar  # noqa: E402

import workloads  # noqa: E402

DEFAULT_SEED = 0
NODE_BUDGET = 20000


def main() -> int:
    table = {}
    for workload in ("content_root", "content_bnb"):
        ops = workloads.build(workload, DEFAULT_SEED, workloads.NOMINAL_SECONDS)
        for inst in {op.instance.id: op.instance for op in ops}.values():
            res = hcfill.exact_content(inst.space, None, inst.m, node_budget=NODE_BUDGET)
            nodes = res.certificate["nodes"]
            # nets never report optimal; a search that ended within its
            # budget still found the optimum over the candidate family
            searched = nodes <= NODE_BUDGET
            table[f"{workload}/{inst.id}"] = {
                "cost": fmt_scalar(res.witness.cost),
                "optimal": res.optimal or searched,
                "nodes": nodes,
            }
            print(workload, inst.id, table[f"{workload}/{inst.id}"], flush=True)
    doc = {"seed": DEFAULT_SEED, "seconds": workloads.NOMINAL_SECONDS,
           "node_budget": NODE_BUDGET, "best_known": table}
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
