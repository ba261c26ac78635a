#!/usr/bin/env python3
"""hcfill benchmark.

    python3 perfbench/run.py --workload content_root --seed 0 --seconds 20 --trace 0

Runs one workload's operation list once, in this process, one operation at
a time (a closed loop with one caller), and checks every result untimed
after its operation.  Operations are timed in CPU seconds of this process,
scaled by a speed probe taken between operations.
With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs the
list untraced in a fresh interpreter, then traced here, and prints the
per-layer metrics.  Metric names and units are the ones BENCHMARK.json
declares.  The last line of standard output is
a JSON object with the keys correct, attempted, failed and metrics; the line
before it is the run record (seed, instances, per-operation times, digests,
results and failures).  See perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(HERE, "reference.json")
DECLARATION = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("content_root", "content_bnb", "fill", "width")
SETUP_PROBES = 7
TAIL_BEYOND = 10  # operations that must lie beyond the tail percentile
PROBE_TIMEOUT_S = 60
# CPU time of this process: single-threaded and free of I/O, an operation's
# CPU time is its wall time without the time the machine gave to others
CLOCK = time.process_time
# The speed probe: a fixed loop run before every operation.  The machine's
# speed drifts by up to 1.7x in CPU time over minutes as other guests load
# the host; each operation's CPU time is scaled by PROBE_REF_S over the
# median of the PROBE_WINDOW probes on either side of it.
PROBE_LOOPS = 20000
PROBE_REF_S = 0.0045  # the probe's CPU time on a quiet two-core VM
PROBE_WINDOW = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: "setup" stops after set-up (the set-up timing probe) and
    # "untraced" prints only the run record (the traced run's reference)
    p.add_argument("--phase", choices=("run", "setup", "untraced"), default="run")
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_library():
    """Import hcfill from this checkout's src/ and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hcfill", "__init__.py")):
        sys.exit(f"perfbench: no hcfill sources under {SRC}")
    sys.path.insert(0, SRC)
    import hcfill

    if not os.path.abspath(hcfill.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported hcfill from {hcfill.__file__}, not {SRC}")


def setup(args):
    """Everything before the first operation after the library import:
    fixtures and the reference table."""
    import checks
    import workloads

    ops = workloads.build(args.workload, args.seed, args.seconds)
    with open(REFERENCE) as fh:
        table = checks.reference_table(json.load(fh), args.workload, args.seed, args.seconds)
    return ops, table


def speed_probe() -> float:
    """CPU seconds of a fixed pure-Python loop (integer, bit and dict
    operations): how fast the machine runs the interpreter right now.  The
    collector is off so that the library's heap cannot slow the probe."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = CLOCK()
        acc, d = 0, {}
        for i in range(PROBE_LOOPS):
            x = (i * 2654435761) & 0xFFFFFFFF
            acc ^= x >> (i & 7)
            d[i & 255] = acc
        return CLOCK() - t0
    finally:
        if enabled:
            gc.enable()


def scaled_times(raw: list, probes: list) -> list:
    """Each operation's CPU time at the probe's reference speed.  Operation
    i ran between probes i and i + 1."""
    out = []
    for i, seconds in enumerate(raw):
        window = probes[max(0, i + 1 - PROBE_WINDOW): i + 1 + PROBE_WINDOW]
        out.append(seconds * PROBE_REF_S / statistics.median(window))
    return out


def run_ops(args, ops, table, recorder=None):
    """Run every operation once, timed, each followed by its untimed checks.
    Returns the run record."""
    import checks

    summaries, records, probes = [], [], []
    for i, op in enumerate(ops):
        probes.append(speed_probe())
        if recorder is not None:
            recorder.start_op(i)
            recorder.active = True
        w0, t0 = time.perf_counter(), CLOCK()
        try:
            result = op.call()
            text = checks.serialise(result)
            error = None
        except Exception:  # the loop must go on; the failure is recorded
            result, text, error = None, None, traceback.format_exc(limit=3)
        elapsed, wall = CLOCK() - t0, time.perf_counter() - w0
        if recorder is not None:
            recorder.active = False
        rec = {"op": op.id, "kind": op.kind, "instance": op.instance.id,
               "s": elapsed, "wall_s": wall, "probe_s": probes[-1]}
        if error is None:
            facts, fails = checks.check_op(op, result)
            rec.update(digest=checks.digest(text), result=facts)
        else:
            fails = [("raised", error)]
        rec["failures"] = [list(f) for f in fails]
        # keep only what the cross-operation checks need, so that the peak
        # memory is that of one operation at a time
        summaries.append(checks.bound_summary(op, result))
        records.append(rec)
        del result, text

    probes.append(speed_probe())
    for rec, scaled in zip(records, scaled_times([r["s"] for r in records], probes)):
        rec["scaled_s"] = scaled

    cross = checks.lower_bound_failures(ops, summaries, table)
    for rec in records:
        rec["failures"] += [list(f) for f in cross.get(rec["op"], [])]

    instances = {}
    for op in ops:
        instances.setdefault(op.instance.id, op.instance.record())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "instances": list(instances.values()),
        "ops": records,
        "batch_cpu_s": sum(r["scaled_s"] for r in records),
        "batch_raw_cpu_s": sum(r["s"] for r in records),
        "batch_wall_s": sum(r["wall_s"] for r in records),
        "probe_median_s": statistics.median(probes),
    }


def summarise(run: dict) -> dict:
    """Counts, correctness and the per-operation time statistics."""
    import checks

    failed = [r for r in run["ops"] if r["failures"]]
    unexpected = [r for r in failed
                  if any(kind != checks.KNOWN_DEFECT for kind, _ in r["failures"])]
    times = sorted(r["scaled_s"] for r in run["ops"])
    n = len(times)
    tail_rank = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    exact = [r["result"]["tightness"] for r in run["ops"]
             if r["kind"] == "exact_content" and "result" in r]
    widths = [r["result"]["ratio"] for r in run["ops"]
              if r["kind"] == "width_bound" and "result" in r]
    return {
        "attempted": n,
        "failed": len(failed),
        "correct": not unexpected,
        "op_p50_cpu_s": statistics.median(times),
        "op_tail_cpu_s": times[tail_rank],
        "op_tail_pct": 100.0 * (tail_rank + 1) / n,
        "bracket_tightness": statistics.fmean(exact) if exact else 1.0,
        "width_ratio": math.exp(statistics.fmean(map(math.log, widths))) if widths else 1.0,
    }


def _child(args, phase: str) -> list[str]:
    return [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", repr(args.seconds), "--phase", phase]


def setup_seconds(args) -> list[float]:
    """Set-up time of fresh interpreters: the CPU time each has used when its
    set-up is done, interpreter start-up included, scaled by speed probes
    taken right after it."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(_child(args, "setup"), capture_output=True, text=True,
                             check=True, timeout=PROBE_TIMEOUT_S)
        samples.append(float(out.stdout.split()[-1]))
    return samples


def untraced_reference(args) -> dict:
    out = subprocess.run(_child(args, "untraced"), capture_output=True, text=True,
                         check=True, timeout=170)
    return json.loads(out.stdout.splitlines()[-1])


def declared(kind: str) -> list[tuple[str, str]]:
    """(name, unit) of the `end_to_end` or `per_layer` metrics, in order."""
    with open(DECLARATION) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    if args.phase == "setup":
        setup(args)
        spent = CLOCK()
        probe = statistics.median(speed_probe() for _ in range(2 * PROBE_WINDOW))
        print(repr(spent * PROBE_REF_S / probe))
        return 0
    probes = setup_seconds(args) if args.phase == "run" and args.trace == 0 else []
    base = untraced_reference(args) if args.trace == 1 else None
    ops, table = setup(args)

    if args.trace == 0:
        run = run_ops(args, ops, table)
        if args.phase == "untraced":
            print(json.dumps(run))
            return 0
        s = summarise(run)
        values = {
            **s,
            "setup_s": statistics.median(probes),
            "batch_cpu_s": run["batch_cpu_s"],
            "ok_frac": (s["attempted"] - s["failed"]) / s["attempted"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in declared("end_to_end")}
        run["summary"] = {**s, "setup_samples_s": probes,
                          "failed_frac": s["failed"] / s["attempted"],
                          "bracket_gap": 1.0 - s["bracket_tightness"]}
    else:
        import tracing

        rec = tracing.Recorder()
        patches = tracing.install(rec)
        try:
            run = run_ops(args, ops, table, rec)
        finally:
            tracing.uninstall(patches)
        mismatched = 0
        for mine, theirs in zip(run["ops"], base["ops"]):
            if mine.get("digest") != theirs.get("digest"):
                mine["failures"].append(["digest_differs_untraced",
                                         f"{mine.get('digest')} != {theirs.get('digest')}"])
                mismatched += 1
        s = summarise(run)
        metrics = tracing.layer_metrics(rec, run["batch_cpu_s"] / base["batch_cpu_s"] - 1.0,
                                        declared("per_layer"),
                                        PROBE_REF_S / run["probe_median_s"])
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        rec.write(trace_path)
        run["summary"] = {**s, "untraced_batch_cpu_s": base["batch_cpu_s"],
                          "digest_mismatches": mismatched,
                          "trace_hook_s": rec.hook_s}
        run["patched"] = sorted(f"{where}.{attr}" for _, attr, _, where in patches)
        run["counts"] = tracing.counts(rec)
        run["trace_file"] = os.path.relpath(trace_path, ROOT)

    print(json.dumps(run))
    print(json.dumps({"correct": s["correct"], "attempted": s["attempted"],
                      "failed": s["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
