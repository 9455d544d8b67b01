#!/usr/bin/env python3
"""Benchmark for kisin: run one workload's seeded instance list in a fresh
worker process, check every output, and print the metrics as one JSON line.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the same list runs once plainly and once with every layer's public functions
wrapped in timing spans, and the metrics are the per-layer ones; the spans are
written to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7  # fresh processes whose set-up times give setup_s (median)
DEADLINE_S = 170  # the whole run, including set-up probes and checks
TAIL_BEYOND = 10  # the tail latency has this many instances above it


def worker(mode, workload, instances, deadline, trace_file=None):
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload]
    if trace_file is not None:
        cmd.append(str(trace_file))
    proc = subprocess.run(
        cmd,
        input=json.dumps(instances),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        timeout=max(1.0, deadline - monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}: {proc.stderr[-2000:]}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return lines[:-1], lines[-1]["summary"]


def setup_seconds(workload, instances, deadline):
    """Median set-up time over fresh processes, after one unmeasured process
    that leaves the byte-code caches as every later run finds them."""
    worker("setup", workload, instances, deadline)
    samples = []
    for _ in range(SETUP_PROBES):
        _, summary = worker("setup", workload, instances, deadline)
        samples.append(summary["setup_s"])
    return statistics.median(samples)


def judge(instances, rows, seed):
    """(failed, correct): an instance fails when it raises or exits non-zero;
    the run is correct when every instance that did not fail checks out."""
    by_id = {inst["id"]: inst for inst in instances}
    failed, correct = 0, True
    for row in rows:
        inst, res = by_id[row["id"]], row["result"]
        if row["error"] is not None or (isinstance(res, dict) and res.get("rc", 0) != 0):
            failed += 1
            detail = row["error"] or res.get("stderr", "").strip()[:200]
            print(f"failed: instance {inst['id']} ({inst['cls']}): {detail}", file=sys.stderr)
            continue
        errors = checks.check(inst, res, seed)
        if errors:
            correct = False
            print(f"wrong: instance {inst['id']} ({inst['cls']}): {errors[:3]}", file=sys.stderr)
    if len(rows) != len(instances):
        correct = False
        print(f"only {len(rows)} of {len(instances)} instances reported", file=sys.stderr)
    return failed, correct


def end_to_end(workload, rows, summary, setup_s):
    """Instance times rescaled by the reference's nominal over its mean time in
    this run, which follows the machine's speed (see README.md)."""
    raw = sorted(row["latency_s"] for row in rows)
    scale = workloads.REFERENCE_S[workload] / statistics.mean(summary["reference_s"])
    print(
        f"unscaled: {len(raw) / sum(raw):.4f} instances/s, p50 {statistics.median(raw) * 1e3:.3f} ms, "
        f"tail {raw[len(raw) - 1 - TAIL_BEYOND] * 1e3:.3f} ms; scale {scale:.4f}",
        file=sys.stderr,
    )
    lat = [x * scale for x in raw]
    return {
        "instances_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "latency_ms_tail": (lat[len(lat) - 1 - TAIL_BEYOND] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(trace, rows, plain_rows):
    calls, incl, own, counts = trace["calls"], trace["incl_s"], trace["self_s"], trace["counts"]
    n = len(rows)

    def mean_us(name):
        return incl[name] / calls[name] * 1e6 if calls.get(name) else 0.0

    def self_ms_per_instance(name):
        return own.get(name, 0.0) / n * 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    cli_rows = [row["result"] for row in rows if isinstance(row["result"], dict) and "stdout" in row["result"]]
    traced_s = sum(row["latency_s"] for row in rows)
    plain_s = sum(row["latency_s"] for row in plain_rows)
    layer_self = sum(v for name, v in own.items() if not name.startswith("bench."))
    cosets = counts.get("oracle.hnf_cosets.yields", 0)
    candidates = counts.get("strata.candidates", 0)
    make_calls = calls.get("strata.make_stratum", 0)
    chain_calls = calls.get("connectivity.chain_gl3", 0)
    cli_self = sum(v for name, v in own.items() if name.startswith("cli."))
    return {
        "normal_form.solve_calls": (calls.get("normal_form.solve_affine_integral", 0), "count"),
        "normal_form.solve_us": (mean_us("normal_form.solve_affine_integral"), "us"),
        "normal_form.datum_ms": (ratio(trace["datum_s"], trace["datum_builds"]) * 1e3, "ms"),
        "strata.enumerate_calls": (calls.get("strata.enumerate_strata", 0), "count"),
        "strata.enumerate_self_ms": (self_ms_per_instance("strata.enumerate_strata"), "ms"),
        "strata.candidates": (candidates, "count"),
        "strata.kept": (counts.get("strata.kept", 0), "count"),
        "strata.kept_per_1k_candidates": (1000 * ratio(counts.get("strata.kept", 0), candidates), "ratio"),
        "strata.make_stratum_calls": (make_calls, "count"),
        "strata.make_stratum_us": (mean_us("strata.make_stratum"), "us"),
        "strata.natural_lambda_per_stratum": (
            ratio(counts.get("strata.natural_lambda_in_make_stratum", 0), make_calls), "ratio"),
        "connectivity.build_graph_self_ms": (self_ms_per_instance("connectivity.build_graph"), "ms"),
        "connectivity.edge_tests": (calls.get("connectivity.edge_exists", 0), "count"),
        "connectivity.edges": (counts.get("connectivity.edges", 0), "count"),
        "connectivity.chain_calls": (chain_calls, "count"),
        "connectivity.chain_steps": (counts.get("connectivity.chain_steps", 0), "count"),
        "connectivity.chain_self_ms": (self_ms_per_instance("connectivity.chain_gl3"), "ms"),
        "connectivity.enumerations_per_chain": (
            ratio(counts.get("connectivity.enumerations_in_chain", 0), chain_calls), "ratio"),
        "multicopy.zero_stratum_self_ms": (self_ms_per_instance("multicopy.unique_zero_stratum"), "ms"),
        "multicopy.lifted_candidates": (counts.get("multicopy.lifted_candidates", 0), "count"),
        "multicopy.recursion_check_us": (mean_us("multicopy.recursion_check"), "us"),
        "oracle.cosets": (cosets, "count"),
        "oracle.singular_cosets": (cosets - counts.get("oracle.survey_rows", 0), "count"),
        "oracle.points": (counts.get("oracle.points", 0), "count"),
        "oracle.survey_self_ms": (self_ms_per_instance("oracle.coset_survey"), "ms"),
        "oracle.us_per_coset": (ratio(incl.get("oracle.coset_survey", 0.0), cosets) * 1e6, "us"),
        "oracle.elementary_divisors_us": (mean_us("oracle.elementary_divisors"), "us"),
        "oracle.iwahori_label_us": (mean_us("oracle.iwahori_label"), "us"),
        "cli.main_self_ms": (ratio(cli_self, calls.get("cli.main", 0)) * 1e3, "ms"),
        "cli.output_kb": (ratio(sum(len(r["stdout"]) for r in cli_rows), len(cli_rows)) / 1e3, "kB"),
        "trace.overhead_ratio": (ratio(traced_s, plain_s), "ratio"),
        "trace.accounted_share": (ratio(layer_self, traced_s), "ratio"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S
    if not (ROOT / "src" / "kisin" / "__init__.py").is_file():
        print(f"no kisin sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    instances = workloads.generate(args.workload, args.seed, args.seconds)
    if args.trace:
        plain_rows, _ = worker("run", args.workload, instances, deadline)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
        rows, summary = worker("trace", args.workload, instances, deadline, trace_file)
        metrics = per_layer(summary["trace"], rows, plain_rows)
        share = metrics["trace.accounted_share"][0]
        if share < 0.9:
            print(f"layer self times cover only {share:.1%} of the traced wall time", file=sys.stderr)
    else:
        setup_s = setup_seconds(args.workload, instances, deadline)
        rows, summary = worker("run", args.workload, instances, deadline)
        metrics = end_to_end(args.workload, rows, summary, setup_s)
    failed, correct = judge(instances, rows, args.seed)
    print(json.dumps({
        "correct": correct,
        "attempted": len(instances),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
