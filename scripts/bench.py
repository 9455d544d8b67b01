#!/usr/bin/env python3
"""Record the benchmark of this checkout to BENCH_<label>.json.

Runs perfbench/run.py on every workload of BENCHMARK.json at seeds 201 to 210.

Each run is ``python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0`` from the root of a checkout, with S the run_seconds of
BENCHMARK.json.  With ``--baseline REV`` both sides run from fresh clones in a
temporary directory, removed afterwards: this checkout's HEAD (the change) and
the git revision REV (the commit the change is measured against), seed by
seed, with the side that runs first alternating, so that drift of the
machine's speed falls on both alike, and neither side runs in a working tree
with its own build leftovers.  With a baseline the checkout must have no
uncommitted changes to tracked files, since only HEAD is cloned.  Without
one, this checkout runs in place, and uncommitted changes are recorded as its
commit plus -dirty and a hash of its ``git diff HEAD``.  The file holds every
run's result line and, per workload and end-to-end metric, the median of each
side and the number of seeds on which the change was better.

Usage: python3 scripts/bench.py --label NAME [--baseline REV] [--out FILE]
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = range(201, 211)


def commit_of(checkout: Path):
    """The checkout's commit; with uncommitted changes, suffixed -dirty and
    the first 12 hex digits of the sha256 of its diff against HEAD."""
    def git(*args):
        done = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True)
        return done.stdout

    commit = git("describe", "--always", "--dirty", "--abbrev=12").decode().strip()
    if commit.endswith("-dirty"):
        commit += "-" + hashlib.sha256(git("diff", "HEAD")).hexdigest()[:12]
    return commit or None


def git(*args) -> str:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"git {' '.join(args)} failed:\n{done.stderr}")
    return done.stdout.strip()


def clone(rev: str, into: Path) -> Path:
    """A fresh clone of this repository at the commit rev."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    subprocess.run(["git", "clone", "-q", "--no-checkout", str(ROOT), str(into)], check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "-q", "--detach", sha], check=True)
    return into


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} failed ({done.returncode}):\n{done.stderr}")
    return json.loads(lines[-1])


def summarise(runs: dict) -> dict:
    """Per workload and metric: each side's median, and with a baseline the
    count of seeds on which the change was better."""
    out = {}
    for workload, sides in runs.items():
        per_metric = {}
        for metric in BENCHMARK["end_to_end"]:
            name, better = metric["name"], metric["better"]
            values = {side: [r["metrics"][name]["value"] for r in results] for side, results in sides.items()}
            entry = {side: statistics.median(v) for side, v in values.items()}
            if "baseline" in values:
                wins = sum(
                    (c > b) if better == "higher" else (c < b)
                    for c, b in zip(values["change"], values["baseline"])
                )
                entry["change_better"] = f"{wins}/{len(values['change'])}"
            per_metric[name] = entry
        per_metric["all_correct"] = all(r["correct"] and not r["failed"] for rs in sides.values() for r in rs)
        out[workload] = per_metric
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--baseline", default=None, help="git revision to compare against")
    ap.add_argument("--out", type=Path, default=None, help="output file (default BENCH_<label>.json)")
    args = ap.parse_args()
    if args.baseline is None:
        record(args, {"change": ROOT})
        return
    if git("status", "--porcelain", "--untracked-files=no"):
        raise SystemExit("the checkout has uncommitted changes; commit them, since only HEAD is cloned")
    with tempfile.TemporaryDirectory(prefix="kisin-bench-") as tmp:
        tmp = Path(tmp)
        record(args, {"baseline": clone(args.baseline, tmp / "baseline"), "change": clone("HEAD", tmp / "change")})


def record(args, sides: dict):
    """Run every workload and seed on each side and write the record."""
    seconds = BENCHMARK["run_seconds"]
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    runs = {w: {side: [] for side in sides} for w in workloads}
    for workload in workloads:
        for i, seed in enumerate(SEEDS):
            for side, checkout in list(sides.items())[:: 1 if i % 2 == 0 else -1]:
                result = run_once(checkout, workload, seed, seconds)
                runs[workload][side].append(dict(result, seed=seed))
                ips = result["metrics"]["instances_per_s"]["value"]
                print(f"{workload} seed {seed} {side}: {ips:.2f} instances/s", file=sys.stderr)
    out = {
        "label": args.label,
        "command": "python3 perfbench/run.py --workload W --seed N --seconds S --trace 0",
        "seconds": seconds,
        "seeds": list(SEEDS),
        "machine": {"python": platform.python_version(), "cpu": cpu_model(), "cpus": os.cpu_count()},
        "commits": {side: commit_of(checkout) for side, checkout in sides.items()},
        "summary": summarise(runs),
        "runs": runs,
    }
    path = args.out or ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(path)

if __name__ == "__main__":
    main()
