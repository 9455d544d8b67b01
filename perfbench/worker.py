"""One benchmark process: import kisin from the checkout, build every
instance's datum and field, and (except in ``setup`` mode) run the instances
one after another on this single thread.

Usage: python3 perfbench/worker.py {setup|run|trace} WORKLOAD [TRACE_FILE] < instances.json

``setup`` prints the set-up time alone.  ``run`` prints one JSON line per
instance (its wall time and its raw output) and a final summary line with the
peak resident set size and the reference times.  ``trace`` does the same with
every layer's public functions rebound to timing wrappers, and writes the
spans to TRACE_FILE.

While it runs, a helper process (``worker.py reference WORKLOAD``) pinned to
the same CPU times the workload's fixed reference instance with the frozen
copy of the library in ``refkisin/``, between instances and while the worker
waits, for about REFERENCE_SHARE of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

PACKAGE = "kisin"  # the reference helper runs the frozen copy "refkisin" instead
REFERENCE_SHARE = 0.15


def lib(module):
    return importlib.import_module(f"{PACKAGE}.{module}")


def lists(v):
    return [list(b) for b in v]


def setup(instances):
    """Import the library and build each instance's datum (and field)."""
    cli = lib("cli")  # importing the CLI front-end imports every layer
    if PACKAGE == "kisin" and not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"kisin imported from {cli.__file__}, not from this checkout")
    normal_form, oracle, strata = lib("normal_form"), lib("oracle"), lib("strata")
    ExtAffine, GroupShape = lib("core").ExtAffine, lib("core").GroupShape

    datums = []
    for inst in instances:
        spec = inst["datum"]
        if "m" in spec:
            datum = normal_form.caruso_datum(spec["n"], spec["f"], spec["p"], spec["m"])
            if spec["c"]:
                chi = ((spec["c"],) * spec["n"],) * spec["f"]
                datum, _ = strata.central_twist(datum, datum.shape.zero_cochar(), chi)
        else:
            shape = GroupShape.res_field(spec["n"], spec["f"], spec["p"])
            tau = tuple(tuple(b) for b in spec["tau"])
            w = tuple(tuple(b) for b in spec["w"])
            datum = normal_form.make_datum(shape, ExtAffine(tau, w))
        if "field" in inst:
            oracle.GF(*inst["field"])
        datums.append(datum)
    return datums


# ---------------------------------------------------------------------------
# instance runners: each returns raw results, converted after the clock stops


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = lib("cli").main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_sweep(inst, datum):
    connectivity, strata = lib("connectivity"), lib("strata")
    rows = []
    for mu in inst["mus"]:
        mu = tuple(tuple(b) for b in mu)
        found = strata.enumerate_strata(datum, mu)
        if not found:
            rows.append((mu, found, None, None))
            continue
        graph = connectivity.build_graph(datum, mu)
        labels = [s.lam for s in found]
        chains = [connectivity.chain_gl3(datum, mu, a, b) for a, b in itertools.combinations(labels, 2)]
        rows.append((mu, found, graph, chains))
    return rows


def run_oracle(inst, datum):
    out = run_cli(inst["argv"])
    mu = tuple(tuple(b) for b in inst["mu"])
    return out, lib("strata").enumerate_strata(datum, mu)


def run_instance(inst, datum):
    kind = inst["kind"]
    if kind == "sweep":
        return run_sweep(inst, datum)
    if kind == "oracle":
        return run_oracle(inst, datum)
    return run_cli(inst["argv"])


def convert(inst, datum, raw):
    kind = inst["kind"]
    if kind == "sweep":
        rows = [
            {
                "mu": lists(mu),
                "labels": [lists(s.lam) for s in found],
                "edges": [[lists(a), lists(b)] for a, b, _ in graph.edges] if graph else [],
                "components": len(graph.components) if graph else 0,
                "chains": [[lists(lam) for lam in chain] for chain, _ in chains] if chains else [],
            }
            for mu, found, graph, chains in raw
        ]
        return {"tau": lists(datum.tau), "w": lists(datum.w), "rows": rows}
    if kind == "oracle":
        out, found = raw
        out["strata"] = [[lists(s.lam), s.singleton] for s in found]
        return out
    return raw


def serve_reference(workload):
    """Time the workload's reference instance with the frozen library, once
    per line read, after one untimed call that fills its caches."""
    global PACKAGE
    PACKAGE = "refkisin"
    inst = workloads.REFERENCE[workload]
    (datum,) = setup([inst])
    run_instance(inst, datum)
    for _ in sys.stdin:
        t0 = perf_counter()
        run_instance(inst, datum)
        print(perf_counter() - t0, flush=True)


def start_reference(workload):
    """The reference helper, pinned with this process to one CPU."""
    helper = subprocess.Popen(
        [sys.executable, __file__, "reference", workload],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    os.sched_setaffinity(helper.pid, {cpu})
    return helper


def reference_time(helper):
    helper.stdin.write("\n")
    helper.stdin.flush()
    return float(helper.stdout.readline())


def main():
    mode, workload = sys.argv[1], sys.argv[2]
    if mode == "reference":
        serve_reference(workload)
        return
    instances = json.load(sys.stdin)
    tracer = None
    setup_span = contextlib.nullcontext()
    if mode == "trace":
        import spans

        lib("cli")  # the wrappers go on before any datum is built
        tracer = spans.Tracer()
        spans.install(tracer)
        setup_span = tracer.span("bench.setup")
    t0 = perf_counter()
    with setup_span:
        datums = setup(instances)
    setup_s = perf_counter() - t0
    if mode == "setup":
        print(json.dumps({"summary": {"setup_s": setup_s}}))
        return
    if tracer is not None:
        tracer.reset_counts()
    emit = sys.stdout.write
    helper = start_reference(workload)
    try:
        reference_s = [reference_time(helper)]
        since = 0.0
        for inst, datum in zip(instances, datums):
            if since * REFERENCE_SHARE >= reference_s[-1] * (1 - REFERENCE_SHARE):
                reference_s.append(reference_time(helper))
                since = 0.0
            if tracer is not None:
                frame = tracer.enter("bench.instance")
            t0 = perf_counter()
            try:
                raw = run_instance(inst, datum)
                error = None
            except Exception as exc:  # a crash is a failed instance, not a dead run
                raw, error = None, f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            since += latency
            if tracer is not None:
                tracer.leave(frame)
            result = convert(inst, datum, raw) if error is None else None
            emit(json.dumps({"id": inst["id"], "latency_s": latency, "error": error, "result": result}) + "\n")
        reference_s.append(reference_time(helper))
    finally:
        helper.stdin.close()
        helper.wait()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary = {"setup_s": setup_s, "peak_rss_kb": peak_kb, "reference_s": reference_s}
    if tracer is not None:
        summary["trace"] = tracer.summary()
        tracer.write(sys.argv[3])
    emit(json.dumps({"summary": summary}) + "\n")


if __name__ == "__main__":
    main()
