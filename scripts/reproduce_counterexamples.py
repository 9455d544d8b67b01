#!/usr/bin/env python3
"""Reproduce the two disconnected varieties: strata, certificates and pi_0.

The instances are the golden counterexamples of ``kisin.cli.CASES``.

Usage: python3 scripts/reproduce_counterexamples.py [--primes 3 5]
"""

import argparse

from kisin.cli import CASES, counterexample
from kisin.connectivity import build_graph, pi0_report


def show(title, datum, mu):
    graph = build_graph(datum, mu)
    rep = pi0_report(graph)
    print(f"== {title}")
    print(f"   tau = {datum.tau}, w = {datum.w}, mu = {mu}")
    print(f"   fixed point e = {tuple(tuple(str(x) for x in b) for b in datum.e)}")
    for s in graph.vertices:
        print(
            f"   stratum lam={s.lam}  nat={s.nat}  dim={s.dim if s.dim is not None else '?'}"
            f"  singleton={s.singleton} ({s.singleton_rule})"
        )
    print(f"   edges: {len(graph.edges)}, pi0: {rep.upper_bound} ({rep.exactness})")
    print()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--primes", type=int, nargs="+", default=[3, 5])
    args = ap.parse_args()
    for p in args.primes:
        for case in CASES.values():
            show(f"{case['title']}, p={p}", *counterexample(case, p))


if __name__ == "__main__":
    main()
