#!/usr/bin/env python3
"""Exhaustive GL3 connectivity sweep: every simple twist and every dominant mu
up to a sup-norm bound, checking one component and chain reachability.

Each twist takes every mu in decreasing lexicographic order.  Dominance
refines that order, so each class of mu with one block sum is met first at
the mu that dominates all of it, and ``kisin.strata`` enumerates each class
once per datum, filtering the strata of every later mu of the class from its
labels.  The order changes the speed, never the output.

Usage: python3 scripts/gl3_sweep.py [--primes 2 3] [--mu-bound 4]
"""

import argparse
import itertools
import sys
import time
from collections import Counter

from kisin.connectivity import build_graph, chain_gl3
from kisin.normal_form import caruso_datum, is_caruso_simple


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--primes", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--mu-bound", type=int, default=4, dest="mu_bound")
    args = ap.parse_args()
    t0 = time.monotonic()
    nonempty = chains = 0
    lengths = Counter()
    for p in args.primes:
        bound = p**3
        ms = [m for m in range(-(bound - 1), bound) if is_caruso_simple(3, p, m)]
        mus = [
            t
            for t in itertools.product(range(args.mu_bound, -args.mu_bound - 1, -1), repeat=3)
            if t[0] >= t[1] >= t[2]
        ]
        for m in ms:
            d = caruso_datum(3, 1, p, m)
            for mu_flat in mus:
                mu = (mu_flat,)
                graph = build_graph(d, mu)
                if not graph.vertices:
                    continue
                nonempty += 1
                if len(graph.components) != 1:
                    sys.exit(f"GL3 sweep: {len(graph.components)} components at p={p}, m={m}, mu={mu}")
                labels = [s.lam for s in graph.vertices]
                for a, b in itertools.combinations(labels, 2):
                    chain, steps = chain_gl3(d, mu, a, b)
                    chains += 1
                    lengths[len(steps)] += 1
    print(f"{nonempty} nonempty instances, {chains} chains "
          f"({time.monotonic() - t0:.1f}s); all graphs connected")
    print("chain-length histogram:", dict(sorted(lengths.items())))


if __name__ == "__main__":
    main()
