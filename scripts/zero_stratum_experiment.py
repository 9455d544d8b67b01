#!/usr/bin/env python3
"""Randomized sweep over multi-copy instances: verify that every nonempty
stratum set carries exactly one zero-dimensional stratum, that the block
recursion certifies it, and that unique_zero_stratum constructs the same
stratum (and refuses every empty variety) without enumerating.

Usage: python3 scripts/zero_stratum_experiment.py [--count 500] [--seed 1]
"""

import argparse
import random
import sys
import time
from collections import Counter

from kisin.errors import NotInGeneralPositionError, PreconditionError
from kisin.multicopy import make_multi, recursion_check, unique_zero_stratum
from kisin.normal_form import caruso_datum, is_caruso_simple
from kisin.strata import enumerate_strata


def fail(message):
    """Print the failed check with its instance (p, n, f, d, m, mu) and exit 1;
    an explicit check, so that python -O keeps it."""
    sys.exit(f"zero-stratum experiment: {message}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--count", type=int, default=500)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    rng = random.Random(args.seed)
    t0 = time.monotonic()
    sizes = Counter()
    hits = attempts = 0
    while hits < args.count and attempts < 100 * args.count:
        attempts += 1
        p = rng.choice((2, 3, 5))
        n, f, d = rng.randint(1, 4), rng.randint(1, 2), rng.randint(1, 3)
        q = p**f
        m = rng.randint(1, q**n - 1)
        if not is_caruso_simple(n, q, m):
            continue
        try:
            base = caruso_datum(n, f, p, m)
        except NotInGeneralPositionError:
            continue  # rank one with an integral fixed point
        multi = make_multi(base, d)
        mb = tuple(
            ((1,) + (0,) * (n - 1)) if rng.random() < 0.5 else (0,) * n
            for _ in range(d * f)
        )
        instance = (p, n, f, d, m, mb)
        S = enumerate_strata(multi.lifted, mb)
        if not S:
            try:
                unique_zero_stratum(multi, mb)
            except PreconditionError:
                continue
            fail(f"empty variety not refused at {instance}")
        hits += 1
        sizes[len(S)] += 1
        zeros = [s for s in S if s.dim == 0]
        if len(zeros) != 1:
            fail(f"uniqueness failed at {instance}: {len(zeros)} zero-dimensional strata")
        built = unique_zero_stratum(multi, mb)
        if built != zeros[0]:
            fail(f"constructed {built.lam} != enumerated {zeros[0].lam} at {instance}")
        ok, bad = recursion_check(multi, mb, zeros[0].lam)
        if not ok:
            fail(f"recursion failed at {instance} block {bad}")
    print(f"{hits} nonempty instances out of {attempts} attempts "
          f"({time.monotonic() - t0:.1f}s)")
    print("stratum-count histogram:", dict(sorted(sizes.items())))
    print("unique zero-dimensional stratum + recursion certificate + construction: all verified")


if __name__ == "__main__":
    main()
