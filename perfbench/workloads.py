"""Seeded instance lists for the four workloads.

Every list is a fixed function of (workload, seed, seconds): the seed draws the
varying inputs, and the run length sets how many members each cost class gets,
so a longer run attempts whole extra members of every class and never repeats
an instance.  Generation uses only the benchmark's own arithmetic.
"""

from __future__ import annotations

import itertools
import json
import random

import reference as ref

WORKLOADS = ("counterexample-ladder", "gl3-sweep", "multicopy-lift", "oracle-crosscheck")

# Instance counts below are for a run of RUN_SECONDS; a run of another length
# scales every count alike.  They were set on a 2-core machine so that a run
# takes about RUN_SECONDS there, and so that the median and the tail rank of
# each workload fall inside a cost class rather than between two.
RUN_SECONDS = 20


MAX_DRAWS = 100_000  # per sampled class, so that generation always ends


def scaled(count, seconds):
    return max(1, round(count * seconds / RUN_SECONDS))


# The two disconnected examples, as in the paper: twist, bound, strata and the
# certificate that proves each stratum a point.
GOLDEN = {
    "a": {
        "n": 4,
        "f": 1,
        "tau": ((2, 0, 2, 0),),
        "w": ((1, 3, 0, 2),),
        "mu": lambda p: ((2 * p - 1, p, p, 1),),
        "rules": {((1, 1, 1, 1),): "central", ((2, 1, 1, 0),): "d-set"},
    },
    "b": {
        "n": 3,
        "f": 2,
        "tau": ((2, 0, 1), (0, 0, 1)),
        "w": ((1, 2, 0), (0, 1, 2)),
        "mu": lambda p: ((p + 1, 0, 0), (p, p, 0)),
        "rules": {
            ((1, 0, 1), (0, 0, 1)): "d-set",
            ((1, 1, 0), (1, 0, 0)): "dominant-minuscule",
        },
    },
}
LADDER = {"a": (3, 5, 7, 11, 13, 17, 19), "b": (3, 5, 7, 11, 13, 17)}
LADDER_GRAPHS = 14  # graph reports per (case, p); with the golden check 15 per class
LADDER_BAND = (0.8, 1.25)  # candidate count of a sampled mu / that of the golden mu

SWEEP_PRIMES = (2, 3)
SWEEP_BOUND = 3  # sup-norm bound on mu, before the central shift
SWEEP_SHIFT = 30  # central shifts are drawn from [-SWEEP_SHIFT, SWEEP_SHIFT]
SWEEP_COPIES = 3  # shifted copies of each twist

# (n, prime, field degree, box, count) of the point-oracle classes, cheapest
# first; every instance stays below about a second.  The 66 GL_2 over F_4
# instances hold both the median rank (their 29th) and the tail rank (their
# 5th largest), so neither sits on the edge of a class.
ORACLE_CLASSES = (
    (2, 7, 1, 1, 3),
    (2, 3, 2, 1, 3),
    (2, 3, 1, 2, 3),
    (2, 2, 1, 3, 3),
    (3, 2, 1, 1, 3),
    (2, 2, 2, 2, 66),
    (2, 5, 1, 2, 3),
    (3, 3, 1, 1, 3),
)

# Multi-copy cost classes (lo, hi, count): the lifted candidate count
# n^(sum m_j) lies in [lo, hi].  The median rank falls in the middle of the
# third class and the tail rank inside the fourth.
MULTICOPY_CLASSES = ((2, 16, 50), (27, 81, 50), (243, 256, 250), (729, 1024, 100))
MULTICOPY_MAX_M = 4


def ser(v):
    return [list(b) for b in v]


def ser_perms(w):
    return [[x + 1 for x in b] for b in w]


def explicit_argv(cmd, p, n, f, tau, w, mu):
    return [
        cmd, "--p", str(p), "--n", str(n), "--f", str(f),
        "--tau", json.dumps(ser(tau)), "--w", json.dumps(ser_perms(w)),
        "--mu", json.dumps(ser(mu)),
    ]


def _sorted_desc(values):
    return tuple(sorted(values, reverse=True))


# ---------------------------------------------------------------------------


def ladder(rng, seconds):
    """Per (case, p): the golden check, then graph reports on the same twist
    with sampled dominant mu whose candidate count is within LADDER_BAND of the
    golden one and whose block sums admit labels."""
    k = scaled(LADDER_GRAPHS, seconds)
    out = []
    for case, primes in LADDER.items():
        g = GOLDEN[case]
        n, f, tau, w = g["n"], g["f"], g["tau"], g["w"]
        for p in primes:
            datum = {"n": n, "f": f, "p": p, "tau": ser(tau), "w": ser(w)}
            golden_mu = g["mu"](p)
            out.append({
                "kind": "verify", "cls": f"{case}{p}", "case": case, "p": p,
                "argv": ["verify-counterexample", case, "--p", str(p)],
                "datum": datum,
            })
            target = ref.candidate_count(golden_mu)
            seen = {golden_mu}
            for _ in range(MAX_DRAWS):
                if len(seen) == k + 1:
                    break
                mu = tuple(_sorted_desc(rng.randint(0, 2 * p) for _ in range(n)) for _ in range(f))
                if mu in seen or ref.block_sums(tau, w, (p,) * f, mu) is None:
                    continue
                ratio = ref.candidate_count(mu) / target
                if not LADDER_BAND[0] <= ratio <= LADDER_BAND[1]:
                    continue
                seen.add(mu)
                out.append({
                    "kind": "graph", "cls": f"{case}{p}", "p": p, "mu": ser(mu),
                    "argv": explicit_argv("graph", p, n, f, tau, w, mu),
                    "datum": datum,
                })
            else:
                raise RuntimeError(f"too few mu for case {case} at p = {p}")
    return out


def _sweep_mus(c):
    return [
        [[x + c for x in t]]
        for t in itertools.product(range(SWEEP_BOUND, -SWEEP_BOUND - 1, -1), repeat=3)
        if t[0] >= t[1] >= t[2]
    ]


def sweep_instance(p, m, c):
    return {
        "kind": "sweep", "cls": f"p{p}", "p": p, "m": m, "c": c, "mus": _sweep_mus(c),
        "datum": {"n": 3, "f": 1, "p": p, "m": m, "c": c},
    }


def sweep(rng, seconds):
    """Every simple GL_3 twist for p in SWEEP_PRIMES, several times, each under
    its own central shift c: the instance sweeps every dominant mu with
    |mu - c| <= SWEEP_BOUND, so one instance is one twist's connectivity
    verdict.  The shift C_{mu+c}(u^c b) = C_mu(b) keeps the labels and the
    cost, and makes every instance's input distinct."""
    k = scaled(SWEEP_COPIES, seconds)
    out = []
    for p in SWEEP_PRIMES:
        q = p**3
        for m in range(-(q - 1), q):
            if ref.is_simple(3, p, m):
                out.extend(sweep_instance(p, m, c) for c in rng.sample(range(-SWEEP_SHIFT, SWEEP_SHIFT + 1), k))
    return out


def multicopy(rng, seconds):
    """The counted admissible instances per cost class: parameters are drawn at random
    and kept when their class still needs members and the base variety is
    non-empty (an empty one is not admissible)."""
    need = {cls[:2]: scaled(cls[2], seconds) for cls in MULTICOPY_CLASSES}
    seen = set()
    out = []
    for _ in range(MAX_DRAWS * len(need)):
        if not any(need.values()):
            break
        p = rng.choice((2, 3, 5))
        n = rng.randint(2, 4)
        f = rng.randint(1, 2)
        q = p**f
        m = rng.randint(1, q**n - 1)
        mu = tuple((rng.randint(0, MULTICOPY_MAX_M),) + (0,) * (n - 1) for _ in range(f))
        d = max(b[0] for b in mu) + rng.randint(0, 1)
        count = n ** sum(b[0] for b in mu)
        cls = next((c[:2] for c in MULTICOPY_CLASSES if c[0] <= count <= c[1]), None)
        key = (p, n, f, m, mu, d)
        if cls is None or not need[cls] or key in seen or not ref.is_simple(n, q, m):
            continue
        try:
            tau, w = ref.simple_datum(n, f, p, m)
        except ArithmeticError:
            continue
        eps = (p,) * f
        if ref.block_sums(tau, w, eps, mu) is None or not ref.strata_by_inversion(tau, w, eps, mu):
            continue
        seen.add(key)
        need[cls] -= 1
        out.append({
            "kind": "multicopy", "cls": f"cand{cls[0]}-{cls[1]}", "p": p, "d": d,
            "argv": [
                "multicopy", "--p", str(p), "--n", str(n), "--f", str(f), "--m", str(m),
                "--mu", json.dumps(ser(mu)), "--d", str(d),
            ],
            "datum": {"n": n, "f": f, "p": p, "m": m, "c": 0},
            "ref": {"tau": ser(tau), "w": ser(w), "mu": ser(mu)},
        })
    else:
        raise RuntimeError(f"too few admissible multi-copy instances: {need}")
    return out


def oracle(rng, seconds):
    """The counted instances per ORACLE_CLASSES entry: a simple twist under a central
    shift c, and a dominant mu whose strata are non-empty and lie in the box."""
    out = []
    for n, p, r, box, count in ORACLE_CLASSES:
        k = scaled(count, seconds)
        twists = [m for m in range(-(p**n - 1), p**n) if ref.is_simple(n, p, m)]
        seen = set()
        for _ in range(MAX_DRAWS):
            if len(seen) == k:
                break
            m = rng.choice(twists)
            c = rng.randint(-2, 2)
            base = _sorted_desc(rng.randint(-box, box) for _ in range(n))
            tau, w = ref.simple_datum(n, 1, p, m)
            key = (m, c, base)
            if key in seen:
                continue
            labels = ref.box_strata(tau, w, (base,), p)
            if not labels or any(abs(x) > box for lam in labels for x in lam[0]):
                continue
            seen.add(key)
            tau_c = (tuple(x + c for x in tau[0]),)
            mu_c = (tuple(x + c for x in base),)
            out.append({
                "kind": "oracle", "cls": f"n{n}q{p**r}b{box}", "p": p, "r": r, "box": box,
                "argv": explicit_argv("oracle-count", p, n, 1, tau_c, w, mu_c)
                + ["--field-deg", str(r), "--box", str(box)],
                "datum": {"n": n, "f": 1, "p": p, "tau": ser(tau_c), "w": ser(w)},
                "field": [p, r],
                "mu": ser(mu_c),
            })
        else:
            raise RuntimeError(f"too few oracle instances for n={n}, q={p**r}, box={box}")
    return out


# One fixed instance per workload, typical of its median class.  The frozen
# copy of the library in refkisin/ runs it between instances to follow the
# machine's speed through a run; REFERENCE_S is its time on the reference
# machine, and every instance time is rescaled by REFERENCE_S over the run's
# mean reference time.  See README.md.
REFERENCE = {
    "counterexample-ladder": {
        "kind": "verify", "argv": ["verify-counterexample", "a", "--p", "11"],
        "datum": {"n": 4, "f": 1, "p": 11, "tau": ser(GOLDEN["a"]["tau"]), "w": ser(GOLDEN["a"]["w"])},
    },
    "gl3-sweep": sweep_instance(3, 4, 0),
    "multicopy-lift": {
        "kind": "multicopy",
        "argv": ["multicopy", "--p", "3", "--n", "4", "--f", "1", "--m", "2", "--mu", "[[4, 0, 0, 0]]", "--d", "4"],
        "datum": {"n": 4, "f": 1, "p": 3, "m": 2, "c": 0},
    },
    "oracle-crosscheck": {
        "kind": "oracle",
        "argv": ["oracle-count", "--p", "2", "--n", "2", "--m", "1", "--mu", "[[1, 0]]", "--field-deg", "2", "--box", "2"],
        "datum": {"n": 2, "f": 1, "p": 2, "m": 1, "c": 0}, "field": [2, 2], "mu": [[1, 0]],
    },
}
REFERENCE_S = {
    "counterexample-ladder": 0.044,
    "gl3-sweep": 0.045,
    "multicopy-lift": 0.013,
    "oracle-crosscheck": 0.2,
}

GENERATORS = {
    "counterexample-ladder": ladder,
    "gl3-sweep": sweep,
    "multicopy-lift": multicopy,
    "oracle-crosscheck": oracle,
}


def generate(workload, seed, seconds):
    """The run's instance list, shuffled so that no class always runs first."""
    rng = random.Random(f"{workload}:{seed}")
    out = GENERATORS[workload](rng, seconds)
    rng.shuffle(out)
    for i, inst in enumerate(out):
        inst["id"] = i
    return out
