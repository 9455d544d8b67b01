"""Acceptance suite: one test per criterion, each printing a PASS line with its
runtime and asserting the stated budget."""

import itertools
import json
import random
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from conftest import (
    descent_stats,
    dominance_leq,
    dominant,
    gauss_solve_fixed_point,
    gl3_sweep_instances,
    reachable_by_simple_coroots,
    recursion_check_by_fractions,
    zero_stratum_by_enumeration,
)
from kisin.cli import main as cli_main
from kisin.connectivity import build_graph, chain_gl3, pi0_report
from kisin.core import ExtAffine, GroupShape
from kisin.errors import NotInGeneralPositionError
from kisin.multicopy import make_multi, recursion_check, unique_zero_stratum, varsigma
from kisin.normal_form import caruso_datum, is_caruso_simple, make_datum
from kisin.oracle import GF, kisin_points
from kisin.strata import block_sums, enumerate_strata, natural_lambda, sum_profile


def report(criterion, elapsed, limit, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS ({elapsed:.2f}s < {limit}s) {detail}")
    assert elapsed < limit, f"criterion {criterion} exceeded its {limit}s budget"


def counterexample_datum_a(p):
    sh = GroupShape.res_field(4, 1, p)
    return make_datum(sh, ExtAffine(((2, 0, 2, 0),), ((1, 3, 0, 2),)))


def counterexample_datum_b(p):
    sh = GroupShape.res_field(3, 2, p)
    return make_datum(sh, ExtAffine(((2, 0, 1), (0, 0, 1)), ((1, 2, 0), (0, 1, 2))))


# shared generators -----------------------------------------------------------


def random_multicopy_instances(seed=20260809, count=200, max_attempts=20000):
    """Instances (multi, mu_bullet, strata) with nonempty lifted stratum sets."""
    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < max_attempts:
        attempts += 1
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 4)
        f = rng.randint(1, 2)
        d = rng.randint(1, 3)
        q = p**f
        m = rng.randint(1, q**n - 1)
        if not is_caruso_simple(n, q, m):
            continue
        try:
            base = caruso_datum(n, f, p, m)
        except NotInGeneralPositionError:
            continue  # rank-one m with integral fixed point
        multi = make_multi(base, d)
        mb = tuple(
            ((1,) + (0,) * (n - 1)) if rng.random() < 0.5 else (0,) * n
            for _ in range(d * f)
        )
        S = enumerate_strata(multi.lifted, mb)
        if S:
            out.append((multi, mb, S))
    return out


@pytest.fixture(scope="module")
def multicopy_suite():
    t0 = time.monotonic()
    data = random_multicopy_instances()
    return data, time.monotonic() - t0


@pytest.fixture(scope="module")
def gl3_suite():
    t0 = time.monotonic()
    data = gl3_sweep_instances()
    return data, time.monotonic() - t0


# criteria --------------------------------------------------------------------


def test_criterion_1_counterexample_a(capsys):
    t0 = time.monotonic()
    for p in (3, 5):
        code = cli_main(["verify-counterexample", "a", "--p", str(p)])
        out = capsys.readouterr().out
        assert code == 0
        rep = json.loads(out)
        assert rep["ok"] is True
        assert [s["lam"] for s in rep["strata"]] == [[[1, 1, 1, 1]], [[2, 1, 1, 0]]]
        assert all(s["singleton"] == "proven" for s in rep["strata"])
        assert rep["pi0"] == {"upper_bound": 2, "exactness": "exact"}
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report("1 (counterexample a, p=3 and p=5)", elapsed, 1.0)


def test_criterion_2_counterexample_b(capsys):
    t0 = time.monotonic()
    code = cli_main(["verify-counterexample", "b", "--p", "3"])
    out = capsys.readouterr().out
    assert code == 0
    rep = json.loads(out)
    assert rep["ok"] is True
    assert [s["lam"] for s in rep["strata"]] == [
        [[1, 0, 1], [0, 0, 1]],
        [[1, 1, 0], [1, 0, 0]],
    ]
    rules = {json.dumps(s["lam"]): s["singleton_rule"] for s in rep["strata"]}
    assert rules[json.dumps([[1, 0, 1], [0, 0, 1]])] == "d-set"
    assert rules[json.dumps([[1, 1, 0], [1, 0, 0]])] == "dominant-minuscule"
    assert rep["pi0"] == {"upper_bound": 2, "exactness": "exact"}
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report("2 (counterexample b, p=3)", elapsed, 1.0)


def test_criterion_3_fixed_points(capsys):
    t0 = time.monotonic()
    da = counterexample_datum_a(3)
    expect_a = ((Q(-1, 10), Q(-3, 10), Q(-7, 10), Q(-9, 10)),)
    assert da.e == expect_a and da.alcove_ok
    db = counterexample_datum_b(3)
    expect_b = (
        (Q(-1, 52), Q(-9, 52), Q(-29, 52)),
        (Q(-3, 52), Q(-27, 52), Q(-35, 52)),
    )
    assert db.e == expect_b and db.alcove_ok
    # recompute independently with the dense Gaussian oracle
    assert gauss_solve_fixed_point(da.shape, da.w, da.tau) == expect_a
    assert gauss_solve_fixed_point(db.shape, db.w, db.tau) == expect_b
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report("3 (alcove fixed points, exact rationals)", elapsed, 5.0)


def test_criterion_4_unique_zero_stratum(multicopy_suite, capsys):
    instances, build_time = multicopy_suite
    t0 = time.monotonic()
    assert len(instances) >= 200
    for multi, mb, S in instances:
        zero = unique_zero_stratum(multi, mb)
        # the constructed stratum is the one enumeration finds
        assert zero == zero_stratum_by_enumeration(multi, mb), (multi.base.shape, mb)
        ok, bad = recursion_check(multi, mb, zero.lam)
        assert ok, (multi.base.shape, mb, bad)
    elapsed = time.monotonic() - t0 + build_time
    with capsys.disabled():
        report("4 (unique zero-dimensional stratum)", elapsed, 60.0, f"{len(instances)} instances")


def test_recursion_check_matches_fraction_oracle(multicopy_suite):
    # on every criterion-4 instance: the zero stratum, and each mutation of
    # it by +1 or -1 in one entry of one block
    instances, _ = multicopy_suite
    verdicts = set()
    for multi, mb, _ in instances:
        lam = unique_zero_stratum(multi, mb).lam
        n = multi.lifted.shape.n
        labels = [lam]
        for k, block in enumerate(lam):
            for delta in (1, -1):
                i = (k + delta) % n
                labels.append(lam[:k] + (block[:i] + (block[i] + delta,) + block[i + 1 :],) + lam[k + 1 :])
        for label in labels:
            got = recursion_check(multi, mb, label)
            assert got == recursion_check_by_fractions(multi, mb, label), (multi.base.shape, mb, label)
            verdicts.add(got[0])
    assert verdicts == {True, False}


def test_criterion_5_gl3_connectivity(gl3_suite, capsys):
    instances, build_time = gl3_suite
    t0 = time.monotonic()
    chains = 0
    for d, mu, S in instances:
        graph = build_graph(d, mu)
        assert len(graph.components) == 1, (d.shape.p, d.tau, mu)
        labels = [s.lam for s in S]
        label_set = set(labels)
        for a, b in itertools.combinations(labels, 2):
            chain, steps = chain_gl3(d, mu, a, b)
            chains += 1
            assert chain[0] == a and chain[-1] == b
            assert all(c in label_set for c in chain)
    elapsed = time.monotonic() - t0 + build_time
    with capsys.disabled():
        report(
            "5 (GL3 connectivity, exhaustive)",
            elapsed,
            120.0,
            f"{len(instances)} instances, {chains} chains",
        )


def test_criterion_6_descent_lemma(capsys):
    t0 = time.monotonic()
    rng = random.Random(9973)
    # pool of fixed points with pairwise non-integral coordinate differences
    pool = []
    while len(pool) < 60:
        n = rng.randint(2, 5)
        p = rng.choice((2, 3, 5))
        m = rng.randint(1, p**n - 1)
        if not is_caruso_simple(n, p, m):
            continue
        pool.append(caruso_datum(n, 1, p, m).e[0])
    trials = 10_000
    counts = [0] * 5
    for _ in range(trials):
        e = rng.choice(pool)
        n = len(e)
        if rng.random() < 0.15:
            c = rng.randint(-3, 3)  # near-constant integer part forces h = 0
            v = tuple(c - x for x in e)
        else:
            v = tuple(rng.randint(-4, 4) - x for x in e)
        vp = tuple(rng.randint(-4, 4) - x for x in e)
        shift = sum(v) - sum(vp)
        vp = (vp[0] + shift,) + vp[1:]
        dv, hv = descent_stats(v)
        dvp, hvp = descent_stats(vp)
        sv, svp = varsigma(v, 1), varsigma(vp, 1)
        dsv, hsv = descent_stats(sv)
        # (1) and (2)
        if hv >= 1:
            assert dsv == dv - 1 and hsv == hv - 1
            counts[0] += 1
        else:
            assert hsv == 0
            counts[1] += 1
        # (3): the same varsigma power drives both to the unique h = 0
        # representative of their common sum
        rv, rvp = v, vp
        for _ in range(max(hv, hvp)):
            rv, rvp = varsigma(rv, 1), varsigma(rvp, 1)
        assert descent_stats(rv)[1] == 0 and descent_stats(rvp)[1] == 0
        assert rv == rvp
        counts[2] += 1
        # (4)
        assert (dv <= dvp) == (hv <= hvp)
        counts[3] += 1
        # (5)
        if dv <= dvp:
            assert descent_stats(sv)[0] <= descent_stats(svp)[0]
            counts[4] += 1
    assert min(counts) > 1000
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report("6 (descent statistics, 10^4 trials)", elapsed, 60.0)


def test_criterion_7_sum_profiles(multicopy_suite, gl3_suite, capsys):
    t0 = time.monotonic()
    checked = 0
    goldens = (
        (counterexample_datum_a(3), ((5, 3, 3, 1),)),
        (counterexample_datum_a(5), ((9, 5, 5, 1),)),
        (counterexample_datum_b(3), ((4, 0, 0), (3, 3, 0))),
    )
    instances = [(d, mu, enumerate_strata(d, mu)) for d, mu in goldens]
    instances.extend((multi.lifted, mb, S) for multi, mb, S in multicopy_suite[0])
    instances.extend(gl3_suite[0])
    for datum, mu, S in instances:
        # every label has the sums that mu and tau alone determine
        sums = block_sums(datum, mu)
        assert all(sum_profile(s.lam) == sums for s in S), (datum, mu)
        checked += 1
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report("7 (equal block sums across strata)", elapsed, 60.0, f"{checked} instances")


def test_criterion_8_oracle_equivalence(capsys):
    t0 = time.monotonic()
    mus = [((a, b),) for a in range(2, -3, -1) for b in range(2, -3, -1) if a >= b]
    checked = 0
    for p in (2, 3):
        base = caruso_datum(2, 1, p, 1)
        for r in (1, 2):
            field = GF(p, r)
            for mu in mus:
                S = enumerate_strata(base, mu)
                labels = {s.lam for s in S}
                pts = kisin_points(base, mu, field, 2)
                got = [lam for _, lam in pts]
                assert set(got) <= labels, (p, r, mu)
                assert labels <= set(got), (p, r, mu)
                for s in S:
                    if s.singleton == "proven":
                        assert got.count(s.lam) == 1, (p, r, mu, s.lam)
                checked += 1
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report("8 (oracle equivalence, GL2)", elapsed, 300.0, f"{checked} (p, field, mu) cases")


def test_criterion_9_dominance_oracle(capsys):
    t0 = time.monotonic()
    checked = 0
    for n in (1, 2, 3, 4):
        vecs = []

        def rec(pos, prev, cur):
            if pos == n:
                vecs.append(tuple(cur))
                return
            for v in range(min(prev, 3), -4, -1):
                cur.append(v)
                rec(pos + 1, v, cur)
                cur.pop()

        rec(0, 3, [])
        by_sum = {}
        for v in vecs:
            by_sum.setdefault(sum(v), []).append(v)
        for group in by_sum.values():
            for a in group:
                for b in group:
                    assert dominance_leq((b,), (a,)) == reachable_by_simple_coroots(a, b)
                    checked += 1
        # distinct sums can never dominate: sample systematically
        for a, b in itertools.islice(itertools.product(vecs, vecs), 0, None, 17):
            if sum(a) != sum(b):
                assert not dominance_leq((b,), (a,))
                checked += 1
    # two blocks: exhaustive at n = 2, blockwise conjunction of the search
    vecs2 = [(a, b) for a in range(3, -4, -1) for b in range(3, -4, -1) if a >= b]
    for a1, b1 in itertools.product(vecs2, repeat=2):
        if sum(a1) != sum(b1):
            continue
        for a2, b2 in itertools.product(vecs2, repeat=2):
            if sum(a2) != sum(b2):
                continue
            got = dominance_leq((b1, b2), (a1, a2))
            want = reachable_by_simple_coroots(a1, b1) and reachable_by_simple_coroots(a2, b2)
            assert got == want
            checked += 1
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report("9 (dominance vs coroot search)", elapsed, 30.0, f"{checked} pairs")


def test_criterion_10_enumeration_completeness(capsys):
    t0 = time.monotonic()
    # GL2 instances of criterion 8: exhaustive box at B = |tau| + (n+1)|mu|
    mus = [((a, b),) for a in range(2, -3, -1) for b in range(2, -3, -1) if a >= b]
    for p in (2, 3):
        base = caruso_datum(2, 1, p, 1)
        for mu in mus:
            S = {s.lam for s in enumerate_strata(base, mu)}
            tmax = max(abs(x) for blk in base.tau for x in blk)
            mmax = max(abs(x) for blk in mu for x in blk)
            B = tmax + 3 * mmax
            box = set()
            for flat in itertools.product(range(-B, B + 1), repeat=2):
                lam = (flat,)
                if dominance_leq(dominant(natural_lambda(base, lam))[0], mu):
                    box.add(lam)
            assert S == box, (p, mu)
    # counterexample (a) at p = 3: vectorized box search over 9.15M candidates
    da = counterexample_datum_a(3)
    mu = (5, 3, 3, 1)
    tau = np.array([2, 0, 2, 0], dtype=np.int64)
    w = (1, 3, 0, 2)
    winv = np.argsort(np.array(w))
    B = 2 + 5 + 4 * 5
    rng_ = np.arange(-B, B + 1, dtype=np.int64)
    mu_prefix = np.cumsum(np.array(mu, dtype=np.int64))
    found = []
    tail = np.stack(np.meshgrid(rng_, rng_, indexing="ij"), axis=-1).reshape(-1, 2)
    for head in itertools.product(rng_, rng_):
        lam = np.concatenate(
            [np.broadcast_to(np.array(head, dtype=np.int64), (tail.shape[0], 2)), tail],
            axis=1,
        )
        nat = -lam + tau + 3 * lam[:, winv]
        pref = np.cumsum(-np.sort(-nat, axis=1), axis=1)
        ok = (pref[:, 3] == mu_prefix[3]) & np.all(pref[:, :3] <= mu_prefix[:3], axis=1)
        found.extend(tuple(int(x) for x in row) for row in lam[ok])
    S = {s.lam[0] for s in enumerate_strata(da, (mu,))}
    assert set(found) == S == {(2, 1, 1, 0), (1, 1, 1, 1)}
    elapsed = time.monotonic() - t0
    with capsys.disabled():
        report("10 (enumeration vs box search)", elapsed, 60.0)
