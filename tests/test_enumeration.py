"""The strata enumeration against the product-of-candidates oracle and the
box search: the residue join, the cycle walk and the dispatch between them,
and the candidate generation and count."""

import contextlib
import functools
import itertools
import json
import os
import random
import re
import sys
from collections import Counter
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import (
    box_strata,
    candidate_count,
    candidate_product,
    contracting_datum,
    dominant_vecs,
    enum_cap_by_environ_get,
    gl3_sweep_instances,
    product_strata,
    require_mu_by_steps,
    solve_affine_integral,
    strata_by_fresh_labels,
    walk_by_box,
    walk_by_exact_count,
    walk_plan_by_position_map,
)
from kisin import connectivity, oracle, strata
from kisin.cli import CASES, counterexample, main
from kisin.connectivity import build_graph, pi0_report
from kisin.core import ExtAffine, GroupShape, cochar_add, cochar_sub
from kisin.errors import ConfigError, EnumerationCapError, KisinError, TheoremViolationError
from kisin.multicopy import decompose_mu, make_multi
from kisin.normal_form import _solve_block0, _solve_plan, alcove_reduce, caruso_datum, is_caruso_simple, make_datum
from kisin.oracle import GF, kisin_points
from kisin.strata import (
    _distinct_permutations,
    central_twist,
    enumerate_strata,
    make_stratum,
    stratum_nonempty,
)


def assert_matches_product(datum, mu):
    S = enumerate_strata(datum, mu)
    assert S == product_strata(datum, mu), mu
    return S


def spy_dispatch(mp):
    """A list that records each run of the walk or the join, by name, while
    the patches of mp hold."""
    taken = []
    for name in ("_walk", "_join"):
        real = getattr(strata, name)
        mp.setattr(strata, name, lambda *args, name=name, real=real: taken.append(name) or real(*args))
    return taken


def dispatched_path(datum, mu):
    """The paths enumerate_strata takes on (datum, mu), by name; the call is
    handed a fresh state of its own and an empty slot, so the dispatch runs
    even when the slot holds the pair or a class of the datum's index holds
    a top that dominates mu, and the state and the slot are left as they
    were."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strata, "_state", strata._state.__wrapped__)
        mp.setattr(strata, "_slot", None)
        taken = spy_dispatch(mp)
        enumerate_strata(datum, mu)
    return taken


def fresh_enumeration(datum, mu):
    """enumerate_strata on (datum, mu) from a fresh state of its own and an
    empty slot, which neither reads nor changes the datum's state or the
    slot."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(strata, "_state", strata._state.__wrapped__)
        mp.setattr(strata, "_slot", None)
        return enumerate_strata(datum, mu)


def assert_empty_state(datum):
    """The datum's state holds no class, and the slot holds no pair of the
    datum."""
    assert strata._state(datum) == {}
    assert strata._slot is None or strata._slot[0] != datum


def label_free_within_the_cap(datum, mu):
    """Whether (datum, mu) has no label (``block_sums`` is None) and its box
    is within the cap, where enumerate_strata returns () before any path."""
    return strata.block_sums(datum, mu) is None and strata._candidate_box(mu) <= strata._enum_cap()


def assert_dispatch_follows_the_box(datum, mu):
    """enumerate_strata takes the path of the rule on the box, which walks
    wherever the rule on the exact product walks, since box >= product; a
    label-free pair within the cap takes no path."""
    walk = walk_by_box(datum, mu)
    if label_free_within_the_cap(datum, mu):
        assert dispatched_path(datum, mu) == [], mu
    else:
        assert dispatched_path(datum, mu) == (["_walk"] if walk else ["_join"]), mu
    assert walk or not walk_by_exact_count(datum, mu), mu


def cycle_count(datum):
    return len(_solve_plan(datum.shape, datum.w).cycles)


def reduced(shape, tau, w):
    """The alcove reduction of u^tau w, or None when its fixed point is not in
    general position."""
    try:
        return alcove_reduce(make_datum(shape, ExtAffine(tau, w)))[1]
    except KisinError:
        return None


def multi_cycle_datums():
    """Alcove datums whose permutation W has at least two cycles: GL_4 with
    two 2-cycles at p = 3, GL_3 with three fixed points at p = 5, and GL_3,
    f = 2, with W a transposition at p = 3."""
    specs = [
        (GroupShape.res_field(4, 1, 3), [((1, 0, 3, 2),), ((2, 3, 0, 1),), ((3, 2, 1, 0),)], range(0, 3)),
        (GroupShape.res_field(3, 1, 5), [((0, 1, 2),)], range(0, 4)),
        (GroupShape.res_field(3, 2, 3), [((1, 0, 2), (0, 1, 2)), ((0, 1, 2), (0, 2, 1))], range(0, 2)),
    ]
    out = {}
    for shape, ws, entries in specs:
        for w in ws:
            for flat in itertools.product(entries, repeat=shape.n * shape.blocks):
                tau = tuple(flat[k * shape.n : (k + 1) * shape.n] for k in range(shape.blocks))
                d = reduced(shape, tau, w)
                if d is not None:
                    out.setdefault((shape, d.tau, d.w), d)
    return list(out.values())


MULTI_CYCLE = multi_cycle_datums()


class TestGoldenCounterexamples:
    @pytest.mark.parametrize(
        "case,p", [("a", p) for p in (3, 5, 7, 11, 13)] + [("b", p) for p in (3, 5, 7, 11)]
    )
    def test_matches_product(self, case, p):
        datum, mu = counterexample(CASES[case], p)
        S = assert_matches_product(datum, mu)
        assert tuple(s.lam for s in S) == CASES[case]["expected"]


class TestAgainstOracles:
    def test_gl3_sweep_sample(self):
        checked = 0
        for p in (2, 3):
            ms = [m for m in range(-(p**3 - 1), p**3) if is_caruso_simple(3, p, m)][::5]
            for m in ms:
                d = caruso_datum(3, 1, p, m)
                for mu in dominant_vecs(3, -2, 2):
                    checked += len(assert_matches_product(d, (mu,)))
        assert checked > 100

    def test_gl3_box_search(self):
        for m in (1, 5):
            d = caruso_datum(3, 1, 2, m)
            for mu in dominant_vecs(3, -1, 1):
                assert {s.lam for s in enumerate_strata(d, (mu,))} == box_strata(d, (mu,))

    def test_multicopy_lifts(self):
        rng = random.Random(20261019)
        done = nonempty = 0
        while done < 30:
            p, n, f = rng.choice((2, 3)), rng.randint(2, 3), rng.randint(1, 2)
            m = rng.randint(1, p ** (f * n) - 1)
            if not is_caruso_simple(n, p**f, m):
                continue
            ms = [rng.randint(0, 3) for _ in range(f)]
            d = rng.randint(max(max(ms), 2), 3)
            multi = make_multi(caruso_datum(n, f, p, m), d)
            assert 1 in multi.lifted.shape.eps
            mu_bullet = decompose_mu(tuple((x,) + (0,) * (n - 1) for x in ms), d)
            nonempty += bool(assert_matches_product(multi.lifted, mu_bullet))
            assert_dispatch_follows_the_box(multi.lifted, mu_bullet)
            done += 1
        assert nonempty > 5

    def test_multicopy_box_search(self):
        mu_bullet = decompose_mu(((1, 0),), 2)
        sizes = []
        for p, m in ((2, 1), (3, 5)):
            lifted = make_multi(caruso_datum(2, 1, p, m), 2).lifted
            S = {s.lam for s in enumerate_strata(lifted, mu_bullet)}
            assert S == box_strata(lifted, mu_bullet)
            sizes.append(len(S))
        assert sizes == [1, 0]

    def test_multi_cycle_datums(self):
        assert {cycle_count(d) for d in MULTI_CYCLE} == {2, 3}
        nonempty = 0
        for d in MULTI_CYCLE:
            n = d.shape.n
            for block in dominant_vecs(n, -1, 2):
                mu = (block,) * d.shape.blocks
                nonempty += bool(assert_matches_product(d, mu))
        assert nonempty > 20

    def test_multi_cycle_box_search(self):
        gl4 = [d for d in MULTI_CYCLE if d.shape.n == 4][:2]
        gl3 = [d for d in MULTI_CYCLE if d.shape.n == 3 and d.shape.blocks == 1][:2]
        assert len(gl4) == len(gl3) == 2
        for d in gl4 + gl3:
            for mu in ((1,) + (0,) * (d.shape.n - 1), (1, 1) + (0,) * (d.shape.n - 2)):
                assert {s.lam for s in enumerate_strata(d, (mu,))} == box_strata(d, (mu,))

    @settings(max_examples=100, deadline=None)
    @given(
        p=st.sampled_from((2, 3)),
        n=st.integers(1, 3),
        eps=st.lists(st.booleans(), min_size=1, max_size=3),
        data=st.data(),
    )
    def test_hypothesis_data(self, p, n, eps, data):
        assume(any(eps))
        blocks = len(eps)
        shape = GroupShape(n=n, blocks=blocks, eps=tuple(p if e else 1 for e in eps), p=p)
        w = tuple(tuple(data.draw(st.permutations(range(n)))) for _ in range(blocks))
        ints = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        tau = tuple(tuple(data.draw(ints)) for _ in range(blocks))
        datum = reduced(shape, tau, w)
        assume(datum is not None)
        small = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
        mu = tuple(tuple(sorted(data.draw(small), reverse=True)) for _ in range(blocks))
        assert_matches_product(datum, mu)


def walk_and_join(datum, mu):
    """The private walk and join on the same inputs, which must agree: the
    walk's radius and the labels.  enumerate_strata must also take the path
    that the dispatch rule chooses on the candidate box."""
    radius = strata._walk_radius(datum, mu)
    walked = strata._walk(datum, mu, radius)
    assert walked == strata._join(datum, mu), mu
    assert_dispatch_follows_the_box(datum, mu)
    return radius, {lam for lam, _, _ in walked}


@pytest.fixture
def no_candidate_cache():
    yield
    strata.candidate_blocks.cache_clear()


PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)


@pytest.mark.usefixtures("no_candidate_cache")
class TestWalkAgainstJoin:
    @pytest.mark.parametrize(
        "case,p", [("a", p) for p in PRIMES] + [("b", p) for p in PRIMES if p <= 31]
    )
    def test_golden(self, case, p):
        datum, mu = counterexample(CASES[case], p)
        radius, labels = walk_and_join(datum, mu)
        assert labels == box_strata(datum, mu, radius) == set(CASES[case]["expected"])

    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_gl3_simple_twists(self, p):
        mus = dominant_vecs(3, -3, 3)
        shifts = itertools.cycle(range(-2, 3))
        checked = nonempty = 0
        for m in range(-(p**3 - 1), p**3):
            if not is_caruso_simple(3, p, m):
                continue
            c = next(shifts)
            base = caruso_datum(3, 1, p, m)
            datum, _ = central_twist(base, base.shape.zero_cochar(), ((c,) * 3,))
            for v in mus:
                mu = (tuple(x + c for x in v),)
                radius, labels = walk_and_join(datum, mu)
                if checked % 97 == 0:
                    assert labels == box_strata(datum, mu, radius), (m, mu)
                checked += 1
                nonempty += bool(labels)
        assert nonempty > 100

    def test_empty_variety(self):
        datum, _ = counterexample(CASES["a"], 19)
        assert walk_and_join(datum, ((1, 0, 0, 0),))[1] == set()

    @settings(max_examples=100, deadline=None)
    @given(
        f=st.integers(1, 3),
        n=st.integers(1, 4),
        data=st.data(),
    )
    def test_hypothesis_contracting(self, f, n, data):
        eps = data.draw(st.lists(st.sampled_from((2, 3)), min_size=f, max_size=f))
        w = tuple(tuple(data.draw(st.permutations(range(n)))) for _ in range(f))
        tau = tuple(tuple(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))) for _ in range(f))
        small = st.lists(st.integers(-1, 1), min_size=n, max_size=n)
        mu = tuple(tuple(sorted(data.draw(small), reverse=True)) for _ in range(f))
        datum = contracting_datum(tau, w, eps)
        radius, labels = walk_and_join(datum, mu)
        if (2 * radius + 1) ** (n * f) <= 5000:
            assert labels == box_strata(datum, mu, radius)
        assert labels == {s.lam for s in product_strata(datum, mu)}


class TestWalkPlan:
    """The walk's cycles, read from the solver's cycles of W, equal the
    cycles of the position map followed one step at a time, in the same
    order: the path bound, and with it every cap message, depends on it."""

    def test_random_twists(self):
        rng = random.Random(97)
        shapes = set()
        for _ in range(640):
            n, blocks, p = rng.randint(1, 4), rng.randint(1, 4), rng.choice((2, 3))
            eps = [rng.choice((1, p)) for _ in range(blocks)]
            eps[rng.randrange(blocks)] = p
            shape = GroupShape(n=n, blocks=blocks, eps=tuple(eps), p=p)
            w = tuple(tuple(rng.sample(range(n), n)) for _ in range(blocks))
            walk = _solve_plan(shape, w).walk
            assert walk == walk_plan_by_position_map(shape, w), w
            shapes.add((n, blocks, len(walk)))
        assert {cycles for _, _, cycles in shapes} == {1, 2, 3, 4}

    @pytest.mark.parametrize("case,p", [(c, p) for c in "ab" for p in (3, 5, 211)])
    def test_golden(self, case, p):
        datum, _ = counterexample(CASES[case], p)
        assert datum.plan.walk == walk_plan_by_position_map(datum.shape, datum.w)


class TestDispatch:
    @pytest.mark.parametrize("case,p", [("a", 19), ("b", 17)])
    def test_walk_builds_no_candidates(self, monkeypatch, case, p):
        datum, mu = counterexample(CASES[case], p)
        forbid(monkeypatch, "candidate_blocks")
        forbid(monkeypatch, "_join")
        assert tuple(s.lam for s in enumerate_strata(datum, mu)) == CASES[case]["expected"]

    def test_multicopy_lift_keeps_the_join(self, monkeypatch):
        lifted = make_multi(caruso_datum(2, 1, 2, 1), 2).lifted
        mu_bullet = decompose_mu(((1, 0),), 2)
        assert strata._walk_radius(lifted, mu_bullet) is None
        forbid(monkeypatch, "_walk")
        assert len(enumerate_strata(lifted, mu_bullet)) == 1

    @pytest.mark.parametrize(
        "tau,w,mu",
        [
            (((-1, 2, -1), (-2, -2, 1)), ((2, 1, 0), (0, 1, 2)), ((1, 0, -1), (1, -1, -2))),
            (((1, 1, 2, -1), (-2, -1, -2, 1)), ((3, 2, 0, 1), (2, 0, 1, 3)), ((1, 0, 0, -1), (0, -1, -1, -1))),
            (((1, -1, 1), (-1, 0, 0)), ((0, 1, 2), (0, 2, 1)), ((2, 1, 0), (2, 0, -1))),
        ],
    )
    def test_tie_keeps_the_join(self, tau, w, mu):
        # the box equals WALK_PATH_COST times the path bound, past both
        # prefilters; the first pair is label-free, so within the cap it
        # takes no path at all, and the others have labels and keep the join
        datum = contracting_datum(tau, w, (3, 3))
        radius = strata._walk_radius(datum, mu)
        box = strata._candidate_box(mu)
        assert box > strata.WALK_PATH_COST * (2 * radius + 1)
        assert box == strata.WALK_PATH_COST * strata._walk_bound(datum, mu, radius)
        free = strata.block_sums(datum, mu) is None
        assert free == (tau == (((-1, 2, -1), (-2, -2, 1))))
        assert dispatched_path(datum, mu) == ([] if free else ["_join"])
        assert enumerate_strata(datum, mu) == product_strata(datum, mu)

    @pytest.mark.parametrize(
        "datum,mu",
        [
            (contracting_datum(((-1, 2, -1), (-2, -2, 1)), ((2, 1, 0), (0, 1, 2)), (3, 3)), ((1, 0, -1), (1, -1, -2))),
            (caruso_datum(3, 1, 3, 1), ((2, 1, -1),)),
            (caruso_datum(3, 1, 3, 5), ((3, 0, -3),)),
        ],
    )
    def test_label_free_pair_reads_no_table(self, monkeypatch, datum, mu):
        # the block sums have no integer solution and the box is within the
        # cap, so enumeration returns before it picks a path, reads a
        # candidate table or the datum's state, or solves a candidate; the
        # first pair is a tie that would keep the join
        assert strata.block_sums(datum, mu) is None
        forbid(monkeypatch, "_candidate_table")
        forbid(monkeypatch, "_solve_label")
        assert dispatched_path(datum, mu) == []
        forbid(monkeypatch, "_state")
        assert enumerate_strata(datum, mu) == ()
        # the join, called directly, still returns at its block-sum test
        assert strata._join(datum, mu) == []

    def test_label_free_sweep_pairs_take_no_path(self, monkeypatch):
        # every label-free pair of the GL_3 sweep's grid (p in {2, 3}, every
        # simple twist, every dominant mu of sup-norm <= 4) returns () before
        # the dispatch: no radius, no walk or join, no datum state or class
        datums = [caruso_datum(3, 1, p, m) for p in (2, 3) for m in range(-(p**3 - 1), p**3) if is_caruso_simple(3, p, m)]
        pairs = [(d, (v,)) for d in datums for v in dominant_vecs(3, -4, 4)]
        free = [(d, mu) for d, mu in pairs if strata.block_sums(d, mu) is None]
        nonempty = {(d, mu) for d, mu, _ in gl3_sweep_instances()}
        assert len(free) > 1000 and nonempty.isdisjoint(free)
        assert len(nonempty) + len(free) <= len(pairs)
        strata.clear_caches()
        for name in ("_join", "_walk", "_walk_radius", "_join_cap"):
            forbid(monkeypatch, name)
        for d, mu in free:
            assert enumerate_strata(d, mu) == ()
        assert strata._state.cache_info().currsize == 0
        monkeypatch.undo()
        assert all(strata._state(d) == {} for d in datums[-strata._STATES :])

    def test_verify_counterexamples_at_p101(self, capsys):
        # golden (b) has 28,135,068 candidates here, past the default cap,
        # but the walk's path bound of 96 is within it
        for case in "ab":
            assert main(["verify-counterexample", case, "--p", "101"]) == 0
            assert json.loads(capsys.readouterr().out)["ok"] is True

    def test_verify_counterexamples_at_p211_count_nothing_exactly(self, monkeypatch, capsys):
        # at the default cap the walk checks its path bound and builds no
        # candidate set
        forbid(monkeypatch, "dominant_blocks_leq")
        forbid(monkeypatch, "candidate_blocks")
        for case in "ab":
            assert main(["verify-counterexample", case, "--p", "211"]) == 0
            assert json.loads(capsys.readouterr().out)["ok"] is True


# Inputs whose candidate box exceeds their candidate product by more than 1:
# the golden twists at small p (walk, and join for (b) at p = 3), a GL_3 sweep
# twist and a multi-copy lift (join only).
CAP_INPUTS = [counterexample(CASES[case], p) for case, p in (("a", 5), ("a", 11), ("b", 3), ("b", 7))] + [
    (caruso_datum(3, 1, 3, 5), ((3, 0, -3),)),
    (make_multi(caruso_datum(3, 1, 2, 3), 2).lifted, decompose_mu(((2, 0, 0),), 2)),
]


def cap_limit(datum, mu):
    """The least cap that admits (datum, mu), and the message of the refusal
    one below it: the walk's path bound, or on the join the larger of its
    candidate product and its largest block box (the first such block)."""
    if walk_by_box(datum, mu):
        bound = strata._walk_bound(datum, mu, strata._walk_radius(datum, mu))
        return bound, f"{bound} walk paths exceed cap {bound - 1} (KISIN_MAX_ENUM)"
    count = candidate_product(mu)
    k, box = max(enumerate(strata._candidate_box((b,)) for b in mu), key=lambda kb: kb[1])
    if box > count:
        return box, f"{box} candidates in the box of block {k + 1} exceed cap {box - 1} (KISIN_MAX_ENUM)"
    return count, f"{count} candidates exceed cap {count - 1} (KISIN_MAX_ENUM)"


class TestEnumerationCap:
    @pytest.mark.parametrize("datum,mu", CAP_INPUTS)
    def test_raises_exactly_past_the_product(self, monkeypatch, datum, mu):
        # each path refuses exactly past the product it would work through:
        # the walk's path bound, or the join's candidate product (a block's
        # box when that is larger)
        limit, message = cap_limit(datum, mu)
        box = strata._candidate_box(mu)
        assert box > candidate_product(mu) + 1 and limit <= box
        want = enumerate_strata(datum, mu)
        monkeypatch.setenv("KISIN_MAX_ENUM", str(limit - 1))
        with pytest.raises(EnumerationCapError) as info:
            enumerate_strata(datum, mu)
        assert str(info.value) == message
        for cap in (limit, limit + 1, box):
            monkeypatch.setenv("KISIN_MAX_ENUM", str(cap))
            assert enumerate_strata(datum, mu) == want

    def test_inputs_reach_every_check(self):
        messages = " | ".join(cap_limit(datum, mu)[1] for datum, mu in CAP_INPUTS)
        for check in ("walk paths exceed", "candidates exceed", "in the box of block"):
            assert check in messages

    @pytest.mark.parametrize("datum,mu", CAP_INPUTS)
    def test_box_within_the_cap_counts_nothing(self, monkeypatch, datum, mu):
        # at cap = box neither path can refuse, and the join checks nothing:
        # the box of the argument checks (``_require_mu``) is the only one
        # formed, and no block box is; the slot's repeat of the pair forms
        # none
        want = enumerate_strata(datum, mu)
        box = strata._candidate_box(mu)
        monkeypatch.setenv("KISIN_MAX_ENUM", str(box))
        boxes = []
        real = strata._require_mu

        def spy(datum, mu):
            checked = real(datum, mu)
            boxes.append(checked[2])
            return checked

        monkeypatch.setattr(strata, "_require_mu", spy)
        forbid(monkeypatch, "_candidate_box")
        forbid(monkeypatch, "_join_cap")
        strata._slot = None
        assert enumerate_strata(datum, mu) == want
        assert boxes == [box]
        assert enumerate_strata(datum, mu) == want
        assert boxes == [box] if want else boxes == [box, box]  # a label-free pair fills no slot

    @pytest.mark.parametrize("datum,mu", [CAP_INPUTS[2], CAP_INPUTS[4]])
    def test_block_box_refuses_before_any_set_is_built(self, monkeypatch, datum, mu):
        box = max(strata._candidate_box((b,)) for b in mu)
        monkeypatch.setenv("KISIN_MAX_ENUM", str(box - 1))
        forbid(monkeypatch, "candidate_blocks")
        forbid(monkeypatch, "_candidate_table")
        with pytest.raises(EnumerationCapError, match=f"^{box} candidates in the box of block"):
            enumerate_strata(datum, mu)

    def test_product_stops_at_the_first_distinct_block_past_the_cap(self, monkeypatch):
        # block boxes 4, 3 and 2, candidate sets of 4, 3 and 2: the running
        # product passes cap 11 at the second block, so the third is never built
        lifted = make_multi(caruso_datum(2, 1, 3, 1), 3).lifted
        monkeypatch.setenv("KISIN_MAX_ENUM", "11")
        built = []
        real = strata.candidate_blocks
        monkeypatch.setattr(strata, "candidate_blocks", lambda b: built.append(b) or real(b))
        with pytest.raises(EnumerationCapError, match=r"^12 candidates exceed cap 11 \(KISIN_MAX_ENUM\)$"):
            enumerate_strata(lifted, ((3, 0), (2, 0), (1, 0)))
        assert built == [(3, 0), (2, 0)]
        # copies of a block count at once: 4^3 = 64 after the one set is built
        built.clear()
        with pytest.raises(EnumerationCapError, match="^64 candidates exceed"):
            enumerate_strata(lifted, ((3, 0),) * 3)
        assert built == [(3, 0)]

    def test_huge_block_box_refuses_at_once(self, monkeypatch):
        # the box grows like |mu|^(n-1); nothing is counted or built
        monkeypatch.delenv("KISIN_MAX_ENUM", raising=False)
        forbid(monkeypatch, "dominant_blocks_leq")
        forbid(monkeypatch, "candidate_blocks")
        message = "^40000400001 candidates in the box of block 1 exceed cap 10000000 "
        with pytest.raises(EnumerationCapError, match=message):
            enumerate_strata(caruso_datum(3, 1, 3, 1), ((100000, 0, -100000),))

    def test_label_free_pair_refuses_past_the_cap(self, monkeypatch):
        # the cap checks come before the join's block-sum exit, so a pair
        # with no label refuses as before: past its candidate product, and
        # at once on a huge block box
        datum, mu = CAP_INPUTS[4]
        huge = caruso_datum(3, 1, 3, 1), ((100000, 0, -100000),)
        assert strata.block_sums(datum, mu) is None and strata.block_sums(*huge) is None
        limit, message = cap_limit(datum, mu)
        assert message == "49 candidates in the box of block 1 exceed cap 48 (KISIN_MAX_ENUM)"
        forbid(monkeypatch, "_solve_label")
        monkeypatch.setenv("KISIN_MAX_ENUM", str(limit - 1))
        with pytest.raises(EnumerationCapError) as info:
            enumerate_strata(datum, mu)
        assert str(info.value) == message
        monkeypatch.delenv("KISIN_MAX_ENUM")
        with pytest.raises(EnumerationCapError) as info:
            enumerate_strata(*huge)
        assert str(info.value) == "40000400001 candidates in the box of block 1 exceed cap 10000000 (KISIN_MAX_ENUM)"
        assert enumerate_strata(datum, mu) == ()

    def test_label_free_pair_past_the_cap_exits_3(self, monkeypatch, capsys):
        # the CLI's refusal of the label-free pair past the default cap keeps
        # its exit code and message: the label-free return is taken only
        # within the cap
        monkeypatch.delenv("KISIN_MAX_ENUM", raising=False)
        assert strata.block_sums(caruso_datum(3, 1, 3, 1), ((100000, 0, -100000),)) is None
        argv = ["graph", "--p", "3", "--n", "3", "--f", "1", "--m", "1", "--mu", "[[100000,0,-100000]]"]
        for _ in range(2):
            assert main(argv) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "40000400001 candidates in the box of block 1 exceed cap 10000000 (KISIN_MAX_ENUM)" in captured.err

    def test_counts_print_past_every_digit_limit(self):
        # the digits of a cap message, at the least limit the interpreter
        # accepts, equal str() with the limit lifted
        values = [0, 1, 10**600 - 1, 10**600, 10**600 + 1, 10**1200, 7**9000, 3**20000 - 1]
        if not hasattr(sys, "set_int_max_str_digits"):
            assert [strata._decimal(x) for x in values] == [str(x) for x in values]
            return
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            got = [strata._decimal(x) for x in values]
            sys.set_int_max_str_digits(0)
            assert got == [str(x) for x in values]
        finally:
            sys.set_int_max_str_digits(limit)

    @pytest.mark.parametrize("datum,mu", [CAP_INPUTS[0], CAP_INPUTS[2]])
    @pytest.mark.parametrize("raw", ["abc", "-1", "1e3", "1_000", " 12 ", "+5", "\u0663"])
    def test_malformed_cap_on_both_paths(self, monkeypatch, datum, mu, raw):
        monkeypatch.setenv("KISIN_MAX_ENUM", raw)
        with pytest.raises(ConfigError, match=f"^{re.escape(f'KISIN_MAX_ENUM={raw!r} is not a non-negative integer')}$"):
            enumerate_strata(datum, mu)


# The values of KISIN_MAX_ENUM that the direct read is checked on: unset,
# empty, caps below and within the need of CAP_READ_PAIR, malformed, and a
# byte that is not UTF-8 (read by os.environ as a lone surrogate).
CAP_VALUES = [None, "", "0", "7", "007", "abc", "\udcff"]
CAP_READ_PAIR = (caruso_datum(3, 1, 3, 5), ((3, 1, -3),))  # box 49


@contextlib.contextmanager
def monkeypatched_cap(value):
    with pytest.MonkeyPatch.context() as mp:
        if value is None:
            mp.delenv("KISIN_MAX_ENUM", raising=False)
        else:
            mp.setenv("KISIN_MAX_ENUM", value)
        yield


def set_cap(route, value):
    """Sets KISIN_MAX_ENUM to value by one route, or deletes it for None;
    returns a context that holds the value while it is open, and that undoes
    it on exit for the routes that undo (monkeypatch, patch.dict)."""
    key = "KISIN_MAX_ENUM"
    if route == "item":
        if value is None:
            del os.environ[key]
        else:
            os.environ[key] = value
        return contextlib.nullcontext()
    if route == "bytes":
        if value is None:
            del os.environb[key.encode()]
        else:
            os.environb[key.encode()] = os.fsencode(value)
        return contextlib.nullcontext()
    if route == "monkeypatch":
        return monkeypatched_cap(value)
    values = {k: v for k, v in os.environ.items() if k != key}
    if value is not None:
        values[key] = value
    return mock.patch.dict(os.environ, values, clear=True)


def expect_cap(call):
    """call's result under the cap that os.environ.get reads, or the refusal
    it must raise: the reference's ConfigError as it is, or the cap error of
    a cap below the call's need, given as (need, what)."""
    try:
        cap = enum_cap_by_environ_get()
    except ConfigError as exc:
        with pytest.raises(ConfigError) as info:
            call["run"]()
        assert str(info.value) == str(exc)
        return
    need, what = call["need"]
    if cap >= need:
        assert call["run"]() == call["want"]
    else:
        with pytest.raises(EnumerationCapError) as info:
            call["run"]()
        assert str(info.value) == f"{need} {what} exceed cap {cap} (KISIN_MAX_ENUM)"


class TestCapRead:
    """strata._enum_cap reads os.environ's dict directly; every route that
    changes the variable through os.environ reaches it at the very next
    call."""

    @pytest.mark.parametrize("value", CAP_VALUES)
    @pytest.mark.parametrize("route", ["item", "monkeypatch", "patch-dict"] + ["bytes"] * os.supports_bytes_environ)
    def test_read_matches_environ_get(self, monkeypatch, route, value):
        # recorded, so that the variable is unset again whatever the route does
        monkeypatch.setenv("KISIN_MAX_ENUM", "")
        monkeypatch.delenv("KISIN_MAX_ENUM")
        datum, mu = CAP_READ_PAIR
        want = enumerate_strata(datum, mu)
        assert want and strata._candidate_box(mu) == 49
        calls = [
            {"run": lambda: enumerate_strata(datum, mu), "need": (49, "candidates in the box of block 1"), "want": want},
            {"run": lambda: decompose_mu(((1, 0),), 1), "need": (59, "lifted entries"), "want": ((1, 0),)},
        ]
        if value is None:
            os.environ["KISIN_MAX_ENUM"] = "0"  # so that the route deletes a set value
        with set_cap(route, value):
            assert strata._slot[:2] == (datum, mu)  # the next call is a slot hit if the cap admits it
            try:
                ref = enum_cap_by_environ_get()
            except ConfigError as exc:
                with pytest.raises(ConfigError) as info:
                    strata._enum_cap()
                assert str(info.value) == str(exc)
            else:
                assert strata._enum_cap() == ref
            for call in calls:
                expect_cap(call)
        # the route's own undo (monkeypatch, patch.dict) is read at once too
        for call in calls:
            expect_cap(call)

    def test_every_value_is_met(self):
        # the values reach the default, a cap within and below the need, and
        # a refusal of the value
        seen = set()
        for value in CAP_VALUES:
            with monkeypatched_cap(value):
                try:
                    seen.add(min(strata._enum_cap(), 50) // 49)  # 1: within, 0: below
                except ConfigError:
                    seen.add("refused")
        assert seen == {0, 1, "refused"}


def well_formed_mus(rng, shape, count):
    """count random dominant mu of shape, each given as tuples or as lists."""
    out = []
    for _ in range(count):
        mu = [sorted((rng.randint(-4, 4) for _ in range(shape.n)), reverse=True) for _ in range(shape.blocks)]
        out.append(tuple(map(tuple, mu)) if rng.random() < 0.5 else mu)
    return out


def malformed_mus(shape):
    """mu that fail the argument checks: wrong block count, wrong block
    length, a non-dominant block, and a shape error in a block before a
    non-dominant one, where dominance must still win."""
    n, blocks = shape.n, shape.blocks
    good = [0] * n
    up = list(range(n))  # ascending, non-dominant for n >= 2
    out = [
        [good] * (blocks + 1),
        [good] * (blocks - 1),
        [good] * (blocks - 1) + [good + [0]],
        [good[:-1]] + [good] * (blocks - 1),
        [[]] * blocks,
        [good + [0]] * (blocks + 1),
    ]
    if n >= 2:
        out += [
            [good] * (blocks - 1) + [up],
            [good + [0]] + [up] * blocks,
            [good[:-1]] * blocks + [up],
            [up] + [good] * blocks,
            [tuple(up)] * blocks,
        ]
    return out


def same_outcome(call, reference):
    """Asserts that call and reference return equal values, or raise the
    same refusal with the same message; returns the refusal or None."""
    try:
        want = reference()
    except KisinError as exc:
        with pytest.raises(type(exc)) as info:
            call()
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return exc
    assert call() == want
    return None


ARGUMENT_DATUMS = [
    caruso_datum(3, 1, 3, 5),
    caruso_datum(2, 2, 3, 1),
    counterexample(CASES["b"], 3)[0],
    contracting_datum(((-1, 2, -1), (-2, -2, 1)), ((2, 1, 0), (0, 1, 2)), (3, 3)),
    make_multi(caruso_datum(3, 1, 2, 3), 2).lifted,
    make_multi(caruso_datum(1, 1, 3, 1), 3).lifted,
]


class TestArgumentChecks:
    """strata._require_mu, the one pass over mu, against its checks and
    values as separate steps (``require_mu_by_steps``)."""

    @pytest.mark.parametrize("datum", ARGUMENT_DATUMS, ids=lambda d: f"n{d.shape.n}N{d.shape.blocks}")
    def test_well_formed_mu_reads_as_the_steps(self, datum):
        rng = random.Random(f"{datum.shape}")
        for mu in well_formed_mus(rng, datum.shape, 200):
            got = strata._require_mu(datum, mu)
            assert got == require_mu_by_steps(datum, mu), mu
            assert all(type(b) is tuple for b in got[0]) and type(got[0]) is tuple and type(got[1]) is tuple

    @pytest.mark.parametrize("datum", ARGUMENT_DATUMS, ids=lambda d: f"n{d.shape.n}N{d.shape.blocks}")
    def test_malformed_mu_refuses_as_the_steps(self, datum):
        seen = set()
        outside = datum._replace(alcove_ok=False)
        for mu in malformed_mus(datum.shape):
            for d in (datum, outside):
                for check in (
                    lambda: strata._require_mu(d, mu),
                    lambda: enumerate_strata(d, mu),
                    lambda: stratum_nonempty(d, mu, d.shape.zero_cochar()),
                ):
                    exc = same_outcome(check, lambda: require_mu_by_steps(d, mu))
                    assert exc is not None, mu
                    seen.add(str(exc).split(":")[0])
        assert seen >= {"cochar shape mismatch", "datum's fixed point is not in the alcove"}
        if datum.shape.n >= 2:  # every block of length 1 is dominant
            assert "mu must be dominant" in seen
            # dominance wins over a shape error in an earlier block
            with pytest.raises(ConfigError, match="^mu must be dominant$"):
                strata._require_mu(datum, [[0] * (datum.shape.n + 1)] + [list(range(datum.shape.n))] * datum.shape.blocks)


_solve_label = strata._solve_label


def off_by_one(datum, num0, nu):
    """The solve kernel with its first entry moved by one."""
    lam = _solve_label(datum, num0, nu)
    return None if lam is None else ((lam[0][0] + 1,) + lam[0][1:],) + lam[1:]


_twist = strata._twist


def twist_off_by_one(datum, lam):
    """The twist with the first entry of lam_nat moved by one."""
    dag, nat = _twist(datum, lam)
    return dag, ((nat[0][0] + 1,) + nat[0][1:],) + nat[1:]


def forbid(monkeypatch, name):
    monkeypatch.setattr(strata, name, lambda *args: pytest.fail(f"{name} called"))


def move_partials(monkeypatch, by):
    """Patches the join's candidate tables so that every candidate's partial
    of position 0 moves by `by`, each candidate still filed under its true
    residue: on a one-block datum the numerator of x[0][0] moves by -by."""
    real = strata._candidate_table

    def tampered(cut, firsts, mu_block):
        table = real(cut, firsts, mu_block)
        return {r: [(v, (part[0] + by,) + part[1:]) for v, part in entries] for r, entries in table.items()}

    monkeypatch.setattr(strata, "_candidate_table", tampered)


class TestTheoremViolation:
    def test_residue_match_without_integral_preimage(self, monkeypatch):
        # the survivors are still found by their residues, but the numerator
        # of x[0][0] is off by one, and 3^|c| - 1 does not divide it
        datum, mu = counterexample(CASES["a"], 3)
        assert datum.shape.blocks == 1 and abs(datum.plan.dens[0]) > 1
        forbid(monkeypatch, "_walk")
        move_partials(monkeypatch, 1)
        with pytest.raises(TheoremViolationError, match="integrality congruence"):
            enumerate_strata(datum, mu)
        assert_empty_state(datum)  # the refusal stores no class and no slot

    def test_solved_label_must_twist_back_to_its_candidate(self, monkeypatch):
        # the numerator of x[0][0] moves by its denominator, so each survivor
        # still divides out, to a label with its first entry moved by one
        datum, mu = counterexample(CASES["a"], 3)
        forbid(monkeypatch, "_walk")
        move_partials(monkeypatch, -datum.plan.dens[0])
        with pytest.raises(TheoremViolationError, match="whose lam_nat is"):
            enumerate_strata(datum, mu)
        assert_empty_state(datum)

    def test_walked_label_must_resolve_to_itself(self, monkeypatch):
        datum, mu = counterexample(CASES["a"], 19)
        forbid(monkeypatch, "_join")
        monkeypatch.setattr(strata, "_solve_label", off_by_one)
        with pytest.raises(TheoremViolationError, match="walked label .* which solves to"):
            enumerate_strata(datum, mu)
        assert_empty_state(datum)

    def test_walked_label_violation_exits_4(self, monkeypatch, capsys):
        forbid(monkeypatch, "_join")
        monkeypatch.setattr(strata, "_solve_label", off_by_one)
        assert main(["verify-counterexample", "b", "--p", "11"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "walked label" in captured.err

    def test_empty_variety_solves_nothing(self, monkeypatch):
        # block sum 1 cannot meet tau's residue, so no candidate is solved
        datum, _ = counterexample(CASES["a"], 3)
        forbid(monkeypatch, "_solve_label")
        assert enumerate_strata(datum, ((1, 0, 0, 0),)) == ()

    @pytest.mark.parametrize("fault", ["_solve_label", "_twist"])
    def test_join_fault_is_reached_past_a_warm_table(self, monkeypatch, fault):
        # mu's class holds mu as its top once an unpatched call has met it,
        # so a fault patched in later is not reached while the top serves mu;
        # once the top is cleared the join solves and checks every label
        # again, so the fault is reached, refused, and leaves no class
        datum, mu = caruso_datum(3, 1, 3, 5), ((3, 1, -3),)
        want = enumerate_strata(datum, mu)
        classes = strata._state(datum)
        assert len(want) > 1 and [(top, len(labels)) for top, labels in classes.values()] == [(mu, len(want))]
        monkeypatch.setattr(strata, fault, off_by_one if fault == "_solve_label" else twist_off_by_one)
        strata._slot = None  # empty the slot
        assert enumerate_strata(datum, mu) == want  # a class hit: no path runs
        strata._slot = None
        classes.clear()
        with pytest.raises(TheoremViolationError, match="whose lam_nat is"):
            enumerate_strata(datum, mu)
        assert_empty_state(datum)


class TestCandidateGeneration:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_distinct_permutations(self, n):
        rng = random.Random(n)
        for _ in range(20):
            block = tuple(rng.randint(0, 2) for _ in range(n))
            perms = list(_distinct_permutations(block))
            assert len(perms) == len(set(perms))
            assert set(perms) == set(itertools.permutations(block))
            assert perms == sorted(perms)

    def test_candidate_blocks(self):
        mu = (3, 1, 0)
        want = {
            v
            for v in itertools.product(range(0, 4), repeat=3)
            if sum(v) == 4 and max(v) <= 3
        }
        got = strata.candidate_blocks(mu)
        assert len(got) == len(set(got)) and set(got) == want

    @pytest.mark.parametrize("n", range(1, 6))
    def test_candidate_count(self, n):
        # built without the cache, so the test leaves no candidate set behind;
        # the box bounds the count
        for b in dominant_vecs(n, -4, 6):
            count = len(strata.candidate_blocks.__wrapped__(b))
            assert candidate_count(b) == count, b
            assert strata._candidate_box((b,)) >= count, b


# ---------------------------------------------------------------------------
# the join up to central shift, from the cached candidate tables

SHIFTS = (-7, 0, 5)


def shifted(datum, mu, c):
    """central_twist of (datum, mu) by c on every entry."""
    return central_twist(datum, mu, ((c,) * datum.shape.n,) * datum.shape.blocks)


def gl3_twists(f, p):
    return [caruso_datum(3, f, p, m) for m in range(-(p ** (3 * f) - 1), p ** (3 * f)) if is_caruso_simple(3, p**f, m)]


def lift_pairs():
    """The lifts of caruso_datum(2, 1, 2, 1) for d <= 3, each with every
    decomposed mu = (x omega_1) with x <= d."""
    base = caruso_datum(2, 1, 2, 1)
    return [(make_multi(base, d).lifted, decompose_mu(((x, 0),), d)) for d in (1, 2, 3) for x in range(d + 1)]


def join_pairs():
    """Every simple GL_3, f = 1 twist at p in {2, 3} with |mu| <= 2, the
    simple GL_3, f = 2, p = 2 twists with mu blocks in [0, 1], and the lifts."""
    pairs = [(d, (mu,)) for p in (2, 3) for d in gl3_twists(1, p) for mu in dominant_vecs(3, -2, 2)]
    blocks = dominant_vecs(3, 0, 1)
    pairs += [(d, mu) for d in gl3_twists(2, 2) for mu in itertools.product(blocks, repeat=2)]
    return pairs + lift_pairs()


def join_triples(datum, mu):
    return [(s.lam, s.dag, s.nat) for s in product_strata(datum, mu)]


def small_proven_box(datum, mu):
    """The walk's radius when it is proven (no eps is 1) and its box holds at
    most 5,000 labels, else None."""
    radius = strata._walk_radius(datum, mu)
    if radius is not None and (2 * radius + 1) ** (datum.shape.n * datum.shape.blocks) <= 5000:
        return radius
    return None


class TestJoinUpToShift:
    def test_join_matches_product_under_shifts(self):
        nonempty = boxed = 0
        for t, (datum, mu) in enumerate(join_pairs()):
            for c in SHIFTS:
                d, m = shifted(datum, mu, c)
                got = strata._join(d, m)
                assert got == join_triples(d, m), (datum.tau, mu, c)
                radius = small_proven_box(d, m)
                if t % 11 == 0 and radius is not None:  # the box search on a sample
                    assert {lam for lam, _, _ in got} == box_strata(d, m, radius), (datum.tau, mu, c)
                    boxed += 1
                nonempty += bool(got)
        assert nonempty > 1000 and boxed > 300

    def test_central_twist_keeps_labels_and_shifts_nat(self):
        for datum, mu in join_pairs()[::3]:
            want = enumerate_strata(datum, mu)
            for c in SHIFTS:
                chi = ((c,) * datum.shape.n,) * datum.shape.blocks
                got = enumerate_strata(*shifted(datum, mu, c))
                assert got == tuple(
                    s._replace(nat=cochar_add(s.nat, chi), dag=cochar_add(s.dag, chi)) for s in want
                ), (datum.tau, mu, c)

    def test_tables_are_shared_up_to_shift(self):
        datum, mu = caruso_datum(3, 1, 3, 5), ((2, 0, -1),)
        strata._join(datum, mu)
        before = strata._candidate_table.cache_info()
        for c in SHIFTS:
            strata._join(*shifted(datum, mu, c))
        after = strata._candidate_table.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + len(SHIFTS)

    def test_eviction_is_safe(self, monkeypatch):
        pairs = join_pairs()[::7] + lift_pairs()
        want = [strata._join(*shifted(d, mu, c)) for d, mu in pairs for c in SHIFTS]
        one = functools.lru_cache(maxsize=1)(strata._candidate_table.__wrapped__)
        monkeypatch.setattr(strata, "_candidate_table", one)
        assert [strata._join(*shifted(d, mu, c)) for d, mu in pairs for c in SHIFTS] == want
        assert one.cache_info().currsize == 1 and one.cache_info().misses > len(pairs)

    @pytest.mark.parametrize(
        "datum,mu",
        [counterexample(CASES["a"], 3), (caruso_datum(3, 1, 3, 5), ((2, 0, -1),))] + lift_pairs()[-2:],
    )
    def test_misfiled_candidate_is_a_theorem_violation(self, monkeypatch, datum, mu):
        # each bucket of a table with two residues or more also holds a
        # candidate of another residue, so whatever the join reaches, some
        # candidate fails the integrality congruence
        real, misfiled = strata._candidate_table, []

        def tampered(cut, firsts, mu_block):
            table = real(cut, firsts, mu_block)
            keys = list(table)
            if len(keys) == 1:
                return table
            misfiled.append(mu_block)
            return {k: table[k] + [table[keys[t - 1]][0]] for t, k in enumerate(keys)}

        assert strata._join(datum, mu)
        monkeypatch.setattr(strata, "_candidate_table", tampered)
        with pytest.raises(TheoremViolationError, match="integrality congruence"):
            strata._join(datum, mu)
        assert misfiled


# ---------------------------------------------------------------------------
# the solve kernel in the join's and the walk's call forms, against the
# affine solver


def subtraction_matches_solver(datum, mu):
    """Solves every candidate nu of mu, whatever its residue, by
    ``strata._solve_label`` in both its call forms and by the oracle
    ``solve_affine_integral``, and checks that the three agree (None where
    nu has no integral preimage).  The join's form subtracts the candidate
    tables' partials from base = <rows, tau0>, tau0 = tau lowered by mu's
    least entries; the walk's form takes <rows, tau - nu> whole.  Also checks
    that the residues the tables file each candidate under sum to the join's
    target exactly when it is integral, and that each table's partials are
    the block's share of the solver's numerators.  Returns (candidates,
    integral)."""
    lows = [b[-1] for b in mu]
    mu0 = tuple(tuple(x - c for x in b) for b, c in zip(mu, lows))
    plan = _solve_plan(datum.shape, datum.w)
    cuts, firsts, moduli = plan.join
    assert moduli == tuple(m for _, m in firsts)
    base = _solve_block0(plan, [x - c for b, c in zip(datum.tau, lows) for x in b])
    target = tuple(base[i] % m for i, m in firsts)
    rows, n = plan.rows, datum.shape.n
    filed = []
    for k, (cut, b) in enumerate(zip(cuts, mu0)):
        block = []
        for residue, entries in strata._candidate_table(cut, firsts, b).items():
            for v, part in entries:
                assert part == tuple(sum(r * x for r, x in zip(row[k * n : (k + 1) * n], v)) for row in rows)
                block.append((residue, (v, part)))
        assert sorted(v for _, (v, _) in block) == sorted(strata.candidate_blocks(b))
        filed.append(block)
    count = integral = 0
    for choice in itertools.product(*filed):
        entries = tuple(e for _, e in choice)
        nu = tuple(tuple(x + c for x in v) for (v, _), c in zip(entries, lows))
        want = solve_affine_integral(datum.shape, datum.w, cochar_sub(datum.tau, nu))
        num0 = [x - sum(part[i] for _, part in entries) for i, x in enumerate(base)]
        assert strata._solve_label(datum, num0, nu) == want, (datum.tau, mu, nu)
        walked = _solve_block0(plan, [x for b in cochar_sub(datum.tau, nu) for x in b])
        assert strata._solve_label(datum, walked, nu) == want, (datum.tau, mu, nu)
        sums = tuple(sum(col) % m for col, m in zip(zip(*(r for r, _ in choice)), moduli))
        assert (sums == target) == (want is not None), (datum.tau, mu, nu)
        count += 1
        integral += want is not None
    return count, integral


def caruso_pairs(n, f, p, hi, step=1):
    """Every step-th simple Caruso twist of (n, f, p), each with every mu of
    dominant blocks with entries in [0, hi]."""
    blocks = dominant_vecs(n, 0, hi)
    twists = [m for m in range(-(p ** (n * f) - 1), p ** (n * f)) if is_caruso_simple(n, p**f, m)]
    return [
        (caruso_datum(n, f, p, m), mu) for m in twists[::step] for mu in itertools.product(blocks, repeat=f)
    ]


class TestSubtractionSolve:
    def test_gl3_sweep(self):
        count = integral = 0
        for datum, mu, found in gl3_sweep_instances():
            c, i = subtraction_matches_solver(datum, mu)
            assert i == len(found)
            count, integral = count + c, integral + i
        assert count > 50000 and integral > 10000

    @pytest.mark.parametrize("case", "ab")
    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_goldens_down_the_join(self, case, p):
        datum, mu = counterexample(CASES[case], p)
        count, integral = subtraction_matches_solver(datum, mu)
        assert integral == 2 and count > integral
        want = [(s.lam, s.dag, s.nat) for s in enumerate_strata(datum, mu)]
        assert strata._join(datum, mu) == want

    @pytest.mark.parametrize(
        "n,f,p,step,least", [(2, 2, 2, 1, 150), (2, 2, 3, 1, 150), (2, 3, 2, 6, 250), (3, 2, 2, 3, 700)]
    )
    def test_caruso_shapes(self, n, f, p, step, least):
        integral = 0
        for datum, mu in caruso_pairs(n, f, p, 2, step):
            integral += subtraction_matches_solver(datum, mu)[1]
        assert integral >= least

    def test_contracting_shapes(self):
        # every eps at least 2, as the walk needs, on shapes that GroupShape
        # does not admit: eps patterns that are not all p or 1
        rng = random.Random(61)
        count = integral = 0
        for _ in range(40):
            n, f = rng.randint(1, 3), rng.randint(1, 3)
            eps = [rng.choice((2, 3)) for _ in range(f)]
            w = tuple(tuple(rng.sample(range(n), n)) for _ in range(f))
            tau = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(f))
            mu = tuple(tuple(sorted((rng.randint(-1, 1) for _ in range(n)), reverse=True)) for _ in range(f))
            c, i = subtraction_matches_solver(contracting_datum(tau, w, eps), mu)
            count, integral = count + c, integral + i
        assert integral > 10 and count > integral

    def test_multicopy_lifts_with_unit_eps(self):
        pairs = [(d, mu) for d, mu in lift_pairs() if 1 in d.shape.eps]
        lifted = make_multi(caruso_datum(3, 1, 2, 1), 2).lifted
        pairs += [(lifted, mu) for mu in itertools.product(dominant_vecs(3, 0, 1), repeat=2)]
        integral = 0
        for datum, mu in pairs:
            integral += subtraction_matches_solver(datum, mu)[1]
        assert len(pairs) > 10 and integral > 10


# ---------------------------------------------------------------------------
# the slot of the datum's state: the strata of its last mu, so that the
# graph of the pair just enumerated enumerates nothing


def as_lists(v):
    return [list(b) for b in v]


def memo_sweep_pairs():
    """Every simple GL_3 twist at p in {2, 3} with every dominant mu of
    sup-norm at most 2, and the goldens (a) and (b) at p = 3 and 5."""
    pairs = [counterexample(CASES[case], p) for case in "ab" for p in (3, 5)]
    for p in (2, 3):
        for m in range(-(p**3 - 1), p**3):
            if is_caruso_simple(3, p, m):
                d = caruso_datum(3, 1, p, m)
                pairs.extend((d, (mu,)) for mu in dominant_vecs(3, -2, 2))
    return pairs


class TestStrataMemo:
    def test_strata_graph_and_points_enumerate_once(self, monkeypatch):
        datum, mu = caruso_datum(2, 1, 2, 1), ((4, 0),)
        taken = spy_dispatch(monkeypatch)
        seen = []
        real = enumerate_strata
        for module in (connectivity, oracle):
            monkeypatch.setattr(module, "enumerate_strata", lambda d, m: seen.append(real(d, m)) or seen[-1])
        first = enumerate_strata(datum, mu)
        graph = build_graph(datum, mu)
        points = kisin_points(datum, mu, GF(2), 2)
        assert len(taken) == 1
        assert len(first) == 2 and len(points) == 3
        assert len(seen) == 2 and all(s is first for s in seen) and graph.vertices == first

    def test_equal_datum_hits_and_central_shift_misses(self, monkeypatch):
        mu = ((4, 0),)
        taken = spy_dispatch(monkeypatch)
        first = enumerate_strata(caruso_datum(2, 1, 2, 1), mu)
        rebuilt = caruso_datum(2, 1, 2, 1)
        assert enumerate_strata(rebuilt, mu) is first and len(taken) == 1
        shifted_datum, shifted_mu = central_twist(rebuilt, mu, ((1, 1),))
        got = enumerate_strata(shifted_datum, shifted_mu)
        assert len(taken) == 2
        assert [s.lam for s in got] == [s.lam for s in first]

    @pytest.mark.parametrize("case", "ab")
    def test_list_mu_gives_the_records_of_tuples(self, case):
        # the d-set certificate compares with mu; on (b) a list mu lost it
        # from ((1, 0, 1), (0, 0, 1)), and pi0 read "upper bound only"
        datum, mu = counterexample(CASES[case], 3)
        listed = enumerate_strata(datum, as_lists(mu))
        assert enumerate_strata(datum, mu) is listed  # the slot holds mu as tuples
        for s in listed:
            assert make_stratum(datum, as_lists(mu), as_lists(s.lam)) == s
            assert stratum_nonempty(datum, as_lists(mu), as_lists(s.lam))
        graph = build_graph(datum, as_lists(mu))
        assert graph == build_graph(datum, mu)
        assert pi0_report(graph) == pi0_report(build_graph(datum, mu))

    def test_datum_from_lists_shares_the_entry_of_tuples(self):
        datum, mu = counterexample(CASES["a"], 3)
        listed = make_datum(datum.shape, ExtAffine(as_lists(datum.tau), as_lists(datum.w)))
        assert listed == datum
        assert enumerate_strata(listed, mu) is enumerate_strata(datum, mu)

    def test_memo_matches_the_uncached_enumeration(self):
        # against a fresh state per call; the second pass meets every datum
        # after its state was evicted, and recomputes
        pairs = memo_sweep_pairs()
        assert len(pairs) > 512 and len({d for d, _ in pairs}) > strata._STATES
        first = []
        for datum, mu in pairs:
            got = enumerate_strata(datum, mu)
            assert enumerate_strata(datum, mu) is got
            assert got == fresh_enumeration(datum, mu), (datum.tau, mu)
            first.append(got)
        assert sum(map(bool, first)) > 100
        assert [enumerate_strata(datum, mu) for datum, mu in pairs] == first

    @pytest.mark.parametrize("datum,mu", CAP_INPUTS)
    def test_a_lower_cap_refuses_after_a_cached_call(self, monkeypatch, datum, mu):
        monkeypatch.delenv("KISIN_MAX_ENUM", raising=False)
        want = enumerate_strata(datum, mu)
        limit, message = cap_limit(datum, mu)
        monkeypatch.setenv("KISIN_MAX_ENUM", str(limit - 1))
        slot = strata._slot
        if want:
            assert slot[:2] == (datum, mu) and slot[3] is want
        else:  # label-free within the default cap, which fills no slot
            assert slot is None
        with pytest.raises(EnumerationCapError) as cached:
            enumerate_strata(datum, mu)
        assert strata._slot is slot  # the refusal is not stored
        strata.clear_caches()
        with pytest.raises(EnumerationCapError) as fresh:
            enumerate_strata(datum, mu)
        assert str(cached.value) == str(fresh.value) == message
        monkeypatch.setenv("KISIN_MAX_ENUM", "1e3")
        with pytest.raises(ConfigError, match="KISIN_MAX_ENUM"):
            enumerate_strata(datum, mu)
        monkeypatch.delenv("KISIN_MAX_ENUM")
        assert enumerate_strata(datum, mu) == want

    def test_a_fault_is_raised_on_every_call(self, monkeypatch):
        datum, mu = counterexample(CASES["a"], 3)
        move_partials(monkeypatch, -datum.plan.dens[0])
        for _ in range(3):
            with pytest.raises(TheoremViolationError, match="whose lam_nat is"):
                enumerate_strata(datum, mu)
        assert_empty_state(datum)
        monkeypatch.undo()
        assert enumerate_strata(datum, mu) == product_strata(datum, mu)

    def test_slot_serves_the_graph_of_the_last_mu(self, monkeypatch):
        # the graph of the pair just enumerated takes neither path and shares
        # its records; along A, B, A, each followed by its graph, every call
        # equals a fresh-state enumeration, and the slot follows the last mu
        datum = caruso_datum(3, 1, 3, 5)
        a, b = ((3, 1, -3),), ((3, -1, -3),)
        want = {mu: fresh_enumeration(datum, mu) for mu in (a, b)}
        assert len(want[a]) > 1 and len(want[b]) > 1
        taken = spy_dispatch(monkeypatch)
        for mu in (a, b, a):
            got = enumerate_strata(datum, mu)
            ran = len(taken)
            assert build_graph(datum, mu).vertices is got and len(taken) == ran
            assert got == want[mu] and strata._slot[:2] == (datum, mu)
        assert taken == ["_join", "_join"]  # A and B lie in different classes

    @pytest.mark.parametrize("datum,mu", [CAP_INPUTS[0], CAP_INPUTS[2], CAP_INPUTS[5]], ids=["walk", "join", "lift"])
    def test_repeat_call_reads_only_the_cap(self, monkeypatch, datum, mu):
        # build_graph right after enumerate_strata on one pair reads the cap
        # and compares it with the slot's need; it checks no argument, forms
        # no box or walk radius, tests no block sum and reads no state
        monkeypatch.delenv("KISIN_MAX_ENUM", raising=False)
        want = enumerate_strata(datum, mu)
        walk = walk_by_box(datum, mu)
        need = strata._walk_bound(datum, mu, strata._walk_radius(datum, mu)) if walk else strata._candidate_box(mu)
        assert strata._slot == (datum, mu, need, want)
        with pytest.MonkeyPatch.context() as mp:
            for name in ("_require_mu", "_label_free", "_walk_radius", "_walk_bound", "_candidate_box", "_state"):
                forbid(mp, name)
            assert build_graph(datum, mu).vertices is want
            mp.setenv("KISIN_MAX_ENUM", str(need))
            assert enumerate_strata(datum, mu) is want
        # a cap below the need takes the full path: the join may still pass
        # its count, and otherwise the refusal is the fresh call's
        limit, message = cap_limit(datum, mu)
        taken = spy_dispatch(monkeypatch)
        for cap in sorted({limit - 1, need - 1}):
            monkeypatch.setenv("KISIN_MAX_ENUM", str(cap))
            if cap < limit:
                with pytest.raises(EnumerationCapError) as refused:
                    enumerate_strata(datum, mu)
                assert str(refused.value) == message
            else:
                assert enumerate_strata(datum, mu) == want  # the class's top serves it
        assert taken == []
        monkeypatch.setenv("KISIN_MAX_ENUM", "1e3")
        with pytest.raises(ConfigError, match="KISIN_MAX_ENUM='1e3'"):
            enumerate_strata(datum, mu)

    def test_clear_caches_empties_the_slot(self, monkeypatch):
        datum, mu = caruso_datum(3, 1, 3, 5), ((3, 1, -3),)
        want = enumerate_strata(datum, mu)
        assert strata._slot[3] is want
        strata.clear_caches()
        assert strata._slot is None
        taken = spy_dispatch(monkeypatch)
        again = enumerate_strata(datum, mu)
        assert again == want and again is not want and taken == ["_join"]

    def test_label_free_or_refused_call_fills_nothing(self, monkeypatch):
        # neither a datum state nor the slot is created
        monkeypatch.delenv("KISIN_MAX_ENUM", raising=False)
        datum, free = CAP_INPUTS[4]
        assert strata.block_sums(datum, free) is None
        assert enumerate_strata(datum, free) == ()
        assert strata._state.cache_info().currsize == 0 and strata._slot is None
        mu = ((3, 1, -3),)
        limit, message = cap_limit(datum, mu)
        monkeypatch.setenv("KISIN_MAX_ENUM", str(limit - 1))
        with pytest.raises(EnumerationCapError, match=re.escape(message)):
            enumerate_strata(datum, mu)
        assert strata._state.cache_info().currsize == 0 and strata._slot is None
        with pytest.raises(ConfigError, match="mu must be dominant"):
            enumerate_strata(datum, ((-3, 1, 3),))
        assert strata._state.cache_info().currsize == 0 and strata._slot is None

    def test_a_refusal_leaves_the_slot(self, monkeypatch):
        # A fills the slot; B, refused under a cap that A's box is within,
        # stores nothing, so A again is the very tuple of its first call
        monkeypatch.delenv("KISIN_MAX_ENUM", raising=False)
        datum = caruso_datum(3, 1, 3, 5)
        a, b = ((2, 0, -1),), ((3, 0, -3),)
        first = enumerate_strata(datum, a)
        limit, message = cap_limit(datum, b)
        assert first and strata._candidate_box(a) < limit
        monkeypatch.setenv("KISIN_MAX_ENUM", str(limit - 1))
        with pytest.raises(EnumerationCapError) as refused:
            enumerate_strata(datum, b)
        assert str(refused.value) == message
        taken = spy_dispatch(monkeypatch)
        assert enumerate_strata(datum, a) is first and taken == []

    def test_cli_refuses_after_a_cached_call(self, monkeypatch, capsys):
        monkeypatch.delenv("KISIN_MAX_ENUM", raising=False)
        argv = ["graph", "--p", "3", "--n", "3", "--f", "1", "--m", "5", "--mu", "[[2,0,-1]]"]
        assert main(argv) == 0
        report = capsys.readouterr().out
        assert strata._state.cache_info().currsize == 1
        monkeypatch.setenv("KISIN_MAX_ENUM", "2")
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "exceed cap 2 (KISIN_MAX_ENUM)" in captured.err
        monkeypatch.setenv("KISIN_MAX_ENUM", "abc")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "KISIN_MAX_ENUM='abc'" in captured.err
        monkeypatch.delenv("KISIN_MAX_ENUM")
        assert main(argv) == 0 and capsys.readouterr().out == report


# ---------------------------------------------------------------------------
# each datum's state: the labels of a class's top, each with its entry, and
# the records of every mu against the oracle that solves every label afresh


def clear_tables():
    """Empties every datum's state and the slot of the last pair."""
    strata._state.cache_clear()
    strata._slot = None


def sweep_groups():
    """The (datum, mu) of gl3_sweep_instances(), one list per datum (several
    twists m reduce to one datum), and the number of distinct (datum, label)
    among them.  The states its enumeration filled are cleared."""
    instances = gl3_sweep_instances()
    clear_tables()
    groups = {}
    for d, mu, _ in instances:
        groups.setdefault(d, []).append((d, mu))
    return list(groups.values()), len({(d, s.lam) for d, _, S in instances for s in S})


def golden_mu_family(case, p):
    """The golden datum of case at p, with every mu whose blocks are dominant,
    have the block sums of the golden mu and lie within one of its entries:
    the golden mu, mu that dominate it and mu that it dominates."""
    datum, mu0 = counterexample(CASES[case], p)
    families = [
        [v for v in dominant_vecs(len(b), b[-1] - 1, b[0] + 1) if sum(v) == sum(b)] for b in mu0
    ]
    return [(datum, mu) for mu in itertools.product(*families)]


def assert_matches_fresh_labels(pairs, monkeypatch=None):
    """enumerate_strata on pairs, in their order, equals the oracle that
    solves every label afresh.  Returns the records' count and the number of
    labels the library solved (counted only when monkeypatch is given)."""
    want = [strata_by_fresh_labels(datum, mu) for datum, mu in pairs]
    solved = []
    if monkeypatch is not None:
        real = strata._solve_label
        monkeypatch.setattr(strata, "_solve_label", lambda *args: solved.append(args) or real(*args))
    count = 0
    for (datum, mu), fresh in zip(pairs, want):
        got = enumerate_strata(datum, mu)
        assert got == fresh, (datum.tau, mu)
        count += len(got)
    return count, len(solved)


ORDERS = ("forward", "reverse", "shuffled")


def ordered(pairs, order):
    """pairs as listed (the mu of each datum in decreasing lexicographic
    order, as the sweeps list them), reversed, or shuffled by a fixed seed.
    Only the first order meets each class of mu at a mu that dominates it."""
    if order == "shuffled":
        return random.Random(7).sample(pairs, len(pairs))
    return pairs if order == "forward" else pairs[::-1]


class TestLabelTable:
    @pytest.mark.parametrize("order", ORDERS)
    def test_gl3_sweep_solves_each_label_once(self, monkeypatch, order):
        # datum by datum, in the sweep order each class is joined once, at a
        # mu that dominates it, so each label is solved and checked once and
        # read from its class's top under every later mu; in other orders a
        # class may be joined again, which solves its labels again (no pair
        # here is walked)
        groups, distinct = sweep_groups()
        pairs = [pair for group in groups for pair in ordered(group, order)]
        assert not any(walk_by_box(d, mu) for d, mu in pairs)
        count, solved = assert_matches_fresh_labels(pairs, monkeypatch)
        assert count > 10 * distinct
        assert solved == distinct if order == "forward" else solved >= distinct

    def test_gl3_sweep_with_datums_interleaved_past_the_bound(self):
        # mu by mu, every datum in turn: each table is evicted before its
        # datum returns, and eviction only solves again
        groups, _ = sweep_groups()
        assert len(groups) > 3 * strata._STATES
        interleaved = [pair for row in itertools.zip_longest(*groups) for pair in row if pair]
        assert assert_matches_fresh_labels(interleaved)[0] > 10000
        info = strata._state.cache_info()
        assert info.currsize == strata._STATES and info.misses > 10 * len(groups)

    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("n,p,step", [(2, 3, 1), (3, 2, 3)])
    def test_caruso_f2(self, order, n, p, step):
        count, _ = assert_matches_fresh_labels(ordered(caruso_pairs(n, 2, p, 2, step), order))
        assert count > 150

    @pytest.mark.parametrize("order", ORDERS)
    def test_contracting_shapes(self, order):
        # the goldens' mu families mix walked and joined pairs over one
        # datum each, so a class's top may have been walked or joined, and
        # a top serves the mu it dominates whichever path they would take
        pairs = [pair for case, p in (("a", 5), ("a", 7), ("b", 5)) for pair in golden_mu_family(case, p)]
        walked = sum(walk_by_box(d, mu) for d, mu in pairs)
        assert 10 < walked < len(pairs) - 10
        count, _ = assert_matches_fresh_labels(ordered(pairs, order))
        held = sum(len(labels) for d in {d for d, _ in pairs} for _, labels in strata._state(d).values())
        assert count > 3 * held > 30

    def test_central_shifts_share_no_table(self):
        # keyed by the whole datum: a shift copy of a twist solves its labels
        # again, into its own class index, whose top holds the shifted lam_nat
        datum, mu = caruso_datum(3, 1, 3, 5), ((2, 0, -1),)
        want = enumerate_strata(datum, mu)
        for c in SHIFTS:
            d, m = shifted(datum, mu, c)
            got = enumerate_strata(d, m)
            assert [s.lam for s in got] == [s.lam for s in want]
            assert [[nat for nat, _ in labels] for _, labels in strata._state(d).values()] == [[s.nat for s in got]]
        assert strata._state.cache_info().currsize == len(set(SHIFTS) | {0})

    def test_tops_hold_the_entries_of_their_labels(self):
        # in the sweep order, over the GL_3 sweep and both goldens' mu
        # families (walked and joined), each class's top holds the labels of
        # its mu, each with the entry built afresh from its lam; a datum's
        # state is read once its pairs are done, before it can be evicted
        groups, _ = sweep_groups()
        for case in "ab":
            groups.append(sorted(golden_mu_family(case, 5), key=lambda pair: pair[1], reverse=True))
        tops = 0
        for group in groups:
            for d, mu in group:
                enumerate_strata(d, mu)
            for top, labels in strata._state(d).values():
                assert [nat for nat, _ in labels] == [s.nat for s in strata_by_fresh_labels(d, top)]
                for nat, entry in labels:
                    dag, fresh = _twist(d, entry[0])
                    assert fresh == nat and entry == strata._label_entry(d.shape, entry[0], dag, nat)
                tops += 1
        assert tops > 100

    def test_a_path_checks_the_labels_its_class_held(self, monkeypatch):
        # the class of mu holds the labels of a mu that mu dominates; the
        # join on mu solves and checks those labels again, so a fault of the
        # twist on them alone is reached
        datum, low, mu = caruso_datum(3, 1, 3, 5), ((2, 1, -2),), ((3, 1, -3),)
        held = {s.lam for s in enumerate_strata(datum, low)}
        assert held and dispatched_path(datum, mu) == ["_join"]
        monkeypatch.setattr(strata, "_twist", lambda d, lam: (twist_off_by_one if lam in held else _twist)(d, lam))
        with pytest.raises(TheoremViolationError, match="whose lam_nat is"):
            enumerate_strata(datum, mu)
        assert [top for top, _ in strata._state(datum).values()] == [low]

    @pytest.mark.parametrize("p,path", [(3, "_join"), (5, "_walk")])
    def test_d_set_rule_is_decided_per_mu(self, p, path):
        # golden (a)'s label (2,1,1,0) is a d-set singleton under the golden
        # mu only; the mu that dominates it becomes the class's top, whose
        # entry of the label serves the golden mu when it comes second, and
        # the rule is decided per mu, on either path
        datum, mu = counterexample(CASES["a"], p)
        wider = ((mu[0][0] + 1,) + mu[0][1:3] + (mu[0][3] - 1,),)
        assert dispatched_path(datum, mu) == dispatched_path(datum, wider) == [path]
        for first, then in ((mu, wider), (wider, mu)):
            clear_tables()
            enumerate_strata(datum, first)
            got = {s.lam: s.singleton_rule for s in enumerate_strata(datum, then)}
            assert got[((2, 1, 1, 0),)] == ("d-set" if then == mu else None)
            assert [(top, len(labels)) for top, labels in strata._state(datum).values()] == [(wider, 2)]


# ---------------------------------------------------------------------------
# the class index: one walk or join per class of mu with equal block sums


def sweep_order(datums, blocks, f):
    """Each distinct datum in turn, each with every mu of f blocks taken from
    blocks, in decreasing lexicographic order, as the sweeps list them."""
    mus = sorted(itertools.product(blocks, repeat=f), reverse=True)
    return [(d, mu) for d in dict.fromkeys(datums) for mu in mus]


def paths_per_class(monkeypatch, pairs):
    """enumerate_strata on pairs, in their order: the records, and how often
    each path ran per (path, datum, block sums of mu).  The patches of
    monkeypatch are undone on return."""
    runs = Counter()
    for name in ("_walk", "_join"):
        real = getattr(strata, name)

        def spy(datum, mu, *rest, name=name, real=real):
            runs[name, datum, tuple(map(sum, mu))] += 1
            return real(datum, mu, *rest)

        monkeypatch.setattr(strata, name, spy)
    got = [enumerate_strata(d, mu) for d, mu in pairs]
    monkeypatch.undo()
    return got, runs


class TestClassIndex:
    @pytest.mark.parametrize("f,p,bound", [(1, 2, 3), (1, 3, 3), (2, 2, 1)])
    def test_one_path_per_class_in_the_sweep_order(self, monkeypatch, f, p, bound):
        # decreasing lexicographic order meets each class first at its greedy
        # vector, which dominates the whole class, so the walk or the join
        # runs once per (datum, block sums) and every later mu of the class
        # is filtered from that top's labels; a label-free class (within the
        # cap, as every pair here is) runs no path and gets no top
        pairs = sweep_order(gl3_twists(f, p), dominant_vecs(3, -bound, bound), f)
        free = [label_free_within_the_cap(d, mu) for d, mu in pairs]
        assert any(free) == (p == 3 or f == 2)  # q - 1 = 1 divides every block-sum identity at q = 2
        got, runs = paths_per_class(monkeypatch, pairs)
        assert set(runs.values()) == {1}
        assert {(d, sums) for _, d, sums in runs} == {
            (d, tuple(map(sum, mu))) for (d, mu), x in zip(pairs, free) if not x
        }
        if f == 1:
            assert {name for name, _, _ in runs} == {"_join"}
        assert 2 * len(runs) < len(pairs)
        last = pairs[-1][0]
        greedy = {}
        for (d, mu), x in zip(pairs, free):
            if d == last and not x:
                greedy.setdefault(tuple(map(sum, mu)), mu)
        assert {sums: top for sums, (top, _) in strata._state(last).items()} == greedy
        assert got == [strata_by_fresh_labels(d, mu) for d, mu in pairs]
        assert sum(map(len, got)) > 300

    @pytest.mark.parametrize("datum,mu", CAP_INPUTS)
    def test_a_hit_refuses_as_a_fresh_call(self, monkeypatch, datum, mu):
        # the class of mu holds a top that dominates it, but the cap is
        # checked first, on mu's own path: the join's box and candidate
        # count, or the walk's path bound; a refusal stores nothing
        monkeypatch.delenv("KISIN_MAX_ENUM", raising=False)
        top = tuple((b[0] + 1,) + b[1:-1] + (b[-1] - 1,) for b in mu)
        enumerate_strata(datum, top)
        want = enumerate_strata(datum, mu)
        classes = strata._state(datum)
        # mu was a hit; a label-free class within the cap installs no top
        tops = [] if label_free_within_the_cap(datum, top) else [top]
        assert tops == ([] if strata.block_sums(datum, mu) is None else [top])
        assert [t for t, _ in classes.values()] == tops
        limit, message = cap_limit(datum, mu)
        monkeypatch.setenv("KISIN_MAX_ENUM", str(limit - 1))
        with pytest.raises(EnumerationCapError) as hit:
            enumerate_strata(datum, mu)
        assert [t for t, _ in classes.values()] == tops
        clear_tables()
        with pytest.raises(EnumerationCapError) as fresh:
            enumerate_strata(datum, mu)
        assert str(hit.value) == str(fresh.value) == message
        assert_empty_state(datum)
        monkeypatch.delenv("KISIN_MAX_ENUM")
        assert enumerate_strata(datum, mu) == want
