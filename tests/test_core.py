import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    act_sigma,
    act_weyl,
    cochar_scale,
    dominance_leq,
    dominant,
    dominant_vecs,
    ext_act,
    ext_identity,
    ext_inv,
    ext_mul,
    ext_sigma,
    ext_sigma_conj,
    lambda_alpha,
    reachable_by_simple_coroots,
    sigma_blocks,
    sigma0_weyl,
)
from kisin.core import (
    _PRIME_BOUND,
    _is_prime,
    ExtAffine,
    GroupShape,
    Root,
    _dominated,
    act_perm,
    all_roots,
    cochar_add,
    cochar_sub,
    identity_perm,
    perm_inv,
    perm_mul,
    twist_block,
)
from kisin import core
from kisin.connectivity import build_graph, pi0_report
from kisin.errors import ConfigError
from kisin.multicopy import make_multi
from kisin.normal_form import caruso_datum, make_datum, solve_affine_scaled
from kisin.strata import enumerate_strata

SH4 = GroupShape(n=4, blocks=1, eps=(3,), p=3)
SH32 = GroupShape.res_field(3, 2, 3)


def rand_perm(rng, n):
    p = list(range(n))
    rng.shuffle(p)
    return tuple(p)


def rand_weyl(rng, shape):
    return tuple(rand_perm(rng, shape.n) for _ in range(shape.blocks))


def rand_cochar(rng, shape, lo=-4, hi=4):
    return tuple(
        tuple(rng.randint(lo, hi) for _ in range(shape.n)) for _ in range(shape.blocks)
    )


class TestShape:
    def test_res_field(self):
        sh = GroupShape.res_field(2, 3, 5)
        assert sh.eps == (5, 5, 5) and sh.blocks == 3

    def test_multi_copy_eps_pattern(self):
        sh = GroupShape.multi_copy(2, 2, 3, 2)
        # scale sits on blocks carrying the last copy: 1-indexed k with d | k
        assert sh.eps == (1, 3, 1, 3)

    def test_rejects_all_ones(self):
        with pytest.raises(ConfigError):
            GroupShape(n=2, blocks=2, eps=(1, 1), p=3)

    def test_rejects_composite_p(self):
        with pytest.raises(ConfigError):
            GroupShape(n=2, blocks=1, eps=(4,), p=4)

    def test_named_shapes_are_built_once_and_refusals_never_cached(self):
        from kisin.strata import clear_caches

        assert GroupShape.res_field(2, 3, 5) is GroupShape.res_field(2, 3, 5)
        assert GroupShape.multi_copy(2, 2, 3, 2) is GroupShape.multi_copy(2, 2, 3, 2)
        assert GroupShape.multi_copy(2, 2, 3, 2) == GroupShape(n=2, blocks=4, eps=(1, 3, 1, 3), p=3)
        before = core._res_field.cache_info().currsize, core._multi_copy.cache_info().currsize
        for _ in range(2):
            with pytest.raises(ConfigError, match="p=4 is not prime"):
                GroupShape.res_field(2, 1, 4)
            with pytest.raises(ConfigError, match="d must be positive"):
                GroupShape.multi_copy(2, 1, 3, 0)
        assert (core._res_field.cache_info().currsize, core._multi_copy.cache_info().currsize) == before
        clear_caches()
        assert core._res_field.cache_info().currsize == core._multi_copy.cache_info().currsize == 0


def is_prime_by_trial_division(p):
    """The primality test of the library before Miller-Rabin: O(sqrt(p))."""
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


# The least strong pseudoprimes to the first k prime bases, for k = 1-7, 9
# and 12 (OEIS A014233); the entry for k = 13 is _PRIME_BOUND.
STRONG_PSEUDOPRIMES = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
)


class TestIsPrime:
    def test_matches_trial_division_below_10_5(self):
        assert [p for p in range(-2, 10**5) if _is_prime(p)] == [
            p for p in range(-2, 10**5) if is_prime_by_trial_division(p)
        ]

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + (561, 41041, 825265, _PRIME_BOUND - 2))
    def test_strong_pseudoprimes_and_carmichael_numbers_are_composite(self, n):
        assert not _is_prime(n)

    # p - 1 is divisible by 2^23 for 998244353 and by 2^32 for 2^64 - 2^32 + 1,
    # the longest squaring chains here
    @pytest.mark.parametrize(
        "p", (998244353, 2**31 - 1, 2**61 - 1, 2**64 - 2**32 + 1, 10**12 + 39, 10**14 + 31, 10**18 + 3)
    )
    def test_large_primes(self, p):
        assert _is_prime(p)

    def test_refuses_past_its_proven_bound(self):
        # the least strong pseudoprime to the first 13 prime bases
        assert _PRIME_BOUND == 3317044064679887385961981
        for n in (_PRIME_BOUND, _PRIME_BOUND + 1, 2**127 - 1):
            with pytest.raises(ConfigError, match="primality test"):
                _is_prime(n)
        with pytest.raises(ConfigError, match="primality test"):
            GroupShape.res_field(2, 1, _PRIME_BOUND)


class TestActWeyl:
    def test_identity(self):
        v = ((2, 1, 1, 0),)
        assert act_weyl(SH4.identity_weyl(), v) == v

    def test_cycle_1243(self):
        # 1 -> 2 -> 4 -> 3 -> 1, applied as place permutation v_{w^{-1}(i)}
        w = ((1, 3, 0, 2),)
        assert act_weyl(w, ((2, 1, 1, 0),)) == ((1, 2, 0, 1),)

    def test_3cycle(self):
        w = ((1, 2, 0),)
        assert act_weyl(w, ((0, 0, 1),)) == ((1, 0, 0),)

    def test_group_action(self):
        rng = random.Random(7)
        for _ in range(50):
            v, w = rand_weyl(rng, SH32), rand_weyl(rng, SH32)
            x = rand_cochar(rng, SH32)
            vw = tuple(perm_mul(a, b) for a, b in zip(v, w))
            assert act_weyl(vw, x) == act_weyl(v, act_weyl(w, x))


class TestActSigma:
    def test_single_block_scalar(self):
        assert act_sigma(SH4, ((2, 1, 1, 0),)) == ((6, 3, 3, 0),)

    def test_two_blocks(self):
        sh = GroupShape.res_field(3, 2, 3)
        assert act_sigma(sh, ((1, 0, 1), (0, 0, 1))) == ((0, 0, 3), (3, 0, 3))

    def test_pure_rotation(self):
        # degenerate all-ones eps is not a valid GroupShape, so exercise the
        # block-level helper directly
        assert sigma_blocks((1, 1, 1), ((1, 2), (3, 4), (5, 6))) == ((3, 4), (5, 6), (1, 2))

    def test_commutes_with_shifted_weyl(self):
        rng = random.Random(11)
        for _ in range(50):
            w = rand_weyl(rng, SH32)
            v = rand_cochar(rng, SH32)
            lhs = act_sigma(SH32, act_weyl(w, v))
            rhs = act_weyl(sigma0_weyl(SH32, w), act_sigma(SH32, v))
            assert lhs == rhs


class TestTwistBlock:
    def test_matches_group_law(self):
        # block k of scale * tau + w(sigma(v)) against the group law's
        # w(sigma(v)), on eps patterns holding both 1 and p, at scale 1 and at
        # the denominator D of the fixed point, whose numerators E it fixes;
        # the kernel takes each w_k as its inverse
        rng = random.Random(19)
        for _ in range(300):
            n, nb, p = rng.randint(1, 4), rng.randint(2, 4), rng.choice((2, 3, 5))
            one, big = rng.sample(range(nb), 2)
            eps = [rng.choice((1, p)) for _ in range(nb)]
            eps[one], eps[big] = 1, p
            sh = GroupShape(n=n, blocks=nb, eps=tuple(eps), p=p)
            tau, w, v = rand_cochar(rng, sh), rand_weyl(rng, sh), rand_cochar(rng, sh)
            num, den = solve_affine_scaled(sh, w, tau)
            for scale, x in ((1, v), (den, v), (den, num)):
                got = tuple(twist_block(tau[k], perm_inv(w[k]), eps[k], x[(k + 1) % nb], scale) for k in range(nb))
                assert got == cochar_add(cochar_scale(scale, tau), act_weyl(w, act_sigma(sh, x)))
            assert got == num


class TestDominant:
    def test_sorts(self):
        dom, w = dominant(((3, 5, 1, 3),))
        assert dom == ((5, 3, 3, 1),)
        assert act_weyl(w, ((3, 5, 1, 3),)) == dom

    def test_fixed_point(self):
        v = ((4, 2, 1),)
        dom, w = dominant(v)
        assert dom == v and w == (identity_perm(3),)

    def test_per_block(self):
        dom, _ = dominant(((1, 2, 1), (2, 3, 1)))
        assert dom == ((2, 1, 1), (3, 2, 1))

    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=6))
    def test_witness_property(self, entries):
        v = (tuple(entries),)
        dom, w = dominant(v)
        assert act_weyl(w, v) == dom
        assert sorted(entries, reverse=True) == list(dom[0])


class TestDominanceOrder:
    def test_examples(self):
        assert dominance_leq(((4, 4, 2, 2),), ((5, 3, 3, 1),))
        assert dominance_leq(((5, 3, 3, 1),), ((5, 3, 3, 1),))
        assert not dominance_leq(((3, 0),), ((2, 2),))
        assert not dominance_leq(((3, 1),), ((2, 2),))

    def test_rejects_non_dominant(self):
        with pytest.raises(ConfigError):
            dominance_leq(((1, 2),), ((2, 2),))

    @pytest.mark.parametrize(
        "vecs",
        [
            [(v,) for v in dominant_vecs(3, -2, 2)],
            [(v,) for v in dominant_vecs(4, -2, 2)],
            [(a, b) for a in dominant_vecs(2, -2, 2) for b in dominant_vecs(2, -1, 1)],
        ],
        ids=["n3", "n4", "n2x2"],
    )
    def test_partial_order_small(self, vecs):
        rel = {(a, b) for a in vecs for b in vecs if dominance_leq(a, b)}
        for a in vecs:
            assert (a, a) in rel
        for a, b in rel:
            if (b, a) in rel:
                assert a == b
        for a, b in rel:
            for c in vecs:
                if (b, c) in rel:
                    assert (a, c) in rel

    def test_matches_coroot_search(self):
        for n in (2, 3, 4):
            vecs = dominant_vecs(n, -2, 2)
            for a in vecs:
                for b in vecs:
                    assert dominance_leq((b,), (a,)) == reachable_by_simple_coroots(a, b)


@st.composite
def _kernel_cases(draw):
    """(v, mu) over n = 1..5 and 1..3 blocks, mu dominant, v with entries in
    a narrow range so ties are common, block sums equal or not."""
    n, blocks = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    block = st.lists(st.integers(-2, 2), min_size=n, max_size=n)
    mu = tuple(tuple(sorted(draw(block), reverse=True)) for _ in range(blocks))
    v = []
    for m in mu:
        b = draw(block)
        if draw(st.booleans()):  # move the last entry to reach mu's block sum
            b[-1] += sum(m) - sum(b)
        v.append(tuple(b))
    return tuple(v), mu


class TestDominanceKernel:
    """The witness-free kernel against dominance_leq(dominant(v)[0], mu)."""

    @settings(max_examples=400, deadline=None)
    @given(_kernel_cases())
    def test_matches_dominance_leq(self, case):
        v, mu = case
        assert _dominated(v, mu) == dominance_leq(dominant(v)[0], mu)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exhaustive_small(self, n):
        rng = random.Random(n)
        if n <= 4:
            vs = itertools.product(range(-1, 3), repeat=n)
        else:
            vs = [tuple(rng.randint(-1, 2) for _ in range(n)) for _ in range(600)]
        for v in vs:
            for m in dominant_vecs(n, -1, 2):
                want = dominance_leq(dominant((v,))[0], (m,))
                assert _dominated((v,), (m,)) == want, (v, m)
                # a dominated second block, on either side, leaves the verdict
                assert _dominated((v, m), (m, m)) == want == _dominated((m, v), (m, m))

    def test_unequal_block_sums(self):
        assert not _dominated(((1, 0),), ((1, 1),))
        assert not _dominated(((2, 0), (1, 0)), ((2, 0), (0, 0)))
        assert _dominated(((0, 2, 1),), ((2, 1, 0),))


class TestLambdaAlpha:
    def test_positive_root(self):
        lam = ((2, 1, 0, 0),)
        assert lambda_alpha(lam, Root(0, 0, 1)) == 0

    def test_negative_root(self):
        lam = ((2, 1, 0, 0),)
        assert lambda_alpha(lam, Root(0, 1, 0)) == -1

    def test_equal_entries_positive(self):
        lam = ((1, 1, 0),)
        assert lambda_alpha(lam, Root(0, 0, 1)) == -1

    def test_root_count(self):
        assert sum(1 for _ in all_roots(SH32)) == 2 * 3 * 2


class TestExtAffine:
    def test_mul_inverse(self):
        rng = random.Random(3)
        for _ in range(30):
            a = ExtAffine(rand_cochar(rng, SH32), rand_weyl(rng, SH32))
            assert ext_mul(a, ext_inv(a)) == ext_identity(SH32)
            assert ext_mul(ext_inv(a), a) == ext_identity(SH32)

    def test_associativity(self):
        rng = random.Random(5)
        for _ in range(30):
            a, b, c = (
                ExtAffine(rand_cochar(rng, SH32), rand_weyl(rng, SH32)) for _ in range(3)
            )
            assert ext_mul(ext_mul(a, b), c) == ext_mul(a, ext_mul(b, c))

    def test_action_is_homomorphism(self):
        rng = random.Random(9)
        for _ in range(30):
            a = ExtAffine(rand_cochar(rng, SH32), rand_weyl(rng, SH32))
            b = ExtAffine(rand_cochar(rng, SH32), rand_weyl(rng, SH32))
            v = rand_cochar(rng, SH32)
            assert ext_act(ext_mul(a, b), v) == ext_act(a, ext_act(b, v))

    def test_sigma_homomorphism(self):
        rng = random.Random(13)
        for _ in range(30):
            a = ExtAffine(rand_cochar(rng, SH32), rand_weyl(rng, SH32))
            b = ExtAffine(rand_cochar(rng, SH32), rand_weyl(rng, SH32))
            assert ext_sigma(SH32, ext_mul(a, b)) == ext_mul(
                ext_sigma(SH32, a), ext_sigma(SH32, b)
            )

    def test_identity_conjugation(self):
        rng = random.Random(17)
        wt = ExtAffine(rand_cochar(rng, SH32), rand_weyl(rng, SH32))
        assert ext_sigma_conj(SH32, ext_identity(SH32), wt) == wt


# The records of the library are named tuples; these reprs were read off the
# frozen dataclasses they replaced, so a report or a log that prints a record
# reads the same.
_RECORD_REPRS = {
    "GroupShape": "GroupShape(n=2, blocks=1, eps=(3,), p=3)",
    "Root": "Root(block=0, i=1, j=2)",
    "ExtAffine": "ExtAffine(chi=((1, 0),), w=((1, 0),))",
    "FrobeniusDatum": (
        "FrobeniusDatum(shape=GroupShape(n=2, blocks=1, eps=(3,), p=3), wt=ExtAffine(chi=((1, 0),), w=((1, 0),)), "
        "e_num=((-1, -3),), e_den=8, alcove_ok=True)"
    ),
    "Stratum": (
        "Stratum(lam=((0, 0),), nat=((1, 0),), dag=((1, 0),), r_set=(), d_set=(Root(block=0, i=1, j=0),), "
        "dim=0, singleton='proven', singleton_rule='central')"
    ),
    "StrataGraph": (
        "StrataGraph(vertices=(Stratum(lam=((0, 0),), nat=((1, 0),), dag=((1, 0),), r_set=(), "
        "d_set=(Root(block=0, i=1, j=0),), dim=0, singleton='proven', singleton_rule='central'),), "
        "edges=(), components=((((0, 0),),),))"
    ),
    "Pi0Report": "Pi0Report(upper_bound=1, exactness='exact')",
    "MultiDatum": (
        "MultiDatum(base=FrobeniusDatum(shape=GroupShape(n=2, blocks=1, eps=(3,), p=3), "
        "wt=ExtAffine(chi=((1, 0),), w=((1, 0),)), e_num=((-1, -3),), e_den=8, alcove_ok=True), d=2, "
        "lifted=FrobeniusDatum(shape=GroupShape(n=2, blocks=2, eps=(1, 3), p=3), "
        "wt=ExtAffine(chi=((0, 0), (1, 0)), w=((0, 1), (1, 0))), e_num=((-1, -3), (-1, -3)), e_den=8, alcove_ok=True))"
    ),
}


def _records():
    """One record of each of the eight types, each built by the library."""
    datum = caruso_datum(2, 1, 3, 1)
    graph = build_graph(datum, ((1, 0),))
    return {
        "GroupShape": datum.shape,
        "Root": Root(0, 1, 2),
        "ExtAffine": datum.wt,
        "FrobeniusDatum": datum,
        "Stratum": enumerate_strata(datum, ((1, 0),))[0],
        "StrataGraph": graph,
        "Pi0Report": pi0_report(graph),
        "MultiDatum": make_multi(datum, 2),
    }


class TestRecords:
    """The record contract: named tuples that keep the field names, order,
    keyword construction, repr and hash of the frozen dataclasses they
    replaced, and stay immutable."""

    @pytest.mark.parametrize("name", sorted(_RECORD_REPRS))
    def test_hash_is_the_tuple_of_fields(self, name):
        r = _records()[name]
        fields = tuple(getattr(r, f) for f in r._fields)
        # the formula of a frozen dataclass's hash, so no set or dict order moves
        assert hash(r) == hash(fields)
        assert type(r).__name__ == name

    @pytest.mark.parametrize("name", sorted(_RECORD_REPRS))
    def test_repr_is_pinned(self, name):
        assert repr(_records()[name]) == _RECORD_REPRS[name]

    @pytest.mark.parametrize("name", sorted(_RECORD_REPRS))
    def test_assignment_is_refused(self, name):
        r = _records()[name]
        for field in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, field, None)
        with pytest.raises(AttributeError):
            r.extra = None
        assert repr(r) == _RECORD_REPRS[name]

    @pytest.mark.parametrize("name", sorted(_RECORD_REPRS))
    def test_keyword_construction(self, name):
        r = _records()[name]
        again = type(r)(**{f: getattr(r, f) for f in r._fields})
        assert again == r and type(again) is type(r) and hash(again) == hash(r)

    @pytest.mark.parametrize("name", sorted(_RECORD_REPRS))
    def test_tuple_behaviour(self, name):
        # documented, though no code of the library depends on it
        r = _records()[name]
        fields = tuple(getattr(r, f) for f in r._fields)
        assert r == fields and tuple(r) == fields

    @pytest.mark.parametrize(
        "kwargs, message",
        (
            ({"n": 0, "blocks": 1, "eps": (3,), "p": 4}, "n and blocks must be positive"),
            ({"n": 2, "blocks": 0, "eps": (), "p": 3}, "n and blocks must be positive"),
            ({"n": 2, "blocks": 1, "eps": (3, 3), "p": 4}, "p=4 is not prime"),
            ({"n": 2, "blocks": 1, "eps": (3, 3), "p": 3}, "eps pattern length must equal number of blocks"),
            ({"n": 2, "blocks": 2, "eps": (2, 1), "p": 3}, "eps entries must be 1 or p"),
            ({"n": 2, "blocks": 2, "eps": [1, 1], "p": 3}, "at least one eps entry must equal p"),
        ),
    )
    def test_shape_refusals_keep_their_messages(self, kwargs, message):
        # each case also breaks every later check, so the order is pinned too
        with pytest.raises(ConfigError) as exc:
            GroupShape(**kwargs)
        assert str(exc.value) == message

    def test_root_refusal_keeps_its_message(self):
        with pytest.raises(ConfigError) as exc:
            Root(block=0, i=1, j=1)
        assert str(exc.value) == "root indices must be distinct"

    def test_ext_affine_holds_tuples(self):
        wt = ExtAffine(chi=[[1, 0], [0, 2]], w=[[1, 0], (0, 1)])
        assert wt.chi == ((1, 0), (0, 2)) and wt.w == ((1, 0), (0, 1))
        assert type(wt.chi) is tuple and all(type(b) is tuple for b in wt.chi + wt.w)
        assert hash(wt) == hash(ExtAffine(((1, 0), (0, 2)), ((1, 0), (0, 1))))

    def test_shape_holds_eps_as_a_tuple(self):
        listed = GroupShape(n=2, blocks=1, eps=[3], p=3)
        assert listed.eps == (3,) and type(listed.eps) is tuple
        assert listed == GroupShape(n=2, blocks=1, eps=(3,), p=3)
        # the solve-plan cache keys on the shape, so a list eps once raised
        # TypeError there instead of giving a datum
        wt = ExtAffine(((1, 0),), ((1, 0),))
        assert make_datum(listed, wt) == make_datum(GroupShape(n=2, blocks=1, eps=(3,), p=3), wt)

    def test_datum_cached_properties_are_built_once_and_kept_out_of_eq_and_hash(self):
        datum = caruso_datum(2, 1, 3, 1)
        fresh = make_datum(datum.shape, datum.wt)
        assert fresh is not datum
        for name in ("plan", "tau_weight"):
            first = getattr(datum, name)
            assert getattr(datum, name) is first and vars(datum)[name] is first
            assert name not in vars(fresh)
            assert datum == fresh and hash(datum) == hash(fresh)
        with pytest.raises(AttributeError):
            datum.plan = None
        assert datum == tuple(datum) and len(datum) == 5

    def test_replace_returns_a_changed_copy_without_validation(self):
        shape = GroupShape(n=2, blocks=1, eps=(3,), p=3)
        assert shape._replace(p=4) == (2, 1, (3,), 4) and shape.p == 3
        assert type(Root(0, 1, 2)._replace(j=1)) is Root

    def test_import_leaves_dataclasses_and_inspect_out(self):
        # in a fresh interpreter, since pytest itself imports them all; the
        # fixed points are integers over one denominator, so neither
        # fractions nor the decimal and numbers modules it pulls in load
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")])
        kept_out = "{'dataclasses', 'inspect', 'fractions', 'decimal', 'numbers'}"
        code = f"import sys, kisin.cli; print(sorted({kept_out} & set(sys.modules)))"
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "[]\n"
