import itertools
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    box_strata,
    caruso_central_twists,
    composed_stratum,
    contracting_datum,
    dominant,
    dominant_vecs,
    gauss_solve_fixed_point,
)
from kisin.core import ExtAffine, GroupShape
from kisin import strata
from kisin.errors import ConfigError, EnumerationCapError, PreconditionError, TheoremViolationError
from kisin.multicopy import decompose_mu, make_multi
from kisin.normal_form import FrobeniusDatum, caruso_datum, is_caruso_simple, make_datum
from kisin.connectivity import build_graph, chain_gl3
from kisin.strata import (
    _label_free,
    block_sums,
    clear_caches,
    central_twist,
    dominant_blocks_leq,
    enumerate_strata,
    make_stratum,
    natural_lambda,
    omega_reduction,
    stratum_nonempty,
    sum_profile,
)


def datum_a(p=3):
    sh = GroupShape.res_field(4, 1, p)
    return make_datum(sh, ExtAffine(((2, 0, 2, 0),), ((1, 3, 0, 2),)))


def mu_a(p=3):
    return ((2 * p - 1, p, p, 1),)


def datum_b(p=3):
    sh = GroupShape.res_field(3, 2, p)
    return make_datum(sh, ExtAffine(((2, 0, 1), (0, 0, 1)), ((1, 2, 0), (0, 1, 2))))


def mu_b(p=3):
    return ((p + 1, 0, 0), (p, p, 0))


CHI = ((1, 0, 1), (0, 0, 1))
CHI_PRIME = ((1, 1, 0), (1, 0, 0))


class TestNaturalLambda:
    def test_counterexample_a(self):
        d = datum_a()
        assert natural_lambda(d, ((2, 1, 1, 0),)) == ((3, 5, 1, 3),)
        assert dominant(natural_lambda(d, ((2, 1, 1, 0),)))[0] == mu_a()

    def test_zero_gives_tau(self):
        d = datum_a()
        assert natural_lambda(d, ((0, 0, 0, 0),)) == d.tau

    def test_counterexample_b(self):
        d = datum_b()
        assert natural_lambda(d, CHI) == ((4, 0, 0), (3, 0, 3))
        assert dominant(natural_lambda(d, CHI))[0] == mu_b()


class TestNonempty:
    def test_central_label(self):
        assert stratum_nonempty(datum_a(), mu_a(), ((1, 1, 1, 1),))

    def test_rejected_label(self):
        assert not stratum_nonempty(datum_a(), mu_a(), ((2, 2, 0, 0),))

    def test_exact_match_is_reflexive(self):
        d = datum_a()
        lam = ((2, 1, 1, 0),)
        assert dominant(natural_lambda(d, lam))[0] == mu_a()
        assert stratum_nonempty(d, mu_a(), lam)

    def test_requires_dominant_mu(self):
        with pytest.raises(ConfigError):
            stratum_nonempty(datum_a(), ((1, 3, 3, 5),), ((1, 1, 1, 1),))


class TestEnumerate:
    def test_counterexample_a(self):
        S = enumerate_strata(datum_a(), mu_a())
        assert [s.lam for s in S] == [((1, 1, 1, 1),), ((2, 1, 1, 0),)]

    def test_counterexample_b(self):
        S = enumerate_strata(datum_b(), mu_b())
        assert [s.lam for s in S] == [CHI, CHI_PRIME]

    def test_empty(self):
        # block sum 1 is incompatible with tau sum 4 mod (p-1) = 2
        S = enumerate_strata(datum_a(), ((1, 0, 0, 0),))
        assert S == ()

    @pytest.mark.parametrize(
        "n,f,p,m,mu",
        [
            (2, 1, 3, 1, ((2, 1),)),
            (2, 1, 2, 1, ((2, 0),)),
            (3, 1, 2, 1, ((1, 1, 0),)),
            (3, 1, 2, 3, ((2, 1, 1),)),
            (2, 2, 2, 1, ((1, 0), (1, 1))),
            (1, 2, 3, 1, ((2,), (1,))),
        ],
    )
    def test_box_search_oracle(self, n, f, p, m, mu):
        d = caruso_datum(n, f, p, m)
        assert {s.lam for s in enumerate_strata(d, mu)} == box_strata(d, mu)

    def test_distinct_nat_values(self):
        S = enumerate_strata(datum_b(), mu_b())
        nats = [s.nat for s in S]
        assert len(nats) == len(set(nats))

    def test_minuscule_forces_exact_conjugacy(self):
        d = caruso_datum(2, 1, 3, 1)
        mu = ((1, 0),)
        for s in enumerate_strata(d, mu):
            assert dominant(s.nat)[0] == mu

    def test_enumeration_cap(self, monkeypatch):
        monkeypatch.setenv("KISIN_MAX_ENUM", "2")
        with pytest.raises(EnumerationCapError):
            enumerate_strata(datum_a(), mu_a())

    def test_malformed_cap_is_a_config_error(self, monkeypatch):
        monkeypatch.setenv("KISIN_MAX_ENUM", "abc")
        with pytest.raises(ConfigError):
            enumerate_strata(datum_a(), mu_a())
        monkeypatch.setenv("KISIN_MAX_ENUM", "-1")
        with pytest.raises(ConfigError):
            enumerate_strata(datum_a(), mu_a())

    def test_dominant_blocks_leq(self):
        blocks = dominant_blocks_leq((2, 0))
        assert set(blocks) == {(2, 0), (1, 1)}


class TestDimensionsAndCertificates:
    def test_r_set_needs_minuscule(self):
        # r_set and dim are None for non-minuscule mu
        s = make_stratum(datum_a(), mu_a(), ((2, 1, 1, 0),))
        assert s.r_set is None and s.dim is None

    def test_lambda_zero_r_empty(self):
        # lam = 0 has lam_alpha in {0, -1}, so no root passes the >= 1 cut
        d = caruso_datum(2, 1, 3, 1)
        s = make_stratum(d, ((1, 0),), ((0, 0),))
        assert s.r_set == () and s.dim == 0

    @staticmethod
    def rule(datum, mu, lam):
        s = make_stratum(datum, mu, lam)
        return s.singleton, s.singleton_rule

    def test_counterexample_a_rules(self):
        d = datum_a()
        assert self.rule(d, mu_a(), ((1, 1, 1, 1),)) == ("proven", "central")
        assert self.rule(d, mu_a(), ((2, 1, 1, 0),)) == ("proven", "d-set")

    def test_counterexample_b_rules(self):
        d = datum_b()
        assert self.rule(d, mu_b(), CHI) == ("proven", "d-set")
        assert self.rule(d, mu_b(), CHI_PRIME) == ("proven", "dominant-minuscule")

    def test_d_set_values_counterexample_a(self):
        d = datum_a()
        ds = make_stratum(d, mu_a(), ((2, 1, 1, 0),)).d_set
        got = {(a.i + 1, a.j + 1) for a in ds}
        assert got == {(1, 2), (3, 2), (3, 4)}

    def test_d_set_requires_membership(self):
        with pytest.raises(PreconditionError):
            make_stratum(datum_a(), mu_a(), ((2, 2, 0, 0),))

    @pytest.mark.parametrize("mu", [((1, 0), (1, 0)), ((1, 0, 0),), ((1,),)])
    def test_mu_shape_is_checked(self, mu):
        d = caruso_datum(2, 1, 3, 1)
        with pytest.raises(ConfigError):
            make_stratum(d, mu, ((0, 0),))
        with pytest.raises(ConfigError):
            stratum_nonempty(d, mu, ((0, 0),))

    def test_r_set_requires_membership(self):
        # minuscule mu, so the non-label is rejected before any R-set exists
        d = caruso_datum(2, 1, 3, 1)
        assert not stratum_nonempty(d, ((1, 0),), ((3, -3),))
        with pytest.raises(PreconditionError):
            make_stratum(d, ((1, 0),), ((3, -3),))


FIELDS = ("lam", "nat", "dag", "r_set", "d_set", "dim", "singleton", "singleton_rule")


def assert_single_pass_matches(datum, mu, lam):
    """make_stratum against the composed oracle, field by field; a non-label
    must be rejected by both."""
    try:
        want = composed_stratum(datum, mu, lam)
    except PreconditionError:
        with pytest.raises(PreconditionError):
            make_stratum(datum, mu, lam)
        return False
    got = make_stratum(datum, mu, lam)
    for field in FIELDS:
        assert getattr(got, field) == getattr(want, field), (field, lam)
    return True


class TestSinglePassOracle:
    """The single-pass stratum core against the old function-by-function
    composition, field by field."""

    @pytest.mark.parametrize(
        "datum,mu",
        [(datum_a(p), mu_a(p)) for p in (3, 5, 7)] + [(datum_b(p), mu_b(p)) for p in (3, 5)],
    )
    def test_golden_counterexamples(self, datum, mu):
        S = enumerate_strata(datum, mu)
        assert len(S) == 2
        for s in S:
            assert assert_single_pass_matches(datum, mu, s.lam)
        # the labels' neighbours are mostly non-labels, rejected by both
        for s in S:
            for k, blk in enumerate(s.lam):
                for i in range(len(blk)):
                    bumped = list(map(list, s.lam))
                    bumped[k][i] += 1
                    assert_single_pass_matches(datum, mu, tuple(map(tuple, bumped)))

    def test_gl3_sweep_sample(self):
        checked = 0
        for p in (2, 3):
            ms = [m for m in range(-(p**3 - 1), p**3) if is_caruso_simple(3, p, m)][::5]
            for m in ms:
                d = caruso_datum(3, 1, p, m)
                for flat in itertools.product(range(2, -3, -1), repeat=3):
                    if flat[0] >= flat[1] >= flat[2]:
                        for s in enumerate_strata(d, (flat,)):
                            checked += assert_single_pass_matches(d, (flat,), s.lam)
        assert checked > 100

    def test_multicopy_lifted(self):
        rng = random.Random(20261018)
        done = 0
        while done < 25:
            p, n, f = rng.choice((2, 3)), rng.randint(2, 3), rng.randint(1, 2)
            m = rng.randint(1, p ** (f * n) - 1)
            if not is_caruso_simple(n, p**f, m):
                continue
            ms = [rng.randint(0, 3) for _ in range(f)]
            d = max(max(ms), 1) + rng.randint(0, 1)
            multi = make_multi(caruso_datum(n, f, p, m), d)
            mu_bullet = decompose_mu(tuple((x,) + (0,) * (n - 1) for x in ms), d)
            S = enumerate_strata(multi.lifted, mu_bullet)
            if not S:
                continue
            done += 1
            for s in S:
                assert assert_single_pass_matches(multi.lifted, mu_bullet, s.lam)

    @settings(max_examples=40, deadline=None)
    @given(
        p=st.sampled_from((2, 3)),
        n=st.integers(2, 3),
        f=st.integers(1, 2),
        m=st.integers(-20, 20),
        mu_entries=st.lists(st.integers(-2, 2), min_size=6, max_size=6),
        lam_entries=st.lists(st.integers(-2, 2), min_size=6, max_size=6),
        pick=st.integers(0, 10**6),
    )
    def test_hypothesis_data(self, p, n, f, m, mu_entries, lam_entries, pick):
        if not is_caruso_simple(n, p**f, m):
            return
        d = caruso_datum(n, f, p, m)
        mu = tuple(
            tuple(sorted(mu_entries[k * n : (k + 1) * n], reverse=True)) for k in range(f)
        )
        lam = tuple(tuple(lam_entries[k * n : (k + 1) * n]) for k in range(f))
        assert_single_pass_matches(d, mu, lam)
        S = enumerate_strata(d, mu)
        if S:
            assert assert_single_pass_matches(d, mu, S[pick % len(S)].lam)


class TestCentralTwist:
    def test_zero_chi(self):
        d = datum_a()
        d2, mu2 = central_twist(d, mu_a(), ((0, 0, 0, 0),))
        assert d2.wt == d.wt and mu2 == mu_a()

    def test_omega_reduction(self):
        chi, mu2 = omega_reduction(((3, 1, 1), (2, 2, 2)))
        assert chi == ((-1, -1, -1), (-2, -2, -2))
        assert mu2 == ((2, 0, 0), (0, 0, 0))

    def test_round_trip(self):
        d = datum_b()
        chi = ((2, 2, 2), (-1, -1, -1))
        d2, mu2 = central_twist(d, mu_b(), chi)
        d3, mu3 = central_twist(d2, mu2, tuple(tuple(-x for x in b) for b in chi))
        assert d3.wt == d.wt and mu3 == mu_b() and d3.e == d.e

    def test_strata_correspondence(self):
        d = datum_b()
        chi = ((1, 1, 1), (0, 0, 0))
        d2, mu2 = central_twist(d, mu_b(), chi)
        S = enumerate_strata(d, mu_b())
        S2 = enumerate_strata(d2, mu2)
        assert [s.lam for s in S] == [s.lam for s in S2]
        for a, b in zip(S, S2):
            assert b.nat == tuple(
                tuple(x + c[0] for x in blk) for blk, c in zip(a.nat, chi)
            )

    def test_rejects_non_central(self):
        with pytest.raises(ConfigError):
            central_twist(datum_a(), mu_a(), ((1, 0, 0, 0),))

    def test_transport_matches_the_solve(self):
        # the transport against the solve it replaced: make_datum of the
        # twisted (tau + chi, w), field for field, e_den and alcove_ok
        # included, on the Caruso grid and on make_datum data outside the
        # alcove, with mixed eps patterns and with D = 1
        explicit = [
            make_datum(GroupShape.res_field(2, 1, 3), ExtAffine(((5, 0),), ((1, 0),))),
            make_datum(GroupShape.res_field(2, 1, 2), ExtAffine(((3, 1),), ((0, 1),))),  # D = 1
            make_datum(GroupShape.res_field(1, 2, 5), ExtAffine(((4,), (-7,)), ((0,), (0,)))),
            make_datum(GroupShape.res_field(3, 2, 3), ExtAffine(((4, -2, 1), (0, 6, 1)), ((2, 0, 1), (0, 2, 1)))),
            make_datum(GroupShape(n=3, blocks=3, eps=(1, 5, 1), p=5), ExtAffine(((1, 0, 3), (0, 0, 0), (2, 2, -1)), ((1, 2, 0), (0, 1, 2), (2, 1, 0)))),
            make_datum(GroupShape.multi_copy(2, 2, 3, 2), ExtAffine(((0, 0), (3, 1), (0, 0), (-2, 0)), ((0, 1), (1, 0), (0, 1), (0, 1)))),
            datum_b(),
        ]
        assert not all(d.alcove_ok for d in explicit) and any(d.e_den == 1 for d in explicit)
        rng = random.Random(44)
        pairs = list(caruso_central_twists())
        for d in explicit:
            pairs += [(d, tuple((rng.randint(-5, 5),) * d.shape.n for _ in d.tau)) for _ in range(8)]
        moved = 0
        for d, chi in pairs:
            mu = d.shape.zero_cochar()
            got, mu2 = central_twist(d, mu, chi)
            want = make_datum(d.shape, ExtAffine(tuple(tuple(t + c for t, c in zip(bt, bc)) for bt, bc in zip(d.tau, chi)), d.w))
            assert (got.shape, got.wt, got.e_num, got.e_den, got.alcove_ok) == (
                want.shape, want.wt, want.e_num, want.e_den, want.alcove_ok
            ), (d.wt, chi)
            assert mu2 == chi
            if any(map(any, chi)):
                moved += 1
            else:
                assert got is d
        assert moved > 2500

    def test_shift_off_the_denominator_is_a_violation(self):
        # D s_0 = D c / (1 - q) must be an integer, as it is for every datum
        # the library builds (D = q^L - 1); a datum held over D = 1 with
        # q = 5 breaks it
        shape = GroupShape.res_field(1, 1, 5)
        d = FrobeniusDatum(shape, ExtAffine(((4,),), ((0,),)), ((-1,),), 1, True)
        assert d.e == make_datum(shape, d.wt).e
        with pytest.raises(TheoremViolationError, match="central shift of the fixed point is not a multiple of 1 / D"):
            central_twist(d, ((0,),), ((1,),))

    def test_transport_is_certified(self, monkeypatch):
        # every non-zero transport runs the defining identity of the twisted
        # datum; a zero chi hands the datum back and has nothing to certify
        monkeypatch.setattr(strata, "_is_fixed_point", lambda *a: False)
        d = datum_b()
        assert central_twist(d, mu_b(), ((0, 0, 0), (0, 0, 0)))[0] is d
        with pytest.raises(TheoremViolationError, match="transported fixed point fails its defining identity"):
            central_twist(d, mu_b(), ((0, 0, 0), (1, 1, 1)))

    def test_alcove_test_must_agree(self, monkeypatch):
        # a central shift keeps each block's order and spread, so the alcove
        # test of the transported point agrees with the datum's; a
        # disagreement, in either direction, is a theorem violation (exit 4)
        inside = datum_b()
        outside = make_datum(GroupShape.res_field(2, 1, 3), ExtAffine(((5, 0),), ((1, 0),)))
        assert inside.alcove_ok and not outside.alcove_ok
        for d in (inside, outside):
            monkeypatch.setattr(strata, "in_alcove", lambda num, den, flipped=not d.alcove_ok: flipped)
            chi = tuple((1,) * d.shape.n for _ in d.tau)
            with pytest.raises(TheoremViolationError, match="central twist changed the alcove test of the fixed point"):
                central_twist(d, d.shape.zero_cochar(), chi)


class TestSumProfile:
    def test_counterexample_a(self):
        assert sum_profile(((2, 1, 1, 0),)) == (4,)
        assert sum_profile(((1, 1, 1, 1),)) == (4,)

    def test_zero(self):
        assert sum_profile(((0, 0), (0, 0))) == (0, 0)

    def test_counterexample_b(self):
        assert sum_profile(CHI) == (2, 1) and sum_profile(CHI_PRIME) == (2, 1)

    def test_equal_across_strata(self):
        for d, mu in ((datum_a(), mu_a()), (datum_b(), mu_b())):
            profiles = {sum_profile(s.lam) for s in enumerate_strata(d, mu)}
            assert profiles == {block_sums(d, mu)}


def block_sums_by_fractions(datum, mu):
    """The block sums by dense elimination over Fractions: s = c + eps sigma(s)
    with c_k = sum(tau_k) - sum(mu_k) is the fixed-point system of GL_1
    twisted by u^c."""
    shape = SimpleNamespace(n=1, blocks=datum.shape.blocks, eps=datum.shape.eps)
    c = tuple((sum(t) - sum(m),) for t, m in zip(datum.tau, mu))
    return tuple(b[0] for b in gauss_solve_fixed_point(shape, ((0,),) * shape.blocks, c))


class TestBlockSums:
    def test_matches_fraction_solve(self):
        # shapes with eps in {1, p} (the multi-copy patterns among them) and
        # contracting shapes with eps in {2, 3}; every label's sums agree
        rng = random.Random(26)
        seen = {"integral": 0, "none": 0, "eps 1": 0, "labels": 0}
        for trial in range(600):
            n, blocks, p = rng.randint(1, 4), rng.randint(1, 4), rng.choice((2, 3, 5))
            w = tuple(tuple(rng.sample(range(n), n)) for _ in range(blocks))
            tau = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(blocks))
            mu = tuple(tuple(sorted((rng.randint(-1, 1) for _ in range(n)), reverse=True)) for _ in range(blocks))
            if trial % 2:
                datum = contracting_datum(tau, w, [rng.choice((2, 3)) for _ in range(blocks)])
            else:
                eps = [rng.choice((1, p)) for _ in range(blocks)]
                eps[rng.randrange(blocks)] = p
                shape = GroupShape(n=n, blocks=blocks, eps=tuple(eps), p=p)
                # the label set is defined by its inequality for any twist
                datum = make_datum(shape, ExtAffine(tau, w))._replace(alcove_ok=True)
                seen["eps 1"] += 1 in eps
            want = block_sums_by_fractions(datum, mu)
            got = block_sums(datum, mu)
            assert _label_free(datum, map(sum, mu)) == (got is None), (datum, mu)
            if all(x.denominator == 1 for x in want):
                assert got == want, (datum, mu)
                seen["integral"] += 1
            else:
                assert got is None, (datum, mu)
                seen["none"] += 1
            labels = enumerate_strata(datum, mu)
            assert all(sum_profile(s.lam) == got for s in labels), (datum, mu)
            seen["labels"] += bool(labels)
        assert min(seen.values()) >= 50, seen

    def test_none_has_no_strata_over_the_gl3_sweep(self):
        # the pairs of the acceptance GL_3 suite: p in {2, 3}, every simple
        # twist, every dominant mu of sup-norm <= 4, empty varieties included
        none = nonempty = 0
        for p in (2, 3):
            for m in range(-(p**3 - 1), p**3):
                if not is_caruso_simple(3, p, m):
                    continue
                d = caruso_datum(3, 1, p, m)
                for v in dominant_vecs(3, -4, 4):
                    sums, S = block_sums(d, (v,)), enumerate_strata(d, (v,))
                    if sums is None:
                        assert S == (), (m, v)
                        none += 1
                    else:
                        assert all(sum_profile(s.lam) == sums for s in S), (m, v)
                        nonempty += bool(S)
        assert none > 1000 and nonempty > 1000


def library_caches():
    """(module name, global name, cache) of every object with cache_clear
    among the module globals of the imported modules of kisin."""
    return [
        (name, key, obj)
        for name, module in sorted(sys.modules.items())
        if name.startswith("kisin.")
        for key, obj in sorted(vars(module).items())
        if hasattr(obj, "cache_clear")
    ]


class TestClearCaches:
    def test_every_cache_of_the_library_is_emptied(self, capsys):
        import kisin.cli  # imports every layer

        datum, mu = caruso_datum(3, 1, 2, 1), ((2, 1, -2),)
        labels = [s.lam for s in enumerate_strata(datum, mu)]
        chain_gl3(datum, mu, labels[0], labels[-1])
        build_graph(datum, mu)
        argv = ["oracle-count", "--p", "2", "--n", "2", "--f", "1", "--m", "1", "--mu", "[[1,0]]", "--box", "1"]
        assert kisin.cli.main(argv) == 0
        assert kisin.cli.main(["graph", "--p", "3", "--n", "2", "--mu", "[[1,0]]", "--m=1"]) == 0
        capsys.readouterr()
        caches = library_caches()
        filled = {f"{name}.{key}" for name, key, obj in caches if obj.cache_info().currsize}
        assert {
            "kisin.strata._state",
            "kisin.strata._candidate_table",
            "kisin.connectivity._chain_context",
            "kisin.connectivity._step_table",
            "kisin.connectivity._move_table",
            "kisin.normal_form._solve_plan",
            "kisin.oracle._minor_plan",
            "kisin.cli._parser",
        } <= filled
        clear_caches()
        assert [f"{name}.{key}" for name, key, obj in caches if obj.cache_info().currsize] == []
        assert [f"{name}.{key}" for name, key, obj in library_caches() if obj.cache_info().currsize] == []
