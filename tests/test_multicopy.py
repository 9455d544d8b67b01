import itertools
import json
import random
import sys
from fractions import Fraction as Q
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import closed_walks_from_every_start, descent_stats, dominant, zero_stratum_by_enumeration
from kisin import multicopy
from kisin.cli import main
from kisin.core import GroupShape
from kisin.errors import (
    ConfigError,
    EnumerationCapError,
    NotInGeneralPositionError,
    PreconditionError,
    TheoremViolationError,
)
from kisin.multicopy import (
    decompose_mu,
    interleave_index,
    make_multi,
    project_first,
    recursion_check,
    unique_zero_stratum,
    varsigma,
)
from kisin.normal_form import _SolvePlan, caruso_datum, is_caruso_simple, make_datum
from kisin.strata import block_sums, clear_caches, enumerate_strata, make_stratum, sum_profile


# (n, f, p, m) of the Caruso data whose lifts are walked in
# TestUniqueZeroStratum, each for d = 1 .. 4 and every mu of those d
LIFT_BASES = ((2, 1, 3, 1), (2, 2, 2, 1), (3, 1, 2, 3), (2, 2, 3, 2))


def random_simple_m(rng, n, q):
    m = rng.randint(1, q**n - 1)
    while not is_caruso_simple(n, q, m):
        m = rng.randint(1, q**n - 1)
    return m


class TestLifting:
    def test_lift_builds_only_the_eager_plan(self):
        # the construction and its certificates read only the prefix scales,
        # q and the inverses of w of the lift's solve plan; its rows, cycles,
        # prefix permutations and the join's and the walk's data are built on
        # first read, and the 3,000-copy lift of mu = [[41, 0]] reads none
        clear_caches()
        multi = make_multi(caruso_datum(2, 1, 3, 1), 3000)
        mb = decompose_mu(((41, 0),), 3000)
        z = unique_zero_stratum(multi, mb)
        assert recursion_check(multi, mb, z.lam) == (True, None)
        lazy = {name for name, attr in vars(_SolvePlan).items() if isinstance(attr, cached_property)}
        assert lazy == {"prefix_perm", "cycles", "den", "dens", "rows", "join", "walk"}
        built = set(vars(multi.lifted.plan))
        assert {"prefix_eps", "q", "winv"} <= built and not built & lazy, built

    def test_interleave_formula(self):
        # block of (copy i, factor j), both 1-indexed in the bookkeeping note,
        # is i + (j-1)d; 0-indexed that is i + j*d
        assert [interleave_index(i, j, 2) for j in range(2) for i in range(2)] == [0, 1, 2, 3]

    def test_lift_structure(self):
        base = caruso_datum(2, 1, 3, 1)
        multi = make_multi(base, 2)
        lifted = multi.lifted
        assert lifted.shape.eps == (1, 3)
        assert lifted.tau == ((0, 0), (1, 0))
        assert lifted.w == ((0, 1), (1, 0))
        assert lifted.e == (base.e[0], base.e[0])
        assert make_datum(lifted.shape, lifted.wt).e == lifted.e

    def test_lift_f2(self):
        base = caruso_datum(2, 2, 3, 1)
        multi = make_multi(base, 3)
        lifted = multi.lifted
        assert lifted.shape.blocks == 6
        assert lifted.shape.eps == (1, 1, 3, 1, 1, 3)
        for j in range(2):
            for i in range(3):
                k = interleave_index(i, j, 3)
                assert lifted.e[k] == base.e[j]
                if i == 2:
                    assert lifted.tau[k] == base.tau[j] and lifted.w[k] == base.w[j]
                else:
                    assert lifted.tau[k] == (0, 0) and lifted.w[k] == (0, 1)

    def test_d1_is_base(self):
        base = caruso_datum(3, 1, 2, 1)
        multi = make_multi(base, 1)
        assert multi.lifted.wt == base.wt and multi.lifted.e == base.e

    def test_lift_keeps_the_base_denominator(self):
        base = caruso_datum(3, 2, 2, 5)
        lifted = make_multi(base, 3).lifted
        assert lifted.e_den == base.e_den == 4**3 - 1
        assert lifted.e_num == tuple(base.e_num[k // 3] for k in range(6))

    def test_corrupt_interleaved_block_exits_4(self, monkeypatch, capsys):
        # the interleaved point with block 1 moved off it fails the lift's
        # defining identity
        real = multicopy._is_fixed_point

        def corrupt(shape, wt, num, den):
            return real(shape, wt, num[:1] + (tuple(x + 1 for x in num[1]),) + num[2:], den)

        monkeypatch.setattr(multicopy, "_is_fixed_point", corrupt)
        message = "interleaved fixed point fails its identity"
        with pytest.raises(TheoremViolationError, match=message):
            make_multi(caruso_datum(2, 1, 3, 1), 3)
        argv = ["multicopy", "--p", "3", "--n", "2", "--f", "1", "--m", "1", "--mu", "[[3,0]]", "--d", "3"]
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err and "Traceback" not in captured.err


class TestDecomposeMu:
    def test_two_copies(self):
        assert decompose_mu(((2, 0),), 2) == ((1, 0), (1, 0))

    def test_zero(self):
        assert decompose_mu(((0, 0, 0),), 3) == ((0, 0, 0),) * 3

    def test_copy_major_pattern(self):
        got = decompose_mu(((2, 0), (1, 0)), 2)
        assert got == ((1, 0), (1, 0), (1, 0), (0, 0))

    def test_rejects_overflow(self):
        with pytest.raises(ConfigError):
            decompose_mu(((3, 0),), 2)

    def test_rejects_non_omega(self):
        with pytest.raises(ConfigError):
            decompose_mu(((2, 1),), 3)


class TestDescentStats:
    def test_example_h0(self):
        v = (Q(9, 10), Q(1, 2), Q(1, 10))
        delta, h = descent_stats(v)
        assert delta == Q(6, 5) and h == 0
        assert varsigma(v, 1) == (Q(-1, 10), Q(1, 2), Q(1, 10))

    def test_example_h1_drop(self):
        v = (Q(6, 5), Q(1, 10))
        delta, h = descent_stats(v)
        assert delta == Q(11, 10) and h == 1
        sv = varsigma(v, 1)
        assert sv == (Q(1, 5), Q(1, 10))
        d2, h2 = descent_stats(sv)
        assert d2 == delta - 1 and h2 == 0

    @given(
        st.lists(
            st.fractions(min_value=-30, max_value=30, max_denominator=9),
            min_size=1,
            max_size=5,
        )
    )
    def test_h_zero_iff_small_spread(self, entries):
        v = tuple(entries)
        _, h = descent_stats(v)
        assert (h == 0) == (max(v) - min(v) < 1)

    @given(
        st.lists(
            st.fractions(min_value=-30, max_value=30, max_denominator=9),
            min_size=2,
            max_size=5,
        )
    )
    def test_delta_h_inequalities(self, entries):
        v = tuple(entries)
        delta, h = descent_stats(v)
        assert h <= delta < h + len(v) - 1

    def test_varsigma_ties(self):
        assert varsigma((1, 1, 0), 1) == (0, 0, 0)

    def test_varsigma_scaled(self):
        # on D v the step is D: D varsigma(v, 1) = varsigma(D v, D)
        rng = random.Random(59)
        for _ in range(200):
            den = rng.randint(1, 80)
            v = tuple(Q(rng.randint(-99, 99), den) for _ in range(rng.randint(1, 4)))
            assert tuple(den * x for x in varsigma(v, 1)) == varsigma(tuple(den * x for x in v), den)


def coset_vectors(rng, n, e_block, count, spread=4):
    """Random vectors in Z^n - e with prescribed common coordinate sums."""
    base = [tuple(rng.randint(-spread, spread) - x for x in e_block) for _ in range(count)]
    # adjust first coordinate so all sums agree
    target = sum(base[0])
    out = []
    for v in base:
        delta = target - sum(v)
        out.append((v[0] + delta,) + v[1:])
    return out


class TestDescentLemma:
    def sample(self, rng):
        n = rng.randint(2, 5)
        p = rng.choice((2, 3, 5))
        m = random_simple_m(rng, n, p)
        e = caruso_datum(n, 1, p, m).e[0]
        v, vp = coset_vectors(rng, n, e, 2)
        return v, vp

    def test_part1_and_2(self):
        rng = random.Random(53)
        seen_drop = 0
        for _ in range(400):
            v, _ = self.sample(rng)
            delta, h = descent_stats(v)
            d2, h2 = descent_stats(varsigma(v, 1))
            if h >= 1:
                seen_drop += 1
                assert d2 == delta - 1 and h2 == h - 1
            else:
                assert h2 == 0
        assert seen_drop > 50

    def test_part3_unique_h0(self):
        # varsigma lowers the sum by one per step, so the same power must be
        # applied to both vectors to stay inside the equal-sum hypothesis
        rng = random.Random(59)
        for _ in range(300):
            v, vp = self.sample(rng)
            k = max(descent_stats(v)[1], descent_stats(vp)[1])
            sv, svp = v, vp
            for _ in range(k):
                sv, svp = varsigma(sv, 1), varsigma(svp, 1)
            assert descent_stats(sv)[1] == 0 and descent_stats(svp)[1] == 0
            assert sv == svp

    def test_part4_and_5(self):
        rng = random.Random(61)
        for _ in range(300):
            v, vp = self.sample(rng)
            dv, hv = descent_stats(v)
            dvp, hvp = descent_stats(vp)
            assert (dv <= dvp) == (hv <= hvp)
            if dv <= dvp:
                ds, _ = descent_stats(varsigma(v, 1))
                dsp, _ = descent_stats(varsigma(vp, 1))
                assert ds <= dsp


class TestUniqueZeroStratum:
    def test_single_stratum_case(self):
        base = caruso_datum(2, 1, 3, 1)
        multi = make_multi(base, 1)
        mb = decompose_mu(((1, 0),), 1)
        z = unique_zero_stratum(multi, mb)
        assert z.lam == ((0, 0),) and z.dim == 0
        ok, bad = recursion_check(multi, mb, z.lam)
        assert ok and bad is None

    def test_d3(self):
        base = caruso_datum(2, 1, 3, 1)
        multi = make_multi(base, 3)
        mb = decompose_mu(((3, 0),), 3)
        z = unique_zero_stratum(multi, mb)
        assert z.dim == 0
        assert recursion_check(multi, mb, z.lam) == (True, None)

    @staticmethod
    def refuse_enumeration(monkeypatch):
        def refuse(*args):
            raise AssertionError("enumerate_strata was called")

        monkeypatch.setattr(multicopy, "enumerate_strata", refuse)

    def test_empty_is_precondition_error(self, monkeypatch):
        base = caruso_datum(2, 1, 3, 1)
        multi = make_multi(base, 2)
        mb = decompose_mu(((2, 0),), 2)  # even sum is incompatible with m = 1
        # s_0 = (1 - 2) / (1 - 3) is not an integer, so nothing is enumerated
        self.refuse_enumeration(monkeypatch)
        with pytest.raises(PreconditionError, match="the multi-copy variety is empty"):
            unique_zero_stratum(multi, mb)

    def test_constructs_without_enumeration(self, monkeypatch):
        cases = [
            (caruso_datum(2, 1, 3, 1), ((3, 0),), 3),
            (caruso_datum(2, 1, 3, 1), ((3, 0),), 5),
            (caruso_datum(2, 2, 3, 1), ((3, 0), (2, 0)), 3),
            (caruso_datum(3, 1, 2, 1), ((2, 0, 0),), 2),
            (caruso_datum(4, 1, 3, 5), ((3, 0, 0, 0),), 4),
        ]
        lifts = [(make_multi(base, d), decompose_mu(mu, d)) for base, mu, d in cases]
        want = [zero_stratum_by_enumeration(multi, mb) for multi, mb in lifts]
        self.refuse_enumeration(monkeypatch)
        assert [unique_zero_stratum(multi, mb) for multi, mb in lifts] == want
        # the record is make_stratum's, whose argument checks the construction
        # makes itself, also for a mu_bullet given as lists
        assert [make_stratum(multi.lifted, mb, z.lam) for (multi, mb), z in zip(lifts, want)] == want
        assert [unique_zero_stratum(multi, [list(b) for b in mb]) for multi, mb in lifts] == want

    def test_empty_with_integral_sums_enumerates(self, monkeypatch):
        # s_0 = -1 is an integer, no walk closes, and enumeration finds nothing
        multi = make_multi(caruso_datum(2, 1, 3, 2), 2)
        mb = decompose_mu(((0, 0),), 2)
        calls = []
        real = multicopy.enumerate_strata
        monkeypatch.setattr(multicopy, "enumerate_strata", lambda *a: calls.append(a) or real(*a))
        with pytest.raises(PreconditionError, match="the multi-copy variety is empty"):
            unique_zero_stratum(multi, mb)
        assert len(calls) == 1

    def test_walk_missing_the_stratum_is_a_violation(self, monkeypatch):
        # a witness of the wrong sum never closes, while enumeration still
        # finds the zero-dimensional stratum
        real = multicopy._witness
        monkeypatch.setattr(multicopy, "_witness", lambda s, n: real(s + n, n))
        multi = make_multi(caruso_datum(2, 1, 3, 1), 3)
        with pytest.raises(TheoremViolationError, match="solves no walk"):
            unique_zero_stratum(multi, decompose_mu(((3, 0),), 3))

    # multicopy of the GL_2 Caruso datum at p = 3, m = 1: three copies of
    # omega_1, so three walk starts
    ARGV = ["multicopy", "--p", "3", "--n", "2", "--f", "1", "--m", "1", "--mu", "[[3,0]]"]

    def assert_exits_4(self, capsys, message):
        assert main(self.ARGV) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err and "Traceback" not in captured.err

    def test_no_zero_stratum_found_by_enumeration_exits_4(self, monkeypatch, capsys):
        # no walk closes (a witness of the wrong sum), and the enumeration that
        # tells an empty variety from a violation finds strata of which none
        # has dimension 0
        real_witness, real_enumerate = multicopy._witness, multicopy.enumerate_strata
        monkeypatch.setattr(multicopy, "_witness", lambda s, n: real_witness(s + n, n))
        monkeypatch.setattr(
            multicopy, "enumerate_strata", lambda *a: tuple(s._replace(dim=1) for s in real_enumerate(*a))
        )
        self.assert_exits_4(capsys, "expected exactly one zero-dimensional stratum, found 0")

    def test_two_closed_walks_exit_4(self, monkeypatch, capsys):
        # walks that close on two different labels: the walks' one label and
        # a second one, its block 0 shifted
        real = multicopy._closed_walks

        def two(*args):
            ((first, *rest),) = closed = real(*args)
            return closed | {(tuple(x + 1 for x in first), *rest)}

        monkeypatch.setattr(multicopy, "_closed_walks", two)
        self.assert_exits_4(capsys, "expected exactly one zero-dimensional stratum, found 2")

    def test_failed_recursion_check_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(multicopy, "recursion_check", lambda multi, mu_bullet, lam: (False, 1))
        self.assert_exits_4(capsys, "recursion check failed at block 1")

    def test_positive_dimension_is_a_violation(self, monkeypatch):
        real = multicopy._record
        monkeypatch.setattr(multicopy, "_record", lambda *a: real(*a)._replace(dim=1))
        multi = make_multi(caruso_datum(2, 1, 3, 1), 3)
        with pytest.raises(TheoremViolationError, match="the block recursion's solution") as exc:
            unique_zero_stratum(multi, decompose_mu(((3, 0),), 3))
        assert str(exc.value).endswith("has dimension 1")

    def test_cap_bounds_the_recursion_steps(self, monkeypatch):
        # 4 blocks of GL_2 weigh 4 x 59 lifted entries, which bound the
        # walk's at most 2 x 4 steps too; decompose_mu alone reads the cap,
        # so a lift built within it is walked under any cap
        multi = make_multi(caruso_datum(2, 1, 3, 1), 4)
        monkeypatch.setenv("KISIN_MAX_ENUM", "235")
        with pytest.raises(EnumerationCapError, match=r"^236 lifted entries exceed cap 235 \(KISIN_MAX_ENUM\)$"):
            decompose_mu(((3, 0),), 4)
        monkeypatch.setenv("KISIN_MAX_ENUM", "236")
        mb = decompose_mu(((3, 0),), 4)
        monkeypatch.setenv("KISIN_MAX_ENUM", "0")
        assert unique_zero_stratum(multi, mb).dim == 0

    def test_walks_take_at_most_f_plus_one_steps_per_block(self, monkeypatch):
        # the bound of step 4 that decompose_mu's weight relies on: at most
        # (f + 1) N steps on every omega pattern, and f N + starts on
        # decompose_mu's copy-major patterns; on every lift of LIFT_BASES,
        # the 41-copy lifts of CI and random patterns drawn as
        # zero_stratum_experiment.py draws them, at up to 8 copies of 3
        # factors.  [steps, walks] are counted on the iterator of blocks
        # that each walk runs through
        counts = [0, 0]

        def counted(*ranges):
            counts[1] += 1
            for k in itertools.chain(*ranges):
                counts[0] += 1
                yield k

        monkeypatch.setattr(multicopy, "chain", counted)

        def walk(multi, mb):
            counts[:] = [0, 0]
            sums = block_sums(multi.lifted, mb)
            if sums is not None:
                multicopy._closed_walks(multi.lifted, multicopy._check_omega_pattern(mb), sums)
            return tuple(counts)

        lifts = [
            (caruso_datum(n, f, p, m), tuple((x,) + (0,) * (n - 1) for x in ms), d)
            for n, f, p, m in LIFT_BASES
            for d in range(1, 5)
            for ms in itertools.product(range(d + 1), repeat=f)
        ]
        lifts += [(caruso_datum(2, 1, 3, 1), ((41, 0),), d) for d in (41, 3000)]
        for base, mu, d in lifts:
            steps, walks = walk(make_multi(base, d), decompose_mu(mu, d))
            f = base.shape.blocks
            assert steps <= f * d * f + walks, (mu, d)
        assert (steps, walks) == (3041, 42)
        # random patterns, some of them past f N + starts
        rng, sampled, past = random.Random(73), 0, 0
        while sampled < 400:
            p = rng.choice((2, 3, 5))
            n, f, d = rng.randint(1, 4), rng.randint(1, 3), rng.randint(1, 8)
            m = rng.randint(1, p ** (f * n) - 1)
            if not is_caruso_simple(n, p**f, m):
                continue
            try:
                multi = make_multi(caruso_datum(n, f, p, m), d)
            except NotInGeneralPositionError:
                continue
            mb = tuple(((1,) + (0,) * (n - 1)) if rng.random() < 0.5 else (0,) * n for _ in range(d * f))
            steps, walks = walk(multi, mb)
            if walks:
                sampled += 1
                assert steps <= (f + 1) * d * f, (p, n, f, d, m, mb)
                past += steps > f * d * f + walks
        assert past > 0
        # p = 3, n = 3, f = 1, m = 9, d = 8: 15 steps against f N + starts = 13
        omega, zero = (1, 0, 0), (0, 0, 0)
        mb = (zero, omega, zero, zero, omega, omega, omega, omega)
        assert walk(make_multi(caruso_datum(3, 1, 3, 9), 8), mb) == (15, 5)

    def test_merged_walks_match_the_walks_from_every_start(self, monkeypatch, capsys):
        # the merged walks close on the labels that the walks from every
        # start around all N blocks close on (conftest), and the CLI gives
        # the same report or refusal with either walk: on the lifts of
        # LIFT_BASES, the 41-copy lifts of CI and seed 201's benchmark lifts
        argvs = [
            ["multicopy", "--p", str(p), "--n", str(n), "--f", str(f), "--m", str(m),
             "--mu", json.dumps([[x] + [0] * (n - 1) for x in ms]), "--d", str(d)]
            for n, f, p, m in LIFT_BASES
            for d in range(1, 5)
            for ms in itertools.product(range(d + 1), repeat=f)
        ]
        argvs += [[*self.ARGV[:-1], "[[41,0]]", "--d", d] for d in ("41", "3000")]
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        argvs += [inst["argv"] for inst in workloads.generate("multicopy-lift", 201, 20)]
        merged, walks = multicopy._closed_walks, []

        def compared(*args):
            closed = merged(*args)
            assert closed == closed_walks_from_every_start(*args)
            walks.append(len(closed))
            return closed

        for argv in argvs:
            runs = []
            for walk in (compared, closed_walks_from_every_start):
                monkeypatch.setattr(multicopy, "_closed_walks", walk)
                runs.append((main(argv), capsys.readouterr()))
            assert runs[0] == runs[1], argv
        # walks that close on the zero stratum, and walks that close on none
        assert set(walks) == {0, 1} and walks.count(1) > 400

    def test_decompose_mu_refuses_before_building_the_blocks(self, monkeypatch):
        # a million copies of GL_2 at 59 entries each, refused at once; mu's
        # shape and its multiplicities stay ConfigErrors ahead of the cap
        monkeypatch.setenv("KISIN_MAX_ENUM", "100")
        with pytest.raises(EnumerationCapError, match=r"^59000000 lifted entries exceed cap 100 \(KISIN_MAX_ENUM\)$"):
            decompose_mu(((1, 0),), 10**6)
        # copies of zero in GL_1 at 23 entries each: 4 are within the cap, 5
        # are not
        assert decompose_mu(((0,),), 4) == ((0,),) * 4
        with pytest.raises(EnumerationCapError, match=r"^115 lifted entries exceed cap 100 \(KISIN_MAX_ENUM\)$"):
            decompose_mu(((0,),), 5)
        # 24 factors of GL_1: the walk's f + 1 = 25 steps per block weigh
        # more than its 23 entries
        monkeypatch.setenv("KISIN_MAX_ENUM", "599")
        with pytest.raises(EnumerationCapError, match=r"^600 lifted entries exceed cap 599 \(KISIN_MAX_ENUM\)$"):
            decompose_mu(((0,),) * 24, 1)
        monkeypatch.setenv("KISIN_MAX_ENUM", "0")
        with pytest.raises(ConfigError, match="multiples of omega_1"):
            decompose_mu(((1, 0), (1, 1)), 10**6)
        with pytest.raises(ConfigError, match="exceeds d=3"):
            decompose_mu(((1, 0), (4, 0)), 3)

    def test_recursion_rejects_positive_dim(self):
        rng = random.Random(67)
        found = 0
        attempts = 0
        while found < 10 and attempts < 3000:
            attempts += 1
            p = rng.choice((2, 3))
            n = rng.randint(2, 3)
            d = rng.randint(1, 3)
            m = random_simple_m(rng, n, p)
            base = caruso_datum(n, 1, p, m)
            multi = make_multi(base, d)
            mb = tuple(
                ((1,) + (0,) * (n - 1)) if rng.random() < 0.6 else (0,) * n for _ in range(d)
            )
            S = enumerate_strata(multi.lifted, mb)
            for s in S:
                if s.dim and s.dim > 0:
                    found += 1
                    ok, _ = recursion_check(multi, mb, s.lam)
                    assert not ok
        assert found >= 10

    def test_randomized_uniqueness(self):
        rng = random.Random(71)
        hits = 0
        attempts = 0
        while hits < 60 and attempts < 4000:
            attempts += 1
            p = rng.choice((2, 3, 5))
            n = rng.randint(2, 4)
            f = rng.randint(1, 2)
            d = rng.randint(1, 3)
            m = random_simple_m(rng, n, p**f)
            base = caruso_datum(n, f, p, m)
            multi = make_multi(base, d)
            N = d * f
            mb = tuple(
                ((1,) + (0,) * (n - 1)) if rng.random() < 0.5 else (0,) * n for _ in range(N)
            )
            S = enumerate_strata(multi.lifted, mb)
            if not S:
                continue
            hits += 1
            zeros = [s for s in S if s.dim == 0]
            assert len(zeros) == 1
            assert unique_zero_stratum(multi, mb) == zeros[0]
            assert recursion_check(multi, mb, zeros[0].lam) == (True, None)
            assert all(sum_profile(s.lam) == block_sums(multi.lifted, mb) for s in S)
            # minuscule bound: every label's twisted difference is conjugate to it
            assert all(dominant(s.nat)[0] == mb for s in S)
        assert hits >= 60


class TestProjection:
    def test_d1_identity(self):
        base = caruso_datum(2, 1, 3, 1)
        multi = make_multi(base, 1)
        assert project_first(multi, ((4, -1),)) == ((4, -1),)

    def test_zero(self):
        base = caruso_datum(2, 2, 3, 1)
        multi = make_multi(base, 2)
        zero = multi.lifted.shape.zero_cochar()
        assert project_first(multi, zero) == base.shape.zero_cochar()

    def test_surjection_on_labels(self):
        # every stratum label downstairs arises as a copy-1 slice upstairs
        base = caruso_datum(2, 1, 3, 1)
        for total, d in ((3, 3), (1, 1), (5, 5)):
            mu = ((total, 0),)
            S = {s.lam for s in enumerate_strata(base, mu)}
            if not S:
                continue
            multi = make_multi(base, d)
            mb = decompose_mu(mu, d)
            Sup = enumerate_strata(multi.lifted, mb)
            projected = {project_first(multi, s.lam) for s in Sup}
            assert S <= projected

    def test_surjection_on_labels_f2(self):
        base = caruso_datum(2, 2, 3, 1)
        for mu, d in ((((0, 0), (3, 0)), 3), (((3, 0), (2, 0)), 3), (((1, 0), (0, 0)), 1)):
            S = {s.lam for s in enumerate_strata(base, mu)}
            assert S
            multi = make_multi(base, d)
            mb = decompose_mu(mu, d)
            Sup = enumerate_strata(multi.lifted, mb)
            assert Sup
            projected = {project_first(multi, s.lam) for s in Sup}
            assert S <= projected
            zeros = [s for s in Sup if s.dim == 0]
            assert len(zeros) == 1
            assert recursion_check(multi, mb, zeros[0].lam) == (True, None)
