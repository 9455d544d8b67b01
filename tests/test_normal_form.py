import math
import random
from fractions import Fraction as Q

import pytest

from conftest import (
    act_sigma,
    act_weyl,
    cochar_scale,
    alcove_reduce_by_fractions,
    ext_act,
    ext_identity,
    ext_inv,
    ext_sigma_conj,
    fixed_point,
    gauss_solve_fixed_point,
    gcd_power_fact,
    in_alcove_by_fractions,
    in_general_position_by_fractions,
    make_datum_by_fractions,
    perm_order,
    solve_affine_integral,
    solve_block0_by_cycle_walk,
)
from kisin import normal_form
from kisin.cli import CASES, counterexample, main
from kisin.core import (
    ExtAffine,
    GroupShape,
    cochar_add,
    cochar_sub,
    identity_perm,
    n_cycle,
    perm_mul,
)
from kisin.errors import ConfigError, NotInGeneralPositionError, NotSimpleError, TheoremViolationError
from kisin.multicopy import make_multi
from kisin.strata import central_twist, enumerate_strata, omega_reduction
from kisin.normal_form import (
    alcove_reduce,
    caruso_datum,
    in_alcove,
    in_general_position,
    is_caruso_simple,
    make_datum,
    solve_affine_scaled,
)


def random_twist(rng, n, nb, p, eps=None):
    """A random shape with nb blocks (random eps pattern unless given), and a
    random wt = u^tau w on it."""
    if eps is None:
        eps = [rng.choice((1, p)) for _ in range(nb)]
        if all(e == 1 for e in eps):
            eps[rng.randrange(nb)] = p
    sh = GroupShape(n=n, blocks=nb, eps=tuple(eps), p=p)
    tau = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(nb))
    w = []
    for _ in range(nb):
        perm = list(range(n))
        rng.shuffle(perm)
        w.append(tuple(perm))
    return sh, ExtAffine(tau, tuple(w))


def caruso_twists():
    """(shape, wt) of the Caruso representatives u^{(m,0,...,0)} (n-cycle)
    before alcove reduction, for p in {2, 3, 5}, f <= 2 and n <= 4: every
    simple m in [1, q^n - 2] when q^n - 1 <= 1000, else every m of a stride
    of (q^n - 1) // 200."""
    for p in (2, 3, 5):
        for f in (1, 2):
            q = p**f
            for n in (1, 2, 3, 4):
                space = q**n - 1
                sh = GroupShape.res_field(n, f, p)
                w = (n_cycle(n),) + (identity_perm(n),) * (f - 1)
                for m in range(1, space) if space <= 1000 else range(1, space, space // 200):
                    if is_caruso_simple(n, q, m):
                        yield sh, ExtAffine(((m,) + (0,) * (n - 1),) + ((0,) * n,) * (f - 1), w)


class TestCarusoSimple:
    def test_examples(self):
        assert is_caruso_simple(2, 3, 1)
        assert is_caruso_simple(3, 2, 1)
        assert not is_caruso_simple(2, 3, 4)

    def test_n1_vacuous(self):
        assert is_caruso_simple(1, 3, 5)

    def test_zero_never_simple_for_n2(self):
        assert not is_caruso_simple(2, 3, 0)


class TestFixedPoint:
    def test_counterexample_a(self):
        sh = GroupShape(n=4, blocks=1, eps=(3,), p=3)
        wt = ExtAffine(((2, 0, 2, 0),), ((1, 3, 0, 2),))
        e = fixed_point(make_datum(sh, wt))
        assert e == ((Q(-1, 10), Q(-3, 10), Q(-7, 10), Q(-9, 10)),)

    def test_identity_weyl(self):
        sh = GroupShape(n=2, blocks=1, eps=(2,), p=2)
        wt = ExtAffine(((1, 0),), ((0, 1),))
        assert fixed_point(make_datum(sh, wt)) == ((Q(-1), Q(0)),)

    def test_caruso_closed_form_f1(self):
        # e = -(m/(p^n-1)) * (1, p, ..., p^{n-1}) before alcove reduction
        for n, p, m in ((2, 3, 1), (3, 2, 1), (4, 5, 7), (3, 5, -2)):
            sh = GroupShape.res_field(n, 1, p)
            tau = ((m,) + (0,) * (n - 1),)
            from kisin.core import n_cycle

            wt = ExtAffine(tau, (n_cycle(n),))
            e = fixed_point(make_datum(sh, wt))
            expect = tuple(Q(-m * p**i, p**n - 1) for i in range(n))
            assert e == (expect,)

    def test_caruso_closed_form_f2_first_block(self):
        # the n-cycle sees scale q = p^f per trip, so block 1 has q-denominators
        n, f, p, m = 2, 2, 3, 1
        q = p**f
        sh = GroupShape.res_field(n, f, p)
        from kisin.core import n_cycle, identity_perm

        wt = ExtAffine(((m, 0), (0, 0)), (n_cycle(n), identity_perm(n)))
        e = fixed_point(make_datum(sh, wt))
        assert e[0] == tuple(Q(-m * q**i, q**n - 1) for i in range(n))

    def test_matches_dense_gaussian_oracle(self):
        rng = random.Random(23)
        for _ in range(25):
            sh, wt = random_twist(rng, rng.randint(1, 4), rng.randint(1, 3), rng.choice((2, 3, 5)))
            assert fixed_point(make_datum(sh, wt)) == gauss_solve_fixed_point(sh, wt.w, wt.chi)

    def test_scaled_solver_matches_dense_gaussian_oracle(self):
        # (E, D) with E / D the solution and D = q^L - 1, L the lcm of the
        # cycle lengths of W = w_0 ... w_{N-1}, that is the order of W
        rng = random.Random(24)
        for _ in range(200):
            n, nb, p = rng.randint(1, 5), rng.randint(1, 4), rng.choice((2, 3, 5))
            sh, wt = random_twist(rng, n, nb, p)
            num, den = solve_affine_scaled(sh, wt.w, wt.chi)
            big_w = identity_perm(n)
            for perm in wt.w:
                big_w = perm_mul(big_w, perm)
            assert den == math.prod(sh.eps) ** perm_order(big_w) - 1
            assert all(isinstance(x, int) for b in num for x in b)
            assert tuple(tuple(Q(x, den) for x in b) for b in num) == gauss_solve_fixed_point(sh, wt.w, wt.chi)

    def test_integral_solver_agrees(self):
        rng = random.Random(29)
        hits = 0
        for _ in range(300):
            n, nb, p = rng.randint(1, 3), rng.randint(1, 2), rng.choice((2, 3))
            sh = GroupShape.res_field(n, nb, p)
            rhs = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(nb))
            w = []
            for _ in range(nb):
                perm = list(range(n))
                rng.shuffle(perm)
                w.append(tuple(perm))
            w = tuple(w)
            lam = solve_affine_integral(sh, w, rhs)
            frac = fixed_point(make_datum(sh, ExtAffine(rhs, w)))
            integral = all(x.denominator == 1 for b in frac for x in b)
            assert (lam is not None) == integral
            if lam is not None:
                hits += 1
                assert lam == cochar_add(rhs, act_weyl(w, act_sigma(sh, lam)))
        assert hits > 0

    def test_all_eps_one_rejected_by_shape(self):
        # the solver has no invertibility check of its own: this refusal makes
        # the cycle product q at least 2, so 1 - w*sigma is invertible
        for eps in ((1,), (1, 1, 1)):
            with pytest.raises(ConfigError, match="at least one eps entry must equal p"):
                GroupShape(n=2, blocks=len(eps), eps=eps, p=3)


def cycle_count(w):
    """The number of cycles of W = w_0 ... w_{N-1}."""
    big_w = identity_perm(len(w[0]))
    for perm in w:
        big_w = perm_mul(big_w, perm)
    seen, count = set(), 0
    for start in range(len(big_w)):
        if start not in seen:
            count += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = big_w[i]
    return count


def integral_rhs(rng, sh, w, bound):
    """rhs = x - w(sigma(x)) for a random integral x, whose solution is x."""
    x = tuple(tuple(rng.randint(-bound, bound) for _ in range(sh.n)) for _ in range(sh.blocks))
    return cochar_sub(x, act_weyl(w, act_sigma(sh, x)))


class TestSolverOracle:
    """solve_affine_integral and solve_affine_scaled read x[0] off the rows of
    the solve plan; the cycle walk they replaced is the oracle."""

    @staticmethod
    def assert_matches(sh, w, rhs) -> bool:
        """Both solvers against the cycle walk on one right side; returns
        whether the solution is integral."""
        nums, dens = solve_block0_by_cycle_walk(sh, w, rhs)
        integral = all(nu % de == 0 for nu, de in zip(nums, dens))
        lam = solve_affine_integral(sh, w, rhs)
        assert (lam is not None) == integral
        if integral:
            assert lam[0] == tuple(nu // de for nu, de in zip(nums, dens))
            assert lam == cochar_add(rhs, act_weyl(w, act_sigma(sh, lam)))
        num, den = solve_affine_scaled(sh, w, rhs)
        assert num[0] == tuple(nu * (den // de) for nu, de in zip(nums, dens))
        assert num == cochar_add(cochar_scale(den, rhs), act_weyl(w, act_sigma(sh, num)))
        return integral

    def test_random_shapes(self):
        # n <= 4, N <= 4, eps in {1, p}, every count of cycles of W from 1 to
        # 4; half of the right sides are built to solve integrally
        rng = random.Random(53)
        cycles = set()
        outcomes = {True: 0, False: 0}
        for _ in range(1500):
            sh, wt = random_twist(rng, rng.randint(1, 4), rng.randint(1, 4), rng.choice((2, 3, 5)))
            cycles.add(cycle_count(wt.w))
            for rhs in (wt.chi, integral_rhs(rng, sh, wt.w, 6)):
                outcomes[self.assert_matches(sh, wt.w, rhs)] += 1
        assert cycles == {1, 2, 3, 4}
        assert min(outcomes.values()) > 500

    @pytest.mark.parametrize("case", ["a", "b"])
    @pytest.mark.parametrize("p", [3, 5, 211])
    def test_goldens(self, case, p):
        # tau, tau - lam_nat of every label (integral), and random sides
        datum, mu = counterexample(CASES[case], p)
        sh, w = datum.shape, datum.w
        rng = random.Random(p)
        sides = [datum.tau] + [cochar_sub(datum.tau, s.nat) for s in enumerate_strata(datum, mu)]
        for _ in range(100):
            sides.append(tuple(tuple(rng.randint(-p, p) for _ in range(sh.n)) for _ in range(sh.blocks)))
            sides.append(integral_rhs(rng, sh, w, p))
        outcomes = [self.assert_matches(sh, w, rhs) for rhs in sides]
        assert all(outcomes[1 : len(outcomes) - 200]) and not all(outcomes)

    def test_multicopy_lift_of_3000_blocks(self):
        # the lift of `multicopy --p 3 --n 2 --f 1 --m 1 --mu [[41,0]] --d 3000`
        mu = ((41, 0),)
        chi, _ = omega_reduction(mu)
        datum, _ = central_twist(caruso_datum(2, 1, 3, 1), mu, chi)
        lifted = make_multi(datum, 3000).lifted
        sh, w = lifted.shape, lifted.w
        rng = random.Random(3000)
        sides = [lifted.tau]
        for _ in range(3):
            sides.append(tuple(tuple(rng.randint(-9, 9) for _ in range(sh.n)) for _ in range(sh.blocks)))
            sides.append(integral_rhs(rng, sh, w, 9))
        outcomes = [self.assert_matches(sh, w, rhs) for rhs in sides]
        assert any(outcomes) and not all(outcomes)


class TestAlcove:
    def test_examples(self):
        # e / den with e the integer numerators
        assert in_alcove(((-1, -3, -7, -9),), 10)
        assert in_alcove(((0, -1),), 2)
        assert not in_alcove(((1, 1),), 2)

    def test_spread_boundary(self):
        assert not in_alcove(((1, -1),), 2)

    def test_matches_fraction_oracle(self):
        rng = random.Random(43)
        for _ in range(500):
            den = rng.randint(1, 12)
            e = tuple(tuple(rng.randint(-2 * den, 2 * den) for _ in range(rng.randint(1, 4))) for _ in range(rng.randint(1, 2)))
            frac = tuple(tuple(Q(x, den) for x in b) for b in e)
            assert in_alcove(e, den) == in_alcove_by_fractions(frac)

    def test_caruso_examples(self):
        d = caruso_datum(2, 1, 3, 1)
        assert fixed_point(d) == ((Q(-1, 8), Q(-3, 8)),) and d.alcove_ok
        d = caruso_datum(3, 1, 2, 1)
        assert fixed_point(d) == ((Q(-1, 7), Q(-2, 7), Q(-4, 7)),) and d.alcove_ok

    def test_caruso_rejects_non_simple(self):
        with pytest.raises(NotSimpleError):
            caruso_datum(2, 1, 3, 4)


class TestAlcoveReduce:
    def test_already_reduced_is_identity(self):
        d = caruso_datum(2, 1, 3, 1)
        z, d2 = alcove_reduce(d)
        assert d2 == d
        assert z.chi == ((0, 0),) and z.w == ((0, 1),)

    def test_spec_instance(self):
        # tau = (-2, 1) with the swap has fixed point (-1/8, 5/8), outside the alcove
        sh = GroupShape(n=2, blocks=1, eps=(3,), p=3)
        d = make_datum(sh, ExtAffine(((-2, 1),), ((1, 0),)))
        assert fixed_point(d) == ((Q(-1, 8), Q(5, 8)),) and not d.alcove_ok
        z, d2 = alcove_reduce(d)
        assert d2.alcove_ok and in_alcove_by_fractions(fixed_point(d2))
        assert fixed_point(d2) == ext_act(ext_inv(z), fixed_point(d))

    def test_roundtrip_random_translate(self):
        rng = random.Random(31)
        for _ in range(25):
            n, f, p = rng.randint(2, 4), rng.randint(1, 2), rng.choice((2, 3, 5))
            q = p**f
            m = rng.randint(1, q**n - 1)
            while not is_caruso_simple(n, q, m):
                m = rng.randint(1, q**n - 1)
            d = caruso_datum(n, f, p, m)
            sh = d.shape
            chi = tuple(tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(f))
            perms = []
            for _ in range(f):
                perm = list(range(n))
                rng.shuffle(perm)
                perms.append(tuple(perm))
            z = ExtAffine(chi, tuple(perms))
            moved = make_datum(sh, ext_sigma_conj(sh, z, d.wt))
            assert fixed_point(moved) == ext_act(ext_inv(z), fixed_point(d))
            _, back = alcove_reduce(moved)
            assert back.alcove_ok
            # idempotence
            z2, again = alcove_reduce(back)
            assert again == back and z2 == ext_identity(sh)

    def test_fixed_point_transport(self):
        rng = random.Random(37)
        sh = GroupShape.res_field(3, 2, 3)
        for _ in range(20):
            tau = tuple(tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2))
            perms = []
            for _ in range(4):
                perm = list(range(3))
                rng.shuffle(perm)
                perms.append(tuple(perm))
            wt = ExtAffine(tau, (perms[0], perms[1]))
            z = ExtAffine(
                tuple(tuple(rng.randint(-2, 2) for _ in range(3)) for _ in range(2)),
                (perms[2], perms[3]),
            )
            assert fixed_point(make_datum(sh, ext_sigma_conj(sh, z, wt))) == ext_act(ext_inv(z), fixed_point(make_datum(sh, wt)))

    def test_transport_formula_matches_group_law(self):
        # the transport by formula against the group law: the datum against
        # z^{-1} wt sigma(z) and the point against z^{-1}(e), on random z over
        # shapes of up to four blocks whose eps patterns may hold 1s
        rng = random.Random(47)
        multi = 0
        for _ in range(300):
            n, nb = rng.randint(1, 4), rng.randint(1, 4)
            sh, wt = random_twist(rng, n, nb, rng.choice((2, 3, 5)))
            chi = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(nb))
            z = ExtAffine(chi, tuple(tuple(rng.sample(range(n), n)) for _ in range(nb)))
            assert normal_form._transport_datum(sh, z, wt) == ext_sigma_conj(sh, z, wt)
            d = make_datum(sh, wt)
            moved = normal_form._transport_point(z, d.e_num, d.e_den)
            assert tuple(tuple(Q(x, d.e_den) for x in b) for b in moved) == ext_act(ext_inv(z), fixed_point(d))
            multi += nb > 1 and 1 in sh.eps
        assert multi > 50


class TestGeneralPosition:
    def test_simple_data_exhaustive_small(self):
        # non-integral entries and pairwise differences whenever simplicity holds
        for p, f in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1)):
            q = p**f
            for n in (2, 3, 4):
                space = q**n - 1
                ms = range(1, space) if space <= 7000 else range(1, space, space // 2000)
                for m in ms:
                    if not is_caruso_simple(n, q, m):
                        continue
                    d = caruso_datum(n, f, p, m)
                    assert in_general_position(d.e_num, d.e_den), (n, f, p, m)
                    assert in_general_position_by_fractions(fixed_point(d)), (n, f, p, m)

    def test_integral_entry_is_refused(self):
        # rank one: simplicity is vacuous but (q-1) | m forces an integral
        # fixed point, which is a precondition, not a theorem, failing
        for n, f, p, m in ((1, 1, 3, 2), (1, 1, 5, 8), (1, 3, 7, 0), (1, 1, 2, 5)):
            with pytest.raises(NotInGeneralPositionError, match="integral fixed point"):
                caruso_datum(n, f, p, m)
        # (q-1) not dividing m leaves the fixed point -m/(q-1) fractional
        assert fixed_point(caruso_datum(1, 1, 5, 7)) == ((Q(-7, 4),),)


class TestFractionOracles:
    """make_datum and alcove_reduce on (E, D) agree with the Fraction versions
    they replaced, kept in conftest: the same twist, fixed point, alcove
    verdict and reduction z, or the same refusal."""

    @staticmethod
    def assert_same(datum, oracle):
        assert (datum.shape, datum.wt, fixed_point(datum), datum.alcove_ok) == (oracle.shape, oracle.wt, oracle.e, oracle.alcove_ok)

    def assert_reductions_agree(self, datum, oracle):
        try:
            want = alcove_reduce_by_fractions(oracle)
        except NotInGeneralPositionError:
            with pytest.raises(NotInGeneralPositionError):
                alcove_reduce(datum)
            return False
        z, got = alcove_reduce(datum)
        assert z == want[0]
        self.assert_same(got, want[1])
        return True

    def test_caruso_data(self):
        reduced = 0
        for sh, wt in caruso_twists():
            datum = make_datum(sh, wt)
            oracle = make_datum_by_fractions(sh, wt)
            self.assert_same(datum, oracle)
            reduced += self.assert_reductions_agree(datum, oracle) and not datum.alcove_ok
        assert reduced > 2000

    def test_random_data(self):
        # several cycles of W, so D = q^lcm - 1 exceeds every q^|c| - 1
        rng = random.Random(41)
        counts = {True: 0, False: 0}
        for _ in range(600):
            sh, wt = random_twist(rng, rng.randint(2, 5), rng.randint(1, 3), rng.choice((2, 3, 5)))
            datum = make_datum(sh, wt)
            oracle = make_datum_by_fractions(sh, wt)
            self.assert_same(datum, oracle)
            counts[self.assert_reductions_agree(datum, oracle)] += 1
        assert min(counts.values()) > 50


# each theorem-violation site of normal_form that no input reaches, by the
# one collaborator it guards: (name patched in normal_form, factory from the
# real value to the fault, message).  Every one is reached on the Caruso
# datum (n, f, p, m) = (2, 1, 3, 5), whose fixed point -(5/8)(1, 3) lies
# outside the alcove, so its reduction runs.
def _perturbed_solve(real):
    def solve(shape, w, rhs):
        num, den = real(shape, w, rhs)
        return ((num[0][0] + 1,) + num[0][1:],) + num[1:], den

    return solve


def _integral_entry(real):
    def make(shape, wt):
        datum = real(shape, wt)
        return datum._replace(e_num=((0,) + datum.e_num[0][1:],) + datum.e_num[1:])

    return make


NORMAL_FORM_FAULTS = [
    ("solve_affine_scaled", _perturbed_solve, "fixed point fails its defining identity"),
    ("_transport_point", lambda real: lambda z, num, den: num, "alcove reduction produced a point outside the alcove"),
    ("_transport_datum", lambda real: lambda shape, z, wt: wt, "transported fixed point mismatch"),
    ("make_datum", _integral_entry, "simple datum has an integral fixed-point entry"),
]


class TestTheoremViolations:
    @pytest.mark.parametrize("target,fault,message", NORMAL_FORM_FAULTS, ids=[f[0] for f in NORMAL_FORM_FAULTS])
    def test_injected_fault_exits_4(self, monkeypatch, capsys, target, fault, message):
        assert not make_datum(GroupShape.res_field(2, 1, 3), ExtAffine(((5, 0),), ((1, 0),))).alcove_ok
        assert caruso_datum(2, 1, 3, 5).alcove_ok
        monkeypatch.setattr(normal_form, target, fault(getattr(normal_form, target)))
        with pytest.raises(TheoremViolationError, match=message):
            caruso_datum(2, 1, 3, 5)
        assert main(["normal-form", "--p", "3", "--n", "2", "--f", "1", "--m", "5"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err and "Traceback" not in captured.err


class TestCarusoArguments:
    # the shape is built before q = p^f: p = 0 with f = -1 once raised
    # ZeroDivisionError from 0 ** -1, and the CLI showed its traceback
    @pytest.mark.parametrize(
        "n,f,p,m,message",
        [
            (3, -1, 0, 1, "n and blocks must be positive"),
            (3, 0, 3, 1, "n and blocks must be positive"),
            (3, -2, 2, 1, "n and blocks must be positive"),
            (0, 1, 3, 1, "n and blocks must be positive"),
            (3, 1, 0, 1, "p=0 is not prime"),
            (3, 2, 1, 1, "p=1 is not prime"),
            (2, 1, 4, 4, "p=4 is not prime"),
            (2, 1, -3, 1, "p=-3 is not prime"),
        ],
    )
    def test_bad_arguments_are_config_errors(self, capsys, n, f, p, m, message):
        with pytest.raises(ConfigError, match=message):
            caruso_datum(n, f, p, m)
        argv = ["normal-form", "--p", str(p), "--n", str(n), "--f", str(f), "--m", str(m)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err and "Traceback" not in captured.err


class TestGcdPowerFact:
    def test_examples(self):
        assert gcd_power_fact(2, 4, 6) == 3
        assert gcd_power_fact(3, 2, 2) == 8
        assert gcd_power_fact(5, 3, 1) == 4

    def test_sweep(self):
        for q in (2, 3, 5):
            for a in range(1, 7):
                for b in range(1, 7):
                    assert gcd_power_fact(q, a, b) == q ** math.gcd(a, b) - 1
