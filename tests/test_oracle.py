import itertools
import random
from functools import lru_cache, reduce

import pytest
from hypothesis import given, strategies as st

from conftest import (
    LSeries,
    TableField,
    adjugate_divisors,
    candidate_cosets,
    coset_survey,
    count_stable_submodules,
    dominant,
    dominant_vecs,
    hnf_cosets,
    irreducible_quadratic_by_search,
    lseries_divisors,
    lseries_eliminate,
    lseries_label,
    mat_adjugate,
    mat_det,
    mat_diag_u,
    mat_frobenius,
    mat_from_rows,
    mat_identity,
    mat_mul,
    minor_divisors,
    pack_matrix,
    pack_series,
    packed_cosets,
    packed_divisors,
    packed_label,
    packing_width,
    series_from_terms,
    survey_points,
    survey_products,
    unpack_matrix,
    unpack_series,
    weyl_matrix,
)
from kisin import cli, oracle
from kisin.cli import main
from kisin.core import ExtAffine, GroupShape, _dominated
from kisin.errors import (
    BoxTooSmallError,
    ConfigError,
    PreconditionError,
    SingularMatrixError,
    TheoremViolationError,
)
from kisin.normal_form import caruso_datum, is_caruso_simple, make_datum
from kisin.oracle import GF, Packing, _eliminate, elementary_divisors, iwahori_label, kisin_points
from kisin.strata import central_twist, enumerate_strata

# table-driven twins of the library's fields (kisin.oracle.GF subclasses), so
# one object serves the LSeries oracle and the packed library
F2 = TableField(2)
F3 = TableField(3)
F4 = TableField(2, 2)
F5 = TableField(5)
F9 = TableField(3, 2)

PRIMES_BELOW_1000 = [p for p in range(2, 1000) if all(p % d for d in range(2, int(p**0.5) + 1))]


class TestGF:
    @pytest.mark.parametrize("p", (2, 3, 5))
    def test_prime_field_tables(self, p):
        f = TableField(p)
        for a in range(p):
            for b in range(p):
                assert f.add(a, b) == (a + b) % p
                assert f.mul(a, b) == (a * b) % p
            if a:
                assert any(f.mul(a, b) == 1 for b in range(p))

    @pytest.mark.parametrize("field", (F4, F9))
    def test_extension_axioms(self, field):
        els = list(field.elements())
        for a in els:
            assert field.add(a, field.neg(a)) == 0
            if a:
                assert any(field.mul(a, b) == 1 for b in els)
        rng = random.Random(83)
        for _ in range(200):
            a, b, c = (rng.choice(els) for _ in range(3))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))

    def test_prime_subfield_embedding(self):
        # the indices 0..p-1 are the prime subfield, with arithmetic mod p
        for a in range(3):
            for b in range(3):
                assert F9.add(a, b) == (a + b) % 3
                assert F9.mul(a, b) == (a * b) % 3

    def test_irreducible_quadratic_matches_search(self):
        # Euler's criterion finds the polynomial of the root search, which
        # names every F_{p^2} element in the point reports
        for p in PRIMES_BELOW_1000:
            assert GF._irreducible_quadratic(p) == irreducible_quadratic_by_search(p), p

    def test_irreducible_quadratic_at_a_large_prime(self):
        # near 10^12 the answer is x^2 + C, C the least with -C a non-square;
        # every smaller C gives a square, so the search made C tries
        p = 999999999989
        B, C = GF(p, 2).t_poly
        assert B == 0 and C < 100
        assert pow(-4 * C, (p - 1) // 2, p) == p - 1
        assert all(pow(-4 * c, (p - 1) // 2, p) == 1 for c in range(1, C))

    @pytest.mark.parametrize("p,r", ((1000003, 1), (1009, 2), (999999999989, 2)))
    def test_builds_no_table(self, p, r):
        f = GF(p, r)
        assert (f.p, f.r, f.q) == (p, r, p**r)
        assert all(not isinstance(v, (list, tuple, dict)) or len(v) <= 2 for v in vars(f).values())


class TestPacking:
    """Packed polynomials against LSeries: Z[u] -> F_p[u] and the pair ring
    -> F_{p^2}[u] are ring homomorphisms."""

    polys = st.dictionaries(st.integers(-3, 5), st.integers(0, 80), max_size=6)

    @pytest.mark.parametrize("field", (F2, F3, F4, F5, F9))
    @given(ta=polys, tb=polys, tc=polys)
    def test_homomorphism(self, field, ta, tb, tc):
        a, b, c = (series_from_terms(field, {e: x % field.q for e, x in t.items() if x % field.q}) for t in (ta, tb, tc))
        ring = Packing(field, 40)
        pa, pb, pc = (pack_series(ring, x, 3) for x in (a, b, c))
        assert unpack_series(ring, pa, 3) == a
        assert unpack_series(ring, ring.mul(pa, pb), 6) == a.mul(b)
        assert unpack_series(ring, ring.add(ring.mul(pa, pb), ring.neg(ring.mul(pb, pc))), 6) == a.mul(b).sub(b.mul(c))
        assert ring.render(pa, 3) == repr(a)
        v = ring.minval([pa])
        assert (v is None) == (not a.coeffs) and (v is None or v - 3 == a.offset)

    def test_minval_skips_multiples_of_p(self):
        # p X^0 + 1 X^2 over F_3: the exact digit 3 is zero mod 3
        ring = Packing(F3, 8)
        assert ring.minval([3 + (1 << 16)]) == 2
        assert ring.minval([3, 6 << 8]) is None

    def test_digit_past_the_spare_bit_is_a_theorem_violation(self):
        ring = Packing(F3, 8)
        with pytest.raises(TheoremViolationError, match="a packed coefficient passed its bound"):
            ring.minval([1 << 7])

    @pytest.mark.parametrize("field", (F3, F9))
    @given(ta=polys)
    def test_val_is_minval_of_one(self, field, ta):
        a = series_from_terms(field, {e: x % field.q for e, x in ta.items() if x % field.q})
        ring = Packing(field, 40)
        pa = pack_series(ring, a, 3)
        assert ring.val(pa) == ring.minval([pa])

    def test_val_reads_digits_as_minval_does(self):
        ring = Packing(F3, 8)
        assert ring.val(3 + (1 << 16)) == 2
        assert ring.val(3 + (6 << 8)) is None
        assert Packing(F9, 8).val((3, 1 << 8)) == 1
        for r, x in ((1, 1 << 7), (2, (0, 1 << 7))):
            with pytest.raises(TheoremViolationError, match="a packed coefficient passed its bound"):
                Packing(GF(3, r), 8).val(x)


class TestLSeries:
    # the Laurent arithmetic of the conftest oracle
    def test_repr_and_zero(self):
        s = series_from_terms(F3, {-1: 1, 0: 2, 2: 1})
        assert repr(s) == "u^-1 + 2 + u^2"
        assert not LSeries.zero(F3).coeffs

    def test_mul_exact(self):
        a = series_from_terms(F3, {0: 1, 1: 1})
        b = series_from_terms(F3, {0: 1, 1: 2})
        assert a.mul(b) == series_from_terms(F3, {0: 1, 1: 3 % 3, 2: 2})

    def test_frobenius(self):
        s = series_from_terms(F3, {-1: 2, 1: 1})
        fs = s.frobenius(3)
        assert fs == series_from_terms(F3, {-3: 2, 3: 1})
        # multiplicativity
        t = series_from_terms(F3, {0: 1, 2: 2})
        assert s.mul(t).frobenius(3) == fs.mul(t.frobenius(3))

    polys = st.dictionaries(st.integers(-4, 6), st.integers(0, 2), max_size=6)

    @given(polys, polys, polys)
    def test_ring_axioms(self, ta, tb, tc):
        a = series_from_terms(F3, {e: c for e, c in ta.items() if c})
        b = series_from_terms(F3, {e: c for e, c in tb.items() if c})
        c = series_from_terms(F3, {e: c for e, c in tc.items() if c})
        assert a.mul(b) == b.mul(a)
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
        assert a.add(b.add(c)) == a.add(b).add(c)
        assert not a.sub(a).coeffs


class TestElementaryDivisors:
    def test_diagonal(self):
        assert packed_divisors(mat_diag_u(F3, (2, 0))) == (2, 0)

    def test_unimodular(self):
        m = mat_from_rows(
            F3,
            [
                [series_from_terms(F3, {0: 1, 1: 2}), series_from_terms(F3, {0: 2})],
                [series_from_terms(F3, {1: 1}), series_from_terms(F3, {0: 1})],
            ],
        )
        assert packed_divisors(m) == (0, 0)

    def test_upper_jordan_like(self):
        m = mat_from_rows(
            F3,
            [
                [LSeries.monomial(F3, 1), LSeries.monomial(F3, 0)],
                [LSeries.zero(F3), LSeries.monomial(F3, 1)],
            ],
        )
        # d1 = min valuation 0, d1 + d2 = val det = 2
        assert packed_divisors(m) == (2, 0)

    def test_matches_minor_oracle_4x4(self):
        rng = random.Random(113)
        for _ in range(10):
            rows = [
                [
                    series_from_terms(
                        F2, {e: c for e in range(0, 3) if (c := rng.randrange(2))}
                    )
                    for _ in range(4)
                ]
                for _ in range(4)
            ]
            m = mat_from_rows(F2, rows)
            try:
                got = packed_divisors(m)
            except SingularMatrixError:
                continue
            assert got == minor_divisors(m)

    def test_matches_minor_oracle(self):
        rng = random.Random(97)
        for n in (2, 3):
            for _ in range(60):
                rows = []
                for _ in range(n):
                    row = []
                    for _ in range(n):
                        terms = {
                            e: rng.randrange(3)
                            for e in range(rng.randint(-2, 0), rng.randint(1, 3))
                        }
                        row.append(series_from_terms(F3, {e: c for e, c in terms.items() if c}))
                    rows.append(row)
                m = mat_from_rows(F3, rows)
                try:
                    got = packed_divisors(m)
                except SingularMatrixError:
                    continue
                assert got == minor_divisors(m)

    def test_sigma_scaling(self):
        rng = random.Random(101)
        for _ in range(30):
            rows = []
            for _ in range(2):
                row = []
                for _ in range(2):
                    terms = {e: rng.randrange(3) for e in range(-1, 3)}
                    row.append(series_from_terms(F3, {e: c for e, c in terms.items() if c}))
                rows.append(row)
            m = mat_from_rows(F3, rows)
            try:
                base = packed_divisors(m)
            except SingularMatrixError:
                continue
            assert packed_divisors(mat_frobenius(m, 3)) == tuple(3 * d for d in base)

    @pytest.mark.parametrize("field", (F2, F3, F4, F9))
    def test_matches_elimination(self, field):
        # the determinantal divisors against the pivot valuations of the
        # elimination, and the elimination against the oracle's, which also
        # clears each pivot row by column operations; a quarter of the
        # matrices are made singular
        rng = random.Random(131 + field.q)
        singular = 0
        for n in (1, 2, 3, 4):
            for _ in range(40 if n < 4 else 12):
                rows = [
                    [
                        series_from_terms(
                            field,
                            {e: c for e in range(rng.randint(-2, 0), rng.randint(0, 2)) if (c := rng.randrange(field.q))},
                        )
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
                if rng.random() < 0.25:
                    # the last row a multiple of the first (or zero when n = 1)
                    k = series_from_terms(field, {rng.randint(-1, 1): rng.randrange(field.q)})
                    rows[-1] = [k.mul(e) for e in rows[0]] if n > 1 else [LSeries.zero(field)]
                m = mat_from_rows(field, rows)
                try:
                    steps = _eliminate(*pack_matrix(m))
                except SingularMatrixError:
                    singular += 1
                    with pytest.raises(SingularMatrixError):
                        packed_divisors(m)
                    with pytest.raises(SingularMatrixError):
                        lseries_eliminate(m)
                    continue
                assert steps == lseries_eliminate(m)
                assert packed_divisors(m) == tuple(sorted((v for _, v in steps), reverse=True))
        assert singular

    def test_singular(self):
        z = LSeries.zero(F3)
        one = LSeries.monomial(F3, 0)
        with pytest.raises(SingularMatrixError):
            packed_divisors(mat_from_rows(F3, [[one, one], [one, one]]))
        with pytest.raises(SingularMatrixError):
            packed_divisors(mat_from_rows(F3, [[z, z], [z, z]]))

    def test_adjugate_identity(self):
        rng = random.Random(109)
        for n in (2, 3):
            for _ in range(20):
                rows = [
                    [
                        series_from_terms(
                            F3,
                            {
                                e: c
                                for e in range(-1, 2)
                                if (c := rng.randrange(3))
                            },
                        )
                        for _ in range(n)
                    ]
                    for _ in range(n)
                ]
                m = mat_from_rows(F3, rows)
                det = mat_det(m)
                prod = mat_mul(m, mat_adjugate(m))
                for i in range(n):
                    for j in range(n):
                        expect = det if i == j else LSeries.zero(F3)
                        assert prod.rows[i][j] == expect

    def test_frobenius_multiplicative_on_matrices(self):
        rng = random.Random(103)
        for _ in range(10):
            mk = lambda: mat_from_rows(
                F3,
                [
                    [
                        series_from_terms(
                            F3, {e: rng.randrange(3) for e in range(-1, 2)}
                        )
                        for _ in range(2)
                    ]
                    for _ in range(2)
                ],
            )
            a, b = mk(), mk()
            assert mat_frobenius(mat_mul(a, b), 3).rows == mat_mul(
                mat_frobenius(a, 3), mat_frobenius(b, 3)
            ).rows

    @pytest.mark.parametrize("r", (1, 2))
    def test_matches_oracle_at_a_large_prime(self, r):
        # at p = 1,000,003 the width passes 64 bits; random 3 x 3 matrices
        # with few terms, a fifth of them made singular
        field = TableField(1000003, r)
        rng = random.Random(151 + r)
        singular = 0
        for _ in range(30):
            rows = [
                [
                    series_from_terms(field, {e: rng.randrange(1, field.q) for e in rng.sample(range(-2, 3), rng.randint(0, 3))})
                    for _ in range(3)
                ]
                for _ in range(3)
            ]
            if rng.random() < 0.2:
                rows[2] = [series_from_terms(field, {1: rng.randrange(1, field.q)}).mul(e) for e in rows[0]]
            m = mat_from_rows(field, rows)
            assert packing_width(m) > 64
            try:
                want = lseries_divisors(m)
            except SingularMatrixError:
                singular += 1
                with pytest.raises(SingularMatrixError):
                    packed_divisors(m)
                continue
            assert packed_divisors(m) == want
            assert packed_label(m) == lseries_label(m)
        assert singular

    @pytest.mark.parametrize("field", (F2, F3, F5, TableField(7), F4, F9))
    def test_one_bit_fewer_is_caught(self, field):
        # every entry the largest digit (p - 1, or (p - 1) + (p - 1) t): the
        # determinant's digits reach the minor bound of _matrix_bounds, so at
        # the stated width the matrix is found singular, and with one bit
        # fewer the determinant's digit runs into the spare bit
        top = series_from_terms(field, {0: field.q - 1})
        m = mat_from_rows(field, [[top, top], [top, top]])
        width = packing_width(m)
        assert width == oracle._matrix_bounds(2, field.p, field.r, field.p - 1, 1)[0].bit_length() + 1
        with pytest.raises(SingularMatrixError):
            elementary_divisors(*pack_matrix(m, width))
        with pytest.raises(TheoremViolationError, match="a packed coefficient passed its bound"):
            elementary_divisors(*pack_matrix(m, width - 1))


def random_iwahori(field, n, rng, depth=6):
    """Random element of I as a product of elementary generators."""
    m = mat_identity(field, n)
    for _ in range(depth):
        kind = rng.randrange(3)
        rows = [[LSeries.monomial(field, 0) if i == j else LSeries.zero(field) for j in range(n)] for i in range(n)]
        if kind == 0:  # unit diagonal
            for i in range(n):
                c = rng.randrange(1, field.q)
                rows[i][i] = series_from_terms(field, {0: c, 1: rng.randrange(field.q)})
        else:
            i, j = rng.sample(range(n), 2)
            lo = 1 if i < j else 0  # entries above the diagonal need val >= 1
            terms = {e: rng.randrange(field.q) for e in range(lo, lo + 2)}
            rows[i][j] = series_from_terms(field, {e: c for e, c in terms.items() if c})
        m = mat_mul(m, mat_from_rows(field, rows))
    return m


def random_integral(field, n, rng, depth=6):
    """Random element of G(O) as a product of elementary matrices and permutations."""
    m = mat_identity(field, n)
    for _ in range(depth):
        kind = rng.randrange(3)
        rows = [[LSeries.monomial(field, 0) if i == j else LSeries.zero(field) for j in range(n)] for i in range(n)]
        if kind == 0:
            perm = list(range(n))
            rng.shuffle(perm)
            zero = LSeries.zero(field)
            rows = [[zero] * n for _ in range(n)]
            for j in range(n):
                rows[perm[j]][j] = LSeries.monomial(field, 0)
        elif kind == 1:
            for i in range(n):
                rows[i][i] = series_from_terms(
                    field, {0: rng.randrange(1, field.q), 2: rng.randrange(field.q)}
                )
        else:
            i, j = rng.sample(range(n), 2)
            terms = {e: rng.randrange(field.q) for e in range(0, 2)}
            rows[i][j] = series_from_terms(field, {e: c for e, c in terms.items() if c})
        m = mat_mul(m, mat_from_rows(field, rows))
    return m


class TestLazyDivisors:
    @pytest.mark.parametrize("field", (F2, F3, F4))
    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_matches_every_level(self, field, n):
        # k u^a k' with k, k' in G(O) has the divisors a.  For bounds mu of
        # the same sum as a and of another, the divisors formed against mu's
        # floors give the full d_n, agree with every level formed in full,
        # form the levels up to the first below its floor and then only the
        # determinant, and give _dominated's verdict
        rng = random.Random(131 * n + field.q)
        verdicts = set()
        for _ in range(12):
            a = tuple(sorted((rng.randint(-2, 3) for _ in range(n)), reverse=True))
            m = mat_mul(mat_mul(random_integral(field, n, rng), mat_diag_u(field, a)), random_integral(field, n, rng))
            ring, rows, shift = pack_matrix(m)
            ed = elementary_divisors(ring, rows, shift)
            assert ed == a
            full = list(itertools.accumulate(reversed(ed)))
            assert oracle._divisor_sums(ring, rows, shift, ()) == full
            bounds = [a, tuple(x + 1 for x in a)]
            for _ in range(8):
                head = [rng.randint(a[-1] - 2, a[0] + 2) for _ in range(n - 1)]
                bounds.append(tuple(sorted(head + [sum(a) - sum(head)], reverse=True)))
            for mu in bounds:
                floors = list(itertools.accumulate(reversed(mu)))[:-1]
                d = oracle._divisor_sums(ring, rows, shift, floors)
                fail = next((j for j, (x, y) in enumerate(zip(full, floors)) if x < y), n - 1)
                assert d == [x if j <= fail or j == n - 1 else None for j, x in enumerate(full)]
                verdict = all(x is not None and x >= y for x, y in zip(d, floors)) and d[-1] == sum(mu)
                assert verdict == _dominated((ed,), (mu,))
                verdicts.add(verdict)
        assert verdicts == {True, False}


class TestIwahoriLabel:
    def test_diagonal(self):
        assert packed_label(mat_diag_u(F3, (2, -1, 0))) == (2, -1, 0)

    def test_lower_unipotent_times_diag(self):
        rows = [
            [LSeries.monomial(F3, 1), LSeries.zero(F3)],
            [series_from_terms(F3, {0: 2}), LSeries.monomial(F3, -1)],
        ]
        assert packed_label(mat_from_rows(F3, rows)) == (1, -1)

    @pytest.mark.parametrize("field,n", ((F3, 2), (F2, 3), (F4, 2), (F4, 3)))
    def test_round_trip(self, field, n):
        rng = random.Random(107 + n + field.q)
        for _ in range(40):
            lam = tuple(rng.randint(-2, 2) for _ in range(n))
            h = random_iwahori(field, n, rng)
            k = random_integral(field, n, rng)
            g = mat_mul(mat_mul(h, mat_diag_u(field, lam)), k)
            assert packed_label(g) == lam
            assert lseries_label(g) == lam


    def test_row_order_is_asserted(self, monkeypatch):
        # the pivot is the topmost of least valuation, so the check cannot
        # fire on its own: a search that misreads row 0 one valuation too high
        # takes the pivot (1, 0), and clearing row 0, whose entry has the
        # pivot's valuation, breaks the Iwahori row order
        one = series_from_terms(F3, {0: 1})
        ring, rows, shift = pack_matrix(mat_from_rows(F3, [[one, one], [one, LSeries.zero(F3)]]))
        real, reads = Packing.val, []

        def misread(self, x):
            reads.append(None)
            v = real(self, x)
            return v + 1 if len(reads) <= 2 else v  # the reads of row 0 in the first search

        monkeypatch.setattr(Packing, "val", misread)
        with pytest.raises(PreconditionError, match="Iwahori row order"):
            iwahori_label(ring, rows, shift)


class TestCosets:
    def test_rank_one(self):
        got = list(hnf_cosets(1, 2, F3))
        vals = sorted(g.rows[0][0].offset for g, _ in got)
        assert vals == [-2, -1, 0, 1, 2]

    @pytest.mark.parametrize("n,field,q", ((2, F2, 2), (2, F3, 3), (3, F2, 2)))
    def test_count_matches_submodule_oracle(self, n, field, q):
        got = len(list(hnf_cosets(n, 1, field)))
        assert got == count_stable_submodules(n, 1, q)

    @pytest.mark.parametrize("field,q", ((F2, 2), (F3, 3)))
    def test_count_matches_submodule_oracle_at_box_2(self, field, q):
        assert len(list(hnf_cosets(2, 2, field))) == count_stable_submodules(2, 2, q)

    @staticmethod
    def assert_same_cosets(n, box, field, lam_filter=None):
        def keep(g):
            return lam_filter is None or lam_filter(tuple(g.rows[i][i].offset for i in range(n)))

        got = [(g.rows, h.rows) for g, h in hnf_cosets(n, box, field) if keep(g)]
        want = {(g.rows, h.rows) for g, h in candidate_cosets(n, box, field, lam_filter)}
        assert len(set(got)) == len(got)
        assert set(got) == want

    @pytest.mark.parametrize("field", (F2, F3, F4, F5, F9))
    @pytest.mark.parametrize("n,box", ((1, 3), (2, 1), (2, 2), (3, 1)))
    def test_matches_candidate_filter(self, n, box, field):
        # the candidate filter builds q^(sum_{i<j} (lam_i + B)) matrices per
        # diagonal lam; diagonals above 1,000 candidates are left out
        def cheap(lams):
            return field.q ** sum(lams[i] + box for i in range(n) for _ in range(i + 1, n)) <= 1000

        self.assert_same_cosets(n, box, field, cheap)

    @pytest.mark.parametrize(
        "n,field,box",
        # the (group, field, box) classes of the oracle-crosscheck benchmark
        ((2, TableField(7), 1), (2, F9, 1), (2, F3, 2), (2, F2, 3), (3, F2, 1), (2, F4, 2), (2, F5, 2), (3, F3, 1)),
    )
    def test_matches_candidate_filter_on_benchmark_shapes(self, n, field, box):
        self.assert_same_cosets(n, box, field)

    def test_builds_only_kept_cosets(self, monkeypatch):
        # every free coefficient choice is drawn once, and every choice of
        # the last cell (0, 2) completes a yielded coset: the draws are those
        # of (0, 1), of (1, 2) under each of them, and one per coset (the
        # calls that build the kept lists of choices are not counted)
        n, B, q = 3, 1, 3
        drawn, depth = [], [0]
        real = oracle._free_parts

        def counting(*args):
            depth[0] += 1
            try:
                parts = real(*args)
            finally:
                depth[0] -= 1
            outer = depth[0] == 0
            for part in parts:
                if outer:
                    drawn.append(None)
                yield part

        monkeypatch.setattr(oracle, "_free_parts", counting)
        cosets = list(hnf_cosets(n, B, F3))
        free = [
            (lams[0] - max(lams[0] + lams[1] - B, -B), lams[1] - max(lams[1] + lams[2] - B, -B))
            for lams in itertools.product(range(-B, B + 1), repeat=n)
        ]
        assert len(cosets) == 445
        assert len(drawn) == sum(q**a + q ** (a + b) for a, b in free) + len(cosets)

    @pytest.mark.parametrize("field,n", ((F2, 2), (F3, 2), (F2, 3)))
    def test_label_refines_divisors(self, field, n):
        # the Iwahori label and the Cartan exponents come from two unrelated
        # reductions, but I sits inside G(O), so they must agree up to sorting
        for ring, g, _, _ in packed_cosets(n, 1, field):
            lam = iwahori_label(ring, g, 1)
            assert dominant((lam,))[0][0] == elementary_divisors(ring, g, 1)

    def test_identity_present(self):
        ids = [
            g
            for g, _ in hnf_cosets(2, 1, F3)
            if all(
                (not g.rows[i][j].coeffs if i != j else g.rows[i][j].offset == 0)
                for i in range(2)
                for j in range(2)
            )
        ]
        assert len(ids) == 1

    def test_distinct_lattices(self):
        # pairwise-distinct cosets: g1^{-1} g2 integral with integral inverse
        # happens only on the diagonal of the pairing
        mats = [g for g, _ in hnf_cosets(2, 1, F2)]
        labels = [packed_label(g) for g in mats]
        seen = set()
        for g, lab in zip(mats, labels):
            key = (lab, tuple(repr(e) for row in g.rows for e in row))
            assert key not in seen
            seen.add(key)

    @pytest.mark.parametrize("n,field", ((2, F2), (2, F3), (3, F2)))
    def test_yielded_adjugate(self, n, field):
        # the yielded h is the inverse, and the adjugate over det g = u^s
        one = mat_identity(field, n)
        for g, h in hnf_cosets(n, 1, field):
            s = sum(g.rows[i][i].offset for i in range(n))
            assert mat_mul(g, h) == one
            assert h.rows == tuple(tuple(e.shift(-s) for e in row) for row in mat_adjugate(g).rows)

    @staticmethod
    def slice_product(n, B, q, s):
        # the candidate product of one slice, from the whole box
        return sum(
            q ** sum(lams[i] + B for i in range(n) for _ in range(i + 1, n))
            for lams in itertools.product(range(-B, B + 1), repeat=n)
            if sum(lams) == s
        )

    def test_guard(self, monkeypatch):
        # the guard passes a slice whose candidate product is exactly the
        # guard and refuses it one below, whatever the other slices hold
        for n, B, q in ((1, 3, 3), (2, 2, 4), (3, 1, 3), (3, 2, 2), (3, 3, 2)):
            for s in range(-n * B, n * B + 1):
                count = self.slice_product(n, B, q, s)
                monkeypatch.setattr(oracle, "MAX_CANDIDATES", count)
                oracle._check_guard(n, B, q, s)
                monkeypatch.setattr(oracle, "MAX_CANDIDATES", count - 1)
                with pytest.raises(PreconditionError, match="candidate cosets exceed the guard"):
                    oracle._check_guard(n, B, q, s)

    def test_guard_of_the_default(self):
        # the middle slice of n = 3 over F_9 at box 3 exceeds the default
        # guard; its lowest slice is a single candidate
        assert self.slice_product(3, 3, 9, 0) > oracle.MAX_CANDIDATES
        with pytest.raises(PreconditionError, match="candidate cosets exceed the guard 2000000"):
            oracle._check_guard(3, 3, 9, 0)
        oracle._check_guard(3, 3, 9, -9)

    @pytest.mark.parametrize("box", (3, 1000, 10**9))
    def test_guard_stops_early(self, monkeypatch, box):
        # a huge box refuses after a few slice diagonals, before any coset
        # is built, and takes no power of q past the guard's bit length
        class Q(int):
            def __pow__(self, e):
                assert e < oracle.MAX_CANDIDATES.bit_length(), e
                return int(self) ** e

        with pytest.raises(PreconditionError, match="candidate cosets exceed the guard"):
            oracle._check_guard(3, box, Q(3), 0)
        steps = []
        real = oracle._slice_diagonals

        def counting(*args):
            for lams in real(*args):
                steps.append(lams)
                yield lams

        monkeypatch.setattr(oracle, "_slice_diagonals", counting)
        monkeypatch.setattr(oracle, "_hnf_cosets", None)
        with pytest.raises(PreconditionError, match="candidate cosets exceed the guard"):
            kisin_points(caruso_datum(3, 1, 3, 1), ((1, 0, 0),), F3, box)
        assert 0 < len(steps) < 100

    @pytest.mark.parametrize("n", (1, 2, 3))
    @pytest.mark.parametrize("B", (0, 1, 2, 3))
    def test_slice_diagonals(self, n, B):
        # every s, including the empty slices just outside [-nB, nB]
        for s in range(-n * B - 1, n * B + 2):
            want = [lams for lams in itertools.product(range(-B, B + 1), repeat=n) if sum(lams) == s]
            assert list(oracle._slice_diagonals(n, B, s)) == want


class TestSurvey:
    @pytest.mark.parametrize("n,p,m,field,box", ((2, 2, 1, F4, 2), (2, 3, 2, F3, 2), (3, 2, 3, F2, 1), (3, 3, 5, F3, 1)))
    def test_twist_matches_general_product(self, n, p, m, field, box):
        # the monomial twist and the triangular product against the full
        # product g^{-1} b sigma(g)
        datum = caruso_datum(n, 1, p, m)
        b = weyl_matrix(field, datum.tau[0], datum.w[0])
        survey = coset_survey(datum, field, box)
        cosets = list(hnf_cosets(n, box, field))
        assert [g for g, _, _, _ in survey] == [g for g, _ in cosets]
        for (g, prod, ed, label), (_, h) in zip(survey, cosets):
            full = mat_mul(mat_mul(h, b), mat_frobenius(g, p))
            assert full == prod
            assert ed == packed_divisors(full)
            assert label == (packed_label(g),)

    def test_singular_product_is_a_theorem_violation(self, monkeypatch, capsys):
        # det(g^{-1} b sigma(g)) is a unit times a power of u; a zero sigma(g)
        # makes the product singular, which must not be skipped
        def zero_frobenius(ring, c, pos, twist):
            return ring.zero

        monkeypatch.setattr(oracle, "_frobenius_term", zero_frobenius)
        with pytest.raises(TheoremViolationError, match="is singular for the coset"):
            kisin_points(caruso_datum(2, 1, 3, 1), ((1, 0),), F3, 1)
        argv = ["oracle-count", "--p", "3", "--n", "2", "--m", "1", "--mu", "[[1, 0]]", "--box", "1"]
        assert main(argv) == 4
        assert "is singular for the coset" in capsys.readouterr().err

    def test_determinant_valuation_is_checked(self, monkeypatch, capsys):
        # sigma(g) shifted by u multiplies det(g^{-1} b sigma(g)) by u^n, which
        # breaks the identity the prune rests on; every built coset checks it
        real = oracle._frobenius_term

        def shifted_frobenius(ring, c, pos, twist):
            return real(ring, c, pos, twist + 1)

        monkeypatch.setattr(oracle, "_frobenius_term", shifted_frobenius)
        with pytest.raises(TheoremViolationError, match="has valuation"):
            kisin_points(caruso_datum(2, 1, 3, 1), ((1, 0),), F3, 1)
        argv = ["oracle-count", "--p", "3", "--n", "2", "--m", "1", "--mu", "[[1, 0]]", "--box", "1"]
        assert main(argv) == 4
        assert "has valuation" in capsys.readouterr().err


@lru_cache(maxsize=None)
def twist_classes(n, p):
    """The simple twists caruso_datum(n, 1, p, m), one per class up to a
    central shift (the least m of each class)."""
    seen = set()
    out = []
    for m in range(1, p**n - 1):
        if not is_caruso_simple(n, p, m):
            continue
        datum = caruso_datum(n, 1, p, m)
        tau = datum.tau[0]
        key = (tuple(x - tau[-1] for x in tau), datum.w[0])
        if key not in seen:
            seen.add(key)
            out.append(datum)
    return tuple(out)


FIELDS = {(p, r): TableField(p, r) for p, r in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1))}


@lru_cache(maxsize=None)
def class_survey(n, p, r, box, m_index):
    return coset_survey(twist_classes(n, p)[m_index], FIELDS[p, r], box)


def packed_products(datum, field, box):
    """(ring, g, product, shift) of every coset of the box, in the order of
    the slices, by the library's packed path as kisin_points forms it."""
    n, p = datum.shape.n, datum.shape.p
    tau, w = datum.tau[0], datum.w[0]
    twist = [tau[w[k]] - min(tau) for k in range(n)]
    terms = [[[(w[k], k) for k in range(j + 1) if w[k] >= i] for j in range(n)] for i in range(n)]
    for ring, g, h, bsg in packed_cosets(n, box, field, twist):
        yield ring, g, oracle._product(ring, h, bsg, terms), (p + 1) * box - min(tau)


def shifted_survey(n, p, r, box, m_index, c):
    """The m_index-th twist class of (n, p) shifted by the central c, and its
    survey: g^{-1} u^c b sigma(g) = u^c g^{-1} b sigma(g), so the cosets and
    labels stay, every product is multiplied by u^c and every divisor moves
    by c (checked against the survey of the shifted datum at box 1)."""
    datum, _ = central_twist(twist_classes(n, p)[m_index], ((0,) * n,), ((c,) * n,))
    survey = [
        (g, mat_from_rows(prod.field, [[e.shift(c) for e in row] for row in prod.rows]), tuple(d + c for d in ed), label)
        for g, prod, ed, label in class_survey(n, p, r, box, m_index)
    ]
    return datum, survey


def last_row_slice(datum, field, box, s):
    """(ring, [(g, the least valuation of the last row of g^{-1} b sigma(g))])
    for every coset g of the slice sum(lam) = s, in the order of the
    library's unpruned generator.  The row is formed by the LSeries oracle
    as row n - 1 of g^{-1}, times b, times sigma(g), with no use of the
    last-row floor; a row of g is unpacked only where that row times b has a
    nonzero entry."""
    n, p = datum.shape.n, datum.shape.p
    b = weyl_matrix(field, datum.tau[0], datum.w[0]).rows
    zero = LSeries.zero(field)
    ring = oracle.Packing(field, oracle._width(n, p, field.r, box))
    out = []
    for g, h, _ in oracle._hnf_cosets(n, box, ring, s, [0] * n, None):
        h_last = [unpack_series(ring, e, box) for e in h[-1]]
        hb = [reduce(LSeries.add, (h_last[k].mul(b[k][j]) for k in range(n)), zero) for j in range(n)]
        row = [zero] * n
        for k, x in enumerate(hb):
            if x.coeffs:
                sg = [unpack_series(ring, e, box).frobenius(p) for e in g[k]]
                row = [acc.add(x.mul(e)) for acc, e in zip(row, sg)]
        out.append(([list(r) for r in g], min(e.offset for e in row if e.coeffs)))
    return ring, out


# (n, p, field degree, box) of the last-row floor's exactness test: n <= 3,
# box <= 2 and q in {2, 3, 4}.  n = 3 at box 2 over F_3 and F_4 holds 476,000
# and 1,640,000 cosets over its twist classes, some minutes in LSeries, so
# there only the slices with |s| >= 3 are run (19,000 and 37,000 cosets)
FLOOR_CASES = tuple(
    (n, p, r, box)
    for n in (1, 2, 3)
    for p, r in ((2, 1), (3, 1), (2, 2))
    for box in (1, 2)
    if twist_classes(n, p)
)


class TestLastRowFloor:
    @pytest.mark.parametrize("n,p,r,box", FLOOR_CASES)
    def test_floor_is_exact(self, n, p, r, box):
        # every twist class and slice, and every least entry m of a dominant
        # mu of that slice, mu = (sum(mu) - (n - 1) m, m, ..., m), from no
        # cut (v* <= -B) to every coset cut (v* > B): the pruned generator
        # yields exactly the slice's cosets whose product has its last row at
        # valuation >= m, in the same order (at n = 1 the last row is the
        # determinant, u^sum(mu) on the slice, so no m <= sum(mu) cuts)
        field = FIELDS[p, r]
        outer = n == 3 and box == 2 and p**r > 2
        kept = cut = 0
        for datum in twist_classes(n, p):
            tau, w = datum.tau[0], datum.w[0]
            for s in range(-n * box, n * box + 1):
                if outer and abs(s) < 3:
                    continue
                ring, whole = last_row_slice(datum, field, box, s)
                top = min((sum(tau) + (p - 1) * s) // n, tau[-1] + (p + 1) * box + 1)
                for m in range(tau[-1] - (p + 1) * box - 1, top + 1):
                    floor = (w.index(n - 1), m - tau[-1])
                    got = [[list(row) for row in g] for g, _, _ in oracle._hnf_cosets(n, box, ring, s, [0] * n, floor)]
                    want = [g for g, v in whole if v >= m]
                    assert got == want, (datum.tau, s, m)
                    kept, cut = kept + len(want), cut + len(whole) - len(want)
        assert kept and (cut or n == 1)


# (n, p, field degree, box, central shifts): n = 2 over F_2, F_4, F_3, F_9,
# F_5 and F_7 at boxes 1 and 2, n = 3 over F_2 and F_3 at box 1.  A shift
# moves sum(tau), so s0 and the residue of the gap; every shift in [-2, 2] is
# run at box 1 and over the small fields, and the three largest box-2 point
# sets (F_5, F_7, F_9, each some seconds per shift) are run unshifted.
SHIFTS = range(-2, 3)
DIFFERENTIAL = tuple(
    (n, p, r, box, SHIFTS if box == 1 or p**r < 5 else (0,))
    for n, p, r, box in (
        (2, 2, 1, 1), (2, 2, 1, 2), (2, 2, 2, 1), (2, 2, 2, 2),
        (2, 3, 1, 1), (2, 3, 1, 2), (2, 3, 2, 1), (2, 3, 2, 2),
        (2, 5, 1, 1), (2, 5, 1, 2), (2, 7, 1, 1), (2, 7, 1, 2),
        (3, 2, 1, 1), (3, 3, 1, 1),
    )
)


class TestDeterminantPrune:
    @pytest.mark.parametrize("n,p,r,box,shifts", DIFFERENTIAL)
    def test_divisor_sum_identity(self, n, p, r, box, shifts):
        # over the whole box: sum(ed) = sum(tau) + (p - 1) s for every coset
        for m_index, datum in enumerate(twist_classes(n, p)):
            for g, _, ed, _ in class_survey(n, p, r, box, m_index):
                s = sum(g.rows[i][i].offset for i in range(n))
                assert sum(ed) == sum(datum.tau[0]) + (p - 1) * s

    @pytest.mark.parametrize("n,p,r,box", sorted({case[:4] for case in DIFFERENTIAL}))
    def test_divisors_match_adjugate_divisors(self, n, p, r, box):
        # each minor built once against the determinant and the adjugate of
        # the cofactor expansion, on the packed product of every coset of the
        # box, which unpacks to the oracle's product
        for datum in twist_classes(n, p):
            oracle_products = survey_products(datum, FIELDS[p, r], box)
            for (ring, _, prod, shift), (_, want) in zip(packed_products(datum, FIELDS[p, r], box), oracle_products, strict=True):
                assert unpack_matrix(ring, prod, shift) == want
                assert elementary_divisors(ring, prod, shift) == adjugate_divisors(want)

    @pytest.mark.parametrize("n,p,r", sorted({case[:3] for case in DIFFERENTIAL}))
    def test_central_shift_of_survey(self, n, p, r):
        # the divisors move linearly in c, so one shift of each sign suffices
        for m_index in range(len(twist_classes(n, p))):
            for c in (-2, 1):
                datum, survey = shifted_survey(n, p, r, 1, m_index, c)
                assert survey == coset_survey(datum, FIELDS[p, r], 1)

    @pytest.mark.parametrize("n,p,r,box,shifts", DIFFERENTIAL)
    def test_matches_survey(self, n, p, r, box, shifts):
        # every twist class and central shift, and every dominant mu of the
        # shifted box, odd gaps included
        field = FIELDS[p, r]
        compared = 0
        for m_index in range(len(twist_classes(n, p))):
            for c in shifts:
                datum, survey = shifted_survey(n, p, r, box, m_index, c)
                for v in dominant_vecs(n, c - box, c + box):
                    mu = (v,)
                    try:
                        got = kisin_points(datum, mu, field, box)
                    except BoxTooSmallError:
                        labels = [s.lam[0] for s in enumerate_strata(datum, mu)]
                        assert any(abs(x) > box for lam in labels for x in lam)
                        continue
                    assert got == survey_points(survey, mu)
                    compared += 1
        assert compared

    @staticmethod
    def counting_generator(monkeypatch):
        built = []
        real = oracle._hnf_cosets

        def counting(n, B, ring, s, twist, floor):
            for coset in real(n, B, ring, s, twist, floor):
                built.append(unpack_matrix(ring, coset[0], B))
                yield coset

        monkeypatch.setattr(oracle, "_hnf_cosets", counting)
        return built

    def test_odd_gap_builds_nothing(self, monkeypatch):
        # sum(mu) - sum(tau) = 1 is not a multiple of p - 1 = 2
        built = self.counting_generator(monkeypatch)
        base = caruso_datum(2, 1, 3, 1)
        assert kisin_points(base, ((1, 1),), F3, 2) == []
        assert kisin_points(base, ((2, -2),), F9, 2) == []
        assert built == []

    @pytest.mark.parametrize(
        "n,p,m,mu,field,box",
        ((2, 3, 1, (1, 0), F3, 2), (2, 3, 1, (1, -2), F3, 2), (2, 2, 1, (2, -2), F4, 2), (3, 3, 1, (1, 0, 0), F3, 1)),
    )
    def test_even_gap_builds_one_diagonal_sum(self, monkeypatch, n, p, m, mu, field, box):
        # the cosets built are the slice s0, less those whose product has an
        # entry of its last row below min(mu), from the LSeries oracle
        base = caruso_datum(n, 1, p, m)
        s0, rem = divmod(sum(mu) - sum(base.tau[0]), p - 1)
        assert rem == 0
        whole = [
            (g, prod) for g, prod in survey_products(base, field, box) if sum(g.rows[i][i].offset for i in range(n)) == s0
        ]
        want = [g for g, prod in whole if all(not e.coeffs or e.offset >= min(mu) for e in prod.rows[-1])]
        assert 0 < len(want) < len(whole)
        built = self.counting_generator(monkeypatch)
        kisin_points(base, (mu,), field, box)
        assert built == want

    def test_odd_gap_keeps_every_check(self, monkeypatch, capsys):
        # the checks run before the parity return: the field characteristic,
        # the box and n <= 3 (an odd gap has no strata, so it never reaches
        # the box check, which still runs first on even gaps); the slice
        # guard runs after it, since an odd gap builds nothing
        base = caruso_datum(2, 1, 3, 1)
        with pytest.raises(ConfigError, match="characteristic"):
            kisin_points(base, ((1, 1),), F2, 1)
        with pytest.raises(BoxTooSmallError):
            kisin_points(base, ((7, 0),), F2, 1)
        gl4 = caruso_datum(4, 1, 3, 1)
        assert (2 - sum(gl4.tau[0])) % 2 == 1
        with pytest.raises(PreconditionError, match="n <= 3"):
            kisin_points(gl4, ((1, 1, 0, 0),), F3, 1)
        gl3 = caruso_datum(3, 1, 3, 1)
        assert enumerate_strata(gl3, ((1, 1, 0),)) == ()
        built = self.counting_generator(monkeypatch)
        assert kisin_points(gl3, ((1, 1, 0),), F3, 3) == []
        argv = ["oracle-count", "--p", "3", "--n", "3", "--m", "1", "--mu", "[[1,1,0]]", "--box", "3"]
        assert main(argv) == 0
        assert capsys.readouterr().err == ""
        assert built == []


# (n, p, field degree, box) of the whole-box differential of the packed path:
# the cases of DIFFERENTIAL, and rank 3 over F_4 at box 1 and over F_2 at box 2
PACKED_CASES = sorted({case[:4] for case in DIFFERENTIAL} | {(3, 2, 2, 1), (3, 2, 1, 2)})


class TestPackedPath:
    @pytest.mark.parametrize("n,p,r,box", PACKED_CASES)
    def test_matches_lseries_oracle(self, n, p, r, box):
        # every slice of the box and every twist class: the same cosets in
        # the same order, and the same products, divisors and labels, as the
        # LSeries oracle of conftest
        field = FIELDS[p, r]
        compared = 0
        for m_index, datum in enumerate(twist_classes(n, p)):
            survey = class_survey(n, p, r, box, m_index)
            for (ring, g, prod, shift), (g0, prod0, ed0, label0) in zip(
                packed_products(datum, field, box), survey, strict=True
            ):
                assert unpack_matrix(ring, g, box) == g0
                assert unpack_matrix(ring, prod, shift) == prod0
                assert elementary_divisors(ring, prod, shift) == ed0
                assert (iwahori_label(ring, g, box),) == label0
                compared += 1
        assert compared


class TestKisinPoints:
    @pytest.mark.parametrize("p,deg", ((1000003, 1), (1009, 2), (101, 2)))
    def test_large_field_exits_at_the_guard(self, capsys, p, deg):
        # the field builds no q x q table, so the slice guard refuses these
        # before any coset is built
        argv = ["oracle-count", "--p", str(p), "--n", "2", "--f", "1", "--m", "1", "--mu", "[[1,0]]"]
        assert main(argv + ["--field-deg", str(deg), "--box", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "candidate cosets exceed the guard" in captured.err

    def test_singleton_mu(self):
        base = caruso_datum(2, 1, 3, 1)
        mu = ((1, 0),)
        for field in (F3, F9):
            pts = kisin_points(base, mu, field, 2)
            assert [lam for _, lam in pts] == [((0, 0),)]

    def test_slice_within_the_guard(self):
        # the whole box (4,465,505 candidates) exceeds the guard, but the
        # slice s0 is cheap; its one point is the single dim-0 stratum
        base = caruso_datum(3, 1, 3, 1)
        mu = ((1, 0, 0),)
        assert TestCosets.slice_product(3, 2, 3, 0) <= oracle.MAX_CANDIDATES
        assert sum(TestCosets.slice_product(3, 2, 3, s) for s in range(-6, 7)) > oracle.MAX_CANDIDATES
        assert [(s.lam, s.dim, s.singleton) for s in enumerate_strata(base, mu)] == [(((0, 0, 0),), 0, "proven")]
        assert [lam for _, lam in kisin_points(base, mu, F3, 2)] == [((0, 0, 0),)]

    def test_empty_mu(self):
        base = caruso_datum(2, 1, 3, 1)
        assert enumerate_strata(base, ((2, 1),)) == ()
        assert kisin_points(base, ((2, 1),), F3, 2) == []

    def test_partition_and_presence(self):
        base = caruso_datum(2, 1, 2, 1)
        for mu in (((1, 0),), ((2, -1),), ((1, 1),)):
            S = {s.lam for s in enumerate_strata(base, mu)}
            pts = kisin_points(base, mu, F2, 2)
            labels = [lam for _, lam in pts]
            assert set(labels) <= S
            assert S <= set(labels)

    def test_point_counts_grow_only_without_certificate(self):
        # mu = (2, -2) splits into a proven singleton and an uncertified
        # stratum; the latter is a line, so its point count tracks the field
        base = caruso_datum(2, 1, 2, 1)
        mu = ((2, -2),)
        S = enumerate_strata(base, mu)
        assert {s.singleton for s in S} == {"proven", "unknown"}
        c2 = {}
        c4 = {}
        for field, store in ((F2, c2), (F4, c4)):
            for _, lam in kisin_points(base, mu, field, 2):
                store[lam] = store.get(lam, 0) + 1
        for s in S:
            if s.singleton == "proven":
                assert c2.get(s.lam) == 1 and c4.get(s.lam) == 1
            else:
                assert c4[s.lam] > c2[s.lam] >= 1

    def test_box_too_small(self):
        base = caruso_datum(2, 1, 3, 1)
        with pytest.raises(BoxTooSmallError):
            kisin_points(base, ((7, 0),), F3, 1)

    def test_refuses_f_other_than_1(self):
        # the CLI refuses --f 2 itself, so the library's refusal is met only here
        with pytest.raises(PreconditionError, match="only supports f = 1"):
            kisin_points(caruso_datum(2, 2, 3, 1), ((1, 0), (1, 0)), F3, 3)

    def test_refuses_a_datum_outside_the_alcove(self, monkeypatch, capsys):
        # the CLI reduces or refuses such a datum itself, so the refusal from
        # kisin_points (the enumeration's, before any coset) is met only here
        datum = make_datum(GroupShape.res_field(2, 1, 3), ExtAffine(((0, 0),), ((1, 0),)))
        assert not datum.alcove_ok
        built = TestDeterminantPrune.counting_generator(monkeypatch)
        with pytest.raises(PreconditionError, match="^datum's fixed point is not in the alcove$"):
            kisin_points(datum, ((1, -1),), F3, 1)
        monkeypatch.setattr(cli, "resolve_datum", lambda args: (datum, None))
        argv = ["oracle-count", "--p", "3", "--n", "2", "--m", "1", "--mu", "[[1,-1]]", "--box", "1"]
        assert main(argv) == 3
        assert capsys.readouterr().err == "precondition violated: datum's fixed point is not in the alcove\n"
        assert built == []

    @pytest.mark.parametrize("p,field_deg", ((2, 1), (2, 2), (3, 1)))
    def test_gl3_cross_check(self, p, field_deg):
        # rank-3 exercise of the full pipeline on a small box
        base = caruso_datum(3, 1, p, 1)
        field = GF(p, field_deg)
        for mu in (((1, 1, -1),), ((2, 1, -2),), ((1, 0, 0),)):
            S = enumerate_strata(base, mu)
            if any(abs(x) > 1 for s in S for x in s.lam[0]):
                continue
            labels = {s.lam for s in S}
            got = [lam for _, lam in kisin_points(base, mu, field, 1)]
            assert set(got) <= labels and labels <= set(got), (p, field_deg, mu)
            for s in S:
                if s.singleton == "proven":
                    assert got.count(s.lam) == 1

    def test_central_twist_preserves_points(self):
        # a central scalar twist shifts every divisor bound uniformly, so the
        # point set and its labels are untouched
        from kisin.strata import central_twist

        base = caruso_datum(2, 1, 2, 1)
        mu = ((2, -2),)
        datum2, mu2 = central_twist(base, mu, ((1, 1),))
        before = kisin_points(base, mu, F2, 2)
        after = kisin_points(datum2, mu2, F2, 2)
        assert before == after
