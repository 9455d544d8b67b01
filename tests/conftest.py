"""Shared test helpers: independent oracles kept deliberately separate from the
library's own algorithms."""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import itertools
import math
import os
import random
import re

import pytest

from kisin.connectivity import _GL3_COROOTS, StrataGraph, _UnionFind, _edge_ok, _is_gl3_label
from kisin.core import (
    ExtAffine,
    GroupShape,
    _dominated,
    act_perm,
    all_roots,
    cochar_add,
    cochar_sub,
    is_central,
    is_dominant,
    is_minuscule,
    identity_perm,
    perm_inv,
    perm_mul,
    twist_block,
)
from kisin.errors import (
    ConfigError,
    NotInGeneralPositionError,
    NotSimpleError,
    PreconditionError,
    SingularMatrixError,
    TheoremViolationError,
)
from kisin.multicopy import _check_omega_pattern, _witness, varsigma
from kisin.normal_form import _solve_block0, _solve_plan, caruso_datum, is_caruso_simple, make_datum, solve_affine_scaled
from kisin import oracle
from kisin.oracle import GF
from kisin.strata import (
    DEFAULT_ENUM_CAP,
    Stratum,
    _candidate_box,
    _cap_error,
    _enum_cap,
    _is_label,
    _require_mu,
    _twist,
    candidate_blocks,
    clear_caches,
    enumerate_strata,
    natural_lambda,
)


@pytest.fixture(autouse=True)
def fresh_caches():
    """Each test starts with every cache of the library empty
    (``strata.clear_caches``): no datum state, move or step table, chain
    context or candidate table, so that a spy or a fault it
    patches into the enumeration, the edge test or the chain's induction is
    reached, not skipped by an entry that an earlier test left, and no test
    depends on the order of the others."""
    clear_caches()


# ---------------------------------------------------------------------------
# the extended affine Weyl group law, the reference for core.twist_block and
# for the alcove transport of normal_form


def act_weyl(w, v):
    """Blockwise place permutation: (w.v)[k][i] = v[k][w_k^{-1}(i)]."""
    if len(w) != len(v):
        raise ConfigError("act_weyl: block count mismatch")
    return tuple(act_perm(wk, bk) for wk, bk in zip(w, v))


def sigma_blocks(eps, v):
    """result[k] = eps[k] * v[k+1], cyclic in the block index."""
    nblocks = len(v)
    if len(eps) != nblocks:
        raise ConfigError("sigma: eps length mismatch")
    return tuple(tuple(eps[k] * x for x in v[(k + 1) % nblocks]) for k in range(nblocks))


def act_sigma(shape, v):
    shape.check_cochar(v)
    return sigma_blocks(shape.eps, v)


def sigma0_weyl(shape, w):
    """Block shift of a Weyl element (the unscaled part of sigma)."""
    shape.check_weyl(w)
    return tuple(w[(k + 1) % shape.blocks] for k in range(shape.blocks))


def cochar_neg(a):
    return tuple(tuple(-x for x in b) for b in a)


def cochar_scale(k, a):
    return tuple(tuple(k * x for x in b) for b in a)


def ext_act(a, v):
    """Affine action of a = u^chi y on Y_R: v -> chi + y(v)."""
    return cochar_add(a.chi, act_weyl(a.w, v))


def ext_identity(shape):
    return ExtAffine(shape.zero_cochar(), shape.identity_weyl())


def ext_mul(a, b):
    """(u^a x)(u^b y) = u^{a + x(b)} xy."""
    if len(a.chi) != len(b.chi):
        raise ConfigError("ext_mul: shape mismatch")
    return ExtAffine(cochar_add(a.chi, act_weyl(a.w, b.chi)), tuple(perm_mul(x, y) for x, y in zip(a.w, b.w)))


def ext_inv(a):
    winv = tuple(perm_inv(x) for x in a.w)
    return ExtAffine(cochar_neg(act_weyl(winv, a.chi)), winv)


def ext_sigma(shape, a):
    """sigma(u^chi y) = u^{sigma(chi)} sigma_0(y)."""
    return ExtAffine(act_sigma(shape, a.chi), sigma0_weyl(shape, a.w))


def ext_sigma_conj(shape, z, wt):
    """z^{-1} wt sigma(z); transports a Frobenius datum along z."""
    return ext_mul(ext_mul(ext_inv(z), wt), ext_sigma(shape, z))


# ---------------------------------------------------------------------------
# dominance and roots


def dominant(v):
    """Sort each block non-increasingly; also return a Weyl witness.

    Returns (dom, w) with act_weyl(w, v) == dom.  With dominance_leq, the
    checked oracle of the library's unchecked kernel core._dominated.
    """
    dom_blocks = []
    perms = []
    for b in v:
        order = sorted(range(len(b)), key=lambda i: (-b[i], i))
        dom_blocks.append(tuple(b[i] for i in order))
        perm = [0] * len(b)
        for t, i in enumerate(order):
            perm[i] = t
        perms.append(tuple(perm))
    return tuple(dom_blocks), tuple(perms)


def dominance_leq(nu, mu):
    """Blockwise dominance order on dominant cochars: equal block sums and
    partial sums of nu bounded by those of mu.

    For products of GL_n this is the Bruhat order on dominant cocharacters.
    """
    if not is_dominant(nu) or not is_dominant(mu):
        raise ConfigError("dominance_leq requires dominant inputs")
    if len(nu) != len(mu) or any(len(a) != len(b) for a, b in zip(nu, mu)):
        raise ConfigError("dominance_leq: shape mismatch")
    for bn, bm in zip(nu, mu):
        if sum(bn) != sum(bm):
            return False
        acc_n = acc_m = 0
        for x, y in zip(bn[:-1], bm[:-1]):
            acc_n += x
            acc_m += y
            if acc_n > acc_m:
                return False
    return True


def dominant_vecs(n, lo, hi):
    """All non-increasing integer n-tuples with entries in [lo, hi]."""
    out = []

    def rec(pos, prev, cur):
        if pos == n:
            out.append(tuple(cur))
            return
        for v in range(min(prev, hi), lo - 1, -1):
            cur.append(v)
            rec(pos + 1, v, cur)
            cur.pop()

    rec(0, hi, [])
    return out


def root_pair(alpha, v):
    """<alpha, v> = v[block][i] - v[block][j]."""
    return v[alpha.block][alpha.i] - v[alpha.block][alpha.j]


def lambda_alpha(lam, alpha):
    """<lam, alpha> for negative alpha, <lam, alpha> - 1 for positive alpha."""
    pairing = root_pair(alpha, lam)
    return pairing - 1 if alpha.positive else pairing


def gcd_power_fact(q, a, b):
    """gcd(q^a - 1, q^b - 1), asserted equal to q^gcd(a,b) - 1."""
    g = math.gcd(q**a - 1, q**b - 1)
    if g != q ** math.gcd(a, b) - 1:
        raise TheoremViolationError("gcd of q-power minus ones violated the closed form")
    return g


def perm_order(a):
    """The order of a permutation, by composing it with itself."""
    k, b = 1, a
    while b != identity_perm(len(a)):
        b = perm_mul(a, b)
        k += 1
    return k


def walk_plan_by_position_map(shape, w):
    """Walk-plan oracle: the cycles of the position map (k, j) -> (k+1,
    w_k^-1(j)), each started at its first unseen position in (block, index)
    order and followed through the map."""
    n, blocks = shape.n, shape.blocks
    winv = []
    for wk in w:
        inv = [0] * n
        for i, x in enumerate(wk):
            inv[x] = i
        winv.append(inv)
    seen = set()
    cycles = []
    for start in itertools.product(range(blocks), range(n)):
        cyc = []
        pos = start
        while pos not in seen:
            seen.add(pos)
            cyc.append(pos)
            k, j = pos
            pos = ((k + 1) % blocks, winv[k][j])
        if cyc:
            cycles.append(tuple(cyc))
    return tuple(cycles)


def contracting_datum(tau, w, eps):
    """The datum u^tau w on a shape with any eps pattern >= 2.  GroupShape
    admits eps in {1, p} only, but the walk's bound holds for every eps >= 2,
    so the shape is built past that validation; the label set is defined by
    its inequality for any (tau, w), so the alcove flag is set."""
    shape = tuple.__new__(GroupShape, (len(tau[0]), len(eps), tuple(eps), 2))
    return make_datum(shape, ExtAffine(tau, w))._replace(alcove_ok=True)


def gauss_solve_fixed_point(shape, w, tau):
    """Independent fixed-point oracle: dense Gaussian elimination over Fractions
    on the full (n*N) x (n*N) system (1 - w sigma) x = tau."""
    n, N = shape.n, shape.blocks
    dim = n * N

    def idx(k, i):
        return k * n + i

    m = [[Fraction(0)] * dim for _ in range(dim)]
    rhs = [Fraction(0)] * dim
    for k in range(N):
        winv = [0] * n
        for i, x in enumerate(w[k]):
            winv[x] = i
        for i in range(n):
            r = idx(k, i)
            m[r][r] += 1
            m[r][idx((k + 1) % N, winv[i])] -= shape.eps[k]
            rhs[r] = Fraction(tau[k][i])
    for col in range(dim):
        piv = next(r for r in range(col, dim) if m[r][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        rhs[col], rhs[piv] = rhs[piv], rhs[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        rhs[col] *= inv
        for r in range(dim):
            if r != col and m[r][col] != 0:
                c = m[r][col]
                m[r] = [a - c * b for a, b in zip(m[r], m[col])]
                rhs[r] -= c * rhs[col]
    return tuple(tuple(rhs[idx(k, i)] for i in range(n)) for k in range(N))


def solve_block0_by_cycle_walk(shape, w, rhs):
    """Solver oracle: x[0] of x = rhs + w(sigma(x)) as the library computed it
    before it read one row per position from its solve plan.  Returns the
    integer numerators and the per-position denominators 1 - q^|c|: b sums
    the blocks moved to block 0, E_k P_k(rhs[k]), and each cycle of W is
    walked from every one of its positions, summing q^t b along it."""
    plan = _solve_plan(shape, w)
    prefix_eps, prefix_perm, q, cycles = plan.prefix_eps, plan.prefix_perm, plan.q, plan.cycles
    n = shape.n
    b = [0] * n
    for k in range(shape.blocks):
        moved = act_perm(prefix_perm[k], rhs[k])
        scale = prefix_eps[k]
        for i in range(n):
            b[i] += scale * moved[i]
    nums = [0] * n
    dens = [1] * n
    for cyc in cycles:
        length = len(cyc)
        den = 1 - q ** length
        for t0, i in enumerate(cyc):
            # walking backwards from i along the cycle is walking cyc forwards
            acc = 0
            power = 1
            for t in range(length):
                acc += power * b[cyc[(t0 + t) % length]]
                power *= q
            nums[i] = acc
            dens[i] = den
    return nums, dens


def solve_affine_integral(shape, w, rhs):
    """Solver oracle: the integral solution of x = rhs + w(sigma(x)), or None
    if none exists, as the library solved one right side before the join
    and the walk shared ``strata._solve_label``.  Block 0 is the plan's
    numerators divmod its denominators; the other blocks follow from
    x_k = rhs_k + eps_k w_k(x_{k+1}), k from N - 1 down to 1, by the place
    action ``act_perm`` rather than ``core.twist_block``."""
    plan = _solve_plan(shape, w)
    x0 = []
    for nu, de in zip(_solve_block0(plan, [x for b in rhs for x in b]), plan.dens):
        quot, rem = divmod(nu, de)
        if rem:
            return None
        x0.append(quot)
    nblocks = shape.blocks
    out = [tuple(x0)] * nblocks
    for k in range(nblocks - 1, 0, -1):
        moved = act_perm(w[k], out[(k + 1) % nblocks])
        out[k] = tuple(r + shape.eps[k] * x for r, x in zip(rhs[k], moved))
    return tuple(out)


# ---------------------------------------------------------------------------
# fixed points over the rationals: the datum, the alcove reduction and the
# multi-copy certificate as the library computed them before it solved and
# checked fixed points in integers over one denominator


def fixed_point_by_fractions(shape, wt):
    """The fixed point of wt*sigma as Fractions E / D of the integer solver."""
    shape.check_cochar(wt.chi)
    shape.check_weyl(wt.w)
    num, den = solve_affine_scaled(shape, wt.w, wt.chi)
    return tuple(tuple(Fraction(x, den) for x in b) for b in num)


def descent_stats(v):
    """(delta, h) with delta = <v> - n*min[v] and h = sum of floor(v_i - min[v])."""
    lo = min(v)
    delta = sum(v) - len(v) * lo
    h = sum(math.floor(x - lo) for x in v)
    return delta, h


@dataclass(frozen=True)
class FractionDatum:
    """A Frobenius datum whose fixed point e has Fraction entries."""

    shape: object
    wt: ExtAffine
    e: tuple
    alcove_ok: bool


def in_alcove_by_fractions(e):
    """Per block: strictly decreasing with spread strictly less than 1."""
    for b in e:
        if any(b[i] <= b[i + 1] for i in range(len(b) - 1)):
            return False
        if b[0] - b[-1] >= 1:
            return False
    return True


def in_general_position_by_fractions(e):
    """No integral entry, no integral pairwise difference within a block."""
    for b in e:
        if any(x == int(x) for x in b):
            return False
        for i in range(len(b)):
            for j in range(i + 1, len(b)):
                if b[i] - b[j] == int(b[i] - b[j]):
                    return False
    return True


def make_datum_by_fractions(shape, wt):
    """Datum oracle: the rational fixed point, its defining identity checked
    over the rationals, and the alcove test on its entries."""
    e = fixed_point_by_fractions(shape, wt)
    if e != cochar_add(wt.chi, act_weyl(wt.w, act_sigma(shape, e))):
        raise TheoremViolationError("fixed point fails its defining identity")
    return FractionDatum(shape, wt, e, in_alcove_by_fractions(e))


def alcove_reduce_by_fractions(datum):
    """Alcove-reduction oracle on a FractionDatum: floors and fractional parts
    of the rational entries, and the transported point compared as
    Fractions."""
    shape = datum.shape
    if in_alcove_by_fractions(datum.e):
        return ext_identity(shape), datum
    if not in_general_position_by_fractions(datum.e):
        raise NotInGeneralPositionError("fixed point not in general position")
    chi_blocks = []
    perms = []
    for b in datum.e:
        floors = tuple(math.floor(x) for x in b)
        frac = [x - fl for x, fl in zip(b, floors)]
        order = sorted(range(len(b)), key=lambda i: -frac[i])
        chi_blocks.append(floors)
        perms.append(tuple(order))
    z = ExtAffine(tuple(chi_blocks), tuple(perms))
    e2 = ext_act(ext_inv(z), datum.e)
    if not in_alcove_by_fractions(e2):
        raise TheoremViolationError("alcove reduction produced a point outside the alcove")
    wt2 = ext_sigma_conj(shape, z, datum.wt)
    if fixed_point_by_fractions(shape, wt2) != e2:
        raise TheoremViolationError("transported fixed point mismatch")
    return z, FractionDatum(shape, wt2, e2, True)


def recursion_check_by_fractions(multi, mu_bullet, lam_bullet):
    """Certificate oracle: the block recursion and the h = 0 witness on
    hat = lam - e built from Fractions."""
    ms = _check_omega_pattern(mu_bullet)
    lifted = multi.lifted
    shape = lifted.shape
    shape.check_cochar(lam_bullet)
    hat = tuple(tuple(Fraction(x) - e for x, e in zip(lb, eb)) for lb, eb in zip(lam_bullet, lifted.e))
    big = shape.blocks
    for k in range(big):
        rhs = act_perm(lifted.w[k], hat[(k + 1) % big])
        rhs = tuple(shape.eps[k] * x for x in rhs)
        expected = varsigma(rhs, 1) if ms[k] == 1 else rhs
        if hat[k] != expected:
            return False, k
    if not any(descent_stats(b)[1] == 0 for b in hat):
        return False, None
    return True, None


@lru_cache(maxsize=None)
def reachable_by_simple_coroots(src, dst):
    """Independent dominance oracle: breadth-first search from src to dst by
    subtracting simple coroots e_i - e_{i+1}.  Every move preserves the total
    and lowers exactly one prefix sum by 1, so states with any prefix sum
    already below dst's cannot reach it and are pruned."""
    if sum(src) != sum(dst):
        return False
    n = len(src)
    dst_pref = tuple(itertools.accumulate(dst))
    seen = {src}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            if v == dst:
                return True
            acc = 0
            for i in range(n - 1):
                acc += v[i]
                if acc - 1 < dst_pref[i]:
                    continue
                w = list(v)
                w[i] -= 1
                w[i + 1] += 1
                w = tuple(w)
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return False


# ---------------------------------------------------------------------------
# The point oracle's arithmetic before it packed polynomials into integers:
# table-driven finite fields, Laurent polynomials as coefficient tuples, and
# the coset generator, divisors and elimination built on them.  Kept as the
# differential oracle of kisin.oracle.


def irreducible_quadratic_by_search(p):
    """The first (B, C), B = 0, 1, ... and then C = 1, 2, ..., with x^2 + Bx + C
    without a root mod p, by trying every x: O(p) per candidate."""
    for B in range(p):
        for C in range(1, p):
            if all((x * x + B * x + C) % p for x in range(p)):
                return B, C
    raise ConfigError("no irreducible quadratic found")


class _OnDemand:
    """table[a] = op(a), computed when read: the table interface of a field
    too large to tabulate."""

    def __init__(self, op):
        self.op = op

    def __getitem__(self, a):
        return self.op(a)


class TableField(GF):
    """F_{p^r} with precomputed q x q add and mul tables (index a + p*b <->
    a + b*t), t a root of irreducible_quadratic_by_search(p); fields with
    q > 4096 compute each entry on demand instead."""

    def __init__(self, p, r=1):
        super().__init__(p, r)
        q = self.q
        if r == 1:
            add, mul = (lambda a, b: (a + b) % p), (lambda a, b: (a * b) % p)
        else:
            B, C = irreducible_quadratic_by_search(p)

            def add(x, y):
                return ((x % p + y % p) % p) + p * ((x // p + y // p) % p)

            def mul(x, y):
                a1, b1, a2, b2 = x % p, x // p, y % p, y // p
                return (a1 * a2 - C * b1 * b2) % p + p * ((a1 * b2 + a2 * b1 - B * b1 * b2) % p)

        if q > 4096:
            self._add = _OnDemand(lambda a: _OnDemand(lambda b: add(a, b)))
            self._mul = _OnDemand(lambda a: _OnDemand(lambda b: mul(a, b)))
            self._neg = _OnDemand(lambda x: (-(x % p)) % p + p * ((-(x // p)) % p))
        else:
            self._add = tuple(tuple(add(a, b) for b in range(q)) for a in range(q))
            self._mul = tuple(tuple(mul(a, b) for b in range(q)) for a in range(q))
            self._neg = tuple(next(y for y in range(q) if self._add[x][y] == 0) for x in range(q))
        self.zero, self.one = 0, 1

    def add(self, a, b):
        return self._add[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def elements(self):
        return range(self.q)


class LSeries:
    """The exact Laurent polynomial sum coeffs[t] u^(offset+t) over a TableField."""

    __slots__ = ("field", "offset", "coeffs")

    def __init__(self, field, offset, coeffs):
        # normalize: strip zero margins
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        drop = 0
        while drop < len(coeffs) and coeffs[drop] == 0:
            drop += 1
        coeffs = coeffs[drop:]
        offset += drop
        self.field = field
        self.offset = offset if coeffs else 0
        self.coeffs = tuple(coeffs)

    @classmethod
    def _stripped(cls, field, offset, coeffs):
        """The series of coeffs, whose end entries are known to be nonzero
        (or which is empty); skips the normalization."""
        s = object.__new__(cls)
        s.field, s.offset, s.coeffs = field, offset, coeffs
        return s

    @classmethod
    def zero(cls, field):
        return cls(field, 0, ())

    @classmethod
    def monomial(cls, field, exp, coeff=1):
        return cls(field, exp, (coeff,))

    def add(self, other):
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        f = self.field
        lo = min(self.offset, other.offset)
        hi = max(self.offset + len(self.coeffs), other.offset + len(other.coeffs))
        out = [0] * (hi - lo)
        for t, c in enumerate(self.coeffs):
            out[self.offset - lo + t] = c
        for t, c in enumerate(other.coeffs):
            i = other.offset - lo + t
            out[i] = f.add(out[i], c)
        return LSeries(f, lo, out)

    def neg(self):
        neg = self.field._neg
        return LSeries._stripped(self.field, self.offset, tuple([neg[c] for c in self.coeffs]))

    def sub(self, other):
        return self.add(other.neg())

    def mul(self, other):
        f = self.field
        if not self.coeffs or not other.coeffs:
            return LSeries.zero(f)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        mul, add = f._mul, f._add
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            row = mul[a]
            for j, b in enumerate(other.coeffs, i):
                if b:
                    out[j] = add[out[j]][row[b]]
        # a field has no zero divisors, so the end coefficients stay nonzero
        return LSeries._stripped(f, self.offset + other.offset, tuple(out))

    def shift(self, k):
        if not self.coeffs:
            return self
        return LSeries._stripped(self.field, self.offset + k, self.coeffs)

    def frobenius(self, p):
        """u -> u^p with coefficients fixed."""
        if not self.coeffs:
            return self
        out = [0] * (p * (len(self.coeffs) - 1) + 1)
        for t, c in enumerate(self.coeffs):
            out[p * t] = c
        return LSeries(self.field, p * self.offset, out)

    def __eq__(self, other):
        return (
            isinstance(other, LSeries)
            and self.field is other.field
            and self.offset == other.offset
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.offset, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for t, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = self.offset + t
            cs = self.field.elem_str(c)
            if e == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append(f"u^{e}" if e != 1 else "u")
            else:
                parts.append(f"({cs})*u^{e}" if e != 1 else f"({cs})*u")
        return " + ".join(parts)


@dataclass(frozen=True, slots=True)
class TruncMat:
    """Square matrix of Laurent polynomials."""

    field: TableField
    n: int
    rows: tuple  # tuple of tuple of LSeries


def mat_from_rows(field, rows):
    rows = tuple(tuple(r) for r in rows)
    return TruncMat(field, len(rows), rows)


def mat_frobenius(a, p):
    return mat_from_rows(a.field, [[e.frobenius(p) for e in row] for row in a.rows])


def lseries_divisors(m):
    """Elementary divisors of an LSeries matrix from its determinantal
    divisors, every minor built once by first-row expansion: the library's
    algorithm before packing."""
    n, rows = m.n, m.rows
    zero = LSeries.zero(m.field)
    minors = {(i,): {(j,): e for j, e in enumerate(row)} for i, row in enumerate(rows)}
    d = [0]
    for k in range(1, n + 1):
        if k > 1:
            below = minors
            minors = {}
            for rs in itertools.combinations(range(n), k):
                top, sub = rows[rs[0]], below[rs[1:]]
                level = minors[rs] = {}
                for cs in itertools.combinations(range(n), k):
                    acc = zero
                    for t, c in enumerate(cs):
                        term = top[c].mul(sub[cs[:t] + cs[t + 1 :]])
                        acc = acc.sub(term) if t % 2 else acc.add(term)
                    level[cs] = acc
        vals = [e.offset for level in minors.values() for e in level.values() if e.coeffs]
        if not vals:
            raise SingularMatrixError("matrix is singular")
        d.append(min(vals))
    return tuple(sorted((b - a for a, b in zip(d, d[1:])), reverse=True))


def lseries_eliminate(m):
    """(pivot row, valuation) of each step of the reduction of an LSeries
    matrix to a monomial matrix, clearing the pivot column by row operations
    and then the pivot row by column operations, both cross-multiplied."""
    n = m.n
    work = [list(row) for row in m.rows]
    alive_rows, alive_cols = list(range(n)), list(range(n))
    steps = []
    while alive_rows:
        best = None
        for i in alive_rows:
            for j in alive_cols:
                e = work[i][j]
                if e.coeffs and (best is None or e.offset < best[2]):
                    best = (i, j, e.offset)
        if best is None:
            raise SingularMatrixError("matrix is singular")
        ip, jp, v = best
        steps.append((ip, v))
        unit = work[ip][jp].shift(-v)
        for i in alive_rows:
            q = work[i][jp].shift(-v)
            if i == ip or not q.coeffs:
                continue
            if i < ip and q.offset < 1:
                raise PreconditionError("pivot selection violated the Iwahori row order")
            for j in alive_cols:
                work[i][j] = unit.mul(work[i][j]).sub(q.mul(work[ip][j]))
        for j in alive_cols:
            q = work[ip][j].shift(-v)
            if j == jp or not q.coeffs:
                continue
            for i in alive_rows:
                work[i][j] = unit.mul(work[i][j]).sub(q.mul(work[i][jp]))
        alive_rows.remove(ip)
        alive_cols.remove(jp)
    return steps


def lseries_label(g):
    """The Iwahori label of an LSeries matrix by lseries_eliminate."""
    lam = [None] * g.n
    for i, v in lseries_eliminate(g):
        lam[i] = v
    return tuple(lam)


def lseries_hnf_cosets(n, B, field, s):
    """The cosets of the slice sum(lam) = s as (g, g^{-1}) LSeries matrices,
    by the library's algorithm before packing."""
    zero = LSeries.zero(field)
    cells = [(i, j) for j in range(n) for i in reversed(range(j))]
    for lams in oracle._slice_diagonals(n, B, s):
        g = [[zero] * n for _ in range(n)]
        h = [[zero] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = LSeries.monomial(field, lams[i])
            h[i][i] = LSeries.monomial(field, -lams[i])
        for _ in _lseries_fill_cells(field, B, lams, g, h, cells):
            yield mat_from_rows(field, g), mat_from_rows(field, h)


def _lseries_fill_cells(field, B, lams, g, h, cells):
    if not cells:
        yield
        return
    (i, j), rest = cells[0], cells[1:]
    c = LSeries.zero(field)
    for k in range(i + 1, j):
        c = c.add(g[i][k].mul(h[k][j]))
    c = c.shift(lams[j]).neg()
    low = lams[i] + lams[j] - B
    if c.coeffs and c.offset < min(low, -B):
        return
    forced = [c.coeffs[e - c.offset] if 0 <= e - c.offset < len(c.coeffs) else 0 for e in range(-B, low)]
    shift = -lams[i] - lams[j]
    for coeffs in itertools.product(field.elements(), repeat=lams[i] - max(low, -B)):
        g[i][j] = LSeries(field, -B, forced + list(coeffs))
        h[i][j] = c.sub(g[i][j]).shift(shift)
        yield from _lseries_fill_cells(field, B, lams, g, h, rest)


# conversions between LSeries and the library's packed integers


def pack_series(ring, s, shift):
    """The packed s u^shift; every exponent of s must be >= -shift."""
    x = ring.zero
    for t, c in enumerate(s.coeffs):
        if c:
            x = ring.add(x, ring.term(c, s.offset + t + shift))
    return x


def unpack_series(ring, x, shift):
    """The LSeries x / u^shift over the ring's field (a TableField)."""
    comps = [x] if ring.field.r == 1 else list(x)
    top = max(c.bit_length() for c in comps) // ring.width + 1
    return LSeries(ring.field, -shift, [ring.coeff(x, t) for t in range(top)])


def unpack_matrix(ring, rows, shift):
    return mat_from_rows(ring.field, [[unpack_series(ring, e, shift) for e in row] for row in rows])


def packing_width(m):
    """W for an LSeries matrix with canonical coefficients: one spare bit over
    the library's minor and elimination bounds."""
    p, r = m.field.p, m.field.r
    support = max([len(e.coeffs) for row in m.rows for e in row] + [1])
    bound = max(oracle._matrix_bounds(m.n, p, r, p - 1, support))
    return bound.bit_length() + 1


def pack_matrix(m, width=None):
    """(ring, rows, shift) of an LSeries matrix for the library's packed
    elementary_divisors and iwahori_label."""
    ring = oracle.Packing(m.field, width or packing_width(m))
    shift = max([-e.offset for row in m.rows for e in row if e.coeffs] + [0])
    return ring, [[pack_series(ring, e, shift) for e in row] for row in m.rows], shift


def packed_divisors(m):
    """The library's elementary_divisors of an LSeries matrix."""
    return oracle.elementary_divisors(*pack_matrix(m))


def packed_label(m):
    """The library's iwahori_label of an LSeries matrix."""
    return oracle.iwahori_label(*pack_matrix(m))


def _cofactor_det(field, rows, cols):
    """The minor on rows and cols by recursive first-row expansion."""
    if len(rows) == 1:
        return rows[0][cols[0]]
    acc = LSeries.zero(field)
    for t, c in enumerate(cols):
        term = rows[0][c].mul(_cofactor_det(field, rows[1:], cols[:t] + cols[t + 1 :]))
        acc = acc.add(term.neg() if t % 2 else term)
    return acc


def minor_divisors(mat):
    """Independent elementary-divisor oracle via determinantal divisors:
    d_1 + ... + d_k equals the minimal valuation over all k x k minors."""
    n = mat.n
    idx = tuple(range(n))
    prev = 0
    divisors = []
    for k in range(1, n + 1):
        best = None
        for rows in itertools.combinations(mat.rows, k):
            for cols in itertools.combinations(idx, k):
                d = _cofactor_det(mat.field, rows, cols)
                if d.coeffs and (best is None or d.offset < best):
                    best = d.offset
        assert best is not None, "singular matrix in minor oracle"
        divisors.append(best - prev)
        prev = best
    return tuple(sorted(divisors, reverse=True))


def series_from_terms(field, terms):
    """The Laurent polynomial sum of terms[e] u^e."""
    if not terms:
        return LSeries.zero(field)
    lo = min(terms)
    return LSeries(field, lo, [terms.get(e, 0) for e in range(lo, max(terms) + 1)])


def mat_diag_u(field, exps):
    """The diagonal matrix with entries u^exps[i]."""
    zero = LSeries.zero(field)
    n = len(exps)
    return mat_from_rows(
        field,
        [[LSeries.monomial(field, exps[i]) if i == j else zero for j in range(n)] for i in range(n)],
    )


def mat_identity(field, n):
    one, zero = LSeries.monomial(field, 0), LSeries.zero(field)
    return mat_from_rows(field, [[one if i == j else zero for j in range(n)] for i in range(n)])


def mat_det(a):
    return _cofactor_det(a.field, a.rows, tuple(range(a.n)))


def mat_adjugate(a):
    """Classical adjugate: adj(a)[i][j] = (-1)^{i+j} minor(a; j, i)."""
    n = a.n
    if n == 1:
        return mat_identity(a.field, 1)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            keep_rows = tuple(a.rows[r] for r in range(n) if r != j)
            minor = _cofactor_det(a.field, keep_rows, tuple(c for c in range(n) if c != i))
            row.append(minor.neg() if (i + j) % 2 else minor)
        rows.append(row)
    return mat_from_rows(a.field, rows)


def adjugate_divisors(m):
    """The elementary divisors as the library computed them before it built
    each minor once: the determinant, the adjugate's entries for the minors
    of size n - 1, and every smaller minor by recursive expansion."""
    det = mat_det(m)
    if not det.coeffs:
        raise SingularMatrixError("matrix is singular")
    n = m.n
    d = [0]
    for k in range(1, n - 1):
        minors = (
            _cofactor_det(m.field, rows, cols)
            for rows in itertools.combinations(m.rows, k)
            for cols in itertools.combinations(range(n), k)
        )
        d.append(min(e.offset for e in minors if e.coeffs))
    if n > 1:
        d.append(min(e.offset for row in mat_adjugate(m).rows for e in row if e.coeffs))
    d.append(det.offset)
    return tuple(sorted((b - a for a, b in zip(d, d[1:])), reverse=True))


def count_stable_submodules(n, B, q):
    """Independent lattice count for a prime field F_q: lattices between
    u^B O^n and u^{-B} O^n correspond to u-stable subspaces of (O/u^{2B})^n.
    Each is a sum of cyclic ones, so grow them from 0, adding to a stable
    subspace M the u-orbit of one vector v (v taken modulo M, and up to a
    scalar), and count the distinct reduced row echelon forms reached."""
    assert all(q % d for d in range(2, q)), "oracle needs a prime field"
    dim = 2 * B * n

    def u_image(vec):
        # coordinate i * 2B + e holds the coefficient of u^e in entry i
        out = [0] * dim
        for c, x in enumerate(vec):
            if x and (c + 1) % (2 * B):
                out[c + 1] = x
        return out

    def rref(rows):
        rows = [list(r) for r in rows]
        r = 0
        for c in range(dim):
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][c], -1, q)
            rows[r] = [(inv * x) % q for x in rows[r]]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [(a - f * b) % q for a, b in zip(rows[i], rows[r])]
            r += 1
        return tuple(tuple(row) for row in rows[:r])

    seen = {()}
    frontier = [()]
    while frontier:
        nxt = []
        for rows in frontier:
            pivots = {next(c for c in range(dim) if row[c]) for row in rows}
            free = [c for c in range(dim) if c not in pivots]
            # vectors supported off the pivots represent V/M once each
            for vals in itertools.product(range(q), repeat=len(free)):
                lead = next((x for x in vals if x), None)
                if lead != 1:
                    continue
                vec = [0] * dim
                for c, x in zip(free, vals):
                    vec[c] = x
                orbit = []
                while any(vec):
                    orbit.append(vec)
                    vec = u_image(vec)
                new = rref(rows + tuple(tuple(v) for v in orbit))
                if new not in seen:
                    seen.add(new)
                    nxt.append(new)
        frontier = nxt
    return len(seen)


@lru_cache(maxsize=1)
def caruso_central_twists() -> tuple:
    """(datum, chi) pairs over the Caruso data with n <= 4, f <= 3 and
    p <= 7, the first three m of each (n, f, p) that give a datum, each with
    central chis of entries in [-5, 5]: all eleven when f = 1, else the zero
    chi and 24 drawn at random, seeded.  Built once: 2,837 pairs."""
    rng = random.Random(2024)
    out = []
    for n, f, p in itertools.product(range(1, 5), range(1, 4), (2, 3, 5, 7)):
        data = []
        for m in range(1, p ** (f * n)):
            if len(data) == 3:
                break
            try:
                data.append(caruso_datum(n, f, p, m))
            except (NotInGeneralPositionError, NotSimpleError):
                continue
        for datum in data:
            if f == 1:
                cs = [(c,) for c in range(-5, 6)]
            else:
                cs = [(0,) * f] + [tuple(rng.randint(-5, 5) for _ in range(f)) for _ in range(24)]
            out.extend((datum, tuple((c,) * n for c in cc)) for cc in cs)
    return tuple(out)


def zero_stratum_by_enumeration(multi, mu_bullet):
    """Zero-stratum oracle: every stratum of the lifted variety enumerated and
    filtered to the zero-dimensional one, as the library found it before it
    constructed the stratum from its block recursion.  PreconditionError for
    an empty variety, TheoremViolationError unless exactly one stratum has
    dimension 0."""
    strata = enumerate_strata(multi.lifted, mu_bullet)
    if not strata:
        raise PreconditionError("the multi-copy variety is empty")
    zero = [s for s in strata if s.dim == 0]
    if len(zero) != 1:
        raise TheoremViolationError(f"expected exactly one zero-dimensional stratum, found {len(zero)}")
    return zero[0]


def closed_walks_from_every_start(lifted, ms, sums):
    """Walk oracle for ``multicopy._closed_walks``: each start's walk taken
    all N steps around the lifted blocks, as the library walked before a walk
    stopped where it met an earlier walk's start; the labels of the walks
    that close.  Its starts times N steps are refused past KISIN_MAX_ENUM,
    read here, as the library refused them then."""
    shape = lifted.shape
    big, n = shape.blocks, shape.n
    origin, ident = (0,) * n, identity_perm(n)
    # the step into block k, None when it is the identity
    steps = [
        None if e == 1 and w == ident and t == origin and not m else (e, w, wi, t, m)
        for e, w, wi, t, m in zip(shape.eps, lifted.w, lifted.plan.winv, lifted.tau, ms)
    ]
    starts = [k for k in range(big) if steps[k - 1] is not None]
    if len(starts) * big > (cap := _enum_cap()):
        raise _cap_error(len(starts) * big, "recursion steps", cap)
    closed = set()
    for k0 in starts:
        lam = [None] * big
        start = cur = lam[k0] = _witness(sums[k0], n)
        for k in range(k0 - 1, k0 - big - 1, -1):
            step = steps[k]
            if step is not None:
                e, w, wi, t, m = step
                blk = twist_block(t, wi, e, cur, 1)
                if m:
                    i = w[n - 1 - cur[::-1].index(max(cur))]
                    blk = blk[:i] + (blk[i] - 1,) + blk[i + 1 :]
                cur = blk
            lam[k] = cur  # k runs down to k0 - big, which is k0 again
        if cur == start:
            closed.add(tuple(lam))
    return closed


def composed_stratum(datum, mu, lam):
    """Stratum oracle: the per-stratum invariants composed function by function,
    each recomputing lam_nat and re-testing membership, as the library did
    before its single-pass core.  Raises PreconditionError for a non-label."""

    def nat_of(v):
        twisted = act_weyl(datum.w, act_sigma(datum.shape, v))
        return cochar_add(cochar_sub(datum.tau, v), twisted)

    def nonempty():
        return dominance_leq(dominant(nat_of(lam))[0], mu)

    def r_set():
        nat = nat_of(lam)
        return tuple(
            a for a in all_roots(datum.shape)
            if lambda_alpha(lam, a) >= 1 and root_pair(a, nat) == -1
        )

    def d_set():
        if not nonempty():
            raise PreconditionError("not a label")
        nat = nat_of(lam)
        return tuple(
            a for a in all_roots(datum.shape)
            if lambda_alpha(lam, a) >= 0 and root_pair(a, nat) <= -1
        )

    def singleton():
        if not nonempty():
            raise PreconditionError("not a label")
        if is_central(lam):
            return "proven", "central"
        if is_dominant(lam) and is_minuscule(lam):
            return "proven", "dominant-minuscule"
        if dominant(nat_of(lam))[0] == mu and all(lambda_alpha(lam, a) == 0 for a in d_set()):
            return "proven", "d-set"
        if is_minuscule(mu) and not r_set():
            return "proven", "empty-r-set"
        return "unknown", None

    if not nonempty():
        raise PreconditionError("not a label")
    dag = cochar_add(datum.tau, act_weyl(datum.w, act_sigma(datum.shape, lam)))
    if is_minuscule(mu):
        rs = r_set()
        dim = len(rs)
    else:
        rs, dim = None, None
    verdict, rule = singleton()
    return Stratum(lam, nat_of(lam), dag, rs, d_set(), dim, verdict, rule)


def coroot(alpha, shape):
    """The coroot e_i - e_j of the root alpha as a full cochar of the shape."""
    out = [[0] * shape.n for _ in range(shape.blocks)]
    out[alpha.block][alpha.i] = 1
    out[alpha.block][alpha.j] = -1
    return tuple(tuple(b) for b in out)


def edge_exists(datum, mu, lam, alpha):
    """Coroot-curve edge oracle: the three dominance conditions as defined.
    With lam' = lam - alpha_cov, the dominant sorts of lam_nat + alpha_cov,
    lam_nat - w(sigma(alpha_cov)) and lam'_nat must all be dominated by mu;
    lam_nat and lam'_nat come from their definition, dominance from the
    breadth-first oracle."""

    def nat_of(v):
        return cochar_add(cochar_sub(datum.tau, v), act_weyl(datum.w, act_sigma(datum.shape, v)))

    cov = coroot(alpha, datum.shape)
    twisted = act_weyl(datum.w, act_sigma(datum.shape, cov))
    nat = nat_of(lam)
    conditions = (cochar_add(nat, cov), cochar_sub(nat, twisted), nat_of(cochar_sub(lam, cov)))
    return all(
        reachable_by_simple_coroots(m, tuple(sorted(b, reverse=True)))
        for vec in conditions
        for m, b in zip(mu, vec)
    )


def graph_by_full_cochars(datum, mu):
    """Graph oracle: the coroot-curve graph as the library built it before it
    tested each edge on the blocks the move touches.  Every root's coroot and
    its twist w(sigma(cov)) are full N-block cochars; lam' = lam - cov is
    looked up in the strata first, and the three dominance conditions are
    tested on every block of lam_nat + cov, lam_nat - twisted and
    lam_nat + cov - twisted."""
    strata = enumerate_strata(datum, mu)
    index = {s.lam: t for t, s in enumerate(strata)}
    moves = []
    for alpha in all_roots(datum.shape):
        cov = coroot(alpha, datum.shape)
        moves.append((alpha, cov, act_weyl(datum.w, act_sigma(datum.shape, cov))))
    uf = _UnionFind(len(strata))
    edges = []
    seen_pairs = set()
    for s in strata:
        for alpha, cov, twisted in moves:
            lam2 = cochar_sub(s.lam, cov)
            if lam2 not in index:
                continue
            key = frozenset((s.lam, lam2))
            if key in seen_pairs:
                continue
            up = cochar_add(s.nat, cov)
            if _dominated(up, mu) and _dominated(cochar_sub(s.nat, twisted), mu) and _dominated(cochar_sub(up, twisted), mu):
                seen_pairs.add(key)
                edges.append((s.lam, lam2, alpha))
                uf.union(index[s.lam], index[lam2])
    comps = {}
    for s in strata:
        comps.setdefault(uf.find(index[s.lam]), []).append(s.lam)
    components = tuple(sorted(tuple(sorted(c)) for c in comps.values()))
    return StrataGraph(strata, tuple(edges), components)


def product_strata(datum, mu):
    """Enumeration oracle: the product of the per-block candidate sets, every
    candidate nu solved for its preimage and kept when that is integral, as
    the library enumerated before its residue join; each record is the
    function-by-function composed_stratum.  Sorted by lam."""
    out = []
    for nu in itertools.product(*(candidate_blocks(b) for b in mu)):
        lam = solve_affine_integral(datum.shape, datum.w, cochar_sub(datum.tau, nu))
        if lam is not None:
            out.append(composed_stratum(datum, mu, lam))
    out.sort(key=lambda s: s.lam)
    return tuple(out)


def enum_cap_by_environ_get():
    """The cap read through os.environ.get, the reference of
    ``strata._enum_cap``, which reads os.environ's dict directly:
    DEFAULT_ENUM_CAP when KISIN_MAX_ENUM is unset or empty, else the value,
    which must be ASCII decimal digits."""
    raw = os.environ.get("KISIN_MAX_ENUM", "")
    if not raw:
        return DEFAULT_ENUM_CAP
    if re.fullmatch("[0-9]+", raw) is None:
        raise ConfigError(f"KISIN_MAX_ENUM={raw!r} is not a non-negative integer")
    return int(raw)


def require_mu_by_steps(datum, mu):
    """The checks of every call with a mu and the values that enumeration
    reads of it, as separate steps: the reference of the one pass
    ``strata._require_mu``.  The alcove, then ``is_dominant`` on the whole
    mu, then ``GroupShape.check_cochar``; then mu as tuples, its block sums
    and its box (``strata._candidate_box``)."""
    if not datum.alcove_ok:
        raise PreconditionError("datum's fixed point is not in the alcove")
    if not is_dominant(mu):
        raise ConfigError("mu must be dominant")
    datum.shape.check_cochar(mu)
    mu = tuple(map(tuple, mu))
    return mu, tuple(map(sum, mu)), _candidate_box(mu)


def candidate_product(mu):
    """The number of candidate tuples, from the built per-block sets (without
    filling their cache)."""
    return math.prod(len(candidate_blocks.__wrapped__(b)) for b in mu)


def candidate_count(mu_block):
    """len(candidate_blocks(mu_block)) without building the candidates: the
    sum over the dominant blocks nu <= mu_block of the multinomials
    n! / prod(mult!), the number of distinct permutations of nu.  The library
    once counted the candidate product this way for its cap."""
    from kisin.strata import dominant_blocks_leq

    n = len(mu_block)
    total = 0
    for dom in dominant_blocks_leq(mu_block):
        c = math.factorial(n)
        for _, run in itertools.groupby(dom):
            c //= math.factorial(len(tuple(run)))
        total += c
    return total


def walk_by_exact_count(datum, mu):
    """The dispatch rule on the exact candidate product, as the library
    applied it before it decided on the box: the cycle walk iff no eps is 1
    and WALK_PATH_COST times the walk's path bound is below the product."""
    from kisin import strata

    count = math.prod(candidate_count(b) for b in mu)
    radius = strata._walk_radius(datum, mu)
    return radius is not None and strata.WALK_PATH_COST * strata._walk_bound(datum, mu, radius) < count


def walk_by_box(datum, mu):
    """The dispatch rule on the candidate box, without the library's
    prefilters: the cycle walk iff no eps is 1 and WALK_PATH_COST times the
    walk's path bound is below the box."""
    from kisin import strata

    radius = strata._walk_radius(datum, mu)
    box = strata._candidate_box(mu)
    return radius is not None and strata.WALK_PATH_COST * strata._walk_bound(datum, mu, radius) < box


def strata_by_fresh_labels(datum, mu):
    """Strata oracle: the records as the library built them before it kept a
    state per datum.  The labels come from the path the dispatch takes on
    the box (``walk_by_box``), ``strata._walk`` or ``strata._join``, which
    read no state, so every label is solved and checked under this mu; each
    record is built by ``strata._stratum`` from an entry made afresh for it
    by ``strata._label_entry``.  No datum state is read or filled."""
    from kisin import strata

    mu = tuple(map(tuple, mu))
    if walk_by_box(datum, mu):
        labels = strata._walk(datum, mu, strata._walk_radius(datum, mu))
    else:
        labels = strata._join(datum, mu)
    minuscule = is_minuscule(mu)
    return tuple(
        strata._stratum(mu, nat, strata._label_entry(datum.shape, lam, dag, nat), minuscule)
        for lam, dag, nat in labels
    )


def box_strata(datum, mu, bound=None):
    """Box-search oracle: every lam in the box |lam| <= bound with
    dominant(lam_nat) <= mu, the bound 2N(|tau| + |mu|) by default.  That box
    is complete: lam solves lam = (tau - lam_nat) + w(sigma(lam)), and running
    that recurrence forward around the N blocks (each step divides by
    eps >= 1, one full turn by q >= 2) bounds every block by
    N|tau - lam_nat| q/(q - 1).  A smaller bound is complete only where it is
    proven, as the walk's radius is for contracting shapes."""
    n, blocks = datum.shape.n, datum.shape.blocks
    if bound is None:
        bound = 2 * blocks * (max(abs(x) for b in datum.tau for x in b) + max(abs(x) for b in mu for x in b))
    found = set()
    for flat in itertools.product(range(-bound, bound + 1), repeat=n * blocks):
        lam = tuple(flat[k * n : (k + 1) * n] for k in range(blocks))
        if dominance_leq(dominant(natural_lambda(datum, lam))[0], mu):
            found.add(lam)
    return found


def packed_cosets(n, lam_bound, field, twist=None):
    """(ring, g, h, bsg) for every coset of the box |lam_j| <= lam_bound from
    the library's packed generator: the union over s of the slices
    sum(lam) = s, with no last-row floor (kisin_points builds one slice, less
    the cosets below its floor), each behind the oracle's slice guard.  The
    matrices are copies."""
    ring = oracle.Packing(field, oracle._width(n, field.p, field.r, lam_bound))
    for s in range(-n * lam_bound, n * lam_bound + 1):
        oracle._check_guard(n, lam_bound, field.q, s)
        for g, h, bsg in oracle._hnf_cosets(n, lam_bound, ring, s, twist or [0] * n, None):
            yield ring, [list(r) for r in g], [list(r) for r in h], [list(r) for r in bsg]


def hnf_cosets(n, lam_bound, field):
    """Every coset of the box from the library's packed generator, as
    (g, g^{-1}) LSeries matrices."""
    for ring, g, h, _ in packed_cosets(n, lam_bound, field):
        yield unpack_matrix(ring, g, lam_bound), unpack_matrix(ring, h, lam_bound)


def lseries_box_cosets(n, lam_bound, field):
    """Every coset of the box by lseries_hnf_cosets, slice by slice."""
    for s in range(-n * lam_bound, n * lam_bound + 1):
        yield from lseries_hnf_cosets(n, lam_bound, field, s)


def candidate_cosets(n, lam_bound, field, lam_filter=None):
    """Coset oracle: every upper triangular candidate of the box shape
    (diagonal u^{lam_j} with |lam_j| <= B, entry (i, j) a polynomial with
    exponents in [-B, lam_i)), built with its adjugate and kept when u^B g^{-1}
    is integral, as the library generated cosets before it built only the kept
    ones.  lam_filter(lams) may restrict the diagonals tried.  Yields
    (g, g^{-1}), the inverse being the adjugate over det g = u^{sum(lam)}."""
    B = lam_bound
    zero = LSeries.zero(field)
    pairs = [(i, j) for j in range(n) for i in range(j)]
    for lams in itertools.product(range(-B, B + 1), repeat=n):
        if lam_filter is not None and not lam_filter(lams):
            continue
        spans = [list(range(-B, lams[i])) for i, _ in pairs]
        for choice in itertools.product(*(itertools.product(field.elements(), repeat=len(s)) for s in spans)):
            rows = [[zero] * n for _ in range(n)]
            for i in range(n):
                rows[i][i] = LSeries.monomial(field, lams[i])
            for (i, j), exps, coeffs in zip(pairs, spans, choice):
                rows[i][j] = series_from_terms(field, {e: c for e, c in zip(exps, coeffs) if c})
            g = mat_from_rows(field, rows)
            # box lower bound: u^B O^n inside the lattice, i.e. u^B g^{-1} integral
            s = sum(lams)
            adj = mat_adjugate(g)
            if all(not e.coeffs or e.offset >= s - B for row in adj.rows for e in row):
                yield g, mat_from_rows(field, [[e.shift(-s) for e in row] for row in adj.rows])


def mat_mul(a, b):
    """The general matrix product, which the survey's monomial twist and
    triangular product replace."""
    n = a.n
    zero = LSeries.zero(a.field)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero
            for k in range(n):
                acc = acc.add(a.rows[i][k].mul(b.rows[k][j]))
            row.append(acc)
        rows.append(row)
    return mat_from_rows(a.field, rows)


def weyl_matrix(field, tau, perm):
    """The lift u^tau w as a full matrix, w the permutation matrix sending e_j
    to e_{w(j)}."""
    n = len(tau)
    zero = LSeries.zero(field)
    rows = [[zero] * n for _ in range(n)]
    for j in range(n):
        rows[perm[j]][j] = LSeries.monomial(field, tau[perm[j]])
    return mat_from_rows(field, rows)


def survey_products(datum, field, lam_bound: int):
    """(g, g^{-1} b sigma(g)) for every coset g in the box, in LSeries.

    With b = u^tau w monomial, column j of g^{-1} b is column w(j) of g^{-1}
    shifted by tau_{w(j)}, and sigma(g) is upper triangular, so the product
    sums over k <= j only.
    """
    shape = datum.shape
    if shape.blocks != 1:
        raise PreconditionError("the point oracle only supports f = 1")
    if not datum.alcove_ok:
        raise PreconditionError("datum's fixed point is not in the alcove")
    if field.p != shape.p:
        raise ConfigError("field characteristic must match the shape")
    n, p = shape.n, shape.p
    tau, w = datum.tau[0], datum.w[0]
    zero = LSeries.zero(field)
    for g, h in lseries_box_cosets(n, lam_bound, field):
        hb = [[row[w[j]].shift(tau[w[j]]) for j in range(n)] for row in h.rows]
        sg = mat_frobenius(g, p).rows
        rows = []
        for i in range(n):
            row = []
            for j in range(n):
                acc = zero
                for k in range(j + 1):
                    acc = acc.add(hb[i][k].mul(sg[k][j]))
                row.append(acc)
            rows.append(row)
        yield g, mat_from_rows(field, rows)


def coset_survey(datum, field, lam_bound: int):
    """(g, g^{-1} b sigma(g), its dominant elementary divisors, Iwahori label)
    for every coset in the box, all in LSeries; independent of any mu, so one
    survey serves a whole family of bounds.  The point oracle before it was
    pruned by the determinant and packed: kisin_points is this survey
    filtered by dominance by mu.  The determinant of the product is a unit
    times a power of u, so a singular product is a TheoremViolationError.
    """
    out = []
    for g, prod in survey_products(datum, field, lam_bound):
        try:
            ed = lseries_divisors(prod)
        except SingularMatrixError as exc:
            raise TheoremViolationError(
                f"g^-1 b sigma(g) is singular for the coset {g.rows}"
            ) from exc
        out.append((g, prod, ed, (lseries_label(g),)))
    return out


def survey_points(survey, mu):
    """The points of a coset_survey for the bound mu, ordered and printed as
    kisin_points gives them: (rows of entry reprs, label), by label, then by
    the entries' reprs."""
    points = [
        (tuple(tuple(repr(e) for e in row) for row in g.rows), label)
        for g, _, ed, label in survey
        if dominance_leq((ed,), mu)
    ]
    points.sort(key=lambda t: (t[1], [e for row in t[0] for e in row]))
    return points


# ---------------------------------------------------------------------------
# the GL_3 chains as the library built them before it stepped lam_nat by
# increments from a per-(w, eps) table


def gl3_normal_form_by_coroots(diff, w):
    """diff = n1*c + n2*w(c) with n1 = max(|n1|, |n2|, |n1-n2|) >= n2 >= 0,
    trying each coroot c with w(c) and the determinant computed afresh."""
    for c in _GL3_COROOTS:
        wc = act_perm(w, c)
        det = c[0] * wc[1] - c[1] * wc[0]
        n1 = (diff[0] * wc[1] - diff[1] * wc[0]) // det
        n2 = (c[0] * diff[1] - c[1] * diff[0]) // det
        if n1 * c[2] + n2 * wc[2] != diff[2]:
            continue
        if n1 == max(abs(n1), abs(n2), abs(n1 - n2)) and n1 >= n2 >= 0:
            return c, n1, n2
    raise TheoremViolationError("no max-normalized coroot decomposition found")


def chain_gl3_by_retwisting(datum, mu, lam, lam_prime):
    """Chain oracle: connectivity.chain_gl3 as it was before the chain table,
    twisting every candidate step's label afresh and testing it with
    _dominated on the full cochar."""
    shape = datum.shape
    if shape.n != 3 or shape.blocks != 1:
        raise PreconditionError("chain construction requires GL_3 with f = 1")
    w = datum.w[0]
    if any(w[i] == i for i in range(3)):
        raise PreconditionError("chain construction requires a 3-cycle Weyl part")
    _require_mu(datum, mu)
    for end in (lam, lam_prime):
        if not (_is_gl3_label(end) and _is_label(datum, mu, end)):
            raise PreconditionError("both endpoints must be stratum labels")
    if sum(lam[0]) != sum(lam_prime[0]):
        raise TheoremViolationError("difference of labels is not in the coroot lattice")

    chain = [lam]
    steps = []
    cur = lam
    prev_n1 = None
    while cur != lam_prime:
        diff = tuple(a - b for a, b in zip(lam_prime[0], cur[0]))
        c, n1, n2 = gl3_normal_form_by_coroots(diff, w)
        if prev_n1 is not None and n1 >= prev_n1:
            raise TheoremViolationError("leading coefficient failed to decrease")
        prev_n1 = n1
        w2c = act_perm(w, act_perm(w, c))
        step_plus = (c,)
        step_minus = (tuple(-x for x in w2c),)
        if n2 == 0:
            candidates = (step_plus,)
        elif n2 == n1:
            candidates = (step_minus,)
        else:
            candidates = (step_plus, step_minus)
        for step in candidates:
            nxt = cochar_add(cur, step)
            nat = _twist(datum, nxt)[1]
            if _dominated(nat, mu):
                break
        else:
            raise TheoremViolationError("no admissible coroot step stays in S")
        i, j = step[0].index(1), step[0].index(-1)
        if not _edge_ok(mu, nat, 0, i, j, 0, w[i], w[j], shape.eps[0]):
            raise TheoremViolationError(f"chain step {cur} -> {nxt} is not a coroot-curve edge")
        steps.append(step)
        chain.append(nxt)
        cur = nxt
    return tuple(chain), tuple(steps)


def gl3_sweep_instances():
    """Every (datum, mu, strata) with S nonempty: p in {2,3}, all simple
    |m| < p^3, all dominant mu with sup-norm <= 4."""
    out = []
    for p in (2, 3):
        bound = p**3
        for m in range(-(bound - 1), bound):
            if not is_caruso_simple(3, p, m):
                continue
            d = caruso_datum(3, 1, p, m)
            for flat in itertools.product(range(4, -5, -1), repeat=3):
                if not (flat[0] >= flat[1] >= flat[2]):
                    continue
                mu = (flat,)
                S = enumerate_strata(d, mu)
                if S:
                    out.append((d, mu, S))
    return out
