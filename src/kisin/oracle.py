"""Brute-force ground truth at tiny scale: literal points of the variety over
small finite fields, as Hermite-style lattice cosets, in exact arithmetic on
polynomials packed into Python integers.

Coefficients live in F_{p^r} with r <= 2 (the Frobenius fixes coefficients and
sends u to u^p, so points over a subfield are honest points of the variety).
No field table is built: a polynomial over F_p is lifted to Z[u] with
coefficients in [0, p) and stored as its value at X = 2^W, F_{p^2} =
F_p[t]/(t^2 + Bt + C) as a pair of such integers, and negation is
multiplication by p - 1, so no coefficient is ever negative.  Z[u] -> F_p[u]
and Z[u][t]/(t^2 - (p-B)t - (p-C)) -> F_{p^2}[u] are ring homomorphisms, so
every minor reduces to the minor over the field.  A matrix is stored times a
fixed u^S (a k x k minor carries kS), a valuation is the first digit nonzero
mod p, and ``_width`` chooses W from a proven bound on every digit read.

Coset representatives are upper triangular with monomial diagonal, so their
inverses are Laurent polynomials too; ``_hnf_cosets`` builds each inverse and
sigma(g) alongside its coset, which lets the box bound fix coefficients
instead of rejecting candidates.  The twisting element u^tau w is monomial,
so the twist is a reindexing and a shift.  Elementary divisors come from
determinantal divisors (minimal valuations of minors); Iwahori labels come
from a pivot elimination, ``_eliminate``, which never inverts a field element.

``kisin_points`` builds only the diagonal-sum slice that the determinant
identity allows and, within it, only the cosets whose product's last row
can reach min(mu); it forms the minors a level at a time against the
partial sums of mu, and labels and prints only the points.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterator

from .core import Cochar, _is_prime
from .errors import (
    BoxTooSmallError,
    ConfigError,
    PreconditionError,
    SingularMatrixError,
    TheoremViolationError,
)
from .normal_form import FrobeniusDatum
from .strata import block_sums, enumerate_strata


# ---------------------------------------------------------------------------
# finite fields and packed polynomials


class GF:
    """F_{p^r} for r in {1, 2}.  An element is named by its index a + p*b for
    a + b*t, t a root of the irreducible t^2 + Bt + C of ``t_poly`` = (B, C);
    the arithmetic lives in ``Packing``."""

    def __init__(self, p: int, r: int = 1):
        if r not in (1, 2):
            raise ConfigError(
                f"a coefficient field's degree r must be at least 1, got {r}"
                if r < 1
                else "coefficient fields are limited to r <= 2"
            )
        if not _is_prime(p):
            raise ConfigError(f"p={p} is not prime")
        self.p, self.r, self.q = p, r, p**r
        self.t_poly = self._irreducible_quadratic(p) if r == 2 else None

    @staticmethod
    def _irreducible_quadratic(p: int):
        """The first (B, C), B = 0, 1, ... and then C = 1, 2, ..., with
        x^2 + Bx + C irreducible over F_p.  For odd p the quadratic has a root
        iff its discriminant B^2 - 4C is a square mod p, and by Euler's
        criterion a nonzero D is a non-square iff D^((p-1)/2) = -1."""
        if p == 2:
            return 1, 1
        for B in range(p):
            for C in range(1, p):
                if pow(B * B - 4 * C, (p - 1) // 2, p) == p - 1:
                    return B, C
        raise ConfigError("no irreducible quadratic found")  # unreachable for prime p

    def neg(self, x: int) -> int:
        """The index of -x."""
        return (-x) % self.p + self.p * ((-(x // self.p)) % self.p)

    def elem_str(self, x) -> str:
        if self.r == 1 or x < self.p:
            return str(x)
        a, b = x % self.p, x // self.p
        bt = "t" if b == 1 else f"{b}*t"
        return bt if a == 0 else f"{bt}+{a}"


class Packing:
    """Polynomials over a GF packed at X = 2^width: an int for r = 1, a pair
    of ints (a, b) for a + b t when r = 2.  Every packed coefficient is a
    non-negative integer below 2^(width - 1) (the top bit of each digit is a
    spare bit); ``mul``, ``add`` and ``neg`` are exact over Z and reduce to
    the field arithmetic mod p."""

    def __init__(self, field: GF, width: int):
        self.field, self.width = field, width
        self._mask, self._half = (1 << width) - 1, 1 << (width - 1)
        p, m1 = field.p, field.p - 1
        if field.r == 1:
            self.zero, self._flat = 0, list
            self.mul, self.add, self.neg = operator.mul, operator.add, m1.__mul__
            return
        beta, gamma = ((-c) % p for c in field.t_poly)  # t^2 = beta t + gamma

        def mul(x, y):
            (a, b), (c, d) = x, y
            if not b:  # a monomial of the diagonal, or an F_p multiple
                return a * c, a * d
            if not d:
                return a * c, b * c
            ac, bd = a * c, b * d
            return ac + gamma * bd, (a + b) * (c + d) - ac - bd + beta * bd

        self.zero, self.mul, self._flat = (0, 0), mul, lambda xs: [c for x in xs for c in x]
        self.add = lambda x, y: (x[0] + y[0], x[1] + y[1])
        self.neg = lambda x: (m1 * x[0], m1 * x[1])

    def term(self, c: int, pos: int):
        """The field element of index c at position pos (times X^pos)."""
        p, at = self.field.p, pos * self.width
        return c << at if self.field.r == 1 else ((c % p) << at, (c // p) << at)

    def above(self, x, pos: int):
        """x without its coefficients below position pos, divided by X^pos."""
        at = pos * self.width
        return x >> at if self.field.r == 1 else (x[0] >> at, x[1] >> at)

    def _digit(self, x: int, pos: int) -> int:
        d = (x >> pos * self.width) & self._mask
        if d & self._half:
            raise TheoremViolationError(f"a packed coefficient passed its bound 2^{self.width - 1}")
        return d

    def coeff(self, x, pos: int) -> int:
        """The index of the coefficient of x at position pos, reduced mod p."""
        p = self.field.p
        return sum(self._digit(v, pos) % p * p**k for k, v in enumerate(self._flat([x])))

    def minval(self, xs) -> int | None:
        """The least position at which some x of xs is nonzero mod p, or None.
        Exact zero digits are skipped with z & -z on the union z of the xs,
        and only the digits at the candidate position are read (and checked)."""
        ints = self._flat(xs)
        z = functools.reduce(operator.or_, ints, 0)
        W, p, mask, half = self.width, self.field.p, self._mask, self._half
        while z:
            t = ((z & -z).bit_length() - 1) // W
            for x in ints:
                d = (x >> t * W) & mask
                if d & half:
                    self._digit(x, t)  # raises
                if d % p:
                    return t
            z = z >> (t + 1) * W << (t + 1) * W
        return None

    def render(self, x, shift: int) -> str:
        """x / u^shift, printed as sum of c*u^e in increasing e."""
        terms = []
        for t in range(max(c.bit_length() for c in self._flat([x])) // self.width + 1):
            c = self.coeff(x, t)
            if c:
                e, cs = t - shift, self.field.elem_str(c)
                u = "u" if e == 1 else f"u^{e}"
                terms.append(cs if e == 0 else u if cs == "1" else f"({cs})*{u}")
        return " + ".join(terms) or "0"

    def rendered(self, rows, shift: int) -> tuple:
        return tuple(tuple(self.render(e, shift) for e in row) for row in rows)


def _matrix_bounds(n: int, p: int, r: int, digit: int, support: int) -> tuple:
    """Bounds (M, E) on every packed coefficient of the minors that
    ``elementary_divisors`` forms, and of the entries that ``_eliminate``
    forms, from an n x n matrix whose entries have coefficients <= digit and
    at most ``support`` nonzero ones.

    A product of packed a and c has coefficients <= rho min(|a|, |c|) a c,
    with |.| the count of nonzero coefficients and a, c coefficient bounds:
    rho = 1 for r = 1, and rho = p + 1 for r = 2, since the pair product's
    components ac + gamma bd and ad + bc + beta bd have beta, gamma <= p - 1.
    A k x k minor sums ceil(k/2) terms top * minor and floor(k/2) such terms
    times p - 1, so with M_1 = digit, M_k = s_k rho support digit M_{k-1},
    s_k = ceil(k/2) + floor(k/2)(p - 1).  An elimination step sets an entry to
    pivot * x + (p - 1) a y, so E_{t+1} = p rho L_t E_t^2 and
    L_{t+1} = 2 L_t^2, from E_0 = digit and L_0 = support."""
    rho = 1 if r == 1 else p + 1
    m = e = digit
    ell = support
    for k in range(2, n + 1):
        m *= ((k + 1) // 2 + k // 2 * (p - 1)) * rho * support * digit
        e, ell = p * rho * ell * e * e, 2 * ell * ell
    return m, e


def _width(n: int, p: int, r: int, B: int) -> int:
    """W for the cosets of the box B in GL_n over F_{p^r}: one spare bit over
    a bound D on every packed coefficient that is read, masked or shifted
    right, W = D.bit_length() + 1.

    Every entry of g, h = g^{-1} and sigma(g) has its exponents in [-B, B) or
    is the monomial of the diagonal, so at most ell = max(1, 2B) nonzero
    coefficients; those of g and sigma(g) are canonical, <= d = max(1, p - 1).
    An entry h_ij with j - i = e is (p - 1) c_hi plus a canonical part, c_hi
    the top of T = sum_{i<k<j} g_ik h_kj, so by the product rule of
    _matrix_bounds its coefficients are <= D_h(e), D_h(1) = d and
    D_h(e) = d (1 + rho ell d sum_{e' < e} D_h(e')); T <= D_h(e) too.  An entry
    of the product P = h b sigma(g) sums at most n products, so it has
    coefficients <= D_P = n rho ell D_H d (D_H the largest D_h) and at most
    L_P = n ell^2 nonzero ones.  D is the largest of D_H, the minor bound M
    of (D_P, L_P) and the elimination bound E of g, of (d, ell)."""
    rho = 1 if r == 1 else p + 1
    ell, d = max(1, 2 * B), max(1, p - 1)
    dh = [d]
    for _ in range(2, n):
        dh.append(d * (1 + rho * ell * d * sum(dh)))
    dp = n * rho * ell * dh[-1] * d
    bound = max(dh[-1], _matrix_bounds(n, p, r, dp, n * ell * ell)[0], _matrix_bounds(n, p, r, d, ell)[1])
    return bound.bit_length() + 1


# ---------------------------------------------------------------------------
# Cartan and Iwahori reductions


def elementary_divisors(ring: Packing, rows, shift: int) -> Cochar:
    """Exponents of the Cartan double coset of the matrix rows / u^shift (rows
    packed by ring), as one dominant block.

    The k-th determinantal divisor d_k, the least valuation of a k x k minor,
    is the sum of the k smallest exponents, so the exponents are the
    differences d_k - d_{k-1} (d_0 = 0), from ``_divisor_sums`` with every
    level formed.  Raises SingularMatrixError if det = 0.
    """
    d = [0, *_divisor_sums(ring, rows, shift, ())]
    return tuple(sorted((b - a for a, b in zip(d, d[1:])), reverse=True))


def _divisor_sums(ring: Packing, rows, shift: int, floors) -> list:
    """[d_1, ..., d_n], the determinantal divisors of rows / u^shift, formed
    while they stay at their floors: d_j >= floors[j - 1] for j <= len(floors).

    Each minor is computed once: the k x k minor on rows R and columns C by
    expansion along the first row of R, from the (k - 1) x (k - 1) minors on
    the other rows of R; the n x n minor is the determinant; it carries the
    shift k * shift.  Level k is formed in full while every level formed so
    far is at its floor.  After the first level below its floor, only the
    minors on the last k rows are formed (``_minor_plan``'s chain): they
    expand into one another and end in the determinant, so d_n is always
    formed, and every level strictly between is None.  Raises
    SingularMatrixError if det = 0: when every minor of a level formed in
    full vanishes, or the determinant does.
    """
    mul, add, neg = ring.mul, ring.add, ring.neg
    n = len(rows)
    level = [e for row in reversed(rows) for e in row]
    d, full = [], True
    for k, (plan, chain) in enumerate(_minor_plan(n), 1):
        if k > 1:
            below, level = level, []
            for terms in plan if full else chain:
                (i, j, m, _), *rest = terms
                acc = mul(rows[i][j], below[m])
                for i, j, m, odd in rest:
                    term = mul(rows[i][j], below[m])
                    acc = add(acc, neg(term) if odd else term)
                level.append(acc)
        if not (full or k == n):
            d.append(None)
            continue
        v = ring.minval(level)
        if v is None:
            raise SingularMatrixError("matrix is singular")
        d.append(v - k * shift)
        full = k > len(floors) or d[-1] >= floors[k - 1]
    return d


@functools.lru_cache(maxsize=8)  # one plan per n, each level with its chain; the oracle takes n <= 3
def _minor_plan(n: int) -> tuple:
    """Per k, (plan, chain): plan is the k x k minors in the order of (rows
    R, columns C), R over the k-subsets of rows from the last (the last k
    rows) back and C over itertools.combinations, each as its first-row
    expansion: (R[0], C[t], the index of the (k - 1) x (k - 1) minor on R[1:]
    and C without C[t], t odd).  chain is plan's first C(n, k) minors, those
    on the last k rows, whose expansions use only the chain of level k - 1.
    Level 1 is the entries themselves, the last row first (index
    (n - 1 - i) n + j), and has no plan."""
    levels, index = [], {}
    for k in range(1, n + 1):
        cols = list(itertools.combinations(range(n), k))
        pairs = [(rs, cs) for rs in reversed(cols) for cs in cols]
        plan = () if k == 1 else tuple(
            tuple((rs[0], c, index[rs[1:], cs[:t] + cs[t + 1:]], t % 2) for t, c in enumerate(cs))
            for rs, cs in pairs
        )
        levels.append((plan, plan[:len(cols)]))
        index = {pair: m for m, pair in enumerate(pairs)}
    return tuple(levels)


def _eliminate(ring: Packing, rows, shift: int) -> list:
    """(pivot row, valuation) of each step of the reduction of rows / u^shift
    to a monomial matrix by left-I row and right-G(O) column operations, I the
    preimage of the lower Borel.

    Each step takes a minimal-valuation pivot and clears its column with row
    operations, rescaling each row by the pivot's unit part
    (cross-multiplication), so no entry is ever inverted; row i is kept times
    u^rsh[i] instead of dividing by the pivot's u^v.  Clearing the pivot row
    by column operations would only rescale the other columns by units, which
    changes no valuation, so it is left out.  The pivot is the topmost of
    minimal valuation, so a row above it has strictly larger valuation in the
    pivot column and its coefficient q = entry/pivot lies in uO, as I
    requires; this is asserted.
    """
    n, mul, add, neg = len(rows), ring.mul, ring.add, ring.neg
    work = [list(row) for row in rows]
    rsh = [shift] * n
    alive_rows, alive_cols = list(range(n)), list(range(n))
    steps = []
    while alive_rows:
        best = None
        for i in alive_rows:  # ascending, so the first minimum found is topmost
            for j in alive_cols:
                v = ring.minval([work[i][j]])
                if v is not None and (best is None or v - rsh[i] < best[2]):
                    best = (i, j, v - rsh[i])
        if best is None:
            raise SingularMatrixError("matrix is singular")
        ip, jp, v = best
        steps.append((ip, v))
        pivot = work[ip][jp]
        for i in alive_rows:
            a = work[i][jp]
            va = None if i == ip else ring.minval([a])
            if va is None:
                continue
            if i < ip and va - rsh[i] - v < 1:
                raise PreconditionError("pivot selection violated the Iwahori row order")
            for j in alive_cols:
                work[i][j] = add(mul(pivot, work[i][j]), neg(mul(a, work[ip][j])))
            rsh[i] += rsh[ip] + v
        alive_rows.remove(ip)
        alive_cols.remove(jp)
    return steps


def iwahori_label(ring: Packing, rows, shift: int) -> tuple:
    """The unique lam with g in I u^lam G(O), g = rows / u^shift, I the
    preimage of the lower Borel.

    The elimination uses right-G(O) column operations and left-I row
    operations, so lam_i is the valuation of the pivot taken in row i.
    """
    lam = [None] * len(rows)
    for i, v in _eliminate(ring, rows, shift):
        lam[i] = v
    return tuple(lam)


# ---------------------------------------------------------------------------
# coset enumeration


# The guard of the coset generator: a bound on the candidate product of one
# diagonal-sum slice (every upper triangular g of the box shape with that
# diagonal sum, before the box lower bound), which bounds the cosets built.
# Lists of at most _PARTS_KEPT free parts are built once per slice and kept.
MAX_CANDIDATES = 2_000_000
_PARTS_KEPT = 4096


def _slice_diagonals(n: int, B: int, s: int) -> Iterator[tuple]:
    """The diagonals lam in [-B, B]^n with sum(lam) = s, in lexicographic
    order; each entry is drawn from the range that the remaining entries can
    still complete, so every partial choice completes."""
    if n == 1:
        if -B <= s <= B:
            yield (s,)
        return
    rest = (n - 1) * B
    for x in range(max(-B, s - rest), min(B, s + rest) + 1):
        for tail in _slice_diagonals(n - 1, B, s - x):
            yield (x, *tail)


def _check_guard(n: int, B: int, q: int, s: int) -> None:
    """The guard of the slice sum(lam) = s: its candidate product, the sum
    over its diagonals of q^(sum_{i<j} (lam_i + B)), within MAX_CANDIDATES.

    The sum stops at the first term that passes the guard, and an exponent
    of at least MAX_CANDIDATES.bit_length() passes it without q^e being
    taken (q >= 2), so no integer larger than the guard is built."""
    bits = MAX_CANDIDATES.bit_length()
    total = 0
    for lams in _slice_diagonals(n, B, s):
        e = sum((n - 1 - i) * (lam + B) for i, lam in enumerate(lams))
        total += q**e if e < bits else MAX_CANDIDATES + 1
        if total > MAX_CANDIDATES:
            raise PreconditionError(f"candidate cosets exceed the guard {MAX_CANDIDATES}")


def _frobenius_term(ring: Packing, c: int, pos: int, twist: int):
    """sigma(c X^pos) u^twist for a term of g packed at shift B: sigma fixes
    coefficients and sends u^e to u^(pe), so at shift pB it lands at p pos."""
    return ring.term(c, ring.field.p * pos + twist)


def _hnf_cosets(n: int, B: int, ring: Packing, s: int, twist, floor) -> Iterator[tuple]:
    """Hermite-style representatives of the lattices between u^B O^n and
    u^{-B} O^n whose diagonal exponents sum to s: upper triangular g,
    diagonal u^{lam_j} with |lam_j| <= B and sum(lam) = s, entry (i, j)
    reduced modulo u^{lam_i} with valuation >= -B, and u^B g^{-1} integral.
    Complete and duplicate-free for that slice of the box; unguarded.

    floor is None, or (k, c): then only the cosets whose row k has every
    entry of valuation >= v* = ceil((c + lam_{n-1}) / p) are built, in the
    same order.  ``kisin_points`` takes k = w^{-1}(n - 1) and
    c = min(mu) - tau_{n-1}: row n - 1 of g^{-1} b sigma(g) is
    u^(tau_{n-1} - lam_{n-1}) sigma(row k of g), whose entries have
    valuations p val(g_kj) + tau_{n-1} - lam_{n-1}, and a point has every
    entry of valuation >= min(mu).  Each row i gets a floor f_i: -B, or
    max(-B, v*) on row k, whose diagonal is skipped when lam_k < v*.

    The inverse h = g^{-1} is upper triangular and its column j depends only
    on the columns <= j of g, so both are built one column at a time, each
    column bottom-up.  With c = -u^{lam_j} sum_{i<k<j} g_ik h_kj already
    known, h_ij = -u^{-lam_i-lam_j} (g_ij - c), so val h_ij >= -B says
    g_ij = c mod u^{lam_i+lam_j-B}: the coefficients of g_ij below that
    exponent are forced (the partial choice dies if one is forced below f_i),
    and only those from max(lam_i+lam_j-B, f_i) up to lam_i are free.  Every
    matrix built is a coset.

    Yields (g, h, bsg) per coset, packed by ring: g and h at shift B, and
    bsg, row k of sigma(g) times u^twist[k], at shift pB.  The three lists
    are filled in place and change after each yield.
    """
    cells = [(i, j) for j in range(n) for i in reversed(range(j))]
    parts = {}
    for lams in _slice_diagonals(n, B, s):
        lows = [-B] * n
        if floor is not None:
            k, c = floor
            lows[k] = max(-B, -(-(c + lams[-1]) // ring.field.p))
            if lams[k] < lows[k]:
                continue
        g, h, bsg = ([[ring.zero] * n for _ in range(n)] for _ in range(3))
        for i in range(n):
            g[i][i] = ring.term(1, lams[i] + B)
            h[i][i] = ring.term(1, B - lams[i])
            bsg[i][i] = _frobenius_term(ring, 1, lams[i] + B, twist[i])
        for _ in _fill_cells(ring, B, lams, lows, (g, h, bsg), cells, twist, parts) if cells else [None]:
            yield g, h, bsg


def _free_parts(ring: Packing, a: int, b: int, d: int, tw: int, kept: dict):
    """(F, sigma(F) u^tw, -F u^-d) for every F with its coefficients at the
    positions [a, b) (shift B), lowest position slowest, as in
    itertools.product; lists of at most _PARTS_KEPT are kept in ``kept``."""
    if (a, b, d, tw) in kept:
        return kept[a, b, d, tw]
    if b == a:
        return [(ring.zero,) * 3]
    add, neg, t = ring.add, ring.field.neg, b - 1
    out = (
        (add(x[0], ring.term(c, t)), add(x[1], _frobenius_term(ring, c, t, tw)),
         add(x[2], ring.term(neg(c), t - d)))
        for x in _free_parts(ring, a, t, d, tw, kept)
        for c in range(ring.field.q)
    )
    if ring.field.q ** (b - a) <= _PARTS_KEPT:
        kept[a, b, d, tw] = out = list(out)
    return out


def _fill_cells(ring: Packing, B: int, lams, lows, mats, cells, twist, kept) -> Iterator[None]:
    """Fill g, h and bsg at cells[0], cells[1], ... (at least one) in place,
    yielding once per completion that keeps val h >= -B and every entry of
    row i of g at valuation >= lows[i]."""
    g, h, bsg = mats
    (i, j), rest = cells[0], cells[1:]
    low, floor = lams[i] + lams[j] - B, lows[i]  # val h_ij >= -B iff g_ij = c mod u^low
    a, top = max(low, floor) + B, lams[i] + B  # the free positions of g_ij
    fills = _free_parts(ring, a, top, lams[i] + lams[j], twist[i], kept)
    if j > i + 1:  # c = -u^{lam_j} T, exponent e of c at position e - lam_j + 2B of T
        T = ring.zero
        for k in range(i + 1, j):
            T = ring.add(T, ring.mul(g[i][k], h[k][j]))
        v = ring.minval([T])
        if v is not None and v < min(low, floor) - lams[j] + 2 * B:
            return  # a coefficient of g_ij forced below its floor
        forced = sforced = ring.zero
        for e in range(floor, low):
            c = ring.field.neg(ring.coeff(T, e - lams[j] + 2 * B))
            forced = ring.add(forced, ring.term(c, e + B))
            sforced = ring.add(sforced, _frobenius_term(ring, c, e + B, twist[i]))
        # c at exponents >= low, times -u^{-lam_i-lam_j}: h_ij less its free part
        chi, add = ring.neg(ring.above(T, top)), ring.add
        fills = ((add(forced, F), add(sforced, sF), add(chi, hF)) for F, sF, hF in fills)
    for g[i][j], bsg[i][j], h[i][j] in fills:
        if rest:
            yield from _fill_cells(ring, B, lams, lows, mats, rest, twist, kept)
        else:
            yield


def _product(ring: Packing, h, bsg, terms) -> list:
    """The packed g^-1 b sigma(g): entry (i, j) sums h_{i w(k)} bsg_kj over
    the pairs (w(k), k) of terms[i][j]."""
    mul, add, zero = ring.mul, ring.add, ring.zero
    rows = []
    for hi, row_terms in zip(h, terms):
        row = []
        for j, pairs in enumerate(row_terms):
            acc = zero
            for m, k in pairs:
                acc = mul(hi[m], bsg[k][j]) if acc is zero else add(acc, mul(hi[m], bsg[k][j]))
            row.append(acc)
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# point enumeration


def kisin_points(datum: FrobeniusDatum, mu: Cochar, field: GF, lam_bound: int):
    """All cosets g in the box with dominant elementary divisors of
    g^{-1} b sigma(g) dominated by mu, labeled by their Iwahori stratum:
    a sorted list of (matrix, label), the matrix as rows of printed entries.

    Only f = 1 and n <= 3 are supported; the coefficient field is fixed, so
    this lists the points of the variety rational over that field.  A stratum
    label outside the box raises BoxTooSmallError.

    A coset g is upper triangular with diagonal u^{lam_j}, so det g = u^s
    exactly with s = sum(lam), and det(g^{-1} b sigma(g)) is
    sgn(w) u^{sum(tau) + (p-1)s}.  Dominance by mu needs the exponents to sum
    to sum(mu), so a point has (p - 1)s = sum(mu) - sum(tau), the N = 1 case
    of ``strata.block_sums``: when that has no integer solution there are no
    points, and otherwise only the slice s = s0 is guarded and built.  Every
    coset built is checked against that identity (a singular product or a
    determinant of valuation other than sum(mu) is a TheoremViolationError),
    and only the points get an Iwahori label.  With b = u^tau w, column j of
    g^{-1} b is column w(j) of g^{-1} times u^tau_{w(j)}, and sigma(g) is
    upper triangular, so entry (i, j) of the product sums over k <= j with
    w(k) >= i; row k of sigma(g) is built times u^(tau_{w(k)} - min tau), so
    the product is packed at (p + 1)B - min tau.

    Two exact necessary tests reject cosets before the labels.  The last-row
    floor: g^{-1} is upper triangular, so row n - 1 of the product P is
    u^(-lam_{n-1}) times row n - 1 of b times sigma(g), that is
    u^(tau_{n-1} - lam_{n-1}) sigma(row k of g) with k = w^{-1}(n - 1).  The
    least exponent of a point is d_1 >= min(mu), so every g_kj has
    p val(g_kj) + tau_{n-1} - lam_{n-1} >= min(mu), that is val(g_kj) >=
    ceil((min(mu) + lam_{n-1} - tau_{n-1}) / p), and ``_hnf_cosets`` builds
    only the cosets that meet this floor.  Divisor-sum dominance: d_j, the
    least valuation of a j x j minor of P, is the sum of the j smallest
    exponents, so the exponents are dominated by mu exactly when d_j is at
    least the sum of the j least entries of mu for j < n and d_n = sum(mu).
    ``_divisor_sums`` forms the levels up to the first below its floor and
    then only the determinant's expansion chain, so d_n, and with it the
    determinant check, is formed on every coset built.
    """
    for stratum in enumerate_strata(datum, mu):
        if any(abs(x) > lam_bound for x in stratum.lam[0]):
            raise BoxTooSmallError(
                f"box {lam_bound} too small: stratum label {stratum.lam[0]} outside; rerun larger"
            )
    shape = datum.shape
    if shape.blocks != 1:
        raise PreconditionError("the point oracle only supports f = 1")
    if field.p != shape.p:
        raise ConfigError("field characteristic must match the shape")
    n, p, B = shape.n, shape.p, lam_bound
    if n > 3:
        raise PreconditionError("coset enumeration is limited to n <= 3")
    tau, w = datum.tau[0], datum.w[0]
    sums = block_sums(datum, mu)
    if sums is None:
        return []
    s0, val = sums[0], sum(mu[0])
    _check_guard(n, B, field.q, s0)
    ring = Packing(field, _width(n, p, field.r, B))
    twist = [tau[w[k]] - min(tau) for k in range(n)]
    terms = [[[(w[k], k) for k in range(j + 1) if w[k] >= i] for j in range(n)] for i in range(n)]
    shift = (p + 1) * B - min(tau)
    last_row = (w.index(n - 1), min(mu[0]) - tau[-1])
    floors = list(itertools.accumulate(sorted(mu[0])))[:-1]
    points = []
    for g, h, bsg in _hnf_cosets(n, B, ring, s0, twist, last_row):
        try:
            d = _divisor_sums(ring, _product(ring, h, bsg, terms), shift, floors)
        except SingularMatrixError as exc:
            raise TheoremViolationError(
                f"g^-1 b sigma(g) is singular for the coset {ring.rendered(g, B)}"
            ) from exc
        if d[-1] != val:
            raise TheoremViolationError(
                f"det(g^-1 b sigma(g)) has valuation {d[-1]}, not {val}, "
                f"for the coset {ring.rendered(g, B)}"
            )
        if all(x is not None and x >= y for x, y in zip(d, floors)):
            points.append((ring.rendered(g, B), (iwahori_label(ring, g, B),)))
    points.sort(key=lambda t: (t[1], [e for row in t[0] for e in row]))
    return points
