"""Brute-force ground truth at tiny scale: literal points of the variety over
small finite fields, as Hermite-style lattice cosets with exact Laurent
arithmetic.

Coefficients live in F_{p^r} with r <= 2 (the Frobenius fixes coefficients and
sends u to u^p, so points over a subfield are honest points of the variety).
Every series is an exact Laurent polynomial: coset representatives are upper
triangular with monomial diagonal, so their inverses are Laurent polynomials
too, and ``_hnf_cosets`` builds each inverse column by column alongside its
coset, which lets the box bound fix coefficients instead of rejecting
candidates.  The twisting element u^tau w is monomial, so the twist is a
reindexing and a shift, and no computation ever truncates.  Elementary
divisors come from determinantal divisors (minimal valuations of minors);
Iwahori labels come from a pivot elimination, ``_eliminate``, which never
inverts a field element.

``kisin_points`` is pruned by the determinant.  A coset g has det g = u^s,
s the sum of its diagonal exponents, so det(g^{-1} b sigma(g)) =
sgn(w) u^{sum(tau) + (p-1)s}, and the elementary divisors of a point sum to
sum(mu).  Only the slice of cosets with (p - 1)s = sum(mu) - sum(tau) can
hold points: none when p - 1 does not divide that gap.  Only that slice is
guarded and built, the product is formed from each coset's inverse, each
built coset's determinant is checked against the identity, and only the
points are labeled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import Cochar, _dominated
from .errors import (
    BoxTooSmallError,
    ConfigError,
    PreconditionError,
    SingularMatrixError,
    TheoremViolationError,
)
from .normal_form import FrobeniusDatum


# ---------------------------------------------------------------------------
# small finite fields with precomputed tables


class GF:
    """F_{p^r} for r in {1, 2}; elements are ints 0..q-1 (index a + p*b <-> a + b*t)."""

    def __init__(self, p: int, r: int = 1):
        if r not in (1, 2):
            raise ConfigError("coefficient fields are limited to r <= 2")
        self.p, self.r, self.q = p, r, p**r
        q = self.q
        if r == 1:
            add = [[(a + b) % p for b in range(p)] for a in range(p)]
            mul = [[(a * b) % p for b in range(p)] for a in range(p)]
        else:
            bc = self._irreducible_quadratic(p)
            B, C = bc
            add = [
                [((a % p + b % p) % p) + p * ((a // p + b // p) % p) for b in range(q)]
                for a in range(q)
            ]
            mul = []
            for x in range(q):
                a1, b1 = x % p, x // p
                row = []
                for y in range(q):
                    a2, b2 = y % p, y // p
                    lo = (a1 * a2 - C * b1 * b2) % p
                    hi = (a1 * b2 + a2 * b1 - B * b1 * b2) % p
                    row.append(lo + p * hi)
                mul.append(row)
            self._t_poly = bc
        self._add = tuple(tuple(row) for row in add)
        self._mul = tuple(tuple(row) for row in mul)
        neg = [0] * q
        for x in range(q):
            for y in range(q):
                if self._add[x][y] == 0:
                    neg[x] = y
        self._neg = tuple(neg)
        self.zero, self.one = 0, 1

    @staticmethod
    def _irreducible_quadratic(p: int):
        # x^2 + Bx + C with no root mod p
        for B in range(p):
            for C in range(1, p):
                if all((x * x + B * x + C) % p for x in range(p)):
                    return B, C
        raise ConfigError("no irreducible quadratic found")  # unreachable for prime p

    def add(self, a, b):
        return self._add[a][b]

    def mul(self, a, b):
        return self._mul[a][b]

    def neg(self, a):
        return self._neg[a]

    def elements(self):
        return range(self.q)

    def elem_str(self, x) -> str:
        if self.r == 1 or x < self.p:
            return str(x)
        a, b = x % self.p, x // self.p
        bt = "t" if b == 1 else f"{b}*t"
        return bt if a == 0 else f"{bt}+{a}"

    def __repr__(self):
        return f"GF({self.p}^{self.r})" if self.r > 1 else f"GF({self.p})"


# ---------------------------------------------------------------------------
# Laurent polynomials


class LSeries:
    """The exact Laurent polynomial sum coeffs[t] u^(offset+t) over a GF."""

    __slots__ = ("field", "offset", "coeffs")

    def __init__(self, field: GF, offset: int, coeffs):
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

    # -- constructors -------------------------------------------------------

    @classmethod
    def _stripped(cls, field: GF, offset: int, coeffs: tuple):
        """The series of coeffs, whose end entries are known to be nonzero
        (or which is empty); skips the normalization."""
        s = object.__new__(cls)
        s.field, s.offset, s.coeffs = field, offset, coeffs
        return s

    @classmethod
    def zero(cls, field: GF):
        return cls(field, 0, ())

    @classmethod
    def monomial(cls, field: GF, exp: int, coeff=1):
        return cls(field, exp, (coeff,))

    # -- arithmetic ---------------------------------------------------------

    def add(self, other: "LSeries") -> "LSeries":
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

    def neg(self) -> "LSeries":
        neg = self.field._neg
        # from a list, not a generator: tuple(generator) grows by resizing,
        # which over a coset survey cost the allocator one more arena
        return LSeries._stripped(self.field, self.offset, tuple([neg[c] for c in self.coeffs]))

    def sub(self, other: "LSeries") -> "LSeries":
        return self.add(other.neg())

    def mul(self, other: "LSeries") -> "LSeries":
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

    def shift(self, k: int) -> "LSeries":
        if not self.coeffs:
            return self
        return LSeries._stripped(self.field, self.offset + k, self.coeffs)

    def frobenius(self, p: int) -> "LSeries":
        """u -> u^p with coefficients fixed."""
        if not self.coeffs:
            return self
        out = [0] * (p * (len(self.coeffs) - 1) + 1)
        for t, c in enumerate(self.coeffs):
            out[p * t] = c
        return LSeries(self.field, p * self.offset, out)

    # -- misc ---------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# matrices


@dataclass(frozen=True, slots=True)
class TruncMat:
    """Square matrix of Laurent polynomials."""

    field: GF
    n: int
    rows: tuple  # tuple of tuple of LSeries


def mat_from_rows(field: GF, rows) -> TruncMat:
    rows = tuple(tuple(r) for r in rows)
    return TruncMat(field, len(rows), rows)


def mat_frobenius(a: TruncMat, p: int) -> TruncMat:
    return mat_from_rows(a.field, [[e.frobenius(p) for e in row] for row in a.rows])


# ---------------------------------------------------------------------------
# Cartan and Iwahori reductions


def elementary_divisors(m: TruncMat) -> Cochar:
    """Exponents of the Cartan double coset of m, as one dominant block.

    The k-th determinantal divisor d_k, the least valuation of a k x k minor,
    is the sum of the k smallest exponents, so the exponents are the
    differences d_k - d_{k-1} (d_0 = 0).  Each minor is computed once: the
    k x k minor on rows R and columns C by expansion along the first row of R,
    from the (k - 1) x (k - 1) minors on the other rows of R; the n x n minor
    is the determinant.  Raises SingularMatrixError if det m = 0, which is so
    exactly when every k x k minor vanishes for some k.
    """
    n, rows = m.n, m.rows
    zero = LSeries.zero(m.field)
    # minors[R][C] for the k-subsets R of rows and C of columns
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


def _select_pivot(work, alive_rows, alive_cols):
    """(i, j, val) of a minimal-valuation entry, topmost row first.

    Raises SingularMatrixError if every alive entry is zero.
    """
    best = None
    for i in alive_rows:  # ascending, so the first minimum found is topmost
        for j in alive_cols:
            e = work[i][j]
            if e.coeffs and (best is None or e.offset < best[2]):
                best = (i, j, e.offset)
    if best is None:
        raise SingularMatrixError("matrix is singular")
    return best


def _eliminate(m: TruncMat) -> list:
    """(pivot row, valuation) of each step of the reduction of m to a
    monomial matrix by left-I row and right-G(O) column operations, I the
    preimage of the lower Borel.

    Each step takes a minimal-valuation pivot, clears its column with row
    operations and then its row with column operations; rows and columns are
    rescaled by the pivot's unit part (cross-multiplication), so no entry is
    ever inverted.  The pivot is the topmost of minimal valuation, so a row
    above it has strictly larger valuation in the pivot column and its
    coefficient q = entry/pivot lies in uO, as I requires; this is asserted.
    """
    n = m.n
    work = [list(row) for row in m.rows]
    alive_rows = list(range(n))
    alive_cols = list(range(n))
    steps = []
    while alive_rows:
        ip, jp, v = _select_pivot(work, alive_rows, alive_cols)
        steps.append((ip, v))
        unit = work[ip][jp].shift(-v)
        for i in alive_rows:
            if i == ip:
                continue
            q = work[i][jp].shift(-v)
            if not q.coeffs:
                continue
            if i < ip and q.offset < 1:
                raise PreconditionError("pivot selection violated the Iwahori row order")
            for j in alive_cols:
                work[i][j] = unit.mul(work[i][j]).sub(q.mul(work[ip][j]))
        for j in alive_cols:
            if j == jp:
                continue
            q = work[ip][j].shift(-v)
            if not q.coeffs:
                continue
            for i in alive_rows:
                work[i][j] = unit.mul(work[i][j]).sub(q.mul(work[i][jp]))
        alive_rows.remove(ip)
        alive_cols.remove(jp)
    return steps


def iwahori_label(g: TruncMat) -> tuple:
    """The unique lam with g in I u^lam G(O), I the preimage of the lower Borel.

    The elimination uses right-G(O) column operations and left-I row
    operations, so lam_i is the valuation of the pivot taken in row i.
    """
    lam = [None] * g.n
    for i, v in _eliminate(g):
        lam[i] = v
    return tuple(lam)


# ---------------------------------------------------------------------------
# coset enumeration


# The guard of the coset generator: a bound on the candidate product of one
# diagonal-sum slice (every upper triangular g of the box shape with that
# diagonal sum, before the box lower bound), which bounds the cosets built.
MAX_CANDIDATES = 2_000_000


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


def _hnf_cosets(n: int, B: int, field: GF, s: int) -> Iterator[tuple[TruncMat, TruncMat]]:
    """Hermite-style representatives of the lattices between u^B O^n and
    u^{-B} O^n whose diagonal exponents sum to s: upper triangular g,
    diagonal u^{lam_j} with |lam_j| <= B and sum(lam) = s, entry (i, j)
    reduced modulo u^{lam_i} with valuation >= -B, and u^B g^{-1} integral.
    Complete and duplicate-free for that slice of the box; unguarded.

    The inverse h = g^{-1} is upper triangular and its column j depends only
    on the columns <= j of g, so both are built one column at a time, each
    column bottom-up.  With c = -u^{lam_j} sum_{i<k<j} g_ik h_kj already
    known, h_ij = -u^{-lam_i-lam_j} (g_ij - c), so val h_ij >= -B says
    g_ij = c mod u^{lam_i+lam_j-B}: the coefficients of g_ij below that
    exponent are forced (the partial choice dies if one is forced below -B),
    and only those from max(lam_i+lam_j-B, -B) up to lam_i are free.  Every
    matrix built is a coset.

    Yields (g, g^{-1}) per coset.
    """
    zero = LSeries.zero(field)
    cells = [(i, j) for j in range(n) for i in reversed(range(j))]
    for lams in _slice_diagonals(n, B, s):
        g = [[zero] * n for _ in range(n)]
        h = [[zero] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = LSeries.monomial(field, lams[i])
            h[i][i] = LSeries.monomial(field, -lams[i])
        for _ in _fill_cells(field, B, lams, g, h, cells):
            yield mat_from_rows(field, g), mat_from_rows(field, h)


def _fill_cells(field: GF, B: int, lams, g, h, cells) -> Iterator[None]:
    """Fill g and h at cells[0], cells[1], ... in place, yielding once per
    completion that keeps val h >= -B."""
    if not cells:
        yield
        return
    (i, j), rest = cells[0], cells[1:]
    c = LSeries.zero(field)
    for k in range(i + 1, j):
        c = c.add(g[i][k].mul(h[k][j]))
    c = c.shift(lams[j]).neg()
    low = lams[i] + lams[j] - B  # val h_ij >= -B iff g_ij = c mod u^low
    if c.coeffs and c.offset < min(low, -B):
        return  # a coefficient of g_ij forced below -B
    forced = [c.coeffs[e - c.offset] if 0 <= e - c.offset < len(c.coeffs) else 0 for e in range(-B, low)]
    shift = -lams[i] - lams[j]
    for coeffs in itertools.product(field.elements(), repeat=lams[i] - max(low, -B)):
        g[i][j] = LSeries(field, -B, forced + list(coeffs))
        h[i][j] = c.sub(g[i][j]).shift(shift)
        yield from _fill_cells(field, B, lams, g, h, rest)


# ---------------------------------------------------------------------------
# point enumeration


def kisin_points(datum: FrobeniusDatum, mu: Cochar, field: GF, lam_bound: int):
    """All cosets g in the box with dominant elementary divisors of
    g^{-1} b sigma(g) dominated by mu, labeled by their Iwahori stratum.

    Only f = 1 and n <= 3 are supported; the coefficient field is fixed, so
    this lists the points of the variety rational over that field.  A stratum
    label outside the box raises BoxTooSmallError.

    A coset g is upper triangular with diagonal u^{lam_j}, so det g = u^s
    exactly with s = sum(lam), and det(g^{-1} b sigma(g)) is
    sgn(w) u^{sum(tau) + (p-1)s}.  Dominance by mu needs the exponents to sum
    to sum(mu), so a point has (p - 1)s = sum(mu) - sum(tau): when p - 1 does
    not divide the gap there are no points, and otherwise only the slice
    s = s0 is guarded and built, each coset with its inverse.  Every coset
    built is checked against that identity (a singular product or a
    determinant of another valuation is a TheoremViolationError), and only
    the points get an Iwahori label.

    With b = u^tau w monomial, column j of g^{-1} b is column w(j) of g^{-1}
    shifted by tau_{w(j)}, and sigma(g) is upper triangular, so the product
    sums over k <= j only.
    """
    from .strata import enumerate_strata  # local import to avoid a cycle at import time

    for stratum in enumerate_strata(datum, mu):
        if any(abs(x) > lam_bound for x in stratum.lam[0]):
            raise BoxTooSmallError(
                f"box {lam_bound} too small: stratum label {stratum.lam[0]} outside; rerun larger"
            )
    shape = datum.shape
    if shape.blocks != 1:
        raise PreconditionError("the point oracle only supports f = 1")
    if not datum.alcove_ok:
        raise PreconditionError("datum's fixed point is not in the alcove")
    if field.p != shape.p:
        raise ConfigError("field characteristic must match the shape")
    n, p = shape.n, shape.p
    if n > 3:
        raise PreconditionError("coset enumeration is limited to n <= 3")
    tau, w = datum.tau[0], datum.w[0]
    tau_sum = sum(tau)
    s0, rem = divmod(sum(mu[0]) - tau_sum, p - 1)
    if rem:
        return []
    val = tau_sum + (p - 1) * s0
    _check_guard(n, lam_bound, field.q, s0)
    zero = LSeries.zero(field)
    points = []
    for g, h in _hnf_cosets(n, lam_bound, field, s0):
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
        try:
            ed = elementary_divisors(mat_from_rows(field, rows))
        except SingularMatrixError as exc:
            raise TheoremViolationError(
                f"g^-1 b sigma(g) is singular for the coset {g.rows}"
            ) from exc
        if sum(ed) != val:
            raise TheoremViolationError(
                f"det(g^-1 b sigma(g)) has valuation {sum(ed)}, not {val}, "
                f"for the coset {g.rows}"
            )
        if _dominated((ed,), mu):
            points.append((g, (iwahori_label(g),)))
    points.sort(key=lambda t: (t[1], [repr(e) for row in t[0].rows for e in row]))
    return points
