"""Caruso normal forms, exact fixed points of wt*sigma, and alcove reduction.

The fixed point of ``u^tau w . sigma`` is always obtained by exact linear
elimination of ``e = tau + w(sigma(e))``; the closed form from the
simple-module classification is used only as a test oracle.  The map
``w sigma`` scales by the product q of the eps pattern per full block cycle,
so ``1 - w sigma`` is invertible whenever q exceeds 1.

Fixed points are solved and checked in integers over one denominator: the
solver returns (E, D) with e = E / D and D = q^L - 1, L the lcm of the cycle
lengths of the solver's permutation W (``solve_affine_scaled``).  The
defining identity, the alcove test, the alcove reduction and the transport
check all run on (E, D).  ``Fraction``s appear only in ``FrobeniusDatum.e``,
built once from E / D.

Alcove reduction transports a datum along z = u^chi y by formula, with no
group law: z^{-1} wt sigma(z) is u^tau' w' with
tau'_k = y_k^{-1}(tau_k + eps_k w_k(chi_{k+1}) - chi_k) and
w'_k = y_k^{-1} w_k y_{k+1}, and its fixed point is z^{-1}(e), whose
numerators are E'_k = y_k^{-1}(E_k - D chi_k), that is y_k^{-1}(E_k mod D)
when chi holds the floors of e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

from .core import (
    Cochar,
    ExtAffine,
    GroupShape,
    WeylElt,
    act_perm,
    cochar_scale,
    identity_perm,
    n_cycle,
    perm_inv,
    perm_mul,
    twist_block,
)
from .errors import ConfigError, NotInGeneralPositionError, NotSimpleError, TheoremViolationError


@dataclass(frozen=True)
class FrobeniusDatum:
    """wt = u^tau w together with the exact fixed point e = e_num / e_den of
    wt*sigma, held as integers over one denominator."""

    shape: GroupShape
    wt: ExtAffine
    e_num: Cochar  # integer entries
    e_den: int  # positive
    alcove_ok: bool

    @cached_property
    def e(self) -> Cochar:
        """The fixed point with rational entries, built on first use."""
        return tuple(tuple(Fraction(x, self.e_den) for x in b) for b in self.e_num)

    @property
    def tau(self) -> Cochar:
        return self.wt.chi

    @property
    def w(self) -> WeylElt:
        return self.wt.w


# ---------------------------------------------------------------------------
# the cyclic affine solver


@lru_cache(maxsize=256)  # one plan per (shape, w); eviction only rebuilds
def _solve_plan(shape: GroupShape, w: WeylElt):
    """Unroll the block recurrence x[k] = c[k] + eps[k] w_k(x[k+1]).

    Substituting around the cycle of blocks reduces to the single-block system
    (1 - q W) x[0] = sum_k E_k P_k(c[k]) with q the full eps product,
    P_k = w_0 ... w_{k-1} and W = P_N; that system splits along the cycles of
    the permutation W.  Returns (prefix scales E_k, prefix perms P_k, q,
    cycles of W, the common denominator D, moduli, residue coefficients)
    reused across many right-hand sides.  D = q^L - 1 with L the lcm of the
    cycle lengths, so every q^|c| - 1 divides D.

    The numerators of x[0] on a cycle c are integers congruent to each other
    up to powers of q modulo q^|c| - 1, so x[0] is integral iff the one at
    c's first position, sum_t q^t b[c_t], is divisible by q^|c| - 1.  That
    numerator is sum_k <coef[k][c], rhs[k]>, since rhs[k][j] lands in
    b[P_k(j)] scaled by E_k; the coefficients are stored reduced modulo
    q^|c| - 1 (the moduli, one per cycle).
    """
    nblocks, n = shape.blocks, shape.n
    prefix_eps = [1] * (nblocks + 1)
    prefix_perm = [identity_perm(n)]
    for k in range(nblocks):
        prefix_eps[k + 1] = prefix_eps[k] * shape.eps[k]
        prefix_perm.append(perm_mul(prefix_perm[-1], w[k]))
    q = prefix_eps[nblocks]
    big_w = prefix_perm[nblocks]
    # cycles of big_w, walked backwards: position i, W^{-1}(i), W^{-2}(i), ...
    winv = perm_inv(big_w)
    seen = [False] * n
    cycles = []
    for start in range(n):
        if seen[start]:
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = winv[i]
        cycles.append(tuple(cyc))
    moduli = tuple(q ** len(cyc) - 1 for cyc in cycles)
    den = q ** math.lcm(*map(len, cycles)) - 1
    place = {}  # position i -> (cycle index, step t with cyc[t] == i)
    for ci, cyc in enumerate(cycles):
        for t, i in enumerate(cyc):
            place[i] = (ci, t)
    coefs = []
    for k in range(nblocks):
        rows = [[0] * n for _ in cycles]
        for j in range(n):
            ci, t = place[prefix_perm[k][j]]
            rows[ci][j] = prefix_eps[k] * q**t % moduli[ci]
        coefs.append(tuple(map(tuple, rows)))
    return tuple(prefix_eps), tuple(prefix_perm), q, tuple(cycles), den, moduli, tuple(coefs)


def _solve_block0(shape: GroupShape, w: WeylElt, rhs: Cochar):
    """Integer numerators and per-position denominators 1 - q^|c| for x[0]
    of the system x = rhs + w(sigma(x)); both are exact ints when rhs is
    integral."""
    prefix_eps, prefix_perm, q, cycles, *_ = _solve_plan(shape, w)
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


def _back_substitute(shape: GroupShape, w: WeylElt, rhs: Cochar, x0, scale: int):
    """The blocks X_k = scale rhs_k + eps_k w_k(X_{k+1}) from X_0 = x0 down,
    that is scale times the solution whose block 0 is x0 / scale."""
    nblocks = shape.blocks
    out = [None] * nblocks
    out[0] = tuple(x0)
    for k in range(nblocks - 1, 0, -1):
        out[k] = twist_block(rhs[k], w[k], shape.eps[k], out[(k + 1) % nblocks], scale)
    return tuple(out)


def solve_affine_scaled(shape: GroupShape, w: WeylElt, rhs: Cochar):
    """The solution of x = rhs + w(sigma(x)) for integral rhs, as integers
    over one denominator: (E, D) with x = E / D and D = q^L - 1 (see
    ``_solve_plan``).  Block 0 is x[0]'s numerators over 1 - q^|c|, each
    scaled by D / (1 - q^|c|) for its cycle c; the other blocks follow in
    integers.

    The system is always uniquely solvable: ``GroupShape`` refuses an eps
    pattern that is all 1, and every eps entry is 1 or p, so q >= p >= 2,
    no 1 - q^|c| vanishes and D >= 1."""
    nums, dens = _solve_block0(shape, w, rhs)
    den = _solve_plan(shape, w)[4]
    x0 = [nu * (den // de) for nu, de in zip(nums, dens)]
    return _back_substitute(shape, w, rhs, x0, den), den


def solve_affine_integral(shape: GroupShape, w: WeylElt, rhs: Cochar):
    """Integral solution of x = rhs + w(sigma(x)), or None if none exists;
    solvable as in ``solve_affine_scaled``."""
    nums, dens = _solve_block0(shape, w, rhs)
    x0 = []
    for nu, de in zip(nums, dens):
        quot, rem = divmod(nu, de)
        if rem:
            return None
        x0.append(quot)
    return _back_substitute(shape, w, rhs, x0, 1)


def _fixed_point_scaled(shape: GroupShape, wt: ExtAffine):
    """(E, D) with E / D the fixed point of wt*sigma."""
    shape.check_cochar(wt.chi)
    shape.check_weyl(wt.w)
    return solve_affine_scaled(shape, wt.w, wt.chi)


def _same_point(num: Cochar, den: int, num2: Cochar, den2: int) -> bool:
    """Whether num / den == num2 / den2, by cross-multiplying."""
    return num == num2 if den == den2 else cochar_scale(den2, num) == cochar_scale(den, num2)


def make_datum(shape: GroupShape, wt: ExtAffine) -> FrobeniusDatum:
    num, den = _fixed_point_scaled(shape, wt)
    # E = D tau + w(sigma(E)), the identity e = tau + w(sigma(e)) times D
    twisted = (twist_block(t, wk, e, v, den) for t, wk, e, v in zip(wt.chi, wt.w, shape.eps, num[1:] + num[:1]))
    if num != tuple(twisted):
        raise TheoremViolationError("fixed point fails its defining identity")
    return FrobeniusDatum(shape, wt, num, den, in_alcove(num, den))


# ---------------------------------------------------------------------------
# alcove geometry


def in_alcove(e: Cochar, den: int) -> bool:
    """Whether e / den is in the alcove: per block, strictly decreasing with
    spread strictly less than 1, that is e_0 - e_{n-1} < den."""
    for b in e:
        if any(b[i] <= b[i + 1] for i in range(len(b) - 1)):
            return False
        if b[0] - b[-1] >= den:
            return False
    return True


def in_general_position(e: Cochar, den: int) -> bool:
    """Whether e / den has no integral entry and no integral pairwise
    difference within a block: no entry or difference of e is 0 mod den."""
    for b in e:
        if any(x % den == 0 for x in b):
            return False
        for i in range(len(b)):
            for j in range(i + 1, len(b)):
                if (b[i] - b[j]) % den == 0:
                    return False
    return True


def _transport_point(z: ExtAffine, num: Cochar, den: int) -> Cochar:
    """den * z^{-1}(num / den) for z = u^chi y: block k is
    y_k^{-1}(num_k - den chi_k), whose place t holds the entry at y_k(t)."""
    return tuple(tuple(b[i] - den * c[i] for i in y) for b, c, y in zip(num, z.chi, z.w))


def _transport_datum(shape: GroupShape, z: ExtAffine, wt: ExtAffine) -> ExtAffine:
    """z^{-1} wt sigma(z) for z = u^chi y and wt = u^tau w:
    tau'_k = y_k^{-1}(tau_k + eps_k w_k(chi_{k+1}) - chi_k) and
    w'_k = y_k^{-1} w_k y_{k+1}."""
    chi, ys, nblocks = z.chi, z.w, shape.blocks
    tau, w = [], []
    for k, y in enumerate(ys):
        nxt = (k + 1) % nblocks
        blk = twist_block(wt.chi[k], wt.w[k], shape.eps[k], chi[nxt], 1)
        tau.append(tuple(blk[i] - chi[k][i] for i in y))
        w.append(perm_mul(perm_inv(y), perm_mul(wt.w[k], ys[nxt])))
    return ExtAffine(tau, w)


def alcove_reduce(datum: FrobeniusDatum):
    """Conjugate a datum so its fixed point lies in the fundamental alcove.

    Returns (z, datum') with z = u^chi y, datum'.wt = z^{-1} wt sigma(z) and
    fixed point z^{-1}(e) in the alcove.  Per block, chi subtracts the floors
    of e and y sorts the fractional parts into decreasing order; ties are
    impossible for simple data and raise instead of being broken arbitrarily.
    With e = E / D the floors are E // D, and the transport is by formula
    (``_transport_point``, ``_transport_datum``):
    E'_k = y_k^{-1}(E_k mod D), tau'_k = y_k^{-1}(tau_k + eps_k w_k(chi_{k+1})
    - chi_k) and w'_k = y_k^{-1} w_k y_{k+1}.  The transported datum's own
    fixed point must equal E' / D, checked by cross-multiplying.
    """
    shape, num, den = datum.shape, datum.e_num, datum.e_den
    if in_alcove(num, den):
        return ExtAffine(shape.zero_cochar(), shape.identity_weyl()), datum
    if not in_general_position(num, den):
        raise NotInGeneralPositionError("fixed point not in general position")
    chi_blocks = []
    perms = []
    for b in num:
        frac = [x % den for x in b]
        # y(t) = order[t] puts the t-th largest fractional part in slot t
        chi_blocks.append(tuple(x // den for x in b))
        perms.append(tuple(sorted(range(len(b)), key=lambda i: -frac[i])))
    z = ExtAffine(chi_blocks, perms)
    num2 = _transport_point(z, num, den)
    if not in_alcove(num2, den):
        raise TheoremViolationError("alcove reduction produced a point outside the alcove")
    wt2 = _transport_datum(shape, z, datum.wt)
    if not _same_point(*_fixed_point_scaled(shape, wt2), num2, den):
        raise TheoremViolationError("transported fixed point mismatch")
    return z, FrobeniusDatum(shape, wt2, num2, den, True)


# ---------------------------------------------------------------------------
# Caruso representatives


def is_caruso_simple(n: int, q: int, m: int) -> bool:
    """m*(q^n' - 1)/(q^n - 1) is a non-integer for every proper divisor n' of n."""
    if n < 1 or q < 2:
        raise ConfigError("need n >= 1 and prime power q >= 2")
    denom = q**n - 1
    for np in range(1, n):
        if n % np == 0 and (m * (q**np - 1)) % denom == 0:
            return False
    return True


def caruso_datum(n: int, f: int, p: int, m: int) -> FrobeniusDatum:
    """The simple representative u^{(m,0,...,0)} (n-cycle) on the first block,
    solved for its fixed point and reduced into the alcove.

    For n = 1 every m is simple, but the fixed point -m/(q - 1) is integral
    when q - 1 divides m, and such a datum is refused as not in general
    position; for n > 1 simplicity already excludes an integral entry."""
    if not is_caruso_simple(n, p**f, m):
        raise NotSimpleError(f"(n={n}, q={p**f}, m={m}) is not simple")
    if n == 1 and m % (p**f - 1) == 0:
        raise NotInGeneralPositionError(f"(n=1, q={p**f}, m={m}) has the integral fixed point {-m // (p**f - 1)}")
    shape = GroupShape.res_field(n, f, p)
    tau = ((m,) + (0,) * (n - 1),) + ((0,) * n,) * (f - 1)
    w = (n_cycle(n),) + (identity_perm(n),) * (f - 1)
    datum = make_datum(shape, ExtAffine(tau, w))
    den = datum.e_den
    if any(x % den == 0 for b in datum.e_num for x in b):
        raise TheoremViolationError("simple datum has an integral fixed-point entry")
    _, reduced = alcove_reduce(datum)
    return reduced
