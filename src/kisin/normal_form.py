"""Caruso normal forms, exact fixed points of wt*sigma, and alcove reduction.

The fixed point of ``u^tau w . sigma`` is obtained by exact linear
elimination of ``e = tau + w(sigma(e))`` (``make_datum``), or transported
from a point already solved: into the alcove (``alcove_reduce``), by a
central twist (``strata.central_twist``) or to a d-copy lift
(``multicopy.make_multi``).  Every solved or transported point is certified
by its defining identity (``_is_fixed_point``).  The closed form from the
simple-module classification is used only as a test oracle.  The map
``w sigma`` scales by the product q of the eps pattern per full block cycle,
so ``1 - w sigma`` is invertible whenever q exceeds 1.

Fixed points are solved and checked in integers over one denominator: the
solver returns (E, D) with e = E / D and D = q^L - 1, L the lcm of the cycle
lengths of the solver's permutation W (``solve_affine_scaled``).  The
defining identity, the alcove test, the alcove reduction and the transport
check all run on (E, D), and the library builds no rational number: the
reports write E / D entry by entry in lowest terms with one gcd
(``cli.ser_ratio``).

Alcove reduction transports a datum along z = u^chi y by formula, with no
group law: z^{-1} wt sigma(z) is u^tau' w' with
tau'_k = y_k^{-1}(tau_k + eps_k w_k(chi_{k+1}) - chi_k) and
w'_k = y_k^{-1} w_k y_{k+1}, and its fixed point is z^{-1}(e), whose
numerators are E'_k = y_k^{-1}(E_k - D chi_k), that is y_k^{-1}(E_k mod D)
when chi holds the floors of e.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from functools import cached_property, lru_cache
from operator import mul

from .core import (
    Cochar,
    ExtAffine,
    GroupShape,
    WeylElt,
    identity_perm,
    n_cycle,
    perm_inv,
    perm_mul,
    twist_block,
)
from .errors import ConfigError, NotInGeneralPositionError, NotSimpleError, TheoremViolationError


class FrobeniusDatum(namedtuple("FrobeniusDatum", "shape wt e_num e_den alcove_ok")):
    """wt = u^tau w together with the exact fixed point e = e_num / e_den of
    wt*sigma, held as integers over one denominator: a GroupShape, an
    ExtAffine, the integer numerators, the positive denominator and whether
    e lies in the alcove.

    No ``__slots__``, so that the cached properties below have a
    ``__dict__`` to fill; they enter neither ``==`` nor the hash.  Any
    assignment is refused, so the datum stays immutable."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: FrobeniusDatum is immutable")

    @cached_property
    def plan(self) -> "_SolvePlan":
        """The solve plan of (shape, w), held by the datum so that its
        per-label calls (twists, joins, chains) read it without a lookup."""
        return _solve_plan(self.shape, self.w)

    @cached_property
    def tau_weight(self) -> int:
        """sum_k E_k sum(tau_k), E_k the solve plan's prefix scales: the part
        of the block-sum identity that mu does not enter, formed once per
        datum for ``strata._label_free``."""
        return sum(map(mul, self.plan.prefix_eps, map(sum, self.tau)))

    @property
    def tau(self) -> Cochar:
        return self.wt.chi

    @property
    def w(self) -> WeylElt:
        return self.wt.w


# ---------------------------------------------------------------------------
# the cyclic affine solver


class _SolvePlan:
    """The data of x = c + w(sigma(x)) fixed by (shape, w); see ``_solve_plan``.

    Built at once: what every reader needs, the prefix scales, q and w's
    inverses.  Built on first read: the solver's prefix permutations,
    cycles, denominators and rows, and the join's and the walk's data of
    ``strata``.  A multi-copy lift reads only the first part."""

    def __init__(self, shape: GroupShape, w: WeylElt):
        self.shape, self.w = shape, w
        self.prefix_eps = tuple(itertools.accumulate(shape.eps, mul, initial=1))  # E_k, for k = 0 .. N
        self.q = self.prefix_eps[-1]  # E_N, the full eps product
        inverse = {wk: perm_inv(wk) for wk in set(w)}
        self.winv = tuple(map(inverse.__getitem__, w))  # w_k^{-1} per block, as core.twist_block reads it

    @cached_property
    def prefix_perm(self) -> tuple:
        """P_k = w_0 ... w_{k-1}, for k = 0 .. N."""
        return tuple(itertools.accumulate(self.w, perm_mul, initial=identity_perm(self.shape.n)))

    @cached_property
    def cycles(self) -> tuple:
        """The cycles of W = P_N, each walked backwards: position i,
        W^{-1}(i), W^{-2}(i), ..."""
        winv = perm_inv(self.prefix_perm[-1])
        seen = [False] * self.shape.n
        cycles = []
        for start in range(self.shape.n):
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(i)
                i = winv[i]
            if cyc:
                cycles.append(tuple(cyc))
        return tuple(cycles)

    @cached_property
    def den(self) -> int:
        """D = q^L - 1, L the lcm of the cycle lengths."""
        return self.q ** math.lcm(*map(len, self.cycles)) - 1

    @cached_property
    def dens(self) -> tuple:
        """Per position i of block 0: 1 - q^|c|, c its cycle."""
        dens = [0] * self.shape.n
        for cyc in self.cycles:
            for i in cyc:
                dens[i] = 1 - self.q ** len(cyc)
        return tuple(dens)

    @cached_property
    def rows(self) -> tuple:
        """Per position i of block 0: the row of x[0][i]'s numerator."""
        n, q = self.shape.n, self.q
        blocks = list(zip(self.prefix_perm, self.prefix_eps[:-1]))
        rows = [None] * n
        for cyc in self.cycles:
            for t0, i in enumerate(cyc):
                # the power of q that b[x] carries in x[0][i]'s numerator, 0 off i's cycle
                scale = [0] * n
                for t, x in enumerate(cyc):
                    scale[x] = q ** ((t - t0) % len(cyc))
                rows[i] = tuple([e * scale[x] for pk, e in blocks for x in pk])
        return tuple(rows)

    @cached_property
    def join(self) -> tuple:
        """(cuts, firsts, moduli) of the join of ``strata``: cuts[k][i] is
        block k's slice of the row of position i, so that the numerator of
        x[0][i] is sum_k <cuts[k][i], rhs[k]>, and firsts holds (c[0],
        q^|c| - 1) per cycle c, the position whose numerator decides the
        cycle's congruence and its modulus; moduli lists those moduli alone."""
        n = self.shape.n
        cuts = tuple(tuple(row[k * n : (k + 1) * n] for row in self.rows) for k in range(self.shape.blocks))
        moduli = tuple(self.q ** len(cyc) - 1 for cyc in self.cycles)
        return cuts, tuple(zip([cyc[0] for cyc in self.cycles], moduli)), moduli

    @cached_property
    def walk(self) -> tuple:
        """The cycles of the position map (k, j) -> (k+1, w_k^-1(j)) that
        the walk of ``strata`` follows, each a tuple of positions in walk
        order: entry t+1 of a cycle is the image of entry t, and the image of
        the last entry is the first.

        Every cycle meets block 0.  The walk from (0, i) meets block k at
        P_k^-1(i) and comes back to block 0 at W^-1(i), so each of
        ``cycles``, a cycle of W read backwards, is one walk cycle, in the
        order of its least position of block 0."""
        inv = [perm_inv(pk) for pk in self.prefix_perm[:-1]]
        return tuple(tuple((k, pk[i]) for i in cyc for k, pk in enumerate(inv)) for cyc in self.cycles)


@lru_cache(maxsize=256)  # one plan per (shape, w); eviction only rebuilds
def _solve_plan(shape: GroupShape, w: WeylElt) -> _SolvePlan:
    """Unroll the block recurrence x[k] = rhs[k] + eps[k] w_k(x[k+1]).

    Substituting around the cycle of blocks reduces to the single-block system
    (1 - q W) x[0] = b, b = sum_k E_k P_k(rhs[k]), with q the full eps
    product, E_k and P_k = w_0 ... w_{k-1} the prefix scales and
    permutations, and W = P_N; that system splits along the cycles of the
    permutation W.  D = q^L - 1 with L the lcm of the cycle lengths, so every
    q^|c| - 1 divides D.

    The rows.  Walk each cycle c of W backwards (c[t+1] = W^{-1}(c[t])) and
    let t(x) be the step of position x on its cycle.  At i = c[t0], x[0][i]
    is sum_t q^t b[c[(t0 + t) mod |c|]], t from 0 to |c| - 1, over
    1 - q^|c|.  Since rhs[k][j] lands in b[P_k(j)] scaled by E_k, and
    b[P_k(j)] enters that sum only when P_k(j) lies on i's cycle, as the term
    with c[(t0 + t) mod |c|] = P_k(j), that is t = (t(P_k j) - t0) mod |c|,
    the numerator is the product of the flat right side (rhs[0], ..., rhs[N-1])
    with the row of i whose entry at (k, j) is
    E_k q^((t(P_k j) - t(i)) mod |c|) when P_k(j) lies on i's cycle and 0
    otherwise.  The rows and the denominators 1 - q^|c| are stored per
    position of block 0, so ``_solve_block0`` is one integer matrix-vector
    product.

    The residues.  The numerators on one cycle are congruent to each other up
    to powers of q modulo q^|c| - 1, so x[0] is integral iff the one at c's
    first position is divisible by q^|c| - 1, a congruence that only the
    join of ``strata`` reads (``_SolvePlan.join``).

    The plan also holds each w_k^{-1}, which ``core.twist_block`` reads.
    Only the prefix scales, q and those inverses are built here; the rest is
    built on first read (``_SolvePlan``), once per plan.
    """
    return _SolvePlan(shape, w)


def _solve_block0(plan: _SolvePlan, flat) -> list:
    """The integer numerators of x[0] over plan.dens for the system
    x = rhs + w(sigma(x)), rhs integral, from the flat right side
    (rhs[0], ..., rhs[N-1]) as one sequence: its product with each of the
    plan's rows."""
    return [sum(map(mul, row, flat)) for row in plan.rows]


def solve_affine_scaled(shape: GroupShape, w: WeylElt, rhs: Cochar):
    """The solution of x = rhs + w(sigma(x)) for integral rhs, as integers
    over one denominator: (E, D) with x = E / D and D = q^L - 1 (see
    ``_solve_plan``).  Block 0 is x[0]'s numerators over 1 - q^|c|, each
    scaled by D / (1 - q^|c|) for its cycle c; blocks N-1 .. 1 follow in
    integers, E_k = D rhs_k + eps_k w_k(E_{k+1}).

    The system is always uniquely solvable: ``GroupShape`` refuses an eps
    pattern that is all 1, and every eps entry is 1 or p, so q >= p >= 2,
    no 1 - q^|c| vanishes and D >= 1."""
    plan = _solve_plan(shape, w)
    den, nblocks = plan.den, shape.blocks
    nums = _solve_block0(plan, tuple(itertools.chain.from_iterable(rhs)))
    out = [tuple([nu * (den // de) for nu, de in zip(nums, plan.dens)])] * nblocks
    for k in range(nblocks - 1, 0, -1):
        out[k] = twist_block(rhs[k], plan.winv[k], shape.eps[k], out[(k + 1) % nblocks], den)
    return tuple(out), den


def _is_fixed_point(shape: GroupShape, wt: ExtAffine, num: Cochar, den: int) -> bool:
    """Whether num / den is the fixed point of wt*sigma: the identity
    e = tau + w(sigma(e)) times D, E_k = D tau_k + eps_k w_k(E_{k+1}) for
    every block k.  The fixed point is unique (q >= 2, see
    ``solve_affine_scaled``), so the identity certifies the point
    completely, with no second solve."""
    winv = _solve_plan(shape, wt.w).winv
    twisted = (twist_block(t, wi, e, v, den) for t, wi, e, v in zip(wt.chi, winv, shape.eps, num[1:] + num[:1]))
    return num == tuple(twisted)


def make_datum(shape: GroupShape, wt: ExtAffine) -> FrobeniusDatum:
    shape.check_cochar(wt.chi)
    shape.check_weyl(wt.w)
    num, den = solve_affine_scaled(shape, wt.w, wt.chi)
    if not _is_fixed_point(shape, wt, num, den):
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
        blk = twist_block(wt.chi[k], perm_inv(wt.w[k]), shape.eps[k], chi[nxt], 1)
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
    - chi_k) and w'_k = y_k^{-1} w_k y_{k+1}.  E' / D must be the
    transported datum's fixed point, certified by its defining identity
    (``_is_fixed_point``).
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
    if not _is_fixed_point(shape, wt2, num2, den):
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

    The shape is built first, so that n < 1, f < 1 and a p that is not prime
    are refused (ConfigError) before q = p^f is formed.  For n = 1 every m
    is simple, but the fixed point -m/(q - 1) is integral when q - 1 divides
    m, and such a datum is refused as not in general position; for n > 1
    simplicity already excludes an integral entry."""
    shape = GroupShape.res_field(n, f, p)
    q = p**f
    if not is_caruso_simple(n, q, m):
        raise NotSimpleError(f"(n={n}, q={q}, m={m}) is not simple")
    if n == 1 and m % (q - 1) == 0:
        raise NotInGeneralPositionError(f"(n=1, q={q}, m={m}) has the integral fixed point {-m // (q - 1)}")
    tau = ((m,) + (0,) * (n - 1),) + ((0,) * n,) * (f - 1)
    w = (n_cycle(n),) + (identity_perm(n),) * (f - 1)
    datum = make_datum(shape, ExtAffine(tau, w))
    den = datum.e_den
    if any(x % den == 0 for b in datum.e_num for x in b):
        raise TheoremViolationError("simple datum has an integral fixed-point entry")
    _, reduced = alcove_reduce(datum)
    return reduced
