"""Root-datum, cocharacter and twisted-Frobenius arithmetic for products of GL_n.

Everything is exact: cocharacters are tuples of tuples of ints (a rational one,
such as a fixed point, is held as integer numerators over one denominator),
Weyl elements are tuples of permutations, and no floating point appears
anywhere.  The block structure of the group, including the twisted
Frobenius scaling pattern, lives in :class:`GroupShape`; the Res_{k/F_p}GL_n case
and its d-copy variants share every algorithm and differ only in that data.

Conventions (fixed once, used everywhere):

* permutations are 0-indexed tuples ``perm`` with ``perm[i]`` the image of ``i``;
* the Weyl action on cochar blocks is the place permutation
  ``(w.v)[i] = v[w^{-1}(i)]``, the unique convention with ``u^{w(v)} = w u^v w^{-1}``;
* the Frobenius on cochars is ``sigma(v)[k] = eps[k] * v[k+1]`` with cyclic block
  index, and on Weyl elements the block shift without the scaling.

The twisted Frobenius ``v -> tau + w(sigma(v))`` of a datum u^tau w, whose
block k is ``tau_k + eps_k w_k(v_{k+1})``, is computed in one place:
:func:`twist_block`.  The fixed points, the stratum labels, the zero-stratum
walk and its certificate all call it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .errors import ConfigError

Vec = tuple  # one GL_n block: tuple of int
Cochar = tuple  # N blocks: tuple of Vec
Perm = tuple  # 0-indexed permutation: perm[i] = image of i
WeylElt = tuple  # N permutations, one per block


# Miller-Rabin on the first 13 prime bases is exact below _PRIME_BOUND
# (Sorenson and Webster, Math. Comp. 86 (2017)); past it p is refused.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p: int) -> bool:
    if p >= _PRIME_BOUND:
        raise ConfigError(f"p={p} is past the proven range of the primality test ({_PRIME_BOUND})")
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    # p is a strong probable prime to base a iff a^d = 1 or a^(d 2^r) = -1 for some r < s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s)) for a in _PRIME_BASES)


@dataclass(frozen=True)
class GroupShape:
    """Block structure (n, N blocks, per-block Frobenius scale eps) of the group."""

    n: int
    blocks: int
    eps: tuple
    p: int

    def __post_init__(self):
        if self.n < 1 or self.blocks < 1:
            raise ConfigError("n and blocks must be positive")
        if not _is_prime(self.p):
            raise ConfigError(f"p={self.p} is not prime")
        if len(self.eps) != self.blocks:
            raise ConfigError("eps pattern length must equal number of blocks")
        if any(e not in (1, self.p) for e in self.eps):
            raise ConfigError("eps entries must be 1 or p")
        if all(e == 1 for e in self.eps):
            raise ConfigError("at least one eps entry must equal p")

    @classmethod
    def res_field(cls, n: int, f: int, p: int) -> "GroupShape":
        """Res_{k/F_p}GL_n with [k:F_p] = f: every block scales by p."""
        return cls(n=n, blocks=f, eps=(p,) * f, p=p)

    @classmethod
    def multi_copy(cls, n: int, f: int, p: int, d: int) -> "GroupShape":
        """d copies of the res_field shape: N = d*f, scale p on blocks k with d | k+1."""
        if d < 1:
            raise ConfigError("d must be positive")
        eps = tuple(p if (k + 1) % d == 0 else 1 for k in range(d * f))
        return cls(n=n, blocks=d * f, eps=eps, p=p)

    def zero_cochar(self) -> Cochar:
        return tuple((0,) * self.n for _ in range(self.blocks))

    def identity_weyl(self) -> WeylElt:
        return (identity_perm(self.n),) * self.blocks

    def check_cochar(self, v: Cochar) -> None:
        if len(v) != self.blocks or any(len(b) != self.n for b in v):
            raise ConfigError(f"cochar shape mismatch: expected {self.blocks} blocks of length {self.n}")

    def check_weyl(self, w: WeylElt) -> None:
        if len(w) != self.blocks or any(sorted(b) != list(range(self.n)) for b in w):
            raise ConfigError("Weyl element shape mismatch")


# ---------------------------------------------------------------------------
# permutations


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def perm_mul(a: Perm, b: Perm) -> Perm:
    """Composition a∘b, acting as (a∘b)(i) = a(b(i))."""
    return tuple(a[b[i]] for i in range(len(a)))


def perm_inv(a: Perm) -> Perm:
    inv = [0] * len(a)
    for i, ai in enumerate(a):
        inv[ai] = i
    return tuple(inv)


def n_cycle(n: int) -> Perm:
    """The cycle i -> i+1 mod n."""
    return tuple((i + 1) % n for i in range(n))


def act_perm(perm: Perm, block: Vec) -> Vec:
    """Place permutation on one block: result[perm[i]] = block[i]."""
    out = [None] * len(block)
    for i, x in enumerate(block):
        out[perm[i]] = x
    return tuple(out)


# ---------------------------------------------------------------------------
# cochar arithmetic


def cochar_add(a: Cochar, b: Cochar) -> Cochar:
    return tuple(tuple(x + y for x, y in zip(ba, bb)) for ba, bb in zip(a, b))


def cochar_sub(a: Cochar, b: Cochar) -> Cochar:
    return tuple(tuple(x - y for x, y in zip(ba, bb)) for ba, bb in zip(a, b))


def cochar_scale(k: int, a: Cochar) -> Cochar:
    return tuple(tuple(k * x for x in b) for b in a)


def is_central(v: Cochar) -> bool:
    """Constant within every block."""
    return all(len(set(b)) <= 1 for b in v)


def is_dominant(v: Cochar) -> bool:
    return all(all(b[i] >= b[i + 1] for i in range(len(b) - 1)) for b in v)


def is_minuscule(v: Cochar) -> bool:
    """Per block, entries take at most two consecutive values."""
    return all(max(b) - min(b) <= 1 for b in v)


def twist_block(t: Vec, wk: Perm, e: int, v: Vec, scale: int) -> Vec:
    """Block k of scale * tau + w(sigma(v)), that is scale * tau_k +
    eps_k w_k(v_{k+1}), from t = tau_k, wk = w_k, e = eps_k and v = v_{k+1},
    unchecked: eps_k v_{k+1}[i] lands at place w_k(i)."""
    blk = [scale * x for x in t]
    for i, x in zip(wk, v):
        blk[i] += e * x
    return tuple(blk)


def _block_dominated(bv: Vec, bm: Vec) -> bool:
    """Whether the dominant sort of one block bv is dominated by the dominant
    block bm of the same length, unchecked: bv sorted non-increasingly, the
    running sum of its differences from bm never positive and ending at zero
    (equal sums, partial sums bounded by bm's)."""
    acc = 0
    for x, y in zip(sorted(bv, reverse=True), bm):
        acc += x - y
        if acc > 0:
            return False
    return not acc


def _dominated(v: Cochar, mu: Cochar) -> bool:
    """Whether the dominant sort of v is dominated by mu, block by block,
    unchecked.  mu must be dominant and shaped like v."""
    return all(map(_block_dominated, v, mu))


# ---------------------------------------------------------------------------
# roots


@dataclass(frozen=True)
class Root:
    """The root e_i - e_j in one block (0-indexed; positive iff i < j)."""

    block: int
    i: int
    j: int

    def __post_init__(self):
        if self.i == self.j:
            raise ConfigError("root indices must be distinct")

    @property
    def positive(self) -> bool:
        return self.i < self.j


def all_roots(shape: GroupShape) -> Iterator[Root]:
    for k in range(shape.blocks):
        for i, j in itertools.permutations(range(shape.n), 2):
            yield Root(k, i, j)


# ---------------------------------------------------------------------------
# extended affine Weyl group W~ = Y x| W_0


@dataclass(frozen=True)
class ExtAffine:
    """u^chi y with chi an integral cochar and y a Weyl element."""

    chi: Cochar
    w: WeylElt

    def __post_init__(self):
        # held as tuples of tuples whatever sequences were given, so that a
        # datum built on it hashes by value: the caches of solve plans and
        # strata key on it
        object.__setattr__(self, "chi", tuple(map(tuple, self.chi)))
        object.__setattr__(self, "w", tuple(map(tuple, self.w)))
