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
:func:`twist_block`, from w_k^{-1} as ``normal_form._solve_plan`` stores it.
The fixed points, the stratum labels, the GL_3 chains' endpoints and steps, the
zero-stratum walk and its certificate all call it.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from operator import add, ge, sub
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

_SHAPES = 256  # cached shapes per builder of GroupShape; eviction only rebuilds


def _is_prime(p: int) -> bool:
    if p >= _PRIME_BOUND:
        raise ConfigError(f"p={p} is past the proven range of the primality test ({_PRIME_BOUND})")
    if p < 2 or any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2^s with d odd
    d = (p - 1) >> s
    # p is a strong probable prime to base a iff a^d = 1 or a^(d 2^r) = -1 for some r < s
    return all(pow(a, d, p) == 1 or any(pow(a, d << r, p) == p - 1 for r in range(s)) for a in _PRIME_BASES)


class GroupShape(namedtuple("GroupShape", "n blocks eps p")):
    """Block structure (n, N blocks, per-block Frobenius scale eps, a tuple
    whatever sequence was given) of the group."""

    __slots__ = ()

    def __new__(cls, n: int, blocks: int, eps: tuple, p: int):
        if n < 1 or blocks < 1:
            raise ConfigError("n and blocks must be positive")
        if not _is_prime(p):
            raise ConfigError(f"p={p} is not prime")
        if len(eps) != blocks:
            raise ConfigError("eps pattern length must equal number of blocks")
        # a tuple, so that the shape hashes: the solve plans key on it
        eps = tuple(eps)
        if any(e not in (1, p) for e in eps):
            raise ConfigError("eps entries must be 1 or p")
        if all(e == 1 for e in eps):
            raise ConfigError("at least one eps entry must equal p")
        return tuple.__new__(cls, (n, blocks, eps, p))

    @staticmethod
    def res_field(n: int, f: int, p: int) -> "GroupShape":
        """Res_{k/F_p}GL_n with [k:F_p] = f: every block scales by p.  Built
        and validated once per arguments (``_res_field``)."""
        return _res_field(n, f, p)

    @staticmethod
    def multi_copy(n: int, f: int, p: int, d: int) -> "GroupShape":
        """d copies of the res_field shape: N = d*f, scale p on blocks k with
        d | k+1.  Built and validated once per arguments (``_multi_copy``)."""
        return _multi_copy(n, f, p, d)

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


# The named shapes, each built and validated once per arguments; a refusal
# raises, so it is never cached.


@lru_cache(maxsize=_SHAPES)
def _res_field(n: int, f: int, p: int) -> GroupShape:
    return GroupShape(n=n, blocks=f, eps=(p,) * f, p=p)


@lru_cache(maxsize=_SHAPES)
def _multi_copy(n: int, f: int, p: int, d: int) -> GroupShape:
    if d < 1:
        raise ConfigError("d must be positive")
    eps = tuple(p if (k + 1) % d == 0 else 1 for k in range(d * f))
    return GroupShape(n=n, blocks=d * f, eps=eps, p=p)


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
    return tuple([tuple(map(add, ba, bb)) for ba, bb in zip(a, b)])


def cochar_sub(a: Cochar, b: Cochar) -> Cochar:
    return tuple([tuple(map(sub, ba, bb)) for ba, bb in zip(a, b)])


def is_central(v: Cochar) -> bool:
    """Constant within every block."""
    for b in v:
        if len(set(b)) > 1:
            return False
    return True


def is_dominant(v: Cochar) -> bool:
    """Non-increasing within every block."""
    for b in v:
        if not all(map(ge, b, b[1:])):
            return False
    return True


def is_minuscule(v: Cochar) -> bool:
    """Per block, entries take at most two consecutive values."""
    for b in v:
        if max(b) - min(b) > 1:
            return False
    return True


def twist_block(t: Vec, winv: Perm, e: int, v: Vec, scale: int) -> Vec:
    """Block k of scale * tau + w(sigma(v)), that is scale * tau_k +
    eps_k w_k(v_{k+1}), from t = tau_k, winv = w_k^{-1} (as
    ``normal_form._solve_plan`` stores it), e = eps_k and v = v_{k+1},
    unchecked: place i takes eps_k v_{k+1}[w_k^{-1}(i)], in one pass."""
    return tuple([scale * x + e * v[j] for x, j in zip(t, winv)])


def _block_dominated(bv: Vec, bm: Vec) -> bool:
    """Whether the dominant sort of one block bv is dominated by the dominant
    block bm of the same length, unchecked: the running sum of the
    differences of bv's entries, largest first, from bm's never positive and
    ending at zero (equal sums, partial sums bounded by bm's)."""
    acc = 0
    rest = sorted(bv)  # popped from the end, so largest first
    for y in bm:
        acc += rest.pop() - y
        if acc > 0:
            return False
    return not acc


def _dominated(v: Cochar, mu: Cochar) -> bool:
    """Whether the dominant sort of v is dominated by mu, block by block,
    unchecked.  mu must be dominant and shaped like v."""
    return all(map(_block_dominated, v, mu))


# ---------------------------------------------------------------------------
# roots


class Root(namedtuple("Root", "block i j")):
    """The root e_i - e_j in one block (0-indexed; positive iff i < j)."""

    __slots__ = ()

    def __new__(cls, block: int, i: int, j: int):
        if i == j:
            raise ConfigError("root indices must be distinct")
        return tuple.__new__(cls, (block, i, j))

    @property
    def positive(self) -> bool:
        return self.i < self.j


def all_roots(shape: GroupShape) -> Iterator[Root]:
    for k in range(shape.blocks):
        for i, j in itertools.permutations(range(shape.n), 2):
            yield Root(k, i, j)


# ---------------------------------------------------------------------------
# extended affine Weyl group W~ = Y x| W_0


class ExtAffine(namedtuple("ExtAffine", "chi w")):
    """u^chi y with chi an integral cochar and y a Weyl element."""

    __slots__ = ()

    def __new__(cls, chi: Cochar, w: WeylElt):
        # held as tuples of tuples whatever sequences were given, so that a
        # datum built on it hashes by value: the caches of solve plans and
        # strata key on it
        return tuple.__new__(cls, (tuple(map(tuple, chi)), tuple(map(tuple, w))))
