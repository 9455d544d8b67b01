"""The d-copy apparatus: mu decomposition, descent statistics, the unique
zero-dimensional stratum, and the recursion that certifies it.

The multi-copy group is not special-cased: it is the same GroupShape machinery
with an eps pattern, so strata and dimension code are shared verbatim.  The
interleaving map block(copy i, factor j) = i + j*d (0-indexed) is the single
point of index bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    Cochar,
    ExtAffine,
    GroupShape,
    act_perm,
    identity_perm,
)
from .errors import ConfigError, PreconditionError, TheoremViolationError
from .normal_form import FrobeniusDatum, fixed_point
from .strata import Stratum, enumerate_strata


@dataclass(frozen=True)
class MultiDatum:
    base: FrobeniusDatum
    d: int
    lifted: FrobeniusDatum

    @property
    def f(self) -> int:
        return self.base.shape.blocks


def interleave_index(i: int, j: int, d: int) -> int:
    """Flat block index of (copy i, factor j), both 0-indexed."""
    return i + j * d


def make_multi(base: FrobeniusDatum, d: int) -> MultiDatum:
    """Lift a datum to d copies, the base sitting in the last copy.

    The lifted fixed point is the copy-interleaving (e, ..., e); each block
    equals a block of e, so the alcove certificate is inherited.
    """
    if d < 1:
        raise ConfigError("d must be positive")
    if not base.alcove_ok:
        raise PreconditionError("base datum must be alcove-reduced")
    shape = base.shape
    if any(e != shape.p for e in shape.eps):
        raise PreconditionError("base datum must have the plain res-field eps pattern")
    n, f, p = shape.n, shape.blocks, shape.p
    lifted_shape = GroupShape.multi_copy(n, f, p, d)
    big = lifted_shape.blocks
    tau = [(0,) * n] * big
    w = [identity_perm(n)] * big
    e = [None] * big
    for j in range(f):
        for i in range(d):
            k = interleave_index(i, j, d)
            e[k] = base.e[j]
            if i == d - 1:
                tau[k] = base.tau[j]
                w[k] = base.w[j]
    wt = ExtAffine(tuple(tau), tuple(w))
    lifted = FrobeniusDatum(lifted_shape, wt, tuple(e), True)
    if fixed_point(lifted_shape, wt) != lifted.e:
        raise TheoremViolationError("interleaved fixed point fails its identity")
    return MultiDatum(base, d, lifted)


def decompose_mu(mu: Cochar, d: int) -> Cochar:
    """Spread mu = (m_j omega_1)_j over d copies: block (i, j) is omega_1 for
    i < m_j and zero otherwise, so the copy-sum reproduces mu."""
    if d < 1:
        raise ConfigError("d must be positive")
    out = [None] * (d * len(mu))
    for j, b in enumerate(mu):
        n = len(b)
        if any(x != 0 for x in b[1:]) or b[0] < 0:
            raise ConfigError("mu blocks must be non-negative multiples of omega_1")
        m = b[0]
        if m > d:
            raise ConfigError(f"mu multiplicity {m} exceeds d={d}")
        omega = (1,) + (0,) * (n - 1)
        zero = (0,) * n
        for i in range(d):
            out[interleave_index(i, j, d)] = omega if i < m else zero
    return tuple(out)


# ---------------------------------------------------------------------------
# descent statistics on a single block


def descent_stats(v: tuple):
    """(delta, h) with delta = <v> - n*min[v] and h = sum of floor(v_i - min[v])."""
    lo = min(v)
    delta = sum(v) - len(v) * lo
    h = sum(math.floor(x - lo) for x in v)
    return delta, h


def varsigma(v: tuple) -> tuple:
    """Decrement every maximal entry by 1."""
    hi = max(v)
    return tuple(x - 1 if x == hi else x for x in v)


# ---------------------------------------------------------------------------
# the unique zero-dimensional stratum and its certificate


def _check_omega_pattern(mu_bullet: Cochar) -> tuple:
    ms = []
    for b in mu_bullet:
        if all(x == 0 for x in b):
            ms.append(0)
        elif b[0] == 1 and all(x == 0 for x in b[1:]):
            ms.append(1)
        else:
            raise ConfigError("mu_bullet blocks must be 0 or omega_1")
    return tuple(ms)


def unique_zero_stratum(multi: MultiDatum, mu_bullet: Cochar) -> Stratum:
    """Enumerate the lifted strata and return the unique zero-dimensional one.

    Zero or several zero-dimensional strata is a hard error: it contradicts
    the uniqueness theorem and flags a bug (or an inadmissible instance).
    """
    _check_omega_pattern(mu_bullet)
    strata = enumerate_strata(multi.lifted, mu_bullet)
    if not strata:
        raise PreconditionError("the multi-copy variety is empty")
    zero = [s for s in strata if s.dim == 0]
    if len(zero) != 1:
        raise TheoremViolationError(
            f"expected exactly one zero-dimensional stratum, found {len(zero)}"
        )
    return zero[0]


def recursion_check(multi: MultiDatum, mu_bullet: Cochar, lam_bullet: Cochar):
    """Verify the block recursion and the h = 0 witness for a claimed
    zero-dimensional stratum label.

    With hat = lam_bullet - e interleaved, checks per block k that
    hat^k = eps^k w^k(hat^{k+1}) when m^k = 0 and the varsigma of that value
    when m^k = 1; also that h(hat^k0) = 0 for some k0.  Returns (ok, index)
    with the first offending block index, or (True, None).
    """
    ms = _check_omega_pattern(mu_bullet)
    lifted = multi.lifted
    shape = lifted.shape
    shape.check_cochar(lam_bullet)
    hat = tuple(
        tuple(Fraction(x) - e for x, e in zip(lb, eb))
        for lb, eb in zip(lam_bullet, lifted.e)
    )
    big = shape.blocks
    for k in range(big):
        rhs = act_perm(lifted.w[k], hat[(k + 1) % big])
        rhs = tuple(shape.eps[k] * x for x in rhs)
        expected = varsigma(rhs) if ms[k] == 1 else rhs
        if hat[k] != expected:
            return False, k
    if not any(descent_stats(b)[1] == 0 for b in hat):
        return False, None
    return True, None


def project_first(multi: MultiDatum, lam_bullet: Cochar) -> Cochar:
    """Copy-1 blocks of a lifted label: the stratum label of the projected point."""
    multi.lifted.shape.check_cochar(lam_bullet)
    d = multi.d
    return tuple(lam_bullet[interleave_index(0, j, d)] for j in range(multi.f))
