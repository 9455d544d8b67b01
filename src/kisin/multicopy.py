"""The d-copy apparatus: mu decomposition, the unique zero-dimensional
stratum, and the recursion that certifies it.

The multi-copy group is not special-cased: it is the same GroupShape machinery
with an eps pattern, so strata and dimension code are shared verbatim.  The
interleaving map block(copy i, factor j) = i + j*d (0-indexed) is the single
point of index bookkeeping.

The zero-dimensional stratum is constructed, not searched for.  Its label
solves the block recursion of ``recursion_check`` with an h = 0 witness
block; the block sums of every label follow from mu and tau alone, the
witness block then has exactly one candidate, and the recursion read
backwards is an integer step.  So one walk around the blocks from each
possible witness finds every solution, in O(N) steps per start
(``unique_zero_stratum``).  Enumerating the lifted strata is left to tell an
empty variety from a theorem violation when no walk closes, and stays the
test oracle for the construction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    Cochar,
    ExtAffine,
    GroupShape,
    identity_perm,
    twist_block,
)
from .errors import ConfigError, PreconditionError, TheoremViolationError
from .normal_form import FrobeniusDatum, _same_point, solve_affine_scaled
from .strata import Stratum, _cap_error, _enum_cap, enumerate_strata, make_stratum


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
    equals a block of e, so the alcove certificate is inherited.  The lifted
    solve must give the interleaved numerators over the base's denominator.
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
    num = [None] * big
    for j in range(f):
        for i in range(d):
            k = interleave_index(i, j, d)
            num[k] = base.e_num[j]
            if i == d - 1:
                tau[k] = base.tau[j]
                w[k] = base.w[j]
    wt = ExtAffine(tau, w)
    lifted = FrobeniusDatum(lifted_shape, wt, tuple(num), base.e_den, True)
    if not _same_point(*solve_affine_scaled(lifted_shape, wt.w, wt.chi), lifted.e_num, lifted.e_den):
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
# the unique zero-dimensional stratum and its certificate


def varsigma(v: tuple, step: int) -> tuple:
    """Decrement every maximal entry by step (by D on a block of D hat)."""
    hi = max(v)
    return tuple(x - step if x == hi else x for x in v)


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


def _block_sums(lifted: FrobeniusDatum, ms: tuple):
    """The block sums s_k shared by every label, or None when s_0 is not an
    integer (then there is no label).

    s_k = c_k + eps_k s_{k+1} with c_k = sum(tau_k) - m_k, cyclic in k, so
    s_0 = sum_k E_k c_k + P s_0 with E_k = eps_0 ... eps_{k-1} and P the full
    product; the other sums follow downwards from k = N - 1."""
    eps = lifted.shape.eps
    c = [sum(t) - m for t, m in zip(lifted.tau, ms)]
    num, scale = 0, 1
    for ck, ek in zip(c, eps):
        num += scale * ck
        scale *= ek
    s0, rem = divmod(num, 1 - scale)
    if rem:
        return None
    sums = [0] * len(c)
    nxt = s0
    for k in range(len(c) - 1, 0, -1):
        nxt = sums[k] = c[k] + eps[k] * nxt
    sums[0] = s0
    return tuple(sums)


def _witness(s: int, n: int) -> tuple:
    """The one integer block with sum s and h(lam - e) = 0: (t+1, ..., t+1,
    t, ..., t) with r leading entries t + 1, (t, r) = divmod(s, n)."""
    t, r = divmod(s, n)
    return (t + 1,) * r + (t,) * (n - r)


def unique_zero_stratum(multi: MultiDatum, mu_bullet: Cochar) -> Stratum:
    """The unique zero-dimensional stratum of the lifted variety, constructed
    from its block recursion; nothing is enumerated when it exists.

    Write N for the number of lifted blocks, eps_k, w_k, tau_k for the lifted
    twist, e for its fixed point (each block in the alcove: strictly
    decreasing, spread below 1), m_k in {0, 1} for mu_bullet's blocks, and
    hat = lam - e.  The zero-dimensional label is the one that solves the
    recursion of ``recursion_check`` with a witness block k0, h(hat_k0) = 0.

    1. Block sums.  lam_nat_k = tau_k + eps_k w_k(lam_{k+1}) - lam_k is
       dominated by mu_k, so its sum is m_k, and every label has the sums
       of ``_block_sums``.  When s_0 is not an integer the variety is empty.
    2. The witness.  h(hat_k) = 0 iff the spread of hat_k is below 1.  For
       i < j, 0 < e_i - e_j < 1, so |hat_i - hat_j| < 1 forces
       lam_i - lam_j in {0, 1}: lam_k is ``_witness(s_k, n)``, which does
       have h = 0.  Each block has exactly one witness candidate.
    3. One step backwards.  e_k = tau_k + eps_k w_k(e_{k+1}) gives
       hat_k = eps_k w_k(hat_{k+1}) - lam_nat_k, and the recursion makes
       lam_nat_k zero when m_k = 0 and, when m_k = 1, the unit vector at the
       largest entry of eps_k w_k(hat_{k+1}): at w_k(j*), j* the argmax of
       hat_{k+1}.  An index where lam_{k+1} is below its maximum M has
       hat <= M - 1 - e_i < M - e_j for every j, and among the indices where
       lam_{k+1} = M, -e_i grows with i, so j* is the last of them.  Hence
       lam_k = tau_k + eps_k w_k(lam_{k+1}) - [m_k = 1] unit(w_k(j*)), all
       in integers.
    4. The starts.  By 2 and 3 a solution is the walk that starts from the
       witness of its block k0 and takes N steps backwards, back to k0,
       ending where it began.  Conversely a closed walk is a label (each
       lam_nat_k is zero or a unit vector, of sum m_k) that solves the
       recursion with its start as the witness.  When the step into k0 - 1
       is the identity (eps = 1, w = id, tau = 0, m = 0), lam_{k0-1} equals
       lam_k0, which is the witness of block k0 - 1 (s_{k0-1} = s_k0), so
       the walk from k0 closes iff the one from k0 - 1 does, on the same
       label: k0 is skipped.  A block with eps = p is never the identity,
       so some start remains, and the work is N steps per start.
       KISIN_MAX_ENUM bounds starts times N before any step.
    5. The result.  There must be exactly one solution, and ``make_stratum``
       must give it dimension 0; it is then the same record enumeration
       builds.  Anything else is a TheoremViolationError.  When no walk
       closes, the strata are enumerated only to tell an empty variety
       (PreconditionError) from a variety without the zero-dimensional
       stratum (TheoremViolationError).
    """
    ms = _check_omega_pattern(mu_bullet)
    lifted = multi.lifted
    shape = lifted.shape
    shape.check_cochar(mu_bullet)
    cap = _enum_cap()
    sums = _block_sums(lifted, ms)
    if sums is None:
        raise PreconditionError("the multi-copy variety is empty")
    big, n = shape.blocks, shape.n
    origin, ident = (0,) * n, identity_perm(n)
    # the step into block k, None when it is the identity
    steps = [
        None if e == 1 and w == ident and t == origin and not m else (e, w, t, m)
        for e, w, t, m in zip(shape.eps, lifted.w, lifted.tau, ms)
    ]
    starts = [k for k in range(big) if steps[k - 1] is not None]
    if len(starts) * big > cap:
        raise _cap_error(len(starts) * big, "recursion steps", cap)
    closed = set()
    for k0 in starts:
        lam = [None] * big
        start = cur = lam[k0] = _witness(sums[k0], n)
        for k in range(k0 - 1, k0 - big - 1, -1):
            step = steps[k]
            if step is not None:
                e, w, t, m = step
                blk = twist_block(t, w, e, cur, 1)
                if m:
                    i = w[n - 1 - cur[::-1].index(max(cur))]
                    blk = blk[:i] + (blk[i] - 1,) + blk[i + 1 :]
                cur = blk
            lam[k] = cur  # k runs down to k0 - big, which is k0 again
        if cur == start:
            closed.add(tuple(lam))
    if not closed:
        strata = enumerate_strata(lifted, mu_bullet)
        if not strata:
            raise PreconditionError("the multi-copy variety is empty")
        zero = [s for s in strata if s.dim == 0]
        if len(zero) == 1:
            raise TheoremViolationError(f"the zero-dimensional stratum {zero[0].lam} solves no walk of the block recursion")
        raise TheoremViolationError(f"expected exactly one zero-dimensional stratum, found {len(zero)}")
    if len(closed) != 1:
        raise TheoremViolationError(f"expected exactly one zero-dimensional stratum, found {len(closed)}")
    zero = make_stratum(lifted, mu_bullet, closed.pop())
    if zero.dim != 0:
        raise TheoremViolationError(f"the block recursion's solution {zero.lam} has dimension {zero.dim}")
    return zero


def recursion_check(multi: MultiDatum, mu_bullet: Cochar, lam_bullet: Cochar):
    """Verify the block recursion and the h = 0 witness for a claimed
    zero-dimensional stratum label.

    With hat = lam_bullet - e interleaved, checks per block k that
    hat^k = eps^k w^k(hat^{k+1}) when m^k = 0 and the varsigma of that value
    when m^k = 1; also that h(hat^k0) = 0 for some k0.  Returns (ok, index)
    with the first offending block index, or (True, None).

    Everything runs on D hat = D lam - E in integers, e = E / D: the
    recursion is linear, varsigma subtracts D from the maximal entries, and
    h(hat) = 0 iff the spread of hat is below 1, that is max - min < D.  By
    the fixed-point identity E_k = D tau_k + eps_k w_k(E_{k+1}), the
    recursion's right side eps_k w_k(D hat_{k+1}) is D lam_dag_k - E_k with
    lam_dag_k = tau_k + eps_k w_k(lam_{k+1}).
    """
    ms = _check_omega_pattern(mu_bullet)
    lifted = multi.lifted
    shape = lifted.shape
    shape.check_cochar(lam_bullet)
    den = lifted.e_den
    hat = tuple(
        tuple(den * x - e for x, e in zip(lb, eb))
        for lb, eb in zip(lam_bullet, lifted.e_num)
    )
    big = shape.blocks
    for k in range(big):
        dag = twist_block(lifted.tau[k], lifted.w[k], shape.eps[k], lam_bullet[(k + 1) % big], 1)
        rhs = tuple(den * x - e for x, e in zip(dag, lifted.e_num[k]))
        expected = varsigma(rhs, den) if ms[k] == 1 else rhs
        if hat[k] != expected:
            return False, k
    if not any(max(b) - min(b) < den for b in hat):
        return False, None
    return True, None


def project_first(multi: MultiDatum, lam_bullet: Cochar) -> Cochar:
    """Copy-1 blocks of a lifted label: the stratum label of the projected point."""
    multi.lifted.shape.check_cochar(lam_bullet)
    d = multi.d
    return tuple(lam_bullet[interleave_index(0, j, d)] for j in range(multi.f))
