"""The d-copy apparatus: mu decomposition, the unique zero-dimensional
stratum, and the recursion that certifies it.

The multi-copy group is not special-cased: it is the same GroupShape machinery
with an eps pattern, so strata and dimension code are shared verbatim.  The
interleaving map block(copy i, factor j) = i + j*d (0-indexed) is the single
point of index bookkeeping.

The zero-dimensional stratum is constructed, not searched for.  Its label
solves the block recursion of ``recursion_check`` with an h = 0 witness
block; the block sums of every label follow from mu and tau alone
(``strata.block_sums``), the witness block then has exactly one candidate,
and the recursion read backwards is an integer step.  So walks around the
blocks from each possible witness find every solution.  A walk stops where
it meets an earlier walk's start holding that start's witness, so the walks
of a lift over N blocks take at most (f + 1) N steps in all
(``unique_zero_stratum``).  KISIN_MAX_ENUM is read once, by
``decompose_mu``, against one count of the lift that bounds both those
steps and the entries the run holds.  Enumerating the lifted strata is left
to tell an empty variety from a theorem violation when no walk closes, and
stays the test oracle for the construction.
"""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .core import (
    Cochar,
    ExtAffine,
    GroupShape,
    identity_perm,
    twist_block,
)
from .errors import ConfigError, PreconditionError, TheoremViolationError
from .normal_form import FrobeniusDatum, _is_fixed_point
from .strata import (
    Stratum,
    _cap_error,
    _cochar,
    _enum_cap,
    _record,
    _require_alcove,
    block_sums,
    enumerate_strata,
)


class MultiDatum(NamedTuple):
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
    equals a block of e, so the alcove certificate is inherited.  The
    interleaved numerators over the base's denominator must satisfy the
    lift's defining identity (``normal_form._is_fixed_point``), which
    certifies them with no solve of the lifted system.
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
    num = tuple(num)
    if not _is_fixed_point(lifted_shape, wt, num, base.e_den):
        raise TheoremViolationError("interleaved fixed point fails its identity")
    return MultiDatum(base, d, FrobeniusDatum(lifted_shape, wt, num, base.e_den, True))


def decompose_mu(mu: Cochar, d: int) -> Cochar:
    """Spread mu = (m_j omega_1)_j over d copies: block (i, j) is omega_1 for
    i < m_j and zero otherwise, so the copy-sum reproduces mu.

    The d f blocks are built only within KISIN_MAX_ENUM, against one count
    fixed by mu and d before any block exists: d f times the weight
    max(10 n^2 + 6 n + 7, f + 1), refused as ``N lifted entries exceed cap
    C``.  The weight bounds two things per lifted block.

    The walk's steps.  ``unique_zero_stratum`` walks at most (f + 1) N
    steps on any omega pattern over the N = d f blocks (its step 4), so at
    most f + 1 per block.

    The entries the run holds, a block of a cochar or a permutation
    counting n and a root one.  The lift's tau, w and e (3 n) and eps (1);
    mu_bullet (n), its omega pattern and its block sums (2); the solve
    plan's inverses of w (n) and prefix scales (1), the only part of it
    that a lift builds (``normal_form._SolvePlan``); the walk's steps and
    starts (2) and its values and witnesses (2 n); the root table's
    n (n - 1) rows of a root and four numbers (5 n^2 - 5 n); the record's
    lam, nat and dag (3 n) and its R- and D-sets, at most n (n - 1) / 2
    roots each, since D holds no root together with its negative
    (n^2 - n); the report's mu_bullet, lam, nat and dag (4 n), its block
    sums (1), and R and D as dicts of three numbers (3 n^2 - 3 n).
    Together 9 n^2 + 5 n + 7.  The weight was derived when a lift also held
    the plan's rows, n rows of n N (n^2), and its prefix permutations (n),
    and it is kept: lowering it would change which lifts are refused and
    every count of the refusal, so it bounds the entries with a slack of
    n^2 + n."""
    if d < 1:
        raise ConfigError("d must be positive")
    for b in mu:
        if any(x != 0 for x in b[1:]) or b[0] < 0:
            raise ConfigError("mu blocks must be non-negative multiples of omega_1")
        if b[0] > d:
            raise ConfigError(f"mu multiplicity {b[0]} exceeds d={d}")
    size = d * sum(max(10 * len(b) ** 2 + 6 * len(b) + 7, len(mu) + 1) for b in mu)
    if size > (cap := _enum_cap()):
        raise _cap_error(size, "lifted entries", cap)
    out = [None] * (d * len(mu))
    for j, b in enumerate(mu):
        omega = (1,) + (0,) * (len(b) - 1)
        zero = (0,) * len(b)
        for i in range(d):
            out[interleave_index(i, j, d)] = omega if i < b[0] else zero
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
        if not any(b):
            ms.append(0)
        elif b[0] == 1 and not any(b[1:]):
            ms.append(1)
        else:
            raise ConfigError("mu_bullet blocks must be 0 or omega_1")
    return tuple(ms)


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
       of ``strata.block_sums``.  When s_0 is not an integer the variety is
       empty.
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
    4. The walks.  By 2 and 3 a solution is the walk that starts from the
       witness of its block k0 and takes N steps backwards, back to k0,
       ending where it began.  Conversely a closed walk is a label (each
       lam_nat_k is zero or a unit vector, of sum m_k) that solves the
       recursion with its start as the witness.  When the step into k0 - 1
       is the identity (eps = 1, w = id, tau = 0, m = 0), lam_{k0-1} equals
       lam_k0, which is the witness of block k0 - 1 (s_{k0-1} = s_k0), so
       the walk from k0 closes iff the one from k0 - 1 does, on the same
       label: k0 is skipped.  A block with eps = p is never the identity,
       so some start remains.  The starts are walked in increasing order,
       and a walk from k0 stops when it reaches a start k walked before
       and holds k's witness there (``_closed_walks``).  Each step is
       determined by the block and the value, so from k on it is the walk
       from k: it returns to k0 with the value that the walk from k has at
       k0, and it closes iff that value is k0's witness.  Then the walk from
       k passes k0 with k0's witness and goes on as the walk from k0 did,
       back to k with k's witness: it closed too, and on the same label,
       block for block.  So a stopped walk closes on a label that the walk
       from k closed on, which by induction over the starts is already
       among the closed labels, and stopping changes no closed label.
       The cost.  Take a start k0 whose first step, into k0 - 1, is not
       into a scaled block: eps = 1, so w = id and tau = 0, and m = 1.  The
       steps from there down to the next start k below k0 are identities,
       and an identity or omega_1 step takes the witness of block k' to
       the witness of block k' - 1: it subtracts m_{k'-1} at the last
       maximal entry, and s_{k'-1} = s_k' - m_{k'-1}.  Block 0 is a start,
       the step into N - 1 being scaled, and it is walked first, so k
       exists and was walked before, and the walk stops at k after
       k0 - k steps.  These
       walks cover disjoint segments of the blocks, so together they take
       at most N steps.  The other starts follow a scaled block; there are
       f of them, and each walk takes at most N steps.  So the walks take
       at most (f + 1) N steps on every omega pattern.  On the copy-major
       pattern of ``decompose_mu`` the copies of omega_1 come first in each
       factor, so the block below an omega_1 copy k0 - 1 is a start too,
       and each walk of the first kind stops after one step: at most
       f N + starts steps.  Other patterns can take more: p = 3, n = 3,
       f = 1, m = 9 and d = 8 with the pattern (0, 1, 0, 0, 1, 1, 1, 1)
       take 15 steps, and f N + starts = 13.
    5. The result.  There must be exactly one solution, and its record,
       built by ``make_stratum``'s steps after its argument checks
       (``strata._record``, membership included), must have dimension 0;
       it is then the same record enumeration builds.  Anything else is a
       TheoremViolationError.  When no walk closes, the strata are
       enumerated only to tell an empty variety (PreconditionError) from a
       variety without the zero-dimensional stratum
       (TheoremViolationError).
    """
    ms = _check_omega_pattern(mu_bullet)
    lifted = multi.lifted
    lifted.shape.check_cochar(mu_bullet)
    sums = block_sums(lifted, mu_bullet)
    if sums is None:
        raise PreconditionError("the multi-copy variety is empty")
    closed = _closed_walks(lifted, ms, sums)
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
    # make_stratum's argument checks, all made above but the alcove's
    _require_alcove(lifted)
    zero = _record(lifted, _cochar(mu_bullet), closed.pop(), True)  # omega patterns are minuscule
    if zero.dim != 0:
        raise TheoremViolationError(f"the block recursion's solution {zero.lam} has dimension {zero.dim}")
    return zero


def _closed_walks(lifted: FrobeniusDatum, ms: tuple, sums: tuple) -> set:
    """The labels on which the walks of ``unique_zero_stratum``'s step 4
    close, for mu_bullet's pattern ms and the block sums."""
    shape = lifted.shape
    big, n = shape.blocks, shape.n
    origin, ident = (0,) * n, identity_perm(n)
    # the step into block k, None when it is the identity
    steps = [
        None if e == 1 and w == ident and t == origin and not m else (e, w, wi, t, m)
        for e, w, wi, t, m in zip(shape.eps, lifted.w, lifted.plan.winv, lifted.tau, ms)
    ]
    starts = [k for k in range(big) if steps[k - 1] is not None]
    closed = set()
    lam = [None] * big  # a closed walk writes every block
    walked = [None] * big  # the witness at each start walked so far
    for k0 in starts:
        start = cur = _witness(sums[k0], n)
        # k0 - 1 down to 0, then N - 1 down to k0 again
        for k in chain(range(k0 - 1, -1, -1), range(big - 1, k0 - 1, -1)):
            step = steps[k]
            if step is not None:
                e, w, wi, t, m = step
                blk = twist_block(t, wi, e, cur, 1)
                if m:
                    i = w[n - 1 - cur[::-1].index(max(cur))]
                    blk = blk[:i] + (blk[i] - 1,) + blk[i + 1 :]
                cur = blk
            if cur == walked[k]:
                break  # the walk from k from here on
            lam[k] = cur
        else:
            if cur == start:
                closed.add(tuple(lam))
        walked[k0] = start
    return closed


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
    big, winv = shape.blocks, lifted.plan.winv
    for k in range(big):
        dag = twist_block(lifted.tau[k], winv[k], shape.eps[k], lam_bullet[(k + 1) % big], 1)
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
