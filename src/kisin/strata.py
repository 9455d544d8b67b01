"""Semi-module strata: enumeration, dimensions in the minuscule case, and
singleton certificates.

A stratum label lam is nonempty exactly when the twisted difference
lam_nat = -lam + tau + w(sigma(lam)) is dominated by mu.  Enumeration inverts
that affine map.  The candidate values nu of lam_nat are finite: blockwise
vectors whose dominant sort is dominated by mu's block.  Each nu has exactly
one rational preimage, because 1 - w*sigma is invertible, and that preimage is
integral iff one congruence per cycle of the solver's permutation W holds; the
congruence is linear in nu, block by block (``normal_form._solve_plan``).  So
each block's candidates are bucketed by their residues, and a join over the
blocks keeps a partial choice only while the residue still needed is a sum the
remaining blocks can reach.  Only the surviving candidates are solved, and
each must solve integrally (else TheoremViolationError).  Work follows the
per-block candidate counts and the surviving partial choices, not their
product; the KISIN_MAX_ENUM cap still bounds that product.  The product of
candidate sets, each solved, and a box search over lam are kept as test
oracles.

Every invariant of a label (lam_nat, lam_dag, the R- and D-sets, the
dimension and the singleton certificate) comes from one pass in ``_stratum``
over the label's (lam_dag, lam_nat) and a root table built once per call of
``enumerate_strata`` or ``make_stratum``; every pairing is an integer
difference.  ``enumerate_strata`` validates its arguments once and builds each
record from the (nu, lam) pair it solved, checking lam_nat == nu (else
TheoremViolationError).  ``make_stratum``, the per-label API, validates its
arguments and tests membership with the dominance kernel of ``core``, which
also serves the chains and graph edges of ``connectivity``.
"""

from __future__ import annotations

import itertools
import os
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Optional

from .core import (
    Cochar,
    _dominated,
    all_roots,
    cochar_add,
    cochar_sub,
    is_central,
    is_dominant,
    is_minuscule,
    ExtAffine,
)
from .errors import ConfigError, EnumerationCapError, PreconditionError, TheoremViolationError
from .normal_form import FrobeniusDatum, _solve_plan, make_datum, solve_affine_integral

DEFAULT_ENUM_CAP = 10**7

SINGLETON_RULES = ("central", "dominant-minuscule", "d-set", "empty-r-set")


@dataclass(frozen=True)
class Stratum:
    lam: Cochar
    nat: Cochar  # -lam + tau + w(sigma(lam))
    dag: Cochar  # tau + w(sigma(lam)); stored for reference only
    r_set: Optional[tuple]  # tuple of Root when mu is minuscule, else None
    d_set: tuple  # tuple of Root
    dim: Optional[int]  # |r_set| when mu is minuscule, else None ("unknown")
    singleton: str  # "proven" | "unknown"
    singleton_rule: Optional[str]


def _require_alcove(datum: FrobeniusDatum) -> None:
    if not datum.alcove_ok:
        raise PreconditionError("datum's fixed point is not in the alcove")


def _require_dominant_mu(mu: Cochar) -> None:
    if not is_dominant(mu):
        raise ConfigError("mu must be dominant")


def _twist(datum: FrobeniusDatum, lam: Cochar) -> tuple:
    """(dag, nat) = (tau + w(sigma(lam)), dag - lam), unchecked: block k of
    w(sigma(lam)) holds eps[k] * lam[k+1][i] at place w_k(i)."""
    dag = []
    for tk, wk, e, src in zip(datum.tau, datum.w, datum.shape.eps, lam[1:] + lam[:1]):
        blk = list(tk)
        for i, x in zip(wk, src):
            blk[i] += e * x
        dag.append(tuple(blk))
    return tuple(dag), tuple(tuple(d - x for d, x in zip(bd, bl)) for bd, bl in zip(dag, lam))


def natural_lambda(datum: FrobeniusDatum, lam: Cochar) -> Cochar:
    """-lam + tau + w(sigma(lam))."""
    _require_alcove(datum)
    datum.shape.check_cochar(lam)
    return _twist(datum, lam)[1]


def _require_label_args(datum: FrobeniusDatum, mu: Cochar, lam: Cochar) -> None:
    _require_alcove(datum)
    _require_dominant_mu(mu)
    datum.shape.check_cochar(mu)
    datum.shape.check_cochar(lam)


def _is_label(datum: FrobeniusDatum, mu: Cochar, lam: Cochar) -> bool:
    """The defining inequality dominant(lam_nat) <= mu, unchecked."""
    return _dominated(_twist(datum, lam)[1], mu)


def stratum_nonempty(datum: FrobeniusDatum, mu: Cochar, lam: Cochar) -> bool:
    _require_label_args(datum, mu, lam)
    return _is_label(datum, mu, lam)


# ---------------------------------------------------------------------------
# candidate generation for enumeration


@lru_cache(maxsize=None)
def dominant_blocks_leq(mu_block: tuple) -> tuple:
    """All dominant integer vectors nu with nu <= mu_block (same length/sum)."""
    n = len(mu_block)
    total = sum(mu_block)
    lo, hi = min(mu_block), max(mu_block)
    prefix_mu = list(itertools.accumulate(mu_block))

    out = []

    def descend(pos, prev, acc, partial):
        if pos == n - 1:
            last = total - acc
            if lo <= last <= prev:
                out.append(partial + (last,))
            return
        remaining = n - pos - 1
        for v in range(min(prev, hi), lo - 1, -1):
            new_acc = acc + v
            if new_acc > prefix_mu[pos]:
                continue
            # the tail cannot exceed v per entry nor drop below lo
            if new_acc + remaining * v < total or new_acc + remaining * lo > total:
                continue
            descend(pos + 1, v, new_acc, partial + (v,))

    descend(0, hi, 0, ())
    return tuple(out)


def _distinct_permutations(block: tuple):
    """The distinct permutations of block, each once, in lexicographic order:
    next-permutation steps on the sorted block, so repeated entries cost
    nothing.  When the entries are distinct, itertools.permutations gives the
    same sequence in C: most blocks of the counterexample ladder are distinct
    and its throughput is about 15 % lower without that path."""
    a = sorted(block)
    if len(set(a)) == len(a):
        return itertools.permutations(a)
    return _next_permutations(a)


def _next_permutations(a: list):
    last = len(a) - 1
    while True:
        yield tuple(a)
        i = last - 1
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = a[:i:-1]


@lru_cache(maxsize=None)
def candidate_blocks(mu_block: tuple) -> tuple:
    """All integer vectors whose dominant sort is <= mu_block."""
    out = []
    for dom_block in dominant_blocks_leq(mu_block):
        out.extend(_distinct_permutations(dom_block))
    return tuple(out)


def _enum_cap() -> int:
    """The candidate cap: KISIN_MAX_ENUM when set (a non-negative integer),
    else DEFAULT_ENUM_CAP."""
    raw = os.environ.get("KISIN_MAX_ENUM", "")
    if not raw:
        return DEFAULT_ENUM_CAP
    try:
        cap = int(raw)
        if cap < 0:
            raise ValueError
    except ValueError:
        raise ConfigError(f"KISIN_MAX_ENUM={raw!r} is not a non-negative integer") from None
    return cap


def _residue_join(buckets: list, moduli: tuple, target: tuple):
    """Each choice of one residue bucket per block whose residues sum to
    target modulo moduli, as a tuple of candidate lists.

    after[k] holds the residue sums of blocks k+1 onwards, built backward;
    the forward walk extends a partial choice only when the residue it still
    needs is in after[k], and the last block is a dict lookup.
    """
    last = len(buckets) - 1
    after = [None] * last
    if last:
        after[-1] = buckets[last]
    for k in range(last - 2, -1, -1):
        after[k] = {
            tuple((a + b) % m for a, b, m in zip(r, s, moduli))
            for r in buckets[k + 1]
            for s in after[k + 1]
        }

    def walk(k, need, chosen):
        if k == last:
            if need in buckets[k]:
                yield chosen + (buckets[k][need],)
            return
        for r, vs in buckets[k].items():
            rest = tuple((a - b) % m for a, b, m in zip(need, r, moduli))
            if rest in after[k]:
                yield from walk(k + 1, rest, chosen + (vs,))

    return walk(0, target, ())


def enumerate_strata(datum: FrobeniusDatum, mu: Cochar) -> tuple:
    """All strata S = {lam : dominant(lam_nat) <= mu}, sorted by lam.

    Complete and duplicate-free: candidates nu run over every vector with
    dominant(nu) <= mu, nu -> lam is injective, and the residue join drops
    exactly the nu whose preimage is not integral.  The arguments are
    validated once; each record is built from its solved pair (nu, lam), whose
    lam_nat must be nu (else TheoremViolationError), so membership holds by
    construction.
    """
    _require_alcove(datum)
    _require_dominant_mu(mu)
    datum.shape.check_cochar(mu)
    per_block = [candidate_blocks(b) for b in mu]
    count = 1
    for blk in per_block:
        count *= len(blk)
    cap = _enum_cap()
    if count > cap:
        raise EnumerationCapError(f"{count} candidates exceed cap {cap} (KISIN_MAX_ENUM)")
    shape, w, tau = datum.shape, datum.w, datum.tau
    *_, moduli, coefs = _solve_plan(shape, w)
    # the preimage of nu is integral iff, per cycle, the residues of the
    # nu_k sum to those of the tau_k
    target = tuple(
        sum(sum(map(mul, cs[ci], t)) for cs, t in zip(coefs, tau)) % m for ci, m in enumerate(moduli)
    )
    buckets = []
    for cs, blk in zip(coefs, per_block):
        residues = [[sum(map(mul, c, v)) % m for v in blk] for c, m in zip(cs, moduli)]
        bucket = defaultdict(list)
        for key, v in zip(zip(*residues), blk):
            bucket[key].append(v)
        buckets.append(bucket)
    solved = []
    for lists in _residue_join(buckets, moduli, target):
        for nu in itertools.product(*lists):
            lam = solve_affine_integral(shape, w, cochar_sub(tau, nu))
            if lam is None:
                raise TheoremViolationError(
                    f"candidate {nu} meets the integrality congruence but its preimage is not integral"
                )
            solved.append((lam, nu))
    if not solved:
        return ()
    solved.sort()  # by lam: distinct nu solve to distinct lam
    roots, minuscule = _root_table(shape), is_minuscule(mu)
    strata = []
    for lam, nu in solved:
        dag, nat = _twist(datum, lam)
        if nat != nu:
            raise TheoremViolationError(f"candidate {nu} solves to {lam}, whose lam_nat is {nat}")
        strata.append(_stratum(mu, lam, dag, nat, roots, minuscule))
    return tuple(strata)


# ---------------------------------------------------------------------------
# per-stratum invariants


def _root_table(shape) -> tuple:
    """One row (root, block, i, j, shift) per root, in all_roots order; shift
    is 1 for a positive root, so lam_alpha = lam[block][i] - lam[block][j] - shift."""
    return tuple((a, a.block, a.i, a.j, int(a.positive)) for a in all_roots(shape))


def _stratum(mu: Cochar, lam: Cochar, dag: Cochar, nat: Cochar, roots: tuple, minuscule: bool) -> Stratum:
    """Every invariant of the label lam in one pass, from its (dag, nat), the
    root table of its shape and whether mu is minuscule; unchecked, membership
    included.

    R(lam) = {alpha : lam_alpha >= 1, <alpha, lam_nat> = -1} and
    D(lam) = {alpha : lam_alpha >= 0, <alpha, lam_nat> <= -1}; |R(lam)| is the
    dimension when mu is minuscule.  Both pairings are integer differences
    read through the root table.  The singleton certificates are tried in
    order: central lam; dominant and minuscule lam; lam_nat conjugate to mu
    with lam_alpha = 0 on all of D(lam); minuscule mu with empty R(lam).
    """
    rs, ds = [], []
    d_flat = True  # lam_alpha == 0 on all of D(lam)
    for a, k, i, j, shift in roots:
        pairing = nat[k][i] - nat[k][j]
        if pairing <= -1:
            la = lam[k][i] - lam[k][j] - shift
            if la >= 0:
                ds.append(a)
                d_flat = d_flat and la == 0
                if la >= 1 and pairing == -1:
                    rs.append(a)
    if is_central(lam):
        rule = "central"
    elif is_dominant(lam) and is_minuscule(lam):
        rule = "dominant-minuscule"
    elif d_flat and tuple(tuple(sorted(b, reverse=True)) for b in nat) == mu:
        rule = "d-set"
    elif minuscule and not rs:
        rule = "empty-r-set"
    else:
        rule = None
    return Stratum(
        lam,
        nat,
        dag,
        tuple(rs) if minuscule else None,
        tuple(ds),
        len(rs) if minuscule else None,
        "unknown" if rule is None else "proven",
        rule,
    )


def make_stratum(datum: FrobeniusDatum, mu: Cochar, lam: Cochar) -> Stratum:
    """The Stratum record of a label lam: R(lam) and the dimension (None
    unless mu is minuscule), D(lam), and the first sufficient singleton
    certificate of SINGLETON_RULES as ("proven", rule), else ("unknown",
    None).  PreconditionError when lam is not a label."""
    _require_label_args(datum, mu, lam)
    dag, nat = _twist(datum, lam)
    if not _dominated(nat, mu):
        raise PreconditionError("lam is not a stratum label of C_mu(b)")
    return _stratum(mu, lam, dag, nat, _root_table(datum.shape), is_minuscule(mu))


# ---------------------------------------------------------------------------
# central twists and the omega-shape reduction


def central_twist(datum: FrobeniusDatum, mu: Cochar, chi: Cochar):
    """C_mu(b) = C_{mu+chi}(u^chi b) for central chi; strata correspond via the
    identity on lam while lam_nat shifts by chi."""
    datum.shape.check_cochar(chi)
    if not is_central(chi):
        raise ConfigError("chi must be central (constant per block)")
    wt2 = ExtAffine(cochar_add(datum.tau, chi), datum.w)
    datum2 = make_datum(datum.shape, wt2)
    if datum.alcove_ok and not datum2.alcove_ok:
        raise PreconditionError("central twist unexpectedly left the alcove")
    return datum2, cochar_add(mu, chi)


def omega_reduction(mu: Cochar):
    """For mu with per-block shape (a, c, ..., c), the central chi with
    mu + chi = (m_k omega_1) per block; returns (chi, reduced mu)."""
    for b in mu:
        if len(b) > 1 and (any(x != b[1] for x in b[1:]) or b[0] < b[1]):
            raise ConfigError("mu is not of the (a, c, ..., c) shape")
    chi = tuple(((-b[1] if len(b) > 1 else 0),) * len(b) for b in mu)
    return chi, cochar_add(mu, chi)


def sum_profile(lam: Cochar) -> tuple:
    """Per-block coordinate sums; constant across all strata of one variety."""
    return tuple(sum(b) for b in lam)
