"""Semi-module strata: enumeration, dimensions in the minuscule case, and
singleton certificates.

A stratum label lam is nonempty exactly when the twisted difference
lam_nat = -lam + tau + w(sigma(lam)) is dominated by mu.  Enumeration finds
the labels in one of two ways, and the KISIN_MAX_ENUM cap is checked against
the work of the path the dispatch picks, before either runs and before the
datum's state is read (``enumerate_strata``).  The walk checks its path bound.
The join is checked only when the box (``_candidate_box``), which bounds the
candidate product, exceeds the cap (``_join_cap``): each block's box before
any candidate set is built, then the running product of the sets' sizes over
the distinct blocks, each raised to its number of copies.

A pair whose block sums have no integer solution (``block_sums``) has no
label, since every label meets that identity.  Within the cap neither path
can refuse: the walk refuses only when its bound exceeds the cap, and is
taken only when the box exceeds WALK_PATH_COST times that bound, and the
join refuses only when the box exceeds the cap.  So such a label-free pair
with box <= cap returns () as soon as its box is formed, by one congruence
on mu's block sums (``_label_free``): no path runs, and no walk radius or
state is read.  Past the cap it is dispatched and checked as any other
pair, and the join returns at its block-sum test.

The residue join inverts the affine map.  The candidate values nu of lam_nat
are finite: blockwise vectors whose dominant sort is dominated by mu's block.
Each nu has exactly one rational preimage, because 1 - w*sigma is
invertible: block 0 of it has the numerators <row_i, tau - nu> over
1 - q^|c| (``normal_form._solve_plan``), and it is integral iff, per cycle
of the solver's permutation W, the numerator at the cycle's first position
is divisible by its modulus.  Both are linear in nu, block by block: a
numerator is <row_i, tau> less, per block k, the partial <row_i on block k,
nu_k>.  So each block's candidates are kept with their partials in a
candidate table, bucketed by the residues of the partials, and a join over
the blocks keeps a partial choice only while the residue still needed is a
sum the remaining blocks can reach.  Each surviving candidate nu is solved
by ``_solve_label``, the one solve of enumeration, from base less the sum of
its partials, base = <rows, tau> formed once per call: block 0 divides out
by the denominators, and blocks N-1 .. 1 follow by ``core.twist_block``; a
remainder, or a label that does not twist back to nu, is a
TheoremViolationError.  The join's work follows the per-block candidate
counts, which grow like p^(n-1) per block.  It runs up to central shift
(``central_twist``): mu_k and tau_k are lowered by mu_k's least entry, so a
block's table depends only on the block's slice of the rows (the solve
plan's ``join``) and the lowered mu_k, and every twist of (shape, w) shares
it.  The tables sit in one cache, bounded by _CACHED like every cache of
this module but the datum states (below).

Everything fixed by (shape, w) is built once, in the solve plan that each
datum holds (``FrobeniusDatum.plan``), and each part of it only when first
read (``normal_form._SolvePlan``): the inverse permutations that ``_twist``
hands to ``core.twist_block``, the prefix scales and q at once; the
solver's rows and denominators, the join's rows cut per block with the
cycles' first positions and moduli (``join``), and the walk's cycles
(``walk``) on first read.  The per-label calls (solving a candidate,
twisting a label) only read it, and a multi-copy lift, which solves
nothing, builds only the first part.

The cycle walk searches lam directly when every eps_k >= 2.  Dominance gives
lo_k <= nat_k[j] <= hi_k, lo_k and hi_k the least and largest entry of mu_k,
and nat_k[j] = tau_k[j] + eps_k lam_{k+1}[w_k^-1(j)] - lam_k[j].  With
A = max over positions of max(hi_k - tau_k[j], tau_k[j] - lo_k) and
M = |lam|_inf, attained at some lam_{k+1}[i], this gives eps_min M <= A + M,
so |lam|_inf <= R = floor(A / (eps_min - 1)); a central shift of tau and mu
leaves A unchanged.  The position map (k, j) -> (k+1, w_k^-1(j)) splits into
cycles.  On each cycle the walk picks the start in [-R, R]; every later entry
then lies in [ceil((lam_P - tau_P + lo_k) / eps_k),
floor((lam_P - tau_P + hi_k) / eps_k)] intersected with [-R, R], lam_P being
the entry before it, at position P in block k, and the cycle must close at
its start.  Each product of cycle paths is checked with ``_dominated`` on its
``_twist``, and each label found must solve back to itself from its lam_nat
under the join's ``_solve_label``, block 0's numerators being
<rows, tau - lam_nat> (else TheoremViolationError).  No candidate tuple is
built.  When some eps_k = 1 (the multi-copy lifts) the step divides by 1,
no box follows, and the join is the only path.

The dispatch takes the walk only when its a priori path bound, the product
over cycles of (2R + 1) times the windows' widths min(floor((hi_k - lo_k) /
eps_k) + 1, 2R + 1), times WALK_PATH_COST is below the box: R does not grow
with p, so the walk wins on the large contracting varieties (the
counterexample ladder), while small candidate sets (the GL_3 sweep, the
oracle cross-checks) keep the join, which is faster there.  The product of
candidate sets, each solved, and a box search over lam are kept as test
oracles.

Each datum keeps one enumeration state (``_state``), keyed by the whole
datum, tau included, so central shifts of one twist share nothing: its class
index.  S(mu) = {lam : dominant(lam_nat) <= mu}, and lam_nat does not depend
on mu, so for mu <= mu' in dominance S(mu) is the set of lam in S(mu') with
dominant(lam_nat) <= mu.  Dominance needs equal block sums, so the index is
keyed by the tuple of mu's block sums, and holds one top per class: the last
mu of the class that was walked or joined, with its labels.  Each label is
held as its lam_nat and its entry (``_label_entry``), built once when the
path returns it: a label's lam_dag, R- and D-sets and central and
dominant-minuscule verdicts are fixed by the datum and its lam_nat, whatever
the mu.  A mu dominated by its class's top takes the top's labels whose
lam_nat it dominates, and no path runs; any other mu is walked or joined,
every label solved and checked afresh, and becomes the top.  Each record
adds only what reads mu: the d-set rule, and the R-set and dimension under
a minuscule mu.  A label's lam_nat has the block sums of mu, so each label
lies in exactly one class.  The sweeps list mu in decreasing lexicographic
order, which dominance refines, so each class is met first at its greedy
vector, the one that dominates the whole class, and is walked or joined
once per datum: a sweep solves each label once per datum.  The order
changes how often a path runs, and so how often a label is solved, never
the strata.

No part of the state reads the cap.  Every call checks its arguments in one
pass over mu's blocks (``_require_mu``): the alcove, the dominance of every
block, then the shape, each refused with its own message in that order.  The
same pass gives what the rest of the call reads of mu: its blocks as tuples,
its block sums (the class key and the label-free congruence) and its box.
The call then reads the cap, one lookup in os.environ's dict
(``_enum_cap``), returns () for a label-free pair within the cap, and checks
the cap on the path the dispatch picks, all before the state is read: so a
refusal (EnumerationCapError, TheoremViolationError) stores nothing and is
raised afresh on every call, and a call under a lower KISIN_MAX_ENUM refuses
as a fresh call does.  The states are bounded by _STATES, a few datums,
since the sweeps take the datums one at a time.

Apart from the states, one slot (``_slot``) holds the last pair enumerated,
with its records and its need: the walk's path bound, or the join's box, the
work the cap was checked against.  A caller that asks for the strata and
then for the graph (``build_graph``) or the points (``oracle.kisin_points``)
of the same pair enumerates once, and the second call costs two steps: the
cap is read, and it is compared with the need.  mu is compared as given with
the slot's mu, a tuple of tuples, so a mu equal to it passes exactly the
checks that it passed, and a mu given as lists takes the full path; so does
a cap below the need, which then refuses as a fresh call does.

Every invariant of a label (lam_nat, lam_dag, the R- and D-sets, the
dimension and the singleton certificate) comes from one pass in
``_label_entry`` over the label's (lam_dag, lam_nat) and a root table built
once per shape, and the rules that read mu in ``_stratum``; every pairing is
an integer difference.  ``make_stratum``, the per-label API, validates its
arguments and tests membership with the dominance kernel of ``core``, which
also serves the chains and graph edges of ``connectivity``.
"""

from __future__ import annotations

import itertools
import os
import sys
from collections import Counter, defaultdict
from functools import lru_cache
from operator import ge, mul, sub
from typing import NamedTuple, Optional

from .core import (
    Cochar,
    _dominated,
    all_roots,
    cochar_add,
    cochar_sub,
    is_central,
    is_dominant,
    is_minuscule,
    twist_block,
    ExtAffine,
)
from .errors import ConfigError, EnumerationCapError, PreconditionError, TheoremViolationError
from .normal_form import FrobeniusDatum, _is_fixed_point, _solve_block0, in_alcove

DEFAULT_ENUM_CAP = 10**7

SINGLETON_RULES = ("central", "dominant-minuscule", "d-set")


class Stratum(NamedTuple):
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


def _require_mu(datum: FrobeniusDatum, mu: Cochar) -> tuple:
    """The checks of every call with a mu, in one pass over its blocks: the
    alcove (``_require_alcove``), then the dominance of every block (the
    test of ``core.is_dominant``), then the shape (refused by
    ``GroupShape.check_cochar``), each with its message.  Returns what
    enumeration reads of mu: (mu as a tuple of tuples, its block sums, its
    box ``_candidate_box``).

    A block's box is formed only when its length is n, and the shape is
    checked once every block is known dominant, so a shape error never
    hides a non-dominant block.  The entries are integers, as the CLI
    parses them (``cli._parse_nested``)."""
    _require_alcove(datum)
    shape = datum.shape
    n = shape.n
    blocks, sums, box, fits = [], [], 1, True
    for b in mu:
        b = tuple(b)
        if not all(map(ge, b, b[1:])):
            raise ConfigError("mu must be dominant")
        if len(b) == n:
            box *= (b[0] - b[-1] + 1) ** (n - 1)
        else:
            fits = False
        blocks.append(b)
        sums.append(sum(b))
    if not fits or len(blocks) != shape.blocks:
        shape.check_cochar(blocks)
    return tuple(blocks), tuple(sums), box


def _twist(datum: FrobeniusDatum, lam: Cochar) -> tuple:
    """(dag, nat) = (tau + w(sigma(lam)), dag - lam), unchecked: one
    ``twist_block`` per block, from the inverse permutations of the datum's
    solve plan."""
    dag = tuple(
        [twist_block(t, wi, e, v, 1) for t, wi, e, v in zip(datum.tau, datum.plan.winv, datum.shape.eps, lam[1:] + lam[:1])]
    )
    return dag, tuple([tuple(map(sub, bd, bl)) for bd, bl in zip(dag, lam)])


def natural_lambda(datum: FrobeniusDatum, lam: Cochar) -> Cochar:
    """-lam + tau + w(sigma(lam))."""
    _require_alcove(datum)
    datum.shape.check_cochar(lam)
    return _twist(datum, lam)[1]


def _cochar(v) -> Cochar:
    """v as a tuple of tuples, whatever sequences it was given in: records
    hold tuples, and the d-set test compares with mu by tuple equality."""
    return tuple(map(tuple, v))


def _require_label_args(datum: FrobeniusDatum, mu: Cochar, lam: Cochar) -> tuple:
    """Checks the arguments of a per-label call; returns (mu, lam) as tuples
    of tuples."""
    mu = _require_mu(datum, mu)[0]
    datum.shape.check_cochar(lam)
    return mu, _cochar(lam)


def _is_label(datum: FrobeniusDatum, mu: Cochar, lam: Cochar) -> bool:
    """The defining inequality dominant(lam_nat) <= mu, unchecked."""
    return _dominated(_twist(datum, lam)[1], mu)


def stratum_nonempty(datum: FrobeniusDatum, mu: Cochar, lam: Cochar) -> bool:
    mu, lam = _require_label_args(datum, mu, lam)
    return _is_label(datum, mu, lam)


# ---------------------------------------------------------------------------
# candidate generation for enumeration


def _dominant_blocks(mu_block: tuple):
    """Each dominant integer vector nu <= mu_block (same length and sum), in
    decreasing lexicographic order."""
    n = len(mu_block)
    total = sum(mu_block)
    lo, hi = min(mu_block), max(mu_block)
    prefix_mu = list(itertools.accumulate(mu_block))

    def descend(pos, prev, acc, partial):
        if pos == n - 1:
            last = total - acc
            if lo <= last <= prev:
                yield partial + (last,)
            return
        remaining = n - pos - 1
        for v in range(min(prev, hi), lo - 1, -1):
            new_acc = acc + v
            if new_acc > prefix_mu[pos]:
                continue
            # the tail cannot exceed v per entry nor drop below lo
            if new_acc + remaining * v < total or new_acc + remaining * lo > total:
                continue
            yield from descend(pos + 1, v, new_acc, partial + (v,))

    return descend(0, hi, 0, ())


def dominant_blocks_leq(mu_block: tuple) -> tuple:
    """All dominant integer vectors nu with nu <= mu_block (same length/sum)."""
    return tuple(_dominant_blocks(mu_block))


def _distinct_permutations(block: tuple):
    """The distinct permutations of block, each once, in lexicographic order:
    next-permutation steps on the sorted block, so repeated entries cost
    nothing."""
    a = sorted(block)
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


# Entries kept by each cache of this module but the datum states
# (``_STATES``), and by each cache of ``connectivity``: the GL_3 sweep
# fills 112 candidate tables; the chain contexts
# (``connectivity._chain_context``), which check mu once per (datum, mu), need
# one key at a time, since a sweep chains every pair of labels of one mu
# before the next; eviction only recomputes.
_CACHED = 256


@lru_cache(maxsize=_CACHED)
def candidate_blocks(mu_block: tuple) -> tuple:
    """All integer vectors whose dominant sort is <= mu_block."""
    out = []
    for dom_block in dominant_blocks_leq(mu_block):
        out.extend(_distinct_permutations(dom_block))
    return tuple(out)


# the variable's name as os.environ's dict holds it (bytes on POSIX)
_CAP_KEY = os.environ.encodekey("KISIN_MAX_ENUM")


def _enum_cap() -> int:
    """The candidate cap: KISIN_MAX_ENUM when set and not empty, else
    DEFAULT_ENUM_CAP.  A set value must be ASCII decimal digits, and any
    other value (a sign, a space, an underscore, a non-ASCII digit, more
    digits than int() reads) is a ConfigError.

    It reads os.environ._data, the dict that os.environ's own methods read
    and write, at call time: every route that sets or deletes the variable
    through os.environ (item assignment and deletion, update, clear,
    mock.patch.dict, pytest's monkeypatch) changes that dict, so this is the
    value os.environ.get returns.  os.environ.get on an unset variable goes
    through _Environ.__getitem__ and a caught KeyError; this read does not.
    Timed on a 2-vCPU Xeon (Python 3.11.7), best of 7: 0.06-0.08 us per
    call unset, against 0.87-0.98 us through os.environ.get, and 0.41-0.47
    against 0.55-0.58 us when set.  enumerate_strata reads the cap on every
    call, 21,888 times per pass of the GL_3 sweep's seed-201 list."""
    raw = os.environ._data.get(_CAP_KEY)
    if not raw:
        return DEFAULT_ENUM_CAP
    raw = os.environ.decodevalue(raw)
    if raw.isascii() and raw.isdigit():
        try:
            return int(raw)
        except ValueError:  # past the interpreter's limit on digits
            pass
    raise ConfigError(f"KISIN_MAX_ENUM={raw!r} is not a non-negative integer")


# digits per chunk, below the least limit on int-to-str conversion that the
# interpreter accepts (640 digits)
_CHUNK_DIGITS = 600
_CHUNK = 10**_CHUNK_DIGITS


def _decimal(x: int) -> str:
    """The decimal digits of a non-negative int of any size.  str() refuses
    an int past the interpreter's digit limit (4,300 by default), so the
    digits are built in chunks below it, and the limit is left as it is."""
    chunks = []
    while x >= _CHUNK:
        x, low = divmod(x, _CHUNK)
        chunks.append(f"{low:0{_CHUNK_DIGITS}d}")
    return str(x) + "".join(reversed(chunks))


def _cap_error(count: int, what: str, cap: int) -> EnumerationCapError:
    """The refusal of work past the cap, with its exact count of any size."""
    return EnumerationCapError(f"{_decimal(count)} {what} exceed cap {_decimal(cap)} (KISIN_MAX_ENUM)")


def _residue_join(buckets: list, moduli: tuple, target: tuple):
    """Each choice of one residue bucket per block whose residues sum to
    target modulo moduli, as a tuple of the chosen buckets.

    after[k] holds the residue sums of blocks k+1 onwards, built backward;
    the forward walk, depth first from a stack, extends a partial choice only
    when the residue it still needs is in after[k], and the last block is a
    dict lookup.
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

    chosen = []  # the buckets taken by blocks 0 .. k - 1
    stack = [(0, target, None)]  # (k, the residue blocks k.. must reach, the bucket of block k - 1)
    while stack:
        k, need, vs = stack.pop()
        if k:
            del chosen[k - 1 :]
            chosen.append(vs)
        if k == last:
            if need in buckets[k]:
                yield tuple(chosen) + (buckets[k][need],)
            continue
        for r, vs in buckets[k].items():
            rest = tuple((a - b) % m for a, b, m in zip(need, r, moduli))
            if rest in after[k]:
                stack.append((k + 1, rest, vs))


@lru_cache(maxsize=_CACHED)
def _candidate_table(cut: tuple, firsts: tuple, mu_block: tuple) -> dict:
    """The candidates v of mu_block as one block of a join, bucketed by
    residue: residue tuple -> list of (v, partials), partials[i] = <cut[i], v>
    the block's share of position i's numerator, and the residue
    partials[c0] mod m per (c0, m) of firsts.  Built whole on a miss; blocks
    that share their cut (as in a multi-copy lift) share the table."""
    bucket = defaultdict(list)
    for v in candidate_blocks(mu_block):
        part = tuple([sum(map(mul, c, v)) for c in cut])
        bucket[tuple([part[i] % m for i, m in firsts])].append((v, part))
    return dict(bucket)


def _solve_label(datum: FrobeniusDatum, num0, nu: Cochar) -> Optional[Cochar]:
    """The label whose lam_nat is nu, that is the solution lam of
    lam = (tau - nu) + w(sigma(lam)), when it is integral, else None; num0
    holds its block 0's numerators over plan.dens
    (``normal_form._solve_block0``).  Block 0 is num0 divmod plan.dens, and
    blocks N-1 .. 1 follow by ``twist_block`` from tau_k - nu_k.  The one
    solve of enumeration: the join and the walk differ only in how they form
    num0."""
    plan = datum.plan
    x0 = []
    for x, d in zip(num0, plan.dens):
        quot, rem = divmod(x, d)
        if rem:
            return None
        x0.append(quot)
    nblocks = len(nu)
    lam = [tuple(x0)] * nblocks
    for k in range(nblocks - 1, 0, -1):
        lam[k] = twist_block(map(sub, datum.tau[k], nu[k]), plan.winv[k], datum.shape.eps[k], lam[(k + 1) % nblocks], 1)
    return tuple(lam)


def _join_cap(mu: Cochar, cap: int) -> None:
    """Refuses the join of mu past the cap, as EnumerationCapError: each
    block's box (``_candidate_box``) before it builds any candidate set, then
    the running product of the sets' sizes over the distinct blocks, each
    raised to its number of copies, so at most one set is built past the cap.
    The blocks are lowered by their least entries, as the join reads them."""
    mu0 = [tuple([x - b[-1] for x in b]) for b in mu]
    for k, b in enumerate(mu0):
        if (box := _candidate_box((b,))) > cap:
            raise _cap_error(box, f"candidates in the box of block {k + 1}", cap)
    count = 1
    for b, copies in Counter(mu0).items():
        count *= len(candidate_blocks(b)) ** copies
        if count > cap:
            raise _cap_error(count, "candidates", cap)


def _join(datum: FrobeniusDatum, mu: Cochar) -> list:
    """The labels as sorted (lam, dag, nat) triples, by the residue join of
    the per-block candidate tables.

    Up to central shift (``central_twist``): with chi_k the least entry of
    mu_k, nu0 = nu - chi runs over the candidates of mu - chi, and the label
    of nu solves lam = (tau0 - nu0) + w(sigma(lam)), tau0 = tau - chi, the
    same system as for nu, since tau0 - nu0 = tau - nu.  The numerator of
    x[0][i] is base[i] = <row_i, tau0>, formed once per call, less each
    block's partials of nu0, read from its candidate table; nu0's preimage
    is integral iff, per cycle, the partials' residues sum to base's, which
    is what the join matches.  Complete and duplicate-free:
    candidates nu run over every vector with dominant(nu) <= mu, nu -> lam is
    injective, and the join drops exactly the nu whose preimage is not
    integral.  When the block sums have no integer solution
    (``_label_free``) no candidate can be integral, and the join returns at
    once; ``enumerate_strata`` returns before the join for such a pair
    within the cap.  The cap is not checked here: ``enumerate_strata``
    checks it first (``_join_cap``).

    Each survivor nu is solved by ``_solve_label`` from base less its
    partials; it must divide out, and its lam must twist back to nu (else
    TheoremViolationError), so membership holds by construction.  The join
    reads and fills no state: every call solves and checks every label it
    returns.
    """
    lows = [b[-1] for b in mu]
    if _label_free(datum, map(sum, mu)):
        return []
    mu0 = _shift_blocks(mu, [-c for c in lows])
    cuts, firsts, moduli = datum.plan.join
    base = _solve_block0(datum.plan, [x - c for t, c in zip(datum.tau, lows) for x in t])
    target = tuple([base[i] % m for i, m in firsts])
    buckets = [_candidate_table(cut, firsts, b) for cut, b in zip(cuts, mu0)]
    out = []
    for lists in _residue_join(buckets, moduli, target):
        for entries in itertools.product(*lists):
            nu0 = tuple([v for v, _ in entries])
            nu = _shift_blocks(nu0, lows)
            num0 = base
            for _, part in entries:
                num0 = map(sub, num0, part)
            lam = _solve_label(datum, num0, nu)
            if lam is None:
                raise TheoremViolationError(
                    f"candidate {nu} meets the integrality congruence but its preimage is not integral"
                )
            dag, nat = _twist(datum, lam)
            if nat != nu:
                raise TheoremViolationError(f"candidate {nu} solves to {lam}, whose lam_nat is {nat}")
            out.append((lam, dag, nu))
    out.sort()  # by lam: distinct nu solve to distinct lam
    return out


def _shift_blocks(v: Cochar, c) -> Cochar:
    """v with c[k] added to every entry of block k."""
    return tuple([tuple([x + ck for x in b]) for b, ck in zip(v, c)])


# ---------------------------------------------------------------------------
# the cycle walk for contracting shapes


# The cost of one walk path relative to one join candidate, rounded up: the
# walk is taken when the candidate box exceeds WALK_PATH_COST times the path
# bound.  Measured per call with both paths forced, best of three, on the
# (twist, mu) pairs of benchmark seed 201 (Python 3.11, shared 2-vCPU x86
# machine): per path of the bound, median 2.0 us on the 195 ladder pairs and
# 3.0 us on 5,040 GL_3 sweep pairs; per candidate, 0.59 us on the ladder pairs
# with each residue table rebuilt (their mu do not repeat) and 1.34 us on the
# sweep pairs from cached tables.  Summed over the ladder pairs, the
# dispatched time is flat for constants from 4 to 16, least at 8, and grows by
# 10 % at 32 and 59 % at 64.  At that seed the box is at most 4.0 times the
# path bound on the pairs of the GL_3 sweep and of the oracle cross-check, and
# 2.67 times on the multi-copy lifts with no eps = 1, so they keep the join;
# the ladder's pairs that walk have ratios of 8.1 to 5,300.
WALK_PATH_COST = 8


def _candidate_box(mu: Cochar) -> int:
    """prod_k (hi_k - lo_k + 1)^(n - 1), lo_k and hi_k the least and largest
    entry of mu_k: a bound on the candidate product, since every entry of a
    candidate lies in [lo_k, hi_k] and the block sum fixes its last entry.
    ``_require_mu`` forms mu's box in its pass; this forms a block's for
    ``_join_cap``."""
    box = 1
    for b in mu:
        box *= (b[0] - b[-1] + 1) ** (len(b) - 1)
    return box


def _walk_radius(datum: FrobeniusDatum, mu: Cochar) -> Optional[int]:
    """R = A // (min eps - 1), the proven bound on |lam|_inf of every label,
    or None when some eps is 1; A is the largest max(hi_k - tau_k[j],
    tau_k[j] - lo_k) with lo_k, hi_k the least and largest entry of mu_k."""
    e_min = min(datum.shape.eps)
    if e_min == 1:
        return None
    a = 0
    for t, m in zip(datum.tau, mu):
        a = max(a, m[0] - min(t), max(t) - m[-1])
    return a // (e_min - 1)


def _walk_bound(datum: FrobeniusDatum, mu: Cochar, radius: int) -> int:
    """The a priori bound on the walk's paths: per cycle, 2R + 1 starts times,
    per later entry, the width of its window, at most 2R + 1."""
    side = 2 * radius + 1
    widths = [min((m[0] - m[-1]) // e + 1, side) for m, e in zip(mu, datum.shape.eps)]
    bound = 1
    for cyc in datum.plan.walk:
        bound *= side
        for k, _ in cyc[:-1]:
            bound *= widths[k]
    return bound


def _cycle_paths(datum: FrobeniusDatum, mu: Cochar, cyc: tuple, radius: int) -> list:
    """Every assignment of lam on the positions of one cycle, each entry in
    [-R, R], with lo_k <= nat_k[j] <= hi_k at each position (k, j) of it.

    nat_k[j] = tau_k[j] + eps_k * lam at the image of (k, j) - lam_k[j], so
    the value at the image of (k, j) lies in the window
    [ceil((lam_k[j] - tau_k[j] + lo_k) / eps_k), floor((lam_k[j] - tau_k[j] + hi_k) / eps_k)],
    and the last position's window must hold the first value."""
    steps = []
    for k, j in cyc:
        e, t, m = datum.shape.eps[k], datum.tau[k][j], mu[k]
        steps.append((e, m[-1] - t, m[0] - t))
    last = len(cyc) - 1
    # one position at a time, with no recursion; a window depends only on the
    # value before it, so it is built once per distinct last value
    paths = [(x,) for x in range(-radius, radius + 1)]
    for t, (e, off_lo, off_hi) in enumerate(steps):
        win = {
            x: range(max(-((-(x + off_lo)) // e), -radius), min((x + off_hi) // e, radius) + 1)
            for x in {path[-1] for path in paths}
        }
        if t < last:
            paths = [path + (y,) for path in paths for y in win[path[-1]]]
    return [path for path in paths if path[0] in win[path[-1]]]


def _walk(datum: FrobeniusDatum, mu: Cochar, radius: int) -> list:
    """The labels as sorted (lam, dag, nat) triples, by the cycle walk in the
    box |lam|_inf <= radius.

    Every product of cycle paths is checked with _dominated on its _twist,
    and every label found must re-solve to itself under ``_solve_label``,
    from the numerators <rows, tau - lam_nat> (else TheoremViolationError).
    Like the join, the walk reads and fills no state."""
    shape, tau, cycles = datum.shape, datum.tau, datum.plan.walk
    per_cycle = [_cycle_paths(datum, mu, cyc, radius) for cyc in cycles]
    out = []
    grid = [[0] * shape.n for _ in range(shape.blocks)]
    for choice in itertools.product(*per_cycle):
        for cyc, path in zip(cycles, choice):
            for (k, j), x in zip(cyc, path):
                grid[k][j] = x
        lam = tuple(map(tuple, grid))
        dag, nat = _twist(datum, lam)
        if _dominated(nat, mu):
            rhs = tuple(itertools.chain.from_iterable(cochar_sub(tau, nat)))
            again = _solve_label(datum, _solve_block0(datum.plan, rhs), nat)
            if again != lam:
                raise TheoremViolationError(f"walked label {lam} has lam_nat {nat}, which solves to {again}")
            out.append((lam, dag, nat))
    out.sort()
    return out


def enumerate_strata(datum: FrobeniusDatum, mu: Cochar) -> tuple:
    """All strata S = {lam : dominant(lam_nat) <= mu}, sorted by lam; mu may
    be given as any sequences, and is taken as a tuple of tuples.

    A call on the pair of the slot (``_slot``), the last pair enumerated,
    returns its records once the cap is read and found at least the pair's
    need, the work its path checks the cap against.  Every other call, in
    this order: the arguments are checked and the cap is read; a label-free
    mu within the cap returns (); the dispatch picks the walk or the join,
    and the cap is checked on that path.  Only then is the datum's state
    (``_state``) read, as the module docstring sets out: the labels of a
    class's top that dominates mu, filtered, else the path's labels, each
    paired once with its entry (``_label_entry``), which become the class's
    top.  The records, built from those entries and mu, fill the slot."""
    global _slot
    slot = _slot
    if slot is not None and mu == slot[1] and (datum is slot[0] or datum == slot[0]) and _enum_cap() >= slot[2]:
        return slot[3]
    mu, key, box = _require_mu(datum, mu)
    cap = _enum_cap()
    if box <= cap and _label_free(datum, key):
        return ()  # within the cap no path refuses, and no label exists
    # the path bound is at least 2R + 1, so the first two tests only skip work
    radius = _walk_radius(datum, mu) if box > WALK_PATH_COST else None
    bound = _walk_bound(datum, mu, radius) if radius is not None and box > WALK_PATH_COST * (2 * radius + 1) else box
    walk = box > WALK_PATH_COST * bound  # never when the bound was skipped
    if walk and bound > cap:
        raise _cap_error(bound, "walk paths", cap)
    if not walk and box > cap:
        _join_cap(mu, cap)
    classes = _state(datum)
    top = classes.get(key)
    if top is not None and _dominated(mu, top[0]):
        labels = [label for label in top[1] if _dominated(label[0], mu)]
    else:
        shape = datum.shape
        found = _walk(datum, mu, radius) if walk else _join(datum, mu)
        labels = [(nat, _label_entry(shape, lam, dag, nat)) for lam, dag, nat in found]
        classes[key] = (mu, labels)
    minuscule = is_minuscule(mu)
    records = tuple([_stratum(mu, nat, entry, minuscule) for nat, entry in labels])
    _slot = (datum, mu, bound if walk else box, records)
    return records


# The datum states kept at once.  A state holds the tops of one datum's
# classes met so far, and the sweeps (the GL_3 benchmark workload and
# scripts/gl3_sweep.py) take the datums one at a time, each with every mu, so
# a few suffice.  On the benchmark's seed-201 GL_3 sweep (15,120 pairs,
# 11,664 records), 4 states build 7,993 records from a class hit, with no walk
# or join, and 3,671 after one of the 2,049 joins, which solve each label once;
# the slot (``_slot``) hands every record again to ``build_graph``.  256
# states take 1,902 joins and 3,489 solves, since some twists reduce to one
# datum, and raise the peak resident set of one in-process pass of the list
# from 22.2 to 24.6 MB (Python 3.11).
_STATES = 4


@lru_cache(maxsize=_STATES)
def _state(datum: FrobeniusDatum) -> dict:
    """The class index of datum: the block sums of a mu -> its class's top,
    (mu', the labels of mu' sorted by lam, each as (lam_nat, its
    ``_label_entry``)).  Keyed by the whole datum, tau included: a label is
    determined by its lam_nat only for one tau and w.  Eviction only solves
    again."""
    return {}


# The last pair enumerated, whatever its datum, as (datum, mu, need,
# records): mu as tuples, need the work that its path checks the cap against
# (the walk's path bound, else the join's box), and its strata; None when
# empty.  Only a call that walks, joins or filters a class's top fills it, so
# a refusal or a label-free pair within the cap leaves it as it was.
_slot = None


def clear_caches() -> None:
    """Empties every ``lru_cache`` of the library: those held by the
    module globals of each imported module of this package (the datum
    states, the candidate, move and step tables, the chain contexts, the
    solve plans, the named shapes of ``core`` and the rest), and the slot of
    the last pair.  Caches only save work, so no result changes; a caller
    that patches a layer calls this first, so that no entry filled before
    the patch skips it."""
    global _slot
    _slot = None
    prefix = __package__ + "."
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix):
            for obj in list(vars(module).values()):
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


# ---------------------------------------------------------------------------
# per-stratum invariants


@lru_cache(maxsize=_CACHED)
def _root_table(shape) -> tuple:
    """One row (root, block, i, j, shift) per root, in all_roots order; shift
    is 1 for a positive root, so lam_alpha = lam[block][i] - lam[block][j] - shift.
    Built once per shape."""
    return tuple((a, a.block, a.i, a.j, int(a.positive)) for a in all_roots(shape))


def _label_entry(shape, lam: Cochar, dag: Cochar, nat: Cochar) -> tuple:
    """(lam, dag, R-set, D-set, sorted nat, rule): everything of the record
    of the label lam that does not depend on mu, in one pass over the root
    table of its shape; unchecked, membership included.

    R(lam) = {alpha : lam_alpha >= 1, <alpha, lam_nat> = -1} and
    D(lam) = {alpha : lam_alpha >= 0, <alpha, lam_nat> <= -1}; both pairings
    are integer differences read through the root table.  rule is "central"
    for central lam, else "dominant-minuscule" for dominant and minuscule
    lam, else None; then sorted nat holds the blockwise decreasing sort of
    lam_nat when lam_alpha = 0 on all of D(lam) (the d-set rule needs it
    equal to mu), and is None otherwise."""
    rs, ds = [], []
    d_flat = True  # lam_alpha == 0 on all of D(lam)
    for a, k, i, j, shift in _root_table(shape):
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
    else:
        rule = None
    sorted_nat = tuple(tuple(sorted(b, reverse=True)) for b in nat) if d_flat and rule is None else None
    return lam, dag, tuple(rs), tuple(ds), sorted_nat, rule


def _stratum(mu: Cochar, nat: Cochar, entry: tuple, minuscule: bool) -> Stratum:
    """The record of the label with lam_nat nat and entry
    (``_label_entry``) under mu, minuscule telling whether mu is; unchecked.
    |R(lam)| is the dimension when mu is minuscule.  The singleton
    certificates are tried in order: central lam; dominant and minuscule lam
    (both in the entry); lam_nat conjugate to mu with lam_alpha = 0 on all of
    D(lam).

    An empty R(lam) under a minuscule mu needs no rule of its own, since the
    d-set rule then holds.  A minuscule coweight is minimal in dominance, so
    each block of lam_nat, whose dominant sort is dominated by mu's block, is
    a permutation of that block, whose entries differ by at most 1.  So every
    pairing <alpha, lam_nat> is -1, 0 or 1, D(lam) is the set of alpha with
    lam_alpha >= 0 and pairing -1, and R(lam) is its subset with
    lam_alpha >= 1.  An empty R(lam) then forces lam_alpha = 0 on all of
    D(lam), and lam_nat sorts to mu."""
    lam, dag, rs, ds, sorted_nat, rule = entry
    if rule is None and sorted_nat == mu:
        rule = "d-set"
    return Stratum(
        lam,
        nat,
        dag,
        rs if minuscule else None,
        ds,
        len(rs) if minuscule else None,
        "unknown" if rule is None else "proven",
        rule,
    )


def make_stratum(datum: FrobeniusDatum, mu: Cochar, lam: Cochar) -> Stratum:
    """The Stratum record of a label lam: R(lam) and the dimension (None
    unless mu is minuscule), D(lam), and the first sufficient singleton
    certificate of SINGLETON_RULES as ("proven", rule), else ("unknown",
    None).  Under a minuscule mu the verdict is "proven" exactly when lam is
    central, dominant and minuscule, or of dimension 0 (``_stratum``).
    PreconditionError when lam is not a label."""
    mu, lam = _require_label_args(datum, mu, lam)
    return _record(datum, mu, lam, is_minuscule(mu))


def _record(datum: FrobeniusDatum, mu: Cochar, lam: Cochar, minuscule: bool) -> Stratum:
    """``make_stratum``'s steps after its argument checks, mu and lam taken
    as tuples of tuples: the twist, the membership test (PreconditionError
    when lam is not a label) and the record."""
    dag, nat = _twist(datum, lam)
    if not _dominated(nat, mu):
        raise PreconditionError("lam is not a stratum label of C_mu(b)")
    return _stratum(mu, nat, _label_entry(datum.shape, lam, dag, nat), minuscule)


# ---------------------------------------------------------------------------
# central twists and the omega-shape reduction


def central_twist(datum: FrobeniusDatum, mu: Cochar, chi: Cochar):
    """C_mu(b) = C_{mu+chi}(u^chi b) for central chi; strata correspond via the
    identity on lam while lam_nat shifts by chi.

    The twisted datum is transported, not solved.  A zero chi returns the
    datum itself.  For chi = c_k on block k, e + s solves
    e' = tau + chi + w(sigma(e')) when s_k = c_k + eps_k s_{k+1} on every
    entry of block k, since w_k fixes a central block; that is the scalar
    recursion of ``block_sums`` (``_unroll``).  On the datum's numerators
    E / D: E'_k = E_k + D s_k, D s the solution of that recursion for D c_k,
    whose D s_0 = D sum_k E_k c_k / (1 - q) is exact since q - 1 divides
    D = q^L - 1.  E' / D must pass the twisted datum's defining identity
    (``normal_form._is_fixed_point``), which certifies it as the one fixed
    point.  A central shift keeps each block's order and spread, so the
    alcove test of E' (``in_alcove``) agrees with the datum's; a
    disagreement either way is a TheoremViolationError."""
    shape = datum.shape
    shape.check_cochar(chi)
    if not is_central(chi):
        raise ConfigError("chi must be central (constant per block)")
    if not any(map(any, chi)):
        return datum, cochar_add(mu, chi)
    den = datum.e_den
    shifts = _unroll(datum, [den * b[0] for b in chi])  # D s_k
    if shifts is None:
        raise TheoremViolationError("central shift of the fixed point is not a multiple of 1 / D")
    num = tuple([tuple([x + s for x in b]) for b, s in zip(datum.e_num, shifts)])
    wt2 = ExtAffine(cochar_add(datum.tau, chi), datum.w)
    if not _is_fixed_point(shape, wt2, num, den):
        raise TheoremViolationError("transported fixed point fails its defining identity")
    alcove_ok = in_alcove(num, den)
    if alcove_ok != datum.alcove_ok:
        raise TheoremViolationError("central twist changed the alcove test of the fixed point")
    return FrobeniusDatum(shape, wt2, num, den, alcove_ok), cochar_add(mu, chi)


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


def _label_free(datum: FrobeniusDatum, sums) -> bool:
    """Whether (datum, mu) has no label, given mu's block sums, that is
    whether s_0 of ``block_sums`` is not an integer: q - 1 does not divide
    sum_k E_k (sum(tau_k) - sum(mu_k)), whose tau part the datum holds
    (``FrobeniusDatum.tau_weight``); unchecked."""
    plan = datum.plan
    return (datum.tau_weight - sum(map(mul, plan.prefix_eps, sums))) % (plan.q - 1) != 0


def block_sums(datum: FrobeniusDatum, mu: Cochar) -> Optional[tuple]:
    """The block sums s_k = sum(lam_k) shared by every label of C_mu(b), or
    None when s_0 is not an integer (then there is no label); unchecked.

    lam_nat_k = tau_k + eps_k w_k(lam_{k+1}) - lam_k is dominated by mu_k, so
    its sum is sum(mu_k): s_k = c_k + eps_k s_{k+1} with
    c_k = sum(tau_k) - sum(mu_k), cyclic in k, solved by ``_unroll``."""
    sums = _unroll(datum, [sum(t) - sum(m) for t, m in zip(datum.tau, mu)])
    return None if sums is None else tuple(sums)


def _unroll(datum: FrobeniusDatum, c: list) -> Optional[list]:
    """The solution s of s_k = c_k + eps_k s_{k+1}, cyclic in k, for the
    datum's eps pattern, or None when s_0 is not an integer.  Unrolled as in
    ``normal_form._solve_plan``, (1 - q) s_0 = sum_k E_k c_k with the
    solve plan's prefix scales E_k and full product q; the other entries
    follow downwards from k = N - 1."""
    plan, eps = datum.plan, datum.shape.eps
    s0, rem = divmod(sum(map(mul, plan.prefix_eps, c)), 1 - plan.q)
    if rem:
        return None
    sums = [s0] * len(c)
    for k in range(len(c) - 1, 0, -1):
        sums[k] = c[k] + eps[k] * sums[(k + 1) % len(c)]
    return sums
