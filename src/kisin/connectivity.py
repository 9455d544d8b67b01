"""Coroot-curve adjacency between strata, pi_0 bounds, and the GL_3 chains.

An edge between lam and lam' = lam - alpha_cov certifies that the affine line
u^lam U_alpha(u^{-1}x) closes to a curve joining u^lam and u^lam'; three
dominance conditions on lam_nat decide it.  They are the same three, in
another order, for the move back from lam' under -alpha, so the graph takes
each edge once, from its smaller end, while every accepted move, from either
end, checks that its neighbour was enumerated; a graph of fewer than two
strata is built with no test at all.  Components merged by such edges
bound pi_0 from above; the bound is exact when every stratum carries a proven
singleton certificate, in which case the variety is a finite set of points.
Disconnectedness is never claimed without those certificates.

A GL_3 chain (f = 1) between labels lam and lam' = lam + d depends only on
lam_nat(lam) and d, both lowered against mu: lam_nat(lam + d) = lam_nat(lam)
- d + eps w(d) decides the end's label test from the start's lam_nat, and
each step moves lam_nat by such an increment.  So the chains read their
steps from a table per (w, eps, lowered mu), and a refusal is never stored.
What depends on (datum, mu) alone, the checks of the shape, the 3-cycle and
mu and the lowered mu and tau, is held in a context cached per (datum, mu),
so a sweep that chains every pair of labels of one mu checks mu once.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, sub
from typing import NamedTuple

from .core import Cochar, GroupShape, Perm, WeylElt, _block_dominated, _dominated, act_perm, perm_inv, twist_block
from .errors import PreconditionError, TheoremViolationError
from .normal_form import FrobeniusDatum
from .strata import (
    _CACHED,
    _require_mu,
    _root_table,
    _shift_blocks,
    enumerate_strata,
)


class StrataGraph(NamedTuple):
    vertices: tuple  # tuple of Stratum
    edges: tuple  # tuple of (lam, lam', Root) with lam' = lam - coroot
    components: tuple  # partition of vertex labels, each a sorted tuple of lam


class Pi0Report(NamedTuple):
    upper_bound: int
    exactness: str  # "exact" | "upper bound only" | "empty"


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def _edge_ok(mu: Cochar, nat: Cochar, k: int, i: int, j: int, k2: int, a: int, b: int, e: int) -> bool:
    """The three dominance conditions of the edge lam -> lam - cov, from the
    label's lam_nat and the blocks the move touches, unchecked: cov = e_i - e_j
    on block k and its twist w(sigma(cov)) = e * (e_a - e_b) on block
    k2 = k - 1 mod N, with a = w_k2(i), b = w_k2(j) and e = eps_k2.

    The conditions are dominance of nat + cov, nat - twisted and
    nat + cov - twisted, each tested by ``core._block_dominated`` on the
    blocks it changes only.  This is exact: nat is a label's lam_nat, so every
    block of nat is dominated already, and each vector differs from nat on
    block k, block k2 or both.  Since nat(lam - cov) = nat + cov - twisted,
    the third condition says exactly that lam - cov is a label.  When
    k != k2 its block k is the first condition's and its block k2 the
    second's, so it is tested only when k == k2.

    Acceptance is symmetric.  Let lam' = lam - cov be a label, with
    nat' = nat + cov - twisted.  The reverse move lam' -> lam is the root
    -alpha, whose coroot is -cov and whose twist is -twisted, so its three
    vectors are nat' - cov = nat - twisted, nat' + twisted = nat + cov, and
    nat' - cov + twisted = nat: the second, the first, and lam's own lam_nat,
    dominated since lam is a label.  So lam -> lam' is accepted exactly when
    lam' is a label and lam' -> lam is accepted, and ``build_graph`` finds
    each edge from one end.  lam' > lam exactly when the root is negative,
    i > j: lam' differs from lam on block k only, first at position
    min(i, j), where it gains 1 when j < i and loses 1 when i < j.
    """
    up = list(nat[k])
    up[i] += 1
    up[j] -= 1
    if not _block_dominated(up, mu[k]):
        return False
    down = list(nat[k2])
    down[a] -= e
    down[b] += e
    if not _block_dominated(down, mu[k2]):
        return False
    if k != k2:
        return True
    up[a] -= e
    up[b] += e
    return _block_dominated(up, mu[k])


@lru_cache(maxsize=_CACHED)
def _graph_moves(shape: GroupShape, w: WeylElt) -> tuple:
    """One row (root, k, i, j, k2, a, b, e) per root, in all_roots order, with
    the arguments ``_edge_ok`` takes for its coroot: k2 = k - 1 mod N,
    a = w_k2(i), b = w_k2(j) and e = eps_k2.  Built once per (shape, w)."""
    return tuple(
        (alpha, k, i, j, (k - 1) % shape.blocks, w[k - 1][i], w[k - 1][j], shape.eps[k - 1])
        for alpha, k, i, j, _ in _root_table(shape)
    )


@lru_cache(maxsize=_CACHED)
def _move_table(shape: GroupShape, w: WeylElt, mu0: Cochar) -> dict:
    """lam_nat lowered -> (root, k, i, j) of each row of ``_graph_moves`` that
    ``_edge_ok`` accepts from it, in all_roots order, for the lowered mu0:
    each block of mu less its least entry, and lam_nat's blocks less the
    same.  A central shift moves lam_nat and mu alike and the moves keep
    every block sum, so the verdicts depend on the lowered pair only, and
    every twist of (shape, w) shares the table.

    It starts empty and ``build_graph`` fills it, one entry per lowered
    lam_nat it meets; each key is a candidate of mu0 (its dominant sort is
    dominated by mu0), so the table holds at most prod_k
    len(strata.candidate_blocks(mu0_k)) entries."""
    return {}


def build_graph(datum: FrobeniusDatum, mu: Cochar) -> StrataGraph:
    """The coroot-curve graph on the strata.  Fewer than two strata have no
    edge, and are returned at once, each its own component.  Otherwise each
    stratum's accepted moves are read from the move table of (shape, w, mu
    lowered per block) (``_move_table``) under its lam_nat lowered the same
    way; a key not seen yet is decided by ``_edge_ok`` for every root, in
    all_roots order, on the blocks its coroot and the coroot's twist touch,
    so for a fixed set of strata the cost is linear in the number of blocks.
    lam' = lam - cov is built only for an accepted move; it is a label, and a
    lam' missing from the strata means the enumeration lost a label
    (TheoremViolationError), from whichever end the move starts.

    Acceptance is symmetric (``_edge_ok``), and lam' > lam exactly when the
    root is negative (i > j), so each edge is found once, from its smaller
    end: the edges come in the order of their smaller ends, each end's in
    all_roots order.  The strata are sorted by lam, so each component, and
    the components by their least labels, come out sorted.  The strata come
    from ``enumerate_strata``, whose records are shared: a caller that
    enumerated the same (datum, mu) just before pays nothing more there."""
    strata = enumerate_strata(datum, mu)
    if len(strata) < 2:
        return StrataGraph(strata, (), tuple((s.lam,) for s in strata))
    index = {s.lam: t for t, s in enumerate(strata)}
    drop = [-b[-1] for b in mu]
    mu0 = _shift_blocks(mu, drop)  # tuples, also for a mu given as lists
    table = _move_table(datum.shape, datum.w, mu0)
    uf = _UnionFind(len(strata))
    edges = []
    for t, s in enumerate(strata):
        nat0 = _shift_blocks(s.nat, drop)
        accepted = table.get(nat0)
        if accepted is None:
            moves = _graph_moves(datum.shape, datum.w)
            accepted = table[nat0] = tuple(m[:4] for m in moves if _edge_ok(mu0, nat0, *m[1:]))
        lam = s.lam
        for alpha, k, i, j in accepted:
            blk = list(lam[k])
            blk[i] -= 1
            blk[j] += 1
            lam2 = lam[:k] + (tuple(blk),) + lam[k + 1 :]
            t2 = index.get(lam2)
            if t2 is None:
                raise TheoremViolationError(
                    f"edge {lam} -> {lam2} passes the curve test, but {lam2} was not enumerated"
                )
            if i > j:  # lam2 > lam: the edge's smaller end is lam
                edges.append((lam, lam2, alpha))
                uf.union(t, t2)
    comps = {}
    for t, s in enumerate(strata):
        comps.setdefault(uf.find(t), []).append(s.lam)
    return StrataGraph(strata, tuple(edges), tuple(map(tuple, comps.values())))


def pi0_report(graph: StrataGraph) -> Pi0Report:
    if not graph.vertices:
        return Pi0Report(0, "empty")
    all_proven = all(s.singleton == "proven" for s in graph.vertices)
    return Pi0Report(len(graph.components), "exact" if all_proven else "upper bound only")


# ---------------------------------------------------------------------------
# GL_3 chains

_GL3_COROOTS = (
    (1, -1, 0),
    (0, 1, -1),
    (1, 0, -1),
    (-1, 1, 0),
    (0, -1, 1),
    (-1, 0, 1),
)


@lru_cache(maxsize=_CACHED)
def _chain_table(w: Perm, e: int) -> tuple:
    """Per coroot c of _GL3_COROOTS, in order, the row (c, w(c), det, plus,
    minus) that the chains of a 3-cycle w with eps = e read: det is the
    determinant of c and w(c) on the first two coordinates, and plus and
    minus are the steps +c and -w^2(c), each as (step, i, j, inc) with
    step = e_i - e_j and inc = -step + e w(step), the change of lam_nat when
    the label moves by step.  Each inc is ``twist_block`` of the step with
    tau = -step.  Built once per (w, e)."""
    winv = perm_inv(w)
    rows = []
    for c in _GL3_COROOTS:
        wc = act_perm(w, c)
        w2c = act_perm(w, wc)
        steps = []
        for step in (c, tuple(-x for x in w2c)):
            inc = twist_block(tuple(-x for x in step), winv, e, step, 1)
            steps.append((step, step.index(1), step.index(-1), inc))
        rows.append((c, wc, c[0] * wc[1] - c[1] * wc[0], *steps))
    return tuple(rows)


def _gl3_normal_form(diff: tuple, table: tuple):
    """Decompose diff = n1*c + n2*w(c) with n1 = max(|n1|, |n2|, |n1-n2|) >= n2 >= 0;
    returns (c's row of the chain table, n1, n2).

    Tries each of the six coroots c; existence follows from c + w(c) + w^2(c) = 0.
    diff sums to zero: ``_chain_steps``, the one caller, refuses any other
    difference, and each of its steps is a coroot.
    """
    for row in table:
        c, wc, det = row[:3]
        # {c, w(c)} is a unimodular basis of the sum-zero lattice when w is a
        # 3-cycle, so the 2x2 solve over the first two coordinates is exact,
        # and the third coordinate follows, since c, w(c) and diff sum to zero
        n1 = (diff[0] * wc[1] - diff[1] * wc[0]) // det
        n2 = (c[0] * diff[1] - c[1] * diff[0]) // det
        if n1 == max(abs(n1), abs(n2), abs(n1 - n2)) and n1 >= n2 >= 0:
            return row, n1, n2
    raise TheoremViolationError("no max-normalized coroot decomposition found")


def _is_gl3_label(lam) -> bool:
    """Whether lam is shaped like a GL_3, f = 1 label: ((a, b, c),) with ints."""
    if not (isinstance(lam, tuple) and len(lam) == 1 and isinstance(lam[0], tuple) and len(lam[0]) == 3):
        return False
    a, b, c = lam[0]
    return type(a) is int and type(b) is int and type(c) is int


@lru_cache(maxsize=_CACHED)
def _step_table(w: Perm, e: int, mu0: tuple) -> dict:
    """(lam_nat lowered, lam' - lam) -> the steps of the chain from lam to
    lam', for the 3-cycle w, eps = e and the lowered mu0: mu less its least
    entry, and lam_nat less the same.  A central shift moves lam_nat and mu
    alike, and for f = 1 lam_nat(lam + d) = lam_nat(lam) - d + e w(d), so the
    end's lam_nat, both label tests and every step depend on the key only,
    and every twist of (w, e) shares the table.

    It starts empty and ``chain_gl3`` fills it, one entry per key it decides;
    a refusal is never stored.  Both endpoints' lowered lam_nat are
    candidates of mu0, and d -> -d + e w(d) is injective for e >= 2, so the
    table holds at most len(strata.candidate_blocks(mu0))**2 entries."""
    return {}


def _chain_steps(ctx: tuple, nat: tuple, cur: tuple, goal: tuple) -> tuple:
    """The steps ((step,), ...) of the chain from the label block cur to
    goal, with ctx the chain context of (datum, mu) (``_chain_context``) and
    nat the lowered lam_nat of cur, or a refusal: PreconditionError when an
    endpoint is not a label, and TheoremViolationError when the induction
    fails.  The steps depend on (nat, goal - cur) only; cur itself appears in
    messages."""
    bound, _, winv, e, w = ctx
    diff = tuple(map(sub, goal, cur))
    end = twist_block(tuple(map(sub, nat, diff)), winv, e, diff, 1)  # nat - diff + e w(diff)
    if not _dominated((nat, end), (bound, bound)):  # both label tests at once
        raise PreconditionError("both endpoints must be stratum labels")
    if sum(diff):
        raise TheoremViolationError("difference of labels is not in the coroot lattice")

    table = _chain_table(w, e)
    steps = []
    prev_n1 = None
    while cur != goal:
        row, n1, n2 = _gl3_normal_form(tuple(map(sub, goal, cur)), table)
        if prev_n1 is not None and n1 >= prev_n1:
            raise TheoremViolationError("leading coefficient failed to decrease")
        prev_n1 = n1
        if n2 == 0:
            candidates = (row[3],)
        elif n2 == n1:
            candidates = (row[4],)
        else:
            candidates = row[3:]
        for step, i, j, inc in candidates:
            nxt_nat = tuple(map(add, nat, inc))
            if _block_dominated(nxt_nat, bound):
                break
        else:
            raise TheoremViolationError("no admissible coroot step stays in S")
        nxt = tuple(map(add, cur, step))
        if not _edge_ok((bound,), (nxt_nat,), 0, i, j, 0, w[i], w[j], e):  # the edge nxt -> nxt - step = cur
            raise TheoremViolationError(f"chain step {(cur,)} -> {(nxt,)} is not a coroot-curve edge")
        steps.append((step,))
        cur, nat = nxt, nxt_nat
    return tuple(steps)


@lru_cache(maxsize=_CACHED)
def _chain_context(datum: FrobeniusDatum, mu: Cochar) -> tuple:
    """The checks and values of ``chain_gl3`` fixed by (datum, mu): GL_3 with
    f = 1, a 3-cycle Weyl part, then mu (``strata._require_mu``), refused in
    that order; then (bound, tau0, winv, e, w) with bound the block of mu less
    its least entry, tau0 the block of tau less the same, w the Weyl part,
    winv its inverse and e = eps.  A refusal is raised afresh on
    every call, never stored.  Plain values only: the step table is looked up
    on each call, so a table dropped from its own cache is never read."""
    shape = datum.shape
    if shape.n != 3 or shape.blocks != 1:
        raise PreconditionError("chain construction requires GL_3 with f = 1")
    w = datum.w[0]
    if any(w[i] == i for i in range(3)):  # a permutation of 3 points is a 3-cycle iff it fixes none
        raise PreconditionError("chain construction requires a 3-cycle Weyl part")
    _require_mu(datum, mu)
    low = mu[0][-1]
    return (
        tuple([x - low for x in mu[0]]),  # a tuple, also for a mu given as lists
        tuple([x - low for x in datum.tau[0]]),
        datum.plan.winv[0],
        shape.eps[0],
        w,
    )


def chain_gl3(datum: FrobeniusDatum, mu: Cochar, lam: Cochar, lam_prime: Cochar):
    """A coroot chain lam = lam_0, ..., lam_r = lam' inside S for GL_3, f = 1.

    Greedy induction on the max-normalized decomposition of the remaining
    difference: walk straight when it is a coroot multiple, otherwise step by
    +c or -(w^2 c), whichever stays in S.  Each step reduces the normal form's
    leading coefficient by one (asserted); if neither step stays in S the
    induction hypothesis is violated and a hard error is raised.  Each step
    must pass ``_edge_ok``, the edge kernel of ``build_graph``, as the edge
    from the new label back to the old one (asserted); the step (i, j) and
    its twist are read off the one block, and the kernel's third test, the
    old label's membership, costs one more 3-entry block.

    Membership in S = {lam : dominant(lam_nat) <= mu} is decided by that
    defining inequality, so no strata are enumerated and no
    EnumerationCapError can arise.  The shape, the 3-cycle and mu are
    checked once per (datum, mu), in the chain context (``_chain_context``),
    which also lowers mu and tau; a mu that cannot be a cache key, such as
    one given as lists, is checked on every call.  Every call checks both
    endpoints' shapes and computes the start's lowered lam_nat from its three
    entries.  The steps are read from the table of (w, eps, mu lowered by its
    least entry) (``_step_table``) under the start's lowered lam_nat and
    lam' - lam; a key not seen yet is decided by ``_chain_steps``.  Since
    lam_nat(lam + d) = lam_nat(lam) - d + eps w(d) when f = 1, the end's
    lam_nat is the start's plus that increment, and both are tested as labels
    there.  Each step moves lam_nat by the exact increment of the coroot
    table (``_chain_table``, built once per (w, eps)), and the stepped
    lam_nat is tested with ``core._block_dominated`` against mu.  An endpoint
    that is not a label, or not shaped like one, raises PreconditionError,
    afresh on every call: a refusal is never stored.

    Returns (chain, steps) with steps the coroots lam_{i+1} - lam_i.
    """
    try:
        ctx = _chain_context(datum, mu)
    except TypeError:  # mu is no cache key (or its checks raised TypeError, which they raise again here)
        ctx = _chain_context.__wrapped__(datum, mu)
    if not (_is_gl3_label(lam) and _is_gl3_label(lam_prime)):
        raise PreconditionError("both endpoints must be stratum labels")
    bound, tau0, winv, e, w = ctx
    start, goal = lam[0], lam_prime[0]
    a, b, c = start
    # lam_nat = tau + e w(lam) - lam, place i taking e lam[winv[i]], lowered
    nat = (tau0[0] + e * start[winv[0]] - a, tau0[1] + e * start[winv[1]] - b, tau0[2] + e * start[winv[2]] - c)
    table = _step_table(w, e, bound)
    key = (nat, (goal[0] - a, goal[1] - b, goal[2] - c))
    steps = table.get(key)
    if steps is None:
        steps = table[key] = _chain_steps(ctx, nat, start, goal)
    chain = [lam]
    for ((x, y, z),) in steps:
        a += x
        b += y
        c += z
        chain.append(((a, b, c),))
    return tuple(chain), steps
