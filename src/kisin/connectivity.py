"""Coroot-curve adjacency between strata, pi_0 bounds, and the GL_3 chains.

An edge between lam and lam' = lam - alpha_cov certifies that the affine line
u^lam U_alpha(u^{-1}x) closes to a curve joining u^lam and u^lam'; three
dominance conditions on lam_nat decide it.  Components merged by such edges
bound pi_0 from above; the bound is exact when every stratum carries a proven
singleton certificate, in which case the variety is a finite set of points.
Disconnectedness is never claimed without those certificates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Cochar, _block_dominated, _dominated, act_perm, cochar_add
from .errors import PreconditionError, TheoremViolationError
from .normal_form import FrobeniusDatum
from .strata import (
    _is_label,
    _require_alcove,
    _require_dominant_mu,
    _root_table,
    _twist,
    enumerate_strata,
)


@dataclass(frozen=True)
class StrataGraph:
    vertices: tuple  # tuple of Stratum
    edges: tuple  # tuple of (lam, lam', Root) with lam' = lam - coroot
    components: tuple  # partition of vertex labels, each a sorted tuple of lam


@dataclass(frozen=True)
class Pi0Report:
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


def build_graph(datum: FrobeniusDatum, mu: Cochar) -> StrataGraph:
    """The coroot-curve graph on the strata.  Every root, in all_roots order,
    is tested from each stratum's stored lam_nat by ``_edge_ok`` on the
    blocks its coroot and the coroot's twist touch, so for a fixed set of
    strata the cost is linear in the number of blocks.  lam' = lam - cov is
    built only for an accepted edge; it is a label, and a lam' missing from
    the strata means the enumeration lost a label (TheoremViolationError).
    The strata come from ``enumerate_strata``, whose records are shared: a
    caller that enumerated the same (datum, mu) already pays nothing here."""
    strata = enumerate_strata(datum, mu)
    index = {s.lam: t for t, s in enumerate(strata)}
    shape, w = datum.shape, datum.w
    # one row (root, k, i, j, k2, a, b, e) per root; one stratum has no edges
    moves = [
        (alpha, k, i, j, (k - 1) % shape.blocks, w[k - 1][i], w[k - 1][j], shape.eps[k - 1])
        for alpha, k, i, j, _ in _root_table(shape)
    ] if len(strata) > 1 else ()
    uf = _UnionFind(len(strata))
    edges = []
    seen_pairs = set()
    for t, s in enumerate(strata):
        for alpha, k, i, j, k2, a, b, e in moves:
            if not _edge_ok(mu, s.nat, k, i, j, k2, a, b, e):
                continue
            blk = list(s.lam[k])
            blk[i] -= 1
            blk[j] += 1
            lam2 = s.lam[:k] + (tuple(blk),) + s.lam[k + 1:]
            t2 = index.get(lam2)
            if t2 is None:
                raise TheoremViolationError(f"edge {s.lam} -> {lam2} passes the curve test, but {lam2} was not enumerated")
            key = frozenset((s.lam, lam2))
            if key not in seen_pairs:
                seen_pairs.add(key)
                edges.append((s.lam, lam2, alpha))
                uf.union(t, t2)
    comps = {}
    for t, s in enumerate(strata):
        comps.setdefault(uf.find(t), []).append(s.lam)
    components = tuple(sorted(tuple(sorted(c)) for c in comps.values()))
    return StrataGraph(strata, tuple(edges), components)


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


def _gl3_normal_form(diff: tuple, w: tuple):
    """Decompose diff = n1*c + n2*w(c) with n1 = max(|n1|, |n2|, |n1-n2|) >= n2 >= 0.

    Tries each of the six coroots c; existence follows from c + w(c) + w^2(c) = 0.
    """
    for c in _GL3_COROOTS:
        wc = act_perm(w, c)
        # {c, w(c)} is a unimodular basis of the sum-zero lattice when w is a
        # 3-cycle, so the 2x2 solve over the first two coordinates is exact
        det = c[0] * wc[1] - c[1] * wc[0]
        n1 = (diff[0] * wc[1] - diff[1] * wc[0]) // det
        n2 = (c[0] * diff[1] - c[1] * diff[0]) // det
        if n1 * c[2] + n2 * wc[2] != diff[2]:
            continue
        if n1 == max(abs(n1), abs(n2), abs(n1 - n2)) and n1 >= n2 >= 0:
            return c, n1, n2
    raise TheoremViolationError("no max-normalized coroot decomposition found")


def _is_gl3_label(lam) -> bool:
    """Whether lam is shaped like a GL_3, f = 1 label: ((a, b, c),) with ints."""
    return (
        isinstance(lam, tuple)
        and len(lam) == 1
        and isinstance(lam[0], tuple)
        and len(lam[0]) == 3
        and all(type(x) is int for x in lam[0])
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
    defining inequality for the endpoints and for every step, so no strata are
    enumerated and no EnumerationCapError can arise.  An endpoint that is not
    a label, or not shaped like one, raises PreconditionError.

    Returns (chain, steps) with steps the coroots lam_{i+1} - lam_i.
    """
    shape = datum.shape
    if shape.n != 3 or shape.blocks != 1:
        raise PreconditionError("chain construction requires GL_3 with f = 1")
    w = datum.w[0]
    if any(w[i] == i for i in range(3)):  # a permutation of 3 points is a 3-cycle iff it fixes none
        raise PreconditionError("chain construction requires a 3-cycle Weyl part")
    _require_alcove(datum)
    _require_dominant_mu(mu)
    shape.check_cochar(mu)
    for end in (lam, lam_prime):
        if not (_is_gl3_label(end) and _is_label(datum, mu, end)):
            raise PreconditionError("both endpoints must be stratum labels")
    if sum(lam[0]) != sum(lam_prime[0]):
        raise TheoremViolationError("difference of labels is not in the coroot lattice")

    chain = [lam]
    steps = []
    cur = lam
    prev_n1 = None
    while cur != lam_prime:
        diff = tuple(a - b for a, b in zip(lam_prime[0], cur[0]))
        c, n1, n2 = _gl3_normal_form(diff, w)
        if prev_n1 is not None and n1 >= prev_n1:
            raise TheoremViolationError("leading coefficient failed to decrease")
        prev_n1 = n1
        w2c = act_perm(w, act_perm(w, c))
        step_plus = (c,)
        step_minus = (tuple(-x for x in w2c),)
        if n2 == 0:
            candidates = (step_plus,)
        elif n2 == n1:
            candidates = (step_minus,)
        else:
            candidates = (step_plus, step_minus)
        for step in candidates:
            nxt = cochar_add(cur, step)
            nat = _twist(datum, nxt)[1]
            if _dominated(nat, mu):
                break
        else:
            raise TheoremViolationError("no admissible coroot step stays in S")
        i, j = step[0].index(1), step[0].index(-1)
        if not _edge_ok(mu, nat, 0, i, j, 0, w[i], w[j], shape.eps[0]):  # the edge nxt -> nxt - step = cur
            raise TheoremViolationError(f"chain step {cur} -> {nxt} is not a coroot-curve edge")
        steps.append(step)
        chain.append(nxt)
        cur = nxt
    return tuple(chain), tuple(steps)
