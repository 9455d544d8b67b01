"""The benchmark's own arithmetic, written apart from the library so that its
checks do not share the code they check.

Conventions match the library's documented ones: permutations are 0-indexed
one-line tuples, the Weyl action is the place permutation
``(w.v)[perm[i]] = v[i]``, and the Frobenius is ``sigma(v)[k] = eps[k] * v[k+1]``
with a cyclic block index.  Everything is exact (ints and Fractions).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction


def act_perm(perm, v):
    out = [None] * len(v)
    for i, x in enumerate(v):
        out[perm[i]] = x
    return tuple(out)


def perm_inv(perm):
    out = [0] * len(perm)
    for i, x in enumerate(perm):
        out[x] = i
    return tuple(out)


def twisted(lam, w, eps):
    """w(sigma(lam)): block k is eps[k] * w_k(lam[k+1])."""
    nb = len(lam)
    return tuple(
        tuple(eps[k] * x for x in act_perm(w[k], lam[(k + 1) % nb])) for k in range(nb)
    )


def nat(lam, tau, w, eps):
    """-lam + tau + w(sigma(lam))."""
    tw = twisted(lam, w, eps)
    return tuple(
        tuple(-a + t + b for a, t, b in zip(lb, tb, wb)) for lb, tb, wb in zip(lam, tau, tw)
    )


def dominated(v, mu):
    """Sort every block of v non-increasingly and compare partial sums with mu."""
    for vb, mb in zip(v, mu):
        srt = sorted(vb, reverse=True)
        if sum(srt) != sum(mb):
            return False
        acc_v = acc_m = 0
        for x, y in zip(srt, mb):
            acc_v += x
            acc_m += y
            if acc_v > acc_m:
                return False
    return True


def in_variety(lam, tau, w, eps, mu):
    return dominated(nat(lam, tau, w, eps), mu)


# ---------------------------------------------------------------------------
# box search


def block_sums(tau, w, eps, mu):
    """The per-block coordinate sums every label must have, or None.

    Summing the defining vector blockwise gives -s_k + t_k + eps_k s_{k+1} = m_k;
    this cyclic system has one rational solution, and no label exists unless
    it is integral.
    """
    nb = len(tau)
    c = [sum(tb) - sum(mb) for tb, mb in zip(tau, mu)]
    # s_k = c_k + eps_k s_{k+1}; unroll around the cycle from block 0
    acc, scale = Fraction(0), 1
    for k in range(nb):
        acc += scale * c[k]
        scale *= eps[k]
    s0 = acc / (1 - scale)
    sums = [None] * nb
    sums[0] = s0
    for k in range(nb - 1, 0, -1):
        sums[k] = c[k] + eps[k] * sums[(k + 1) % nb]
    if any(s.denominator != 1 for s in sums):
        return None
    return tuple(int(s) for s in sums)


def box_radius(tau, mu, p):
    """Sup-norm bound on every label when every eps entry is p.

    Entries of lam_nat lie between min(mu) and max(mu), and w(sigma) multiplies
    the sup-norm by p, so (p - 1)|lam| <= max|mu| + max|tau|.
    """
    top = max(abs(x) for b in mu for x in b) + max(abs(x) for b in tau for x in b)
    return top // (p - 1)


def _block_vectors(n, total, radius):
    """Integer n-vectors with the given sum and entries in [-radius, radius]."""
    out = []
    for head in itertools.product(range(-radius, radius + 1), repeat=n - 1):
        last = total - sum(head)
        if -radius <= last <= radius:
            out.append(head + (last,))
    return out


def box_strata(tau, w, mu, p):
    """Every label of C_mu(u^tau w), found by brute force over the provably
    complete box; requires the plain eps pattern (every block scales by p)."""
    nb, n = len(tau), len(tau[0])
    eps = (p,) * nb
    sums = block_sums(tau, w, eps, mu)
    if sums is None:
        return set()
    radius = box_radius(tau, mu, p)
    per_block = [_block_vectors(n, s, radius) for s in sums]
    found = set()
    for lam in itertools.product(*per_block):
        if in_variety(lam, tau, w, eps, mu):
            found.add(lam)
    return found


# ---------------------------------------------------------------------------
# roots, dimensions and components


def is_coroot_step(a, b):
    """True when b - a is e_i - e_j (i != j) inside one block."""
    diffs = [(k, tuple(y - x for x, y in zip(ab, bb))) for k, (ab, bb) in enumerate(zip(a, b))]
    moved = [(k, d) for k, d in diffs if any(d)]
    if len(moved) != 1:
        return False
    d = moved[0][1]
    return sorted(d) == [-1] + [0] * (len(d) - 2) + [1]


def dimension(lam, nat_lam):
    """|R(lam)| with R(lam) = {alpha : lam_alpha >= 1, <alpha, lam_nat> = -1}."""
    count = 0
    for lb, nb in zip(lam, nat_lam):
        for i, j in itertools.permutations(range(len(lb)), 2):
            pairing = lb[i] - lb[j]
            lam_alpha = pairing - 1 if i < j else pairing
            if lam_alpha >= 1 and nb[i] - nb[j] == -1:
                count += 1
    return count


def components(labels, edges):
    """Connected components (sorted tuples of labels) by union-find."""
    index = {lam: t for t, lam in enumerate(labels)}
    parent = list(range(len(labels)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(index[a]), find(index[b])
        if ra != rb:
            parent[rb] = ra
    groups = {}
    for lam in labels:
        groups.setdefault(find(index[lam]), []).append(lam)
    return sorted(tuple(sorted(g)) for g in groups.values())


# ---------------------------------------------------------------------------
# simple data, written from their definition


def is_simple(n, q, m):
    """m (q^d - 1)/(q^n - 1) is not an integer for any proper divisor d of n."""
    return all(
        (m * (q**d - 1)) % (q**n - 1) != 0 for d in range(1, n) if n % d == 0
    )


@functools.lru_cache(maxsize=None)
def solve_matrix(w, eps, n):
    """The inverse of 1 - w sigma on integer cochars, as an integer matrix
    over a common denominator: (rows, den).  Coordinate (k, i) is k * n + i."""
    nb = len(w)
    dim = nb * n
    mat = [[Fraction(0)] * dim for _ in range(dim)]
    inv = [[Fraction(int(r == c)) for c in range(dim)] for r in range(dim)]
    for k in range(nb):
        winv = perm_inv(w[k])
        for i in range(n):
            r = k * n + i
            mat[r][r] += 1
            mat[r][((k + 1) % nb) * n + winv[i]] -= eps[k]
    for col in range(dim):
        piv = next(r for r in range(col, dim) if mat[r][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = 1 / mat[col][col]
        mat[col] = [x * scale for x in mat[col]]
        inv[col] = [x * scale for x in inv[col]]
        for r in range(dim):
            if r != col and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[col])]
                inv[r] = [a - f * b for a, b in zip(inv[r], inv[col])]
    den = math.lcm(*(x.denominator for row in inv for x in row))
    return tuple(tuple(int(x * den) for x in row) for row in inv), den


def fixed_point(tau, w, eps):
    """The rational e with e = tau + w(sigma(e))."""
    n = len(tau[0])
    rows, den = solve_matrix(w, eps, n)
    flat = [x for b in tau for x in b]
    e = [Fraction(sum(a * b for a, b in zip(row, flat)), den) for row in rows]
    return tuple(tuple(e[k * n: (k + 1) * n]) for k in range(len(tau)))


def strata_by_inversion(tau, w, eps, mu):
    """Every label, by solving lam = tau - nu + w(sigma(lam)) for each candidate
    nu with dominant(nu) <= mu through one dense inverse of 1 - w sigma.  Used
    where the box is too large to search (other eps patterns, many blocks)."""
    nb, n = len(tau), len(tau[0])
    inverse, den = solve_matrix(w, eps, n)
    per_block = [
        [v for dom in dominant_leq(b) for v in set(itertools.permutations(dom))] for b in mu
    ]
    found = set()
    for nu in itertools.product(*per_block):
        rhs = [t - x for tb, vb in zip(tau, nu) for t, x in zip(tb, vb)]
        lam = [sum(a * b for a, b in zip(row, rhs)) for row in inverse]
        if all(x % den == 0 for x in lam):
            found.add(tuple(tuple(lam[k * n + i] // den for i in range(n)) for k in range(nb)))
    return found


def in_alcove(e):
    return all(
        all(b[i] > b[i + 1] for i in range(len(b) - 1)) and b[0] - b[-1] < 1 for b in e
    )


@functools.lru_cache(maxsize=None)
def simple_datum(n, f, p, m):
    """(tau, w) of u^(m,0,...,0)(n-cycle), conjugated into the alcove unless
    its fixed point already lies there.

    Conjugating by z = u^chi y gives the Weyl part y_k^{-1} w_k y_{k+1} and the
    fixed point y^{-1}(e - chi); tau is then read off the fixed-point identity.
    chi takes the floors of e and y sorts the fractional parts decreasingly.
    """
    eps = (p,) * f
    tau = ((m,) + (0,) * (n - 1),) + ((0,) * n,) * (f - 1)
    cyc = tuple((i + 1) % n for i in range(n))
    w = (cyc,) + (tuple(range(n)),) * (f - 1)
    e = fixed_point(tau, w, eps)
    if any(x.denominator == 1 for b in e for x in b):
        raise ArithmeticError("fixed point has an integral entry")
    if in_alcove(e):
        return tau, w
    ys = []
    e2 = []
    for b in e:
        floors = [math.floor(x) for x in b]
        frac = [x - fl for x, fl in zip(b, floors)]
        order = sorted(range(n), key=lambda i: -frac[i])
        ys.append(tuple(order))  # y(t) = order[t]
        e2.append(tuple(frac[order[t]] for t in range(n)))
    w2 = tuple(
        tuple(perm_inv(ys[k])[w[k][ys[(k + 1) % f][t]]] for t in range(n)) for k in range(f)
    )
    e2 = tuple(e2)
    tw = twisted(e2, w2, eps)
    tau2 = tuple(tuple(a - b for a, b in zip(eb, tb)) for eb, tb in zip(e2, tw))
    if any(x.denominator != 1 for b in tau2 for x in b) or not in_alcove(e2):
        raise ArithmeticError("alcove conjugation failed")
    return tuple(tuple(int(x) for x in b) for b in tau2), w2


# ---------------------------------------------------------------------------
# candidate counts, for sizing inputs


def dominant_leq(mu_block):
    """Dominant integer vectors dominated by one dominant block."""
    n, total = len(mu_block), sum(mu_block)
    lo, hi = min(mu_block), max(mu_block)
    prefix = list(itertools.accumulate(mu_block))
    out = []

    def rec(pos, prev, acc, cur):
        if pos == n - 1:
            last = total - acc
            if lo <= last <= prev:
                out.append(tuple(cur) + (last,))
            return
        for v in range(min(prev, hi), lo - 1, -1):
            if acc + v <= prefix[pos]:
                rec(pos + 1, v, acc + v, cur + [v])

    rec(0, hi, 0, [])
    return out


def arrangements(vec):
    """Number of distinct permutations of vec."""
    count = math.factorial(len(vec))
    for x in set(vec):
        count //= math.factorial(vec.count(x))
    return count


def candidate_count(mu):
    """Vectors nu with dominant(nu) <= mu, one factor per block."""
    total = 1
    for b in mu:
        total *= sum(arrangements(v) for v in dominant_leq(b))
    return total
