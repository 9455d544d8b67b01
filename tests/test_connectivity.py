import ast
import itertools
import json
import random
import re
from collections import Counter

import pytest

from conftest import (
    chain_gl3_by_retwisting,
    coroot,
    dominant_vecs,
    edge_exists,
    graph_by_full_cochars,
    gl3_sweep_instances,
)
from kisin import connectivity
from kisin.cli import CASES, counterexample, main
from kisin.core import ExtAffine, GroupShape, Root, act_perm, all_roots, cochar_sub
from kisin.errors import ConfigError, PreconditionError, TheoremViolationError
from kisin.connectivity import (
    build_graph,
    chain_gl3,
    pi0_report,
)
from kisin.multicopy import make_multi
from kisin.normal_form import caruso_datum, is_caruso_simple, make_datum
from kisin.connectivity import _is_gl3_label
from kisin.strata import _is_label, _require_mu, candidate_blocks, central_twist, enumerate_strata, stratum_nonempty


def datum_a(p=3):
    sh = GroupShape.res_field(4, 1, p)
    return make_datum(sh, ExtAffine(((2, 0, 2, 0),), ((1, 3, 0, 2),)))


def datum_b(p=3):
    sh = GroupShape.res_field(3, 2, p)
    return make_datum(sh, ExtAffine(((2, 0, 1), (0, 0, 1)), ((1, 2, 0), (0, 1, 2))))


class TestEdges:
    def test_counterexample_a_no_edge(self):
        # the two labels differ by the coroot of alpha_{1,4}; all curve
        # conditions fail, consistent with a disconnected variety
        d = datum_a()
        mu = ((5, 3, 3, 1),)
        assert not edge_exists(d, mu, ((2, 1, 1, 0),), Root(0, 0, 3))
        g = build_graph(d, mu)
        assert g.edges == ()
        r = pi0_report(g)
        assert r.upper_bound == 2 and r.exactness == "exact"

    def test_counterexample_b_exact_two(self):
        g = build_graph(datum_b(), ((4, 0, 0), (3, 3, 0)))
        r = pi0_report(g)
        assert r.upper_bound == 2 and r.exactness == "exact"
        assert len(g.vertices) == 2 and g.edges == ()

    def test_empty_report(self):
        d = datum_a()
        g = build_graph(d, ((1, 0, 0, 0),))
        assert pi0_report(g).exactness == "empty"

    def test_missing_endpoint_fails_third_condition(self):
        d = caruso_datum(3, 1, 2, 1)
        mu = ((1, 1, -1),)
        S = [s.lam for s in enumerate_strata(d, mu)]
        labels = set(S)
        for lam in S:
            for alpha in all_roots(d.shape):
                lam2 = cochar_sub(lam, coroot(alpha, d.shape))
                if lam2 not in labels:
                    assert not stratum_nonempty(d, mu, lam2)
                    assert not edge_exists(d, mu, lam, alpha)

    def test_edge_symmetry(self):
        d = caruso_datum(3, 1, 2, 1)
        for mu in (((1, 1, -1),), ((2, 0, -1),), ((1, 0, 0),)):
            S = [s.lam for s in enumerate_strata(d, mu)]
            labels = set(S)
            for lam in S:
                for alpha in all_roots(d.shape):
                    lam2 = cochar_sub(lam, coroot(alpha, d.shape))
                    if lam2 not in labels:
                        continue
                    rev = Root(alpha.block, alpha.j, alpha.i)
                    assert edge_exists(d, mu, lam, alpha) == edge_exists(d, mu, lam2, rev)

    @pytest.mark.parametrize(
        "datum,mu",
        [
            (datum_a(), ((5, 3, 3, 1),)),
            (datum_b(), ((4, 0, 0), (3, 3, 0))),
            (caruso_datum(3, 1, 2, 6), ((3, -1, -3),)),
            (caruso_datum(3, 1, 3, 25), ((3, 0, -2),)),
            (caruso_datum(2, 2, 2, 2), ((2, 0), (1, -1))),
        ],
    )
    def test_graph_edges_match_edge_exists(self, datum, mu):
        # build_graph tests edges from the stored lam_nat; the edge oracle
        # recomputes every condition from its definition and must agree edge
        # for edge
        S = enumerate_strata(datum, mu)
        index = {s.lam for s in S}
        edges, seen = [], set()
        for s in S:
            for alpha in all_roots(datum.shape):
                lam2 = cochar_sub(s.lam, coroot(alpha, datum.shape))
                key = frozenset((s.lam, lam2))
                if lam2 in index and key not in seen and edge_exists(datum, mu, s.lam, alpha):
                    seen.add(key)
                    edges.append((s.lam, lam2, alpha))
        graph = build_graph(datum, mu)
        assert graph.vertices == S and graph.edges == tuple(edges)

    def test_gl3_third_condition_shortcut(self):
        # for a 3-cycle the third dominance condition implies the first two,
        # so build_graph joins every pair of labels one coroot apart
        for p, mmax in ((2, 7),):
            for m in range(-mmax, mmax + 1):
                if not is_caruso_simple(3, p, m):
                    continue
                d = caruso_datum(3, 1, p, m)
                for mu_flat in itertools.product(range(2, -3, -1), repeat=3):
                    if not (mu_flat[0] >= mu_flat[1] >= mu_flat[2]):
                        continue
                    mu = (mu_flat,)
                    g = build_graph(d, mu)
                    labels = {s.lam for s in g.vertices}
                    edge_pairs = {frozenset((a, b)) for a, b, _ in g.edges}
                    for lam in labels:
                        for alpha in all_roots(d.shape):
                            lam2 = cochar_sub(lam, coroot(alpha, d.shape))
                            if lam2 in labels:
                                assert edge_exists(d, mu, lam, alpha)
                                assert frozenset((lam, lam2)) in edge_pairs


def found_family(N):
    """The n = 2 shape with N blocks scaled (1, ..., 1, 3), mu nonzero on
    three of them: 16 strata for every N, and 18 edges from N = 4 on."""
    shape = GroupShape(n=2, blocks=N, eps=(1,) * (N - 1) + (3,), p=3)
    tau = ((0, 0),) * (N - 1) + ((1, 0),)
    w = ((0, 1),) * (N - 1) + ((1, 0),)
    return make_datum(shape, ExtAffine(tau, w)), ((3, 0),) * 3 + ((0, 0),) * (N - 3)


def sweep_twists():
    return [(p, m) for p in (2, 3) for m in range(-(p**3 - 1), p**3) if is_caruso_simple(3, p, m)]


class TestGraphByBlocks:
    """build_graph tests each edge on the blocks its move touches; the graph
    built from full N-block coroots and twists must be the same, edge for
    edge and in the same order."""

    @pytest.mark.parametrize("p,m", sweep_twists())
    def test_gl3_sweep(self, p, m):
        d = caruso_datum(3, 1, p, m)
        for mu in dominant_vecs(3, -3, 3):
            assert build_graph(d, (mu,)) == graph_by_full_cochars(d, (mu,)), mu

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("p", (3, 5, 7, 211))
    def test_goldens(self, case, p):
        d, mu = counterexample(CASES[case], p)
        graph = build_graph(d, mu)
        assert graph == graph_by_full_cochars(d, mu)
        assert len(graph.vertices) == 2 and graph.edges == ()

    @pytest.mark.parametrize("n,p,m", ((2, 2, 1), (2, 3, 1), (3, 2, 1)))
    @pytest.mark.parametrize("dd", (1, 2, 3))
    def test_multicopy_lifts(self, n, p, m, dd):
        lifted = make_multi(caruso_datum(n, 1, p, m), dd).lifted
        blocks = dominant_vecs(n, 0, 2 if n == 2 else 1)
        edges = 0
        for mu in itertools.product(blocks, repeat=dd):
            graph = build_graph(lifted, mu)
            assert graph == graph_by_full_cochars(lifted, mu), mu
            edges += len(graph.edges)
        assert edges or dd == 1  # a single copy of these twists has no edge

    @pytest.mark.parametrize("N", range(3, 21))
    def test_found_family(self, N):
        d, mu = found_family(N)
        graph = build_graph(d, mu)
        assert graph == graph_by_full_cochars(d, mu)
        assert graph.edges

    @pytest.mark.parametrize("end", ["smaller", "larger"])
    def test_lost_end_of_every_edge_is_a_theorem_violation(self, monkeypatch, capsys, end):
        # the least label is the smaller end of each of its edges, so only a
        # positive-root move reaches it, from a larger label, which appends
        # no edge; the largest label only a negative-root move reaches
        d = caruso_datum(3, 1, 2, 1)
        mu = ((3, 1, -3),)
        graph = build_graph(d, mu)
        lost = graph.vertices[0 if end == "smaller" else -1].lam
        ends = [e[:2] for e in graph.edges if lost in e[:2]]
        assert ends and all(e[0 if end == "smaller" else 1] == lost for e in ends)
        full = connectivity.enumerate_strata
        monkeypatch.setattr(
            connectivity, "enumerate_strata", lambda *args: tuple(s for s in full(*args) if s.lam != lost)
        )
        with pytest.raises(TheoremViolationError) as info:
            build_graph(d, mu)
        message = rf"edge (.*) -> {re.escape(str(lost))} passes the curve test, but .* was not enumerated"
        found = re.fullmatch(message, str(info.value))
        assert found, str(info.value)
        start = ast.literal_eval(found.group(1))
        assert (start > lost) == (end == "smaller")
        assert main(["graph", "--p", "2", "--n", "3", "--f", "1", "--m", "1", "--mu", "[[3,1,-3]]"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "was not enumerated" in captured.err and "Traceback" not in captured.err

    def test_lost_label_is_a_theorem_violation(self, monkeypatch, capsys):
        d = caruso_datum(3, 1, 2, 1)
        mu = ((3, 1, -3),)
        graph = build_graph(d, mu)
        assert len(graph.vertices) == 6 and len(graph.components) == 1
        lost = graph.vertices[2].lam
        full = connectivity.enumerate_strata
        monkeypatch.setattr(
            connectivity, "enumerate_strata", lambda *args: tuple(s for s in full(*args) if s.lam != lost)
        )
        with pytest.raises(TheoremViolationError, match=f"but {re.escape(str(lost))} was not enumerated"):
            build_graph(d, mu)
        assert main(["graph", "--p", "2", "--n", "3", "--f", "1", "--m", "1", "--mu", "[[3,1,-3]]"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "was not enumerated" in captured.err and "Traceback" not in captured.err


def lowered(v, mu):
    """v with block k less the least entry of mu_k."""
    return tuple(tuple(x - b[-1] for x in blk) for blk, b in zip(v, mu))


def move_table(datum, mu):
    """The move table build_graph reads for (datum, mu)."""
    return connectivity._move_table(datum.shape, datum.w, lowered(mu, mu))


def step_table(datum, mu):
    """The step table chain_gl3 reads for (datum, mu)."""
    return connectivity._step_table(datum.w[0], datum.shape.eps[0], lowered(mu, mu)[0])


def f2_pairs():
    """The simple n = 2 and every third n = 3 Caruso twist of f = 2 at p = 2,
    each with every mu of dominant blocks with entries in [-1, 1]."""
    out = []
    for n, step in ((2, 1), (3, 3)):
        blocks = dominant_vecs(n, -1, 1)
        twists = [m for m in range(-(4**n - 1), 4**n) if is_caruso_simple(n, 4, m)][::step]
        out += [(caruso_datum(n, 2, 2, m), mu) for m in twists for mu in itertools.product(blocks, repeat=2)]
    return out


class TestMoveTable:
    """build_graph reads each stratum's accepted moves from a table keyed by
    (shape, w, lowered mu) and the lowered lam_nat, shared by every central
    shift and every twist of (shape, w)."""

    @staticmethod
    def matches_edge_oracle(datum, mu):
        """Checks that the table's moves of each stratum are exactly the roots
        the edge oracle accepts from it, and that the graph is the oracle's,
        edge for edge; returns the number of strata."""
        graph = build_graph(datum, mu)
        assert graph == graph_by_full_cochars(datum, mu), (datum.tau, mu)
        if len(graph.vertices) < 2:
            return 0
        table = move_table(datum, mu)
        for s in graph.vertices:
            want = [alpha for alpha in all_roots(datum.shape) if edge_exists(datum, mu, s.lam, alpha)]
            got = table[lowered(s.nat, mu)]
            assert [alpha for alpha, _, _, _ in got] == want, (datum.tau, mu, s.lam)
            assert all((alpha.block, alpha.i, alpha.j) == (k, i, j) for alpha, k, i, j in got)
        return len(graph.vertices)

    def test_gl3_sweep_matches_edge_oracle(self):
        assert sum(self.matches_edge_oracle(d, mu) for d, mu, _ in gl3_sweep_instances()) > 9000

    def test_f2_shapes_match_edge_oracle(self):
        assert sum(self.matches_edge_oracle(d, mu) for d, mu in f2_pairs()) > 200

    def test_central_shift_hits_the_table(self, monkeypatch):
        datum, mu = caruso_datum(3, 1, 2, 1), ((3, 1, -3),)
        want = build_graph(datum, mu)
        assert len(want.vertices) == 6
        before = connectivity._move_table.cache_info()
        monkeypatch.setattr(connectivity, "_edge_ok", lambda *args: pytest.fail("_edge_ok called"))
        for c in (-7, 5, 11):
            d, m = central_twist(datum, mu, ((c,) * 3,))
            graph = build_graph(d, m)
            assert graph.edges == want.edges and graph.components == want.components
        after = connectivity._move_table.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 3

    def test_table_holds_only_candidates_of_the_lowered_mu(self):
        # every twist of p = 2 and p = 3, under three shifts, fills the tables
        # of its (shape, w); each key is a candidate of the lowered mu
        tables = {}
        for p, m in sweep_twists():
            base = caruso_datum(3, 1, p, m)
            for mu in dominant_vecs(3, -3, 3):
                for c in (-2, 0, 3):
                    d, shifted_mu = central_twist(base, (mu,), ((c,) * 3,))
                    if len(build_graph(d, shifted_mu).vertices) > 1:
                        tables[(d.shape, d.w, lowered(shifted_mu, shifted_mu))] = move_table(d, shifted_mu)
        filled = 0
        for (_, _, mu0), table in tables.items():
            candidates = set(itertools.product(*map(candidate_blocks, mu0)))
            assert set(table) <= candidates and len(table) <= len(candidates)
            filled += len(table)
        assert len(tables) > 20 and filled > 200


def golden_pairs():
    """Both goldens at p in {3, 5, 7}."""
    return [counterexample(CASES[case], p) for case in sorted(CASES) for p in (3, 5, 7)]


def multicopy_pairs():
    """The multi-copy lifts of TestGraphByBlocks with d <= 3, each with every
    mu of its blocks."""
    out = []
    for n, p, m in ((2, 2, 1), (2, 3, 1), (3, 2, 1)):
        blocks = dominant_vecs(n, 0, 2 if n == 2 else 1)
        for dd in (1, 2, 3):
            lifted = make_multi(caruso_datum(n, 1, p, m), dd).lifted
            out += [(lifted, mu) for mu in itertools.product(blocks, repeat=dd)]
    return out


def symmetric_moves(datum, mu):
    """Checks every move that ``_edge_ok`` accepts from every stratum of
    (datum, mu): its end lam' = lam - cov is a stratum, the reverse move from
    lam' under -alpha is accepted, and lam' > lam exactly when i > j, which
    is what lets build_graph take each edge from its smaller end only; so
    the graph has half as many edges as accepted moves.  Returns the number
    of accepted moves."""
    strata = {s.lam: s for s in enumerate_strata(datum, mu)}
    moves = connectivity._graph_moves(datum.shape, datum.w)
    by_root = {m[1:4]: m for m in moves}  # (block, i, j) -> the root's row
    accepted = 0
    for lam, s in strata.items():
        for alpha, k, i, j, *rest in moves:
            if not connectivity._edge_ok(mu, s.nat, k, i, j, *rest):
                continue
            end = cochar_sub(lam, coroot(alpha, datum.shape))
            assert end in strata, (datum.tau, mu, lam, alpha)
            back = by_root[k, j, i]
            assert connectivity._edge_ok(mu, strata[end].nat, *back[1:]), (datum.tau, mu, lam, alpha)
            assert (end > lam) == (i > j) == (not alpha.positive)
            accepted += 1
    assert accepted == 2 * len(build_graph(datum, mu).edges)
    return accepted


class TestEdgeSymmetry:
    """The three conditions of lam -> lam' under alpha are those of
    lam' -> lam under -alpha (``_edge_ok``), so every accepted move has an
    accepted reverse; build_graph relies on it to find each edge once."""

    def test_gl3_sweep(self):
        assert sum(symmetric_moves(d, mu) for d, mu, _ in gl3_sweep_instances()) > 20000

    def test_f2_pairs(self):
        assert sum(symmetric_moves(d, mu) for d, mu in f2_pairs()) > 300

    def test_goldens(self):
        # each golden has two strata and no edge: no move is accepted
        assert sum(symmetric_moves(d, mu) for d, mu in golden_pairs()) == 0

    def test_multicopy_lifts(self):
        assert sum(symmetric_moves(d, mu) for d, mu in multicopy_pairs()) > 300

    def test_found_family(self):
        assert all(symmetric_moves(*found_family(N)) for N in range(3, 21))


def _stuck_normal_form(real):
    """_gl3_normal_form with a leading coefficient that never decreases."""

    def stuck(diff, w):
        c, _, n2 = real(diff, w)
        return c, 99, n2

    return stuck


# each assertion of chain_gl3 that no input reaches, by the one collaborator
# that decides it: (name patched in connectivity, factory from the real value
# to the fault, lam, lam', message).  Both endpoints' membership is decided
# by one _dominated call on their lowered lam_nat, the coroots reach the
# chain through _chain_table, whose cache the test clears, and each step's
# membership is decided by _block_dominated on the stepped lam_nat.  Each
# fault is reached on a miss of the step table, which the test clears too
CHAIN_FAULTS = [
    ("_GL3_COROOTS", lambda real: (), ((0, 0, 0),), ((1, 0, -1),), "no max-normalized coroot decomposition found"),
    ("_dominated", lambda real: lambda *args: True, ((0, 0, 0),), ((1, 0, 0),), "difference of labels is not in the coroot lattice"),
    ("_gl3_normal_form", _stuck_normal_form, ((-1, 1, 0),), ((0, -1, 1),), "leading coefficient failed to decrease"),
    ("_block_dominated", lambda real: lambda *args: False, ((0, 0, 0),), ((1, 0, -1),), "no admissible coroot step stays in S"),
]


class TestChains:
    def test_normal_form_leading_coefficient_well_defined(self):
        # several coroots can decompose the same difference; the normalized
        # leading coefficient must not depend on the choice, or the monotone
        # descent assertion in the chain construction would be unsound
        from kisin.connectivity import _GL3_COROOTS
        from kisin.core import act_perm

        for w in ((1, 2, 0), (2, 0, 1)):
            for d1 in range(-6, 7):
                for d2 in range(-6, 7):
                    diff = (d1, d2, -d1 - d2)
                    if diff == (0, 0, 0):
                        continue
                    n1s = set()
                    for c in _GL3_COROOTS:
                        wc = act_perm(w, c)
                        det = c[0] * wc[1] - c[1] * wc[0]
                        n1 = (diff[0] * wc[1] - diff[1] * wc[0]) // det
                        n2 = (c[0] * diff[1] - c[1] * diff[0]) // det
                        if n1 * c[2] + n2 * wc[2] != diff[2]:
                            continue
                        if n1 == max(abs(n1), abs(n2), abs(n1 - n2)) and n1 >= n2 >= 0:
                            n1s.add(n1)
                    assert len(n1s) == 1, (w, diff, n1s)

    def test_weyl_part_must_be_a_3_cycle(self):
        # a permutation of 3 points is a 3-cycle iff it fixes no point
        shape, mu, lam = GroupShape.res_field(3, 1, 2), ((0, 0, 0),), ((0, 0, 0),)
        for w in itertools.permutations(range(3)):
            datum = make_datum(shape, ExtAffine(((0, 0, 0),), (w,)))
            if any(w[i] == i for i in range(3)):
                with pytest.raises(PreconditionError, match="requires a 3-cycle Weyl part"):
                    chain_gl3(datum, mu, lam, lam)
            else:
                with pytest.raises(PreconditionError, match="not in the alcove"):
                    chain_gl3(datum, mu, lam, lam)

    def test_equal_endpoints(self):
        d = caruso_datum(3, 1, 2, 1)
        mu = ((1, 1, -1),)
        lam = enumerate_strata(d, mu)[0].lam
        chain, steps = chain_gl3(d, mu, lam, lam)
        assert chain == (lam,) and steps == ()

    def test_single_step(self):
        d = caruso_datum(3, 1, 2, 1)
        mu = ((2, 1, -2),)
        S = [s.lam for s in enumerate_strata(d, mu)]
        pairs = [
            (a, b)
            for a in S
            for b in S
            if sorted(x - y for x, y in zip(b[0], a[0])) == [-1, 0, 1]
        ]
        assert pairs
        a, b = pairs[0]
        chain, steps = chain_gl3(d, mu, a, b)
        assert len(steps) == 1 and chain == (a, b)

    def test_random_instances(self):
        rng = random.Random(73)
        done = 0
        while done < 40:
            p = rng.choice((2, 3))
            m = rng.randint(-(p**3 - 1), p**3 - 1)
            if not is_caruso_simple(3, p, m):
                continue
            d = caruso_datum(3, 1, p, m)
            mu = (tuple(sorted((rng.randint(-4, 4) for _ in range(3)), reverse=True)),)
            S = [s.lam for s in enumerate_strata(d, mu)]
            if len(S) < 2:
                continue
            labels = set(S)
            a, b = rng.sample(S, 2)
            chain, steps = chain_gl3(d, mu, a, b)
            done += 1
            assert chain[0] == a and chain[-1] == b
            assert all(c in labels for c in chain)
            for x, y, s in zip(chain, chain[1:], steps):
                assert cochar_sub(y, x) == s
                assert sorted(s[0]) == [-1, 0, 1]

    def test_graph_connected_gl3(self):
        rng = random.Random(79)
        done = 0
        while done < 30:
            p = rng.choice((2, 3))
            m = rng.randint(-(p**3 - 1), p**3 - 1)
            if not is_caruso_simple(3, p, m):
                continue
            d = caruso_datum(3, 1, p, m)
            mu = (tuple(sorted((rng.randint(-4, 4) for _ in range(3)), reverse=True)),)
            g = build_graph(d, mu)
            if not g.vertices:
                continue
            done += 1
            assert len(g.components) == 1

    def test_requires_gl3(self):
        d = caruso_datum(2, 1, 3, 1)
        with pytest.raises(PreconditionError):
            chain_gl3(d, ((1, 0),), ((0, 0),), ((0, 0),))

    def test_mu_shape_checked(self):
        d = caruso_datum(3, 1, 2, 1)
        with pytest.raises(ConfigError):
            chain_gl3(d, ((1, 0, 0), (1, 0, 0)), ((0, 0, 0),), ((0, 0, 0),))

    @pytest.mark.parametrize(
        "bad",
        [
            ((9, 0, -9),),  # well-formed but not a label
            ((0, 0),),
            ((0, 0, 0), (0, 0, 0)),
            ((0, 0, 0, 0),),
            [[1, 0, -1]],
            ((1.0, 0, -1),),
            ((True, 0, -1),),
            ((1, 0, "x"),),
            None,
        ],
    )
    def test_bad_endpoint_is_a_precondition_error(self, bad):
        d = caruso_datum(3, 1, 2, 1)
        mu = ((2, 1, -2),)
        good = ((1, 0, -1),)
        assert _is_label(d, mu, good)
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(PreconditionError):
                chain_gl3(d, mu, a, b)

    def test_refusal_is_never_stored(self):
        d = caruso_datum(3, 1, 2, 1)
        mu = ((2, 1, -2),)
        good, bad = ((0, 0, 0),), ((9, 0, -9),)
        assert _is_label(d, mu, good) and not _is_label(d, mu, bad) and sum(bad[0]) == sum(good[0])
        table = step_table(d, mu)
        for a, b in ((good, bad), (bad, good)):
            for _ in range(2):
                with pytest.raises(PreconditionError, match="must be stratum labels"):
                    chain_gl3(d, mu, a, b)
        assert table == {}
        # a label pair with the same start fills an entry, and the refusal of
        # another end from that start is still decided afresh
        chain, steps = chain_gl3(d, mu, good, ((1, 0, -1),))
        assert list(table.values()) == [steps]
        for _ in range(2):
            with pytest.raises(PreconditionError, match="must be stratum labels"):
                chain_gl3(d, mu, good, bad)
        assert list(table.values()) == [steps]

    def test_mu_given_as_lists(self):
        # the table's key is built from tuples, so a mu given as lists reads
        # the same table as the same mu given as tuples
        d = caruso_datum(3, 1, 2, 1)
        mu = ((2, 1, -2),)
        a, b = ((0, 0, 0),), ((1, 0, -1),)
        want = chain_gl3(d, mu, a, b)
        assert chain_gl3(d, [[2, 1, -2]], a, b) == want
        assert chain_gl3(d, [[2, 1, -2]], b, a) == chain_gl3(d, mu, b, a)
        info = connectivity._step_table.cache_info()
        assert info.currsize == 1 and info.misses == 1
        assert len(step_table(d, mu)) == 2

    def test_chain_is_path_in_graph(self):
        d = caruso_datum(3, 1, 2, 1)
        mu = ((2, 1, -2),)
        g = build_graph(d, mu)
        labels = [s.lam for s in g.vertices]
        edge_pairs = {frozenset((a, b)) for a, b, _ in g.edges}
        for a, b in itertools.combinations(labels, 2):
            chain, _ = chain_gl3(d, mu, a, b)
            for x, y in zip(chain, chain[1:]):
                assert frozenset((x, y)) in edge_pairs

    def test_step_that_is_no_edge_is_a_theorem_violation(self, monkeypatch):
        d = caruso_datum(3, 1, 2, 1)
        mu = ((2, 1, -2),)
        assert chain_gl3(d, mu, ((0, 0, 0),), ((1, 0, -1),))[1] == (((1, 0, -1),),)
        monkeypatch.setattr(connectivity, "_edge_ok", lambda *args: False)
        connectivity._step_table.cache_clear()  # the unpatched chain's entry would skip the fault
        try:
            with pytest.raises(TheoremViolationError, match="not a coroot-curve edge"):
                chain_gl3(d, mu, ((0, 0, 0),), ((1, 0, -1),))
            assert chain_gl3(d, mu, ((0, 0, 0),), ((0, 0, 0),)) == ((((0, 0, 0),),), ())  # no step, no test
        finally:
            connectivity._step_table.cache_clear()

    def test_step_that_is_no_edge_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(connectivity, "_edge_ok", lambda *args: False)
        argv = ["chain-gl3", "--p", "2", "--n", "3", "--f", "1", "--m", "1", "--mu", "[[2,1,-2]]",
                "--lam", "[[0,0,0]]", "--lam-prime", "[[1,0,-1]]"]
        connectivity._step_table.cache_clear()
        try:
            assert main(argv) == 4
        finally:
            connectivity._step_table.cache_clear()
        captured = capsys.readouterr()
        assert captured.out == "" and "not a coroot-curve edge" in captured.err

    @pytest.mark.parametrize("target,fault,lam,lam_prime,message", CHAIN_FAULTS, ids=[f[0] for f in CHAIN_FAULTS])
    def test_injected_fault_is_a_theorem_violation(self, monkeypatch, capsys, target, fault, lam, lam_prime, message):
        d = caruso_datum(3, 1, 2, 1)
        mu = ((3, 1, -3),)
        if target != "_dominated":  # unpatched, the chain has the steps the fault needs
            assert len(chain_gl3(d, mu, lam, lam_prime)[1]) >= 1 + (target == "_gl3_normal_form")
        monkeypatch.setattr(connectivity, target, fault(getattr(connectivity, target)))
        # the coroot table is built from the patched coroots, and the step
        # table loses the unpatched chain's entry, so the fault is reached on
        # a miss; both are dropped after
        connectivity._chain_table.cache_clear()
        connectivity._step_table.cache_clear()
        try:
            with pytest.raises(TheoremViolationError, match=message):
                chain_gl3(d, mu, lam, lam_prime)
            assert step_table(d, mu) == {}  # a refusal is never stored
            argv = ["chain-gl3", "--p", "2", "--n", "3", "--f", "1", "--m", "1", "--mu", "[[3,1,-3]]",
                    "--lam", json.dumps([lam[0]]), "--lam-prime", json.dumps([lam_prime[0]])]
            assert main(argv) == 4
        finally:
            connectivity._chain_table.cache_clear()
            connectivity._step_table.cache_clear()
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err and "Traceback" not in captured.err

    def test_exact_pi0_equals_size_iff_no_edges(self):
        d = datum_a()
        g = build_graph(d, ((5, 3, 3, 1),))
        r = pi0_report(g)
        assert r.exactness == "exact"
        assert (r.upper_bound == len(g.vertices)) == (len(g.edges) == 0)


def chain_refusal_per_call(datum, mu, lam, lam_prime):
    """The refusal, as (type, message), of the checks chain_gl3 ran on every
    call before it kept a context per (datum, mu): GL_3 with f = 1, the
    3-cycle, mu (alcove, dominance, shape), both endpoints' shapes, then both
    endpoints as labels; None when all pass."""
    try:
        shape = datum.shape
        if shape.n != 3 or shape.blocks != 1:
            raise PreconditionError("chain construction requires GL_3 with f = 1")
        if any(datum.w[0][i] == i for i in range(3)):
            raise PreconditionError("chain construction requires a 3-cycle Weyl part")
        _require_mu(datum, mu)
        if not (_is_gl3_label(lam) and _is_gl3_label(lam_prime)):
            raise PreconditionError("both endpoints must be stratum labels")
        mu = tuple(map(tuple, mu))
        if not (_is_label(datum, mu, lam) and _is_label(datum, mu, lam_prime)):
            raise PreconditionError("both endpoints must be stratum labels")
    except Exception as exc:
        return type(exc), str(exc)
    return None


def refusal(call):
    try:
        call()
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestChainContext:
    """chain_gl3 checks the shape, the 3-cycle and mu once per (datum, mu),
    in a cached context; every refusal must still be the one the per-call
    checks gave, in their order, on a first call and on a repeat."""

    GOOD_MU = ((2, 1, -2),)
    MUS = [
        GOOD_MU,
        [[2, 1, -2]],
        ([2, 1, -2],),
        ((1, 0, 0), (1, 0, 0)),  # two blocks
        ((2, 1),),  # a block of length 2
        ((-2, 1, 2),),  # not dominant
        [[-2, 1, 2]],
        ((2, 1, "x"),),  # dominance compares an int with a str: TypeError
        [[2, 1, "x"]],
        (3, 0, 0),  # blocks that are ints: TypeError
        None,
    ]
    ENDS = [((1, 0, -1),), ((0, 0, 0),), ((9, 0, -9),), ((0, 0),), [[1, 0, -1]], ((1.0, 0, -1),), None]

    @staticmethod
    def datums():
        gl3 = GroupShape.res_field(3, 1, 2)
        return [
            caruso_datum(3, 1, 2, 1),
            caruso_datum(2, 1, 3, 1),  # GL_2
            caruso_datum(3, 2, 2, next(m for m in range(1, 64) if is_caruso_simple(3, 4, m))),  # f = 2
            make_datum(gl3, ExtAffine(((0, 0, 0),), ((0, 2, 1),))),  # w fixes a point
            make_datum(gl3, ExtAffine(((0, 0, 0),), ((1, 2, 0),))),  # a 3-cycle off the alcove
        ]

    def test_refusals_match_the_per_call_checks(self):
        seen = Counter()
        for datum in self.datums():
            for mu in self.MUS:
                for lam, lam_prime in itertools.product(self.ENDS, repeat=2):
                    want = chain_refusal_per_call(datum, mu, lam, lam_prime)
                    for _ in range(2):  # a first call, then a repeat past the context
                        got = refusal(lambda: chain_gl3(datum, mu, lam, lam_prime))
                        assert got == want, (datum.shape, datum.w, mu, lam, lam_prime)
                    seen[want[1] if want else "chain"] += 1
        assert seen["chain"] == 3 * 2 * 2  # three spellings of mu, two labels at each end
        assert len(seen) >= 8, seen
        assert connectivity._chain_context.cache_info().currsize == 1  # only the good mu as tuples is stored

    def test_mu_spellings_read_one_step_table(self, monkeypatch):
        d = caruso_datum(3, 1, 2, 1)
        a, b = ((0, 0, 0),), ((1, 0, -1),)
        keys = []
        real = connectivity._step_table
        monkeypatch.setattr(connectivity, "_step_table", lambda *args: keys.append(args) or real(*args))
        want = chain_gl3(d, self.GOOD_MU, a, b)
        for mu in self.MUS[1:3]:
            assert chain_gl3(d, mu, a, b) == want
        assert len(set(keys)) == 1 and len(keys) == 3
        assert real.cache_info().currsize == 1 and len(step_table(d, self.GOOD_MU)) == 1

    def test_cleared_step_table_is_not_kept_by_the_context(self):
        # the context holds plain values, so a step table dropped from its
        # own cache between two calls on one (datum, mu) is looked up again,
        # and the new entry lands in the live table
        d, mu = caruso_datum(3, 1, 2, 1), self.GOOD_MU
        a, b = ((0, 0, 0),), ((1, 0, -1),)
        chain_gl3(d, mu, a, b)
        connectivity._step_table.cache_clear()
        _, steps = chain_gl3(d, mu, b, a)
        assert list(step_table(d, mu).values()) == [steps]
        info = connectivity._chain_context.cache_info()
        assert info.currsize == 1 and info.hits == 1


class TestChainOracle:
    def test_matches_the_retwisting_chain(self):
        # chain_gl3 reads its steps from a table per (w, eps, lowered mu),
        # filled by stepping lam_nat by the increments of the coroot table;
        # the chain that twisted each step's label afresh is the oracle, on
        # every ordered label pair of p in {2, 3} and mu of sup-norm <= 4.
        # The pairs run twice, the second time with the twists (and the mu)
        # in reverse order, each time from empty tables, so that the entries
        # one twist fills serve others in both orders
        instances = gl3_sweep_instances()
        want = {}
        for t, (d, mu, S) in enumerate(instances):
            for a, b in itertools.permutations([s.lam for s in S], 2):
                want[t, a, b] = chain_gl3_by_retwisting(d, mu, a, b)
        assert len(want) == 2 * 15084 and sum(len(steps) for _, steps in want.values()) > len(want)
        indices = range(len(instances))
        for order in (indices, indices[::-1]):
            connectivity._step_table.cache_clear()
            for t in order:
                d, mu, S = instances[t]
                for a, b in itertools.permutations([s.lam for s in S], 2):
                    assert chain_gl3(d, mu, a, b) == want[t, a, b], (d.tau, mu, a, b)

        # each key is a pair of candidates of the lowered mu: the start's
        # lowered lam_nat and the end's, the start's plus -d + eps w(d), which
        # is injective in d for eps >= 2
        tables = {(d.w[0], d.shape.eps[0], lowered(mu, mu)[0]): step_table(d, mu) for d, mu, _ in instances}
        filled = 0
        for (w, e, mu0), table in tables.items():
            candidates = set(candidate_blocks(mu0))
            assert len(table) <= len(candidates) ** 2
            for nat, diff in table:
                end = tuple(x - y + e * z for x, y, z in zip(nat, diff, act_perm(w, diff)))
                assert nat in candidates and end in candidates, (w, e, mu0, nat, diff)
            filled += len(table)
        # most chains are read from an entry that another twist filled
        assert len(tables) > 100 and 0 < filled < len(want) / 5

    @pytest.mark.parametrize("w", [(1, 2, 0), (2, 0, 1)])
    @pytest.mark.parametrize("e", [2, 3, 5])
    def test_table_increments(self, w, e):
        # each row's steps are +c and -w^2(c), and inc = -step + e w(step)
        for row, c in zip(connectivity._chain_table(w, e), connectivity._GL3_COROOTS):
            assert row[0] == c and row[1] == act_perm(w, c)
            assert row[3][0] == c and row[4][0] == tuple(-x for x in act_perm(w, act_perm(w, c)))
            for step, i, j, inc in row[3:]:
                assert step[i] == 1 and step[j] == -1
                assert inc == tuple(-x + e * y for x, y in zip(step, act_perm(w, step)))


class TestChainMembership:
    """chain_gl3 decides membership in S by the defining inequality; over the
    box-search oracle's box it must agree with the enumerated labels."""

    CASES = [
        (2, -5, ((2, 1, -2),)),
        (2, 1, ((3, 1, -3),)),
        (2, 6, ((3, -1, -3),)),
        (3, 1, ((2, 1, -2),)),
        (3, 5, ((3, 0, -2),)),
        (3, 25, ((3, 0, -2),)),
    ]

    @pytest.mark.parametrize("p,m,mu", CASES)
    def test_membership_matches_enumeration(self, p, m, mu):
        d = caruso_datum(3, 1, p, m)
        labels = {s.lam for s in enumerate_strata(d, mu)}
        assert labels
        # the box bound of the strata box-search oracle, for n = 3, f = 1
        B = max(abs(x) for x in d.tau[0]) + max(abs(x) for x in mu[0]) * 4
        inside = 0
        for flat in itertools.product(range(-B, B + 1), repeat=3):
            lam = (flat,)
            member = _is_label(d, mu, lam)
            assert member == (lam in labels), lam
            inside += member
        assert inside == len(labels)

    @pytest.mark.parametrize("p,m,mu", CASES)
    def test_endpoints_accepted_iff_labels(self, p, m, mu):
        d = caruso_datum(3, 1, p, m)
        labels = {s.lam for s in enumerate_strata(d, mu)}
        B = max(abs(x) for x in d.tau[0]) + max(abs(x) for x in mu[0]) * 4
        for flat in itertools.product(range(-B, B + 1), repeat=3):
            lam = (flat,)
            if lam in labels:
                assert chain_gl3(d, mu, lam, lam) == ((lam,), ())
            elif sum(flat) == sum(mu[0]):
                with pytest.raises(PreconditionError):
                    chain_gl3(d, mu, lam, lam)
