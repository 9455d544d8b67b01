"""Output checks, one per instance kind.  Each returns a list of error strings
(empty when the output is right) and recomputes what it checks with the
benchmark's own arithmetic in ``reference``, never with the library."""

from __future__ import annotations

import itertools
import json
import random

import reference as ref
from workloads import GOLDEN

# Sweep rows whose stratum set is compared with the box search, per instance;
# every other row is still checked label by label against the inequality.
SWEEP_BOX_SAMPLE = 12


def tup(v):
    return tuple(tuple(b) for b in v)


def _report(res, errors):
    if res.get("rc") != 0:
        errors.append(f"exit code {res.get('rc')}: {res.get('stderr', '').strip()[:200]}")
        return None
    try:
        return json.loads(res["stdout"])
    except (KeyError, ValueError) as exc:
        errors.append(f"unreadable report: {exc}")
        return None


def _check_strata_rows(rows, tau, w, eps, mu, errors):
    """Reported nat and labels against the inequality, row by row."""
    for row in rows:
        lam = tup(row["lam"])
        mine = ref.nat(lam, tau, w, eps)
        if tup(row["nat"]) != mine:
            errors.append(f"nat of {lam} is {row['nat']}, expected {mine}")
        if not ref.dominated(mine, mu):
            errors.append(f"{lam} is not a label: its nat is not dominated by mu")


def _check_graph_edges(labels, edges, reported_components, errors):
    label_set = set(labels)
    for a, b in edges:
        if a not in label_set or b not in label_set:
            errors.append(f"edge {a} -- {b} leaves the stratum set")
        elif not ref.is_coroot_step(a, b):
            errors.append(f"edge {a} -- {b} is not a coroot step")
    if any(a not in label_set or b not in label_set for a, b in edges):
        return
    mine = ref.components(labels, edges)
    if sorted(tuple(sorted(c)) for c in reported_components) != mine:
        errors.append(f"components {reported_components} differ from union-find {mine}")


def check_verify(inst, res):
    errors = []
    rep = _report(res, errors)
    if rep is None:
        return errors
    g, p = GOLDEN[inst["case"]], inst["p"]
    mu = g["mu"](p)
    eps = (p,) * g["f"]
    labels = sorted(tup(s["lam"]) for s in rep["strata"])
    if rep.get("ok") is not True:
        errors.append("golden verification reported ok = false")
    if labels != sorted(g["rules"]):
        errors.append(f"strata {labels} differ from the paper's {sorted(g['rules'])}")
    for s in rep["strata"]:
        lam = tup(s["lam"])
        if s["singleton"] != "proven" or s["singleton_rule"] != g["rules"].get(lam):
            errors.append(f"certificate of {lam}: {s['singleton']} / {s['singleton_rule']}")
    if rep["pi0"] != {"upper_bound": 2, "exactness": "exact"}:
        errors.append(f"pi0 {rep['pi0']} is not exactly 2")
    _check_strata_rows(rep["strata"], g["tau"], g["w"], eps, mu, errors)
    box = ref.box_strata(g["tau"], g["w"], mu, p)
    if set(labels) != box:
        errors.append(f"strata {labels} differ from the box search {sorted(box)}")
    return errors


def check_graph(inst, res):
    errors = []
    rep = _report(res, errors)
    if rep is None:
        return errors
    p = inst["p"]
    tau, w, mu = tup(rep["datum"]["tau"]), tuple(tuple(x - 1 for x in b) for b in rep["datum"]["w"]), tup(inst["mu"])
    spec = inst["datum"]
    if (tau, w) != (tup(spec["tau"]), tup(spec["w"])):
        errors.append("reported datum differs from the input twist")
    eps = (p,) * len(tau)
    labels = [tup(v["lam"]) for v in rep["vertices"]]
    _check_strata_rows(rep["vertices"], tau, w, eps, mu, errors)
    box = ref.box_strata(tau, w, mu, p)
    if set(labels) != box or len(labels) != len(box):
        errors.append(f"strata {sorted(labels)} differ from the box search {sorted(box)}")
    edges = [(tup(e["from"]), tup(e["to"])) for e in rep["edges"]]
    comps = [[tup(l) for l in c] for c in rep["components"]]
    _check_graph_edges(labels, edges, comps, errors)
    if not labels:
        want = {"upper_bound": 0, "exactness": "empty"}
    else:
        exact = all(v["singleton"] == "proven" for v in rep["vertices"])
        want = {"upper_bound": len(comps), "exactness": "exact" if exact else "upper bound only"}
    if rep["pi0"] != want:
        errors.append(f"pi0 {rep['pi0']}, expected {want}")
    return errors


def check_sweep(inst, res, seed=0):
    """pi_0 = 1 for every non-empty mu (the theorem for n = 3, f = 1), valid
    chains between every pair of strata, and stratum sets against the box
    search on a seeded sample of rows, through the central-shift identity
    C_{mu+c}(u^c b) = C_mu(b), which keeps the labels."""
    errors = []
    p, c = inst["p"], inst["c"]
    tau, w = ref.simple_datum(3, 1, p, inst["m"])
    tau_c = ((tuple(x + c for x in tau[0])),)
    if (tup(res["tau"]), tup(res["w"])) != (tau_c, w):
        errors.append(f"datum {res['tau']}, {res['w']} is not the shifted twist {tau_c}, {w}")
        return errors
    eps = (p,)
    rows = res["rows"]
    if [r["mu"] for r in rows] != inst["mus"]:
        errors.append("rows do not follow the instance's mu list")
        return errors
    sample = set(random.Random(f"{seed}:{inst['id']}").sample(range(len(rows)), min(SWEEP_BOX_SAMPLE, len(rows))))
    for t, row in enumerate(rows):
        mu = tup(row["mu"])
        labels = [tup(l) for l in row["labels"]]
        where = f"mu={row['mu']}"
        for lam in labels:
            if not ref.in_variety(lam, tau_c, w, eps, mu):
                errors.append(f"{where}: {lam} is not a label")
        if t in sample:
            base_mu = (tuple(x - c for x in mu[0]),)
            box = ref.box_strata(tau, w, base_mu, p)
            if set(labels) != box or len(labels) != len(box):
                errors.append(f"{where}: strata {labels} differ from the box search {sorted(box)}")
        if not labels:
            continue
        edges = [(tup(a), tup(b)) for a, b in row["edges"]]
        if row["components"] != 1:
            errors.append(f"{where}: pi_0 bound {row['components']} != 1")
        _check_graph_edges(labels, edges, [labels] if row["components"] == 1 else [], errors)
        pairs = list(itertools.combinations(labels, 2))
        if len(row["chains"]) != len(pairs):
            errors.append(f"{where}: {len(row['chains'])} chains for {len(pairs)} pairs")
            continue
        label_set = set(labels)
        for (a, b), chain in zip(pairs, row["chains"]):
            chain = [tup(l) for l in chain]
            if chain[0] != a or chain[-1] != b:
                errors.append(f"{where}: chain {chain} does not join {a} and {b}")
            if any(l not in label_set for l in chain):
                errors.append(f"{where}: chain {chain} leaves the stratum set")
            if not all(ref.is_coroot_step(x, y) for x, y in zip(chain, chain[1:])):
                errors.append(f"{where}: chain {chain} takes a step that is not a coroot")
    return errors


def check_multicopy(inst, res):
    errors = []
    rep = _report(res, errors)
    if rep is None:
        return errors
    want = inst["ref"]
    p, d = inst["p"], rep["d"]
    tau, w, mu = tup(want["tau"]), tup(want["w"]), tup(want["mu"])
    f, n = len(tau), len(tau[0])
    rep_w = tuple(tuple(x - 1 for x in b) for b in rep["datum"]["w"])
    if (tup(rep["datum"]["tau"]), rep_w) != (tau, w) or d != inst["d"]:
        errors.append("reported base datum or d differs from the input")
        return errors
    if rep.get("recursion_ok") is not True:
        errors.append("recursion check not reported ok")
    # the lifted datum: block (copy i, factor j) sits at i + j d; the base
    # twist sits in the last copy, and only blocks with d | k + 1 scale by p
    big = d * f
    omega, zero = (1,) + (0,) * (n - 1), (0,) * n
    l_tau, l_w, l_mu = [zero] * big, [tuple(range(n))] * big, [None] * big
    for j in range(f):
        for i in range(d):
            k = i + j * d
            l_mu[k] = omega if i < mu[j][0] else zero
            if i == d - 1:
                l_tau[k], l_w[k] = tau[j], w[j]
    l_eps = tuple(p if (k + 1) % d == 0 else 1 for k in range(big))
    if tup(rep["mu_bullet"]) != tuple(l_mu):
        errors.append(f"mu_bullet {rep['mu_bullet']} differs from {l_mu}")
    zs = rep["zero_stratum"]
    lam = tup(zs["lam"])
    mine = ref.nat(lam, tuple(l_tau), tuple(l_w), l_eps)
    if tup(zs["nat"]) != mine:
        errors.append(f"zero stratum nat {zs['nat']}, expected {mine}")
    if not ref.dominated(mine, tuple(l_mu)):
        errors.append(f"zero stratum {lam} fails the lifted inequality")
    if zs["dim"] != 0 or ref.dimension(lam, mine) != 0:
        errors.append(f"zero stratum dimension {zs['dim']} / {ref.dimension(lam, mine)}")
    proj = tuple(lam[j * d] for j in range(f))
    if tup(rep["projection"]) != proj:
        errors.append(f"projection {rep['projection']} is not the copy-1 blocks {proj}")
    if not ref.in_variety(proj, tau, w, (p,) * f, mu):
        errors.append(f"projection {proj} is not a stratum of the base variety")
    return errors


def check_oracle(inst, res):
    errors = []
    rep = _report(res, errors)
    if rep is None:
        return errors
    p, box = inst["p"], inst["box"]
    tau, w = tup(inst["datum"]["tau"]), tup(inst["datum"]["w"])
    mu = tup(inst["mu"])
    with_points = {tup(json.loads(k)) for k in rep["by_lambda"]}
    strata = {tup(lam): verdict for lam, verdict in res["strata"]}
    mine = ref.box_strata(tau, w, mu, p)
    if set(strata) != mine:
        errors.append(f"enumerated strata {sorted(strata)} differ from the box search {sorted(mine)}")
    if with_points != set(strata):
        errors.append(f"labels with points {sorted(with_points)} differ from the strata {sorted(strata)}")
    counts = {tup(json.loads(k)): v for k, v in rep["by_lambda"].items()}
    for lam, verdict in strata.items():
        if verdict == "proven" and counts.get(lam) != 1:
            errors.append(f"proven singleton {lam} carries {counts.get(lam, 0)} points")
    if rep["count"] != len(rep["points"]) or rep["count"] != sum(counts.values()):
        errors.append("point count disagrees with the listed points")
    if rep["box"] != box or rep["field"] != {"p": p, "deg": inst["r"]}:
        errors.append("report names another field or box")
    return errors


CHECKS = {
    "verify": check_verify,
    "graph": check_graph,
    "sweep": check_sweep,
    "multicopy": check_multicopy,
    "oracle": check_oracle,
}


def check(inst, res, seed=0):
    if inst["kind"] == "sweep":
        return check_sweep(inst, res, seed)
    return CHECKS[inst["kind"]](inst, res)
