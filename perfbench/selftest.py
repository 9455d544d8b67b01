#!/usr/bin/env python3
"""Self-test of the benchmark's checks: each checker accepts a real output of
the library and rejects the same output after one corruption (a dropped
stratum, a bad chain step, a wrong point count, ...).

Usage (from the root of a checkout): python3 perfbench/selftest.py
"""

from __future__ import annotations

import copy
import json
import random
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def run(inst):
    inst.setdefault("id", 0)
    (datum,) = worker.setup([inst])
    return worker.convert(inst, datum, worker.run_instance(inst, datum))


def edit_report(res, change):
    """A copy of a CLI result whose JSON report went through change()."""
    out = copy.deepcopy(res)
    rep = json.loads(out["stdout"])
    change(rep)
    out["stdout"] = json.dumps(rep)
    return out


class CheckerTest(unittest.TestCase):
    def assertAccepts(self, inst, res):
        self.assertEqual(checks.check(inst, res), [])

    def assertRejects(self, inst, res):
        self.assertNotEqual(checks.check(inst, res), [])

    def test_verify(self):
        inst = {"kind": "verify", "cls": "a3", "case": "a", "p": 3,
                "argv": ["verify-counterexample", "a", "--p", "3"],
                "datum": {"n": 4, "f": 1, "p": 3, "tau": [[2, 0, 2, 0]], "w": [[1, 3, 0, 2]]}}
        res = run(inst)
        self.assertAccepts(inst, res)
        self.assertRejects(inst, edit_report(res, lambda r: r["strata"].pop()))
        self.assertRejects(inst, edit_report(res, lambda r: r["strata"][0].update(singleton_rule="d-set")))
        self.assertRejects(inst, edit_report(res, lambda r: r["pi0"].update(upper_bound=1)))
        self.assertRejects(inst, edit_report(res, lambda r: r["strata"][1]["nat"][0].reverse()))
        self.assertRejects(inst, dict(res, rc=1))

    def graph_instance(self):
        tau, w = ref.simple_datum(3, 1, 2, 1)
        mu = ((3, 3, -3),)
        return {"kind": "graph", "cls": "t", "p": 2, "mu": workloads.ser(mu),
                "argv": workloads.explicit_argv("graph", 2, 3, 1, tau, w, mu),
                "datum": {"n": 3, "f": 1, "p": 2, "tau": workloads.ser(tau), "w": workloads.ser(w)}}

    def test_graph(self):
        inst = self.graph_instance()
        res = run(inst)
        self.assertAccepts(inst, res)
        rep = json.loads(res["stdout"])
        self.assertGreater(len(rep["edges"]), 1)
        self.assertRejects(inst, edit_report(res, lambda r: r["vertices"].pop()))

        def far_edge(r):
            edge = r["edges"][0]
            edge["to"] = next(
                v["lam"] for v in r["vertices"]
                if v["lam"] != edge["from"] and not ref.is_coroot_step(checks.tup(edge["from"]), checks.tup(v["lam"]))
            )
        self.assertRejects(inst, edit_report(res, far_edge))

        def split(r):
            r["components"] = [[lam] for comp in r["components"] for lam in comp]
            r["pi0"]["upper_bound"] = len(r["components"])
        self.assertRejects(inst, edit_report(res, split))

    def test_sweep(self):
        (inst,) = [i for i in workloads.sweep(random.Random(1), 1) if i["p"] == 2 and i["m"] == 1]
        res = run(inst)
        self.assertAccepts(inst, res)
        row = max(res["rows"], key=lambda r: len(r["labels"]))
        t = res["rows"].index(row)

        def corrupt(change):
            bad = copy.deepcopy(res)
            change(bad["rows"][t])
            return bad
        self.assertRejects(inst, corrupt(lambda r: r["labels"].pop()))
        self.assertRejects(inst, corrupt(lambda r: r.update(components=2)))
        long_chain = max(range(len(row["chains"])), key=lambda c: len(row["chains"][c]))
        self.assertGreater(len(row["chains"][long_chain]), 2)
        self.assertRejects(inst, corrupt(lambda r: r["chains"][long_chain].pop(1)))
        self.assertRejects(inst, corrupt(lambda r: r["chains"].pop()))

    def test_multicopy(self):
        inst = next(i for i in workloads.multicopy(random.Random(3), 0.5) if i["cls"] == "cand27-81")
        res = run(inst)
        self.assertAccepts(inst, res)

        def shift(r):
            lam = r["zero_stratum"]["lam"]
            lam[0][0] += 1
            lam[0][1] -= 1
        self.assertRejects(inst, edit_report(res, shift))
        self.assertRejects(inst, edit_report(res, lambda r: r["zero_stratum"].update(dim=1)))
        self.assertRejects(inst, edit_report(res, lambda r: r.update(recursion_ok=False)))
        self.assertRejects(inst, edit_report(res, lambda r: r["projection"][0].reverse()))

    def test_oracle(self):
        inst = next(i for i in workloads.oracle(random.Random(2), 1.5) if i["cls"] == "n2q7b1")
        res = run(inst)
        self.assertAccepts(inst, res)
        proven = [lam for lam, verdict in res["strata"] if verdict == "proven"]
        self.assertTrue(proven)
        key = json.dumps(proven[0])

        def extra_point(r):
            r["by_lambda"][key] += 1
            r["count"] += 1
            r["points"].append(r["points"][0])
        self.assertRejects(inst, edit_report(res, extra_point))
        self.assertRejects(inst, edit_report(res, lambda r: r["by_lambda"].pop(key)))
        dropped = copy.deepcopy(res)
        dropped["strata"].pop()
        self.assertRejects(inst, dropped)


class ReferenceTest(unittest.TestCase):
    def test_box_search_matches_inversion(self):
        """The two independent label searches of the reference agree."""
        rng = random.Random(11)
        checked = 0
        while checked < 40:
            p, n, f = rng.choice((2, 3, 5)), rng.choice((2, 3)), rng.choice((1, 2))
            m = rng.randint(1, p ** (n * f) - 1)
            if not ref.is_simple(n, p**f, m):
                continue
            tau, w = ref.simple_datum(n, f, p, m)
            mu = tuple(tuple(sorted((rng.randint(-2, 3) for _ in range(n)), reverse=True)) for _ in range(f))
            self.assertEqual(ref.box_strata(tau, w, mu, p), ref.strata_by_inversion(tau, w, (p,) * f, mu))
            checked += 1


if __name__ == "__main__":
    unittest.main()
