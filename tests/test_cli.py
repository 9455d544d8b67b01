import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from kisin import cli
from kisin.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestVerifyCounterexamples:
    def test_case_a(self, capsys):
        code, out = run_cli(capsys, "verify-counterexample", "a", "--p", "3")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        assert report["pi0"] == {"upper_bound": 2, "exactness": "exact"}
        assert report["expected"] == [[[1, 1, 1, 1]], [[2, 1, 1, 0]]]

    def test_case_a_p5(self, capsys):
        code, out = run_cli(capsys, "verify-counterexample", "a", "--p", "5")
        assert code == 0 and json.loads(out)["ok"] is True

    def test_case_b(self, capsys):
        code, out = run_cli(capsys, "verify-counterexample", "b", "--p", "3")
        assert code == 0
        report = json.loads(out)
        assert report["ok"] is True
        rules = {json.dumps(s["lam"]): s["singleton_rule"] for s in report["strata"]}
        assert rules[json.dumps([[1, 0, 1], [0, 0, 1]])] == "d-set"
        assert rules[json.dumps([[1, 1, 0], [1, 0, 0]])] == "dominant-minuscule"

    def test_rejects_p2(self, capsys):
        code, _ = run_cli(capsys, "verify-counterexample", "a", "--p", "2")
        assert code == 2


class TestCommands:
    def test_normal_form(self, capsys):
        code, out = run_cli(
            capsys, "normal-form", "--p", "3", "--n", "2", "--f", "1", "--m", "1"
        )
        assert code == 0
        report = json.loads(out)
        assert report["schema"] == 2
        assert report["datum"]["e"] == [["-1/8", "-3/8"]]
        assert report["datum"]["alcove_ok"] is True

    def test_strata_report(self, capsys):
        code, out = run_cli(
            capsys,
            "strata",
            "--p", "3", "--n", "4", "--f", "1",
            "--tau", "[[2,0,2,0]]",
            "--w", "[[2,4,1,3]]",
            "--mu", "[[5,3,3,1]]",
        )
        assert code == 0
        report = json.loads(out)
        assert report["count"] == 2
        assert [s["lam"] for s in report["strata"]] == [[[1, 1, 1, 1]], [[2, 1, 1, 0]]]
        assert all(s["dim"] == "unknown" for s in report["strata"])

    def test_determinism(self, capsys):
        args = (
            "strata",
            "--p", "3", "--n", "3", "--f", "2",
            "--tau", "[[2,0,1],[0,0,1]]",
            "--w", "[[2,3,1],[1,2,3]]",
            "--mu", "[[4,0,0],[3,3,0]]",
        )
        _, out1 = run_cli(capsys, *args)
        _, out2 = run_cli(capsys, *args)
        assert out1 == out2

    def test_strata_feed_graph(self, capsys):
        common = (
            "--p", "3", "--n", "3", "--f", "2",
            "--tau", "[[2,0,1],[0,0,1]]",
            "--w", "[[2,3,1],[1,2,3]]",
            "--mu", "[[4,0,0],[3,3,0]]",
        )
        _, strata_out = run_cli(capsys, "strata", *common)
        code, graph_out = run_cli(capsys, "graph", *common)
        assert code == 0
        s_labels = [s["lam"] for s in json.loads(strata_out)["strata"]]
        g_labels = [s["lam"] for s in json.loads(graph_out)["vertices"]]
        assert s_labels == g_labels

    def test_graph_dot(self, capsys):
        code, out = run_cli(
            capsys,
            "graph",
            "--p", "3", "--n", "4", "--f", "1",
            "--tau", "[[2,0,2,0]]",
            "--w", "[[2,4,1,3]]",
            "--mu", "[[5,3,3,1]]",
            "--out", "dot",
        )
        assert code == 0
        assert out.startswith("graph strata {") and out.rstrip().endswith("}")
        assert out.count("--") == 0  # two singletons, no edges

    def test_multicopy(self, capsys):
        code, out = run_cli(
            capsys,
            "multicopy",
            "--p", "3", "--n", "2", "--f", "1", "--m", "1",
            "--mu", "[[3,0]]",
        )
        assert code == 0
        report = json.loads(out)
        assert report["d"] == 3
        assert report["recursion_ok"] is True
        assert report["zero_stratum"]["dim"] == 0
        assert report["projection"] == [[1, 0]]

    def test_multicopy_with_central_twist(self, capsys):
        code, out = run_cli(
            capsys,
            "multicopy",
            "--p", "3", "--n", "2", "--f", "2", "--m", "1",
            "--mu", "[[2,2],[5,2]]",
        )
        assert code == 0
        report = json.loads(out)
        assert report["central_chi"] == [[-2, -2], [-2, -2]]
        assert report["mu_omega"] == [[0, 0], [3, 0]]
        assert report["d"] == 3 and report["recursion_ok"] is True
        assert report["projection"] == [[2, 1], [1, 1]]

    def test_multicopy_empty_variety(self, capsys):
        code, _ = run_cli(
            capsys,
            "multicopy",
            "--p", "3", "--n", "2", "--f", "1", "--m", "1",
            "--mu", "[[2,0]]",
        )
        assert code == 3

    def test_chain(self, capsys):
        code, out = run_cli(
            capsys,
            "chain-gl3",
            "--p", "2", "--n", "3", "--f", "1", "--m", "1",
            "--mu", "[[2,1,-2]]",
            "--lam", "[[0,0,0]]",
            "--lam-prime", "[[1,0,-1]]",
        )
        assert code == 0
        report = json.loads(out)
        assert report["chain"] == [[[0, 0, 0]], [[1, 0, -1]]]
        assert report["steps"] == [[[1, 0, -1]]]

    def test_chain_bad_endpoint(self, capsys):
        code, _ = run_cli(
            capsys,
            "chain-gl3",
            "--p", "2", "--n", "3", "--f", "1", "--m", "1",
            "--mu", "[[2,1,-2]]",
            "--lam", "[[9,0,-9]]",
            "--lam-prime", "[[1,0,-1]]",
        )
        assert code == 3

    def test_explicit_eps_pattern(self, capsys):
        # the 3-copy lift of the rank-2 datum, entered directly
        code, out = run_cli(
            capsys,
            "strata",
            "--p", "3", "--n", "2",
            "--eps", "[1,1,3]",
            "--tau", "[[0,0],[0,0],[1,0]]",
            "--w", "[[1,2],[1,2],[2,1]]",
            "--mu", "[[1,0],[1,0],[1,0]]",
        )
        assert code == 0
        report = json.loads(out)
        assert [s["lam"] for s in report["strata"]] == [[[1, 0], [1, 1], [1, 2]]]
        assert report["strata"][0]["dim"] == 0

    def test_bad_eps_pattern(self, capsys):
        code, _ = run_cli(
            capsys,
            "strata",
            "--p", "3", "--n", "2",
            "--eps", "[1,1]",
            "--tau", "[[0,0],[1,0]]",
            "--w", "[[1,2],[2,1]]",
            "--mu", "[[1,0],[1,0]]",
        )
        assert code == 2

    def test_oracle_count(self, capsys):
        code, out = run_cli(
            capsys,
            "oracle-count",
            "--p", "3", "--n", "2", "--f", "1", "--m", "1",
            "--mu", "[[1,0]]",
            "--field-deg", "1",
            "--box", "2",
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"schema", "command", "field", "box", "count", "by_lambda", "points"}
        assert report["count"] == 1
        assert report["points"][0]["lambda"] == [[0, 0]]

    def test_round_trip_schema(self, capsys):
        _, out = run_cli(
            capsys, "normal-form", "--p", "3", "--n", "2", "--f", "1", "--m", "1"
        )
        report = json.loads(out)
        assert json.loads(json.dumps(report)) == report


class TestExitCodes:
    def test_non_dominant_mu(self, capsys):
        code, _ = run_cli(
            capsys,
            "strata",
            "--p", "3", "--n", "2", "--f", "1", "--m", "1",
            "--mu", "[[0,1]]",
        )
        assert code == 2

    def test_not_simple(self, capsys):
        code, _ = run_cli(
            capsys, "normal-form", "--p", "3", "--n", "2", "--f", "1", "--m", "4"
        )
        assert code == 3

    def test_malformed_json(self, capsys):
        code, _ = run_cli(
            capsys,
            "strata",
            "--p", "3", "--n", "2", "--f", "1", "--m", "1",
            "--mu", "[[oops",
        )
        assert code == 2

    def test_non_alcove_without_flag(self, capsys):
        code, _ = run_cli(
            capsys,
            "strata",
            "--p", "3", "--n", "2", "--f", "1",
            "--tau", "[[-2,1]]",
            "--w", "[[2,1]]",
            "--mu", "[[1,0]]",
        )
        assert code == 3

    def test_non_alcove_with_flag(self, capsys):
        code, out = run_cli(
            capsys,
            "normal-form",
            "--p", "3", "--n", "2", "--f", "1",
            "--tau", "[[-2,1]]",
            "--w", "[[2,1]]",
            "--alcove-reduce",
        )
        assert code == 0
        assert json.loads(out)["reduced"] is True

    def test_missing_b_spec(self, capsys):
        code, _ = run_cli(capsys, "strata", "--p", "3", "--n", "2", "--mu", "[[1,0]]")
        assert code == 2

    @pytest.mark.parametrize("mu", ["5", '"x"', '[[1,"a"]]', "[[true,0]]", "[1,[2]]", "{}", "null"])
    def test_mu_json_types(self, capsys, mu):
        code, out = run_cli(capsys, "strata", "--p", "3", "--n", "2", "--f", "1", "--m", "1", "--mu", mu)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("eps", ["[true]", "[true,3]"])
    def test_bool_eps(self, capsys, eps):
        # [true,3] would pass as the pattern (1, 3) if booleans were integers
        code, _ = run_cli(
            capsys,
            "strata",
            "--p", "3", "--n", "2",
            "--eps", eps,
            "--tau", "[[0,0],[1,0]]",
            "--w", "[[1,2],[2,1]]",
            "--mu", "[[1,0],[1,0]]",
        )
        assert code == 2

    def test_bool_lam(self, capsys):
        code, _ = run_cli(
            capsys,
            "chain-gl3",
            "--p", "2", "--n", "3", "--f", "1", "--m", "1",
            "--mu", "[[2,1,-2]]",
            "--lam", "[[0,0,0]]",
            "--lam-prime", "[[true,0,-1]]",
        )
        assert code == 2

    def test_oracle_box_too_small(self, capsys):
        code = main([
            "oracle-count",
            "--p", "3", "--n", "2", "--f", "1", "--m", "1",
            "--mu", "[[7,0]]",
            "--field-deg", "1",
            "--box", "1",
        ])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "box 1 too small" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("box", ["-1", "-3"])
    def test_oracle_negative_box(self, capsys, box):
        code = main([
            "oracle-count",
            "--p", "3", "--n", "2", "--f", "1", "--m", "1",
            "--mu", "[[7,0]]",
            "--box", box,
        ])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert f"--box must be non-negative, got {box}" in captured.err
        assert "Traceback" not in captured.err

    def test_malformed_enum_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("KISIN_MAX_ENUM", "abc")
        code = main(["verify-counterexample", "a", "--p", "3"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "KISIN_MAX_ENUM" in captured.err


class TestParserReuse:
    VALID = ("strata", "--p", "3", "--n", "2", "--f", "1", "--m", "1", "--mu", "[[1,0]]")
    REJECTED = ("strata", "--p", "three", "--n", "2")

    @staticmethod
    def outcome(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def test_built_once_per_process(self, monkeypatch):
        built, real = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            first, second = self.outcome(self.VALID), self.outcome(self.VALID)
        finally:
            cli._parser.cache_clear()
        assert built == [1] and first == second

    def test_rejection_then_valid_run_matches_fresh_parser(self):
        cli._parser.cache_clear()
        rejected = self.outcome(self.REJECTED)
        after_rejection = self.outcome(self.VALID)
        cli._parser.cache_clear()
        fresh = self.outcome(self.VALID)
        assert rejected[0] == 2 and rejected[1] == "" and "invalid int value" in rejected[2]
        assert after_rejection == fresh
        assert fresh[0] == 0 and json.loads(fresh[1])["strata"]
        # a rejection on the reused parser reads as on a fresh one
        assert self.outcome(self.REJECTED) == rejected


def _json_text(valid):
    """JSON text for one CLI argument: mostly the right nesting of small
    integers, sometimes any JSON value, sometimes not JSON at all."""
    scalars = st.none() | st.booleans() | st.integers(-4, 4) | st.floats(allow_nan=False) | st.text(max_size=3)
    values = st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
        max_leaves=10,
    )
    return st.one_of(
        valid.map(lambda b: json.dumps([b])),
        valid.map(json.dumps),
        values.map(json.dumps),
        st.text(max_size=6),
    )


_block = st.lists(st.integers(-3, 3), min_size=3, max_size=3)


class TestExitCodeFuzz:
    """Whatever JSON the array arguments hold, strata, graph and chain-gl3
    end with a documented exit code (0, 2, 3 or 4) and never raise."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        cmd=st.sampled_from(["strata", "graph", "chain-gl3"]),
        p=st.sampled_from([2, 3]),
        m=st.integers(-8, 8),
        mu=_json_text(_block.map(lambda b: sorted(b, reverse=True))),
        tau=st.none() | _json_text(_block),
        w=st.none() | _json_text(st.permutations([1, 2, 3])),
        eps=st.none() | _json_text(st.just([2])),
        lam=_json_text(_block),
        lam_prime=_json_text(_block),
    )
    def test_documented_exit_codes(self, cmd, p, m, mu, tau, w, eps, lam, lam_prime):
        argv = [cmd, f"--p={p}", "--n=3", "--f=1", f"--m={m}", f"--mu={mu}"]
        for name, value in (("tau", tau), ("w", w), ("eps", eps)):
            if value is not None:
                argv.append(f"--{name}={value}")
        if cmd == "chain-gl3":
            argv += [f"--lam={lam}", f"--lam-prime={lam_prime}"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code in (0, 2, 3, 4), argv
