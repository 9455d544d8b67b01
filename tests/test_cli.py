import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kisin import cli, normal_form
from kisin.cli import main
from kisin.core import ExtAffine, GroupShape, _is_prime
from kisin.errors import EnumerationCapError
from kisin.normal_form import caruso_datum, make_datum
from kisin.strata import enumerate_strata


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

    def test_datum_outside_the_alcove_exits_4(self, monkeypatch, capsys):
        # the golden data lie in the alcove; a datum built without the alcove
        # verdict must stop the check
        real = normal_form.make_datum
        monkeypatch.setattr(normal_form, "make_datum", lambda *a: real(*a)._replace(alcove_ok=False))
        assert main(["verify-counterexample", "a", "--p", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "counterexample datum is not alcove-reduced" in captured.err


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

    @pytest.mark.parametrize(
        "argv",
        [
            ("normal-form", "--p", "5", "--n", "1", "--f", "1", "--m", "8"),
            ("graph", "--p", "7", "--n", "1", "--f", "3", "--m", "0", "--mu", "[[0],[0],[0]]"),
        ],
    )
    def test_rank_one_integral_fixed_point(self, capsys, argv):
        # (p^f - 1) | m leaves -m/(p^f - 1) integral: refused, not a theorem violation
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 3 and "integral fixed point" in err

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

    # the same two-block shape spelled as --eps and as --f: both are refused
    # from the parsed block count, before any datum is built
    TWO_BLOCKS = [
        (
            "oracle-count requires --f 1",
            ["oracle-count", "--p", "3", "--n", "2", "--tau", "[[1,0],[0,0]]", "--w", "[[2,1],[1,2]]", "--mu", "[[1,0],[0,0]]"],
            ["--eps", "[3,3]"],
        ),
        (
            "chain-gl3 requires --n 3 --f 1",
            [
                "chain-gl3", "--p", "2", "--n", "3", "--tau", "[[1,0,0],[0,0,0]]", "--w", "[[2,3,1],[1,2,3]]",
                "--mu", "[[1,0,0],[0,0,0]]", "--lam", "[[0,0,0]]", "--lam-prime", "[[0,0,0]]", "--alcove-reduce",
            ],
            ["--eps", "[2,2]"],
        ),
    ]

    @pytest.mark.parametrize("spelling", ["eps", "f"])
    @pytest.mark.parametrize("message,argv,eps", TWO_BLOCKS, ids=["oracle-count", "chain-gl3"])
    def test_one_block_commands_check_the_block_count(self, monkeypatch, capsys, spelling, message, argv, eps):
        monkeypatch.setattr(cli, "resolve_datum", lambda args: pytest.fail("a datum was built"))
        assert main(argv + (eps if spelling == "eps" else ["--f", "2"])) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"config error: {message}\n" == captured.err

    # a block count or n below 1 is refused with the shape's message before
    # --tau, --w and --mu are parsed against it
    @pytest.mark.parametrize(
        "argv",
        [
            ["strata", "--p", "3", "--n", "3", "--f", "-1", "--m", "1", "--mu", "[[1,0,0]]"],
            ["strata", "--p", "3", "--n", "3", "--f", "0", "--m", "1", "--mu", "[[1,0,0]]"],
            ["strata", "--p", "3", "--n", "3", "--f", "0", "--m", "1", "--mu", "[]"],
            ["strata", "--p", "3", "--n", "0", "--f", "1", "--m", "1", "--mu", "[[1,0,0]]"],
            ["graph", "--p", "3", "--n", "3", "--eps", "[]", "--tau", "[[0,0,0]]", "--w", "[[1,2,3]]", "--mu", "[[1,0,0]]"],
            ["normal-form", "--p", "3", "--n", "2", "--eps", "[]", "--tau", "[]", "--w", "[]"],
        ],
        ids=["f-negative", "f-zero", "f-zero-empty-mu", "n-zero", "eps-empty", "eps-empty-no-mu"],
    )
    def test_block_count_below_one(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "config error: n and blocks must be positive\n"

    # --m builds the Caruso datum, so an explicit b beside it is refused
    # rather than ignored
    @pytest.mark.parametrize(
        "extra,message",
        [
            (["--tau", "[[5,0]]", "--w", "[[2,1]]"], "--m builds a Caruso datum; it takes no --tau/--w"),
            (["--eps", "[3]"], "Caruso data use --f; --eps needs an explicit --tau/--w"),
        ],
        ids=["tau-w", "eps"],
    )
    def test_caruso_m_refuses_an_explicit_datum(self, capsys, extra, message):
        assert main(["strata", "--p", "3", "--n", "2", "--m", "1", "--mu", "[[1,0]]"] + extra) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"config error: {message}\n"

    @pytest.mark.parametrize(
        "deg,message",
        [
            ("0", "a coefficient field's degree r must be at least 1, got 0"),
            ("-1", "a coefficient field's degree r must be at least 1, got -1"),
            ("3", "coefficient fields are limited to r <= 2"),
        ],
    )
    def test_field_degree_out_of_range(self, capsys, deg, message):
        # a degree below 1 names its own bound, not the upper one
        argv = ["oracle-count", "--p", "3", "--n", "2", "--f", "1", "--m", "1", "--mu", "[[1,0]]", "--field-deg", deg]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"config error: {message}\n"

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
        # a well-formed run reads the option table and builds no parser; a
        # rejected run builds it, once per process
        built, real = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        try:
            first, second = self.outcome(self.VALID), self.outcome(self.VALID)
            assert built == [] and first == second
            rejected, again = self.outcome(self.REJECTED), self.outcome(self.REJECTED)
        finally:
            cli._parser.cache_clear()
        assert built == [1] and rejected == again and rejected[0] == 2

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


# values next to the plain form: negative, padded, underscored, not an int,
# empty, the option terminator, option-like
_ODD_VALUES = ("-5", " 3", "3_0", "x", "", "--", "-h", "-x", "--p")


def _value(o):
    """A value for o: mostly one the plain form takes, now and then an odd
    one or one outside any choices."""
    if o.choices is not None:
        good = st.sampled_from(o.choices)
    elif o.type is int:
        good = st.integers(0, 12).map(str)
    else:
        good = st.sampled_from(("[[1,0]]", "[[0,0,0]]", "[1, 0]", "x"))
    return st.one_of(*[good] * 8, st.sampled_from(_ODD_VALUES + ("xml", "c")))


@st.composite
def _spelling(draw, o):
    """The tokens of option o, mostly as the plain form spells it."""
    kind = draw(st.sampled_from(("plain",) * 15 + ("abbrev", "equals", "no value")))
    flag = o.flag
    if kind == "abbrev" and len(flag) > 3:
        flag = flag[: draw(st.integers(3, len(flag) - 1))]
    if o.type is bool:
        return [flag + "=x"] if kind == "equals" else [flag]
    if kind == "no value":
        return [flag]
    value = draw(_value(o))
    return [f"{flag}={value}"] if kind == "equals" else [flag, value]


@st.composite
def _cli_argv(draw):
    """An argv over one command of the option table: its required options
    mostly given, any options repeated, in any order and spelling, now and
    then help, an unknown token or a misplaced positional."""
    cmd = draw(st.sampled_from(sorted(cli.COMMANDS)))
    opts = cli.COMMANDS[cmd][2]
    options = [o for o in opts if o.flag[0] == "-"]
    chosen = [o for o in options if o.required and draw(st.integers(0, 19))]
    chosen += draw(st.lists(st.sampled_from(options), max_size=4))
    groups = [draw(_spelling(o)) for o in draw(st.permutations(chosen))]
    groups.append(draw(st.sampled_from(([],) * 12 + (["-h"], ["--help"], ["--q", "1"], ["extra"]))))
    for o in opts:
        if o.flag[0] != "-":
            at = draw(st.sampled_from((0,) * 6 + (len(groups),)))
            groups.insert(at, [draw(_value(o))])
    head = draw(st.sampled_from((cmd,) * 24 + (cmd[:-1], "-h", "--p")))
    return [head] + [t for g in groups for t in g]


def _outcome(parse, argv):
    """("args", namespace) or ("exit", code), with stdout and stderr, of
    parse(argv) at COLUMNS=80."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("args", vars(parse(list(argv))))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result + (out.getvalue(), err.getvalue())


class TestParsePaths:
    """The plain form is read from cli.COMMANDS; everything else goes to
    argparse, which is built from the same table and is the test oracle."""

    CHAIN = ["chain-gl3", "--p", "2", "--n", "3", "--m", "1", "--mu", "[[2,1,-2]]", "--lam", "x", "--lam-prime", "y"]

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(argv=_cli_argv())
    @example(argv=["graph", "--p", "3", "--n", "2", "--out", "xml"])
    @example(argv=["graph", "--p", "3", "--mu", "x"])
    @example(argv=["graph", "--p", "3", "--n", "2", "--mu", "-x"])
    @example(argv=["graph", "--p", "3", "--n", "2", "--p", "5"])
    @example(argv=["verify-counterexample", "c", "--p", "3"])
    @example(argv=CHAIN[:-4] + ["--l", "x", "--lam-prime", "y"])
    @example(argv=CHAIN[:-2] + ["--lam-p", "y"])
    def test_table_path_matches_argparse(self, argv):
        want = _outcome(cli.build_parser().parse_args, argv)
        plain = cli._plain_args(argv)
        if plain is not None:
            assert want == ("args", vars(plain), "", "")
        assert _outcome(cli._parse, argv) == want

    @pytest.mark.parametrize(
        "argv",
        [
            ["graph", "--p", "3", "--n", "2"],
            ["graph", "--n", "2", "--p", "3", "--alcove-reduce", "--out", "dot", "--p", "5"],
            ["verify-counterexample", "b", "--p", "3"],
            ["oracle-count", "--p", "2", "--n", "2", "--f", " 3", "--box", "3_0", "--mu", "", "--eps", "[1]"],
            CHAIN,
        ],
    )
    def test_plain_form_takes_the_table_path(self, argv, monkeypatch):
        want = cli.build_parser().parse_args(argv)
        monkeypatch.setattr(cli, "_parser", lambda: pytest.fail("argparse parsed a plain argv"))
        assert cli._plain_args(argv) == want and cli._parse(argv) == want

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["graph", "-h"],
            ["graph", "--p=3", "--n", "2"],
            ["graph", "--p", "3", "--n", "2", "--alc"],
            ["graph", "--p", "-5", "--n", "2"],
            ["graph", "--p", "three", "--n", "2"],
            ["graph", "--p", "3", "--n", "2", "--out", "xml"],
            ["graph", "--p", "3"],
            ["graph", "--p", "3", "--n", "2", "extra"],
            ["graph", "--p", "3", "--n"],
            ["grap", "--p", "3", "--n", "2"],
            ["verify-counterexample", "--p", "3", "a"],
        ],
    )
    def test_other_spellings_go_to_argparse(self, argv):
        assert cli._plain_args(argv) is None


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


# ---------------------------------------------------------------------------
# scalar extremes under a small cap


def _next_prime(n):
    while not _is_prime(n):
        n += 1
    return n


_PRIMES = st.sampled_from([2, 3, 5, 7, 211, 1009, 10**6 + 3, 10**9 + 7, 10**12 + 39]) | st.integers(2, 10**12).map(
    _next_prime
)
_ENTRY = st.integers(-3, 3) | st.integers(-(10**6), 10**6)
_COMMANDS = ("normal-form", "strata", "graph", "multicopy", "chain-gl3", "oracle-count", "verify-counterexample")


def _cycled(draw, blocks, block):
    """A cochar of the given number of blocks: one to three drawn blocks,
    repeated, so that a long shape costs a few draws."""
    pattern = draw(st.lists(block, min_size=1, max_size=3))
    return [pattern[k % len(pattern)] for k in range(blocks)]


@st.composite
def _scalar_argv(draw):
    """One CLI call with extreme scalars: primes up to 10^12, n <= 6, f <= 3,
    up to 1,200 blocks through --d or --eps, --box up to 10^9, --field-deg 1-3
    and mu entries up to 10^6."""
    cmd = draw(st.sampled_from(_COMMANDS))
    p = draw(_PRIMES | st.integers(-3, 10**12))
    if cmd == "verify-counterexample":
        return [cmd, draw(st.sampled_from("ab")), f"--p={p}"]
    n, f = draw(st.integers(1, 6)), draw(st.integers(1, 3))
    argv = [cmd, f"--p={p}", f"--n={n}", f"--f={f}"]
    blocks = f
    if draw(st.booleans()):
        argv.append(f"--m={draw(st.integers(-3, 20) | st.integers(-3, 10**6))}")
    else:
        if draw(st.booleans()):
            blocks = draw(st.integers(1, 3) | st.integers(1, 1200))
            period = draw(st.integers(1, blocks))
            argv.append("--eps=" + json.dumps([p if (k + 1) % period == 0 else 1 for k in range(blocks)]))
        small = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
        argv.append("--tau=" + json.dumps(_cycled(draw, blocks, small)))
        argv.append("--w=" + json.dumps(_cycled(draw, blocks, st.permutations(range(1, n + 1)))))
        if draw(st.booleans()):
            argv.append("--alcove-reduce")
    if cmd == "multicopy":
        d = draw(st.integers(1, 3) | st.integers(1, 1200 // blocks))
        argv.append(f"--d={d}")
        # (c + m, c, ..., c), the shape multicopy accepts
        omega = st.tuples(st.integers(0, d + 1), _ENTRY).map(lambda mc: [mc[1] + mc[0]] + [mc[1]] * (n - 1))
        mu = _cycled(draw, blocks, omega)
    else:
        mu = _cycled(draw, blocks, st.lists(_ENTRY, min_size=n, max_size=n).map(lambda b: sorted(b, reverse=True)))
    if cmd != "normal-form":
        argv.append("--mu=" + json.dumps(mu))
    if cmd == "chain-gl3":
        lam = st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(lambda b: json.dumps([b]))
        argv += [f"--lam={draw(lam)}", f"--lam-prime={draw(lam)}"]
    if cmd == "oracle-count":
        argv += [f"--box={draw(st.integers(-1, 3) | st.integers(0, 10**9))}", f"--field-deg={draw(st.integers(1, 3))}"]
    return argv


class _OutOfBudget(BaseException):
    pass


def _call_with_budget(argv, budget):
    """main(argv) with stdout and stderr captured, under a profile hook that
    counts Python and builtin calls and stops the call past the budget."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1
            if calls > budget:
                raise _OutOfBudget
        return count

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        sys.setprofile(count)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's own exit 2
            code = exc.code
        finally:
            sys.setprofile(None)
    return code, err.getvalue(), calls


class TestScalarExtremes:
    """Under KISIN_MAX_ENUM=10^4 every call with extreme scalars finishes or
    is refused within a budget of counted calls, with a documented exit code
    and no traceback.  The examples are derandomized (a seed from the test's
    own source, and no example database), so every run draws the same 250."""

    BUDGET = 4 * 10**6

    @settings(
        max_examples=250,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(argv=_scalar_argv())
    def test_documented_exit_within_budget(self, argv):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("KISIN_MAX_ENUM", str(10**4))
            try:
                code, err, _ = _call_with_budget(argv, self.BUDGET)
            except _OutOfBudget:
                pytest.fail(f"no exit within {self.BUDGET} calls: {argv}")
        assert code in (0, 1, 2, 3, 4) and "Traceback" not in err, argv

    def test_budget_stops_a_long_call(self):
        # refused on its block box, where an exact count of its candidates
        # would run for minutes; a budget of 100 calls stops any command
        argv = ["graph", "--p=3", "--n=3", "--f=1", "--m=1", "--mu=[[100000,0,-100000]]"]
        code, err, calls = _call_with_budget(argv, self.BUDGET)
        assert code == 3 and "exceed cap" in err and calls < 10**4
        with pytest.raises(_OutOfBudget):
            _call_with_budget(["verify-counterexample", "a", "--p=3"], 100)


class TestDeepInputs:
    """Shapes with more blocks than the interpreter's recursion limit: the
    zero-dimensional stratum is built by a loop over the blocks, the residue
    join keeps its own stack, and the cycle walk extends its paths one
    position at a time."""

    def test_multicopy_with_1000_copies(self, capsys):
        code = main(["multicopy", "--p", "3", "--n", "2", "--f", "1", "--m", "1", "--mu", "[[3,0]]", "--d", "1000"])
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        report = json.loads(captured.out)
        assert report["d"] == 1000 and report["recursion_ok"] is True
        assert len(report["zero_stratum"]["lam"]) == 1000

    def test_multicopy_past_the_enumeration_cap(self, capsys, monkeypatch):
        # 41 copies: 2^41 lifted candidates, and 41 x 59 lifted entries
        argv = ["multicopy", "--p", "3", "--n", "2", "--f", "1", "--m", "1", "--mu", "[[41,0]]"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["recursion_ok"] is True
        monkeypatch.setenv("KISIN_MAX_ENUM", "100")
        assert main(argv) == 3
        assert "2419 lifted entries exceed cap 100 (KISIN_MAX_ENUM)" in capsys.readouterr().err
        monkeypatch.setenv("KISIN_MAX_ENUM", "abc")
        assert main(argv) == 2
        assert "KISIN_MAX_ENUM='abc' is not a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra,entries",
        (
            (["--n", "2", "--mu", "[[1,0]]", "--d", "1000000000"], "59000000000"),
            (["--n", "2", "--mu", "[[1000000000,0]]"], "59000000000"),
            (["--n", "2", "--mu", "[[0,0]]", "--d", "10000000"], "590000000"),
            (["--n", "1", "--mu", "[[0]]", "--d", "10000000"], "230000000"),
            (["--n", "2", "--mu", "[[1,0]]", "--d", "1000000"], "59000000"),
        ),
        ids=("huge-d", "huge-mu", "huge-size", "huge-size-n1", "huge-report"),
    )
    def test_multicopy_refuses_a_huge_lift_before_building_it(self, extra, entries):
        # 10^9, 10^7 and 10^6 lifted blocks: the lift's entries, d f times
        # 10 n^2 + 6 n + 7, are counted from mu and d before any list of the
        # lift is built, so each refusal fits in a 1.5 GB address space;
        # the million blocks of huge-report have a non-empty variety, whose
        # record and report would not fit there.  The run is a child
        # process, so that a lift built by mistake fails there and not in
        # the test session
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1500000 * 1024,) * 2)

        env = {k: v for k, v in os.environ.items() if k != "KISIN_MAX_ENUM"}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH", "")])
        argv = ["multicopy", "--p", "3", "--f", "1", "--m", "1", *extra]
        run = subprocess.run(
            [sys.executable, "-m", "kisin.cli", *argv], capture_output=True, text=True, env=env, preexec_fn=limit, timeout=60
        )
        assert run.returncode == 3 and run.stdout == "" and "Traceback" not in run.stderr
        assert f"{entries} lifted entries exceed cap 10000000 (KISIN_MAX_ENUM)" in run.stderr

    def test_strata_walk_over_1200_blocks(self, capsys):
        argv = [
            "strata", "--p", "3", "--n", "2",
            "--eps", json.dumps([3] * 1200),
            "--tau", json.dumps([[0, 0]] * 1199 + [[1, 0]]),
            "--w", json.dumps([[1, 2]] * 1199 + [[2, 1]]),
            "--mu", json.dumps([[1, 0]] * 1200),
        ]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        assert json.loads(captured.out)["strata"] == []

    def test_walk_bound_past_the_print_limit_of_ints(self, capsys, monkeypatch):
        # found by TestScalarExtremes: the walk's path bound has 4,308
        # digits, more than the interpreter prints by default
        n, blocks = 6, 353
        argv = [
            "strata", "--p=3", f"--n={n}", "--f=1",
            "--eps=" + json.dumps([3] * blocks),
            "--tau=" + json.dumps([[0, 1, 0, 0, 0, 0]] * blocks),
            "--w=" + json.dumps([[1, 3, 4, 5, 6, 2]] * blocks),
            "--mu=" + json.dumps([[321, 0, 0, 0, 0, 0]] * blocks),
        ]
        monkeypatch.setenv("KISIN_MAX_ENUM", str(10**4))
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        bound, rest = captured.err.removeprefix("precondition violated: ").split(" ", 1)
        assert len(bound) == 4308 and rest == "walk paths exceed cap 10000 (KISIN_MAX_ENUM)\n"

    def test_library_cap_message_past_the_print_limit_of_ints(self, capsys, monkeypatch):
        # the same walk bound, refused by enumerate_strata itself under the
        # interpreter's own digit limit, with the CLI's message to the byte
        n, blocks = 6, 353
        shape = GroupShape(n=n, blocks=blocks, eps=(3,) * blocks, p=3)
        datum = make_datum(shape, ExtAffine(((0, 1, 0, 0, 0, 0),) * blocks, ((0, 2, 3, 4, 5, 1),) * blocks))
        mu = ((321, 0, 0, 0, 0, 0),) * blocks
        monkeypatch.setenv("KISIN_MAX_ENUM", str(10**4))
        if hasattr(sys, "get_int_max_str_digits"):
            assert 0 < sys.get_int_max_str_digits() < 4308
        with pytest.raises(EnumerationCapError) as refused:
            enumerate_strata(datum, mu)
        argv = [
            "strata", "--p=3", f"--n={n}", "--f=1",
            "--eps=" + json.dumps([3] * blocks),
            "--tau=" + json.dumps([[0, 1, 0, 0, 0, 0]] * blocks),
            "--w=" + json.dumps([[1, 3, 4, 5, 6, 2]] * blocks),
            "--mu=" + json.dumps([[321, 0, 0, 0, 0, 0]] * blocks),
        ]
        assert main(argv) == 3
        assert capsys.readouterr().err == f"precondition violated: {refused.value}\n"

    def test_reports_print_ints_past_the_print_limit(self, capsys):
        # found by TestScalarExtremes: the fixed point's denominator
        # p^f - 1 has more digits than the interpreter prints by default; a
        # limit of 640 digits, the least allowed, shows it with f = 60
        if not hasattr(sys, "set_int_max_str_digits"):
            pytest.skip("this interpreter has no limit on printed digits")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code = main(["normal-form", "--p", "1000000000039", "--n", "2", "--f", "60", "--m", "1"])
            assert sys.get_int_max_str_digits() == 640
        finally:
            sys.set_int_max_str_digits(limit)
        captured = capsys.readouterr()
        assert code == 0 and captured.err == ""
        num, den = json.loads(captured.out)["datum"]["e"][0][0].split("/")
        assert len(den) > 640
        assert Fraction(int(num), int(den)) == caruso_datum(2, 60, 1000000000039, 1).e[0][0]


@contextlib.contextmanager
def _no_digit_limit():
    """Lift the interpreter's limit on the decimal digits of an int, as main
    does while a command runs."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


# every code point: non-ASCII, lone surrogates, control characters, '"' and '\'
_TEXT = st.text(st.characters(exclude_categories=()), max_size=8)
_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=10**4300, max_value=10**4400)
    | st.integers(min_value=-(10**4400), max_value=-(10**4300))
    | _TEXT
)
_REPORTS = st.recursive(
    _LEAVES, lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_TEXT, inner, max_size=5), max_leaves=30
)


# lists of int lists, the shape of every cochar, which _json writes from their
# repr; with empty inner lists and bools mixed in, which it must not
_INTS = (
    st.integers()
    | st.integers(min_value=10**4300, max_value=10**4400)
    | st.integers(min_value=-(10**4400), max_value=-(10**4300))
)
_INT_ARRAYS = st.lists(st.lists(_INTS, min_size=1, max_size=4), max_size=5) | st.lists(
    st.lists(_INTS | st.booleans(), max_size=4), max_size=5
)


class TestReportWriter:
    """cli.emit writes every report by cli._json, which must give the bytes
    of json.dumps(report, indent=2, sort_keys=True), its test oracle."""

    @settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(x=_REPORTS)
    @example(x={"": [], "a": {}, "b": [[], {}, [[]], {"c": {}}], "d": [True, False, None, 0, -1]})
    @example(x=["\x00\x1f\x7f\"\\/", "é \ud800\U0001f600", {"\ud800\"\n": -(10**5000)}])
    def test_matches_json_dumps(self, x):
        with _no_digit_limit():
            assert cli._json(x) == json.dumps(x, indent=2, sort_keys=True)

    @settings(max_examples=300, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
    @given(x=_INT_ARRAYS)
    @example(x=[[5]])
    @example(x=[[-1, 2], [3], [-(10**5000), 0]])
    @example(x=[[1], []])
    @example(x=[[0, True], [1]])
    @example(x=[[[1, 2]], [3]])
    def test_int_arrays_match_json_dumps(self, x):
        with _no_digit_limit():
            # at the indents of a report's top level, a value and a nested list
            for report in (x, {"a": x}, [[x], 0]):
                assert cli._json(report) == json.dumps(report, indent=2, sort_keys=True)

    @pytest.mark.parametrize("x", [1.5, (1, 2), {1: "a"}, object(), {"a": [0, 1.0]}, [{"a": (0,)}], {"a": {None: 0}}])
    def test_refuses_what_reports_do_not_hold(self, x):
        with pytest.raises(TypeError):
            cli._json(x)

    @pytest.mark.parametrize("workload", ["counterexample-ladder", "multicopy-lift", "oracle-crosscheck"])
    def test_every_workload_report(self, workload, monkeypatch, capsys):
        # the benchmark's seed-201 instance lists, read from perfbench/
        # without writing byte code there
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import workloads

        instances = workloads.generate(workload, 201, 20)
        assert instances
        parser = cli.build_parser()
        for inst in instances:
            # every argv of the workload takes the table path, to argparse's namespace
            assert cli._plain_args(inst["argv"]) == parser.parse_args(inst["argv"]), inst["argv"]
            main(inst["argv"])
            out = capsys.readouterr().out
            with _no_digit_limit():
                assert out and out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", inst["argv"]


class TestSerDatum:
    """ser_datum writes e from the integer numerators over e_den, with the
    bytes of str(Fraction), its test oracle."""

    def test_e_matches_str_fraction_on_the_caruso_grid(self):
        from conftest import caruso_central_twists
        from kisin.strata import central_twist

        for datum, chi in caruso_central_twists():
            twisted, _ = central_twist(datum, datum.shape.zero_cochar(), chi)
            for d in (datum, twisted):
                assert cli.ser_datum(d)["e"] == [[str(x) for x in b] for b in d.e], d.wt

    @pytest.mark.parametrize(
        "shape, wt",
        [
            (GroupShape.res_field(2, 1, 2), ExtAffine(((3, 1),), ((0, 1),))),  # D = 1, negative integers
            (GroupShape.res_field(2, 1, 3), ExtAffine(((5, 0),), ((1, 0),))),  # negative numerators
            (GroupShape(n=3, blocks=3, eps=(1, 5, 1), p=5), ExtAffine(((1, 0, 3), (0, 0, 0), (2, 2, -1)), ((1, 2, 0), (0, 1, 2), (2, 1, 0)))),
        ],
    )
    def test_e_on_hand_data(self, shape, wt):
        d = make_datum(shape, wt)
        assert cli.ser_datum(d)["e"] == [[str(x) for x in b] for b in d.e]

    @pytest.mark.parametrize(
        "num, den, text",
        [(0, 7, "0"), (0, 1, "0"), (-3, 6, "-1/2"), (3, 6, "1/2"), (14, 7, "2"), (-14, 7, "-2"), (5, 1, "5"), (-5, 1, "-5"), (-31, 80, "-31/80")],
    )
    def test_ratio(self, num, den, text):
        assert cli.ser_ratio(num, den) == text == str(Fraction(num, den))
