"""The theorem checks of the experiment scripts: explicit checks that print
the failing instance and exit non-zero, kept under ``python -O``."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

from kisin.connectivity import StrataGraph

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(monkeypatch, module, *argv):
    """module.main() under argv; the message it exits with."""
    monkeypatch.setattr(sys, "argv", [module.__file__, *argv])
    with pytest.raises(SystemExit) as info:
        module.main()
    assert isinstance(info.value.code, str)  # exit status 1, the message on stderr
    return info.value.code


def test_no_script_asserts():
    # python -O strips assert statements
    for path in sorted(SCRIPTS.glob("*.py")):
        asserts = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name} asserts on lines {asserts}"


def test_gl3_sweep_refuses_a_second_component(monkeypatch):
    module = load("gl3_sweep")
    real = module.build_graph

    def split(d, mu):
        graph = real(d, mu)
        return StrataGraph(graph.vertices, (), tuple((s.lam,) for s in graph.vertices) + ((),))

    monkeypatch.setattr(module, "build_graph", split)
    message = run(monkeypatch, module, "--primes", "2", "--mu-bound", "1")
    assert message.startswith("GL3 sweep: 2 components at p=2, m=")


class TestZeroStratumExperiment:
    ARGV = ("--count", "5", "--seed", "1")

    def test_uniqueness(self, monkeypatch):
        module = load("zero_stratum_experiment")
        real = module.enumerate_strata
        monkeypatch.setattr(module, "enumerate_strata", lambda d, mu: real(d, mu) * 2)
        message = run(monkeypatch, module, *self.ARGV)
        assert "uniqueness failed at (" in message and ": 2 zero-dimensional strata" in message

    def test_construction(self, monkeypatch):
        module = load("zero_stratum_experiment")
        real = module.unique_zero_stratum
        monkeypatch.setattr(module, "unique_zero_stratum", lambda m, mu: real(m, mu)._replace(dim=None))
        assert "!= enumerated" in run(monkeypatch, module, *self.ARGV)

    def test_recursion(self, monkeypatch):
        module = load("zero_stratum_experiment")
        monkeypatch.setattr(module, "recursion_check", lambda m, mu, lam: (False, 3))
        message = run(monkeypatch, module, *self.ARGV)
        assert message.startswith("zero-stratum experiment: recursion failed at (") and message.endswith(" block 3")

    def test_empty_variety_must_be_refused(self, monkeypatch):
        module = load("zero_stratum_experiment")
        monkeypatch.setattr(module, "enumerate_strata", lambda d, mu: ())
        monkeypatch.setattr(module, "unique_zero_stratum", lambda m, mu: None)
        assert "empty variety not refused at (" in run(monkeypatch, module, *self.ARGV)
