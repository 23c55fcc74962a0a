"""The shared front end: one parse, one pass registry, one waiver audit."""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis import passes
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.contracts import analyze_contracts
from repro.analysis.dataflow import analyze_dataflow, callgraph
from repro.analysis.diagnostics import registry
from repro.cli import main as cli_main

CODE_PASSES = ("source", "dataflow", "contracts", "interlock", "all")


def write(root, relpath, code):
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return path


@pytest.fixture
def mixed_tree(tmp_path):
    """A tree with a violation and a waiver for every code pass."""
    root = tmp_path / "src" / "repro"
    write(root, "experiments/algo.py", """
        import random

        def route(net):
            return random.random()

        def stale(net):
            return net  # repro: allow=dataflow-unseeded-rng
    """)
    write(root, "service/worker.py", """
        def best_effort(path):
            try:
                return open(path).read()
            except Exception:
                pass

        def waived(path):
            try:
                return path.upper()
            except Exception:  # repro: allow=contracts-broad-catch-swallow
                pass

        LIMIT = 3  # repro: allow=interlock-lock-order
    """)
    write(root, "core/defaults.py", """
        from repro.graph.validation import check_tree

        def f(a=[]):
            return a

        def g(a=[]):  # repro: allow=source-mutable-default
            check_tree(a)
            return a
    """)
    return root


class TestRegistry:
    def test_pass_names_come_from_the_registry(self):
        assert tuple(passes.PASSES) == CODE_PASSES[:-1]
        assert set(passes.load_passes()) == set(passes.PASSES)

    def test_one_audit_serves_every_whole_program_pass(self):
        audits = [registry.get(f"{name}-unused-waiver")
                  for name in ("dataflow", "contracts", "interlock")]
        assert len({audit.check.__code__ for audit in audits}) == 1
        assert [audit.category for audit in audits] == [
            "dataflow", "contracts", "interlock"]
        assert audits[2].summary == \
            "an interlock allow-pragma waives nothing"


class TestEntryPointParity:
    @pytest.mark.parametrize("fmt", ["text", "sarif"])
    @pytest.mark.parametrize("name", CODE_PASSES)
    def test_lint_forwards_to_the_analysis_main(self, mixed_tree, capsys,
                                                name, fmt):
        argv = ["--pass", name, "--format", fmt, str(mixed_tree)]
        code = analysis_main(argv)
        direct = capsys.readouterr().out
        assert cli_main(["lint", *argv]) == code
        assert capsys.readouterr().out == direct

    def test_fixture_exercises_every_pass(self, mixed_tree, capsys):
        assert analysis_main(["--pass", "all", str(mixed_tree)]) == 1
        out = capsys.readouterr().out
        for rule_id in ("source-mutable-default", "dataflow-unseeded-rng",
                        "contracts-broad-catch-swallow",
                        "dataflow-unused-waiver",
                        "interlock-unused-waiver"):
            assert rule_id in out
        assert out.count("source-mutable-default") == 1

    def test_forwarded_flags_reach_the_analysis_main(self, mixed_tree,
                                                     capsys):
        argv = ["--pass", "all", "--disable", "dataflow-unseeded-rng",
                "--severity", "source-mutable-default=info",
                str(mixed_tree)]
        code = analysis_main(argv)
        direct = capsys.readouterr().out
        assert cli_main(["lint", *argv]) == code
        assert capsys.readouterr().out == direct
        assert "info[source-mutable-default]" in direct
        assert "error[dataflow-unseeded-rng]" not in direct


class TestOneParse:
    def test_pass_all_parses_and_builds_the_call_graph_once(
            self, mixed_tree, monkeypatch, capsys):
        calls = {"build_project": 0, "CallGraph": 0}
        build_project = callgraph.build_project
        call_graph = callgraph.CallGraph

        def counting_build(paths):
            calls["build_project"] += 1
            return build_project(paths)

        def counting_graph(project):
            calls["CallGraph"] += 1
            return call_graph(project)

        monkeypatch.setattr(callgraph, "build_project", counting_build)
        monkeypatch.setattr(callgraph, "CallGraph", counting_graph)
        analysis_main(["--pass", "all", str(mixed_tree)])
        assert calls == {"build_project": 1, "CallGraph": 1}

    def test_importing_the_cli_loads_no_engine(self):
        src = str(Path(repro.__file__).resolve().parent.parent)
        probe = ("import sys, repro.cli; print(sorted(m for m in sys.modules"
                 " if m.startswith(('repro.analysis.dataflow',"
                 " 'repro.analysis.contracts', 'repro.analysis.interlock'))))")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True,
                             env={"PYTHONPATH": src}).stdout
        assert out.strip() == "[]"


class TestSyntaxErrorReportedOnce:
    @pytest.fixture
    def broken(self, tmp_path):
        root = tmp_path / "src" / "repro"
        write(root, "bad.py", "def f(:\n")
        return root

    @pytest.mark.parametrize("entry", ["analysis", "lint"])
    @pytest.mark.parametrize("name", CODE_PASSES)
    def test_through_both_entry_points(self, broken, capsys, entry, name):
        argv = ["--pass", name, str(broken)]
        code = (analysis_main(argv) if entry == "analysis"
                else cli_main(["lint", *argv]))
        lines = capsys.readouterr().out.splitlines()
        assert code == 1
        assert lines == [
            f"{broken / 'bad.py'}:1: error[source-syntax-error] "
            f"syntax error: invalid syntax",
            "1 diagnostic(s): 1 error(s), 0 warning(s), 0 info"]

    def test_standalone_pass_reports_it(self, broken):
        diags = analyze_dataflow([broken])
        assert [(d.rule, d.message) for d in diags] == [
            ("source-syntax-error", "syntax error: invalid syntax")]


class TestModuleNameCollisions:
    @pytest.fixture
    def colliding(self, tmp_path):
        write(tmp_path, "a/util.py", """
            def swallow():
                try:
                    return 1
                except Exception:
                    pass
        """)
        write(tmp_path, "b/util.py", """
            def clean():
                return 2
        """)
        return tmp_path / "a", tmp_path / "b"

    def test_both_files_are_modules(self, colliding):
        a, b = colliding
        project = callgraph.build_project([a, b])
        assert sorted(project.modules) == ["a.util", "b.util"]

    def test_argument_order_does_not_matter(self, colliding):
        a, b = colliding
        forward = analyze_contracts([a, b])
        backward = analyze_contracts([b, a])
        assert [d.rule for d in forward] == ["contracts-broad-catch-swallow"]
        assert forward == backward

    @pytest.mark.parametrize("name", CODE_PASSES)
    def test_cli_output_is_order_independent(self, colliding, capsys, name):
        a, b = colliding
        outputs = []
        for order in ([a, b], [b, a]):
            code = analysis_main(["--pass", name, *map(str, order)])
            outputs.append((code, capsys.readouterr().out))
        assert outputs[0] == outputs[1]
