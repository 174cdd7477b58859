import ast
import importlib
from pathlib import Path

import skyroute
from skyroute import harness


def test_every_exported_name_resolves():
    namespace = {}
    exec("from skyroute import *", namespace)
    assert len(set(skyroute.__all__)) == len(skyroute.__all__)
    for name in skyroute.__all__:
        assert namespace[name] is getattr(skyroute, name)


def test_exports_the_solver_plan_runs():
    assert skyroute.row_dp is harness.row_dp


def test_every_traced_name_resolves():
    # perfbench/tracing.py wraps these module attributes by name; a removed
    # or renamed one would break the benchmark's tracer.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    sites = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SITES"])
    assert sites
    for site, names in sites.items():
        module = importlib.import_module(f"skyroute.{site}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{site}.{name}"
