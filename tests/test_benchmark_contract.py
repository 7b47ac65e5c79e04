"""The names the benchmark harness in ``perfbench/`` looks up must exist.

The harness is read here, never changed: ``spans.TARGETS`` names the
functions ``Tracer.install`` wraps with ``getattr`` (``--trace 1`` would
crash on a deleted one), and ``workload.py`` calls entry points of the
package as ``ke.<name>``.
"""

import ast
import importlib
import inspect
from pathlib import Path

import krylov_exact as ke
import krylov_exact.cli  # noqa: F401  (workload.py calls ke.cli.main)
from krylov_exact import Context

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _span_targets() -> dict:
    """``TARGETS`` of spans.py, read as a literal without running it."""
    tree = ast.parse((PERFBENCH / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("spans.py defines no TARGETS")


def _ke_chain(node):
    """['cli', 'main'] for the expression ke.cli.main, else None."""
    names = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "ke" and names:
        return names[::-1]
    return None


def _resolve(names):
    obj = ke
    for name in names:
        obj = getattr(obj, name)
    return obj


def test_span_targets_resolve_to_callables():
    targets = _span_targets()
    assert targets
    for module, names in targets.items():
        mod = importlib.import_module(f"krylov_exact.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"krylov_exact.{module}.{name}"


def test_workload_names_exist():
    tree = ast.parse((PERFBENCH / "workload.py").read_text())
    seen = set()
    for node in ast.walk(tree):
        chain = _ke_chain(node)
        if chain is not None:
            seen.add(tuple(chain))
            _resolve(chain)  # AttributeError names the missing one
        if isinstance(node, ast.Call) and _ke_chain(node.func) is not None:
            params = inspect.signature(_resolve(_ke_chain(node.func))).parameters
            for kw in node.keywords:
                assert kw.arg is None or kw.arg in params, f"{ast.unparse(node.func)}({kw.arg}=...)"
    # the entry points the three workloads rely on are among them
    assert {("cli", "main"), ("numeric", "rational"), ("operator_lanczos",), ("make_system",)} <= seen
    # workload.py's verify-tolerance gate reads this field
    for mode in ("exact", "bigreal"):
        assert Context(mode).default_tolerance().rel_eps is not None
