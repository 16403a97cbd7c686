"""The benchmark calls package functions by name; each must exist and
accept the arguments the benchmark passes."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_tracing():
    path = BENCH / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    # Tracer.install looks each target up with getattr, so a renamed or
    # deleted package name breaks every traced run with AttributeError
    for module_name, cls_name, attr, _, _ in load_tracing().TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), f"{module_name}.{cls_name or ''}.{attr}"


def workload_calls():
    """(line, dotted name, callee, positional count, keyword names) of each
    call that bench/workloads.py makes into a module it imports from
    edgeprice; ``*args`` and ``**kwargs`` are left out."""
    tree = ast.parse((BENCH / "workloads.py").read_text())
    modules = {alias.asname or alias.name: importlib.import_module(f"edgeprice.{alias.name}")
               for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "edgeprice"
               for alias in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain, func = [], node.func
        while isinstance(func, ast.Attribute):
            chain.insert(0, func.attr)
            func = func.value
        if not chain or not isinstance(func, ast.Name) or func.id not in modules:
            continue
        callee = modules[func.id]
        for attr in chain:
            callee = getattr(callee, attr)
        n_args = sum(not isinstance(arg, ast.Starred) for arg in node.args)
        keywords = [kw.arg for kw in node.keywords if kw.arg is not None]
        yield node.lineno, ".".join([func.id, *chain]), callee, n_args, keywords


def test_every_workload_call_binds_to_its_signature():
    # a dropped or renamed parameter (backend=, say) would otherwise fail
    # every benchmark run with TypeError, and no test
    calls = list(workload_calls())
    assert calls
    for line, name, callee, n_args, keywords in calls:
        try:
            inspect.signature(callee).bind_partial(*range(n_args), **dict.fromkeys(keywords))
        except TypeError as exc:
            pytest.fail(f"bench/workloads.py:{line} {name}: {exc}")
