"""The traced benchmark run wraps package functions by name; each must exist."""

import importlib
import importlib.util
from pathlib import Path


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
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
