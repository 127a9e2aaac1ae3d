"""The benchmark's tracer wraps library functions by name; a renamed or
removed one would silently fall into ``<module>.other``, so every name it
relies on is pinned here."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("varreg_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_span_names_resolve():
    tracer = _load_tracer()
    for key in tracer.SPAN_OF:
        mod_name, attr = key.split(".")
        assert mod_name in tracer.MODULES, key
        module = importlib.import_module(f"varreg.{mod_name}")
        assert attr in module.__all__, key
        assert callable(getattr(module, attr)), key
    solvers = importlib.import_module("varreg.solvers")
    regularizers = importlib.import_module("varreg.regularizers")
    assert callable(solvers.accelerated_projected_gradient)
    assert callable(regularizers._tv_dual_fit)
