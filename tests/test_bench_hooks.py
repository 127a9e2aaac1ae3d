"""The benchmark's tracer wraps library functions by name; a renamed or
removed one would silently fall into ``<module>.other``, so every name it
relies on is pinned here.  Each workload's first block runs here too, so a
changed call shape fails the suite rather than only a benchmark run."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import varreg

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"varreg_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load("workloads").WORKLOADS


def test_tracer_span_names_resolve():
    tracer = _load("tracer")
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


def test_tracer_class_hooks_are_plain_functions():
    # the tracer patches these through vars(cls)[name]: a renamed method, or
    # one turned into a property, would fail only a traced run
    from varreg import LinearForwardMap, Regularizer
    for cls, name in ((LinearForwardMap, "apply"), (LinearForwardMap, "adjoint"),
                      (Regularizer, "prox"), (Regularizer, "edge_map_norm")):
        assert inspect.isfunction(vars(cls).get(name)), f"{cls.__name__}.{name}"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_benchmark_workload_first_block_certifies(name, tmp_path):
    workload = WORKLOADS[name](varreg, tmp_path)
    block = next(workload.blocks(workload.setup(0)))
    assert block and [fn() for _, _, fn in block] == [True] * len(block)


def test_sampled_radon_first_block_certifies_without_the_membership_probe(tmp_path, monkeypatch):
    # both classes' subgradients bound every probe gap by 0 (CG's p = u, and the l1 zero exit's u = 0 with
    # max|p| <= 1), so the closed form decides each membership check and no probe point's J is evaluated
    workload = WORKLOADS["sampled-radon"](varreg, tmp_path)
    block = next(workload.blocks(workload.setup(0)))
    calls, real = [], varreg.Regularizer.value_batch
    monkeypatch.setattr(varreg.Regularizer, "value_batch", lambda self, U: calls.append(len(U)) or real(self, U))
    assert [fn() for _, _, fn in block] == [True] * len(block)
    assert calls == []
