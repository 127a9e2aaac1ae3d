"""Span tracing of varreg's layers from outside the library.

The tracer replaces public functions of each varreg module with timing
wrappers, at every module that imported the function by name, so that a call
is recorded whichever namespace it is looked up in.  It also wraps
``LinearForwardMap.apply``/``adjoint``, ``Regularizer.prox``/``edge_map_norm``
at class level, the TV membership fit ``regularizers._tv_dual_fit``, and
``scipy.linalg.cho_factor``/``cho_solve`` (the TV data prox).  Nothing in the
library is edited; ``uninstall`` restores every original.

Each call becomes a span (name, start, end, parent span, case id) kept in
compact in-memory arrays.  A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import sys
import weakref
from array import array
from time import perf_counter

import numpy as np
import scipy.linalg
import scipy.sparse as sp

# span name of each wrapped public function; any other function listed in a
# module's __all__ is recorded as "<module>.other"
SPAN_OF = {
    "core.as_vector": "core.as_vector",
    "core.inner": "core.linalg",
    "core.norm": "core.linalg",
    "core.operator_norm_estimate": "core.opnorm",
    "core.substream": "core.substream",
    "operators.make_dense": "operators.build",
    "operators.make_random_dense": "operators.build",
    "operators.make_convolution": "operators.build",
    "operators.make_radon": "operators.build",
    "operators.make_sampled": "operators.build",
    "operators.draw_design": "operators.build",
    "operators.full_design": "operators.build",
    "regularizers.is_subgradient": "regularizers.membership",
    "regularizers.bregman_distance": "regularizers.bregman",
    "regularizers.symmetric_bregman": "regularizers.bregman",
    "solvers.solve_tikhonov_exact": "solvers.cg",
    "solvers.solve_fista": "solvers.fista",
    "solvers.solve_primal_dual": "solvers.pd",
    "solvers.solve_variational": "solvers.dispatch",
    "bregman_iteration.bregman_iterate": "bregman_iteration.run",
    "bregman_iteration.debias_two_step": "bregman_iteration.debias",
    "estimates.construct_source_instance": "estimates.instance",
    "estimates.check_error_estimate": "estimates.check",
    "estimates.check_effective_estimate": "estimates.check",
    "estimates.check_higher_order_estimate": "estimates.check",
    "estimates.convergence_study": "estimates.study",
    "estimates.bias_variance_study": "estimates.study",
    "risk.build_risk_pair": "risk.pair",
    "risk.check_risk_theorem": "risk.check",
    "risk.check_operator_error_estimate": "risk.check",
}

MODULES = ("core", "operators", "regularizers", "solvers", "bregman_iteration",
           "estimates", "risk", "cli")

def _matrix_bytes(op) -> int:
    """Bytes of the operator's backing storage, plus its input and output vectors."""
    m = op.matrix
    vectors = 8 * (op.in_dim + op.out_dim)
    if m is None:
        return vectors
    if sp.issparse(m):
        m = m.tocsr()
        return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes + vectors
    return np.asarray(m).nbytes + vectors


class Tracer:
    """Wraps varreg's layers and records spans while installed."""

    def __init__(self, varreg):
        self.varreg = varreg
        self._patches = []          # (owner, attribute, original)
        self._names: dict[str, int] = {}
        self.case = -1
        self.reset()

    # -- span storage ---------------------------------------------------------

    def reset(self):
        self.name_id = array("i")
        self.parent = array("l")
        self.case_id = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._stack_names: list[int] = []
        self._ops = weakref.WeakSet()
        self._op_bytes = weakref.WeakKeyDictionary()

    def _id(self, name: str) -> int:
        if name not in self._names:
            self._names[name] = len(self._names)
        return self._names[name]

    def add(self, counter: str, value: float = 1):
        self.counters[counter] = self.counters.get(counter, 0) + value

    def _inside(self, name: str) -> bool:
        return self._names.get(name, -1) in self._stack_names

    def _wrap(self, fn, span, hook=None):
        tracer = self
        fixed_id = None if callable(span) else self._id(span)

        def wrapper(*args, **kwargs):
            nid = fixed_id if fixed_id is not None else tracer._id(span(args, kwargs))
            idx = len(tracer.t0)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.case_id.append(tracer.case)
            tracer.t1.append(0.0)
            tracer._stack.append(idx)
            tracer._stack_names.append(nid)
            tracer.t0.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.t1[idx] = perf_counter()
                tracer._stack.pop()
                tracer._stack_names.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks that read results ----------------------------------------------

    def _solver_hook(self, kind):
        def hook(args, kwargs, result):
            self.add(f"solvers.{kind}.iters", result.iterations)
            if self._inside("bregman_iteration.run"):
                self.add("bregman_iteration.inner_iters", result.iterations)
        return hook

    def _apply_hook(self, direction):
        def hook(args, kwargs, result):
            op = args[0]
            nbytes = self._op_bytes.get(op)
            if nbytes is None:
                nbytes = self._op_bytes[op] = _matrix_bytes(op)
            self.add("core.apply.bytes_computed", nbytes)
            self.add(f"core.apply.{direction}", 1)
        return hook

    def _opnorm_hook(self, args, kwargs, result):
        op = args[0] if args else kwargs["op"]
        if op not in self._ops:
            self._ops.add(op)
            self.add("core.opnorm.operators", 1)

    def _substream_hook(self, args, kwargs, result):
        name = args[1] if len(args) > 1 else kwargs.get("name")
        if name == "instance" and self._inside("estimates.instance"):
            self.add("estimates.instance.draws", 1)

    def _instance_hook(self, args, kwargs, result):
        self.add("estimates.instance.built", 1)

    def _bregman_hook(self, args, kwargs, result):
        self.add("bregman_iteration.steps", len(result.steps))

    def _debias_hook(self, args, kwargs, result):
        self.add("bregman_iteration.debias.apg_iters", result.iterations)

    # -- installation -----------------------------------------------------------

    def install(self):
        if self._patches:
            return
        v = self.varreg
        hooks = {
            "solvers.cg": self._solver_hook("cg"),
            "solvers.fista": self._solver_hook("fista"),
            "solvers.pd": self._solver_hook("pd"),
            "core.opnorm": self._opnorm_hook,
            "core.substream": self._substream_hook,
            "estimates.instance": self._instance_hook,
            "bregman_iteration.run": self._bregman_hook,
            "bregman_iteration.debias": self._debias_hook,
        }
        wrappers = {}   # id(original) -> wrapper
        for mod_name in MODULES:
            module = sys.modules[f"varreg.{mod_name}"]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not callable(fn) or isinstance(fn, type):
                    continue
                if mod_name == "cli":
                    if attr != "run":
                        continue
                    span = _cli_span
                else:
                    span = SPAN_OF.get(f"{mod_name}.{attr}", f"{mod_name}.other")
                wrappers[id(fn)] = (fn, self._wrap(fn, span, hooks.get(span)))
        apg = sys.modules["varreg.solvers"].accelerated_projected_gradient
        wrappers[id(apg)] = (apg, self._wrap(apg, "solvers.apg"))
        fit = sys.modules["varreg.regularizers"]._tv_dual_fit
        wrappers[id(fit)] = (fit, self._wrap(fit, "regularizers.tv_fit"))

        # rebind every module-level name that refers to a wrapped function
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "varreg" or name.startswith("varreg.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])

        lfm = v.LinearForwardMap
        self._patch(lfm, "apply", self._wrap(lfm.apply, "core.apply", self._apply_hook("forward")))
        self._patch(lfm, "adjoint", self._wrap(lfm.adjoint, "core.apply", self._apply_hook("adjoint")))
        reg = v.Regularizer
        self._patch(reg, "prox", self._wrap(reg.prox, "regularizers.prox"))
        self._patch(reg, "edge_map_norm", self._wrap(reg.edge_map_norm, "regularizers.edge_norm"))
        self._patch(scipy.linalg, "cho_factor", self._wrap(scipy.linalg.cho_factor, "solvers.pd.factor"))
        self._patch(scipy.linalg, "cho_solve", self._wrap(scipy.linalg.cho_solve, "solvers.pd.prox"))

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Spans and counters recorded since the last reset, as numpy arrays."""
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "case_id": np.array(self.case_id, dtype=np.int64),
            "start": np.array(self.t0, dtype=np.float64),
            "end": np.array(self.t1, dtype=np.float64),
            "counters": dict(self.counters),
        }

    @property
    def names(self) -> list[str]:
        out = [""] * len(self._names)
        for name, i in self._names.items():
            out[i] = name
        return out


def _cli_span(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.{argv[0]}" if argv else "cli.run"


def span_totals(snap: dict, names: list[str]) -> dict[str, dict[str, float]]:
    """Per span name: call count, total (inclusive) seconds and self seconds."""
    nid, parent = snap["name_id"], snap["parent"]
    dur = snap["end"] - snap["start"]
    n = len(names)
    child = np.zeros(dur.size)
    has_parent = parent >= 0
    if dur.size:
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    calls = np.bincount(nid, minlength=n)
    total = np.bincount(nid, weights=dur, minlength=n)
    own = np.bincount(nid, weights=self_time, minlength=n)
    return {names[i]: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(own[i])}
            for i in range(n)}
