"""Bregman iteration and two-step debiasing.

The iteration solves a fixed-alpha variational problem repeatedly while
feeding the data misfit back into the right-hand side,

    u^{k+1} = argmin_u 0.5*||F u - v^k||^2 + alpha*J(u),
    v^{k+1} = v^k + v - F u^{k+1},          v^0 = v,

which is equivalent to proximal steps on the Bregman distance with the dual
update p^{k+1} = p^k + F*(v - F u^{k+1}) / alpha.  Both formulations are
maintained and their agreement is asserted at every step; the iteration count
plays the role of the regularization parameter, optionally stopped by the
discrepancy principle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from varreg.core import (LinearForwardMap, _check_count, accelerated_projected_gradient, as_vector, norm,
                         operator_norm_estimate)
from varreg.regularizers import Regularizer, Subgradient, bregman_distance
from varreg.solvers import RegularizedSolution, SolverConfig, SolverError, solve_fista, solve_variational

__all__ = [
    "BregmanStep",
    "BregmanTrace",
    "DebiasResult",
    "bregman_iterate",
    "debias_two_step",
]


@dataclass
class BregmanStep:
    """Record of one outer iteration (u^k solved from the shifted data v^{k-1})."""

    k: int
    u: np.ndarray
    p: Subgradient            # certified subgradient at u^k
    v_shifted: np.ndarray     # v^k = v^{k-1} + v - F u^k, exactly as stored
    data_residual: float      # ||F u^k - v|| against the original data
    J_value: float
    recursion_defect: float   # ||p_recursion - p_optimality|| agreement check
    bregman_to_ref: float | None = None


@dataclass
class BregmanTrace:
    data: np.ndarray          # v = v^0
    alpha: float
    steps: list[BregmanStep]
    stopped_by_discrepancy: bool = False

    def rows(self):
        """(k, residual, J_value, bregman_to_ref) tuples for CSV export."""
        return [(s.k, s.data_residual, s.J_value, s.bregman_to_ref) for s in self.steps]


def bregman_iterate(op: LinearForwardMap, data, alpha: float, reg: Regularizer,
                    n_iters: int, config: SolverConfig | None = None, *,
                    reference=None, noise_level: float | None = None,
                    discrepancy_factor: float = 1.1) -> BregmanTrace:
    """Run ``n_iters`` Bregman iterations (or fewer under the discrepancy rule).

    Inner problems are solved at a tenth of the outer tolerance, each after the
    first started from the last one's solution (``u0``: u^k, and TV's duals).  When
    ``noise_level`` is given, iteration stops at the first k with
    ||F u^k - v|| <= discrepancy_factor * noise_level.  ``reference`` adds the
    Bregman distance d_J^{p^k}(reference, u^k) to each step record.
    """
    cfg = config or SolverConfig()
    _check_count(n_iters, 1, "n_iters")
    v = as_vector(data, op.out_dim, "data")
    if not 1.0 <= discrepancy_factor < np.inf:
        raise ValueError(f"discrepancy_factor must be finite and >= 1, got {discrepancy_factor!r}")
    if noise_level is not None and not 0.0 <= noise_level < np.inf:
        raise ValueError(f"noise_level must be finite and >= 0, got {noise_level!r}")
    if reference is not None:
        reference = as_vector(reference, op.in_dim, "reference")
    inner_cfg = replace(cfg, tol=cfg.tol / 10.0)

    v_shift = v.copy()
    s_rec = np.zeros(op.in_dim)  # alpha * p_rec, and the agreement test times alpha: nothing divides by alpha
    steps: list[BregmanStep] = []
    stopped, sol = False, None
    for k in range(1, n_iters + 1):
        try:  # warm-started from the last step's certified pair
            sol = solve_variational(op, v_shift, alpha, reg, inner_cfg, u0=sol)
        except SolverError as err:
            raise SolverError(f"inner solve failed at Bregman step {k}: {err}", err.defect) from err
        u = sol.u_alpha
        fu = op._apply(u)
        misfit = v - fu
        s_rec = s_rec + op._adjoint(misfit)
        s_opt = op._adjoint(v_shift - fu)
        scaled = norm(s_rec - s_opt)
        agreement = scaled / float(alpha)  # ||p_rec - p_opt||, inf if it overflows
        if scaled > 10.0 * cfg.tol * (alpha + norm(s_opt)):  # ||p_rec - p_opt|| <= 10*tol*(1 + ||p_opt||)
            raise SolverError(
                f"Bregman dual bookkeeping diverged at step {k}: defect {agreement:.3e}", agreement
            )
        v_shift = v_shift + misfit
        to_ref = None
        if reference is not None:
            to_ref = bregman_distance(reg, reference, u, sol.p_alpha, check=False)
        steps.append(BregmanStep(
            k=k,
            u=u,
            p=sol.p_alpha,
            v_shifted=v_shift.copy(),
            data_residual=norm(misfit),
            J_value=sol.J_value,
            recursion_defect=agreement,
            bregman_to_ref=to_ref,
        ))
        if noise_level is not None and steps[-1].data_residual <= discrepancy_factor * noise_level:
            stopped = True
            break
    return BregmanTrace(data=v, alpha=alpha, steps=steps, stopped_by_discrepancy=stopped)


@dataclass
class DebiasResult:
    u_debiased: np.ndarray
    step_one: RegularizedSolution
    support: np.ndarray            # boolean mask over components
    empty_support: bool
    data_residual: float           # 0.5*||F u_db - v||^2
    bregman_to_step_one: float     # d_J^{p_alpha}(u_db, u_alpha); zero at convergence
    iterations: int


def debias_two_step(op: LinearForwardMap, data, alpha: float, reg: Regularizer,
                    config: SolverConfig | None = None) -> DebiasResult:
    """l1 debiasing: solve the l1 problem, then refit least squares on the
    recovered support under the recovered sign constraints.

    The refit is FISTA on the map restricted to the support's columns; an
    empty support leaves nothing to refit.  The sign constraint keeps the
    refit inside the face of the l1 ball picked out by p_alpha, so
    d_J^{p_alpha}(u_db, u_alpha) vanishes identically: every term
    |x_i| - sign(u_alpha_i) * x_i is zero on the constraint set.
    """
    cfg = config or SolverConfig()
    if reg.kind != "l1":
        raise ValueError(f"debias_two_step requires the l1 regularizer, not {reg.kind!r}")
    v = as_vector(data, op.out_dim, "data")
    sol = solve_fista(op, v, alpha, reg, cfg)
    support = sol.u_alpha != 0.0
    u_db, iterations = np.zeros(op.in_dim), 0
    if support.any():
        sub = LinearForwardMap(op.matrix[:, support])
        signs = np.sign(sol.u_alpha[support])
        sigma = operator_norm_estimate(sub, iters=100, seed=cfg.seed)
        # the gradient of 0.5*||F_S x - v||^2, and the projection onto the recovered signs
        u_db[support], _, iterations = accelerated_projected_gradient(
            lambda x: sub._adjoint(sub._apply(x) - v), lambda x: signs * np.maximum(signs * x, 0.0),
            1.02 * sigma ** 2 if sigma > 0.0 else 1.0, sol.u_alpha[support],
            cfg.tol * (1.0 + norm(sub._adjoint(v))), max_iters=cfg.max_iters)
    residual = op._apply(u_db) - v
    return DebiasResult(u_debiased=u_db, step_one=sol, support=support, empty_support=not support.any(),
                        data_residual=0.5 * float(np.dot(residual, residual)),
                        bregman_to_step_one=bregman_distance(reg, u_db, sol.u_alpha, sol.p_alpha, check=False),
                        iterations=iterations)
