"""Solvers for the variational problem min_u 0.5*||F u - v||^2 + alpha*J(u).

Every solver terminates on the optimality-condition residual
||F*(F u - v) + alpha*p|| with p a certified subgradient at u, since all
downstream error estimates consume exactly that pair (u_alpha, p_alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from varreg.core import (DimensionMismatchError, LinearForwardMap, _check_alpha, _check_count, _column_dots,
                         accelerated_projected_gradient, as_vector, norm, operator_norm_estimate)
from varreg.regularizers import Regularizer, Subgradient

__all__ = [
    "RegularizedSolution",
    "SolverConfig",
    "SolverError",
    "solve_columns",
    "solve_fista",
    "solve_primal_dual",
    "solve_tikhonov_exact",
    "solve_variational",
]


# over-relaxation factor of the primal-dual step, in (0, 2); 1 is plain Chambolle-Pock
_RELAX = 1.7
# iterations between the primal-dual solver's certificate checks
_CHECK_EVERY = 25


class SolverError(RuntimeError):
    """Solver failed to certify its tolerance within the iteration budget."""

    def __init__(self, message: str, defect: float = float("nan")):
        super().__init__(message)
        self.defect = defect


@dataclass
class SolverConfig:
    max_iters: int = 50_000
    tol: float = 1e-8           # relative: defect target is tol*(1 + ||F*v||)
    step_safety: float = 0.9    # fraction of the theoretical step-size limit
    seed: int = 0

    def __post_init__(self):
        _check_count(self.max_iters, 1, "max_iters")
        _check_count(self.seed, 0, "seed")
        if not np.isfinite(self.tol) or self.tol <= 0.0:
            raise ValueError("tol must be finite and positive")
        if not 0.0 < self.step_safety <= 1.0:
            raise ValueError("step_safety must be in (0, 1]")


@dataclass
class RegularizedSolution:
    """Minimizer with its certificate: subgradient, residuals and defect."""

    u_alpha: np.ndarray
    p_alpha: Subgradient
    alpha: float
    data_residual: float      # 0.5*||F u - v||^2
    J_value: float
    optimality_defect: float  # ||F*(F u - v) + alpha*p||
    iterations: int


def _check_finite(defect: float, solver: str) -> None:
    """Fail fast once an iterate has gone non-finite, instead of spinning to max_iters."""
    if not math.isfinite(defect):
        raise SolverError(f"{solver} iterate is not finite (defect {defect})", defect)


def _enter(op: LinearForwardMap, data, alpha: float, config: SolverConfig | None, u0):
    """A solver's entry: its settings, the validated data, the raw kernels, F*v,
    the defect target tol*(1 + ||F*v||) and a fresh start point (zero or ``u0``)."""
    cfg = config or SolverConfig()
    _check_alpha(alpha)
    v = as_vector(data, op.out_dim, "data")
    b = op._adjoint(v)
    u = np.zeros(op.in_dim) if u0 is None else as_vector(u0, op.in_dim, "u0").copy()
    return cfg, v, op._apply, op._adjoint, b, cfg.tol * (1.0 + norm(b)), u


def _certified(solver: str, target: float, u: np.ndarray, p: np.ndarray, alpha: float,
               residual: np.ndarray, J_value: float, defect: float, iterations: int,
               dual=None) -> RegularizedSolution:
    """A solver's exit: the solution at ``u`` with data residual ``residual``,
    or SolverError unless its defect is finite and within ``target``."""
    _check_finite(defect, solver)
    if not defect <= target:
        raise SolverError(f"{solver} stalled at defect {defect:.3e} > {target:.3e}", defect)
    return RegularizedSolution(
        u_alpha=u,
        p_alpha=Subgradient(p=p, owner=u.copy(), dual=dual),
        alpha=alpha,
        data_residual=0.5 * float(np.dot(residual, residual)),
        J_value=J_value,
        optimality_defect=defect,
        iterations=iterations,
    )


def _cg(matvec, b: np.ndarray, x: np.ndarray, target: float, max_iters: int, name: str):
    """CG on matvec(x) = b from ``x`` (updated in place) to a residual of ``target``.

    Stops early after ``max_iters`` steps or on nonpositive curvature, and
    raises SolverError once the residual is not finite.  Returns
    (x, residual, iterations).
    """
    r = b - matvec(x)
    d = r.copy()
    rs = float(np.dot(r, r))
    iterations = 0
    residual = np.sqrt(rs)
    while not residual <= target:
        _check_finite(residual, name)
        if iterations >= max_iters:
            break
        q = matvec(d)
        curvature = float(np.dot(d, q))
        if curvature <= 0.0:
            break
        step = rs / curvature
        x += step * d
        r -= step * q
        rs_new = float(np.dot(r, r))
        d = r + (rs_new / rs) * d
        rs = rs_new
        iterations += 1
        if np.sqrt(rs) <= target:
            # guard against drift in the recursive residual
            r = b - matvec(x)
            rs = float(np.dot(r, r))
            d = r.copy()
        residual = np.sqrt(rs)
    return x, residual, iterations


def solve_tikhonov_exact(op: LinearForwardMap, data, alpha: float,
                         config: SolverConfig | None = None, u0=None) -> RegularizedSolution:
    """Quadratic regularizer: conjugate gradients on (F*F + alpha I) u = F*v.

    ``data`` and ``u0`` are validated once; the loop runs on the raw kernels.
    """
    cfg, v, fwd, adj, b, target, u = _enter(op, data, alpha, config, u0)
    u, defect, iterations = _cg(lambda x: adj(fwd(x)) + alpha * x, b, u, target, cfg.max_iters, "CG")
    return _certified("CG", target, u, u.copy(), alpha, fwd(u) - v, 0.5 * float(np.dot(u, u)),
                      defect, iterations)


def solve_fista(op: LinearForwardMap, data, alpha: float, reg: Regularizer,
                config: SolverConfig | None = None, u0=None) -> RegularizedSolution:
    """Accelerated proximal gradient with adaptive restart (quadratic or l1).

    One call to ``accelerated_projected_gradient`` with the prox of
    tau*alpha*J as its projection, then one certifying prox step: the
    subgradient it implies is an exact member of the subdifferential, and the
    optimality defect is measured against it.  ``data`` and ``u0`` are
    validated once; the kernel runs on the raw operator kernels.
    """
    if reg.kind not in ("quadratic", "l1"):
        raise ValueError(f"solve_fista supports quadratic and l1, not {reg.kind!r}")
    cfg, v, _, _, _, target, x0 = _enter(op, data, alpha, config, u0)
    return _fista(op, v, alpha, reg, cfg, target, x0)[0]


def _fista(op, v, alpha, reg, cfg, target, x0) -> list[RegularizedSolution]:
    """FISTA and its certifying prox step on one data vector ``v``, or on the
    columns of a block ``v`` with one ``alpha`` and ``target`` per column."""
    fwd, adj = op._apply, op._adjoint
    sigma = operator_norm_estimate(op, iters=200, seed=cfg.seed)
    lip = max((1.01 * sigma) ** 2, 1e-30)
    tau = cfg.step_safety / lip
    thresh = tau * alpha  # a scalar, or one per column of a block

    def grad(x):
        return adj(fwd(x) - v)

    def prox(x):
        return reg._prox(thresh, x)

    # the prox-gradient map T is averaged, so the certifying step u = T(x) from
    # the kernel's x = T(y) moves no further than its last one; the defect
    # grad(u) - grad(x) + (x - u)/tau is then at most (1 + ||F||^2 tau) <= 2
    # times the final mapping, so a mapping of target/2 certifies the target
    x, _, iterations = accelerated_projected_gradient(grad, prox, 1.0 / tau, x0, 0.5 * target,
                                                      cfg.max_iters)
    x_pre = x - tau * grad(x)
    u = prox(x_pre)
    p = (x_pre - u) / thresh
    residual = fwd(u) - v
    g = adj(residual) + alpha * p
    if v.ndim == 1:
        return [_certified("FISTA", target, u, p, alpha, residual, reg._value(u), norm(g), iterations)]
    defects = np.sqrt(_column_dots(g, g))
    return [_certified(f"FISTA column {j}", target[j], u_j, p_j, float(alpha[j]), r_j, reg._value(u_j),
                       float(defects[j]), int(iterations[j]))
            for j, (u_j, p_j, r_j) in enumerate(zip(u.T.copy(), p.T.copy(), residual.T.copy()))]


def solve_columns(op: LinearForwardMap, data, alphas, reg: Regularizer,
                  config: SolverConfig | None = None) -> list[RegularizedSolution]:
    """One certified solution per column of ``data`` (out_dim x k), column j at ``alphas[j]``.

    l1 runs FISTA on the whole block at its full width: each column keeps its
    own momentum, restart, stop, defect target tol*(1 + ||F*v_j||) and
    certifying prox step, and takes as many iterations as ``solve_fista`` on
    that column alone.  A column that has stopped is masked, not removed.
    Other kinds solve column by column with ``solve_variational``.  A column
    that fails raises SolverError naming it.
    """
    cfg = config or SolverConfig()
    block = np.asarray(data, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    if block.ndim != 2 or block.shape[0] != op.out_dim or alphas.shape != block.shape[1:]:
        raise DimensionMismatchError(f"data of shape {block.shape} with {alphas.shape} alphas, "
                                     f"expected ({op.out_dim}, k) with k alphas")
    for alpha in alphas:
        _check_alpha(alpha)
    if reg.kind != "l1" or not alphas.size:
        return [solve_variational(op, v, alpha, reg, cfg) for v, alpha in zip(block.T, alphas)]
    if not np.all(np.isfinite(block)):
        raise ValueError("data contains non-finite entries")
    b = op._adjoint(block)
    target = cfg.tol * (1.0 + np.sqrt(_column_dots(b, b)))
    return _fista(op, block, alphas, reg, cfg, target, np.zeros((op.in_dim, alphas.size)))


def _row_scaled(mat, scale: np.ndarray):
    """diag(scale) @ mat without a sparse product: a CSR copy with scaled rows, or a dense array
    in C order, so that its products sum along contiguous rows (a transposed layout rounds otherwise)."""
    if not sp.issparse(mat):
        return np.ascontiguousarray(scale[:, None] * mat)
    mat = mat.tocsr(copy=True)
    mat.data *= np.repeat(scale, np.diff(mat.indptr))
    return mat


def solve_primal_dual(op: LinearForwardMap, data, alpha: float, reg: Regularizer,
                      config: SolverConfig | None = None, u0=None) -> RegularizedSolution:
    """Diagonally preconditioned, over-relaxed primal-dual (Chambolle-Pock) on [F; D].

    Saddle form min_u max_{y, |q|<=alpha} <y, Fu - v> - 0.5*||y||^2 + <q, Du>,
    with both dual blocks stacked against K = [F; D], stored the way F is
    (dense or CSR).  The diagonal steps
    tau_j = step_safety / sum_i |K_ij| and sigma_i = 1 / sum_j |K_ij| (Pock &
    Chambolle, ICCV 2011) need no norm estimate; they are folded into the
    stored products sigma*K and 2*tau*K^T by scaling the rows of K and K^T,
    and the box clip of q is two in-place ufuncs.  Each step is moved a factor
    ``_RELAX`` along its direction (Condat, JOTA 2013; Chambolle & Pock, Math.
    Prog. 2016), which keeps the fixed point and the step condition.  The
    certified pair is the unrelaxed one, (u_hat, clipped q): a relaxed q can
    leave the box |q| <= alpha.  It is certified by a primal-dual gap combining
    the optimality defect of p = D^T q / alpha with the complementarity slack
    alpha*||Du||_1 - <q, Du>.
    """
    if reg.kind != "tv_aniso":
        raise ValueError(f"solve_primal_dual requires tv_aniso, not {reg.kind!r}")
    cfg, v, fwd, adj, _, target, u = _enter(op, data, alpha, config, u0)
    if reg.D.shape[1] != op.in_dim:
        raise ValueError("regularizer shape does not match operator")
    d_mat, dt_mat, f_mat = reg.D, reg.Dt, op.matrix
    k_mat = sp.vstack([f_mat, d_mat]).tocsr() if sp.issparse(f_mat) else np.vstack([f_mat, d_mat.toarray()])
    abs_k = abs(k_mat)
    tau = cfg.step_safety / np.asarray(abs_k.sum(axis=0)).ravel()
    # rows of F that see no pixel (rays missing the grid) get any finite step
    sig = 1.0 / np.maximum(np.asarray(abs_k.sum(axis=1)).ravel(), 1e-30)
    k_sig, kt_tau2 = _row_scaled(k_mat, sig), _row_scaled(k_mat.T, 2.0 * tau)

    m = op.out_dim
    u_ext = np.empty_like(u)
    z = np.zeros(k_mat.shape[0])
    sig_v = sig[:m] * v
    damp = 1.0 / (1.0 + sig[:m])

    defect = np.inf
    gap = np.inf
    for iterations in range(1, cfg.max_iters + 1):
        # u_hat = u - d/2 with d = 2*tau*K^T z; the dual step sees u_hat's
        # extrapolation 2*u_hat - u = u - d
        d = kt_tau2 @ z
        w = k_sig @ np.subtract(u, d, out=u_ext)
        w += z
        y, q = w[:m], w[m:]  # views: the data dual and the edge dual
        y -= sig_v
        y *= damp
        np.minimum(q, alpha, out=q)  # the box clip, without np.clip's dispatch
        np.maximum(q, -alpha, out=q)
        if iterations % _CHECK_EVERY == 0 or iterations == cfg.max_iters:
            u_hat = u - 0.5 * d
            residual = fwd(u_hat) - v
            du = d_mat @ u_hat
            p = (dt_mat @ q) / alpha
            defect = norm(adj(residual) + alpha * p)
            _check_finite(defect, "primal-dual")
            tv_val = float(np.sum(np.abs(du)))
            compl = alpha * tv_val - float(np.dot(q, du))
            obj = 0.5 * float(np.dot(residual, residual)) + alpha * tv_val
            gap = defect + max(compl, 0.0)
            if defect <= target and compl <= cfg.tol * (1.0 + obj):
                return _certified("primal-dual", target, u_hat, p, alpha, residual, tv_val,
                                  defect, iterations, dual=q / alpha)
        d *= 0.5 * _RELAX
        u -= d
        w -= z
        w *= _RELAX
        z += w
    raise SolverError(f"primal-dual stalled at gap {gap:.3e} (defect {defect:.3e})", defect)


def solve_variational(op: LinearForwardMap, data, alpha: float, reg: Regularizer,
                      config: SolverConfig | None = None, u0=None) -> RegularizedSolution:
    """Dispatch to the appropriate solver for the given regularizer."""
    if reg.kind == "quadratic":
        return solve_tikhonov_exact(op, data, alpha, config, u0=u0)
    if reg.kind == "l1":
        return solve_fista(op, data, alpha, reg, config, u0=u0)
    return solve_primal_dual(op, data, alpha, reg, config, u0=u0)

