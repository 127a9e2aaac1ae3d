"""Solvers for the variational problem min_u 0.5*||F u - v||^2 + alpha*J(u).

Every solver terminates on the optimality-condition residual
||F*(F u - v) + alpha*p|| with p a certified subgradient at u, since all
downstream error estimates consume exactly that pair (u_alpha, p_alpha).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from varreg.core import (DimensionMismatchError, LinearForwardMap, _check_alpha, _check_count, _column_dots, _freeze,
                         _bound_product, _read_only_csr, accelerated_projected_gradient, as_vector,
                         operator_norm_estimate)
from varreg.regularizers import Regularizer, Subgradient, quadratic

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
# fraction of the theoretical step-size limit at which FISTA and primal-dual step
_STEP_SAFETY = 0.9
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
    seed: int = 0

    def __post_init__(self):
        _check_count(self.max_iters, 1, "max_iters")
        _check_count(self.seed, 0, "seed")
        if not np.isfinite(self.tol) or self.tol <= 0.0:
            raise ValueError("tol must be finite and positive")


@dataclass(frozen=True)
class RegularizedSolution:
    """Minimizer with its certificate: subgradient, residuals and defect.

    ``solve_columns`` gives one solution for k columns: (n, k) ``u_alpha`` and ``p_alpha.p``,
    an (edges, k) TV dual, and (k,) arrays of the scalars each column's vector solve gives.
    Immutable: it holds read-only copies of the arrays it is given, a solver's exit building it as any
    caller does, and the regularizers (by kind and shape) its p_alpha in dJ(u_alpha) has passed
    ``estimates._certify``'s probe for.
    """

    u_alpha: np.ndarray
    p_alpha: Subgradient
    alpha: float | np.ndarray
    data_residual: float | np.ndarray      # 0.5*||F u - v||^2
    J_value: float | np.ndarray
    optimality_defect: float | np.ndarray  # ||F*(F u - v) + alpha*p||
    iterations: int | np.ndarray
    _certified: set = field(default_factory=set, init=False, compare=False, repr=False)

    def __post_init__(self):
        _freeze(self, ("u_alpha", "p_alpha", "alpha", "data_residual", "J_value", "optimality_defect"))
        _freeze(self, ("iterations",), int)


def _check_finite(defect: float, solver: str) -> None:
    """Fail fast once an iterate has gone non-finite, instead of spinning to max_iters."""
    if not math.isfinite(defect):
        raise SolverError(f"{solver} iterate is not finite (defect {defect})", defect)


def _solve(core, op: LinearForwardMap, data, alpha: float, reg, config: SolverConfig | None, u0):
    """A vector solve: ``core`` on the validated data from zero, ``u0``, or a solution ``u0`` (u_alpha, and TV's q)."""
    cfg = config or SolverConfig()
    _check_alpha(alpha)
    v = as_vector(data, op.out_dim, "data")
    start = {}
    if isinstance(u0, RegularizedSolution):
        if core is _primal_dual and u0.p_alpha.dual is not None:
            start["q0"] = as_vector(u0.alpha * u0.p_alpha.dual, reg.D.out_dim, "dual start")
        u0 = u0.u_alpha
    u = np.zeros(op.in_dim) if u0 is None else as_vector(u0, op.in_dim, "u0").copy()
    return core(op, v, alpha, reg, cfg, u, **start)


def _rhs(product, v: np.ndarray, tol: float, name: str = "data", image: str = "F*v"):
    """``image`` = product(v) (F*v of data) and the defect target tol*(1 + ||image||), a block's column by column
    as its vector solves round them.  Input whose target is not finite (||image||^2 overflows, as the solvers'
    squared residuals then would) is as unusable as non-finite input, since any defect would meet it: ValueError
    naming ``name``, and a block's column.  The norm is the plain sqrt(<b, b>), ``np.linalg.norm``'s bits."""
    with np.errstate(over="ignore"):  # an overflowing norm is refused below, not warned on
        bs = [product(col) for col in (v.T.copy() if v.ndim == 2 else [v])]
        target = tol * (1.0 + np.array([math.sqrt(np.dot(b, b)) for b in bs]))
    if not np.isfinite(target).all():
        column = f" column {np.flatnonzero(~np.isfinite(target))[0]}" if v.ndim == 2 else ""
        raise ValueError(f"{name}{column} is too large: its defect target tol*(1 + ||{image}||) is not finite")
    return (bs[0], float(target[0])) if v.ndim == 1 else (np.column_stack(bs), target)


def _certified(solver: str, target, u: np.ndarray, p: np.ndarray, alpha, residual: np.ndarray,
               reg: Regularizer, defect, iterations, dual=None, done=None) -> RegularizedSolution:
    """A solver's exit, for a vector ``u`` or per column of an (n, k) block: the solution at ``u``
    with data residual ``residual`` and its J under ``reg``, or SolverError naming the first column
    whose defect is not finite or that is not ``done`` (by default: its defect within ``target``)."""
    ok = defect <= target if done is None else done
    if not (ok if u.ndim == 1 else ok.all()):
        j = np.flatnonzero(~np.atleast_1d(ok))[0]
        name = f"{solver} column {j}" if u.ndim == 2 else solver
        d, t = (float(np.atleast_1d(x)[j]) for x in (defect, target))
        _check_finite(d, name)
        raise SolverError(f"{name} stalled at defect {d:.3e} (target {t:.3e})", d)
    residual = 0.5 * _column_dots(residual, residual)
    if u.ndim == 1:
        return RegularizedSolution(u, Subgradient(p, dual), alpha, float(residual), reg._value(u),
                                   float(defect), int(iterations))
    J = np.array([reg._value(col) for col in u.T.copy()])  # column by column, rounding as a vector's J does
    return RegularizedSolution(u, Subgradient(p, dual), alpha, residual, J, defect, iterations)


def _cg(matvec, b: np.ndarray, x: np.ndarray, target: float, max_iters: int, name: str):
    """CG on matvec(x) = b from ``x`` (updated in place) to a residual of ``target``.

    Stops early after ``max_iters`` steps or on nonpositive curvature, and
    raises SolverError once the residual is not finite.  The true residual is
    recomputed once the recursive one is within ``target``, or within
    eps*||b||, below which the floats cannot follow it; one no smaller than
    the last recomputed ends the run, ``target`` being out of reach.  Returns
    (x, residual, iterations).
    """
    r = b - matvec(x)
    d = r.copy()
    rs = float(np.dot(r, r))
    iterations = 0
    residual = np.sqrt(rs)
    floor, refreshed = max(target, np.finfo(float).eps * math.sqrt(np.dot(b, b))), math.inf
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
        if np.sqrt(rs) <= floor:
            # guard against drift in the recursive residual
            r = b - matvec(x)
            rs = float(np.dot(r, r))
            if rs >= refreshed:
                return x, np.sqrt(rs), iterations
            refreshed = rs
            d = r.copy()
        residual = np.sqrt(rs)
    return x, residual, iterations


def solve_tikhonov_exact(op: LinearForwardMap, data, alpha: float,
                         config: SolverConfig | None = None, u0=None) -> RegularizedSolution:
    """Quadratic regularizer: conjugate gradients on (F*F + alpha I) u = F*v.

    ``data`` and ``u0`` are validated once; the loop runs on the raw kernels.
    """
    return _solve(_tikhonov, op, data, alpha, quadratic(), config, u0)


def _tikhonov(op, v, alpha, reg, cfg, u) -> RegularizedSolution:
    """CG on one data vector ``v``, or on each column of a block ``v`` in turn."""
    fwd, adj = op._apply, op._adjoint
    b, target = _rhs(adj, v, cfg.tol)
    if v.ndim == 1:
        u, defect, iterations = _cg(lambda x: adj(fwd(x)) + alpha * x, b, u, target, cfg.max_iters, "CG")
    else:  # one column at a time: u.T.copy() gives each its own contiguous start
        columns = enumerate(zip(alpha.tolist(), b.T, u.T.copy(), target.tolist()))
        runs = [_cg(lambda x, a=a: adj(fwd(x)) + a * x, b_j, u_j, t_j, cfg.max_iters, f"CG column {j}")
                for j, (a, b_j, u_j, t_j) in columns]
        u, defect, iterations = (np.array(x).T for x in zip(*runs))
    return _certified("CG", target, u, u.copy(), alpha, fwd(u) - v, reg, defect, iterations)


def solve_fista(op: LinearForwardMap, data, alpha: float, reg: Regularizer,
                config: SolverConfig | None = None, u0=None) -> RegularizedSolution:
    """Accelerated proximal gradient with adaptive restart, for l1 only (quadratic J is solved by CG).

    One call to ``accelerated_projected_gradient`` with the soft threshold of
    tau*alpha as its projection, then one certifying prox step: the
    subgradient it implies is an exact member of the subdifferential, and the
    optimality defect is measured against it.  ``data`` and ``u0`` are
    validated once; the kernel runs on the raw operator kernels.  With
    max|F*v| <= alpha the solution is zero: the optimality condition at u = 0
    reads F*v/alpha in dJ(0).  Such a solve returns u = 0 and p = F*v/alpha in
    closed form, with 0 iterations and no norm estimate, whatever ``u0``.
    """
    if reg.kind != "l1":
        raise ValueError(f"solve_fista supports l1 only, not {reg.kind!r}")
    return _solve(_fista, op, data, alpha, reg, config, u0)


def _fista(op, v, alpha, reg, cfg, x0) -> RegularizedSolution:
    """FISTA and its certifying prox step on one data vector ``v``, or on the
    columns of a block ``v`` with one ``alpha`` per column."""
    fwd, adj = op._apply, op._adjoint
    b, target = _rhs(adj, v, cfg.tol)
    # u = 0 solves a column exactly when F*v/alpha is in dJ(0), that is when max|F*v| <= alpha; its
    # p = F*v/alpha then has |p| <= 1 exactly, division being correctly rounded
    zero = np.abs(b).max(axis=0) <= alpha
    if zero.all():  # the closed form alone: no step size, no iteration
        u, p, iterations = np.zeros_like(x0), b / alpha, np.zeros(zero.shape, int)
    else:
        sigma = operator_norm_estimate(op, iters=200, seed=cfg.seed)
        lip = max((1.01 * sigma) ** 2, 1e-30)
        tau = _STEP_SAFETY / lip
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
        # the exact member (x_pre - u)/thresh of dJ(u), with sign(u), which a thresh below ulp(x_pre) loses
        p = np.divide(x_pre, thresh, out=np.sign(u), where=u == 0.0)
        if zero.any():  # a block's columns whose solution is zero take the closed form
            u[:, zero], p[:, zero], iterations[zero] = 0.0, b[:, zero] / alpha[zero], 0
    residual = fwd(u) - v
    g = adj(residual) + alpha * p
    return _certified("FISTA", target, u, p, alpha, residual, reg, np.sqrt(_column_dots(g, g)), iterations)


def solve_columns(op: LinearForwardMap, data, alphas, reg: Regularizer,
                  config: SolverConfig | None = None) -> RegularizedSolution:
    """One certified solution for the k columns of ``data`` (out_dim x k), column j at ``alphas[j]``.

    The block is validated once and handed to the kind's solver: FISTA (l1) and
    primal-dual (TV) run it at full width, each column with its own scalars,
    stop and certificate, a stopped column masked, not removed; CG (quadratic)
    solves one column after another.  Each column takes as many iterations as
    its vector solve, to the same target tol*(1 + ||F*v_j||).  The fields are
    per-column arrays; a column that fails raises SolverError naming it.
    """
    cfg = config or SolverConfig()
    block = np.asarray(data, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    if block.ndim != 2 or block.shape[0] != op.out_dim or alphas.shape != block.shape[1:] or not alphas.size:
        raise DimensionMismatchError(f"data of shape {block.shape} with {alphas.shape} alphas, "
                                     f"expected ({op.out_dim}, k) with k >= 1 alphas")
    for alpha in alphas:
        _check_alpha(alpha)
    if not np.all(np.isfinite(block)):
        raise ValueError("data contains non-finite entries")
    core = {"quadratic": _tikhonov, "l1": _fista, "tv_aniso": _primal_dual}[reg.kind]
    return core(op, block, alphas, reg, cfg, np.zeros((op.in_dim, alphas.size)))


def _row_scaled(mat, scale: np.ndarray):
    """diag(scale) @ mat without a sparse product, read-only: a CSR copy with scaled rows, or a dense
    array in C order, so that its products sum along contiguous rows (a transposed layout rounds otherwise)."""
    if not sp.issparse(mat):
        mat = np.ascontiguousarray(scale[:, None] * mat)
        mat.flags.writeable = False
        return mat
    mat = mat.tocsr(copy=True)
    mat.data *= np.repeat(scale, np.diff(mat.indptr))
    return _read_only_csr(mat)


def solve_primal_dual(op: LinearForwardMap, data, alpha: float, reg: Regularizer,
                      config: SolverConfig | None = None, u0=None) -> RegularizedSolution:
    """Diagonally preconditioned, over-relaxed primal-dual (Chambolle-Pock) on [F; D].

    Saddle form min_u max_{y, |q|<=alpha} <y, Fu - v> - 0.5*||y||^2 + <q, Du>, with both dual blocks stacked
    against K = [F; D], stored the way F is (dense or CSR).  The diagonal steps tau_j = _STEP_SAFETY / sum_i |K_ij|
    and sigma_i = 1 / sum_j |K_ij| (Pock & Chambolle, ICCV 2011) need no norm estimate; they are folded into the
    stored matrices sigma*K and 2*tau*K^T by scaling the rows of K and K^T (a CSR copy of K^T of its own, since a
    vector product gathers through it faster than K's CSC kernel scatters).  Each step is moved a factor
    ``_RELAX`` along its direction (Condat, JOTA 2013; Chambolle & Pock, Math. Prog. 2016), which keeps the fixed
    point and the step condition.  The certified pair is the unrelaxed one, (u_hat, clipped q): a relaxed q can
    leave the box |q| <= alpha.  Every 25 iterations the solver checks it and stops once the optimality defect of
    p = D^T q / alpha is within tol*(1 + ||F*v||) and the slack alpha*||Du||_1 - <q, Du> within
    0.5*tol*alpha*(1 + ||Du||_1): the slack is alpha*eps for p in d_eps J(u), so ``is_subgradient``'s
    eps/(1 + J(u)) is within tol/2.  The steps and the two matrices are built once per operator and regularizer.
    A solve keeps its state (u, z) in one buffer and its step in another, binds the two products to them once
    (``core._bound_product``: no checks or allocation per iteration), clips q in one ``ndarray.clip`` pass and
    relaxes in two passes.  A solution ``u0`` starts the duals too: q = alpha*p.dual, and y = F u0 - v, the
    optimum's y for u0.
    """
    if reg.kind != "tv_aniso":
        raise ValueError(f"solve_primal_dual requires tv_aniso, not {reg.kind!r}")
    return _solve(_primal_dual, op, data, alpha, reg, config, u0)


def _primal_dual(op, v, alpha, reg, cfg, u, q0=None) -> RegularizedSolution:
    """The primal-dual iteration on one data vector ``v``, or on the columns of a
    block ``v`` with one ``alpha`` per column, from ``u`` and the dual zero, or
    (F u - v, ``q0``) given an edge dual ``q0``: each column's certified pair is
    recorded at the first check that certifies it."""
    if reg.D.in_dim != op.in_dim:
        raise ValueError("regularizer shape does not match operator")
    fwd, adj = op._apply, op._adjoint
    target = _rhs(adj, v, cfg.tol)[1]
    # K = [F; D], its steps and the products sigma*K, 2*tau*K^T: built once per operator and repr(reg)
    # (kind and shape, which fix D), and kept read-only
    if (setup := op._primal_dual.get(repr(reg))) is None:
        f = op.matrix
        k_mat = sp.vstack([f, reg.D.matrix]).tocsr() if sp.issparse(f) else np.vstack([f, reg.D.matrix.toarray()])
        abs_k = abs(k_mat)
        tau = _STEP_SAFETY / np.asarray(abs_k.sum(axis=0)).ravel()
        # rows of F that see no pixel (rays missing the grid) get any finite step
        sig = 1.0 / np.maximum(np.asarray(abs_k.sum(axis=1)).ravel(), 1e-30)
        sig.flags.writeable = False
        setup = op._primal_dual[repr(reg)] = sig, _row_scaled(k_mat, sig), _row_scaled(k_mat.T, 2.0 * tau)
    sig, k_sig, kt_tau2 = setup

    n, m, cols = op.in_dim, op.out_dim, v.shape[1:]  # cols: () for a vector, (k,) for a block
    column = (-1,) + (1,) * len(cols)  # a per-row scalar, broadcast over a block's columns
    # the state (u, z) in one buffer s and the step (d, w) in one buffer t, so the relaxation is two passes
    s = np.concatenate([u, np.zeros((sig.size,) + cols)])
    u, z = s[:n], s[n:]
    if q0 is not None:
        z[:m], z[m:] = fwd(u) - v, q0
    t, u_ext = np.empty_like(s), np.empty_like(u)
    d, w = t[:n], t[n:]
    y, q = w[:m], w[m:]  # views: the data dual and the edge dual
    kt_tau2, k_sig = _bound_product(kt_tau2, z, d), _bound_product(k_sig, u_ext, w)
    sig_v = sig[:m].reshape(column) * v
    damp = (1.0 / (1.0 + sig[:m])).reshape(column)
    # 0-d arrays (or a block's per-column rows), which the in-place ufuncs take without converting a float
    hi, lo = np.asarray(alpha, dtype=float), np.asarray(-alpha, dtype=float)
    # -_RELAX/2 on the rows of d, _RELAX on those of w: s += t rounds as u -= 0.85*d and z += 1.7*(w - z) do
    relax = np.repeat([-0.5 * _RELAX, _RELAX], [n, sig.size]).reshape(column)
    live = np.ones(cols, dtype=bool)
    # each column's certified (u_hat, p, residual, q, defect, done, iterations), recorded as it stops
    out = [*map(np.empty_like, (u, u, v, z[m:])), np.empty(cols), np.zeros(cols, bool), np.zeros(cols, int)]
    for iterations in range(1, cfg.max_iters + 1):
        # u_hat = u - d/2 with d = 2*tau*K^T z; the dual step sees u_hat's
        # extrapolation 2*u_hat - u = u - d
        kt_tau2()
        np.subtract(u, d, out=u_ext)
        k_sig()
        w += z
        y -= sig_v
        y *= damp
        q.clip(lo, hi, out=q)  # the box clip
        if iterations % _CHECK_EVERY == 0 or iterations == cfg.max_iters:
            u_hat = u - 0.5 * d
            residual = fwd(u_hat) - v
            du = reg.D._apply(u_hat)
            p = reg.D._adjoint(q) / alpha
            g = adj(residual) + alpha * p
            defect = np.sqrt(_column_dots(g, g))
            tv_val = np.abs(du).sum(axis=0)
            compl = alpha * tv_val - _column_dots(q, du)  # alpha*eps of p in d_eps J(u_hat)
            done = (defect <= target) & (compl <= 0.5 * cfg.tol * alpha * (1.0 + tv_val))
            if not cols:  # a vector ends at its first stop: plain tests, no masks
                if done or not defect < math.inf or iterations == cfg.max_iters:
                    out = u_hat, p, residual, q, defect, done, iterations
                    break
            elif (stop := live & (done | ~np.isfinite(defect) | (iterations == cfg.max_iters))).any():
                for rec, now in zip(out, (u_hat, p, residual, q, defect, done, iterations)):
                    np.copyto(rec, now, where=stop)
                live &= ~stop
                if not live.any():
                    break
        w -= z
        t *= relax
        s += t
    u_hat, p, residual, q, defect, done, iterations = out
    return _certified("primal-dual", target, u_hat, p, alpha, residual, reg, defect, iterations,
                      dual=q / alpha, done=done)


def solve_variational(op: LinearForwardMap, data, alpha: float, reg: Regularizer,
                      config: SolverConfig | None = None, u0=None) -> RegularizedSolution:
    """Dispatch to the appropriate solver for the given regularizer.  ``u0`` is a start
    point, or a solution to start from: its u_alpha, and for TV its duals as well."""
    if reg.kind == "quadratic":
        return solve_tikhonov_exact(op, data, alpha, config, u0=u0)
    if reg.kind == "l1":
        return solve_fista(op, data, alpha, reg, config, u0=u0)
    return solve_primal_dual(op, data, alpha, reg, config, u0=u0)
