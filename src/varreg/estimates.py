"""Source conditions and certified error estimates.

A source instance is a triple (u*, p*, z*) with p* = F* z* and p* a verified
subgradient of J at u*.  For such instances the variational solution u_alpha
from data v satisfies

    0.5*||F u_alpha - F u*||^2 + alpha * d_sym(u_alpha, u*)
        <= ||v - F u*||^2 + alpha^2 * ||z*||^2,

with the symmetric Bregman distance on the left.  Everything here either
constructs instances whose certificates hold exactly, or evaluates both sides
of such inequalities and reports them with explicit floating-point headroom.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from varreg.core import (LinearForwardMap, _check_alpha, _check_count, _check_noise_sigma, _freeze, as_vector, norm,
                         operator_norm_estimate, substream)
from varreg.regularizers import (
    Regularizer,
    Subgradient,
    SubgradientError,
    _box_fit,
    _check_membership,
    _clamp,
    _slack,
    bregman_distance,
)
from varreg.solvers import (SolverConfig, _cg, _check_finite, _rhs, accelerated_projected_gradient, solve_columns,
                             solve_variational)

__all__ = [
    "SourceInstance",
    "EstimateReport",
    "ConvergenceRow",
    "BiasVarianceRow",
    "BiasVarianceResult",
    "construct_source_instance",
    "solve_source_element",
    "distance_function",
    "range_condition_defect",
    "check_error_estimate",
    "check_effective_estimate",
    "check_higher_order_estimate",
    "convergence_study",
    "bias_variance_study",
]

# saturation handling for l1/tv constructions: entries of the dual variable at
# least this close to the bound get pinned to +-1 exactly
SATURATION_THRESHOLD = 0.99
OFF_SUPPORT_MARGIN = 1e-6


@dataclass(frozen=True)
class SourceInstance:
    """Ground truth with a range-condition certificate p* = F* z*.  Immutable: it holds
    read-only float copies of the arrays it is given, so later writes to the caller's arrays
    cannot change it, and the regularizers (by kind and shape) p* in dJ(u*) is certified for."""

    u_star: np.ndarray
    p_star: Subgradient
    z_star: np.ndarray
    v_star: np.ndarray      # F u*, the exact data
    _certified: set = field(default_factory=set, init=False, compare=False, repr=False)

    def __post_init__(self):
        _freeze(self, ("u_star", "p_star", "z_star", "v_star"))

    @property
    def source_norm(self) -> float:
        return norm(self.z_star)


@dataclass
class EstimateReport:
    """Both sides of a certified inequality plus the verdict."""

    lhs: float
    rhs: float
    holds: bool
    slack: float            # rhs - lhs (can be negative when the bound fails)
    components: dict


def _headroom(tol: float, rhs: float) -> float:
    """Floating-point headroom granted to a certified right-hand side ``rhs``."""
    return 10.0 * tol * (1.0 + abs(rhs))


def _report(lhs: float, rhs: float, tol: float, components: dict) -> EstimateReport:
    headroom = _headroom(tol, rhs)
    return EstimateReport(lhs=float(lhs), rhs=float(rhs), holds=bool(lhs <= rhs + headroom),
                          slack=float(rhs - lhs), components={**components, "headroom": headroom})


# -- source element and distance function ------------------------------------

_TIGHT = SolverConfig(max_iters=200_000, tol=1e-13)


@dataclass
class SourceElement:
    z: np.ndarray
    defect: float           # ||F* z - p_star||


def solve_source_element(op: LinearForwardMap, p_star, config: SolverConfig | None = None) -> SourceElement:
    """Least-squares source element: minimize ||F* z - p*|| via CG on F F* z = F p*.

    Does not raise on a loose fit: the residual defect is reported and tells
    the caller whether p* is (numerically) in the range of F*.  Raises
    SolverError if an iterate goes non-finite, and ValueError naming p_star
    if the target tol*(1 + ||F p*||) is not finite.
    """
    cfg = config or _TIGHT
    p = as_vector(p_star, op.in_dim, "p_star")
    fwd, adj = op._apply, op._adjoint
    b, target = _rhs(fwd, p, cfg.tol, "p_star", "F p*")
    max_iters = min(cfg.max_iters, max(60, 4 * op.out_dim))
    z, _, _ = _cg(lambda x: fwd(adj(x)), b, np.zeros(op.out_dim), target, max_iters, "source-element CG")
    defect = norm(adj(z) - p)
    _check_finite(defect, "source-element CG")
    return SourceElement(z=z, defect=defect)


def distance_function(op: LinearForwardMap, p_star, rho: float,
                      config: SolverConfig | None = None) -> float:
    """d(rho) = min { ||F* z - p*|| : ||z|| <= rho }, by projected gradient.

    d(0) = ||p*||; the function is nonincreasing in rho and reaches the
    unconstrained least-squares defect once rho exceeds the minimal-norm
    source element.  A p* whose fit target is not finite is refused at any rho.
    """
    cfg = config or _TIGHT
    if not 0.0 <= rho < np.inf:
        raise ValueError(f"rho must be finite and nonnegative, got {rho}")
    p = as_vector(p_star, op.in_dim, "p_star")
    target = _rhs(op._apply, p, cfg.tol, "p_star", "F p*")[1]
    if rho == 0.0:
        return norm(p)
    ls = solve_source_element(op, p, cfg)
    if norm(ls.z) <= rho:
        return ls.defect

    def grad_fn(z):
        return op._apply(op._adjoint(z) - p)

    def project(z):
        nz = norm(z)
        return z if nz <= rho else z * (rho / nz)

    sigma = operator_norm_estimate(op, seed=cfg.seed)
    lip = max((1.02 * sigma) ** 2, 1e-30)
    z, _, _ = accelerated_projected_gradient(grad_fn, project, lip, ls.z, target, max_iters=cfg.max_iters)
    return norm(op.adjoint(z) - p)


# -- instance construction ----------------------------------------------------

def construct_source_instance(op: LinearForwardMap, reg: Regularizer, seed: int, *,
                              max_attempts: int = 50) -> SourceInstance:
    """Draw a source instance whose certificate p* = F* z* in dJ(u*) holds exactly.

    Quadratic: u* = F* z for Gaussian z.  l1: the dual variable is rescaled and
    corrected so it saturates at exactly +-1 on the support and stays strictly
    inside off it.  tv (1-d signals only): an edge-dual in [-1, 1]^(n-1) is fit
    into range(F*), saturated edges define the jump set of a piecewise-constant
    u*.  Raises RuntimeError if no attempt yields a verified instance.
    """
    build = _INSTANCE_BUILDERS[reg.kind]
    for attempt in range(max_attempts):
        try:
            u_star, p_arr, z_star, dual = build(op, reg, substream(seed, "instance", attempt))
            instance = SourceInstance(u_star=u_star, p_star=Subgradient(p_arr, dual), z_star=z_star,
                                      v_star=op.apply(u_star))
            _certify(reg, instance)
        except (_RetryDraw, SubgradientError):
            continue
        return instance
    raise RuntimeError(f"no verifiable source instance for kind={reg.kind!r} after {max_attempts} attempts")


class _RetryDraw(Exception):
    pass


def _quadratic_instance(op, reg, rng):
    z = rng.standard_normal(op.out_dim)
    p = op.adjoint(z)
    if norm(p) < 1e-10:
        raise _RetryDraw
    return p.copy(), p, z, None


def _l1_instance(op, reg, rng):
    z_raw = rng.standard_normal(op.out_dim)
    p_raw = op.adjoint(z_raw)
    peak = float(np.max(np.abs(p_raw)))
    if peak < 1e-12:
        raise _RetryDraw
    z1, p1 = z_raw / peak, p_raw / peak
    idx = np.flatnonzero(np.abs(p1) >= SATURATION_THRESHOLD)
    signs = np.sign(p1[idx])
    # smallest correction pinning the dual to exactly +-1 on the support: the least-norm
    # source element of the support's own columns F_S, as (F* corr)_S = F_S* corr
    corr = solve_source_element(LinearForwardMap(op.matrix[:, idx]), signs - p1[idx], _TIGHT).z
    z_star = z1 + corr
    p_star = op.adjoint(z_star)
    off = np.delete(p_star, idx)  # the pin is exact on the support, strict off it
    if np.max(np.abs(p_star[idx] - signs)) > 1e-9 or (off.size and np.max(np.abs(off)) > 1.0 - OFF_SUPPORT_MARGIN):
        raise _RetryDraw
    u_star = np.zeros(op.in_dim)
    u_star[idx] = signs * rng.uniform(0.5, 1.5, idx.size)
    return u_star, p_star, z_star, None


def _tv_instance(op, reg, rng):
    if not isinstance(reg.shape, (int, np.integer)):
        raise ValueError("tv source instances are built for 1-d signals only")
    n = int(reg.shape)
    if op.in_dim != n:
        raise ValueError("operator and regularizer dimensions differ")
    w = op.adjoint(rng.standard_normal(op.out_dim))
    # the least-squares edge dual of D^T q = w: range(D^T) is the mean-free signals, on which -cumsum inverts D^T
    q_free = -np.cumsum(w - w.mean())[:-1]
    peak = float(np.max(np.abs(q_free)))
    if peak < 1e-12:
        raise _RetryDraw
    # rescale so the box constraint |q| <= 1 actually binds, then refit
    q_hat = _box_fit(reg, w * (1.5 / peak), q_free * (1.5 / peak), 1e-12, max_iters=100_000)
    active = np.abs(q_hat) >= SATURATION_THRESHOLD
    if not np.any(active):
        raise _RetryDraw
    q_t = np.where(active, np.sign(q_hat), q_hat)
    p_target = reg.D._adjoint(q_t)
    elem = solve_source_element(op, p_target, _TIGHT)
    if elem.defect > 1e-10 * (1.0 + norm(p_target)):
        raise _RetryDraw
    jumps = np.zeros(n - 1)
    jumps[active] = np.sign(q_t[active]) * rng.uniform(0.5, 1.5, int(active.sum()))
    u_star = np.concatenate(([0.0], np.cumsum(jumps))) + rng.uniform(-0.5, 0.5)
    return u_star, op.adjoint(elem.z), elem.z, q_t


_INSTANCE_BUILDERS = {"quadratic": _quadratic_instance, "l1": _l1_instance, "tv_aniso": _tv_instance}


def range_condition_defect(op: LinearForwardMap, instance: SourceInstance, alpha: float) -> float:
    """Optimality defect of u* for the witness data v* + alpha z*.

    Zero (up to ||F* z* - p*||) because F*(F u* - v* - alpha z*) + alpha p*
    = alpha (p* - F* z*); the source condition makes u* exactly optimal there.
    """
    _check_alpha(alpha)
    v_wit = instance.v_star + alpha * instance.z_star
    g = op.adjoint(op.apply(instance.u_star) - v_wit) + alpha * instance.p_star.p
    return norm(g)


# -- certified estimates -------------------------------------------------------

def _certify(reg, obj):
    """Certify the membership ``obj`` carries, once per object and ``repr(reg)`` (its kind and shape, which
    fix J): a SourceInstance's p* in dJ(u*) at 1e-8, or a RegularizedSolution's p_tilde in dJ(u_alpha) at
    1e-6 (a block's columns in one call).  A pass is recorded on ``obj``; a failure raises SubgradientError."""
    if repr(reg) in obj._certified:
        return
    if isinstance(obj, SourceInstance):
        _check_membership(reg, obj.u_star, obj.p_star.p, obj.p_star.dual, 1e-8, "p*")
    else:
        _check_membership(reg, obj.u_alpha, obj.p_alpha.p, obj.p_alpha.dual, 1e-6, "p_tilde")
    obj._certified.add(repr(reg))


def _check_instance(op, reg, instance):
    """Certify the source condition p* = F* z* in dJ(u*) on ``op``, the operator being certified:
    ||F* z* - p*|| <= 1e-10 (else ValueError) on every call, then ``_certify`` the instance."""
    defect = norm(op.adjoint(instance.z_star) - instance.p_star.p)
    if not defect <= 1e-10:
        raise ValueError(f"source certificate too loose for this operator "
                         f"(defect ||F* z* - p*|| = {defect:.3e} > 1e-10)")
    _certify(reg, instance)


def _distances_to_instance(reg, instance, sol):
    """The symmetric Bregman distance <p - p*, u - u*> of a solution, which it certifies, to an instance the
    caller has certified, clamped as ``symmetric_bregman`` clamps it, or a block solution's (k,) distances."""
    _certify(reg, sol)
    u, p = sol.u_alpha.T.copy(), sol.p_alpha.p.T.copy()  # columns as C-contiguous rows, rounding as vectors do
    u_star, p_star = instance.u_star, instance.p_star.p
    raw = [float(np.dot(dp, du)) for dp, du in zip(np.atleast_2d(p) - p_star, np.atleast_2d(u) - u_star)]
    eps = np.zeros(len(raw))
    if min(raw) < 0.0:  # the clamp's slack eps~ + eps*, which only a negative distance needs
        eps += _slack(reg, sol.J_value, sol.u_alpha, sol.p_alpha.p) + _slack(reg, reg._value(u_star), u_star, p_star)
    dists = [_clamp(d, "symmetric Bregman distance", e) for d, e in zip(raw, eps)]
    return dists[0] if u.ndim == 1 else np.array(dists)


def _solution_at(op, v, alpha, reg, cfg, solution):
    """The caller's ``solution``, which must be a vector one at ``alpha`` (else ValueError naming it; whether it
    solves ``v`` would take a product and is not checked), or else a solve of ``v``."""
    if solution is not None and (solution.u_alpha.shape != (op.in_dim,) or solution.alpha != alpha):
        raise ValueError(f"solution has u_alpha of shape {solution.u_alpha.shape} at alpha {solution.alpha}, "
                         f"expected shape ({op.in_dim},) at alpha {alpha}")
    return solve_variational(op, v, alpha, reg, cfg) if solution is None else solution


def _estimate_terms(op, reg, instance, data, alpha, config, solution):
    """Shared by the two source-condition estimates: the settings, the solution,
    its distance d_sym to the instance, ||v - v*||^2 and ||z*||^2."""
    cfg = config or SolverConfig()
    _check_alpha(alpha)
    v = as_vector(data, op.out_dim, "data")
    _check_instance(op, reg, instance)
    sol = _solution_at(op, v, alpha, reg, cfg, solution)
    d_sym = _distances_to_instance(reg, instance, sol)
    return cfg, sol, d_sym, norm(v - instance.v_star) ** 2, instance.source_norm ** 2


def check_error_estimate(op: LinearForwardMap, reg: Regularizer, instance: SourceInstance,
                         data, alpha: float, config: SolverConfig | None = None,
                         solution=None) -> EstimateReport:
    """0.5*||F(u_alpha - u*)||^2 + alpha*d_sym <= ||v - v*||^2 + alpha^2*||z*||^2.  A given ``solution``
    must be a vector solved at ``alpha`` (else ValueError); that it solves ``data`` is not checked."""
    cfg, sol, d_sym, noise_sq, z_sq = _estimate_terms(op, reg, instance, data, alpha, config, solution)
    output_gap = norm(op.apply(sol.u_alpha) - instance.v_star) ** 2
    lhs = 0.5 * output_gap + alpha * d_sym
    rhs = noise_sq + alpha ** 2 * z_sq
    return _report(lhs, rhs, cfg.tol, {
        "output_gap_half": 0.5 * output_gap,
        "alpha_d_sym": alpha * d_sym,
        "d_sym": d_sym,
        "noise_sq": noise_sq,
        "alpha_sq_source_sq": alpha ** 2 * z_sq,
    })


def check_effective_estimate(op: LinearForwardMap, reg: Regularizer, instance: SourceInstance,
                             data, alpha: float, config: SolverConfig | None = None,
                             solution=None) -> EstimateReport:
    """d_sym(u_alpha, u*) <= ||v - v*||^2 / alpha + alpha * ||z*||^2; ``solution`` as in
    :func:`check_error_estimate`."""
    cfg, sol, d_sym, noise_sq, z_sq = _estimate_terms(op, reg, instance, data, alpha, config, solution)
    rhs = noise_sq / alpha + alpha * z_sq
    return _report(d_sym, rhs, cfg.tol, {
        "d_sym": d_sym,
        "noise_sq_over_alpha": noise_sq / alpha,
        "alpha_source_sq": alpha * z_sq,
        "optimal_alpha": np.sqrt(noise_sq) / np.sqrt(z_sq) if z_sq > 0.0 else np.inf,
    })


def check_higher_order_estimate(op: LinearForwardMap, reg: Regularizer, u_star, eta_star,
                                data, alpha: float, config: SolverConfig | None = None,
                                solution=None) -> EstimateReport:
    """Second-order source condition p* = F* F eta* gives the one-sided bound

        d^{p*}(u_alpha, u*) <= d^{p*}(u* - alpha*eta*, u*) + ||v - v*||^2 / (2 alpha).

    For quadratic J the first term is 0.5*alpha^2*||eta*||^2 exactly; for l1 it
    vanishes whenever supp(eta*) is inside supp(u*) and alpha stays below
    min_support |u*| / max |eta*| (the shift then preserves signs).
    ``solution`` as in :func:`check_error_estimate`.
    """
    cfg = config or SolverConfig()
    _check_alpha(alpha)
    u_star = as_vector(u_star, op.in_dim, "u_star")
    eta_star = as_vector(eta_star, op.in_dim, "eta_star")
    v = as_vector(data, op.out_dim, "data")
    p_arr = op.adjoint(op.apply(eta_star))
    _check_membership(reg, u_star, p_arr, None, 1e-8, "F* F eta* at u*")
    p_star = Subgradient(p=p_arr)
    sol = _solution_at(op, v, alpha, reg, cfg, solution)
    lhs = bregman_distance(reg, sol.u_alpha, u_star, p_star, check=False)
    shifted = u_star - alpha * eta_star
    first_term = bregman_distance(reg, shifted, u_star, p_star, check=False)
    v_star = op.apply(u_star)
    noise_sq = norm(v - v_star) ** 2
    rhs = first_term + noise_sq / (2.0 * alpha)
    components = {
        "first_term": first_term,
        "noise_sq_over_2alpha": noise_sq / (2.0 * alpha),
        "bregman_one_sided": lhs,
    }
    if reg.kind == "quadratic":
        components["first_term_closed_form"] = 0.5 * alpha ** 2 * norm(eta_star) ** 2
    if reg.kind == "l1":
        supp = np.abs(u_star) > 0.0
        inside = bool(np.all(supp[np.abs(eta_star) > 0.0]))
        components["support_preserved"] = inside
        if inside and np.max(np.abs(eta_star)) > 0.0:
            components["sign_safe_alpha"] = float(
                np.min(np.abs(u_star[supp])) / np.max(np.abs(eta_star))
            )
    return _report(lhs, rhs, cfg.tol, components)


# -- parameter-choice studies ---------------------------------------------------

def _alpha_grid(alphas, what: str) -> np.ndarray:
    """A study's ``alphas`` as floats, refused unless 1-d, non-empty and each valid, before a bound divides by one."""
    alphas = np.asarray(alphas, dtype=float)
    if alphas.ndim != 1 or not alphas.size:
        raise ValueError(f"the alpha {what} must be 1-d and non-empty, got shape {alphas.shape}")
    for alpha in alphas:
        _check_alpha(alpha)
    return alphas


@dataclass
class ConvergenceRow:
    n: int
    delta: float
    alpha: float
    bregman: float          # symmetric Bregman distance to u*
    bound: float            # delta^2/alpha + alpha*||z*||^2
    output_err: float       # ||F(u_alpha - u*)||
    J_value: float
    holds: bool


def convergence_study(op: LinearForwardMap, reg: Regularizer, instance: SourceInstance,
                      deltas, alphas, seed: int = 0,
                      config: SolverConfig | None = None) -> list[ConvergenceRow]:
    """Solve along a noise/parameter schedule and certify the effective bound rowwise.

    A single fixed noise direction is scaled to each delta exactly, so the
    decay of the distance is smooth in n rather than noise-realization jitter.
    Every row is solved in one ``solve_columns`` call.
    """
    cfg = config or SolverConfig()
    deltas, alphas = np.asarray(deltas, dtype=float), _alpha_grid(alphas, "schedule")
    if deltas.shape != alphas.shape:
        raise ValueError("deltas and alphas must align")
    _check_instance(op, reg, instance)
    g = substream(seed, "noise").standard_normal(op.out_dim)
    g /= norm(g)
    z_sq = instance.source_norm ** 2
    sol = solve_columns(op, instance.v_star[:, None] + np.outer(g, deltas), alphas, reg, cfg)
    dists, us = _distances_to_instance(reg, instance, sol), sol.u_alpha.T.copy()  # contiguous columns
    rows = []
    for i, (delta, alpha, d_sym, u, J) in enumerate(zip(deltas, alphas, dists, us, sol.J_value)):
        bound = delta ** 2 / alpha + alpha * z_sq
        rows.append(ConvergenceRow(
            n=i,
            delta=float(delta),
            alpha=float(alpha),
            bregman=float(d_sym),
            bound=float(bound),
            output_err=norm(op.apply(u) - instance.v_star),
            J_value=float(J),
            holds=bool(d_sym <= bound + _headroom(cfg.tol, bound)),
        ))
    return rows


@dataclass
class BiasVarianceRow:
    alpha: float
    mean_bregman: float
    stderr: float
    bound: float            # E||noise||^2/alpha + alpha*||z*||^2
    holds: bool


@dataclass
class BiasVarianceResult:
    rows: list[BiasVarianceRow]
    noise_energy_mean: float        # observed mean ||noise||^2
    noise_energy_expected: float    # m * sigma^2
    argmin_alpha: float


def bias_variance_study(op: LinearForwardMap, reg: Regularizer, instance: SourceInstance,
                        noise_sigma: float, alphas, replicates: int, seed: int = 0,
                        config: SolverConfig | None = None) -> BiasVarianceResult:
    """Mean symmetric Bregman distance over seeded noise replicates per alpha.

    Common random numbers across the alpha grid: replicate r reuses one noise
    draw for every alpha, so the curve is smooth and the argmin is meaningful.
    The whole replicate x alpha grid is solved in one ``solve_columns`` call.
    The certified bound uses the expected noise energy m*sigma^2; a noise_sigma
    leaving a bound or the mean noise energy not finite is a ValueError, before
    any solve.  ``argmin_alpha`` is the largest alpha whose mean lies within
    10*tol*(1 + |min|) of the smallest mean: the most-regularized minimizer,
    so means that tie at roundoff cannot flip it.
    """
    cfg = config or SolverConfig()
    _check_count(replicates, 2, "replicates")  # for a standard error
    _check_noise_sigma(noise_sigma, op.out_dim)
    alphas = _alpha_grid(alphas, "grid")
    _check_instance(op, reg, instance)
    m = op.out_dim
    z_sq = instance.source_norm ** 2
    noise = np.stack([noise_sigma * substream(seed, "noise", r).standard_normal(m)
                      for r in range(replicates)])
    expected_energy = m * noise_sigma ** 2
    with np.errstate(over="ignore"):  # an overflow is refused below, not warned on
        energy_mean = float(np.mean(np.array([norm(row) for row in noise]) ** 2))
        bounds = expected_energy / alphas + alphas * z_sq
    if not np.isfinite([energy_mean, *bounds]).all():
        raise ValueError(f"noise_sigma {noise_sigma!r} leaves the mean noise energy {energy_mean!r} or a bound "
                         f"m*noise_sigma^2/alpha + alpha*||z*||^2 not finite")
    # one column per (replicate, alpha), replicate-major
    data = np.repeat(instance.v_star[:, None] + noise.T, alphas.size, axis=1)
    sol = solve_columns(op, data, np.tile(alphas, replicates), reg, cfg)
    dists = _distances_to_instance(reg, instance, sol).reshape(replicates, alphas.size)
    rows = []
    for a, (alpha, bound) in enumerate(zip(alphas, bounds)):
        mean = float(np.mean(dists[:, a]))
        stderr = float(np.std(dists[:, a], ddof=1) / np.sqrt(replicates))
        rows.append(BiasVarianceRow(
            alpha=float(alpha),
            mean_bregman=mean,
            stderr=stderr,
            bound=float(bound),
            holds=bool(mean <= bound + 3.0 * stderr + _headroom(cfg.tol, bound)),
        ))
    means = np.array([row.mean_bregman for row in rows])
    low = float(means.min())
    minimizers = alphas[means <= low + _headroom(cfg.tol, low)]
    return BiasVarianceResult(
        rows=rows,
        noise_energy_mean=energy_mean,
        noise_energy_expected=float(expected_energy),
        argmin_alpha=float(minimizers.max()),
    )
