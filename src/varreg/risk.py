"""Population vs. empirical risk for regularized least squares.

The population design integrates the forward map against the full quadrature
(uniform atoms over base rows); an empirical design samples those atoms with
noise.  Risks carry the 1/2-scaled squared loss, and the population risk
includes the irreducible noise floor sigma^2/2 so that averaging the empirical
risk over designs reproduces it exactly.

The certified estimate here controls the population output error of the
empirically regularized solution:

    0.25*||F_pop(theta_a - theta*)||^2 + alpha*d_sym
        <= alpha^2*||z*||^2 + ||Fe theta* - ve||^2 + 0.5*G(theta_a),

with G the (unscaled) operator generalization gap and (theta*, z*) a source
instance for the population map.  The risk-gap variant replaces 0.5*G by
R - Rhat, which dominates it by sigma^2/2, so both sides stay certified.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from varreg.core import LinearForwardMap, _check_alpha, as_vector, norm
from varreg.estimates import (EstimateReport, SourceInstance, _certify, _check_instance, _distances_to_instance,
                              _headroom, _report, _solution_at)
from varreg.operators import SampledDesign, make_sampled, population_map
from varreg.regularizers import Regularizer, Subgradient
from varreg.solvers import SolverConfig

__all__ = [
    "RiskPair",
    "RiskDecomposition",
    "build_risk_pair",
    "empirical_risk",
    "population_risk",
    "generalization_error",
    "operator_generalization_gap",
    "error_decomposition",
    "check_operator_error_estimate",
    "check_risk_theorem",
]


@dataclass
class RiskPair:
    """A population/empirical operator pair sharing one ground truth."""

    population_map: LinearForwardMap
    empirical_map: LinearForwardMap
    v_pop: np.ndarray           # F_pop theta*, consistent by construction
    v_emp: np.ndarray           # Fe theta* + sqrt(w)*noise
    theta_star: np.ndarray
    design: SampledDesign
    noise_sigma: float


def build_risk_pair(base: LinearForwardMap, theta_star, design: SampledDesign) -> RiskPair:
    """Fold quadrature weights into both maps and attach noisy sampled data.

    The population map uses the full design over all ``base.out_dim`` atoms
    and is built once per ``base`` (:func:`population_map`); the empirical
    data gets the design's noise scaled by the same sqrt-weights as the rows,
    keeping the weighted least-squares objective consistent.
    """
    theta_star = as_vector(theta_star, base.in_dim, "theta_star")
    pop = population_map(base)
    emp = make_sampled(base, design)
    v_pop = pop.apply(theta_star)
    v_emp = emp.apply(theta_star) + np.sqrt(design.weights) * design.noise
    return RiskPair(
        population_map=pop,
        empirical_map=emp,
        v_pop=v_pop,
        v_emp=v_emp,
        theta_star=theta_star,
        design=design,
        noise_sigma=float(design.noise_sigma),
    )


def empirical_risk(pair: RiskPair, theta) -> float:
    theta = as_vector(theta, pair.empirical_map.in_dim, "theta")
    r = pair.empirical_map.apply(theta) - pair.v_emp
    return 0.5 * float(np.dot(r, r))


def population_risk(pair: RiskPair, theta) -> float:
    theta = as_vector(theta, pair.population_map.in_dim, "theta")
    r = pair.population_map.apply(theta) - pair.v_pop
    return 0.5 * float(np.dot(r, r)) + 0.5 * pair.noise_sigma ** 2


def generalization_error(pair: RiskPair, theta) -> float:
    """Signed gap R(theta) - Rhat(theta)."""
    return population_risk(pair, theta) - empirical_risk(pair, theta)


def operator_generalization_gap(pair: RiskPair, u) -> float:
    """Unscaled gap ||F_pop u - v_pop||^2 - ||Fe u - ve||^2 (no noise floor)."""
    u = as_vector(u, pair.population_map.in_dim, "u")
    rp = pair.population_map.apply(u) - pair.v_pop
    re = pair.empirical_map.apply(u) - pair.v_emp
    return float(np.dot(rp, rp) - np.dot(re, re))


@dataclass
class RiskDecomposition:
    generalization: float       # R(theta) - Rhat(theta)
    approximation: float        # Rhat(theta) - Rhat(theta*)
    sampling: float             # Rhat(theta*) - R(theta*)
    total: float
    risk_gap: float             # R(theta) - R(theta*), recomputed directly
    identity_defect: float      # |total - risk_gap|, zero up to roundoff


def error_decomposition(pair: RiskPair, theta, f_star_risk_pop: float | None = None,
                        f_star_risk_emp: float | None = None) -> RiskDecomposition:
    """Split the excess population risk into generalization + approximation + sampling.

    Reference risks default to the risks at ``pair.theta_star``; callers working
    with a separately computed population-risk minimizer can pass its risks in.
    The three terms telescope, so the identity defect is pure roundoff.
    """
    r_theta = population_risk(pair, theta)
    rhat_theta = empirical_risk(pair, theta)
    r_star = population_risk(pair, pair.theta_star) if f_star_risk_pop is None else f_star_risk_pop
    rhat_star = empirical_risk(pair, pair.theta_star) if f_star_risk_emp is None else f_star_risk_emp
    generalization = r_theta - rhat_theta
    approximation = rhat_theta - rhat_star
    sampling = rhat_star - r_star
    total = generalization + approximation + sampling
    risk_gap = r_theta - r_star
    return RiskDecomposition(
        generalization=generalization,
        approximation=approximation,
        sampling=sampling,
        total=total,
        risk_gap=risk_gap,
        identity_defect=abs(total - risk_gap),
    )


def _empirical_terms(pair, reg, instance, alpha, cfg, solution):
    """Both certificates' left-hand side 0.25*||F_pop(u_a - u*)||^2 + alpha*d_sym at the empirical solution u_a,
    their six shared components and (R(u_a), Rhat(u_a)), from one residual pass rp = F_pop u_a - v_pop,
    re = Fe u_a - ve.  The caller has matched theta* and certified the instance on the population map."""
    sol = _solution_at(pair.empirical_map, pair.v_emp, alpha, reg, cfg, solution)
    d_sym = _distances_to_instance(reg, instance, sol)
    rp = pair.population_map.apply(sol.u_alpha) - pair.v_pop
    re = pair.empirical_map.apply(sol.u_alpha) - pair.v_emp
    noise_res = pair.empirical_map.apply(instance.u_star) - pair.v_emp
    pop_gap = norm(rp) ** 2
    components = {"pop_gap_quarter": 0.25 * pop_gap, "alpha_d_sym": alpha * d_sym, "d_sym": d_sym,
                  "alpha_sq_source_sq": alpha ** 2 * instance.source_norm ** 2,
                  "noise_energy": float(np.dot(noise_res, noise_res)),
                  "half_operator_gap": 0.5 * float(np.dot(rp, rp) - np.dot(re, re))}
    risks = 0.5 * float(np.dot(rp, rp)) + 0.5 * pair.noise_sigma ** 2, 0.5 * float(np.dot(re, re))
    return 0.25 * pop_gap + alpha * d_sym, components, risks


def _match_theta_star(pair, theta_star):
    """Refuse a theta* more than 1e-12 from the pair's in any entry.  The pair's theta* is finite (``as_vector``),
    so one elementwise maximum gives ``allclose``'s verdict at rtol=0."""
    if pair.theta_star.shape != theta_star.shape or not np.abs(pair.theta_star - theta_star).max() <= 1e-12:
        raise ValueError("risk pair and source instance disagree on theta*")


def check_operator_error_estimate(pair: RiskPair, reg: Regularizer, instance: SourceInstance,
                                  alpha: float, config: SolverConfig | None = None,
                                  solution=None) -> EstimateReport:
    """Certify the operator-gap estimate; folds in the consistent-data corollary.

    With exact data (zero noise energy) the corollary
    d_sym <= alpha*||z*||^2 + G/(2*alpha) must hold as well, and the verdict
    requires both.  A given ``solution`` must be a vector solved at ``alpha``
    (else ValueError); that it solves the pair's empirical data is not checked.
    """
    cfg = config or SolverConfig()
    _check_alpha(alpha)
    _match_theta_star(pair, instance.u_star)
    _check_instance(pair.population_map, reg, instance)
    lhs, components, _ = _empirical_terms(pair, reg, instance, alpha, cfg, solution)
    rhs = components["alpha_sq_source_sq"] + components["noise_energy"] + components["half_operator_gap"]
    report = _report(lhs, rhs, cfg.tol, components)
    if components["noise_energy"] <= 1e-24:
        cor_rhs = alpha * instance.source_norm ** 2 + components["half_operator_gap"] / alpha
        cor_holds = components["d_sym"] <= cor_rhs + _headroom(cfg.tol, cor_rhs)
        report.components.update(corollary_rhs=cor_rhs, corollary_holds=bool(cor_holds))
        report.holds = bool(report.holds and cor_holds)
    return report


_SOURCES_CAP = 32  # source instances kept per population map; sampled-radon cycles through 6


def _population_instance(pair, theta_star, z_star):
    """The instance (theta*, F_pop* z*, z*), formed once per content of (theta*, z*) with ``_certify``'s record:
    the population map's ``_sources`` finds it by a crc32 of both, confirms it by value and keeps the newest
    ``_SOURCES_CAP``."""
    memo, key = pair.population_map._sources, zlib.crc32(z_star, zlib.crc32(theta_star))
    inst = memo.get(key)
    if inst is None or not (np.array_equal(inst.u_star, theta_star) and np.array_equal(inst.z_star, z_star)):
        if len(memo) >= _SOURCES_CAP:
            del memo[next(iter(memo))]
        inst = memo[key] = SourceInstance(theta_star, Subgradient(pair.population_map.adjoint(z_star)), z_star,
                                          pair.v_pop)
    return inst


def check_risk_theorem(pair: RiskPair, reg: Regularizer, theta_star, z_star,
                       alpha: float, config: SolverConfig | None = None,
                       solution=None) -> EstimateReport:
    """Certify the risk-gap form of the estimate:

        0.25*||F_pop(theta_a - theta*)||^2 + alpha*d_sym
            <= (R(theta_a) - Rhat(theta_a)) + alpha^2*||z*||^2 + ||Fe theta* - ve||^2.

    p* = F_pop* z* is formed here, so the source condition is p* in dJ(theta*),
    certified at 1e-8 before anything is solved, once per (theta*, z*) and
    regularizer on the population map (``_population_instance``).  R - Rhat
    equals half the operator gap plus sigma^2/2, so this right-hand side
    dominates the operator-gap bound and inherits its certificate; the term
    breakdown records both gap conventions.  ``solution`` as in
    :func:`check_operator_error_estimate`.
    """
    cfg = config or SolverConfig()
    _check_alpha(alpha)
    theta_star = as_vector(theta_star, pair.population_map.in_dim, "theta_star")
    z_star = as_vector(z_star, pair.population_map.out_dim, "z_star")
    _match_theta_star(pair, theta_star)
    instance = _population_instance(pair, theta_star, z_star)
    _certify(reg, instance)
    lhs, components, (risk, risk_hat) = _empirical_terms(pair, reg, instance, alpha, cfg, solution)
    rhs = risk - risk_hat + components["alpha_sq_source_sq"] + components["noise_energy"]
    return _report(lhs, rhs, cfg.tol, {**components, "risk_gap": risk - risk_hat,
                                       "population_risk": risk, "empirical_risk": risk_hat})
