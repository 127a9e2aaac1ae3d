import dataclasses
import warnings

import numpy as np
import pytest
import scipy.linalg

from varreg import (
    RadonGeometry,
    SolverConfig,
    SubgradientError,
    bias_variance_study,
    build_risk_pair,
    check_operator_error_estimate,
    check_effective_estimate,
    check_error_estimate,
    check_higher_order_estimate,
    construct_source_instance,
    convergence_study,
    distance_function,
    draw_design,
    identity_map,
    is_subgradient,
    l1,
    make_convolution,
    make_dense,
    make_radon,
    make_random_dense,
    population_map,
    quadratic,
    range_condition_defect,
    solve_source_element,
    solve_variational,
    substream,
    tv_aniso,
)
from varreg import cli, estimates, regularizers, solvers
from varreg.core import accelerated_projected_gradient
from varreg.estimates import OFF_SUPPORT_MARGIN, SourceInstance

TIGHT = SolverConfig(tol=1e-12, max_iters=200_000)


# -- instance construction ----------------------------------------------------

@pytest.mark.parametrize("kind", ["quadratic", "l1", "tv"])
def test_construct_source_instance_certificates(kind):
    reg = {"quadratic": quadratic(), "l1": l1(), "tv": tv_aniso(10)}[kind]
    for seed in range(5):
        op = make_random_dense(16, 10, seed=5000 + seed)
        inst = construct_source_instance(op, reg, seed=seed)
        assert np.linalg.norm(op.adjoint(inst.z_star) - inst.p_star.p) <= 1e-10
        np.testing.assert_allclose(op.adjoint(inst.z_star), inst.p_star.p, atol=1e-9)
        np.testing.assert_allclose(op.apply(inst.u_star), inst.v_star, atol=1e-12)
        assert is_subgradient(reg, inst.u_star, inst.p_star, tol=1e-8).ok


def test_construct_source_instance_is_deterministic():
    op = make_random_dense(12, 8, seed=3)
    a = construct_source_instance(op, l1(), seed=11)
    b = construct_source_instance(op, l1(), seed=11)
    np.testing.assert_array_equal(a.u_star, b.u_star)
    np.testing.assert_array_equal(a.z_star, b.z_star)


def test_l1_instance_shape_on_identity():
    # F = I: the dual is z itself, so the support is wherever |z| peaks
    inst = construct_source_instance(identity_map(6), l1(), seed=0)
    on = np.abs(inst.u_star) > 0
    assert np.any(on)
    np.testing.assert_allclose(np.abs(inst.p_star.p[on]), 1.0, atol=1e-12)
    off = np.abs(inst.p_star.p[~on])
    assert off.size == 0 or np.max(off) <= 1.0 - OFF_SUPPORT_MARGIN
    mags = np.abs(inst.u_star[on])
    assert np.all((0.5 <= mags) & (mags <= 1.5))


def test_tv_instance_is_piecewise_constant_with_witness():
    reg = tv_aniso(12)
    op = make_random_dense(16, 12, seed=21)
    inst = construct_source_instance(op, reg, seed=4)
    du = reg.D.matrix @ inst.u_star
    assert np.any(du != 0.0)  # at least one jump
    assert inst.p_star.dual is not None
    q = inst.p_star.dual
    assert np.max(np.abs(q)) <= 1.0 + 1e-12
    jumps = np.abs(du) > 1e-12
    np.testing.assert_allclose(q[jumps], np.sign(du[jumps]), atol=1e-12)


def test_construct_source_instance_exhausts_on_zero_map():
    zero = make_dense(np.zeros((4, 4)))
    with pytest.raises(RuntimeError, match="source instance"):
        construct_source_instance(zero, quadratic(), seed=0, max_attempts=3)


@pytest.mark.parametrize("kind", ["quadratic", "l1", "tv"])
def test_construct_source_instance_retries_a_failed_probe(kind, monkeypatch):
    # a draw whose p* fails the membership probe is dropped for the next attempt, whose
    # instance comes back already certified: no estimate probes p* again
    cfg = SolverConfig(tol=1e-10)
    op = make_random_dense(14, 10, seed=4003)
    reg = {"quadratic": quadratic(), "l1": l1(), "tv": tv_aniso(10)}[kind]
    probed, failing = [], [1]
    real = regularizers.is_subgradient

    def probe(reg, u, p, *args, **kwargs):
        probed.append(u)
        res = real(reg, u, p, *args, **kwargs)
        return res._replace(ok=False) if len(probed) in failing else res

    monkeypatch.setattr(regularizers, "is_subgradient", probe)
    inst = construct_source_instance(op, reg, seed=3)
    assert len(probed) == 2
    assert np.may_share_memory(probed[1], inst.u_star) and not np.array_equal(probed[0], inst.u_star)
    assert check_error_estimate(op, reg, inst, inst.v_star, 0.2, cfg).holds
    assert sum(np.may_share_memory(u, inst.u_star) for u in probed) == 1
    # every draw fails its probe: no instance after max_attempts
    probed[:], failing[:] = [], range(1, 100)
    with pytest.raises(RuntimeError, match="after 4 attempts"):
        construct_source_instance(op, reg, seed=3, max_attempts=4)
    assert 1 <= len(probed) <= 4


def test_tv_instance_requires_1d():
    reg = tv_aniso((3, 4))
    op = make_random_dense(14, 12, seed=2)
    with pytest.raises(ValueError, match="1-d"):
        construct_source_instance(op, reg, seed=0)


# -- reference builders: the dense l1 pin and the least-squares TV fit ------------

def _dense_l1_instance(op, reg, rng, singular):
    """The l1 builder with the support pinned by a Cholesky solve on the dense support Gram B B^T (rows of B
    are F e_i); a singular Gram is a retry, counted in ``singular``."""
    z_raw = rng.standard_normal(op.out_dim)
    p_raw = op.adjoint(z_raw)
    peak = float(np.max(np.abs(p_raw)))
    if peak < 1e-12:
        raise estimates._RetryDraw
    z1, p1 = z_raw / peak, p_raw / peak
    idx = np.flatnonzero(np.abs(p1) >= estimates.SATURATION_THRESHOLD)
    signs = np.sign(p1[idx])
    basis = np.zeros((op.in_dim, idx.size))
    basis[idx, np.arange(idx.size)] = 1.0
    B = op._apply(basis).T
    try:
        with warnings.catch_warnings():  # an ill-conditioned Gram warns; its loose pin is retried below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            corr = B.T @ scipy.linalg.solve(B @ B.T, signs - B @ z1, assume_a="pos")
    except scipy.linalg.LinAlgError:
        singular.append(idx)
        raise estimates._RetryDraw
    z_star = z1 + corr
    p_star = op.adjoint(z_star)
    off = np.delete(p_star, idx)
    if np.max(np.abs(p_star[idx] - signs)) > 1e-9 or (off.size and np.max(np.abs(off)) > 1.0 - OFF_SUPPORT_MARGIN):
        raise estimates._RetryDraw
    u_star = np.zeros(op.in_dim)
    u_star[idx] = signs * rng.uniform(0.5, 1.5, idx.size)
    return u_star, p_star, z_star, None


def _lstsq_tv_instance(op, reg, rng):
    """The TV builder with its free edge dual an SVD least-squares fit on the dense D^T."""
    Dt = reg.D.matrix.T.toarray()
    w = op.adjoint(rng.standard_normal(op.out_dim))
    q_free = np.linalg.lstsq(Dt, w, rcond=None)[0]
    peak = float(np.max(np.abs(q_free)))
    if peak < 1e-12:
        raise estimates._RetryDraw
    target = w * (1.5 / peak)
    q_hat, _, _ = accelerated_projected_gradient(lambda q: reg.D.matrix @ (Dt @ q - target),
                                                 lambda q: np.clip(q, -1.0, 1.0),
                                                 1.02 * reg.edge_map_norm() ** 2, q_free * (1.5 / peak), 1e-12,
                                                 max_iters=100_000)
    active = np.abs(q_hat) >= estimates.SATURATION_THRESHOLD
    if not np.any(active):
        raise estimates._RetryDraw
    q_t = np.where(active, np.sign(q_hat), q_hat)
    elem = solve_source_element(op, Dt @ q_t)
    if elem.defect > 1e-10 * (1.0 + np.linalg.norm(Dt @ q_t)):
        raise estimates._RetryDraw
    jumps = np.zeros(reg.shape - 1)
    jumps[active] = np.sign(q_t[active]) * rng.uniform(0.5, 1.5, int(active.sum()))
    u_star = np.concatenate(([0.0], np.cumsum(jumps))) + rng.uniform(-0.5, 0.5)
    return u_star, op.adjoint(elem.z), elem.z, q_t


def _built_with(monkeypatch, op, reg, seed, builder):
    """construct_source_instance(op, reg, seed) through ``builder``, and the number of draws it took."""
    draws = []
    monkeypatch.setitem(estimates._INSTANCE_BUILDERS, reg.kind, lambda *args: draws.append(1) or builder(*args))
    return construct_source_instance(op, reg, seed), len(draws)


def _reference_cases():
    for i in range(20):  # the certify-dense benchmark's shapes
        n = 6 + i % 11
        yield make_random_dense(n + 4 + i % 7, n, seed=900 + i), n, i
    for kernel in ([0.25, 0.5, 0.25], [1.0, -1.0], [0.2, 0.6, 0.2]):  # singular circulants: the first at even n, the second
        for n in (8, 13, 16):
            yield make_convolution(kernel, n), n, n
    population = population_map(make_radon(RadonGeometry.regular(8, 8, 8)))
    yield from ((population, None, seed) for seed in range(3))  # l1 only: TV draws no instance on a radon map


def test_instances_match_the_dense_reference_builders(monkeypatch):
    # the least-norm pin on the support's own columns and the closed-form TV dual give the same u* (and v*)
    # from the same draw as the dense Cholesky pin and the SVD least-squares fit, and z*, p* and the dual
    # to roundoff; a support Gram that is singular (two parallel columns) is a retry for both
    singular, builders = [], dict(estimates._INSTANCE_BUILDERS)
    reference = {"l1": lambda op, reg, rng: _dense_l1_instance(op, reg, rng, singular), "tv_aniso": _lstsq_tv_instance}
    parallel = make_dense([[1.0, -0.995, 0.0, 0.3], [0.0, 0.0, 1.0, 0.2]])
    cases = [*_reference_cases(), *((parallel, None, seed) for seed in range(8))]
    for op, n, seed in cases:
        for reg in (l1(),) if n is None else (l1(), tv_aniso(n)):
            new, new_draws = _built_with(monkeypatch, op, reg, seed, builders[reg.kind])
            old, old_draws = _built_with(monkeypatch, op, reg, seed, reference[reg.kind])
            assert new_draws == old_draws
            np.testing.assert_array_equal(new.u_star, old.u_star)
            np.testing.assert_array_equal(new.v_star, old.v_star)
            for a, b in ((new.z_star, old.z_star), (new.p_star.p, old.p_star.p), (new.p_star.dual, old.p_star.dual)):
                assert (a is None and b is None) or np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(b)
    assert singular  # the parallel columns' draws did reach a singular Gram


# -- source elements and the distance function --------------------------------

def test_solve_source_element_consistent():
    rng = substream(0, "src")
    a = rng.standard_normal((7, 5))
    w = rng.standard_normal(7)
    p = a.T @ w  # in range(F*) by construction
    elem = solve_source_element(make_dense(a), p, TIGHT)
    assert elem.defect <= 1e-9
    # least-norm: matches the minimum-norm least-squares solution of A^T z = p
    oracle, *_ = np.linalg.lstsq(a.T, p, rcond=None)
    np.testing.assert_allclose(elem.z, oracle, atol=1e-8)


def test_solve_source_element_reports_range_defect():
    # rank-1 map: anything orthogonal to its row space is unreachable
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    p = np.array([0.0, 3.0])
    elem = solve_source_element(make_dense(a), p, TIGHT)
    assert abs(elem.defect - 3.0) <= 1e-10
    zero = make_dense(np.zeros((3, 3)))
    elem0 = solve_source_element(zero, np.array([1.0, 2.0, 2.0]), TIGHT)
    np.testing.assert_array_equal(elem0.z, np.zeros(3))
    assert abs(elem0.defect - 3.0) <= 1e-12


def test_distance_function_endpoints():
    rng = substream(1, "dist")
    a = rng.standard_normal((6, 4))
    p = rng.standard_normal(4)
    op = make_dense(a)
    assert abs(distance_function(op, p, 0.0, TIGHT) - np.linalg.norm(p)) <= 1e-12
    # p in range(F*) and a generous radius: the distance vanishes
    z = rng.standard_normal(6)
    p_in = a.T @ z
    big = 10.0 * np.linalg.norm(z)
    assert distance_function(op, p_in, big, TIGHT) <= 1e-8
    for rho in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="rho must be finite and nonnegative"):
            distance_function(op, p, rho)


def test_source_fits_refuse_a_p_star_whose_target_overflows():
    # ||F p*||^2 overflows for this finite p*, so the target tol*(1 + ||F p*||) would be inf and accept any
    # defect: the source element and the distance function (at any radius) refuse it, naming p_star, warning-free
    op, big = make_random_dense(8, 6, seed=1), 1e300 * np.ones(6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fit in (lambda: solve_source_element(op, big), lambda: distance_function(op, big, 0.0),
                    lambda: distance_function(op, big, 1.0)):
            with pytest.raises(ValueError, match="p_star is too large"):
                fit()


def test_distance_function_at_radius_zero_is_a_finite_norm_whose_square_overflows():
    # d(0) = ||p*|| = 2e200 though ||p*||^2 overflows; F p* = (4, 4, 4), so the fit's target is finite and
    # p* is accepted, and the norm comes back finite with no RuntimeWarning
    op = make_dense(1e-200 * np.ones((3, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert distance_function(op, 1e200 * np.ones(4), 0.0) == 2e200


def test_distance_function_matches_ridge_sweep():
    # KKT: for mu > 0, z(mu) = (F F* + mu I)^{-1} F p* solves the constrained
    # problem at its own radius, tracing the exact trade-off curve
    rng = substream(2, "dist")
    a = rng.standard_normal((5, 8))
    p = rng.standard_normal(8)
    op = make_dense(a)
    gram = a @ a.T
    for mu in (10.0, 1.0, 0.1, 0.01):
        z_mu = np.linalg.solve(gram + mu * np.eye(5), a @ p)
        rho = float(np.linalg.norm(z_mu))
        oracle = float(np.linalg.norm(a.T @ z_mu - p))
        got = distance_function(op, p, rho, TIGHT)
        assert abs(got - oracle) <= 1e-6 * (1.0 + oracle)


def test_distance_function_monotone_in_radius():
    rng = substream(3, "dist")
    a = rng.standard_normal((4, 6))
    p = rng.standard_normal(6)
    op = make_dense(a)
    values = [distance_function(op, p, r, TIGHT) for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
    for lo, hi in zip(values[1:], values[:-1]):
        assert lo <= hi + 1e-9


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
def test_check_error_estimate_rejects_bad_alpha(alpha):
    op = make_random_dense(8, 6, seed=3)
    inst = construct_source_instance(op, quadratic(), seed=0)
    with pytest.raises(ValueError, match="alpha"):
        check_error_estimate(op, quadratic(), inst, inst.v_star, alpha)


def test_range_condition_defect_vanishes_on_instances():
    for kind, reg in (("quadratic", quadratic()), ("l1", l1())):
        op = make_random_dense(12, 8, seed=31)
        inst = construct_source_instance(op, reg, seed=6)
        for alpha in (0.01, 0.1, 1.0):
            assert range_condition_defect(op, inst, alpha) <= 1e-9 * (1.0 + alpha)
    with pytest.raises(ValueError, match="alpha"):
        range_condition_defect(op, inst, 0.0)


# -- certified estimates -------------------------------------------------------

@pytest.mark.parametrize("kind", ["quadratic", "l1", "tv"])
def test_error_and_effective_estimates_hold(kind):
    reg = {"quadratic": quadratic(), "l1": l1(), "tv": tv_aniso(8)}[kind]
    rng = substream(4, f"est-{kind}")
    for seed in range(5):
        op = make_random_dense(12, 8, seed=6000 + seed)
        inst = construct_source_instance(op, reg, seed=seed)
        for sigma in (0.0, 0.05):
            v = inst.v_star + sigma * rng.standard_normal(12)
            for alpha in (0.05, 0.3):
                err = check_error_estimate(op, reg, inst, v, alpha, TIGHT)
                eff = check_effective_estimate(op, reg, inst, v, alpha, TIGHT)
                assert err.holds and eff.holds
                assert err.slack >= -err.components["headroom"]
                # arithmetic of the reported sides
                noise_sq = np.linalg.norm(v - inst.v_star) ** 2
                z_sq = inst.source_norm ** 2
                assert abs(err.rhs - (noise_sq + alpha**2 * z_sq)) <= 1e-12 * (1 + err.rhs)
                assert abs(eff.rhs - (noise_sq / alpha + alpha * z_sq)) <= 1e-12 * (1 + eff.rhs)


def test_estimates_accept_precomputed_solution():
    op = make_random_dense(10, 6, seed=8)
    reg = quadratic()
    inst = construct_source_instance(op, reg, seed=3)
    v = inst.v_star
    sol = solve_variational(op, v, 0.2, reg, TIGHT)
    a = check_error_estimate(op, reg, inst, v, 0.2, TIGHT, solution=sol)
    b = check_error_estimate(op, reg, inst, v, 0.2, TIGHT)
    assert a.lhs == b.lhs and a.rhs == b.rhs


def test_effective_estimate_reports_optimal_alpha():
    op = make_random_dense(10, 6, seed=9)
    inst = construct_source_instance(op, quadratic(), seed=5)
    g = substream(5, "noise").standard_normal(10)
    delta = 0.05
    v = inst.v_star + delta * g / np.linalg.norm(g)
    rep = check_effective_estimate(op, quadratic(), inst, v, 0.1, TIGHT)
    expect = delta / inst.source_norm
    assert abs(rep.components["optimal_alpha"] - expect) <= 1e-10 * (1.0 + expect)
    # at the optimal alpha the bound collapses to 2*delta*||z*||
    at_opt = check_effective_estimate(op, quadratic(), inst, v, expect, TIGHT)
    assert abs(at_opt.rhs - 2.0 * delta * inst.source_norm) <= 1e-10


def test_estimates_reject_loose_certificates():
    op = make_random_dense(10, 6, seed=10)
    inst = construct_source_instance(op, quadratic(), seed=7)
    dz = op.apply(np.eye(6)[0])
    dz *= 1e-3 / np.linalg.norm(op.adjoint(dz))   # ||F* z - p*|| = 1e-3
    loose = SourceInstance(u_star=inst.u_star, p_star=inst.p_star,
                           z_star=inst.z_star + dz, v_star=inst.v_star)
    with pytest.raises(ValueError, match="too loose"):
        check_error_estimate(op, quadratic(), loose, inst.v_star, 0.1, TIGHT)


def test_instance_is_checked_on_the_operator_it_certifies(monkeypatch):
    # an l1 instance drawn for one operator: on another, ||F* z* - p*|| is O(1)
    # and every certificate refuses it before solving anything
    op = make_random_dense(24, 16, seed=1)
    other = make_random_dense(24, 16, seed=2)
    inst = construct_source_instance(op, l1(), seed=0)
    assert np.linalg.norm(other.adjoint(inst.z_star) - inst.p_star.p) > 1.0
    pair = build_risk_pair(other, inst.u_star, draw_design(other.out_dim, 12, 0.0, seed=1))

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the instance was checked")

    monkeypatch.setattr(estimates, "solve_variational", no_solve)
    monkeypatch.setattr(estimates, "solve_columns", no_solve)
    data = other.apply(inst.u_star)
    for certify in (
        lambda: check_error_estimate(other, l1(), inst, data, 0.1),
        lambda: check_effective_estimate(other, l1(), inst, data, 0.1),
        lambda: convergence_study(other, l1(), inst, [0.1, 0.05], [0.1, 0.05]),
        lambda: bias_variance_study(other, l1(), inst, 0.05, [0.1, 0.5], 2),
        lambda: check_operator_error_estimate(pair, l1(), inst, 0.1),
    ):
        with pytest.raises(ValueError, match=r"defect \|\|F\* z\* - p\*\|\|"):
            certify()


def _count_probes_at(monkeypatch, u_star):
    """A list that grows by one for each membership probe at ``u_star``."""
    calls = []
    real = regularizers.is_subgradient

    def counting(reg, u, p, *args, **kwargs):
        if np.may_share_memory(u, u_star):
            calls.append(reg.kind)
        return real(reg, u, p, *args, **kwargs)

    monkeypatch.setattr(regularizers, "is_subgradient", counting)
    return calls


@pytest.mark.parametrize("kind", ["quadratic", "l1", "tv"])
def test_drawn_instance_is_not_probed_again(kind, monkeypatch):
    # acceptance 4's shape: a drawn instance, 3 noise levels, both estimates per
    # solve; construction certified p* in dJ(u*), so no estimate probes it again
    cfg = SolverConfig(tol=1e-10)
    op = make_random_dense(14, 10, seed=4003)
    reg = {"quadratic": quadratic(), "l1": l1(), "tv": tv_aniso(10)}[kind]
    inst = construct_source_instance(op, reg, seed=3)
    calls = _count_probes_at(monkeypatch, inst.u_star)
    e = substream(3, "probes").standard_normal(op.out_dim)
    for sigma in (0.0, 0.01, 0.1):
        v = inst.v_star + sigma * e
        sol = solve_variational(op, v, 0.2, reg, cfg)
        assert check_error_estimate(op, reg, inst, v, 0.2, cfg, solution=sol).holds
        assert check_effective_estimate(op, reg, inst, v, 0.2, cfg, solution=sol).holds
    assert calls == []
    # a hand-built copy is probed once, on first use
    copy = SourceInstance(u_star=inst.u_star, p_star=inst.p_star, z_star=inst.z_star, v_star=inst.v_star)
    calls = _count_probes_at(monkeypatch, copy.u_star)
    for _ in range(3):
        assert check_effective_estimate(op, reg, copy, inst.v_star, 0.2, cfg).holds
    assert calls == [reg.kind]


def test_bad_hand_built_instance_fails_on_first_use():
    # u* with its signs flipped on the support: p* = F* z* still holds exactly,
    # but p* is no subgradient of l1 at u*, and every certificate says so
    op = make_random_dense(24, 16, seed=1)
    pop = population_map(op)
    inst = construct_source_instance(pop, l1(), seed=0)
    u_bad = -inst.u_star
    bad = SourceInstance(u_star=u_bad, p_star=inst.p_star, z_star=inst.z_star, v_star=pop.apply(u_bad))
    pair = build_risk_pair(op, u_bad, draw_design(op.out_dim, 12, 0.0, seed=1))
    assert pair.population_map is pop
    for certify in (
        lambda: check_error_estimate(pop, l1(), bad, bad.v_star, 0.1),
        lambda: check_effective_estimate(pop, l1(), bad, bad.v_star, 0.1),
        lambda: convergence_study(pop, l1(), bad, [0.1, 0.05], [0.1, 0.05]),
        lambda: bias_variance_study(pop, l1(), bad, 0.05, [0.1, 0.5], 2),
        lambda: check_operator_error_estimate(pair, l1(), bad, 0.1),
    ):
        with pytest.raises(SubgradientError, match=r"^p\* is not a subgradient"):
            certify()


def test_instance_is_certified_again_for_another_regularizer(monkeypatch):
    op = make_random_dense(24, 16, seed=1)
    inst = construct_source_instance(op, l1(), seed=0)
    calls = _count_probes_at(monkeypatch, inst.u_star)
    assert check_error_estimate(op, l1(), inst, inst.v_star, 0.1).holds
    assert calls == []
    with pytest.raises(SubgradientError, match=r"^p\* is not a subgradient"):
        check_error_estimate(op, quadratic(), inst, inst.v_star, 0.1)
    assert calls == ["quadratic"]


def test_source_instance_is_immutable():
    op = make_random_dense(14, 10, seed=5)
    drawn = construct_source_instance(op, tv_aniso(10), seed=1)
    given = [a.copy() for a in (drawn.u_star, drawn.z_star, drawn.v_star, drawn.p_star.p, drawn.p_star.dual)]
    kept = [a.copy() for a in given]
    u, z, v, p, q = given
    inst = SourceInstance(u_star=u, p_star=regularizers.Subgradient(p=p, dual=q), z_star=z, v_star=v)
    arrays = (inst.u_star, inst.z_star, inst.v_star, inst.p_star.p, inst.p_star.dual)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.u_star = u
    # the caller's arrays stay writable and unchanged, and writing into them
    # does not reach the instance
    for a, b in zip(given, kept):
        assert a.flags.writeable
        np.testing.assert_array_equal(a, b)
        a += 1.0
    for a, b in zip(arrays, kept):
        np.testing.assert_array_equal(a, b)
    assert check_error_estimate(op, tv_aniso(10), inst, inst.v_star, 0.1).holds


def _record_probes(monkeypatch):
    """A list that grows by (kind, u) for each membership probe."""
    calls = []
    real = regularizers.is_subgradient

    def recording(reg, u, p, *args, **kwargs):
        calls.append((reg.kind, u))
        return real(reg, u, p, *args, **kwargs)

    monkeypatch.setattr(regularizers, "is_subgradient", recording)
    return calls


def _probed_at(calls, point):
    return [kind for kind, u in calls if np.may_share_memory(u, point)]


@pytest.mark.parametrize("kind", ["quadratic", "l1", "tv"])
def test_solution_is_probed_once_for_both_estimates(kind, monkeypatch):
    # acceptance 4's shape: one solve per noise level, both estimates on it; the
    # instance was certified when drawn, and each solution's p_tilde is probed once
    cfg = SolverConfig(tol=1e-10)
    op = make_random_dense(14, 10, seed=4003)
    reg = {"quadratic": quadratic(), "l1": l1(), "tv": tv_aniso(10)}[kind]
    inst = construct_source_instance(op, reg, seed=3)
    calls = _record_probes(monkeypatch)
    e = substream(3, "probes").standard_normal(op.out_dim)
    sols = []
    for sigma in (0.0, 0.01, 0.1):
        v = inst.v_star + sigma * e
        sols.append(sol := solve_variational(op, v, 0.2, reg, cfg))
        assert check_error_estimate(op, reg, inst, v, 0.2, cfg, solution=sol).holds
        assert check_effective_estimate(op, reg, inst, v, 0.2, cfg, solution=sol).holds
        assert check_error_estimate(op, reg, inst, v, 0.2, cfg, solution=sol).holds
    assert len(calls) == 3
    assert [_probed_at(calls, sol.u_alpha) for sol in sols] == [[reg.kind]] * 3


def test_solution_is_probed_again_for_another_regularizer(monkeypatch):
    op = make_random_dense(24, 16, seed=1)
    inst = construct_source_instance(op, l1(), seed=0)
    sol = solve_variational(op, inst.v_star, 0.1, l1())
    calls = _record_probes(monkeypatch)
    assert check_error_estimate(op, l1(), inst, inst.v_star, 0.1, solution=sol).holds
    assert check_effective_estimate(op, l1(), inst, inst.v_star, 0.1, solution=sol).holds
    assert _probed_at(calls, sol.u_alpha) == ["l1"]
    # an l1 subgradient is no quadratic one; a failed probe records nothing
    for _ in range(2):
        with pytest.raises(SubgradientError, match=r"^p_tilde is not a subgradient"):
            estimates._distances_to_instance(quadratic(), inst, sol)
    assert _probed_at(calls, sol.u_alpha) == ["l1", "quadratic", "quadratic"]


def test_bad_hand_built_solution_fails_on_first_use(monkeypatch):
    op = make_random_dense(24, 16, seed=1)
    inst = construct_source_instance(op, l1(), seed=0)
    sol = solve_variational(op, inst.v_star, 0.1, l1())
    fields = (sol.alpha, sol.data_residual, sol.J_value, sol.optimality_defect, sol.iterations)
    bad = solvers.RegularizedSolution(sol.u_alpha, regularizers.Subgradient(-sol.p_alpha.p), *fields)
    for certify in (
        lambda: check_error_estimate(op, l1(), inst, inst.v_star, 0.1, solution=bad),
        lambda: check_effective_estimate(op, l1(), inst, inst.v_star, 0.1, solution=bad),
    ):
        with pytest.raises(SubgradientError, match=r"^p_tilde is not a subgradient"):
            certify()
    # a hand-built copy of a good solution is probed once, on first use
    good = solvers.RegularizedSolution(sol.u_alpha, sol.p_alpha, *fields)
    calls = _record_probes(monkeypatch)
    for _ in range(3):
        assert check_effective_estimate(op, l1(), inst, inst.v_star, 0.1, solution=good).holds
    assert _probed_at(calls, good.u_alpha) == ["l1"]


def test_regularized_solution_is_immutable():
    op = make_random_dense(14, 10, seed=5)
    sol = solve_variational(op, op.apply(np.arange(10.0)), 0.1, tv_aniso(10))
    given = [a.copy() for a in (sol.u_alpha, sol.p_alpha.p, sol.p_alpha.dual)]
    kept = [a.copy() for a in given]
    u, p, q = given
    fields = (sol.alpha, sol.data_residual, sol.J_value, sol.optimality_defect, sol.iterations)
    made = solvers.RegularizedSolution(u, regularizers.Subgradient(p, q), *fields)
    arrays = (made.u_alpha, made.p_alpha.p, made.p_alpha.dual)
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        made.u_alpha = u
    # the caller's arrays stay writable and unchanged, and writing into them
    # does not reach the solution
    for a, b in zip(given, kept):
        assert a.flags.writeable
        np.testing.assert_array_equal(a, b)
        a += 1.0
    for a, b in zip(arrays, kept):
        np.testing.assert_array_equal(a, b)
    # a block solution's per-column fields are read-only too, its iterations still integers
    block = solvers.solve_columns(op, np.repeat(op.apply(np.arange(10.0))[:, None], 2, axis=1),
                                  np.array([0.1, 0.2]), l1())
    for a in (block.u_alpha, block.p_alpha.p, block.alpha, block.data_residual, block.J_value,
              block.optimality_defect, block.iterations):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1
    assert block.iterations.dtype.kind == "i"


@pytest.mark.parametrize("alpha, solved_at", [(0.1, 0.3), (0.3, 0.1), (0.05, 1.0)])
def test_estimates_reject_a_solution_not_at_alpha(alpha, solved_at):
    # a solution at another alpha, or a block's, is not u_alpha: each estimate names it
    op = make_random_dense(24, 16, seed=1)
    inst = construct_source_instance(op, quadratic(), seed=0)
    eta = substream(1, "eta").standard_normal(16)
    u_star = op.adjoint(op.apply(eta))
    v = inst.v_star + 0.01 * substream(2, "noise").standard_normal(24)
    wrong = solve_variational(op, v, solved_at, quadratic())
    block = solvers.solve_columns(op, np.repeat(v[:, None], 2, axis=1), np.array([alpha, alpha]), quadratic())
    for bad in (wrong, block):
        for check in (
            lambda: check_error_estimate(op, quadratic(), inst, v, alpha, solution=bad),
            lambda: check_effective_estimate(op, quadratic(), inst, v, alpha, solution=bad),
            lambda: check_higher_order_estimate(op, quadratic(), u_star, eta, v, alpha, solution=bad),
        ):
            with pytest.raises(ValueError, match="^solution has u_alpha of shape"):
                check()
    right = solve_variational(op, v, alpha, quadratic())
    assert check_error_estimate(op, quadratic(), inst, v, alpha, solution=right).holds


def test_solver_exit_freezes_copies_of_its_arrays():
    # a solver's exit builds its solution as any caller does: the solution holds read-only copies,
    # a block's alphas included, and the arrays it was given stay writable
    u, p = np.arange(10.0), np.arange(10.0)
    sol = solvers._certified("CG", 1.0, u, p, 0.1, np.ones(14), quadratic(), 0.0, 3)
    assert sol.u_alpha is not u and not sol.u_alpha.flags.writeable and u.flags.writeable
    assert sol.p_alpha.p is not p and not sol.p_alpha.p.flags.writeable and p.flags.writeable
    op = make_random_dense(14, 10, seed=5)
    alphas = np.array([0.1, 0.2])
    block = solvers.solve_columns(op, np.repeat(op.apply(np.arange(10.0))[:, None], 2, axis=1), alphas, l1())
    assert alphas.flags.writeable and not block.alpha.flags.writeable
    alphas[0] = 0.5
    assert block.alpha[0] == 0.1


def test_higher_order_quadratic_matches_closed_form():
    rng = substream(6, "high")
    op = make_random_dense(12, 8, seed=13)
    reg = quadratic()
    eta = rng.standard_normal(8)
    u_star = op.adjoint(op.apply(eta))   # p* = F*F eta* equals u* here
    v_star = op.apply(u_star)
    noise = rng.standard_normal(12)
    noise *= 0.01 / np.linalg.norm(noise)
    for alpha in (0.05, 0.2):
        rep = check_higher_order_estimate(op, reg, u_star, eta, v_star + noise, alpha, TIGHT)
        assert rep.holds
        closed = 0.5 * alpha**2 * np.dot(eta, eta)
        assert abs(rep.components["first_term"] - closed) <= 1e-9 * (1.0 + closed)
        assert abs(rep.components["first_term_closed_form"] - closed) <= 1e-12


def test_higher_order_l1_zero_first_term_below_threshold():
    op = make_random_dense(14, 9, seed=17)
    reg = l1()
    inst = construct_source_instance(op, reg, seed=2)
    S = np.flatnonzero(np.abs(inst.u_star) > 0)
    gram = op.matrix.T @ op.matrix
    eta = np.zeros(9)
    eta[S] = np.linalg.solve(gram[np.ix_(S, S)], np.sign(inst.u_star[S]))
    assert np.max(np.abs(np.delete(gram @ eta, S))) <= 1.0 - 1e-6
    threshold = np.min(np.abs(inst.u_star[S])) / np.max(np.abs(eta[S]))
    alpha = 0.5 * min(threshold, 0.2)
    rep = check_higher_order_estimate(op, reg, inst.u_star, eta,
                                      inst.v_star, alpha, TIGHT)
    assert rep.holds
    assert rep.components["first_term"] == 0.0
    assert rep.components["support_preserved"]
    assert rep.components["sign_safe_alpha"] > 0.0
    # pushing alpha past the sign-flip threshold costs a positive first term
    rep_big = check_higher_order_estimate(op, reg, inst.u_star, eta,
                                          inst.v_star, 2.0 * threshold, TIGHT)
    assert rep_big.components["first_term"] > 0.0


def test_higher_order_rejects_invalid_eta():
    op = make_random_dense(12, 8, seed=19)
    inst = construct_source_instance(op, l1(), seed=3)
    bad_eta = 100.0 * substream(7, "eta").standard_normal(8)
    with pytest.raises(SubgradientError):
        check_higher_order_estimate(op, l1(), inst.u_star, bad_eta,
                                    inst.v_star, 0.1, TIGHT)


# -- studies -------------------------------------------------------------------

def _scaled_instance(op, scale, inst):
    s = scale / np.linalg.norm(inst.z_star)
    from varreg.regularizers import Subgradient

    u = inst.u_star * s
    return SourceInstance(u_star=u, p_star=Subgradient(p=inst.p_star.p * s),
                          z_star=inst.z_star * s, v_star=inst.v_star * s)


def test_convergence_study_rate_regime():
    # geometric spectrum spanning the alpha range puts the study in the
    # ill-posed O(delta) regime: the per-halving decay ratio sits near 1/2
    sv = np.geomspace(1.0, 1e-4, 64)
    op = make_random_dense(80, 64, seed=17, singular_values=sv)
    reg = quadratic()
    inst = _scaled_instance(op, 0.3, construct_source_instance(op, reg, seed=5))
    deltas = 0.05 * 0.5 ** np.arange(9)
    rows = convergence_study(op, reg, inst, deltas, deltas, seed=3, config=TIGHT)
    assert all(r.holds for r in rows)
    d = np.array([r.bregman for r in rows])
    ratio = (d[-1] / d[0]) ** (1.0 / 8.0)
    assert 0.4 <= ratio <= 0.6
    assert abs(rows[-1].J_value - reg.value(inst.u_star)) <= 1e-4
    assert [r.n for r in rows] == list(range(9))


def test_convergence_study_flat_under_wrong_scaling():
    # negative control: alpha_n = delta_n^2 freezes the noise term at O(1),
    # so the distance plateaus instead of decaying at rate 1/2
    sv = np.geomspace(1.0, 1e-4, 64)
    op = make_random_dense(80, 64, seed=17, singular_values=sv)
    reg = quadratic()
    inst = _scaled_instance(op, 0.3, construct_source_instance(op, reg, seed=5))
    deltas = 0.05 * 0.5 ** np.arange(9)
    rows = convergence_study(op, reg, inst, deltas, deltas**2, seed=3, config=TIGHT)
    d = np.array([r.bregman for r in rows])
    assert (d[-1] / d[0]) ** (1.0 / 8.0) > 0.75


def test_convergence_study_validates_schedules():
    op = make_random_dense(8, 6, seed=1)
    inst = construct_source_instance(op, quadratic(), seed=1)
    with pytest.raises(ValueError, match="align"):
        convergence_study(op, quadratic(), inst, [0.1, 0.05], [0.1])


def test_bias_variance_study_noiseless_and_moments():
    op = make_random_dense(10, 6, seed=23)
    inst = construct_source_instance(op, quadratic(), seed=9)
    res = bias_variance_study(op, quadratic(), inst, 0.0, [0.05, 0.1], 5, config=TIGHT)
    assert res.noise_energy_mean == 0.0 and res.noise_energy_expected == 0.0
    for row in res.rows:
        # no noise: replicates coincide exactly and only the alpha-bias is left
        assert row.stderr == 0.0
        assert row.mean_bregman <= row.alpha * inst.source_norm**2 + 1e-10
        assert row.holds
    noisy = bias_variance_study(op, quadratic(), inst, 0.1, [0.1], 400, config=TIGHT)
    se = 0.1**2 * np.sqrt(2.0 * op.out_dim) / np.sqrt(400)  # sd of chi^2 mean
    assert abs(noisy.noise_energy_mean - noisy.noise_energy_expected) <= 4.0 * se


def test_bias_variance_study_interior_minimum():
    sv = np.geomspace(1.0, 0.05, 32)
    op = make_random_dense(48, 32, seed=11, singular_values=sv)
    inst = construct_source_instance(op, quadratic(), seed=7)
    sigma = 0.05
    a_star = np.sqrt(op.out_dim) * sigma / inst.source_norm
    alphas = np.geomspace(a_star / 8.0, a_star * 8.0, 8)
    res = bias_variance_study(op, quadratic(), inst, sigma, alphas, 100, seed=2,
                              config=SolverConfig(tol=1e-11, max_iters=100_000))
    means = [r.mean_bregman for r in res.rows]
    k = int(np.argmin(means))
    assert 0 < k < len(means) - 1
    assert res.argmin_alpha == res.rows[k].alpha
    assert all(r.holds for r in res.rows)


@pytest.mark.parametrize("means, expected", [
    ([0.5, 0.0, 0.0, 0.1], 0.4),       # exact tie: the larger alpha
    ([0.5, 0.0, 1e-17, 0.1], 0.4),     # a roundoff perturbation either way
    ([0.5, 1e-17, 0.0, 0.1], 0.4),     # does not flip the answer
    ([0.5, 0.0, 1e-6, 0.1], 0.2),      # a real difference still decides
], ids=["exact-tie", "perturbed-up", "perturbed-down", "distinct"])
def test_bias_variance_argmin_breaks_ties_toward_larger_alpha(monkeypatch, means, expected):
    calls = iter(means * 2)  # one pass over the alpha grid per replicate
    monkeypatch.setattr(estimates, "_clamp", lambda *args, **kwargs: next(calls))
    op = make_random_dense(8, 6, seed=29)
    inst = construct_source_instance(op, quadratic(), seed=0)
    res = bias_variance_study(op, quadratic(), inst, 0.0, [0.1, 0.2, 0.4, 0.8], 2)
    assert [r.mean_bregman for r in res.rows] == means
    assert res.argmin_alpha == expected


def test_bias_variance_study_needs_replicates():
    op = make_random_dense(8, 6, seed=29)
    inst = construct_source_instance(op, quadratic(), seed=0)
    with pytest.raises(ValueError, match="replicates"):
        bias_variance_study(op, quadratic(), inst, 0.1, [0.1], 1)


@pytest.mark.parametrize("replicates", [2.5, True])
def test_bias_variance_study_needs_an_integer_count_of_replicates(replicates):
    op = make_random_dense(8, 6, seed=29)
    inst = construct_source_instance(op, quadratic(), seed=0)
    with pytest.raises(ValueError, match="replicates must be an integer >= 2"):
        bias_variance_study(op, quadratic(), inst, 0.1, [0.1, 0.2], replicates)


def test_studies_reject_an_alpha_grid_that_is_not_1d():
    op = make_random_dense(8, 6, seed=29)
    inst = construct_source_instance(op, quadratic(), seed=0)
    with pytest.raises(ValueError, match=r"alpha grid must be 1-d.*\(1, 2\)"):
        bias_variance_study(op, quadratic(), inst, 0.1, [[0.1, 0.2]], 2)
    with pytest.raises(ValueError, match=r"alpha schedule must be 1-d.*\(\)"):
        convergence_study(op, quadratic(), inst, 0.1, 0.1)


def test_bias_variance_study_certifies_its_solutions_in_one_call(monkeypatch):
    # the default CLI study's shape: 16 replicates x 8 alphas, l1 on a 24 x 16
    # map; p* was certified when the instance was drawn, so the study certifies
    # only the 128 solutions' subgradients, in one block
    op, reg = make_random_dense(24, 16, seed=0), l1()
    inst = construct_source_instance(op, reg, seed=0)
    calls = []
    real = regularizers.is_subgradient

    def counting(reg, u, p, *args, **kwargs):
        calls.append(np.shape(u))
        return real(reg, u, p, *args, **kwargs)

    monkeypatch.setattr(regularizers, "is_subgradient", counting)
    res = bias_variance_study(op, reg, inst, 0.05, np.geomspace(1e-3, 1.0, 8), 16)
    assert all(r.holds for r in res.rows)
    assert calls == [(16, 128)]


def test_distances_to_instance_name_the_first_failing_column():
    op, reg = make_random_dense(24, 16, seed=0), l1()
    inst = construct_source_instance(op, reg, seed=0)
    sol = solvers.solve_columns(op, np.repeat(inst.v_star[:, None], 6, axis=1), np.full(6, 0.1), reg)
    assert estimates._distances_to_instance(reg, inst, sol).shape == (6,)
    p = sol.p_alpha.p.copy()
    p[:, [3, 5]] += 0.5
    bad = dataclasses.replace(sol, p_alpha=regularizers.Subgradient(p))
    with pytest.raises(SubgradientError, match="p_tilde of column 3 is not a subgradient"):
        estimates._distances_to_instance(reg, inst, bad)


@pytest.mark.parametrize("kind", ["quadratic", "l1", "tv_aniso"])
def test_studies_solve_through_one_block_call(kind, monkeypatch):
    # the benchmark's tracer reads ``iterations`` as one count from the three
    # vector solvers, so a study's block solution must never pass through them
    op = make_random_dense(12, 8, seed=4)
    reg = {"quadratic": quadratic(), "l1": l1(), "tv_aniso": tv_aniso(8)}[kind]
    inst = construct_source_instance(op, reg, seed=0)

    def no_solve(*args, **kwargs):
        raise AssertionError("a study called a vector solver")

    for name in ("solve_variational", "solve_tikhonov_exact", "solve_fista", "solve_primal_dual"):
        monkeypatch.setattr(solvers, name, no_solve)
    monkeypatch.setattr(estimates, "solve_variational", no_solve)
    blocks = []
    real = solvers.solve_columns

    def counting(op, data, *args, **kwargs):
        blocks.append(np.shape(data))
        return real(op, data, *args, **kwargs)

    monkeypatch.setattr(estimates, "solve_columns", counting)
    bias_variance_study(op, reg, inst, 0.05, np.geomspace(1e-2, 1.0, 4), 3)
    convergence_study(op, reg, inst, [0.1, 0.05], [0.1, 0.05])
    assert blocks == [(12, 12), (12, 2)]


def test_studies_reject_an_empty_alpha_grid():
    op = make_random_dense(8, 6, seed=29)
    inst = construct_source_instance(op, quadratic(), seed=0)
    with pytest.raises(ValueError, match="empty"):
        bias_variance_study(op, quadratic(), inst, 0.1, [], 2)
    with pytest.raises(ValueError, match="empty"):
        convergence_study(op, quadratic(), inst, [], [])


# a zero alpha would divide a bound by zero, and a NaN or infinite one leave it not finite: each is named as
# the alpha it is, before any bound is formed, not blamed on noise_sigma
BAD_GRIDS = {"negative-alpha": [0.1, -1.0], "infinite-alpha": [0.1, np.inf], "nan-alpha": [0.1, np.nan],
             "zero-alpha": [0.0, 0.1], "nan-first": [np.nan, 0.1], "infinite-only": [np.inf]}


def _no_solves(monkeypatch):
    """A list that grows by one entry for each solve started, and the problem of the studies below. The spies
    sit on the three solver cores, which every entry point reaches (a study through ``solve_columns``)."""
    op = make_random_dense(8, 6, seed=29)
    inst = construct_source_instance(op, quadratic(), seed=0)
    solved = []
    for core in ("_tikhonov", "_fista", "_primal_dual"):
        monkeypatch.setattr(solvers, core, lambda *args, **kwargs: solved.append(args))
    return solved, op, inst


@pytest.mark.parametrize("sigma, alphas, match", [(0.1, grid, "^alpha must be positive and finite")
                                                  for grid in BAD_GRIDS.values()] + [
    (np.nan, [0.1, 0.2], "noise_sigma"), (np.inf, [0.1, 0.2], "noise_sigma"), (-0.1, [0.1, 0.2], "noise_sigma")],
    ids=list(BAD_GRIDS) + ["nan-sigma", "infinite-sigma", "negative-sigma"])
def test_bias_variance_study_checks_its_inputs_before_solving(monkeypatch, sigma, alphas, match):
    solved, op, inst = _no_solves(monkeypatch)
    with pytest.raises(ValueError, match=match):
        bias_variance_study(op, quadratic(), inst, sigma, alphas, 2)
    assert solved == []


def test_bias_variance_study_refuses_a_noise_energy_that_overflows(monkeypatch):
    solved, op, inst = _no_solves(monkeypatch)
    with pytest.raises(ValueError, match="noise_sigma"):
        bias_variance_study(op, quadratic(), inst, 1e300, [0.1, 0.2], 2)
    assert solved == []


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bias_variance_study_refuses_a_bound_that_overflows(monkeypatch):
    # 8*sigma^2 = 8e306 is finite, but m*sigma^2/alpha at alpha = 0.01 is not: a bound of inf would certify anything
    solved, op, inst = _no_solves(monkeypatch)
    with pytest.raises(ValueError, match="noise_sigma 1e\\+153 .* not finite"):
        bias_variance_study(op, quadratic(), inst, 1e153, [0.01, 0.2], 2)
    assert solved == []

@pytest.mark.parametrize("alphas", BAD_GRIDS.values(), ids=list(BAD_GRIDS))
def test_convergence_study_checks_its_alphas_before_solving(monkeypatch, alphas):
    solved, op, inst = _no_solves(monkeypatch)
    with pytest.raises(ValueError, match="^alpha must be positive and finite"):
        convergence_study(op, quadratic(), inst, np.full(len(alphas), 0.1), alphas)
    assert solved == []


# -- the CLI's default TV problem ------------------------------------------------

def _cli_default_problem(kind, seed):
    """The CLI's default operator, regularizer ``kind``, solver settings and source instance at ``seed``."""
    conf = cli.load_config(None, [f"regularizer.kind={kind}"])
    op = cli.build_operator(conf, seed)
    reg = cli.build_regularizer(conf, op)
    return conf, op, reg, cli.solver_config(conf, seed), construct_source_instance(op, reg, seed)


@pytest.mark.parametrize("seed", [0, 13])
def test_tv_bias_variance_study_certifies_at_cli_defaults(seed):
    # seed 0 has a symmetric distance of -1.4e-8, inside its eps-slack, and seed 13 a
    # p_tilde whose edge dual is not the sign of a jump of about 1e-7
    conf, op, reg, cfg, instance = _cli_default_problem("tv_aniso", seed)
    sec = conf["bias_variance"]
    alphas = np.geomspace(sec.getfloat("alpha_min"), sec.getfloat("alpha_max"), sec.getint("n_alphas"))
    result = bias_variance_study(op, reg, instance, sec.getfloat("sigma"), alphas, sec.getint("replicates"),
                                 seed=seed, config=cfg)
    assert all(r.holds for r in result.rows)


def test_tv_convergence_study_certifies_at_cli_defaults():
    # seed 70 has a symmetric distance of -4.3e-8, inside its eps-slack
    seed = 70
    conf, op, reg, cfg, instance = _cli_default_problem("tv_aniso", seed)
    sec = conf["convergence"]
    deltas = sec.getfloat("delta0") * sec.getfloat("decay") ** np.arange(sec.getint("steps"))
    rows = convergence_study(op, reg, instance, deltas, sec.getfloat("alpha_over_delta") * deltas,
                             seed=seed, config=cfg)
    assert all(r.holds for r in rows)


def test_l1_convergence_study_at_a_subnormal_alpha():
    # alpha ~ 1e-311 puts FISTA's threshold far below ulp(x_pre), where (x_pre - u)/thresh
    # loses sign(u) on the support (a violation of 1.0); the certifying p keeps it
    conf, op, reg, cfg, instance = _cli_default_problem("l1", 0)
    deltas = 1e-3 * 0.5 ** np.arange(3)  # small enough that delta^2/alpha stays finite
    rows = convergence_study(op, reg, instance, deltas, 1e-308 * deltas, config=cfg)
    assert rows[0].alpha == 1e-311
    assert all(r.holds for r in rows)
