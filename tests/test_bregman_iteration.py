import numpy as np
import pytest

from varreg import (
    SolverConfig,
    SolverError,
    bregman_iterate,
    construct_source_instance,
    debias_two_step,
    identity_map,
    is_subgradient,
    l1,
    make_convolution,
    make_dense,
    make_random_dense,
    quadratic,
    solve_variational,
    substream,
    tv_aniso,
)
from varreg import bregman_iteration
from varreg.core import _power_iteration, accelerated_projected_gradient, norm
from varreg.regularizers import bregman_distance


def test_scalar_recursion_closed_form():
    # F = id, v = 1, alpha = 1, quadratic J: u^k = 1 - 2^{-k}
    trace = bregman_iterate(identity_map(1), [1.0], 1.0, quadratic(), 20,
                            SolverConfig(tol=1e-12))
    for step in trace.steps:
        assert abs(step.u[0] - (1.0 - 0.5 ** step.k)) <= 1e-10


def test_single_step_equals_plain_solve():
    rng = substream(0, "breg")
    op = make_dense(rng.standard_normal((6, 4)))
    v = rng.standard_normal(6)
    cfg = SolverConfig(tol=1e-9)
    trace = bregman_iterate(op, v, 0.3, l1(), 1, cfg)
    from dataclasses import replace

    direct = solve_variational(op, v, 0.3, l1(), replace(cfg, tol=cfg.tol / 10.0))
    np.testing.assert_array_equal(trace.steps[0].u, direct.u_alpha)


def test_iterates_reach_pseudoinverse():
    # underdetermined quadratic: iterates converge to the least-norm solution,
    # with the residual contracting by exactly 1/3 per step at alpha = 1
    op = make_dense(np.array([[1.0, 1.0]]))
    v = np.array([2.0])
    trace = bregman_iterate(op, v, 1.0, quadratic(), 25, SolverConfig(tol=1e-12))
    pinv = np.linalg.pinv(op.matrix) @ v
    np.testing.assert_allclose(trace.steps[-1].u, pinv, atol=1e-6)
    res = [s.data_residual for s in trace.steps]
    for a, b in zip(res, res[1:]):
        if a > 1e-10:
            assert abs(b / a - 1.0 / 3.0) <= 1e-6


@pytest.mark.parametrize("kind", ["quadratic", "l1", "tv"])
def test_residual_monotone_and_certified(kind):
    reg = {"quadratic": quadratic(), "l1": l1(), "tv": tv_aniso(6)}[kind]
    rng = substream(1, f"mono-{kind}")
    trials = 10 if kind == "tv" else 20
    for trial in range(trials):
        op = make_random_dense(9, 6, seed=3000 + trial)
        v = rng.standard_normal(9)
        trace = bregman_iterate(op, v, 0.4, reg, 4, SolverConfig(tol=1e-9))
        res = [s.data_residual for s in trace.steps]
        for a, b in zip(res, res[1:]):
            assert b <= a + 1e-9 * (1.0 + a)
        for step in trace.steps:
            assert step.recursion_defect <= 1e-7
            assert is_subgradient(reg, step.u, step.p, tol=1e-5).ok


def test_bregman_to_reference_monotone_for_consistent_data():
    op = make_random_dense(10, 6, seed=7)
    reg = quadratic()
    inst = construct_source_instance(op, reg, seed=2)
    trace = bregman_iterate(op, op.apply(inst.u_star), 0.5, reg, 8,
                            SolverConfig(tol=1e-11), reference=inst.u_star)
    dists = [s.bregman_to_ref for s in trace.steps]
    for a, b in zip(dists, dists[1:]):
        assert b <= a + 1e-9 * (1.0 + a)


def test_shifted_data_recursion_as_stored():
    rng = substream(2, "shift")
    op = make_dense(rng.standard_normal((5, 3)))
    v = rng.standard_normal(5)
    trace = bregman_iterate(op, v, 0.7, quadratic(), 5, SolverConfig(tol=1e-10))
    prev = v
    for step in trace.steps:
        np.testing.assert_array_equal(step.v_shifted, prev + (v - op.apply(step.u)))
        prev = step.v_shifted


def test_each_step_forms_f_u_once(monkeypatch):
    # outside the inner solve a step makes one forward product, F u^k, and
    # two adjoint ones: the dual recursion and the optimality subgradient
    op = make_random_dense(9, 6, seed=4)
    v = substream(5, "count").standard_normal(9)
    calls = {"_apply": 0, "_adjoint": 0}
    for name in calls:
        def counting(x, real=getattr(op, name), name=name):
            calls[name] += 1
            return real(x)

        monkeypatch.setattr(op, name, counting)
    inner = {"_apply": 0, "_adjoint": 0}

    def counted_solve(*args, **kwargs):
        before = dict(calls)
        sol = solve_variational(*args, **kwargs)
        for name in inner:
            inner[name] += calls[name] - before[name]
        return sol

    monkeypatch.setattr(bregman_iteration, "solve_variational", counted_solve)
    trace = bregman_iterate(op, v, 0.5, quadratic(), 4, SolverConfig(tol=1e-10))
    steps = len(trace.steps)
    assert steps == 4
    assert calls["_apply"] - inner["_apply"] == steps
    assert calls["_adjoint"] - inner["_adjoint"] == 2 * steps


def test_discrepancy_principle_stops_early():
    op = make_random_dense(12, 8, seed=5)
    inst = construct_source_instance(op, quadratic(), seed=1)
    rng = substream(3, "disc")
    noise = rng.standard_normal(12)
    noise *= 0.05 / np.linalg.norm(noise)
    v = op.apply(inst.u_star) + noise
    trace = bregman_iterate(op, v, 1.0, quadratic(), 50, SolverConfig(tol=1e-11),
                            noise_level=0.05)
    assert trace.stopped_by_discrepancy
    assert len(trace.steps) < 50
    assert trace.steps[-1].data_residual <= 1.1 * 0.05
    # every earlier step was still above the threshold
    for step in trace.steps[:-1]:
        assert step.data_residual > 1.1 * 0.05


def test_trace_rows_layout():
    trace = bregman_iterate(identity_map(2), [1.0, -1.0], 1.0, quadratic(), 3)
    rows = trace.rows()
    assert [r[0] for r in rows] == [1, 2, 3]
    assert all(len(r) == 4 for r in rows)
    assert all(r[3] is None for r in rows)  # no reference supplied


def test_inner_solver_failure_is_reported():
    op = make_random_dense(8, 6, seed=11)
    v = substream(4, "fail").standard_normal(8)
    with pytest.raises(SolverError, match="inner solve failed"):
        bregman_iterate(op, v, 0.1, l1(), 3, SolverConfig(max_iters=2, tol=1e-14))
    with pytest.raises(ValueError, match="n_iters"):
        bregman_iterate(op, v, 0.1, l1(), 0)


@pytest.mark.parametrize("kwargs, name", [
    (dict(n_iters=True), "n_iters"),
    (dict(n_iters=2.5), "n_iters"),
    (dict(n_iters=np.int64(0)), "n_iters"),
    (dict(discrepancy_factor=-1.0), "discrepancy_factor"),
    (dict(discrepancy_factor=0.5), "discrepancy_factor"),
    (dict(discrepancy_factor=float("nan")), "discrepancy_factor"),
    (dict(discrepancy_factor=float("inf")), "discrepancy_factor"),
    (dict(noise_level=-1.0), "noise_level"),
    (dict(noise_level=float("nan")), "noise_level"),
    (dict(noise_level=float("inf")), "noise_level"),
], ids=["n-iters-bool", "n-iters-float", "n-iters-zero", "factor-negative", "factor-below-one",
        "factor-nan", "factor-inf", "noise-negative", "noise-nan", "noise-inf"])
def test_bregman_iterate_rejects_bad_arguments(kwargs, name):
    args = dict(n_iters=3, noise_level=0.1, discrepancy_factor=1.1) | kwargs
    with pytest.raises(ValueError, match=name):
        bregman_iterate(identity_map(2), [1.0, -1.0], 1.0, quadratic(), args.pop("n_iters"), **args)


def test_bregman_iterate_accepts_boundary_arguments():
    # a factor of exactly 1, a zero noise level and a numpy integer count are valid
    trace = bregman_iterate(identity_map(2), [1.0, -1.0], 1.0, quadratic(), np.int64(2),
                            noise_level=0.0, discrepancy_factor=1.0)
    assert len(trace.steps) == 2 and not trace.stopped_by_discrepancy


def test_debias_identity_example():
    # step one soft-thresholds [2, 0.5] at alpha=1 to [1, 0]; the sign-safe
    # refit on the recovered support restores the data value exactly
    res = debias_two_step(identity_map(2), [2.0, 0.5], 1.0, l1(),
                          SolverConfig(tol=1e-11))
    np.testing.assert_allclose(res.step_one.u_alpha, [1.0, 0.0], atol=1e-9)
    np.testing.assert_array_equal(res.support, [True, False])
    np.testing.assert_allclose(res.u_debiased, [2.0, 0.0], atol=1e-8)
    assert res.data_residual <= res.step_one.data_residual + 1e-12
    assert res.bregman_to_step_one <= 1e-10


def test_debias_recovers_noiseless_source():
    for seed in range(10):
        op = make_random_dense(12, 8, seed=4000 + seed)
        inst = construct_source_instance(op, l1(), seed=seed)
        res = debias_two_step(op, inst.v_star, 0.05, l1(), SolverConfig(tol=1e-12))
        true_support = np.abs(inst.u_star) > 0
        np.testing.assert_array_equal(res.support, true_support)
        np.testing.assert_allclose(res.u_debiased, inst.u_star, atol=1e-8)
        assert res.data_residual <= res.step_one.data_residual + 1e-10
        assert res.bregman_to_step_one <= 1e-8


def test_debias_empty_support():
    res = debias_two_step(identity_map(3), np.zeros(3), 0.5, l1())
    assert res.empty_support
    np.testing.assert_array_equal(res.u_debiased, np.zeros(3))
    assert res.data_residual == 0.0
    assert res.iterations == 0


def _reference_debias(op, v, alpha, cfg):
    """The refit as it was before it ran on the support's own columns: FISTA on the full map through an
    embed/gather pair, its Lipschitz constant from a power iteration on the restricted normal operator.
    Returns (u_debiased, support, empty_support, data_residual, bregman_to_step_one, iterations)."""
    reg = l1()
    sol = bregman_iteration.solve_fista(op, v, alpha, reg, cfg)
    support = sol.u_alpha != 0.0
    if not np.any(support):
        return np.zeros(op.in_dim), support, True, 0.5 * norm(v) ** 2, 0.0, 0
    signs = np.sign(sol.u_alpha[support])
    idx = np.flatnonzero(support)
    fwd, adj = op._apply, op._adjoint

    def embed(x):
        full = np.zeros(op.in_dim)
        full[idx] = x
        return full

    sigma = _power_iteration(lambda x: fwd(embed(x)), lambda y: adj(y)[idx], idx.size, 100, cfg.seed)
    x_fit, _, iterations = accelerated_projected_gradient(
        lambda x: adj(fwd(embed(x)) - v)[idx], lambda x: signs * np.maximum(signs * x, 0.0),
        1.02 * sigma ** 2 if sigma > 0.0 else 1.0, sol.u_alpha[idx], cfg.tol * (1.0 + norm(adj(v)[idx])),
        max_iters=cfg.max_iters)
    u_db = embed(x_fit)
    residual = op.apply(u_db) - v
    return (u_db, support, False, 0.5 * float(np.dot(residual, residual)),
            bregman_distance(reg, u_db, sol.u_alpha, sol.p_alpha, check=False), iterations)


def test_debias_matches_the_embed_gather_refit():
    # the refit on the support's columns against the one it replaced, on dense and sparse maps;
    # alpha = 5 empties every support
    cfg, empty = SolverConfig(tol=1e-10), 0
    for seed in range(5):
        rng = substream(seed, "debias-reference")
        for op in (make_random_dense(20, 12, seed=seed), make_convolution([0.25, 0.5, 0.25], 16)):
            u_star = rng.standard_normal(op.in_dim) * (rng.random(op.in_dim) < 0.4)
            v = op.apply(u_star) + 0.05 * rng.standard_normal(op.out_dim)
            for alpha in (0.01, 0.1, 0.5, 5.0):
                res = debias_two_step(op, v, alpha, l1(), cfg)
                u_db, support, is_empty, residual, to_first, iterations = _reference_debias(op, v, alpha, cfg)
                assert res.iterations == iterations and res.empty_support == is_empty
                np.testing.assert_array_equal(res.support, support)
                assert norm(res.u_debiased - u_db) <= 1e-14 * norm(u_db)
                assert abs(res.data_residual - residual) <= 1e-14 * residual
                assert abs(res.bregman_to_step_one - to_first) <= 1e-14 * (1.0 + norm(u_db))
                empty += is_empty
    assert 0 < empty < 40


def test_debias_requires_l1():
    with pytest.raises(ValueError, match="l1"):
        debias_two_step(identity_map(3), np.ones(3), 0.5, quadratic())
