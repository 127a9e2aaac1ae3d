"""Certification suite: one test per shipped guarantee, numbered 1-13.

Each test prints ``ACCEPTANCE n PASS`` / ``ACCEPTANCE n FAIL`` (echoed in the
terminal summary, or directly with ``pytest -s``).  Tolerances are pinned;
instances are seeded so every run certifies the same cases.
"""

import functools

import numpy as np
import pytest

import conftest
from conftest import PAIR_GENERATORS, make_regularizer, subgradient_pair
from varreg import (
    RadonGeometry,
    SolverConfig,
    SourceInstance,
    Subgradient,
    adjoint_consistency_check,
    bias_variance_study,
    bregman_distance,
    bregman_iterate,
    build_risk_pair,
    check_effective_estimate,
    check_error_estimate,
    check_higher_order_estimate,
    check_operator_error_estimate,
    check_risk_theorem,
    construct_source_instance,
    convergence_study,
    debias_two_step,
    draw_design,
    error_decomposition,
    full_design,
    identity_map,
    l1,
    make_convolution,
    make_radon,
    make_random_dense,
    make_sampled,
    operator_generalization_gap,
    quadratic,
    solve_variational,
    substream,
    symmetric_bregman,
    tv_aniso,
)
from varreg.cli import run as cli_run

TIGHT = SolverConfig(tol=1e-12, max_iters=200_000)


def certify(n: int):
    """Emit the verdict line even when an assertion inside the body trips."""

    def wrap(fn):
        @functools.wraps(fn)
        def runner(*args, **kwargs):
            ok = False
            try:
                fn(*args, **kwargs)
                ok = True
            finally:
                print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}")
                conftest.ACCEPTANCE_VERDICTS.append((n, ok))

        return runner

    return wrap


@certify(1)
def test_adjoint_suite():
    rng = substream(1, "acc-adjoint")
    ops = [
        make_random_dense(24, 16, seed=1),
        make_random_dense(40, 40, seed=2),
        make_random_dense(8, 32, seed=3),
        make_convolution([0.25, 0.5, 0.25], 64),
        make_convolution([0.5, 0.5], 33),
        make_convolution(rng.standard_normal(7), 48),
        make_radon(RadonGeometry.regular(16, 12, 14)),
        make_radon(RadonGeometry.regular(32, 20, 24)),
        make_radon(RadonGeometry.regular(64, 24, 28)),
    ]
    for i, op in enumerate(ops):
        assert adjoint_consistency_check(op, trials=32, seed=i) <= 1e-10


@certify(2)
def test_bregman_axioms():
    for kind in PAIR_GENERATORS:
        rng = substream(2, f"acc-axioms-{kind}")
        for _ in range(1000):
            n = int(rng.integers(2, 25))
            reg = make_regularizer(kind, n)
            u1, p1, _ = subgradient_pair(kind, rng, n)
            u2, p2, _ = subgradient_pair(kind, rng, n)
            d12 = bregman_distance(reg, u2, u1, p1, check=False)
            d21 = bregman_distance(reg, u1, u2, p2, check=False)
            ds = symmetric_bregman(reg, u2, u1, p2, p1, check=False)
            assert d12 >= 0.0 and d21 >= 0.0 and ds >= 0.0
            assert abs(ds - (d12 + d21)) <= 1e-10 * (1.0 + ds)


@certify(3)
def test_stability_bound():
    cfg = SolverConfig(tol=1e-10)
    for kind in ("quadratic", "l1", "tv"):
        reg = {"quadratic": quadratic(), "l1": l1(), "tv": tv_aniso(8)}[kind]
        rng = substream(3, f"acc-stab-{kind}")
        for trial in range(100):
            op = make_random_dense(12, 8, seed=2000 + trial)
            v = rng.standard_normal(12)
            v_t = v + 0.3 * rng.standard_normal(12)
            alpha = float(rng.uniform(0.05, 0.5))
            s = solve_variational(op, v, alpha, reg, cfg)
            s_t = solve_variational(op, v_t, alpha, reg, cfg)
            d = symmetric_bregman(reg, s_t.u_alpha, s.u_alpha, s_t.p_alpha,
                                  s.p_alpha, membership_tol=1e-5)
            gap = op.apply(s.u_alpha) - op.apply(s_t.u_alpha)
            lhs = 0.5 * gap @ gap + alpha * d
            rhs = 0.5 * np.dot(v - v_t, v - v_t)
            assert lhs <= rhs + 10.0 * cfg.tol * (1.0 + rhs)


@certify(4)
def test_error_estimates():
    cfg = SolverConfig(tol=1e-10)
    for kind in ("quadratic", "l1", "tv"):
        for i in range(100):
            n = 6 + (i % 11)
            op = make_random_dense(n + 4 + (i % 7), n, seed=4000 + i)
            reg = make_regularizer(kind, n)
            inst = construct_source_instance(op, reg, seed=i)
            rng = substream(i, f"acc4-{kind}")
            alpha = float(rng.uniform(0.05, 0.5))
            e = rng.standard_normal(op.out_dim)
            e /= np.linalg.norm(e)
            for sigma in (0.0, 0.01, 0.1):
                v = inst.v_star + sigma * e
                sol = solve_variational(op, v, alpha, reg, cfg)
                assert check_error_estimate(op, reg, inst, v, alpha, cfg,
                                            solution=sol).holds
                assert check_effective_estimate(op, reg, inst, v, alpha, cfg,
                                                solution=sol).holds


@certify(5)
def test_convergence_rates():
    # geometric spectrum spanning the alpha schedule: the a-priori choice
    # alpha_n ~ delta_n must show the O(delta) Bregman rate, i.e. a decay
    # ratio near 1/2 per noise halving
    sv = np.geomspace(1.0, 1e-4, 64)
    op = make_random_dense(80, 64, seed=17, singular_values=sv)
    reg = quadratic()
    inst = construct_source_instance(op, reg, seed=5)
    s = 0.3 / np.linalg.norm(inst.z_star)
    inst = SourceInstance(u_star=inst.u_star * s,
                          p_star=Subgradient(p=inst.p_star.p * s),
                          z_star=inst.z_star * s, v_star=inst.v_star * s)
    deltas = 0.05 * 0.5 ** np.arange(9)
    rows = convergence_study(op, reg, inst, deltas, deltas, seed=3, config=TIGHT)
    assert all(r.holds for r in rows)
    d = np.array([r.bregman for r in rows])
    ratio = (d[-1] / d[0]) ** (1.0 / 8.0)
    assert 0.4 <= ratio <= 0.6
    assert abs(rows[-1].J_value - reg.value(inst.u_star)) <= 1e-4


@certify(6)
def test_bias_variance():
    sv = np.geomspace(1.0, 0.05, 32)
    op = make_random_dense(48, 32, seed=11, singular_values=sv)
    inst = construct_source_instance(op, quadratic(), seed=7)
    sigma = 0.05
    a_star = np.sqrt(op.out_dim) * sigma / inst.source_norm
    alphas = np.geomspace(a_star / 8.0, a_star * 8.0, 8)
    res = bias_variance_study(op, quadratic(), inst, sigma, alphas, 200, seed=2,
                              config=SolverConfig(tol=1e-11, max_iters=100_000))
    assert all(r.holds for r in res.rows)  # mean <= bound + 3*stderr rowwise
    means = [r.mean_bregman for r in res.rows]
    k = int(np.argmin(means))
    assert 0 < k < len(means) - 1


@certify(7)
def test_higher_order_estimates():
    for s in range(10):
        rng = substream(s, "acc7")
        op = make_random_dense(12, 8, seed=300 + s)
        eta = rng.standard_normal(8)
        u_star = op.adjoint(op.apply(eta))
        noise = rng.standard_normal(12)
        noise *= 0.01 / np.linalg.norm(noise)
        v = op.apply(u_star) + noise
        for alpha in (0.05, 0.2):
            rep = check_higher_order_estimate(op, quadratic(), u_star, eta, v,
                                              alpha, TIGHT)
            assert rep.holds
            closed = 0.5 * alpha**2 * np.dot(eta, eta)
            assert abs(rep.components["first_term"] - closed) <= 1e-9 * (1.0 + closed)

    # l1: eta interpolating the signs on the support keeps the first term at
    # exactly zero for alpha below the sign-preservation threshold
    certified = 0
    for s in range(50):
        op = make_random_dense(14, 9, seed=400 + s)
        inst = construct_source_instance(op, l1(), seed=s)
        S = np.flatnonzero(np.abs(inst.u_star) > 0)
        gram = op.matrix.T @ op.matrix
        eta = np.zeros(9)
        try:
            eta[S] = np.linalg.solve(gram[np.ix_(S, S)], np.sign(inst.u_star[S]))
        except np.linalg.LinAlgError:
            continue
        off = np.delete(gram @ eta, S)
        if off.size and np.max(np.abs(off)) > 1.0 - 1e-6:
            continue  # draw lacks a strict dual margin; not a valid witness
        threshold = np.min(np.abs(inst.u_star[S])) / np.max(np.abs(eta[S]))
        rep = check_higher_order_estimate(op, l1(), inst.u_star, eta, inst.v_star,
                                          0.5 * min(threshold, 0.2), TIGHT)
        assert rep.holds
        assert rep.components["first_term"] == 0.0
        assert rep.components["support_preserved"]
        certified += 1
        if certified == 10:
            break
    assert certified == 10


@certify(8)
def test_bregman_iteration():
    # F = id, v = 1, alpha = 1, quadratic J: u^k = 1 - 2^{-k}
    trace = bregman_iterate(identity_map(1), [1.0], 1.0, quadratic(), 20,
                            SolverConfig(tol=1e-12))
    for step in trace.steps:
        assert abs(step.u[0] - (1.0 - 0.5 ** step.k)) <= 1e-10

    cfg = SolverConfig(tol=1e-10)
    for s in range(50):
        kind = ("quadratic", "l1", "tv")[s % 3]
        n = 6 if kind == "tv" else 7
        reg = make_regularizer(kind, n)
        op = make_random_dense(10, n, seed=900 + s)
        rng = substream(s, "acc8")
        v = op.apply(rng.standard_normal(n)) + 0.2 * rng.standard_normal(10)
        tr = bregman_iterate(op, v, 0.7, reg, 6, cfg)
        res = [st.data_residual for st in tr.steps]
        assert all(b <= a + 1e-10 for a, b in zip(res, res[1:]))

    op = make_random_dense(6, 10, seed=31)
    v = op.apply(substream(8, "pinv").standard_normal(10))
    tr = bregman_iterate(op, v, 1.0, quadratic(), 70, TIGHT)
    u_pinv = np.linalg.pinv(op.matrix) @ v
    assert np.linalg.norm(tr.steps[-1].u - u_pinv) <= 1e-6


@certify(9)
def test_debiasing():
    for s in range(50):
        op = make_random_dense(24, 16, seed=100 + s)
        inst = construct_source_instance(op, l1(), seed=s)
        res = debias_two_step(op, inst.v_star, 0.05, l1(), TIGHT)
        np.testing.assert_array_equal(res.support, np.abs(inst.u_star) > 0)
        assert res.data_residual <= res.step_one.data_residual + 1e-10
        assert res.bregman_to_step_one <= 1e-8
        assert np.linalg.norm(res.u_debiased - inst.u_star) <= 1e-6


@certify(10)
def test_risk_decomposition():
    rng = substream(10, "acc")
    for i in range(100):
        base = make_random_dense(20 + (i % 10), 6 + (i % 5), seed=6000 + i)
        theta_star = rng.standard_normal(base.in_dim)
        design = draw_design(base.out_dim, 10 + (i % 20),
                             0.1 if i % 2 else 0.0, seed=i)
        pair = build_risk_pair(base, theta_star, design)
        theta = theta_star + rng.standard_normal(base.in_dim)
        dec = error_decomposition(pair, theta)
        assert dec.identity_defect <= 1e-10 * (1.0 + abs(dec.risk_gap))


@pytest.fixture(scope="module")
def radon_population():
    radon = make_radon(RadonGeometry.regular(32, 40, 50))
    pop = make_sampled(radon, full_design(radon.out_dim))
    instances = {
        "quadratic": [construct_source_instance(pop, quadratic(), seed=s) for s in range(3)],
        "l1": [construct_source_instance(pop, l1(), seed=s) for s in range(3)],
    }
    return radon, instances


@certify(11)
def test_operator_error_and_gap_trend(radon_population):
    cfg = SolverConfig(tol=1e-10)

    # 60 dense sampled-design certificates
    for k in range(60):
        base = make_random_dense(30 + 2 * (k % 6), 8 + (k % 4), seed=6100 + k)
        reg = quadratic() if k % 2 == 0 else l1()
        pop = make_sampled(base, full_design(base.out_dim))
        inst = construct_source_instance(pop, reg, seed=k)
        design = draw_design(base.out_dim, 30, 0.05 if k % 2 else 0.0, seed=7100 + k)
        pair = build_risk_pair(base, inst.u_star, design)
        assert check_operator_error_estimate(pair, reg, inst, 0.1, cfg).holds

    # 40 tomographic certificates at N = 500 sampled rays
    radon, instances = radon_population
    for k in range(40):
        kind = "quadratic" if k % 2 == 0 else "l1"
        inst = instances[kind][k % 3]
        design = draw_design(radon.out_dim, 500, 0.01 if k % 2 else 0.0, seed=7000 + k)
        pair = build_risk_pair(radon, inst.u_star, design)
        reg = quadratic() if kind == "quadratic" else l1()
        assert check_operator_error_estimate(pair, reg, inst, 0.05, cfg).holds

    # |G(u_alpha)| shrinks as the design grows; consistent designs only, since
    # noise puts a sigma^2 floor under the gap
    base = make_random_dense(4096, 32, seed=21)
    pop = make_sampled(base, full_design(base.out_dim))
    inst = construct_source_instance(pop, quadratic(), seed=3)
    stats = []
    for n_samples in (10, 100, 1000, 10_000):
        gaps = []
        for r in range(32):
            design = draw_design(base.out_dim, n_samples, 0.0, seed=1000 + r)
            pair = build_risk_pair(base, inst.u_star, design)
            sol = solve_variational(pair.empirical_map, pair.v_emp, 0.05,
                                    quadratic(), cfg)
            gaps.append(abs(operator_generalization_gap(pair, sol.u_alpha)))
        gaps = np.asarray(gaps)
        stats.append((gaps.mean(), gaps.std(ddof=1) / np.sqrt(gaps.size)))
    for (m0, s0), (m1, s1) in zip(stats, stats[1:]):
        assert m0 - m1 > 3.0 * np.hypot(s0, s1)


@certify(12)
def test_sampled_risk_theorem(radon_population):
    cfg = SolverConfig(tol=1e-10)
    radon, instances = radon_population
    for k in range(100):
        kind = "quadratic" if k % 2 == 0 else "l1"
        reg = quadratic() if kind == "quadratic" else l1()
        inst = instances[kind][k % 3]
        design = draw_design(radon.out_dim, 500, 0.01 if k % 2 else 0.0, seed=8000 + k)
        pair = build_risk_pair(radon, inst.u_star, design)
        rep = check_risk_theorem(pair, reg, inst.u_star, inst.z_star, 0.05, cfg)
        assert rep.holds
        c = rep.components
        total = c["risk_gap"] + c["alpha_sq_source_sq"] + c["noise_energy"]
        assert abs(rep.rhs - total) <= 1e-10 * (1.0 + abs(rep.rhs))
        assert abs((c["risk_gap"] - c["half_operator_gap"]) - 0.5 * pair.noise_sigma**2) \
            <= 1e-10 * (1.0 + abs(c["risk_gap"]))


@certify(13)
def test_cli_determinism(tmp_path):
    conf = tmp_path / "conf.ini"
    conf.write_text("[bregman]\niterations = 4\nsigma = 0.05\n"
                    "[convergence]\nsteps = 3\n", encoding="utf-8")
    for command, artifact in (("bregman", "bregman.csv"),
                              ("convergence", "convergence.csv")):
        a, b = tmp_path / f"{command}-a", tmp_path / f"{command}-b"
        assert cli_run([command, "--config", str(conf), "--output", str(a)]) == 0
        assert cli_run([command, "--config", str(conf), "--output", str(b)]) == 0
        assert (a / artifact).read_bytes() == (b / artifact).read_bytes()
