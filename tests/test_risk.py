import gc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from varreg import operators, regularizers, risk
from varreg import (
    RadonGeometry,
    SolverConfig,
    SubgradientError,
    build_risk_pair,
    check_operator_error_estimate,
    check_risk_theorem,
    construct_source_instance,
    draw_design,
    empirical_risk,
    error_decomposition,
    full_design,
    generalization_error,
    l1,
    make_radon,
    make_random_dense,
    make_sampled,
    operator_generalization_gap,
    population_risk,
    quadratic,
    solve_columns,
    solve_variational,
    substream,
    symmetric_bregman,
)
from varreg.regularizers import Subgradient

CFG = SolverConfig(tol=1e-11, max_iters=100_000)


def _pair(base, theta, n=40, sigma=0.1, seed=0):
    return build_risk_pair(base, theta, draw_design(base.out_dim, n, sigma, seed))


def test_build_risk_pair_data_construction():
    rng = substream(0, "pair")
    base = make_random_dense(20, 6, seed=1)
    theta = rng.standard_normal(6)
    design = draw_design(20, 15, noise_sigma=0.2, seed=3)
    pair = build_risk_pair(base, theta, design)
    np.testing.assert_array_equal(pair.v_pop, pair.population_map.apply(theta))
    np.testing.assert_array_equal(
        pair.v_emp,
        pair.empirical_map.apply(theta) + np.sqrt(design.weights) * design.noise,
    )
    # population rows carry the uniform quadrature weight 1/m
    u = rng.standard_normal(6)
    lhs = np.dot(pair.population_map.apply(u), pair.population_map.apply(u))
    rhs = np.dot(base.apply(u), base.apply(u)) / base.out_dim
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + rhs)


def test_population_map_is_built_once_per_base(monkeypatch):
    base = make_radon(RadonGeometry.regular(8, 6, 7))
    theta = substream(9, "pair").standard_normal(base.in_dim)
    first = _pair(base, theta, seed=1)
    built = []
    real = operators.make_sampled

    def counting(op, design):
        built.append(design.size)
        return real(op, design)

    monkeypatch.setattr(operators, "make_sampled", counting)
    monkeypatch.setattr(risk, "make_sampled", counting)
    second = _pair(base, theta, seed=2)
    assert built == [40]  # the empirical map only
    assert second.population_map is first.population_map
    fresh = real(base, full_design(base.out_dim)).matrix
    pop = second.population_map.matrix
    for name in ("data", "indices", "indptr"):
        np.testing.assert_array_equal(getattr(pop, name), getattr(fresh, name))
    # memoized on the operator, so the map goes when the operator goes
    ref = weakref.ref(first.population_map)
    del base, first, second, pop
    gc.collect()
    assert ref() is None


def test_risk_values_at_truth():
    rng = substream(1, "risk")
    base = make_random_dense(25, 5, seed=2)
    theta = rng.standard_normal(5)
    pair = _pair(base, theta, n=30, sigma=0.5, seed=7)
    assert population_risk(pair, theta) == pytest.approx(0.5 * 0.5**2, abs=1e-15)
    w_noise = np.sqrt(pair.design.weights) * pair.design.noise
    assert empirical_risk(pair, theta) == pytest.approx(0.5 * w_noise @ w_noise, abs=1e-15)


def test_empirical_risk_is_unbiased_over_designs():
    rng = substream(2, "risk")
    base = make_random_dense(30, 6, seed=3)
    theta_star = rng.standard_normal(6)
    theta = theta_star + rng.standard_normal(6)
    sigma = 1.0
    vals = []
    for seed in range(200):
        pair = _pair(base, theta_star, n=25, sigma=sigma, seed=seed)
        vals.append(empirical_risk(pair, theta))
    vals = np.asarray(vals)
    target = population_risk(_pair(base, theta_star, seed=0, sigma=sigma), theta)
    stderr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - target) <= 3.0 * stderr


def test_generalization_error_on_full_grid():
    # sampling the full grid with no noise removes every stochastic term, so
    # the generalization error is exactly the noise floor sigma^2/2 = 0
    rng = substream(3, "risk")
    base = make_random_dense(12, 4, seed=4)
    theta_star = rng.standard_normal(4)
    pair = build_risk_pair(base, theta_star, full_design(base.out_dim))
    for _ in range(5):
        theta = rng.standard_normal(4)
        assert abs(generalization_error(pair, theta)) <= 1e-14
        assert abs(operator_generalization_gap(pair, theta)) <= 1e-14


def test_error_decomposition_identity():
    rng = substream(4, "decomp")
    base = make_random_dense(18, 5, seed=5)
    for trial in range(100):
        theta_star = rng.standard_normal(5)
        theta = rng.standard_normal(5)
        pair = _pair(base, theta_star, n=12, sigma=0.3, seed=trial)
        dec = error_decomposition(pair, theta)
        assert dec.identity_defect <= 1e-10 * (1.0 + abs(dec.risk_gap))
        assert dec.total == pytest.approx(
            dec.generalization + dec.approximation + dec.sampling, abs=1e-15
        )
    at_truth = error_decomposition(pair, theta_star)
    assert at_truth.approximation == 0.0
    assert abs(at_truth.risk_gap) <= 1e-15


def test_error_decomposition_accepts_reference_risks():
    rng = substream(5, "decomp")
    base = make_random_dense(14, 4, seed=6)
    theta_star = rng.standard_normal(4)
    theta = rng.standard_normal(4)
    other = rng.standard_normal(4)  # a different reference predictor
    pair = _pair(base, theta_star, seed=9)
    dec = error_decomposition(
        pair, theta,
        f_star_risk_pop=population_risk(pair, other),
        f_star_risk_emp=empirical_risk(pair, other),
    )
    assert dec.risk_gap == pytest.approx(
        population_risk(pair, theta) - population_risk(pair, other), abs=1e-15
    )
    assert dec.identity_defect <= 1e-12


@pytest.mark.parametrize("kind", ["quadratic", "l1"])
def test_operator_error_estimate_holds(kind):
    reg = quadratic() if kind == "quadratic" else l1()
    base = make_random_dense(40, 10, seed=7)
    pop = make_sampled(base, full_design(base.out_dim))
    inst = construct_source_instance(pop, reg, seed=1)
    for seed in range(10):
        design = draw_design(base.out_dim, 30, noise_sigma=0.05 if seed % 2 else 0.0,
                             seed=100 + seed)
        pair = build_risk_pair(base, inst.u_star, design)
        rep = check_operator_error_estimate(pair, reg, inst, 0.1, CFG)
        assert rep.holds
        if rep.components["noise_energy"] <= 1e-24:
            assert rep.components["corollary_holds"]
        else:
            assert "corollary_rhs" not in rep.components


def test_operator_error_estimate_full_grid_reduction():
    # no sampling: the operator gap vanishes and the bound reduces to the
    # plain consistent-data error estimate
    base = make_random_dense(24, 8, seed=8)
    pop = make_sampled(base, full_design(base.out_dim))
    inst = construct_source_instance(pop, quadratic(), seed=2)
    pair = build_risk_pair(base, inst.u_star, full_design(base.out_dim))
    rep = check_operator_error_estimate(pair, quadratic(), inst, 0.1, CFG)
    assert rep.holds
    assert abs(rep.components["half_operator_gap"]) <= 1e-13
    assert rep.components["noise_energy"] <= 1e-24
    assert rep.components["corollary_holds"]


def test_operator_error_estimate_validates_instance():
    base = make_random_dense(20, 6, seed=9)
    pop = make_sampled(base, full_design(base.out_dim))
    inst = construct_source_instance(pop, quadratic(), seed=3)
    pair = build_risk_pair(base, inst.u_star, draw_design(20, 10, 0.0, seed=1))
    other = construct_source_instance(pop, quadratic(), seed=4)
    with pytest.raises(ValueError, match="disagree on theta"):
        check_operator_error_estimate(pair, quadratic(), other, 0.1, CFG)
    # certificate computed against the raw base operator, not the weighted map
    bad = construct_source_instance(base, quadratic(), seed=3)
    pair_bad = build_risk_pair(base, bad.u_star, draw_design(20, 10, 0.0, seed=1))
    with pytest.raises(ValueError, match="too loose"):
        check_operator_error_estimate(pair_bad, quadratic(), bad, 0.1, CFG)
    with pytest.raises(ValueError, match="alpha"):
        check_operator_error_estimate(pair, quadratic(), inst, 0.0, CFG)


@pytest.mark.parametrize("kind", ["quadratic", "l1"])
def test_risk_theorem_holds_with_breakdown(kind):
    reg = quadratic() if kind == "quadratic" else l1()
    base = make_random_dense(40, 10, seed=10)
    pop = make_sampled(base, full_design(base.out_dim))
    inst = construct_source_instance(pop, reg, seed=5)
    for seed in range(10):
        design = draw_design(base.out_dim, 30, noise_sigma=0.05, seed=200 + seed)
        pair = build_risk_pair(base, inst.u_star, design)
        rep = check_risk_theorem(pair, reg, inst.u_star, inst.z_star, 0.1, CFG)
        assert rep.holds
        c = rep.components
        assert rep.rhs == pytest.approx(
            c["risk_gap"] + c["alpha_sq_source_sq"] + c["noise_energy"], abs=1e-13
        )
        assert c["risk_gap"] == pytest.approx(
            c["population_risk"] - c["empirical_risk"], abs=1e-13
        )
        # R - Rhat exceeds half the operator gap by exactly the noise floor
        assert c["risk_gap"] - c["half_operator_gap"] == pytest.approx(
            0.5 * pair.noise_sigma**2, abs=1e-12
        )


@pytest.mark.parametrize("offset, matches", [(2e-12, False), (5e-13, True)])
def test_theta_star_match_refuses_beyond_its_tolerance(offset, matches):
    # both certificates refuse a theta* more than 1e-12 from the pair's in any entry
    base = make_random_dense(20, 6, seed=9)
    inst = construct_source_instance(risk.population_map(base), quadratic(), seed=3)
    pair = build_risk_pair(base, inst.u_star, draw_design(20, 10, 0.0, seed=1))
    theta = inst.u_star.copy()
    theta[2] += offset
    if matches:
        assert check_risk_theorem(pair, quadratic(), theta, inst.z_star, 0.1, CFG).holds
    else:
        with pytest.raises(ValueError, match="disagree on theta"):
            check_risk_theorem(pair, quadratic(), theta, inst.z_star, 0.1, CFG)


def test_sampled_radon_path_certifies_without_a_sparse_transpose(monkeypatch):
    # a sparse map keeps one CSR copy and runs its adjoint on it: building a risk pair on a Radon
    # map, solving on it and certifying it must transpose no CSR matrix
    def refuse(*args, **kwargs):
        raise AssertionError("a CSR matrix was transposed")

    monkeypatch.setattr(sp.csr_matrix, "transpose", refuse)
    base = make_radon(RadonGeometry.regular(12, 10, 14))
    cfg = SolverConfig(tol=1e-10)
    for reg in (quadratic(), l1()):
        inst = construct_source_instance(risk.population_map(base), reg, seed=1)
        pair = build_risk_pair(base, inst.u_star, draw_design(base.out_dim, 60, 0.01, seed=2))
        sol = solve_variational(pair.empirical_map, pair.v_emp, 0.05, reg, cfg)
        assert check_risk_theorem(pair, reg, inst.u_star, inst.z_star, 0.05, cfg, solution=sol).holds
    with pytest.raises(AssertionError, match="transposed"):
        base.matrix.T


def test_risk_theorem_dominates_operator_bound():
    # rhs of the risk form exceeds the operator form by sigma^2/2 >= 0
    base = make_random_dense(30, 8, seed=11)
    pop = make_sampled(base, full_design(base.out_dim))
    inst = construct_source_instance(pop, quadratic(), seed=6)
    design = draw_design(base.out_dim, 20, noise_sigma=0.1, seed=42)
    pair = build_risk_pair(base, inst.u_star, design)
    sol = solve_variational(pair.empirical_map, pair.v_emp, 0.2, quadratic(), CFG)
    a = check_operator_error_estimate(pair, quadratic(), inst, 0.2, CFG, solution=sol)
    b = check_risk_theorem(pair, quadratic(), inst.u_star, inst.z_star, 0.2, CFG, solution=sol)
    assert a.lhs == pytest.approx(b.lhs, abs=1e-14)
    assert b.rhs - a.rhs == pytest.approx(0.5 * pair.noise_sigma**2, abs=1e-12)


def test_risk_certificates_reject_a_solution_not_at_alpha():
    base = make_random_dense(30, 8, seed=13)
    inst = construct_source_instance(risk.population_map(base), l1(), seed=7)
    pair = _pair(base, inst.u_star, n=20, sigma=0.1, seed=5)
    wrong = solve_variational(pair.empirical_map, pair.v_emp, 0.3, l1(), CFG)
    block = solve_columns(pair.empirical_map, np.repeat(pair.v_emp[:, None], 2, axis=1), np.array([0.1, 0.1]),
                          l1(), CFG)
    for bad in (wrong, block):
        with pytest.raises(ValueError, match="^solution has u_alpha of shape"):
            check_operator_error_estimate(pair, l1(), inst, 0.1, CFG, solution=bad)
        with pytest.raises(ValueError, match="^solution has u_alpha of shape"):
            check_risk_theorem(pair, l1(), inst.u_star, inst.z_star, 0.1, CFG, solution=bad)


def test_risk_theorem_rejects_invalid_source():
    base = make_random_dense(20, 6, seed=12)
    rng = substream(6, "gate")
    theta = rng.standard_normal(6)
    pair = build_risk_pair(base, theta, draw_design(20, 10, 0.0, seed=2))
    bad_z = rng.standard_normal(20)
    with pytest.raises(SubgradientError, match="not a subgradient"):
        check_risk_theorem(pair, l1(), theta, bad_z, 0.1, CFG)


@pytest.mark.parametrize("kind", ["quadratic", "l1"])
def test_risk_theorem_certifies_source_once(monkeypatch, kind):
    # p* = F_pop* z* is a membership check at theta*, made once per call;
    # the solution's subgradient is the only other one
    reg = quadratic() if kind == "quadratic" else l1()
    base = make_random_dense(30, 8, seed=13)
    inst = construct_source_instance(risk.population_map(base), reg, seed=7)
    pair = _pair(base, inst.u_star, n=20, sigma=0.1, seed=5)
    sol = solve_variational(pair.empirical_map, pair.v_emp, 0.1, reg, CFG)
    points = []
    real = regularizers.is_subgradient

    def counting(reg, u, p, *args, **kwargs):
        points.append(np.array(u, dtype=float))
        return real(reg, u, p, *args, **kwargs)

    monkeypatch.setattr(regularizers, "is_subgradient", counting)
    assert check_risk_theorem(pair, reg, inst.u_star, inst.z_star, 0.1, CFG, solution=sol).holds
    assert sum(np.array_equal(u, inst.u_star) for u in points) == 1
    assert sum(np.array_equal(u, sol.u_alpha) for u in points) == 1


@pytest.mark.parametrize("kind", ["quadratic", "l1"])
def test_risk_theorem_makes_one_product_each_way_on_population_map(monkeypatch, kind):
    # the first call on (theta*, z*) forms p* = F_pop* z* once and F_pop u_a once; a repeat call
    # finds p* on the population map and forms F_pop u_a only; v* is the pair's v_pop
    reg = quadratic() if kind == "quadratic" else l1()
    base = make_random_dense(30, 8, seed=13)
    inst = construct_source_instance(risk.population_map(base), reg, seed=7)
    pair = _pair(base, inst.u_star, n=20, sigma=0.1, seed=5)
    sol = solve_variational(pair.empirical_map, pair.v_emp, 0.1, reg, CFG)
    calls = {"_apply": 0, "_adjoint": 0}
    for name in calls:
        real = getattr(pair.population_map, name)

        def counting(x, real=real, name=name):
            calls[name] += 1
            return real(x)

        monkeypatch.setattr(pair.population_map, name, counting)
    solved = check_risk_theorem(pair, reg, inst.u_star, inst.z_star, 0.1, CFG)
    assert calls == {"_apply": 1, "_adjoint": 1}
    report = check_risk_theorem(pair, reg, inst.u_star, inst.z_star, 0.1, CFG, solution=sol)
    assert calls == {"_apply": 2, "_adjoint": 1}
    assert (report.lhs, report.rhs) == (solved.lhs, solved.rhs)


def _probes(monkeypatch):
    """A list that grows by (kind, u) for each membership probe."""
    calls = []
    real = regularizers.is_subgradient

    def recording(reg, u, p, *args, **kwargs):
        calls.append((reg.kind, np.array(u, dtype=float)))
        return real(reg, u, p, *args, **kwargs)

    monkeypatch.setattr(regularizers, "is_subgradient", recording)
    return calls


def _probed_at(calls, point):
    return [kind for kind, u in calls if np.array_equal(u, point)]


def test_risk_theorem_probes_each_source_once_over_fresh_designs(monkeypatch):
    # sampled-radon's shape: 3 instances per kind, each certified on a fresh design again and again
    base = make_radon(RadonGeometry.regular(8, 6, 7))
    pop = risk.population_map(base)
    cfg = SolverConfig(tol=1e-10)
    regs = {"quadratic": quadratic(), "l1": l1()}
    instances = {kind: [construct_source_instance(pop, reg, seed=j) for j in range(3)] for kind, reg in regs.items()}
    calls = _probes(monkeypatch)
    for k in range(24):
        kind = ("quadratic", "l1")[k % 2]
        inst, reg = instances[kind][(k // 2) % 3], regs[kind]
        pair = _pair(base, inst.u_star, n=30, sigma=0.01 if kind == "l1" else 0.0, seed=k)
        sol = solve_variational(pair.empirical_map, pair.v_emp, 0.05, reg, cfg)
        before = len(calls)
        assert check_risk_theorem(pair, reg, inst.u_star, inst.z_star, 0.05, cfg, solution=sol).holds
        assert _probed_at(calls[before:], sol.u_alpha) == [kind]  # p_tilde, and p* on first use only
    for kind, insts in instances.items():
        assert [_probed_at(calls, inst.u_star) for inst in insts] == [[kind]] * 3
    assert len(calls) == 24 + 6
    assert len(pop._sources) == 6


def test_risk_theorem_probes_a_failing_source_on_every_call(monkeypatch):
    base = make_random_dense(20, 6, seed=12)
    theta = substream(6, "gate").standard_normal(6)
    pair = build_risk_pair(base, theta, draw_design(20, 10, 0.0, seed=2))
    bad_z = substream(7, "gate").standard_normal(20)
    calls = _probes(monkeypatch)
    for n in range(1, 4):
        with pytest.raises(SubgradientError, match="^p\\* is not a subgradient"):
            check_risk_theorem(pair, l1(), theta, bad_z, 0.1, CFG)
        assert _probed_at(calls, theta) == ["l1"] * n


def test_risk_theorem_probes_source_again_for_another_regularizer(monkeypatch):
    base = make_random_dense(30, 8, seed=13)
    inst = construct_source_instance(risk.population_map(base), l1(), seed=7)
    pair = _pair(base, inst.u_star, n=20, sigma=0.1, seed=5)
    sol = solve_variational(pair.empirical_map, pair.v_emp, 0.1, l1(), CFG)
    calls = _probes(monkeypatch)
    assert check_risk_theorem(pair, l1(), inst.u_star, inst.z_star, 0.1, CFG, solution=sol).holds
    # an l1 source is no quadratic one: the same (theta*, z*) is probed for quadratic, and fails, each time
    for _ in range(2):
        with pytest.raises(SubgradientError, match="^p\\* is not a subgradient"):
            check_risk_theorem(pair, quadratic(), inst.u_star, inst.z_star, 0.1, CFG)
    assert check_risk_theorem(pair, l1(), inst.u_star, inst.z_star, 0.1, CFG, solution=sol).holds
    assert _probed_at(calls, inst.u_star) == ["l1", "quadratic", "quadratic"]


def test_risk_theorem_probes_source_again_after_caller_writes(monkeypatch):
    # the memo keeps copies keyed by content: writing into the caller's theta*/z* is a new source
    base = make_random_dense(30, 8, seed=13)
    pop = risk.population_map(base)
    inst = construct_source_instance(pop, quadratic(), seed=7)
    theta, z = inst.u_star.copy(), inst.z_star.copy()
    pair = _pair(base, theta, n=20, sigma=0.1, seed=5)
    sol = solve_variational(pair.empirical_map, pair.v_emp, 0.1, quadratic(), CFG)
    null = np.linalg.svd(pop.matrix)[0][:, -1]  # F_pop* null = 0, so z + null keeps p*
    calls = _probes(monkeypatch)
    first = check_risk_theorem(pair, quadratic(), theta, z, 0.1, CFG, solution=sol)
    z += null
    second = check_risk_theorem(pair, quadratic(), theta, z, 0.1, CFG, solution=sol)
    theta[0] += 1e-13  # still theta* to _match_theta_star's 1e-12
    check_risk_theorem(pair, quadratic(), theta, z, 0.1, CFG, solution=sol)
    check_risk_theorem(pair, quadratic(), theta, z, 0.1, CFG, solution=sol)
    assert len([u for _, u in calls if not np.array_equal(u, sol.u_alpha)]) == 3
    assert second.components["alpha_sq_source_sq"] != first.components["alpha_sq_source_sq"]
    assert len(pop._sources) == 3


def test_risk_theorem_source_memo_stays_within_its_cap(monkeypatch):
    base = make_random_dense(30, 8, seed=13)
    pop = risk.population_map(base)
    inst = construct_source_instance(pop, quadratic(), seed=7)
    pair = _pair(base, inst.u_star, n=20, sigma=0.1, seed=5)
    sol = solve_variational(pair.empirical_map, pair.v_emp, 0.1, quadratic(), CFG)
    null = np.linalg.svd(pop.matrix)[0][:, -1]
    zs = [inst.z_star + t * null for t in range(40)]
    calls = _probes(monkeypatch)
    for z in zs:
        check_risk_theorem(pair, quadratic(), inst.u_star, z, 0.1, CFG, solution=sol)
        assert len(pop._sources) <= risk._SOURCES_CAP == 32
    assert len(_probed_at(calls, inst.u_star)) == 40
    # the newest are kept, the oldest dropped
    check_risk_theorem(pair, quadratic(), inst.u_star, zs[-1], 0.1, CFG, solution=sol)
    assert len(_probed_at(calls, inst.u_star)) == 40
    check_risk_theorem(pair, quadratic(), inst.u_star, zs[0], 0.1, CFG, solution=sol)
    assert len(_probed_at(calls, inst.u_star)) == 41


def test_population_map_of_a_fresh_operator_holds_no_sources():
    # two setups of one workload build two operators, so their probe counts agree
    geometry = RadonGeometry.regular(8, 6, 7)
    used = make_radon(geometry)
    inst = construct_source_instance(risk.population_map(used), quadratic(), seed=0)
    pair = _pair(used, inst.u_star, n=30, sigma=0.0, seed=1)
    assert check_risk_theorem(pair, quadratic(), inst.u_star, inst.z_star, 0.05, CFG).holds
    assert len(risk.population_map(used)._sources) == 1
    assert risk.population_map(make_radon(geometry))._sources == {}


def _counted(monkeypatch, op):
    calls = []
    real = op._apply

    def counting(x):
        calls.append(1)
        return real(x)

    monkeypatch.setattr(op, "_apply", counting)
    return calls


@pytest.mark.parametrize("kind, sigma", [("quadratic", 0.1), ("l1", 0.1), ("quadratic", 0.0)])
def test_risk_certificates_share_one_residual_pass(monkeypatch, kind, sigma):
    # every term comes from one pass over F_pop u_a - v_pop and Fe u_a - ve,
    # with the values the public risk functions give, bit for bit
    reg = quadratic() if kind == "quadratic" else l1()
    base = make_random_dense(30, 8, seed=13)
    pop = make_sampled(base, full_design(base.out_dim))
    inst = construct_source_instance(pop, reg, seed=7)
    pair = build_risk_pair(base, inst.u_star, draw_design(base.out_dim, 20, sigma, seed=5))
    alpha = 0.1
    sol = solve_variational(pair.empirical_map, pair.v_emp, alpha, reg, CFG)
    u = sol.u_alpha
    p_star = Subgradient(p=pair.population_map.adjoint(inst.z_star))
    d_sym = symmetric_bregman(reg, u, inst.u_star, sol.p_alpha, p_star)
    pop_gap = np.linalg.norm(pair.population_map.apply(u) - pair.v_pop) ** 2
    noise_res = pair.empirical_map.apply(inst.u_star) - pair.v_emp
    noise_energy = float(np.dot(noise_res, noise_res))
    gap = operator_generalization_gap(pair, u)
    z_sq = inst.source_norm ** 2
    op_rhs = alpha ** 2 * z_sq + noise_energy + 0.5 * gap
    risk_rhs = generalization_error(pair, u) + alpha ** 2 * z_sq + noise_energy
    expected_op = {
        "pop_gap_quarter": 0.25 * pop_gap, "alpha_d_sym": alpha * d_sym, "d_sym": d_sym,
        "alpha_sq_source_sq": alpha ** 2 * z_sq, "noise_energy": noise_energy,
        "half_operator_gap": 0.5 * gap, "headroom": 10.0 * CFG.tol * (1.0 + abs(op_rhs)),
    }
    if noise_energy <= 1e-24:
        cor_rhs = alpha * z_sq + gap / (2.0 * alpha)
        expected_op["corollary_rhs"] = cor_rhs
        expected_op["corollary_holds"] = bool(d_sym <= cor_rhs + 10.0 * CFG.tol * (1.0 + abs(cor_rhs)))
    expected_risk = {
        "pop_gap_quarter": 0.25 * pop_gap, "alpha_d_sym": alpha * d_sym, "d_sym": d_sym,
        "risk_gap": generalization_error(pair, u), "half_operator_gap": 0.5 * gap,
        "alpha_sq_source_sq": alpha ** 2 * z_sq, "noise_energy": noise_energy,
        "population_risk": population_risk(pair, u), "empirical_risk": empirical_risk(pair, u),
        "headroom": 10.0 * CFG.tol * (1.0 + abs(risk_rhs)),
    }

    pop_calls = _counted(monkeypatch, pair.population_map)
    emp_calls = _counted(monkeypatch, pair.empirical_map)
    a = check_operator_error_estimate(pair, reg, inst, alpha, CFG, solution=sol)
    assert len(pop_calls) <= 1 and len(emp_calls) <= 2
    assert a.lhs == 0.25 * pop_gap + alpha * d_sym
    assert a.rhs == op_rhs
    assert a.components == expected_op
    assert a.holds
    del pop_calls[:], emp_calls[:]
    b = check_risk_theorem(pair, reg, inst.u_star, inst.z_star, alpha, CFG, solution=sol)
    assert len(pop_calls) <= 2 and len(emp_calls) <= 2
    assert b.lhs == 0.25 * pop_gap + alpha * d_sym
    assert b.rhs == risk_rhs
    assert b.components == expected_risk
    assert b.holds
