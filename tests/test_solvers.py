import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import radon_phantom_problem
from varreg import (
    DimensionMismatchError,
    RegularizedSolution,
    SolverConfig,
    SolverError,
    identity_map,
    is_subgradient,
    l1,
    make_convolution,
    make_dense,
    make_random_dense,
    operator_norm_estimate,
    quadratic,
    solve_columns,
    solve_fista,
    solve_primal_dual,
    solve_tikhonov_exact,
    solve_variational,
    substream,
    symmetric_bregman,
    tv_aniso,
)
from varreg import core, solvers
from varreg.regularizers import Regularizer, Subgradient
from varreg.estimates import solve_source_element
from varreg.solvers import _STEP_SAFETY, accelerated_projected_gradient

TIGHT = SolverConfig(tol=1e-12, max_iters=200_000)


def perturbed_start(dim: int, seed: int, scale: float = 0.1) -> np.ndarray:
    """Seeded random starting point, used to probe output uniqueness."""
    return scale * substream(seed, "init").standard_normal(dim)


@pytest.mark.parametrize("reg", [quadratic(), l1(), tv_aniso(16)], ids=["cg", "fista", "primal-dual"])
def test_data_whose_target_overflows_is_refused(reg):
    # ||F*v|| overflows for finite data at 1e300, so the target tol*(1 + ||F*v||) would accept any defect, inf
    # included; every solver refuses it before iterating, a block naming its column, and without a warning
    op, big = make_random_dense(24, 16), np.full(24, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="data is too large"):
            solve_variational(op, big, 0.5, reg)
        with pytest.raises(ValueError, match="data column 1 is too large"):
            solve_columns(op, np.column_stack([np.ones(24), big]), [0.5, 0.5], reg)


def test_cg_ends_an_unreachable_target_at_its_true_residual():
    # the recursive residual of CG falls far below roundoff and then drifts; a target of 1e-300 ends the run
    # with SolverError at the recomputed residual, not at a drifted one, and without a warning
    op = make_random_dense(24, 16)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SolverError, match="CG stalled") as err:
            solve_tikhonov_exact(op, op.apply(np.ones(16)), 0.1, SolverConfig(tol=1e-300))
    assert 1e-20 < err.value.defect < 1e-12

def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    with pytest.raises(ValueError, match="max_iters"):
        SolverConfig(max_iters=2.5)
    for seed in (-1, 2.5, "0"):
        with pytest.raises(ValueError, match="seed"):
            SolverConfig(seed=seed)
    for tol in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="tol"):
            SolverConfig(tol=tol)


def test_tikhonov_matches_normal_equations():
    rng = substream(0, "tik")
    a = rng.standard_normal((10, 6))
    v = rng.standard_normal(10)
    alpha = 0.3
    sol = solve_tikhonov_exact(make_dense(a), v, alpha, TIGHT)
    oracle = np.linalg.solve(a.T @ a + alpha * np.eye(6), a.T @ v)
    np.testing.assert_allclose(sol.u_alpha, oracle, atol=1e-8)
    res = a @ sol.u_alpha - v
    assert abs(sol.data_residual - 0.5 * res @ res) <= 1e-12
    assert abs(sol.J_value - 0.5 * sol.u_alpha @ sol.u_alpha) <= 1e-12
    np.testing.assert_array_equal(sol.p_alpha.p, sol.u_alpha)


@pytest.mark.parametrize("alpha", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("reg", [quadratic(), l1(), tv_aniso(2)], ids=["quadratic", "l1", "tv"])
def test_solve_variational_rejects_bad_alpha(reg, alpha):
    with pytest.raises(ValueError, match="alpha"):
        solve_variational(identity_map(2), [1.0, 0.5], alpha, reg)


def test_tikhonov_validates_alpha_and_budget():
    op = make_dense(np.diag([1.0, 0.01]))
    with pytest.raises(ValueError, match="alpha"):
        solve_tikhonov_exact(op, [1.0, 1.0], 0.0)
    with pytest.raises(SolverError):
        solve_tikhonov_exact(op, [1.0, 1.0], 1e-6, SolverConfig(max_iters=1, tol=1e-14))


def test_tikhonov_warm_start_at_solution():
    op = identity_map(3)
    v = np.array([1.0, 2.0, 3.0])
    exact = v / 1.5  # (I + 0.5 I)^{-1} v
    sol = solve_tikhonov_exact(op, v, 0.5, TIGHT, u0=exact)
    assert sol.iterations == 0
    np.testing.assert_allclose(sol.u_alpha, exact, atol=1e-12)


def test_fista_soft_threshold_exact():
    # F = I: the lasso minimizer is the soft threshold of the data
    op = identity_map(4)
    v = np.array([1.0, -0.2, 0.4, 0.0])
    alpha = 0.3
    sol = solve_fista(op, v, alpha, l1(), SolverConfig(tol=1e-10))
    np.testing.assert_allclose(sol.u_alpha, [0.7, 0.0, 0.1, 0.0], atol=1e-8)
    assert is_subgradient(l1(), sol.u_alpha, sol.p_alpha, tol=1e-6).ok


def test_fista_zero_data_stops_immediately():
    sol = solve_fista(identity_map(5), np.zeros(5), 0.5, l1())
    np.testing.assert_array_equal(sol.u_alpha, np.zeros(5))
    assert sol.iterations <= 2


def _zero_solution_problem():
    """A dense l1 problem and max|F*v|, the least alpha at which its solution is zero."""
    op = make_random_dense(14, 10, seed=5)
    v = substream(5, "zero-solution").standard_normal(14)
    return op, v, np.abs(op.adjoint(v)).max()


def _spy_on_iterations(monkeypatch):
    """Record every power iteration and every call of the accelerated kernel from here on."""
    calls = []
    power, apg = core._power_iteration, solvers.accelerated_projected_gradient
    monkeypatch.setattr(core, "_power_iteration", lambda *a: calls.append("power") or power(*a))
    monkeypatch.setattr(solvers, "accelerated_projected_gradient", lambda *a: calls.append("apg") or apg(*a))
    return calls


@pytest.mark.parametrize("scale", [1.0, 1.5], ids=["at-max", "above-max"])
def test_fista_zero_solution_exits_in_closed_form(monkeypatch, scale):
    # u = 0 solves the l1 problem exactly when F*v/alpha is in dJ(0), i.e. max|F*v| <= alpha:
    # the solve returns it with p = F*v/alpha, after no norm estimate and no iteration
    op, v, b_max = _zero_solution_problem()
    calls = _spy_on_iterations(monkeypatch)
    alpha = scale * b_max
    sol = solve_fista(op, v, alpha, l1())
    assert calls == []
    assert sol.iterations == 0 and np.all(sol.u_alpha == 0.0)
    np.testing.assert_array_equal(sol.p_alpha.p, op.adjoint(v) / alpha)
    assert np.abs(sol.p_alpha.p).max() == (1.0 if scale == 1.0 else 1.0 / scale)
    assert sol.data_residual == 0.5 * np.dot(v, v)
    assert sol.optimality_defect <= 1e-15 * np.linalg.norm(op.adjoint(v))
    assert is_subgradient(l1(), sol.u_alpha, sol.p_alpha).ok


@pytest.mark.parametrize("scale", [0.9, 0.995])
def test_fista_below_the_zero_threshold_iterates(monkeypatch, scale):
    # just below max|F*v| the solution is not zero: the solve iterates (0.995 is within a
    # threshold loosened by 1%, whose F*v/alpha would leave dJ(0))
    op, v, b_max = _zero_solution_problem()
    calls = _spy_on_iterations(monkeypatch)
    sol = solve_fista(op, v, scale * b_max, l1())
    assert calls == ["power", "apg"]
    assert sol.iterations >= 1 and np.any(sol.u_alpha != 0.0)
    assert is_subgradient(l1(), sol.u_alpha, sol.p_alpha).ok


def test_fista_zero_solution_ignores_a_warm_start():
    op, v, b_max = _zero_solution_problem()
    start = solve_fista(op, v, 0.5 * b_max, l1())
    for u0 in (np.ones(op.in_dim), start):
        sol = solve_fista(op, v, 2.0 * b_max, l1(), u0=u0)
        assert sol.iterations == 0 and np.all(sol.u_alpha == 0.0)
        np.testing.assert_array_equal(sol.p_alpha.p, op.adjoint(v) / (2.0 * b_max))


def test_fista_rejects_tv():
    with pytest.raises(ValueError, match="l1 only, not 'tv_aniso'"):
        solve_fista(identity_map(4), np.ones(4), 0.1, tv_aniso(4))


def test_fista_rejects_quadratic():
    # quadratic J has one solver, CG: solve_variational and solve_columns never sent it to FISTA
    with pytest.raises(ValueError, match="l1 only, not 'quadratic'"):
        solve_fista(identity_map(4), np.ones(4), 0.1, quadratic())


def _fista_problem(name):
    if name == "dense-14x10":
        v = substream(0, "iteration-counts").standard_normal(14)
        return make_random_dense(14, 10, seed=11), v, 0.2
    if name == "identity-4":
        return identity_map(4), np.array([1.0, -0.2, 0.4, 0.0]), 0.3
    return make_dense([[1.0, 1.0]]), np.array([2.0]), 0.1


# objectives 0.5*||Fu-v||^2 + alpha*J(u) from the FISTA loop with objective
# restart that the shared accelerated kernel replaced, run at tol 1e-12
REPLACED_FISTA_OBJECTIVE = {
    ("dense-14x10", "l1"): 2.96478803520821,
    ("identity-4", "l1"): 0.35,
    ("one-row", "l1"): 0.195,
}


@pytest.mark.parametrize("name, kind", sorted(REPLACED_FISTA_OBJECTIVE))
def test_fista_matches_replaced_loop(name, kind):
    op, v, alpha = _fista_problem(name)
    reg, cfg = l1(), SolverConfig(tol=1e-12)
    sol = solve_fista(op, v, alpha, reg, cfg)
    obj = sol.data_residual + alpha * sol.J_value
    ref = REPLACED_FISTA_OBJECTIVE[name, kind]
    assert abs(obj - ref) <= 1e-7 * (1.0 + abs(ref))
    assert sol.optimality_defect <= cfg.tol * (1.0 + np.linalg.norm(op.adjoint(v)))
    assert is_subgradient(reg, sol.u_alpha, sol.p_alpha).ok


@settings(max_examples=50, deadline=None, derandomize=True)
@given(m=st.integers(1, 12), n=st.integers(1, 10), alpha=st.floats(1e-3, 10.0),
       tol=st.sampled_from([1e-8, 1e-10, 1e-12]), seed=st.integers(0, 2**32 - 1))
def test_fista_certificate_property(m, n, alpha, tol, seed):
    # the certifying prox step meets the defect target, its subgradient is a
    # member, and the returned pair reproduces the reported defect
    op = make_random_dense(m, n, seed=seed)
    v = substream(seed, "fista-property").standard_normal(m)
    reg, cfg = l1(), SolverConfig(tol=tol)
    sol = solve_fista(op, v, alpha, reg, cfg)
    assert sol.optimality_defect <= tol * (1.0 + np.linalg.norm(op.adjoint(v)))
    assert is_subgradient(reg, sol.u_alpha, sol.p_alpha).ok
    defect = np.linalg.norm(op.adjoint(op.apply(sol.u_alpha) - v) + alpha * sol.p_alpha.p)
    assert abs(defect - sol.optimality_defect) <= 1e-12 * max(sol.optimality_defect, 1e-300)


def test_primal_dual_constant_data():
    # constant data is TV-free, so the minimizer is the data itself
    op = identity_map(5)
    v = np.full(5, 2.0)
    sol = solve_primal_dual(op, v, 0.3, tv_aniso(5), SolverConfig(tol=1e-10))
    np.testing.assert_allclose(sol.u_alpha, v, atol=1e-8)
    assert sol.J_value <= 1e-8


def test_primal_dual_step_profile():
    # denoising a step: interior levels shrink toward each other by alpha/2
    # on each side while the jump survives (closed form for this profile)
    op = identity_map(4)
    v = np.array([0.0, 0.0, 1.0, 1.0])
    alpha = 0.4
    sol = solve_primal_dual(op, v, alpha, tv_aniso(4), SolverConfig(tol=1e-10))
    np.testing.assert_allclose(sol.u_alpha, [0.2, 0.2, 0.8, 0.8], atol=1e-7)
    assert abs(sol.J_value - (1.0 - alpha)) <= 1e-7
    assert is_subgradient(tv_aniso(4), sol.u_alpha, sol.p_alpha, tol=1e-6).ok


def test_primal_dual_objective_not_beaten_by_grid():
    # coarse brute force over piecewise levels cannot beat the solver
    op = identity_map(4)
    v = np.array([0.0, 0.0, 1.0, 1.0])
    alpha, reg = 0.4, tv_aniso(4)
    sol = solve_primal_dual(op, v, alpha, reg, SolverConfig(tol=1e-10))

    def objective(u):
        r = u - v
        return 0.5 * r @ r + alpha * reg.value(u)

    best = objective(sol.u_alpha)
    grid = np.linspace(-0.5, 1.5, 41)
    for a in grid:
        for b in grid:
            cand = np.array([a, a, b, b])
            assert objective(cand) >= best - 1e-9


def test_primal_dual_large_alpha_clamps_to_mean():
    op = identity_map(4)
    v = np.array([0.0, 0.0, 1.0, 1.0])
    sol = solve_primal_dual(op, v, 1.2, tv_aniso(4), SolverConfig(tol=1e-10))
    np.testing.assert_allclose(sol.u_alpha, np.full(4, 0.5), atol=1e-7)


def test_primal_dual_validation_and_budget():
    with pytest.raises(ValueError, match="tv_aniso"):
        solve_primal_dual(identity_map(4), np.ones(4), 0.1, l1())
    with pytest.raises(ValueError, match="shape"):
        solve_primal_dual(identity_map(4), np.ones(4), 0.1, tv_aniso(5))
    with pytest.raises(SolverError):
        solve_primal_dual(
            identity_map(4), [0.0, 0.0, 1.0, 1.0], 0.4, tv_aniso(4),
            SolverConfig(max_iters=2, tol=1e-14),
        )


def test_dispatcher_routes_by_kind():
    op = identity_map(4)
    v = np.array([1.0, 0.5, -0.2, 0.0])
    assert solve_variational(op, v, 0.3, quadratic()).J_value == pytest.approx(
        solve_tikhonov_exact(op, v, 0.3).J_value
    )
    assert solve_variational(op, v, 0.3, l1()).J_value == pytest.approx(
        solve_fista(op, v, 0.3, l1()).J_value
    )
    assert solve_variational(op, v, 0.3, tv_aniso(4)).J_value == pytest.approx(
        solve_primal_dual(op, v, 0.3, tv_aniso(4)).J_value, abs=1e-8
    )
    with pytest.raises(ValueError, match="unknown regularizer"):
        solve_variational(op, v, 0.3, Regularizer(kind="huber"))


def _tv_problem(name):
    if name == "dense-1d":
        v = substream(0, "pd-equivalence").standard_normal(14)
        return make_random_dense(14, 10, seed=11), tv_aniso(10), v, 0.2
    if name == "identity-3x4":
        v = substream(1, "pd-equivalence").standard_normal(12)
        return identity_map(12), tv_aniso((3, 4)), v, 0.3
    op, reg, v = radon_phantom_problem(16)
    return op, reg, v, 0.1


# objectives 0.5*||Fu-v||^2 + alpha*TV(u) from the Cholesky data-prox
# primal-dual solver this one replaced, run at tol 1e-12
REPLACED_SOLVER_OBJECTIVE = {
    "dense-1d": 5.473239906299086,
    "identity-3x4": 2.80686163576192,
    "radon-16": 3.0986749725314615,
}


@pytest.mark.parametrize("name", sorted(REPLACED_SOLVER_OBJECTIVE))
def test_primal_dual_matches_replaced_solver(name):
    op, reg, v, alpha = _tv_problem(name)
    cfg = SolverConfig()
    sol = solve_primal_dual(op, v, alpha, reg, cfg)
    obj = sol.data_residual + alpha * sol.J_value
    ref = REPLACED_SOLVER_OBJECTIVE[name]
    assert abs(obj - ref) <= 1e-7 * (1.0 + abs(ref))
    assert sol.optimality_defect <= cfg.tol * (1.0 + np.linalg.norm(op.adjoint(v)))
    assert is_subgradient(reg, sol.u_alpha, sol.p_alpha).ok


@pytest.mark.parametrize("name", ["dense-1d", "radon-16"])
def test_primal_dual_certifies_unrelaxed_pair(name):
    # the over-relaxed dual may leave the box |q| <= alpha; the returned
    # witness is the clipped dual of the unrelaxed step, and the returned
    # fields reproduce the reported defect
    op, reg, v, alpha = _tv_problem(name)
    sol = solve_primal_dual(op, v, alpha, reg)
    assert np.max(np.abs(sol.p_alpha.dual)) <= 1.0
    assert is_subgradient(reg, sol.u_alpha, sol.p_alpha).ok
    defect = np.linalg.norm(op.adjoint(op.apply(sol.u_alpha) - v) + alpha * sol.p_alpha.p)
    assert abs(defect - sol.optimality_defect) <= 1e-12 * sol.optimality_defect


def _diag_product_primal_dual(op, v, alpha, reg, cfg):
    """The primal-dual loop with its steps folded into K by sp.diags products
    and its box clip by np.clip, transcribed as it stood before row scaling
    and ufunc clipping replaced them, with the solver's exit rule (the slack
    within 0.5*tol*alpha*(1 + ||Du||_1)).  Returns (iterations, u_hat, p,
    defect) at its first certified check."""
    d_mat, dt_mat, f_mat = reg.D.matrix, reg.D.matrix.T.tocsr(), op.matrix
    if sp.issparse(f_mat):
        k_mat = sp.vstack([f_mat, d_mat]).tocsr()
    else:
        k_mat = np.vstack([f_mat, d_mat.toarray()])
    abs_k = abs(k_mat)
    tau = _STEP_SAFETY / np.asarray(abs_k.sum(axis=0)).ravel()
    sig = 1.0 / np.maximum(np.asarray(abs_k.sum(axis=1)).ravel(), 1e-30)
    k_sig = sp.diags(sig) @ k_mat
    kt_tau2 = sp.diags(2.0 * tau) @ k_mat.T
    m = op.out_dim
    target = cfg.tol * (1.0 + np.linalg.norm(op.adjoint(v)))
    u = np.zeros(op.in_dim)
    u_ext = np.empty_like(u)
    z = np.zeros(k_mat.shape[0])
    sig_v = sig[:m] * v
    damp = 1.0 / (1.0 + sig[:m])
    for iterations in range(1, cfg.max_iters + 1):
        d = kt_tau2 @ z
        w = k_sig @ np.subtract(u, d, out=u_ext)
        w += z
        y, q = w[:m], w[m:]
        y -= sig_v
        y *= damp
        np.clip(q, -alpha, alpha, out=q)
        if iterations % 25 == 0:
            u_hat = u - 0.5 * d
            residual = op.matrix @ u_hat - v
            du = d_mat @ u_hat
            p = (dt_mat @ q) / alpha
            defect = np.linalg.norm(op.matrix.T @ residual + alpha * p)
            tv_val = float(np.sum(np.abs(du)))
            compl = alpha * tv_val - float(np.dot(q, du))
            if defect <= target and compl <= 0.5 * cfg.tol * alpha * (1.0 + tv_val):
                return iterations, u_hat, p, defect
        d *= 0.5 * 1.7
        u -= d
        w -= z
        w *= 1.7
        z += w
    raise AssertionError("the transcribed loop did not certify")


def _certify_dense_tv_problem(i):
    # certify-dense's shapes: n = 6 + i % 11 unknowns, n + 4 + i % 7 rows
    n = 6 + i % 11
    op = make_random_dense(n + 4 + i % 7, n, seed=100 + i)
    rng = substream(i, "pd-row-scaling")
    return op, tv_aniso(n), rng.standard_normal(op.out_dim), float(rng.uniform(0.05, 0.5))


@pytest.mark.parametrize("name", ["dense-1d", "certify-0", "certify-5", "certify-10", "certify-23"])
def test_primal_dual_matches_diag_product_loop_bit_for_bit(name):
    # dense K: the row-scaled products and the ufunc clip round exactly as the
    # sp.diags products and np.clip did
    if name == "dense-1d":
        (op, reg, v, alpha), cfg = _tv_problem(name), SolverConfig()
    else:
        (op, reg, v, alpha), cfg = _certify_dense_tv_problem(int(name[8:])), SolverConfig(tol=1e-10)
    sol = solve_primal_dual(op, v, alpha, reg, cfg)
    iterations, u, p, defect = _diag_product_primal_dual(op, v, alpha, reg, cfg)
    assert sol.iterations == iterations
    assert np.array_equal(sol.u_alpha, u)
    assert np.array_equal(sol.p_alpha.p, p)
    assert sol.optimality_defect == defect


def test_primal_dual_matches_diag_product_loop_on_csr():
    # CSR K: the row-scaled copies keep K's sorted column order, where the
    # sp.diags products reversed each row, so sums round differently
    op, reg, v, alpha = _tv_problem("radon-16")
    cfg = SolverConfig()
    sol = solve_primal_dual(op, v, alpha, reg, cfg)
    iterations, u, p, _ = _diag_product_primal_dual(op, v, alpha, reg, cfg)
    assert sol.iterations == iterations == 1000
    assert np.linalg.norm(sol.u_alpha - u) <= 1e-12 * np.linalg.norm(u)
    assert np.linalg.norm(sol.p_alpha.p - p) <= 1e-12 * np.linalg.norm(p)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(n=st.integers(2, 10), extra_rows=st.integers(0, 4),
       alpha=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
def test_primal_dual_certificate_property(n, extra_rows, alpha, seed):
    # full-column-rank F (singular values in [0.5, 1.5]) with 1-d TV; a
    # rank-deficient F that nearly annihilates constants makes [F; D] nearly
    # singular and can exhaust the default budget
    op = make_random_dense(n + extra_rows, n, seed=seed)
    v = substream(seed, "pd-property").standard_normal(op.out_dim)
    reg, cfg = tv_aniso(n), SolverConfig()
    sol = solve_primal_dual(op, v, alpha, reg, cfg)
    assert sol.optimality_defect <= cfg.tol * (1.0 + np.linalg.norm(op.adjoint(v)))
    assert is_subgradient(reg, sol.u_alpha, sol.p_alpha).ok


def test_primal_dual_operator_without_matrix():
    # convolution is stored as a sparse circulant: the solve on it matches the dense one
    op = make_convolution([0.25, 0.5, 0.25], 32)
    assert sp.issparse(op.matrix)
    reg, alpha = tv_aniso(32), 0.1
    v = substream(2, "pd-equivalence").standard_normal(32)
    cfg = SolverConfig()
    sol = solve_primal_dual(op, v, alpha, reg, cfg)
    assert sol.optimality_defect <= cfg.tol * (1.0 + np.linalg.norm(op.adjoint(v)))
    assert is_subgradient(reg, sol.u_alpha, sol.p_alpha).ok
    dense = make_dense(np.column_stack([op.apply(e) for e in np.eye(32)]))
    ref = solve_primal_dual(dense, v, alpha, reg, cfg)
    obj = sol.data_residual + alpha * sol.J_value
    obj_ref = ref.data_residual + alpha * ref.J_value
    assert abs(obj - obj_ref) <= 1e-8 * abs(obj_ref)


@pytest.mark.parametrize("kind", ["quadratic", "l1", "tv"])
def test_solution_certificates(kind):
    # defect target and subgradient membership on seeded random instances
    cfg = SolverConfig(tol=1e-9)
    rng = substream(2, f"cert-{kind}")
    reg = {"quadratic": quadratic(), "l1": l1(), "tv": tv_aniso(10)}[kind]
    for trial in range(25):
        op = make_random_dense(14, 10, seed=1000 + trial)
        v = rng.standard_normal(14)
        alpha = float(rng.uniform(0.05, 0.5))
        sol = solve_variational(op, v, alpha, reg, cfg)
        target = cfg.tol * (1.0 + np.linalg.norm(op.adjoint(v)))
        assert sol.optimality_defect <= target
        assert is_subgradient(reg, sol.u_alpha, sol.p_alpha, tol=1e-6).ok
        res = op.apply(sol.u_alpha) - v
        assert abs(sol.data_residual - 0.5 * res @ res) <= 1e-10 * (1.0 + sol.data_residual)
        assert abs(sol.J_value - reg.value(sol.u_alpha)) <= 1e-10 * (1.0 + sol.J_value)


def test_output_uniqueness_degenerate_l1():
    # F = [1, 1] has a segment of minimizers; the output Fu and the symmetric
    # Bregman distance must still agree across starts
    op = make_dense(np.array([[1.0, 1.0]]))
    v = np.array([2.0])
    cfg = SolverConfig(tol=1e-10)
    s1 = solve_fista(op, v, 0.1, l1(), cfg)
    s2 = solve_fista(op, v, 0.1, l1(), cfg, u0=perturbed_start(2, seed=9, scale=0.5))
    tol = cfg.tol * (1.0 + np.linalg.norm(op.adjoint(v)))
    assert np.linalg.norm(op.apply(s1.u_alpha) - op.apply(s2.u_alpha)) <= 10 * tol
    d = symmetric_bregman(l1(), s1.u_alpha, s2.u_alpha, s1.p_alpha, s2.p_alpha,
                          membership_tol=1e-6)
    assert d <= 10 * tol


def test_output_uniqueness_degenerate_tv():
    # F u = u_0 - u_2 ignores constants and the middle level, leaving a
    # multi-dimensional minimizer set
    op = make_dense(np.array([[1.0, 0.0, -1.0]]))
    v = np.array([2.0])
    cfg = SolverConfig(tol=1e-10)
    reg = tv_aniso(3)
    s1 = solve_primal_dual(op, v, 0.1, reg, cfg)
    s2 = solve_primal_dual(op, v, 0.1, reg, cfg, u0=perturbed_start(3, seed=4, scale=0.5))
    tol = cfg.tol * (1.0 + np.linalg.norm(op.adjoint(v)))
    assert np.linalg.norm(op.apply(s1.u_alpha) - op.apply(s2.u_alpha)) <= 10 * tol
    d = symmetric_bregman(reg, s1.u_alpha, s2.u_alpha, s1.p_alpha, s2.p_alpha,
                          membership_tol=1e-6)
    assert d <= 10 * tol


@pytest.mark.parametrize("kind", ["quadratic", "l1", "tv"])
def test_stability_estimate_sampled(kind):
    # 0.5*||F(u - u~)||^2 + alpha*d_sym <= 0.5*||v - v~||^2 on random pairs
    cfg = SolverConfig(tol=1e-10)
    rng = substream(3, f"stab-{kind}")
    reg = {"quadratic": quadratic(), "l1": l1(), "tv": tv_aniso(8)}[kind]
    for trial in range(25):
        op = make_random_dense(12, 8, seed=2000 + trial)
        v = rng.standard_normal(12)
        v_t = v + 0.3 * rng.standard_normal(12)
        alpha = float(rng.uniform(0.05, 0.5))
        s = solve_variational(op, v, alpha, reg, cfg)
        s_t = solve_variational(op, v_t, alpha, reg, cfg)
        d = symmetric_bregman(reg, s_t.u_alpha, s.u_alpha, s_t.p_alpha, s.p_alpha,
                              membership_tol=1e-5)
        out = op.apply(s.u_alpha) - op.apply(s_t.u_alpha)
        lhs = 0.5 * out @ out + alpha * d
        rhs = 0.5 * np.dot(v - v_t, v - v_t)
        assert lhs <= rhs + 10 * cfg.tol * (1.0 + rhs)


def test_accelerated_projected_gradient_box():
    c = np.array([2.0, -1.0, 0.5, 0.3])
    x, mapping, iters = accelerated_projected_gradient(
        grad_fn=lambda x: x - c,
        project=lambda x: np.clip(x, 0.0, 1.0),
        lip=1.0,
        x0=np.zeros(4),
        tol=1e-12,
    )
    np.testing.assert_allclose(x, [1.0, 0.0, 0.5, 0.3], atol=1e-10)
    assert mapping <= 1e-12
    assert iters < 100


def test_accelerated_projected_gradient_stops_on_non_finite_gradient():
    x, mapping, iters = accelerated_projected_gradient(
        grad_fn=lambda x: x * np.nan,
        project=lambda x: x,
        lip=1.0,
        x0=np.ones(3),
        tol=1e-12,
    )
    assert iters == 1
    assert np.isnan(mapping)


@pytest.mark.parametrize("shape", [(3,), (3, 2)], ids=["vector", "block"])
def test_accelerated_projected_gradient_stops_on_infinite_mapping(shape):
    # a step of -inf gives an infinite mapping: stop there, before the momentum
    # update forms 0 * inf (an invalid-value warning, an error in this suite)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, mapping, iters = accelerated_projected_gradient(lambda x: x * np.inf, lambda x: x, 1.0,
                                                           np.ones(shape), 1e-12)
    assert np.all(iters == 1) and np.all(mapping == np.inf)
    assert x.shape == shape and np.all(x == -np.inf)


def test_perturbed_start_is_deterministic():
    a = perturbed_start(6, seed=3)
    b = perturbed_start(6, seed=3)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, perturbed_start(6, seed=4))
    np.testing.assert_allclose(perturbed_start(6, seed=3, scale=0.2), 2.0 * a)


class _GoesNaN:
    """Wraps an operator's raw kernel; returns NaN from call ``start`` on."""

    def __init__(self, fn, start):
        self.fn, self.start, self.calls = fn, start, 0

    def __call__(self, u):
        self.calls += 1
        out = self.fn(u)
        return out * np.nan if self.calls >= self.start else out


@pytest.mark.parametrize("solver", ["cg", "fista", "source", "primal-dual"])
def test_non_finite_iterate_fails_fast(solver):
    op = make_random_dense(10, 6, seed=3)
    a = op.matrix
    op._apply = apply_fn = _GoesNaN(op._apply, start=10**9)
    v = substream(0, "nan").standard_normal(10)
    # FISTA's norm estimate runs before its loop; keep it finite, then break
    # F a few calls into the loop (primal-dual first applies F at its first check)
    operator_norm_estimate(op, iters=200, seed=0)
    apply_fn.start = apply_fn.calls + (1 if solver == "primal-dual" else 5)
    with pytest.raises(SolverError, match="not finite"):
        if solver == "cg":
            solve_tikhonov_exact(op, v, 0.1, SolverConfig(tol=1e-14))
        elif solver == "fista":
            solve_fista(op, v, 0.1, l1(), SolverConfig(tol=1e-14))
        elif solver == "primal-dual":
            solve_primal_dual(op, v, 0.1, tv_aniso(6), SolverConfig(tol=1e-14))
        else:
            solve_source_element(op, a.T @ v)
    # raised within a few iterations of the first NaN, not after max_iters
    assert apply_fn.calls - apply_fn.start <= 6


# -- block solves ----------------------------------------------------------------

def _block_problem(k=12, seed=3):
    op = make_random_dense(14, 10, seed=seed)
    data = substream(seed, "block").standard_normal((op.out_dim, k))
    alphas = np.geomspace(1e-3, 1.0, k)[::-1]
    return op, data, alphas


def _mixed_block(alphas, lip):
    """The prox of a block whose odd columns are l1 problems and the others
    quadratic, each at its own alpha, and a maker of each column's own prox."""
    is_l1 = np.arange(alphas.size) % 2 == 1

    def prox(z, thresh, l1_cols):
        return np.where(l1_cols, np.sign(z) * np.maximum(np.abs(z) - thresh, 0.0), z / (1.0 + thresh))

    def column(j):
        return lambda z: prox(z, alphas[j] / lip, is_l1[j])

    return lambda z: prox(z, alphas / lip, is_l1), column


def test_block_kernel_mixed_quadratic_and_l1_columns():
    # one block with quadratic and l1 columns at mixed alphas: every column
    # stops, restarts and iterates as it does alone
    op, data, alphas = _block_problem()
    a = op.matrix
    lip = np.linalg.norm(a, 2) ** 2
    prox, prox_of = _mixed_block(alphas, lip)
    tol = 1e-9 * (1.0 + np.linalg.norm(a.T @ data, axis=0))
    x, mapping, iters = accelerated_projected_gradient(
        lambda y: a.T @ (a @ y - data), prox, lip, np.zeros((10, alphas.size)), tol)
    assert len(set(iters.tolist())) > 1  # the columns stop at different steps
    for j in range(alphas.size):
        x_j, map_j, it_j = accelerated_projected_gradient(
            lambda y: a.T @ (a @ y - data[:, j]), prox_of(j), lip, np.zeros(10), tol[j])
        assert iters[j] == it_j
        assert mapping[j] <= tol[j] and map_j <= tol[j]
        np.testing.assert_allclose(x[:, j], x_j, rtol=0.0, atol=1e-12)


def test_block_kernel_column_whose_gradient_turns_nan():
    # column 3's gradient turns NaN once its iterate's entry 0 leaves zero,
    # mid-run; it stops there with a NaN mapping, as it does alone, while the
    # other columns keep their iterations and values
    op, data, alphas = _block_problem()
    a = op.matrix
    lip = np.linalg.norm(a, 2) ** 2
    prox, prox_of = _mixed_block(alphas, lip)
    tol = 1e-12 * (1.0 + np.linalg.norm(a.T @ data, axis=0))
    bad, entry = 3, 0

    def grad(y):
        g = a.T @ (a @ y - data)
        if y[entry, bad] != 0.0:
            g[:, bad] = np.nan
        return g

    def grad_of(j, poisoned):
        def grad_j(y):
            g = a.T @ (a @ y - data[:, j])
            return g * np.nan if poisoned and y[entry] != 0.0 else g
        return grad_j

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, mapping, iters = accelerated_projected_gradient(grad, prox, lip, np.zeros((10, alphas.size)), tol)
        _, map_bad, it_bad = accelerated_projected_gradient(grad_of(bad, True), prox_of(bad), lip,
                                                            np.zeros(10), tol[bad])
        _, _, it_clean = accelerated_projected_gradient(grad_of(bad, False), prox_of(bad), lip,
                                                        np.zeros(10), tol[bad])
        assert 1 < it_bad < it_clean  # the gradient turns NaN mid-run
        assert iters[bad] == it_bad and np.isnan(mapping[bad]) and np.isnan(map_bad)
        assert np.all(np.isnan(x[:, bad]))
        for j in set(range(alphas.size)) - {bad}:
            x_j, map_j, it_j = accelerated_projected_gradient(grad_of(j, False), prox_of(j), lip,
                                                              np.zeros(10), tol[j])
            assert iters[j] == it_j and mapping[j] <= tol[j]
            np.testing.assert_allclose(x[:, j], x_j, rtol=0.0, atol=1e-15)


def test_block_kernel_callbacks_see_the_full_block():
    # columns stop at different steps, yet every callback gets all k columns
    op, data, alphas = _block_problem()
    a = op.matrix
    lip = np.linalg.norm(a, 2) ** 2
    prox, _ = _mixed_block(alphas, lip)
    shapes = []

    def grad(y):
        shapes.append(y.shape)
        return a.T @ (a @ y - data)

    def project(z):
        shapes.append(z.shape)
        return prox(z)

    _, _, iters = accelerated_projected_gradient(grad, project, lip, np.zeros((10, alphas.size)), 1e-9)
    assert len(set(iters.tolist())) > 1
    assert len(shapes) > 2 * iters.max() and set(shapes) == {(10, alphas.size)}


def _assert_columns_match(op, data, alphas, reg, cfg, sol, atol):
    """Every column of a block solution against the vector solve of that column."""
    assert isinstance(sol, RegularizedSolution) and sol.u_alpha.shape == (op.in_dim, alphas.size)
    assert sol.p_alpha.p.shape == sol.u_alpha.shape
    for field in (sol.alpha, sol.data_residual, sol.J_value, sol.optimality_defect, sol.iterations):
        assert field.shape == alphas.shape
    np.testing.assert_array_equal(sol.alpha, alphas)
    for j in range(alphas.size):
        one = solve_variational(op, data[:, j].copy(), alphas[j], reg, cfg)  # a contiguous vector
        assert sol.iterations[j] == one.iterations
        assert sol.optimality_defect[j] <= cfg.tol * (1.0 + np.linalg.norm(op.adjoint(data[:, j])))
        np.testing.assert_allclose(sol.u_alpha[:, j], one.u_alpha, rtol=0.0, atol=atol)
        np.testing.assert_allclose(sol.p_alpha.p[:, j], one.p_alpha.p, rtol=0.0, atol=1e3 * atol)
        assert sol.J_value[j] == pytest.approx(one.J_value, rel=1e-12, abs=1e-15)
        assert sol.data_residual[j] == pytest.approx(one.data_residual, rel=1e-12, abs=1e-15)
        assert sol.optimality_defect[j] == pytest.approx(one.optimality_defect, rel=1e-6, abs=1e-15)
        if reg.kind == "tv_aniso":
            np.testing.assert_allclose(sol.p_alpha.dual[:, j], one.p_alpha.dual, rtol=0.0, atol=1e3 * atol)
        else:
            assert sol.p_alpha.dual is None
    assert is_subgradient(reg, sol.u_alpha, sol.p_alpha).ok.all()


@pytest.mark.parametrize("kind", ["quadratic", "l1", "tv_aniso"])
def test_solve_columns_matches_single_solves(kind):
    op, data, alphas = _block_problem()
    reg = {"quadratic": quadratic(), "l1": l1(), "tv_aniso": tv_aniso(10)}[kind]
    cfg = SolverConfig(tol=1e-10)
    _assert_columns_match(op, data, alphas, reg, cfg, solve_columns(op, data, alphas, reg, cfg), 1e-13)


def test_solve_columns_mixes_zero_and_iterated_l1_columns():
    # each column takes its vector solve's path and count: the closed form where
    # max|F*v_j| <= alpha_j (above, at, and on zero data), FISTA elsewhere
    op, data, _ = _block_problem(k=5)
    data[:, 3] = 0.0
    b_max = np.array([np.abs(op.adjoint(col)).max() for col in data.T])
    alphas = np.array([2.0, 0.5, 1.0, 1.0, 0.995]) * b_max
    alphas[3] = 0.1
    cfg = SolverConfig(tol=1e-10)
    sol = solve_columns(op, data, alphas, l1(), cfg)
    np.testing.assert_array_equal(sol.iterations == 0, [True, False, True, True, False])
    _assert_columns_match(op, data, alphas, l1(), cfg, sol, 1e-13)


@pytest.mark.parametrize("kind", ["l1-convolution", "tv-radon16"])
def test_solve_columns_on_sparse_operators(kind):
    # CSR products sum each column as a matvec does: the block matches the vector solves bit for bit
    if kind == "l1-convolution":
        op, reg = make_convolution([0.25, 0.5, 0.25], 14), l1()
        _, data, alphas = _block_problem(k=4)
    else:
        op, reg, v = radon_phantom_problem(16)
        data, alphas = np.column_stack([v, 0.5 * v, np.zeros_like(v)]), np.array([0.03, 0.1, 0.05])
    sol = solve_columns(op, data, alphas, reg)
    _assert_columns_match(op, data, alphas, reg, SolverConfig(), sol, 0.0)


@pytest.mark.parametrize("kind", ["quadratic", "tv_aniso"])
def test_solve_columns_zero_data_column_certifies(kind):
    op, data, alphas = _block_problem(k=3)
    data[:, 1] = 0.0
    reg = quadratic() if kind == "quadratic" else tv_aniso(10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve_columns(op, data, alphas, reg)
    assert np.all(sol.u_alpha[:, 1] == 0.0) and sol.optimality_defect[1] == 0.0
    assert sol.J_value[1] == 0.0 and sol.data_residual[1] == 0.0


def test_solve_columns_names_the_column_that_fails():
    # zero data certifies at once; the second column cannot within one step
    op, data, alphas = _block_problem(k=2)
    data[:, 0] = 0.0
    with pytest.raises(SolverError, match="FISTA column 1 stalled") as err:
        solve_columns(op, data, alphas, l1(), SolverConfig(max_iters=1))
    assert np.isfinite(err.value.defect)


def test_solve_columns_names_the_cg_column_that_fails():
    op, data, alphas = _block_problem(k=3)
    data[:, 0] = 0.0
    with pytest.raises(SolverError, match="CG column 1 stalled") as err:
        solve_columns(op, data, alphas, quadratic(), SolverConfig(max_iters=1))
    assert np.isfinite(err.value.defect)


def test_solve_columns_names_the_primal_dual_column_that_stalls():
    # a one-row F that nearly annihilates constants stalls (see the vector test
    # below); the same F with other data certifies in the same block
    op, reg = make_random_dense(1, 4, seed=51394), tv_aniso(4)
    assert solve_primal_dual(op, [0.0], 0.4306, reg, SolverConfig(max_iters=2000)).iterations == 25
    with pytest.raises(SolverError, match="primal-dual column 1 stalled") as err:
        solve_columns(op, [[0.0, 1.0, 0.0]], [0.4306, 0.4306, 0.4306], reg, SolverConfig(max_iters=2000))
    assert np.isfinite(err.value.defect) and err.value.defect > 0.0


def test_solve_columns_validates_before_solving():
    op, data, alphas = _block_problem(k=3)
    with pytest.raises(ValueError, match="alpha"):
        solve_columns(op, data, [0.1, -1.0, 0.1], l1())
    with pytest.raises(ValueError, match="shape"):
        solve_columns(op, data[:, 0], alphas[:1], l1())
    with pytest.raises(DimensionMismatchError, match="k >= 1"):
        solve_columns(op, data[:, :0], alphas[:0], l1())
    data[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        solve_columns(op, data, alphas, l1())


@pytest.mark.parametrize("solve", [
    lambda op, v: solve_fista(op, v, 0.2, l1()),
    lambda op, v: solve_tikhonov_exact(op, v, 0.2),
    lambda op, v: solve_primal_dual(op, v, 0.2, tv_aniso(10)),
], ids=["fista", "cg", "primal-dual"])
def test_vector_solvers_return_one_solution(solve):
    op, data, _ = _block_problem(k=1)
    sol = solve(op, data[:, 0])
    assert isinstance(sol, RegularizedSolution)
    assert type(sol.iterations) is int


def test_primal_dual_stall_raises_with_finite_defect():
    # a one-row F that nearly annihilates constants leaves [F; D] nearly
    # singular; the solve must end in SolverError, not overflow or hang
    op = make_random_dense(1, 4, seed=51394)
    with pytest.raises(SolverError, match="stalled") as err:
        solve_primal_dual(op, [1.0], 0.4306, tv_aniso(4), SolverConfig(max_iters=2000))
    assert np.isfinite(err.value.defect) and err.value.defect > 0.0


@pytest.mark.parametrize("solve, reg", [
    (lambda op, v, reg: solve_tikhonov_exact(op, v, 0.1), quadratic()),
    (lambda op, v, reg: solve_fista(op, v, 0.1, reg), l1()),
    (lambda op, v, reg: solve_primal_dual(op, v, 0.1, reg), tv_aniso(10)),
], ids=["cg", "fista", "pd"])
def test_strided_data_solves_as_its_contiguous_copy(solve, reg):
    # a column of a C-ordered block is a strided view; the solve must not
    # depend on the data's memory layout, to the bit
    op = make_random_dense(14, 10, seed=3)
    V = substream(3, "strided").standard_normal((14, 12))
    for j in range(V.shape[1]):
        assert not V[:, j].flags.c_contiguous
        strided, copied = solve(op, V[:, j], reg), solve(op, V[:, j].copy(), reg)
        np.testing.assert_array_equal(strided.u_alpha, copied.u_alpha)


def test_primal_dual_from_a_poor_dual_start_certifies_the_same_solution():
    # a solution given as u0 starts the duals as well: the edge dual alpha*p.dual and the
    # data dual F u0 - v; an edge dual of +alpha on every edge is far from the optimum's
    op, reg, v = radon_phantom_problem(16)
    cfg = SolverConfig(tol=1e-9)
    cold = solve_primal_dual(op, v, 0.1, reg, cfg)
    zero = np.zeros(op.in_dim)
    poor = RegularizedSolution(zero, Subgradient(zero, np.ones(reg.D.out_dim)), 0.1, 0.0, 0.0, 0.0, 0)
    sol = solve_primal_dual(op, v, 0.1, reg, cfg, u0=poor)
    target = cfg.tol * (1.0 + np.linalg.norm(op.adjoint(v)))
    assert sol.iterations != cold.iterations  # the dual start was taken
    assert sol.optimality_defect <= target and is_subgradient(reg, sol.u_alpha, sol.p_alpha).ok
    assert np.linalg.norm(sol.u_alpha - cold.u_alpha) <= target
    short = RegularizedSolution(zero, Subgradient(zero, np.ones(reg.D.out_dim - 1)), 0.1, 0.0, 0.0, 0.0, 0)
    with pytest.raises(DimensionMismatchError, match="dual start"):
        solve_primal_dual(op, v, 0.1, reg, cfg, u0=short)


def test_primal_dual_loop_writes_its_products_into_two_buffers(monkeypatch):
    # sigma*K and 2*tau*K^T write into buffers made once per solve, one call each per iteration
    op, reg, v = radon_phantom_problem(16)
    k_shape = (op.out_dim + reg.D.out_dim, op.in_dim)
    outs = {k_shape: [], k_shape[::-1]: []}
    kernel = core.csr_matvec

    def recording(rows, cols, indptr, indices, data, x, out):
        outs.get((rows, cols), []).append(out)
        kernel(rows, cols, indptr, indices, data, x, out)

    monkeypatch.setattr(core, "csr_matvec", recording)
    assert solve_primal_dual(op, v, 0.1, reg).iterations == 1000
    for shape, buffers in outs.items():
        assert len(buffers) == 1000, shape
        assert all(out is buffers[0] for out in buffers), shape


@pytest.mark.parametrize("make_op", [lambda: make_random_dense(10, 10, seed=3),
                                     lambda: make_convolution([0.25, 0.5, 0.25], 10)], ids=["dense", "csr"])
def test_primal_dual_builds_its_setup_once_per_operator_and_regularizer(monkeypatch, make_op):
    # K = [F; D], its steps and the two row-scaled copies are built by the first solve on an
    # operator and regularizer; a solve at another alpha, or with an equal regularizer, builds none
    op, v = make_op(), substream(3, "setup").standard_normal(10)
    built, row_scaled = [], solvers._row_scaled
    monkeypatch.setattr(solvers, "_row_scaled", lambda m, s: built.append(row_scaled(m, s)) or built[-1])
    first = solve_primal_dual(op, v, 0.2, tv_aniso(10))
    assert len(built) == 2
    assert all(not (m.data if sp.issparse(m) else m).flags.writeable for m in built)
    solve_primal_dual(op, v, 0.05, tv_aniso(10))
    again = solve_primal_dual(op, v, 0.2, tv_aniso(10))
    assert len(built) == 2
    fresh = solve_primal_dual(make_op(), v, 0.2, tv_aniso(10))
    assert len(built) == 4
    for sol in (again, fresh):
        assert sol.iterations == first.iterations
        np.testing.assert_array_equal(sol.u_alpha, first.u_alpha)
        np.testing.assert_array_equal(sol.p_alpha.dual, first.p_alpha.dual)


def _count_sparse_matmul(monkeypatch):
    """Count calls to scipy's sparse ``@`` from here on."""
    calls = []
    matmul = sp._base._spbase.__matmul__

    def counted(self, other):
        calls.append(self.shape)
        return matmul(self, other)

    monkeypatch.setattr(sp._base._spbase, "__matmul__", counted)
    return calls


def test_primal_dual_loop_makes_no_sparse_matmul_dispatch(monkeypatch):
    # the loop's CSR products (K, K^T, D, D^T) call scipy's kernel directly, so scipy's
    # sparse @ is met in set-up only, not once per iteration
    op, reg, v = radon_phantom_problem(16)
    calls = _count_sparse_matmul(monkeypatch)
    sol = solve_primal_dual(op, v, 0.1, reg)
    assert sol.iterations == 1000
    assert len(calls) <= 4, calls  # none today: 1925 at the loop that used @


def test_fista_on_sampled_radon_makes_no_sparse_matmul_dispatch(monkeypatch):
    from varreg import RadonGeometry, draw_design, make_radon, make_sampled
    radon = make_radon(RadonGeometry.regular(16, 12, 12))
    calls = _count_sparse_matmul(monkeypatch)
    op = make_sampled(radon, draw_design(radon.out_dim, 100, 0.0, seed=1))
    v = op.apply(np.linspace(-1.0, 1.0, op.in_dim))
    sol = solve_fista(op, v, 1e-3, l1())
    assert sol.iterations > 10
    assert len(calls) <= 4, calls
