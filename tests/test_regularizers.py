import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from varreg import (
    DimensionMismatchError,
    LinearForwardMap,
    Subgradient,
    SubgradientError,
    bregman_distance,
    identity_map,
    is_subgradient,
    l1,
    quadratic,
    solve_primal_dual,
    subgradient_from_optimality,
    substream,
    symmetric_bregman,
    tv_aniso,
)
from varreg import regularizers
from varreg.regularizers import (
    NEGATIVE_TOLERANCE,
    MembershipResult,
    Regularizer,
    _probe_directions,
    _tv_dual_fit,
    difference_matrix,
)

from conftest import make_regularizer, radon_phantom_problem, subgradient_pair

KINDS = ("quadratic", "l1", "tv")


def test_value_examples():
    assert quadratic().value([3.0, 4.0]) == 12.5
    assert l1().value([1.0, -2.0, 0.0]) == 3.0
    assert tv_aniso(4).value([0.0, 0.0, 1.0, 1.0]) == 1.0
    # 2-d: horizontal then vertical forward differences
    img = np.array([[0.0, 1.0], [0.0, 3.0]]).ravel()
    assert tv_aniso((2, 2)).value(img) == 1.0 + 3.0 + 0.0 + 2.0


def test_unknown_kind_is_rejected_at_construction():
    # an unknown kind would otherwise fall through to the l1 prox and the TV value
    with pytest.raises(ValueError, match="unknown regularizer kind 'huber'"):
        Regularizer("huber")


def test_tv_value_checks_dimension():
    with pytest.raises(DimensionMismatchError):
        tv_aniso(4).value([1.0, 2.0])


def test_prox_examples():
    np.testing.assert_allclose(quadratic().prox(1.0, [2.0, -4.0]), [1.0, -2.0])
    np.testing.assert_allclose(
        l1().prox(0.3, [1.0, -0.2, 0.4]), [0.7, 0.0, 0.1], atol=1e-15
    )
    with pytest.raises(NotImplementedError):
        tv_aniso(4).prox(0.5, [0.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError, match="tau"):
        l1().prox(-0.1, [1.0])


def test_prox_optimality_membership():
    # x - prox(tau, x) must lie in tau * subdifferential at the prox point
    rng = substream(0, "prox")
    for kind in ("quadratic", "l1"):
        reg = make_regularizer(kind, 8)
        for _ in range(50):
            x = 3.0 * rng.standard_normal(8)
            tau = float(rng.uniform(0.1, 2.0))
            u = reg.prox(tau, x)
            assert is_subgradient(reg, u, (x - u) / tau, tol=1e-10).ok


def test_subgradient_from_optimality():
    op = identity_map(3)
    v = np.array([1.0, 2.0, 3.0])
    u = np.array([0.5, 1.0, 1.5])
    sub = subgradient_from_optimality(op, v, u, alpha=2.0)
    np.testing.assert_allclose(sub.p, (v - u) / 2.0)
    with pytest.raises(ValueError, match="alpha"):
        subgradient_from_optimality(op, v, u, alpha=0.0)


def test_is_subgradient_quadratic():
    reg = quadratic()
    u = np.array([1.0, -2.0])
    assert is_subgradient(reg, u, u).ok
    res = is_subgradient(reg, u, u + 0.5)
    assert not res.ok and res.max_violation >= 0.5 - 1e-12


def test_is_subgradient_l1():
    reg = l1()
    u = np.array([0.5, 0.0])
    assert is_subgradient(reg, u, [1.0, 0.3]).ok
    assert is_subgradient(reg, u, [1.0, -1.0]).ok
    assert not is_subgradient(reg, u, [0.5, 0.0]).ok  # on-support must equal sign
    assert not is_subgradient(reg, u, [1.0, 1.5]).ok  # off-support must be in [-1,1]


def test_is_subgradient_tv_with_and_without_witness():
    rng = substream(1, "tv")
    reg = tv_aniso(9)
    u, p, q = subgradient_pair("tv", rng, 9)
    assert is_subgradient(reg, u, p, dual=q).ok
    assert is_subgradient(reg, u, p).ok  # feasibility solve, no witness
    bad = q.copy()
    bad[0] = 3.0
    assert not is_subgradient(reg, u, reg.D.matrix.T @ bad, dual=bad).ok
    # p far from range(D^T): constants are invisible to TV, so a constant
    # vector with nonzero mean cannot be a subgradient
    assert not is_subgradient(reg, u, np.ones(9)).ok


def test_tv_membership_is_continuous_across_a_tiny_jump():
    # a valid witness pair whose flat edge 3 (q_3 = 0.3, not sign(Du_3) = 1) grows a jump t of
    # 0.5e-7 and then 2e-7 (relative to max|Du| = 1): the violation is eps/(1 + J(u)) =
    # 0.7*t/(3 + t) both times, continuous in t, and never |q_3 - sign(Du_3)| = 0.7
    reg = tv_aniso(9)
    u = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0])
    q = np.array([0.2, -0.5, 1.0, 0.3, 0.7, -0.1, 1.0, 0.4])
    p = reg.D.matrix.T @ q
    for dual in (q, None):
        small, large = (is_subgradient(reg, u + t * (np.arange(9) > 3), p, dual=dual).max_violation
                        for t in (0.5e-7, 2e-7))
        assert small == pytest.approx(0.7 * 0.5e-7 / 3.0, rel=1e-6, abs=1e-14)
        assert large == pytest.approx(0.7 * 2e-7 / 3.0, rel=1e-6, abs=1e-14)


@pytest.mark.parametrize("scale", [1e8, 1e11, 1e14])
def test_exact_l1_subgradient_passes_at_large_scale(scale):
    # the probe's gaps carry roundoff of about eps*(J(u) + J(w)), which it forgives
    u = scale * np.random.default_rng(0).standard_normal(16)
    assert is_subgradient(l1(), u, np.sign(u)).ok
    bad = np.sign(u)
    bad[0] *= -1.0  # eps = 2|u_0|, far outside
    assert not is_subgradient(l1(), u, bad).ok


@settings(max_examples=25, deadline=None, derandomize=True)
@given(shape=st.one_of(st.integers(2, 30), st.tuples(st.integers(1, 6), st.integers(2, 6))),
       push=st.floats(1e-3, 1.0), seed=st.integers(0, 2**32 - 1))
def test_is_subgradient_invariants_at_random_sizes(shape, push, seed):
    rng = substream(seed, "membership-property")
    n = int(np.prod(shape))
    # l1: sign(u) on the support, anything in [-1, 1] off it; pushing one
    # entry past its bound by ``push`` is rejected
    u = rng.standard_normal(n) * (rng.random(n) < 0.5)
    p = np.where(u != 0.0, np.sign(u), rng.uniform(-1.0, 1.0, n))
    assert is_subgradient(l1(), u, p).ok
    j = rng.integers(n)
    bad = p.copy()
    bad[j] = np.copysign(1.0 + push, p[j])
    assert not is_subgradient(l1(), u, bad).ok
    # TV: a witness q = sign(Du) on the jumps and in the box elsewhere
    reg = tv_aniso(shape)
    u = rng.integers(0, 3, n).astype(float)
    du = reg.D.matrix @ u
    q = np.where(du != 0.0, np.sign(du), rng.uniform(-1.0, 1.0, du.size))
    assert is_subgradient(reg, u, reg.D.matrix.T @ q, dual=q).ok
    assert is_subgradient(reg, u, reg.D.matrix.T @ q).ok
    e = rng.integers(du.size)
    q[e] = np.copysign(1.0 + push, q[e])
    assert not is_subgradient(reg, u, reg.D.matrix.T @ q, dual=q).ok


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
def test_membership_tol_must_be_finite_and_nonnegative(tol):
    # an infinite tol certified p = 5 on l1, a violation of 51.9; a NaN or negative one could certify nothing
    u, p = np.ones(8), 5.0 * np.ones(8)
    assert is_subgradient(l1(), u, p).max_violation > 50.0
    with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
        is_subgradient(l1(), u, p, tol=tol)
    with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
        bregman_distance(l1(), u, u, p, membership_tol=tol)
    with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
        symmetric_bregman(l1(), u, u, p, p, membership_tol=tol)
    assert is_subgradient(l1(), u, np.sign(u), tol=0.0).ok  # a tol of 0 asks for exact membership


@pytest.mark.parametrize("samples", [0, -1])
def test_is_subgradient_rejects_nonpositive_samples(samples):
    with pytest.raises(ValueError, match="samples"):
        is_subgradient(quadratic(), [1.0, 2.0], [1.0, 2.0], samples=samples)


def _reference_is_subgradient(reg, u, p, tol=1e-8, *, dual=None, samples=100, seed=0):
    """is_subgradient with the probe drawn afresh and evaluated as one product, and skipped, as there,
    where the closed form passes and a bound on every probe gap is within tol."""
    u = np.asarray(u, dtype=float)
    p = np.asarray(p, dtype=float)
    j_u = reg.value(u)
    allowance = 4.0 * np.finfo(float).eps  # each gap's roundoff allowance, relative to J(u) + J(w)
    rng = np.random.default_rng(seed)
    radius = 1.0 + float(np.max(np.abs(u)))
    g = rng.standard_normal((samples, u.size))
    if reg.kind == "quadratic":
        violation = float(np.max(np.abs(p - u)))
        # 0.5||u||^2 + <p, d> - 0.5||u + d||^2 = <p - u, d> - 0.5||d||^2, at most 0.5||p - u||^2
        bound = 0.5 * float(np.sum((p - u) ** 2)) * (1.0 + allowance)
    else:
        # distance from p to dJ(0), and the slack eps = J(u) - <p, u> relative to 1 + J(u); ``box`` is the
        # residual ||D^T q - p|| of a witness q with |q| <= 1 (l1: q = p), inf without one
        if reg.kind == "l1":
            dist = float(np.max(np.abs(p))) - 1.0
            box = 0.0 if dist <= 0.0 else np.inf
        elif dual is not None:
            q = np.asarray(dual, dtype=float)
            residual = np.linalg.norm(reg.D.matrix.T @ q - p)
            dist = max(residual, float(np.max(np.abs(q))) - 1.0)
            box = residual if np.max(np.abs(q)) <= 1.0 else np.inf
        else:
            dist = box = _tv_dual_fit(reg, p)
        eps = max(j_u - float(np.einsum("ij,ij->j", u[:, None], p[:, None])[0]), 0.0)  # as core._column_dots
        violation = max(dist, eps / (1.0 + j_u))
        # the gap is eps + <q, Dw> - J(w) + <p - D^T q, w> <= eps + box*||w||, and ||w|| <= ||u|| + r max_s ||g_s||
        reach = box * (np.linalg.norm(u) + radius * max(np.linalg.norm(row) for row in g)) if box else 0.0
        bound = eps + reach + allowance * (j_u + float(np.abs(p) @ np.abs(u)) + reach)
    if violation <= tol and bound <= tol:
        return MembershipResult(ok=True, max_violation=max(violation, 0.0))
    w = u[None, :] + radius * g
    gaps = j_u * (1.0 - allowance) + (w - u[None, :]) @ p - reg.value_batch(w) * (1.0 + allowance)
    violation = max(violation, float(np.max(gaps)), 0.0)
    return MembershipResult(ok=bool(violation <= tol), max_violation=violation)


def _membership_case(case, dim, rng, noise):
    """A regularizer and a (u, p, dual) pair, valid up to ``noise`` in p."""
    if case == "tv2d-witness":
        h = math.isqrt(dim)
        dim = h * (dim // h)
        reg = tv_aniso((h, dim // h))
    elif case.startswith("tv"):
        reg = tv_aniso(dim)
    else:
        reg = make_regularizer(case, dim)
    # repeated entries give flat TV edges, zeros give l1's off-support branch
    u = np.repeat(rng.standard_normal((dim + 1) // 2), 2)[:dim]
    u[rng.random(dim) < 0.3] = 0.0
    q = None
    if reg.kind == "quadratic":
        p = u.copy()
    elif reg.kind == "l1":
        p = np.where(u != 0.0, np.sign(u), rng.uniform(-1.0, 1.0, dim))
    else:
        du = reg.D.matrix @ u
        q = np.where(du != 0.0, np.sign(du), rng.uniform(-1.0, 1.0, du.size))
        p = reg.D.matrix.T @ q
    p = p + noise * rng.standard_normal(dim)
    return reg, u, p, (q if case.endswith("witness") else None)


# Products of fewer than 9216 entries run on one OpenBLAS thread.  Larger ones
# are split across threads, which regroups rows and moves the last bits of the
# reference's one-product evaluation, so samples*dim stays below that.
@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=st.sampled_from(["quadratic", "l1", "tv", "tv-witness", "tv2d-witness"]),
       dim=st.integers(2, 400), samples=st.integers(1, 250), seed=st.integers(0, 3),
       log_scale=st.floats(-3.0, 3.0), noise=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
       block=st.sampled_from([8192, 512, 64, 1]), data_seed=st.integers(0, 2**32 - 1))
def test_is_subgradient_matches_unblocked_reference(case, dim, samples, seed, log_scale,
                                                     noise, block, data_seed):
    # the cached probe and its row blocks (several, with remainders) reproduce
    # the fresh one-product evaluation bit for bit
    rng = np.random.default_rng(data_seed)
    reg, u, p, dual = _membership_case(case, dim, rng, noise)
    u *= 10.0 ** log_scale
    if reg.kind == "quadratic":
        p *= 10.0 ** log_scale
    samples = max(1, min(samples, 9215 // u.size))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularizers, "_PROBE_BLOCK", block)
        got = is_subgradient(reg, u, p, dual=dual, samples=samples, seed=seed)
    assert got == _reference_is_subgradient(reg, u, p, dual=dual, samples=samples, seed=seed)


def _reference_tv_dual_fit(D, p, du, support_atol, lip, iters=2000):
    """The TV dual fit as it was before it ran on the shared projected gradient.

    Its own accelerated loop restarts on non-improvement of the residual,
    stops once the residual improves by less than 1e-14 relative, and returns
    the best residual seen.
    """
    fixed = np.abs(du) > support_atol
    signs = np.sign(du)
    dt = D.T.tocsr()

    def project(q):
        q = np.clip(q, -1.0, 1.0)
        q[fixed] = signs[fixed]
        return q

    q = project(np.zeros(D.shape[0]))
    y = q.copy()
    t = 1.0
    best = np.linalg.norm(dt @ q - p)
    step = 1.0 / max(lip, 1e-30)
    for _ in range(iters):
        grad = D @ (dt @ y - p)
        q_new = project(y - step * grad)
        res = np.linalg.norm(dt @ q_new - p)
        if res > best:
            t = 1.0
            y = q.copy()
            q_new = project(y - step * (D @ (dt @ y - p)))
            res = np.linalg.norm(dt @ q_new - p)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = q_new + ((t - 1.0) / t_new) * (q_new - q)
        improvement = best - res
        q, t = q_new, t_new
        best = min(best, res)
        if improvement >= 0.0 and improvement < 1e-14 * (1.0 + best):
            break
    return best


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=st.sampled_from(["tv", "tv2d-witness"]), dim=st.integers(2, 150),
       noise=st.sampled_from([0.0, 1e-6, 1e-3, 1.0]), data_seed=st.integers(0, 2**32 - 1))
def test_tv_dual_fit_matches_replaced_loop(case, dim, noise, data_seed):
    # membership without a witness decides as the replaced fit did, and is
    # accurate on valid pairs (noise 0); the witness itself is not passed
    reg, u, p, _ = _membership_case(case, dim, np.random.default_rng(data_seed), noise)
    got = is_subgradient(reg, u, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularizers, "_tv_dual_fit", lambda reg, p: _reference_tv_dual_fit(
            reg.D.matrix, p, np.zeros(reg.D.out_dim), np.inf, reg.edge_map_norm() ** 2))
        ref = is_subgradient(reg, u, p)
    assert got.ok == ref.ok
    if noise == 0.0:
        assert got.ok and got.max_violation <= 1e-10


@pytest.mark.parametrize("shape", [200, (48, 48)], ids=["1d-200", "2d-48"])
def test_tv_dual_fit_steps_within_one_over_lipschitz(monkeypatch, shape):
    # ||D||^2 is the closed form summed over the grid axes, 4*sin^2(pi*(n-1)/(2n))
    # per axis of length n, and the fit's Lipschitz constant bounds it
    axes = (shape,) if isinstance(shape, int) else shape
    exact = sum(4.0 * math.sin(math.pi * (n - 1) / (2 * n)) ** 2 for n in axes)
    reg = tv_aniso(shape)
    u = np.zeros(reg.D.in_dim)
    lips = []
    real = regularizers.accelerated_projected_gradient

    def capture(grad_fn, project, lip, *args, **kwargs):
        lips.append(lip)
        return real(grad_fn, project, lip, *args, **kwargs)

    monkeypatch.setattr(regularizers, "accelerated_projected_gradient", capture)
    assert is_subgradient(reg, u, np.zeros_like(u)).ok
    assert len(lips) == 1 and exact <= lips[0]
    assert reg.edge_map_norm() ** 2 == pytest.approx(exact, rel=1e-14, abs=0.0)


def test_tv_dual_fit_certifies_valid_48x48_subgradient():
    # six signed blocks on a 48x48 grid and p = D^T q with q = sign(Du) on the
    # jumps: the fit needs more than 2000 iterations to certify this p
    # (violation 1.1e-8 at 2000 against the default tol 1e-8)
    rng = np.random.default_rng(0)
    n = 48
    img = np.zeros((n, n))
    for _ in range(6):
        r0, r1 = np.sort(rng.integers(0, n, size=2))
        c0, c1 = np.sort(rng.integers(0, n, size=2))
        img[r0:r1 + 1, c0:c1 + 1] += rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)
    reg = tv_aniso((n, n))
    u = img.ravel()
    du = reg.D.matrix @ u
    q = np.where(np.abs(du) > 0.0, np.sign(du), rng.uniform(-1.0, 1.0, du.size))
    p = reg.D.matrix.T @ q
    assert is_subgradient(reg, u, p, dual=q).ok
    assert is_subgradient(reg, u, p).ok


@pytest.mark.parametrize("dim, samples", [(300, 9), (1000, 5), (700, 13)])
def test_is_subgradient_lone_last_row_matches_reference(dim, samples):
    # a last row left alone in its block would go through dot rather than
    # gemv and round differently; p points along it so it holds the max gap
    probe = np.random.default_rng(5).standard_normal((samples, dim))
    reg, u, p = quadratic(), np.zeros(dim), 3.0 * probe[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularizers, "_PROBE_BLOCK", 1)  # blocks of 4 rows
        got = is_subgradient(reg, u, p, samples=samples, seed=5)
    assert got == _reference_is_subgradient(reg, u, p, samples=samples, seed=5)


def _assert_block_matches_vector_calls(case, dim, k, samples, seed, block, data_seed):
    """Every column of a block, at its own scale and noise, gets the verdict and
    violation of its own vector call, bit for bit.  A p pushed along one probe
    row makes the probe, not the closed form, hold that column's violation."""
    rng = np.random.default_rng(data_seed)
    samples = max(1, min(samples, 9215 // dim))  # per column, as in the unblocked reference test
    cols = []
    for _ in range(k):
        reg, u, p, dual = _membership_case(case, dim, rng, rng.choice([0.0, 1e-9, 1e-3, 1.0]))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        u, p = u * scale, (p * scale if reg.kind == "quadratic" else p)
        if rng.random() < 0.5:
            row = np.random.default_rng(seed).standard_normal((samples, u.size))[rng.integers(samples)]
            p = p + 3.0 * (1.0 + np.max(np.abs(u))) * row
        cols.append((u, p, dual))
    us, ps = (np.column_stack(c) for c in list(zip(*cols))[:2])
    duals = None if cols[0][2] is None else np.column_stack([c[2] for c in cols])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularizers, "_PROBE_BLOCK", block)
        got = is_subgradient(reg, us, ps, dual=duals, samples=samples, seed=seed)
        want = [is_subgradient(reg, u, p, dual=q, samples=samples, seed=seed) for u, p, q in cols]
    assert got.ok.tolist() == [w.ok for w in want]
    assert got.max_violation.tolist() == [w.max_violation for w in want]


MEMBERSHIP_CASES = ["quadratic", "l1", "tv", "tv-witness", "tv2d-witness"]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(case=st.sampled_from(MEMBERSHIP_CASES), dim=st.integers(2, 200), k=st.integers(1, 8),
       samples=st.integers(1, 250), seed=st.integers(0, 3), block=st.sampled_from([8192, 512, 64, 1]),
       data_seed=st.integers(0, 2**32 - 1))
def test_block_is_subgradient_matches_vector_calls(case, dim, k, samples, seed, block, data_seed):
    _assert_block_matches_vector_calls(case, dim, k, samples, seed, block, data_seed)


@pytest.mark.parametrize("case", MEMBERSHIP_CASES)
@pytest.mark.parametrize("samples", [1, 2, 5])
def test_block_is_subgradient_matches_vector_calls_at_few_samples(case, samples):
    # one probe row per column is where TV's value_batch sums in another order,
    # and five rows in blocks of four leave a lone last row
    for data_seed in range(4):
        for block in (8192, 1):
            _assert_block_matches_vector_calls(case, 64, 4, samples, 1, block, data_seed)


def _spy_value_batch(monkeypatch):
    """Record the number of points each probe evaluation of J gets."""
    calls, real = [], Regularizer.value_batch
    monkeypatch.setattr(Regularizer, "value_batch", lambda self, U: calls.append(len(U)) or real(self, U))
    return calls


def test_exact_members_skip_the_probe(monkeypatch):
    # CG's p = u (quadratic), FISTA's zero exit u = 0 with max|p| <= 1 (l1) and p = D^T q at a constant u with
    # |q| <= 1 (TV) bound every probe gap by 0: no J is evaluated, and the closed-form measure is reported
    calls = _spy_value_batch(monkeypatch)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(40)
    assert is_subgradient(quadratic(), u, u.copy()) == (True, 0.0)
    assert is_subgradient(l1(), np.zeros(40), rng.uniform(-1.0, 1.0, 40)) == (True, 0.0)
    reg = tv_aniso(40)
    q = rng.uniform(-1.0, 1.0, 39)
    assert is_subgradient(reg, np.full(40, 2.0), reg.D.matrix.T @ q, dual=q).ok
    assert calls == []


@pytest.mark.parametrize("n", range(1, 17))
def test_probe_still_rejects_an_l1_p_just_outside_the_box(monkeypatch, n):
    # the closed form passes (max|p| - 1 = 0.9e-6 <= tol) but p is not in the box, so no bound decides and the
    # probe runs: at u = 10, points w > 0 have gap 0.9e-6*(sum w - 10n), above tol
    calls = _spy_value_batch(monkeypatch)
    res = is_subgradient(l1(), 10.0 * np.ones(n), (1.0 + 0.9e-6) * np.ones(n), tol=1e-6)
    assert not res.ok and res.max_violation > 1e-5
    assert calls == [100]


def test_probe_still_rejects_a_tv_witness_far_from_p(monkeypatch):
    # q = sign(D g_0) for the probe's first direction and p = D^T q + e with ||e|| = 0.9 tol along g_0: the closed
    # form passes at u = 0, the bound ||e||*max_s ||g_s|| is 8.8 tol, and the probe's gap at w = g_0 is
    # ||e|| ||g_0|| = 6.6 tol
    calls = _spy_value_batch(monkeypatch)
    reg, tol = tv_aniso(64), 1e-6
    g0 = np.random.default_rng(0).standard_normal(64)
    q = np.sign(reg.D.matrix @ g0)
    p = reg.D.matrix.T @ q + 0.9 * tol * g0 / np.linalg.norm(g0)
    res = is_subgradient(reg, np.zeros(64), p, tol=tol, dual=q)
    assert not res.ok and res.max_violation > 5.0 * tol
    assert calls == [100]


def test_quadratic_bound_that_overflows_falls_back_to_the_probe(monkeypatch):
    # ||p - u||^2 overflows though |p - u|_inf = 1e160 is within tol: the bound decides nothing, without a
    # warning, and the probe (whose points stay near u = 0) certifies
    calls = _spy_value_batch(monkeypatch)
    res = is_subgradient(quadratic(), np.zeros(4), 1e160 * np.ones(4), tol=1e161)
    assert res.ok and 1e160 < res.max_violation <= 1e161
    assert calls == [100]


@pytest.mark.parametrize("call", ["is_subgradient", "bregman_distance", "unchecked bregman_distance", "value"])
def test_quadratic_j_that_overflows_is_refused_naming_u(call):
    # 0.5*<u, u> overflows at u ~ 1e300: refused, not warned on and not certified
    u = 1e300 * np.random.default_rng(0).standard_normal(5)
    run = {"is_subgradient": lambda: is_subgradient(quadratic(), u, u),
           "bregman_distance": lambda: bregman_distance(quadratic(), u, u, u),
           "unchecked bregman_distance": lambda: bregman_distance(quadratic(), u, u, u, check=False),
           "value": lambda: quadratic().value(u)}[call]
    with pytest.raises(ValueError, match=r"^u is too large: J\(u\) overflows"):
        run()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=st.sampled_from(MEMBERSHIP_CASES), dim=st.integers(2, 120), k=st.integers(1, 5),
       log_scale=st.floats(-3.0, 3.0), noise=st.sampled_from([0.0, 1e-12, 1e-9, 1e-6, 1e-3]),
       shift=st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-5]), tol=st.sampled_from([0.0, 1e-10, 1e-8, 1e-6, 1e-4]),
       data_seed=st.integers(0, 2**32 - 1))
def test_skipping_the_probe_changes_no_verdict(case, dim, k, log_scale, noise, shift, tol, data_seed):
    # against the probe run on every column (the gap bound patched to inf), vector and block calls decide alike;
    # ``noise`` moves p off dJ(u) and ``shift`` moves u, so eps and ||D^T q - p|| straddle tol
    rng = np.random.default_rng(data_seed)
    cols = []
    for _ in range(k):
        reg, u, p, dual = _membership_case(case, dim, rng, noise)
        scale = 10.0 ** log_scale
        u = u * scale + shift * scale * rng.standard_normal(u.size)
        cols.append((u, p * scale if reg.kind == "quadratic" else p, dual))
    us, ps = (np.column_stack(c) for c in list(zip(*cols))[:2])
    duals = None if cols[0][2] is None else np.column_stack([c[2] for c in cols])

    def verdicts():
        return ([is_subgradient(reg, u, p, tol, dual=q).ok for u, p, q in cols],
                is_subgradient(reg, us, ps, tol, dual=duals).ok.tolist())

    skipping = verdicts()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(regularizers, "_probe_gap_bound", lambda *args: np.inf)
        probed = verdicts()
    assert skipping == probed
    assert skipping[0] == skipping[1]


@pytest.mark.parametrize("samples", [2.5, True, "3"])
def test_is_subgradient_rejects_non_integer_samples(samples):
    with pytest.raises(ValueError, match="samples must be an integer >= 1"):
        is_subgradient(quadratic(), [1.0, 2.0], [1.0, 2.0], samples=samples)


@pytest.mark.parametrize("u", [[], np.zeros((0, 3)), np.zeros((3, 0))], ids=["vector", "no-rows", "no-columns"])
def test_is_subgradient_rejects_an_empty_u(u):
    with pytest.raises(ValueError, match="u must be a non-empty"):
        is_subgradient(l1(), u, u)


def test_probe_directions_share_one_read_only_draw():
    big = _probe_directions(11, 30, 50)
    np.testing.assert_array_equal(big, np.random.default_rng(11).standard_normal((30, 50)))
    with pytest.raises(ValueError, match="read-only"):
        big[0, 0] = 0.0
    # a smaller shape is a prefix of the same buffer
    small = _probe_directions(11, 7, 3)
    np.testing.assert_array_equal(small, np.random.default_rng(11).standard_normal((7, 3)))
    assert np.shares_memory(small, big)
    # a larger one redraws, and views already handed out stay as they were
    before = big.copy()
    bigger = _probe_directions(11, 40, 50)
    np.testing.assert_array_equal(bigger, np.random.default_rng(11).standard_normal((40, 50)))
    np.testing.assert_array_equal(big, before)


def test_probe_cache_holds_one_draw():
    views = [_probe_directions(seed, 20, 50) for seed in range(10)]
    assert len(regularizers._PROBE_DRAWS) <= 1
    # views handed out before their seed was evicted keep their values
    for seed, view in enumerate(views):
        np.testing.assert_array_equal(view, np.random.default_rng(seed).standard_normal((20, 50)))


def test_is_subgradient_leaves_inputs_untouched():
    rng = substream(3, "membership-inputs")
    for kind in KINDS:
        reg = make_regularizer(kind, 300)
        u, p, q = subgradient_pair(kind, rng, 300)
        u0, p0 = u.copy(), p.copy()
        assert is_subgradient(reg, u, p, dual=q, samples=130).ok
        np.testing.assert_array_equal(u, u0)
        np.testing.assert_array_equal(p, p0)


def test_subgradient_wrapper_carries_witness():
    rng = substream(2, "tv")
    reg = tv_aniso(7)
    u, p, q = subgradient_pair("tv", rng, 7)
    sub = Subgradient(p=p, dual=q)
    assert is_subgradient(reg, u, sub).ok
    assert bregman_distance(reg, u, u, sub) == 0.0


def test_bregman_distance_examples():
    assert bregman_distance(quadratic(), [1.0], [0.0], [0.0]) == 0.5
    assert bregman_distance(l1(), [-1.0], [1.0], [1.0]) == 2.0
    assert bregman_distance(l1(), [1.0, 0.0], [1.0, 0.0], [1.0, 0.5]) == 0.0


def test_bregman_distance_rejects_bad_subgradient():
    with pytest.raises(SubgradientError):
        bregman_distance(l1(), [0.0, 1.0], [1.0, 1.0], [0.2, 1.0])


def test_negative_clamp_band():
    # raw = t^2/2 - p0*t, tuned inside and below the roundoff band; membership
    # checks are disabled so the clamp policy itself is what is under test
    t = 1e-4
    inside = t / 2.0 + 0.5 * NEGATIVE_TOLERANCE / t
    below = t / 2.0 + 2.0 * NEGATIVE_TOLERANCE / t
    assert bregman_distance(quadratic(), [t], [0.0], [inside], check=False) == 0.0
    with pytest.raises(ArithmeticError, match="negative beyond roundoff"):
        bregman_distance(quadratic(), [t], [0.0], [below], check=False)
    with pytest.raises(ArithmeticError):
        symmetric_bregman(quadratic(), [1.0], [0.0], [0.0], [1.0], check=False)


def test_symmetric_clamp_band_grows_with_the_certified_slack():
    # the PD solution's p_tilde lies in the eps-subdifferential with eps = 1.4e-7 > 1e-8;
    # against u = 0 with p = D^T sign(Du_tilde), exact there and at u_tilde, the distance
    # is -eps, inside the band -(eps + 0 + 1e-8): clamped, not raised
    op, reg, v = radon_phantom_problem(16)
    sol = solve_primal_dual(op, v, 0.1, reg)
    eps = sol.J_value - float(np.dot(sol.p_alpha.p, sol.u_alpha))
    assert eps > 1e-8
    q = np.sign(reg.D.matrix @ sol.u_alpha)
    zero, exact = np.zeros_like(sol.u_alpha), Subgradient(reg.D.matrix.T @ q, q)
    assert float(np.dot(sol.p_alpha.p - exact.p, sol.u_alpha)) < -NEGATIVE_TOLERANCE
    assert symmetric_bregman(reg, sol.u_alpha, zero, sol.p_alpha, exact) == 0.0
    assert bregman_distance(reg, zero, sol.u_alpha, sol.p_alpha) >= 0.0
    # beyond it still raises: 1.5 * exact.p is outside dJ(0), its edge dual past the box
    with pytest.raises(ArithmeticError, match="negative beyond roundoff"):
        symmetric_bregman(reg, sol.u_alpha, zero, sol.p_alpha, 1.5 * exact.p, check=False)


def test_symmetric_bregman_example():
    # quadratic: <p~ - p, u~ - u> = ||u~ - u||^2
    u_t, u = np.array([2.0, 0.0]), np.array([0.0, 1.0])
    assert symmetric_bregman(quadratic(), u_t, u, u_t, u) == 5.0


@pytest.mark.parametrize("kind", KINDS)
def test_bregman_nonnegativity_and_decomposition(kind):
    # d >= 0 and d_sym = d(u~,u) + d(u,u~) over seeded valid pairs
    reg = make_regularizer(kind, 12)
    rng = substream(3, f"axioms-{kind}")
    for _ in range(200):
        u_t, p_t, q_t = subgradient_pair(kind, rng, 12)
        u, p, q = subgradient_pair(kind, rng, 12)
        d_ts = bregman_distance(reg, u_t, u, p, check=False)
        d_st = bregman_distance(reg, u, u_t, p_t, check=False)
        d_sym = symmetric_bregman(reg, u_t, u, p_t, p, check=False)
        assert d_ts >= 0.0 and d_st >= 0.0 and d_sym >= 0.0
        assert abs(d_sym - (d_ts + d_st)) <= 1e-10 * (1.0 + d_sym)
        assert bregman_distance(reg, u, u, p, check=False) <= 1e-14


@settings(max_examples=40, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 60), seed=st.integers(0, 2**32 - 1))
def test_bregman_axioms_at_random_sizes(kind, n, seed):
    # d >= 0, d(u, u) = 0, and the three-point identity
    # d^{p_u}(w, u) = d^{p_u}(v, u) + d^{p_v}(w, v) + <p_v - p_u, w - v>
    reg = make_regularizer(kind, n)
    rng = np.random.default_rng(seed)
    u, p_u, q_u = subgradient_pair(kind, rng, n)
    v, p_v, q_v = subgradient_pair(kind, rng, n)
    w, _, _ = subgradient_pair(kind, rng, n)
    sub_u, sub_v = Subgradient(p_u, q_u), Subgradient(p_v, q_v)
    for a, at, sub in ((v, u, sub_u), (u, v, sub_v), (w, u, sub_u), (w, v, sub_v)):
        assert bregman_distance(reg, a, at, sub) >= 0.0
    assert bregman_distance(reg, u, u, sub_u) == 0.0
    assert symmetric_bregman(reg, v, v, sub_v, sub_v) == 0.0
    lhs = bregman_distance(reg, w, u, sub_u)
    rhs = (bregman_distance(reg, v, u, sub_u) + bregman_distance(reg, w, v, sub_v)
           + float(np.dot(p_v - p_u, w - v)))
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


def test_quadratic_bregman_specializes_to_euclidean():
    rng = substream(4, "quad")
    reg = quadratic()
    for _ in range(100):
        u_t, u = rng.standard_normal(6), rng.standard_normal(6)
        d = bregman_distance(reg, u_t, u, u)
        gap = np.dot(u_t - u, u_t - u)
        assert abs(d - 0.5 * gap) <= 1e-12 * (1.0 + gap)
        assert abs(symmetric_bregman(reg, u_t, u, u_t, u) - gap) <= 1e-12 * (1.0 + gap)


@pytest.mark.parametrize("kind", KINDS)
def test_value_is_convex(kind):
    reg = make_regularizer(kind, 10)
    rng = substream(5, f"convex-{kind}")
    for _ in range(100):
        a, b = rng.standard_normal(10), rng.standard_normal(10)
        lam = float(rng.uniform())
        lhs = reg.value(lam * a + (1.0 - lam) * b)
        rhs = lam * reg.value(a) + (1.0 - lam) * reg.value(b)
        assert lhs <= rhs + 1e-12 * (1.0 + abs(rhs))


def test_difference_matrix_shapes_and_action():
    D = difference_matrix(4)
    assert D.shape == (3, 4)
    np.testing.assert_array_equal(D @ np.array([1.0, 3.0, 6.0, 10.0]), [2.0, 3.0, 4.0])
    D2 = difference_matrix((2, 3))
    assert D2.shape == (2 * 2 + 1 * 3, 6)
    img = np.arange(6, dtype=float)  # rows [0,1,2],[3,4,5]
    expect = np.array([1.0, 1.0, 1.0, 1.0, 3.0, 3.0, 3.0])
    np.testing.assert_array_equal(D2 @ img, expect)
    with pytest.raises(ValueError):
        difference_matrix(1)
    with pytest.raises(ValueError):
        difference_matrix((1, 1))


def test_edge_map_norm_matches_dense_svd():
    # the closed form is the exact top singular value of D
    for shape in (2, 3, 16, 200, (1, 5), (5, 1), (2, 3), (24, 24)):
        reg = tv_aniso(shape)
        dense = float(np.linalg.svd(reg.D.matrix.toarray(), compute_uv=False)[0])
        assert reg.edge_map_norm() == pytest.approx(dense, rel=1e-13, abs=0.0), shape
        if isinstance(shape, int):  # a 1-d signal is the 1 x n image
            one, row = difference_matrix(shape), difference_matrix((1, shape))
            for attr in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(one, attr), getattr(row, attr))


def test_tv_edge_map_is_built_once_read_only():
    reg = tv_aniso((3, 4))
    assert isinstance(reg.D, LinearForwardMap)
    m = reg.D.matrix
    assert m.format == "csr"
    assert not any(a.flags.writeable for a in (m.data, m.indices, m.indptr))
    assert (m != difference_matrix((3, 4))).nnz == 0
    with pytest.raises(TypeError):
        Regularizer(kind="tv_aniso", shape=(3, 4), D=reg.D)


def test_tv_edge_map_products_are_bound_once_outside_repr():
    # repr(reg) keys the certificate records, so the edge map and its products stay out of it
    reg = tv_aniso((3, 4))
    assert repr(reg) == "Regularizer(kind='tv_aniso', shape=(3, 4))"
    rng = np.random.default_rng(0)
    u, q = rng.standard_normal(12), rng.standard_normal(reg.D.out_dim)
    m = reg.D.matrix
    assert np.array_equal(reg.D._apply(u), m @ u) and np.array_equal(reg.D._adjoint(q), m.T.tocsr() @ q)
    U = rng.standard_normal((5, 12))
    np.testing.assert_array_equal(reg.value_batch(U), np.abs(m @ U.T).sum(axis=0))
    assert l1().D is None
