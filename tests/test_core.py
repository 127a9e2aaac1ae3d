import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from varreg import (
    DimensionMismatchError,
    LinearForwardMap,
    adjoint_consistency_check,
    as_vector,
    identity_map,
    inner,
    make_dense,
    norm,
    operator_norm_estimate,
    substream,
)
from varreg.core import _product
from varreg.operators import RadonGeometry, make_radon, make_random_dense


def test_inner_examples():
    assert inner([1.0, 2.0], [3.0, 4.0]) == 11.0
    assert inner([1.0, 0.0], [0.0, 5.0]) == 0.0


def test_inner_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        inner([1.0, 2.0], [1.0, 2.0, 3.0])


def test_norm_pythagorean():
    assert norm([3.0, 4.0]) == 5.0


def test_norm_keeps_its_bits_and_is_finite_where_the_norm_is():
    # ordinary inputs give np.linalg.norm's bits; a sum of squares that overflows for finite entries is redone
    # on a / max|a|, so a finite norm comes back finite, and an infinite one as inf, without a warning
    rng = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 7, 1000):
            for e in (-150, 0, 150):
                x = rng.standard_normal(n) * 10.0 ** e
                for view in (x, x[::3], x.reshape(1, -1), np.asfortranarray(np.outer(x, rng.standard_normal(5)))):
                    assert norm(view) == float(np.linalg.norm(view))
        assert norm(1e200 * np.ones(4)) == 2e200
        assert norm(-1e300 * np.ones((2, 2))) == 2e300
        assert norm(np.full(4, 1e308)) == np.inf
        assert norm([np.inf, 1.0]) == np.inf


def test_as_vector_coercion():
    v = as_vector(2.5)
    assert v.shape == (1,) and v.dtype == np.float64
    np.testing.assert_array_equal(as_vector([1, 2, 3], dim=3), [1.0, 2.0, 3.0])


def test_as_vector_rejects_bad_input():
    with pytest.raises(ValueError, match="must be 1-d"):
        as_vector(np.zeros((2, 2)))
    with pytest.raises(DimensionMismatchError):
        as_vector([1.0, 2.0], dim=3)
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError, match="non-finite"):
        as_vector([1.0, np.inf])


def test_cauchy_schwarz_sampled():
    rng = substream(0, "cs")
    for _ in range(200):
        a = rng.standard_normal(7)
        b = rng.standard_normal(7)
        assert abs(inner(a, b)) <= norm(a) * norm(b) * (1.0 + 1e-12)


def test_forward_map_validates_dimensions():
    # an empty matrix is rejected dense or sparse (a sparse matrix's size is its nnz)
    for empty in (np.zeros((0, 3)), sp.csr_matrix((3, 0))):
        with pytest.raises(ValueError, match="non-empty"):
            LinearForwardMap(empty)
    op = identity_map(3)
    with pytest.raises(DimensionMismatchError):
        op.apply([1.0, 2.0])
    with pytest.raises(DimensionMismatchError):
        op.adjoint([1.0, 2.0, 3.0, 4.0])


def test_forward_map_takes_any_finite_matrix():
    # an all-zero CSR (nnz 0) is a valid operator; a NaN entry is not, dense or sparse
    zero = LinearForwardMap(sp.csr_matrix((3, 2)))
    assert (zero.out_dim, zero.in_dim) == (3, 2)
    np.testing.assert_array_equal(zero.apply([1.0, 2.0]), np.zeros(3))
    bad = np.array([[1.0, np.nan], [0.0, 2.0]])
    for matrix in (bad, sp.csr_matrix(bad)):
        with pytest.raises(ValueError, match="non-finite"):
            LinearForwardMap(matrix)


def test_forward_map_refuses_entries_whose_squares_overflow():
    # entries of 1e300 are finite, but F*F is not: no solver could take a step on them
    big = np.full((3, 2), 1e300)
    for matrix in (big, sp.csr_matrix(big)):
        with pytest.raises(ValueError, match="sum of their squares overflows"):
            LinearForwardMap(matrix)

def test_identity_map_roundtrip():
    op = identity_map(4)
    x = np.array([1.0, -2.0, 0.5, 3.0])
    np.testing.assert_array_equal(op.apply(x), x)
    np.testing.assert_array_equal(op.adjoint(x), x)
    np.testing.assert_array_equal(op(x), x)


def test_identity_map_matrix_is_sparse():
    op = identity_map(1000)
    assert sp.issparse(op.matrix)
    assert op.matrix.nnz == 1000
    assert not op.matrix.data.flags.writeable


def test_dense_map_linearity():
    rng = substream(1, "lin")
    a = rng.standard_normal((5, 3))
    op = make_dense(a)
    for _ in range(20):
        u, w = rng.standard_normal(3), rng.standard_normal(3)
        s, t = rng.standard_normal(2)
        lhs = op.apply(s * u + t * w)
        rhs = s * op.apply(u) + t * op.apply(w)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_adjoint_consistency_correct_and_broken():
    rng = substream(2, "adj")
    a = rng.standard_normal((6, 4))
    assert adjoint_consistency_check(make_dense(a), trials=32, seed=5) <= 1e-12
    assert adjoint_consistency_check(identity_map(8), trials=32, seed=5) <= 1e-14
    # deliberately wrong adjoint must be flagged with an O(1) defect
    b = rng.standard_normal((4, 4))
    broken = make_dense(b)
    broken._adjoint = broken._apply
    assert adjoint_consistency_check(broken, trials=32, seed=5) > 1e-2


def _broken_adjoint_map():
    broken = make_dense(substream(2, "adj").standard_normal((4, 4)))
    broken._adjoint = lambda v: 0 * broken.matrix.T @ v
    return broken


@pytest.mark.parametrize("trials", [0, -2, True, 2.5, np.int64(0)], ids=repr)
def test_adjoint_consistency_check_rejects_bad_trials(trials):
    # zero trials would certify over an empty set; True and 2.5 are not counts
    with pytest.raises(ValueError, match="trials"):
        adjoint_consistency_check(_broken_adjoint_map(), trials=trials)


@pytest.mark.parametrize("seed", [-1, 1.5, True, None])
def test_adjoint_consistency_check_rejects_bad_seed(seed):
    with pytest.raises(ValueError, match="seed"):
        adjoint_consistency_check(_broken_adjoint_map(), seed=seed)


def test_adjoint_consistency_check_one_trial_flags_broken_adjoint():
    assert adjoint_consistency_check(_broken_adjoint_map(), trials=1) > 1e-2
    assert adjoint_consistency_check(_broken_adjoint_map(), trials=np.int64(1)) > 1e-2


@pytest.mark.parametrize("name, value", [("iters", 0), ("iters", -3), ("iters", True), ("iters", 2.7),
                                         ("seed", 1.5), ("seed", -1), ("seed", True)])
def test_operator_norm_estimate_rejects_bad_counts(name, value):
    # checked before the cache lookup: nothing is computed or cached under a bad key
    op = make_random_dense(6, 4, seed=0)
    with pytest.raises(ValueError, match=name):
        operator_norm_estimate(op, **{name: value})
    assert op._norm_cache == {}


def test_operator_norm_estimate_accepts_numpy_counts():
    op = make_random_dense(6, 4, seed=0)
    assert operator_norm_estimate(op, iters=np.int64(200), seed=np.int64(0)) == operator_norm_estimate(op)
    assert abs(operator_norm_estimate(op) - 1.1370) <= 1e-4


def _csr_cases():
    """CSR matrices a product kernel must handle: random, a Radon map with empty rows (rays
    missing the grid) and its transpose, and one with int64 index arrays."""
    rng = np.random.default_rng(0)
    random = sp.random(9, 7, density=0.4, format="csr", random_state=rng)
    radon = make_radon(RadonGeometry.regular(8, 6, 6)).matrix
    assert (np.diff(radon.indptr) == 0).any()
    wide = sp.csr_matrix(random, copy=True)
    wide.indptr, wide.indices = wide.indptr.astype(np.int64), wide.indices.astype(np.int64)
    assert wide.indptr.dtype == wide.indices.dtype == np.int64
    return {"random": random, "radon-empty-rows": radon, "radon-adjoint": radon.T.tocsr(), "int64-index": wide}


def _operands(n, rng):
    block = rng.standard_normal((n, 5))
    return {
        "vector": rng.standard_normal(n),
        "block-C": block,
        "block-F": np.asfortranarray(block),
        "column-view": block.T[2],  # strided
        "one-column": block[:, :1].copy(),
        "empty-block": np.zeros((n, 0)),
        "integer": np.arange(n) - n // 2,
        "integer-block": np.arange(3 * n).reshape(n, 3),
    }


@pytest.mark.parametrize("case", ["random", "radon-empty-rows", "radon-adjoint", "int64-index"])
def test_product_matches_matmul_bit_for_bit(case):
    m = _csr_cases()[case]
    product = _product(m)
    for name, x in _operands(m.shape[1], np.random.default_rng(1)).items():
        y = product(x)
        ref = m @ x
        assert y.dtype == ref.dtype == np.float64, name
        assert y.shape == ref.shape and np.array_equal(y, ref), name
    dense = m.toarray()
    x = np.random.default_rng(2).standard_normal((m.shape[1], 3))
    assert _product(dense)(x).tobytes() == (dense @ x).tobytes()


def test_product_returns_fresh_writable_arrays():
    # callers update results in place, so a product without out= makes a fresh buffer each call
    m = _csr_cases()["random"]
    product = _product(m)
    x = np.ones(m.shape[1])
    a, b = product(x), product(x)
    assert a.flags.writeable and a.flags.c_contiguous and not np.shares_memory(a, b)
    a += 1.0
    assert np.array_equal(b, m @ x) and np.array_equal(product(x), m @ x)
    assert not np.shares_memory(product(np.ones((m.shape[1], 2))), product(np.ones((m.shape[1], 2))))
    op = LinearForwardMap(m)
    assert op._apply(np.ones(op.in_dim)).flags.writeable and op._adjoint(np.ones(op.out_dim)).flags.writeable


def test_product_rejects_a_wrong_length_operand():
    # the kernel reads its operand and writes its output without a bounds check, so both are checked here
    product = _product(_csr_cases()["random"])
    for x in (np.ones(6), np.ones(8), np.ones((6, 2))):
        with pytest.raises(DimensionMismatchError):
            product(x)
        with pytest.raises(DimensionMismatchError):
            product(x, out=np.empty((9,) + x.shape[1:]))
    for out in (np.empty(8), np.empty((9, 2)), np.empty((9, 1))):
        with pytest.raises(DimensionMismatchError):
            product(np.ones(7), out=out)


@pytest.mark.parametrize("layout", ["dense-C", "dense-adjoint-view", "csr"])
def test_product_into_out_matches_a_fresh_product_bit_for_bit(layout):
    # the primal-dual loop writes its two products into buffers made once; the
    # CSR kernel adds into its output, so a buffer holding the last product must
    # give the same bits as a fresh one
    m = _csr_cases()["radon-empty-rows"]
    op = LinearForwardMap(m if layout == "csr" else m.toarray())
    matrix = op.matrix.T if layout == "dense-adjoint-view" else op.matrix  # the view LinearForwardMap stores
    assert layout != "dense-adjoint-view" or not matrix.flags.c_contiguous
    product = _product(matrix)
    rng = np.random.default_rng(3)
    for shape in [(matrix.shape[1],), (matrix.shape[1], 4)]:
        out = np.full((matrix.shape[0],) + shape[1:], np.nan)
        for _ in range(3):
            x = rng.standard_normal(shape)
            assert product(x, out=out) is out
            assert out.tobytes() == product(x).tobytes() == (matrix @ x).tobytes()


def test_scipy_csr_kernels_exist_with_the_argument_order_used():
    # _product calls scipy's private CSR kernels; a scipy release that moves or
    # reorders them fails here by name, not deep inside a solve
    try:
        from scipy.sparse._sparsetools import csr_matvec, csr_matvecs
    except ImportError as err:  # pragma: no cover - only on an incompatible scipy
        pytest.fail(f"scipy.sparse._sparsetools.csr_matvec/csr_matvecs not importable: {err}")
    m = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 3.0, -1.0]]))
    x, block = np.array([1.0, 2.0, 3.0]), np.arange(6.0).reshape(3, 2)
    y = np.zeros(3)
    csr_matvec(3, 3, m.indptr, m.indices, m.data, x, y)
    assert np.array_equal(y, m @ x), "scipy.sparse._sparsetools.csr_matvec"
    yb = np.zeros((3, 2))
    csr_matvecs(3, 3, 2, m.indptr, m.indices, m.data, block, yb)
    assert np.array_equal(yb, m @ block), "scipy.sparse._sparsetools.csr_matvecs"


def test_operator_norm_examples():
    assert abs(operator_norm_estimate(make_dense(np.diag([3.0, 1.0]))) - 3.0) <= 1e-6
    assert abs(operator_norm_estimate(identity_map(5)) - 1.0) <= 1e-9
    # sigma_max([[1,2],[3,4]]) frozen from an SVD computed independently
    op = make_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert abs(operator_norm_estimate(op, iters=500) - 5.464985704219043) <= 1e-9


def test_operator_norm_is_lower_estimate():
    rng = substream(3, "pow")
    a = rng.standard_normal((8, 8))
    op = make_dense(a)
    true = float(np.linalg.svd(a, compute_uv=False)[0])
    prev = 0.0
    for iters in (1, 5, 25, 200):
        est = operator_norm_estimate(op, iters=iters, seed=7)
        assert est <= true * (1.0 + 1e-12)
        assert est >= prev - 1e-12  # nondecreasing in iteration count
        prev = est
    assert abs(prev - true) <= 1e-8 * true


def _power_iteration_200(a, seed):
    """The power iteration as it ran before its stop rule: always 200 steps."""
    x = np.random.default_rng(seed).standard_normal(a.shape[1])
    x /= norm(x)
    for _ in range(200):
        w = a.T @ (a @ x)
        x = w / norm(w)
    return norm(a @ x)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(m=st.integers(1, 30), n=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_power_iteration_stops_early_without_losing_accuracy(m, n, seed):
    a = np.random.default_rng(seed).standard_normal((m, n))
    op = make_dense(a)
    true = float(np.linalg.svd(a, compute_uv=False)[0])
    prev = 0.0
    for iters in (1, 2, 3, 5, 10, 20, 50, 200):
        est = operator_norm_estimate(op, iters=iters, seed=seed)
        assert est <= true * (1.0 + 1e-12)
        assert est >= prev  # nondecreasing in the step cap
        prev = est
    reference = _power_iteration_200(a, seed)
    assert abs(prev - reference) <= 1e-10 * reference


class _CountingMatvec:
    """Wraps an operator's raw kernel and counts its calls."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, u):
        self.calls += 1
        return self.fn(u)


def test_operator_norm_is_cached_per_operator():
    a = substream(4, "cache").standard_normal((7, 5))
    op = make_dense(a)
    op._apply = apply_fn = _CountingMatvec(op._apply)
    first = operator_norm_estimate(op)
    assert apply_fn.calls == 24  # 23 steps to convergence, then ||F x||
    assert operator_norm_estimate(op) == first
    assert apply_fn.calls == 24  # the second call makes no apply
    # bit for bit what an operator with an empty cache computes
    assert operator_norm_estimate(make_dense(a)) == first


def test_operator_norm_cache_keys_on_iters_and_seed():
    a = substream(5, "cache").standard_normal((6, 6))
    op = make_dense(a)
    op._apply = apply_fn = _CountingMatvec(op._apply)
    base = operator_norm_estimate(op, iters=3, seed=0)
    other_seed = operator_norm_estimate(op, iters=3, seed=1)
    other_iters = operator_norm_estimate(op, iters=4, seed=0)
    assert apply_fn.calls == 4 + 4 + 5
    assert other_seed == operator_norm_estimate(make_dense(a), iters=3, seed=1)
    assert other_iters == operator_norm_estimate(make_dense(a), iters=4, seed=0)
    assert base != other_seed
    assert sorted(op._norm_cache) == [(3, 0), (3, 1), (4, 0)]


def test_substream_determinism_and_separation():
    a = substream(42, "noise", 3).standard_normal(5)
    b = substream(42, "noise", 3).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    c = substream(42, "noise", 4).standard_normal(5)
    d = substream(42, "design", 3).standard_normal(5)
    e = substream(43, "noise", 3).standard_normal(5)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert not np.array_equal(a, e)


def test_substream_streams_look_independent():
    x = substream(0, "design").standard_normal(20_000)
    y = substream(0, "noise").standard_normal(20_000)
    r = float(np.corrcoef(x, y)[0, 1])
    assert abs(r) < 0.03  # ~4 sigma for i.i.d. N(0,1) pairs
