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
from varreg.core import _bound_product, _product
from varreg.operators import RadonGeometry, draw_design, make_radon, make_random_dense, make_sampled
from varreg.regularizers import tv_aniso


def test_inner_examples():
    assert inner([1.0, 2.0], [3.0, 4.0]) == 11.0
    assert inner([1.0, 0.0], [0.0, 5.0]) == 0.0


def test_inner_of_an_overflowing_product_is_inf_without_a_warning():
    # RuntimeWarning is an error in this suite; the product of two finite vectors may still overflow
    u = np.random.default_rng(0).standard_normal(12)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert inner(1e300 * u, 1e300 * u) == np.inf
    for n in (1, 7, 64, 1000):
        a, b = np.random.default_rng(n).standard_normal((2, n))
        assert inner(a, b) == float(np.dot(a, b))


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


def _adjoint_cases():
    """Sparse maps whose adjoint runs the CSC kernel on their own CSR arrays: Radon 32^2, the TV edge maps of a
    24^2 image and a 1-d signal, a sampled map with repeated rows, and a CSR with unsorted, duplicate entries."""
    radon = make_radon(RadonGeometry.regular(32, 40, 50))
    design = draw_design(radon.out_dim, 3 * radon.out_dim, 0.0, seed=5)
    assert np.unique(design.sample_rows).size < design.size
    messy = sp.csr_matrix((np.array([1.0, -2.0, 0.5, 3.0, 0.25, -1.5]), np.array([3, 0, 3, 2, 1, 2]),
                           np.array([0, 3, 3, 6])), shape=(3, 4))
    assert not messy.has_sorted_indices and not messy.has_canonical_format
    return {"radon-32": radon, "tv-24x24": tv_aniso((24, 24)).D, "tv-1d": tv_aniso(40).D,
            "sampled-repeated": make_sampled(radon, design), "unsorted-duplicates": LinearForwardMap(messy)}


@pytest.mark.parametrize("case", ["radon-32", "tv-24x24", "tv-1d", "sampled-repeated", "unsorted-duplicates"])
def test_sparse_adjoint_matches_scipy_transpose_product_bit_for_bit(case):
    # one CSR copy: the adjoint is the CSC product on the same arrays, with scipy's own bits for matrix.T @ x,
    # and those of the CSR transpose's product, so iterates do not move
    op = _adjoint_cases()[case]
    m, n = op.matrix, op.out_dim
    mt, mt_csr = m.T, m.T.tocsr()
    block = np.random.default_rng(4).standard_normal((n, 6))
    operands = {"vector": block[:, 0], "one-column": block[:, 1:2].copy(), "block-C": block,
                "block-F": np.asfortranarray(block)}
    for name, x in operands.items():
        y = op._adjoint(x)
        assert y.shape == (op.in_dim,) + x.shape[1:], name
        assert y.tobytes() == (mt @ x).tobytes() == (mt_csr @ x).tobytes(), name
    for x in (block[:, 2].copy(), block[:, 3].copy(), block, block[:, ::-1].copy()):
        # the kernel adds into its output, so each product must come out of a fresh zeroed array
        y = op._adjoint(x)
        assert y.flags.c_contiguous and y.tobytes() == (mt @ x).tobytes()
    assert op.adjoint(block[:, 0]).tobytes() == (mt @ block[:, 0]).tobytes()


def test_product_returns_fresh_writable_arrays():
    # callers update results in place, so a product makes a fresh buffer each call
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
    # the kernel reads its operand and writes its output without a bounds check, so both are checked: on each
    # call of the CSR product with the 9x7 matrix and the CSC product with its 7x9 transpose, and once, when
    # it is bound, for a product into fixed buffers with the matrix and its CSR transpose
    m = _csr_cases()["random"]
    for transpose, (rows, cols) in ((False, m.shape), (True, m.shape[::-1])):
        product = _product(m, transpose)
        matrix = m.T.tocsr() if transpose else m
        for x in (np.ones(cols - 1), np.ones(cols + 1), np.ones((cols - 1, 2))):
            with pytest.raises(DimensionMismatchError):
                product(x)
            with pytest.raises(DimensionMismatchError):
                _bound_product(matrix, x, np.empty((rows,) + x.shape[1:]))
        strided = np.empty((rows, 2))[:, 0]
        for out in (np.empty(rows - 1), np.empty((rows, 2)), np.empty((rows, 1)), strided, np.empty(rows, int)):
            with pytest.raises(DimensionMismatchError):
                _bound_product(matrix, np.ones(cols), out)
        for x in (np.ones((cols, 2))[:, 0], np.ones((2, cols)).T, np.ones(cols, int)):
            with pytest.raises(DimensionMismatchError):
                _bound_product(matrix, x, np.empty((rows,) + x.shape[1:]))
        read_only = np.empty(rows)
        read_only.flags.writeable = False
        with pytest.raises(DimensionMismatchError):
            _bound_product(matrix, np.ones(cols), read_only)


@pytest.mark.parametrize("layout", ["dense-C", "dense-adjoint-view", "csr"])
def test_product_into_out_matches_a_fresh_product_bit_for_bit(layout):
    # the primal-dual loop binds its two products once to buffers made once per solve; the CSR kernel adds into
    # its output, so a buffer holding the last product, or anything else, must give the bits of a fresh product
    m = _csr_cases()["radon-empty-rows"]
    op = LinearForwardMap(m if layout == "csr" else m.toarray())
    matrix = op.matrix.T if layout == "dense-adjoint-view" else op.matrix  # the view LinearForwardMap stores
    assert layout != "dense-adjoint-view" or not matrix.flags.c_contiguous
    rng = np.random.default_rng(3)
    for shape in [(matrix.shape[1],), (matrix.shape[1], 4)]:
        x, out = np.empty(shape), np.full((matrix.shape[0],) + shape[1:], np.nan)
        product = _bound_product(matrix, x, out)
        for _ in range(3):
            x[...] = rng.standard_normal(shape)
            product()
            assert out.tobytes() == _product(matrix)(x).tobytes() == (matrix @ x).tobytes()
    if layout == "csr":  # a CSC matrix, the transpose view, is bound through its CSR form, not read as CSR arrays
        x, out = rng.standard_normal(matrix.shape[0]), np.full(matrix.shape[1], np.nan)
        _bound_product(matrix.T, x, out)()
        assert out.tobytes() == (matrix.T @ x).tobytes()


def test_scipy_csr_kernels_exist_with_the_argument_order_used():
    # _product, _bound_product and make_sampled call scipy's private CSR/CSC kernels; a scipy release that
    # moves or reorders them fails here by name, not deep inside a solve
    try:
        from scipy.sparse._sparsetools import csc_matvec, csc_matvecs, csr_matvec, csr_matvecs, csr_row_index
    except ImportError as err:  # pragma: no cover - only on an incompatible scipy
        pytest.fail(f"scipy.sparse._sparsetools kernels not importable: {err}")
    m = sp.csr_matrix(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [0.0, 3.0, -1.0]]))
    x, block = np.array([1.0, 2.0, 3.0]), np.arange(6.0).reshape(3, 2)
    y = np.zeros(3)
    csr_matvec(3, 3, m.indptr, m.indices, m.data, x, y)
    assert np.array_equal(y, m @ x), "scipy.sparse._sparsetools.csr_matvec"
    yb = np.zeros((3, 2))
    csr_matvecs(3, 3, 2, m.indptr, m.indices, m.data, block, yb)
    assert np.array_equal(yb, m @ block), "scipy.sparse._sparsetools.csr_matvecs"
    # the CSR arrays of m are the CSC arrays of m.T, of shape (cols, rows)
    y = np.zeros(3)
    csc_matvec(3, 3, m.indptr, m.indices, m.data, x, y)
    assert np.array_equal(y, m.T @ x), "scipy.sparse._sparsetools.csc_matvec"
    yb = np.zeros((3, 2))
    csc_matvecs(3, 3, 2, m.indptr, m.indices, m.data, block, yb)
    assert np.array_equal(yb, m.T @ block), "scipy.sparse._sparsetools.csc_matvecs"
    rows, indices, data = np.array([2, 0, 2], dtype=m.indptr.dtype), np.empty(6, m.indices.dtype), np.empty(6)
    csr_row_index(3, rows, m.indptr, m.indices, m.data, indices, data)
    ref = m[[2, 0, 2]]
    assert np.array_equal(indices, ref.indices) and np.array_equal(data, ref.data), "csr_row_index"


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
