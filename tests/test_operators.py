import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from varreg import (
    RadonGeometry,
    adjoint_consistency_check,
    draw_design,
    full_design,
    identity_map,
    load_image_csv,
    make_convolution,
    make_dense,
    make_radon,
    make_random_dense,
    make_sampled,
    population_map,
    save_image_csv,
    substream,
)
from varreg import operators


def test_make_dense_matches_matmul():
    rng = substream(0, "dense")
    a = rng.standard_normal((5, 3))
    op = make_dense(a)
    u = rng.standard_normal(3)
    v = rng.standard_normal(5)
    np.testing.assert_allclose(op.apply(u), a @ u, atol=1e-14)
    np.testing.assert_allclose(op.adjoint(v), a.T @ v, atol=1e-14)


def test_dense_matrices_are_read_only_copies():
    a = substream(1, "dense").standard_normal((4, 3))
    op = make_dense(a)
    a[0, 0] += 1.0  # the caller's array stays theirs
    assert op.matrix[0, 0] == a[0, 0] - 1.0
    sampled = make_sampled(op, full_design(op.out_dim))
    for m in (op.matrix, sampled.matrix):
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.0


def test_csr_matrices_are_read_only():
    radon = make_radon(RadonGeometry.regular(6, 4, 5))
    sampled = make_sampled(radon, draw_design(radon.out_dim, 9, 0.0, seed=2))
    for m in (radon.matrix, sampled.matrix):
        for arr in (m.data, m.indices, m.indptr):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]
        # what the library does with an operator's matrix still works
        assert m[[0, 2, 2]].shape == (3, m.shape[1])
        assert m.T.tocsr().shape == m.shape[::-1]
        stacked = sp.vstack([m, sp.identity(m.shape[1], format="csr")]).tocsr()
        assert abs(stacked).sum() == pytest.approx(abs(m.toarray()).sum() + m.shape[1])
    assert abs(radon.matrix).nnz == radon.matrix.nnz


def test_sampled_csr_keeps_sorted_indices():
    # rows are scaled on the fresh row selection, so the sampled matrix keeps
    # the base's sorted column indices and scipy can canonicalize it in place
    radon = make_radon(RadonGeometry.regular(8, 6, 7))
    design = draw_design(radon.out_dim, 50, 0.0, seed=4)
    m = make_sampled(radon, design).matrix
    assert m.has_sorted_indices
    m.sort_indices()
    dense = np.sqrt(design.weights)[:, None] * radon.matrix.toarray()[design.sample_rows]
    np.testing.assert_array_equal(abs(m).toarray(), np.abs(dense))


def test_make_dense_rejects_bad_matrix():
    with pytest.raises(ValueError, match="2-d and non-empty"):
        make_dense(np.zeros((0, 3)))
    with pytest.raises(ValueError, match="2-d and non-empty"):
        make_dense(np.zeros(4))


def test_make_random_dense_spectrum():
    sv = np.array([2.0, 1.0, 0.25])
    op = make_random_dense(6, 3, seed=9, singular_values=sv)
    got = np.linalg.svd(op.matrix, compute_uv=False)
    np.testing.assert_allclose(np.sort(got)[::-1], sv, atol=1e-12)
    # same seed reproduces the operator exactly
    again = make_random_dense(6, 3, seed=9, singular_values=sv)
    np.testing.assert_array_equal(op.matrix, again.matrix)


def test_convolution_impulse_response():
    op = make_convolution([0.5, 0.25, 0.25], 8)
    e0 = np.zeros(8)
    e0[0] = 1.0
    np.testing.assert_allclose(
        op.apply(e0), [0.25, 0.25, 0, 0, 0, 0, 0, 0.5], atol=1e-15
    )


def test_convolution_matches_roll_oracle():
    # centered circular convolution: out = sum_j k[j] * roll(u, j - (m-1)//2)
    rng = substream(1, "conv")
    for m, n in [(2, 6), (3, 8), (5, 9), (7, 16)]:
        k = rng.standard_normal(m)
        op = make_convolution(k, n)
        u = rng.standard_normal(n)
        c = (m - 1) // 2
        oracle = sum(k[j] * np.roll(u, j - c) for j in range(m))
        np.testing.assert_allclose(op.apply(u), oracle, atol=1e-13)


def test_convolution_preserves_constants():
    op = make_convolution([0.5, 0.25, 0.25], 10)  # kernel sums to one
    np.testing.assert_allclose(op.apply(np.ones(10)), np.ones(10), atol=1e-14)


def test_convolution_rejects_bad_sizes():
    with pytest.raises(ValueError, match="kernel longer than signal"):
        make_convolution([1.0, 2.0, 3.0], 2)
    with pytest.raises(ValueError, match="signal length must be positive"):
        make_convolution([1.0], 0)
    # a non-integer length is rejected, not truncated to an integer size
    for n in (2.5, 3.0, True):
        with pytest.raises(ValueError, match=f"n={n!r}"):
            make_convolution([1.0], n)


def test_convolution_rejects_empty_kernel():
    # an empty kernel would otherwise build the zero operator without a word
    with pytest.raises(ValueError, match="kernel must have at least one tap"):
        make_convolution([], 8)


def test_radon_zero_image():
    op = make_radon(RadonGeometry.regular(16, 8, 11))
    np.testing.assert_array_equal(op.apply(np.zeros(256)), np.zeros(88))


def _chord_of_square(angle: float, offset: float) -> float:
    # exact line/box intersection length, computed independently of the
    # pixel-walking code under test
    c, s = np.cos(angle), np.sin(angle)
    p0 = np.array([offset * c, offset * s])
    d = np.array([-s, c])
    lo, hi = -np.inf, np.inf
    for i in range(2):
        if abs(d[i]) < 1e-15:
            if abs(p0[i]) > 1.0:
                return 0.0
        else:
            a, b = (-1.0 - p0[i]) / d[i], (1.0 - p0[i]) / d[i]
            lo, hi = max(lo, min(a, b)), min(hi, max(a, b))
    return max(hi - lo, 0.0)


def test_radon_constant_image_gives_chord_lengths():
    geo = RadonGeometry.regular(16, 12, 17)
    op = make_radon(geo)
    sino = op.apply(np.ones(op.in_dim))
    r = 0
    for a in geo.angles:
        for off in geo.offsets:
            assert abs(sino[r] - _chord_of_square(float(a), float(off))) <= 1e-12
            r += 1


def test_radon_disk_chords():
    # chords of a centered disk of radius R: 2*sqrt(R^2 - s^2); the pixelated
    # disk agrees to O(1/grid_n)
    grid = 256
    xs = (np.arange(grid) + 0.5) * (2.0 / grid) - 1.0
    X, Y = np.meshgrid(xs, xs)
    disk = (X**2 + Y**2 <= 0.25).astype(float).ravel()
    geo = RadonGeometry(grid_n=grid, angles=np.array([0.3]), offsets=np.array([0.0, 0.3]))
    sino = make_radon(geo).apply(disk)
    assert abs(sino[0] - 1.0) <= 0.02
    assert abs(sino[1] - 0.8) <= 0.02


def test_radon_geometry_validation():
    with pytest.raises(ValueError, match="grid_n"):
        RadonGeometry(grid_n=0, angles=np.array([0.0]), offsets=np.array([0.0]))
    with pytest.raises(ValueError, match="angles"):
        RadonGeometry(grid_n=4, angles=np.array([-0.1]), offsets=np.array([0.0]))
    with pytest.raises(ValueError, match="offsets"):
        RadonGeometry(grid_n=4, angles=np.array([0.0]), offsets=np.array([2.0]))


def test_radon_adjoint_consistency():
    for grid in (16, 32):
        op = make_radon(RadonGeometry.regular(grid, 10, 14))
        assert adjoint_consistency_check(op, trials=8, seed=3) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True)
@given(grid_n=st.integers(1, 20), n_angles=st.integers(1, 12), n_offsets=st.integers(1, 16),
       seed=st.integers(0, 2**32 - 1))
def test_radon_adjoint_consistency_property(grid_n, n_angles, n_offsets, seed):
    op = make_radon(RadonGeometry.regular(grid_n, n_angles, n_offsets))
    assert adjoint_consistency_check(op, trials=8, seed=seed) <= 1e-12


@pytest.mark.parametrize("kwargs", [{"grid_n": 2.5}, {"grid_n": True}, {"grid_n": np.float64(3.0)}])
def test_radon_geometry_rejects_non_integer_grid(kwargs):
    with pytest.raises(ValueError, match="grid_n"):
        RadonGeometry(angles=np.array([0.0]), offsets=np.array([0.0]), **kwargs)


@pytest.mark.parametrize("args, name", [
    ((2.5, 3, 3), "grid_n"),
    ((4, 2.5, 3), "n_angles"),
    ((4, True, 3), "n_angles"),
    ((4, 0, 3), "n_angles"),
    ((4, 3, 2.5), "n_offsets"),
    ((4, 3, np.float64(3.0)), "n_offsets"),
])
def test_radon_regular_rejects_non_integer_counts(args, name):
    with pytest.raises(ValueError, match=name):
        RadonGeometry.regular(*args)


def test_radon_regular_accepts_numpy_integers():
    geo = RadonGeometry.regular(np.int64(5), np.int64(3), np.int32(4))
    assert (geo.in_dim, geo.out_dim) == (25, 12)
    _assert_same_csr(make_radon(geo).matrix, make_radon(RadonGeometry.regular(5, 3, 4)).matrix)


def _trace_ray_reference(grid_n, angle, offset):
    """Exact intersection lengths of one ray with the pixel grid, transcribed
    from the per-ray trace that make_radon's array pass replaced."""
    eps = 1e-12
    c, s = np.cos(angle), np.sin(angle)
    p0 = np.array([offset * c, offset * s])
    d = np.array([-s, c])
    t_lo, t_hi = -np.inf, np.inf
    for axis in range(2):
        if abs(d[axis]) > eps:
            t0 = (-1.0 - p0[axis]) / d[axis]
            t1 = (1.0 - p0[axis]) / d[axis]
            t_lo = max(t_lo, min(t0, t1))
            t_hi = min(t_hi, max(t0, t1))
        elif not -1.0 <= p0[axis] <= 1.0:
            return np.empty(0, dtype=np.int64), np.empty(0)
    if not t_hi > t_lo:
        return np.empty(0, dtype=np.int64), np.empty(0)
    h = 2.0 / grid_n
    edges = -1.0 + h * np.arange(grid_n + 1)
    crossings = [np.array([t_lo, t_hi])]
    for axis in range(2):
        if abs(d[axis]) > eps:
            t = (edges - p0[axis]) / d[axis]
            crossings.append(t[(t > t_lo) & (t < t_hi)])
    t = np.unique(np.concatenate(crossings))
    if t.size < 2:
        return np.empty(0, dtype=np.int64), np.empty(0)
    lengths = np.diff(t)
    mids = p0[None, :] + (0.5 * (t[:-1] + t[1:]))[:, None] * d[None, :]
    ix = np.clip(((mids[:, 0] + 1.0) / h).astype(np.int64), 0, grid_n - 1)
    iy = np.clip(((mids[:, 1] + 1.0) / h).astype(np.int64), 0, grid_n - 1)
    keep = lengths > 1e-14
    return (iy[keep] * grid_n + ix[keep]), lengths[keep]


def _radon_reference(geo):
    """The per-ray loop over angles (outer) and offsets (inner), as a CSR matrix."""
    rows, cols, vals = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for ia, angle in enumerate(geo.angles):
        for io, offset in enumerate(geo.offsets):
            idx, lens = _trace_ray_reference(geo.grid_n, float(angle), float(offset))
            rows.append(np.full(idx.size, ia * geo.offsets.size + io, dtype=np.int64))
            cols.append(idx)
            vals.append(lens)
    coo = (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols)))
    return sp.csr_matrix(coo, shape=(geo.out_dim, geo.in_dim))


def _assert_same_csr(a, b):
    for field in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


# rays at and within 1e-13 of the axes (|d| on either side of the 1e-12 cut), through
# corners, along grid lines and the box's sides, and just missing the grid
_EDGE_ANGLES = np.array([0.0, 1e-14, 1e-13, 5e-13, 1e-12, 2e-12, np.pi / 4,
                         np.pi / 2 - 1e-13, np.pi / 2 - 1e-14, np.pi / 2, np.pi / 2 + 1e-14,
                         np.pi / 2 + 1e-13, 3 * np.pi / 4, np.pi - 1e-13])
_EDGE_OFFSETS = np.array([-np.sqrt(2.0), -1.0, -0.5, 0.0, 0.5, 1.0, np.sqrt(2.0), np.sqrt(2.0) + 1e-12])


def _random_geometry(seed):
    rng = np.random.default_rng(seed)
    return RadonGeometry(int(rng.integers(1, 41)), rng.uniform(0.0, np.pi, 30),
                         rng.uniform(-np.sqrt(2.0), np.sqrt(2.0), 20))


_BIT_IDENTITY_GEOMETRIES = {
    "cli-16": lambda: RadonGeometry.regular(16, 18, 18),
    "bench-24": lambda: RadonGeometry.regular(24, 18, 18),
    "bench-32": lambda: RadonGeometry.regular(32, 40, 50),
    "grid-64": lambda: RadonGeometry.regular(64, 24, 28),
    "edge-rays-8": lambda: RadonGeometry(8, _EDGE_ANGLES, _EDGE_OFFSETS),
    "edge-rays-7": lambda: RadonGeometry(7, _EDGE_ANGLES, _EDGE_OFFSETS),
    "one-pixel": lambda: RadonGeometry(1, _EDGE_ANGLES, _EDGE_OFFSETS),
    "one-pixel-regular": lambda: RadonGeometry.regular(1, 7, 9),
    **{f"random-{seed}": (lambda seed=seed: _random_geometry(seed)) for seed in range(4)},
}


@pytest.mark.parametrize("name", sorted(_BIT_IDENTITY_GEOMETRIES))
def test_radon_matches_per_ray_trace_bit_for_bit(name):
    geo = _BIT_IDENTITY_GEOMETRIES[name]()
    _assert_same_csr(make_radon(geo).matrix, _radon_reference(geo))


@pytest.mark.parametrize("chunk", [1, 36 * 7 + 5], ids=["one-ray", "split-angle"])
def test_radon_does_not_depend_on_chunk_size(monkeypatch, chunk):
    # 36 * 7 + 5 entries hold 7 rays of a 16^2 grid, so chunks split each angle's 18 offsets
    geos = [RadonGeometry.regular(16, 18, 18), RadonGeometry(8, _EDGE_ANGLES, _EDGE_OFFSETS)]
    expected = [make_radon(geo).matrix for geo in geos]
    monkeypatch.setattr(operators, "_RADON_CHUNK", chunk)
    for geo, ref in zip(geos, expected):
        _assert_same_csr(make_radon(geo).matrix, ref)


def test_radon_build_peak_memory_is_bounded():
    # chunked, the traced peak is about 5 CSRs' bytes; one pass over all 2000 rays at once, about 13
    geo = RadonGeometry.regular(32, 40, 50)
    tracemalloc.start()
    try:
        m = make_radon(geo).matrix
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (m.data.nbytes + m.indices.nbytes + m.indptr.nbytes)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(base=st.sampled_from(["radon", "dense", "convolution"]), size=st.integers(3, 16),
       n_samples=st.integers(1, 60), noise_sigma=st.floats(0.0, 1.0),
       seed=st.integers(0, 2**32 - 1))
def test_sampled_adjoint_consistency_property(base, size, n_samples, noise_sigma, seed):
    # a sparse base (radon, convolution) and a dense one are both row-selected from their matrix
    op = {"radon": lambda: make_radon(RadonGeometry.regular(size, 6, size)),
          "dense": lambda: make_random_dense(size + 5, size, seed=seed),
          "convolution": lambda: make_convolution([0.25, 0.5, 0.25], size)}[base]()
    assert sp.issparse(op.matrix) == (base != "dense")
    sampled = make_sampled(op, draw_design(op.out_dim, n_samples, noise_sigma, seed))
    assert adjoint_consistency_check(sampled, trials=8, seed=seed) <= 1e-12


_FACTORIES = {
    "identity": lambda: identity_map(6),
    "dense": lambda: make_dense(substream(0, "factory").standard_normal((4, 6))),
    "random-dense": lambda: make_random_dense(9, 6, seed=2),
    "convolution": lambda: make_convolution([0.1, 0.6, 0.3], 6),
    "radon": lambda: make_radon(RadonGeometry.regular(4, 5, 6)),
    "sampled-sparse": lambda: make_sampled(make_radon(RadonGeometry.regular(4, 5, 6)),
                                           draw_design(30, 7, 0.1, seed=3)),
    "sampled-dense": lambda: make_sampled(make_random_dense(9, 6, seed=2), draw_design(9, 7, 0.1, seed=3)),
    "population": lambda: population_map(make_random_dense(9, 6, seed=2)),
}


@pytest.mark.parametrize("name", sorted(_FACTORIES))
def test_every_operator_is_its_read_only_matrix(name):
    # one representation: a read-only ndarray or CSR whose products take vectors and blocks
    op = _FACTORIES[name]()
    m = op.matrix
    if sp.issparse(m):
        assert m.format == "csr"
        arrays = (m.data, m.indices, m.indptr)
    else:
        assert isinstance(m, np.ndarray)
        arrays = (m,)
    assert not any(a.flags.writeable for a in arrays)
    assert m.shape == (op.out_dim, op.in_dim)
    rng = substream(1, "factory")
    x, y = rng.standard_normal((op.in_dim, 3)), rng.standard_normal((op.out_dim, 3))
    np.testing.assert_allclose(op._apply(x), np.column_stack([op.apply(c) for c in x.T]),
                               rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(op._adjoint(y), np.column_stack([op.adjoint(c) for c in y.T]),
                               rtol=0.0, atol=1e-14)


def test_full_design_realizes_quadrature_norm():
    rng = substream(2, "sample")
    base = make_dense(rng.standard_normal((12, 5)))
    emp = make_sampled(base, full_design(base.out_dim))
    u = rng.standard_normal(5)
    lhs = float(np.dot(emp.apply(u), emp.apply(u)))
    rhs = float(np.dot(base.apply(u), base.apply(u))) / base.out_dim
    assert abs(lhs - rhs) <= 1e-14


def test_sampled_single_row():
    rng = substream(3, "sample")
    base = make_dense(rng.standard_normal((6, 4)))
    design = draw_design(6, 1, noise_sigma=0.0, seed=11)
    emp = make_sampled(base, design)
    u = rng.standard_normal(4)
    row = int(design.sample_rows[0])
    np.testing.assert_allclose(emp.apply(u), [base.apply(u)[row]], atol=1e-14)


def test_sampled_norm_is_unbiased():
    # E ||F~ u||^2 = (1/m) ||F u||^2 under uniform row sampling
    rng = substream(4, "sample")
    base = make_dense(rng.standard_normal((30, 6)))
    u = rng.standard_normal(6)
    target = float(np.dot(base.apply(u), base.apply(u))) / base.out_dim
    vals = []
    for r in range(1000):
        emp = make_sampled(base, draw_design(30, 20, noise_sigma=0.0, seed=r))
        fu = emp.apply(u)
        vals.append(float(np.dot(fu, fu)))
    vals = np.asarray(vals)
    stderr = vals.std(ddof=1) / np.sqrt(vals.size)
    assert abs(vals.mean() - target) <= 3.0 * stderr


def test_sampled_rejects_out_of_range_rows():
    base = make_dense(np.eye(4))
    design = full_design(6)
    with pytest.raises(ValueError, match="out of range"):
        make_sampled(base, design)


def test_draw_design_determinism_and_noise():
    d1 = draw_design(50, 200, noise_sigma=0.1, seed=7)
    d2 = draw_design(50, 200, noise_sigma=0.1, seed=7)
    np.testing.assert_array_equal(d1.sample_rows, d2.sample_rows)
    np.testing.assert_array_equal(d1.noise, d2.noise)
    assert not np.array_equal(d1.noise, draw_design(50, 200, 0.1, seed=8).noise)
    np.testing.assert_array_equal(draw_design(50, 200, 0.0, seed=7).noise, np.zeros(200))
    big = draw_design(50, 100_000, noise_sigma=0.1, seed=1)
    assert 0.009 <= float(np.var(big.noise)) <= 0.011
    np.testing.assert_allclose(d1.weights, np.full(200, 1.0 / 200), atol=1e-16)


def test_draw_design_validation():
    for n_samples in (0, -3, 2.5, True, np.float64(4.0)):
        with pytest.raises(ValueError, match="n_samples must be an integer >= 1"):
            draw_design(10, n_samples, noise_sigma=0.0, seed=0)
    for noise_sigma in (-0.5, np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="noise_sigma must be finite and nonnegative"):
            draw_design(10, 5, noise_sigma=noise_sigma, seed=0)
    design = draw_design(10, np.int64(3), noise_sigma=0.1, seed=0)
    assert design.sample_rows.shape == design.noise.shape == (3,)
    np.testing.assert_array_equal(design.sample_rows, draw_design(10, 3, 0.1, seed=0).sample_rows)


def test_noise_sigma_whose_energy_overflows_is_refused():
    # n*sigma^2, the expected energy of the noise on n rows, must be finite, so that sigma^2 is
    design = draw_design(10, 4, noise_sigma=0.1, seed=0)
    for sigma in (1e300, 1e154):
        with pytest.raises(ValueError, match="noise_sigma must be finite and nonnegative"):
            draw_design(10, 4, noise_sigma=sigma, seed=0)
        with pytest.raises(ValueError, match="noise_sigma must be finite and nonnegative"):
            operators.SampledDesign(design.sample_rows, design.weights, design.noise, noise_sigma=sigma)

def test_image_csv_roundtrip(tmp_path):
    rng = substream(5, "img")
    img = rng.standard_normal((9, 9))
    path = tmp_path / "img.csv"
    save_image_csv(path, img)
    np.testing.assert_array_equal(load_image_csv(path), img)
