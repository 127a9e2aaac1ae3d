"""Concrete forward operators and sampled empirical designs.

Provides dense matrix operators, circular convolution, a parallel-beam Radon
transform on [-1,1]^2 with exact ray/pixel intersection lengths (so the
adjoint is the exact transpose), and row-sampled operators whose rows are
scaled by sqrt(weight) so that plain Euclidean norms realize weighted
quadrature norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from varreg.core import LinearForwardMap, _check_count, as_vector

__all__ = [
    "RadonGeometry",
    "SampledDesign",
    "draw_design",
    "full_design",
    "load_image_csv",
    "make_convolution",
    "make_dense",
    "make_radon",
    "make_random_dense",
    "make_sampled",
    "population_map",
    "save_image_csv",
]

_EPS = 1e-12
# crossing parameters per array pass of make_radon
_RADON_CHUNK = 1 << 14
OFFSET_BOUND = float(np.sqrt(2.0))


def make_dense(matrix) -> LinearForwardMap:
    """Forward map backed by its own read-only copy of a dense matrix."""
    return LinearForwardMap(np.array(matrix, dtype=float))


def make_random_dense(out_dim: int, in_dim: int, seed: int = 0, singular_values=None) -> LinearForwardMap:
    """Seeded random dense operator with a prescribed singular spectrum.

    With ``singular_values=None`` the spectrum is drawn uniformly from
    [0.5, 1.5], giving a well-conditioned map.
    """
    rng = np.random.default_rng(seed)
    k = min(out_dim, in_dim)
    if singular_values is None:
        svals = rng.uniform(0.5, 1.5, size=k)
    else:
        svals = np.asarray(singular_values, dtype=float)
        if svals.size != k:
            raise ValueError(f"need {k} singular values, got {svals.size}")
    qu, _ = np.linalg.qr(rng.standard_normal((out_dim, k)))
    qv, _ = np.linalg.qr(rng.standard_normal((in_dim, k)))
    return make_dense(qu @ (svals[:, None] * qv.T))


def make_convolution(kernel, n: int) -> LinearForwardMap:
    """Circular convolution on signals of length ``n``, as a sparse circulant.

    The kernel is centered: tap j acts at shift s_j = j - (len(kernel)-1)//2,
    so row i holds tap j at column (i - s_j) mod n.  A symmetric kernel gives
    a symmetric operator, and the impulse response of [0.25, 0.5, 0.25]
    starts at 0.5.
    """
    k = as_vector(kernel, name="kernel")
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"signal length must be positive and an integer, got n={n!r}")
    if k.size == 0:
        raise ValueError("kernel must have at least one tap")
    if k.size > n:
        raise ValueError("kernel longer than signal")
    shifts = np.arange(k.size) - (k.size - 1) // 2
    rows = np.arange(n)[:, None]
    cols = (rows - shifts) % n
    return LinearForwardMap(sp.csr_matrix((np.tile(k, n), (np.repeat(rows, k.size), cols.ravel())),
                                          shape=(n, n)))


# ---------------------------------------------------------------------------
# Radon transform
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class RadonGeometry:
    """Parallel-beam geometry: pixel grid on [-1,1]^2, ray angles and offsets.

    A ray with angle phi in [0, pi) and signed offset s (|s| <= sqrt(2)) is the
    line {s*(cos phi, sin phi) + t*(-sin phi, cos phi)}.  Rows of the resulting
    operator enumerate angles (outer) then offsets (inner).
    """

    grid_n: int
    angles: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        self.angles = as_vector(self.angles, name="angles")
        self.offsets = as_vector(self.offsets, name="offsets")
        _check_count(self.grid_n, 1, "grid_n")
        if self.angles.size == 0 or self.offsets.size == 0:
            raise ValueError("need at least one angle and one offset")
        if np.any(self.angles < 0.0) or np.any(self.angles >= np.pi):
            raise ValueError("angles must lie in [0, pi)")
        if np.any(np.abs(self.offsets) > OFFSET_BOUND + 1e-12):
            raise ValueError("offsets must lie in [-sqrt(2), sqrt(2)]")

    @property
    def in_dim(self) -> int:
        return self.grid_n * self.grid_n

    @property
    def out_dim(self) -> int:
        return self.angles.size * self.offsets.size

    @classmethod
    def regular(cls, grid_n: int, n_angles: int, n_offsets: int) -> "RadonGeometry":
        _check_count(n_angles, 1, "n_angles")
        _check_count(n_offsets, 1, "n_offsets")
        angles = np.arange(n_angles) * np.pi / n_angles
        offsets = np.linspace(-OFFSET_BOUND, OFFSET_BOUND, n_offsets)
        return cls(grid_n=grid_n, angles=angles, offsets=offsets)


def make_radon(geometry: RadonGeometry) -> LinearForwardMap:
    """Discrete Radon transform: a sparse matrix of exact chord lengths.

    Pixels are indexed iy*grid_n + ix with x and y both increasing.  The
    crossing parameters of a chunk of rays are computed in one array pass (as
    in Siddon's algorithm); a chunk holds about ``_RADON_CHUNK`` of them, which
    bounds peak memory.  Each ray's segments are emitted in order of t with
    the expressions of a per-ray trace, so the matrix is that trace's, bit for bit
    (the tests keep the trace as their reference).
    """
    n = geometry.grid_n
    h = 2.0 / n
    edges = -1.0 + h * np.arange(n + 1)
    cs = np.stack([np.cos(geometry.angles), np.sin(geometry.angles)], axis=1)
    p0 = (geometry.offsets[None, :, None] * cs[:, None, :]).reshape(-1, 2)
    d = np.repeat(np.stack([-cs[:, 1], cs[:, 0]], axis=1), geometry.offsets.size, axis=0)
    # an axis the ray runs along (|d| <= _EPS) bounds nothing; the ray misses if it lies outside
    ok = np.abs(d) > _EPS
    dd = np.where(ok, d, 1.0)
    t0, t1 = (-1.0 - p0) / dd, (1.0 - p0) / dd
    t_lo = np.where(ok, np.minimum(t0, t1), -np.inf).max(axis=1)
    t_hi = np.where(ok, np.maximum(t0, t1), np.inf).min(axis=1)
    hit = (t_hi > t_lo) & np.all(ok | (np.abs(p0) <= 1.0), axis=1)
    step = max(1, _RADON_CHUNK // (2 * n + 4))
    rows, cols, vals = [], [], []
    for r0 in range(0, geometry.out_dim, step):
        rs = slice(r0, r0 + step)
        lo, hi = t_lo[rs, None, None], t_hi[rs, None, None]
        t = (edges - p0[rs, :, None]) / dd[rs, :, None]
        t[~((t > lo) & (t < hi) & ok[rs, :, None])] = np.nan
        # crossing table of [t_lo, t_hi, x crossings, y crossings]; NaN marks no crossing
        table = np.concatenate([lo[:, 0], hi[:, 0], t.reshape(t.shape[0], -1)], axis=1)
        table[~hit[rs]] = np.nan
        table.sort(axis=1)
        # a repeated crossing gives a zero-length segment, dropped with the NaN tail
        r, j = np.nonzero(np.diff(table, axis=1) > 1e-14)
        ta, tb = table[r, j], table[r, j + 1]
        mids = p0[r0 + r] + (0.5 * (ta + tb))[:, None] * d[r0 + r]
        # midpoints are strictly inside the box, so the cast truncates like floor
        pix = np.clip(((mids + 1.0) / h).astype(np.int64), 0, n - 1)
        rows.append(r0 + r)
        cols.append(pix[:, 1] * n + pix[:, 0])
        vals.append(tb - ta)
    rows, cols, vals = (np.concatenate(a) for a in (rows, cols, vals))
    return LinearForwardMap(sp.csr_matrix((vals, (rows, cols)), shape=(geometry.out_dim, geometry.in_dim)))


# ---------------------------------------------------------------------------
# Sampled designs
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class SampledDesign:
    """Row-sampling design: which base rows are observed, with what weights.

    ``noise`` holds the additive data noise per sampled row (before the
    sqrt-weight scaling that make_sampled applies to rows and data alike).
    """

    sample_rows: np.ndarray
    weights: np.ndarray
    noise: np.ndarray
    noise_sigma: float = 0.0

    def __post_init__(self):
        self.sample_rows = np.asarray(self.sample_rows, dtype=np.int64)
        if self.sample_rows.ndim != 1 or self.sample_rows.size == 0:
            raise ValueError("sample_rows must be a non-empty 1-d index array")
        self.weights = as_vector(self.weights, self.sample_rows.size, "weights")
        self.noise = as_vector(self.noise, self.sample_rows.size, "noise")
        if np.any(self.weights < 0.0):
            raise ValueError("weights must be nonnegative")
        if abs(float(self.weights.sum()) - 1.0) > 1e-9:
            raise ValueError("weights must sum to 1")

    @property
    def size(self) -> int:
        return self.sample_rows.size


def draw_design(base_out_dim: int, n_samples: int, noise_sigma: float, seed: int) -> SampledDesign:
    """Draw i.i.d. uniform row indices and Gaussian noise, deterministically."""
    _check_count(n_samples, 1, "n_samples")
    if not 0.0 <= noise_sigma < np.inf:
        raise ValueError(f"noise_sigma must be finite and nonnegative, got {noise_sigma}")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    rows = rng.integers(0, base_out_dim, size=n_samples)
    noise = noise_sigma * rng.standard_normal(n_samples)
    weights = np.full(n_samples, 1.0 / n_samples)
    return SampledDesign(sample_rows=rows, weights=weights, noise=noise, noise_sigma=float(noise_sigma))


def full_design(base_out_dim: int) -> SampledDesign:
    """Deterministic design that observes every base row once, uniformly."""
    rows = np.arange(base_out_dim, dtype=np.int64)
    weights = np.full(base_out_dim, 1.0 / base_out_dim)
    return SampledDesign(sample_rows=rows, weights=weights, noise=np.zeros(base_out_dim), noise_sigma=0.0)


def make_sampled(op: LinearForwardMap, design: SampledDesign) -> LinearForwardMap:
    """Row-sampled operator: output i is sqrt(weights[i]) * (F u)[rows[i]].

    With all rows sampled once at uniform weights this realizes the weighted
    quadrature norm exactly: ||F~ u||^2 = (1/m) ||F u||^2.
    """
    rows = design.sample_rows
    if rows.min() < 0 or rows.max() >= op.out_dim:
        raise ValueError("sample_rows out of range for base operator")
    sqw = np.sqrt(design.weights)
    a = op.matrix[rows]
    if sp.issparse(a):
        # scale rows in place on the fresh row selection, keeping its sorted indices
        a.data *= np.repeat(sqw, np.diff(a.indptr))
    else:
        a = sqw[:, None] * a
    return LinearForwardMap(a)


def population_map(op: LinearForwardMap) -> LinearForwardMap:
    """``make_sampled(op, full_design(op.out_dim))``, built once per operator.

    The map depends only on the immutable ``op``, so it is memoized on the
    operator itself and lives exactly as long as it.
    """
    if op._population is None:
        op._population = make_sampled(op, full_design(op.out_dim))
    return op._population


# ---------------------------------------------------------------------------
# CSV serialization of images / sinograms
# ---------------------------------------------------------------------------


def save_image_csv(path, image: np.ndarray) -> None:
    """Write a 2-d array as CSV, row-major, with a leading 'nrows,ncols' header."""
    img = np.asarray(image, dtype=float)
    if img.ndim != 2:
        raise ValueError("image must be 2-d")
    with open(path, "w", newline="") as fh:
        fh.write(f"{img.shape[0]},{img.shape[1]}\n")
        for row in img:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def load_image_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        nrows, ncols = int(header[0]), int(header[1])
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (nrows, ncols):
        raise ValueError(f"CSV payload {data.shape} does not match header ({nrows},{ncols})")
    return data
