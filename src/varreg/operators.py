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

from varreg.core import LinearForwardMap, as_vector

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
        if self.grid_n <= 0:
            raise ValueError("grid_n must be positive")
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
        angles = np.arange(n_angles) * np.pi / n_angles
        offsets = np.linspace(-OFFSET_BOUND, OFFSET_BOUND, n_offsets)
        return cls(grid_n=grid_n, angles=angles, offsets=offsets)


def _trace_ray(grid_n: int, angle: float, offset: float):
    """Exact intersection lengths of one ray with the pixel grid.

    Returns (flat pixel indices, lengths); pixels are indexed iy*grid_n + ix
    with x and y both increasing.
    """
    c, s = np.cos(angle), np.sin(angle)
    p0 = np.array([offset * c, offset * s])
    d = np.array([-s, c])

    t_lo, t_hi = -np.inf, np.inf
    for axis in range(2):
        if abs(d[axis]) > _EPS:
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
        if abs(d[axis]) > _EPS:
            t = (edges - p0[axis]) / d[axis]
            crossings.append(t[(t > t_lo) & (t < t_hi)])
    t = np.unique(np.concatenate(crossings))
    if t.size < 2:
        return np.empty(0, dtype=np.int64), np.empty(0)

    lengths = np.diff(t)
    mids = p0[None, :] + (0.5 * (t[:-1] + t[1:]))[:, None] * d[None, :]
    # midpoints are strictly inside the box, so the cast truncates like floor
    ix = np.clip(((mids[:, 0] + 1.0) / h).astype(np.int64), 0, grid_n - 1)
    iy = np.clip(((mids[:, 1] + 1.0) / h).astype(np.int64), 0, grid_n - 1)
    keep = lengths > 1e-14
    return (iy[keep] * grid_n + ix[keep]), lengths[keep]


def make_radon(geometry: RadonGeometry) -> LinearForwardMap:
    """Discrete Radon transform with exact pixel-intersection weights.

    The operator is assembled as a sparse matrix of chord lengths, so the
    adjoint is the exact transpose and adjoint consistency holds to roundoff.
    """
    rows, cols, vals = [], [], []
    n_off = geometry.offsets.size
    for ia, angle in enumerate(geometry.angles):
        for io, offset in enumerate(geometry.offsets):
            idx, lens = _trace_ray(geometry.grid_n, float(angle), float(offset))
            if idx.size:
                r = ia * n_off + io
                rows.append(np.full(idx.size, r, dtype=np.int64))
                cols.append(idx)
                vals.append(lens)
    if rows:
        rows = np.concatenate(rows)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
    else:  # pragma: no cover - degenerate geometry
        rows = np.empty(0, dtype=np.int64)
        cols = np.empty(0, dtype=np.int64)
        vals = np.empty(0)
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
    seed: int = 0
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
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if noise_sigma < 0.0:
        raise ValueError("noise_sigma must be nonnegative")
    rng = np.random.default_rng(np.random.SeedSequence(int(seed)))
    rows = rng.integers(0, base_out_dim, size=n_samples)
    noise = noise_sigma * rng.standard_normal(n_samples)
    weights = np.full(n_samples, 1.0 / n_samples)
    return SampledDesign(rows, weights, noise, seed=seed, noise_sigma=float(noise_sigma))


def full_design(base_out_dim: int) -> SampledDesign:
    """Deterministic design that observes every base row once, uniformly."""
    rows = np.arange(base_out_dim, dtype=np.int64)
    weights = np.full(base_out_dim, 1.0 / base_out_dim)
    return SampledDesign(rows, weights, np.zeros(base_out_dim), seed=0, noise_sigma=0.0)


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
