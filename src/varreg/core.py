"""Vectors, linear forward maps and basic numerical certificates.

Model and data space are finite-dimensional Euclidean spaces; vectors are
plain 1-d float64 arrays validated at the API boundary.  Quadrature weights
for weighted data norms are folded into operator rows (see
:mod:`varreg.operators`), so every inner product in this module is the plain
Euclidean one.
"""

from __future__ import annotations

import dataclasses
import math
import zlib

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec, csr_matvecs

__all__ = [
    "DimensionMismatchError",
    "LinearForwardMap",
    "adjoint_consistency_check",
    "as_vector",
    "identity_map",
    "inner",
    "norm",
    "operator_norm_estimate",
    "substream",
]


class DimensionMismatchError(ValueError):
    """Raised when vector or operator dimensions disagree."""


def as_vector(x, dim: int | None = None, name: str = "vector") -> np.ndarray:
    """Coerce ``x`` to a finite C-contiguous 1-d float64 array (a strided view is copied), checking its dimension."""
    v = np.ascontiguousarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"{name} has dimension {v.size}, expected {dim}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    return v


def _check_count(n, least: int, name: str) -> None:
    """Reject a count that is not an integer of at least ``least``."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {n!r}")


def _check_noise_sigma(sigma: float, rows: int) -> None:
    """Reject a noise level unless it is >= 0 and the energy rows*sigma^2 of noise on ``rows`` rows is finite."""
    if not (0.0 <= sigma and rows * float(sigma) * float(sigma) < math.inf):
        raise ValueError(f"noise_sigma must be finite and nonnegative with {rows}*noise_sigma^2 finite, got {sigma!r}")


def _check_alpha(alpha: float) -> None:
    """Reject a regularization parameter that is not a finite positive number."""
    if not 0.0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha}")


def inner(a, b) -> float:
    """Euclidean inner product; dimensions must match exactly."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"inner product of shapes {a.shape} and {b.shape}")
    return float(np.dot(a, b))


def norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=float)))


class LinearForwardMap:
    """A linear operator stored as its matrix, together with its adjoint.

    ``matrix`` is a non-empty, finite dense array or scipy.sparse matrix whose
    squared entries have a sum with a finite square, ||F||_F^4, which bounds
    ||F*F x||^2 for a unit x (every defect target squares such a product); it
    is marked read-only, a sparse one stored as CSR.  The
    adjoint is stored beside it: ``matrix.T`` for a dense array, the CSR
    transpose for a sparse one.  The raw kernels ``_apply``/``_adjoint`` are
    the products with these two (:func:`_product`) and take vectors or (n, k)
    blocks without validation.

    Operators are immutable: ``_norm_cache`` memoizes
    :func:`operator_norm_estimate` per ``(iters, seed)``, ``_population``
    holds the full-design map of :func:`varreg.operators.population_map`, and
    ``_sources`` the source instances :func:`varreg.risk.check_risk_theorem`
    forms on a population map, with their certificates.
    """

    def __init__(self, matrix):
        sparse = sp.issparse(matrix)
        a = sp.csr_matrix(matrix, dtype=float) if sparse else np.asarray(matrix, dtype=float)
        # a sparse matrix's size is its nnz, so emptiness is read off the shape
        if a.ndim != 2 or 0 in a.shape:
            raise ValueError("matrix must be 2-d and non-empty")
        with np.errstate(over="ignore"):  # a sum of squares that overflows is refused, not warned on
            squares = float(np.dot(entries := (a.data if sparse else a).ravel(), entries))
        if not math.isfinite(squares * squares):
            raise ValueError("matrix contains non-finite entries, or the sum of their squares overflows when squared")
        if sparse:
            a = _read_only_csr(a)
            at = _read_only_csr(a.T.tocsr())
        else:
            a.flags.writeable = False
            at = a.T
        self.matrix = a
        self.out_dim, self.in_dim = a.shape
        self._apply, self._adjoint = _product(a), _product(at)
        self._norm_cache: dict[tuple[int, int], float] = {}
        self._population: LinearForwardMap | None = None
        self._sources: dict = {}

    def apply(self, u) -> np.ndarray:
        return self._apply(as_vector(u, self.in_dim, "model vector"))

    def adjoint(self, v) -> np.ndarray:
        return self._adjoint(as_vector(v, self.out_dim, "data vector"))

    def __call__(self, u) -> np.ndarray:
        return self.apply(u)

    def __repr__(self):  # pragma: no cover - cosmetic
        return f"LinearForwardMap({self.out_dim}x{self.in_dim})"


def _read_only_csr(m: sp.csr_matrix) -> sp.csr_matrix:
    """Mark the arrays of a CSR matrix read-only, so an operator built on it stays immutable."""
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False
    return m


def _product(m):
    """A fresh ``m @ x`` for a vector or (n, k) block ``x``, bound once for hot loops: a dense ``m``'s ``__matmul__``,
    or for a CSR ``m`` a direct call of the scipy kernel ``@`` ends in, on the same contiguous float operand (the
    same bits, without ``@``'s dispatch).  The kernel reads ``x`` unchecked, so its length is checked here."""
    if not sp.issparse(m):
        return m.__matmul__
    (rows, cols), indptr, indices, data = m.shape, m.indptr, m.indices, m.data

    def product(x):
        x = np.ascontiguousarray(x, dtype=float)
        if len(x) != cols:
            raise DimensionMismatchError(f"operand of length {len(x)} for a {rows}x{cols} matrix")
        out = np.zeros((rows,) + x.shape[1:])
        if x.size == cols:  # a vector or a single column, which scipy's @ sends to csr_matvec
            csr_matvec(rows, cols, indptr, indices, data, x, out)
        else:
            csr_matvecs(rows, cols, x.shape[1], indptr, indices, data, x, out)
        return out
    return product


def _freeze(owner, names, dtype=float) -> None:
    """Set each array field ``names`` of the frozen dataclass ``owner`` (a scalar or None is kept) to a read-only
    ``dtype`` copy, and a dataclass field (a Subgradient) to a copy with its fields frozen so, so that neither
    it nor writes to the caller's arrays can change them."""
    for name in names:
        if isinstance(a := getattr(owner, name), (float, int, np.generic, type(None))):
            continue
        if dataclasses.is_dataclass(a):
            a = type(a)(**vars(a))
            _freeze(a, vars(a))
        else:
            a = np.array(a, dtype=dtype)
            a.setflags(write=False)
        object.__setattr__(owner, name, a)


def identity_map(dim: int) -> LinearForwardMap:
    return LinearForwardMap(sp.identity(dim, format="csr"))


def adjoint_consistency_check(op: LinearForwardMap, trials: int = 32, seed: int = 0) -> float:
    """Max relative defect |<Fu, v> - <u, F*v>| / (||u|| ||v||) over random pairs.

    A correct adjoint gives values at roundoff level; a wrong adjoint shows up
    as an O(1) defect.
    """
    _check_count(trials, 1, "trials")
    _check_count(seed, 0, "seed")
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(op.in_dim)
        v = rng.standard_normal(op.out_dim)
        defect = abs(inner(op.apply(u), v) - inner(u, op.adjoint(v)))
        worst = max(worst, defect / (norm(u) * norm(v)))
    return worst


def operator_norm_estimate(op: LinearForwardMap, iters: int = 200, seed: int = 0) -> float:
    """Largest singular value of ``op`` by power iteration on F*F.

    Returns the Rayleigh estimate ||F x|| for the final unit iterate, which is
    nondecreasing in ``iters`` and never exceeds the true norm.  ``iters`` caps
    the steps; the iteration stops earlier once converged.  The result is
    computed once per operator and ``(iters, seed)``.
    """
    _check_count(iters, 1, "iters")
    _check_count(seed, 0, "seed")
    key = (int(iters), int(seed))
    sigma = op._norm_cache.get(key)
    if sigma is None:
        sigma = op._norm_cache[key] = _power_iteration(op._apply, op._adjoint, op.in_dim, iters, seed)
    return sigma


# relative rise of ||F*F x|| in one step at which the power iteration stops
POWER_ITERATION_RTOL = 1e-12


def _power_iteration(fwd, adj, dim: int, iters: int, seed: int) -> float:
    """Power iteration on ``adj(fwd(.))`` from a seeded Gaussian start.

    Calls the raw kernels without validation; returns ||fwd(x)|| for the
    final unit iterate x.  ||F*F x|| is nondecreasing over unit iterates, so
    the loop stops after at most ``iters`` steps, or once a step raises it by
    no more than ``POWER_ITERATION_RTOL`` relative.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    nx = norm(x)
    if nx == 0.0:  # pragma: no cover - measure-zero draw
        return 0.0
    x /= nx
    prev = 0.0
    for _ in range(iters):
        w = adj(fwd(x))
        nw = math.sqrt(np.dot(w, w))  # norm(w) to the bit on a contiguous vector, without its dispatch
        if nw == 0.0:
            # x is in the kernel of F*F, hence of F
            return 0.0
        x = w / nw
        if nw - prev <= POWER_ITERATION_RTOL * nw:
            break
        prev = nw
    return norm(fwd(x))


def _column_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """<a, b> of two vectors (as np.dot rounds it), or of each column pair of two (n, k) blocks."""
    return np.dot(a, b) if a.ndim == 1 else np.einsum("ij,ij->j", a, b)


def accelerated_projected_gradient(grad_fn, project, lip: float, x0: np.ndarray,
                                   tol, max_iters: int = 20_000):
    """FISTA (Beck & Teboulle 2009) for a smooth objective plus a convex term.

    ``project`` may be any prox map of step 1/``lip``: the projection onto a
    convex set, or the prox of a scaled regularizer.  Restarts momentum when
    it points uphill (gradient-mapping criterion, O'Donoghue & Candes 2015);
    stops once the mapping is at most ``tol`` or not finite.  Returns
    (x, mapping_norm, iterations) where mapping_norm is the final
    projected-gradient mapping scaled by the Lipschitz constant.

    ``x0`` of shape (n, k) runs k independent problems as one block, and
    ``tol`` may then be a (k,) array.  ``grad_fn`` and ``project`` always get
    the whole (n, k) block.  Each column has its own momentum, restart and
    stop: a column that stops is recorded at that step and masked out, while
    the block keeps its full width.  mapping_norm and iterations are then
    per-column arrays.
    """
    lip = max(lip, 1e-30)
    step = 1.0 / lip
    x = project(np.asarray(x0, dtype=float).copy())
    y = x.copy()
    mapping = np.inf
    if x.ndim == 1:
        # a vector keeps scalar reductions and truth tests, far cheaper than numpy's on one small array
        t = 1.0
        for iterations in range(1, max_iters + 1):
            x_new = project(y - step * grad_fn(y))
            d = x_new - y
            mapping = lip * math.sqrt(np.dot(d, d))
            if not tol < mapping < math.inf:  # converged, or the mapping is not finite
                return x_new, mapping, iterations
            if np.dot(y - x_new, x_new - x) > 0.0:  # momentum uphill: restart from x
                t = 1.0
                x_new = project(x - step * grad_fn(x))
            t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_new) * (x_new - x)
            x, t = x_new, t_new
        return x, mapping, max_iters
    k = x.shape[1]
    live, t = np.ones(k, dtype=bool), np.ones(k)
    x_out, map_out, iters_out = x.copy(), np.full(k, np.inf), np.full(k, max_iters)
    for iterations in range(1, max_iters + 1):
        x_new = project(y - step * grad_fn(y))
        d = x_new - y
        mapping = lip * np.sqrt(_column_dots(d, d))
        stop = live & ~((mapping > tol) & (mapping < np.inf))
        if stop.any():
            np.copyto(x_out, x_new, where=stop)
            map_out[stop], iters_out[stop] = mapping[stop], iterations
            live &= ~stop
            if not live.any():
                return x_out, map_out, iters_out
        uphill = live & (_column_dots(y - x_new, x_new - x) > 0.0)
        if uphill.any():
            t[uphill] = 1.0
            np.copyto(x_new, project(x - step * grad_fn(x)), where=uphill)
        t_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = x_new + ((t - 1.0) / t_new) * (x_new - x)
        x, t = x_new, t_new
    np.copyto(x_out, x, where=live)
    np.copyto(map_out, mapping, where=live)
    return x_out, map_out, iters_out


def substream(seed: int, name: str, index: int = 0) -> np.random.Generator:
    """Named, reproducible RNG substream derived from a single top-level seed.

    Streams with distinct (name, index) pairs are statistically independent;
    the mapping is stable across runs and platforms.
    """
    key = zlib.crc32(name.encode("utf-8"))
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(key, int(index)))
    return np.random.default_rng(ss)
