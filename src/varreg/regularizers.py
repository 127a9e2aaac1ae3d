"""Convex regularizers, subgradient certification and Bregman distances.

Three functionals are supported:

* ``quadratic``   J(u) = 0.5*||u||^2
* ``l1``          J(u) = sum_i |u_i|
* ``tv_aniso``    J(u) = sum_e |(D u)_e| with D the forward-difference edge map
                  (replicate boundary, so constants have zero cost)

Subgradient membership is certified in closed form: quadratic's subdifferential is
the point u; l1 and TV are 1-homogeneous, so p is in d_eps J(u) iff p is in dJ(0) and
eps >= J(u) - <p, u>, and the test measures p's distance to dJ(0) and eps/(1 + J(u))
(for TV by a known edge-dual witness q with p = D^T q, or else a small box fit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from varreg.core import (DimensionMismatchError, LinearForwardMap, _check_alpha, _check_count, _column_dots,
                         _product, _read_only_csr, accelerated_projected_gradient, as_vector, inner, norm)

__all__ = [
    "Regularizer",
    "Subgradient",
    "SubgradientError",
    "MembershipResult",
    "bregman_distance",
    "difference_matrix",
    "is_subgradient",
    "l1",
    "quadratic",
    "subgradient_from_optimality",
    "symmetric_bregman",
    "tv_aniso",
]

# Negative Bregman values above this magnitude indicate a membership bug
# rather than roundoff and are raised instead of clamped.
NEGATIVE_TOLERANCE = 1e-8

# The probe forgives each gap this much of J(u) + J(w), its roundoff (l1's sign(u) reaches 0.88*eps of it).
_PROBE_ROUNDOFF = 4.0 * np.finfo(float).eps

# The randomized membership check evaluates its probe in chunks of about this many
# entries (64 KiB of float64): temporaries stay in cache and below malloc's mmap threshold.
_PROBE_BLOCK = 8192

# One flat read-only Gaussian draw, for the last seed asked for, shared by every
# membership check (library calls all use seed 0); a call that needs another
# seed or more entries replaces it.  Sharing a fixed sequence changes no result.
_PROBE_DRAWS: dict[int, np.ndarray] = {}


class SubgradientError(ValueError):
    """A claimed subgradient failed its membership certificate."""


@dataclass
class Subgradient:
    """A subgradient ``p`` of a regularizer at a point.

    ``dual`` optionally carries the TV edge-dual witness q with p = D^T q,
    which makes later membership checks exact and cheap.
    """

    p: np.ndarray
    dual: np.ndarray | None = None


class MembershipResult(NamedTuple):
    ok: bool
    max_violation: float


def difference_matrix(shape) -> sp.csr_matrix:
    """Forward-difference edge map for 2-d images (row-major); a 1-d signal is the 1 x n image."""
    h, w = (int(s) for s in ((1, shape) if isinstance(shape, (int, np.integer)) else shape))
    if h < 1 or w < 1 or h * w < 2:
        raise ValueError(f"tv_aniso needs an image shape with at least 2 entries, got {shape!r}")
    idx = np.arange(h * w).reshape(h, w)
    # one row per edge, horizontal then vertical: -1 at its tail, +1 at its head
    tails = np.concatenate((idx[:, :-1].ravel(), idx[:-1, :].ravel()))
    heads = np.concatenate((idx[:, 1:].ravel(), idx[1:, :].ravel()))
    return sp.csr_matrix((np.tile([-1.0, 1.0], tails.size), np.column_stack((tails, heads)).ravel(),
                          np.arange(0, 2 * tails.size + 1, 2)), shape=(tails.size, h * w))


@dataclass(eq=False)
class Regularizer:
    kind: str
    shape: object = None
    D: sp.csr_matrix | None = field(default=None, init=False, repr=False)
    Dt: sp.csr_matrix | None = field(default=None, init=False, repr=False)
    # the products with D and Dt, bound once (core._product); out of repr, which keys certificate records
    _d: object = field(default=None, init=False, repr=False, compare=False)
    _dt: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("quadratic", "l1", "tv_aniso"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.kind == "tv_aniso":
            self.D = _read_only_csr(difference_matrix(self.shape))
            self.Dt = _read_only_csr(self.D.T.tocsr())
            self._d, self._dt = _product(self.D), _product(self.Dt)

    def value(self, u) -> float:
        u = as_vector(u, name="u")
        self._check_dim(u)
        return self._value(u)

    def _value(self, u: np.ndarray) -> float:
        """J(u) without validation."""
        if self.kind == "quadratic":
            return 0.5 * float(np.dot(u, u))
        if self.kind == "l1":
            return float(np.abs(u).sum())
        return float(np.abs(self._d(u)).sum())

    def value_batch(self, U: np.ndarray) -> np.ndarray:
        """Values for each row of a 2-d array of candidates."""
        U = np.asarray(U, dtype=float)
        if self.kind == "quadratic":
            return 0.5 * np.einsum("ij,ij->i", U, U)
        if self.kind == "l1":
            return np.abs(U).sum(axis=1)
        return np.abs(self._d(U.T)).sum(axis=0)

    def prox(self, tau: float, x) -> np.ndarray:
        """Proximal map argmin_u 0.5*||u - x||^2 + tau*J(u)."""
        if tau < 0.0:
            raise ValueError("tau must be nonnegative")
        x = as_vector(x, name="x")
        if self.kind == "tv_aniso":
            raise NotImplementedError("tv_aniso has no closed-form prox; use solve_primal_dual")
        return self._prox(tau, x)

    def _prox(self, tau: float, x: np.ndarray) -> np.ndarray:
        """Closed-form prox of quadratic or l1, without validation."""
        if self.kind == "quadratic":
            return x / (1.0 + tau)
        return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)

    def edge_map_norm(self) -> float:
        """Spectral norm of D, exact: D^T D sums the axes' path Laplacians, whose top
        eigenvalue on n points is 4*sin^2(pi*(n-1)/(2n)); only meaningful for tv_aniso."""
        if self.D is None:
            raise ValueError("regularizer has no edge map")
        axes = (self.shape,) if isinstance(self.shape, (int, np.integer)) else self.shape
        return math.sqrt(sum(4.0 * math.sin(math.pi * (n - 1) / (2 * n)) ** 2 for n in axes))

    def _check_dim(self, u):
        if self.D is not None and u.size != self.D.shape[1]:
            raise DimensionMismatchError(f"expected dimension {self.D.shape[1]}, got {u.size}")


def quadratic() -> Regularizer:
    return Regularizer(kind="quadratic")


def l1() -> Regularizer:
    return Regularizer(kind="l1")


def tv_aniso(shape) -> Regularizer:
    return Regularizer(kind="tv_aniso", shape=shape)


def subgradient_from_optimality(op: LinearForwardMap, data, u_alpha, alpha: float) -> Subgradient:
    """Subgradient implied by the optimality condition, p = F*(v - F u)/alpha.

    This is exact only at the true minimizer; the caller should confirm
    membership with :func:`is_subgradient` when u_alpha is approximate.
    """
    _check_alpha(alpha)
    u_alpha = as_vector(u_alpha, op.in_dim, "u_alpha")
    data = as_vector(data, op.out_dim, "data")
    p = op.adjoint(data - op.apply(u_alpha)) / alpha
    return Subgradient(p=p)


def _resolve(p, dual=None):
    if isinstance(p, Subgradient):
        p, dual = p.p, p.dual if dual is None else dual
    return np.asarray(p, dtype=float), dual


def _tv_dual_fit(reg: Regularizer, p: np.ndarray) -> float:
    """Distance from p to dJ(0) = {D^T q : |q| <= 1}: min ||D^T q - p|| over the box, by the shared accelerated
    projected gradient (default budget, gradient mapping 1e-14*(1 + ||p||), 2% margin on ||D||^2)."""
    d, dt, lip = reg._d, reg._dt, 1.02 * reg.edge_map_norm() ** 2
    q, _, _ = accelerated_projected_gradient(lambda q: d(dt(q) - p), lambda q: np.maximum(np.minimum(q, 1.0), -1.0),
                                             lip, np.zeros(reg.D.shape[0]), 1e-14 * (1.0 + norm(p)))
    return norm(dt(q) - p)


def _slack(reg: Regularizer, j_u, u: np.ndarray, p: np.ndarray):
    """eps = max(J(u) - <p, u>, 0) (j_u = J(u)) per vector or column, 0 for quadratic: p in dJ(0) is in d_eps J(u)."""
    return 0.0 if reg.kind == "quadratic" else np.maximum(j_u - _column_dots(u, p), 0.0)


def is_subgradient(reg: Regularizer, u, p, tol: float = 1e-8, *, dual=None,
                   samples: int = 100, seed: int = 0) -> MembershipResult:
    """Certify p in the subdifferential of J at u, within ``tol``.

    Combines the closed-form characterization of the subdifferential with a randomized check
    of the defining inequality J(w) >= J(u) + <p, w-u> over ``samples`` seeded points, each
    gap less 4*eps*(J(u) + J(w)) of roundoff.  Quadratic's measure is |p - u|_inf; l1's and
    TV's, continuous in u and p, is max(dist(p, dJ(0)), eps/(1 + J(u))), eps = J(u) - <p, u>:
    dist is max|p| - 1 (l1), or max(||D^T q - p||, max|q| - 1) by the witness ``dual`` q, else
    ``_tv_dual_fit``'s residual (TV).  Returns the decision and the largest observed violation,
    or for (n, k) blocks ``u``, ``p`` (``dual`` None or (edges, k)) (k,) arrays of them, each
    column's as its own vector call gives them.
    """
    _check_count(samples, 1, "samples")
    p, dual = _resolve(p, dual)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.ndim > 2 or 0 in u.shape:
        raise ValueError(f"u must be a non-empty vector or (n, k) block, got shape {u.shape}")
    us, ps = _columns(u, u.shape, "u"), _columns(p, u.shape, "p")
    reg._check_dim(us[0])
    j_u = np.array([reg._value(uj) for uj in us])
    if reg.kind == "quadratic":
        violation = np.abs(ps - us).max(axis=1)
    elif reg.kind == "l1":
        violation = np.abs(ps).max(axis=1) - 1.0
    else:  # by the witness q, or else a fitted one
        qs = [None] * len(us) if dual is None else _columns(dual, reg.D.shape[:1] + u.shape[1:], "dual witness")
        violation = np.array([_tv_dual_fit(reg, pj) if q is None else
                              max(norm(reg._dt(q) - pj), float(np.abs(q).max()) - 1.0) for pj, q in zip(ps, qs)])
    violation = np.maximum(violation, _slack(reg, j_u, us.T, ps.T) / (1.0 + j_u))  # 0 for quadratic

    # randomized check of the subgradient inequality at w = u + radius*g
    probe = _probe_directions(seed, samples, u.shape[0])
    radius = 1.0 + np.abs(us).max(axis=1)
    for cols, row_slices in _probe_blocks(len(us), samples, u.shape[0]):
        if cols.stop - cols.start == 1:  # one column: a vector call's scalar and 1-d operands, which cost less
            r, uc, pc, jc = radius[cols.start], us[cols.start], ps[cols.start], j_u[cols.start]
        else:
            r, uc, pc, jc = radius[cols, None, None], us[cols, None], ps[cols, :, None], j_u[cols, None, None]
        best = violation[cols]
        for rows in row_slices:
            w = probe[rows] * r
            w += uc
            values = reg.value_batch(w.reshape(-1, w.shape[-1]))
            w -= uc  # the same rounded w - u as forming it out of place
            gaps = np.matmul(w, pc)
            gaps += jc * (1.0 - _PROBE_ROUNDOFF)  # less the roundoff allowance on J(u) and J(w)
            gaps -= values.reshape(gaps.shape) * (1.0 + _PROBE_ROUNDOFF)
            np.fmax(best, gaps.reshape(len(best), -1).max(axis=1), out=best)  # skips a NaN (overflow)
    violation = np.maximum(violation, 0.0) if u.ndim == 2 else max(float(violation[0]), 0.0)
    return MembershipResult(ok=violation <= tol, max_violation=violation)


def _columns(x, shape: tuple, name: str) -> np.ndarray:
    """A finite (n,) or (n, k) ``x`` of ``shape`` as C-contiguous rows, each rounding as the vector would."""
    a = np.atleast_1d(np.asarray(x, dtype=float))
    if a.shape != shape:
        raise DimensionMismatchError(f"{name} has shape {a.shape}, expected {shape}")
    if not np.isfinite(a).all():
        raise ValueError(f"{name} contains non-finite entries")
    return np.ascontiguousarray(a.T) if a.ndim == 2 else a[None]


def _probe_directions(seed: int, samples: int, dim: int) -> np.ndarray:
    """``default_rng(seed).standard_normal((samples, dim))`` as a read-only view.

    Normal draws from a Generator are prefix-consistent, so one flat draw per
    seed serves every shape: the result is a reshaped prefix of it.
    """
    need = samples * dim
    flat = _PROBE_DRAWS.get(seed)
    if flat is None or flat.size < need:
        flat = np.random.default_rng(seed).standard_normal(need)
        flat.flags.writeable = False
        _PROBE_DRAWS.clear()
        _PROBE_DRAWS[seed] = flat
    return flat[:need].reshape(samples, dim)


def _probe_blocks(k: int, samples: int, dim: int) -> list:
    """(column slice, row slices) chunks of a k-column block's probe, about ``_PROBE_BLOCK`` entries each.

    ``w @ p`` must round each row as one product over all ``samples`` rows
    does.  OpenBLAS's gemv takes rows in groups of 4 and a tail, and numpy
    sends a single-row product to dot, so row slices are a multiple of 4 rows
    and a lone last row joins the slice before it.  Columns share a chunk only
    if each has one slice of several rows (TV sums a lone row another way).
    """
    step = max(4, _PROBE_BLOCK // dim // 4 * 4)
    bounds = [0, *range(step, samples - 1, step), samples]
    rows = [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]
    width = max(1, _PROBE_BLOCK // (samples * dim)) if len(rows) == 1 and samples > 1 else 1
    return [(slice(col, col + width), rows) for col in range(0, k, width)]


def _check_membership(reg, u, p, dual, membership_tol, what):
    res = is_subgradient(reg, u, p, tol=membership_tol, dual=dual)
    bad = np.flatnonzero(~np.atleast_1d(res.ok))
    if bad.size:
        where = f" of column {bad[0]}" if np.ndim(u) == 2 else ""
        raise SubgradientError(f"{what}{where} is not a subgradient (violation "
                               f"{np.atleast_1d(res.max_violation)[bad[0]]:.3e} > tol {membership_tol:.1e})")


def _clamp(value: float, what: str, slack: float) -> float:
    if value >= 0.0:
        return value
    if value >= -(slack + NEGATIVE_TOLERANCE):  # eps-subgradients' distances reach -(sum of eps), less roundoff
        return 0.0
    raise ArithmeticError(f"{what} is negative beyond roundoff: {value:.3e}")


def bregman_distance(reg: Regularizer, u_tilde, u, p, *, membership_tol: float = 1e-6,
                     check: bool = True) -> float:
    """One-sided Bregman distance d_J^p(u_tilde, u) = J(u_tilde) - J(u) - <p, u_tilde - u>.

    Requires p in the subdifferential of J at u; a negative value within p's slack eps (``_slack``), the roundoff
    4*eps_mach*(|J(u_tilde)| + |J(u)| + |<p, u_tilde - u>|) of its terms and 1e-8 is clamped to zero, anything
    below raises since it indicates an invalid subgradient rather than floating point noise.
    """
    u_tilde = as_vector(u_tilde, name="u_tilde")
    u = as_vector(u, u_tilde.size, "u")
    p, dual = _resolve(p)
    if check:
        _check_membership(reg, u, p, dual, membership_tol, "p")
    j_tilde, j_u, dot = reg.value(u_tilde), reg.value(u), inner(p, u_tilde - u)
    slack = _slack(reg, j_u, u, p) + _PROBE_ROUNDOFF * (abs(j_tilde) + abs(j_u) + abs(dot))
    return _clamp(j_tilde - j_u - dot, "Bregman distance", slack)


def symmetric_bregman(reg: Regularizer, u_tilde, u, p_tilde, p, *, membership_tol: float = 1e-6,
                      check: bool = True) -> float:
    """Symmetric Bregman distance <p_tilde - p, u_tilde - u>.

    Equals the sum of the two one-sided distances when both memberships hold;
    clamped as they are, with the sum of the two slacks.
    """
    u_tilde = as_vector(u_tilde, name="u_tilde")
    u = as_vector(u, u_tilde.size, "u")
    p_tilde, dual_tilde = _resolve(p_tilde)
    p, dual = _resolve(p)
    if check:
        _check_membership(reg, u_tilde, p_tilde, dual_tilde, membership_tol, "p_tilde")
        _check_membership(reg, u, p, dual, membership_tol, "p")
    return _clamp(inner(p_tilde - p, u_tilde - u), "symmetric Bregman distance",
                  _slack(reg, reg.value(u_tilde), u_tilde, p_tilde) + _slack(reg, reg.value(u), u, p))
