"""Convex regularizers, subgradient certification and Bregman distances.

Three functionals are supported:

* ``quadratic``   J(u) = 0.5*||u||^2
* ``l1``          J(u) = sum_i |u_i|
* ``tv_aniso``    J(u) = sum_e |(D u)_e| with D the forward-difference edge map, a LinearForwardMap
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
                         accelerated_projected_gradient, as_vector, inner, norm)

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

# max_s ||g_s|| over the probe's directions per (seed, samples, dim) of the draw in _PROBE_DRAWS.
_PROBE_NORMS: dict[tuple[int, int, int], float] = {}


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
    # tv_aniso's edge map, LinearForwardMap(difference_matrix(shape)); out of repr, which keys certificate records
    D: LinearForwardMap | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("quadratic", "l1", "tv_aniso"):
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if self.kind == "tv_aniso":
            self.D = LinearForwardMap(difference_matrix(self.shape))

    def value(self, u) -> float:
        return float(_values(self, as_vector(u, None if self.D is None else self.D.in_dim, "u")[None])[0])

    def _value(self, u: np.ndarray) -> float:
        """J(u) without validation."""
        if self.kind == "quadratic":
            return 0.5 * float(np.dot(u, u))
        if self.kind == "l1":
            return float(np.abs(u).sum())
        return float(np.abs(self.D._apply(u)).sum())

    def value_batch(self, U: np.ndarray) -> np.ndarray:
        """Values for each row of a 2-d array of candidates."""
        U = np.asarray(U, dtype=float)
        if self.kind == "quadratic":
            return 0.5 * np.einsum("ij,ij->i", U, U)
        if self.kind == "l1":
            return np.abs(U).sum(axis=1)
        return np.abs(self.D._apply(U.T)).sum(axis=0)

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


def _box_fit(reg: Regularizer, t: np.ndarray, q0: np.ndarray, tol: float, max_iters: int = 20_000) -> np.ndarray:
    """argmin_{|q| <= 1} ||D^T q - t|| by projected gradient from q0's box clip to a mapping of tol, at 1.02*||D||^2."""
    d, dt, lip = reg.D._apply, reg.D._adjoint, 1.02 * reg.edge_map_norm() ** 2
    return accelerated_projected_gradient(lambda q: d(dt(q) - t), lambda q: np.maximum(np.minimum(q, 1.0), -1.0),
                                          lip, q0, tol, max_iters)[0]


def _tv_dual_fit(reg: Regularizer, p: np.ndarray) -> float:
    """Distance from p to dJ(0) = {D^T q : |q| <= 1}: ``_box_fit``'s residual from 0 to a mapping 1e-14*(1 + ||p||)."""
    return norm(reg.D._adjoint(_box_fit(reg, p, np.zeros(reg.D.out_dim), 1e-14 * (1.0 + norm(p)))) - p)


def _slack(reg: Regularizer, j_u, u: np.ndarray, p: np.ndarray):
    """eps = max(J(u) - <p, u>, 0) (j_u = J(u)) per vector or column, 0 for quadratic: p in dJ(0) is in d_eps J(u)."""
    return 0.0 if reg.kind == "quadratic" else np.maximum(j_u - _column_dots(u, p), 0.0)


def is_subgradient(reg: Regularizer, u, p, tol: float = 1e-8, *, dual=None,
                   samples: int = 100, seed: int = 0) -> MembershipResult:
    """Certify p in the subdifferential of J at u, within ``tol``.

    Combines the closed-form characterization of the subdifferential with a randomized check
    of the defining inequality J(w) >= J(u) + <p, w-u> over ``samples`` seeded points
    w_s = u + r*g_s, r = 1 + max|u|, each gap less 4*eps*(J(u) + J(w)) of roundoff.  Quadratic's
    measure is |p - u|_inf; l1's and TV's, continuous in u and p, is max(dist(p, dJ(0)), eps/(1 + J(u))),
    eps = J(u) - <p, u>: dist is max|p| - 1 (l1), or max(||D^T q - p||, max|q| - 1) by the witness
    ``dual`` q, else ``_tv_dual_fit``'s residual (TV).  Returns the decision and the largest observed
    violation, or for (n, k) blocks ``u``, ``p`` (``dual`` None or (edges, k)) (k,) arrays of them, each
    column's as its own vector call gives them.  ``tol`` must be finite and >= 0 (else ValueError).

    The probe is skipped for a column whose closed form passes and whose every gap J(u) + <p, w - u> - J(w)
    is within ``tol`` by a bound; the column then reports the closed-form measure.  With d = w - u, and
    e = p - D^T q for a q with max|q| <= 1, so <q, Dw> <= J(w) (l1: D = I, q = p, e = 0, if max|p| <= 1):
    quadratic's gap <p - u, d> - ||d||^2/2 is at most ||p - u||^2/2; l1's and TV's, eps + <q, Dw> - J(w) + <e, w>,
    at most eps + ||e|| (||u|| + r*max_s ||g_s||).  Each bound adds the probe's allowance 4*eps on its terms
    (||p - u||^2/2, or J(u), sum |p_i u_i| and the ||e|| term), so a skip passes no column the probe fails;
    a bound that overflows decides nothing.
    """
    _check_count(samples, 1, "samples")
    if not 0.0 <= tol < math.inf:  # an infinite tol would pass any violation, a NaN none
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    p, dual = _resolve(p, dual)
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if u.ndim > 2 or 0 in u.shape:
        raise ValueError(f"u must be a non-empty vector or (n, k) block, got shape {u.shape}")
    shape = u.shape if reg.D is None else (reg.D.in_dim,) + u.shape[1:]  # TV's u must fit D
    us, ps = _columns(u, shape, "u"), _columns(p, shape, "p")
    j_u = _values(reg, us)
    residual = None  # ||e|| for a witness q in the box, inf without one
    if reg.kind == "quadratic":
        violation = np.abs(ps - us).max(axis=1)
    elif reg.kind == "l1":
        violation = np.abs(ps).max(axis=1) - 1.0
        residual = np.where(violation <= 0.0, 0.0, np.inf)
    else:  # by the witness q, or else a fitted one, which is in the box
        qs = [None] * len(us) if dual is None else _columns(dual, (reg.D.out_dim,) + u.shape[1:], "dual witness")
        residual = np.array([_tv_dual_fit(reg, pj) if q is None else norm(reg.D._adjoint(q) - pj)
                             for pj, q in zip(ps, qs)])
        over = 0.0 if dual is None else np.abs(qs).max(axis=1) - 1.0
        violation = np.maximum(residual, over)
        residual = np.where(over <= 0.0, residual, np.inf)
    slack = _slack(reg, j_u, us.T, ps.T)
    violation = np.maximum(violation, slack / (1.0 + j_u))  # 0 for quadratic
    radius = 1.0 + np.abs(us).max(axis=1)
    bound = _probe_gap_bound(reg, us, ps, j_u, slack, residual, radius, seed, samples)
    probed = np.flatnonzero(~((violation <= tol) & (bound <= tol)))  # a NaN bound decides nothing either

    # randomized check of the subgradient inequality at w = u + radius*g, on the columns not decided above
    if probed.size:
        probe = _probe_directions(seed, samples, u.shape[0])
        us, ps, radius, j_u, worst = us[probed], ps[probed], radius[probed], j_u[probed], violation[probed]
        for cols, row_slices in _probe_blocks(probed.size, samples, u.shape[0]):
            if cols.stop - cols.start == 1:  # one column: a vector call's scalar and 1-d operands, which cost less
                r, uc, pc, jc = radius[cols.start], us[cols.start], ps[cols.start], j_u[cols.start]
            else:
                r, uc, pc, jc = radius[cols, None, None], us[cols, None], ps[cols, :, None], j_u[cols, None, None]
            best = worst[cols]
            for rows in row_slices:
                w = probe[rows] * r
                w += uc
                values = reg.value_batch(w.reshape(-1, w.shape[-1]))
                w -= uc  # the same rounded w - u as forming it out of place
                gaps = np.matmul(w, pc)
                gaps += jc * (1.0 - _PROBE_ROUNDOFF)  # less the roundoff allowance on J(u) and J(w)
                gaps -= values.reshape(gaps.shape) * (1.0 + _PROBE_ROUNDOFF)
                np.fmax(best, gaps.reshape(len(best), -1).max(axis=1), out=best)  # skips a NaN (overflow)
        violation[probed] = worst
    violation = np.maximum(violation, 0.0) if u.ndim == 2 else max(float(violation[0]), 0.0)
    return MembershipResult(ok=violation <= tol, max_violation=violation)


def _values(reg: Regularizer, us: np.ndarray) -> np.ndarray:
    """J of each row of ``us``, rounding as a vector's J does; a J that overflows is refused with a ValueError."""
    with np.errstate(over="ignore"):
        j = [reg._value(uj) for uj in us]
    if not all(map(math.isfinite, j)):
        raise ValueError("u is too large: J(u) overflows")
    return np.array(j)


def _probe_gap_bound(reg: Regularizer, us, ps, j_u, slack, residual, radius, seed: int, samples: int) -> np.ndarray:
    """Per column, a bound on every gap the probe would form, with its roundoff allowance (see ``is_subgradient``);
    ``residual`` is ||e|| (inf: no witness in the box).  Overflow gives inf or NaN, without a warning."""
    if reg.kind == "quadratic":  # einsum does not warn on overflow
        e = ps - us
        return 0.5 * np.einsum("ij,ij->i", e, e) * (1.0 + _PROBE_ROUNDOFF)
    if reg.kind == "l1":  # e is 0 (or inf: no bound), and sum |p_i u_i| <= J(u)
        return slack + residual + 2.0 * _PROBE_ROUNDOFF * j_u
    key = (seed, samples, us.shape[1])
    if key not in _PROBE_NORMS:
        g = _probe_directions(*key)
        _PROBE_NORMS[key] = float(np.sqrt(np.einsum("ij,ij->i", g, g).max()))
    with np.errstate(over="ignore", invalid="ignore"):
        reach = residual * (np.sqrt(np.einsum("ij,ij->i", us, us)) + radius * _PROBE_NORMS[key])
        return slack + reach + _PROBE_ROUNDOFF * (j_u + np.einsum("ij,ij->i", np.abs(ps), np.abs(us)) + reach)


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
        _PROBE_NORMS.clear()
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
