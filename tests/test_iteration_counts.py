"""Pinned iteration counts, one small seeded problem per solver.

Iteration counts are deterministic given the seeds, so a change to a solver's
arithmetic or stopping rule shows up here as a changed count.  When such a
change is intended, update the count and say why.
"""

import numpy as np
import pytest

import varreg.bregman_iteration as bregman_module
from conftest import radon_phantom_problem
from varreg import (
    SolverConfig,
    bregman_iterate,
    debias_two_step,
    l1,
    make_random_dense,
    solve_fista,
    solve_primal_dual,
    solve_tikhonov_exact,
    solve_variational,
    substream,
    tv_aniso,
)


def _dense_problem():
    v = substream(0, "iteration-counts").standard_normal(14)
    return make_random_dense(14, 10, seed=11), v


def _cg():
    op, v = _dense_problem()
    return solve_tikhonov_exact(op, v, 0.2, SolverConfig(tol=1e-10))


def _fista():
    op, v = _dense_problem()
    return solve_fista(op, v, 0.2, l1(), SolverConfig(tol=1e-10))


def _debias():
    op, v = _dense_problem()
    return debias_two_step(op, v, 0.2, l1(), SolverConfig(tol=1e-10))


def _primal_dual_dense():
    op, v = _dense_problem()
    return solve_primal_dual(op, v, 0.2, tv_aniso(10), SolverConfig(tol=1e-10))


def _primal_dual_radon():
    op, reg, v = radon_phantom_problem(16)
    return solve_primal_dual(op, v, 0.1, reg, SolverConfig())


@pytest.mark.parametrize("solve, expected", [
    (_cg, 10),
    # FISTA runs on the shared accelerated kernel: it restarts on the gradient
    # mapping and stops at half the defect target, then certifies in one step
    (_fista, 56),
    (_debias, 47),
    (_primal_dual_dense, 175),
    (_primal_dual_radon, 1000),
], ids=["cg", "fista", "debias", "primal-dual-dense-1d", "primal-dual-radon-16"])
def test_iteration_count_is_pinned(solve, expected):
    assert solve().iterations == expected


@pytest.mark.parametrize("alpha, expected", [(0.03, 2250), (0.1, 1150)])
def test_primal_dual_radon_24_count_is_pinned(alpha, expected):
    # the tv-radon benchmark's alpha-grid solves
    op, reg, v = radon_phantom_problem(24)
    assert solve_primal_dual(op, v, alpha, reg, SolverConfig()).iterations == expected


def _bregman_radon_inner_counts(monkeypatch, grid_n):
    """The inner iteration counts of the tv-radon benchmark's Bregman run on the
    radon-demo phantom at ``grid_n``^2: inner solves at tol 1e-9, stopped by the
    discrepancy principle at the demo noise's norm."""
    op, reg, v = radon_phantom_problem(grid_n)
    noise_level = np.linalg.norm(0.01 * substream(0, "noise").standard_normal(op.out_dim))
    counts = []

    def counted(*args, **kwargs):
        sol = solve_variational(*args, **kwargs)
        counts.append(sol.iterations)
        return sol

    monkeypatch.setattr(bregman_module, "solve_variational", counted)
    trace = bregman_iterate(op, v, 0.1, reg, 30, SolverConfig(tol=1e-8), noise_level=noise_level)
    assert trace.stopped_by_discrepancy
    return counts


def test_bregman_radon_16_inner_counts_are_pinned(monkeypatch):
    # each step after the first starts from the last step's certified pair
    # (u and the edge dual); from cold starts the counts were
    # [1200, 1225, 1775, 1750, 1575, 1400, 1625], 10,550 in total
    counts = _bregman_radon_inner_counts(monkeypatch, 16)
    assert counts == [1200, 1100, 1625, 1450, 1525, 1475, 1525]


def test_bregman_radon_24_inner_total_is_pinned(monkeypatch):
    # 34,325 inner iterations over the same 15 steps from cold starts
    counts = _bregman_radon_inner_counts(monkeypatch, 24)
    assert (len(counts), sum(counts)) == (15, 26500)
