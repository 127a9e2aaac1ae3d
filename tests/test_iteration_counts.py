"""Pinned iteration counts, one small seeded problem per solver.

Iteration counts are deterministic given the seeds, so a change to a solver's
arithmetic or stopping rule shows up here as a changed count.  When such a
change is intended, update the count and say why.
"""

import pytest

from conftest import radon_phantom_problem
from varreg import (
    SolverConfig,
    debias_two_step,
    l1,
    make_random_dense,
    solve_fista,
    solve_primal_dual,
    solve_tikhonov_exact,
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
    (_primal_dual_radon, 925),
], ids=["cg", "fista", "debias", "primal-dual-dense-1d", "primal-dual-radon-16"])
def test_iteration_count_is_pinned(solve, expected):
    assert solve().iterations == expected
