"""Shared generators for property-style tests.

Valid (u, p) subgradient pairs per regularizer kind; the TV pair carries its
dual witness q because membership certificates for TV need it.
"""

import numpy as np

from varreg import RadonGeometry, l1, make_radon, quadratic, substream, tv_aniso
from varreg.regularizers import difference_matrix

# verdict lines recorded by test_acceptance.py, echoed after the run so they
# stay visible without -s
ACCEPTANCE_VERDICTS: list[tuple[int, bool]] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for n, ok in sorted(ACCEPTANCE_VERDICTS):
        terminalreporter.write_line(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}")


def quadratic_pair(rng, n):
    u = rng.standard_normal(n)
    return u, u.copy(), None


def l1_pair(rng, n):
    u = rng.standard_normal(n)
    u[rng.random(n) < 0.4] = 0.0  # exact zeros so the off-support branch is hit
    p = np.sign(u)
    off = u == 0.0
    p[off] = rng.uniform(-1.0, 1.0, int(off.sum()))
    return u, p, None


def tv_pair(rng, n):
    # piecewise-constant u: zero differences leave the dual free in [-1, 1]
    u = np.repeat(rng.standard_normal(max(n // 3, 1)), 3)[:n]
    if u.size < n:
        u = np.concatenate([u, np.full(n - u.size, u[-1])])
    D = difference_matrix(n)
    du = D @ u
    q = np.where(np.abs(du) > 0, np.sign(du), rng.uniform(-1.0, 1.0, du.size))
    return u, D.T @ q, q


PAIR_GENERATORS = {
    "quadratic": (quadratic, quadratic_pair),
    "l1": (l1, l1_pair),
    "tv": (tv_aniso, tv_pair),
}


def make_regularizer(kind, n):
    factory = PAIR_GENERATORS[kind][0]
    return factory(n) if kind == "tv" else factory()


def subgradient_pair(kind, rng, n):
    return PAIR_GENERATORS[kind][1](rng, n)


def radon_phantom_problem(grid_n):
    """The radon-demo TV problem: its phantom under 18x18 rays, demo noise (seed 0, 0.01)."""
    xs = (np.arange(grid_n) + 0.5) * (2.0 / grid_n) - 1.0
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    phantom = (X ** 2 + Y ** 2 <= 0.5 ** 2).astype(float)
    phantom[(np.abs(X - 0.45) <= 0.2) & (np.abs(Y + 0.4) <= 0.15)] += 0.5
    op = make_radon(RadonGeometry.regular(grid_n, 18, 18))
    v = op.apply(phantom.ravel()) + 0.01 * substream(0, "noise").standard_normal(op.out_dim)
    return op, tv_aniso((grid_n, grid_n)), v
