"""The benchmark's workloads: seeded inputs, certified cases, and their gates.

A workload builds its inputs in ``setup`` from the workload seed (fanned out
through ``varreg.substream``) and then yields *blocks*: short, fixed lists of
cases that hold one case of every class in the workload's mix, so that a run
cut at a block boundary keeps the mix exact.  The blocks repeat in a fixed
cycle, so every distinct case runs several times in a run.  A case is
``(class, key, fn)``: ``key`` names the distinct case within the cycle, and
``fn()`` runs one top-level call sequence that yields one certified
result and returns whether its certificate held.  Library calls go through
the ``varreg`` package attributes at call time, so the tracer's wrappers see
them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import shutil
from pathlib import Path

import numpy as np


class Workload:
    name = ""
    classes: tuple[str, ...] = ()
    primary = ""            # class reported as primary_p50_ms
    secondary = ""          # class reported as secondary_p50_ms
    count_blocks = 1        # blocks in the traced count pass
    warmup_blocks = 1       # untimed blocks before the timed phase
    mix_blocks = 1          # blocks that hold one case of every class
    probe = "python"        # speed probe timed around each block (probe.py)

    def __init__(self, varreg, root: Path):
        self.V = varreg
        self.root = root

    def setup(self, seed: int):
        raise NotImplementedError

    def blocks(self, state):
        raise NotImplementedError

    def working_set(self, state) -> tuple[int, str]:
        raise NotImplementedError

    def artifact_digests(self, state) -> dict[str, str]:
        """Digests of the artifacts the count pass wrote, by command."""
        return {}


def derived_seed(V, seed: int, name: str, index: int = 0) -> int:
    return int(V.substream(seed, name, index).integers(2 ** 31 - 1))


def _csr_bytes(m) -> int:
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


# ---------------------------------------------------------------------------


class CertifyDense(Workload):
    """Acceptance-4 shape: tiny dense problems, three kinds, three noise levels."""

    name = "certify-dense"
    classes = ("quadratic", "l1", "tv")
    primary, secondary = "l1", "tv"
    count_blocks = 10
    N_OPERATORS = 100
    SIGMAS = (0.0, 0.01, 0.1)

    def setup(self, seed):
        V = self.V
        cfg = V.SolverConfig(tol=1e-10)
        # sizes as in acceptance 4; alpha is stratified over [0.05, 0.5] per
        # kind, so that the seed changes which problem gets which alpha but
        # not how the alphas spread, which would move each class's median
        strata = {kind: V.substream(seed, f"certify-dense-alpha-{kind}").permutation(self.N_OPERATORS)
                  for kind in self.classes}
        problems = []
        for i in range(self.N_OPERATORS):
            rng = V.substream(seed, "certify-dense", i)
            n = 6 + i % 11
            op = V.make_random_dense(n + 4 + i % 7, n, seed=int(rng.integers(2 ** 31 - 1)))
            regs = {"quadratic": V.quadratic(), "l1": V.l1(), "tv": V.tv_aniso(n)}
            for kind, reg in regs.items():
                inst = V.construct_source_instance(op, reg, seed=int(rng.integers(2 ** 31 - 1)))
                alpha = 0.05 + 0.45 * (strata[kind][i] + rng.uniform()) / self.N_OPERATORS
                e = rng.standard_normal(op.out_dim)
                e /= np.linalg.norm(e)
                data = [inst.v_star + sigma * e for sigma in self.SIGMAS]
                problems.append((kind, op, reg, inst, alpha, data))
        return {"cfg": cfg, "problems": problems}

    def blocks(self, state):
        V, cfg = self.V, state["cfg"]
        per_block = len(self.classes)

        def case(op, reg, inst, v, alpha):
            def fn():
                sol = V.solve_variational(op, v, alpha, reg, cfg)
                r1 = V.check_error_estimate(op, reg, inst, v, alpha, cfg, solution=sol)
                r2 = V.check_effective_estimate(op, reg, inst, v, alpha, cfg, solution=sol)
                return bool(r1.holds and r2.holds)
            return fn

        problems = state["problems"]
        blocks = []
        for start in range(0, len(problems), per_block):
            block = []
            for j, (kind, op, reg, inst, alpha, data) in enumerate(problems[start:start + per_block]):
                block += [(kind, (start + j, m), case(op, reg, inst, v, alpha))
                          for m, v in enumerate(data)]
            blocks.append(block)
        yield from itertools.cycle(blocks)

    def working_set(self, state):
        largest = max(p[1].matrix.nbytes for p in state["problems"])
        return largest, "largest dense operator matrix"


class SampledRadon(Workload):
    """Acceptance-12 shape: risk certificates on 500-ray designs of a 32^2 Radon map."""

    name = "sampled-radon"
    classes = ("quadratic", "l1")
    primary, secondary = "l1", "quadratic"
    count_blocks = 10
    N_BLOCKS = 100          # a cycle of 200 designs, drawn again on every pass
    ALPHA = 0.05
    N_SAMPLES = 500

    def setup(self, seed):
        V = self.V
        radon = V.make_radon(V.RadonGeometry.regular(32, 40, 50))
        pop = V.make_sampled(radon, V.full_design(radon.out_dim))
        regs = {"quadratic": V.quadratic(), "l1": V.l1()}
        instances = {kind: [V.construct_source_instance(pop, reg, seed=derived_seed(V, seed, f"instance-{kind}", j))
                            for j in range(3)]
                     for kind, reg in regs.items()}
        return {"cfg": V.SolverConfig(tol=1e-10), "radon": radon, "pop": pop,
                "regs": regs, "instances": instances, "seed": seed}

    def blocks(self, state):
        V, cfg, radon = self.V, state["cfg"], state["radon"]

        def case(kind, k):
            reg = state["regs"][kind]
            inst = state["instances"][kind][(k // 2) % 3]
            sigma = 0.01 if kind == "l1" else 0.0
            design_seed = derived_seed(V, state["seed"], "design", k)

            def fn():
                design = V.draw_design(radon.out_dim, self.N_SAMPLES, sigma, seed=design_seed)
                pair = V.build_risk_pair(radon, inst.u_star, design)
                sol = V.solve_variational(pair.empirical_map, pair.v_emp, self.ALPHA, reg, cfg)
                rep = V.check_risk_theorem(pair, reg, inst.u_star, inst.z_star, self.ALPHA, cfg,
                                           solution=sol)
                return bool(rep.holds)
            return fn

        blocks = [[("quadratic", 2 * b, case("quadratic", 2 * b)), ("l1", 2 * b + 1, case("l1", 2 * b + 1))]
                  for b in range(self.N_BLOCKS)]
        yield from itertools.cycle(blocks)

    def working_set(self, state):
        return 2 * _csr_bytes(state["pop"].matrix), "population map in CSR, with its stored transpose"


def radon_phantom(grid_n: int) -> np.ndarray:
    """The radon-demo phantom: a centered disk plus an off-center block."""
    xs = (np.arange(grid_n) + 0.5) * (2.0 / grid_n) - 1.0
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    phantom = (X ** 2 + Y ** 2 <= 0.5 ** 2).astype(float)
    phantom[(np.abs(X - 0.45) <= 0.2) & (np.abs(Y + 0.4) <= 0.15)] += 0.5
    return phantom.ravel()


class TvRadon(Workload):
    """Primal-dual TV on the radon-demo phantom: alpha-grid solves and Bregman runs.

    The noise is the radon-demo's own at its default seed,
    ``substream(0, "noise")``, whatever the workload seed: primal-dual
    iteration counts change by up to 2x with the noise realization, so a
    seeded draw would make these latencies unsteady at any run length the
    benchmark can afford.  The workload seed only rotates the case order.
    """

    name = "tv-radon"
    classes = ("tv", "bregman")
    primary, secondary = "tv", "bregman"
    count_blocks = mix_blocks = 4
    warmup_blocks = 0
    probe = "prox"
    SIGMA = 0.01
    NOISE_SEED = 0
    TV_GRID, BREGMAN_GRID, RAYS = 24, 16, 18
    TV_ALPHAS = (0.03, 0.1)
    BREGMAN_ALPHA = 0.1
    BREGMAN_MAX_STEPS = 30

    def _problem(self, grid_n):
        V = self.V
        op = V.make_radon(V.RadonGeometry.regular(grid_n, self.RAYS, self.RAYS))
        noise = self.SIGMA * V.substream(self.NOISE_SEED, "noise").standard_normal(op.out_dim)
        return op, V.tv_aniso((grid_n, grid_n)), op.apply(radon_phantom(grid_n)) + noise, noise

    def setup(self, seed):
        V = self.V
        shift = int(V.substream(seed, "tv-radon-order").integers(1 << 16))
        return {"cfg": V.SolverConfig(tol=1e-8), "tv": self._problem(self.TV_GRID),
                "bregman": self._problem(self.BREGMAN_GRID), "shift": shift}

    def blocks(self, state):
        V, cfg = self.V, state["cfg"]
        op, reg, v, _ = state["tv"]
        target = cfg.tol * (1.0 + np.linalg.norm(op.adjoint(v)))
        b_op, b_reg, b_v, b_noise = state["bregman"]
        level = float(np.linalg.norm(b_noise))

        def tv_case(alpha):
            def fn():
                sol = V.solve_variational(op, v, alpha, reg, cfg)
                member = V.is_subgradient(reg, sol.u_alpha, sol.p_alpha)
                return bool(sol.optimality_defect <= target and member.ok)
            return fn

        def bregman_case():
            trace = V.bregman_iterate(b_op, b_v, self.BREGMAN_ALPHA, b_reg, self.BREGMAN_MAX_STEPS,
                                      cfg, noise_level=level)
            res = [s.data_residual for s in trace.steps]
            last = trace.steps[-1]
            member = V.is_subgradient(b_reg, last.u, last.p)
            return bool(all(b <= a for a, b in zip(res, res[1:])) and member.ok)

        # one case per block, so that every case sits between two probes; the
        # Bregman run, the slowest and least repeatable case, comes twice
        cases = []
        for alpha in self.TV_ALPHAS:
            cases += [("tv", alpha, tv_case(alpha)), ("bregman", self.BREGMAN_ALPHA, bregman_case)]
        k = state["shift"] % len(cases)
        yield from itertools.cycle([case] for case in cases[k:] + cases[:k])

    def working_set(self, state):
        n = state["tv"][0].in_dim
        return 8 * n * n, f"dense Cholesky factor of I + tau F*F at {self.TV_GRID}^2"


class CliDefaults(Workload):
    """All eight CLI commands at default config, each into a fresh directory.

    Each block is one pass over the commands at one experiment seed; the
    cycle visits CLI_SEEDS experiment seeds derived from the workload seed,
    so that no single seed's noise draws set the latency.
    """

    name = "cli-defaults"
    primary, secondary = "bias-variance", "other"
    classes = ("bias-variance", "other")
    count_blocks = 1
    CLI_SEEDS = 3

    def __init__(self, varreg, root):
        super().__init__(varreg, root)
        import varreg.cli
        self.cli = varreg.cli
        self.digests: dict[tuple[int, str], str] = {}
        self.artifact_bytes = 0

    def setup(self, seed):
        work = self.root / "bench" / "results" / "cli-work"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        seeds = [derived_seed(self.V, seed, "cli", i) for i in range(self.CLI_SEEDS)]
        return {"seeds": seeds, "work": work, "counter": itertools.count()}

    def blocks(self, state):
        def case(cli_seed, command):
            def fn():
                out = state["work"] / f"{next(state['counter'])}-{command}"
                stdout, stderr = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                    code = self.V.cli.run([command, "--seed", str(cli_seed), "--output", str(out)])
                ok = code == 0 and self._check_artifacts(cli_seed, command, out)
                shutil.rmtree(out, ignore_errors=True)
                return ok
            return fn

        yield from itertools.cycle(
            [("bias-variance" if c == "bias-variance" else "other", (s, c), case(s, c))
             for c in self.cli.COMMANDS]
            for s in state["seeds"])

    def _check_artifacts(self, seed, command, out: Path) -> bool:
        """Every summary certifies, and the artifacts hash as on the first run."""
        digest = hashlib.sha256()
        holds = True
        for path in sorted(out.iterdir()):
            payload = path.read_bytes()
            self.artifact_bytes += len(payload)
            digest.update(path.name.encode() + b"\0" + payload)
            if path.name.endswith("_summary.json"):
                holds = holds and json.loads(payload).get("holds", True) is True
        first = self.digests.setdefault((seed, command), digest.hexdigest())
        return holds and first == digest.hexdigest()

    def artifact_digests(self, state):
        # the count pass is the first block: every command at the first seed
        return {f"sha256:{c}": self.digests.get((state["seeds"][0], c)) for c in self.cli.COMMANDS}

    def working_set(self, state):
        V = self.V
        op = V.make_radon(V.RadonGeometry.regular(24, 18, 18))
        return 2 * _csr_bytes(op.matrix), "radon-demo operator (24^2) in CSR, with its stored transpose"


WORKLOADS = {w.name: w for w in (CertifyDense, SampledRadon, TvRadon, CliDefaults)}
