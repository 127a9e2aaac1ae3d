"""Command-line front end: seeded experiments with CSV/JSON artifacts.

Every run is driven by one INI config plus a single top-level seed; named
substreams keep operator draws, noise, and instance draws independent of each
other, so outputs are byte-identical across reruns.  Exit code 0 means every
certified inequality in the run held; 1 flags a failed certificate or solver
breakdown; 2 is a usage/config error.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import sys
from pathlib import Path

import numpy as np

from varreg.bregman_iteration import bregman_iterate, debias_two_step
from varreg.core import identity_map, norm, substream
from varreg.estimates import (
    bias_variance_study,
    construct_source_instance,
    convergence_study,
)
from varreg.operators import (
    RadonGeometry,
    draw_design,
    make_convolution,
    make_radon,
    make_random_dense,
    population_map,
    save_image_csv,
)
from varreg.regularizers import SubgradientError, l1, quadratic, tv_aniso
from varreg.risk import build_risk_pair, check_operator_error_estimate, check_risk_theorem
from varreg.solvers import SolverConfig, SolverError, solve_variational

__all__ = ["main", "run"]

DEFAULTS = {
    "experiment": {"seed": "0", "output": ""},
    "operator": {
        "kind": "dense_gaussian",
        "out_dim": "24",
        "in_dim": "16",
        "spectrum": "",
        "grid_n": "16",
        "n_angles": "12",
        "n_offsets": "12",
        "kernel": "0.25,0.5,0.25",
        "n": "32",
    },
    "regularizer": {"kind": "l1", "shape": ""},
    "solver": {"tol": "1e-8", "max_iters": "50000"},
    "solve": {"alpha": "0.5", "sigma": "0.05", "data": ""},
    "bregman": {
        "alpha": "1.0",
        "iterations": "10",
        "sigma": "0.05",
        "discrepancy_factor": "1.1",
        "use_discrepancy": "true",
    },
    "debias": {"alpha": "0.1", "sigma": "0.02"},
    "convergence": {"delta0": "0.1", "decay": "0.5", "steps": "6", "alpha_over_delta": "1.0"},
    "bias_variance": {
        "sigma": "0.05",
        "alpha_min": "0.001",
        "alpha_max": "1.0",
        "n_alphas": "8",
        "replicates": "16",
    },
    "operator_error": {"instances": "5", "n_samples": "12", "sigma": "0.0"},
    "risk_theorem": {"instances": "5", "n_samples": "200", "sigma": "0.02"},
    "radon_demo": {"grid_n": "24", "n_angles": "18", "n_offsets": "18", "alpha": "0.01", "sigma": "0.01"},
}

class ConfigError(Exception):
    pass


def _fmt(x) -> str:
    """Stable scalar formatting: repr for floats, 1/0 for booleans."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def load_config(path: str | None, overrides) -> configparser.ConfigParser:
    conf = configparser.ConfigParser(interpolation=None)
    conf.read_dict(DEFAULTS)
    if path is not None:
        read = conf.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if not conf.has_section(section):
            conf.add_section(section)
        conf.set(section.strip(), key.strip(), value.strip())
    for section in conf.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section [{section}]")
        for key, value in conf.items(section, raw=True):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key [{section}] {key}")
            if not all(map(_finite_or_text, value.split(","))):
                raise ConfigError(f"[{section}] {key} must be finite, got {value!r}")
    return conf


def _finite_or_text(token: str) -> bool:
    try:
        return abs(float(token)) < np.inf
    except ValueError:  # not a number: kinds, booleans, paths
        return True


def _bounded(sec, key: str, low=0.0, strict: bool = False):
    """``[section] key`` as the type of ``low``, rejected unless >= ``low`` (> if ``strict``)."""
    try:
        value = sec.getint(key) if isinstance(low, int) else sec.getfloat(key)
    except ValueError:
        kind = "an integer" if isinstance(low, int) else "a number"
        raise ConfigError(f"[{sec.name}] {key} must be {kind}, got {sec.get(key)!r}") from None
    if not (value > low if strict else value >= low):
        raise ConfigError(f"[{sec.name}] {key} must be {'>' if strict else '>='} {low}, got {value!r}")
    return value


def _floats(text: str):
    return np.array([float(t) for t in text.split(",") if t.strip() != ""])


def build_operator(conf, seed: int):
    sec = conf["operator"]
    kind = sec.get("kind")
    if kind == "identity":
        return identity_map(_bounded(sec, "n", 1))
    if kind == "dense_gaussian":
        out_dim, in_dim = _bounded(sec, "out_dim", 1), _bounded(sec, "in_dim", 1)
        try:
            spectrum = _floats(sec.get("spectrum"))
            return make_random_dense(out_dim, in_dim, seed=_derived_seed(seed, "design"),
                                     singular_values=spectrum if spectrum.size else None)
        except ValueError as err:  # an unreadable spectrum, or one of the wrong length
            raise ConfigError(f"[operator] spectrum: {err}") from None
    if kind == "convolution":
        try:
            return make_convolution(_floats(sec.get("kernel")), _bounded(sec, "n", 1))
        except ValueError as err:  # an empty or unreadable kernel, or one longer than n
            raise ConfigError(f"[operator] kernel: {err}") from None
    if kind == "radon":
        geom = RadonGeometry.regular(_bounded(sec, "grid_n", 1), _bounded(sec, "n_angles", 1),
                                     _bounded(sec, "n_offsets", 1))
        return make_radon(geom)
    raise ConfigError(f"unknown operator kind {kind!r}")


def build_regularizer(conf, op):
    sec = conf["regularizer"]
    kind = sec.get("kind")
    if kind == "quadratic":
        return quadratic()
    if kind == "l1":
        return l1()
    if kind == "tv_aniso":
        shape_text = sec.get("shape")
        if shape_text.strip():
            try:
                parts = [int(t) for t in shape_text.split(",") if t.strip()]
            except ValueError:
                raise ConfigError(f"[regularizer] shape must be integers, got {shape_text!r}") from None
            if len(parts) not in (1, 2):
                raise ConfigError(f"[regularizer] shape must be one or two integers, got {shape_text!r}")
            shape = parts[0] if len(parts) == 1 else tuple(parts)
            if int(np.prod(parts)) != op.in_dim:
                raise ConfigError(f"[regularizer] shape {shape_text!r} must have the operator's "
                                  f"{op.in_dim} entries")
        else:
            shape = op.in_dim
        try:
            return tv_aniso(shape)
        except ValueError as err:  # fewer than 2 entries
            raise ConfigError(f"[regularizer] shape: {err}") from None
    raise ConfigError(f"unknown regularizer kind {kind!r}")


def solver_config(conf, seed: int) -> SolverConfig:
    sec = conf["solver"]
    return SolverConfig(
        max_iters=_bounded(sec, "max_iters", 1),
        tol=_bounded(sec, "tol", strict=True),
        seed=seed,
    )


def _derived_seed(seed: int, name: str, index: int = 0) -> int:
    """Deterministic integer seed from the named substream tree."""
    return int(substream(seed, name, index).integers(2 ** 63 - 1))


def _out_dir(args, conf) -> Path:
    if args.output:
        base = args.output
    elif conf["experiment"].get("output"):
        base = conf["experiment"].get("output")
    else:
        base = os.environ.get("VARREG_OUTDIR", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_artifacts(out_dir: Path, command: str, seed: int, header: str, rows,
                     summary: dict) -> int:
    """Write the command's CSV table and its JSON summary under the command/seed
    envelope; the exit code is 1 when the summary records ``holds`` false."""
    stem = out_dir / command.replace("-", "_")
    with open(f"{stem}.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")
    with open(f"{stem}_summary.json", "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(dict(command=command, seed=seed, **summary), sort_keys=True, indent=2))
        fh.write("\n")
    return 0 if summary.get("holds", True) else 1


# -- subcommands ----------------------------------------------------------------
# Each prints its report and returns the CSV header, the CSV rows and the
# summary fields for ``_write_artifacts``.

def _problem(conf, seed: int):
    """The configured forward map, regularizer and solver settings."""
    op = build_operator(conf, seed)
    return op, build_regularizer(conf, op), solver_config(conf, seed)


def _source_instance(op, reg, seed: int):
    """``construct_source_instance``, which draws TV instances for 1-d signals only."""
    if reg.kind == "tv_aniso" and not isinstance(reg.shape, int):
        raise ConfigError(f"[regularizer] shape must be one integer to draw a tv source instance, "
                          f"got {reg.shape}")
    return construct_source_instance(op, reg, seed)


def _sigma(sec, rows: int) -> float:
    """``[section] sigma``, rejected unless the noise it scales on ``rows`` rows has a finite energy rows*sigma^2."""
    sigma = _bounded(sec, "sigma")
    if not rows * sigma * sigma < np.inf:
        raise ConfigError(f"[{sec.name}] sigma must keep {rows}*sigma^2 finite, got {sigma!r}")
    return sigma


def _noise(sec, seed: int, size: int) -> np.ndarray:
    return _sigma(sec, size) * substream(seed, "noise").standard_normal(size)


def _cmd_solve(conf, seed, out_dir):
    op, reg, cfg = _problem(conf, seed)
    sec = conf["solve"]
    alpha = _bounded(sec, "alpha", strict=True)
    data_text = sec.get("data").strip()
    if data_text:
        try:
            v = _floats(data_text)
        except ValueError as err:
            raise ConfigError(f"[solve] data: {err}") from None
        if v.size != op.out_dim:
            raise ConfigError(f"[solve] data has {v.size} values, expected {op.out_dim}")
    else:
        v = _source_instance(op, reg, seed).v_star + _noise(sec, seed, op.out_dim)
    sol = solve_variational(op, v, alpha, reg, cfg)
    print(f"solve: alpha={_fmt(alpha)} iters={sol.iterations} "
          f"defect={_fmt(sol.optimality_defect)} J={_fmt(sol.J_value)}")
    rows = [(i, sol.u_alpha[i], sol.p_alpha.p[i]) for i in range(op.in_dim)]
    return "i,u,p", rows, dict(alpha=alpha, iterations=sol.iterations, J_value=sol.J_value,
                               optimality_defect=sol.optimality_defect,
                               data_residual=sol.data_residual)


def _cmd_bregman(conf, seed, out_dir):
    op, reg, cfg = _problem(conf, seed)
    sec = conf["bregman"]
    alpha = _bounded(sec, "alpha", strict=True)
    try:
        use_discrepancy = sec.getboolean("use_discrepancy")
    except ValueError:
        raise ConfigError("[bregman] use_discrepancy must be true or false, "
                          f"got {sec.get('use_discrepancy')!r}") from None
    instance = _source_instance(op, reg, seed)
    noise = _noise(sec, seed, op.out_dim)
    noise_level = norm(noise) if use_discrepancy else None
    trace = bregman_iterate(
        op, instance.v_star + noise, alpha, reg, _bounded(sec, "iterations", 1), cfg,
        reference=instance.u_star, noise_level=noise_level,
        discrepancy_factor=_bounded(sec, "discrepancy_factor", 1.0),
    )
    print(f"bregman: steps={len(trace.steps)} "
          f"stopped_by_discrepancy={trace.stopped_by_discrepancy} "
          f"final_residual={_fmt(trace.steps[-1].data_residual)}")
    return "k,residual,J_value,bregman_to_ref", trace.rows(), dict(
        steps=len(trace.steps), stopped_by_discrepancy=trace.stopped_by_discrepancy,
        final_residual=trace.steps[-1].data_residual, noise_level=noise_level)


def _cmd_debias(conf, seed, out_dir):
    op, reg, cfg = _problem(conf, seed)
    if reg.kind != "l1":
        raise ConfigError("debias requires [regularizer] kind = l1")
    sec = conf["debias"]
    alpha = _bounded(sec, "alpha", strict=True)
    v = _source_instance(op, reg, seed).v_star + _noise(sec, seed, op.out_dim)
    result = debias_two_step(op, v, alpha, reg, cfg)
    res_l1 = norm(op.apply(result.step_one.u_alpha) - v)
    res_db = norm(op.apply(result.u_debiased) - v)
    J_sum = result.step_one.J_value + reg.value(result.u_debiased)  # roundoff allowances scale with their terms
    ok = result.bregman_to_step_one <= 1e-8 * (1.0 + J_sum) and res_db <= res_l1 + 1e-10 * (1.0 + res_l1)
    print(f"debias: support={int(result.support.sum())} residual {_fmt(res_l1)} -> {_fmt(res_db)} "
          f"bregman_to_step_one={_fmt(result.bregman_to_step_one)} [{'ok' if ok else 'FAIL'}]")
    rows = [
        (i, result.step_one.u_alpha[i], result.u_debiased[i], bool(result.support[i]))
        for i in range(op.in_dim)
    ]
    return "i,u_l1,u_debiased,support", rows, dict(
        empty_support=result.empty_support, support_size=int(result.support.sum()),
        residual_l1=res_l1, residual_debiased=res_db,
        bregman_to_step_one=result.bregman_to_step_one, holds=ok)


def _cmd_convergence(conf, seed, out_dir):
    op, reg, cfg = _problem(conf, seed)
    sec = conf["convergence"]
    steps = _bounded(sec, "steps", 1)
    delta0 = _bounded(sec, "delta0", strict=True)
    with np.errstate(all="ignore"):  # a schedule that leaves the floats is rejected below, not warned on
        deltas = delta0 * _bounded(sec, "decay", strict=True) ** np.arange(steps)
        alphas = _bounded(sec, "alpha_over_delta", strict=True) * deltas
        terms = np.concatenate([deltas, alphas, deltas ** 2, deltas ** 2 / alphas])
    if not np.all((terms > 0.0) & (terms < np.inf)):
        raise ConfigError("[convergence] delta0, decay and alpha_over_delta must keep every delta = delta0*decay^n, "
                          "delta^2, alpha = alpha_over_delta*delta and delta^2/alpha finite and > 0")
    instance = _source_instance(op, reg, seed)
    rows = convergence_study(op, reg, instance, deltas, alphas, seed=seed, config=cfg)
    for r in rows:
        print(f"convergence n={r.n}: delta={_fmt(r.delta)} alpha={_fmt(r.alpha)} "
              f"bregman={_fmt(r.bregman)} bound={_fmt(r.bound)} [{'ok' if r.holds else 'FAIL'}]")
    table = [(r.n, r.delta, r.alpha, r.bregman, r.bound, r.output_err, r.J_value) for r in rows]
    return ("n,delta,alpha,bregman,bound,output_err,J_value", table,
            dict(rows=len(rows), holds=all(r.holds for r in rows)))


def _cmd_bias_variance(conf, seed, out_dir):
    op, reg, cfg = _problem(conf, seed)
    sec = conf["bias_variance"]
    n_alphas = _bounded(sec, "n_alphas", 1)
    replicates = _bounded(sec, "replicates", 2)  # for a standard error
    alphas = np.geomspace(_bounded(sec, "alpha_min", strict=True),
                          _bounded(sec, "alpha_max", strict=True), n_alphas)
    instance, sigma = _source_instance(op, reg, seed), _sigma(sec, op.out_dim)
    try:
        result = bias_variance_study(op, reg, instance, sigma, alphas, replicates, seed=seed, config=cfg)
    except SubgradientError:  # a ValueError, but a failed certificate
        raise
    except ValueError as err:  # the other arguments are checked: a sigma whose bound or noise energy overflows
        raise ConfigError(f"[bias_variance] sigma: {err}") from None
    all_hold = all(r.holds for r in result.rows)
    print(f"bias-variance: argmin_alpha={_fmt(result.argmin_alpha)} "
          f"noise_energy mean={_fmt(result.noise_energy_mean)} "
          f"expected={_fmt(result.noise_energy_expected)} [{'ok' if all_hold else 'FAIL'}]")
    rows = [(r.alpha, r.mean_bregman, r.stderr, r.bound) for r in result.rows]
    return "alpha,mean_bregman,stderr,bound", rows, dict(
        rows=len(rows), holds=all_hold, argmin_alpha=result.argmin_alpha,
        noise_energy_mean=result.noise_energy_mean,
        noise_energy_expected=result.noise_energy_expected)


def _pair_study(conf, seed, section: str, checker):
    """Certify ``checker(pair, reg, instance, alpha, cfg)`` on ``[section] instances``
    drawn source instances, each with its own sampled design."""
    op, reg, cfg = _problem(conf, seed)
    sec = conf[section]
    n_instances, n_samples = _bounded(sec, "instances", 1), _bounded(sec, "n_samples", 1)
    sigma = _sigma(sec, n_samples)
    alpha = _bounded(conf["solve"], "alpha", strict=True)
    # source certificates must live on the quadrature-weighted population map,
    # not on the raw base operator
    population = population_map(op)
    rows = []
    for i in range(n_instances):
        instance = _source_instance(population, reg, _derived_seed(seed, "instance", i))
        design = draw_design(op.out_dim, n_samples, sigma, _derived_seed(seed, "design", i))
        pair = build_risk_pair(op, instance.u_star, design)
        report = checker(pair, reg, instance, alpha, cfg)
        rows.append((i, report.lhs, report.rhs, report.slack, report.holds))
    for row in rows:
        print(f"{section} instance={row[0]}: lhs={_fmt(row[1])} rhs={_fmt(row[2])} "
              f"[{'ok' if row[4] else 'FAIL'}]")
    return ("instance,lhs,rhs,slack,holds", rows,
            dict(rows=len(rows), holds=all(bool(r[4]) for r in rows)))


def _cmd_radon_demo(conf, seed, out_dir):
    sec = conf["radon_demo"]
    grid_n = _bounded(sec, "grid_n", 1)
    geom = RadonGeometry.regular(grid_n, _bounded(sec, "n_angles", 1), _bounded(sec, "n_offsets", 1))
    op = make_radon(geom)
    cfg = solver_config(conf, seed)
    # phantom: centered disk plus an off-center block
    xs = (np.arange(grid_n) + 0.5) * (2.0 / grid_n) - 1.0
    X, Y = np.meshgrid(xs, xs, indexing="xy")
    phantom = (X ** 2 + Y ** 2 <= 0.5 ** 2).astype(float)
    phantom[(np.abs(X - 0.45) <= 0.2) & (np.abs(Y + 0.4) <= 0.15)] += 0.5
    u_true = phantom.ravel()
    v = op.apply(u_true) + _noise(sec, seed, op.out_dim)
    sol = solve_variational(op, v, _bounded(sec, "alpha", strict=True), quadratic(), cfg)
    rel_err = norm(sol.u_alpha - u_true) / norm(u_true)
    save_image_csv(out_dir / "phantom.csv", phantom)
    save_image_csv(out_dir / "recon.csv", sol.u_alpha.reshape(grid_n, grid_n))
    print(f"radon-demo: grid={grid_n} rel_error={_fmt(rel_err)} iters={sol.iterations}")
    return "key,value", [
        ("rel_error", rel_err),
        ("data_residual", sol.data_residual),
        ("iterations", sol.iterations),
    ], dict(rel_error=rel_err, iterations=sol.iterations)


_DISPATCH = {
    "solve": _cmd_solve,
    "bregman": _cmd_bregman,
    "debias": _cmd_debias,
    "convergence": _cmd_convergence,
    "bias-variance": _cmd_bias_variance,
    # the checkers are looked up when the command runs, not when this table is built
    "operator-error": lambda conf, seed, out_dir: _pair_study(
        conf, seed, "operator_error", check_operator_error_estimate),
    "risk-theorem": lambda conf, seed, out_dir: _pair_study(
        conf, seed, "risk_theorem", lambda pair, reg, instance, alpha, cfg: check_risk_theorem(
            pair, reg, instance.u_star, instance.z_star, alpha, cfg)),
    "radon-demo": _cmd_radon_demo,
}

COMMANDS = tuple(_DISPATCH)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="varreg",
        description="Seeded variational-regularization experiments with certified error bounds.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--seed", type=int, default=None, help="override [experiment] seed")
    parser.add_argument("--output", default=None,
                        help="output directory (default: [experiment] output, then $VARREG_OUTDIR)")
    parser.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                        help="override a single config value (repeatable)")
    return parser


def run(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        conf = load_config(args.config, args.set)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    try:
        seed = _bounded(conf["experiment"], "seed", 0) if args.seed is None else args.seed
        if seed < 0:  # the [experiment] seed has been checked already
            raise ConfigError(f"--seed must be >= 0, got {seed}")
        out_dir = _out_dir(args, conf)
        return _write_artifacts(out_dir, args.command, seed,
                                *_DISPATCH[args.command](conf, seed, out_dir))
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except SolverError as err:
        print(f"error: solver failed: {err}", file=sys.stderr)
        return 1
    except (SubgradientError, ArithmeticError, RuntimeError) as err:
        # SubgradientError is a ValueError, so it must be caught first
        print(f"error: certificate failed: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def main():  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
