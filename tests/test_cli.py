import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varreg
from varreg import SubgradientError, is_subgradient, l1, load_image_csv
from varreg.cli import COMMANDS, DEFAULTS, load_config, run
from varreg.estimates import EstimateReport

SOLVE_INI = """\
[experiment]
seed = 0

[operator]
kind = identity
n = 2

[regularizer]
kind = l1

[solve]
alpha = 1.0
data = 2,0.5
"""


def _write(tmp_path, text, name="conf.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_solve_identity_example(tmp_path):
    conf = _write(tmp_path, SOLVE_INI)
    out = tmp_path / "out"
    assert run(["solve", "--config", conf, "--output", str(out)]) == 0
    header, rows = _read_csv(out / "solve.csv")
    assert header == "i,u,p"
    u = np.array([float(r[1]) for r in rows])
    p = np.array([float(r[2]) for r in rows])
    np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-7)
    assert is_subgradient(l1(), u, p, tol=1e-6).ok


@pytest.mark.parametrize("command, extra", [
    ("bregman", []),
    ("bias-variance", ["--set", "regularizer.kind=tv_aniso", "--seed", "1"]),
    ("bias-variance", ["--set", "regularizer.kind=quadratic"]),
], ids=["bregman", "bias-variance-tv", "bias-variance-quadratic"])
def test_rerun_is_byte_identical(tmp_path, command, extra):
    # commands with operator draws and noise (the studies as block solves): everything must rerun bitwise
    conf = _write(tmp_path, "[bregman]\niterations = 4\nsigma = 0.05\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert run([command, "--config", conf, "--output", str(a)] + extra) == 0
    assert run([command, "--config", conf, "--output", str(b)] + extra) == 0
    stem = command.replace("-", "_")
    for name in (f"{stem}.csv", f"{stem}_summary.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_unknown_key_and_section_are_rejected(tmp_path, capsys):
    conf = _write(tmp_path, "[solve]\nalhpa = 0.1\n")
    assert run(["solve", "--config", conf, "--output", str(tmp_path)]) == 2
    assert "alhpa" in capsys.readouterr().err
    conf2 = _write(tmp_path, "[solv]\nalpha = 0.1\n", name="c2.ini")
    assert run(["solve", "--config", conf2, "--output", str(tmp_path)]) == 2
    assert "[solv]" in capsys.readouterr().err


def test_set_override_syntax(tmp_path, capsys):
    assert run(["solve", "--set", "badvalue", "--output", str(tmp_path)]) == 2
    assert "--set" in capsys.readouterr().err
    assert run(["solve", "--set", "solve.alpha=0.2", "--set", "operator.out_dim=8",
                "--set", "operator.in_dim=6", "--output", str(tmp_path)]) == 0


def test_missing_config_file(tmp_path, capsys):
    assert run(["solve", "--config", str(tmp_path / "nope.ini"),
                "--output", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_parameter_exits_two(tmp_path, capsys):
    conf = _write(tmp_path, "[solve]\nalpha = -1.0\ndata = 1,1\n[operator]\nkind = identity\nn = 2\n")
    assert run(["solve", "--config", conf, "--output", str(tmp_path)]) == 2
    assert "alpha" in capsys.readouterr().err


def test_non_finite_tol_exits_two(tmp_path, capsys):
    assert run(["solve", "--set", "solver.tol=nan", "--output", str(tmp_path)]) == 2
    assert "tol" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, key", [
    ("solve", "solve.alpha"),
    ("bregman", "bregman.discrepancy_factor"),
    ("debias", "debias.alpha"),
    ("bias-variance", "bias_variance.alpha_max"),
])
def test_non_finite_config_value_exits_two(tmp_path, capsys, command, key, value):
    assert run([command, "--set", f"{key}={value}", "--output", str(tmp_path)]) == 2
    section, name = key.split(".")
    assert f"[{section}] {name}" in capsys.readouterr().err
    assert not any(tmp_path.glob("*_summary.json"))


@pytest.mark.parametrize("command, settings, key", [
    ("solve", ["solve.sigma=-1"], "[solve] sigma"),
    ("bregman", ["bregman.sigma=-1"], "[bregman] sigma"),
    ("debias", ["debias.sigma=-1"], "[debias] sigma"),
    ("radon-demo", ["radon_demo.sigma=-1"], "[radon_demo] sigma"),
    ("bias-variance", ["bias_variance.sigma=-1"], "[bias_variance] sigma"),
    ("risk-theorem", ["risk_theorem.sigma=-1"], "[risk_theorem] sigma"),
    ("solve", ["regularizer.kind=tv_aniso", "regularizer.shape=abc"], "[regularizer] shape"),
    ("bias-variance", ["bias_variance.alpha_min=0"], "[bias_variance] alpha_min"),
    ("convergence", ["convergence.decay=0"], "[convergence] decay"),
    ("convergence", ["convergence.delta0=-0.1"], "[convergence] delta0"),
    ("bregman", ["bregman.discrepancy_factor=-1"], "[bregman] discrepancy_factor"),
    ("bregman", ["bregman.discrepancy_factor=0.5"], "[bregman] discrepancy_factor"),
    ("solve", ["solver.max_iters=0"], "[solver] max_iters"),
    ("bregman", ["bregman.iterations=0"], "[bregman] iterations"),
    ("radon-demo", ["radon_demo.grid_n=0"], "[radon_demo] grid_n"),
    ("operator-error", ["operator_error.n_samples=0"], "[operator_error] n_samples"),
    ("solve", ["operator.in_dim=0"], "[operator] in_dim"),
    ("solve", ["solve.alpha=0"], "[solve] alpha"),
    ("bregman", ["bregman.alpha=0"], "[bregman] alpha"),
    ("debias", ["debias.alpha=0"], "[debias] alpha"),
    ("radon-demo", ["radon_demo.alpha=0"], "[radon_demo] alpha"),
    ("operator-error", ["solve.alpha=0"], "[solve] alpha"),
    ("risk-theorem", ["solve.alpha=0"], "[solve] alpha"),
    ("solve", ["solver.tol=0"], "[solver] tol"),
    ("solve", ["solver.step_safety=2"], "[solver] step_safety"),
    ("solve", ["solver.step_safety=0"], "[solver] step_safety"),
    ("bregman", ["bregman.use_discrepancy=maybe"], "[bregman] use_discrepancy"),
    ("solve", ["regularizer.kind=tv_aniso", "regularizer.shape=4,4,4"], "[regularizer] shape"),
    ("solve", ["operator.spectrum=abc"], "[operator] spectrum"),
    ("solve", ["operator.spectrum=1,2"], "[operator] spectrum"),
    ("solve", ["solve.data=1,2"], "[solve] data"),
    ("solve", ["solve.data=abc"], "[solve] data"),
    ("solve", ["regularizer.kind=tv_aniso", "regularizer.shape=1"], "[regularizer] shape"),
    ("solve", ["regularizer.kind=tv_aniso", "regularizer.shape=17"], "[regularizer] shape"),
    ("solve", ["operator.in_dim=1", "regularizer.kind=tv_aniso"], "[regularizer] shape"),
    ("solve", ["regularizer.kind=tv_aniso", "regularizer.shape=4,5"], "[regularizer] shape"),
    ("solve", ["regularizer.kind=tv_aniso", "regularizer.shape=4,4"], "[regularizer] shape"),
    ("bregman", ["regularizer.kind=tv_aniso", "regularizer.shape=4,4"], "[regularizer] shape"),
    ("convergence", ["regularizer.kind=tv_aniso", "regularizer.shape=4,4"], "[regularizer] shape"),
    ("solve", ["solve.alpha=abc"], "[solve] alpha"),
    ("solve", ["operator.out_dim=2.5"], "[operator] out_dim"),
    ("bias-variance", ["bias_variance.replicates=x"], "[bias_variance] replicates"),
], ids=["solve-sigma", "bregman-sigma", "debias-sigma", "radon-sigma", "bias-variance-sigma",
        "risk-sigma", "tv-shape", "alpha-min", "decay", "delta0", "discrepancy-negative",
        "discrepancy-below-one", "max-iters", "bregman-iterations", "radon-grid", "n-samples",
        "in-dim", "solve-alpha", "bregman-alpha", "debias-alpha", "radon-alpha",
        "operator-error-alpha", "risk-alpha", "tol", "step-safety-above-one", "step-safety-zero",
        "use-discrepancy", "tv-shape-rank", "spectrum-text", "spectrum-length", "data-length",
        "data-text", "tv-shape-one", "tv-shape-size", "tv-one-entry-operator", "tv-image-size",
        "solve-tv-image-instance", "bregman-tv-image-instance", "convergence-tv-image-instance",
        "alpha-text", "out-dim-fraction", "replicates-text"])
def test_out_of_range_config_value_exits_two(tmp_path, capsys, command, settings, key):
    args = [command, "--output", str(tmp_path)]
    for setting in settings:
        args += ["--set", setting]
    assert run(args) == 2
    assert key in capsys.readouterr().err
    assert not any(tmp_path.glob("*_summary.json"))


@pytest.mark.parametrize("args, key", [
    (["--set", "experiment.seed=abc"], "[experiment] seed"),
    (["--set", "experiment.seed=-3"], "[experiment] seed"),
    (["--seed", "-1"], "--seed"),
], ids=["config-text", "config-negative", "flag-negative"])
def test_invalid_seed_exits_two(tmp_path, capsys, args, key):
    assert run(["solve", "--output", str(tmp_path)] + args) == 2
    assert key in capsys.readouterr().err
    assert not any(tmp_path.glob("*_summary.json"))


def test_radon_operator_solves(tmp_path):
    assert run(["solve", "--set", "operator.kind=radon", "--set", "operator.grid_n=6",
                "--set", "operator.n_angles=6", "--set", "operator.n_offsets=6",
                "--set", "regularizer.kind=quadratic", "--output", str(tmp_path)]) == 0
    assert (tmp_path / "solve.csv").exists() and (tmp_path / "solve_summary.json").exists()


def test_solver_failure_exits_one(tmp_path, capsys):
    assert run(["solve", "--set", "solver.max_iters=1", "--output", str(tmp_path)]) == 1
    assert "error: solver failed" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_tv_image_shape_solves_given_data(tmp_path):
    # a 2-d TV shape draws no source instance when [solve] data is given
    data = ",".join(repr(0.1 * i) for i in range(24))
    assert run(["solve", "--set", "regularizer.kind=tv_aniso", "--set", "regularizer.shape=4,4",
                "--set", f"solve.data={data}", "--output", str(tmp_path)]) == 0
    assert (tmp_path / "solve_summary.json").exists()


def test_empty_convergence_table_exits_two(tmp_path, capsys):
    assert run(["convergence", "--set", "convergence.steps=0", "--output", str(tmp_path)]) == 2
    assert "steps" in capsys.readouterr().err
    assert not (tmp_path / "convergence_summary.json").exists()


@pytest.mark.parametrize("setting", ["decay=1e-300", "decay=1e300", "delta0=1e308",
                                     "alpha_over_delta=1e-310"])
def test_convergence_schedule_out_of_floats_exits_two(tmp_path, capsys, setting):
    # an underflowed delta, an overflowed delta, delta^2 or delta^2/alpha: each would
    # reach the solver as a zero or infinite alpha, or certify rows against bound=inf
    assert run(["convergence", "--set", f"convergence.{setting}", "--output", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: [convergence] delta0, decay and alpha_over_delta ")
    assert "Warning" not in err
    assert not (tmp_path / "convergence_summary.json").exists()


@pytest.mark.parametrize("command, key", [
    ("operator-error", "operator_error.instances"),
    ("risk-theorem", "risk_theorem.instances"),
])
def test_empty_instance_table_exits_two(tmp_path, capsys, command, key):
    assert run([command, "--set", f"{key}=0", "--output", str(tmp_path)]) == 2
    section, name = key.split(".")
    assert f"[{section}] {name}" in capsys.readouterr().err
    assert not any(tmp_path.glob("*_summary.json"))


@pytest.mark.parametrize("setting, key", [
    ("n_alphas=0", "[bias_variance] n_alphas"),
    ("replicates=1", "[bias_variance] replicates"),
])
def test_bias_variance_config_errors_name_key(tmp_path, capsys, setting, key):
    assert run(["bias-variance", "--set", f"bias_variance.{setting}", "--output", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "bias_variance_summary.json").exists()


@pytest.mark.parametrize("command, target, error", [
    ("operator-error", "check_operator_error_estimate", SubgradientError("p fails membership")),
    ("bregman", "bregman_iterate", ArithmeticError("Bregman distance is negative beyond roundoff")),
    ("solve", "construct_source_instance", RuntimeError("no verifiable source instance")),
], ids=["subgradient", "arithmetic", "runtime"])
def test_certificate_errors_exit_one(tmp_path, capsys, monkeypatch, command, target, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr(f"varreg.cli.{target}", broken)
    assert run([command, "--output", str(tmp_path)]) == 1
    assert str(error) in capsys.readouterr().err


def test_convergence_csv_schema(tmp_path):
    conf = _write(tmp_path, "[convergence]\nsteps = 4\n[regularizer]\nkind = quadratic\n")
    out = tmp_path / "out"
    assert run(["convergence", "--config", conf, "--output", str(out)]) == 0
    header, rows = _read_csv(out / "convergence.csv")
    assert header == "n,delta,alpha,bregman,bound,output_err,J_value"
    assert [r[0] for r in rows] == ["0", "1", "2", "3"]
    bounds = [float(r[4]) for r in rows]
    assert all(b > 0 for b in bounds)


def test_bregman_discrepancy_toggle(tmp_path):
    base = "[bregman]\niterations = 6\nsigma = 0.0\nuse_discrepancy = false\n"
    conf = _write(tmp_path, base)
    out = tmp_path / "out"
    assert run(["bregman", "--config", conf, "--output", str(out)]) == 0
    header, rows = _read_csv(out / "bregman.csv")
    assert header == "k,residual,J_value,bregman_to_ref"
    assert len(rows) == 6  # no early stop without the discrepancy rule
    res = [float(r[1]) for r in rows]
    assert all(b <= a + 1e-10 for a, b in zip(res, res[1:]))


def test_default_bregman_artifacts_are_those_of_cold_starts(tmp_path, monkeypatch):
    # each l1 step warm-starts FISTA from the last u; that moves no digit the default artifacts print
    assert run(["bregman", "--output", str(tmp_path / "warm")]) == 0
    monkeypatch.setattr(varreg.bregman_iteration, "solve_variational",
                        lambda *args, u0=None, **kwargs: varreg.solve_variational(*args, **kwargs))
    assert run(["bregman", "--output", str(tmp_path / "cold")]) == 0
    for name in ("bregman.csv", "bregman_summary.json"):
        assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "cold" / name).read_bytes()


@pytest.mark.parametrize("kind", ["l1", "quadratic", "tv_aniso"])
def test_bregman_at_tiny_alpha_has_no_overflow(tmp_path, capsys, kind):
    # the dual bookkeeping is carried as alpha*p, so no step divides by alpha = 1e-300
    # (the suite turns RuntimeWarning into an error); by default the discrepancy rule stops it
    settings = ["--set", "bregman.alpha=1e-300", "--set", f"regularizer.kind={kind}"]
    assert run(["bregman", "--output", str(tmp_path / "a")] + settings) == 0
    # without the rule, p_rec and p_opt differ by roundoff/alpha, which the check refuses
    settings += ["--set", "bregman.use_discrepancy=false"]
    assert run(["bregman", "--output", str(tmp_path / "b")] + settings) == 1
    assert "Bregman dual bookkeeping diverged" in capsys.readouterr().err


def test_debias_outputs(tmp_path):
    conf = _write(tmp_path, "[debias]\nalpha = 0.05\nsigma = 0.0\n")
    out = tmp_path / "out"
    assert run(["debias", "--config", conf, "--output", str(out)]) == 0
    header, rows = _read_csv(out / "debias.csv")
    assert header == "i,u_l1,u_debiased,support"
    assert set(r[3] for r in rows) <= {"0", "1"}
    assert any(r[3] == "1" for r in rows)


@pytest.mark.parametrize("sigma", ["1e77", "1e153"])
def test_debias_verdict_allows_roundoff_relative_to_its_terms(tmp_path, capsys, sigma):
    # at these noise levels J ~ sigma: the refit's Bregman distance to step one and its residual gain are
    # roundoff of terms that large, which an absolute 1e-8 and 1e-10 (or the clamp's 1e-8) would fail
    assert run(["debias", "--output", str(tmp_path), "--set", f"debias.sigma={sigma}"]) == 0
    assert "[ok]" in capsys.readouterr().out


def test_debias_requires_l1(tmp_path, capsys):
    conf = _write(tmp_path, "[regularizer]\nkind = quadratic\n")
    assert run(["debias", "--config", conf, "--output", str(tmp_path)]) == 2
    assert "l1" in capsys.readouterr().err


def test_bias_variance_csv_schema(tmp_path):
    conf = _write(tmp_path, "\n".join([
        "[bias_variance]", "replicates = 4", "n_alphas = 3",
        "[regularizer]", "kind = quadratic", "",
    ]))
    out = tmp_path / "out"
    assert run(["bias-variance", "--config", conf, "--output", str(out)]) == 0
    header, rows = _read_csv(out / "bias_variance.csv")
    assert header == "alpha,mean_bregman,stderr,bound"
    assert len(rows) == 3


def test_operator_error_study(tmp_path, capsys):
    conf = _write(tmp_path, "[operator_error]\ninstances = 3\n[regularizer]\nkind = quadratic\n")
    out = tmp_path / "out"
    assert run(["operator-error", "--config", conf, "--output", str(out)]) == 0
    captured = capsys.readouterr().out
    assert captured.count("[ok]") == 3
    header, rows = _read_csv(out / "operator_error.csv")
    assert header == "instance,lhs,rhs,slack,holds"
    assert all(r[4] == "1" for r in rows)


def test_risk_theorem_study(tmp_path):
    conf = _write(tmp_path, "[risk_theorem]\ninstances = 2\n[regularizer]\nkind = quadratic\n")
    out = tmp_path / "out"
    assert run(["risk-theorem", "--config", conf, "--output", str(out)]) == 0
    header, rows = _read_csv(out / "risk_theorem.csv")
    assert header == "instance,lhs,rhs,slack,holds"
    assert len(rows) == 2


def _failing_check(pair, reg, instance, alpha, cfg, solution=None):
    return EstimateReport(lhs=1.0, rhs=0.0, holds=False, slack=-1.0, components={})


def test_empty_convolution_kernel_exits_two(tmp_path, capsys):
    assert run(["solve", "--set", "operator.kind=convolution", "--set", "operator.kernel=",
                "--output", str(tmp_path)]) == 2
    assert "[operator] kernel" in capsys.readouterr().err
    assert not any(tmp_path.glob("*_summary.json"))


def test_failed_certificate_exits_one(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("varreg.cli.check_operator_error_estimate", _failing_check)
    conf = _write(tmp_path, "[operator_error]\ninstances = 2\n[regularizer]\nkind = quadratic\n")
    assert run(["operator-error", "--config", conf, "--output", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "instance=0" in out and "[FAIL]" in out


def test_output_dir_resolution(tmp_path, monkeypatch):
    conf = _write(tmp_path, SOLVE_INI)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("VARREG_OUTDIR", str(env_dir))
    assert run(["solve", "--config", conf]) == 0
    assert (env_dir / "solve.csv").exists()
    # --output wins over the environment
    flag_dir = tmp_path / "from_flag"
    assert run(["solve", "--config", conf, "--output", str(flag_dir)]) == 0
    assert (flag_dir / "solve.csv").exists()


def test_radon_demo_artifacts(tmp_path):
    conf = _write(tmp_path, "\n".join([
        "[radon_demo]", "grid_n = 12", "n_angles = 8", "n_offsets = 8", "",
    ]))
    out = tmp_path / "out"
    assert run(["radon-demo", "--config", conf, "--output", str(out)]) == 0
    assert load_image_csv(out / "phantom.csv").shape == (12, 12)
    assert load_image_csv(out / "recon.csv").shape == (12, 12)
    header, rows = _read_csv(out / "radon_demo.csv")
    assert header == "key,value"
    assert rows[0][0] == "rel_error"
    assert float(rows[0][1]) < 1.0


# the command that reads each section's keys, and the settings under which a key is read at all
_READER = {"experiment": "solve", "operator": "solve", "regularizer": "solve", "solver": "solve", "solve": "solve",
           "bregman": "bregman", "debias": "debias", "convergence": "convergence",
           "bias_variance": "bias-variance", "operator_error": "operator-error", "risk_theorem": "risk-theorem",
           "radon_demo": "radon-demo"}
_READ_UNDER = {**{("operator", k): ["operator.kind=radon"] for k in ("grid_n", "n_angles", "n_offsets")},
               **{("operator", k): ["operator.kind=convolution"] for k in ("kernel", "n")},
               ("regularizer", "shape"): ["regularizer.kind=tv_aniso"]}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_every_key_and_bad_value_keeps_the_exit_code_contract(tmp_path, capsys, monkeypatch):
    # every DEFAULTS key at nine bad or edge values, each under a command that reads it ([solver] tol under
    # radon-demo, whose CG cannot reach tol = 1e-300): exit 0, 1 or 2, an exit 2 naming its key or section,
    # nothing raised and no RuntimeWarning (the suite turns one into an error)
    monkeypatch.chdir(tmp_path)  # an [experiment] output of "abc" is made here
    monkeypatch.setenv("VARREG_OUTDIR", str(tmp_path))
    faults = []
    for section, keys in DEFAULTS.items():
        for key in keys:
            command = "radon-demo" if (section, key) == ("solver", "tol") else _READER[section]
            for value in ("0", "-1", "1e-300", "1e300", "1e153", "1e-153", "abc", "", "2.5"):
                settings = [f"{section}.{key}={value}", *_READ_UNDER.get((section, key), [])]
                try:
                    code = run([command, *(arg for s in settings for arg in ("--set", s))])
                except Exception as err:  # any escape, a RuntimeWarning made an error included, breaks the contract
                    code = repr(err)
                err = capsys.readouterr().err
                if code not in (0, 1, 2) or (code == 2 and section not in err and key not in err):
                    faults.append((command, section, key, value, code, err))
    assert not faults


def test_load_config_defaults_complete():
    conf = load_config(None, [])
    assert conf["solver"].getfloat("tol") == 1e-8
    assert conf["experiment"].getint("seed") == 0


def test_console_entry_point(tmp_path):
    conf = _write(tmp_path, SOLVE_INI)
    # the child finds varreg where this process did, installed or not
    src = str(Path(varreg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "varreg.cli", "solve", "--config", conf,
         "--output", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "solve:" in proc.stdout


SMALL_INI = """\
[bregman]
iterations = 4
[convergence]
steps = 3
[bias_variance]
n_alphas = 3
replicates = 4
[operator_error]
instances = 2
[risk_theorem]
instances = 2
[radon_demo]
grid_n = 12
n_angles = 8
n_offsets = 8
"""


@pytest.mark.parametrize("command, failing", [(c, False) for c in COMMANDS]
                         + [("operator-error", True)])
def test_artifact_contract(tmp_path, monkeypatch, command, failing):
    # the README's artifact table and exit-code contract, for every command
    if failing:
        monkeypatch.setattr("varreg.cli.check_operator_error_estimate", _failing_check)
    conf = _write(tmp_path, SMALL_INI)
    out = tmp_path / "out"
    code = run([command, "--config", conf, "--seed", "3", "--output", str(out)])
    stem = command.replace("-", "_")
    expected = {f"{stem}.csv", f"{stem}_summary.json"}
    if command == "radon-demo":
        expected |= {"phantom.csv", "recon.csv"}
    assert {path.name for path in out.iterdir()} == expected
    summary = json.loads((out / f"{stem}_summary.json").read_text(encoding="utf-8"))
    assert summary["command"] == command and summary["seed"] == 3
    assert code == (1 if summary.get("holds") is False else 0)
    assert summary.get("holds", True) is not failing
