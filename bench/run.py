"""varreg benchmark: certified solves, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload certify-dense --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all            # every workload, one process each

Each workload runs in one process as a closed loop: a single client runs
certified cases back to back, with BLAS pinned to one thread.  ``--trace 0``
measures the end-to-end metrics; ``--trace 1`` wraps varreg's layers (see
tracer.py), runs a fixed count pass twice to prove its counts reproduce, and
measures the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results, with the environment record, go to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
COUNTS = BENCH / "counts.json"
WORKLOAD_NAMES = ("certify-dense", "sampled-radon", "tv-radon", "cli-defaults")
SETUP_REPEATS = 5
P90_MIN_CASES = 100

END_TO_END = [
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("primary_p50_ms", "ms"),
    ("secondary_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
]

CLI_COMMANDS = ("solve", "bregman", "debias", "convergence", "bias-variance",
                "operator-error", "risk-theorem", "radon-demo")


def _per_layer_spec():
    spec = [
        ("core.apply.calls", "count"), ("core.apply.self_s", "s"),
        ("core.apply.bytes_computed", "bytes"),
        ("core.as_vector.calls", "count"), ("core.as_vector.self_s", "s"),
        ("core.opnorm.calls", "count"), ("core.opnorm.self_s", "s"),
        ("core.opnorm.per_operator", "count"),
        ("operators.build.calls", "count"), ("operators.build.self_s", "s"),
        ("regularizers.prox.calls", "count"), ("regularizers.prox.self_s", "s"),
        ("regularizers.membership.calls", "count"), ("regularizers.membership.self_s", "s"),
        ("regularizers.membership.tv_fit.calls", "count"),
        ("regularizers.bregman.calls", "count"), ("regularizers.bregman.self_s", "s"),
        ("regularizers.edge_norm.calls", "count"), ("regularizers.edge_norm.self_s", "s"),
    ]
    for kind in ("cg", "fista", "pd"):
        spec += [(f"solvers.{kind}.calls", "count"), (f"solvers.{kind}.iters", "count"),
                 (f"solvers.{kind}.self_s", "s"), (f"solvers.{kind}.ms_per_iter", "ms")]
    spec += [
        ("solvers.pd.factor_s", "s"), ("solvers.pd.prox_s", "s"),
        ("bregman_iteration.runs", "count"), ("bregman_iteration.steps", "count"),
        ("bregman_iteration.inner_iters", "count"), ("bregman_iteration.self_s", "s"),
        ("bregman_iteration.debias.calls", "count"), ("bregman_iteration.debias.apg_iters", "count"),
        ("bregman_iteration.debias.self_s", "s"),
        ("estimates.instance.calls", "count"), ("estimates.instance.self_s", "s"),
        ("estimates.instance.accept_ratio", "ratio"),
        ("estimates.check.calls", "count"), ("estimates.check.self_s", "s"),
        ("estimates.study.self_s", "s"),
        ("risk.pair.calls", "count"), ("risk.pair.self_s", "s"),
        ("risk.check.calls", "count"), ("risk.check.self_s", "s"),
        ("cli.self_s", "s"), ("cli.artifact_bytes", "bytes"),
    ]
    spec += [(f"cli.{c}.s", "s") for c in CLI_COMMANDS]
    spec += [
        ("trace.count_pass_cases", "count"),
        ("trace.cases_per_s_untraced", "1/s"), ("trace.cases_per_s_traced", "1/s"),
        ("trace.overhead", "ratio"),
    ]
    return spec


PER_LAYER = _per_layer_spec()


# ---------------------------------------------------------------------------
# running cases
# ---------------------------------------------------------------------------


class Tally:
    """Outcome of every case attempted."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run_block(self, block, tracer=None) -> tuple[float, list[tuple]]:
        """Run one block; return its seconds and (class, key, seconds) of
        each certified case."""
        certified = []
        b0 = perf_counter()
        for cls, key, fn in block:
            if tracer is not None:
                tracer.case = self.attempted
            why = "certificate failed"
            t0 = perf_counter()
            try:
                ok = fn()
            except Exception as err:  # a failed case is counted, never retried
                ok = False
                why = "".join(traceback.format_exception_only(err)).strip()
            elapsed = perf_counter() - t0
            if ok:
                certified.append((cls, key, elapsed))
            else:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"case {self.attempted} ({cls} {key}): {why}")
            self.attempted += 1
        return perf_counter() - b0, certified


def run_timed(blocks, seconds: float, tally: Tally, probe, between, mix_blocks: int) -> list[dict]:
    """Run whole blocks, each between two probes, for about ``seconds`` of
    timed work.

    The run stops only after a multiple of ``mix_blocks`` blocks, so that it
    holds every class in the workload's proportions, and at the group boundary
    nearest to ``seconds``.  ``between(timed)`` runs
    untimed after a block and returns whether it did any work, in which case
    the next block gets a fresh probe.
    """
    log = []
    before = probe()
    for block in blocks:
        seconds_used, cases = tally.run_block(block)
        after = probe()
        scale = probe.reference / (0.5 * (before + after))
        log.append({"s": seconds_used, "ref_s": seconds_used * scale, "cases": cases, "scale": scale})
        timed = sum(b["s"] for b in log)
        if len(log) % mix_blocks == 0 and timed * (1 + 0.5 * mix_blocks / len(log)) > seconds:
            return log
        before = probe() if between(timed) else after
    return log


def class_stats(log, classes) -> dict:
    """Per class, over its distinct cases, of each case's median run:
    p50 (and p90 with enough cases), at reference speed and as measured."""
    runs: dict[tuple, list[tuple[float, float]]] = {}
    for block in log:
        for cls, key, seconds_used in block["cases"]:
            runs.setdefault((cls, key), []).append((seconds_used * block["scale"], seconds_used))
    out = {}
    for cls in classes:
        per_case = [v for (c, _), v in runs.items() if c == cls]
        if not per_case:
            continue
        at_ref = [statistics.median(r for r, _ in v) for v in per_case]
        raw = [statistics.median(m for _, m in v) for v in per_case]
        stats = {"cases": len(per_case), "runs": sum(len(v) for v in per_case),
                 "p50_ms": 1000.0 * statistics.median(at_ref),
                 "measured_p50_ms": 1000.0 * statistics.median(raw)}
        if len(per_case) >= P90_MIN_CASES:
            stats["p90_ms"] = 1000.0 * statistics.quantiles(at_ref, n=10, method="inclusive")[8]
            stats["measured_p90_ms"] = 1000.0 * statistics.quantiles(raw, n=10, method="inclusive")[8]
        out[cls] = stats
    return out


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def import_seconds() -> float:
    """Time to import varreg (with numpy and scipy) in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import varreg, varreg.cli; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return float(out.stdout)


def measure(workload, seed: int, seconds: float) -> dict:
    from probe import Probe

    probe = Probe(workload.probe)
    setup_probe = Probe("python")
    # set-up is repeated at even intervals through the run, each time between
    # two probes, and reported as the median
    setups = []

    def set_up():
        before = setup_probe()
        imported = import_seconds()
        t0 = perf_counter()
        state = workload.setup(seed)
        built = perf_counter() - t0
        scale = setup_probe.reference / (0.5 * (before + setup_probe()))
        setups.append({"import_s": imported, "build_s": built, "scale": scale})
        return state

    def between(timed):
        if len(setups) < SETUP_REPEATS and timed >= len(setups) * seconds / SETUP_REPEATS:
            set_up()
            return True
        return False

    state = set_up()
    tally = Tally()
    blocks = workload.blocks(state)
    for _ in range(workload.warmup_blocks):
        tally.run_block(next(blocks))
    log = run_timed(blocks, seconds, tally, probe, between, workload.mix_blocks)
    while len(setups) < SETUP_REPEATS:
        set_up()

    classes = class_stats(log, workload.classes)
    certified = sum(len(b["cases"]) for b in log)
    metrics = {
        "setup_s": statistics.median((x["import_s"] + x["build_s"]) * x["scale"] for x in setups),
        "cases_per_s": certified / sum(b["ref_s"] for b in log),
        "primary_p50_ms": classes.get(workload.primary, {}).get("p50_ms", float("nan")),
        "secondary_p50_ms": classes.get(workload.secondary, {}).get("p50_ms", float("nan")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    measured = {
        "setup_s": statistics.median(x["import_s"] + x["build_s"] for x in setups),
        "cases_per_s": certified / sum(b["s"] for b in log),
        "speed": statistics.median(b["scale"] for b in log),
    }
    size, what = workload.working_set(state)
    return {
        "tally": tally, "metrics": metrics, "measured": measured, "classes": classes,
        "setup": setups, "timed": {"seconds": sum(b["s"] for b in log), "blocks": len(log)},
        "working_set": {"bytes": size, "what": what},
        "correct": tally.failed == 0,
    }


def _count_pass(workload, seed, tracer, tally):
    """Set up and run the fixed count pass under tracing; return its spans."""
    from tracer import span_totals

    tracer.reset()
    tracer.case = -1
    bytes_before = getattr(workload, "artifact_bytes", 0)
    state = workload.setup(seed)
    blocks = workload.blocks(state)
    cases_before = tally.attempted
    for _ in range(workload.count_blocks):
        tally.run_block(next(blocks), tracer)
    snap = tracer.snapshot()
    totals = span_totals(snap, tracer.names)
    counters = dict(snap["counters"])
    counters["cli.artifact_bytes"] = getattr(workload, "artifact_bytes", 0) - bytes_before
    counters["cases"] = tally.attempted - cases_before
    counters.update(workload.artifact_digests(state))
    return state, snap, totals, counters


def count_view(totals, counters) -> dict:
    """Every deterministic count of a pass: calls per span name plus counters."""
    view = {f"calls:{name}": t["calls"] for name, t in totals.items() if t["calls"]}
    view.update(counters)
    return dict(sorted(view.items()))


def layer_metrics(totals, counters) -> dict:
    def t(name, key="self_s"):
        return totals.get(name, {}).get(key, 0)

    def calls(name):
        return t(name, "calls")

    out = {
        "core.apply.calls": calls("core.apply"),
        "core.apply.self_s": t("core.apply"),
        "core.apply.bytes_computed": counters.get("core.apply.bytes_computed", 0),
        "core.as_vector.calls": calls("core.as_vector"),
        "core.as_vector.self_s": t("core.as_vector"),
        "core.opnorm.calls": calls("core.opnorm"),
        "core.opnorm.self_s": t("core.opnorm"),
        "core.opnorm.per_operator": calls("core.opnorm") / max(counters.get("core.opnorm.operators", 0), 1),
        "operators.build.calls": calls("operators.build"),
        "operators.build.self_s": t("operators.build"),
        "regularizers.prox.calls": calls("regularizers.prox"),
        "regularizers.prox.self_s": t("regularizers.prox"),
        "regularizers.membership.calls": calls("regularizers.membership"),
        "regularizers.membership.self_s": t("regularizers.membership") + t("regularizers.tv_fit"),
        "regularizers.membership.tv_fit.calls": calls("regularizers.tv_fit"),
        "regularizers.bregman.calls": calls("regularizers.bregman"),
        "regularizers.bregman.self_s": t("regularizers.bregman"),
        "regularizers.edge_norm.calls": calls("regularizers.edge_norm"),
        "regularizers.edge_norm.self_s": t("regularizers.edge_norm"),
    }
    for kind in ("cg", "fista", "pd"):
        iters = counters.get(f"solvers.{kind}.iters", 0)
        out[f"solvers.{kind}.calls"] = calls(f"solvers.{kind}")
        out[f"solvers.{kind}.iters"] = iters
        out[f"solvers.{kind}.self_s"] = t(f"solvers.{kind}")
        out[f"solvers.{kind}.ms_per_iter"] = 1000.0 * t(f"solvers.{kind}", "total_s") / max(iters, 1)
    out.update({
        "solvers.pd.factor_s": t("solvers.pd.factor", "total_s"),
        "solvers.pd.prox_s": t("solvers.pd.prox", "total_s"),
        "bregman_iteration.runs": calls("bregman_iteration.run"),
        "bregman_iteration.steps": counters.get("bregman_iteration.steps", 0),
        "bregman_iteration.inner_iters": counters.get("bregman_iteration.inner_iters", 0),
        "bregman_iteration.self_s": t("bregman_iteration.run"),
        "bregman_iteration.debias.calls": calls("bregman_iteration.debias"),
        "bregman_iteration.debias.apg_iters": counters.get("bregman_iteration.debias.apg_iters", 0),
        "bregman_iteration.debias.self_s": t("bregman_iteration.debias"),
        "estimates.instance.calls": calls("estimates.instance"),
        "estimates.instance.self_s": t("estimates.instance"),
        "estimates.instance.accept_ratio": counters.get("estimates.instance.built", 0)
        / max(counters.get("estimates.instance.draws", 0), 1),
        "estimates.check.calls": calls("estimates.check"),
        "estimates.check.self_s": t("estimates.check"),
        "estimates.study.self_s": t("estimates.study"),
        "risk.pair.calls": calls("risk.pair"),
        "risk.pair.self_s": t("risk.pair"),
        "risk.check.calls": calls("risk.check"),
        "risk.check.self_s": t("risk.check"),
        "cli.self_s": sum(t(f"cli.{c}") for c in CLI_COMMANDS),
        "cli.artifact_bytes": counters.get("cli.artifact_bytes", 0),
    })
    for c in CLI_COMMANDS:
        out[f"cli.{c}.s"] = t(f"cli.{c}", "total_s")
    return out


def trace(workload, seed: int, seconds: float, varreg) -> dict:
    import numpy as np
    from tracer import Tracer

    tracer = Tracer(varreg)
    tally = Tally()
    tracer.install()
    state, snap, totals, counters = _count_pass(workload, seed, tracer, tally)
    _, _, totals_b, counters_b = _count_pass(workload, seed, tracer, tally)
    counts_a, counts_b = count_view(totals, counters), count_view(totals_b, counters_b)
    reproduced = counts_a == counts_b
    metrics = layer_metrics(totals, counters)
    metrics["trace.count_pass_cases"] = counters["cases"]

    # tracing overhead: the same blocks, alternately untraced and traced, so
    # that drift in the machine's speed falls on both sides alike
    tracer.reset()
    spent = {False: [0.0, 0], True: [0.0, 0]}
    start = perf_counter()
    group = workload.mix_blocks
    for i, block in enumerate(workload.blocks(state)):
        on = (i // group) % 2 == 1
        if on:
            tracer.install()
        else:
            tracer.uninstall()
        seconds_used, certified = tally.run_block(block, tracer if on else None)
        spent[on][0] += seconds_used
        spent[on][1] += len(certified)
        done = i + 1
        if done % group == 0 and done >= 2 * group and \
                (perf_counter() - start) * (1 + group / done) > seconds:
            break
    tracer.uninstall()
    rate = {on: done / used for on, (used, done) in spent.items()}
    metrics["trace.cases_per_s_untraced"] = rate[False]
    metrics["trace.cases_per_s_traced"] = rate[True]
    metrics["trace.overhead"] = 1.0 - rate[True] / rate[False]

    RESULTS.mkdir(parents=True, exist_ok=True)
    np.savez(RESULTS / f"{workload.name}.spans.npz", names=np.array(tracer.names),
             **{k: v for k, v in snap.items() if k != "counters"})
    return {
        "tally": tally, "metrics": metrics, "counts": counts_a,
        "count_mismatch": {k: (counts_a.get(k), counts_b.get(k))
                           for k in set(counts_a) | set(counts_b) if counts_a.get(k) != counts_b.get(k)},
        "spans": {name: t for name, t in totals.items() if t["calls"]},
        "working_set": dict(zip(("bytes", "what"), workload.working_set(state))),
        "correct": tally.failed == 0 and reproduced,
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, seed, traced: bool, result: dict, env: dict):
    tally = result["tally"]
    print(f"== {workload.name}  seed={seed}  {'traced' if traced else 'untraced'} ==")
    if not traced:
        m, raw = result["metrics"], result["measured"]
        print(f"  (times at reference speed; as measured in brackets, host speed "
              f"{_fmt(raw['speed'])} of reference)")
        print(f"  {'setup_s':<28}{_fmt(m['setup_s'])} s  [{_fmt(raw['setup_s'])}]  "
              f"(median of {SETUP_REPEATS} imports + builds)")
        print(f"  {'cases_per_s':<28}{_fmt(m['cases_per_s'])} 1/s  [{_fmt(raw['cases_per_s'])}]")
        for cls, stats in result["classes"].items():
            n = f"(n={stats['cases']} cases, {stats['runs']} runs)"
            print(f"  {cls + '_p50_ms':<28}{_fmt(stats['p50_ms'])} ms  [{_fmt(stats['measured_p50_ms'])}]  {n}")
            if "p90_ms" in stats:
                print(f"  {cls + '_p90_ms':<28}{_fmt(stats['p90_ms'])} ms  [{_fmt(stats['measured_p90_ms'])}]  {n}")
            else:
                print(f"  {cls + '_p90_ms':<28}not reported: {stats['cases']} cases < {P90_MIN_CASES}")
        print(f"  {'primary_p50_ms':<28}= {workload.primary}_p50_ms")
        print(f"  {'secondary_p50_ms':<28}= {workload.secondary}_p50_ms")
        print(f"  {'peak_rss_mb':<28}{_fmt(m['peak_rss_mb'])} MB")
    else:
        for name, unit in PER_LAYER:
            value = result["metrics"][name]
            if value:
                print(f"  {name:<40}{_fmt(value)} {unit}")
        print("  (per-layer metrics not listed are 0 on this workload)")
        if result["count_mismatch"]:
            print(f"  COUNTS NOT REPRODUCED between the two count passes: {result['count_mismatch']}")
        recorded = json.loads(COUNTS.read_text()).get(workload.name, {}).get(str(seed)) \
            if COUNTS.exists() else None
        if recorded is not None:
            diff = {k: (recorded.get(k), result["counts"].get(k))
                    for k in sorted(set(recorded) | set(result["counts"]))
                    if recorded.get(k) != result["counts"].get(k)}
            print(f"  counts vs bench/counts.json: {'identical' if not diff else diff}")
    fail_ratio = tally.failed / max(tally.attempted, 1)
    print(f"  {'fail_ratio':<28}{_fmt(fail_ratio)}  ({tally.failed}/{tally.attempted})")
    for err in tally.errors:
        print(f"  failure: {err}")
    ws = result["working_set"]
    print(f"  working set: {ws['bytes'] / 1e6:.3g} MB ({ws['what']})")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"BLAS {env['blas']['name']} {env['blas']['version']} threads={env['blas']['threads']}, "
          f"nproc={env['nproc']}, cpu={env['cpu_model']}, caches={env['caches']}")


def run_all(args) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.rstrip("\n").splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1]).get("correct"):
            print(f"  {name}: FAILED (exit {proc.returncode})")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    src = ROOT / "src"
    if not (src / "varreg" / "__init__.py").is_file():
        print(f"error: varreg sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import varreg
    import varreg.cli  # noqa: F401  (the CLI is part of what a user imports)
    if Path(varreg.__file__).resolve().parent != (src / "varreg").resolve():
        print(f"error: imported varreg from {varreg.__file__}, not from {src}", file=sys.stderr)
        return 2

    from envinfo import environment
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](varreg, ROOT)
    env = environment()
    if args.trace:
        result = trace(workload, args.seed, args.seconds, varreg)
        metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in PER_LAYER}
    else:
        result = measure(workload, args.seed, args.seconds)
        metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in END_TO_END}
    tally = result["tally"]
    report(workload, args.seed, bool(args.trace), result, env)

    RESULTS.mkdir(parents=True, exist_ok=True)
    record = {k: v for k, v in result.items() if k != "tally"}
    record.update(workload=workload.name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  environment=env, attempted=tally.attempted, failed=tally.failed, errors=tally.errors)
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    print(json.dumps({"correct": bool(result["correct"]), "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
