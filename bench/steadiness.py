"""Steadiness check: run each workload on several seeds and tabulate spreads.

Usage (from the repository root):

    python3 bench/steadiness.py

Runs ``bench/run.py --trace 0`` once per workload and seed (seeds 0-9), one
run at a time, each for ``run_seconds`` from BENCHMARK.json.  For every
end-to-end metric it keeps the value of each seed, and reports the median and
the quartile spread (Q3 - Q1) / median, with the quartiles as
``statistics.quantiles(values, n=4)`` gives them.  The table goes to ``bench/steadiness.json``, so the
spreads in METRICS.md can be recomputed from it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT, WORKLOAD_NAMES
from envinfo import environment


SEEDS = range(10)


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    table = {}
    status = 0
    for name in WORKLOAD_NAMES:
        values: dict[str, list[float]] = {}
        for seed in SEEDS:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            last = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else {}
            if not last.get("correct"):
                print(f"{name} seed {seed}: FAILED (exit {proc.returncode})", file=sys.stderr)
                status = 1
                continue
            for metric, m in last["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            print(f"{name} seed {seed}: " + ", ".join(f"{k}={v['value']:.5g}" for k, v in last["metrics"].items()),
                  flush=True)
        table[name] = {}
        for metric, v in values.items():
            q = statistics.quantiles(v, n=4)
            med = statistics.median(v)
            table[name][metric] = {"median": med, "spread": (q[2] - q[0]) / med, "values": v}
            print(f"  {name} {metric}: median {med:.5g}, spread {(q[2] - q[0]) / med:.3f}")

    env = environment()
    record = {"seconds": seconds, "seeds": list(SEEDS),
              "environment": {k: env[k] for k in ("python", "numpy", "scipy", "nproc", "cpu_model", "caches")},
              "workloads": table}
    (BENCH / "steadiness.json").write_text(json.dumps(record, indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
