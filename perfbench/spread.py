"""Run-to-run spread of the benchmark over several seeds.

    python3 perfbench/spread.py --workload NAME --seeds 401-410 [--seconds S]

Runs ``run.py`` once per seed, one run at a time, with ``--trace 0`` and
the ``run_seconds`` of BENCHMARK.json unless ``--seconds`` is given.  For
every end-to-end metric it prints the median, the quartiles and the
quartile spread as a share of the median (``statistics.quantiles(values,
n=4)``), beside the metric's bound.  The last line is a JSON object with
the same numbers and the medians of the printed-only metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list[float]] = {}
    printed: dict[str, list[float]] = {}
    durations = []
    for seed in args.seeds:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        durations.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"seed {seed} exited {proc.returncode}: {proc.stderr}")
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            if line.startswith("metric "):
                _, name, value, _unit = line.split()
                printed.setdefault(name, []).append(float(value))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} {durations[-1]:.1f}s correct={result['correct']} "
              + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"workload": args.workload, "seconds": seconds,
               "seeds": args.seeds, "run_s_max": max(durations),
               "metrics": {},
               "printed_median": {k: statistics.median(v)
                                  for k, v in printed.items()}}
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / med
        summary["metrics"][name] = {"median": med, "q1": q1, "q3": q3,
                                    "spread": share, "bound": bounds[name]}
        print(f"{name} median={med:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={share:.4f} bound={bounds[name]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
