"""Seeded benchmark of entrograph: one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports ``entrograph`` from
``src/`` of that checkout and exits non-zero, printing no result, when
there is none.  It first re-executes itself with a pinned environment:
one BLAS thread, a fixed hash seed, no ``ENTROGRAPH_THREADS`` and no
bytecode writes.  Ops run one at a time in a closed loop, in whole passes
over the workload's fixed op list; the seed fixes the op order of each
pass.  The number of passes is what fits in ``--seconds`` at the
workload's nominal pass time, at least three, so every run of a workload
does the same work.  Times are the median latency of each op over the
passes, summed over the ops of a pass: a burst of load on the shared
host slows a few samples, not the result.  A reference kernel timed
right before and after every op gives the host's speed at that moment
(``calibrate.py``); the gated times are scaled by it to the reference
host, so a slow stretch of the shared host does not read as a slow
program.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` splits the passes into an untraced and a traced half, and
reports the per-layer metrics of BENCHMARK.json from the traced passes
(set-up functions from one traced set-up) together with the tracing
overhead.
Human-readable lines come first; the last line of standard output is the
JSON result.  Full reports and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
              "PYTHONDONTWRITEBYTECODE": "1"}
UNSET_ENV = ("ENTROGRAPH_THREADS",)
SETUP_REPS = 3
IMPORT_REPS = 3      # fresh interpreters timed for the import share
MIN_PASSES = 3


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("solve-ladder", "filtration", "queries",
                                 "oracle"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and one pass (smoke test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def _pin_environment() -> None:
    """Re-execute under the pinned environment; the start time travels in
    PERFBENCH_T0 so set-up time counts from the first start."""
    if "PERFBENCH_T0" in os.environ:
        return
    env = {k: v for k, v in os.environ.items() if k not in UNSET_ENV}
    env.update(PINNED_ENV)
    env["PERFBENCH_T0"] = repr(T_START)
    os.execve(sys.executable,
              [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:],
              env)


def _import_program():
    if not (SRC / "entrograph" / "__init__.py").is_file():
        sys.exit(f"perfbench: no entrograph sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import entrograph
    if Path(entrograph.__file__).resolve().parent != SRC / "entrograph":
        sys.exit(f"perfbench: imported {entrograph.__file__}, not {SRC}")


def _metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["end_to_end"], doc["per_layer"]


class Sample:
    __slots__ = ("op", "seconds", "speed", "result", "error", "verdict")

    def __init__(self, op, seconds, speed, result, error):
        self.op, self.seconds, self.speed = op, seconds, speed
        if op.digest is not None and error is None:
            result = op.digest(result)
        self.result, self.error = result, error
        self.verdict = None      # None: passed its gate

    @property
    def ref_seconds(self) -> float:
        """The latency on the reference host."""
        return self.seconds * self.speed


def _run_pass(order, pass_idx, tracer=None):
    import calibrate
    samples = []
    clock = time.perf_counter
    for op in order:
        if tracer is not None:
            tracer.op = ("pass", pass_idx, op.name)
        gc.collect()   # no op pays for its predecessor's garbage
        loops = calibrate.kernel_seconds()
        start = clock()
        try:
            result, error = op.run(), None
        except Exception as exc:   # an op failure is data, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock() - start
        loops += calibrate.kernel_seconds()
        samples.append(Sample(op, elapsed, calibrate.speed(loops),
                              result, error))
    if tracer is not None:
        tracer.op = None
    return samples


def _gate_pass(samples) -> None:
    """Outside the timed region: every op that raised or fails its gate
    gets a verdict."""
    results = {s.op.name: s.result for s in samples if s.error is None}
    for s in samples:
        if s.error is not None:
            s.verdict = "raised " + s.error
            continue
        try:
            s.verdict = s.op.gate(s.result, results)
        except Exception as exc:
            s.verdict = f"gate raised {type(exc).__name__}: {exc}"


def _run_passes(orders, tracer=None):
    """Run the passes; return the samples and the peak RSS after the last
    pass.  Only the ops are timed, not collection, digests or gates."""
    samples, rss_mb = [], 0.0
    for idx, order in enumerate(orders):
        if tracer is not None:
            tracer.install()
        try:
            pass_samples = _run_pass(order, idx, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rss_mb = _peak_rss_mb()
        _gate_pass(pass_samples)
        samples += pass_samples
    return samples, rss_mb


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail(latencies):
    """Latency at the highest percentile with at least ten samples above
    it; the maximum when that percentile would not lie above the median
    (22 samples or fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11 if n > 22 else n - 1
    return ordered[idx], 100.0 * (idx + 1) / n, n - 1 - idx


def main() -> int:
    args = _parse_args(sys.argv[1:])
    _pin_environment()
    t_first = float(os.environ["PERFBENCH_T0"])
    _import_program()
    import random
    import shutil
    import statistics

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import calibrate
    import tracer as tracing
    import workloads

    e2e_specs, layer_specs = _metric_specs()
    first_import_s = time.perf_counter() - t_first

    def measure(fn):
        """Wall time of ``fn()``, that time on the reference host, and the
        value of ``fn()``."""
        loops = calibrate.kernel_seconds()
        t0 = time.perf_counter()
        value = fn()
        wall = time.perf_counter() - t0
        loops += calibrate.kernel_seconds()
        return wall, wall * calibrate.speed(loops), value

    # The import share of set-up: a fresh pinned interpreter that imports
    # the package, several times; the first import of this process is a
    # single sample and is only printed.
    fresh = [sys.executable, "-c", "import entrograph, entrograph.cli"]
    fresh_env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = [measure(lambda: subprocess.run(fresh, env=fresh_env,
                                            check=True))
               for _ in range(IMPORT_REPS)]
    out_dir = ROOT / ".perfbench_out"
    work_dir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    out_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        def make_inputs():
            if tracer is not None:
                tracer.op = ("setup",)
                tracer.install()
            try:
                made = workloads.WORKLOADS[args.workload](args.tiny,
                                                          str(work_dir))
                workloads.warm_up()
            finally:
                if tracer is not None:
                    tracer.uninstall()
                    tracer.op = None
            return made

        inputs = [measure(make_inputs)
                  for _ in range(1 if args.trace else SETUP_REPS)]
        wl = inputs[-1][2]
        setup_wall_s, setup_s = (
            statistics.median(t[k] for t in imports)
            + statistics.median(t[k] for t in inputs) for k in (0, 1))

        # A traced run splits its time between untraced and traced passes.
        fit = round((args.seconds - wl.nominal_once_s)
                    / wl.nominal_pass_s / (1 + args.trace))
        passes = 1 if args.tiny else max(fit, 1 if args.trace else MIN_PASSES)
        rng = random.Random(args.seed)
        orders = [rng.sample(wl.ops, len(wl.ops)) for _ in range(passes)]
        once, _ = _run_passes([wl.once])
        timed, rss_mb = _run_passes(orders)
        samples = once + timed
        if tracer is not None:
            traced, _ = _run_passes(orders, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            work_dir.parent.rmdir()
        except OSError:
            pass

    def emit(name, value, unit):
        print(f"metric {name} {value!r} {unit}")

    attempted = len(samples)
    failed = sum(s.verdict is not None for s in samples)
    raised = sum(s.error is not None for s in samples)
    wrong = failed - raised
    lat = [s.seconds for s in samples]
    tail, tail_pct, beyond = _tail(lat)
    pass_s = workloads.median_sum(timed)
    pass_wall_s = workloads.median_sum(timed, ref=False)
    # A pass of median ops: each op weighs by the share of its samples
    # that passed, and a failed op still counts in the time.
    by_op: dict[str, list[bool]] = {}
    for s in timed:
        by_op.setdefault(s.op.name, []).append(s.verdict is None)
    ok_per_pass = sum(sum(v) / len(v) for v in by_op.values())
    # End-to-end metrics: those BENCHMARK.json lists go into the result
    # line, the rest are printed only.
    measured = {
        "ops_per_s_ref": (ok_per_pass / pass_s, "1/s"),
        "ops_per_s": (ok_per_pass / pass_wall_s, "1/s"),
        "host_speed": (statistics.median(s.speed for s in samples), "1"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "op_tail_pct": (tail_pct, "%"),
        "op_tail_beyond": (beyond, "count"),
        "samples": (attempted, "count"),
        "fail_ratio": (failed / attempted, "1"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
        "setup_wall_s": (setup_wall_s, "s"),
        "first_import_s": (first_import_s, "s"),
        "pass_s": (pass_s, "s"),
    }
    measured.update(wl.extras(samples))

    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace} passes={passes} "
          f"ops/pass={len(wl.ops)}")
    print("# environment " + " ".join(f"{k}={v}" for k, v in
                                      sorted(PINNED_ENV.items()))
          + " " + " ".join(f"{k}=<unset>" for k in UNSET_ENV))
    gates: dict[str, list[int]] = {}
    for s in samples:
        ran_ok = gates.setdefault(s.op.gate_name, [0, 0, 0])
        ran_ok[0] += 1
        if s.error is None:
            ran_ok[1] += 1
            ran_ok[2] += s.verdict is None
    for name, (ops, ran, ok) in sorted(gates.items()):
        print(f"gate {name} ops={ops} ran={ran} passed={ok}")
    for s in samples:
        if s.verdict is not None:
            print(f"failed {s.op.name}: {s.verdict}")
    print(f"ops attempted={attempted} failed={failed} raised={raised} "
          f"wrong={wrong}")

    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "passes": passes,
              "environment": PINNED_ENV, "gates": gates,
              "failures": [[s.op.name, s.verdict] for s in samples
                           if s.verdict is not None],
              "latency_ms": {s.op.name: [] for s in samples},
              "ref_latency_ms": {s.op.name: [] for s in samples}}
    for s in samples:
        report["latency_ms"][s.op.name].append(s.seconds * 1e3)
        report["ref_latency_ms"][s.op.name].append(s.ref_seconds * 1e3)

    if tracer is None:
        metrics = {}
        for spec in e2e_specs:
            value, unit = measured[spec["name"]]
            if unit != spec["unit"]:
                sys.exit(f"perfbench: {spec['name']} is measured in {unit}")
            metrics[spec["name"]] = {"value": value, "unit": unit}
        for name, (value, unit) in measured.items():
            emit(name, value, unit)
        report["extras"] = {k: v[0] for k, v in measured.items()}
    else:
        per_pass = tracer.aggregate("pass")
        setup = tracer.aggregate("setup")
        t_pass_s = workloads.median_sum(traced)
        overhead = t_pass_s - pass_s
        metrics, absent = {}, []
        wrapped = set(tracer.names)
        for spec in layer_specs:
            value = _layer_value(spec["name"], per_pass, setup, passes,
                                 overhead, wrapped, absent)
            metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
            emit(spec["name"], value, spec["unit"])
        for fn in sorted(set(absent)):
            print(f"absent {fn}")
        print(f"trace untraced_pass_s={pass_s!r} "
              f"traced_pass_s={t_pass_s!r}")
        _print_table("pass", per_pass, passes)
        _print_table("setup", setup, 1)
        report["per_function_pass"] = per_pass
        report["per_function_setup"] = setup
        report["absent"] = sorted(set(absent))
        tracer.dump(str(out_dir / f"spans-{args.workload}-seed{args.seed}"
                                   f".json"))
    report["metrics"] = metrics
    with open(out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
                        f".json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


# Per-layer names of BENCHMARK.json that are not <function>.<tracer key>.
_NAMED = {"persistence.steps": ("persistence.persistent_entropy", "steps"),
          "persistence.steps_incremental": ("persistence.persistent_entropy",
                                            "steps_incremental"),
          "counting.horizon_too_large": ("counting.enumerate_paths",
                                         "error:HorizonTooLarge")}
_STAT_KEYS = {"fail": "error:NonConvergence",
              "radius_calls": "child:spectral_radius"}
_SETUP_FUNCTIONS = {"graphio.generate_graph"}


def _layer_value(name, per_pass, setup, passes, overhead, wrapped, absent):
    """One per-layer metric: per pass, or per set-up for set-up functions.
    A function the tracer never wrapped is added to ``absent``."""
    if name == "trace_overhead_s":
        return overhead
    if name == "persistence.rebuilds_per_step":
        args = (per_pass, setup, passes, overhead, wrapped, absent)
        steps = _layer_value("persistence.steps", *args)
        return _layer_value("persistence.filter_at.calls", *args) / steps \
            if steps else 0.0
    if name in _NAMED:
        fn, key = _NAMED[name]
    else:
        fn, stat = name.rsplit(".", 1)
        key = _STAT_KEYS.get(stat, stat)
    stats, count = (setup, 1) if fn in _SETUP_FUNCTIONS else (per_pass, passes)
    if fn not in wrapped:
        absent.append(fn)
    return stats.get(fn, {}).get(key, 0) / count


def _print_table(phase, stats, passes):
    total = sum(st["self_s"] for st in stats.values()) or 1.0
    print(f"# {phase} spans per {phase}: function calls self_s share")
    for fn, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        if st["calls"]:
            print(f"span {phase} {fn} {st['calls'] / passes:g} "
                  f"{st['self_s'] / passes:.6f} "
                  f"{100.0 * st['self_s'] / total:.1f}%")


if __name__ == "__main__":
    sys.exit(main())
