"""Smoke test of the benchmark itself.

A tiny pass of every workload, untraced and traced, must print every
metric BENCHMARK.json names with its unit, and every correctness gate of
the workload must have run on every op that returned.  Run with
``python -m pytest perfbench``.
"""

import json
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
GATES = {"solve-ladder": {"rho_unit"},
         "filtration": {"curves_agree"},
         "queries": {"edit_matches_direct", "constant_matches_pole",
                     "verify_exit_0"},
         "oracle": {"exact_counts", "identity_passed"}}
COMMON = {"ops_per_s", "op_p50_ms", "op_tail_ms", "fail_ratio",
          "host_speed", "setup_wall_s", "pass_s"}
EXTRAS = {"solve-ladder": {"v300_s"},
          "filtration": {"curve_direct_s", "curve_incremental_s",
                         "curve_auto_s"},
          "queries": {"verify_s"},
          "oracle": {"paths_per_s"}}
GATE_LINE = re.compile(r"^gate (\S+) ops=(\d+) ran=(\d+) passed=(\d+)$")


def _run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(GATES))
def test_tiny_pass_emits_metrics_and_runs_gates(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))

    gates = {}
    for line in lines:
        match = GATE_LINE.match(line)
        if match:
            gates[match[1]] = tuple(int(g) for g in match.groups()[1:])
    assert set(gates) == GATES[workload]
    raised = sum(line.startswith("failed ") and ": raised " in line
                 for line in lines)
    assert sum(ops for ops, _, _ in gates.values()) == result["attempted"]
    assert sum(ops - ran for ops, ran, _ in gates.values()) == raised
    assert all(ran == passed for _, ran, passed in gates.values())
    assert result["failed"] == raised

    if workload == "solve-ladder":
        # spread(k=0) is a known NonConvergence input; it must stay a
        # failure of the program, counted and never dropped.
        assert (result["attempted"], result["failed"]) == (3, 1)
        assert "spread(k=0): raised NonConvergence" in proc.stdout

    printed = {line.split()[1] for line in lines if line.startswith("metric ")}
    if trace:
        assert any(line.startswith("trace untraced_pass_s=") for line in lines)
        assert result["metrics"]["graphio.generate_graph.self_s"]["value"] > 0
    else:
        assert COMMON | EXTRAS[workload] <= printed


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "oracle", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tracer_rebinds_every_name_and_restores():
    import tracer

    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")
    exec("def leaf(x):\n    return x + 1\n\n"
         "def outer(x):\n    return leaf(x) * 2\n", core.__dict__)
    user.leaf, pkg.outer = core.leaf, core.outer
    mods = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(mods)
    try:
        tr = tracer.Tracer("fakepkg")
        tr.op = ("pass", 0, "op")
        for _ in range(2):   # a second install reuses the wrappers
            tr.install()
            assert (user.leaf(1), pkg.outer(1)) == (2, 4)
            tr.uninstall()
    finally:
        for name in mods:
            sys.modules.pop(name)
    assert user.leaf is core.__dict__["leaf"]
    stats = tr.aggregate("pass")
    assert stats["core.leaf"]["calls"] == 4
    assert stats["core.outer"]["calls"] == 2
    assert stats["core.outer"]["child:leaf"] == 2
    assert sorted(tr.names) == ["core.leaf", "core.outer"]


def test_median_sum_takes_each_op_median(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import workloads

    def sample(name, seconds, speed):
        op = types.SimpleNamespace(name=name, kind=name)
        return types.SimpleNamespace(op=op, seconds=seconds,
                                     ref_seconds=seconds * speed)

    samples = [sample("a", 1.0, 0.5), sample("a", 9.0, 0.5),
               sample("a", 2.0, 0.5), sample("b", 4.0, 2.0)]
    assert workloads.median_sum(samples) == 1.0 + 8.0
    assert workloads.median_sum(samples, ref=False) == 2.0 + 4.0
    assert workloads.median_sum(samples, lambda op: op.name == "b") == 8.0


def test_missing_function_is_reported_absent():
    import run

    absent = []
    value = run._layer_value("incremental.check_factorization.calls", {}, {},
                             1, 0.0, {"spectral.spectral_radius"}, absent)
    assert value == 0
    assert absent == ["incremental.check_factorization"]
