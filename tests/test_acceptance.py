"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible under ``pytest -s`` or
in the captured output on failure) and asserts the criterion at its
stated tolerance, including the runtime budget.
"""

import math
import random
import time

import numpy as np

from entrograph import (EnumerationSpec, PathKind, add_edge, add_vertex, backtracking_bound,
                        check_symmetry, entropy_after_edge,
                        entropy_after_vertex, entropy_from_counts,
                        enumerate_paths, estimate_constant_C,
                        fit_edge_asymptotic, generate_graph, growth_bounds,
                        horizon_for_budget, laplace_check,
                        persistent_entropy, reduce, rho_curve,
                        verify_recursions, volume_entropy)
from entrograph.cli import main as cli_main
from entrograph.graphio import serialize_json
from helpers import (c4, complete4, dumbbell, nonadjacent_pair, rose,
                     theta)


def _report(number, ok, detail):
    line = f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_entropies():
    cases = [(rose(2), math.log(3)), (rose(3), math.log(5)),
             (rose(4), math.log(7)), (theta(), math.log(2)),
             (complete4(), math.log(2))]
    worst = 0.0
    slowest = 0.0
    for graph, expected in cases:
        t0 = time.perf_counter()
        h = volume_entropy(graph).h
        slowest = max(slowest, time.perf_counter() - t0)
        worst = max(worst, abs(h - expected))
    ok = worst <= 1e-9 and slowest < 1.0
    _report(1, ok, f"rose-2/3/4, theta, K4 max error {worst:.2e} "
                   f"(tol 1e-9), slowest solve {slowest * 1e3:.0f} ms")


def test_criterion_02_oracle_agreement():
    t0 = time.perf_counter()
    worst_gap, worst_band = 0.0, 0.0
    for seed in range(1, 11):
        nv = 4 + seed % 3
        ne = nv + 2 + seed % 2  # first Betti number >= 2
        graph = generate_graph(seed, nv, ne)
        h = volume_entropy(graph).h
        x = min(graph.vertices)
        r = horizon_for_budget(graph, x, 700_000)
        profile = enumerate_paths(graph, EnumerationSpec(
            PathKind.PATHS_FROM, r, x=x, cap=10_000_000))
        est = entropy_from_counts(profile, (0.72 * r, r))
        worst_gap = max(worst_gap, abs(est.h_hat - h) / est.band)
        worst_band = max(worst_band, est.band / h)
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1.0 and worst_band <= 0.05 and elapsed < 120.0
    _report(2, ok, f"10 seeded graphs: max |h_hat - h|/band {worst_gap:.2f},"
                   f" max band {worst_band * 100:.1f}% of h (cap 5%), "
                   f"{elapsed:.0f} s")


def test_criterion_03_edge_addition_cross_check():
    t0 = time.perf_counter()
    res = entropy_after_edge(c4(), "a", "c", 1.0)
    roots = np.roots([2.0, 1.0, 2.0, 0.0, 0.0, -1.0])
    u = next(r.real for r in roots
             if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0)
    worst = abs(res.h_prime + math.log(u))
    worst = max(worst, abs(
        res.h_prime - volume_entropy(add_edge(c4(), "a", "c", 1.0)).h))
    for seed in range(1, 11):
        graph = generate_graph(seed, 6, 9)
        x, y = nonadjacent_pair(graph)
        l0 = 1.0 + 0.4 * (seed % 3)
        inc = entropy_after_edge(graph, x, y, l0)
        direct = volume_entropy(add_edge(graph, x, y, l0)).h
        worst = max(worst, abs(inc.h_prime - direct))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    _report(3, ok, f"C4+chord (h' ~ 0.4196) and 10 seeded instances: "
                   f"max |incremental - direct| {worst:.2e} (tol 1e-8), "
                   f"{elapsed:.1f} s")


def test_criterion_04_vertex_addition_variants():
    t0 = time.perf_counter()
    gaps = []
    for seed in range(1, 11):
        graph = generate_graph(seed, 6, 9)
        n = 3 + seed % 2
        rng = random.Random(seed)
        att = [(v, rng.uniform(0.8, 1.8))
               for v in sorted(graph.vertex_set)[:n]]
        direct = volume_entropy(add_vertex(graph, att)).h
        inc = entropy_after_vertex(graph, att)
        gaps.append(abs(inc.h_prime - direct))
    elapsed = time.perf_counter() - t0
    ok = max(gaps) <= 1e-8 and len(gaps) == 10 and elapsed < 60.0
    _report(4, ok, f"{len(gaps)} seeded instances: max |incremental - "
                   f"direct| {max(gaps):.2e} (tol 1e-8), {elapsed:.0f} s")


def test_criterion_05_edge_asymptotics():
    t0 = time.perf_counter()
    base = dumbbell()  # loop ratio is the golden ratio: Diophantine
    h = volume_entropy(base).h
    fit = fit_edge_asymptotic(base, "a", "b", [5.0, 8.0, 12.0, 16.0, 20.0])
    a_vals = [obs * math.exp(h * l) for l, obs, _ in fit.samples]
    diffs = [abs(b - a) for a, b in zip(a_vals, a_vals[1:])]
    decreasing = all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
    last_two = abs(a_vals[-1] - a_vals[-2]) / abs(a_vals[-1])
    est = estimate_constant_C(base, "a", "b")
    c_gap = abs(fit.c - est.combined) / est.combined
    elapsed = time.perf_counter() - t0
    ok = decreasing and last_two < 0.10 and c_gap <= 0.15 and elapsed < 60.0
    _report(5, ok, f"(h'-h)e^(hl) sweep: diffs decreasing={decreasing}, "
                   f"last-two gap {last_two * 100:.2f}% (<10%), limit vs "
                   f"(sqrt(Cxx Cyy)+Cxy)h gap {c_gap * 100:.1f}% (<=15%), "
                   f"{elapsed:.0f} s")


def test_criterion_06_laplace_identity():
    t0 = time.perf_counter()
    suite = [(rose(2), "v"), (rose(3), "v"), (theta(), "x"),
             (complete4(), "a"), (dumbbell(), "a")]
    checked, all_pass = 0, True
    for graph, x in suite:
        h = volume_entropy(graph).h
        r = horizon_for_budget(graph, x, 2_000_000)
        profile = enumerate_paths(graph, EnumerationSpec(
            PathKind.PATHS_FROM, r, x=x))
        for t in np.arange(h + 0.2, h + 2.0 + 1e-9, 0.2):
            rep = laplace_check(profile, graph, float(t))
            all_pass = all_pass and rep.passed
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = all_pass and checked == 50 and elapsed < 60.0
    _report(6, ok, f"f inside truncated-integral + tail bracket at "
                   f"{checked} grid points over 5 graphs, {elapsed:.0f} s")


def test_criterion_07_count_recursions():
    t0 = time.perf_counter()
    suite = [(rose(2), "v", 11.0), (theta(), "x", 14.0),
             (complete4(), "a", 14.0), (dumbbell(), "a", 16.0),
             (add_edge(c4(), "a", "c", 1.0), "a", 16.0)]
    all_pass, grids = True, []
    for graph, v, r_max in suite:
        rep = verify_recursions(graph, v, r_max=r_max)
        all_pass = all_pass and rep.passed
        grids.append(len(rep.r_grid))
    elapsed = time.perf_counter() - t0
    ok = all_pass and all(g == 20 for g in grids) and elapsed < 60.0
    _report(7, ok, f"backtracking and non-backtracking recursions exact at "
                   f"{grids} radii per graph, {elapsed:.0f} s")


def _lopsided_path():
    # e^{-h l1} > 2/3 here, so the 3 e^{-h l1} branch of the constant wins
    from entrograph import MetricGraph
    return MetricGraph.from_edges(["x", "y", "z"],
                                  [("x", "y", 1.0), ("y", "z", 5.0)])


def test_criterion_08_growth_bounds():
    t0 = time.perf_counter()
    suite = [(rose(2), "v", 13.0), (rose(3), "v", 9.0), (theta(), "x", 20.0),
             (complete4(), "a", 20.0),
             (theta((1.0, 1.3, 1.7)), "x", 28.0)]
    worst_rho, violations = 0.0, 0
    for graph, v, r_max in suite:
        rep = growth_bounds(graph, v, r_max)
        worst_rho = max(worst_rho, abs(rep.rho_a - 1.0))
        violations += len(rep.violations)
    bt_suite = [(theta(), "x", 14.0), (_lopsided_path(), "x", 100.0)]
    for graph, v, r_max in bt_suite:
        rep = backtracking_bound(graph, v, r_max)
        violations += len(rep.violations)
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and worst_rho <= 1e-8 and elapsed < 120.0
    _report(8, ok, f"N_v(r) <= (n-1)/(n-2)(sum w/min w)e^(hr) with zero "
                   f"violations; max |rho(A(h)) - 1| = {worst_rho:.2e} "
                   f"(tol 1e-8); backtracking M = max(2, 3e^(-h l1)) "
                   f"verified, {elapsed:.0f} s")


def test_criterion_09_persistence_strategy_independence(tmp_path, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(1, 11):
        graph = generate_graph(seed, 5, 9)
        curves = {name: persistent_entropy(graph, strategy=name)
                  for name in ("direct", "incremental", "auto")}
        hs = {k: [s.h for s in c.steps] for k, c in curves.items()}
        assert hs["direct"] == sorted(hs["direct"])
        for name in ("incremental", "auto"):
            worst = max(worst, max(abs(a - b) for a, b in
                                   zip(hs["direct"], hs[name])))
    bench_file = tmp_path / "bench.json"
    bench_file.write_text(serialize_json(generate_graph(1, 6, 11)))
    code = cli_main(["persistence", str(bench_file), "--bench",
                     "--out", str(tmp_path / "bench.csv")])
    bench_text = (tmp_path / "bench.csv").read_text()
    has_crossover = code == 0 and "crossover," in bench_text \
        and "bench,direct," in bench_text
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-7 and has_crossover and elapsed < 120.0
    _report(9, ok, f"direct/incremental/auto curves agree within "
                   f"{worst:.2e} (tol 1e-7) on 10 filtrations, monotone; "
                   f"--bench crossover report written, {elapsed:.0f} s")


def test_criterion_10_invariant_suite():
    t0 = time.perf_counter()
    suite = [complete4(), dumbbell(), theta((1.0, 1.4, 2.2)),
             generate_graph(3, 5, 8)]
    sym_worst = 0.0
    for graph in suite:
        h = volume_entropy(graph).h
        a, b = sorted(graph.vertex_set)[:2]
        sym_worst = max(sym_worst, check_symmetry(graph, a, b, h + 0.5))
    mono_ok, convex_ok = True, True
    for graph in suite:
        (t1, r1), (tm, rm), (t2, r2) = rho_curve(
            reduce(graph).graph, [0.3, 0.9, 1.5])
        mono_ok = mono_ok and r1 > rm > r2
        convex_ok = convex_ok and \
            math.log(rm) <= 0.5 * (math.log(r1) + math.log(r2)) + 1e-9
    scale_worst = 0.0
    base = dumbbell()
    h = volume_entropy(base).h
    from entrograph import MetricGraph
    for s in (0.5, 2.0, 3.7):
        scaled = MetricGraph.from_edges(
            base.vertices, [(u, v, s * l) for u, v, l in base.edge_list()])
        scale_worst = max(scale_worst,
                          abs(volume_entropy(scaled).h * s - h))
    reduce_worst = 0.0
    for graph in suite:
        reduce_worst = max(reduce_worst, abs(
            volume_entropy(graph).h - volume_entropy(reduce(graph).graph).h))
    elapsed = time.perf_counter() - t0
    ok = (sym_worst <= 1e-10 and mono_ok and convex_ok
          and scale_worst <= 1e-9 and reduce_worst <= 2e-10
          and elapsed < 60.0)
    _report(10, ok, f"|f_xy - f_yx| <= {sym_worst:.1e} (tol 1e-10), rho "
                    f"monotone+log-convex, scaling covariance within "
                    f"{scale_worst:.1e}, reduction invariance within "
                    f"{reduce_worst:.1e}, {elapsed:.0f} s")
