"""Volume entropy solver and count-based estimation."""

import math

import pytest

from entrograph import (EnumerationSpec, InsufficientData, MetricGraph,
                        NonConvergence, PathKind, TransferMode,
                        ValidationFailed, build_transfer, entropy_from_counts,
                        enumerate_paths, generate_graph, reduce, rho_curve,
                        volume_entropy)
from entrograph import entropy
from entrograph.graph import Dart
from helpers import (c4, complete4, dumbbell, eig_rho, path3, rose,
                     scalar_entropy_from_counts, theta)


def test_rose_closed_forms():
    for k in (2, 3, 4):
        res = volume_entropy(rose(k))
        assert res.h == pytest.approx(math.log(2 * k - 1), abs=1e-9)
        assert res.residual <= 1e-10
        lo, hi = res.bracket
        assert lo <= res.h <= hi


def test_theta_and_k4():
    assert volume_entropy(theta()).h == pytest.approx(math.log(2), abs=1e-9)
    assert volume_entropy(complete4()).h == pytest.approx(math.log(2),
                                                          abs=1e-9)


def test_tree_entropy_exactly_zero():
    res = volume_entropy(path3())
    assert res.h == 0.0
    assert res.per_component == (("x", 0.0),)


def test_single_cycle_exactly_zero():
    assert volume_entropy(c4()).h == 0.0


def test_disconnected_max_over_components():
    g = MetricGraph.from_edges(
        ["v", "a", "b", "c", "d"],
        [("v", "v", 1.0), ("v", "v", 1.0),
         ("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0)])
    res = volume_entropy(g)
    assert res.h == pytest.approx(math.log(3), abs=1e-9)
    per = dict(res.per_component)
    assert per["a"] == 0.0
    assert per["v"] == pytest.approx(math.log(3), abs=1e-9)


def test_rejects_invalid_graph():
    bad = MetricGraph(("x", "y"), (
        Dart(0, "x", "y", 1.0, 0), Dart(1, "y", "x", 1.0, 1)))
    with pytest.raises(ValidationFailed):
        volume_entropy(bad)


def test_unique_sign_change_around_root():
    for g in (complete4(), dumbbell(), theta((1.0, 1.3, 2.1))):
        res = volume_entropy(g)
        delta = 10 * 1e-10
        below = rho_curve(reduce(g).graph, [res.h - delta, res.h + delta])
        assert below[0][1] > 1.0 > below[1][1]


def test_scaling_covariance():
    base = dumbbell()
    h = volume_entropy(base).h
    for s in (0.5, 2.0, 3.7):
        scaled = MetricGraph.from_edges(
            base.vertices, [(u, v, s * l) for u, v, l in base.edge_list()])
        hs = volume_entropy(scaled).h
        assert hs * s == pytest.approx(h, abs=1e-9)


def test_reduction_invariance():
    g = MetricGraph.from_edges(
        ["a", "b", "c", "d", "leaf"],
        [("a", "b", 1.0), ("b", "c", 0.8), ("c", "a", 1.2),
         ("a", "c", 0.6), ("c", "d", 1.0), ("d", "a", 1.0),
         ("b", "leaf", 2.0)])
    h1 = volume_entropy(g).h
    h2 = volume_entropy(reduce(g).graph).h
    assert h1 == pytest.approx(h2, abs=2e-10)


def test_warm_start_hint_gives_same_answer():
    g = complete4()
    cold = volume_entropy(g).h
    warm = volume_entropy(g, bracket_hint=0.5).h
    assert warm == pytest.approx(cold, abs=1e-10)
    # a hint above the root is rejected, not trusted
    over = volume_entropy(g, bracket_hint=2.0).h
    assert over == pytest.approx(cold, abs=1e-10)


def test_warm_start_evaluates_each_t_once(monkeypatch):
    # rho at the hint is the lower end of the solve, not evaluated again,
    # and the Newton steps go up from it: log(k) / l_min is never reached
    seen = []
    eval_rho = entropy._RhoRootProblem.eval

    def recording(self, t):
        seen.append(t)
        return eval_rho(self, t)

    monkeypatch.setattr(entropy._RhoRootProblem, "eval", recording)
    g = generate_graph(1, 8, 16)
    h = volume_entropy(g).h
    for hint in (0.5 * h, 0.9 * h, h - 1e-3):
        seen.clear()
        assert volume_entropy(g, bracket_hint=hint).h == \
            pytest.approx(h, abs=1e-10)
        assert seen[0] == hint
        assert len(seen) == len(set(seen))
        assert max(seen) < h + 1e-6


@pytest.mark.parametrize("mode", [TransferMode.NON_BACKTRACKING])
def test_newton_slope_matches_finite_difference(mode):
    # the slope's left vector is e^{-t l} r[rev], not a second iteration;
    # the backtracking root has no Newton step (counting._backtracking_root)
    def log_rho(g, t):
        return math.log(eig_rho(build_transfer(g, t, mode).matrix))

    for g in (complete4(), dumbbell(), theta((1.0, 1.4, 2.2)),
              generate_graph(1, 8, 16)):
        problem = entropy._RhoRootProblem(g, 1e-10, 10_000)
        for t in (0.3, 0.9):
            d = 1e-5
            fd = (log_rho(g, t + d) - log_rho(g, t - d)) / (2.0 * d)
            assert problem.eval(t)[1] == pytest.approx(fd, rel=1e-7)


def test_cold_solve_never_evaluates_t0(monkeypatch):
    # rho(B(0)) > 1 on a hyperbolic core, so t = 0 is a known lower end
    seen = []
    eval_rho = entropy._RhoRootProblem.eval

    def recording(self, t):
        seen.append(t)
        return eval_rho(self, t)

    monkeypatch.setattr(entropy._RhoRootProblem, "eval", recording)
    for g in (rose(2), complete4(), dumbbell(), generate_graph(1, 8, 16)):
        seen.clear()
        res = volume_entropy(g)
        assert seen and 0.0 not in seen
        assert res.iterations == len(seen)


def test_nonconvergence_carries_t_and_component():
    g = generate_graph(1, 10, 20)
    core = reduce(g).graph
    t_hi0 = math.log(core.max_degree() - 1) / core.min_length()
    with pytest.raises(NonConvergence) as info:
        volume_entropy(g, max_iter=5)
    assert info.value.t == t_hi0
    assert info.value.component == "v0"
    assert info.value.threshold is None


def test_wide_ladder_graph_solves_to_unit_radius():
    # The left power iteration of the earlier solver did not converge here.
    g = generate_graph(2, 100, 200)
    h = volume_entropy(g).h
    assert eig_rho(build_transfer(g, h).matrix) == pytest.approx(1.0,
                                                                 abs=1e-8)


def test_rho_curve_closed_forms():
    samples = rho_curve(rose(2), [0.0, math.log(3), 2 * math.log(3)])
    values = [rho for _, rho in samples]
    assert values[0] == pytest.approx(3.0, abs=1e-10)
    assert values[1] == pytest.approx(1.0, abs=1e-10)
    assert values[2] == pytest.approx(1.0 / 3.0, abs=1e-10)
    assert all(rho == 0.0 for _, rho in rho_curve(path3(), [0.0, 1.0, 2.0]))
    assert rho_curve(complete4(), [math.log(2)])[0][1] == pytest.approx(
        1.0, abs=1e-10)


def test_rho_curve_short_edge_far_above_entropy():
    # rho/||B|| is ~1e-15 here, where a power iteration does not converge;
    # a 60-digit mpmath.eig of the same matrix gives 8.88178419700124887e-16
    t = math.log(2) / 0.01
    assert rho_curve(theta((1.0, 1.0, 0.01)), [t])[0][1] == pytest.approx(
        8.88178419700124887e-16, rel=1e-12)


def test_entropy_from_counts_rose2():
    prof = enumerate_paths(rose(2), EnumerationSpec(
        PathKind.PATHS_FROM, 14.0, x="v"))
    est = entropy_from_counts(prof, (7.0, 14.0))
    assert abs(est.h_hat - math.log(3)) <= 0.05 * math.log(3)
    assert abs(est.h_hat - math.log(3)) <= est.band


def test_entropy_from_counts_single_cycle_slope_vanishes():
    prof = enumerate_paths(c4(), EnumerationSpec(
        PathKind.PATHS_FROM, 40.0, x="a"))
    est = entropy_from_counts(prof, (20.0, 40.0))
    assert est.h_hat <= math.log(40.0) / 40.0


@pytest.mark.parametrize("graph,x,mode,r_max", [
    (rose(2), "v", TransferMode.NON_BACKTRACKING, 12.0),
    (c4(), "a", TransferMode.NON_BACKTRACKING, 40.0),
    (path3(1.0, 1.7), "y", TransferMode.BACKTRACKING, 20.0),
    (generate_graph(11, 5, 8), "v0", TransferMode.NON_BACKTRACKING, 9.0),
    (generate_graph(2, 6, 10), "v1", TransferMode.BACKTRACKING, 6.0)],
    ids=["rose2", "c4", "path3-bt", "gen-11-5-8", "gen-2-6-10-bt"])
def test_entropy_from_counts_matches_scalar_reference(graph, x, mode, r_max):
    prof = enumerate_paths(graph, EnumerationSpec(PathKind.PATHS_FROM, r_max,
                                                  mode, x=x))
    for window in ((0.5 * r_max, r_max), (0.3 * r_max, 0.9 * r_max)):
        est = entropy_from_counts(prof, window)
        slope, band, samples = scalar_entropy_from_counts(prof, window)
        assert est.n_samples == samples
        assert math.isclose(est.h_hat, slope, rel_tol=1e-12)
        assert math.isclose(est.band, band, rel_tol=1e-12)


def test_entropy_from_counts_window_errors():
    prof = enumerate_paths(rose(2), EnumerationSpec(
        PathKind.PATHS_FROM, 6.0, x="v"))
    with pytest.raises(InsufficientData):
        entropy_from_counts(prof, (3.0, 9.0))  # wider than horizon
    with pytest.raises(InsufficientData):
        entropy_from_counts(prof, (4.2, 4.8))  # under 4 samples


def test_solver_matches_oracle_on_seeded_graph():
    g = generate_graph(11, 5, 8)
    h = volume_entropy(g).h
    from entrograph import horizon_for_budget
    x = min(g.vertices)
    r = horizon_for_budget(g, x, 300_000)
    prof = enumerate_paths(g, EnumerationSpec(PathKind.PATHS_FROM, r, x=x))
    est = entropy_from_counts(prof, (0.72 * r, r))
    assert abs(est.h_hat - h) <= est.band
