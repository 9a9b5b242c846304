"""Volume entropy solver and count-based estimation."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf

from entrograph import (EnumerationSpec, InsufficientData, MetricGraph,
                        NonConvergence, PathKind, PreconditionError,
                        TransferMode, ValidationFailed, build_transfer,
                        components, entropy_after_edge, entropy_after_vertex,
                        entropy_from_counts, enumerate_paths,
                        estimate_constant_C, generate_graph,
                        persistent_entropy, predict_vertex_asymptotic,
                        reduce, rho_curve, serialize_json, thresholds,
                        vertex_matrix, volume_entropy)
from entrograph import cli, entropy, incremental
from entrograph.graph import Dart, component_of
from entrograph.spectral import _apply, _vertex_terms
from helpers import (c4, complete4, dumbbell, eig_entropy, eig_rho,
                     extreme_multigraphs, lim_metric, mixed_graphs, mp_root,
                     multigraphs, path3, reference_edge_forms,
                     reference_lambda_min, reference_matrix,
                     reference_newton_down, reference_schur_evaluate,
                     reference_vertex_root, rose, rounding_scale,
                     scalar_entropy_from_counts, segment, short_loop_core,
                     split_multigraphs, spread_graph, sweep_graphs, theta)


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
    # no invalid graph reaches volume_entropy: the constructor refuses it
    with pytest.raises(ValidationFailed) as info:
        MetricGraph(("x", "y"), (
            Dart(0, "x", "y", 1.0, 0), Dart(1, "y", "x", 1.0, 1)))
    assert any("fixed point" in line for line in info.value.report)


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


def test_newton_slope_matches_finite_difference():
    # the slope's left vector is e^{-t l} r[rev], not a second iteration;
    # the backtracking root is the vertex-matrix solve
    # (test_vertex_root_null_vector_and_slope)
    def log_rho(g, t):
        return math.log(eig_rho(build_transfer(g, t).matrix))

    for g in (complete4(), dumbbell(), theta((1.0, 1.4, 2.2)),
              generate_graph(1, 8, 16)):
        for t in (0.3, 0.9):
            d = 1e-5
            fd = (log_rho(g, t + d) - log_rho(g, t - d)) / (2.0 * d)
            assert entropy._log_rho(g, t)[2] == pytest.approx(
                -fd, rel=1e-7, abs=0.0)


def test_cold_solve_never_evaluates_t0(monkeypatch):
    # rho(B(0)) > 1 on a hyperbolic core, so t = 0 is a known lower end
    seen = []
    log_rho = entropy._log_rho

    def recording(graph, t):
        seen.append(t)
        return log_rho(graph, t)

    monkeypatch.setattr(entropy, "_log_rho", recording)
    for g in (rose(2), complete4(), dumbbell(), generate_graph(1, 8, 16)):
        seen.clear()
        res = volume_entropy(g)
        assert seen and 0.0 not in seen
        assert res.iterations == len(seen)


def test_solve_starts_at_the_row_sum_bound(monkeypatch):
    # the first evaluation is at the certified bound max_v t_v of the core
    # (within 1e-3 above it), not at log(k) / l_min
    seen = []
    log_rho = entropy._log_rho

    def recording(graph, t):
        seen.append(t)
        return log_rho(graph, t)

    monkeypatch.setattr(entropy, "_log_rho", recording)
    for g in (theta((3.0, 4.0, 5.0)), dumbbell()):
        seen.clear()
        res = volume_entropy(g)
        assert seen[0] == entropy._row_sum_bound(
            reduce(g).graph._edge_arrays, TransferMode.NON_BACKTRACKING)
        assert res.iterations <= 4
        assert res.h == pytest.approx(eig_entropy(g), rel=1e-12, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_volume_entropy_matches_dense_or_fails_located(g):
    # either h agrees with a bisection on dense eigenvalues within the
    # tolerance of criteria 03/04, or the power iteration fails at a
    # located t on a named component
    try:
        h = volume_entropy(g).h
    except NonConvergence as exc:
        assert exc.t is not None and math.isfinite(exc.t) and exc.t > 0.0
        assert exc.component in {min(c.vertices) for c in components(g)}
        return
    ref = eig_entropy(g, rel_tol=1e-15)
    assert abs(h - ref) <= 1e-8 * max(1.0, ref)


def test_nonconvergence_carries_t_and_component():
    # the dart power iteration does not converge at the row-sum bound
    # t = 1.29 of this core: it fails for t in about [1.0, 3.75] there
    g = spread_graph(0)
    start = entropy._row_sum_bound(reduce(g).graph._edge_arrays,
                                   TransferMode.NON_BACKTRACKING)
    with pytest.raises(NonConvergence) as info:
        volume_entropy(g)
    assert info.value.t == start
    assert info.value.component == "v0"
    assert info.value.threshold is None


def test_short_edge_theta_solves_from_the_row_sum_bound():
    # the power iteration does not converge at log(2) / 0.01; the
    # row-sum bound lies within 1e-3 above h, where it does
    g = theta((1.0, 1.0, 0.01))
    h = volume_entropy(g).h
    assert abs(h - entropy._vertex_root(g).h) <= 1e-12 * h


def test_subnormal_shortest_edge_is_refused():
    # log(2) / l_min overflows: every solve refuses the valid graph, where
    # it reported h = inf, or NonConvergence on [inf, inf] for an edit
    g = theta((1e-320, 1.0, 1.0))
    solves = [lambda: volume_entropy(g),
              lambda: entropy._vertex_root(g),
              lambda: entropy._vertex_root(g, TransferMode.BACKTRACKING),
              lambda: entropy_after_edge(g, "x", "x", 1.0),
              lambda: entropy_after_vertex(g, [("x", 1.0), ("y", 1.0),
                                               ("x", 2.0)])]
    for solve in solves:
        with pytest.raises(PreconditionError, match="length 1e-320 is too"):
            solve()
    for strategy in ("direct", "incremental"):
        with pytest.raises(PreconditionError) as info:
            persistent_entropy(g, strategy)
        assert info.value.threshold == 1.0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_spread_graphs_solve_from_the_row_sum_bound(k):
    # these raised NonConvergence from log(k) / l_min
    g = spread_graph(k)
    h, ref = volume_entropy(g).h, entropy._vertex_root(g).h
    assert abs(h - ref) <= 1e-8 * max(1.0, ref)


@pytest.mark.parametrize("solve", ["edge", "direct curve"])
def test_newton_cap_raises_a_located_nonconvergence(monkeypatch, solve):
    # two evaluations resolve neither root: the Newton loop's own cap
    # raises, with the t it stopped at and the component it solved
    monkeypatch.setattr(entropy, "_NEWTON_CAP", 2)
    g = generate_graph(1, 10, 20)
    with pytest.raises(NonConvergence) as info:
        if solve == "edge":
            entropy_after_edge(g, "v0", "v3", 1.0)
        else:
            persistent_entropy(g, "direct")
    exc = info.value
    assert "unresolved after 2 evaluations" in str(exc)
    assert math.isfinite(exc.t) and exc.component == "v0"
    if solve == "edge":
        assert exc.threshold is None
    else:
        assert exc.threshold in thresholds(g)


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
        8.88178419700124887e-16, rel=1e-12, abs=0.0)


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


# -- the vertex-matrix solver (entropy._vertex_root) -------------------------

MODES = [TransferMode.NON_BACKTRACKING, TransferMode.BACKTRACKING]


def _lambda_min(g, t, mode):
    """Smallest eigenvalue of M(t) by a dense ``eigh``, refined as the
    Rayleigh quotient in the edge form, whose rounding does not scale with
    the weights 1/(2 t l) of short edges."""
    v = np.linalg.eigh(vertex_matrix(g, t, mode))[1][:, 0]
    edges = g._edge_arrays
    shift, weights, _, _ = _vertex_terms(edges, t, mode, False)
    return float(v @ _apply(edges, shift, weights, v))


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(g=multigraphs())
def test_vertex_root_matches_dense_dart_entropy(mode, g):
    root = entropy._vertex_root(g, mode)
    ref = eig_entropy(g, rel_tol=1e-15, mode=mode)
    tol = 1e-12 * max(1.0, ref)
    assert abs(root.h - ref) <= tol
    lo, hi = root.bracket
    assert lo <= root.h <= hi
    assert lo - tol <= ref <= hi + tol


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(g=multigraphs())
@example(g=rose(2))
@example(g=theta((1.0, 1.0, 0.01)))
def test_row_sum_bound_lies_between_h_and_the_upper_start(mode, g):
    # Collatz-Wielandt with x = 1, sharp where the all-ones vector is the
    # null vector of M(h): the rose, whose bound is the top of its bracket,
    # and this theta, bisected to 1e-3 above h; the slack is the accuracy
    # of the vertex root against dense dart eigenvalues on these draws
    # (test_vertex_root_matches_dense_dart_entropy)
    edges = g._edge_arrays
    bound = entropy._row_sum_bound(edges, mode)
    h = entropy._vertex_root(g, mode).h
    assert h <= bound + 1e-12 * max(1.0, h)
    assert bound <= entropy._upper_start(edges, mode)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(g=multigraphs())
def test_vertex_root_null_vector_and_slope(mode, g):
    root = entropy._vertex_root(g, mode)
    m = vertex_matrix(g, root.h, mode)
    # the norm of I + |M - I|: M(h) itself is the scalar 0 on one vertex
    scale = 1.0 + np.abs(m - np.eye(len(m))).sum(axis=1).max()
    assert np.abs(m @ root.v).max() <= 1e-10 * scale
    assert np.linalg.norm(root.v) == pytest.approx(1.0, abs=1e-12)
    # central differences at steps d and d/2, Richardson-extrapolated:
    # near-crossing eigenvalues can curve lambda_min on a scale far below h
    def central(d):
        return (_lambda_min(g, root.h + d, mode)
                - _lambda_min(g, root.h - d, mode)) / (2.0 * d)
    d = 1e-5 * root.h
    fd = (4.0 * central(0.5 * d) - central(d)) / 3.0
    assert root.dlambda == pytest.approx(fd, rel=1e-6, abs=0.0)


@settings(max_examples=60, deadline=None)
@given(g=multigraphs())
def test_vertex_root_lim_metric_closed_form(g):
    lim, h = lim_metric(reduce(g).graph)
    assert entropy._vertex_root(lim).h == pytest.approx(h, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=100, deadline=None)
@given(g=split_multigraphs())
def test_vertex_root_equals_the_component_loop_on_multigraphs(mode, g):
    # the components of the graph's split, each solved on its gathered
    # edge set, give the result of a loop over rebuilt components
    root = entropy._vertex_root(g, mode)
    ref = reference_vertex_root(g, mode)
    assert (root.h, root.evals, root.bracket, root.dlambda,
            root.null_eigenvalue) == (ref.h, ref.evals, ref.bracket,
                                      ref.dlambda, ref.null_eigenvalue)
    assert (root.v is None and ref.v is None) \
        or np.array_equal(root.v, ref.v)


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(g=st.one_of(multigraphs(), mixed_graphs()))
def test_cached_roots_equal_cold_solves(mode, g):
    # the record of each component, built once, and in backtracking mode
    # that of the whole graph: a cold solve of the edge set it was solved
    # on before the cache, bit for bit (backtracking counts its
    # lambda_min(M(0)) gate as one more evaluation), shared, read-only
    whole, gate = g._edge_arrays, int(mode is TransferMode.BACKTRACKING)
    cases = []
    for verts, edges in g._split[1]:
        comp = component_of(g, g.vertices[verts[0]])
        assert all(component_of(g, v) is comp for v in comp.vertices)
        cases.append((comp, whole.take(verts, edges)))
    if gate:
        cases.append((g, whole))
    for graph, edges in cases:
        root = entropy._vertex_root(graph, mode)
        assert entropy._vertex_root(graph, mode) is root
        if root.v is None:
            assert (root.h, root.null_eigenvalue, root.bracket) == (
                0.0, 0.0, (0.0, 0.0))
            continue
        ref = entropy._cold_root(edges, mode)
        assert (root.h, root.null_eigenvalue, root.dlambda, root.bracket,
                root.evals) == (ref.h, ref.null_eigenvalue, ref.dlambda,
                                ref.bracket, ref.evals + gate)
        assert root.v.tobytes() == ref.v.tobytes()
        with pytest.raises(ValueError):
            root.v[0] = 1.0


def _count_cold_solves(monkeypatch):
    """A list that grows by one per ``entropy._cold_root`` call, from
    ``entropy`` or from ``incremental``."""
    calls, cold_root = [], entropy._cold_root

    def spy(*args, **kwargs):
        calls.append(args)
        return cold_root(*args, **kwargs)
    for module in (entropy, incremental):
        monkeypatch.setattr(module, "_cold_root", spy)
    return calls


def test_verify_solves_each_root_once(monkeypatch, tmp_path, capsys):
    # the graph's root, the core's two roots (count model and recursions'
    # backtracking) and the edited graph's direct h'; no dart evaluation
    path = tmp_path / "g.json"
    path.write_text(serialize_json(generate_graph(1, 6, 10)))
    calls = _count_cold_solves(monkeypatch)
    darts = []
    monkeypatch.setattr(entropy, "_log_rho",
                        lambda *args: darts.append(args))
    assert cli.main(["verify", str(path)]) == 0
    assert (len(calls), len(darts)) == (4, 0)


def test_queries_on_one_graph_share_its_root(monkeypatch):
    g = generate_graph(1, 10, 20)
    calls = _count_cold_solves(monkeypatch)
    entropy_after_edge(g, "v0", "v3", 1.0)
    entropy_after_vertex(g, [("v0", 1.0), ("v1", 1.0), ("v2", 1.0)])
    estimate_constant_C(g, "v0", "v3")
    predict_vertex_asymptotic(g, [("v0", 5.0), ("v1", 5.0), ("v2", 5.0)])
    assert len(calls) == 1  # solved per query, 4
    # the theta of a graph of two components: one record for both queries
    two = MetricGraph.from_edges(
        ["a", "b", "c", "x", "y"],
        [("a", "b", 1.0), ("a", "b", 1.3), ("b", "c", 0.7), ("c", "a", 1.1),
         ("x", "y", 0.2), ("x", "y", 0.3), ("x", "y", 0.25)])
    entropy_after_edge(two, "x", "x", 1.0)
    estimate_constant_C(two, "x", "y")
    assert len(calls) == 2


def test_vertex_root_wide_length_graphs():
    # log(k)/l_min lies far above h here: the dart power iteration does not
    # converge at that start, the vertex matrix needs no iteration
    for g in (theta((1.0, 1.0, 0.01)), short_loop_core()):
        ref = eig_entropy(g, rel_tol=1e-15)
        assert entropy._vertex_root(g).h == pytest.approx(ref, rel=1e-12,
                                                          abs=0.0)


def test_vertex_root_short_loop_core():
    # the loop of length 0.0022 enters M(t) as tanh(t l / 2) ~ 3e-5, which
    # 1 - 2z/(1+z) forms with ~1e-16 absolute error: h was 3.0e-13 off.
    # The reference is a 40-digit mpmath root of lambda_min(M(t)) = 0.
    # Rounding of the O(0.1) terms of v^T M v limits any float root to
    # ~eps * 0.12 / (h lambda') = 7.6e-14 relative here.
    ref = 0.02650810829636056848358827255669643048656
    assert entropy._vertex_root(short_loop_core()).h == pytest.approx(
        ref, rel=5e-14, abs=0.0)


def _solve_to_floor(newton, edges, mode):
    # the root of ``newton`` on lambda_min(M(t)) from the upper start, and
    # its evaluations up to the first with |lambda| within the rounding
    # scale of its terms (``helpers.rounding_scale``)
    floor = []

    def evaluate(t):
        out = entropy._lambda_min(edges, t, mode)
        floor.append(abs(out[0]) <= rounding_scale(edges, t, out[1], mode))
        return out
    hi = entropy._upper_start(edges, mode)
    root = newton(evaluate, hi, 0.0, hi, edges.name)
    return root, floor.index(True) + 1 if True in floor else len(floor)


@pytest.mark.parametrize("mode", MODES, ids=["nb", "bt"])
@settings(max_examples=60, deadline=None)
@given(g=multigraphs())
def test_newton_matches_reference_on_multigraphs(mode, g):
    # the interpolated steps land on the plain Newton loop's root within
    # the stop band of the two, and reach the rounding floor of lambda in
    # at most one evaluation more.  Both are taken on the scale of the
    # terms before the diagonal cancels: on 1-2 % of draws the solver's own
    # scale lies far below the rounding of lambda, both loops wander inside
    # the floor until the bracket closes, and their counts part by chance
    edges = g._edge_arrays
    new, to_floor = _solve_to_floor(entropy._newton_down, edges, mode)
    ref, ref_to_floor = _solve_to_floor(reference_newton_down, edges, mode)
    assert entropy._cold_root(edges, mode).h == new.h
    band = sum(rounding_scale(edges, r.h, r.v, mode) for r in (new, ref))
    assert abs(new.h - ref.h) <= band / new.dlambda + 1e-15 * new.h
    assert to_floor <= ref_to_floor + 1


def test_newton_takes_fewer_evaluations_than_the_reference_on_the_sweep():
    # ROADMAP item 12's 150 graphs, lengths 10^U(-6, 3); the plain Newton
    # loop took 2891 + 1730 evaluations
    edge_sets = [g._edge_arrays for g in sweep_graphs()]
    for mode in MODES:
        new = sum(entropy._cold_root(e, mode).evals for e in edge_sets)
        ref = sum(_solve_to_floor(reference_newton_down, e, mode)[0].evals
                  for e in edge_sets)
        assert new < ref


def _plain_dart_solve(g):
    # volume_entropy's dart solve of a connected graph, in plain Newton steps
    core, hi = entropy._dart_core(g)
    return reference_newton_down(lambda t: entropy._log_rho(core, t), hi,
                                 0.0, hi, lambda: min(g.vertices))


def test_dart_solve_takes_no_more_evaluations_than_plain_newton():
    # the benchmark's ladder and spread(1..4): the interpolated steps took
    # 60 and 24 evaluations where plain Newton steps take 72 and 27.  On
    # the ladder h lies within 1.99e-13 relative of the vertex root, and
    # at V = 10, 40 of a bisection on dense eigenvalues (V = 100 would
    # take that bisection 15 s)
    ladder = [generate_graph(s, v, 2 * v)
              for v in (10, 40, 100) for s in range(1, 6)]
    new = ref = 0
    for g in ladder + [spread_graph(k) for k in range(1, 5)]:
        evals = volume_entropy(g).iterations
        plain = _plain_dart_solve(g).evals
        assert evals <= plain
        new, ref = new + evals, ref + plain
    assert new < ref
    for g in ladder:
        h = volume_entropy(g).h
        refs = [entropy._vertex_root(g).h]
        if len(g.vertices) <= 40:
            refs.append(eig_entropy(g, rel_tol=1e-15))
        for r in refs:
            assert abs(h - r) <= 2e-13 * r


def test_dart_solve_fails_only_where_plain_newton_fails_on_the_sweep():
    # both loops raise NonConvergence on the same 35 of the 150 graphs
    failed = []
    for i, g in enumerate(sweep_graphs()):
        try:
            _plain_dart_solve(g)
        except NonConvergence:
            continue
        try:
            volume_entropy(g)
        except NonConvergence:
            failed.append(i)
    assert failed == []


# the largest relative error of the plain Newton loop (``helpers.
# reference_newton_down``) against the 50-digit root on these draws; the
# non-backtracking one is a graph with loops of 665.6 and 4.5e-6 at one
# vertex (ROADMAP item 3)
MP_BOUNDS = {TransferMode.NON_BACKTRACKING: 1.3e-10,
             TransferMode.BACKTRACKING: 1.3e-14}


@pytest.mark.parametrize("mode", MODES, ids=["nb", "bt"])
def test_vertex_root_matches_a_50_digit_root(mode):
    for g in sweep_graphs(count=12):
        h = entropy._vertex_root(g, mode).h
        ref = mp_root(g, mode, h)
        assert abs(h - ref) <= MP_BOUNDS[mode] * ref


@pytest.mark.parametrize("mode", MODES)
@settings(max_examples=60, deadline=None)
@given(g=multigraphs(), s=st.floats(0.1, 3.0))
@example(g=rose(2), s=1.0)
def test_lambda_min_eigenpair_matches_eigh(mode, g, s):
    # the direct LAPACK dsyevr call agrees with numpy's eigh (the dsyevd
    # driver): its eigenvalue, taken as the edge-form Rayleigh quotient,
    # its residual, and its eigenvector where the spectral gap fixes it
    t = s * entropy._vertex_root(g, mode).h
    m = vertex_matrix(g, t, mode)
    w, vecs = np.linalg.eigh(m)
    lam, v, _, noise = entropy._lambda_min(g._edge_arrays, t, mode)
    scale = np.abs(m).sum(axis=1).max()
    if scale == 0.0:
        # M(h) is exactly [0.0] on a one-vertex rose whose root rounds so
        # that its loop terms cancel the identity (two unit loops at
        # log 3, or at log 4 backtracking): no scale to bound against, and
        # every value is exact
        assert lam == noise == 0.0 and not (m @ v).any()
        return
    assert abs(lam - w[0]) <= 1e-12 * scale
    assert 0.0 < noise <= 1e-14 * scale
    assert np.abs(m @ v - w[0] * v).max() <= 1e-12 * scale
    if w.size > 1 and w[1] - w[0] > 1e-3 * scale:  # v is unique up to sign
        ref = vecs[:, 0] * np.sign(vecs[:, 0] @ v)
        assert np.abs(v - ref).max() <= 1e-9


def _schur_evaluate(edges, ends, h_base, mode):
    # the evaluation that ``entropy._schur_root`` hands its Newton loop
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entropy, "_newton_down", lambda evaluate, *_: evaluate)
        return entropy._schur_root(edges, ends, h_base, mode)


def _same_evaluation(got, want):
    # (lambda, vector, slope, rounding scale) equal bit for bit; a point
    # certified below the root is (-inf, None, nan, 0.0)
    if want[1] is None:
        assert got[1] is None and math.isnan(got[2])
        assert (got[0], got[3]) == (want[0], want[3]) == (-math.inf, 0.0)
    else:
        assert (got[0], got[2], got[3]) == (want[0], want[2], want[3])
        assert np.array_equal(got[1], want[1])


def _evaluations_match_reference(g, k, mode):
    # lambda_min(M(t)) and the Schur evaluation on the ends of the last k
    # edges, each against the way the package evaluated it before one
    # kernel, ``ndarray.dot`` quotients and one permuted assembly: at
    # t = 0.5h, h (1 -+ 1e-6) and 2h, and t = 0 backtracking; with h_base
    # = h and h / 4, so that a failed Cholesky of M_RR lands on either
    # side of h_base.  Returns the branches the Schur evaluations took
    edges = g._edge_arrays
    h = entropy._vertex_root(g, mode).h or 1.0 / g.min_length()
    ends = np.concatenate((edges.tails[-k:], edges.heads[-k:]))
    rest = np.setdiff1d(np.arange(edges.n), ends)
    ts = [0.5 * h, h * (1.0 - 1e-6), h * (1.0 + 1e-6), 2.0 * h]
    ts += [0.0] if mode is TransferMode.BACKTRACKING else []
    branches = set()
    for t in ts:
        _same_evaluation(entropy._lambda_min(edges, t, mode),
                         reference_lambda_min(edges, t, mode))
        m_g = reference_matrix(*reference_edge_forms(edges, t, mode)[0])
        factored = dpotrf(m_g[np.ix_(rest, rest)])[1] == 0
        for h_base in (h, 0.25 * h):
            _same_evaluation(
                _schur_evaluate(edges, ends, h_base, mode)(t),
                reference_schur_evaluate(edges, ends, h_base, t, mode))
            branches.add("factored" if factored else
                         "above h_base" if t > h_base else "below h_base")
    return branches


@pytest.mark.parametrize("mode", MODES, ids=["nb", "bt"])
@settings(max_examples=100, deadline=None)
@given(g=st.one_of(multigraphs(), extreme_multigraphs()), k=st.integers(1, 2),
       loop=st.none() | st.tuples(st.integers(0, 7), st.floats(-3.0, 3.0)))
@example(g=rose(2), k=1, loop=None)
def test_evaluations_match_reference_bit_for_bit(mode, g, k, loop):
    # ``loop`` appends a loop as the one new edge: a single end S, whose
    # K(t) is 1 x 1
    if loop is not None:
        v = g.vertices[loop[0] % len(g.vertices)]
        g = MetricGraph.from_edges(
            g.vertices, g.edge_list() + ((v, v, 10.0 ** loop[1]),))
        k = 1
    _evaluations_match_reference(g, k, mode)


@pytest.mark.parametrize("mode", MODES, ids=["nb", "bt"])
def test_evaluations_match_reference_in_every_branch(mode):
    # a short theta on a and b, the base R of a loop at c added last: its
    # M_RR fails up to the entropy of the theta, above h / 2, and the
    # Schur evaluations take all three branches
    g = MetricGraph.from_edges(
        ["a", "b", "c"], [("a", "b", 0.5), ("a", "b", 0.6), ("a", "b", 0.7),
                          ("b", "c", 3.0), ("c", "a", 2.0), ("c", "c", 2.5)])
    assert _evaluations_match_reference(g, 1, mode) == {
        "factored", "above h_base", "below h_base"}


@pytest.mark.parametrize("mode", MODES, ids=["nb", "bt"])
def test_evaluations_match_reference_on_a_40_vertex_graph(mode):
    # the draws above have at most 9 vertices; here M_RR has 36 to 39
    # rows, where a BLAS product with a strided block M_RS sums in
    # another order than with a contiguous one
    g = generate_graph(1, 40, 80)
    for k in (1, 2, 3):
        _evaluations_match_reference(g, k, mode)


@pytest.mark.parametrize("scale", [1e4, 1e5])
def test_vertex_root_relative_accuracy_with_scaled_lengths(scale):
    # M(t) depends on t l alone, so h scales as 1/scale; an absolute stop
    # of 1e-15 on the bracket left h 9.2e-12 relative off at h ~ 7e-5
    g = generate_graph(1, 10, 20)
    g = MetricGraph.from_edges(
        g.vertices, [(u, w, l * scale) for u, w, l in g.edge_list()])
    ref = eig_entropy(g, rel_tol=1e-15)
    assert entropy._vertex_root(g).h == pytest.approx(ref, rel=1e-14,
                                                      abs=0.0)


def test_vertex_root_components_and_edge_cases():
    # h is the maximum over components, v lives on the one attaining it
    # and a component with first Betti number <= 1 is never solved
    g = MetricGraph.from_edges(
        ["c0", "c1", "a", "v"],
        [("c0", "c1", 1.0), ("c1", "c0", 2.0), ("v", "v", 1.0),
         ("v", "v", 1.0)])
    root = entropy._vertex_root(g)
    assert root.h == pytest.approx(math.log(3.0), rel=1e-15, abs=0.0)
    assert np.abs(root.v[:3]).max() == 0.0 and abs(root.v[3]) == 1.0
    assert root.evals == entropy._vertex_root(rose(2)).evals
    for tree in (path3(), c4(), MetricGraph.from_edges(["x"], [])):
        assert entropy._vertex_root(tree).h == 0.0
    bt = TransferMode.BACKTRACKING
    assert entropy._vertex_root(path3(), bt).h > 0.0
    for small in (MetricGraph.from_edges(["x"], []), segment()):
        assert entropy._vertex_root(small, bt).h == 0.0
    # the root on the upper start log(k) / l_min is that bound
    assert entropy._vertex_root(rose(3), bt).h == math.log(6.0)
