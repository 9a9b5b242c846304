"""Path generating functions against closed forms and enumeration."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrograph import (DivergentSeries, EnumerationSpec, InvalidDartIndex,
                        MetricGraph, PathKind, TransferMode,
                        attachment_darts, check_symmetry, enumerate_paths,
                        f_from, f_path, g_primitive, generate_graph,
                        primitive_matrix, volume_entropy)
from entrograph.entropy import _vertex_root
from entrograph.genfun import _block
from entrograph.graph import component_of
from helpers import (c4, complete4, counting_resolvent, dart_lu_path,
                     disjoint_union, dumbbell, eig_entropy, mixed_graphs,
                     multigraphs, rose, scalar_primitive_matrix, segment,
                     theta)


def test_segment_single_path():
    for t in (0.3, 1.0, 2.5):
        val = f_path(segment(), "x", "y", t)
        assert val.converged
        assert val.value == pytest.approx(math.exp(-t), abs=1e-12)


def test_two_parallel_edges_closed_form():
    g = MetricGraph.from_edges(["x", "y"],
                               [("x", "y", 1.0), ("x", "y", 1.0)])
    for t in (0.4, 1.0):
        val = f_path(g, "x", "y", t).value
        expected = 2 * math.exp(-t) / (1 - math.exp(-2 * t))
        assert val == pytest.approx(expected, rel=1e-11, abs=0.0)


def test_c4_opposite_and_return_closed_forms():
    g = c4()
    for t in (0.5, 1.0, 1.7):
        q = math.exp(-t)
        assert f_path(g, "a", "c", t).value == pytest.approx(
            2 * q ** 2 / (1 - q ** 4), rel=1e-11, abs=0.0)
        assert f_path(g, "a", "a", t).value == pytest.approx(
            2 * q ** 4 / (1 - q ** 4), rel=1e-11, abs=0.0)


def test_segment_f_from():
    assert f_from(segment(), "x", 0.7).value == pytest.approx(
        math.exp(-0.7), abs=1e-12)


def test_rose2_f_from_closed_form():
    for t in (math.log(3) + 0.2, 1.7, 2.4):
        val = f_from(rose(2), "v", t).value
        expected = 4 * math.exp(-t) / (1 - 3 * math.exp(-t))
        assert val == pytest.approx(expected, rel=1e-10, abs=0.0)


def test_divergence_at_and_below_entropy():
    h = volume_entropy(rose(2)).h
    assert not f_from(rose(2), "v", h * (1 - 1e-3)).converged
    assert f_from(rose(2), "v", h * (1 + 1e-2)).converged
    val = f_from(rose(2), "v", h * (1 - 1e-3))
    assert math.isinf(val.value)


def test_divergence_boundary_on_suite():
    for g in (complete4(), dumbbell(), theta((1.0, 1.5, 2.0))):
        h = volume_entropy(g).h
        x = sorted(g.vertex_set)[0]
        assert not f_from(g, x, h * (1 - 1e-3)).converged
        assert f_from(g, x, h * (1 + 1e-2)).converged


def test_disconnected_pair_returns_zero_with_flag():
    g = MetricGraph.from_edges(["x", "y", "p", "q"],
                               [("x", "y", 1.0), ("p", "q", 1.0)])
    val = f_path(g, "x", "p", 1.0)
    assert val.value == 0.0
    assert val.disconnected
    assert val.converged


def test_monotone_decreasing_in_t():
    g = complete4()
    h = volume_entropy(g).h
    ts = [h + 0.2, h + 0.6, h + 1.2]
    vals = [f_path(g, "a", "b", t).value for t in ts]
    assert vals[0] > vals[1] > vals[2]


def test_enumeration_partial_sum_agreement():
    for g, x, y in ((rose(2), "v", "v"), (complete4(), "a", "c"),
                    (dumbbell(), "a", "b")):
        h = volume_entropy(g).h
        t = h + 0.35
        r_max = 11.0 / 1.0
        prof = enumerate_paths(g, EnumerationSpec(
            PathKind.PATHS_XY, r_max, x=x, y=y))
        partial = float(np.sum(np.exp(-prof.lengths * t)))
        f_val = f_path(g, x, y, t).value
        # empirical growth constant with headroom, as the tail multiplier
        jumps = prof.jump_radii()
        m_emp = 2.0 * max(prof.count_le(l) * math.exp(-h * l)
                          for l in jumps[jumps >= 0.5 * r_max])
        tail = m_emp * math.exp((h - t) * r_max) / (1 - math.exp(h - t))
        assert partial <= f_val + 1e-12
        assert f_val - partial <= tail


def test_empty_path_convention_min_exponent():
    # f_xx sums nonempty cycles only: the leading term decays with the
    # shortest non-backtracking cycle through x (length 4 on C4).
    g = c4()
    prof = enumerate_paths(g, EnumerationSpec(
        PathKind.PATHS_XY, 10.0, x="a", y="a"))
    assert float(prof.lengths[0]) == pytest.approx(4.0)
    t = 5.0
    assert f_path(g, "a", "a", t).value == pytest.approx(
        2 * math.exp(-4 * t), rel=1e-6, abs=0.0)


def test_symmetry_residuals():
    assert check_symmetry(c4(), "a", "c", 1.0) <= 1e-10
    assert check_symmetry(segment(), "x", "y", 2.0) == 0.0
    g = generate_graph(5, 6, 9)
    h = volume_entropy(g).h
    a, b = sorted(g.vertex_set)[:2]
    assert check_symmetry(g, a, b, h + 0.5) <= 1e-10


def _two_call_symmetry(graph, x, y, t):
    # check_symmetry as two f_path calls, one factorization each
    fxy, fyx = f_path(graph, x, y, t), f_path(graph, y, x, t)
    if not (fxy.converged and fyx.converged):
        raise DivergentSeries(f"f_xy diverges at t={t}")
    return abs(fxy.value - fyx.value)


@settings(max_examples=100, deadline=None)
@given(mixed_graphs(), st.data())
def test_symmetry_matches_two_path_calls_on_random_multigraphs(g, data):
    # the one two-column solve gives the two f_path values bit for bit;
    # x and y may coincide or lie in different components (0.0), and
    # below the entropy of their component both raise DivergentSeries
    x, y = (data.draw(st.sampled_from(g.vertices)) for _ in range(2))
    h = _vertex_root(component_of(g, x)).h or 1.0 / g.min_length()
    for t in (0.0, 0.5 * h, 1.01 * h, 2.0 * h):
        try:
            want = _two_call_symmetry(g, x, y, t)
        except DivergentSeries:
            with pytest.raises(DivergentSeries):
                check_symmetry(g, x, y, t)
            continue
        assert check_symmetry(g, x, y, t) == want


def test_g_primitive_star_into_triangle():
    tri = [("p", "q", 1.0), ("q", "r", 1.0), ("r", "p", 1.0)]
    g = MetricGraph.from_edges(
        ["hub", "p", "q", "r"],
        tri + [("hub", "p", 1.0), ("hub", "q", 1.0), ("hub", "r", 1.0)])
    tri_only = MetricGraph.from_edges(["p", "q", "r"], tri)
    darts = attachment_darts(g, "hub")
    heads = [d.head for d in darts]
    i, j = heads.index("p") + 1, heads.index("q") + 1
    t = 1.2
    val = g_primitive(g, "hub", i, j, t)
    inner = f_path(tri_only, "p", "q", t).value
    assert val.value == pytest.approx(math.exp(-2 * t) * inner, rel=1e-11,
                                      abs=0.0)


def test_g_primitive_parallel_edges_bigon():
    g = MetricGraph.from_edges(["v", "w"],
                               [("v", "w", 1.0), ("v", "w", 1.0)])
    t = 0.9
    assert g_primitive(g, "v", 1, 2, t).value == pytest.approx(
        math.exp(-2 * t), rel=1e-12, abs=0.0)
    assert g_primitive(g, "v", 1, 1, t).value == 0.0


def test_g_primitive_divergence_below_interior_entropy():
    g = MetricGraph.from_edges(
        ["hub", "v"],
        [("v", "v", 1.0), ("v", "v", 1.0), ("hub", "v", 1.0),
         ("hub", "v", 1.0), ("hub", "v", 1.0)])
    # interior graph is rose-2: entropy ln 3
    val = g_primitive(g, "hub", 1, 2, math.log(3) * 0.99)
    assert not val.converged


def test_g_primitive_invalid_index():
    with pytest.raises(InvalidDartIndex):
        g_primitive(c4(), "a", 0, 1, 1.0)
    with pytest.raises(InvalidDartIndex):
        g_primitive(c4(), "a", 1, 3, 1.0)


def test_g_primitive_loop_darts_at_vertex():
    g = rose(2)
    darts = attachment_darts(g, "v")
    assert len(darts) == 4
    t = 1.4
    for i, di in enumerate(darts, 1):
        for j, dj in enumerate(darts, 1):
            val = g_primitive(g, "v", i, j, t).value
            if dj.id == di.reverse:
                assert val == pytest.approx(math.exp(-t), rel=1e-12, abs=0.0)
            else:
                assert val == 0.0


def test_primitive_matrix_matches_scalar_and_enumeration():
    g = complete4()
    t = volume_entropy(g).h + 0.4
    mat = primitive_matrix(g, "a", t)
    n = g.degree("a")
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert mat[i - 1, j - 1] == pytest.approx(
                g_primitive(g, "a", i, j, t).value, rel=1e-10, abs=0.0)
    prof = enumerate_paths(g, EnumerationSpec(
        PathKind.PRIMITIVE_CYCLES_AT, 12.0, v="a"))
    for (i, j), lengths in prof.by_pair.items():
        partial = float(np.sum(np.exp(-lengths * t)))
        assert partial <= mat[i - 1, j - 1] + 1e-12
        assert mat[i - 1, j - 1] - partial <= 10.0 * math.exp(
            (volume_entropy(g).h - t) * 12.0)


@settings(max_examples=40, deadline=None)
@given(multigraphs(), st.data())
def test_primitive_matrix_matches_scalar_loop_on_random_multigraphs(g,
                                                                   data):
    # t from below the entropy of G - v (divergent) to far above h
    v = data.draw(st.sampled_from(g.vertices))
    h = eig_entropy(g)
    for mode in (TransferMode.NON_BACKTRACKING, TransferMode.BACKTRACKING):
        for t in (0.5 * h, 0.9 * h, 1.01 * h, 1.5 * h, 3.0 * h):
            try:
                want = scalar_primitive_matrix(g, v, t, mode)
            except DivergentSeries:
                with pytest.raises(DivergentSeries):
                    primitive_matrix(g, v, t, mode)
                continue
            got = primitive_matrix(g, v, t, mode)
            assert np.all(np.abs(got - want)
                          <= 1e-12 * np.maximum(1.0, np.abs(want))), \
                (mode, t)


def test_primitive_matrix_ignores_components_away_from_v():
    # the rose of three loops of length 0.1 has entropy log(5)/0.1 = 16.1,
    # far above t; it shares no component with v
    g = disjoint_union([complete4(), MetricGraph.from_edges(
        ["r"], [("r", "r", 0.1)] * 3)])
    t = volume_entropy(complete4()).h + 0.4
    assert np.array_equal(primitive_matrix(g, "a", t),
                          primitive_matrix(complete4(), "a", t))


def test_primitive_matrix_factors_once(monkeypatch):
    # G - m is the two loops at a and at b, two components: one
    # factorization of the block-diagonal vertex matrix serves both
    made = counting_resolvent(monkeypatch)
    mat = primitive_matrix(dumbbell(), "m", 0.8)
    assert len(made) == 1
    assert np.allclose(mat, scalar_primitive_matrix(dumbbell(), "m", 0.8),
                       rtol=1e-12, atol=0.0)


# -- vertex-matrix resolvent against the dart-matrix LU -------------------

def _assert_matches_dart_lu(g, t):
    block = _block(g, t, TransferMode.NON_BACKTRACKING, g.vertices)
    for i, x in enumerate(g.vertices):
        for j, y in enumerate(g.vertices):
            want = dart_lu_path(g, x, y, t)
            assert abs(block[i, j] - want) <= \
                1e-9 * max(1.0, abs(want)), (x, y, t)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_path_value_matches_dart_lu_on_random_multigraphs(g):
    # No floor on t * l_min: the refined solve keeps short edges accurate.
    h = eig_entropy(g)
    for factor in (1.01, 1.5, 3.0):
        _assert_matches_dart_lu(g, factor * h)
    with pytest.raises(DivergentSeries):
        _block(g, 0.99 * h, TransferMode.NON_BACKTRACKING, g.vertices)


def test_rose_with_short_loop_matches_dart_lu():
    # The short loop enters M(t) as -2z/(1+z).  Formed as the difference
    # 2z^2/(1-z^2) - 2z/(1-z^2) of two terms of size 1/(2tl) = 2.5e4, it
    # would leave f_vv off by 3e-7 relative here.
    g = MetricGraph.from_edges(["v"], [("v", "v", 1.0), ("v", "v", 1.0),
                                       ("v", "v", 1e-6)])
    _assert_matches_dart_lu(g, 1.5 * eig_entropy(g))


def test_f_path_on_wide_length_spread():
    # generate_graph(2, 10, 18) with lengths 10^U(-3, 3) from Random(0):
    # the power iteration on B(t) does not converge on this graph.
    base = generate_graph(2, 10, 18)
    rng = random.Random(0)
    g = MetricGraph.from_edges(base.vertices, [
        (u, v, 10 ** rng.uniform(-3, 3)) for u, v, _ in base.edge_list()])
    h = 0.218982142992
    x, y = sorted(g.vertex_set)[:2]
    val = f_path(g, x, y, h + 1.0)
    assert val.converged
    assert val.value == pytest.approx(dart_lu_path(g, x, y, h + 1.0),
                                      rel=1e-9, abs=0.0)
    assert not f_path(g, x, y, 0.99 * h).converged
