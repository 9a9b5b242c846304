"""Metric graph model: validation, components, reduction, edits."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entrograph import (ComponentKind, Dart, MetricGraph, NonPositiveLength,
                        UnknownVertex, ValidationFailed, add_edge,
                        add_vertex, components, delete_edge, delete_vertex,
                        first_betti, reduce, same_graph, validate)
from entrograph.graph import component_of
from helpers import (c4, check_reduce, complete4, cycle, dfs_components,
                     mixed_graphs, multigraphs, path3, reference_take, rose,
                     segment, split_multigraphs, theta)


def test_validate_well_formed_c4():
    assert validate(c4()) == ()


# the constructor runs validate and raises its report: no invalid graph
# object exists


def test_validate_reports_nonpositive_length():
    with pytest.raises(ValidationFailed) as info:
        MetricGraph(("x", "y"), (
            Dart(0, "x", "y", 0.0, 1), Dart(1, "y", "x", 0.0, 0)))
    assert any("length" in line for line in info.value.report)


def test_validate_reports_reversal_fixed_point():
    with pytest.raises(ValidationFailed) as info:
        MetricGraph(("x", "y"), (
            Dart(0, "x", "y", 1.0, 0), Dart(1, "y", "x", 1.0, 1)))
    assert any("fixed point" in line for line in info.value.report)


def test_validate_reports_unknown_endpoint_and_bad_involution():
    with pytest.raises(ValidationFailed) as info:
        MetricGraph(("x",), (
            Dart(0, "x", "w", 1.0, 1), Dart(1, "w", "x", 1.0, 0)))
    assert any("unknown head" in line for line in info.value.report)
    with pytest.raises(ValidationFailed) as info:
        MetricGraph(("x", "y", "z"), (
            Dart(0, "x", "y", 1.0, 1), Dart(1, "y", "x", 1.0, 0),
            Dart(2, "y", "z", 1.0, 1), Dart(3, "z", "y", 1.0, 2)))
    assert info.value.report


def test_from_edges_rejects_bad_input():
    with pytest.raises(UnknownVertex):
        MetricGraph.from_edges(["x"], [("x", "w", 1.0)])
    with pytest.raises(NonPositiveLength):
        MetricGraph.from_edges(["x", "y"], [("x", "y", -1.0)])
    with pytest.raises(NonPositiveLength):
        MetricGraph.from_edges(["x", "y"], [("x", "y", math.inf)])


def test_degree_counts_loops_twice():
    g = MetricGraph.from_edges(["v", "w"], [("v", "v", 1.0), ("v", "w", 2.0)])
    assert g.degree("v") == 3
    assert g.degree("w") == 1


def test_components_connected_identity():
    # a connected graph is its own component, not a rebuilt copy
    for g in (complete4(), rose(2), segment()):
        assert components(g) == [g]
        assert components(g)[0] is g


def test_components_two_triangles():
    g = MetricGraph.from_edges(
        ["p", "b", "c", "a", "q", "r"],
        [("a", "b", 1.0), ("p", "q", 2.0), ("b", "c", 1.5),
         ("q", "r", 2.5), ("c", "a", 1.25), ("r", "p", 3.0)])
    comps = components(g)
    assert all(validate(comp) == () for comp in comps)
    # ordered by smallest vertex id, each in the vertex and edge order
    # of the input graph
    assert [c.vertices for c in comps] == [("b", "c", "a"),
                                           ("p", "q", "r")]
    assert [c.edge_list() for c in comps] == [
        (("a", "b", 1.0), ("b", "c", 1.5), ("c", "a", 1.25)),
        (("p", "q", 2.0), ("q", "r", 2.5), ("r", "p", 3.0))]


@settings(max_examples=200, deadline=None)
@given(split_multigraphs())
def test_components_equal_the_dfs_on_multigraphs(g):
    # the split of the edge arrays gives the components of a DFS over the
    # darts: the same order, vertices and edges, and g itself when
    # connected
    comps, ref = components(g), dfs_components(g)
    assert [(c.vertices, c.edge_list()) for c in comps] \
        == [(c.vertices, c.edge_list()) for c in ref]
    if len(ref) == 1:
        assert comps[0] is g
    assert first_betti(g) == tuple(
        c.edge_count - len(c.vertices) + 1 for c in ref)
    for c in ref:
        for v in c.vertices:
            assert component_of(g, v).edge_list() == c.edge_list()


def test_component_of_builds_only_its_component(monkeypatch):
    # four components: one graph is built, the one asked for; a connected
    # graph is its own component, and nothing is built
    parts = [complete4(), rose(2), theta(), cycle(3)]
    g = MetricGraph.from_edges(
        [f"{k}{v}" for k, p in enumerate(parts) for v in p.vertices],
        [(f"{k}{u}", f"{k}{w}", l) for k, p in enumerate(parts)
         for u, w, l in p.edge_list()])
    connected = complete4()
    built = []
    from_edges = MetricGraph.from_edges.__func__
    monkeypatch.setattr(MetricGraph, "from_edges", classmethod(
        lambda cls, *args: built.append(args) or from_edges(cls, *args)))
    comp = component_of(g, "2x")
    assert len(built) == 1
    assert comp.vertices == ("2x", "2y")
    assert comp.edge_list() == (("2x", "2y", 1.0),) * 3
    assert component_of(connected, "c") is connected
    assert len(built) == 1


def test_edge_arrays_cached_and_read_only():
    g = MetricGraph.from_edges(["x", "y"], [("y", "x", 2.0), ("x", "x", 0.5)])
    n, u, w, lengths = g._edge_arrays
    assert g._edge_arrays is g._edge_arrays
    assert n == 2
    assert u.tolist() == [1, 0] and w.tolist() == [0, 0]
    assert lengths.tolist() == [2.0, 0.5]
    for arr in (u, w, lengths):
        with pytest.raises(ValueError):
            arr[0] = 1
    edges = g._edge_arrays
    loops, scatter = edges.loops, edges.scatter
    assert g._edge_arrays.loops is loops
    assert g._edge_arrays.scatter is scatter
    assert loops.tolist() == [1]
    assert edges.tails.tolist() == [1, 0] and edges.heads.tolist() == [0, 0]
    # diagonal, then uu, ww, uw and wu of each edge, y-x then the loop
    # x-x, whose four land on its diagonal entry 0
    assert scatter.tolist() == [0, 3, 3, 0, 0, 0, 2, 0, 1, 0]
    for arr in (edges.tails, edges.heads, loops, scatter):
        with pytest.raises(ValueError):
            arr[0] = 1
    assert g.max_degree() == 3 and g.min_length() == 0.5


def test_max_degree_and_min_length_of_an_edgeless_graph():
    g = MetricGraph.from_edges(["x", "y"], [])
    assert g.max_degree() == 0 and g.min_length() == 0.0
    assert MetricGraph.from_edges([], []).max_degree() == 0


@settings(max_examples=100, deadline=None)
@given(g=st.one_of(multigraphs(), split_multigraphs()), data=st.data())
def test_take_matches_reference_edge_sets(g, data):
    # the edge set of ``take``, whose constructor sets its loops, scatter
    # index, largest degree and least length, equals the one whose cached
    # properties gave them, array by array: values, dtypes and read-only
    # flags.  As in an edit (``incremental._edit``), new edges are
    # ``added`` to one component, loops and parallel edges among them,
    # some on a new vertex n past the names; without new edges the take
    # is the one of a persistence step
    old, (verts, edges) = g._edge_arrays, data.draw(
        st.sampled_from(g._split[1]))
    n, m = old.n, old.lengths.size
    end = st.sampled_from(verts.tolist() + [n])
    new = data.draw(st.lists(st.tuples(end, end), max_size=4))
    lengths = data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(new),
                                 max_size=len(new)))
    hub = any(n in e for e in new)
    added = np.array(new, dtype=np.intp).reshape(-1, 2).T, lengths
    full = (n + hub, *np.append(old.ends, added[0], 1),
            np.append(old.lengths, lengths))
    verts = np.array(data.draw(st.permutations(verts.tolist() + [n] * hub)))
    edges = np.array(data.draw(st.permutations(
        edges.tolist() + list(range(m, m + len(new))))), dtype=np.intp)
    got = old.take(verts, edges, added if new else None)
    n_ref, arrays, max_degree, min_length, name = reference_take(
        full, verts, edges, g.vertices)
    assert (got.n, got.max_degree, got.min_length, got.name()) \
        == (n_ref, max_degree, min_length, name)
    assert (type(got.max_degree), type(got.min_length)) == (int, float)
    mine = (got.tails, got.heads, got.lengths, got.loops, got.scatter)
    assert len(mine) == len(arrays)
    for a, b in zip(mine, arrays):
        assert (a.dtype, a.shape, a.flags.writeable) \
            == (b.dtype, b.shape, False)
        assert np.array_equal(a, b)


def test_components_empty_graph():
    assert components(MetricGraph.from_edges([], [])) == []


def test_first_betti():
    assert first_betti(cycle(3)) == (1,)
    assert first_betti(complete4()) == (3,)
    tree = MetricGraph.from_edges(
        list("abcde"),
        [("a", "b", 1.0), ("b", "c", 1.0), ("b", "d", 1.0), ("d", "e", 1.0)])
    assert first_betti(tree) == (0,)


def test_reduce_tree_is_trivial_and_empty():
    res = reduce(path3(1.0, 2.0))
    assert res.kinds == (ComponentKind.TRIVIAL,)
    assert res.graph.vertices == ()
    assert res.graph.darts == ()


def test_reduce_c4_to_single_loop_of_length_4():
    res = reduce(c4())
    assert res.kinds == (ComponentKind.SINGLE_CYCLE,)
    assert len(res.graph.vertices) == 1
    edges = res.graph.edge_list()
    assert len(edges) == 1
    u, v, length = edges[0]
    assert u == v
    assert length == pytest.approx(4.0)
    assert res.graph.vertices[0] in c4().vertex_set


def test_reduce_k4_unchanged():
    g = complete4()
    res = reduce(g)
    assert res.kinds == (ComponentKind.HYPERBOLIC,)
    assert same_graph(res.graph, g)


def test_reduce_strips_hanging_tree_from_core():
    g = add_vertex(complete4(), [("a", 0.7)], new_id="leaf")
    res = reduce(g)
    assert res.kinds == (ComponentKind.HYPERBOLIC,)
    assert same_graph(res.graph, complete4())


def test_reduce_idempotent():
    g = MetricGraph.from_edges(
        ["a", "b", "c", "d", "e"],
        [("a", "b", 1.0), ("b", "c", 2.0), ("c", "a", 0.5),
         ("c", "d", 1.0), ("d", "a", 1.0), ("d", "e", 3.0)])
    once = reduce(g)
    twice = reduce(once.graph)
    assert same_graph(once.graph, twice.graph)
    assert once.kinds == twice.kinds


def test_reduce_betti_invariant_for_hyperbolic():
    g = add_vertex(complete4(), [("a", 1.0)], new_id="leaf")
    assert first_betti(g) == first_betti(reduce(g).graph)


def test_reduce_mixed_disjoint_graph():
    g = MetricGraph.from_edges(
        ["t1", "t2", "c1", "c2", "c3", "k"],
        [("t1", "t2", 1.0),
         ("c1", "c2", 1.0), ("c2", "c3", 1.0), ("c3", "c1", 1.5),
         ("k", "k", 1.0), ("k", "k", 2.0)])
    res = reduce(g)
    assert res.kinds == (ComponentKind.SINGLE_CYCLE, ComponentKind.HYPERBOLIC,
                         ComponentKind.TRIVIAL)
    assert first_betti(res.graph) == (1, 2)


@settings(max_examples=200, deadline=None)
@given(mixed_graphs())
def test_reduce_matches_reference_on_mixed_graphs(g):
    # trees, single cycles with hanging trees and multigraphs side by
    # side: the core of reference_reduce, up to edge order, orientation
    # and the rounding of each merged length
    check_reduce(g)


def test_add_edge_chord():
    g = add_edge(c4(), "a", "c", 1.0)
    assert g.edge_count == 5
    assert c4().edge_count == 4  # input unchanged


def test_add_edge_loop_allowed():
    g = add_edge(c4(), "a", "a", 2.0)
    assert validate(g) == ()
    assert g.degree("a") == 4


def test_add_edge_errors():
    with pytest.raises(NonPositiveLength):
        add_edge(c4(), "a", "c", -1.0)
    with pytest.raises(UnknownVertex):
        add_edge(c4(), "a", "nope", 1.0)


def test_add_edge_delete_round_trip():
    g = c4()
    g2 = add_edge(g, "a", "c", 1.0)
    new_dart = g2.darts[-1]
    assert same_graph(delete_edge(g2, new_dart.id), g)


def test_add_vertex_three_spokes():
    g = add_vertex(c4(), [("a", 1.0), ("b", 1.0), ("c", 1.0)])
    assert len(g.vertices) == 5
    assert g.edge_count == 7
    assert validate(g) == ()


def test_add_vertex_single_attachment_reduces_away():
    g = add_vertex(c4(), [("a", 1.0)])
    assert validate(g) == ()
    res = reduce(g)
    assert res.kinds == (ComponentKind.SINGLE_CYCLE,)


def test_add_vertex_errors():
    with pytest.raises(UnknownVertex):
        add_vertex(c4(), [("missing", 1.0)])
    with pytest.raises(ValueError):
        add_vertex(c4(), [])
    with pytest.raises(NonPositiveLength):
        add_vertex(c4(), [("a", 0.0)])


def test_add_vertex_fresh_id_avoids_collision():
    g = MetricGraph.from_edges(["v0", "v1"], [("v0", "v1", 1.0)])
    g2 = add_vertex(g, [("v0", 1.0)])
    assert len(set(g2.vertices)) == 3


def test_add_vertex_skips_a_taken_generated_id():
    # four vertices give v4 first, which is taken: the next free is v5
    g = MetricGraph.from_edges(["v0", "v1", "v2", "v4"], [
        ("v0", "v1", 1.0), ("v1", "v2", 1.0), ("v2", "v4", 1.0)])
    assert add_vertex(g, [("v0", 1.0)]).vertices[-1] == "v5"


def test_same_graph_needs_the_same_vertices():
    # the same edges beside one more, isolated vertex: not the same graph
    g = c4()
    assert same_graph(g, g)
    assert not same_graph(
        g, MetricGraph.from_edges(g.vertices + ("e",), g.edge_list()))


def test_delete_vertex():
    g = delete_vertex(complete4(), "a")
    assert set(g.vertices) == {"b", "c", "d"}
    assert g.edge_count == 3


def test_rose_and_theta_shapes():
    r = rose(2)
    assert r.degree("v") == 4
    assert len(r.darts) == 4
    t = theta()
    assert t.degree("x") == 3
    assert segment().degree("x") == 1
