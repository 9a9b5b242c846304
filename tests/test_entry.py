"""Entry checks shared by every public function: unknown vertex names and
invalid graphs."""

import pytest

from entrograph import (Dart, EnumerationSpec, MetricGraph, PathKind,
                        PreconditionError, UnknownVertex, ValidationFailed,
                        add_edge, add_vertex, backtracking_bound,
                        backtracking_entropy, check_symmetry, delete_vertex,
                        entropy_after_edge, entropy_after_vertex,
                        enumerate_paths, estimate_constant_C, f_from, f_path,
                        fit_edge_asymptotic, g_primitive, generate_graph,
                        growth_bounds, horizon_for_budget, laplace_check,
                        persistent_entropy, predict_vertex_asymptotic,
                        primitive_matrix, reduce, rho_curve, validate,
                        verify_recursions, volume_entropy)
from entrograph.graph import component_of

G = generate_graph(1, 10, 20)


def _spec(kind, **ends):
    return EnumerationSpec(kind, 5.0, **ends)


UNKNOWN = {
    "component_of": lambda: component_of(G, "nope"),
    "delete_vertex": lambda: delete_vertex(G, "nope"),
    "degree": lambda: G.degree("nope"),
    "add_edge": lambda: add_edge(G, "v0", "nope", 1.0),
    "add_vertex": lambda: add_vertex(G, [("v0", 1.0), ("nope", 1.0)]),
    "from_edges": lambda: MetricGraph.from_edges(
        G.vertices, G.edge_list() + (("nope", "v0", 1.0),)),
    "f_path-x": lambda: f_path(G, "nope", "v0", 2.0),
    "f_path-y": lambda: f_path(G, "v0", "nope", 2.0),
    "f_from": lambda: f_from(G, "nope", 2.0),
    "primitive_matrix": lambda: primitive_matrix(G, "nope", 2.0),
    "g_primitive": lambda: g_primitive(G, "nope", 1, 1, 2.0),
    "horizon_for_budget": lambda: horizon_for_budget(G, "nope", 100),
    "enumerate_paths-x": lambda: enumerate_paths(
        G, _spec(PathKind.PATHS_XY, x="nope", y="v0")),
    "enumerate_paths-y": lambda: enumerate_paths(
        G, _spec(PathKind.PATHS_XY, x="v0", y="nope")),
    "enumerate_paths-v": lambda: enumerate_paths(
        G, _spec(PathKind.CYCLES_AT, v="nope")),
    "backtracking_entropy": lambda: backtracking_entropy(G, "nope"),
    "backtracking_bound": lambda: backtracking_bound(G, "nope", 5.0),
    # v is looked up before G is found not to be reduced
    "growth_bounds": lambda: growth_bounds(G, "nope", 5.0),
    "growth_bounds-reduced": lambda: growth_bounds(
        reduce(G).graph, "nope", 5.0),
    "verify_recursions": lambda: verify_recursions(G, "nope", r_max=5.0),
    "entropy_after_edge-x": lambda: entropy_after_edge(G, "nope", "v0", 1.0),
    "entropy_after_edge-y": lambda: entropy_after_edge(G, "v0", "nope", 1.0),
    "entropy_after_vertex": lambda: entropy_after_vertex(
        G, [("v0", 1.0), ("nope", 1.0), ("v1", 1.0)]),
    "fit_edge_asymptotic": lambda: fit_edge_asymptotic(
        G, "v0", "nope", [4.0, 5.0, 6.0]),
    "predict_vertex_asymptotic": lambda: predict_vertex_asymptotic(
        G, [("v0", 9.0), ("nope", 9.0), ("v1", 9.0)]),
    "estimate_constant_C-x": lambda: estimate_constant_C(G, "nope", "v0"),
    # an unknown y is an error, not a pair in two components
    "estimate_constant_C-y": lambda: estimate_constant_C(G, "v0", "nope"),
}


@pytest.mark.parametrize("call", UNKNOWN.values(), ids=UNKNOWN.keys())
def test_every_entry_rejects_an_unknown_vertex(call):
    with pytest.raises(UnknownVertex) as info:
        call()
    assert str(info.value) == "unknown vertex 'nope'"


# the reversal fixed point of test_validate_reports_reversal_fixed_point
BAD = MetricGraph(("x", "y"), (Dart(0, "x", "y", 1.0, 0),
                               Dart(1, "y", "x", 1.0, 1)))


# every public query that takes a graph, on vertices BAD has
INVALID = {
    "volume_entropy": lambda: volume_entropy(BAD),
    "rho_curve": lambda: rho_curve(BAD, [1.0]),
    "persistent_entropy": lambda: persistent_entropy(BAD),
    "f_path": lambda: f_path(BAD, "x", "y", 2.0),
    "f_from": lambda: f_from(BAD, "x", 2.0),
    "g_primitive": lambda: g_primitive(BAD, "x", 1, 1, 2.0),
    "primitive_matrix": lambda: primitive_matrix(BAD, "x", 2.0),
    "check_symmetry": lambda: check_symmetry(BAD, "x", "y", 2.0),
    "enumerate_paths": lambda: enumerate_paths(
        BAD, _spec(PathKind.CYCLES_AT, v="x")),
    "horizon_for_budget": lambda: horizon_for_budget(BAD, "x", 100),
    "laplace_check": lambda: laplace_check(enumerate_paths(
        G, _spec(PathKind.PATHS_FROM, x="v0")), BAD, 2.0),
    "verify_recursions": lambda: verify_recursions(BAD, "x", r_max=5.0),
    "growth_bounds": lambda: growth_bounds(BAD, "x", 5.0),
    "backtracking_bound": lambda: backtracking_bound(BAD, "x", 5.0),
    "backtracking_entropy": lambda: backtracking_entropy(BAD, "x"),
    "entropy_after_edge": lambda: entropy_after_edge(BAD, "x", "y", 1.0),
    "entropy_after_vertex": lambda: entropy_after_vertex(
        BAD, [("x", 1.0), ("y", 1.0), ("x", 1.0)]),
    "fit_edge_asymptotic": lambda: fit_edge_asymptotic(
        BAD, "x", "y", [4.0, 5.0, 6.0]),
    "predict_vertex_asymptotic": lambda: predict_vertex_asymptotic(
        BAD, [("x", 9.0), ("y", 9.0), ("x", 9.0)]),
    "estimate_constant_C": lambda: estimate_constant_C(BAD, "x", "y"),
}


@pytest.mark.parametrize("call", INVALID.values(), ids=INVALID.keys())
def test_solvers_reject_an_invalid_graph_with_its_report(call):
    with pytest.raises(ValidationFailed) as info:
        call()
    assert info.value.report == validate(BAD)
    assert any("fixed point" in line for line in info.value.report)


@pytest.mark.parametrize("call", [
    lambda: enumerate_paths(BAD, _spec(PathKind.CYCLES_AT, v="x")),
    lambda: growth_bounds(BAD, "x", 5.0),
], ids=["enumerate_paths", "growth_bounds"])
def test_counting_rejects_an_invalid_graph_as_a_precondition(call):
    with pytest.raises(PreconditionError):
        call()
