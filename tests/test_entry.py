"""Entry checks shared by every public function: unknown vertex names,
and invalid darts, which no graph can hold, so no query can receive."""

import dataclasses
from fractions import Fraction

import numpy as np
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
                        primitive_matrix, reduce, rho_curve,
                        verify_recursions, volume_entropy)
from entrograph.graph import component_of
from helpers import c4

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


def _pair(u, v, length=1.0, back=None):
    """Darts 0 and 1 of an edge [u, v]; ``back``, if given, is dart 1's
    (tail, head, length) in place of (v, u, length)."""
    bu, bv, bl = back or (v, u, length)
    return Dart(0, u, v, length, 1), Dart(1, bu, bv, bl, 0)


# one graph per report line of validate: (vertices, darts, the line)
INVALID_DARTS = {
    "duplicate-vertex": (("x", "x"), (), "duplicate vertex identifiers"),
    "id-not-position": (("x", "y"), (Dart(0, "x", "y", 1.0, 1),
                                     Dart(3, "y", "x", 1.0, 0)),
                        "dart 3: id does not match its position"),
    "non-positive-length": (("x", "y"), _pair("x", "y", 0.0),
                            "dart 0: non-positive length 0.0"),
    "unknown-tail": (("x",), _pair("w", "x"), "dart 0: unknown tail 'w'"),
    "unknown-head": (("x",), _pair("x", "w"), "dart 0: unknown head 'w'"),
    "reversal-out-of-range": (("x", "y"), (Dart(0, "x", "y", 1.0, 2),
                                           Dart(1, "y", "x", 1.0, 0)),
                              "dart 0: reversal 2 out of range"),
    "reversal-fixed-point": (("x", "y"), (Dart(0, "x", "y", 1.0, 0),
                                          Dart(1, "y", "x", 1.0, 1)),
                             "dart 0: reversal fixed point"),
    "not-an-involution": (("x", "y", "z"), _pair("x", "y") + (
        Dart(2, "y", "z", 1.0, 1), Dart(3, "z", "y", 1.0, 2)),
        "dart 2: reversal is not an involution"),
    "endpoints-not-swapped": (("x", "y"), _pair(
        "x", "y", back=("x", "y", 1.0)),
        "dart 0: reversal does not swap endpoints"),
    "unequal-lengths": (("x", "y"), _pair("x", "y", back=("y", "x", 2.0)),
                        "dart 0: paired darts have unequal lengths"),
    # float() overflows on it: a huge int is judged, not raised
    "huge-int-length": (("x", "y"), _pair("x", "y", 10**400),
                        f"dart 0: non-positive length {10**400!r}"),
    # more digits than Python prints: named by its size, not raised
    "unprintable-int-length": (("x", "y"), _pair("x", "y", 10**5000),
                               "dart 0: non-positive length int of 16610 "
                               "bits"),
    # a length of another type is named as such, not as non-positive
    "numpy-int-length": (("x", "y"), _pair("x", "y", np.int64(3)),
                         f"dart 0: length {np.int64(3)!r} is not an int "
                         "or a float"),
    "fraction-length": (("x", "y"), _pair("x", "y", Fraction(3, 2)),
                        "dart 0: length Fraction(3, 2) is not an int or a "
                        "float"),
    "string-length": (("x", "y"), _pair("x", "y", "3"),
                      "dart 0: length '3' is not an int or a float"),
}


@pytest.mark.parametrize("case", INVALID_DARTS, ids=str)
def test_invalid_darts_are_refused_at_construction(case):
    vertices, darts, line = INVALID_DARTS[case]
    with pytest.raises(ValidationFailed) as info:
        MetricGraph(vertices, darts)
    assert type(info.value) is ValidationFailed
    assert isinstance(info.value, PreconditionError)
    assert line in info.value.report


# the reversal fixed point of test_validate_reports_reversal_fixed_point;
# building it raises, so each query below is refused before it runs
def bad():
    return MetricGraph(("x", "y"), (Dart(0, "x", "y", 1.0, 0),
                                    Dart(1, "y", "x", 1.0, 1)))


# every public query that takes a graph, handed the darts of bad()
INVALID = {
    "volume_entropy": lambda: volume_entropy(bad()),
    "rho_curve": lambda: rho_curve(bad(), [1.0]),
    "persistent_entropy": lambda: persistent_entropy(bad()),
    "f_path": lambda: f_path(bad(), "x", "y", 2.0),
    "f_from": lambda: f_from(bad(), "x", 2.0),
    "g_primitive": lambda: g_primitive(bad(), "x", 1, 1, 2.0),
    "primitive_matrix": lambda: primitive_matrix(bad(), "x", 2.0),
    "check_symmetry": lambda: check_symmetry(bad(), "x", "y", 2.0),
    "enumerate_paths": lambda: enumerate_paths(
        bad(), _spec(PathKind.CYCLES_AT, v="x")),
    "horizon_for_budget": lambda: horizon_for_budget(bad(), "x", 100),
    "laplace_check": lambda: laplace_check(enumerate_paths(
        G, _spec(PathKind.PATHS_FROM, x="v0")), bad(), 2.0),
    "verify_recursions": lambda: verify_recursions(bad(), "x", r_max=5.0),
    "growth_bounds": lambda: growth_bounds(bad(), "x", 5.0),
    "backtracking_bound": lambda: backtracking_bound(bad(), "x", 5.0),
    "backtracking_entropy": lambda: backtracking_entropy(bad(), "x"),
    "entropy_after_edge": lambda: entropy_after_edge(bad(), "x", "y", 1.0),
    "entropy_after_vertex": lambda: entropy_after_vertex(
        bad(), [("x", 1.0), ("y", 1.0), ("x", 1.0)]),
    "fit_edge_asymptotic": lambda: fit_edge_asymptotic(
        bad(), "x", "y", [4.0, 5.0, 6.0]),
    "predict_vertex_asymptotic": lambda: predict_vertex_asymptotic(
        bad(), [("x", 9.0), ("y", 9.0), ("x", 9.0)]),
    "estimate_constant_C": lambda: estimate_constant_C(bad(), "x", "y"),
}


@pytest.mark.parametrize("call", INVALID.values(), ids=INVALID.keys())
def test_solvers_reject_an_invalid_graph_with_its_report(call):
    with pytest.raises(ValidationFailed) as info:
        call()
    assert info.value.report == ("dart 0: reversal fixed point",
                                 "dart 1: reversal fixed point")


@pytest.mark.parametrize("call", [INVALID["enumerate_paths"],
                                  INVALID["growth_bounds"]],
                         ids=["enumerate_paths", "growth_bounds"])
def test_counting_rejects_an_invalid_graph_as_a_precondition(call):
    with pytest.raises(PreconditionError):
        call()


def test_replace_cannot_make_an_invalid_graph():
    g = c4()
    fixed = (dataclasses.replace(g.darts[0], reverse=0),) + g.darts[1:]
    with pytest.raises(ValidationFailed) as info:
        dataclasses.replace(g, darts=fixed)
    assert "dart 0: reversal fixed point" in info.value.report
