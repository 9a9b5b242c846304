"""Edge/vertex-addition solvers, asymptotics and constants."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg.lapack import dpotrf

from entrograph import (DisconnectedPair, EntrographError, MetricGraph,
                        NonPositiveLength, PreconditionError,
                        TooFewAttachments, TransferMode, UnknownVertex,
                        add_edge, add_vertex, backtracking_entropy,
                        entropy_after_edge, entropy_after_vertex,
                        estimate_constant_C, f_path, fit_edge_asymptotic,
                        generate_graph, predict_edge_asymptotic,
                        predict_vertex_asymptotic, primitive_matrix,
                        vertex_matrix, volume_entropy)
from entrograph import entropy, incremental
from entrograph.entropy import _vertex_root
from entrograph.spectral import _assemble, _vertex_terms
from helpers import (c4, complete4, cycle, dfs_components, disjoint_union,
                     dumbbell, eig_entropy, multigraphs, path3,
                     reference_edge, reference_vertex, rose,
                     split_multigraphs, theta)


def quintic_root_h():
    """Oracle for the C4-plus-unit-chord entropy: with u = e^{-t} the
    defining equation reduces to 2u^5 + u^4 + 2u^3 = 1."""
    roots = np.roots([2.0, 1.0, 2.0, 0.0, 0.0, -1.0])
    u = next(r.real for r in roots
             if abs(r.imag) < 1e-12 and 0.0 < r.real < 1.0)
    return -math.log(u)


def test_c4_chord_matches_quintic_oracle():
    res = entropy_after_edge(c4(), "a", "c", 1.0)
    expected = quintic_root_h()
    assert expected == pytest.approx(0.4196, abs=2e-4)
    assert res.h_prime == pytest.approx(expected, abs=1e-9)
    assert res.residual <= 1e-10
    assert res.h_base == 0.0


def test_edge_addition_matches_direct_solver():
    res = entropy_after_edge(c4(), "a", "c", 1.0)
    direct = volume_entropy(add_edge(c4(), "a", "c", 1.0)).h
    assert abs(res.h_prime - direct) <= 1e-8


def test_edge_addition_preconditions():
    # an adjacent pair, a loop and a pair in two components are cases of
    # the edge operator, not precondition errors
    for x, y in (("a", "b"), ("a", "a")):
        res = entropy_after_edge(c4(), x, y, 1.0)
        assert res.h_prime == pytest.approx(
            volume_entropy(add_edge(c4(), x, y, 1.0)).h, abs=1e-9)
    two = MetricGraph.from_edges(["x", "y", "p", "q"],
                                 [("x", "y", 1.0), ("p", "q", 1.0)])
    assert entropy_after_edge(two, "x", "p", 1.0).h_prime == 0.0
    with pytest.raises(DisconnectedPair):
        entropy_after_vertex(two, [("x", 1.0), ("y", 1.0), ("p", 1.0)])
    with pytest.raises(PreconditionError):
        entropy_after_edge(c4(), "a", "c", 0.0)
    with pytest.raises(UnknownVertex):
        entropy_after_edge(c4(), "a", "z", 1.0)


def _renamed(g, prefix):
    return MetricGraph.from_edges(
        [prefix + v for v in g.vertices],
        [(prefix + u, prefix + v, l) for u, v, l in g.edge_list()])


def _edge_gap(g, x, y, l0):
    res = entropy_after_edge(g, x, y, l0)
    return abs(res.h_prime - volume_entropy(add_edge(g, x, y, l0)).h)


def test_parallel_edge_matches_direct():
    g = generate_graph(1, 10, 20)
    pairs = [(d.tail, d.head) for d in g.edge_darts() if d.tail != d.head]
    for x, y in pairs[:3]:
        for l0 in (0.5, 2.0):
            assert _edge_gap(g, x, y, l0) <= 1e-9


def test_loop_matches_direct():
    # rose-2 plus a unit loop is rose-3, with h = log 5; Phi with x = y
    # (e^{l0 t} = 2 f_xx) would give h = -log((sqrt(41) - 3) / 16) = 1.548
    res = entropy_after_edge(rose(2), "v", "v", 1.0)
    assert res.h_prime == pytest.approx(math.log(5.0), abs=1e-12)
    for args in ((1, 10, 20), (2, 8, 14), (3, 6, 10)):
        for l0 in (0.3, 3.0):
            assert _edge_gap(generate_graph(*args), "v1", "v1", l0) <= 1e-9


def test_merge_of_two_hyperbolic_components():
    a, b = generate_graph(1, 6, 10), _renamed(generate_graph(2, 5, 9), "b")
    g = disjoint_union([a, b])
    for l0 in (0.5, 4.0):
        res = entropy_after_edge(g, "v0", "bv1", l0)
        assert res.h_base == max(_vertex_root(a).h, _vertex_root(b).h)
        direct = max(volume_entropy(a).h, volume_entropy(b).h)
        assert abs(res.h_base - direct) <= 1e-12 * direct
        assert _edge_gap(g, "v0", "bv1", l0) <= 1e-9


def test_merge_with_single_cycle():
    g = disjoint_union([generate_graph(1, 6, 10),
                        cycle(5, [1.0, 1.3, 0.7, 2.0, 1.1])])
    for l0 in (0.5, 4.0):
        assert _edge_gap(g, "v2", "c1", l0) <= 1e-9
    # two single cycles merge into a hyperbolic component from h = 0
    pair = disjoint_union([cycle(3, [1.0, 1.5, 0.5]),
                           _renamed(rose(1, 0.7), "r")])
    assert _edge_gap(pair, "c0", "rv", 3.0) <= 1e-9


def test_merge_with_tree_keeps_entropy_exactly():
    a = generate_graph(1, 6, 10)
    g = disjoint_union([a, path3()])
    res = entropy_after_edge(g, "v0", "y", 1.0)
    assert res.h_prime == _vertex_root(a).h
    assert abs(res.h_prime - volume_entropy(a).h) <= 1e-12 * res.h_prime
    assert res.iterations == 0
    assert _edge_gap(g, "v0", "y", 1.0) <= 1e-9


def test_degree_one_vertex_keeps_entropy():
    # a new vertex with one edge is a pendant edge from an isolated vertex
    a = generate_graph(1, 6, 10)
    g = MetricGraph.from_edges(a.vertices + ("w",), a.edge_list())
    res = entropy_after_edge(g, "w", "v3", 2.0)
    assert res.h_prime == _vertex_root(a).h and res.iterations == 0
    assert abs(res.h_prime - volume_entropy(a).h) <= 1e-12 * res.h_prime
    direct = volume_entropy(add_vertex(a, [("v3", 2.0)])).h
    assert res.h_prime == pytest.approx(direct, abs=1e-9)


def test_degree_two_vertex_is_one_edge():
    # one edge of length l1 + l2 between the targets: a plain edge, a
    # loop when the targets coincide, a merge across two components
    a = generate_graph(1, 6, 10)
    g = disjoint_union([a, _renamed(generate_graph(2, 5, 9), "b")])
    for x, y in (("v0", "v4"), ("v2", "v2"), ("v0", "bv1")):
        att = [(x, 0.6), (y, 1.1)]
        res = entropy_after_edge(g, x, y, 1.7)
        direct = volume_entropy(add_vertex(g, att)).h
        assert res.h_prime == pytest.approx(direct, abs=1e-9)


def test_edge_addition_monotone_in_length():
    values = [entropy_after_edge(c4(), "a", "c", l).h_prime
              for l in (0.5, 1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_edge_addition_strictly_increases_hyperbolic_base():
    g = dumbbell()
    h = volume_entropy(g).h
    res = entropy_after_edge(g, "a", "b", 2.0)
    assert res.h_prime > h
    direct = volume_entropy(add_edge(g, "a", "b", 2.0)).h
    assert abs(res.h_prime - direct) <= 1e-8


@pytest.mark.parametrize("l0", [100.0, 200.0])
def test_long_edge_root_pinched_against_base(l0):
    # h' - h is far below float resolution here, and the Cholesky of the
    # base M(t) fails a few ulps above h; the Schur complement K(t) on the
    # ends of the edge stays smooth across h, so Newton steps cross it.
    res = entropy_after_edge(dumbbell(), "a", "b", l0)
    direct = volume_entropy(add_edge(dumbbell(), "a", "b", l0)).h
    assert abs(res.h_prime - direct) <= 1e-8
    # the residual |lambda_min(K(h'))| is still meaningful there
    assert res.residual <= 1e-12


def test_iterations_count_each_equation_evaluation(monkeypatch):
    # every evaluation of lambda_min(K(t)) factors M_RR, the block of M(t)
    # away from the ends of the new edges, once
    made = []

    def counting_dpotrf(*args, **kwargs):
        made.append(1)
        return dpotrf(*args, **kwargs)
    monkeypatch.setattr(entropy, "dpotrf", counting_dpotrf)
    res = entropy_after_edge(c4(), "a", "c", 1.0)
    assert res.iterations == len(made) > 0
    made.clear()
    res = entropy_after_vertex(c4(), [("a", 1.0), ("b", 1.0), ("c", 1.0)])
    assert res.iterations == len(made) > 0


def test_paper_equations_hold_at_the_returned_roots():
    # the residual is |lambda_min(K(h'))|; the paper's own equations,
    # evaluated through the path generating functions, vanish at h' too
    res = entropy_after_edge(c4(), "a", "c", 1.0)
    t = res.h_prime
    f_ac, f_aa, f_cc = (f_path(c4(), x, y, t).value
                        for x, y in (("a", "c"), ("a", "a"), ("c", "c")))
    assert abs(1.0 - math.exp(-t) * (f_ac + math.sqrt(f_aa * f_cc))) \
        <= 1e-12
    assert res.residual <= 1e-12
    # rho((D A)(h')) = 1 for a new vertex, D from the primitive cycles at
    # the vertex in the edited graph
    att = [("a", 1.0), ("b", 1.0), ("c", 1.0)]
    res = entropy_after_vertex(c4(), att)
    g = add_vertex(c4(), att)
    hub = next(v for v in g.vertices if v not in c4().vertex_set)
    d = primitive_matrix(g, hub, res.h_prime)
    a = np.ones_like(d) - np.eye(len(d))
    assert np.abs(np.linalg.eigvals(d @ a)).max() == \
        pytest.approx(1.0, rel=1e-12, abs=0.0)
    assert res.residual <= 1e-12
    # g(h) = 1 for the backtracking primitive cycles at x, route 2 of
    # backtracking_entropy
    g = theta((1.0, 1.3, 0.7))
    bt = backtracking_entropy(g, "x")
    g_sum = primitive_matrix(g, "x", bt.h_g_root,
                             mode=TransferMode.BACKTRACKING).sum()
    assert abs(g_sum - 1.0) <= 1e-12
    assert bt.residual_g <= 1e-12


def test_resolvent_solve_that_loses_its_sign_diverges():
    # at t = 1e-6 the Cholesky of M(t) of this single-cycle base succeeds,
    # but the refined columns of M^{-1} come out near -2.9e7; clamped to
    # f = 0 they made 1e-6 the upper end of the root, and h' = 1e-6
    l = 0.026032510230624698
    g = MetricGraph.from_edges(["v0", "v1", "v2", "v3"], [
        ("v1", "v0", l), ("v2", "v1", l), ("v2", "v1", l), ("v3", "v0", l)])
    assert not f_path(g, "v3", "v0", 1e-6).converged
    res = entropy_after_edge(g, "v3", "v0", 4.624224567217251)
    direct = volume_entropy(add_edge(g, "v3", "v0", 4.624224567217251)).h
    assert direct == pytest.approx(0.9351146783879258, abs=1e-9)
    assert abs(res.h_prime - direct) <= 1e-8
    assert res.residual <= 1e-10


@st.composite
def edits(draw):
    """A multigraph with an edge (loops and parallel edges included) or a
    vertex of 3 or 4 edges to add, lengths 10^U(-3, 3)."""
    g = draw(multigraphs())
    verts, lengths = st.sampled_from(g.vertices), \
        st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    if draw(st.booleans()):
        return g, (draw(verts), draw(verts), draw(lengths)), None
    n = draw(st.integers(3, 4))
    return g, None, [(draw(verts), draw(lengths)) for _ in range(n)]


@settings(max_examples=100, deadline=None)
@given(edits())
def test_edits_match_the_vertex_root_on_multigraphs(edit):
    # the worst relative gap over 6000 random draws was 1.2e-12; an added
    # loop of 0.001 at t l_min = 5e-5 gave 2.9e-12, with the dense
    # dart-matrix h between the two
    g, edge, attachments = edit
    if edge is not None:
        res = entropy_after_edge(g, *edge)
        ref = _vertex_root(add_edge(g, *edge)).h
    else:
        res = entropy_after_vertex(g, attachments)
        ref = _vertex_root(add_vertex(g, attachments)).h
    assert abs(res.h_prime - ref) <= 1e-11 * ref
    assert res.h_prime >= res.h_base


@st.composite
def split_edits(draw):
    """A ``split_multigraphs()`` graph with an edge to add between any two
    of its vertices (a loop, a parallel edge, a merge, a pendant edge from
    an isolated vertex), or a vertex of 3 or 4 edges whose targets lie,
    most of the time, in one component."""
    g = draw(split_multigraphs())
    lengths = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)
    if draw(st.booleans()):
        x, y = draw(st.sampled_from(g.vertices)), \
            draw(st.sampled_from(g.vertices))
        return g, (x, y, draw(lengths)), None
    first = draw(st.sampled_from(g.vertices))
    pool = next(c for c in dfs_components(g) if first in c.vertex_set) \
        if draw(st.integers(0, 3)) else g
    targets = [first] + [draw(st.sampled_from(pool.vertices))
                         for _ in range(draw(st.integers(2, 3)))]
    return g, None, [(v, draw(lengths)) for v in targets]


def _outcome(call):
    try:
        return call()
    except EntrographError as exc:  # the class is the outcome
        return type(exc)


# a rose, a theta and an isolated vertex w: a pendant edge from w, a
# merge, a loop at w, and a vertex across two components
_SPLIT = disjoint_union([rose(2), theta(),
                         MetricGraph.from_edges(["w"], [])])


@settings(max_examples=150, deadline=None)
@given(split_edits())
@example((_SPLIT, ("w", "v", 2.0), None))
@example((_SPLIT, ("v", "x", 1.5), None))
@example((_SPLIT, ("w", "w", 0.5), None))
@example((_SPLIT, None, [("v", 1.0), ("x", 1.0), ("y", 1.0)]))
def test_edits_equal_the_rebuild_on_multigraphs(edit):
    # the join on the full graph's index arrays gives the rebuilt graph's
    # result on every field, bit for bit, or raises the same class
    g, edge, attachments = edit
    if edge is not None:
        res = _outcome(lambda: entropy_after_edge(g, *edge))
        ref = _outcome(lambda: reference_edge(g, *edge))
    else:
        res = _outcome(lambda: entropy_after_vertex(g, attachments))
        ref = _outcome(lambda: reference_vertex(g, attachments))
    assert res == ref


def test_edits_take_the_schur_step_on_small_components(monkeypatch):
    # the edits share the persistence walk's join, but on a 10-vertex
    # component, where "auto" would solve whole, they keep the Schur step
    calls = []
    for name in ("_cold_root", "_schur_root"):
        solve = getattr(incremental, name)
        monkeypatch.setattr(incremental, name,
                            lambda *a, name=name, solve=solve:
                            calls.append(name) or solve(*a))
    g = generate_graph(1, 10, 20)
    entropy_after_edge(g, "v0", "v5", 1.0)
    entropy_after_edge(g, "v2", "v2", 0.5)
    entropy_after_vertex(g, [("v1", 1.0), ("v3", 0.5), ("v7", 2.0)])
    assert calls == ["_schur_root"] * 3


@pytest.mark.parametrize("length, error", [
    (0.0, NonPositiveLength), (-1.0, NonPositiveLength),
    (math.nan, NonPositiveLength), (math.inf, NonPositiveLength)])
def test_edit_lengths_are_checked(length, error):
    # each length is checked before the edit is built, and the message
    # names the real vertices of the new edge; 0 and -1 raised a plain
    # PreconditionError before the edits took graph._check_length
    g = generate_graph(1, 10, 20)
    att = [("v0", 1.0), ("v1", length), ("v2", 1.0)]
    for call, names in (
            (lambda: entropy_after_edge(g, "v0", "v3", length), "[v0, v3]"),
            (lambda: entropy_after_vertex(g, att), "'v1'"),
            (lambda: predict_vertex_asymptotic(g, att), "'v1'")):
        with pytest.raises(error) as info:
            call()
        assert type(info.value) is error
        assert names in str(info.value) and "+" not in str(info.value)


BAD_LENGTH_CALLS = {
    "from_edges": (lambda g, att, l: MetricGraph.from_edges(
        ["a", "b"], [("a", "b", 1.0), ("a", "b", l)]), "edge [a, b]"),
    "add_edge": (lambda g, att, l: add_edge(g, "v0", "v3", l),
                 "edge [v0, v3]"),
    "add_vertex": (lambda g, att, l: add_vertex(g, att), "edge [v10, v7]"),
    "entropy_after_edge": (lambda g, att, l: entropy_after_edge(
        g, "v0", "v3", l), "edge [v0, v3]"),
    "entropy_after_vertex": (lambda g, att, l: entropy_after_vertex(g, att),
                             "attachment edge to 'v7'"),
    "predict_vertex_asymptotic": (lambda g, att, l: predict_vertex_asymptotic(
        g, att), "attachment edge to 'v7'"),
    "fit_edge_asymptotic": (lambda g, att, l: fit_edge_asymptotic(
        g, "v0", "v3", [1.0, 2.0, l]), "edge [v0, v3]"),
}


@pytest.mark.parametrize("call", BAD_LENGTH_CALLS, ids=str)
@pytest.mark.parametrize("length", [0.0, -1.0, math.nan, math.inf, -math.inf],
                         ids=repr)
def test_every_entry_point_refuses_a_bad_length_by_one_rule(call, length,
                                                            monkeypatch):
    # graph._check_length is the one length rule: every entry point that
    # builds or edits an edge raises exactly NonPositiveLength with its
    # message, which names the real vertices of the edge, before any
    # solve (the sweep of fit_edge_asymptotic solved its base and its
    # good lengths first)
    g = generate_graph(1, 10, 20)
    for name in ("_edit", "_vertex_root"):
        monkeypatch.setattr(incremental, name, lambda *a: pytest.fail(
            "solved before the lengths were checked"))
    att = [("v0", 1.0), ("v7", length), ("v2", 1.0)]
    run, edge = BAD_LENGTH_CALLS[call]
    with pytest.raises(NonPositiveLength) as info:
        run(g, att, length)
    assert type(info.value) is NonPositiveLength
    assert str(info.value) == f"{edge} has length {length!r}, " \
                              f"not in (0, inf)"


def test_edge_addition_tree_base_gives_zero():
    res = entropy_after_edge(path3(), "x", "z", 1.0)
    assert res.h_prime == 0.0 and res.iterations == 0


def test_vertex_addition_matches_direct():
    att = [("a", 1.0), ("b", 1.0), ("c", 1.0)]
    res = entropy_after_vertex(c4(), att)
    direct = volume_entropy(add_vertex(c4(), att)).h
    assert abs(res.h_prime - direct) <= 1e-8
    assert res.residual <= 1e-10


def test_vertex_addition_repeated_targets_bigon():
    att = [("a", 1.0), ("a", 1.0), ("b", 1.0)]
    res = entropy_after_vertex(c4(), att)
    direct = volume_entropy(add_vertex(c4(), att)).h
    assert abs(res.h_prime - direct) <= 1e-8


def test_vertex_addition_too_few():
    with pytest.raises(TooFewAttachments):
        entropy_after_vertex(c4(), [("a", 1.0), ("b", 1.0)])


def test_predict_edge_asymptotic_limits():
    assert predict_edge_asymptotic(0.7, 1.3, 1e9) == pytest.approx(0.7)
    assert predict_edge_asymptotic(0.7, 0.0, 3.0) == 0.7


def test_empty_sweep_is_refused():
    # the fit read a_vals[-1] and raised a bare IndexError
    with pytest.raises(PreconditionError, match="at least one edge length"):
        fit_edge_asymptotic(dumbbell(), "a", "b", [])


def test_edge_asymptotic_fit_converges():
    fit = fit_edge_asymptotic(dumbbell(), "a", "b", [5.0, 8.0, 12.0, 16.0])
    h = volume_entropy(dumbbell()).h
    scaled = [obs * math.exp(h * l) for l, obs, _ in fit.samples]
    diffs = [abs(b - a) for a, b in zip(scaled, scaled[1:])]
    assert all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))
    # prediction error relative to the correction scale shrinks with l
    errs = [abs(obs - pred) / math.exp(-h * l)
            for l, obs, pred in fit.samples[:-1]]
    assert errs[-1] < errs[0]
    assert 0.0 < fit.gamma < 1.0


def test_estimate_constant_rose2_methods_agree():
    est = estimate_constant_C(rose(2), "v", "v", method="both")
    combined = est.combined
    counting = est.details["combined_counting"]
    assert abs(combined - counting) <= 0.1 * combined
    # closed form: f_vv(t) = 4 e^{-t} / (1 - 3 e^{-t}) has residue-based
    # constant 4 e^{-h} / h at h = ln 3, so C = 2 c h = 8/3
    c_pair = 4.0 * math.exp(-math.log(3.0)) / math.log(3.0)
    assert est.per_pair["xy"] == pytest.approx(c_pair, rel=1e-9, abs=0.0)
    assert combined == pytest.approx(2.0 * c_pair * math.log(3.0), rel=1e-9,
                                     abs=0.0)
    # K4: on the all-ones vector M(t) = (1 - 2z)/(1 + z), z = e^{-t}, so
    # lambda'(ln 2) = 2/3 and C = 2 v_x v_y / lambda' = 2 (1/4) / (2/3)
    assert estimate_constant_C(complete4(), "a", "b").combined == \
        pytest.approx(0.75, rel=1e-9, abs=0.0)


def test_estimate_constant_warns_on_poor_horizon():
    # an under-resolved counting tail disagrees with the resolvent by
    # more than 20% and is flagged
    est = estimate_constant_C(theta((1.0, 1.2, 1.7)), "x", "y",
                              method="both", horizon=5.0)
    assert any("20%" in w for w in est.warnings)


def test_estimate_constant_sweep_agreement():
    fit = fit_edge_asymptotic(dumbbell(), "a", "b", [8.0, 12.0, 16.0])
    est = estimate_constant_C(dumbbell(), "a", "b")
    assert abs(fit.c - est.combined) <= 0.15 * est.combined


def test_estimate_constant_disconnected_pair_flagged():
    g = MetricGraph.from_edges(
        ["v", "p", "q"],
        [("v", "v", 1.0), ("v", "v", 1.0), ("p", "q", 1.0)])
    est = estimate_constant_C(g, "v", "p")
    assert est.per_pair["xy"] == 0.0
    assert est.combined == 0.0
    assert any("not connected" in w for w in est.warnings)


def test_predict_vertex_accurate_in_asymptotic_regime():
    g = complete4()
    att = [("a", 3.0), ("b", 3.0), ("c", 3.0)]
    pred = predict_vertex_asymptotic(g, att)
    actual = entropy_after_vertex(g, att).h_prime
    h = volume_entropy(g).h
    # the leading-order prediction captures most of the correction
    assert abs(pred.h_predicted - actual) < 0.5 * (actual - h)


def test_predict_vertex_closed_form_on_generic_graph():
    # the first-order correction w^T (J - I) w / lambda'(h); calibrating
    # by a solve at 5x the lengths pinched to h and predicted no change
    g = generate_graph(1, 10, 20)
    att = [("v0", 4.0), ("v3", 5.2), ("v7", 3.2)]
    pred = predict_vertex_asymptotic(g, att)
    h = volume_entropy(g).h
    delta = volume_entropy(add_vertex(g, att)).h - h
    assert pred.h_base == _vertex_root(g).h
    assert abs(pred.h_base - h) <= 1e-12 * h
    assert pred.h_predicted - h == pytest.approx(delta, rel=2e-2, abs=0.0)


def test_vertex_with_long_edges_matches_the_closed_form():
    # h' - h = 2.357e-12 here, so the first-order prediction is exact far
    # below an ulp of h and the solve must land within 3 ulps of it; a
    # search on 1 - rho(T), noisy near its pole, stopped 7 ulps away
    g = generate_graph(1, 10, 20)
    att = [("v0", 16.0), ("v3", 20.8), ("v7", 12.8)]
    res = entropy_after_vertex(g, att)
    pred = predict_vertex_asymptotic(g, att)
    assert res.h_base == pred.h_base
    assert abs(res.h_prime - pred.h_predicted) <= 3 * math.ulp(res.h_base)
    assert res.residual <= 1e-12


def test_asymptotics_need_positive_entropy_and_a_known_method():
    # the triangle beside the theta has entropy 0: no pole to expand
    g = disjoint_union([cycle(3), theta()])
    with pytest.raises(PreconditionError, match="positive base entropy"):
        predict_vertex_asymptotic(g, [("c0", 5.0), ("c1", 5.0),
                                      ("c2", 5.0)])
    with pytest.raises(PreconditionError, match="positive entropy"):
        estimate_constant_C(g, "c0", "c1")
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        estimate_constant_C(g, "x", "y", method="bogus")


def test_predict_vertex_requires_attachments():
    with pytest.raises(TooFewAttachments):
        predict_vertex_asymptotic(complete4(), [])


def test_seeded_edge_instances_cross_method():
    from helpers import nonadjacent_pair
    for seed in range(1, 6):
        g = generate_graph(seed, 6, 9)
        x, y = nonadjacent_pair(g)
        l0 = 1.0 + 0.4 * (seed % 3)
        inc = entropy_after_edge(g, x, y, l0)
        direct = volume_entropy(add_edge(g, x, y, l0)).h
        assert abs(inc.h_prime - direct) <= 1e-8


def test_seeded_vertex_instances_cross_method():
    for seed in range(1, 6):
        g = generate_graph(seed, 6, 9)
        n = 3 + seed % 2
        rng = random.Random(seed)
        att = [(t, rng.uniform(0.8, 1.8)) for t in sorted(g.vertex_set)[:n]]
        da = entropy_after_vertex(g, att)
        direct = volume_entropy(add_vertex(g, att)).h
        assert abs(da.h_prime - direct) <= 1e-8


def test_wide_length_theta_edits_and_constant():
    # log(k)/l_min = 69 lies far above h = 1.09 here, where the dart power
    # iteration does not converge; the base solve is the vertex-matrix one
    g = MetricGraph.from_edges(["a", "b", "c"], [
        ("a", "b", 1.0), ("a", "b", 1.0), ("a", "b", 0.01), ("b", "c", 2.0)])
    res = entropy_after_edge(g, "a", "c", 1.5)
    ref = eig_entropy(add_edge(g, "a", "c", 1.5), rel_tol=1e-15)
    assert abs(res.h_prime - ref) <= 1e-10 * max(1.0, ref)
    att = [("a", 1.0), ("b", 2.0), ("c", 0.5)]
    res = entropy_after_vertex(g, att)
    ref = eig_entropy(add_vertex(g, att), rel_tol=1e-15)
    assert abs(res.h_prime - ref) <= 1e-10 * max(1.0, ref)
    # C = 2 v_a v_b / lambda'(h), v from a dense eigh of M at the dart h
    h = eig_entropy(g, rel_tol=1e-15)
    v = np.linalg.eigh(vertex_matrix(g, h))[1][:, 0]
    edges = g._edge_arrays
    _, _, d_shift, d_weights = _vertex_terms(
        edges, h, TransferMode.NON_BACKTRACKING, True)
    dlambda = v @ _assemble(edges.scatter, d_shift, d_weights) @ v
    assert estimate_constant_C(g, "a", "b").combined == \
        pytest.approx(2.0 * v[0] * v[1] / dlambda, rel=1e-8, abs=0.0)
