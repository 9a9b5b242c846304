"""Persistent entropy curves and their strategy independence."""

import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from entrograph import (EntropyCurve, MetricGraph, NonConvergence,
                        StepStrategy, UnknownFormat, add_edge,
                        curve_from_json, delete_edge, export_curve,
                        filter_at, first_betti, generate_graph, graph,
                        incremental, persistent_entropy, same_graph,
                        thresholds, volume_entropy)
from helpers import (c4, complete4, eig_entropy, multigraphs, rebuild_curve,
                     theta)


def k4_with_long_chord():
    return MetricGraph.from_edges(
        list("abcd"),
        [("a", "b", 1.0), ("a", "c", 1.0), ("a", "d", 1.0),
         ("b", "c", 1.0), ("b", "d", 1.0), ("c", "d", 2.0)])


def test_thresholds_dedup_and_order():
    g = MetricGraph.from_edges(
        ["a", "b", "c", "d", "e"],
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 2.0),
         ("d", "e", 3.5)])
    assert thresholds(g) == (1.0, 2.0, 3.5)
    assert thresholds(complete4()) == (1.0,)
    assert thresholds(MetricGraph.from_edges([], [])) == ()


def test_filter_at_boundaries():
    g = k4_with_long_chord()
    assert filter_at(g, 0.5).edge_count == 0
    assert same_graph(filter_at(g, 2.0), g)
    assert same_graph(filter_at(g, 100.0), g)
    three = MetricGraph.from_edges(
        ["a", "b", "c", "d"],
        [("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)])
    assert filter_at(three, 2.0).edge_count == 2


def test_k4_variant_curve_matches_direct_solves():
    g = k4_with_long_chord()
    curve = persistent_entropy(g, strategy="direct")
    assert [s.epsilon for s in curve.steps] == [1.0, 2.0]
    h1 = volume_entropy(filter_at(g, 1.0)).h
    h2 = volume_entropy(g).h
    assert curve.steps[0].h == pytest.approx(h1, abs=1e-10)
    assert curve.steps[1].h == pytest.approx(h2, abs=1e-10)


def test_tree_curve_identically_zero():
    g = MetricGraph.from_edges(
        ["a", "b", "c", "d"],
        [("a", "b", 1.0), ("b", "c", 1.5), ("c", "d", 2.25)])
    curve = persistent_entropy(g, strategy="auto")
    assert [s.h for s in curve.steps] == [0.0, 0.0, 0.0]


def test_c4_with_long_chord_auto_takes_incremental_edge():
    g = add_edge(c4(), "a", "c", 3.0)
    auto = persistent_entropy(g, strategy="auto")
    direct = persistent_entropy(g, strategy="direct")
    assert auto.steps[-1].strategy is StepStrategy.INCREMENTAL_EDGE
    for sa, sd in zip(auto.steps, direct.steps):
        assert abs(sa.h - sd.h) <= 1e-7


def test_vertex_step_taken_when_new_hub_appears():
    g = c4()
    g = add_edge(g, "a", "c", 1.0)  # hyperbolic base, all lengths 1
    hub_edges = [("e", "a", 2.0), ("e", "b", 2.0), ("e", "c", 2.0)]
    g = MetricGraph.from_edges(
        g.vertices + ("e",), g.edge_list() + tuple(hub_edges))
    inc = persistent_entropy(g, strategy="incremental")
    direct = persistent_entropy(g, strategy="direct")
    assert inc.steps[-1].strategy is StepStrategy.INCREMENTAL_VERTEX
    for sa, sd in zip(inc.steps, direct.steps):
        assert abs(sa.h - sd.h) <= 1e-7


def test_vertex_step_parallel_batch_to_one_target():
    # three equal-length parallel edges from a fresh vertex to a vertex
    # of a hyperbolic component arrive in one filtration step
    g = MetricGraph.from_edges(
        ["v", "w"],
        [("v", "v", 1.0), ("v", "v", 1.0),
         ("w", "v", 2.0), ("w", "v", 2.0), ("w", "v", 2.0)])
    inc = persistent_entropy(g, strategy="incremental")
    direct = persistent_entropy(g, strategy="direct")
    assert inc.steps[-1].strategy is StepStrategy.INCREMENTAL_VERTEX
    for sa, sd in zip(inc.steps, direct.steps):
        assert abs(sa.h - sd.h) <= 1e-7


@pytest.mark.parametrize("targets", [("a", "c"), ("a", "a"), ("a", "p")],
                         ids=["edge", "loop", "merge"])
def test_degree_two_vertex_step(targets):
    # a new vertex with two equal-length edges, after a hyperbolic K4 and
    # a separate single cycle at p
    g = MetricGraph.from_edges(
        list("abcdpq") + ["w"],
        complete4().edge_list()
        + (("p", "q", 1.0), ("q", "p", 1.2), ("w", targets[0], 1.5),
           ("w", targets[1], 1.5)))
    inc = persistent_entropy(g, strategy="incremental")
    direct = persistent_entropy(g, strategy="direct")
    assert inc.steps[-1].strategy is StepStrategy.INCREMENTAL_VERTEX
    for sa, sd in zip(inc.steps, direct.steps):
        assert abs(sa.h - sd.h) <= 1e-9


@pytest.mark.parametrize("args", [(1, 8, 16), (3, 6, 12), (3, 12, 24),
                                  (1, 20, 40), (1, 40, 80)])
def test_generated_filtrations_take_no_direct_step(args):
    g = generate_graph(*args)
    inc = persistent_entropy(g, strategy="incremental")
    direct = persistent_entropy(g, strategy="direct")
    assert all(s.strategy is not StepStrategy.DIRECT for s in inc.steps)
    for sa, sd in zip(inc.steps, direct.steps):
        assert abs(sa.h - sd.h) <= 1e-14 * sd.h
    if args == (1, 40, 80):
        # evaluations of lambda_min(K(t)) over the curve; the bounded
        # first-return equation (1 - rho)/(1 + rho) = 0 took 504
        assert sum(s.iterations for s in inc.steps) <= 228


@settings(max_examples=40, deadline=None)
@given(multigraphs())
def test_incremental_matches_direct_on_multigraphs(g):
    direct = persistent_entropy(g, strategy="direct")
    hs = [s.h for s in direct.steps]
    assert hs == sorted(hs)  # exactly monotone
    inc = persistent_entropy(g, strategy="incremental")
    for sa, sd in zip(inc.steps, direct.steps):
        assert abs(sa.h - sd.h) <= 1e-7


@st.composite
def batched_multigraphs(draw):
    """``multigraphs()`` with every length replaced by one of at most
    three values, so that unrelated edges arrive in one step."""
    g = draw(multigraphs())
    exps = draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3))
    return MetricGraph.from_edges(g.vertices, [
        (u, v, 10.0 ** draw(st.sampled_from(exps)))
        for u, v, _ in g.edge_list()])


def _steps(curve):
    return [(s.h, s.iterations, s.strategy) for s in curve.steps]


@pytest.mark.parametrize("strategy", ["direct", "incremental"])
@pytest.mark.parametrize("args", [(1, 8, 16), (3, 6, 12), (3, 12, 24),
                                  (1, 20, 40), (1, 40, 80), (2, 60, 120)])
def test_curve_equals_the_rebuild_reference(args, strategy):
    g = generate_graph(*args)
    assert _steps(persistent_entropy(g, strategy)) \
        == rebuild_curve(g, strategy)


@pytest.mark.parametrize("args", [(1, 8, 16), (3, 6, 12), (3, 12, 24),
                                  (1, 20, 40), (1, 40, 80), (2, 60, 120)])
def test_direct_steps_from_the_floor_match_cold_solves(args):
    # a direct step climbs from h_base, the entropy of its parts; the same
    # steps solved down from the upper start log(k) / l_min agree
    g = generate_graph(*args)
    cold = rebuild_curve(g, "direct", floor=False)
    for step, (h, _, _) in zip(persistent_entropy(g, "direct").steps, cold):
        assert abs(step.h - h) <= 1e-14 * h


@settings(max_examples=40, deadline=None)
@given(st.one_of(multigraphs(), batched_multigraphs()))
def test_curve_equals_the_rebuild_reference_on_multigraphs(g):
    for strategy in ("direct", "incremental"):
        assert _steps(persistent_entropy(g, strategy)) \
            == rebuild_curve(g, strategy)


@pytest.mark.parametrize("strategy", ["direct", "incremental", "auto"])
def test_steps_build_no_graph(monkeypatch, strategy):
    # the curve walks the full graph's edge arrays: no step makes a
    # MetricGraph or splits one into components
    calls = []
    from_edges = MetricGraph.from_edges.__func__
    monkeypatch.setattr(MetricGraph, "from_edges", classmethod(
        lambda cls, *args: calls.append("from_edges")
        or from_edges(cls, *args)))
    components = graph.components
    counted = lambda g: calls.append("components") or components(g)
    for name, module in list(sys.modules.items()):
        if name.startswith("entrograph") \
                and getattr(module, "components", None) is components:
            monkeypatch.setattr(module, "components", counted)
    g = generate_graph(1, 40, 80)
    calls.clear()
    assert len(persistent_entropy(g, strategy).steps) == 80
    assert calls == []


def _matches_eig_oracle(g):
    """The incremental curve takes no direct step and agrees with the
    dense-eigenvalue entropy of every G_eps that has a component of
    first Betti number >= 2; the others have entropy 0."""
    curve = persistent_entropy(g, strategy="incremental")
    assert all(s.strategy is not StepStrategy.DIRECT for s in curve.steps)
    for s in curve.steps:
        g_eps = filter_at(g, s.epsilon)
        if max(first_betti(g_eps)) >= 2:
            h = eig_entropy(g_eps)
            assert abs(s.h - h) <= 1e-7 * max(1.0, h)
        else:
            assert s.h == 0.0


@settings(max_examples=40, deadline=None)
@given(multigraphs())
def test_incremental_matches_eig_oracle_on_multigraphs(g):
    _matches_eig_oracle(g)


@settings(max_examples=40, deadline=None)
@given(batched_multigraphs())
def test_incremental_matches_eig_oracle_on_equal_length_batches(g):
    _matches_eig_oracle(g)


@pytest.mark.parametrize("args", [(1, 10, 20), (2, 8, 14)])
def test_lattice_filtration_takes_no_direct_step(args):
    # every length is 1: one step adds all edges to isolated vertices
    g = generate_graph(*args, length_model="lattice")
    inc = persistent_entropy(g, strategy="incremental")
    direct = persistent_entropy(g, strategy="direct")
    assert [s.strategy for s in inc.steps] \
        == [StepStrategy.INCREMENTAL_VERTEX]
    assert abs(inc.steps[0].h - direct.steps[0].h) <= 1e-9


def test_degree_three_vertex_spanning_two_components():
    # a new vertex joins a hyperbolic K4 and a single cycle at p
    g = MetricGraph.from_edges(
        list("abcdpq") + ["w"],
        complete4().edge_list()
        + (("p", "q", 1.0), ("q", "p", 1.2), ("w", "a", 1.5),
           ("w", "b", 1.5), ("w", "p", 1.5)))
    inc = persistent_entropy(g, strategy="incremental")
    direct = persistent_entropy(g, strategy="direct")
    assert all(s.strategy is not StepStrategy.DIRECT for s in inc.steps)
    assert inc.steps[-1].strategy is StepStrategy.INCREMENTAL_VERTEX
    for sa, sd in zip(inc.steps, direct.steps):
        assert abs(sa.h - sd.h) <= 1e-9


def test_long_loop_on_a_base_from_an_earlier_step():
    # the last step adds a loop of length 65 whose root lies ~1e-13 above
    # the base entropy, inside the rounding noise of the resolvent, and
    # the base h comes from the previous incremental step: a root search
    # on 1 - rho(T) met a divergent evaluation above its lower end
    g = MetricGraph.from_edges(
        ["v0", "v1"],
        [("v1", "v0", 8.058421877614817), ("v1", "v0", 0.0031622776601683794),
         ("v0", "v0", 64.93816315762113), ("v0", "v0", 0.1778279410038923)])
    direct = persistent_entropy(g, strategy="direct")
    inc = persistent_entropy(g, strategy="incremental")
    assert all(s.strategy is not StepStrategy.DIRECT for s in inc.steps)
    for sa, sd in zip(inc.steps, direct.steps):
        assert abs(sa.h - sd.h) <= 1e-9


def test_direct_step_from_a_far_upper_start():
    # the step at 8.2755 starts its Newton steps at the trivial upper end
    # log(k) / l_min = 12.24 of that graph, where a dart power iteration
    # does not converge; the vertex matrix needs no iteration there
    g = MetricGraph.from_edges(
        ["v0", "v1"],
        [("v1", "v0", 2.256415249128523), ("v0", "v0", 2.63502466460962),
         ("v0", "v1", 8.275475802566113), ("v0", "v1", 0.11329660881995063)])
    direct = persistent_entropy(g, strategy="direct")
    inc = persistent_entropy(g, strategy="incremental")
    assert [s.epsilon for s in direct.steps] == list(thresholds(g))
    for sa, sd in zip(inc.steps, direct.steps):
        assert abs(sa.h - sd.h) <= 1e-7


def test_wide_length_theta_direct_curve():
    # the dart power iteration raised NonConvergence at log 2 / 0.01 on
    # this graph; its last step now matches the dense-eigenvalue entropy
    g = theta((1.0, 1.0, 0.01))
    direct = persistent_entropy(g, strategy="direct")
    inc = persistent_entropy(g, strategy="incremental")
    ref = eig_entropy(g, rel_tol=1e-15)
    assert abs(direct.steps[-1].h - ref) <= 1e-13 * ref
    for sa, sd in zip(inc.steps, direct.steps):
        assert abs(sa.h - sd.h) <= 1e-9


def test_package_error_carries_its_threshold(monkeypatch):
    def fail(*args, **kwargs):
        raise NonConvergence("no root")

    monkeypatch.setattr(incremental, "_cold_root", fail)
    with pytest.raises(NonConvergence) as info:
        persistent_entropy(complete4(), strategy="direct")
    assert info.value.threshold == 1.0
    assert info.value.args == ("no root",)


def test_other_errors_propagate_untouched(monkeypatch):
    def fail(*args, **kwargs):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setattr(incremental, "_cold_root", fail)
    with pytest.raises(ZeroDivisionError) as info:
        persistent_entropy(complete4(), strategy="direct")
    assert info.value.args == ("division by zero",)
    assert not hasattr(info.value, "threshold")


def test_strategy_independence_and_monotonicity_seeded():
    for seed in (1, 2, 3, 4, 5):
        g = generate_graph(seed, 5, 9)
        curves = {name: persistent_entropy(g, strategy=name)
                  for name in ("direct", "incremental", "auto")}
        hs = {k: [s.h for s in c.steps] for k, c in curves.items()}
        assert hs["direct"] == sorted(hs["direct"])  # monotone
        for name in ("incremental", "auto"):
            assert max(abs(a - b)
                       for a, b in zip(hs["direct"], hs[name])) <= 1e-7
        assert hs["direct"][-1] == pytest.approx(volume_entropy(g).h,
                                                 abs=1e-9)


def test_curve_epsilons_are_exactly_the_thresholds():
    g = generate_graph(7, 5, 8)
    curve = persistent_entropy(g)
    assert tuple(s.epsilon for s in curve.steps) == thresholds(g)
    assert curve.thresholds == thresholds(g)


def test_delete_and_readd_longest_edge_reproduces_tail():
    g = k4_with_long_chord()
    curve = persistent_entropy(g, strategy="direct")
    longest = max(g.edge_darts(), key=lambda d: d.length)
    trimmed = delete_edge(g, longest.id)
    rebuilt = add_edge(trimmed, longest.tail, longest.head, longest.length)
    curve2 = persistent_entropy(rebuilt, strategy="direct")
    for s1, s2 in zip(curve.steps[-2:], curve2.steps[-2:]):
        assert s1.epsilon == s2.epsilon
        assert abs(s1.h - s2.h) <= 1e-10


def test_export_csv_shapes():
    empty = persistent_entropy(MetricGraph.from_edges(["a"], []))
    assert export_curve(empty, "csv").decode() == \
        "epsilon,h,strategy,iterations,ms\n"
    two = persistent_entropy(k4_with_long_chord())
    lines = export_curve(two, "csv").decode().strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == "epsilon,h,strategy,iterations,ms"


def test_export_json_round_trip():
    curve = persistent_entropy(k4_with_long_chord(), strategy="auto")
    data = export_curve(curve, "json")
    back = curve_from_json(data)
    assert isinstance(back, EntropyCurve)
    assert back.thresholds == curve.thresholds
    for a, b in zip(back.steps, curve.steps):
        assert (a.epsilon, a.h, a.strategy, a.iterations) == \
            (b.epsilon, b.h, b.strategy, b.iterations)
        assert a.ms == pytest.approx(b.ms)


def test_export_unknown_format():
    curve = persistent_entropy(c4())
    with pytest.raises(UnknownFormat):
        export_curve(curve, "yaml")


def test_curve_h_uses_max_over_components():
    g = MetricGraph.from_edges(
        ["v", "p", "q"],
        [("v", "v", 1.0), ("v", "v", 1.0), ("p", "q", 2.0)])
    curve = persistent_entropy(g)
    assert curve.steps[0].h == pytest.approx(math.log(3.0), abs=1e-9)
    assert curve.steps[1].h == pytest.approx(math.log(3.0), abs=1e-9)
