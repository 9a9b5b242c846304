"""Enumeration oracle and the counting identities."""

import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from entrograph import (EnumerationSpec, HorizonTooLarge, MarginTooSmall,
                        MetricGraph, NonConvergence, PathKind,
                        PreconditionError, TransferMode, backtracking_bound,
                        backtracking_entropy, enumerate_paths,
                        generate_graph, growth_bounds, horizon_for_budget,
                        laplace_check, reduce, verify_recursions,
                        volume_entropy)
from entrograph.counting import _count_model, _over_bound, _step_integral
from helpers import (bfs_enumerate, c4, complete4, dumbbell, eig_entropy,
                     multigraphs, path3, rose, scalar_laplace_constant,
                     scalar_lower_constant, scalar_recursions,
                     scalar_step_integral, scalar_tail_average,
                     scalar_violations, segment, theta)

NB = TransferMode.NON_BACKTRACKING
BT = TransferMode.BACKTRACKING


def test_rose2_paths_from_counts():
    prof = enumerate_paths(rose(2), EnumerationSpec(
        PathKind.PATHS_FROM, 3.5, x="v"))
    counts = collections.Counter(prof.lengths.tolist())
    assert counts == {1.0: 4, 2.0: 12, 3.0: 36}
    assert prof.count(3.5) == 52


def test_segment_backtracking_cycles():
    prof = enumerate_paths(segment(), EnumerationSpec(
        PathKind.CYCLES_AT, 7.0, BT, v="x"))
    assert prof.lengths.tolist() == [2.0, 4.0, 6.0]
    assert prof.count(7.0) == 3


def test_c4_opposite_paths():
    prof = enumerate_paths(c4(), EnumerationSpec(
        PathKind.PATHS_XY, 7.0, x="a", y="c"))
    assert prof.lengths.tolist() == [2.0, 2.0, 6.0, 6.0]


def test_strict_inequality_convention():
    prof = enumerate_paths(rose(2), EnumerationSpec(
        PathKind.PATHS_FROM, 3.5, x="v"))
    assert prof.count(1.0) == 0
    assert prof.count_le(1.0) == 4
    assert prof.count(2.0) == 4


@pytest.mark.parametrize("kind,mode", [
    ("from", "nb"), ("from", "bt"), ("xy", "nb"), ("xy", "bt"),
    ("cycles", "nb"), ("cycles", "bt"), ("primitive", "nb"),
    ("primitive", "bt")])
def test_two_oracle_agreement(kind, mode):
    kind_map = {"from": PathKind.PATHS_FROM, "xy": PathKind.PATHS_XY,
                "cycles": PathKind.CYCLES_AT,
                "primitive": PathKind.PRIMITIVE_CYCLES_AT}
    tmode = NB if mode == "nb" else BT
    for g, x, y in ((rose(2), "v", "v"), (theta((1.0, 1.3, 2.2)), "x", "y"),
                    (complete4(), "a", "c"), (dumbbell(), "a", "b")):
        r_max = 6.5
        spec = EnumerationSpec(kind_map[kind], r_max, tmode, x=x, y=y, v=x)
        mine = enumerate_paths(g, spec).lengths.tolist()
        oracle = bfs_enumerate(g, {"from": "from", "xy": "xy",
                                   "cycles": "cycles",
                                   "primitive": "primitive"}[kind],
                               r_max, mode=mode, x=x, y=y, v=x)
        assert mine == oracle, (kind, mode, g.vertices)


ORACLE_KINDS = {PathKind.PATHS_FROM: "from", PathKind.PATHS_XY: "xy",
                PathKind.CYCLES_AT: "cycles",
                PathKind.PRIMITIVE_CYCLES_AT: "primitive"}


@pytest.mark.parametrize("mode", ["nb", "bt"])
@pytest.mark.parametrize("kind", list(ORACLE_KINDS),
                         ids=[k.value for k in ORACLE_KINDS])
@settings(max_examples=25, deadline=None)
@given(g=multigraphs())
def test_walk_matches_bfs_oracle_on_multigraphs(kind, mode, g):
    # lengths span 10^-3..10^3, so the projected horizon alone often
    # overflows the cap; retry at the suggested safe horizon.  The walk
    # prunes sequences that cannot reach y or x in time, the BFS oracle
    # does not: the horizon must also fit the unpruned paths from x.
    tmode = NB if mode == "nb" else BT
    x, y = g.vertices[0], g.vertices[-1]
    r_max = horizon_for_budget(g, x, 2000, tmode)
    for _ in range(100):
        spec = EnumerationSpec(kind, r_max, tmode, x=x, y=y, v=x, cap=2000)
        try:
            enumerate_paths(g, EnumerationSpec(PathKind.PATHS_FROM, r_max,
                                               tmode, x=x, cap=2000))
            prof = enumerate_paths(g, spec)
            break
        except HorizonTooLarge as exc:
            r_max = exc.safe_horizon
    else:
        pytest.fail("no horizon fits the cap")
    oracle = bfs_enumerate(g, ORACLE_KINDS[kind], r_max, mode=mode, x=x,
                           y=y, v=x)
    assert prof.lengths.tolist() == oracle
    rows = {PathKind.CYCLES_AT: prof.by_start,
            PathKind.PRIMITIVE_CYCLES_AT: prof.by_pair}.get(kind)
    if rows is not None:
        merged = np.sort(np.concatenate([np.array([])] + list(rows.values())))
        assert merged.tolist() == oracle


def test_nonbacktracking_counts_below_backtracking():
    for g, v in ((complete4(), "a"), (theta(), "x"), (dumbbell(), "a")):
        nb = enumerate_paths(g, EnumerationSpec(
            PathKind.CYCLES_AT, 8.0, NB, v=v))
        bt = enumerate_paths(g, EnumerationSpec(
            PathKind.CYCLES_AT, 8.0, BT, v=v))
        for r in (2.5, 4.5, 6.5, 8.0):
            assert nb.count(r) <= bt.count(r)


def test_primitive_profile_rose2_pairs():
    prof = enumerate_paths(rose(2), EnumerationSpec(
        PathKind.PRIMITIVE_CYCLES_AT, 5.0, v="v"))
    # loop darts pair with their reversals only; single traversals
    darts = prof.attachment_ids
    assert len(darts) == 4
    assert set(prof.by_pair) == {(1, 2), (2, 1), (3, 4), (4, 3)}
    for lengths in prof.by_pair.values():
        assert lengths.tolist() == [1.0]


def test_primitive_interior_avoids_vertex():
    prof = enumerate_paths(theta(), EnumerationSpec(
        PathKind.PRIMITIVE_CYCLES_AT, 9.0, v="x"))
    # all primitive cycles are bigons of length 2 (i out, j back, i != j)
    for (i, j), lengths in prof.by_pair.items():
        assert i != j
        assert all(l == 2.0 for l in lengths.tolist())


def test_horizon_cap_raises_with_safe_horizon():
    with pytest.raises(HorizonTooLarge) as err:
        enumerate_paths(rose(2), EnumerationSpec(
            PathKind.PATHS_FROM, 30.0, x="v", cap=100_000))
    safe = err.value.safe_horizon
    assert 0 < safe < 30.0
    prof = enumerate_paths(rose(2), EnumerationSpec(
        PathKind.PATHS_FROM, safe, x="v", cap=100_000))
    assert prof.lengths.size <= 100_000


@pytest.mark.parametrize("mode,target", [(NB, 700_000), (BT, 500_000)],
                         ids=["nb", "bt"])
def test_horizon_projects_the_count_on_criterion_02_graphs(mode, target):
    # the graphs of acceptance criterion 02, at its budget when
    # non-backtracking
    for seed in range(1, 11):
        nv = 4 + seed % 3
        g = generate_graph(seed, nv, nv + 2 + seed % 2)
        x = min(g.vertices)
        r = horizon_for_budget(g, x, target, mode)
        prof = enumerate_paths(g, EnumerationSpec(PathKind.PATHS_FROM, r,
                                                  mode, x=x))
        assert 0.9 * target <= prof.lengths.size <= 1.1 * target, seed


@pytest.mark.parametrize("mode", [NB, BT], ids=["nb", "bt"])
@settings(max_examples=50, deadline=None)
@given(g=multigraphs())
@example(g=MetricGraph.from_edges(["v0", "v1"], [
    ("v0", "v1", 1.0), ("v0", "v0", 100.0), ("v0", "v0", 0.001)]))
def test_horizon_is_finite_and_positive_on_multigraphs(mode, g):
    # the example is pre-asymptotic: non-backtracking, A = 3122 and
    # h = 0.105, so log(target / A) / h would be negative
    r = horizon_for_budget(g, g.vertices[0], 2000, mode)
    assert math.isfinite(r) and r > 0.0


@pytest.mark.parametrize("mode", [NB, BT], ids=["nb", "bt"])
def test_horizon_of_an_edgeless_vertex_raises(mode):
    # no walk leaves a: the count model had no darts to average, and the
    # horizon came out nan after two numpy RuntimeWarnings
    g = MetricGraph.from_edges(["a", "b", "c"], [
        ("b", "c", 1.0), ("b", "c", 2.0), ("c", "c", 1.5)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="no walk leaves"):
            horizon_for_budget(g, "a", 2000, mode)


def test_walk_cap_fires_below_the_projection():
    # pre-asymptotic: the 0.001 loop has non-backtracking entropy 0 and
    # adds two sequences per 0.001 of horizon, long before the pole of the
    # theta-like core (h = 0.105) dominates.  At r = 2 the projection is
    # about 730, under the cap, while the walk meets about 4000 sequences.
    g = MetricGraph.from_edges(["v0", "v1"], [
        ("v0", "v1", 1.0), ("v0", "v0", 100.0), ("v0", "v0", 0.001)])
    a, h = _count_model(g, NB, "v0", None)
    assert a * math.expm1(2.0 * h) < 1000
    spec = EnumerationSpec(PathKind.PATHS_FROM, 2.0, x="v0", cap=1000)
    with pytest.raises(HorizonTooLarge, match="exceeded its cap") as err:
        enumerate_paths(g, spec)
    assert err.value.safe_horizon == pytest.approx(0.8 * 2.0, rel=1e-12,
                                                   abs=0.0)
    prof = enumerate_paths(g, EnumerationSpec(PathKind.PATHS_FROM, 1.0,
                                              x="v0", cap=1000))
    assert prof.lengths.tolist() == bfs_enumerate(g, "from", 1.0, x="v0")


def test_walk_prunes_excursions_that_cannot_return():
    # from v, a 10 edge leads to w with two 0.01 loops; v's entry of the
    # null vector, e^{-10 h} with h = 110, underflows, so the projection
    # stays quiet.  Below 20.045 a cycle at v spends
    # at most four loops at w, but a walk that keeps every sequence below
    # the horizon would go on looping there past any cap.
    g = MetricGraph.from_edges(["v", "w"], [
        ("v", "v", 100.0), ("v", "w", 10.0), ("w", "w", 0.01),
        ("w", "w", 0.01)])
    prof = enumerate_paths(g, EnumerationSpec(PathKind.CYCLES_AT, 20.045,
                                              v="v", cap=1000))
    # out along the edge, k >= 1 reduced loop darts (4 * 3^(k-1) words),
    # back along the edge, each length the left fold of its darts
    want = []
    for k in range(1, 5):
        cum = 10.0
        for _ in range(k):
            cum += 0.01
        want += [cum + 10.0] * (4 * 3 ** (k - 1))
    assert prof.lengths.tolist() == sorted(want)


@pytest.mark.parametrize("mode", ["nb", "bt"])
@pytest.mark.parametrize("kind", list(ORACLE_KINDS),
                         ids=[k.value for k in ORACLE_KINDS])
def test_walk_matches_bfs_oracle_at_attained_horizons(kind, mode):
    # inexact commensurate lengths: folds of 0.1, 0.2 and 0.3 land on or
    # a few ulps beside each other, and every horizon is itself a cycle
    # length, so a prefix plus its shortest return often ties the horizon
    tmode = NB if mode == "nb" else BT
    g = MetricGraph.from_edges(["a", "b"], [
        ("a", "b", 0.1), ("a", "b", 0.2), ("b", "b", 0.3), ("a", "a", 0.1)])
    cycles = enumerate_paths(g, EnumerationSpec(PathKind.CYCLES_AT, 0.75,
                                                tmode, v="a"))
    radii = np.unique(cycles.lengths)
    assert radii.size >= 5
    for r_max in radii.tolist():
        prof = enumerate_paths(g, EnumerationSpec(kind, r_max, tmode, x="a",
                                                  y="b", v="a"))
        assert prof.lengths.tolist() == bfs_enumerate(
            g, ORACLE_KINDS[kind], r_max, mode=mode, x="a", y="b", v="a")


def test_walk_cap_boundary():
    # ten 0.01 loop darts fold to just below 0.1, so the walk meets
    # 118 096 sequences there, at the top of a step of N.  The projection
    # is the mean of the step function, 71 664, and stays under the caps
    # tried here (about 93 700).  The walk raises exactly when its node
    # count exceeds int(1.25 cap) + 1024
    g = MetricGraph.from_edges(
        ["v"], [("v", "v", 0.01), ("v", "v", 0.01), ("v", "v", 100.0)])
    nodes = len(bfs_enumerate(g, "from", 0.1, x="v"))
    edge = math.ceil((nodes - 1024) / 1.25)
    outcomes = set()
    for cap in range(edge - 3, edge + 4):
        spec = EnumerationSpec(PathKind.PATHS_FROM, 0.1, x="v", cap=cap)
        over = nodes > int(1.25 * cap) + 1024
        outcomes.add(over)
        if over:
            with pytest.raises(HorizonTooLarge, match="exceeded its cap"):
                enumerate_paths(g, spec)
        else:
            assert enumerate_paths(g, spec).lengths.size == nodes
    assert outcomes == {False, True}


def test_profile_csv_export():
    prof = enumerate_paths(segment(), EnumerationSpec(
        PathKind.CYCLES_AT, 7.0, BT, v="x"))
    lines = prof.to_csv().strip().splitlines()
    assert lines[0] == "length,cumulative"
    assert lines[1] == "2.0,1"
    assert lines[-1] == "6.0,3"


def test_laplace_segment_exact():
    prof = enumerate_paths(segment(), EnumerationSpec(
        PathKind.PATHS_XY, 5.0, x="x", y="y"))
    rep = laplace_check(prof, segment(), 1.0)
    assert rep.passed
    # single path: truncated integral is e^{-t} - e^{-t R}, f = e^{-t}
    assert rep.truncated == pytest.approx(
        math.exp(-1.0) - math.exp(-5.0), abs=1e-12)
    assert rep.f_value == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_laplace_rose2_bracket():
    prof = enumerate_paths(rose(2), EnumerationSpec(
        PathKind.PATHS_FROM, 12.0, x="v"))
    rep = laplace_check(prof, rose(2), math.log(3) + 0.3)
    assert rep.passed
    assert rep.truncated <= rep.f_value <= rep.truncated + rep.tail_upper


def test_laplace_margin_too_small():
    prof = enumerate_paths(rose(2), EnumerationSpec(
        PathKind.PATHS_FROM, 8.0, x="v"))
    with pytest.raises(MarginTooSmall):
        laplace_check(prof, rose(2), math.log(3))


def test_laplace_backtracking_mode():
    prof = enumerate_paths(path3(), EnumerationSpec(
        PathKind.CYCLES_AT, 16.0, BT, v="y"))
    h_c = backtracking_entropy(path3(), "y").h_transfer
    rep = laplace_check(prof, path3(), h_c + 0.5)
    assert rep.passed
    assert rep.h_used == pytest.approx(h_c, abs=1e-9)


def test_recursion_segment_arithmetic():
    rep = verify_recursions(segment(), "x", r_grid=[2.5, 4.5, 6.5, 8.5])
    assert rep.passed


def test_recursion_rose2_and_theta():
    assert verify_recursions(rose(2), "v",
                             r_grid=[2.5, 3.5, 4.5, 5.5, 6.5, 7.5]).passed
    assert verify_recursions(theta(), "x",
                             r_grid=[3.0, 5.0, 7.0, 9.0]).passed


def test_recursion_generic_lengths_default_grid():
    g = generate_graph(4, 5, 8)
    v = max(g.vertex_set, key=lambda w: (g.degree(w), w))
    rep = verify_recursions(g, v, r_max=9.0)
    assert rep.passed
    assert len(rep.r_grid) > 4


def test_growth_bounds_k4_symmetric_perron():
    rep = growth_bounds(complete4(), "a", 12.0)
    assert rep.n == 3
    assert rep.m_formula == pytest.approx(6.0, abs=1e-8)
    assert abs(rep.rho_a - 1.0) <= 1e-8
    w = rep.perron
    assert np.max(w) - np.min(w) <= 1e-10  # uniform by symmetry
    assert rep.violations == ()
    assert rep.m_empirical > 0


def test_growth_bounds_rose2_with_loops():
    rep = growth_bounds(rose(2), "v", 12.0)
    assert rep.n == 4
    assert rep.m_formula == pytest.approx(6.0, abs=1e-8)
    assert abs(rep.rho_a - 1.0) <= 1e-8
    assert rep.violations == ()


@pytest.mark.parametrize("edges, v", [
    ([("v4", "v4", 96.75970624450153), ("v0", "v0", 0.14107531840106938),
      ("v4", "v0", 8.108613719756914)], "v4"),
    ([("v0", "v1", 70.35685564348415), ("v0", "v1", 0.08628665462711338),
      ("v0", "v1", 37.409637494553955), ("v1", "v1", 16.302093204554406),
      ("v0", "v0", 0.018520859815246437)], "v1"),
    ([("v2", "v4", 3.5861990761213898), ("v2", "v5", 7.0108222137330864),
      ("v5", "v2", 0.36727947731122124), ("v4", "v4", 4.380891324460537),
      ("v5", "v5", 0.01708471117330321), ("v2", "v2", 57.799570142765866)],
     "v2"),
])
def test_growth_bounds_on_small_cores_with_wide_lengths(edges, v):
    # a power iteration on A(h) put rho 1.1e-8 and 2.8e-8 above 1 on the
    # first and third core and did not converge on the second
    names = sorted({x for e in edges for x in e[:2]})
    rep = growth_bounds(MetricGraph.from_edges(names, edges), v, 12.0)
    assert abs(rep.rho_a - 1.0) <= 1e-8
    assert rep.passed


def test_growth_bounds_constant_on_rose_with_a_long_loop():
    # At the one vertex of a rose, A(h) = diag(z) (J - P) with z = e^{-h l}
    # and P the dart reversal, so w ~ z / (1 + z), whose sum is 1 at h,
    # and M = (n-1)/(n-2) / min z/(1+z).  The long loop's Perron entries
    # are 2e-14 of the short loops'; a power iteration resolved them only
    # to about 1e-12 of the largest and put M 98.6% low.
    loops = (1.0, 1.0, 30.0)
    g = MetricGraph.from_edges(["v"], [("v", "v", l) for l in loops])
    lo, hi = 0.1, 5.0  # bisect sum 2z/(1+z) = 1, the rose's equation
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if sum(2.0 / (1.0 + math.exp(mid * l)) for l in loops) > 1.0:
            lo = mid
        else:
            hi = mid
    h = 0.5 * (lo + hi)
    n = 2 * len(loops)
    want = (n - 1) / (n - 2) / min(1.0 / (1.0 + math.exp(h * l))
                                   for l in loops)
    rep = growth_bounds(g, "v", 1e-9, h=h)
    assert rep.m_formula == pytest.approx(want, rel=1e-12, abs=0.0)
    assert abs(rep.rho_a - 1.0) <= 1e-12


def test_growth_bounds_names_underflow():
    # at h = log 3 / 0.01, e^{-10 h} underflows: the rows of the long loop
    # in the primitive matrix are 0, and so are their Perron entries
    g = MetricGraph.from_edges(["v"], [("v", "v", 10.0), ("v", "v", 0.01),
                                       ("v", "v", 0.01)])
    with pytest.raises(PreconditionError, match="underflows") as info:
        growth_bounds(g, "v", 0.05, h=eig_entropy(g))
    assert "length 10:" in str(info.value)
    assert "not representable" in str(info.value)


def test_growth_bounds_names_interior_entropy_at_h():
    # G - v1 solves about 1.3e-11 above h: A(h) does not diverge in
    # floating point, but its Perron root is 2.0e-8, not 1
    g = MetricGraph.from_edges(["v0", "v1"], [
        ("v0", "v0", 0.011487227450209346), ("v0", "v0", 2.603212119000015),
        ("v1", "v1", 86.0231507443473), ("v1", "v1", 48.40959018764339),
        ("v0", "v1", 0.11681437785115541), ("v0", "v1", 22.599269700245685)])
    with pytest.raises(PreconditionError, match="without 'v1' is not below"):
        growth_bounds(g, "v1", 10.0)


def test_growth_bounds_requires_reduced_hyperbolic():
    with pytest.raises(PreconditionError):
        growth_bounds(c4(), "a", 8.0)  # degree 2 everywhere
    with pytest.raises(PreconditionError):
        growth_bounds(segment(), "x", 8.0)


def test_backtracking_bound_both_branches():
    # unit path: M = max(2, 3 e^{-2 h}) = 2
    rep = backtracking_bound(path3(), "y", 14.0)
    assert rep.m_formula == pytest.approx(2.0)
    assert rep.violations == ()
    # lopsided path: e^{-h l1} > 2/3 puts the other branch in charge
    g = path3(1.0, 5.0)
    rep2 = backtracking_bound(g, "x", 40.0)
    assert rep2.m_formula > 2.0
    assert rep2.m_formula == pytest.approx(
        3.0 * math.exp(-rep2.h * rep2.l1), rel=1e-9, abs=0.0)
    assert rep2.violations == ()


def test_backtracking_bound_needs_two_primitives():
    with pytest.raises(PreconditionError):
        backtracking_bound(segment(), "x", 10.0)


def test_backtracking_entropy_two_routes_agree():
    for g, v, expected in ((path3(), "y", math.log(2) / 2),
                           (rose(1), "v", math.log(2)),
                           (segment(), "x", 0.0)):
        res = backtracking_entropy(g, v)
        assert res.h_transfer == pytest.approx(expected, abs=1e-9)
        assert abs(res.h_transfer - res.h_g_root) <= 1e-9


def test_backtracking_entropy_on_suite_routes_agree():
    for g, v in ((complete4(), "a"), (theta((1.0, 1.5, 2.0)), "x"),
                 (dumbbell(), "m")):
        res = backtracking_entropy(g, v)
        assert abs(res.h_transfer - res.h_g_root) <= 1e-9


@settings(max_examples=50, deadline=None)
@given(g=multigraphs(), data=st.data())
def test_backtracking_entropy_routes_agree_on_multigraphs(g, data):
    v = data.draw(st.sampled_from(g.vertices))
    res = backtracking_entropy(g, v)
    scale = max(1.0, res.h_transfer)
    assert abs(res.h_transfer - res.h_g_root) <= 1e-12 * scale
    assert abs(res.h_transfer - eig_entropy(g, mode=BT)) <= 1e-10 * scale


def test_backtracking_entropy_pinched_at_interior_entropy():
    # G - v0 keeps the loop of 0.01 at v1, whose entropy log 2 / 0.01 the
    # root exceeds by far less than an ulp
    g = MetricGraph.from_edges(["v0", "v1", "v2"], [
        ("v1", "v0", 1.0), ("v2", "v0", 1.0), ("v0", "v0", 1.0),
        ("v1", "v1", 0.01)])
    res = backtracking_entropy(g, "v0")
    h = math.log(2) / 0.01
    assert res.h_transfer == pytest.approx(h, rel=1e-13, abs=0.0)
    assert res.h_g_root == pytest.approx(h, rel=1e-13, abs=0.0)
    assert res.residual_g <= 1e-16


def test_backtracking_entropy_root_an_ulp_above_interior_entropy():
    # 1 - g(t) is negative at the interior entropy log 2 / 0.001 and
    # positive one ulp above it, where route 2 must end
    g = MetricGraph.from_edges(["v0", "v1", "v2"], [
        ("v0", "v0", 0.001), ("v0", "v2", 0.34), ("v0", "v1", 1.0)])
    res = backtracking_entropy(g, "v2")
    assert res.h_transfer == pytest.approx(math.log(2) / 0.001, rel=1e-13,
                                           abs=0.0)
    assert abs(res.h_g_root - res.h_transfer) <= 1e-12 * res.h_transfer


def test_backtracking_entropy_pinch_between_adjacent_floats():
    # the same graph: 1 - g is negative at one float and 1 at the next,
    # so the root is pinched between them; residual_g, |lambda_min(K)| at
    # the returned root, is still at rounding level there
    g = MetricGraph.from_edges(["v0", "v1", "v2"], [
        ("v0", "v0", 0.001), ("v0", "v2", 0.34), ("v0", "v1", 1.0)])
    res = backtracking_entropy(g, "v2")
    h = res.h_g_root
    assert res.residual_g <= max(1e-16, math.ulp(h) / h)


def test_backtracking_root_on_wide_length_spread():
    # lengths from 1e-3 to 757 bend lambda_min(I - W(t)) so much over
    # [0, log 4 / l_min] that secant steps of a bracketed search crept
    # along one side of the root and ended at 0.13295
    g = MetricGraph.from_edges(["v0", "v1", "v2", "v3"], [
        ("v1", "v0", 757.3711340177078), ("v2", "v0", 313.2045504220117),
        ("v3", "v0", 0.0012500341834190583),
        ("v2", "v1", 250.2714033577274), ("v2", "v3", 64.05496905814456),
        ("v3", "v0", 581.0833656803674)])
    assert backtracking_entropy(g, "v0").h_transfer == \
        pytest.approx(0.0677780297621380, rel=1e-12, abs=0.0)


def test_tree_backtracking_entropy_positive():
    # trees have zero volume entropy but positive backtracking growth
    for lengths in ((1.0, 1.0), (2.0, 1.5)):
        g = path3(*lengths)
        assert volume_entropy(g).h == 0.0
        res = backtracking_entropy(g, "x")
        assert res.h_transfer >= math.log(2) / (2 * max(lengths)) - 1e-9


def _fitted_profile(g, kind, mode, target, v, cap):
    """A profile of ``kind`` at v whose horizon fits ``cap``: start at the
    projected horizon for ``target`` paths and retry at half of it, or at
    the safe horizon when that is shorter.  The horizon must also fit the
    paths from v, which the walk does not prune, so that a paths-from
    profile can be taken at it too."""
    r_max = horizon_for_budget(g, v, target, mode)
    for _ in range(100):
        try:
            enumerate_paths(g, EnumerationSpec(PathKind.PATHS_FROM, r_max,
                                               mode, x=v, cap=cap))
            return enumerate_paths(g, EnumerationSpec(kind, r_max, mode,
                                                      v=v, x=v, cap=cap))
        except HorizonTooLarge as exc:
            r_max = min(exc.safe_horizon, 0.5 * r_max)
    pytest.fail("no horizon fits the cap")


def _pairs(violations):
    return [(r, n) for r, n, _ in violations]


@settings(max_examples=25, deadline=None)
@given(g=multigraphs())
@example(g=MetricGraph.from_edges(
    ["v0", "v1", "v2", "v3"],
    [("v1", "v0", 1.0), ("v2", "v0", 1.0), ("v3", "v0", 1.0),
     ("v0", "v0", 10.0), ("v0", "v0", 10.0),
     ("v1", "v2", 0.008353625469578262)]))
def test_array_checks_match_scalar_reference(g):
    # the backtracking cycles are the largest of the four recursion
    # profiles, so their horizon fits the others too
    v = g.vertices[0]
    bt_cyc = _fitted_profile(g, PathKind.CYCLES_AT, BT, 300, v, 2000)
    r_max = bt_cyc.r_max
    assert verify_recursions(g, v, r_max=r_max, cap=2000) \
        == scalar_recursions(g, v, r_max=r_max, cap=2000)
    # radii on attained lengths: r - l lands on attained values
    ties = bt_cyc.jump_radii()[::7]
    if ties.size:
        assert verify_recursions(g, v, r_grid=ties, cap=2000) \
            == scalar_recursions(g, v, r_grid=ties, cap=2000)

    # a constant small enough that N(r) crosses the bound
    h_fit = math.log(bt_cyc.lengths.size + 1.0) / r_max
    vec = _over_bound(*bt_cyc.steps(), 0.5, h_fit)
    ref = scalar_violations(bt_cyc, 0.5, h_fit)
    assert _pairs(vec) == _pairs(ref)
    assert all(math.isclose(a[2], b[2], rel_tol=5e-16)
               for a, b in zip(vec, ref))

    paths = enumerate_paths(g, EnumerationSpec(PathKind.PATHS_FROM, r_max,
                                               x=v, cap=20_000))
    for prof in (bt_cyc, paths):
        for w in (0.3, 1.0, 3.0):
            w /= g.min_length()
            assert math.isclose(_step_integral(prof, w),
                                scalar_step_integral(prof, w),
                                rel_tol=1e-12, abs_tol=0.0)
            if prof.lengths.size:
                half = 0.5 * prof.r_max
                # subnormal averages (the example above) may differ in
                # their last bit, which no summation order can promise
                assert math.isclose(
                    _step_integral(prof, w, half) / (w * half),
                    scalar_tail_average(prof, w, half), rel_tol=1e-12,
                    abs_tol=8 * math.ulp(0.0))

    # The bound checks below need entropies and a Perron vector.  With
    # fewer than two primitive cycles there is no backtracking bound, and
    # where growth_bounds fails on these inputs (rho(A(h)) off 1 where the
    # entropy of the core without v is within rounding of h; a Perron
    # entry that underflows to 0 beside a much longer edge) there is no
    # report to compare; those parts are skipped.
    try:
        bt = backtracking_bound(g, v, r_max, cap=2000)
    except PreconditionError:
        bt = None
    if bt is not None:
        assert _pairs(bt.violations) \
            == _pairs(scalar_violations(bt_cyc, bt.m_formula, bt.h))
    h = eig_entropy(g)
    rep_l = laplace_check(paths, g, h + 1.0, h=h)
    assert math.isclose(rep_l.m_used, scalar_laplace_constant(paths, h),
                        rel_tol=5e-16)
    assert math.isclose(rep_l.truncated,
                        scalar_step_integral(paths, h + 1.0),
                        rel_tol=1e-12, abs_tol=0.0)
    core = reduce(g).graph
    cv = max(core.vertex_set, key=lambda w: (core.degree(w), w))
    cyc = _fitted_profile(core, PathKind.CYCLES_AT, NB, 1000, cv, 5000)
    try:
        rep = growth_bounds(core, cv, cyc.r_max, cap=5000, h=h)
    except (PreconditionError, NonConvergence):
        return
    assert _pairs(rep.violations) \
        == _pairs(scalar_violations(cyc, rep.m_formula, h))
    assert math.isclose(rep.m_empirical, scalar_lower_constant(cyc, h),
                        rel_tol=5e-16)


@pytest.mark.parametrize("unit", [1.0, 0.1])
def test_recursions_on_commensurate_rose_hit_ties(unit):
    # loops l and 2l: every cycle length is a multiple of l, so at the
    # radii k l each r - l_i lands on an attained length.  With l = 1 the
    # sums are exact; with l = 0.1 they miss k l by a few ulps, and only
    # the tie guard keeps both sides of the identity on the open side.
    g = MetricGraph.from_edges(["v"], [("v", "v", unit),
                                       ("v", "v", 2.0 * unit)])
    grid = [unit * k for k in range(1, 10)]
    rep = verify_recursions(g, "v", r_grid=grid)
    assert rep == scalar_recursions(g, "v", r_grid=grid)
    assert rep.r_grid == tuple(grid)
    assert rep.passed
    unguarded = verify_recursions(g, "v", r_grid=grid, tie_guard=0.0)
    assert unguarded == scalar_recursions(g, "v", r_grid=grid, tie_guard=0.0)
    assert unguarded.passed == (unit == 1.0)


def test_empty_profile_step_integral_and_laplace_constant():
    prof = enumerate_paths(rose(2), EnumerationSpec(
        PathKind.PATHS_FROM, 0.5, x="v"))
    assert prof.lengths.size == 0
    assert _step_integral(prof, 1.0) == 0.0
    assert _step_integral(prof, 1.0, 0.25) == 0.0
    rep = laplace_check(prof, rose(2), math.log(3) + 1.0)
    assert rep.truncated == 0.0
    assert rep.m_used == 2.0
    assert rep.passed
