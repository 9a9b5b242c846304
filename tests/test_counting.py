"""Enumeration oracle and the counting identities."""

import collections
import dataclasses
import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from entrograph import (CountProfile, Dart, EnumerationSpec, HorizonTooLarge,
                        InsufficientData, MarginTooSmall, MetricGraph,
                        NonConvergence, PathKind, PreconditionError,
                        TransferMode, attachment_darts, backtracking_bound,
                        backtracking_entropy, entropy_from_counts,
                        enumerate_paths, generate_graph, growth_bounds,
                        horizon_for_budget, laplace_check, reduce,
                        verify_recursions, volume_entropy)
from entrograph import counting, entropy
from entrograph.counting import _count_model, _over_bound, _step_integral
from entrograph.graph import component_of
from helpers import (bfs_enumerate, c4, complete4, coo_return_bounds,
                     dfs_components, disjoint_union, dumbbell, eig_entropy,
                     exact_counts, mask_sort_rows, multigraphs, path3,
                     reference_verify_recursions, rose,
                     scalar_laplace_constant, scalar_lower_constant,
                     scalar_recursions, scalar_step_integral,
                     scalar_tail_average, scalar_violations, segment,
                     short_loop_core, split_multigraphs, theta)

NB = TransferMode.NON_BACKTRACKING
BT = TransferMode.BACKTRACKING
MODES = {NB: "nb", BT: "bt"}  # the modes of the BFS oracle


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


def test_attachment_ids_name_the_callers_darts():
    # the walk runs on the component of x; the ids are darts of g
    g = MetricGraph.from_edges(["a", "b", "x"], [
        ("a", "a", 1.0), ("a", "a", 1.5), ("b", "x", 2.0),
        ("x", "x", 0.7), ("x", "x", 1.1)])
    for kind in (PathKind.CYCLES_AT, PathKind.PRIMITIVE_CYCLES_AT):
        prof = enumerate_paths(g, EnumerationSpec(kind, 6.0, v="x"))
        assert prof.attachment_ids == (5, 6, 7, 8, 9)
        assert prof.attachment_ids == g.out_darts("x") == tuple(
            d.id for d in attachment_darts(g, "x"))


@pytest.mark.parametrize("mode", [NB, BT], ids=["nb", "bt"])
@pytest.mark.parametrize("kind", [PathKind.CYCLES_AT,
                                  PathKind.PRIMITIVE_CYCLES_AT],
                         ids=["cycles", "primitive"])
@settings(max_examples=25, deadline=None)
@given(g=split_multigraphs(), data=st.data())
def test_attachment_ids_on_split_multigraphs(kind, mode, g, data):
    # on a graph of several components the ids are the darts of g that
    # leave v, and the profile is that of v's component built alone
    v = data.draw(st.sampled_from(g.vertices))
    comp = next(c for c in dfs_components(g) if v in c.vertex_set)
    r_max = horizon_for_budget(comp, v, 500, mode) if comp.darts else 1.0
    for _ in range(100):
        spec = EnumerationSpec(kind, r_max, mode, v=v, cap=2000)
        try:
            prof = enumerate_paths(g, spec)
            break
        except HorizonTooLarge as exc:
            r_max = exc.safe_horizon
    else:
        pytest.fail("no horizon fits the cap")
    assert prof.attachment_ids == g.out_darts(v)
    assert all(g.darts[d].tail == v for d in prof.attachment_ids)
    ref = enumerate_paths(comp, spec)
    assert prof.lengths.tolist() == ref.lengths.tolist()
    for rows, ref_rows in ((prof.by_start, ref.by_start),
                           (prof.by_pair, ref.by_pair)):
        assert {k: r.tolist() for k, r in rows.items()} \
            == {k: r.tolist() for k, r in ref_rows.items()}


def _bits(profile):
    """Every field of a profile, each array as its dtype and bytes."""
    def raw(arr):
        return arr.dtype.str, arr.tobytes()
    return (profile.kind, profile.mode, profile.r_max, raw(profile.lengths),
            profile.endpoints, profile.attachment_ids,
            {k: raw(r) for k, r in profile.by_start.items()},
            {k: raw(r) for k, r in profile.by_pair.items()})


def _four_separate(g, spec):
    """The cycles and primitive cycles of ``spec`` in backtracking, then
    in non-backtracking mode, each from its own ``enumerate_paths``."""
    return [enumerate_paths(g, dataclasses.replace(spec, kind=kind,
                                                   mode=mode))
            for mode in (BT, NB)
            for kind in (PathKind.CYCLES_AT, PathKind.PRIMITIVE_CYCLES_AT)]


@pytest.mark.parametrize("mode", [NB, BT], ids=["nb", "bt"])
@settings(max_examples=25, deadline=None)
@given(g=multigraphs(), data=st.data())
def test_one_walk_matches_both_profiles_on_multigraphs(mode, g, data):
    # verify_recursions takes the cycles and the primitive cycles of both
    # modes from one backtracking walk that flags each sequence after its
    # first return and after its first step back; the two profiles of
    # ``mode`` must be the separate ones to the bit, their rows those of
    # the mask-and-sort grouping, and every refusal that of the
    # backtracking cycles enumeration
    pick = slice(0, 2) if mode is BT else slice(2, 4)
    v = data.draw(st.sampled_from(g.vertices))
    bt = _fitted_profile(g, PathKind.CYCLES_AT, BT, 300, v, 2000)
    fitted = EnumerationSpec(PathKind.CYCLES_AT, bt.r_max, BT, v=v, cap=2000)
    # the separate profiles are taken without the count model's
    # pre-check, which changes no profile it lets through
    unchecked = {"return_value": (0.0, 1.0)}
    with patch.object(counting, "_count_model", **unchecked):
        separate = _four_separate(g, fitted)[pick]
    for p in separate:
        rows = p.by_start if p.kind is PathKind.CYCLES_AT else p.by_pair
        ref = mask_sort_rows(g, dataclasses.replace(
            fitted, kind=p.kind, mode=p.mode))
        assert {k: r.tolist() for k, r in rows.items()} \
            == {k: r.tolist() for k, r in ref.items()}
    # double the horizon from the fitted one until the backtracking
    # cycles are refused: by the real count model at cap 2000, and
    # without its pre-check by the walk's own cap (1024 nodes at cap 0)
    for cap, model in ((2000, {"wraps": counting._count_model}),
                       (0, unchecked)):
        spec = dataclasses.replace(fitted, cap=cap)
        with patch.object(counting, "_count_model", **model):
            for _ in range(200):
                try:
                    enumerate_paths(g, spec)  # the backtracking cycles
                except HorizonTooLarge as exc:
                    with pytest.raises(HorizonTooLarge) as err:
                        counting._enumerate(g, spec, recursions=True)
                    assert (str(err.value), err.value.safe_horizon) \
                        == (str(exc), exc.safe_horizon)
                    break
                one = counting._enumerate(g, spec, recursions=True)[pick]
                with patch.object(counting, "_count_model", **unchecked):
                    separate = _four_separate(g, spec)[pick]
                assert [_bits(p) for p in one] \
                    == [_bits(p) for p in separate]
                spec = dataclasses.replace(spec, r_max=2.0 * spec.r_max)
            else:
                pytest.fail("the backtracking cycles were never refused")


def _two_walk_bound(g, v, r_max, cap):
    """``backtracking_bound`` from two enumerations: the primitive cycles
    at v, then the cycles at v."""
    prim = enumerate_paths(g, EnumerationSpec(
        PathKind.PRIMITIVE_CYCLES_AT, r_max, BT, v=v, cap=cap))
    if prim.lengths.size < 2:
        raise PreconditionError(
            "the backtracking bound needs at least two primitive cycles")
    l1 = float(prim.lengths[0])
    h = counting._vertex_root(component_of(g, v), BT).h
    m_formula = max(2.0, 3.0 * math.exp(-h * l1))
    profile = enumerate_paths(g, EnumerationSpec(
        PathKind.CYCLES_AT, r_max, BT, v=v, cap=cap))
    return counting.BacktrackingBoundReport(
        h, l1, m_formula, _over_bound(*profile.steps(), m_formula, h), r_max)


@settings(max_examples=25, deadline=None)
@given(g=multigraphs(), data=st.data())
def test_backtracking_bound_is_one_walk_on_multigraphs(g, data):
    # the cycles and the primitive cycles at v come from one flagged
    # walk, which groups only those two profiles: the report, violations
    # included, or the refusal is that of the two separate enumerations
    v = data.draw(st.sampled_from(g.vertices))
    r_max = _fitted_profile(g, PathKind.CYCLES_AT, BT, 300, v, 2000).r_max
    try:
        want = _two_walk_bound(g, v, r_max, 2000)
    except PreconditionError as exc:
        assert type(exc) is PreconditionError, exc  # not a subclass
        want = exc
    with patch.object(counting, "_walk", wraps=counting._walk) as spy, \
            patch.object(counting, "_grouped",
                         wraps=counting._grouped) as grouped:
        try:
            got = backtracking_bound(g, v, r_max, cap=2000)
        except PreconditionError as exc:
            got = exc
    assert spy.call_count == 1
    assert grouped.call_count == 2
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert repr(got) == repr(want)


@pytest.mark.parametrize("mode", [NB, BT], ids=["nb", "bt"])
@settings(max_examples=50, deadline=None)
@given(g=multigraphs(), data=st.data())
def test_return_bounds_match_coo_reference_on_multigraphs(mode, g, data):
    # the bounds read through the dart reversal from the cached CSR
    # pattern are those of Dijkstra on the reversed relation, to the bit
    v = data.draw(st.sampled_from(g.vertices))
    r_max = data.draw(st.floats(1e-3, 1e4))
    into = np.flatnonzero([d.head == v for d in g.darts])
    got = counting._return_bounds(g, mode, r_max, into)
    want = coo_return_bounds(g, mode, r_max, into)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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


def test_primitive_rows_index_the_callers_darts():
    # loops at x on the dart pairs (0, 3) and (1, 2), beside an isolated
    # z: the keys index the out-darts of this graph, not of a rebuilt
    # component whose pairs are consecutive
    darts = (Dart(0, "x", "x", 1.0, 3), Dart(1, "x", "x", 1.5, 2),
             Dart(2, "x", "x", 1.5, 1), Dart(3, "x", "x", 1.0, 0))
    spec = EnumerationSpec(PathKind.PRIMITIVE_CYCLES_AT, 3.2, v="x")
    rows = [{k: r.tolist() for k, r in enumerate_paths(g, spec).by_pair
             .items()} for g in (MetricGraph(("x", "z"), darts),
                                 MetricGraph(("x",), darts))]
    assert rows[0] == rows[1] == {(1, 4): [1.0], (2, 3): [1.5],
                                  (3, 2): [1.5], (4, 1): [1.0]}


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


@pytest.mark.parametrize("target", [0, -0.5, math.nan, -5, math.inf])
def test_budget_target_must_be_positive(target):
    # these gave a horizon of 0.0, -0.34 and nan, a math domain error and
    # an infinite horizon
    with pytest.raises(PreconditionError, match="target must be positive"):
        horizon_for_budget(dumbbell(), "a", target)


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


def _fitting_horizon(g, kind, mode, x, cap, y=None):
    """The horizon of ``horizon_for_budget(g, x, cap, mode)``, lowered to
    the suggested safe horizon until the enumeration of ``kind`` from x
    (at x, or to y) fits ``cap``: (r_max, profile)."""
    r_max = horizon_for_budget(g, x, cap, mode)
    for _ in range(100):
        try:
            return r_max, enumerate_paths(g, EnumerationSpec(
                kind, r_max, mode, x=x, y=y, v=x, cap=cap))
        except HorizonTooLarge as exc:
            r_max = exc.safe_horizon
    pytest.fail("no horizon fits the cap")


@pytest.mark.parametrize("mode", [NB, BT], ids=["nb", "bt"])
@settings(max_examples=25, deadline=None)
@given(g=multigraphs())
def test_walk_node_count_is_the_cap_rule_on_multigraphs(mode, g):
    # the walk of the paths from x makes one node per path below the
    # horizon: it raises with a limit of N - 1 and not with N.  The cap
    # keeps N at most int(1.25 * 2000) + 1024 for the BFS oracle
    x = g.vertices[0]
    r_max, _ = _fitting_horizon(g, PathKind.PATHS_FROM, mode, x, 2000)
    nodes = len(bfs_enumerate(g, "from", r_max, mode=MODES[mode], x=x))
    assume(nodes > 0)

    def walk(limit):
        return list(counting._walk(g, mode, g.out_darts(x), r_max, None,
                                   False, limit, False))

    with pytest.raises(HorizonTooLarge, match="exceeded its cap"):
        walk(nodes - 1)
    assert sum(cum.size for _, _, cum in walk(nodes)) == nodes


@pytest.mark.parametrize("mode", [NB, BT], ids=["nb", "bt"])
@pytest.mark.parametrize("kind", [
    PathKind.PATHS_FROM, PathKind.CYCLES_AT, PathKind.PATHS_XY,
    PathKind.PRIMITIVE_CYCLES_AT,
], ids=["paths-from", "cycles-at", "paths-xy", "primitive"])
@settings(max_examples=25, deadline=None)
@given(g=multigraphs(), data=st.data())
def test_walk_matches_exact_counts_on_integer_multigraphs(kind, mode, g,
                                                          data):
    # lengths in {1, 2, 3}: every count by length is an exact integer, at
    # horizons of up to about 10^5 sequences, where the BFS oracle is too
    # slow.  The horizon is an integer, so that sequences tie with it and
    # must be left out; the rows of the cycles are checked start by start,
    # those of the primitive cycles (start, end) pair by pair
    g = MetricGraph.from_edges(g.vertices, [
        (u, v, float(data.draw(st.integers(1, 3))))
        for u, v, _ in g.edge_list()])
    x = g.vertices[0]
    y = data.draw(st.sampled_from(g.vertices[1:] or g.vertices)) \
        if kind is PathKind.PATHS_XY else None
    r_max = max(math.floor(
        _fitting_horizon(g, kind, mode, x, 100_000, y)[0]), 1)
    prof = enumerate_paths(g, EnumerationSpec(kind, r_max, mode, x=x, y=y,
                                              v=x))
    totals, rows = exact_counts(g, kind, mode, r_max, x, y)
    assert dict(collections.Counter(prof.lengths.tolist())) == totals
    by = {PathKind.CYCLES_AT: prof.by_start,
          PathKind.PRIMITIVE_CYCLES_AT: prof.by_pair}.get(kind)
    if by is not None:
        assert {k: dict(collections.Counter(row.tolist()))
                for k, row in by.items()} == rows


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
    with pytest.raises(MarginTooSmall):  # the margin is 0.2
        laplace_check(prof, rose(2), math.log(3) + 0.15)
    laplace_check(prof, rose(2), math.log(3) + 0.25)


def test_laplace_refuses_a_primitive_cycles_profile():
    prof = enumerate_paths(complete4(), EnumerationSpec(
        PathKind.PRIMITIVE_CYCLES_AT, 3.0, v="a"))
    with pytest.raises(PreconditionError,
                       match="supports path and cycle profiles only"):
        laplace_check(prof, complete4(), 2.0)


def test_laplace_default_rate_is_that_of_the_base_component():
    # a theta beside a theta of higher entropy: the default h is the
    # entropy of the component of the profile's base, whose f and N(r)
    # the check compares, not the larger entropy of the whole graph
    g = MetricGraph.from_edges("abxy", [
        ("a", "b", 1.0), ("a", "b", 1.3), ("a", "b", 0.7),
        ("x", "y", 0.2), ("x", "y", 0.3), ("x", "y", 0.25)])
    prof = enumerate_paths(g, EnumerationSpec(
        PathKind.PATHS_FROM, 12.0, x="a"))
    h_a = volume_entropy(component_of(g, "a")).h
    rep = laplace_check(prof, g, h_a + 1.0)
    assert rep.passed
    assert rep.h_used == h_a
    assert rep == laplace_check(prof, g, h_a + 1.0, h=h_a)


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
    # G - v1 solves 18 ulps (4.0e-15) above h, the vertex-matrix root:
    # the primitive-cycle series at v1 diverge at h
    g = MetricGraph.from_edges(["v0", "v1"], [
        ("v0", "v0", 0.011487227450209346), ("v0", "v0", 2.603212119000015),
        ("v1", "v1", 86.0231507443473), ("v1", "v1", 48.40959018764339),
        ("v0", "v1", 0.11681437785115541), ("v0", "v1", 22.599269700245685)])
    with pytest.raises(PreconditionError, match="without 'v1' is not below"):
        growth_bounds(g, "v1", 10.0)


def test_growth_bounds_on_a_short_loop_core():
    # rho(A(h)) - 1 follows the error of h: an h 3.8e-9 off gives -2.3e-8,
    # beyond tol, so the check needs h to about 1e-12
    rep = growth_bounds(short_loop_core(), "v1", 300.0)
    assert rep.h == pytest.approx(eig_entropy(short_loop_core(), 1e-15),
                                  rel=1e-12, abs=0.0)
    assert abs(rep.rho_a - 1.0) <= 1e-12
    assert rep.violations == ()


@pytest.mark.parametrize("rel", [3.8e-9, -3.8e-9])
def test_growth_bounds_refuses_an_h_off_the_root(rel):
    # rho(A(h)) - 1 is -+2.3e-8 here, beyond the tolerance of 1e-8; an h
    # 1e-10 off gives 6.1e-10 and passes
    g = short_loop_core()
    h = counting._vertex_root(g).h
    with pytest.raises(NonConvergence, match="pipeline consistency failure"):
        growth_bounds(g, "v1", 300.0, h=h * (1.0 + rel))
    rep = growth_bounds(g, "v1", 300.0, h=h * (1.0 + rel / 38.0))
    assert 1e-10 < abs(rep.rho_a - 1.0) <= 1e-9


@pytest.mark.parametrize("kind", list(ORACLE_KINDS),
                         ids=[k.value for k in ORACLE_KINDS])
def test_nan_horizon_is_refused(kind):
    # a nan horizon failed the old r_max <= 0 test and gave no paths
    with pytest.raises(PreconditionError, match="horizon must be positive"):
        enumerate_paths(complete4(), EnumerationSpec(
            kind, math.nan, x="a", y="c", v="a"))


@pytest.mark.parametrize("call", [
    lambda: verify_recursions(complete4(), "a", r_max=math.nan),
    lambda: growth_bounds(complete4(), "a", math.nan),
], ids=["verify_recursions", "growth_bounds"])
def test_nan_horizon_is_refused_by_the_checks(call):
    # both used to report passed, with r_grid (nan,) or m_empirical inf
    with pytest.raises(PreconditionError, match="horizon must be positive"):
        call()


def test_verify_recursions_needs_a_grid_or_a_horizon():
    with pytest.raises(PreconditionError,
                       match="either r_grid or r_max is required"):
        verify_recursions(complete4(), "a")


@pytest.mark.parametrize("graph, message", [
    (MetricGraph.from_edges("abcd", [("a", "b", 1.0)] * 3
                            + [("c", "d", 1.0)] * 3),
     "a connected graph is required"),
    (generate_graph(1, 10, 20),
     r"a reduced graph \(all degrees >= 3\) is required; call reduce\(\)"),
], ids=["two-thetas", "unreduced"])
def test_growth_bounds_refuses_a_graph_it_cannot_bound(graph, message):
    with pytest.raises(PreconditionError, match=message):
        growth_bounds(graph, graph.vertices[0], 3.0)


def test_entropy_from_counts_refuses_an_empty_profile_and_a_low_window():
    empty = enumerate_paths(complete4(), EnumerationSpec(
        PathKind.PATHS_FROM, 0.5, x="a"))
    assert empty.lengths.size == 0
    with pytest.raises(InsufficientData, match="profile records no lengths"):
        entropy_from_counts(empty, (0.1, 0.4))
    # every length is 1: a window from 0.5 starts below the least one
    prof = enumerate_paths(complete4(), EnumerationSpec(
        PathKind.PATHS_FROM, 4.5, x="a"))
    with pytest.raises(InsufficientData, match="r2 > r1 >= min length"):
        entropy_from_counts(prof, (0.5, 3.0))


@pytest.mark.parametrize("kind, given_ends, missing", [
    (PathKind.PATHS_XY, {"x": "a", "v": "c"}, "y"),
    (PathKind.PATHS_XY, {"y": "c"}, "x"),
    (PathKind.PATHS_FROM, {"y": "c", "v": "a"}, "x"),
    (PathKind.CYCLES_AT, {"x": "a", "y": "c"}, "v"),
    (PathKind.PRIMITIVE_CYCLES_AT, {"x": "a"}, "v"),
], ids=["xy-no-y", "xy-no-x", "from-no-x", "cycles-no-v", "primitive-no-v"])
def test_missing_endpoint_is_refused_by_name(kind, given_ends, missing):
    # each used to raise UnknownVertex: unknown vertex None
    with pytest.raises(PreconditionError, match=f"endpoint {missing}$"):
        enumerate_paths(complete4(), EnumerationSpec(kind, 2.0, **given_ends))


CAP_CALLS = pytest.mark.parametrize("call", [
    lambda cap: enumerate_paths(complete4(), EnumerationSpec(
        PathKind.CYCLES_AT, 2.0, v="a", cap=cap)),
    lambda cap: verify_recursions(complete4(), "a", r_max=2.0, cap=cap),
    lambda cap: growth_bounds(complete4(), "a", 2.0, cap=cap),
    lambda cap: backtracking_bound(complete4(), "a", 2.0, cap=cap),
], ids=["enumerate_paths", "verify_recursions", "growth_bounds",
        "backtracking_bound"])


@CAP_CALLS
def test_negative_cap_is_refused(call):
    # cap -5 used to raise a bare math domain error from the suggested
    # horizon; cap 0 is a cap, which the count model enforces
    with pytest.raises(PreconditionError, match="cap must be nonnegative"):
        call(-5)
    with pytest.raises(HorizonTooLarge):
        call(0)


@CAP_CALLS
@pytest.mark.parametrize("cap", [math.inf, math.nan], ids=["inf", "nan"])
def test_cap_that_is_not_finite_is_refused(call, cap):
    # an infinite cap used to end in an OverflowError from the walk's
    # node limit, int(1.25 cap) + 1024
    with pytest.raises(PreconditionError, match=(
            f"^cap must be nonnegative and finite, got {cap}$")) as info:
        call(cap)
    assert type(info.value) is PreconditionError


@CAP_CALLS
def test_cap_above_max_cap_is_refused(call):
    # a finite huge cap left the walk's node limit, int(1.25 cap) + 1024,
    # bounding nothing, so a walk could exhaust memory; at r = 2 the
    # walk is tiny, so only the ceiling refuses it
    for cap in (1e30, float(counting.MAX_CAP + 1)):
        with pytest.raises(PreconditionError) as info:
            call(cap)
        assert type(info.value) is PreconditionError
        assert str(info.value) == f"cap {cap} exceeds MAX_CAP = 100000000"
    try:
        call(counting.MAX_CAP)  # the ceiling itself is a cap
    except PreconditionError as exc:  # K4 has no backtracking primitive
        assert "two primitive cycles" in str(exc)  # cycle below r = 2


@pytest.mark.parametrize("r_max", [math.nan, 0.0, -1.0],
                         ids=["nan", "zero", "negative"])
def test_growth_bounds_refuses_a_bad_horizon_before_building_a(r_max):
    # the horizon is checked before A(h), its eigen-decomposition and
    # the Perron vector are built, not by the enumeration after them
    core = reduce(generate_graph(2, 10, 18)).graph
    v = max(core.vertex_set, key=lambda w: (core.degree(w), w))
    with patch.object(counting, "primitive_matrix",
                      side_effect=AssertionError("A(h) was built")):
        with pytest.raises(PreconditionError,
                           match="horizon must be positive"):
            growth_bounds(core, v, r_max)


@pytest.mark.parametrize("cap", [-5, math.nan], ids=["negative", "nan"])
def test_growth_bounds_refuses_a_bad_cap_before_building_a(cap):
    # the cap is checked with the horizon, before A(h) and its
    # eigen-decomposition, not by the enumeration after them
    core = reduce(generate_graph(2, 10, 18)).graph
    v = max(core.vertex_set, key=lambda w: (core.degree(w), w))
    with patch.object(counting, "primitive_matrix",
                      side_effect=AssertionError("A(h) was built")):
        with pytest.raises(PreconditionError,
                           match="cap must be nonnegative"):
            growth_bounds(core, v, 5.0, cap=cap)


def _report_bits(rep):
    return tuple(
        (value.dtype.str, value.tobytes()) if isinstance(value, np.ndarray)
        else value for value in dataclasses.astuple(rep))


def test_growth_bounds_solves_the_vertex_matrix_once():
    # the default h's root also gives the count model of the enumeration
    core = reduce(generate_graph(2, 10, 18)).graph
    v = max(core.vertex_set, key=lambda w: (core.degree(w), w))
    with patch.object(entropy, "_cold_root",
                      wraps=entropy._cold_root) as spy:
        rep = growth_bounds(core, v, 14.0)
    assert spy.call_count == 1
    # given h, on a graph object that has solved nothing: the same report
    fresh = reduce(generate_graph(2, 10, 18)).graph
    ref = growth_bounds(fresh, v, 14.0, h=counting._vertex_root(fresh).h)
    assert _report_bits(rep) == _report_bits(ref)


@pytest.mark.parametrize("grid", [[], [4.0, math.nan], [math.nan, 4.0]],
                         ids=["empty", "nan-last", "nan-first"])
def test_recursion_grid_must_be_radii(grid):
    # max() of an empty grid was a bare ValueError, and a nan radius
    # passed or not by its place in the grid
    with pytest.raises(PreconditionError, match="r_grid"):
        verify_recursions(complete4(), "a", r_grid=grid)


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


def test_backtracking_rates_are_route_one_to_the_bit():
    # laplace_check's default h in backtracking mode and
    # backtracking_bound solve route 1 of backtracking_entropy alone
    beside = disjoint_union([path3(1.0, 5.0), dumbbell()])
    for g, v, r in ((path3(), "y", 14.0), (path3(1.0, 5.0), "x", 40.0),
                    (beside, "x", 40.0), (beside, "m", 8.0)):
        h = backtracking_entropy(g, v).h_transfer
        prof = enumerate_paths(g, EnumerationSpec(
            PathKind.CYCLES_AT, r, BT, v=v))
        assert laplace_check(prof, g, h + 0.5).h_used == h
        assert backtracking_bound(g, v, r).h == h


def test_backtracking_bound_needs_two_primitives():
    with pytest.raises(PreconditionError):
        backtracking_bound(segment(), "x", 10.0)
    # v-u with a loop of 10^6 at u: one primitive cycle below 9000, but
    # 4500 cycles, whose walk overruns the cap first
    g = MetricGraph.from_edges(["v", "u"], [("v", "u", 1.0),
                                            ("u", "u", 1e6)])
    with pytest.raises(PreconditionError, match="two primitive cycles"):
        backtracking_bound(g, "v", 3000.0, cap=2000)
    with pytest.raises(HorizonTooLarge, match="exceeded its cap"):
        backtracking_bound(g, "v", 9000.0, cap=2000)


def test_backtracking_entropy_two_routes_agree():
    for g, v, expected in ((path3(), "y", math.log(2) / 2),
                           (rose(1), "v", math.log(2)),
                           (segment(), "x", 0.0)):
        res = backtracking_entropy(g, v)
        assert res.h_transfer == pytest.approx(expected, abs=1e-9)
        assert abs(res.h_transfer - res.h_g_root) <= 1e-9


def test_backtracking_entropy_at_an_isolated_vertex_is_zero():
    # c has no edge: no cycle grows at it, beside a theta that has some
    g = MetricGraph.from_edges(["a", "b", "c"], [
        ("a", "b", 1.0), ("a", "b", 2.0), ("a", "b", 1.5)])
    assert dataclasses.astuple(backtracking_entropy(g, "c")) == (0.0,) * 4


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
    except PreconditionError as exc:
        assert type(exc) is PreconditionError, exc  # not a subclass
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
    except (PreconditionError, NonConvergence) as exc:
        assert type(exc) in (PreconditionError, NonConvergence), exc
        return
    assert _pairs(rep.violations) \
        == _pairs(scalar_violations(cyc, rep.m_formula, h))
    assert math.isclose(rep.m_empirical, scalar_lower_constant(cyc, h),
                        rel_tol=5e-16)


@settings(max_examples=25, deadline=None)
@given(g=multigraphs(), block=st.sampled_from([1, 7, 1 << 20]))
def test_recursions_match_scalar_on_cores(g, block):
    # the whole-grid identity checks against the one-count-at-a-time
    # loop, on blocks of down to one (radius, length) pair; with no tie
    # guard at attained lengths the mismatch tuples are compared too
    core = reduce(g).graph
    v = max(core.vertex_set, key=lambda w: (core.degree(w), w))
    bt_cyc = _fitted_profile(core, PathKind.CYCLES_AT, BT, 300, v, 2000)
    r_max, ties = bt_cyc.r_max, bt_cyc.jump_radii()[::3]
    with patch.object(counting, "_GRID_BLOCK", block):
        # repr also tells a numpy scalar from a Python one
        assert repr(verify_recursions(core, v, r_max=r_max, cap=2000)) \
            == repr(scalar_recursions(core, v, r_max=r_max, cap=2000))
        if ties.size:
            assert repr(verify_recursions(core, v, r_grid=ties, cap=2000,
                                          tie_guard=0.0)) \
                == repr(scalar_recursions(core, v, r_grid=ties, cap=2000,
                                          tie_guard=0.0))


@settings(max_examples=40, deadline=None)
@given(g=multigraphs())
def test_recursions_match_pair_loop_on_multigraphs(g):
    # the sums taken once per end j against the loop over each pair
    # (i, j) of starting and ending darts, bit for bit; with no tie guard
    # at attained cycle lengths the mismatch tuples are compared too
    v = max(g.vertex_set, key=lambda w: (g.degree(w), w))
    bt_cyc = _fitted_profile(g, PathKind.CYCLES_AT, BT, 300, v, 2000)
    ties = bt_cyc.jump_radii()[::2]
    assert repr(verify_recursions(g, v, r_max=bt_cyc.r_max, cap=2000)) \
        == repr(reference_verify_recursions(g, v, r_max=bt_cyc.r_max,
                                            cap=2000))
    if ties.size:
        assert repr(verify_recursions(g, v, r_grid=ties, cap=2000,
                                      tie_guard=0.0)) \
            == repr(reference_verify_recursions(g, v, r_grid=ties, cap=2000,
                                                tie_guard=0.0))


def _verify_case():
    """The core ``entrograph verify`` checks on generate_graph(1, 6, 10),
    its vertex and the horizon of its recursions check."""
    core = reduce(generate_graph(1, 6, 10)).graph
    v = max(core.vertex_set, key=lambda w: (core.degree(w), w))
    return core, v, min(0.6 * horizon_for_budget(core, v, 200_000),
                        horizon_for_budget(core, v, 200_000, BT))


def _oracle_case():
    """The oracle workload's core, vertex and recursions horizon."""
    core = reduce(generate_graph(2, 10, 18)).graph
    v = max(core.vertex_set, key=lambda w: (core.degree(w), w))
    return core, v, 14.0


@pytest.mark.parametrize("case", [_oracle_case, _verify_case],
                         ids=["oracle-core", "verify-core"])
def test_default_radii_come_from_the_backtracking_cycles(case):
    # every non-backtracking cycle length is a backtracking one, so the
    # distinct backtracking lengths place the radii that the union of
    # both profiles placed, to the bit
    core, v, r_max = case()
    bt_cyc, _, nb_cyc, _ = counting._enumerate(core, EnumerationSpec(
        PathKind.CYCLES_AT, r_max, BT, v=v), recursions=True)
    union = np.unique(np.concatenate([nb_cyc.lengths, bt_cyc.lengths]))
    want = counting._default_radii(union, r_max, 1e-9)
    got = verify_recursions(core, v, r_max=r_max).r_grid
    assert np.array(got).tobytes() == np.array(want).tobytes()


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


@pytest.mark.parametrize("lengths", [[], [1.0], [1.0, 1.0, 2.5, 3.0, 3.0, 3.0],
                                     [0.1 + 0.2, 0.3, 0.3]])
def test_steps_match_unique_counts(lengths):
    # jumps and N past each jump read off the sorted lengths equal
    # np.unique with its counts, dtypes included, also when empty
    prof = CountProfile(PathKind.PATHS_FROM, NB, 4.0,
                        np.array(sorted(lengths), dtype=float), ("v",))
    jumps, n_le = prof.steps()
    want, mult = np.unique(prof.lengths, return_counts=True)
    assert jumps.dtype == want.dtype and np.array_equal(jumps, want)
    assert n_le.dtype == np.cumsum(mult).dtype
    assert np.array_equal(n_le, np.cumsum(mult))
    assert np.array_equal(prof.jump_radii(), want)
