"""Transfer matrices, Perron data and the vertex matrix."""

import math
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from entrograph import (MetricGraph, NonConvergence, PreconditionError,
                        TransferMode, build_transfer, generate_graph, reduce,
                        spectral_radius, vertex_matrix)
from entrograph import entropy, spectral
from entrograph.entropy import (_dart_core, _log_rho, _row_sum_bound,
                                _upper_start, _vertex_root)
from entrograph.graph import _strong_blocks
from helpers import (c4, complete4, dumbbell, eig_entropy, eig_rho,
                     extreme_multigraphs, mp_root, multigraphs,
                     reference_edge_forms, reference_matrix,
                     reference_power_block, rose, segment, spread_graph,
                     sweep_graphs, theta)

NB = TransferMode.NON_BACKTRACKING
BT = TransferMode.BACKTRACKING


def test_rose2_transfer_rows_have_three_ones_at_t0():
    tm = build_transfer(rose(2), 0.0, NB)
    assert tm.matrix.shape == (4, 4)
    assert np.all(np.isin(tm.matrix, (0.0, 1.0)))
    assert np.all(tm.matrix.sum(axis=1) == 3)
    # a dart never transitions to its own reversal
    for d in rose(2).darts:
        assert tm.matrix[d.id, d.reverse] == 0.0


def test_segment_nonbacktracking_transfer_is_zero():
    tm = build_transfer(segment(), 1.3, NB)
    assert np.all(tm.matrix == 0.0)


def test_segment_backtracking_transfer_at_ln2():
    tm = build_transfer(segment(), math.log(2.0), BT)
    expected = np.array([[0.0, 0.5], [0.5, 0.0]])
    assert np.allclose(tm.matrix, expected)


@settings(max_examples=60, deadline=None)
@given(multigraphs(), st.floats(0.0, 3.0))
def test_transfer_matches_the_dart_loop(g, t):
    # the index arrays fill the same entries as a loop over successors
    weights = np.exp(-t * np.array([d.length for d in g.darts]))
    for mode in (NB, BT):
        ref = np.zeros((len(g.darts), len(g.darts)))
        for d in g.darts:
            for d2 in g.out_darts(d.head):
                if mode is BT or d2 != d.reverse:
                    ref[d.id, d2] = weights[d2]
        assert np.array_equal(build_transfer(g, t, mode).matrix, ref)
        # and the pairs themselves, in the row-major, dart-id order that
        # transitions documents and the NB filter and _return_bounds read
        rows, cols = spectral.transitions(g, mode)
        assert list(zip(rows.tolist(), cols.tolist())) == [
            (d.id, e) for d in g.darts for e in g.out_darts(d.head)
            if mode is BT or e != d.reverse]


def test_transfer_entries_bounded_by_min_length_weight():
    g = dumbbell()
    t = 0.8
    tm = build_transfer(g, t, NB)
    positive = tm.matrix[tm.matrix > 0]
    assert np.all(positive <= math.exp(-t * g.min_length()) + 1e-15)


def test_spectral_radius_zero_matrix():
    data = spectral_radius(np.zeros((3, 3)))
    assert data.rho == 0.0
    assert np.max(np.abs(np.zeros((3, 3)) @ data.right)) == 0.0


def test_spectral_radius_rose2_closed_form():
    for t in (0.0, 0.5, math.log(3.0), 2.0):
        rho = spectral_radius(build_transfer(rose(2), t, NB)).rho
        assert rho == pytest.approx(3.0 * math.exp(-t), abs=1e-11)


def test_spectral_radius_block_diagonal_max():
    top = build_transfer(rose(2), 0.0, NB).matrix
    mat = np.zeros((7, 7))
    mat[:4, :4] = top
    assert spectral_radius(mat).rho == pytest.approx(3.0, abs=1e-11)


def test_spectral_radius_tie_goes_to_the_first_component():
    # components are visited in order of their first index, so of two
    # equal radii the one holding index 0 carries the vector; the link
    # 0 -> 4 makes scipy label the second component first
    top = build_transfer(rose(2), 0.0, NB).matrix
    mat = np.zeros((8, 8))
    mat[:4, :4] = mat[4:, 4:] = top
    mat[0, 4] = 0.5
    data = spectral_radius(mat)
    assert data.rho == pytest.approx(3.0, abs=1e-11)
    assert not data.right[4:].any() and np.all(data.right[:4] > 0)


def test_spectral_radius_matches_eigvals_on_seeded_matrices():
    rng = np.random.default_rng(7)
    for _ in range(8):
        n = rng.integers(2, 9)
        mat = rng.random((n, n)) * (rng.random((n, n)) < 0.6)
        assert spectral_radius(mat).rho == pytest.approx(
            eig_rho(mat), abs=1e-9)


def test_perron_vectors_residual_invariant():
    mat = build_transfer(complete4(), 0.4, NB).matrix
    data = spectral_radius(mat, tol=1e-13)
    scale = np.max(np.abs(mat).sum(axis=1))
    resid = np.max(np.abs(mat @ data.right - data.rho * data.right))
    assert resid <= 1e-12 * scale * np.max(data.right)
    assert data.right.sum() == pytest.approx(1.0)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_reversed_right_vector_is_left_perron_vector(g):
    # B(t) = S W with S^T = J S J for the dart reversal J, so
    # ell = W J r has B^T ell - rho ell = W J (B r - rho r): a left
    # Perron vector on the reversal of the block that carries r.
    rev = np.array([d.reverse for d in g.darts])
    lengths = np.array([d.length for d in g.darts])
    for mode in (NB, BT):
        h = eig_entropy(g, 1e-6, mode)
        for t in (0.0, h, 2.0 * h):
            mat = build_transfer(g, t, mode).matrix
            try:
                data = spectral_radius(mat, tol=1e-13)
            except NonConvergence:
                continue  # no right vector, so no left vector to check
            _, labels = connected_components(mat > 0, directed=True,
                                             connection="strong")
            block = labels == labels[np.argmax(data.right)]
            left = np.exp(-t * lengths) * data.right[rev]
            assert not np.any(left[~block[rev]])
            scale = np.max(np.abs(mat).sum(axis=1))
            for vec, m, rows in ((data.right, mat, block),
                                 (left, mat.T, block[rev])):
                resid = np.max(np.abs(m @ vec - data.rho * vec)[rows])
                assert resid <= 1e-12 * scale * np.max(vec)


@settings(max_examples=60, deadline=None)
@given(multigraphs())
def test_sparse_transfer_matches_dense(g):
    # the CSR B(t) of _sparse_transfer, iterated as CSR at every block
    # size, against the dense matrix, iterated dense
    for mode in (NB, BT):
        h = eig_entropy(g, 1e-6, mode)
        for t in (0.0, h, 2.0 * h):
            mat = build_transfer(g, t, mode).matrix
            csr = spectral._sparse_transfer(g, t, mode)
            assert np.array_equal(csr.toarray(), mat)
            runs = []
            with patch.object(spectral, "_SPARSE_MIN", 1):
                for m in (mat, csr):
                    try:
                        runs.append(spectral_radius(m))
                    except NonConvergence:
                        runs.append(None)
            dense, sparse = runs
            assert (dense is None) == (sparse is None)
            if sparse is None:
                continue
            assert sparse.rho == pytest.approx(dense.rho, rel=1e-12, abs=0.0)
            _, labels = connected_components(mat > 0, directed=True,
                                             connection="strong")
            block = labels == labels[np.argmax(sparse.right)]
            scale = np.max(np.abs(mat).sum(axis=1))
            resid = np.abs(mat @ sparse.right - sparse.rho * sparse.right)
            assert np.max(resid[block]) <= \
                1e-12 * scale * np.max(sparse.right)


def _both_loops(matrix, max_iter=10_000):
    """[(rho, iterations) or None on NonConvergence] of spectral_radius
    with ``_power_block`` and with ``reference_power_block``, every block
    iterated in the matrix's own format."""
    runs = []
    with patch.object(spectral, "_SPARSE_MIN", 1):
        for loop in (spectral._power_block, reference_power_block):
            with patch.object(spectral, "_power_block", loop):
                try:
                    data = spectral_radius(matrix, max_iter=max_iter)
                    runs.append((data.rho, data.iterations))
                except NonConvergence:
                    runs.append(None)
    return runs


def _assert_same_run(new, ref):
    """The same decision and step count, rho to rounding."""
    assert (new is None) == (ref is None)
    if ref is not None:
        assert new[1] == ref[1]
        assert new[0] == pytest.approx(ref[0], rel=1e-15, abs=0.0)


def test_power_block_matches_reference_on_ladder_and_spread():
    # the step matrix I + B/s, and past _STRIDE_AFTER n steps its 15th
    # power, against the loop that normalized at every step, on the
    # benchmark's ladder cores and wide-length graphs around their roots
    # and at the row-sum start of volume_entropy: the same decision and
    # step count, rho to rounding
    graphs = [generate_graph(s, v, 2 * v)
              for v in (10, 40, 100) for s in range(1, 6)]
    spread = [spread_graph(k) for k in range(5)]
    failed = 0
    for g in graphs + spread:
        core = reduce(g).graph
        h = _vertex_root(core).h
        start = _row_sum_bound(core._edge_arrays, NB)
        for t in (0.5 * h, 0.9 * h, h, 1.1 * h, 2.0 * h,
                  _upper_start(core._edge_arrays, NB), start):
            csr = spectral._sparse_transfer(core, t)
            for m in (csr.toarray(), csr):
                with patch.object(np.linalg, "matrix_power",
                                  wraps=np.linalg.matrix_power) as power:
                    new, ref = _both_loops(m)
                _assert_same_run(new, ref)
                failed += ref is None
                if g in spread and t == start and m is not csr:
                    assert power.called  # the dense blocks ran strided
                    assert (ref is None) == (g is spread[0])
    assert failed  # the spread graphs' NonConvergence is among the cases

    # a max_iter that is no multiple of _CHECK_EVERY ends on single steps
    # after the strided ones: spread(1) at its start takes 304 steps
    core = reduce(spread[1]).graph
    mat = spectral._sparse_transfer(
        core, _row_sum_bound(core._edge_arrays, NB)).toarray()
    runs = [_both_loops(mat, max_iter) for max_iter in (297, 300)]
    for new, ref in runs:
        _assert_same_run(new, ref)
    (_, raised), (_, ended) = runs
    assert raised is None and ended[1] == 300


@settings(max_examples=60, deadline=None)
@given(multigraphs())
@example(MetricGraph.from_edges(["v0", "v1", "v2", "v3"], [
    ("v1", "v0", 0.004329033494304183), ("v2", "v0", 0.8459478161414258),
    ("v3", "v0", 10.0), ("v2", "v1", 1.0),
    ("v2", "v1", 0.0013304792841262426)]))
def test_power_block_matches_reference_on_multigraphs(g):
    for mode in (NB, BT):
        h = _vertex_root(g, mode).h
        for t in (0.0, h, 2.0 * h):
            mat = build_transfer(g, t, mode).matrix
            for m in (mat, csr_matrix(mat)):
                new, ref = _both_loops(m)
                assert (new is None) == (ref is None)
                if ref is None:
                    continue
                if new[1] == ref[1]:
                    assert new[0] == pytest.approx(ref[0], rel=1e-14,
                                                   abs=0.0)
                    continue
                # a test within rounding of its bound passed in one loop
                # and failed in the other (the example: NB at h, dense,
                # 272 against 256 steps, rho 1.6e-13 apart): both rho
                # are then certified to the residual scale 1e-12 s
                assert abs(new[1] - ref[1]) == spectral._CHECK_EVERY
                scale = np.max(np.abs(mat).sum(axis=1))
                assert abs(new[0] - ref[0]) <= 1e-12 * scale


def _radius(matrix, **kwargs):
    """spectral_radius, or None where it raises NonConvergence."""
    try:
        return spectral_radius(matrix, **kwargs)
    except NonConvergence:
        return None


def _check_cached_split(g):
    """``_log_rho`` on the dart core of g hands spectral_radius the core's
    cached split exactly where no weight e^{-t l} underflows to 0, and
    that evaluation equals spectral_radius splitting the support of B(t)
    itself bit for bit, or raises where that raises."""
    core, start = _dart_core(g)
    h = _vertex_root(core).h
    underflow = 800.0 / core._dart_arrays[0].max()  # e^{-800} is 0
    for t in (0.5 * h, h, 2.0 * h, start, underflow):
        transfer = spectral._sparse_transfer(core, t)
        positive = bool(transfer.data.all())
        assert not (positive and t == underflow)
        with patch.object(entropy, "spectral_radius",
                          wraps=spectral_radius) as spy:
            try:
                _log_rho(core, t)
            except NonConvergence:
                pass
        (matrix,), kwargs = spy.call_args
        assert kwargs["blocks"] is (core._nb_blocks if positive else None)
        if positive:  # the support of B(t) is the transition pattern
            support = _strong_blocks(csr_matrix(transfer > 0))
            assert len(support) == len(core._nb_blocks)
            assert all(map(np.array_equal, support, core._nb_blocks))
        cached = _radius(matrix, blocks=kwargs["blocks"])
        split = _radius(transfer)
        assert (cached is None) == (split is None)
        if split is not None:
            assert cached.rho == split.rho
            assert cached.iterations == split.iterations
            assert np.array_equal(cached.right, split.right)


@settings(max_examples=60, deadline=None)
@given(st.one_of(multigraphs(), extreme_multigraphs()))
def test_cached_split_matches_support_split(g):
    _check_cached_split(g)


def test_cached_split_matches_support_split_on_spread_cores():
    for k in range(5):
        _check_cached_split(spread_graph(k))


def test_spectral_radius_of_blocks_with_tiny_row_sums():
    # the shift is the largest row sum however small, so the step keeps
    # its contraction: a shift far above rho stalls at NonConvergence
    golden = 0.5 * (1.0 + math.sqrt(5.0))
    base = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
    for c in (1e-305, 1e-310):
        for m in (c * base, csr_matrix(c * base)):
            with patch.object(spectral, "_SPARSE_MIN", 1):
                rho = spectral_radius(m).rho
            assert rho / c == pytest.approx(golden, rel=1e-12, abs=0.0)


def test_periodic_support_converges():
    # C4's dart graph is two disjoint 4-cycles: period 4 without a shift.
    mat = build_transfer(c4(), 0.3, NB).matrix
    assert spectral_radius(mat).rho == pytest.approx(math.exp(-0.3),
                                                     abs=1e-11)


def test_rho_strictly_decreasing_in_t():
    for g in (rose(2), theta(), complete4(), dumbbell()):
        pairs = [(0.0, 0.4), (0.4, 1.1), (1.1, 2.3)]
        for t1, t2 in pairs:
            r1 = spectral_radius(build_transfer(g, t1, NB)).rho
            r2 = spectral_radius(build_transfer(g, t2, NB)).rho
            assert r2 < r1


def test_log_rho_convex_in_t():
    for g in (rose(2), complete4(), dumbbell(), theta((1.0, 1.4, 2.2))):
        t1, t2 = 0.2, 1.8
        mid = 0.5 * (t1 + t2)
        logs = [math.log(spectral_radius(build_transfer(g, t, NB)).rho)
                for t in (t1, mid, t2)]
        assert logs[1] <= 0.5 * (logs[0] + logs[2]) + 1e-9


def test_backtracking_rho_at_zero_is_max_degree_on_regular_graphs():
    assert spectral_radius(build_transfer(complete4(), 0.0, BT)).rho == \
        pytest.approx(3.0, abs=1e-11)
    assert spectral_radius(build_transfer(theta(), 0.0, BT)).rho == \
        pytest.approx(3.0, abs=1e-11)


def _loops_and_parallels():
    return MetricGraph.from_edges(
        ["a", "b", "c"],
        [("a", "b", 1.0), ("a", "b", 0.5), ("b", "c", 2.0), ("c", "c", 0.3),
         ("a", "a", 1e-3), ("a", "c", 1.7)])


def test_vertex_matrix_ihara_bass_determinant():
    # det(I - B(t)) = det M(t) * prod_e (1 - z_e^2), loops included.
    for g in (_loops_and_parallels(), complete4(), dumbbell(), rose(3)):
        for t in (0.2, 0.9, 2.5):
            z = np.array([math.exp(-t * d.length) for d in g.edge_darts()])
            lhs = np.linalg.det(np.eye(len(g.darts))
                                - build_transfer(g, t, NB).matrix)
            rhs = np.linalg.det(vertex_matrix(g, t, NB)) * np.prod(1 - z * z)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def _det_root(graph, h, dps=50):
    """The sign change of det(I - B(t)) next to h: a bisection at ``dps``
    digits on [h (1 - 1e-6), h (1 + 1e-6)], where the mpmath determinant
    of the dense non-backtracking dart matrix, built entry by entry from
    the darts, must be negative at the lower end and positive at the
    upper one, down to a bracket 1e-30 relative wide; its midpoint."""
    import mpmath
    with mpmath.workdps(dps):
        lengths = [mpmath.mpf(d.length) for d in graph.darts]

        def det(t):
            m = mpmath.eye(len(graph.darts))
            for d in graph.darts:
                for e in graph.out_darts(d.head):
                    if e != d.reverse:
                        m[d.id, e] -= mpmath.exp(-t * lengths[e])
            return mpmath.det(m)

        lo, hi = h * (1 - mpmath.mpf("1e-6")), h * (1 + mpmath.mpf("1e-6"))
        assert det(lo) < 0 < det(hi)
        while hi - lo > mpmath.mpf("1e-30") * hi:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if det(mid) > 0 else (mid, hi)
        return (lo + hi) / 2


def test_mp_root_is_the_sign_change_of_det_i_minus_b():
    # the 50-digit root of the vertex matrix is that of the dart matrix:
    # the weighted Ihara-Bass identity behind vertex_matrix, with neither
    # float solver involved, on three small sweep cores (a rose of three
    # loops, a theta and four parallel edges), their lengths 1e-6 to 1e3
    # apart
    graphs = sweep_graphs()
    for i in (111, 8, 19):
        core = reduce(graphs[i]).graph
        root = mp_root(core)
        assert abs(_det_root(core, root) - root) <= 1e-30 * root


@pytest.mark.parametrize("t, mode", [
    (0.0, NB), (-1.0, NB), (-1.0, BT), (math.nan, NB), (math.nan, BT)])
def test_vertex_matrix_refuses_t_outside_its_domain(t, mode):
    # t = 0 used to divide by zero into inf entries, t = -1 to give a
    # finite matrix that means nothing, and nan a matrix of nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match="needs t > 0"):
            vertex_matrix(generate_graph(1, 6, 10), t, mode)


def test_backtracking_vertex_matrix_at_t0_is_i_minus_adjacency():
    g = _loops_and_parallels()
    adj = np.zeros((3, 3))
    for u, w, _ in g.edge_list():
        i, j = g._index[u], g._index[w]
        adj[i, j] += 1.0
        adj[j, i] += 1.0  # a loop counts twice
    assert np.array_equal(vertex_matrix(g, 0.0, BT), np.eye(3) - adj)


def test_vertex_matrix_backtracking_radius():
    # I - W(t): the largest eigenvalue of W(t) is rho(B_bt(t)).
    for g in (_loops_and_parallels(), theta(), dumbbell()):
        for t in (0.3, 1.1):
            w = np.eye(len(g.vertices)) - vertex_matrix(g, t, BT)
            assert np.allclose(w, w.T)
            assert np.max(np.linalg.eigvalsh(w)) == pytest.approx(
                eig_rho(build_transfer(g, t, BT).matrix), rel=1e-10, abs=0.0)


@settings(max_examples=200, deadline=None)
@given(multigraphs(), st.floats(0.05, 3.0))
def test_vertex_slope_matches_central_differences(g, s):
    # t is set on the scale of the shortest edge: where every t * l is
    # large, M'(t) falls below the rounding of M(t) over the difference
    # step, and central differences cannot resolve it.
    t = s / g.min_length()
    step = 1e-5 * t
    fd = (vertex_matrix(g, t + step) - vertex_matrix(g, t - step)) / (2 * step)
    edges = g._edge_arrays
    _, _, d_shift, d_weights = spectral._vertex_terms(edges, t, NB, True)
    exact = spectral._assemble(edges.scatter, d_shift, d_weights)
    assert np.max(np.abs(fd - exact)) <= 1e-7 * np.max(np.abs(exact))


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.sampled_from([NB, BT]))
def test_vertex_terms_match_reference_on_multigraphs(g, mode):
    # M(t) and M'(t), both halves of one pass, and their one-bincount
    # assembly equal the separately built forms and their np.add.at
    # assembly bit for bit, loops and parallel edges included; the
    # weights are indexed by edge, exactly 0.0 on loops
    h = _vertex_root(g, mode).h or 1.0 / g.min_length()
    edges = g._edge_arrays
    tails, heads, scatter = edges.tails, edges.heads, edges.scatter
    for t in (0.5 * h, h, 2.0 * h):
        terms = spectral._vertex_terms(edges, t, mode, True)
        for (shift, weights), ref in zip((terms[:2], terms[2:]),
                                         reference_edge_forms(edges, t, mode)):
            assert weights.shape == (edges.lengths.size,)
            assert (weights[edges.loops] == 0.0).all()
            for got, want in zip((shift, tails, heads, weights), ref):
                assert np.array_equal(got, want)
            assert np.array_equal(spectral._assemble(scatter, shift, weights),
                                  reference_matrix(*ref))


@settings(max_examples=100, deadline=None)
@given(multigraphs(), st.sampled_from([NB, BT]), st.integers(0, 2**32 - 1))
def test_apply_matches_reference_matrix_on_multigraphs(g, mode, seed):
    # the edge form of M(t) serves every resolvent refinement, on one
    # vector (f_from) or on a block of columns (genfun._block): it agrees
    # with the np.add.at assembly, and each column of a block is the
    # product with that column alone, bit for bit
    h = _vertex_root(g, mode).h or 1.0 / g.min_length()
    edges = g._edge_arrays
    block = np.random.default_rng(seed).standard_normal((edges.n, 3))
    for t in (0.5 * h, h, 2.0 * h):
        shift, weights, _, _ = spectral._vertex_terms(edges, t, mode, False)
        ref = reference_matrix(*reference_edge_forms(edges, t, mode)[0])
        x = block[:, 0]
        got = spectral._apply(edges, shift, weights, x)
        bound = 1e-12 * np.abs(ref).sum(axis=1).max() * np.abs(x).max()
        assert np.abs(got - ref @ x).max() <= bound
        out = spectral._apply(edges, shift, weights, block)
        for j in range(3):
            assert np.array_equal(
                out[:, j], spectral._apply(edges, shift, weights, block[:, j]))
