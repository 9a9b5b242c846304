"""Shared graph builders and independent oracles for the test suite.

The BFS enumerator and the dense eigenvalue oracle are deliberately
separate implementations from the package's frontier walk and
power-iteration code: they provide the second opinion the cross-checks
rely on.
"""

import math
from collections import deque

import numpy as np
from hypothesis import strategies as st

from entrograph import MetricGraph, TransferMode


def rose(k, length=1.0):
    return MetricGraph.from_edges(["v"], [("v", "v", length)] * k)


def theta(lengths=(1.0, 1.0, 1.0)):
    return MetricGraph.from_edges(["x", "y"],
                                  [("x", "y", l) for l in lengths])


def cycle(n, lengths=None):
    if lengths is None:
        lengths = [1.0] * n
    names = [f"c{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n], lengths[i]) for i in range(n)]
    return MetricGraph.from_edges(names, edges)


def c4():
    return MetricGraph.from_edges(
        list("abcd"),
        [("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0), ("d", "a", 1.0)])


def complete4(length=1.0):
    names = list("abcd")
    edges = [(u, v, length) for i, u in enumerate(names)
             for v in names[i + 1:]]
    return MetricGraph.from_edges(names, edges)


def segment(length=1.0):
    return MetricGraph.from_edges(["x", "y"], [("x", "y", length)])


def path3(l1=1.0, l2=1.0):
    return MetricGraph.from_edges(["x", "y", "z"],
                                  [("x", "y", l1), ("y", "z", l2)])


GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def dumbbell(l1=1.0, l2=GOLDEN, bar=(1.0, 1.0)):
    """Loops at a and b joined by the 2-edge path a-m-b; a, b are
    non-adjacent and the two loop lengths have a Diophantine ratio by
    default (the golden ratio is badly approximable)."""
    return MetricGraph.from_edges(
        ["a", "m", "b"],
        [("a", "a", l1), ("b", "b", l2), ("a", "m", bar[0]),
         ("m", "b", bar[1])])


def bfs_enumerate(graph, kind, r_max, mode="nb", x=None, y=None, v=None):
    """Breadth-first enumeration oracle; returns sorted lengths < r_max.

    kind: "from" | "xy" | "cycles" | "primitive".  Scans graph.darts
    directly instead of using the package's successor tables.
    """
    darts = graph.darts
    base = v if kind in ("cycles", "primitive") else x
    out = []
    queue = deque((d.id, d.length) for d in darts
                  if d.tail == base and d.length < r_max)
    while queue:
        did, cum = queue.popleft()
        head = darts[did].head
        if kind == "from":
            out.append(cum)
        elif kind == "xy" and head == y:
            out.append(cum)
        elif kind in ("cycles", "primitive") and head == base:
            out.append(cum)
        if kind == "primitive" and head == base:
            continue
        for d2 in darts:
            if d2.tail != head:
                continue
            if mode == "nb" and d2.id == darts[did].reverse:
                continue
            if cum + d2.length < r_max:
                queue.append((d2.id, cum + d2.length))
    return sorted(out)


def eig_rho(matrix):
    """Spectral radius via dense eigenvalues (independent of power
    iteration)."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def nonadjacent_pair(graph):
    """First non-adjacent vertex pair inside one component, or None."""
    from entrograph import components
    for comp in components(graph):
        verts = sorted(comp.vertex_set)
        for i, a in enumerate(verts):
            nbrs = {comp.darts[d].head for d in comp.out_darts(a)}
            for b in verts[i + 1:]:
                if b not in nbrs:
                    return a, b
    return None


def eig_entropy(graph, rel_tol=1e-12, mode=TransferMode.NON_BACKTRACKING):
    """Entropy by bisection on the dense-eigenvalue radius of the dart
    matrix B(t) of the given mode (independent of the power iteration
    and of the vertex matrix); for graphs with first Betti number >= 2."""
    from entrograph import build_transfer

    def above(t):
        return eig_rho(build_transfer(graph, t, mode).matrix) >= 1.0

    lo, hi = 0.0, 1.0
    while above(hi):
        lo, hi = hi, 2.0 * hi
    while hi - lo > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if above(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def lim_metric(graph):
    """Lim's minimal-entropy metric on a graph whose vertices all have
    degree >= 3 (a loop counts 2), such as a reduced core: the graph with
    l_e = log((d_u - 1)(d_w - 1)) and its exact entropy
    h = (1/2) sum_v d_v log(d_v - 1) / vol (S. Lim, "Minimal volume
    entropy for graphs", Trans. AMS 360 (2008) 5089-5100)."""
    deg = {v: graph.degree(v) for v in graph.vertices}
    edges = [(u, w, math.log((deg[u] - 1) * (deg[w] - 1)))
             for u, w, _ in graph.edge_list()]
    vol = math.fsum(l for _, _, l in edges)
    h = 0.5 * math.fsum(d * math.log(d - 1) for d in deg.values()) / vol
    return MetricGraph.from_edges(graph.vertices, edges), h


def dart_lu_path(graph, x, y, t):
    """f_xy(t) = s_x (I - B(t))^{-1} tau_y by a dense LU of the dart
    matrix: s_x weights the darts leaving x by e^{-t l}, tau_y flags the
    darts arriving at y.  No radius check, so it also runs where the
    power iteration does not converge."""
    from entrograph import build_transfer
    mat = build_transfer(graph, t).matrix
    s = np.array([math.exp(-t * d.length) if d.tail == x else 0.0
                  for d in graph.darts])
    tau = np.array([1.0 if d.head == y else 0.0 for d in graph.darts])
    return float(s @ np.linalg.solve(np.eye(len(tau)) - mat, tau))


@st.composite
def multigraphs(draw):
    """Connected multigraphs with loops and parallel edges, first Betti
    number 2..4, and lengths 10^U(-3, 3)."""
    n = draw(st.integers(1, 5))
    names = [f"v{i}" for i in range(n)]
    ends = [(names[i], names[draw(st.integers(0, i - 1))])
            for i in range(1, n)]
    ends += [(names[draw(st.integers(0, n - 1))],
              names[draw(st.integers(0, n - 1))])
             for _ in range(draw(st.integers(2, 4)))]
    exps = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(ends),
                         max_size=len(ends)))
    return MetricGraph.from_edges(
        names, [(u, v, 10.0 ** e) for (u, v), e in zip(ends, exps)])


def counting_resolvent():
    """A subclass of the vertex-matrix factorization context that counts
    its instances in ``made``, for monkeypatching over ``_Resolvent``."""
    from entrograph.genfun import _Resolvent

    class CountingResolvent(_Resolvent):
        made = 0

        def __init__(self, *args, **kwargs):
            type(self).made += 1
            super().__init__(*args, **kwargs)
    return CountingResolvent


def scalar_primitive_matrix(graph, v, t,
                            mode=TransferMode.NON_BACKTRACKING):
    """``primitive_matrix`` one entry at a time: a Python loop over the
    attachment-dart pairs (a, b) with one ``f_path`` in G - v per pair.
    Raises DivergentSeries when an interior f_ab diverges."""
    from entrograph import (DivergentSeries, attachment_darts,
                            delete_vertex, f_path)
    backtracking = mode is TransferMode.BACKTRACKING
    darts = attachment_darts(graph, v)
    n = len(darts)
    out = np.zeros((n, n))
    interior = delete_vertex(graph, v)
    for a, ea in enumerate(darts):
        if ea.head == v:
            for b, eb in enumerate(darts):
                if eb.id == ea.reverse:
                    out[a, b] = math.exp(-t * ea.length)
            continue
        for b, eb in enumerate(darts):
            if eb.head == v:
                continue
            inner = f_path(interior, ea.head, eb.head, t, mode)
            if not inner.converged:
                raise DivergentSeries(f"f diverges at t={t}")
            bigon = 1.0 if (ea.head == eb.head
                            and (a != b or backtracking)) else 0.0
            out[a, b] = math.exp(-(ea.length + eb.length) * t) \
                * (inner.value + bigon)
    return out


# -- scalar references for the counting identity checks --------------------
#
# One radius at a time, in Python: the loops the package ran before its
# checks became whole-array queries.  The property tests compare the two.

def scalar_default_radii(attained, r_max, tie_guard, want=20):
    """Up to ``want`` radii inside the gaps between attained lengths."""
    if attained.size == 0:
        return (r_max,)
    floor = 200.0 * tie_guard
    gaps = [(a, b) for a, b in zip(attained[:-1], attained[1:])
            if b - a > floor]
    gaps.append((float(attained[-1]), r_max))
    candidates = []
    parts = 2
    while len(candidates) < want and parts <= 4096:
        candidates = []
        for a, b in gaps:
            step = (b - a) / parts
            if step <= floor:
                step, n_sub = (b - a) / 2.0, 2
            else:
                n_sub = parts
            candidates.extend(a + step * i for i in range(1, n_sub))
        parts *= 2
    candidates.sort()
    if len(candidates) <= want:
        return tuple(candidates)
    idx = np.unique(np.linspace(0, len(candidates) - 1, want).astype(int))
    return tuple(candidates[i] for i in idx)


def scalar_recursions(graph, v, r_grid=None, r_max=None, cap=10_000_000,
                      tie_guard=1e-9):
    """``verify_recursions`` with one ``searchsorted`` per count."""
    from entrograph import (EnumerationSpec, PathKind, RecursionReport,
                            enumerate_paths)
    if r_grid is not None:
        r_grid = tuple(float(r) for r in r_grid)
        r_max = max(r_grid)

    def profile(kind, mode):
        return enumerate_paths(graph, EnumerationSpec(kind, r_max, mode,
                                                      v=v, cap=cap))
    nb, bt = TransferMode.NON_BACKTRACKING, TransferMode.BACKTRACKING
    bt_cyc = profile(PathKind.CYCLES_AT, bt)
    bt_prim = profile(PathKind.PRIMITIVE_CYCLES_AT, bt)
    nb_cyc = profile(PathKind.CYCLES_AT, nb)
    nb_prim = profile(PathKind.PRIMITIVE_CYCLES_AT, nb)
    if r_grid is None:
        r_grid = scalar_default_radii(
            np.unique(np.concatenate([nb_cyc.lengths, bt_cyc.lengths]))
            if bt_cyc.lengths.size else np.array([]), r_max, tie_guard)
    n = graph.degree(v)
    empty = np.array([])

    def n_of(arr, q):
        return int(np.searchsorted(arr, q - tie_guard, side="left"))

    bt_bad, nb_bad = [], []
    for r in r_grid:
        lhs = n_of(bt_cyc.lengths, r)
        prim = bt_prim.lengths[bt_prim.lengths < r - tie_guard]
        rhs = len(prim) + sum(n_of(bt_cyc.lengths, r - l) for l in prim)
        if lhs != rhs:
            bt_bad.append((r, lhs, rhs))
        for i in range(1, n + 1):
            lhs = n_of(nb_cyc.by_start.get(i, empty), r)
            rhs = 0
            for j in range(1, n + 1):
                prim_ij = nb_prim.by_pair.get((i, j), empty)
                for l in prim_ij[prim_ij < r - tie_guard]:
                    rhs += 1
                    for k in range(1, n + 1):
                        if k != j:
                            rhs += n_of(nb_cyc.by_start.get(k, empty), r - l)
            if lhs != rhs:
                nb_bad.append((r, i, lhs, rhs))
    return RecursionReport(tuple(r_grid), tuple(bt_bad), tuple(nb_bad))


def scalar_violations(profile, m_const, h):
    """(radius, N, bound) where N just past a jump exceeds M e^{hr}."""
    out = []
    for ell in profile.jump_radii():
        n_at = profile.count_le(ell)
        try:
            bound = m_const * math.exp(h * ell)
        except OverflowError:  # numpy's bound is inf there
            bound = math.inf
        if n_at > bound * (1.0 + 1e-12):
            out.append((float(ell), n_at, bound))
    return tuple(out)


def scalar_lower_constant(profile, h):
    """Minimum of N(r) e^{-hr} just below each jump past the first and
    at the horizon (the empirical lower constant of growth_bounds)."""
    cands = [profile.count(ell) * math.exp(-h * ell)
             for ell in profile.jump_radii()[1:]]
    cands.append(profile.count(profile.r_max)
                 * math.exp(-h * profile.r_max))
    return min(cands)


def scalar_step_integral(profile, weight):
    """weight * integral_0^R N(r) e^{-weight r} dr, one step at a time."""
    jumps = profile.jump_radii()
    total = 0.0
    for k, a in enumerate(jumps):
        b = jumps[k + 1] if k + 1 < len(jumps) else profile.r_max
        total += profile.count_le(a) * (math.exp(-weight * a)
                                        - math.exp(-weight * b))
    return total


def scalar_tail_average(profile, h, r1):
    """Average of N(r) e^{-hr} over [r1, R], one step at a time."""
    points = [r1] + [float(j) for j in profile.jump_radii() if j > r1] \
        + [profile.r_max]
    total = 0.0
    for a, b in zip(points[:-1], points[1:]):
        total += profile.count_le(a) * (math.exp(-h * a)
                                        - math.exp(-h * b)) / h
    return total / (profile.r_max - r1)


def scalar_laplace_constant(profile, h):
    """Twice the largest N(r) e^{-hr} at the jumps of the upper half."""
    jumps = profile.jump_radii()
    tail = jumps[jumps >= 0.5 * profile.r_max]
    if tail.size == 0:
        tail = jumps
    return 2.0 * max((profile.count_le(ell) * math.exp(-h * ell)
                      for ell in tail), default=1.0)


def scalar_entropy_from_counts(profile, window):
    """(slope, band, samples) of ``entropy_from_counts`` with one
    ``searchsorted`` and one ``math.log`` per jump in the window."""
    lengths = np.asarray(profile.lengths)
    r1, r2 = window
    xs, ys = [], []
    for ell in np.unique(lengths[(lengths >= r1) & (lengths <= r2)]):
        xs.append(float(ell))
        ys.append(math.log(int(np.searchsorted(lengths, ell, side="right"))))
    pointwise = np.array(ys) / np.array(xs)
    return (float(np.polyfit(xs, ys, 1)[0]),
            float(np.max(pointwise) - np.min(pointwise)), len(xs))
