"""Shared graph builders and independent oracles for the test suite.

The BFS enumerator and the dense eigenvalue oracle are deliberately
separate implementations from the package's frontier walk and
power-iteration code: they provide the second opinion the cross-checks
rely on.
"""

import math
from collections import defaultdict, deque

import numpy as np
from hypothesis import strategies as st
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevr

from entrograph import (ComponentKind, MetricGraph, ReduceResult,
                        TransferMode, components, first_betti, reduce)


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


def short_loop_core():
    """The reduced core of a seeded multigraph (seed 181): loops of
    0.0022 at v2 and 214 at v1, joined by an edge of 103.  h = 0.0265, so
    the loop at v2 has t l ~ 6e-5 and log(k)/l_min lies 1e4 times above
    h."""
    return MetricGraph.from_edges(["v1", "v2"], [
        ("v2", "v2", 0.0022097536943248616), ("v1", "v1", 214.01592686401),
        ("v1", "v2", 103.01997790846774)])


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


def exact_counts(graph, kind, mode, r_max, base, target=None):
    """Exact counts by total length of the dart sequences from ``base``
    shorter than ``r_max``, on a graph with positive integer lengths:
    all of them (``PathKind.PATHS_FROM``), those ending at ``target``
    (``PathKind.PATHS_XY``: every arrival, also one that passed target
    before), those ending at base (``PathKind.CYCLES_AT``), or those
    ending at base that first return there
    (``PathKind.PRIMITIVE_CYCLES_AT``: an arrival is not extended).

    The Python-integer recursion over (last dart, length),
    a[d'][m + l(d')] += a[d][m], in increasing m, run from each start
    dart on its own.  It scans graph.darts directly and shares no code
    and no floating point with the walk.  Returns ({length: count},
    rows), rows {start: {length: count}} with the starts numbered from 1
    in the order of ``graph.out_darts(base)``, as the rows of
    ``by_start`` are; for the primitive cycles {(start, end): {length:
    count}}, end the number of the start dart that the last dart
    reverses, as the rows of ``by_pair`` are.  A key without a sequence
    has no row.
    """
    from entrograph import PathKind
    darts = graph.darts
    steps = [int(d.length) for d in darts]
    assert all(d.length == l > 0 for d, l in zip(darts, steps))
    succ = [[d2.id for d2 in darts if d2.tail == d.head
             and (mode is TransferMode.BACKTRACKING or d2.id != d.reverse)]
            for d in darts]
    goal = {PathKind.PATHS_FROM: None, PathKind.PATHS_XY: target}.get(
        kind, base)
    primitive = kind is PathKind.PRIMITIVE_CYCLES_AT
    starts = graph.out_darts(base)
    end = {darts[s].reverse: j for j, s in enumerate(starts, 1)}
    totals, rows = defaultdict(int), defaultdict(lambda: defaultdict(int))
    for k, s in enumerate(starts, 1):
        a = [defaultdict(int) for _ in darts]
        a[s][steps[s]] = 1
        for m in range(1, math.ceil(r_max)):
            for d in darts:
                count = a[d.id].pop(m, 0)
                if not count:
                    continue
                if goal is None or d.head == goal:
                    rows[(k, end[d.id]) if primitive else k][m] += count
                    totals[m] += count
                    if primitive:
                        continue
                for d2 in succ[d.id]:
                    if m + steps[d2] < r_max:
                        a[d2][m + steps[d2]] += count
    return dict(totals), {key: dict(row) for key, row in rows.items()}


def mask_sort_rows(graph, spec):
    """The rows of a cycle (``by_start``) or primitive-cycle (``by_pair``)
    profile as the package grouped them before its counting sort: the
    walk of that kind alone, whose primitive walk stops at v, then one
    mask and one sort per key."""
    from entrograph import PathKind
    from entrograph.counting import _walk
    primitive = spec.kind is PathKind.PRIMITIVE_CYCLES_AT
    starts = graph.out_darts(spec.v)
    walk = _walk(graph, spec.mode, starts, spec.r_max, spec.v, primitive,
                 int(1.25 * spec.cap) + 1024, True)
    width = len(starts) + 1
    rev_pos = {graph.darts[s].reverse: j for j, s in enumerate(starts, 1)}
    parts = [(cum, k.astype(np.intp) * width + rev_pos[last] if primitive
              else k) for k, last, cum in walk]
    lengths = np.concatenate([cum for cum, _ in parts] or [np.empty(0)])
    keys = np.concatenate([key for _, key in parts]
                          or [np.empty(0, np.intp)])
    rows = {int(key): np.sort(lengths[keys == key])
            for key in np.flatnonzero(np.bincount(keys))}
    if primitive:
        return {divmod(key, width): row for key, row in rows.items()}
    return rows


def coo_return_bounds(graph, mode, r_max, into):
    """``counting._return_bounds`` as the package built it before it read
    the graph's cached CSR transition pattern: the reversed relation d2 ->
    d, weighted by the length of d2, converted from COO on every call,
    and Dijkstra from ``into`` itself."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import dijkstra
    from entrograph.spectral import transitions
    lengths = graph._dart_arrays[0]
    n = len(lengths)
    if into is None or r_max >= 1e6 * lengths.min(initial=math.inf):
        return np.full(n, r_max)
    rows, cols = transitions(graph, mode)
    back = csr_matrix((lengths[cols], (cols, rows)), shape=(n, n))
    reach = dijkstra(back, indices=into, min_only=True)
    return np.minimum(r_max, r_max - reach + 1e-9 * r_max)


def eig_rho(matrix):
    """Spectral radius via dense eigenvalues (independent of power
    iteration)."""
    m = np.asarray(matrix, dtype=float)
    if m.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(m))))


def reference_power_block(block, tol, max_iter):
    """``spectral._power_block`` as it was before the step matrix
    I + B/s: x <- (s x + B x) / sum, normalized at every step (without
    the 1e-300 floor its s then had)."""
    from entrograph.errors import NonConvergence
    from entrograph.spectral import _CHECK_EVERY
    n = block.shape[0]
    x = np.full(n, 1.0 / n)
    scale = float(abs(block).sum(axis=1).max())
    it = 0
    while True:
        check = min(it + _CHECK_EVERY, max_iter)
        for _ in range(check - it - 1):
            y = scale * x + block @ x
            x = y / y.sum()
        it = check
        bx = block @ x
        rho = float(bx.sum())  # x has unit sum: Rayleigh value without
        resid = np.abs(bx - rho * x).max()  # a 1 + rho cancellation
        if resid <= tol * scale * max(x.max(), 1e-300):
            return rho, x, it
        if it >= max_iter:
            raise NonConvergence(
                f"power iteration residual {resid:.3e} above tol "
                f"{tol:.1e} after {max_iter} iterations (n={n})")
        y = scale * x + bx
        x = y / y.sum()


def nonadjacent_pair(graph):
    """First non-adjacent vertex pair inside one component, or None."""
    for comp in dfs_components(graph):
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


def mp_root(graph, mode=TransferMode.NON_BACKTRACKING, h=None, dps=50):
    """Entropy of a graph to ``dps`` digits: bisection on whether
    ``mpmath.cholesky`` factors the vertex matrix M(t) of ``mode``, built
    entry by entry at that precision (positive definite exactly above the
    entropy).  The bracket starts at h (1 -+ 1e-6), widened until it holds
    the root, and ends 1e-30 relative wide; an ``mpf``."""
    import mpmath
    with mpmath.workdps(dps):
        index = {v: i for i, v in enumerate(graph.vertices)}
        edges = [(index[u], index[w], mpmath.mpf(l))
                 for u, w, l in graph.edge_list()]

        def definite(t):
            m = mpmath.eye(len(index))
            for u, w, l in edges:
                z = mpmath.exp(-t * l)
                if mode is TransferMode.BACKTRACKING:  # a loop: 2z
                    m[u, w] -= z
                    m[w, u] -= z
                elif u == w:
                    m[u, u] -= 2 * z / (1 + z)
                else:
                    a = z / (1 - z * z)
                    m[u, w] -= a
                    m[w, u] -= a
                    m[u, u] += a * z
                    m[w, w] += a * z
            try:
                mpmath.cholesky(m)
            except ValueError:
                return False
            return True

        h = mpmath.mpf(h if h is not None else 1.0)
        lo, hi = h * (1 - mpmath.mpf("1e-6")), h * (1 + mpmath.mpf("1e-6"))
        while definite(lo):
            lo /= 2
        while not definite(hi):
            hi *= 2
        while hi - lo > mpmath.mpf("1e-30") * hi:
            mid = (lo + hi) / 2
            lo, hi = (lo, mid) if definite(mid) else (mid, hi)
        return (lo + hi) / 2


def sweep_graphs(seed=11, count=150):
    """Connected multigraphs on the north star's length range, from
    ``random.Random(seed)``: 2-12 vertices, a random spanning tree (vertex
    i to a random earlier one) plus 2 to n + 3 random extra edges, loops
    allowed, so first Betti number >= 2, and lengths 10^U(-6, 3), each
    drawn right after its ends."""
    import random
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 12)
        names = [f"v{i}" for i in range(n)]
        edges = [(names[i], names[rng.randrange(i)],
                  10.0 ** rng.uniform(-6.0, 3.0)) for i in range(1, n)]
        edges += [(names[rng.randrange(n)], names[rng.randrange(n)],
                   10.0 ** rng.uniform(-6.0, 3.0))
                  for _ in range(rng.randint(2, n + 3))]
        out.append(MetricGraph.from_edges(names, edges))
    return out


def spread_graph(k):
    """``generate_graph(2, 10, 18)`` with every length redrawn, in
    ``edge_list()`` order, as 10^U(-3, 3) from ``random.Random(k)``: the
    benchmark's wide-length graphs.  ``volume_entropy`` fails on k = 0
    alone: its start, the row-sum bound 1.29, lies in the band of t,
    about [1.0, 3.75], where the dart power iteration does not converge;
    k = 1..4 return."""
    import random
    from entrograph import generate_graph
    g = generate_graph(2, 10, 18)
    rng = random.Random(k)
    return MetricGraph.from_edges(g.vertices, [
        (u, v, 10 ** rng.uniform(-3, 3)) for u, v, _ in g.edge_list()])


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
def multigraphs(draw, max_vertices=5, min_exp=-3.0):
    """Connected multigraphs with loops and parallel edges, first Betti
    number 2..4, up to ``max_vertices`` vertices and lengths
    10^U(min_exp, 3)."""
    n = draw(st.integers(1, max_vertices))
    names = [f"v{i}" for i in range(n)]
    ends = [(names[i], names[draw(st.integers(0, i - 1))])
            for i in range(1, n)]
    ends += [(names[draw(st.integers(0, n - 1))],
              names[draw(st.integers(0, n - 1))])
             for _ in range(draw(st.integers(2, 4)))]
    exps = draw(st.lists(st.floats(min_exp, 3.0), min_size=len(ends),
                         max_size=len(ends)))
    return MetricGraph.from_edges(
        names, [(u, v, 10.0 ** e) for (u, v), e in zip(ends, exps)])


def extreme_multigraphs():
    """``multigraphs()`` on up to 8 vertices with lengths 10^U(-6, 3),
    the length range of the north star."""
    return multigraphs(max_vertices=8, min_exp=-6.0)


@st.composite
def sparse_components(draw):
    """A tree with at least one edge, or a single cycle of one to four
    vertices (a loop, two parallel edges, ...) with trees hanging on it;
    lengths 10^U(-3, 3)."""
    cyc = draw(st.integers(0, 4))  # 0: a tree
    n = max(cyc, 1) + draw(st.integers(1 if cyc == 0 else 0, 4))
    names = [f"v{i}" for i in range(n)]
    ends = [(names[i], names[(i + 1) % cyc]) for i in range(cyc)]
    ends += [(names[i], names[draw(st.integers(0, i - 1))])
             for i in range(max(cyc, 1), n)]
    exps = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(ends),
                         max_size=len(ends)))
    return MetricGraph.from_edges(
        names, [(u, v, 10.0 ** e) for (u, v), e in zip(ends, exps)])


def _shuffled_union(draw, graphs, isolated):
    """The disjoint union of ``graphs`` and ``isolated`` isolated
    vertices, with the names, the vertex order and the edge order each
    shuffled."""
    total = sum(len(g.vertices) for g in graphs) + isolated
    names = iter(draw(st.permutations([f"v{i}" for i in range(total)])))
    verts, edges = [], []
    for g in graphs:
        rename = {v: next(names) for v in g.vertices}
        verts += rename.values()
        edges += [(rename[u], rename[w], l) for u, w, l in g.edge_list()]
    verts += names
    return MetricGraph.from_edges(draw(st.permutations(verts)),
                                  draw(st.permutations(edges)))


@st.composite
def split_multigraphs(draw):
    """Disjoint unions of one to three ``multigraphs()`` and zero to two
    isolated vertices, with the names, the vertex order and the edge
    order each shuffled, so that components interleave in all three."""
    graphs = draw(st.lists(multigraphs(), min_size=1, max_size=3))
    return _shuffled_union(draw, graphs, draw(st.integers(0, 2)))


@st.composite
def mixed_graphs(draw):
    """Disjoint unions of one to four components, each a
    ``sparse_components()`` or a ``multigraphs()``, and zero to two
    isolated vertices, shuffled as in ``split_multigraphs``."""
    graphs = draw(st.lists(st.one_of(sparse_components(), multigraphs()),
                           min_size=1, max_size=4))
    return _shuffled_union(draw, graphs, draw(st.integers(0, 2)))


# -- the MetricGraph rebuild, for the component, edit and curve references --
#
# The package splits a graph into components once, on its edge arrays
# (``MetricGraph._split``), and joins components with new edges on index
# arrays (``incremental._join``).  These are the loops it replaced: a DFS
# over the darts, each component and each joined graph built as a
# ``MetricGraph``.  The properties compare the two bit for bit.

def dfs_components(graph):
    """The connected components of a graph by a DFS from each unseen
    vertex in name order, each a ``MetricGraph`` in the vertex and edge
    order of the input; a connected graph is returned as it is."""
    adj = {v: set() for v in graph.vertices}
    for d in graph.darts:
        adj[d.tail].add(d.head)
    seen, out = set(), []
    for start in sorted(graph.vertices):
        if start in seen:
            continue
        stack, comp = [start], {start}
        seen.add(start)
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp:
                    comp.add(w)
                    seen.add(w)
                    stack.append(w)
        if len(comp) == len(graph.vertices):
            return [graph]
        out.append(MetricGraph.from_edges(
            [v for v in graph.vertices if v in comp],
            [(d.tail, d.head, d.length) for d in graph.edge_darts()
             if d.tail in comp]))
    return out


def disjoint_union(parts, edges=()):
    """One graph holding vertex-disjoint parts side by side, with
    ``edges`` added between their vertices."""
    return MetricGraph.from_edges(
        [v for p in parts for v in p.vertices],
        [e for p in parts for e in p.edge_list()] + list(edges))


# -- the reducer the package replaced: a sweep over each component --------

def reference_reduce(graph: MetricGraph) -> ReduceResult:
    """Entropy-preserving reduction of a graph.

    Per component: degree-1 vertices are deleted with their edge and
    degree-2 vertices are suppressed (their two edges merge into one of
    summed length), repeatedly; both operations leave the volume entropy
    unchanged.  A Betti-0 component disappears
    entirely (kind TRIVIAL); a Betti-1 component collapses to one vertex
    carrying one loop (kind SINGLE_CYCLE; that vertex is kept even though
    its degree is 2 because suppressing it would erase the component);
    a Betti >= 2 component reduces to a core of minimum degree 3 (kind
    HYPERBOLIC).  Kinds align with the ``components`` order, and the
    surviving vertices keep their identifiers.
    """
    verts, edges, kinds = [], [], []  # of the reduced graph, per component
    for comp, betti in zip(components(graph), first_betti(graph)):
        kinds.append(ComponentKind.TRIVIAL if betti == 0
                     else ComponentKind.SINGLE_CYCLE if betti == 1
                     else ComponentKind.HYPERBOLIC)
        if betti > 0:
            pv, pe = _reduce_component(comp)
            verts.extend(pv)
            edges.extend(pe)
    return ReduceResult(MetricGraph.from_edges(verts, edges), tuple(kinds))


def _reduce_component(comp: MetricGraph):
    """Peel degree-<=1 vertices and suppress degree-2 vertices of one
    connected component with Betti number >= 1."""
    edges: dict[int, tuple[str, str, float]] = {
        i: e for i, e in enumerate(comp.edge_list())}
    incident: dict[str, list[int]] = defaultdict(list)
    verts = set(comp.vertices)
    for eid, (u, v, _) in edges.items():
        incident[u].append(eid)
        incident[v].append(eid)  # loops appear twice: degree 2
    next_eid = len(edges)

    changed = True
    while changed:
        changed = False
        for v in sorted(verts):
            inc = incident[v]
            if len(inc) == 0:
                verts.discard(v)
                changed = True
            elif len(inc) == 1:
                eid = inc[0]
                u, w, _ = edges.pop(eid)
                other = w if u == v else u
                incident[other].remove(eid)
                incident.pop(v, None)
                verts.discard(v)
                changed = True
            elif len(inc) == 2:
                e1, e2 = inc
                if e1 == e2:
                    continue  # lone loop: SINGLE_CYCLE normal form
                u1, w1, l1 = edges.pop(e1)
                u2, w2, l2 = edges.pop(e2)
                a = w1 if u1 == v else u1
                b = w2 if u2 == v else u2
                incident[a].remove(e1)
                incident[b].remove(e2)
                incident.pop(v, None)
                verts.discard(v)
                eid = next_eid
                next_eid += 1
                edges[eid] = (a, b, l1 + l2)
                incident[a].append(eid)
                incident[b].append(eid)
                changed = True
    kept = tuple(v for v in comp.vertices if v in verts)
    return kept, [edges[eid] for eid in sorted(edges)]


def check_reduce(graph):
    """Assert that ``reduce(graph)`` is the core of ``reference_reduce``.

    Lengths 2^i on edge i make each core edge's length the exact set of
    the edges merged into it, in both reducers; a core edge is matched
    to the reference's by that set, and both reducers order their core
    edges by the graph's structure alone.  Kinds are equal; the kept
    vertices of each component of first Betti number >= 2 are the
    reference's, in ``graph.vertices`` order; each core edge has the
    reference's ends up to orientation, and its length is within
    (k - 1) eps relative of the reference's, k the number of edges it
    merges.  A single cycle keeps its first vertex in ``graph.vertices``
    with one loop, a tree vanishes, and the core reduces to itself.
    """
    labelled = MetricGraph.from_edges(graph.vertices, [
        (u, w, 2.0 ** i) for i, (u, w, _) in enumerate(graph.edge_list())])
    new, ref = reduce(graph), reference_reduce(graph)
    assert new.kinds == ref.kinds
    cores = []  # per reducer: merged edge set -> (ends, length)
    for result, plain in ((new, reduce(labelled)),
                          (ref, reference_reduce(labelled))):
        pairs = list(zip(result.graph.edge_list(), plain.graph.edge_list()))
        assert result.graph.edge_count == plain.graph.edge_count
        assert all(e[:2] == p[:2] for e, p in pairs)
        cores.append({int(label): ({u, w}, length)
                      for (u, w, length), (_, _, label) in pairs})
        assert len(cores[-1]) == len(pairs)
    assert cores[0].keys() == cores[1].keys()
    edges, labels = graph.edge_list(), graph._split[0]
    betti = first_betti(graph)
    for label, (ends, length) in cores[0].items():
        merged = [i for i in range(len(edges)) if label >> i & 1]
        verts = [v for v in graph.vertices
                 if any(v in edges[i][:2] for i in merged)]
        ref_ends, ref_length = cores[1][label]
        if betti[labels[graph._position(verts[0])]] == 1:
            assert ends == {verts[0]} and len(ref_ends) == 1
        else:
            assert ends == ref_ends
        assert abs(length - ref_length) <= (len(merged) - 1) \
            * np.finfo(float).eps * ref_length
    kept, ref_kept = set(new.graph.vertices), set(ref.graph.vertices)
    assert list(new.graph.vertices) == [v for v in graph.vertices
                                        if v in kept]
    for (verts, _), b in zip(graph._split[1], betti):
        names = {graph.vertices[i] for i in verts.tolist()}
        if b >= 2:
            assert kept & names == ref_kept & names
        else:  # a tree keeps no vertex, a single cycle one
            assert len(kept & names) == b
    assert reduce(new.graph).graph == new.graph


def reference_vertex_root(graph, mode=TransferMode.NON_BACKTRACKING):
    """``entropy._vertex_root`` as a loop over ``dfs_components``, each
    solved on its own ``_edge_arrays`` and its null vector placed back by
    vertex name."""
    from dataclasses import replace
    from entrograph.entropy import _VertexRoot, _cold_root, _lambda_min
    zero = _VertexRoot(0.0, None, 0.0, 0.0, (0.0, 0.0), 0)
    if mode is TransferMode.BACKTRACKING:
        if not graph.darts:
            return zero
        if _lambda_min(graph._edge_arrays, 0.0, mode)[0] >= 0.0:
            return replace(zero, evals=1)
        comps, evals = [graph], 1
    else:
        comps, evals = [c for c in dfs_components(graph)
                        if c.edge_count - len(c.vertices) + 1 > 1], 0
    best, comp_best = zero, graph
    for comp in comps:
        root = _cold_root(comp._edge_arrays, mode)
        evals += root.evals
        if root.h > best.h:
            best, comp_best = root, comp
    v = best.v
    if v is not None and comp_best.vertices != graph.vertices:
        index = {u: i for i, u in enumerate(graph.vertices)}
        v = np.zeros(len(index))
        v[[index[u] for u in comp_best.vertices]] = best.v
    return replace(best, v=v, evals=evals)


def reference_newton_down(evaluate, t, lo, hi, name):
    """``entropy._newton_down`` with plain Newton steps, as it was before
    the interpolated step: the reference for the root and the number of
    evaluations of both of its solvers, the vertex-matrix ones and the
    dart solve of ``volume_entropy``; ``name()`` names the graph in
    errors."""
    from entrograph import NonConvergence
    from entrograph.entropy import _NEWTON_CAP, _VertexRoot
    lam, v, dlam, noise = evaluate(t)
    evals, upper = 1, None
    if t >= hi and lam <= 0.0:
        return _VertexRoot(t, v, lam, dlam, (t, t), evals)
    while True:
        if lam < 0.0:
            lo = t
        else:
            hi, upper = t, (t, v, lam, dlam)
        if abs(lam) <= noise or hi - lo <= 1e-15 * t:
            break
        if evals >= _NEWTON_CAP:
            exc = NonConvergence(
                f"lambda = 0 unresolved after {evals} evaluations "
                f"on [{lo!r}, {hi!r}]")
            exc.t, exc.component = t, name()
            raise exc
        t_next = t - lam / dlam if dlam > 0.0 else math.nan
        if abs(t_next - t) <= 1e-15 * t:
            break
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
        t = t_next
        lam, v, dlam, noise = evaluate(t)
        evals += 1
    if lam == -math.inf and upper is not None:  # end on a value, not below
        t, v, lam, dlam = upper
    return _VertexRoot(t, v, lam, dlam, (lo, hi), evals)


def rounding_scale(edges, t, v, mode=TransferMode.NON_BACKTRACKING):
    """4 eps times the sum of the absolute values of the terms of
    v^T M(t) v in the edge form, each diagonal shift counted as the terms
    it is summed from (1, z/(1+z) or z at each end of an edge, 1 and
    tanh(t l/2) at a loop) before they cancel.  ``entropy._edge_quotients``
    takes its scale after that cancellation, so where a shift cancels to
    near 0 its scale can lie orders of magnitude below the rounding of
    lambda."""
    n, u, w, lengths = edges
    z = np.exp(-t * lengths)
    loop = u == w
    if mode is TransferMode.BACKTRACKING:
        drop, weights = z, z[~loop]
    else:
        drop = np.where(loop, 0.0, z / (1.0 + z))
        weights = z[~loop] / -np.expm1(-2.0 * t * lengths[~loop])
    terms = 1.0 + np.bincount(u, drop, n) + np.bincount(w, drop, n)
    if mode is TransferMode.NON_BACKTRACKING:
        terms += np.bincount(u[loop], 1.0 + np.tanh(0.5 * t * lengths[loop]),
                             n)
    flow = weights @ (v[u[~loop]] - v[w[~loop]]) ** 2
    return 4.0 * np.finfo(float).eps * float(terms @ (v * v) + flow)


def _betti(graph):
    return graph.edge_count - len(graph.vertices) + 1


def reference_extend(graph, parts, ends, h_base=None):
    """(h', h_base, residual, evaluations) of the connected ``graph``,
    its vertex-disjoint ``parts`` (``MetricGraph``s) joined by new edges
    with the ends ``ends`` (vertex names), by the Betti rule and
    ``entropy._schur_root`` on the rebuilt graph's ``_edge_arrays``;
    ``h_base`` by default the largest root of the parts."""
    from entrograph.entropy import _schur_root
    betti = _betti(graph)
    if betti <= 1:
        return 0.0, 0.0, 0.0, 0
    if h_base is None:
        h_base = max(reference_vertex_root(p).h for p in parts)
    if betti == max(map(_betti, parts)):
        return h_base, h_base, 0.0, 0
    root = _schur_root(
        graph._edge_arrays,
        np.flatnonzero([v in ends for v in graph.vertices]), h_base)
    return max(root.h, h_base), h_base, abs(root.null_eigenvalue), \
        root.evals


def reference_edge(graph, x, y, l0):
    """``entropy_after_edge`` on a rebuilt ``disjoint_union`` of the
    components of x and y and the new edge."""
    from entrograph import EditResult, PreconditionError, UnknownVertex
    if l0 <= 0:
        raise PreconditionError("edge length must be positive")
    for v in (x, y):
        if v not in graph.vertex_set:
            raise UnknownVertex(f"unknown vertex {v!r}")
    parts = [c for c in dfs_components(graph) if c.vertex_set & {x, y}]
    return EditResult(*reference_extend(
        disjoint_union(parts, [(x, y, float(l0))]), parts, {x, y}))


def reference_vertex(graph, attachments):
    """``entropy_after_vertex`` on a rebuilt ``disjoint_union`` of the
    component of the targets and a hub vertex named longer than any of
    its vertices."""
    from entrograph import (DisconnectedPair, EditResult, PreconditionError,
                            TooFewAttachments, UnknownVertex)
    if len(attachments) < 3:
        raise TooFewAttachments("need at least 3 attachment edges")
    if any(float(l) <= 0 for _, l in attachments):
        raise PreconditionError("attachment lengths must be positive")
    targets = [v for v, _ in attachments]
    for v in targets:
        if v not in graph.vertex_set:
            raise UnknownVertex(f"unknown vertex {v!r}")
    comp = next(c for c in dfs_components(graph)
                if targets[0] in c.vertex_set)
    if any(v not in comp.vertex_set for v in targets):
        raise DisconnectedPair("targets in two components")
    hub = max(comp.vertices, key=len) + "+"
    parts = [comp, MetricGraph.from_edges([hub], [])]
    edges = [(hub, v, float(l)) for v, l in attachments]
    return EditResult(*reference_extend(
        disjoint_union(parts, edges), parts, {hub, *targets}))


def _rebuild_groups(added, owner):
    """The components of G_eps that the edges ``added`` touch, as (keys
    of their parts, their added edges); ``owner`` maps a vertex to the
    key of its previous component."""
    group = {}  # part key -> ({part key: None}, edges) of its group
    for e in added:
        a, b = (group.setdefault(owner[v], ({owner[v]: None}, []))
                for v in e[:2])
        if a is not b:
            a[0].update(b[0])
            a[1].extend(b[1])
            group.update(dict.fromkeys(b[0], a))
        a[1].append(e)
    return [(list(keys), edges) for keys, edges
            in {id(g): g for g in group.values()}.values()]


def rebuild_curve(graph, strategy, floor=True):
    """(h, iterations, strategy) of each step of ``persistent_entropy``,
    from a loop that rebuilds each changed component as a ``MetricGraph``
    (``disjoint_union`` of its parts and its new edges) and solves it with
    ``reference_extend`` or, "direct", where its first Betti number is 2
    or more, with ``entropy._cold_root`` up from h_base, the largest
    entropy of its parts (down from the upper start where ``floor`` is
    false).  "auto" is "incremental" but solves a component that
    ``reference_extend`` would solve, if it has fewer than
    ``incremental._AUTO_DIRECT_BELOW`` vertices, as "direct" does.  A step
    is labelled "direct" when one of its components was solved whole,
    else "incremental-vertex" when one of their parts has no edge.  The
    package walks the full graph's edge arrays instead and must give the
    same steps bit for bit."""
    from entrograph import StepStrategy
    from entrograph.entropy import _cold_root
    from entrograph.incremental import _AUTO_DIRECT_BELOW

    by_length = {}
    for e in graph.edge_list():
        by_length.setdefault(e[2], []).append(e)
    owner = {v: frozenset((v,)) for v in graph.vertices}
    comps = {key: (MetricGraph.from_edges(key, []), 0.0)
             for key in owner.values()}
    out = []
    for eps in sorted(by_length):
        used = StepStrategy.DIRECT if strategy == "direct" \
            else StepStrategy.INCREMENTAL_EDGE
        iterations = 0
        for keys, new_edges in _rebuild_groups(by_length[eps], owner):
            parts = [comps.pop(k) for k in keys]
            graphs = [g for g, _ in parts]
            h_base = max(h for _, h in parts)
            comp = disjoint_union(graphs, new_edges)
            whole = _betti(comp) >= 2 and (
                strategy == "direct" or strategy == "auto"
                and len(comp.vertices) < _AUTO_DIRECT_BELOW
                and _betti(comp) != max(map(_betti, graphs)))
            if whole:
                root = _cold_root(comp._edge_arrays,
                                  lo=h_base if floor else 0.0)
                h, evals = max(h_base, root.h), root.evals
                used = StepStrategy.DIRECT
            elif strategy == "direct":
                h, evals = h_base, 0
            else:
                h, _, _, evals = reference_extend(
                    comp, graphs, {v for e in new_edges for v in e[:2]},
                    h_base)
                if any(g.edge_count == 0 for g in graphs) \
                        and used is not StepStrategy.DIRECT:
                    used = StepStrategy.INCREMENTAL_VERTEX
            iterations += evals
            comps[comp.vertex_set] = (comp, h)
            owner.update(dict.fromkeys(comp.vertices, comp.vertex_set))
        out.append((max(h for _, h in comps.values()), iterations, used))
    return out


def reference_take(full, verts, edges, names):
    """The edge set that ``EdgeSet.take`` gave when its loops, scatter
    index, largest degree and least length were cached properties read
    on demand, and ``take`` itself resolved its least vertex name, from
    the tails, heads and lengths of ``full``; ``names`` names the
    vertices of ``full``, an index past it being a new vertex.  (n, the
    arrays tails, heads, lengths, loops and scatter, the largest degree,
    the least length, the name)."""
    n_full, u_full, w_full, l_full = full
    local = np.empty(n_full, dtype=np.intp)
    local[verts] = np.arange(verts.size)
    n = verts.size
    u, w, lengths = local[u_full[edges]], local[w_full[edges]], l_full[edges]
    diag = np.concatenate((np.arange(n), u, w)) * (n + 1)
    arrays = (u, w, lengths, (u == w).nonzero()[0],
              np.concatenate((diag, u * n + w, w * n + u)))
    for arr in arrays:
        arr.setflags(write=False)
    return (n, arrays,
            int(np.bincount(np.concatenate((u, w)),
                            minlength=n).max(initial=0)),
            float(lengths.min()) if lengths.size else 0.0,
            min(map(names.__getitem__, verts[verts < len(names)].tolist())))


def reference_edge_forms(edges, t, mode=TransferMode.NON_BACKTRACKING):
    """M(t) and M'(t) of an edge set (``graph.EdgeSet``) as (shift, tails,
    heads, weights), each form built on its own from the edge arrays,
    weights indexed by edge and 0.0 on a loop.  The terms of
    ``spectral._vertex_terms``, which one pass gives for both, must
    match them bit for bit."""
    n, u, w, lengths = edges
    z = np.exp(-t * lengths)
    loop = u == w
    shift, weights = np.ones(n), np.zeros(u.size)
    if mode is TransferMode.BACKTRACKING:
        weights[~loop], drop = z[~loop], z
    else:
        weights[~loop] = z[~loop] / -np.expm1(-2.0 * t * lengths[~loop])
        drop = z / (1.0 + z)
        if loop.any():
            shift -= np.bincount(u[loop], minlength=n)
            shift += np.bincount(u[loop], np.tanh(0.5 * t * lengths[loop]),
                                 n)
            drop[loop] = 0.0
    shift -= np.bincount(u, drop, n)
    shift -= np.bincount(w, drop, n)
    form = (shift, u, w, weights)

    weights = np.zeros(u.size)
    if mode is TransferMode.BACKTRACKING:
        weights[~loop], rise = -lengths[~loop] * z[~loop], lengths * z
    else:
        q = -np.expm1(-2.0 * t * lengths[~loop])
        zl = z[~loop]
        weights[~loop] = -lengths[~loop] * zl * (1.0 + zl * zl) / (q * q)
        rise = lengths * z / (1.0 + z) ** 2
    shift = np.bincount(u, rise, n) + np.bincount(w, rise, n)
    return form, (shift, u, w, weights)


def reference_matrix(shift, tails, heads, weights):
    """The assembled matrix of a (shift, tails, heads, weights) form by
    ``np.diag`` and four ``np.add.at``."""
    mat = np.diag(shift)
    np.add.at(mat, (tails, tails), weights)
    np.add.at(mat, (heads, heads), weights)
    np.add.at(mat, (tails, heads), -weights)
    np.add.at(mat, (heads, tails), -weights)
    return mat


def _reference_lowest(mat):
    _, vecs, _, _, info = dsyevr(mat, range="I", il=1, iu=1, lower=1,
                                 overwrite_a=1)
    assert info == 0
    return vecs[:, 0]


def _reference_quotients(form, slope, v):
    """(v^T M v, v^T M' v, the rounding scale of v^T M v) of two
    ``reference_edge_forms`` with ``@`` products, as the package took
    them before its evaluations took ``ndarray.dot``."""
    shift, tails, heads, weights = form
    sq, diff2 = v * v, (v[tails] - v[heads]) ** 2
    flow = float(weights @ diff2)
    return (float(shift @ sq) + flow,
            float(slope[0] @ sq + slope[3] @ diff2),
            4.0 * np.finfo(float).eps * (float(np.abs(shift) @ sq) + flow))


def reference_lambda_min(edges, t, mode=TransferMode.NON_BACKTRACKING):
    """``entropy._lambda_min`` the way the package evaluated it before one
    kernel gave the terms of M(t) and M'(t): the two forms built apart
    (``reference_edge_forms``), M(t) assembled by ``np.add.at``
    (``reference_matrix``), one ``dsyevr`` and the ``@`` quotients.
    (lambda, v, slope, rounding scale), bit for bit as the package's."""
    form, slope = reference_edge_forms(edges, t, mode)
    v = _reference_lowest(reference_matrix(*form))
    lam, dlam, noise = _reference_quotients(form, slope, v)
    return lam, v, dlam, noise


def reference_schur_evaluate(edges, ends, h_base, t,
                             mode=TransferMode.NON_BACKTRACKING):
    """One evaluation of ``entropy._schur_root`` the way the package made
    it before its blocks came from one permuted assembly: the blocks
    R x R, R x S and S x S of the assembled M_G(t) by three ``take``s,
    R = the vertices off ``ends``, and w_R = -x @ u."""
    n = edges.n
    on_s = np.zeros(n, dtype=bool)
    on_s[ends] = True
    s, r = on_s.nonzero()[0], (~on_s).nonzero()[0]
    rr, rs, ss = (a[:, None] * n + b for a, b in ((r, r), (r, s), (s, s)))
    form, slope = reference_edge_forms(edges, t, mode)
    mat = reference_matrix(*form)
    factor, info = dpotrf(mat.take(rr))
    if info != 0:
        return (reference_lambda_min(edges, t, mode) if t > h_base
                else (-math.inf, None, math.nan, 0.0))
    m_rs = mat.take(rs)
    x = dpotrs(factor, m_rs)[0] if r.size else m_rs
    u = _reference_lowest(mat.take(ss) - m_rs.T @ x)
    w = np.empty(n)
    w[s], w[r] = u, -x @ u
    lam, dlam, noise = _reference_quotients(form, slope, w)
    return lam, w, dlam, noise


def counting_resolvent(monkeypatch):
    """Patch ``genfun.dpotrf`` to count the factorizations of the vertex
    matrix behind the resolvent solves; the returned list grows by one
    per call."""
    from entrograph import genfun

    made = []

    def counting_dpotrf(*args, **kwargs):
        made.append(1)
        return dpotrf(*args, **kwargs)
    monkeypatch.setattr(genfun, "dpotrf", counting_dpotrf)
    return made


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
    gaps = [(a, b) for a, b in zip(attained[:-1].tolist(),
                                   attained[1:].tolist())
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


def reference_verify_recursions(graph, v, r_grid=None, r_max=None,
                                 cap=10_000_000, tie_guard=1e-9):
    """``verify_recursions`` as it was before the non-backtracking sums
    were taken once per end j: one ``shifted`` grid per pair (i, j)."""
    from entrograph import EnumerationSpec, PathKind, RecursionReport
    from entrograph.counting import _GRID_BLOCK, _default_radii, _enumerate
    if r_grid is not None:
        r_grid = tuple(float(r) for r in r_grid)
        r_max = max(r_grid)

    bt_cyc, bt_prim, nb_cyc, nb_prim = _enumerate(graph, EnumerationSpec(
        PathKind.CYCLES_AT, r_max, TransferMode.BACKTRACKING, v=v, cap=cap),
        recursions=True)

    if r_grid is None:
        r_grid = _default_radii(
            np.unique(np.concatenate([nb_cyc.lengths, bt_cyc.lengths]))
            if bt_cyc.lengths.size else np.array([]), r_max, tie_guard)

    n = graph.degree(v)
    empty = np.array([])
    starts = [nb_cyc.by_start.get(k, empty) for k in range(1, n + 1)]
    radii = np.asarray(r_grid)
    q = radii - tie_guard

    def shifted(prim, *arrays):
        taken = np.searchsorted(prim, q)
        prim = prim[:taken.max(initial=0)]
        sums = np.zeros((len(arrays), radii.size), dtype=np.int64)
        rows = max(_GRID_BLOCK // max(prim.size, 1), 1)
        for part in (slice(lo, lo + rows) for lo in range(0, q.size, rows)):
            inner = (radii[part, None] - prim) - tie_guard
            mask = np.arange(prim.size) < taken[part, None]
            for k, arr in enumerate(arrays):
                sums[k, part] = (np.searchsorted(arr, inner) * mask).sum(1)
        return taken, sums

    taken, (bt_sum,) = shifted(bt_prim.lengths, bt_cyc.lengths)
    bt_lhs, bt_rhs = np.searchsorted(bt_cyc.lengths, q), taken + bt_sum
    nb_lhs = np.array([np.searchsorted(s, q) for s in starts])
    nb_rhs = np.zeros_like(nb_lhs)
    for i in range(n):
        for j in range(n):
            taken, (all_sum, own_sum) = shifted(nb_prim.by_pair.get(
                (i + 1, j + 1), empty), nb_cyc.lengths, starts[j])
            nb_rhs[i] += taken + all_sum - own_sum
    bt_bad = [(r, int(a), int(b))
              for r, a, b in zip(r_grid, bt_lhs, bt_rhs) if a != b]
    nb_bad = [(r_grid[k], i + 1, int(nb_lhs[i, k]), int(nb_rhs[i, k]))
              for k, i in np.argwhere((nb_lhs != nb_rhs).T).tolist()]
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
