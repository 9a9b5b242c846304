"""Metric graph data model: darts, validation, reduction and graph edits.

Graphs are stored as darts (oriented edge halves) with a fixed-point-free
reversal involution.  That representation makes the non-backtracking
transition relation a relation on dart ids, which keeps every transfer
matrix index-stable.  Parallel edges and loops are permitted; a loop
contributes a dart pair with equal tail and head and counts 2 toward the
degree of its vertex.

Connected components come from one cached split of the edge arrays
(``MetricGraph._split``) into each component's vertex and edge indices;
``component_of`` builds the component it names once per graph, and a
connected graph is its own component.  ``reduce`` cuts the same arrays
to their core (``_core``): leaves are peeled by degree counts, and the
chains of degree-2 vertices are joined by the union-find that also
gives the split (``_least_roots``, each class rooted at its least member).

Every entry point of the package names its vertices through
``MetricGraph._position``, the one lookup that raises UnknownVertex, and
checks every new length by ``_check_length``, the one length rule.
Every ``MetricGraph`` is valid: its constructor runs ``validate`` and
raises ValidationFailed, a PreconditionError, with the report.  So no
query checks its graph, and the edits, which rebuild the darts through
the constructor, cannot make an invalid one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (NonPositiveLength, PreconditionError, UnknownVertex,
                     ValidationFailed)


@dataclass(frozen=True)
class Dart:
    """One orientation of an undirected edge."""

    id: int
    tail: str
    head: str
    length: float
    reverse: int


class ComponentKind(Enum):
    """Classification of a connected component after reduction."""

    TRIVIAL = "trivial"            # first Betti number 0: a tree, entropy 0
    SINGLE_CYCLE = "single-cycle"  # first Betti number 1, entropy 0
    HYPERBOLIC = "hyperbolic"      # first Betti number >= 2, entropy > 0


@dataclass(frozen=True)
class MetricGraph:
    """Immutable finite undirected metric graph stored as dart pairs.

    Vertex identifiers are opaque strings and are preserved by every edit,
    so callers can track vertices across derived graphs.
    """

    vertices: tuple[str, ...]
    darts: tuple[Dart, ...]

    def __post_init__(self):
        report = validate(self)
        if report:
            raise ValidationFailed(report)

    @classmethod
    def from_edges(cls, vertices: Iterable[str],
                   edges: Iterable[tuple[str, str, float]]) -> "MetricGraph":
        """Build a graph from an undirected edge list (u, v, length).

        Each edge becomes a consecutive dart pair; loops (u == v) and
        parallel edges are allowed.  Raises UnknownVertex for an unknown
        end, then NonPositiveLength for a bad length (``_check_length``).
        """
        verts = tuple(dict.fromkeys(str(v) for v in vertices))
        vset = set(verts)
        darts: list[Dart] = []
        for u, v, length in edges:
            u, v = str(u), str(v)
            for w in (u, v):
                if w not in vset:
                    raise UnknownVertex(f"unknown vertex {w!r}")
            length = _check_length(length, f"edge [{u}, {v}]")
            k = len(darts)
            darts.append(Dart(k, u, v, length, k + 1))
            darts.append(Dart(k + 1, v, u, length, k))
        return cls(verts, tuple(darts))

    # -- derived views ----------------------------------------------------

    @cached_property
    def vertex_set(self) -> frozenset[str]:
        return frozenset(self.vertices)

    @cached_property
    def _out(self) -> dict[str, tuple[int, ...]]:
        table: dict[str, list[int]] = {v: [] for v in self.vertices}
        for d in self.darts:
            table[d.tail].append(d.id)
        return {v: tuple(ids) for v, ids in table.items()}

    @cached_property
    def _index(self) -> dict[str, int]:
        """The position of each vertex in ``vertices``."""
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _memo(self) -> dict:
        """Objects made on demand, once: the graph is immutable.  Built
        components by index (``_component``), roots by mode
        (``entropy._vertex_root``), the reduced core of the dart solve
        (``entropy._dart_core``)."""
        return {}

    def _position(self, v: str) -> int:
        """The position of vertex v in ``vertices``; UnknownVertex for a
        name the graph does not have."""
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    @cached_property
    def _edge_arrays(self) -> EdgeSet:
        """The edges of ``edge_darts``, vertices indexed in ``vertices``
        order."""
        index = self._index
        edges = self.edge_darts()
        return EdgeSet(len(index), np.array(
            [[index[d.tail] for d in edges], [index[d.head] for d in edges]],
            dtype=np.intp),
            np.array([d.length for d in edges], dtype=float),
            self.vertices, np.arange(len(index)))

    @cached_property
    def _dart_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Lengths and reversal ids of ``darts``, as read-only arrays."""
        lengths = np.array([d.length for d in self.darts], dtype=float)
        reverse = np.array([d.reverse for d in self.darts], dtype=np.intp)
        return _read_only(lengths), _read_only(reverse)

    @cached_property
    def _bt_transitions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The backtracking dart-transition relation head(d) = tail(d') as
        read-only index arrays: rows d, columns d' and the CSR row
        offsets.  The successors of d are the out-darts of head(d)
        (``_out``), in dart-id order; pairs come in row-major order."""
        succ = [self._out[d.head] for d in self.darts]
        rows = np.repeat(np.arange(len(succ)), [len(s) for s in succ])
        cols = np.array([e for s in succ for e in s], dtype=np.intp)
        return _csr_pattern(len(succ), rows, cols)

    @cached_property
    def _nb_transitions(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``_bt_transitions`` without the pairs d' = reverse(d)."""
        rows, cols, _ = self._bt_transitions
        keep = cols != self._dart_arrays[1][rows]
        return _csr_pattern(len(self.darts), rows[keep], cols[keep])

    @cached_property
    def _nb_blocks(self) -> tuple[np.ndarray, ...]:
        """The strongly connected components of ``_nb_transitions`` as a
        digraph on the darts (``_strong_blocks``): those of the support
        of B(t) wherever no weight e^{-t l} underflows to 0."""
        n = len(self.darts)
        _, cols, offsets = self._nb_transitions
        return _strong_blocks(csr_matrix(
            (np.ones(cols.size, dtype=bool), cols, offsets), shape=(n, n)))

    @cached_property
    def _split(self) -> tuple[np.ndarray, list]:
        """The component of each vertex, and each component's vertex and
        edge indices in ascending order, components ordered by least
        vertex name; read-only arrays."""
        n, tails, heads, _ = self._edge_arrays
        rank = np.argsort(sorted(range(n), key=self.vertices.__getitem__))
        root = _least_roots(n, rank[tails], rank[heads])[rank]  # name ranks
        keys, labels = np.unique(root, return_inverse=True)
        verts, edges = (np.split(_read_only(np.argsort(label, kind="stable")),
            np.cumsum(np.bincount(label, minlength=keys.size)))[:-1]
            for label in (labels, labels[tails]))  # [:-1]: the empty tail
        return _read_only(labels), list(zip(verts, edges))

    def out_darts(self, v: str) -> tuple[int, ...]:
        """Ids of darts leaving v, in dart-id order."""
        try:
            return self._out[v]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {v!r}") from None

    def degree(self, v: str) -> int:
        """Vertex degree; a loop counts 2."""
        return len(self.out_darts(v))

    @property
    def edge_count(self) -> int:
        return len(self.darts) // 2

    def edge_darts(self) -> tuple[Dart, ...]:
        """One representative dart per undirected edge (the lower id)."""
        return tuple(d for d in self.darts if d.id < d.reverse)

    def edge_list(self) -> tuple[tuple[str, str, float], ...]:
        return tuple((d.tail, d.head, d.length) for d in self.edge_darts())

    def min_length(self) -> float:
        return self._edge_arrays.min_length

    def max_degree(self) -> int:
        return self._edge_arrays.max_degree


class EdgeSet:
    """Vertices 0..n-1 and edges ends[0, i]-ends[1, i] (``tails``,
    ``heads``) of length lengths[i], with what a vertex-matrix solve
    reads, all set here, together, from those arrays: ``max_degree`` (a
    loop counts 2), ``min_length`` (0 without edges), ``loops``, the loop
    edges, and ``scatter``, the flat n x n index of ``spectral._assemble``:
    diagonal, then uu, ww, uw and wu of every edge, a loop's four on its
    diagonal.  All read-only; a solve's term arrays are indexed by edge
    as these are.  names[verts[i]] names vertex i, and an index past
    ``names`` is a new vertex, which has none; only errors read a name
    (``name``).  Unpacks as (n, tails, heads, lengths)."""

    __slots__ = ("n", "ends", "tails", "heads", "lengths", "max_degree",
                 "min_length", "loops", "scatter", "_names", "_verts")

    def __init__(self, n: int, ends: np.ndarray, lengths: np.ndarray,
                 names: Sequence[str], verts: np.ndarray):
        ends.setflags(write=False)  # before the views of its rows
        lengths.setflags(write=False)
        self.n, self.ends, self.lengths = n, ends, lengths
        self.tails, self.heads = tails, heads = ends[0], ends[1]
        self._names, self._verts = names, verts
        self.max_degree = max(np.bincount(ends.ravel()).tolist(), default=0)
        self.min_length = min(lengths.tolist(), default=0.0)
        self.loops = _read_only((tails == heads).nonzero()[0])
        cross = np.concatenate((ends * (n + 1), ends * n + ends[::-1]))
        self.scatter = _read_only(np.concatenate(  # cross rows: uu ww uw wu
            (np.arange(0, n * (n + 1), n + 1), cross.ravel())))

    def __iter__(self):
        return iter((self.n, self.tails, self.heads, self.lengths))

    def name(self) -> str:
        """The least vertex name, which names the edge set in errors."""
        known = self._verts[self._verts < len(self._names)]
        return min(map(self._names.__getitem__, known.tolist()), default="")

    def take(self, verts: np.ndarray, edges: np.ndarray,
             added=None) -> "EdgeSet":
        """The edge set of the vertices ``verts``, renumbered 0.. in that
        order, and of the edges ``edges`` among them, each vertex keeping
        its name: one gather of the ends and the lengths, from which the
        constructor sets the loops, scatter index, largest degree and least
        length.  ``added``, the (ends, lengths) of k more edges, makes them
        edges m..m+k-1, an end n being a new vertex, which has no name."""
        ends, lengths, ids = self.ends, self.lengths, self._verts
        if added is not None:
            ends, lengths = np.append(ends, added[0], 1), np.append(
                lengths, added[1])
            ids = np.append(ids, len(self._names))
        local = np.empty(self.n + 1, dtype=np.intp)
        local[verts] = np.arange(verts.size)
        return EdgeSet(verts.size, local[ends.take(edges, axis=1)],
                       lengths[edges], self._names, ids[verts])


def _check_length(value, edge: str) -> float:
    """``value`` as a float, if it converts to a positive finite one; the
    refusal names an int too long to print by its size (``_shown``)."""
    try:
        length = float(value)
    except (TypeError, ValueError, OverflowError):
        raise NonPositiveLength(f"{edge} has length {_shown(value)}, "
                                f"not in (0, inf)") from None
    if not (length > 0.0 and math.isfinite(length)):
        raise NonPositiveLength(f"{edge} has length {length!r}, "
                                f"not in (0, inf)")
    return length


def _shown(value) -> str:
    """repr(value), or the size of an int too long to print."""
    try:
        return repr(value)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return f"int of {value.bit_length()} bits"


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr``, made read-only; so are the views later taken of it."""
    arr.setflags(write=False)
    return arr


def _least_roots(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union-find on 0..n-1 joining a[i] with b[i]: the least member of
    the class of each element."""
    root = list(range(n))
    for x, y in zip(a.tolist(), b.tolist()):
        while root[x] != root[y]:  # Rem's union, with splicing
            x, y = (x, y) if root[x] > root[y] else (y, x)
            root[x], x = root[y], root[x]
    for r, p in enumerate(root):  # p <= r: one ascending pass flattens
        root[r] = root[p]
    return np.array(root, dtype=np.intp)


def _csr_pattern(n: int, rows: np.ndarray, cols: np.ndarray):
    """(rows, cols, CSR row offsets) of a relation on n darts whose pairs
    are in row-major order, as read-only arrays."""
    offsets = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=offsets[1:])
    return _read_only(rows), _read_only(cols), _read_only(offsets)


def _strong_blocks(support) -> tuple[np.ndarray, ...]:
    """The strongly connected components of the digraph of the entries
    of a square CSR matrix, each as its read-only ascending indices, in
    order of least index."""
    _, labels = connected_components(support, directed=True,
                                     connection="strong")
    by_label = _read_only(np.argsort(labels, kind="stable"))
    blocks = np.split(by_label, np.cumsum(np.bincount(labels))[:-1])
    return tuple(sorted(blocks, key=lambda idx: idx[0]))


def validate(graph: MetricGraph) -> tuple[str, ...]:
    """Check the MetricGraph invariants; return a report of violations.

    An empty report means the graph is valid.  ``MetricGraph`` raises
    :class:`ValidationFailed` with a report that is not empty; this never
    raises, not even on an int length too long to print (``_shown``).
    """
    report: list[str] = []
    vset = set(graph.vertices)
    if len(vset) != len(graph.vertices):
        report.append("duplicate vertex identifiers")
    n = len(graph.darts)
    for d in graph.darts:
        if d.id < 0 or d.id >= n or graph.darts[d.id] is not d:
            report.append(f"dart {d.id}: id does not match its position")
            continue
        if (isinstance(d.length, bool)  # an int, but not a length
                or not isinstance(d.length, (int, float))):
            report.append(f"dart {d.id}: length {d.length!r} is not an int "
                          "or a float")
        else:
            try:
                _check_length(d.length, "dart")
            except NonPositiveLength:
                report.append(f"dart {d.id}: non-positive length "
                              f"{_shown(d.length)}")
        if d.tail not in vset:
            report.append(f"dart {d.id}: unknown tail {d.tail!r}")
        if d.head not in vset:
            report.append(f"dart {d.id}: unknown head {d.head!r}")
        if not (0 <= d.reverse < n):
            report.append(f"dart {d.id}: reversal {d.reverse} out of range")
            continue
        r = graph.darts[d.reverse]
        if r.id == d.id:
            report.append(f"dart {d.id}: reversal fixed point")
            continue
        if r.reverse != d.id:
            report.append(f"dart {d.id}: reversal is not an involution")
        if r.tail != d.head or r.head != d.tail:
            report.append(f"dart {d.id}: reversal does not swap endpoints")
        if r.length != d.length:
            report.append(f"dart {d.id}: paired darts have unequal lengths")
    return tuple(report)


def _component(graph: MetricGraph, k: int) -> MetricGraph:
    """Component k of ``graph._split``, built once from the edge arrays in
    the vertex and edge order of ``graph``; a connected graph is itself."""
    parts, built = graph._split[1], graph._memo
    if len(parts) > 1 and k not in built:
        verts, edges = parts[k]
        _, tails, heads, lengths = graph._edge_arrays
        name = graph.vertices.__getitem__
        built[k] = MetricGraph.from_edges(map(name, verts.tolist()), zip(
            map(name, tails[edges].tolist()),
            map(name, heads[edges].tolist()), lengths[edges].tolist()))
    return built.get(k, graph)


def components(graph: MetricGraph) -> list[MetricGraph]:
    """Split into connected components, ordered by smallest vertex id.

    Each component keeps the identifiers and order of the input graph's
    vertices and edges; a connected graph is returned as it is.
    """
    return [_component(graph, k) for k in range(len(graph._split[1]))]


def component_of(graph: MetricGraph, x: str) -> MetricGraph:
    """The connected component containing vertex x, as in ``components``;
    only that component is built."""
    return _component(graph, graph._split[0][graph._position(x)])


def first_betti(graph: MetricGraph) -> tuple[int, ...]:
    """First Betti number |E| - |V| + 1 of each connected component."""
    return tuple(e.size - v.size + 1 for v, e in graph._split[1])


@dataclass(frozen=True)
class ReduceResult:
    graph: MetricGraph
    kinds: tuple[ComponentKind, ...]


def reduce(graph: MetricGraph) -> ReduceResult:
    """Entropy-preserving reduction of a graph.

    Per component: degree-1 vertices are deleted with their edge and
    degree-2 vertices are suppressed (their two edges merge into one of
    summed length), repeatedly; both operations leave the volume entropy
    unchanged.  A Betti-0 component disappears entirely (kind TRIVIAL); a
    Betti-1 component collapses to one loop at the first vertex of its
    cycle in ``graph.vertices`` (kind SINGLE_CYCLE; that vertex is kept
    though its degree is 2, as suppressing it would erase the component);
    a Betti >= 2 component reduces to a core of minimum degree 3 (kind
    HYPERBOLIC).  Kinds align with the ``components`` order; surviving
    vertices keep their identifiers and their order.
    """
    kept, tails, heads, lengths = _core(graph._edge_arrays)
    names = np.array(graph.vertices, dtype=object)[kept]
    kinds = tuple(ComponentKind.TRIVIAL if b == 0
                  else ComponentKind.SINGLE_CYCLE if b == 1
                  else ComponentKind.HYPERBOLIC for b in first_betti(graph))
    return ReduceResult(MetricGraph.from_edges(names, zip(
        names[tails], names[heads], lengths.tolist())), kinds)


def _core(edges: EdgeSet):
    """The core of an edge set: the kept vertex indices, and the tails,
    heads (positions among the kept vertices) and lengths of its edges.

    Edges at a degree-1 vertex are peeled until none is left; the two
    edges at each degree-2 vertex are joined, and each joined class
    becomes one edge, of its lengths summed in edge order, between the
    vertices of degree >= 3 it meets, or, a whole cycle, a loop at its
    least vertex.  Unjoined edges keep their order and joined classes
    follow by least edge; a class's first end, tails before heads, is
    its tail.
    """
    n, tails, heads, lengths = edges
    m = tails.size
    ends = np.concatenate((tails, heads))  # end k is one of edge k % m
    alive = np.ones(m, dtype=bool)
    degree = np.bincount(ends, minlength=n)
    while (cut := alive & (degree[ends] == 1).reshape(2, m).any(0)).any():
        alive &= ~cut
        degree -= np.bincount(ends[np.concatenate((cut, cut))], minlength=n)
    live = np.concatenate((alive, alive))
    inner = (live & (degree[ends] == 2)).nonzero()[0]
    inner = inner[np.argsort(ends[inner], kind="stable")]  # pairs by vertex
    root = _least_roots(m, inner[0::2] % m, inner[1::2] % m)
    cls = np.concatenate((root, root))  # the class of each end
    size = np.bincount(root[alive], minlength=m)
    kept = degree >= 3
    c, first, count = np.unique(cls[inner], return_index=True,
                                return_counts=True)  # first: least vertex
    kept[ends[inner[first[count == 2 * size[c]]]]] = True  # whole cycles
    at = (live & kept[ends]).nonzero()[0]  # two per class, joined ones last
    at = at[np.argsort(cls[at] + m * (size[cls[at]] > 1), kind="stable")]
    local = np.cumsum(kept) - 1
    summed = np.bincount(root[alive], weights=lengths[alive], minlength=m)
    return (kept.nonzero()[0], local[ends[at[0::2]]],
            local[ends[at[1::2]]], summed[cls[at[0::2]]])


def add_edge(graph: MetricGraph, x: str, y: str, l0: float) -> MetricGraph:
    """Return a new graph with one extra edge [x, y] of length l0.

    x == y produces a loop.  The input graph is unchanged.
    ``from_edges`` rejects an unknown end and a length that is not
    positive and finite.
    """
    return MetricGraph.from_edges(graph.vertices,
                                  graph.edge_list() + ((x, y, l0),))


def add_vertex(graph: MetricGraph,
               attachments: Sequence[tuple[str, float]],
               new_id: str | None = None) -> MetricGraph:
    """Return a new graph with a fresh vertex joined to existing vertices.

    ``attachments`` lists (v_i, l_i) pairs: one new edge of length l_i per
    entry from the new vertex to v_i.  The new vertex id is generated
    deterministically unless ``new_id`` is given.  Targets and lengths
    are checked as in ``add_edge``.
    """
    if not attachments:
        raise PreconditionError("attachment list must not be empty")
    if new_id is None:
        k = len(graph.vertices)
        new_id = f"v{k}"
        while new_id in graph.vertex_set:
            k += 1
            new_id = f"v{k}"
    elif new_id in graph.vertex_set:
        raise PreconditionError(f"vertex {new_id!r} already exists")
    edges = graph.edge_list() + tuple((new_id, v, l) for v, l in attachments)
    return MetricGraph.from_edges(graph.vertices + (new_id,), edges)


def delete_edge(graph: MetricGraph, dart_id: int) -> MetricGraph:
    """Return a new graph without the edge carrying the given dart."""
    if not (0 <= dart_id < len(graph.darts)):
        raise PreconditionError(f"dart id {dart_id} out of range")
    rid = graph.darts[dart_id].reverse
    edges = tuple((d.tail, d.head, d.length) for d in graph.edge_darts()
                  if d.id not in (dart_id, rid))
    return MetricGraph.from_edges(graph.vertices, edges)


def delete_vertex(graph: MetricGraph, v: str) -> MetricGraph:
    """Return a new graph without v and without all edges incident to v."""
    graph._position(v)
    verts = tuple(w for w in graph.vertices if w != v)
    edges = tuple(e for e in graph.edge_list() if v not in (e[0], e[1]))
    return MetricGraph.from_edges(verts, edges)


def same_graph(a: MetricGraph, b: MetricGraph) -> bool:
    """True when two graphs have identical vertex sets and edge multisets.

    Identifier-preserving equality, sufficient for the edit/round-trip
    invariants (it is isomorphism via the identity on vertex ids).
    """
    norm = lambda e: (min(e[0], e[1]), max(e[0], e[1]), e[2])
    return a.vertex_set == b.vertex_set and sorted(
        map(norm, a.edge_list())) == sorted(map(norm, b.edge_list()))
