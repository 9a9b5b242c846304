"""Metric graph data model: darts, validation, reduction and graph edits.

Graphs are stored as darts (oriented edge halves) with a fixed-point-free
reversal involution.  That representation makes the non-backtracking
transition relation a relation on dart ids, which keeps every transfer
matrix index-stable.  Parallel edges and loops are permitted; a loop
contributes a dart pair with equal tail and head and counts 2 toward the
degree of its vertex.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import NonPositiveLength, UnknownVertex


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

    @classmethod
    def from_edges(cls, vertices: Iterable[str],
                   edges: Iterable[tuple[str, str, float]]) -> "MetricGraph":
        """Build a graph from an undirected edge list (u, v, length).

        Each edge becomes a consecutive dart pair; loops (u == v) and
        parallel edges are allowed.
        """
        verts = tuple(dict.fromkeys(str(v) for v in vertices))
        vset = set(verts)
        darts: list[Dart] = []
        for u, v, length in edges:
            u, v = str(u), str(v)
            if u not in vset:
                raise UnknownVertex(f"unknown vertex {u!r}")
            if v not in vset:
                raise UnknownVertex(f"unknown vertex {v!r}")
            length = float(length)
            if not (length > 0.0) or not math.isfinite(length):
                raise NonPositiveLength(
                    f"edge [{u}, {v}] has non-positive length {length!r}")
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
    def _edge_arrays(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """Vertex count, then tail and head indices (``vertices`` order)
        and lengths of the edges of ``edge_darts``, as read-only arrays."""
        index = {v: i for i, v in enumerate(self.vertices)}
        edges = self.edge_darts()
        u = np.array([index[d.tail] for d in edges], dtype=np.intp)
        w = np.array([index[d.head] for d in edges], dtype=np.intp)
        lengths = np.array([d.length for d in edges], dtype=float)
        for arr in (u, w, lengths):
            arr.flags.writeable = False
        return len(index), u, w, lengths

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
        return min((d.length for d in self.darts), default=0.0)

    def max_degree(self) -> int:
        return max((self.degree(v) for v in self.vertices), default=0)


def validate(graph: MetricGraph) -> tuple[str, ...]:
    """Check the MetricGraph invariants; return a report of violations.

    An empty report means the graph is valid.  This function never raises:
    it is the diagnostic used before raising :class:`ValidationFailed`.
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
        if not (isinstance(d.length, (int, float)) and math.isfinite(d.length)
                and d.length > 0.0):
            report.append(f"dart {d.id}: non-positive length {d.length!r}")
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


def components(graph: MetricGraph) -> list[MetricGraph]:
    """Split into connected components, ordered by smallest vertex id.

    Each component keeps the vertex identifiers of the input graph; a
    connected graph is its own single component, returned as it is.
    """
    adj: dict[str, set[str]] = {v: set() for v in graph.vertices}
    for d in graph.darts:
        adj[d.tail].add(d.head)
    seen: set[str] = set()
    out: list[MetricGraph] = []
    for start in sorted(graph.vertices):
        if start in seen:
            continue
        stack, comp = [start], {start}
        seen.add(start)
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in comp:
                    comp.add(w)
                    seen.add(w)
                    stack.append(w)
        if len(comp) == len(graph.vertices):
            return [graph]
        verts = tuple(v for v in graph.vertices if v in comp)
        edges = tuple((d.tail, d.head, d.length)
                      for d in graph.edge_darts() if d.tail in comp)
        out.append(MetricGraph.from_edges(verts, edges))
    return out


def component_of(graph: MetricGraph, x: str) -> MetricGraph:
    """The connected component containing vertex x."""
    for comp in components(graph):
        if x in comp.vertex_set:
            return comp
    raise UnknownVertex(f"unknown vertex {x!r}")


def disjoint_union(parts: Sequence[MetricGraph],
                   edges: Sequence[tuple[str, str, float]] = ()
                   ) -> MetricGraph:
    """One graph holding vertex-disjoint parts side by side, with
    ``edges`` added between their vertices."""
    return MetricGraph.from_edges(
        [v for p in parts for v in p.vertices],
        [e for p in parts for e in p.edge_list()] + list(edges))


def first_betti(graph: MetricGraph) -> tuple[int, ...]:
    """First Betti number |E| - |V| + 1 of each connected component."""
    return tuple(comp.edge_count - len(comp.vertices) + 1
                 for comp in components(graph))


@dataclass(frozen=True)
class ReduceResult:
    graph: MetricGraph
    kinds: tuple[ComponentKind, ...]


def reduce(graph: MetricGraph) -> ReduceResult:
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
    pieces: list[tuple[tuple[str, ...], list[tuple[str, str, float]]]] = []
    kinds: list[ComponentKind] = []
    for comp in components(graph):
        betti = comp.edge_count - len(comp.vertices) + 1
        if betti == 0:
            kinds.append(ComponentKind.TRIVIAL)
            continue
        kinds.append(ComponentKind.SINGLE_CYCLE if betti == 1
                     else ComponentKind.HYPERBOLIC)
        pieces.append(_reduce_component(comp))
    verts: list[str] = []
    edges: list[tuple[str, str, float]] = []
    for pv, pe in pieces:
        verts.extend(pv)
        edges.extend(pe)
    reduced = MetricGraph.from_edges(verts, edges)
    return ReduceResult(reduced, tuple(kinds))


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


def add_edge(graph: MetricGraph, x: str, y: str, l0: float) -> MetricGraph:
    """Return a new graph with one extra edge [x, y] of length l0.

    x == y produces a loop.  The input graph is unchanged.
    """
    if x not in graph.vertex_set:
        raise UnknownVertex(f"unknown vertex {x!r}")
    if y not in graph.vertex_set:
        raise UnknownVertex(f"unknown vertex {y!r}")
    l0 = float(l0)
    if not (l0 > 0.0) or not math.isfinite(l0):
        raise NonPositiveLength(f"edge length must be positive, got {l0!r}")
    return MetricGraph.from_edges(graph.vertices,
                                  graph.edge_list() + ((x, y, l0),))


def add_vertex(graph: MetricGraph,
               attachments: Sequence[tuple[str, float]],
               new_id: str | None = None) -> MetricGraph:
    """Return a new graph with a fresh vertex joined to existing vertices.

    ``attachments`` lists (v_i, l_i) pairs: one new edge of length l_i per
    entry from the new vertex to v_i.  The new vertex id is generated
    deterministically unless ``new_id`` is given.
    """
    if not attachments:
        raise ValueError("attachment list must not be empty")
    for v, _ in attachments:
        if v not in graph.vertex_set:
            raise UnknownVertex(f"unknown vertex {v!r}")
    for _, l in attachments:
        if not (float(l) > 0.0) or not math.isfinite(float(l)):
            raise NonPositiveLength(f"edge length must be positive, got {l!r}")
    if new_id is None:
        k = len(graph.vertices)
        new_id = f"v{k}"
        while new_id in graph.vertex_set:
            k += 1
            new_id = f"v{k}"
    elif new_id in graph.vertex_set:
        raise ValueError(f"vertex {new_id!r} already exists")
    edges = graph.edge_list() + tuple(
        (new_id, v, float(l)) for v, l in attachments)
    return MetricGraph.from_edges(graph.vertices + (new_id,), edges)


def delete_edge(graph: MetricGraph, dart_id: int) -> MetricGraph:
    """Return a new graph without the edge carrying the given dart."""
    if not (0 <= dart_id < len(graph.darts)):
        raise ValueError(f"dart id {dart_id} out of range")
    rid = graph.darts[dart_id].reverse
    edges = tuple((d.tail, d.head, d.length) for d in graph.edge_darts()
                  if d.id not in (dart_id, rid))
    return MetricGraph.from_edges(graph.vertices, edges)


def delete_vertex(graph: MetricGraph, v: str) -> MetricGraph:
    """Return a new graph without v and without all edges incident to v."""
    if v not in graph.vertex_set:
        raise UnknownVertex(f"unknown vertex {v!r}")
    verts = tuple(w for w in graph.vertices if w != v)
    edges = tuple(e for e in graph.edge_list() if v not in (e[0], e[1]))
    return MetricGraph.from_edges(verts, edges)


def same_graph(a: MetricGraph, b: MetricGraph) -> bool:
    """True when two graphs have identical vertex sets and edge multisets.

    Identifier-preserving equality, sufficient for the edit/round-trip
    invariants (it is isomorphism via the identity on vertex ids).
    """
    if a.vertex_set != b.vertex_set:
        return False
    norm = lambda e: (min(e[0], e[1]), max(e[0], e[1]), e[2])
    return sorted(map(norm, a.edge_list())) == sorted(map(norm, b.edge_list()))
