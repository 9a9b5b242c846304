"""Graph file formats and the seeded random generator.

Primary interchange is a JSON document

    {"vertices": ["a", ...], "edges": [{"u": "a", "v": "b", "length": 1.5}]}

with duplicate edges (multigraph) and u == v (loop) allowed.  A plain
edge list with one "u v length" triple per line and '#' comments is
accepted for quick experiments.  Both parsers hand their edges to one
builder: the vertices are those listed, then the edge ends by first
appearance, and every error of ``MetricGraph.from_edges`` becomes a
ParseError.  Lengths are parsed as decimal and stored as binary floats;
filtration thresholds compare the stored values exactly, so
serialization uses shortest round-trip floats.
"""

from __future__ import annotations

import json
import random

from .errors import PreconditionError
from .graph import MetricGraph


class ParseError(ValueError):
    pass


def _build(vertices, edges) -> MetricGraph:
    """The graph of ``edges``; its vertices are ``vertices``, then the
    edge ends not among them, by first appearance (``from_edges`` keeps
    the first copy of each).  Its errors become ParseError."""
    try:
        return MetricGraph.from_edges(
            [*vertices, *(w for u, v, _ in edges for w in (u, v))], edges)
    except Exception as exc:
        raise ParseError(str(exc)) from exc


def parse_graph_json(text: str) -> MetricGraph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("edges"), list):
        raise ParseError('expected an object with "vertices" and "edges"')
    vertices = doc.get("vertices", [])
    if not isinstance(vertices, list):
        raise ParseError('"vertices" must be a list of ids')
    edges = []
    for rec in doc["edges"]:
        try:
            edges.append((str(rec["u"]), str(rec["v"]), float(rec["length"])))
        except (TypeError, KeyError, ValueError) as exc:
            raise ParseError(f"bad edge record {rec!r}") from exc
    return _build(vertices, edges)


def parse_graph_edgelist(text: str) -> MetricGraph:
    edges = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(
                f"line {lineno}: expected 'u v length', got {raw!r}")
        try:
            edges.append((parts[0], parts[1], float(parts[2])))
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad length {parts[2]!r}") \
                from exc
    return _build([], edges)


def parse_graph(text: str) -> MetricGraph:
    """Sniff the format: JSON when the first non-blank character is '{'."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return parse_graph_json(text)
    return parse_graph_edgelist(text)


def load_graph(path: str) -> MetricGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def serialize_json(graph: MetricGraph) -> str:
    doc = {
        "vertices": list(graph.vertices),
        "edges": [{"u": u, "v": v, "length": l}
                  for u, v, l in graph.edge_list()],
    }
    return json.dumps(doc, indent=2) + "\n"


def serialize_edgelist(graph: MetricGraph) -> str:
    lines = [f"{u} {v} {l!r}" for u, v, l in graph.edge_list()]
    isolated = [v for v in graph.vertices
                if not graph.out_darts(v)]
    if isolated:
        lines.append("# isolated vertices are not representable "
                     "in edge-list form: " + " ".join(isolated))
    return "\n".join(lines) + "\n"


def generate_graph(seed: int, n_vertices: int, n_edges: int,
                   length_model: str = "generic",
                   require_hyperbolic: bool = False) -> MetricGraph:
    """Seeded random connected multigraph, spanning tree first.

    Length models: "generic" draws i.i.d. uniform lengths on [0.5, 2.5]
    (almost surely Diophantine length ratios); "lattice" sets every
    length to 1.  Deterministic for a fixed seed.
    """
    if n_vertices < 1:
        raise PreconditionError("need at least one vertex")
    if n_edges < n_vertices - 1:
        raise PreconditionError(
            f"{n_edges} edges cannot connect {n_vertices} vertices")
    if require_hyperbolic and n_edges < n_vertices + 1:
        raise PreconditionError(
            f"hyperbolic output needs at least {n_vertices + 1} edges "
            f"on {n_vertices} vertices")
    if length_model not in ("generic", "lattice"):
        raise PreconditionError(f"unknown length model {length_model!r}")
    rng = random.Random(seed)

    def draw_length() -> float:
        return rng.uniform(0.5, 2.5) if length_model == "generic" else 1.0

    names = [f"v{i}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        edges.append((names[rng.randrange(i)], names[i], draw_length()))
    for _ in range(n_edges - (n_vertices - 1)):
        u = rng.randrange(n_vertices)
        v = rng.randrange(n_vertices)
        while v == u and n_vertices > 1:
            v = rng.randrange(n_vertices)
        edges.append((names[u], names[v], draw_length()))
    return MetricGraph.from_edges(names, edges)
