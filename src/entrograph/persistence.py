"""Persistent volume entropy over the edge-length filtration.

G_eps keeps the edges of length <= eps; the curve maps each distinct
edge length eps_1 < ... < eps_m to the entropy of G_eps (the maximum
over components, components with at most one independent cycle counting
as 0).  Entropy is monotone along the filtration, which makes the
previous value a lower bound for every later solve.

The walk runs on index arrays of the full graph: its edges sorted by
length once, and each component of G_eps kept as its vertex and edge
indices with its entropy.  Each step adds the edges of one length.  A
component that no added edge touches keeps its entropy.  Every other one
is its parts, the previous components inside it, joined by the added
edges that land in it: the step of the edge and vertex formulas
(``incremental._join``), from h_base, the largest entropy of its parts.
"incremental" solves it on the Schur complement of the vertex matrix on
the ends of the added edges, for one edge, a loop, a merge, a new vertex
or a batch of equal-length edges alike.  "direct" solves the whole
component on its vertex matrix (``entropy._cold_root``), climbing from
h_base, a certified lower bound, and keeps h_base where the root rounds
below it.  "auto" means "incremental".  All strategies give the same
curve up to solver tolerance; a formula step is labelled
"incremental-vertex" when one of its parts has no edge, else
"incremental-edge".
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import EntrographError, UnknownFormat
from .graph import MetricGraph, _require_valid
from .incremental import _join


class StepStrategy(Enum):
    DIRECT = "direct"
    INCREMENTAL_EDGE = "incremental-edge"
    INCREMENTAL_VERTEX = "incremental-vertex"


@dataclass(frozen=True)
class CurveStep:
    epsilon: float
    h: float
    strategy: StepStrategy
    iterations: int
    ms: float


@dataclass(frozen=True)
class EntropyCurve:
    steps: tuple[CurveStep, ...]
    thresholds: tuple[float, ...]


def thresholds(graph: MetricGraph) -> tuple[float, ...]:
    """Strictly increasing distinct edge lengths (exact-value dedup)."""
    return tuple(np.unique(graph._edge_arrays.lengths).tolist())


def filter_at(graph: MetricGraph, epsilon: float) -> MetricGraph:
    """Subgraph on all vertices keeping edges of length <= epsilon."""
    edges = tuple(e for e in graph.edge_list() if e[2] <= epsilon)
    return MetricGraph.from_edges(graph.vertices, edges)


def _step_groups(added, tail_keys, head_keys):
    """The components of G_eps that the edges ``added`` at eps touch, as
    (keys of their parts, their added edges), given the key of the
    previous component of the tail and of the head of each edge."""
    group: dict = {}  # part key -> ({part key: None}, edges) of its group
    for e, *ends in zip(added, tail_keys, head_keys):
        a, b = (group.setdefault(k, ({k: None}, [])) for k in ends)
        if a is not b:
            a[0].update(b[0])
            a[1].extend(b[1])
            group.update(dict.fromkeys(b[0], a))
        a[1].append(e)
    return [(list(keys), edges) for keys, edges
            in {id(g): g for g in group.values()}.values()]


def persistent_entropy(graph: MetricGraph,
                       strategy: str = "direct") -> EntropyCurve:
    """Entropy curve of the edge-length filtration.

    ``strategy`` is one of "direct", "incremental", "auto" (an alias of
    "incremental").  A package error (``EntrographError``) propagates
    with its ``threshold`` attribute set to the offending threshold;
    other exceptions propagate untouched.
    """
    _require_valid(graph)
    if strategy not in ("direct", "incremental", "auto"):
        raise ValueError(f"unknown strategy {strategy!r}")

    n, tails, heads, lengths = edge_set = graph._edge_arrays
    eps_list = thresholds(graph)
    by_length = np.argsort(lengths, kind="stable")
    cuts = np.searchsorted(lengths[by_length], eps_list, side="right").tolist()
    by_tail, by_head = tails[by_length], heads[by_length]  # steps: slices
    # the components of G_eps by key: vertex and edge indices, entropy
    comps = {v: (np.array([v]), np.empty(0, np.intp), 0.0) for v in range(n)}
    owner = np.arange(n)  # the key of the component of each vertex
    direct, names, h_eps, steps = strategy == "direct", graph.vertices, 0.0, []

    for eps, a, b in zip(eps_list, [0] + cuts, cuts):
        t0 = time.perf_counter()
        used = StepStrategy.DIRECT if direct \
            else StepStrategy.INCREMENTAL_EDGE
        iterations = 0
        try:
            for keys, new in _step_groups(by_length[a:b].tolist(),
                                          owner[by_tail[a:b]].tolist(),
                                          owner[by_head[a:b]].tolist()):
                parts = [comps.pop(k) for k in keys]
                verts, edges, res = _join(edge_set, names, parts, new,
                                          direct=direct)
                iterations += res.iterations
                if not direct and any(p[1].size == 0 for p in parts):
                    used = StepStrategy.INCREMENTAL_VERTEX
                comps[keys[0]] = (verts, edges, res.h_prime)
                owner[verts] = keys[0]
                h_eps = max(h_eps, res.h_prime)
        except EntrographError as exc:
            exc.threshold = eps
            raise
        ms = (time.perf_counter() - t0) * 1e3
        steps.append(CurveStep(eps, h_eps, used, iterations, ms))

    return EntropyCurve(tuple(steps), eps_list)


def export_curve(curve: EntropyCurve, fmt: str = "csv") -> bytes:
    """Serialize a curve as CSV or JSON with a stable field order."""
    if fmt == "csv":
        lines = ["epsilon,h,strategy,iterations,ms"]
        for s in curve.steps:
            lines.append(f"{s.epsilon!r},{s.h!r},{s.strategy.value},"
                         f"{s.iterations},{s.ms:.3f}")
        return ("\n".join(lines) + "\n").encode()
    if fmt == "json":
        doc = {
            "thresholds": list(curve.thresholds),
            "steps": [{"epsilon": s.epsilon, "h": s.h,
                       "strategy": s.strategy.value,
                       "iterations": s.iterations, "ms": s.ms}
                      for s in curve.steps],
        }
        return (json.dumps(doc, indent=2) + "\n").encode()
    raise UnknownFormat(f"unknown curve format {fmt!r}")


def curve_from_json(data: bytes | str) -> EntropyCurve:
    """Inverse of export_curve(..., "json")."""
    doc = json.loads(data)
    steps = tuple(CurveStep(s["epsilon"], s["h"],
                            StepStrategy(s["strategy"]),
                            s["iterations"], s["ms"])
                  for s in doc["steps"])
    return EntropyCurve(steps, tuple(doc["thresholds"]))
