"""Persistent volume entropy over the edge-length filtration.

G_eps keeps the edges of length <= eps; the curve maps each distinct
edge length eps_1 < ... < eps_m to the entropy of G_eps (the maximum
over components, components with at most one independent cycle counting
as 0).  Entropy is monotone along the filtration, which makes the
previous value a valid warm start for every later solve.

Strategy "direct" always re-solves; "incremental" applies the
edge-addition equation when a step adds exactly one edge between
existing, non-adjacent vertices of one component of the previous graph,
and the vertex-addition equation when a step adds one new vertex with at
least 3 edges into one component; anything else (equal-length batches,
component merges, pendant edges) falls back to direct.  "auto" is
accepted and means "incremental": an incremental step costs tens of
Cholesky solves of the V x V vertex matrix of the base component, and
was not slower than the direct step even on bases of a few darts, so
there is no per-step choice left to make.  All strategies produce the
same curve up to solver tolerance, and every step records the strategy
it used.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from enum import Enum

from .entropy import volume_entropy
from .errors import UnknownFormat, ValidationFailed
from .graph import MetricGraph, components, validate
from .incremental import entropy_after_edge, entropy_after_vertex


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
    return tuple(sorted({d.length for d in graph.edge_darts()}))


def filter_at(graph: MetricGraph, epsilon: float) -> MetricGraph:
    """Subgraph on all vertices keeping edges of length <= epsilon."""
    edges = tuple(e for e in graph.edge_list() if e[2] <= epsilon)
    return MetricGraph.from_edges(graph.vertices, edges)


def _component_key(comp: MetricGraph):
    return (comp.vertex_set,
            tuple(sorted((min(u, v), max(u, v), l)
                         for u, v, l in comp.edge_list())))


def _vertex_step(added, prev_comps):
    """Detect a single-new-vertex step: all added edges share one common
    endpoint that was isolated before, the other endpoints lie in one
    previous component, and there are at least 3 edges."""
    if len(added) < 3:
        return None
    for cand in set(added[0][:2]):
        if not all(cand in (u, v) and u != v for u, v, _ in added):
            continue
        others = [(v if u == cand else u, l) for u, v, l in added]
        isolated, prev = True, None
        for comp, _ in prev_comps:
            if cand in comp.vertex_set and comp.edge_count > 0:
                isolated = False  # not a new effective vertex
                break
            if others[0][0] in comp.vertex_set:
                prev = comp
        if not isolated or prev is None or prev.edge_count == 0:
            continue
        if all(t in prev.vertex_set for t, _ in others):
            return cand, others, prev
    return None


def _edge_step(added, prev_comps):
    """Detect a single-edge step between existing non-adjacent vertices
    of one previous component."""
    if len(added) != 1:
        return None
    u, v, l = added[0]
    if u == v:
        return None
    for comp, _ in prev_comps:
        if u in comp.vertex_set:
            if v not in comp.vertex_set or comp.edge_count == 0:
                return None
            adjacent = any(d.head == v for d in comp.darts if d.tail == u)
            return None if adjacent else (u, v, l, comp)
    return None


def persistent_entropy(graph: MetricGraph, strategy: str = "direct",
                       tol: float = 1e-10) -> EntropyCurve:
    """Entropy curve of the edge-length filtration.

    ``strategy`` is one of "direct", "incremental", "auto" (an alias of
    "incremental").  Solver
    errors propagate with the offending threshold attached.
    """
    report = validate(graph)
    if report:
        raise ValidationFailed(report)
    if strategy not in ("direct", "incremental", "auto"):
        raise ValueError(f"unknown strategy {strategy!r}")

    eps_list = thresholds(graph)
    steps: list[CurveStep] = []
    prev_graph = filter_at(graph, -math.inf)
    prev_comps = components(prev_graph)
    prev_h: dict = {_component_key(c): 0.0 for c, _ in prev_comps}
    all_edges = graph.edge_list()

    for eps in eps_list:
        t0 = time.perf_counter()
        g_eps = filter_at(graph, eps)
        added = [e for e in all_edges if e[2] == eps]
        used = StepStrategy.DIRECT
        iterations = 0

        edge_case = vertex_case = None
        if strategy != "direct":
            edge_case = _edge_step(added, prev_comps)
            vertex_case = None if edge_case else _vertex_step(added,
                                                              prev_comps)

        comps_now = components(g_eps)
        new_h: dict = {}
        try:
            for comp, _ in comps_now:
                key = _component_key(comp)
                if key in prev_h:
                    new_h[key] = prev_h[key]
                    continue
                hint = max((h for pk, h in prev_h.items()
                            if pk[0] & key[0]), default=0.0)
                if edge_case and {edge_case[0], edge_case[1]} <= key[0]:
                    u, v, l, base = edge_case
                    res = entropy_after_edge(base, u, v, l, tol=tol,
                                             h_base=hint)
                    new_h[key] = res.h_prime
                    iterations += res.iterations
                    used = StepStrategy.INCREMENTAL_EDGE
                elif vertex_case and vertex_case[0] in key[0]:
                    v0, attach, base = vertex_case
                    res = entropy_after_vertex(base, attach, tol=tol,
                                               h_base=hint)
                    new_h[key] = res.h_prime
                    iterations += res.iterations
                    used = StepStrategy.INCREMENTAL_VERTEX
                else:
                    res = volume_entropy(comp, tol=tol, bracket_hint=hint)
                    new_h[key] = res.h
                    iterations += res.iterations
        except Exception as exc:
            exc.args = (f"{exc} (at filtration threshold {eps!r})",)
            raise

        h_eps = max(new_h.values(), default=0.0)
        ms = (time.perf_counter() - t0) * 1e3
        steps.append(CurveStep(eps, h_eps, used, iterations, ms))
        prev_graph, prev_comps, prev_h = g_eps, comps_now, new_h

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
