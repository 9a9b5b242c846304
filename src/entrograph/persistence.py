"""Persistent volume entropy over the edge-length filtration.

G_eps keeps the edges of length <= eps; the curve maps each distinct
edge length eps_1 < ... < eps_m to the entropy of G_eps (the maximum
over components, components with at most one independent cycle counting
as 0).  Entropy is monotone along the filtration, which makes the
previous value a valid warm start for every later solve.

Strategy "direct" always re-solves.  "incremental" sends every step that
adds one edge, or one new vertex (isolated before the step) with all its
edges, to the paper's formulas (``_formula_step``):

- one edge: ``entropy_after_edge``, which covers parallel edges, loops,
  merges of two components and pendant edges (h unchanged, no solve);
- a new vertex with k = 1 edge: a pendant edge; with k = 2 edges: one
  edge of length l_1 + l_2 between its two targets (a loop when they
  coincide, a merge when they lie in different components);
- a new vertex with k >= 3 edges into one component:
  ``entropy_after_vertex``.

Anything else (equal-length batches of unrelated edges, a new vertex of
degree >= 3 whose targets span several components) falls back to
direct.  "auto" is accepted and means "incremental": an incremental
step costs tens of Cholesky solves of the small V x V vertex matrix of
the base, and was not slower than the direct step even on bases of a
few darts, so there is no per-step choice left to make.  All strategies
produce the same curve up to solver tolerance, and every step records
the strategy it used.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from enum import Enum

from .entropy import volume_entropy
from .errors import EntrographError, UnknownFormat, ValidationFailed
from .graph import MetricGraph, components, disjoint_union, validate
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


def _new_vertex(added, prev_comps):
    """The common endpoint of all added edges when it was isolated before
    the step and none of them is a loop, else None."""
    for cand in added[0][:2]:
        if all(cand in (u, v) and u != v for u, v, _ in added) and any(
                cand in c.vertex_set and c.edge_count == 0
                for c, _ in prev_comps):
            return cand
    return None


def _formula_step(added, prev_comps, tol):
    """The formula for a step (module docstring) as (strategy, a vertex of
    the changed component, solve taking h_base), or None for a direct
    step."""
    strategy = StepStrategy.INCREMENTAL_EDGE
    if len(added) > 1:
        hub = _new_vertex(added, prev_comps)
        if hub is None:
            return None
        strategy = StepStrategy.INCREMENTAL_VERTEX
        attach = [(v if u == hub else u, l) for u, v, l in added]
        if len(attach) > 2:
            parts = _touching(prev_comps, [t for t, _ in attach])
            if len(parts) > 1:
                return None
            return (strategy, hub,
                    lambda h: entropy_after_vertex(parts[0], attach, tol=tol,
                                                   h_base=h))
        (x, lx), (y, ly) = attach  # a degree-2 vertex: one edge x..y
        added = [(x, y, lx + ly)]
    (x, y, l), = added
    base = disjoint_union(_touching(prev_comps, (x, y)))
    return (strategy, x,
            lambda h: entropy_after_edge(base, x, y, l, tol=tol, h_base=h))


def _touching(prev_comps, verts) -> list[MetricGraph]:
    """The previous components that hold any of ``verts``."""
    return [c for c, _ in prev_comps if c.vertex_set.intersection(verts)]


def persistent_entropy(graph: MetricGraph, strategy: str = "direct",
                       tol: float = 1e-10) -> EntropyCurve:
    """Entropy curve of the edge-length filtration.

    ``strategy`` is one of "direct", "incremental", "auto" (an alias of
    "incremental").  A package error (``EntrographError``) propagates
    with its ``threshold`` attribute set to the offending threshold;
    other exceptions propagate untouched.
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

        formula = None if strategy == "direct" else \
            _formula_step(added, prev_comps, tol)

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
                if formula and formula[1] in key[0]:
                    used, _, solve = formula
                    res = solve(hint)
                    new_h[key] = res.h_prime
                else:
                    res = volume_entropy(comp, tol=tol, bracket_hint=hint)
                    new_h[key] = res.h
                iterations += res.iterations
        except EntrographError as exc:
            exc.threshold = eps
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
