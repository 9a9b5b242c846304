"""Persistent volume entropy over the edge-length filtration.

G_eps keeps the edges of length <= eps; the curve maps each distinct
edge length eps_1 < ... < eps_m to the entropy of G_eps (the maximum
over components, components with at most one independent cycle counting
as 0).  Entropy is monotone along the filtration, which makes the
previous value a lower bound for every later solve.

Each step adds the edges of one length.  A component of G_eps that no
added edge touches keeps its entropy.  Every other component is made of
the previous components inside it (its parts) and the added edges that
land in it, and starts from h_base, the largest entropy of its parts.
Strategy "direct" solves it again, cold, on its vertex matrix
(``entropy._vertex_root``), and keeps the larger of that root and
h_base: entropy is monotone under inclusion, so h_base is a certified
lower bound, and a cold root can round below it by ~1e-13 relative,
which would make the curve decrease.  "incremental" finds it as the
largest root of lambda_min(K(t)) = 0, K the Schur complement of the
vertex matrix on the ends of the added edges (``incremental._extend``):
one edge, a loop, a merge, a new vertex of any degree and a batch of
equal-length edges are all this one equation, so no step falls back to
a direct solve.  "auto" is accepted and means "incremental".
All strategies produce the same curve up to solver tolerance, and every
step records the strategy it used: a formula step is labelled
"incremental-vertex" when one of its parts has no edge (a new vertex),
else "incremental-edge".
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from enum import Enum

from .entropy import _vertex_root
from .errors import EntrographError, UnknownFormat, ValidationFailed
from .graph import MetricGraph, disjoint_union, validate
from .incremental import _extend


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


def _step_groups(added, owner):
    """The components of G_eps that the edges ``added`` at eps touch, as
    (keys of their parts, their added edges); ``owner`` maps a vertex to
    the key of its previous component."""
    group: dict = {}  # part key -> ({part key: None}, edges) of its group
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


def persistent_entropy(graph: MetricGraph,
                       strategy: str = "direct") -> EntropyCurve:
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
    by_length: dict = {}
    for e in graph.edge_list():
        by_length.setdefault(e[2], []).append(e)
    # the components of G_eps by vertex set, each with its entropy
    owner = {v: frozenset((v,)) for v in graph.vertices}
    comps = {key: (MetricGraph.from_edges(key, []), 0.0)
             for key in owner.values()}
    steps: list[CurveStep] = []

    for eps in eps_list:
        t0 = time.perf_counter()
        used = StepStrategy.DIRECT if strategy == "direct" \
            else StepStrategy.INCREMENTAL_EDGE
        iterations = 0
        try:
            for keys, new_edges in _step_groups(by_length[eps], owner):
                parts = [comps.pop(k) for k in keys]
                graphs = [g for g, _ in parts]
                h_base = max(h for _, h in parts)
                comp = disjoint_union(graphs, new_edges)
                if strategy == "direct":
                    # h_base is a certified lower bound; the max keeps
                    # the curve monotone where the cold root rounds below
                    root = _vertex_root(comp)
                    h, evals = max(h_base, root.h), root.evals
                else:
                    h, _, _, evals = _extend(
                        comp, graphs, {v for e in new_edges for v in e[:2]},
                        h_base)
                    if any(g.edge_count == 0 for g in graphs):
                        used = StepStrategy.INCREMENTAL_VERTEX
                iterations += evals
                comps[comp.vertex_set] = (comp, h)
                owner.update(dict.fromkeys(comp.vertices, comp.vertex_set))
        except EntrographError as exc:
            exc.threshold = eps
            raise

        h_eps = max(h for _, h in comps.values())
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
