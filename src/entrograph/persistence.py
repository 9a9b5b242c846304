"""Persistent volume entropy over the edge-length filtration.

G_eps keeps the edges of length <= eps; the curve maps each distinct
edge length eps_1 < ... < eps_m to the entropy of G_eps (the maximum
over components, components with at most one independent cycle counting
as 0).  Entropy is monotone along the filtration, which makes the
previous value a lower bound for every later solve.

The walk runs on the edge set of the full graph: its edges sorted by
length once into lists, and each component of G_eps kept as lists of
its vertex and edge indices with its entropy, made for a lone vertex
when an edge reaches it.  Each step adds the edges of one length.  A
component that no added edge touches keeps its entropy.  Every other one
is its parts, the previous components inside it, joined by the added
edges that land in it: the step of the edge and vertex formulas
(``incremental._join``), from h_base, the largest entropy of its parts;
only a solved step gathers its edge set (``EdgeSet.take``).
"incremental" solves it on the Schur complement of the vertex matrix on
the ends of the added edges, for one edge, a loop, a merge, a new vertex
or a batch of equal-length edges alike, and keeps h_base without a solve
where the first Betti number does not grow.  "direct" solves the whole
component on its vertex matrix (``entropy._cold_root``), climbing from
h_base, a certified lower bound, and keeps h_base where the root rounds
below it.  "auto" is "incremental", except that it solves a component of
fewer than 24 vertices whole, as "direct" does, which costs less there
(``incremental._AUTO_DIRECT_BELOW``).  All strategies give the same
curve up to solver tolerance.  ``_join`` labels each component it makes;
a step is labelled "direct" when one of them was solved whole, else
"incremental-vertex" when one of their parts has no edge, else
"incremental-edge".
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass

import numpy as np

from .errors import EntrographError, PreconditionError, UnknownFormat
from .graph import MetricGraph, _require_valid
from .incremental import StepStrategy, _join


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
    return tuple(sorted(set(graph._edge_arrays.lengths.tolist())))


def filter_at(graph: MetricGraph, epsilon: float) -> MetricGraph:
    """Subgraph on all vertices keeping edges of length <= epsilon."""
    edges = tuple(e for e in graph.edge_list() if e[2] <= epsilon)
    return MetricGraph.from_edges(graph.vertices, edges)


def _step_groups(added, ends, owner):
    """The components of G_eps that the edges ``added`` at eps touch, as
    (keys of their parts, their added edges), given the tail and head of
    each edge (``ends``) and the key of the previous component of each
    vertex (``owner``)."""
    group: dict = {}  # part key -> (part keys, edges) of its group
    for e, (u, w) in zip(added, ends):
        ku, kw = owner[u], owner[w]
        a = group.setdefault(ku, ([ku], []))
        b = group.setdefault(kw, ([kw], []))
        if a is not b:
            a[0].extend(b[0])
            a[1].extend(b[1])
            group.update(dict.fromkeys(b[0], a))
        a[1].append(e)
    return list({id(g): g for g in group.values()}.values())


def persistent_entropy(graph: MetricGraph,
                       strategy: str = "direct") -> EntropyCurve:
    """Entropy curve of the edge-length filtration.

    ``strategy`` is one of "direct", "incremental", "auto" (the Schur
    step of "incremental" on components of 24 vertices or more, the
    whole solve of "direct" below; module docstring).  A package error
    (``EntrographError``) propagates with its ``threshold`` attribute
    set to the offending threshold; other exceptions propagate
    untouched.
    """
    _require_valid(graph)
    if strategy not in ("direct", "incremental", "auto"):
        raise PreconditionError(f"unknown strategy {strategy!r}")

    n, tails, heads, lengths = edge_set = graph._edge_arrays
    eps_list = thresholds(graph)
    by_length = np.argsort(lengths, kind="stable")
    cuts = np.searchsorted(lengths[by_length], eps_list, side="right").tolist()
    order = by_length.tolist()  # steps: slices of these lists
    ends = list(zip(tails[by_length].tolist(), heads[by_length].tolist()))
    # the components of G_eps by key: vertex and edge indices, entropy; a
    # vertex without an entry is its own component, keyed by its index
    comps: dict = {}
    owner = {v: v for v in range(n)}  # the key of each vertex's component
    h_eps, steps = 0.0, []

    for eps, a, b in zip(eps_list, [0] + cuts, cuts):
        t0 = time.perf_counter()
        used, iterations = StepStrategy.INCREMENTAL_EDGE, 0
        try:
            for keys, new in _step_groups(order[a:b], ends[a:b], owner):
                parts = [comps.pop(k, None) or ([k], [], 0.0) for k in keys]
                verts, edges, res, label = _join(edge_set, parts, new,
                                                 strategy)
                iterations += res.iterations
                # "direct" if a join was solved whole, else
                # "incremental-vertex" if one took in an edgeless part
                if label is not StepStrategy.INCREMENTAL_EDGE \
                        and used is not StepStrategy.DIRECT:
                    used = label
                comps[keys[0]] = (verts, edges, res.h_prime)
                owner.update(dict.fromkeys(verts, keys[0]))
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
