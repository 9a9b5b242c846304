"""Entropy change when edges, or a vertex with its edges, are added.

Add k edges to a graph G_0, the disjoint union of the components they
touch; a new vertex is an isolated vertex of G_0.  Let S be the ends of
the new edges and R the other vertices.  The vertex matrix M_G(t) of the
new graph differs from M_0(t), that of G_0, on S x S alone, so its block
on R is M_0's, positive definite above the entropy h_base of G_0.  By
Haynsworth's inertia theorem (Linear Algebra Appl. 1 (1968) 73-81) M_G(t)
is then positive definite exactly when the |S| x |S| Schur complement

    K(t) = M_G/R = (I + F(t))^{-1} + Delta_S(t)

is, with F the block among S of the path generating functions f_ab of
G_0 (M_0/R = (I + F)^{-1}, ``genfun``) and Delta_S the terms of the new
edges.  So the new entropy h' is the largest root of lambda_min(K(t)) =
0, found by the package's one Newton solver (``entropy._schur_root``,
which forms K from M_G(t), not by inverting I + F).  The root is that of
the paper's rho(T(t)) = 1, T the first-return matrix over the 2k new
darts,

    T(t)[d, d'] = e^{-l(d') t} (f_{head d, tail d'}(t)
                                + [head d = tail d' and d' != rev d]),

the Schur complement of the new graph's dart matrix B(t) on the new
darts.  The paper's formulas are its small cases:

- an edge of length l0 between x != y, adjacent or not:
  rho(T) = e^{-l0 t} (f_xy + sqrt(f_xx f_yy)), which is
  Phi(t) = e^{l0 t} - f_xy(t) - sqrt(f_xx(t) f_yy(t)) scaled by
  e^{-l0 t}; f_xy = 0 on a merge of two components;
- a loop of length l0 at x: rho(T) = e^{-l0 t} (1 + 2 f_xx);
- a new vertex with edges of lengths l_i to v_i: T links only inward to
  outward darts and back, so rho(T)^2 = rho(D A) with D_ij =
  e^{-(l_i + l_j) t} (f_{v_i v_j} + [v_i = v_j, i != j]) and
  A = ones - identity.

One join (``_join``) serves both edits and the persistence walk: the
parts' vertex and edge indices in the full graph's edge set, after which
an edit numbers its edges (a new vertex is index n), then the new edges,
gathered once as an ``EdgeSet`` (an edit's are ``added`` there).  Let b
be its first Betti number.  If b <= 1 its entropy is 0.  Else h_base is
the largest entropy of the parts, which an edit reads from the root that
the graph caches for each component (``entropy._vertex_root``), 0 for a
new vertex.  If b equals the largest Betti number among the parts, the
new edges join that part to trees along a tree (a pendant edge, say) and
the entropy stays h_base exactly.  The join gives the one ``EditResult``
both edits return; they always take the Schur step, which "auto"
persistence trades for a whole solve on small components (``_join``).

The asymptotic constants of the pole f_ab(t) ~ C_ab t / (t - h) have the
closed form C_ab = v_a v_b / (h lambda'(h)), with v the unit null vector
of M(h) and lambda'(h) = v^T M'(h) v the slope of its smallest
eigenvalue; h, v and lambda'(h) come from that cached root of the
component, which ``graph.component_of`` builds alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .counting import (EnumerationSpec, PathKind, _step_integral,
                       enumerate_paths, horizon_for_budget)
from .entropy import _cold_root, _schur_root, _vertex_root
from .errors import (DisconnectedPair, NonConvergence, PreconditionError,
                     TooFewAttachments)
from .graph import (EdgeSet, MetricGraph, _check_length, _component,
                    _require_valid, component_of)

_NODE_BUDGET = 300_000  # paths of each counting estimate by default

# "auto" solves a join of fewer vertices whole.  Per solved step of the
# incremental curves of gen(1,8,16) to gen(1,100,200), both ways from the
# same h_base (min of 7, process time, one BLAS thread on a shared 2-core
# x86-64 host), the Schur step cost this many times the whole solve, by
# vertex count: 1.34 (< 8), 1.37 (8-11), 1.12 (12-15), 1.20 (16-19),
# 1.07 (20-23), 0.95 (24-27), 0.99 (28-31), 0.78 (32-47), 0.67 (48-63),
# 0.53 (64-100).
_AUTO_DIRECT_BELOW = 24


class StepStrategy(Enum):
    """How a persistence step was taken (``_join``)."""

    DIRECT = "direct"
    INCREMENTAL_EDGE = "incremental-edge"
    INCREMENTAL_VERTEX = "incremental-vertex"


@dataclass(frozen=True)
class EditResult:
    """Entropy after adding an edge, or a vertex with its edges.

    ``residual`` is |lambda_min(K(h'))| (module docstring), meaningful
    also for a long edge, whose h' - h_base lies below float resolution,
    but not small where h' sits on a pole of K (``entropy._schur_root``).
    ``iterations`` counts the evaluations of lambda_min(K), each one
    Cholesky factorization.
    """

    h_prime: float
    h_base: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class AsymptoticFit:
    """Measured long-edge behavior of (h'(l) - h) e^{h l}."""

    c: float
    gamma: float
    samples: tuple[tuple[float, float, float], ...]  # (l, observed, predicted)


@dataclass(frozen=True)
class ConstantEstimate:
    per_pair: dict[str, float]
    combined: float
    method: str
    warnings: tuple[str, ...]
    details: dict


@dataclass(frozen=True)
class VertexPrediction:
    h_predicted: float
    h_base: float


def _one_component(graph: MetricGraph, verts: Sequence[str]) -> None:
    """Raise UnknownVertex or DisconnectedPair unless ``verts`` are
    vertices of one component."""
    labels = graph._split[0][[graph._position(v) for v in verts]]
    missing = [v for v, k in zip(verts, labels) if k != labels[0]]
    if missing:
        raise DisconnectedPair(
            f"vertices {missing} lie outside the component of {verts[0]!r}")


def _attachment_lengths(attachments) -> list[float]:
    if len(attachments) < 3:
        raise TooFewAttachments(
            f"need at least 3 attachment edges, got {len(attachments)}")
    return [_check_length(l, f"attachment edge to {v!r}")
            for v, l in attachments]


def _join(full: EdgeSet, parts, new, strategy: str = "incremental",
          added=None) -> tuple[list, list, EditResult, StepStrategy]:
    """The component of ``full`` made of ``parts``, each (vertex indices,
    edge indices, entropy), and the edges ``new`` (module docstring):
    (vertex indices, edge indices, its ``EditResult``, its label), indices
    in lists.  A solve gathers its edge set (``EdgeSet.take``; an edit's
    edges are ``added`` to ``full`` there).  "incremental" takes the
    Schur step (``_schur_root`` on the ends of ``new``), labelled
    "incremental-vertex" when a part has no edge, else
    "incremental-edge".  "direct" solves every join of Betti number 2 or
    more whole (``entropy._cold_root``), up from h_base, a certified
    lower bound, labelled "direct".  "auto" is "incremental", except that
    it solves a join of fewer than ``_AUTO_DIRECT_BELOW`` vertices whole,
    labelled "direct".  Either root is kept at least h_base, where it
    rounds below.
    """
    verts = [v for p in parts for v in p[0]]
    edges = [e for p in parts for e in p[1]] + new
    betti = len(edges) - len(verts) + 1
    label = StepStrategy.DIRECT if strategy == "direct" else \
        StepStrategy.INCREMENTAL_EDGE if all(p[1] for p in parts) else \
        StepStrategy.INCREMENTAL_VERTEX
    if betti <= 1:
        return verts, edges, EditResult(0.0, 0.0, 0.0, 0), label
    h_base = max(h for _, _, h in parts)
    if strategy != "direct" and \
            betti == max(len(e) - len(v) + 1 for v, e, _ in parts):
        return verts, edges, EditResult(h_base, h_base, 0.0, 0), label
    if strategy == "auto" and len(verts) < _AUTO_DIRECT_BELOW:
        label = StepStrategy.DIRECT
    comp = full.take(np.array(verts), np.array(edges), added)
    root = _cold_root(comp, lo=h_base) if label is StepStrategy.DIRECT \
        else _schur_root(comp, comp.ends[:, -len(new):], h_base)
    return verts, edges, EditResult(max(h_base, root.h), h_base,
                                    abs(root.null_eigenvalue),
                                    root.evals), label


def _edit(graph: MetricGraph, tails: list[int], heads: list[int],
          lengths: list[float]) -> EditResult:
    """The ``EditResult`` of adding the edges tails[i]-heads[i] of
    lengths[i] to ``graph``, tail n a new vertex (module docstring)."""
    n, _, _, l = old = graph._edge_arrays
    labels, split = graph._split
    ends = np.array(tails + heads)
    keys = sorted(set(labels[ends[ends < n]].tolist()))
    parts = [(*(a.tolist() for a in split[k]),
              _vertex_root(_component(graph, k)).h) for k in keys]
    if n in tails:
        parts.append(([n], [], 0.0))
    return _join(old, parts, list(range(l.size, l.size + len(tails))),
                 added=([tails, heads], lengths))[2]


def entropy_after_edge(graph: MetricGraph, x: str, y: str,
                       l0: float) -> EditResult:
    """Entropy of the component of {x, y} after adding an edge [x, y].

    The base is the component of x, joined by the component of y when the
    edge merges two components; h_base is its entropy, which for a merge
    is max(h_A, h_B) (module docstring).  x = y adds a loop.  A new
    component with at most one independent cycle has h' = 0, and a merge
    with a tree (a pendant edge, say) keeps h' = h_base; both report 0
    iterations (module docstring).
    """
    _require_valid(graph)
    l0 = _check_length(l0, f"edge [{x}, {y}]")
    return _edit(graph, [graph._position(x)], [graph._position(y)], [l0])


def entropy_after_vertex(graph: MetricGraph,
                         attachments: Sequence[tuple[str, float]]
                         ) -> EditResult:
    """Entropy after adding a new vertex with n >= 3 edges into one
    component, the root of lambda_min(K(t)) = 0 on the new vertex and its
    targets, where rho((D A)(t)) = 1 (module docstring); h_base is the
    entropy of that component."""
    _require_valid(graph)
    lengths = _attachment_lengths(attachments)
    targets = [v for v, _ in attachments]
    _one_component(graph, targets)
    return _edit(graph, [len(graph.vertices)] * len(targets),
                 [graph._index[v] for v in targets], lengths)


def predict_edge_asymptotic(h: float, c: float, l: float) -> float:
    """Leading-order prediction h + C e^{-h l} for a long added edge."""
    return h + c * math.exp(-h * l)


def fit_edge_asymptotic(graph: MetricGraph, x: str, y: str,
                        l_values: Sequence[float]) -> AsymptoticFit:
    """Sweep edge lengths and fit the scaled corrections
    a_l = (h'(l) - h) e^{h l}; their limit is the asymptotic constant.
    h is the cached root of the component, every edit's h_base."""
    _require_valid(graph)
    _one_component(graph, (x, y))
    ls = sorted(_check_length(l, f"edge [{x}, {y}]") for l in l_values)
    if not ls:
        raise PreconditionError("the sweep needs at least one edge length")
    h = _vertex_root(component_of(graph, x)).h
    a_vals = [(entropy_after_edge(graph, x, y, l).h_prime - h)
              * math.exp(h * l) for l in ls]
    c = a_vals[-1]
    gamma = 0.5
    if len(a_vals) >= 3:
        d1 = abs(a_vals[-2] - a_vals[-3])
        d2 = abs(a_vals[-1] - a_vals[-2])
        dl = ls[-1] - ls[-2]
        if d1 > 0 and d2 > 0 and dl > 0 and h > 0:
            gamma = min(max(math.log(d1 / d2) / (h * dl), 0.01), 0.99)
    samples = tuple((l, a / math.exp(h * l), c * math.exp(-h * l))
                    for l, a in zip(ls, a_vals))
    return AsymptoticFit(c, gamma, samples)


def predict_vertex_asymptotic(graph: MetricGraph,
                              attachments: Sequence[tuple[str, float]]
                              ) -> VertexPrediction:
    """Leading-order entropy after adding a vertex with long edges.

    First-order perturbation of the smallest eigenvalue of M at h gives
    h' - h = w^T (J - I) w / lambda'(h), with w_i = e^{-h l_i} v_{t_i}, v
    the unit null vector of M(h) and J the all-ones matrix.
    """
    _require_valid(graph)
    lengths = np.array(_attachment_lengths(attachments))
    targets = [v for v, _ in attachments]
    _one_component(graph, targets)
    comp = component_of(graph, targets[0])
    root = _vertex_root(comp)
    h = root.h
    if h <= 0:
        raise PreconditionError(
            "vertex-addition asymptotics require a positive base entropy")
    w = np.exp(-h * lengths) * root.v[[comp._index[t] for t in targets]]
    return VertexPrediction(float(h + (w.sum() ** 2 - w @ w) / root.dlambda),
                            h)


def estimate_constant_C(graph: MetricGraph, x: str, y: str,
                        method: str = "resolvent",
                        horizon: float | None = None) -> ConstantEstimate:
    """Per-pair constants C_xx, C_yy, C_xy of the simple-pole behavior
    f(t) ~ C t / (t - h), combined into C = (sqrt(C_xx C_yy) + C_xy) h.

    method "resolvent": the closed form C_ab = v_a v_b / (h lambda'(h)),
    with v the unit null vector of M(h) and lambda'(h) = v^T M'(h) v
    (``spectral._vertex_terms``), all from the vertex-matrix solve that
    gives h (module docstring); ``details`` records the eigenvalue of
    M(h) that stands in for 0 (``null_eigenvalue``) and ``dlambda``.
    method "counting": average N(r) e^{-hr} over the enumerated tail, up
    to ``horizon`` or else to about ``_NODE_BUDGET`` paths.
    method "both" runs the two and warns when they disagree by more than
    20% (a hint that the length spectrum may not be Diophantine, e.g. all
    lengths equal).
    """
    _require_valid(graph)
    if method not in ("resolvent", "counting", "both"):
        raise PreconditionError(f"unknown method {method!r}")
    graph._position(y)  # an unknown y is an error, not a disconnected one
    comp = component_of(graph, x)
    root = _vertex_root(comp)
    h = root.h
    if h <= 0:
        raise PreconditionError(
            "constant estimation requires a component with positive entropy")
    warnings: list[str] = []
    pairs = {"xx": (x, x), "yy": (y, y), "xy": (x, y)}
    disconnected = y not in comp.vertex_set
    if disconnected:
        warnings.append(f"{y!r} is not connected to {x!r}: C_xy = 0")
    live = {name: ab for name, ab in pairs.items()
            if not (disconnected and "y" in name)}
    per_res = dict.fromkeys(pairs, 0.0)
    per_cnt = dict.fromkeys(pairs, 0.0)
    details: dict = {}
    if method in ("resolvent", "both"):
        index, v, dlambda = comp._index, root.v, root.dlambda
        details.update(null_eigenvalue=root.null_eigenvalue, dlambda=dlambda)
        for name, (a, b) in live.items():
            per_res[name] = float(v[index[a]] * v[index[b]]) / (h * dlambda)
    if method in ("counting", "both"):
        for name, (a, b) in live.items():
            r_max = horizon if horizon is not None else \
                horizon_for_budget(comp, a, _NODE_BUDGET)
            profile = enumerate_paths(comp, EnumerationSpec(
                PathKind.PATHS_XY, r_max, x=a, y=b))
            if profile.lengths.size < 8:
                raise NonConvergence("too few enumerated paths for a fit")
            # average of N(r) e^{-hr} over [R/2, R]
            per_cnt[name] = _step_integral(profile, h, 0.5 * r_max) \
                / (0.5 * h * r_max)
            details[f"horizon_{name}"] = profile.r_max

    per = per_res if method in ("resolvent", "both") else per_cnt
    combined, comb_cnt = ((math.sqrt(max(c["xx"], 0.0) * max(c["yy"], 0.0))
                           + c["xy"]) * h for c in (per, per_cnt))
    if method == "both":
        details["combined_counting"] = comb_cnt
        if combined > 0 and abs(comb_cnt - combined) > 0.2 * abs(combined):
            warnings.append(
                f"resolvent and counting estimates disagree by more than "
                f"20% ({combined:.4g} vs {comb_cnt:.4g}); the length "
                f"spectrum may not be Diophantine")
    return ConstantEstimate(per, combined, method, tuple(warnings), details)
