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
parts' vertex and edge indices in the full graph's edge set, to which an
edit appends its edges (a new vertex is index n), then the new edges,
gathered once as an ``EdgeSet``.  Let b be its first Betti number.  If b
<= 1 its entropy is 0.  Else h_base is the largest entropy of the parts;
one not given is solved cold (``entropy._cold_root``) if the part's own
b is 2 or more, else 0.  If b equals the largest Betti number among the
parts, the new edges join that part to trees along a tree (a pendant
edge, say) and the entropy stays h_base exactly.  Both edits return one
``EditResult``.

The asymptotic constants of the pole f_ab(t) ~ C_ab t / (t - h) have the
closed form C_ab = v_a v_b / (h lambda'(h)), with v the unit null vector
of M(h) and lambda'(h) = v^T M'(h) v the slope of its smallest
eigenvalue; h, v and lambda'(h) come from one vertex-matrix solve of
the component, which ``graph.component_of`` builds alone.  The long-edge
fit reads h off its first edit's h_base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .counting import (DEFAULT_CAP, EnumerationSpec, PathKind,
                       _step_integral, enumerate_paths, horizon_for_budget)
from .entropy import _cold_root, _schur_root, _vertex_root
from .errors import (DisconnectedPair, NonConvergence, NonPositiveLength,
                     PreconditionError, TooFewAttachments)
from .graph import EdgeSet, MetricGraph, component_of


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


def _check_length(length: float, edge: str) -> float:
    """``length`` as a float, else PreconditionError or NonPositiveLength."""
    length = float(length)
    if not (length > 0.0 and math.isfinite(length)):
        raise (PreconditionError if length <= 0.0 else NonPositiveLength)(
            f"{edge} has length {length!r}; it must be positive and finite")
    return length


def _attachment_lengths(attachments) -> list[float]:
    if len(attachments) < 3:
        raise TooFewAttachments(
            f"need at least 3 attachment edges, got {len(attachments)}")
    return [_check_length(l, f"attachment edge to {v!r}")
            for v, l in attachments]


def _join(full: EdgeSet, names: Sequence[str], parts, new,
          direct: bool = False):
    """The component of ``full`` made of ``parts``, each (vertex indices,
    edge indices, entropy or None), and the edges ``new`` (module
    docstring): (vertex indices, edge indices, h', h_base, residual,
    evaluations), the residual as in ``EditResult``.  ``direct``
    solves it whole instead (``entropy._cold_root``), up from h_base, a
    certified lower bound, and keeps h_base where the root rounds below
    it.  ``names`` as in ``EdgeSet.take``.
    """
    verts = np.concatenate([p[0] for p in parts])
    edges = np.concatenate([p[1] for p in parts] + [new])
    betti = edges.size - verts.size + 1
    if betti <= 1:
        return verts, edges, 0.0, 0.0, 0.0, 0
    h_base = max(h if h is not None
                 else _cold_root(full.take(v, e, names)).h if e.size > v.size
                 else 0.0 for v, e, h in parts)
    if not direct and betti == max(e.size - v.size + 1 for v, e, _ in parts):
        return verts, edges, h_base, h_base, 0.0, 0
    comp = full.take(verts, edges, names)
    if direct:
        root = _cold_root(comp, lo=h_base)
        return (verts, edges, max(h_base, root.h), h_base,
                abs(root.null_eigenvalue), root.evals)
    ends = np.concatenate((comp.tails[-len(new):], comp.heads[-len(new):]))
    h_prime, residual, evals = _schur_root(comp, ends, h_base)
    return verts, edges, h_prime, h_base, residual, evals


def _edit(graph: MetricGraph, tails: list[int], heads: list[int],
          lengths: list[float], h_base: float | None):
    """(h', h_base, residual, evaluations) after adding the edges
    tails[i]-heads[i] of lengths[i] to ``graph``, tail n a new vertex: the
    join of the components they touch, of entropy ``h_base`` if given."""
    n, u, w, l = old = graph._edge_arrays
    labels, split = graph._split
    ends = np.array(tails + heads)
    keys = sorted(set(labels[ends[ends < n]].tolist()))
    parts = [split[k] + (h_base,) for k in keys]
    if n in tails:
        parts.append((np.array([n]), np.empty(0, dtype=np.intp), h_base))
    full = EdgeSet(n + (n in tails), np.append(u, tails), np.append(w, heads),
                   np.append(l, lengths), old.name)
    return _join(full, graph.vertices, parts,
                 np.arange(u.size, full.tails.size))[2:]


def entropy_after_edge(graph: MetricGraph, x: str, y: str, l0: float,
                       h_base: float | None = None) -> EditResult:
    """Entropy of the component of {x, y} after adding an edge [x, y].

    The base is the component of x, joined by the component of y when the
    edge merges two components; ``h_base`` is its entropy, which for a
    merge is max(h_A, h_B), solved on the vertex matrix when None
    (module docstring).  x = y adds a loop.  A new component
    with at most one independent cycle has h' = 0, and a merge with a
    tree (a pendant edge, say) keeps h' = h_base; both report 0
    iterations (module docstring).
    """
    l0 = _check_length(l0, f"edge [{x}, {y}]")
    return EditResult(*_edit(graph, [graph._position(x)],
                             [graph._position(y)], [l0], h_base))


def entropy_after_vertex(graph: MetricGraph,
                         attachments: Sequence[tuple[str, float]],
                         h_base: float | None = None) -> EditResult:
    """Entropy after adding a new vertex with n >= 3 edges into one
    component, the root of lambda_min(K(t)) = 0 on the new vertex and its
    targets, where rho((D A)(t)) = 1 (module docstring).  ``h_base`` is
    the entropy of that component, solved on the vertex matrix when
    None."""
    lengths = _attachment_lengths(attachments)
    targets = [v for v, _ in attachments]
    _one_component(graph, targets)
    return EditResult(*_edit(
        graph, [len(graph.vertices)] * len(targets),
        [graph._index[v] for v in targets], lengths, h_base))


def predict_edge_asymptotic(h: float, c: float, l: float) -> float:
    """Leading-order prediction h + C e^{-h l} for a long added edge."""
    return h + c * math.exp(-h * l)


def fit_edge_asymptotic(graph: MetricGraph, x: str, y: str,
                        l_values: Sequence[float]) -> AsymptoticFit:
    """Sweep edge lengths and fit the scaled corrections
    a_l = (h'(l) - h) e^{h l}; their limit is the asymptotic constant.
    h is the h_base of the first edit, which the later ones reuse."""
    _one_component(graph, (x, y))
    ls = sorted(float(l) for l in l_values)
    h, a_vals = None, []
    for l in ls:
        res = entropy_after_edge(graph, x, y, l, h_base=h)
        h = res.h_base
        a_vals.append((res.h_prime - h) * math.exp(h * l))
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
                        horizon: float | None = None,
                        node_budget: int = 300_000,
                        cap: int = DEFAULT_CAP) -> ConstantEstimate:
    """Per-pair constants C_xx, C_yy, C_xy of the simple-pole behavior
    f(t) ~ C t / (t - h), combined into C = (sqrt(C_xx C_yy) + C_xy) h.

    method "resolvent": the closed form C_ab = v_a v_b / (h lambda'(h)),
    with v the unit null vector of M(h) and lambda'(h) = v^T M'(h) v
    (``spectral.vertex_form_dt``), all from the vertex-matrix solve that
    gives h (module docstring); ``details`` records the eigenvalue of
    M(h) that stands in for 0 (``null_eigenvalue``) and ``dlambda``.
    method "counting": average N(r) e^{-hr} over the enumerated tail.
    method "both" runs the two and warns when they disagree by more than
    20% (a hint that the length spectrum may not be Diophantine, e.g. all
    lengths equal).
    """
    if method not in ("resolvent", "counting", "both"):
        raise ValueError(f"unknown method {method!r}")
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
                horizon_for_budget(comp, a, node_budget)
            profile = enumerate_paths(comp, EnumerationSpec(
                PathKind.PATHS_XY, r_max, x=a, y=b, cap=cap))
            if profile.lengths.size < 8:
                raise NonConvergence("too few enumerated paths for a fit")
            # average of N(r) e^{-hr} over [R/2, R]
            per_cnt[name] = _step_integral(profile, h, 0.5 * r_max) \
                / (0.5 * h * r_max)
            details[f"horizon_{name}"] = profile.r_max

    per = per_res if method in ("resolvent", "both") else per_cnt
    combined = (math.sqrt(max(per["xx"], 0.0) * max(per["yy"], 0.0))
                + per["xy"]) * h
    if method == "both":
        comb_cnt = (math.sqrt(max(per_cnt["xx"], 0.0)
                              * max(per_cnt["yy"], 0.0))
                    + per_cnt["xy"]) * h
        details["combined_counting"] = comb_cnt
        if combined > 0 and abs(comb_cnt - combined) > 0.2 * abs(combined):
            warnings.append(
                f"resolvent and counting estimates disagree by more than "
                f"20% ({combined:.4g} vs {comb_cnt:.4g}); the length "
                f"spectrum may not be Diophantine")
    return ConstantEstimate(per, combined, method, tuple(warnings), details)
