"""Entropy change under edge and vertex addition.

Adding an edge of length l0 between vertices x != y moves the entropy to
the unique root t* > h of

    Phi(t) = e^{l0 t} - f_xy(t) - sqrt(f_xx(t) f_yy(t)),

a strictly increasing function on the convergence domain (the defining
equation rearranged into a pole-free monotone form).  The determinant
lemma det(I_2 + Delta G_2) = 0 behind it does not ask x and y to be
non-adjacent, so Phi also covers a parallel edge.  When the edge joins
two components A and B, the base is their disjoint union with
h = max(h_A, h_B); its M(t) is block-diagonal, so f_xy = 0 and
Phi = e^{l0 t} - sqrt(f^A_xx f^B_yy).  If A or B is a tree (a pendant
edge, say) the entropy stays h exactly.  A loop at x is the rank-1 case
of the lemma: the root of e^{l0 t} - 1 - 2 f_xx(t) (reusing Phi with
x = y would give e^{l0 t} = 2 f_xx, which is wrong).  A component that
is left with at most one independent cycle has entropy 0.

A new vertex with one edge is a pendant edge, and one with two edges is
an edge of length l_1 + l_2 between its two targets.  Adding a vertex
with n >= 3 edges of lengths l_i to targets v_i moves the entropy to the
root of rho((D A)(t)) = 1, where

    D_ij = e^{-(l_i + l_j) t} (f_{v_i v_j}(t) + [v_i = v_j, i != j]),

A = ones - identity, so (D A)_ik = sum_{j != k} D_ij.  The junction
constraint j_k != i_{k+1} gives A; the bracket adds the bigon of two
parallel new edges on a repeated target.  Every f is a Cholesky solve of
the vertex matrix M(t) (``genfun._Resolvent``), and every equation is
solved by ``_rootutil.root_above`` from the base entropy upward.

The asymptotic constants of the pole f_ab(t) ~ C_ab t / (t - h) have the
closed form C_ab = v_a v_b / (h lambda'(h)), with v the unit null vector
of M(h) and lambda'(h) = v^T M'(h) v the slope of its smallest
eigenvalue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._rootutil import root_above
from .counting import (DEFAULT_CAP, EnumerationSpec, PathKind,
                       _step_integral, enumerate_paths, horizon_for_budget)
from .entropy import volume_entropy
from .errors import (DisconnectedPair, DivergentSeries, NonConvergence,
                     PreconditionError, TooFewAttachments, UnknownVertex)
from .genfun import _Resolvent
from .graph import MetricGraph, component_of, components, disjoint_union
from .spectral import spectral_radius, vertex_form, vertex_form_dt


@dataclass(frozen=True)
class EdgeAdditionResult:
    """Entropy after adding one edge, from the defining equation.

    ``residual`` is |Phi(h')| e^{-l0 h'}: the defining equation scaled by
    its dominant term, so the tolerance stays meaningful for long edges
    where Phi itself is huge.  When the root is pinched against
    h_base (h' - h_base below float resolution, as for a long edge), it is
    instead the width of the certified bracket of h' relative to
    max(h_base, 1), at most 1e-16.  ``iterations`` counts the evaluations
    of Phi.
    """

    h_prime: float
    h_base: float
    l0: float
    residual: float
    iterations: int


@dataclass(frozen=True)
class VertexAdditionResult:
    """Entropy after adding one vertex.

    ``spectral_residual`` is |rho((D A)(h')) - 1|, or, when the root is
    pinched against h_base, the width of the certified bracket of h'
    relative to max(h_base, 1), at most 1e-16.  ``iterations`` counts the
    evaluations of rho.
    """

    h_prime: float
    h_base: float
    spectral_residual: float
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


def _shared_component(graph: MetricGraph, verts: Sequence[str]) -> MetricGraph:
    for v in verts:
        if v not in graph.vertex_set:
            raise UnknownVertex(f"unknown vertex {v!r}")
    comp = component_of(graph, verts[0])
    missing = [v for v in verts if v not in comp.vertex_set]
    if missing:
        raise DisconnectedPair(
            f"vertices {missing} lie outside the component of {verts[0]!r}")
    return comp


def _resolvent(comp: MetricGraph, t: float) -> _Resolvent:
    ctx = _Resolvent(comp, t)
    if not ctx.ok:
        raise DivergentSeries(f"generating functions diverge at t={t}")
    return ctx


def entropy_after_edge(graph: MetricGraph, x: str, y: str, l0: float,
                       tol: float = 1e-10, rel_margin: float = 1e-6,
                       h_base: float | None = None) -> EdgeAdditionResult:
    """Entropy of the component of {x, y} after adding an edge [x, y].

    The base is the component of x, joined by the component of y when the
    edge merges two components; ``h_base`` defaults to its entropy, which
    for a merge is max(h_A, h_B).  The new entropy is the root above
    h_base of Phi (module docstring) for x != y, adjacent or not, and of
    e^{l0 t} - 1 - 2 f_xx(t) for a loop x = y.  On a merge M(t) is
    block-diagonal, so f_xy = 0 and Phi = e^{l0 t} - sqrt(f_xx f_yy).
    Two cases need no solve: a new component with at most one independent
    cycle has h' = 0, and a merge with a tree (a pendant edge, say) keeps
    h' = h_base; both report 0 iterations.
    """
    if l0 <= 0:
        raise PreconditionError("edge length must be positive")
    for v in (x, y):
        if v not in graph.vertex_set:
            raise UnknownVertex(f"unknown vertex {v!r}")
    parts = [c for c, _ in components(graph) if c.vertex_set & {x, y}]
    betti = [c.edge_count - len(c.vertices) + 1 for c in parts]
    # the new component's first Betti number is the sum over the parts,
    # plus one when the edge closes a cycle inside one component
    if sum(betti) + (len(parts) == 1) <= 1:
        return EdgeAdditionResult(0.0, 0.0, float(l0), 0.0, 0)
    comp = disjoint_union(parts)
    if h_base is None:
        h_base = volume_entropy(comp, tol=tol).h
    if min(betti) == 0:  # a merge with a tree
        return EdgeAdditionResult(h_base, h_base, float(l0), 0.0, 0)

    def scaled_phi(t: float) -> float:
        # e^{-l0 t} times the equation: same root, and no overflow of
        # e^{l0 t} for long edges at large t
        ctx = _resolvent(comp, t)
        if x == y:
            return -math.expm1(-l0 * t) \
                - 2.0 * math.exp(-l0 * t) * ctx.path_value(x, x)
        paths = ctx.path_value(x, y) + math.sqrt(ctx.path_value(x, x)
                                                 * ctx.path_value(y, y))
        return 1.0 - math.exp(-l0 * t) * paths

    root, f_root, evals, pinch = root_above(scaled_phi, h_base, rel_margin)
    return EdgeAdditionResult(root, h_base, float(l0),
                              abs(f_root) if pinch is None else pinch, evals)


def entropy_after_vertex(graph: MetricGraph,
                         attachments: Sequence[tuple[str, float]],
                         tol: float = 1e-10, rel_margin: float = 1e-6,
                         h_base: float | None = None) -> VertexAdditionResult:
    """Entropy after adding a new vertex with n >= 3 edges into one
    component, as the root of rho((D A)(t)) = 1 (module docstring).

    rho is strictly decreasing in t on the convergence domain, so
    ``root_above`` solves 1 - rho = 0 from h_base upward.
    """
    n = len(attachments)
    if n < 3:
        raise TooFewAttachments(f"need at least 3 attachment edges, got {n}")
    targets = [v for v, _ in attachments]
    lengths = np.array([float(l) for _, l in attachments])
    if np.any(lengths <= 0):
        raise PreconditionError("attachment lengths must be positive")
    comp = _shared_component(graph, targets)
    if h_base is None:
        h_base = volume_entropy(comp, tol=tol).h
    bigon = np.array([[1.0 if (targets[a] == targets[b] and a != b) else 0.0
                       for b in range(n)] for a in range(n)])

    def one_minus_rho(t: float) -> float:
        ctx = _resolvent(comp, t)
        fmat = np.array([[ctx.path_value(a, b) for b in targets]
                         for a in targets])
        w = np.exp(-lengths * t)
        d = np.outer(w, w) * (fmat + bigon)
        return 1.0 - spectral_radius(d.sum(axis=1)[:, None] - d).rho

    root, f_root, evals, pinch = root_above(one_minus_rho, h_base, rel_margin)
    return VertexAdditionResult(
        root, h_base, abs(f_root) if pinch is None else pinch, evals)


def predict_edge_asymptotic(h: float, c: float, l: float) -> float:
    """Leading-order prediction h + C e^{-h l} for a long added edge."""
    return h + c * math.exp(-h * l)


def fit_edge_asymptotic(graph: MetricGraph, x: str, y: str,
                        l_values: Sequence[float],
                        tol: float = 1e-10) -> AsymptoticFit:
    """Sweep edge lengths and fit the scaled corrections
    a_l = (h'(l) - h) e^{h l}; their limit is the asymptotic constant."""
    comp = _shared_component(graph, (x, y))
    h = volume_entropy(comp, tol=tol).h
    ls = sorted(float(l) for l in l_values)
    a_vals = []
    for l in ls:
        res = entropy_after_edge(graph, x, y, l, tol=tol, h_base=h)
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


def _null_vector(comp: MetricGraph, h: float) -> tuple[np.ndarray, float,
                                                      float]:
    """Unit null vector v of M(h) (``eigh``), the eigenvalue that stands in
    for 0, and the slope lambda'(h) = v^T M'(h) v of the smallest
    eigenvalue."""
    eigvals, eigvecs = np.linalg.eigh(vertex_form(comp, h).matrix())
    v = eigvecs[:, 0]
    return v, float(eigvals[0]), float(v @ vertex_form_dt(comp, h).apply(v))


def predict_vertex_asymptotic(graph: MetricGraph,
                              attachments: Sequence[tuple[str, float]],
                              tol: float = 1e-10) -> VertexPrediction:
    """Leading-order entropy after adding a vertex with long edges.

    First-order perturbation of the smallest eigenvalue of M at h gives
    h' - h = w^T (J - I) w / lambda'(h), with w_i = e^{-h l_i} v_{t_i}, v
    the unit null vector of M(h) and J the all-ones matrix.
    """
    if len(attachments) < 3:
        raise TooFewAttachments(
            f"need at least 3 attachment edges, got {len(attachments)}")
    targets = [v for v, _ in attachments]
    lengths = np.array([float(l) for _, l in attachments])
    comp = _shared_component(graph, targets)
    h = volume_entropy(comp, tol=tol).h
    if h <= 0:
        raise PreconditionError(
            "vertex-addition asymptotics require a positive base entropy")
    index = {v: i for i, v in enumerate(comp.vertices)}
    v, _, dlambda = _null_vector(comp, h)
    w = np.exp(-h * lengths) * v[[index[t] for t in targets]]
    return VertexPrediction(float(h + (w.sum() ** 2 - w @ w) / dlambda), h)


def estimate_constant_C(graph: MetricGraph, x: str, y: str,
                        method: str = "resolvent",
                        horizon: float | None = None,
                        node_budget: int = 300_000,
                        cap: int = DEFAULT_CAP,
                        tol: float = 1e-10) -> ConstantEstimate:
    """Per-pair constants C_xx, C_yy, C_xy of the simple-pole behavior
    f(t) ~ C t / (t - h), combined into C = (sqrt(C_xx C_yy) + C_xy) h.

    method "resolvent": the closed form C_ab = v_a v_b / (h lambda'(h)),
    with v the unit null vector of M(h) and lambda'(h) = v^T M'(h) v
    (``spectral.vertex_form_dt``); ``details`` records the eigenvalue of
    M(h) that stands in for 0 (``null_eigenvalue``) and ``dlambda``.
    method "counting": average N(r) e^{-hr} over the enumerated tail.
    method "both" runs the two and warns when they disagree by more than
    20% (a hint that the length spectrum may not be Diophantine, e.g. all
    lengths equal).
    """
    if method not in ("resolvent", "counting", "both"):
        raise ValueError(f"unknown method {method!r}")
    comp = _shared_component(graph, (x,))
    h = volume_entropy(comp, tol=tol).h
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
        index = {v: i for i, v in enumerate(comp.vertices)}
        v, null_eigenvalue, dlambda = _null_vector(comp, h)
        details.update(null_eigenvalue=null_eigenvalue, dlambda=dlambda)
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
