"""Entropy change under edge and vertex addition.

Adding an edge of length l0 between non-adjacent vertices x, y moves the
entropy to the unique root t* > h of

    Phi(t) = e^{l0 t} - f_xy(t) - sqrt(f_xx(t) f_yy(t)),

a strictly increasing function on the convergence domain (the defining
equation rearranged into a pole-free monotone form).  Adding a vertex
with n >= 3 edges moves the entropy to the root
of rho(F(t)) = 1 for an n x n matrix built from path generating
functions between the attachment targets.  Two candidate operators are
implemented side by side, differing in whether cycles that leave and
return through the same new edge (e_i q e_i-bar, q nonempty) are
admitted, and both are compared against the direct solver:

* OFF_DIAGONAL : F_ij = (1 - delta_ij) e^{-l_i t} f_{v_i v_j}(t) e^{-l_j t},
                 which excludes the diagonal primitive cycles;
* TRANSFER_DA  : (D A)_ik = sum_{j != k} D_ij with
                 D_ij = e^{-(l_i + l_j) t} (f_{v_i v_j}(t) + [v_i = v_j, i != j]),
                 A = ones - identity, derived from the junction
                 constraint j_k != i_{k+1} (and including the bigon term
                 for repeated attachment targets).

Neither variant is silently preferred: results carry their variant and
the cross-checks arbitrate numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from ._rootutil import bracketed_root
from .counting import (DEFAULT_CAP, EnumerationSpec, PathKind,
                       enumerate_paths, horizon_for_budget)
from .entropy import volume_entropy
from .errors import (AdjacentVertices, DisconnectedPair, DivergentSeries,
                     NonConvergence, PreconditionError, TooFewAttachments,
                     UnknownVertex)
from .genfun import _Resolvent
from .graph import MetricGraph, components
from .spectral import spectral_radius


class VertexVariant(Enum):
    OFF_DIAGONAL = "off-diagonal"
    TRANSFER_DA = "transfer-da"


@dataclass(frozen=True)
class EdgeAdditionResult:
    """Entropy after adding one edge, from the defining equation.

    ``residual`` is |Phi(h')| / max(1, e^{l0 h'}): the defining equation
    scaled by its dominant term, so the tolerance stays meaningful for
    long edges where Phi itself is huge.
    """

    h_prime: float
    h_base: float
    l0: float
    residual: float
    iterations: int
    c_estimate: float | None = None


@dataclass(frozen=True)
class VertexAdditionResult:
    h_prime: float
    h_base: float
    variant: VertexVariant
    spectral_residual: float
    l_norm: float
    m_norm: float
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
    l_norm: float
    c_estimate: float
    samples: tuple[tuple[float, float, float], ...]  # (scale, h'-h, ratio)


@dataclass(frozen=True)
class FactorizationReport:
    """Diagnostic for the factorization claim ||F|| = ||L|| * ||M||
    over the entrywise split F = L o M; nothing in the package assumes
    it."""

    t: float
    rho_f: float
    rho_l: float
    rho_m: float
    product: float
    discrepancy: float
    ratio: float


def _shared_component(graph: MetricGraph, verts: Sequence[str]) -> MetricGraph:
    for v in verts:
        if v not in graph.vertex_set:
            raise UnknownVertex(f"unknown vertex {v!r}")
    for comp, _ in components(graph):
        if verts[0] in comp.vertex_set:
            missing = [v for v in verts if v not in comp.vertex_set]
            if missing:
                raise DisconnectedPair(
                    f"vertices {missing} lie outside the component of "
                    f"{verts[0]!r}")
            return comp
    raise UnknownVertex(f"unknown vertex {verts[0]!r}")


def entropy_after_edge(graph: MetricGraph, x: str, y: str, l0: float,
                       tol: float = 1e-10, rel_margin: float = 1e-6,
                       h_base: float | None = None) -> EdgeAdditionResult:
    """Entropy of the component of {x, y} after adding an edge [x, y].

    Requires x != y, non-adjacent (the defining equation assumes the new
    edge is not parallel to an existing one) and co-located in one
    component.  A tree component (first Betti number 0) gives h' = 0
    exactly, the rule volume_entropy applies to a single cycle.  Otherwise
    the root is bracketed from h_base upward: the lower end starts at a
    relative offset and grows on divergence, shrinks while Phi is
    already positive; then bisection and secant polish.
    """
    if x == y:
        raise AdjacentVertices("x and y must be distinct vertices")
    if l0 <= 0:
        raise PreconditionError("edge length must be positive")
    comp = _shared_component(graph, (x, y))
    if any(d.head == y for d in comp.darts if d.tail == x):
        raise AdjacentVertices(f"{x!r} and {y!r} are already adjacent")
    if comp.edge_count - len(comp.vertices) + 1 == 0:
        # A tree plus one edge has a single cycle: entropy 0 exactly, and
        # Phi(0) = 1 - f_xy(0) - 0 = 0 with the unique tree path x..y.
        return EdgeAdditionResult(0.0, 0.0, float(l0), 0.0, 0)
    if h_base is None:
        h_base = volume_entropy(comp, tol=tol).h
    evals = 0

    def phi(t: float) -> float:
        nonlocal evals
        evals += 1
        ctx = _Resolvent(comp, t)
        if not ctx.ok:
            raise DivergentSeries(f"generating functions diverge at t={t}")
        fxy = ctx.path_value(x, y)
        fxx = ctx.path_value(x, x)
        fyy = ctx.path_value(y, y)
        return math.exp(l0 * t) - fxy - math.sqrt(fxx * fyy)

    # Lower bracket: smallest converged t above h_base with Phi < 0.
    off = rel_margin * max(h_base, 1.0)
    floor = 1e-16 * max(h_base, 1.0)
    t_lo = p_lo = None
    for _ in range(240):
        t_try = h_base + off
        try:
            p_try = phi(t_try)
        except DivergentSeries:
            off *= 2.0
            continue
        if p_try < 0.0:
            t_lo, p_lo = t_try, p_try
            break
        if off <= floor:
            # Root pinched against h_base: t_try already satisfies the
            # equation to within the float resolution of the bracket.
            resid = abs(p_try) / max(1.0, math.exp(l0 * t_try))
            return EdgeAdditionResult(t_try, h_base, float(l0), resid, evals)
        off /= 8.0
    if t_lo is None:
        raise NonConvergence(
            "failed to bracket the edge-addition equation above h_base")

    gap = max(4.0 * (t_lo - h_base), 0.25)
    t_hi = p_hi = None
    for _ in range(200):
        t_hi = h_base + gap
        p_hi = phi(t_hi)
        if p_hi > 0.0:
            break
        gap *= 2.0
    else:  # pragma: no cover
        raise NonConvergence("failed to bracket the root from above")

    root, f_root, evals_root = bracketed_root(phi, t_lo, t_hi, p_lo, p_hi)
    evals += evals_root
    resid = abs(f_root) / max(1.0, math.exp(l0 * root))
    return EdgeAdditionResult(root, h_base, float(l0), resid, evals)


def _f_matrix(ctx: _Resolvent, targets: Sequence[str]) -> np.ndarray:
    n = len(targets)
    out = np.zeros((n, n))
    for a in range(n):
        for b in range(n):
            out[a, b] = ctx.path_value(targets[a], targets[b])
    return out


def _variant_matrix(fmat: np.ndarray, lengths: np.ndarray, t: float,
                    variant: VertexVariant,
                    bigon: np.ndarray) -> np.ndarray:
    w = np.exp(-lengths * t)
    if variant is VertexVariant.OFF_DIAGONAL:
        f = np.outer(w, w) * fmat
        np.fill_diagonal(f, 0.0)
        return f
    d = np.outer(w, w) * (fmat + bigon)
    n = len(lengths)
    return d @ (np.ones((n, n)) - np.eye(n))


def _l_matrix(lengths: np.ndarray, t: float) -> np.ndarray:
    w = np.exp(-lengths * t)
    l = np.outer(w, w)
    np.fill_diagonal(l, 0.0)
    return l


def entropy_after_vertex(graph: MetricGraph,
                         attachments: Sequence[tuple[str, float]],
                         variant: VertexVariant = VertexVariant.TRANSFER_DA,
                         tol: float = 1e-10, rel_margin: float = 1e-6,
                         h_base: float | None = None) -> VertexAdditionResult:
    """Entropy after adding a new vertex with n >= 3 edges into one
    component, as the root of rho(F(t)) = 1 for the chosen variant.

    rho is strictly decreasing in t on the convergence domain, so the
    root is found by bracketed bisection with secant polish.  The report
    carries rho(L) and rho(M) at the root for the factorization
    diagnostic.
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
    evals = 0

    def rho_minus_one(t: float) -> float:
        nonlocal evals
        evals += 1
        ctx = _Resolvent(comp, t)
        if not ctx.ok:
            raise DivergentSeries(f"generating functions diverge at t={t}")
        mat = _variant_matrix(_f_matrix(ctx, targets), lengths, t, variant,
                              bigon)
        return spectral_radius(mat).rho - 1.0

    off = rel_margin * max(h_base, 1.0)
    t_lo = f_lo = None
    for _ in range(240):
        t_try = h_base + off
        try:
            f_try = rho_minus_one(t_try)
        except DivergentSeries:
            off *= 2.0
            continue
        if f_try > 0.0:
            t_lo, f_lo = t_try, f_try
            break
        off /= 8.0
        if off <= 1e-16 * max(h_base, 1.0):
            t_lo, f_lo = t_try, f_try
            break
    if t_lo is None:
        raise NonConvergence("failed to bracket rho(F(t)) = 1 from below")
    if f_lo <= 0.0:
        # Root pinched against h_base.
        h_prime, resid = t_lo, abs(f_lo)
    else:
        gap = max(4.0 * (t_lo - h_base), 0.25)
        for _ in range(200):
            t_hi = h_base + gap
            f_hi = rho_minus_one(t_hi)
            if f_hi < 0.0:
                break
            gap *= 2.0
        else:  # pragma: no cover
            raise NonConvergence("failed to bracket rho(F(t)) = 1 from above")
        h_prime, f_root, evals_root = bracketed_root(
            rho_minus_one, t_lo, t_hi, f_lo, f_hi)
        evals += evals_root
        resid = abs(f_root)

    ctx = _Resolvent(comp, h_prime)
    fmat = _f_matrix(ctx, targets)
    l_norm = spectral_radius(_l_matrix(lengths, h_prime)).rho
    m_norm = spectral_radius(fmat).rho
    return VertexAdditionResult(h_prime, h_base, variant, resid, l_norm,
                                m_norm, evals)


def check_factorization(graph: MetricGraph, attachments: Sequence[tuple[str, float]],
               t: float) -> FactorizationReport:
    """Evaluate both sides of the candidate identity
    ||F(t)|| = ||L(t)|| * ||M(t)|| and report their discrepancy.

    Purely diagnostic: the right side multiplies spectral radii over an
    entrywise (Hadamard) split of F, which does not hold in general
    (the fully symmetric case already comes out a factor n apart).
    """
    targets = [v for v, _ in attachments]
    lengths = np.array([float(l) for _, l in attachments])
    comp = _shared_component(graph, targets)
    ctx = _Resolvent(comp, t)
    if not ctx.ok:
        raise DivergentSeries(f"generating functions diverge at t={t}")
    fmat = _f_matrix(ctx, targets)
    n = len(targets)
    rho_f = spectral_radius(_variant_matrix(
        fmat, lengths, t, VertexVariant.OFF_DIAGONAL, np.zeros((n, n)))).rho
    rho_l = spectral_radius(_l_matrix(lengths, t)).rho
    rho_m = spectral_radius(fmat).rho
    product = rho_l * rho_m
    ratio = product / rho_f if rho_f > 0 else math.inf
    return FactorizationReport(float(t), rho_f, rho_l, rho_m, product,
                      abs(rho_f - product), ratio)


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


def predict_vertex_asymptotic(graph: MetricGraph,
                              attachments: Sequence[tuple[str, float]],
                              scales: Sequence[float] = (3.0, 5.0),
                              tol: float = 1e-10) -> VertexPrediction:
    """Predict h' = h + C rho(L(h)) with C calibrated from solver runs at
    scaled-up attachment lengths (where the asymptotic regime holds)."""
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
    l_norm = spectral_radius(_l_matrix(lengths, h)).rho
    samples = []
    c = None
    for s in sorted(float(s) for s in scales):
        scaled = [(v, l * s) for (v, _), l in zip(attachments, lengths)]
        res = entropy_after_vertex(graph, scaled, VertexVariant.TRANSFER_DA,
                                   tol=tol, h_base=h)
        rho_s = spectral_radius(_l_matrix(lengths * s, h)).rho
        ratio = (res.h_prime - h) / rho_s
        samples.append((s, res.h_prime - h, ratio))
        c = ratio
    return VertexPrediction(h + c * l_norm, l_norm, c, tuple(samples))


def _tail_average_constant(profile, h: float, r1: float) -> float:
    """Average of N(r) e^{-hr} over [r1, R], integrated exactly over the
    steps of N; equals the asymptotic constant when N ~ C e^{hr}."""
    jumps = profile.jump_radii()
    r2 = profile.r_max
    total = 0.0
    points = [r1] + [float(j) for j in jumps if j > r1] + [r2]
    for a, b in zip(points[:-1], points[1:]):
        n_val = profile.count_le(a)
        if h > 0:
            total += n_val * (math.exp(-h * a) - math.exp(-h * b)) / h
        else:
            total += n_val * (b - a)
    return total / (r2 - r1)


def estimate_constant_C(graph: MetricGraph, x: str, y: str,
                        method: str = "resolvent", ladder_k: int = 10,
                        horizon: float | None = None,
                        node_budget: int = 300_000,
                        cap: int = DEFAULT_CAP,
                        tol: float = 1e-10) -> ConstantEstimate:
    """Per-pair constants C_xx, C_yy, C_xy of the simple-pole behavior
    f(t) ~ C t / (t - h), combined into C = (sqrt(C_xx C_yy) + C_xy) h.

    method "resolvent": evaluate c(t) = f(t) (t - h) / t on the geometric
    ladder t_k = h (1 + 0.1 * 2^-k) and Richardson-extrapolate (order 1,
    ratio 2) to t -> h+.  method "counting": average N(r) e^{-hr} over
    the enumerated tail.  method "both" runs the two and warns when they
    disagree by more than 20% (a hint that the length spectrum may not be
    Diophantine, e.g. all lengths equal).
    """
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

    def resolvent_pair(a: str, b: str):
        ladder = []
        for k in range(ladder_k + 1):
            t = h * (1.0 + 0.1 * 2.0 ** (-k))
            ctx = _Resolvent(comp, t)
            if not ctx.ok:
                break
            ladder.append(ctx.path_value(a, b) * (t - h) / t)
        if len(ladder) < 2:
            raise NonConvergence("resolvent ladder failed near t = h")
        rich = [2.0 * ladder[k + 1] - ladder[k]
                for k in range(len(ladder) - 1)]
        return rich[-1], ladder

    def counting_pair(a: str, b: str):
        r_max = horizon if horizon is not None else \
            horizon_for_budget(comp, a, node_budget)
        profile = enumerate_paths(comp, EnumerationSpec(
            PathKind.PATHS_XY, r_max, x=a, y=b, cap=cap))
        if profile.lengths.size < 8:
            raise NonConvergence("too few enumerated paths for a fit")
        return _tail_average_constant(profile, h, 0.5 * r_max), profile.r_max

    per_res: dict[str, float] = {}
    per_cnt: dict[str, float] = {}
    details: dict = {}
    for name, (a, b) in pairs.items():
        if disconnected and "y" in name:
            per_res[name] = 0.0
            per_cnt[name] = 0.0
            continue
        if method in ("resolvent", "both"):
            per_res[name], ladder = resolvent_pair(a, b)
            details[f"ladder_{name}"] = tuple(ladder)
        if method in ("counting", "both"):
            per_cnt[name], used_r = counting_pair(a, b)
            details[f"horizon_{name}"] = used_r

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
