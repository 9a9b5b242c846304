"""Volume entropy of metric graphs.

Every entropy in the package is the largest root of one equation
lambda(t) = 0, with lambda < 0 below it and lambda >= 0 above, solved by
one safeguarded Newton loop (``_newton_down``).  A solve of a whole
graph starts at the trivial upper bound log(k) / l_min, k the largest
number of continuations of a dart, where rho(B(t)) <= 1, with t = 0 its
unevaluated lower end; it takes Newton steps down with the exact slope
of lambda, and bisects wherever a step would leave the maintained sign
bracket.  The loop takes the equation as a callable and serves two
evaluations:

- ``_log_rho``: lambda = -log rho(B(t)) on the dart matrix of a reduced
  hyperbolic core, the paper's rho(B(t)) = 1 (``volume_entropy``).  Each
  evaluation is one power iteration for the right Perron vector r; the
  slope uses the left vector e^{-t l_d} r_{rev d} that the dart reversal
  gives (see ``spectral``).  Components that reduce to a tree or to a
  single cycle have entropy 0 exactly and are never solved for.
- ``_lambda_min``: lambda = lambda_min(M(t)) on the symmetric vertex
  matrix M(t) of ``spectral.vertex_form``, positive definite exactly
  above the entropy (``_vertex_root``).  Each evaluation is one LAPACK
  ``dsyevr`` of the smallest eigenpair, the eigenvalue refined as the
  Rayleigh quotient in the edge form, and its slope is v^T M'(t) v.  No
  power iteration is involved, so it also solves the wide-length graphs
  where the dart iteration does not converge.  Besides h it gives the
  null vector and slope that the asymptotic constants need, and it
  serves the backtracking mode (I - W(t)) as well.  It is the base solve
  of the incremental formulas, the step solve of the "direct"
  persistence strategy, and the backtracking root and count model of
  ``counting``.  The smallest eigenpair of a Schur complement of M(t) on
  the ends of added edges (``_schur_root``), started just above the
  entropy of the base, solves the incremental formulas and route 2 of
  ``counting.backtracking_entropy``.

``volume_entropy`` keeps the dart evaluation for now: moving it to the
vertex matrix changes which benchmark inputs fail, and so goes with a
change of the benchmark's pinned failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Collection, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevr

from .errors import InsufficientData, NonConvergence, ValidationFailed
from .graph import ComponentKind, MetricGraph, components, reduce, validate
from .spectral import (TransferMode, VertexForm, build_transfer,
                       spectral_radius, vertex_form, vertex_form_dt)

if TYPE_CHECKING:  # pragma: no cover
    from .counting import CountProfile


@dataclass(frozen=True)
class EntropyResult:
    """Volume entropy of a graph (max over connected components).

    ``residual`` is |rho(B(h)) - 1| at the returned h of the component
    that attains it, and ``bracket`` narrows the solver's sign bracket
    around h by |log rho(B(h))| / l_min, the least slope of log rho.  Both
    are only as good as the power iteration's rho, so the bracket is not
    a precision of h.  ``iterations`` counts the evaluations, one power
    iteration each, over all components.  All fields are 0 where every
    component has entropy 0.
    """

    h: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    per_component: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class CountSlopeEstimate:
    """Entropy estimate from an enumeration profile.

    ``band`` is the spread (max - min) of the pointwise log N(r) / r
    estimates across the window: the residual drift of the naive
    estimator, used as the confidence band around the fitted slope.
    """

    h_hat: float
    band: float
    window: tuple[float, float]
    n_samples: int


@dataclass(frozen=True)
class _VertexRoot:
    """Largest root h of lambda(t) = 0 (``_newton_down``).

    For lambda_min(M(t)) (``_vertex_root``), ``v`` is the unit eigenvector
    of lambda_min(M(h)) in ``graph.vertices`` order, zero off the
    component that attains h, and None when h = 0 was not solved for;
    ``null_eigenvalue`` is lambda_min(M(h)), which stands in for 0, and
    ``dlambda`` = v^T M'(h) v its slope.  In ``bracket`` = (lo, hi),
    lambda < 0 at lo or lo is the unevaluated lower end, and lambda >= 0
    at hi.  ``evals`` counts the evaluations.
    """

    h: float
    v: np.ndarray | None
    null_eigenvalue: float
    dlambda: float
    bracket: tuple[float, float]
    evals: int


_NEWTON_CAP = 200
_EPS = float(np.finfo(float).eps)


def _edge_quotients(graph: MetricGraph, t: float, mode: TransferMode,
                    form: VertexForm, v: np.ndarray):
    """(v^T M(t) v, v^T M'(t) v, the rounding scale of v^T M(t) v) in
    the edge form sum_u shift_u v_u^2 + sum_e w_e (v_u - v_w)^2, with
    ``form`` = ``vertex_form(graph, t, mode)``.  The rounding scale is
    4 eps times the sum of the absolute values of the terms: below it
    the sign of v^T M(t) v says nothing."""
    sq, diff2 = v * v, (v[form.tails] - v[form.heads]) ** 2
    flow = float(form.weights @ diff2)
    slope = vertex_form_dt(graph, t, mode)  # same edge layout as form
    return (float(form.shift @ sq) + flow,
            float(slope.shift @ sq + slope.weights @ diff2),
            4.0 * _EPS * (float(np.abs(form.shift) @ sq) + flow))


def _lowest_vector(mat: np.ndarray) -> np.ndarray:
    """Unit eigenvector of the smallest eigenvalue of a symmetric matrix,
    from one LAPACK ``dsyevr`` (which overwrites ``mat``)."""
    _, vecs, _, _, info = dsyevr(mat, range="I", il=1, iu=1, lower=1,
                                 overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"dsyevr failed with info = {info}")
    return vecs[:, 0]


def _lambda_min(graph: MetricGraph, t: float, mode: TransferMode):
    """(lambda_min(M(t)), its unit eigenvector, its slope v^T M'(t) v,
    the rounding scale of lambda_min), the eigenvalue and slope as the
    edge-form quotients of the eigenvector (``_edge_quotients``)."""
    form = vertex_form(graph, t, mode)
    v = _lowest_vector(form.matrix())
    lam, dlam, noise = _edge_quotients(graph, t, mode, form, v)
    return lam, v, dlam, noise


_RHO_TOL = 1e-10


def _log_rho(graph: MetricGraph, t: float):
    """(-log rho(B(t)), the right Perron vector r, the slope
    -d log rho / dt, the stop scale) on the non-backtracking dart matrix.

    The slope takes e^{-t l_d} r_{rev d} as the left vector.  Where it is
    not positive it is nan, so that ``_newton_down`` bisects: the left
    vector is orthogonal to r if the Perron block is not closed under
    reversal, possible only where weights underflow.  The stop scale
    ``_RHO_TOL`` min(1, 0.45 l_min) is small enough that the least slope
    l_min of log rho certifies a bracket of width at most ``_RHO_TOL``.
    A NonConvergence of the power iteration carries t.
    """
    transfer = build_transfer(graph, t)
    try:
        data = spectral_radius(transfer)
    except NonConvergence as exc:
        exc.t = t
        raise
    rho, right = data.rho, data.right
    stop = _RHO_TOL * min(1.0, 0.45 * graph.min_length())
    if rho <= 0.0:
        return math.inf, right, math.nan, stop
    lengths = transfer.dart_lengths
    left = np.exp(-t * lengths) * right[[d.reverse for d in graph.darts]]
    denom = float(left @ right) * rho
    slope = (float(left @ (transfer.matrix @ (lengths * right))) / denom
             if denom > 0.0 else math.nan)
    return -math.log(rho), right, slope if slope > 0.0 else math.nan, stop


def _upper_start(graph: MetricGraph, mode: TransferMode) -> float:
    """log(max(k, 2)) / l_min, k the largest number of continuations of
    a dart: rho(B(t)) <= 1 there, so no root of ``graph`` lies above."""
    k = graph.max_degree() - (mode is TransferMode.NON_BACKTRACKING)
    return math.log(max(k, 2)) / graph.min_length()


def _newton_down(evaluate, t: float, lo: float, hi: float,
                 component: str) -> _VertexRoot:
    """Safeguarded Newton on the largest root of lambda(t) = 0, where
    lambda < 0 below that root and lambda >= 0 from it up to ``hi``,
    started at t in [lo, hi].  ``evaluate(t)`` gives (lambda, its
    vector, its slope, its stop scale), or lambda = -inf where t is
    certified below the root; ``component`` names the graph in errors.
    A start at hi with lambda <= 0 there is a root on the bound, lambda
    < 0 only by rounding.  A step that would leave the bracket bisects,
    and a solve that ends on a point certified below returns its
    evaluated upper end instead.

    M(t) and B(t) depend on t l alone, so the stop is relative: a Newton
    step or bracket of at most 1e-15 t, or |lambda| within the scale that
    ``evaluate`` gives (the rounding scale of ``_edge_quotients``, the
    tolerance of ``_log_rho``), where further steps would follow rounding
    noise.
    """
    lam, v, dlam, noise = evaluate(t)
    evals, upper = 1, None
    if t >= hi and lam <= 0.0:
        return _VertexRoot(t, v, lam, dlam, (t, t), evals)
    while True:
        if lam < 0.0:
            lo = t
        else:
            hi, upper = t, (t, v, lam, dlam)
        if abs(lam) <= noise or hi - lo <= 1e-15 * t:
            break
        if evals >= _NEWTON_CAP:
            exc = NonConvergence(
                f"lambda = 0 unresolved after {evals} evaluations "
                f"on [{lo!r}, {hi!r}]")
            exc.t, exc.component = t, component
            raise exc
        t_next = t - lam / dlam if dlam > 0.0 else math.nan
        if abs(t_next - t) <= 1e-15 * t:
            break
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
        t = t_next
        lam, v, dlam, noise = evaluate(t)
        evals += 1
    if lam == -math.inf and upper is not None:  # end on a value, not below
        t, v, lam, dlam = upper
    return _VertexRoot(t, v, lam, dlam, (lo, hi), evals)


def _vertex_root(graph: MetricGraph,
                 mode: TransferMode = TransferMode.NON_BACKTRACKING
                 ) -> _VertexRoot:
    """Entropy of a graph as the largest root of lambda_min(M(t)) = 0,
    with M(t) the vertex matrix of ``mode`` (module docstring).

    Non-backtracking: a component with first Betti number <= 1 has h = 0,
    and every other component is solved as it is, unreduced: its M(t)
    has the largest root of its core, and v lives on its own vertices.
    The graph's h is the maximum over components.  Backtracking: one
    solve of I - W(t) over the whole graph, whose lambda_min is the
    smallest over its components; h = 0 where lambda_min(I - W(0)) >= 0.
    """
    zero = _VertexRoot(0.0, None, 0.0, 0.0, (0.0, 0.0), 0)
    if mode is TransferMode.BACKTRACKING:
        if not graph.darts:
            return zero
        if _lambda_min(graph, 0.0, mode)[0] >= 0.0:
            return replace(zero, evals=1)
        comps, evals = [graph], 1
    else:
        comps, evals = [c for c in components(graph)
                        if c.edge_count - len(c.vertices) + 1 > 1], 0
    best, comp_best = zero, graph
    for comp in comps:
        hi = _upper_start(comp, mode)
        root = _newton_down(lambda t, c=comp: _lambda_min(c, t, mode), hi,
                            0.0, hi, min(comp.vertices))
        evals += root.evals
        if root.h > best.h:
            best, comp_best = root, comp
    v = best.v
    if v is not None and comp_best.vertices != graph.vertices:
        index = {u: i for i, u in enumerate(graph.vertices)}
        v = np.zeros(len(index))
        v[[index[u] for u in comp_best.vertices]] = best.v
    return replace(best, v=v, evals=evals)


def _schur_root(graph: MetricGraph, ends: Collection[str], h_base: float,
                mode: TransferMode = TransferMode.NON_BACKTRACKING
                ) -> tuple[float, float, int]:
    """Largest root h' of lambda_min(M_G(t)) = 0 for a graph G made of a
    base of entropy ``h_base`` and new edges with the ends S (``ends``).
    Returns (h', |lambda_min(K(h'))|, evaluations).

    h' is the largest root of lambda_min(K(t)) = 0 for the Schur
    complement K = M_SS - M_SR M_RR^{-1} M_RS of M_G(t), R the other
    vertices (Haynsworth's inertia theorem, ``incremental`` module
    docstring).  Each evaluation is one Cholesky factorization of M_RR,
    the block of the base; a failed one certifies t <= h_base.  With u
    the unit eigenvector of lambda_min(K), w = (u, -M_RR^{-1} M_RS u) has
    w^T M_G w = u^T K u and w^T M_G' w = u^T K' u, so lambda and its slope
    are the edge-form quotients of w (``_edge_quotients``), which keep
    their digits where the assembled K has lost them.

    K(t) is smooth across h_base, so Newton steps may go below it: they
    start at h_base (1 + 1e-6) in the bracket [h_base (1 - 1e-6), hi],
    and h' is at least h_base.  Where the entropy of the base is attained
    away from S, K has a pole where M_RR turns singular, at most h_base,
    and the root can lie within an ulp above it: there the solve bisects
    down to the Cholesky boundary, and |lambda_min(K(h'))| need not be
    small.
    """
    on_s = np.array([v in ends for v in graph.vertices])
    s, r = np.flatnonzero(on_s), np.flatnonzero(~on_s)
    rr, rs, ss = np.ix_(r, r), np.ix_(r, s), np.ix_(s, s)

    def evaluate(t: float):
        form = vertex_form(graph, t, mode)
        mat = form.matrix()
        factor, info = dpotrf(mat[rr])
        if info != 0:  # M_RR is not positive definite: t <= h_base
            return -math.inf, None, math.nan, 0.0
        m_rs = mat[rs]
        x = dpotrs(factor, m_rs)[0] if r.size else m_rs
        u = _lowest_vector(mat[ss] - m_rs.T @ x)
        w = np.empty(on_s.size)
        w[s], w[r] = u, -x @ u
        lam, dlam, noise = _edge_quotients(graph, t, mode, form, w)
        return lam, w, dlam, noise

    hi = _upper_start(graph, mode)
    start = min(h_base * (1.0 + 1e-6), hi) if h_base > 0.0 else hi
    root = _newton_down(evaluate, start, h_base * (1.0 - 1e-6), hi,
                        min(graph.vertices))
    return max(root.h, h_base), abs(root.null_eigenvalue), root.evals


def volume_entropy(graph: MetricGraph) -> EntropyResult:
    """Volume entropy of a metric graph.

    Each connected component is reduced first; trivial and single-cycle
    components contribute exactly 0, hyperbolic components are solved for
    rho(B(t)) = 1 by ``_newton_down`` on ``_log_rho`` down from
    log(k) / l_min.  The entropy of the graph is the maximum over
    components.  A NonConvergence of the power iteration carries the t
    and the component (its least vertex) it was met at.

    Raises ValidationFailed on invalid input: no entropy is ever reported
    for a non-validated graph.
    """
    report = validate(graph)
    if report:
        raise ValidationFailed(report)

    per: list[tuple[str, float]] = []
    best, best_l_min, evals = None, 0.0, 0
    for comp in components(graph):
        cid = min(comp.vertices)
        red = reduce(comp)
        if red.kinds[0] is not ComponentKind.HYPERBOLIC:
            per.append((cid, 0.0))
            continue
        core = red.graph
        hi = _upper_start(core, TransferMode.NON_BACKTRACKING)
        try:
            root = _newton_down(lambda t: _log_rho(core, t), hi, 0.0, hi,
                                cid)
        except NonConvergence as exc:
            exc.component = cid
            raise
        evals += root.evals
        per.append((cid, root.h))
        if best is None or root.h > best.h:
            best, best_l_min = root, core.min_length()

    if best is None:
        return EntropyResult(0.0, 0.0, evals, (0.0, 0.0), tuple(per))
    lo, hi = best.bracket
    delta = abs(best.null_eigenvalue) / best_l_min
    bracket = (max(lo, best.h - delta), min(hi, best.h + delta))
    return EntropyResult(best.h, abs(math.expm1(-best.null_eigenvalue)),
                         evals, bracket, tuple(per))


def rho_curve(graph: MetricGraph, t_values: Sequence[float],
              mode: TransferMode = TransferMode.NON_BACKTRACKING
              ) -> list[tuple[float, float]]:
    """Sample (t, rho(B(t))) along a parameter grid, each radius from the
    dense eigenvalues of B(t); diagnostic helper."""
    report = validate(graph)
    if report:
        raise ValidationFailed(report)
    return [(float(t), float(np.abs(np.linalg.eigvals(
        build_transfer(graph, float(t), mode).matrix)).max(initial=0.0)))
        for t in t_values]


def entropy_from_counts(profile: "CountProfile",
                        window: tuple[float, float]) -> CountSlopeEstimate:
    """Estimate entropy as the least-squares slope of log N(r) over r.

    Samples sit at the distinct recorded lengths inside the window, with
    N evaluated just above each jump.  Requires at least 4 samples and a
    window inside the profile horizon.
    """
    r1, r2 = float(window[0]), float(window[1])
    lengths = np.asarray(profile.lengths)
    if lengths.size == 0:
        raise InsufficientData("profile records no lengths")
    if not (r2 > r1 >= float(lengths[0])):
        raise InsufficientData(
            f"window ({r1}, {r2}) must satisfy r2 > r1 >= min length")
    if r2 > profile.r_max:
        raise InsufficientData(
            f"window end {r2} exceeds profile horizon {profile.r_max}")
    jumps, n_le = profile.steps()
    inside = (jumps >= r1) & (jumps <= r2)
    xs, ys = jumps[inside], np.log(n_le[inside])
    if xs.size < 4:
        raise InsufficientData(
            f"only {xs.size} sample points in window ({r1}, {r2})")
    slope = float(np.polyfit(xs, ys, 1)[0])
    pointwise = ys / xs
    band = float(np.max(pointwise) - np.min(pointwise))
    return CountSlopeEstimate(slope, band, (r1, r2), int(xs.size))
