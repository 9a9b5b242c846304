"""Volume entropy of metric graphs.

Every entropy in the package is the largest root of one equation
lambda(t) = 0, with lambda < 0 below it and lambda >= 0 above, solved by
one safeguarded Newton loop (``_newton_down``).  A solve of a whole
graph starts at the trivial upper bound log(k) / l_min, k the largest
number of continuations of a dart, where rho(B(t)) <= 1, with t = 0 its
unevaluated lower end; one with a certified lower bound, such as the
entropy of a subgraph, starts there instead and climbs.  It takes Newton
steps with the exact slope of lambda; once a step is at most 0.1 t, it
takes the zero of the inverse cubic Hermite interpolant through the
last two evaluations instead (value and slope at each, order about 2.7)
wherever that zero lies in the maintained sign bracket, and it bisects
wherever a step would leave that bracket.  The loop takes the equation
as a callable and serves two evaluations:

- ``_log_rho``: lambda = -log rho(B(t)) on the dart matrix of a reduced
  hyperbolic core, the paper's rho(B(t)) = 1 (``volume_entropy``).  Each
  evaluation fills a CSR B(t) from the graph's cached transition pattern
  and runs one power iteration for the right Perron vector r, as CSR on
  large blocks and dense on small ones (``spectral.spectral_radius``);
  the slope uses the left vector e^{-t l_d} r_{rev d} that the dart
  reversal gives (see ``spectral``).  Components that reduce to a tree or
  to a single cycle have entropy 0 exactly and are never solved for.
- ``_lambda_min``: lambda = lambda_min(M(t)) on the symmetric vertex
  matrix M(t) of ``spectral.vertex_form``, positive definite exactly
  above the entropy (``_vertex_root``).  Each evaluation is one pass
  over the cached edge arrays for M(t) and M'(t) and one LAPACK
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
change of the benchmark's pinned failures.  Its solve also keeps plain
Newton steps (``_newton_down(..., interpolate=False)``): its coarse stop
scale ``_RHO_TOL`` would let the interpolated steps move h by ~1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevr

from .errors import InsufficientData, NonConvergence
from .graph import (ComponentKind, EdgeSet, MetricGraph, _require_valid,
                    components, reduce)
from .spectral import (TransferMode, VertexForm, _sparse_transfer,
                       _vertex_forms, build_transfer, spectral_radius)

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


def _edge_quotients(form: VertexForm, slope: VertexForm, v: np.ndarray):
    """(v^T M(t) v, v^T M'(t) v, the rounding scale of v^T M(t) v) in
    the edge form sum_u shift_u v_u^2 + sum_e w_e (v_u - v_w)^2, with
    (``form``, ``slope``) = ``spectral._vertex_forms(edges, t, mode)``.
    The rounding scale is 4 eps times the sum of the absolute values of
    the terms: below it the sign of v^T M(t) v says nothing."""
    sq, diff2 = v * v, (v[form.tails] - v[form.heads]) ** 2
    flow = float(form.weights @ diff2)
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


def _lambda_min(edges: EdgeSet, t: float, mode: TransferMode):
    """(lambda_min(M(t)), its unit eigenvector, its slope v^T M'(t) v,
    the rounding scale of lambda_min), the eigenvalue and slope as the
    edge-form quotients of the eigenvector (``_edge_quotients``)."""
    form, slope = _vertex_forms(edges, t, mode)
    v = _lowest_vector(form.matrix())
    lam, dlam, noise = _edge_quotients(form, slope, v)
    return lam, v, dlam, noise


_RHO_TOL = 1e-10


def _log_rho(graph: MetricGraph, t: float):
    """(-log rho(B(t)), the right Perron vector r, the slope
    -d log rho / dt, the stop scale) on the non-backtracking dart matrix,
    built as CSR (``spectral._sparse_transfer``).

    The slope takes e^{-t l_d} r_{rev d} as the left vector.  Where it is
    not positive it is nan, so that ``_newton_down`` bisects: the left
    vector is orthogonal to r if the Perron block is not closed under
    reversal, possible only where weights underflow.  The stop scale
    ``_RHO_TOL`` min(1, 0.45 l_min) is small enough that the least slope
    l_min of log rho certifies a bracket of width at most ``_RHO_TOL``.
    A NonConvergence of the power iteration carries t.
    """
    transfer = _sparse_transfer(graph, t)
    try:
        data = spectral_radius(transfer)
    except NonConvergence as exc:
        exc.t = t
        raise
    rho, right = data.rho, data.right
    stop = _RHO_TOL * min(1.0, 0.45 * graph.min_length())
    if rho <= 0.0:
        return math.inf, right, math.nan, stop
    lengths, reverse = graph._dart_arrays
    left = np.exp(-t * lengths) * right[reverse]
    denom = float(left @ right) * rho
    slope = (float(left @ (transfer @ (lengths * right))) / denom
             if denom > 0.0 else math.nan)
    return -math.log(rho), right, slope if slope > 0.0 else math.nan, stop


def _upper_start(edges: EdgeSet, mode: TransferMode) -> float:
    """log(max(k, 2)) / l_min, k the largest number of continuations of
    a dart: rho(B(t)) <= 1 there, so no root of the edge set lies above."""
    k = edges.max_degree - (mode is TransferMode.NON_BACKTRACKING)
    return math.log(max(k, 2)) / edges.min_length


def _inverse_hermite(prev, t: float, lam: float, dlam: float) -> float:
    """Zero of the inverse cubic Hermite interpolant of t(lambda) through
    two evaluations, ``prev`` = (t0, lambda0, slope0) and (t, lam, dlam):
    the cubic in lambda that takes the value t_i with slope 1 / slope_i
    at lambda_i, in the Hermite basis on s = (lambda - lambda0) / (lam -
    lambda0), at lambda = 0.  Nan where the two values of lambda
    coincide."""
    t0, lam0, dlam0 = prev
    span = lam - lam0
    if span == 0.0:
        return math.nan
    s = -lam0 / span
    h00, h10 = 2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s
    h01, h11 = -2 * s**3 + 3 * s**2, s**3 - s**2
    return h00 * t0 + h10 * span / dlam0 + h01 * t + h11 * span / dlam


def _newton_down(evaluate, t: float, lo: float, hi: float,
                 component: str, interpolate: bool = True) -> _VertexRoot:
    """Safeguarded Newton on the largest root of lambda(t) = 0, where
    lambda < 0 below that root and lambda >= 0 from it up to ``hi``,
    started at t in [lo, hi].  ``evaluate(t)`` gives (lambda, its
    vector, its slope, its stop scale), or lambda = -inf where t is
    certified below the root; ``component`` names the graph in errors.
    A start at hi with lambda <= 0 there is a root on the bound, lambda
    < 0 only by rounding.  Once a Newton step is at most 0.1 t, it is
    replaced by the zero of the inverse cubic Hermite interpolant through
    the last two evaluations (``_inverse_hermite``, order 1 + sqrt 3
    against Newton's 2) wherever that zero lies inside the bracket.  A
    step that would leave the bracket bisects, and a solve that ends on a
    point certified below returns its evaluated upper end instead.
    ``interpolate=False`` takes plain Newton steps, for the dart solve of
    ``volume_entropy`` (module docstring).

    M(t) and B(t) depend on t l alone, so the stop is relative: a Newton
    step or bracket of at most 1e-15 t, or |lambda| within the scale that
    ``evaluate`` gives (the rounding scale of ``_edge_quotients``, the
    tolerance of ``_log_rho``), where further steps would follow rounding
    noise.
    """
    lam, v, dlam, noise = evaluate(t)
    evals, upper, prev = 1, None, None
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
        if prev is not None and abs(t_next - t) <= 0.1 * t:
            t_cubic = _inverse_hermite(prev, t, lam, dlam)
            if lo < t_cubic < hi:
                t_next = t_cubic
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
        prev = (t, lam, dlam) if interpolate and dlam > 0.0 else None
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

    Non-backtracking: a component of ``graph._split`` with first Betti
    number <= 1 has h = 0, and every other one is solved as it is,
    unreduced, on its gathered edge set: its M(t) has the largest root of
    its core, and v lives on its own vertices.  The graph's h is the
    maximum over components.  Backtracking: one solve of I - W(t) over
    the whole graph, whose lambda_min is the smallest over its
    components; h = 0 where lambda_min(I - W(0)) >= 0.
    """
    zero = _VertexRoot(0.0, None, 0.0, 0.0, (0.0, 0.0), 0)
    n, whole = len(graph.vertices), graph._edge_arrays
    if mode is TransferMode.BACKTRACKING:
        if not graph.darts:
            return zero
        if _lambda_min(whole, 0.0, mode)[0] >= 0.0:
            return replace(zero, evals=1)
        parts, evals = [(np.arange(n), None)], 1
    else:
        parts, evals = [(v, e) for v, e in graph._split[1]
                        if e.size - v.size + 1 > 1], 0
    best, best_verts = zero, None
    for verts, edges in parts:
        root = _cold_root(whole if verts.size == n
                          else whole.take(verts, edges, graph.vertices), mode)
        evals += root.evals
        if root.h > best.h:
            best, best_verts = root, verts
    v = best.v
    if v is not None and best_verts.size != n:
        v = np.zeros(n)
        v[best_verts] = best.v
    return replace(best, v=v, evals=evals)


def _cold_root(edges: EdgeSet,
               mode: TransferMode = TransferMode.NON_BACKTRACKING,
               lo: float = 0.0) -> _VertexRoot:
    """Largest root of lambda_min(M(t)) = 0 on an edge set, solved from
    ``_upper_start`` down, or up from ``lo`` where 0 < lo < that bound:
    ``lo`` must be certified at most the root, such as the entropy of a
    subgraph."""
    hi = _upper_start(edges, mode)
    return _newton_down(lambda t: _lambda_min(edges, t, mode),
                        lo if 0.0 < lo < hi else hi, lo, hi, edges.name)


def _schur_root(edges: EdgeSet, ends: np.ndarray, h_base: float,
                mode: TransferMode = TransferMode.NON_BACKTRACKING
                ) -> tuple[float, float, int]:
    """Largest root h' of lambda_min(M_G(t)) = 0 for a graph G made of a
    base of entropy ``h_base`` and new edges with the ends S (vertex
    indices ``ends``).  Returns (h', |lambda_min(K(h'))|, evaluations).

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
    on_s = np.zeros(edges.n, dtype=bool)
    on_s[ends] = True
    s, r = on_s.nonzero()[0], (~on_s).nonzero()[0]
    rr, rs, ss = (a[:, None] * on_s.size + b  # flat block indices
                  for a, b in ((r, r), (r, s), (s, s)))

    def evaluate(t: float):
        form, slope = _vertex_forms(edges, t, mode)
        mat = form.matrix()
        factor, info = dpotrf(mat.take(rr))
        if info != 0:  # M_RR is not positive definite: t <= h_base
            return -math.inf, None, math.nan, 0.0
        m_rs = mat.take(rs)
        x = dpotrs(factor, m_rs)[0] if r.size else m_rs
        u = _lowest_vector(mat.take(ss) - m_rs.T @ x)
        w = np.empty(on_s.size)
        w[s], w[r] = u, -x @ u
        lam, dlam, noise = _edge_quotients(form, slope, w)
        return lam, w, dlam, noise

    hi = _upper_start(edges, mode)
    start = min(h_base * (1.0 + 1e-6), hi) if h_base > 0.0 else hi
    root = _newton_down(evaluate, start, h_base * (1.0 - 1e-6), hi,
                        edges.name)
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
    _require_valid(graph)

    per: list[tuple[str, float]] = []
    best, best_l_min, evals = None, 0.0, 0
    for comp in components(graph):
        cid = min(comp.vertices)
        red = reduce(comp)
        if red.kinds[0] is not ComponentKind.HYPERBOLIC:
            per.append((cid, 0.0))
            continue
        core = red.graph
        hi = _upper_start(core._edge_arrays, TransferMode.NON_BACKTRACKING)
        try:
            root = _newton_down(lambda t: _log_rho(core, t), hi, 0.0, hi,
                                cid, interpolate=False)
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
    _require_valid(graph)
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
