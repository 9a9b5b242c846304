"""Volume entropy of metric graphs.

Every entropy in the package is the largest root of one equation
lambda(t) = 0, with lambda < 0 below it and lambda >= 0 above, solved by
one safeguarded Newton loop (``_newton_down``).  A vertex solve of a
whole graph starts at the trivial upper bound log(k) / l_min, k the
largest number of continuations of a dart, where rho(B(t)) <= 1, with
t = 0 its unevaluated lower end; one with a certified lower bound, such
as the entropy of a subgraph, starts there instead and climbs.  The dart
solve of ``volume_entropy`` starts lower, at the certified row-sum bound
max_v t_v (``_row_sum_bound``), near h where log(k) / l_min lies far
above it and the power iteration stalls.  The loop takes Newton steps
with the exact slope of lambda; once a step is at most 0.1 t, it takes
the zero of the inverse cubic Hermite interpolant through the last two
evaluations instead (value and slope at each, order about 2.7) wherever
that zero lies in the maintained sign bracket, and it bisects wherever
a step would leave that bracket.  The loop takes the equation as a
callable and serves two evaluations:

- ``_log_rho``: lambda = -log rho(B(t)) on the dart matrix of a reduced
  hyperbolic core, the paper's rho(B(t)) = 1 (``volume_entropy``).  The
  core is built once per graph object (``_dart_core``).  Each evaluation
  fills a CSR B(t) from the core's cached transition pattern and runs
  one power iteration for the right Perron vector r, as CSR on large
  blocks and dense on small ones (``spectral.spectral_radius``), handed
  the core's cached strongly connected split wherever no weight
  underflows, so that it pays for its power steps alone; the slope uses
  the left vector e^{-t l_d} r_{rev d} that the dart reversal gives (see
  ``spectral``).  Components that reduce to a tree or to a single cycle
  have entropy 0 exactly and are never solved for.
- ``_lambda_min``: lambda = lambda_min(M(t)) on the symmetric vertex
  matrix M(t) of ``spectral.vertex_matrix``, positive definite exactly
  above the entropy (``_vertex_root``).  Each evaluation takes the terms
  of M(t) and M'(t) (``spectral._vertex_terms``), one LAPACK ``dsyevr``
  of the smallest eigenpair of M(t), and the eigenvalue and its slope
  v^T M'(t) v as Rayleigh quotients in the edge form (``ndarray.dot``).  No
  power iteration is involved, so it also solves the wide-length graphs
  where the dart iteration does not converge.  Besides h it gives the
  null vector and slope that the asymptotic constants need, and it
  serves the backtracking mode (I - W(t)) as well.  It is the base solve
  of the incremental formulas, the step solve of the "direct"
  persistence strategy, and the backtracking root and count model of
  ``counting``.  The smallest eigenpair of a Schur complement of M(t) on
  the ends of added edges (``_schur_root``), started just above the
  entropy of the base, solves the incremental formulas and route 2 of
  ``counting.backtracking_entropy``; its blocks are slices of M(t).

``volume_entropy`` keeps the dart evaluation for now: moving it to the
vertex matrix changes which benchmark inputs fail, and so goes with a
change of the benchmark's pinned failures.  It returns the Newton update
of its last evaluation, which the coarse stop scale ``_RHO_TOL`` of
``_log_rho`` leaves unused: on ``generate_graph``'s seed ladder up to
V = 100, h then lies within 1.99e-13 relative of the vertex root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs, dsyevr

from .errors import NonConvergence, PreconditionError
from .graph import (ComponentKind, EdgeSet, MetricGraph, _component,
                    components, reduce)
from .spectral import (TransferMode, _assemble, _sparse_transfer,
                       _vertex_terms, build_transfer, spectral_radius)


@dataclass(frozen=True)
class EntropyResult:
    """Volume entropy of a graph (max over connected components).

    For the component that attains h, ``residual`` is |rho(B(t)) - 1| at
    the last evaluation t of its solve, from which h is one Newton update
    (``volume_entropy``), and ``bracket`` narrows the solver's sign
    bracket around t by |log rho(B(t))| / l_min, the least slope of log
    rho; h lies in it.  Both are only as good as the power iteration's
    rho, so the bracket is not a precision of h.  ``iterations`` counts
    the evaluations, one power iteration each, over all components.  All
    fields are 0 where every component has entropy 0.
    """

    h: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    per_component: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class _VertexRoot:
    """Largest root h of lambda(t) = 0 (``_newton_down``).

    For lambda_min(M(t)) (``_vertex_root``), ``v`` is the read-only unit
    eigenvector of lambda_min(M(h)) in ``graph.vertices`` order, zero off
    the component that attains h, and None when h = 0 was not solved for;
    ``null_eigenvalue`` is lambda_min(M(h)), which stands in for 0, and
    ``dlambda`` = v^T M'(h) v its slope (``_schur_root``: those of K(h),
    with its lift w).  In ``bracket`` = (lo, hi), lambda < 0 at lo or lo
    is the unevaluated lower end, and lambda >= 0 at hi.  ``evals``
    counts the evaluations.
    """

    h: float
    v: np.ndarray | None
    null_eigenvalue: float
    dlambda: float
    bracket: tuple[float, float]
    evals: int


_NEWTON_CAP = 200
_EPS = float(np.finfo(float).eps)


def _edge_quotients(edges: EdgeSet, shift, weights, d_shift, d_weights, v):
    """(v^T M(t) v, v^T M'(t) v, the rounding scale of v^T M(t) v) in the
    edge form sum_u shift_u v_u^2 + sum_e w_e (v_u - v_w)^2 of the terms
    of ``spectral._vertex_terms``, a loop adding 0.  The scale is 4 eps
    times the sum of the absolute values of the terms: below it the sign
    says nothing."""
    sq, diff2 = v * v, np.square(v[edges.tails] - v[edges.heads])
    flow = float(weights.dot(diff2))
    return (float(shift.dot(sq)) + flow,
            float(d_shift.dot(sq) + d_weights.dot(diff2)),
            4.0 * _EPS * (float(np.abs(shift).dot(sq)) + flow))


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
    terms = _vertex_terms(edges, t, mode, True)
    v = _lowest_vector(_assemble(edges.scatter, *terms[:2]))
    lam, dlam, noise = _edge_quotients(edges, *terms, v)
    return lam, v, dlam, noise


_RHO_TOL = 1e-10


def _log_rho(graph: MetricGraph, t: float):
    """(-log rho(B(t)), the right Perron vector r, the slope
    -d log rho / dt, the stop scale) on the non-backtracking dart matrix,
    built as CSR (``spectral._sparse_transfer``).  Where no weight
    e^{-t l} underflows to 0, the support of B(t) is the transition
    pattern, and ``spectral_radius`` takes its split from the graph's
    cache (``MetricGraph._nb_blocks``) instead of splitting the support.

    The slope takes e^{-t l_d} r_{rev d} as the left vector.  Where it is
    not positive it is nan, so that ``_newton_down`` bisects: the left
    vector is orthogonal to r if the Perron block is not closed under
    reversal, possible only where weights underflow.  The stop scale
    ``_RHO_TOL`` min(1, 0.45 l_min) is small enough that the least slope
    l_min of log rho certifies a bracket of width at most ``_RHO_TOL``.
    A NonConvergence of the power iteration carries t.
    """
    transfer = _sparse_transfer(graph, t)
    blocks = graph._nb_blocks if transfer.data.all() else None
    try:
        data = spectral_radius(transfer, blocks=blocks)
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
    a dart: rho(B(t)) <= 1 there, so no root of the edge set lies above.
    The top of the bracket of every solve, ``_row_sum_bound``'s included;
    PreconditionError where it overflows, as for a subnormal l_min."""
    k = edges.max_degree - (mode is TransferMode.NON_BACKTRACKING)
    if math.isinf(top := math.log(max(k, 2)) / edges.min_length):
        raise PreconditionError(f"component {edges.name()!r}: an edge of "
                                f"length {edges.min_length!r} is too short "
                                "to bound its entropy")
    return top


def _row_sum_bound(edges: EdgeSet, mode: TransferMode) -> float:
    """A certified upper bound on max_v t_v, and so on the entropy of the
    edge set, where t_v is the root of the row sum S_v(t) = sum over the
    ends at v (a loop counted twice) of z / (1 + z), or of z in the
    backtracking mode, with z = e^{-t l}.

    (M(t) 1)_v = 1 - S_v(t), and M(t) is a symmetric Z-matrix, so by
    Collatz-Wielandt with x = 1 lambda_min(M(T)) >= 1 - max_v S_v(T):
    no root lies above a T with max_v S_v(T) <= 1 (A. Berman and R.
    Plemmons, Nonnegative Matrices in the Mathematical Sciences, SIAM
    1994).  A bisection on [0, ``_upper_start``], where that check holds
    in exact arithmetic, keeps as its top the least T that passes it, to
    1e-3 relative: a closer bound saves no dart evaluation on
    ``generate_graph``'s seed ladder.  Each probe is one ``np.bincount``
    of the terms.

    The check allows for rounding.  Rounding x = t l moves a term by at
    most eps / (2e), as x |f'(x)| <= 1/e; e^{-x}, taken within 4 ulps,
    and the division move it by at most 5 eps relative, and a term is at
    most 1.  So each term is within 4.2 eps, and the sum of the d_v terms
    at v adds at most d_v eps / 2 while it is at most 1: a computed S_v
    at most 1 - 8 d_v eps certifies S_v <= 1.  Without that slack, a
    start below h would be taken for a root on the bound.
    """
    n, tails, heads, lengths = edges
    ends = np.concatenate((tails, heads))
    ls = np.concatenate((lengths, lengths))
    limit = 1.0 - 8.0 * _EPS * np.bincount(ends, minlength=n)
    lo, hi = 0.0, _upper_start(edges, mode)
    while hi - lo > 1e-3 * hi:
        mid = 0.5 * (lo + hi)
        z = np.exp(-mid * ls)
        if mode is TransferMode.NON_BACKTRACKING:
            z /= 1.0 + z
        passes = (np.bincount(ends, z, n) <= limit).all()
        lo, hi = (lo, mid) if passes else (mid, hi)
    return hi


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
                 name) -> _VertexRoot:
    """Safeguarded Newton on the largest root of lambda(t) = 0, where
    lambda < 0 below that root and lambda >= 0 from it up to ``hi``,
    started at t in [lo, hi].  ``evaluate(t)`` gives (lambda, its
    vector, its slope, its stop scale), or lambda = -inf where t is
    certified below the root; ``name()`` names the graph in errors.
    A start at hi with lambda <= 0 there is a root on the bound, lambda
    < 0 only by rounding.  Once a Newton step is at most 0.1 t, it is
    replaced by the zero of the inverse cubic Hermite interpolant through
    the last two evaluations (``_inverse_hermite``, order 1 + sqrt 3
    against Newton's 2) wherever that zero lies inside the bracket.  A
    step that would leave the bracket bisects, and a solve that ends on a
    point certified below returns its evaluated upper end instead.

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
            exc.t, exc.component = t, name()
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
        prev = (t, lam, dlam) if dlam > 0.0 else None
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
    with M(t) the vertex matrix of ``mode`` (module docstring), solved
    once per graph and mode and kept, read-only, in ``graph._memo``.

    Non-backtracking: a connected graph of first Betti number >= 2 is
    solved as it is, unreduced (its M(t) has the largest root of its
    core), any other has h = 0; a disconnected graph takes the roots of
    its components (``graph._component``, each built once): h is their
    maximum.  Backtracking: one solve of I - W(t) over the whole graph;
    h = 0 where lambda_min(I - W(0)) >= 0, an evaluation ``evals`` counts.
    """
    if mode in graph._memo:
        return graph._memo[mode]
    zero = _VertexRoot(0.0, None, 0.0, 0.0, (0.0, 0.0), 0)
    whole, split = graph._edge_arrays, graph._split[1]
    if mode is TransferMode.BACKTRACKING:
        gate = bool(graph.darts) and _lambda_min(whole, 0.0, mode)[0] < 0.0
        root = _cold_root(whole, mode) if gate else zero
        root = replace(root, evals=root.evals + bool(graph.darts))
    elif len(split) == 1:
        root = _cold_root(whole) if whole.tails.size > whole.n else zero
    else:  # the first component of the largest h; every h here is > 0
        roots = [(_vertex_root(_component(graph, k)), k)
                 for k, (v, e) in enumerate(split) if e.size > v.size]
        best, k = max(roots, key=lambda r: r[0].h, default=(zero, None))
        v = best.v
        if k is not None:
            v = np.zeros(whole.n)
            v[split[k][0]] = best.v
        root = replace(best, v=v, evals=sum(r.evals for r, _ in roots))
    if root.v is not None:
        root.v.setflags(write=False)
    graph._memo[mode] = root
    return root


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
                ) -> _VertexRoot:
    """Largest root h' of lambda_min(M_G(t)) = 0 for a graph G made of a
    base of entropy ``h_base`` and new edges with the ends S (vertex
    indices ``ends``), as the ``_VertexRoot`` of K(t) described below.

    h' is the largest root of lambda_min(K(t)) = 0 for the Schur
    complement K = M_SS - M_SR M_RR^{-1} M_RS of M_G(t), R the other
    vertices (Haynsworth's inertia theorem, ``incremental`` module
    docstring).  Each evaluation assembles M_G(t) with R first, so that
    its blocks are slices, and factors M_RR, the block of the base; a
    failed Cholesky certifies t <= h_base, and one above h_base is
    rounding and takes lambda_min(M_G(t)) instead.  With u the unit
    eigenvector of lambda_min(K), w = (u, -M_RR^{-1} M_RS u) has
    w^T M_G w = u^T K u and w^T M_G' w = u^T K' u, so lambda and its slope
    are the edge-form quotients of w (``_edge_quotients``), which keep
    their digits where the assembled K has lost them.

    K(t) is smooth across h_base, so Newton steps may go below it: they
    start at h_base (1 + 1e-6) in the bracket [h_base (1 - 1e-6), hi],
    and h' can end below h_base.  Where the entropy of the base is attained
    away from S, K has a pole where M_RR turns singular, at most h_base,
    and the root can lie within an ulp above it: there the solve bisects
    down to the Cholesky boundary, and |lambda_min(K(h'))| need not be
    small.
    """
    n, on_s = edges.n, np.zeros(edges.n, dtype=bool)
    on_s[ends] = True
    r = (~on_s).nonzero()[0]
    k, place = r.size, np.empty(n, dtype=np.intp)  # k = |R|
    place[np.concatenate((r, on_s.nonzero()[0]))] = np.arange(n)  # R first
    scatter = (place[:, None] * n + place).ravel()[edges.scatter]

    def evaluate(t: float):
        terms = _vertex_terms(edges, t, mode, True)
        mat = _assemble(scatter, *terms[:2])
        factor, info = dpotrf(mat[:k, :k])
        if info != 0:  # t <= h_base, or rounding above it (docstring)
            return (_lambda_min(edges, t, mode) if t > h_base
                    else (-math.inf, None, math.nan, 0.0))
        m_rs = mat[:k, k:].copy()  # strided, BLAS sums in another order
        x = dpotrs(factor, m_rs)[0] if k else m_rs
        u = _lowest_vector(mat[k:, k:] - m_rs.T.dot(x))
        w = np.concatenate((-x.dot(u), u))[place]
        lam, dlam, noise = _edge_quotients(edges, *terms, w)
        return lam, w, dlam, noise

    hi = _upper_start(edges, mode)
    start = min(h_base * (1.0 + 1e-6), hi) if h_base > 0.0 else hi
    return _newton_down(evaluate, start, h_base * (1.0 - 1e-6), hi,
                        edges.name)


def _dart_core(comp: MetricGraph) -> tuple[MetricGraph | None, float]:
    """(reduced core, ``_row_sum_bound`` of the core) of a connected
    graph whose core is hyperbolic, (None, 0) for any other; made once per
    graph and kept in ``comp._memo``, so that repeated solves on one graph
    reuse the core with its transition pattern and its strongly connected
    split (``MetricGraph._nb_blocks``)."""
    if "dart core" not in comp._memo:
        red, core, start = reduce(comp), None, 0.0
        if red.kinds[0] is ComponentKind.HYPERBOLIC:
            core = red.graph
            start = _row_sum_bound(core._edge_arrays,
                                   TransferMode.NON_BACKTRACKING)
        comp._memo["dart core"] = core, start
    return comp._memo["dart core"]


def volume_entropy(graph: MetricGraph) -> EntropyResult:
    """Volume entropy of a metric graph.

    Each connected component is reduced first, once per graph object
    (``_dart_core``); trivial and single-cycle components contribute
    exactly 0, hyperbolic components are solved for
    rho(B(t)) = 1 by ``_newton_down`` on ``_log_rho``, started at the
    row-sum bound of the core (``_row_sum_bound``), which is also the top
    of its bracket.  Once the loop stops, the entropy of the component is
    the Newton update t - lambda / lambda' of its last evaluation, clamped
    to the bracket that ``EntropyResult`` reports; it costs no evaluation.
    The entropy of the graph is the maximum over components.  A
    NonConvergence of the power iteration carries the t and the component
    (its least vertex) it was met at.

    No entropy is ever reported for an invalid graph: the MetricGraph
    constructor refuses one with ValidationFailed.
    """
    per: list[tuple[str, float]] = []
    best, evals = EntropyResult(0.0, 0.0, 0, (0.0, 0.0), ()), 0
    for comp in components(graph):
        cid = min(comp.vertices)
        core, hi = _dart_core(comp)
        if core is None:
            per.append((cid, 0.0))
            continue
        try:
            root = _newton_down(lambda t: _log_rho(core, t), hi, 0.0, hi,
                                lambda: cid)
        except NonConvergence as exc:
            exc.component = cid
            raise
        evals += root.evals
        t, lam, lo, hi = root.h, root.null_eigenvalue, *root.bracket
        delta = abs(lam) / core.min_length()
        lo, hi = max(lo, t - delta), min(hi, t + delta)
        step = lam / root.dlambda if root.dlambda > 0.0 else 0.0
        h = min(max(t - step, lo), hi)
        per.append((cid, h))
        if h > best.h:
            best = EntropyResult(h, abs(math.expm1(-lam)), 0, (lo, hi), ())

    return replace(best, iterations=evals, per_component=tuple(per))


def rho_curve(graph: MetricGraph, t_values: Sequence[float],
              mode: TransferMode = TransferMode.NON_BACKTRACKING
              ) -> list[tuple[float, float]]:
    """Sample (t, rho(B(t))) along a parameter grid, each radius from the
    dense eigenvalues of B(t); diagnostic helper."""
    return [(float(t), float(np.abs(np.linalg.eigvals(
        build_transfer(graph, float(t), mode).matrix)).max(initial=0.0)))
        for t in t_values]
