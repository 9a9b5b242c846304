"""Volume entropy of metric graphs.

The entropy of a component with at least two independent cycles is the
unique t* > 0 with rho(B(t*)) = 1, found by safeguarded Newton iteration
on the convex function log rho(B(t)).  The Newton step uses the exact
eigenvalue derivative through the right Perron vector r and the left
one e^{-t l_d} r_{rev d} that the dart reversal gives (see ``spectral``);
whenever an iterate would leave the maintained sign bracket, a bisection
step is taken instead.  A cold solve starts at t = 0 unevaluated, as
rho(B(0)) > 1 on a hyperbolic core, and brackets the root from the
trivial upper bound log(k) / l_min.  A hinted solve starts from its
lower end instead: as log rho is convex and decreasing, a Newton step
from below the root lands at or below it, so the steps climb to the
root without evaluating far above it, where the power iteration is
slowest.  Components that reduce to a tree or to a single cycle have
entropy 0 exactly and are never solved for.

A second, private solver (``_vertex_root``) finds the same h as the
largest root of lambda_min(M(t)) = 0 on the symmetric vertex matrix M(t)
of ``spectral.vertex_form``, which is positive definite exactly above
the entropy.  Each evaluation is one ``eigh`` of the smallest eigenpair,
the eigenvalue refined as the Rayleigh quotient in the edge form, and
its slope v^T M'(t) v makes safeguarded Newton steps down from
log(k) / l_min; no power iteration is involved, so it also solves the
wide-length graphs where the dart iteration does not converge.  Besides
h it gives the null vector and slope that the asymptotic constants
need, and it serves the backtracking mode (I - W(t)) as well.  It is
the base solve of the incremental formulas and the backtracking root of
``counting``.  ``volume_entropy`` keeps the dart solver for now: moving
it over changes which benchmark inputs fail, and so goes with a change
of the benchmark's pinned failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy.linalg import eigh

from .errors import InsufficientData, NonConvergence, ValidationFailed
from .graph import ComponentKind, MetricGraph, components, reduce, validate
from .spectral import (TransferMode, build_transfer, spectral_radius,
                       transitions, vertex_form, vertex_form_dt)

if TYPE_CHECKING:  # pragma: no cover
    from .counting import CountProfile


@dataclass(frozen=True)
class EntropyResult:
    """Volume entropy of a graph (max over connected components)."""

    h: float
    residual: float
    iterations: int
    bracket: tuple[float, float]
    method: str  # "newton" | "bisection" | "hybrid" | "exact"
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


class _RhoRootProblem:
    """rho(B(t)) = 1 root finding on the non-backtracking transfer
    matrices of a graph."""

    def __init__(self, graph: MetricGraph, tol: float, max_iter: int):
        self.graph = graph
        self.lengths = np.array([d.length for d in graph.darts])
        self.reverse = np.array([d.reverse for d in graph.darts])
        # the transition pattern is fixed; an evaluation fills in weights
        self.rows, self.cols = transitions(graph)
        self.l_min = float(np.min(self.lengths))
        self.tol = tol
        self.max_iter = max_iter
        self.evals = 0

    def eval(self, t: float):
        """Return (rho, d(log rho)/dt) at t, recorded as ``self.t``."""
        self.evals += 1
        self.t = t
        n = self.lengths.size
        weights = np.exp(-t * self.lengths)
        mat = np.zeros((n, n))
        mat[self.rows, self.cols] = weights[self.cols]
        data = spectral_radius(mat, tol=min(1e-12, self.tol / 10),
                               max_iter=self.max_iter)
        rho, right = data.rho, data.right
        if rho <= 0.0:
            return 0.0, None
        # left @ right = 0, so bisect, if the block is not closed under
        # reversal (possible only where weights underflow).
        left = weights * right[self.reverse]
        denom = float(left @ right) * rho
        if denom <= 0.0:
            return rho, None
        drho = -float(left @ (mat @ (self.lengths * right)))
        return rho, drho / denom

    def _upper_start(self, t_lo: float):
        """Evaluate the trivial upper bound log(k) / l_min, k the largest
        number of continuations of a dart, doubling it while rho > 1.

        Returns (t_lo, t_hi, rho_hi, dlog_hi), t_lo raised to the last
        doubled point.
        """
        k = self.graph.max_degree() - 1
        t_hi = max(math.log(max(k, 2)) / self.l_min, t_lo + self.l_min, 1e-6)
        rho_hi, g_hi = self.eval(t_hi)
        guard = 0
        while rho_hi > 1.0 + self.tol:
            t_lo = t_hi
            t_hi = 2.0 * t_hi
            rho_hi, g_hi = self.eval(t_hi)
            guard += 1
            if guard > 200:
                raise ValueError("failed to bracket rho(t) = 1 from above")
        return t_lo, t_hi, rho_hi, g_hi

    def solve(self, t_lo: float, rho_lo: float, dlog_lo: float | None):
        """Root of rho(t) = 1 on [t_lo, inf), given rho_lo = rho(t_lo) >= 1
        (inf if only known to exceed 1) and its slope d(log rho)/dt.

        With a usable slope the Newton steps go up from t_lo: log rho is
        convex and decreasing, so each lands at or below the root.  The
        upper start log(k) / l_min is evaluated only without one, or when
        a step fails to move up before an upper end is known.

        Returns (t, residual, method, bracket).
        """
        tol = self.tol
        if rho_lo < 1.0 - tol:
            raise ValueError("lower bracket does not satisfy rho >= 1")
        if abs(rho_lo - 1.0) <= tol:
            return t_lo, abs(rho_lo - 1.0), "exact", (t_lo, t_lo)

        # Residual target tight enough that the derivative bound
        # |d log rho / dt| >= l_min certifies a bracket of width <= tol.
        g_target = tol * min(1.0, 0.45 * self.l_min)
        lo, hi = t_lo, math.inf
        t, rho, dlog = t_lo, rho_lo, dlog_lo
        hybrid = False
        best = (t, abs(rho - 1.0))
        steps = 0
        while steps < 120:
            g = math.log(rho) if rho > 0 else -math.inf
            if abs(g) <= g_target and abs(rho - 1.0) <= tol:
                break
            t_next = None
            if dlog is not None and dlog < 0 and math.isfinite(g):
                t_next = t - g / dlog
            if hi == math.inf and (t_next is None or t_next <= lo):
                lo, t, rho, dlog = self._upper_start(lo)
                hi = t
                if abs(rho - 1.0) <= tol:
                    return t, abs(rho - 1.0), "exact", (lo, hi)
                if abs(rho - 1.0) < best[1]:
                    best = (t, abs(rho - 1.0))
                continue
            if t_next is None or not (lo < t_next < hi):
                t_next = 0.5 * (lo + hi)
                hybrid = True
            t_prev, t = t, t_next
            steps += 1
            rho, dlog = self.eval(t)
            if rho >= 1.0:
                lo = t
            else:
                hi = t
            if abs(rho - 1.0) < best[1]:
                best = (t, abs(rho - 1.0))
            # a collapsed bracket, or a step up below float resolution
            width = hi - lo if hi < math.inf else t - t_prev
            if width <= 1e-15 * max(1.0, t):
                break
        else:  # pragma: no cover - iteration cap
            t, _ = best
            rho, dlog = self.eval(t)
        # Certify the bracket around the final iterate.
        delta = abs(math.log(max(rho, 1e-300))) / self.l_min
        bracket = (max(lo, t - delta), min(hi, t + delta))
        method = "hybrid" if hybrid else "newton"
        return t, abs(rho - 1.0), method, bracket


@dataclass(frozen=True)
class _VertexRoot:
    """Largest root h of lambda_min(M(t)) = 0 (``_vertex_root``).

    ``v`` is the unit eigenvector of lambda_min(M(h)) in ``graph.vertices``
    order, zero off the component that attains h, and None when h = 0
    was not solved for; ``null_eigenvalue`` is lambda_min(M(h)), which
    stands in for 0, and ``dlambda`` = v^T M'(h) v its slope.  In
    ``bracket`` = (lo, hi), lambda_min < 0 at lo or lo is the unevaluated
    lower end 0, and lambda_min >= 0 at hi.  ``evals`` counts the
    ``eigh`` calls.
    """

    h: float
    v: np.ndarray | None
    null_eigenvalue: float
    dlambda: float
    bracket: tuple[float, float]
    evals: int


_NEWTON_CAP = 200


def _lambda_min(graph: MetricGraph, t: float, mode: TransferMode):
    """(lambda_min(M(t)), its unit eigenvector, its slope v^T M'(t) v)."""
    form = vertex_form(graph, t, mode)
    _, vecs = eigh(form.matrix(), subset_by_index=[0, 0])
    v = vecs[:, 0]
    return (float(v @ form.apply(v)), v,
            float(v @ vertex_form_dt(graph, t, mode).apply(v)))


def _newton_down(graph: MetricGraph, mode: TransferMode, lo: float,
                 evals: int) -> _VertexRoot:
    """Safeguarded Newton on lambda_min(M(t)) down from the upper start
    log(max(k, 2)) / l_min, k the largest number of continuations of a
    dart, where rho(B(t)) <= 1; ``lo`` is a lower end, ``evals`` the
    evaluations made so far."""
    k = graph.max_degree() - (mode is TransferMode.NON_BACKTRACKING)
    t = hi = math.log(max(k, 2)) / graph.min_length()
    lam, v, dlam = _lambda_min(graph, t, mode)
    evals += 1
    if lam <= 0.0:  # a root on the bound, lam < 0 only by rounding
        return _VertexRoot(t, v, lam, dlam, (t, t), evals)
    while True:
        t_next = t - lam / dlam if dlam > 0.0 else math.nan
        if abs(t_next - t) <= 1e-15 * max(1.0, t):
            break
        if not lo < t_next < hi:
            t_next = 0.5 * (lo + hi)
        t = t_next
        lam, v, dlam = _lambda_min(graph, t, mode)
        evals += 1
        if lam < 0.0:
            lo = t
        else:
            hi = t
        if hi - lo <= 1e-15 * max(1.0, t):
            break
        if evals >= _NEWTON_CAP:
            exc = NonConvergence(
                f"lambda_min(M(t)) = 0 unresolved after {evals} evaluations "
                f"on [{lo!r}, {hi!r}]")
            exc.t, exc.component = t, min(graph.vertices)
            raise exc
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
        lam0, _, _ = _lambda_min(graph, 0.0, mode)
        if lam0 >= 0.0:
            return replace(zero, evals=1)
        return _newton_down(graph, mode, 0.0, 1)
    best, comp_best, evals = zero, graph, 0
    for comp in components(graph):
        if comp.edge_count - len(comp.vertices) + 1 <= 1:
            continue
        root = _newton_down(comp, mode, 0.0, 0)
        evals += root.evals
        if root.h > best.h:
            best, comp_best = root, comp
    v = best.v
    if v is not None and comp_best.vertices != graph.vertices:
        index = {u: i for i, u in enumerate(graph.vertices)}
        v = np.zeros(len(index))
        v[[index[u] for u in comp_best.vertices]] = best.v
    return replace(best, v=v, evals=evals)


def volume_entropy(graph: MetricGraph, tol: float = 1e-10,
                   max_iter: int = 10_000,
                   bracket_hint: float | None = None) -> EntropyResult:
    """Volume entropy of a metric graph.

    Each connected component is reduced first; trivial and single-cycle
    components contribute exactly 0, hyperbolic components are solved for
    rho(B(t)) = 1.  The entropy of the graph is the maximum over
    components.  ``bracket_hint`` (a known lower bound for the answer,
    e.g. the previous entropy along a filtration) is evaluated first in
    each component solve: where rho is at least 1 there, the Newton
    steps go up from it, with the upper start log(k) / l_min only as a
    fallback; a hint above the root is dropped for a cold solve.

    Raises ValidationFailed on invalid input: no entropy is ever reported
    for a non-validated graph.
    """
    report = validate(graph)
    if report:
        raise ValidationFailed(report)

    per: list[tuple[str, float]] = []
    best = None  # (h, residual, iterations, bracket, method)
    total_iters = 0
    for comp in components(graph):
        cid = min(comp.vertices)
        red = reduce(comp)
        if red.kinds[0] is not ComponentKind.HYPERBOLIC:
            per.append((cid, 0.0))
            continue
        problem = _RhoRootProblem(red.graph, tol, max_iter)
        t_lo, rho_lo = 0.0, math.inf  # rho(B(0)) > 1 on a hyperbolic core
        try:
            dlog_lo = None
            if bracket_hint is not None and bracket_hint > 0:
                rho_hint, dlog_hint = problem.eval(bracket_hint)
                if rho_hint >= 1.0 - tol:
                    t_lo, rho_lo, dlog_lo = bracket_hint, rho_hint, dlog_hint
            t, resid, method, bracket = problem.solve(t_lo, rho_lo, dlog_lo)
        except NonConvergence as exc:
            exc.t, exc.component = problem.t, cid
            raise
        total_iters += problem.evals
        per.append((cid, t))
        if best is None or t > best[0]:
            best = (t, resid, problem.evals, bracket, method)

    if best is None:
        result = EntropyResult(0.0, 0.0, total_iters, (0.0, 0.0), "exact",
                               tuple(per))
    else:
        result = EntropyResult(best[0], best[1], total_iters, best[3],
                               best[4], tuple(per))
    return result


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
