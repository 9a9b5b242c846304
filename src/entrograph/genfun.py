"""Path generating functions evaluated through the vertex matrix.

f_xy(t) sums e^{-l(p) t} over all nonempty non-backtracking paths from x
to y.  With the symmetric V x V vertex matrix M(t) = I + D(t) - A(t) of
the weighted Ihara-Bass identity (``spectral.vertex_matrix``; Watanabe &
Fukumizu, NeurIPS 2009) this is

    f_xy(t) = (M(t)^{-1})_xy - delta_xy,    f_x(t) = (M(t)^{-1} 1)_x - 1,

and backtracking paths use I - W(t) in place of M(t).  M(t) is positive
definite exactly when t lies above the component entropy, so one
Cholesky factorization both certifies convergence and serves every
solve; at or below the entropy the evaluation returns the value inf
instead of raising.  So does a solve with an entry below zero (beyond
rounding): M^{-1} >= 0 above the entropy, so it shows a factorization
that succeeded on a numerically singular M(t).  M(t) needs t > 0, so
t <= 0 gives inf as well, which leaves the finite sums of a forest at
t <= 0 unevaluated.

Each solve takes one step of iterative refinement with the residual
computed from the edge form of M(t) (``spectral.VertexForm.apply``).
The assembled matrix carries entries of size 1/(2 t l) for short edges;
their rounding, amplified by the near-singular M(t) just above the
entropy, cost up to 2e-9 relative at t * l_min = 1e-3 and 1.3e-7 below
without the step.  With it, against the dart-matrix resolvent
s_x (I - B(t))^{-1} tau_y on 600 random multigraphs with loops, parallel
edges and lengths 10^U(-3, 3), at t in {1.01h, 1.5h, 3h}, the values
agree within 3e-12 * max(1, |f|) when t * l_min >= 1e-3 and within
3e-11 * max(1, |f|) down to t * l_min = 2e-6.

Every f_ab comes from one query, the block of f over a vertex list
(``_Resolvent.block``, one multi-column solve): ``f_path`` reads f_xy
from the block over (x, y), and ``primitive_matrix`` takes the block over
the heads of the attachment darts in G - v.  ``f_from`` is the one
all-ones solve.  The incremental formulas take no block: their equation
is the Schur complement (I + F)^{-1} of M(t) on the ends of the new
edges, F the block of f there, which ``entropy._schur_root`` forms from
M(t) itself.

The empty path is never counted, including for x = y: paths are edge
concatenations, so f_xx starts at the shortest nonempty cycle through x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import DivergentSeries, InvalidDartIndex, UnknownVertex
from .graph import Dart, MetricGraph, component_of, delete_vertex
from .spectral import TransferMode, vertex_form


@dataclass(frozen=True)
class GenFunValue:
    """Evaluation of a generating function at a real parameter t: the
    value is inf where the series diverges."""

    value: float
    disconnected: bool = False

    @property
    def converged(self) -> bool:
        return math.isfinite(self.value)


class _Resolvent:
    """Shared (graph component, t) factorization context.

    Factors the vertex matrix M(t) once by Cholesky.  ``block`` is the one
    query for path values: every f_ab over a vertex list from one
    multi-column refined solve; ``from_value(x)`` = (M^{-1} 1)_x - 1 is
    the all-ones solve.  ``ok`` is True when the factorization succeeds:
    M(t) is positive definite exactly when t exceeds the component
    entropy, so a failed factorization means the series diverges.  Values
    agree with the dart-matrix resolvent within 3e-12 * max(1, |f|) for
    t * l_min >= 1e-3 (module docstring).
    """

    def __init__(self, comp: MetricGraph, t: float,
                 mode: TransferMode = TransferMode.NON_BACKTRACKING):
        self.index = {v: i for i, v in enumerate(comp.vertices)}
        self._form = self._factor = None
        if t > 0.0:  # z = 1 at t = 0 puts 1/(1 - z^2) = inf in M
            self._form = vertex_form(comp, float(t), mode)
            factor, info = dpotrf(self._form.matrix())  # info > 0: not PD
            if info == 0:
                self._factor = factor
        self.ok = self._factor is not None

    def _solve(self, rhs: np.ndarray) -> np.ndarray:
        """M^{-1} rhs for rhs >= 0, with one refinement step.  M^{-1} >= 0
        for the positive definite Z-matrix M(t), so a column with an entry
        below -1e-9 max(1, |column|_inf) shows a numerically singular
        M(t), and counts as divergence."""
        if not self.ok:
            raise DivergentSeries("series diverges at this parameter")
        u = dpotrs(self._factor, rhs)[0]
        u += dpotrs(self._factor, rhs - self._form.apply(u))[0]
        if np.any(u.min(axis=0)
                  < -1e-9 * np.maximum(1.0, np.abs(u).max(axis=0))):
            raise DivergentSeries("the resolvent solve lost its sign: "
                                  "series diverges at this parameter")
        return u

    def from_value(self, x: str) -> float:
        u = self._solve(np.ones(len(self.index)))
        return max(float(u[self.index[x]]) - 1.0, 0.0)

    def block(self, verts: Sequence[str]) -> np.ndarray:
        """The matrix (f_ab) for a, b in ``verts`` (distinct vertices)."""
        idx = [self.index[v] for v in verts]
        rhs = np.zeros((len(self.index), len(idx)))
        rhs[idx, range(len(idx))] = 1.0
        return np.maximum(self._solve(rhs)[idx] - np.eye(len(idx)), 0.0)


def f_path(graph: MetricGraph, x: str, y: str, t: float,
           mode: TransferMode = TransferMode.NON_BACKTRACKING) -> GenFunValue:
    """Generating function f_xy(t) of paths from x to y.

    Returns value 0 with the ``disconnected`` flag when x and y lie in
    different components (the path set is empty); the value inf when t is
    at or below the component entropy.
    """
    if y not in graph.vertex_set:
        raise UnknownVertex(f"unknown vertex {y!r}")
    comp = component_of(graph, x)
    if y not in comp.vertex_set:
        return GenFunValue(0.0, disconnected=True)
    try:
        return GenFunValue(float(_Resolvent(comp, t, mode).block(
            list(dict.fromkeys((x, y))))[0, -1]))
    except DivergentSeries:
        return GenFunValue(math.inf)


def f_from(graph: MetricGraph, x: str, t: float,
           mode: TransferMode = TransferMode.NON_BACKTRACKING) -> GenFunValue:
    """Generating function f_x(t) = sum_y f_xy(t); one resolvent solve."""
    comp = component_of(graph, x)
    try:
        return GenFunValue(_Resolvent(comp, t, mode).from_value(x))
    except DivergentSeries:
        return GenFunValue(math.inf)


def attachment_darts(graph: MetricGraph, v: str) -> tuple[Dart, ...]:
    """Darts leaving v in dart-id order; defines the 1-based indexing of
    the primitive-cycle bookkeeping at v (a loop contributes both of its
    darts)."""
    return tuple(graph.darts[d] for d in graph.out_darts(v))


def g_primitive(graph: MetricGraph, v: str, i: int, j: int,
                t: float) -> GenFunValue:
    """Generating function g_ij(t) of primitive cycles at v.

    A primitive cycle leaves v along attachment dart e_i, returns along
    the reversal of attachment dart e_j, and does not visit v in its
    interior.  For non-loop attachments:

        g_ij(t) = e^{-(l_i + l_j) t} (f_{v_i v_j}(t) + [v_i = v_j, i != j])

    where f is taken in the graph with v deleted and the indicator adds
    the empty-interior bigon available when e_i, e_j are distinct parallel
    edges.  A loop dart e_i at v is itself a primitive cycle: it
    contributes e^{-l_i t} to g_ij exactly when e_j is its reversal, and
    cannot occur inside any longer primitive cycle.
    """
    darts = attachment_darts(graph, v)
    n = len(darts)
    if not (1 <= i <= n) or not (1 <= j <= n):
        raise InvalidDartIndex(
            f"indices must lie in 1..{n}, got ({i}, {j})")
    ei, ej = darts[i - 1], darts[j - 1]
    if ei.head == v or ej.head == v:  # loop dart at v
        if ei.head == v and ej.id == ei.reverse:
            return GenFunValue(math.exp(-t * ei.length))
        return GenFunValue(0.0)
    inner = f_path(delete_vertex(graph, v), ei.head, ej.head, t)
    if not inner.converged:
        return GenFunValue(math.inf)
    bigon = 1.0 if (ei.head == ej.head and i != j) else 0.0
    return GenFunValue(math.exp(-(ei.length + ej.length) * t)
                       * (inner.value + bigon))


def primitive_matrix(graph: MetricGraph, v: str, t: float,
                     mode: TransferMode = TransferMode.NON_BACKTRACKING
                     ) -> np.ndarray:
    """All g_ij(t) at v as an n x n array, from one factorization of the
    vertex matrix of G - v and one block solve over the distinct heads.

    On the non-loop darts this is the matrix D of adding v back to G - v
    (README, "Incremental formulas"): e^{-(l_i + l_j) t} times f_{v_i v_j}
    plus the bigon indicator [v_i = v_j, i != j].  In backtracking mode
    the interior paths may backtrack, and a cycle may return along the
    reversal of the dart it left by, so the indicator also counts i = j.
    A loop dart's row holds e^{-l t} at its reversal.  Only the component
    of v is factored, so a component of G that v does not touch cannot
    make the series diverge.  Raises DivergentSeries when t is at or below
    the entropy of that component with v removed.

    No solver calls the backtracking mode: ``backtracking_entropy`` solves
    g(t) = 1 on a Schur complement of I - W(t).  It is kept as the
    independent reference that the sum of its entries is 1 at that root.
    """
    darts = attachment_darts(graph, v)
    z = np.exp(-t * np.array([d.length for d in darts]))
    out = np.zeros((len(darts), len(darts)))
    col = {d.id: k for k, d in enumerate(darts)}
    loops = [k for k, d in enumerate(darts) if d.head == v]
    out[loops, [col[darts[k].reverse] for k in loops]] = z[loops]
    inner = [k for k, d in enumerate(darts) if d.head != v]
    if not inner:
        return out
    verts = list(dict.fromkeys(darts[k].head for k in inner))
    slot = [verts.index(darts[k].head) for k in inner]
    f = _Resolvent(delete_vertex(component_of(graph, v), v), t,
                   mode).block(verts)[np.ix_(slot, slot)]
    bigon = np.equal.outer(slot, slot)
    if mode is not TransferMode.BACKTRACKING:
        np.fill_diagonal(bigon, False)
    out[np.ix_(inner, inner)] = np.outer(z[inner], z[inner]) * (f + bigon)
    return out


def check_symmetry(graph: MetricGraph, x: str, y: str, t: float) -> float:
    """|f_xy(t) - f_yx(t)|; path reversal makes this 0 up to float error."""
    fxy = f_path(graph, x, y, t)
    fyx = f_path(graph, y, x, t)
    if not (fxy.converged and fyx.converged):
        raise DivergentSeries(f"f_xy diverges at t={t}")
    return abs(fxy.value - fyx.value)
