"""Nonnegative-matrix machinery for dart-indexed transfer operators.

The weighted transfer matrix B(t) carries weight e^{-t*l(d')} on the
entered dart d' (column-weight convention, fixed project-wide so the
resolvent formulas for path generating functions are unambiguous).  The
spectral radius is computed per strongly connected component of the
support digraph with power iteration on (I + M), which neutralizes
periodic supports such as the dart graph of an even cycle.  Only the
right vector r is iterated: B(t) = S W with W = diag(e^{-t l}) and
S^T = J S J for the dart reversal J, so B^T (W J r) = W J (B r) and
e^{-t l_d} r_{rev d} is a left vector with at most the residual of r.

The symmetric V x V vertex matrix of the weighted Ihara-Bass identity,
det(I - B(t)) = det M(t) * prod_e (1 - z_e^2) with z_e = e^{-t l_e},
carries the same information for the path generating functions: M(t)
is positive definite exactly when t lies above the entropy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .errors import NonConvergence
from .graph import MetricGraph


class TransferMode(Enum):
    NON_BACKTRACKING = "non-backtracking"
    BACKTRACKING = "backtracking"


@dataclass(frozen=True)
class TransferMatrix:
    """Dart-indexed weighted transition matrix at parameter t."""

    matrix: np.ndarray
    dart_lengths: np.ndarray
    t: float
    mode: TransferMode


@dataclass(frozen=True)
class PerronData:
    """Spectral radius with the right Perron vector of the maximizing
    component.

    ``right`` is the unit-sum Perron vector of the strongly connected
    component attaining the radius, extended by zeros to full dimension
    (of B(t), e^{-t l} * right[rev] is a left one; see the module doc).
    Its residual ||B r - rho r||_inf <= tol ||B||_inf ||r||_inf on that
    component is certified: ``spectral_radius`` raises otherwise.
    ``iterations`` counts the power steps over all components.
    """

    rho: float
    right: np.ndarray
    iterations: int


def transitions(graph: MetricGraph,
                mode: TransferMode = TransferMode.NON_BACKTRACKING
                ) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays (d, d') of the dart-transition relation: head(d) =
    tail(d'), without d' = reverse(d) in non-backtracking mode.  Pairs
    come in row-major order, the successors of d in dart-id order.
    """
    index = {v: i for i, v in enumerate(graph.vertices)}
    tails = np.array([index[d.tail] for d in graph.darts], dtype=np.intp)
    heads = np.array([index[d.head] for d in graph.darts], dtype=np.intp)
    by_tail = np.argsort(tails, kind="stable")
    sorted_tails = tails[by_tail]
    first = np.searchsorted(sorted_tails, heads, side="left")
    count = np.searchsorted(sorted_tails, heads, side="right") - first
    rows = np.repeat(np.arange(len(graph.darts)), count)
    # pair k is successor k - start[d] of its row d, start[d] the row's
    # first pair, and that successor sits at first[d] + k - start[d]
    start = np.cumsum(count) - count
    cols = by_tail[np.arange(rows.size) + np.repeat(first - start, count)]
    if mode is TransferMode.NON_BACKTRACKING:
        reverse = np.array([d.reverse for d in graph.darts], dtype=np.intp)
        keep = cols != reverse[rows]
        rows, cols = rows[keep], cols[keep]
    return rows, cols


def build_transfer(graph: MetricGraph, t: float,
                   mode: TransferMode = TransferMode.NON_BACKTRACKING
                   ) -> TransferMatrix:
    """Weighted dart-transition matrix of a graph at parameter t >= 0.

    Entry (d, d') is e^{-t*l(d')} when head(d) = tail(d'), excluding
    d' = reverse(d) in non-backtracking mode; all other entries are 0.
    """
    n = len(graph.darts)
    lengths = np.array([d.length for d in graph.darts], dtype=float)
    rows, cols = transitions(graph, mode)
    mat = np.zeros((n, n))
    mat[rows, cols] = np.exp(-t * lengths)[cols]
    return TransferMatrix(mat, lengths, float(t), mode)


@dataclass(frozen=True)
class VertexForm:
    """The vertex matrix as diag(shift) + sum_e weight_e L_e, the sum
    over the non-loop edges e = uw with L_e = (e_u - e_w)(e_u - e_w)^T.

    Applying the matrix in this form (``apply``) keeps the large weights
    1/(2 t l) of short edges on differences x_u - x_w, so its residuals
    stay accurate where the assembled matrix has lost digits.
    """

    shift: np.ndarray
    tails: np.ndarray
    heads: np.ndarray
    weights: np.ndarray

    def matrix(self) -> np.ndarray:
        mat = np.diag(self.shift)
        u, w, c = self.tails, self.heads, self.weights
        np.add.at(mat, (u, u), c)
        np.add.at(mat, (w, w), c)
        np.add.at(mat, (u, w), -c)
        np.add.at(mat, (w, u), -c)
        return mat

    def apply(self, x: np.ndarray) -> np.ndarray:
        """The matrix times x, a vector or a matrix of columns."""
        col = (slice(None),) + (None,) * (x.ndim - 1)
        flow = self.weights[col] * (x[self.tails] - x[self.heads])
        out = self.shift[col] * x
        np.add.at(out, self.tails, flow)
        np.subtract.at(out, self.heads, flow)
        return out


def _edge_arrays(graph: MetricGraph):
    """Vertex count, then tail and head indices (``graph.vertices``
    order) and lengths of the edges."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    edges = graph.edge_darts()
    u = np.array([index[d.tail] for d in edges], dtype=np.intp)
    w = np.array([index[d.head] for d in edges], dtype=np.intp)
    return len(index), u, w, np.array([d.length for d in edges], dtype=float)


def vertex_form(graph: MetricGraph, t: float,
                mode: TransferMode = TransferMode.NON_BACKTRACKING
                ) -> VertexForm:
    """Vertex matrix at parameter t > 0, indexed in ``graph.vertices``
    order (see ``vertex_matrix``)."""
    n, u, w, lengths = _edge_arrays(graph)
    z = np.exp(-t * lengths)
    loop = u == w
    if mode is TransferMode.BACKTRACKING:
        weights, drop = z[~loop], z
    else:
        # z/(1-z^2) on L_e leaves z/(1+z) to remove from each endpoint;
        # a loop's net diagonal term is -2z/(1+z).
        weights = z[~loop] / -np.expm1(-2.0 * t * lengths[~loop])
        drop = z / (1.0 + z)
    shift = np.ones(n)
    np.subtract.at(shift, u, drop)
    np.subtract.at(shift, w, drop)
    return VertexForm(shift, u[~loop], w[~loop], weights)


def vertex_form_dt(graph: MetricGraph, t: float,
                   mode: TransferMode = TransferMode.NON_BACKTRACKING
                   ) -> VertexForm:
    """t-derivative M'(t) of the vertex matrix, in the layout of
    ``vertex_form``.  Non-backtracking: weights
    d/dt z/(1-z^2) = -l z(1+z^2)/(1-z^2)^2 and endpoint terms
    d/dt -z/(1+z) = l z/(1+z)^2.  Backtracking (I - W(t)): weights -l z
    and endpoint terms l z.  A loop counts at both of its ends, as in
    ``vertex_form``.  With v the unit null vector of M(h), the smallest
    eigenvalue has slope lambda'(h) = v @ vertex_form_dt(graph, h).apply(v).
    """
    n, u, w, lengths = _edge_arrays(graph)
    z = np.exp(-t * lengths)
    loop = u == w
    if mode is TransferMode.BACKTRACKING:
        weights, rise = -lengths[~loop] * z[~loop], lengths * z
    else:
        q = -np.expm1(-2.0 * t * lengths[~loop])
        zl = z[~loop]
        weights = -lengths[~loop] * zl * (1.0 + zl * zl) / (q * q)
        rise = lengths * z / (1.0 + z) ** 2
    shift = np.zeros(n)
    np.add.at(shift, u, rise)
    np.add.at(shift, w, rise)
    return VertexForm(shift, u[~loop], w[~loop], weights)


def vertex_matrix(graph: MetricGraph, t: float,
                  mode: TransferMode = TransferMode.NON_BACKTRACKING
                  ) -> np.ndarray:
    """Symmetric V x V vertex matrix at parameter t > 0, rows and columns
    in ``graph.vertices`` order.

    Non-backtracking: M(t) = I + D - A with A_uv = sum_{e=uv} z/(1-z^2)
    and D_vv = sum_{e at v} z^2/(1-z^2), z = e^{-t l_e} (weighted
    Ihara-Bass; Watanabe & Fukumizu, NeurIPS 2009).  A loop at v enters
    as its net diagonal term -2z/(1+z), which avoids the cancellation of
    2z^2/(1-z^2) - 2z/(1-z^2) for short loops; 1 - z^2 is computed as
    -expm1(-2tl).  Backtracking: I - W(t) with W_uv = sum_{e=uv} z, so a
    loop contributes 2z.  In both modes the matrix is positive definite
    exactly when t exceeds the entropy of the mode, and
    f_xy(t) = (M^{-1})_xy - delta_xy.
    """
    return vertex_form(graph, t, mode).matrix()


def _as_array(matrix) -> np.ndarray:
    if isinstance(matrix, TransferMatrix):
        return matrix.matrix
    return np.asarray(matrix, dtype=float)


def _power_block(block: np.ndarray, tol: float, max_iter: int):
    """Perron value/vector of an irreducible nonnegative block.

    Iterates x <- (s I + B) x with unit-sum normalization, where the
    shift s matches the row-sum scale of B: it makes the iteration
    primitive regardless of the block's period without drowning
    small-norm blocks.  Convergence is declared at
    ||B x - rho x||_inf <= tol ||B||_inf ||x||_inf, the scale-invariant
    residual floating point can reach.
    """
    n = block.shape[0]
    x = np.full(n, 1.0 / n)
    scale = max(float(np.abs(block).sum(axis=1).max()), 1e-300)
    for it in range(1, max_iter + 1):
        bx = block @ x
        rho = float(bx.sum())  # x has unit sum: Rayleigh value without
        resid = np.abs(bx - rho * x).max()  # a 1 + rho cancellation
        if resid <= tol * scale * max(x.max(), 1e-300):
            return rho, x, it
        y = scale * x + bx
        x = y / y.sum()
    raise NonConvergence(
        f"power iteration residual {resid:.3e} above tol {tol:.1e} "
        f"after {max_iter} iterations (n={n})")


def spectral_radius(matrix, tol: float = 1e-12,
                    max_iter: int = 10_000) -> PerronData:
    """Spectral radius of a square nonnegative matrix with its right
    Perron vector.

    The radius is the maximum over the strongly connected components of
    the support digraph; the right vector belongs to the maximizing
    component and is extended by zeros.  Raises NonConvergence when the
    power-iteration residual fails to reach ``tol`` within ``max_iter``.
    """
    mat = _as_array(matrix)
    n = mat.shape[0]
    if n == 0:
        return PerronData(0.0, np.zeros(0), 0)
    support = csr_matrix(mat > 0)
    n_comp, labels = connected_components(support, directed=True,
                                          connection="strong")
    by_label = np.argsort(labels, kind="stable")
    groups = np.split(by_label, np.cumsum(np.bincount(labels))[:-1])
    groups.sort(key=lambda idx: idx[0])  # in order of first index

    best_rho, best_idx, best_right, total_iters = 0.0, None, None, 0
    for idx in groups:
        if idx.size == 1 and mat[idx[0], idx[0]] == 0.0:
            continue  # trivial component, eigenvalue 0
        # one component covering the matrix is iterated without a copy
        block = mat if idx.size == n else mat[np.ix_(idx, idx)]
        rho, right, its = _power_block(block, tol, max_iter)
        total_iters += its
        if rho > best_rho:
            best_rho, best_idx, best_right = rho, idx, right

    right = np.zeros(n)
    if best_idx is None:
        # Nilpotent support: radius 0; any zero column carries an exact
        # right eigenvector.
        right[int(np.argmin(mat.sum(axis=0)))] = 1.0
    else:
        right[best_idx] = best_right
    return PerronData(float(best_rho), right, total_iters)
