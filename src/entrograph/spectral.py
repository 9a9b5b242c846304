"""Nonnegative-matrix machinery for dart-indexed transfer operators.

The weighted transfer matrix B(t) carries weight e^{-t*l(d')} on the
entered dart d' (column-weight convention, fixed project-wide so the
resolvent formulas for path generating functions are unambiguous).  Its
pattern, the dart-transition relation of each mode, is cached on the
graph; ``build_transfer`` fills it into a dense matrix and
``_sparse_transfer`` into a CSR one.  The spectral radius is computed per
strongly connected component of the support digraph with power
iteration on I + B/s, s the block's largest row sum, which neutralizes
periodic supports such as the dart graph of an even cycle: one product
a step, the residual tested every ``_CHECK_EVERY`` steps.  Where no
weight underflows to 0, the support of B(t) is the non-backtracking
pattern itself, whose split the graph caches (``MetricGraph._nb_blocks``)
and a caller hands over.  A CSR matrix is iterated as CSR on blocks of
``_SPARSE_MIN`` darts and more, dense on smaller ones, and a dense block
that has taken ``_STRIDE_AFTER`` n steps takes the steps between two
tests as one product with (I + B/s)^15.  Only the right vector r is
iterated: B(t) = S W with W = diag(e^{-t l}) and S^T = J S J for the
dart reversal J, so B^T (W J r) = W J (B r) and e^{-t l_d} r_{rev d} is
a left vector with at most the residual of r.

The symmetric V x V vertex matrix of the weighted Ihara-Bass identity,
det(I - B(t)) = det M(t) * prod_e (1 - z_e^2) with z_e = e^{-t l_e},
carries the same information for the path generating functions: M(t)
is positive definite exactly when t lies above the entropy.  One kernel
gives the terms of M(t) over an edge set (``graph.EdgeSet``), and of
M'(t) where a slope is needed, as a shift per vertex and a Laplacian
weight per edge, 0 on a loop (``_vertex_terms``); one ``np.bincount``
over the set's flat index ``EdgeSet.scatter`` assembles M(t)
(``_assemble``), and one LAPACK ``dsyevr`` gives lambda_min(M(t)).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse import csr_matrix, identity, issparse

from .errors import NonConvergence, PreconditionError
from .graph import EdgeSet, MetricGraph, _strong_blocks


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


def _pattern(graph: MetricGraph, mode: TransferMode):
    """The cached (rows, cols, CSR row offsets) of the relation of
    ``transitions``."""
    return (graph._bt_transitions if mode is TransferMode.BACKTRACKING
            else graph._nb_transitions)


def transitions(graph: MetricGraph,
                mode: TransferMode = TransferMode.NON_BACKTRACKING
                ) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (d, d') of the dart-transition relation:
    head(d) = tail(d'), without d' = reverse(d) in non-backtracking mode.
    Pairs come in row-major order, the successors of d, the out-darts of
    head(d), in dart-id order.  The graph caches them.
    """
    return _pattern(graph, mode)[:2]


def build_transfer(graph: MetricGraph, t: float,
                   mode: TransferMode = TransferMode.NON_BACKTRACKING
                   ) -> TransferMatrix:
    """Weighted dart-transition matrix of a graph at parameter t >= 0.

    Entry (d, d') is e^{-t*l(d')} when head(d) = tail(d'), excluding
    d' = reverse(d) in non-backtracking mode; all other entries are 0.
    """
    n = len(graph.darts)
    lengths = graph._dart_arrays[0]
    rows, cols = transitions(graph, mode)
    mat = np.zeros((n, n))
    mat[rows, cols] = np.exp(-t * lengths)[cols]
    return TransferMatrix(mat, lengths, float(t), mode)


def _sparse_transfer(graph: MetricGraph, t: float,
                     mode: TransferMode = TransferMode.NON_BACKTRACKING
                     ) -> csr_matrix:
    """The matrix of ``build_transfer`` as a CSR matrix, filled from the
    graph's cached transition pattern without a dense n x n array."""
    n = len(graph.darts)
    _, cols, offsets = _pattern(graph, mode)
    weights = np.exp(-t * graph._dart_arrays[0])[cols]
    return csr_matrix((weights, cols, offsets), shape=(n, n))


def _assemble(scatter: np.ndarray, shift: np.ndarray, weights: np.ndarray):
    """diag(shift) + sum_e weights_e L_e, the sum over the edges e = uw
    with L_e = (e_u - e_w)(e_u - e_w)^T, which is 0 for a loop, by one
    ``np.bincount`` over the flat index ``scatter``
    (``EdgeSet.scatter``): each entry its shift, then uu, ww, uw, wu."""
    n, neg = shift.size, -weights
    values = np.concatenate((shift, weights, weights, neg, neg))
    return np.bincount(scatter, values, n * n).reshape(n, n)


def _apply(edges: EdgeSet, shift: np.ndarray, weights: np.ndarray,
           x: np.ndarray) -> np.ndarray:
    """The matrix of ``_assemble`` times x, a vector or a matrix of
    columns, in the edge form: diag(shift) x plus weights_e L_e x over
    the edges of ``edges``, weights indexed by edge.  It keeps the large
    weights 1/(2 t l) of short edges on differences x_u - x_w, so its
    residuals stay accurate where the assembled matrix has lost digits."""
    col = (slice(None),) + (None,) * (x.ndim - 1)
    flow = weights[col] * (x[edges.tails] - x[edges.heads])
    out = shift[col] * x
    np.add.at(out, edges.tails, flow)
    np.subtract.at(out, edges.heads, flow)
    return out


def _vertex_terms(edges: EdgeSet, t: float, mode: TransferMode, slope: bool):
    """(shift, weights) of M(t) and, with ``slope``, of M'(t) (else None,
    None) for ``_assemble`` and ``_apply``, at t > 0 (t >= 0 backtracking),
    from one x = -t l and z = e^x; the weights are indexed by edge and
    exactly 0.0 on loops, whose L_e is 0.  Non-backtracking: weights
    z/(1-z^2) and -l z(1+z^2)/(1-z^2)^2, z^2 - 1 = expm1(2x), endpoint
    terms -z/(1+z) and l z/(1+z)^2; a loop's net diagonal term in M(t) is
    -2z/(1+z) = tanh(t l/2) - 1, whose 1 cancels the identity first, so a
    short loop keeps its digits.  Backtracking (I - W(t)): weights z and
    -l z, endpoint terms -z and l z.  Endpoint terms count a loop twice."""
    n, u, w, lengths = edges.n, edges.tails, edges.heads, edges.lengths
    loop = edges.loops
    z = np.exp(x := lengths * -t)  # array * float: float * array is slower
    shift, d_shift, d_weights = 1.0, None, None  # shift: an array below
    if mode is TransferMode.BACKTRACKING:
        weights, drop, rise = z.copy(), z, lengths * z  # loops zero weights
        d_weights = -rise if slope else None
    else:
        q = np.expm1(x + x)  # z^2 - 1
        weights, zp = -(z / q), z + 1.0
        drop = z / zp
        if slope:
            d_weights = -(lengths * z * (z * z + 1.0) / (q * q))
            rise = lengths * z / (zp * zp)
        if loop.size:
            shift -= np.bincount(u[loop], minlength=n)
            shift += np.bincount(u[loop], np.tanh(0.5 * t * lengths[loop]), n)
            drop[loop] = 0.0
    weights[loop] = 0.0
    shift = np.subtract(shift, np.bincount(u, drop, n))
    shift -= np.bincount(w, drop, n)
    if slope:
        d_weights[loop] = 0.0
        d_shift = np.bincount(u, rise, n) + np.bincount(w, rise, n)
    return shift, weights, d_shift, d_weights


def vertex_matrix(graph: MetricGraph, t: float,
                  mode: TransferMode = TransferMode.NON_BACKTRACKING
                  ) -> np.ndarray:
    """Symmetric V x V vertex matrix at parameter t > 0, rows and columns
    in ``graph.vertices`` order.

    Non-backtracking: M(t) = I + D - A with A_uv = sum_{e=uv} z/(1-z^2)
    and D_vv = sum_{e at v} z^2/(1-z^2), z = e^{-t l_e} (weighted
    Ihara-Bass; Watanabe & Fukumizu, NeurIPS 2009).  A loop at v enters
    as its net diagonal term -2z/(1+z), which avoids the cancellation of
    2z^2/(1-z^2) - 2z/(1-z^2) for short loops (``_vertex_terms``).
    Backtracking: I - W(t) with W_uv = sum_{e=uv} z, so a loop
    contributes 2z.  In both modes the matrix is positive definite
    exactly when t exceeds the entropy of the mode, and
    f_xy(t) = (M^{-1})_xy - delta_xy.  Raises PreconditionError unless
    t > 0, or t >= 0 in backtracking mode.
    """
    if not (t > 0 or t == 0 and mode is TransferMode.BACKTRACKING):
        raise PreconditionError(f"the vertex matrix needs t > 0 (t >= 0 "
                                f"backtracking), got t = {t!r}")
    edges = graph._edge_arrays
    shift, weights, _, _ = _vertex_terms(edges, t, mode, False)
    return _assemble(edges.scatter, shift, weights)


# Power steps per residual test.  A test took 9.3 / 12.7 / 13.4 us and a
# step 1.0 / 4.0 / 4.7 us at 36 (dense) / 150 (dense) / 354 (CSR) darts;
# a converged block takes up to _CHECK_EVERY - 1 steps more.  16 ran
# volume_entropy fastest of 4, 8, 16 when a test cost about one step, and
# any other value moves the step counts (one BLAS thread).
_CHECK_EVERY = 16
# Block size from which a CSR block is iterated as CSR.  One step took
# about 4 us either way at n = 150, 6.4 (dense) / 4.3 (CSR) us at 214,
# 16 / 5.2 us at n = 354 and 396 / 7.2 us at n = 1056 (same host).  A
# CSR block keeps single steps throughout: its (I + B/s)^15 fills in.
_SPARSE_MIN = 160
# Steps per row after which a dense block forms P = (I + B/s)^15.
# Forming P (six n x n products) and the slower steps right after it cost
# as much as 1.4n to 2.2n steps saved by P x, at n = 22 to 150 (one BLAS
# thread, a shared 2-core host).  volume_entropy over generate_graph's
# ladder and the spread graphs ran equally fast from 3n to 8n and slower
# at n and 2n, where the V = 10 ladder blocks, done in 3n to 5n steps,
# pay for P and use it once or twice.
_STRIDE_AFTER = 4


def _as_matrix(matrix):
    if isinstance(matrix, TransferMatrix):
        return matrix.matrix
    if issparse(matrix):
        return (matrix if matrix.format == "csr" and matrix.dtype == float
                else csr_matrix(matrix, dtype=float))
    return np.asarray(matrix, dtype=float)


def _power_block(block, tol: float, max_iter: int):
    """Perron value/vector of an irreducible nonnegative block, dense or
    CSR.

    Iterates x <- (I + B/s) x, one product with a matrix built once in
    the block's format, s > 0 its largest row sum: the shift makes the
    iteration primitive regardless of the block's period without
    drowning small-norm blocks.  x is scaled to unit sum only where it
    is tested, at every ``_CHECK_EVERY``-th step and at step
    ``max_iter``; in between no entry shrinks and the sum grows by at
    most (1 + k)^16, k the largest in-degree of the support (each column
    sum of B/s is at most k).  The test is ||B x - rho x||_inf <=
    tol ||B||_inf ||x||_inf, the scale-invariant residual floating point
    can reach.  The iterates are those of a test at every step up to
    scale and rounding: a block that such a test would stop at step k
    stops at the first tested step from k on (the residual keeps
    falling), and one it would fail fails too.

    A dense block that has taken ``_STRIDE_AFTER`` n steps forms
    P = (I + B/s)^15 once and from then on takes the 15 steps from one
    test to the step before the next as the one product P x; the steps,
    the tests and the step counts stay those above, and only the
    rounding of x differs.  The switch depends on the step count alone.
    """
    n = block.shape[0]
    scale = float(abs(block).sum(axis=1).max())
    if issparse(block):  # B/s entry by entry: scipy's B / s takes 1/s,
        step = identity(n, format="csr") + csr_matrix(  # inf below 2^-1024
            (block.data / scale, block.indices, block.indptr), shape=(n, n))
        switch = max_iter  # never: P fills in
    else:
        step = np.eye(n) + block / scale
        switch = _STRIDE_AFTER * n
    x = np.full(n, 1.0 / n)
    it, stride = 0, None
    while True:
        check = min(it + _CHECK_EVERY, max_iter)
        if stride is not None and check - it == _CHECK_EVERY:
            x = stride @ x
        else:
            for _ in range(check - it - 1):
                x = step @ x
        it = check
        x /= x.sum()
        bx = block @ x
        rho = float(bx.sum())  # x has unit sum: Rayleigh value without
        resid = np.abs(bx - rho * x).max()  # a 1 + rho cancellation
        if resid <= tol * scale * max(x.max(), 1e-300):
            return rho, x, it
        if it >= max_iter:
            raise NonConvergence(
                f"power iteration residual {resid:.3e} above tol "
                f"{tol:.1e} after {max_iter} iterations (n={n})")
        x = x + bx / scale
        if stride is None and it >= switch:
            stride = np.linalg.matrix_power(step, _CHECK_EVERY - 1)


def spectral_radius(matrix, tol: float = 1e-12, max_iter: int = 10_000,
                    *, blocks: tuple[np.ndarray, ...] | None = None
                    ) -> PerronData:
    """Spectral radius of a square nonnegative matrix with its right
    Perron vector.

    ``matrix`` is dense (an array or a ``TransferMatrix``) or a scipy
    sparse matrix.  The radius is the maximum over the strongly connected
    components of the support digraph; the right vector belongs to the
    maximizing component and is extended by zeros.  A dense matrix is
    iterated dense; a sparse one block by block, as CSR from
    ``_SPARSE_MIN`` rows on and dense below, where a dense product is the
    faster.  Raises NonConvergence when the power-iteration residual
    fails to reach ``tol`` within ``max_iter``.

    ``blocks`` is derived data, not a choice: the components of the
    support as ``graph._strong_blocks`` gives them, which a caller that
    has them cached (``MetricGraph._nb_blocks``) passes in place of
    their computation.  The result is the same bit for bit.
    """
    mat = _as_matrix(matrix)
    n = mat.shape[0]
    if n == 0:
        return PerronData(0.0, np.zeros(0), 0)
    if blocks is None:
        blocks = _strong_blocks(csr_matrix(mat > 0))

    best_rho, best_idx, best_right, total_iters = 0.0, None, None, 0
    for idx in blocks:
        if idx.size == 1 and mat[idx[0], idx[0]] == 0.0:
            continue  # trivial component, eigenvalue 0
        # one component covering the matrix is iterated without a copy
        block = mat if idx.size == n else mat[np.ix_(idx, idx)]
        if issparse(block) and idx.size < _SPARSE_MIN:
            block = block.toarray()
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
