"""Brute-force path/cycle enumeration and the counting identities.

The enumeration is the ground-truth oracle of the package: a walk over
the dart sequences shorter than a horizon, exact and duplicate-free.  It
goes level by level, the sequences of one length in darts held as numpy
arrays grouped by their last dart, and extends a whole group by each
successor dart at once; it builds neither M(t) nor B(t).  With a target
vertex (paths x..y, cycles, primitive cycles) it keeps a sequence only
while it can still end in a dart into the target below the horizon: the
shortest such continuation of every dart comes from one Dijkstra over
the reversed transition relation, and the bound carries a 1e-9 r_max
slack that exceeds the rounding of any fold the bound applies to, so no
recorded length is lost.  Counts use the strict convention
N(r) = #{lengths < r} throughout; ties at a grid radius belong to the
open side.

The identity checks query a finished profile with arrays: one
``np.searchsorted`` per profile row and check radius r over the inner
radii r - l, and one ``np.exp`` over the jumps of N.  The step integral
is exact for the step function N, its segments summed with ``math.fsum``.

The count model behind ``horizon_for_budget`` and the enumeration cap
(``_count_model``, the simple pole of f at h) and both routes of
``backtracking_entropy`` run on the symmetric V x V vertex matrix of
``spectral.vertex_form``: the Newton root of its smallest eigenvalue
(``entropy._vertex_root``) and, for the second route, the same Newton
solve on a Schur complement of it (``entropy._schur_root``).  Only the
default h of ``laplace_check`` and ``growth_bounds`` still comes from
the dart solver (``volume_entropy``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .entropy import _EPS, _schur_root, _vertex_root, volume_entropy
from .errors import (DivergentSeries, HorizonTooLarge, MarginTooSmall,
                     NonConvergence, PreconditionError, UnknownVertex)
from .genfun import attachment_darts, f_from, f_path, primitive_matrix
from .graph import (MetricGraph, component_of, components, delete_vertex,
                    first_betti, validate)
from .spectral import TransferMode, transitions

DEFAULT_CAP = 10_000_000


class PathKind(Enum):
    PATHS_XY = "paths-xy"
    PATHS_FROM = "paths-from"
    CYCLES_AT = "cycles-at"
    PRIMITIVE_CYCLES_AT = "primitive-cycles-at"


@dataclass(frozen=True)
class EnumerationSpec:
    """What to enumerate: kind, mode, endpoints and horizon."""

    kind: PathKind
    r_max: float
    mode: TransferMode = TransferMode.NON_BACKTRACKING
    x: str | None = None
    y: str | None = None
    v: str | None = None
    cap: int = DEFAULT_CAP


@dataclass(frozen=True)
class CountProfile:
    """Sorted multiset of enumerated path lengths below a horizon.

    ``by_start`` (cycles) and ``by_pair`` (primitive cycles) are keyed by
    the 1-based attachment-dart indices at the base vertex, matching the
    l^{ij}_m bookkeeping of the recursion checks.
    """

    kind: PathKind
    mode: TransferMode
    r_max: float
    lengths: np.ndarray
    endpoints: tuple
    by_start: dict[int, np.ndarray] = field(default_factory=dict)
    by_pair: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    attachment_ids: tuple[int, ...] = ()

    def count(self, r: float) -> int:
        """N(r): number of recorded lengths strictly below r."""
        return int(np.searchsorted(self.lengths, r, side="left"))

    def count_le(self, r: float) -> int:
        return int(np.searchsorted(self.lengths, r, side="right"))

    def jump_radii(self) -> np.ndarray:
        return np.unique(self.lengths)

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """The jump radii a_k of N and N just past each, ``count_le(a_k)``."""
        jumps, mult = np.unique(self.lengths, return_counts=True)
        return jumps, np.cumsum(mult)

    def to_csv(self) -> str:
        lines = ["length,cumulative"]
        for ell, total in zip(*self.steps()):
            lines.append(f"{float(ell)!r},{int(total)}")
        return "\n".join(lines) + "\n"


_LINEAR_A = 2.0 ** 60


def _count_model(comp: MetricGraph, mode: TransferMode, base: str,
                 target: str | None) -> tuple[float, float]:
    """(A, h) of the count model N(r) ~ A (e^{hr} - 1) of the walks from
    ``base`` in ``comp``, its component: all of them, or those ending at
    ``target``.

    f_xy(t) has the simple pole C_xy t/(t - h), C_xy = v_x v_y /
    (h lambda'(h)), v the unit null vector of M(h) (``_vertex_root``), so
    A = v_base s / (h lambda'(h)) with s = sum v, or v_target.  A = 0 when
    the target lies outside ``comp`` or its entry underflows; |v_base| is
    at least eps, its rounding, so that A > 0 for all walks from base.
    Entropy-0 components grow at most linearly, N(r) ~ D r / l_mean with
    D darts for any target: the pole model as h -> 0 with A h = D / l_mean
    and A = ``_LINEAR_A``, so far above any count a walk reaches that
    A (e^{hr} - 1) = A h r to rounding.
    """
    root = _vertex_root(comp, mode)
    if root.v is None:
        l_mean = float(np.mean([d.length for d in comp.darts]))
        return _LINEAR_A, len(comp.darts) / (_LINEAR_A * l_mean)
    v = dict(zip(comp.vertices, root.v.tolist()))
    s = float(root.v.sum()) if target is None else v.get(target, 0.0)
    return max(abs(v[base]), _EPS) * abs(s) / (root.h * root.dlambda), root.h


def horizon_for_budget(graph: MetricGraph, x: str, target: int,
                       mode: TransferMode = TransferMode.NON_BACKTRACKING
                       ) -> float:
    """Horizon at which about ``target`` walks from x exist: the r with
    A (e^{hr} - 1) = target in the count model of ``_count_model``.
    Raises PreconditionError when no walk leaves x."""
    comp = component_of(graph, x)
    if not comp.darts:
        raise PreconditionError(f"no walk leaves {x!r}: it has no edge")
    a, h = _count_model(comp, mode, x, None)
    return math.log1p(target / a) / h


def _return_bounds(rows: np.ndarray, cols: np.ndarray, lengths: np.ndarray,
                   r_max: float, into: np.ndarray | None) -> np.ndarray:
    """Per dart d2, the bound a sequence ending in d2 must stay below.

    ``into`` holds the darts heading into the target, None without one.
    R(d2) is the shortest continuation after d2 that ends in one of them
    (0 for those darts, inf where none exists), from Dijkstra on the
    reversed transition relation weighted by the length of the entered
    dart, and the bound is min(r_max, r_max - R(d2) + 1e-9 r_max).
    Without a target, or when a continuation may have 10^6 darts or more
    (r_max >= 10^6 l_min), it is r_max.

    Why the slack loses nothing: the walk folds a sequence left to right
    and Dijkstra folds a continuation from its far end; float addition is
    monotone, so R(d2) is at most the fold of any one continuation.  A
    continuation shorter than r_max has j < r_max / l_min < 10^6 darts
    and all its partial sums below r_max, so each fold rounds by at most
    j u r_max < 1.2e-10 r_max (u = 2^-53).  A sequence whose fold ends
    below r_max therefore has a prefix c at d2 with c < r_max - R(d2) +
    2.4e-10 r_max (plus two roundings of the bound itself), well inside
    the slack.
    """
    n = len(lengths)
    if into is None or r_max >= 1e6 * lengths.min(initial=math.inf):
        return np.full(n, r_max)
    back = csr_matrix((lengths[cols], (cols, rows)), shape=(n, n))
    reach = dijkstra(back, indices=into, min_only=True)
    return np.minimum(r_max, r_max - reach + 1e-9 * r_max)


def _walk(comp: MetricGraph, mode: TransferMode, starts, r_max: float,
          target: str | None, stop: bool, limit: int, keep_starts: bool):
    """Level-synchronous walk over the dart sequences that begin with one
    of ``starts``, stay shorter than ``r_max`` and, with a ``target``, can
    still end in a dart heading into it below r_max.

    Level n holds the sequences of n darts as {last dart: parts}, a part
    being (start indices, cumulative lengths), the start indices 1-based
    in ``starts`` in a narrow dtype, or None unless ``keep_starts``.  A
    group d is popped, its parts joined, and extended by all successors
    d2 at once (``spectral.transitions``, so not by the reverse of d when
    non-backtracking): a child cum + l(d2) is kept when below the bound
    of d2 (``_return_bounds``), at most r_max, so every length is the
    left fold of its dart lengths, and becomes a part of group d2 of the
    next level.  The bound drops the children that cannot reach the
    target in time; it is r_max for darts into the target and without a
    target, so no recorded sequence is lost.  Yields (start indices, d,
    cum) for every group whose last dart heads into the vertex ``target``
    (every group when it is None); with ``stop`` those groups are not
    expanded.  Raises HorizonTooLarge once more than ``limit`` nodes have
    been made (kept nodes, pruned children are not counted).
    """
    n = len(comp.darts)
    lengths = np.array([d.length for d in comp.darts], dtype=float)
    rows, cols = transitions(comp, mode)
    hits = [target is None or d.head == target for d in comp.darts]
    bound = _return_bounds(rows, cols, lengths, r_max,
                           None if target is None else np.flatnonzero(hits))
    nexts = np.split(cols, np.searchsorted(rows, np.arange(1, n)))
    succ = [row.tolist() for row in nexts]
    steps = [lengths[row][:, None] for row in nexts]
    bounds = [bound[row][:, None] for row in nexts]
    narrow = np.min_scalar_type(len(starts))
    level = {s: [(np.full(1, i, narrow) if keep_starts else None,
                  np.full(1, lengths[s]))]
             for i, s in enumerate(starts, 1) if lengths[s] < bound[s]}
    made = len(level)
    while level:
        later: dict[int, list] = {}
        while level:
            # every node made lands in a level that is popped from, so
            # this one test sees each count
            if made > limit:
                raise HorizonTooLarge(
                    f"enumeration exceeded its cap; retry with a smaller "
                    f"horizon (suggestion: {0.8 * r_max:.6g})",
                    safe_horizon=0.8 * r_max)
            d, parts = level.popitem()
            if len(parts) == 1:
                (k, cum), = parts
            else:
                cum = np.concatenate([c for _, c in parts])
                k = np.concatenate([k for k, _ in parts]) \
                    if keep_starts else None
            del parts
            if hits[d]:
                yield k, d, cum
                if stop:
                    continue
            child = cum + steps[d]  # one row per successor
            fit = child < bounds[d]
            for d2, row, keep in zip(succ[d], child, fit):
                size = np.count_nonzero(keep)
                made += size
                if size == row.size:
                    later.setdefault(d2, []).append((k, row))
                elif size:
                    later.setdefault(d2, []).append(
                        (None if k is None else k[keep], row[keep]))
        level = later


def enumerate_paths(graph: MetricGraph, spec: EnumerationSpec
                    ) -> CountProfile:
    """Exhaustively enumerate paths or cycles below ``spec.r_max``.

    The count model of ``_count_model`` projects the count first; then a
    level-synchronous walk (``_walk``) extends the dart sequences of one
    length, grouped by last dart, with numpy, and records the groups the
    kind asks for: every group (paths from x), arrivals at y (paths x..y)
    or at v (cycles), or first returns to v, which end the sequence
    (primitive cycles).  For the kinds with a target (y or v) a sequence
    ending in dart d is kept only while its length is below r_max - R(d)
    + 1e-9 r_max (and below r_max), R(d) the shortest continuation into
    the target (``_return_bounds``); the slack is far above the rounding
    of any fold it applies to, so the profile is the same as without
    pruning.  The profile is sorted, so it does not depend on the order
    of the walk.

    Raises HorizonTooLarge (with a safe achievable horizon) when the
    projected count A expm1(h r_max), or the number of nodes walked,
    exceeds ``spec.cap`` (the latter with a 25% + 1024 allowance).  The
    suggestion aims the model at 0.8 cap (1 - e^{-x})/x, x = h l_min: on
    equal lengths N is a step function whose tops, just past each jump,
    are x/(1 - e^{-x}) times the model; after the walk's cap it is
    0.8 r_max.
    """
    report = validate(graph)
    if report:
        raise PreconditionError("enumerate requires a valid graph")
    if spec.r_max <= 0:
        raise PreconditionError("horizon must be positive")

    if spec.kind is PathKind.PATHS_XY:
        base, target, endpoints = spec.x, spec.y, (spec.x, spec.y)
        if spec.y not in graph.vertex_set:
            raise UnknownVertex(f"unknown vertex {spec.y!r}")
    elif spec.kind is PathKind.PATHS_FROM:
        base, target, endpoints = spec.x, None, (spec.x,)
    else:
        base, target, endpoints = spec.v, spec.v, (spec.v,)
    comp = component_of(graph, base)

    starts = comp.out_darts(base)
    if comp.darts:
        a, h = _count_model(comp, spec.mode, base, target)
        with np.errstate(over="ignore"):  # inf past the float range
            projected = float(a * np.expm1(h * spec.r_max)) if a else 0.0
        if projected > spec.cap:
            x = h * comp.min_length()
            safe = math.log1p(0.8 * spec.cap * -math.expm1(-x) / x / a) / h
            raise HorizonTooLarge(
                f"projected count {projected:.3g} exceeds cap {spec.cap:g}; "
                f"a horizon of about {safe:.6g} is achievable",
                safe_horizon=safe)

    primitive = spec.kind is PathKind.PRIMITIVE_CYCLES_AT
    paths = spec.kind in (PathKind.PATHS_XY, PathKind.PATHS_FROM)
    walk = _walk(comp, spec.mode, starts, spec.r_max, target, primitive,
                 int(1.25 * spec.cap) + 1024, not paths)
    if paths:
        lengths = np.concatenate([cum for _, _, cum in walk] or [np.empty(0)])
        lengths.sort()
        return CountProfile(spec.kind, spec.mode, spec.r_max, lengths,
                            endpoints)
    # key k * width + j: out along start k, back along the reverse of
    # start j (primitive cycles); k alone for cycles
    width = len(starts) + 1
    rev_pos = {comp.darts[s].reverse: j for j, s in enumerate(starts, 1)}
    parts = [(cum, k.astype(np.intp) * width + rev_pos[last] if primitive
              else k) for k, last, cum in walk]
    lengths = np.concatenate([cum for cum, _ in parts] or [np.empty(0)])
    keys = np.concatenate([key for _, key in parts]
                          or [np.empty(0, np.intp)])
    rows = {int(key): np.sort(lengths[keys == key])
            for key in np.flatnonzero(np.bincount(keys))}
    if primitive:
        groups = {"by_pair": {divmod(key, width): row
                              for key, row in rows.items()}}
    else:
        groups = {"by_start": rows}
    lengths.sort()
    return CountProfile(spec.kind, spec.mode, spec.r_max, lengths,
                        endpoints, attachment_ids=tuple(starts), **groups)


# -- Laplace transform check (truncated integral plus tail bracket) -------

@dataclass(frozen=True)
class LaplaceReport:
    t: float
    f_value: float
    truncated: float
    tail_upper: float
    h_used: float
    m_used: float
    passed: bool


def _step_integral(profile: CountProfile, weight: float,
                   start: float = 0.0) -> float:
    """weight * integral_start^R N(r) e^{-weight r} dr, exact for the step
    function N: N(a) (e^{-weight a} - e^{-weight b}) over each segment
    [a, b) between start, the later jumps and R, summed with math.fsum."""
    jumps, n_le = profile.steps()
    k = int(np.searchsorted(jumps, start, side="right"))
    edges = np.concatenate(([start], jumps[k:], [profile.r_max]))
    counts = np.concatenate(([n_le[k - 1] if k else 0], n_le[k:]))
    decay = np.exp(-weight * edges)
    return math.fsum((counts * (decay[:-1] - decay[1:])).tolist())


def _genfun_for_profile(profile: CountProfile, graph: MetricGraph, t: float):
    if profile.kind is PathKind.PATHS_XY:
        return f_path(graph, profile.endpoints[0], profile.endpoints[1], t,
                      mode=profile.mode)
    if profile.kind is PathKind.PATHS_FROM:
        return f_from(graph, profile.endpoints[0], t, mode=profile.mode)
    if profile.kind is PathKind.CYCLES_AT:
        v = profile.endpoints[0]
        return f_path(graph, v, v, t, mode=profile.mode)
    raise PreconditionError(
        "laplace_check supports path and cycle profiles only")


def _growth_rate(profile: CountProfile, graph: MetricGraph) -> float:
    if profile.mode is TransferMode.BACKTRACKING:
        return backtracking_entropy(graph, profile.endpoints[0]).h_transfer
    return volume_entropy(graph).h


def laplace_check(profile: CountProfile, graph: MetricGraph, t: float,
                  margin: float = 0.2, m_const: float | None = None,
                  h: float | None = None) -> LaplaceReport:
    """Check that f(t) equals t * integral N(r) e^{-tr} dr.

    The integral is truncated at the profile horizon R and the missing
    tail is bracketed by [0, t * M e^{(h-t)R} / (t-h)]; the report passes
    when the resolvent value of f lies inside the bracketed interval.
    ``m_const`` defaults to twice the largest N(r) e^{-hr} seen over the
    profile's upper half, an empirical stand-in for the proven constant
    when no BoundsReport is supplied.
    """
    if h is None:
        h = _growth_rate(profile, graph)
    if t < h + margin:
        raise MarginTooSmall(
            f"t = {t} is within {margin} of the growth rate {h:.6g}")
    if m_const is None:
        jumps, n_le = profile.steps()
        tail = jumps >= 0.5 * profile.r_max
        if not tail.any():
            tail[:] = True
        scaled = n_le[tail] * np.exp(-h * jumps[tail])
        m_const = 2.0 * (float(scaled.max()) if scaled.size else 1.0)
    truncated = _step_integral(profile, t)
    tail_upper = t * m_const * math.exp((h - t) * profile.r_max) / (t - h)
    f_val = _genfun_for_profile(profile, graph, t)
    if not f_val.converged:
        raise DivergentSeries(f"f diverges at t={t}")
    slack = 1e-9 * max(1.0, f_val.value)
    passed = (truncated - slack <= f_val.value
              <= truncated + tail_upper + slack)
    return LaplaceReport(float(t), f_val.value, truncated, tail_upper,
                         h, m_const, passed)


# -- recursion checks ------------------------------------------------------

def _default_radii(attained: np.ndarray, r_max: float, tie_guard: float,
                   want: int = 20) -> tuple[float, ...]:
    """Up to ``want`` check radii placed inside the gaps between attained
    cycle lengths, subdividing gaps evenly when there are fewer gaps than
    radii; every radius keeps a safe distance from attained values."""
    if attained.size == 0:
        return (r_max,)
    floor = 200.0 * tie_guard
    gap = np.diff(attained)
    wide = gap > floor
    lo = np.append(attained[:-1][wide], attained[-1])
    width = np.append(gap[wide], r_max - attained[-1])
    candidates = np.empty(0)
    parts = 2
    while candidates.size < want and parts <= 4096:
        step = width / parts
        narrow = step <= floor
        step = np.where(narrow, width / 2.0, step)
        n_sub = np.where(narrow, 1, parts - 1)
        i = np.arange(1, n_sub.sum() + 1) - np.repeat(np.cumsum(n_sub) - n_sub,
                                                      n_sub)
        candidates = np.sort(np.repeat(lo, n_sub) + np.repeat(step, n_sub) * i)
        parts *= 2
    if candidates.size > want:
        candidates = candidates[np.unique(
            np.linspace(0, candidates.size - 1, want).astype(int))]
    return tuple(candidates.tolist())


@dataclass(frozen=True)
class RecursionReport:
    r_grid: tuple[float, ...]
    backtracking_mismatches: tuple[tuple[float, int, int], ...]
    non_backtracking_mismatches: tuple[tuple[float, int, int, int], ...]

    @property
    def passed(self) -> bool:
        return not self.backtracking_mismatches \
            and not self.non_backtracking_mismatches


def verify_recursions(graph: MetricGraph, v: str,
                      r_grid=None, r_max: float | None = None,
                      cap: int = DEFAULT_CAP,
                      tie_guard: float = 1e-9) -> RecursionReport:
    """Check the cycle-count recursions as exact integer identities.

    Backtracking: N_v(r) = k + sum_i N_v(r - l_i) over the k primitive
    cycle lengths l_i < r.  Non-backtracking, per starting dart e_i:
    N_i(r) = sum_j sum_{l^ij_m < r} (1 + sum_{k != j} N_k(r - l^ij_m)).
    Radii default to 20 midpoints between attained cycle lengths, which
    keeps every comparison strictly away from ties.

    Every count is evaluated at q - tie_guard.  A cycle length is
    accumulated in a different summation order on the two sides of the
    identity, so the float values differ by a few ulps; any radius
    farther than tie_guard from the attained lengths therefore yields
    the exact integer identity (the inner queries r - l only ever
    approach attained values that recompose to full cycle lengths, which
    the grid already avoids).
    """
    if r_grid is not None:
        r_grid = tuple(float(r) for r in r_grid)
        r_max = max(r_grid)
    if r_max is None:
        raise PreconditionError("either r_grid or r_max is required")

    bt_cyc = enumerate_paths(graph, EnumerationSpec(
        PathKind.CYCLES_AT, r_max, TransferMode.BACKTRACKING, v=v, cap=cap))
    bt_prim = enumerate_paths(graph, EnumerationSpec(
        PathKind.PRIMITIVE_CYCLES_AT, r_max, TransferMode.BACKTRACKING,
        v=v, cap=cap))
    nb_cyc = enumerate_paths(graph, EnumerationSpec(
        PathKind.CYCLES_AT, r_max, TransferMode.NON_BACKTRACKING, v=v,
        cap=cap))
    nb_prim = enumerate_paths(graph, EnumerationSpec(
        PathKind.PRIMITIVE_CYCLES_AT, r_max, TransferMode.NON_BACKTRACKING,
        v=v, cap=cap))

    if r_grid is None:
        r_grid = _default_radii(
            np.unique(np.concatenate([nb_cyc.lengths, bt_cyc.lengths]))
            if bt_cyc.lengths.size else np.array([]), r_max, tie_guard)

    n = graph.degree(v)
    empty = np.array([])
    starts = [nb_cyc.by_start.get(k, empty) for k in range(1, n + 1)]

    def below(arr, q):
        return arr[:np.searchsorted(arr, q)]

    def n_sum(arr, inner):
        return int(np.searchsorted(arr, inner).sum())

    bt_bad: list[tuple[float, int, int]] = []
    nb_bad: list[tuple[float, int, int, int]] = []
    for r, q in zip(r_grid, np.asarray(r_grid) - tie_guard):
        lhs = int(np.searchsorted(bt_cyc.lengths, q))
        inner = (r - below(bt_prim.lengths, q)) - tie_guard
        rhs = inner.size + n_sum(bt_cyc.lengths, inner)
        if lhs != rhs:
            bt_bad.append((r, lhs, rhs))
        for i in range(1, n + 1):
            lhs = int(np.searchsorted(starts[i - 1], q))
            rhs = 0
            for j in range(1, n + 1):
                # the rows of the other starts k != j partition the rest
                # of the cycle lengths
                inner = (r - below(nb_prim.by_pair.get((i, j), empty), q)) \
                    - tie_guard
                rhs += inner.size + n_sum(nb_cyc.lengths, inner) \
                    - n_sum(starts[j - 1], inner)
            if lhs != rhs:
                nb_bad.append((r, i, lhs, rhs))
    return RecursionReport(tuple(r_grid), tuple(bt_bad), tuple(nb_bad))


# -- growth bounds ---------------------------------------------------------

@dataclass(frozen=True)
class BoundsReport:
    """Two-sided growth bound check for cycle counts at a vertex."""

    h: float
    n: int
    m_formula: float
    m_empirical: float
    violations: tuple[tuple[float, int, float], ...]
    perron: np.ndarray
    a_matrix: np.ndarray
    rho_a: float
    r_max: float

    @property
    def passed(self) -> bool:
        return not self.violations


def _require_reduced_hyperbolic(graph: MetricGraph):
    if validate(graph):
        raise PreconditionError("graph is not valid")
    if len(components(graph)) != 1:
        raise PreconditionError("a connected graph is required")
    if first_betti(graph)[0] < 2:
        raise PreconditionError("at least two independent cycles required")
    if min(graph.degree(v) for v in graph.vertices) < 3:
        raise PreconditionError(
            "a reduced graph (all degrees >= 3) is required; call reduce()")


def _over_bound(jumps: np.ndarray, n_le: np.ndarray, m_const: float,
                h: float) -> tuple[tuple[float, int, float], ...]:
    """(radius, N, bound) at every jump where N just past it exceeds the
    bound M e^{hr} by more than 1e-12 relative."""
    bound = m_const * np.exp(h * jumps)
    bad = np.flatnonzero(n_le > bound * (1.0 + 1e-12))
    return tuple((float(jumps[k]), int(n_le[k]), float(bound[k]))
                 for k in bad)


def growth_bounds(graph: MetricGraph, v: str, r_max: float,
                  tol: float = 1e-8, cap: int = DEFAULT_CAP,
                  h: float | None = None) -> BoundsReport:
    """Verify m e^{hr} <= N_v(r) <= M e^{hr} with the explicit constant
    M = (n-1)/(n-2) * (sum w_i) / (min w_i).

    A(h) is assembled from primitive-cycle generating functions at v
    (``primitive_matrix``).  Its Perron root, the eigenvalue of largest
    real part from dense ``np.linalg.eig``, must come out as 1, tying the
    generating-function, spectral and entropy pipelines together.  Its
    Perron vector w, which gives the constant, is A(h) |x| for the
    eigenvector x of that root, normalised to unit sum: the product keeps
    every entry accurate relative to its size, and an underflowed row of
    A(h) exactly 0.  The lower constant is reported empirically as
    the minimum of N_v(r) e^{-hr} over the enumerated range.  ``h`` is
    the entropy of the graph when the caller already holds it.  Raises
    PreconditionError when the entropy of the graph without v reaches h
    in floating point, so that A(h) diverges or its Perron root misses
    1; NonConvergence when the root misses 1 for another reason.
    """
    _require_reduced_hyperbolic(graph)
    n = graph.degree(v)
    if h is None:
        h = volume_entropy(graph).h
    interior = (f"A(h) is not usable at h = {h!r}: the entropy of the "
                f"graph without {v!r} is not below h in floating point")
    try:
        g_mat = primitive_matrix(graph, v, h)
    except DivergentSeries as exc:
        raise PreconditionError(interior) from exc
    a_mat = g_mat.sum(axis=1, keepdims=True) - g_mat
    vals, vecs = np.linalg.eig(a_mat)
    k = int(np.argmax(vals.real))
    rho_a = float(vals[k].real)
    if abs(rho_a - 1.0) > tol:
        # the interior entropy reaching h can also show as a finite A(h)
        if volume_entropy(delete_vertex(graph, v)).h >= h:
            raise PreconditionError(interior)
        raise NonConvergence(
            f"pipeline consistency failure: rho(A(h)) = {rho_a:.12g} "
            f"differs from 1 by more than {tol:g}")
    # eig gives the vector to absolute accuracy only; one product with
    # the nonnegative A(h) gives every entry to relative accuracy
    w = a_mat @ np.abs(vecs[:, k])
    w /= w.sum()
    if np.min(w) <= 0:
        # g has no zero row on a reduced hyperbolic graph in exact
        # arithmetic, so a zero row is e^{-h l} underflowing
        lost = sorted({d.length for d, row in
                       zip(attachment_darts(graph, v), g_mat)
                       if not row.any()})
        if lost:
            raise PreconditionError(
                f"e^(-h l) underflows to 0 at h = {h:.6g} on the "
                f"attachments of length {', '.join(f'{l:g}' for l in lost)}"
                f": their Perron entries are 0, so M = (n-1)/(n-2) sum w "
                f"/ min w is not representable")
        raise PreconditionError("Perron vector is not strictly positive")
    m_formula = (n - 1) / (n - 2) * float(np.sum(w) / np.min(w))

    profile = enumerate_paths(graph, EnumerationSpec(
        PathKind.CYCLES_AT, r_max, TransferMode.NON_BACKTRACKING, v=v,
        cap=cap))
    jumps, n_le = profile.steps()
    # N(r) e^{-hr} just below every jump after the first, and at r_max
    m_emp = min(float((n_le[:-1] * np.exp(-h * jumps[1:])).min(
                    initial=math.inf)),
                profile.count(r_max) * math.exp(-h * r_max))
    return BoundsReport(h, n, m_formula, m_emp,
                        _over_bound(jumps, n_le, m_formula, h), w,
                        a_mat, rho_a, r_max)


@dataclass(frozen=True)
class BacktrackingBoundReport:
    h: float
    l1: float
    m_formula: float
    violations: tuple[tuple[float, int, float], ...]
    r_max: float

    @property
    def passed(self) -> bool:
        return not self.violations


def backtracking_bound(graph: MetricGraph, v: str, r_max: float,
                       cap: int = DEFAULT_CAP) -> BacktrackingBoundReport:
    """Check N_v(r) <= M e^{h r} for backtracking cycles, with the
    closed-form constant M = max(2, 3 e^{-h l1}) and l1 the shortest
    primitive cycle length at v."""
    prim = enumerate_paths(graph, EnumerationSpec(
        PathKind.PRIMITIVE_CYCLES_AT, r_max, TransferMode.BACKTRACKING,
        v=v, cap=cap))
    if prim.lengths.size < 2:
        raise PreconditionError(
            "the backtracking bound needs at least two primitive cycles")
    l1 = float(prim.lengths[0])
    h = backtracking_entropy(graph, v).h_transfer
    m_formula = max(2.0, 3.0 * math.exp(-h * l1))
    profile = enumerate_paths(graph, EnumerationSpec(
        PathKind.CYCLES_AT, r_max, TransferMode.BACKTRACKING, v=v, cap=cap))
    return BacktrackingBoundReport(
        h, l1, m_formula, _over_bound(*profile.steps(), m_formula, h), r_max)


# -- backtracking entropy (two routes) -------------------------------------

@dataclass(frozen=True)
class BacktrackingEntropy:
    h_transfer: float
    h_g_root: float
    residual_transfer: float
    residual_g: float


def backtracking_entropy(graph: MetricGraph, v: str) -> BacktrackingEntropy:
    """Growth rate of backtracking cycles at v, computed two ways, both on
    the symmetric vertex matrix I - W(t) of the component of v.

    Route 1 (``h_transfer``) is the largest root of lambda_min(I - W(t))
    = 0 (``entropy._vertex_root`` in backtracking mode), where
    rho(B_bt(t)) = 1: with H the dart-head incidence and T the dart-tail
    incidence weighted by z = e^{-t l}, B_bt(t) = H T and W(t) = T H, so
    W(t) has the nonzero spectrum of B_bt(t).  Route 2 (``h_g_root``)
    adds v's edges (a loop once) to G - v and an isolated v, and solves
    the incremental formula of that edit in backtracking mode
    (``entropy._schur_root``): the largest root of lambda_min(K(t)) = 0,
    K the Schur complement of I - W(t) on v and its neighbours, at least
    the route-1 entropy of G - v.  The complement of K onto v alone is
    1 - g(t), g the primitive-cycle generating function at v (the sum of
    ``primitive_matrix`` in backtracking mode), so the root is that of
    g(t) = 1.  ``residual_transfer`` is |lambda_min| at h_transfer, and
    ``residual_g`` is |lambda_min(K)| at h_g_root.  The two roots agree
    within solver tolerance.
    """
    comp = component_of(graph, v)
    if not comp.darts:
        return BacktrackingEntropy(0.0, 0.0, 0.0, 0.0)
    route1 = _vertex_root(comp, TransferMode.BACKTRACKING)
    ends = {u for e in comp.edge_list() if v in e[:2] for u in e[:2]}
    h2, resid2, _ = _schur_root(
        comp, ends,
        _vertex_root(delete_vertex(comp, v), TransferMode.BACKTRACKING).h,
        TransferMode.BACKTRACKING)
    return BacktrackingEntropy(route1.h, h2, abs(route1.null_eigenvalue),
                               resid2)
