"""Brute-force path/cycle enumeration and the counting identities.

The enumeration is the ground-truth oracle of the package: a walk over
the dart sequences shorter than a horizon, exact and duplicate-free.  It
goes level by level, the sequences of one length in darts held as numpy
arrays grouped by their last dart, and pulls each group of the next
level from the groups of its dart's predecessors with one concatenation,
one add and one compare; it builds neither M(t) nor B(t).  With a target
vertex (paths x..y, cycles, primitive cycles) it keeps a sequence only
while it can still end in a dart into the target below the horizon: the
shortest such continuation of every dart comes from one Dijkstra over
the reversed transition relation, and the bound carries a 1e-9 r_max
slack that exceeds the rounding of any fold the bound applies to, so no
recorded length is lost.  Counts use the strict convention
N(r) = #{lengths < r} throughout; ties at a grid radius belong to the
open side.

Each enumeration is one walk and one linear-time grouping: the rows of
a cycle profile come from one stable (radix) sort of the walk's narrow
start keys and one in-place sort per row (``_grouped``).
``verify_recursions`` takes its four profiles, the cycles and the
primitive cycles of both modes, from one backtracking walk, and
``backtracking_bound`` its two backtracking ones.  A sequence carries
two flag bits in its start key: a returned bit once it has arrived at
v, and a turned bit once it has stepped back along the dart it arrived
by.  The arrivals without the returned bit are the primitive cycles,
and those without the turned bit the non-backtracking sequences.  A
walk that serves several profiles refuses as its backtracking cycles
walk does.  ``growth_bounds``, which reads no rows, enumerates the paths
v..v: the cycle lengths without start keys.

The identity checks query a finished profile with arrays: one
``np.searchsorted`` per profile row and check radius r over the inner
radii r - l, and one ``np.exp`` over the jumps of N.  The step integral
is exact for the step function N, its segments summed with ``math.fsum``.

The count model behind ``horizon_for_budget`` and the enumeration cap
(``_count_model``, the simple pole of f at h) and both routes of
``backtracking_entropy`` run on the symmetric V x V vertex matrix of
``spectral.vertex_matrix``: the Newton root of its smallest eigenvalue
(``entropy._vertex_root``) and, for the second route, the same Newton
solve on a Schur complement of it (``entropy._schur_root``).
``_vertex_root`` also gives ``growth_bounds`` its default h and the
entropy of G - v, and ``backtracking_bound`` and ``laplace_check`` the
first route's h alone.  Only the default non-backtracking h of
``laplace_check``, that of the profile base's component, still comes
from the dart solver (``volume_entropy``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .entropy import _EPS, _schur_root, _vertex_root, volume_entropy
from .errors import (DivergentSeries, HorizonTooLarge, InsufficientData,
                     MarginTooSmall, NonConvergence, PreconditionError)
from .genfun import attachment_darts, f_from, f_path, primitive_matrix
from .graph import MetricGraph, component_of, delete_vertex, first_betti
from .spectral import TransferMode, _pattern

DEFAULT_CAP = 10_000_000
MAX_CAP = 10**8  # a node limit of 1.25e8 at ~17 B each (README): 2-3 GB


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
    cap: float = DEFAULT_CAP


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
        return self.steps()[0]

    def steps(self) -> tuple[np.ndarray, np.ndarray]:
        """The jump radii a_k of N and N just past each, ``count_le(a_k)``,
        at the last copy of each value."""
        lengths = np.asarray(self.lengths)
        last = np.append(lengths[1:] != lengths[:-1], True)[:lengths.size]
        return lengths[last], np.flatnonzero(last) + 1

    def to_csv(self) -> str:
        lines = ["length,cumulative"]
        for ell, total in zip(*self.steps()):
            lines.append(f"{float(ell)!r},{int(total)}")
        return "\n".join(lines) + "\n"


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


def entropy_from_counts(profile: CountProfile,
                        window: tuple[float, float]) -> CountSlopeEstimate:
    """Estimate entropy as the least-squares slope of log N(r) over r.

    Samples sit at the distinct recorded lengths inside the window, with
    N evaluated just above each jump.  Requires at least 4 samples and a
    window inside the profile horizon.
    """
    r1, r2 = float(window[0]), float(window[1])
    jumps, n_le = profile.steps()
    if not jumps.size:
        raise InsufficientData("profile records no lengths")
    if not (r2 > r1 >= float(jumps[0])):
        raise InsufficientData(
            f"window ({r1}, {r2}) must satisfy r2 > r1 >= min length")
    if r2 > profile.r_max:
        raise InsufficientData(
            f"window end {r2} exceeds profile horizon {profile.r_max}")
    inside = (jumps >= r1) & (jumps <= r2)
    xs, ys = jumps[inside], np.log(n_le[inside])
    if xs.size < 4:
        raise InsufficientData(
            f"only {xs.size} sample points in window ({r1}, {r2})")
    slope = float(np.polyfit(xs, ys, 1)[0])
    pointwise = ys / xs
    band = float(np.max(pointwise) - np.min(pointwise))
    return CountSlopeEstimate(slope, band, (r1, r2), int(xs.size))


_LINEAR_A = 2.0 ** 60
_GRID_BLOCK = 1 << 20  # (radius, length) pairs verify_recursions holds
_RADII = 20  # the check radii verify_recursions places by default
_LAPLACE_MARGIN = 0.2  # the least t - h laplace_check accepts
_RHO_A_TOL = 1e-8  # how far growth_bounds lets rho(A(h)) miss 1


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
    A (e^{hr} - 1) = A h r to rounding.  The root is the one comp caches.
    """
    root = _vertex_root(comp, mode)
    if root.v is None:
        l_mean = float(np.mean([d.length for d in comp.darts]))
        return _LINEAR_A, len(comp.darts) / (_LINEAR_A * l_mean)
    v, index = root.v.tolist() + [0.0], comp._index  # [-1]: outside comp
    s = float(root.v.sum()) if target is None else v[index.get(target, -1)]
    a = max(abs(v[index[base]]), _EPS) * abs(s) / (root.h * root.dlambda)
    return a, root.h


def horizon_for_budget(graph: MetricGraph, x: str, target: int,
                       mode: TransferMode = TransferMode.NON_BACKTRACKING
                       ) -> float:
    """Horizon at which about ``target`` walks from x exist: the r with
    A (e^{hr} - 1) = target in the count model of ``_count_model``.
    Raises PreconditionError unless 0 < target < inf and a walk leaves x."""
    if not 0 < target < math.inf:  # nan is not a target either
        raise PreconditionError("target must be positive and finite")
    comp = component_of(graph, x)
    if not comp.darts:
        raise PreconditionError(f"no walk leaves {x!r}: it has no edge")
    a, h = _count_model(comp, mode, x, None)
    return math.log1p(target / a) / h


def _return_bounds(graph: MetricGraph, mode: TransferMode, r_max: float,
                   into: np.ndarray | None) -> np.ndarray:
    """Per dart d2, the bound a sequence ending in d2 must stay below.

    ``into`` holds the darts heading into the target, None without one.
    R(d2) is the shortest continuation after d2 that ends in one of them
    (0 for those darts, inf where none exists), and the bound is
    min(r_max, r_max - R(d2) + 1e-9 r_max).  R comes from one Dijkstra
    on the graph's cached CSR transition pattern (``spectral._pattern``)
    weighted by the length of the dart left: the dart reversal J maps the
    reversed relation d2 -> d, weighted by l(d2), onto the relation
    itself, J d2 -> J d, so R(d2) is the distance of J d2 from the
    sources J ``into``.  Without a target, or when a continuation may
    have 10^6 darts or more (r_max >= 10^6 l_min), the bound is r_max.

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
    lengths, reverse = graph._dart_arrays
    n = len(lengths)
    if into is None or r_max >= 1e6 * lengths.min(initial=math.inf):
        return np.full(n, r_max)
    rows, cols, offsets = _pattern(graph, mode)
    forward = csr_matrix((lengths[rows], cols, offsets), shape=(n, n))
    reach = dijkstra(forward, indices=reverse[into], min_only=True)[reverse]
    return np.minimum(r_max, r_max - reach + 1e-9 * r_max)


def _walk(graph: MetricGraph, mode: TransferMode, starts, r_max: float,
          target: str | None, stop: bool, limit: int, keep_starts: bool,
          returned: int = 0, turned: int = 0):
    """Level-synchronous walk over the dart sequences that begin with one
    of ``starts``, stay shorter than ``r_max`` and, with a ``target``, can
    still end in a dart heading into it below r_max.

    Level n holds the sequences of n darts as one group per last dart:
    an array of cumulative lengths and, with ``keep_starts``, one of
    start keys, the 1-based indices in ``starts`` in a narrow dtype (None
    without).  Two flag bits, powers of two above the indices, may be
    or-ed into the keys: ``returned`` into a sequence once it has arrived
    at the target, so that its later arrivals tell themselves apart, and
    ``turned`` into a sequence of group d as it steps on along reverse(d),
    so that the sequences without it are the non-backtracking ones.  The
    next level is pulled, dart by dart: group d2 joins the groups of its
    predecessors, the darts into tail(d2) (not reverse(d2) when
    non-backtracking), in one concatenation, adds l(d2) in place and
    keeps the sums below the bound of d2 (``_return_bounds``, at most
    r_max) with one compare, one count and a mask only where one is
    dropped.  Every length is thus the left fold of its dart lengths.
    The bound drops the sequences that cannot reach the target in time;
    it is r_max for darts into the target and without a target, so no
    recorded sequence is lost.  Yields (start keys, d, cum) for every
    group whose last dart heads into the vertex ``target`` (every group
    when it is None); with ``stop`` those groups are not extended.
    Raises HorizonTooLarge once more than ``limit`` sequences are kept.
    """
    n = len(graph.darts)
    steps, rev = (arr.tolist() for arr in graph._dart_arrays)
    hits = [target is None or d.head == target for d in graph.darts]
    bounds = _return_bounds(graph, mode, r_max, None if target is None
                            else np.flatnonzero(hits)).tolist()
    bt = mode is TransferMode.BACKTRACKING
    preds = [[rev[e] for e in graph._out[d.tail] if bt or e != d.id]
             for d in graph.darts]
    turns = rev if turned else [-1] * n
    narrow = np.min_scalar_type(len(starts) | returned | turned)
    keys, cums = [None] * n, [None] * n
    for i, s in enumerate(starts, 1):
        if steps[s] < bounds[s]:
            keys[s] = np.full(1, i, narrow) if keep_starts else None
            cums[s] = np.full(1, steps[s])
    made = live = sum(c is not None for c in cums)
    while live:
        for d in range(n):
            if hits[d] and cums[d] is not None:
                yield keys[d], d, cums[d]
                if stop:
                    cums[d] = None
                elif returned:
                    keys[d] = keys[d] | returned  # a new array: yielded
        later_keys, later_cums, live = [None] * n, [None] * n, 0
        for d2 in range(n):
            # each count is tested before the next group or the walk's end
            if made > limit:
                raise HorizonTooLarge(
                    f"enumeration exceeded its cap; retry with a smaller "
                    f"horizon (suggestion: {0.8 * r_max:.6g})",
                    safe_horizon=0.8 * r_max)
            parts = [d for d in preds[d2] if cums[d] is not None]
            if not parts:
                continue
            cum = np.concatenate([cums[d] for d in parts])
            cum += steps[d2]
            fit = cum < bounds[d2]
            size = np.count_nonzero(fit)
            if not size:
                continue
            key = np.concatenate([keys[d] | turned if d == turns[d2]
                                  else keys[d] for d in parts]) \
                if keep_starts else None
            if size < cum.size:
                cum = cum.compress(fit)
                key = None if key is None else key.compress(fit)
            later_keys[d2], later_cums[d2] = key, cum
            made, live = made + size, live + 1
        keys, cums = later_keys, later_cums


def enumerate_paths(graph: MetricGraph, spec: EnumerationSpec
                    ) -> CountProfile:
    """Exhaustively enumerate paths or cycles below ``spec.r_max``.

    The count model of ``_count_model`` projects the count on the base's
    component first; then a level-synchronous walk (``_walk``) over the
    darts of ``graph`` itself, so that the row keys index
    ``attachment_ids``, extends the dart sequences of one length, grouped
    by last dart, with numpy, and records the groups the kind asks for:
    every group (paths from x), arrivals at y (paths x..y) or at v
    (cycles), or first returns to v, which end the sequence (primitive
    cycles).  For the kinds with a target (y or v) a sequence
    ending in dart d is kept only while its length is below r_max - R(d)
    + 1e-9 r_max (and below r_max), R(d) the shortest continuation into
    the target (``_return_bounds``); the slack is far above the rounding
    of any fold it applies to, so the profile is the same as without
    pruning.  The profile is sorted, so it does not depend on the order
    of the walk.  The rows of the cycle kinds come from one counting
    sort of the walk's narrow start keys (``_grouped``).

    Raises HorizonTooLarge (with a safe achievable horizon) when the
    projected count A expm1(h r_max), or the number of nodes walked,
    exceeds ``spec.cap`` (the latter with a 25% + 1024 allowance).  The
    suggestion aims the model at 0.8 cap (1 - e^{-x})/x, x = h l_min: on
    equal lengths N is a step function whose tops, just past each jump,
    are x/(1 - e^{-x}) times the model; after the walk's cap it is
    0.8 r_max.  Raises PreconditionError, before the walk, for a horizon
    or a cap that ``_check_limits`` refuses, or a missing endpoint (x, y
    or v) that the kind reads.
    """
    return _enumerate(graph, spec)[0]


def _check_projection(comp: MetricGraph, spec: EnumerationSpec, base: str,
                      target: str | None):
    """Raise HorizonTooLarge when the count model of ``_count_model``
    projects more than ``spec.cap`` walks below ``spec.r_max`` in the
    base's component ``comp`` (see ``enumerate_paths``)."""
    if not comp.darts:
        return
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


def _check_limits(r_max: float | None, cap: float) -> None:
    """The one rule of every horizon and cap: PreconditionError unless
    r_max > 0 (None checks the cap alone) and 0 <= cap <= ``MAX_CAP``."""
    if r_max is not None and not r_max > 0:
        raise PreconditionError("horizon must be positive")
    if not 0 <= cap < math.inf:
        raise PreconditionError(
            f"cap must be nonnegative and finite, got {cap}")
    if cap > MAX_CAP:
        raise PreconditionError(f"cap {cap} exceeds MAX_CAP = {MAX_CAP}")


def _enumerate(graph: MetricGraph, spec: EnumerationSpec,
               recursions: bool = False, non_backtracking: bool = True
               ) -> tuple[CountProfile, ...]:
    """The profile of ``enumerate_paths(graph, spec)``.

    With ``recursions``, ``spec`` being the backtracking cycles at v, the
    walk does not stop at v and flags its start keys (``_walk``), and
    returns the cycles and the primitive cycles of backtracking, then,
    unless ``non_backtracking`` is false (the walk then flags no turn),
    of non-backtracking mode (module docstring).  Each is the profile of
    its separate walk: the non-backtracking relation is the backtracking
    one without the pairs (d, reverse(d)), and its return bounds are no
    looser, so the walk keeps every sequence of both, with the same
    left-fold length.  It refuses as the backtracking cycles enumeration
    does: by that count model before the walk and its node cap during it.
    """
    _check_limits(spec.r_max, spec.cap)

    if spec.kind is PathKind.PATHS_XY:
        base, target, fields = spec.x, spec.y, "xy"
    elif spec.kind is PathKind.PATHS_FROM:
        base, target, fields = spec.x, None, "x"
    else:
        base, target, fields = spec.v, spec.v, "v"
    endpoints = tuple(getattr(spec, name) for name in fields)
    if None in endpoints:
        raise PreconditionError(f"{spec.kind.value} needs the endpoint "
                                f"{fields[endpoints.index(None)]}")
    graph._position(endpoints[-1])
    starts = graph.out_darts(base)
    _check_projection(component_of(graph, base), spec, base, target)

    limit = int(1.25 * spec.cap) + 1024
    if spec.kind in (PathKind.PATHS_XY, PathKind.PATHS_FROM):
        walk = _walk(graph, spec.mode, starts, spec.r_max, target, False,
                     limit, False)
        lengths = np.concatenate([cum for _, _, cum in walk] or [np.empty(0)])
        lengths.sort()
        return (CountProfile(spec.kind, spec.mode, spec.r_max, lengths,
                             endpoints),)
    cycles = spec.kind is PathKind.CYCLES_AT
    low = (1 << len(starts).bit_length()) - 1  # the start index bits
    returned = low + 1 if recursions else 0
    turned = 2 * low + 2 if recursions and non_backtracking else 0
    # (kind, mode, the flags an arrival must not carry)
    wanted = [(spec.kind, spec.mode, 0)]
    if recursions:
        wanted.append((PathKind.PRIMITIVE_CYCLES_AT, spec.mode, returned))
    if recursions and non_backtracking:
        wanted += [(PathKind.CYCLES_AT, TransferMode.NON_BACKTRACKING,
                    turned),
                   (PathKind.PRIMITIVE_CYCLES_AT,
                    TransferMode.NON_BACKTRACKING, returned | turned)]
    walk = _walk(graph, spec.mode, starts, spec.r_max, target, not cycles,
                 limit, True, returned, turned)
    arrivals = list(walk)
    keys = np.concatenate([k for k, _, _ in arrivals]
                          or [np.empty(0, np.uint8)])
    cum = np.concatenate([c for _, _, c in arrivals] or [np.empty(0)])
    # primitive key k * width + j: out along start k, back along the
    # reverse of start j, in the narrowest dtype that holds them
    width = len(starts) + 1
    pair = np.min_scalar_type(width * width)
    if any(kind is PathKind.PRIMITIVE_CYCLES_AT for kind, _, _ in wanted):
        rev_pos = {graph.darts[s].reverse: j
                   for j, s in enumerate(starts, 1)}
        ends = np.repeat([rev_pos[d] for _, d, _ in arrivals],
                         [c.size for _, _, c in arrivals]).astype(pair)

    profiles = []
    for kind, mode, barred in wanted:
        free = (keys & barred) == 0 if barred else slice(None)
        key = keys[free] & low
        if kind is PathKind.CYCLES_AT:
            lengths, rows = _grouped(cum[free], key)
            by = {"by_start": rows}
        else:
            lengths, rows = _grouped(
                cum[free], key.astype(pair) * width + ends[free])
            by = {"by_pair": {divmod(k, width): row
                              for k, row in rows.items()}}
        profiles.append(CountProfile(kind, mode, spec.r_max, lengths,
                                     endpoints, attachment_ids=starts, **by))
    return tuple(profiles)


def _grouped(lengths: np.ndarray, keys: np.ndarray
             ) -> tuple[np.ndarray, dict[int, np.ndarray]]:
    """The sorted ``lengths``, and {key: the sorted lengths under it}:
    one stable sort of the narrow nonnegative integer ``keys`` (a
    linear-time radix sort for 8- and 16-bit dtypes), then one in-place
    sort per row, each row a slice of one array."""
    grouped = lengths[np.argsort(keys, kind="stable")]
    rows, end = {}, 0
    for key, size in enumerate(np.bincount(keys).tolist()):
        if size:
            row = grouped[end:end + size]
            row.sort()
            rows[key] = row
            end += size
    return np.sort(lengths), rows


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
                   start: float = 0.0, steps=None) -> float:
    """weight * integral_start^R N(r) e^{-weight r} dr, exact for the step
    function N: N(a) (e^{-weight a} - e^{-weight b}) over each segment
    [a, b) between start, the later jumps and R, summed with math.fsum.
    ``steps`` is ``profile.steps()`` where the caller has it already."""
    jumps, n_le = profile.steps() if steps is None else steps
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
    comp = component_of(graph, profile.endpoints[0])
    if profile.mode is TransferMode.BACKTRACKING:  # route 1's h_transfer
        return _vertex_root(comp, profile.mode).h
    return volume_entropy(comp).h


def laplace_check(profile: CountProfile, graph: MetricGraph, t: float,
                  h: float | None = None) -> LaplaceReport:
    """Check that f(t) equals t * integral N(r) e^{-tr} dr.

    The integral is truncated at the profile horizon R and the missing
    tail is bracketed by [0, t * M e^{(h-t)R} / (t-h)]; the report passes
    when the resolvent value of f lies inside the bracketed interval.
    M is twice the largest N(r) e^{-hr} over the profile's upper half,
    an empirical stand-in for the proven constant.  ``h`` defaults to
    the entropy of the component of the profile's base, in the profile's
    mode; t below h + ``_LAPLACE_MARGIN`` raises MarginTooSmall.
    """
    if h is None:
        h = _growth_rate(profile, graph)
    if t < h + _LAPLACE_MARGIN:
        raise MarginTooSmall(f"t = {t} is within {_LAPLACE_MARGIN} of the "
                             f"growth rate {h:.6g}")
    jumps, n_le = steps = profile.steps()
    tail = jumps >= 0.5 * profile.r_max
    if not tail.any():
        tail[:] = True
    scaled = n_le[tail] * np.exp(-h * jumps[tail])
    m_const = 2.0 * (float(scaled.max()) if scaled.size else 1.0)
    truncated = _step_integral(profile, t, steps=steps)
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

def _default_radii(attained: np.ndarray, r_max: float,
                   tie_guard: float) -> tuple[float, ...]:
    """Up to ``_RADII`` radii placed inside the gaps between attained
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
    while candidates.size < _RADII and parts <= 4096:
        step = width / parts
        narrow = step <= floor
        step = np.where(narrow, width / 2.0, step)
        n_sub = np.where(narrow, 1, parts - 1)
        i = np.arange(1, n_sub.sum() + 1) - np.repeat(np.cumsum(n_sub) - n_sub,
                                                      n_sub)
        candidates = np.sort(np.repeat(lo, n_sub) + np.repeat(step, n_sub) * i)
        parts *= 2
    if candidates.size > _RADII:
        candidates = candidates[np.unique(
            np.linspace(0, candidates.size - 1, _RADII).astype(int))]
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
                      cap: float = DEFAULT_CAP,
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

    All four profiles, the cycles and the primitive cycles of both
    modes, come from one backtracking walk that does not stop at v
    (``_enumerate`` with ``recursions``).  It carries two flag bits in
    each start key: a returned bit from a sequence's first arrival at v
    on, and a turned bit from its first step back along the dart it
    arrived by.  The primitive cycles are the arrivals without the
    returned bit, the non-backtracking ones those without the turned
    bit: the same profiles, rows included, as ``enumerate_paths`` gives
    for each kind and mode.  The walk refuses as the backtracking cycles
    enumeration does, with the same HorizonTooLarge.
    Raises PreconditionError for an empty ``r_grid``, a nan radius in it,
    or a horizon that is not positive.
    """
    if r_grid is not None:
        r_grid = tuple(float(r) for r in r_grid)
        if not r_grid or any(map(math.isnan, r_grid)):
            raise PreconditionError(
                "r_grid must hold at least one radius and no nan")
        r_max = max(r_grid)
    if r_max is None:
        raise PreconditionError("either r_grid or r_max is required")

    bt_cyc, bt_prim, nb_cyc, nb_prim = _enumerate(graph, EnumerationSpec(
        PathKind.CYCLES_AT, r_max, TransferMode.BACKTRACKING, v=v, cap=cap),
        recursions=True)

    if r_grid is None:  # every non-backtracking length is a backtracking one
        r_grid = _default_radii(bt_cyc.steps()[0], r_max, tie_guard)

    n = graph.degree(v)
    empty = np.array([])
    starts = [nb_cyc.by_start.get(k, empty) for k in range(1, n + 1)]
    radii = np.asarray(r_grid)
    q = radii - tie_guard

    def shifted(rows, arr, other=None):
        """Per row of ``rows`` (sorted lengths) and per radius r: the sum
        over the l in the row below r - tie_guard of 1 + the count of
        ``arr`` below (r - l) - tie_guard, less that of ``other``, from
        grids of at most _GRID_BLOCK (r, l) or one r."""
        rows = [row[:np.searchsorted(row, q).max(initial=0)] for row in rows]
        prim, sizes = np.concatenate(rows), np.array([r.size for r in rows])
        nonempty = sizes > 0
        at = (np.cumsum(sizes) - sizes)[nonempty]  # their first positions
        sums = np.zeros((len(rows), radii.size), dtype=np.int64)
        block = max(_GRID_BLOCK // max(prim.size, 1), 1)
        for part in (slice(lo, lo + block) for lo in range(0, q.size, block)):
            inner = (radii[part, None] - prim) - tie_guard
            terms = np.searchsorted(arr, inner) + 1
            if other is not None:
                terms -= np.searchsorted(other, inner)
            terms *= prim < q[part, None]
            sums[nonempty, part] = np.add.reduceat(terms, at, axis=1).T
        return sums

    bt_lhs = np.searchsorted(bt_cyc.lengths, q)
    bt_rhs = shifted([bt_prim.lengths], bt_cyc.lengths)[0]
    nb_lhs = np.array([np.searchsorted(s, q) for s in starts])
    nb_rhs = np.zeros_like(nb_lhs)
    for j in range(n):
        # each start's rows toward j; the rows of the other starts k != j
        # partition the rest of the cycle lengths
        nb_rhs += shifted([nb_prim.by_pair.get((i + 1, j + 1), empty)
                           for i in range(n)], nb_cyc.lengths, starts[j])
    bt_bad = [(r, int(a), int(b))
              for r, a, b in zip(r_grid, bt_lhs, bt_rhs) if a != b]
    nb_bad = [(r_grid[k], i + 1, int(nb_lhs[i, k]), int(nb_rhs[i, k]))
              for k, i in np.argwhere((nb_lhs != nb_rhs).T).tolist()]
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
    if len(first_betti(graph)) != 1:
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
                  cap: float = DEFAULT_CAP, h: float | None = None
                  ) -> BoundsReport:
    """Verify m e^{hr} <= N_v(r) <= M e^{hr} with the explicit constant
    M = (n-1)/(n-2) * (sum w_i) / (min w_i).

    A(h) is assembled from primitive-cycle generating functions at v
    (``primitive_matrix``).  Its Perron root, the eigenvalue of largest
    real part from dense ``np.linalg.eig``, must be 1 to ``_RHO_A_TOL``,
    tying the generating-function, spectral and entropy pipelines
    together.  Its Perron vector w, which gives the constant, is A(h) |x|
    for the eigenvector x of that root, normalised to unit sum: the
    product keeps every entry accurate relative to its size, and an
    underflowed row of A(h) exactly 0.  The lower constant is reported
    empirically as the minimum of N_v(r) e^{-hr} over the enumerated
    range.  ``h`` is the entropy of the graph when the caller already
    holds it; by default it is the vertex-matrix root
    (``entropy._vertex_root``), which also gives the entropy of the graph
    without v.  N_v(r) comes from the paths v..v (``PathKind.PATHS_XY``,
    x = y = v): the lengths and the cap check of the cycles at v, without
    their per-start rows; the count model of that check reads the graph's
    cached root.
    Raises UnknownVertex for an unknown v before any other check, then
    PreconditionError, before A(h) is built, for a graph that is not
    reduced, connected and hyperbolic, or a horizon or a cap that
    ``_check_limits`` refuses;
    PreconditionError when the entropy of the graph without v reaches h
    in floating point, so that A(h) diverges or its Perron root misses 1;
    NonConvergence when the root misses 1 for another reason.
    """
    graph._position(v)
    _require_reduced_hyperbolic(graph)
    _check_limits(r_max, cap)
    n = graph.degree(v)
    if h is None:
        h = _vertex_root(graph).h
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
    if abs(rho_a - 1.0) > _RHO_A_TOL:
        # the interior entropy reaching h can also show as a finite A(h)
        if _vertex_root(delete_vertex(graph, v)).h >= h:
            raise PreconditionError(interior)
        raise NonConvergence(
            f"pipeline consistency failure: rho(A(h)) = {rho_a:.12g} "
            f"differs from 1 by more than {_RHO_A_TOL:g}")
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

    # the cycles at v without their rows: the paths v..v
    profile, = _enumerate(graph, EnumerationSpec(
        PathKind.PATHS_XY, r_max, TransferMode.NON_BACKTRACKING, x=v, y=v,
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
                       cap: float = DEFAULT_CAP) -> BacktrackingBoundReport:
    """Check N_v(r) <= M e^{h r} for backtracking cycles, with the
    closed-form constant M = max(2, 3 e^{-h l1}) and l1 the shortest
    primitive cycle length at v.  Both come from one flagged walk
    (``_enumerate`` with ``recursions``, its non-backtracking profiles
    not built), which refuses as the cycles do before the number of
    primitive cycles is checked."""
    profile, prim = _enumerate(graph, EnumerationSpec(
        PathKind.CYCLES_AT, r_max, TransferMode.BACKTRACKING, v=v, cap=cap),
        recursions=True, non_backtracking=False)
    if prim.lengths.size < 2:
        raise PreconditionError(
            "the backtracking bound needs at least two primitive cycles")
    l1 = float(prim.lengths[0])
    h = _vertex_root(component_of(graph, v), TransferMode.BACKTRACKING).h
    m_formula = max(2.0, 3.0 * math.exp(-h * l1))
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
    h_base = _vertex_root(delete_vertex(comp, v), TransferMode.BACKTRACKING).h
    route2 = _schur_root(
        comp._edge_arrays, np.flatnonzero([u in ends for u in comp.vertices]),
        h_base, TransferMode.BACKTRACKING)
    return BacktrackingEntropy(route1.h, max(route2.h, h_base),
                               abs(route1.null_eigenvalue),
                               abs(route2.null_eigenvalue))
