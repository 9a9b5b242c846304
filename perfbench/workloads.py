"""The four benchmark workloads: inputs, ops and correctness gates.

Every input is a literal: graph generator seeds, horizons, edit targets
and Laplace parameters are written out here and never taken from program
output (such as ``horizon_for_budget``), so a solver change cannot change
the work a pass does.  The workload seed only fixes the order in which a
pass runs its ops (see ``run.py``).

A pass runs every distinct op once; a run makes several passes, and
``ops_per_s_ref`` is taken from the median latency of each op over them (see
``run.py``).  So every op must be short enough to repeat: a pass takes
3 to 7 s on a 2-core machine at the seed commit.  An op too long to
repeat (the V = 300 ladder graphs) runs once per run, counts in
``attempted`` and ``failed``, and is timed on its own.

An op is one call into the library (or one ``cli.main`` call).  Ops look
their function up on the ``entrograph`` package at call time, so the
tracer's wrappers are used when they are installed.  A gate checks one op
result after the timed pass; it returns ``None`` when the result is
correct and a one-line reason otherwise.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
import statistics
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import entrograph as eg
import entrograph.cli  # noqa: F401  (binds eg.cli for the verify op)


@dataclass
class Op:
    name: str
    kind: str                      # op family, e.g. "persistent_entropy:auto"
    run: Callable[[], object]
    gate_name: str
    gate: Callable[[object, dict], str | None]  # (result, pass results)
    # Applied to the result right after the op, outside the timed region,
    # so a pass does not hold large results (enumeration profiles).
    digest: Callable[[object], object] | None = None


@dataclass
class Workload:
    ops: list[Op]                  # one pass: each distinct op once
    nominal_pass_s: float          # one pass at the seed commit, 2-core box
    # samples -> {name: (value, unit)}
    extras: Callable[[list], dict] = lambda samples: {}
    once: list[Op] = field(default_factory=list)   # run once per run
    nominal_once_s: float = 0.0


def median_sum(samples, keep=lambda op: True, ref=True) -> float:
    """Sum over the distinct ops ``keep`` selects of each op's median
    latency: the time of one pass made of median ops, on the reference
    host (``ref``) or in wall time."""
    by_op: dict[str, list[float]] = {}
    for s in samples:
        if keep(s.op):
            by_op.setdefault(s.op.name, []).append(
                s.ref_seconds if ref else s.seconds)
    return sum(statistics.median(v) for v in by_op.values())


# -- shared input helpers ------------------------------------------------

def spread_graph(k: int):
    """``generate_graph(2, 10, 18)`` with every length redrawn, in
    ``edge_list()`` order, as ``10 ** U(-3, 3)`` from ``Random(k)``."""
    g = eg.generate_graph(2, 10, 18)
    rng = random.Random(k)
    edges = [(u, v, 10 ** rng.uniform(-3, 3)) for u, v, _ in g.edge_list()]
    return eg.MetricGraph.from_edges(g.vertices, edges)


def _label(args) -> str:
    return "gen(%s)" % ",".join(str(a) for a in args)


def _memo(compute):
    """Gate references depend only on the input: compute them once."""
    cache = []

    def get():
        if not cache:
            cache.append(compute())
        return cache[0]
    return get


def _close(a: float, b: float, tol: float) -> str | None:
    if not (math.isfinite(a) and abs(a - b) <= tol):
        return f"{a!r} vs {b!r} differ by more than {tol:g}"
    return None


# -- solve-ladder --------------------------------------------------------

LADDER = [(s, v, 2 * v) for v in (10, 40, 100) for s in range(1, 6)]
LADDER_TINY = [(1, 10, 20), (2, 10, 20)]
# V = 300 keeps s = 1 and the known failing s = 5, once per run: together
# they take 12 s, s = 2..4 would add 17 s.
LADDER_ONCE = [(1, 300, 600), (5, 300, 600)]
SPREAD = range(5)                     # all five raise NonConvergence
SPREAD_TINY = range(1)
RHO_TOL = 1e-8


def _rho_gate(graph):
    cache: dict[float, float] = {}

    def gate(res, _results):
        # Independent of spectral_radius: dense eigenvalues of B(h).
        if res.h not in cache:
            mat = eg.build_transfer(graph, res.h).matrix
            cache[res.h] = float(np.max(np.abs(np.linalg.eigvals(mat))))
        return _close(cache[res.h], 1.0, RHO_TOL)
    return gate


def _ladder_op(label, g, kind="volume_entropy") -> Op:
    return Op(f"volume_entropy {label}", kind,
              lambda: eg.volume_entropy(g), "rho_unit", _rho_gate(g))


def _ladder_extras(samples) -> dict:
    return {"v300_s": (sum(s.ref_seconds for s in samples
                           if s.op.kind == "volume_entropy:once"), "s")}


def solve_ladder(tiny: bool, workdir: str) -> Workload:
    ops = [_ladder_op(_label(a), eg.generate_graph(*a))
           for a in (LADDER_TINY if tiny else LADDER)]
    ops += [_ladder_op(f"spread(k={k})", spread_graph(k))
            for k in (SPREAD_TINY if tiny else SPREAD)]
    once = [] if tiny else [_ladder_op(_label(a), eg.generate_graph(*a),
                                       "volume_entropy:once")
                            for a in LADDER_ONCE]
    return Workload(ops, 3.1, _ladder_extras, once, 12.0)


# -- filtration ----------------------------------------------------------

# The three curves of gen(3,12,24) take 7.5 s and those of gen(1,20,40)
# 17 s, too long to repeat in a run, so two smaller graphs stand in.
FILTRATION = [(1, 8, 16), (3, 6, 12)]
FILTRATION_TINY = [(3, 6, 12)]
STRATEGIES = ("direct", "incremental", "auto")
CURVE_TOL = 1e-7         # pointwise agreement, as in acceptance criterion 09
MONOTONE_SLACK = 1e-9    # ten times the solver tolerance on h


def _curve_gate(label: str, strategy: str):
    def gate(curve, results):
        hs = [s.h for s in curve.steps]
        for a, b in zip(hs, hs[1:]):
            if b < a - MONOTONE_SLACK:
                return f"curve decreases from {a!r} to {b!r}"
        ref = results.get(f"persistent_entropy:direct {label}")
        if strategy == "direct":
            return None
        if not isinstance(ref, eg.EntropyCurve):
            return "no direct curve to compare against"
        if [s.epsilon for s in ref.steps] != [s.epsilon for s in curve.steps]:
            return "thresholds differ from the direct curve"
        worst = max((abs(a.h - b.h) for a, b in zip(ref.steps, curve.steps)),
                    default=0.0)
        return None if worst <= CURVE_TOL else \
            f"differs from direct by {worst:.3e} > {CURVE_TOL:g}"
    return gate


def _filtration_extras(samples) -> dict:
    return {f"curve_{strategy}_s": (median_sum(
        samples, lambda op, k=f"persistent_entropy:{strategy}":
        op.kind == k), "s") for strategy in STRATEGIES}


def filtration(tiny: bool, workdir: str) -> Workload:
    ops = []
    for args in (FILTRATION_TINY if tiny else FILTRATION):
        g, label = eg.generate_graph(*args), _label(args)
        for strategy in STRATEGIES:
            kind = f"persistent_entropy:{strategy}"
            ops.append(Op(f"{kind} {label}", kind,
                          lambda g=g, s=strategy: eg.persistent_entropy(g, s),
                          "curves_agree", _curve_gate(label, strategy)))
    return Workload(ops, 4.0, _filtration_extras)


# -- queries -------------------------------------------------------------

# (generator args, non-adjacent pair for the edge and C ops, attachments).
# V = 100 would add 6.6 s to a pass, too long to repeat in a run.
QUERIES = [((1, 10, 20), ("v0", "v3"), ("v0", "v1", "v2")),
           ((1, 40, 80), ("v0", "v10"), ("v0", "v1", "v10"))]
QUERIES_TINY = QUERIES[:1]
VERIFY = [(1, 6, 10)]   # (2,10,18) would add 1.5 s, (1,20,40) 3.5 s
VERIFY_TINY = [(1, 6, 10)]
EDIT_TOL = 1e-8
C_REL_TOL = 1e-5  # the Richardson ladder agrees with the pole to ~1e-7


def _vertex_matrix(graph, t: float):
    """M(t) = I + D - A of the weighted Ihara-Bass identity and dM/dt,
    for loop-free graphs (the generator draws no loops)."""
    index = {v: i for i, v in enumerate(graph.vertices)}
    m = np.eye(len(index))
    dm = np.zeros_like(m)
    for u, v, length in graph.edge_list():
        z = math.exp(-t * length)
        dz, q = -length * z, 1.0 - z * z
        off, d_off = z / q, dz * (1.0 + z * z) / q ** 2
        diag, d_diag = z * z / q, 2.0 * z * dz / q ** 2
        i, j = index[u], index[v]
        m[i, j] -= off
        m[j, i] -= off
        dm[i, j] -= d_off
        dm[j, i] -= d_off
        m[i, i] += diag
        m[j, j] += diag
        dm[i, i] += d_diag
        dm[j, j] += d_diag
    return m, dm, index


def _closed_form_constant(graph, x: str, y: str) -> float:
    """Closed form of the pole: f_ab(t) ~ v_a v_b / (lambda'(h) (t - h))
    with v the unit null vector of M(h), so the combined constant
    (sqrt(C_xx C_yy) + C_xy) h equals 2 v_x v_y / lambda'(h)."""
    if any(u == v for u, v, _ in graph.edge_list()):
        raise ValueError("the closed form needs a loop-free graph")
    m, dm, index = _vertex_matrix(graph, eg.volume_entropy(graph).h)
    _, vecs = np.linalg.eigh(m)
    v = vecs[:, 0]
    return 2.0 * v[index[x]] * v[index[y]] / float(v @ dm @ v)


def _constant_gate(graph, x: str, y: str):
    closed = _memo(lambda: _closed_form_constant(graph, x, y))

    def gate(est, _results):
        return _close(est.combined, closed(), C_REL_TOL * abs(closed()))
    return gate


def _direct_gate(edited):
    direct = _memo(lambda: eg.volume_entropy(edited).h)

    def gate(res, _results):
        return _close(res.h_prime, direct(), EDIT_TOL)
    return gate


def _verify_gate(res, _results):
    code, out = res
    if code != 0:
        return f"exit code {code}"
    if "FAIL" in out:
        return "a property reported FAIL"
    return None


def _run_verify(path: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = eg.cli.main(["verify", path])
    return code, out.getvalue()


def _queries_extras(samples) -> dict:
    return {"verify_s": (median_sum(samples, lambda op: op.kind == "verify"),
                         "s")}


def queries(tiny: bool, workdir: str) -> Workload:
    ops = []
    for args, (x, y), targets in (QUERIES_TINY if tiny else QUERIES):
        g, label = eg.generate_graph(*args), _label(args)
        attach = [(t, 1.0) for t in targets]
        ops += [Op(f"entropy_after_edge {label}", "entropy_after_edge",
                   lambda g=g, x=x, y=y: eg.entropy_after_edge(g, x, y, 1.0),
                   "edit_matches_direct",
                   _direct_gate(eg.add_edge(g, x, y, 1.0))),
                Op(f"entropy_after_vertex {label}", "entropy_after_vertex",
                   lambda g=g, a=attach: eg.entropy_after_vertex(g, a),
                   "edit_matches_direct",
                   _direct_gate(eg.add_vertex(g, attach))),
                Op(f"estimate_constant_C {label}", "estimate_constant_C",
                   lambda g=g, x=x, y=y: eg.estimate_constant_C(
                       g, x, y, method="resolvent"),
                   "constant_matches_pole", _constant_gate(g, x, y))]
    for args in (VERIFY_TINY if tiny else VERIFY):
        path = os.path.join(workdir, "%s.json" % _label(args))
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(eg.serialize_json(eg.generate_graph(*args)))
        ops.append(Op(f"verify {_label(args)}", "verify",
                      lambda p=path: _run_verify(p), "verify_exit_0",
                      _verify_gate))
    return Workload(ops, 4.6, _queries_extras)


# -- oracle --------------------------------------------------------------

# (generator args, horizon, exact path count, sum of path lengths).
PATHS_FROM = [((3, 5, 8), 23.0, 421_241, 8885187.658500744),
              ((1, 6, 9), 20.0, 2_067_445, 38342097.656472355),
              ((2, 10, 18), 20.0, 592_566, 10942348.542861953)]
PATHS_FROM_TINY = [((3, 5, 8), 12.0, 1_214, 12520.753153202382)]
CORE_ARGS = (2, 10, 18)
CYCLES_R, CYCLES_N, PRIMITIVE_N = 22.0, 416_522, 8_106
CYCLES_TINY = (12.0, 676, 214)
RECURSION_R, GROWTH_R = 14.0, 22.0
TINY_RECURSION_R, TINY_GROWTH_R = 8.0, 10.0
LAPLACE_ARGS, LAPLACE_R = (3, 5, 8), 16.0   # entropy 0.5408
LAPLACE_TS = (1.0, 1.5, 2.0, 2.5, 3.0)
SUM_REL_TOL = 1e-9


def _profile_digest(profile):
    lengths = np.asarray(profile.lengths)
    return lengths.size, bool(np.all(np.diff(lengths) >= 0)), \
        float(lengths.sum())


def _count_gate(n_expected, sum_expected):
    def gate(digest, _results):
        size, is_sorted, total = digest
        if not is_sorted:
            return "profile lengths are not sorted"
        if size != n_expected:
            return f"{size} paths, expected {n_expected}"
        if sum_expected is not None:
            return _close(total, sum_expected, SUM_REL_TOL * sum_expected)
        return None
    return gate


def _passed_gate(report, _results):
    return None if report.passed else "identity report did not pass"


def _oracle_extras(samples) -> dict:
    enum = [s for s in samples if s.op.kind.startswith("enumerate_paths")
            and s.error is None]
    paths = sum(s.result[0] for s in enum)
    secs = sum(s.ref_seconds for s in enum)
    return {"paths_per_s": (paths / secs if secs > 0 else 0.0, "1/s")}


def oracle(tiny: bool, workdir: str) -> Workload:
    spec = eg.EnumerationSpec
    kinds = eg.PathKind
    ops = []
    for args, r, n, total in (PATHS_FROM_TINY if tiny else PATHS_FROM):
        g = eg.generate_graph(*args)
        ops.append(Op(f"enumerate_paths:paths-from {_label(args)} r={r:g}",
                      "enumerate_paths:paths-from",
                      lambda g=g, r=r: eg.enumerate_paths(
                          g, spec(kinds.PATHS_FROM, r, x="v0")),
                      "exact_counts", _count_gate(n, total),
                      _profile_digest))
    core = eg.reduce(eg.generate_graph(*CORE_ARGS)).graph
    v = max(core.vertex_set, key=lambda w: (core.degree(w), w))
    r_cyc, n_cyc, n_prim = CYCLES_TINY if tiny else \
        (CYCLES_R, CYCLES_N, PRIMITIVE_N)
    label = f"reduce({_label(CORE_ARGS)}) at {v} r={r_cyc:g}"
    for kind, n in ((kinds.CYCLES_AT, n_cyc),
                    (kinds.PRIMITIVE_CYCLES_AT, n_prim)):
        ops.append(Op(f"enumerate_paths:{kind.value} {label}",
                      f"enumerate_paths:{kind.value}",
                      lambda k=kind: eg.enumerate_paths(
                          core, spec(k, r_cyc, v=v)),
                      "exact_counts", _count_gate(n, None), _profile_digest))
    r_rec, r_growth = (TINY_RECURSION_R, TINY_GROWTH_R) if tiny else \
        (RECURSION_R, GROWTH_R)
    ops.append(Op(f"verify_recursions r={r_rec:g}", "verify_recursions",
                  lambda: eg.verify_recursions(core, v, r_max=r_rec),
                  "identity_passed", _passed_gate))
    ops.append(Op(f"growth_bounds r={r_growth:g}", "growth_bounds",
                  lambda: eg.growth_bounds(core, v, r_growth),
                  "identity_passed", _passed_gate))
    lap_graph = eg.generate_graph(*LAPLACE_ARGS)
    profile = eg.enumerate_paths(
        lap_graph, spec(kinds.PATHS_FROM, LAPLACE_R, x="v0"))
    for t in (LAPLACE_TS[:1] if tiny else LAPLACE_TS):
        ops.append(Op(f"laplace_check {_label(LAPLACE_ARGS)} t={t:g}",
                      "laplace_check",
                      lambda t=t: eg.laplace_check(profile, lap_graph, t),
                      "identity_passed", _passed_gate))
    return Workload(ops, 6.5, _oracle_extras)


WORKLOADS = {"solve-ladder": solve_ladder, "filtration": filtration,
             "queries": queries, "oracle": oracle}


def warm_up() -> None:
    """One small call per layer the workloads use, so lazy imports and
    BLAS start-up are paid in set-up, not by the first timed op."""
    g = eg.generate_graph(1, 5, 10)
    eg.volume_entropy(g)
    eg.f_path(g, "v0", "v1", 3.0)
    eg.enumerate_paths(g, eg.EnumerationSpec(eg.PathKind.PATHS_FROM, 3.0,
                                             x="v0"))
