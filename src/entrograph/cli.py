"""Command-line front end.

Commands: entropy | add-edge | add-vertex | persistence | verify |
generate | count.  Data goes to standard output, diagnostics to the
error stream.  Exit codes: 0 success, 2 parse/validation failure,
3 solver failure (``NonConvergence``, ``DivergentSeries``, numpy's
``LinAlgError``), 4 precondition violation (a ``PreconditionError``: every
other error of ``errors``), 5 failed verify properties.
The argparse parser is built once per process, at the first ``main``
call, and reused by every later call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import counting, persistence
from .entropy import _vertex_root, volume_entropy
from .errors import (EntrographError, HorizonTooLarge, PreconditionError,
                     ValidationFailed)
from .genfun import check_symmetry
from .graph import (MetricGraph, _require_valid, add_edge, add_vertex,
                    component_of, first_betti, reduce)
from .graphio import ParseError, generate_graph, load_graph, serialize_json
from .incremental import (_AUTO_DIRECT_BELOW, EditResult, entropy_after_edge,
                          entropy_after_vertex)
from .spectral import TransferMode

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_SOLVER = 3
EXIT_PRECONDITION = 4
EXIT_VERIFY = 5


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load(path: str) -> MetricGraph:
    graph = load_graph(path)
    _require_valid(graph)
    return graph


def cmd_entropy(args) -> int:
    graph = _load(args.file)
    res = volume_entropy(graph)
    print(f"h = {res.h:.12g}")
    print(f"residual = {res.residual:.3e}")
    print(f"iterations = {res.iterations}")
    for cid, h in res.per_component:
        print(f"component {cid}: h = {h:.12g}")
    return EXIT_OK


def _direct_gap(edited: MetricGraph, x: str,
                h_prime: float) -> tuple[float, float]:
    """Entropy of the component of x in the edited graph by the direct
    vertex-matrix solve (``entropy._vertex_root``), and its distance to
    the incremental h' of that component."""
    direct = _vertex_root(component_of(edited, x)).h
    return direct, abs(h_prime - direct)


def _print_cross_check(inc: EditResult, edited: MetricGraph, x: str):
    """Print an incremental result beside the direct solve of the
    component of x in the edited graph."""
    direct, gap = _direct_gap(edited, x, inc.h_prime)
    print(f"h_base = {inc.h_base:.12g}")
    print(f"incremental h' = {inc.h_prime:.12g}  "
          f"(residual {inc.residual:.3e}, {inc.iterations} evaluations)")
    print(f"direct h' = {direct:.12g}")
    print(f"|incremental - direct| = {gap:.3e}")


def cmd_add_edge(args) -> int:
    graph = _load(args.file)
    inc = entropy_after_edge(graph, args.x, args.y, args.length)
    _print_cross_check(inc, add_edge(graph, args.x, args.y, args.length),
                       args.x)
    return EXIT_OK


def cmd_add_vertex(args) -> int:
    graph = _load(args.file)
    attachments = _parse_attachments(args.attach)
    inc = entropy_after_vertex(graph, attachments)
    _print_cross_check(inc, add_vertex(graph, attachments),
                       attachments[0][0])
    return EXIT_OK


def _parse_attachments(specs) -> list[tuple[str, float]]:
    out = []
    for spec in specs:
        try:
            vertex, length = spec.rsplit(":", 1)
            out.append((vertex, float(length)))
        except ValueError as exc:
            raise PreconditionError(
                f"bad attachment {spec!r}; expected VERTEX:LENGTH") from exc
    return out


def cmd_persistence(args) -> int:
    if args.bench and args.format != "csv":  # its rows are CSV
        raise PreconditionError("--bench needs --format csv")
    graph = _load(args.file)
    curve = persistence.persistent_entropy(graph, strategy=args.strategy)
    payload = persistence.export_curve(curve, args.format).decode()
    if args.bench:
        payload += _bench_report(graph, args.strategy, curve)
    _emit(payload, args.out)
    return EXIT_OK


def _bench_report(graph: MetricGraph, strategy: str, curve) -> str:
    """The bench rows of the three strategies; ``curve`` is ``strategy``'s."""
    curves = {name: curve if name == strategy else
              persistence.persistent_entropy(graph, strategy=name)
              for name in ("direct", "incremental", "auto")}
    lines = ["bench,strategy,epsilon,ms,step_strategy"]
    for name, curve in curves.items():
        for step in curve.steps:
            lines.append(f"bench,{name},{step.epsilon!r},{step.ms:.3f},"
                         f"{step.strategy.value}")
    crossover = None
    direct, incr = curves["direct"].steps, curves["incremental"].steps
    for sd, si in zip(direct, incr):
        if si.ms < sd.ms:
            crossover = sd.epsilon
            break
    lines.append(f"crossover,{'' if crossover is None else repr(crossover)}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    graph = _load(args.file)
    cap = args.cap
    counting._check_limits(None, cap)  # even where no check enumerates
    budget = min(cap, 200_000)  # walks at a check's horizon; 0: no walk
    results: list[tuple[str, str, str]] = []  # (name, status, detail)

    def record(name, status, detail=""):
        results.append((name, status, detail))

    root = _vertex_root(graph)
    h = root.h
    record("entropy-solve", "PASS",
           f"h={h:.9g} residual={abs(root.null_eigenvalue):.2e}")

    comps = [verts for verts, _ in graph._split[1] if verts.size >= 2]
    if comps:
        a, b = sorted(map(graph.vertices.__getitem__, comps[0].tolist()))[:2]
        resid = check_symmetry(graph, a, b, h + 0.5)
        status = "PASS" if resid <= 1e-10 else "FAIL"
        record("genfun-symmetry", status, f"|f_xy-f_yx|={resid:.2e}")
    else:
        record("genfun-symmetry", "SKIPPED", "no 2-vertex component")

    core = reduce(graph).graph  # keeps the names of the graph's vertices
    hyper = [verts[0] for (verts, _), betti
             in zip(core._split[1], first_betti(core)) if betti >= 2]
    skip_reason = "no hyperbolic component" if not hyper else None
    if hyper:
        core0 = component_of(core, core.vertices[hyper[0]])
        v = max(core0.vertex_set, key=lambda w: (core0.degree(w), w))
        # the cached vertex root of the component of v in the graph
        h_core = _vertex_root(component_of(graph, v)).h
        r_cap = budget and counting.horizon_for_budget(core0, v, budget)
        longest = max(d.length for d in core0.darts)
        if r_cap < 3.0 * longest:
            skip_reason = (f"cap {cap:g} allows horizon "
                           f"{r_cap:.3g} only")

    def growth_bounds():
        rep = counting.growth_bounds(core0, v, r_cap, cap=cap, h=h_core)
        return rep.passed, (f"M={rep.m_formula:.4g} m={rep.m_empirical:.4g} "
                            f"rho(A)={rep.rho_a:.9f}")

    def recursions():
        # the walk counts backtracking cycles, which outgrow the others
        r_max = min(0.6 * r_cap, counting.horizon_for_budget(
            core0, v, budget, TransferMode.BACKTRACKING))
        rec = counting.verify_recursions(core0, v, r_max=r_max, cap=cap)
        return rec.passed, f"{len(rec.r_grid)} radii"

    def laplace():
        prof = counting.enumerate_paths(core0, counting.EnumerationSpec(
            counting.PathKind.PATHS_FROM, 0.8 * r_cap, x=min(core0.vertex_set),
            cap=cap))
        reps = [counting.laplace_check(prof, core0, h + dt, h=h_core)
                for dt in (0.2, 0.6, 1.0, 1.4, 2.0)]
        worst = max(abs(r.f_value - r.truncated) for r in reps)
        return all(r.passed for r in reps), f"max truncation {worst:.2e}"

    for name, check in (("growth-bounds", growth_bounds),
                        ("recursions", recursions), ("laplace", laplace)):
        if skip_reason is not None:
            record(name, "SKIPPED", skip_reason)
            continue
        try:
            passed, detail = check()
            record(name, "PASS" if passed else "FAIL", detail)
        except HorizonTooLarge as exc:
            record(name, "SKIPPED", str(exc))

    pair = _first_nonadjacent_pair(graph)
    if pair:
        x, y = pair
        inc = entropy_after_edge(graph, x, y, 1.0)
        _, diff = _direct_gap(add_edge(graph, x, y, 1.0), x, inc.h_prime)
        record("edge-cross-method", "PASS" if diff <= 1e-8 else "FAIL",
               f"|inc-direct|={diff:.2e}")
    else:
        record("edge-cross-method", "SKIPPED", "no non-adjacent pair")

    failed = [name for name, status, _ in results if status == "FAIL"]
    for name, status, detail in results:
        print(f"{status:7s} {name}" + (f"  {detail}" if detail else ""))
    if failed:
        print("failed properties: " + ", ".join(failed), file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _first_nonadjacent_pair(graph: MetricGraph):
    for indices, _ in graph._split[1]:
        verts = sorted(map(graph.vertices.__getitem__, indices.tolist()))
        for i, x in enumerate(verts):
            neighbors = {graph.darts[d].head for d in graph.out_darts(x)}
            for y in verts[i + 1:]:
                if y not in neighbors:
                    return x, y
    return None


def cmd_generate(args) -> int:
    graph = generate_graph(args.seed, args.vertices, args.edges,
                           length_model=args.model,
                           require_hyperbolic=args.hyperbolic)
    _emit(serialize_json(graph), args.out)
    return EXIT_OK


def cmd_count(args) -> int:
    graph = _load(args.file)
    kind = {"paths-from": counting.PathKind.PATHS_FROM,
            "paths-xy": counting.PathKind.PATHS_XY,
            "cycles": counting.PathKind.CYCLES_AT,
            "primitive": counting.PathKind.PRIMITIVE_CYCLES_AT}[args.kind]
    mode = TransferMode.BACKTRACKING if args.mode == "bt" \
        else TransferMode.NON_BACKTRACKING
    spec = counting.EnumerationSpec(kind, args.r, mode, x=args.x, y=args.y,
                                    v=args.v, cap=args.cap)
    profile = counting.enumerate_paths(graph, spec)
    if args.format == "json":
        jumps, n_le = profile.steps()
        payload = json.dumps(
            {"kind": args.kind, "mode": args.mode, "r_max": args.r,
             "total": int(profile.lengths.size),
             "cumulative": [{"length": k, "count": v} for k, v in
                            zip(jumps.tolist(), n_le.tolist())]},
            indent=2) + "\n"
    else:
        payload = profile.to_csv()
    _emit(payload, args.out)
    return EXIT_OK


_OPTIONS = {
    "cap": dict(type=float, default=counting.DEFAULT_CAP,
                help="enumeration node cap"),
    "format": dict(choices=("csv", "json"), default="csv"),
    "out": dict(default=None, metavar="PATH"),
}


def _options(*names: str) -> argparse.ArgumentParser:
    """Parent parser with the named shared options: each subcommand takes
    only the options it reads."""
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        parent.add_argument(f"--{name}", **_OPTIONS[name])
    return parent


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrograph",
        description="Volume entropy of metric graphs: solvers, "
                    "incremental formulas, counting checks, persistence.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="volume entropy of a graph file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("add-edge",
                       help="incremental vs direct entropy after one edge")
    p.add_argument("file")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("length", type=float)
    p.set_defaults(fn=cmd_add_edge)

    p = sub.add_parser("add-vertex",
                       help="incremental vs direct entropy after a vertex")
    p.add_argument("file")
    p.add_argument("--attach", action="append", required=True,
                   metavar="VERTEX:LENGTH")
    p.set_defaults(fn=cmd_add_vertex)

    p = sub.add_parser("persistence",
                       parents=[_options("format", "out")],
                       help="persistent entropy curve over edge lengths")
    p.add_argument("file")
    p.add_argument("--strategy", choices=("direct", "incremental", "auto"),
                   default="auto",
                   help="direct solves each changed component whole, "
                   "incremental takes the Schur step on the ends of the "
                   "new edges, auto (the default) solves components of "
                   f"fewer than {_AUTO_DIRECT_BELOW} vertices whole and "
                   "larger ones by the Schur step")
    p.add_argument("--bench", action="store_true")
    p.set_defaults(fn=cmd_persistence)

    p = sub.add_parser("verify", parents=[_options("cap")],
                       help="run the property suite on one graph")
    p.add_argument("file")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("generate", parents=[_options("out")],
                       help="seeded random connected graph file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vertices", type=int, required=True)
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--model", choices=("generic", "lattice"),
                   default="generic")
    p.add_argument("--hyperbolic", action="store_true",
                   help="require at least Betti number 2")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("count", parents=[_options("cap", "format", "out")],
                       help="enumerate paths/cycles below a horizon")
    p.add_argument("file")
    p.add_argument("--kind", choices=("paths-from", "paths-xy", "cycles",
                                      "primitive"), required=True)
    p.add_argument("--x", default=None)
    p.add_argument("--y", default=None)
    p.add_argument("--v", default=None)
    p.add_argument("--r", type=float, required=True,
                   help="enumeration horizon")
    p.add_argument("--mode", choices=("nb", "bt"), default="nb")
    p.set_defaults(fn=cmd_count)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationFailed, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (EntrographError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
