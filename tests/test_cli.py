"""CLI commands, file formats and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from entrograph import (MetricGraph, ParseError, add_vertex, delete_edge,
                        estimate_constant_C, parse_graph,
                        parse_graph_edgelist, parse_graph_json,
                        persistent_entropy, same_graph, serialize_edgelist,
                        serialize_json)
from entrograph import cli, counting, entropy, errors
from entrograph.cli import main
from entrograph.graphio import generate_graph
from helpers import c4, complete4, rose, theta


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.json"
    path.write_text(serialize_json(complete4()))
    return str(path)


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(serialize_json(c4()))
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("a b 1.0\nb c 1.5\n# comment\nc d 2.25\n")
    return str(path)


def test_round_trip_json_and_edgelist():
    for g in (complete4(), rose(2), c4()):
        assert same_graph(parse_graph(serialize_json(g)), g)
        if all(g.out_darts(v) for v in g.vertices):
            assert same_graph(parse_graph(serialize_edgelist(g)), g)


def test_parsers_order_listed_vertices_then_edge_ends():
    g = parse_graph_json(json.dumps({"vertices": [3, "a"], "edges": [
        {"u": "b", "v": 3, "length": 1.0}, {"u": "c", "v": "b", "length": 2},
        {"u": "a", "v": "c", "length": 1.5}]}))
    assert g.vertices == ("3", "a", "b", "c")
    assert g.edge_list()[0] == ("b", "3", 1.0)
    g = parse_graph_edgelist("b a 1.0\n# c first here\na c 2\nc b 1.5\n")
    assert g.vertices == ("b", "a", "c")


@pytest.mark.parametrize("parse, text", [
    (parse_graph_json, '{"vertices": ["a"]}'),
    (parse_graph_json, '{"vertices": ["a"], "edges": null}'),
    (parse_graph_json, '{"vertices": "ab", "edges": []}'),
    (parse_graph_json, '{"edges": [{"u": "a", "length": 1.0}]}'),
    (parse_graph_edgelist, "a b 1.0\na b\n"),
    (parse_graph_edgelist, "a b one\n"),
    (parse_graph_edgelist, "a b 1.0\nb c 0\n"),
], ids=["no-edges", "edges-not-list", "vertices-not-list", "bad-record",
        "field-count", "bad-length", "non-positive-length"])
def test_parsers_raise_parse_error(parse, text):
    with pytest.raises(ParseError):
        parse(text)


def test_entropy_command(k4_file, capsys):
    assert main(["entropy", k4_file]) == 0
    out = capsys.readouterr().out
    assert "h = 0.693147" in out
    assert "component" in out


def test_entropy_tree(tree_file, capsys):
    assert main(["entropy", tree_file]) == 0
    assert "h = 0" in capsys.readouterr().out


def test_entropy_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["entropy", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_entropy_invalid_graph(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "vertices": ["a", "b"],
        "edges": [{"u": "a", "v": "b", "length": -2.0}]}))
    assert main(["entropy", str(bad)]) == 2


def test_add_edge_command(c4_file, capsys):
    assert main(["add-edge", c4_file, "a", "c", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "0.41961" in out
    diff = float(out.split("|incremental - direct| = ")[1])
    assert diff <= 1e-8


def test_add_edge_adjacent_exit_code(c4_file, capsys):
    # a parallel edge and a loop are edge-operator cases, not errors
    for y in ("b", "a"):
        assert main(["add-edge", c4_file, "a", y, "1.0"]) == 0
        out = capsys.readouterr().out
        assert "incremental h' = " in out and "direct h' = " in out
        assert float(out.split("|incremental - direct| = ")[1]) <= 1e-8


def test_add_vertex_command(c4_file, capsys):
    code = main(["add-vertex", c4_file, "--attach", "a:1",
                 "--attach", "b:1", "--attach", "c:1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "incremental h' = " in out and "direct h' = " in out
    diff = float(out.split("|incremental - direct| = ")[1])
    assert diff <= 1e-8


@pytest.mark.parametrize("edit", [
    ["add-vertex", "--attach", "a:1", "--attach", "b:1", "--attach", "c:1"],
    ["add-edge", "a", "x", "1.0"],  # merges the two components
    ["add-edge", "a", "c", "1.0"],
])
def test_edit_compares_with_the_edited_component(edit, tmp_path, capsys):
    # the x-y theta has a higher entropy than the a-b-c part; direct h' is
    # the entropy of the component the edit touches
    path = tmp_path / "two.json"
    path.write_text(serialize_json(MetricGraph.from_edges(
        ["a", "b", "c", "x", "y"],
        [("a", "b", 1.0), ("a", "b", 1.3), ("b", "c", 0.7), ("c", "a", 1.1),
         ("x", "y", 0.2), ("x", "y", 0.3), ("x", "y", 0.25)])))
    assert main([edit[0], str(path), *edit[1:]]) == 0
    out = capsys.readouterr().out
    assert float(out.split("|incremental - direct| = ")[1]) <= 1e-8


@pytest.mark.parametrize("edit", [
    ["add-edge", "a", "a", "0.5"],
    ["add-vertex", "--attach", "a:1", "--attach", "b:1", "--attach", "a:2"],
])
def test_edit_commands_on_wide_lengths(edit, tmp_path, capsys):
    # the theta with lengths 1, 1, 0.01, where a dart power iteration at
    # log(2) / 0.01 does not converge: direct h' is the vertex-matrix solve
    path = tmp_path / "theta.txt"
    path.write_text("a b 1.0\na b 1.0\na b 0.01\n")
    assert main([edit[0], str(path), *edit[1:]]) == 0
    out = capsys.readouterr().out
    assert float(out.split("|incremental - direct| = ")[1]) <= 1e-8


def test_add_vertex_too_few_exit_code(c4_file):
    assert main(["add-vertex", c4_file, "--attach", "a:1",
                 "--attach", "b:1"]) == 4


def test_persistence_tree_curve(tree_file, capsys):
    assert main(["persistence", tree_file]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "epsilon,h,strategy,iterations,ms"
    assert len(lines) == 4
    assert all(line.split(",")[1] == "0.0" for line in lines[1:])


def test_persistence_k4_chord_rows(tmp_path, capsys):
    from entrograph import MetricGraph
    g = MetricGraph.from_edges(
        list("abcd"),
        [("a", "b", 1.0), ("a", "c", 1.0), ("a", "d", 1.0),
         ("b", "c", 1.0), ("b", "d", 1.0), ("c", "d", 2.0)])
    path = tmp_path / "k4c.json"
    path.write_text(serialize_json(g))
    assert main(["persistence", str(path)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert len(lines) == 3


def test_persistence_bench_report(c4_file, tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    assert main(["persistence", c4_file, "--bench",
                 "--out", str(out_path)]) == 0
    text = out_path.read_text()
    assert "bench,direct," in text
    assert "crossover," in text


@pytest.mark.parametrize("strategy", ["auto", "direct", "incremental"])
def test_persistence_bench_computes_each_curve_once(tmp_path, monkeypatch,
                                                    capsys, strategy):
    # the curve of --strategy is computed once and reused by the bench
    # rows, which keep their strategies, epsilons and step labels
    g = generate_graph(1, 6, 10)
    path = tmp_path / "g.json"
    path.write_text(serialize_json(g))
    curve = cli.persistence.persistent_entropy
    want = [f"bench,{name},{step.epsilon!r},{step.strategy.value}"
            for name in ("direct", "incremental", "auto")
            for step in curve(g, name).steps]
    calls = []
    monkeypatch.setattr(cli.persistence, "persistent_entropy",
                        lambda graph, strategy: calls.append(strategy)
                        or curve(graph, strategy))
    assert main(["persistence", str(path), "--bench",
                 "--strategy", strategy]) == 0
    assert calls[0] == strategy
    assert sorted(calls) == ["auto", "direct", "incremental"]
    lines = capsys.readouterr().out.split("\n")
    head = lines.index("bench,strategy,epsilon,ms,step_strategy")
    rows = [line.split(",") for line in lines[head + 1:]
            if line.startswith("bench,")]
    assert [",".join(r[:3] + r[4:]) for r in rows] == want


def test_persistence_json_bench_is_refused(c4_file, tmp_path, monkeypatch,
                                           capsys):
    # the CSV bench rows used to follow the JSON document, which then did
    # not parse; the refusal comes before any curve is computed
    def computed(*args, **kwargs):
        raise AssertionError("a curve was computed")
    monkeypatch.setattr(cli.persistence, "persistent_entropy", computed)
    out_path = tmp_path / "curve.json"
    assert main(["persistence", c4_file, "--format", "json", "--bench",
                 "--out", str(out_path)]) == 4
    assert "--format csv" in capsys.readouterr().err
    assert not out_path.exists()


def test_persistence_json_format(c4_file, capsys):
    assert main(["persistence", c4_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert "steps" in doc and "thresholds" in doc


def test_verify_rose2_all_pass(tmp_path, capsys):
    path = tmp_path / "rose2.json"
    path.write_text(serialize_json(rose(2)))
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "PASS" in out
    assert "edge-cross-method" in out


def test_verify_tiny_cap_skips_enumeration_checks(k4_file, capsys):
    # cap 0 was refused for a "target" the user never gave: the walk
    # budget of the checks' horizons, min(cap, 200 000)
    checks = ("growth-bounds", "recursions", "laplace")
    for cap in ("10", "0"):
        assert main(["verify", k4_file, "--cap", cap]) == 0
        out, err = capsys.readouterr()
        skipped = [line for line in out.splitlines()
                   if line.split()[1] in checks]
        assert [line.split()[:2] for line in skipped] == [
            ["SKIPPED", name] for name in checks]
        assert all(f"cap {cap} allows horizon" in line for line in skipped)
        assert "FAIL" not in out
        assert "target" not in out + err


def test_verify_deterministic_output(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(serialize_json(generate_graph(3, 5, 8)))
    main(["verify", str(path)])
    first = capsys.readouterr().out
    main(["verify", str(path)])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("text", ["a b 1.0\nb c 0.7\nc a 1.1\n",
                                  "a a 1.0\n"], ids=["triangle", "loop"])
def test_verify_skips_a_single_cycle(text, tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(text)
    assert main(["verify", str(path)]) == 0
    skipped = [line for line in capsys.readouterr().out.splitlines()
               if line.endswith("no hyperbolic component")]
    assert [line.split()[:2] for line in skipped] == [
        ["SKIPPED", name] for name in ("growth-bounds", "recursions",
                                       "laplace")]


def test_verify_checks_the_theta_beside_a_triangle(tmp_path, capsys):
    # the triangle reduces to a loop that sorts first; the theta is
    # the first component with two independent cycles
    path = tmp_path / "g.txt"
    path.write_text("a b 1.0\nb c 0.7\nc a 1.1\n"
                    "x y 0.2\nx y 0.3\nx y 0.25\n")
    assert main(["verify", str(path)]) == 0
    assert "PASS    growth-bounds  M=6.607 m=0.491 rho(A)=1.000000000\n" \
        in capsys.readouterr().out


def test_verify_on_wide_lengths(tmp_path, capsys):
    # the theta with lengths 1, 1, 0.01, where a dart power iteration at
    # log(2) / 0.01 does not converge: every entropy verify reads is a
    # vertex root
    path = tmp_path / "theta.txt"
    path.write_text("a b 1.0\na b 1.0\na b 0.01\n")
    assert main(["verify", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS    entropy-solve  h=")
    assert not [line for line in out.splitlines()
                if line.startswith("FAIL")]
    # its recursions horizon comes from the backtracking count model,
    # which the walk grows by: the check runs instead of being refused
    assert "PASS    recursions  20 radii\n" in out


def test_entropy_command_on_wide_lengths(tmp_path, capsys):
    # the same theta: the dart solve starts at the row-sum bound, where
    # its power iteration converges, and agrees with verify's vertex root
    path = tmp_path / "theta.txt"
    path.write_text("a b 1.0\na b 1.0\na b 0.01\n")
    assert main(["entropy", str(path)]) == 0
    h = float(capsys.readouterr().out.split("h = ")[1].split()[0])
    ref = entropy._vertex_root(theta((1.0, 1.0, 0.01))).h
    assert abs(h - ref) <= 1e-8


def test_verify_solver_error_exits_3(k4_file, monkeypatch, capsys):
    # one evaluation per vertex solve: the first root verify reads fails
    monkeypatch.setattr(entropy, "_NEWTON_CAP", 1)
    assert main(["verify", k4_file]) == 3
    assert "lambda = 0 unresolved after 1 evaluations" \
        in capsys.readouterr().err


def test_failed_lapack_call_exits_3(k4_file, monkeypatch, capsys):
    # LinAlgError subclasses ValueError, yet a failed dsyevr is a solver
    # failure, not a precondition violation
    monkeypatch.setattr(entropy, "dsyevr", lambda *a, **k: (None,) * 4 + (1,))
    assert main(["verify", k4_file]) == 3
    assert "dsyevr failed with info = 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["entropy"], ["persistence", "--strategy", "direct"],
    ["persistence", "--strategy", "incremental"], ["add-edge", "a", "a", "1"]])
def test_subnormal_shortest_edge_exits_4(argv, tmp_path, capsys):
    # the valid theta of lengths 1e-320, 1, 1 has no finite entropy bound
    path = tmp_path / "theta.txt"
    path.write_text("a b 1e-320\na b 1.0\na b 1.0\n")
    assert main([argv[0], str(path), *argv[1:]]) == 4
    assert "of length 1e-320 is too short" in capsys.readouterr().err


# every class of entrograph.errors and the CLI exit code it maps to: 4
# for a refusal (a PreconditionError), 2 for a graph that fails
# validation, 3 for a solver failure
EXIT_CODES = {
    "EntrographError": 3, "NonConvergence": 3, "DivergentSeries": 3,
    "ValidationFailed": 2, "PreconditionError": 4, "UnknownVertex": 4,
    "NonPositiveLength": 4, "DisconnectedPair": 4, "TooFewAttachments": 4,
    "InvalidDartIndex": 4, "InsufficientData": 4, "HorizonTooLarge": 4,
    "MarginTooSmall": 4, "UnknownFormat": 4,
}
ERROR_CLASSES = [cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, Exception)]


def test_every_error_class_has_an_exit_code():
    assert sorted(cls.__name__ for cls in ERROR_CLASSES) == sorted(EXIT_CODES)


@pytest.mark.parametrize("cls", ERROR_CLASSES, ids=lambda cls: cls.__name__)
def test_error_class_decides_the_exit_code(cls, k4_file, monkeypatch,
                                           capsys):
    # a refusal is a PreconditionError, and so a ValueError; the base
    # class and the two solver failures are neither
    code = EXIT_CODES[cls.__name__]
    assert issubclass(cls, errors.EntrographError)
    assert issubclass(cls, errors.PreconditionError) is (code != 3)
    assert issubclass(cls, ValueError) is (code != 3)
    exc = cls(["a report line"]) if cls is errors.ValidationFailed \
        else cls("raised by the entropy solve")

    def fail(graph):
        raise exc

    monkeypatch.setattr(cli, "volume_entropy", fail)
    assert main(["entropy", k4_file]) == code
    assert capsys.readouterr() == ("", f"error: {exc}\n")


@pytest.mark.parametrize("call, message", [
    (lambda: add_vertex(c4(), []), "attachment list must not be empty"),
    (lambda: add_vertex(c4(), [("a", 1.0)], new_id="b"),
     "vertex 'b' already exists"),
    (lambda: delete_edge(c4(), 8), "dart id 8 out of range"),
    (lambda: estimate_constant_C(complete4(), "a", "b", method="bogus"),
     "unknown method 'bogus'"),
    (lambda: persistent_entropy(c4(), strategy="bogus"),
     "unknown strategy 'bogus'"),
    (lambda: cli._parse_attachments(["a"]),
     "bad attachment 'a'; expected VERTEX:LENGTH"),
], ids=["add_vertex-empty", "add_vertex-existing", "delete_edge",
        "estimate_constant_C", "persistent_entropy", "parse_attachments"])
def test_former_value_errors_are_refusals(call, message):
    # each of these raised a plain ValueError
    with pytest.raises(errors.PreconditionError) as info:
        call()
    assert type(info.value) is errors.PreconditionError
    assert str(info.value) == message


def test_verify_failed_property_exits_5(k4_file, monkeypatch, capsys):
    monkeypatch.setattr(counting, "growth_bounds", lambda *a, **k: (
        SimpleNamespace(passed=False, m_formula=1.0, m_empirical=2.0,
                        rho_a=1.0)))
    assert main(["verify", k4_file]) == 5
    captured = capsys.readouterr()
    assert "FAIL    growth-bounds" in captured.out
    assert "failed properties: growth-bounds" in captured.err


def test_attachment_without_length_exits_4(c4_file, capsys):
    assert main(["add-vertex", c4_file, "--attach", "a"]) == 4
    assert "VERTEX:LENGTH" in capsys.readouterr().err


def test_generate_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", "--seed", "1", "--vertices", "5",
                 "--edges", "8", "--out", str(a)]) == 0
    assert main(["generate", "--seed", "1", "--vertices", "5",
                 "--edges", "8", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_generate_lattice_lengths(capsys):
    assert main(["generate", "--seed", "2", "--vertices", "4",
                 "--edges", "6", "--model", "lattice"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(e["length"] == 1.0 for e in doc["edges"])


def test_generate_infeasible(capsys):
    assert main(["generate", "--seed", "1", "--vertices", "6",
                 "--edges", "3"]) == 4
    assert main(["generate", "--seed", "1", "--vertices", "6",
                 "--edges", "6", "--hyperbolic"]) == 4


def test_generate_connected_and_hyperbolic():
    from entrograph import components, first_betti
    g = generate_graph(9, 6, 9, require_hyperbolic=True)
    assert len(components(g)) == 1
    assert first_betti(g)[0] >= 2


def test_count_command_csv(c4_file, capsys):
    assert main(["count", c4_file, "--kind", "paths-xy",
                 "--x", "a", "--y", "c", "--r", "7"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "length,cumulative"
    assert lines[1] == "2.0,2"
    assert lines[2] == "6.0,4"
    assert main(["count", c4_file, "--kind", "cycles", "--v", "a",
                 "--r", "9"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == ["length,cumulative", "4.0,2", "8.0,4"]


def test_count_json_matches_csv(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(serialize_json(generate_graph(3, 6, 10)))
    for extra in (["--kind", "paths-from", "--x", "v0", "--r", "5"],
                  ["--kind", "cycles", "--v", "v1", "--r", "7", "--mode",
                   "bt"]):
        assert main(["count", str(path), *extra]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert main(["count", str(path), *extra, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [f"{c['length']!r},{c['count']}"
                for c in doc["cumulative"]] == rows
        assert doc["total"] == doc["cumulative"][-1]["count"]


def test_count_cap_exit_code(tmp_path, capsys):
    path = tmp_path / "rose2.json"
    path.write_text(serialize_json(rose(2)))
    for cap in ("1000", "1e3"):  # --cap also takes float text
        assert main(["count", str(path), "--kind", "paths-from", "--x", "v",
                     "--r", "40", "--cap", cap]) == 4
        err = capsys.readouterr().err
        assert "horizon" in err
        assert "exceeds cap 1000;" in err  # the float cap prints as before


@pytest.mark.parametrize("cap", ["inf", "nan", "-1"])
@pytest.mark.parametrize("argv", [
    ["verify", "K4"], ["verify", "TREE"],
    ["count", "K4", "--kind", "cycles", "--v", "a", "--r", "9"],
], ids=["verify", "verify-no-enumeration", "count"])
def test_cap_must_be_finite_and_nonnegative(argv, cap, k4_file, tree_file,
                                            capsys):
    # --cap inf used to end in an OverflowError traceback (exit 1) from
    # int(inf); main returns 4 with one error line.  verify refuses
    # the cap also on a tree, where none of its checks enumerates
    files = {"K4": k4_file, "TREE": tree_file}
    assert main([files.get(arg, arg) for arg in argv] + ["--cap", cap]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: cap must be nonnegative and finite, " \
                  f"got {float(cap)}\n"


@pytest.mark.parametrize("argv", [
    ["verify", "K4"], ["verify", "TREE"],
    ["count", "K4", "--kind", "cycles", "--v", "a", "--r", "3"],
], ids=["verify", "verify-no-enumeration", "count"])
def test_cap_above_max_cap_is_refused(argv, k4_file, tree_file, capsys):
    # a finite huge cap used to start the walk, whose node limit then
    # bounded nothing; at r = 3 the walk is tiny, so only the ceiling
    # refuses it
    files = {"K4": k4_file, "TREE": tree_file}
    assert main([files.get(arg, arg) for arg in argv]
                + ["--cap", "1e30"]) == 4
    assert capsys.readouterr() == (
        "", "error: cap 1e+30 exceeds MAX_CAP = 100000000\n")


def test_count_nan_horizon_exit_code(c4_file, capsys):
    # the nan horizon used to print an empty CSV and exit 0
    assert main(["count", c4_file, "--kind", "cycles", "--v", "a",
                 "--r", "nan"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert "horizon must be positive" in err


def test_count_missing_endpoint_exit_code(c4_file, capsys):
    assert main(["count", c4_file, "--kind", "paths-xy", "--x", "a",
                 "--r", "3"]) == 4
    assert "paths-xy needs the endpoint y" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["verify", "K4", "--format", "json"],
    ["generate", "--vertices", "5", "--edges", "8", "--tol", "1e-9"],
    ["entropy", "K4", "--cap", "10"],
    ["add-edge", "K4", "a", "b", "1.0", "--out", "h.txt"],
    ["count", "K4", "--kind", "cycles", "--v", "a", "--r", "5",
     "--margin", "0.1"],
    ["add-edge", "K4", "a", "b", "1.0", "--margin", "0.1"],
    ["persistence", "K4", "--tol", "1e-9"],
    ["entropy", "K4", "--tol", "1e-9"],
    ["entropy", "K4", "--max-iter", "5"],
    ["add-edge", "K4", "a", "b", "1.0", "--tol", "1e-9"],
    ["add-vertex", "K4", "--attach", "a:1", "--tol", "1e-9"],
    ["verify", "K4", "--tol", "1e-9"],
])
def test_option_a_command_does_not_read_exits_2(argv, k4_file, capsys):
    with pytest.raises(SystemExit) as info:
        main([k4_file if arg == "K4" else arg for arg in argv])
    assert info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_calls_build_one_parser(k4_file, capsys):
    # the parser is built at the first main call and reused by the next
    cli._build_parser.cache_clear()
    assert main(["verify", k4_file]) == 0
    first = capsys.readouterr().out
    assert main(["verify", k4_file]) == 0
    assert capsys.readouterr().out == first
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def test_import_builds_no_parser():
    code = ("import entrograph.cli as c; "
            "print(c._build_parser.cache_info().misses)")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "0\n"
