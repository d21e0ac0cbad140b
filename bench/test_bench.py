"""Tests of the benchmark itself: inputs, output checks, span arithmetic.

Run from the repository root: python3 -m pytest -q bench
"""

import contextlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
import run  # noqa: E402
from kirchlab import cli, oracle_kirchhoff  # noqa: E402
from kirchlab import TransformKind, apply_transform, parse_edge_list  # noqa: E402


def _inputs(name, seed, workdir):
    ops = workloads.make_ops(name, seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    shape = [(op.name, op.kind, op.fmt, op.corpus,
              [a.replace(str(workdir), "") for a in op.argv]) for op in ops]
    return files, shape


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(tmp_path, name):
    first = _inputs(name, 7, tmp_path / "a")
    assert first == _inputs(name, 7, tmp_path / "b")
    assert first != _inputs(name, 8, tmp_path / "c")


def test_generated_graphs_are_simple_and_connected():
    rng = np.random.default_rng(3)
    for n, m in [(2, 1), (10, 9), (10, 45), (60, 200)]:
        edges = workloads.random_connected_edges(rng, n, m)
        text = "\n".join(f"{u} {v}" for u, v in edges.tolist())
        g = parse_edge_list(f"{n} {m}\n{text}\n")  # rejects loops and duplicates
        assert (g.n, g.m) == (n, m)
        assert oracle_kirchhoff(g) > 0  # raises on a disconnected graph


def _cli_op(tmp_path, argv_head, kind, fmt=""):
    edges = workloads.random_connected_edges(np.random.default_rng(5), 12, 30)
    graph = workloads.write_graph(tmp_path / "g.txt", 12, edges)
    out = tmp_path / "out.txt"
    op = workloads.Op(name="t", argv=(*argv_head, "--kind", kind, graph),
                      stdout=str(out), graph=graph, kind=kind, fmt=fmt)
    with open(out, "w") as fh, contextlib.redirect_stdout(fh):
        assert cli.main(list(op.argv)) == 0
    return op, out


@pytest.mark.parametrize("kind", ["quad", "pent"])
def test_kf_check_rejects_a_relative_perturbation_of_1e_6(tmp_path, kind):
    op, out = _cli_op(tmp_path, ("kirchhoff",), kind)
    printed = out.read_text()
    assert checks.check_op(op, [printed]) is None
    wrong = cli.format_significant(float(printed) * (1 + 1e-6))
    assert checks.check_op(op, [printed, wrong + "\n"]) is not None


@pytest.mark.parametrize("kind,fmt", [("quad", "json"), ("pent", "csv")])
def test_resist_check_rejects_one_altered_entry(tmp_path, kind, fmt):
    op, out = _cli_op(tmp_path, ("resist", "--format", fmt), kind, fmt)
    assert checks.check_op(op, [None]) is None
    r = checks.read_resistances(str(out), fmt, kind)
    r[3, 7] += 1e-6
    if fmt == "json":
        out.write_text(json.dumps({"kind": kind, "n": len(r), "matrix": r.tolist()}))
    else:
        out.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in r))
    assert checks.check_op(op, [None]) is not None
    out.write_text("not a matrix\n")
    assert checks.check_op(op, [None]) is not None


@pytest.mark.parametrize("kind", ["quad", "pent"])
def test_expected_transform_matches_the_package(tmp_path, kind):
    edges = workloads.random_connected_edges(np.random.default_rng(9), 30, 70)
    graph = workloads.write_graph(tmp_path / "g.txt", 30, edges)
    text = Path(graph).read_text()
    want = checks.expected_transform(text, kind)
    rendered = apply_transform(parse_edge_list(text), TransformKind(kind))
    got = np.array([[rendered.n, rendered.m], *rendered.edges])
    assert np.array_equal(want, got)


def test_corpus_check_counts_a_failed_compare():
    op = workloads.Op(name="vc", corpus=(5, 1))
    clauses = {cid: 0.0 for cid in checks.AUDIT_IDS["quad"]}
    good = [{"kind": "quad", "passed": True, "clauses": clauses}]
    assert checks.check_op(op, [good]) is None
    assert checks.check_op(op, [good, [{**good[0], "passed": False}]]) is not None


def _span(name, start, end, parent=-1, size=0):
    return spans.Span(name, start, end, parent, 0, size)


def test_self_time_subtracts_the_covered_part_of_children():
    tree = [
        _span("cli.main", 0.0, 10.0),
        _span("structured.build_structured_inverse", 1.0, 4.0, 0),
        _span("linalg.invert", 2.0, 3.0, 1, size=6),
        _span("graph.parse_edge_list", 3.5, 6.0, 0),  # overlaps its sibling
        _span("linalg.invert", 9.0, 12.0, 0, size=4),  # runs past its parent
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])
    layers = spans.summarize(tree, ops=2, peaks=[3 * 2**20])
    assert layers["cli.self_s"] == pytest.approx(2.0)
    assert layers["linalg.self_s"] == pytest.approx(2.0)
    assert layers["structured.build_s"] == pytest.approx(1.0)
    assert layers["linalg.invert_calls"] == 1.0
    assert layers["linalg.invert_max_dim"] == 6
    assert layers["structured.build_peak_mb"] == 3.0


def test_installed_wrappers_record_nested_spans_and_restore():
    from kirchlab import structured

    original = structured.invert
    recorder = spans.Recorder()
    g = parse_edge_list("3 3\n0 1\n1 2\n0 2\n")
    with spans.installed(recorder):
        assert structured.invert is not original
        structured.build_structured_inverse(g, TransformKind.PENTAGONAL)
    assert structured.invert is original
    names = [s.name for s in recorder.spans]
    assert names.count("linalg.invert") == 2
    build = names.index("structured.build_structured_inverse")
    assert all(s.parent >= build for s in recorder.spans[build + 1:])
    assert max(s.size for s in recorder.spans if s.name == "linalg.invert") == 9


def test_tail_is_the_sample_with_ten_beyond_it():
    times = [float(i) for i in range(100)]
    assert run.tail(times) == (89.0, pytest.approx(100 * 89 / 99))
    assert run.tail(times[:5]) == (4.0, 100.0)


def test_benchmark_json_names_what_the_run_prints():
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == spans.UNITS
    timed = {"records": [{"seconds": 0.1}] * 20, "passes": 11, "wall": 2.0}
    metrics, _ = run.end_to_end(timed, peak_rss_mb=50.0, setup_s=0.4)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == {
        name: unit for name, (_, unit) in metrics.items()}
