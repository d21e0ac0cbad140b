"""End-to-end command tests driven through main()."""

import io
import json
import random
import sys
import tracemalloc

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from kirchlab import cli
from kirchlab.cli import format_significant, main
from kirchlab.graph import parse_edge_list, render_edge_list
from kirchlab.structured import build_structured_inverse, resistance_matrix
from kirchlab.transforms import TransformKind
from kirchlab.verify import random_connected_graph

K2_TEXT = "2 1\n0 1\n"
P3_TEXT = "3 2\n0 1\n1 2\n"


def write_graph(tmp_path, text, name="g.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# ------------------------------------------------------------------ transform


def test_transform_stdout(tmp_path, capsys):
    path = write_graph(tmp_path, K2_TEXT)
    assert main(["transform", path]) == 0
    assert capsys.readouterr().out == "4 4\n0 1\n0 2\n2 3\n1 3\n"


def test_transform_pent_to_file(tmp_path, capsys):
    path = write_graph(tmp_path, K2_TEXT)
    out = tmp_path / "w.txt"
    assert main(["transform", "--kind", "pent", path, "-o", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == "5 5\n0 1\n0 2\n2 3\n3 4\n1 4\n"


def test_transform_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    path = write_graph(tmp_path, K2_TEXT)
    out = tmp_path / "missing_dir" / "out.txt"
    assert main(["transform", path, "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_transform_rejects_kind_none_flag(tmp_path, capsys):
    # argparse enforces the choice list itself
    path = write_graph(tmp_path, K2_TEXT)
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--kind", "none", path])
    assert exc.value.code == 2


# --------------------------------------------------------------------- resist


def test_resist_json(tmp_path, capsys):
    path = write_graph(tmp_path, K2_TEXT)
    assert main(["resist", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "quad"
    assert payload["n"] == 4
    assert abs(payload["matrix"][0][1] - 0.75) <= 1e-12
    assert abs(payload["matrix"][0][3] - 1.0) <= 1e-12


def test_resist_csv(tmp_path, capsys):
    path = write_graph(tmp_path, K2_TEXT)
    assert main(["resist", "--format", "csv", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "0.0,0.75,0.75,1.0"


def test_resist_plain(tmp_path, capsys):
    path = write_graph(tmp_path, K2_TEXT)
    assert main(["resist", "--format", "plain", path]) == 0
    first = capsys.readouterr().out.splitlines()[0].split()
    assert [float(v) for v in first] == [0.0, 0.75, 0.75, 1.0]


def seeded_graph_text(seed, n, m):
    """Random spanning tree plus extra edges, in shuffled order."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    edges = list(edges)
    rng.shuffle(edges)
    return "".join(f"{u} {v}\n" for u, v in edges)


def assert_same_text(got, expected):
    """Byte equality that reports where the texts first differ; pytest's own
    diff of megabytes of text takes minutes."""
    if got == expected:
        return
    pairs = enumerate(zip(got, expected))
    i = next((i for i, (a, b) in pairs if a != b), min(len(got), len(expected)))
    lo = max(i - 40, 0)
    pytest.fail(f"texts differ at offset {i}: {got[lo:i + 40]!r} != {expected[lo:i + 40]!r}")


@pytest.mark.parametrize("kind", ["quad", "pent"])
def test_resist_formats_at_size(tmp_path, capsys, kind):
    text = seeded_graph_text(210, 30, 90)
    path = write_graph(tmp_path, text)
    r = resistance_matrix(build_structured_inverse(parse_edge_list(text), TransformKind(kind)))
    assert r.shape[0] >= 200
    outputs = {}
    for fmt in ("json", "csv", "plain"):
        assert main(["resist", "--kind", kind, "--format", fmt, path]) == 0
        outputs[fmt] = capsys.readouterr().out

    payload = {"kind": kind, "n": r.shape[0], "matrix": r.tolist()}
    assert_same_text(outputs["json"], json.dumps(payload, separators=(",", ":")) + "\n")
    for fmt, sep in (("csv", ","), ("plain", " ")):
        expected = "".join(sep.join(repr(float(v)) for v in row) + "\n" for row in r)
        assert_same_text(outputs[fmt], expected)

    doc = json.loads(outputs["json"])
    assert doc["kind"] == kind and doc["n"] == r.shape[0]
    assert np.array_equal(np.array(doc["matrix"]), r)
    assert np.array_equal(np.loadtxt(outputs["csv"].splitlines(), delimiter=","), r)
    assert np.array_equal(np.loadtxt(outputs["plain"].splitlines()), r)


class ChunkRecorder(io.StringIO):
    """A stdout that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.chunks = []

    def write(self, text):
        self.chunks.append(len(text))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "csv", "plain"])
def test_resist_writes_row_by_row(tmp_path, monkeypatch, fmt):
    # the text of the whole matrix is never held at once
    path = write_graph(tmp_path, seeded_graph_text(211, 30, 90))
    out = ChunkRecorder()
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["resist", "--format", fmt, path]) == 0
    text = out.getvalue()
    n = json.loads(text)["n"] if fmt == "json" else len(text.splitlines())
    assert n >= 200
    assert len(out.chunks) >= n
    assert max(out.chunks) <= 2 * len(text) / n


def test_resist_holds_one_n_by_n_array(tmp_path, monkeypatch):
    # the matrix is the only N x N array: the writer formats it one row at
    # a time
    n, m = 46, 138
    big = TransformKind("pent").vertex_count(n, m)
    assert big >= 400
    path = write_graph(tmp_path, seeded_graph_text(212, n, m))
    with open(tmp_path / "r.json", "w", encoding="utf-8") as out:
        monkeypatch.setattr(sys, "stdout", out)
        tracemalloc.start()
        try:
            assert main(["resist", "--kind", "pent", path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert json.loads((tmp_path / "r.json").read_text())["n"] == big
    # X, then r in its place; P, P^T L^# and copies; two panels of 64 rows
    assert peak <= 8 * big**2 + 32 * n * big + 16 * 64 * big


# finite values that orjson spells unlike repr, and the edges of that range
EDGE_VALUES = [5e-5, np.nextafter(1e-4, 0), 1e-4, np.nextafter(1e16, 0), 1e16, 1e300,
               5e-324, -0.0]


def parsed(text, fmt):
    """The matrix that the writer's output parses back to."""
    if fmt == "json":
        return np.array(json.loads(text)["matrix"], dtype=np.float64)
    return np.loadtxt(text.splitlines(), delimiter="," if fmt == "csv" else None, ndmin=2)


@settings(max_examples=200, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(hnp.arrays(np.float64, st.integers(1, 6).map(lambda n: (n, n)),
                  elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from(EDGE_VALUES), st.floats(1e-4, 1e4))))
def test_write_matrix_round_trips_every_finite_value(capsys, r):
    # subnormals, -0.0 and values outside [1e-4, 1e16) included: every
    # format parses back to the same bits
    for fmt in ("json", "csv", "plain"):
        cli._write_matrix(r, fmt, "quad")
        back = parsed(capsys.readouterr().out, fmt)
        assert back.shape == r.shape
        assert np.array_equal(back.view(np.int64), r.view(np.int64)), fmt


def test_resist_self_check_passes(tmp_path, capsys):
    path = write_graph(tmp_path, P3_TEXT)
    assert main(["resist", "--kind", "pent", "--self-check", path]) == 0
    assert capsys.readouterr().err == ""


def test_resist_self_check_passes_on_large_kirchhoff(tmp_path, capsys):
    # W(P_100) has Kf about 2.2e6; an oracle delta near 1e-12 relative passes
    text = "".join(f"{i} {i + 1}\n" for i in range(99))
    path = write_graph(tmp_path, text)
    assert main(["resist", "--kind", "pent", "--self-check", "--format", "csv", path]) == 0
    assert capsys.readouterr().err == ""


def test_resist_self_check_fails_at_tiny_tol(tmp_path, capsys):
    path = write_graph(tmp_path, K2_TEXT)
    assert main(["resist", "--self-check", "--tol", "1e-30", path]) == 1
    captured = capsys.readouterr()
    assert "self-check failed" in captured.err
    # the matrix is still printed
    assert json.loads(captured.out)["n"] == 4


def test_resist_rejects_negative_tol(tmp_path, capsys):
    path = write_graph(tmp_path, K2_TEXT)
    assert main(["resist", "--tol", "-1", path]) == 2
    assert "positive" in capsys.readouterr().err


def test_consecutive_calls_share_no_state(tmp_path, capsys):
    # the parser is built once per process; no flag of one call reaches the next
    path = write_graph(tmp_path, K2_TEXT)
    assert main(["resist", "--kind", "pent", "--format", "csv", path]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    assert main(["resist", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "quad" and payload["n"] == 4
    with pytest.raises(SystemExit) as exc:
        main(["resist", "--format", "xml", path])
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["kirchhoff", path]) == 0
    assert capsys.readouterr().out == "5.00000000000\n"
    assert cli.build_parser() is cli.build_parser()


# ------------------------------------------------------------------ kirchhoff


def test_kirchhoff_digit_strings(tmp_path, capsys):
    path = write_graph(tmp_path, K2_TEXT)
    assert main(["kirchhoff", path]) == 0
    assert main(["kirchhoff", "--kind", "pent", path]) == 0
    assert main(["kirchhoff", "--kind", "none", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["5.00000000000", "10.0000000000", "1.00000000000"]


def test_kirchhoff_p3_quadrilateral(tmp_path, capsys):
    path = write_graph(tmp_path, P3_TEXT)
    assert main(["kirchhoff", path]) == 0
    assert capsys.readouterr().out == "25.0000000000\n"


@pytest.mark.parametrize("graph, digits", [
    (None, "4.00000000000"),
    ((5, 0), "8.18181818182"),
    ((9, 3), "26.5465838509"),
    ((30, 1), "57.4820538973"),
    ((59, 4), "119.764519089"),
])
def test_kirchhoff_of_the_factor_graph_digits(tmp_path, capsys, graph, digits):
    # Kf(G) of P3 and of random_connected_graph(n, 0.5, seed) as the SVD
    # oracle printed it; n tr L# prints the same digits (K2: digit strings above)
    text = P3_TEXT if graph is None else render_edge_list(
        random_connected_graph(graph[0], 0.5, graph[1]))
    assert main(["kirchhoff", "--kind", "none", write_graph(tmp_path, text)]) == 0
    assert capsys.readouterr().out == digits + "\n"


NO_EDGE = "error: factor graph must have at least one edge\n"


# the --kind none cases are named "text-err", the others "kind-text-err"
@pytest.mark.parametrize("kind, text, code, out, err", [
    pytest.param(kind, text, 2, "", err,
                 id=f"{text}-{err}" if kind == "none" else f"{kind}-{text}-{err}")
    for text, err in [
        ("", "error: empty graph\n"),
        ("4 2\n0 1\n2 3\n", "error: resistance distance requires a connected graph\n"),
    ]
    for kind in ("none", "quad", "pent")
] + [
    pytest.param("none", "1 0\n", 0, "0.00000000000\n", "", id="none-1 0\n-"),
    pytest.param("quad", "1 0\n", 2, "", NO_EDGE, id=f"quad-1 0\n-{NO_EDGE}"),
    pytest.param("pent", "1 0\n", 2, "", NO_EDGE, id=f"pent-1 0\n-{NO_EDGE}"),
])
def test_kirchhoff_of_the_factor_graph_bad_input(tmp_path, capsys, kind, text, code,
                                                 out, err):
    # every kind words an empty or a disconnected factor graph the same way;
    # an edgeless one has a Kirchhoff index but no transform
    assert main(["kirchhoff", "--kind", kind, write_graph(tmp_path, text)]) == code
    assert capsys.readouterr() == (out, err)


def test_format_significant():
    assert format_significant(5.0) == "5.00000000000"
    assert format_significant(25.0) == "25.0000000000"
    assert format_significant(0.75) == "0.750000000000"
    assert format_significant(0.9999999999999998) == "1.00000000000"
    assert format_significant(0.0) == "0.00000000000"
    assert format_significant(123456789012345.0) == "123456789012000"


# --------------------------------------------------------------------- verify


def test_verify_small_corpus(tmp_path, capsys):
    assert main(["verify", "--count", "3", "--n-max", "6", "--seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is True
    assert len(payload["reports"]) == 6
    kinds = [r["kind"] for r in payload["reports"]]
    assert kinds == ["quad", "pent"] * 3


def test_options_are_not_read_from_the_environment(tmp_path, capsys, monkeypatch):
    # values the options once took from the environment, each one acted on or
    # rejected if it were read
    former = {"KLAB_KIND": "pent", "KLAB_FORMAT": "xml", "KLAB_TOL": "not-a-number",
              "KLAB_COUNT": "0", "KLAB_N_MAX": "1", "KLAB_P": "2", "KLAB_SEED": "x"}
    path = write_graph(tmp_path, K2_TEXT)
    commands = [["transform", path], ["resist", path], ["kirchhoff", path],
                ["verify", "--count", "1", "--n-max", "4"]]

    def run_all():
        return [(main(argv), capsys.readouterr()) for argv in commands]

    for name in former:
        monkeypatch.delenv(name, raising=False)
    clean = run_all()
    assert [code for code, _ in clean] == [0, 0, 0, 0]
    for name, value in former.items():
        monkeypatch.setenv(name, value)
    assert run_all() == clean


def test_verify_rejects_bad_count(capsys):
    assert main(["verify", "--count", "0"]) == 2
    assert "count" in capsys.readouterr().err


def test_verify_unreachable_p_is_an_input_error(capsys):
    # no connected G(n, 0.01) within the rejection budget: bad input, not a
    # missed tolerance (exit 1) and not a traceback
    argv = ["verify", "--count", "1", "--n-max", "12", "--p", "0.01", "--seed", "3"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "p=0.01" in err


# ---------------------------------------------------------------------- audit


def test_audit_json(tmp_path, capsys):
    path = write_graph(tmp_path, K2_TEXT)
    assert main(["audit", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    ids = [c["id"] for c in payload["clauses"]]
    assert ids == ["3.1.i", "3.1.ii", "3.1.iii", "3.1.iv", "3.1.v"]
    assert all("notes" in c and "max_delta" in c for c in payload["clauses"])


def test_audit_pent_json(tmp_path, capsys):
    path = write_graph(tmp_path, P3_TEXT)
    assert main(["audit", "--kind", "pent", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["clauses"]) == 8


# --------------------------------------------------------------------- errors


def test_missing_input_file(tmp_path, capsys):
    assert main(["resist", str(tmp_path / "absent.txt")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_input(tmp_path, capsys):
    path = write_graph(tmp_path, "0 0\n")
    assert main(["transform", path]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_huge_vertex_ids_exit_2(tmp_path, capsys):
    # one edge to a vertex near 2**63: disconnected, found without O(n) work;
    # one id past int64: a parse error
    path = write_graph(tmp_path, "0 9223372036854775807\n")
    assert main(["kirchhoff", "--kind", "quad", path]) == 2
    assert "connected" in capsys.readouterr().err
    assert main(["transform", "--kind", "pent", path]) == 2
    assert "int64" in capsys.readouterr().err
    path = write_graph(tmp_path, "0 9223372036854775808\n")
    assert main(["resist", path]) == 2
    assert capsys.readouterr().err == (
        "error: line 1: vertex id too large in '0 9223372036854775808'\n")


def test_disconnected_input(tmp_path, capsys):
    path = write_graph(tmp_path, "4 2\n0 1\n2 3\n")
    assert main(["resist", path]) == 2
    assert "connected" in capsys.readouterr().err.lower()


def test_binary_input(tmp_path, capsys):
    path = tmp_path / "g.bin"
    path.write_bytes(b"\x00\xff\xfe\x80 1\n")
    assert main(["resist", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read")


def test_internal_value_error_is_not_reported_as_bad_input(tmp_path, monkeypatch):
    def broken(x):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "kirchhoff", broken)
    path = write_graph(tmp_path, K2_TEXT)
    with pytest.raises(ValueError, match="internal bug"):
        main(["kirchhoff", path])


def test_no_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
