"""Graph type, edge-list format, Laplacian, incidence split, connectivity."""

import dataclasses
import pickle
import random
import warnings

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from kirchlab.graph import (
    Graph,
    GraphError,
    _endpoints,
    adjacency_matrix,
    graph_from_edges,
    incidence_split,
    is_connected,
    laplacian,
    parse_edge_list,
    render_edge_list,
)
from kirchlab.transforms import TransformKind, apply_transform


def k2():
    return Graph(2, ((0, 1),))


def p3():
    return Graph(3, ((0, 1), (1, 2)))


def k3():
    return Graph(3, ((0, 1), (0, 2), (1, 2)))


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, tuple(edges))


# ----------------------------------------------------------------- Graph type


def test_graph_normalizes_endpoint_order():
    g = Graph(3, ((2, 0), (1, 2)))
    assert g.edges == ((0, 2), (1, 2))
    assert g.m == 2


def test_graph_rejects_self_loop():
    with pytest.raises(GraphError):
        Graph(2, ((1, 1),))


def test_graph_rejects_duplicate_even_if_flipped():
    with pytest.raises(GraphError):
        Graph(3, ((0, 1), (1, 0)))


def test_graph_rejects_out_of_range():
    with pytest.raises(GraphError):
        Graph(2, ((0, 2),))
    with pytest.raises(GraphError):
        Graph(2, ((-1, 0),))


def test_degrees():
    assert p3().degrees().tolist() == [1, 2, 1]


# --------------------------------------------------------------- parse/render


def test_parse_single_edge():
    assert parse_edge_list("0 1") == k2()


def test_parse_headerless_uses_max_id():
    assert parse_edge_list("0 1\n1 2") == p3()


def test_parse_header_detected():
    g = parse_edge_list("3 2\n0 1\n1 2")
    assert g == p3()


def test_parse_header_allows_isolated_vertices():
    g = parse_edge_list("5 1\n0 1")
    assert g.n == 5 and g.edges == ((0, 1),)


def test_parse_header_with_zero_edges():
    g = parse_edge_list("5 0")
    assert g.n == 5 and g.m == 0


def test_parse_header_rejected_when_ids_do_not_fit():
    # first line cannot be a header here, so it is an edge
    g = parse_edge_list("2 1\n0 5")
    assert g.n == 6 and g.m == 2


def test_parse_header_rule_beats_edge_reading():
    # "3 1" followed by exactly one edge that fits in [0, 3) is a header,
    # not the edge (3, 1) of a 4-vertex graph
    g = parse_edge_list("3 1\n0 2\n")
    assert g.n == 3 and g.edges == ((0, 2),)


def test_parse_comments_and_blank_lines():
    text = "# a triangle\n\n3 3\n0 1\n# middle\n0 2\n1 2\n"
    assert parse_edge_list(text) == k3()


def test_parse_empty_is_empty_graph():
    g = parse_edge_list("")
    assert g.n == 0 and g.m == 0


def test_parse_self_loop_line_errors():
    with pytest.raises(GraphError):
        parse_edge_list("0 0")


def test_parse_duplicate_edge_errors():
    with pytest.raises(GraphError):
        parse_edge_list("0 1\n1 0")


def test_parse_non_integer_errors():
    with pytest.raises(GraphError):
        parse_edge_list("0 x")


def test_parse_wrong_token_count_errors():
    with pytest.raises(GraphError):
        parse_edge_list("0 1 2")


def test_parse_negative_id_errors():
    with pytest.raises(GraphError):
        parse_edge_list("-1 0")


def test_render_golden():
    assert render_edge_list(p3()) == "3 2\n0 1\n1 2\n"
    assert render_edge_list(Graph(0, ())) == ""


def test_round_trip_small():
    for g in (k2(), p3(), k3(), Graph(4, ()), Graph(0, ())):
        assert parse_edge_list(render_edge_list(g)) == g


def test_round_trip_random():
    rng = random.Random(1401)
    for _ in range(200):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        assert parse_edge_list(render_edge_list(g)) == g


# ------------------------------------------------------------------ laplacian


def test_laplacian_k2():
    assert laplacian(k2()).tolist() == [[1.0, -1.0], [-1.0, 1.0]]


def test_laplacian_p3():
    expected = [[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]]
    assert laplacian(p3()).tolist() == expected


def test_laplacian_row_sums_zero_random():
    rng = random.Random(77)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        lap = laplacian(g)
        assert np.array_equal(lap, lap.T)
        assert np.all(lap.sum(axis=1) == 0.0)


# ------------------------------------------------------------- incidence split


def test_incidence_split_k2():
    s = incidence_split(k2())
    assert s.b1.tolist() == [[1], [0]]
    assert s.b2.tolist() == [[0], [1]]


def test_incidence_split_read_only():
    s = incidence_split(k2())
    with pytest.raises(ValueError):
        s.b1[0, 0] = 5


def test_incidence_split_identities_exact_random():
    # all three identities in integer arithmetic, plus the Laplacian rebuild
    rng = random.Random(90125)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.2, 0.5, 0.9]))
        s = incidence_split(g)
        b = s.b1 + s.b2
        deg = np.diag(g.degrees())
        adj = adjacency_matrix(g)
        assert np.array_equal(s.b1 @ s.b1.T + s.b2 @ s.b2.T, deg)
        assert np.array_equal(s.b1 @ s.b2.T + s.b2 @ s.b1.T, adj)
        unsigned = np.zeros((g.n, g.m), dtype=np.int64)
        for i, (u, v) in enumerate(g.edges):
            unsigned[u, i] = 1
            unsigned[v, i] = 1
        assert np.array_equal(b, unsigned)
        rebuilt = b @ b.T - 2 * adj
        assert np.array_equal(rebuilt, deg - adj)
        assert np.array_equal(rebuilt.astype(float), laplacian(g))


# ---------------------------------------------------------------- connectivity


def test_is_connected_cases():
    assert is_connected(k2())
    assert is_connected(p3())
    assert not is_connected(Graph(4, ((0, 1), (2, 3))))
    assert not is_connected(Graph(3, ((0, 1),)))
    assert is_connected(Graph(1, ()))
    assert is_connected(Graph(0, ()))


def test_is_connected_needs_no_work_in_n():
    assert not is_connected(Graph(2**62, ((0, 1),)))


def test_graph_from_edges():
    g = graph_from_edges(3, [(2, 1), (0, 1)])
    assert g.edges == ((1, 2), (0, 1))


def test_graph_from_edges_rejects_non_integer_ids():
    # ids are not truncated: 0.5 and 1.9 do not become 0 and 1
    with pytest.raises(GraphError, match=r"^non-integer vertex id 0\.5$"):
        graph_from_edges(3, [(0.5, 2), (1.9, 0)])
    assert graph_from_edges(3, np.array([[2, 1], [0, 1]])) == Graph(3, ((1, 2), (0, 1)))


def test_is_connected_matches_reference_search():
    # a hub with the largest id, a bit-reversed path, random trees with and
    # without one edge, and sparse random graphs
    rng = random.Random(2718)
    n = 64
    bitrev = [int(format(i, "06b")[::-1], 2) for i in range(n)]
    shapes = [
        Graph(n, tuple((i, n - 1) for i in range(n - 1))),
        Graph(n, tuple(zip(bitrev, bitrev[1:]))),
        Graph(n, tuple((i, n - 1) for i in range(n - 2))),
    ]
    for _ in range(200):
        k = rng.randint(2, 14)
        order = list(range(k))
        rng.shuffle(order)
        tree = [(order[i], order[rng.randrange(i)]) for i in range(1, k)]
        shapes.append(Graph(k, tuple(tree[: len(tree) - rng.randint(0, 1)])))
        shapes.append(random_graph(rng, k, rng.choice([0.1, 0.3, 0.6])))
    for g in shapes:
        assert is_connected(g) == reference_is_connected(g), g


def reference_is_connected(g):
    adj = {u: set() for u in range(g.n)}
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()] - seen:
            seen.add(w)
            stack.append(w)
    return g.n <= 1 or len(seen) == g.n


# ----------------------------------------------- array core against references

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def reference_graph(n, edges):
    """The per-edge scan that validated edges before they were held as an array."""
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    seen = set()
    normalized = []
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        a, b = (u, v) if u < v else (v, u)
        if a < 0 or b >= n:
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        if (a, b) in seen:
            raise GraphError(f"duplicate edge ({a}, {b})")
        seen.add((a, b))
        normalized.append((a, b))
    return n, tuple(normalized)


def reference_parse(text):
    """The line scan and header rule of the parser before its one-pass reader.

    The one deliberate change is the int64 check on ids.
    """
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer token in {line!r}") from None
        if a < 0 or b < 0:
            raise GraphError(f"line {lineno}: negative vertex id in {line!r}")
        if max(a, b) >= 2**63:
            raise GraphError(f"line {lineno}: vertex id too large in {line!r}")
        rows.append((a, b))
    if not rows:
        return reference_graph(0, ())
    head_n, head_m = rows[0]
    rest = rows[1:]
    is_header = (
        (head_n, head_m) != (0, 0)
        and len(rest) == head_m
        and all(u < head_n and v < head_n for u, v in rest)
    )
    if is_header:
        return reference_graph(head_n, rest)
    return reference_graph(1 + max(max(u, v) for u, v in rows), rows)


def outcome(build, *args):
    try:
        got = build(*args)
    except GraphError as exc:
        return "error", str(exc)
    return ("graph", got.n, got.edges) if isinstance(got, Graph) else ("graph", *got)


# every character the two readers could disagree on: Unicode line breaks
# and spaces that str.split and splitlines know, signs, separators, and a
# non-ASCII digit that int() accepts
ALPHABET = "0123456789 \t\n\r\x0b\x0c\x1c\xa0#-+_.\u0663"
PLAIN = "0123456789 \t\n"
INNER = (" ", "\t", " \t ", "  ", "\xa0", "\x0c", "_", "+")
LINE_END = ("\n", "\n\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", " \n", "\t\n", "\n# c 1\n")


@st.composite
def edge_list_texts(draw):
    """Edge-list-like text: small ids, separators from both readers' sets."""
    rows = draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=10))
    if draw(st.booleans()) and rows:
        rows.insert(0, (draw(st.integers(0, 9)), len(rows)))
    text = ""
    for u, v in rows:
        text += f"{u}{draw(st.sampled_from(INNER[:4] if draw(st.booleans()) else INNER))}{v}"
        text += draw(st.sampled_from(LINE_END[:1] if draw(st.booleans()) else LINE_END))
    return text


@PROPERTY
@given(st.one_of(
    st.text(alphabet=ALPHABET, max_size=30),
    st.text(alphabet=PLAIN, max_size=40),
    edge_list_texts(),
))
def test_parse_matches_line_scan(text):
    assert outcome(parse_edge_list, text) == outcome(reference_parse, text)


@pytest.mark.parametrize("text", [
    "1 2\x0c3 4",  # one numpy row of four values, two lines to splitlines
    "1 2\r\n0 1\n",
    "3 2\n0 1\n1 2 0\n",
    "2 1\n0 \u0663\n",
    "9223372036854775807 0\n",
    "9223372036854775808 0\n",
    "0 1\n\n \t\n1 2\n",
])
def test_parse_matches_line_scan_on_known_traps(text):
    assert outcome(parse_edge_list, text) == outcome(reference_parse, text)


@PROPERTY
@given(
    st.integers(-1, 6),
    st.lists(st.tuples(st.integers(-3, 8), st.integers(-3, 8)), max_size=12),
)
def test_graph_checks_match_edge_scan(n, edges):
    edges = tuple(edges)
    assert outcome(Graph, n, edges) == outcome(reference_graph, n, edges)


@PROPERTY
@given(st.data())
def test_render_parse_round_trip(data):
    n = data.draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    flips = data.draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    g = Graph(n, tuple((v, u) if f else (u, v) for (u, v), f in zip(chosen, flips)))
    assert parse_edge_list(render_edge_list(g)) == g


def test_parse_of_empty_text_raises_no_warning():
    # numpy's loadtxt warns on input without data
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for text in ("", "\n", "  \n\t\n", "# only a comment\n", "# a\n\n# b"):
            g = parse_edge_list(text)
            assert g.n == 0 and g.m == 0


def test_parse_rejects_ids_past_int64():
    with pytest.raises(GraphError, match="line 2: vertex id too large"):
        parse_edge_list("0 1\n1 9223372036854775808\n")
    g = parse_edge_list("0 9223372036854775807\n")
    assert g.n == 2**63 and g.edges == ((0, 2**63 - 1),)


# --------------------------------------------------------- endpoint values


def test_graph_rejects_non_integer_ids():
    # a float id used to be stored and then truncated by the int64 Laplacian
    for edges in (((0.5, 1),), ((0, 1), (1.0, 2)), (("0", 1),), ((None, 1),)):
        with pytest.raises(GraphError, match="non-integer vertex id"):
            Graph(3, edges)


def test_graph_rejects_ids_past_int64_and_non_pairs():
    with pytest.raises(GraphError, match="fit in int64"):
        Graph(3, ((0, 2**64),))
    for edges in (((0, 1, 2),), ((0, 1), (2,)), ((0, (1, 2)),)):
        with pytest.raises(GraphError, match="pairs"):
            Graph(3, edges)


def test_graph_accepts_numpy_integers():
    g = Graph(3, ((np.int64(2), np.int32(0)), (np.uint8(1), 2)))
    assert g == Graph(3, ((0, 2), (1, 2)))
    assert all(type(x) is int for e in g.edges for x in e)


def test_graph_checks_duplicates_past_the_int64_code_range():
    # n * n overflows int64 here, so duplicates are found on ranked ids
    n = 2**40
    g = Graph(n, ((0, n - 1), (1, n - 2), (n - 1, 1), (n - 2, 0)))
    assert g.m == 4
    with pytest.raises(GraphError, match=f"duplicate edge \\(1, {n - 2}\\)"):
        Graph(n, ((0, n - 1), (n - 2, 1), (0, 1), (1, n - 2)))


def test_graph_is_frozen_hashable_and_picklable():
    g = p3()
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n = 4
    assert hash(g) == hash(Graph(3, ((1, 0), (2, 1))))
    assert repr(g) == "Graph(n=3, edges=((0, 1), (1, 2)))"
    assert pickle.loads(pickle.dumps(g)) == g
    assert g != Graph(3, ((1, 2), (0, 1))) and g != Graph(4, g.edges)
    for h in (g, parse_edge_list("0 1\n1 2\n"), apply_transform(g, TransformKind.PENTAGONAL)):
        with pytest.raises(ValueError):
            _endpoints(h)[0, 0] = 1
