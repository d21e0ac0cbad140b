"""Graph type, edge-list format, Laplacian, incidence split, connectivity."""

import random

import numpy as np
import pytest

from kirchlab.graph import (
    Graph,
    GraphError,
    adjacency_matrix,
    graph_from_edges,
    incidence_split,
    is_connected,
    laplacian,
    parse_edge_list,
    render_edge_list,
)


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


def test_graph_from_edges():
    g = graph_from_edges(3, [(2, 1), (0, 1)])
    assert g.edges == ((1, 2), (0, 1))
