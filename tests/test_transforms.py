"""Quadrilateral and pentagonal transforms, vertex classes, flat id layout."""

import random
import warnings

import numpy as np
import pytest

import kirchlab
from kirchlab.graph import Graph, adjacency_matrix, incidence_split, is_connected, laplacian
from kirchlab.transforms import (
    TransformKind,
    VertexClass,
    VertexRole,
    apply_transform,
    class_slices,
    classify,
    flat_id,
    original,
    path1,
    path2,
    path3,
    pentagonal,
    quadrilateral,
)

QUAD = TransformKind.QUADRILATERAL
PENT = TransformKind.PENTAGONAL


def k2():
    return Graph(2, ((0, 1),))


def p3():
    return Graph(3, ((0, 1), (1, 2)))


def random_graph(rng, n, p):
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return Graph(n, tuple(edges))


def test_quadrilateral_k2_is_a_4_cycle():
    g = quadrilateral(k2())
    assert g.n == 4 and g.m == 4
    assert g.edges == ((0, 1), (0, 2), (2, 3), (1, 3))
    assert g.degrees().tolist() == [2, 2, 2, 2]
    assert is_connected(g)


def test_pentagonal_k2_is_a_5_cycle():
    g = pentagonal(k2())
    assert g.n == 5 and g.m == 5
    assert g.edges == ((0, 1), (0, 2), (2, 3), (3, 4), (1, 4))
    assert g.degrees().tolist() == [2, 2, 2, 2, 2]
    assert is_connected(g)


def test_p3_counts():
    assert (quadrilateral(p3()).n, quadrilateral(p3()).m) == (7, 8)
    assert (pentagonal(p3()).n, pentagonal(p3()).m) == (9, 10)


def test_edgeless_graph_maps_to_itself():
    g = Graph(4, ())
    assert quadrilateral(g) == g
    assert pentagonal(g) == g


def test_kind_properties():
    assert QUAD.path_vertices == 2 and PENT.path_vertices == 3
    assert QUAD.resistance_scale == 0.75 and PENT.resistance_scale == 0.8
    assert QUAD.vertex_count(3, 2) == 7 and QUAD.edge_count(2) == 8
    assert PENT.vertex_count(3, 2) == 9 and PENT.edge_count(2) == 10


# -------------------------------------------------------------- vertex classes


def test_flat_id_layout():
    n, m = 3, 2
    assert flat_id(original(2), n, m, QUAD) == 2
    assert flat_id(path1(0), n, m, QUAD) == 3
    assert flat_id(path2(1), n, m, QUAD) == 6
    assert flat_id(path3(1), n, m, PENT) == 8


def test_flat_id_rejects_path3_for_quadrilateral():
    with pytest.raises(ValueError):
        flat_id(path3(0), 3, 2, QUAD)


def test_flat_id_rejects_out_of_range():
    with pytest.raises(ValueError):
        flat_id(original(3), 3, 2, QUAD)
    with pytest.raises(ValueError):
        flat_id(path1(2), 3, 2, QUAD)


def test_classify_round_trip():
    n, m = 4, 5
    for kind in (QUAD, PENT):
        for idx in range(kind.vertex_count(n, m)):
            c = classify(idx, n, m, kind)
            assert flat_id(c, n, m, kind) == idx
    assert classify(0, n, m, QUAD) == VertexClass(VertexRole.ORIGINAL, 0)
    assert classify(n + m, n, m, QUAD) == VertexClass(VertexRole.PATH2, 0)


def test_classify_without_edges_is_exact():
    # every valid id of an edgeless graph is an original; no division by m = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert classify(0, 1, 0, QUAD) == VertexClass(VertexRole.ORIGINAL, 0)


def test_classify_out_of_range():
    with pytest.raises(ValueError):
        classify(7, 3, 2, QUAD)
    with pytest.raises(ValueError):
        classify(-1, 3, 2, QUAD)


# ------------------------------------------------------------ structure checks


def test_degree_law_random():
    # original vertices double their degree, path vertices always have 2
    rng = random.Random(3111)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9), 0.5)
        for kind, tg in ((QUAD, quadrilateral(g)), (PENT, pentagonal(g))):
            deg = tg.degrees()
            assert np.array_equal(deg[: g.n], 2 * g.degrees())
            assert np.all(deg[g.n :] == 2) or g.m == 0


def test_connectivity_preserved_random():
    rng = random.Random(845)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 9), 0.4)
        assert is_connected(quadrilateral(g)) == is_connected(g)
        assert is_connected(pentagonal(g)) == is_connected(g)


def test_quadrilateral_laplacian_block_form():
    # rows/columns ordered original, path1, path2
    rng = random.Random(60)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        if g.m == 0:
            continue
        s = incidence_split(g)
        b1 = s.b1.astype(float)
        b2 = s.b2.astype(float)
        eye = np.eye(g.m)
        a_top = 2.0 * np.diag(g.degrees()) - adjacency_matrix(g)
        expected = np.block(
            [
                [a_top, -b1, -b2],
                [-b1.T, 2.0 * eye, -eye],
                [-b2.T, -eye, 2.0 * eye],
            ]
        )
        assert np.array_equal(laplacian(quadrilateral(g)), expected)


def test_pentagonal_laplacian_block_form():
    rng = random.Random(61)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        if g.m == 0:
            continue
        n, m = g.n, g.m
        s = incidence_split(g)
        b1 = s.b1.astype(float)
        b2 = s.b2.astype(float)
        eye = np.eye(m)
        zero = np.zeros((m, m))
        a_top = 2.0 * np.diag(g.degrees()) - adjacency_matrix(g)
        expected = np.block(
            [
                [a_top, -b1, np.zeros((n, m)), -b2],
                [-b1.T, 2.0 * eye, -eye, zero],
                [np.zeros((m, n)), -eye, 2.0 * eye, -eye],
                [-b2.T, zero, -eye, 2.0 * eye],
            ]
        )
        assert np.array_equal(laplacian(pentagonal(g)), expected)


def test_apply_transform_dispatch():
    assert apply_transform(k2(), QUAD) == quadrilateral(k2())
    assert apply_transform(k2(), PENT) == pentagonal(k2())


@pytest.mark.parametrize("kind", [QUAD, PENT])
@pytest.mark.parametrize("n, m", [(2, 1), (3, 2), (5, 7), (4, 1)])
def test_class_slices_tile_the_flat_ids_by_role(kind, n, m):
    slices = class_slices(kind, n, m)
    roles = [VertexRole.ORIGINAL, VertexRole.PATH1, VertexRole.PATH2, VertexRole.PATH3]
    assert [role for role, _ in slices] == roles[: 1 + kind.path_vertices]
    ids = [i for _, sl in slices for i in range(sl.start, sl.stop)]
    assert ids == list(range(kind.vertex_count(n, m)))
    for role, sl in slices:
        assert {classify(i, n, m, kind).role for i in range(sl.start, sl.stop)} == {role}


def test_class_slices_stay_out_of_the_public_api():
    assert "class_slices" not in kirchlab.__all__
