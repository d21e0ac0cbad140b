"""Group inverse of a graph Laplacian: values, laws, singularity, imports."""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

import kirchlab
from kirchlab.graph import Graph, laplacian
from kirchlab.linalg import SingularMatrixError, group_inverse_laplacian


def random_connected(rng, n, extra=0.3):
    """Random spanning tree plus extra edges; always connected."""
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return Graph(n, tuple(sorted(edges)))


def two_components(rng, n, extra):
    """Two random connected components with interleaved vertex labels."""
    left = random_connected(rng, rng.randint(1, n - 1), extra)
    labels = list(range(n))
    rng.shuffle(labels)
    right = random_connected(rng, n - left.n, extra)
    edges = [(labels[u], labels[v]) for u, v in left.edges]
    edges += [(labels[left.n + u], labels[left.n + v]) for u, v in right.edges]
    return Graph(n, tuple(edges))


# ---------------------------------------------------------------- group inverse


def test_group_inverse_k2_golden():
    # eigendecomposition by hand: eigenvalue 2 on (1,-1)/sqrt(2)
    got = group_inverse_laplacian(laplacian(Graph(2, ((0, 1),))))
    assert np.allclose(got, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-14)


def test_group_inverse_p3_trace():
    # Kf(P3) = 1 + 1 + 2 = 4, so tr = Kf/n = 4/3
    got = group_inverse_laplacian(laplacian(Graph(3, ((0, 1), (1, 2)))))
    assert abs(np.trace(got) - 4.0 / 3.0) <= 1e-12


def test_group_inverse_laws_random():
    rng = random.Random(515)
    for _ in range(40):
        g = random_connected(rng, rng.randint(2, 12))
        lap = laplacian(g)
        x = group_inverse_laplacian(lap)
        assert np.abs(x - x.T).max() <= 1e-12
        assert np.abs(x @ np.ones(g.n)).max() <= 1e-10
        assert np.abs(lap @ x @ lap - lap).max() <= 1e-9
        assert np.abs(x @ lap @ x - x).max() <= 1e-9
        assert np.abs(lap @ x - x @ lap).max() <= 1e-9


def test_block_one_inverse_random_partitions():
    # L = [[A, B], [B^T, D]] split after row k; H = A - B D^{-1} B^T is the
    # weighted Laplacian of the Kron-reduced graph, and H^# completes a
    # {1}-inverse of L:
    #   [[H^#, -H^# B D^{-1}], [-D^{-1} B^T H^#, D^{-1} + D^{-1} B^T H^# B D^{-1}]]
    rng = random.Random(2210)
    for _ in range(30):
        g = random_connected(rng, rng.randint(4, 12))
        lap = laplacian(g)
        k = rng.randint(1, g.n - 1)
        a, b, d = lap[:k, :k], lap[:k, k:], lap[k:, k:]
        d_inv = np.linalg.inv(d)
        h_sharp = group_inverse_laplacian(a - b @ d_inv @ b.T)
        top_right = -h_sharp @ b @ d_inv
        x = np.block([[h_sharp, top_right], [top_right.T, d_inv - d_inv @ b.T @ top_right]])
        assert np.abs(lap @ x @ lap - lap).max() <= 1e-8


def test_group_inverse_disconnected_raises():
    lap = laplacian(Graph(4, ((0, 1), (2, 3))))
    with pytest.raises(SingularMatrixError):
        group_inverse_laplacian(lap)


def test_group_inverse_two_component_graphs_raise():
    # L + J/n is exactly singular for two components, yet LAPACK inverts most
    # of these without complaint: the inverse-size test is what flags them
    rng = random.Random(3000)
    inverted = 0
    for _ in range(300):
        n = rng.randint(2, 80)
        lap = laplacian(two_components(rng, n, 0.5 * rng.random()))
        with pytest.raises(SingularMatrixError):
            group_inverse_laplacian(lap)
        try:
            np.linalg.inv(lap + 1.0 / n)
            inverted += 1
        except np.linalg.LinAlgError:
            pass
    assert inverted > 0


def test_group_inverse_input_validation():
    with pytest.raises(ValueError):
        group_inverse_laplacian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        group_inverse_laplacian(np.ones(3))
    with pytest.raises(ValueError):
        group_inverse_laplacian(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        group_inverse_laplacian(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        group_inverse_laplacian(np.zeros((0, 0)))


def test_import_leaves_scipy_unloaded():
    # orjson is only imported once a matrix is written
    src = os.path.dirname(os.path.dirname(kirchlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, kirchlab, kirchlab.cli; "
        "print([m for m in sys.modules if m.startswith(('scipy', 'orjson'))])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"


def test_pipeline_leaves_numpy_ma_unloaded():
    # numpy.ma is imported lazily by some numpy calls (np.unique among them)
    # and adds about a MiB of resident memory to every process that loads it
    src = os.path.dirname(os.path.dirname(kirchlab.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys\n"
        "from kirchlab import TransformKind, apply_transform, build_structured_inverse\n"
        "from kirchlab import kirchhoff, parse_edge_list\n"
        "g = parse_edge_list('4 5\\n0 1\\n1 2\\n2 3\\n3 0\\n0 2\\n')\n"
        "for kind in TransformKind:\n"
        "    kirchhoff(build_structured_inverse(g, kind))\n"
        "    apply_transform(g, kind)\n"
        "parse_edge_list('0 1\\r\\n1 2\\n')\n"
        "print([m for m in sys.modules if m == 'numpy.ma' or m.startswith('scipy')])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
