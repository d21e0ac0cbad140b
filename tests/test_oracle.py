"""Brute-force oracle against closed forms that need no matrix algebra."""

import random

import numpy as np
import pytest

from kirchlab.graph import DisconnectedGraphError, Graph, laplacian
from kirchlab.linalg import group_inverse_laplacian
from kirchlab.oracle import oracle_kirchhoff, oracle_resistance_matrix


def cycle(n):
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def complete(n):
    return Graph(n, tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def random_connected(rng, n, extra=0.3):
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return Graph(n, tuple(sorted(edges)))


def block_one_inverse(lap, k):
    """{1}-inverse of L = [[A, B], [B^T, D]] split after row k.

    With H = A - B D^{-1} B^T (the Laplacian of the Kron-reduced graph):

        [[ H^#,                 -H^# B D^{-1}                    ],
         [ -D^{-1} B^T H^#,      D^{-1} + D^{-1} B^T H^# B D^{-1}]]
    """
    a, b, d = lap[:k, :k], lap[:k, k:], lap[k:, k:]
    d_inv = np.linalg.inv(d)
    h_sharp = group_inverse_laplacian(a - b @ d_inv @ b.T)
    top_right = -h_sharp @ b @ d_inv
    return np.block([[h_sharp, top_right], [top_right.T, d_inv - d_inv @ b.T @ top_right]])


def test_k2():
    r = oracle_resistance_matrix(Graph(2, ((0, 1),)))
    assert np.allclose(r, [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
    assert abs(oracle_kirchhoff(Graph(2, ((0, 1),))) - 1.0) <= 1e-12


def test_p3_series():
    # unit resistors in series: r02 = 2
    r = oracle_resistance_matrix(Graph(3, ((0, 1), (1, 2))))
    assert abs(r[0, 1] - 1.0) <= 1e-12
    assert abs(r[0, 2] - 2.0) <= 1e-12
    assert abs(oracle_kirchhoff(Graph(3, ((0, 1), (1, 2)))) - 4.0) <= 1e-12


def test_cycles_match_closed_form():
    # cycle: r_k = k(n-k)/n for hop distance k; Kf = n(n^2-1)/12
    for n in range(3, 13):
        g = cycle(n)
        r = oracle_resistance_matrix(g)
        for k in range(1, n):
            assert abs(r[0, k] - k * (n - k) / n) <= 1e-10
        assert abs(oracle_kirchhoff(g) - n * (n * n - 1) / 12.0) <= 1e-9


def test_complete_graphs_match_closed_form():
    # K_n: every pair has r = 2/n, Kf = n - 1
    for n in range(2, 9):
        g = complete(n)
        r = oracle_resistance_matrix(g)
        off = r[~np.eye(n, dtype=bool)]
        assert np.abs(off - 2.0 / n).max() <= 1e-10
        assert abs(oracle_kirchhoff(g) - (n - 1)) <= 1e-9


def test_matrix_shape_and_symmetry():
    rng = random.Random(940)
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 10))
        r = oracle_resistance_matrix(g)
        assert r.shape == (g.n, g.n)
        assert np.abs(r - r.T).max() <= 1e-10
        assert np.all(np.diag(r) == 0.0)
        assert r.min() >= -1e-12


def test_kirchhoff_agrees_with_any_one_inverse():
    # N tr(X) - 1^T X 1 is invariant across {1}-inverses; check against the
    # block construction on an arbitrary partition of the same Laplacian,
    # which shares no factorization with the oracle's SVD
    rng = random.Random(52)
    for _ in range(15):
        g = random_connected(rng, rng.randint(3, 10))
        lap = laplacian(g)
        x = block_one_inverse(lap, rng.randint(1, g.n - 1))
        assert np.abs(lap @ x @ lap - lap).max() <= 1e-8
        kf_block = g.n * np.trace(x) - x.sum()
        assert abs(kf_block - oracle_kirchhoff(g)) <= 1e-8


def test_rejects_disconnected_and_empty():
    with pytest.raises(DisconnectedGraphError):
        oracle_resistance_matrix(Graph(4, ((0, 1), (2, 3))))
    with pytest.raises(DisconnectedGraphError):
        oracle_kirchhoff(Graph(2, ()))
    with pytest.raises(ValueError):
        oracle_kirchhoff(Graph(0, ()))


def test_single_vertex():
    r = oracle_resistance_matrix(Graph(1, ()))
    assert r.shape == (1, 1) and r[0, 0] == 0.0
    assert oracle_kirchhoff(Graph(1, ())) == 0.0
