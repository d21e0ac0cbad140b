"""Implicit {1}-inverse of a transformed graph's Laplacian.

With k path vertices per edge, detour length l = k + 1 and s = l / (l + 1),
the Schur complement of the transform Laplacian's path block is L / s, and

    X = s P^T L^# P + blkdiag(0, kron(T_k^{-1}, I_m))

with L^# the factor Laplacian's group inverse, T_k = tridiag(-1, 2, -1) of
order k, and P = [I | a_1 B1 + b_1 B2 | ... | a_k B1 + b_k B2] the n x N
barycentric weights, b_j = j / l, a_j = 1 - b_j and B1, B2 the tail and head
halves of G's incidence matrix (``graph.edge_weights``).
Only L^# and the edge endpoints are stored: a resistance costs O(1), the
Kirchhoff index O(n^2 + m), and the resistance matrix its own O(N^2).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .graph import DisconnectedGraphError, Graph, GraphError, is_connected, laplacian
from .graph import _endpoints, edge_weights
from .linalg import group_inverse_laplacian
from .transforms import _PATH_ROLES, TransformKind, VertexClass, class_slices, flat_id


@functools.cache
def path_chain_inverse(k: int) -> np.ndarray:
    """Inverse of tridiag(-1, 2, -1) of order k: min(i, j) (l - max(i, j)) / l.

    Built once per k and read-only.
    """
    j = np.arange(1, k + 1)
    t_inv = np.minimum.outer(j, j) * (k + 1 - np.maximum.outer(j, j)) / (k + 1)
    t_inv.flags.writeable = False
    return t_inv


@dataclass(frozen=True)
class StructuredOneInverse:
    """Implicit X: L^# of the factor graph and the tail/head arrays of the
    factor edges, O(n^2 + m) in all; s is ``kind.resistance_scale``.  X is
    indexed by the flat id layout of :mod:`kirchlab.transforms`."""

    kind: TransformKind
    n: int
    m: int
    lg_sharp: np.ndarray
    tail: np.ndarray
    head: np.ndarray

    @property
    def total_vertices(self) -> int:
        return self.kind.vertex_count(self.n, self.m)

    @property
    def full(self) -> np.ndarray:
        """X assembled as a read-only N x N matrix, anew on every access."""
        x = _assemble(self)
        x.flags.writeable = False
        return x


def _assemble(x: StructuredOneInverse) -> np.ndarray:
    """X = s P^T L^# P + blkdiag(0, kron(T^{-1}, I_m)) as a new N x N array,
    the only one built: T^{-1} is added at the block's k^2 m non-zeros."""
    slots = [sl for _, sl in class_slices(x.kind, x.n, x.m)[1:]]
    p = np.eye(x.n, x.total_vertices)
    for sl, b in zip(slots, x.kind.path_weights):
        p[:, sl] = edge_weights(x.n, x.tail, x.head, 1.0 - b, b)
    big = p.T @ x.lg_sharp @ p
    big *= x.kind.resistance_scale
    t_inv, edges = path_chain_inverse(x.kind.path_vertices), np.arange(x.m)
    for (a, sa), (b, sb) in itertools.product(enumerate(slots), repeat=2):
        big[sa, sb][edges, edges] += t_inv[a, b]
    return big


def factor_inverse(g: Graph) -> np.ndarray:
    """L^# of the factor graph: GraphError if it is empty, DisconnectedGraphError
    if it is not connected."""
    if g.n == 0:
        raise GraphError("empty graph")
    # checked here: L# of a disconnected G raises SingularMatrixError, not an input error
    if not is_connected(g):
        raise DisconnectedGraphError("resistance distance requires a connected graph")
    return group_inverse_laplacian(laplacian(g))


def build_structured_inverse(g: Graph, kind: TransformKind) -> StructuredOneInverse:
    """Implicit {1}-inverse of ``kind`` of a connected factor graph with edges."""
    lg_sharp = factor_inverse(g)
    if g.m == 0:
        raise GraphError("factor graph must have at least one edge")
    tail, head = _endpoints(g).T
    for arr in (lg_sharp, tail, head):
        arr.flags.writeable = False
    return StructuredOneInverse(kind, g.n, g.m, lg_sharp, tail, head)


def _column(x: StructuredOneInverse, c: VertexClass) -> tuple:
    """(tail, head, head weight, slot, edge) of a P column; -1, -1 for originals."""
    if flat_id(c, x.n, x.m, x.kind) < x.n:  # flat_id rejects a class outside X
        return c.index, c.index, 0.0, -1, -1
    slot, e = _PATH_ROLES.index(c.role), c.index
    return int(x.tail[e]), int(x.head[e]), x.kind.path_weights[slot], slot, e


def _entry(x: StructuredOneInverse, a: tuple, b: tuple) -> float:
    """X[a, b] for two columns from _column."""
    (ua, va, wa, sa, ea), (ub, vb, wb, sb, eb) = a, b
    ls = x.lg_sharp
    value = x.kind.resistance_scale * (
        (1.0 - wa) * ((1.0 - wb) * ls[ua, ub] + wb * ls[ua, vb])
        + wa * ((1.0 - wb) * ls[va, ub] + wb * ls[va, vb])
    )
    if ea == eb >= 0:  # two path vertices of one edge
        value += path_chain_inverse(x.kind.path_vertices)[sa, sb]
    return float(value)


def resistance(x: StructuredOneInverse, i: VertexClass, j: VertexClass) -> float:
    """Resistance distance r_ij = X_ii + X_jj - 2 X_ij, in O(1)."""
    a, b = _column(x, i), _column(x, j)
    return _entry(x, a, a) + _entry(x, b, b) - 2.0 * _entry(x, a, b)


def resistance_matrix(x: StructuredOneInverse) -> np.ndarray:
    """All-pairs resistance distances r_ij = X_ii + X_jj - (X_ij + X_ji),
    indexed by flat id.

    X is the only other N x N array built; once X + X^T is taken, its storage
    holds X_ii + X_jj.  Exactly symmetric with an exactly zero diagonal: both
    triangles come from the same commutative sums.
    """
    big = _assemble(x)
    d = np.diag(big).copy()
    r = np.add(big, big.T)
    np.add(d[:, None], d[None, :], out=big)
    np.subtract(big, r, out=r)
    np.fill_diagonal(r, 0.0)
    return r


def kirchhoff(x: StructuredOneInverse) -> float:
    """Kirchhoff index N tr(X) - 1^T X 1 from three invariants of G.

    With a_j = (l - j) / l and b_j = j / l, edge (u, v) adds
    a.a L^#_uu + b.b L^#_vv + 2 a.b L^#_uv to tr(P^T L^# P).  Since
    2 L^#_uv = L^#_uu + L^#_vv - r_uv, sum(a) = sum(b) = k/2 and, by Foster's
    theorem, the r_uv over the edges sum to n - 1, that is

        tr(X) = s (tr L^# + (k/2) d.diag L^# - a.b (n - 1)) + m tr(T^{-1})

    with d the degrees.  P 1 = 1 + (k/2) d and L^# 1 = 0 give
    1^T X 1 = s (k/2)^2 d^T L^# d + m 1^T T^{-1} 1.
    """
    k = x.kind.path_vertices
    b = np.array(x.kind.path_weights)
    t_inv = path_chain_inverse(k)
    ls, s = x.lg_sharp, x.kind.resistance_scale
    d = np.bincount(np.concatenate([x.tail, x.head]), minlength=x.n)
    tr = s * (
        np.trace(ls) + k / 2.0 * (d @ np.diag(ls)) - ((1.0 - b) @ b) * (x.n - 1)
    ) + x.m * np.trace(t_inv)
    ones = s * (k / 2.0) ** 2 * (d @ ls @ d) + x.m * t_inv.sum()
    return float(x.total_vertices * tr - ones)
