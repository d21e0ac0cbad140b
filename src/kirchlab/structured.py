"""Implicit {1}-inverse of a transformed graph's Laplacian.

With k path vertices per edge, detour length l = k + 1 and s = l / (l + 1),
the Schur complement of the transform Laplacian's path block is L / s, and

    X = s P^T L^# P + blkdiag(0, kron(T_k^{-1}, I_m))

with L^# the factor Laplacian's group inverse and T_k = tridiag(-1, 2, -1)
of order k.  Column i of the n x N matrix P is e_u for an original vertex u
and (1 - b_j) e_tail + b_j e_head, b_j = j / l, for path vertex j of an
edge; ``_columns`` is the one table of them, for X and for pair queries.
Only L^# and the edge endpoints are stored: a resistance costs O(1), the
Kirchhoff index O(n^2 + m), and the resistance matrix one N x N array.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graph import DisconnectedGraphError, Graph, GraphError, is_connected, laplacian
from .graph import _endpoints
from .linalg import group_inverse_laplacian
from .transforms import TransformKind, VertexClass, class_slices, flat_id, slot_edge

# rows per panel of resistance_matrix: its temporaries are 2 x 8 * _ROWS * N bytes
_ROWS = 64


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


def _columns(x: StructuredOneInverse, ids: np.ndarray) -> tuple:
    """P's columns (1 - b_j) e_tail + b_j e_head at an int array of flat ids, as
    arrays (tail, head, b_j, slot, edge); (u, u, 0, -1, -1) for an original u."""
    slot, edge = slot_edge(ids, x.n, x.m, x.kind)
    tail, head = (np.where(slot < 0, ids, end[edge]) for end in (x.tail, x.head))
    return tail, head, np.array((*x.kind.path_weights, 0.0))[slot], slot, edge


def _assemble(x: StructuredOneInverse) -> np.ndarray:
    """X = s P^T L^# P + blkdiag(0, kron(T^{-1}, I_m)) as a new N x N array, the
    only one built: T^{-1}[a, b] is added at path ids a, b of each edge."""
    ids = np.arange(x.total_vertices)
    tail, head, b, _, _ = _columns(x, ids)
    p = np.zeros((x.n, ids.size))
    p[tail, ids] = 1.0 - b
    p[head, ids] += b
    big = p.T @ x.lg_sharp @ p
    big *= x.kind.resistance_scale
    path = np.array([ids[sl] for _, sl in class_slices(x.kind, x.n, x.m)[1:]])
    big[path[:, None], path[None]] += path_chain_inverse(len(path))[:, :, None]
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


def pair_resistances(x: StructuredOneInverse, i, j) -> np.ndarray:
    """r = X_ii + X_jj - 2 X_ij at int arrays of flat ids, O(1) a pair; an id
    outside X raises ValueError."""
    ls, t_inv = x.lg_sharp, path_chain_inverse(x.kind.path_vertices)

    def entry(a: tuple, b: tuple) -> np.ndarray:  # X[a, b]; T^-1 on one edge's path
        (ua, va, wa, sa, ea), (ub, vb, wb, sb, eb) = a, b
        value = x.kind.resistance_scale * (
            (1.0 - wa) * ((1.0 - wb) * ls[ua, ub] + wb * ls[ua, vb])
            + wa * ((1.0 - wb) * ls[va, ub] + wb * ls[va, vb])
        )
        return np.where((ea == eb) & (ea >= 0), value + t_inv[sa, sb], value)

    a, b = _columns(x, np.asarray(i)), _columns(x, np.asarray(j))
    return entry(a, a) + entry(b, b) - 2.0 * entry(a, b)


def resistance(x: StructuredOneInverse, i: VertexClass, j: VertexClass) -> float:
    """Resistance distance r_ij between two vertex classes, in O(1)."""
    ids = [[flat_id(c, x.n, x.m, x.kind)] for c in (i, j)]  # rejects a class outside X
    return float(pair_resistances(x, *ids)[0])


def resistance_matrix(x: StructuredOneInverse) -> np.ndarray:
    """All-pairs resistance distances r_ij = (X_ii + X_jj) - (X_ij + X_ji),
    indexed by flat id, in X's own storage: the one N x N array built.

    Each panel of ``_ROWS`` rows takes X_ij + X_ji in both triangles and is
    then overwritten by r; later panels read only rows and columns past it.
    Exactly symmetric with an exactly zero diagonal: both triangles come from
    the same commutative sums.
    """
    big = _assemble(x)
    d = np.diag(big).copy()
    for lo in range(0, len(big), _ROWS):
        rows = big[lo:lo + _ROWS]
        s = rows[:, lo:] + big[lo:, lo:lo + _ROWS].T
        rows[:, lo:] = s
        big[lo:, lo:lo + _ROWS] = s.T
        np.subtract(d[lo:lo + _ROWS, None] + d, rows, out=rows)
    np.fill_diagonal(big, 0.0)
    return big


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
