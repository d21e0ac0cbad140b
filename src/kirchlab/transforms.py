"""Edge-replacement transforms.

The quadrilateral transform replaces every edge uv by parallel paths of
lengths 1 and 3 (a 4-cycle through two new path vertices); the pentagonal
transform uses lengths 1 and 4 (a 5-cycle through three).  New vertices are
grouped by position along the detour path and indexed by the edge they came
from, which fixes a flat id layout on the transformed graph:

    Original k  ->  k
    Path1 i     ->  n + i          (attached to the tail u_i)
    Path2 i     ->  n + m + i
    Path3 i     ->  n + 2m + i     (pentagonal only, attached side of v_i)
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .graph import _INT64_MAX, Graph, GraphError, _endpoints, _graph


class TransformKind(enum.Enum):
    QUADRILATERAL = "quad"
    PENTAGONAL = "pent"

    @property
    def detour_length(self) -> int:
        """Edges on the detour path that parallels each factor edge (3 or 4)."""
        return 3 if self is TransformKind.QUADRILATERAL else 4

    @property
    def path_vertices(self) -> int:
        """New vertices added per edge."""
        return self.detour_length - 1

    @property
    def resistance_scale(self) -> float:
        """Factor by which original-pair resistances shrink (3/4 or 4/5).

        A unit edge in parallel with a detour of l unit edges has resistance
        l / (l + 1).
        """
        return self.detour_length / (self.detour_length + 1)

    @property
    def path_weights(self) -> tuple[float, ...]:
        """b_j = j / l, path vertex j's weight on its edge's head (j = 1..k)."""
        return tuple(j / self.detour_length for j in range(1, self.detour_length))

    def vertex_count(self, n: int, m: int) -> int:
        return n + self.path_vertices * m

    def edge_count(self, m: int) -> int:
        return (self.path_vertices + 2) * m


class VertexRole(enum.Enum):
    ORIGINAL = "original"
    PATH1 = "path1"
    PATH2 = "path2"
    PATH3 = "path3"


@dataclass(frozen=True)
class VertexClass:
    """A transformed-graph vertex named by role and index.

    Original vertices are indexed by their id in the factor graph; path
    vertices are indexed by the edge that spawned them.
    """

    role: VertexRole
    index: int


def original(k: int) -> VertexClass:
    return VertexClass(VertexRole.ORIGINAL, k)


def path1(i: int) -> VertexClass:
    return VertexClass(VertexRole.PATH1, i)


def path2(i: int) -> VertexClass:
    return VertexClass(VertexRole.PATH2, i)


def path3(i: int) -> VertexClass:
    return VertexClass(VertexRole.PATH3, i)


# path roles in flat-id order: role j holds ids n + jm to n + (j + 1)m - 1
_PATH_ROLES = (VertexRole.PATH1, VertexRole.PATH2, VertexRole.PATH3)


def flat_id(c: VertexClass, n: int, m: int, kind: TransformKind) -> int:
    """Map a VertexClass to its flat id in the transformed graph."""
    if c.role is VertexRole.ORIGINAL:
        if not 0 <= c.index < n:
            raise ValueError(f"original index {c.index} out of range for n={n}")
        return c.index
    slot = _PATH_ROLES.index(c.role)
    if slot >= kind.path_vertices:
        raise ValueError(f"{c.role.value} is not a vertex class of {kind.value}")
    if not 0 <= c.index < m:
        raise ValueError(f"edge index {c.index} out of range for m={m}")
    return n + slot * m + c.index


def slot_edge(ids: np.ndarray, n: int, m: int, kind: TransformKind) -> tuple:
    """(slot, edge) arrays of an int array of flat ids, vertex Path(slot + 1) of
    the edge; -1, -1 for an original vertex."""
    total = kind.vertex_count(n, m)
    bad = ids[(ids < 0) | (ids >= total)]
    if bad.size:
        raise ValueError(f"vertex id {bad[0]} out of range for {kind.value} ({total})")
    # max(m, 1): without edges every valid id is an original
    return tuple(np.where(ids < n, -1, v) for v in np.divmod(ids - n, max(m, 1)))


def classify(idx: int, n: int, m: int, kind: TransformKind) -> VertexClass:
    """Inverse of flat_id: slot_edge of one id."""
    slot, edge = (int(v[0]) for v in slot_edge(np.array([idx]), n, m, kind))
    return VertexClass(_PATH_ROLES[slot], edge) if slot >= 0 else original(idx)


def class_slices(kind: TransformKind, n: int, m: int) -> list[tuple[VertexRole, slice]]:
    """(role, slice of its flat ids) for each vertex class, in flat-id order."""
    return [(VertexRole.ORIGINAL, slice(0, n))] + [
        (role, slice(n + j * m, n + (j + 1) * m))
        for j, role in enumerate(_PATH_ROLES[: kind.path_vertices])
    ]


def apply_transform(g: Graph, kind: TransformKind) -> Graph:
    """Edge i = (u, v) becomes, in order: (u, v), (u, Path1 i), ..., (Pathk i, v).

    k = ``kind.path_vertices``; the result has n + km vertices, (k + 2)m edges.
    They are built as arrays and are valid by construction: path vertices
    are new and distinct per edge, and each edge's last link is stored
    normalised as (v, Pathk i).
    """
    n, m, k = g.n, g.m, kind.path_vertices
    total = kind.vertex_count(n, m)
    if total - 1 > _INT64_MAX:
        raise GraphError(f"{kind.value} transform has {total} vertices, past int64 ids")
    tail, head = _endpoints(g).T
    path = np.arange(n, total, dtype=np.int64).reshape(k, m)  # path[j, i]: Path(j+1) i
    ends = np.empty((m, k + 2, 2), dtype=np.int64)
    ends[:, :, 0] = np.vstack([tail, tail, path[:-1], head]).T
    ends[:, :, 1] = np.vstack([head, path, path[-1:]]).T
    return _graph(total, ends.reshape(-1, 2))


def quadrilateral(g: Graph) -> Graph:
    """Quadrilateral transform: each edge becomes a 4-cycle."""
    return apply_transform(g, TransformKind.QUADRILATERAL)


def pentagonal(g: Graph) -> Graph:
    """Pentagonal transform: each edge becomes a 5-cycle."""
    return apply_transform(g, TransformKind.PENTAGONAL)
