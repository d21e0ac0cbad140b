"""Simple undirected graphs: edge-list parsing, Laplacians, incidence splits.

Vertices are the integers 0..n-1.  Edges are kept in input order because the
edge index labels the per-edge path vertices created by the transforms in
:mod:`kirchlab.transforms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


class GraphError(ValueError):
    """Malformed graph data: bad tokens, self-loops, duplicates, bad ids."""


class DisconnectedGraphError(ValueError):
    """Raised where an operation is only defined for connected graphs."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph.

    ``edges`` is an ordered sequence of ``(u, v)`` pairs; endpoints are
    normalized so ``u < v`` but the sequence order is preserved.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise GraphError("vertex count must be non-negative")
        seen: set[tuple[int, int]] = set()
        normalized = []
        for u, v in self.edges:
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            a, b = (u, v) if u < v else (v, u)
            if a < 0 or b >= self.n:
                raise GraphError(f"edge ({u}, {v}) out of range for n={self.n}")
            if (a, b) in seen:
                raise GraphError(f"duplicate edge ({a}, {b})")
            seen.add((a, b))
            normalized.append((a, b))
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        """Edge count."""
        return len(self.edges)

    def degrees(self) -> np.ndarray:
        return np.bincount(_endpoints(self).ravel(), minlength=self.n)


@dataclass(frozen=True)
class IncidenceSplit:
    """Vertex-edge incidence split into tail and head halves.

    ``b1[u, i] = 1`` iff vertex ``u`` is the tail (smaller endpoint) of edge
    ``i``; ``b2`` marks the heads.  Column ``i`` of ``b1 + b2`` is the usual
    unsigned incidence column of edge ``i``.  The defining identities::

        b1 + b2           = unsigned incidence matrix
        b1 b1^T + b2 b2^T = degree matrix
        b1 b2^T + b2 b1^T = adjacency matrix

    hold exactly in integer arithmetic.
    """

    b1: np.ndarray
    b2: np.ndarray


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from any iterable of endpoint pairs."""
    return Graph(n, tuple((int(u), int(v)) for u, v in edges))


def parse_edge_list(text: str) -> Graph:
    """Parse a whitespace-separated edge list.

    One ``u v`` pair per line; blank lines and lines starting with ``#`` are
    skipped.  A first line ``n m`` is treated as a header when it is followed
    by exactly ``m`` edge lines whose ids all fit in ``[0, n)`` (the all-zero
    line ``0 0`` is never a header, so it errors as a self-loop).  The header
    reading wins when both fit: ``3 1`` then ``0 2`` is n = 3 with the one
    edge (0, 2), not the edges (3, 1) and (0, 2).  Without a header the
    vertex count is ``1 + max id``.  An empty stream parses to the empty
    graph.
    """
    rows: list[tuple[int, int]] = []
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
        rows.append((a, b))

    if not rows:
        return Graph(0, ())

    head_n, head_m = rows[0]
    rest = rows[1:]
    is_header = (
        (head_n, head_m) != (0, 0)
        and len(rest) == head_m
        and all(u < head_n and v < head_n for u, v in rest)
    )
    if is_header:
        return Graph(head_n, tuple(rest))
    n = 1 + max(max(u, v) for u, v in rows)
    return Graph(n, tuple(rows))


def render_edge_list(g: Graph) -> str:
    """Canonical edge-list text: ``n m`` header then one ``u v`` line per edge.

    The empty graph renders to the empty string.  ``parse_edge_list`` inverts
    this exactly.
    """
    if g.n == 0:
        return ""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def _endpoints(g: Graph) -> np.ndarray:
    """The edges as an (m, 2) int64 array of (tail, head) rows."""
    # zip transposes in Python, about twice as fast as numpy's nested-sequence scan
    return np.array(list(zip(*g.edges)), dtype=np.int64).reshape(2, g.m).T


def adjacency_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n), dtype=np.int64)
    tail, head = _endpoints(g).T
    a[tail, head] = a[head, tail] = 1
    return a


def laplacian(g: Graph) -> np.ndarray:
    """Laplacian L = D - A as float64."""
    ends = _endpoints(g)
    tail, head = ends.T
    # zeros off the edges are -0.0, the sign -A gives them; pinv's last bits follow it
    lap = np.full((g.n, g.n), -0.0)
    lap[tail, head] = lap[head, tail] = -1.0
    np.fill_diagonal(lap, np.bincount(ends.ravel(), minlength=g.n))
    return lap


def incidence_split(g: Graph) -> IncidenceSplit:
    """Split the unsigned incidence matrix by the tail = smaller-id rule.

    Any fixed tail/head choice satisfies the split identities; downstream
    resistance results do not depend on it.
    """
    b1 = np.zeros((g.n, g.m), dtype=np.int64)
    b2 = np.zeros((g.n, g.m), dtype=np.int64)
    tail, head = _endpoints(g).T
    cols = np.arange(g.m)
    b1[tail, cols] = 1
    b2[head, cols] = 1
    return IncidenceSplit(b1=_frozen(b1), b2=_frozen(b2))


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from vertex 0; vacuously true for n <= 1."""
    if g.n <= 1:
        return True
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n
