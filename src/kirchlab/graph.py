"""Simple undirected graphs: edge-list parsing, Laplacians, incidence splits.

Vertices are the integers 0..n-1.  Edges are kept in input order because the
edge index labels the per-edge path vertices created by the transforms in
:mod:`kirchlab.transforms`.

A :class:`Graph` holds its edges as one read-only (m, 2) int64 array of
normalised (tail, head) rows, built and checked once when it is constructed;
the matrices, the connectivity test and the transforms all read that array.
``parse_edge_list`` reads a text of ASCII digits, spaces, tabs and newlines
in one numpy pass and scans any other text line by line; the line scan words
every parse error, so the messages do not depend on which reader ran.
"""

from __future__ import annotations

import io
import re
from dataclasses import FrozenInstanceError, dataclass
from typing import Iterable

import numpy as np

_INT64_MAX = int(np.iinfo(np.int64).max)
# largest n for which u * n + v, with u, v < n, fits in int64
_CODE_N_MAX = 3_037_000_499


class GraphError(ValueError):
    """Malformed graph data: bad tokens, self-loops, duplicates, bad ids."""


class DisconnectedGraphError(ValueError):
    """Raised where an operation is only defined for connected graphs."""


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class Graph:
    """Simple undirected graph.

    ``edges`` is an ordered sequence of ``(u, v)`` integer pairs; endpoints
    are normalized so ``u < v`` but the sequence order is preserved.  The
    graph stores them as one read-only (m, 2) int64 array; ``edges`` is a
    tuple view of it, built on first use.  A Graph is immutable, and two are
    equal when their n and their normalized edge sequences are.

    Endpoints must be integers, Python or NumPy, that fit in int64; a float
    or any other value raises GraphError before the per-edge checks run.
    """

    __slots__ = ("n", "_ends", "_edges")

    def __init__(self, n: int, edges: tuple[tuple[int, int], ...]) -> None:
        _set_fields(self, n, _checked(n, _endpoint_array(tuple(edges))))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            object.__setattr__(self, "_edges", tuple(zip(*self._ends.T.tolist())))
        return self._edges

    @property
    def m(self) -> int:
        """Edge count."""
        return len(self._ends)

    def degrees(self) -> np.ndarray:
        return np.bincount(self._ends.ravel(), minlength=self.n)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and np.array_equal(self._ends, other._ends)

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n!r}, edges={self.edges!r})"

    def __reduce__(self):
        return Graph, (self.n, self.edges)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


def _set_fields(g: Graph, n: int, ends: np.ndarray) -> Graph:
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "_ends", _frozen(ends))
    object.__setattr__(g, "_edges", None)
    return g


def _graph(n: int, ends: np.ndarray) -> Graph:
    """A Graph that takes over ``ends``, which must be normalised and checked."""
    return _set_fields(object.__new__(Graph), n, ends)


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


def _endpoint_array(edges: tuple) -> np.ndarray:
    """The pairs as a new (m, 2) int64 array.

    Raises GraphError unless every pair holds two integers (Python or NumPy)
    that fit in int64; this is checked over the whole list before any of the
    per-edge checks in ``_checked``.
    """
    if not edges:
        return np.empty((0, 2), dtype=np.int64)
    try:
        ends = np.array(edges)
    except ValueError:  # pairs of unequal lengths
        ends = None
    if ends is None or ends.shape != (len(edges), 2):
        raise GraphError("edges must be (u, v) pairs")
    kind = ends.dtype.kind
    if kind in "bi" or (kind == "u" and ends.max() <= _INT64_MAX):
        return ends.astype(np.int64, copy=False)
    for x in (x for pair in edges for x in pair):
        if not isinstance(x, (int, np.integer)):
            raise GraphError(f"non-integer vertex id {x!r}")
    raise GraphError("vertex ids must fit in int64")


def _checked(n: int, ends: np.ndarray) -> np.ndarray:
    """``ends``, normalised in place to tail < head.

    Raises GraphError for the first bad edge in order, worded as a scan of
    the edges one at a time words it: a self-loop, then an id outside
    [0, n), then a repeat of an earlier edge.
    """
    if n < 0:
        raise GraphError("vertex count must be non-negative")
    lo = np.minimum(ends[:, 0], ends[:, 1])
    hi = np.maximum(ends[:, 0], ends[:, 1])
    bad = (lo == hi) | (lo < 0) | (hi >= n)
    stop = int(bad.argmax()) if bad.any() else len(ends)
    # the edges before the first bad one have ids in [0, n), so u * n + v
    # codes them one to one, and a repeat sorts next to its first occurrence
    lo, hi, span = lo[:stop], hi[:stop], n
    if n > _CODE_N_MAX:  # u * n + v could overflow: code the ids' ranks instead
        ids = np.sort(np.concatenate([lo, hi]))
        lo, hi, span = np.searchsorted(ids, lo), np.searchsorted(ids, hi), len(ids)
    codes = lo * span + hi
    ordered = np.sort(codes)
    if (ordered[1:] == ordered[:-1]).any():
        stop = _first_repeat(codes)
    if stop < len(ends):
        u, v = ends[stop].tolist()
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if bad[stop]:
            raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
        raise GraphError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
    ends.sort(axis=1)
    return ends


def _first_repeat(codes: np.ndarray) -> int:
    """Smallest index whose code occurs at an earlier index."""
    order = np.argsort(codes, kind="stable")
    ordered = codes[order]
    # a stable sort keeps each run of equal codes in index order, so all
    # but a run's first member repeat an earlier code
    return int(order[1:][ordered[1:] == ordered[:-1]].min())


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from any iterable of endpoint pairs, under Graph's id rules."""
    return Graph(n, tuple(map(tuple, edges)))


# a text the one-pass reader takes: ASCII digits, spaces, tabs and newlines,
# with at least one digit
_PLAIN_TEXT = re.compile(r"[ \t\n]*[0-9][0-9 \t\n]*")


def parse_edge_list(text: str) -> Graph:
    """Parse a whitespace-separated edge list.

    One ``u v`` pair per line; blank lines and lines starting with ``#`` are
    skipped.  A first line ``n m`` is treated as a header when it is followed
    by exactly ``m`` edge lines whose ids all fit in ``[0, n)`` (the all-zero
    line ``0 0`` is never a header, so it errors as a self-loop).  The header
    reading wins when both fit: ``3 1`` then ``0 2`` is n = 3 with the one
    edge (0, 2), not the edges (3, 1) and (0, 2).  Without a header the
    vertex count is ``1 + max id``.  An empty stream parses to the empty
    graph.  Ids must fit in int64.
    """
    rows = _plain_rows(text)
    if rows is None:
        rows = _scanned_rows(text)
    if len(rows) == 0:
        return Graph(0, ())
    head_n, head_m = rows[0].tolist()
    rest = rows[1:]
    if (head_n, head_m) != (0, 0) and len(rest) == head_m and (rest < head_n).all():
        return _graph(head_n, _checked(head_n, rest))
    n = 1 + int(rows.max())
    return _graph(n, _checked(n, rows))


def _plain_rows(text: str) -> np.ndarray | None:
    """The rows of a plain text as an (r, 2) int64 array, read in one pass.

    None when the text is not plain (see ``_PLAIN_TEXT``) or that pass does
    not read it as pairs of int64 values; the line scan then reads it.
    """
    if not _PLAIN_TEXT.fullmatch(text):
        return None
    try:
        rows = np.loadtxt(io.StringIO(text), dtype=np.int64, comments=None, ndmin=2)
    except (ValueError, OverflowError):
        return None
    return rows if rows.shape[1] == 2 else None


def _scanned_rows(text: str) -> np.ndarray:
    """The rows of any text as an (r, 2) int64 array, read line by line.

    Raises GraphError naming the first line that is not a pair of
    non-negative integers that fit in int64.
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
        if a > _INT64_MAX or b > _INT64_MAX:
            raise GraphError(f"line {lineno}: vertex id too large in {line!r}")
        rows.append((a, b))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def render_edge_list(g: Graph) -> str:
    """Canonical edge-list text: ``n m`` header then one ``u v`` line per edge.

    The empty graph renders to the empty string.  ``parse_edge_list`` inverts
    this exactly.
    """
    if g.n == 0:
        return ""
    return f"{g.n} {g.m}\n" + ("%d %d\n" * g.m) % tuple(_endpoints(g).ravel().tolist())


def _endpoints(g: Graph) -> np.ndarray:
    """The graph's read-only (m, 2) int64 array of (tail, head) rows."""
    return g._ends


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


def edge_weights(n: int, tail: np.ndarray, head: np.ndarray, a, b) -> np.ndarray:
    """a B1 + b B2 as a new n x m array, m = len(tail): a at each edge's tail,
    b at its head, of dtype ``np.result_type(a, b)``."""
    edges = np.arange(len(tail))
    w = np.zeros((n, len(edges)), dtype=np.result_type(a, b))
    w[tail, edges] = a
    w[head, edges] = b
    return w


def incidence_split(g: Graph) -> IncidenceSplit:
    """Split the unsigned incidence matrix by the tail = smaller-id rule.

    Any fixed tail/head choice satisfies the split identities; downstream
    resistance results do not depend on it.
    """
    tail, head = _endpoints(g).T
    b1 = edge_weights(g.n, tail, head, 1, 0)
    b2 = edge_weights(g.n, tail, head, 0, 1)
    return IncidenceSplit(b1=_frozen(b1), b2=_frozen(b2))


def is_connected(g: Graph) -> bool:
    """Breadth-first reachability from vertex 0; vacuously true for n <= 1."""
    if g.n <= 1:
        return True
    if g.m < g.n - 1:  # too few edges to span, and no O(n) work for a huge n
        return False
    adj: list[list[int]] = [[] for _ in range(g.n)]
    tail, head = _endpoints(g).T.tolist()
    for u, v in zip(tail, head):
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
