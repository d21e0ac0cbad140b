"""Output checks, run in the benchmark's own process after the timed loop.

Results are compared with the SVD oracle on the transformed graph, which the
benchmark builds itself by array arithmetic, so a fault in
kirchlab.transforms cannot also corrupt the reference.  A value passes when
|got - ref| <= atol + rtol * |ref|, so large correct values do not fail.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

KF_RTOL, KF_ATOL = 1e-9, 1e-9
R_RTOL, R_ATOL = 1e-8, 1e-8
AUDIT_IDS = {
    "quad": ["3.1.i", "3.1.ii", "3.1.iii", "3.1.iv", "3.1.v"],
    "pent": ["4.1.i", "4.1.ii", "4.1.iii", "4.1.iv", "4.1.v", "4.1.vi",
             "4.1.vii", "4.1.viii"],
}
# clauses whose typeset form is exact (the 3/4 and 4/5 laws, V x V1 of W)
EXACT_CLAUSES = ("3.1.i", "4.1.i", "4.1.ii")


def close(got, ref, rtol: float, atol: float) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(
        np.all(np.abs(got - ref) <= atol + rtol * np.abs(ref)))


def _transformed(op):
    """The transformed graph, built by the benchmark, not by kirchlab.transforms."""
    from kirchlab import graph_from_edges

    rows = expected_transform(Path(op.graph).read_text(encoding="utf-8"), op.kind)
    return graph_from_edges(int(rows[0, 0]), rows[1:].tolist())


def read_resistances(path: str, fmt: str, kind: str) -> np.ndarray:
    """Parse a resist output back into a matrix."""
    text = Path(path).read_text(encoding="utf-8")
    if fmt == "json":
        doc = json.loads(text)
        if doc["kind"] != kind or doc["n"] != len(doc["matrix"]):
            raise ValueError(f"header {doc['kind']!r}, n={doc['n']} does not match")
        return np.array(doc["matrix"], dtype=float)
    return np.array([row.split(",") for row in text.splitlines()], dtype=float)


def expected_transform(graph_text: str, kind: str) -> np.ndarray:
    """Header and edges of the transform of an edge list, by array arithmetic.

    Returns the ``n m`` header row followed by the edge rows.  Edge i = (u, v)
    becomes the cycle u-v plus the detour u, p1 .. pk, v with path vertex j at
    n + (j-1) m + i, every pair written smaller id first.
    """
    rows = np.array(graph_text.split(), dtype=np.int64).reshape(-1, 2)
    n, m = rows[0]
    e = np.sort(rows[1:], axis=1)
    k = 2 if kind == "quad" else 3
    path = n + np.arange(k)[None, :] * m + np.arange(m)[:, None]
    chain = np.concatenate([e[:, :1], path, e[:, 1:]], axis=1)
    detour = np.stack([chain[:, :-1], chain[:, 1:]], axis=2)
    edges = np.concatenate([e[:, None, :], detour], axis=1).reshape(-1, 2)
    header = np.array([[n + k * m, len(edges)]])
    return np.concatenate([header, np.sort(edges, axis=1)])


def check_op(op, observed: list) -> str | None:
    """Failure reason for one operation's outputs, or None when they pass.

    ``observed`` holds what the loop read back after each run of ``op``.
    """
    from kirchlab import oracle_kirchhoff, oracle_resistance_matrix

    if op.corpus:
        for reports in observed:
            for rep in reports:
                if not rep["passed"]:
                    return f"compare failed ({rep['kind']})"
                clauses = rep["clauses"]
                if list(clauses) != AUDIT_IDS[rep["kind"]]:
                    return f"audit clause ids {list(clauses)}"
                if not all(np.isfinite(d) for d in clauses.values()):
                    return "audit delta not finite"
                if any(clauses.get(c, 0.0) > 1e-8 for c in EXACT_CLAUSES):
                    return "an exact audit clause misses the oracle"
        return None
    command = op.argv[0]
    if command == "kirchhoff":
        ref = oracle_kirchhoff(_transformed(op))
        for text in set(observed):
            if not close(float(text), ref, KF_RTOL, KF_ATOL):
                return f"Kf {text.strip()} vs oracle {ref!r}"
        return None
    if command == "resist":
        try:
            got = read_resistances(op.stdout, op.fmt, op.kind)
        except (ValueError, KeyError, TypeError) as exc:
            return f"unreadable output: {exc}"
        if not close(got, oracle_resistance_matrix(_transformed(op)), R_RTOL, R_ATOL):
            return "resistance matrix misses the oracle"
        return None
    raise ValueError(f"no check for {command!r}")
