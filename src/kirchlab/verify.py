"""Verification: random corpora, structured-vs-oracle comparison, clause audit.

The corpus generator is a rejection-sampled Erdos-Renyi G(n, p) conditioned
on connectivity, driven by splitmix64 so that a (n, p, seed) triple pins the
graph exactly, on any platform.

splitmix64: state advances by 0x9E3779B97F4A7C15 per call; the output is the
new state passed through xor-shift-multiply mixing (constants
0xBF58476D1CE4E5B9, 0x94D049BB133111EB, shifts 30/27/31).  Reference outputs,
seed 0: 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.  Floats
take the top 53 bits: (u64 >> 11) * 2^-53, uniform in [0, 1).

The audit transcribes the published closed-form clauses for the two
transforms exactly as typeset, suspected typos included, and measures each
clause against the brute-force oracle.  Repairs are made only where the
typeset expression is not even dimensionally conformable, and every such
repair is logged in the clause notes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    incidence_split,
    is_connected,
    laplacian,
)
from .oracle import oracle_kirchhoff, oracle_resistance_matrix
from .structured import build_structured_inverse, kirchhoff, resistance_matrix
from .transforms import TransformKind, VertexRole, apply_transform

_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1

REJECTION_BUDGET = 10_000


class GenerationBudgetError(RuntimeError):
    """Rejection sampling failed to hit a connected graph within budget."""


class SplitMix64:
    """Deterministic 64-bit generator; see the module docstring for vectors."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _U64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _U64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _U64
        z = ((z ^ (z >> 27)) * _MIX2) & _U64
        return z ^ (z >> 31)

    def next_float(self) -> float:
        """Uniform in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def next_below(self, bound: int) -> int:
        """Uniform-ish integer in [0, bound) by modulo (bias < 2^-50 here)."""
        return self.next_u64() % bound


def random_connected_graph(n: int, p: float, seed: int) -> Graph:
    """Connected Erdos-Renyi sample, deterministic for fixed (n, p, seed).

    Pairs (u, v), u < v, are visited in lexicographic order; each attempt
    draws one float per pair from a single splitmix64 stream and keeps the
    edge when the float is < p.  Disconnected draws are rejected, up to
    REJECTION_BUDGET attempts.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not 0.0 < p <= 1.0:
        raise ValueError("need 0 < p <= 1")
    rng = SplitMix64(seed)
    for _ in range(REJECTION_BUDGET):
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.next_float() < p
        ]
        g = Graph(n, tuple(edges))
        if is_connected(g):
            return g
    raise GenerationBudgetError(
        f"no connected graph in {REJECTION_BUDGET} attempts for n={n}, p={p}"
    )


# ---------------------------------------------------------------------------
# structured-vs-oracle comparison


def _class_slices(kind: TransformKind, n: int, m: int) -> list[tuple[VertexRole, slice]]:
    out = [(VertexRole.ORIGINAL, slice(0, n))]
    roles = (VertexRole.PATH1, VertexRole.PATH2, VertexRole.PATH3)
    for slot in range(kind.path_vertices):
        out.append((roles[slot], slice(n + slot * m, n + (slot + 1) * m)))
    return out


@dataclass(frozen=True)
class DiscrepancyReport:
    """Structured engine vs oracle on one graph and one transform kind."""

    n: int
    m: int
    seed: int | None
    kind: TransformKind
    class_pair_deltas: dict[str, float]
    kirchhoff_delta: float
    kirchhoff_rel_delta: float
    overall_max: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "graph": {"n": self.n, "m": self.m, "seed": self.seed},
            "kind": self.kind.value,
            "deltas": {
                "class_pairs": dict(self.class_pair_deltas),
                "kirchhoff": self.kirchhoff_delta,
                "kirchhoff_rel": self.kirchhoff_rel_delta,
                "overall": self.overall_max,
            },
            "pass": self.passed,
        }


def compare(
    g: Graph,
    kind: TransformKind,
    tol: float = 1e-8,
    kf_tol: float = 1e-6,
    seed: int | None = None,
) -> DiscrepancyReport:
    """Resistance matrices and Kirchhoff indices via both routes, per class pair.

    ``tol`` bounds every resistance-entry delta, ``kf_tol + tol * |Kf|`` the
    Kirchhoff delta, so large correct indices pass; the report passes only if
    both hold.  ``seed`` is carried into the report as provenance only.
    """
    x = build_structured_inverse(g, kind)
    r_structured = resistance_matrix(x)
    kf_structured = kirchhoff(x)

    tg = apply_transform(g, kind)
    r_oracle = oracle_resistance_matrix(tg)
    kf_oracle = oracle_kirchhoff(tg)

    delta = np.abs(r_structured - r_oracle)
    slices = _class_slices(kind, g.n, g.m)
    pair_deltas: dict[str, float] = {}
    for ai, (role_a, sl_a) in enumerate(slices):
        for role_b, sl_b in slices[ai:]:
            pair_deltas[f"{role_a.value}-{role_b.value}"] = float(
                delta[sl_a, sl_b].max()
            )
    kf_delta = abs(kf_structured - kf_oracle)
    overall = float(delta.max())
    return DiscrepancyReport(
        n=g.n,
        m=g.m,
        seed=seed,
        kind=kind,
        class_pair_deltas=pair_deltas,
        kirchhoff_delta=kf_delta,
        kirchhoff_rel_delta=kf_delta / abs(kf_oracle),
        overall_max=overall,
        passed=bool(overall <= tol and kf_delta <= kf_tol + tol * abs(kf_oracle)),
    )


def run_corpus(
    count: int,
    n_max: int,
    p: float,
    seed: int,
    tol: float = 1e-8,
    kf_tol: float = 1e-6,
) -> list[DiscrepancyReport]:
    """Draw ``count`` connected graphs and compare both transforms of each.

    A meta-stream seeded with ``seed`` draws the vertex count in [2, n_max]
    and a fresh 64-bit seed per graph, so the whole corpus is pinned by the
    arguments.  Returns 2 * count reports (quadrilateral then pentagonal).
    """
    if count < 1:
        raise ValueError("need count >= 1")
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    meta = SplitMix64(seed)
    reports: list[DiscrepancyReport] = []
    for _ in range(count):
        n = 2 + meta.next_below(n_max - 1)
        graph_seed = meta.next_u64()
        g = random_connected_graph(n, p, graph_seed)
        for kind in (TransformKind.QUADRILATERAL, TransformKind.PENTAGONAL):
            reports.append(compare(g, kind, tol, kf_tol, seed=graph_seed))
    return reports


# ---------------------------------------------------------------------------
# clause audit


@dataclass(frozen=True)
class ClauseDomain:
    """One index domain of a clause: formula values vs oracle values."""

    label: str
    printed: np.ndarray
    oracle: np.ndarray
    max_delta: float


@dataclass(frozen=True)
class AuditClause:
    id: str
    domains: tuple[ClauseDomain, ...]
    max_delta: float
    notes: str


@dataclass(frozen=True)
class AuditReport:
    clauses: tuple[AuditClause, ...]

    def as_dict(self) -> dict:
        return {
            "clauses": [
                {"id": c.id, "max_delta": c.max_delta, "notes": c.notes}
                for c in self.clauses
            ]
        }


def _domain(label: str, printed, oracle, skip_diagonal: bool = False) -> ClauseDomain:
    printed_a = np.asarray(printed, dtype=np.float64)
    oracle_a = np.asarray(oracle, dtype=np.float64)
    delta = np.abs(printed_a - oracle_a)
    if skip_diagonal:
        delta = delta.copy()
        np.fill_diagonal(delta, 0.0)
    return ClauseDomain(
        label=label, printed=printed_a, oracle=oracle_a, max_delta=float(delta.max())
    )


def _clause(cid: str, domains: list[ClauseDomain], notes: str = "") -> AuditClause:
    return AuditClause(
        id=cid,
        domains=tuple(domains),
        max_delta=max(d.max_delta for d in domains),
        notes=notes,
    )


def _per_domain_note(prefix: str, domains: list[ClauseDomain]) -> str:
    parts = ", ".join(f"{d.label} delta {d.max_delta:.6e}" for d in domains)
    return f"{prefix}: {parts}"

_SPLIT_REPAIR_NOTE = (
    "incidence split applied in its conformable reading "
    "b1 b2^T + b2 b1^T = adjacency; the typeset transpose placement "
    "does not conform"
)


def _kf_sums(g: Graph, ls: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> tuple:
    """Kf(G), then the traces and entry sums of b_i^T L^# b_j for ij = 11, 12, 21, 22."""
    prods = [bi.T @ ls @ bj for bi in (b1, b2) for bj in (b1, b2)]
    return (g.n * float(np.trace(ls)), *(float(np.trace(p)) for p in prods),
            *(float(p.sum()) for p in prods))


def _audit_quadrilateral(g: Graph, ls: np.ndarray, b1: np.ndarray, b2: np.ndarray,
                         r_t: np.ndarray, kf_t: float) -> tuple[AuditClause, ...]:
    n, m = g.n, g.m
    v0 = slice(0, n)
    v1 = slice(n, n + m)
    v2 = slice(n + m, n + 2 * m)
    ls_d = np.diag(ls)
    eye = np.eye(m)

    w1 = 0.5 * b1 + 0.25 * b2
    w2 = (2.0 / 3.0) * b1 + (1.0 / 3.0) * b2
    w3 = 0.25 * b1 + 0.5 * b2
    w4 = (1.0 / 3.0) * b1 + (2.0 / 3.0) * b2
    t_p = w1.T @ ls @ w2
    t_n = w3.T @ ls @ w4
    t_q = w1.T @ ls @ w4
    corner1 = ls @ w1

    clause_i = _clause(
        "3.1.i",
        [
            _domain(
                "VxV",
                0.75 * ls_d[:, None] + 0.75 * ls_d[None, :] - 1.5 * ls,
                r_t[v0, v0],
                skip_diagonal=True,
            )
        ],
    )

    printed_ii = 0.75 * ls_d[:, None] + np.diag(t_p)[None, :] - 2.0 * corner1
    domains_ii = [
        _domain("VxV1", printed_ii, r_t[v0, v1]),
        _domain("VxV2", printed_ii, r_t[v0, v2]),
    ]
    clause_ii = _clause(
        "3.1.ii",
        domains_ii,
        _per_domain_note(
            "index domain typeset ambiguously; evaluated separately", domains_ii
        ),
    )

    clause_iii = _clause(
        "3.1.iii",
        [
            _domain(
                "V1xV2",
                4.0 / 3.0
                + np.diag(t_p)[:, None]
                + np.diag(t_n)[None, :]
                - (eye / 3.0 + t_q),
                r_t[v1, v2],
            )
        ],
    )

    printed_iv = (
        4.0 / 3.0 + np.diag(t_p)[:, None] + np.diag(t_p)[None, :] - 2.0 * t_p
    )
    domains_iv = [
        _domain("V1xV1", printed_iv, r_t[v1, v1], skip_diagonal=True),
        _domain("V2xV2", printed_iv, r_t[v2, v2], skip_diagonal=True),
    ]
    clause_iv = _clause(
        "3.1.iv",
        domains_iv,
        _per_domain_note("evaluated within each class separately", domains_iv),
    )

    kf_g, tr11, tr12, tr21, tr22, q11, q12, q21, q22 = _kf_sums(g, ls, b1, b2)
    printed_kf = (
        (n + 2 * m)
        * (3.0 / (4.0 * n) * kf_g + 5.0 / 12.0 * (tr11 + tr12) + (tr21 + tr22) / 3.0)
        - 0.75 * (q11 + q22 + q12 + q21)
        - 2.0 * m
    )
    clause_v = _clause(
        "3.1.v",
        [_domain("scalar", printed_kf, kf_t)],
        _SPLIT_REPAIR_NOTE,
    )

    return (clause_i, clause_ii, clause_iii, clause_iv, clause_v)


def _audit_pentagonal(g: Graph, ls: np.ndarray, b1: np.ndarray, b2: np.ndarray,
                      r_t: np.ndarray, kf_t: float) -> tuple[AuditClause, ...]:
    n, m = g.n, g.m
    v0 = slice(0, n)
    v1 = slice(n, n + m)
    v2 = slice(n + m, n + 2 * m)
    v3 = slice(n + 2 * m, n + 3 * m)
    ls_d = np.diag(ls)
    eye = np.eye(m)

    f1 = 0.6 * b1 + 0.2 * b2
    f2 = 0.4 * b1 + 0.4 * b2
    f3 = 0.2 * b1 + 0.6 * b2
    g1 = 0.75 * b1 + 0.25 * b2
    g2 = 0.5 * b1 + 0.5 * b2
    g3 = 0.25 * b1 + 0.75 * b2
    s11 = f1.T @ ls @ g1
    s22 = f2.T @ ls @ g2
    s33 = f3.T @ ls @ g3
    s12 = f1.T @ ls @ g2
    s13 = f1.T @ ls @ g3
    s_q = (0.25 * b1 + 0.25 * b2).T @ ls @ g3

    clause_i = _clause(
        "4.1.i",
        [
            _domain(
                "VxV",
                0.8 * ls_d[:, None] + 0.8 * ls_d[None, :] - 1.6 * ls,
                r_t[v0, v0],
                skip_diagonal=True,
            )
        ],
    )
    clause_ii = _clause(
        "4.1.ii",
        [
            _domain(
                "VxV1",
                0.8 * ls_d[:, None]
                + (0.75 + np.diag(s11))[None, :]
                - 2.0 * (ls @ f1),
                r_t[v0, v1],
            )
        ],
    )
    clause_iii = _clause(
        "4.1.iii",
        [
            _domain(
                "VxV2",
                0.8 * ls_d[:, None]
                + (1.0 + np.diag(s11))[None, :]
                - 2.0 * (ls @ f2),
                r_t[v0, v2],
            )
        ],
    )
    clause_iv = _clause(
        "4.1.iv",
        [
            _domain(
                "VxV3",
                0.8 * ls_d[:, None] + np.diag(s33)[None, :] - 2.0 * (ls @ f3),
                r_t[v0, v3],
            )
        ],
    )
    clause_v = _clause(
        "4.1.v",
        [
            _domain(
                "V1xV2",
                1.25
                + np.diag(s11)[:, None]
                + np.diag(s22)[None, :]
                - (0.5 * eye + s12),
                r_t[v1, v2],
            )
        ],
    )
    clause_vi = _clause(
        "4.1.vi",
        [
            _domain(
                "V1xV3",
                1.5
                + np.diag(s11)[:, None]
                + np.diag(s33)[None, :]
                - (0.25 * eye + s13),
                r_t[v1, v3],
            )
        ],
    )
    clause_vii = _clause(
        "4.1.vii",
        [
            _domain(
                "V2xV3",
                1.75
                + np.diag(s22)[:, None]
                + np.diag(s33)[None, :]
                - (0.5 * eye + s_q),
                r_t[v2, v3],
            )
        ],
    )

    kf_g, tr11, tr12, _, tr22, q11, q12, q21, q22 = _kf_sums(g, ls, b1, b2)
    # the 1/2 group doubles tr(b1^T L^# b2), exactly as typeset
    printed_kf = (
        (n + 3 * m)
        * (
            4.0 / (5.0 * n) * kf_g
            + 0.61 * (tr11 + tr22)
            + 0.5 * (tr12 + tr12)
            + 2.5 * m
        )
        - 141.0 / 80.0 * q11
        - 131.0 / 80.0 * q12
        - 133.0 / 80.0 * q21
        - 127.0 / 80.0 * q22
        - 5.0 * m
    )
    clause_viii = _clause(
        "4.1.viii",
        [_domain("scalar", printed_kf, kf_t)],
        _SPLIT_REPAIR_NOTE,
    )

    return (
        clause_i,
        clause_ii,
        clause_iii,
        clause_iv,
        clause_v,
        clause_vi,
        clause_vii,
        clause_viii,
    )


def audit_theorems(g: Graph, kind: TransformKind) -> AuditReport:
    """Measure each published clause for ``kind`` against the oracle.

    Formulas are evaluated exactly as typeset.  Five clauses for the
    quadrilateral transform, eight for the pentagonal one; deltas are
    deterministic for a fixed graph.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("audit requires a connected factor graph")
    if g.m == 0:
        raise GraphError("audit requires at least one edge")
    tg = apply_transform(g, kind)
    r_t = oracle_resistance_matrix(tg)
    kf_t = oracle_kirchhoff(tg)
    ls = np.linalg.pinv(laplacian(g), hermitian=True)
    split = incidence_split(g)
    b1 = split.b1.astype(np.float64)
    b2 = split.b2.astype(np.float64)
    if kind is TransformKind.QUADRILATERAL:
        clauses = _audit_quadrilateral(g, ls, b1, b2, r_t, kf_t)
    else:
        clauses = _audit_pentagonal(g, ls, b1, b2, r_t, kf_t)
    return AuditReport(clauses=clauses)
