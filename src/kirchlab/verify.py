"""Verification: random corpora, structured-vs-oracle comparison, clause audit.

The corpus generator is a rejection-sampled Erdos-Renyi G(n, p) conditioned
on connectivity, driven by splitmix64 so that a (n, p, seed) triple pins the
graph exactly, on any platform.

splitmix64: state advances by 0x9E3779B97F4A7C15 per call; the output is the
new state passed through xor-shift-multiply mixing (constants
0xBF58476D1CE4E5B9, 0x94D049BB133111EB, shifts 30/27/31).  Reference outputs,
seed 0: 0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F.  Floats
take the top 53 bits: (u64 >> 11) * 2^-53, uniform in [0, 1).

The comparison and the audit share one reference: the engine's inverse, and
the brute-force oracle's values on the explicitly built transform, whose SVD
belongs to the oracle alone.  The audit evaluates the published closed-form
clauses exactly as typeset, suspected typos included, on the engine's L^# of
the factor graph, and measures each against the oracle.  Repairs are made
only where the typeset expression is not even dimensionally conformable, and
every such repair is logged in the clause notes.  The clauses are one table,
a row of (id, domains, note, terms) each, read by one evaluator: a term is a
constant, a multiple of I_m, or a diagonal, trace, entry sum or the whole of
a block W_p^T L^# W_q, with W = x b1 + y b2.  Terms are summed left to
right, so a value may differ in its last bits from another grouping of the
same body (at most 8.9e-16 of the printed scale on 137 seeded graphs).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .graph import Graph, edge_weights, is_connected
from .oracle import oracle_kirchhoff, oracle_resistance_matrix
from .structured import build_structured_inverse, kirchhoff, resistance_matrix
from .transforms import TransformKind, apply_transform, class_slices

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


def _routes(g: Graph, kind: TransformKind) -> tuple:
    """The engine's implicit inverse of ``kind`` of ``g``, and the oracle's
    resistance matrix and Kirchhoff index of the explicitly built transform."""
    x = build_structured_inverse(g, kind)
    tg = apply_transform(g, kind)
    return x, oracle_resistance_matrix(tg), oracle_kirchhoff(tg)


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
    g: Graph, kind: TransformKind, tol: float = 1e-8, seed: int | None = None
) -> DiscrepancyReport:
    """Resistance matrices and Kirchhoff indices via both routes, per class pair.

    ``tol * (1 + |v|)`` bounds the delta of each value v, the oracle's
    resistances and its Kirchhoff index, so large correct values pass; the
    report passes only if every bound holds.  ``seed`` is carried into the
    report as provenance only.
    """
    x, r_oracle, kf_oracle = _routes(g, kind)
    kf_structured = kirchhoff(x)
    delta = np.abs(resistance_matrix(x) - r_oracle)
    slices = class_slices(kind, g.n, g.m)
    pair_deltas: dict[str, float] = {}
    for ai, (role_a, sl_a) in enumerate(slices):
        for role_b, sl_b in slices[ai:]:
            pair_deltas[f"{role_a.value}-{role_b.value}"] = float(
                delta[sl_a, sl_b].max()
            )
    kf_delta = abs(kf_structured - kf_oracle)
    entries_pass = (delta <= tol * (1.0 + np.abs(r_oracle))).all()
    return DiscrepancyReport(
        n=g.n,
        m=g.m,
        seed=seed,
        kind=kind,
        class_pair_deltas=pair_deltas,
        kirchhoff_delta=kf_delta,
        kirchhoff_rel_delta=kf_delta / abs(kf_oracle),
        overall_max=float(delta.max()),
        passed=bool(entries_pass and kf_delta <= tol * (1.0 + abs(kf_oracle))),
    )


def run_corpus(
    count: int, n_max: int, p: float, seed: int, tol: float = 1e-8
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
            reports.append(compare(g, kind, tol, seed=graph_seed))
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


# Each clause is a row (id, domains, note, terms) and its typeset body the sum
# of its terms.  A term is (shape, coefficient) or (shape, coefficient, p, q),
# where the shape is one of
#   "c"     the constant 1               "I"     I_m
#   "Mii"   entry (i, j) is M_ii         "Mjj"   entry (i, j) is M_jj
#   "M"     M                            "NtrM"  N tr M        "1M1"  1^T M 1
#   "m"     m                            "Nm"    N m
# and M = W_p^T L^# W_q.  W_p = x b1 + y b2 for the (x, y) named p below,
# built by ``graph.edge_weights``, which also builds the engine's P;
# "V" is the identity, so (V, V) is L^# and (V, q) is L^# W_q.  A domain
# "AxB" compares against the oracle's rows in class A and columns in class
# B, leaving out the diagonal when A = B; "scalar" compares against Kf.  A
# clause with several domains appends each domain's delta to its note, to 4
# significant digits, or as "< 1e-9" where only rounding is left.
_WEIGHTS = {
    "w1": (0.5, 0.25), "w2": (2.0 / 3.0, 1.0 / 3.0),
    "w3": (0.25, 0.5), "w4": (1.0 / 3.0, 2.0 / 3.0),
    "f1": (0.6, 0.2), "f2": (0.4, 0.4), "f3": (0.2, 0.6),
    "g1": (0.75, 0.25), "g2": (0.5, 0.5), "g3": (0.25, 0.75),
    "q": (0.25, 0.25),
    "b1": (1.0, 0.0), "b2": (0.0, 1.0), "b": (1.0, 1.0),
}

_SPLIT_REPAIR_NOTE = (
    "incidence split applied in its conformable reading "
    "b1 b2^T + b2 b1^T = adjacency; the typeset transpose placement "
    "does not conform"
)

_CLAUSES = {
    TransformKind.QUADRILATERAL: (
        ("3.1.i", ("VxV",), "", (
            ("Mii", 0.75, "V", "V"), ("Mjj", 0.75, "V", "V"), ("M", -1.5, "V", "V"))),
        ("3.1.ii", ("VxV1", "VxV2"),
         "index domain typeset ambiguously; evaluated separately", (
            ("Mii", 0.75, "V", "V"), ("Mjj", 1.0, "w1", "w2"), ("M", -2.0, "V", "w1"))),
        ("3.1.iii", ("V1xV2",), "", (
            ("c", 4.0 / 3.0), ("Mii", 1.0, "w1", "w2"), ("Mjj", 1.0, "w3", "w4"),
            ("I", -1.0 / 3.0), ("M", -1.0, "w1", "w4"))),
        ("3.1.iv", ("V1xV1", "V2xV2"), "evaluated within each class separately", (
            ("c", 4.0 / 3.0), ("Mii", 1.0, "w1", "w2"), ("Mjj", 1.0, "w1", "w2"),
            ("M", -2.0, "w1", "w2"))),
        # (n + 2m)(3/(4n) Kf(G) + 5/12 (tr11 + tr12) + 1/3 (tr21 + tr22))
        # - 3/4 (q11 + q22 + q12 + q21) - 2m
        ("3.1.v", ("scalar",), _SPLIT_REPAIR_NOTE, (
            ("NtrM", 0.75, "V", "V"), ("NtrM", 5.0 / 12.0, "b1", "b"),
            ("NtrM", 1.0 / 3.0, "b2", "b"), ("1M1", -0.75, "b", "b"), ("m", -2.0))),
    ),
    TransformKind.PENTAGONAL: (
        ("4.1.i", ("VxV",), "", (
            ("Mii", 0.8, "V", "V"), ("Mjj", 0.8, "V", "V"), ("M", -1.6, "V", "V"))),
        ("4.1.ii", ("VxV1",), "", (
            ("Mii", 0.8, "V", "V"), ("c", 0.75), ("Mjj", 1.0, "f1", "g1"),
            ("M", -2.0, "V", "f1"))),
        ("4.1.iii", ("VxV2",), "", (
            ("Mii", 0.8, "V", "V"), ("c", 1.0), ("Mjj", 1.0, "f1", "g1"),
            ("M", -2.0, "V", "f2"))),
        ("4.1.iv", ("VxV3",), "", (
            ("Mii", 0.8, "V", "V"), ("Mjj", 1.0, "f3", "g3"), ("M", -2.0, "V", "f3"))),
        ("4.1.v", ("V1xV2",), "", (
            ("c", 1.25), ("Mii", 1.0, "f1", "g1"), ("Mjj", 1.0, "f2", "g2"),
            ("I", -0.5), ("M", -1.0, "f1", "g2"))),
        ("4.1.vi", ("V1xV3",), "", (
            ("c", 1.5), ("Mii", 1.0, "f1", "g1"), ("Mjj", 1.0, "f3", "g3"),
            ("I", -0.25), ("M", -1.0, "f1", "g3"))),
        ("4.1.vii", ("V2xV3",), "", (
            ("c", 1.75), ("Mii", 1.0, "f2", "g2"), ("Mjj", 1.0, "f3", "g3"),
            ("I", -0.5), ("M", -1.0, "q", "g3"))),
        # (n + 3m)(4/(5n) Kf(G) + 0.61 (tr11 + tr22) + 1/2 (tr12 + tr12) + 5m/2)
        # - (141 q11 + 131 q12 + 133 q21 + 127 q22)/80 - 5m; the 1/2 group
        # doubles tr(b1^T L^# b2), exactly as typeset
        ("4.1.viii", ("scalar",), _SPLIT_REPAIR_NOTE, (
            ("NtrM", 0.8, "V", "V"), ("NtrM", 0.61, "b1", "b1"),
            ("NtrM", 0.61, "b2", "b2"), ("NtrM", 0.5, "b1", "b2"),
            ("NtrM", 0.5, "b1", "b2"), ("Nm", 2.5),
            ("1M1", -141.0 / 80.0, "b1", "b1"), ("1M1", -131.0 / 80.0, "b1", "b2"),
            ("1M1", -133.0 / 80.0, "b2", "b1"), ("1M1", -127.0 / 80.0, "b2", "b2"),
            ("m", -5.0))),
    ),
}


def audit_theorems(g: Graph, kind: TransformKind) -> AuditReport:
    """Measure each published clause for ``kind`` against the oracle.

    Formulas are evaluated exactly as typeset, on the engine's L^# of ``g``.
    Five clauses for the quadrilateral transform, eight for the pentagonal
    one; deltas are deterministic for a fixed graph.
    """
    inv, r_t, kf_t = _routes(g, kind)
    n, m, big_n, ls = inv.n, inv.m, inv.total_vertices, inv.lg_sharp
    slices = dict(zip(("V", "V1", "V2", "V3"), (s for _, s in class_slices(kind, n, m))))

    @functools.cache
    def weight(name: str) -> np.ndarray:
        return edge_weights(inv.n, inv.tail, inv.head, *_WEIGHTS[name])

    @functools.cache
    def block(p: str, q: str) -> np.ndarray:
        if p == "V":
            return ls if q == "V" else ls @ weight(q)
        return weight(p).T @ ls @ weight(q)

    def term(shape: str, c: float, p: str = "", q: str = ""):
        if shape == "c":
            return c
        if shape == "I":
            return c * np.eye(m)
        if shape in ("m", "Nm"):
            return c * (big_n * m if shape == "Nm" else m)
        mat = block(p, q)
        if shape == "Mii":
            value = mat.diagonal()[:, None]
        elif shape == "Mjj":
            value = mat.diagonal()[None, :]
        elif shape == "M":
            value = mat
        elif shape == "NtrM":
            value = big_n * float(mat.trace())
        else:  # "1M1"
            value = float(mat.sum())
        return value if c == 1.0 else c * value

    clauses = []
    for cid, labels, note, terms in _CLAUSES[kind]:
        printed = term(*terms[0])
        for t in terms[1:]:
            printed = printed + term(*t)
        printed = np.asarray(printed, dtype=np.float64)
        domains = []
        for label in labels:
            rows, _, cols = label.partition("x")
            oracle = np.asarray(kf_t if label == "scalar"
                                else r_t[slices[rows], slices[cols]], dtype=np.float64)
            delta = np.abs(printed - oracle)
            if rows == cols:
                np.fill_diagonal(delta, 0.0)
            domains.append(ClauseDomain(label, printed, oracle, float(delta.max())))
        if len(domains) > 1:
            note += ": " + ", ".join(
                f"{d.label} delta "
                + ("< 1e-9" if d.max_delta < 1e-9 else f"{d.max_delta:.3e}")
                for d in domains)
        clauses.append(AuditClause(cid, tuple(domains),
                                   max(d.max_delta for d in domains), note))
    return AuditReport(clauses=tuple(clauses))
