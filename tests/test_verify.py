"""Corpus generator, structured-vs-oracle comparison, clause audit."""

import numpy as np
import pytest

from kirchlab import verify
from kirchlab.graph import Graph, is_connected
from kirchlab.transforms import TransformKind
from kirchlab.verify import (
    GenerationBudgetError,
    SplitMix64,
    audit_theorems,
    compare,
    random_connected_graph,
    run_corpus,
)

QUAD = TransformKind.QUADRILATERAL
PENT = TransformKind.PENTAGONAL


def k2():
    return Graph(2, ((0, 1),))


def p3():
    return Graph(3, ((0, 1), (1, 2)))


# ------------------------------------------------------------------ generator


def test_splitmix64_reference_vectors():
    # canonical outputs of the reference mixer
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    rng = SplitMix64(1234567)
    assert [rng.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_splitmix64_floats():
    rng = SplitMix64(0)
    first = rng.next_float()
    assert first == (0xE220A8397B1DCDAF >> 11) * 2.0**-53
    assert abs(first - 0.8833108082136426) <= 1e-16
    vals = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)


def test_random_connected_graph_deterministic():
    a = random_connected_graph(8, 0.4, 42)
    b = random_connected_graph(8, 0.4, 42)
    assert a == b
    assert is_connected(a)
    c = random_connected_graph(8, 0.4, 43)
    assert c != a


def test_random_connected_graph_p1_is_complete():
    g = random_connected_graph(5, 1.0, 9)
    assert g.m == 10
    g = random_connected_graph(2, 1.0, 0)
    assert g == k2()


def test_random_connected_graph_always_connected():
    for seed in range(30):
        assert is_connected(random_connected_graph(7, 0.3, seed))


def test_random_connected_graph_validation():
    with pytest.raises(ValueError):
        random_connected_graph(1, 0.5, 0)
    with pytest.raises(ValueError):
        random_connected_graph(4, 0.0, 0)
    with pytest.raises(ValueError):
        random_connected_graph(4, 1.5, 0)


def test_random_connected_graph_budget():
    with pytest.raises(GenerationBudgetError):
        random_connected_graph(6, 1e-12, 0)


# -------------------------------------------------------------------- compare


def test_compare_k2_quadrilateral_passes():
    rep = compare(k2(), QUAD)
    assert rep.passed
    assert rep.overall_max <= 1e-10
    assert rep.kirchhoff_delta <= 1e-9
    assert set(rep.class_pair_deltas) == {
        "original-original",
        "original-path1",
        "original-path2",
        "path1-path1",
        "path1-path2",
        "path2-path2",
    }


def test_compare_pentagonal_has_path3_pairs():
    rep = compare(p3(), PENT)
    assert rep.passed
    assert "path3-path3" in rep.class_pair_deltas
    assert "original-path3" in rep.class_pair_deltas
    assert len(rep.class_pair_deltas) == 10


def test_compare_forced_failure():
    rep = compare(k2(), QUAD, tol=-1.0)
    assert not rep.passed


def test_compare_kirchhoff_tolerance_scales_with_the_index():
    # W(P_100): Kf is about 2.2e6 and the oracle's own error is about 2e-6,
    # above tol = 1e-8 but near 1e-12 relative
    path = Graph(100, tuple((i, i + 1) for i in range(99)))
    rep = compare(path, PENT)
    assert rep.passed
    assert rep.kirchhoff_delta > 1e-8
    assert rep.kirchhoff_rel_delta <= 1e-10
    assert rep.as_dict()["deltas"]["kirchhoff_rel"] == rep.kirchhoff_rel_delta


def test_compare_bounds_the_kirchhoff_index_like_each_resistance(monkeypatch):
    # |dKf| <= tol (1 + Kf) with no separate absolute floor: Kf(Q(K2)) = 5,
    # so at tol = 1e-8 the bound is 6e-8
    real = verify.kirchhoff
    for shift, passes in ((5e-8, True), (1e-7, False)):
        monkeypatch.setattr(verify, "kirchhoff", lambda x, shift=shift: real(x) + shift)
        rep = compare(k2(), QUAD)
        assert rep.overall_max <= 1e-12
        assert rep.passed is passes


def test_compare_bounds_each_resistance_relative_to_its_size(monkeypatch):
    # on W(P_140) the end-to-end resistance is 139 * 4/5; an error of 2e-8
    # there is within the oracle's own accuracy, one of 1e-6 relative is not
    path = Graph(140, tuple((i, i + 1) for i in range(139)))
    real = verify.resistance_matrix
    far = real(verify.build_structured_inverse(path, PENT))[0, 139]
    assert far >= 100
    for shift, passes in ((2e-8, True), (1e-6 * far, False)):
        def moved(x, shift=shift):
            r = real(x)
            r[0, 139] += shift
            r[139, 0] += shift
            return r

        monkeypatch.setattr(verify, "resistance_matrix", moved)
        rep = compare(path, PENT)
        assert rep.overall_max >= 0.5 * shift
        assert rep.passed is passes


def test_compare_and_audit_share_one_reference(monkeypatch):
    # the oracle's two pinv calls on the transform are the only ones: the
    # audit evaluates its clauses on the engine's L^# of the factor graph
    orders = []
    real = np.linalg.pinv

    def counted(a, *args, **kwargs):
        orders.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "pinv", counted)
    g = random_connected_graph(7, 0.5, 3)
    for kind in (QUAD, PENT):
        big_n = kind.vertex_count(g.n, g.m)
        for run in (audit_theorems, compare):
            orders.clear()
            run(g, kind)
            assert orders == [big_n, big_n], run.__name__


def test_compare_as_dict_schema():
    d = compare(k2(), QUAD, seed=7).as_dict()
    assert d["graph"] == {"n": 2, "m": 1, "seed": 7}
    assert d["kind"] == "quad"
    assert set(d["deltas"]) == {"class_pairs", "kirchhoff", "kirchhoff_rel", "overall"}
    assert d["pass"] is True


def test_run_corpus_shape_and_determinism():
    reports = run_corpus(4, 6, 0.5, 1234)
    assert len(reports) == 8
    assert [r.kind.value for r in reports] == ["quad", "pent"] * 4
    assert all(r.passed for r in reports)
    assert all(2 <= r.n <= 6 for r in reports)
    again = run_corpus(4, 6, 0.5, 1234)
    assert [r.as_dict() for r in reports] == [r.as_dict() for r in again]


def test_run_corpus_validation():
    with pytest.raises(ValueError):
        run_corpus(0, 6, 0.5, 1)
    with pytest.raises(ValueError):
        run_corpus(2, 1, 0.5, 1)


# ---------------------------------------------------------------------- audit


def test_audit_clause_ids_quadrilateral():
    rep = audit_theorems(k2(), QUAD)
    assert [c.id for c in rep.clauses] == ["3.1.i", "3.1.ii", "3.1.iii", "3.1.iv", "3.1.v"]


def test_audit_clause_ids_pentagonal():
    rep = audit_theorems(k2(), PENT)
    assert [c.id for c in rep.clauses] == [
        "4.1.i",
        "4.1.ii",
        "4.1.iii",
        "4.1.iv",
        "4.1.v",
        "4.1.vi",
        "4.1.vii",
        "4.1.viii",
    ]


def test_audit_is_deterministic():
    a = audit_theorems(p3(), PENT).as_dict()
    b = audit_theorems(p3(), PENT).as_dict()
    assert a == b
    assert all(np.isfinite(c["max_delta"]) for c in a["clauses"])


def test_audit_scaling_clauses_are_exact():
    for g in (k2(), p3()):
        quad = {c.id: c for c in audit_theorems(g, QUAD).clauses}
        pent = {c.id: c for c in audit_theorems(g, PENT).clauses}
        assert quad["3.1.i"].max_delta <= 1e-9
        assert pent["4.1.i"].max_delta <= 1e-9
        # the V x V1 clause matches its derivation as typeset
        assert pent["4.1.ii"].max_delta <= 1e-9


def test_compare_fails_on_kirchhoff_off_by_a_millionth(monkeypatch):
    real = verify.kirchhoff
    monkeypatch.setattr(verify, "kirchhoff", lambda x: real(x) * (1.0 + 1e-6))
    g = random_connected_graph(7, 0.5, 11)
    for kind in (QUAD, PENT):
        report = compare(g, kind)
        assert report.overall_max <= 1e-8
        assert report.kirchhoff_rel_delta == pytest.approx(1e-6, rel=1e-3)
        assert not report.passed


def test_audit_k2_desk_values_quadrilateral():
    clauses = {c.id: c for c in audit_theorems(k2(), QUAD).clauses}
    # on the 4-cycle r(path1, path2) = 3/4; the typeset clause gives
    # 4/3 + 1/48 + 1/48 - (1/3 - 1/48) = 17/16, so the gap is 5/16
    assert abs(clauses["3.1.iii"].max_delta - 0.3125) <= 1e-9
    # typeset index-sum evaluates to -1/2 on K2 while Kf(C4) = 5
    assert abs(clauses["3.1.v"].max_delta - 5.5) <= 1e-9


def test_audit_k2_desk_values_pentagonal():
    clauses = {c.id: c for c in audit_theorems(k2(), PENT).clauses}
    # V x V2 clause reuses the V1 diagonal block; on K2 the gap is 1/20
    assert abs(clauses["4.1.iii"].max_delta - 0.05) <= 1e-9
    # V x V3 clause omits the 3/4 I_m diagonal term
    assert abs(clauses["4.1.iv"].max_delta - 0.75) <= 1e-9
    # single cross term where the resistance identity needs it twice: on K2
    # the cross block vanishes, leaving exactly the 1/2 I_m shortfall
    assert abs(clauses["4.1.vii"].max_delta - 0.5) <= 1e-9
    # typeset index-sum evaluates to 9.7625 on K2 while Kf(C5) = 10
    assert abs(clauses["4.1.viii"].max_delta - 0.2375) <= 1e-9


def test_audit_notes():
    quad = {c.id: c for c in audit_theorems(k2(), QUAD).clauses}
    assert "VxV1" in quad["3.1.ii"].notes and "VxV2" in quad["3.1.ii"].notes
    assert "conformable" in quad["3.1.v"].notes
    pent = {c.id: c for c in audit_theorems(k2(), PENT).clauses}
    assert "conformable" in pent["4.1.viii"].notes
    # a domain that is exact up to rounding prints no rounding noise; one
    # that misses prints its delta to 4 significant digits
    quad = {c.id: c for c in audit_theorems(random_connected_graph(9, 0.45, 1), QUAD).clauses}
    assert quad["3.1.iv"].notes.endswith(": V1xV1 delta < 1e-9, V2xV2 delta 2.777e-01")


def test_audit_domains_recorded():
    clauses = {c.id: c for c in audit_theorems(p3(), QUAD).clauses}
    assert [d.label for d in clauses["3.1.ii"].domains] == ["VxV1", "VxV2"]
    assert [d.label for d in clauses["3.1.iv"].domains] == ["V1xV1", "V2xV2"]
    dom = clauses["3.1.ii"].domains[0]
    assert dom.printed.shape == (3, 2) and dom.oracle.shape == (3, 2)
    assert clauses["3.1.ii"].max_delta == max(d.max_delta for d in clauses["3.1.ii"].domains)


def test_audit_total_clause_count_is_13():
    total = len(audit_theorems(k2(), QUAD).clauses) + len(
        audit_theorems(k2(), PENT).clauses
    )
    assert total == 13


def test_audit_rejects_bad_input():
    with pytest.raises(ValueError):
        audit_theorems(Graph(4, ((0, 1), (2, 3))), QUAD)
    with pytest.raises(ValueError):
        audit_theorems(Graph(1, ()), QUAD)


# every clause's max_delta as the two hand-written audits gave it, before the
# clauses became one table; the table must reproduce each to 1e-10
_PINNED_MAX_DELTAS = {
    "P3": (
        (6.661338147750939e-16, 0.9166666666666672, 0.4166666666666663,
         1.5543122344752192e-15, 19.25),
        (4.440892098500626e-16, 1.1102230246251565e-15, 0.11666666666666825,
         0.7499999999999994, 0.6555555555555519, 0.311111111111112,
         0.6986111111111111, 1.2544444444444025),
    ),
    1: (
        (4.440892098500626e-15, 0.8483088045442821, 0.5802493043004269,
         0.27769171185127584, 791.5510801273782),
        (1.7763568394002505e-15, 4.884981308350689e-15, 0.10428608313968613,
         0.7500000000000011, 0.6082900612980668, 0.4931945759340537,
         0.8822613344043748, 42.57325931663627),
    ),
    2: (
        (7.771561172376096e-16, 0.8216564137616775, 0.46446292498924047,
         0.22131322624743577, 1205.6975108225106),
        (1.4432899320127035e-15, 4.218847493575595e-15, 0.09025214551530336,
         0.7500000000000019, 0.5769242128891308, 0.3726504814224123,
         0.6780481295832186, 47.76160487498328),
    ),
}


@pytest.mark.parametrize("graph", ["P3", 1, 2])
def test_audit_pinned_max_deltas(graph):
    g = p3() if graph == "P3" else random_connected_graph(9, 0.45, graph)
    for kind, pinned in zip((QUAD, PENT), _PINNED_MAX_DELTAS[graph]):
        clauses = audit_theorems(g, kind).clauses
        assert len(clauses) == len(pinned)
        for c, ref in zip(clauses, pinned):
            assert abs(c.max_delta - ref) <= 1e-10, (c.id, c.max_delta, ref)
