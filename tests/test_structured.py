"""Structured {1}-inverse engine: golden values, laws, oracle agreement."""

import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction as F

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import kirchlab
from kirchlab import graph
from kirchlab.graph import DisconnectedGraphError, Graph, incidence_split, laplacian
from kirchlab.oracle import oracle_kirchhoff, oracle_resistance_matrix
from kirchlab.structured import (
    build_structured_inverse,
    kirchhoff,
    pair_resistances,
    path_chain_inverse,
    resistance,
    resistance_matrix,
)
from kirchlab.transforms import (
    TransformKind,
    VertexClass,
    VertexRole,
    apply_transform,
    class_slices,
    flat_id,
    original,
    path1,
    path2,
    path3,
    slot_edge,
)

QUAD = TransformKind.QUADRILATERAL
PENT = TransformKind.PENTAGONAL
PATH_ROLES = (VertexRole.PATH1, VertexRole.PATH2, VertexRole.PATH3)


def k2():
    return Graph(2, ((0, 1),))


def p3():
    return Graph(3, ((0, 1), (1, 2)))


def random_connected(rng, n, extra=0.3):
    order = list(range(n))
    rng.shuffle(order)
    edges = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra:
                edges.add((u, v))
    return Graph(n, tuple(sorted(edges)))


def random_connected_sized(rng, n, m):
    """Random spanning tree plus uniform extra edges, m edges in all."""
    edges = set(random_connected(rng, n, extra=0.0).edges)
    while len(edges) < m:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph(n, tuple(sorted(edges)))


# -------------------------------------------------------------- golden values


def test_top_left_block_k2():
    x = build_structured_inverse(k2(), QUAD)
    expected = [[3.0 / 16.0, -3.0 / 16.0], [-3.0 / 16.0, 3.0 / 16.0]]
    assert np.allclose(x.kind.resistance_scale * x.lg_sharp, expected, atol=1e-14)
    assert np.allclose(x.full[:2, :2], expected, atol=1e-14)

    xp = build_structured_inverse(k2(), PENT)
    assert np.allclose(xp.full[:2, :2], [[0.2, -0.2], [-0.2, 0.2]], atol=1e-14)


def test_engine_in_the_papers_notation():
    # edge_weights(n, tail, head, a, b) is a B1 + b B2 of the incidence split,
    # and the top rows of X are s L^# [I | a_1 B1 + b_1 B2 | ... | a_k B1 + b_k B2]
    assert QUAD.path_weights == (1 / 3, 2 / 3)
    assert PENT.path_weights == (0.25, 0.5, 0.75)
    assert "edge_weights" not in kirchlab.__all__
    rng = random.Random(2020)
    for _ in range(12):
        g = random_connected(rng, rng.randint(2, 10))
        split = incidence_split(g)
        assert split.b1.dtype == split.b2.dtype == np.int64
        for kind in (QUAD, PENT):
            x = build_structured_inverse(g, kind)
            tail, head = x.tail, x.head
            a, b = rng.random(), rng.random()
            w = graph.edge_weights(g.n, tail, head, a, b)
            assert np.array_equal(w, a * split.b1 + b * split.b2)
            top = x.full[: g.n]
            slots = class_slices(kind, g.n, g.m)[1:]
            assert len(slots) == len(kind.path_weights) == kind.path_vertices
            for (_, sl), bj in zip(slots, kind.path_weights):
                p_j = graph.edge_weights(g.n, tail, head, 1 - bj, bj)
                want = kind.resistance_scale * x.lg_sharp @ p_j
                assert np.abs(top[:, sl] - want).max() <= 1e-14


def test_path1_diagonal_entry_k2():
    # hand block arithmetic: 2/3 + 1/48 = 33/48
    x = build_structured_inverse(k2(), QUAD)
    assert abs(x.full[2, 2] - 33.0 / 48.0) <= 1e-13


def test_all_ones_sum_k2():
    # corners vanish (L^# annihilates the all-ones vector); middle blocks
    # give (2/3+1/48)+(1/3-1/48)+(1/3-1/48)+(2/3+1/48) = 2
    x = build_structured_inverse(k2(), QUAD)
    assert abs(x.full.sum() - 2.0) <= 1e-12


def test_resistance_original_pair():
    # series-parallel: paths of lengths 1 and 3 in parallel give 3/4,
    # lengths 1 and 4 give 4/5
    xq = build_structured_inverse(k2(), QUAD)
    assert abs(resistance(xq, original(0), original(1)) - 0.75) <= 1e-12
    xw = build_structured_inverse(k2(), PENT)
    assert abs(resistance(xw, original(0), original(1)) - 0.8) <= 1e-12


def test_resistance_adjacent_path_vertex():
    # Q(K2) is a 4-cycle, every adjacent pair has r = 3/4
    x = build_structured_inverse(k2(), QUAD)
    assert abs(resistance(x, original(0), path1(0)) - 0.75) <= 1e-12
    # antipodal pairs of the 4-cycle have r = 1
    assert abs(resistance(x, original(0), path2(0)) - 1.0) <= 1e-12
    assert abs(resistance(x, original(1), path1(0)) - 1.0) <= 1e-12


def test_resistance_self_is_zero():
    x = build_structured_inverse(p3(), QUAD)
    assert resistance(x, path2(1), path2(1)) == 0.0


def test_kirchhoff_golden():
    # cycle formula n(n^2-1)/12: Kf(C4) = 5, Kf(C5) = 10
    assert abs(kirchhoff(build_structured_inverse(k2(), QUAD)) - 5.0) <= 1e-9
    assert abs(kirchhoff(build_structured_inverse(k2(), PENT)) - 10.0) <= 1e-9
    # Q(P3): two 4-cycles glued at a cut vertex c; Kf = 5 + 5 + sum over
    # cross pairs of r(a,c)+r(c,b) = 10 + 2 * 3 * (3/4 + 1 + 3/4) = 25
    assert abs(kirchhoff(build_structured_inverse(p3(), QUAD)) - 25.0) <= 1e-8


# ----------------------------------------------------------------------- laws


def test_schur_complement_is_scaled_laplacian():
    # A - B D^{-1} B^T collapses to (4/3) L resp. (5/4) L; the engine's
    # shortcut H^# = scale * L^# relies on exactly this
    rng = random.Random(271)
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 9))
        lap_g = laplacian(g)
        for kind, factor in ((QUAD, 4.0 / 3.0), (PENT, 5.0 / 4.0)):
            tl = laplacian(apply_transform(g, kind))
            n = g.n
            a = tl[:n, :n]
            b = tl[:n, n:]
            d = tl[n:, n:]
            schur = a - b @ np.linalg.inv(d) @ b.T
            assert np.abs(schur - factor * lap_g).max() <= 1e-10


def test_one_inverse_law_on_corpus():
    rng = random.Random(99)
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 9))
        for kind in (QUAD, PENT):
            x = build_structured_inverse(g, kind)
            tl = laplacian(apply_transform(g, kind))
            assert np.abs(tl @ x.full @ tl - tl).max() <= 1e-10
            assert np.abs(x.full - x.full.T).max() <= 1e-12


def test_original_pair_scaling_law():
    rng = random.Random(1213)
    for _ in range(25):
        g = random_connected(rng, rng.randint(2, 9))
        r_g = oracle_resistance_matrix(g)
        for kind in (QUAD, PENT):
            x = build_structured_inverse(g, kind)
            r_t = resistance_matrix(x)
            assert (
                np.abs(r_t[: g.n, : g.n] - kind.resistance_scale * r_g).max() <= 1e-9
            )


def test_matches_oracle_on_corpus():
    rng = random.Random(31)
    for _ in range(20):
        g = random_connected(rng, rng.randint(2, 8))
        for kind in (QUAD, PENT):
            x = build_structured_inverse(g, kind)
            tg = apply_transform(g, kind)
            assert np.abs(resistance_matrix(x) - oracle_resistance_matrix(tg)).max() <= 1e-8


def test_kirchhoff_equals_pair_sum():
    rng = random.Random(407)
    for _ in range(10):
        g = random_connected(rng, rng.randint(2, 8))
        for kind in (QUAD, PENT):
            x = build_structured_inverse(g, kind)
            r = resistance_matrix(x)
            assert abs(kirchhoff(x) - r.sum() / 2.0) <= 1e-8


def test_resistance_matrix_properties():
    rng = random.Random(1660)
    for _ in range(10):
        g = random_connected(rng, rng.randint(2, 8))
        for kind in (QUAD, PENT):
            r = resistance_matrix(build_structured_inverse(g, kind))
            assert np.abs(r - r.T).max() <= 1e-9
            assert np.abs(np.diag(r)).max() <= 1e-9
            assert r.min() >= -1e-9
            for j in range(r.shape[0]):
                assert (r <= r[:, j, None] + r[None, j, :] + 1e-9).all()


def test_resistance_matrix_is_exactly_symmetric_at_size():
    # resist writes whole rows, so an entry and its mirror are printed from
    # separate values: they must be bit-equal for the output to be symmetric
    rng = random.Random(322)
    for n, m in ((46, 138), (40, 130)):
        g = random_connected_sized(rng, n, m)
        for kind in (QUAD, PENT):
            r = resistance_matrix(build_structured_inverse(g, kind))
            assert r.shape[0] >= 300
            assert np.array_equal(r, r.T)
            assert (np.diag(r) == 0.0).all()


def complete_graph(n):
    return Graph(n, tuple(itertools.combinations(range(n), 2)))


def test_resistance_obeys_the_rayleigh_lower_bound():
    # shorting every vertex of T but u leaves d_u parallel unit edges, so
    # r_uv >= max(1/d_u, 1/d_v): resist prints no resistance below 1e-4
    # unless two vertices of T have degree over 10^4
    rng = random.Random(2311)
    graphs = [random_connected(rng, rng.randint(2, 12), rng.choice((0.1, 0.3, 0.6)))
              for _ in range(30)]
    graphs += [complete_graph(n) for n in range(2, 10)]
    for g in graphs:
        for kind in (QUAD, PENT):
            r = resistance_matrix(build_structured_inverse(g, kind))
            inv_d = 1.0 / apply_transform(g, kind).degrees()
            bound = np.maximum(inv_d[:, None], inv_d[None, :])
            off = ~np.eye(r.shape[0], dtype=bool)
            assert (r[off] >= bound[off]).all()


# (n, m) with N = n + km from 210 (quad) to 460 (pent)
RESIST_SIZES = ((30, 90), (38, 114), (46, 138))


def test_resistance_matrix_matches_full_at_size():
    rng = random.Random(4230)
    for n, m in RESIST_SIZES:
        g = random_connected_sized(rng, n, m)
        for kind in (QUAD, PENT):
            x = build_structured_inverse(g, kind)
            full = x.full
            d = np.diag(full)
            ref = d[:, None] + d[None, :] - (full + full.T)
            r = resistance_matrix(x)
            assert 210 <= r.shape[0] <= 460
            assert (np.abs(r - ref) <= 1e-12 * np.abs(ref)).all()


def one_array_bound(n, big):
    """Peak bytes of building the N x N resistance matrix: X, overwritten by
    the result; P, P^T L^# and their copies (at most 32 n N); and two panels
    of 64 rows."""
    return 8 * big**2 + 32 * n * big + 16 * 64 * big


def test_resistance_matrix_holds_one_n_by_n_array():
    rng = random.Random(4231)
    for n, m in RESIST_SIZES:
        g = random_connected_sized(rng, n, m)
        for kind in (QUAD, PENT):
            x = build_structured_inverse(g, kind)
            big = x.total_vertices
            tracemalloc.start()
            try:
                resistance_matrix(x)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= one_array_bound(n, big)


def test_orientation_reversal_invariance():
    # relabeling with k -> n-1-k swaps every edge's tail and head; original
    # resistances must be unchanged and path classes mirror accordingly
    rng = random.Random(228)
    for _ in range(10):
        g = random_connected(rng, rng.randint(2, 7))
        n = g.n
        rev = Graph(n, tuple((n - 1 - u, n - 1 - v) for u, v in g.edges))
        for kind in (QUAD, PENT):
            x = build_structured_inverse(g, kind)
            xr = build_structured_inverse(rev, kind)
            assert abs(kirchhoff(x) - kirchhoff(xr)) <= 1e-8
            for i in range(n):
                for j in range(n):
                    a = resistance(x, original(i), original(j))
                    b = resistance(xr, original(n - 1 - i), original(n - 1 - j))
                    assert abs(a - b) <= 1e-9
            mirror = path2 if kind is QUAD else path3
            for e in range(g.m):
                for i in range(n):
                    a = resistance(x, original(i), path1(e))
                    b = resistance(xr, original(n - 1 - i), mirror(e))
                    assert abs(a - b) <= 1e-9


def test_path_chain_inverse_closed_form():
    for k in (2, 3):
        chain = 2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)
        assert np.abs(path_chain_inverse(k) - np.linalg.inv(chain)).max() <= 1e-15


def test_resistance_matches_matrix_for_every_class_pair():
    rng = random.Random(5150)
    for _ in range(6):
        g = random_connected(rng, rng.randint(2, 6))
        for kind in (QUAD, PENT):
            x = build_structured_inverse(g, kind)
            r = resistance_matrix(x)
            slot, edge = slot_edge(np.arange(r.shape[0]), g.n, g.m, kind)
            vertices = [original(i) if j < 0 else VertexClass(PATH_ROLES[j], e)
                        for i, (j, e) in enumerate(zip(slot.tolist(), edge.tolist()))]
            for a, va in enumerate(vertices):
                for b, vb in enumerate(vertices):
                    assert abs(resistance(x, va, vb) - r[a, b]) <= 1e-12


def test_kirchhoff_matches_oracle_at_benchmark_size():
    g = random_connected_sized(random.Random(60), 60, 200)
    got = kirchhoff(build_structured_inverse(g, PENT))
    ref = oracle_kirchhoff(apply_transform(g, PENT))
    assert abs(got - ref) <= 1e-12 * ref


def degree_kirchhoff_indices(g):
    """Kf, R+ = sum over i < j of (d_i + d_j) r_ij and R* = that of d_i d_j r_ij."""
    r = oracle_resistance_matrix(g)
    d = g.degrees().astype(np.float64)
    weights = (1.0, d[:, None] + d[None, :], np.outer(d, d))
    return tuple(float((w * r).sum()) / 2.0 for w in weights)


def kf_closed_form(kind, n, m, kf, r_plus, r_star):
    """Kf(T) from Kf, R+ and R* of G (README); exact for exact inputs."""
    if kind is QUAD:
        return (
            F(3, 4) * (kf + r_plus + r_star)
            + F(8, 3) * m**2 + F(2, 3) * m * n - F(4, 3) * m - F(1, 3) * (n**2 - n)
        )
    return (
        F(4, 5) * kf + F(6, 5) * r_plus + F(9, 5) * r_star
        + F(15, 2) * m**2 + m * n - F(7, 2) * m - F(1, 2) * (n**2 - n)
    )


def test_kirchhoff_closed_forms_in_degree_kirchhoff_indices():
    assert kf_closed_form(QUAD, 2, 1, 1, 2, 1) == 5
    assert kf_closed_form(PENT, 2, 1, 1, 2, 1) == 10
    rng = random.Random(2304)
    for _ in range(24):
        g = random_connected(rng, rng.randint(2, 12))
        for kind in (QUAD, PENT):
            ref = oracle_kirchhoff(apply_transform(g, kind))
            closed_form = kf_closed_form(kind, g.n, g.m, *degree_kirchhoff_indices(g))
            assert abs(closed_form - ref) <= 1e-12 * ref
            got = kirchhoff(build_structured_inverse(g, kind))
            assert abs(got - ref) <= 1e-12 * ref


def path_degree_kirchhoff_indices(n):
    """Exact Kf, R+ and R* of the path P_n, whose r_ij is |i - j|, from int64
    sums: R+ = sum_i d_i sum_j |i - j| and 2 R* = sum_i d_i sum_j |i - j| d_j."""
    ids = np.arange(n, dtype=np.int64)
    d = np.full(n, 2, dtype=np.int64)
    d[[0, -1]] = 1
    r_plus = r_star2 = 0
    for i in range(n):
        row = np.abs(ids - i)
        r_plus += int(d[i] * row.sum())
        r_star2 += int(d[i] * (row @ d))
    return F(n**3 - n, 6), F(r_plus), F(r_star2, 2)


def path_and_cycle(n):
    """(graph, exact (Kf, R+, R*)) of P_n, then of C_n.  Kf(P_n) = (n^3 - n)/6;
    C_n is 2-regular with Kf = (n^3 - n)/12, so R+ = R* = 4 Kf."""
    path = tuple((i, i + 1) for i in range(n - 1))
    cycle_kf = F(n**3 - n, 12)
    return (
        (Graph(n, path), path_degree_kirchhoff_indices(n)),
        (Graph(n, path + ((0, n - 1),)), (cycle_kf, 4 * cycle_kf, 4 * cycle_kf)),
    )


@pytest.mark.parametrize("n", [100, 1000, 2000])
def test_kirchhoff_matches_exact_paths_and_cycles(n):
    # a loose bound that holds even for an L# route whose error grows like
    # cond(L), about 4n^2/pi^2 on a path
    for g, invariants in path_and_cycle(n):
        for kind in (QUAD, PENT):
            exact = kf_closed_form(kind, g.n, g.m, *invariants)
            got = kirchhoff(build_structured_inverse(g, kind))
            assert abs(F(got) - exact) <= F(1, 10**9) * exact


@pytest.mark.parametrize("n", [100, 1000, 2000])
def test_kirchhoff_of_paths_and_cycles_at_rounding_level(n):
    # L# from the grounded Laplacian: errors up to 2.1e-16 on P_n and 1.3e-13
    # on C_2000 (README)
    for (g, invariants), rtol in zip(path_and_cycle(n), (F(1, 10**14), F(1, 10**12))):
        for kind in (QUAD, PENT):
            exact = kf_closed_form(kind, g.n, g.m, *invariants)
            got = kirchhoff(build_structured_inverse(g, kind))
            assert abs(F(got) - exact) <= rtol * exact


# (graph, (Kf, R+, R*) of it): K_n has r_ij = 2/n, and the star S_n (centre 0,
# n - 1 leaves) has r = 1 from the centre and 2 between leaves
FAMILIES = {
    "K": (complete_graph, lambda n: (n - 1, 2 * (n - 1) ** 2, (n - 1) ** 3)),
    "S": (lambda n: Graph(n, tuple((0, v) for v in range(1, n))),
          lambda n: ((n - 1) ** 2, (n - 1) * (3 * n - 4), (n - 1) * (2 * n - 3))),
}


@pytest.mark.parametrize("family, n", [("K", n) for n in (2, 3, 10, 50, 200, 400)]
                         + [("S", n) for n in (2, 3, 10, 100, 1000)])
def test_kirchhoff_matches_exact_complete_graphs_and_stars(family, n):
    make, exact_invariants = FAMILIES[family]
    g, invariants = make(n), exact_invariants(n)
    if n <= 10:
        assert np.allclose(degree_kirchhoff_indices(g), invariants, rtol=1e-12, atol=0)
    for kind in (QUAD, PENT):
        exact = kf_closed_form(kind, g.n, g.m, *map(F, invariants))
        got = kirchhoff(build_structured_inverse(g, kind))
        assert abs(F(got) - exact) <= F(1, 10**12) * exact


def test_kirchhoff_allocates_factor_sized_memory_only():
    # build + kirchhoff hold L# and a few n x n temporaries, never an N x N X
    g = random_connected_sized(random.Random(61), 60, 200)
    big = PENT.vertex_count(g.n, g.m) ** 2 * 8
    tracemalloc.start()
    try:
        kirchhoff(build_structured_inverse(g, PENT))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * (8 * g.n**2 + 64 * g.m) < big / 10


def test_foster_theorem_beyond_oracle_size():
    # Foster: the resistances over the edges of a connected graph on N
    # vertices sum to N - 1
    g = random_connected_sized(random.Random(400), 400, 2000)
    x = build_structured_inverse(g, PENT)
    t = apply_transform(g, PENT)
    tail, head = np.array(t.edges).T
    total = pair_resistances(x, tail, head).sum()
    assert abs(total - (t.n - 1)) <= 1e-9 * t.n


def reference_resistance(x, i, j):
    """The scalar resistance before the column table, kept as the reference:
    X entries from (tail, head, head weight, slot, edge) tuples."""

    def column(c):
        if flat_id(c, x.n, x.m, x.kind) < x.n:
            return c.index, c.index, 0.0, -1, -1
        slot, e = PATH_ROLES.index(c.role), c.index
        return int(x.tail[e]), int(x.head[e]), x.kind.path_weights[slot], slot, e

    def entry(a, b):
        (ua, va, wa, sa, ea), (ub, vb, wb, sb, eb) = a, b
        ls = x.lg_sharp
        value = x.kind.resistance_scale * (
            (1.0 - wa) * ((1.0 - wb) * ls[ua, ub] + wb * ls[ua, vb])
            + wa * ((1.0 - wb) * ls[va, ub] + wb * ls[va, vb])
        )
        if ea == eb >= 0:
            value += path_chain_inverse(x.kind.path_vertices)[sa, sb]
        return float(value)

    a, b = column(i), column(j)
    return entry(a, a) + entry(b, b) - 2.0 * entry(a, b)


def test_resistance_is_bit_identical_to_the_scalar_reference():
    rng = random.Random(5151)
    for _ in range(8):
        g = random_connected(rng, rng.randint(2, 7))
        for kind in (QUAD, PENT):
            x = build_structured_inverse(g, kind)
            slot, edge = slot_edge(np.arange(x.total_vertices), g.n, g.m, kind)
            vertices = [original(i) if j < 0 else VertexClass(PATH_ROLES[j], e)
                        for i, (j, e) in enumerate(zip(slot.tolist(), edge.tolist()))]
            for a in vertices:
                for b in rng.sample(vertices, min(len(vertices), 12)):
                    got, want = resistance(x, a, b), reference_resistance(x, a, b)
                    assert np.float64(got).tobytes() == np.float64(want).tobytes()


# ----------------------------------------------------------------- properties


@st.composite
def connected_graphs(draw, n_max=10):
    """A connected graph on at most ``n_max`` vertices: a random tree plus
    extra edges, in drawn order."""
    n = draw(st.integers(2, n_max))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    rest = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if rest:
        edges |= set(draw(st.lists(st.sampled_from(rest), unique=True, max_size=12)))
    return Graph(n, tuple(draw(st.permutations(sorted(edges)))))


def path_ids(g, edge, slot):
    """Flat ids of path vertices ``slot`` of the factor edges ``edge``."""
    return g.n + slot * g.m + edge


def assert_same_engine(x, y, order):
    """y is x with its flat ids renamed: y's vertex i is x's vertex order[i]."""
    assert kirchhoff(y) == pytest.approx(kirchhoff(x), rel=1e-12)
    r = resistance_matrix(x)[np.ix_(order, order)]
    assert (np.abs(resistance_matrix(y) - r) <= 1e-12 * r.max()).all()


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@PROPERTY
@given(connected_graphs(), st.sampled_from([QUAD, PENT]), st.randoms(use_true_random=False))
def test_invariant_under_edge_reordering(g, kind, rnd):
    perm = list(range(g.m))
    rnd.shuffle(perm)
    h = Graph(g.n, tuple(g.edges[e] for e in perm))
    order = np.concatenate([np.arange(g.n), *(
        path_ids(g, np.array(perm), j) for j in range(kind.path_vertices))])
    assert_same_engine(build_structured_inverse(g, kind), build_structured_inverse(h, kind), order)


@PROPERTY
@given(connected_graphs(), st.sampled_from([QUAD, PENT]), st.randoms(use_true_random=False))
def test_invariant_under_tail_head_flip(g, kind, rnd):
    # the detour of a flipped edge is walked from the other end
    x = build_structured_inverse(g, kind)
    flip = np.array([rnd.random() < 0.5 for _ in range(g.m)], dtype=bool)
    y = dataclasses.replace(x, tail=np.where(flip, x.head, x.tail),
                            head=np.where(flip, x.tail, x.head))
    k, edge = kind.path_vertices, np.arange(g.m)
    order = np.concatenate([np.arange(g.n), *(
        path_ids(g, edge, np.where(flip, k - 1 - j, j)) for j in range(k))])
    assert_same_engine(x, y, order)


@PROPERTY
@given(connected_graphs(), st.sampled_from([QUAD, PENT]), st.randoms(use_true_random=False))
def test_invariant_under_vertex_relabelling(g, kind, rnd):
    sigma = list(range(g.n))
    rnd.shuffle(sigma)
    h = Graph(g.n, tuple((sigma[u], sigma[v]) for u, v in g.edges))
    # Graph puts the smaller label first, so some edges change orientation
    flip = np.array([sigma[u] > sigma[v] for u, v in g.edges], dtype=bool)
    k, edge = kind.path_vertices, np.arange(g.m)
    order = np.concatenate([np.argsort(sigma), *(
        path_ids(g, edge, np.where(flip, k - 1 - j, j)) for j in range(k))])
    assert_same_engine(build_structured_inverse(g, kind), build_structured_inverse(h, kind), order)


@PROPERTY
@given(connected_graphs(), st.sampled_from([QUAD, PENT]))
def test_foster_theorem_on_the_resistance_matrix(g, kind):
    # Foster: the resistances over the edges of the transform sum to N - 1
    t = apply_transform(g, kind)
    tail, head = np.array(t.edges).T
    r = resistance_matrix(build_structured_inverse(g, kind))
    assert r[tail, head].sum() == pytest.approx(t.n - 1, rel=1e-12, abs=0.0)


@PROPERTY
@given(connected_graphs(n_max=12), st.sampled_from([QUAD, PENT]))
def test_pair_kernel_matches_the_resistance_matrix(g, kind):
    x = build_structured_inverse(g, kind)
    r = resistance_matrix(x)
    i, j = np.indices(r.shape)
    got = pair_resistances(x, i.ravel(), j.ravel()).reshape(r.shape)
    assert (np.abs(got - r) <= 1e-14 * np.abs(r).max()).all()


# --------------------------------------------------------------------- errors


def test_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        build_structured_inverse(Graph(4, ((0, 1), (2, 3))), QUAD)


def test_rejects_edgeless():
    with pytest.raises(ValueError):
        build_structured_inverse(Graph(1, ()), QUAD)


def test_rejects_path3_for_quadrilateral():
    x = build_structured_inverse(k2(), QUAD)
    with pytest.raises(ValueError):
        resistance(x, original(0), path3(0))


def test_pair_kernel_rejects_ids_outside_x():
    x = build_structured_inverse(k2(), QUAD)
    for bad in (-1, x.total_vertices):
        with pytest.raises(ValueError, match="out of range"):
            pair_resistances(x, [0, bad], [1, 1])
    none = np.zeros(0, dtype=np.int64)
    assert pair_resistances(x, none, none).shape == (0,)


def test_full_matrix_is_read_only():
    x = build_structured_inverse(k2(), QUAD)
    with pytest.raises(ValueError):
        x.full[0, 0] = 7.0
