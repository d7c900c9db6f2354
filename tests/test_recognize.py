"""Exact homology, verdicts, shelling search.

The Smith-form engine is checked against two independent oracles:
determinantal divisors (gcd of k x k minors) and rank over the
rationals via Fraction Gauss elimination.
"""

import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from pachner.core import (
    BudgetExhaustedError,
    Complex,
    full_simplex,
    is_simplex_boundary,
    simplex_boundary,
    standard_sphere,
)
from pachner.moves import (
    Transcript,
    apply_move,
    apply_transcript,
    derived_subdivision,
    dumps_transcript,
)
from pachner.recognize import (
    BALL,
    HomologyProfile,
    MANIFOLD,
    NOT_MANIFOLD,
    OTHER,
    SPHERE,
    ShellingSequence,
    UNKNOWN,
    _invariant_factors,
    boundary_matrix,
    find_shelling,
    homology,
    is_closed_pseudomanifold,
    recognize_ball_or_sphere,
    replay_shelling,
    smith_normal_form,
    verify_combinatorial_manifold,
)
from conftest import csaszar_torus, pinched_complex, shellable_ball_fixtures
from walk import seeded_walk


# -- Smith normal form oracles -----------------------------------------


def det_int(rows):
    """Exact integer determinant by cofactor expansion (small k only)."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    total = 0
    for j in range(k):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            total += (-1) ** j * rows[0][j] * det_int(minor)
    return total


def minor_gcd_factors(rows):
    """Invariant factors via determinantal divisors: d_k = gcd of all
    k x k minors, f_k = d_k / d_{k-1}."""
    m, n = len(rows), len(rows[0]) if rows else 0
    factors = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for ri in itertools.combinations(range(m), k):
            for ci in itertools.combinations(range(n), k):
                sub = [[rows[i][j] for j in ci] for i in ri]
                g = math.gcd(g, det_int(sub))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return factors


def rank_over_rationals(rows):
    A = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    cols = len(A[0]) if A else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(A)) if A[i][c]), None)
        if pivot is None:
            continue
        A[rank], A[pivot] = A[pivot], A[rank]
        for i in range(len(A)):
            if i != rank and A[i][c]:
                f = A[i][c] / A[rank][c]
                A[i] = [a - f * b for a, b in zip(A[i], A[rank])]
        rank += 1
    return rank


def test_smith_form_hand_cases():
    assert smith_normal_form([]) == []
    assert smith_normal_form([[0, 0]]) == []
    assert smith_normal_form([[1]]) == [1]
    assert smith_normal_form([[-2]]) == [2]
    # gcd of entries 2, |det| = 24, so factors (2, 12)
    assert smith_normal_form([[4, 0], [0, 6]]) == [2, 12]
    # d1 = 1, |det| = 2
    assert smith_normal_form([[1, 2], [3, 4]]) == [1, 2]


def test_smith_form_against_minor_gcd_oracle():
    rng = random.Random(991)
    for _ in range(60):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(m)]
        got = smith_normal_form([r[:] for r in rows])
        assert got == minor_gcd_factors(rows), rows
        assert len(got) == rank_over_rationals(rows), rows
        for a, b in zip(got, got[1:]):
            assert b % a == 0, rows


def test_boundary_matrix_of_an_edge():
    K = full_simplex([0, 1])
    # rows ordered by sorted vertex list; d(01) = (1) - (0)
    assert boundary_matrix(K, 1) == [[-1], [1]]


# -- homology ----------------------------------------------------------


def rp2_six_vertices():
    """Minimal 6-vertex projective plane (all 15 pairs are edges)."""
    return Complex.from_facets([
        (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
        (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
    ])


def test_homology_frozen_values(sphere3, torus7):
    assert homology(sphere3) == HomologyProfile(
        (1, 0, 0, 1), ((), (), (), ()))
    assert homology(full_simplex([0, 1, 2, 3])) == HomologyProfile(
        (1, 0, 0, 0), ((), (), (), ()))
    square = simplex_boundary([0, 1]).join(simplex_boundary([2, 3]))
    assert homology(square) == HomologyProfile((1, 1), ((), ()))
    assert homology(torus7) == HomologyProfile((1, 2, 1), ((), (), ()))


def test_homology_projective_plane_torsion():
    rp2 = rp2_six_vertices()
    assert rp2.f_vector().counts == (6, 15, 10)
    assert rp2.f_vector().euler == 1
    assert is_closed_pseudomanifold(rp2)
    assert homology(rp2) == HomologyProfile((1, 0, 0), ((), (2,), ()))


def test_homology_edge_cases():
    assert homology(Complex.from_facets([])) == HomologyProfile((), ())
    assert homology(full_simplex([5])) == HomologyProfile((1,), ((),))
    two_circles = Complex.from_facets(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert homology(two_circles) == HomologyProfile((2, 2), ((), ()))


def dense_homology(K):
    """The oracle: dense boundary matrices, each reduced by Smith form."""
    n = K.dim
    ranks = [0] * (n + 2)
    torsion = [()] * (n + 1)
    for k in range(1, n + 1):
        factors = smith_normal_form(boundary_matrix(K, k))
        ranks[k] = len(factors)
        torsion[k - 1] = tuple(f for f in factors if f > 1)
    return HomologyProfile(
        tuple(len(K.faces_of_dim(k)) - ranks[k] - ranks[k + 1]
              for k in range(n + 1)),
        tuple(torsion))


def test_sparse_homology_equals_dense_on_named_complexes(sphere2, torus7):
    sd2 = derived_subdivision(derived_subdivision(sphere2))
    square = simplex_boundary([0, 1]).join(simplex_boundary([2, 3]))
    for K in (rp2_six_vertices(), sd2, torus7, square, pinched_complex(),
              full_simplex([0, 1, 2, 3])):
        assert homology(K) == dense_homology(K), K


def test_sparse_homology_equals_dense_on_criterion_01_walks():
    """Every complex of acceptance criterion 01's walks (seed 1001, 500
    steps, vertex cap 11)."""
    for M in (simplex_boundary(range(4)), simplex_boundary(range(5)),
              csaszar_torus()):
        for _, K in seeded_walk(M, 500, seed=1001, cap=11):
            assert homology(K) == dense_homology(K), K


def test_unit_elimination_leaves_the_rest_to_smith_form():
    # the pivot at (0, 0) leaves [[-2, 0], [0, 3]], whose factors are 1, 6
    rows = {0: {0: 1, 1: 1}, 1: {0: 1, 1: -1}, 2: {2: 3}}
    assert _invariant_factors(rows) == [1, 1, 6]
    rng = random.Random(1213)
    for _ in range(200):
        m, n = rng.randrange(1, 7), rng.randrange(1, 7)
        dense = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 4)) for _ in range(n)]
                 for _ in range(m)]
        sparse = {i: {j: v for j, v in enumerate(r) if v}
                  for i, r in enumerate(dense)}
        assert _invariant_factors(sparse) == smith_normal_form(dense), dense


def test_homology_cell_budget(sphere3):
    with pytest.raises(BudgetExhaustedError):
        homology(sphere3, max_cells=5)


def test_homology_cell_budget_counts_every_nonempty_face(sphere3):
    """The boundary of the 4-simplex has 5 + 10 + 10 + 5 = 30 nonempty
    faces: a cap of 30 admits it, and a cap of 29 refuses it, naming
    all 30."""
    assert homology(sphere3, max_cells=30) == homology(sphere3)
    with pytest.raises(BudgetExhaustedError, match="^30 faces exceed the "
                       "homology cell budget of 29$"):
        homology(sphere3, max_cells=29)


def test_homology_invariant_under_seeded_walks(sphere2, sphere3, torus7):
    for M in (sphere2, sphere3, torus7):
        start = homology(M)
        for _, nxt in seeded_walk(M, 50, seed=424242, cap=11):
            assert homology(nxt) == start


# -- pseudomanifold test -----------------------------------------------


def test_is_closed_pseudomanifold(sphere3, torus7):
    assert is_closed_pseudomanifold(sphere3)
    assert is_closed_pseudomanifold(torus7)
    assert is_closed_pseudomanifold(simplex_boundary([0, 1]))
    assert is_closed_pseudomanifold(
        simplex_boundary([0, 1]).join(simplex_boundary([2, 3])))
    assert not is_closed_pseudomanifold(full_simplex([0, 1, 2]))
    assert not is_closed_pseudomanifold(
        Complex.from_facets([(0, 1, 2), (2, 3, 4)]))
    assert not is_closed_pseudomanifold(
        Complex.from_facets([(0,), (1,), (2,)]))
    assert not is_closed_pseudomanifold(Complex.from_facets([]))
    # two disjoint triangle boundaries: closed but not connected
    assert not is_closed_pseudomanifold(Complex.from_facets(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))


# -- ball/sphere verdicts ----------------------------------------------


def test_recognize_trivial_complexes(sphere2, sphere3):
    v = recognize_ball_or_sphere(sphere2)
    assert v.value == SPHERE and len(v.evidence) == 0
    assert recognize_ball_or_sphere(sphere3).value == SPHERE
    assert recognize_ball_or_sphere(Complex.from_facets([])).value == SPHERE
    assert recognize_ball_or_sphere(full_simplex([7])).value == BALL
    assert recognize_ball_or_sphere(simplex_boundary([0, 1])).value == SPHERE
    assert recognize_ball_or_sphere(
        Complex.from_facets([(0,), (1,), (2,)])).value == OTHER


def test_recognize_graphs():
    path = Complex.from_facets([(0, 1), (1, 2), (2, 3)])
    assert recognize_ball_or_sphere(path).value == BALL
    cycle = Complex.from_facets([(i, (i + 1) % 6) for i in range(6)])
    assert recognize_ball_or_sphere(cycle).value == SPHERE
    two = Complex.from_facets(
        [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert recognize_ball_or_sphere(two).value == OTHER
    wedge = Complex.from_facets(
        [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    assert recognize_ball_or_sphere(wedge).value == OTHER
    lollipop = Complex.from_facets([(0, 1), (1, 2), (0, 2), (0, 3)])
    assert recognize_ball_or_sphere(lollipop).value == OTHER


def test_recognize_surfaces(sphere2, torus7):
    disk = Complex.from_facets([(0, 1, 6), (1, 2, 6), (2, 3, 6),
                                (3, 4, 6), (4, 5, 6), (0, 5, 6)])
    assert recognize_ball_or_sphere(disk).value == BALL
    assert recognize_ball_or_sphere(full_simplex([0, 1, 2])).value == BALL
    assert recognize_ball_or_sphere(torus7).value == OTHER
    assert recognize_ball_or_sphere(rp2_six_vertices()).value == OTHER
    annulus = Complex.from_facets([(0, 1, 3), (1, 3, 4), (1, 2, 4),
                                   (2, 4, 5), (0, 2, 5), (0, 3, 5)])
    assert recognize_ball_or_sphere(annulus).value == OTHER
    # non-pure: a triangle with a dangling edge
    impure = Complex.from_facets([(0, 1, 2), (2, 3)])
    assert recognize_ball_or_sphere(impure).value == OTHER


def _pinched_tetrahedron_and_octahedron():
    octa = simplex_boundary([0, 1]).join(
        simplex_boundary([4, 5])).join(simplex_boundary([6, 7]))
    return Complex.from_facets(
        set(standard_sphere(2).facets) | set(octa.facets))


def test_recognize_rejects_pinched_euler_2_complex():
    """Vertex-connected, every edge in two triangles, chi = 2, yet not
    a sphere: a tetrahedron boundary and an octahedron sharing exactly
    two non-adjacent vertices.  Vertex links must be inspected, not
    just chi.  (The two parts share no edge, so the facet-adjacency
    graph is disconnected and the pseudomanifold test already fails.)"""
    pinched = _pinched_tetrahedron_and_octahedron()
    assert pinched.f_vector().euler == 2
    edge_deg = {}
    for F in pinched.facets:
        for i in range(3):
            e = F[:i] + F[i + 1:]
            edge_deg[e] = edge_deg.get(e, 0) + 1
    assert all(d == 2 for d in edge_deg.values())
    assert not is_closed_pseudomanifold(pinched)
    verdict = recognize_ball_or_sphere(pinched)
    assert verdict.value == OTHER
    assert "link of vertex" in verdict.reason


def _moebius_strip():
    return Complex.from_facets(
        [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 0), (4, 0, 1)])


DIM_LE_2_BRANCHES = [
    ("{-}", lambda: Complex.from_facets([]), SPHERE, "boundary of a point"),
    ("point", lambda: full_simplex([7]), BALL, "a single point"),
    ("two points", lambda: Complex.from_facets([(0,), (3,)]), SPHERE,
     "two points"),
    ("three points", lambda: Complex.from_facets([(0,), (1,), (2,)]), OTHER,
     "3 isolated points"),
    ("dangling edge", lambda: Complex.from_facets([(0, 1, 2), (2, 3)]),
     OTHER, "not pure"),
    ("two triangles", lambda: Complex.from_facets([(0, 1, 2), (3, 4, 5)]),
     OTHER, "not connected"),
    ("cycle", lambda: Complex.from_facets([(i, (i + 1) % 5)
                                           for i in range(5)]),
     SPHERE, "a circle"),
    ("path", lambda: Complex.from_facets([(0, 1), (1, 2), (2, 3)]), BALL,
     "an arc"),
    ("lollipop", lambda: Complex.from_facets([(0, 1), (1, 2), (0, 2), (0, 3)]),
     OTHER, "graph is neither a circle nor an arc"),
    ("three triangles on an edge",
     lambda: Complex.from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
     OTHER, "an edge lies in more than two triangles"),
    ("bowtie", lambda: Complex.from_facets([(0, 1, 2), (0, 3, 4)]), OTHER,
     "the link of vertex 0 is neither a circle nor an arc"),
    ("tetrahedron and octahedron pinched", _pinched_tetrahedron_and_octahedron,
     OTHER, "the link of vertex 0 is neither a circle nor an arc"),
    ("torus7", csaszar_torus, OTHER, "closed surface with chi = 0"),
    ("RP2", rp2_six_vertices, OTHER, "closed surface with chi = 1"),
    ("tetrahedron boundary", lambda: standard_sphere(2), SPHERE,
     "closed surface with chi = 2"),
    ("disk", lambda: Complex.from_facets(
        [(0, 1, 6), (1, 2, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6), (0, 5, 6)]),
     BALL, "surface with chi = 1 and one boundary circle"),
    ("annulus", lambda: Complex.from_facets(
        [(0, 1, 3), (1, 3, 4), (1, 2, 4), (2, 4, 5), (0, 2, 5), (0, 3, 5)]),
     OTHER, "bounded surface that is not a disk"),
    ("Moebius strip", _moebius_strip, OTHER,
     "bounded surface that is not a disk"),
]


@pytest.mark.parametrize("build,value,reason",
                         [case[1:] for case in DIM_LE_2_BRANCHES],
                         ids=[case[0] for case in DIM_LE_2_BRANCHES])
def test_recognize_dim_le_2_pins_value_and_reason(build, value, reason):
    v = recognize_ball_or_sphere(build())
    assert (v.value, v.reason) == (value, reason)
    if value == OTHER:
        assert v.evidence is None


def _reference_shape(G):
    """'cycle', 'path' or None for a complex by the rules of a graph:
    pure of dimension 1, connected, and every vertex in two edges (a
    circle) or in at most two with exactly two in one (an arc)."""
    if G.dim != 1 or not G.is_pure():
        return None
    if not _reference_connected(G.vertices(), G.facets):
        return None
    deg = {v: 0 for v in G.vertices()}
    for e in G.facets:
        for v in e:
            deg[v] += 1
    if all(d == 2 for d in deg.values()):
        return "cycle"
    ones = sum(1 for d in deg.values() if d == 1)
    if ones == 2 and all(d <= 2 for d in deg.values()):
        return "path"
    return None


def _reference_connected(verts, edges):
    reach = {v: {v} for v in verts}
    for u, v in edges:
        if reach[u] is not reach[v]:
            merged = reach[u] | reach[v]
            for w in merged:
                reach[w] = merged
    return len({id(r) for r in reach.values()}) <= 1


def _reference_dim_le_2(K):
    """(value, reason) of a complex of dimension <= 2, link by link: each
    vertex link is built by ``Complex.link`` and given its own shape
    check; chi comes from the f-vector and the rim from the boundary."""
    n = K.dim
    if n == -1:
        return SPHERE, "boundary of a point"
    if not K.is_pure():
        return OTHER, "not pure"
    if n == 0:
        k = len(K.vertices())
        return {1: (BALL, "a single point"), 2: (SPHERE, "two points")}.get(
            k, (OTHER, f"{k} isolated points"))
    if not _reference_connected(K.vertices(), K.faces_of_dim(1)):
        return OTHER, "not connected"
    if n == 1:
        return {"cycle": (SPHERE, "a circle"), "path": (BALL, "an arc")}.get(
            _reference_shape(K), (OTHER, "graph is neither a circle nor an arc"))
    if any(len(K.link(e).facets) > 2 for e in K.faces_of_dim(1)):
        return OTHER, "an edge lies in more than two triangles"
    for v in K.vertices():
        if _reference_shape(K.link((v,))) is None:
            return OTHER, (f"the link of vertex {v} is neither a circle nor "
                           "an arc")
    chi = K.f_vector().euler
    rim = K.boundary()
    if rim.dim < 0:
        if chi == 2:
            return SPHERE, "closed surface with chi = 2"
        return OTHER, f"closed surface with chi = {chi}"
    if chi == 1 and _reference_shape(rim) == "cycle":
        return BALL, "surface with chi = 1 and one boundary circle"
    return OTHER, "bounded surface that is not a disk"


def _evidence_text(ev):
    return dumps_transcript(ev) if isinstance(ev, Transcript) else repr(ev)


def test_recognize_dim_le_2_matches_link_by_link_reference():
    """Every pure 2-complex and every graph on five vertices, as given
    and under a seeded relabelling into range(2n): value, reason and
    evidence equal those of the link-by-link reference, whose yes-verdicts
    carry the evidence of an exactly decided verdict."""
    from pachner.recognize import DEFAULT_SHELLING_BUDGET, _exact_evidence
    rng = random.Random(1414)
    for k in (2, 3):
        cells = list(itertools.combinations(range(5), k))
        for mask in range(1 << len(cells)):
            K = Complex.from_facets(
                [c for i, c in enumerate(cells) if mask >> i & 1])
            vs = K.vertices()
            image = rng.sample(range(2 * len(vs)), len(vs))
            for M in (K, K.relabel(dict(zip(vs, image)))):
                value, reason = _reference_dim_le_2(M)
                ev = (_exact_evidence(M, DEFAULT_SHELLING_BUDGET)
                      if value in (SPHERE, BALL) else None)
                v = recognize_ball_or_sphere(M)
                assert (v.value, v.reason, _evidence_text(v.evidence)) == (
                    value, reason, _evidence_text(ev)), M


def test_recognize_low_dim_sphere_evidence_reduces(sphere2):
    from pachner.moves import derived_subdivision
    sd = derived_subdivision(sphere2)
    v = recognize_ball_or_sphere(sd)
    assert v.value == SPHERE
    assert len(v.evidence) > 0
    end = apply_transcript(sd, v.evidence)
    assert is_simplex_boundary(end)


def test_recognize_dim3_sphere_by_reduction(sphere3):
    from pachner.moves import enumerate_moves
    grown = apply_move(sphere3, enumerate_moves(sphere3, "bistellar")[0])
    v = recognize_ball_or_sphere(grown)
    assert v.value == SPHERE
    # a sphere-mode shelling (initial F) becomes one flip per facet but
    # one, ending at the boundary of F plus a fresh apex
    sh = find_shelling(grown)
    assert len(v.evidence) == len(grown.facets) - 1
    assert (apply_transcript(grown, v.evidence)
            == simplex_boundary(sh.initial + (grown.fresh_vertex(),)))


def test_recognize_dim3_balls():
    tet = full_simplex([0, 1, 2, 3])
    assert recognize_ball_or_sphere(tet).value == BALL
    two = Complex.from_facets([(0, 1, 2, 3), (1, 2, 3, 4)])
    assert recognize_ball_or_sphere(two).value == BALL
    cone = full_simplex([9]).join(
        Complex.from_facets([(0, 1, 6), (1, 2, 6), (2, 3, 6),
                             (3, 4, 6), (4, 5, 6), (0, 5, 6)]))
    assert recognize_ball_or_sphere(cone).value == BALL


def test_pinched_complex_is_no_shellable_ball():
    # ball homology, but its one shelling candidate leaves B in a facet
    K = pinched_complex()
    assert homology(K) == HomologyProfile((1, 0, 0, 0), ((),) * 4)
    assert find_shelling(K) is None
    assert recognize_ball_or_sphere(K).value == UNKNOWN


def test_recognize_never_sphere_on_wrong_homology(torus7):
    susp = simplex_boundary([90, 91]).join(torus7)
    assert susp.dim == 3
    v = recognize_ball_or_sphere(susp, budget=300)
    assert v.value in (OTHER, UNKNOWN)
    assert v.value != SPHERE


def test_recognize_budget_monotone(sphere2):
    from pachner.moves import derived_subdivision
    sd = derived_subdivision(sphere2)
    small = recognize_ball_or_sphere(sd, budget=5)
    large = recognize_ball_or_sphere(sd, budget=5000)
    assert small.value == large.value == SPHERE
    # the verdict is exact; a search out of budget leaves no certificate
    assert small.evidence is None


def test_recognize_runs_no_annealing(sphere2, sphere3, monkeypatch):
    import pachner.flipsearch
    from pachner.moves import derived_subdivision

    def refuse(*args, **kwargs):
        raise AssertionError("recognition called the annealer")

    monkeypatch.setattr(pachner.flipsearch, "reduce", refuse)
    circle = Complex.from_facets([(i, (i + 1) % 6) for i in range(6)])
    for K in (derived_subdivision(sphere3), circle,
              derived_subdivision(sphere2)):
        v = recognize_ball_or_sphere(K)
        assert v.value == SPHERE
        assert is_simplex_boundary(apply_transcript(K, v.evidence))


@pytest.mark.parametrize("outcome", ["none", "budget"])
def test_recognize_failed_shelling_search_is_unknown(sphere3, monkeypatch,
                                                     outcome):
    """No shelling found proves nothing (unshellable spheres exist): a
    closed 3-complex with sphere homology is Unknown, never Other."""
    import pachner.recognize
    from pachner.moves import enumerate_moves

    def search(K, budget):
        if outcome == "budget":
            raise BudgetExhaustedError("out of nodes")
        return None

    grown = apply_move(sphere3, enumerate_moves(sphere3, "bistellar")[0])
    assert not is_simplex_boundary(grown)
    monkeypatch.setattr(pachner.recognize, "find_shelling", search)
    v = recognize_ball_or_sphere(grown)
    assert v.value == UNKNOWN
    assert v.evidence is None
    assert v.reason.endswith({"none": "it has no shelling",
                              "budget": "ran out of its 100000-node budget"}[
                                  outcome])


def test_unknown_reason_tells_no_shelling_from_no_budget():
    """An exhausted search proves that no shelling exists, which a
    budget running out does not; both stay Unknown, since unshellable
    balls and spheres exist."""
    from pachner.moves import derived_subdivision
    v = recognize_ball_or_sphere(pinched_complex())
    assert (v.value, v.reason) == (
        UNKNOWN, "ball homology, but it has no shelling")
    v = recognize_ball_or_sphere(derived_subdivision(standard_sphere(3)),
                                 budget=5)
    assert (v.value, v.reason) == (
        UNKNOWN, "sphere homology, but the shelling search ran out of its "
        "5-node budget")


def test_recognition_shells_past_four_thousand_facets_by_default():
    """Recognition searches within the shell-find default budget, so a
    strip of 4,100 triangles, which needs a node per facet, is a Ball
    whose evidence is a 4,099-step shelling.  Each step is replayed as a
    legal move of a shelling state of the strip (a replay by check_move
    is quadratic in the facet count), and one facet is left."""
    from pachner.moves import Shell, _ShellState
    strip = Complex.from_facets([(i, i + 1, i + 2) for i in range(4100)])
    v = recognize_ball_or_sphere(strip)
    assert v.value == BALL
    assert len(v.evidence) == 4099
    S = _ShellState(strip)
    for mv in v.evidence:
        assert type(mv) is Shell and (mv.A, mv.B) in S.pairs(), mv
        S.remove(tuple(sorted(mv.A + mv.B)))
    assert len(S.facets) == 1


@pytest.mark.parametrize("facets, budget, verdict", [
    ([(0, 1, 2, 3), (4, 5)], 4000, "Other: not pure"),
    ([(0, 1, 2, 3), (0, 1, 2, 4), (0, 1, 2, 5)], 4000,
     "Other: a ridge lies in more than two facets"),
    ([*standard_sphere(3).facets, *standard_sphere(3, offset=5).facets],
     4000, "Other: not connected"),
    # the shelling search runs out of budget, so the cone decides: its
    # apex link, the boundary of the 4-simplex, is recognised in full
    (standard_sphere(3).join(full_simplex([9])).facets, 1,
     "Ball: cone with apex 9 over a sphere"),
], ids=["impure", "branched", "disconnected", "cone"])
def test_recognize_dim_ge_3_pins_value_and_reason(facets, budget, verdict):
    K = Complex.from_facets(facets)
    assert K.dim >= 3
    assert str(recognize_ball_or_sphere(K, budget)) == verdict


# -- combinatorial manifold verification --------------------------------


def test_verify_manifold_spheres(sphere3, torus7):
    assert verify_combinatorial_manifold(sphere3).value == MANIFOLD
    assert verify_combinatorial_manifold(torus7).value == MANIFOLD
    two_tets = Complex.from_facets([(0, 1, 2, 3), (1, 2, 3, 4)])
    assert verify_combinatorial_manifold(two_tets).value == MANIFOLD


def test_verify_manifold_unknown_and_empty():
    """A vertex link of sd S4 is a 3-sphere, which one shelling node
    cannot certify, so the verdict is Unknown; the empty complex {-},
    which has no vertex, is Other."""
    v = verify_combinatorial_manifold(
        derived_subdivision(standard_sphere(4)), budget=1)
    assert str(v) == (
        "Unknown: the verdict for lk([0]) is unresolved within budget")
    v = verify_combinatorial_manifold(Complex.from_facets([]))
    assert str(v) == "Other: the empty complex has no vertices"


def test_verify_manifold_counterexample():
    wedge = Complex.from_facets([(0, 1, 2), (0, 3, 4)])
    v = verify_combinatorial_manifold(wedge)
    assert v.value == NOT_MANIFOLD
    assert v.evidence == (0,)


def test_verify_manifold_audits_all_links(sphere3, torus7):
    for M in (sphere3, torus7):
        v = verify_combinatorial_manifold(M, audit_all_links=True)
        assert v.value == MANIFOLD
        for A in M.faces():
            if A:
                sub = recognize_ball_or_sphere(M.link(A))
                assert sub.value in (SPHERE, BALL)


def test_verify_manifold_reads_no_link_evidence(sphere3, torus7,
                                               monkeypatch):
    """Links of dimension <= 2 are classified without evidence, so
    checking every vertex link of sd S3 or the torus runs no shelling
    search, and the verdicts stay as they were."""
    import pachner.recognize
    from pachner.moves import derived_subdivision
    calls = []
    search = pachner.recognize.find_shelling

    def counted(*args, **kwargs):
        calls.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(pachner.recognize, "find_shelling", counted)
    for M in (derived_subdivision(sphere3), torus7):
        v = verify_combinatorial_manifold(M)
        assert (v.value, v.evidence, v.reason) == (
            MANIFOLD, None, "every vertex link is a ball or sphere")
    assert calls == []


# -- shelling search -----------------------------------------------------


def test_find_shelling_single_simplex():
    sh = find_shelling(full_simplex([0, 1, 2, 3]))
    assert sh == ShellingSequence((), (0, 1, 2, 3), None)


def test_find_shelling_sphere_mode(sphere2):
    sh = find_shelling(sphere2)
    assert sh.initial in sphere2.facets
    assert len(sh.steps) == 2
    final = replay_shelling(sphere2, sh)
    assert final.facets == frozenset({sh.terminal})


def test_sphere_mode_replay_filters_no_facets(monkeypatch):
    """Dropping a sphere's initial facet leaves facets: the replay of a
    shelling of sd S3 builds no complex through the maximality filter."""
    from pachner.moves import derived_subdivision
    sd = derived_subdivision(standard_sphere(3))
    sh = find_shelling(sd)
    assert sh.initial is not None
    built = []
    real = Complex.from_facets

    def counting(facets):
        built.append(facets)
        return real(facets)

    monkeypatch.setattr(Complex, "from_facets", staticmethod(counting))
    assert replay_shelling(sd, sh).facets == frozenset({sh.terminal})
    assert built == []


def test_find_shelling_fixture_balls():
    for name, X in shellable_ball_fixtures():
        sh = find_shelling(X)
        assert sh is not None, name
        assert sh.initial is None
        final = replay_shelling(X, sh)
        assert final.facets == frozenset({sh.terminal}), name
        assert len(sh.steps) == len(X.facets) - 1, name


def test_find_shelling_octahedron():
    octa = simplex_boundary([0, 1]).join(
        simplex_boundary([2, 3])).join(simplex_boundary([4, 5]))
    sh = find_shelling(octa)
    assert sh is not None and sh.initial is not None
    assert len(replay_shelling(octa, sh).facets) == 1


def test_find_shelling_budget_and_impossibility():
    two = Complex.from_facets([(0, 1, 2), (3, 4, 5)])
    assert find_shelling(two) is None
    with pytest.raises(BudgetExhaustedError):
        find_shelling(standard_sphere(3), budget=2)


def _stack_depth():
    """The recursion depth of the caller: one below the lowest
    recursion limit Python accepts here."""
    limit = sys.getrecursionlimit()
    depth = 0
    while True:
        try:
            sys.setrecursionlimit(depth + 1)
            break
        except RecursionError:
            depth += 1
    sys.setrecursionlimit(limit)
    return depth


def test_find_shelling_low_recursion_limit_is_no_disproof():
    """A recursion limit hit inside a legality check surfaces as
    RecursionError; it must never read as "no shelling exists"."""
    strip = Complex.from_facets((i, i + 1, i + 2) for i in range(12))
    limit = sys.getrecursionlimit()
    depth = _stack_depth()
    outcomes = []
    for extra in range(2, 41):
        sys.setrecursionlimit(depth + extra)
        try:
            outcomes.append(find_shelling(strip))
        except RecursionError:
            outcomes.append(RecursionError)
        finally:
            sys.setrecursionlimit(limit)
    assert None not in outcomes
    assert outcomes[-1] is not RecursionError


def test_find_shelling_depth_does_not_grow_with_facet_count():
    """The search keeps its own stack: a 200-triangle strip shells with
    the recursion limit 50 frames above the caller."""
    strip = Complex.from_facets((i, i + 1, i + 2) for i in range(200))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 50)
    try:
        sh = find_shelling(strip)
    finally:
        sys.setrecursionlimit(limit)
    assert len(sh.steps) == 199
    assert replay_shelling(strip, sh) == Complex.from_facets([sh.terminal])


def test_find_shelling_empty_complex():
    sh = find_shelling(Complex.from_facets([]))
    assert sh == ShellingSequence((), (), None)
