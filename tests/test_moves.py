"""Move legality, surgery exactness, inversion, enumeration, transcripts."""

import itertools
import random

import pytest

import pachner.core
import pachner.moves
from pachner.core import (
    BudgetExhaustedError,
    Complex,
    NotPseudomanifoldError,
    _WorkingComplex,
    _rim,
    full_simplex,
    isomorphic,
    simplex_boundary,
    standard_sphere,
)
from pachner.moves import (
    Bistellar,
    Exchange,
    IllegalAtStepError,
    MOVE_KINDS,
    IllegalMoveError,
    LegalityReport,
    Shell,
    Star,
    Transcript,
    TranscriptParseError,
    Unshell,
    Weld,
    _apply,
    _minimal_nonfaces,
    apply_move,
    apply_transcript,
    check_move,
    derived_subdivision,
    derived_subdivision_transcript,
    dumps_transcript,
    enumerate_moves,
    invert,
    invert_transcript,
    loads_transcript,
    parse_move,
)
from conftest import csaszar_torus, flag_subdivision, pinched_complex
from walk import _candidates, seeded_walk


def octahedron():
    """Join of three 0-spheres: {0,1} * {2,3} * {4,5}."""
    return simplex_boundary([0, 1]).join(
        simplex_boundary([2, 3])).join(simplex_boundary([4, 5]))


# -- starring and welding ----------------------------------------------


def test_star_facet_of_sphere_fvector(sphere2):
    out = apply_move(sphere2, Star((0, 1, 2), 4))
    assert out.f_vector().counts == (5, 9, 6)
    assert out.facets == frozenset(
        {(0, 1, 4), (0, 2, 4), (1, 2, 4), (0, 1, 3), (0, 2, 3), (1, 2, 3)})


def test_two_facet_starrings_fvector(sphere2):
    one = apply_move(sphere2, Star((0, 1, 2), 4))
    two = apply_move(one, Star((0, 1, 3), 5))
    assert two.f_vector().counts == (6, 12, 8)


def test_star_requires_fresh_label(sphere2):
    rep = check_move(sphere2, Star((0, 1, 2), 3))
    assert not rep.legal
    rep = check_move(sphere2, Star((0, 1, 2), 4))
    assert rep.legal
    # the residual link factor of a facet starring is {-}
    assert rep.link_factor == Complex.from_facets([])


def test_star_of_edge_and_vertex(sphere2):
    out = apply_move(sphere2, Star((0, 1), 4))
    # edge star: 01 removed, barycentre 4 joins its boundary and link
    assert out.f_vector().counts == (5, 9, 6)
    assert (0, 1) not in out
    renamed = apply_move(sphere2, Star((0,), 4))
    assert renamed == sphere2.relabel({0: 4})


def test_star_then_weld_is_identity(sphere2):
    starred = apply_move(sphere2, Star((0, 1), 4))
    back = apply_move(starred, Weld(4, (0, 1)))
    assert back == sphere2
    # and the weld is exactly the inverse move
    assert invert(Star((0, 1), 4)) == Weld(4, (0, 1))


def test_weld_legality_requires_absent_simplex(sphere2):
    starred = apply_move(sphere2, Star((0, 1), 4))
    # welding at a vertex whose link does not factor is refused
    rep = check_move(starred, Weld(0, (1, 4)))
    assert not rep.legal
    # A must be absent: welding 4 back onto an existing simplex fails
    rep = check_move(starred, Weld(4, (0, 2)))
    assert not rep.legal


def _weld_oracle(M):
    """Every legal Weld(a, W), W a fresh vertex or any vertex set of
    lk(a): a brute-force superset of the minimal-nonface candidates."""
    fresh = M.fresh_vertex()
    out = set()
    for a in M.vertices():
        lk = M.link((a,)).vertices()
        subsets = (W for r in range(1, len(lk) + 1)
                   for W in itertools.combinations(lk, r))
        out.update(Weld(a, W) for W in itertools.chain([(fresh,)], subsets)
                   if check_move(M, Weld(a, W)).legal)
    return out


@pytest.mark.parametrize("name, M", [
    ("S1", standard_sphere(1)),
    ("S2", standard_sphere(2)),
    ("S3", standard_sphere(3)),
    ("octahedron", octahedron()),
    ("S2 with a starred edge", apply_move(standard_sphere(2), Star((0, 1), 4))),
    ("S3 with a starred triangle",
     apply_move(standard_sphere(3), Star((0, 1, 2), 5))),
    ("disk", Complex.from_facets([(0, 1, 2), (1, 2, 3), (1, 3, 4)])),
    ("triangle and edge", Complex.from_facets([(0, 1, 2), (2, 3)])),
    ("torus", csaszar_torus()),
])
def test_weld_enumeration_matches_brute_force(name, M):
    moves = enumerate_moves(M, "weld")
    assert set(moves) == _weld_oracle(M), name
    assert len(set(moves)) == len(moves)
    assert moves == sorted(moves, key=lambda mv: (mv.a, mv.A))


@pytest.mark.parametrize("M", [standard_sphere(2), standard_sphere(3),
                               octahedron(), csaszar_torus()])
def test_weld_enumeration_lists_the_inverse_of_every_starring(M):
    # starring a vertex only renames it, and the list names a renaming
    # by the fresh label, so the inverse is listed for |A| >= 2
    a = M.fresh_vertex()
    for A in sorted(f for f in M.faces() if len(f) > 1):
        assert Weld(a, A) in enumerate_moves(apply_move(M, Star(A, a)),
                                             "weld"), A


# -- bistellar moves ---------------------------------------------------


def test_bistellar_edge_to_edge_is_illegal_on_sphere(sphere2):
    # lk(01) = {2},{3} = d(23), but 23 is already a simplex of the sphere
    rep = check_move(sphere2, Bistellar((0, 1), (2, 3)))
    assert not rep.legal
    assert "already in the complex" in rep.reason


def test_exactly_four_bistellar_moves_on_tetra_boundary(sphere2):
    moves = enumerate_moves(sphere2, "bistellar")
    assert len(moves) == 4
    assert all(len(m.A) == 3 for m in moves)
    assert {m.A for m in moves} == set(sphere2.facets)
    assert all(m.B == (4,) for m in moves)


def test_bistellar_round_trip_is_identity(sphere2):
    mv = Bistellar((0, 1, 2), (4,))
    mid = apply_move(sphere2, mv)
    back = apply_move(mid, invert(mv))
    assert invert(mv) == Bistellar((4,), (0, 1, 2))
    assert back == sphere2


def test_bistellar_two_two_flip():
    # two triangles glued along 12, flip the shared edge
    M = Complex.from_facets([(0, 1, 2), (1, 2, 3)])
    mv = Bistellar((1, 2), (0, 3))
    rep = check_move(M, mv)
    assert rep.legal
    out = apply_move(M, mv)
    assert out.facets == frozenset({(0, 1, 3), (0, 2, 3)})
    # flipping back restores the original complex
    assert apply_move(out, Bistellar((0, 3), (1, 2))) == M


def test_bistellar_requires_exact_link(sphere2):
    starred = apply_move(sphere2, Star((0, 1, 2), 4))
    # lk(0) is a 4-cycle, not the boundary of the edge 12
    rep = check_move(starred, Bistellar((0,), (1, 2)))
    assert not rep.legal
    # both interior vertices see the removed triangle as their link
    # boundary, so both 3->1 moves are legal
    assert check_move(starred, Bistellar((3,), (0, 1, 2))).legal
    assert check_move(starred, Bistellar((4,), (0, 1, 2))).legal
    assert apply_move(starred, Bistellar((3,), (0, 1, 2))) == \
        sphere2.relabel({3: 4})


def test_three_to_one_move_undoes_starring(sphere2):
    starred = apply_move(sphere2, Star((0, 1, 2), 4))
    mv = Bistellar((4,), (0, 1, 2))
    rep = check_move(starred, mv)
    assert rep.legal
    assert apply_move(starred, mv) == sphere2


FLIP_CHECK_INPUTS = {
    "S2": lambda: standard_sphere(2),
    "sd S2": lambda: derived_subdivision(standard_sphere(2)),
    "Csaszar torus": csaszar_torus,
    "pinched": pinched_complex,
    "triangle strip": lambda: Complex.from_facets(
        (i, i + 1, i + 2) for i in range(6)),
    "impure": lambda: Complex.from_facets(
        [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5, 6), (4, 5), (6, 7)]),
}


def _general_flip_check(M, A, B):
    """The flip check as the general one: the exchange check, with the
    legal ones refused when their link factor L is not {-}."""
    rep = check_move(M, Exchange(A, B))
    if rep.legal and rep.link_factor != Complex.from_facets([]):
        return LegalityReport(
            False, "lk(A) is not exactly dB (residual factor present)",
            rep.link_factor)
    return rep


@pytest.mark.parametrize("name", sorted(FLIP_CHECK_INPUTS))
def test_flip_check_agrees_with_the_general_check(name):
    """Every face A against each minimal nonface B of lk(A), the fresh
    label, a label in use and each such B unsorted: the flip check's
    link rule gives the general check's legality, reason and link
    factor."""
    M = FLIP_CHECK_INPUTS[name]()
    fresh, used = M.fresh_vertex(), M.vertices()[0]
    legal = 0
    for A in sorted(f for f in M.faces() if f):
        cands = [*_minimal_nonfaces(M.link(A)), (fresh,), (used,)]
        cands += [B[::-1] for B in cands if len(B) > 1]
        for B in cands:
            rep = check_move(M, Bistellar(A, B))
            assert rep == _general_flip_check(M, A, B), (A, B)
            legal += rep.legal
    assert legal


# -- stellar exchanges -------------------------------------------------


def test_exchange_with_trivial_factor_equals_bistellar(sphere2):
    ex = Exchange((0, 1, 2), (4,))
    bi = Bistellar((0, 1, 2), (4,))
    assert check_move(sphere2, ex).legal
    assert apply_move(sphere2, ex) == apply_move(sphere2, bi)


def test_exchange_on_octahedron_pole():
    M = octahedron()
    mv = Exchange((0,), (2, 3))
    rep = check_move(M, mv)
    assert rep.legal
    # residual factor is the opposite 0-sphere {4},{5}
    assert rep.link_factor == simplex_boundary([4, 5])
    out = apply_move(M, mv)
    assert out.facets == frozenset(
        {(1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5)})
    # inverse exchange restores the octahedron
    assert apply_move(out, Exchange((2, 3), (0,))) == M


def test_exchange_rejects_present_or_overlapping_B(sphere2):
    assert not check_move(sphere2, Exchange((0, 1), (2, 3))).legal
    assert not check_move(sphere2, Exchange((0, 1), (1, 2))).legal
    assert not check_move(sphere2, Exchange((), (4,))).legal


def test_exchange_enumeration_contains_star_and_flip_forms(sphere2):
    moves = enumerate_moves(sphere2, "exchange")
    # every simplex admits the fresh-vertex exchange (a starring)
    fresh_forms = [m for m in moves if m.B == (4,)]
    assert len(fresh_forms) == sphere2.n_faces()
    M = octahedron()
    moves = enumerate_moves(M, "exchange")
    assert Exchange((0,), (2, 3)) in moves
    assert Exchange((0,), (4, 5)) in moves


# -- elementary shellings ----------------------------------------------


def two_ball():
    return Complex.from_facets([(0, 1, 2), (1, 2, 3)])


def test_shell_legality_split():
    M = two_ball()
    # A must be the half-interior part: closure(A) meets dM exactly in dA
    assert not check_move(M, Shell((0,), (1, 2))).legal
    rep = check_move(M, Shell((1, 2), (0,)))
    assert rep.legal
    out = apply_move(M, Shell((1, 2), (0,)))
    assert out.facets == frozenset({(1, 2, 3)})


def test_shell_judges_A_and_B_as_vertex_sets():
    tet = full_simplex((0, 1, 2, 3))
    assert not check_move(tet, Shell((1, 0), (2, 3))).legal
    with pytest.raises(IllegalMoveError):
        apply_move(tet, Shell((1, 0), (2, 3)))
    disk = Complex.from_facets([(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    assert check_move(disk, Shell((2, 1), (0,))).legal
    assert check_move(disk, Shell((1, 2), (0,))).legal
    out = apply_move(disk, Shell((1, 2), (0,)))
    assert apply_move(disk, Shell((2, 1), (0,))) == out
    assert check_move(out, Unshell((2, 1), (0,))).legal


def test_shell_names_why_the_boundary_is_undefined():
    """The Shell check reads the boundary ridges as Complex.boundary()
    does, and reports its refusal in the same words."""
    book = Complex.from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert check_move(book, Shell((2,), (0, 1))).reason == (
        "boundary undefined: ridge (0, 1) lies in 3 facets")
    impure = Complex.from_facets([(0, 1, 2), (2, 3)])
    assert check_move(impure, Shell((0,), (1, 2))).reason == (
        "boundary undefined: boundary of a non-pure complex")


def test_boundary_and_shell_name_the_least_over_full_ridge():
    """With two ridges in three facets, (0, 6) and (2, 4), the boundary
    and the Shell check both name the least, whatever order the facets
    come in."""
    facets = [(0, 1, 6), (0, 2, 4), (0, 2, 6), (0, 3, 6), (1, 2, 3),
              (2, 3, 4), (2, 4, 6)]
    K = Complex.from_facets(facets)
    with pytest.raises(NotPseudomanifoldError,
                       match=r"^ridge \(0, 6\) lies in 3 facets$"):
        K.boundary()
    for M in (K, _WorkingComplex(K)):
        assert check_move(M, Shell((0,), (1, 6))).reason == (
            "boundary undefined: ridge (0, 6) lies in 3 facets")
    rng = random.Random(5)
    for _ in range(20):
        rng.shuffle(facets)
        with pytest.raises(NotPseudomanifoldError, match=r"ridge \(0, 6\)"):
            _rim(facets)


def test_shell_enumeration_on_two_ball():
    M = two_ball()
    assert enumerate_moves(M, "shell") == [
        Shell((1, 2), (0,)), Shell((1, 2), (3,))]


def test_no_shell_moves_on_single_facet_or_closed_sphere(sphere2):
    assert enumerate_moves(full_simplex([0, 1, 2]), "shell") == []
    assert enumerate_moves(sphere2, "shell") == []


def test_shell_then_unshell_round_trip():
    M = two_ball()
    mv = Shell((1, 2), (0,))
    out = apply_move(M, mv)
    back = apply_move(out, invert(mv))
    assert invert(mv) == Unshell((1, 2), (0,))
    assert back == M
    # enumeration names new vertices canonically by the fresh label,
    # but the checker accepts any unused label
    assert check_move(out, Unshell((1, 2), (0,))).legal
    assert Unshell((1, 2), (4,)) in enumerate_moves(out, "unshell")


def test_unshell_rejects_bad_gluings(sphere2):
    M = two_ball()
    # gluing a facet already present
    assert not check_move(M, Unshell((0, 1), (2,))).legal
    # gluing onto a closed sphere would branch a ridge
    assert not check_move(sphere2, Unshell((0, 1, 2), (4,))).legal
    # overlap must be exactly A * dB
    assert not check_move(M, Unshell((0, 3), (4,))).legal


def test_unshell_over_a_facet_is_the_shell_check_on_the_glued_copy():
    """Gluing [0 1 2] onto the path [0 1] [1 2] would swallow both edges:
    the glued copy is impure, so the Shell check there refuses it, and
    applying it raises with the same report."""
    path = Complex.from_facets([(0, 1), (1, 2)])
    mv = Unshell((0,), (1, 2))
    report = check_move(path, mv)
    assert not report.legal
    assert report.reason.startswith(
        "gluing is not a shelling inverse: boundary undefined")
    with pytest.raises(IllegalMoveError) as err:
        apply_move(path, mv)
    assert err.value.report == report


def test_unshell_enumeration_is_deterministic():
    M = Complex.from_facets([(1, 2, 3)])
    moves = enumerate_moves(M, "unshell")
    assert moves == sorted(set(moves), key=lambda m: (m.A, m.B))
    for mv in moves:
        shelled = apply_move(apply_move(M, mv), Shell(mv.A, mv.B))
        assert shelled == M


# -- apply/check hygiene ----------------------------------------------


def test_apply_illegal_move_raises_with_report(sphere2):
    with pytest.raises(IllegalMoveError) as err:
        apply_move(sphere2, Star((0, 1, 2), 3))
    assert err.value.report.legal is False
    assert err.value.move == Star((0, 1, 2), 3)


def test_nonface_enumeration_cap_is_a_budget_error():
    points = Complex.from_facets((v,) for v in range(17))
    with pytest.raises(BudgetExhaustedError):
        _minimal_nonfaces(points)
    assert len(_minimal_nonfaces(points, max_vertices=17)) == 136


# malformed move data: a repeated label, empty simplexes, no move at all,
# a label that is no integer, an unsorted simplex
# the last five would be legal with tuples for lists, so list-typed data
# must be refused before any family reads it
GARBAGE = (Star((9, 9), 1), Bistellar((), ()), "simplex",
           Exchange((0, "a"), (9,)), Weld(0, (2, 1)),
           Star([0, 1], 4), Bistellar([0, 1, 2], (4,)), Exchange((0,), [4]),
           Shell([0, 1], (2,)), Unshell([0, 1], (4,)))


def test_check_move_never_raises_on_garbage(sphere2):
    for mv in GARBAGE:
        assert not check_move(sphere2, mv).legal, mv
        with pytest.raises(IllegalMoveError):
            apply_move(sphere2, mv)
    assert check_move(sphere2, Star([0, 1], 4)).reason == (
        "check failed: A and B must be tuples")


def test_move_data_is_checked_once_before_any_family_check(sphere2):
    """check_move refuses a malformed simplex and an A that meets B
    itself, for every family and before the family's own check, which
    would first refuse the absent A = [7 8]."""
    for mv in (Star((0,), 0), Weld(0, (0, 1)), Bistellar((7, 8), (8, 9)),
               Exchange((7, 8), (8,)), Shell((0, 1), (1, 2)),
               Unshell((0, 1), (1, 2))):
        assert check_move(sphere2, mv).reason == "A and B share vertices", mv
    assert check_move(sphere2, Bistellar((7, 8), (5, 5))).reason == (
        "check failed: duplicate vertex 5 in (5, 5)")
    assert check_move(sphere2, Bistellar((7, 8), (5, 6))).reason == (
        "A = [7 8] is not in the complex")


def test_a_star_check_validates_only_the_move_data(monkeypatch):
    """check_move validates A and B once.  A starring's B is one vertex,
    so dB is {-} and the link factor is lk(A) itself: nothing else is
    validated.  The weld undoing it builds the link's restriction and dB
    from sorted tuples, and only simplex_boundary(B) validates its
    vertices again.  On the edge [0 5] of sd S3, whose link is a
    hexagon, that is 2 and 3 simplex calls (10 when every part was
    validated again)."""
    sd = derived_subdivision(standard_sphere(3))
    a = sd.fresh_vertex()
    mv = Star((0, 5), a)
    starred = apply_move(sd, mv)
    calls = []
    real = pachner.core.simplex

    def counting(vertices):
        calls.append(vertices)
        return real(vertices)

    monkeypatch.setattr(pachner.core, "simplex", counting)
    monkeypatch.setattr(pachner.moves, "simplex", counting)
    rep = check_move(sd, mv)
    assert rep.legal and len(rep.link_factor.facets) == 6
    assert len(calls) == 2
    rep = check_move(starred, invert(mv))
    assert rep.legal and rep.link_factor == sd.link((0, 5))
    assert len(calls) == 5


@pytest.mark.parametrize("body, M, move, kind", [
    ("_simplex_link", standard_sphere(2), Bistellar((0, 1, 2), (4,)),
     "bistellar"),
    ("_split", Complex.from_facets([(0, 1, 2), (1, 2, 3)]),
     Shell((1, 2), (0,)), "unshell"),
], ids=["exchange check", "shell check"])
def test_a_fault_in_a_check_body_propagates(monkeypatch, body, M, move,
                                            kind):
    """A TypeError raised inside a family's check is a fault, not an
    illegal move: it escapes check_move, the family's enumeration (which
    filters through check_move, or for flips reads every link by the
    same rule as the flip check), and a transcript replay.  The move is
    legal."""
    assert check_move(M, move).legal

    def broken(*args):
        raise TypeError("injected fault")

    monkeypatch.setattr(pachner.moves, body, broken)
    for call in (lambda: check_move(M, move),
                 lambda: enumerate_moves(M, kind),
                 lambda: apply_transcript(M, Transcript((move,)))):
        with pytest.raises(TypeError, match="injected fault"):
            call()


def test_working_copy_checks_as_its_complex():
    """A working copy changed in place by each step's surgery answers
    every check as a complex built afresh from its facets, reason and
    link factor included: for the step, its inverse, the garbage moves
    and a few candidates of every family.  ``_apply`` of an illegal
    probe raises IllegalMoveError carrying the check's report and leaves
    the copy as it was.  The walk's transcript replays to where its
    one-move applications end."""
    strip = Complex.from_facets([(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    seen, refused = set(), 0
    for M, seed in ((standard_sphere(2), 11), (strip, 12)):
        S = _WorkingComplex(M)
        rng = random.Random(seed)
        moves = []
        for mv, nxt in seeded_walk(M, 20, seed, cap=9):
            K = S.complex()
            probes = [mv, invert(mv), *GARBAGE]
            for kind in MOVE_KINDS:
                probes += _candidates(K, kind, rng)[:3]
            for probe in probes:
                report = check_move(S, probe)
                assert report == check_move(K, probe), probe
                if report.legal:
                    continue
                facets = set(S.facets)
                by_vertex = {v: set(fs) for v, fs in S._by_vertex.items()}
                with pytest.raises(IllegalMoveError) as exc:
                    _apply(S, probe)
                assert exc.value.report == report, probe
                assert S.facets == facets and S._by_vertex == by_vertex
                refused += 1
            assert _apply(S, mv) == check_move(K, mv)
            assert S.complex() == nxt
            moves.append(mv)
        assert len(moves) == 20
        assert apply_transcript(M, Transcript(tuple(moves))) == nxt
        seen.update(type(mv) for mv in moves)
    assert seen == {Star, Weld, Bistellar, Exchange, Shell, Unshell}
    assert refused >= 40 * len(GARBAGE)


def test_an_unsorted_B_is_illegal_in_every_exchange_family():
    """An unsorted B names no simplex and is refused before the link is
    read: the flip [0 1] -> [5 3] on the Csaszar torus, whose edge [3 5]
    is present, would otherwise pass as a flip to an absent edge."""
    torus = csaszar_torus()
    for kind in (Bistellar, Exchange):
        assert check_move(torus, kind((0, 1), (3, 5))).reason == (
            "B = [3 5] is already in the complex")
        unsorted = kind((0, 1), (5, 3))
        assert check_move(torus, unsorted).reason == "B = [5 3] is not sorted"
        with pytest.raises(IllegalMoveError):
            apply_move(torus, unsorted)
    assert check_move(torus, Bistellar((0, 1), (5, 5))).reason == (
        "check failed: duplicate vertex 5 in (5, 5)")
    starred = apply_move(standard_sphere(2), Star((0, 1), 4))
    assert check_move(starred, Weld(4, (0, 1))).legal
    assert check_move(starred, Weld(4, (1, 0))).reason == (
        "B = [1 0] is not sorted")


def test_exchange_surgery_matches_face_set_oracle(sphere2):
    """Facet-level surgery agrees with the defining face-set formula
    along a seeded mixed walk."""
    M = sphere2
    steps = 0
    for move, nxt in seeded_walk(M, 25, seed=20250817,
                                 families=("star", "weld", "bistellar",
                                           "exchange")):
        if isinstance(move, Star):
            A, B = move.A, (move.a,)
        elif isinstance(move, Weld):
            A, B = (move.a,), move.A
        else:
            A, B = move.A, move.B
        L = check_move(M, move).link_factor
        keep = {f for f in M.faces() if not set(A) <= set(f)}
        ins = simplex_boundary(A).join(full_simplex(B)).join(L).faces()
        assert nxt.faces() == frozenset(keep) | frozenset(ins)
        M = nxt
        steps += 1
    assert steps == 25


# -- transcripts -------------------------------------------------------


def test_transcript_round_trip_bytes():
    t = Transcript(
        (Star((0, 1, 2), 4), Weld(4, (0, 1, 2)), Bistellar((0, 1), (2, 3)),
         Exchange((0,), (2, 3)), Shell((1, 2), (0,)), Unshell((1, 2), (0,))),
        ("opening", None, "flip", None, None, "closing"))
    text = dumps_transcript(t)
    assert loads_transcript(text) == t
    assert dumps_transcript(loads_transcript(text)) == text
    assert "STAR [0 1 2] 4 # opening" in text.splitlines()[0]


def test_transcript_grammar():
    assert parse_move("STAR [0 1 2] 4") == Star((0, 1, 2), 4)
    assert parse_move("WELD 4 [0 1 2]") == Weld(4, (0, 1, 2))
    assert parse_move("FLIP [0 1] ; [2 3]") == Bistellar((0, 1), (2, 3))
    assert parse_move("XCHG [0] ; [2 3]") == Exchange((0,), (2, 3))
    assert parse_move("SHELL [1 2] ; [0]") == Shell((1, 2), (0,))
    assert parse_move("UNSHELL [1 2] ; [0]") == Unshell((1, 2), (0,))
    for bad in ("STAR [0 1 2]", "FLIP [0 1] [2 3]", "NOPE [0] ; [1]",
                "FLIP [0 x] ; [1]", "WELD x [0]", "STAR [0 1] -1",
                "WELD -1 [0 1]"):
        with pytest.raises(TranscriptParseError):
            parse_move(bad)


def test_transcript_comments_and_blanks_ignored():
    text = "# header\n\nSTAR [0 1 2] 4\n"
    t = loads_transcript(text)
    assert t.moves == (Star((0, 1, 2), 4),)


def test_apply_transcript_and_inverse(sphere2):
    t = loads_transcript("STAR [0 1 2] 4\nSTAR [0 1 3] 5\nFLIP [0 1] ; [4 5]\n")
    out = apply_transcript(sphere2, t)
    assert out.f_vector().counts == (6, 12, 8)
    assert apply_transcript(out, invert_transcript(t)) == sphere2


def _count_checks(monkeypatch):
    checked = []
    real = pachner.moves.check_move

    def counting(M, move):
        checked.append(move)
        return real(M, move)

    monkeypatch.setattr(pachner.moves, "check_move", counting)
    return checked


def test_apply_transcript_checks_each_step_once(sphere2, monkeypatch):
    t = derived_subdivision_transcript(sphere2)
    checked = _count_checks(monkeypatch)
    apply_transcript(sphere2, t)
    assert checked == list(t.moves)


def test_a_walk_builds_one_working_copy_per_move(sphere2, monkeypatch):
    """apply_move hands the working copy it applied the move to over to
    its result, so the next step checks on that copy instead of
    building a second one; apply_transcript hands its copy over too."""
    built = []
    real = _WorkingComplex.__init__

    def counting(self, M):
        built.append(M)
        real(self, M)

    monkeypatch.setattr(_WorkingComplex, "__init__", counting)
    steps = list(seeded_walk(sphere2, 30, 5))
    assert len(steps) == 30
    assert len(built) <= 31
    for K in (steps[-1][1], apply_transcript(
            sphere2, Transcript(tuple(mv for mv, _ in steps)))):
        assert K._incidence().facets == K.facets
    assert len(built) <= 32


def test_apply_transcript_reports_failing_index(sphere2):
    t = loads_transcript("STAR [0 1 2] 4\nSTAR [0 1 2] 5\n")
    with pytest.raises(IllegalAtStepError) as err:
        apply_transcript(sphere2, t)
    assert err.value.index == 1


# -- derived subdivision ----------------------------------------------


def test_derived_subdivision_matches_flag_oracle(sphere2):
    sd = derived_subdivision(sphere2)
    assert sd.f_vector().counts == (14, 36, 24)
    oracle = flag_subdivision(sphere2)
    assert isomorphic(sd, oracle) is not None


def test_derived_subdivision_transcript_is_all_starrings(sphere2):
    t = derived_subdivision_transcript(sphere2)
    assert all(isinstance(m, Star) for m in t.moves)
    # one starring per simplex of dimension >= 1
    assert len(t) == 6 + 4
    assert apply_transcript(sphere2, t) == derived_subdivision(sphere2)


def test_derived_subdivision_checks_each_star_once(sphere2, monkeypatch):
    t = derived_subdivision_transcript(sphere2)
    checked = _count_checks(monkeypatch)
    derived_subdivision(sphere2)
    assert checked == list(t.moves)


def test_derived_subdivision_transcript_applies_nothing(monkeypatch):
    checked = _count_checks(monkeypatch)
    applied = []
    real_apply = pachner.moves.apply_move

    def counting_apply(M, move):
        applied.append(move)
        return real_apply(M, move)

    monkeypatch.setattr(pachner.moves, "apply_move", counting_apply)
    mixed = Complex.from_facets([(0, 1, 2), (2, 3), (3, 4), (5,)])
    for K in (standard_sphere(3), mixed, Complex.from_facets([]),
              full_simplex([0])):
        t = derived_subdivision_transcript(K)
        f = K.fresh_vertex()
        assert [mv.a for mv in t.moves] == list(range(f, f + len(t)))
        assert len(t) == sum(len(K.faces_of_dim(d))
                             for d in range(1, K.dim + 1))
    assert checked == [] and applied == []
    monkeypatch.undo()
    t = derived_subdivision_transcript(mixed)
    assert isomorphic(apply_transcript(mixed, t), flag_subdivision(mixed))


def test_enumerate_star_moves_on_edge():
    assert len(enumerate_moves(full_simplex([0, 1]), "star")) == 3
