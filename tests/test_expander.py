"""Shelling combinators and move expansion.

Fixture notes, verified by hand:

* suspension of a hexagon: poles 0/1 over the 6-cycle 2-3-4-5-6-7.
  lk(pole) is the hexagon itself -- no simplex-boundary join factor --
  so starring a pole forces a walk along a witness, and every move of
  the witness read from the hexagon's shelling trades a simplex absent
  from the ambient complex (case: traded simplex absent).
* twisted octahedron: poles 0/1 over the 4-cycle 2-4-3-5.  The edge
  (4,5) IS present (facets 145, 345), so the hand witness move
  (2,) -> (4,5) trades a simplex already in the ambient complex and
  forces the detach-a-vertex branch."""

import hashlib
import itertools

import pytest

import pachner.expander
import pachner.moves
from pachner.core import (
    BudgetExhaustedError,
    Complex,
    _WorkingComplex,
    full_simplex,
    is_simplex_boundary,
    simplex_boundary,
    standard_sphere,
)
from pachner.expander import (
    ExpansionSession,
    LinkFactorization,
    NoExpansionError,
    Witness,
    ball_to_cone_transcript,
    cone_shelling,
    exchange_to_bistellar,
    expand_exchange,
    factor_link,
    join_boundary_shelling,
    search_witness,
    star_move_transcript,
    subdivision_to_bistellar,
)
from pachner.moves import (
    Bistellar,
    Exchange,
    IllegalMoveError,
    Shell,
    Star,
    Transcript,
    apply_move,
    apply_transcript,
    derived_subdivision,
    derived_subdivision_transcript,
    dumps_transcript,
    enumerate_moves,
)
from pachner.recognize import ShellingSequence, find_shelling, replay_shelling

from conftest import shellable_ball_fixtures

EMPTY = Complex.from_facets([])


def suspended_hexagon():
    rim = [(i, 2 + (i - 1) % 6) for i in range(2, 8)]
    return simplex_boundary([0, 1]).join(Complex.from_facets(rim))


def twisted_octahedron():
    return Complex.from_facets(
        [(0, 2, 4), (0, 3, 4), (0, 3, 5), (0, 2, 5),
         (1, 2, 4), (1, 2, 5), (1, 4, 5), (3, 4, 5)])


# -- shelling combinators -------------------------------------------------


def test_cone_shelling_of_ball():
    disk = Complex.from_facets([(0, 1, 2), (1, 2, 3), (1, 3, 4)])
    sh = find_shelling(disk)
    lifted = cone_shelling(disk, sh, 9)
    cone = full_simplex((9,)).join(disk)
    assert replay_shelling(cone, lifted).facets == {lifted.terminal}
    assert len(lifted.steps) == len(disk.facets) - 1
    assert all(9 in mv.A for mv in lifted.steps)


def test_cone_shelling_of_sphere(sphere2):
    sh = find_shelling(sphere2)
    assert sh.initial is not None
    lifted = cone_shelling(sphere2, sh, 7)
    assert lifted.initial is None
    cone = full_simplex((7,)).join(sphere2)
    assert replay_shelling(cone, lifted).facets == {lifted.terminal}
    assert len(lifted.steps) == len(sphere2.facets) - 1
    assert lifted.steps[0] == Shell((7,), sh.initial)


def test_cone_shelling_rejects_used_apex(sphere2):
    with pytest.raises(ValueError):
        cone_shelling(sphere2, find_shelling(sphere2), 2)


def test_join_boundary_shelling_suspension_of_interval():
    path = Complex.from_facets([(0, 1), (1, 2)])
    sh = find_shelling(path)
    out = join_boundary_shelling(1, path, sh)
    join = simplex_boundary((3, 4)).join(path)
    assert replay_shelling(join, out).facets == {out.terminal}
    assert out.initial is None
    assert len(out.steps) == len(join.facets) - 1


def test_join_boundary_shelling_sphere_mode():
    two_points = simplex_boundary((0, 1))
    sh = find_shelling(two_points)
    out = join_boundary_shelling(2, two_points, sh, labels=(5, 6, 7))
    join = simplex_boundary((5, 6, 7)).join(two_points)
    assert out.initial is not None
    assert replay_shelling(join, out).facets == {out.terminal}
    # one facet removed up front, one left at the end
    assert 2 + len(out.steps) == len(join.facets)


def test_join_boundary_shelling_degenerate_base():
    out = join_boundary_shelling(3, EMPTY, ShellingSequence((), ()))
    sphere = simplex_boundary((0, 1, 2, 3))
    assert replay_shelling(sphere, out).facets == {out.terminal}


def test_join_boundary_shelling_r_zero_is_identity(sphere2):
    sh = find_shelling(sphere2)
    assert join_boundary_shelling(0, sphere2, sh) is sh


# -- ball-to-cone transcripts ----------------------------------------------


def test_ball_to_cone_single_triangle():
    tri = Complex.from_facets([(0, 1, 2)])
    t = ball_to_cone_transcript(tri, find_shelling(tri), 5)
    assert list(t.moves) == [Bistellar((5,), (0, 1, 2))]
    start = simplex_boundary((0, 1, 2)).join(full_simplex((5,)))
    assert apply_transcript(start, t) == tri


def test_ball_to_cone_on_fixture_balls():
    for name, ball in shellable_ball_fixtures():
        sh = find_shelling(ball)
        v = ball.fresh_vertex()
        t = ball_to_cone_transcript(ball, sh, v)
        assert len(t) == len(ball.facets), name
        start = ball.boundary().join(full_simplex((v,)))
        assert apply_transcript(start, t) == ball, name


def test_ball_to_cone_rejects_sphere_mode(sphere2):
    sh = find_shelling(sphere2)
    with pytest.raises(ValueError):
        ball_to_cone_transcript(sphere2, sh, 9)


def test_ball_to_cone_inverse_starts_by_starring_terminal():
    disk = Complex.from_facets([(0, 1, 2), (1, 2, 3)])
    sh = find_shelling(disk)
    t = ball_to_cone_transcript(disk, sh, 7)
    last = t.moves[-1]
    assert last == Bistellar((7,), sh.terminal)


# -- starring expansion ----------------------------------------------------


def test_star_move_transcript_every_simplex_of_sphere(sphere2):
    for A in sorted(f for f in sphere2.faces() if f):
        t = star_move_transcript(sphere2, A)
        target = apply_move(sphere2, Star(A, sphere2.fresh_vertex()))
        assert apply_transcript(sphere2, t) == target
        assert all(isinstance(mv, Bistellar) for mv in t.moves)
        if len(A) == 3:
            assert len(t) == 1


def test_star_move_transcript_respects_at(sphere2):
    t = star_move_transcript(sphere2, (0, 1), at=9)
    assert apply_transcript(sphere2, t) == apply_move(sphere2, Star((0, 1), 9))
    with pytest.raises(ValueError):
        star_move_transcript(sphere2, (0, 1), at=3)


def test_star_move_transcript_needs_closed_link():
    ball = Complex.from_facets([(0, 1, 2), (1, 2, 3)])
    with pytest.raises(ValueError):
        star_move_transcript(ball, (0, 1))


def test_star_move_transcript_budget_error(sphere3):
    with pytest.raises(BudgetExhaustedError,
                       match=r"^shelling search for lk\(\[0\]\) exhausted"):
        star_move_transcript(sphere3, (0,), budget=1)


def _count_calls(monkeypatch, name):
    """Count the calls of expander's `name` through every module that
    binds it (moves._certify replays through moves.apply_transcript)."""
    calls = []
    real = getattr(pachner.expander, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (pachner.moves, pachner.recognize, pachner.expander):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_star_expansion_replays_once_in_the_complex(sphere2, sphere3,
                                                    monkeypatch):
    """The star shelling and its flips are built by arithmetic; the only
    replay is the flip transcript's one replay in M, one for all the
    starrings of a transcript."""
    shellings = _count_calls(monkeypatch, "replay_shelling")
    replays = _count_calls(monkeypatch, "apply_transcript")
    for A in sphere2.faces():
        if A:
            del replays[:]
            star_move_transcript(sphere2, A)
            assert len(replays) == 1
    t = derived_subdivision_transcript(sphere3)
    del replays[:]
    subdivision_to_bistellar(sphere3, t)
    assert len(t) == 25
    assert len(replays) == 1
    assert shellings == []


def test_flip_replay_on_a_complex_builds_no_face_set(monkeypatch):
    """Checking flips on an immutable complex asks only membership and
    links, which read the incidence: replaying the expansion of a
    starred edge of the 3-sphere never builds a face set."""
    M = simplex_boundary(range(5))
    t = star_move_transcript(M, (0, 1))
    calls = []
    real = Complex.faces

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Complex, "faces", counting)
    assert apply_transcript(M, t) == apply_move(M, Star((0, 1), 5))
    assert calls == []


def test_flip_replay_reads_one_working_copy(monkeypatch):
    """Replaying the 516 flips of S4 -> sd S4 builds one working copy and
    reads at most three stars per flip: st(A) and B for the check, st(A)
    for the surgery."""
    S4 = simplex_boundary(range(6))
    t = subdivision_to_bistellar(S4, derived_subdivision_transcript(S4))
    assert len(t) == 516
    built, stars = [], []
    real_init, real_star = _WorkingComplex.__init__, _WorkingComplex._star

    def counting_init(self, M):
        built.append(type(self))
        real_init(self, M)

    def counting_star(self, a):
        stars.append(a)
        return real_star(self, a)

    monkeypatch.setattr(_WorkingComplex, "__init__", counting_init)
    monkeypatch.setattr(_WorkingComplex, "_star", counting_star)
    end = apply_transcript(S4, t)
    assert built == [_WorkingComplex]
    assert len(stars) <= 3 * len(t)
    monkeypatch.undo()
    assert end.f_vector() == derived_subdivision(S4).f_vector()


def test_star_expansion_fault_is_a_runtime_error(sphere2, monkeypatch):
    """A built transcript that fails its replay in M is our fault, not
    an illegal move of the caller's."""
    real = pachner.expander._flips_to_cone
    monkeypatch.setattr(pachner.expander, "_flips_to_cone",
                        lambda sh, v: Transcript(real(sh, v).moves[1:]))
    with pytest.raises(RuntimeError, match="does not replay"):
        star_move_transcript(sphere2, (0, 1))


def test_subdivision_to_bistellar_matches_derived(sphere2):
    stars = derived_subdivision_transcript(sphere2)
    t = subdivision_to_bistellar(sphere2, stars)
    assert apply_transcript(sphere2, t) == derived_subdivision(sphere2)
    # 4 facet starrings cost one move each; the 6 edge starrings then
    # see two triangles around each edge
    assert len(t) == 16


def test_subdivision_to_bistellar_checks_each_star_once(monkeypatch):
    """S4 -> sd S4: each starring is checked once, on the working copy
    that takes the starrings, each flip once, by the one replay that
    certifies the whole expansion, and the 516-flip transcript is pinned
    by its digest."""
    stars, flips = [], []
    real = pachner.moves.check_move

    def counting(M, move):
        if isinstance(move, Star):
            stars.append(move)
        elif isinstance(move, Bistellar):
            flips.append(move)
        return real(M, move)

    for module in (pachner.moves, pachner.expander):
        monkeypatch.setattr(module, "check_move", counting)
    replays = _count_calls(monkeypatch, "apply_transcript")
    S4 = standard_sphere(4)
    t = derived_subdivision_transcript(S4)
    text = dumps_transcript(subdivision_to_bistellar(S4, t))
    assert len(stars) == len(t) == 56
    assert len(replays) == 1
    assert text.count("\n") == len(flips) == 516
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "db06ded26737ded8fe0535209ac597f50e590870736777aa91795f90270dfbf0")


def test_subdivision_to_bistellar_of_sd_s3_builds_two_working_copies(
        sphere3, monkeypatch):
    """sd S3 -> sd^2 S3, 510 starrings: one plain working copy takes
    them all and one replays the 2,040 flips; no starring builds a copy
    of the complex of its own."""
    sd = derived_subdivision(sphere3)
    stars = derived_subdivision_transcript(sd)
    built = []
    real_init = _WorkingComplex.__init__

    def counting_init(self, M):
        built.append(type(self))
        real_init(self, M)

    monkeypatch.setattr(_WorkingComplex, "__init__", counting_init)
    t = subdivision_to_bistellar(sd, stars)
    assert built.count(_WorkingComplex) == 2
    monkeypatch.undo()
    assert len(stars) == 510
    assert len(t) == 2040
    assert apply_transcript(sd, t) == derived_subdivision(sd)


def test_subdivision_to_bistellar_of_sd_s2(sphere2):
    """sd S2 -> sd^2 S2 in 96 flips: the expansion of the stellar route
    from a derived subdivision to the next."""
    sd = derived_subdivision(sphere2)
    t = subdivision_to_bistellar(sd, derived_subdivision_transcript(sd))
    assert len(t) == 96
    assert apply_transcript(sd, t) == derived_subdivision(sd)


def test_subdivision_to_bistellar_normalises_the_starred_simplex(sphere2):
    unsorted = Transcript((Star((2, 1, 0), 4), Star((3, 0), 5)))
    stars = Transcript((Star((0, 1, 2), 4), Star((0, 3), 5)))
    assert (subdivision_to_bistellar(sphere2, unsorted)
            == subdivision_to_bistellar(sphere2, stars))


# -- link factorization and witnesses ---------------------------------------


def test_factor_link_octahedron():
    octa = (simplex_boundary((0, 1))
            .join(simplex_boundary((2, 3)))
            .join(simplex_boundary((4, 5))))
    core, spheres = factor_link(octa)
    assert core == EMPTY
    assert spheres == ((0, 1), (2, 3), (4, 5))


def test_factor_link_mixed():
    hexagon = Complex.from_facets(
        [(i, 2 + (i - 1) % 6) for i in range(2, 8)])
    L = simplex_boundary((8, 9)).join(hexagon)
    core, spheres = factor_link(L)
    assert spheres == ((8, 9),)
    assert core == hexagon
    assert factor_link(hexagon) == (hexagon, ())
    assert factor_link(EMPTY) == (EMPTY, ())


def test_search_witness_reduces_hexagon():
    hexagon = Complex.from_facets(
        [(i, 2 + (i - 1) % 6) for i in range(2, 8)])
    w = search_witness(hexagon)
    cur = hexagon
    for mv in w.moves:
        cur = apply_move(cur, mv)
    assert is_simplex_boundary(cur)
    assert search_witness(EMPTY).moves == ()


def test_search_witness_budget_error(torus7):
    with pytest.raises(BudgetExhaustedError):
        search_witness(torus7, budget=30)


def test_search_witness_refuses_an_unshellable_core(monkeypatch):
    """A core passes the starring's gate: a closed core with no shelling
    is a named refusal, not an exhausted search."""
    monkeypatch.setattr(pachner.expander, "find_shelling",
                        lambda L, budget=None: None)
    hexagon = Complex.from_facets(
        [(i, 2 + (i - 1) % 6) for i in range(2, 8)])
    with pytest.raises(NoExpansionError, match=(
            r"^link core with f-vector \(6, 6\) is unshellable; "
            r"cannot expand this exchange$")):
        search_witness(hexagon)


# -- exchange expansion ------------------------------------------------------


def test_exchange_to_bistellar_short_circuit(sphere2):
    for mv in enumerate_moves(sphere2, "bistellar"):
        t = expand_exchange(sphere2, mv.A, mv.B)
        assert list(t.moves) == [Bistellar(mv.A, mv.B)]


def test_expand_exchange_join_factor_base_case():
    octa = (simplex_boundary((0, 1))
            .join(simplex_boundary((2, 3)))
            .join(simplex_boundary((4, 5))))
    t = expand_exchange(octa, (0,), (2, 3))
    assert apply_transcript(octa, t) == apply_move(octa, Exchange((0,), (2, 3)))
    assert all(isinstance(mv, Bistellar) for mv in t.moves)
    assert len(t) > 1


def test_expand_exchange_recursive_case(sphere2):
    M = suspended_hexagon()
    t = expand_exchange(M, (0,), (8,))
    assert apply_transcript(M, t) == apply_move(M, Exchange((0,), (8,)))
    assert all(isinstance(mv, Bistellar) for mv in t.moves)


def test_exchange_expansion_traded_simplex_present():
    M = twisted_octahedron()
    core = M.link((0,))
    assert core == Complex.from_facets([(2, 4), (3, 4), (2, 5), (3, 5)])
    witness = Witness((Exchange((2,), (4, 5)),))
    assert (4, 5) in M  # forces the detach-a-vertex branch
    t = exchange_to_bistellar(
        M, (0,), (9,), LinkFactorization((9,), core), witness)
    assert apply_transcript(M, t) == apply_move(M, Exchange((0,), (9,)))
    assert all(isinstance(mv, Bistellar) for mv in t.moves)


def test_detach_branch_searches_only_the_witness_it_spends(monkeypatch):
    # one witness search per exchange square: the detach square at the
    # top (for lk(u) in the core) and the absent-simplex square inside
    # it; the detach square runs no search for a sub-link it never uses
    searches = _count_calls(monkeypatch, "search_witness")
    M = twisted_octahedron()
    exchange_to_bistellar(
        M, (0,), (9,), LinkFactorization((9,), M.link((0,))),
        Witness((Exchange((2,), (4, 5)),)))
    assert len(searches) == 2


# Pinned expansions of both exchange-square branches, so that changes to
# the expansion cannot drift the transcripts unnoticed.
HEXAGON_EXPANSION = """\
FLIP [0 6 7] ; [9]
FLIP [0 7] ; [2 9]
FLIP [0 6] ; [5 9]
FLIP [0 5] ; [4 9]
FLIP [0 4] ; [3 9]
FLIP [0 3 9] ; [10]
FLIP [0 9] ; [2 10]
FLIP [0] ; [2 3 10]
FLIP [2 3 10] ; [8]
FLIP [2 10] ; [8 9]
FLIP [10] ; [3 8 9]
FLIP [3 9] ; [4 8]
FLIP [4 9] ; [5 8]
FLIP [5 9] ; [6 8]
FLIP [2 9] ; [7 8]
FLIP [9] ; [6 7 8]
"""

DETACH_EXPANSION = """\
FLIP [0 3 4] ; [11]
FLIP [0 4] ; [2 11]
FLIP [0 2 11] ; [10]
FLIP [0 11] ; [3 10]
FLIP [2 11] ; [4 10]
FLIP [11] ; [3 4 10]
FLIP [0 2] ; [5 10]
FLIP [0 5 10] ; [12]
FLIP [0 10] ; [3 12]
FLIP [0] ; [3 5 12]
FLIP [3 5 12] ; [9]
FLIP [3 12] ; [9 10]
FLIP [12] ; [5 9 10]
FLIP [5 10] ; [2 9]
FLIP [3 9 10] ; [13]
FLIP [9 10] ; [2 13]
FLIP [3 10] ; [4 13]
FLIP [10] ; [2 4 13]
FLIP [2 13] ; [4 9]
FLIP [13] ; [3 4 9]
"""


def test_exchange_expansions_are_pinned():
    hexagon = expand_exchange(suspended_hexagon(), (0,), (8,))
    assert dumps_transcript(hexagon) == HEXAGON_EXPANSION
    M = twisted_octahedron()
    detach = exchange_to_bistellar(
        M, (0,), (9,), LinkFactorization((9,), M.link((0,))),
        Witness((Exchange((2,), (4, 5)),)))
    assert dumps_transcript(detach) == DETACH_EXPANSION


def test_hexagon_expansion_builds_join_shellings_privately(monkeypatch):
    # the factor shellings come from the unchecked builder; the public
    # combinator would replay its input and output at every level
    public = _count_calls(monkeypatch, "join_boundary_shelling")
    expand_exchange(suspended_hexagon(), (0,), (8,))
    assert public == []


def test_hexagon_expansion_replays_once_in_the_complex(monkeypatch):
    """The base-case starrings are not certified on their own, and the
    witness expand_exchange read from a shelling is not replayed on the
    core: one replay of the whole 16-flip transcript in M certifies the
    expansion."""
    replays = _count_calls(monkeypatch, "apply_transcript")
    t = expand_exchange(suspended_hexagon(), (0,), (8,))
    assert dumps_transcript(t) == HEXAGON_EXPANSION
    assert len(replays) == 1
    assert sum(len(tr) for _, tr in replays) == len(t) == 16


def test_expand_exchange_checks_its_exchange_once(monkeypatch):
    """The legality report of Exchange(A, B) also yields its result;
    the expansion does not check the exchange again on M."""
    checked = []
    real = pachner.moves.check_move

    def counting(M, move):
        checked.append((M, move))
        return real(M, move)

    monkeypatch.setattr(pachner.moves, "check_move", counting)
    monkeypatch.setattr(pachner.expander, "check_move", counting)
    M = suspended_hexagon()
    t = expand_exchange(M, (0,), (8,))
    assert [N for N, mv in checked
            if mv == Exchange((0,), (8,)) and N == M] == [M]
    assert dumps_transcript(t) == HEXAGON_EXPANSION


def test_exchange_expansion_witness_label_collision():
    M = suspended_hexagon()
    core = M.link((0,))
    # the first witness move mints label 1, which names a pole of M;
    # the expansion must substitute a fresh label through the tail
    witness = Witness((
        Exchange((3,), (1,)),
        Exchange((1,), (2, 4)),
        Exchange((5,), (4, 6)),
        Exchange((6,), (4, 7)),
    ))
    assert (1,) in M
    t = exchange_to_bistellar(
        M, (0,), (8,), LinkFactorization((8,), core), witness)
    assert apply_transcript(M, t) == apply_move(M, Exchange((0,), (8,)))


def test_exchange_to_bistellar_rejects_bad_inputs(sphere2):
    M = suspended_hexagon()
    core = M.link((0,))
    good = search_witness(core)
    with pytest.raises(IllegalMoveError):
        exchange_to_bistellar(
            M, (0,), (2,), LinkFactorization((2,), core), good)
    with pytest.raises(ValueError):
        exchange_to_bistellar(
            M, (0,), (8,), LinkFactorization((8,), EMPTY), Witness(()))
    with pytest.raises(ValueError):
        exchange_to_bistellar(
            M, (0,), (8,), LinkFactorization((8,), core), Witness(()))


def test_expansion_is_deterministic():
    M = suspended_hexagon()
    t1 = expand_exchange(M, (0,), (8,))
    t2 = expand_exchange(M, (0,), (8,))
    assert dumps_transcript(t1) == dumps_transcript(t2)


def test_expansion_session_labels_are_monotone():
    s = ExpansionSession()
    s.absorb_labels((11, 3))
    assert s.fresh() == 12
    assert s.fresh() == 13
    s.absorb_labels((20,))
    assert s.fresh() == 21


def test_expansion_budget_guard():
    M = suspended_hexagon()
    with pytest.raises(BudgetExhaustedError):
        core = M.link((0,))
        exchange_to_bistellar(
            M, (0,), (8,), LinkFactorization((8,), core),
            search_witness(core), budget=2)


def _sd_sphere3_exchange():
    """Exchange vertex 0 of sd S3 for a fresh label: its link core, sd S2,
    gets a witness of 23 moves from its shelling, and the squares read
    sub-witnesses."""
    sd = derived_subdivision(standard_sphere(3))
    return expand_exchange(sd, (0,), (sd.fresh_vertex(),))


def test_every_witness_reserves_its_labels(monkeypatch):
    """A sub-witness may use labels the session has not handed out yet.
    Each searched sub-witness here starts with a detour that mints the
    session's next label m and removes it again; no label the session
    hands out afterwards may be one a witness already uses."""
    events, sessions = [], []

    class Recording(ExpansionSession):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sessions.append(self)

        def fresh(self):
            v = super().fresh()
            events.append(("fresh", v))
            return v

    real = search_witness

    def detour(L, budget=pachner.expander.DEFAULT_EXPANSION_BUDGET):
        w = real(L, budget)
        if sessions and L.dim >= 0:
            F, m = min(L.facets), sessions[-1]._next
            w = Witness((Exchange(F, (m,)), Exchange((m,), F)) + w.moves)
        events.append(("witness", max((v for mv in w.moves
                                       for v in mv.A + mv.B), default=-1)))
        return w

    monkeypatch.setattr(pachner.expander, "ExpansionSession", Recording)
    monkeypatch.setattr(pachner.expander, "search_witness", detour)
    _sd_sphere3_exchange()
    floor, clashes = -1, []
    for kind, v in events:
        if kind == "witness":
            floor = max(floor, v)
        elif v <= floor:
            clashes.append(v)
    assert sum(kind == "witness" for kind, _ in events) > 1
    assert clashes == []


def test_expansion_nesting_is_bounded_by_the_core_dimension(monkeypatch):
    """The squares of one witness are walked in a loop; only the sides
    of a square nest, on a link of lower dimension.  sd S3's link core
    is a 2-sphere, so the nesting is at most 3 however long the witness
    (23 moves here)."""
    real = pachner.expander._expand
    depth = [0, 0]

    def nesting(*args):
        depth[0] += 1
        depth[1] = max(depth[1], depth[0])
        try:
            return real(*args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(pachner.expander, "_expand", nesting)
    t = _sd_sphere3_exchange()
    assert all(isinstance(mv, Bistellar) for mv in t.moves)
    assert depth[1] <= 3


def test_exchange_expansion_moves_one_working_copy(monkeypatch):
    """One working copy of sd S3 is the ambient of the whole expansion,
    moved by one checked exchange per square side; no square copies the
    complex.  The other copies of 100 or more facets are the exchange's
    result and the certifying replay."""
    built = []
    real_init = _WorkingComplex.__init__

    def counting_init(self, M):
        built.append((type(self), len(M.facets)))
        real_init(self, M)

    monkeypatch.setattr(_WorkingComplex, "__init__", counting_init)
    t = _sd_sphere3_exchange()
    monkeypatch.undo()
    assert sum(kind is _WorkingComplex and n >= 100
               for kind, n in built) <= 3
    assert len(t) == 54
    assert hashlib.sha256(dumps_transcript(t).encode()).hexdigest() == (
        "5af2592db2df1845de127cc4e9f5233bf91995f25f11ec32549ed67e8ded5641")


def test_expansion_relabels_each_witness_move_once_per_walk(monkeypatch):
    """A walk keeps one composed renaming of its witness labels and
    applies it to a witness move only when a square takes that move, so
    it relabels each move it is handed at most once.  Each witness that
    ``ExpansionSession.take`` hands out is walked twice, by its square's
    near and far side.  On sd S3 (54 flips) the walks are handed 23
    moves."""
    calls, handed = [], []
    relabel, expand = (pachner.expander._relabel_witness_move,
                       pachner.expander._expand)

    def counting_relabel(mv, ren):
        calls.append(mv)
        return relabel(mv, ren)

    def counting_expand(S, A, B, core, spheres, wmoves, session):
        handed.append(len(wmoves))
        return expand(S, A, B, core, spheres, wmoves, session)

    monkeypatch.setattr(pachner.expander, "_relabel_witness_move",
                        counting_relabel)
    monkeypatch.setattr(pachner.expander, "_expand", counting_expand)
    t = _sd_sphere3_exchange()
    assert len(t) == 54
    assert 0 < len(calls) <= sum(handed) == 23


@pytest.mark.parametrize("v, flips", [(3, 54), (6, 54), (9, 54)])
def test_sd_sphere3_exchange_flip_counts(v, flips):
    sd = derived_subdivision(standard_sphere(3))
    t = expand_exchange(sd, (v,), (sd.fresh_vertex(),))
    assert len(t) == flips


@pytest.mark.parametrize("v", [0, 7])
def test_sd_sphere4_exchange_replays(v):
    """The link core of a vertex of sd S4 is sd S3, which shells, so the
    exchange for the fresh label 62 expands along the witness read from
    that shelling and replays to the exchange itself."""
    sd = derived_subdivision(standard_sphere(4))
    t = expand_exchange(sd, (v,), (62,))
    assert apply_transcript(sd, t) == apply_move(sd, Exchange((v,), (62,)))


_OPEN_CORES = {
    "a path in a fan": [(0, 1, 2), (0, 2, 3), (0, 3, 4)],
    "two edges": [(0, 1, 2), (0, 3, 4)],
    "a triangle": [(0, 1, 2, 3)],
}


@pytest.mark.parametrize("case", sorted(_OPEN_CORES))
def test_an_open_link_core_is_refused_without_a_search(case, monkeypatch):
    """lk(0) has no simplex-boundary factor and is not closed, so the
    exchange of vertex 0 for a fresh label has no expansion: a named
    refusal before any shelling search."""
    searches = _count_calls(monkeypatch, "find_shelling")
    M = Complex.from_facets(_OPEN_CORES[case])
    with pytest.raises(NoExpansionError, match=(
            r"^link core with f-vector \(.*\) is not closed; this exchange "
            r"has no bistellar expansion$")):
        expand_exchange(M, (0,), (M.fresh_vertex(),))
    assert searches == []


def test_a_fault_in_the_expansion_is_a_runtime_error(monkeypatch):
    """A witness expand_exchange builds is not checked again, so an
    inconsistent one is our fault: its KeyError (the traded simplex
    10**6 is not in the core) surfaces as RuntimeError, not as a
    refusal of the caller's move."""
    bad = Witness((Exchange((10**6,), (10**6 + 1,)),))
    monkeypatch.setattr(pachner.expander, "search_witness",
                        lambda L, budget=None: bad)
    with pytest.raises(RuntimeError, match=r"^exchange expansion failed: "
                       r"\(1000000,\) is not a simplex of the complex$"):
        expand_exchange(suspended_hexagon(), (0,), (8,))


# -- input refusals ------------------------------------------------------------


def _disk():
    return Complex.from_facets([(0, 1, 2), (1, 2, 3), (1, 3, 4)])


def _hexagon_disk():
    return Complex.from_facets([(i, (i + 1) % 6, 6) for i in range(6)])


def _octahedron_exchange(B, witness_moves):
    M = twisted_octahedron()
    return exchange_to_bistellar(
        M, (0,), (9,), LinkFactorization(B, M.link((0,))),
        Witness(witness_moves))


_REFUSALS = {
    "shelling from a non-facet": (
        lambda: join_boundary_shelling(0, standard_sphere(2),
                                       ShellingSequence((), (0, 1, 2),
                                                        (0, 1, 9))),
        r"shelling: initial \[0 1 9\] is not a facet"),
    "shelling to the wrong facet": (
        lambda: join_boundary_shelling(
            0, _disk(), ShellingSequence(find_shelling(_disk()).steps,
                                         (9, 10, 11))),
        r"shelling does not end at its terminal facet"),
    "join with r < 0": (
        lambda: join_boundary_shelling(-1, _disk(), find_shelling(_disk())),
        r"r must be nonnegative"),
    "join with too few labels": (
        lambda: join_boundary_shelling(2, _disk(), find_shelling(_disk()),
                                       labels=(7, 8)),
        r"need 3 distinct labels, got 2"),
    "join labels on the base": (
        lambda: join_boundary_shelling(1, _disk(), find_shelling(_disk()),
                                       labels=(4, 9)),
        r"simplex labels collide with the base complex"),
    "interior vertex as apex": (
        lambda: ball_to_cone_transcript(
            _hexagon_disk(), find_shelling(_hexagon_disk()), 6),
        r"apex 6 already labels a vertex of the ball"),
    "starring the empty simplex": (
        lambda: star_move_transcript(standard_sphere(2), ()),
        r"illegal move STAR \[\] 4: A must be nonempty"),
    "starring an absent simplex": (
        lambda: star_move_transcript(standard_sphere(2), (0, 9)),
        r"illegal move STAR \[0 9\] 4: A = \[0 9\] is not in the complex"),
    "starring at a label in use": (
        lambda: star_move_transcript(standard_sphere(2), (0, 1), at=3),
        r"illegal move STAR \[0 1\] 3: B = \[3\] is already in the complex"),
    "a flip among the starrings": (
        lambda: subdivision_to_bistellar(
            standard_sphere(2),
            Transcript((Star((0, 1), 4), Bistellar((0, 2, 3), (5,))))),
        r"move 1 is not a starring: FLIP \[0 2 3\] ; \[5\]"),
    "a stray witness move": (
        lambda: _octahedron_exchange((9,), (Star((2, 4), 8),)),
        r"witness move 0 is not an exchange: STAR \[2 4\] 8"),
    "a factorization of another B": (
        lambda: _octahedron_exchange((8,), (Exchange((2,), (4, 5)),)),
        r"factorization B-part differs from the move"),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_expander_refuses_bad_input(case):
    """Each refusal raises ValueError with its message, before any
    expansion work."""
    call, message = _REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
