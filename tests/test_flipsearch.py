"""Seeded annealing reducer: determinism, certificates, feasibility.

The SplitMix64 outputs below are frozen from an independent
implementation of the published algorithm (seed 0 reproduces the
well-known reference sequence e220a8397b1dcdaf, ...)."""

import hashlib
import time

import pytest

import pachner.flipsearch
import pachner.moves
from pachner.core import (
    Complex,
    full_simplex,
    is_simplex_boundary,
    isomorphic,
    simplex_boundary,
    standard_sphere,
)
from pachner.flipsearch import (
    Certificate,
    Schedule,
    SplitMix64,
    prove_equivalent,
    reduce,
)
from pachner.moves import (
    _FlipState,
    Bistellar,
    Shell,
    IllegalMoveError,
    apply_transcript,
    derived_subdivision,
    dumps_transcript,
    enumerate_moves,
    apply_move,
)

from conftest import brute_force_flips, csaszar_torus, pinched_complex


def test_splitmix64_reference_sequence():
    g = SplitMix64(0)
    assert [g.next64() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]
    g = SplitMix64(1729)
    assert [g.next64() for _ in range(3)] == [
        13846267205009437076,
        5642263741756082137,
        10794080554430532006,
    ]


def test_splitmix64_uniform_and_randrange():
    g = SplitMix64(0)
    u = [g.uniform() for _ in range(100)]
    assert all(0.0 <= x < 1.0 for x in u)
    assert u[0] == pytest.approx(0.8833108082136426, abs=0)
    g = SplitMix64(7)
    a = [g.randrange(10) for _ in range(50)]
    g = SplitMix64(7)
    b = [g.randrange(10) for _ in range(50)]
    assert a == b
    assert all(0 <= x < 10 for x in a)
    assert len(set(a)) > 3


def test_schedule_defaults_are_pinned():
    s = Schedule()
    assert (s.seed, s.max_moves, s.temp, s.decay) == (1729, 10_000, 2.0, 0.95)


def test_reduce_fixed_point_on_simplex_boundary(sphere2):
    end, t = reduce(sphere2)
    assert end == sphere2
    assert len(t) == 0


def test_reduce_starred_sphere(sphere2):
    grown = apply_move(sphere2, enumerate_moves(sphere2, "bistellar")[0])
    end, t = reduce(grown, Schedule(seed=5, max_moves=500))
    assert is_simplex_boundary(end)
    assert apply_transcript(grown, t) == end


def test_reduce_is_deterministic(sphere2):
    sd = derived_subdivision(sphere2)
    sched = Schedule(seed=99, max_moves=3000)
    end1, t1 = reduce(sd, sched)
    end2, t2 = reduce(sd, sched)
    assert end1 == end2
    assert dumps_transcript(t1) == dumps_transcript(t2)


def test_reduce_subdivided_sphere_at_default_schedule(sphere2):
    """The default (seed, schedule) must crush the derived subdivision
    of the tetrahedron boundary back to a simplex boundary."""
    sd = derived_subdivision(sphere2)
    t0 = time.monotonic()
    end, t = reduce(sd)
    elapsed = time.monotonic() - t0
    assert is_simplex_boundary(end)
    assert apply_transcript(sd, t) == end
    assert elapsed < 30.0


def test_reduce_torus_never_reaches_simplex_boundary(torus7):
    end, t = reduce(torus7, Schedule(seed=3, max_moves=400))
    assert not is_simplex_boundary(end)
    assert apply_transcript(torus7, t) == end
    assert len(end.facets) <= len(torus7.facets)


def test_prove_equivalent_sphere_and_subdivision(sphere2):
    sd = derived_subdivision(sphere2)
    cert = prove_equivalent(sphere2, sd)
    assert isinstance(cert, Certificate)
    end1 = apply_transcript(sphere2, cert.transcript1)
    end2 = apply_transcript(sd, cert.transcript2)
    assert end1.relabel(cert.mapping()) == end2
    assert isomorphic(end1, end2) is not None


def _replays(cert, M1, M2, kind):
    """Both transcripts hold moves of one kind and replay to ends that
    the bijection identifies."""
    moves = cert.transcript1.moves + cert.transcript2.moves
    assert moves and all(type(mv) is kind for mv in moves)
    end1 = apply_transcript(M1, cert.transcript1)
    end2 = apply_transcript(M2, cert.transcript2)
    assert end1.relabel(cert.mapping()) == end2
    return end1


@pytest.mark.parametrize("n, flips", [(3, 119), (4, 719)])
def test_prove_equivalent_shells_spheres_into_flips(n, flips):
    S = standard_sphere(n)
    sd = derived_subdivision(S)
    cert = prove_equivalent(S, sd, Schedule(max_moves=0))
    assert cert.path == "shelling"
    assert (len(cert.transcript1), len(cert.transcript2)) == (0, flips)
    assert is_simplex_boundary(_replays(cert, S, sd, Bistellar))


def test_prove_equivalent_shells_balls():
    strip = Complex.from_facets([(i, i + 1, i + 2) for i in range(12)])
    triangle = full_simplex((0, 1, 2))
    cert = prove_equivalent(strip, triangle, Schedule(max_moves=0))
    assert cert.path == "shelling"
    assert (len(cert.transcript1), len(cert.transcript2)) == (11, 0)
    end = _replays(cert, strip, triangle, Shell)
    assert len(end.facets) == 1


def test_prove_equivalent_shells_past_the_recognition_budget():
    """A strip of 4,100 triangles needs a shelling node per facet;
    prove-equiv shells within the shell-find default, which recognition
    shares, and certifies it by 4,099 Shell moves, with no annealing.  Replaying that many Shell moves is quadratic, so the
    certificate is not replayed here."""
    strip = Complex.from_facets([(i, i + 1, i + 2) for i in range(4100)])
    cert = prove_equivalent(strip, full_simplex((0, 1, 2)),
                            Schedule(max_moves=1))
    assert cert.path == "shelling"
    assert (len(cert.transcript1), len(cert.transcript2)) == (4099, 0)
    assert all(type(mv) is Shell for mv in cert.transcript1)


def _annealed(monkeypatch):
    """The pairs prove_equivalent anneals, recorded as it goes."""
    pairs = []
    real = pachner.flipsearch._anneal_pair

    def recording(M1, M2, schedule):
        pairs.append((M1, M2))
        return real(M1, M2, schedule)

    monkeypatch.setattr(pachner.flipsearch, "_anneal_pair", recording)
    return pairs


def test_prove_equivalent_anneals_a_ball_without_shelling(monkeypatch):
    """Three triangles on one edge have a disk's homology, but the edge
    lies in three facets, so they have no shelling: the pair falls back
    to annealing, which finds no certificate."""
    fan = Complex.from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    triangle = full_simplex((0, 1, 2))
    annealed = _annealed(monkeypatch)
    assert prove_equivalent(fan, triangle) is None
    assert annealed == [(fan, triangle)]


def test_prove_equivalent_anneals_when_shelling_runs_out(monkeypatch):
    """With a one-node shelling budget, sd S3 cannot be shelled, so
    S3 ~ sd S3 falls back to annealing; the default schedule finds no
    certificate for it."""
    S = standard_sphere(3)
    sd = derived_subdivision(S)
    monkeypatch.setattr(pachner.flipsearch, "DEFAULT_SHELLING_BUDGET", 1)
    annealed = _annealed(monkeypatch)
    assert prove_equivalent(S, sd) is None
    assert annealed == [(S, sd)]


def test_prove_equivalent_anneals_what_does_not_shell(torus7):
    moved = torus7.relabel({v: v + 10 for v in torus7.vertices()})
    cert = prove_equivalent(torus7, moved)
    assert cert.path == "annealing"
    end1 = apply_transcript(torus7, cert.transcript1)
    assert end1.relabel(cert.mapping()) == apply_transcript(
        moved, cert.transcript2)


def test_prove_equivalent_screens_homology(sphere2, torus7):
    assert prove_equivalent(sphere2, torus7) is None


def test_prove_equivalent_screens_dimension(sphere2, sphere3):
    assert prove_equivalent(sphere2, sphere3) is None


def test_prove_equivalent_is_deterministic(sphere2):
    sd = derived_subdivision(sphere2)
    c1 = prove_equivalent(sphere2, sd)
    c2 = prove_equivalent(sphere2, sd)
    assert dumps_transcript(c1.transcript2) == dumps_transcript(c2.transcript2)
    assert c1.bijection == c2.bijection


# -- the incremental flip state against the enumeration oracle ----------


def _relabelled(K, seed):
    labels = list(K.vertices())
    rng = SplitMix64(seed)
    for i in range(len(labels) - 1, 0, -1):
        j = rng.randrange(i + 1)
        labels[i], labels[j] = labels[j], labels[i]
    return K.relabel({v: 3 * w + 5 for v, w in zip(K.vertices(), labels)})


WALKS = {
    "relabelled sd S3": lambda: _relabelled(
        derived_subdivision(standard_sphere(3)), 11),
    "Csaszar torus": csaszar_torus,
    "bounded: sd of a 3-simplex": lambda: derived_subdivision(
        full_simplex(range(4))),
    "impure": lambda: Complex.from_facets(
        [(0, 1, 2), (1, 2, 3), (2, 3, 4, 5), (5, 6), (6, 7), (5, 7), (8,)]),
    "sd S4": lambda: derived_subdivision(standard_sphere(4)),
    # in dimension 1 every face but a facet is a vertex, so every link
    # is read from the incidence
    "circle": lambda: Complex.from_facets(
        [(i, (i + 1) % 7) for i in range(7)]),
    # vertices 0 and 1 joined by paths of 2, 3 and 4 edges
    "theta graph": lambda: Complex.from_facets(
        [(0, 2), (1, 2), (0, 3), (3, 4), (1, 4),
         (0, 5), (5, 6), (6, 7), (1, 7)]),
}
# every step builds a fresh state and a new complex with thousands of
# faces
WALK_STEPS = {"sd S4": 30}


def _counted(K):
    """K's f-vector counted from a face closure, on a copy of K that no
    flip state has filled."""
    return Complex.from_facets(K.facets).f_vector()


def _assert_faces_kept(state, K):
    """The working state keeps, on each face of K of two or more
    vertices (the facets among them) and on no other key, the facets of
    st(A, K), each once; its incidence holds the star of every vertex, a
    point facet's too; and it keeps K's f-vector."""
    faces = {A for A in K.faces() if len(A) > 1}
    assert state._on.keys() == faces
    for A in faces:
        star = state._on[A]
        assert len(star) == len(set(star))
        assert set(star) == set(K.star(A).facets)
    assert state._by_vertex.keys() == set(K.vertices())
    for v, star in state._by_vertex.items():
        assert star == set(K.star((v,)).facets)
    assert tuple(state._sizes[1:]) == _counted(K).counts


@pytest.mark.parametrize("name", sorted(WALKS))
def test_flip_state_matches_enumeration_along_seeded_walks(name):
    """After every step of a seeded walk (300 steps, 30 on sd S4) the
    working state lists exactly what a fresh state of the complex the
    apply_move chain reaches lists, enumerate_moves(cur, "bistellar"),
    keeps its faces in sorted order and holds that complex, with the
    facets on each of its faces and its f-vector; a list it
    returned is unchanged by the next flip and listing.  The f-vectors
    the state fills, of the walk's input and of each complex it returns,
    are those a face closure counts.  On the first and the last complex
    both lists are the brute-force filter's.  Moves that add facets are
    only taken while the complex has below 1.25 times its starting
    facet count."""
    start = cur = WALKS[name]()
    assert enumerate_moves(cur, "bistellar") == brute_force_flips(cur)
    state = _FlipState(cur)
    cap = len(cur.facets) * 5 // 4
    rng = SplitMix64(len(name))
    held = None  # the list before the last flip, and a copy of it
    for _ in range(WALK_STEPS.get(name, 300)):
        listed = enumerate_moves(state, "bistellar")
        if held:
            assert held[0] == held[1]
        held = listed, list(listed)
        assert listed == enumerate_moves(cur, "bistellar")
        L = state._links
        assert state._legal == [(A, L[A]) for A in sorted(L)
                                if L[A] not in state._on]
        assert state.complex() == cur
        _assert_faces_kept(state, cur)
        counted = _counted(cur)
        assert state.complex().f_vector() == counted
        assert start.f_vector() == _counted(start)
        assert state.objective() == tuple(reversed(counted.counts))
        assert is_simplex_boundary(state) == is_simplex_boundary(cur)
        moves = listed
        if len(cur.facets) >= cap:
            moves = [mv for mv in moves if len(mv.A) <= len(mv.B)]
        mv = moves[rng.randrange(len(moves))]
        assert apply_move(state, mv) is state
        cur = apply_move(cur, mv)
    assert state.complex() == cur
    _assert_faces_kept(state, cur)
    L = state._links
    assert state._legal == [(A, L[A]) for A in sorted(L) if L[A] not in state._on]
    assert enumerate_moves(state, "bistellar") == brute_force_flips(cur)


def _simplex_boundary_links(K):
    """Every nonempty face of K whose link, built by closure, is a
    simplex boundary, with the link's vertices."""
    links = {}
    for A in K.faces():
        if A and is_simplex_boundary(K.link(A)):
            links[A] = K.link(A).vertices()
    return links


def _bipyramid():
    """The suspension of d[1 2 3] with poles 0 and 4: both poles flip
    onto the absent triangle [1 2 3]."""
    return simplex_boundary((0, 4)).join(simplex_boundary((1, 2, 3)))


COUNT_RULE_FIXTURES = {
    "boundary of the 3-simplex": lambda: standard_sphere(2),
    "bipyramid": _bipyramid,
    # poles 0 and 1 over the 6-cycle 2-3-4-5-6-7
    "suspended hexagon": lambda: simplex_boundary((0, 1)).join(
        Complex.from_facets([(i, 2 + (i - 1) % 6) for i in range(2, 8)])),
    "Csaszar torus": csaszar_torus,
    "three triangles on one edge": lambda: Complex.from_facets(
        [(0, 1, 2), (0, 1, 3), (0, 1, 4)]),
    # vertex 0 lies in n = 4 facets whose link has 4 vertices, but the
    # facets have 3 and 2 vertices, not 1 + n - 1
    "impure: a face in facets of two sizes": lambda: Complex.from_facets(
        [(0, 1, 2), (0, 1, 3), (0, 2, 3), (0, 4), (5, 6, 7, 8, 9)]),
    # vertex 0 lies in two facets, each two vertices larger: no link
    "bowtie": lambda: Complex.from_facets([(0, 1, 2), (0, 3, 4)]),
    # vertex 0 lies in two facets of two different sizes: no link; the
    # state meets the edge on vertex 0 first in one labelling, the
    # triangle first in the other
    "two facets of two sizes on a vertex": lambda: Complex.from_facets(
        [(0, 1, 2), (0, 3)]),
    "two facets of two sizes on a vertex, relabelled": lambda:
        Complex.from_facets([(0, 1), (0, 2, 3)]),
    "single simplex": lambda: full_simplex(range(4)),
    "pinched": pinched_complex,
    "disjoint union": lambda: Complex.from_facets(
        [*standard_sphere(1).facets, *standard_sphere(2, offset=3).facets,
         (7, 8, 9, 10)]),
}


@pytest.mark.parametrize("name", sorted(COUNT_RULE_FIXTURES))
def test_flip_state_counts_agree_with_closure_links(name):
    """The links the working state reads from the facets on each face
    are those whose closure is a simplex boundary, and the facets it
    keeps on each face are the face's star: at construction and after
    each of 20 seeded flips, after each of which the state also lists
    what a fresh state of its complex lists."""
    state = _FlipState(COUNT_RULE_FIXTURES[name]())
    rng = SplitMix64(len(name))
    assert state._links == _simplex_boundary_links(state.complex())
    _assert_faces_kept(state, state.complex())
    for _ in range(20):
        moves = state.moves()
        apply_move(state, moves[rng.randrange(len(moves))])
        assert state._links == _simplex_boundary_links(state.complex())
        _assert_faces_kept(state, state.complex())
        assert list(enumerate_moves(state, "bistellar")) == enumerate_moves(
            state.complex(), "bistellar")


def test_flip_state_of_trivial_complexes():
    """{-} has the empty facet and no nonempty face, so its state keeps
    no link and lists no flip; two points each flip to the fresh vertex
    2, as facets, and nothing else does."""
    trivial = simplex_boundary(())
    state = _FlipState(trivial)
    assert state._on == {} and state._links == {}
    assert state._legal == [] and state._onto == {}
    assert list(state.moves()) == [] == enumerate_moves(trivial, "bistellar")
    points = Complex.from_facets([(0,), (1,)])
    state = _FlipState(points)
    assert state._links == {(0,): (), (1,): ()}
    assert state._legal == [((0,), ()), ((1,), ())]
    assert list(state.moves()) == [Bistellar((0,), (2,)),
                                   Bistellar((1,), (2,))]
    assert enumerate_moves(points, "bistellar") == brute_force_flips(points)


def test_flip_state_is_built_without_tallying_a_facet(monkeypatch):
    """The state is built in one pass over the faces of the facets: on
    sd S3 no facet goes through _FlipState._tally, which a flip uses to
    insert and remove facets (one call per facet, 120, when the state
    was built by inserting the facets one at a time)."""
    sd = derived_subdivision(standard_sphere(3))
    tallied = []
    real = _FlipState._tally

    def counting(self, f, step):
        tallied.append(f)
        real(self, f, step)

    monkeypatch.setattr(_FlipState, "_tally", counting)
    state = _FlipState(sd)
    assert tallied == []
    assert state.complex() == sd
    _assert_faces_kept(state, sd)
    apply_move(state, state.moves()[0])
    assert tallied


def test_flips_onto_a_face_leave_and_join_where_it_changes(monkeypatch):
    """On the bipyramid both poles flip onto [1 2 3].  The flip at 0
    inserts [1 2 3], so the flip at 4 leaves the list though no face of
    vertex 4 is re-tested; the facet flip of [1 2 3] to the fresh vertex
    5 removes it, and the flip at 4 is listed again."""
    state = _FlipState(_bipyramid())
    retested = []
    real = _FlipState._retest

    def recording(self, faces):
        faces = list(faces)
        retested.extend(faces)
        return real(self, faces)

    monkeypatch.setattr(_FlipState, "_retest", recording)

    def listed():
        return {(mv.A, mv.B) for mv in enumerate_moves(state, "bistellar")}

    pole4 = ((4,), (1, 2, 3))
    assert {((0,), (1, 2, 3)), pole4} <= listed()
    apply_move(state, Bistellar((0,), (1, 2, 3)))
    assert pole4 not in listed()
    assert retested and not any(4 in A for A in retested)
    apply_move(state, Bistellar((1, 2, 3), (5,)))
    assert pole4 in listed()
    assert listed() == {(mv.A, mv.B) for mv in brute_force_flips(
        state.complex())}


def test_reduce_builds_at_most_one_flip_per_proposal(monkeypatch):
    """A walk's listing builds a Bistellar only for the flip it draws:
    on sd S3 under seed 12, 400 proposals build at most 400, where a
    list of every legal flip after each accepted flip built about 360
    per flip."""
    sd = derived_subdivision(standard_sphere(3))
    built = []
    real = Bistellar.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        real(self, *args, **kwargs)

    monkeypatch.setattr(Bistellar, "__init__", counting)
    end, t = reduce(sd, Schedule(seed=12, max_moves=400))
    assert len(t) == 26
    assert len(built) <= 400


def test_flip_state_rejects_a_flip_it_does_not_list():
    """apply_move on the working state raises IllegalMoveError for any
    flip outside its list and leaves the state as it was; it
    enumerates bistellar moves only."""
    torus = csaszar_torus()
    state = _FlipState(torus)
    facet = min(torus.facets)
    edge = min(f for f in torus.faces() if len(f) == 2)
    fresh = torus.fresh_vertex()
    listed = {mv.A: mv.B for mv in enumerate_moves(state, "bistellar")}
    for mv in (Bistellar(edge, (fresh,)),        # lk(edge) is not d[fresh]
               Bistellar(facet, (fresh + 1,)),   # legal, but not canonical
               Bistellar(facet, (facet[0],)),    # B present
               Bistellar((fresh,), (0, 1)),      # A absent
               pachner.moves.Star(facet, fresh)):
        assert listed.get(mv.A) != getattr(mv, "B", None)
        with pytest.raises(IllegalMoveError):
            apply_move(state, mv)
        assert state.complex() == torus
    with pytest.raises(ValueError):
        enumerate_moves(state, "shell")


def test_reduce_checks_no_move(monkeypatch):
    """The working state proposes only legal flips and checks a flip by
    lookups, so reduce never calls check_move."""
    sd = derived_subdivision(standard_sphere(3))
    checked = []
    real = pachner.moves.check_move

    def counting(M, move):
        checked.append(move)
        return real(M, move)

    monkeypatch.setattr(pachner.moves, "check_move", counting)
    end, t = reduce(sd, Schedule(seed=12, max_moves=400))
    assert checked == []
    monkeypatch.undo()
    assert apply_transcript(sd, t) == end


def test_reduce_transcript_is_pinned():
    """sd S3 under seed 12: the seeded transcript, pinned by digest."""
    sd = derived_subdivision(standard_sphere(3))
    end, t = reduce(sd, Schedule(seed=12, max_moves=400))
    assert (len(t), len(end.facets)) == (26, 110)
    assert hashlib.sha256(dumps_transcript(t).encode()).hexdigest() == (
        "88aeb272abdd394337d923d8b423f0c0ffc982b63fe481c3139814855e3c3e33")
