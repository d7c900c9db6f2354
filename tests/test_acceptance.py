"""Top-level acceptance suite: ten numbered end-to-end guarantees, one
test -- hence one pass/fail line under `pytest -v` -- per criterion.

Seeds, budgets, and wall-clock tolerances are pinned here as constants;
every expected value is either trivially forced, frozen from an
independent oracle computed inside this file or conftest, or asserted
as an exact invariant of the library's own replay checks.
"""

import itertools
import random
import time

from conftest import csaszar_torus, flag_subdivision, shellable_ball_fixtures
from pachner import (
    Bistellar,
    Complex,
    LinkFactorization,
    Shell,
    Star,
    Witness,
    apply_move,
    apply_transcript,
    ball_to_cone_transcript,
    check_move,
    derived_subdivision,
    dump_complex,
    enumerate_moves,
    exchange_to_bistellar,
    find_shelling,
    full_simplex,
    homology,
    invert,
    is_simplex_boundary,
    prove_equivalent,
    recognize_ball_or_sphere,
    replay_shelling,
    simplex_boundary,
    star_move_transcript,
)
from pachner.cli import main as cli_main
from walk import seeded_walk

SOUNDNESS_SEED = 1001
SOUNDNESS_STEPS = 500          # legal moves per fixture
SOUNDNESS_CAP = 11             # soft vertex cap keeping walks at desk scale
SOUNDNESS_BUDGET_S = 30.0

INVERSION_SEED = 2002
INVERSION_STEPS = 200          # legal moves per fixture

EQUIV_MOVE_BUDGET = 10_000     # the default schedule's max_moves
EQUIV_BUDGET_S = 60.0

SHELLING_CALL_BUDGET_S = 1.0

SHELL_NOTE_SEED = 8008
SHELL_NOTE_MOVES = 100

CORPUS_SAMPLE_SEED = 9009
CORPUS_SAMPLE_SIZE = 3000


def _fixtures():
    return (simplex_boundary(range(4)),   # 2-sphere
            simplex_boundary(range(5)),   # 3-sphere
            csaszar_torus())              # 7-vertex torus


def test_criterion_01_moves_preserve_homology():
    start = time.monotonic()
    for M in _fixtures():
        expected = homology(M)
        steps = 0
        for _, M in seeded_walk(M, SOUNDNESS_STEPS, seed=SOUNDNESS_SEED,
                                cap=SOUNDNESS_CAP):
            assert homology(M) == expected
            steps += 1
        assert steps == SOUNDNESS_STEPS
    assert time.monotonic() - start < SOUNDNESS_BUDGET_S


def test_criterion_02_inversion_round_trips_exactly():
    for M in _fixtures():
        previous = M
        steps = 0
        for move, after in seeded_walk(M, INVERSION_STEPS,
                                       seed=INVERSION_SEED,
                                       cap=SOUNDNESS_CAP):
            assert apply_move(after, invert(move)) == previous
            previous = after
            steps += 1
        assert steps == INVERSION_STEPS


def test_criterion_03_certificate_sphere_vs_first_subdivision():
    start = time.monotonic()
    S = simplex_boundary(range(4))
    sd = derived_subdivision(S)
    assert sd.f_vector().counts == (14, 36, 24)
    assert flag_subdivision(S).f_vector().counts == (14, 36, 24)
    certificate = prove_equivalent(S, sd)   # documented default schedule
    assert certificate is not None
    assert len(certificate.transcript1) <= EQUIV_MOVE_BUDGET
    assert len(certificate.transcript2) <= EQUIV_MOVE_BUDGET
    left = apply_transcript(S, certificate.transcript1)
    right = apply_transcript(sd, certificate.transcript2)
    assert left.relabel(certificate.mapping()) == right
    assert time.monotonic() - start < EQUIV_BUDGET_S


def test_criterion_04_ball_to_cone_replays_each_fixture_ball():
    for name, X in shellable_ball_fixtures():
        sh = find_shelling(X)
        assert sh is not None and sh.initial is None, name
        v = X.fresh_vertex()
        cone = X.boundary().join(full_simplex((v,)))
        transcript = ball_to_cone_transcript(X, sh, v)
        assert apply_transcript(cone, transcript) == X, name
        assert len(transcript.moves) == len(X.facets), name


def test_criterion_05_star_expansion_for_every_simplex():
    for M in (simplex_boundary(range(4)), simplex_boundary(range(5))):
        fresh = M.fresh_vertex()
        for A in sorted(f for f in M.faces() if f):
            transcript = star_move_transcript(M, A)
            assert apply_transcript(M, transcript) == apply_move(
                M, Star(A, fresh))
            if A in M.facets:
                assert len(transcript.moves) == 1


def test_criterion_06_exchange_base_case_is_one_flip():
    trivial = Complex.from_facets([])
    for M in (simplex_boundary(range(4)), simplex_boundary(range(5))):
        flips = enumerate_moves(M, "bistellar")
        assert flips
        for move in flips:
            report = check_move(M, move)
            assert report.legal and report.link_factor == trivial
            transcript = exchange_to_bistellar(
                M, move.A, move.B,
                LinkFactorization(move.B, trivial), Witness(()))
            assert transcript.moves == (Bistellar(move.A, move.B),)


def test_criterion_07_shellings_of_simplex_spheres_and_balls():
    for n in range(1, 6):
        S = simplex_boundary(range(n + 1))
        start = time.monotonic()
        sh = find_shelling(S)
        assert time.monotonic() - start < SHELLING_CALL_BUDGET_S
        assert sh is not None and sh.initial is not None
        assert len(replay_shelling(S, sh).facets) == 1

        ball = Complex.from_facets(set(S.facets) - {S.facet_list()[-1]})
        start = time.monotonic()
        sh = find_shelling(ball)
        assert time.monotonic() - start < SHELLING_CALL_BUDGET_S
        assert sh is not None and sh.initial is None
        assert len(replay_shelling(ball, sh).facets) == 1


def _boundary_flip_witnesses(before, after):
    """Every bistellar move carrying `before` exactly onto `after`.

    enumerate_moves canonicalises new-vertex flips to the one fresh
    label, so for exact equality the singleton-B flips are also tried
    with each label that `after` actually introduces."""
    flips = list(enumerate_moves(before, "bistellar"))
    fresh = before.fresh_vertex()
    introduced = sorted(set(after.vertices()) - set(before.vertices()))
    for flip in list(flips):
        if flip.B == (fresh,):
            flips.extend(Bistellar(flip.A, (w,))
                         for w in introduced if w != fresh)
    return [flip for flip in flips if apply_move(before, flip) == after]


def test_criterion_08_shelling_flips_the_boundary():
    balls = [(name, X) for name, X in shellable_ball_fixtures()
             if X.dim == 3]
    checked = 0
    for name, X in reversed(balls):
        previous = X
        for move, after in seeded_walk(X, 600, seed=SHELL_NOTE_SEED,
                                       families=("shell", "unshell"),
                                       cap=12):
            if isinstance(move, Shell):
                witnesses = _boundary_flip_witnesses(
                    previous.boundary(), after.boundary())
                assert witnesses, (name, move)
                assert Bistellar(move.B, move.A) in witnesses, (name, move)
                checked += 1
            previous = after
            if checked >= SHELL_NOTE_MOVES:
                break
        if checked >= SHELL_NOTE_MOVES:
            break
    assert checked >= SHELL_NOTE_MOVES


# -- criterion 9: recognition vs a from-scratch classifier ----------------


def _union_find_components(vertices, edges):
    parent = {v: v for v in vertices}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(v) for v in vertices})


def _graph_is_cycle_or_path(edges):
    """Classify a nonempty connected graph by degrees: 'cycle', 'path',
    or None (vertex degrees above two, or wrong degree-one count)."""
    degree = {}
    for e in edges:
        for v in e:
            degree[v] = degree.get(v, 0) + 1
    if any(d > 2 for d in degree.values()):
        return None
    ones = sum(1 for d in degree.values() if d == 1)
    if ones == 0:
        return "cycle"
    if ones == 2:
        return "path"
    return None


def _oracle_shape(generators):
    """Brute-force ball/sphere verdict for a complex of dimension <= 2,
    given by generating faces: pure Euler/degree/link-condition counting,
    written independently of the library's recognizer."""
    faces = {()}
    for F in generators:
        for k in range(1, len(F) + 1):
            faces.update(itertools.combinations(F, k))
    vertices = sorted({v for f in faces for v in f})
    edges = [f for f in faces if len(f) == 2]
    triangles = [f for f in faces if len(f) == 3]
    maximal = [f for f in faces
               if f and not any(f != g and set(f) < set(g) for g in faces)]
    dim = max(len(f) for f in faces) - 1
    if dim == -1:
        return "Sphere"
    if dim == 0:
        if len(vertices) == 1:
            return "Ball"
        return "Sphere" if len(vertices) == 2 else "Other"
    if any(len(f) != dim + 1 for f in maximal):
        return "Other"          # not pure
    if _union_find_components(vertices, edges) != 1:
        return "Other"
    chi = len(vertices) - len(edges) + len(triangles)
    if dim == 1:
        shape = _graph_is_cycle_or_path(edges)
        if shape == "cycle":
            return "Sphere"
        return "Ball" if shape == "path" else "Other"
    edge_degree = {}
    for t in triangles:
        for e in itertools.combinations(t, 2):
            edge_degree[e] = edge_degree.get(e, 0) + 1
    if any(d > 2 for d in edge_degree.values()):
        return "Other"
    for v in vertices:
        link_edges = [tuple(w for w in t if w != v)
                      for t in triangles if v in t]
        if _graph_is_cycle_or_path(link_edges) is None:
            return "Other"
        if _union_find_components(
                sorted({w for e in link_edges for w in e}),
                link_edges) != 1:
            return "Other"
    closed = all(d == 2 for d in edge_degree.values())
    if closed:
        return "Sphere" if chi == 2 else "Other"
    return "Ball" if chi == 1 else "Other"


def _corpus():
    """The exhaustive-by-stratum verification corpus (see module doc):
    every pure 2-complex on five labeled vertices, every graph on five
    and on six, every triangle set on six vertices with all edge degrees
    at most two (complete backtracking enumeration -- this stratum
    contains every candidate surface), point clouds, and a seeded random
    sample of mixed 6-vertex complexes."""
    tris5 = list(itertools.combinations(range(5), 3))
    for mask in range(1 << len(tris5)):
        yield [t for i, t in enumerate(tris5) if mask >> i & 1]
    edges5 = list(itertools.combinations(range(5), 2))
    for mask in range(1 << len(edges5)):
        yield [e for i, e in enumerate(edges5) if mask >> i & 1]
    edges6 = list(itertools.combinations(range(6), 2))
    for mask in range(1 << len(edges6)):
        yield [e for i, e in enumerate(edges6) if mask >> i & 1]

    tris6 = list(itertools.combinations(range(6), 3))
    tri_edges = [tuple(itertools.combinations(t, 2)) for t in tris6]
    chosen = []
    degree = {}

    def capped_sets(i):
        if i == len(tris6):
            yield list(chosen)
            return
        yield from capped_sets(i + 1)
        if all(degree.get(e, 0) < 2 for e in tri_edges[i]):
            for e in tri_edges[i]:
                degree[e] = degree.get(e, 0) + 1
            chosen.append(tris6[i])
            yield from capped_sets(i + 1)
            chosen.pop()
            for e in tri_edges[i]:
                degree[e] -= 1

    yield from capped_sets(0)

    for k in range(1, 7):
        yield [(v,) for v in range(k)]

    rng = random.Random(CORPUS_SAMPLE_SEED)
    for _ in range(CORPUS_SAMPLE_SIZE):
        sample = rng.sample(tris6, rng.randint(0, 6))
        sample += rng.sample(edges6, rng.randint(0, 5))
        if rng.random() < 0.3:
            sample.append((rng.randrange(6),))
        yield sample


def test_criterion_09_recognition_matches_brute_force():
    """Every verdict matches the oracle, and every sphere's evidence
    replays to a simplex boundary in one flip per facet but one (none
    when the sphere already is a simplex boundary)."""
    seen = spheres = 0
    for generators in _corpus():
        expected = _oracle_shape(generators)
        K = Complex.from_facets(generators)
        verdict = recognize_ball_or_sphere(K)
        assert verdict.value == expected, generators
        seen += 1
        if expected == "Sphere":
            spheres += 1
            end = apply_transcript(K, verdict.evidence)
            assert is_simplex_boundary(end), generators
            flips = 0 if is_simplex_boundary(K) else len(K.facets) - 1
            assert len(verdict.evidence) == flips, generators
    assert seen > 70_000
    assert spheres == 588


def test_criterion_10_artifacts_are_byte_identical(tmp_path):
    sphere_file = tmp_path / "sphere.cx"
    dump_complex(simplex_boundary(range(4)), str(sphere_file))
    subdivided_file = tmp_path / "subdivided.cx"
    dump_complex(derived_subdivision(simplex_boundary(range(4))),
                 str(subdivided_file))
    big_sphere_file = tmp_path / "big-sphere.cx"
    dump_complex(simplex_boundary(range(6)), str(big_sphere_file))

    outs = []
    for run in ("one", "two"):
        out = tmp_path / f"equiv-{run}"
        assert cli_main(["prove-equiv", str(sphere_file),
                         str(subdivided_file), "--out", str(out)]) == 0
        outs.append(out)
    for name in ("left.tr", "right.tr"):
        assert ((outs[0] / name).read_bytes()
                == (outs[1] / name).read_bytes())

    outs = []
    for run in ("one", "two"):
        out = tmp_path / f"shelling-{run}"
        assert cli_main(["shell-find", str(big_sphere_file),
                         "--out", str(out)]) == 0
        outs.append(out)
    assert ((outs[0] / "shelling.tr").read_bytes()
            == (outs[1] / "shelling.tr").read_bytes())
