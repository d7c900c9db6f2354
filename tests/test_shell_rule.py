"""The shelling rule for Shell and Unshell against the face-set tests
it replaced, and shell, unshell and flip enumeration against
brute-force filters over the same corpus.

The reference functions below are the definitions written out on face
sets: Shell(A, B) removes the facet F = A * B when closure(A) meets the
boundary exactly in dA, B * dA lies in the boundary, and F meets the
rest exactly in A * dB; Unshell(A, B) glues F when it meets the complex
exactly in A * dB and Shell undoes it.  They take sorted A and B.  The
rule under test computes each facet's one split once, and Unshell is
Shell on the glued complex."""

import itertools
import random
from collections import Counter

import pachner.moves
from conftest import brute_force_flips, pinched_complex, shellable_ball_fixtures
from pachner.core import (
    Complex,
    NotPseudomanifoldError,
    full_simplex,
    simplex_boundary,
    standard_sphere,
)
from pachner.moves import (
    Shell,
    Unshell,
    apply_move,
    check_move,
    derived_subdivision,
    enumerate_moves,
    invert,
)
from pachner.recognize import find_shelling

CORPUS_SEED = 4711
CORPUS_SIZE = 160


def _meets_exactly(F, A, B, K):
    """Whether the closure of F meets K exactly in closure(A) * dB."""
    expected = full_simplex(A).join(simplex_boundary(B)).faces()
    return full_simplex(F).faces() & K.faces() == expected


def reference_shell(M, A, B):
    if not A or not B or set(A) & set(B):
        return False
    F = tuple(sorted(A + B))
    if F not in M.facets:
        return False
    if not _meets_exactly(F, A, B, Complex.from_facets(set(M.facets) - {F})):
        return False
    try:
        boundary_faces = M.boundary().faces()
    except NotPseudomanifoldError:
        return False
    closure_A = {a for r in range(len(A) + 1)
                 for a in itertools.combinations(A, r)}
    dA = closure_A - {A}
    if closure_A & boundary_faces != dA:
        return False
    return all(tuple(sorted(a + b)) in boundary_faces
               for r in range(len(B) + 1)
               for b in itertools.combinations(B, r) for a in dA)


def reference_unshell(M, A, B):
    if not A or not B or set(A) & set(B):
        return False
    F = tuple(sorted(A + B))
    if F in M or not _meets_exactly(F, A, B, M):
        return False
    glued = Complex.from_facets(set(M.facets) | {F})
    return (reference_shell(glued, A, B)
            and Complex.from_facets(set(glued.facets) - {F}) == M)


def _corpus():
    """Seeded complexes of dimension 1-3 on at most 7 vertices.  Most
    are pure and grown with every ridge in at most two facets, so they
    have a boundary; every fifth skips that cap, and every fourth is
    made impure by a lower-dimensional simplex on the otherwise unused
    last vertex.  Then come sd S2 less one facet and the hand-built
    shellable balls."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for i in range(CORPUS_SIZE):
        impure = i % 4 == 3
        n = rng.randint(3, 7)
        d = rng.randint(1, min(3, n - 1 - impure))
        pool = list(itertools.combinations(range(n - impure), d + 1))
        rng.shuffle(pool)
        degree, facets = Counter(), []
        for F in pool[:rng.randint(1, 10)]:
            ridges = list(itertools.combinations(F, d))
            if i % 5 == 4 or all(degree[r] < 2 for r in ridges):
                degree.update(ridges)
                facets.append(F)
        if impure:
            facets.append(tuple(rng.sample(range(n - 1), d - 1)) + (n - 1,))
        out.append(Complex.from_facets(facets))
    sd = derived_subdivision(standard_sphere(2))
    out.append(Complex.from_facets(sorted(sd.facets)[1:]))
    return out + [K for _, K in shellable_ball_fixtures()]


CORPUS = _corpus()


def _splits(F):
    """Every (A, B) with A and B nonempty, disjoint, sorted, A + B = F."""
    for r in range(1, len(F)):
        for A in itertools.combinations(F, r):
            yield A, tuple(v for v in F if v not in A)


def _glued(M):
    """Every simplex the size of a largest facet, on M's labels and the
    fresh one, that is not in M."""
    labels = M.vertices() + (M.fresh_vertex(),)
    return [F for F in itertools.combinations(labels, M.dim + 1)
            if F not in M]


def test_ridge_rule_matches_the_reference_on_every_split():
    legal = Counter()
    for M in CORPUS:
        for kind, reference, cands in ((Shell, reference_shell, M.facets),
                                       (Unshell, reference_unshell, _glued(M))):
            for F in cands:
                for A, B in _splits(F):
                    want = reference(M, A, B)
                    assert check_move(M, kind(A, B)).legal == want, (M, kind, A, B)
                    assert check_move(M, kind(A[::-1], B[::-1])).legal == want
                    legal[kind, want] += 1
    # the corpus exercises both verdicts of both moves
    assert min(legal.values()) >= 100, legal


def test_shell_enumeration_is_the_brute_force_filter():
    for M in CORPUS:
        brute = sorted((Shell(A, B) for F in M.facets for A, B in _splits(F)
                        if check_move(M, Shell(A, B)).legal),
                       key=lambda mv: (mv.A, mv.B))
        assert enumerate_moves(M, "shell") == brute, M


def test_unshell_enumeration_is_the_brute_force_filter():
    for M in CORPUS:
        try:
            rim = M.boundary().facets
        except NotPseudomanifoldError:
            assert enumerate_moves(M, "unshell") == []
            continue
        labels = M.vertices() + (M.fresh_vertex(),)
        glued = {tuple(sorted(R + (w,)))
                 for R in rim if R for w in labels if w not in R}
        brute = sorted((Unshell(A, B) for F in glued for A, B in _splits(F)
                        if check_move(M, Unshell(A, B)).legal),
                       key=lambda mv: (mv.A, mv.B))
        assert enumerate_moves(M, "unshell") == brute, M


def test_flip_enumeration_is_the_brute_force_filter():
    """The one flip lister, a fresh flip state of M, lists exactly the
    flips check_move finds legal among every face and its link's
    vertices: on impure and branched complexes of the corpus too, and
    on {-}, which has none."""
    for M in CORPUS + [Complex.from_facets([])]:
        assert enumerate_moves(M, "bistellar") == brute_force_flips(M), M


def test_unshell_enumeration_builds_no_complex_from_facets(monkeypatch):
    # gluing a facet is a trusted surgery: no maximality filter per
    # candidate, in the check or in the glued result
    strip = Complex.from_facets([(i, i + 1, i + 2) for i in range(12)])
    built = []
    real = Complex.from_facets

    def counting(facets):
        built.append(facets)
        return real(facets)

    monkeypatch.setattr(Complex, "from_facets", staticmethod(counting))
    moves = enumerate_moves(strip, "unshell")
    assert moves and built == []


def test_every_legal_shell_is_undone_by_its_unshell():
    for M in CORPUS:
        for mv in enumerate_moves(M, "shell"):
            assert apply_move(apply_move(M, mv), invert(mv)) == M, (M, mv)


def test_shell_must_leave_b_in_no_other_facet():
    # 0126 meets the boundary in d(012) * 6, but 6 also lies in 0346
    K = pinched_complex()
    assert not check_move(K, Shell((0, 1, 2), (6,))).legal
    assert enumerate_moves(K, "shell") == []


def test_shell_enumeration_and_search_make_no_check(monkeypatch):
    # enumeration reads each facet's split; the search applies what it
    # enumerated by the shell surgery alone
    checked = []
    real = pachner.moves.check_move

    def counting(M, move):
        checked.append(move)
        return real(M, move)

    monkeypatch.setattr(pachner.moves, "check_move", counting)
    strip = Complex.from_facets([(i, i + 1, i + 2) for i in range(30)])
    for M in (strip, CORPUS[CORPUS_SIZE]):
        assert enumerate_moves(M, "shell")
    sh = find_shelling(strip)
    assert len(sh.steps) == 29 and checked == []
