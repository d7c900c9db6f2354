"""Core complex operations against hand-enumerated expected values."""

import itertools
import random

import pytest

from pachner.core import (
    AbsentSimplexError,
    BudgetExhaustedError,
    Complex,
    JoinCollisionError,
    MalformedSimplexError,
    NotPseudomanifoldError,
    dumps_complex,
    full_simplex,
    is_simplex_boundary,
    isomorphic,
    loads_complex,
    simplex,
    simplex_boundary,
    standard_sphere,
)
from conftest import csaszar_torus, flag_subdivision


def test_simplex_normalisation():
    assert simplex([2, 0, 1]) == (0, 1, 2)
    assert simplex([]) == ()
    with pytest.raises(MalformedSimplexError):
        simplex([1, 1])
    with pytest.raises(MalformedSimplexError):
        simplex([-1, 2])
    with pytest.raises(MalformedSimplexError):
        simplex(["a"])
    # labels that do not compare: the first bad one in input order
    with pytest.raises(MalformedSimplexError, match="bad vertex label 'a'"):
        simplex([0, "a"])


def test_full_simplex_face_count():
    # the 2-simplex closure has 7 nonempty faces: 3 + 3 + 1
    tri = full_simplex([0, 1, 2])
    assert tri.n_faces() == 7
    assert tri.f_vector().counts == (3, 3, 1)


def test_empty_complex_conventions():
    empty = Complex.from_facets([])
    assert empty.dim == -1
    assert empty.faces() == frozenset({()})
    assert empty.f_vector().counts == ()
    assert empty.f_vector().euler == 0
    assert empty.fresh_vertex() == 0
    # joining with {-} is the identity
    tri = full_simplex([0, 1, 2])
    assert empty.join(tri) == tri
    assert tri.join(empty) == tri


def test_fvectors_of_standard_spheres():
    assert simplex_boundary([0, 1, 2]).f_vector().counts == (3, 3)
    s2 = standard_sphere(2)
    assert s2.f_vector().counts == (4, 6, 4)
    assert s2.f_vector().euler == 2
    s3 = standard_sphere(3)
    assert s3.f_vector().counts == (5, 10, 10, 5)
    assert s3.f_vector().euler == 0
    assert str(s2.f_vector()) == "f = (4, 6, 4); chi = 2"


def test_from_facets_drops_dominated_entries():
    K = Complex.from_facets([(0, 1), (0, 1, 2), (2,)])
    assert K.facets == frozenset({(0, 1, 2)})


def _pairwise_maximal(entries):
    """The all-pairs rule: an entry is kept unless a longer kept entry
    contains it."""
    normalised = {simplex(e) for e in entries}
    if not normalised:
        return frozenset({()})
    keep, as_sets = [], []
    for f in sorted(normalised, key=len, reverse=True):
        fs = set(f)
        if not any(fs <= other for other in as_sets):
            keep.append(f)
            as_sets.append(fs)
    return frozenset(keep)


def test_from_facets_keeps_exactly_the_pairwise_maximal_entries():
    """Seeded families with duplicates, unsorted entries, (), nested
    chains and equal-length sets, plus the empty family; a malformed
    label still raises."""
    rng = random.Random(13)
    families = [[], [()], [(), ()], [(), (3,)]]
    for _ in range(400):
        labels = rng.sample(range(12), rng.randint(1, 8))
        family = []
        for _ in range(rng.randrange(10)):
            kind = rng.randrange(5)
            if kind == 0:
                family.append(())
            elif kind == 1 and family:    # a duplicate, reordered
                family.append(sorted(rng.choice(family), reverse=True))
            elif kind == 2:               # a nested chain
                chain = rng.sample(labels, rng.randint(1, len(labels)))
                family.extend(chain[:k] for k in range(1, len(chain) + 1))
            elif kind == 3:               # equal-length sets
                k = rng.randint(1, len(labels))
                family.extend(set(rng.sample(labels, k)) for _ in range(3))
            else:                         # unsorted
                family.append(rng.sample(labels, rng.randint(0, len(labels))))
        rng.shuffle(family)
        families.append(family)
    for family in families:
        assert Complex.from_facets(family).facets == _pairwise_maximal(
            family), family
    for bad in ([-1, 2], [3, 3], ["a"], [True, 2], [1.5], [0, "a"],
                [0, None]):
        with pytest.raises(MalformedSimplexError):
            Complex.from_facets([(0, 1, 2), bad, (4,)])


def test_link_of_vertex_and_edge_on_sphere(sphere2):
    # lk(0) in the tetrahedron boundary: the triangle boundary on 1,2,3
    assert sphere2.link((0,)) == simplex_boundary([1, 2, 3])
    # lk(01): the two opposite vertices
    assert sphere2.link((0, 1)) == Complex.from_facets([(2,), (3,)])
    # lk of a facet is {-}
    assert sphere2.link((0, 1, 2)) == Complex.from_facets([])
    # lk(()) is the whole complex
    assert sphere2.link(()) == sphere2
    with pytest.raises(AbsentSimplexError):
        sphere2.link((0, 4))


def test_star_of_edge_direct_enumeration(sphere2):
    # st(01) in the tetrahedron boundary = closure{012, 013}
    st = sphere2.star((0, 1))
    assert st.facets == frozenset({(0, 1, 2), (0, 1, 3)})
    assert st.f_vector().counts == (4, 5, 2)
    # every face listed by hand
    assert st.faces() == frozenset(
        {(), (0,), (1,), (2,), (3,), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3),
         (0, 1, 2), (0, 1, 3)})


MEMBERSHIP_FIXTURES = {
    "boundary of the 3-simplex": simplex_boundary(range(4)),
    "sd S2": flag_subdivision(standard_sphere(2)),
    "Csaszar torus": csaszar_torus(),
    "impure": Complex.from_facets([(0, 1, 2), (2, 3), (4,)]),
    "point": full_simplex([0]),
    "{-}": Complex.from_facets([]),
}


@pytest.mark.parametrize("name", MEMBERSHIP_FIXTURES)
def test_membership_links_and_stars_match_the_face_closure(name):
    """Membership, links and stars, which read the vertex -> facets
    incidence, agree with their definitions over the face closure."""
    K = MEMBERSHIP_FIXTURES[name]
    faces = K.faces()
    for s in faces:
        assert s in K
        ss = set(s)
        assert K.link(s) == Complex.from_facets(
            t for t in faces
            if not ss & set(t) and tuple(sorted(s + t)) in faces)
        assert K.star(s) == Complex.from_facets(
            t for t in faces if ss <= set(t))
    vs = K.vertices()
    for r in range(2, min(len(vs), K.dim + 2) + 1):
        for s in itertools.combinations(vs, r):
            assert (s in K) == (s in faces)
    # unsorted, repeated, absent and non-integer labels; a guard that
    # compares labels before finding them in a facet raises on (0, "a")
    for s in [(1, 0), (0, 0), (K.fresh_vertex(),), (0, "a")]:
        assert s not in K
        with pytest.raises(AbsentSimplexError):
            K.link(s)
        with pytest.raises(AbsentSimplexError):
            K.star(s)


def test_join_of_two_zero_spheres_is_square():
    sq = simplex_boundary([0, 1]).join(simplex_boundary([2, 3]))
    assert sq.facets == frozenset({(0, 2), (0, 3), (1, 2), (1, 3)})
    assert sq.f_vector().counts == (4, 4)
    with pytest.raises(JoinCollisionError):
        simplex_boundary([0, 1]).join(simplex_boundary([1, 2]))


def test_boundary_of_two_triangles_is_square_rim():
    K = Complex.from_facets([(0, 1, 2), (1, 2, 3)])
    assert K.boundary().facets == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})


def test_boundary_of_closed_sphere_is_empty_complex(sphere2):
    assert sphere2.boundary() == Complex.from_facets([])


def test_boundary_rejects_branching_and_impurity():
    # three triangles around one edge
    K = Complex.from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    with pytest.raises(NotPseudomanifoldError,
                       match=r"ridge \(0, 1\) lies in 3 facets"):
        K.boundary()
    with pytest.raises(NotPseudomanifoldError,
                       match="boundary of a non-pure complex"):
        Complex.from_facets([(0, 1, 2), (3, 4)]).boundary()


def test_fresh_vertex_is_max_plus_one(sphere2):
    assert sphere2.fresh_vertex() == 4
    assert Complex.from_facets([(7,)]).fresh_vertex() == 8


def test_restrict_and_relabel(sphere2):
    assert sphere2.restrict([0, 1, 2]) == full_simplex([0, 1, 2])
    moved = sphere2.relabel({0: 9})
    assert moved == simplex_boundary([1, 2, 3, 9])
    with pytest.raises(MalformedSimplexError):
        sphere2.relabel({0: 1})
    # 0 and 2 share no simplex, so no simplex collapses
    with pytest.raises(MalformedSimplexError, match="not injective"):
        Complex.from_facets([(0, 1), (1, 2)]).relabel({0: 2})


def test_is_simplex_boundary(sphere2):
    assert is_simplex_boundary(sphere2)
    assert is_simplex_boundary(simplex_boundary([3, 7]))
    assert is_simplex_boundary(Complex.from_facets([]))  # boundary of a point
    assert not is_simplex_boundary(full_simplex([0, 1, 2]))
    sq = simplex_boundary([0, 1]).join(simplex_boundary([2, 3]))
    assert not is_simplex_boundary(sq)
    # no vertex-count cap: 25 vertices is still a simplex boundary
    big = simplex_boundary(range(25))
    assert is_simplex_boundary(big)
    assert not is_simplex_boundary(
        Complex.from_facets(big.facet_list()[1:]))


def test_torus_fixture_is_a_closed_pseudomanifold():
    T = csaszar_torus()
    assert T.f_vector().counts == (7, 21, 14)
    assert T.f_vector().euler == 0
    assert T.boundary() == Complex.from_facets([])


def test_flag_subdivision_oracle_fvector(sphere2):
    # frozen: the first derived subdivision of the tetrahedron boundary
    sd = flag_subdivision(sphere2)
    assert sd.f_vector().counts == (14, 36, 24)
    assert sd.f_vector().euler == 2


# -- isomorphism ------------------------------------------------------


def brute_force_isomorphisms(K, L):
    """All vertex bijections mapping faces onto faces (test oracle)."""
    vk, vl = K.vertices(), L.vertices()
    if len(vk) != len(vl):
        return []
    out = []
    for perm in itertools.permutations(vl):
        m = dict(zip(vk, perm))
        image = {tuple(sorted(m[v] for v in f)) for f in K.faces()}
        if image == set(L.faces()):
            out.append(m)
    return out


def test_square_isomorphic_to_join_of_zero_spheres():
    sq = Complex.from_facets([(0, 1), (1, 2), (2, 3), (0, 3)])
    jn = simplex_boundary([0, 1]).join(simplex_boundary([2, 3]))
    oracle = brute_force_isomorphisms(sq, jn)
    assert len(oracle) == 8  # dihedral symmetries of the 4-cycle
    found = isomorphic(sq, jn)
    assert found in oracle


def test_isomorphic_accepts_relabelled_spheres(sphere3):
    perm = {0: 12, 1: 3, 2: 40, 3: 0, 4: 7}
    other = sphere3.relabel(perm)
    m = isomorphic(sphere3, other)
    assert m is not None
    image = {tuple(sorted(m[v] for v in f)) for f in sphere3.facets}
    assert image == set(other.facets)


def test_isomorphic_rejects_different_complexes(sphere2):
    assert isomorphic(sphere2, full_simplex([0, 1, 2, 3])) is None
    sq = Complex.from_facets([(0, 1), (1, 2), (2, 3), (0, 3)])
    path = Complex.from_facets([(0, 1), (1, 2), (2, 3), (3, 4)])
    assert isomorphic(sq, path) is None
    # same f-vector, different complexes: two triangles vs triangle+edge... use
    # 6-cycle vs two 3-cycles
    c6 = Complex.from_facets([(i, (i + 1) % 6) for i in range(6)])
    cc = Complex.from_facets([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert isomorphic(c6, cc) is None


def test_isomorphism_budget_raises():
    c = csaszar_torus()
    with pytest.raises(BudgetExhaustedError):
        isomorphic(c, c, budget=3)


def test_isomorphic_depth_does_not_grow_with_vertex_count():
    """One search level per vertex: a 1,500-vertex cycle is deeper than
    the default recursion limit, and must still be matched."""
    n = 1500
    cycle = Complex.from_facets((i, (i + 1) % n) for i in range(n))
    shifted = cycle.relabel({v: (v + 7) % n + n for v in range(n)})
    m = isomorphic(cycle, shifted)
    assert m is not None
    assert cycle.relabel(m) == shifted


def test_torus_is_isomorphic_to_its_own_rotation():
    T = csaszar_torus()
    rot = T.relabel({i: (i + 1) % 7 for i in range(7)})
    assert isomorphic(T, rot) is not None


def _seeded_relabelling(K, seed):
    """K under a seeded shuffle of its vertices onto labels from 1000."""
    vs = K.vertices()
    images = list(range(1000, 1000 + len(vs)))
    random.Random(seed).shuffle(images)
    return K.relabel(dict(zip(vs, images)))


def _disjoint(*parts):
    return Complex.from_facets(f for K in parts for f in K.facets)


@pytest.mark.parametrize("name, K", [
    ("sd^2 S2", flag_subdivision(flag_subdivision(standard_sphere(2)))),
    ("sd S4", flag_subdivision(standard_sphere(4))),
    ("two disjoint triangle boundaries",
     _disjoint(simplex_boundary([0, 1, 2]), simplex_boundary([3, 4, 5]))),
    ("two disjoint tetrahedron boundaries",
     _disjoint(simplex_boundary([0, 1, 2, 3]),
               simplex_boundary([4, 5, 6, 7]))),
])
def test_isomorphic_finds_seeded_relabellings(name, K):
    """Stable classes and breadth-first candidates match these within the
    default budget: sd^2 S2 (74 vertices) takes about 80 nodes."""
    for seed in (1, 2, 3):
        L = _seeded_relabelling(K, seed)
        m = isomorphic(K, L)
        assert m is not None and K.relabel(m) == L, (name, seed)


def _five_vertex_corpus():
    """Every nonempty set of edges, and of triangles, on five labels."""
    for r in (2, 3):
        cells = list(itertools.combinations(range(5), r))
        for mask in range(1, 1 << len(cells)):
            yield Complex.from_facets(
                c for i, c in enumerate(cells) if mask >> i & 1)


def test_isomorphic_agrees_with_brute_force_on_equal_fvectors():
    """Consecutive members of each f-vector class (up to eight of them),
    the second relabelled: a map is returned exactly when the oracle
    finds one, and is one of the oracle's."""
    buckets = {}
    for K in _five_vertex_corpus():
        buckets.setdefault(K.f_vector(), []).append(K)
    verdicts = set()
    for group in buckets.values():
        for seed, (K, L) in enumerate(zip(group, group[1:8])):
            L = _seeded_relabelling(L, seed)
            oracle = brute_force_isomorphisms(K, L)
            found = isomorphic(K, L)
            assert (found in oracle) if oracle else found is None, (K, L)
            verdicts.add(bool(oracle))
    assert verdicts == {True, False}


# -- facet file round-trips -------------------------------------------


def test_facet_file_round_trip(sphere3):
    text = dumps_complex(sphere3)
    assert loads_complex(text) == sphere3
    assert dumps_complex(loads_complex(text)) == text


def test_facet_list_orders_by_length_then_lexicographically():
    """facet_list is the (length, lexicographic) order on an impure
    complex, whose facets of each size interleave in plain tuple order,
    and on {-}; dumps_complex writes the facets in it."""
    K = Complex.from_facets([(3, 4, 5), (0, 9), (0, 1, 7), (10,), (8, 9),
                             (1, 2, 3), (5, 6, 7, 8), (0, 2, 4)])
    want = sorted(K.facets, key=lambda f: (len(f), f))
    assert sorted(K.facets) != want
    assert K.facet_list() == want
    assert dumps_complex(K).splitlines() == [
        " ".join(map(str, f)) for f in want]
    assert simplex_boundary(()).facet_list() == [()]


def _dumps_reference(K):
    """The facet file as one str per label: the format dumps_complex
    must reproduce byte for byte."""
    lines = [" ".join(map(str, f)) for f in K.facet_list() if f]
    return "\n".join(lines) + "\n" if lines else "# empty complex\n"


DUMPS_INPUTS = {
    "{-}": lambda: simplex_boundary(()),
    "one point": lambda: Complex.from_facets([(0,)]),
    "impure, facets of three sizes": lambda: Complex.from_facets(
        [(3, 4, 5), (0, 9), (0, 1, 7), (10,), (8, 9), (5, 6, 7, 8)]),
    "labels above 10^6": lambda: Complex.from_facets(
        [(0, 10**6 + 1, 2**40), (7, 10**6 + 1), (10**18,)]),
    "Csaszar torus": csaszar_torus,
}


@pytest.mark.parametrize("name", sorted(DUMPS_INPUTS))
def test_dumps_complex_matches_the_str_join_reference(name):
    """dumps_complex formats each facet through a %d template per facet
    size: the bytes are those of joining str(label), and they load back
    to the complex; {-} prints the empty-complex comment."""
    K = DUMPS_INPUTS[name]()
    text = dumps_complex(K)
    assert text == _dumps_reference(K)
    assert loads_complex(text) == K
    if name == "{-}":
        assert text == "# empty complex\n"


def test_dumps_complex_matches_the_reference_on_the_shell_corpus():
    """The same on every complex of the shelling-rule corpus."""
    from test_shell_rule import CORPUS
    for K in CORPUS:
        text = dumps_complex(K)
        assert text == _dumps_reference(K)
        assert loads_complex(text) == K


def test_facet_file_parsing_rules():
    K = loads_complex("# comment\n\n0 1 2\n1 2 3\n")
    assert K.facets == frozenset({(0, 1, 2), (1, 2, 3)})
    with pytest.raises(MalformedSimplexError):
        loads_complex("0 x 2\n")
    with pytest.raises(MalformedSimplexError):
        loads_complex("0 0 1\n")
    assert loads_complex("") == Complex.from_facets([])
    assert dumps_complex(Complex.from_facets([])) == "# empty complex\n"
