"""Shared fixtures: canonical spheres, balls, the 7-vertex torus, and
two oracles: an independent flag-chain construction of the first
derived subdivision, against the move-based construction, and a
brute-force flip filter, against the flip lister."""

import pytest

from pachner.core import Complex, full_simplex, simplex_boundary, standard_sphere
from pachner.moves import Bistellar, check_move


@pytest.fixture
def sphere2():
    """Boundary of the 3-simplex on labels 0..3."""
    return standard_sphere(2)


@pytest.fixture
def sphere3():
    """Boundary of the 4-simplex on labels 0..4."""
    return standard_sphere(3)


def csaszar_torus():
    """The classical 7-vertex torus: triangles {i, i+1, i+3} and
    {i, i+2, i+3} over Z_7.  Two-neighbourly: all 21 edges present."""
    tris = []
    for i in range(7):
        tris.append({i % 7, (i + 1) % 7, (i + 3) % 7})
        tris.append({i % 7, (i + 2) % 7, (i + 3) % 7})
    return Complex.from_facets(tris)


@pytest.fixture
def torus7():
    return csaszar_torus()


def shellable_ball_fixtures():
    """Shellable 2- and 3-balls with at most 8 facets, hand-built.

    Returned as (name, complex) pairs; each is a cone or a stacked/fan
    construction, so shellability is guaranteed by construction.
    """
    hexagon_disk = [(0, 1, 6), (1, 2, 6), (2, 3, 6), (3, 4, 6), (4, 5, 6), (0, 5, 6)]
    out = [
        ("triangle", [(0, 1, 2)]),
        ("two-triangle disk", [(0, 1, 2), (1, 2, 3)]),
        ("three-fan", [(0, 1, 2), (0, 2, 3), (0, 3, 4)]),
        ("strip", [(0, 1, 2), (1, 2, 3), (2, 3, 4)]),
        ("hexagon disk", hexagon_disk),
        ("tetrahedron", [(0, 1, 2, 3)]),
        ("two-tet ball", [(0, 1, 2, 3), (1, 2, 3, 4)]),
        ("stacked tet", [(0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4)]),
        ("starred tet", [(0, 1, 2, 4), (0, 1, 3, 4), (0, 2, 3, 4), (1, 2, 3, 4)]),
        ("cone on hexagon disk", [t + (7,) for t in hexagon_disk]),
    ]
    return [(name, Complex.from_facets(fs)) for name, fs in out]


def pinched_complex():
    """Four tetrahedra {0123, 0134, 0346, 0126}: ball homology, but the
    link of vertex 6 is two triangles meeting in a point, so not a ball.
    Removing 0126 leaves B = 6 in 0346, so it is no elementary shelling."""
    return Complex.from_facets([(0, 1, 2, 3), (0, 1, 3, 4), (0, 3, 4, 6),
                                (0, 1, 2, 6)])


def flag_subdivision(K):
    """First derived subdivision built directly from chains of faces.

    Vertices are (indices of) the nonempty faces of K; simplexes are the
    strictly increasing chains under inclusion.  Independent of the
    move-based construction, so it can serve as its oracle.
    """
    faces = sorted((f for f in K.faces() if f), key=lambda f: (len(f), f))
    index = {f: i for i, f in enumerate(faces)}
    containers = {
        f: [g for g in faces if len(g) > len(f) and set(f) < set(g)] for f in faces
    }
    chains = []

    def grow(chain, top):
        bigger = containers[top]
        if not bigger:
            chains.append(tuple(index[f] for f in chain))
            return
        for g in bigger:
            grow(chain + [g], g)

    for f in faces:
        if len(f) == 1:
            grow([f], f)
    return Complex.from_facets(chains)


def brute_force_flips(M):
    """Every legal flip of M, sorted by A, found by brute force: for each
    nonempty face A, B is the vertex set of lk(A, M), or the fresh vertex
    when A is a facet, and the flip is kept when check_move finds it
    legal."""
    fresh = (M.fresh_vertex(),)
    flips = (Bistellar(A, M.link(A).vertices() or fresh)
             for A in sorted(M.faces()) if A)
    return [mv for mv in flips if check_move(M, mv).legal]
