"""Exact integral homology as a move invariant.

Computes homology profiles (Betti numbers plus torsion, over the
integers: unit pivots of sparse boundary maps, then Smith normal form
of the rest) for a sphere, a torus, and the
six-vertex projective plane, then certifies a random legal-move walk:
the profile is recomputed after every move and never changes.
"""

import random

from pachner import (
    Complex,
    MOVE_KINDS,
    apply_move,
    check_move,
    enumerate_moves,
    homology,
    simplex_boundary,
    smith_normal_form,
)

print("Smith normal form of [[2, 4], [6, 10]]:",
      smith_normal_form([[2, 4], [6, 10]]))
print()

sphere = simplex_boundary(range(5))
# the 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} over Z_7
torus = Complex.from_facets(
    [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]
    + [{i, (i + 2) % 7, (i + 3) % 7} for i in range(7)]
)
rp2 = Complex.from_facets([
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
])

for name, K in [("3-sphere", sphere), ("torus", torus),
                ("projective plane", rp2)]:
    print(f"{name}: {K.f_vector()}")
    print(f"   {homology(K)}")
print()

# torsion shows up only in the projective plane (Z/2 in H1)
assert homology(rp2).torsion == ((), (2,), ())

# A short random walk of legal moves: homology is invariant, and the
# checker proves it rather than assuming it.
rng = random.Random(11)
M = simplex_boundary(range(4))
profile = homology(M)
print(f"walking 25 random legal moves from the 2-sphere ({profile})")
for step in range(25):
    kinds = [k for k in MOVE_KINDS if enumerate_moves(M, k)]
    move = rng.choice(enumerate_moves(M, rng.choice(kinds)))
    assert check_move(M, move).legal
    M = apply_move(M, move)
    assert homology(M) == profile, (step, move)
print(f"after the walk: {M.f_vector()}")
print(f"profile unchanged at every step: {homology(M)}")
