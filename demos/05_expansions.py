"""Turning composite moves into plain bistellar flips.

Three constructions, each returning a transcript that is replayed and
checked against the one-shot move it expands:

* a cone over a shellable ball, flipped facet by facet from the cone on
  its boundary to the ball itself;
* a stellar subdivision at any face, expanded through a shelling of the
  link;
* a stellar exchange, expanded recursively through a join factorisation
  of the common link plus a witness read from a shelling of its core.
"""

from pachner import (
    Complex,
    Exchange,
    Star,
    apply_move,
    apply_transcript,
    ball_to_cone_transcript,
    expand_exchange,
    factor_link,
    find_shelling,
    full_simplex,
    search_witness,
    simplex_boundary,
    star_move_transcript,
)

# -- cone-to-ball ----------------------------------------------------------

ball = Complex.from_facets([(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)])
sh = find_shelling(ball)
apex = ball.fresh_vertex()
cone = ball.boundary().join(full_simplex((apex,)))
t = ball_to_cone_transcript(ball, sh, apex)
print(f"stacked 3-ball: {len(ball.facet_list())} facets, "
      f"cone on its boundary has {len(cone.facet_list())}")
print(f"   flip transcript: {len(t)} moves (one per facet)")
assert apply_transcript(cone, t) == ball
print("   replays cone -> ball exactly: True")
print()

# -- stellar subdivision as flips -------------------------------------------

S = simplex_boundary(range(5))
for A in [(0, 1, 2, 3), (0, 1), (2,)]:
    t = star_move_transcript(S, A)
    target = apply_move(S, Star(A, S.fresh_vertex()))
    assert apply_transcript(S, t) == target
    print(f"starring {list(A)} in the 3-sphere: {len(t)} flips "
          f"-> {target.f_vector()}")
print()

# -- stellar exchange as flips ----------------------------------------------

octa = (simplex_boundary((0, 1))
        .join(simplex_boundary((2, 3)))
        .join(simplex_boundary((4, 5))))
A, B = (0,), (2, 3)
print(f"octahedron, exchange {list(A)} <-> {list(B)}:")
link = octa.link(A)
core, spheres = factor_link(link)
print(f"   common link factors as core {core.facet_list()} "
      f"joined with sphere pairs {spheres}")
print(f"   core witness from its shelling: "
      f"{len(search_witness(core).moves)} moves")
t = expand_exchange(octa, A, B)
assert apply_transcript(octa, t) == apply_move(octa, Exchange(A, B))
print(f"   expanded to {len(t)} bistellar flips, replayed exactly")
print()

# A non-trivial core: in the suspended hexagon the link of a pole is the
# hexagon itself, which no join of boundary pairs accounts for, so the
# expansion recurses through the witness moves.
rim = [(i, 2 + (i - 1) % 6) for i in range(2, 8)]
M = simplex_boundary([0, 1]).join(Complex.from_facets(rim))
A, B = (0,), (8,)
core, spheres = factor_link(M.link(A))
witness = search_witness(core)
print(f"suspended hexagon, exchange {list(A)} <-> {list(B)}:")
print(f"   core is the hexagon ({len(core.facet_list())} edges), "
      f"witness from its shelling has {len(witness.moves)} moves")
t = expand_exchange(M, A, B)
assert apply_transcript(M, t) == apply_move(M, Exchange(A, B))
print(f"   expanded to {len(t)} bistellar flips, replayed exactly")
