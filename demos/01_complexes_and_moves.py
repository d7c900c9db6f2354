"""A tour of complexes and the five move families.

Builds the boundary of a tetrahedron, inspects its faces, then walks
one move of each family on suitable hosts, printing the legality
report and the resulting facet sets.  Every move is pure data: it can
be printed, parsed back, inverted, and replayed.
"""

from pachner import (
    Bistellar,
    Complex,
    Exchange,
    Shell,
    Star,
    Weld,
    apply_move,
    apply_transcript,
    check_move,
    dumps_transcript,
    invert_transcript,
    loads_transcript,
    simplex_boundary,
    Transcript,
)


def show(title, K):
    print(f"{title}: {K.f_vector()}")
    print("   facets:", " ".join(str(list(f)) for f in K.facet_list() if f))


S = simplex_boundary(range(4))
show("boundary of the 3-simplex", S)
print("   dimension:", S.dim)
print("   link of vertex 0:", S.link((0,)).facet_list())
print("   star of edge (0,1):", S.star((0, 1)).facet_list())
print()

# Stellar subdivision: replace the star of a face by a cone over a new
# vertex.  The inverse weld undoes it exactly.
star = Star((0, 1, 2), 4)
print("move:", star, "->", check_move(S, star))
M = apply_move(S, star)
show("after starring the triangle", M)
back = apply_move(M, Weld(4, (0, 1, 2)))
print("weld restores the sphere exactly:", back == S)
print()

# A bistellar flip trades a face for the complement of its link.
flip = Bistellar((0, 1, 2), (4,))
M = apply_move(S, flip)
show("after the facet flip", M)
print()

# Stellar exchanges generalise both: here the link factor is a cone.
xchg = Exchange((0,), (4,))
report = check_move(S, xchg)
print("move:", xchg, "-> legal:", report.legal,
      "| residual link factor:", report.link_factor.facet_list())
show("after the exchange", apply_move(S, xchg))
print()

# Elementary shellings peel a facet off a complex with boundary: the
# facet splits as A | B where A holds the vertices opposite its
# boundary edges, so here A is the interior edge of the two-triangle disk.
ball = Complex.from_facets([(0, 1, 2), (1, 2, 3)])
shell = Shell((1, 2), (3,))
print("move:", shell, "->", check_move(ball, shell))
show("after shelling the 2-ball", apply_move(ball, shell))
print()

# Transcripts: moves serialise to one line each and replay with full
# legality re-checks; inversion reverses and flips every move.
t = Transcript((star, Bistellar((3,), (0, 1, 2))), ("subdivide", None))
text = dumps_transcript(t)
print("transcript file:")
print(text)
assert loads_transcript(text) == t
final = apply_transcript(S, t)
show("after replaying the transcript", final)
assert apply_transcript(final, invert_transcript(t)) == S
print("inverse transcript returns to the start: True")
