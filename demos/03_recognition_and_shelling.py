"""Ball and sphere recognition with replayable evidence.

Verdicts are conservative: a yes comes with evidence (a shelling, or
a sphere's shelling turned into flips) that is replayed here, a no
comes with a counterexample, and a bounded search that gives up says
Unknown rather than guessing.
"""

from pachner import (
    Complex,
    apply_transcript,
    derived_subdivision,
    find_shelling,
    recognize_ball_or_sphere,
    replay_shelling,
    simplex_boundary,
    verify_combinatorial_manifold,
)

sphere = derived_subdivision(simplex_boundary(range(4)))
verdict = recognize_ball_or_sphere(sphere)
print(f"subdivided 2-sphere -> {verdict}")
reduced = apply_transcript(sphere, verdict.evidence)
print(f"   evidence transcript: {len(verdict.evidence)} moves, "
      f"replays to {reduced.f_vector()}")
print()

disk = Complex.from_facets([(0, 1, 6), (1, 2, 6), (2, 3, 6), (3, 4, 6),
                            (4, 5, 6), (0, 5, 6)])
verdict = recognize_ball_or_sphere(disk)
print(f"hexagon disk -> {verdict}")
print(f"   evidence: a shelling of {len(verdict.evidence)} steps")
print()

# the 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} over Z_7
torus = Complex.from_facets(
    [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]
    + [{i, (i + 2) % 7, (i + 3) % 7} for i in range(7)]
)
print(f"7-vertex torus -> {recognize_ball_or_sphere(torus)}")
print(f"   manifold audit -> {verify_combinatorial_manifold(torus)}")
print()

wedge = Complex.from_facets([(0, 1, 2), (0, 3, 4)])
verdict = verify_combinatorial_manifold(wedge)
print(f"two triangles joined at a vertex -> {verdict}")
print(f"   offending simplex: {verdict.evidence}")
print()

# Shellings: a certified peeling order down to one facet.  The search
# is exhaustive within its budget, so on a torus the None is a proof.
ball = Complex.from_facets([(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 4, 5)])
sh = find_shelling(ball)
print(f"stacked 3-ball shelling: {len(sh.steps)} steps, "
      f"terminal {sh.terminal}")
print(f"   replays to a single facet: "
      f"{replay_shelling(ball, sh).facet_list()}")
sphere = simplex_boundary(range(5))
sh = find_shelling(sphere)
print(f"3-sphere shelling: drop {sh.initial}, then {len(sh.steps)} steps")
print(f"torus shelling search: {find_shelling(torus)}")
