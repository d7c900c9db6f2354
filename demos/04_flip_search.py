"""Seeded bistellar search: reduction and equivalence certificates.

The annealer walks legal bistellar flips, always accepting downhill
moves under the lexicographic f-vector objective and taking uphill
moves with a cooling probability.  All randomness comes from an
explicit splitmix64 generator, so runs are reproducible bit for bit.
Equivalence certificates come from shellings first: annealing is only
the fallback for pairs that do not shell.
"""

from pachner import (
    Complex,
    Schedule,
    SplitMix64,
    apply_transcript,
    derived_subdivision,
    dumps_transcript,
    prove_equivalent,
    reduce,
    simplex_boundary,
)

rng = SplitMix64(2024)
print("splitmix64 stream for seed 2024:",
      [hex(rng.next64()) for _ in range(3)])
print()

S = simplex_boundary(range(4))
sd2 = derived_subdivision(derived_subdivision(S))
print(f"start: {sd2.f_vector()}")
best, trail = reduce(sd2)
print(f"reduced: {best.f_vector()} in {len(trail)} flips")
assert apply_transcript(sd2, trail) == best

again, _ = reduce(sd2)
assert again == best
print("second run with the default schedule is identical: True")
print()

# A custom schedule: hotter start, slower cooling, tighter move cap.
schedule = Schedule(seed=7, max_moves=4000, temp=3.0, decay=0.9)
best, trail = reduce(sd2, schedule)
print(f"custom schedule {schedule} -> {best.f_vector()} "
      f"in {len(trail)} flips")
print()

# An equivalence certificate: two complexes, two flip transcripts, one
# vertex bijection between the endpoints.  Both spheres shell, so each
# side's shelling, turned into flips, ends at a simplex boundary, and
# the sorted labels of the two end simplices identify the ends.
cert = prove_equivalent(S, derived_subdivision(S))
print(f"certificate for sphere vs its subdivision, by {cert.path}:")
print(f"   left transcript: {len(cert.transcript1)} moves")
print(f"   right transcript: {len(cert.transcript2)} moves")
print(f"   endpoint bijection: {dict(cert.bijection)}")
left = apply_transcript(S, cert.transcript1)
right = apply_transcript(derived_subdivision(S), cert.transcript2)
assert left.relabel(cert.mapping()) == right
print("   replayed and matched exactly: True")
print()
print("first lines of the right-hand transcript:")
print("\n".join(dumps_transcript(cert.transcript2).splitlines()[:5]))

print()

# Failure is honest: a sphere and a torus differ in homology, so no
# flip sequence can connect them and the search reports None.
torus = Complex.from_facets(
    [{i, (i + 1) % 7, (i + 3) % 7} for i in range(7)]
    + [{i, (i + 2) % 7, (i + 3) % 7} for i in range(7)]
)
print(f"sphere vs torus certificate: {prove_equivalent(S, torus)}")
