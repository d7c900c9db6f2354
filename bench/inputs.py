"""Benchmark inputs and reference answers, built without the program.

Every complex here is a frozenset of sorted vertex tuples (its facets),
so the generators and the oracles below share no code with `pachner`:
a defect in the library cannot change the inputs or hide itself in the
expected answers.
"""

from __future__ import annotations

import itertools
import random


def facets_of(facets):
    """Normalise an iterable of vertex collections into a facet set,
    dropping entries contained in others."""
    tops = sorted({tuple(sorted(f)) for f in facets}, key=len, reverse=True)
    keep = []
    for f in tops:
        fs = set(f)
        if not any(fs <= set(g) for g in keep):
            keep.append(f)
    return frozenset(keep)


def closure(facets):
    """Every face of the complex, the empty one included."""
    out = {()}
    for f in facets:
        for r in range(1, len(f) + 1):
            out.update(itertools.combinations(f, r))
    return out


def vertices(facets):
    return sorted({v for f in facets for v in f})


# -- named complexes -----------------------------------------------------


def simplex_boundary(labels):
    labels = tuple(sorted(labels))
    return frozenset(itertools.combinations(labels, len(labels) - 1))


def csaszar_torus():
    """The 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3}
    over Z_7."""
    tris = []
    for i in range(7):
        tris.append((i, (i + 1) % 7, (i + 3) % 7))
        tris.append((i, (i + 2) % 7, (i + 3) % 7))
    return facets_of(tris)


def triangle_strip(n):
    """A disk made of n triangles {i, i+1, i+2} in a row."""
    return frozenset((i, i + 1, i + 2) for i in range(n))


def suspended_hexagon():
    """Poles 0 and 1 over the 6-cycle 2-3-4-5-6-7.  lk(0) is the hexagon,
    which has no simplex-boundary join factor, so exchanging vertex 0
    for a new label runs the full witness recursion."""
    rim = [(i, 2 + (i - 1) % 6) for i in range(2, 8)]
    return frozenset(tuple(sorted(e + (p,))) for e in rim for p in (0, 1))


def derived(facets):
    """First derived subdivision from chains of faces.

    Labels follow the starring order of a derived-subdivision
    transcript: a vertex keeps its label, and the barycentres of the
    faces of dimension >= 1 take fresh labels from max + 1 upwards, in
    decreasing dimension and lexicographic order within a dimension.
    """
    faces = [f for f in closure(facets) if f]
    top = max(v for f in faces for v in f)
    order = sorted((f for f in faces if len(f) > 1),
                   key=lambda f: (-len(f), f))
    label = {f: f[0] for f in faces if len(f) == 1}
    label.update({f: top + 1 + i for i, f in enumerate(order)})
    by_size = {}
    for f in faces:
        by_size.setdefault(len(f), []).append(f)
    chains = []

    def grow(chain, top_face):
        bigger = [g for g in by_size.get(len(top_face) + 1, ())
                  if set(top_face) < set(g)]
        if not bigger:
            chains.append(tuple(label[f] for f in chain))
            return
        for g in bigger:
            grow(chain + [g], g)

    for f in by_size[1]:
        grow([f], f)
    return facets_of(chains)


def relabelling(facets, rng):
    """A seeded injective map of the vertices into range(2n): both the
    order of the labels and the gaps between them change."""
    vs = vertices(facets)
    return dict(zip(vs, rng.sample(range(2 * len(vs)), len(vs))))


def relabel(facets, mapping):
    return frozenset(tuple(sorted(mapping[v] for v in f)) for f in facets)


def dumps(facets):
    """Facet-file text, one facet per line in (length, lex) order."""
    return "".join(" ".join(map(str, f)) + "\n"
                   for f in sorted(facets, key=lambda f: (len(f), f)))


def parse(text):
    """Facet set of a facet file."""
    return facets_of(tuple(int(t) for t in line.split())
                     for line in text.splitlines()
                     if line.strip() and not line.lstrip().startswith("#"))


# -- reference answers ---------------------------------------------------


def is_simplex_boundary(facets):
    """Facets are exactly the codimension-one faces of one simplex."""
    vs = vertices(facets)
    if len(vs) < 2:
        return False
    return facets == simplex_boundary(vs)


def starred(facets, A, a):
    """Stellar subdivision of A at the new vertex a, facet by facet:
    each facet F containing A becomes (F - v) + a for v in A."""
    sa = set(A)
    out = {f for f in facets if not sa <= set(f)}
    for f in facets:
        if sa <= set(f):
            for v in A:
                out.add(tuple(sorted((set(f) - {v}) | {a})))
    return frozenset(out)


def _components(verts, edges):
    parent = {v: v for v in verts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return len({find(v) for v in verts})


def _path_or_cycle(edges):
    """'cycle' or 'path' for a connected graph by its degree sequence,
    None otherwise."""
    deg = {}
    for e in edges:
        for v in e:
            deg[v] = deg.get(v, 0) + 1
    if not deg or _components(list(deg), edges) != 1:
        return None
    if any(d > 2 for d in deg.values()):
        return None
    ones = sum(1 for d in deg.values() if d == 1)
    return {0: "cycle", 2: "path"}.get(ones)


def classify(generators):
    """Ball/sphere verdict of a complex of dimension <= 2 from Euler
    characteristic, edge degrees and vertex links: "Sphere", "Ball" or
    "Other"."""
    faces = closure(generators)
    verts = sorted(f[0] for f in faces if len(f) == 1)
    edges = [f for f in faces if len(f) == 2]
    tris = [f for f in faces if len(f) == 3]
    dim = max(len(f) for f in faces) - 1
    if dim == -1:
        return "Sphere"
    tops = facets_of(generators)
    if any(len(f) != dim + 1 for f in tops):
        return "Other"
    if dim == 0:
        return {1: "Ball", 2: "Sphere"}.get(len(verts), "Other")
    if _components(verts, edges) != 1:
        return "Other"
    if dim == 1:
        return {"cycle": "Sphere", "path": "Ball"}.get(
            _path_or_cycle(edges), "Other")
    degree = {}
    for t in tris:
        for e in itertools.combinations(t, 2):
            degree[e] = degree.get(e, 0) + 1
    if any(d > 2 for d in degree.values()):
        return "Other"
    for v in verts:
        link = [tuple(w for w in t if w != v) for t in tris if v in t]
        if _path_or_cycle(link) is None:
            return "Other"
    chi = len(verts) - len(edges) + len(tris)
    if all(d == 2 for d in degree.values()):
        return "Sphere" if chi == 2 else "Other"
    return "Ball" if chi == 1 else "Other"


# -- the recognition corpus ----------------------------------------------


def corpus():
    """Small complexes on at most six labelled vertices, by stratum:
    every pure 2-complex on five vertices, every graph on five and on
    six, every triangle set on six vertices whose edges lie in at most
    two triangles (all candidate surfaces), point clouds, and a fixed
    random sample of mixed complexes.  About 71,000 entries."""
    out = []
    tris5 = list(itertools.combinations(range(5), 3))
    out.extend(_subsets(tris5))
    out.extend(_subsets(list(itertools.combinations(range(5), 2))))
    edges6 = list(itertools.combinations(range(6), 2))
    out.extend(_subsets(edges6))
    tris6 = list(itertools.combinations(range(6), 3))
    out.extend(_capped_triangle_sets(tris6))
    out.extend([(v,) for v in range(k)] for k in range(1, 7))
    rng = random.Random(9009)
    for _ in range(3000):
        mixed = rng.sample(tris6, rng.randint(0, 6))
        mixed += rng.sample(edges6, rng.randint(0, 5))
        if rng.random() < 0.3:
            mixed.append((rng.randrange(6),))
        out.append(mixed)
    return out


def _subsets(items):
    return [[x for i, x in enumerate(items) if mask >> i & 1]
            for mask in range(1 << len(items))]


def _capped_triangle_sets(tris):
    edges_of = [list(itertools.combinations(t, 2)) for t in tris]
    degree = dict.fromkeys(itertools.chain.from_iterable(edges_of), 0)
    chosen = []
    out = []

    def grow(i):  # recursion depth is len(tris) = 20
        if i == len(tris):
            out.append(list(chosen))
            return
        grow(i + 1)
        if all(degree[e] < 2 for e in edges_of[i]):
            for e in edges_of[i]:
                degree[e] += 1
            chosen.append(tris[i])
            grow(i + 1)
            chosen.pop()
            for e in edges_of[i]:
                degree[e] -= 1

    grow(0)
    return out
