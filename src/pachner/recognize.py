"""Exact invariants and structural verdicts.

Three layers:

* integral simplicial homology over sparse boundary maps: each +-1
  pivot is eliminated by a rank-1 update, and the Smith normal form
  (smallest-pivot elimination, arbitrary precision) of what is left
  gives the rest of the invariant factors; the dense `boundary_matrix`
  is kept as the oracle of the tests;
* ball/sphere verdicts: exact classification in dimension <= 2, read
  from the facets with no link built (connectedness, edge degrees, a
  walk round each vertex, and chi from the counts), and a homology
  screen followed by a shelling search in dimension >= 3 -- with
  Unknown as a first-class outcome when no shelling is found;
* backtracking search for shelling sequences.

Sphere evidence is a shelling turned into flips (Lickorish's
shelling/flip correspondence); unshellable spheres exist, so a failed
search says Unknown, never no.  The same evidence, with the simplex it
ends at, certifies equivalences in ``flipsearch``.  Everything here is
deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BudgetExhaustedError,
    Complex,
    NotPseudomanifoldError,
    _TRIVIAL,
    _ridges,
    fmt_simplex,
    is_simplex_boundary,
    simplex_boundary,
)
from .moves import (
    Bistellar,
    Shell,
    Transcript,
    _ShellState,
    _certify,
    apply_transcript,
    enumerate_moves,  # not called here: a binding the bench tracer wraps
    invert_transcript,
)

DEFAULT_SHELLING_BUDGET = 100_000
DEFAULT_MAX_CELLS = 200_000


# -- Smith normal form ---------------------------------------------------


def smith_normal_form(rows):
    """Positive invariant factors d1 | d2 | ... of an integer matrix.

    Elimination picks the nonzero pivot of smallest magnitude to limit
    coefficient growth; Python integers give arbitrary precision.  The
    input is consumed as a list of row lists and is not preserved.
    """
    A = [list(r) for r in rows]
    m = len(A)
    n = len(A[0]) if A else 0
    factors = []
    t = 0
    while t < m and t < n:
        # locate the smallest-magnitude nonzero entry of A[t:, t:]
        best = None
        for i in range(t, m):
            row = A[i]
            for j in range(t, n):
                v = row[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        A[t], A[pi] = A[pi], A[t]
        if pj != t:
            for row in A:
                row[t], row[pj] = row[pj], row[t]
        while True:
            again = False
            for i in range(t + 1, m):
                if A[i][t]:
                    q = A[i][t] // A[t][t]
                    if q:
                        At = A[t]
                        A[i] = [a - q * b for a, b in zip(A[i], At)]
                    if A[i][t]:
                        A[t], A[i] = A[i], A[t]
                        again = True
            if again:
                continue
            for j in range(t + 1, n):
                if A[t][j]:
                    q = A[t][j] // A[t][t]
                    if q:
                        for row in A:
                            row[j] -= q * row[t]
                    if A[t][j]:
                        for row in A:
                            row[t], row[j] = row[j], row[t]
                        again = True
            if again:
                continue
            break
        # the pivot must divide every remaining entry; if not, fold the
        # offending row into row t and redo this stage
        p = A[t][t]
        offender = None
        for i in range(t + 1, m):
            row = A[i]
            for j in range(t + 1, n):
                if row[j] % p:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            At, Ao = A[t], A[offender]
            A[t] = [a + b for a, b in zip(At, Ao)]
            continue
        factors.append(abs(p))
        t += 1
    return factors


def boundary_matrix(K, k):
    """Dense matrix of the k-th boundary map over the sorted face bases.

    Only the test oracle for `homology`, which builds its maps sparse.
    """
    rows = sorted(K.faces_of_dim(k - 1))
    cols = sorted(K.faces_of_dim(k))
    index = {f: i for i, f in enumerate(rows)}
    mat = [[0] * len(cols) for _ in rows]
    for j, f in enumerate(cols):
        for i in range(len(f)):
            mat[index[f[:i] + f[i + 1:]]][j] = -1 if i % 2 else 1
    return mat


def _boundary_rows(K, k):
    """The k-th boundary map as sparse rows: (k-1)-face -> {k-face: +-1}."""
    rows = {f: {} for f in K.faces_of_dim(k - 1)}
    for f in K.faces_of_dim(k):
        for i in range(len(f)):
            rows[f[:i] + f[i + 1:]][f] = -1 if i % 2 else 1
    return rows


def _invariant_factors(rows):
    """The invariant factors of a sparse integer matrix {row: {column:
    entry}}, in divisibility order; `rows` is consumed.

    One pass over the rows, shortest first, eliminates +-1 pivots: a
    row with a unit entry takes the one in the column with the fewest
    entries, which keeps the fill small.  Every other row of that column
    subtracts the multiple of the pivot row that clears the column (a
    rank-1 update), and the pivot's row and column then go, one factor
    1 with them.  `smith_normal_form` finishes what is left (Dumas,
    Heckenbach, Saunders and Welker, 2003).
    """
    cols = {}
    for r, row in rows.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    units = 0
    for r in sorted(rows, key=lambda r: len(rows[r])):
        row = rows.get(r)
        if not row:
            continue
        c = min((c for c, v in row.items() if v in (1, -1)),
                key=lambda c: len(cols[c]), default=None)
        if c is None:
            continue
        del rows[r]
        for c2 in row:
            cols[c2].discard(r)
        p = row.pop(c)
        for r2 in cols.pop(c):
            other = rows[r2]
            q = other.pop(c) * p           # p = +-1 is its own inverse
            for c2, v in row.items():
                w = other.get(c2, 0) - q * v
                if w:
                    other[c2] = w
                    cols[c2].add(r2)
                else:
                    del other[c2]
                    cols[c2].discard(r2)
            if not other:
                del rows[r2]
        units += 1
    rest = [c for c in cols if cols[c]]
    factors = smith_normal_form([[row.get(c, 0) for c in rest]
                                 for row in rows.values() if row])
    return [1] * units + factors


# -- homology ------------------------------------------------------------


def _render_group(rank, torsion):
    parts = []
    if rank == 1:
        parts.append("Z")
    elif rank > 1:
        parts.append(f"Z^{rank}")
    parts.extend(f"Z/{t}" for t in torsion)
    return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class HomologyProfile:
    """Integral homology: per dimension a betti number and the tuple of
    invariant factors >= 2 (in divisibility order).  H0 is unreduced,
    so betti[0] counts connected components."""

    betti: tuple
    torsion: tuple

    def __str__(self):
        return "; ".join(
            f"H{k} = {_render_group(b, t)}"
            for k, (b, t) in enumerate(zip(self.betti, self.torsion)))


def homology(K, max_cells=DEFAULT_MAX_CELLS):
    """Exact integral homology of K; raises BudgetExhaustedError when
    the total face count exceeds max_cells."""
    n = K.dim
    if n < 0:
        return HomologyProfile((), ())
    if K.n_faces() > max_cells:
        raise BudgetExhaustedError(
            f"{K.n_faces()} faces exceed the homology cell budget "
            f"of {max_cells}")
    ranks = [0] * (n + 2)
    torsion = [()] * (n + 1)
    for k in range(1, n + 1):
        factors = _invariant_factors(_boundary_rows(K, k))
        ranks[k] = len(factors)
        torsion[k - 1] = tuple(f for f in factors if f > 1)
    betti = tuple(
        len(K.faces_of_dim(k)) - ranks[k] - ranks[k + 1]
        for k in range(n + 1))
    return HomologyProfile(betti, tuple(torsion))


def _sphere_profile(n):
    if n == 0:
        return HomologyProfile((2,), ((),))
    return HomologyProfile(
        (1,) + (0,) * (n - 1) + (1,), ((),) * (n + 1))


def _ball_profile(n):
    return HomologyProfile((1,) + (0,) * n, ((),) * (n + 1))


# -- connectivity helpers -------------------------------------------------


def _connected(adj):
    """Whether the graph given by its nonempty adjacency (vertex ->
    iterable of neighbours) is connected: one walk from one vertex,
    whose seen count is then compared with len(adj)."""
    start = next(iter(adj))
    seen = {start}
    todo = [start]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(adj)


def _adjacency(edges):
    """The graph of distinct edges (u, v): vertex -> list of neighbours,
    whose length is the vertex's degree."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    return adj


def _stars_connected(star):
    """Whether the complex given by its vertex stars (vertex -> the
    facets on it) is connected: `_connected` with each vertex's
    neighbours read from its facets, so no adjacency is built."""
    start = next(iter(star))
    seen = {start}
    todo = [start]
    while todo:
        for F in star[todo.pop()]:
            for w in F:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
    return len(seen) == len(star)


def _fan_connected(v, fan, edges):
    """Whether lk(v) is connected, for a vertex v of a surface whose
    `edges` (``core._ridges``) each lie in at most two triangles, so that
    lk(v) is a union of circles and arcs.  The fan of triangles on v,
    its star, is walked from one triangle F across the edges on v that
    lie in two triangles, one way round until it closes a circle at F or
    ends at an edge in one triangle, then the other way; lk(v) is one
    circle or arc exactly when the walk meets the whole fan.  `fan` and
    `edges` hold the same triangle objects, told apart by identity.  The
    far label of a triangle G across the edge vx is sum(G) - v - x
    (labels are ints), so no link is built."""
    F = fan[0]
    a = F[1] if F[0] == v else F[0]
    met = 1
    for x in (a, sum(F) - v - a):
        G = F
        while len(fs := edges[(v, x) if v < x else (x, v)]) == 2:
            G = fs[1] if fs[0] is G else fs[0]
            if G is F:
                return met == len(fan)
            met += 1
            x = sum(G) - v - x
    return met == len(fan)


def _ridges_paired(K):
    """Pure, with every ridge in exactly two facets; vacuously true for
    {-}, which has no ridges.  ``K.boundary()`` cannot tell this: a
    single point and a closed complex both have the boundary {-}."""
    if K.dim < 0:
        return True
    return K.is_pure() and all(len(fs) == 2
                               for fs in _ridges(K.facets).values())


def is_closed_pseudomanifold(K):
    """Pure, every ridge in exactly two facets, and the facet adjacency
    graph connected, read in one pass over the ridges."""
    if K.dim < 0 or not K.is_pure():
        return False
    adj = {F: [] for F in K.facets}
    for fs in _ridges(K.facets).values():
        if len(fs) != 2:
            return False
        adj[fs[0]].append(fs[1])
        adj[fs[1]].append(fs[0])
    return _connected(adj)


# -- verdicts --------------------------------------------------------------

SPHERE = "Sphere"
BALL = "Ball"
MANIFOLD = "Manifold"
NOT_MANIFOLD = "NotManifold"
OTHER = "Other"
UNKNOWN = "Unknown"


@dataclass(frozen=True)
class Verdict:
    """Outcome of a recognition question.  Yes-verdicts carry their
    certificate as a Transcript, or None when none was found;
    NotManifold carries the counterexample simplex."""

    value: str
    evidence: object = None
    reason: str = ""

    def __str__(self):
        return f"{self.value}: {self.reason}" if self.reason else self.value


def _classify_dim_le_2(K):
    """The exact Verdict of K, of dimension <= 2, without evidence.

    A graph is decided by its connectedness and vertex degrees.  A
    surface is read from two maps, each built in one pass over the
    triangles: ``core._ridges``, each edge -> the triangles on it, and
    each vertex -> its star, the triangles on it.  The vertex graph is
    walked through the stars, and each vertex link by `_fan_connected`
    as the fan of triangles around the vertex; no link complex or link
    graph is built.
    """
    n = K.dim
    if n == -1:
        return Verdict(SPHERE, reason="boundary of a point")
    if not K.is_pure():
        return Verdict(OTHER, reason="not pure")
    if n == 0:
        k = len(K.facets)
        if k == 1:
            return Verdict(BALL, reason="a single point")
        if k == 2:
            return Verdict(SPHERE, reason="two points")
        return Verdict(OTHER, reason=f"{k} isolated points")
    if n == 1:
        adj = _adjacency(K.facets)
        if not _connected(adj):
            return Verdict(OTHER, reason="not connected")
        # a connected graph of degree <= 2 is a circle or an arc
        if any(len(nb) > 2 for nb in adj.values()):
            return Verdict(OTHER, reason="graph is neither a circle nor an arc")
        if all(len(nb) == 2 for nb in adj.values()):
            return Verdict(SPHERE, reason="a circle")
        return Verdict(BALL, reason="an arc")
    # n == 2: exact surface classification
    star = {}
    for F in K.facets:
        for v in F:
            star.setdefault(v, []).append(F)
    if not _stars_connected(star):
        return Verdict(OTHER, reason="not connected")
    edges = _ridges(K.facets)
    if any(len(fs) > 2 for fs in edges.values()):
        return Verdict(OTHER, reason="an edge lies in more than two triangles")
    # a link vertex w of lk(v) has the degree of the edge vw, 1 or 2, so
    # lk(v) is a circle or an arc exactly when it is connected
    for v in sorted(star):
        if not _fan_connected(v, star[v], edges):
            return Verdict(
                OTHER, reason=f"the link of vertex {v} is neither a "
                "circle nor an arc")
    chi = len(star) - len(edges) + len(K.facets)
    rim = _adjacency(e for e, fs in edges.items() if len(fs) == 1)
    if not rim:
        if chi == 2:
            return Verdict(SPHERE, reason="closed surface with chi = 2")
        return Verdict(OTHER, reason=f"closed surface with chi = {chi}")
    # a disk has chi = 1 and a connected rim; every rim vertex has an arc
    # as its link, whose two ends are its two rim edges, so the rim is a
    # union of circles, and one circle exactly when it is connected
    if chi == 1 and _connected(rim):
        return Verdict(BALL, reason="surface with chi = 1 and one boundary circle")
    return Verdict(OTHER, reason="bounded surface that is not a disk")


def _link_verdict(L, budget):
    """The verdict of a link, without the evidence no caller reads in
    dimension <= 2, where it never decides the value."""
    if L.dim <= 2:
        return _classify_dim_le_2(L)
    return recognize_ball_or_sphere(L, budget)


def _evidence(K, budget):
    """(t, V): no moves and V = K's vertices when K is a simplex
    boundary; otherwise from ``find_shelling``, a ball's shelling t down
    to its terminal facet V (no steps when K is one facet), or a
    sphere's shelling (initial facet F) turned into the f_d - 1 flips t
    that carry K to the boundary of V = F + (apex,), certified by one
    replay in K.  None when the shelling search proves that K has no
    shelling; BudgetExhaustedError when it runs out of budget first."""
    if is_simplex_boundary(K):
        return Transcript(), K.vertices()
    sh = find_shelling(K, budget)
    if sh is None:
        return None
    if sh.initial is None:
        return Transcript(sh.steps), sh.terminal
    V = sh.initial + (K.fresh_vertex(),)
    t = _flips_to_cone(sh, V[-1])
    _certify(K, t, simplex_boundary(V), "sphere evidence")
    return t, V


def _exact_evidence(K, budget):
    """The evidence of a verdict decided exactly, None when the shelling
    search finds none within budget."""
    try:
        found = _evidence(K, budget)
    except BudgetExhaustedError:
        return None
    return None if found is None else found[0]


def _cone_flips(sh, v):
    """Flips carrying v * (boundary of X) to the shelled ball X; unchecked."""
    moves = [Bistellar(tuple(sorted((v,) + mv.B)), mv.A) for mv in sh.steps]
    moves.append(Bistellar((v,), sh.terminal))
    return Transcript(tuple(moves))


def _flips_to_cone(sh, v):
    """Flips carrying the ball X that sh shells to v * (boundary of X):
    _cone_flips inverted; unchecked.  A sphere's shelling shells the
    ball its initial facet F leaves, and F stays in place, so they carry
    the sphere to the boundary of F + (v,)."""
    return invert_transcript(_cone_flips(sh, v))


def _cone_apex(K):
    n, by = len(K.facets), K._incidence()._by_vertex
    return min((v for v in by if len(by[v]) == n), default=None)


def recognize_ball_or_sphere(K, budget=DEFAULT_SHELLING_BUDGET):
    """Verdict on whether K is a combinatorial ball or sphere.

    Dimension <= 2 is decided exactly, with no link complex built: a
    graph by its connectedness and vertex degrees; a surface by its
    connectedness, walked through the vertex stars, the edge degrees,
    whether the fan of triangles round each vertex is one circle or arc,
    chi = #vertices - #edges + #triangles and the rim of degree-1 edges;
    `budget` only bounds the search for the evidence of a yes-verdict.  Dimension >= 3 is decided by a
    homology screen and a shelling search of `budget` nodes, Unknown
    when it finds none; the reason then says whether the search proved
    that no shelling exists or ran out of budget.  The evidence is a
    ball's shelling or a sphere's flips to a simplex boundary, or None
    when no certificate was found.
    """
    n = K.dim
    if n <= 2:
        v = _classify_dim_le_2(K)
        if v.value in (SPHERE, BALL):
            return Verdict(v.value, _exact_evidence(K, budget), v.reason)
        return v
    if not K.is_pure():
        return Verdict(OTHER, reason="not pure")
    if is_simplex_boundary(K):
        return Verdict(SPHERE, Transcript(), "boundary of a simplex")
    try:
        closed = K.boundary().dim < 0
    except NotPseudomanifoldError:
        return Verdict(OTHER, reason="a ridge lies in more than two facets")
    # consecutive vertices of each facet stand in for all its edges;
    # a pure complex of dimension >= 3 has no isolated vertex
    if not _connected(_adjacency(
            e for F in K.facets for e in zip(F, F[1:]))):
        return Verdict(OTHER, reason="not connected")
    shape, profile = ((SPHERE, _sphere_profile(n)) if closed
                      else (BALL, _ball_profile(n)))
    if homology(K) != profile:
        return Verdict(OTHER, reason=f"homology differs from the "
                       f"{n}-{shape.lower()}")
    try:
        found = _evidence(K, budget)
        missing = "it has no shelling"
    except BudgetExhaustedError:
        found = None
        missing = f"the shelling search ran out of its {budget}-node budget"
    if found is not None:
        return Verdict(shape, found[0], "shellable")
    apex = None if closed else _cone_apex(K)
    if apex is not None:
        sub = _link_verdict(K.link((apex,)), budget)
        if sub.value in (SPHERE, BALL):
            return Verdict(
                BALL, reason=f"cone with apex {apex} over a "
                f"{sub.value.lower()}")
    return Verdict(UNKNOWN, reason=f"{shape.lower()} homology, but {missing}")


def verify_combinatorial_manifold(M, budget=DEFAULT_SHELLING_BUDGET,
                                  audit_all_links=False):
    """Manifold when every vertex link (every simplex link, under
    audit_all_links) is verdict Sphere or Ball; NotManifold with the
    smallest counterexample simplex; Unknown when a link check ran out
    of budget."""
    if M.dim < 0:
        return Verdict(OTHER, reason="the empty complex has no vertices")
    if not M.is_pure():
        return Verdict(NOT_MANIFOLD, reason="not pure")
    if audit_all_links:
        probes = sorted(f for f in M.faces() if f)
    else:
        probes = [(v,) for v in M.vertices()]
    unknown = None
    for A in probes:
        sub = _link_verdict(M.link(A), budget)
        if sub.value in (SPHERE, BALL):
            continue
        if sub.value == UNKNOWN:
            if unknown is None:
                unknown = A
            continue
        return Verdict(
            NOT_MANIFOLD, evidence=A,
            reason=f"lk({fmt_simplex(A)}) is not a ball or sphere: "
            f"{sub.reason}")
    if unknown is not None:
        return Verdict(
            UNKNOWN, reason=f"the verdict for lk({fmt_simplex(unknown)}) "
            "is unresolved within budget")
    scope = "simplex" if audit_all_links else "vertex"
    return Verdict(MANIFOLD, reason=f"every {scope} link is a ball or sphere")


# -- shelling search --------------------------------------------------------


@dataclass(frozen=True)
class ShellingSequence:
    """An ordered shelling: Shell moves reducing a ball to `terminal`;
    for spheres, `initial` is the facet removed before the steps."""

    steps: tuple
    terminal: tuple
    initial: tuple | None = None


def replay_shelling(X, sh):
    """Replay a ShellingSequence on X, returning the final complex; a
    sphere's initial facet is dropped first, without a maximality filter:
    the rest are facets already."""
    if sh.initial is not None:
        X = Complex(X.facets - {sh.initial} or _TRIVIAL.facets, _trusted=True)
    return apply_transcript(X, Transcript(sh.steps))


def _shell_ball(S, counter):
    """Depth-first search for shell moves down to one facet, trying the
    moves of each node in (A, B) order, on the working state S (a
    ``moves._ShellState``).  A node walks the (A, B) pairs of
    ``S.pairs()``, a copy of the order S keeps, so a copy held for an
    ancestor node is never changed by a later removal; it builds no
    move.  S found each pair legal, so taking it removes the facet A * B
    from S, and backtracking undoes the removal; each removal re-reads
    only the splits it changed.  A Shell is built once per step of the
    sequence returned.  The stack is explicit, so the depth of the
    Python stack does not grow with the facet count; each node visited
    costs one unit of counter[0].  S is back as it came when the search
    returns None."""
    untried = []   # per depth: the (A, B) pairs not yet tried there
    path = []      # the pair taken at each depth above the current one
    facets = S.facets
    while True:
        counter[0] -= 1
        if counter[0] < 0:
            raise BudgetExhaustedError("shelling search budget exhausted")
        if len(facets) == 1:
            return ShellingSequence(tuple([Shell(A, B) for A, B in path]),
                                    next(iter(facets)), None)
        untried.append(iter(S.pairs()))
        while (ab := next(untried[-1], None)) is None:
            untried.pop()
            if not untried:
                return None
            S.undo()
            path.pop()
        path.append(ab)
        S.remove(tuple(sorted(ab[0] + ab[1])))


def find_shelling(X, budget=DEFAULT_SHELLING_BUDGET):
    """First shelling in deterministic (A, B)-lexicographic order.

    The search runs on one working state of X, whose nodes walk (A, B)
    pairs and build no move; the Shells of the sequence returned are
    built once, at the end.  A single facet shells at once and an impure
    X not at all, so neither builds a state.  X is searched in sphere
    mode when the state finds it ``closed``, with no boundary ridge and
    no ridge in three or more facets: each facet F is then tried as the
    initial removal, which removes F from the state, searches and puts
    F back.  Returns None
    when the whole search space is exhausted (a proof of
    unshellability); raises BudgetExhaustedError when the node budget
    runs out first.
    """
    if len(X.facets) == 1:
        return ShellingSequence((), next(iter(X.facets)), None)
    if not X.is_pure():
        return None
    counter = [budget]
    S = _ShellState(X)
    if S.closed:
        for F in X.facet_list():
            S.remove(F)
            seq = _shell_ball(S, counter)
            if seq is not None:
                return ShellingSequence(seq.steps, seq.terminal, F)
            S.undo()
        return None
    return _shell_ball(S, counter)
