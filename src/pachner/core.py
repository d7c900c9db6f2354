"""Abstract simplicial complexes stored by their facets.

A simplex is a strictly increasing tuple of non-negative integer vertex
labels.  The empty tuple () is the empty simplex; every complex contains
it, so the complex written {-} below (facet set {()}) is the smallest
complex of all.  It behaves as the boundary of a point: joining with it
is the identity, and it is the link of every facet.  Keeping it a
first-class citizen is what lets the move calculus treat degenerate
link factors uniformly instead of special-casing them.

A complex is determined by its facets (inclusion-maximal simplexes).
All vertex labels are non-negative integers; `fresh_vertex` hands out
1 + the largest label in use, and 0 for {-}.  Complexes are immutable
to callers.  Membership, links and stars read one private working copy
per complex (`_WorkingComplex`: the facet set and a vertex -> facets
incidence), built on first use and never changed; only `faces()` builds
the closure of every face.  The f-vector is counted once, from that
closure or from the face counts of a flip state that read or built the
complex.  The move replays of `moves` change such a copy in place.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass


class MalformedSimplexError(ValueError):
    """A simplex literal with duplicate, negative, or non-integer labels."""


class AbsentSimplexError(KeyError):
    """An operation referenced a simplex the complex does not contain."""


class JoinCollisionError(ValueError):
    """Join of complexes whose vertex label sets overlap."""


class NotPseudomanifoldError(ValueError):
    """Boundary undefined: input not pure, or a ridge lies in 3+ facets."""


class BudgetExhaustedError(RuntimeError):
    """A bounded search ran out of budget before reaching a verdict."""


# A simplex is just a sorted tuple of ints; these helpers keep the
# convention honest at module boundaries.

EMPTY = ()


def simplex(vertices):
    """Normalise `vertices` into a simplex tuple, validating labels.

    Labels that do not compare are checked in input order, so the first
    one that is not a vertex is named."""
    vs = tuple(vertices)
    try:
        vs = tuple(sorted(vs))
    except TypeError:
        pass
    for v in vs:
        if type(v) is not int or v < 0:  # else a vertex, with no more tests
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                raise MalformedSimplexError(f"bad vertex label {v!r}")
    if len(set(vs)) < len(vs):
        for a, b in zip(vs, vs[1:]):
            if a == b:
                raise MalformedSimplexError(
                    f"duplicate vertex {a} in {vertices!r}")
    return vs


def fmt_simplex(s):
    """Render a simplex as `[v0 v1 ...]` (the transcript-file syntax)."""
    return "[" + " ".join(map(str, s)) + "]"


def _ridges(facets):
    """Each ridge (codimension-one face) of the facets -> the list of
    facets on it, keyed and listed in facet then
    ``itertools.combinations`` order.  The one grouping of facets by
    ridge: the facets must not include (), the facet of {-}, which has
    no ridges."""
    on = {}
    for f in facets:
        for r in itertools.combinations(f, len(f) - 1):
            on.setdefault(r, []).append(f)
    return on


def _rim(facets):
    """The set of boundary ridges, those in exactly one facet.  Raises
    NotPseudomanifoldError unless the facets have one size and every
    ridge lies in at most two of them; it names the least ridge in
    three or more, so the text does not hang on the facets' order."""
    if len({len(f) for f in facets}) != 1:
        raise NotPseudomanifoldError("boundary of a non-pure complex")
    on = _ridges(facets) if EMPTY not in facets else {}
    over = [r for r, fs in on.items() if len(fs) > 2]
    if over:
        r = min(over)
        raise NotPseudomanifoldError(f"ridge {r} lies in {len(on[r])} facets")
    return {r for r, fs in on.items() if len(fs) == 1}


@dataclass(frozen=True)
class FVector:
    """Face counts by dimension (0..n) and the Euler characteristic."""

    counts: tuple
    euler: int

    def __str__(self):
        return f"f = ({', '.join(str(c) for c in self.counts)}); chi = {self.euler}"


class Complex:
    """An abstract simplicial complex, immutable, stored by facets.

    Construct via `from_facets`; the raw constructor trusts its input to
    be normalised (sorted tuples, mutually incomparable, nonempty set).
    Membership, links and stars read the working copy `_incidence()`,
    built on first use unless the move that made the complex handed its
    own copy over; only `faces()` builds the face closure.  The f-vector
    is cached: counted from that closure on the first `f_vector()` call,
    unless a ``moves._FlipState`` that read or built the complex filled
    it from its face counts first.
    """

    __slots__ = ("_facets", "_working", "_faces", "_by_dim", "_vertices",
                 "_fvector", "_dim")

    def __init__(self, facets, _trusted=False):
        if not _trusted:
            raise TypeError("use Complex.from_facets(...)")
        self._facets = facets            # frozenset of sorted tuples
        self._working = None             # the _WorkingComplex of _incidence
        self._faces = None               # frozenset of all faces incl. ()
        self._by_dim = None              # dict dim -> sorted tuple of faces
        self._vertices = None
        self._fvector = None             # FVector, once counted or filled
        self._dim = None                 # the dimension, on first read

    @staticmethod
    def from_facets(facets):
        """Build a complex from an iterable of vertex collections.

        Non-maximal entries are dropped, with no comparison of pairs.
        Entries of one length are all kept.  Otherwise, taken longest
        first, an entry is dropped when the kept facets on each of its
        vertices have a common member.  () is dropped whenever another
        entry is given; no entries at all, or () alone, gives {-}, the
        complex whose only simplex is the empty one.
        """
        return _maximal({simplex(f) for f in facets})

    # -- basic queries ------------------------------------------------

    @property
    def facets(self):
        return self._facets

    def facet_list(self):
        """Facets in deterministic (length, lexicographic) order: sorted
        by length with a stable sort of the sorted facets, so no key
        tuple is built per facet."""
        return sorted(sorted(self._facets), key=len)

    @property
    def dim(self):
        if self._dim is None:
            self._dim = max(map(len, self._facets)) - 1
        return self._dim

    def faces(self):
        """Every simplex of the complex, the empty one included."""
        if self._faces is None:
            out = set()
            for f in self._facets:
                for r in range(len(f) + 1):
                    out.update(itertools.combinations(f, r))
            self._faces = frozenset(out)
        return self._faces

    def faces_of_dim(self, d):
        """Sorted tuple of the d-dimensional simplexes (d = -1 gives ())."""
        if self._by_dim is None:
            by = {}
            for f in self.faces():
                by.setdefault(len(f) - 1, []).append(f)
            self._by_dim = {d: tuple(sorted(v)) for d, v in by.items()}
        return self._by_dim.get(d, ())

    def vertices(self):
        if self._vertices is None:
            vs = set()
            for f in self._facets:
                vs.update(f)
            self._vertices = tuple(sorted(vs))
        return self._vertices

    def _incidence(self):
        """The working copy that membership, links and stars read, built
        on first use or handed over by a move; nothing changes it."""
        if self._working is None:
            self._working = _WorkingComplex(self)
        return self._working

    def __contains__(self, s):
        return bool(self._incidence()._star(tuple(s)))

    def n_faces(self):
        """Number of nonempty faces."""
        return len(self.faces()) - 1

    def f_vector(self):
        if self._fvector is None:
            sizes = Counter(map(len, self.faces()))
            self._fvector = _fvector(sizes[r] for r in range(1, self.dim + 2))
        return self._fvector

    def is_pure(self):
        return len({len(f) for f in self._facets}) == 1

    def fresh_vertex(self):
        """Smallest label strictly above every label in use (0 for {-})."""
        vs = self.vertices()
        return vs[-1] + 1 if vs else 0

    # -- constructions ------------------------------------------------

    def link(self, a):
        """lk(a, K): all b with a*b in K.  lk((), K) = K."""
        a = tuple(a)
        return _link(self.star(a).facets, a)

    def star(self, a):
        """st(a, K) = a * lk(a, K): closure of the facets containing a."""
        a = tuple(a)
        tops = self._incidence()._star(a)
        if not tops:
            raise AbsentSimplexError(f"{a} is not a simplex of the complex")
        return Complex(frozenset(tops), _trusted=True)

    def join(self, other):
        """K * L: all unions a+b; label sets must be disjoint."""
        if set(self.vertices()) & set(other.vertices()):
            raise JoinCollisionError("join arguments share vertex labels")
        tops = frozenset(tuple(sorted(f + g))
                         for f in self._facets for g in other._facets)
        return Complex(tops, _trusted=True)

    def boundary(self):
        """Subcomplex of ridges lying in exactly one facet, closed up.

        Defined for pure complexes whose ridges lie in at most two
        facets (``_rim`` raises NotPseudomanifoldError otherwise); {-}
        is returned when every ridge is interior.
        """
        return Complex(frozenset(_rim(self._facets) or {EMPTY}), _trusted=True)

    def relabel(self, mapping):
        """Apply a vertex relabelling {old: new}; must stay injective."""
        tops = set()
        for f in self._facets:
            g = tuple(sorted(mapping.get(v, v) for v in f))
            if len(set(g)) != len(f):
                raise MalformedSimplexError("relabelling collapses a simplex")
            tops.add(g)
        out = Complex.from_facets(tops)
        vs = self.vertices()
        if len({mapping.get(v, v) for v in vs}) != len(vs):
            raise MalformedSimplexError("relabelling is not injective")
        return out

    def restrict(self, verts):
        """Induced subcomplex on the given vertex set."""
        w = set(verts)
        return _maximal({tuple(v for v in f if v in w) for f in self._facets})

    # -- identity -----------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Complex) and self._facets == other._facets

    def __hash__(self):
        return hash(self._facets)

    def __repr__(self):
        fs = self.facet_list()
        shown = ", ".join(fmt_simplex(f) for f in fs[:6])
        if len(fs) > 6:
            shown += f", ... ({len(fs)} facets)"
        return f"Complex<{shown or '-'}>"


def _maximal(normalised):
    """The complex of the inclusion-maximal members of `normalised`, a
    set of simplexes that it changes; see ``Complex.from_facets``."""
    normalised.discard(EMPTY)  # in place: ties keep their order
    if not normalised:
        return Complex(frozenset({EMPTY}), _trusted=True)
    order = sorted(normalised, key=len, reverse=True)
    if len(order[0]) == len(order[-1]):
        return Complex(frozenset(order), _trusted=True)
    keep, on = [], {}        # on: vertex -> the kept facets on it
    for f in order:
        if all(v in on for v in f) and set.intersection(
                *[on[v] for v in f]):
            continue
        keep.append(f)
        for v in f:
            on.setdefault(v, set()).add(f)
    return Complex(frozenset(keep), _trusted=True)


def _fvector(counts):
    """The FVector of the face counts by dimension, from 0 up."""
    counts = tuple(counts)
    euler = sum(c if d % 2 == 0 else -c for d, c in enumerate(counts))
    return FVector(counts, euler)


def _link(tops, a):
    """lk(a) from the facets `tops` of st(a): each facet without the
    vertices of a; the remainders are mutually incomparable."""
    sa = set(a)
    return Complex(frozenset(tuple(v for v in f if v not in sa) for f in tops),
                   _trusted=True)


class _WorkingComplex:
    """A mutable working copy of a complex: the facet set and a vertex ->
    facets incidence, which ``_tally`` keeps as facets come and go.

    It is private.  A Complex reads its membership, links and stars from
    one, which nothing changes; a move replay changes its own copy in
    place by ``_replace``, then hands it to the complex it returns.
    Subclasses in ``moves`` extend ``_tally`` with their own counts and
    list the legal moves of one family.  Like a Complex it has ``facets``
    and ``vertices()``, which is all ``is_simplex_boundary`` reads.
    """

    def __init__(self, M):
        """A copy of M's facets and their incidence, built in one pass
        with no ``_tally`` per facet: a subclass counts its own extras
        after it, then keeps them through ``_tally``."""
        self.facets = set(M.facets)
        by = self._by_vertex = {}  # vertex -> set of facets containing it
        for f in self.facets:
            for v in f:
                if v in by:
                    by[v].add(f)
                else:
                    by[v] = {f}

    def _tally(self, f, step):
        """Insert (step 1) or remove (step -1) the facet f."""
        by = self._by_vertex
        if step < 0:
            self.facets.discard(f)
            for v in f:
                by[v].discard(f)
                if not by[v]:
                    del by[v]
            return
        self.facets.add(f)
        for v in f:
            if v in by:
                by[v].add(f)
            else:
                by[v] = {f}

    def _replace(self, gone, new):
        """The surgery of a move, in place: remove the facets `gone`, then
        insert the facets `new`.  Returns the copy."""
        for f in gone:
            self._tally(f, -1)
        for f in new:
            self._tally(f, 1)
        return self

    def _star(self, a):
        """The facets containing the simplex a (all for ()), or none if a
        is not one; labels are compared only once all are vertices."""
        if not a:
            return set(self.facets)
        try:
            tops = set.intersection(*[self._by_vertex[v] for v in a])
        except (KeyError, TypeError):
            return set()
        return set() if any(u >= v for u, v in zip(a, a[1:])) else tops

    def vertices(self):
        return self._by_vertex.keys()

    def complex(self):
        return Complex(frozenset(self.facets), _trusted=True)


# -- canonical small complexes ---------------------------------------

_TRIVIAL = Complex(frozenset({EMPTY}), _trusted=True)  # {-}


def full_simplex(verts):
    """The closure of a single simplex on the given labels."""
    return Complex.from_facets([simplex(verts)])


def simplex_boundary(verts):
    """The boundary complex of a simplex: every proper subset of `verts`.

    With no vertices this is {-}, the boundary of a point.
    """
    vs = simplex(verts)
    if not vs:
        return _TRIVIAL
    return _maximal(set(itertools.combinations(vs, len(vs) - 1)))


def standard_sphere(n, offset=0):
    """Boundary of the (n+1)-simplex on labels offset..offset+n+1."""
    return simplex_boundary(range(offset, offset + n + 2))


def is_simplex_boundary(K):
    """True iff K is the full boundary complex of the simplex on its
    own vertex set (a minimal sphere, any labels): n vertices and n
    facets of n - 1 vertices each, which are then all of them."""
    n = len(K.vertices())
    if not n:
        return True  # {-}: boundary of a point
    return len(K.facets) == n and all(len(f) == n - 1 for f in K.facets)


# -- isomorphism ------------------------------------------------------


DEFAULT_ISO_BUDGET = 500_000


def isomorphic(K, L, budget=DEFAULT_ISO_BUDGET):
    """Search for a vertex bijection identifying K with L.

    Returns the mapping {v_K: v_L} or None.  The vertex classes of K and
    L are refined together until no class splits, so a class means the
    same on both sides: a vertex starts from its facet count, and each
    round adds the sorted classes of its neighbours.  K's vertices are
    then taken breadth first through each component, by (class size,
    label), so each component starts at a vertex of a smallest class.
    Each is offered,
    in label order, the unused vertices of its class whose mapped
    neighbours are exactly the images of its own mapped neighbours, and
    a choice stands when every fully mapped facet through it lands on a
    facet of L.  Depth-first with an explicit stack; raises
    BudgetExhaustedError (carrying the partial assignment) when the
    node budget runs out first.
    """
    if K.f_vector() != L.f_vector():
        return None
    (on_k, nk), (on_l, nl) = [
        (on, {v: set().union(*fs).difference((v,)) for v, fs in on.items()})
        for on in (K._incidence()._by_vertex, L._incidence()._by_vertex)]
    ck = {v: len(fs) for v, fs in on_k.items()}
    cl = {v: len(fs) for v, fs in on_l.items()}
    while True:
        sk, sl = [{v: (c[v], tuple(sorted(c[u] for u in nb[v]))) for v in nb}
                  for c, nb in ((ck, nk), (cl, nl))]
        ids = {s: i for i, s in enumerate(sorted({*sk.values(), *sl.values()}))}
        if len(ids) == len({*ck.values(), *cl.values()}):
            break
        ck = {v: ids[s] for v, s in sk.items()}
        cl = {v: ids[s] for v, s in sl.items()}
    if sorted(ck.values()) != sorted(cl.values()):
        return None
    members = {}                 # class -> its vertices of L, by label
    for w in sorted(cl):
        members.setdefault(cl[w], []).append(w)

    def key(v):
        return len(members[ck[v]]), v

    order, seen = [], set()
    for root in sorted(nk, key=key):
        queue = [] if root in seen else [root]
        seen.update(queue)
        for v in queue:
            new = sorted(nk[v] - seen, key=key)
            seen.update(new)
            queue.extend(new)
        order += queue
    mapping, used, nodes = {}, set(), 0

    def offers(v):
        images = {mapping[u] for u in nk[v] if u in mapping}
        pool = sorted(nl[next(iter(images))]) if images else members[ck[v]]
        return (w for w in pool if w not in used and cl[w] == ck[v]
                and used.intersection(nl[w]) == images)

    def consistent(v):
        images = ([mapping.get(u) for u in f] for f in on_k[v])
        return all(None in img or tuple(sorted(img)) in L.facets
                   for img in images)

    # stack[i] offers candidates to order[i], so the depth of the Python
    # stack does not grow with the vertex count
    stack = []
    while len(mapping) < len(order):
        v = order[len(mapping)]
        if len(stack) == len(mapping):
            stack.append(offers(v))
        for w in stack[-1]:
            nodes += 1
            if nodes > budget:
                raise BudgetExhaustedError(
                    f"isomorphism search exceeded {budget} nodes",
                    dict(mapping))
            mapping[v] = w
            used.add(w)
            if consistent(v):
                break
            del mapping[v]
            used.discard(w)
        else:
            stack.pop()
            if not stack:
                return None
            used.discard(mapping.pop(order[len(stack) - 1]))
    return dict(mapping)


# -- facet files ------------------------------------------------------
#
# One facet per line, vertex labels as space-separated decimal numbers.
# Blank lines and lines starting with '#' are ignored.


def loads_complex(text):
    tops = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            tops.append(list(map(int, line.split())))
        except ValueError as exc:
            raise MalformedSimplexError(f"line {ln}: {raw!r}") from exc
    return Complex.from_facets(tops)


def dumps_complex(K):
    """One facet per line in ``facet_list`` order, each formatted by one
    ``%d`` template per facet size (labels are validated ints)."""
    lines = []
    for n, facets in itertools.groupby(K.facet_list(), len):
        if n:  # not the empty facet of {-}
            lines.extend(map(" ".join(["%d"] * n).__mod__, facets))
    if not lines:
        return "# empty complex\n"
    return "\n".join(lines) + "\n"


def load_complex(path):
    with open(path, encoding="utf-8") as fh:
        return loads_complex(fh.read())


def dump_complex(K, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_complex(K))
