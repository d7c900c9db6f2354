"""Moves on simplicial complexes, as replayable data.

Five families, all exact surgeries on labelled face sets:

* ``Star(A, a)``     -- stellar subdivision: replace st(A, M) by
  a * dA * lk(A, M), where a is a label not used by M.
* ``Weld(a, A)``     -- the inverse: legal when lk(a, M) = dA * L with
  A absent from M; replaces st(a, M) by A * L.
* ``Bistellar(A, B)`` -- legal when lk(A, M) = dB exactly and B is
  absent from M; removes A * dB, inserts dA * B.
* ``Exchange(A, B)`` -- stellar exchange: legal when lk(A, M) factors
  as dB * L with B absent; removes A * dB * L, inserts dA * B * L.
  Star, Weld and Bistellar are the special cases B a new vertex,
  A a vertex, and L = {-}.
* ``Shell(A, B)`` / ``Unshell(A, B)`` -- elementary shelling of the
  facet F = A * B and its gluing inverse; A and B are vertex sets.  One
  shelling rule: Shell is legal when the boundary ridges of F are
  exactly the F - v for v in A, A is not in the boundary, and no other
  facet contains B.  F then meets the boundary in B * dA and the rest
  in A * dB, a ball, and each facet has at most one split.  Unshell is
  Shell on the glued complex: gluing F must add F alone, and Shell
  must then remove it.

Every move is dispatched through one table from move type to (A, B)
data, legality check, surgery and inverse.  A surgery is written once
per family: it returns the facets the move removes and inserts, which
``core._WorkingComplex._replace`` applies in place.  ``check_move``
returns a LegalityReport and reads a complex through its working copy;
it checks the move's (A, B) data once for every family, refusing
malformed simplexes, data that is not a tuple and an A that meets B,
and lets a fault in a family's check propagate.  ``_apply`` is the one
checked step on a working copy: it checks the move there once, raises
IllegalMoveError (carrying the report) and leaves the copy unchanged
when the move is illegal, else applies the surgery in place, handing
an exchange-family surgery the st(A) its check read, so a step reads
st(A) once, and returns the report, whose link factor the caller may
read.
``apply_move`` is one ``_apply`` on a fresh working copy, which becomes
the result's incidence; ``apply_transcript`` replays on one working
copy through ``_replay``, one ``_apply`` per step.  Complexes stay
immutable to callers; the working copies are private.  One rule reads
a link that is a simplex boundary from the facets on A alone, with no
link built (``_simplex_link``: lk(A) = dB exactly when A lies in len(B)
facets of len(A) + len(B) - 1 vertices, whose vertices outside A are
B's, or A is a facet and B one vertex).  The flip check decides a legal
flip by it; a refusal goes through the general exchange check, which
gives its reason and link factor.  Two working copies list the moves
of a search, each keeping the legal ones as sorted (A, B) pairs, moved
by bisection only where a move changed them, so a node lists its moves
with one copy of that order.  ``_FlipState`` keeps the facets on each
face of two or more vertices, its incidence being the vertex stars, and
reads each link by the same rule; the flips onto a face B also change
where B appears or vanishes.  Its ``moves()`` is the one flip lister,
a ``_FlipListing`` that builds a Bistellar only when one is read.
``_ShellState`` removes a facet, re-reads only the splits next to it
and undoes a removal from its log; its ``pairs()`` is the one shell
lister.  ``enumerate_moves`` on a complex builds a fresh state and
returns a plain list, and on a ``_FlipState`` returns its kept listing;
``apply_move(S, move)`` also accepts a ``_FlipState``, checks the move
by lookups and flips S in place.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, bisect_right, insort
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import attrgetter

from .core import (
    Complex,
    EMPTY,
    _TRIVIAL,
    _WorkingComplex,
    _fvector,
    _link,
    _ridges,
    _rim,
    fmt_simplex,
    simplex,
    simplex_boundary,
    MalformedSimplexError,
    NotPseudomanifoldError,
)


@dataclass(frozen=True)
class Star:
    A: tuple
    a: int

    def __str__(self):
        return f"STAR {fmt_simplex(self.A)} {self.a}"


@dataclass(frozen=True)
class Weld:
    a: int
    A: tuple

    def __str__(self):
        return f"WELD {self.a} {fmt_simplex(self.A)}"


@dataclass(frozen=True)
class _PairMove:
    """A move written `KEYWORD [A] ; [B]`; subclasses set the keyword."""

    A: tuple
    B: tuple
    keyword = ""

    def __str__(self):
        return f"{self.keyword} {fmt_simplex(self.A)} ; {fmt_simplex(self.B)}"


class Bistellar(_PairMove):
    keyword = "FLIP"


class Exchange(_PairMove):
    keyword = "XCHG"


class Shell(_PairMove):
    keyword = "SHELL"


class Unshell(_PairMove):
    keyword = "UNSHELL"


_PAIR_MOVES = {cls.keyword: cls for cls in (Bistellar, Exchange, Shell, Unshell)}

MOVE_KINDS = ("star", "weld", "bistellar", "exchange", "shell", "unshell")


@dataclass(frozen=True)
class LegalityReport:
    """Outcome of a legality check; `link_factor` is the complex L in
    the factorisation lk(A, M) = dB * L when one was established."""

    legal: bool
    reason: str = ""
    link_factor: Complex | None = None
    # st(A) as a legal exchange-family check read it, which the surgery
    # removes, so an applied step reads it once
    _star: set | None = field(default=None, repr=False, compare=False)


class IllegalMoveError(ValueError):
    """Raised by apply_move; carries the move and its LegalityReport."""

    def __init__(self, move, report):
        super().__init__(f"illegal move {move}: {report.reason}")
        self.move = move
        self.report = report


class IllegalAtStepError(ValueError):
    """A transcript replay failed; carries the zero-based step index."""

    def __init__(self, index, move, report):
        super().__init__(f"step {index}: illegal move {move}: {report.reason}")
        self.index = index
        self.move = move
        self.report = report


# -- legality ----------------------------------------------------------

# A check reads the working copy S of the complex: S._star, S.facets and
# S._by_vertex.


def _check_exchange(S, A, B):
    """Shared legality core: lk(A, M) = dB * L with B absent from M; st(A)
    is read once.  When B is one vertex, dB is {-} and L is lk(A)."""
    if not A:
        return LegalityReport(False, "A must be nonempty")
    star = S._star(A)
    if not star:
        return LegalityReport(False, f"A = {fmt_simplex(A)} is not in the complex")
    if list(B) != sorted(B):
        return LegalityReport(False, f"B = {fmt_simplex(B)} is not sorted")
    if S._star(B):
        # covers B = () too: the empty simplex is in every complex
        return LegalityReport(False, f"B = {fmt_simplex(B)} is already in the complex")
    lk = _link(star, A)
    if len(B) == 1:
        return LegalityReport(True, link_factor=lk, _star=star)
    L = lk.restrict(set(lk.vertices()) - set(B))
    if simplex_boundary(B).join(L) != lk:
        return LegalityReport(
            False,
            f"lk(A) does not factor as d{fmt_simplex(B)} * L",
        )
    return LegalityReport(True, link_factor=L, _star=star)


def _opposite(F, ridges):
    """The v in the sorted simplex F whose opposite face F - v is in `ridges`
    (``combinations`` drops the last vertex first, so it pairs with F
    read backwards)."""
    A = [v for v, R in zip(F[::-1], itertools.combinations(F, len(F) - 1))
         if R in ridges]
    A.reverse()
    return tuple(A)


def _split(F, A, through, incidence):
    """The one split (A, B) of the facet F that Shell may remove, or None.

    A is ``_opposite(F, ridges)``, the vertices opposite F's boundary
    ridges.  Two maps describe the complex: ``through`` maps a vertex to
    the boundary ridges containing it, and ``incidence`` a vertex to the
    facets containing it.  The split is refused when A or B is empty,
    when A is a boundary face (some boundary ridge through A[0] contains
    it; any one does when A is a vertex), or when another facet contains
    B, that is when the facets on B's vertices, intersected, are more
    than F: F then meets the rest in more than A * dB."""
    if not A or len(A) == len(F):
        return None
    if (through.get(A[0]) if len(A) == 1
            else any(map(set(A).issubset, through.get(A[0], ())))):
        return None
    B = tuple([v for v in F if v not in A])
    on_b = (incidence[B[0]] if len(B) == 1
            else set.intersection(*[incidence[v] for v in B]))
    return None if len(on_b) > 1 else (A, B)


def _check_shell(S, A, B):
    if not A or not B:
        return LegalityReport(False, "A and B must both be nonempty")
    F = tuple(sorted(A + B))
    if F not in S.facets:
        return LegalityReport(False, f"A*B = {fmt_simplex(F)} is not a facet")
    try:
        rim = _rim(S.facets)
    except NotPseudomanifoldError as exc:
        return LegalityReport(False, f"boundary undefined: {exc}")
    # _split looks up only the boundary ridges through the least vertex
    # of its A, which must be min(A) for the split to match
    a = min(A)
    through = {a: [R for R in rim if a in R]}
    split = _split(F, _opposite(F, rim), through, S._by_vertex)
    if split != (tuple(sorted(A)), tuple(sorted(B))):
        return LegalityReport(
            False, "A*B must meet the rest exactly in A * dB and the "
            "boundary in B * dA")
    return LegalityReport(True)


def _check_unshell(S, A, B):
    """Gluing F = A * B is legal when F is not yet a face and Shell(A, B)
    is legal on the glued copy.  A facet inside F makes that copy impure,
    so the Shell check refuses it as a boundary undefined."""
    F = tuple(sorted(A + B))
    if S._star(F):
        return LegalityReport(False, f"glued facet {fmt_simplex(F)} already present")
    back = _check_shell(_WorkingComplex(S)._replace((), (F,)), A, B)
    if not back.legal:
        return LegalityReport(False, f"gluing is not a shelling inverse: {back.reason}")
    return LegalityReport(True)


def _simplex_link(A, star):
    """The vertices of lk(A) when it is the boundary of a simplex, read
    from `star`, the facets on the nonempty face A, with no link built:
    () when A is its one facet (lk(A) = {-}), else None when the link is
    no simplex boundary.  The one statement of the link rule: lk(A) is
    the boundary of a simplex on n vertices exactly when A lies in n
    facets, each with len(A) + n - 1 vertices, whose vertices outside A
    number n.  For n = 2 that is a 0-sphere, read from the one label each
    facet adds to A (labels are ints) with no set built."""
    n = len(star)
    if n == 2:
        F, G = star
        if len(F) == len(G) == len(A) + 1:
            a = sum(A)  # F is A and one label more: sum(F) - a
            x, y = sum(F) - a, sum(G) - a
            return (x, y) if x < y else (y, x)
    elif n == 1:
        (F,) = star
        if len(F) == len(A):
            return ()
    elif n:
        size = len(A) + n - 1
        if all(len(F) == size for F in star):
            rest = set().union(*star).difference(A)
            if len(rest) == n:
                return tuple(sorted(rest))
    return None


def _check_bistellar(S, A, B):
    """An exchange whose residual link factor L is {-}: legal when B is
    sorted and absent and lk(A) = dB by ``_simplex_link``, that is when
    it reads B as lk(A)'s vertices, or A is a facet and B one vertex.
    The link factor of a legal flip is {-}.  Any other move is refused
    by the exchange check, so every refusal keeps its reason and link
    factor: a legal exchange with L other than {-} is refused with L."""
    if A:
        star = S._star(A)
        lk = _simplex_link(A, star)
        if (lk == B or lk == () and len(B) == 1) and not S._star(B):
            return LegalityReport(True, link_factor=_TRIVIAL, _star=star)
    rep = _check_exchange(S, A, B)
    if rep.legal and rep.link_factor != _TRIVIAL:
        return LegalityReport(
            False, "lk(A) is not exactly dB (residual factor present)",
            rep.link_factor)
    return rep


# -- application -------------------------------------------------------


# A surgery maps (A, B, link factor, st(A)) for a legal move to (gone,
# new): the facets it removes from the working copy and the facets it
# inserts.  st(A) is the star the check read, for an exchange-family move.


def _exchange_surgery(A, B, L, star):
    """A legal exchange drops st(A) and inserts (A - v) * B * C over v in
    A, C a facet of L."""
    return star, {tuple(sorted(A[:i] + A[i + 1:] + B + C))
                  for i in range(len(A)) for C in L.facets}


def _shell_surgery(A, B, L, star):
    return (tuple(sorted(A + B)),), ()


def _unshell_surgery(A, B, L, star):
    """Gluing F = A * B inserts F and removes nothing, the mirror of
    ``_shell_surgery``: ``_check_unshell`` refuses a facet inside F."""
    return (), (tuple(sorted(A + B)),)


_ab = attrgetter("A", "B")

# move type -> (its (A, B) data, legality check on (S, A, B), surgery,
# the move undoing it).  Star, Weld, Bistellar and Exchange are the one
# exchange surgery; Shell and Unshell remove and glue the facet A * B.
_FAMILIES = {
    Star: (lambda m: (m.A, (m.a,)), _check_exchange, _exchange_surgery,
           lambda m: Weld(m.a, m.A)),
    Weld: (lambda m: ((m.a,), m.A), _check_exchange, _exchange_surgery,
           lambda m: Star(m.A, m.a)),
    Bistellar: (_ab, _check_bistellar, _exchange_surgery,
                lambda m: Bistellar(m.B, m.A)),
    Exchange: (_ab, _check_exchange, _exchange_surgery,
               lambda m: Exchange(m.B, m.A)),
    Shell: (_ab, _check_shell, _shell_surgery, lambda m: Unshell(m.A, m.B)),
    Unshell: (_ab, _check_unshell, _unshell_surgery, lambda m: Shell(m.A, m.B)),
}


def check_move(M, move):
    """Legality report for `move` on M, a complex or a working copy.

    The move's (A, B) data is checked here, once for every family: a
    malformed simplex, an A or B that is not a tuple, or an A and B that
    share vertices, yields an illegal report.  The family's check then
    runs unguarded, so a fault in it propagates."""
    family = _FAMILIES.get(type(move))
    if family is None:
        return LegalityReport(False, f"unknown move type {type(move).__name__}")
    A, B = family[0](move)
    try:
        simplex(A), simplex(B)
    except (MalformedSimplexError, TypeError) as exc:
        return LegalityReport(False, f"check failed: {exc}")
    if not isinstance(A, tuple) or not isinstance(B, tuple):
        return LegalityReport(False, "check failed: A and B must be tuples")
    if not set(A).isdisjoint(B):
        return LegalityReport(False, "A and B share vertices")
    S = M if isinstance(M, _WorkingComplex) else M._incidence()
    return family[1](S, A, B)


def _apply(S, move):
    """The one checked step on the working copy S: check the move once on
    S, raise IllegalMoveError (S unchanged) if it is illegal, else apply
    its surgery to S in place, handing it the st(A) the check read.
    Returns the report, whose link factor the caller may read."""
    report = check_move(S, move)
    if not report.legal:
        raise IllegalMoveError(move, report)
    pair, _, surgery, _ = _FAMILIES[type(move)]
    S._replace(*surgery(*pair(move), report.link_factor, report._star))
    return report


def _handed_over(S):
    """The complex of the working copy S, which keeps S as its incidence:
    S must be fresh, held by nothing else and changed no more."""
    K = S.complex()
    K._working = S
    return K


def apply_move(M, move):
    """Apply a legal move; raises IllegalMoveError otherwise.

    The result is a new complex, which keeps the fresh working copy
    the move was checked and applied on (``_apply``) as its incidence.
    On a ``_FlipState`` the move must be one its ``moves()`` lists; the
    state is flipped in place and returned.
    """
    if isinstance(M, _FlipState):
        M.apply(move)
        return M
    S = _WorkingComplex(M)
    _apply(S, move)
    return _handed_over(S)


def invert(move):
    """The move undoing `move` on its result complex."""
    family = _FAMILIES.get(type(move))
    if family is None:
        raise TypeError(f"unknown move type {type(move).__name__}")
    return family[3](move)


# -- enumeration -------------------------------------------------------


def _minimal_nonfaces(L):
    """Vertex sets of two or more vertices of L that are not simplexes of
    L though every proper subset is, sorted by (size, labels).  These are
    the only candidates B with dB contained in L.  One pass over the
    faces F of L: a minimal nonface less its largest vertex v is a face,
    so it is F + (v,) for a v above max(F), kept when it is no face and
    its facets other than F are faces.  L may have any number of
    vertices."""
    faces = L.faces()
    vs = L.vertices()
    out = []
    for F in faces:
        if F:
            for v in vs[bisect_right(vs, F[-1]):]:
                S = F + (v,)
                if S not in faces and all(
                        S[:i] + S[i + 1:] in faces for i in range(len(F))):
                    out.append(S)
    return sorted(sorted(out), key=len)


def enumerate_moves(M, kind):
    """All legal moves of one family, sorted by (A, B)-data.

    Moves that introduce a new vertex use fresh_vertex(M); the legality
    checker accepts any unused label, but enumeration is canonical.
    Bistellar moves are listed by a fresh ``_FlipState`` of M and shell
    moves by the ``pairs()`` of a fresh ``_ShellState``, with no check;
    the other families filter candidates through ``check_move``.  A
    shell move needs a pure complex of two or more facets, so no state
    is built for any other.  Of the working copies only a ``_FlipState``
    is enumerated, for bistellar moves, from what it keeps, so it lists
    what enumerating its complex lists by construction.
    """
    if isinstance(M, _WorkingComplex):
        if kind != "bistellar" or not isinstance(M, _FlipState):
            raise ValueError(f"a working copy enumerates the bistellar "
                             f"moves of a flip state only, not {kind!r}")
        return M.moves()
    if kind == "bistellar":
        # the state lists the legal flips as they stand: no check
        return list(_FlipState(M).moves()) if M.dim >= 0 else []
    if kind == "shell":
        if len(M.facets) < 2 or not M.is_pure():
            return []
        return [Shell(A, B) for A, B in _ShellState(M).pairs()]
    fresh = M.fresh_vertex()
    if kind == "star":
        return [Star(A, fresh) for A in sorted(f for f in M.faces() if f)]
    if kind == "weld":
        cands = (Weld(a, A) for a in M.vertices()
                 for A in [(fresh,)] + _minimal_nonfaces(M.link((a,))))
    elif kind == "exchange":
        cands = (Exchange(A, B) for A in sorted(f for f in M.faces() if f)
                 for B in [(fresh,)] + _minimal_nonfaces(M.link(A)))
    elif kind == "unshell":
        try:
            rim = _rim(M.facets) - {EMPTY}
        except NotPseudomanifoldError:
            return []
        # a glued facet holds one boundary ridge and a fresh vertex, or two
        # boundary ridges that alone share a codimension-2 face
        glued = {R + (fresh,) for R in rim}
        glued.update(tuple(sorted(set().union(*pair)))
                     for pair in _ridges(rim).values() if len(pair) == 2)
        cands = (Unshell(tuple(v for v in F if v not in B), B)
                 for F in glued for B in [_opposite(F, rim)])
    else:
        raise ValueError(
            f"unknown move kind {kind!r}; expected one of {MOVE_KINDS}")
    # stream the candidates: a list of them all burdens the collector
    legal = [mv for mv in cands if check_move(M, mv).legal]
    return sorted(legal, key=lambda mv: _FAMILIES[type(mv)][0](mv))


def _faces(f, least):
    """The faces of f of `least` or more vertices."""
    return itertools.chain.from_iterable(
        itertools.combinations(f, r) for r in range(least, len(f) + 1))


class _FlipState(_WorkingComplex):
    """A working copy of a complex for walks over bistellar moves.

    Besides the facets and their incidence it keeps the facets on each
    face of two or more vertices, per-size face counts, and for every
    face A whose link is a simplex boundary the link's vertices (() when
    A is a facet).  Each vertex star, a point facet's too, is kept once,
    as the incidence: the state reads it there, and its vertex count is
    the incidence's.  Each link is read from the facets on A by
    ``_simplex_link``, the rule the flip check also reads, with no link
    built; ``_retest`` decides links through it alone.  Flip A -> B is
    then legal exactly when B is absent, and ``_legal`` keeps the (A, B)
    pairs of the legal flips in sorted order (B is () for a facet, whose
    flip takes the fresh label), with a map from each B to the faces A
    whose link is dB.  A legal flip changes in two places only: where a
    link changes, which ``apply`` re-tests on the faces of the facets it
    removes and inserts (no other link changes), and where a face B
    appears or vanishes, when ``_tally`` moves the flips onto B, which
    may start far from the flip, as the two poles of a suspension do.
    Each moves one pair by bisection, so no flip re-sorts or rebuilds
    the order.  The state is built in one pass over the facets and
    their proper faces of two or more vertices, not by inserting facets
    one at a time through ``_tally``: every facet's link is {-} with no
    test, the other links are decided from the (face, star) items of
    that map and of the incidence under ``_retest``'s size bound, and
    one pass over the links in sorted order fills ``_legal``.
    ``moves()`` lists the order with one copy; it is the one flip
    lister, which ``enumerate_moves(M, "bistellar")`` calls on a fresh
    state.  Walks drive it through ``enumerate_moves`` and
    ``apply_move``.  Its face counts are the f-vector: it fills the
    cached one of the complex it is built from, when not yet counted,
    and of every complex ``complex()`` returns, so neither builds a
    face closure to count it.
    """

    def __init__(self, M):
        super().__init__(M)
        on = self._on = {}       # face of 2+ vertices -> the facets on it
        combinations = itertools.combinations
        for f in M.facets:
            for r in range(2, len(f)):  # but f, which joins below
                for s in combinations(f, r):
                    star = on.get(s)
                    if star is None:
                        on[s] = [f]
                    else:
                        star.append(f)
        facets = [f for f in M.facets if f]  # not the empty facet of {-}
        top = M.dim + 2
        self._sizes = sizes = [0] * top  # face size -> faces
        # face -> its link's vertices, when the link is a simplex boundary;
        # a facet's link is {-}, and no other face's is.  The other links
        # are decided from each (face, star) item under _retest's size
        # bound, with no second lookup per face and no change list
        links = self._links = dict.fromkeys(facets, ())
        vertex_stars = (((v,), star) for v, star in self._by_vertex.items())
        for A, star in itertools.chain(on.items(), vertex_stars):
            if len(star) <= top - len(A):
                B = _simplex_link(A, star)
                if B is not None:
                    links[A] = B
        for f in facets:
            if len(f) > 1:
                on[f] = [f]
        for s in on:
            sizes[len(s)] += 1
        if facets:  # not {-}: the vertex count is the incidence's
            sizes[1] = len(self._by_vertex)
        onto = self._onto = {}   # B -> the faces A with lk(A) = dB
        legal = self._legal = []  # the (A, B) of every legal flip, sorted
        for A in sorted(links):
            B = links[A]
            if B:
                onto.setdefault(B, []).append(A)
            if B not in on:
                legal.append((A, B))
        self._moves = None       # moves(), until the next flip
        if M._fvector is None:
            M._fvector = _fvector(sizes[1:])

    def _tally(self, f, step):
        super()._tally(f, step)
        on, sizes, onto = self._on, self._sizes, self._onto
        sizes[1] = len(self._by_vertex)
        if step > 0:
            for s in _faces(f, 2):  # the faces on which facets are kept
                star = on.get(s)
                if star is None:  # the face appears
                    on[s] = [f]
                    sizes[len(s)] += 1
                    if s in onto:  # the flips onto s leave
                        legal = self._legal
                        for A in onto[s]:
                            del legal[bisect_left(legal, (A, s))]
                else:
                    star.append(f)
            return
        for s in _faces(f, 2):
            star = on[s]
            if len(star) > 1:
                star.remove(f)
            else:  # the face disappears
                del on[s]
                sizes[len(s)] -= 1
                if s in onto:  # the flips onto s join
                    for A in onto[s]:
                        insort(self._legal, (A, s))

    def _retest(self, faces):
        """Re-decide the links of `faces` by ``_simplex_link``, which is
        not called for a face on more than dim + 2 - len(A) facets: a
        facet has at most dim + 1 vertices, so that link is no simplex
        boundary.  A vertex's facets are read from the incidence.
        Returns (A, old, new) for each face whose link changed, old and
        new being the link's vertices before and after, or None when it
        is no simplex boundary."""
        links, on, by = self._links, self._on, self._by_vertex
        top = len(self._sizes)
        changed = []
        for A in faces:
            # an absent face has no link
            star = on.get(A, ()) if len(A) > 1 else by.get(A[0], ())
            B = _simplex_link(A, star) if len(star) <= top - len(A) else None
            old = links.get(A)
            if old != B:
                changed.append((A, old, B))
                if B is None:
                    del links[A]
                else:
                    links[A] = B
        return changed

    def complex(self):
        K = super().complex()
        K._fvector = _fvector(self._sizes[1:])
        return K

    def objective(self):
        """The f-vector read from the top dimension down, so fewer
        facets always wins first."""
        return tuple(self._sizes[:0:-1])

    def moves(self):
        """The legal flips, sorted by A; a facet A flips to a fresh
        vertex.  A read-only listing over one copy of the kept order:
        nothing is sorted, and a flip is built only when read, so a
        later flip does not change a listing once returned.  It is kept
        until the next flip, as a walk re-reads it after every rejected
        proposal."""
        if self._moves is None:
            self._moves = _FlipListing(
                self._legal[:], (max(self._by_vertex, default=-1) + 1,))
        return self._moves

    def _lists(self, mv):
        """Whether moves() lists mv, by lookups instead of a scan."""
        if type(mv) is not Bistellar or mv.A not in self._links:
            return False
        B = self._links[mv.A] or (max(self._by_vertex) + 1,)
        return mv.B == B and B not in self._on

    def apply(self, mv):
        """Apply a flip that moves() lists; raises IllegalMoveError
        otherwise.  No link is recomputed to check it, and the surgery
        removes a copy of the kept st(A)."""
        if not self._lists(mv):
            raise IllegalMoveError(mv, LegalityReport(
                False, "not a flip of the working state"))
        # a copy of the kept st(A), which the surgery's removals change
        star = (self._on[mv.A] if len(mv.A) > 1
                else self._by_vertex[mv.A[0]])
        gone, new = _exchange_surgery(mv.A, mv.B, _TRIVIAL, tuple(star))
        self._replace(gone, new)
        self._moves = None
        legal, onto, on = self._legal, self._onto, self._on
        for A, old, B in self._retest({s for f in (*gone, *new)
                                       for s in _faces(f, 1)}):
            if old is not None:
                if old:
                    onto[old].remove(A)
                    if not onto[old]:
                        del onto[old]
                if old not in on:
                    del legal[bisect_left(legal, (A, old))]
            if B is not None:
                if B:
                    onto.setdefault(B, []).append(A)
                if B not in on:
                    insort(legal, (A, B))


class _FlipListing(Sequence):
    """The flips a ``_FlipState`` lists, read-only: a copy of its sorted
    (A, B) pairs and the fresh label that an empty B stands for, with a
    Bistellar built only for an index read or an iteration.  It compares
    equal to the list of the same flips."""

    __slots__ = ("_pairs", "_fresh")

    def __init__(self, pairs, fresh):
        self._pairs = pairs
        self._fresh = fresh

    def __len__(self):
        return len(self._pairs)

    def __getitem__(self, i):
        A, B = self._pairs[i]
        return Bistellar(A, B or self._fresh)

    def __iter__(self):
        fresh = self._fresh
        return (Bistellar(A, B or fresh) for A, B in self._pairs)

    def __eq__(self, other):
        if isinstance(other, (list, _FlipListing)):
            return list(self) == list(other)
        return NotImplemented


_NO_READ = ((), None)    # the read of a facet on no boundary ridge


class _ShellState(_WorkingComplex):
    """A working copy of a complex for searches over shell moves.  Its
    callers build it only on a pure complex of two or more facets, and
    removing facets keeps a pure complex pure, so no test of purity is
    kept here.

    Besides the facets and their incidence it keeps the facets on each
    ridge, a boundary ridge being one on one facet, and a vertex ->
    boundary ridges map (with the incidence, the three maps a split is
    read from), kept as facets come and go.  It also keeps the read of
    each facet on a boundary ridge: the vertices A opposite its boundary
    ridges, each read as the label the facet adds to one, and ``_split``'s
    answer (a facet on none has A = () and no split), and the legal
    shell moves as (A, B) pairs in one sorted list, which ``pairs()``
    copies.  ``closed`` says whether the complex it was built from has
    no boundary ridge and no ridge in three or more facets.  It is built
    in one pass, with no facet inserted through ``_tally``: one grouping
    of the facets by ridge (``core._ridges``) is the ridge map, and gives
    the boundary ridges and each facet's A, the label it adds to each
    boundary ridge on it, so a facet on no boundary ridge is read with
    no test.
    ``remove(G)`` drops the facet G and re-reads only the facets meeting
    G that now lie alone on a ridge of G or whose A or B lies in G: no
    other split can change, and only a ridge of G changes an A.  The
    first are found in the ridge map and their A read again from it as
    the build reads it; the second have an A already, so
    it counts the vertices they share with G only for the facets on a
    boundary ridge, and no test builds a set per facet.  Only a split
    that changed is moved in the list, by bisection, so no node sorts or
    builds its moves anew.  It logs the reads it overwrites, and
    ``undo()`` pops the log to restore the complex before the last
    removal without re-reading.
    """

    def __init__(self, M):
        super().__init__(M)
        on = self._on = _ridges(self.facets)  # ridge -> the facets on it
        # the ridges in three or more facets
        self._over = sum(map((2).__lt__, map(len, on.values())))
        # vertex -> the boundary ridges on it (a set left empty stays)
        through = self._through = defaultdict(set)
        opposite = {}            # facet -> the vertices A opposite its rim
        for r, fs in on.items():
            if len(fs) == 1:
                for v in r:
                    through[v].add(r)
                F = fs[0]
                v = sum(F) - sum(r)  # F is r and one label more
                if F in opposite:
                    opposite[F].append(v)
                else:
                    opposite[F] = [v]
        self._log = []           # per removal: (facet, read) pairs it
        #                          replaced, the removed facet first
        # facet on a boundary ridge -> (A, its split or None); every
        # split, sorted
        reads = self._reads = {}
        for F, A in opposite.items():
            A = tuple(sorted(A))
            reads[F] = A, _split(F, A, through, self._by_vertex)
        self._order = sorted(split for _, split in reads.values() if split)
        self.closed = not opposite and not self._over

    def _tally(self, f, step):
        """Insert (step 1) or remove (step -1) the facet f, moving it on
        its ridges in the step's direction: a ridge joins or leaves the
        boundary as its facet count crosses 1, and ``_over`` moves only
        as the count crosses between 2 and 3."""
        super()._tally(f, step)
        on, through = self._on, self._through
        ridges = itertools.combinations(f, len(f) - 1)
        if step > 0:
            for r in ridges:
                fs = on.get(r)
                if fs is None:  # r joins the complex and its boundary
                    on[r] = [f]
                    for v in r:
                        through[v].add(r)
                    continue
                fs.append(f)
                if len(fs) == 2:  # r leaves the boundary
                    for v in r:
                        through[v].discard(r)
                elif len(fs) == 3:
                    self._over += 1
            return
        for r in ridges:
            fs = on[r]
            if len(fs) == 1:  # r leaves the boundary and the complex
                del on[r]
                for v in r:
                    through[v].discard(r)
                continue
            fs.remove(f)
            if len(fs) == 1:  # r joins the boundary
                for v in r:
                    through[v].add(r)
            elif len(fs) == 2:
                self._over -= 1

    def _reorder(self, old, new):
        """Replace the split `old` in the order by `new`, which differs;
        either may be None."""
        order = self._order
        if old:
            del order[bisect_left(order, old)]
        if new:
            insort(order, new)

    def pairs(self):
        """The (A, B) pairs of the legal shell moves, in order: a copy of
        the kept order, which no later removal changes, or [] while a
        ridge lies in three or more facets and the boundary is undefined.
        Nothing is cached, since a search asks once per node."""
        return [] if self._over else self._order[:]

    def remove(self, G):
        """Remove the facet G (the shell surgery) and re-read the splits
        it can change, logging the reads it replaces.  Only a ridge of G
        changes a facet's boundary ridges: a facet left alone on one,
        found in the ridge map, gains it, and its A is read again.  Any
        other split changes only when G holds all of the facet's A or of
        F - A, its B, so only a facet with a read can change: the
        vertices each one shares with G are counted over the facets on
        G's vertices, and F, sharing n, is re-read when it shares a ridge
        with G (n is one less than both sizes; its A is read again), when
        G holds all of its A, or when the n shared vertices less those in
        A are all of its B.  No other facet's A or split changes."""
        self._tally(G, -1)
        reads, through, by, on = (
            self._reads, self._through, self._by_vertex, self._on)
        combinations = itertools.combinations
        read = reads.pop(G, _NO_READ)
        if read[1]:
            self._reorder(read[1], None)
        replaced = [(G, read)]
        gs, ridge = set(G), len(G) - 1
        near = {}                # facet with a read -> vertices shared with G
        for v in G:
            for F in by.get(v, ()):
                if F in reads:
                    near[F] = near.get(F, 0) + 1
        for r in combinations(G, ridge):
            fs = on.get(r)
            if fs and len(fs) == 1:  # fs[0] gains the boundary ridge r
                near[fs[0]] = ridge
        for F, n in near.items():
            read = reads.get(F, _NO_READ)
            A, old = read
            if n == ridge == len(F) - 1:  # read A as the build does
                total = sum(F)
                A = tuple(sorted([total - sum(r) for r in combinations(F, ridge)
                                  if len(on[r]) == 1]))
            elif not (gs.issuperset(A)
                      or n >= (b := len(F) - len(A)) > 0
                      and n - len(gs.intersection(A)) == b):
                continue
            new = _split(F, A, through, by)
            replaced.append((F, read))
            reads[F] = A, new
            if new != old:
                self._reorder(old, new)
        self._log.append(replaced)

    def undo(self):
        """Put back the facet of the last ``remove`` and the reads it
        replaced."""
        replaced = self._log.pop()
        self._tally(replaced[0][0], 1)
        reads = self._reads
        for F, read in replaced:
            old = reads.pop(F, _NO_READ)[1]
            if read[0]:
                reads[F] = read
            if read[1] != old:
                self._reorder(old, read[1])


# -- transcripts -------------------------------------------------------


class TranscriptParseError(ValueError):
    pass


@dataclass(frozen=True)
class Transcript:
    """An ordered list of moves with optional per-move annotation tags."""

    moves: tuple = ()
    notes: tuple = ()

    def __post_init__(self):
        moves = tuple(self.moves)
        notes = tuple(self.notes)
        if len(notes) < len(moves):
            notes = notes + (None,) * (len(moves) - len(notes))
        if len(notes) != len(moves):
            raise ValueError("more notes than moves")
        object.__setattr__(self, "moves", moves)
        object.__setattr__(self, "notes", notes)

    def __len__(self):
        return len(self.moves)

    def __iter__(self):
        return iter(self.moves)


def invert_transcript(t):
    """Reverse the order and invert every move (undoes a replay)."""
    return Transcript(tuple(invert(m) for m in reversed(t.moves)),
                      tuple(reversed(t.notes)))


def _replay(S, moves):
    """``_apply`` each move in order to the working copy S; an
    IllegalAtStepError names the first failing step."""
    for i, move in enumerate(moves):
        try:
            _apply(S, move)
        except IllegalMoveError as exc:
            raise IllegalAtStepError(i, move, exc.report) from None
    return S


def apply_transcript(M, t):
    """Replay every move in order on one working copy of M, one
    ``_apply`` per step (``_replay``)."""
    return _handed_over(_replay(_WorkingComplex(M), t.moves))


def _certify(M, t, end, what):
    """Replay our own transcript t on M once; it must end at `end`."""
    try:
        if apply_transcript(M, t) == end:
            return
    except IllegalAtStepError:
        pass
    raise RuntimeError(f"{what} does not replay correctly")


def _parse_bracket(tok, where):
    tok = tok.strip()
    if not (tok.startswith("[") and tok.endswith("]")):
        raise TranscriptParseError(f"{where}: expected [..], got {tok!r}")
    inner = tok[1:-1].strip()
    try:
        return simplex(int(x) for x in inner.split()) if inner else EMPTY
    except Exception as exc:
        raise TranscriptParseError(f"{where}: bad simplex {tok!r}") from exc


def _parse_pair(rest, where):
    if ";" not in rest:
        raise TranscriptParseError(f"{where}: expected 'A ; B'")
    left, right = rest.split(";", 1)
    return _parse_bracket(left, where), _parse_bracket(right, where)


def parse_simplex(text):
    """Parse a simplex written as `[v0 v1 ...]` or bare `v0 v1 ...`.

    An empty string (or `[]`) is the empty simplex.  Raises
    TranscriptParseError on anything else.
    """
    tok = text.strip()
    if not tok.startswith("["):
        tok = "[" + tok + "]"
    return _parse_bracket(tok, f"simplex {text!r}")


def parse_move(text):
    """Parse one move line (without annotation)."""
    parts = text.strip().split(None, 1)
    if len(parts) != 2:
        raise TranscriptParseError(f"unparseable move line {text!r}")
    kind, rest = parts[0].upper(), parts[1].strip()
    where = f"move {text!r}"
    if kind == "STAR":
        head, _, tail = rest.rpartition("]")
        A = _parse_bracket(head + "]", where)
        try:
            (a,) = simplex((int(tail.strip()),))
        except ValueError as exc:
            raise TranscriptParseError(f"{where}: bad vertex") from exc
        return Star(A, a)
    if kind == "WELD":
        head, _, tail = rest.partition("[")
        try:
            (a,) = simplex((int(head.strip()),))
        except ValueError as exc:
            raise TranscriptParseError(f"{where}: bad vertex") from exc
        return Weld(a, _parse_bracket("[" + tail, where))
    if kind in _PAIR_MOVES:
        return _PAIR_MOVES[kind](*_parse_pair(rest, where))
    raise TranscriptParseError(f"unknown move keyword {kind!r}")


def loads_transcript(text):
    moves, notes = [], []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if " # " in line:
            line, note = line.split(" # ", 1)
            notes.append(note.strip())
        else:
            notes.append(None)
        moves.append(parse_move(line))
    return Transcript(tuple(moves), tuple(notes))


def dumps_transcript(t):
    lines = []
    for move, note in zip(t.moves, t.notes):
        lines.append(f"{move} # {note}" if note else str(move))
    return "\n".join(lines) + ("\n" if lines else "")


def load_transcript(path):
    with open(path, encoding="utf-8") as fh:
        return loads_transcript(fh.read())


def dump_transcript(t, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_transcript(t))


# -- derived subdivision ----------------------------------------------


def derived_subdivision_transcript(K):
    """Starring every simplex of dimension >= 1 in decreasing dimension
    order (lexicographic within a dimension) produces the first derived
    subdivision.  The i-th starring uses the label K.fresh_vertex() + i:
    each starring adds exactly the next fresh label, and starring a
    d-face removes no other d-face, so the labels and the faces to star
    are known up front and nothing is applied or checked here."""
    faces = [A for d in range(K.dim, 0, -1) for A in K.faces_of_dim(d)]
    f = K.fresh_vertex()
    return Transcript(tuple(Star(A, f + i) for i, A in enumerate(faces)))


def derived_subdivision(K):
    """The first derived (barycentric) subdivision of K."""
    return apply_transcript(K, derived_subdivision_transcript(K))
