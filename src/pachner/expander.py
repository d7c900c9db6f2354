"""Constructive expansion of composite moves into bistellar transcripts.

Shelling combinators lift a shelling of X to shellings of the cone over
X and of (boundary of a simplex) * X.  On top of them, a shelling of a
ball X converts the cone over its boundary into X by one bistellar move
per facet; starrings expand by running that conversion backwards inside
the star; and a general exchange expands square by square along a
witness -- a sequence of exchanges reducing the residual link factor to
a simplex boundary.  expand_exchange reads each witness from a shelling
of its core: the core's sphere evidence, the flips recognize._evidence
certifies, read as exchanges.  So a starring's link and an exchange's
core pass one gate (_closed_shelling): closed, then shelled within
budget.  One loop walks the squares of a witness; only the sides of a
square recurse, on a link of lower dimension, so the depth of an
expansion is bounded by the dimension of the link, not by the length of
its witness.  One working copy of M is the only ambient: each near
side X -> Y moves it, the exchange itself moves it once at the base,
and each far side is the exchange Y -> Xp, expanded forward from there,
so no square copies the complex.  Likewise one working copy of the link
core is moved along the witness by one checked exchange per square,
whose check gives the square's sub-link: no square reads a link or
copies the core.

The private builders (_cone_steps, _join_steps with _boundary_shelling,
recognize._cone_flips and its inverse recognize._flips_to_cone) compute
steps by label arithmetic, search nothing and check nothing.  Every
returned object is certified once, in its own complex: a public
combinator replays the caller's shelling and its own output, and a
transcript is replayed once in the caller's complex against the exact
result.  For an exchange that is the one-move result.  One entry
(_expansion) serves exchange_to_bistellar, which first checks the
caller's factorization and witness, and expand_exchange, whose own are
correct by construction; every witness, the top one and each one read
for a sub-link, enters the session's labels through
ExpansionSession.take.  For starrings, one expansion path
(subdivision_to_bistellar, of which star_move_transcript is the case of
one starring) takes them in turn on one working copy, checks each once
there and reads its link from that check, and the whole transcript is
replayed against that copy.  A failure of our own output is a fault,
raised as RuntimeError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    BudgetExhaustedError,
    Complex,
    _TRIVIAL,
    _WorkingComplex,
    fmt_simplex,
    full_simplex,
    is_simplex_boundary,
    simplex,
    simplex_boundary,
)
# bound here only for the benchmark's tracing test; the expander never calls it
from .flipsearch import reduce as _flip_reduce
from .moves import (
    Bistellar,
    Exchange,
    Shell,
    Star,
    Transcript,
    _apply,
    _certify,
    _minimal_nonfaces,
    apply_transcript,
    invert_transcript,
)
from .recognize import (
    ShellingSequence,
    _cone_flips,
    _flips_to_cone,
    _ridges_paired,
    find_shelling,
    replay_shelling,
)

DEFAULT_EXPANSION_BUDGET = 100_000


class NoExpansionError(ValueError):
    """A starring whose link, or an exchange whose link core, is not
    closed: it has no bistellar expansion at all.  A flip replaces the
    ball A * dB by dA * B, which has the same boundary, so it keeps the
    degree of every ridge outside the flipped star, and with it the
    boundary of M and every ridge of degree 3 or more.  A starring or
    exchange whose link is not closed removes such ridges through A,
    so no sequence of flips can match it."""


class ShellingRouteError(RuntimeError):
    """The shelling route found no shelling of a closed link, so it
    cannot expand the move.  That proves the link unshellable, not that
    the move has no expansion: unshellable spheres exist, and by
    Pachner's theorem a starring of a combinatorial manifold is a
    sequence of flips."""


# -- shelling combinators -----------------------------------------------


def _validate_shelling(X, sh, what="shelling"):
    """Replay sh on X, raising on any illegal step or a wrong ending."""
    if sh.initial is not None and sh.initial not in X.facets:
        raise ValueError(
            f"{what}: initial {fmt_simplex(sh.initial)} is not a facet")
    if replay_shelling(X, sh).facets != frozenset({sh.terminal}):
        raise ValueError(f"{what} does not end at its terminal facet")


def _cone_steps(sh, A):
    """cone_shelling over the simplex A, unchecked; the same steps as
    coning over the vertices of A one at a time."""
    steps = [] if sh.initial is None else [Shell(A, sh.initial)]
    steps.extend(Shell(tuple(sorted(A + mv.A)), mv.B) for mv in sh.steps)
    return ShellingSequence(
        tuple(steps), tuple(sorted(A + sh.terminal)), None)


def cone_shelling(X, sh, v):
    """Lift a shelling of X to a shelling of the cone over X, apex v.

    Each step (A, B) becomes (v+A, B); a sphere-mode shelling first
    spends the initial facet as the step (v alone, initial)."""
    if v in set(X.vertices()):
        raise ValueError(f"apex {v} already labels a vertex of the base")
    _validate_shelling(X, sh)
    out = _cone_steps(sh, (v,))
    _validate_shelling(full_simplex((v,)).join(X), out, "cone shelling")
    return out


def _boundary_shelling(W):
    """The shelling find_shelling finds for the boundary of the simplex
    on the sorted labels W, unchecked: remove W - W[-1], then shell
    W - W[j] with A = W[j + 1:] for j from len(W) - 2 down to 1, ending
    at W - W[0].  The boundary of one vertex is {-}, shelled at once."""
    steps = tuple(Shell(W[j + 1:], W[:j]) for j in range(len(W) - 2, 0, -1))
    return ShellingSequence(steps, W[1:], W[:-1] or None)


def _join_steps(sh, W):
    """join_boundary_shelling over the labels W, unchecked; the base {-}
    (terminal ()) joins to the simplex boundary itself, and a sphere-mode
    initial D is spent first on the facets (W - v) * D."""
    if len(W) == 1:
        return sh
    if sh.terminal == ():
        return _boundary_shelling(W)
    C, v = W[:-1], W[-1]
    steps, initial = [], None
    if sh.initial is not None:
        D = sh.initial
        shC = _boundary_shelling(C)
        if shC.initial is not None:
            steps.append(Shell((v,), tuple(sorted(shC.initial + D))))
        steps.extend(
            Shell(tuple(sorted((v,) + mv.A)), tuple(sorted(mv.B + D)))
            for mv in shC.steps)
        steps.append(Shell(tuple(sorted((v,) + shC.terminal)), D))
        initial = tuple(sorted(C + D))
        sh = ShellingSequence(sh.steps, sh.terminal)
    steps.extend(Shell(mv.A, tuple(sorted(mv.B + C))) for mv in sh.steps)
    steps.append(Shell(sh.terminal, C))
    lifted = _cone_steps(_join_steps(sh, C), (v,))
    return ShellingSequence(
        tuple(steps) + lifted.steps, lifted.terminal, initial)


def join_boundary_shelling(r, X, sh, labels=None):
    """Shelling of (boundary of an r-simplex) * X from a shelling of X.

    The r-simplex uses `labels` (r + 1 of them, fresh by default).  The
    construction peels the facets missing the last label first, then
    cones the remainder over that label recursively."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        _validate_shelling(X, sh)
        return sh
    if labels is None:
        f = X.fresh_vertex()
        labels = tuple(range(f, f + r + 1))
    W = simplex(labels)
    if len(W) != r + 1:
        raise ValueError(f"need {r + 1} distinct labels, got {len(W)}")
    if set(W) & set(X.vertices()):
        raise ValueError("simplex labels collide with the base complex")
    _validate_shelling(X, sh)
    out = _join_steps(sh, W)
    _validate_shelling(simplex_boundary(W).join(X), out, "join shelling")
    return out


# -- shelled balls vs cones over their boundaries ------------------------


def ball_to_cone_transcript(X, sh, v):
    """Bistellar transcript carrying (v * boundary of X) to X itself.

    Requires a ball-mode shelling of X; produces exactly one move per
    facet of X, the i-th move gluing back the i-th shelled facet.  The
    inverse transcript therefore starts by starring the terminal facet
    at v."""
    if sh.initial is not None or X.dim < 0:
        raise ValueError("a ball-mode shelling of a nonempty ball is required")
    if v in set(X.vertices()):
        raise ValueError(f"apex {v} already labels a vertex of the ball")
    _validate_shelling(X, sh)
    t = _cone_flips(sh, v)
    _certify(X.boundary().join(full_simplex((v,))), t, X, "cone transcript")
    return t


def star_move_transcript(M, A, budget=DEFAULT_EXPANSION_BUDGET, at=None):
    """Bistellar transcript realizing the starring of A on M: the
    expansion of the one starring Star(A, a), a being `at` when given
    (it must be unused), otherwise the least fresh label that is not a
    vertex of A, so that an absent A is refused as absent."""
    a = at
    if a is None:
        a = M.fresh_vertex()
        while a in A:
            a += 1
    return subdivision_to_bistellar(M, Transcript((Star(A, a),)), budget)


def _closed_shelling(L, budget, name, what):
    """A shelling of L, the link `name` that the expansion of `what`
    reads.  NoExpansionError when L is not closed, before any search;
    ShellingRouteError when L has no shelling; BudgetExhaustedError when
    the search runs out of its `budget` nodes first."""
    if not _ridges_paired(L):
        raise NoExpansionError(
            f"{name} is not closed; {what} has no bistellar expansion")
    try:
        sh = find_shelling(L, budget)
    except BudgetExhaustedError:
        raise BudgetExhaustedError(f"shelling search for {name} exhausted "
                                   f"its budget of {budget}") from None
    if sh is None:
        raise ShellingRouteError(
            f"{name} is unshellable; the shelling route cannot expand {what}")
    return sh


def subdivision_to_bistellar(M, transcript, budget=DEFAULT_EXPANSION_BUDGET):
    """Expand a transcript of starrings into one bistellar transcript.

    One working copy of M takes the starrings in turn.  Each is checked
    once there, and its link read from that check; lk(A) must be closed
    and shellable: the shelling of the star A * lk(A) is built by
    iterated coning, converted to a transcript from the star to (new
    vertex * its boundary), and inverted.  The flips of every starring
    are then replayed once in M against the starred copy."""
    S, flips = _WorkingComplex(M), []
    for i, mv in enumerate(transcript.moves):
        if not isinstance(mv, Star):
            raise ValueError(f"move {i} is not a starring: {mv}")
        A = simplex(mv.A)
        mv = Star(A, mv.a)
        # lk(A) = d(a) * L with d(a) = {-}, so L is lk(A).  A closed lk
        # makes the boundary of A * lk exactly dA * lk, which the
        # expansion relies on
        sh = _closed_shelling(_apply(S, mv).link_factor, budget,
                              f"lk({fmt_simplex(A)})", "this starring")
        flips.extend(_flips_to_cone(_cone_steps(sh, A), mv.a).moves)
    t = Transcript(tuple(flips))
    _certify(M, t, S.complex(), "starring expansion")
    return t


# -- exchange expansion ---------------------------------------------------


@dataclass(frozen=True)
class LinkFactorization:
    """lk(A) split as (boundary of B) * core * boundaries of the
    simplexes in `spheres`; the data driving an exchange expansion."""

    B: tuple
    core: Complex
    spheres: tuple = ()


@dataclass(frozen=True)
class Witness:
    """Exchange moves replaying the factorization core down to a
    simplex boundary; drives the exchange squares of the expansion."""

    moves: tuple = ()


class ExpansionSession:
    """Bookkeeping for one expansion: a monotone fresh-label counter,
    so labels minted at different depths of the expansion never collide,
    plus a shared work budget over exchange squares."""

    def __init__(self, budget=DEFAULT_EXPANSION_BUDGET):
        self._next = 0
        self.remaining = budget

    def absorb_labels(self, labels):
        for v in labels:
            self._next = max(self._next, v + 1)

    def take(self, witness):
        """The moves of `witness`, its labels absorbed first: every
        witness enters here, so no later fresh label is one it uses."""
        for mv in witness.moves:
            self.absorb_labels(mv.A + mv.B)
        return tuple(witness.moves)

    def fresh(self):
        v = self._next
        self._next += 1
        return v

    def charge(self):
        self.remaining -= 1
        if self.remaining < 0:
            raise BudgetExhaustedError("expansion work budget exhausted")


def factor_link(L):
    """Greedily split off simplex-boundary join factors of L.

    Returns (core, spheres) with L equal to the join of `core` and the
    boundaries of the `spheres` simplexes, and no such factor left in
    the core.  Candidates are minimal nonfaces, largest first."""
    spheres = []
    while True:
        if L.vertices() and is_simplex_boundary(L):
            spheres.append(L.vertices())
            L = _TRIVIAL
            break
        try:
            cands = _minimal_nonfaces(L)
        except BudgetExhaustedError:
            break
        found = None
        verts = set(L.vertices())
        for W in sorted(cands, key=lambda w: (-len(w), w)):
            rest = L.restrict(verts - set(W))
            if simplex_boundary(W).join(rest) == L:
                found = (W, rest)
                break
        if found is None:
            break
        spheres.append(found[0])
        L = found[1]
    return L, tuple(spheres)


def search_witness(L, budget=DEFAULT_EXPANSION_BUDGET):
    """The witness of the core L, read from a shelling of L: no moves
    for a simplex boundary, else L's sphere evidence as exchanges, the
    flips carrying L to the boundary of its initial facet plus
    L.fresh_vertex().  The shelling passes the same gate as a
    starring's link: NoExpansionError when L is not closed,
    ShellingRouteError when it has no shelling, BudgetExhaustedError
    when the search runs out of its `budget` nodes.  The witness is not
    replayed on L."""
    if is_simplex_boundary(L):
        return Witness(())
    name = f"link core with f-vector {L.f_vector().counts}"
    sh = _closed_shelling(L, budget, name, "this exchange")
    flips = _flips_to_cone(sh, L.fresh_vertex())
    return Witness(tuple(Exchange(mv.A, mv.B) for mv in flips.moves))


def _validate_witness(core, witness):
    stray = [i for i, mv in enumerate(witness.moves)
             if not isinstance(mv, (Exchange, Bistellar))]
    if stray:
        i = stray[0]
        raise ValueError(
            f"witness move {i} is not an exchange: {witness.moves[i]}")
    end = apply_transcript(core, Transcript(witness.moves))
    if not is_simplex_boundary(end):
        raise ValueError("witness does not end at a simplex boundary")


def _relabel_witness_move(mv, ren):
    return type(mv)(simplex(ren.get(v, v) for v in mv.A),
                    simplex(ren.get(v, v) for v in mv.B))


def _composed(ren, new):
    """The renaming `ren` followed by `new`."""
    return {**new, **{k: new.get(v, v) for k, v in ren.items()}}


def _star_via_factors(A, B, spheres, a):
    """Starring flips for lk(A) = dB * join of sphere boundaries: the
    link shelling is assembled structurally, no search involved."""
    sh = ShellingSequence((), ())
    for W in (B,) + tuple(spheres):
        if len(W) >= 2:
            sh = _join_steps(sh, W)
    return _flips_to_cone(_cone_steps(sh, A), a)


def _expand(S, A, B, core, spheres, wmoves, session):
    """Bistellar transcript of Exchange(A, B) on the working copy S,
    which it leaves at the exchange's result; uncertified (the caller
    replays it).

    One loop walks the exchange squares of the witness `wmoves` on one
    working copy of `core`.  Each square moves that copy by one checked
    exchange C -> Y (``moves._apply``): the witness move, or the
    renaming of a vertex the ambient already trades, and the check's
    link factor is the square's sub-link, lk(C) = dY * sub.  The
    square's near side X -> Y is expanded on the way out, moving S
    across it.  Once the base flips are out, S takes Exchange(A, B),
    one checked surgery, and each far side Y -> Xp is expanded forward
    from there, innermost first: after Exchange(A, B), lk(Y) = dXp *
    sub * the A-side spheres, so it uses the near side's core and
    witness.  Only the sides recurse, each on a link of the core, so
    the nesting grows with the dimension of the core, not with the
    length of the witness.  The walk keeps one renaming of the witness
    labels, composed as squares rename them, and applies it to a
    witness move only when a square takes that move."""
    out, far = [], []
    ren, i = {}, 0  # witness label -> the label the walk uses; next move
    K = _WorkingComplex(core)
    while True:
        session.charge()
        if is_simplex_boundary(K):
            # a spherical core is one more join factor; the witness is spent
            if K.vertices():
                spheres = spheres + (tuple(sorted(K.vertices())),)
            if not spheres:
                # the exchange is already bistellar: single move
                out.append(Bistellar(A, B))
                break
            # base: lk(A) is a join of simplex boundaries, hence a
            # shellable sphere; star A and B over the same fresh vertex
            # and splice
            a = session.fresh()
            out += _star_via_factors(A, B, spheres, a).moves
            out += invert_transcript(_star_via_factors(B, A, spheres, a)).moves
            break
        if i == len(wmoves):
            raise ValueError(
                "witness exhausted before the core became a simplex boundary")
        D = simplex(ren.get(v, v) for v in wmoves[i].B)
        if len(D) == 1:
            # a singleton traded simplex is a label the witness minted (it
            # cannot be a vertex of the core, or the move would be illegal
            # there); it may collide with ambient or planned labels, so
            # substitute a session-fresh one throughout the witness tail
            d2 = session.fresh()
            ren = _composed(ren, {D[0]: d2})
            D = (d2,)
        # one exchange square: X -> Y, then A -> B, then Y -> Xp
        if not S._star(D):
            # traded simplex absent from the ambient complex: exchange it
            # in around A*C, walk on with the witness, and trade it out
            # around B*C
            mv = _relabel_witness_move(wmoves[i], ren)
            i += 1
        else:
            # traded simplex already present: detach one of its vertices
            # first by renaming it in the core (the exchange u -> fresh),
            # which frees the witness move to proceed
            u = min(D)
            mv = Exchange((u,), (session.fresh(),))
            ren = _composed(ren, {u: mv.B[0]})
        # the core takes the square's move; its check reads lk(C) =
        # dY * sub
        sub = _apply(K, mv).link_factor
        C, Y = mv.A, mv.B
        X, Xp = tuple(sorted(A + C)), tuple(sorted(B + C))
        sub_moves = session.take(search_witness(sub, session.remaining + 1))
        with_B = spheres + ((B,) if len(B) >= 2 else ())
        with_A = spheres + ((A,) if len(A) >= 2 else ())
        out += _expand(S, X, Y, sub, with_B, sub_moves, session).moves
        far.append((Y, Xp, sub, with_A, sub_moves))
    _apply(S, Exchange(A, B))
    for side in reversed(far):
        out += _expand(S, *side, session).moves
    return Transcript(tuple(out))


def _expansion(M, A, B, target, core, spheres, witness, budget):
    """The expansion of Exchange(A, B) on M, whose result is `target`,
    from a factorization and a witness already known to hold.  One
    working copy of M is its only ambient, moved by one checked
    exchange per _expand call; one replay in M certifies it.  A
    ValueError or KeyError in our own planning is a fault, raised as
    RuntimeError."""
    session = ExpansionSession(budget)
    session.absorb_labels(M.vertices() + B)
    try:
        out = _expand(_WorkingComplex(M), A, B, core, tuple(spheres),
                      session.take(witness), session)
    except (ValueError, KeyError) as exc:
        raise RuntimeError(
            f"exchange expansion failed: {exc.args[0]}") from exc
    _certify(M, out, target, "exchange expansion")
    return out


def exchange_to_bistellar(M, A, B, factorization, witness,
                          budget=DEFAULT_EXPANSION_BUDGET):
    """Expand a legal exchange into a bistellar transcript.

    `factorization` must rebuild lk(A) exactly and `witness` must
    replay its core to a simplex boundary; both are checked before any
    work.  The result replays M to the exchange result, and is exactly
    [Bistellar(A, B)] whenever the move is already bistellar."""
    A = simplex(A)
    B = simplex(B)
    T = _WorkingComplex(M)
    L = _apply(T, Exchange(A, B)).link_factor  # lk(A) = dB * L
    if simplex(factorization.B) != B:
        raise ValueError("factorization B-part differs from the move")
    built = factorization.core
    for W in factorization.spheres:
        built = built.join(simplex_boundary(W))
    if built != L:
        raise ValueError("factorization does not rebuild lk(A)")
    _validate_witness(factorization.core, witness)
    return _expansion(M, A, B, T.complex(), factorization.core,
                      factorization.spheres, witness, budget)


def expand_exchange(M, A, B, budget=DEFAULT_EXPANSION_BUDGET):
    """One-call exchange expansion: factor the link residue, search a
    witness for the core, and expand; the factorization and the witness
    are correct by construction, so neither is checked again."""
    A, B = simplex(A), simplex(B)
    T = _WorkingComplex(M)
    core, spheres = factor_link(_apply(T, Exchange(A, B)).link_factor)
    return _expansion(M, A, B, T.complex(), core, spheres,
                      search_witness(core, budget), budget)
