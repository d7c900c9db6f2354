"""Seeded random legal-move walks shared by property and acceptance tests.

Each step visits the move families in a seeded random order, draws
candidate moves of the current family from cheap syntactic pools (also
in seeded order), and applies the first candidate that passes the full
legality check.  An optional vertex cap biases the draw toward
non-growing moves once the complex gets large, so long walks stay at
desk scale; every applied move is still checked for legality."""

import itertools
import random

from pachner.core import is_simplex_boundary
from pachner.moves import (
    MOVE_KINDS,
    Bistellar,
    Exchange,
    Shell,
    Star,
    Unshell,
    Weld,
    _minimal_nonfaces,
    apply_move,
    check_move,
)

_TRIES_PER_FAMILY = 40


def vertex_delta(M, move):
    """Change in vertex count caused by applying `move` to M."""
    kind = type(move).__name__
    verts = set(M.vertices())
    if kind == "Star":
        return 1
    if kind == "Weld":
        return len([v for v in move.A if v not in verts]) - 1
    if kind in ("Bistellar", "Exchange"):
        gained = len([v for v in move.B if v not in verts])
        return gained - (1 if len(move.A) == 1 else 0)
    if kind == "Shell":
        removed_facet = tuple(sorted(move.A + move.B))
        lost = set(removed_facet)
        for f in M.facets:
            if f != removed_facet:
                lost -= set(f)
        return -len(lost)
    if kind == "Unshell":
        return len((set(move.A) | set(move.B)) - verts)
    raise TypeError(kind)


def _candidates(M, kind, rng):
    """Candidate moves of one family in a seeded random order.

    Pools are syntactic -- cheap to build, not guaranteed legal; the
    caller filters through check_move.  Star and the (fresh,) exchange
    candidates are always legal, so a walk over the default families
    never stalls."""
    fresh = M.fresh_vertex()
    if kind == "star":
        faces = [f for f in sorted(M.faces()) if f]
        rng.shuffle(faces)
        return [Star(A, fresh) for A in faces]
    if kind == "weld":
        verts = list(M.vertices())
        rng.shuffle(verts)
        out = []
        for a in verts[:8]:
            pool = [(fresh,)] + _minimal_nonfaces(M.link((a,)))
            rng.shuffle(pool)
            out.extend(Weld(a, A) for A in pool)
        return out
    if kind == "bistellar":
        faces = [f for f in sorted(M.faces()) if f]
        rng.shuffle(faces)
        out = []
        for A in faces:
            lk = M.link(A)
            if is_simplex_boundary(lk):
                out.append(Bistellar(A, lk.vertices() or (fresh,)))
        return out
    if kind == "exchange":
        faces = [f for f in sorted(M.faces()) if f]
        rng.shuffle(faces)
        out = []
        for A in faces[:12]:
            pool = [(fresh,)] + _minimal_nonfaces(M.link(A))
            rng.shuffle(pool)
            out.extend(
                Exchange(A, B) for B in pool if not set(A) & set(B))
        return out
    if kind == "shell":
        out = []
        for F in M.facet_list():
            for k in range(1, len(F) + 1):
                for A in itertools.combinations(F, k):
                    out.append(
                        Shell(A, tuple(v for v in F if v not in A)))
        rng.shuffle(out)
        return out
    if kind == "unshell":
        rim = [R for R in M.boundary().facet_list() if R]
        if not rim:
            return []
        labels = list(M.vertices()) + [fresh]
        out = []
        for R in rim:
            for w in labels:
                if w in R:
                    continue
                F = tuple(sorted(R + (w,)))
                for k in range(1, len(F)):
                    for A in itertools.combinations(F, k):
                        out.append(
                            Unshell(A, tuple(v for v in F if v not in A)))
        rng.shuffle(out)
        return out
    raise ValueError(kind)


def seeded_walk(M, steps, seed, families=MOVE_KINDS, cap=None):
    """Yield (move, complex-after) for `steps` seeded legal moves.

    Once the vertex count reaches `cap`, a step first looks for a legal
    non-growing move across every family and only falls back to an
    unrestricted draw when none is found, so capped walks stay at desk
    scale without ever stalling."""
    rng = random.Random(seed)
    for _ in range(steps):
        fams = sorted(families)
        rng.shuffle(fams)
        capped = cap is not None and len(M.vertices()) >= cap
        applied = None
        for mode in ("shrink", "any") if capped else ("any",):
            for fam in fams:
                cands = _candidates(M, fam, rng)
                if mode == "shrink":
                    cands = [mv for mv in cands if vertex_delta(M, mv) <= 0]
                for mv in cands[:_TRIES_PER_FAMILY]:
                    if check_move(M, mv).legal:
                        applied = mv
                        break
                if applied is not None:
                    break
            if applied is not None:
                break
        if applied is None:
            return
        M = apply_move(M, applied)
        yield applied, M
