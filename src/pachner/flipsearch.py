"""Equivalence certificates: shellings first, seeded annealing after.

``prove_equivalent`` (and ``pachner prove-equiv``) takes one route.  It
screens dimension and homology, then certifies a pair of shellable
spheres or balls by their shellings, as Lickorish proves Pachner's
theorem: each side's ``recognize._evidence``, searched within the
``shell-find`` default budget, carries it to a simplex boundary or a
simplex, and the sorted labels of the two end simplices identify the
ends.  Every other pair is annealed.

The annealer walks the flip graph of a closed complex, preferring moves
that shrink the total face count, and keeps the best complex seen.  All
randomness comes from a SplitMix64 generator owned by this module, so a
(seed, schedule) pair fully determines the outcome on every platform.

The walk runs on one mutable working state (``moves._FlipState``), not
on a new Complex per step.  The state keeps the facets on each face and
reads each link from them, and keeps the (A, B) pairs of its legal
flips in sorted order.  On it ``enumerate_moves`` returns a read-only
listing over one copy of that order, which builds a flip only for the
index the walk draws; the state is the one flip lister, so its listing
is its complex's by construction.  ``apply_move`` checks a flip by
lookups and flips the state in place, re-testing only the links in the
star it changed and moving by bisection the flips whose link changed
or whose B appeared or vanished; a flip re-sorts and rebuilds nothing.
An immutable Complex is built only for a new best and at the end.

A successful reduction to a simplex boundary certifies the input as a
combinatorial sphere; two reductions meeting in isomorphic endpoints
certify two complexes as flip-equivalent.  ``Schedule.max_moves``
bounds annealing only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import BudgetExhaustedError, is_simplex_boundary, isomorphic
from .moves import Transcript, _FlipState, apply_move, enumerate_moves
from .recognize import (
    DEFAULT_SHELLING_BUDGET,
    _ball_profile,
    _evidence,
    _sphere_profile,
    homology,
)

_MASK = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit generator (SplitMix64 mixing constants)."""

    __slots__ = ("state",)

    def __init__(self, seed):
        self.state = seed & _MASK

    def next64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self):
        """A float in [0, 1) with 53 random bits."""
        return (self.next64() >> 11) * 2.0 ** -53

    def randrange(self, n):
        """An integer in [0, n).  Modulo reduction: the tiny bias is
        irrelevant here and keeps the draw sequence easy to reproduce."""
        return self.next64() % n


@dataclass(frozen=True)
class Schedule:
    """Annealing parameters.  max_moves counts proposals, not
    acceptances; temp decays by the given factor after every accepted
    move."""

    seed: int = 1729
    max_moves: int = 10_000
    temp: float = 2.0
    decay: float = 0.95


def _face_delta(mv):
    """Change in total face count under a bistellar move: faces gained
    around B minus faces lost around A."""
    return (1 << len(mv.A)) - (1 << len(mv.B))


def reduce(M, schedule=None):
    """Anneal M toward a simplex boundary.

    Returns (best, transcript) where transcript replays M to best.  The
    walk stops early as soon as the current complex IS a simplex
    boundary -- the global minimum -- so enlarging max_moves never
    changes a successful outcome.
    """
    sched = schedule if schedule is not None else Schedule()
    rng = SplitMix64(sched.seed)
    if is_simplex_boundary(M):
        return M, Transcript()
    cur = _FlipState(M)
    trail = []
    best = M
    best_len = 0
    best_obj = cur.objective()
    temp = sched.temp
    for _ in range(sched.max_moves):
        moves = enumerate_moves(cur, "bistellar")
        if not moves:
            break
        mv = moves[rng.randrange(len(moves))]
        delta = _face_delta(mv)
        if delta > 0:
            u = rng.uniform()
            if temp <= 0.0 or u >= math.exp(-delta / temp):
                continue
        apply_move(cur, mv)
        trail.append(mv)
        temp *= sched.decay
        if is_simplex_boundary(cur):
            return cur.complex(), Transcript(tuple(trail))
        obj = cur.objective()
        if obj < best_obj:
            best = cur.complex()
            best_obj = obj
            best_len = len(trail)
    return best, Transcript(tuple(trail[:best_len]))


@dataclass(frozen=True)
class Certificate:
    """Proof that two complexes are related by moves: a transcript from
    each input to a common form, plus the vertex bijection identifying
    the two endpoints.  `path` names the search that found it.  From
    "annealing" both transcripts hold Bistellar moves.  From "shelling"
    a sphere's transcripts hold Bistellar moves to a simplex boundary,
    and a ball's hold Shell moves down to one simplex."""

    transcript1: Transcript
    transcript2: Transcript
    bijection: tuple
    path: str = "annealing"

    def mapping(self):
        return dict(self.bijection)


def _shelling_pair(M1, M2, profile):
    """A Certificate from the shelling evidence of both sides, when their
    common homology `profile` is the sphere's or the ball's.  Each side
    ends at a simplex (a ball) or its boundary (a sphere), of one kind on
    both sides, so the sorted labels of the two end simplices identify
    the ends.  None when a side has no shelling within
    recognize.DEFAULT_SHELLING_BUDGET nodes, the ``shell-find``
    default."""
    n = M1.dim
    if profile not in (_sphere_profile(n), _ball_profile(n)):
        return None
    try:
        ends = [_evidence(M, DEFAULT_SHELLING_BUDGET) for M in (M1, M2)]
    except BudgetExhaustedError:
        return None
    if None in ends:
        return None
    (t1, V1), (t2, V2) = ends
    return Certificate(t1, t2, tuple(zip(V1, V2)), "shelling")


def _anneal_pair(M1, M2, schedule):
    """Anneal both complexes under one schedule; a Certificate when the
    endpoints are isomorphic, None otherwise."""
    end1, t1 = reduce(M1, schedule)
    end2, t2 = reduce(M2, schedule)
    iso = isomorphic(end1, end2)
    if iso is None:
        return None
    return Certificate(t1, t2, tuple(sorted(iso.items())))


def _equivalence(M1, M2, schedule):
    """The one route to a verdict on M1 ~ M2: (reason, certificate).

    The screen compares dimensions, then the homology of each input,
    computed once; `reason` says what differs, and then the certificate
    is None.  Otherwise both sides are shelled when they have the
    homology of a sphere or of a ball, and annealed under `schedule`
    when that fails; the certificate is None when annealing finds none.
    """
    if M1.dim != M2.dim:
        return f"dimensions differ ({M1.dim} vs {M2.dim})", None
    h1, h2 = homology(M1), homology(M2)
    if h1 != h2:
        return f"homology differs ({h1} vs {h2})", None
    return None, (_shelling_pair(M1, M2, h1)
                  or _anneal_pair(M1, M2, schedule))


def prove_equivalent(M1, M2, schedule=None):
    """Search for an equivalence certificate between M1 and M2.

    Shellable spheres and balls are certified by their shellings
    (Lickorish's route); other pairs are annealed under `schedule`, and
    isomorphic endpoints yield a Certificate.  Returns None when the
    dimensions or homology differ, which disproves equivalence, and
    when the search fails, which only says that this budget did not
    find a proof.
    """
    return _equivalence(M1, M2, schedule)[1]
