"""Seeded simulated annealing over bistellar moves.

The reducer walks the flip graph of a closed complex, preferring moves
that shrink the total face count, and keeps the best complex seen.  All
randomness comes from a SplitMix64 generator owned by this module, so a
(seed, schedule) pair fully determines the outcome on every platform.

The walk runs on one mutable working state (``moves._FlipState``), not
on a new Complex per step.  On it ``enumerate_moves`` returns the legal
flips, the same sorted list as on its complex, read in one pass from
faces the state keeps in order, and ``apply_move`` checks a flip by
lookups and flips the state in place, re-testing only the links in the
star it changed; a flip re-sorts nothing.  An immutable Complex is
built only for a new best and at the end.

A successful reduction to a simplex boundary certifies the input as a
combinatorial sphere; two reductions meeting in isomorphic endpoints
certify two complexes as flip-equivalent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import is_simplex_boundary, isomorphic
from .moves import Transcript, _FlipState, apply_move, enumerate_moves
from .recognize import homology

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
    """Proof that two complexes are connected by bistellar moves: a
    transcript from each input to a common form, plus the vertex
    bijection identifying the two endpoints."""

    transcript1: Transcript
    transcript2: Transcript
    bijection: tuple

    def mapping(self):
        return dict(self.bijection)


def _obstruction(M1, M2):
    """Why M1 and M2 cannot be flip-equivalent, when their dimension or
    homology already shows it; None otherwise."""
    if M1.dim != M2.dim:
        return f"dimensions differ ({M1.dim} vs {M2.dim})"
    h1, h2 = homology(M1), homology(M2)
    if h1 != h2:
        return f"homology differs ({h1} vs {h2})"
    return None


def _anneal_pair(M1, M2, schedule):
    """Anneal both complexes under one schedule; a Certificate when the
    endpoints are isomorphic, None otherwise."""
    end1, t1 = reduce(M1, schedule)
    end2, t2 = reduce(M2, schedule)
    iso = isomorphic(end1, end2)
    if iso is None:
        return None
    return Certificate(t1, t2, tuple(sorted(iso.items())))


def prove_equivalent(M1, M2, schedule=None):
    """Search for a flip-equivalence certificate between M1 and M2.

    Both complexes are annealed under the same schedule; isomorphic
    endpoints yield a Certificate.  Returns None when the dimensions or
    homology differ, which disproves equivalence, and when the search
    fails, which only says that this budget did not find a proof.
    """
    if _obstruction(M1, M2) is not None:
        return None
    return _anneal_pair(M1, M2, schedule)
