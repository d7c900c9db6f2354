"""The shelling search's working state against enumeration on immutable
complexes, and the search's pinned behaviour.

``moves._ShellState`` keeps each facet's split and its legal moves in
(A, B) order, and re-reads only the splits a removed facet can change;
a fresh state of the complex it holds, and on a pure complex
``enumerate_moves``, are its oracle after every removal and every undo,
both along the search itself (backtracking included) and along seeded
walks that remove any facet, legal shelling or not.  The pinned digests and node counts below come
from the search that re-enumerated every node on an immutable complex;
the state must not change them."""

import hashlib
import random

import pytest

import pachner.moves
import pachner.recognize
from conftest import csaszar_torus, pinched_complex
from pachner.cli import main
from pachner.core import (
    BudgetExhaustedError,
    Complex,
    dump_complex,
    full_simplex,
    standard_sphere,
)
from pachner.moves import (
    Shell,
    _ShellState,
    check_move,
    derived_subdivision,
    enumerate_moves,
)
from pachner.recognize import ShellingSequence, find_shelling


def _strip(n):
    return Complex.from_facets((i, i + 1, i + 2) for i in range(n))


def _relabelled(K, seed):
    labels = list(K.vertices())
    random.Random(seed).shuffle(labels)
    return K.relabel({v: 3 * w + 5 for v, w in zip(K.vertices(), labels)})


INPUTS = {
    "strip of 30": lambda: _strip(30),
    "relabelled sd S3": lambda: _relabelled(
        derived_subdivision(standard_sphere(3)), 11),
    "sd of a 3-simplex": lambda: derived_subdivision(full_simplex(range(4))),
    "sd of a 4-simplex": lambda: derived_subdivision(full_simplex(range(5))),
    "pinched K": pinched_complex,
    "Csaszar torus": csaszar_torus,
    "impure": lambda: Complex.from_facets(
        [(0, 1, 2), (1, 2, 3), (2, 3, 4), (3, 4, 5, 6), (4, 5), (6, 7)]),
    "not a pseudomanifold": lambda: Complex.from_facets(
        [(0, 1, 2), (0, 1, 3), (0, 1, 4), (1, 2, 5), (2, 5, 6), (3, 4, 7)]),
}


def _agrees(S):
    """The state lists the pairs a fresh state of the complex it holds
    lists and, on a pure complex, the Shells enumeration lists."""
    K = S.complex()
    pairs = S.pairs()
    assert pairs == _ShellState(K).pairs()
    if K.is_pure():
        assert [Shell(A, B) for A, B in pairs] == enumerate_moves(K, "shell")


def _matches_a_fresh_state(S):
    """The kept order is every split the state has read, as sorted (A, B)
    pairs, and what a fresh state of its complex keeps, even
    where the boundary is undefined and no move is listed.  So are the
    reads themselves: a skipped re-read whose split stays None shows
    only in its A.  So are the counts ``pairs()`` shows only through the
    rule that the boundary is defined: the facets on each ridge (in any
    order), the boundary ridges, the ridges in three or more facets, and
    the boundary ridges on each vertex."""
    splits = sorted(read[1] for read in S._reads.values() if read[1])
    assert S._order == splits
    fresh = _ShellState(S.complex())
    assert S._order == fresh._order
    assert S._reads == fresh._reads

    def ridges(T):
        return {r: sorted(fs) for r, fs in T._on.items()}

    def through(T):
        return {v: rs for v, rs in T._through.items() if rs}

    assert ridges(S) == ridges(fresh)
    assert S._rim == fresh._rim
    assert S._over == fresh._over
    assert through(S) == through(fresh)


class _Checked(_ShellState):
    """A working state that checks itself against its oracle after every
    removal and undo the search makes."""

    steps = 0

    def remove(self, G):
        super().remove(G)
        _Checked.steps += 1
        _agrees(self)

    def undo(self):
        super().undo()
        _Checked.steps += 1
        _agrees(self)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_state_matches_enumeration_along_the_search(name, monkeypatch):
    """The search's own removals and undos, backtracking included: the
    torus is searched exhaustively in sphere mode."""
    K = INPUTS[name]()
    _agrees(_ShellState(K))
    unchecked = find_shelling(K)
    _Checked.steps = 0
    monkeypatch.setattr(pachner.recognize, "_ShellState", _Checked)
    found = find_shelling(K)
    assert found == unchecked
    if name == "Csaszar torus":
        assert found is None and _Checked.steps > 1000


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_state_matches_enumeration_along_seeded_walks(name):
    """Remove random facets (any facet, not only a listed shelling) and
    undo at random, back to the start; after every removal and undo the
    state must match a fresh state of the complex it holds."""
    K = INPUTS[name]()
    S = _ShellState(K)
    rng = random.Random(len(name))
    removed = []
    for _ in range(120):
        listed = S.pairs()
        kept = list(listed)
        if removed and (len(S.facets) == 1 or rng.random() < 0.4):
            S.undo()
            removed.pop()
        else:
            G = rng.choice(sorted(S.facets))
            S.remove(G)
            removed.append(G)
        assert listed == kept  # a returned list is never changed
        assert S.complex() == Complex.from_facets(set(K.facets) - set(removed))
        _agrees(S)
        _matches_a_fresh_state(S)
    while removed:
        S.undo()
        removed.pop()
    assert S.complex() == K
    _agrees(S)
    _matches_a_fresh_state(S)


def test_shell_state_enumerates_shell_moves_only():
    """A shell state lists its moves through ``pairs()`` alone:
    ``enumerate_moves`` reads no working copy but a flip state."""
    S = _ShellState(_strip(5))
    assert S.pairs()
    for kind in ("shell", "bistellar"):
        with pytest.raises(ValueError):
            enumerate_moves(S, kind)


@pytest.mark.parametrize("facets, shelling", [
    ([(0, 1, 2), (3, 4)], None),
    ([(0, 1, 2)], ShellingSequence((), (0, 1, 2), None)),
    ([], ShellingSequence((), (), None)),
])
def test_no_state_is_built_where_no_shell_move_exists(
        facets, shelling, monkeypatch):
    """An impure complex, a single facet and {-} have no shell move: the
    search and enumeration answer without building a state."""
    built = []
    real = _ShellState.__init__

    def counting(self, M):
        built.append(M)
        real(self, M)

    monkeypatch.setattr(_ShellState, "__init__", counting)
    K = Complex.from_facets(facets)
    assert find_shelling(K) == shelling
    assert enumerate_moves(K, "shell") == []
    assert built == []


SHELLINGS = {
    "strip of 300": (
        lambda: _strip(300),
        "b23f39904f040f5f5b93537ae942f77e0a4d77ce152495b3351044b4abae27f0"),
    "sd S3": (
        lambda: derived_subdivision(standard_sphere(3)),
        "0114e3da68bbb4501d8042c43c4ed42c7969e4132cf55a75671672b2086b4af7"),
    "sd2 S2": (
        lambda: derived_subdivision(derived_subdivision(standard_sphere(2))),
        "51c84242d781d5f137abf85cb1ebf9b25c32df5e7e195184fbc0899cf92d0f0c"),
}


@pytest.mark.parametrize("name", sorted(SHELLINGS))
def test_shell_find_artifact_is_pinned(name, tmp_path, capsys):
    build, digest = SHELLINGS[name]
    path = tmp_path / "input.cx"
    dump_complex(build(), str(path))
    out = tmp_path / "art"
    assert main(["shell-find", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "shelling.tr").read_bytes()
    assert hashlib.sha256(text).hexdigest() == digest


@pytest.mark.parametrize("build, nodes", [
    (lambda: _strip(300), 300),
    (lambda: derived_subdivision(standard_sphere(3)), 119),
])
def test_smallest_succeeding_budget_is_pinned(build, nodes):
    K = build()
    assert find_shelling(K, nodes) is not None
    with pytest.raises(BudgetExhaustedError):
        find_shelling(K, nodes - 1)


def test_search_reads_a_bounded_number_of_splits(monkeypatch):
    """Each removal re-reads only the splits next to it: on the strip of
    300 triangles the search reads at most 10 splits per facet (it read
    45,149 when every node re-read every facet)."""
    calls = []
    real = pachner.moves._split

    def counting(F, *maps):
        calls.append(F)
        return real(F, *maps)

    monkeypatch.setattr(pachner.moves, "_split", counting)
    sh = find_shelling(_strip(300))
    assert len(sh.steps) == 299
    assert len(calls) <= 10 * 300


def test_search_builds_a_bounded_number_of_moves(monkeypatch):
    """A node walks a copy of the kept (A, B) pairs and builds no move: the
    search builds exactly one Shell per step of the shelling it returns
    (on sd S3 it built up to 3 per facet when a node listed Shells, and
    2,203 when every node listed its moves anew), and none on the
    Csaszar torus, whose exhaustive sphere-mode search returns None."""
    built = []
    real = Shell.__init__

    def counting(self, *args):
        built.append(args)
        real(self, *args)

    monkeypatch.setattr(Shell, "__init__", counting)
    for K, steps in ((derived_subdivision(standard_sphere(3)), 118),
                     (_strip(300), 299)):
        built.clear()
        sh = find_shelling(K)
        assert len(sh.steps) == steps
        assert built == [(mv.A, mv.B) for mv in sh.steps]
    built.clear()
    assert find_shelling(csaszar_torus()) is None
    assert built == []


def test_shell_rule_on_a_complex_builds_no_face_set(monkeypatch):
    """The shelling rule reads ridge maps: on an immutable strip of 30
    triangles, enumerating shell moves and checking one, legal or not,
    never builds a face set (enumeration built 30 when "A is a boundary
    face" was asked of the boundary complex)."""
    M = _strip(30)
    calls = []
    real = Complex.faces

    def counting(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(Complex, "faces", counting)
    moves = enumerate_moves(M, "shell")
    assert moves == [Shell((1, 2), (0,)), Shell((29, 30), (31,))]
    assert check_move(M, moves[0]).legal
    assert not check_move(M, Shell((1,), (2, 3))).legal
    assert calls == []


def test_long_strip_shells_within_the_default_budget():
    sh = find_shelling(_strip(1200))
    assert len(sh.steps) == 1199 and sh.initial is None
