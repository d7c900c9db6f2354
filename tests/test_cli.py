"""End-to-end tests of the command-line surface.

Each subcommand is driven in-process through cli.main(argv); the
returned integer is the exit status.  The exit-code contract under
test: 0 success, 1 provably negative, 2 undecided within budget,
3 malformed input.
"""

import subprocess
import sys

import pytest

import pachner.cli
import pachner.expander
import pachner.recognize
from conftest import csaszar_torus, pinched_complex
from pachner import (
    Complex,
    Exchange,
    Star,
    Witness,
    apply_move,
    apply_transcript,
    derived_subdivision,
    derived_subdivision_transcript,
    dump_complex,
    dump_transcript,
    dumps_complex,
    dumps_transcript,
    full_simplex,
    is_simplex_boundary,
    isomorphic,
    load_complex,
    loads_complex,
    loads_transcript,
    parse_simplex,
    simplex_boundary,
    standard_sphere,
)
from pachner.cli import main


def _cx(tmp_path, K, name="input.cx"):
    path = tmp_path / name
    dump_complex(K, str(path))
    return str(path)


def _tr(tmp_path, text, name="input.tr"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- trivial surface -------------------------------------------------------


def test_fvec_prints_exact_line(tmp_path, sphere2, capsys):
    assert main(["fvec", _cx(tmp_path, sphere2)]) == 0
    assert capsys.readouterr().out == "f = (4, 6, 4); chi = 2\n"


def test_fvec_missing_file_exits_3(capsys):
    assert main(["fvec", str("no/such/file.cx")]) == 3
    assert "error:" in capsys.readouterr().err


def test_unknown_subcommand_exits_3(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 3


def test_bad_flag_value_exits_3(tmp_path, sphere2, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["reduce", _cx(tmp_path, sphere2), "--seed", "xyz"])
    assert exc.value.code == 3


_DISK = Complex.from_facets([(0, 1, 2), (1, 2, 3), (2, 3, 4)])


@pytest.mark.parametrize("argv", [
    ["shell-find", "DISK", "--budget", "-1"],
    ["iso", "DISK", "DISK", "--budget", "-1"],
    ["homology", "DISK", "--max-cells", "-1"],
    ["validate", "DISK", "--budget", "-1", "--out", "OUT"],
    ["reduce", "DISK", "--max-moves", "-1"],
    ["prove-equiv", "DISK", "DISK", "--max-moves", "-2"],
    ["expand-star", "DISK", "--simplex", "2", "--budget", "-1"],
    ["expand-exchange", "DISK", "--simplex-a", "2", "--simplex-b", "5",
     "--budget", "-1"],
    ["shell-find", "DISK", "--budget", "many"],
    ["expand-star", "DISK", "--simplex", "2", "--vertex", "-1"],
])
def test_negative_budget_is_bad_usage(tmp_path, capsys, argv):
    """A budget, move count or cell ceiling below 0 is a usage error: it
    neither runs unbounded nor reads as an exhausted search.  So is a
    negative label for the new vertex of a starring."""
    disk, out = _cx(tmp_path, _DISK), tmp_path / "art"
    argv = [{"DISK": disk, "OUT": str(out)}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 3
    assert "expected an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--temp", "--decay"])
@pytest.mark.parametrize("subcommand", ["reduce", "prove-equiv"])
def test_non_finite_schedule_is_bad_usage(tmp_path, capsys, subcommand, flag,
                                          value):
    """nan or an infinity as temperature or decay switches the walk off,
    so it is a usage error rather than an exhausted search."""
    disk, out = _cx(tmp_path, _DISK), tmp_path / "art"
    inputs = [disk] if subcommand == "reduce" else [disk, disk]
    with pytest.raises(SystemExit) as exc:
        main([subcommand, *inputs, f"{flag}={value}", "--out", str(out)])
    assert exc.value.code == 3
    assert f"expected a finite number, got {value!r}" in capsys.readouterr().err
    assert not out.exists()
    if value.startswith("-"):
        # as its own argument argparse reads -inf as an option string,
        # and refuses the flag with its own message before any parsing
        with pytest.raises(SystemExit) as exc:
            main([subcommand, *inputs, flag, value, "--out", str(out)])
        assert exc.value.code == 3
        assert not out.exists()


def test_zero_budget_is_a_budget(tmp_path, capsys):
    disk = _cx(tmp_path, _DISK)
    assert main(["shell-find", disk, "--budget", "0"]) == 2
    assert "budget exhausted" in capsys.readouterr().err
    out = tmp_path / "art"
    assert main(["validate", disk, "--out", str(out)]) == 0
    assert (out / "evidence.tr").exists()


def test_homology_report(tmp_path, capsys):
    assert main(["homology", _cx(tmp_path, csaszar_torus())]) == 0
    assert capsys.readouterr().out == "H0 = Z; H1 = Z^2; H2 = Z\n"


def test_homology_budget_exits_2(tmp_path, sphere3, capsys):
    assert main(["homology", _cx(tmp_path, sphere3), "--max-cells", "3"]) == 2
    assert "error:" in capsys.readouterr().err


# -- single moves ----------------------------------------------------------


def test_move_apply_star_writes_result(tmp_path, sphere2, capsys):
    out = tmp_path / "art"
    rc = main(["move", _cx(tmp_path, sphere2), "--apply", "STAR [0 1 2] 4",
               "--out", str(out)])
    assert rc == 0
    assert "f = (5, 9, 6); chi = 2" in capsys.readouterr().out
    M = load_complex(str(out / "result.cx"))
    assert M == apply_move(sphere2, Star((0, 1, 2), 4))


def test_move_payload_on_stdout(tmp_path, sphere2, capsys):
    rc = main(["move", _cx(tmp_path, sphere2), "--apply", "STAR [0 1 2] 4"])
    assert rc == 0
    M = loads_complex(capsys.readouterr().out)
    assert M == apply_move(sphere2, Star((0, 1, 2), 4))


def test_move_check_legal(tmp_path, sphere2, capsys):
    rc = main(["move", _cx(tmp_path, sphere2), "--apply",
               "FLIP [0 1 2] ; [9]", "--check"])
    assert rc == 0
    assert "legal: yes" in capsys.readouterr().out


def test_move_check_illegal_exits_1(tmp_path, sphere2, capsys):
    rc = main(["move", _cx(tmp_path, sphere2), "--apply",
               "FLIP [0 1] ; [9]", "--check"])
    assert rc == 1
    got = capsys.readouterr().out
    assert "legal: no" in got and "reason:" in got


def test_move_apply_illegal_exits_1(tmp_path, sphere2, capsys):
    rc = main(["move", _cx(tmp_path, sphere2), "--apply", "FLIP [0 1] ; [9]"])
    assert rc == 1
    assert "illegal move" in capsys.readouterr().err


def test_move_bad_syntax_exits_3(tmp_path, sphere2, capsys):
    rc = main(["move", _cx(tmp_path, sphere2), "--apply", "WELD 0 [9 9]"])
    assert rc == 3


def test_replay_inverse_pair_round_trips(tmp_path, sphere2):
    cx = _cx(tmp_path, sphere2)
    tr = _tr(tmp_path, "STAR [0 1 2] 4\nWELD 4 [0 1 2]\n")
    out = tmp_path / "art"
    assert main(["replay", tr, cx, "--out", str(out)]) == 0
    assert (out / "result.cx").read_bytes() == (tmp_path / "input.cx").read_bytes()


def test_replay_illegal_step_exits_1(tmp_path, sphere2, capsys):
    cx = _cx(tmp_path, sphere2)
    tr = _tr(tmp_path, "STAR [0 1 2] 4\nSTAR [0 1 2] 5\n")
    assert main(["replay", tr, cx]) == 1
    assert "step 1" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["STAR [0 1] -1", "WELD -1 [0 1]"])
def test_bad_vertex_label_exits_3(tmp_path, sphere2, capsys, line):
    """A negative label in a move line is malformed input, as in a
    simplex, and not an illegal move: replay and move exit 3."""
    cx = _cx(tmp_path, sphere2)
    assert main(["replay", _tr(tmp_path, line + "\n"), cx]) == 3
    assert "bad vertex" in capsys.readouterr().err
    assert main(["move", cx, "--apply", line]) == 3
    assert "bad vertex" in capsys.readouterr().err


def test_invert_twice_is_identity(tmp_path, capsys):
    text = "STAR [0 1 2] 4\nFLIP [3] ; [0 1 2] # note\n"
    tr = _tr(tmp_path, text)
    out = tmp_path / "art"
    assert main(["invert", tr, "--out", str(out)]) == 0
    assert main(["invert", str(out / "inverse.tr"), "--out",
                 str(tmp_path / "art2")]) == 0
    roundtrip = (tmp_path / "art2" / "inverse.tr").read_text(encoding="utf-8")
    assert loads_transcript(roundtrip) == loads_transcript(text)


# -- local structure -------------------------------------------------------


def test_link_payload_round_trips(tmp_path, sphere2, capsys):
    assert main(["link", _cx(tmp_path, sphere2), "--simplex", "0"]) == 0
    assert loads_complex(capsys.readouterr().out) == sphere2.link((0,))


def test_link_absent_simplex_exits_1(tmp_path, sphere2, capsys):
    assert main(["link", _cx(tmp_path, sphere2), "--simplex", "9"]) == 1
    assert "error:" in capsys.readouterr().err


def test_star_artifact(tmp_path, sphere2, capsys):
    out = tmp_path / "art"
    rc = main(["star", _cx(tmp_path, sphere2), "--simplex", "0 1",
               "--out", str(out)])
    assert rc == 0
    assert load_complex(str(out / "star.cx")) == sphere2.star((0, 1))


def test_boundary_of_ball(tmp_path, capsys):
    ball = Complex.from_facets([(0, 1, 2), (1, 2, 3)])
    assert main(["boundary", _cx(tmp_path, ball)]) == 0
    assert loads_complex(capsys.readouterr().out) == ball.boundary()


def test_boundary_of_nonpseudomanifold_exits_1(tmp_path, capsys):
    tripled = Complex.from_facets([(0, 1, 2), (0, 1, 3), (0, 1, 4)])
    assert main(["boundary", _cx(tmp_path, tripled)]) == 1


def test_derive_payload_replays(tmp_path, sphere2, capsys):
    assert main(["derive", _cx(tmp_path, sphere2)]) == 0
    t = loads_transcript(capsys.readouterr().out)
    assert t == derived_subdivision_transcript(sphere2)
    assert apply_transcript(sphere2, t) == derived_subdivision(sphere2)


def test_derive_without_out_does_not_replay(tmp_path, sphere2, capsys,
                                            monkeypatch):
    replays = []
    monkeypatch.setattr(pachner.cli, "apply_transcript",
                        lambda *a: replays.append(a))
    assert main(["derive", _cx(tmp_path, sphere2)]) == 0
    assert replays == []
    assert (capsys.readouterr().out
            == dumps_transcript(derived_subdivision_transcript(sphere2)))


# -- recognition -----------------------------------------------------------


def test_validate_sphere_report(tmp_path, sphere2, capsys):
    out = tmp_path / "art"
    rc = main(["validate", _cx(tmp_path, sphere2), "--out", str(out)])
    assert rc == 0
    got = capsys.readouterr().out
    assert "dimension = 2" in got
    assert "manifold: Manifold" in got
    assert "shape: Sphere" in got
    loads_transcript((out / "evidence.tr").read_text(encoding="utf-8"))


def test_validate_torus_is_manifold_other(tmp_path, capsys):
    rc = main(["validate", _cx(tmp_path, csaszar_torus())])
    assert rc == 0
    got = capsys.readouterr().out
    assert "manifold: Manifold" in got
    assert "shape: Other" in got


def test_validate_wedge_exits_1(tmp_path, capsys):
    wedge = Complex.from_facets([(0, 1, 2), (0, 3, 4)])
    rc = main(["validate", _cx(tmp_path, wedge)])
    assert rc == 1
    got = capsys.readouterr().out
    assert "manifold: NotManifold" in got
    assert "bad link at = [0]" in got


def test_validate_shelled_sphere_writes_flip_evidence(tmp_path, sphere3,
                                                      capsys):
    sd = derived_subdivision(sphere3)
    out = tmp_path / "art"
    assert main(["validate", _cx(tmp_path, sd), "--out", str(out)]) == 0
    assert "shape: Sphere" in capsys.readouterr().out
    t = loads_transcript((out / "evidence.tr").read_text(encoding="utf-8"))
    assert len(t) == len(sd.facets) - 1 == 119
    assert is_simplex_boundary(apply_transcript(sd, t))


def test_validate_without_certificate_writes_no_evidence(tmp_path, sphere2,
                                                         capsys):
    out = tmp_path / "art"
    sd = derived_subdivision(sphere2)
    assert main(["validate", _cx(tmp_path, sd), "--budget", "5",
                 "--out", str(out)]) == 0
    assert "shape: Sphere" in capsys.readouterr().out
    assert not (out / "evidence.tr").exists()


def test_validate_budget_starved_exits_2(tmp_path, sphere3, capsys):
    big = derived_subdivision(sphere3)
    rc = main(["validate", _cx(tmp_path, big), "--budget", "1"])
    assert rc == 2
    assert "shape: Unknown" in capsys.readouterr().out


def test_shell_find_artifact_replays(tmp_path, capsys):
    ball = Complex.from_facets([(0, 1, 2), (1, 2, 3), (2, 3, 4)])
    cx = _cx(tmp_path, ball)
    out = tmp_path / "art"
    assert main(["shell-find", cx, "--out", str(out)]) == 0
    report = capsys.readouterr().out
    assert "mode = ball" in report and "steps = 2" in report
    text = (out / "shelling.tr").read_text(encoding="utf-8")
    assert text.startswith("# terminal ")
    assert main(["replay", str(out / "shelling.tr"), cx]) == 0
    final = loads_complex(capsys.readouterr().out)
    assert len(final.facets) == 1


def test_shell_find_sphere_mode_notes_initial(tmp_path, sphere2, capsys):
    assert main(["shell-find", _cx(tmp_path, sphere2)]) == 0
    payload = capsys.readouterr().out
    assert payload.splitlines()[0].startswith("# initial ")


def test_sphere_mode_shelling_replays_without_its_initial_facet(
        tmp_path, sphere2, capsys):
    cx = _cx(tmp_path, sphere2)
    out = tmp_path / "art"
    assert main(["shell-find", cx, "--out", str(out)]) == 0
    tr = out / "shelling.tr"
    head = dict(line[2:].split(" ", 1)
                for line in tr.read_text(encoding="utf-8").splitlines()
                if line.startswith("# "))
    initial, terminal = (parse_simplex(head[k])
                         for k in ("initial", "terminal"))
    tr = str(tr)
    assert main(["replay", tr, cx]) == 1  # the initial facet is still there
    opened = _cx(tmp_path, Complex.from_facets(sphere2.facets - {initial}),
                 "opened.cx")
    replayed = tmp_path / "replayed"
    assert main(["replay", tr, opened, "--out", str(replayed)]) == 0
    capsys.readouterr()
    assert load_complex(str(replayed / "result.cx")) == full_simplex(terminal)


def test_shell_find_torus_exits_1(tmp_path, capsys):
    assert main(["shell-find", _cx(tmp_path, csaszar_torus())]) == 1
    assert "no shelling exists" in capsys.readouterr().out


def test_shell_find_pinched_complex_exits_1(tmp_path, capsys):
    assert main(["shell-find", _cx(tmp_path, pinched_complex())]) == 1
    assert "no shelling exists" in capsys.readouterr().out


def test_recursion_limit_exits_2(tmp_path, sphere2, monkeypatch, capsys):
    def too_deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(pachner.cli, "find_shelling", too_deep)
    assert main(["shell-find", _cx(tmp_path, sphere2)]) == 2
    assert "recursion" in capsys.readouterr().err


def test_internal_fault_exits_2(tmp_path, sphere2, monkeypatch, capsys):
    # a fault of the program is not a proven "no"
    def broken(*args, **kwargs):
        raise RuntimeError("starring expansion does not replay correctly")

    monkeypatch.setattr(pachner.cli, "star_move_transcript", broken)
    assert main(["expand-star", _cx(tmp_path, sphere2),
                 "--simplex", "0 1"]) == 2
    assert "does not replay" in capsys.readouterr().err


def test_iso_yes_with_map(tmp_path, sphere2, capsys):
    other = sphere2.relabel({0: 10, 1: 11, 2: 12, 3: 13})
    rc = main(["iso", _cx(tmp_path, sphere2, "a.cx"),
               _cx(tmp_path, other, "b.cx")])
    assert rc == 0
    got = capsys.readouterr().out
    assert "isomorphic: yes" in got
    assert "map: 0->10 1->11 2->12 3->13" in got


def test_iso_no_exits_1(tmp_path, sphere2, capsys):
    rc = main(["iso", _cx(tmp_path, sphere2, "a.cx"),
               _cx(tmp_path, csaszar_torus(), "b.cx")])
    assert rc == 1
    assert "isomorphic: no" in capsys.readouterr().out


# -- searches and expansions ------------------------------------------------


def test_expand_star_payload_replays(tmp_path, sphere2, capsys):
    cx = _cx(tmp_path, sphere2)
    assert main(["expand-star", cx, "--simplex", "0 1"]) == 0
    t = loads_transcript(capsys.readouterr().out)
    assert apply_transcript(sphere2, t) == apply_move(sphere2, Star((0, 1), 4))


def test_expand_star_vertex_flag(tmp_path, sphere2, capsys):
    assert main(["expand-star", _cx(tmp_path, sphere2),
                 "--simplex", "0 1", "--vertex", "7"]) == 0
    t = loads_transcript(capsys.readouterr().out)
    assert apply_transcript(sphere2, t) == apply_move(sphere2, Star((0, 1), 7))


def test_expand_exchange_payload_replays(tmp_path, sphere2, capsys):
    assert main(["expand-exchange", _cx(tmp_path, sphere2),
                 "--simplex-a", "0", "--simplex-b", "4"]) == 0
    t = loads_transcript(capsys.readouterr().out)
    assert apply_transcript(sphere2, t) == apply_move(
        sphere2, Exchange((0,), (4,)))


def test_expand_exchange_illegal_exits_1(tmp_path, sphere2, capsys):
    assert main(["expand-exchange", _cx(tmp_path, sphere2),
                 "--simplex-a", "0", "--simplex-b", "1"]) == 1


def test_expand_exchange_fault_exits_2(tmp_path, monkeypatch, capsys):
    """The user's exchange is legal; a witness of our own that does not
    fit its core is a fault (exit 2), not a proof that it is not (1)."""
    bad = Witness((Exchange((10**6,), (10**6 + 1,)),))
    monkeypatch.setattr(pachner.expander, "search_witness",
                        lambda L, budget=None: bad)
    rim = [(i, 2 + (i - 1) % 6) for i in range(2, 8)]
    M = simplex_boundary((0, 1)).join(Complex.from_facets(rim))
    assert main(["expand-exchange", _cx(tmp_path, M),
                 "--simplex-a", "0", "--simplex-b", "8"]) == 2
    assert "exchange expansion failed" in capsys.readouterr().err


def test_expand_star_of_an_open_link_exits_1(tmp_path, capsys):
    """A starring whose link is not closed has no expansion: a named
    disproof (exit 1), not a fault."""
    disk = Complex.from_facets([(0, 1, 2), (1, 2, 3), (1, 3, 4)])
    assert main(["expand-star", _cx(tmp_path, disk), "--simplex", "0"]) == 1
    assert capsys.readouterr().err == (
        "error: lk([0]) is not closed; this starring has no bistellar "
        "expansion\n")


def test_expand_exchange_of_an_open_link_core_exits_1(tmp_path, capsys):
    """lk(0) in a fan of three triangles is a path: the exchange has no
    expansion, a named disproof (exit 1) made before any search."""
    fan = Complex.from_facets([(0, 1, 2), (0, 2, 3), (0, 3, 4)])
    assert main(["expand-exchange", _cx(tmp_path, fan),
                 "--simplex-a", "0", "--simplex-b", "5"]) == 1
    assert capsys.readouterr().err == (
        "error: link core with f-vector (4, 3) is not closed; this exchange "
        "has no bistellar expansion\n")


def test_expand_star_of_an_unshellable_link_exits_1(tmp_path, monkeypatch,
                                                   capsys):
    monkeypatch.setattr(pachner.expander, "find_shelling",
                        lambda L, budget=None: None)
    assert main(["expand-star", _cx(tmp_path, standard_sphere(3)),
                 "--simplex", "0 1"]) == 1
    assert "is unshellable" in capsys.readouterr().err


def test_reduce_reaches_simplex_boundary(tmp_path, sphere2, capsys):
    sd = derived_subdivision(sphere2)
    out = tmp_path / "art"
    assert main(["reduce", _cx(tmp_path, sd), "--out", str(out)]) == 0
    got = capsys.readouterr().out
    assert "simplex boundary: yes" in got
    best = load_complex(str(out / "reduced.cx"))
    trail = loads_transcript((out / "reduction.tr").read_text(encoding="utf-8"))
    assert apply_transcript(sd, trail) == best


def test_reduce_starved_exits_2(tmp_path, sphere2, capsys):
    sd = derived_subdivision(sphere2)
    assert main(["reduce", _cx(tmp_path, sd), "--max-moves", "1"]) == 2
    assert "simplex boundary: no" in capsys.readouterr().out


def test_reduce_artifacts_are_deterministic(tmp_path, sphere2):
    sd = derived_subdivision(sphere2)
    cx = _cx(tmp_path, sd)
    for d in ("one", "two"):
        assert main(["reduce", cx, "--seed", "5", "--out",
                     str(tmp_path / d)]) in (0, 2)
    for name in ("reduced.cx", "reduction.tr"):
        assert ((tmp_path / "one" / name).read_bytes()
                == (tmp_path / "two" / name).read_bytes())


def test_prove_equiv_certificate(tmp_path, sphere2, capsys):
    sd = derived_subdivision(sphere2)
    out = tmp_path / "art"
    rc = main(["prove-equiv", _cx(tmp_path, sphere2, "a.cx"),
               _cx(tmp_path, sd, "b.cx"), "--out", str(out)])
    assert rc == 0
    got = capsys.readouterr().out
    assert got.startswith("equivalent: yes\npath: shelling\n")
    left = apply_transcript(
        sphere2,
        loads_transcript((out / "left.tr").read_text(encoding="utf-8")))
    right = apply_transcript(
        sd, loads_transcript((out / "right.tr").read_text(encoding="utf-8")))
    assert isomorphic(left, right) is not None


def test_prove_equiv_computes_homology_once_per_input(tmp_path, sphere2,
                                                      monkeypatch):
    sd = derived_subdivision(sphere2)
    seen = []
    real = pachner.recognize.homology

    def counting(K, *args, **kwargs):
        seen.append(K)
        return real(K, *args, **kwargs)

    for module in (pachner.recognize, pachner.flipsearch, pachner.cli):
        monkeypatch.setattr(module, "homology", counting)
    assert main(["prove-equiv", _cx(tmp_path, sphere2, "a.cx"),
                 _cx(tmp_path, sd, "b.cx")]) == 0
    assert seen == [sphere2, sd]


def test_prove_equiv_dimension_disproof(tmp_path, sphere2, sphere3, capsys):
    rc = main(["prove-equiv", _cx(tmp_path, sphere2, "a.cx"),
               _cx(tmp_path, sphere3, "b.cx")])
    assert rc == 1
    got = capsys.readouterr().out
    assert "equivalent: no" in got and "dimensions differ" in got


def test_prove_equiv_homology_disproof(tmp_path, sphere2, capsys):
    rc = main(["prove-equiv", _cx(tmp_path, sphere2, "a.cx"),
               _cx(tmp_path, csaszar_torus(), "b.cx")])
    assert rc == 1
    got = capsys.readouterr().out
    assert "equivalent: no" in got and "homology differs" in got


def test_prove_equiv_starved_exits_2(tmp_path, capsys):
    """A torus has no shelling, so only annealing can try the pair."""
    torus = csaszar_torus()
    rc = main(["prove-equiv", _cx(tmp_path, torus, "a.cx"),
               _cx(tmp_path, derived_subdivision(torus), "b.cx"),
               "--max-moves", "1"])
    assert rc == 2
    got = capsys.readouterr().out
    assert got.startswith("equivalent: unknown\npath: annealing\n")


def test_prove_equiv_shells_without_annealing_moves(tmp_path, sphere2,
                                                    capsys):
    """sd S2 ~ sd2 S2 is certified by shellings, which --max-moves does
    not bound, and both transcripts replay to the identified ends."""
    sd = derived_subdivision(sphere2)
    sd2 = derived_subdivision(sd)
    out = tmp_path / "art"
    rc = main(["prove-equiv", _cx(tmp_path, sd, "a.cx"),
               _cx(tmp_path, sd2, "b.cx"), "--max-moves", "1",
               "--out", str(out)])
    assert rc == 0
    got = capsys.readouterr().out
    assert "path: shelling" in got
    assert "left moves = 23" in got and "right moves = 143" in got
    left = apply_transcript(
        sd, loads_transcript((out / "left.tr").read_text(encoding="utf-8")))
    right = apply_transcript(
        sd2, loads_transcript((out / "right.tr").read_text(encoding="utf-8")))
    pairs = got.split("map: ")[1].splitlines()[0].split()
    mapping = {int(a): int(b) for a, b in (p.split("->") for p in pairs)}
    assert is_simplex_boundary(left)
    assert left.relabel(mapping) == right


# -- internal faults ----------------------------------------------------------


@pytest.mark.parametrize("fault", [TypeError, KeyError, IndexError,
                                   ValueError])
def test_internal_fault_exits_2_with_traceback(tmp_path, sphere2, capsys,
                                               monkeypatch, fault):
    """A fault is no verdict: it must not reach exit 1, "proven no"."""
    def broken(*args, **kwargs):
        raise fault("injected")

    monkeypatch.setattr(pachner.cli, "recognize_ball_or_sphere", broken)
    assert main(["validate", _cx(tmp_path, sphere2)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("internal error\nTraceback")
    assert f"{fault.__name__}: " in err


# -- packaging -------------------------------------------------------------


def test_module_entry_point(tmp_path, sphere2):
    cx = _cx(tmp_path, sphere2)
    proc = subprocess.run([sys.executable, "-m", "pachner", "fvec", cx],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "f = (4, 6, 4); chi = 2\n"


# -- one parser per process -----------------------------------------------


def test_parser_is_built_once():
    assert pachner.cli._build_parser() is pachner.cli._build_parser()


@pytest.mark.parametrize("command, other", [
    (["reduce"], ["--seed", "5", "--max-moves", "1"]),
    (["shell-find"], ["--budget", "1"]),
])
def test_flags_of_one_call_do_not_leak_into_the_next(tmp_path, sphere2,
                                                     capsys, command, other):
    """The reused parser fills a fresh namespace: a call with the default
    flags prints the same before and after a call with other flags."""
    argv = command + [_cx(tmp_path, derived_subdivision(sphere2))]
    first = main(argv), capsys.readouterr()
    main(argv + other)
    changed = capsys.readouterr()
    assert (main(argv), capsys.readouterr()) == first
    assert changed != first[1]
