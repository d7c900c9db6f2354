"""Tests of the benchmark itself: seeded generation, output checks and
trace wrappers.  Run from the root of a checkout:

    python3 -m pytest bench -q
"""

import copy
import os
import signal
import statistics
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import calibrate  # noqa: E402
import inputs as ix  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

pachner = run.import_pachner()


def _files(root):
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def _shape(requests, root):
    return [(r.group, sorted(r.expected),
             [a.replace(str(root), "DIR") for a in getattr(r, "argv", [])])
            for r in requests]


def _execute(request, tmp_path):
    outdir = str(tmp_path / "out")
    *_, reply = request.execute(pachner.cli.main, outdir)
    request.collect(reply, outdir)
    assert reply.code in request.expected, reply.error
    request.check(reply)
    return reply


def _rejects(request, reply):
    with pytest.raises(Exception):
        request.check(reply)


# -- generation ------------------------------------------------------------


@pytest.mark.parametrize("name", ["flip", "shell"])
def test_generation_is_deterministic_per_seed(tmp_path, name):
    make = workloads.WORKLOADS[name]
    a = make(pachner, 7, str(tmp_path / "a"))
    b = make(pachner, 7, str(tmp_path / "b"))
    c = make(pachner, 8, str(tmp_path / "c"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _shape(a, tmp_path / "a") == _shape(b, tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def test_small_generation_is_deterministic_per_seed(tmp_path):
    a = workloads.small(pachner, 7, str(tmp_path / "a"))
    b = workloads.small(pachner, 7, str(tmp_path / "b"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _shape(a, tmp_path / "a") == _shape(b, tmp_path / "b")
    picks = [r for r in a if r.group == "recognize corpus"][:50]
    again = [r for r in b if r.group == "recognize corpus"][:50]
    assert ([r.render(r.call()) for r in picks]
            == [r.render(r.call()) for r in again])


def test_relabelling_keeps_the_known_answers():
    rng = __import__("random").Random(3)
    torus = ix.csaszar_torus()
    moved = ix.relabel(torus, ix.relabelling(torus, rng))
    assert moved != torus
    assert str(pachner.homology(pachner.Complex.from_facets(moved))) == \
        "H0 = Z; H1 = Z^2; H2 = Z"


def test_derived_matches_the_library_labelling():
    K = ix.relabel(ix.csaszar_torus(), {v: 2 * v + 1 for v in range(7)})
    lib = pachner.derived_subdivision(pachner.Complex.from_facets(K))
    assert lib.facets == ix.derived(K)


# -- output checks ---------------------------------------------------------


def _by_group(requests):
    return {r.group: r for r in requests}


def test_reduce_and_equivalence_checks_reject_corruption(tmp_path):
    reqs = _by_group(workloads.flip(pachner, 5, str(tmp_path / "in")))
    red = reqs["reduce torus"]
    reply = _execute(red, tmp_path / "r")
    lines = reply.artifacts["reduced.cx"].splitlines(keepends=True)
    bad = copy.deepcopy(reply)
    bad.artifacts["reduced.cx"] = "".join(lines[1:])
    _rejects(red, bad)
    bad = copy.deepcopy(reply)
    bad.text = bad.text.replace("moves = ", "moves = 1")
    _rejects(red, bad)

    eq = reqs["prove-equiv S2 sdS2"]
    reply = _execute(eq, tmp_path / "e")
    assert reply.code == 0
    bad = copy.deepcopy(reply)
    tr = bad.artifacts["right.tr"].splitlines(keepends=True)
    bad.artifacts["right.tr"] = "".join(tr[:-1])
    _rejects(eq, bad)
    bad = copy.deepcopy(reply)
    head, _, pairs = bad.text.partition("map: ")
    first, rest = pairs.split(" ", 1)
    src, dst = first.split("->")
    bad.text = head + "map: " + f"{src}->{int(dst) + 1000} " + rest
    _rejects(eq, bad)


def test_shelling_check_rejects_corruption(tmp_path):
    req = _by_group(workloads.shell(pachner, 5, str(tmp_path / "in")))[
        "shell-find d6"]
    reply = _execute(req, tmp_path)
    lines = reply.artifacts["shelling.tr"].splitlines(keepends=True)
    bad = copy.deepcopy(reply)
    bad.artifacts["shelling.tr"] = "".join(lines[:-1])
    _rejects(req, bad)
    bad = copy.deepcopy(reply)
    bad.artifacts["shelling.tr"] = "".join(
        line for line in lines if not line.startswith("# initial"))
    _rejects(req, bad)


def test_small_checks_reject_corruption(tmp_path):
    reqs = workloads.small(pachner, 5, str(tmp_path / "in"))
    corpus = [r for r in reqs if r.group == "recognize corpus"]
    for r in corpus:
        reply = _execute(r, tmp_path)
        if reply.value.value == "Sphere" and len(reply.value.evidence) > 1:
            break
    bad = copy.deepcopy(reply)
    bad.value = pachner.Verdict("Other")
    _rejects(r, bad)
    bad = copy.deepcopy(reply)
    ev = reply.value.evidence
    bad.value = pachner.Verdict("Sphere", pachner.Transcript(ev.moves[:-1]))
    _rejects(r, bad)

    for group in ("star_move_transcript sdS2", "expand_exchange hexagon"):
        r = next(q for q in reqs if q.group == group)
        reply = _execute(r, tmp_path)
        bad = copy.deepcopy(reply)
        bad.text = "".join(bad.text.splitlines(keepends=True)[:-1])
        _rejects(r, bad)

    r = reqs[-1]
    reply = _execute(r, tmp_path / "replay")
    bad = copy.deepcopy(reply)
    bad.artifacts["result.cx"] = "".join(
        reply.artifacts["result.cx"].splitlines(keepends=True)[1:])
    _rejects(r, bad)


def test_runner_counts_a_changed_pass_as_failed(tmp_path):
    reqs = workloads.shell(pachner, 5, str(tmp_path / "in"))[-1:]
    runner = run.Runner(pachner, reqs, str(tmp_path / "work"),
                        calibrate.Calibrator())
    runner.run_pass()
    assert runner.failed == 0
    runner.reference = [(0, "", [])]
    runner.run_pass()
    assert (runner.attempted, runner.failed) == (2, 1)


# -- tracing ---------------------------------------------------------------


def _bindings():
    mods = [pachner] + [getattr(pachner, m) for m in (
        "core", "moves", "recognize", "flipsearch", "expander", "cli")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out.update({("Complex", k): v
                for k, v in vars(pachner.Complex).items()})
    return out


def test_wrappers_cover_every_binding_and_are_restored():
    before = _bindings()
    tracer = tracing.Tracer(pachner)
    tracer.install()
    try:
        for site in (pachner.moves.enumerate_moves,
                     pachner.recognize.enumerate_moves,
                     pachner.flipsearch.enumerate_moves,
                     pachner.cli.homology,
                     pachner.expander._flip_reduce,
                     pachner.cli.reduce_complex,
                     pachner.enumerate_moves,
                     pachner.Complex.link,
                     pachner.Complex.from_facets):
            assert getattr(site, "__bench_traced__", False), site
        torus = pachner.Complex.from_facets(ix.csaszar_torus())
        pachner.reduce(torus, pachner.Schedule(seed=3, max_moves=40))
        counts, ratios, times = tracer.snapshot()
    finally:
        tracer.restore()
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert counts["flipsearch.reduce.calls"] == 1
    assert counts["flipsearch.reduce.proposals"] == 40
    assert counts["moves.enumerate_moves.bistellar.calls"] == 40
    assert 0 < ratios["flipsearch.reduce.accept_ratio"] < 1
    assert sum(times.values()) == pytest.approx(tracer.top_level_s)


def test_traced_run_restores_and_repeats_counts(tmp_path, capsys):
    before = _bindings()
    reqs = workloads.shell(pachner, 5, str(tmp_path / "in"))[-1:]
    results = []
    for _ in range(2):
        runner = run.Runner(pachner, reqs, str(tmp_path / "work"),
                            calibrate.Calibrator())
        metrics, _ = run.per_layer(runner, 0)
        assert runner.failed == 0
        results.append({k: v for k, (v, unit) in metrics.items()
                        if unit == "count"})
    after = _bindings()
    assert all(after[k] is v for k, v in before.items())
    assert results[0] == results[1]
    assert results[0]["recognize.find_shelling.calls"] == 1
    assert "shell-find d6" in capsys.readouterr().out


# -- calibration -----------------------------------------------------------


def test_timer_units_are_taken_out_of_the_interval_they_interrupt():
    before = signal.getsignal(signal.SIGALRM)
    cal = calibrate.Calibrator()
    cal.run()
    with cal.interleaved():
        start = time.perf_counter()
        while time.perf_counter() - start < 3 * calibrate.INTERVAL_S:
            pass
        end = time.perf_counter()
    cal.run()
    assert signal.getsignal(signal.SIGALRM) is before
    inside = cal.units[1:-1]
    assert len(inside) >= 2
    assert cal.seconds(start, end) == pytest.approx(
        end - start - sum(inside))
    assert cal.scale(1.0, start, end) == pytest.approx(
        calibrate.REFERENCE_UNIT_S / statistics.fmean(cal.units))
