"""The three workloads: inputs from a seed, requests, and output checks.

A workload's set-up turns the workload seed into inputs (a seeded
vertex relabelling of every complex, the corpus sample, and the
`--seed` given to each search), writes them as facet and transcript
files, and returns the requests of one pass.  Requests run in order,
one at a time (a closed loop with a single client).  CLI requests go
through `pachner.cli.main(argv)` in the benchmark's own process; the
`small` workload calls the library directly, because its requests take
less time than building the argument parser.

Each request carries its own output check.  Checks run outside the
timed region and replay every yes-artifact through the library,
comparing the result with answers built in `inputs` without the
library.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import re
import time
from dataclasses import dataclass, field

import inputs as ix


class CheckFailed(Exception):
    """A request's output does not match its known answer."""


@dataclass
class Reply:
    """What one request produced.  `text` is its standard output (or the
    rendered library result) with the per-pass output directory masked,
    so replies of different passes compare byte for byte."""

    code: int | None
    text: str = ""
    artifacts: dict = field(default_factory=dict)
    value: object = None
    error: str = ""

    def key(self):
        return (self.code, self.text, sorted(self.artifacts.items()))


class CliRequest:
    """One `pachner` subcommand; its artifacts go to a fresh `--out`
    directory per pass.  `execute` returns the perf_counter readings
    at the start and end of the call, and the reply."""

    def __init__(self, group, argv, expected, check):
        self.group = group
        self.argv = list(argv)
        self.expected = frozenset(expected)
        self.check = check

    def execute(self, cli_main, outdir):
        argv = self.argv + ["--out", outdir]
        stdout, stderr = io.StringIO(), io.StringIO()
        error = ""
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a raising request counts as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        return start, end, Reply(code,
                                 stdout.getvalue().replace(outdir, "OUT"),
                                 error=error or stderr.getvalue())

    def collect(self, reply, outdir):
        """Read the artifacts back, after the timed region."""
        if os.path.isdir(outdir):
            for name in sorted(os.listdir(outdir)):
                with open(os.path.join(outdir, name), encoding="utf-8") as fh:
                    reply.artifacts[name] = fh.read()


class LibRequest:
    """One library call; `render` maps its result to (exit code, text)
    after the timed region."""

    def __init__(self, group, call, render, expected, check):
        self.group = group
        self.call = call
        self.render = render
        self.expected = frozenset(expected)
        self.check = check

    def execute(self, cli_main, outdir):
        start = time.perf_counter()
        try:
            value = self.call()
        except Exception as exc:  # a raising request counts as failed
            return (start, time.perf_counter(),
                    Reply(None, error=f"{type(exc).__name__}: {exc}"))
        end = time.perf_counter()
        code, text = self.render(value)
        return start, end, Reply(code, text, value=value)

    def collect(self, reply, outdir):
        pass


# -- shared helpers ------------------------------------------------------


def _seed(rng):
    return rng.randrange(1, 1 << 31)


def _write(path, text):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _fields(text):
    """`key = value` and `key: value` lines of a CLI report."""
    out = {}
    for line in text.splitlines():
        m = re.match(r"\s*([\w ]+?)\s*[:=]\s*(.*)$", line)
        if m:
            out.setdefault(m.group(1), m.group(2).strip())
    return out


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _replay(pachner, facets, transcript_text):
    """Replay a transcript through the library; returns the end facets."""
    K = pachner.Complex.from_facets(facets)
    t = pachner.loads_transcript(transcript_text)
    return frozenset(pachner.apply_transcript(K, t).facets), t


def _warm_up(pachner, path):
    with contextlib.redirect_stdout(io.StringIO()):
        pachner.cli.main(["fvec", path])


# -- flip ---------------------------------------------------------------

# Four short walks on sd S3 and three equivalence proofs, each with its
# own relabelling and search seed, rather than one long walk: the cost of
# a walk depends on which moves its seed accepts, and averaging
# independent walks keeps that seed-to-seed spread out of `wall_s`.
# With four walks the median of the nine requests is a walk, whose work
# varies by about 3 % between seeds, not the torus reduction, whose work
# varies by about 12 %.
SD_S3_WALKS = 4
REDUCE_SD_S3_MOVES = 40
REDUCE_SD_S4_MOVES = 3
REDUCE_TORUS_MOVES = 500
EQUIVALENCE_PROOFS = 3


def _check_reduce(pachner, facets):
    def check(reply):
        report = _fields(reply.text)
        end = ix.parse(reply.artifacts["reduced.cx"])
        replayed, t = _replay(pachner, facets,
                              reply.artifacts["reduction.tr"])
        _require(replayed == end, "reduction.tr does not replay to reduced.cx")
        _require(int(report["moves"]) == len(t), "move count mismatch")
        done = ix.is_simplex_boundary(end)
        _require(report["simplex boundary"] == ("yes" if done else "no"),
                 "simplex-boundary line disagrees with reduced.cx")
        _require((reply.code == 0) == done, "exit code disagrees with result")
    return check


def _check_equivalence(pachner, left, right):
    def check(reply):
        if reply.code == 2:
            _require("equivalent: unknown" in reply.text, "missing verdict")
            return
        end1, _ = _replay(pachner, left, reply.artifacts["left.tr"])
        end2, _ = _replay(pachner, right, reply.artifacts["right.tr"])
        pairs = _fields(reply.text)["map"].split()
        mapping = {int(a): int(b) for a, b in (p.split("->") for p in pairs)}
        _require(ix.relabel(end1, mapping) == end2,
                 "the printed map does not identify the two endpoints")
    return check


def flip(pachner, seed, workdir):
    """Bistellar search: `reduce` on sd S3, sd S4 and the torus, and
    `prove-equiv` of S2 against sd S2."""
    rng = random.Random(seed)
    s2 = ix.simplex_boundary(range(4))
    sd_s3 = ix.derived(ix.simplex_boundary(range(5)))
    jobs = [(f"sdS3-{i}", sd_s3, REDUCE_SD_S3_MOVES, (0, 2))
            for i in range(SD_S3_WALKS)]
    jobs.append(("sdS4", ix.derived(ix.simplex_boundary(range(6))),
                 REDUCE_SD_S4_MOVES, (0, 2)))
    # a torus is not a sphere: exit 0 would be a false proof
    jobs.append(("torus", ix.csaszar_torus(), REDUCE_TORUS_MOVES, (2,)))
    requests = []
    for name, K, moves, expected in jobs:
        K = ix.relabel(K, ix.relabelling(K, rng))
        path = _write(os.path.join(workdir, f"{name}.cx"), ix.dumps(K))
        requests.append(CliRequest(
            f"reduce {name.split('-')[0]}",
            ["reduce", path, "--seed", str(_seed(rng)),
             "--max-moves", str(moves)],
            expected, _check_reduce(pachner, K)))
    for i in range(EQUIVALENCE_PROOFS):
        left = ix.relabel(s2, ix.relabelling(s2, rng))
        right = ix.derived(s2)
        right = ix.relabel(right, ix.relabelling(right, rng))
        paths = [_write(os.path.join(workdir, f"{side}-{i}.cx"), ix.dumps(K))
                 for side, K in (("S2", left), ("sdS2", right))]
        requests.append(CliRequest(
            "prove-equiv S2 sdS2",
            ["prove-equiv", *paths, "--seed", str(_seed(rng))],
            (0, 2), _check_equivalence(pachner, left, right)))
    _warm_up(pachner, requests[-1].argv[1])
    return requests


# -- shell ----------------------------------------------------------------

STRIP_TRIANGLES = 300


def _check_shelling(pachner, facets, sphere):
    def check(reply):
        report = _fields(reply.text)
        _require(report["mode"] == ("sphere" if sphere else "ball"),
                 "wrong shelling mode")
        text = reply.artifacts["shelling.tr"]
        head = dict(re.findall(r"^# (initial|terminal) \[([\d ]*)\]$", text,
                               re.M))
        terminal = tuple(int(v) for v in head["terminal"].split())
        start = set(facets)
        if sphere:
            initial = tuple(int(v) for v in head["initial"].split())
            _require(initial in start, "initial facet is not a facet")
            start.discard(initial)
        end, t = _replay(pachner, start, text)
        _require(all(isinstance(mv, pachner.Shell) for mv in t.moves),
                 "shelling.tr holds a move that is not a shelling")
        _require(int(report["steps"]) == len(t), "step count mismatch")
        _require(end == {terminal},
                 "shelling.tr does not end at its terminal facet")
    return check


def shell(pachner, seed, workdir):
    """Shelling search on a long strip (ball mode) and three spheres."""
    rng = random.Random(seed)
    s2 = ix.simplex_boundary(range(4))
    named = (
        ("strip", ix.triangle_strip(STRIP_TRIANGLES), False),
        ("sdS3", ix.derived(ix.simplex_boundary(range(5))), True),
        ("sd2S2", ix.derived(ix.derived(s2)), True),
        ("d6", ix.simplex_boundary(range(7)), True),
    )
    requests = []
    for name, K, sphere in named:
        K = ix.relabel(K, ix.relabelling(K, rng))
        path = _write(os.path.join(workdir, f"{name}.cx"), ix.dumps(K))
        requests.append(CliRequest(
            f"shell-find {name}", ["shell-find", path], (0,),
            _check_shelling(pachner, K, sphere)))
    _warm_up(pachner, requests[-1].argv[1])
    return requests


# -- small ----------------------------------------------------------------

CORPUS_SAMPLE = 5000
VERDICT_CODES = {"Sphere": 0, "Ball": 0, "Other": 1, "Unknown": 2}


def _recognition(pachner, generators):
    def call():
        return pachner.recognize_ball_or_sphere(
            pachner.Complex.from_facets(generators))

    def render(verdict):
        ev = verdict.evidence
        text = str(verdict) + "\n" + (
            pachner.dumps_transcript(ev)
            if isinstance(ev, pachner.Transcript) else repr(ev))
        return VERDICT_CODES[verdict.value], text

    expected_value = ix.classify(generators)

    def check(reply):
        verdict = reply.value
        _require(verdict.value == expected_value,
                 f"{generators}: {verdict.value}, oracle {expected_value}")
        ev = verdict.evidence
        if isinstance(ev, pachner.Transcript) and len(ev):
            K = pachner.Complex.from_facets(generators)
            end = frozenset(pachner.apply_transcript(K, ev).facets)
            if verdict.value == "Sphere":
                _require(ix.is_simplex_boundary(end),
                         f"{generators}: evidence misses a simplex boundary")
            else:
                _require(len(end) == 1,
                         f"{generators}: shelling evidence misses one facet")

    code = VERDICT_CODES[expected_value]
    return LibRequest("recognize corpus", call, render, (code,), check)


def _bistellar_only(pachner, t):
    _require(all(isinstance(mv, pachner.Bistellar) for mv in t.moves),
             "expansion holds a move that is not bistellar")


def _starring(pachner, facets, A):
    fresh = max(v for f in facets for v in f) + 1
    expected = ix.starred(facets, A, fresh)

    def call():
        return pachner.star_move_transcript(
            pachner.Complex.from_facets(facets), A)

    def check(reply):
        _bistellar_only(pachner, reply.value)
        end, _ = _replay(pachner, facets, reply.text)
        _require(end == expected, f"starring {A}: expansion differs from "
                 "the one-move result")

    return LibRequest("star_move_transcript sdS2", call,
                      lambda t: (0, pachner.dumps_transcript(t)), (0,), check)


def _exchange(pachner, facets, a):
    fresh = max(v for f in facets for v in f) + 1
    # lk(a) has no simplex-boundary factor, so the exchange of a for a
    # new vertex only renames a
    expected = ix.relabel(facets, {v: fresh if v == a else v
                                   for v in ix.vertices(facets)})

    def call():
        return pachner.expand_exchange(
            pachner.Complex.from_facets(facets), (a,), (fresh,))

    def check(reply):
        _bistellar_only(pachner, reply.value)
        end, _ = _replay(pachner, facets, reply.text)
        _require(end == expected, "exchange expansion differs from the "
                 "one-move result")

    return LibRequest("expand_exchange hexagon", call,
                      lambda t: (0, pachner.dumps_transcript(t)), (0,), check)


def _check_replay(expected, moves):
    def check(reply):
        _require(ix.parse(reply.artifacts["result.cx"]) == expected,
                 "replay does not reach the derived subdivision")
        _require(_fields(reply.text)["moves"] == str(moves),
                 "replayed move count mismatch")
    return check


def small(pachner, seed, workdir):
    """Many tiny library calls plus one long CLI replay."""
    rng = random.Random(seed)
    corpus = ix.corpus()
    requests = []
    for i in sorted(rng.sample(range(len(corpus)), CORPUS_SAMPLE)):
        g = [tuple(f) for f in corpus[i]]
        perm = dict(zip(range(6), rng.sample(range(6), 6)))
        requests.append(_recognition(
            pachner, [tuple(sorted(perm[v] for v in f)) for f in g]))

    sd_s2 = ix.derived(ix.simplex_boundary(range(4)))
    sd_s2 = ix.relabel(sd_s2, ix.relabelling(sd_s2, rng))
    for A in sorted(f for f in ix.closure(sd_s2) if f):
        requests.append(_starring(pachner, sd_s2, A))

    hexagon = ix.suspended_hexagon()
    perm = ix.relabelling(hexagon, rng)
    requests.append(_exchange(pachner, ix.relabel(hexagon, perm), perm[0]))

    s4 = ix.simplex_boundary(range(6))
    s4 = ix.relabel(s4, ix.relabelling(s4, rng))
    K = pachner.Complex.from_facets(s4)
    t = pachner.subdivision_to_bistellar(
        K, pachner.derived_subdivision_transcript(K))
    s4_path = _write(os.path.join(workdir, "S4.cx"), ix.dumps(s4))
    tr_path = _write(os.path.join(workdir, "S4-to-sdS4.tr"),
                     pachner.dumps_transcript(t))
    requests.append(CliRequest(
        "replay S4 -> sdS4", ["replay", tr_path, s4_path], (0,),
        _check_replay(ix.derived(s4), len(t))))
    _warm_up(pachner, s4_path)
    requests[0].call()  # and the library path
    return requests


WORKLOADS = {"flip": flip, "shell": shell, "small": small}
