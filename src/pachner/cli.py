"""Command-line surface: one subcommand per library operation.

Plain-text in, plain-text out.  Complexes travel as facet files (one
facet per line) and move sequences as transcript files; every artifact
this tool writes can be fed back to it unchanged.

Exit codes form a four-way contract so scripts can tell a proof of
failure from a search that gave up:

* 0 -- success / affirmative verdict
* 1 -- provably negative verdict (illegal move, no shelling exists,
       not a combinatorial manifold, not isomorphic, invariant mismatch,
       a starring or exchange with no expansion); only a verdict or a
       named disproof exits 1
* 2 -- undecided within budget (bounded search exhausted, a search
       deeper than the Python recursion limit, or an internal fault:
       any other exception, a plain ValueError included)
* 3 -- malformed input (unreadable files, bad simplex or move syntax,
       bad usage)

Artifacts go to the directory named by ``--out`` under fixed names;
without ``--out`` the payload is printed to standard output verbatim,
so shell redirection produces the same bytes.  All searches are seeded
and single-threaded: identical inputs and flags give identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import traceback

from .core import (
    DEFAULT_ISO_BUDGET,
    AbsentSimplexError,
    JoinCollisionError,
    MalformedSimplexError,
    NotPseudomanifoldError,
    fmt_simplex,
    is_simplex_boundary,
    isomorphic,
    dumps_complex,
    load_complex,
)
from .expander import (
    DEFAULT_EXPANSION_BUDGET,
    NoExpansionError,
    expand_exchange,
    star_move_transcript,
)
from .flipsearch import (
    Schedule,
    _equivalence,
    reduce as reduce_complex,
)
from .moves import (
    IllegalAtStepError,
    IllegalMoveError,
    Transcript,
    TranscriptParseError,
    apply_move,
    apply_transcript,
    check_move,
    derived_subdivision_transcript,
    dumps_transcript,
    invert_transcript,
    load_transcript,
    parse_move,
    parse_simplex,
)
from .recognize import (
    DEFAULT_MAX_CELLS,
    DEFAULT_SHELLING_BUDGET,
    NOT_MANIFOLD,
    UNKNOWN,
    find_shelling,
    homology,
    is_closed_pseudomanifold,
    recognize_ball_or_sphere,
    verify_combinatorial_manifold,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_UNKNOWN = 2
EXIT_BAD_INPUT = 3

_DEFAULT_SCHEDULE = Schedule()


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage, but 2 means `undecided` here, so
    usage errors are remapped onto the malformed-input code.  A `-`
    followed by inf, infinity or nan (any case) is read as a value, not
    as an option string, so `--temp -inf` reaches ``_finite``."""

    def _parse_optional(self, arg_string):
        if arg_string[:1] == "-" and arg_string[1:].lower() in (
                "inf", "infinity", "nan"):
            return None
        return super()._parse_optional(arg_string)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _budget(text):
    """A budget, ceiling or vertex label: an int >= 0, anything else is
    bad usage."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return value


def _finite(text):
    """A schedule float: a finite number; nan and infinities are bad
    usage, since either switches the walk off."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _yes(flag):
    return "yes" if flag else "no"


def _fail(exc, code):
    message = exc.args[0] if exc.args else str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


def _write_artifact(outdir, name, text):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _emit(args, name, text, report=()):
    """With --out, print the report and write the named artifact;
    without, stdout carries exactly the artifact payload."""
    if args.out:
        for line in report:
            print(line)
        _write_artifact(args.out, name, text)
    else:
        sys.stdout.write(text)


def _schedule(args):
    return Schedule(seed=args.seed, max_moves=args.max_moves,
                    temp=args.temp, decay=args.decay)


def _map_line(pairs):
    return ("map: " + " ".join(f"{u}->{v}" for u, v in pairs)).rstrip()


# -- subcommands ----------------------------------------------------------


def _cmd_validate(args):
    K = load_complex(args.complex)
    print(f"dimension = {K.dim}")
    print(K.f_vector())
    print(f"pure = {_yes(K.is_pure())}")
    print(f"closed pseudomanifold = {_yes(is_closed_pseudomanifold(K))}")
    manifold = verify_combinatorial_manifold(K, budget=args.budget,
                                             audit_all_links=args.all_links)
    print(f"manifold: {manifold}")
    if manifold.value == NOT_MANIFOLD and manifold.evidence is not None:
        print(f"bad link at = {fmt_simplex(manifold.evidence)}")
    shape = recognize_ball_or_sphere(K, budget=args.budget)
    print(f"shape: {shape}")
    if args.out and isinstance(shape.evidence, Transcript):
        _write_artifact(args.out, "evidence.tr", dumps_transcript(shape.evidence))
    if manifold.value == NOT_MANIFOLD:
        return EXIT_NEGATIVE
    if UNKNOWN in (manifold.value, shape.value):
        return EXIT_UNKNOWN
    return EXIT_OK


def _cmd_fvec(args):
    print(load_complex(args.complex).f_vector())
    return EXIT_OK


def _cmd_homology(args):
    profile = homology(load_complex(args.complex), max_cells=args.max_cells)
    print(str(profile) or "trivial")
    return EXIT_OK


def _cmd_link(args):
    K = load_complex(args.complex)
    L = K.link(parse_simplex(args.simplex))
    _emit(args, "link.cx", dumps_complex(L), (str(L.f_vector()),))
    return EXIT_OK


def _cmd_star(args):
    K = load_complex(args.complex)
    S = K.star(parse_simplex(args.simplex))
    _emit(args, "star.cx", dumps_complex(S), (str(S.f_vector()),))
    return EXIT_OK


def _cmd_boundary(args):
    B = load_complex(args.complex).boundary()
    _emit(args, "boundary.cx", dumps_complex(B), (str(B.f_vector()),))
    return EXIT_OK


def _cmd_move(args):
    K = load_complex(args.complex)
    move = parse_move(args.apply)
    if args.check:
        report = check_move(K, move)
        print(f"legal: {_yes(report.legal)}")
        if not report.legal:
            print(f"reason: {report.reason}")
            return EXIT_NEGATIVE
        return EXIT_OK
    M = apply_move(K, move)
    _emit(args, "result.cx", dumps_complex(M), (str(M.f_vector()),))
    return EXIT_OK


def _cmd_replay(args):
    t = load_transcript(args.transcript)
    M = apply_transcript(load_complex(args.complex), t)
    _emit(args, "result.cx", dumps_complex(M),
          (f"moves = {len(t)}", str(M.f_vector())))
    return EXIT_OK


def _cmd_invert(args):
    t = load_transcript(args.transcript)
    _emit(args, "inverse.tr", dumps_transcript(invert_transcript(t)),
          (f"moves = {len(t)}",))
    return EXIT_OK


def _cmd_derive(args):
    K = load_complex(args.complex)
    t = derived_subdivision_transcript(K)
    if args.out:
        M = apply_transcript(K, t)
        print(f"moves = {len(t)}")
        print(M.f_vector())
        _write_artifact(args.out, "derived.tr", dumps_transcript(t))
        _write_artifact(args.out, "derived.cx", dumps_complex(M))
    else:
        sys.stdout.write(dumps_transcript(t))
    return EXIT_OK


def _cmd_expand_star(args):
    K = load_complex(args.complex)
    A = parse_simplex(args.simplex)
    t = star_move_transcript(K, A, budget=args.budget, at=args.vertex)
    _emit(args, "expansion.tr", dumps_transcript(t), (f"moves = {len(t)}",))
    return EXIT_OK


def _cmd_expand_exchange(args):
    K = load_complex(args.complex)
    A = parse_simplex(args.simplex_a)
    B = parse_simplex(args.simplex_b)
    t = expand_exchange(K, A, B, budget=args.budget)
    _emit(args, "expansion.tr", dumps_transcript(t), (f"moves = {len(t)}",))
    return EXIT_OK


def _cmd_reduce(args):
    K = load_complex(args.complex)
    best, trail = reduce_complex(K, _schedule(args))
    print(f"initial: {K.f_vector()}")
    print(f"final: {best.f_vector()}")
    print(f"moves = {len(trail)}")
    done = is_simplex_boundary(best)
    print(f"simplex boundary: {_yes(done)}")
    if args.out:
        _write_artifact(args.out, "reduced.cx", dumps_complex(best))
        _write_artifact(args.out, "reduction.tr", dumps_transcript(trail))
    return EXIT_OK if done else EXIT_UNKNOWN


def _cmd_prove_equiv(args):
    K1 = load_complex(args.left)
    K2 = load_complex(args.right)
    schedule = _schedule(args)
    reason, cert = _equivalence(K1, K2, schedule)
    if reason is not None:
        print("equivalent: no")
        print(f"reason: {reason}")
        return EXIT_NEGATIVE
    if cert is None:
        print("equivalent: unknown")
        print("path: annealing")
        print(f"reason: no certificate within {schedule.max_moves} moves "
              f"(seed {schedule.seed})")
        return EXIT_UNKNOWN
    print("equivalent: yes")
    print(f"path: {cert.path}")
    print(f"left moves = {len(cert.transcript1)}")
    print(f"right moves = {len(cert.transcript2)}")
    print(_map_line(cert.bijection))
    if args.out:
        _write_artifact(args.out, "left.tr", dumps_transcript(cert.transcript1))
        _write_artifact(args.out, "right.tr", dumps_transcript(cert.transcript2))
    return EXIT_OK


def _shelling_text(sh):
    lines = []
    if sh.initial is not None:
        lines.append(f"# initial {fmt_simplex(sh.initial)}")
    lines.append(f"# terminal {fmt_simplex(sh.terminal)}")
    lines.extend(str(mv) for mv in sh.steps)
    return "\n".join(lines) + "\n"


def _cmd_shell_find(args):
    sh = find_shelling(load_complex(args.complex), budget=args.budget)
    if sh is None:
        print("no shelling exists")
        return EXIT_NEGATIVE
    report = [f"mode = {'sphere' if sh.initial is not None else 'ball'}",
              f"steps = {len(sh.steps)}"]
    if sh.initial is not None:
        report.append(f"initial = {fmt_simplex(sh.initial)}")
    report.append(f"terminal = {fmt_simplex(sh.terminal)}")
    _emit(args, "shelling.tr", _shelling_text(sh), report)
    return EXIT_OK


def _cmd_iso(args):
    K1 = load_complex(args.left)
    K2 = load_complex(args.right)
    mapping = isomorphic(K1, K2, budget=args.budget)
    if mapping is None:
        print("isomorphic: no")
        return EXIT_NEGATIVE
    print("isomorphic: yes")
    print(_map_line(sorted(mapping.items())))
    return EXIT_OK


# -- parser ---------------------------------------------------------------


@functools.cache
def _build_parser():
    parser = _Parser(prog="pachner",
                     description="move calculus on simplicial complexes")
    sub = parser.add_subparsers(dest="subcommand", required=True,
                                metavar="SUBCOMMAND")

    def command(name, func, blurb):
        q = sub.add_parser(name, help=blurb, description=blurb)
        q.set_defaults(func=func)
        return q

    def out_flag(q):
        q.add_argument("--out", metavar="DIR",
                       help="write artifacts into DIR under fixed names")

    def schedule_flags(q):
        q.add_argument("--seed", type=int, default=_DEFAULT_SCHEDULE.seed,
                       help="search seed (default %(default)s)")
        q.add_argument("--max-moves", type=_budget,
                       default=_DEFAULT_SCHEDULE.max_moves,
                       help="annealing move budget (default %(default)s)")
        q.add_argument("--temp", type=_finite, default=_DEFAULT_SCHEDULE.temp,
                       help="starting temperature (default %(default)s)")
        q.add_argument("--decay", type=_finite, default=_DEFAULT_SCHEDULE.decay,
                       help="cooling factor per accepted move "
                            "(default %(default)s)")

    q = command("validate", _cmd_validate,
                "structure report, manifold check, ball/sphere recognition")
    q.add_argument("complex", help="facet file")
    q.add_argument("--budget", type=_budget, default=DEFAULT_SHELLING_BUDGET,
                   help="shelling-search node budget of each recognition "
                   "(default %(default)s)")
    q.add_argument("--all-links", action="store_true",
                   help="probe the link of every face, not just vertices")
    out_flag(q)

    q = command("fvec", _cmd_fvec, "face counts and Euler characteristic")
    q.add_argument("complex", help="facet file")

    q = command("homology", _cmd_homology, "exact integral homology")
    q.add_argument("complex", help="facet file")
    q.add_argument("--max-cells", type=_budget, default=DEFAULT_MAX_CELLS,
                   help="face-count ceiling (default %(default)s)")

    q = command("link", _cmd_link, "link of a simplex")
    q.add_argument("complex", help="facet file")
    q.add_argument("--simplex", required=True, metavar="'V0 V1 ...'",
                   help="vertex labels, space-separated")
    out_flag(q)

    q = command("star", _cmd_star, "closed star of a simplex")
    q.add_argument("complex", help="facet file")
    q.add_argument("--simplex", required=True, metavar="'V0 V1 ...'",
                   help="vertex labels, space-separated")
    out_flag(q)

    q = command("boundary", _cmd_boundary, "boundary complex")
    q.add_argument("complex", help="facet file")
    out_flag(q)

    q = command("move", _cmd_move, "apply (or just check) a single move")
    q.add_argument("complex", help="facet file")
    q.add_argument("--apply", required=True, metavar="MOVE",
                   help="one move line, e.g. 'STAR [0 1 2] 4'")
    q.add_argument("--check", action="store_true",
                   help="report legality without applying")
    out_flag(q)

    q = command("replay", _cmd_replay, "apply a transcript to a complex")
    q.add_argument("transcript", help="transcript file")
    q.add_argument("complex", help="facet file")
    out_flag(q)

    q = command("invert", _cmd_invert, "invert a transcript")
    q.add_argument("transcript", help="transcript file")
    out_flag(q)

    q = command("derive", _cmd_derive,
                "first derived subdivision as a starring transcript")
    q.add_argument("complex", help="facet file")
    out_flag(q)

    q = command("expand-star", _cmd_expand_star,
                "compile one starring into bistellar moves")
    q.add_argument("complex", help="facet file")
    q.add_argument("--simplex", required=True, metavar="'V0 V1 ...'",
                   help="simplex to star")
    q.add_argument("--vertex", type=_budget, default=None,
                   help="label for the new vertex (default: fresh)")
    q.add_argument("--budget", type=_budget, default=DEFAULT_EXPANSION_BUDGET,
                   help="shelling budget (default %(default)s)")
    out_flag(q)

    q = command("expand-exchange", _cmd_expand_exchange,
                "compile one stellar exchange into bistellar moves")
    q.add_argument("complex", help="facet file")
    q.add_argument("--simplex-a", required=True, metavar="'V0 V1 ...'",
                   help="simplex removed by the exchange")
    q.add_argument("--simplex-b", required=True, metavar="'V0 V1 ...'",
                   help="simplex introduced by the exchange")
    q.add_argument("--budget", type=_budget, default=DEFAULT_EXPANSION_BUDGET,
                   help="shelling-search nodes per link core, and exchange "
                   "squares (default %(default)s)")
    out_flag(q)

    q = command("reduce", _cmd_reduce,
                "seeded annealing toward a minimal bistellar representative")
    q.add_argument("complex", help="facet file")
    schedule_flags(q)
    out_flag(q)

    q = command("prove-equiv", _cmd_prove_equiv,
                "equivalence certificate: shellings, else annealing")
    q.add_argument("left", help="facet file")
    q.add_argument("right", help="facet file")
    schedule_flags(q)
    out_flag(q)

    q = command("shell-find", _cmd_shell_find, "search for a shelling")
    q.add_argument("complex", help="facet file")
    q.add_argument("--budget", type=_budget, default=DEFAULT_SHELLING_BUDGET,
                   help="backtracking budget (default %(default)s)")
    out_flag(q)

    q = command("iso", _cmd_iso, "decide isomorphism of two complexes")
    q.add_argument("left", help="facet file")
    q.add_argument("right", help="facet file")
    q.add_argument("--budget", type=_budget, default=DEFAULT_ISO_BUDGET,
                   help="assignment budget (default %(default)s)")

    return parser


def main(argv=None):
    # One parser serves every call in a process: building it costs more
    # than many commands.  parse_args fills a fresh Namespace each time,
    # and each _cmd_* looks up the library names when it runs.
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MalformedSimplexError, TranscriptParseError) as exc:
        return _fail(exc, EXIT_BAD_INPUT)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except RuntimeError as exc:
        # budget exhaustion, a search route that found nothing, the
        # recursion limit, or an internal fault
        return _fail(exc, EXIT_UNKNOWN)
    except (AbsentSimplexError, IllegalMoveError, IllegalAtStepError,
            NotPseudomanifoldError, JoinCollisionError,
            NoExpansionError) as exc:
        # a named disproof; any other ValueError is a fault
        return _fail(exc, EXIT_NEGATIVE)
    except Exception:
        # a fault, not a verdict: uncaught, Python would exit 1, "no"
        print("internal error", file=sys.stderr)
        traceback.print_exc()
        return EXIT_UNKNOWN


if __name__ == "__main__":
    sys.exit(main())
