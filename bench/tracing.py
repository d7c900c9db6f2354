"""Spans around the library's public functions, installed from outside.

The modules bind each other's names with `from .x import y`, so one
function can be reachable under several module attributes (for
example `moves.enumerate_moves`, `recognize.enumerate_moves` and
`flipsearch.enumerate_moves`).  `Tracer.install` replaces the function
at every such binding site and `Tracer.restore` puts the originals
back.  Self time is a span's duration minus the time of the wrapped
spans it directly encloses.
"""

from __future__ import annotations

import functools
import time

# (module, attribute) of every traced function; its span is named
# "module.attribute".  Complex methods are looked up on the class.
TRACED = (
    ("core", "Complex.link"),
    ("core", "Complex.faces"),
    ("core", "Complex.boundary"),
    ("core", "Complex.from_facets"),
    ("core", "isomorphic"),
    ("core", "loads_complex"),
    ("core", "dumps_complex"),
    ("moves", "enumerate_moves"),
    ("moves", "check_move"),
    ("moves", "apply_move"),
    ("moves", "apply_transcript"),
    ("moves", "loads_transcript"),
    ("moves", "dumps_transcript"),
    ("recognize", "smith_normal_form"),
    ("recognize", "boundary_matrix"),
    ("recognize", "homology"),
    ("recognize", "find_shelling"),
    ("recognize", "recognize_ball_or_sphere"),
    ("flipsearch", "reduce"),
    ("flipsearch", "prove_equivalent"),
    ("expander", "star_move_transcript"),
    ("expander", "expand_exchange"),
    ("expander", "search_witness"),
    ("cli", "main"),
)

ENUMERATED_KINDS = ("bistellar", "shell")


def span_names():
    """Every span name a traced run can report, in TRACED order; the
    move enumeration is split by move family."""
    names = []
    for module, attr in TRACED:
        if attr == "enumerate_moves":
            names += [f"moves.enumerate_moves.{k}"
                      for k in ENUMERATED_KINDS + ("other",)]
        else:
            names.append(f"{module}.{attr}")
    return names


def _enumeration_span(args, kwargs):
    kind = kwargs["kind"] if "kind" in kwargs else args[1]
    return "moves.enumerate_moves." + (
        kind if kind in ENUMERATED_KINDS else "other")


class Tracer:
    """Per-span call counts and self time, plus the derived counters
    that need the arguments or results of a call."""

    def __init__(self, package):
        self._package = package
        self._installed = []        # (owner, attribute, original value)
        self._stack = []            # [span name, child seconds]
        self.calls = dict.fromkeys(span_names(), 0)
        self.self_s = dict.fromkeys(span_names(), 0.0)
        self.counters = dict.fromkeys((
            "moves.enumerate_moves.bistellar.returned",
            "flipsearch.reduce.proposals",
            "flipsearch.reduce.accepted",
            "moves.check_move.illegal",
            "recognize.smith_normal_form.cells",
        ), 0)
        self.top_level_s = 0.0

    def reset(self):
        """Zero every count and time; installed wrappers stay."""
        for table, zero in ((self.calls, 0), (self.self_s, 0.0),
                            (self.counters, 0)):
            for key in table:
                table[key] = zero
        self.top_level_s = 0.0

    # -- installation ---------------------------------------------------

    def install(self):
        modules = {name: getattr(self._package, name)
                   for name in ("core", "moves", "recognize", "flipsearch",
                                "expander", "cli")}
        binders = [self._package] + list(modules.values())
        try:
            for module_name, attr in TRACED:
                module = modules[module_name]
                if attr.startswith("Complex."):
                    self._wrap_method(module.Complex, attr.split(".")[1])
                    continue
                original = getattr(module, attr)
                wrapper = self._wrapper(original, f"{module_name}.{attr}")
                for binder in binders:
                    for name, value in list(vars(binder).items()):
                        if value is original:
                            self._set(binder, name, wrapper)
        except BaseException:
            self.restore()
            raise

    def _wrap_method(self, cls, name):
        raw = cls.__dict__[name]
        if isinstance(raw, staticmethod):
            wrapped = staticmethod(self._wrapper(raw.__func__,
                                                 f"core.Complex.{name}"))
        else:
            wrapped = self._wrapper(raw, f"core.Complex.{name}")
        self._set(cls, name, wrapped)

    def _set(self, owner, name, value):
        self._installed.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self):
        """Put back every original binding, newest first."""
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)

    # -- spans ------------------------------------------------------------

    def _wrapper(self, fn, name):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        observe = self._observer(name)
        naming = _enumeration_span if name == "moves.enumerate_moves" else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = naming(args, kwargs) if naming else name
            parent = stack[-1][0] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                calls[span] += 1
                self_s[span] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                else:
                    self.top_level_s += elapsed
            if observe:
                observe(span, parent, args, result)
            return result

        traced.__bench_traced__ = True
        return traced

    def _observer(self, name):
        counters = self.counters

        if name == "moves.enumerate_moves":
            def observe(span, parent, args, result):
                if span.endswith(".bistellar"):
                    counters["moves.enumerate_moves.bistellar.returned"] += (
                        len(result))
                    if parent == "flipsearch.reduce":
                        counters["flipsearch.reduce.proposals"] += 1
            return observe
        if name == "moves.apply_move":
            def observe(span, parent, args, result):
                if parent == "flipsearch.reduce":
                    counters["flipsearch.reduce.accepted"] += 1
            return observe
        if name == "moves.check_move":
            def observe(span, parent, args, result):
                if not result.legal:
                    counters["moves.check_move.illegal"] += 1
            return observe
        if name == "recognize.smith_normal_form":
            def observe(span, parent, args, result):
                rows = args[0]
                counters["recognize.smith_normal_form.cells"] += (
                    len(rows) * len(rows[0]) if rows else 0)
            return observe
        return None

    # -- report -------------------------------------------------------------

    def snapshot(self):
        """Counts (exact) and self times (seconds) since the last reset,
        with the derived ratios."""
        counts = {f"{n}.calls": c for n, c in self.calls.items()}
        counts.update(self.counters)
        c = self.counters
        ratios = {
            "flipsearch.reduce.accept_ratio": _ratio(
                c["flipsearch.reduce.accepted"],
                c["flipsearch.reduce.proposals"]),
            "moves.check_move.illegal_ratio": _ratio(
                c["moves.check_move.illegal"],
                self.calls["moves.check_move"]),
            "moves.check_per_apply": _ratio(
                self.calls["moves.check_move"],
                self.calls["moves.apply_move"]),
        }
        times = {f"{n}.self_s": s for n, s in self.self_s.items()}
        return counts, ratios, times


def _ratio(num, den):
    return num / den if den else 0.0
