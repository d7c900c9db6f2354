"""Benchmark of the `pachner` library and CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload flip --seed 1 --seconds 30 --trace 0

The benchmark imports `pachner` from the checkout's `src/` directory,
builds the workload's inputs from the seed (several times, to time the
set-up), then runs passes over the workload's requests until the time
is up.  Every output of the first pass is checked against a known
answer; later passes must repeat it byte for byte.  The last line of
standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end numbers of untraced
passes, with times in reference seconds (see `calibrate.py`).  With
`--trace 1` one untraced pass is followed by traced passes, and the
metrics are per-layer call counts, self times and derived counters
(see `tracing.py`).  See README.md for the workloads
and what each metric is expected to show.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import calibrate
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = (3, 25)   # at least, at most
SETUP_SECONDS = 1.0       # repeat cheap set-ups until this much is spent
MIN_PASSES = 3


def percentile(values, p):
    """The p-th percentile with linear interpolation between samples
    (the 'inclusive' method of statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def import_pachner():
    """Import the library from this checkout's sources only."""
    src = ROOT / "src"
    if not (src / "pachner" / "__init__.py").is_file():
        raise SystemExit(f"error: no pachner sources under {src}")
    sys.path.insert(0, str(src))
    import pachner
    import pachner.cli  # noqa: F401  (bound as pachner.cli)
    if Path(pachner.__file__).resolve().parent != (src / "pachner").resolve():
        raise SystemExit(f"error: imported pachner from {pachner.__file__}")
    return pachner


class Runner:
    """Runs passes of one workload and keeps the first pass's replies
    as the reference the later passes must repeat."""

    def __init__(self, pachner, requests, workdir, calibrator):
        self.pachner = pachner
        self.requests = requests
        self.workdir = workdir
        self.calibrator = calibrator
        self.reference = None
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self):
        """One pass, with a calibration unit before the first request and
        after the last (and, inside `Calibrator.interleaved`, one every
        INTERVAL_S in between).  Returns (pass seconds, [(request,
        seconds, reference seconds, reply)]); the pass time is the sum of
        the request latencies, each without the units that interrupted
        it."""
        cli_main = self.pachner.cli.main
        calibrator = self.calibrator
        base = os.path.join(self.workdir, f"pass{self.passes}")
        dirs = [os.path.join(base, str(i)) for i in range(len(self.requests))]
        calibrator.run()
        timed = [req.execute(cli_main, d)
                 for req, d in zip(self.requests, dirs)]
        if not calibrator.covered(timed[-1][1]):
            calibrator.run()
        rows = []
        for req, d, (start, end, reply) in zip(self.requests, dirs, timed):
            req.collect(reply, d)
            seconds = calibrator.seconds(start, end)
            rows.append((req, seconds,
                         calibrator.scale(seconds, start, end), reply))
        shutil.rmtree(base, ignore_errors=True)
        self._verify(rows)
        self.passes += 1
        return sum(row[1] for row in rows), rows

    def _verify(self, rows):
        first = self.reference is None
        if first:
            self.reference = [reply.key() for *_, reply in rows]
        for i, (req, *_, reply) in enumerate(rows):
            self.attempted += 1
            problem = self._problem(req, reply, None if first
                                    else self.reference[i])
            if problem:
                self.failed += 1
                if len(self.problems) < 10:
                    self.problems.append(f"{req.group}: {problem}")

    @staticmethod
    def _problem(req, reply, reference):
        if reply.code is None:
            return f"raised {reply.error}"
        if reply.code not in req.expected:
            return f"exit {reply.code}, expected {sorted(req.expected)}"
        if reference is not None:
            return None if reply.key() == reference else "output differs " \
                "from the first pass"
        try:
            req.check(reply)
        except Exception as exc:  # any failed check, reported not raised
            return f"check failed: {type(exc).__name__}: {exc}"
        return None


def set_up(pachner, workload, seed, workdir, calibrator):
    """Build the inputs at least three times and until SETUP_SECONDS are
    spent, each between two calibration units, with the timer's units
    in between; keep the last requests.  Returns them with the median
    set-up time in reference seconds."""
    times, spent = [], 0.0
    least, most = SETUP_REPEATS
    with calibrator.interleaved():
        while len(times) < most and (len(times) < least
                                     or spent < SETUP_SECONDS):
            calibrator.run()
            target = os.path.join(workdir, f"setup{len(times)}")
            start = time.perf_counter()
            requests = workloads.WORKLOADS[workload](pachner, seed, target)
            end = time.perf_counter()
            calibrator.run()
            seconds = calibrator.seconds(start, end)
            spent += seconds
            times.append(calibrator.scale(seconds, start, end))
            shutil.rmtree(os.path.join(workdir, f"setup{len(times) - 2}"),
                          ignore_errors=True)
    return requests, statistics.median(times)


def measure(runner, seconds):
    """Untraced passes, with the calibration timer on, until `seconds`
    are spent (at least MIN_PASSES).  Returns each pass's time, each
    request's latencies (one list per request, one entry per pass), all
    in reference seconds, and every exit code."""
    deadline = time.perf_counter() + seconds
    walls, codes = [], []
    latencies = [[] for _ in runner.requests]
    with runner.calibrator.interleaved():
        while True:
            wall, rows = runner.run_pass()
            walls.append(sum(row[2] for row in rows))
            for samples, (_, _, s, reply) in zip(latencies, rows):
                samples.append(s)
                codes.append(reply.code)
            if (runner.passes >= MIN_PASSES
                    and time.perf_counter() + wall > deadline):
                return walls, latencies, codes


def end_to_end(runner, seconds, setup_s):
    """Times are medians in reference seconds, each request and set-up
    scaled by the calibration units that bracket it.  Latency
    percentiles are taken over the requests of a pass, each
    contributing its median latency across passes, so the sample count
    does not depend on how many passes fit in the time."""
    walls, latencies, codes = measure(runner, seconds)
    typical = [statistics.median(samples) for samples in latencies]
    decided = sum(1 for c in codes if c in (0, 1))
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "latency_p50_s": (percentile(typical, 50), "s"),
        "latency_p99_s": (percentile(typical, 99), "s"),
        "decided_ratio": (decided / len(codes), "ratio"),
        "ok_ratio": (1 - runner.failed / runner.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    info = {"passes": runner.passes, "latency_samples": len(typical),
            "speed_factor": runner.calibrator.factor(),
            "pass_seconds": walls}
    return metrics, info


def per_layer(runner, seconds):
    """MIN_PASSES untraced passes, then traced passes until `seconds`
    are spent, all without the calibration timer, so that no unit runs
    inside a span.  Counts come from the first traced pass; times are
    medians in measured seconds."""
    deadline = time.perf_counter() + seconds
    untraced = []
    for _ in range(MIN_PASSES):
        wall, rows = runner.run_pass()
        untraced.append(wall)
    print_table(rows)
    tracer = tracing.Tracer(runner.pachner)
    walls, times, counts, ratios = [], [], None, None
    tracer.install()
    try:
        while True:
            tracer.reset()
            wall, _ = runner.run_pass()
            counted, derived, spans = tracer.snapshot()
            walls.append(wall)
            times.append(dict(spans, **{
                "unwrapped.self_s": wall - tracer.top_level_s}))
            if counts is None:
                counts, ratios = counted, derived
            if time.perf_counter() + wall > deadline:
                break
    finally:
        tracer.restore()
    traced = statistics.median(walls)
    metrics = {name: (value, "count") for name, value in counts.items()}
    metrics.update({name: (value, "ratio") for name, value in ratios.items()})
    metrics.update({name: (statistics.median(t[name] for t in times), "s")
                    for name in times[0]})
    metrics["trace.wall_s"] = (traced, "s")
    metrics["trace.overhead_s"] = (traced - statistics.median(untraced), "s")
    return metrics, {"passes": runner.passes, "traced_passes": len(walls)}


def print_table(rows):
    """Per-request exit codes and seconds of one untraced pass, grouped
    by request kind."""
    groups = {}
    for req, seconds, _, reply in rows:
        g = groups.setdefault(req.group, [[], {}])
        g[0].append(seconds)
        g[1][reply.code] = g[1].get(reply.code, 0) + 1
    print(f"# {'request':<30} {'n':>5} {'exit codes':<16} "
          f"{'total s':>9} {'max s':>9}")
    for name, (secs, codes) in groups.items():
        exits = ",".join(f"{c}x{n}" for c, n in sorted(
            codes.items(), key=lambda kv: str(kv[0])))
        print(f"# {name:<30} {len(secs):>5} {exits:<16} "
              f"{sum(secs):>9.4f} {max(secs):>9.4f}")


def peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pachner = import_pachner()
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        calibrator = calibrate.Calibrator()
        requests, setup_s = set_up(pachner, args.workload, args.seed,
                                   str(workdir), calibrator)
        runner = Runner(pachner, requests, str(workdir), calibrator)
        if args.trace:
            metrics, info = per_layer(runner, args.seconds)
        else:
            metrics, info = end_to_end(runner, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            workdir.parent.rmdir()
    info.update(workload=args.workload, seed=args.seed,
                python=platform.python_version(),
                nproc=len(os.sched_getaffinity(0)),
                requests_per_pass=len(requests))
    print("# run " + json.dumps(info, sort_keys=True))
    for problem in runner.problems:
        print(f"# FAILED {problem}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
