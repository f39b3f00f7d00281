"""Benchmark of the schreier library and CLI on four seeded workloads.

Run from the repository root:

    python3 bench/run.py --workload random_wide --seed 1 --seconds 30 --trace 0

One run repeats rounds until ``--seconds`` are used up, and at least
``MIN_ROUNDS`` times.  With ``--trace 0`` a round is one pass of the
workload pipeline, from the action-file text to formatted text, then one
``schreier <cmd>`` subprocess on the same input; the run reports the
end-to-end metrics.  With ``--trace 1`` a round is one untraced pass and
one traced pass, in alternating order, then ``cli.main`` called
in-process; the run reports the per-layer metrics and writes its spans
to ``.bench_out/`` under the repository root.  Every output is checked in
both modes.  End-to-end timings are medians in reference seconds, which
take out changes in the machine's speed (see ``clock.py``); the report
also prints them in wall-clock seconds.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a human-readable report.  The exit code is 0 whenever a result is
printed, also when outputs were wrong, and 2 when the benchmark cannot
run at all.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

from inputs import Spec, make_inputs
from clock import Clock
from spans import NullTracer, Tracer, round_tables

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

MIN_ROUNDS = 2
DEFAULT_SEED = 0

# Why each workload exists is recorded in BENCHMARK.json.  Every pass
# ends with a closed loop of rewrite queries, so every workload reports
# the query metrics; rewrite_queries is the one made of queries alone.
WORKLOADS = {
    "random_wide": Spec("random_wide", dihedral=False, degree=1500, gens=4,
                        stages=("listing", "induce"), h_degree=4,
                        queries=200, query_len=(40, 60), cli="induce",
                        cli_reps=1, setup_reps=2),
    "long_cycle": Spec("long_cycle", dihedral=True, degree=500, gens=2,
                       stages=("listing", "induce"), h_degree=2,
                       queries=200, query_len=(40, 60), cli="basis",
                       cli_reps=1, setup_reps=1),
    "rewrite_queries": Spec("rewrite_queries", dihedral=False, degree=500, gens=2,
                            stages=(), h_degree=0,
                            queries=200, query_len=(50, 600), cli="rewrite",
                            cli_reps=5, setup_reps=10),
    "check_suite": Spec("check_suite", dihedral=False, degree=200, gens=2,
                        stages=("checks",), h_degree=0,
                        queries=200, query_len=(40, 60), cli="check",
                        cli_reps=1, setup_reps=10),
}

END_TO_END = {
    "setup_s": "s", "run_s": "s", "cli_s": "s",
    "query_p50_ms": "ms", "query_p95_ms": "ms", "queries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

CALLS = ("actions.parse_action_text", "cosets.build_table", "basis.compute_basis",
         "words.parse", "words.format_word", "rewrite.contains", "rewrite.rewrite",
         "rewrite.expand", "induce.induce", "induce.restrict_to_h",
         "actions.format_action_text", "checks.run_checks", "cli.main")
LAYERS = ("bench", "words", "actions", "cosets", "basis", "rewrite", "induce", "checks", "cli")
COUNTS = {"cosets.num_cosets": "count", "cosets.max_rep_len": "count",
          "cosets.total_rep_len": "count", "basis.size": "count", "basis.degenerate": "count",
          "basis.total_word_len": "count", "words.letters_parsed": "count",
          "words.chars_formatted": "count", "rewrite.factors": "count",
          "rewrite.member_frac": "ratio", "induce.degree": "count", "checks.passed": "count"}

PER_LAYER = {f"{c}_s": "s" for c in CALLS}
PER_LAYER.update({f"{layer}.{kind}_s": "s" for layer in LAYERS for kind in ("total", "self")})
PER_LAYER.update(COUNTS)
PER_LAYER["trace.overhead_s"] = "s"


def load_library():
    """Import ``schreier`` from this checkout's ``src``; None when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "schreier", "__init__.py")):
        return None
    sys.path.insert(0, SRC)
    import schreier
    if os.path.dirname(os.path.dirname(os.path.abspath(schreier.__file__))) != SRC:
        return None
    return schreier


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    commit = "unknown"
    try:
        # The ceiling keeps git from reporting an enclosing repository.
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)))
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    affinity = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu": cpu,
            "affinity": affinity, "commit": commit}


def expected_digest(spec: Spec, seed: int) -> str | None:
    """The recorded output digest, for the default seed at the committed sizes."""
    if seed != DEFAULT_SEED or WORKLOADS.get(spec.name) != spec:
        return None
    with open(os.path.join(BENCH, "expected.json"), encoding="utf-8") as fh:
        return json.load(fh)[spec.name]


class Run:
    """The state of one benchmark run: samples, the tally of checks, spans.

    Samples are raw ``(start, end)`` stamps; ``end_to_end`` scales them with
    the run's clock once the run is over.
    """

    def __init__(self, spec: Spec, seed: int):
        import pipeline  # needs load_library() to have put src on the path

        self.pipe = pipeline
        self.spec = spec
        self.inputs = make_inputs(spec, seed)
        self.tally = pipeline.Tally()
        self.expected = expected_digest(spec, seed)
        self.digest = None
        self.counts = None
        self.clock = Clock()
        self.setup_iv: list[tuple[float, float]] = []
        self.run_iv: list[tuple[float, float]] = []
        self.loop_iv: list[tuple[float, float]] = []
        self.query_iv: list[list[tuple[float, float]]] = [[] for _ in self.inputs.queries]
        self.cli_iv: list[tuple[float, float]] = []
        self.overhead_s: list[float] = []
        self.tracer = Tracer()

    def verify(self, p) -> None:
        self.pipe.check_pass(self.spec, self.inputs, p, self.tally)
        d = self.pipe.digest(p)
        if self.digest is None:
            self.digest = d
            self.counts = p.counts()
            if self.expected is not None:
                self.tally.check(d == self.expected, f"output digest {d} != recorded {self.expected}")
        else:
            self.tally.check(d == self.digest, "pass output differs from the first pass")

    def untraced_pass(self, checkpoint):
        p = self.pipe.run_pass(self.spec, self.inputs, NullTracer(), checkpoint)
        self.verify(p)
        self.setup_iv.append((p.start, p.setup_end))
        self.run_iv.append((p.start, p.end))
        self.loop_iv.append((p.loop_start, p.end))
        for samples, q in zip(self.query_iv, p.queries):
            samples.append((q.start, q.end))
        return p

    def cli_round(self, argv: list[str], workdir: str) -> None:
        clock = self.clock
        gc.collect()
        clock.calibrate()
        p = self.untraced_pass(clock.checkpoint)
        clock.calibrate()
        expected = p.cli_stdout(self.spec, self.inputs)
        del p
        for _ in range(self.spec.setup_reps):
            gc.collect()
            clock.calibrate()
            start, end, size = self.pipe.time_setup(self.inputs)
            if self.tally.check(size == self.counts["basis.size"], f"set-up gave {size} basis elements"):
                self.setup_iv.append((start, end))
        for _ in range(self.spec.cli_reps):
            clock.calibrate()
            start, end, code, stdout = self.pipe.run_cli(argv, SRC, workdir)
            if self.tally.check(code == 0 and stdout == expected,
                                f"schreier {self.spec.cli}: exit {code}, stdout differs: "
                                f"{stdout != expected}"):
                self.cli_iv.append((start, end))
        clock.calibrate()

    def traced_round(self, argv: list[str], untraced_first: bool) -> None:
        # Traced timings stay raw: one calibration a round only records the
        # machine's speed for the report.
        self.clock.calibrate()
        if untraced_first:
            gc.collect()
            p = self.untraced_pass(self.pipe.no_checkpoint)
            untraced_s = p.end - p.start
        gc.collect()
        with self.tracer.span("bench.round"):
            p = self.pipe.run_pass(self.spec, self.inputs, self.tracer)
            code, stdout = self.pipe.run_cli_in_process(argv, self.tracer)
        self.verify(p)
        self.tally.check(code == 0 and stdout == p.cli_stdout(self.spec, self.inputs),
                         f"cli.main {self.spec.cli}: exit {code} or stdout differs")
        traced_s = p.end - p.start
        del p
        if not untraced_first:
            gc.collect()
            p = self.untraced_pass(self.pipe.no_checkpoint)
            untraced_s = p.end - p.start
        self.overhead_s.append(traced_s - untraced_s)

    def measure(self, seconds: float, trace: bool) -> int:
        """Run rounds for about ``seconds``; returns the number of rounds."""
        with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as workdir:
            argv = self.pipe.write_inputs(self.spec, self.inputs, workdir)
            start = perf_counter()
            rounds = 0
            while True:
                try:
                    if trace:
                        self.traced_round(argv, untraced_first=rounds % 2 == 0)
                    else:
                        self.cli_round(argv, workdir)
                except Exception:  # a crash is a failed operation; the run goes on
                    traceback.print_exc()
                    self.tally.check(False, "unexpected exception")
                rounds += 1
                elapsed = perf_counter() - start
                if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds > seconds:
                    return rounds

    def end_to_end(self, seconds) -> dict[str, float]:
        """The end-to-end metrics, with ``seconds(start, end)`` as the length of a sample."""
        def med(intervals):
            return _median([seconds(a, b) for a, b in intervals])

        q = [med(samples) for samples in self.query_iv]
        loop = med(self.loop_iv)
        return {
            "setup_s": med(self.setup_iv),
            "run_s": med(self.run_iv),
            "cli_s": med(self.cli_iv),
            "query_p50_ms": statistics.median(q) * 1e3,
            "query_p95_ms": statistics.quantiles(q, n=20)[18] * 1e3,
            "queries_per_s": len(q) / loop if loop else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        tables = round_tables(self.tracer.spans, "bench.round")
        out = {}
        for c in CALLS:
            out[f"{c}_s"] = _min([t.get(c, 0.0) for t in tables])
        for layer in LAYERS:
            for kind in ("total", "self"):
                out[f"{layer}.{kind}_s"] = _min([t.get(f"{layer}.{kind}", 0.0) for t in tables])
        out.update(self.counts or {c: 0 for c in COUNTS})
        out["trace.overhead_s"] = _median(self.overhead_s)
        return out


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _min(values: list[float]) -> float:
    return min(values) if values else 0.0


def run(spec: Spec, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Measure one workload; returns the result object and the report lines."""
    r = Run(spec, seed)
    rounds = r.measure(seconds, trace)
    if trace:
        metrics, units = r.per_layer(), PER_LAYER
    else:
        metrics, units = r.end_to_end(r.clock.reference_seconds), END_TO_END
        wall = r.end_to_end(lambda a, b: b - a)
    result = {
        "correct": r.tally.failed == 0,
        "attempted": r.tally.attempted,
        "failed": r.tally.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    cal = r.clock.kernel_seconds()
    env = dict(environment(), workload=spec.name, seed=seed, trace=int(trace), rounds=rounds,
               calibration_ms={"min": min(cal) * 1e3, "median": statistics.median(cal) * 1e3,
                               "samples": len(cal)})
    lines = [f"env {json.dumps(env)}"]
    if trace:
        lines.append(f"{'metric':32} {'value':>16} {'unit':6} rounds")
        for k, unit in units.items():
            lines.append(f"{k:32} {metrics[k]:>16.6g} {unit:6} {len(r.overhead_s)}")
    else:
        passes = len(r.run_iv)
        queries = f"{len(r.query_iv)}x{passes}"
        samples = {"setup_s": len(r.setup_iv), "run_s": passes, "cli_s": len(r.cli_iv),
                   "query_p50_ms": queries, "query_p95_ms": queries, "queries_per_s": passes}
        lines.append(f"{'metric':32} {'value':>16} {'unit':6} {'samples':>8} {'wall':>12}")
        for k, unit in units.items():
            lines.append(f"{k:32} {metrics[k]:>16.6g} {unit:6} {samples.get(k, ''):>8} "
                         f"{wall[k]:>12.6g}")
    frac = r.tally.failed / r.tally.attempted
    lines.append(f"{'failed_frac':32} {frac:>16.6g} {'ratio':6} {r.tally.attempted}")
    lines.append(f"output_sha256 {r.digest}")
    lines += [f"FAILED {m}" for m in r.tally.messages[:20]]
    if trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        path = os.path.join(ROOT, ".bench_out", f"spans-{spec.name}-{seed}.jsonl")
        spans = r.tracer.spans
        r.tracer.write(path, spec.name, f"{spec.name}:{seed}:{os.getpid()}",
                       spans[0].start if spans else 0.0)
        lines.append(f"spans {os.path.relpath(path, ROOT)}")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        # -O strips the library's asserts, which users run with today.
        print("bench: refusing to run under python -O", file=sys.stderr)
        return 2
    if load_library() is None:
        print(f"bench: no schreier package under {SRC}", file=sys.stderr)
        return 2
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the run and the CLI processes it starts, so that the
        # calibrations measure the CPU that every timed sample ran on.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
