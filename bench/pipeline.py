"""One pass of a workload through the library, and the checks on its output.

``run_pass`` makes only the calls a user's program or the CLI would make,
each through the tracer so that a traced pass records one span per call.
``check_pass`` then verifies the outputs outside the timed region.  Times
are kept as raw ``perf_counter`` stamps; ``clock.Clock`` turns them into
durations.  ``run_pass`` calls ``checkpoint`` between stages and between
queries, so that a clock can calibrate there.  Every
pass rebuilds every object from the action-file text, so no cached state
(inverse permutations, inverse transitions, alphabet positions) carries
over from one pass to the next.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

from schreier import cli
from schreier.actions import format_action_text, parse_action_text
from schreier.basis import compute_basis, degenerate_count
from schreier.checks import run_checks
from schreier.cosets import build_table, coset_of
from schreier.induce import haction_from_action, induce, restrict_to_h
from schreier.rewrite import NotInSubgroupError, contains, expand, rewrite
from schreier.words import format_word, parse

from inputs import Inputs, Spec


@dataclass
class Tally:
    """Checked operations: a wrong output or an unexpected exception fails one."""

    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)
        return ok


@dataclass
class QueryResult:
    start: float
    end: float
    word: object
    member: bool
    factors: tuple = ()
    expanded: object = None
    error: NotInSubgroupError | None = None
    text: str = ""


@dataclass
class Pass:
    start: float = 0.0
    setup_end: float = 0.0
    loop_start: float = 0.0
    end: float = 0.0
    table: object = None
    transversal: object = None
    basis: object = None
    degree: int = 0
    gens: int = 0
    listing: str = ""
    chars_formatted: int = 0
    sigma: object = None
    induced: object = None
    restricted: tuple = ()
    induced_text: str = ""
    check_results: list = field(default_factory=list)
    check_text: str = ""
    queries: list[QueryResult] = field(default_factory=list)

    def output(self) -> str:
        """Everything the pass printed, in order."""
        parts = [self.listing, self.induced_text, self.check_text]
        parts += [q.text + "\n" for q in self.queries]
        return "".join(parts)

    def cli_stdout(self, spec: Spec, inputs: Inputs) -> str:
        """What ``schreier <spec.cli>`` must print for the same input."""
        if spec.cli == "basis":
            return self.listing
        if spec.cli == "induce":
            return self.induced_text
        if spec.cli == "check":
            return self.check_text
        return self.queries[cli_query(inputs)].text + "\n"

    def counts(self) -> dict:
        """Sizes of the pass's objects; they depend only on the inputs."""
        reps = self.transversal.reps
        return {
            "cosets.num_cosets": self.table.num_cosets,
            "cosets.max_rep_len": max(len(r) for r in reps),
            "cosets.total_rep_len": sum(len(r) for r in reps),
            "basis.size": len(self.basis.elements),
            "basis.degenerate": degenerate_count(self.basis),
            "basis.total_word_len": sum(len(e.word) for e in self.basis.elements),
            "words.letters_parsed": sum(len(q.word) for q in self.queries),
            "words.chars_formatted": self.chars_formatted,
            "rewrite.factors": sum(len(q.factors) for q in self.queries),
            "rewrite.member_frac": sum(q.member for q in self.queries) / max(1, len(self.queries)),
            "induce.degree": self.induced.base.degree if self.induced is not None else 0,
            "checks.passed": sum(1 for r in self.check_results if r.passed),
        }

    def format(self, tr, w) -> str:
        text = tr.call("words.format_word", format_word, w)
        self.chars_formatted += len(text)
        return text


def cli_query(inputs: Inputs) -> int:
    """Index of the longest member query, the one ``schreier rewrite`` is given."""
    return max((i for i, q in enumerate(inputs.queries) if q.member),
               key=lambda i: len(inputs.queries[i].text))


def no_checkpoint() -> None:
    pass


def run_pass(spec: Spec, inputs: Inputs, tr, checkpoint=no_checkpoint) -> Pass:
    """Text in, formatted text out: set-up, the workload's stages, then queries."""
    out = Pass()
    with tr.span("bench.pass"):
        out.start = perf_counter()
        act = tr.call("actions.parse_action_text", parse_action_text, inputs.action_text)
        table, transversal = tr.call("cosets.build_table", build_table, act, 0)
        b = tr.call("basis.compute_basis", compute_basis, table, transversal)
        out.setup_end = perf_counter()
        checkpoint()
        out.table, out.transversal, out.basis = table, transversal, b
        out.degree, out.gens = act.degree, len(act.alphabet)

        if "listing" in spec.stages:
            lines = []
            names = act.alphabet.names
            for k, e in enumerate(b.elements):
                t = out.format(tr, transversal.reps[e.coset])
                lines.append(f"{k} {t} {names[e.gen]} {out.format(tr, e.word)}\n")
            m, n = table.num_cosets, len(names)
            degenerate = tr.call("basis.degenerate_count", degenerate_count, b)
            lines.append(f"count {len(b.elements)} expected {1 + m * (n - 1)} degenerate {degenerate}\n")
            out.listing = "".join(lines)
            checkpoint()

        if "induce" in spec.stages:
            h_act = tr.call("actions.parse_action_text", parse_action_text, inputs.h_text)
            sigma = tr.call("induce.haction_from_action", haction_from_action, h_act, b)
            ind = tr.call("induce.induce", induce, sigma, table, transversal, b)
            out.sigma, out.induced = sigma, ind
            out.restricted = tr.call("induce.restrict_to_h", restrict_to_h, ind, b)
            out.induced_text = tr.call("actions.format_action_text", format_action_text,
                                       ind.base)
            checkpoint()

        if "checks" in spec.stages:
            results = tr.call("checks.run_checks", run_checks, act)
            lines = []
            for r in results:
                suffix = f" ({r.detail})" if r.detail else ""
                lines.append(f"{'pass' if r.passed else 'fail'} {r.name}{suffix}\n")
            failed = sum(1 for r in results if not r.passed)
            lines.append(f"checked {len(results)} invariants: "
                         f"{len(results) - failed} passed, {failed} failed\n")
            out.check_results, out.check_text = results, "".join(lines)
            checkpoint()

        out.loop_start = perf_counter()
        for q in inputs.queries:
            checkpoint()
            out.queries.append(_query(tr, out, act.alphabet, table, transversal, b, q.text))
        out.end = perf_counter()
    return out


def time_setup(inputs: Inputs) -> tuple[float, float, int]:
    """Set up from the action-file text alone; returns the start, the end and the basis size."""
    start = perf_counter()
    table, transversal = build_table(parse_action_text(inputs.action_text), 0)
    b = compute_basis(table, transversal)
    return start, perf_counter(), len(b.elements)


def _query(tr, out: Pass, alphabet, table, transversal, b, text: str) -> QueryResult:
    """One closed-loop rewrite query: parse, contains, rewrite, expand, format."""
    with tr.span("bench.query"):
        start = perf_counter()
        w = tr.call("words.parse", parse, text, alphabet)
        member = tr.call("rewrite.contains", contains, table, w)
        try:
            bw = tr.call("rewrite.rewrite", rewrite, table, transversal, b, w)
        except NotInSubgroupError as exc:
            return QueryResult(start, perf_counter(), w, member, error=exc,
                               text=f"no {exc.final_coset}")
        expanded = tr.call("rewrite.expand", expand, b, bw)
        tokens = " ".join(f"b{k}" if s > 0 else f"b{k}^-1" for k, s in bw.factors)
        shown = out.format(tr, expanded)
        return QueryResult(start, perf_counter(), w, member, bw.factors, expanded,
                           text=f"{tokens or '1'}\nexpanded: {shown}")


def check_pass(spec: Spec, inputs: Inputs, p: Pass, tally: Tally) -> None:
    """Verify one pass's outputs; each failed check counts as a failed operation."""
    m, n = p.table.num_cosets, p.gens
    tally.check(m == p.degree, f"{m} cosets for a transitive action of degree {p.degree}")
    size = len(p.basis.elements)
    tally.check(size == 1 + m * (n - 1), f"basis has {size} elements, expected {1 + m * (n - 1)}")
    degenerate = degenerate_count(p.basis)
    tally.check(degenerate == m - 1, f"{degenerate} degenerate pairs, expected {m - 1}")
    if "induce" in spec.stages:
        tally.check(p.restricted == p.sigma.perms, "restrict_to_h(induce(sigma)) != sigma")
        tally.check(p.induced.base.degree == spec.h_degree * m,
                    f"induced degree {p.induced.base.degree}, expected {spec.h_degree * m}")
    if "checks" in spec.stages:
        failed = [r.name for r in p.check_results if not r.passed]
        tally.check(not failed, f"failed invariants: {failed}")
    for q, r in zip(inputs.queries, p.queries):
        tally.check(_query_ok(p, q, r), f"wrong answer for query {q.text[:40]!r}...")


def _query_ok(p: Pass, q, r: QueryResult) -> bool:
    if r.member != q.member:
        return False
    if q.member:
        return r.error is None and r.expanded == r.word and r.text.endswith(f"expanded: {q.text}")
    c = coset_of(p.table, r.word)
    return r.error is not None and r.error.final_coset == c != 0


def digest(p: Pass) -> str:
    return hashlib.sha256(p.output().encode()).hexdigest()


def write_inputs(spec: Spec, inputs: Inputs, workdir) -> list[str]:
    """Write the input files into ``workdir``; returns the CLI arguments."""
    act_path = os.path.join(workdir, "action.txt")
    with open(act_path, "w", encoding="utf-8") as fh:
        fh.write(inputs.action_text)
    argv = [spec.cli, act_path]
    if spec.cli == "rewrite":
        argv.append(inputs.queries[cli_query(inputs)].text)
    if spec.cli == "induce":
        h_path = os.path.join(workdir, "h_action.txt")
        with open(h_path, "w", encoding="utf-8") as fh:
            fh.write(inputs.h_text)
        argv.append(h_path)
    return argv


def run_cli(argv: list[str], src: str, workdir: str) -> tuple[float, float, int, str]:
    """Run ``schreier <argv>`` in a fresh interpreter; returns its start, its exit, its
    exit code and its standard output."""
    env = dict(os.environ, PYTHONPATH=src, SCHREIER_COLOR="0")
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "schreier", *argv], cwd=workdir, env=env,
                          capture_output=True, text=True, timeout=150)
    return start, perf_counter(), proc.returncode, proc.stdout


def run_cli_in_process(argv: list[str], tr) -> tuple[int, str]:
    """``cli.main(argv)`` in this process, with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = tr.call("cli.main", cli.main, argv)
    return code, buf.getvalue()
