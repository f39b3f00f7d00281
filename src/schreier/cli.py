"""Command line front end.

Exit codes: 0 on success, 1 when the math says no (a word outside the
stabilizer, a failed invariant), 2 for unusable input (bad word syntax,
malformed action files, missing files), 141 when the reader of stdout
closed it early, as in ``schreier basis file | head -n 1``.

Every subcommand accepts ``--format structured`` to emit JSON lines
instead of the plain text described in the README.
"""

import argparse
import json
import os
import sys

from . import words
from .actions import (
    ActionParseError,
    evaluate,
    format_action_text,
    perm_of_word,
    read_action_file,
)
from .basis import _pairs, compute_basis, degenerate_count
from .checks import run_checks
from .cosets import _texts, build_table, coset_of
from .induce import haction_from_action, induce
from .rewrite import NotInSubgroupError, expand, rewrite
from .words import Alphabet, WordParseError

__all__ = ["main"]

_GREEN = "32"
_RED = "31"


def _color_enabled() -> bool:
    if os.environ.get("SCHREIER_COLOR") == "0":
        return False
    return sys.stdout.isatty()


def _paint(text: str, code: str) -> str:
    if not _color_enabled():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _alphabet_from_spec(spec: str) -> Alphabet:
    names = [name for chunk in spec.split(",") for name in chunk.split()]
    if not names:
        raise WordParseError("no generator names given")
    return Alphabet(tuple(names))


def _load_action(args):
    act = read_action_file(args.action_file)
    if getattr(args, "generators", None):
        print("warning: generator names come from the action file; ignoring -g", file=sys.stderr)
    return act


def _setup(args):
    act = _load_action(args)
    table, transversal = build_table(act, args.base)
    return act, table, transversal


def _out(args, record: dict, plain: str) -> None:
    """Print one JSON record under ``--format structured``, else the plain text."""
    print(json.dumps(record) if args.format == "structured" else plain)


def _cmd_reduce(args) -> int:
    w = str(words.parse(args.word, _alphabet_from_spec(args.generators)))
    _out(args, {"word": w}, w)
    return 0


def _cmd_act(args) -> int:
    act = read_action_file(args.action_file)
    w = words.parse(args.word, act.alphabet)
    if args.point is not None:
        image = evaluate(act, args.point, w)
        _out(args, {"point": args.point, "image": image}, str(image))
    else:
        images = perm_of_word(act, w).images
        _out(args, {"images": list(images)}, " ".join(map(str, images)))
    return 0


def _cmd_transversal(args) -> int:
    _, table, transversal = _setup(args)
    for c, r in enumerate(_texts(table, transversal)[0]):
        _out(args, {"coset": c, "rep": r}, f"{c} {r}")
    return 0


def _cmd_basis(args) -> int:
    act, table, transversal = _setup(args)
    basis = compute_basis(table, transversal)
    cosets, gens = _pairs(basis)
    reps, basis_words = _texts(table, transversal, zip(cosets, gens))
    for k, (c, g, word) in enumerate(zip(cosets, gens, basis_words)):
        t, name = reps[c], act.alphabet.names[g]
        _out(args, {"index": k, "rep": t, "generator": name, "word": word}, f"{k} {t} {name} {word}")
    count, degenerate = len(cosets), degenerate_count(basis)
    expected = 1 + table.num_cosets * (len(act.alphabet) - 1)
    _out(args, {"count": count, "expected": expected, "degenerate": degenerate},
         f"count {count} expected {expected} degenerate {degenerate}")
    return 0


def _cmd_member(args) -> int:
    act, table, _ = _setup(args)
    c = coset_of(table, words.parse(args.word, act.alphabet))
    if c == 0:
        _out(args, {"member": True}, _paint("yes", _GREEN))
        return 0
    _out(args, {"member": False, "final_coset": c}, f"{_paint('no', _RED)} {c}")
    return 1


def _cmd_rewrite(args) -> int:
    act, table, transversal = _setup(args)
    basis = compute_basis(table, transversal)
    bw = rewrite(table, transversal, basis, words.parse(args.word, act.alphabet))
    tokens = " ".join(f"b{k}" if s > 0 else f"b{k}^-1" for k, s in bw.factors) or "1"
    expanded = str(expand(basis, bw))
    _out(args, {"factors": [[k, s] for k, s in bw.factors], "tokens": tokens, "expanded": expanded},
         f"{tokens}\nexpanded: {expanded}")
    return 0


def _cmd_induce(args) -> int:
    _, table, transversal = _setup(args)
    basis = compute_basis(table, transversal)
    sigma = haction_from_action(read_action_file(args.h_action_file), basis)
    act = induce(sigma, table, transversal, basis).base
    names = act.alphabet.names
    _out(args, {"degree": act.degree, "generators": list(names),
                "perms": {name: list(p.images) for name, p in zip(names, act.gen_perms)}},
         format_action_text(act).rstrip("\n"))
    return 0


def _cmd_check(args) -> int:
    act = _load_action(args)
    results = run_checks(act, basepoint=args.base, max_len=args.max_len,
                         seed=args.seed, trials=args.trials)
    for r in results:
        verdict = _paint("pass", _GREEN) if r.passed else _paint("fail", _RED)
        suffix = f" ({r.detail})" if r.detail else ""
        _out(args, {"name": r.name, "passed": r.passed, "detail": r.detail}, f"{verdict} {r.name}{suffix}")
    failed = sum(1 for r in results if not r.passed)
    passed = len(results) - failed
    _out(args, {"checked": len(results), "passed": passed, "failed": failed},
         f"checked {len(results)} invariants: {passed} passed, {failed} failed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schreier",
        description="Schreier transversals, stabilizer bases, and induced actions "
                    "for free groups acting on finite sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("plain", "structured"), default="plain",
                     help="plain text or JSON lines (default plain)")

    filed = argparse.ArgumentParser(add_help=False)
    filed.add_argument("action_file", help="permutation action file")
    filed.add_argument("--base", type=int, default=0, help="basepoint (default 0)")
    filed.add_argument("-g", "--generators",
                       help="ignored; generator names come from the action file")

    p = sub.add_parser("reduce", parents=[fmt], help="freely reduce a word")
    p.add_argument("-g", "--generators", required=True,
                   help="comma or space separated generator names, e.g. 'x,y'")
    p.add_argument("word", help="word to reduce, e.g. 'x y^-1 y x^2'")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("act", parents=[fmt],
                       help="apply a word to a point, or print its permutation")
    p.add_argument("action_file", help="permutation action file")
    p.add_argument("word")
    p.add_argument("--point", type=int, default=None,
                   help="print the image of this point instead of the whole permutation")
    p.set_defaults(func=_cmd_act)

    p = sub.add_parser("transversal", parents=[filed, fmt],
                       help="print the shortlex coset representatives")
    p.set_defaults(func=_cmd_transversal)

    p = sub.add_parser("basis", parents=[filed, fmt],
                       help="print the free basis of the basepoint stabilizer")
    p.set_defaults(func=_cmd_basis)

    p = sub.add_parser("member", parents=[filed, fmt],
                       help="test whether a word stabilizes the basepoint")
    p.add_argument("word")
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("rewrite", parents=[filed, fmt],
                       help="rewrite a stabilizer element over the basis")
    p.add_argument("word")
    p.set_defaults(func=_cmd_rewrite)

    p = sub.add_parser("induce", parents=[filed, fmt],
                       help="induce an action of the whole group from one of the stabilizer")
    p.add_argument("h_action_file",
                   help="action file over the basis generators b0, b1, ...")
    p.set_defaults(func=_cmd_induce)

    p = sub.add_parser("check", parents=[filed, fmt], help="run the invariant suite")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--trials", type=int, default=200,
                   help="random trials per invariant (default 200)")
    p.add_argument("--len", type=int, default=5, dest="max_len",
                   help="maximum word length for random and exhaustive scans (default 5)")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that closed the pipe early shows here, not in the exit flush
        return code
    except BrokenPipeError:
        # Stop as a shell reports a command stopped by SIGPIPE, 128 + 13, and send what is
        # still buffered to devnull, so the interpreter's exit flush stays silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except NotInSubgroupError as exc:
        print(f"error: not in the subgroup (final coset {exc.final_coset})", file=sys.stderr)
        return 1
    except (WordParseError, ActionParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
