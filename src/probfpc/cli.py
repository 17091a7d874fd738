"""Command-line front end.

Subcommands: check, probterm, compare, refine, examples {list, run}.
Exit codes: 0 success/Holds, 1 usage, file or type errors and inputs or
budgets that nest too deeply, 2 inconclusive (the deep checks are
semidecisions, so "don't know" must not look like either success or
refutation).  All probabilities print as exact fractions; the tables of
probterm and examples run take --approx for a 6-decimal rendering too.
JSON output is 2-space indented, written by `_dumps` without recursion.  A
refine trace nests one dict per fuel unit, so its size grows quadratically
in --fuel (ROADMAP item 1).
"""

import argparse
import json
import sys
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _esc

from .corpus import CATALOGUE, corpus
from .delay import eqlim_upto, probterm_seq
from .densem import STANDARD, STEP_FAITHFUL, Interp
from .opsem import Evaluator
from .parser import ParseError, load_file
from .rational import TooLongToPrint, exact_str, parse_nat, parse_rat
from .relate import RelateCfg, refine_check
from .syntax import UnitT, render_ty
from .typecheck import TypecheckError, elaborate

__all__ = ["main"]

# mode name -> delay tree of a well-typed term; `--mode` chooses from it
MODES = {"op": lambda t: Evaluator().eval(t),
         "den": lambda t: Interp(STANDARD).interp(t),
         "den-steps": lambda t: Interp(STEP_FAITHFUL).interp(t)}


def _delay_of(term, mode):
    return elaborate(term), MODES[mode](term)


def _dumps(doc):
    """`json.dumps(doc, indent=2)` from a stack of open containers, each with
    its item iterator, "," + indent separator and closer, built once."""
    out = []
    write = out.append
    stack = []
    items, keyed, sep, close, lead = iter((doc,)), False, ",\n", "", ""
    while True:
        for value in items:
            write(lead)
            lead = sep
            if keyed:
                key, value = value
                write(_esc(key) + ": ")     # a TypeError unless key is a str
            if type(value) is str:
                write(_esc(value))
            elif type(value) is int:
                write(int.__repr__(value))
            elif isinstance(value, (dict, list, tuple)) and value:
                stack.append((items, keyed, sep, close))
                keyed = isinstance(value, dict)
                items = iter(value.items() if keyed else value)
                close = sep[1:] + ("}" if keyed else "]")
                sep += "  "
                lead = sep[1:]
                write("{" if keyed else "[")
                break               # on with the new container's items
            else:                   # {}, [], true, false, null or a float
                write(json.dumps(value))
        else:                       # the container is done: back to its parent
            write(close)
            if not stack:
                return "".join(out)
            items, keyed, sep, close = stack.pop()
            lead = sep


class UsageError(Exception):
    """A bad command line: exit 1 with a `probfpc:` message."""


class _ArgParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _print_seq(seq, fmt, approx, out, head=""):
    # before any output, as it may fail; a repeated value object reuses its text
    texts, prev = [], None
    for v in seq:
        if v is not prev:
            text, prev = exact_str(v), v
        texts.append(text)
    out.write(head)
    if fmt == "json":
        doc = {"depths": list(range(len(seq))), "probterm": texts}
        if approx:
            doc["approx"] = ["%.6f" % float(v) for v in seq]
        out.write(_dumps(doc) + "\n")
        return
    out.write("depth  probterm%s\n" % ("  approx" if approx else ""))
    for n, (v, text) in enumerate(zip(seq, texts)):
        line = "%5d  %s" % (n, text)
        if approx:
            line += "  %.6f" % float(v)
        out.write(line + "\n")


def cmd_check(args, out):
    out.write(render_ty(elaborate(load_file(args.file))) + "\n")
    return 0


def cmd_probterm(args, out):
    _, d = _delay_of(load_file(args.file), args.mode)
    _print_seq(probterm_seq(d, args.depth), args.format, args.approx, out)
    return 0


def cmd_compare(args, out):
    mode_a = args.mode_a or args.mode
    mode_b = args.mode_b or args.mode
    ta = load_file(args.file_a)
    tb = load_file(args.file_b)
    ty_a, da = _delay_of(ta, mode_a)
    ty_b, db = _delay_of(tb, mode_b)
    if not isinstance(ty_a, UnitT) or not isinstance(ty_b, UnitT):
        raise TypecheckError("compare needs Unit programs, got %s and %s"
                             % (render_ty(ty_a), render_ty(ty_b)))
    fa = probterm_seq(da, args.depth)
    fb = probterm_seq(db, args.depth)
    ok = eqlim_upto(fa, fb, args.eps)
    doc = {"holds": ok, "eps": str(args.eps), "depth": args.depth,
           "mode_a": mode_a, "mode_b": mode_b,
           "max_a": exact_str(max(fa)), "max_b": exact_str(max(fb))}
    if args.format == "json":
        out.write(_dumps(doc) + "\n")
    else:
        out.write("%s at eps=%s, depth=%d (max %s vs %s)%s\n" % (
            "eqlim holds" if ok else "inconclusive", args.eps, args.depth,
            doc["max_a"], doc["max_b"],
            "" if ok else "; larger depth or eps may settle it"))
    return 0 if ok else 2


def cmd_refine(args, out):
    cfg = RelateCfg(fuel=args.fuel, horizon=args.horizon, eps=args.eps)
    verdict = refine_check(load_file(args.file_a), load_file(args.file_b), cfg)
    if args.format == "json":
        out.write(_dumps(verdict.to_json()) + "\n")
    else:
        head = "Holds" if verdict.holds else "Unknown"
        out.write("%s: %s (fuel=%d, horizon=%d, eps=%s)\n"
                  % (head, verdict.reason, args.fuel, args.horizon, args.eps))
        out.write(_dumps(verdict.trace) + "\n")
    return 0 if verdict.holds else 2


def cmd_examples(args, out):
    if args.what == "list":
        for name, blurb in CATALOGUE:
            out.write("%-14s %s\n" % (name, blurb))
        return 0
    try:
        term = corpus(args.name)
    except KeyError as e:
        raise UsageError(e.args[0]) from None
    except ValueError as e:
        raise UsageError("%s: %s" % (args.name, e)) from None
    except ParseError as e:
        # a bad type argument: its position inside the argument means nothing
        raise UsageError("%s: %s" % (args.name, e.msg)) from None
    ty, d = _delay_of(term, args.mode)
    _print_seq(probterm_seq(d, args.depth), args.format, args.approx, out,
               head="type: %s\n" % render_ty(ty))
    return 0


def _rat(text):
    try:
        v = parse_rat(text)
    except ValueError as e:     # a numeral too long says so, as in _nat
        msg = str(e)
        raise argparse.ArgumentTypeError(msg if msg.startswith("numeral")
                                         else "not a rational: %r" % text) from None
    if v < 0:
        raise argparse.ArgumentTypeError("eps must be >= 0")
    if v > 1:
        raise argparse.ArgumentTypeError("eps must be <= 1")
    try:
        exact_str(v)            # compare and refine print it
    except TooLongToPrint as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return v


def _nat(text):
    """A budget in ASCII digits, read by ``parse_nat``."""
    try:
        return parse_nat(text)
    except ValueError as e:
        negative = text[:1] == "-" and text[1:].isascii() and text[1:].isdigit()
        raise argparse.ArgumentTypeError("must be >= 0" if negative else str(e).replace(
            "not a natural", "not an integer")) from None


def _add_common(sp, depth=True, approx=False):
    if depth:
        sp.add_argument("--depth", type=_nat, default=64,
                        help="run depth for termination tables (default 64)")
    sp.add_argument("--format", choices=("table", "json"), default="table")
    if approx:
        sp.add_argument("--approx", action="store_true",
                        help="also print 6-decimal approximations")


@cache
def build_parser():
    """The command-line parser, built on the first call and then reused."""
    ap = _ArgParser(
        prog="probfpc",
        description="Workbench for a probabilistic language with recursive "
                    "types: typechecking, exact evaluation, termination "
                    "tables, semantics comparison, refinement checking.")
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("check", help="typecheck a .pfpc file, print its type")
    sp.add_argument("file")
    sp.set_defaults(fn=cmd_check)

    sp = sub.add_parser("probterm",
                        help="termination probabilities by run depth")
    sp.add_argument("file")
    sp.add_argument("--mode", choices=MODES, default="op")
    _add_common(sp, approx=True)
    sp.set_defaults(fn=cmd_probterm)

    sp = sub.add_parser("compare",
                        help="eqlim comparison of two Unit programs")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--mode", choices=MODES, default="op",
                    help="semantics for both sides unless overridden")
    sp.add_argument("--mode-a", choices=MODES, default=None)
    sp.add_argument("--mode-b", choices=MODES, default=None)
    sp.add_argument("--eps", type=_rat, default=Fraction(1, 1024))
    _add_common(sp)
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("refine",
                        help="bounded refinement check between two programs")
    sp.add_argument("file_a")
    sp.add_argument("file_b")
    sp.add_argument("--fuel", type=_nat, default=6)
    sp.add_argument("--horizon", type=_nat, default=64)
    sp.add_argument("--eps", type=_rat, default=Fraction(1, 1024))
    _add_common(sp, depth=False)
    sp.set_defaults(fn=cmd_refine)

    sp = sub.add_parser("examples", help="catalogue of built-in programs")
    ex = sp.add_subparsers(dest="what", required=True)
    lst = ex.add_parser("list")
    lst.set_defaults(fn=cmd_examples, what="list")
    run = ex.add_parser("run")
    run.add_argument("name", help="catalogue name, e.g. geo or id_hes(1/2,Nat)")
    run.add_argument("--mode", choices=MODES, default="op")
    _add_common(run, approx=True)
    run.set_defaults(fn=cmd_examples, what="run")

    return ap


def main(argv=None, out=None, err=None):
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args, out)
    except (UsageError, ParseError, TypecheckError, OSError, TooLongToPrint) as e:
        err.write("probfpc: %s\n" % e)
        return 1
    except RecursionError:
        err.write("probfpc: the input or a budget nests too deeply "
                  "for the interpreter's recursion limit\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
