"""Golden outputs: the exit code, stdout and stderr of about a hundred
command lines, pinned by SHA-1 in `golden_outputs.txt`.

A change that must keep every output byte-identical passes this table
unchanged.  A deliberate output change regenerates it with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_outputs.txt

and names the rows that changed, and why, in CHANGES.md.  The script
needs no pytest.

Arguments are written with two placeholders, `examples/` for the shipped
programs and `tmp/` for the inputs written below; labels keep the
placeholders, and outputs have the real directories replaced by them.
"""

import hashlib
import io
import os
import tempfile

from probfpc.cli import main
from probfpc.corpus import CATALOGUE

from genlib import unit_loop, walk_force_src

# the directories conftest names, found here: conftest imports pytest
TESTS = os.path.dirname(os.path.abspath(__file__))
EXAMPLES = os.path.join(os.path.dirname(TESTS), "examples")
TABLE = os.path.join(TESTS, "golden_outputs.txt")
MODES = ("op", "den", "den-steps")
FORMATS = ("table", "json")

# inputs of the exit-1 requests
BAD_FILES = {
    "ill_typed.pfpc": "fst *\n",
    "stray.pfpc": "suc ²\n",
    "empty.pfpc": "-- nothing here\n",
    "trailing.pfpc": "1 )\n",
    "parens.pfpc": "(" * 3000 + "0" + ")" * 3000 + "\n",
}

# values on both sides: refine short-cuts to the value relation, whose
# traces are the only outputs that print semantic values
VALUE_FILES = {
    "zero.pfpc": "0\n",
    "one.pfpc": "1\n",
    "star.pfpc": "*\n",
    "pair.pfpc": "(1, inl[Nat + Unit] 2)\n",
    "inl.pfpc": "inl[Nat + Unit] 0\n",
    "inr.pfpc": "inr[Nat + Unit] *\n",
    "fold.pfpc": "fold[(mu X. Nat)] 3\n",
    "lam_suc.pfpc": "fn x : Nat => suc x\n",
    "lam_id.pfpc": "fn x : Nat => x\n",
}

# one parser form each: `if`/`ifz` with a missing branch, the `[type]`
# annotations of `inl` and `fold`, and how `+`, `*` and `->` nest
PARSE_FILES = {
    "ifz_no_else.pfpc": "ifz 0 then 1\n",
    "if_no_then.pfpc": "if true 1 else 2\n",
    "inl_no_ty.pfpc": "inl 0\n",
    "fold_nat.pfpc": "fold[Nat] 0\n",
    "sum_no_rhs.pfpc": "fn x : Nat + => x\n",
    "nesting.pfpc": "fn x : Nat + Unit * Nat -> Nat * Nat + Unit => x\n",
}

# a zero denominator, which `parse_rat` reports as a bad literal
ZERO_DEN_FILES = {"zero_den.pfpc": "choice 1/0 0 1\n"}

# the lexer's edge cases: Unicode names, a superscript and a Roman numeral
# (numeric but not a letter), a comment that ends the input, CRLF, a tab,
# and decimals as a weight, after a weight and in term position
LEX_FILES = {
    "lex_name_accent.pfpc": "fn é : Nat => é\n",
    "lex_name_super.pfpc": "fn x² : Nat => x²\n",
    "lex_roman.pfpc": "Ⅷ\n",
    "lex_eof_comment.pfpc": "suc -- no argument",
    "lex_crlf.pfpc": "1\r\n)",
    "lex_tab.pfpc": "\t?",
    "lex_dec_weight.pfpc": "choice 0.25 1 2\n",
    "lex_dec_over.pfpc": "choice 0.5/2 1 2\n",
    "lex_dec_term.pfpc": "1.5\n",
}

# a pair pattern that binds one name twice
DUP_FILES = {"pattern_dup.pfpc": "case inr[Nat + Nat * Nat] (1, 2) of"
                                 " { inl a => a ; inr (n, n) => n }\n"}

# the den interpreter's sharing: a force-6 observer of the two-step walk,
# whose list cells are reached through different earlier cells; a let
# whose bound value the body ignores, so the body's closure can be shared;
# and a 90-deep let chain, which den mode interprets recursively
SHARE_FILES = {
    "randw2_force6.pfpc": walk_force_src(6),
    "fn_share.pfpc": "let a = choice 1/2 0 1 in (fn z : Nat => fn x : Nat => x) 0\n",
    "let90.pfpc": "".join("let x%d = %s in\n" % (i, "suc x%d" % (i - 1) if i else "0")
                          for i in range(90)) + "x89\n",
}

# terms whose let binders the parser leaves untyped: two functions whose
# inner lets differ only in binder type, and a closure that reaches its
# body through several beta steps, related to itself
UNTYPED_LET_FILES = {
    "letpair.pfpc":
        "let f = fn b : Unit + Unit => let y = b in"
        " case y of { inl u => * ; inr u => * } in\n"
        "let g = fn c : Unit + Nat => let y = c in"
        " case y of { inl u => * ; inr u => * } in\n"
        "choice 1/2 (f (inl[Unit + Unit] *)) (g (inl[Unit + Nat] *))\n",
    "closure2.pfpc":
        "fn x : Nat => (fn u : Unit => (fn g : Nat -> Nat =>"
        " (fn h : Nat -> Nat => choice 1/2 g h) g) (fn y : Nat => y))"
        " (unfold (fold[(mu X. Unit)] *))\n",
}

# a Unit loop that stops at each unfold with probability 1/3, entered
# after one step from either side of a choice: the two sides reach one
# thunk, so the root node is one entry of weight 1 built by adding 1/3
# and 2/3
MERGED_FILES = {
    "run_twice.pfpc": "def run = fn z : Unit => %s z ;\n"
                      "choice 1/3 (run *) (run *)\n" % unit_loop("1/3"),
}

# the hesitant identity with one more step before each retry, so a lifting
# against the identity comes back to a state it has seen every second level
with open(os.path.join(EXAMPLES, "id_hes.pfpc"), encoding="utf-8") as _fh:
    HES2_FILES = {"hes2.pfpc": _fh.read().replace(
        "choice 1/2 x (f x)",
        "choice 1/2 x (let u = unfold (fold[mu X. Unit] *) in f x)")}
assert "fold[mu X. Unit]" in HES2_FILES["hes2.pfpc"]

# the fair coin observed at Unit, diverging when it lands on false through
# diverge.pfpc's loop, so half its mass steps around a cycle of weight-1
# steps for ever; and two Unit loops that stop at different rates, whose
# pending thunks recur while their weights never keep one ratio
with open(os.path.join(EXAMPLES, "diverge.pfpc"), encoding="utf-8") as _fh:
    _OMEGA = _fh.read().replace("def Y =", "def Yu =").replace(
        "Y loop *\n", "def omega = Yu loop ;\n")
with open(os.path.join(EXAMPLES, "fair_harness.pfpc"), encoding="utf-8") as _fh:
    RECUR_FILES = {"fair_false.pfpc": _OMEGA + _fh.read().replace(
        "(fn b : Unit + Unit => *) (Y flip *)",
        "(fn q : Unit + Unit => if q then * else omega *) (Y flip *)")}
assert "def omega = Yu loop" in RECUR_FILES["fair_false.pfpc"]
assert "then * else omega *" in RECUR_FILES["fair_false.pfpc"]
RECUR_FILES["tworate.pfpc"] = "choice 1/2 (%s *) (%s *)\n" % (
    unit_loop("1/3"), unit_loop("1/5"))

# left sides whose levels merge deliveries as a Dist node merges entries:
# a loop that delivers one closure through two distinct Inl wrappers at
# every level, so the lifting's state recurs with both wrappers in it, and
# a loop with two pending branches per level whose children both deliver
# the argument
MERGE_FILES = {
    "closure_loop.pfpc":
        "def I = fn y : Nat => y ;\n"
        "def body = fn w : mu X. X -> Unit -> Nat -> Nat => fn n : Unit =>\n"
        "  (fn g : Nat -> Nat => (fn h : Nat -> Nat =>\n"
        "     choice 1/3 g (choice 1/2 h ((unfold w) w n))) g) I ;\n"
        "body (fold[mu X. X -> Unit -> Nat -> Nat] body) *\n",
    "twin_hes.pfpc":
        "def body = fn w : mu X. X -> Nat -> Nat => fn x : Nat =>\n"
        "  choice 1/3 x (choice 1/2 ((unfold w) w x)\n"
        "                           (let u = unfold (fold[mu X. Unit] *) in x)) ;\n"
        "fn n : Nat => body (fold[mu X. X -> Nat -> Nat] body) n\n",
}

# messages no other row reaches: the type checks that typecheck._agree
# makes, and the parser's missing name, probability and denominator
AGREE_FILES = {
    "agree_choice.pfpc": "choice 1/2 * 0\n",
    "agree_ifz.pfpc": "ifz 0 then * else 1\n",
    "agree_case.pfpc": "case inl[Nat + Unit] 0 of { inl x => x ; inr y => y }\n",
    "agree_arg.pfpc": "(fn x : Nat => x) *\n",
    "agree_inl.pfpc": "inl[Nat + Unit] *\n",
    "agree_fold.pfpc": "fold[(mu X. Nat)] *\n",
    "no_name.pfpc": "fn : Nat => 0\n",
    "no_prob.pfpc": "choice * 0 1\n",
    "no_den.pfpc": "choice 1/ * 0 1\n",
}

# functions of a sum and of a product, so a refine probes them with
# injections and pairs: a case against its choice 1/2 twin, and the first
# projection against itself and against the second
_CASE = "case x of { inl n => suc n ; inr u => 0 }"
PROBE_FILES = {
    "sum_case.pfpc": "fn x : Nat + Unit => %s\n" % _CASE,
    "sum_case_twin.pfpc": "fn x : Nat + Unit => choice 1/2 (%s) (%s)\n"
                          % (_CASE, _CASE),
    "prod_fst.pfpc": "fn p : Nat * Nat => fst p\n",
    "prod_snd.pfpc": "fn p : Nat * Nat => snd p\n",
}


def requests():
    """Every pinned command line, as argv lists with placeholders."""
    progs = sorted(n for n in os.listdir(EXAMPLES) if n.endswith(".pfpc"))
    out = []
    for name in progs:
        f = "examples/" + name
        out.append(["check", f])
        out += [["probterm", f, "--mode", m, "--format", fmt, "--depth", "40"]
                for m in MODES for fmt in FORMATS]
    out.append(["examples", "list"])
    out += [["examples", "run", name, "--mode", m, "--depth", "120"]
            for name, _ in CATALOGUE for m in MODES]
    for a, b, extra in (("id_hes", "id", []), ("id", "id_hes", []),
                        ("randw_even_head", "randw2_head", ["--fuel", "4"]),
                        ("randw2_head", "randw_even_head", ["--fuel", "4"])):
        out += [["refine", "examples/%s.pfpc" % a, "examples/%s.pfpc" % b,
                 "--format", fmt] + extra for fmt in FORMATS]
    for a, b, extra in (("fair_harness", "coin_harness", []),
                        ("fair_harness", "coin_harness", ["--mode-a", "den"]),
                        ("coin_harness", "coin_harness", ["--eps", "0"])):
        out += [["compare", "examples/%s.pfpc" % a, "examples/%s.pfpc" % b,
                 "--format", fmt] + extra for fmt in FORMATS]
    out += [["check", "tmp/" + name] for name in sorted(BAD_FILES)]
    out += [
        ["check", "tmp/missing.pfpc"],
        ["probterm", "tmp/parens.pfpc", "--format", "json"],
        ["compare", "examples/geo.pfpc", "examples/geo.pfpc"],
        ["refine", "examples/id.pfpc", "examples/fair.pfpc"],
        ["examples", "run", "nonesuch"],
        ["examples", "run", "geo(2/3"],
        ["examples", "run", "geo(2/3)x"],
        ["examples", "run", "diverge(1)"],
        ["examples", "run", "id_hes(1/2,Foo)"],
        ["compare", "examples/coin_harness.pfpc", "examples/coin_harness.pfpc",
         "--eps=-1/2"],
        ["probterm", "examples/coin_harness.pfpc", "--depth", "two"],
    ]
    for a, b in (("zero", "zero"), ("zero", "one"), ("star", "star"),
                 ("pair", "pair"), ("inl", "inr"), ("fold", "fold"),
                 ("lam_suc", "lam_id")):
        out += [["refine", "tmp/%s.pfpc" % a, "tmp/%s.pfpc" % b,
                 "--format", fmt] for fmt in FORMATS]
    # catalogue arguments: a bad natural, one argument too many, the edge
    # probability, and an argument to a name that takes none
    out += [["examples", "run", name] for name in
            ("randw(x)", "id_hes(1/2,Nat,3)", "geo(1)", "everysnd(1)")]
    out += [["check", "tmp/" + name] for name in PARSE_FILES]
    # traces that nest one dict per fuel unit, and the json `approx` list
    out += [["refine", "examples/id_hes.pfpc", "examples/id.pfpc",
             "--fuel", "120", "--format", fmt] for fmt in FORMATS]
    out += [
        ["refine", "examples/randw2_head.pfpc", "examples/randw_even_head.pfpc",
         "--fuel", "12", "--horizon", "256", "--format", "json"],
        ["probterm", "examples/geo.pfpc", "--format", "json", "--approx"],
    ]
    # a zero denominator in a program and in an option
    out += [
        ["check", "tmp/zero_den.pfpc"],
        ["refine", "examples/id_hes.pfpc", "examples/id.pfpc", "--eps", "1/0"],
    ]
    out += [["check", "tmp/" + name] for name in LEX_FILES]
    out += [["check", "tmp/" + name] for name in DUP_FILES]
    # deep tables, whose weights carry denominators of hundreds of bits, and
    # a compare that stays inconclusive at depth 2000 with eps 0
    out += [["probterm", "examples/fair_harness.pfpc", "--depth", "2048",
             "--format", fmt] for fmt in FORMATS]
    out += [
        ["examples", "run", "geo(2/3)", "--depth", "3000", "--mode", "den-steps"],
        ["compare", "examples/fair_harness.pfpc", "examples/coin_harness.pfpc",
         "--mode-a", "den", "--eps", "0", "--depth", "2000"],
    ]
    # horizons at which the hesitant identity delivers too little: the
    # no-coupling leaf's best flow is 0 at horizon 6 and 7/8 at horizon 20
    out += [["refine", "examples/id.pfpc", "examples/id_hes.pfpc",
             "--horizon", h, "--format", fmt]
            for h in ("6", "20") for fmt in FORMATS]
    out += [["probterm", "tmp/randw2_force6.pfpc", "--mode", m, "--depth", "80",
             "--format", fmt] for m in ("den", "den-steps") for fmt in FORMATS]
    out += [["compare", "tmp/randw2_force6.pfpc", "tmp/randw2_force6.pfpc",
             "--mode-a", "op", "--mode-b", "den-steps", "--depth", "80",
             "--format", fmt] for fmt in FORMATS]
    out += [["refine", "tmp/fn_share.pfpc", "tmp/fn_share.pfpc", "--fuel", "3",
             "--format", fmt] for fmt in FORMATS]
    out.append(["probterm", "tmp/let90.pfpc", "--mode", "den"])
    out.append(["check", "tmp/letpair.pfpc"])
    out += [["probterm", "tmp/letpair.pfpc", "--mode", m, "--format", fmt]
            for m in MODES for fmt in FORMATS]
    out += [["refine", "tmp/closure2.pfpc", "tmp/closure2.pfpc", "--fuel", "3",
             "--format", fmt] for fmt in FORMATS]
    # a root node of one merged entry of weight 1, a deep fair-coin table
    # of the step-faithful interpreter, and refines whose right side's
    # frontier forces one multi-entry node (the coin's flip) at several
    # levels
    out += [["probterm", "tmp/run_twice.pfpc", "--mode", m, "--depth", "6"]
            for m in ("op", "den-steps")]
    out.append(["probterm", "examples/fair_harness.pfpc", "--mode", "den-steps",
                "--depth", "2048"])
    out += [["refine", "examples/%s.pfpc" % a, "examples/%s.pfpc" % b,
             "--format", fmt]
            for a, b in (("fair", "fair"), ("coin_harness", "fair_harness"))
            for fmt in FORMATS]
    # liftings whose state recurs: with period 2 and 37 levels to go when
    # it first comes back, so the run ends inside a period, and within the
    # first three levels at fuel 200 and 300
    out += [["refine", "tmp/hes2.pfpc", "examples/id.pfpc", "--fuel", "40",
             "--format", fmt] for fmt in FORMATS]
    out += [["refine", "examples/%s.pfpc" % a, "examples/%s.pfpc" % a,
             "--fuel", "200"] for a in ("fair_harness", "diverge", "geo")]
    out += [["refine", "examples/id_hes.pfpc", "examples/id.pfpc",
             "--fuel", "300", "--format", fmt] for fmt in FORMATS]
    # termination tables whose frontier comes back to a state it has seen:
    # up to a dead cycle (the fair coin diverging on false, and the silent
    # loop whose every pending thunk is on one), or never (geo counts in
    # Nat, the two-rate loops' weights drift apart, and the walk spreads)
    out += [["probterm", "tmp/fair_false.pfpc", "--mode", m, "--depth", depth,
             "--format", fmt]
            for m, depth in (("op", "1400"), ("den", "160")) for fmt in FORMATS]
    out += [["probterm", "examples/geo.pfpc", "--mode", m, "--depth", "300"]
            for m in ("op", "den-steps")]
    out.append(["probterm", "examples/diverge.pfpc", "--depth", "500"])
    out += [["probterm", "tmp/tworate.pfpc", "--depth", "200", "--format", fmt]
            for fmt in FORMATS]
    out += [
        ["probterm", "examples/randw2_head.pfpc", "--depth", "600", "--format", "json"],
        ["compare", "examples/fair_harness.pfpc", "examples/coin_harness.pfpc",
         "--mode-a", "den", "--eps", "0", "--depth", "600"],
    ]
    # left sides whose levels deliver one object through two wrappers, or
    # one numeral through two pending branches
    out += [["refine", "tmp/closure_loop.pfpc", "tmp/closure_loop.pfpc",
             "--fuel", "40", "--format", fmt] for fmt in FORMATS]
    out += [["refine", "tmp/twin_hes.pfpc", "examples/id_hes.pfpc",
             "--fuel", "40", "--format", fmt] for fmt in FORMATS]
    # horizon searches whose right frontier recurs after a few levels: at
    # eps 0 the hesitant identity never delivers all of its mass, so the
    # search ends at the horizon with its best flow there; at eps 2^-100 it
    # delivers enough after 601 levels
    out += [["refine", "examples/id.pfpc", "examples/id_hes.pfpc", "--eps", eps,
             "--horizon", h, "--format", fmt]
            for eps, h in (("0", "3000"),
                           ("1/1267650600228229401496703205376", "1024"))
            for fmt in FORMATS]
    out += [["check", "tmp/" + name] for name in AGREE_FILES]
    out.append(["examples", "run", "id_hes(1/2,Nat Nat)"])
    out += [["refine", "tmp/%s.pfpc" % a, "tmp/%s.pfpc" % b, "--format", fmt]
            for a, b in (("sum_case", "sum_case_twin"),
                         ("sum_case_twin", "sum_case"),
                         ("prod_fst", "prod_fst"), ("prod_fst", "prod_snd"))
            for fmt in FORMATS]
    return out


def outputs():
    """(label, SHA-1 of exit code, stdout and stderr) per request."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, src in {**BAD_FILES, **VALUE_FILES, **PARSE_FILES,
                          **ZERO_DEN_FILES, **LEX_FILES, **DUP_FILES,
                          **SHARE_FILES, **UNTYPED_LET_FILES,
                          **MERGED_FILES, **HES2_FILES, **RECUR_FILES,
                          **MERGE_FILES, **AGREE_FILES,
                          **PROBE_FILES}.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8",
                      newline="") as fh:
                fh.write(src)
        dirs = (("examples/", EXAMPLES + os.sep), ("tmp/", tmp + os.sep))
        for argv in requests():
            real = list(argv)
            for short, full in dirs:
                real = [full + a[len(short):] if a.startswith(short) else a
                        for a in real]
            out, err = io.StringIO(), io.StringIO()
            code = main(real, out=out, err=err)
            text = repr((code, out.getvalue(), err.getvalue()))
            for short, full in dirs:
                text = text.replace(full, short)
            yield " ".join(argv), hashlib.sha1(text.encode("utf-8")).hexdigest()


def test_outputs_match_the_golden_table():
    with open(TABLE, encoding="utf-8") as fh:
        table = [tuple(line.split("\t")) for line in fh.read().splitlines()]
    rows = list(outputs())
    for row, want in zip(rows, table):
        assert row == want, "first request that differs: %s" % row[0]
    assert len(rows) == len(table), "the table has %d rows for %d requests" \
        % (len(table), len(rows))


if __name__ == "__main__":
    for label, sha in outputs():
        print("%s\t%s" % (label, sha))
