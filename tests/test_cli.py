"""Command line interface: goldens, exit codes, JSON stability."""

import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import probfpc
from probfpc.cli import MODES, _dumps, main
from probfpc.corpus import CATALOGUE

from conftest import example
from genlib import unit_loop


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# --- check ---------------------------------------------------------------------

def test_check_reports_the_type():
    code, out, err = run(["check", example("fair.pfpc")])
    assert (code, err) == (0, "")
    assert out == "Unit -> Unit + Unit\n"
    assert run(["check", example("id.pfpc")])[1] == "Nat -> Nat\n"
    assert run(["check", example("randw2_head.pfpc")])[1] == "Nat + Unit\n"


def test_check_rejects_ill_typed_file(tmp_path):
    bad = tmp_path / "bad.pfpc"
    bad.write_text("fst *\n")
    code, out, err = run(["check", str(bad)])
    assert code == 1 and out == ""
    assert err.startswith("probfpc:") and "product type" in err and "line 1" in err


def test_check_missing_and_empty_files(tmp_path):
    code, _, err = run(["check", str(tmp_path / "nope.pfpc")])
    assert code == 1 and err.startswith("probfpc:")
    empty = tmp_path / "empty.pfpc"
    empty.write_text("-- nothing here\n")
    code, _, err = run(["check", str(empty)])
    assert code == 1 and "expected a term" in err


# --- probterm ------------------------------------------------------------------

def test_a_defs_use_sites_reach_the_evaluator_as_one_object(tmp_path,
                                                            monkeypatch):
    # the parser expands a def to one shared subterm, and type checking
    # copies nothing, so the evaluator's memo sees both uses as one term
    seen = []
    op = MODES["op"]
    monkeypatch.setitem(MODES, "op", lambda t: seen.append(t) or op(t))
    src = tmp_path / "shared.pfpc"
    src.write_text("def d = choice 1/2 0 1 ;\n(d, d)\n")
    code, _, err = run(["probterm", str(src), "--mode", "op", "--depth", "1"])
    assert (code, err) == (0, "")
    [t] = seen
    assert t.a is t.b


def test_probterm_geo_table():
    code, out, err = run(["probterm", example("geo.pfpc"), "--depth", "3"])
    assert (code, err) == (0, "")
    assert out == ("depth  probterm\n"
                   "    0  1/2\n"
                   "    1  3/4\n"
                   "    2  7/8\n"
                   "    3  15/16\n")


def test_probterm_diverge_is_zero():
    code, out, _ = run(["probterm", example("diverge.pfpc"), "--depth", "4"])
    assert code == 0
    assert all(line.endswith("  0") for line in out.splitlines()[1:])


def test_probterm_star_terminates_immediately(tmp_path):
    f = tmp_path / "star.pfpc"
    f.write_text("*\n")
    code, out, _ = run(["probterm", str(f), "--depth", "2"])
    assert code == 0
    assert [l.split()[-1] for l in out.splitlines()[1:]] == ["1", "1", "1"]


def test_probterm_json_is_byte_stable():
    argv = ["probterm", example("geo.pfpc"), "--depth", "6", "--format", "json"]
    a, b = run(argv)[1], run(argv)[1]
    assert a == b
    doc = json.loads(a)
    assert doc["probterm"][0] == "1/2"
    assert doc["depths"] == list(range(7))


def test_probterm_approx_column():
    code, out, _ = run(["probterm", example("geo.pfpc"), "--depth", "1",
                        "--approx"])
    assert code == 0
    assert "0.500000" in out and "0.750000" in out


def test_approx_belongs_to_the_termination_tables():
    # compare and refine print no table, so they take no --approx
    coin = example("coin_harness.pfpc")
    for cmd in ("compare", "refine"):
        code, out, err = run([cmd, coin, coin, "--approx"])
        assert (code, out) == (1, "")
        assert err == "probfpc: unrecognized arguments: --approx\n"
    code, out, _ = run(["examples", "run", "geo", "--depth", "1", "--approx"])
    assert code == 0 and out.splitlines()[1] == "depth  probterm  approx"


def test_probterm_denotational_modes():
    for mode in ("den", "den-steps"):
        code, out, _ = run(["probterm", example("geo.pfpc"), "--depth", "4",
                            "--mode", mode])
        assert code == 0 and out.startswith("depth  probterm")


# --- compare -------------------------------------------------------------------

def test_compare_program_with_itself_exactly():
    code, out, _ = run(["compare", example("fair_harness.pfpc"),
                        example("fair_harness.pfpc"), "--eps", "0"])
    assert code == 0
    assert out.startswith("eqlim holds at eps=0, depth=64")


def test_compare_fair_and_coin_harnesses():
    # the operational sequences at depth 64 still differ by about (5/9)^6,
    # beyond the default tolerance; the verdict is honestly inconclusive
    code, out, _ = run(["compare", example("fair_harness.pfpc"),
                        example("coin_harness.pfpc")])
    assert code == 2 and out.startswith("inconclusive")
    # the standard denotational reading of the left side settles it
    code, out, _ = run(["compare", example("fair_harness.pfpc"),
                        example("coin_harness.pfpc"), "--mode-a", "den"])
    assert code == 0 and out.startswith("eqlim holds")
    # as does a deeper operational run
    code, out, _ = run(["compare", example("fair_harness.pfpc"),
                        example("coin_harness.pfpc"), "--depth", "256"])
    assert code == 0 and out.startswith("eqlim holds")


def test_compare_json_keys():
    code, out, _ = run(["compare", example("coin_harness.pfpc"),
                        example("coin_harness.pfpc"), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True
    for key in ("eps", "depth", "mode_a", "mode_b", "max_a", "max_b"):
        assert key in doc


def test_compare_requires_unit_programs():
    code, _, err = run(["compare", example("geo.pfpc"), example("geo.pfpc")])
    assert code == 1 and "Unit" in err


# --- refine --------------------------------------------------------------------

def test_refine_hesitant_identity_both_directions():
    for a, b in (("id_hes.pfpc", "id.pfpc"), ("id.pfpc", "id_hes.pfpc")):
        code, out, _ = run(["refine", example(a), example(b)])
        assert code == 0
        assert out.startswith("Holds: 4 probes passed (fuel=6, horizon=64")


def test_refine_random_walk_heads_both_directions():
    for a, b in (("randw_even_head.pfpc", "randw2_head.pfpc"),
                 ("randw2_head.pfpc", "randw_even_head.pfpc")):
        code, out, _ = run(["refine", example(a), example(b), "--fuel", "4"])
        assert code == 0
        assert out.startswith("Holds: per-level couplings found (fuel=4")


def test_refine_distinct_numerals_is_inconclusive(tmp_path):
    z, o = tmp_path / "z.pfpc", tmp_path / "o.pfpc"
    z.write_text("0\n")
    o.write_text("1\n")
    code, out, _ = run(["refine", str(z), str(o)])
    assert code == 2 and out.startswith("Unknown")


def test_refine_requires_one_type():
    code, _, err = run(["refine", example("id.pfpc"), example("fair.pfpc")])
    assert code == 1 and "one type on both sides" in err


def test_refine_json_trace():
    code, out, _ = run(["refine", example("id_hes.pfpc"), example("id.pfpc"),
                        "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["holds"] is True and "trace" in doc


# --- examples -------------------------------------------------------------------

def test_examples_list():
    code, out, _ = run(["examples", "list"])
    assert code == 0
    names = [line.split()[0] for line in out.splitlines()]
    assert names == ["geo", "id_hes", "fair_from", "randw", "randw2",
                     "everysnd", "lazylist-ops", "diverge"]


def test_examples_run_geo():
    code, out, _ = run(["examples", "run", "geo", "--depth", "4"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "type: Nat"
    assert [l.split()[-1] for l in lines[2:]] == ["0", "0", "1/2", "1/2", "1/2"]


def test_examples_run_with_arguments():
    code, out, _ = run(["examples", "run", "geo(2/3)", "--depth", "2"])
    assert code == 0
    assert out.splitlines()[-1].endswith("2/3")


def test_examples_run_unknown_name():
    code, _, err = run(["examples", "run", "nonesuch"])
    assert code == 1 and err.startswith("probfpc:")
    assert err == "probfpc: unknown corpus entry 'nonesuch'\n"
    for name in ("randw(x)", "geo(2)", "geo(1/0)"):
        code, out, err = run(["examples", "run", name])
        assert (code, out) == (1, "")
        assert err.startswith("probfpc: %s: " % name) and err.count("\n") == 1
    for name, reason in (("geo(2/3", "missing ')' after the arguments"),
                         ("geo(2/3)x", "unexpected text after ')': 'x'"),
                         ("geo(1/2,5)", "takes at most 1 argument(s), got 2"),
                         ("diverge(1)", "takes at most 0 argument(s), got 1"),
                         # walk starts are read as the lexer reads numerals
                         ("randw(+3)", "not a natural: '+3'"),
                         ("randw2(3_0)", "not a natural: '3_0'"),
                         ("randw(\u0663)", "not a natural: '\u0663'")):
        assert run(["examples", "run", name, "--depth", "2"]) == \
            (1, "", "probfpc: %s: %s\n" % (name, reason))


def test_examples_run_rejects_surplus_arguments_for_every_entry():
    for name, _ in CATALOGUE:
        code, out, err = run(["examples", "run", name + "(1,1,1)", "--depth", "1"])
        assert (code, out) == (1, "")
        assert err.startswith("probfpc: %s(1,1,1): takes at most " % name)


def test_examples_run_bad_type_argument_names_the_entry():
    assert run(["examples", "run", "id_hes(1/2,Foo)"]) == \
        (1, "", "probfpc: id_hes(1/2,Foo): unknown type variable 'Foo'\n")


# --- deep tables at the default recursion limit ------------------------------------

def test_deep_geo_tables_match_the_closed_form():
    # three steps per round, the first value after two: r rounds by depth d
    assert sys.getrecursionlimit() <= 1000
    want = []
    for d in range(5001):
        r = 0 if d < 2 else (d - 2) // 3 + 1
        want.append("%5d  %s" % (d, 1 - Fraction(1, 3) ** r))
    for mode in ("op", "den-steps"):
        code, out, err = run(["examples", "run", "geo(2/3)", "--depth", "5000",
                              "--mode", mode])
        assert (code, err) == (0, "")
        assert out.splitlines() == ["type: Nat", "depth  probterm"] + want


def test_deep_compare_op_against_den_steps():
    assert sys.getrecursionlimit() <= 1000
    harness = example("fair_harness.pfpc")
    code, out, err = run(["compare", harness, harness, "--mode-a", "op",
                          "--mode-b", "den-steps", "--depth", "5000"])
    assert (code, err) == (0, "")
    assert out.startswith("eqlim holds at eps=1/1024, depth=5000 ")


DEEP = ("probfpc: the input or a budget nests too deeply "
        "for the interpreter's recursion limit\n")


def test_deep_inputs_exit_1_with_one_line(tmp_path):
    assert sys.getrecursionlimit() <= 1000
    parens, sucs = tmp_path / "parens.pfpc", tmp_path / "sucs.pfpc"
    parens.write_text("(" * 3000 + "0" + ")" * 3000 + "\n")
    sucs.write_text("suc " * 3000 + "0\n")
    for argv in (["probterm", str(parens)], ["probterm", str(sucs)]):
        for fmt in ("table", "json"):
            code, out, err = run(argv + ["--format", fmt])
            assert (code, out, err) == (1, "", DEEP), argv
            assert "Traceback" not in err


def test_refine_at_fuel_1000():
    # the lifting loops over its levels, so fuel is not bounded by the
    # recursion limit; json.loads would be, so the JSON is read by prefix
    assert sys.getrecursionlimit() <= 1000
    argv = ["refine", example("id_hes.pfpc"), example("id.pfpc"),
            "--fuel", "1000"]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert out.startswith("Holds: 4 probes passed (fuel=1000, horizon=64, "
                          "eps=1/1024)\n{\n")
    code, out, err = run(argv + ["--format", "json"])
    assert (code, err) == (0, "")
    assert out.startswith('{\n  "holds": true,\n  "reason": "4 probes passed",\n')


def test_refine_at_horizon_5000():
    assert sys.getrecursionlimit() <= 1000
    argv = ["refine", example("id_hes.pfpc"), example("id.pfpc"),
            "--horizon", "5000"]
    code, out, err = run(argv)
    assert (code, err) == (0, "") and "Traceback" not in out
    assert out.startswith("Holds: 4 probes passed (fuel=6, horizon=5000, ")
    code, out, err = run(argv + ["--format", "json"])
    assert (code, err) == (0, "") and "Traceback" not in out
    assert json.loads(out)["holds"] is True


# --- the JSON writer -------------------------------------------------------------

LEAVES = ("", "plain", 'a "quote"', "back\\slash", "ctl \x00\x07\x1f\n\t\x7f",
          "caf\u00e9 \u03a9 \u221e \U0001f0a1", 0, 7, -42, 10 ** 400, -(10 ** 399),
          True, False, None, 0.1)
KEYS = ("k", 'q"', "b\\", "\u00e9", "\x07", "")


def random_doc(rng, depth):
    """A leaf, or a dict, list or tuple of up to three random documents."""
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice(LEAVES)
    kids = [random_doc(rng, depth - 1) for _ in range(rng.randrange(4))]
    if r < 0.65:
        return {rng.choice(KEYS) + str(i): kid for i, kid in enumerate(kids)}
    return tuple(kids) if r < 0.7 else kids


def test_writer_is_json_dumps_indent_2():
    rng = random.Random(12)
    docs = [random_doc(rng, rng.randrange(7)) for _ in range(400)]
    docs += [{}, [], (), {"a": {}, "b": [[], {}]}, [{"x": [1, [2, {"y": None}]]}]]
    for doc in docs:
        assert _dumps(doc) == json.dumps(doc, indent=2), doc


def test_writer_renders_3000_nested_dicts():
    assert sys.getrecursionlimit() <= 1000
    doc = 0
    for _ in range(3000):
        doc = {"child": doc}
    with pytest.raises(RecursionError):
        json.dumps(doc, indent=2)
    want = ("".join("{\n" + "  " * (d + 1) + '"child": ' for d in range(3000))
            + "0" + "".join("\n" + "  " * d + "}" for d in reversed(range(3000))))
    assert _dumps(doc) == want


def test_writer_rejects_non_str_keys():
    with pytest.raises(TypeError):
        _dumps({"a": [{1: "x"}]})


# --- global flags ----------------------------------------------------------------

def test_negative_tolerance_rejected():
    code, out, err = run(["compare", example("coin_harness.pfpc"),
                          example("coin_harness.pfpc"), "--eps=-1/2"])
    assert (code, out) == (1, "")
    assert err == "probfpc: argument --eps: eps must be >= 0\n"


def test_tolerance_above_one_rejected():
    # and, before any work, an eps that is no rational literal or that
    # cannot be printed: 1/10^4300, whose denominator has 4,301 digits
    geo, ident = example("geo.pfpc"), example("id.pfpc")
    tiny = "0." + "0" * 4299 + "1"
    for eps, msg in (("2", "eps must be <= 1"), ("3/2", "eps must be <= 1"),
                     ("1e-3", "not a rational: '1e-3'"),
                     ("\u0660.\u0665", "not a rational: '\u0660.\u0665'"),
                     (tiny, "exact value too long to print: 4302 digits")):
        for argv in (["compare", geo, geo, "--eps", eps],
                     ["refine", ident, ident, "--eps", eps]):
            for fmt in ("table", "json"):
                code, out, err = run(argv + ["--format", fmt])
                assert (code, out) == (1, "")
                assert err == "probfpc: argument --eps: %s\n" % msg


def test_negative_budgets_rejected():
    coin = example("coin_harness.pfpc")
    for argv in (["compare", coin, coin, "--depth", "-1"],
                 ["probterm", coin, "--depth=-3"],
                 ["refine", coin, coin, "--fuel", "-1"],
                 ["refine", coin, coin, "--horizon", "-1"]):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err.startswith("probfpc: argument --") and err.endswith("must be >= 0\n")
    code, _, err = run(["probterm", coin, "--depth", "two"])
    assert code == 1 and err == "probfpc: argument --depth: not an integer: 'two'\n"
    code, _, _ = run(["compare", coin, coin, "--depth", "0"])
    assert code == 0


def test_budgets_and_walk_starts_are_ascii_digits():
    # one reader, rational.parse_nat, for budgets and catalogue numerals:
    # int() also takes other scripts' digits, signs, spaces and underscores
    coin = example("coin_harness.pfpc")
    for text in ("\u0663", "1_0", "+2", " 3 ", "-", ""):
        for argv in (["examples", "run", "geo", "--depth", text],
                     ["probterm", coin, "--depth", text],
                     ["refine", coin, coin, "--fuel", text],
                     ["refine", coin, coin, "--horizon", text]):
            assert run(argv) == (1, "", "probfpc: argument %s: not an integer: %r\n"
                                 % (argv[-2], text)), argv
    # past the 4,300 digits int() converts, as the lexer says of a numeral
    huge = "9" * 5000
    assert run(["examples", "run", "geo", "--depth", huge]) == \
        (1, "", "probfpc: argument --depth: numeral too long: 5000 digits\n")
    assert run(["refine", coin, coin, "--fuel", "-" + huge]) == \
        (1, "", "probfpc: argument --fuel: must be >= 0\n")
    for name in ("randw(%s)" % huge, "randw2(%s)" % huge):
        assert run(["examples", "run", name, "--depth", "2"]) == \
            (1, "", "probfpc: %s: numeral too long: 5000 digits\n" % name)
    # 4,300 digits still read, and leading zeros are digits
    code, out, _ = run(["examples", "run", "randw(%s)" % ("0" * 4299 + "3"),
                        "--depth", "007"])
    assert (code, out.splitlines()[-1]) == (0, "    7  0")


def test_numerals_past_4300_digits_whatever_int_converts(tmp_path):
    # parse_nat owns the bound: with int()'s own limit switched off by the
    # environment, a file's numeral, a catalogue argument and a budget of
    # 5,000 digits are still too long
    huge = "9" * 5000
    f = tmp_path / "long.pfpc"
    f.write_text(huge + "\n")
    src = os.path.dirname(os.path.dirname(probfpc.__file__))
    env = dict(os.environ, PYTHONINTMAXSTRDIGITS="0", PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    name = "randw(%s)" % huge
    for argv, err in (
            (["check", str(f)], "line 1, col 1: numeral too long"),
            (["examples", "run", name, "--depth", "1"],
             "%s: numeral too long" % name),
            (["refine", example("id_hes.pfpc"), example("id.pfpc"),
              "--horizon", huge], "argument --horizon: numeral too long")):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from probfpc.cli import main;"
             " sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (1, "", "probfpc: %s: 5000 digits\n" % err), argv[:2]


def test_rational_numerals_past_4300_digits_are_too_long(tmp_path):
    # a catalogue weight, --eps and a choice weight in a file, each with a
    # run of 5,000 digits, say so as a budget or a Nat numeral does
    huge = "9" * 5000
    for name in ("geo(1/%s)" % huge, "geo(0.%s)" % huge):
        assert run(["examples", "run", name, "--depth", "2"]) == \
            (1, "", "probfpc: %s: numeral too long: 5000 digits\n" % name)
    geo = example("geo.pfpc")
    assert run(["compare", geo, geo, "--eps", "1/" + huge]) == \
        (1, "", "probfpc: argument --eps: numeral too long: 5000 digits\n")
    for weight, col in (("1/" + huge, 10), ("0." + huge, 8), (huge + "/3", 8)):
        f = tmp_path / "long.pfpc"
        f.write_text("choice %s * *\n" % weight)
        assert run(["check", str(f)]) == \
            (1, "", "probfpc: line 1, col %d: numeral too long: 5000 digits\n" % col)


def test_zero_denominator_messages(tmp_path):
    # a catalogue weight names the zero denominator, not Python's Fraction(1, 0)
    for name, text in (("geo(1/0)", "1/0"), ("geo(1/00)", "1/00"), ("geo(0/0)", "0/0")):
        assert run(["examples", "run", name]) == (1, "", (
            "probfpc: %s: not a rational literal: %r (zero denominator)\n" % (name, text)))
    assert run(["refine", example("id_hes.pfpc"), example("id.pfpc"), "--eps", "1/0"]) == \
        (1, "", "probfpc: argument --eps: not a rational: '1/0'\n")
    f = tmp_path / "zero_den.pfpc"
    f.write_text("choice 1/0 0 1\n")
    assert run(["check", str(f)]) == (1, "", "probfpc: line 1, col 8: bad probability '1/0'\n")


def test_usage_errors_exit_1_with_prefix():
    for argv in ([], ["bogus"], ["check"], ["probterm", example("geo.pfpc"), "--mode", "x"],
                 ["check", example("geo.pfpc"), "--nosuch"]):
        code, out, err = run(argv)
        assert (code, out) == (1, "")
        assert err.startswith("probfpc: ") and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"], out=io.StringIO(), err=io.StringIO())
    assert exc.value.code == 0
    assert "usage: probfpc" in capsys.readouterr().out


def test_unicode_digit_is_a_stray_character(tmp_path):
    f = tmp_path / "sup.pfpc"
    f.write_text("suc \u00b2\n", encoding="utf-8")
    code, out, err = run(["check", str(f)])
    assert (code, out) == (1, "")
    assert err == "probfpc: line 1, col 5: stray character '\u00b2'\n"


def test_huge_numeral_is_a_located_parse_error(tmp_path):
    f = tmp_path / "huge.pfpc"
    f.write_text("suc 1" + "0" * 5000 + "\n")
    assert run(["check", str(f)]) == \
        (1, "", "probfpc: line 1, col 5: numeral too long: 5001 digits\n")


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("extra", ["", "suc "])
def test_refine_huge_run_time_numeral_is_one_line(tmp_path, fmt, extra):
    # each side parses (4,300 digits) but evaluates to 10^4300 or past it,
    # which Python will not print in decimal
    a, b = tmp_path / "a.pfpc", tmp_path / "b.pfpc"
    a.write_text("suc " + "9" * 4300 + "\n")
    b.write_text(extra + "suc " + "9" * 4300 + "\n")
    assert run(["refine", str(a), str(b), "--format", fmt]) == \
        (1, "", "probfpc: numeral too long to print: 4301 digits\n")


# a Unit loop that stops at each unfold with probability 1/10^100, so its
# table's denominators pass 10^4300, which Python will not print in decimal
ONE_IN_GOOGOL = "1/1" + "0" * 100
LOOP = "(%s) *\n" % unit_loop(ONE_IN_GOOGOL)


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("argv, digits", [
    (["examples", "run", "@geo", "--mode", "den", "--depth", "45"], 8503),
    (["examples", "run", "@geo", "--mode", "den", "--depth", "45", "--approx"], 8503),
    (["examples", "run", "@geo", "--depth", "140"], 8503),
    (["probterm", "@loop", "--mode", "den", "--depth", "45"], 8503),
    (["compare", "@loop", "@loop", "--mode", "den", "--depth", "45"], 9103),
])
def test_values_too_long_to_print_are_one_line(tmp_path, fmt, argv, digits):
    f = tmp_path / "loop.pfpc"
    f.write_text(LOOP)
    names = {"@loop": str(f), "@geo": "geo(%s)" % ONE_IN_GOOGOL}
    argv = [names.get(a, a) for a in argv]
    assert run(argv + ["--format", fmt]) == \
        (1, "", "probfpc: exact value too long to print: %d digits\n" % digits)


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_refine_value_mass_too_long_to_print_is_one_line(tmp_path, fmt):
    # an even mixture of loops stopping with probability 1/10^100 and 1/3,
    # related to itself: each level renormalises the residue, and the left
    # side's value mass gains about 100 digits a level
    f = tmp_path / "mix.pfpc"
    f.write_text("choice 1/2 ((%s) *) ((%s) *)\n"
                 % (unit_loop(ONE_IN_GOOGOL), unit_loop("1/3")))
    assert run(["refine", str(f), str(f), "--fuel", "60", "--format", fmt]) == \
        (1, "", "probfpc: exact value too long to print: 8634 digits\n")


def test_non_utf8_file_names_the_file(tmp_path):
    f = tmp_path / "utf16.pfpc"
    f.write_bytes("*\n".encode("utf-16"))      # starts with ff fe
    assert run(["check", str(f)]) == \
        (1, "", "probfpc: line 1, col 1: %s is not UTF-8 text "
                "(invalid start byte)\n" % f)
    f.write_bytes(b"-- caf\xc3\xa9\n(1,\n  2\xff)\n")
    assert run(["probterm", str(f)]) == \
        (1, "", "probfpc: line 3, col 4: %s is not UTF-8 text "
                "(invalid start byte)\n" % f)
