"""Surface syntax, elaboration, and the program corpus."""

import glob
import os
import random
import re
from fractions import Fraction

import pytest

from probfpc.syntax import (
    BOOL_T, App, Choice, FnT, Fold, Inj, Lam, MuT, NatT, Num, Pair, ProdT,
    Star, Suc, SumT, TVarT, UnitT, Var, false_term, is_value, mu_unfold,
    render_ty, subst, true_term, ty_closed,
)
from probfpc.parser import (
    _KEYWORDS, _lex, ParseError, load_file, parse_term, parse_ty,
)
from probfpc.typecheck import TypecheckError, elaborate
from probfpc.corpus import (
    CATALOGUE, LAZY_LIST, corpus, diverge_term, everysnd_term, fair_from,
    geo_loop, head_term, id_hes, randw2_fn, randw_fn, y_comb,
)

from conftest import example
from genlib import (
    force_k, gen_ground_ty, gen_term, geo_chain, nth_head, omega_nat, pretty,
    ref_lex, typecheck, unitize,
)

NAT = NatT()


# --- types ------------------------------------------------------------------

def test_type_precedence():
    t = parse_ty("Nat + Unit * Nat -> Nat")
    assert t == FnT(SumT(NAT, ProdT(UnitT(), NAT)), NAT)
    assert parse_ty("Nat -> Nat -> Nat") == FnT(NAT, FnT(NAT, NAT))


def test_type_render_round_trip():
    for src in ("mu X. Unit + Nat * (Unit -> X)",
                "(Nat -> Nat) -> Nat",
                "mu X. X -> Nat"):
        t = parse_ty(src)
        assert parse_ty(render_ty(t)) == t
    rng = random.Random(51)
    for _ in range(200):
        t = gen_ground_ty(rng, 3)
        assert parse_ty(render_ty(t)) == t


def test_mu_unfold_lazy_list():
    assert isinstance(LAZY_LIST, MuT)
    assert mu_unfold(LAZY_LIST) == SumT(
        UnitT(), ProdT(NAT, FnT(UnitT(), LAZY_LIST)))
    assert ty_closed(mu_unfold(LAZY_LIST))
    assert not ty_closed(TVarT(0))


# --- parsing ----------------------------------------------------------------

def test_parse_booleans_and_choice():
    t = parse_term("choice 1/2 true false")
    assert t == Choice(Fraction(1, 2), true_term(), false_term())
    assert parse_term("choice 0.25 1 2") == Choice(Fraction(1, 4), Num(1), Num(2))
    assert BOOL_T == SumT(UnitT(), UnitT())


def test_parse_let_and_if_desugar():
    t = elaborate(parse_term("let x = 3 in suc x"))[0]
    assert t == elaborate(App(Lam(NAT, Suc(Var(0))), Num(3)))[0]
    cond = elaborate(parse_term("if true then 1 else 2"))[0]
    assert typecheck(cond) == NAT


def test_alpha_invariance():
    assert parse_term("fn a : Nat => a") == parse_term("fn b : Nat => b")


def test_parse_errors():
    cases = [
        ("foo", "unknown name"),
        ("def a = * ; def a = * ; *", "duplicate def"),
        ("", "expected a term"),
        ("fold[Nat] 0", "fold annotation must be a mu type"),
        ("choice 1 * *", "choice weight"),
        ("choice 5/4 * *", "choice weight"),
        ("(fn x : Nat => x", "expected ')'"),
        ("case inr[Nat + Nat * Nat] (1, 2) of { inl a => a ; inr (n, n) => n }",
         "line 1, col 60: duplicate name 'n' in pattern"),
    ]
    for src, frag in cases:
        with pytest.raises(ParseError) as exc:
            parse_term(src)
        assert frag in str(exc.value)
        assert "line" in str(exc.value)


def _tokens(lex, src):
    """(kind, text, line, col) per token, a decimal read as the "num" the
    reference calls it, or the error."""
    try:
        return [("num" if t.kind == "dec" else t.kind, t.text, t.line, t.col)
                for t in lex(src)]
    except ParseError as e:
        return str(e)


def test_lexer_matches_the_reference():
    # pieces that test the regex's edges: numerics that are not letters
    # (², Ⅷ), a non-ASCII decimal digit (٣), Unicode letters and a
    # combining accent, whitespace the lexer does not skip (form feed,
    # NBSP), CRLF, comments, and dots before and after digits
    pieces = ("x", "_", "'", "é", "ǅ", "\u0301", "²", "Ⅷ", "٣", "0", "7",
              "12", ".", "0.5", " ", "\t", "\f", "\xa0", "\n", "\r\n", "--",
              "-", "=>", "->", "=", ">", "(", ")", "*", "/", "?", "fn", "mu")
    rng = random.Random(14)
    for _ in range(20000):
        src = "".join(rng.choice(pieces) for _ in range(rng.randrange(10)))
        assert _tokens(_lex, src) == _tokens(ref_lex, src), repr(src)


def test_one_is_not_a_type():
    with pytest.raises(ParseError) as exc:
        parse_ty("1")
    assert "expected a type" in str(exc.value)
    assert parse_ty("Unit * Unit") == ProdT(UnitT(), UnitT())


def test_defs_expand_at_use():
    t = parse_term("def two = 2 ; (two, two)")
    assert t == Pair(Num(2), Num(2))


# --- elaboration and typechecking -------------------------------------------

def test_typecheck_goldens():
    assert typecheck(Star()) == UnitT()
    assert typecheck(Num(7)) == NAT
    assert typecheck(Lam(NAT, Var(0))) == FnT(NAT, NAT)
    assert typecheck(y_comb(NAT, NAT)) == FnT(FnT(FnT(NAT, NAT), FnT(NAT, NAT)),
                                              FnT(NAT, NAT))
    assert typecheck(true_term()) == BOOL_T


def test_typecheck_error_is_located():
    with pytest.raises(TypecheckError) as exc:
        elaborate(parse_term("fst *"))
    msg = str(exc.value)
    assert "product type" in msg and "line 1" in msg


def test_unbound_variable_rejected():
    with pytest.raises(TypecheckError):
        typecheck(Var(0))


def test_application_of_non_function_rejected():
    with pytest.raises(TypecheckError):
        elaborate(parse_term("* *"))


def test_elaboration_is_deterministic():
    rng = random.Random(52)
    for _ in range(200):
        t = gen_term(rng, gen_ground_ty(rng, 2), (), 3)
        a1, ty1 = elaborate(t)
        a2, ty2 = elaborate(t)
        assert a1 == a2 and ty1 == ty2
        assert typecheck(a1) == ty1


def test_generated_open_terms_elaborate_in_context():
    rng = random.Random(53)
    for _ in range(200):
        ctx = tuple(gen_ground_ty(rng, 1) for _ in range(rng.randrange(3)))
        ty = gen_ground_ty(rng, 2)
        t = gen_term(rng, ty, ctx, 3)
        t2, ty2 = elaborate(t, ctx)
        assert ty2 == ty


# --- values and substitution --------------------------------------------------

def grammar_value(t):
    """The value grammar, transcribed independently of is_value."""
    if isinstance(t, (Star, Num, Lam)):
        return True
    if isinstance(t, Fold):
        return grammar_value(t.m)
    if isinstance(t, Pair):
        return grammar_value(t.a) and grammar_value(t.b)
    if isinstance(t, Inj):
        return grammar_value(t.m)
    return False


def test_is_value_matches_grammar():
    rng = random.Random(54)
    seen_values = 0
    for _ in range(200):
        t = gen_term(rng, gen_ground_ty(rng, 2), (), rng.randrange(6))
        assert is_value(t) == grammar_value(t)
        seen_values += is_value(t)
    assert seen_values > 20  # the generator must actually produce values


def test_subst_basics():
    assert subst(Var(0), Num(3)) == Num(3)
    assert subst(Lam(NAT, Var(1)), Num(3)) == Lam(NAT, Num(3))
    assert subst(Lam(NAT, Var(0)), Num(3)) == Lam(NAT, Var(0))
    assert subst(Suc(Var(0)), Num(0)) == Suc(Num(0))


# --- pretty printing ---------------------------------------------------------

def roundtrips(t):
    t2, ty2 = elaborate(t)
    t3, ty3 = elaborate(parse_term(pretty(t2)))
    return t2 == t3 and ty2 == ty3


def test_pretty_round_trip_corpus():
    for name, _ in CATALOGUE:
        assert roundtrips(corpus(name))
    for t in (y_comb(NAT, NAT), geo_chain(Fraction(1, 3), 4), force_k(2),
              nth_head(1), omega_nat(), unitize(Num(3), NAT)):
        assert roundtrips(t)


def test_pretty_round_trip_random():
    rng = random.Random(55)
    for _ in range(200):
        assert roundtrips(gen_term(rng, gen_ground_ty(rng, 2), (), 3))


def test_pretty_prints_booleans_and_let():
    t = elaborate(parse_term("let x = true in *"))[0]
    s = pretty(t)
    assert "let" in s and "true" in s


# --- corpus ------------------------------------------------------------------

def test_catalogue_entries_elaborate():
    for name, _ in CATALOGUE:
        t = corpus(name)
        elaborate(t)


def test_corpus_argument_parsing():
    assert corpus("geo(2/3)") == geo_loop(Fraction(2, 3))
    assert corpus("id_hes(1/2)") == id_hes(Fraction(1, 2), NAT)
    assert corpus("fair_from(1/4)") == fair_from(Fraction(1, 4))
    with pytest.raises(KeyError):
        corpus("nonesuch")


def test_corpus_types():
    assert typecheck(id_hes(Fraction(1, 2), NAT)) == FnT(NAT, NAT)
    assert typecheck(fair_from(Fraction(1, 3))) == FnT(UnitT(), BOOL_T)
    assert typecheck(everysnd_term()) == FnT(LAZY_LIST, LAZY_LIST)
    assert typecheck(randw_fn()) == FnT(NAT, LAZY_LIST)
    assert typecheck(randw2_fn()) == FnT(NAT, LAZY_LIST)
    assert typecheck(geo_loop(Fraction(1, 2))) == NAT
    assert typecheck(diverge_term()) == UnitT()
    assert typecheck(head_term()) == FnT(LAZY_LIST, SumT(NAT, UnitT()))
    assert typecheck(force_k(3)) == FnT(LAZY_LIST, UnitT())
    assert typecheck(nth_head(2)) == FnT(LAZY_LIST, SumT(NAT, UnitT()))


def elab(t):
    return elaborate(t)[0]


def test_example_files_match_builders():
    pairs = [
        ("fair.pfpc", fair_from(Fraction(1, 3))),
        ("fair_harness.pfpc",
         unitize(App(fair_from(Fraction(1, 3)), Star()), BOOL_T)),
        ("coin_harness.pfpc",
         unitize(Choice(Fraction(1, 2), true_term(), false_term()), BOOL_T)),
        ("geo.pfpc", geo_chain(Fraction(1, 2), 12)),
        ("id.pfpc", Lam(NAT, Var(0))),
        ("id_hes.pfpc", id_hes(Fraction(1, 2), NAT)),
        ("diverge.pfpc", diverge_term()),
        ("randw_even_head.pfpc",
         App(head_term(), App(everysnd_term(), App(randw_fn(), Num(2))))),
        ("randw2_head.pfpc", App(head_term(), App(randw2_fn(), Num(2)))),
    ]
    for name, built in pairs:
        loaded = load_file(example(name))
        assert elab(loaded) == elab(built), name
        assert typecheck(elab(loaded)) == typecheck(elab(built)), name


def _readme(examples_dir):
    with open(os.path.join(os.path.dirname(examples_dir), "README.md"),
              encoding="utf-8") as fh:
        return fh.read()


def test_readme_table_names_the_shipped_example_files(examples_dir):
    readme = _readme(examples_dir)
    table = readme.split("## Shipped example files", 1)[1].split("\n## ", 1)[0]
    listed = set(re.findall(r"^\| `examples/([^`]+)` \|", table, re.M))
    shipped = {os.path.basename(f)
               for f in glob.glob(os.path.join(examples_dir, "*.pfpc"))}
    assert listed, "no files listed under 'Shipped example files'"
    assert not listed - shipped, \
        "listed in README.md but not in examples/: %s" % sorted(listed - shipped)
    assert not shipped - listed, \
        "in examples/ but not listed in README.md: %s" % sorted(shipped - listed)
    for name in sorted(listed):
        elaborate(load_file(example(name)))


def test_readme_lists_the_reserved_words(examples_dir):
    readme = " ".join(_readme(examples_dir).split())
    sentence = readme.split("The reserved words are ", 1)[1].split(". ", 1)[0]
    assert sorted(re.findall(r"`([^`]+)`", sentence)) == sorted(_KEYWORDS)


def test_readme_fair_listing_is_the_shipped_file(examples_dir):
    head = "A small program, `examples/fair.pfpc` as shipped:\n\n```\n"
    listing = _readme(examples_dir).split(head, 1)[1].split("```\n", 1)[0]
    with open(example("fair.pfpc"), encoding="utf-8") as fh:
        assert listing == fh.read()
