"""Operational semantics: cost model, determinism, subject reduction."""

import random
from fractions import Fraction

from probfpc.delay import eqlim_upto, probterm_seq, run
from probfpc.dist import choice
from probfpc.densem import STEP_FAITHFUL, Interp
from probfpc.opsem import Evaluator
from probfpc.parser import parse_term
from probfpc.syntax import (
    App, Choice, FnT, Lam, NatT, Num, Pair, Star, Suc, UnitT, Var, false_term,
    subst, true_term,
)
from probfpc.typecheck import elaborate
from probfpc.corpus import diverge_term, fair_from, geo_loop, id_hes, y_comb
from probfpc.syntax import BOOL_T

from genlib import (
    gen_ground_ty, gen_term, geo, geo_chain, prefix_eq, probterm,
    soundness_check, step_of, typecheck, unitize, value_part,
)

NAT = NatT()
HALF = Fraction(1, 2)


def elab(t):
    return elaborate(t)[0]


def eval_probterm(t, depth):
    """Termination sequence of t's evaluation, depths 0..depth."""
    return probterm_seq(Evaluator().eval(elab(t)), depth)


def delivered(d, n):
    """Unwrapped value terms present after n runs."""
    return [v for _, v in value_part(d, n)[1]]


# --- values and the step sites ------------------------------------------------

def test_values_evaluate_to_now():
    ev = Evaluator()
    for src in ("*", "3", "fn x : Nat => x", "(1, 2)", "inl[Nat + Unit] 0"):
        t = elab(parse_term(src))
        d = ev.eval(t)
        assert probterm(0, d) == 1
        assert delivered(d, 0) == [t]


def test_choice_clause():
    ev = Evaluator()
    m, n = Num(1), Num(2)
    d = ev.eval(elab(Choice(HALF, m, n)))
    assert prefix_eq(d, choice(HALF, ev.eval(m), ev.eval(n)), 8)


def test_beta_value_costs_one_step():
    ev = Evaluator()
    lam = elab(Lam(NAT, Suc(Var(0))))
    d = ev.eval(elab(App(lam, Num(2))))
    assert prefix_eq(d, step_of(ev.eval(subst(lam.body, Num(2)))), 8)
    assert probterm_seq(d, 2) == (0, 1, 1)


def test_case_branch_costs_one_step():
    ev = Evaluator()
    t = elab(parse_term(
        "case inl[Nat + Unit] 2 of { inl n => suc n ; inr u => 0 }"))
    d = ev.eval(t)
    assert probterm_seq(d, 2) == (0, 1, 1)
    assert delivered(d, 1) == [Num(3)]


def test_unfold_fold_costs_one_step():
    ev = Evaluator()
    t = elab(parse_term("unfold (fold[(mu X. Nat)] 5)"))
    d = ev.eval(t)
    assert probterm_seq(d, 2) == (0, 1, 1)
    assert delivered(d, 1) == [Num(5)]


def test_pair_with_a_non_value_component():
    t = parse_term("(choice 1/2 0 1, 2)")
    d = Evaluator().eval(elab(t))
    assert probterm(0, d) == 1
    assert delivered(d, 0) == [Pair(Num(0), Num(2)), Pair(Num(1), Num(2))]
    assert soundness_check(t, 4)


def test_fold_of_a_non_value_unfolds_in_one_step():
    t = elab(parse_term("unfold (fold[mu X. Nat] (choice 1/2 0 1))"))
    d = Evaluator().eval(t)
    den = probterm_seq(Interp(STEP_FAITHFUL).interp(t), 3)
    assert probterm_seq(d, 3) == den == (0, 1, 1, 1)
    assert delivered(d, 1) == [Num(0), Num(1)]


def test_ifz_and_arithmetic_are_silent():
    # only application, case, and unfold-of-fold cost steps
    ev = Evaluator()
    for src, want in (("ifz 0 then 1 else 2", Num(1)),
                      ("ifz 3 then 1 else 2", Num(2)),
                      ("suc 2", Num(3)),
                      ("pred 3", Num(2)),
                      ("pred 0", Num(0)),
                      ("fst (1, 2)", Num(1)),
                      ("snd (1, 2)", Num(2))):
        d = ev.eval(elab(parse_term(src)))
        assert probterm(0, d) == 1, src
        assert delivered(d, 0) == [want], src


def test_recursion_unfolds_in_four_steps():
    # (Y f) V reaches f (Y f) V after the three applications and one unfold
    hes = Lam(FnT(NAT, NAT), Lam(NAT, Choice(HALF, Var(0), App(Var(1), Var(0)))))
    loop = Lam(FnT(UnitT(), UnitT()), Lam(UnitT(), App(Var(1), Var(0))))
    for f, arg, a, b in ((hes, Num(3), NAT, NAT),
                         (loop, Star(), UnitT(), UnitT())):
        y = y_comb(a, b)
        ev = Evaluator()
        lhs = ev.eval(elab(App(App(y, f), arg)))
        rhs = ev.eval(elab(App(App(f, App(y, f)), arg)))
        for _ in range(4):
            rhs = step_of(rhs)
        assert prefix_eq(lhs, rhs, 8)


# --- determinism and sharing ---------------------------------------------------

def test_evaluation_is_deterministic():
    programs = [geo_loop(HALF), unitize(App(fair_from(Fraction(1, 3)), Star()),
                                        BOOL_T),
                App(id_hes(HALF, NAT), Num(2)), geo_chain(Fraction(1, 3), 6)]
    for t in programs:
        t2 = elab(t)
        a = Evaluator().eval(t2)
        b = Evaluator().eval(t2)
        assert prefix_eq(a, b, 16)


def test_evaluator_memoizes_closed_terms():
    ev = Evaluator()
    t = elab(parse_term("(fn x : Nat => suc x) 1"))
    assert ev.eval(t) is ev.eval(t)


def test_shared_recursion_keeps_nodes_narrow():
    t2 = elab(unitize(App(fair_from(HALF), Star()), BOOL_T))
    cur = Evaluator().eval(t2)
    for _ in range(100):
        assert len(cur.entries) <= 8
        cur = run(cur)


# --- subject reduction ----------------------------------------------------------

def test_value_leaves_typecheck_at_the_program_type():
    rng = random.Random(61)
    checked = set()
    for _ in range(200):
        t = gen_term(rng, gen_ground_ty(rng, 2), (), 3)
        t2, ty = elaborate(t)
        d = Evaluator().eval(t2)
        for n in range(17):
            for v in delivered(d, n):
                if (v, ty) not in checked:
                    assert typecheck(v) == ty
                    checked.add((v, ty))
    assert checked


def test_corpus_value_leaves_typecheck():
    for t in (geo_loop(HALF), App(id_hes(HALF, NAT), Num(2)),
              App(fair_from(Fraction(1, 3)), Star())):
        t2, ty = elaborate(t)
        d = Evaluator().eval(t2)
        for v in delivered(d, 16):
            assert typecheck(v) == ty


# --- termination probabilities ---------------------------------------------------

def test_probterm_star_and_diverge():
    assert eval_probterm(Star(), 8) == (1,) * 9
    assert eval_probterm(diverge_term(), 16) == (0,) * 17


def test_geo_loop_round_structure():
    seq = eval_probterm(geo_loop(HALF), 10)
    assert seq[:5] == (0, 0, HALF, HALF, HALF)
    for k in range(3):
        assert seq[2 + 3 * k] == 1 - HALF ** (k + 1)


def test_geo_chain_one_step_per_level():
    for p in (Fraction(1, 3), HALF):
        seq = eval_probterm(geo_chain(p, 12), 14)
        for n in range(12):
            assert seq[n] == 1 - (1 - p) ** (n + 1)
        assert seq[12] == seq[13] == 1 - (1 - p) ** 12


def test_geo_loop_approaches_the_abstract_process():
    f = eval_probterm(geo_loop(HALF), 32)
    g = probterm_seq(geo(HALF), 32)
    assert eqlim_upto(f, g, Fraction(1, 1024))


def test_fair_coin_is_balanced_every_depth():
    p = Fraction(1, 3)
    t2, ty = elaborate(App(fair_from(p), Star()))
    assert ty == BOOL_T
    d = Evaluator().eval(t2)
    s = 2 * p * (1 - p)
    for n in range(0, 41):
        _, vals = value_part(d, n)
        got = {v: w for w, v in vals}
        tv, fv = got.get(true_term(), 0), got.get(false_term(), 0)
        assert tv == fv
    for k in range(4):
        assert probterm(11 + 10 * k, d) == 1 - (1 - s) ** (k + 1)
