"""Denotational semantics: both step disciplines, read-back soundness."""

import os
import random
from fractions import Fraction

import pytest

from probfpc.cli import MODES
from probfpc.dist import Inl
from probfpc.delay import probterm_seq
from probfpc.densem import STANDARD, STEP_FAITHFUL, FoldV, Interp
from probfpc.opsem import Evaluator
from probfpc.parser import load_file, parse_term, parse_ty
from probfpc.syntax import App, Choice, FnT, Lam, NatT, Num, Pair, Star, Suc, Var
from probfpc.corpus import CATALOGUE, corpus, geo_loop, id_hes, y_comb

from conftest import EXAMPLES
from genlib import (
    EnvKeyInterp, frontier_widths, gen_ground_ty, gen_term, gen_value,
    is_ground_ty, prefix_eq, pretty, probterm, ref_free, soundness_check,
    step_of, unitize, value_part, walk_force_src,
)

NAT = NatT()
HALF = Fraction(1, 2)


# --- semantic values ----------------------------------------------------------

def test_val_interp_goldens():
    val = Interp().val
    assert val(Star()) == ()
    assert type(val(Num(3))) is int and val(Num(3)) == 3
    pair = val(parse_term("(1, inl[Nat + Unit] 2)"))
    assert pair == (1, Inl(2)) and type(pair[0]) is int
    f = val(Lam(NAT, Suc(Var(0))))
    assert callable(f)
    d = f(2)
    assert probterm(0, d) == 1
    cell = val(parse_term("fold[(mu X. Nat)] 3"))
    assert isinstance(cell, FoldV)
    assert cell.force() == 3


# --- step discipline ------------------------------------------------------------

def test_standard_mode_applications_are_silent():
    it = Interp(STANDARD)
    d = it.interp(parse_term("(fn x : Nat => suc x) 2"))
    assert probterm_seq(d, 2) == (1, 1, 1)
    sf = Interp(STEP_FAITHFUL)
    d2 = sf.interp(parse_term("(fn x : Nat => suc x) 2"))
    assert probterm_seq(d2, 2) == (0, 1, 1)


def test_unfold_fold_costs_one_step_in_both_modes():
    t = parse_term("unfold (fold[(mu X. Nat)] 5)")
    for mode in (STANDARD, STEP_FAITHFUL):
        d = Interp(mode).interp(t)
        assert probterm_seq(d, 2) == (0, 1, 1)


def test_recursion_unfolds_in_one_standard_step():
    # the only cost of a recursion round in standard mode is its unfold
    hes = Lam(FnT(NAT, NAT), Lam(NAT, Choice(HALF, Var(0), App(Var(1), Var(0)))))
    y = y_comb(NAT, NAT)
    it = Interp(STANDARD)
    lhs = it.interp(App(App(y, hes), Num(3)))
    rhs = it.interp(App(App(hes, App(y, hes)), Num(3)))
    assert prefix_eq(lhs, step_of(rhs), 8)


def test_standard_terminates_no_later_than_step_faithful():
    for src in (geo_loop(HALF), App(id_hes(HALF, NAT), Num(2)),
                unitize(geo_loop(Fraction(3, 4)), NAT)):
        f = probterm_seq(Interp(STANDARD).interp(src), 64)
        g = probterm_seq(Interp(STEP_FAITHFUL).interp(src), 64)
        assert all(a >= b for a, b in zip(f, g))


def test_interp_memoizes_per_term_and_env():
    it = Interp(STANDARD)
    t = parse_term("(fn x : Nat => suc x) 1")
    assert it.interp(t) is it.interp(t)
    assert prefix_eq(Interp(STANDARD).interp(t), Interp(STANDARD).interp(t), 16)
    # the key is the term and the env values at its free indices, here 0
    # and 1, the latter read inside a closure; index 2 is not free
    t = App(Lam(NAT, Pair(Var(0), Suc(Var(2)))), Var(0))
    for mode in (STANDARD, STEP_FAITHFUL):
        it = Interp(mode)
        d = it.interp(t, (5, 1, 2))
        assert it.interp(t, (9, 1, 2)) is d
        assert it.interp(t, ((), 1, 2)) is d
        assert it.interp(t, (5, 1, 7)) is not d
        other = it.interp(t, (5, 3, 2))
        assert other is not d
        assert value_part(other, 2)[1] == ((1, (2, 4)),)
        assert value_part(d, 2)[1] == ((1, (2, 2)),)
        assert it.interp(t, (5, 1, 2)) is d


def test_free_indices_match_the_reference():
    # every subterm the helper visits gets the free set genlib.ref_free
    # computes class by class, listed in ascending order
    rng = random.Random(76)
    for _ in range(300):
        ctx = tuple(gen_ground_ty(rng, 1) for _ in range(rng.randint(1, 4)))
        t = gen_term(rng, gen_ground_ty(rng, 2), ctx, 3)
        it = Interp()
        assert set(it._free_of(t)) == ref_free(t)
        for v, free in it._free.items():
            assert list(free) == sorted(ref_free(v))
    # no recursion: a term nested far past the recursion limit
    deep = Var(3)
    for _ in range(5000):
        deep = Suc(deep)
    assert Interp()._free_of(deep) == (3,)


def _sharing_programs():
    rng = random.Random(77)
    for _ in range(300):
        yield gen_term(rng, gen_ground_ty(rng, 2), (), 4), 12
    for name, _ in CATALOGUE:
        yield corpus(name), 60
    for name in sorted(n for n in os.listdir(EXAMPLES) if n.endswith(".pfpc")):
        yield load_file(os.path.join(EXAMPLES, name)), 60


def test_free_index_key_agrees_with_the_whole_env_key():
    # the whole-env key is the reference: the tables must be equal, and the
    # coarser key only merges thunks, so no level is wider
    for t, depth in _sharing_programs():
        for mode in (STANDARD, STEP_FAITHFUL):
            d, ref = Interp(mode).interp(t), EnvKeyInterp(mode).interp(t)
            assert probterm_seq(d, depth) == probterm_seq(ref, depth)
            widths = frontier_widths(d, depth)
            ref_widths = frontier_widths(ref, depth)
            assert all(a <= b for a, b in zip(widths, ref_widths))


# two functions whose inner lets differ only in binder type, written as
# annotated beta redexes; `pretty` prints them back as lets
LETPAIR_TYPED = (
    "(fn f : Unit + Unit -> Unit => (fn g : Unit + Nat -> Unit =>"
    " choice 1/2 (f (inl[Unit + Unit] *)) (g (inl[Unit + Nat] *)))"
    " (fn c : Unit + Nat =>"
    " (fn y : Unit + Nat => case y of { inl u => * ; inr u => * }) c))"
    " (fn b : Unit + Unit =>"
    " (fn y : Unit + Unit => case y of { inl u => * ; inr u => * }) b)")


def test_untyped_let_binders_run_alike():
    # reparsing the printed term turns every beta redex into a let whose
    # binder the parser leaves untyped.  No layer reads that binder, so the
    # tables are equal, and open terms that differ only there may share a
    # memo entry, which can only narrow a level
    for t, depth in _sharing_programs():
        u = parse_term(pretty(t))
        for run in MODES.values():
            d, e = run(t), run(u)
            assert probterm_seq(e, depth) == probterm_seq(d, depth)
            assert all(a <= b for a, b in zip(frontier_widths(e, depth),
                                               frontier_widths(d, depth)))
    typed = parse_term(LETPAIR_TYPED)
    steps = MODES["den-steps"]
    assert frontier_widths(steps(typed), 6) == [1, 1, 2, 2, 1, 0, 0]
    assert frontier_widths(steps(parse_term(pretty(typed))), 6) == \
        [1, 1, 2, 1, 1, 0, 0]


def test_den_frontier_is_no_wider_than_op_on_the_walk():
    # a force-6 observer of the two-step walk: branches reach one list cell
    # through different earlier cells, and op shares that cell's thunks.
    # den-steps levels line up with op's; standard den is silent on
    # applications and branches, so only its peak is comparable
    t = parse_term(walk_force_src(6))
    op = frontier_widths(Evaluator().eval(t), 80)
    steps = frontier_widths(Interp(STEP_FAITHFUL).interp(t), 80)
    den = frontier_widths(Interp(STANDARD).interp(t), 80)
    assert max(op) == 22
    assert all(a <= b for a, b in zip(steps, op))
    assert max(den) <= max(op)


# --- substitution lemma ----------------------------------------------------------

def test_substitution_lemma_at_observables():
    from probfpc.syntax import subst
    rng = random.Random(71)
    it = Interp(STANDARD)
    for _ in range(200):
        a = gen_ground_ty(rng, 1)
        ty = gen_ground_ty(rng, 2)
        m = gen_term(rng, ty, (a,), 3)
        v = gen_value(rng, a)
        left = it.interp(m, (it.val(v),))
        right = it.interp(subst(m, v))
        assert prefix_eq(left, right, 12)


# --- read-back soundness ----------------------------------------------------------

def test_soundness_examples():
    # the check is defined on ground types only
    assert is_ground_ty(parse_ty("Nat + Unit * Nat"))
    assert not is_ground_ty(parse_ty("Nat -> Nat"))
    assert not is_ground_ty(parse_ty("mu X. Nat"))
    assert soundness_check(Star(), 8)
    assert soundness_check(Choice(HALF, Num(0), Num(1)), 12)
    assert soundness_check(App(id_hes(HALF, NAT), Num(2)), 12)
    assert soundness_check(geo_loop(HALF), 12)
    with pytest.raises(TypeError):
        soundness_check(Lam(NAT, Var(0)), 8)


def test_soundness_on_random_first_order_programs():
    rng = random.Random(72)
    for _ in range(200):
        t = gen_term(rng, gen_ground_ty(rng, 2), (), 3)
        assert soundness_check(t, 8)


def test_op_and_den_list_ground_values_in_one_order():
    # refine traces list delivered values in canonical order on both sides:
    # op values sort by Term.dist_key, den values by key_of, and the two
    # orders must agree once op values are read back through Interp.val
    rng = random.Random(74)
    val = Interp().val
    for _ in range(200):
        t = gen_term(rng, gen_ground_ty(rng, 2), (), 3)
        op, den = Evaluator().eval(t), Interp(STEP_FAITHFUL).interp(t)
        for level in range(8):
            assert [(w, val(a)) for w, a in value_part(op, level)[1]] == \
                list(value_part(den, level)[1])
