"""End-to-end acceptance checks.

Each test pins one headline behavior at an explicit budget: exact closed
forms for the stock processes, convex rebalancing, the cost model of
recursion, read-back soundness, agreement of the two denotational step
disciplines, exactness of the derived fair coin, and the coupling-based
refinement verdicts on the hesitant identity and the two random-walk
presentations.
"""

import random
import time
from fractions import Fraction

from probfpc.dist import Inr, choice, dirac, dist_map
from probfpc.delay import eqlim_upto, probterm_seq, run
from probfpc.densem import STANDARD, STEP_FAITHFUL, Interp
from probfpc.opsem import Evaluator
from probfpc.parser import parse_term
from probfpc.relate import RelateCfg, refine_check
from probfpc.syntax import (
    App, BOOL_T, Choice, FnT, Lam, NatT, Num, Star, UnitT, Var, false_term,
    true_term,
)
from probfpc.typecheck import elaborate
from probfpc.corpus import (
    diverge_term, everysnd_term, fair_from, geo_loop, head_term, id_hes,
    randw2_fn, randw_fn, y_comb,
)

from genlib import (
    force_k, geo, geo_chain, omega_nat, prefix_eq, probterm, soundness_check,
    step_of, unitize, value_part,
)

NAT = NatT()
HALF = Fraction(1, 2)


def budget(started, seconds):
    assert time.monotonic() - started < seconds


def test_geometric_process_closed_form():
    started = time.monotonic()
    for p in (Fraction(1, 3), HALF, Fraction(2, 3)):
        d = geo(p)
        assert probterm(1, d) == 2 * p - p * p
        for n in range(11):
            assert probterm(n, d) == 1 - (1 - p) ** (n + 1)
    budget(started, 1)


def test_choice_rebalancing_identity_and_transport():
    started = time.monotonic()
    p = HALF
    a, b, c = dirac(0), dirac(1), dirac(2)
    lhs = choice(p, choice(p, a, b), choice(p, c, a))
    rhs = choice(2 * p * (1 - p), choice(HALF, b, c), a)
    assert dict((v, w) for w, v in lhs.entries) == {
        0: HALF, 1: Fraction(1, 4), 2: Fraction(1, 4)}
    assert lhs.entries == rhs.entries
    rng = random.Random(91)
    for _ in range(200):
        relabel = {0: (rng.randrange(100), 0), 1: Inr(rng.randrange(100)),
                   2: rng.randrange(100) + 10}.__getitem__
        assert dist_map(relabel, lhs).entries == dist_map(relabel, rhs).entries
    budget(started, 1)


def test_recursion_costs_four_operational_steps():
    started = time.monotonic()
    hes = Lam(FnT(NAT, NAT), Lam(NAT, Choice(HALF, Var(0), App(Var(1), Var(0)))))
    loop = Lam(FnT(UnitT(), UnitT()), Lam(UnitT(), App(Var(1), Var(0))))
    for f, arg, a, b in ((hes, Num(3), NAT, NAT),
                         (loop, Star(), UnitT(), UnitT())):
        y = y_comb(a, b)
        ev = Evaluator()
        lhs = ev.eval(App(App(y, f), arg))
        rhs = ev.eval(App(App(f, App(y, f)), arg))
        for _ in range(4):
            rhs = step_of(rhs)
        assert prefix_eq(lhs, rhs, 8)
    budget(started, 1)


def test_read_back_soundness_on_first_order_corpus():
    started = time.monotonic()
    programs = [
        geo_loop(HALF),
        geo_chain(Fraction(1, 3), 6),
        App(fair_from(Fraction(1, 3)), Star()),
        App(id_hes(HALF, NAT), Num(5)),
        parse_term("ifz (choice 1/2 0 1) then 3 else (suc (choice 1/2 1 2))"),
        parse_term("fst (choice 1/3 (1, 2) (3, 4))"),
        unitize(Choice(HALF, true_term(), false_term()), BOOL_T),
        diverge_term(),
        omega_nat(),
        App(force_k(1), App(randw2_fn(), Num(2))),
    ]
    assert len(programs) >= 10
    for t in programs:
        assert soundness_check(t, 12)
    budget(started, 10)


def test_step_disciplines_agree_in_the_limit():
    started = time.monotonic()
    programs = [
        Star(),
        diverge_term(),
        unitize(App(id_hes(Fraction(3, 4), NAT), Num(2)), NAT),
        unitize(geo_loop(Fraction(3, 4)), NAT),
        parse_term("let x = unfold (fold[(mu X. Unit)] *) in x"),
        App(force_k(1), App(randw2_fn(), Num(2))),
        unitize(Choice(HALF, true_term(), false_term()), BOOL_T),
    ]
    eps = Fraction(1, 1024)
    for t in programs:
        assert isinstance(elaborate(t), UnitT)
        f = probterm_seq(Interp(STANDARD).interp(t), 64)
        g = probterm_seq(Interp(STEP_FAITHFUL).interp(t), 64)
        assert eqlim_upto(f, g, eps)
    budget(started, 30)


def test_derived_fair_coin_is_exactly_fair():
    started = time.monotonic()
    rounds = 48
    for p in (Fraction(1, 3), Fraction(1, 4)):
        t = App(fair_from(p), Star())
        assert elaborate(t) == BOOL_T
        s = 2 * p * (1 - p)
        cur = Evaluator().eval(t)
        top = 11 + 10 * (rounds - 1)
        for n in range(top + 1):
            got = {v: w for w, v in value_part(cur, 0)[1]}
            assert got.get(true_term(), 0) == got.get(false_term(), 0)
            cur = run(cur)
        mass = probterm(top, Evaluator().eval(t))
        assert mass == 1 - (1 - s) ** rounds
        assert 1 - mass < Fraction(1, 1024)
    budget(started, 10)


def test_hesitant_identity_refines_the_identity():
    started = time.monotonic()
    p = Fraction(15, 16)
    ident = Lam(NAT, Var(0))
    hes = id_hes(p, NAT)
    cfg = RelateCfg(fuel=6, horizon=16, eps=Fraction(1, 256))
    a = refine_check(hes, ident, cfg)
    b = refine_check(ident, hes, cfg)
    assert a.holds and a.reason == "4 probes passed"
    assert b.holds and b.reason == "4 probes passed"
    d = Evaluator().eval(App(hes, Num(2)))
    assert probterm(7, d) == 0
    for k in range(1, 5):
        assert probterm(6 * k + 2, d) == 1 - (1 - p) ** k
    budget(started, 10)


def test_random_walk_presentations_coincide():
    started = time.monotonic()
    cfg = RelateCfg(fuel=4, horizon=64, eps=Fraction(1, 1024))
    for n in (2, 4):
        thin = App(everysnd_term(), App(randw_fn(), Num(n)))
        two = App(randw2_fn(), Num(n))
        a = refine_check(App(head_term(), thin), App(head_term(), two), cfg)
        b = refine_check(App(head_term(), two), App(head_term(), thin), cfg)
        assert a.holds and a.reason == "per-level couplings found"
        assert b.holds and b.reason == "per-level couplings found"
        for k in (1, 2, 3):
            f = probterm_seq(Evaluator().eval(App(force_k(k), thin)), 384)
            g = probterm_seq(Evaluator().eval(App(force_k(k), two)), 384)
            assert eqlim_upto(f, g, Fraction(1, 256))
    budget(started, 60)

