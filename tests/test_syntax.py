"""Node definitions: the field-driven constructor, the cached sort key, and
the generic traversals, each checked against a class-by-class reference."""

import random
from fractions import Fraction

import pytest

from probfpc.syntax import (
    App, Case, Choice, Fold, FnT, Fst, Ifz, Inj, Lam, MuT, NatT, Num, Pair,
    Pred, ProdT, Snd, Star, Suc, SumT, Term, TVarT, Ty, Unfold, UnitT, Var,
    mu_unfold, subst, ty_closed, ty_shift, ty_subst,
)
from probfpc.parser import parse_term

from genlib import (
    gen_ground_ty, gen_term, gen_value, pretty, ref_free, ref_fv, ref_key,
    ref_subst, ref_ty_closed, ref_ty_shift, ref_ty_subst,
)

CASES = 300
LIST_NAT = MuT(SumT(UnitT(), ProdT(NatT(), TVarT(0))))


def binders_in(t):
    """How many Case and Lam nodes t contains."""
    kids = [getattr(t, n) for n in t._fields]
    return isinstance(t, (Case, Lam)) + sum(binders_in(c) for c in kids
                                            if isinstance(c, Term))


def wrap(rng, t):
    """Wrap t in the formers the typed generator never emits."""
    r = rng.random()
    if r < 0.2:
        return Pred(t)
    if r < 0.4:
        return Unfold(Fold(t, LIST_NAT))
    return t


def gen_mu_ty(rng, bound, depth):
    """A type with nested mu binders; variables reach up to two past the
    `bound` enclosing binders, so some are free."""
    r = rng.random()
    if depth <= 0 or r < 0.25:
        if rng.random() < 0.5:
            return TVarT(rng.randrange(bound + 2))
        return gen_ground_ty(rng, 1)
    if r < 0.55:
        return MuT(gen_mu_ty(rng, bound + 1, depth - 1))
    cls = rng.choice((ProdT, SumT, FnT))
    return cls(gen_mu_ty(rng, bound, depth - 1), gen_mu_ty(rng, bound, depth - 1))


def mu_depth(t):
    """The largest number of mu binders on one path of t."""
    kids = [getattr(t, n) for n in t._fields]
    return isinstance(t, MuT) + max((mu_depth(c) for c in kids if isinstance(c, Ty)),
                                    default=0)


def seeded_terms(rng):
    """(term, value, index) triples as the substitution test draws them:
    open terms over a two-variable context, some under binders."""
    out = []
    for _ in range(CASES):
        ctx = (gen_ground_ty(rng, 1), gen_ground_ty(rng, 1))
        t = wrap(rng, gen_term(rng, gen_ground_ty(rng, 2), ctx, rng.randrange(1, 5)))
        k = rng.randrange(3)
        v = gen_value(rng, ctx[-1 - k] if k < 2 else gen_ground_ty(rng, 1))
        out.append((t, v, k))
    return out


def subterms(t):
    yield t
    for n in t._fields:
        c = getattr(t, n)
        if isinstance(c, t._sort):
            yield from subterms(c)


def test_subst_matches_reference():
    rng = random.Random(71)
    under_binders = 0
    for t, v, k in seeded_terms(rng):
        got, want = subst(t, v, k), ref_subst(t, v, k)
        assert ref_key(got) == ref_key(want) and got == want
        under_binders += binders_in(t) > 0
    assert under_binders > CASES // 4


def test_type_substitution_matches_reference():
    rng = random.Random(72)
    nested = 0
    for _ in range(CASES):
        t = gen_mu_ty(rng, 0, 5)
        s = gen_mu_ty(rng, 0, 2)
        j, d = rng.randrange(3), rng.randrange(1, 3)
        assert ref_key(ty_subst(t, s, j)) == ref_key(ref_ty_subst(t, s, j))
        assert ref_key(ty_shift(t, d, j)) == ref_key(ref_ty_shift(t, d, j))
        assert ty_closed(t, j) == ref_ty_closed(t, j)
        mu = t if isinstance(t, MuT) else MuT(t)
        assert ref_key(mu_unfold(mu)) == ref_key(ref_ty_subst(mu.body, mu, 0))
        nested += mu_depth(mu) >= 2
    assert nested > CASES // 4


def test_free_index_bound_matches_reference():
    rng = random.Random(75)
    terms = [t for t, _, _ in seeded_terms(rng)]
    types = [gen_mu_ty(rng, 0, 5) for _ in range(CASES)]
    seen = set()
    for top in terms + types:
        for u in subterms(top):
            assert u._fv == ref_fv(u)
            assert list(u.free) == sorted(ref_free(u))
            seen.add(u._fv)
    assert {0, 1, 2, 3} <= seen
    # annotations are types, so they never raise a term's bound
    assert Inj("l", Star(), SumT(TVarT(4), UnitT()))._fv == 0
    assert Lam(TVarT(3), Var(1))._fv == 1 and Fold(Var(0), TVarT(6))._fv == 1


def test_traversals_return_closed_nodes_unchanged():
    rng = random.Random(76)
    same = 0
    for t, v, k in seeded_terms(rng):
        for j in range(4):
            if t._fv <= j:
                assert subst(t, v, j) is t
                same += 1
            else:
                assert subst(t, v, j) is not t
    for _ in range(CASES):
        t, s = gen_mu_ty(rng, 0, 5), gen_mu_ty(rng, 0, 2)
        for j in range(4):
            if t._fv <= j:
                assert ty_shift(t, 1 + j % 2, j) is t and ty_subst(t, s, j) is t
                same += 1
            else:
                assert ty_shift(t, 1, j) is not t and ty_subst(t, s, j) is not t
    assert same > CASES


def test_subst_shares_closed_subterms():
    def check(t, r, k):
        """Every subterm of t closed at its depth comes back as itself."""
        if t._fv <= k:
            assert r is t
            return 1
        if isinstance(t, Var):
            return 0
        assert type(r) is type(t)
        return sum(check(getattr(t, n), getattr(r, n),
                         k + 1 if n in t._binders else k)
                   for n in t._fields if isinstance(getattr(t, n), Term))

    rng = random.Random(77)
    shared = 0
    for t, v, k in seeded_terms(rng):
        shared += check(t, subst(t, v, k), k)
    assert shared > CASES
    closed = Lam(UnitT(), Pair(Var(0), Num(3)))
    body = Pair(Var(0), App(closed, Var(1)))
    r = subst(body, Star(), 0)
    assert r == Pair(Star(), App(closed, Var(0))) and r.b.fn is closed


def test_sort_order_matches_reference_key():
    rng = random.Random(73)
    terms = [gen_term(rng, gen_ground_ty(rng, 1), (), rng.randrange(3))
             for _ in range(CASES)]
    # reparsing prints beta redexes as lets with untyped binders, so None
    # and a type meet at the same field
    terms += [parse_term(pretty(t)) for t in terms[::2]]
    terms = [wrap(rng, t) for t in terms]
    got = sorted(terms, key=lambda t: t.dist_key())
    want = sorted(terms, key=lambda t: ("term", ref_key(t)))
    assert [id(t) for t in got] == [id(t) for t in want]
    assert len({ref_key(t) for t in terms}) < len(terms)     # ties do occur


def test_equality_is_reference_key_equality():
    # two independently built pools from the same seeds: equal terms are
    # distinct objects, and small depths make unrelated seeds collide too
    def pool():
        terms = []
        for s in range(40):
            rng = random.Random(s)
            terms.append(wrap(rng, gen_term(rng, gen_ground_ty(rng, 1), (), s % 3)))
        return terms
    a, b = pool(), pool()
    equal = 0
    for x in a:
        for y in b:
            same = ref_key(x) == ref_key(y)
            assert (x == y) == same and (x != y) != same
            if same:
                assert hash(x) == hash(y)
                equal += 1
    assert equal > len(a)
    # a let binder's missing type is unequal to any type, and comparable
    untyped, typed = Lam(None, Var(0)), Lam(UnitT(), Var(0))
    assert untyped != typed and untyped.dist_key() != typed.dist_key()
    assert sorted([typed, untyped], key=Term.dist_key) == [untyped, typed]
    assert Num(1) != Var(1) and Num(1) != 1


def test_wrong_field_count_is_a_type_error():
    rng = random.Random(74)
    classes = (UnitT, NatT, ProdT, SumT, FnT, MuT, TVarT, Star, Var, Suc, Pred,
               Ifz, Pair, Fst, Snd, Case, Lam, App, Fold, Unfold)
    for _ in range(CASES):
        cls = rng.choice(classes)
        n = len(cls._fields)
        count = rng.choice([c for c in range(n + 3) if c != n])
        with pytest.raises(TypeError):
            cls(*[Star()] * count)
    for cls in (Num, Inj, Choice):
        with pytest.raises(TypeError):
            cls()
    # applications and case analyses carry no annotation
    with pytest.raises(TypeError):
        App(Var(0), Star(), UnitT())
    with pytest.raises(TypeError):
        Case(Var(0), Star(), Star(), SumT(UnitT(), UnitT()))
    assert Pair(Star(), Num(2), pos=(3, 4)).pos == (3, 4)
    with pytest.raises(ValueError):
        Num(-1)
    with pytest.raises(ValueError):
        Inj("m", Star(), SumT(UnitT(), UnitT()))
    assert Choice("1/3", Star(), Star()).p == Fraction(1, 3)
