"""Finite distributions: canonical form, convex algebra, monad structure."""

import random
from fractions import Fraction

import pytest

from probfpc.delay import DelayThunk, now
from probfpc.dist import Dist, Inl, Inr, choice, dirac, dist_bind, dist_map, key_of
from probfpc.rational import ONE
from probfpc.syntax import Num, Pair, Star

PROBS = tuple(Fraction(k, 16) for k in range(1, 16))


def rand_dist(rng, atoms=(0, 1, 2, 3), size=None):
    """Random keyed distribution with exact weights summing to 1."""
    k = size if size is not None else rng.randrange(1, 5)
    ws = [Fraction(rng.randrange(1, 8)) for _ in range(k)]
    total = sum(ws)
    return Dist([(w / total, rng.choice(atoms)) for w in ws])


def same(mu, nu):
    """Equality of keyed distributions: canonical forms are equal."""
    return mu.entries == nu.entries


# --- canonical form ---------------------------------------------------------

def test_constructor_requires_normalization():
    with pytest.raises(ValueError):
        Dist([(Fraction(1, 2), 0)])
    with pytest.raises(ValueError):
        Dist([(Fraction(1, 2), 0), (Fraction(2, 3), 1)])


def test_keyed_entries_merge_and_sort():
    mu = Dist([(Fraction(1, 4), 3), (Fraction(1, 2), 0), (Fraction(1, 4), 3)])
    assert mu.entries == ((Fraction(1, 2), 0), (Fraction(1, 2), 3))


def test_zero_weight_entries_drop():
    mu = Dist([(Fraction(0), 99), (Fraction(1), 0)])
    assert mu.entries == ((Fraction(1), 0),)
    assert dirac("a").entries == ((Fraction(1), "a"),)


def test_negative_weights_are_rejected():
    # the weights sum to 1, but one lies outside (0,1]
    with pytest.raises(ValueError) as e:
        Dist([(Fraction(3, 2), 0), (Fraction(-1, 2), 1)])
    assert str(e.value) == "distribution weight must be positive, got -1/2"


def test_normalization_closed_under_construction():
    rng = random.Random(21)
    for _ in range(200):
        mu = rand_dist(rng)
        nu = rand_dist(rng)
        p = rng.choice(PROBS)
        out = choice(p, mu, nu)
        assert sum(w for w, _ in out.entries) == 1
        out2 = dist_bind(mu, lambda a: rand_dist(random.Random(a)))
        assert sum(w for w, _ in out2.entries) == 1


def test_unkeyed_entries_keep_formal_order_and_merge_by_identity():
    f = lambda: 0
    g = lambda: 0
    mu = Dist([(Fraction(1, 4), f), (Fraction(1, 2), g), (Fraction(1, 4), f)])
    assert mu.entries == ((Fraction(1, 2), f), (Fraction(1, 2), g))
    assert key_of(f) is None


def test_only_ints_tuples_sums_and_terms_are_keyed():
    # a bool is an int to Python but not a semantic natural: it is unkeyed,
    # never silently keyed as 0 or 1
    assert key_of(0) == ("int", 0)
    for x in (True, False, "a", Fraction(1, 2), (0, True), Inl("a")):
        assert key_of(x) is None, x


def test_injections_differ_by_side_alone():
    for x in (0, (), (1, (2,)), Inl(3), "a"):
        assert Inl(x) == Inl(x) and Inr(x) == Inr(x) and Inl(x) != Inr(x)
        assert hash(Inl(x)) == hash(("inl", x))
        assert hash(Inr(x)) == hash(("inr", x))
        assert repr(Inl(x)) == "Inl(%r)" % (x,)
        assert repr(Inr(x)) == "Inr(%r)" % (x,)
    assert key_of(Inr(())) == ("inr", ("tuple", ()))
    assert sorted([Inr(0), Inl(1), Inr(Inl(0)), Inl(0)], key=key_of) == \
        [Inl(0), Inl(1), Inr(Inl(0)), Inr(0)]


# --- convex algebra laws ----------------------------------------------------

def test_choice_idempotent():
    rng = random.Random(22)
    for _ in range(200):
        mu = rand_dist(rng)
        assert same(choice(rng.choice(PROBS), mu, mu), mu)


def test_choice_commutes_with_complement():
    rng = random.Random(23)
    for _ in range(200):
        mu, nu = rand_dist(rng), rand_dist(rng)
        p = rng.choice(PROBS)
        assert same(choice(p, mu, nu), choice(1 - p, nu, mu))


def test_choice_associates_via_assoc_coeff():
    # q (+) (p (+) (a, b), c)  =  pq (+) (a, (q - pq)/(1 - pq) (+) (b, c))
    rng = random.Random(24)
    for _ in range(200):
        a, b, c = (rand_dist(rng) for _ in range(3))
        p, q = rng.choice(PROBS), rng.choice(PROBS)
        lhs = choice(q, choice(p, a, b), c)
        rhs = choice(p * q, a, choice((q - p * q) / (1 - p * q), b, c))
        assert same(lhs, rhs)


def test_nested_choice_rebalancing_identity():
    # choice(p, choice(p, a, b), choice(p, c, a))
    #   = choice(2p(1-p), choice(1/2, b, c), a)
    p = Fraction(1, 2)
    a, b, c = dirac(0), dirac(1), dirac(2)
    lhs = choice(p, choice(p, a, b), choice(p, c, a))
    assert dict((v, w) for w, v in lhs.entries) == {
        0: Fraction(1, 2), 1: Fraction(1, 4), 2: Fraction(1, 4)}
    rhs = choice(2 * p * (1 - p), choice(Fraction(1, 2), b, c), a)
    assert same(lhs, rhs)
    rng = random.Random(25)
    for _ in range(200):
        p = rng.choice(PROBS)
        atoms = rng.sample([Inr(0), Inr(1), (), (0,), (1,), 0, 1, 2], 3)
        a, b, c = (dirac(x) for x in atoms)
        lhs = choice(p, choice(p, a, b), choice(p, c, a))
        rhs = choice(2 * p * (1 - p), choice(Fraction(1, 2), b, c), a)
        assert same(lhs, rhs)


# --- monad structure --------------------------------------------------------

def test_monad_laws():
    rng = random.Random(26)
    fs = {a: rand_dist(random.Random(100 + a)) for a in range(4)}
    gs = {a: rand_dist(random.Random(200 + a)) for a in range(4)}
    f, g = fs.__getitem__, gs.__getitem__
    for _ in range(200):
        mu = rand_dist(rng)
        a = rng.randrange(4)
        assert same(dist_bind(dirac(a), f), f(a))
        assert same(dist_bind(mu, dirac), mu)
        assert same(dist_bind(dist_bind(mu, f), g),
                       dist_bind(mu, lambda x: dist_bind(f(x), g)))


def test_bind_is_a_convex_homomorphism():
    rng = random.Random(27)
    fs = {a: rand_dist(random.Random(300 + a)) for a in range(4)}
    f = fs.__getitem__
    for _ in range(200):
        mu, nu = rand_dist(rng), rand_dist(rng)
        p = rng.choice(PROBS)
        assert same(dist_bind(choice(p, mu, nu), f),
                       choice(p, dist_bind(mu, f), dist_bind(nu, f)))


def test_map_functoriality():
    rng = random.Random(28)
    f = lambda a: a + 10
    g = lambda a: (0, a)
    for _ in range(200):
        mu = rand_dist(rng)
        assert same(dist_map(g, dist_map(f, mu)),
                       dist_map(lambda a: g(f(a)), mu))
        assert same(dist_map(lambda a: a, mu), mu)


def test_two_paired_fair_coins_are_uniform():
    coin = choice(Fraction(1, 2), dirac(0), dirac(1))
    both = dist_bind(coin, lambda x: dist_map(lambda y: (x, y), coin))
    assert dict((v, w) for w, v in both.entries) == {
        (x, y): Fraction(1, 4) for x in (0, 1) for y in (0, 1)}



# --- the trusted unit and the unit-law bind ----------------------------------

def element_pool(rng, n=200):
    """Keyed (ints, tuples, sums, terms), unkeyed (closures, thunks) and
    Inl/Inr-wrapped elements, mixed at random."""
    base = [0, 3, (), (1, (2,)), Inr(5), Star(), Num(4),
            Pair(Num(1), Star()), (lambda: 0), DelayThunk(lambda: now(0))]
    pool = []
    for _ in range(n):
        x = rng.choice(base)
        r = rng.random()
        pool.append(Inl(x) if r < 0.3 else Inr(x) if r < 0.6 else x)
    return pool


def test_dirac_is_the_canonical_one_entry_node():
    pool = element_pool(random.Random(29))
    assert any(key_of(a) is None for a in pool)
    assert any(isinstance(a, (Inl, Inr)) and key_of(a) is not None for a in pool)
    for a in pool:
        d = dirac(a)
        assert type(d) is Dist
        assert d.entries == Dist([(ONE, a)]).entries
        (w, v), = d.entries
        assert type(w) is Fraction and w == 1 and v is a


def test_two_point_choice_is_the_general_choice():
    # a choice between one-entry sides builds its node from (p, a) and
    # (1-p, b) as they are: the general path's entries, in its order, with
    # its merges into one entry of weight 1 and the very objects it keeps
    pool = element_pool(random.Random(31))
    rng = random.Random(32)
    merged = 0
    for _ in range(400):
        a = rng.choice(pool)
        b = a if rng.randrange(4) == 0 else rng.choice(pool)
        mu = dirac(a)
        nu = rng.choice((dirac(b), Dist([(Fraction(1, 3), b), (Fraction(2, 3), b)])))
        p = rng.choice(PROBS)
        got = choice(p, mu, nu)
        want = Dist([(p * w, v) for w, v in mu.entries]
                    + [((1 - p) * w, v) for w, v in nu.entries])
        assert type(got) is Dist
        assert [(type(w), w, id(v)) for w, v in got.entries] == \
            [(type(w), w, id(v)) for w, v in want.entries]
        merged += len(got.entries) == 1 and key_of(a) is None
    assert merged >= 20, merged


def test_trusted_dirac_is_immutable():
    d = dirac(0)
    with pytest.raises(AttributeError):
        d.entries = ((Fraction(1, 2), 0), (Fraction(1, 2), 1))
    with pytest.raises(AttributeError):
        d.other = 1
    assert d.entries == ((ONE, 0),)


def test_bind_over_one_entry_is_the_continuations_node():
    pool = element_pool(random.Random(30))
    results = {}

    def f(a):
        if id(a) not in results:
            results[id(a)] = (rand_dist(random.Random(id(a) % 97)), a)
        return results[id(a)][0]

    for a in pool:
        assert dist_bind(dirac(a), f) is f(a)
    one = Dist([(Fraction(1, 3), 5), (Fraction(2, 3), 5)])
    assert len(one.entries) == 1 and dist_bind(one, f) is f(5)


def test_bind_over_one_entry_checks_a_foreign_node():
    class HalfNode:
        entries = ((Fraction(1, 2), 0),)

    class WholeNode:
        entries = ((Fraction(1, 4), 1), (Fraction(3, 4), 0))

    with pytest.raises(ValueError) as e:
        dist_bind(dirac(7), lambda a: HalfNode())
    assert str(e.value) == "distribution weights sum to 1/2, not 1"
    out = dist_bind(dirac(7), lambda a: WholeNode())
    assert type(out) is Dist
    assert out.entries == ((Fraction(3, 4), 0), (Fraction(1, 4), 1))


def test_two_entry_bind_merges_keyed_results():
    coin = choice(Fraction(1, 2), dirac(0), dirac(1))
    x, y = Inl(()), Inr(())
    both = {0: Dist([(Fraction(1, 4), x), (Fraction(3, 4), y)]),
            1: Dist([(Fraction(1, 2), Inr(())), (Fraction(1, 2), Inl(()))])}
    out = dist_bind(coin, both.__getitem__)
    assert out is not both[0] and out is not both[1]
    assert out.entries == ((Fraction(3, 8), x), (Fraction(5, 8), y))
    assert dist_bind(coin, lambda a: dirac(())).entries == ((ONE, ()),)
