"""Couplings, relational lifting, and the refinement checkers."""

import itertools
import json
import random
from collections import Counter
from fractions import Fraction

import pytest

from probfpc.dist import Dist, Inl, Inr, choice
from probfpc.delay import (
    DelayThunk, Frontier, delay_bind, leqlim_upto, now, probterm_seq, step_fn,
)
from probfpc.densem import FoldV
from probfpc import relate
from probfpc.relate import (
    RelateCfg, _max_flow, default_probes, lift_check, logrel_val, refine_check,
)
from probfpc.syntax import BOOL_T, Fold, Inj, Lam, NatT, Num, Star, UnitT, Var
from probfpc.parser import parse_term, parse_ty
from probfpc.typecheck import TypecheckError
from probfpc.corpus import diverge_term, id_hes, y_comb

from genlib import (
    OPAQUE, geo, hesitant, hesitant_loop, pooled_delay, random_delay,
    ref_lift_check, ref_max_flow, run_n, step_of, twin_loop,
)

NAT = NatT()
HALF = Fraction(1, 2)
eq = lambda a, b: a == b


# --- the exact max-flow coupling ---------------------------------------------

def test_coupling_trivial_and_golden():
    assert _max_flow([(Fraction(1), "a")], [(Fraction(1), "a")], eq) == \
        (1, {(0, 0): 1})
    mu = [(HALF, "a"), (HALF, "b")]
    nu = [(Fraction(3, 4), "a"), (Fraction(1, 4), "b")]
    assert _max_flow(mu, nu, eq) == \
        (Fraction(3, 4), {(0, 0): HALF, (1, 1): Fraction(1, 4)})
    assert _max_flow(mu, nu, lambda a, b: False) == (0, {})


def test_coupling_marginals_are_exact():
    # every edge carries positive flow along rel; no left entry sends more
    # than its supply, no right entry takes more than its capacity, and the
    # edges sum to the flow value
    rng = random.Random(81)
    for _ in range(200):
        mu, nu, rel = rand_instance(rng)
        left = list(mu.entries)
        value, flow = _max_flow(left, nu, rel)
        sent, got = {}, {}
        for (i, j), f in flow.items():
            assert f > 0 and rel(left[i][1], nu[j][1])
            sent[i] = sent.get(i, 0) + f
            got[j] = got.get(j, 0) + f
        assert all(f <= left[i][0] for i, f in sent.items())
        assert all(f <= nu[j][0] for j, f in got.items())
        assert sum(flow.values()) == value


def rand_instance(rng):
    """Coupling instance with supports <= 3x3 and denominators <= 6."""
    k = rng.randrange(1, 4)
    cuts = sorted(rng.sample(range(1, 6), k - 1)) if k > 1 else []
    parts = [b - a for a, b in zip([0] + cuts, cuts + [6])]
    atoms = rng.sample(range(5), 3)
    mu = Dist([(Fraction(p, 6), atoms[i]) for i, p in enumerate(parts)])
    m = rng.randrange(1, 4)
    nu = [(Fraction(rng.randrange(1, 4), 6), rng.choice(atoms)) for _ in range(m)]
    while sum(w for w, _ in nu) > 1:
        nu = nu[:-1]
    table = {(a, b): rng.random() < 0.6 for a in atoms for b in atoms}
    rel = lambda a, b: table[(a, b)]
    return mu, nu, rel


def oracle_matched(mu, nu, rel):
    """Best transportable mass, by the supply-demand deficiency formula:
    total supply minus the worst Hall deficiency over left subsets."""
    left = list(mu.entries)
    caps = {}
    for w, b in nu:
        caps[b] = caps.get(b, Fraction(0)) + w
    total = sum(w for w, _ in left)
    worst = Fraction(0)
    for r in range(1, len(left) + 1):
        for sub in itertools.combinations(left, r):
            supply = sum(w for w, _ in sub)
            reach = {b for b in caps if any(rel(a, b) for _, a in sub)}
            deficit = supply - sum(caps[b] for b in reach)
            if deficit > worst:
                worst = deficit
    return total - worst


def test_coupling_against_deficiency_oracle():
    rng = random.Random(82)
    for _ in range(200):
        mu, nu, rel = rand_instance(rng)
        assert _max_flow(list(mu.entries), nu, rel)[0] == oracle_matched(mu, nu, rel)


def test_coupling_matches_the_reference_flow():
    # value and flow items in order, so the augmenting paths are the same:
    # up to 6x6 entries, empty sides, and relations from empty to full,
    # over small denominators and ones of 40 and more bits
    rng = random.Random(88)
    dens = ((6,), (2, 3, 4), (7, 12, 35), (1 << 40, 3 ** 30, 10 ** 15))
    seen = Counter()
    for _ in range(20000):
        n, m = rng.randrange(7), rng.randrange(7)
        den = rng.choice(dens)
        left, right = ([(Fraction(rng.randrange(1, 9), rng.choice(den)),
                         rng.randrange(4)) for _ in range(k)] for k in (n, m))
        density = rng.choice((0, 1, rng.random()))
        table = {(a, b): rng.random() < density for a in range(4) for b in range(4)}
        rel = lambda a, b: table[(a, b)]
        value, flow = _max_flow(left, right, rel)
        want_value, want_flow = ref_max_flow(left, right, rel)
        assert value == want_value and type(value) is Fraction
        assert list(flow.items()) == list(want_flow.items())
        seen["empty side"] += not (n and m)
        seen["no pair"] += n and m and density == 0
        seen["every pair"] += n and m and density == 1
        seen["several paths"] += len(flow) >= 3
    for case in ("empty side", "no pair", "every pair", "several paths"):
        assert seen[case] >= 1000, seen


# --- lift_check -----------------------------------------------------------------

def never():
    return step_fn(never)


def test_lift_basics():
    v = lift_check(now(0), now(0), eq, 1, 0, 0)
    assert v.holds and v.reason == "value part coupled"
    assert not lift_check(now(0), now(1), eq, 4, 4, 0).holds
    v0 = lift_check(now(0), now(1), eq, 0, 4, 0)
    assert v0.holds and "fuel" in v0.reason
    assert lift_check(now(0), step_of(step_of(now(0))), eq, 4, 4, 0).holds


def test_lift_hesitant_golden():
    v = lift_check(now(0), hesitant(HALF, 0), eq, 4, 8, Fraction(1, 16))
    assert v.holds
    assert v.trace["m"] == 4
    short = lift_check(now(0), hesitant(HALF, 0), eq, 4, 2, Fraction(1, 16))
    assert not short.holds and short.reason == "no coupling within horizon"


def test_lift_divergent_left_holds_by_guardedness():
    assert lift_check(never(), now(0), eq, 6, 4, 0).holds
    assert lift_check(never(), never(), eq, 6, 4, 0).holds
    assert not lift_check(now(0), never(), eq, 4, 8, 0).holds


def test_lift_trace_schema_and_stability():
    mk = lambda: lift_check(choice(HALF, now(0), step_of(now(1))),
                            choice(HALF, now(0), step_of(now(1))),
                            eq, 3, 4, 0)
    v = mk()
    assert v.holds and v.reason == "per-level couplings found"
    assert v.trace["case"] == "mixed"
    for key in ("fuel", "m", "value_mass", "flow", "coupled_pairs", "child"):
        assert key in v.trace
    assert json.dumps(mk().to_json()) == json.dumps(mk().to_json())
    assert v.holds is True and "Holds" in repr(v)


def _leaf(trace):
    """The record that ended the chain, and how many levels lead to it."""
    links = 0
    while "child" in trace:
        trace = trace["child"]
        links += 1
    return trace, links


def test_lift_loop_matches_the_recursive_reference():
    # verdict, reason and the whole trace, key order included, at fuel 0-5,
    # horizon 0-8 and two slacks; the random right sides are a copy of the
    # left, the copy one step later, or an unrelated tree
    rng = random.Random(87)
    pairs = []
    for i in range(24):
        seed = rng.randrange(10 ** 6)
        copy = random_delay(random.Random(seed), 4)
        e = (copy, step_of(copy), random_delay(rng, 4))[i % 3]
        pairs.append((random_delay(random.Random(seed), 4), e))
    fixtures = (now(0), hesitant(HALF, 0), geo(HALF), never())
    pairs += [(a, b) for a in fixtures for b in fixtures]
    seen = Counter()
    for d, e in pairs:
        for fuel, horizon, eps in itertools.product(
                range(6), range(9), (0, Fraction(1, 16))):
            got = lift_check(d, e, eq, fuel, horizon, eps)
            want = ref_lift_check(d, e, eq, fuel, horizon, eps)
            assert (got.holds, got.reason, got.trace) == \
                (want.holds, want.reason, want.trace)
            assert json.dumps(got.trace) == json.dumps(want.trace)
            leaf, links = _leaf(got.trace)
            seen[leaf["case"]] += 1
            seen["holding chain"] += got.holds and links >= 2
    for case in ("fuel", "value-only", "no-coupling", "holding chain"):
        assert seen[case] >= 20, seen
    # the residue weighs 1 - flow >= 1 - p, and p < 1 while d has pending
    # branches, so the right side is never exhausted first
    assert seen["no-residue"] == 0, seen


def _chain(trace):
    """The level records of a lifting trace, its leaf included."""
    while True:
        yield trace
        if "child" not in trace:
            return
        trace = trace["child"]


def _count_solved(monkeypatch):
    """The list a Frontier.mass spy appends to: lift_check reads the left
    side's delivered mass once per level it solves, and nowhere else."""
    solved = []
    mass = Frontier.mass.fget
    monkeypatch.setattr(Frontier, "mass",
                        property(lambda f: solved.append(f) or mass(f)))
    return solved


def test_lift_replay_matches_the_recursive_reference(monkeypatch):
    # looping graphs against each other at fuel up to 24, so the lifting's
    # state recurs: the replayed trace is the one the reference builds
    # level by level, key order included, and every record is its own dict
    solved = _count_solved(monkeypatch)
    rng = random.Random(89)
    # loops of one to three levels delivering one value or two; against a
    # right side that has delivered all its mass, a loop that takes its two
    # values at other rates moves the explored values' weights while d and
    # the frontier stay the same
    loops = [hesitant_loop([(q, a)], k) for q in (HALF, Fraction(1, 3))
             for a in (0, 1) for k in (1, 2, 3)]
    loops += [hesitant_loop([(Fraction(1, 4), a), (Fraction(1, 8), 1 - a)], k)
              for a in (0, 1) for k in (1, 2)]
    rights = loops + [choice(q, now(0), now(1)) for q in (HALF, Fraction(2, 3))]
    cases = []
    for i in range(150):
        d = (pooled_delay(rng), rng.choice(loops))[i % 2]
        e = (d, pooled_delay(rng), rng.choice(rights))[i % 3]
        cases.append((d, e))
    # left sides whose levels deliver one Opaque object through two Inl
    # wrappers, or one keyed value from two pending branches: a level's
    # values merge as a Dist node merges its entries, by element
    a = OPAQUE[0]
    opaque = [hesitant_loop([(Fraction(1, 4), a), (Fraction(1, 8), a)], k)
              for k in (1, 2)]
    lone = [hesitant_loop([(q, a)], k) for q in (Fraction(3, 8), HALF)
            for k in (1, 2)]
    for d in opaque:
        cases += [(d, d)] + [(d, e) for e in opaque + lone]
    for d in (twin_loop(0), twin_loop(1, Fraction(1, 5))):
        cases += [(d, d)] + [(d, e) for e in loops]
    seen = Counter()
    for d, e in cases:
        fuel, horizon = rng.randrange(8, 25), rng.randrange(1, 9)
        eps = rng.choice((0, Fraction(1, 16)))
        del solved[:]
        got = lift_check(d, e, eq, fuel, horizon, eps)
        n_solved = len(solved)
        want = ref_lift_check(d, e, eq, fuel, horizon, eps)
        assert (got.holds, got.reason, got.trace) == \
            (want.holds, want.reason, want.trace)
        assert json.dumps(got.trace) == json.dumps(want.trace)
        records = list(_chain(got.trace))
        assert len({id(r) for r in records}) == len(records)
        # the records past the levels solved and the fuel leaf are replayed
        tail = [dict(r, fuel=0, child=None) for r in records[n_solved:-1]]
        seen[records[-1]["case"]] += 1
        seen["replayed"] += bool(tail)
        seen["replayed, period > 1"] += any(r != tail[0] for r in tail)
        seen["two wrappers coupled"] += d in opaque and any(
            r.get("coupled_pairs", 0) >= 2 for r in records)
    for case in ("fuel", "no-coupling", "replayed", "replayed, period > 1",
                 "two wrappers coupled"):
        assert seen[case] >= 10, seen


def test_lift_runs_no_futile_flows(monkeypatch):
    # the flow onto a hesitant right side is at most its delivered mass, so
    # a level runs one flow, once that mass reaches p - eps, and a horizon
    # exit runs one, on the final values; a level with p = 0 runs none
    calls = []
    monkeypatch.setattr(relate, "_max_flow",
                        lambda *a: calls.append(a) or _max_flow(*a))
    right = hesitant(Fraction(1, 24), 0)
    for d, fuel, horizon, holds in ((now(0), 1, 1024, True),
                                    (hesitant(HALF, 0), 8, 1024, True),
                                    (hesitant(HALF, 0), 8, 16, False)):
        del calls[:]
        v = lift_check(d, right, eq, fuel, horizon, Fraction(1, 1024))
        assert v.holds is holds
        records = list(_chain(v.trace))
        assert len(calls) == sum(r.get("value_mass", "0") != "0" for r in records)
        # the levels it ran, a horizon exit's included, outnumber the flows
        steps = sum(r.get("m", r.get("horizon", 0)) for r in records)
        assert steps > 10 * len(calls) > 0
    # the same through refine, with the hesitant identity program on the
    # right: one flow per probe level, or one at the horizon exit
    ident = Lam(NAT, Var(0))
    for horizon, holds in ((1024, True), (20, False)):
        del calls[:]
        v = refine_check(ident, id_hes(Fraction(1, 24), NAT),
                         RelateCfg(horizon=horizon))
        assert v.holds is holds
        records = [r for probe in v.trace["probes"] for r in _chain(probe["trace"])]
        assert len(calls) == sum(r.get("value_mass", "0") != "0" for r in records)
        assert len(calls) == (len(records) if holds else 1)


def test_lift_replay_runs_no_repeated_flows(monkeypatch):
    # the hesitant identity against the identity comes back to one state
    # from its second level on, so each probe solves its flow once, not
    # once per fuel unit, and still chains a record per fuel unit
    calls = []
    monkeypatch.setattr(relate, "_max_flow",
                        lambda *a: calls.append(a) or _max_flow(*a))
    v = refine_check(id_hes(HALF, NAT), Lam(NAT, Var(0)), RelateCfg(fuel=200))
    assert v.holds and v.reason == "4 probes passed"
    assert 0 < len(calls) <= 2 * len(v.trace["probes"])
    for probe in v.trace["probes"]:
        assert [r.get("fuel") for r in _chain(probe["trace"])] == \
            list(range(200, 0, -1)) + [None]


def test_lift_replays_a_fresh_continuation_of_the_same_entries(monkeypatch):
    # two pending branches whose thunks both force back to the node: each
    # level's combined continuation is the node's entries again, so the
    # state repeats from the second level and two levels are solved
    solved = _count_solved(monkeypatch)
    body = []
    t1, t2 = DelayThunk(lambda: body[0]), DelayThunk(lambda: body[0])
    third = Fraction(1, 3)
    body.append(Dist([(third, Inr(t1)), (third, Inr(t2)), (third, Inl(0))]))
    got = lift_check(body[0], body[0], eq, 200, 8, 0)
    assert len(solved) == 2         # two levels solved
    want = ref_lift_check(body[0], body[0], eq, 200, 8, 0)
    assert got.to_json() == want.to_json()
    assert [r.get("fuel") for r in _chain(got.trace)] == \
        list(range(200, 0, -1)) + [None]


def test_lift_jumps_match_the_recursive_reference(monkeypatch):
    # horizons long enough for the right frontier's live state to recur,
    # so its search skips whole recurring periods: the verdict, the reason
    # and the whole trace, key order included, are the reference's
    skips = []      # the levels each _skip call ran
    skip = Frontier._skip
    monkeypatch.setattr(Frontier, "_skip",
                        lambda f, *a: skips.append(skip(f, *a)) or skips[-1])
    rng = random.Random(91)
    loops = [hesitant_loop([(q, a)], k) for q in (HALF, Fraction(1, 3), Fraction(1, 5))
             for a in (0, 1) for k in (1, 2, 3)]
    loops += [hesitant_loop([(Fraction(1, 4), a), (Fraction(1, 8), 1 - a)], k)
              for a in (0, 1) for k in (1, 2)]
    loops += [twin_loop(0), twin_loop(1, Fraction(1, 5))]
    points = [now(0), now(1)] + [choice(q, now(0), now(1))
                                 for q in (HALF, Fraction(2, 3))]
    leaves = Counter()
    for i in range(300):
        d = (rng.choice(loops), rng.choice(points), pooled_delay(rng))[i % 3]
        e = (rng.choice(loops), pooled_delay(rng))[i % 4 == 3]
        fuel, horizon = rng.randrange(1, 12), rng.randrange(16, 160)
        eps = rng.choice((0, Fraction(1, 16), Fraction(1, 1024), Fraction(1, 2 ** 40)))
        got = lift_check(d, e, eq, fuel, horizon, eps)
        want = ref_lift_check(d, e, eq, fuel, horizon, eps)
        assert (got.holds, got.reason, got.trace) == \
            (want.holds, want.reason, want.trace), i
        assert json.dumps(got.trace) == json.dumps(want.trace), i
        leaves[_leaf(got.trace)[0]["case"]] += 1
    skipped = sum(n > 0 for n in skips)
    assert skipped >= 120 and leaves["no-coupling"] >= 150 \
        and leaves["fuel"] >= 70 and leaves["value-only"] >= 5, \
        (skipped, len(skips), leaves)


def test_lift_asks_rel_once_per_value_pair(monkeypatch):
    # the horizon search runs a flow at each m where the delivered mass
    # reaches the need, and every flow asks about each pair of values: 45
    # asks about 2 pairs here.  rel may itself run nested checks, so it
    # runs once per distinct pair
    asks = []
    flow = relate._max_flow
    monkeypatch.setattr(relate, "_max_flow", lambda left, right, rel: flow(
        left, right, lambda a, b: asks.append((a.val, b.val)) or rel(a, b)))
    calls = Counter()

    def rel(a, b):
        calls[a, b] += 1
        return a == b
    d = choice(HALF, now(0), step_fn(lambda: now(0)))
    e = choice(HALF, now(1), hesitant(Fraction(1, 4), 0))
    v = lift_check(d, e, rel, 1, 64, Fraction(1, 1024))
    assert v.holds and v.trace["m"] == 22
    assert set(asks) == set(calls) == {(0, 0), (0, 1)} and len(asks) >= 40, asks
    assert set(calls.values()) == {1}, calls


def test_lift_search_forces_few_levels(monkeypatch):
    # the hesitant identity at 1/24 needs hundreds of levels per probe to
    # deliver 1 - 1/1024 of its mass; its frontier recurs within a few, and
    # the search skips whole periods of the rest, stepping the levels
    # around them
    forced = []
    level = Frontier._level
    monkeypatch.setattr(Frontier, "_level", lambda f: forced.append(f) or level(f))
    v = refine_check(Lam(NAT, Var(0)), id_hes(Fraction(1, 24), NAT),
                     RelateCfg(horizon=1024))
    assert v.holds and v.reason == "4 probes passed"
    assert all(probe["trace"]["m"] > 900 for probe in v.trace["probes"])
    assert len(forced) <= 100, len(forced)


def test_lift_bind_lemma():
    rng = random.Random(83)
    fs = {a: random_delay(random.Random(700 + a), 3) for a in range(4)}
    f = fs.__getitem__
    g = lambda a: step_of(f(a))
    for _ in range(200):
        d = random_delay(rng, 4)
        e = step_of(step_of(d))
        assert lift_check(d, e, eq, 3, 8, 0).holds
        assert lift_check(delay_bind(d, f), delay_bind(e, g), eq, 3, 24, 0).holds


def test_lift_choice_lemma():
    rng = random.Random(84)
    for _ in range(50):
        d1, d2 = random_delay(rng, 4), random_delay(rng, 4)
        e1, e2 = step_of(d1), run_n(d2, 1)
        p = Fraction(rng.randrange(1, 8), 8)
        assert lift_check(d1, e1, eq, 3, 8, 0).holds
        assert lift_check(d2, e2, eq, 3, 8, 0).holds
        assert lift_check(choice(p, d1, d2), choice(p, e1, e2),
                          eq, 3, 8, 0).holds


def test_lift_ignores_step_choice_order():
    rng = random.Random(85)
    for _ in range(200):
        a, b = random_delay(rng, 3), random_delay(rng, 3)
        t = random_delay(rng, 3)
        p = Fraction(rng.randrange(1, 8), 8)
        x = step_of(choice(p, a, b))
        y = choice(p, step_of(a), step_of(b))
        assert lift_check(x, t, eq, 3, 8, 0).holds == \
            lift_check(y, t, eq, 3, 8, 0).holds
        assert lift_check(t, x, eq, 3, 8, 0).holds == \
            lift_check(t, y, eq, 3, 8, 0).holds


def test_lift_consequence_bounds_probterm():
    # Holds at fuel F, horizon M, slack e implies termination-probability
    # refinement with slack F*e once the right side runs F*M levels
    rng = random.Random(86)
    fuel, horizon = 3, 6
    holds = 0
    for i in range(200):
        d = random_delay(rng, 4)
        e = step_of(d) if i % 2 == 0 else random_delay(rng, 4)
        eps = Fraction(rng.randrange(0, 3), 16)
        if lift_check(d, e, eq, fuel, horizon, eps).holds:
            holds += 1
            assert leqlim_upto(probterm_seq(d, fuel - 1),
                               probterm_seq(e, fuel * horizon), fuel * eps)
    assert holds >= 100


# --- the type-indexed relation ----------------------------------------------------

def test_logrel_ground_goldens():
    cfg = RelateCfg()
    assert logrel_val(NAT, 3, Num(3), cfg).holds
    assert not logrel_val(NAT, 3, Num(4), cfg).holds
    assert logrel_val(UnitT(), (), Star(), cfg).holds
    mu = parse_ty("mu X. Nat")
    assert logrel_val(mu, FoldV(lambda: 3), Fold(Num(3), mu), cfg).holds
    assert not logrel_val(mu, FoldV(lambda: 3), Fold(Num(4), mu), cfg).holds
    v = logrel_val(mu, FoldV(lambda: 3), Fold(Num(4), mu), cfg, _fuel=0)
    assert v.holds and "budget" in v.reason


def test_logrel_sum_tag_mismatch():
    ty = parse_ty("Nat + Unit")
    v = logrel_val(ty, Inl(0), Inj("r", Star(), ty), RelateCfg())
    assert not v.holds and v.reason == "sum tag mismatch"


def test_default_probes_shapes():
    assert [V.n for _, V in default_probes(NAT)] == [0, 1, 2, 3]
    assert len(default_probes(UnitT())) == 1
    assert len(default_probes(BOOL_T)) == 2
    assert len(default_probes(parse_ty("Nat * Nat"))) == 4
    assert default_probes(parse_ty("Nat -> Nat")) == ()


def test_relatecfg_defaults():
    cfg = RelateCfg()
    assert cfg.fuel == 6 and cfg.horizon == 64
    assert cfg.eps == Fraction(1, 1024)


# --- refinement drivers -------------------------------------------------------------

def test_refine_hesitant_identity_both_ways():
    ident = Lam(NAT, Var(0))
    hes = id_hes(HALF, NAT)
    a = refine_check(hes, ident)
    b = refine_check(ident, hes)
    assert a.holds and a.reason == "4 probes passed"
    assert b.holds and b.reason == "4 probes passed"


def test_refine_at_fuel_5000_chains_every_level():
    v = refine_check(id_hes(HALF, NAT), Lam(NAT, Var(0)), RelateCfg(fuel=5000))
    assert v.holds and v.reason == "4 probes passed"
    assert len(v.trace["probes"]) == 4
    for probe in v.trace["probes"]:
        trace = probe["trace"]
        for fuel in range(5000, 0, -1):
            assert trace["fuel"] == fuel, (probe["probe"], fuel)
            trace = trace["child"]
        assert trace == {"case": "fuel"}, probe["probe"]


def test_refine_requires_matching_types():
    with pytest.raises(TypecheckError):
        refine_check(Num(0), Star())


def test_refine_value_mismatch_is_unknown():
    v = refine_check(Num(0), Num(1))
    assert not v.holds


def test_refine_programs_reflexive():
    from probfpc.corpus import geo_loop
    v = refine_check(geo_loop(HALF), geo_loop(HALF))
    assert v.holds and v.reason == "per-level couplings found"


def test_refine_reflexive_at_product_and_sum_types():
    for src in ("(choice 1/2 0 1, *)",
                "choice 1/2 (inl[Nat + Unit] 0) (inr[Nat + Unit] *)"):
        t = parse_term(src)
        v = refine_check(t, t)
        assert v.holds and v.reason == "value part coupled"
        assert v.trace["flow"] == "1" and v.trace["coupled_pairs"] == 2


def test_refine_divergence_is_least():
    assert refine_check(diverge_term(), Star()).holds
    assert not refine_check(Star(), diverge_term()).holds


def test_refine_no_probes_at_higher_order_argument():
    v = refine_check(y_comb(NAT, NAT), y_comb(NAT, NAT))
    assert not v.holds and "no probes" in v.reason

