"""Convex delay trees: run, the frontier, bind, witnesses, and limit
comparison."""

import io
import json
import os
import random
from fractions import Fraction
from math import lcm

import pytest

from probfpc.cli import _delay_of, _print_seq
from probfpc.corpus import CATALOGUE, corpus
from probfpc.dist import Dist, Inl, Inr, canonical, choice, dirac, key_of
from probfpc.delay import (
    DelayThunk, Frontier, delay_bind, delay_map, eqlim_upto,
    leqlim_upto, now, probterm_seq, run, step,
)
from probfpc.parser import load_file
from probfpc.rational import ONE, ZERO

from conftest import EXAMPLES, example
from genlib import (
    OPAQUE, ChoiceCong, Refl, StepElim, WitnessShapeError, check_witness, geo,
    hesitant, hesitant_loop, node_eq, pendings, pooled_delay, prefix_eq,
    probterm, probterm0, random_delay, random_witness, ref_probterm_seq,
    run_n, shared_delay, split, step_of, twin_loop, value_entries,
    value_part, witness_for_run, witness_steps, zeta,
)

HALF = Fraction(1, 2)


def vals_of(d):
    return {el.val: w for w, el in d.entries if isinstance(el, Inl)}


# --- constructors and run ---------------------------------------------------

def test_now_and_step_shapes():
    d = now(3)
    assert d.entries == ((Fraction(1), Inl(3)),)
    s = step_of(d)
    (w, el), = s.entries
    assert w == 1 and isinstance(el, Inr)
    assert el.val.force() is d


def test_run_eliminates_one_layer():
    d = step_of(step_of(now(0)))
    assert probterm_seq(d, 3) == (0, 0, 1, 1)
    assert prefix_eq(run(d), step_of(now(0)), 4)
    assert prefix_eq(run(now(5)), now(5), 4)


def test_run_worked_example():
    # p to a value after one step, else two steps to another value
    nu = choice(Fraction(1, 3), step_of(now(0)), step_of(step_of(now(1))))
    assert probterm_seq(nu, 3) == (
        Fraction(0), Fraction(1, 3), Fraction(1), Fraction(1))
    assert vals_of(run(nu)) == {0: Fraction(1, 3)}
    assert vals_of(run(run(nu))) == {0: Fraction(1, 3), 1: Fraction(2, 3)}


def test_run_geo_unfolds_one_round():
    for p in (Fraction(1, 3), HALF):
        want = choice(p, now(0), choice(p, now(1), step_of(geo(p, 2))))
        assert prefix_eq(run(geo(p, 0)), want, 6)


def test_geo_probterm_closed_form():
    for p in (Fraction(1, 3), HALF, Fraction(2, 3)):
        d = geo(p)
        assert probterm(1, d) == 2 * p - p * p
        for n in range(11):
            assert probterm(n, d) == 1 - (1 - p) ** (n + 1)


def test_hesitant_probterm_closed_form():
    d = hesitant(HALF, ())
    for m in range(8):
        assert probterm(m, d) == 1 - HALF ** m


def test_value_part():
    assert value_part(now(()), 0) == (1, ((Fraction(1), ()),))
    mass, vals = value_part(geo(HALF, 0), 1)
    assert mass == Fraction(3, 4)
    assert dict((v, w) for w, v in vals) == {0: HALF, 1: Fraction(1, 4)}
    assert value_part(step_of(now(0)), 0)[0] == 0


def test_probterm_matches_seq_indexing():
    rng = random.Random(31)
    for _ in range(200):
        d = random_delay(rng)
        seq = probterm_seq(d, 6)
        n = rng.randrange(7)
        assert probterm(n, d) == seq[n]


def test_probterm_monotone():
    rng = random.Random(32)
    for _ in range(200):
        seq = probterm_seq(random_delay(rng), 16)
        assert all(a <= b for a, b in zip(seq, seq[1:]))


def test_termseq_json_shape():
    seq = probterm_seq(geo(HALF), 2)
    assert seq == (HALF, Fraction(3, 4), Fraction(7, 8))
    out = io.StringIO()
    _print_seq(seq, "json", False, out)
    assert json.loads(out.getvalue()) == {"depths": [0, 1, 2],
                                          "probterm": ["1/2", "3/4", "7/8"]}


# --- the frontier against the literal run --------------------------------------

FRONTIER_DEPTH = 10


def cancelling_delay(splits):
    """One node per weight list: the list's weights reach the next node
    through one shared thunk, each by a fresh Inr, and the rest of the
    node's mass is the value i; the last thunk delivers the value -1.  The
    weights merge into sums of smaller denominator (1/6 + 1/3 = 1/2)."""
    d = now(-1)
    for i, ws in reversed(list(enumerate(splits))):
        t = DelayThunk(lambda d=d: d)
        d = Dist([(w, Inr(t)) for w in ws] + [(1 - sum(ws), Inl(i))])
    return d


CANCELLING = (
    ((Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 10), Fraction(2, 5))),
    ((Fraction(1, 10), Fraction(2, 5)), (Fraction(1, 6), Fraction(1, 3))),
    ((Fraction(1, 6), Fraction(1, 3), Fraction(1, 6)),),
    ((Fraction(1, 4),) * 4, (Fraction(1, 12), Fraction(1, 4)), (HALF, HALF)),
)


def frontier_cases():
    """(label, delay tree) pairs: 300 random trees with keyed and unkeyed
    leaves, 100 trees whose steps rejoin through shared thunks, chains
    whose weights cancel as they merge into one thunk, and every catalogue
    program in the three semantics."""
    rng = random.Random(60)
    for i in range(300):
        yield "random %d" % i, random_delay(rng, alphabet=(0, 1, 2, 3) + OPAQUE)
    for i in range(100):
        yield "shared %d" % i, shared_delay(rng)
    for i, splits in enumerate(CANCELLING):
        yield "cancelling %d" % i, cancelling_delay(splits)
    for name, _ in CATALOGUE:
        for mode in ("op", "den", "den-steps"):
            yield "%s %s" % (name, mode), _delay_of(corpus(name), mode)[1]


def literal_levels(d):
    """split(run_n(d, m)) for m = 0..FRONTIER_DEPTH."""
    for _ in range(FRONTIER_DEPTH + 1):
        yield split(d)
        d = run(d)


def test_frontier_probterm_is_literal_probterm():
    for label, d in frontier_cases():
        seq = probterm_seq(d, FRONTIER_DEPTH)
        for m in range(FRONTIER_DEPTH + 1):
            assert seq[m] == probterm0(run_n(d, m)), (label, m)
        assert probterm(FRONTIER_DEPTH, d) == seq[FRONTIER_DEPTH], label


def test_frontier_values_are_the_literal_value_part():
    # canonical of d's value entries plus each level's deliveries is the
    # literal value part: in order, weight for weight, and the very Inl
    # elements run keeps, up to the level where the literal run first holds
    # an unkeyed value
    compared = 0
    for label, d in frontier_cases():
        f, literal = Frontier(d), d
        got = value_entries(d)
        for m in range(FRONTIER_DEPTH + 1):
            if m:
                literal = run(literal)
                got = canonical([*got, *f.step()])
            vals = value_entries(literal)
            if any(key_of(el) is None for _, el in vals):
                break
            assert [w for w, _ in got] == [w for w, _ in vals], (label, m)
            assert all(a is b for (_, a), (_, b) in zip(got, vals)), (label, m)
            assert f.mass == sum((w for w, _ in vals), Fraction(0)), (label, m)
            compared += 1
    assert compared > 1000, compared


def test_frontier_folds_keyed_values_only():
    # keyed values are folded by canonical; the frontier itself delivers
    # unkeyed ones as they come, as the node's own Inl element
    a = OPAQUE[0]
    node = now(a)
    f = Frontier(step_of(node))
    got = f.step()
    assert got == [(1, Inl(a))] and got[0][1] is node.entries[0][1] \
        and f.mass == 1


def test_frontier_pending_mass_per_thunk_is_literal():
    for label, d in frontier_cases():
        f = Frontier(d)
        for m, (_, pend) in enumerate(literal_levels(d)):
            if m:
                f.step()
            want = {}
            for w, t in pend:
                want[id(t)] = want.get(id(t), Fraction(0)) + w
            got = pendings(f)
            # one entry per thunk, in the order run first reaches them
            assert [id(t) for _, t in got] == list(want), (label, m)
            assert [w for w, _ in got] == list(want.values()), (label, m)


def least_den(f):
    return lcm(f.mass.denominator, *(w.denominator for w, _ in pendings(f)))


def test_frontier_denominator_stays_least():
    # the common denominator is reduced once per level, so it is the lcm of
    # the reduced weights' denominators, and never grows past them
    for label, d in frontier_cases():
        f = Frontier(d)
        for m in range(FRONTIER_DEPTH + 1):
            if m:
                f.step()
            assert f._den == least_den(f), (label, m)
    harness = load_file(example("fair_harness.pfpc"))
    for mode in ("op", "den", "den-steps"):
        f = Frontier(_delay_of(harness, mode)[1])
        for m in range(2049):
            if m:
                f.step()
            assert f._den == least_den(f), (mode, m)


def level_path(nodes, seen):
    """The path a frontier level takes over the nodes it forces: "move"
    when each is one step of weight 1 and no two reach one thunk, "merge"
    when two do, "deliver" when one is a value, and for a level with a node
    of several entries "row" the first time such a node is forced and
    "revisit" once one is forced again (seen holds their ids)."""
    multi = {id(d) for d in nodes if len(d.entries) > 1}
    if multi:
        path = "revisit" if multi & seen else "row"
        seen |= multi
        return path
    els = [el for d in nodes for _, el in d.entries]
    if any(isinstance(el, Inl) for el in els):
        return "deliver"
    return "move" if len({id(el.val) for el in els}) == len(els) else "merge"


def test_frontier_paths_are_the_literal_run():
    # every level, whichever path it takes, equals the literal run: the
    # delivered mass, the pending thunks in order, the level's deliveries
    # (folded by key) and the least denominator; probterm_seq, which builds
    # no deliveries, gives the same masses
    counts = dict.fromkeys(("move", "move over a merged 1", "merge",
                            "cancelling merge after moves", "deliver", "row",
                            "revisit"), 0)
    rng = random.Random(62)
    for i in range(200):
        d = literal = pooled_delay(rng)
        f, got, seen, last = Frontier(d), value_entries(d), set(), None
        masses = [f.mass]
        for m in range(1, 25):
            nodes = [t.force() for _, t in pendings(f)]
            path, den = level_path(nodes, seen), f._den
            got = canonical([*got, *f.step()])
            literal = run(literal)
            vals, pend = value_entries(literal), split(literal)[1]
            want = {}
            for w, t in pend:
                want[t] = want.get(t, 0) + w
            assert list(got) == vals, (i, m)
            assert f.mass == sum((w for w, _ in vals), Fraction(0)), (i, m)
            assert pendings(f) == [(w, t) for t, w in want.items()], (i, m)
            assert f._den == least_den(f), (i, m)
            masses.append(f.mass)
            counts[path] += 1
            if path == "move" and any(n.entries[0][0] is not ONE for n in nodes):
                counts["move over a merged 1"] += 1
            if path == "merge" and last == "move" and f._den < den:
                counts["cancelling merge after moves"] += 1
            last = path
        assert probterm_seq(d, 24) == tuple(masses), i
    assert all(counts.values()), counts


def replay_cases(rng):
    """(label, delay tree) pairs whose live state may recur: pooled trees,
    whose pure step chains can close into dead cycles, trees stepping back
    into a shared pool, hesitant loops mixed with a loop at another rate or
    with a silent one, and every catalogue program and example in the three
    semantics."""
    for i in range(200):
        yield "pooled %d" % i, pooled_delay(rng)
    for i in range(60):
        yield "shared %d" % i, shared_delay(rng)
    for i in range(60):
        vals = [(Fraction(1, 4), 0), (Fraction(1, 8), 1)][:rng.randrange(1, 3)]
        other = [(rng.choice((Fraction(1, 3), Fraction(1, 5))), 2)][:rng.randrange(2)]
        yield "loops %d" % i, choice(rng.choice((HALF, Fraction(1, 3))),
                                     hesitant_loop(vals, rng.randrange(1, 4)),
                                     hesitant_loop(other, rng.randrange(1, 4)))
    for name, _ in CATALOGUE:
        for mode in ("op", "den", "den-steps"):
            yield "%s %s" % (name, mode), _delay_of(corpus(name), mode)[1]
    for name in sorted(os.listdir(EXAMPLES)):
        for mode in ("op", "den", "den-steps"):
            yield "%s %s" % (name, mode), _delay_of(load_file(example(name)), mode)[1]


def test_probterm_replay_is_the_level_loop(monkeypatch):
    # probterm_seq, which replays a period once the live state recurs, gives
    # the table of one frontier level per depth; it counts the tables whose
    # replay fired, whose frontier found a dead cycle, and those where a
    # tuple of thunks came back with weights of another ratio and ran on
    states = []
    live = Frontier.live

    def spy(self, dead):
        before = len(dead)
        state = live(self, dead)
        states.append((state, len(dead) > before))
        return state
    monkeypatch.setattr(Frontier, "live", spy)
    rng = random.Random(62)
    counts = dict.fromkeys(("replayed", "dead cycle", "ratio rejected"), 0)
    for label, d in replay_cases(rng):
        n = rng.randrange(60, 301)
        del states[:]
        got = probterm_seq(d, n)
        assert got == ref_probterm_seq(d, n), label
        last, fired, rejected = {}, False, False
        for j, (state, _) in enumerate(states):
            if state is None:
                continue
            ts, ns, _ = state
            if ts in last:
                if all(a * last[ts][0] == b * ns[0] for a, b in zip(ns, last[ts])):
                    # the first proportional recurrence is the last level run
                    assert j == len(states) - 1, label
                    fired = True
                else:
                    rejected = True
            last[ts] = ns
        counts["replayed"] += fired
        counts["dead cycle"] += any(grew for _, grew in states)
        counts["ratio rejected"] += rejected
    assert counts["replayed"] >= 60 and counts["dead cycle"] >= 50 \
        and counts["ratio rejected"] >= 15, counts


def first_report(f, levels):
    """Step f through step(), asking its recurrence before each level, until
    it reports or levels levels have run: the report (or None) and each
    level's deliveries."""
    delivered = []
    while len(delivered) < levels:
        report = f.recurrence()
        if report is not None:
            return report, delivered
        delivered.append(f.step())
    return None, delivered


def test_recurrence_reports_a_hesitant_loops_period():
    # the loop's thunk is back every `steps` levels with its weight times
    # the mass that stays; it is first seen forced before level `steps`
    for values in ([(Fraction(1, 4), 0)], [(Fraction(1, 3), 0), (Fraction(1, 6), 1)]):
        for steps in range(1, 5):
            report, delivered = first_report(Frontier(hesitant_loop(values, steps)), 50)
            assert report == (steps, 1 - sum(w for w, _ in values)), (values, steps)
            assert len(delivered) == 2 * steps, (values, steps)


def test_recurrence_rejects_loops_at_two_rates():
    # both thunks are back every level, their weights in a new ratio each time
    d = choice(HALF, hesitant_loop([(Fraction(1, 3), 0)]),
               hesitant_loop([(Fraction(1, 5), 1)]))
    report, delivered = first_report(Frontier(d), 200)
    assert report is None and len(delivered) == 200


def test_recurrence_reports_no_live_thunk_as_0():
    # the silent program's pending thunks all end on dead cycles; the empty
    # live state is reported the level after it is first seen
    for mode in ("op", "den", "den-steps"):
        report, delivered = first_report(
            Frontier(_delay_of(corpus("diverge"), mode)[1]), 50)
        assert report == (len(delivered) - 1, 0) and not any(delivered), mode


def test_recurrence_reports_meet_the_delivery_contract():
    # after the report (i, c) before level k, each level from k on delivers
    # the Inl elements of the level k - i before it, by identity and in
    # order, with weights times c: checked for two periods
    reports = levels = 0
    for label, d in replay_cases(random.Random(62)):
        f = Frontier(d)
        report, delivered = first_report(f, 300)
        if report is None:
            continue
        (i, c), k = report, len(delivered)
        for m in range(2 * (k - i)):
            got, want = f.step(), delivered[i + m]
            assert [(w, id(a)) for w, a in got] == \
                [(c * w, id(a)) for w, a in want], (label, m)
            delivered.append(got)
        reports += 1
        levels += 2 * (k - i)
    assert reports >= 300 and levels >= 1400, (reports, levels)


def stepped_advance(f, q, limit):
    """``Frontier.advance`` one ``step()`` at a time, never jumping."""
    n, out = 0, []
    while n < limit:
        new = f.step()
        n += 1
        out += new
        if new and f.reaches(q):
            break
    return n, out


def split_loop():
    """choice(1/2, now(0), step(t)), where t steps to u and v with weight
    1/2 each and u and v step back to t: a live cycle that keeps its mass,
    so its recurrence reports (2, 1), with no thunk on a dead cycle."""
    t = DelayThunk(lambda: choice(HALF, step(u), step(v)))
    u, v = (DelayThunk(lambda: step(t)) for _ in range(2))
    return choice(HALF, now(0), step(t))


def advance_cases():
    """replay_cases, hesitant loops of 1-3 steps with one value or two, twin
    loops, a live cycle that keeps its mass, and a hesitant loop beside a
    silent one, whose report comes with a dead cycle pending."""
    yield from replay_cases(random.Random(62))
    for values in ([(Fraction(1, 4), 0)], [(Fraction(1, 3), 0), (Fraction(1, 6), 1)]):
        for steps in (1, 2, 3):
            yield "hesitant %d %d" % (len(values), steps), hesitant_loop(values, steps)
    yield "twin", twin_loop(0)
    yield "twin 1/5", twin_loop(1, Fraction(1, 5))
    yield "split loop", split_loop()
    yield "beside a dead cycle", choice(HALF, hesitant_loop([(Fraction(1, 4), 0)]),
                                        hesitant_loop([]))


def test_advance_jumps_as_stepping_does(monkeypatch):
    # from the first recurrence() report on, with no dead cycle pending,
    # advance() steps at most 2r - 1 levels per call, on thunks already
    # forced, and skips the whole periods between; with one pending it
    # steps every level.  A second frontier of the same tree, stepped one
    # level at a time, runs as many levels, ends in the same snapshot()
    # and delivers what canonical merges into the same entries.  The first
    # call stops at a delivering level that is also its limit; three more
    # follow it, so they start inside a period
    forced = []
    level = Frontier._level
    monkeypatch.setattr(Frontier, "_level", lambda f: forced.append(
        any(t._fn is not None for t in f._pending)) or level(f))
    rng = random.Random(63)
    counts = dict.fromkeys(("jumped", "dead cycle", "stopped at q", "at the limit"), 0)
    for label, d in advance_cases():
        f = Frontier(d)
        report, delivered = first_report(f, 300)
        if report is None:
            continue
        k = len(delivered)
        r, dead = k - report[0], not f._dead.isdisjoint(f._pending)
        g = Frontier(d)
        for _ in range(k):
            g.step()
        # the masses after 0, 1, ... levels from k, stepping
        ref = Frontier(d)
        for _ in range(k):
            ref.step()
        masses = [ref.mass]
        for _ in range(3 * r + 10):
            ref.step()
            masses.append(ref.mass)
        grew = [j for j in range(1, len(masses)) if masses[j] > masses[j - 1]]
        calls = [(masses[j], j) for j in rng.sample(grew, min(1, len(grew)))]
        for _ in range(3):
            q = rng.choice((ZERO, ONE, rng.choice(masses),
                            (rng.choice(masses) + rng.choice(masses)) / 2))
            calls.append((q, rng.choice((1, r, r + 1, 2 * r + 3, 50, 500))))
        for m, (q, limit) in enumerate(calls):
            del forced[:]
            n, got = f.advance(q, limit)
            assert (len(forced) == n) if dead else \
                (len(forced) <= 2 * r - 1 and not any(forced)), label
            m_want, want = stepped_advance(g, q, limit)
            assert (n, f.snapshot()) == (m_want, g.snapshot()), (label, m, q, limit)
            assert len({id(a) for _, a in got}) == len(got), label
            assert [(w, id(a)) for w, a in canonical(got)] == \
                [(w, id(a)) for w, a in canonical(want)], (label, m, q, limit)
            counts["jumped" if not dead else "dead cycle"] += 1
            counts["stopped at q"] += n < limit
            counts["at the limit"] += m == 0 and n == limit and f.reaches(q)
    assert counts["jumped"] >= 700 and counts["dead cycle"] >= 250 \
        and counts["stopped at q"] >= 150 and counts["at the limit"] >= 250, counts


def test_frontier_renormalise_is_the_residue_dist():
    # the lifting's residue keeps part x of the delivered mass and every
    # pending thunk; renormalised in place, the frontier is the one built
    # from that residue as a Dist, on the least denominator
    rng = random.Random(61)
    for label, d in frontier_cases():
        f = Frontier(d)
        for _ in range(rng.randrange(4)):
            f.step()
        pend = pendings(f)
        x = f.mass * rng.choice((0, Fraction(1, 3), 1))
        rmass = x + sum(w for w, _ in pend)
        if rmass == 0:
            continue
        want = Frontier(Dist([(x / rmass, Inl("left over"))]
                             + [(w / rmass, Inr(t)) for w, t in pend]))
        f.renormalise(rmass)
        assert pendings(f) == pendings(want), label
        assert (f.mass, f._den) == (want.mass, least_den(f)), label
        assert f.reaches(f.mass) and not f.reaches(f.mass + Fraction(1, 10 ** 9))
        assert [w for w, _ in f.step()] == [w for w, _ in want.step()], label


def test_frontier_merges_cancelling_weights():
    f = Frontier(cancelling_delay(CANCELLING[0]))
    assert f.mass == HALF and [w for w, _ in pendings(f)] == [HALF]
    assert f.step() == [(Fraction(1, 4), Inl(1))] and f._den == 4
    assert f.step() == [(Fraction(1, 4), Inl(-1))] and f.mass == 1 \
        and f._den == 1


def test_frontier_step_returns_the_level_deliveries():
    f = Frontier(choice(Fraction(1, 3), step_of(now(0)), step_of(step_of(now(1)))))
    assert f.mass == 0 and len(pendings(f)) == 2
    assert f.step() == [(Fraction(1, 3), Inl(0))] and f.mass == Fraction(1, 3)
    assert f.step() == [(Fraction(2, 3), Inl(1))] and pendings(f) == []
    assert f.step() == [] and f.mass == 1


def test_frontier_checks_mass_as_dist_does():
    class HalfNode:
        entries = ((HALF, Inl(0)),)

    d = step(DelayThunk(HalfNode))
    with pytest.raises(ValueError) as literal:
        run(d)
    f = Frontier(d)
    with pytest.raises(ValueError) as frontier:
        f.step()
    assert str(frontier.value) == str(literal.value) == \
        "distribution weights sum to 1/2, not 1"


def test_frontier_checks_a_lone_step_of_weight_below_1():
    # a one-entry step of weight 1/2 is not a move: the level that forces
    # it reaches the exact-sum check, in step() and in probterm_seq alike
    class HalfStep:
        entries = ((HALF, Inr(DelayThunk(lambda: now(0)))),)

    def literal(d):
        run(d)

    def frontier(d):
        Frontier(d).step()

    def seq(d):
        probterm_seq(d, 1)

    for observe in (literal, frontier, seq):
        with pytest.raises(ValueError) as e:
            observe(step(DelayThunk(HalfStep)))
        assert str(e.value) == "distribution weights sum to 1/2, not 1", \
            observe.__name__


# --- zeta -------------------------------------------------------------------

def test_zeta_singleton_is_identity():
    t = step_of(now(0)).entries[0][1].val
    assert zeta(dirac(t)) is t


def test_zeta_mixes_forced_continuations():
    ta = DelayThunk(lambda: now(0))
    tb = DelayThunk(lambda: now(1))
    mixed = zeta(Dist([(HALF, ta), (HALF, tb)])).force()
    assert vals_of(mixed) == {0: HALF, 1: HALF}


# --- bind -------------------------------------------------------------------

def test_bind_left_identity():
    f = {3: step_of(now(4))}.__getitem__
    assert node_eq(delay_bind(now(3), f), f(3))


def test_bind_right_identity():
    rng = random.Random(33)
    for _ in range(200):
        d = random_delay(rng)
        assert prefix_eq(delay_bind(d, now), d, 8)


def test_bind_associativity():
    rng = random.Random(34)
    fs = {a: random_delay(random.Random(400 + a), 3) for a in range(4)}
    gs = {a: random_delay(random.Random(500 + a), 3) for a in range(4)}
    f, g = fs.__getitem__, gs.__getitem__
    for _ in range(200):
        d = random_delay(rng)
        assert prefix_eq(delay_bind(delay_bind(d, f), g),
                         delay_bind(d, lambda a: delay_bind(f(a), g)), 10)


def test_bind_threads_steps_before_the_continuation():
    d = delay_bind(step_of(step_of(now(1))), lambda n: step_of(now(n + 1)))
    assert probterm_seq(d, 4) == (0, 0, 0, 1, 1)
    assert vals_of(run_n(d, 3)) == {2: Fraction(1)}


def test_delay_map_is_bind_with_now():
    d = geo(HALF)
    assert prefix_eq(delay_map(d, lambda n: n * 2),
                     delay_bind(d, lambda n: now(n * 2)), 6)


def test_bind_preserves_sharing():
    # an unbounded walk whose positions are shared thunks: width under run
    # grows linearly; bind must not sever the sharing and make it exponential
    thunks = {}

    def tail(k):
        t = thunks.get(k)
        if t is None:
            t = DelayThunk(lambda k=k: body(k))
            thunks[k] = t
        return t

    def body(k):
        if k == 0:
            return now(0)
        return choice(HALF, step(tail(k - 1)), step(tail(k + 1)))

    e = delay_bind(body(2), lambda a: now(a + 1))
    cur = e
    for _ in range(40):
        assert len(cur.entries) <= 120
        cur = run(cur)
    assert probterm0(cur) > HALF


def test_bind_builds_one_node_per_source_thunk():
    # a branch mixed with itself is that branch: two entries pending on one
    # thunk bind to one entry, and a source thunk reached from two branches
    # of one bind yields one step node
    t = DelayThunk(lambda: now(1))
    d = delay_bind(Dist([(HALF, Inr(t)), (HALF, Inr(t))]),
                   lambda a: now(a + 1))
    assert len(d.entries) == 1 and d.entries[0][0] == 1
    assert run(d).entries == ((ONE, Inl(2)),)
    u = DelayThunk(lambda: now(0))
    a, b = DelayThunk(lambda: step(u)), DelayThunk(lambda: step(u))
    e = delay_bind(choice(HALF, step(a), step(b)), lambda x: now(x + 1))
    (_, left), (_, right) = e.entries
    assert left.val.force() is right.val.force()


# --- witnesses --------------------------------------------------------------

def test_check_witness_choice_cong_example():
    inner = step_of(step_of(now(1)))
    nu = choice(Fraction(1, 3), step_of(now(0)), inner)
    red = check_witness(ChoiceCong(Fraction(1, 3), StepElim(), Refl()), nu)
    assert node_eq(red, choice(Fraction(1, 3), now(0), inner))


def test_check_witness_shape_errors():
    with pytest.raises(WitnessShapeError):
        check_witness(StepElim(), now(0))
    with pytest.raises(WitnessShapeError):
        check_witness(StepElim(), choice(HALF, step_of(now(0)), now(1)))
    with pytest.raises(WitnessShapeError):
        check_witness(ChoiceCong(Fraction(1, 5), Refl(), Refl()),
                      choice(HALF, now(0), now(1)))


def test_witness_for_run_replays_to_run():
    rng = random.Random(35)
    for _ in range(200):
        d = random_delay(rng)
        n = rng.randrange(9)
        red = check_witness(witness_for_run(d, n), d)
        assert node_eq(red, run_n(d, n))
        assert prefix_eq(red, run_n(d, n), 8)


def test_witness_soundness_bounds_probterm():
    # a reduct delivers no later than the source and at most steps(w) earlier
    rng = random.Random(36)
    for _ in range(200):
        d = random_delay(rng)
        w = random_witness(rng, d)
        red = check_witness(w, d)
        k = witness_steps(w)
        for n in range(9):
            assert probterm(n, d) <= probterm(n, red)
            assert probterm(n, red) <= probterm(n + k, d)


def test_confluence_of_partial_runs():
    # two different run amounts rejoin once each is completed to the deeper one
    rng = random.Random(37)
    for _ in range(200):
        d = random_delay(rng)
        n1, n2 = rng.randrange(5), rng.randrange(5)
        r1 = check_witness(witness_for_run(d, n1), d)
        r2 = check_witness(witness_for_run(d, n2), d)
        top = max(n1, n2)
        assert prefix_eq(run_n(r1, top - n1), run_n(r2, top - n2), 8)


def test_bind_preserves_reduction():
    rng = random.Random(38)
    fs = {a: random_delay(random.Random(600 + a), 3) for a in range(4)}
    f = fs.__getitem__
    for _ in range(200):
        d = random_delay(rng)
        w = random_witness(rng, d)
        red = check_witness(w, d)
        k = witness_steps(w)
        for n in range(9):
            assert probterm(n, delay_bind(d, f)) <= probterm(n, delay_bind(red, f))
            assert probterm(n, delay_bind(red, f)) <= probterm(n + k, delay_bind(d, f))


# --- limit comparison --------------------------------------------------------

def test_leqlim_eqlim_basics():
    rng = random.Random(40)
    for _ in range(200):
        f = probterm_seq(random_delay(rng), 12)
        assert leqlim_upto(f, f, 0)
        assert eqlim_upto(f, f, 0)
        g = probterm_seq(run_n(random_delay(rng), 1), 12)
        e = Fraction(rng.randrange(0, 5), 16)
        assert leqlim_upto(f, g, e) == (max(f) <= max(g) + e)
        assert eqlim_upto(f, g, e) == eqlim_upto(g, f, e)


def test_leqlim_transitivity_sums_slack():
    rng = random.Random(41)
    for _ in range(200):
        d = random_delay(rng)
        f = probterm_seq(d, 12)
        g = probterm_seq(run_n(d, 2), 12)
        h = probterm_seq(run_n(d, 4), 12)
        e1 = Fraction(rng.randrange(0, 4), 32)
        e2 = Fraction(rng.randrange(0, 4), 32)
        assert leqlim_upto(f, g, e1) and leqlim_upto(g, h, e2)
        assert leqlim_upto(f, h, e1 + e2)


def test_leqlim_closed_under_convex_combination():
    # termination sequences are monotone, so their max sits at the end and
    # pointwise mixing preserves a shared verdict at the same slack
    rng = random.Random(42)
    for _ in range(200):
        d1, d2 = random_delay(rng), random_delay(rng)
        f1, f2 = probterm_seq(d1, 12), probterm_seq(d2, 12)
        g1, g2 = probterm_seq(run_n(d1, 3), 12), probterm_seq(run_n(d2, 3), 12)
        e = Fraction(rng.randrange(0, 4), 32)
        assert leqlim_upto(f1, g1, e) and leqlim_upto(f2, g2, e)
        p = Fraction(rng.randrange(1, 8), 8)
        mix = lambda x, y: tuple(p * a + (1 - p) * b for a, b in zip(x, y))
        assert leqlim_upto(mix(f1, f2), mix(g1, g2), e)


# --- canonical comparison ----------------------------------------------------

def test_prefix_eq_detects_differences():
    rng = random.Random(43)
    for _ in range(200):
        d = random_delay(rng)
        assert prefix_eq(d, d, 8)
    assert not prefix_eq(now(0), now(1), 4)
    assert not prefix_eq(step_of(now(0)), now(0), 4)
    assert prefix_eq(choice(HALF, now(0), now(1)),
                     choice(HALF, now(1), now(0)), 4)


def test_node_eq_compares_pendings_by_identity():
    d = step_of(now(0))
    assert node_eq(d, d)
    assert not node_eq(step_of(now(0)), step_of(now(0)))
    assert node_eq(now(7), now(7))
