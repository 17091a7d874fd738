"""Couplings, relational lifting, and the refinement checker.

`lift_check` extends a value relation to delay trees: at each level the
value part must be coupled against what the right side has delivered within
some run horizon, with the coupling decided by an exact max-flow on integer
numerators, and the loop goes on to the delayed remainder with one unit of
fuel less.  Fuel 0 accepts the truncated obligation, so Holds at fuel F
certifies the F-level approximation and Unknown is never a refutation.
Both sides run level by level on a `Frontier`.  Forcing memoises thunks,
so a recursive program's delay graph is finite and states come back.  The
horizon search's levels come back up to a factor, and `Frontier.advance`
skips their whole periods.  The lifting's own state (the level's values,
both frontiers, the explored values) comes back too; a level is a
function of that state, so from a repeated state the loop replays the
records of the levels since its first occurrence, with only the fuel
changed, in place of solving them again.

`logrel_val` is the type-indexed relation between semantic and syntactic
values: ground types by equality, pairs and sums structurally, recursive
types one unfolding per fuel unit, and function types tested on explicit
probe arguments (quantifying over all arguments is not decidable; the
checker is honest about what it probed).  `refine_check` ties it together:
interpret the left program, evaluate the right one, and lift the relation
at their common type.
"""

from collections import deque
from fractions import Fraction
from functools import cache
from math import lcm

from .rational import ZERO, TooLongToPrint, as_uprob, exact_str
from .delay import Frontier
from .dist import Dist, Inl, Inr, canonical
from .densem import STANDARD, Interp, FoldV
from .opsem import Evaluator
from .syntax import (
    UnitT, NatT, ProdT, SumT, FnT, MuT, mu_unfold, render_ty,
    Star, Num, Pair, Inj, Lam, Fold, is_value, subst,
)
from .typecheck import TypecheckError, elaborate

__all__ = [
    "LiftVerdict", "lift_check", "RelateCfg", "default_probes", "logrel_val",
    "refine_check",
]


# --- exact max flow ---------------------------------------------------------

def _max_flow(left, right, rel):
    """Maximum flow of the weighted list left onto the weighted list right
    along the pairs rel accepts: (value, {(i, j): flow}) in Fractions,
    computed on int numerators over the lcm of the weights' denominators.
    Each round augments along a shortest path (Edmonds-Karp), searched
    breadth first from the left entries with supply left, in index order;
    a right entry with room left ends the path, any other leads back to the
    left entries that send it flow, in index order.  An arc i -> j could
    carry all of i's weight, so it never limits a path."""
    den = lcm(*(w.denominator for w, _ in left),
              *(w.denominator for w, _ in right))
    supply = [w.numerator * (den // w.denominator) for w, _ in left]
    room = [w.numerator * (den // w.denominator) for w, _ in right]
    flow = [{j: 0 for j, (_, b) in enumerate(right) if rel(a, b)} for _, a in left]
    pred = [[i for i, fs in enumerate(flow) if j in fs] for j in range(len(right))]
    total = 0
    while True:
        back = {i: None for i, s in enumerate(supply) if s}    # left <- right, source
        came, queue, end = {}, deque(back), None               # right <- left
        while queue and end is None:
            i = queue.popleft()
            for j in flow[i]:
                if j not in came:
                    came[j] = i
                    if room[j]:
                        end = j
                        break
                    for k in pred[j]:
                        if k not in back and flow[k][j]:
                            back[k] = j
                            queue.append(k)
        if end is None:
            break
        path, j = [], end
        while j is not None:        # back to a left entry the source feeds
            i = came[j]
            path.append((i, j, back[i]))
            j = back[i]
        push = min(room[end], supply[i], *(flow[k][b] for k, _, b in path[:-1]))
        room[end] -= push
        supply[i] -= push
        total += push
        for i, j, b in path:
            flow[i][j] += push
            if b is not None:
                flow[i][b] -= push
    return Fraction(total, den), {(i, j): Fraction(f, den)
                                  for i, fs in enumerate(flow)
                                  for j, f in fs.items() if f}


# --- relational lifting -----------------------------------------------------

class LiftVerdict:
    """Holds carries the per-level trace; Unknown names the budget that ran
    out.  Unknown never refutes: it means the bounded search saw nothing."""
    __slots__ = ("holds", "reason", "trace")

    def __init__(self, holds, reason, trace):
        self.holds = holds
        self.reason = reason
        self.trace = trace

    def __repr__(self):
        return "%s(%s)" % ("Holds" if self.holds else "Unknown", self.reason)

    def to_json(self):
        return {"holds": self.holds, "reason": self.reason, "trace": self.trace}


def lift_check(d: Dist, e: Dist, rel, fuel: int, horizon: int, eps) -> LiftVerdict:
    """Bounded check that rel's lifting relates d to e.

    Both sides run on a ``Frontier``.  Per level: the left side's values
    are what its level delivered (mass p), as ``Inl`` elements merged as a
    ``Dist`` node merges its entries; p = 1 leaves nothing pending.  Search
    the least m <= horizon such that the values delivered by running e for
    m levels admit a coupling of flow >= p - eps along rel; no flow runs
    while the delivered mass, which bounds it, is below p - eps.  So e's
    ``Frontier.advance`` runs the levels up to the next flow, skipping
    whole periods of them once e's frontier recurs.  What the coupling
    does not consume of e joins e's pending branches as the residue, and
    the next level relates the left side's pending branches, renormalised
    by 1 - p and run one level, to it (renormalised) with one unit of fuel
    less.  The eps budget is per level, so it composes additively in fuel.
    When e's explored mass cannot split at exactly p, the flow consumption
    splits explored leaves fractionally; this is a sound search, not a
    complete one.

    A level whose state was seen before is not solved again.  The state is
    the level's values, both frontiers' ``snapshot()`` and the explored
    values, each weight with its element by identity.  A level reads only
    that state, eps, horizon and rel, cached by the value pair with
    ``functools.cache``: forcing the same thunks returns the same nodes,
    and the cache answers a pair equal to one it has seen as before.  So
    from a repeated state the levels since its first occurrence, the
    period, come again in order, differing only in fuel, and none of them
    can exit early, as none did the first time.  The loop appends one copy
    of the period's records per remaining fuel unit and leaves as fuel runs
    out, with the trace it would have built.
    """
    eps = as_uprob(eps)
    # the horizon search asks about the same pairs at every m, and rel may
    # run nested checks, so answers are cached per value pair: rel is a
    # function of its arguments up to ==, closures and ``FoldV`` cells
    # compare by identity, and the cache keeps its keys alive
    known = cache(rel)
    rel = lambda a, b: known(a.val, b.val)
    levels = []

    def done(holds, reason, trace):
        for level in reversed(levels):      # nest each in the one before
            level["child"] = trace
            trace = level
        return LiftVerdict(holds, "per-level couplings found" if holds and levels
                           else reason, trace)

    left, front = Frontier(d), Frontier(e)
    vals, evals = ([(w, el) for w, el in x.entries if isinstance(el, Inl)]
                   for x in (d, e))
    seen = {}       # state -> (its level's index, what it names by id)
    for fuel in range(fuel, 0, -1):
        # elements by id, as canonical keeps them: two Inl wrappers of one
        # closure are equal but stay two entries
        state = (tuple((w, id(a)) for w, a in vals), left.snapshot(),
                 front.snapshot(), tuple((w, id(b)) for w, b in evals))
        first = seen.setdefault(state, (len(levels), vals, evals))[0]
        if first < len(levels):
            period = levels[first:]
            levels += [dict(period[k % len(period)], fuel=fuel - k)
                       for k in range(fuel)]
            break
        p = left.mass
        need = p - eps
        m, flowval, flow = 0, ZERO, {}
        while p > 0:
            if front.reaches(need):     # else the flow cannot reach need
                flowval, flow = _max_flow(vals, evals, rel)
                if flowval >= need:
                    break
            # a level that delivers nothing leaves the flow as it was, and
            # the flow reaches need no sooner than the delivered mass does
            ran, new = front.advance(need, horizon - m)
            m += ran
            if not new:
                if not front.reaches(need):     # no flow ran on these values
                    flowval = _max_flow(vals, evals, rel)[0]
                return done(False, "no coupling within horizon", {
                    "case": "no-coupling", "fuel": fuel, "value_mass": exact_str(p),
                    "best_flow": exact_str(flowval), "horizon": horizon,
                    "eps": exact_str(eps)})
            evals = canonical([*evals, *new])
        level = {"case": "value-only" if p == 1 else
                         ("mixed" if p > 0 else "delayed-only"),
                 "fuel": fuel, "m": m, "value_mass": exact_str(p),
                 "flow": exact_str(flowval),
                 "coupled_pairs": len(flow)}
        if p == 1:
            return done(True, "value part coupled", level)
        rest = [w for w, _ in evals]
        for (_, j), f in flow.items():
            rest[j] -= f
        # the residue weighs 1 - flow > 0: the flow is at most p < 1
        rmass = 1 - flowval
        front.renormalise(rmass)
        evals = [(w / rmass, b) for w, (_, b) in zip(rest, evals) if w > 0]
        levels.append(level)
        left.renormalise(1 - p)
        vals = canonical(left.step())
    return done(True, "fuel exhausted; remaining obligation accepted",
                {"case": "fuel"})


# --- the type-indexed relation ---------------------------------------------

class RelateCfg:
    """Budgets for the logical relation."""
    __slots__ = ("fuel", "horizon", "eps", "interp", "evaluator")

    def __init__(self, fuel=6, horizon=64, eps=Fraction(1, 1024)):
        self.fuel = fuel
        self.horizon = horizon
        self.eps = as_uprob(eps)
        self.interp = Interp(STANDARD)
        self.evaluator = Evaluator()


PROBE_CAP = 4       # most probes per argument type


def default_probes(ty):
    """Closed value terms to probe a function at this argument type:
    numerals 0..3 at Nat, the unit, both booleans, and componentwise
    products and sums of those, capped at PROBE_CAP; ``logrel_val`` reads
    each one's semantic side as ``cfg.interp.val`` of it."""
    if isinstance(ty, NatT):
        return tuple(Num(k) for k in range(PROBE_CAP))
    if isinstance(ty, UnitT):
        return (Star(),)
    if isinstance(ty, SumT):
        out = [Inj("l", V, ty) for V in default_probes(ty.a)]
        out += [Inj("r", V, ty) for V in default_probes(ty.b)]
        return tuple(out[:PROBE_CAP])
    if isinstance(ty, ProdT):
        out = [Pair(Va, Vb) for Va in default_probes(ty.a)
               for Vb in default_probes(ty.b)]
        return tuple(out[:PROBE_CAP])
    return ()


def logrel_val(ty, v, V, cfg: RelateCfg, _fuel=None) -> LiftVerdict:
    """Is the semantic value v related to the closed syntactic value V at
    type ty?  Ground types decide; function types check the lifting on each
    default probe; recursive types unfold once per fuel unit."""
    fuel = cfg.fuel if _fuel is None else _fuel
    if isinstance(ty, UnitT):
        if v == () and isinstance(V, Star):
            return LiftVerdict(True, "unit", {"ty": "Unit"})
        return LiftVerdict(False, "unit mismatch", {"ty": "Unit"})
    if isinstance(ty, NatT):
        try:
            if type(v) is int and isinstance(V, Num) and v == V.n:
                return LiftVerdict(True, "numeral %d" % v, {"ty": "Nat"})
            # the trace names a semantic numeral "NatV(n)": that output
            # format is kept on purpose, so refine traces stay byte-stable
            return LiftVerdict(False, "coupling infeasible at these numerals",
                               {"ty": "Nat", "den": "NatV(%d)" % v, "op": repr(V)})
        except ValueError:      # the verdict names a numeral Python will not print
            raise TooLongToPrint("numeral", max(v, V.n)) from None
    if isinstance(ty, ProdT):
        if not (type(v) is tuple and len(v) == 2 and isinstance(V, Pair)):
            return LiftVerdict(False, "pair shape mismatch", {"ty": "product"})
        la = logrel_val(ty.a, v[0], V.a, cfg, fuel)
        if not la.holds:
            return la
        lb = logrel_val(ty.b, v[1], V.b, cfg, fuel)
        return LiftVerdict(lb.holds, lb.reason,
                           {"ty": "product", "fst": la.trace, "snd": lb.trace})
    if isinstance(ty, SumT):
        if isinstance(v, Inl) and isinstance(V, Inj) and V.side == "l":
            return logrel_val(ty.a, v.val, V.m, cfg, fuel)
        if isinstance(v, Inr) and isinstance(V, Inj) and V.side == "r":
            return logrel_val(ty.b, v.val, V.m, cfg, fuel)
        return LiftVerdict(False, "sum tag mismatch", {"ty": "sum"})
    if isinstance(ty, MuT):
        if not (isinstance(v, FoldV) and isinstance(V, Fold)):
            return LiftVerdict(False, "fold shape mismatch", {"ty": "mu"})
        if fuel <= 0:
            return LiftVerdict(True, "recursive depth budget exhausted",
                               {"ty": "mu", "case": "fuel"})
        return logrel_val(mu_unfold(ty), v.force(), V.m, cfg, fuel - 1)
    if isinstance(ty, FnT):
        if not (callable(v) and isinstance(V, Lam)):
            return LiftVerdict(False, "function shape mismatch", {"ty": "fn"})
        probes = default_probes(ty.a)
        if not probes:
            return LiftVerdict(False,
                               "no probes for argument type %s" % render_ty(ty.a),
                               {"ty": "fn", "case": "no-probes"})
        body = V.body
        res_ty = ty.b
        checks = []
        for W in probes:
            d = v(cfg.interp.val(W))
            e = cfg.evaluator.eval(subst(body, W))
            r = lift_check(d, e,
                           lambda x, Y: logrel_val(res_ty, x, Y, cfg).holds,
                           cfg.fuel, cfg.horizon, cfg.eps)
            checks.append({"probe": repr(W), "trace": r.trace})
            if not r.holds:
                return LiftVerdict(False, "probe %r: %s" % (W, r.reason),
                                   {"ty": "fn", "probes": checks})
        return LiftVerdict(True, "%d probes passed" % len(probes),
                           {"ty": "fn", "probes": checks})
    raise TypeError("no relation at type %r" % (ty,))


# --- drivers ----------------------------------------------------------------

def refine_check(a, b, cfg: RelateCfg = None) -> LiftVerdict:
    """Bounded refinement between two closed programs of one type: interpret
    the left, evaluate the right, relate at the type.  Two values short-cut
    to the value relation."""
    cfg = cfg if cfg is not None else RelateCfg()
    ty_a, ty_b = elaborate(a), elaborate(b)
    if ty_a != ty_b:
        raise TypecheckError("refinement needs one type on both sides: %s vs %s"
                             % (render_ty(ty_a), render_ty(ty_b)))
    if is_value(a) and is_value(b):
        return logrel_val(ty_a, cfg.interp.val(a), b, cfg)
    d = cfg.interp.interp(a)
    e = cfg.evaluator.eval(b)
    return lift_check(d, e,
                      lambda x, Y: logrel_val(ty_a, x, Y, cfg).holds,
                      cfg.fuel, cfg.horizon, cfg.eps)

