"""Generators, reference implementations and fixtures shared by the suites.

The random generators are deterministic given the caller's seeded
``random.Random``; the suites fix their seeds so failures replay.  The rest
is what the tests compare the package against and build their programs
from: the fuelled reduction witnesses, the literal n-fold ``run``, the
split of a node into its value part and combined continuation, the
termination table level by level, the canonical prefix comparison,
read-back soundness, the pretty-printer, the Edmonds-Karp max-flow on
Fractions, the recursive lifting, the character-loop lexer, the
interpreter's whole-environment memo key, and the corpus programs only the
tests use.
"""

from collections import deque
from fractions import Fraction

from probfpc.dist import (
    Dist, Inl, Inr, canonical, choice, dirac, dist_bind, key_of,
)
from probfpc.delay import (
    DelayThunk, Frontier, delay_map, now, run, step, step_fn,
)
from probfpc.densem import STANDARD, STEP_FAITHFUL, Interp
from probfpc.opsem import Evaluator
from probfpc.parser import _UNARY, ParseError, parse_term
from probfpc.rational import ONE, ZERO, as_prob, as_uprob
from probfpc.relate import LiftVerdict
from probfpc.corpus import _CONS, _LL, _NIL, _TAIL, head_term
from probfpc.syntax import (
    App, Case, Choice, Fold, Fst, Ifz, Inj, Lam, MuT, NatT, Num, Pair, Pred,
    ProdT, Snd, Star, Suc, SumT, Term, TVarT, Ty, Unfold, UnitT, Var, _Node,
    false_term, render_ty, true_term,
)
from probfpc.typecheck import elaborate

PROBS = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4))


# --- random typed terms -----------------------------------------------------

def gen_ground_ty(rng, depth=2):
    """A random first-order type over Unit and Nat."""
    if depth <= 0 or rng.random() < 0.5:
        return rng.choice((UnitT(), NatT()))
    if rng.random() < 0.5:
        return ProdT(gen_ground_ty(rng, depth - 1), gen_ground_ty(rng, depth - 1))
    return SumT(gen_ground_ty(rng, depth - 1), gen_ground_ty(rng, depth - 1))


def gen_value(rng, ty, ctx=(), depth=1):
    """A closed-form value of ty (may mention ctx through function bodies)."""
    if isinstance(ty, UnitT):
        return Star()
    if isinstance(ty, NatT):
        return Num(rng.randrange(4))
    if isinstance(ty, ProdT):
        return Pair(gen_value(rng, ty.a, ctx, depth),
                    gen_value(rng, ty.b, ctx, depth))
    if isinstance(ty, SumT):
        if rng.random() < 0.5:
            return Inj("l", gen_value(rng, ty.a, ctx, depth), ty)
        return Inj("r", gen_value(rng, ty.b, ctx, depth), ty)
    # FnT: a lambda whose body is a small term of the result type
    return Lam(ty.a, gen_term(rng, ty.b, ctx + (ty.a,), depth))


def gen_term(rng, ty, ctx=(), depth=3):
    """A random well-typed term of ty in ctx (innermost binding last).

    The grammar covers every first-order construct: values, variables,
    choice, suc/pred towers, ifz, projections, case, and beta redexes.
    Generated terms always type-check.
    """
    hits = [k for k, t in enumerate(reversed(ctx)) if t == ty]
    if depth <= 0:
        if hits and rng.random() < 0.5:
            return Var(rng.choice(hits))
        return gen_value(rng, ty, ctx, 0)
    r = rng.random()
    if r < 0.15 and hits:
        return Var(rng.choice(hits))
    if r < 0.30:
        return gen_value(rng, ty, ctx, depth - 1)
    if r < 0.45:
        return Choice(rng.choice(PROBS),
                      gen_term(rng, ty, ctx, depth - 1),
                      gen_term(rng, ty, ctx, depth - 1))
    if r < 0.55 and isinstance(ty, NatT):
        inner = gen_term(rng, ty, ctx, depth - 1)
        return Suc(inner) if rng.random() < 0.7 else inner
    if r < 0.65:
        return Ifz(gen_term(rng, NatT(), ctx, depth - 1),
                   gen_term(rng, ty, ctx, depth - 1),
                   gen_term(rng, ty, ctx, depth - 1))
    if r < 0.75:
        other = gen_ground_ty(rng, 1)
        if rng.random() < 0.5:
            return Fst(gen_term(rng, ProdT(ty, other), ctx, depth - 1))
        return Snd(gen_term(rng, ProdT(other, ty), ctx, depth - 1))
    if r < 0.85:
        a, b = gen_ground_ty(rng, 1), gen_ground_ty(rng, 1)
        return Case(gen_term(rng, SumT(a, b), ctx, depth - 1),
                    gen_term(rng, ty, ctx + (a,), depth - 1),
                    gen_term(rng, ty, ctx + (b,), depth - 1))
    a = gen_ground_ty(rng, 1)
    return App(Lam(a, gen_term(rng, ty, ctx + (a,), depth - 1)),
               gen_term(rng, a, ctx, depth - 1))


# --- the literal run and example processes ---------------------------------

def step_of(d: Dist) -> Dist:
    """One delay step in front of an already-built computation."""
    return step(DelayThunk(lambda: d))


def run_n(d: Dist, n: int) -> Dist:
    for _ in range(n):
        d = run(d)
    return d


def split(d: Dist):
    """Entries of the node split into values [(w, a)] and pendings [(w, t)]."""
    vals, pend = [], []
    for w, el in d.entries:
        (vals if isinstance(el, Inl) else pend).append((w, el.val))
    return vals, pend


def zeta(m: Dist) -> DelayThunk:
    """Collapse a distribution of thunks into one thunk of their convex
    combination; zeta(dirac t) = t."""
    if len(m.entries) == 1:
        return m.entries[0][1]
    return DelayThunk(lambda: dist_bind(m, lambda t: t.force()))


def continuation(pend) -> Dist:
    """Combined continuation of a node's weighted pendings [(w, t)]: the
    delay tree of their convex combination, renormalised to mass 1."""
    if len(pend) == 1:
        return pend[0][1].force()
    mass = sum((w for w, _ in pend), ZERO)
    return zeta(Dist([(w / mass, t) for w, t in pend])).force()


def value_entries(d: Dist):
    """The node's value entries [(w, Inl element)], in order: what a
    frontier's level hands out for it."""
    return [(w, el) for w, el in d.entries if isinstance(el, Inl)]


def probterm0(d: Dist) -> Fraction:
    return sum((w for w, el in d.entries if isinstance(el, Inl)),
               Fraction(0))


def ref_probterm_seq(d: Dist, n: int) -> tuple:
    """``probterm_seq`` without the replay: one frontier level per depth."""
    f = Frontier(d)
    out = [f.mass]
    for _ in range(n):
        # the mass moves only when the level delivers
        out.append(f.mass if f.step() else out[-1])
    return tuple(out)


def probterm(n: int, d: Dist) -> Fraction:
    f = Frontier(d)
    for _ in range(n):
        f.step()
    return f.mass


def value_part(d: Dist, n: int):
    """Mass delivered within n runs, together with the delivered weighted
    values (weights unnormalized), their Inl entries merged as one Dist
    merges them."""
    f = Frontier(d)
    els = value_entries(d)
    for _ in range(n):
        els = canonical([*els, *f.step()])
    return f.mass, tuple((w, el.val) for w, el in els)


def geo(p, n: int = 0) -> Dist:
    """Geometric process: deliver n with probability p, else one step and
    retry from n+1."""
    p = as_prob(p)
    return choice(p, now(n), step_fn(lambda: geo(p, n + 1)))


def hesitant(q, a) -> Dist:
    """Hesitant point distribution: each round, one step, then deliver a with
    probability q or hesitate again.  Mass after m runs is 1 - (1-q)^m."""
    q = as_prob(q)
    return step_fn(lambda: choice(q, now(a), hesitant(q, a)))


def hesitant_loop(values, steps: int = 1) -> Dist:
    """A finite graph of one thunk, whose node delivers the values
    [(w, a)] and with the rest of the mass steps back to the thunk itself,
    through ``steps`` levels; ``hesitant_loop([(q, a)])`` runs as
    ``hesitant(q, a)``, and ``hesitant_loop([])`` is a cycle of weight-1
    steps that delivers nothing."""
    body = []
    t = DelayThunk(lambda: body[0])
    back = Inr(t)
    for _ in range(steps - 1):
        back = Inr(DelayThunk(lambda el=back: dirac(el)))
    rest = 1 - sum((w for w, _ in values), ZERO)
    body.append(Dist([(w, Inl(a)) for w, a in values] + [(rest, back)]))
    return step(t)


def twin_loop(a, q=Fraction(1, 3)) -> Dist:
    """A finite graph of one thunk, whose node delivers a with probability
    q and splits the rest over two pending branches: one steps back to the
    thunk, the other to a node that delivers a through an Inl of its own.
    So each run of a level from the second on delivers a from two
    children, which ``canonical`` merges by key."""
    body = []
    t = DelayThunk(lambda: body[0])
    other = DelayThunk(lambda: now(a))
    half = (1 - q) / 2
    body.append(Dist([(q, Inl(a)), (half, Inr(t)), (half, Inr(other))]))
    return step(t)


# --- random delay trees ------------------------------------------------------

_GEN_WEIGHTS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def random_delay(rng, depth: int = 5, alphabet=(0, 1, 2, 3)) -> Dist:
    """Finite random delay tree: depth <= 5, branching <= 3, keyed leaves
    from a small alphabet, weights from a fixed rational set.  Deterministic
    given the rng's seed."""
    if depth <= 0:
        return now(rng.choice(alphabet))
    kind = rng.randrange(10)
    if kind < 3:
        return now(rng.choice(alphabet))
    if kind < 6:
        sub = random_delay(rng, depth - 1, alphabet)
        return step_of(sub)
    p = rng.choice(_GEN_WEIGHTS)
    left = random_delay(rng, depth - 1, alphabet)
    right = random_delay(rng, depth - 1, alphabet)
    if kind < 9:
        return choice(p, left, right)
    q = rng.choice(_GEN_WEIGHTS)
    mid = random_delay(rng, depth - 1, alphabet)
    return choice(p, left, choice(q, mid, right))


class Opaque:
    """An unkeyed carrier element: no sort key, compared by identity."""
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "Opaque(%s)" % self.name


OPAQUE = tuple(Opaque(c) for c in "abc")


def shared_delay(rng, depth: int = 4, pool=None) -> Dist:
    """Random delay tree whose steps rejoin: pending entries reach a pool of
    three shared thunks, each time through a fresh Inr object, and the pool's
    trees may step back into the pool, so the tree is infinite.  Leaves mix
    keyed numerals and unkeyed Opaque elements, each leaf its own Inl.  Built
    eagerly, so it is deterministic given the rng's seed whatever order the
    thunks are later forced in."""
    if pool is None:
        bodies = []
        pool = [DelayThunk(lambda i=i: bodies[i]) for i in range(3)]
        bodies.extend(shared_delay(rng, 3, pool) for _ in pool)
    kind = rng.randrange(8)
    if depth <= 0 or kind < 2:
        return now(rng.choice((0, 1, 2) + OPAQUE))
    if kind < 4:
        return dirac(Inr(rng.choice(pool)))
    if kind < 5:
        return step_of(shared_delay(rng, depth - 1, pool))
    p = rng.choice(_GEN_WEIGHTS)
    return choice(p, shared_delay(rng, depth - 1, pool),
                   shared_delay(rng, depth - 1, pool))


_POOL_SPLITS = (
    (Fraction(1, 6), Fraction(1, 3)), (Fraction(1, 10), Fraction(2, 5)),
    (Fraction(1, 4), Fraction(1, 4)), (Fraction(1, 3), Fraction(1, 3)),
)


def pooled_delay(rng, size: int = 5) -> Dist:
    """Random delay tree over a pool of shared thunks, for the frontier's
    level paths.  Each pool thunk is reached through one Inr object, so the
    literal run merges entries exactly where the frontier does, and its
    support stays within the pool however deep it runs.  A pool node is a
    value, a pure step chain of 1-3 fresh thunks into a pool thunk, a step
    reached twice (weights 1/3 and 2/3 that canonical merges into one entry
    of weight 1), or a mixed node: a value and a pair of weights that reach
    one pool thunk through two chains of equal length, so the pair merges,
    often into a smaller denominator, after pure step levels.  Steps
    rejoin the pool, so mixed nodes are forced again at later levels.  The
    tree is the first pool thunk's node.  Built eagerly, so deterministic
    given the rng's seed."""
    bodies = []
    pool = [DelayThunk(lambda i=i: bodies[i]) for i in range(size)]
    inr = [Inr(t) for t in pool]

    def chain(j, k):
        el = inr[j]
        for _ in range(k):
            el = Inr(DelayThunk(lambda el=el: dirac(el)))
        return el

    for _ in pool:
        kind, j = rng.randrange(8), rng.randrange(size)
        if kind < 1:
            bodies.append(now(rng.randrange(3)))
        elif kind < 4:
            bodies.append(dirac(chain(j, rng.randrange(1, 4))))
        elif kind < 5:
            bodies.append(Dist([(Fraction(1, 3), inr[j]),
                                (Fraction(2, 3), inr[j])]))
        else:
            a, b = rng.choice(_POOL_SPLITS)
            k = rng.randrange(1, 4)
            bodies.append(Dist([(a, chain(j, k)), (b, chain(j, k)),
                                (1 - a - b, Inl(rng.randrange(3)))]))
    return bodies[0]


# --- reduction witnesses -----------------------------------------------------
#
# The fuelled step reduction of a delay tree, as explicit witnesses: a
# witness says which branches lose a step, ``check_witness`` replays it, and
# replaying ``witness_for_run(d, n)`` must give ``run_n(d, n)``.

class Refl:
    __slots__ = ()

    def __repr__(self):
        return "Refl"


class StepElim:
    __slots__ = ()

    def __repr__(self):
        return "StepElim"


class Seq:
    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def __repr__(self):
        return "Seq(%r, %r)" % (self.first, self.second)


class ChoiceCong:
    __slots__ = ("p", "left", "right")

    def __init__(self, p, left, right):
        self.p = as_prob(p)
        self.left = left
        self.right = right

    def __repr__(self):
        return "ChoiceCong(%s, %r, %r)" % (self.p, self.left, self.right)


class WitnessShapeError(ValueError):
    """Witness node does not match the shape of the delay tree it reduces."""


def check_witness(w, d: Dist) -> Dist:
    """Replay a reduction witness against d, returning the reduct.

    StepElim demands a pure step node.  ChoiceCong(p, _, _) splits the
    canonical support list at the unique minimal prefix of mass exactly p;
    witnesses produced by ``witness_for_run`` always split that way.
    """
    if isinstance(w, Refl):
        return d
    if isinstance(w, StepElim):
        es = d.entries
        if len(es) != 1 or not isinstance(es[0][1], Inr):
            raise WitnessShapeError("StepElim applied to a non-step node: %r" % (d,))
        return es[0][1].val.force()
    if isinstance(w, Seq):
        return check_witness(w.second, check_witness(w.first, d))
    if isinstance(w, ChoiceCong):
        es = d.entries
        acc = ZERO
        for i in range(len(es)):
            acc += es[i][0]
            if acc == w.p:
                left = Dist([(wt / w.p, v) for wt, v in es[: i + 1]])
                right = Dist([(wt / (ONE - w.p), v) for wt, v in es[i + 1:]])
                return choice(w.p, check_witness(w.left, left),
                               check_witness(w.right, right))
            if acc > w.p:
                break
        raise WitnessShapeError(
            "ChoiceCong(%s, ..) has no prefix of that mass in %r" % (w.p, d))
    raise TypeError("not a witness: %r" % (w,))


def _witness_one(d: Dist):
    """Witness for one run: eliminates exactly the top step layer of d."""
    es = d.entries
    if len(es) == 1:
        return Refl() if isinstance(es[0][1], Inl) else StepElim()
    w0 = es[0][0]
    head = dirac(es[0][1])
    rest = Dist([(wt / (ONE - w0), v) for wt, v in es[1:]])
    return ChoiceCong(w0, _witness_one(head), _witness_one(rest))


def witness_for_run(d: Dist, n: int = 1):
    """A witness w with check_witness(w, d) = run_n(d, n)."""
    if n == 0:
        return Refl()
    w = _witness_one(d)
    cur = run(d)
    for _ in range(n - 1):
        w = Seq(w, _witness_one(cur))
        cur = run(cur)
    return w


def node_eq(d: Dist, e: Dist) -> bool:
    """Exact one-level equality: same canonical entry list, pending entries
    compared by thunk identity.  Used by the witness tests."""
    des, ees = d.entries, e.entries
    if len(des) != len(ees):
        return False
    for (w1, v1), (w2, v2) in zip(des, ees):
        if w1 != w2:
            return False
        if isinstance(v1, Inl) != isinstance(v2, Inl):
            return False
        if isinstance(v1, Inl):
            if key_of(v1.val) != key_of(v2.val):
                return False
        elif v1.val is not v2.val:
            return False
    return True


def random_witness(rng, d, depth=3):
    """A witness valid for d that advances a random subset of its branches.

    Splits are generated at actual prefix boundaries of the canonical entry
    list, which is exactly where replay expects them.
    """
    es = d.entries
    if depth <= 0 or rng.random() < 0.25:
        return Refl()
    if len(es) == 1:
        el = es[0][1]
        if isinstance(el, Inl):
            return Refl()
        if rng.random() < 0.5:
            inner = random_witness(rng, el.val.force(), depth - 1)
            if isinstance(inner, Refl):
                return StepElim()
            return Seq(StepElim(), inner)
        return StepElim()
    i = rng.randrange(len(es) - 1)
    p = sum((w for w, _ in es[: i + 1]), Fraction(0))
    left = Dist([(w / p, v) for w, v in es[: i + 1]])
    right = Dist([(w / (1 - p), v) for w, v in es[i + 1:]])
    return ChoiceCong(p, random_witness(rng, left, depth - 1),
                      random_witness(rng, right, depth - 1))


def witness_steps(w):
    """Most step layers the witness eliminates along any one branch."""
    if isinstance(w, Refl):
        return 0
    if isinstance(w, StepElim):
        return 1
    if isinstance(w, Seq):
        return witness_steps(w.first) + witness_steps(w.second)
    return max(witness_steps(w.left), witness_steps(w.right))


# --- canonical comparison and read-back soundness ---------------------------

def _merge_by_key(pairs):
    out = {}
    for w, v in pairs:
        k = key_of(v)
        if k is None:
            raise TypeError("unkeyed element %r in a keyed comparison" % (v,))
        out[k] = out.get(k, ZERO) + w
    return out


def prefix_eq(d: Dist, e: Dist, depth: int) -> bool:
    """Structural equality of two delay trees to a forcing depth, comparing
    at each level the canonical decomposition: merged keyed value entries,
    total delayed mass, and (recursively) the combined continuation."""
    dv, dp = split(d)
    ev, ep = split(e)
    if _merge_by_key(dv) != _merge_by_key(ev):
        return False
    dm = sum((w for w, _ in dp), Fraction(0))
    em = sum((w for w, _ in ep), Fraction(0))
    if dm != em:
        return False
    if depth == 0 or not dp:
        return True
    return prefix_eq(continuation(dp), continuation(ep), depth - 1)


def is_ground_ty(ty: Ty) -> bool:
    """Unit/Nat closed under products and sums: the types whose semantic
    values carry no computation."""
    if isinstance(ty, (UnitT, NatT)):
        return True
    if isinstance(ty, (ProdT, SumT)):
        return is_ground_ty(ty.a) and is_ground_ty(ty.b)
    return False


def soundness_check(t: Term, depth: int) -> bool:
    """Evaluate-then-read-back vs step-faithful interpretation, compared as
    canonical trees through the given depth.  Requires a first-order type:
    the read-back of a lambda would need the full logical relation."""
    ty = elaborate(t)
    if not is_ground_ty(ty):
        raise TypeError("soundness_check needs a ground-typed term, got %r"
                        % (ty,))
    reader = Interp(STANDARD)
    left = delay_map(Evaluator().eval(t), lambda v: reader.val(v, ()))
    right = Interp(STEP_FAITHFUL).interp(t, ())
    return prefix_eq(left, right, depth)


# --- printing ------------------------------------------------------------------

_UNARY_KW = {cls: w for w, cls in _UNARY.items()}
_TRUE = true_term()
_FALSE = false_term()


def pretty(t: Term, _depth=0, _prec=0) -> str:
    """Minimal-paren concrete syntax with canonical binder names.

    Beta-redexes print as lets, whose binder the parser leaves untyped;
    bool injections print as true/false.  So parse(pretty(t)) has t's type
    and prints as t does, and differs from t at most in let binders.
    """
    def wrap(s, level):
        return "(%s)" % s if _prec > level else s

    if isinstance(t, Star):
        return "*"
    if isinstance(t, Num):
        return str(t.n)
    if isinstance(t, Var):
        return "x%d" % (_depth - 1 - t.k)
    if isinstance(t, Inj):
        if t == _TRUE:
            return "true"
        if t == _FALSE:
            return "false"
        return wrap("in%s[%s] %s" % (t.side, render_ty(t.ann),
                                     pretty(t.m, _depth, 2)), 1)
    if type(t) in _UNARY_KW:
        return wrap("%s %s" % (_UNARY_KW[type(t)], pretty(t.m, _depth, 2)), 1)
    if isinstance(t, Fold):
        return wrap("fold[%s] %s" % (render_ty(t.ann), pretty(t.m, _depth, 2)), 1)
    if isinstance(t, Pair):
        return "(%s, %s)" % (pretty(t.a, _depth, 0), pretty(t.b, _depth, 0))
    if isinstance(t, Ifz):
        return wrap("ifz %s then %s else %s"
                    % (pretty(t.cond, _depth, 0), pretty(t.zero, _depth, 0),
                       pretty(t.succ, _depth, 0)), 0)
    if isinstance(t, Case):
        name = "x%d" % _depth
        return wrap("case %s of { inl %s => %s ; inr %s => %s }"
                    % (pretty(t.scrut, _depth, 0), name,
                       pretty(t.left, _depth + 1, 0), name,
                       pretty(t.right, _depth + 1, 0)), 0)
    if isinstance(t, Lam):
        name = "x%d" % _depth
        ann = render_ty(t.var_ty) if t.var_ty is not None else "?"
        return wrap("fn %s : %s => %s" % (name, ann,
                                          pretty(t.body, _depth + 1, 0)), 0)
    if isinstance(t, App):
        if isinstance(t.fn, Lam):
            name = "x%d" % _depth
            return wrap("let %s = %s in %s"
                        % (name, pretty(t.arg, _depth, 0),
                           pretty(t.fn.body, _depth + 1, 0)), 0)
        return wrap("%s %s" % (pretty(t.fn, _depth, 1),
                               pretty(t.arg, _depth, 2)), 1)
    if isinstance(t, Choice):
        return wrap("choice %s %s %s"
                    % (t.p, pretty(t.left, _depth, 3), pretty(t.right, _depth, 3)), 0)
    raise TypeError("not a term: %r" % (t,))


# --- the interpreter's memo key ----------------------------------------------

class EnvKeyInterp(Interp):
    """The interpreter with its memo keyed on (term, whole environment), the
    finer key it had before it keyed on the values at the free indices."""

    def _key(self, t, env):
        return t, env


def pendings(f: Frontier) -> list:
    """A frontier's pending thunks [(w, t)] in first-occurrence order."""
    return [(Fraction(n, f._den), t) for t, n in f._pending.items()]


def frontier_widths(d: Dist, n: int) -> list:
    """Pending thunks on the frontier at depths 0..n, merged by identity."""
    f = Frontier(d)
    out = [len(pendings(f))]
    for _ in range(n):
        f.step()
        out.append(len(pendings(f)))
    return out


# --- corpus programs only the tests use ---------------------------------------

def omega_nat() -> Term:
    """Divergence at Nat in two steps per round."""
    r = "(mu X. X -> Nat)"
    w = "(fn w : %s => (unfold w) w)" % r
    return parse_term("%s (fold[%s] %s)" % (w, r, w))


def geo_chain(p, levels: int) -> Term:
    """Unrolled geometric chain: exactly one delay step between consecutive
    candidate values, so probterm(n) = 1 - (1-p)^(n+1) for n < levels; the
    tail past the last level diverges."""
    p = as_prob(p)
    t = omega_nat()
    for k in range(levels - 1, -1, -1):
        # let u = * in <next> costs exactly one step
        t = parse_term("choice %s %d (let u = * in next)" % (p, k),
                       defs={"next": t})
    return t


def force_k(k: int) -> Term:
    """Unit-valued observer forcing the first k cells of a lazy list."""
    t = parse_term("fn l : %s => *" % _LL)
    for _ in range(k):
        t = parse_term(
            "fn l : %s => case unfold l of { inl u => * ; inr c => rest (snd c *) }"
            % _LL, defs={"rest": t})
    return t


def walk_force_src(k: int, start: int = 4) -> str:
    """Source of a unit observer forcing the first k cells of the lazy
    two-step walk from `start`, every helper bound by a `def`, so each
    binder stays in the environment of the terms under it."""
    src = ("def Y = fn f : (Nat -> %s) -> Nat -> %s => fn z : Nat =>\n"
           "  (fn y : (mu X. X -> Nat -> %s) => let u = unfold y in"
           " f (fn x : Nat => u y x))\n"
           "  (fold[(mu X. X -> Nat -> %s)] (fn y : (mu X. X -> Nat -> %s) =>"
           " let u = unfold y in f (fn x : Nat => u y x))) z ;\n"
           "def cons = %s ;\n"
           "def walk = fn g : Nat -> %s => fn n : Nat =>\n"
           "  cons n (fn y : Unit => ifz n then %s else\n"
           "    (choice 1/2 (g n) (choice 1/2 (g (pred (pred n))) (g (suc (suc n)))))) ;\n"
           "def force0 = fn l : %s => * ;\n"
           % ((_LL,) * 5 + (_CONS, _LL, _NIL, _LL)))
    for i in range(1, k + 1):
        src += ("def force%d = fn l : %s => case unfold l of"
                " { inl u => * ; inr c => force%d (snd c *) } ;\n" % (i, _LL, i - 1))
    return src + "force%d (Y walk %d)\n" % (k, start)


LOOP_TY = "(mu X. X -> Unit -> Unit)"


def unit_loop(q) -> str:
    """Source of a Unit -> Unit loop that stops with probability q at each
    unfold: the loop body applied to its own fold."""
    fn = ("(fn w : %s => fn n : Unit => choice %s n ((unfold w) w n))"
          % (LOOP_TY, q))
    return "%s (fold[%s] %s)" % (fn, LOOP_TY, fn)


def nth_head(j: int) -> Term:
    """Observer reading the j-th head (0-based): head after j tails.
    Type LazyList -> Nat + Unit."""
    src = "l"
    for _ in range(j):
        src = "tl (%s)" % src
    return parse_term("fn l : %s => hd (%s)" % (_LL, src),
                      defs={"hd": head_term(), "tl": parse_term(_TAIL)})


def unitize(t: Term, ty: Ty) -> Term:
    """Discard a result: (fn q : ty => *) t.  One extra step on delivery."""
    return App(Lam(ty, Star()), t)


# --- reference implementations of the node traversals -------------------------
#
# The syntax module derives substitution, type substitution and the sort key
# from each node class's field list.  These are the same operations written
# out class by class, for the property tests to compare against.

def ref_key(node):
    """The structural sort key, rebuilt by walking the fields."""
    def enc(f):
        if isinstance(f, _Node):
            return ref_key(f)
        return ("none",) if f is None else f
    return (node._tag,) + tuple(enc(getattr(node, n)) for n in node._fields)


def ref_free(t):
    """The free de Bruijn indices of t's own sort (term or type), class by
    class; an index under a binder counts one less outside it."""
    if isinstance(t, (Var, TVarT)):
        return {t.k}
    if isinstance(t, (Star, Num, UnitT, NatT)):
        return set()
    if isinstance(t, (Lam, MuT)):
        return {i - 1 for i in ref_free(t.body) if i > 0}
    if isinstance(t, Case):
        under = ref_free(t.left) | ref_free(t.right)
        return ref_free(t.scrut) | {i - 1 for i in under if i > 0}
    if isinstance(t, (Suc, Pred, Fst, Snd, Inj, Fold, Unfold)):
        return ref_free(t.m)
    if isinstance(t, Ifz):
        return ref_free(t.cond) | ref_free(t.zero) | ref_free(t.succ)
    if isinstance(t, Choice):
        return ref_free(t.left) | ref_free(t.right)
    if isinstance(t, App):
        return ref_free(t.fn) | ref_free(t.arg)
    return ref_free(t.a) | ref_free(t.b)


def ref_fv(t):
    """One past the largest free index of t's own sort; 0 when t is closed."""
    return max(ref_free(t), default=-1) + 1


def ref_ty_closed(t, depth=0):
    if isinstance(t, TVarT):
        return t.k < depth
    if isinstance(t, (UnitT, NatT)):
        return True
    if isinstance(t, MuT):
        return ref_ty_closed(t.body, depth + 1)
    return ref_ty_closed(t.a, depth) and ref_ty_closed(t.b, depth)


def ref_ty_shift(t, d, cutoff=0):
    if isinstance(t, TVarT):
        return TVarT(t.k + d) if t.k >= cutoff else t
    if isinstance(t, (UnitT, NatT)):
        return t
    if isinstance(t, MuT):
        return MuT(ref_ty_shift(t.body, d, cutoff + 1))
    cls = type(t)
    return cls(ref_ty_shift(t.a, d, cutoff), ref_ty_shift(t.b, d, cutoff))


def ref_ty_subst(t, s, j=0):
    if isinstance(t, TVarT):
        if t.k == j:
            return ref_ty_shift(s, j)
        return TVarT(t.k - 1) if t.k > j else t
    if isinstance(t, (UnitT, NatT)):
        return t
    if isinstance(t, MuT):
        return MuT(ref_ty_subst(t.body, s, j + 1))
    cls = type(t)
    return cls(ref_ty_subst(t.a, s, j), ref_ty_subst(t.b, s, j))


def ref_subst(t, v, k=0):
    if isinstance(t, Var):
        if t.k == k:
            return v
        return Var(t.k - 1) if t.k > k else t
    if isinstance(t, (Star, Num)):
        return t
    if isinstance(t, Suc):
        return Suc(ref_subst(t.m, v, k))
    if isinstance(t, Pred):
        return Pred(ref_subst(t.m, v, k))
    if isinstance(t, Ifz):
        return Ifz(ref_subst(t.cond, v, k), ref_subst(t.zero, v, k),
                   ref_subst(t.succ, v, k))
    if isinstance(t, Pair):
        return Pair(ref_subst(t.a, v, k), ref_subst(t.b, v, k))
    if isinstance(t, Fst):
        return Fst(ref_subst(t.m, v, k))
    if isinstance(t, Snd):
        return Snd(ref_subst(t.m, v, k))
    if isinstance(t, Inj):
        return Inj(t.side, ref_subst(t.m, v, k), t.ann)
    if isinstance(t, Case):
        return Case(ref_subst(t.scrut, v, k), ref_subst(t.left, v, k + 1),
                    ref_subst(t.right, v, k + 1))
    if isinstance(t, Lam):
        return Lam(t.var_ty, ref_subst(t.body, v, k + 1))
    if isinstance(t, App):
        return App(ref_subst(t.fn, v, k), ref_subst(t.arg, v, k))
    if isinstance(t, Fold):
        return Fold(ref_subst(t.m, v, k), t.ann)
    if isinstance(t, Unfold):
        return Unfold(ref_subst(t.m, v, k))
    if isinstance(t, Choice):
        return Choice(t.p, ref_subst(t.left, v, k), ref_subst(t.right, v, k))
    raise TypeError("not a term: %r" % (t,))


# --- the max-flow coupling, on a generic graph of Fractions ---------------------

def ref_max_flow(left, right, rel):
    """`relate._max_flow` as it read when it ran Edmonds-Karp on a generic
    graph: source, one node per left and right entry, and sink, each arc
    with its reverse at 0 in a dict of exact Fraction capacities.  Returns
    (value, {(i, j): flow})."""
    n, m = len(left), len(right)
    src, snk = n + m, n + m + 1
    adj = [[] for _ in range(n + m + 2)]
    cap = {}

    def add(u, v, c):       # each arc is added once, with its reverse at 0
        adj[u].append(v)
        adj[v].append(u)
        cap[(u, v)] = c
        cap[(v, u)] = ZERO

    for i, (w, _) in enumerate(left):
        add(src, i, w)
    for j, (w, _) in enumerate(right):
        add(n + j, snk, w)
    edges = [(i, j) for i, (_, a) in enumerate(left)
             for j, (_, b) in enumerate(right) if rel(a, b)]
    for i, j in edges:
        add(i, n + j, left[i][0])

    total = ZERO
    while True:
        parent = {src: src}
        queue = deque([src])
        while queue and snk not in parent:
            u = queue.popleft()
            for v in adj[u]:
                if v not in parent and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if snk not in parent:
            break
        push = None
        v = snk
        while v != src:
            u = parent[v]
            c = cap[(u, v)]
            push = c if push is None or c < push else push
            v = u
        v = snk
        while v != src:
            u = parent[v]
            cap[(u, v)] -= push
            cap[(v, u)] += push
            v = u
        total += push
    flow = {}
    for i, j in edges:
        f = cap[(n + j, i)]  # residual of the reverse arc = pushed flow
        if f > 0:
            flow[(i, j)] = f
    return total, flow


# --- the lifting, one recursive call per fuel unit -----------------------------

def ref_lift_check(d: Dist, e: Dist, rel, fuel: int, horizon: int, eps):
    """`relate.lift_check` as it read when it called itself once per level:
    the same search, verdicts and trace, with the right side's values and
    residue pendings read off the literal m-fold run, as
    split(run_n(e, m))[0] and split(run_n(e, m))[1].  The residue keeps
    each value left over in its own Inl element, as a Dist of the run's
    entries would, so an unkeyed value merges with its later deliveries."""
    eps = as_uprob(eps)
    if fuel <= 0:
        return LiftVerdict(True, "fuel exhausted; remaining obligation accepted",
                           {"case": "fuel"})
    vals, pend = split(d)
    p = sum((w for w, _ in vals), ZERO)
    evals = split(e)[0]
    m, flowval, flow = 0, ZERO, {}
    if p > 0:
        best = ZERO
        while True:
            flowval, flow = ref_max_flow(vals, evals, rel)
            best = max(best, flowval)
            if flowval >= p - eps:
                break
            # a level that delivers nothing leaves the flow as it was
            before = sum((w for w, _ in evals), ZERO)
            grew = False
            while not grew and m < horizon:
                m += 1
                evals = split(run_n(e, m))[0]
                grew = sum((w for w, _ in evals), ZERO) > before
            if not grew:
                return LiftVerdict(
                    False, "no coupling within horizon",
                    {"case": "no-coupling", "fuel": fuel, "value_mass": str(p),
                     "best_flow": str(best), "horizon": horizon, "eps": str(eps)})
    level = {"case": "mixed" if (p > 0 and pend) else
                     ("value-only" if not pend else "delayed-only"),
             "fuel": fuel, "m": m, "value_mass": str(p), "flow": str(flowval),
             "coupled_pairs": len(flow)}
    if not pend:
        return LiftVerdict(True, "value part coupled", level)
    consumed = {}
    for (_, j), f in flow.items():
        consumed[j] = consumed.get(j, ZERO) + f
    resid = [(w - consumed.get(j, ZERO), el)
             for j, (w, el) in enumerate(value_entries(run_n(e, m)))
             if w - consumed.get(j, ZERO) > 0]
    resid += [(w, Inr(t)) for w, t in split(run_n(e, m))[1]]
    rmass = sum((w for w, _ in resid), ZERO)
    if rmass == 0:
        return LiftVerdict(False, "right side exhausted before left",
                           dict(level, case="no-residue"))
    nu2 = Dist([(w / rmass, el) for w, el in resid])
    sub = ref_lift_check(continuation(pend), nu2, rel, fuel - 1, horizon, eps)
    level["child"] = sub.trace
    return LiftVerdict(sub.holds, sub.reason if not sub.holds else
                       "per-level couplings found", level)


# --- the lexer, one character at a time ----------------------------------------

_SYM2 = ("=>", "->")
_SYM1 = "()[]{},;:.=*+/"
_DIGITS = "0123456789"      # str.isdigit() also admits digits int() rejects


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind      # "ident", "num", "sym", "eof"
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.text)


def ref_lex(src):
    """`parser._lex` as it read when it walked the source one character at
    a time; a decimal literal is a "num" token with a dot in its text."""
    toks = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if src.startswith("--", i):
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c in _DIGITS:
            j = i
            while j < n and src[j] in _DIGITS:
                j += 1
            # decimal literal only when a digit follows the dot, so the
            # dot of "mu X. t" stays a symbol
            if j + 1 < n and src[j] == "." and src[j + 1] in _DIGITS:
                j += 1
                while j < n and src[j] in _DIGITS:
                    j += 1
            toks.append(_Tok("num", src[i:j], line, col))
            col += j - i
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] in "_'"):
                j += 1
            toks.append(_Tok("ident", src[i:j], line, col))
            col += j - i
            i = j
            continue
        two = src[i:i + 2]
        if two in _SYM2:
            toks.append(_Tok("sym", two, line, col))
            i += 2
            col += 2
            continue
        if c in _SYM1:
            toks.append(_Tok("sym", c, line, col))
            i += 1
            col += 1
            continue
        raise ParseError("stray character %r" % c, line, col)
    toks.append(_Tok("eof", "", line, col))
    return toks
