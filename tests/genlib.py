"""Random generators shared by the property suites.

Everything here is deterministic given the caller's seeded ``random.Random``;
the suites fix their seeds so failures replay.
"""

from fractions import Fraction

from probfpc.dist import Dist, Inl, Inr, dirac
from probfpc.delay import (
    Delay, DelayThunk, ChoiceCong, Refl, Seq, StepElim, dchoice, now, step_of,
)
from probfpc.syntax import (
    App, Case, Choice, Fold, Fst, Ifz, Inj, Lam, MuT, NatT, Num, Pair, Pred,
    ProdT, Snd, Star, Suc, SumT, TVarT, Unfold, UnitT, Var, _Node,
)

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
    Generated terms always elaborate.
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


# --- random delay trees ------------------------------------------------------

_GEN_WEIGHTS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def random_delay(rng, depth: int = 5, alphabet=(0, 1, 2, 3)) -> Delay:
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
        return dchoice(p, left, right)
    q = rng.choice(_GEN_WEIGHTS)
    mid = random_delay(rng, depth - 1, alphabet)
    return dchoice(p, left, dchoice(q, mid, right))


class Opaque:
    """An unkeyed carrier element: no sort key, compared by identity."""
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return "Opaque(%s)" % self.name


OPAQUE = tuple(Opaque(c) for c in "abc")


def shared_delay(rng, depth: int = 4, pool=None) -> Delay:
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
        return Delay(dirac(Inr(rng.choice(pool))))
    if kind < 5:
        return step_of(shared_delay(rng, depth - 1, pool))
    p = rng.choice(_GEN_WEIGHTS)
    return dchoice(p, shared_delay(rng, depth - 1, pool),
                   shared_delay(rng, depth - 1, pool))


# --- random reduction witnesses ---------------------------------------------

def random_witness(rng, d, depth=3):
    """A witness valid for d that advances a random subset of its branches.

    Splits are generated at actual prefix boundaries of the canonical entry
    list, which is exactly where replay expects them.
    """
    es = d.node.entries
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
    left = Delay(Dist([(w / p, v) for w, v in es[: i + 1]]))
    right = Delay(Dist([(w / (1 - p), v) for w, v in es[i + 1:]]))
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
                    ref_subst(t.right, v, k + 1), t.ann)
    if isinstance(t, Lam):
        return Lam(t.var_ty, ref_subst(t.body, v, k + 1))
    if isinstance(t, App):
        return App(ref_subst(t.fn, v, k), ref_subst(t.arg, v, k), t.ann)
    if isinstance(t, Fold):
        return Fold(ref_subst(t.m, v, k), t.ann)
    if isinstance(t, Unfold):
        return Unfold(ref_subst(t.m, v, k))
    if isinstance(t, Choice):
        return Choice(t.p, ref_subst(t.left, v, k), ref_subst(t.right, v, k))
    raise TypeError("not a term: %r" % (t,))
