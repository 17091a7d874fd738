"""Denotational semantics: environment-based interpretation into delay trees.

Semantic values are ground data (units, naturals, pairs, and injections
as `dist.Inl`/`Inr`), closures (`FunV`, a Python function from semantic
value to delay tree), and recursive-type cells (`FoldV`, a memoised thunk).
Ground values compare structurally and carry sort keys, so distributions
over them canonicalize; closures and cells compare by identity.

Two step disciplines:

  standard      a step is charged only when an unfold forces a fold cell;
                applications and case branches are silent
  step-faithful every cost site of the operational semantics is mirrored
                (function entry, case branch entry, unfold), making the
                interpretation step-for-step comparable with evaluation
"""

from .delay import DelayThunk, delay_bind, delay_map, now, step_fn
from .dist import Dist, Inl, Inr, choice, key_of
from .syntax import (
    Term, Star, Num, Var, Suc, Pred, Ifz, Pair, Fst, Snd,
    Inj, Case, Lam, App, Fold, Unfold, Choice, is_value,
)

__all__ = [
    "STANDARD", "STEP_FAITHFUL",
    "NatV", "UNIT", "PairV", "FunV", "FoldV", "SemDefect", "Interp",
]

STANDARD = "standard"
STEP_FAITHFUL = "step-faithful"


class SemDefect(Exception):
    """A semantic value shape that typing rules out."""


class _UnitV:
    __slots__ = ()

    def dist_key(self):
        return ("unitv",)

    def __repr__(self):
        return "UNIT"


UNIT = _UnitV()


class NatV:
    __slots__ = ("n",)

    def __init__(self, n):
        self.n = n

    def __eq__(self, other):
        return isinstance(other, NatV) and self.n == other.n

    def __hash__(self):
        return hash(("natv", self.n))

    def dist_key(self):
        return ("natv", self.n)

    def __repr__(self):
        return "NatV(%d)" % self.n


class PairV:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def __eq__(self, other):
        return isinstance(other, PairV) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash(("pairv", self.a, self.b))

    def dist_key(self):
        ka = key_of(self.a)
        kb = key_of(self.b)
        if ka is None or kb is None:
            return None
        return ("pairv", ka, kb)

    def __repr__(self):
        return "PairV(%r, %r)" % (self.a, self.b)


class FunV:
    """Closure: fn maps a semantic value to a delay tree of semantic values.
    Identity equality; two closures are never merged."""
    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __repr__(self):
        return "FunV(<%x>)" % id(self)


class FoldV(DelayThunk):
    """Value of recursive type; content is computed on first unfold."""
    __slots__ = ()

    def __repr__(self):
        return "FoldV(<%x>)" % id(self)


def _defect(msg, v):
    raise SemDefect("%s: %r" % (msg, v))


class Interp:
    def __init__(self, mode=STANDARD):
        if mode not in (STANDARD, STEP_FAITHFUL):
            raise ValueError("unknown mode %r" % mode)
        self.mode = mode
        self._memo = {}

    def interp(self, t: Term, env=()) -> Dist:
        """Delay tree of semantic values; env is a tuple, innermost binding
        last.  Memoized per (term, env) since both are immutable."""
        if is_value(t):
            return now(self.val(t, env))
        key = (t, env)
        d = self._memo.get(key)
        if d is None:
            d = self._build(t, env)
            self._memo[key] = d
        return d

    def val(self, t: Term, env=()):
        """Semantic value of a value term."""
        if isinstance(t, Star):
            return UNIT
        if isinstance(t, Num):
            return NatV(t.n)
        if isinstance(t, Lam):
            body = t.body
            return FunV(lambda v: self.interp(body, env + (v,)))
        if isinstance(t, Pair):
            return PairV(self.val(t.a, env), self.val(t.b, env))
        if isinstance(t, Inj):
            inner = self.val(t.m, env)
            return Inl(inner) if t.side == "l" else Inr(inner)
        if isinstance(t, Fold):
            m = t.m
            return FoldV(lambda: self.val(m, env))
        raise SemDefect("not a value term: %r" % (t,))

    def _build(self, t: Term, env) -> Dist:
        itp = self.interp
        stepping = self.mode == STEP_FAITHFUL
        if isinstance(t, Var):
            return now(env[-1 - t.k])
        if isinstance(t, Suc):
            return delay_map(itp(t.m, env), _suc)
        if isinstance(t, Pred):
            return delay_map(itp(t.m, env), _pred)
        if isinstance(t, Ifz):
            zero, succ = t.zero, t.succ
            def branch(v):
                if not isinstance(v, NatV):
                    _defect("ifz scrutinee", v)
                return itp(zero, env) if v.n == 0 else itp(succ, env)
            return delay_bind(itp(t.cond, env), branch)
        if isinstance(t, Pair):
            b = t.b
            return delay_bind(itp(t.a, env),
                              lambda va: delay_map(itp(b, env),
                                                   lambda vb: PairV(va, vb)))
        if isinstance(t, Fst):
            return delay_map(itp(t.m, env), _fst)
        if isinstance(t, Snd):
            return delay_map(itp(t.m, env), _snd)
        if isinstance(t, Inj):
            mk = Inl if t.side == "l" else Inr
            return delay_map(itp(t.m, env), mk)
        if isinstance(t, Case):
            left, right = t.left, t.right
            def scrut(v):
                if isinstance(v, Inl):
                    br, w = left, v.val
                elif isinstance(v, Inr):
                    br, w = right, v.val
                else:
                    _defect("case scrutinee", v)
                if stepping:
                    return step_fn(lambda: itp(br, env + (w,)))
                return itp(br, env + (w,))
            return delay_bind(itp(t.scrut, env), scrut)
        if isinstance(t, App):
            arg = t.arg
            def applied(f):
                if not isinstance(f, FunV):
                    _defect("applied non-closure", f)
                if stepping:
                    return delay_bind(itp(arg, env),
                                      lambda v: step_fn(lambda: f.fn(v)))
                return delay_bind(itp(arg, env), f.fn)
            return delay_bind(itp(t.fn, env), applied)
        if isinstance(t, Fold):
            # non-value content: run it, then seal the result in a cell
            return delay_map(itp(t.m, env),
                             lambda v: FoldV(lambda: v))
        if isinstance(t, Unfold):
            def unfolded(v):
                if not isinstance(v, FoldV):
                    _defect("unfold of non-fold", v)
                return step_fn(lambda: now(v.force()))
            return delay_bind(itp(t.m, env), unfolded)
        if isinstance(t, Choice):
            return choice(t.p, itp(t.left, env), itp(t.right, env))
        if isinstance(t, Lam):
            raise SemDefect("unreachable, lambdas are values")
        raise TypeError("not a term: %r" % (t,))


def _suc(v):
    if not isinstance(v, NatV):
        _defect("suc of non-numeral", v)
    return NatV(v.n + 1)


def _pred(v):
    if not isinstance(v, NatV):
        _defect("pred of non-numeral", v)
    return NatV(v.n - 1 if v.n > 0 else 0)


def _fst(v):
    if not isinstance(v, PairV):
        _defect("fst of non-pair", v)
    return v.a


def _snd(v):
    if not isinstance(v, PairV):
        _defect("snd of non-pair", v)
    return v.b

