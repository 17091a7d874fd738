"""Denotational semantics: environment-based interpretation into delay trees.

Semantic values are plain data, one shape per type:

  Unit      ()
  Nat       int
  A * B     a 2-tuple
  A + B     dist.Inl / dist.Inr
  A -> B    a Python function from semantic value to delay tree
  mu X. A   FoldV, a memoised cell

Ground values compare structurally and sort by `dist.key_of`, so
distributions over them canonicalize; functions and cells have no key and
compare by identity.

`Interp.interp` memoises a term's delay tree per the environment values at
the term's free de Bruijn indices, which the term caches as `t.free`, not
per the whole environment, which also holds every `def` and binder the
term no longer uses.  Interpreting a term reads the environment only
through its free variables, the closures it makes included, so
environments that agree there give trees that behave alike.  Two paths to
one list cell thus share the cell's thunks, and `Frontier` merges them by
identity, as it does op's thunks of one closed term.

Two step disciplines:

  standard      a step is charged only when an unfold forces a fold cell;
                applications and case branches are silent
  step-faithful every cost site of the operational semantics is mirrored
                (function entry, case branch entry, unfold), making the
                interpretation step-for-step comparable with evaluation
"""

from .delay import DelayThunk, delay_bind, delay_map, now, step_fn
from .dist import Dist, Inl, Inr, choice
from .syntax import (
    Term, Star, Num, Var, Suc, Pred, Ifz, Pair, Fst, Snd,
    Inj, Case, Lam, App, Fold, Unfold, Choice, is_value,
)

__all__ = ["STANDARD", "STEP_FAITHFUL", "FoldV", "SemDefect", "Interp"]

STANDARD = "standard"
STEP_FAITHFUL = "step-faithful"


class SemDefect(Exception):
    """A semantic value shape that typing rules out."""


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
        last.  Memoised per (term, the env values at `t.free`): `_build`
        reads env only through the term's free `Var`s, in the closures it
        makes too, so envs that agree there give trees that behave alike."""
        if is_value(t):
            return now(self.val(t, env))
        key = self._key(t, env)
        d = self._memo.get(key)
        if d is None:
            d = self._build(t, env)
            self._memo[key] = d
        return d

    def _key(self, t: Term, env):
        return t, tuple([env[~i] for i in t.free])

    def val(self, t: Term, env=()):
        """Semantic value of a value term."""
        if isinstance(t, Star):
            return ()
        if isinstance(t, Num):
            return t.n
        if isinstance(t, Lam):
            body = t.body
            return lambda v: self.interp(body, env + (v,))
        if isinstance(t, Pair):
            return (self.val(t.a, env), self.val(t.b, env))
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
                if type(v) is not int:
                    _defect("ifz scrutinee", v)
                return itp(zero, env) if v == 0 else itp(succ, env)
            return delay_bind(itp(t.cond, env), branch)
        if isinstance(t, Pair):
            b = t.b
            return delay_bind(itp(t.a, env),
                              lambda va: delay_map(itp(b, env),
                                                   lambda vb: (va, vb)))
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
                if not callable(f):
                    _defect("applied non-closure", f)
                if stepping:
                    return delay_bind(itp(arg, env),
                                      lambda v: step_fn(lambda: f(v)))
                return delay_bind(itp(arg, env), f)
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
    if type(v) is not int:
        _defect("suc of non-numeral", v)
    return v + 1


def _pred(v):
    if type(v) is not int:
        _defect("pred of non-numeral", v)
    return v - 1 if v > 0 else 0


def _fst(v):
    if type(v) is not tuple or len(v) != 2:
        _defect("fst of non-pair", v)
    return v[0]


def _snd(v):
    if type(v) is not tuple or len(v) != 2:
        _defect("snd of non-pair", v)
    return v[1]
