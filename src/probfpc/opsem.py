"""Operational semantics: substitution-based evaluation into the delay monad.

`Evaluator.eval` maps a closed term to a delay tree over value terms.  Cost
accounting is part of the semantics: a step node is emitted at exactly three
places (entering a case branch, entering a function body, and collapsing
unfold-of-fold); everything else, probabilistic choice included, is free.

The evaluator memoizes closed term -> delay tree.  Delay trees are
persistent and thunks memoize their forcing, so a shared subterm explored
along many probabilistic branches is walked once.  This changes nothing observable,
only the cost of asking.
"""

from .delay import delay_bind, delay_map, now, step_fn
from .dist import Dist, choice
from .syntax import (
    Term, Num, Var, Suc, Pred, Ifz, Pair, Fst, Snd,
    Inj, Case, Lam, App, Fold, Unfold, Choice, is_value, subst,
)

__all__ = ["EvalDefect", "Evaluator"]


class EvalDefect(Exception):
    """A shape that typing rules out turned up at runtime."""


def _defect(msg, t):
    raise EvalDefect("%s: %r" % (msg, t))


class Evaluator:
    def __init__(self):
        self._memo = {}

    def eval(self, t: Term) -> Dist:
        """Delay tree of t; t must be closed (well-typedness is assumed, the
        shape guards only catch internal slips)."""
        if is_value(t):
            return now(t)
        d = self._memo.get(t)
        if d is None:
            d = self._build(t)
            self._memo[t] = d
        return d

    def _build(self, t: Term) -> Dist:
        ev = self.eval
        if isinstance(t, Suc):
            return delay_map(ev(t.m), self._suc)
        if isinstance(t, Pred):
            return delay_map(ev(t.m), self._pred)
        if isinstance(t, Ifz):
            zero, succ = t.zero, t.succ
            def branch(v):
                if not isinstance(v, Num):
                    _defect("ifz scrutinee", v)
                return ev(zero) if v.n == 0 else ev(succ)
            return delay_bind(ev(t.cond), branch)
        if isinstance(t, Pair):
            b = t.b
            return delay_bind(ev(t.a),
                              lambda va: delay_map(ev(b), lambda vb: Pair(va, vb)))
        if isinstance(t, Fst):
            return delay_map(ev(t.m), self._fst)
        if isinstance(t, Snd):
            return delay_map(ev(t.m), self._snd)
        if isinstance(t, Inj):
            side, ann = t.side, t.ann
            return delay_map(ev(t.m), lambda v: Inj(side, v, ann))
        if isinstance(t, Case):
            left, right = t.left, t.right
            def scrut(v):
                if not isinstance(v, Inj):
                    _defect("case scrutinee", v)
                br = left if v.side == "l" else right
                w = v.m
                return step_fn(lambda: ev(subst(br, w)))
            return delay_bind(ev(t.scrut), scrut)
        if isinstance(t, Lam):
            _defect("unreachable, lambdas are values", t)
        if isinstance(t, App):
            arg = t.arg
            def applied(f):
                if not isinstance(f, Lam):
                    _defect("applied non-lambda", f)
                return delay_bind(ev(arg),
                                  lambda v: step_fn(lambda: ev(subst(f.body, v))))
            return delay_bind(ev(t.fn), applied)
        if isinstance(t, Fold):
            ann = t.ann
            return delay_map(ev(t.m), lambda v: Fold(v, ann))
        if isinstance(t, Unfold):
            def unfolded(v):
                if not isinstance(v, Fold):
                    _defect("unfold of non-fold", v)
                return step_fn(lambda: now(v.m))
            return delay_bind(ev(t.m), unfolded)
        if isinstance(t, Choice):
            return choice(t.p, ev(t.left), ev(t.right))
        if isinstance(t, Var):
            _defect("open term", t)
        raise TypeError("not a term: %r" % (t,))

    @staticmethod
    def _suc(v):
        if not isinstance(v, Num):
            _defect("suc of non-numeral", v)
        return Num(v.n + 1)

    @staticmethod
    def _pred(v):
        if not isinstance(v, Num):
            _defect("pred of non-numeral", v)
        return Num(v.n - 1 if v.n > 0 else 0)

    @staticmethod
    def _fst(v):
        if not isinstance(v, Pair):
            _defect("fst of non-pair", v)
        return v.a

    @staticmethod
    def _snd(v):
        if not isinstance(v, Pair):
            _defect("snd of non-pair", v)
        return v.b

