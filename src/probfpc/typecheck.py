"""Type checking.

Terms arrive with their annotations on lambda binders, injections and
folds.  `elaborate` synthesizes the type of a term, rejecting any
annotation that disagrees with it.  It returns the type alone and builds
no term, so every later layer runs the term as the parser built it.

The one binder without a type is a `let`'s: a lambda with no type directly
in function position of an application (the shape the let sugar produces).
The argument's type is the binder type; it is read here and nowhere else,
so the binder stays None.  A lambda without a binder type anywhere else is
an error.
"""

from .syntax import (
    Ty, UnitT, NatT, ProdT, SumT, FnT, MuT,
    ty_closed, mu_unfold, render_ty,
    Term, Star, Num, Var, Suc, Pred, Ifz, Pair, Fst, Snd,
    Inj, Case, Lam, App, Fold, Unfold, Choice,
)

__all__ = ["TypecheckError", "elaborate"]


class TypecheckError(Exception):
    def __init__(self, msg, pos=None):
        self.msg = msg
        self.pos = pos
        super().__init__(self._format())

    def _format(self):
        if self.pos is not None:
            return "line %d, col %d: %s" % (self.pos[0], self.pos[1], self.msg)
        return self.msg


def _fail(msg, pos):
    raise TypecheckError(msg, pos)


_KIND = {NatT: "Nat", ProdT: "product", SumT: "sum", FnT: "function",
         MuT: "recursive"}


def _want(ty, cls, what, pos):
    if not isinstance(ty, cls):
        _fail("%s must have %s type, found %s"
              % (what, _KIND[cls], render_ty(ty)), pos)
    return ty


def _agree(ty, other, msg, pos):
    """ty when it equals other; else fail with msg, which takes both
    types rendered."""
    if ty != other:
        _fail(msg % (render_ty(ty), render_ty(other)), pos)
    return ty


def _closed_ann(ty, what, pos):
    if not ty_closed(ty):
        _fail("%s annotation has unbound type variables: %s"
              % (what, render_ty(ty)), pos)
    return ty


def _ty(t: Term, ctx):
    if isinstance(t, Star):
        return UnitT()
    if isinstance(t, Num):
        return NatT()
    if isinstance(t, Var):
        if t.k >= len(ctx):
            _fail("unbound variable (index %d in context of %d)"
                  % (t.k, len(ctx)), t.pos)
        return ctx[-1 - t.k]
    if isinstance(t, (Suc, Pred)):
        return _want(_ty(t.m, ctx), NatT, t._tag + " argument", t.pos)
    if isinstance(t, Ifz):
        _want(_ty(t.cond, ctx), NatT, "ifz scrutinee", t.pos)
        return _agree(_ty(t.zero, ctx), _ty(t.succ, ctx),
                      "ifz branches disagree: %s vs %s", t.pos)
    if isinstance(t, Pair):
        return ProdT(_ty(t.a, ctx), _ty(t.b, ctx))
    if isinstance(t, (Fst, Snd)):
        ty = _want(_ty(t.m, ctx), ProdT, t._tag + " argument", t.pos)
        return ty.a if isinstance(t, Fst) else ty.b
    if isinstance(t, Inj):
        ann = _closed_ann(t.ann, "injection", t.pos)
        _want(ann, SumT, "injection annotation", t.pos)
        _agree(_ty(t.m, ctx), ann.a if t.side == "l" else ann.b,
               "in" + t.side + " payload has type %s, annotation wants %s",
               t.pos)
        return ann
    if isinstance(t, Case):
        sty = _want(_ty(t.scrut, ctx), SumT, "case scrutinee", t.pos)
        return _agree(_ty(t.left, ctx + (sty.a,)), _ty(t.right, ctx + (sty.b,)),
                      "case branches disagree: %s vs %s", t.pos)
    if isinstance(t, Lam):
        if t.var_ty is None:
            _fail("lambda binder needs a type annotation here", t.pos)
        _closed_ann(t.var_ty, "binder", t.pos)
        return FnT(t.var_ty, _ty(t.body, ctx + (t.var_ty,)))
    if isinstance(t, App):
        if isinstance(t.fn, Lam) and t.fn.var_ty is None:
            # let-style redex: the argument supplies the binder type
            return _ty(t.fn.body, ctx + (_ty(t.arg, ctx),))
        fty = _want(_ty(t.fn, ctx), FnT, "applied term", t.pos)
        _agree(_ty(t.arg, ctx), fty.a,
               "argument has type %s, function wants %s", t.pos)
        return fty.b
    if isinstance(t, Fold):
        ann = _closed_ann(t.ann, "fold", t.pos)
        _want(ann, MuT, "fold annotation", t.pos)
        _agree(_ty(t.m, ctx), mu_unfold(ann),
               "fold content has type %s, annotation unfolds to %s", t.pos)
        return ann
    if isinstance(t, Unfold):
        return mu_unfold(_want(_ty(t.m, ctx), MuT, "unfold argument", t.pos))
    if isinstance(t, Choice):
        return _agree(_ty(t.left, ctx), _ty(t.right, ctx),
                      "choice branches disagree: %s vs %s", t.pos)
    raise TypeError("not a term: %r" % (t,))


def elaborate(t: Term, ctx=()) -> Ty:
    """The type of t in ctx, the types of de Bruijn indices with index 0
    last; raises TypecheckError."""
    return _ty(t, tuple(ctx))
