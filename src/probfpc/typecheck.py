"""Type synthesis and elaboration.

Terms arrive with their annotations on lambda binders, injections and
folds.  `elaborate` synthesizes the type, rejecting any annotation that
disagrees with it, and returns a copy of the term in which the one
annotation the parser leaves out is filled in: the binder type of a `let`.

That binder is a lambda with no type directly in function position of an
application (the shape the let sugar produces); the argument determines the
binder type.  A lambda without a binder type anywhere else is an error.
"""

from .syntax import (
    UnitT, NatT, ProdT, SumT, FnT, MuT,
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


def _closed_ann(ty, what, pos):
    if not ty_closed(ty):
        _fail("%s annotation has unbound type variables: %s"
              % (what, render_ty(ty)), pos)
    return ty


def _elab(t: Term, ctx) -> tuple:
    if isinstance(t, Star):
        return t, UnitT()
    if isinstance(t, Num):
        return t, NatT()
    if isinstance(t, Var):
        if t.k >= len(ctx):
            _fail("unbound variable (index %d in context of %d)"
                  % (t.k, len(ctx)), t.pos)
        return t, ctx[-1 - t.k]
    if isinstance(t, Suc):
        m, ty = _elab(t.m, ctx)
        _want(ty, NatT, "suc argument", t.pos)
        return Suc(m, pos=t.pos), NatT()
    if isinstance(t, Pred):
        m, ty = _elab(t.m, ctx)
        _want(ty, NatT, "pred argument", t.pos)
        return Pred(m, pos=t.pos), NatT()
    if isinstance(t, Ifz):
        c, cty = _elab(t.cond, ctx)
        _want(cty, NatT, "ifz scrutinee", t.pos)
        z, zty = _elab(t.zero, ctx)
        s, sty = _elab(t.succ, ctx)
        if zty != sty:
            _fail("ifz branches disagree: %s vs %s"
                  % (render_ty(zty), render_ty(sty)), t.pos)
        return Ifz(c, z, s, pos=t.pos), zty
    if isinstance(t, Pair):
        a, aty = _elab(t.a, ctx)
        b, bty = _elab(t.b, ctx)
        return Pair(a, b, pos=t.pos), ProdT(aty, bty)
    if isinstance(t, Fst):
        m, ty = _elab(t.m, ctx)
        _want(ty, ProdT, "fst argument", t.pos)
        return Fst(m, pos=t.pos), ty.a
    if isinstance(t, Snd):
        m, ty = _elab(t.m, ctx)
        _want(ty, ProdT, "snd argument", t.pos)
        return Snd(m, pos=t.pos), ty.b
    if isinstance(t, Inj):
        ann = _closed_ann(t.ann, "injection", t.pos)
        _want(ann, SumT, "injection annotation", t.pos)
        m, mty = _elab(t.m, ctx)
        side_ty = ann.a if t.side == "l" else ann.b
        if mty != side_ty:
            _fail("in%s payload has type %s, annotation wants %s"
                  % (t.side, render_ty(mty), render_ty(side_ty)), t.pos)
        return Inj(t.side, m, ann, pos=t.pos), ann
    if isinstance(t, Case):
        s, sty = _elab(t.scrut, ctx)
        _want(sty, SumT, "case scrutinee", t.pos)
        l, lty = _elab(t.left, ctx + (sty.a,))
        r, rty = _elab(t.right, ctx + (sty.b,))
        if lty != rty:
            _fail("case branches disagree: %s vs %s"
                  % (render_ty(lty), render_ty(rty)), t.pos)
        return Case(s, l, r, pos=t.pos), lty
    if isinstance(t, Lam):
        if t.var_ty is None:
            _fail("lambda binder needs a type annotation here", t.pos)
        _closed_ann(t.var_ty, "binder", t.pos)
        b, bty = _elab(t.body, ctx + (t.var_ty,))
        return Lam(t.var_ty, b, pos=t.pos), FnT(t.var_ty, bty)
    if isinstance(t, App):
        if isinstance(t.fn, Lam) and t.fn.var_ty is None:
            # let-style redex: the argument supplies the binder type
            a, aty = _elab(t.arg, ctx)
            b, bty = _elab(t.fn.body, ctx + (aty,))
            return App(Lam(aty, b, pos=t.fn.pos), a, pos=t.pos), bty
        f, fty = _elab(t.fn, ctx)
        _want(fty, FnT, "applied term", t.pos)
        a, aty = _elab(t.arg, ctx)
        if aty != fty.a:
            _fail("argument has type %s, function wants %s"
                  % (render_ty(aty), render_ty(fty.a)), t.pos)
        return App(f, a, pos=t.pos), fty.b
    if isinstance(t, Fold):
        ann = _closed_ann(t.ann, "fold", t.pos)
        _want(ann, MuT, "fold annotation", t.pos)
        m, mty = _elab(t.m, ctx)
        want = mu_unfold(ann)
        if mty != want:
            _fail("fold content has type %s, annotation unfolds to %s"
                  % (render_ty(mty), render_ty(want)), t.pos)
        return Fold(m, ann, pos=t.pos), ann
    if isinstance(t, Unfold):
        m, mty = _elab(t.m, ctx)
        _want(mty, MuT, "unfold argument", t.pos)
        return Unfold(m, pos=t.pos), mu_unfold(mty)
    if isinstance(t, Choice):
        l, lty = _elab(t.left, ctx)
        r, rty = _elab(t.right, ctx)
        if lty != rty:
            _fail("choice branches disagree: %s vs %s"
                  % (render_ty(lty), render_ty(rty)), t.pos)
        return Choice(t.p, l, r, pos=t.pos), lty
    raise TypeError("not a term: %r" % (t,))


def elaborate(t: Term, ctx=()) -> tuple:
    """Return (annotated term, type); raises TypecheckError."""
    return _elab(t, tuple(ctx))
