"""Types and terms of the object language.

Terms use de Bruijn indices internally (surface names are resolved by the
parser), so alpha-equivalence is plain structural equality and substitution
of closed values needs no renaming.  Type variables are de Bruijn as well.

Every node caches its hash and its structural sort key at construction;
the evaluator's memo keys on closed terms, the interpreter's on open terms
with the values at their free indices, and distributions sort by the key,
so both must be O(1) after build.  Equality compares the keys.  Source
positions ride along outside equality.

A node class states only its data: `_tag`, `_fields` and the fields under
a binder (`_binders`).  `subst`, `ty_shift` and `ty_subst` share
`_Node._rebuild`.  Each node also caches `_fv`, one past its largest free
index of its own sort (0 when closed); the three return a node whose `_fv`
is at most the cutoff as it is, so closed subterms are shared.

Annotation policy: lambda binders, inl/inr (full sum type), and fold (the
recursive type) carry their annotation.  The one exception is the binder
of a `let`, which stays None: only the type checker reads it, from the
let's right-hand side, and the semantics never look at binder types.
Applications and case analyses carry none: the types of their subterms
determine them.
"""

from .rational import as_prob

__all__ = [
    "Ty", "UnitT", "NatT", "ProdT", "SumT", "FnT", "MuT", "TVarT",
    "ty_closed", "ty_shift", "ty_subst", "mu_unfold", "render_ty", "BOOL_T",
    "Term", "Star", "Num", "Var", "Suc", "Pred", "Ifz", "Pair", "Fst", "Snd",
    "Inj", "Case", "Lam", "App", "Fold", "Unfold", "Choice",
    "is_value", "subst", "true_term", "false_term",
]


class _Node:
    __slots__ = ("pos", "_h", "_k", "_fv")
    _tag = ""
    _fields = ()
    _binders = ()

    def __init__(self, *args, pos=None):
        fields = self._fields
        if len(args) != len(fields):
            raise TypeError("%s takes %d fields, got %d"
                            % (type(self).__name__, len(fields), len(args)))
        # a let binder's missing type encodes as a tuple, so keys at the
        # same field slot stay mutually comparable
        key, fv, sort = [self._tag], 0, self._sort
        for name, v in zip(fields, args):
            setattr(self, name, v)
            key.append(v._k if isinstance(v, _Node) else ("none",) if v is None else v)
            if isinstance(v, sort):
                fv = max(fv, v._fv - (name in self._binders))
        self.pos = pos
        self._h = hash((self._tag,) + args)
        self._k = tuple(key)
        self._fv = args[0] + 1 if self._tag in ("var", "tvar") else fv

    def __hash__(self):
        return self._h

    def __eq__(self, other):
        if self is other:
            return True
        if type(self) is not type(other) or self._h != other._h:
            return False
        return self._k == other._k

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__,
                           ", ".join(repr(getattr(self, f)) for f in self._fields))

    def _rebuild(self, f, depth):
        """The node with f(child, depth) in each child of its own sort (term
        or type), at depth + 1 under a binder; other fields are kept."""
        sort, binders = self._sort, self._binders
        args = []
        for n in self._fields:
            v = getattr(self, n)
            if isinstance(v, sort):
                v = f(v, depth + 1 if n in binders else depth)
            args.append(v)
        return type(self)(*args)


# --- types -----------------------------------------------------------------

class Ty(_Node):
    __slots__ = ()


class UnitT(Ty):
    __slots__ = ()
    _tag = "unit"


class NatT(Ty):
    __slots__ = ()
    _tag = "nat"


class ProdT(Ty):
    __slots__ = _fields = ("a", "b")
    _tag = "prod"


class SumT(Ty):
    __slots__ = _fields = ("a", "b")
    _tag = "sum"


class FnT(Ty):
    __slots__ = _fields = ("a", "b")
    _tag = "fn"


class MuT(Ty):
    __slots__ = _fields = _binders = ("body",)
    _tag = "mu"


class TVarT(Ty):
    __slots__ = _fields = ("k",)
    _tag = "tvar"


Ty._sort = Ty
BOOL_T = SumT(UnitT(), UnitT())


def ty_closed(t: Ty, depth: int = 0) -> bool:
    return t._fv <= depth


def ty_shift(t: Ty, d: int, cutoff: int = 0) -> Ty:
    if t._fv <= cutoff:
        return t
    if isinstance(t, TVarT):
        return TVarT(t.k + d)
    return t._rebuild(lambda u, c: ty_shift(u, d, c), cutoff)


def ty_subst(t: Ty, s: Ty, j: int = 0) -> Ty:
    if t._fv <= j:
        return t
    if isinstance(t, TVarT):
        return ty_shift(s, j) if t.k == j else TVarT(t.k - 1)
    return t._rebuild(lambda u, i: ty_subst(u, s, i), j)


def mu_unfold(t: MuT) -> Ty:
    """The content type of a fold at mu X. body, i.e. body[mu X. body / X]."""
    return ty_subst(t.body, t, 0)


def render_ty(t: Ty, _env=(), _prec=0) -> str:
    """Precedence-minimal concrete syntax; -> binds loosest (right assoc),
    then +, then * (both left assoc).  Bound type variables print as X0, X1,
    ... outermost first."""
    if isinstance(t, UnitT):
        return "Unit"
    if isinstance(t, NatT):
        return "Nat"
    if isinstance(t, TVarT):
        if t.k < len(_env):
            return _env[-1 - t.k]
        return "X?%d" % t.k
    if isinstance(t, MuT):
        name = "X%d" % len(_env)
        s = "mu %s. %s" % (name, render_ty(t.body, _env + (name,), 0))
        return "(%s)" % s if _prec > 0 else s
    if isinstance(t, FnT):
        s = "%s -> %s" % (render_ty(t.a, _env, 1), render_ty(t.b, _env, 0))
        return "(%s)" % s if _prec > 0 else s
    if isinstance(t, SumT):
        s = "%s + %s" % (render_ty(t.a, _env, 1), render_ty(t.b, _env, 2))
        return "(%s)" % s if _prec > 1 else s
    if isinstance(t, ProdT):
        s = "%s * %s" % (render_ty(t.a, _env, 2), render_ty(t.b, _env, 3))
        return "(%s)" % s if _prec > 2 else s
    raise TypeError("not a type: %r" % (t,))


# --- terms -------------------------------------------------------------------

class Term(_Node):
    __slots__ = ()

    def dist_key(self):
        """Syntactic terms are totally ordered by their structure, so value
        terms always count as keyed distribution elements."""
        return ("term", self._k)


class Star(Term):
    __slots__ = ()
    _tag = "star"


class Num(Term):
    __slots__ = _fields = ("n",)
    _tag = "num"

    def __init__(self, n, pos=None):
        if n < 0:
            raise ValueError("numerals are naturals")
        super().__init__(n, pos=pos)


class Var(Term):
    __slots__ = _fields = ("k",)
    _tag = "var"


class Suc(Term):
    __slots__ = _fields = ("m",)
    _tag = "suc"


class Pred(Term):
    __slots__ = _fields = ("m",)
    _tag = "pred"


class Ifz(Term):
    __slots__ = _fields = ("cond", "zero", "succ")
    _tag = "ifz"


class Pair(Term):
    __slots__ = _fields = ("a", "b")
    _tag = "pair"


class Fst(Term):
    __slots__ = _fields = ("m",)
    _tag = "fst"


class Snd(Term):
    __slots__ = _fields = ("m",)
    _tag = "snd"


class Inj(Term):
    """inl/inr with its full sum type; side is 'l' or 'r'."""
    __slots__ = _fields = ("side", "m", "ann")
    _tag = "inj"

    def __init__(self, side, m, ann, pos=None):
        if side not in ("l", "r"):
            raise ValueError("side must be 'l' or 'r'")
        super().__init__(side, m, ann, pos=pos)


class Case(Term):
    """Branches each bind one variable (de Bruijn index 0 inside)."""
    __slots__ = _fields = ("scrut", "left", "right")
    _tag = "case"
    _binders = ("left", "right")


class Lam(Term):
    __slots__ = _fields = ("var_ty", "body")
    _tag = "lam"
    _binders = ("body",)


class App(Term):
    __slots__ = _fields = ("fn", "arg")
    _tag = "app"


class Fold(Term):
    __slots__ = _fields = ("m", "ann")
    _tag = "fold"


class Unfold(Term):
    __slots__ = _fields = ("m",)
    _tag = "unfold"


class Choice(Term):
    __slots__ = _fields = ("p", "left", "right")
    _tag = "choice"

    def __init__(self, p, left, right, pos=None):
        super().__init__(as_prob(p), left, right, pos=pos)


Term._sort = Term


def true_term(pos=None):
    return Inj("l", Star(), BOOL_T, pos=pos)


def false_term(pos=None):
    return Inj("r", Star(), BOOL_T, pos=pos)


def is_value(t: Term) -> bool:
    if isinstance(t, (Star, Num, Lam)):
        return True
    if isinstance(t, Fold):
        return is_value(t.m)
    if isinstance(t, Pair):
        return is_value(t.a) and is_value(t.b)
    if isinstance(t, Inj):
        return is_value(t.m)
    return False


def subst(t: Term, v: Term, k: int = 0) -> Term:
    """Substitute the closed value v for index k, lowering higher frees."""
    if not isinstance(t, Term):
        raise TypeError("not a term: %r" % (t,))
    if t._fv <= k:
        return t
    if isinstance(t, Var):
        return v if t.k == k else Var(t.k - 1)
    return t._rebuild(lambda m, j: subst(m, v, j), k)
