"""The example programs: recursion combinator, hesitant identity, fair coin
from a biased one, lazy random walks, and the lazy-list vocabulary they
share.

Everything is built by parsing concrete syntax, so the corpus doubles as a
parser workout and stays printable.  The catalogue is the one table
`_ENTRIES` of name -> (blurb, builder); CATALOGUE and each entry's arity
come from it.  `corpus(name)` takes a catalogue name with optional
arguments in parentheses, e.g. "geo", "geo(2/3)", "id_hes(15/16,Nat)".
"""

from .parser import parse_term, parse_ty
from .rational import as_prob, parse_nat, parse_rat
from .syntax import (
    Ty, UnitT, NatT, FnT, MuT, TVarT, mu_unfold, render_ty, BOOL_T,
    Term, App, Num, Star, Lam, Var,
)

__all__ = [
    "CATALOGUE", "corpus", "y_comb", "id_hes", "fair_from", "geo_loop",
    "diverge_term", "LAZY_LIST", "head_term", "everysnd_term", "randw_fn",
    "randw2_fn",
]


def _pty(ty: Ty) -> str:
    """Self-delimiting rendering for splicing into source templates."""
    return "(%s)" % render_ty(ty)


def y_comb(a: Ty, b: Ty) -> Term:
    """Recursion combinator at a -> b, encoded through the recursive type
    mu X. X -> a -> b.  Applying the result of (Y f) costs a fixed prologue
    of delay steps per recursion round."""
    s, t = _pty(a), _pty(b)
    r = _pty(MuT(FnT(TVarT(0), FnT(a, b))))
    ef = ("(fn y : %s => let u = unfold y in f (fn x : %s => u y x))"
          % (r, s))
    return parse_term(
        "fn f : (%s -> %s) -> %s -> %s => fn z : %s => %s (fold[%s] %s) z"
        % (s, t, s, t, s, ef, r, ef))


def id_hes(p, ty: Ty) -> Term:
    """Hesitant identity at type ty: each round, return the argument with
    probability p or hand it to the next round."""
    p = as_prob(p)
    s = _pty(ty)
    helper = parse_term("fn f : %s -> %s => fn x : %s => choice %s x (f x)"
                        % (s, s, s, p))
    return Lam(ty, App(App(y_comb(ty, ty), helper), Var(0)))


def fair_from(p) -> Term:
    """Fair coin from a biased one: draw twice, output the first draw when
    they differ, retry when they agree.  The two case analyses cost the same
    on every path, so true and false stay exactly balanced depth by depth.
    Type Unit -> Unit + Unit."""
    p = as_prob(p)
    helper = parse_term(
        "fn g : Unit -> Unit + Unit => fn z : Unit =>"
        " let x = choice %s true false in"
        " let y = choice %s true false in"
        " if x then (if y then g z else x) else (if y then x else g z)"
        % (p, p))
    return App(y_comb(UnitT(), BOOL_T), helper)


def geo_loop(p) -> Term:
    """Geometric process as a lean self-application loop: three delay steps
    per round, first candidate value after two.  Type Nat."""
    p = as_prob(p)
    r = "(mu X. X -> Nat -> Nat)"
    w = "(fn w : %s => fn n : Nat => choice %s n ((unfold w) w (suc n)))" % (r, p)
    return parse_term("(%s (fold[%s] %s)) 0" % (w, r, w))


def diverge_term() -> Term:
    """(Y (fn f => fn z => f z)) * at Unit: never delivers."""
    loop = parse_term("fn f : Unit -> Unit => fn z : Unit => f z")
    return App(App(y_comb(UnitT(), UnitT()), loop), Star())


# --- lazy lists ---------------------------------------------------------------

LAZY_LIST = parse_ty("mu X. Unit + Nat * (Unit -> X)")

_LL = _pty(LAZY_LIST)
_LLU = _pty(mu_unfold(LAZY_LIST))

_NIL = "fold[%s] inl[%s] *" % (_LL, _LLU)
_CONS = "(fn n : Nat => fn f : Unit -> %s => fold[%s] inr[%s] (n, f))" \
    % (_LL, _LL, _LLU)
_HEAD = ("(fn l : %s => case unfold l of"
         " { inl u => inr[Nat + Unit] * ; inr c => inl[Nat + Unit] fst c })"
         % _LL)
_TAIL = ("(fn l : %s => case unfold l of { inl u => %s ; inr c => snd c * })"
         % (_LL, _NIL))


def head_term() -> Term:
    return parse_term(_HEAD)


def everysnd_term() -> Term:
    """Every second element of a lazy list, lazily."""
    helper = parse_term(
        "fn g : %s -> %s => fn l : %s =>"
        " case unfold l of"
        " { inl u => %s"
        " ; inr c => %s (fst c) (fn y : Unit => g (%s (snd c *))) }"
        % (_LL, _LL, _LL, _NIL, _CONS, _TAIL))
    return App(y_comb(LAZY_LIST, LAZY_LIST), helper)


def randw_fn() -> Term:
    """Lazy symmetric random walk: list the position, stop at zero, else
    step down or up with probability 1/2 each."""
    helper = parse_term(
        "fn g : Nat -> %s => fn n : Nat =>"
        " %s n (fn y : Unit =>"
        " ifz n then %s else (choice 1/2 (g (pred n)) (g (suc n))))"
        % (_LL, _CONS, _NIL))
    return App(y_comb(NatT(), LAZY_LIST), helper)


def randw2_fn() -> Term:
    """Lazy random walk with the two-step increments: stay with probability
    1/2, else move by two either way."""
    helper = parse_term(
        "fn g : Nat -> %s => fn n : Nat =>"
        " %s n (fn y : Unit =>"
        " ifz n then %s else"
        " (choice 1/2 (g n) (choice 1/2 (g (pred (pred n))) (g (suc (suc n))))))"
        % (_LL, _CONS, _NIL))
    return App(y_comb(NatT(), LAZY_LIST), helper)


# --- catalogue ----------------------------------------------------------------

# name -> (blurb, builder); a builder takes its arguments as text, each with
# a default, so its parameters give both the arity and the usage line
_ENTRIES = {
    "geo": ("geometric process at Nat, lean loop",
            lambda p="1/2": geo_loop(parse_rat(p))),
    "id_hes": ("hesitant identity function",
               lambda p="1/2", ty="Nat": id_hes(parse_rat(p), parse_ty(ty))),
    "fair_from": ("fair coin from a biased one, Unit -> Unit + Unit",
                  lambda p="1/3": fair_from(parse_rat(p))),
    "randw": ("lazy random walk from n",
              lambda n="2": App(randw_fn(), Num(parse_nat(n)))),
    "randw2": ("lazy two-step random walk from n",
               lambda n="2": App(randw2_fn(), Num(parse_nat(n)))),
    "everysnd": ("every second element of a lazy list", everysnd_term),
    "lazylist-ops": ("head (cons 3 nil-tail), exercising the list vocabulary",
                     lambda: parse_term("hd (%s 3 (fn u : Unit => %s))" % (_CONS, _NIL),
                                        defs={"hd": head_term()})),
    "diverge": ("the hereditarily silent Unit program", diverge_term),
}


def _usage(name, build):
    """The name with its parameters and their defaults, e.g. geo(p=1/2)."""
    params = zip(build.__code__.co_varnames, build.__defaults__ or ())
    return name + ("(%s)" % ", ".join("%s=%s" % p for p in params)
                   if build.__defaults__ else "")


CATALOGUE = tuple((name, "%s: %s" % (_usage(name, build), blurb))
                  for name, (blurb, build) in _ENTRIES.items())


def _parse_call(name):
    """Split "base" or "base(a, b)" into the base and its argument list.
    The list runs to the last ')', which must end the name; arguments are
    comma-separated (types contain no commas)."""
    base, paren, rest = name.partition("(")
    if not paren:
        return base.strip(), []
    inner, close, after = rest.rpartition(")")
    if not close:
        raise ValueError("missing ')' after the arguments")
    if after.strip():
        raise ValueError("unexpected text after ')': %r" % after.strip())
    inner = inner.strip()
    return base.strip(), [a.strip() for a in inner.split(",")] if inner else []


def corpus(name: str) -> Term:
    """Catalogue lookup; optional arguments in parentheses, see CATALOGUE."""
    base, args = _parse_call(name)
    if base not in _ENTRIES:
        raise KeyError("unknown corpus entry %r" % name)
    build = _ENTRIES[base][1]
    arity = build.__code__.co_argcount
    if len(args) > arity:
        raise ValueError("takes at most %d argument(s), got %d" % (arity, len(args)))
    return build(*args)
