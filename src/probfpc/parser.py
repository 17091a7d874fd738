"""Concrete syntax: lexer and parser.

Surface programs are a list of `def name = term ;` bindings followed by one
term.  Defs are closed macros, expanded at use sites (the shared subterm
keeps its identity, which the evaluator's memo table exploits).

Sugar handled here, all eliminated during parsing:
  let x = M in N        becomes  (fn x => N) M   with the binder type left
                                 for elaboration to fill in
  if B then M else N    becomes  case B of {inl _ => M ; inr _ => N}
  true / false          become   inl[Unit + Unit] * / inr[Unit + Unit] *
  case ... of { inr (n, f) => ... }   binds the pair once and turns n and f
                                      into projections
Comments run from `--` to end of line.
"""

from .rational import parse_rat, ProbRangeError
from .syntax import (
    UnitT, NatT, ProdT, SumT, FnT, MuT, TVarT,
    Term, Star, Num, Var, Suc, Pred, Ifz, Pair, Fst, Snd,
    Inj, Case, Lam, App, Fold, Unfold, Choice, true_term, false_term,
)

__all__ = ["ParseError", "parse_term", "parse_ty", "load_file"]

_KEYWORDS = {
    "fn", "let", "in", "if", "then", "else", "ifz", "case", "of",
    "inl", "inr", "fold", "unfold", "fst", "snd", "suc", "pred",
    "choice", "true", "false", "def", "mu", "Unit", "Nat",
}

_SYM2 = ("=>", "->")
_SYM1 = "()[]{},;:.=*+/"
_DIGITS = "0123456789"      # str.isdigit() also admits digits int() rejects


class ParseError(Exception):
    def __init__(self, msg, line, col):
        self.msg = msg
        self.line = line
        self.col = col
        super().__init__("line %d, col %d: %s" % (line, col, msg))


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind      # "ident", "num", "sym", "eof"
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self):
        return "%s(%r)" % (self.kind, self.text)


def _expected(what, tok):
    """The error for finding tok where `what` was expected."""
    return ParseError("expected %s, found %r" % (what, tok.text or "end of input"),
                      tok.line, tok.col)


def _lex(src):
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


# the keywords of the one-argument term formers
_UNARY = {"fst": Fst, "snd": Snd, "suc": Suc, "pred": Pred, "unfold": Unfold}

# tokens that may begin a prefix-level term, for application runs
_PREFIX_HEADS = set(_UNARY) | {"inl", "inr", "fold", "true", "false"}


class _Parser:
    def __init__(self, src):
        self.toks = _lex(src)
        self.i = 0

    # --- token plumbing ---

    def peek(self):
        return self.toks[self.i]

    def next(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, text):
        """Whether the next token is the symbol or keyword `text`."""
        return self.peek().text == text

    def eat(self, text):
        if not self.at(text):
            t = self.peek()
            raise _expected(repr(text), t)
        return self.next()

    def eat_ident(self):
        t = self.peek()
        if t.kind != "ident" or t.text in _KEYWORDS:
            raise _expected("a name", t)
        return self.next()

    def eat_nat(self):
        t = self.peek()
        if t.kind != "num" or "." in t.text:
            raise _expected("a numeral", t)
        self.next()
        try:
            return int(t.text)
        except ValueError:      # more digits than int() converts
            raise ParseError("numeral too long: %d digits" % len(t.text),
                             t.line, t.col) from None

    # --- programs ---

    def program(self, defs=None):
        defs = dict(defs) if defs else {}
        while self.at("def"):
            t = self.next()
            name = self.eat_ident()
            if name.text in defs:
                raise ParseError("duplicate def %r" % name.text, name.line, name.col)
            self.eat("=")
            body = self.term((), defs)
            self.eat(";")
            defs[name.text] = body
        t = self.term((), defs)
        e = self.peek()
        if e.kind != "eof":
            raise ParseError("trailing input after the top-level term: %r" % e.text,
                             e.line, e.col)
        return t

    # --- terms; env is a tuple of binder entries, innermost last ---

    def term(self, env, defs):
        t = self.peek()
        if t.kind == "ident":
            w = t.text
            if w == "fn":
                return self.lam(env, defs)
            if w == "let":
                return self.let(env, defs)
            if w in ("if", "ifz"):
                return self.conditional(env, defs)
            if w == "case":
                return self.case(env, defs)
            if w == "choice":
                return self.choice(env, defs)
        return self.app(env, defs)

    def lam(self, env, defs):
        t = self.eat("fn")
        name = self.eat_ident()
        self.eat(":")
        ty = self.ty(())
        self.eat("=>")
        body = self.term(env + (("var", name.text),), defs)
        return Lam(ty, body, pos=(t.line, t.col))

    def let(self, env, defs):
        t = self.eat("let")
        name = self.eat_ident()
        self.eat("=")
        rhs = self.term(env, defs)
        self.eat("in")
        body = self.term(env + (("var", name.text),), defs)
        return App(Lam(None, body, pos=(t.line, t.col)), rhs, pos=(t.line, t.col))

    def conditional(self, env, defs):
        """`if B then M else N`, a Case whose branches bind an unnamed
        variable, or `ifz N then M else P`, an Ifz, which binds none."""
        t = self.next()
        cond = self.term(env, defs)
        if t.text == "if":
            env += (("var", None),)
        self.eat("then")
        yes = self.term(env, defs)
        self.eat("else")
        no = self.term(env, defs)
        return (Case if t.text == "if" else Ifz)(cond, yes, no, pos=(t.line, t.col))

    def case(self, env, defs):
        t = self.eat("case")
        scrut = self.term(env, defs)
        self.eat("of")
        self.eat("{")
        self.eat("inl")
        lpat = self.pattern()
        self.eat("=>")
        left = self.term(env + (lpat,), defs)
        self.eat(";")
        self.eat("inr")
        rpat = self.pattern()
        self.eat("=>")
        right = self.term(env + (rpat,), defs)
        self.eat("}")
        return Case(scrut, left, right, pos=(t.line, t.col))

    def pattern(self):
        if self.at("("):
            self.next()
            a = self.eat_ident()
            self.eat(",")
            b = self.eat_ident()
            self.eat(")")
            return ("pair", a.text, b.text)
        name = self.eat_ident()
        return ("var", name.text)

    def choice(self, env, defs):
        t = self.eat("choice")
        p = self.prob()
        left = self.atom(env, defs)
        right = self.atom(env, defs)
        try:
            return Choice(p, left, right, pos=(t.line, t.col))
        except ProbRangeError as e:
            raise ParseError(str(e), t.line, t.col) from None

    def prob(self):
        t = self.peek()
        if t.kind != "num":
            raise _expected("a probability", t)
        self.next()
        text = t.text
        if self.at("/"):
            self.next()
            d = self.peek()
            if d.kind != "num" or "." in d.text:
                raise _expected("a denominator", d)
            self.next()
            text = "%s/%s" % (text, d.text)
        try:
            return parse_rat(text)
        except ValueError:
            raise ParseError("bad probability %r" % text, t.line, t.col) from None

    def app(self, env, defs):
        t = self.prefix(env, defs)
        while self.starts_prefix():
            arg = self.prefix(env, defs)
            t = App(t, arg, pos=(arg.pos if arg.pos else t.pos))
        return t

    def starts_prefix(self):
        t = self.peek()
        if t.kind == "num":
            return "." not in t.text
        if t.kind == "ident":
            return t.text not in _KEYWORDS or t.text in _PREFIX_HEADS
        if t.kind == "sym":
            return t.text in ("*", "(")
        return False

    def prefix(self, env, defs):
        t = self.peek()
        if t.kind == "ident":
            w = t.text
            if w in _UNARY:
                self.next()
                return _UNARY[w](self.prefix(env, defs), pos=(t.line, t.col))
            if w in ("inl", "inr", "fold"):
                self.next()
                self.eat("[")
                ty = self.ty(())
                self.eat("]")
                if w == "fold" and not isinstance(ty, MuT):
                    raise ParseError("fold annotation must be a mu type",
                                     t.line, t.col)
                m = self.prefix(env, defs)
                if w == "fold":
                    return Fold(m, ty, pos=(t.line, t.col))
                return Inj(w[-1], m, ty, pos=(t.line, t.col))
        return self.atom(env, defs)

    def atom(self, env, defs):
        t = self.peek()
        if t.kind == "sym" and t.text == "*":
            self.next()
            return Star(pos=(t.line, t.col))
        if t.kind == "num":
            return Num(self.eat_nat(), pos=(t.line, t.col))
        if t.kind == "sym" and t.text == "(":
            self.next()
            inner = self.term(env, defs)
            if self.at(","):
                self.next()
                second = self.term(env, defs)
                self.eat(")")
                return Pair(inner, second, pos=(t.line, t.col))
            self.eat(")")
            return inner
        if t.kind == "ident":
            if t.text in ("true", "false"):
                self.next()
                make = true_term if t.text == "true" else false_term
                return make(pos=(t.line, t.col))
            if t.text not in _KEYWORDS:
                self.next()
                return self.resolve(t, env, defs)
        raise _expected("a term", t)

    def resolve(self, tok, env, defs):
        name = tok.text
        pos = (tok.line, tok.col)
        for k, entry in enumerate(reversed(env)):
            if entry[0] == "var":
                if entry[1] == name:
                    return Var(k, pos=pos)
            else:  # ("pair", first, second): one binder, projected on use
                if entry[1] == name:
                    return Fst(Var(k, pos=pos), pos=pos)
                if entry[2] == name:
                    return Snd(Var(k, pos=pos), pos=pos)
        if name in defs:
            return defs[name]
        raise ParseError("unknown name %r" % name, tok.line, tok.col)

    # --- types; tenv is a tuple of bound type-variable names ---

    def ty(self, tenv):
        left = self.ty_left(tenv, "+")
        if self.at("->"):
            self.next()
            right = self.ty(tenv)
            return FnT(left, right)
        return left

    def ty_left(self, tenv, op):
        """A left-associative run: sums (op "+") of products, or products
        (op "*") of atoms."""
        node, inner = (SumT, "*") if op == "+" else (ProdT, None)
        left = None
        while True:
            right = self.ty_left(tenv, inner) if inner else self.ty_atom(tenv)
            left = right if left is None else node(left, right)
            if not self.at(op):
                return left
            self.next()

    def ty_atom(self, tenv):
        t = self.peek()
        if t.kind == "sym" and t.text == "(":
            self.next()
            inner = self.ty(tenv)
            self.eat(")")
            return inner
        if t.kind == "ident":
            if t.text == "Unit":
                self.next()
                return UnitT()
            if t.text == "Nat":
                self.next()
                return NatT()
            if t.text == "mu":
                self.next()
                name = self.eat_ident()
                self.eat(".")
                return MuT(self.ty(tenv + (name.text,)))
            if t.text not in _KEYWORDS:
                self.next()
                for k, n in enumerate(reversed(tenv)):
                    if n == t.text:
                        return TVarT(k)
                raise ParseError("unknown type variable %r" % t.text,
                                 t.line, t.col)
        raise _expected("a type", t)


def parse_term(src: str, defs=None) -> Term:
    """Parse defs plus one top-level term; returns the unelaborated term."""
    return _Parser(src).program(defs)


def parse_ty(src: str):
    p = _Parser(src)
    t = p.ty(())
    e = p.peek()
    if e.kind != "eof":
        raise ParseError("trailing input after type: %r" % e.text, e.line, e.col)
    return t


def load_file(path) -> Term:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            src = fh.read()
    except UnicodeDecodeError as e:
        # located at the first byte that is not UTF-8
        head = e.object[:e.start]
        col = len(head.rpartition(b"\n")[2].decode("utf-8")) + 1
        raise ParseError("%s is not UTF-8 text (%s)" % (path, e.reason),
                         head.count(b"\n") + 1, col) from None
    return parse_term(src)

