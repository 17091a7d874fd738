"""Concrete syntax: lexer and parser.

Surface programs are a list of `def name = term ;` bindings followed by one
term.  Defs are closed macros, expanded at use sites (the shared subterm
keeps its identity, which the evaluator's memo table exploits; type
checking copies nothing, so every layer sees the one object).

Sugar handled here, all eliminated during parsing:
  let x = M in N        becomes  (fn x => N) M   with the binder type left
                                 None: the type checker reads it from M
  if B then M else N    becomes  case B of {inl _ => M ; inr _ => N}
  true / false          become   inl[Unit + Unit] * / inr[Unit + Unit] *
  case ... of { inr (n, f) => ... }   binds the pair once and turns n and f
                                      into projections (n and f must differ)

The lexer is one regular expression, `_TOKEN`, with a named group per token
kind; a decimal literal is its own kind, which only a choice weight accepts.
A name is a letter or `_`, then letters, digits, `_` or `'`.  Comments run
from `--` to end of line.  Whitespace is space, tab, CR and newline.
"""

import re
from collections import namedtuple

from .rational import parse_nat, parse_rat, ProbRangeError
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

# one group per token kind, tried in order: a decimal needs a digit after
# its dot, so the dot of "mu X. T" stays a symbol
_TOKEN = re.compile(r"""
    (?P<skip>[ \t\r]+|--[^\n]*)
  | (?P<nl>\n)
  | (?P<dec>[0-9]+\.[0-9]+)
  | (?P<num>[0-9]+)
  | (?P<ident>[^\W\d][\w']*)
  | (?P<sym>=>|->|[()\[\]{},;:.=*+/])
  | (?P<stray>.)
""", re.VERBOSE)


class ParseError(Exception):
    def __init__(self, msg, line, col):
        self.msg = msg
        self.line = line
        self.col = col
        super().__init__("line %d, col %d: %s" % (line, col, msg))


_Tok = namedtuple("_Tok", "kind text line col")     # kind: a group, or "eof"


def _expected(what, tok):
    """The error for finding tok where `what` was expected."""
    return ParseError("expected %s, found %r" % (what, tok.text or "end of input"),
                      tok.line, tok.col)


def _lex(src):
    toks = []
    line, bol, end = 1, 0, len(src)
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "skip":
            # a comment is not program text: one that ends the input puts
            # the end of input where the comment starts
            if m.end() == end and src[m.start()] == "-":
                end = m.start()
            continue
        if kind == "nl":
            line, bol = line + 1, m.end()
            continue
        text, col = m.group(), m.start() - bol + 1
        # [^\W\d] also admits numerics that are not letters, such as ² and
        # Ⅷ; a name starts with a letter or _, so these are stray
        if kind == "stray" or (kind == "ident" and text[0] != "_"
                               and not text[0].isalpha()):
            raise ParseError("stray character %r" % text[0], line, col)
        toks.append(_Tok(kind, text, line, col))
    toks.append(_Tok("eof", "", line, end - bol + 1))
    return toks


# the keywords of the one-argument term formers, and of the base types
_UNARY = {"fst": Fst, "snd": Snd, "suc": Suc, "pred": Pred, "unfold": Unfold}
_BASE_TYPES = {"Unit": UnitT, "Nat": NatT}

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
            raise _expected(repr(text), self.peek())
        return self.next()

    def eat_ident(self):
        t = self.peek()
        if t.kind != "ident" or t.text in _KEYWORDS:
            raise _expected("a name", t)
        return self.next()

    def eat_nat(self):
        t = self.peek()
        if t.kind != "num":
            raise _expected("a numeral", t)
        self.next()
        try:
            return parse_nat(t.text)
        except ValueError as e:     # more digits than int() converts
            raise ParseError(str(e), t.line, t.col) from None

    # --- programs ---

    def program(self, defs=None):
        defs = dict(defs) if defs else {}
        while self.at("def"):
            self.next()
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
        """A keyword-headed form from _FORMS, else an application run."""
        return _FORMS.get(self.peek().text, _Parser.app)(self, env, defs)

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
        branches = []
        for inj, close in (("inl", ";"), ("inr", "}")):
            self.eat(inj)
            pat = self.pattern()
            self.eat("=>")
            branches.append(self.term(env + (pat,), defs))
            self.eat(close)
        return Case(scrut, *branches, pos=(t.line, t.col))

    def pattern(self):
        if self.at("("):
            self.next()
            a = self.eat_ident()
            self.eat(",")
            b = self.eat_ident()
            if b.text == a.text:
                raise ParseError("duplicate name %r in pattern" % b.text,
                                 b.line, b.col)
            self.eat(")")
            return ("pair", a.text, b.text)
        return ("var", self.eat_ident().text)

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
        if t.kind not in ("num", "dec"):
            raise _expected("a probability", t)
        self.next()
        text = t.text
        if self.at("/"):
            self.next()
            d = self.peek()
            if d.kind != "num":
                raise _expected("a denominator", d)
            self.eat_nat()      # a numeral too long is an error at d
            text = "%s/%s" % (text, d.text)
        try:
            return parse_rat(text)
        except ValueError as e:     # or at t
            msg = str(e)
            raise ParseError(msg if msg.startswith("numeral") else
                             "bad probability %r" % text, t.line, t.col) from None

    def app(self, env, defs):
        t = self.prefix(env, defs)
        while self.starts_prefix():
            arg = self.prefix(env, defs)
            t = App(t, arg, pos=(arg.pos if arg.pos else t.pos))
        return t

    def starts_prefix(self):
        t = self.peek()
        if t.kind == "ident":
            return t.text not in _KEYWORDS or t.text in _PREFIX_HEADS
        return t.kind == "num" or t.text in ("*", "(")

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
        if t.kind in ("num", "dec"):     # eat_nat rejects a decimal by name
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
            return FnT(left, self.ty(tenv))
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
        if t.text in _BASE_TYPES:
            self.next()
            return _BASE_TYPES[t.text]()
        if t.kind == "ident":
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


# the keyword-headed term forms; any other token starts an application run
_FORMS = {"fn": _Parser.lam, "let": _Parser.let, "if": _Parser.conditional,
          "ifz": _Parser.conditional, "case": _Parser.case,
          "choice": _Parser.choice}


def parse_term(src: str, defs=None) -> Term:
    """Parse defs plus one top-level term; returns the term every layer runs."""
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

