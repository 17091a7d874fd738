"""The benchmark's own `.pfpc` sources.

Every program the benchmark hands to the CLI is written here from text
templates, so a change to the code under test (its corpus, its parser's
pretty-printer) cannot change the inputs.  The templates spell out the same
constructions the paper's examples use: a recursion combinator through
`mu X. X -> A -> B`, the hesitant identity, the fair coin from a biased one,
and lazy random walks over `mu X. Unit + Nat * (Unit -> X)`.

Each function returns the source text of one closed program.
"""

LL = "(mu X. Unit + Nat * (Unit -> X))"
LLU = "(Unit + Nat * (Unit -> %s))" % LL
NIL = "fold[%s] inl[%s] *" % (LL, LLU)
CONS = ("(fn n : Nat => fn f : Unit -> %s => fold[%s] inr[%s] (n, f))"
        % (LL, LL, LLU))
HEAD = ("(fn l : %s => case unfold l of"
        " { inl u => inr[Nat + Unit] * ; inr c => inl[Nat + Unit] fst c })" % LL)
TAIL = "(fn l : %s => case unfold l of { inl u => %s ; inr c => snd c * })" % (LL, NIL)


def y_comb(a, b):
    """Recursion combinator at a -> b: Y f z unrolls f once per round."""
    r = "(mu X. X -> %s -> %s)" % (a, b)
    e = "(fn y : %s => let u = unfold y in f (fn x : %s => u y x))" % (r, a)
    return ("(fn f : (%s -> %s) -> %s -> %s => fn z : %s => %s (fold[%s] %s) z)"
            % (a, b, a, b, a, e, r, e))


def identity():
    return "fn x : Nat => x\n"


def id_hes(p):
    """Each round returns the argument with probability p, else retries."""
    return ("def Y = %s ;\n"
            "def hes = fn f : Nat -> Nat => fn x : Nat => choice %s x (f x) ;\n"
            "fn x : Nat => Y hes x\n" % (y_comb("Nat", "Nat"), p))


def fair_harness(p):
    """The fair coin from a p-biased one, applied to * and observed at Unit."""
    return ("def Y = %s ;\n"
            "def flip = fn g : Unit -> Unit + Unit => fn z : Unit =>\n"
            "  let x = choice %s true false in\n"
            "  let y = choice %s true false in\n"
            "  if x then (if y then g z else x) else (if y then x else g z) ;\n"
            "(fn q : Unit + Unit => *) (Y flip *)\n"
            % (y_comb("Unit", "(Unit + Unit)"), p, p))


def fair_observer(p, side):
    """The fair coin from a p-biased one, delivering * when it lands on
    `side` ("true" or "false") and diverging otherwise."""
    yes, no = ("*", "omega *") if side == "true" else ("omega *", "*")
    return ("def Y = %s ;\n"
            "def Yu = %s ;\n"
            "def omega = Yu (fn f : Unit -> Unit => fn z : Unit => f z) ;\n"
            "def flip = fn g : Unit -> Unit + Unit => fn z : Unit =>\n"
            "  let x = choice %s true false in\n"
            "  let y = choice %s true false in\n"
            "  if x then (if y then g z else x) else (if y then x else g z) ;\n"
            "(fn q : Unit + Unit => if q then %s else %s) (Y flip *)\n"
            % (y_comb("Unit", "(Unit + Unit)"), y_comb("Unit", "Unit"), p, p,
               yes, no))


def geo(p):
    """Geometric process as a self-application loop: deliver n with
    probability p, else retry from n+1."""
    r = "(mu X. X -> Nat -> Nat)"
    w = "(fn w : %s => fn n : Nat => choice %s n ((unfold w) w (suc n)))" % (r, p)
    return "(%s (fold[%s] %s)) 0\n" % (w, r, w)


def _walk_defs():
    return ("def Y = %s ;\n"
            "def cons = %s ;\n"
            "def hd = %s ;\n"
            "def tl = %s ;\n" % (y_comb("Nat", LL), CONS, HEAD, TAIL))


def _randw():
    """Lazy symmetric walk: list the position, stop at 0, else step -1/+1."""
    return ("def walk = fn g : Nat -> %s => fn n : Nat =>\n"
            "  cons n (fn y : Unit => ifz n then %s else"
            " (choice 1/2 (g (pred n)) (g (suc n)))) ;\n" % (LL, NIL))


def _randw2():
    """Lazy two-step walk: stay with 1/2, else move by two either way."""
    return ("def walk = fn g : Nat -> %s => fn n : Nat =>\n"
            "  cons n (fn y : Unit => ifz n then %s else"
            " (choice 1/2 (g n) (choice 1/2 (g (pred (pred n)))"
            " (g (suc (suc n)))))) ;\n" % (LL, NIL))


def _everysnd():
    return ("def Yl = %s ;\n"
            "def esnd = fn g : %s -> %s => fn l : %s =>\n"
            "  case unfold l of { inl u => %s\n"
            "  ; inr c => cons (fst c) (fn y : Unit => g (tl (snd c *))) } ;\n"
            % (y_comb(LL, LL), LL, LL, LL, NIL))


def _list(kind, n):
    """Defs and the list expression: "randw", "randw2", or "thin", every
    second element of the symmetric walk."""
    if kind == "thin":
        return _walk_defs() + _randw() + _everysnd(), "(Yl esnd (Y walk %d))" % n
    walk = _randw() if kind == "randw" else _randw2()
    return _walk_defs() + walk, "(Y walk %d)" % n


def nth_head(kind, n, j):
    """Head of the list from n after j tails: Nat + Unit."""
    defs, lst = _list(kind, n)
    src = "l"
    for _ in range(j):
        src = "(tl %s)" % src
    return defs + "(fn l : %s => hd %s) %s\n" % (LL, src, lst)


def force_k(kind, n, k):
    """Unit observer forcing the first k cells of the walk from n."""
    defs, lst = _list(kind, n)
    defs += "def force0 = fn l : %s => * ;\n" % LL
    for i in range(1, k + 1):
        defs += ("def force%d = fn l : %s => case unfold l of"
                 " { inl u => * ; inr c => force%d (snd c *) } ;\n" % (i, LL, i - 1))
    return defs + "force%d %s\n" % (k, lst)


def head(kind, n):
    """Head of the list from n: Nat + Unit."""
    defs, lst = _list(kind, n)
    return defs + "hd %s\n" % lst
