"""The convex delay monad: distributions over "a value now, or a thunk of
more computation", observed by running one layer at a time.

A Delay node is Dist over Inl(value) | Inr(DelayThunk).  Thunks are memoized,
so every finite prefix is a finite tree and repeated observation is stable.
The equational quotient on trees is realized operationally rather than by
construction: keyed value entries merge canonically inside each Dist node,
pending entries stay formal, and all deep comparisons go through
``prefix_eq``, which compares the canonical (value part, delayed mass,
combined continuation) decomposition level by level.

``run`` is the paper's one-layer elimination.  Every "run n levels and
look" loop goes through ``Frontier`` instead: run is the identity on
delivered values, so the frontier keeps their mass as one scalar and
carries only the pending thunks from level to level, which makes
termination tables cost time linear in depth.

Also here: the fuelled step-reduction witnesses (ν ⤳ ν'), the bounded
approximate-reduction search ``embed_approx``, termination-probability
sequences, and the bounded limit comparison leqlim/eqlim.
"""

from fractions import Fraction

from .rational import ONE, ZERO, as_prob, as_uprob
from .dist import Dist, Inl, Inr, dirac, choice, dist_bind, key_of

__all__ = [
    "DelayThunk", "Delay", "now", "step", "step_fn", "step_of", "dchoice",
    "delay_bind", "delay_map", "zeta", "run", "run_n", "Frontier",
    "probterm0", "probterm", "TermSeq", "probterm_seq", "value_part", "Refl",
    "StepElim", "Seq", "ChoiceCong", "WitnessShapeError", "check_witness",
    "witness_for_run", "witness_to_text", "witness_from_text", "embed_approx",
    "leqlim_upto", "eqlim_upto", "geo", "hesitant", "prefix_eq", "node_eq",
    "split", "continuation",
]


class DelayThunk:
    """Memoized deferred Delay; forcing is idempotent."""
    __slots__ = ("_fn", "_val")

    def __init__(self, fn):
        self._fn = fn
        self._val = None

    def force(self):
        if self._fn is not None:
            self._val = self._fn()
            self._fn = None
        return self._val

    def __repr__(self):
        return "<thunk forced>" if self._fn is None else "<thunk>"


class Delay:
    __slots__ = ("node",)

    def __init__(self, node: Dist):
        object.__setattr__(self, "node", node)

    def __setattr__(self, *a):
        raise AttributeError("Delay is immutable")

    def __repr__(self):
        return "Delay(%r)" % (self.node,)


def now(a) -> Delay:
    return Delay(dirac(Inl(a)))


def step(t: DelayThunk) -> Delay:
    return Delay(dirac(Inr(t)))


def step_fn(fn) -> Delay:
    """One delay step whose continuation is computed lazily by fn()."""
    return step(DelayThunk(fn))


def step_of(d: Delay) -> Delay:
    """One delay step in front of an already-built computation."""
    return step(DelayThunk(lambda: d))


def dchoice(p, d: Delay, e: Delay) -> Delay:
    return Delay(choice(p, d.node, e.node))


def delay_bind(d: Delay, f) -> Delay:
    """Kleisli extension; value leaves are substituted immediately, pending
    branches defer the recursive bind inside a thunk.

    One wrapper thunk is built per source thunk and reused across the whole
    traversal, so binding preserves the sharing of the input tree.  Branches
    that rejoin keep rejoining after the bind, and node widths stay bounded
    where they were bounded before.  The memo pins its keys alive so object
    ids cannot be reused while the result can still be forced.
    """
    memo = {}

    def wrap(t):
        hit = memo.get(id(t))
        if hit is not None:
            return hit[0]
        w = DelayThunk(lambda: go(t.force()))
        memo[id(t)] = (w, t)
        return w

    def ext(el):
        if isinstance(el, Inl):
            return f(el.val).node
        return dirac(Inr(wrap(el.val)))

    def go(d2):
        return Delay(dist_bind(d2.node, ext))

    return go(d)


def delay_map(d: Delay, f) -> Delay:
    return delay_bind(d, lambda a: now(f(a)))


def zeta(m: Dist) -> DelayThunk:
    """Collapse a distribution of thunks into one thunk of their convex
    combination; zeta(dirac t) = t."""
    if len(m.entries) == 1:
        return m.entries[0][1]
    return DelayThunk(lambda: Delay(dist_bind(m, lambda t: t.force().node)))


def run(d: Delay) -> Delay:
    """Eliminate one layer of steps in every branch."""
    return Delay(dist_bind(d.node,
                           lambda el: dirac(el) if isinstance(el, Inl)
                           else el.val.force().node))


def run_n(d: Delay, n: int) -> Delay:
    for _ in range(n):
        d = run(d)
    return d


class Frontier:
    """A delay tree run level by level, keeping only what later runs need.

    Holds the delivered mass as one exact scalar and the pending thunks,
    merged by identity in first-occurrence order, each with its total
    weight; the entries pin their thunks, so ids stay valid.  ``step()``
    is one ``run``: it forces each pending thunk once, in order, and checks
    that delivered plus pending mass is exactly 1, as ``Dist`` does.

    With ``values=True`` the delivered values are also folded, merged by
    ``key_of`` (unkeyed ones by the identity of their ``Inl``), and
    ``values()`` lists them as ``split(run_n(d, m))[0]`` does: keyed values
    sorted by key, then unkeyed ones in tree order.  Tree order is kept by
    a position per entry, (parent position, index in its node).
    """
    __slots__ = ("mass", "_pending", "_keyed", "_unkeyed")

    def __init__(self, d: Delay, values=False):
        self.mass = ZERO
        self._pending = {}      # id(thunk) -> [weight, thunk, position]
        self._keyed = {} if values else None    # key -> [weight, value]
        self._unkeyed = {}      # id(Inl) -> [weight, Inl, root-first path]
        self._absorb(((ONE, d, ()),))

    def step(self):
        """Run one level; returns the level's deliveries [(w, value)]."""
        return self._absorb([(w, t.force(), pos)
                             for w, t, pos in self._pending.values()])

    def _absorb(self, forced):
        mass, pending, new = self.mass, {}, []
        for w, d, pos in forced:
            for j, (w2, el) in enumerate(d.node.entries):
                w2 = w * w2
                if isinstance(el, Inl):
                    mass += w2
                    new.append((w2, el, (pos, j)))
                elif id(el.val) in pending:
                    pending[id(el.val)][0] += w2
                else:
                    pending[id(el.val)] = [w2, el.val, (pos, j)]
        total = sum((w for w, _, _ in pending.values()), mass)
        if total != ONE:
            raise ValueError("distribution weights sum to %s, not 1" % total)
        self.mass, self._pending = mass, pending
        if self._keyed is not None:
            for w, el, pos in new:
                self._fold(w, el, pos)
        return [(w, el.val) for w, el, _ in new]

    def _fold(self, w, el, pos):
        k = key_of(el.val)
        if k is not None:
            self._keyed.setdefault(k, [ZERO, el.val])[0] += w
            return
        path = []
        while pos:
            pos, j = pos
            path.append(j)
        path = tuple(reversed(path))
        hit = self._unkeyed.setdefault(id(el), [ZERO, el, path])
        hit[0] += w
        hit[2] = min(hit[2], path)

    def values(self):
        """Delivered values [(w, a)] in canonical order; needs values=True."""
        out = [(w, a) for _, (w, a) in sorted(self._keyed.items(),
                                               key=lambda kv: kv[0])]
        out += [(w, el.val) for w, el, _ in sorted(self._unkeyed.values(),
                                                    key=lambda r: r[2])]
        return out

    def pendings(self):
        """Pending thunks [(w, t)] in first-occurrence order."""
        return [(w, t) for w, t, _ in self._pending.values()]


def probterm0(d: Delay) -> Fraction:
    return sum((w for w, el in d.node.entries if isinstance(el, Inl)),
               Fraction(0))


def probterm(n: int, d: Delay) -> Fraction:
    f = Frontier(d)
    for _ in range(n):
        f.step()
    return f.mass


class TermSeq:
    """Termination probabilities at depths 0..N; monotone nondecreasing."""
    __slots__ = ("values",)

    def __init__(self, values):
        self.values = tuple(as_uprob(v) for v in values)

    def __getitem__(self, n):
        return self.values[n]

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def to_json(self):
        return {"depths": list(range(len(self.values))),
                "probterm": [str(v) for v in self.values]}


def probterm_seq(d: Delay, n: int) -> TermSeq:
    f = Frontier(d)
    out = [f.mass]
    for _ in range(n):
        f.step()
        out.append(f.mass)
    return TermSeq(out)


def split(d: Delay):
    """Entries of the node split into values [(w, a)] and pendings [(w, t)]."""
    vals, pend = [], []
    for w, el in d.node.entries:
        (vals if isinstance(el, Inl) else pend).append((w, el.val))
    return vals, pend


def continuation(pend) -> Delay:
    """Combined continuation of a node's weighted pendings [(w, t)]: the
    Delay of their convex combination, renormalised to mass 1."""
    mass = sum((w for w, _ in pend), Fraction(0))
    return zeta(Dist([(w / mass, t) for w, t in pend])).force()


def value_part(d: Delay, n: int):
    """Mass delivered within n runs, together with the delivered weighted
    values (weights unnormalized)."""
    f = Frontier(d, values=True)
    for _ in range(n):
        f.step()
    return f.mass, tuple(f.values())


# --- fuelled step reduction ----------------------------------------------

class Refl:
    __slots__ = ()

    def __repr__(self):
        return "Refl"


class StepElim:
    __slots__ = ()

    def __repr__(self):
        return "StepElim"


class Seq:
    __slots__ = ("first", "second")

    def __init__(self, first, second):
        self.first = first
        self.second = second

    def __repr__(self):
        return "Seq(%r, %r)" % (self.first, self.second)


class ChoiceCong:
    __slots__ = ("p", "left", "right")

    def __init__(self, p, left, right):
        self.p = as_prob(p)
        self.left = left
        self.right = right

    def __repr__(self):
        return "ChoiceCong(%s, %r, %r)" % (self.p, self.left, self.right)


class WitnessShapeError(ValueError):
    """Witness node does not match the shape of the Delay it reduces."""


def check_witness(w, d: Delay) -> Delay:
    """Replay a reduction witness against d, returning the reduct.

    StepElim demands a pure step node.  ChoiceCong(p, _, _) splits the
    canonical support list at the unique minimal prefix of mass exactly p;
    witnesses produced by ``witness_for_run`` always split that way.
    """
    if isinstance(w, Refl):
        return d
    if isinstance(w, StepElim):
        es = d.node.entries
        if len(es) != 1 or not isinstance(es[0][1], Inr):
            raise WitnessShapeError("StepElim applied to a non-step node: %r" % (d.node,))
        return es[0][1].val.force()
    if isinstance(w, Seq):
        return check_witness(w.second, check_witness(w.first, d))
    if isinstance(w, ChoiceCong):
        es = d.node.entries
        acc = ZERO
        for i in range(len(es)):
            acc += es[i][0]
            if acc == w.p:
                left = Delay(Dist([(wt / w.p, v) for wt, v in es[: i + 1]]))
                right = Delay(Dist([(wt / (ONE - w.p), v) for wt, v in es[i + 1:]]))
                return dchoice(w.p, check_witness(w.left, left),
                               check_witness(w.right, right))
            if acc > w.p:
                break
        raise WitnessShapeError(
            "ChoiceCong(%s, ..) has no prefix of that mass in %r" % (w.p, d.node))
    raise TypeError("not a witness: %r" % (w,))


def _witness_one(d: Delay):
    """Witness for one run: eliminates exactly the top step layer of d."""
    es = d.node.entries
    if len(es) == 1:
        return Refl() if isinstance(es[0][1], Inl) else StepElim()
    w0 = es[0][0]
    head = Delay(dirac(es[0][1]))
    rest = Delay(Dist([(wt / (ONE - w0), v) for wt, v in es[1:]]))
    return ChoiceCong(w0, _witness_one(head), _witness_one(rest))


def witness_for_run(d: Delay, n: int = 1):
    """A witness w with check_witness(w, d) = run_n(d, n)."""
    if n == 0:
        return Refl()
    w = _witness_one(d)
    cur = run(d)
    for _ in range(n - 1):
        w = Seq(w, _witness_one(cur))
        cur = run(cur)
    return w


def witness_to_text(w) -> str:
    if isinstance(w, Refl):
        return "R"
    if isinstance(w, StepElim):
        return "S"
    if isinstance(w, Seq):
        return "(%s;%s)" % (witness_to_text(w.first), witness_to_text(w.second))
    if isinstance(w, ChoiceCong):
        return "C(%s,%s,%s)" % (w.p, witness_to_text(w.left), witness_to_text(w.right))
    raise TypeError("not a witness: %r" % (w,))


def witness_from_text(text: str):
    pos = [0]
    s = text.replace(" ", "")

    def fail(msg):
        raise ValueError("witness parse error at %d: %s" % (pos[0], msg))

    def eat(c):
        if pos[0] >= len(s) or s[pos[0]] != c:
            fail("expected %r" % c)
        pos[0] += 1

    def atom():
        if pos[0] >= len(s):
            fail("unexpected end")
        c = s[pos[0]]
        if c == "R":
            pos[0] += 1
            return Refl()
        if c == "S":
            pos[0] += 1
            return StepElim()
        if c == "(":
            pos[0] += 1
            a = atom()
            eat(";")
            b = atom()
            eat(")")
            return Seq(a, b)
        if c == "C":
            pos[0] += 1
            eat("(")
            j = s.index(",", pos[0])
            p = Fraction(s[pos[0]: j])
            pos[0] = j + 1
            a = atom()
            eat(",")
            b = atom()
            eat(")")
            return ChoiceCong(p, a, b)
        fail("unexpected %r" % c)

    w = atom()
    if pos[0] != len(s):
        fail("trailing input")
    return w


# --- bounded approximate reduction and limit comparison -------------------

def _merge_by_key(pairs):
    out = {}
    for w, v in pairs:
        k = key_of(v)
        if k is None:
            raise TypeError("unkeyed element %r in a keyed comparison" % (v,))
        out[k] = out.get(k, ZERO) + w
    return out


def embed_approx(d: Delay, target, horizon: int, eps) -> "int | None":
    """Least m <= horizon such that the values delivered by m runs cover the
    target weighted list up to total shortfall eps; None if the horizon is
    exhausted (which does NOT refute approximate reducibility)."""
    eps = as_uprob(eps)
    want = _merge_by_key(target)
    f = Frontier(d, values=True)
    for m in range(horizon + 1):
        if m:
            f.step()
        have = _merge_by_key(f.values())
        short = sum((max(ZERO, tw - have.get(k, ZERO)) for k, tw in want.items()),
                    Fraction(0))
        if short <= eps:
            return m
    return None


def leqlim_upto(f, g, eps) -> bool:
    """Bounded check of eventual domination: for every n there must be an m
    with f(n) <= g(m) + eps.  Over finite sequences that is exactly
    max(f) <= max(g) + eps, which is how it is decided."""
    eps = as_uprob(eps)
    fmax = max(f) if len(f) else ZERO
    gmax = max(g) if len(g) else ZERO
    return fmax <= gmax + eps


def eqlim_upto(f, g, eps) -> bool:
    return leqlim_upto(f, g, eps) and leqlim_upto(g, f, eps)


# --- example processes ----------------------------------------------------

def geo(p, n: int = 0) -> Delay:
    """Geometric process: deliver n with probability p, else one step and
    retry from n+1."""
    p = as_prob(p)
    return dchoice(p, now(n), step_fn(lambda: geo(p, n + 1)))


def hesitant(q, a) -> Delay:
    """Hesitant point distribution: each round, one step, then deliver a with
    probability q or hesitate again.  Mass after m runs is 1 - (1-q)^m."""
    q = as_prob(q)
    return step_fn(lambda: dchoice(q, now(a), hesitant(q, a)))


# --- canonical prefix comparison ------------------------------------------

def prefix_eq(d: Delay, e: Delay, depth: int) -> bool:
    """Structural equality of two delay trees to a forcing depth, comparing
    at each level the canonical decomposition: merged keyed value entries,
    total delayed mass, and (recursively) the combined continuation."""
    dv, dp = split(d)
    ev, ep = split(e)
    if _merge_by_key(dv) != _merge_by_key(ev):
        return False
    dm = sum((w for w, _ in dp), Fraction(0))
    em = sum((w for w, _ in ep), Fraction(0))
    if dm != em:
        return False
    if depth == 0 or not dp:
        return True
    return prefix_eq(continuation(dp), continuation(ep), depth - 1)


def node_eq(d: Delay, e: Delay) -> bool:
    """Exact one-level equality: same canonical entry list, pending entries
    compared by thunk identity.  Used by the witness tests."""
    des, ees = d.node.entries, e.node.entries
    if len(des) != len(ees):
        return False
    for (w1, v1), (w2, v2) in zip(des, ees):
        if w1 != w2:
            return False
        if isinstance(v1, Inl) != isinstance(v2, Inl):
            return False
        if isinstance(v1, Inl):
            if key_of(v1.val) != key_of(v2.val):
                return False
        elif v1.val is not v2.val:
            return False
    return True
