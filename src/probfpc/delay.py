"""The convex delay monad: distributions over "a value now, or a thunk of
more computation", observed by running one layer at a time.

A Delay node is Dist over Inl(value) | Inr(DelayThunk).  Thunks are memoized,
so every finite prefix is a finite tree and repeated observation is stable.
The equational quotient on trees is realized operationally rather than by
construction: keyed value entries merge canonically inside each Dist node,
and pending entries stay formal.

``run`` is the paper's one-layer elimination.  Every "run n levels and
look" loop goes through ``Frontier`` instead: run is the identity on
delivered values, so the frontier keeps their mass as one scalar and
carries only the pending thunks from level to level, which makes
termination tables cost time linear in depth.

Also here: termination-probability sequences, the split of a node into its
value part and combined continuation, and the bounded limit comparison
leqlim/eqlim.
"""

from .rational import ONE, ZERO, as_uprob
from .dist import Dist, Inl, Inr, dirac, choice, dist_bind, key_of

__all__ = [
    "DelayThunk", "Delay", "now", "step", "step_fn", "dchoice", "delay_bind",
    "delay_map", "zeta", "run", "Frontier", "TermSeq", "probterm_seq",
    "split", "continuation", "leqlim_upto", "eqlim_upto",
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


class Frontier:
    """A delay tree run level by level, keeping only what later runs need.

    Holds the delivered mass as one exact scalar and the pending thunks,
    merged by identity in first-occurrence order, each with its total
    weight; the entries pin their thunks, so ids stay valid.  ``step()``
    is one ``run``: it forces each pending thunk once, in order, and checks
    that delivered plus pending mass is exactly 1, as ``Dist`` does.

    With ``values=True`` the delivered values are also folded, merged by
    ``key_of`` (unkeyed ones by the identity of their ``Inl``), and
    ``values()`` lists them as ``split`` does after m runs: keyed values
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
    mass = sum((w for w, _ in pend), ZERO)
    return zeta(Dist([(w / mass, t) for w, t in pend])).force()


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
