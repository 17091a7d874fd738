"""The convex delay monad: distributions over "a value now, or a thunk of
more computation", observed by running one layer at a time.

A delay tree is its node, a Dist over Inl(value) | Inr(DelayThunk): the
paper's D(A + |>L A).  Thunks are memoized, so every finite prefix is a
finite tree and repeated observation is stable.  The equational quotient
on trees is realized operationally rather than by construction: keyed
value entries merge canonically inside each Dist node, and pending entries
stay formal.

``run`` is the paper's one-layer elimination.  The "run n levels and
look" loops go through ``Frontier`` instead: run is the identity on
delivered values, so the frontier keeps their mass as one scalar and
carries only the pending thunks from level to level, which makes
termination tables cost time linear in depth.  Its weights are integer
numerators over one common denominator, reduced once per level, so a level
costs integer products and one gcd; only the weights it hands out are
built as Fractions.  The one exception, ``relate.lift_check``'s left side,
steps with ``split`` and ``continuation``, which forces a lone pending
thunk and builds nothing: a frontier there, which absorbs, renormalises and
re-canonicalises every level, made refine-deep 1.12x slower.

Also here: termination-probability sequences, the split of a node into its
value part and combined continuation, and the bounded limit comparison
leqlim/eqlim.
"""

from fractions import Fraction
from math import gcd, lcm

from .rational import ZERO, as_uprob
from .dist import Dist, Inl, Inr, dirac, dist_bind

__all__ = [
    "DelayThunk", "now", "step", "step_fn", "delay_bind",
    "delay_map", "zeta", "run", "Frontier", "probterm_seq",
    "split", "continuation", "leqlim_upto", "eqlim_upto",
]


class DelayThunk:
    """Memoized deferred delay tree; forcing is idempotent."""
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


def now(a) -> Dist:
    return dirac(Inl(a))


def step(t: DelayThunk) -> Dist:
    return dirac(Inr(t))


def step_fn(fn) -> Dist:
    """One delay step whose continuation is computed lazily by fn()."""
    return step(DelayThunk(fn))


def delay_bind(d: Dist, f) -> Dist:
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
        w = DelayThunk(lambda: dist_bind(t.force(), ext))
        memo[id(t)] = (w, t)
        return w

    def ext(el):
        if isinstance(el, Inl):
            return f(el.val)
        return dirac(Inr(wrap(el.val)))

    return dist_bind(d, ext)


def delay_map(d: Dist, f) -> Dist:
    return delay_bind(d, lambda a: now(f(a)))


def zeta(m: Dist) -> DelayThunk:
    """Collapse a distribution of thunks into one thunk of their convex
    combination; zeta(dirac t) = t."""
    if len(m.entries) == 1:
        return m.entries[0][1]
    return DelayThunk(lambda: dist_bind(m, lambda t: t.force()))


def run(d: Dist) -> Dist:
    """Eliminate one layer of steps in every branch."""
    return dist_bind(d, lambda el: dirac(el) if isinstance(el, Inl)
                     else el.val.force())


class Frontier:
    """A delay tree run level by level, keeping only what later runs need.

    Holds the delivered mass and the pending thunks' weights as integer
    numerators over one common denominator.  The thunks are merged by
    identity in first-occurrence order, each with its total weight; the
    entries pin their thunks, so ids stay valid.  ``step()`` is one
    ``run``: it forces each pending thunk once, in order, scales the
    denominator by the lcm of the forced nodes' weight denominators, checks
    that delivered plus pending mass is exactly 1, as ``Dist`` does, and
    divides every numerator and the denominator by their gcd, so the
    denominator stays the least common one.  ``renormalise`` divides the
    pending weights by a mass, as the lifting does with its residue.
    Weights leave as ``Fraction``.
    """
    __slots__ = ("_num", "_den", "_pending")

    def __init__(self, d: Dist):
        self._num, self._den = 0, 1
        self._pending = {}      # id(thunk) -> [numerator, thunk]
        self._absorb(((1, d),))

    @property
    def mass(self) -> Fraction:
        """Delivered mass so far."""
        return Fraction(self._num, self._den)

    def reaches(self, q) -> bool:
        """Is the delivered mass at least the Fraction q?"""
        return self._num * q.denominator >= q.numerator * self._den

    def step(self):
        """Run one level; returns the level's deliveries [(w, value)]."""
        return self._absorb([(n, t.force()) for n, t in self._pending.values()])

    def _absorb(self, forced):
        # forced: [(numerator over the current denominator, node)]
        scale = lcm(*{w.denominator for _, d in forced for w, _ in d.entries})
        num, den, pending, new = self._num * scale, self._den * scale, {}, []
        for n, d in forced:
            for w, el in d.entries:
                n2 = n * w.numerator * (scale // w.denominator)
                if isinstance(el, Inl):
                    num += n2
                    new.append((n2, el.val))
                elif id(el.val) in pending:
                    pending[id(el.val)][0] += n2
                else:
                    pending[id(el.val)] = [n2, el.val]
        ns = [n for n, _ in pending.values()]
        total = sum(ns, num)
        if total != den:
            raise ValueError("distribution weights sum to %s, not 1"
                             % Fraction(total, den))
        new = [(Fraction(n, den), a) for n, a in new]
        g = gcd(den, num, *ns)
        if g > 1:
            num, den = num // g, den // g
            for e in pending.values():
                e[0] //= g
        self._num, self._den, self._pending = num, den, pending
        return new

    def renormalise(self, mass):
        """Divide the pending weights by mass and count the rest of 1 as
        delivered: the lifting's residue.  Over D = lcm(den, mass's
        denominator) mass is R/D, so the pending numerators over D stay and
        the denominator becomes R."""
        k = mass.denominator // gcd(mass.denominator, self._den)
        den = mass.numerator * (self._den * k // mass.denominator)
        ns = [n * k for n, _ in self._pending.values()]
        g = gcd(den, *ns)
        for e, n in zip(self._pending.values(), ns):
            e[0] = n // g
        self._num, self._den = (den - sum(ns)) // g, den // g

    def pendings(self):
        """Pending thunks [(w, t)] in first-occurrence order."""
        den = self._den
        return [(Fraction(n, den), t) for n, t in self._pending.values()]


def probterm_seq(d: Dist, n: int) -> tuple:
    """Termination probabilities at depths 0..n, monotone nondecreasing; the
    frontier's exact-sum check keeps each of them in [0,1]."""
    f = Frontier(d)
    out = [f.mass]
    for _ in range(n):
        f.step()
        out.append(f.mass)
    return tuple(out)


def split(d: Dist):
    """Entries of the node split into values [(w, a)] and pendings [(w, t)]."""
    vals, pend = [], []
    for w, el in d.entries:
        (vals if isinstance(el, Inl) else pend).append((w, el.val))
    return vals, pend


def continuation(pend) -> Dist:
    """Combined continuation of a node's weighted pendings [(w, t)]: the
    delay tree of their convex combination, renormalised to mass 1."""
    if len(pend) == 1:
        return pend[0][1].force()
    mass = sum((w for w, _ in pend), ZERO)
    return zeta(Dist([(w / mass, t) for w, t in pend])).force()


def leqlim_upto(f, g, eps) -> bool:
    """Bounded check of eventual domination: for every n there must be an m
    with f(n) <= g(m) + eps.  Over finite sequences that is exactly
    max(f) <= max(g) + eps, which is how it is decided."""
    eps = as_uprob(eps)
    return max(f, default=ZERO) <= max(g, default=ZERO) + eps


def eqlim_upto(f, g, eps) -> bool:
    return leqlim_upto(f, g, eps) and leqlim_upto(g, f, eps)
