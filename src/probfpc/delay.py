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
numerators over one least common denominator, keyed by thunk.  A level of
single weight-1 steps that reach distinct thunks only moves numerators;
any other level costs integer products over the forced nodes' rows and one
gcd.  A node of several entries becomes a row once per frontier, however
often it is forced again, as the nodes of a finite chain such as the fair
coin are.  Only the weights it hands out are built as Fractions, and
``probterm_seq`` builds no deliveries.

``probterm_seq`` also stops running levels once the pending weights off the
dead cycles (thunks that only step around a cycle of weight-1 steps) are c
times those of an earlier level: a program whose thunks are finitely many
is a finite Markov chain, so from there each level delivers c times what
the level one period before did.

Also here: termination-probability sequences and the bounded limit
comparison leqlim/eqlim.
"""

from fractions import Fraction
from math import gcd, lcm

from .rational import ONE, ZERO, as_uprob
from .dist import Dist, Inl, Inr, dirac, dist_bind

__all__ = [
    "DelayThunk", "now", "step", "step_fn", "delay_bind",
    "delay_map", "run", "Frontier", "probterm_seq",
    "leqlim_upto", "eqlim_upto",
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


def run(d: Dist) -> Dist:
    """Eliminate one layer of steps in every branch."""
    return dist_bind(d, lambda el: dirac(el) if isinstance(el, Inl)
                     else el.val.force())


class Frontier:
    """A delay tree run level by level, keeping only what later runs need.

    Holds the delivered mass and the pending thunks' weights as integer
    numerators over one common denominator, the least one after every
    level.  ``_pending`` maps each thunk (hashed by identity, and kept alive
    by the key) to its numerator, in first-occurrence order.  A level
    forces each pending thunk once, in order.  When every forced node is a
    single step of weight exactly 1 and no two reach one thunk, the level
    only moves numerators: their sum and gcd are unchanged, so it keeps the
    denominator and skips the exact-sum check and the gcd.  Any other
    level scales the denominator by the lcm of the forced nodes' weight
    denominators, checks that delivered plus pending mass is exactly 1, as
    ``Dist`` does, and divides every numerator and the denominator by their
    gcd.  A node of several entries is read as an integer row (``_row``)
    the first time it is forced and the row is kept, keyed by the node, for
    every later level of this frontier.

    ``step()`` runs a level and hands out its deliveries, the forced
    nodes' own ``Inl`` elements with their weights as Fractions, so
    ``canonical`` merges them as ``Dist`` merges a node's entries;
    ``probterm_seq`` runs levels without building them.  ``renormalise``
    divides the pending weights by a mass, as the lifting does with its
    residue.  Weights leave as ``Fraction``.
    """
    __slots__ = ("_num", "_den", "_pending", "_rows")

    def __init__(self, d: Dist):
        self._num, self._den, self._pending, self._rows = 0, 1, {}, {}
        self._absorb(((1, d),))

    @property
    def mass(self) -> Fraction:
        """Delivered mass so far."""
        return Fraction(self._num, self._den)

    def reaches(self, q) -> bool:
        """Is the delivered mass at least the Fraction q?"""
        return self._num * q.denominator >= q.numerator * self._den

    def step(self):
        """Run one level; returns the level's deliveries [(w, Inl element)]."""
        den, new = self._level()
        return [(Fraction(n, den), a) for n, a in new]

    def _level(self):
        """Force each pending thunk once, in order, and take the nodes in."""
        return self._absorb([(n, t.force()) for t, n in self._pending.items()])

    def _absorb(self, forced):
        """Take in the nodes forced: [(numerator over the current
        denominator, node)].  Returns the denominator the deliveries are
        over, before the gcd, and the deliveries [(numerator, Inl element)]."""
        # a move-only level re-keys the numerators: their sum and gcd stay
        pending = {}
        for n, d in forced:
            es = d.entries
            if len(es) != 1:
                break
            w, el = es[0]
            # dirac's weight is ONE itself, so most steps skip the compare
            if type(el) is not Inr or (w is not ONE and w != 1) \
                    or el.val in pending:
                break
            pending[el.val] = n
        else:
            self._pending = pending
            return self._den, ()
        rows = [self._row(d) for _, d in forced]
        scale = lcm(*{s for s, _, _ in rows})
        num, den, pending, new = self._num * scale, self._den * scale, {}, []
        for (n, _), (s, vals, steps) in zip(forced, rows):
            n *= scale // s
            for m, a in vals:
                num += n * m
                new.append((n * m, a))
            for m, t in steps:
                pending[t] = pending.get(t, 0) + n * m
        if sum(pending.values(), num) != den:
            raise ValueError("distribution weights sum to %s, not 1"
                             % Fraction(sum(pending.values(), num), den))
        g = gcd(den, num, *pending.values())
        if g > 1:
            pending = {t: n // g for t, n in pending.items()}
        self._num, self._den, self._pending = num // g, den // g, pending
        return den, new

    def _row(self, d):
        """A node as (s, [(numerator over s, Inl element)], [(numerator
        over s, thunk)]), s the lcm of its weights' denominators; the rows
        of nodes of several entries are kept."""
        es = d.entries
        if len(es) == 1:
            w, el = es[0]
            if isinstance(el, Inl):
                return w.denominator, ((w.numerator, el),), ()
            return w.denominator, (), ((w.numerator, el.val),)
        row = self._rows.get(d)
        if row is None:
            s = lcm(*(w.denominator for w, _ in es))
            vals, steps = [], []
            for w, el in es:
                n = w.numerator * (s // w.denominator)
                if isinstance(el, Inl):
                    vals.append((n, el))
                else:
                    steps.append((n, el.val))
            row = self._rows[d] = s, vals, steps
        return row

    def renormalise(self, mass):
        """Divide the pending weights by mass and count the rest of 1 as
        delivered: the lifting's residue.  Over D = lcm(den, mass's
        denominator) mass is R/D, so the pending numerators over D stay and
        the denominator becomes R."""
        k = mass.denominator // gcd(mass.denominator, self._den)
        den = mass.numerator * (self._den * k // mass.denominator)
        ns = [n * k for n in self._pending.values()]
        g = gcd(den, *ns)
        self._pending = {t: n // g for t, n in zip(self._pending, ns)}
        self._num, self._den = (den - sum(ns)) // g, den // g

    def pendings(self):
        """Pending thunks [(w, t)] in first-occurrence order."""
        den = self._den
        return [(Fraction(n, den), t) for t, n in self._pending.items()]

    def live(self, dead):
        """The pending thunks off the dead cycles, in order, their
        numerators and the denominator, or None while one of them is
        unforced: such a level repeats none before it, as each level forces
        every thunk pending.  A forced thunk whose forced single weight-1
        steps lead back to it is on a dead cycle, which joins ``dead``."""
        ts, ns = [], []
        for t, n in self._pending.items():
            if t in dead:
                continue
            if t._fn is not None:
                return None
            cycle, u = set(), t
            while u._fn is None and u not in cycle:
                es = u._val.entries
                if len(es) != 1 or type(es[0][1]) is not Inr or es[0][0] != 1:
                    break
                cycle.add(u)
                u = es[0][1].val
            if u is t and cycle:
                dead |= cycle
            else:
                ts.append(t)
                ns.append(n)
        return tuple(ts), ns, self._den

    def snapshot(self):
        """Everything a level reads, hashable: the delivered numerator, the
        denominator and the pending (thunk, numerator) pairs in order.  A
        thunk hashes and compares by identity, and the tuple keeps it
        alive; the kept rows are a function of the nodes forced."""
        return self._num, self._den, tuple(self._pending.items())


def probterm_seq(d: Dist, n: int) -> tuple:
    """Termination probabilities at depths 0..n, monotone nondecreasing; the
    frontier's exact-sum check keeps each of them in [0,1].

    A dict keeps, per live thunk tuple (``Frontier.live``), the level last
    seen with it and its numerators.  When level k's are c times level
    i's, each later level delivers c times what the level one period
    (k - i levels) before it delivered, and the rest of the table is filled
    so, forcing nothing.  This is exact: a forced node never changes, so a
    level is a fixed linear map; a dead cycle steps only into itself and
    delivers nothing, so the live weights evolve on their own and alone
    decide the deliveries; the period forced every node the replay stands
    for, on the same supports, and passed the exact-sum check, which
    scaling by c keeps; and c <= 1, as live mass only leaves.  With no live
    thunk left the table stays constant."""
    f = Frontier(d)
    out, seen, dead = [f.mass], {}, set()
    while len(out) <= n:
        state = f.live(dead)
        if state is not None:
            ts, ns, den = state
            if not ts:
                break
            k = len(out) - 1
            i, ns0, den0 = seen.get(ts, (k, ns, den))
            if i < k and all(a * ns0[0] == b * ns[0] for a, b in zip(ns, ns0)):
                c = Fraction(ns[0] * den0, ns0[0] * den)
                deltas = [out[j + 1] - out[j] for j in range(i, k)]
                for m in range(n - k):
                    x = deltas[m] and c * deltas[m]
                    deltas.append(x)
                    out.append(out[-1] + x if x else out[-1])
                break
            seen[ts] = k, ns, den
        # the mass moves only when the level delivers
        out.append(f.mass if f._level()[1] else out[-1])
    out += [out[-1]] * (n + 1 - len(out))
    return tuple(out)


def leqlim_upto(f, g, eps) -> bool:
    """Bounded check of eventual domination: for every n there must be an m
    with f(n) <= g(m) + eps.  Over finite sequences that is exactly
    max(f) <= max(g) + eps, which is how it is decided."""
    eps = as_uprob(eps)
    return max(f, default=ZERO) <= max(g, default=ZERO) + eps


def eqlim_upto(f, g, eps) -> bool:
    return leqlim_upto(f, g, eps) and leqlim_upto(g, f, eps)
