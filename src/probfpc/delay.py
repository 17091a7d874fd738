"""The convex delay monad: distributions over "a value now, or a thunk of
more computation", observed by running one layer at a time.

A delay tree is its node, a Dist over Inl(value) | Inr(DelayThunk): the
paper's D(A + |>L A).  Thunks are memoized, so every finite prefix is a
finite tree and repeated observation is stable.  The equational quotient
on trees is realized operationally rather than by construction: keyed
value entries merge canonically inside each Dist node, and pending entries
stay formal, merging only where the element is one object.
``delay_bind`` builds one step node per source thunk, so a pending branch
reached twice binds to one entry.

``run`` is the paper's one-layer elimination.  The "run n levels and
look" loops go through ``Frontier`` instead: run is the identity on
delivered values, so the frontier keeps their mass as one scalar and
carries only the pending thunks from level to level, which makes
termination tables cost time linear in depth.  Its weights are integer
numerators over one least common denominator, keyed by thunk.  A level of
single weight-1 steps that reach distinct thunks only moves numerators;
any other level costs integer products over the forced nodes' entries and
one gcd.

A program with finitely many thunks is a finite Markov chain, and
``Frontier.recurrence`` finds where its live state recurs up to a factor.
From there ``probterm_seq`` fills the rest of its table, and
``Frontier.advance``, which runs the lifting's horizon search, skips the
whole periods that cannot end the search, forcing nothing.

Also here: the bounded limit comparison leqlim/eqlim.
"""

from fractions import Fraction
from math import gcd, lcm

from .rational import ONE, ZERO, as_uprob
from .dist import Dist, Inl, Inr, canonical, dirac, dist_bind

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

    The step node of a source thunk is built on its first visit and
    returned on every later one, keyed by the thunk itself, so binding
    preserves the sharing of the input tree: branches that rejoin keep
    rejoining after the bind, one node with two entries pending on one
    thunk binds to one entry, and node widths stay bounded where they were
    bounded before.
    """
    memo = {}

    def ext(el):
        if isinstance(el, Inl):
            return f(el.val)
        t = el.val
        node = memo.get(t)
        if node is None:
            node = memo[t] = step_fn(lambda: dist_bind(t.force(), ext))
        return node

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
    ``Dist`` does, and ends in ``_set``, which divides every numerator and
    the denominator by their gcd; every change of state but a move does.

    ``step()`` runs a level and hands out its deliveries, the forced
    nodes' own ``Inl`` elements with their weights as Fractions, so
    ``canonical`` merges them as ``Dist`` merges a node's entries, and logs
    them.  ``advance`` steps up to a target mass, skipping whole periods
    past a ``recurrence``, and returns ``canonical`` of the deliveries.
    ``probterm_seq`` runs levels without building them.  Levels count from
    0 however they run, for ``recurrence``.  ``renormalise`` divides the
    pending weights by a mass, as the lifting does with its residue, and
    starts the count, the states seen and the log afresh.  Weights leave
    as ``Fraction``.
    """
    __slots__ = ("_num", "_den", "_pending", "_dead", "_levels", "_seen",
                 "_log", "_period")

    def __init__(self, d: Dist):
        self._num, self._den, self._pending = 0, 1, {}
        self._dead = set()
        self._restart()
        self._absorb(((1, d),))

    def _restart(self):
        """Count levels from 0 again, forgetting the states seen and the
        levels logged: they hold only until a ``renormalise``."""
        self._levels, self._seen, self._log, self._period = 0, {}, [], None

    @property
    def mass(self) -> Fraction:
        """Delivered mass so far."""
        return Fraction(self._num, self._den)

    def reaches(self, q) -> bool:
        """Is the delivered mass at least the Fraction q?"""
        return self._num * q.denominator >= q.numerator * self._den

    def step(self):
        """Run one level; logs and returns its deliveries [(w, Inl element)]."""
        den, new = self._level()
        new = [(Fraction(n, den), a) for n, a in new]
        self._log.append(new)
        return new

    def advance(self, q, limit):
        """Run levels until one that delivers brings the delivered mass to
        the Fraction q, or limit levels have run.  Returns how many ran and
        ``canonical`` of their deliveries [(w, Inl element)], which merges
        an unkeyed element only with itself.

        Each level is stepped after asking ``recurrence``, until that
        reports (i, c) with no pending thunk on a dead cycle.  From then on
        ``_skip`` runs whole periods at each period boundary, and the levels
        up to the first boundary and after the last skip are stepped, on
        thunks already forced: at most 2 (k - i) - 1 of them per call."""
        n, out = 0, []
        while n < limit:
            if self._period is None:
                found = self.recurrence()
                if found is not None and self._dead.isdisjoint(self._pending):
                    self._period = (*found, self._levels, 1 - self.mass)
            if self._period is not None:
                i, _, k, _ = self._period
                if (self._levels - k) % (k - i) == 0:
                    n += self._skip(q, limit - n, out)
                    if n == limit:
                        break
            new = self.step()
            n += 1
            out += new
            if new and self.reaches(q):
                break
        return n, canonical(out)

    def _skip(self, q, limit, out):
        """From a period boundary, run the most whole periods, within limit
        levels, that cannot end ``advance``'s search, forcing nothing:
        appends their deliveries to the list out, sets the state they leave
        and returns the number of levels run.

        Each boundary's pending state is c times the one before.  So from x
        pending now, j periods ``_scale`` the pending weights by c**j and
        leave 1 - x c**j delivered, and deliver the period's (levels i..k-1)
        deliveries times (x / p) (c + ... + c**j), p pending before level
        k.  A period ends the search only if the mass after it reaches q,
        which none can when c = 1, nothing is pending or q >= 1."""
        i, c, k, p = self._period
        r, x = k - i, 1 - self.mass
        j = most = limit // r
        if c < 1 and x and q < 1:
            # j + 1 periods leave less than q delivered while x c**(j+1) > 1 - q
            y, a, b = 1 - q, c.numerator, c.denominator
            j, u, v = 0, x.numerator * y.denominator, y.numerator * x.denominator
            while j < most and u * a > v * b:
                j, u, v = j + 1, u * a, v * b
        if j:
            period = self._log[i:k]
            if any(period):     # then 0 < c < 1 and p > 0
                g = x / p * (c - c ** (j + 1)) / (1 - c)
                for new in period:
                    out.extend((w * g, el) for w, el in new)
            self._scale(c ** j)
            self._levels += j * r
        return j * r

    def _level(self):
        """Force each pending thunk once, in order, and take the nodes in."""
        self._levels += 1
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
        scale = lcm(*{w.denominator for _, d in forced for w, _ in d.entries})
        num, den, pending, new = self._num * scale, self._den * scale, {}, []
        for n, d in forced:
            for w, el in d.entries:
                m = n * w.numerator * (scale // w.denominator)
                if type(el) is Inl:
                    num += m
                    new.append((m, el))
                else:
                    pending[el.val] = pending.get(el.val, 0) + m
        if sum(pending.values(), num) != den:
            raise ValueError("distribution weights sum to %s, not 1"
                             % Fraction(sum(pending.values(), num), den))
        self._set(den, pending)
        return den, new

    def _set(self, den, pending):
        """The state of pending numerators {thunk: n} over den, the rest of
        den delivered, divided by their gcd."""
        g = gcd(den, *pending.values())
        self._num = (den - sum(pending.values())) // g
        self._den = den // g
        self._pending = {t: n // g for t, n in pending.items()} if g > 1 else pending

    def _scale(self, r):
        """The pending weights times the Fraction r, the rest of 1 delivered."""
        self._set(self._den * r.denominator,
                  {t: n * r.numerator for t, n in self._pending.items()})

    def renormalise(self, mass):
        """Divide the pending weights by mass, ``_scale(1 / mass)``, and
        count the rest of 1 as delivered: the lifting's residue.  A
        recurrence never spans this scaling: levels count from 0 again, and
        the states seen and the log go."""
        self._scale(1 / mass)
        self._restart()

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

    def recurrence(self):
        """(i, c) when the live state before the next level, level k (the
        thunks of ``live`` in order and their weights), is c times the one
        before level i < k; else None, and the state is kept for later
        levels to match.  No live thunk left is c = 0, once that recurs.

        Until a ``renormalise``, each level from k on delivers in ``step()``
        the same ``Inl`` elements, by identity and in order, as the level
        one period (k - i levels) before it, weights times c.  This is
        exact: a forced node never changes, so a level is a fixed linear
        map; a dead cycle steps only into itself and delivers nothing, so
        the live weights evolve on their own and alone decide the
        deliveries; the period forced every node a later level forces, on
        the same supports, and passed the exact-sum check, which scaling by
        c keeps; and c <= 1, as live mass only leaves between two
        ``renormalise`` calls.  When no pending thunk is on a dead cycle,
        the whole pending state before each level from k on is c times the
        one a period before, as a dead cycle's weight never leaves it:
        ``advance`` relies on that."""
        state = self.live(self._dead)
        if state is not None:
            ts, ns, den = state
            k = self._levels
            i, ns0, den0 = self._seen.get(ts, (k, ns, den))
            if i < k and all(a * ns0[0] == b * ns[0] for a, b in zip(ns, ns0)):
                return i, Fraction(ns[0] * den0, ns0[0] * den) if ns else ZERO
            self._seen[ts] = k, ns, den
        return None

    def snapshot(self):
        """Everything a level reads, hashable: the delivered numerator, the
        denominator and the pending (thunk, numerator) pairs in order.  A
        thunk hashes and compares by identity, and the tuple keeps it
        alive."""
        return self._num, self._den, tuple(self._pending.items())


def probterm_seq(d: Dist, n: int) -> tuple:
    """Termination probabilities at depths 0..n, monotone nondecreasing; the
    frontier's exact-sum check keeps each of them in [0,1].  Once
    ``Frontier.recurrence`` reports (i, c), the rest of the table is filled
    from the period's deltas times c, forcing nothing."""
    f = Frontier(d)
    out = [f.mass]
    while len(out) <= n:
        found = f.recurrence()
        if found is not None:
            i, c = found
            # zero as the int 0: its truth tests below call no Fraction code
            deltas = [out[j + 1] - out[j] or 0 for j in range(i, len(out) - 1)]
            for m in range(n + 1 - len(out)):
                x = deltas[m] and c * deltas[m]
                deltas.append(x)
                out.append(out[-1] + x if x else out[-1])
            break
        # the mass moves only when the level delivers
        out.append(f.mass if f._level()[1] else out[-1])
    return tuple(out)


def leqlim_upto(f, g, eps) -> bool:
    """Bounded check of eventual domination: for every n there must be an m
    with f(n) <= g(m) + eps.  Over finite sequences that is exactly
    max(f) <= max(g) + eps, which is how it is decided."""
    eps = as_uprob(eps)
    return max(f, default=ZERO) <= max(g, default=ZERO) + eps


def eqlim_upto(f, g, eps) -> bool:
    return leqlim_upto(f, g, eps) and leqlim_upto(g, f, eps)
