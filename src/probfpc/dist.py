"""Finite distribution monad Dist as the free convex algebra.

A distribution is a finite weighted support with weights in (0,1] summing to
exactly 1.  Carriers split in two:

* keyed carriers have a total order on elements, given by `key_of`, the one
  sort key.  It keys four shapes, each when all its parts are keyed:
  `type(x) is int` (semantic naturals; no subclass of int), tuples (the
  semantic unit `()` and semantic pairs), `Inl`/`Inr` (sums, delay-tree
  leaves), and syntactic values through their `dist_key` hook
  (`Term.dist_key`).
  Supports are merged by key and sorted, giving a canonical form with
  decidable equality.  This is the classical weighted-map reading of the
  free convex algebra on a set with decidable equality.

* unkeyed carriers (closures, thunks) keep a formal order-preserving support
  list.  Entries are never merged by value; the single exception is entries
  whose element is the *identical object*, which collapse by idempotency.
  That exception is what keeps memoized pending branches from duplicating.

`dirac` builds its one entry of weight 1 directly, and `dist_bind` over a
one-entry node returns the continuation's Dist itself (the unit law): both
are canonical with mass 1 already.  So is `choice` of two one-entry sides
once `canonical` merges its (p, a) and (1-p, b), as p + (1-p) is 1
exactly.  Everything else canonicalises and checks its sum.
"""

from .rational import ONE, ZERO, as_prob

__all__ = [
    "Inl", "Inr", "key_of", "canonical", "Dist", "dirac", "choice", "dist_bind",
    "dist_map",
]


class _Inj:
    """An injection of a sum carrier; `_tag` names its side."""
    __slots__ = ("val",)

    def __init__(self, val):
        self.val = val

    def __repr__(self):
        return "%s(%r)" % (type(self).__name__, self.val)

    def __eq__(self, other):
        return (isinstance(other, _Inj) and other._tag == self._tag
                and self.val == other.val)

    def __hash__(self):
        return hash((self._tag, self.val))


class Inl(_Inj):
    """Left injection of a sum carrier."""
    __slots__ = ()
    _tag = "inl"


class Inr(_Inj):
    """Right injection of a sum carrier."""
    __slots__ = ()
    _tag = "inr"


def key_of(x):
    """Canonical sort key of a carrier element, or None if the element is
    unkeyed (thunks, closures, anything else, anything containing them).

    Keys are nested (tag, ...) tuples; the leading string tag keeps keys of
    different shapes comparable without cross-type comparisons.
    """
    if type(x) is int:
        return ("int", x)
    if isinstance(x, tuple):
        parts = []
        for c in x:
            k = key_of(c)
            if k is None:
                return None
            parts.append(k)
        return ("tuple", tuple(parts))
    if isinstance(x, _Inj):
        k = key_of(x.val)
        return None if k is None else (x._tag, k)
    fn = getattr(x, "dist_key", None)
    return None if fn is None else fn()


def canonical(entries):
    """Merge keyed entries (sorted block first), keep unkeyed formal entries
    in first-occurrence order, merging only identical objects."""
    keyed = {}
    unkeyed = {}      # id(elem) -> index into order list
    order = []        # list of [weight, elem]
    for w, v in entries:
        # the sign of a weight is its numerator's: an int comparison,
        # cheaper than comparing the Fraction itself
        if w.numerator <= 0:
            if w < 0:
                raise ValueError("distribution weight must be positive, got %s" % w)
            continue
        k = key_of(v)
        if k is not None:
            if k in keyed:
                keyed[k][0] += w
            else:
                keyed[k] = [w, v]
        else:
            i = unkeyed.get(id(v))
            if i is None:
                unkeyed[id(v)] = len(order)
                order.append([w, v])
            else:
                order[i][0] += w
    out = [(w, v) for _, (w, v) in sorted(keyed.items(), key=lambda kv: kv[0])]
    out.extend((w, v) for w, v in order)
    return tuple(out)


class Dist:
    """Finite distribution; construct through dirac/choice/dist_bind or from
    a raw weighted entry list (weights must sum to exactly 1)."""
    __slots__ = ("entries",)

    def __init__(self, entries):
        es = canonical(entries)
        total = sum((w for w, _ in es), ZERO)
        if total != ONE:
            raise ValueError("distribution weights sum to %s, not 1" % total)
        object.__setattr__(self, "entries", es)

    def __setattr__(self, *a):
        raise AttributeError("Dist is immutable")

    def __repr__(self):
        return "Dist(%s)" % ", ".join("%s: %r" % (w, v) for w, v in self.entries)


def dirac(a) -> Dist:
    """The unit, built directly: one entry of weight 1 is canonical and has
    mass 1 as it stands."""
    d = object.__new__(Dist)
    object.__setattr__(d, "entries", ((ONE, a),))
    return d


def choice(p, mu: Dist, nu: Dist) -> Dist:
    """Convex combination p*mu + (1-p)*nu, left entries first; of two
    one-entry sides, built as dirac builds its node."""
    p = as_prob(p)
    if len(mu.entries) == 1 == len(nu.entries) and type(mu) is Dist is type(nu):
        d = object.__new__(Dist)
        object.__setattr__(d, "entries", canonical(
            [(p, mu.entries[0][1]), (ONE - p, nu.entries[0][1])]))
        return d
    return Dist([(p * w, v) for w, v in mu.entries]
                + [((ONE - p) * w, v) for w, v in nu.entries])


def dist_bind(mu: Dist, f) -> Dist:
    """Kleisli extension: f maps elements to distributions; the result is the
    convex-algebra homomorphism extending f.  Over a one-entry node (weight
    1) that is f's own distribution, by the unit law."""
    out = []
    for w, v in mu.entries:
        r = f(v)
        if type(r) is Dist and len(mu.entries) == 1:
            return r
        out.extend((w * w2, v2) for w2, v2 in r.entries)
    return Dist(out)


def dist_map(f, mu: Dist) -> Dist:
    return Dist([(w, f(v)) for w, v in mu.entries])
