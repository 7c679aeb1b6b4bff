"""
engine: left normal forms and group arithmetic over the 14-simple tables.

A braid is stored as its left normal form

    x = delta^p . x1 . x2 ... xr

where p is an integer (the infimum), each xi is a proper simple (not 1, not
delta), and every adjacent pair is left-weighted: meet(complement(xi), x_{i+1})
= 1.  Two braids are equal exactly when their (power, factors) agree, so
braid equality decides the word problem.  A factor is a plain int, the value
of its `Simple` member, as the tables of `bkl4.simples` hold it.

Normalization is local: one renorm step on a factor pair (u, v) replaces it by
(u*t, t^-1 v) with t = meet(complement(u), v), which also bubbles delta
factors to the front and trivial factors to the back.  The first factor of the
step is meet(u v, delta), so a renormalized pair is left-weighted.

Multiplying a normal form by one simple takes a single pass of renorm steps
(Birman, Ko and Lee, *A new approach to the word and conjugacy problems in the
braid groups*, 1998):

    s . x1 ... xr   left to right, one pending simple: (o, s) = renorm(s, xi)
                    puts out o and carries s on; s is put out last;
    x1 ... xr . s   right to left, in place: (s, o) = renorm(xi, s) puts o
                    after xi's slot and carries s on; s is put out first.

A step that changes nothing (t = 1) meets a pair of the input, which is
normal, so the pass stops there.  It tests that with `is` on the factor the
step hands back, which holds because CPython keeps one object for each
small int (a `Simple` member is another object).  Leading deltas then join
the power and
trailing 1s go.  Every normal form is built from these passes.  A one-factor
braid times x is one left pass; any other list of factors is appended to a
normal list one factor at a time, with a right pass after each, so
`normalize_factors` is that from an empty list and `multiply` extends the
tau-twisted factors of the left side by those of the right.  `conjugate` by
one simple s is delta^(p-1) . (tau^(p-1)(complement(s)) . x) . s for
x = delta^p . x1 ... xr: a left pass, then a right pass on its list.

Signed input letters are folded in with two identities, in one pass over
the letters from the right that carries the delta exponent to the front:

    f . delta^e = delta^e . tau^e(f)          (delta migration)
    s^-1 = delta^-1 . tau^-1(complement(s))   (inverse letters)

and inversion has a closed form that is already left-weighted: for
x = delta^p . x1 ... xr,

    x^-1 = delta^-(p+r) . g1 ... gr,
    gi = tau^-(p+r+1-i)(complement(x_{r+1-i})).
"""

from __future__ import annotations

import operator
from collections import namedtuple
from collections.abc import Iterable, Sequence

from bkl4.simples import (
    _DELTA,
    _ONE,
    COMPLEMENT,
    RENORM,
    SIMPLE_NAMES,
    TAU_POWER,
    WEIGHT,
)

__all__ = [
    "GarsideBraid",
    "IDENTITY",
    "Invariants",
    "normalize_factors",
    "braid_from_letters",
    "braid_from_factors",
    "multiply",
    "invert",
    "power",
    "conjugate",
    "tau_braid",
    "invariants",
]


_set = object.__setattr__


class _Record:
    """Base of the package's immutable records: each field is a slot that
    `__init__` sets once through `_set`; assigning or deleting raises
    AttributeError."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    def __reduce__(self) -> tuple:
        # Pickling and copying rebuild the record through __init__, as the
        # default protocol would set the slots through __setattr__.
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}"
            for name in self.__slots__
            if not name.startswith("_")
        )
        return f"{type(self).__name__}({fields})"


class GarsideBraid(_Record):
    """A braid in left normal form: delta**power . factors[0] ... factors[-1].

    Braids are equal, and hash alike, exactly when power and factors agree.
    """

    __slots__ = ("power", "factors")

    power: int
    factors: tuple[int, ...]

    def __init__(self, power: int = 0, factors: tuple[int, ...] = ()) -> None:
        _set_power(self, power)
        _set_factors(self, factors)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is GarsideBraid:
            return self.power == other.power and self.factors == other.factors
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.power, self.factors))

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " . ".join(SIMPLE_NAMES[f] for f in self.factors) or "1"
        return f"GarsideBraid(d^{self.power} . {body})"


# The slots' own setters take about 0.1 us less than `_set` per field, and a
# braid is built for every element of a sliding walk or an SC set read.
_set_power = GarsideBraid.power.__set__
_set_factors = GarsideBraid.factors.__set__

IDENTITY = GarsideBraid()
# Factors are plain ints, the values of `Simple` (see `bkl4.simples`).
Factors = tuple[int, ...]


Invariants = namedtuple(
    "Invariants", "inf sup canonical_length word_length weight k1 k2"
)
Invariants.__doc__ = "Summit-style invariants of a normal form."


def normalize_factors(raw: Sequence[int]) -> tuple[int, tuple[int, ...]]:
    """Left-normalize a factor list; returns (delta count, proper factors).

    Accepts any mix of simples including 1 and delta, as ints or int-likes
    such as `Simple` members.  The result's factors are proper, pairwise
    left-weighted and exact ints.
    """
    fs: list[int] = []
    _extend(fs, raw)
    if len(fs) == 1:
        # A pass reads each factor it moves from the tables, which hold
        # ints; a lone factor meets no pass.
        fs[0] = operator.index(fs[0])
    return _finish(fs)


def _left_pass(fs: list[int], end: int) -> None:
    """fs[0] . fs[1:end] in place, for normal fs[1:end] (see the module
    docstring); leading deltas and trailing 1s are left in place."""
    renorm = RENORM
    s = fs[0]
    for i in range(1, end):
        f = fs[i]
        fs[i - 1], s = renorm[s][f]
        if s is f:
            # t = 1: the pairs from here on are normal already.
            return
    fs[end - 1] = s


def _right_pass(fs: list[int]) -> None:
    """fs[:-1] . fs[-1] in place, for normal fs[:-1] (see the module
    docstring); leading deltas and trailing 1s are left in place."""
    renorm = RENORM
    s = fs[-1]
    for i in range(len(fs) - 2, -1, -1):
        u = fs[i]
        grown, fs[i + 1] = renorm[u][s]
        if grown is u:
            # t = 1: the pairs before this one are normal already.
            return
        s = grown
    fs[0] = s


def _extend(fs: list[int], factors: Iterable[int]) -> None:
    """fs . factors in place, one right pass per factor, for fs normal up to
    leading deltas and trailing 1s (as a pass leaves it)."""
    for f in factors:
        fs.append(f)
        _right_pass(fs)


def _finish(fs: list[int]) -> tuple[int, tuple[int, ...]]:
    """The delta count and proper factors of a pass's list, which it
    consumes: leading deltas are counted and trailing 1s dropped."""
    end = len(fs)
    while end and fs[end - 1] == _ONE:
        end -= 1
    del fs[end:]
    p = 0
    while p < end and fs[p] == _DELTA:
        p += 1
    if p:
        del fs[:p]
    return p, tuple(fs)


def braid_from_factors(power: int, factors: Iterable[int]) -> GarsideBraid:
    """Build delta**power times the given (not necessarily normal) factors."""
    extra, fs = normalize_factors(tuple(factors))
    return GarsideBraid(power + extra, fs)


def braid_from_letters(letters: Iterable[tuple[int, int]]) -> GarsideBraid:
    """Normalize a signed word: an iterable of (simple, exponent) letters.

    Exponents may be any integers; delta letters contribute to the power,
    inverse letters expand via s^-1 = delta^-1 . tau^-1(complement(s)).
    """
    # Read from the right, carrying the delta exponent c to the front:
    # passing delta^c right-to-left over a factor twists it by tau^c.
    carry = 0
    twisted: list[int] = []
    for s, e in reversed(list(letters)):
        if s == _DELTA:
            carry += e
        elif e > 0:
            twisted.extend([TAU_POWER[carry % 4][s]] * e)
        else:
            inv = TAU_POWER[3][COMPLEMENT[s]]
            for _ in range(-e):
                twisted.append(TAU_POWER[carry % 4][inv])
                carry -= 1
    twisted.reverse()
    extra, fs = normalize_factors(twisted)
    return GarsideBraid(carry + extra, fs)


def multiply(x: GarsideBraid, y: GarsideBraid) -> GarsideBraid:
    """The product x y (words compose left to right)."""
    if not x.factors:
        return GarsideBraid(x.power + y.power, y.factors)
    q = y.power
    tw = TAU_POWER[q % 4]
    fs = [tw[f] for f in x.factors]
    if len(fs) == 1:
        fs.extend(y.factors)
        _left_pass(fs, len(fs))
    else:
        _extend(fs, y.factors)
    extra, factors = _finish(fs)
    return GarsideBraid(x.power + q + extra, factors)


def invert(x: GarsideBraid) -> GarsideBraid:
    """The inverse x^-1, via the closed form (already left-weighted)."""
    p, fs = x.power, x.factors
    r = len(fs)
    comp = COMPLEMENT
    out = tuple(
        TAU_POWER[-(p + r + 1 - i) % 4][comp[fs[r - i]]] for i in range(1, r + 1)
    )
    return GarsideBraid(-(p + r), out)


def power(x: GarsideBraid, n: int) -> GarsideBraid:
    """The power x**n for any integer n (binary exponentiation)."""
    if n < 0:
        return power(invert(x), -n)
    acc = IDENTITY
    base = x
    while n:
        if n & 1:
            acc = multiply(acc, base)
        base = multiply(base, base) if n > 1 else base
        n >>= 1
    return acc


def conjugate(x: GarsideBraid, z: GarsideBraid) -> GarsideBraid:
    """The conjugate x^z = z^-1 x z."""
    if len(z.factors) == 1 and not z.power:
        return GarsideBraid(*_conjugate_factors(x.power, x.factors, z.factors[0]))
    return multiply(multiply(invert(z), x), z)


def _conjugate_factors(p: int, factors: Factors, s: int) -> tuple[int, Factors]:
    """x^s for x = delta^p . factors, as its power and factors:
    delta^(p-1) . (tau^(p-1)(complement(s)) . x1 ... xr) . s, a left pass,
    then a right pass on the same list."""
    fs = [TAU_POWER[(p - 1) % 4][COMPLEMENT[s]], *factors, s]
    _left_pass(fs, len(fs) - 1)
    _right_pass(fs)
    extra, out = _finish(fs)
    return p - 1 + extra, out


def tau_braid(x: GarsideBraid, k: int = 1) -> GarsideBraid:
    """tau^k(x) = delta^-k x delta^k; twists every factor, power unchanged."""
    tw = TAU_POWER[k % 4]
    return GarsideBraid(x.power, tuple(tw[f] for f in x.factors))


def invariants(x: GarsideBraid) -> Invariants:
    """Conjugacy-search bookkeeping: inf, sup, lengths and the weight data."""
    p = x.power
    r = len(x.factors)
    # A proper factor weighs 1 or 2, so the weights sum to r + k2.
    k2 = sum(map(WEIGHT.__getitem__, x.factors)) - r
    k1 = r - k2
    if p >= 0:
        word_length = p + r
    elif -p <= r:
        word_length = r
    else:
        word_length = -p
    return Invariants(
        inf=p,
        sup=p + r,
        canonical_length=r,
        word_length=word_length,
        weight=3 * p + k1 + 2 * k2,
        k1=k1,
        k2=k2,
    )
