"""
engine: left normal forms and group arithmetic over the 14-simple tables.

A braid is stored as its left normal form

    x = delta^p . x1 . x2 ... xr

where p is an integer (the infimum), each xi is a proper simple (not 1, not
delta), and every adjacent pair is left-weighted: meet(complement(xi), x_{i+1})
= 1.  Two braids are equal exactly when their (power, factors) agree, so
dataclass equality decides the word problem.

Normalization is local: one renorm step on a factor pair (u, v) replaces it by
(u*t, t^-1 v) with t = meet(complement(u), v), which also bubbles delta
factors to the front and trivial factors to the back.  `normalize_factors`
runs renorm steps with backtracking (after a change, step one pair back) until
every pair is a fixed point; each change strictly grows the prefix-weight
vector lexicographically, so the loop terminates.

Signed input letters are folded in with two identities:

    f . delta^e = delta^e . tau^e(f)          (delta migration)
    s^-1 = delta^-1 . tau^-1(complement(s))   (inverse letters)

and inversion has a closed form that is already left-weighted: for
x = delta^p . x1 ... xr,

    x^-1 = delta^-(p+r) . g1 ... gr,
    gi = tau^-(p+r+1-i)(complement(x_{r+1-i})).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from bkl4.simples import (
    COMPLEMENT,
    FOLLOWS,
    PROPER_SIMPLES,
    RENORM,
    SIMPLE_NAMES,
    TAU_POWER,
    WEIGHT,
    Simple,
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
    "random_braid",
]


@dataclass(frozen=True, slots=True)
class GarsideBraid:
    """A braid in left normal form: delta**power . factors[0] ... factors[-1]."""

    power: int = 0
    factors: tuple[Simple, ...] = ()

    @property
    def inf(self) -> int:
        return self.power

    @property
    def sup(self) -> int:
        return self.power + len(self.factors)

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    def is_identity(self) -> bool:
        return self.power == 0 and not self.factors

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = " . ".join(SIMPLE_NAMES[f] for f in self.factors) or "1"
        return f"GarsideBraid(d^{self.power} . {body})"


IDENTITY = GarsideBraid()


class Invariants(NamedTuple):
    """Summit-style invariants of a normal form."""

    inf: int
    sup: int
    canonical_length: int
    word_length: int
    weight: int
    k1: int
    k2: int


def normalize_factors(raw: Sequence[Simple]) -> tuple[int, tuple[Simple, ...]]:
    """Left-normalize a factor list; returns (delta count, proper factors).

    Accepts any mix of simples including 1 and delta.  The result's factors
    are proper and pairwise left-weighted.
    """
    fs = list(raw)
    renorm = RENORM
    i = 0
    while i + 1 < len(fs):
        pair = renorm[fs[i]][fs[i + 1]]
        if pair[0] is fs[i] and pair[1] is fs[i + 1]:
            i += 1
        else:
            fs[i], fs[i + 1] = pair
            i = i - 1 if i else 0
    p = 0
    while p < len(fs) and fs[p] == Simple.DELTA:
        p += 1
    end = len(fs)
    while end > p and fs[end - 1] == Simple.ONE:
        end -= 1
    return p, tuple(fs[p:end])


def braid_from_factors(power: int, factors: Iterable[Simple]) -> GarsideBraid:
    """Build delta**power times the given (not necessarily normal) factors."""
    extra, fs = normalize_factors(tuple(factors))
    return GarsideBraid(power + extra, fs)


def braid_from_letters(letters: Iterable[tuple[Simple, int]]) -> GarsideBraid:
    """Normalize a signed word: an iterable of (simple, exponent) letters.

    Exponents may be any integers; delta letters contribute to the power,
    inverse letters expand via s^-1 = delta^-1 . tau^-1(complement(s)).
    """
    # entries: flat stream where an int means a delta exponent and a Simple
    # means a positive proper factor.
    entries: list[int | Simple] = []
    for s, e in letters:
        if e == 0 or s == Simple.ONE:
            continue
        if s == Simple.DELTA:
            entries.append(e)
        elif e > 0:
            entries.extend([s] * e)
        else:
            inv = TAU_POWER[3][COMPLEMENT[s]]
            for _ in range(-e):
                entries.append(-1)
                entries.append(inv)
    # Migrate every delta exponent to the front: passing delta^c right-to-left
    # over a factor twists it by tau^c.
    carry = 0
    twisted: list[Simple] = []
    for entry in reversed(entries):
        # Simple is an IntEnum, so check the class, not isinstance(entry, int).
        if entry.__class__ is Simple:
            twisted.append(TAU_POWER[carry % 4][entry])
        else:
            carry += entry
    twisted.reverse()
    extra, fs = normalize_factors(twisted)
    return GarsideBraid(carry + extra, fs)


def multiply(x: GarsideBraid, y: GarsideBraid) -> GarsideBraid:
    """The product x y (words compose left to right)."""
    if not x.factors:
        return GarsideBraid(x.power + y.power, y.factors)
    q = y.power
    if not y.factors:
        tw = TAU_POWER[q % 4]
        return GarsideBraid(x.power + q, tuple(tw[f] for f in x.factors))
    tw = TAU_POWER[q % 4]
    merged = [tw[f] for f in x.factors]
    merged.extend(y.factors)
    extra, fs = normalize_factors(merged)
    return GarsideBraid(x.power + q + extra, fs)


def invert(x: GarsideBraid) -> GarsideBraid:
    """The inverse x^-1, via the closed form (already left-weighted)."""
    p, fs = x.power, x.factors
    r = len(fs)
    if not r:
        return GarsideBraid(-p)
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
    return multiply(multiply(invert(z), x), z)


def tau_braid(x: GarsideBraid, k: int = 1) -> GarsideBraid:
    """tau^k(x) = delta^-k x delta^k; twists every factor, power unchanged."""
    tw = TAU_POWER[k % 4]
    return GarsideBraid(x.power, tuple(tw[f] for f in x.factors))


def invariants(x: GarsideBraid) -> Invariants:
    """Conjugacy-search bookkeeping: inf, sup, lengths and the weight data."""
    p = x.power
    r = len(x.factors)
    k1 = sum(1 for f in x.factors if WEIGHT[f] == 1)
    k2 = r - k1
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


def random_braid(rng, canonical_length: int, inf: int = 0) -> GarsideBraid:
    """Sample a normal form with the given canonical length uniformly-by-steps.

    The first factor is uniform over the proper simples and each later factor
    is uniform over the allowed successors of its predecessor, so the result
    is already in normal form.
    """
    if canonical_length <= 0:
        return GarsideBraid(inf)
    fs = [rng.choice(PROPER_SIMPLES)]
    for _ in range(canonical_length - 1):
        fs.append(rng.choice(FOLLOWS[fs[-1]]))
    return GarsideBraid(inf, tuple(fs))

