"""
classical: an independent classical (permutation-braid) Garside implementation
for the 4-strand braid group, used only to cross-check the band-generator
modules.  It deliberately shares no tables or code with them: everything here
is computed from permutation arithmetic on S4.

A braid word in the Artin generators sigma1, sigma2, sigma3 is given as signed
integers (1, 2, 3; negatives are inverses).  The classical Garside element is
the half twist Delta (permutation: the order reversal), and the simple
elements are the 24 permutation braids A_pi, one per permutation of the four
strands.

Conventions (matching the rest of the package): words act left to right, so
the permutation of a product is 'first braid, then second braid', i.e.
(x y)(i) = y(x(i)).  Permutations are stored as 0-indexed image tuples.
For a permutation braid A_pi:

    starting set  S(A_pi) = descent positions of pi
    finishing set F(A_pi) = descent positions of pi^-1

and a pair A_u . A_v is left-weighted iff S(A_v) is contained in F(A_u).
Renormalizing a pair transfers each generator sigma_i with i in S(v) \\ F(u)
across the boundary until none is left.  The left normal form is

    x = Delta^p . A_{pi_1} ... A_{pi_r}

with every pi_j neither trivial nor the reversal and all pairs left-weighted.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from collections.abc import Iterable

__all__ = [
    "Perm",
    "IDENT",
    "REVERSAL",
    "ClassicalNF",
    "classical_normalize",
    "classical_is_trivial",
]

Perm = tuple[int, int, int, int]

IDENT: Perm = (0, 1, 2, 3)
REVERSAL: Perm = (3, 2, 1, 0)

_SIGMA: dict[int, Perm] = {
    1: (1, 0, 2, 3),
    2: (0, 2, 1, 3),
    3: (0, 1, 3, 2),
}


def _mult(a: Perm, b: Perm) -> Perm:
    """'a then b': the permutation of the braid A_a A_b."""
    return (b[a[0]], b[a[1]], b[a[2]], b[a[3]])


def _inverse(pi: Perm) -> Perm:
    inv = [0, 0, 0, 0]
    for i, image in enumerate(pi):
        inv[image] = i
    return (inv[0], inv[1], inv[2], inv[3])


def _descents(pi: Perm) -> frozenset[int]:
    """1-based positions i with pi(i) > pi(i+1)."""
    return frozenset(i + 1 for i in range(3) if pi[i] > pi[i + 1])


def _tau(pi: Perm) -> Perm:
    """Conjugation by the reversal: the permutation of Delta^-1 A_pi Delta."""
    return _mult(REVERSAL, _mult(pi, REVERSAL))


def _complement(pi: Perm) -> Perm:
    """The permutation q with 'pi then q' = reversal and lengths adding."""
    return _mult(_inverse(pi), REVERSAL)


def _renorm_pair(u: Perm, v: Perm) -> tuple[Perm, Perm]:
    """Transfer generators from the head of v to the tail of u to a fixpoint."""
    while True:
        movable = _descents(v) - _descents(_inverse(u))
        if not movable:
            return u, v
        i = min(movable)
        s = _SIGMA[i]
        u = _mult(u, s)
        v = _mult(s, v)


# Precomputed pair tables over all 24 x 24 permutations.
_ALL_PERMS: tuple[Perm, ...] = tuple(itertools.permutations(range(4)))
_RENORM: dict[tuple[Perm, Perm], tuple[Perm, Perm]] = {
    (u, v): _renorm_pair(u, v)
    for u, v in itertools.product(_ALL_PERMS, _ALL_PERMS)
}
_TAU: dict[Perm, Perm] = {pi: _tau(pi) for pi in _ALL_PERMS}
_INVERSE_LETTER: dict[int, Perm] = {
    i: _tau(_complement(_SIGMA[i])) for i in (1, 2, 3)
}


class ClassicalNF(namedtuple("ClassicalNF", "power perms", defaults=(0, ()))):
    """A classical left normal form Delta**power . A_perms[0] ... A_perms[-1]."""

    __slots__ = ()

    def is_trivial(self) -> bool:
        return self.power == 0 and not self.perms

    @property
    def canonical_length(self) -> int:
        return len(self.perms)


def classical_normalize(letters: Iterable[int]) -> ClassicalNF:
    """Left normal form of a signed Artin word (letters in {±1, ±2, ±3})."""
    # Expand: a positive letter is its transposition; sigma_i^-1 is
    # Delta^-1 . A_q with q = tau(complement(sigma_i)).
    entries: list[int | Perm] = []
    for g in letters:
        if g in (1, 2, 3):
            entries.append(_SIGMA[g])
        elif -g in (1, 2, 3):
            entries.append(-1)
            entries.append(_INVERSE_LETTER[-g])
        else:
            raise ValueError(f"not an Artin letter: {g!r}")
    # Migrate Delta powers to the front; passing Delta^c over a permutation
    # braid twists it by tau^c (tau is an involution here).
    carry = 0
    factors: list[Perm] = []
    for entry in reversed(entries):
        if isinstance(entry, tuple):
            factors.append(_TAU[entry] if carry % 2 else entry)
        else:
            carry += entry
    factors.reverse()
    # Bubble to the pairwise fixpoint, backtracking after each change.
    renorm = _RENORM
    i = 0
    while i + 1 < len(factors):
        pair = renorm[factors[i], factors[i + 1]]
        if pair[0] == factors[i]:
            i += 1
        else:
            factors[i], factors[i + 1] = pair
            i = i - 1 if i else 0
    p = 0
    while p < len(factors) and factors[p] == REVERSAL:
        p += 1
    end = len(factors)
    while end > p and factors[end - 1] == IDENT:
        end -= 1
    return ClassicalNF(carry + p, tuple(factors[p:end]))


def classical_is_trivial(letters: Iterable[int]) -> bool:
    """Whether the signed Artin word represents the identity braid."""
    return classical_normalize(letters).is_trivial()


def _self_check() -> None:
    """Check the permutation arithmetic; raises RuntimeError naming every
    law that fails."""
    sigmas = [_SIGMA[i] for i in (1, 2, 3)]
    pairs = [
        (u, v, *_RENORM[u, v]) for u, v in itertools.product(_ALL_PERMS, _ALL_PERMS)
    ]
    laws = {
        "sigma_i is an involution": all(_mult(s, s) == IDENT for s in sigmas),
        "sigma_i * complement(sigma_i) = Delta": all(
            _mult(s, _complement(s)) == REVERSAL for s in sigmas
        ),
        # Delta = sigma1 sigma2 sigma1 sigma3 sigma2 sigma1 (one reduced word).
        "s1 s2 s1 s3 s2 s1 = Delta": classical_normalize([1, 2, 1, 3, 2, 1])
        == ClassicalNF(1, ()),
        "s1 s1^-1 = 1": classical_normalize([1, -1]) == ClassicalNF(0, ()),
        "s2^-1 s1 s2 s2^-1 s1^-1 s2 = 1": classical_normalize([-2, 1, 2, -2, -1, 2])
        == ClassicalNF(0, ()),
        "renormalization keeps the product": all(
            _mult(nu, nv) == _mult(u, v) for u, v, nu, nv in pairs
        ),
        "renormalized pairs are left-weighted": all(
            _descents(nv) <= _descents(_inverse(nu)) for _, _, nu, nv in pairs
        ),
    }
    failed = [law for law, holds in laws.items() if not holds]
    if failed:
        raise RuntimeError("classical oracle breaks: " + "; ".join(failed))


_self_check()
