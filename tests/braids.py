"""Braids for the tests: random normal forms, rigid braids, the beta family,
and the bridge to classical Artin generators.

`random_braid` draws a normal form factor by factor from the successor
table `FOLLOWS`, so it needs no normalization; `rigid_braid` draws until
one is rigid; `beta_braid` parses the beta_k word of
`bkl4.words.beta_word`, and `beta_swap` pairs it with a braid of another
class that the solver's prefilters do not tell apart from it.

`to_artin_letters` spells a signed band-generator word in the classical
generators (1, 2, 3 meaning sigma1, sigma2, sigma3; negatives are inverses)
using the band expansions

    a13 = s2^-1 . s1 . s2        a24 = s3^-1 . s2 . s3
    a14 = s3^-1 . s2^-1 . s1 . s2 . s3

so the independent permutation-braid engine `bkl4.classical` can audit the
dual one.
"""

from __future__ import annotations

import random

from bkl4.engine import GarsideBraid, braid_from_factors, power
from bkl4.simples import LEFT_WEIGHTED, PROPER_SIMPLES, SPELLING, Simple
from bkl4.sliding import is_rigid
from bkl4.words import beta_word, parse_braid

# FOLLOWS[u]: the proper simples v with u.v left-weighted (all 12 after delta).
FOLLOWS = tuple(tuple(v for v in PROPER_SIMPLES if LEFT_WEIGHTED[u][v]) for u in Simple)


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


# Factors fixed by tau^2: words over them have symmetric cyclic words.
_TAU2_FIXED = (Simple.A13, Simple.A24, Simple.P12_34, Simple.P14_23)
RIGID_KINDS = ("random", "symmetric", "periodic")


def rigid_braid(seed: int, kind: str, shift: int, exponent: int) -> GarsideBraid:
    """The first rigid braid drawn from `seed`: a random normal form, a
    word over the tau^2-fixed simples or a block of factors repeated, times
    delta^shift (which changes the twist u = tau^-p of cycling), raised to
    `exponent` (a power repeats the cyclic word)."""
    rng = random.Random(seed)
    while True:
        length = rng.randrange(1, 9)
        if kind == "symmetric":
            factors = tuple(rng.choice(_TAU2_FIXED) for _ in range(length))
        elif kind == "periodic":
            factors = random_braid(rng, length % 3 + 1).factors * rng.randrange(2, 4)
        else:
            factors = random_braid(rng, length).factors
        x = power(braid_from_factors(shift, factors), exponent)
        if x.factors and is_rigid(x):
            return x


def beta_braid(k: int) -> GarsideBraid:
    """The normalized beta_k braid."""
    return parse_braid(beta_word(k))


def beta_swap(k: int) -> tuple[GarsideBraid, GarsideBraid]:
    """beta_k and beta_k with its factors 3 and n - 7 swapped (n factors):
    for k >= 3 the two share their circuit data but not their class, and
    SC of the swap has 2 orbits against 3k + 2 for beta_k."""
    x = beta_braid(k)
    factors = list(x.factors)
    n = len(factors)
    factors[3], factors[n - 7] = factors[n - 7], factors[3]
    return x, braid_from_factors(0, factors)


_ARTIN_ATOM: dict[Simple, tuple[int, ...]] = {
    Simple.A12: (1,),
    Simple.A23: (2,),
    Simple.A34: (3,),
    Simple.A13: (-2, 1, 2),
    Simple.A24: (-3, 2, 3),
    Simple.A14: (-3, -2, 1, 2, 3),
}


# A class for each orbit shape, for the cap boundary tests: (word, |SC|,
# a braid with the same circuit invariants and rigidity and an SC set of the
# same size that is not conjugate to it, so that the solver reads all of
# SC(word) or all of the other set, and a cap of |SC| - 1 stops both).
# beta_1 is rigid; the others have cycling orbits that are m = 1, 2 and 4
# tau twists of their walk.  The last has three orbits of one walk each, and
# its search walks two of them again after all 12 elements are closed, when
# an arrow leads from one orbit to its sibling.
CAP_CLASSES = (
    (beta_word(1), 160, "d^0 . a34 . a23 . a12 . a12 . a14 . a24 . a13 . a14"),
    ("s1.s2.s3^3.s2^-1.s1^-3", 60, "d^-2 . c134 . c234 . a34 . a13 . a13"),
    ("a12^3.a23^-3", 72, "d^-3 . c124 . c134 . c234 . a24 . a12 . a12"),
    ("s1^4.s2^-4", 96, "d^-4 . c134 . c234 . c123 . c124 . a24 . a24 . a34 . a34"),
    ("c123.a12.a14.a34", 12, "c123.a12.a12.a13"),
)


def to_artin_letters(letters) -> list[int]:
    """Spell signed band-generator letters [(simple, exponent), ...] as
    signed Artin letters (1, 2, 3)."""
    out: list[int] = []
    for simple, exp in letters:
        expansion: list[int] = []
        for atom in SPELLING[simple]:
            expansion.extend(_ARTIN_ATOM[atom])
        if exp < 0:
            expansion = [-g for g in reversed(expansion)]
        for _ in range(abs(exp)):
            out.extend(expansion)
    return out
