"""Braids for the tests: random normal forms and the beta family.

`random_braid` draws a normal form factor by factor from the successor
table, so it needs no normalization; `beta_braid` parses the beta_k word of
`bkl4.words.beta_word`.
"""

from __future__ import annotations

from bkl4.engine import GarsideBraid
from bkl4.simples import FOLLOWS, PROPER_SIMPLES
from bkl4.words import beta_word, parse_braid


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


def beta_braid(k: int) -> GarsideBraid:
    """The normalized beta_k braid."""
    return parse_braid(beta_word(k))
