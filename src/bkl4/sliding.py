"""
sliding: cycling, decycling, the preferred prefix, cyclic sliding, rigidity,
and sliding trajectories.

For x = delta^p . x1 ... xr with r >= 1:

    initial factor  iota(x) = tau^-p(x1)
    final factor    phi(x)  = xr
    preferred prefix p(x)   = meet(iota(x), complement(phi(x)))

    cycling    c(x) = x^iota(x) = delta^p . x2 ... xr . tau^-p(x1)
    decycling  d(x) = x^(xr^-1) = delta^p . tau^p(xr) . x1 ... x_{r-1}
    sliding    s(x) = x^p(x)

x is rigid when the pair (phi(x), iota(x)) is left-weighted, which is the same
as p(x) = 1, i.e. x is a fixed point of cyclic sliding.  Delta powers (r = 0)
have no initial or final factor; cycling, decycling and sliding leave them
unchanged.

Sliding conjugates by a prefix t of both iota(x) and complement(phi(x)), so it
can be done locally:

    s(x) = delta^p . (tau^p(t)^-1 x1) . x2 ... x_{r-1} . (xr t)

with both parenthesized products staying simple; only a cheap renormalization
pass remains.  `slide_to_circuit` iterates sliding until an element repeats,
which finds the periodic part (a circuit of the sliding orbit) in finitely
many steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from bkl4.engine import GarsideBraid, braid_from_factors, normalize_factors
from bkl4.simples import (
    COMPLEMENT,
    COMPOSE,
    LEFT_WEIGHTED,
    LQUOT,
    MEET,
    TAU_POWER,
    Simple,
)

__all__ = [
    "DeltaPowerError",
    "NotSimpleError",
    "SlidingStep",
    "SlidingTrajectory",
    "initial_factor",
    "final_factor",
    "preferred_prefix",
    "cycling",
    "decycling",
    "cyclic_sliding",
    "is_rigid",
    "slide_to_circuit",
]


class DeltaPowerError(ValueError):
    """Raised when an operation needs canonical factors but x is a delta power."""


class NotSimpleError(ValueError):
    """Raised when a product that must be simple is not."""


class SlidingStep(NamedTuple):
    """One conjugation step: result = x^prefix."""

    result: GarsideBraid
    prefix: Simple


def initial_factor(x: GarsideBraid) -> Simple:
    """iota(x) = tau^-p(x1); raises DeltaPowerError if x has no factors."""
    if not x.factors:
        raise DeltaPowerError(f"delta power has no initial factor: {x!r}")
    return TAU_POWER[(-x.power) % 4][x.factors[0]]


def final_factor(x: GarsideBraid) -> Simple:
    """phi(x) = xr; raises DeltaPowerError if x has no factors."""
    if not x.factors:
        raise DeltaPowerError(f"delta power has no final factor: {x!r}")
    return x.factors[-1]


def preferred_prefix(x: GarsideBraid) -> Simple:
    """p(x) = meet(iota(x), complement(phi(x)))."""
    if not x.factors:
        raise DeltaPowerError(f"delta power has no preferred prefix: {x!r}")
    return MEET[initial_factor(x)][COMPLEMENT[x.factors[-1]]]


def _cycle_factors(
    power: int, factors: tuple[Simple, ...]
) -> tuple[int, tuple[Simple, ...]]:
    """c(x) for x = delta^power . factors (at least one factor), as the delta
    count it gains and its factors.  The SC search walks cycling with it."""
    iota = TAU_POWER[-power % 4][factors[0]]
    if LEFT_WEIGHTED[factors[-1]][iota]:
        # x is rigid: the rotated factors are already in normal form.
        return 0, factors[1:] + (iota,)
    return normalize_factors(factors[1:] + (iota,))


def cycling(x: GarsideBraid) -> GarsideBraid:
    """c(x) = x^iota(x); identity operation on delta powers."""
    if not x.factors:
        return x
    extra, factors = _cycle_factors(x.power, x.factors)
    return GarsideBraid(x.power + extra, factors)


def decycling(x: GarsideBraid) -> GarsideBraid:
    """d(x) = x^(phi(x)^-1); identity operation on delta powers."""
    if not x.factors:
        return x
    return braid_from_factors(
        x.power, (TAU_POWER[x.power % 4][x.factors[-1]],) + x.factors[:-1]
    )


def cyclic_sliding(x: GarsideBraid) -> SlidingStep:
    """s(x) = x^p(x) with the prefix used; delta powers slide to themselves."""
    if not x.factors:
        return SlidingStep(x, Simple.ONE)
    t = MEET[initial_factor(x)][COMPLEMENT[x.factors[-1]]]
    if t == Simple.ONE:
        return SlidingStep(x, Simple.ONE)
    head = LQUOT[TAU_POWER[x.power % 4][t]][x.factors[0]]
    if len(x.factors) == 1:
        # One factor is both head and tail: s(x) = delta^p . (head t).
        return SlidingStep(braid_from_factors(x.power, (head, t)), t)
    tail = _compose_checked(x.factors[-1], t)
    return SlidingStep(
        braid_from_factors(x.power, (head,) + x.factors[1:-1] + (tail,)), t
    )


def _compose_checked(a: Simple, b: Simple) -> Simple:
    c = COMPOSE[a][b]
    if c is None:  # pragma: no cover - guarded by meet with complement
        raise NotSimpleError(f"product of {a!r} and {b!r} is not simple")
    return c


def is_rigid(x: GarsideBraid) -> bool:
    """Whether (phi(x), iota(x)) is left-weighted; delta powers are not rigid."""
    if not x.factors:
        return False
    return LEFT_WEIGHTED[x.factors[-1]][
        TAU_POWER[(-x.power) % 4][x.factors[0]]
    ]


@dataclass(frozen=True, slots=True)
class SlidingTrajectory:
    """The sliding walk from x until the first repeated element.

    steps[0] = x; prefixes[i] conjugates steps[i] to the next element; the
    element after steps[-1] is steps[cycle_start], so steps[cycle_start:] is a
    circuit of the sliding orbit and all of its members lie in SC(x).
    accumulated_conjugator z satisfies x^z = steps[cycle_start].
    """

    steps: tuple[GarsideBraid, ...]
    prefixes: tuple[Simple, ...]
    cycle_start: int
    accumulated_conjugator: GarsideBraid

    @property
    def representative(self) -> GarsideBraid:
        return self.steps[self.cycle_start]



def slide_to_circuit(x: GarsideBraid) -> SlidingTrajectory:
    """Iterate cyclic sliding from x until an element repeats."""
    seen: dict[GarsideBraid, int] = {x: 0}
    steps: list[GarsideBraid] = [x]
    prefixes: list[Simple] = []
    y = x
    while True:
        step = cyclic_sliding(y)
        prefixes.append(step.prefix)
        y = step.result
        hit = seen.get(y)
        if hit is not None:
            return SlidingTrajectory(
                steps=tuple(steps),
                prefixes=tuple(prefixes),
                cycle_start=hit,
                accumulated_conjugator=braid_from_factors(0, prefixes[:hit]),
            )
        seen[y] = len(steps)
        steps.append(y)
