"""
sliding: cyclic sliding, rigidity, and sliding trajectories.

For x = delta^p . x1 ... xr with r >= 1:

    initial factor  iota(x) = tau^-p(x1)
    final factor    phi(x)  = xr
    preferred prefix p(x)   = meet(iota(x), complement(phi(x)))

    cycling    c(x) = x^iota(x) = delta^p . x2 ... xr . tau^-p(x1)
    sliding    s(x) = x^p(x)

x is rigid when the pair (phi(x), iota(x)) is left-weighted, which is the same
as p(x) = 1, i.e. x is a fixed point of cyclic sliding.  Delta powers (r = 0)
have no initial or final factor; sliding leaves them unchanged, and they are
not rigid.

Cycling and sliding conjugate by one simple, so each takes single passes of
renorm steps over the factors (see `bkl4.engine`): `_cycle_factors` puts
iota(x) after x2 ... xr with a right pass, and `_slide` conjugates by p(x)
with a left pass and a right pass.  Both work on (power, factors) tuples:
`_slide` does every slide, of `slide_to_circuit` and of the membership walks
of `bkl4.circuits`, and `_cycle_factors` every cycling step of the SC
search.  `slide_to_circuit` iterates sliding until an element repeats, which
finds the periodic part (a circuit of the sliding orbit) in finitely many
steps, and builds braids only for its result; `slide_to_circuit(x).steps`
and `.prefixes` are the slides of x and their preferred prefixes.  The SC
search of a rigid class tests tuples with `_is_rigid`.
"""

from __future__ import annotations

from itertools import islice, starmap

from bkl4.engine import (
    Factors,
    GarsideBraid,
    _Record,
    _set,
    _conjugate_factors,
    _finish,
    _right_pass,
    braid_from_factors,
)
from bkl4.simples import _ONE, COMPLEMENT, LEFT_WEIGHTED, MEET, TAU_POWER

__all__ = [
    "SlidingTrajectory",
    "is_rigid",
    "slide_to_circuit",
]


def _cycle_factors(power: int, factors: Factors) -> tuple[int, Factors]:
    """c(x) for x = delta^power . factors (at least one factor), as the delta
    count it gains and its factors.  The SC search walks cycling with it."""
    fs = list(factors)
    fs.append(TAU_POWER[-power % 4][fs.pop(0)])
    _right_pass(fs)
    return _finish(fs)


def _slide(power: int, factors: Factors) -> tuple[int, Factors, int]:
    """s(x) for x = delta^power . factors, as its power, its factors and the
    prefix used; the walks of the SC search slide with it."""
    if not factors:
        return power, factors, _ONE
    t = MEET[TAU_POWER[-power % 4][factors[0]]][COMPLEMENT[factors[-1]]]
    if t == _ONE:
        return power, factors, t
    return (*_conjugate_factors(power, factors, t), t)


def _is_rigid(power: int, factors: Factors) -> bool:
    """is_rigid(x) for x = delta^power . factors; the SC search tests arrow
    targets with it."""
    if not factors:
        return False
    return LEFT_WEIGHTED[factors[-1]][TAU_POWER[-power % 4][factors[0]]]


def is_rigid(x: GarsideBraid) -> bool:
    """Whether (phi(x), iota(x)) is left-weighted; delta powers are not rigid."""
    return _is_rigid(x.power, x.factors)


class SlidingTrajectory(_Record):
    """The sliding walk from x until the first repeated element.

    steps[0] = x; prefixes[i] conjugates steps[i] to the next element; the
    element after steps[-1] is steps[cycle_start], so steps[cycle_start:] is a
    circuit of the sliding orbit and all of its members lie in SC(x).
    accumulated_conjugator z satisfies x^z = steps[cycle_start].
    """

    __slots__ = ("steps", "prefixes", "cycle_start", "accumulated_conjugator")

    def __init__(
        self,
        steps: tuple[GarsideBraid, ...],
        prefixes: tuple[int, ...],
        cycle_start: int,
        accumulated_conjugator: GarsideBraid,
    ) -> None:
        _set(self, "steps", steps)
        _set(self, "prefixes", prefixes)
        _set(self, "cycle_start", cycle_start)
        _set(self, "accumulated_conjugator", accumulated_conjugator)

    @property
    def representative(self) -> GarsideBraid:
        return self.steps[self.cycle_start]


def slide_to_circuit(x: GarsideBraid) -> SlidingTrajectory:
    """Iterate cyclic sliding from x until an element repeats."""
    y = (x.power, x.factors)
    # {(power, factors): position}, in walk order.
    seen = {y: 0}
    prefixes: list[int] = []
    while True:
        power, factors, t = _slide(*y)
        prefixes.append(t)
        y = (power, factors)
        hit = seen.get(y)
        if hit is not None:
            return SlidingTrajectory(
                steps=(x, *starmap(GarsideBraid, islice(seen, 1, None))),
                prefixes=tuple(prefixes),
                cycle_start=hit,
                accumulated_conjugator=braid_from_factors(0, prefixes[:hit]),
            )
        seen[y] = len(seen)
