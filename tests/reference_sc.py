"""Reference sliding circuit search for the tests: a brute-force closure that
shares no search, orbit or arrow code with `bkl4.circuits`.

SC(x) is the set of periodic points of cyclic sliding in the conjugacy class
of x, and every element of it is reached from any other by conjugations by
simple elements (Gebhardt and González-Meneses, J. Symb. Comput. 2010).
`reference_sc` starts from the circuit representative of x and closes under
conjugation by all 13 nontrivial simples, keeping a conjugate when it is in
SC by definition: its own sliding walk comes back to it.  Only positive
simples are needed, so decycling (conjugation by phi(y)^-1) is not followed.
`reference_orbit` closes an element under tau and cycling, written as
conjugations by delta and by iota(y), `orbit_partition` splits a set into
such orbits, and `reference_quotient` labels an edge with the minimal
arrows of each orbit's canonical representative: the simples s with rep^s
in the set that have no other such simple among their divisors.
"""

from __future__ import annotations

from bkl4.engine import GarsideBraid, conjugate
from bkl4.simples import DIVISORS, TAU_POWER, WEIGHT, Simple
from bkl4.sliding import slide_to_circuit

NONTRIVIAL = tuple(s for s in Simple if s != Simple.ONE)


def _by(y: GarsideBraid, s: Simple) -> GarsideBraid:
    """y^s for a simple s."""
    return conjugate(y, GarsideBraid(0, (s,)))


def _tau_images(y: GarsideBraid) -> list[GarsideBraid]:
    """y, tau(y), tau^2(y) and tau^3(y), each once."""
    images = [y]
    for _ in range(3):
        images.append(_by(images[-1], Simple.DELTA))
    return list(dict.fromkeys(images))


def reference_sc(x: GarsideBraid) -> tuple[GarsideBraid, ...]:
    """SC(x), in breadth-first order from the circuit representative of x.

    tau is an automorphism that commutes with sliding, so tau^k(y) is in SC
    exactly when y is, and its conjugate by tau^k(s) is tau^k(y^s): the
    conjugates of one element of each tau class give those of the others,
    and each new conjugate's walk answers for its whole tau class.
    """
    start = slide_to_circuit(x).representative
    elements = _tau_images(start)
    seen = set(elements)  # every conjugate tested, in SC or not
    queue = [start]  # one element of each tau class in SC
    for y in queue:
        for s in NONTRIVIAL:
            t = _by(y, s)
            if t not in seen:
                images = _tau_images(t)
                seen.update(images)
                if slide_to_circuit(t).cycle_start == 0:
                    elements.extend(images)
                    queue.append(t)
    return tuple(elements)


def braid_key(b: GarsideBraid) -> tuple[int, tuple[int, ...]]:
    return (b.power, tuple(int(f) for f in b.factors))


def reference_orbit(seed: GarsideBraid) -> set[GarsideBraid]:
    """The orbit of `seed` under tau and cycling: its closure under
    conjugation of each member y by delta and, when y has factors, by
    iota(y)."""
    orbit = {seed}
    frontier = [seed]
    while frontier:
        y = frontier.pop()
        neighbors = [_by(y, Simple.DELTA)]  # tau(y)
        if y.factors:  # cycling: y^iota(y), iota(y) = tau^-p(y1)
            neighbors.append(_by(y, TAU_POWER[-y.power % 4][y.factors[0]]))
        for neighbor in neighbors:
            if neighbor not in orbit:
                orbit.add(neighbor)
                frontier.append(neighbor)
    return orbit


def orbit_partition(elements) -> list[tuple[GarsideBraid, ...]]:
    """The orbits of a set closed under tau and cycling, members sorted
    canonically, the list sorted by representative (the first member)."""
    todo = set(elements)
    orbits = []
    while todo:
        orbit = reference_orbit(todo.pop())
        todo -= orbit
        orbits.append(tuple(sorted(orbit, key=braid_key)))
    orbits.sort(key=lambda members: braid_key(members[0]))
    return orbits


def reference_quotient(
    elements,
) -> tuple[list[tuple[GarsideBraid, ...]], dict[tuple[int, int], tuple[Simple, ...]]]:
    """(orbits, edge labels) of the orbit quotient: an unordered edge for each
    minimal arrow of a representative whose target lies in another orbit."""
    orbits = orbit_partition(elements)
    index_of = {member: i for i, orbit in enumerate(orbits) for member in orbit}
    labels: dict[tuple[int, int], set[Simple]] = {}
    for i, orbit in enumerate(orbits):
        rep = orbit[0]
        targets = {s: index_of.get(_by(rep, s)) for s in NONTRIVIAL}
        arrows = {s for s, j in targets.items() if j is not None}
        for s in arrows:
            j = targets[s]
            if j != i and not any(a != s and a in DIVISORS[s] for a in arrows):
                labels.setdefault((min(i, j), max(i, j)), set()).add(s)
    return orbits, {
        key: tuple(sorted(names, key=lambda s: (WEIGHT[s], int(s))))
        for key, names in labels.items()
    }
