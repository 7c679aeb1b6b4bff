"""Reference sliding circuit search for the tests: the plain per-element
breadth-first search that `bkl4.circuits.compute_sc` replaces.

`reference_sc` visits every element of SC(x), tests minimal arrows at each
one and also follows tau, cycling and decycling, keeping an eager conjugator
per element.  `orbit_partition` closes a set of elements under tau and
cycling, and `reference_quotient` takes the minimal arrows of each orbit's
canonical representative.  They share `minimal_arrows` with the library but
none of its orbit bookkeeping, so agreement checks the orbit-at-a-time
search.
"""

from __future__ import annotations

from bkl4.circuits import minimal_arrows
from bkl4.engine import (
    GarsideBraid,
    braid_from_factors,
    conjugate,
    invert,
    multiply,
    tau_braid,
)
from bkl4.simples import WEIGHT, Simple
from bkl4.sliding import (
    cycling,
    decycling,
    final_factor,
    initial_factor,
    slide_to_circuit,
)


def reference_sc(x: GarsideBraid) -> dict[GarsideBraid, GarsideBraid]:
    """SC(x) as {element: z with x^z = element}, in breadth-first order."""
    entry = slide_to_circuit(x)
    rep = entry.representative
    conjugators = {rep: entry.accumulated_conjugator}
    queue = [rep]
    delta = GarsideBraid(1, ())
    for y in queue:
        zy = conjugators[y]
        neighbors = []
        for s in minimal_arrows(y):
            ext = braid_from_factors(0, (s,))
            neighbors.append((conjugate(y, ext), ext))
        neighbors.append((tau_braid(y), delta))
        if y.factors:
            neighbors.append((cycling(y), braid_from_factors(0, (initial_factor(y),))))
            neighbors.append(
                (decycling(y), invert(braid_from_factors(0, (final_factor(y),))))
            )
        for target, ext in neighbors:
            if target not in conjugators:
                conjugators[target] = multiply(zy, ext)
                queue.append(target)
    return conjugators


def braid_key(b: GarsideBraid) -> tuple[int, tuple[int, ...]]:
    return (b.power, tuple(int(f) for f in b.factors))


def orbit_partition(elements) -> list[tuple[GarsideBraid, ...]]:
    """Orbits under tau and cycling, members sorted canonically, the list
    sorted by representative (the first member)."""
    todo = set(elements)
    orbits = []
    while todo:
        seed = todo.pop()
        component = {seed}
        frontier = [seed]
        while frontier:
            y = frontier.pop()
            for neighbor in (tau_braid(y), cycling(y)):
                if neighbor in todo:
                    todo.remove(neighbor)
                    component.add(neighbor)
                    frontier.append(neighbor)
        orbits.append(tuple(sorted(component, key=braid_key)))
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
        for s in minimal_arrows(rep):
            j = index_of[conjugate(rep, braid_from_factors(0, (s,)))]
            if j != i:
                labels.setdefault((min(i, j), max(i, j)), set()).add(s)
    return orbits, {
        key: tuple(sorted(names, key=lambda s: (WEIGHT[s], int(s))))
        for key, names in labels.items()
    }
