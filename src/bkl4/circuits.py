"""
circuits: the set of sliding circuits SC(x), its orbit structure, and the
quotient graph.

SC(x) is the set of conjugates of x that lie on a circuit of cyclic sliding
(the periodic points of s inside the conjugacy class); it is a finite,
complete conjugacy-class invariant.  tau (conjugation by delta) and cycling
act on it as bijections, and their orbits O(y) = {tau^k(c^l(y))} partition
it.  This module computes SC(x) one orbit at a time, starting from the
circuit representative of x:

  * Each newly found element seeds an orbit, which the search closes under
    tau and cycling.  On a finite set, forward closure under two bijections
    is the whole orbit, so decycling adds nothing.
  * An *arrow* at y in SC(x) is a nontrivial simple s with y^s in SC(x); it is
    *minimal* when the only prefixes t of s with y^t in SC(x) are 1 and s.
    Minimal arrows are always prefixes of iota(y) or complement(phi(y)), so
    the candidate set is tiny; candidates are tested in weight-then-index
    order, and one with a smaller arrow among its prefixes is skipped.  If
    some element of SC(x) is rigid, SC(x) is exactly the set of rigid
    conjugates, so membership testing degenerates to a rigidity check;
    otherwise a candidate is tested by running its sliding trajectory.
  * Arrows are tested once per orbit, at its canonical representative (the
    member with the smallest (power, factors)).  Transports carry the arrows
    of one member to the arrows of any other, so only the targets of the
    representative's arrows seed new orbits.

Every element keeps a parent pointer and the simple that conjugates its
parent to it: delta for tau, the initial factor for cycling, the arrow
otherwise.  `SCSet.conjugators` multiplies a conjugator from the base braid
out of those links only when an entry is read, so the search doubles as a
conjugacy-certificate finder (`stop_at`) without a multiplication per element.

An arrow s at y is *useful* when y^s lies outside O(y).  The quotient graph
has one vertex per orbit and, for each useful arrow of the orbit's
representative, an unordered edge to the target orbit; it is read off the
orbits and arrows the search records.

The search size is capped (default 10**6, overridable by the B4_SC_CAP
environment variable or a `cap` argument); hitting the cap raises
CapExceededError rather than silently truncating.
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator

from bkl4.engine import (
    GarsideBraid,
    braid_from_factors,
    conjugate,
    tau_braid,
)
from bkl4.simples import (
    COMPLEMENT,
    DIVISORS,
    PROPER_SIMPLES,
    TAU_POWER,
    WEIGHT,
    Simple,
)
from bkl4.sliding import (
    cycling,
    final_factor,
    initial_factor,
    is_rigid,
    slide_to_circuit,
)

__all__ = [
    "DEFAULT_CAP",
    "CapExceededError",
    "NotInCircuitError",
    "SCSet",
    "Orbit",
    "QuotientGraph",
    "resolve_cap",
    "minimal_arrows",
    "compute_sc",
    "quotient_graph",
]

DEFAULT_CAP = 10**6


class CapExceededError(RuntimeError):
    """The sliding-circuit search outgrew the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"sliding circuit set exceeds cap of {cap} elements")
        self.cap = cap


class NotInCircuitError(ValueError):
    """The queried braid is not a periodic point of cyclic sliding."""


def resolve_cap(cap: int | None = None) -> int:
    """The search cap: `cap` if given, else B4_SC_CAP, else DEFAULT_CAP.

    Raises ValueError unless the cap is a non-negative integer.
    """
    source = "cap"
    if cap is None:
        text = os.environ.get("B4_SC_CAP")
        if text is None:
            return DEFAULT_CAP
        source = "B4_SC_CAP"
        try:
            cap = int(text)
        except ValueError:
            raise ValueError(
                f"B4_SC_CAP must be a non-negative integer, not {text!r}"
            ) from None
    if cap < 0:
        raise ValueError(f"{source} must be a non-negative integer, not {cap}")
    return cap


def _sort_key(s: Simple) -> tuple[int, int]:
    return (WEIGHT[s], int(s))


def _braid_key(b: GarsideBraid) -> tuple[int, tuple[Simple, ...]]:
    # Simple is an IntEnum, so factor tuples compare as tuples of indices.
    return (b.power, b.factors)


def _in_circuit(y: GarsideBraid, rigid_class: bool) -> bool:
    if rigid_class:
        return is_rigid(y)
    return slide_to_circuit(y).cycle_start == 0


def _proper_divisors(s: Simple) -> Iterator[Simple]:
    return (t for t in DIVISORS[s] if t not in (Simple.ONE, s))


def minimal_arrows(
    y: GarsideBraid, *, known_rigid: bool | None = None
) -> tuple[Simple, ...]:
    """The minimal arrows at y, sorted by (weight, canonical index).

    Raises NotInCircuitError if y is not in its own sliding circuit set.
    `known_rigid` skips the membership re-check when the caller already knows
    whether the class is rigid (as the SC search does).
    """
    if not y.factors:
        # Delta powers: y^s = y iff tau^p(s) = s, and SC(y) = {y}.
        fixed = [
            s
            for s in (*PROPER_SIMPLES, Simple.DELTA)
            if TAU_POWER[y.power % 4][s] == s
        ]
        fixed_set = set(fixed)
        return tuple(
            sorted(
                (
                    s
                    for s in fixed
                    if not any(t in fixed_set for t in _proper_divisors(s))
                ),
                key=_sort_key,
            )
        )
    if known_rigid is None:
        rigid_class = is_rigid(y)
        if not _in_circuit(y, rigid_class):
            raise NotInCircuitError(f"not in its sliding circuit set: {y!r}")
    else:
        rigid_class = known_rigid
    candidates = sorted(
        (DIVISORS[initial_factor(y)] | DIVISORS[COMPLEMENT[final_factor(y)]])
        - {Simple.ONE},
        key=_sort_key,
    )
    # Candidates are proper simples, and a proper divisor has a smaller
    # weight, so it is tested first: a candidate above an arrow is skipped.
    arrows: list[Simple] = []
    for s in candidates:
        if any(t in arrows for t in _proper_divisors(s)):
            continue
        if _in_circuit(conjugate(y, braid_from_factors(0, (s,))), rigid_class):
            arrows.append(s)
    return tuple(arrows)


@dataclass(frozen=True, slots=True)
class Orbit:
    """One tau/cycling orbit inside an SC set, canonically ordered.

    `arrows` holds the minimal arrows at the representative, each with its
    target element, in (weight, canonical index) order.
    """

    members: tuple[GarsideBraid, ...]
    arrows: tuple[tuple[Simple, GarsideBraid], ...]

    @property
    def representative(self) -> GarsideBraid:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, y: GarsideBraid) -> bool:
        return y in self.members


# element -> (parent element, simple conjugating the parent to it); the
# search start has no parent.
_Links = dict[GarsideBraid, tuple["GarsideBraid | None", Simple]]


class _Conjugators(Mapping):
    """Read-only {element: z with base^z = element}, in search order.

    An entry is built when it is read, from the nearest entry already built
    (at first only the search start's): that conjugator times the edge
    simples down the parent chain, normalized once.
    """

    __slots__ = ("_links", "_built")

    def __init__(self, links: _Links, start: GarsideBraid, z: GarsideBraid) -> None:
        self._links = links
        self._built = {start: z}

    def __getitem__(self, element: GarsideBraid) -> GarsideBraid:
        built = self._built
        path: list[Simple] = []
        node = element
        while node not in built:
            node, edge = self._links[node]
            path.append(edge)
        z = built[node]
        if path:
            path.reverse()
            z = built[element] = braid_from_factors(z.power, z.factors + tuple(path))
        return z

    def __contains__(self, element: object) -> bool:
        return element in self._links

    def __iter__(self) -> Iterator[GarsideBraid]:
        return iter(self._links)

    def __len__(self) -> int:
        return len(self._links)


@dataclass(frozen=True, eq=False, slots=True)
class SCSet:
    """The sliding circuit set of `base`, with conjugators from `base`.

    conjugators[e] is a braid z with base^z = e, built when it is read; the
    iteration order of `conjugators` is the search order (representative
    first).  `orbits` lists the tau/cycling orbits sorted by representative.
    `complete` is False when the search stopped early at `stop_at`; `orbits`
    then holds only the orbits closed by that point.
    """

    base: GarsideBraid
    representative: GarsideBraid
    conjugators: Mapping[GarsideBraid, GarsideBraid]
    rigid: bool
    orbits: tuple[Orbit, ...]
    complete: bool = True

    @property
    def elements(self) -> tuple[GarsideBraid, ...]:
        return tuple(self.conjugators)

    @property
    def size(self) -> int:
        return len(self.conjugators)

    def __contains__(self, y: GarsideBraid) -> bool:
        return y in self.conjugators

    def __iter__(self) -> Iterator[GarsideBraid]:
        return iter(self.conjugators)


def compute_sc(
    x: GarsideBraid,
    *,
    cap: int | None = None,
    stop_at: GarsideBraid | None = None,
) -> SCSet:
    """Compute SC(x) orbit by orbit from its circuit representative.

    If `stop_at` is given, the search returns as soon as that element is
    found, with `complete=False`.  Raises CapExceededError when the set would
    exceed the cap.
    """
    cap = resolve_cap(cap)
    if cap == 0:
        raise CapExceededError(cap)  # SC(x) is never empty
    entry = slide_to_circuit(x)
    start = entry.representative
    rigid_class = is_rigid(start)
    links: _Links = {start: (None, Simple.ONE)}
    orbits: list[Orbit] = []

    def result(complete: bool) -> SCSet:
        orbits.sort(key=lambda o: _braid_key(o.representative))
        return SCSet(
            x,
            start,
            _Conjugators(links, start, entry.accumulated_conjugator),
            rigid_class,
            tuple(orbits),
            complete,
        )

    def found(element: GarsideBraid, parent: GarsideBraid, edge: Simple) -> bool:
        """Record a new element; True if it is the one searched for."""
        if len(links) >= cap:
            raise CapExceededError(cap)
        links[element] = (parent, edge)
        return element == stop_at

    if start == stop_at:
        return result(False)
    seeds = [start]
    open_seeds = {start}  # seeds whose orbit is not closed yet
    for seed in seeds:
        if seed not in open_seeds:
            continue  # absorbed by an orbit closed since it was found
        open_seeds.remove(seed)
        members = [seed]
        for y in members:
            if not y.factors:
                break  # a delta power is fixed by tau and cycling
            for neighbor, edge in (
                (tau_braid(y), Simple.DELTA),
                (cycling(y), initial_factor(y)),
            ):
                if neighbor in links:
                    if neighbor in open_seeds:
                        open_seeds.remove(neighbor)
                        members.append(neighbor)
                    continue
                if found(neighbor, y, edge):
                    return result(False)
                members.append(neighbor)
        members.sort(key=_braid_key)
        rep = members[0]
        arrows = tuple(
            (s, conjugate(rep, braid_from_factors(0, (s,))))
            for s in minimal_arrows(rep, known_rigid=rigid_class)
        )
        orbits.append(Orbit(tuple(members), arrows))
        for s, target in arrows:
            if target in links:
                continue
            if found(target, rep, s):
                return result(False)
            seeds.append(target)
            open_seeds.add(target)
    return result(True)


@dataclass(frozen=True, slots=True)
class QuotientGraph:
    """The orbit quotient of the sliding circuit graph.

    Vertices are orbits; for every useful arrow s of an orbit representative
    (one whose target lies in a different orbit) there is an unordered edge,
    labeled by the arrow names that induce it.
    """

    orbits: tuple[Orbit, ...]
    edges: tuple[tuple[int, int], ...]
    edge_labels: dict[tuple[int, int], tuple[Simple, ...]] = field(repr=False)

    @property
    def vertex_count(self) -> int:
        return len(self.orbits)

    def is_path(self) -> bool:
        """Whether the graph is a simple path through all vertices."""
        n = len(self.orbits)
        if n == 1:
            return not self.edges
        if len(self.edges) != n - 1:
            return False
        degree = [0] * n
        for i, j in self.edges:
            degree[i] += 1
            degree[j] += 1
        if sorted(degree)[:2] != [1, 1] or any(d > 2 for d in degree):
            return False
        # n-1 edges, max degree 2, exactly two endpoints: connected iff a path.
        seen = {0}
        frontier = [0]
        adjacency: dict[int, list[int]] = {i: [] for i in range(n)}
        for i, j in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        while frontier:
            v = frontier.pop()
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == n


def quotient_graph(sc: SCSet) -> QuotientGraph:
    """The orbit quotient of a fully computed SC set, from its recorded
    orbits and arrows.  Raises ValueError on a search stopped early."""
    if not sc.complete:
        raise ValueError("the quotient graph needs a complete SC set")
    targets = {target for orbit in sc.orbits for _, target in orbit.arrows}
    index_of = {
        member: i
        for i, orbit in enumerate(sc.orbits)
        for member in orbit.members
        if member in targets
    }
    labels: dict[tuple[int, int], set[Simple]] = {}
    for i, orbit in enumerate(sc.orbits):
        for s, target in orbit.arrows:
            j = index_of[target]
            if j == i:
                continue  # not a useful arrow
            labels.setdefault((min(i, j), max(i, j)), set()).add(s)
    return QuotientGraph(
        orbits=sc.orbits,
        edges=tuple(sorted(labels)),
        edge_labels={k: tuple(sorted(v, key=_sort_key)) for k, v in labels.items()},
    )
