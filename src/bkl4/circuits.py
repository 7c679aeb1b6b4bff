"""
circuits: the set of sliding circuits SC(x), its orbit structure, and the
quotient graph.

SC(x) is the set of conjugates of x that lie on a circuit of cyclic sliding
(the periodic points of s inside the conjugacy class); it is a finite,
complete conjugacy-class invariant.  It lies in the ultra summit set, so all
of its elements have the same power of delta and the same canonical length,
and tau (conjugation by delta) and cycling permute it.  Their orbits
O(y) = {tau^k(c^j(y))} partition it.  This module computes SC(x) one orbit at
a time, starting from the circuit representative of x (from the sliding walk
of x), at the shared power:

  * Each newly found element seeds an orbit: the cycling walk from the seed
    back to itself and its twists by tau, tau^2 and tau^3.  tau commutes
    with cycling, so each twist is the walk of tau^k(seed): either one
    already in the orbit or disjoint from it.  An orbit is the m twists of
    its walk that are new, spelled as bytes (a factor is an int below 14,
    so each byte is one) and joined by a byte no simple uses into one
    haystack for substring search; it has m*d members, d the walk's
    length.  The set is one dict {key: orbit}, the key being the orbit's
    least member.  An arrow target is looked for first in the orbit it
    leaves and in that orbit's parent, and only the others are walked and
    looked up by their key.  Members, elements and conjugators read
    members off the haystack: a member's position j in the walk is a
    `bytes.find`.  The two kinds of class differ only in how the walk is
    spelled and the key found.
  * In a rigid class (see below) no cycling step is taken.  Cycling a rigid
    element with factors x1 ... xr moves x1 to the end as u(x1),
    u = tau^-p, and the result is rigid again.  So the walk from a seed f
    is the set of length-r windows of the cyclic word
    W = f . u(f) . u^2(f) . u^3(f) (tau^4 = 1).  Each letter of W is u of
    the one r places before it, so a window fixes all of W: the walk has
    d members, d the smallest rotation period of W, and two twists of W
    either are rotations of each other or share no window.  Each twist is
    cut to the d + r - 1 bytes of W . W where its windows start; m*d is at
    most 4r, so the orbit takes fewer than 8r bytes.  Every substring of at
    most r letters of a cut word is a prefix of a window, so the key's
    prefix grows by the least next letter, each found by substring search,
    until it starts few windows, and only those are compared (the
    least-rotation problem of Booth, 1980).
  * In any other class cycling renormalizes, so the walk is cycled step by
    step and its members are spelled out one after another, joined by the
    same byte.  The key is the least of them.  A target that
    lies in a known orbit other than the one it leaves and that one's
    parent costs a repeat walk, which the key then finds in the set.
  * An *arrow* at y in SC(x) is a nontrivial simple s with y^s in SC(x); it is
    *minimal* when the only prefixes t of s with y^t in SC(x) are 1 and s.
    Minimal arrows are always prefixes of iota(y) or complement(phi(y)), so
    the candidate set is tiny: one table, indexed by that pair of simples,
    lists the candidates in canonical order, which is weight-then-index
    order, and one with a smaller
    arrow among its prefixes is skipped.  One kernel, `_arrows`, tests them
    for the search and `circuit_graph`, on (power, factors) tuples: each
    candidate s is one conjugation of the factors by s (a left and a right
    RENORM pass, see `bkl4.engine`), and no braid object is built for it.
    A candidate above an arrow found is skipped by one test of a bitmask of
    the found arrows' multiples.  The candidate iota(y) is not tested and
    its target is not built: it is the cycling c(y), and cycling maps SC(x)
    and each orbit to itself (Gebhardt and Gonzalez-Meneses, Math. Z. 2010),
    so the search records that arrow as leading to the orbit it leaves, and
    only `circuit_graph` builds c(y), with one right pass.  If
    some element of SC(x) is rigid, SC(x) is exactly the set of rigid
    conjugates, so membership testing degenerates to a rigidity check on
    the target's factors;
    otherwise a candidate is tested by sliding it, with a memo kept for the
    whole search: the set of (power, factors) tuples of the whole sliding
    circuits met so far (the start's circuit, from the walk that finds the
    start, and the circuit closed by every later walk).  A candidate on a
    known circuit is answered at once, and a walk that reaches one at step 1
    or later shows that the candidate is not in SC(x): a periodic point's
    walk is its own circuit, and as only whole circuits are recorded, that
    circuit would already be known with the candidate in it.
  * Arrows are tested once per orbit, at its canonical representative (the
    member with the smallest factors, read off the orbit's key).  Cycling
    and tau carry the arrows of one member to the arrows of any other, so
    only the targets of the representative's arrows seed new orbits.  A
    target with another power than the set's is an error, not a new
    element.

Conjugators are kept per orbit: the orbit's seed, the orbit whose
representative leads to it and the arrow between them (the search start
gets its conjugator from its sliding walk).  A member's conjugator is built
when it is asked for: the seed's conjugator, times the initial factors of
the first j cycling steps from the seed, times delta^k, for the smallest
(j, k) with tau^k(c^j(seed)) the member.  One generator, `_orbits`, yields
the orbits as the search closes them, so the search doubles as a
conjugacy-certificate finder: `compute_sc` reads every orbit, after which
`SCSet.conjugators()` builds every member's conjugator in search order,
and the solver's `_find_conjugator` reads SC(x) and SC(y) in turn, each
for the other's circuit representative, and stops at the first orbit that
holds its target or the first set that is complete without it.
Apart from the sliding walk it starts from, the search builds no braid
object: a braid is built only for an element or a conjugator that is asked
for.

An arrow s at y is *useful* when y^s lies outside O(y).  The quotient graph
has one vertex per orbit and, for each useful arrow of the orbit's
representative, an unordered edge to the target orbit; it is read off the
orbits and arrows the search records.  `circuit_graph` gives the arrows at
every element: tau is an automorphism of the simple lattice that preserves
SC(x), so the arrows at tau^k(y) are the twists of the arrows at y.

The search size is capped by a `cap` argument (default 10**6 elements).
The search raises CapExceededError, rather than silently truncating, once
the orbits closed so far hold more than `cap` elements, or once a cycling
walk outgrows the cap, before the walk's twists are built.  A walk is
bounded by the whole cap, not by what is left of it: a repeat walk of a
known orbit may run after the set is full.
The solver's two searches are capped one by one, and it raises only once
both have outgrown the cap.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator
from itertools import chain, cycle

from bkl4.engine import (
    Factors,
    GarsideBraid,
    _Record,
    _conjugate_factors,
    _set,
    braid_from_factors,
    invert,
    multiply,
    tau_braid,
)
from bkl4.simples import (
    _DELTA,
    _ONE,
    COMPLEMENT,
    DIVISORS,
    PROPER_SIMPLES,
    SIMPLE_NAMES,
    TAU_POWER,
)
from bkl4.sliding import (
    SlidingTrajectory,
    _cycle_factors,
    _is_rigid,
    _slide,
    is_rigid,
    slide_to_circuit,
)

__all__ = [
    "DEFAULT_CAP",
    "CapExceededError",
    "SCSet",
    "Orbit",
    "QuotientGraph",
    "compute_sc",
    "quotient_graph",
    "circuit_graph",
]

DEFAULT_CAP = 10**6

# _TWIST[k] translates bytes of simples by tau^k.
_TWIST = tuple(bytes(row) + bytes(range(len(row), 256)) for row in TAU_POWER)
# The letters of a rigid word, in byte order: each proper simple as one byte.
_LETTERS = tuple(bytes((s,)) for s in PROPER_SIMPLES)


class CapExceededError(RuntimeError):
    """The sliding-circuit search outgrew the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"sliding circuit set exceeds cap of {cap} elements")
        self.cap = cap


def _membership(
    circuits: Iterable[tuple[int, Factors]],
) -> Callable[[int, Factors], bool]:
    """SC membership in a class with no rigid element, memoized.

    Elements are (power, factors) tuples, and `circuits` must be a union of
    whole sliding circuits of the class.  The returned test
    `member(p, factors)` answers at once for an element of a known circuit;
    otherwise it slides, and stops with False as soon as a step lands on a
    known circuit.  A walk that comes back to a step it took adds the
    circuit it closes to the known ones.
    """
    inside = set(circuits)

    def member(p: int, factors: Factors) -> bool:
        y = (p, factors)
        if y in inside:
            return True
        seen = {y: 0}  # the walk, in order
        while True:
            p, factors, _ = _slide(*y)
            y = (p, factors)
            if y in inside:
                return False
            hit = seen.get(y)
            if hit is not None:
                inside.update(list(seen)[hit:])
                return hit == 0
            seen[y] = len(seen)

    return member


def _raw(braids: Iterable[GarsideBraid]) -> Iterator[tuple[int, Factors]]:
    """Braids as the (power, factors) tuples `_membership` takes."""
    return ((y.power, y.factors) for y in braids)


# _MULTIPLES[s] has bit t set for each simple t that s divides.
_MULTIPLES = tuple(
    sum(1 << t for t, d in enumerate(DIVISORS) if s in d) for s in range(len(DIVISORS))
)

# _CANDIDATES[i][c]: the proper simples that divide i or c, in canonical order.
# The arrow candidates at y are those of iota(y) and complement(phi(y)).
# Canonical order is (weight, index) order, the order arrows are listed and
# tested in: a proper divisor has a smaller weight, so it comes first.
_CANDIDATES = tuple(
    tuple(
        tuple(s for s in PROPER_SIMPLES if s in DIVISORS[i] or s in DIVISORS[c])
        for c in range(len(DIVISORS))
    )
    for i in range(len(DIVISORS))
)


def _arrows(
    power: int, factors: Factors, member: Callable[[int, Factors], bool]
) -> list[tuple[int, Factors | None]]:
    """The minimal arrows at y = delta^power . factors, an element of SC(y),
    each with the factors of its target y^s, sorted by (weight, canonical
    index); `member(p, f)` tests delta^p . f for membership in SC(y).

    The candidates are the nontrivial prefixes of iota(y) and of
    complement(phi(y)), and one above an arrow found is skipped.  The
    candidate iota(y) needs no test, and its target is not built: it is the
    cycling c(y), and cycling maps SC(y), and each of its orbits, to itself,
    so that arrow comes with the target None.  A target in SC(y) with
    another power than y's is an error (RuntimeError).
    """
    arrows: list[tuple[int, Factors | None]] = []
    blocked = 0  # the multiples of the arrows found, one bit per simple
    if not factors:
        # Delta powers: y^s = y iff tau^p(s) = s, and SC(y) = {y}.
        for s in (*PROPER_SIMPLES, _DELTA):
            if TAU_POWER[power % 4][s] == s and not blocked >> s & 1:
                arrows.append((s, factors))
                blocked |= _MULTIPLES[s]
        return arrows
    iota = TAU_POWER[-power % 4][factors[0]]
    for s in _CANDIDATES[iota][COMPLEMENT[factors[-1]]]:
        if blocked >> s & 1:
            continue
        target = None
        if s != iota:
            p, target = _conjugate_factors(power, factors, s)
            if not member(p, target):
                continue
            if p != power:
                y = GarsideBraid(power, factors)
                raise _power_error(s, y, GarsideBraid(p, target))
        arrows.append((s, target))
        blocked |= _MULTIPLES[s]
    return arrows


def _power_error(s: int, y: GarsideBraid, target: GarsideBraid) -> RuntimeError:
    name = SIMPLE_NAMES[s]
    return RuntimeError(f"arrow {name} at {y!r} leaves the power of SC: {target!r}")


def _cyclic_word(power: int, seed: bytes) -> tuple[bytes, int]:
    """The cyclic word W = f . u(f) . u^2(f) . u^3(f) of a rigid seed f at
    `power` (u = tau^-power), cut to the first d + r - 1 bytes of W . W,
    and its smallest rotation period d: the cut holds the length-r windows
    that start before d, and nothing else."""
    u = -power % 4
    # Spelled out: a generator or a comprehension over range(4) costs about
    # 1 us more per orbit.
    word = b"".join(
        [
            seed,
            seed.translate(_TWIST[u]),
            seed.translate(_TWIST[2 * u % 4]),
            seed.translate(_TWIST[3 * u % 4]),
        ]
    )
    doubled = word + word
    d = doubled.find(word, 1)
    return doubled[: d + len(seed) - 1], d


# Narrowing stops once the prefix occurs at most this many times; the
# windows it starts are then compared.
_FEW = 16


def _least_window(haystack: bytes, r: int, d: int) -> bytes:
    """The least length-r window that starts before d in any word of
    `haystack` (cut words joined by 0xFF, see `Orbit`).

    Each substring of a word of length r or less is a prefix of a window, so
    the least window starts with the least letter, then with the least
    letter that follows it in the haystack, and so on: the prefix grows one
    letter at a time until it occurs at most `_FEW` times, and the windows
    that start with it are compared.
    """
    prefix = next(filter(haystack.__contains__, _LETTERS))
    while haystack.count(prefix) > _FEW:
        # The prefix occurs more than once, so it is shorter than r.
        prefix = next(filter(haystack.__contains__, map(prefix.__add__, _LETTERS)))
    windows = []
    for start in range(0, len(haystack), d + r):  # where each word starts
        j = start - 1
        while (j := haystack.find(prefix, j + 1, start + d + len(prefix) - 1)) >= 0:
            windows.append(haystack[j : j + r])
    return min(windows)


class Orbit:
    """One tau/cycling orbit inside an SC set: the m tau twists of the
    cycling walk from its seed that are new, held as bytes (a factor is an
    int below 14, so each is one byte).

    `members` lists its elements in canonical order (the representative
    first), built when it is read, and `size` counts them.  The orbit keeps
    the minimal arrows at its representative and the keys of the orbits they
    lead to, which the quotient graph reads.

    The walk is spelled as one word, and `_haystack` holds its m twists,
    tau^0 first, joined by 0xFF, a byte no simple uses.  c^j(seed) starts at
    byte j * `_stride` of the first word, for j below the walk's length d
    (`_period`), and its initial factor is u of that byte, u = tau^-p:
      * in a rigid class the word is the seed's cyclic word W, cut to the
        d + r - 1 bytes of W . W where its length-r windows start (see the
        module docstring), and the stride is 1.  Every length-r substring of
        a cut word is a member.
      * in any other class the word is the walk's members joined by 0xFF,
        and the stride is r + 1.  0xFF then recurs every r + 1 bytes of the
        haystack, so a length-r substring that holds no 0xFF is exactly one
        member.
    So membership, the m test and a member's position are substring
    searches.  The key is the least member: found by narrowing in a rigid
    class (`_least_window`), and the least of the members spelled out in
    any other.
    """

    __slots__ = (
        "_labels",
        "_targets",
        "_power",
        "_key",
        "_parent",
        "_arrow",
        "_walk_conjugators",
        "_haystack",
        "_period",
        "_stride",
        "size",
    )

    def __init__(
        self,
        power: int,
        seed: bytes,
        parent: Orbit | None,
        arrow: int,
        rigid: bool,
        cap: int,
        seed_conjugator: GarsideBraid | None = None,
    ) -> None:
        """Walk the orbit from `seed`; raise CapExceededError as soon as a
        cycling walk outgrows `cap` members, before its twists are built."""
        # The minimal arrows at the representative, in (weight, canonical
        # index) order.
        self._labels: tuple[int, ...] = ()
        # The key of the orbit each arrow leads to, in the order of `_labels`.
        # Keys, not orbits: a reference to an orbit would close a cycle
        # (to itself or back to the parent), and orbits in cycles outlive
        # their search until the cyclic garbage collector runs.
        self._targets: list[bytes] = []
        self._power = power
        # The seed is parent.representative^arrow; without a parent it is the
        # search start, whose conjugator is given.
        self._parent = parent
        self._arrow = arrow
        # {j: conjugator of c^j(seed)} for the walk positions built so far.
        self._walk_conjugators: dict[int, GarsideBraid] = {}
        if seed_conjugator is not None:
            self._walk_conjugators[0] = seed_conjugator
        if rigid:
            word, d = _cyclic_word(power, seed)
            self._stride = 1
        else:
            # SC lies in the ultra summit set, where cycling is periodic, so
            # the walk comes back to the seed.
            walk = [seed]
            if seed:
                start = tuple(seed)
                extra, f = _cycle_factors(power, start)
                while f != start:
                    if extra:
                        raise RuntimeError(f"cycling left the super summit set: {f!r}")
                    if len(walk) >= cap:
                        raise CapExceededError(cap)
                    walk.append(bytes(f))
                    extra, f = _cycle_factors(power, f)
            word, d = b"\xff".join(walk), len(walk)
            self._stride = len(seed) + 1
        # tau has order 4 and commutes with cycling, so each twist of the walk
        # is the walk of a twist of the seed: if tau(seed) is on the walk, so
        # are all twists; else if tau^2(seed) is, tau^3(seed) is on the walk
        # of tau(seed); else the four twists are disjoint.
        if seed.translate(_TWIST[1]) in word:
            m = 1
        elif seed.translate(_TWIST[2]) in word:
            m = 2
        else:
            m = 4
        self._haystack = b"\xff".join([word.translate(t) for t in _TWIST[:m]])
        self._period = d
        self.size = m * d
        if rigid:
            self._key = _least_window(self._haystack, len(seed), d)
        else:
            self._key = min(self._haystack.split(b"\xff"))

    @property
    def members(self) -> tuple[GarsideBraid, ...]:
        p = self._power
        return tuple(GarsideBraid(p, tuple(m)) for m in sorted(self._walk_order()))

    @property
    def representative(self) -> GarsideBraid:
        return GarsideBraid(self._power, tuple(self._key))

    def _holds(self, member: bytes) -> bool:
        return member in self._haystack

    def _walk_order(self) -> Iterator[bytes]:
        """The members word by word, each word in walk order."""
        haystack, r = self._haystack, len(self._key)
        starts = range(0, self._period * self._stride, self._stride)
        width = starts[-1] + r + 1  # a word and the byte after it
        return (
            haystack[w + j : w + j + r]
            for w in range(0, len(haystack) + 1, width)
            for j in starts
        )

    def _position(self, member: bytes) -> tuple[int, int]:
        """The smallest (j, k) with tau^k(c^j(seed)) the member."""
        step = self._stride
        word = self._haystack[: (self._period - 1) * step + len(member)]
        positions = []
        for k, twist in enumerate(_TWIST):
            j = word.translate(twist).find(member)
            if j >= 0:
                positions.append((j // step, k))
        return min(positions)

    def _iotas(self, i: int, j: int) -> bytes:
        """The initial factors iota(c^h(seed)) for i <= h < j."""
        step = self._stride
        firsts = self._haystack[i * step : j * step : step]
        return firsts.translate(_TWIST[-self._power % 4])

    def _conjugator(self, member: bytes) -> GarsideBraid:
        """z with base^z the member."""
        j, k = self._position(member)
        z = self._walk_conjugator(j)
        return multiply(z, GarsideBraid(k)) if k else z

    def _walk_conjugator(self, j: int) -> GarsideBraid:
        """The conjugator of c^j(seed), kept once built: the one at j - 1 if
        that is built (as when `SCSet.conjugators()` walks the orbit), else the
        seed's, times the initial factors of the steps in between."""
        built = self._walk_conjugators
        if not built:
            # Build the seed conjugators down the chain of orbits from the
            # nearest one that has it.
            chain = []
            orbit = self
            while not orbit._walk_conjugators:
                chain.append(orbit)
                orbit = orbit._parent
            for orbit in reversed(chain):
                parent = orbit._parent
                z = parent._conjugator(parent._key)
                orbit._walk_conjugators[0] = multiply(
                    z, GarsideBraid(0, (orbit._arrow,))
                )
        z = built.get(j)
        if z is None:
            i = j - 1 if j - 1 in built else 0
            z = built[i]
            z = built[j] = multiply(z, braid_from_factors(0, self._iotas(i, j)))
        return z


class SCSet(_Record):
    """The sliding circuit set of `base`, with conjugators from `base`.

    `elements` lists the set in search order (representative first), and
    `conjugators()` maps each element e, in the same order, to a braid z
    with base^z = e.  The set keeps its orbits as bytes, so both build
    their braids when they are called, as do the orbits' `members`.
    `orbits` lists the tau/cycling orbits sorted by representative.  Sets
    compare by identity.
    """

    __slots__ = ("base", "representative", "size", "rigid", "orbits", "_found")

    def __init__(
        self,
        base: GarsideBraid,
        representative: GarsideBraid,
        size: int,
        rigid: bool,
        orbits: tuple[Orbit, ...],
        _found: tuple[Orbit, ...],
    ) -> None:
        _set(self, "base", base)
        _set(self, "representative", representative)
        _set(self, "size", size)
        _set(self, "rigid", rigid)
        _set(self, "orbits", orbits)
        # The orbits in the order the search found them.
        _set(self, "_found", _found)

    @property
    def elements(self) -> tuple[GarsideBraid, ...]:
        p = self.representative.power
        return tuple(
            GarsideBraid(p, tuple(m))
            for orbit in self._found
            for m in orbit._walk_order()
        )

    def conjugators(self) -> dict[GarsideBraid, GarsideBraid]:
        """A new dict {element: z with base^z = element}, in search order."""
        p = self.representative.power
        return {
            GarsideBraid(p, tuple(m)): orbit._conjugator(m)
            for orbit in self._found
            for m in orbit._walk_order()
        }


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise ValueError(f"cap must be a non-negative integer, not {cap}")


def _orbits(entry: SlidingTrajectory, cap: int) -> Iterator[Orbit]:
    """The orbits of SC(x), searched from the sliding walk `entry` of x,
    each yielded as soon as it is closed, in search order; an orbit's arrows
    are tested after it is yielded.  Raises CapExceededError when the set
    would exceed `cap` elements.
    """
    start = entry.representative
    power = start.power
    index: dict[bytes, Orbit] = {}  # {key: orbit}
    orbits: list[Orbit] = []  # closed orbits, in the order found
    size = 0
    rigid = is_rigid(start)
    member = _is_rigid
    if not rigid:
        member = _membership(_raw(entry.steps[entry.cycle_start :]))

    def close(orbit: Orbit) -> Orbit:
        """Record a new orbit."""
        nonlocal size
        size += orbit.size
        if size > cap:
            raise CapExceededError(cap)
        index[orbit._key] = orbit
        orbits.append(orbit)
        return orbit

    z = entry.accumulated_conjugator
    yield close(Orbit(power, bytes(start.factors), None, _ONE, rigid, cap, z))
    for orbit in orbits:  # grows while the search runs
        arrows = _arrows(power, tuple(orbit._key), member)
        orbit._labels = tuple(s for s, _ in arrows)
        for s, target in arrows:
            # iota's target (None) lies in the orbit it leaves; most others lie
            # there or in its parent, which a substring search finds.
            parent = orbit._parent
            if target is None or orbit._holds(seed := bytes(target)):
                orbit._targets.append(orbit._key)
            elif parent is not None and parent._holds(seed):
                orbit._targets.append(parent._key)
            else:
                new = Orbit(power, seed, orbit, s, rigid, cap)
                known = index.get(new._key)
                if known is None:
                    known = close(new)
                    yield known
                orbit._targets.append(known._key)


def compute_sc(x: GarsideBraid, *, cap: int = DEFAULT_CAP) -> SCSet:
    """Compute SC(x) orbit by orbit from its circuit representative.

    Raises CapExceededError when the set would exceed `cap` elements, and
    ValueError for a negative `cap`.
    """
    _check_cap(cap)
    entry = slide_to_circuit(x)
    found = tuple(_orbits(entry, cap))
    start = entry.representative
    return SCSet(
        x,
        start,
        sum(orbit.size for orbit in found),
        is_rigid(start),
        tuple(sorted(found, key=lambda o: o._key)),
        found,
    )


def _find_conjugator(
    tx: SlidingTrajectory, ty: SlidingTrajectory, cap: int
) -> GarsideBraid | None:
    """z with y^z = x, x and y the starts of the sliding walks tx and ty;
    None if SC(x) and SC(y) are disjoint, so that x and y are not conjugate.

    All elements of an SC set share the power and the canonical length, and
    in a class with a rigid element SC is the set of its rigid conjugates,
    so circuit representatives rx and ry that differ in any of the three
    decide before any orbit is closed.  Otherwise two searches run in turn,
    one orbit at a time: SC(x) for ry, and SC(y) for rx one orbit behind, so
    that a one-orbit SC(x) is complete before SC(y)'s search starts.  The
    first orbit that holds its target decides, and so does the first set
    that is complete without it.  Each search is capped on its own: one that
    outgrows `cap` stops, and CapExceededError is raised once both have.
    Raises ValueError for a negative `cap`.
    """
    _check_cap(cap)
    rx, ry = tx.representative, ty.representative
    rigid = is_rigid(rx)
    if (rx.power, len(rx.factors), rigid) != (ry.power, len(ry.factors), is_rigid(ry)):
        return None
    targets = (bytes(ry.factors), bytes(rx.factors))
    searches = [_orbits(tx, cap), _orbits(ty, cap)]
    for side in chain((0,), cycle((0, 1))):  # x, x, y, x, y, ...
        search = searches[side]
        if search is None:  # this side outgrew the cap
            continue
        try:
            orbit = next(search, None)
        except CapExceededError:
            if searches[1 - side] is None:
                raise
            searches[side] = None
            continue
        if orbit is None:
            return None
        if orbit._holds(targets[side]):
            break
    # Dropping the searches frees their indexes and membership memos before
    # the conjugator is built, so that the two do not add up.
    del searches, search
    g = orbit._conjugator(targets[side])
    if side == 0:  # x^g = ry = y^zy, so x = y^(zy g^-1)
        return multiply(ty.accumulated_conjugator, invert(g))
    # y^g = rx = x^zx, so x = y^(g zx^-1)
    return multiply(g, invert(tx.accumulated_conjugator))


def circuit_graph(
    sc: SCSet,
) -> dict[GarsideBraid, tuple[tuple[int, GarsideBraid], ...]]:
    """The sliding circuit graph of an SC set: every element, in
    `sc.elements` order, with its minimal arrows and their targets, sorted
    by (weight, canonical index).

    Arrows are tested at one element of each tau class; tau is an
    automorphism of the simple lattice that preserves SC, so the arrows at
    tau^k(y) are the twists of those at y, re-sorted.  The target of
    iota(y), which the arrow kernel leaves unbuilt, is one cycling step,
    and one with another power than y's is an error (RuntimeError).
    """
    elements = sc.elements
    # SC is the union of its sliding circuits.
    member = _is_rigid if sc.rigid else _membership(_raw(elements))
    arrows_at: dict[GarsideBraid, tuple[tuple[int, GarsideBraid], ...]] = {}
    for y in elements:
        if y in arrows_at:
            continue
        p = y.power
        arrows = _arrows(p, y.factors, member)
        for i, (s, t) in enumerate(arrows):
            if t is None:  # iota(y): the target is the cycling c(y)
                extra, t = _cycle_factors(p, y.factors)
                if extra:
                    raise _power_error(s, y, GarsideBraid(p + extra, t))
                arrows[i] = (s, t)
        for k, twist in enumerate(TAU_POWER):
            image = tau_braid(y, k)
            if image not in arrows_at:
                twisted = (
                    (twist[s], GarsideBraid(p, tuple(map(twist.__getitem__, t))))
                    for s, t in arrows
                )
                arrows_at[image] = tuple(
                    sorted(twisted, key=lambda arrow: arrow[0])
                )
    return {y: arrows_at[y] for y in elements}


class QuotientGraph(_Record):
    """The orbit quotient of the sliding circuit graph.

    Vertices are orbits; for every useful arrow s of an orbit representative
    (one whose target lies in a different orbit) there is an unordered edge,
    labeled by the arrow names that induce it.
    """

    __slots__ = ("orbits", "edges", "edge_labels")

    def __init__(
        self,
        orbits: tuple[Orbit, ...],
        edges: tuple[tuple[int, int], ...],
        edge_labels: dict[tuple[int, int], tuple[int, ...]],
    ) -> None:
        _set(self, "orbits", orbits)
        _set(self, "edges", edges)
        _set(self, "edge_labels", edge_labels)

    @property
    def vertex_count(self) -> int:
        return len(self.orbits)

    def is_path(self) -> bool:
        """Whether the graph is a simple path through all vertices: a tree
        (n - 1 edges and connected) whose degrees are at most 2."""
        n = len(self.orbits)
        if len(self.edges) != n - 1:
            return False
        adjacency: list[list[int]] = [[] for _ in range(n)]
        for i, j in self.edges:
            adjacency[i].append(j)
            adjacency[j].append(i)
        if any(len(neighbors) > 2 for neighbors in adjacency):
            return False
        seen = {0}
        frontier = [0]
        while frontier:
            for w in adjacency[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return len(seen) == n


def quotient_graph(sc: SCSet) -> QuotientGraph:
    """The orbit quotient of an SC set, from its recorded orbits and
    arrows."""
    position = {orbit._key: i for i, orbit in enumerate(sc.orbits)}
    labels: dict[tuple[int, int], int] = {}
    for i, orbit in enumerate(sc.orbits):
        for s, target in zip(orbit._labels, orbit._targets):
            j = position[target]
            if j != i:  # a useful arrow
                edge = (i, j) if i < j else (j, i)
                labels[edge] = labels.get(edge, 0) | 1 << s
    return QuotientGraph(
        orbits=sc.orbits,
        edges=tuple(sorted(labels)),
        edge_labels={
            e: tuple(s for s in PROPER_SIMPLES if b >> s & 1) for e, b in labels.items()
        },
    )
