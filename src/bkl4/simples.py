"""
simples: the lattice of the 14 simple elements of the dual (Birman-Ko-Lee)
Garside structure on the 4-strand braid group B4.

The dual positive monoid is generated by the six band generators a_{p,q}
(1 <= p < q <= 4), one for each chord between punctures p and q of the disk.
With the punctures at the four corners of a square, each atom is drawn as its
chord, which gives the six pictorial letters used throughout:

    a12 = S (south side)    a23 = W (west side)     a34 = N (north side)
    a14 = E (east side)     a13 = M (main diagonal) a24 = A (anti diagonal)

The atoms satisfy six relation cells, each identifying the two-letter words
that spell the same weight-2 element:

    c123 = SW = WM = MS         c234 = WN = NA = AW
    c134 = NE = EM = MN         c124 = ES = SA = AE
    p12-34 = NS = SN            p14-23 = EW = WE

The Garside element is delta = a12.a23.a34 (= sigma1 sigma2 sigma3), and the
divisors of delta -- the simple elements -- are exactly

    1, the 6 atoms, the 4 triangles c.., the 2 chord pairs p.., delta.

All relations are length-preserving, so the letter count of a positive word is
an invariant, the weight: lambda(atom) = 1, lambda(delta) = 3.

`Simple`, an IntEnum, names the 14 values 0..13 in canonical order.  The
tables below hold plain ints equal to the members, as the bootstrap builds
them, and every other module computes on those ints: a braid's factors are
ints.  CPython's specialized tuple subscript takes only exact ints, so a table
indexed by an int reads in about half the time it takes with a member (Python
3.11), and the passes' `is` exits (see `bkl4.engine`) fire on the ints the
tables hand back.  A member passed in compares, hashes and indexes as its
value.  The tables, indexed by simples:

    SIMPLE_NAMES[s]      the canonical name: '1', 'a12', ..., 'delta'
    SPELLING[s]          the canonical atom word of s, of length WEIGHT[s]
    WEIGHT[s]            lambda(s): 0, 1 (atoms), 2 (triangles, pairs), 3
    COMPLEMENT[s]        the right complement s^-1 delta
    TAU_POWER[k][s]      tau^k(s) for k = 0..3 (index with k % 4)
    DIVISORS[s]          the left divisors (prefixes) of s
    MEET[a][b]           the greatest common divisor of a and b
    COMPOSE[a][b]        a*b if the product is simple, else None
    LQUOT[t][v]          t^-1 v if t divides v, else None
    LEFT_WEIGHTED[a][b]  whether a.b is left-weighted: MEET[COMPLEMENT[a]][b] = 1
    RENORM[u][v]         one local sliding step on (u, v); see `_bootstrap`;
                         its fixed points are the left-weighted pairs

The tables are bootstrapped at import time by closing positive words of length
<= 3 under the relation cells (exhaustive and exact at this size), and a
startup self-check tests the structural invariants with explicit raises (so
`python -O` keeps it): complement(complement) = tau, tau**4 = id, weight(s) +
weight(complement(s)) = 3, s * complement(s) = delta, divisibility as a
partial order and meet as its gcd (so meet is associative), and the weight-2
normality criterion (a of weight 2: a.b is left-weighted exactly when
complement(a) does not divide b).

Conventions fixed here and used by every other module:
  * words compose left to right;
  * conjugation is x^z = z^-1 x z;
  * tau(x) = delta^-1 x delta (a quarter turn of the square; order 4);
  * the right complement is complement(s) = s^-1 delta.
"""

from __future__ import annotations

import itertools
from enum import IntEnum

__all__ = [
    "Simple",
    "SIMPLE_NAMES",
    "ATOMS",
    "PROPER_SIMPLES",
    "SPELLING",
    "WEIGHT",
    "COMPLEMENT",
    "TAU_POWER",
    "DIVISORS",
    "MEET",
    "COMPOSE",
    "LQUOT",
    "LEFT_WEIGHTED",
    "RENORM",
    "self_check",
]


class Simple(IntEnum):
    """One of the 14 simple elements, in the canonical order used everywhere."""

    ONE = 0
    A12 = 1
    A23 = 2
    A34 = 3
    A14 = 4
    A13 = 5
    A24 = 6
    C123 = 7
    C124 = 8
    C134 = 9
    C234 = 10
    P12_34 = 11
    P14_23 = 12
    DELTA = 13


# The simples as plain ints, in canonical order.  The bootstrap builds every
# table from these, so the tables hold ints from the start.
_SIMPLES: tuple[int, ...] = tuple(range(len(Simple)))
_ONE, _DELTA = Simple.ONE.value, Simple.DELTA.value

SIMPLE_NAMES: tuple[str, ...] = (
    "1",
    "a12",
    "a23",
    "a34",
    "a14",
    "a13",
    "a24",
    "c123",
    "c124",
    "c134",
    "c234",
    "p12-34",
    "p14-23",
    "delta",
)

# S=a12, W=a23, N=a34, E=a14, M=a13, A=a24.
ATOMS: tuple[int, ...] = (
    Simple.A12.value,
    Simple.A23.value,
    Simple.A34.value,
    Simple.A14.value,
    Simple.A13.value,
    Simple.A24.value,
)
_S, _W, _N, _E, _M, _A = ATOMS

PROPER_SIMPLES: tuple[int, ...] = tuple(
    s for s in _SIMPLES if s not in (_ONE, _DELTA)
)

_WEIGHT2: tuple[int, ...] = (
    Simple.C123.value,
    Simple.C124.value,
    Simple.C134.value,
    Simple.C234.value,
    Simple.P12_34.value,
    Simple.P14_23.value,
)
_C123, _C124, _C134, _C234, _P12_34, _P14_23 = _WEIGHT2

# The six relation cells: for each weight-2 simple, every two-letter atom word
# spelling it.
_RELATION_CELLS: dict[int, tuple[tuple[int, int], ...]] = {
    _C123: ((_S, _W), (_W, _M), (_M, _S)),
    _C234: ((_W, _N), (_N, _A), (_A, _W)),
    _C134: ((_N, _E), (_E, _M), (_M, _N)),
    _C124: ((_E, _S), (_S, _A), (_A, _E)),
    _P12_34: ((_N, _S), (_S, _N)),
    _P14_23: ((_E, _W), (_W, _E)),
}

_DELTA_WORD: tuple[int, ...] = (_S, _W, _N)  # delta = a12.a23.a34


# ---------------------------------------------------------------------------
# Bootstrap: close atom words of length <= 3 under the relation cells, then
# read every table off the resulting word classes.
# ---------------------------------------------------------------------------


def _close_word_class(
    word: tuple[int, ...],
    rewrites: dict[tuple[int, int], tuple[tuple[int, int], ...]],
) -> frozenset[tuple[int, ...]]:
    """All positive atom words equal to `word` under the relation cells,
    given as {two-letter word: the other words of its cell}."""
    seen = {word}
    frontier = [word]
    while frontier:
        current = frontier.pop()
        for i in range(len(current) - 1):
            for replacement in rewrites.get(current[i : i + 2], ()):
                candidate = current[:i] + replacement + current[i + 2 :]
                if candidate not in seen:
                    seen.add(candidate)
                    frontier.append(candidate)
    return frozenset(seen)


def _bootstrap() -> dict[str, tuple]:
    # One defining word per simple; its closure is the simple's word class.
    defining_word: dict[int, tuple[int, ...]] = {_ONE: ()}
    for atom in ATOMS:
        defining_word[atom] = (atom,)
    for two, cell in _RELATION_CELLS.items():
        defining_word[two] = cell[0]
    defining_word[_DELTA] = _DELTA_WORD

    rewrites = {
        pair: tuple(other for other in cell if other != pair)
        for cell in _RELATION_CELLS.values()
        for pair in cell
    }
    word_class = {s: _close_word_class(defining_word[s], rewrites) for s in _SIMPLES}

    # Distinct simples must have disjoint word classes (they are distinct
    # elements of the monoid); delta has exactly 16 spellings.
    for a, b in itertools.combinations(_SIMPLES, 2):
        if not word_class[a].isdisjoint(word_class[b]):
            raise RuntimeError(f"{a!r} and {b!r} share a spelling")
    if len(word_class[_DELTA]) != 16:
        raise RuntimeError("delta does not have 16 spellings")

    weight_table = tuple(len(defining_word[s]) for s in _SIMPLES)

    # Each word class is closed under the relations, so a word spells the
    # simple whose class holds it, and a word in no class spells no simple.
    spelled = {w: s for s in _SIMPLES for w in word_class[s]}
    compose: list[list[int | None]] = [
        [spelled.get(defining_word[a] + defining_word[b]) for b in _SIMPLES]
        for a in _SIMPLES
    ]

    divisors_table: list[frozenset[int]] = []
    for s in _SIMPLES:
        divs = {
            t
            for t in _SIMPLES
            if weight_table[t] <= weight_table[s]
            and any(
                w[: weight_table[t]] in word_class[t] for w in word_class[s]
            )
        }
        divisors_table.append(frozenset(divs))
    if divisors_table[_DELTA] != frozenset(_SIMPLES):
        raise RuntimeError("some simple does not divide delta")

    meet_table: list[list[int]] = [[_ONE] * 14 for _ in range(14)]
    for a, b in itertools.product(_SIMPLES, _SIMPLES):
        common = divisors_table[a] & divisors_table[b]
        top_weight = max(weight_table[t] for t in common)
        tops = [t for t in common if weight_table[t] == top_weight]
        if len(tops) != 1:
            raise RuntimeError(f"meet({a!r}, {b!r}) is not unique: {tops}")
        meet_table[a][b] = tops[0]

    complement_table: list[int] = []
    for s in _SIMPLES:
        comps = [t for t in _SIMPLES if compose[s][t] == _DELTA]
        if len(comps) != 1:
            raise RuntimeError(f"complement({s!r}) is not unique: {comps}")
        complement_table.append(comps[0])

    tau_table = tuple(complement_table[complement_table[s]] for s in _SIMPLES)

    lquot_table: list[list[int | None]] = [[None] * 14 for _ in range(14)]
    for t, v in itertools.product(_SIMPLES, _SIMPLES):
        if t not in divisors_table[v]:
            continue
        quotients = [u for u in _SIMPLES if compose[t][u] == v]
        if len(quotients) != 1:
            raise RuntimeError(f"lquot({t!r}, {v!r}) is not unique: {quotients}")
        lquot_table[t][v] = quotients[0]

    left_weighted_table = tuple(
        tuple(meet_table[complement_table[a]][b] == _ONE for b in _SIMPLES)
        for a in _SIMPLES
    )

    # Pairwise renormalization: (u, v) -> (u*t, t^-1 v) with
    # t = meet(complement(u), v). Moves everything movable one step left; its
    # fixed points are the locally normal pairs. By construction this also
    # bubbles delta factors to the front ((u, delta) -> (delta, tau(u))) and
    # trivial factors to the back ((1, v) -> (v, 1)).
    renorm_table: list[list[tuple[int, int]]] = []
    for u in _SIMPLES:
        row = []
        for v in _SIMPLES:
            t = meet_table[complement_table[u]][v]
            grown = compose[u][t]
            rest = lquot_table[t][v]
            if grown is None or rest is None:
                raise RuntimeError(f"renormalizing ({u!r}, {v!r}) leaves the simples")
            row.append((grown, rest))
        renorm_table.append(row)

    tau_power_table = [list(_SIMPLES)]
    for _ in range(3):
        tau_power_table.append([tau_table[s] for s in tau_power_table[-1]])

    return {
        "SPELLING": tuple(defining_word[s] for s in _SIMPLES),
        "WEIGHT": tuple(weight_table),
        "COMPLEMENT": tuple(complement_table),
        "TAU_POWER": tuple(tuple(row) for row in tau_power_table),
        "DIVISORS": tuple(divisors_table),
        "MEET": tuple(tuple(row) for row in meet_table),
        "COMPOSE": tuple(tuple(row) for row in compose),
        "LQUOT": tuple(tuple(row) for row in lquot_table),
        "LEFT_WEIGHTED": left_weighted_table,
        "RENORM": tuple(tuple(row) for row in renorm_table),
    }


_TABLES = _bootstrap()

SPELLING: tuple[tuple[int, ...], ...] = _TABLES["SPELLING"]
WEIGHT: tuple[int, ...] = _TABLES["WEIGHT"]
COMPLEMENT: tuple[int, ...] = _TABLES["COMPLEMENT"]
TAU_POWER: tuple[tuple[int, ...], ...] = _TABLES["TAU_POWER"]
DIVISORS: tuple[frozenset[int], ...] = _TABLES["DIVISORS"]
MEET: tuple[tuple[int, ...], ...] = _TABLES["MEET"]
COMPOSE: tuple[tuple[int | None, ...], ...] = _TABLES["COMPOSE"]
LQUOT: tuple[tuple[int | None, ...], ...] = _TABLES["LQUOT"]
LEFT_WEIGHTED: tuple[tuple[bool, ...], ...] = _TABLES["LEFT_WEIGHTED"]
RENORM: tuple[tuple[tuple[int, int], ...], ...] = _TABLES["RENORM"]

del _TABLES


# ---------------------------------------------------------------------------
# Startup self-check.
# ---------------------------------------------------------------------------

# The expected tau cycles: a quarter turn of the square.
_TAU_CYCLES = (
    (_S, _E, _N, _W), (_M, _A), _WEIGHT2[:4], _WEIGHT2[4:], (_ONE,), (_DELTA,)
)


def self_check() -> None:
    """Check the structural invariants of the tables; raises RuntimeError
    naming every law that fails."""
    tau = TAU_POWER[1]
    pairs = tuple(itertools.product(_SIMPLES, _SIMPLES))
    laws = {
        "complement(complement(s)) = tau(s)": all(
            COMPLEMENT[COMPLEMENT[s]] == tau[s] for s in _SIMPLES
        ),
        "tau^4 = 1": all(tau[TAU_POWER[3][s]] == s for s in _SIMPLES),
        "weight(s) + weight(complement(s)) = 3": all(
            WEIGHT[s] + WEIGHT[COMPLEMENT[s]] == 3 for s in _SIMPLES
        ),
        "s * complement(s) = delta": all(
            COMPOSE[s][COMPLEMENT[s]] == _DELTA for s in _SIMPLES
        ),
        "weight(tau(s)) = weight(s)": all(WEIGHT[tau[s]] == WEIGHT[s] for s in _SIMPLES),
        "meet(s, delta) = meet(s, s) = s": all(
            MEET[s][_DELTA] == s and MEET[s][s] == s for s in _SIMPLES
        ),
        "tau cycles": all(
            tau[c[i]] == c[(i + 1) % len(c)] for c in _TAU_CYCLES for i in range(len(c))
        ),
        # Divisibility is transitive and antisymmetric (reflexive by
        # meet(s, s) = s and the gcd law).  With the gcd law this makes meet
        # associative, so that is not checked on its own: DIVISORS[meet(a, b)]
        # is DIVISORS[a] & DIVISORS[b], so both bracketings of a meet of
        # three have the same divisors, hence divide each other, hence agree.
        "divisibility is a partial order": all(
            (b not in DIVISORS[a] or DIVISORS[b] <= DIVISORS[a])
            and (a == b or a not in DIVISORS[b] or b not in DIVISORS[a])
            for a, b in pairs
        ),
        # meet is a gcd: it divides both, and every common divisor divides it.
        "meet is the gcd": all(
            MEET[a][b] in DIVISORS[a]
            and MEET[a][b] in DIVISORS[b]
            and DIVISORS[a] & DIVISORS[b] <= DIVISORS[MEET[a][b]]
            and MEET[a][b] == MEET[b][a]
            for a, b in pairs
        ),
        "tau is a lattice automorphism": all(
            tau[MEET[a][b]] == MEET[tau[a]][tau[b]]
            and (tau[b] in DIVISORS[tau[a]]) == (b in DIVISORS[a])
            for a, b in pairs
        ),
        "a * b is simple iff b divides complement(a)": all(
            (COMPOSE[a][b] is not None) == (b in DIVISORS[COMPLEMENT[a]])
            for a, b in pairs
        ),
        # For a of weight 2 and proper b, a.b is left-weighted exactly when
        # delta does not divide a*b, i.e. complement(a) does not divide b.
        "weight-2 normality": all(
            LEFT_WEIGHTED[a][b] == (COMPLEMENT[a] not in DIVISORS[b])
            for a in _WEIGHT2
            for b in PROPER_SIMPLES
        ),
    }
    failed = [law for law, holds in laws.items() if not holds]
    if failed:
        raise RuntimeError("simple tables break: " + "; ".join(failed))


self_check()
