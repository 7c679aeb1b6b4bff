"""Independent checks for bkl4 outputs.

Braid words (the CLI's input syntax and the `d^p . f1 . f2` normal forms it
prints) are spelled in Artin letters from this file's own table, then judged
by `bkl4.classical`, the permutation-braid engine that shares no tables with
the dual engine.  The Burau traces give a second, independent invariant:
conjugate braids have conjugate Burau matrices, so equal traces of every
power; a difference proves non-conjugacy.

The benchmark draws its inputs from this file too: its own successor table
of the 12 proper simples gives random left normal forms, so the inputs of a
seed do not depend on how bkl4 orders or stores its tables.
"""

from __future__ import annotations

import re

from bkl4.classical import classical_normalize

# Artin letters (1, 2, 3 = sigma1..sigma3; negative = inverse) for every
# name the CLI reads or prints.  delta = s1 s2 s3; the bands expand as
# a13 = s2^-1 s1 s2, a24 = s3^-1 s2 s3, a14 = s3^-1 s2^-1 s1 s2 s3; each
# weight-2 simple is the atom product the README gives.
_A12, _A23, _A34 = (1,), (2,), (3,)
_A13 = (-2, 1, 2)
_A24 = (-3, 2, 3)
_A14 = (-3, -2, 1, 2, 3)
ARTIN: dict[str, tuple[int, ...]] = {
    "a12": _A12,
    "a23": _A23,
    "a34": _A34,
    "a13": _A13,
    "a24": _A24,
    "a14": _A14,
    "c123": _A12 + _A23,
    "c234": _A23 + _A34,
    "c134": _A34 + _A14,
    "c124": _A14 + _A12,
    "p12-34": _A34 + _A12,
    "p14-23": _A14 + _A23,
    "d": (1, 2, 3),
    "s1": _A12,
    "s2": _A23,
    "s3": _A34,
}

_TERM = re.compile(r"([a-z0-9-]+?)(?:\^([+-]?\d+))?\Z")


def artin(word: str) -> list[int]:
    """Spell a braid word (`name^e` terms split by '.' or spaces) in Artin letters."""
    out: list[int] = []
    for token in re.split(r"[.\s]+", word.strip()):
        if not token:
            continue
        match = _TERM.match(token)
        if match is None or match.group(1) not in ARTIN:
            raise ValueError(f"unreadable term {token!r} in {word!r}")
        letters = ARTIN[match.group(1)]
        exponent = int(match.group(2) or 1)
        if exponent < 0:
            letters = tuple(-g for g in reversed(letters))
        out.extend(letters * abs(exponent))
    return out


def inverse(letters: list[int]) -> list[int]:
    return [-g for g in reversed(letters)]


def same_braid(u: list[int], v: list[int]) -> bool:
    """Whether two Artin words are the same braid (classical normal forms)."""
    return classical_normalize(u) == classical_normalize(v)


def conjugates_to(x: str, z: str, y: str) -> bool:
    """Whether z^-1 x z = y, judged by the classical engine."""
    zl = artin(z)
    return same_braid(inverse(zl) + artin(x) + zl, artin(y))


# Burau traces: the unreduced 4x4 Burau matrix, with t fixed, modulo a prime.
PRIME = (1 << 61) - 1
T = 1_000_003
T_INV = pow(T, PRIME - 2, PRIME)


def _burau(letters: list[int]) -> list[list[int]]:
    m = [[int(i == j) for j in range(4)] for i in range(4)]
    for g in letters:
        a, b = abs(g) - 1, abs(g)
        for row in m:
            u, v = row[a], row[b]
            if g > 0:  # sigma -> [[1-t, t], [1, 0]] on strands a, b
                row[a], row[b] = ((1 - T) * u + v) % PRIME, T * u % PRIME
            else:  # its inverse [[0, 1], [1/t, 1-1/t]]
                row[a], row[b] = T_INV * v % PRIME, (u + (1 - T_INV) * v) % PRIME
    return m


def _matmul(p: list[list[int]], q: list[list[int]]) -> list[list[int]]:
    return [
        [sum(p[i][k] * q[k][j] for k in range(4)) % PRIME for j in range(4)]
        for i in range(4)
    ]


def burau_traces(word: str) -> tuple[int, ...]:
    """Traces of B, B^2, B^3, B^4 for the Burau matrix B of the braid."""
    base = _burau(artin(word))
    acc, traces = base, []
    for _ in range(4):
        traces.append(sum(acc[i][i] for i in range(4)) % PRIME)
        acc = _matmul(acc, base)
    return tuple(traces)


# Dual simples as non-crossing partitions of the punctures 1..4: an atom
# a_pq left-divides a simple exactly when p and q share one of its blocks.
BLOCKS: dict[str, tuple[str, ...]] = {
    "a12": ("12",),
    "a23": ("23",),
    "a34": ("34",),
    "a13": ("13",),
    "a24": ("24",),
    "a14": ("14",),
    "c123": ("123",),
    "c234": ("234",),
    "c134": ("134",),
    "c124": ("124",),
    "p12-34": ("12", "34"),
    "p14-23": ("14", "23"),
}
PROPER = tuple(BLOCKS)


def _chords(name: str) -> set[tuple[str, str]]:
    return {(p, q) for block in BLOCKS[name] for p in block for q in block if p < q}


def _successors() -> dict[str, tuple[str, ...]]:
    """For each proper simple a, the proper b with a.b left-weighted: no atom
    divides both the complement a^-1 delta (found classically) and b."""
    delta = artin("d")
    follows = {}
    for a in PROPER:
        (rest,) = [c for c in PROPER if same_braid(artin(a) + artin(c), delta)]
        follows[a] = tuple(b for b in PROPER if not _chords(rest) & _chords(b))
    return follows


FOLLOWS = _successors()


def random_normal_form(rng, length: int) -> list[str]:
    """A random left normal form of proper simples (delta power 0): the first
    factor uniform over PROPER, each later one uniform over the successors of
    the one before."""
    terms = [rng.choice(PROPER)]
    for _ in range(length - 1):
        terms.append(rng.choice(FOLLOWS[terms[-1]]))
    return terms


def is_normal_form(terms: list[str]) -> bool:
    """Whether `d^p . f1 . f2 ...` terms are a left normal form: proper
    factors, each pair left-weighted."""
    factors = terms[1:] if terms and terms[0].startswith("d^") else terms
    return all(f in BLOCKS for f in factors) and all(
        b in FOLLOWS[a] for a, b in zip(factors, factors[1:])
    )
