"""
words: the textual word syntax, formatting, and the beta family.

Grammar (terms separated by '.' or whitespace, exponents optional integers):

    word := term (('.' | WS) term)*
    term := name ('^' int)?
    name := a12 | a13 | a14 | a23 | a24 | a34
          | c123 | c124 | c134 | c234 | p12-34 | p14-23
          | d | s1 | s2 | s3

'd' is the Garside element delta, and s1, s2, s3 are the classical Artin
generators, which coincide with the adjacent bands: s1 = a12, s2 = a23,
s3 = a34.  Parsing yields signed letters; a weight-2 name denotes its simple
element, i.e. it is interchangeable with the fixed atom factorization
(c123 = a12.a23, c234 = a23.a34, c134 = a34.a14, c124 = a14.a12,
p12-34 = a34.a12, p14-23 = a14.a23).

A word may have at most MAX_WORD_LETTERS letters: a term counts |exponent|
letters (normalizing spells each of them out), 'd^e' included, so the power
of delta of every normal form it gives prints as a short integer.
`parse_word` rejects a longer word before it builds anything of that size.

`format_braid` writes a normal form as 'd^p . f1 . f2 ...' using canonical
factor names; its output parses back to the same braid.

The beta family is the one-parameter stress family

    beta_k = a34.a23.a12.a13.a14.c124^(3k).a12^(-3k)

whose normal form is rigid with infimum 0 and canonical length 3k + 5.
"""

from __future__ import annotations

import re

from bkl4.engine import GarsideBraid, braid_from_letters
from bkl4.simples import SIMPLE_NAMES, Simple

__all__ = [
    "MAX_WORD_LETTERS",
    "ParseError",
    "parse_word",
    "parse_braid",
    "format_braid",
    "format_braid_compact",
    "beta_word",
]

Letter = tuple[int, int]

MAX_WORD_LETTERS = 10_000

# Names to plain ints, the values of `Simple`, as the tables take them.
_NAME_TO_LETTER: dict[str, int] = {
    "a12": Simple.A12.value,
    "a13": Simple.A13.value,
    "a14": Simple.A14.value,
    "a23": Simple.A23.value,
    "a24": Simple.A24.value,
    "a34": Simple.A34.value,
    "c123": Simple.C123.value,
    "c124": Simple.C124.value,
    "c134": Simple.C134.value,
    "c234": Simple.C234.value,
    "p12-34": Simple.P12_34.value,
    "p14-23": Simple.P14_23.value,
    "d": Simple.DELTA.value,
    "s1": Simple.A12.value,
    "s2": Simple.A23.value,
    "s3": Simple.A34.value,
}

_TOKEN_RE = re.compile(r"[^.\s]+")
_TERM_RE = re.compile(r"(?P<name>[^^]+)(?:\^(?P<exp>[+-]?\d+))?\Z")


class ParseError(ValueError):
    """A word syntax error, carrying the character offset of the bad term."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.message = message
        self.position = position


def parse_word(text: str) -> list[Letter]:
    """Parse WordSyntax into signed letters [(simple, exponent), ...].

    Raises ParseError at the term that takes the word past MAX_WORD_LETTERS.
    """
    letters: list[Letter] = []
    count = 0
    for match in _TOKEN_RE.finditer(text):
        token, position = match.group(), match.start()
        term = _TERM_RE.match(token)
        if term is None:
            raise ParseError(f"malformed term {token!r}", position)
        name = term.group("name")
        simple = _NAME_TO_LETTER.get(name)
        if simple is None:
            raise ParseError(f"unknown generator name {name!r}", position)
        exp = term.group("exp")
        try:
            e = int(exp) if exp is not None else 1
        except ValueError:  # more digits than int() converts
            raise ParseError(f"exponent of {name!r} is too long", position) from None
        count += abs(e)
        if count > MAX_WORD_LETTERS:
            raise ParseError(f"word has more than {MAX_WORD_LETTERS} letters", position)
        letters.append((simple, e))
    return letters


def parse_braid(text: str) -> GarsideBraid:
    """Parse WordSyntax and normalize to a braid."""
    return braid_from_letters(parse_word(text))


def format_braid(x: GarsideBraid) -> str:
    """Render a normal form as 'd^p . f1 . f2 ...'; parses back to x."""
    parts = [f"d^{x.power}"]
    parts.extend(SIMPLE_NAMES[f] for f in x.factors)
    return " . ".join(parts)


def format_braid_compact(x: GarsideBraid) -> str:
    """Compact one-token-per-run rendering for graph labels: 'd.a13^2'."""
    parts: list[str] = []
    if x.power == 1:
        parts.append("d")
    elif x.power:
        parts.append(f"d^{x.power}")
    run: int | None = None
    count = 0
    for f in (*x.factors, None):
        if f == run:
            count += 1
            continue
        if run is not None:
            name = SIMPLE_NAMES[run]
            parts.append(name if count == 1 else f"{name}^{count}")
        run, count = f, 1
    if not parts:
        return "1"
    return ".".join(parts)


def beta_word(k: int) -> str:
    """The beta family word for k >= 0."""
    if k < 0:
        raise ValueError("beta index must be >= 0")
    return f"a34.a23.a12.a13.a14.c124^{3 * k}.a12^{-3 * k}"

