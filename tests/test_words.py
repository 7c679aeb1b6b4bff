"""Tests for the word syntax, formatting, the beta family, and the Artin bridge."""

from __future__ import annotations

import random
import sys

import pytest

from bkl4.engine import (
    GarsideBraid,
    invariants,
)
from bkl4.simples import Simple
from bkl4.words import (
    MAX_WORD_LETTERS,
    ParseError,
    beta_word,
    format_braid,
    format_braid_compact,
    parse_braid,
    parse_word,
)
from braids import beta_braid, random_braid, to_artin_letters

S, W, N, E, M, A = (
    Simple.A12,
    Simple.A23,
    Simple.A34,
    Simple.A14,
    Simple.A13,
    Simple.A24,
)


def test_parse_basic_terms():
    assert parse_word("a12") == [(S, 1)]
    assert parse_word("a12^3") == [(S, 3)]
    assert parse_word("a12^-3") == [(S, -3)]
    assert parse_word("p12-34.p14-23^2") == [
        (Simple.P12_34, 1),
        (Simple.P14_23, 2),
    ]
    assert parse_word("d^-1 a12\t a13^2") == [
        (Simple.DELTA, -1),
        (S, 1),
        (M, 2),
    ]
    assert parse_word("") == []
    assert parse_braid("") == GarsideBraid()
    assert parse_word("   ") == []



def test_word_letters_are_bounded():
    # Rejected before anything of the word's size is built.
    for text in ("a12^1000000000", "a13^-1000000000"):
        with pytest.raises(ParseError, match="more than 10000 letters") as info:
            parse_braid(text)
        assert info.value.position == 0
    assert MAX_WORD_LETTERS == 10_000
    # A term counts |exponent| letters, d^e included, so this is at the limit.
    half = MAX_WORD_LETTERS // 2
    assert parse_word(f"a12^{half - 3} d^-3 c124^-{half}") == [
        (S, half - 3),
        (Simple.DELTA, -3),
        (Simple.C124, -half),
    ]
    with pytest.raises(ParseError, match="more than 10000 letters") as info:
        parse_word(f"a12^{half} d^-1000000000 c124^-{half}")
    assert info.value.position == len(f"a12^{half} ")
    x = parse_braid(f"a12^{MAX_WORD_LETTERS}")
    assert x == GarsideBraid(0, (S,) * MAX_WORD_LETTERS)
    with pytest.raises(ParseError) as info:
        parse_word(f"a12^{MAX_WORD_LETTERS} d a13")
    assert info.value.position == len(f"a12^{MAX_WORD_LETTERS} ")
    if sys.version_info >= (3, 11):
        # An exponent longer than int() converts is a parse error, not a crash.
        with pytest.raises(ParseError, match="too long"):
            parse_word("d^" + "9" * 5000)


def test_parse_aliases():
    assert parse_word("s1.s2.s3") == [(S, 1), (W, 1), (N, 1)]
    assert parse_braid("s1.s2.s3") == GarsideBraid(1, ())
    assert parse_braid("d") == GarsideBraid(1, ())
    assert parse_braid("d^-2") == GarsideBraid(-2, ())


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_word("a12.a21")
    assert info.value.position == 4
    assert str(info.value) == "unknown generator name 'a21' at position 4"
    with pytest.raises(ParseError) as info:
        parse_word("a12.^2")
    assert info.value.position == 4
    with pytest.raises(ParseError) as info:
        parse_word("foo")
    assert info.value.position == 0
    with pytest.raises(ParseError) as info:
        parse_word("a12^x")
    assert info.value.position == 0
    with pytest.raises(ParseError):
        parse_word("delta")  # not in the grammar; use 'd'


def test_format_round_trips():
    rng = random.Random(17)
    for _ in range(100):
        x = random_braid(rng, rng.randrange(0, 6), rng.randrange(-3, 4))
        assert parse_braid(format_braid(x)) == x
    assert format_braid(GarsideBraid()) == "d^0"
    assert format_braid(GarsideBraid(-1, (Simple.C134,))) == "d^-1 . c134"
    assert format_braid(GarsideBraid(0, (Simple.C123, W))) == "d^0 . c123 . a23"


def test_format_compact():
    assert format_braid_compact(GarsideBraid()) == "1"
    assert format_braid_compact(GarsideBraid(1, ())) == "d"
    assert format_braid_compact(GarsideBraid(0, (M, M))) == "a13^2"
    assert format_braid_compact(GarsideBraid(2, (S,))) == "d^2.a12"
    assert format_braid_compact(GarsideBraid(0, (N, W, S, S))) == "a34.a23.a12^2"


def test_beta_family():
    assert beta_word(1) == "a34.a23.a12.a13.a14.c124^3.a12^-3"
    assert beta_word(2) == "a34.a23.a12.a13.a14.c124^6.a12^-6"
    with pytest.raises(ValueError):
        beta_word(-1)
    assert beta_braid(0) == GarsideBraid(0, (N, W, S, M, E))
    for k in range(6):
        b = beta_braid(k)
        assert b.power == 0
        assert b.factors == (N, W, S, M, E) + (A, S, E) * k
        inv = invariants(b)
        assert inv.canonical_length == 3 * k + 5


def test_to_artin_letters_frozen():
    assert to_artin_letters([(M, 1)]) == [-2, 1, 2]
    assert to_artin_letters([(M, -1)]) == [-2, -1, 2]
    assert to_artin_letters([(A, 1)]) == [-3, 2, 3]
    assert to_artin_letters([(E, 1)]) == [-3, -2, 1, 2, 3]
    assert to_artin_letters([(Simple.DELTA, -1)]) == [-3, -2, -1]
    assert to_artin_letters([(Simple.C124, 1)]) == [-3, -2, 1, 2, 3, 1]
    assert to_artin_letters([(S, 2), (W, -1)]) == [1, 1, -2]
    assert to_artin_letters([]) == []

