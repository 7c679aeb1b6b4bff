"""Tests for the independent permutation-braid implementation."""

from __future__ import annotations

import random

import pytest

from bkl4 import classical
from bkl4.classical import (
    IDENT,
    REVERSAL,
    ClassicalNF,
    classical_is_trivial,
    classical_normalize,
)

_S1 = (1, 0, 2, 3)
_S2 = (0, 2, 1, 3)
_S3 = (0, 1, 3, 2)
_DELTA_WORD = [1, 2, 1, 3, 2, 1]


def test_normal_form_examples_frozen():
    assert classical_normalize([]) == ClassicalNF(0, ())
    assert classical_normalize([1]) == ClassicalNF(0, (_S1,))
    assert classical_normalize([-1]) == ClassicalNF(-1, ((3, 2, 0, 1),))
    assert classical_normalize([1, 1]) == ClassicalNF(0, (_S1, _S1))
    assert classical_normalize([1, 2]) == ClassicalNF(0, ((2, 0, 1, 3),))
    assert classical_normalize([2, 1]) == ClassicalNF(0, ((1, 2, 0, 3),))
    assert classical_normalize([1, 3]) == ClassicalNF(0, ((1, 0, 3, 2),))
    assert classical_normalize(_DELTA_WORD) == ClassicalNF(1, ())
    assert classical_normalize(_DELTA_WORD * 2) == ClassicalNF(2, ())
    assert classical_normalize([-g for g in reversed(_DELTA_WORD)]) == ClassicalNF(
        -1, ()
    )


def test_factors_are_proper_and_left_weighted():
    rng = random.Random(8)
    for _ in range(300):
        word = [rng.choice((1, 2, 3, -1, -2, -3)) for _ in range(rng.randrange(25))]
        nf = classical_normalize(word)
        for pi in nf.perms:
            assert pi != IDENT and pi != REVERSAL


def test_braid_relations_are_trivial():
    assert classical_is_trivial([1, 2, 1, -2, -1, -2])
    assert classical_is_trivial([2, 3, 2, -3, -2, -3])
    assert classical_is_trivial([1, 3, -1, -3])
    assert classical_is_trivial([1, -1])
    assert not classical_is_trivial([1, 2, -1, -2])
    assert not classical_is_trivial([1])
    assert not classical_is_trivial(_DELTA_WORD)


def test_full_twist_is_central():
    full_twist = _DELTA_WORD * 2
    for g in (1, 2, 3, -1, -2, -3):
        assert classical_normalize(full_twist + [g]) == classical_normalize(
            [g] + full_twist
        )


def test_delta_conjugation_flips_generators():
    # Delta^-1 sigma_i Delta = sigma_{4-i}.
    inv_delta = [-g for g in reversed(_DELTA_WORD)]
    for i, j in ((1, 3), (2, 2), (3, 1)):
        assert classical_normalize(inv_delta + [i] + _DELTA_WORD) == (
            classical_normalize([j])
        )


def test_rejects_non_artin_letters():
    with pytest.raises(ValueError):
        classical_normalize([4])
    with pytest.raises(ValueError):
        classical_normalize([0])


def test_inverse_words_are_trivial():
    rng = random.Random(15)
    for _ in range(200):
        word = [rng.choice((1, 2, 3, -1, -2, -3)) for _ in range(rng.randrange(30))]
        assert classical_is_trivial(word + [-g for g in reversed(word)])
        nf = classical_normalize(word)
        assert 0 <= nf.canonical_length <= len(word)


def test_self_check_raises_on_a_broken_table(monkeypatch):
    # A plain raise, not an assert, so the check also runs under python -O.
    classical._self_check()
    unrenormalized = {pair: pair for pair in classical._RENORM}
    monkeypatch.setattr(classical, "_RENORM", unrenormalized)
    with pytest.raises(RuntimeError, match="renormalized pairs are left-weighted"):
        classical._self_check()
