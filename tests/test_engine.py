"""Tests for normal forms and group arithmetic."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bkl4.engine
from bkl4.classical import classical_normalize
from bkl4.engine import (
    IDENTITY,
    GarsideBraid,
    braid_from_factors,
    braid_from_letters,
    conjugate,
    invariants,
    invert,
    multiply,
    normalize_factors,
    power,
    tau_braid,
)
from bkl4.simples import (
    COMPLEMENT,
    LEFT_WEIGHTED,
    MEET,
    PROPER_SIMPLES,
    TAU_POWER,
    Simple,
)
from bkl4.sliding import _cycle_factors, _slide
from braids import FOLLOWS, random_braid, to_artin_letters

S, W, N, E, M, A = (
    Simple.A12,
    Simple.A23,
    Simple.A34,
    Simple.A14,
    Simple.A13,
    Simple.A24,
)


def assert_normal(x: GarsideBraid) -> None:
    for f in x.factors:
        assert f not in (Simple.ONE, Simple.DELTA)
    for u, v in zip(x.factors, x.factors[1:]):
        assert LEFT_WEIGHTED[u][v]


def test_normalize_examples_frozen():
    assert braid_from_factors(0, [M, Simple.C123]) == GarsideBraid(
        0, (Simple.C123, W)
    )
    assert braid_from_factors(0, [S, W, N]) == GarsideBraid(1, ())
    assert braid_from_factors(0, [S, W]) == GarsideBraid(0, (Simple.C123,))
    assert braid_from_factors(0, [W, S]) == GarsideBraid(0, (W, S))
    assert braid_from_factors(-1, [S, W, N, S]) == GarsideBraid(0, (S,))
    assert braid_from_factors(0, []) == IDENTITY
    assert braid_from_factors(2, [Simple.ONE, Simple.ONE]) == GarsideBraid(2, ())


def test_invert_examples_frozen():
    assert invert(braid_from_factors(0, [S])) == GarsideBraid(-1, (Simple.C134,))
    assert invert(GarsideBraid(3, ())) == GarsideBraid(-3, ())
    assert invert(IDENTITY) == IDENTITY
    x = braid_from_factors(0, [Simple.C123, S])
    assert multiply(x, invert(x)) == IDENTITY


def test_beta_family_normal_form_frozen():
    # The mixed-weight family a34.a23.a12.a13.a14.c124^(3k).a12^(-3k) has the
    # rigid normal form [a34,a23,a12,a13,a14] + [a24,a12,a14]*k at infimum 0.
    for k in (1, 2, 3, 4):
        b = braid_from_letters(
            [(N, 1), (W, 1), (S, 1), (M, 1), (E, 1), (Simple.C124, 3 * k), (S, -3 * k)]
        )
        assert b.power == 0
        assert b.factors == (N, W, S, M, E) + (A, S, E) * k
        assert b.canonical_length == 3 * k + 5
        assert_normal(b)


def test_conjugate_examples_frozen():
    a13 = braid_from_factors(0, [M])
    a12 = braid_from_factors(0, [S])
    assert conjugate(a13, a12) == braid_from_factors(0, [W])
    assert conjugate(braid_from_factors(0, [M, M]), a12) == braid_from_factors(
        0, [W, W]
    )


def test_letters_with_deltas_and_inverses():
    assert braid_from_letters([(Simple.DELTA, -2), (S, 1), (Simple.DELTA, 2)]) == (
        braid_from_factors(0, [N])
    )
    assert braid_from_letters([(S, -1), (S, 1)]) == IDENTITY
    assert braid_from_letters([]) == IDENTITY
    assert braid_from_letters([(Simple.ONE, 5), (S, 0)]) == IDENTITY


def test_invariants_three_word_length_cases():
    # p >= 0: word length p + r.
    x = GarsideBraid(2, (S, S))
    assert invariants(x) == (2, 4, 2, 4, 8, 2, 0)
    # p < 0, |p| <= r: word length r.
    y = GarsideBraid(-1, (Simple.C123, W))
    iy = invariants(y)
    assert (iy.inf, iy.sup, iy.canonical_length, iy.word_length) == (-1, 1, 2, 2)
    assert iy.weight == -3 + 2 + 1 and iy.k1 == 1 and iy.k2 == 1
    # p < 0, |p| > r: word length |p|.
    z = GarsideBraid(-3, (M,))
    iz = invariants(z)
    assert (iz.inf, iz.sup, iz.canonical_length, iz.word_length) == (-3, -2, 1, 3)
    assert iz.weight == -9 + 1
    assert invariants(IDENTITY) == (0, 0, 0, 0, 0, 0, 0)


def test_weight_is_a_homomorphism():
    rng = random.Random(11)
    for _ in range(200):
        x = random_braid(rng, rng.randrange(0, 5), rng.randrange(-2, 3))
        y = random_braid(rng, rng.randrange(0, 5), rng.randrange(-2, 3))
        wx, wy = invariants(x).weight, invariants(y).weight
        assert invariants(multiply(x, y)).weight == wx + wy
        assert invariants(invert(x)).weight == -wx
        assert invariants(conjugate(x, y)).weight == wx


def test_group_axioms_random():
    rng = random.Random(23)
    for _ in range(300):
        x = random_braid(rng, rng.randrange(0, 6), rng.randrange(-3, 4))
        y = random_braid(rng, rng.randrange(0, 6), rng.randrange(-3, 4))
        z = random_braid(rng, rng.randrange(0, 6), rng.randrange(-3, 4))
        assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
        assert multiply(x, invert(x)) == IDENTITY
        assert invert(invert(x)) == x
        assert invert(multiply(x, y)) == multiply(invert(y), invert(x))
        assert conjugate(conjugate(x, y), z) == conjugate(x, multiply(y, z))
        assert_normal(multiply(x, y))
        assert_normal(invert(x))


def test_power_matches_repeated_multiplication():
    rng = random.Random(5)
    for _ in range(50):
        x = random_braid(rng, rng.randrange(0, 4), rng.randrange(-2, 3))
        acc = IDENTITY
        for n in range(6):
            assert power(x, n) == acc
            assert power(x, -n) == invert(acc)
            acc = multiply(acc, x)
    assert power(IDENTITY, 10**9) == IDENTITY


def test_tau_braid_is_delta_conjugation():
    rng = random.Random(9)
    delta = GarsideBraid(1, ())
    for _ in range(100):
        x = random_braid(rng, rng.randrange(0, 5), rng.randrange(-2, 3))
        assert tau_braid(x) == conjugate(x, delta)
        assert tau_braid(x, 4) == x
        assert tau_braid(x, -1) == conjugate(x, invert(delta))
        assert tau_braid(tau_braid(x, 3)) == x


def test_normalize_factors_is_idempotent_and_normal():
    rng = random.Random(3)
    everything = list(Simple)
    for _ in range(500):
        raw = [rng.choice(everything) for _ in range(rng.randrange(0, 9))]
        p, fs = normalize_factors(raw)
        assert normalize_factors(list(fs)) == (0, fs)
        assert_normal(GarsideBraid(p, fs))


def iter_normal_factor_tuples(length: int):
    """Yield every left-weighted proper factor tuple of the given length."""
    if length == 0:
        yield ()
        return
    stack = [(f,) for f in reversed(PROPER_SIMPLES)]
    while stack:
        prefix = stack.pop()
        if len(prefix) == length:
            yield prefix
            continue
        for nxt in reversed(FOLLOWS[prefix[-1]]):
            stack.append(prefix + (nxt,))


def test_normal_form_counts_frozen():
    assert sum(1 for _ in iter_normal_factor_tuples(0)) == 1
    assert sum(1 for _ in iter_normal_factor_tuples(1)) == 12
    assert sum(1 for _ in iter_normal_factor_tuples(2)) == 72
    assert sum(1 for _ in iter_normal_factor_tuples(3)) == 372
    for fs in iter_normal_factor_tuples(2):
        assert LEFT_WEIGHTED[fs[0]][fs[1]]


def test_random_braid_shape():
    rng = random.Random(1)
    for _ in range(50):
        length = rng.randrange(0, 7)
        x = random_braid(rng, length, inf=-2)
        assert x.power == -2 if length else x == GarsideBraid(-2)
        assert x.canonical_length == length
        assert_normal(x)


def test_equality_is_normal_form_equality():
    # Same element, three spellings.
    via_letters = braid_from_letters([(M, 1), (S, 1)])
    via_factors = braid_from_factors(0, [Simple.C123])
    assert via_letters == via_factors
    assert hash(via_letters) == hash(via_factors)
    assert via_letters != braid_from_factors(0, [Simple.C124])


# Signed words over every name of the word syntax but the identity.
_words = st.lists(
    st.tuples(st.sampled_from(list(Simple)[1:]), st.integers(-3, 3)), max_size=8
)


@settings(max_examples=150, deadline=None)
@given(u=_words, v=_words)
def test_multiply_agrees_with_the_classical_oracle(u, v):
    product = multiply(braid_from_letters(u), braid_from_letters(v))
    spelled = [(Simple.DELTA, product.power)] + [(f, 1) for f in product.factors]
    assert classical_normalize(to_artin_letters(spelled)) == classical_normalize(
        to_artin_letters(u) + to_artin_letters(v)
    )


@settings(max_examples=300, deadline=None)
@given(
    p=st.integers(-3, 3),
    raw=st.lists(st.sampled_from(list(Simple)), max_size=16),
)
def test_braid_from_factors_agrees_with_the_classical_oracle(p, raw):
    # Raw factor lists over all 14 simples, 1 and delta at any position.
    x = braid_from_factors(p, raw)
    assert_normal(x)
    spelled = [(Simple.DELTA, x.power)] + [(f, 1) for f in x.factors]
    assert classical_normalize(to_artin_letters(spelled)) == classical_normalize(
        to_artin_letters([(Simple.DELTA, p)] + [(f, 1) for f in raw])
    )


_normal_forms = st.builds(
    lambda seed, length, inf: random_braid(random.Random(seed), length, inf),
    st.integers(0, 2**32),
    st.integers(0, 8),
    st.integers(-3, 3),
)


@settings(max_examples=100, deadline=None)
@given(x=_normal_forms, y=_normal_forms, z=_normal_forms, k=st.integers(-5, 5))
def test_group_laws_on_normal_forms(x, y, z, k):
    assert multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
    assert multiply(x, invert(x)) == IDENTITY
    assert tau_braid(x, 4) == x
    assert tau_braid(multiply(x, y), k) == multiply(tau_braid(x, k), tau_braid(y, k))


def _product(x: GarsideBraid, y: GarsideBraid) -> GarsideBraid:
    """x y by normalizing the concatenated factors (the generic path)."""
    twist = TAU_POWER[y.power % 4]
    return braid_from_factors(
        x.power + y.power, tuple(twist[f] for f in x.factors) + y.factors
    )


def _conjugate(x: GarsideBraid, z: GarsideBraid) -> GarsideBraid:
    return _product(_product(invert(z), x), z)


# Normal forms with any infimum, weighted towards delta powers and one factor.
_pass_inputs = st.builds(
    lambda seed, length, inf: random_braid(random.Random(seed), length, inf),
    st.integers(0, 2**32),
    st.one_of(st.integers(0, 1), st.integers(0, 30)),
    st.integers(-5, 5),
)


@settings(max_examples=300, deadline=None)
@given(x=_pass_inputs, s=st.sampled_from(list(Simple)), q=st.integers(-5, 5))
def test_single_simple_passes_match_full_normalization(x, s, q):
    # One simple on either side, and conjugation by delta^q s, take one pass
    # each; they must agree with normalizing the concatenated factors.
    simple = braid_from_factors(0, (s,))
    assert multiply(x, simple) == _product(x, simple)
    assert multiply(simple, x) == _product(simple, x)
    assert conjugate(x, simple) == _conjugate(x, simple)
    z = braid_from_factors(q, (s,))
    assert conjugate(x, z) == _conjugate(x, z)
    if x.factors:
        # Cycling and sliding, as the SC search and `slide_to_circuit` take
        # them, on raw (power, factors) tuples.
        iota = TAU_POWER[-x.power % 4][x.factors[0]]
        extra, factors = _cycle_factors(x.power, x.factors)
        cycled = GarsideBraid(x.power + extra, factors)
        assert cycled == _conjugate(x, braid_from_factors(0, (iota,)))
        prefix = MEET[iota][COMPLEMENT[x.factors[-1]]]
        p, factors, t = _slide(x.power, x.factors)
        assert t == prefix
        assert GarsideBraid(p, factors) == _conjugate(x, braid_from_factors(0, (prefix,)))
        assert_normal(conjugate(x, simple))


def test_single_simple_passes_do_not_fall_back(monkeypatch):
    # Conjugating by one simple, multiplying by one, cycling and sliding
    # never call the full normalization, so a pass cannot quietly hand over
    # to it.
    def refuse(raw):
        raise AssertionError("normalize_factors called")

    def single_simple_ops(x):
        return [
            (conjugate(x, z), multiply(x, z), multiply(z, x))
            for z in (GarsideBraid(0, (s,)) for s in PROPER_SIMPLES)
        ] + [_cycle_factors(x.power, x.factors), _slide(x.power, x.factors)]

    rng = random.Random(17)
    cases = [
        random_braid(rng, rng.randrange(2, 20), rng.randrange(-3, 4)) for _ in range(50)
    ]
    expected = [single_simple_ops(x) for x in cases]
    monkeypatch.setattr(bkl4.engine, "normalize_factors", refuse)
    assert [single_simple_ops(x) for x in cases] == expected
    # The guard is live: building a braid from raw factors still normalizes.
    with pytest.raises(AssertionError, match="normalize_factors called"):
        braid_from_factors(0, cases[0].factors)
