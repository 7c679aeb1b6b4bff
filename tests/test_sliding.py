"""Tests for cycling, sliding, rigidity, and trajectories."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bkl4.engine import (
    IDENTITY,
    GarsideBraid,
    braid_from_factors,
    conjugate,
    invert,
    multiply,
    power,
)
from bkl4.simples import SIMPLE_NAMES, Simple
from bkl4.sliding import (
    DeltaPowerError,
    cyclic_sliding,
    cycling,
    decycling,
    final_factor,
    initial_factor,
    is_rigid,
    preferred_prefix,
    slide_to_circuit,
)
from bkl4.words import format_braid, parse_braid
from braids import beta_braid, random_braid

S, W, N, E, M, A = (
    Simple.A12,
    Simple.A23,
    Simple.A34,
    Simple.A14,
    Simple.A13,
    Simple.A24,
)


def test_initial_and_final_factor():
    x = GarsideBraid(0, (Simple.C123, S))
    assert initial_factor(x) == Simple.C123
    assert final_factor(x) == S
    # Negative power twists the initial factor: iota = tau^-p(x1).
    y = GarsideBraid(-1, (S,))
    assert initial_factor(y) == E  # tau(a12) = a14
    assert final_factor(y) == S
    for bad in (IDENTITY, GarsideBraid(3, ())):
        with pytest.raises(DeltaPowerError):
            initial_factor(bad)
        with pytest.raises(DeltaPowerError):
            final_factor(bad)
        with pytest.raises(DeltaPowerError):
            preferred_prefix(bad)


def test_preferred_prefix_frozen():
    assert preferred_prefix(GarsideBraid(0, (Simple.C123, S))) == W
    assert preferred_prefix(GarsideBraid(0, (Simple.C123, W))) == M
    assert preferred_prefix(GarsideBraid(0, (M, M))) == Simple.ONE


def test_sliding_circuit_of_c123_a12_frozen():
    # c123.a12 -> c123.a23 -> c123.a13 -> back: a period-3 circuit of
    # non-rigid elements, entered immediately.
    x = GarsideBraid(0, (Simple.C123, S))
    traj = slide_to_circuit(x)
    assert traj.cycle_start == 0
    assert traj.steps == (
        x,
        GarsideBraid(0, (Simple.C123, W)),
        GarsideBraid(0, (Simple.C123, M)),
    )
    assert traj.accumulated_conjugator == IDENTITY
    assert traj.representative == x
    assert not any(is_rigid(y) for y in traj.steps[traj.cycle_start :])


def test_rigid_examples():
    assert is_rigid(GarsideBraid(0, (M, M)))
    assert is_rigid(GarsideBraid(0, (Simple.P14_23, Simple.C124, M)))
    assert not is_rigid(GarsideBraid(0, (Simple.C123, S)))
    assert not is_rigid(IDENTITY)
    assert not is_rigid(GarsideBraid(5, ()))
    for k in range(5):
        assert is_rigid(beta_braid(k))


def test_rigid_iff_trivial_prefix():
    rng = random.Random(31)
    for _ in range(500):
        x = random_braid(rng, rng.randrange(1, 7), rng.randrange(-3, 4))
        assert is_rigid(x) == (preferred_prefix(x) == Simple.ONE)
        if is_rigid(x):
            assert cyclic_sliding(x).result == x


def test_sliding_is_conjugation_by_prefix():
    rng = random.Random(47)
    for _ in range(400):
        x = random_braid(rng, rng.randrange(1, 8), rng.randrange(-3, 4))
        step = cyclic_sliding(x)
        assert step.result == conjugate(x, braid_from_factors(0, (step.prefix,)))
        assert cycling(x) == conjugate(
            x, braid_from_factors(0, (initial_factor(x),))
        )
        assert decycling(x) == conjugate(
            x, invert(braid_from_factors(0, (final_factor(x),)))
        )


def test_delta_powers_are_fixed():
    for p in (-2, 0, 1, 3):
        x = GarsideBraid(p, ())
        assert cycling(x) == x
        assert decycling(x) == x
        step = cyclic_sliding(x)
        assert step.result == x and step.prefix == Simple.ONE


def test_slide_to_circuit_structure():
    rng = random.Random(77)
    for _ in range(150):
        x = random_braid(rng, rng.randrange(0, 6), rng.randrange(-2, 3))
        traj = slide_to_circuit(x)
        assert traj.steps[0] == x
        assert conjugate(x, traj.accumulated_conjugator) == traj.representative
        assert len(traj.prefixes) == len(traj.steps)
        # Walking the prefixes reproduces the steps.
        cur = x
        for i, t in enumerate(traj.prefixes[:-1]):
            cur = conjugate(cur, braid_from_factors(0, (t,)))
            assert cur == traj.steps[i + 1]
        # The final prefix closes the loop back to cycle_start.
        cur = conjugate(cur, braid_from_factors(0, (traj.prefixes[-1],)))
        assert cur == traj.steps[traj.cycle_start]
        for i in range(traj.cycle_start, len(traj.steps)):
            z = braid_from_factors(0, traj.prefixes[:i])
            assert traj.steps[i] == conjugate(x, z)


def test_rigid_trajectory_is_single_point():
    for k in (0, 1, 2):
        b = beta_braid(k)
        traj = slide_to_circuit(b)
        assert traj.cycle_start == 0
        assert traj.steps == (b,)
        assert traj.accumulated_conjugator == IDENTITY


def test_sliding_does_not_worsen_inf_sup():
    rng = random.Random(6)
    for _ in range(300):
        x = random_braid(rng, rng.randrange(1, 7), rng.randrange(-3, 4))
        y = cyclic_sliding(x).result
        assert y.inf >= x.inf
        assert y.sup <= x.sup


def test_powers_of_rigid_are_rigid():
    for k in (1, 2):
        b = beta_braid(k)
        for m in (2, 3):
            assert is_rigid(power(b, m))


def _walk_start(seed: int, kind: str) -> GarsideBraid:
    """A braid to slide: a random normal form, a delta power, a rigid braid,
    or a conjugate w^-1 . x . w presented as a word with inverse letters."""
    rng = random.Random(seed)
    if kind == "delta":
        return GarsideBraid(rng.randrange(-5, 6))
    if kind == "rigid":
        while True:
            x = random_braid(rng, rng.randrange(1, 7), rng.randrange(-3, 4))
            if is_rigid(x):
                return x
    x = random_braid(rng, rng.randrange(1, 8), rng.randrange(-3, 4))
    if kind == "random":
        return x
    w = random_braid(rng, rng.randrange(1, 4)).factors
    inverse = " ".join(f"{SIMPLE_NAMES[f]}^-1" for f in reversed(w))
    word = " ".join(SIMPLE_NAMES[f] for f in w)
    return parse_braid(f"{inverse} . {format_braid(x)} . {word}")


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(("random", "delta", "rigid", "presented")),
)
def test_slide_to_circuit_is_the_cyclic_sliding_walk(seed, kind):
    x = _walk_start(seed, kind)
    steps, prefixes = [x], []
    while True:
        step = cyclic_sliding(steps[-1])
        prefixes.append(step.prefix)
        if step.result in steps:
            start = steps.index(step.result)
            break
        steps.append(step.result)
    z = IDENTITY
    for t in prefixes[:start]:
        z = multiply(z, GarsideBraid(0, (t,)))
    traj = slide_to_circuit(x)
    assert traj.steps == tuple(steps)
    assert traj.prefixes == tuple(prefixes)
    assert traj.cycle_start == start
    assert traj.accumulated_conjugator == z
    assert conjugate(x, z) == traj.representative
