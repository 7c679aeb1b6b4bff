"""Tests for cycling, sliding, rigidity, and trajectories."""

from __future__ import annotations

import random

import pytest

from bkl4.engine import (
    IDENTITY,
    GarsideBraid,
    braid_from_factors,
    conjugate,
    invert,
    power,
)
from bkl4.simples import Simple
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
