"""Tests for sliding, rigidity, and trajectories.

Slides and their preferred prefixes are read off `slide_to_circuit` and
checked against the definition p(y) = meet(iota(y), complement(phi(y)))."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from bkl4.engine import (
    IDENTITY,
    GarsideBraid,
    braid_from_factors,
    conjugate,
    multiply,
    power,
)
from bkl4.simples import COMPLEMENT, MEET, SIMPLE_NAMES, TAU_POWER, Simple
from bkl4.sliding import is_rigid, slide_to_circuit
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


def _prefix(y: GarsideBraid) -> Simple:
    """The preferred prefix meet(iota(y), complement(phi(y))) by its
    definition, iota(y) = tau^-p(x1) for y = delta^p . x1 ... xr; 1 for a
    delta power."""
    if not y.factors:
        return Simple.ONE
    return MEET[TAU_POWER[-y.power % 4][y.factors[0]]][COMPLEMENT[y.factors[-1]]]


def _first_slide(y: GarsideBraid) -> tuple[GarsideBraid, Simple]:
    """The first slide of y and its prefix, read off the sliding walk."""
    walk = slide_to_circuit(y)
    nxt = 1 if len(walk.steps) > 1 else walk.cycle_start
    return walk.steps[nxt], walk.prefixes[0]


def test_preferred_prefix_frozen():
    assert _first_slide(GarsideBraid(0, (Simple.C123, S)))[1] == W
    assert _first_slide(GarsideBraid(0, (Simple.C123, W)))[1] == M
    assert _first_slide(GarsideBraid(0, (M, M)))[1] == Simple.ONE


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
        assert is_rigid(x) == (_first_slide(x)[1] == Simple.ONE)
        if is_rigid(x):
            assert _first_slide(x)[0] == x


def test_sliding_is_conjugation_by_prefix():
    rng = random.Random(47)
    for _ in range(400):
        x = random_braid(rng, rng.randrange(1, 8), rng.randrange(-3, 4))
        result, prefix = _first_slide(x)
        assert prefix == _prefix(x)
        assert result == conjugate(x, braid_from_factors(0, (prefix,)))


def test_delta_powers_are_fixed():
    for p in (-2, 0, 1, 3):
        x = GarsideBraid(p, ())
        result, prefix = _first_slide(x)
        assert result == x and prefix == Simple.ONE
        assert slide_to_circuit(x).steps == (x,)


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
        y = _first_slide(x)[0]
        assert y.power >= x.power  # inf
        assert y.power + len(y.factors) <= x.power + len(x.factors)  # sup


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
        t = _prefix(steps[-1])
        result = conjugate(steps[-1], GarsideBraid(0, (t,)))
        prefixes.append(t)
        if result in steps:
            start = steps.index(result)
            break
        steps.append(result)
    z = IDENTITY
    for t in prefixes[:start]:
        z = multiply(z, GarsideBraid(0, (t,)))
    traj = slide_to_circuit(x)
    assert traj.steps == tuple(steps)
    assert traj.prefixes == tuple(prefixes)
    assert traj.cycle_start == start
    assert traj.accumulated_conjugator == z
    assert conjugate(x, z) == traj.representative
