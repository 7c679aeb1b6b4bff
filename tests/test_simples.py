"""Frozen-value and invariant tests for the 14-simple tables, and the value
type they and every factor of the package hold."""

from __future__ import annotations

import itertools

import pytest

from bkl4 import simples
from bkl4.circuits import compute_sc
from bkl4.engine import braid_from_factors, conjugate, invert, multiply
from bkl4.simples import (
    ATOMS,
    COMPLEMENT,
    COMPOSE,
    DIVISORS,
    LEFT_WEIGHTED,
    LQUOT,
    MEET,
    PROPER_SIMPLES,
    RENORM,
    SIMPLE_NAMES,
    SPELLING,
    TAU_POWER,
    WEIGHT,
    Simple,
    self_check,
)
from bkl4.sliding import slide_to_circuit
from bkl4.solver import solve_conjugacy
from bkl4.words import parse_braid
from braids import FOLLOWS, beta_braid

S, W, N, E, M, A = (
    Simple.A12,
    Simple.A23,
    Simple.A34,
    Simple.A14,
    Simple.A13,
    Simple.A24,
)


def test_names_round_trip():
    assert len(set(SIMPLE_NAMES)) == 14
    for s in Simple:
        assert Simple(SIMPLE_NAMES.index(SIMPLE_NAMES[s])) == s
    assert SIMPLE_NAMES[Simple.P12_34] == "p12-34"
    assert SIMPLE_NAMES[Simple.DELTA] == "delta"
    assert "a21" not in SIMPLE_NAMES


def test_weights():
    assert WEIGHT[Simple.ONE] == 0
    for a in ATOMS:
        assert WEIGHT[a] == 1
    for s in (Simple.C123, Simple.C124, Simple.C134, Simple.C234,
              Simple.P12_34, Simple.P14_23):
        assert WEIGHT[s] == 2
    assert WEIGHT[Simple.DELTA] == 3
    for s in Simple:
        assert len(SPELLING[s]) == WEIGHT[s]
        assert all(a in ATOMS for a in SPELLING[s])


def test_complement_table_frozen():
    expected = {
        Simple.ONE: Simple.DELTA,
        Simple.A12: Simple.C234,
        Simple.A23: Simple.C134,
        Simple.A34: Simple.C124,
        Simple.A14: Simple.C123,
        Simple.A13: Simple.P12_34,
        Simple.A24: Simple.P14_23,
        Simple.C123: Simple.A34,
        Simple.C124: Simple.A23,
        Simple.C134: Simple.A12,
        Simple.C234: Simple.A14,
        Simple.P12_34: Simple.A24,
        Simple.P14_23: Simple.A13,
        Simple.DELTA: Simple.ONE,
    }
    for s in Simple:
        assert COMPLEMENT[s] == expected[s]


def test_tau_cycles_frozen():
    # tau rotates the square a quarter turn: two 4-cycles, one 2-cycle on the
    # diagonals, one 2-cycle on the chord pairs, fixing 1 and delta.
    tau = TAU_POWER[1]
    assert tau[S] == E and tau[E] == N and tau[N] == W and tau[W] == S
    assert tau[M] == A and tau[A] == M
    assert tau[Simple.C123] == Simple.C124
    assert tau[Simple.C124] == Simple.C134
    assert tau[Simple.C134] == Simple.C234
    assert tau[Simple.C234] == Simple.C123
    assert tau[Simple.P12_34] == Simple.P14_23
    assert tau[Simple.P14_23] == Simple.P12_34
    assert tau[Simple.ONE] == Simple.ONE
    assert tau[Simple.DELTA] == Simple.DELTA
    for s in Simple:
        assert TAU_POWER[0][s] == s
        assert TAU_POWER[2][s] == tau[tau[s]]
        assert TAU_POWER[3][tau[s]] == s


def test_divisor_sets_frozen():
    assert DIVISORS[Simple.C123] == frozenset({Simple.ONE, S, W, M, Simple.C123})
    assert DIVISORS[Simple.C234] == frozenset({Simple.ONE, W, N, A, Simple.C234})
    assert DIVISORS[Simple.C134] == frozenset({Simple.ONE, N, E, M, Simple.C134})
    assert DIVISORS[Simple.C124] == frozenset({Simple.ONE, E, S, A, Simple.C124})
    assert DIVISORS[Simple.P12_34] == frozenset({Simple.ONE, S, N, Simple.P12_34})
    assert DIVISORS[Simple.P14_23] == frozenset({Simple.ONE, E, W, Simple.P14_23})
    assert DIVISORS[Simple.DELTA] == frozenset(Simple)
    assert DIVISORS[Simple.ONE] == frozenset({Simple.ONE})
    for a in ATOMS:
        assert DIVISORS[a] == frozenset({Simple.ONE, a})


def test_meet_examples():
    assert MEET[Simple.C123][Simple.C134] == M
    assert MEET[Simple.C123][Simple.C234] == W
    assert MEET[Simple.P12_34][Simple.P14_23] == Simple.ONE
    assert MEET[Simple.C123][Simple.P12_34] == S
    assert MEET[S][W] == Simple.ONE
    assert MEET[Simple.DELTA][Simple.C124] == Simple.C124
    for a, b in itertools.product(Simple, Simple):
        assert MEET[a][b] == MEET[b][a]
        assert MEET[a][b] in DIVISORS[a]


def test_compose_examples():
    # Relation cells: each two-letter spelling composes to its weight-2 simple.
    assert COMPOSE[S][W] == Simple.C123
    assert COMPOSE[W][M] == Simple.C123
    assert COMPOSE[M][S] == Simple.C123
    assert COMPOSE[W][N] == Simple.C234
    assert COMPOSE[N][A] == Simple.C234
    assert COMPOSE[A][W] == Simple.C234
    assert COMPOSE[N][E] == Simple.C134
    assert COMPOSE[E][M] == Simple.C134
    assert COMPOSE[M][N] == Simple.C134
    assert COMPOSE[E][S] == Simple.C124
    assert COMPOSE[S][A] == Simple.C124
    assert COMPOSE[A][E] == Simple.C124
    assert COMPOSE[N][S] == Simple.P12_34
    assert COMPOSE[S][N] == Simple.P12_34
    assert COMPOSE[E][W] == Simple.P14_23
    assert COMPOSE[W][E] == Simple.P14_23
    # Non-simple products.
    assert COMPOSE[S][S] is None
    assert COMPOSE[M][A] is None
    assert COMPOSE[M][Simple.P14_23] is None
    assert COMPOSE[Simple.C123][Simple.C123] is None
    # Composing up to delta.
    assert COMPOSE[S][Simple.C234] == Simple.DELTA
    assert COMPOSE[Simple.C123][N] == Simple.DELTA
    for u in Simple:
        assert COMPOSE[Simple.ONE][u] == u
        assert COMPOSE[u][Simple.ONE] == u


def test_lquot():
    assert LQUOT[S][Simple.C123] == W
    assert LQUOT[M][Simple.C123] == S
    assert LQUOT[S][Simple.DELTA] == Simple.C234
    assert LQUOT[Simple.C123][Simple.DELTA] == N
    assert LQUOT[W][Simple.C134] is None
    for v in Simple:
        assert LQUOT[Simple.ONE][v] == v
        assert LQUOT[v][v] == Simple.ONE
        for t in DIVISORS[v]:
            q = LQUOT[t][v]
            assert q is not None and COMPOSE[t][q] == v


def test_left_weighted_examples():
    assert LEFT_WEIGHTED[S][S] is True
    assert LEFT_WEIGHTED[S][W] is False  # composes into c123
    assert LEFT_WEIGHTED[S][E] is True
    assert LEFT_WEIGHTED[S][M] is True
    assert LEFT_WEIGHTED[Simple.P14_23][Simple.C124] is True
    assert LEFT_WEIGHTED[Simple.C123][N] is False  # composes into delta
    for a, b in itertools.product(Simple, Simple):
        assert LEFT_WEIGHTED[a][b] == (MEET[COMPLEMENT[a]][b] == Simple.ONE)


def test_left_weighted_c123_a12():
    # Explicit: COMPLEMENT[c123] = a34 and MEET[a34][a12] = 1, so c123.a12 is
    # left-weighted even though both letters involve strands 1 and 2.
    assert MEET[COMPLEMENT[Simple.C123]][S] == Simple.ONE
    assert LEFT_WEIGHTED[Simple.C123][S] is True


def test_renorm_pair_and_follows():
    # A non-normal pair slides: (a13, c123) -> a13 absorbs MEET[p12-34][c123]=s.
    assert RENORM[M][Simple.C123] == (Simple.C123, W)
    assert LEFT_WEIGHTED[M][Simple.C123] is False
    assert LEFT_WEIGHTED[Simple.C123][W] is True  # MEET[a34][a23] = 1
    assert RENORM[Simple.C123][N] == (Simple.DELTA, Simple.ONE)
    assert LEFT_WEIGHTED[S][S] is True
    # Trailing identity and leading delta behave as sentinels.
    assert RENORM[Simple.ONE][M] == (M, Simple.ONE)
    assert RENORM[S][Simple.DELTA] == (Simple.DELTA, TAU_POWER[1][S])
    assert RENORM[Simple.DELTA][M] == (Simple.DELTA, M)
    # FOLLOWS enumerates the allowed successors.
    assert FOLLOWS[S] == (S, E, M)
    assert FOLLOWS[Simple.DELTA] == PROPER_SIMPLES
    for u in PROPER_SIMPLES:
        for v in PROPER_SIMPLES:
            assert (v in FOLLOWS[u]) == LEFT_WEIGHTED[u][v]


def test_renorm_fixes_exactly_the_left_weighted_pairs():
    # The single passes of `bkl4.engine` stop at the first renorm step that
    # changes nothing, taking the rest of the pairs for normal: that needs
    # RENORM[u][v] == (u, v) exactly when u.v is left-weighted, on all 196
    # pairs (1 and delta included).
    for u, v in itertools.product(Simple, Simple):
        assert (RENORM[u][v] == (u, v)) == LEFT_WEIGHTED[u][v], (u, v)


def test_weight2_normality_criterion():
    # For a of weight 2 and b proper: a.b left-weighted iff COMPLEMENT[a]
    # does not divide b.
    for a in (Simple.C123, Simple.C124, Simple.C134, Simple.C234,
              Simple.P12_34, Simple.P14_23):
        for b in PROPER_SIMPLES:
            assert LEFT_WEIGHTED[a][b] == (COMPLEMENT[a] not in DIVISORS[b])


def test_self_check_runs():
    self_check()


def test_self_check_raises_on_a_broken_table(monkeypatch):
    # A plain raise, not an assert, so the check also runs under python -O.
    broken = list(COMPLEMENT)
    broken[Simple.A12] = Simple.C123
    monkeypatch.setattr(simples, "COMPLEMENT", tuple(broken))
    with pytest.raises(RuntimeError, match="complement"):
        self_check()


def test_self_check_needs_divisibility_to_be_a_partial_order(monkeypatch):
    # Meet associativity is not checked on its own: it follows from this law
    # and "meet is the gcd".  Here a12 divides c123 but 1 does not.
    broken = list(DIVISORS)
    broken[Simple.C123] = DIVISORS[Simple.C123] - {Simple.ONE}
    monkeypatch.setattr(simples, "DIVISORS", tuple(broken))
    with pytest.raises(RuntimeError, match="partial order"):
        self_check()


def test_atom_count_and_proper_count():
    assert len(ATOMS) == 6
    assert len(PROPER_SIMPLES) == 12
    assert len(FOLLOWS) == 14


def _leaves(value):
    """The values a table holds, through its nested tuples and sets."""
    if isinstance(value, (tuple, frozenset)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def test_tables_and_factors_are_exact_ints():
    # A `Simple` member equals its int, so an answer stays right if one leaks
    # into a table or a factor; it only takes the slow tuple subscript and
    # stops the passes' `is` exits from firing.  Only a type test sees it.
    for name in ("RENORM", "TAU_POWER", "COMPLEMENT", "MEET", "DIVISORS",
                 "LEFT_WEIGHTED", "COMPOSE", "LQUOT", "SPELLING", "WEIGHT",
                 "ATOMS", "PROPER_SIMPLES"):
        kinds = {type(v) for v in _leaves(getattr(simples, name))}
        expected = {bool} if name == "LEFT_WEIGHTED" else {int}
        if name in ("COMPOSE", "LQUOT"):
            expected.add(type(None))
        assert kinds == expected, name

    braids = []
    non_rigid = parse_braid("c123.a13.a13.a23")
    w = parse_braid("a13^-1.d.c234.a12^2")
    for x in (beta_braid(1), beta_braid(2), beta_braid(3), non_rigid):
        y = conjugate(x, w)
        braids += [x, y, multiply(x, w), invert(x), conjugate(x, parse_braid("a24"))]
        walk = slide_to_circuit(y)
        braids += walk.steps
        assert all(type(t) is int for t in walk.prefixes)
        sc = compute_sc(x)
        braids += sc.elements
        braids += [orbit.representative for orbit in sc.orbits]
        cert = solve_conjugacy(x, y).certificate
        braids += [cert.x, cert.y, cert.z]
    assert not compute_sc(non_rigid).rigid
    # Members passed in come back as ints, a lone one too.
    braids += [braid_from_factors(0, [Simple.A12]), braid_from_factors(0, [Simple.A12] * 2)]
    assert all(type(f) is int for b in braids for f in b.factors)


def test_canonical_order_is_weight_order():
    # Arrows and their candidates are listed in (weight, index) order, which
    # `bkl4.circuits` gets by sorting simples by value.
    assert sorted(Simple, key=lambda s: (WEIGHT[s], s)) == list(Simple)
