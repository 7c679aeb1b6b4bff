"""Tests for the conjugacy decision and search solver."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bkl4.circuits
import bkl4.solver
from bkl4.circuits import DEFAULT_CAP, CapExceededError, compute_sc
from bkl4.engine import (
    IDENTITY,
    GarsideBraid,
    braid_from_factors,
    braid_from_letters,
    conjugate,
    invariants,
    power,
)
from bkl4.simples import Simple
from bkl4.sliding import is_rigid, slide_to_circuit
from bkl4.solver import (
    CONJUGATE,
    INCONCLUSIVE,
    NOT_CONJUGATE,
    ConjugacyCertificate,
    is_periodic,
    power_to_rigid,
    solve_conjugacy,
    verify_certificate,
)
from bkl4.words import parse_braid
from braids import (
    RIGID_KINDS,
    beta_braid,
    beta_swap,
    random_braid,
    rigid_braid,
    to_artin_letters,
)
from reference_sc import reference_sc

S, W, N, E, M, A = (
    Simple.A12,
    Simple.A23,
    Simple.A34,
    Simple.A14,
    Simple.A13,
    Simple.A24,
)


def test_certificate_verification():
    x = GarsideBraid(0, (W,))
    y = GarsideBraid(0, (M,))
    good = ConjugacyCertificate(x, y, GarsideBraid(0, (S,)))  # a13^a12 = a23
    assert verify_certificate(good)
    bad = ConjugacyCertificate(x, y, GarsideBraid(0, (N,)))
    assert not verify_certificate(bad)


def test_equal_braids_are_conjugate():
    b = beta_braid(1)
    decision = solve_conjugacy(b, b)
    assert decision.outcome == CONJUGATE
    assert decision.certificate.z == IDENTITY
    assert decision.path == "identical"
    assert decision.periodic is None


def test_lambda_mismatch_frozen():
    decision = solve_conjugacy(GarsideBraid(0, (S,)), GarsideBraid(0, (S, S)))
    assert decision.outcome == NOT_CONJUGATE
    assert decision.reason == "lambda-mismatch"
    assert decision.certificate is None
    assert decision.path == "lambda"
    assert decision.periodic is None


def test_type_mismatch_periodic_vs_not():
    gamma = braid_from_letters([(Simple.DELTA, 1), (S, 1)])  # periodic, weight 4
    x = GarsideBraid(0, (S, S, S, S))  # weight 4, not periodic
    assert is_periodic(gamma) and not is_periodic(x)
    decision = solve_conjugacy(x, gamma)
    assert decision.outcome == NOT_CONJUGATE
    assert decision.reason == "type-mismatch"
    assert decision.path == "type"
    assert decision.periodic is False
    # The other way round, x is the periodic one.
    decision = solve_conjugacy(gamma, x)
    assert decision.path == "type"
    assert decision.periodic is True


def test_type_mismatch_inf_sup():
    # a12^2 and p12-34 share the weight but not the circuit (inf, sup).
    decision = solve_conjugacy(
        GarsideBraid(0, (S, S)), GarsideBraid(0, (Simple.P12_34,))
    )
    assert decision.outcome == NOT_CONJUGATE
    assert decision.reason == "type-mismatch"
    assert decision.path == "type"
    assert decision.periodic is False


def test_disjoint_sc_frozen():
    # c123 and p12-34: same weight, same circuit data (inf 0, sup 1, one
    # weight-2 factor), but SC(c123) is the four triangles and SC(p12-34) is
    # the two chord pairs.
    decision = solve_conjugacy(
        GarsideBraid(0, (Simple.C123,)), GarsideBraid(0, (Simple.P12_34,))
    )
    assert decision.outcome == NOT_CONJUGATE
    assert decision.reason == "disjoint-SC"
    assert decision.path == "general"
    assert decision.periodic is False


def test_general_path_reports_periodicity():
    # A periodic braid and a conjugate of it that differs from it.
    gamma = braid_from_letters([(Simple.DELTA, 1), (S, 1)])
    decision = solve_conjugacy(gamma, conjugate(gamma, GarsideBraid(0, (M,))))
    assert decision.outcome == CONJUGATE
    assert decision.path == "general"
    assert decision.periodic is True


def test_conjugate_pairs_random():
    rng = random.Random(101)
    for _ in range(150):
        x = random_braid(rng, rng.randrange(1, 12), rng.randrange(-2, 3))
        w = random_braid(rng, rng.randrange(0, 8), rng.randrange(-2, 3))
        y = conjugate(x, w)
        decision = solve_conjugacy(x, y)
        assert decision.outcome == CONJUGATE
        cert = decision.certificate
        assert cert.x == x and cert.y == y
        assert verify_certificate(cert)


def test_atom_conjugacy():
    # All six band generators are conjugate to each other.
    for a in (W, N, E, M, A):
        decision = solve_conjugacy(GarsideBraid(0, (S,)), GarsideBraid(0, (a,)))
        assert decision.outcome == CONJUGATE
        assert verify_certificate(decision.certificate)


def test_delta_conjugates():
    rng = random.Random(7)
    delta = GarsideBraid(1, ())
    for _ in range(20):
        w = random_braid(rng, rng.randrange(0, 5), rng.randrange(-2, 3))
        decision = solve_conjugacy(conjugate(delta, w), delta)
        assert decision.outcome == CONJUGATE
        assert verify_certificate(decision.certificate)
    # Distinct delta powers are never conjugate (weight differs).
    decision = solve_conjugacy(delta, GarsideBraid(2, ()))
    assert decision.outcome == NOT_CONJUGATE


def test_is_periodic_examples():
    assert is_periodic(IDENTITY)
    assert is_periodic(GarsideBraid(1, ()))
    assert is_periodic(GarsideBraid(-3, ()))
    assert is_periodic(braid_from_factors(0, (S, W, N)))  # spells delta
    gamma = braid_from_letters([(Simple.DELTA, 1), (S, 1)])
    assert is_periodic(gamma)
    assert is_periodic(power(gamma, 5))
    assert not is_periodic(GarsideBraid(0, (S,)))
    assert not is_periodic(beta_braid(1))
    assert not is_periodic(GarsideBraid(0, (Simple.C123, S)))


def test_power_to_rigid():
    i, z, r = power_to_rigid(beta_braid(1))
    assert i == 1 and z == IDENTITY and r == beta_braid(1)
    # sigma1 sigma2 sigma1 is not rigid (nor its circuit), but its square is
    # the triangle cube c123^3.
    x = GarsideBraid(0, (Simple.C123, S))
    i, z, r = power_to_rigid(x)
    assert i == 2
    assert r == GarsideBraid(0, (Simple.C123,) * 3)
    assert conjugate(power(x, 2), z) == r


def test_assume_pa_agrees_with_general_path():
    rng = random.Random(55)
    for _ in range(60):
        x = random_braid(rng, rng.randrange(1, 9), rng.randrange(-2, 3))
        if rng.random() < 0.5:
            y = conjugate(x, random_braid(rng, rng.randrange(0, 6), 0))
        else:
            y = random_braid(rng, rng.randrange(1, 9), rng.randrange(-2, 3))
        d1 = solve_conjugacy(x, y)
        d2 = solve_conjugacy(x, y, assume_pa=True)
        assert d1.outcome == d2.outcome, (x, y)
        if d2.outcome == CONJUGATE:
            assert verify_certificate(d2.certificate)


def test_powering_path_and_its_fallback():
    # Under assume_pa: sigma1 sigma2 sigma1 has a rigid square, and powering
    # decides; a23^2 a12^3 has no rigid power, and the rigid powers of
    # c234 a23 lift to no certificate, so both fall back to the general path.
    for word, w, path in (
        ("c123.a12", "a14^3", "powering"),
        ("a23^2.a12^3", "c134.a23^2", "general"),
        ("c234.a23", "a23^2", "general"),
    ):
        x = parse_braid(word)
        decision = solve_conjugacy(x, conjugate(x, parse_braid(w)), assume_pa=True)
        assert (decision.outcome, decision.path) == (CONJUGATE, path), word
    assert power_to_rigid(parse_braid("a23^2.a12^3")) is None
    assert power_to_rigid(parse_braid("c234.a23")) is not None


def test_cap_exceeded_is_inconclusive():
    x = beta_braid(1)
    w = GarsideBraid(0, (M,))
    y = conjugate(x, w)
    assert slide_to_circuit(y).representative != slide_to_circuit(x).representative
    decision = solve_conjugacy(x, y, cap=1)
    assert decision.outcome == INCONCLUSIVE
    assert decision.reason == "cap-exceeded"
    assert decision.path == "general"
    # With the default cap the same pair resolves.
    decision = solve_conjugacy(x, y)
    assert (decision.outcome, decision.path) == (CONJUGATE, "general")


def test_solver_respects_weight_invariant():
    rng = random.Random(13)
    for _ in range(100):
        x = random_braid(rng, rng.randrange(0, 7), rng.randrange(-2, 3))
        y = random_braid(rng, rng.randrange(0, 7), rng.randrange(-2, 3))
        decision = solve_conjugacy(x, y)
        if invariants(x).weight != invariants(y).weight:
            assert decision.outcome == NOT_CONJUGATE
        if decision.outcome == CONJUGATE:
            assert verify_certificate(decision.certificate)


_braids = st.builds(
    lambda seed, length, inf: random_braid(random.Random(seed), length, inf),
    st.integers(0, 2**32),
    st.integers(0, 8),
    st.integers(-2, 2),
)


@settings(max_examples=100, deadline=None)
@given(x=_braids, w=_braids)
def test_conjugates_are_never_called_not_conjugate(x, w):
    decision = solve_conjugacy(x, conjugate(x, w))
    assert decision.outcome != NOT_CONJUGATE
    if decision.outcome == CONJUGATE:
        assert verify_certificate(decision.certificate)


def test_long_conjugates_are_solved_from_their_circuit_representatives(monkeypatch):
    # The presented braids are long conjugates; the solver works from their
    # short circuit representatives and must still certify every hit.  The
    # search starts from the walk the solver took from x: x and y slide once
    # each, and the search itself takes no second walk.
    walks = []

    def counted(x):
        walks.append(x)
        return slide_to_circuit(x)

    monkeypatch.setattr(bkl4.solver, "slide_to_circuit", counted)
    monkeypatch.setattr(bkl4.circuits, "slide_to_circuit", counted)
    rng = random.Random(2012)
    # A non-rigid class, and the class of its reversal: same circuit data,
    # disjoint SC sets.
    forward = parse_braid("p12-34.c123.a23.a23.a12.a13.a13")
    backward = parse_braid("a13.a13.a12.a23.a23.c123.p12-34")
    c123, p12_34 = GarsideBraid(0, (Simple.C123,)), GarsideBraid(0, (Simple.P12_34,))
    bases = [
        # (x, y, rigid class, conjugate)
        (beta_braid(2), beta_braid(2), True, True),
        (c123, p12_34, True, False),
        (forward, forward, False, True),
        (forward, backward, False, False),
    ]
    for x, y, rigid, conjugate_pair in bases:
        assert is_rigid(slide_to_circuit(x).representative) == rigid
        for _ in range(4):
            u = random_braid(rng, rng.randrange(8, 13), rng.randrange(-2, 3))
            w = random_braid(rng, rng.randrange(8, 13), rng.randrange(-2, 3))
            long_x, long_y = conjugate(x, u), conjugate(y, w)
            rep = slide_to_circuit(long_x).representative
            assert long_x.canonical_length > rep.canonical_length
            walks.clear()
            decision = solve_conjugacy(long_x, long_y)
            assert decision.path == "general"
            assert walks == [long_x, long_y]
            if conjugate_pair:
                assert decision.outcome == CONJUGATE
                cert = decision.certificate
                assert (cert.x, cert.y) == (long_x, long_y)
                assert verify_certificate(cert)
            else:
                assert decision.outcome == NOT_CONJUGATE
                assert decision.reason == "disjoint-SC"


# Periodic braids are the conjugates of the powers of delta and of
# delta.a12; the others here are random.
_periodic_or_not = st.one_of(
    _braids,
    st.builds(
        lambda root, e: power(root, e),
        st.sampled_from([GarsideBraid(1, ()), GarsideBraid(1, (S,))]),
        st.integers(-6, 6),
    ),
)
_long_conjugators = st.builds(
    lambda seed, length, inf: random_braid(random.Random(seed), length, inf),
    st.integers(0, 2**32),
    st.integers(3, 8),
    st.integers(-2, 2),
)


@settings(max_examples=100, deadline=None)
@given(x=_periodic_or_not, w=_long_conjugators)
def test_periodicity_is_a_conjugacy_invariant(x, w):
    assert is_periodic(conjugate(x, w)) == is_periodic(x)


# Rigid braids are drawn directly: a quarter to a third of random normal
# forms of length 2 to 8 are rigid and no delta power is, so filtering
# `_braids` can reject most of the draws Hypothesis makes and fail its
# health check.
_rigid_braids = st.builds(
    rigid_braid,
    st.integers(0, 2**32),
    st.sampled_from(RIGID_KINDS),
    st.integers(-3, 3),
    st.integers(1, 3),
)


@settings(max_examples=150, deadline=None)
@given(x=_rigid_braids, m=st.integers(1, 4))
def test_rigid_braids_are_never_periodic(x, m):
    # The m-th power of a rigid braid with r factors is rigid with m r
    # factors, so no power of it is a power of delta.
    assert is_rigid(x)
    xm = power(x, m)
    assert is_rigid(xm)
    assert xm.canonical_length == m * x.canonical_length
    assert not is_periodic(x)


_ARTIN = {1: Simple.A12, 2: Simple.A23, 3: Simple.A34}


def _reversed(x: GarsideBraid) -> GarsideBraid:
    """x spelled backwards in the Artin generators: same weight, and often
    the same circuit data, but in general another class."""
    letters = to_artin_letters([(Simple.DELTA, x.power)] + [(f, 1) for f in x.factors])
    return braid_from_letters(
        (_ARTIN[abs(i)], 1 if i > 0 else -1) for i in reversed(letters)
    )


def _search_start(seed: int, nonrigid: bool) -> GarsideBraid:
    """A random braid of canonical length 1..11 from `seed`; with `nonrigid`,
    the first one drawn whose circuit representative is not rigid (about
    one in six is, and only those searches use the membership memo)."""
    rng = random.Random(seed)
    while True:
        x = random_braid(rng, rng.randrange(1, 12), rng.randrange(-2, 3))
        if not nonrigid or not is_rigid(slide_to_circuit(x).representative):
            return x


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    nonrigid=st.booleans(),
    w=_braids,
    reverse=st.booleans(),
)
def test_search_decisions_agree_with_the_complete_sc(seed, nonrigid, w, reverse):
    x = _search_start(seed, nonrigid)
    # A hit or a disjoint-SC answer must agree with a complete SC(rx).  In a
    # class with no rigid element the search answers members of closed
    # orbits without sliding them, so there SC(rx) must also equal the plain
    # per-element search, which does not.
    y = _reversed(x) if reverse else conjugate(x, w)
    decision = solve_conjugacy(x, y)
    sc = compute_sc(slide_to_circuit(x).representative)
    if not sc.rigid:
        assert set(sc.elements) == set(reference_sc(x))
    if decision.outcome == CONJUGATE:
        assert verify_certificate(decision.certificate)
    elif decision.reason != "disjoint-SC":
        return
    ry = slide_to_circuit(y).representative
    assert (ry in sc.elements) == (decision.outcome == CONJUGATE)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    nonrigid=st.booleans(),
    w=_braids,
    reverse=st.booleans(),
)
def test_the_decision_does_not_depend_on_the_order_of_the_pair(
    seed, nonrigid, w, reverse
):
    # The search runs from both braids, so swapping them may move the hit to
    # the other side, but never changes the outcome or the reason.
    x = _search_start(seed, nonrigid)
    y = _reversed(x) if reverse else conjugate(x, w)
    forward, backward = solve_conjugacy(x, y), solve_conjugacy(y, x)
    assert (forward.outcome, forward.reason) == (backward.outcome, backward.reason)
    for decision in (forward, backward):
        if decision.outcome == CONJUGATE:
            assert verify_certificate(decision.certificate)


# The two-sided search, counted: the orbits each side closes.


@pytest.fixture
def closed(monkeypatch):
    """The orbits the solver's searches close, in order, as (the braid the
    search starts from, orbit size)."""
    log = []
    search = bkl4.circuits._orbits

    def counting(entry, cap):
        for orbit in search(entry, cap):
            log.append((entry.steps[0], orbit.size))
            yield orbit

    monkeypatch.setattr(bkl4.circuits, "_orbits", counting)
    return log


def _count(log, start) -> int:
    return sum(s == start for s, _ in log)


def test_a_beta_swap_is_decided_by_the_swaps_two_orbits(closed):
    # SC(beta_k) has 3k + 2 orbits and SC of the swap 2.  SC(y)'s search
    # runs one orbit behind SC(x)'s (x1, x2, y1, x3, y2, ...), so it is
    # complete once it finds no orbit after its last, by which time SC(x)'s
    # has closed 2 orbits more than SC(y)'s.
    for k in (8, 16, 32):
        x, y = beta_swap(k)
        orbits = len(compute_sc(y).orbits)
        assert orbits == 2
        closed.clear()
        decision = solve_conjugacy(x, y)
        assert (decision.outcome, decision.reason) == (NOT_CONJUGATE, "disjoint-SC")
        assert (_count(closed, x), _count(closed, y)) == (orbits + 2, orbits), k


def test_a_one_orbit_set_decides_from_either_side(closed):
    # Two non-rigid classes with the same circuit data: SC(one) is one orbit
    # of 36 elements, SC(many) four orbits of 12.  As x, SC(one) is complete
    # before SC(many)'s search starts; as y, it is complete once SC(many)'s
    # search has closed 3 of its 4 orbits.
    one, many = parse_braid("c124.a12.a12.a13.a24"), parse_braid("c234.a34.a34.a23.a24")
    assert [o.size for o in compute_sc(many).orbits] == [12] * 4
    closed.clear()
    decision = solve_conjugacy(one, many)
    assert (decision.outcome, decision.reason) == (NOT_CONJUGATE, "disjoint-SC")
    assert closed == [(one, 36)]
    closed.clear()
    decision = solve_conjugacy(many, one)
    assert (decision.outcome, decision.reason) == (NOT_CONJUGATE, "disjoint-SC")
    assert closed == [(many, 12), (many, 12), (one, 36), (many, 12)]


def test_a_rigid_and_a_non_rigid_circuit_close_no_orbit(closed):
    # In a class with a rigid element SC is the set of its rigid conjugates,
    # so a rigid and a non-rigid circuit representative are never conjugate.
    # These two pass the prefilters (the same circuit inf, sup, k1 and k2).
    x, y = parse_braid("a23.a12.a13.a24"), parse_braid("c234.a13.a23")
    rx, ry = slide_to_circuit(x).representative, slide_to_circuit(y).representative
    assert is_rigid(rx) and not is_rigid(ry)
    for a, b in ((x, y), (y, x)):
        decision = solve_conjugacy(a, b)
        assert (decision.outcome, decision.reason) == (NOT_CONJUGATE, "disjoint-SC")
        assert decision.path == "general"
    assert closed == []


def test_a_swap_of_a_long_beta_is_decided_under_the_default_cap():
    # SC(beta_170) has 4 (3k + 2)(3k + 5) = 1,054,720 elements (test 1 of
    # the acceptance suite), over the default cap; SC of the swap decides.
    x, y = beta_swap(170)
    with pytest.raises(CapExceededError):
        compute_sc(x)
    decision = solve_conjugacy(x, y, cap=DEFAULT_CAP)
    assert (decision.outcome, decision.reason) == (NOT_CONJUGATE, "disjoint-SC")


def test_a_certificate_from_the_second_braids_set(closed):
    # Two elements of SC(beta_1), which has 5 orbits: y's search finds rx in
    # its third orbit before x's finds ry in its fifth, and the certificate
    # comes from the y side, z = h zx^-1 with y^h = rx and x^zx = rx.
    x = parse_braid("a12.a12.a14.a34.a23.a12.a13.a24")
    y = parse_braid("a12.a14.a34.a13.a24.a34.a23.a24")
    decision = solve_conjugacy(x, y)
    assert decision.outcome == CONJUGATE and decision.path == "general"
    assert verify_certificate(decision.certificate)
    assert (_count(closed, x), _count(closed, y)) == (4, 3)
    assert closed[-1][0] == y
