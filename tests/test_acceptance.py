"""Acceptance gate: the thirteen end-to-end properties of the package.

Each test is numbered and self-contained in what it asserts; shared heavy
computations (the beta-family sliding circuit sets and a pool of random SC
sets) live in module-scoped fixtures.
"""

from __future__ import annotations

import math
import random
import time

import pytest

from bkl4.circuits import (
    DEFAULT_CAP,
    _find_conjugator,
    _orbits,
    circuit_graph,
    compute_sc,
    quotient_graph,
)
from bkl4.classical import classical_is_trivial
from bkl4.engine import (
    IDENTITY,
    GarsideBraid,
    braid_from_factors,
    braid_from_letters,
    conjugate,
    invariants,
    normalize_factors,
)
from bkl4.simples import (
    ATOMS,
    COMPLEMENT,
    COMPOSE,
    DIVISORS,
    LEFT_WEIGHTED,
    TAU_POWER,
    WEIGHT,
    Simple,
    self_check,
)
from bkl4.sliding import _slide, is_rigid, slide_to_circuit
from bkl4.solver import CONJUGATE, NOT_CONJUGATE, solve_conjugacy, verify_certificate
from braids import beta_braid, beta_swap, random_braid, to_artin_letters
from reference_sc import reference_quotient, reference_sc

# ---------------------------------------------------------------------------
# Shared fixtures


@pytest.fixture(scope="module")
def beta_sc():
    """SC sets of beta_k for k = 1..8, with per-k wall times."""
    data = {}
    for k in range(1, 9):
        x = beta_braid(k)
        start = time.perf_counter()
        sc = compute_sc(x)
        elapsed = time.perf_counter() - start
        data[k] = (x, sc, elapsed)
    return data


@pytest.fixture(scope="module")
def random_sc_pool():
    """200 SC sets of random braids (canonical length 1..6)."""
    rng = random.Random(2024)
    pool = []
    while len(pool) < 200:
        x = random_braid(rng, rng.randrange(1, 7), rng.randrange(-2, 3))
        pool.append(compute_sc(x))
    return pool


# ---------------------------------------------------------------------------
# 1. The beta family: exact SC sizes, path quotients, rigidity, length.


def test_01_beta_family(beta_sc):
    start_total = sum(elapsed for _, _, elapsed in (beta_sc[k] for k in range(1, 6)))
    for k in range(1, 6):
        x, sc, _ = beta_sc[k]
        assert is_rigid(x)
        assert x.power == 0
        assert x.canonical_length == 3 * k + 5
        assert sc.size == 4 * (3 * k + 2) * (3 * k + 5)
        graph = quotient_graph(sc)
        assert graph.vertex_count == 3 * k + 2
        assert graph.is_path()
    assert [beta_sc[k][1].size for k in range(1, 6)] == [160, 352, 616, 952, 1360]
    assert start_total < 300.0  # five-minute budget for k = 1..5


# ---------------------------------------------------------------------------
# 2. Canonical-length-one classes: SC of an atom power is the six powers.


def test_02_atom_powers():
    for m in (1, 2, 3):
        expected = {braid_from_factors(0, (a,) * m) for a in ATOMS}
        for atom in ATOMS:
            sc = compute_sc(braid_from_factors(0, (atom,) * m))
            assert sc.size == 6
            assert set(sc.elements) == expected


# ---------------------------------------------------------------------------
# 3. Structural table identities over all 14 simples / all 196 pairs.


def test_03_table_self_checks():
    simples = list(Simple)
    assert len(simples) == 14
    for s in simples:
        assert COMPLEMENT[COMPLEMENT[s]] == TAU_POWER[1][s]
        assert TAU_POWER[1][TAU_POWER[3][s]] == s
        assert WEIGHT[s] + WEIGHT[COMPLEMENT[s]] == 3
        assert COMPOSE[s][COMPLEMENT[s]] == Simple.DELTA
    # A weight-2 simple a followed by any simple b is already left-weighted
    # whenever delta does not divide a*b.
    for a in simples:
        for b in simples:
            if WEIGHT[a] == 2 and normalize_factors((a, b))[0] == 0:
                assert LEFT_WEIGHTED[a][b]
    self_check()


# ---------------------------------------------------------------------------
# 4. Two independent engines agree on word triviality.

_ARTIN = {1: Simple.A12, 2: Simple.A23, 3: Simple.A34}


def _dual_from_artin(word):
    return braid_from_letters(
        [(_ARTIN[abs(i)], 1 if i > 0 else -1) for i in word]
    )


def _respell(word):
    """An equal braid word produced by the dual engine's normal form."""
    x = _dual_from_artin(word)
    letters = []
    if x.power:
        letters.append((Simple.DELTA, x.power))
    letters.extend((factor, 1) for factor in x.factors)
    return to_artin_letters(letters)


def test_04_oracle_equivalence():
    rng = random.Random(4)
    alphabet = (1, 2, 3, -1, -2, -3)
    trivial_seen = nontrivial_seen = 0
    for i in range(10_000):
        w1 = [rng.choice(alphabet) for _ in range(rng.randrange(0, 21))]
        if i % 3 == 0:
            w2 = _respell(w1[:12])
            w1 = w1[:12]
        else:
            w2 = [rng.choice(alphabet) for _ in range(rng.randrange(0, 21))]
        product = w1 + [-letter for letter in reversed(w2)]
        dual_trivial = _dual_from_artin(product) == IDENTITY
        classical_trivial = classical_is_trivial(product)
        assert dual_trivial == classical_trivial
        if i % 3 == 0:
            assert dual_trivial  # built to be trivial
        if dual_trivial:
            trivial_seen += 1
        else:
            nontrivial_seen += 1
    assert trivial_seen >= 3_000 and nontrivial_seen >= 5_000


# ---------------------------------------------------------------------------
# 5. After 3*len slidings, (inf, sup) has stabilized.


def test_05_sliding_bound():
    rng = random.Random(5)
    for _ in range(10_000):
        x = random_braid(rng, rng.randrange(1, 31), rng.randrange(-3, 4))
        p, factors = x.power, x.factors
        for _ in range(3 * x.canonical_length):
            p, factors, _ = _slide(p, factors)
        stable = (p, p + len(factors))  # (inf, sup)
        for _ in range(10):
            p, factors, _ = _slide(p, factors)
            assert (p, p + len(factors)) == stable


# ---------------------------------------------------------------------------
# 6. Every vertex of an SC set shares (inf, sup, len, k1, k2).


def test_06_sss_invariants_constant(random_sc_pool, beta_sc):
    sets = list(random_sc_pool) + [beta_sc[k][1] for k in range(1, 6)]
    assert len(sets) >= 200
    for sc in sets:
        inv = invariants(sc.representative)
        signature = (inv.inf, inv.sup, inv.canonical_length, inv.k1, inv.k2)
        for y in sc.elements:
            other = invariants(y)
            assert (
                other.inf,
                other.sup,
                other.canonical_length,
                other.k1,
                other.k2,
            ) == signature


# ---------------------------------------------------------------------------
# 7. Orbits inside rigid SC sets have size at most 4*len.


def test_07_orbit_bound(random_sc_pool, beta_sc):
    checked = 0
    sets = list(random_sc_pool) + [beta_sc[k][1] for k in range(1, 9)]
    for sc in sets:
        if not sc.rigid:
            continue
        bound = 4 * sc.representative.canonical_length
        for orbit in sc.orbits:
            assert orbit.size <= bound
        checked += 1
    assert checked >= 50


# ---------------------------------------------------------------------------
# 8. Rigid braids mixing weight-1 and weight-2 factors: SC is one orbit.


def _mixed_weight_rigid_braids(count):
    rng = random.Random(8)
    found = []
    # Seed with cyclic patterns alternating a weight-2 pair and a diagonal.
    for reps in (1, 2, 3):
        found.append(
            braid_from_factors(0, (Simple.P14_23, Simple.C124, Simple.A13) * reps)
        )
    while len(found) < count:
        x = random_braid(rng, rng.randrange(2, 7), rng.randrange(-2, 3))
        if {WEIGHT[f] for f in x.factors} == {1, 2} and is_rigid(x):
            found.append(x)
    return found


def test_08_mixed_weight_single_orbit():
    braids = _mixed_weight_rigid_braids(100)
    assert len(braids) >= 100
    for x in braids:
        assert is_rigid(x)
        assert {WEIGHT[f] for f in x.factors} == {1, 2}
        sc = compute_sc(x)
        assert len(sc.orbits) == 1
        assert sc.size <= 4 * x.canonical_length


# ---------------------------------------------------------------------------
# 9. Rigid products of twisted edge-atom power blocks: small quotients, and
#    strict-prefix minimal arrows exist exactly when the block count is a
#    multiple of three.


def _edge_form(r, ks):
    factors = []
    for j in range(1, r + 1):
        factors.extend([TAU_POWER[(j - r) % 4][Simple.A23]] * ks[j - 1])
    return braid_from_factors(0, tuple(factors))


def _strict_prefix_arrows(sc, y):
    iota = TAU_POWER[-y.power % 4][y.factors[0]]
    dphi = COMPLEMENT[y.factors[-1]]
    return [
        s
        for s, _ in circuit_graph(sc)[y]
        if (s in DIVISORS[iota] and s != iota)
        or (s in DIVISORS[dphi] and s != dphi)
    ]


def _edge_cases():
    rng = random.Random(9)
    cases = [(1, [k]) for k in (1, 2, 3)]
    for r in (4, 8, 12):
        for _ in range(16):
            cases.append((r, [rng.randrange(1, 3) for _ in range(r)]))
    return cases


def test_09_edge_case_family():
    cases = _edge_cases()
    assert len(cases) >= 50
    for r, ks in cases:
        y = _edge_form(r, ks)
        assert is_rigid(y)
        assert y.canonical_length == sum(ks)
        sc = compute_sc(y)
        graph = quotient_graph(sc)
        assert graph.vertex_count <= 6
        assert sc.size <= 24 * y.canonical_length
        if r > 1:
            strict = _strict_prefix_arrows(sc, y)
            if r % 3 == 0:
                assert len(strict) == 3
            else:
                assert not strict
                assert graph.vertex_count == 1


# ---------------------------------------------------------------------------
# 10. Solver round trip: conjugate pairs certified, weight mismatches refused.


def test_10_solver_round_trip():
    rng = random.Random(10)
    for _ in range(500):
        x = random_braid(rng, rng.randrange(1, 16), rng.randrange(-2, 3))
        w = random_braid(rng, rng.randrange(0, 11), rng.randrange(-2, 3))
        decision = solve_conjugacy(x, conjugate(x, w))
        assert decision.outcome == CONJUGATE
        assert verify_certificate(decision.certificate)
    for _ in range(500):
        x = random_braid(rng, rng.randrange(1, 10), rng.randrange(-2, 3))
        y = random_braid(rng, rng.randrange(1, 10), rng.randrange(-2, 3))
        if invariants(x).weight == invariants(y).weight:
            y = braid_from_factors(y.power, y.factors + (Simple.DELTA,))
        decision = solve_conjugacy(x, y)
        assert decision.outcome == NOT_CONJUGATE
        assert decision.reason == "lambda-mismatch"


# ---------------------------------------------------------------------------
# 11. Scaling: log-log slope of solve time against canonical length <= 3.5.


def test_11_solver_scaling(beta_sc):
    rng = random.Random(11)
    lengths = []
    times = []
    for k in range(1, 9):
        x = beta_sc[k][0]
        samples = []
        for _ in range(5):
            y = conjugate(x, random_braid(rng, 6, 0))
            start = time.perf_counter()
            decision = solve_conjugacy(x, y)
            samples.append(time.perf_counter() - start)
            assert decision.outcome == CONJUGATE
        samples.sort()
        lengths.append(math.log(x.canonical_length))
        times.append(math.log(max(samples[2], 1e-9)))  # median of five
    n = len(lengths)
    mean_l = sum(lengths) / n
    mean_t = sum(times) / n
    slope = sum(
        (a - mean_l) * (b - mean_t) for a, b in zip(lengths, times)
    ) / sum((a - mean_l) ** 2 for a in lengths)
    assert slope <= 3.5, f"observed slope {slope:.2f}"


# ---------------------------------------------------------------------------
# 12. Quadratic size of SC on the beta family: #SC / len^2 <= 4.5.


def test_12_quadratic_sc_bound(beta_sc):
    for k in range(1, 9):
        x, sc, _ = beta_sc[k]
        ell = x.canonical_length
        assert sc.size / (ell * ell) <= 4.5


# ---------------------------------------------------------------------------
# 13. Full enumeration below cubic time: SC(beta_k) for canonical length 29
#     to 101, log-log slope of the time against the length <= 2.5.  A swap
#     of two of beta_k's factors is not conjugate to it but passes every
#     prefilter, so the solver answers 'disjoint-SC' from the complete set of
#     the swap, whose 2 orbits it reads before SC(beta_k) is complete.


def test_13_full_enumeration_scaling():
    lengths = []
    times = []
    for k in range(8, 33, 4):
        x, y = beta_swap(k)
        decision = solve_conjugacy(x, y)
        assert (decision.outcome, decision.reason) == (NOT_CONJUGATE, "disjoint-SC")
        samples = []
        for _ in range(3):
            start = time.process_time()
            compute_sc(x)
            samples.append(time.process_time() - start)
        lengths.append(math.log(x.canonical_length))
        times.append(math.log(max(min(samples), 1e-9)))
    mean_l = sum(lengths) / len(lengths)
    mean_t = sum(times) / len(times)
    slope = sum(
        (a - mean_l) * (b - mean_t) for a, b in zip(lengths, times)
    ) / sum((a - mean_l) ** 2 for a in lengths)
    # The slope measured 1.15 to 1.53 in 8 runs on 2 cores.
    assert slope <= 2.5, f"observed slope {slope:.2f}"


# ---------------------------------------------------------------------------
# The orbit-at-a-time search against the per-element reference search, on the
# pools of tests 1, 6-9 and 12: equal SC sets, orbits and quotient edges.


def test_sc_search_matches_reference_on_acceptance_pools(random_sc_pool, beta_sc):
    sets = [beta_sc[k][1] for k in range(1, 9)] + list(random_sc_pool)
    sets += [compute_sc(x) for x in _mixed_weight_rigid_braids(100)]
    sets += [compute_sc(_edge_form(r, ks)) for r, ks in _edge_cases()]
    sets += [compute_sc(GarsideBraid(p)) for p in range(-3, 5)]
    # A cap equal to |SC| admits the whole set.
    sets += [compute_sc(sc.base, cap=sc.size) for sc in sets[:8] + sets[-20:]]
    assert sum(not sc.rigid for sc in sets) >= 40
    for sc in sets:
        reference = reference_sc(sc.base)
        assert set(sc.elements) == set(reference)
        orbits, labels = reference_quotient(reference)
        assert [orbit.members for orbit in sc.orbits] == orbits
        assert quotient_graph(sc).edge_labels == labels


def test_sc_from_a_sliding_walk_matches_sc_from_its_start(random_sc_pool, beta_sc):
    # The solver searches SC from the sliding walk it has already taken and
    # stops at the orbit that holds its target: from that walk, each orbit's
    # representative must get the conjugator the complete set gives it, and
    # the solver's search must certify every representative against the base.
    sets = [beta_sc[k][1] for k in range(1, 9)] + list(random_sc_pool)
    sets += [compute_sc(x) for x in _mixed_weight_rigid_braids(100)]
    sets += [compute_sc(_edge_form(r, ks)) for r, ks in _edge_cases()]
    for sc in sets:
        walk = slide_to_circuit(sc.base)
        assert walk.representative == sc.representative
        conjugators = sc.conjugators()
        for orbit in _orbits(walk, DEFAULT_CAP):
            assert orbit._conjugator(orbit._key) == conjugators[orbit.representative]
        representatives = [orbit.representative for orbit in sc.orbits]
        for y in representatives:
            z = _find_conjugator(walk, slide_to_circuit(y), DEFAULT_CAP)
            assert conjugate(y, z) == sc.base
        # Verifying every conjugator of beta_5..beta_8 takes about 20 s on a
        # 2-core VM; there each orbit's representative is verified.
        checked = representatives if sc.size > 1000 else sc.elements
        for element in checked:
            assert conjugate(sc.base, conjugators[element]) == element
