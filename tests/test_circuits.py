"""Tests for sliding circuit sets, orbits, and the quotient graph."""

from __future__ import annotations

import gc
import random
import sys
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bkl4.engine
from bkl4 import circuits
from bkl4.circuits import (
    CapExceededError,
    QuotientGraph,
    circuit_graph,
    compute_sc,
    quotient_graph,
    resolve_cap,
)
from bkl4.engine import (
    GarsideBraid,
    braid_from_factors,
    conjugate,
    power,
)
from bkl4.simples import (
    ATOMS,
    COMPLEMENT,
    DIVISORS,
    LEFT_WEIGHTED,
    PROPER_SIMPLES,
    TAU_POWER,
    WEIGHT,
    Simple,
)
from bkl4.sliding import is_rigid, slide_to_circuit
from braids import FOLLOWS, RIGID_KINDS, beta_braid, random_braid, rigid_braid
from reference_sc import orbit_partition, reference_orbit, reference_sc

S, W, N, E, M, A = (
    Simple.A12,
    Simple.A23,
    Simple.A34,
    Simple.A14,
    Simple.A13,
    Simple.A24,
)


def minimal_arrows(y: GarsideBraid) -> tuple[Simple, ...]:
    """The minimal arrows at y, an element of SC(y), read off the circuit
    graph of SC(y)."""
    return tuple(s for s, _ in circuit_graph(compute_sc(y))[y])


def test_minimal_arrows_of_diagonal_square_frozen():
    # At a13^2 the candidate prefixes come from iota = a13 and
    # complement(phi) = p12-34; three survive, in weight-then-index order.
    assert minimal_arrows(GarsideBraid(0, (M, M))) == (S, N, M)


def test_minimal_arrows_of_delta_powers():
    # Arrows at delta^p are the minimal simples fixed by tau^p.
    assert minimal_arrows(GarsideBraid(1, ())) == (Simple.DELTA,)
    assert minimal_arrows(GarsideBraid(-1, ())) == (Simple.DELTA,)
    assert minimal_arrows(GarsideBraid(2, ())) == (
        M,
        A,
        Simple.P12_34,
        Simple.P14_23,
    )
    assert minimal_arrows(GarsideBraid(4, ())) == ATOMS
    assert minimal_arrows(GarsideBraid(0, ())) == ATOMS


def test_six_squares_sc_frozen():
    y = GarsideBraid(0, (M, M))
    sc = compute_sc(y)
    assert sc.size == 6
    assert set(sc.elements) == {GarsideBraid(0, (a, a)) for a in ATOMS}
    assert sc.rigid
    for element, z in sc.conjugators().items():
        assert conjugate(y, z) == element
    orbits = sc.orbits
    assert [o.size for o in orbits] == [4, 2]
    assert orbits[0].representative == GarsideBraid(0, (S, S))
    assert orbits[1].representative == GarsideBraid(0, (M, M))
    q = quotient_graph(sc)
    assert q.vertex_count == 2
    assert q.edges == ((0, 1),)
    assert q.edge_labels[(0, 1)] == (S, W, N)
    assert q.is_path()


def _graph(n: int, edges: list[tuple[int, int]]) -> QuotientGraph:
    """A quotient graph on n placeholder vertices: `is_path` reads only
    their number and the edges."""
    return QuotientGraph((None,) * n, tuple(edges), {e: () for e in edges})


def test_is_path_on_hand_built_graphs():
    # A path is a tree (n - 1 edges and connected) with no degree above 2.
    assert _graph(1, []).is_path()
    assert _graph(4, [(0, 1), (1, 2), (2, 3)]).is_path()
    assert _graph(4, [(0, 2), (1, 3), (2, 3)]).is_path()  # 0 - 2 - 3 - 1
    assert not _graph(4, [(0, 1), (0, 2), (0, 3)]).is_path()  # a star
    # A triangle and an isolated vertex: n - 1 edges, degrees <= 2.
    assert not _graph(4, [(0, 1), (0, 2), (1, 2)]).is_path()
    assert not _graph(5, [(0, 1), (1, 2), (3, 4)]).is_path()  # two paths
    assert not _graph(2, []).is_path()


def test_atom_power_scs():
    for m in (1, 2, 3):
        for a in ATOMS:
            sc = compute_sc(braid_from_factors(0, (a,) * m))
            assert sc.size == 6
            assert set(sc.elements) == {
                braid_from_factors(0, (b,) * m) for b in ATOMS
            }


def test_beta_sc_sizes_and_quotient_paths():
    for k in (1, 2):
        sc = compute_sc(beta_braid(k))
        assert sc.size == 4 * (3 * k + 2) * (3 * k + 5)
        q = quotient_graph(sc)
        assert q.vertex_count == 3 * k + 2
        assert q.is_path()
        # Rigid class: every element is rigid and orbits obey the 4*len bound.
        length = 3 * k + 5
        for orbit in q.orbits:
            assert orbit.size <= 4 * length
        assert sum(o.size for o in q.orbits) == sc.size


def test_non_rigid_circuit_sc_frozen():
    # The period-3 circuit of c123.a12 and its tau rotations: 12 elements.
    sc = compute_sc(GarsideBraid(0, (Simple.C123, S)))
    assert not sc.rigid
    assert sc.size == 12
    expected = set()
    for c, atoms in (
        (Simple.C123, (S, W, M)),
        (Simple.C124, (E, S, A)),
        (Simple.C134, (N, E, M)),
        (Simple.C234, (W, N, A)),
    ):
        for a in atoms:
            expected.add(GarsideBraid(0, (c, a)))
    assert set(sc.elements) == expected
    for element, z in sc.conjugators().items():
        assert conjugate(GarsideBraid(0, (Simple.C123, S)), z) == element


def test_delta_power_scs_are_singletons():
    for p in (-2, -1, 0, 1, 2, 5):
        sc = compute_sc(GarsideBraid(p, ()))
        assert sc.size == 1
        assert sc.representative == GarsideBraid(p, ())


def test_cap_exceeded():
    with pytest.raises(CapExceededError) as info:
        compute_sc(beta_braid(1), cap=10)
    assert info.value.cap == 10


def test_cap_from_environment(monkeypatch):
    monkeypatch.setenv("B4_SC_CAP", "5")
    with pytest.raises(CapExceededError) as info:
        compute_sc(beta_braid(1))
    assert info.value.cap == 5
    monkeypatch.delenv("B4_SC_CAP")
    assert compute_sc(beta_braid(1)).size == 160


def test_cap_must_be_a_nonnegative_integer(monkeypatch):
    assert resolve_cap(0) == 0
    with pytest.raises(ValueError, match="not -1"):
        resolve_cap(-1)
    for text in ("abc", "-2", "1.5"):
        monkeypatch.setenv("B4_SC_CAP", text)
        with pytest.raises(ValueError, match="B4_SC_CAP"):
            compute_sc(beta_braid(1))
    monkeypatch.delenv("B4_SC_CAP")
    # A set of exactly `cap` elements fits; no set fits under a cap of 0.
    assert compute_sc(GarsideBraid(0, (M, M)), cap=6).size == 6
    assert compute_sc(GarsideBraid(2, ()), cap=1).size == 1
    with pytest.raises(CapExceededError):
        compute_sc(GarsideBraid(2, ()), cap=0)
    # SC(d . a13 . a13) is one cycling walk with no new tau-twists: the cap
    # bounds the walk itself.
    walk_only = GarsideBraid(1, (M, M))
    assert compute_sc(walk_only, cap=4).size == 4
    with pytest.raises(CapExceededError):
        compute_sc(walk_only, cap=3)


def test_find_conjugator_exits_early(monkeypatch):
    # The solver's search reads the orbits as they are closed and stops at
    # the first that holds its target, with the conjugator the complete set
    # gives that target.
    y = GarsideBraid(0, (M, M))
    walk = slide_to_circuit(y)
    sc = compute_sc(y)
    conjugators = sc.conjugators()
    target = GarsideBraid(0, (W, W))
    z = circuits._find_conjugator(walk, target, None)
    assert z == conjugators[target] and conjugate(y, z) == target
    closed = []
    search = circuits._orbits

    def counting(entry, cap):
        for orbit in search(entry, cap):
            closed.append(orbit.size)
            yield orbit

    monkeypatch.setattr(circuits, "_orbits", counting)
    # A target that seeds no orbit stops the search once its orbit is closed.
    inner = GarsideBraid(0, (A, A))
    z = circuits._find_conjugator(walk, inner, None)
    assert closed == [2] and z == conjugators[inner]
    assert conjugate(y, z) == inner
    # The search stops only at an element of the set's power: a member's
    # factors at another power never stop it, and the whole set is searched.
    closed.clear()
    shifted = GarsideBraid(1, (W, W))
    assert circuits._find_conjugator(walk, shifted, None) is None
    assert len(closed) == len(sc.orbits) and sum(closed) == sc.size == 6


def test_arrows_are_arrows_and_minimal():
    # The circuit graph against a brute force that shares none of its
    # candidate filter: the nontrivial simples s with y^s in the complete SC
    # are the arrows at y, and the minimal ones have no other arrow among
    # their prefixes.  On every element of SC(beta_1), of two non-rigid sets
    # and of a delta power.
    nontrivial = [s for s in Simple if s != Simple.ONE]
    bases = [beta_braid(1), *_non_rigid_classes(2, 5), GarsideBraid(2, ())]
    checked = 0
    for x in bases:
        sc = compute_sc(x)
        members = set(sc.elements)
        graph = circuit_graph(sc)
        for y in sc.elements:
            arrows = {
                s for s in nontrivial if conjugate(y, GarsideBraid(0, (s,))) in members
            }
            minimal = sorted(
                (s for s in arrows if not arrows & (DIVISORS[s] - {s})),
                key=lambda s: (WEIGHT[s], s),
            )
            assert minimal, y
            assert tuple(s for s, _ in graph[y]) == tuple(minimal), y
            checked += 1
    assert checked == 160 + 60 + 20 + 1


def test_orbit_partition_is_a_partition():
    sc = compute_sc(beta_braid(1))
    seen: set[GarsideBraid] = set()
    for orbit in sc.orbits:
        assert orbit.representative == orbit.members[0]
        members = list(orbit.members)
        assert members == sorted(members, key=lambda b: (b.power, b.factors))
        for member in orbit.members:
            assert member not in seen
            seen.add(member)
    assert seen == set(sc.elements)
    assert [o.members for o in sc.orbits] == orbit_partition(sc.elements)


def test_orbit_arrows_are_the_representative_arrows():
    # An orbit keeps the minimal arrows at its representative and the keys
    # of the orbits their targets lie in.
    sc = compute_sc(beta_braid(2))
    graph = circuit_graph(sc)
    elements = set(sc.elements)
    by_key = {orbit._key: orbit for orbit in sc.orbits}
    for orbit in sc.orbits:
        rep = orbit.representative
        assert orbit._labels == tuple(s for s, _ in graph[rep])
        for (s, target), key in zip(graph[rep], orbit._targets, strict=True):
            assert target == conjugate(rep, braid_from_factors(0, (s,)))
            assert target in elements
            assert by_key[key]._holds(bytes(target.factors))


def test_conjugator_items_and_values_follow_search_order():
    # conjugators() walks the orbits in the order the search found them,
    # as `elements` does, from the representative on.
    for x in (beta_braid(1), braid_from_factors(0, [Simple.C123, M, M, W])):
        sc = compute_sc(x)
        conjugators = sc.conjugators()
        assert list(conjugators) == list(sc.elements)
        assert next(iter(conjugators)) == sc.representative
        assert len(conjugators) == len(set(sc.elements)) == sc.size
        for element, z in conjugators.items():
            assert conjugate(x, z) == element
        # Each call builds a new dict.
        assert sc.conjugators() is not conjugators
    assert not sc.rigid and len(sc.orbits) > 1


@pytest.mark.parametrize(
    "x",
    [*(beta_braid(k) for k in range(1, 5)), braid_from_factors(0, [Simple.C123, M, M, W])],
)
def test_single_lookups_agree_with_iteration(x):
    # The search asks an orbit whether it holds an arrow target (in a rigid
    # class, a substring search of its haystack); the orbits' answers must
    # agree with the elements they list.
    sc = compute_sc(x)
    kind = type(sc.orbits[0])
    conjugators = sc.conjugators()
    elements = set(sc.elements)
    assert set(conjugators) == elements

    def holders(y):
        return [o for o in sc.orbits if o._holds(kind._member(y.factors))]

    for element in elements:
        (orbit,) = holders(element)
        assert element in orbit.members
    # Normal forms of the set's power and length, drawn until 40 lie
    # outside it (rigid ones among them), reach the orbits' own tests.
    rng = random.Random(len(elements))
    p, r = sc.representative.power, sc.representative.canonical_length
    outside = 0
    while outside < 40:
        y = random_braid(rng, r, inf=p)
        assert bool(holders(y)) == (y in elements) == (y in conjugators)
        if y not in elements:
            outside += 1


def test_arrow_target_with_another_power_is_an_error(monkeypatch):
    # An arrow never changes the power inside SC; if one did, the search
    # must stop rather than take the target for a new element.  The arrow
    # tests conjugate through `_conjugate_factors`; here every candidate
    # target gets one more delta, and rigidity does not read the power.
    real = circuits._conjugate_factors

    def shifted(p, factors, s):
        q, target = real(p, factors, s)
        return q + 1, target

    monkeypatch.setattr(circuits, "_conjugate_factors", shifted)
    with pytest.raises(RuntimeError, match="power"):
        compute_sc(beta_braid(1))


def test_search_builds_no_braid_per_arrow_candidate(monkeypatch):
    # The arrow tests conjugate raw factor tuples: the search and the circuit
    # graph never call `conjugate`, wherever the package holds it, and a
    # search builds as many braids for beta_8 as for beta_2, whatever the
    # number of candidates and orbits.
    def forbidden(x, z):
        raise AssertionError("the search conjugated a braid")

    holders = [
        module
        for name, module in sys.modules.items()
        if name.startswith("bkl4") and getattr(module, "conjugate", None) is conjugate
    ]
    assert bkl4.engine in holders
    for module in holders:
        monkeypatch.setattr(module, "conjugate", forbidden)
    for x in (beta_braid(3), braid_from_factors(0, [Simple.C123, M, M, W])):
        sc = compute_sc(x)
        assert len(sc.orbits) > 1
        circuit_graph(sc)
    target = GarsideBraid(0, (W, W))
    walk = slide_to_circuit(GarsideBraid(0, (M, M)))
    assert circuits._find_conjugator(walk, target, None) is not None

    bases = [beta_braid(2), beta_braid(8)]
    built = 0
    init = GarsideBraid.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    monkeypatch.setattr(GarsideBraid, "__init__", counting)
    counts = []
    for x in bases:
        built = 0
        sc = compute_sc(x)
        counts.append(built)
        assert sc.rigid and len(sc.orbits) > 1
    assert counts[0] == counts[1]


def _non_rigid_classes(count: int, seed: int) -> list[GarsideBraid]:
    rng = random.Random(seed)
    found = []
    while len(found) < count:
        x = random_braid(rng, rng.randrange(2, 8), rng.randrange(-2, 3))
        if not compute_sc(x).rigid:
            found.append(x)
    return found


def test_circuit_graph_matches_per_element_arrows():
    # The graph twists the arrows of one element of each tau class; every
    # vertex must still get exactly its own minimal arrows and targets, as
    # the arrow kernel finds them at that vertex.
    bases = [beta_braid(k) for k in (1, 2, 3)] + _non_rigid_classes(50, 5)
    for x in bases:
        sc = compute_sc(x)
        graph = circuit_graph(sc)
        assert list(graph) == list(sc.elements)
        member = circuits._is_rigid
        if not sc.rigid:
            member = circuits._membership((y.power, y.factors) for y in sc.elements)
        for y, arrows in graph.items():
            expected = tuple(s for s, _ in circuits._arrows(y.power, y.factors, member))
            assert tuple(s for s, _ in arrows) == expected
            for s, target in arrows:
                assert target == conjugate(y, GarsideBraid(0, (s,)))
                assert target in graph


_braids = st.builds(
    lambda seed, length, inf: random_braid(random.Random(seed), length, inf),
    st.integers(0, 2**32),
    st.integers(0, 6),
    st.integers(-2, 2),
)


@settings(max_examples=200, deadline=None)
@given(x=_braids, w=_braids)
def test_sc_is_a_conjugacy_invariant_with_valid_conjugators(x, w):
    sc = compute_sc(x)
    conjugated = compute_sc(conjugate(x, w))
    assert set(conjugated.elements) == set(sc.elements)
    assert [o.members for o in conjugated.orbits] == [o.members for o in sc.orbits]
    for element, z in conjugated.conjugators().items():
        assert conjugate(conjugated.base, z) == element


def _non_rigid_class(seed: int) -> GarsideBraid:
    """The first braid drawn from `seed` whose circuit representative has
    factors and is not rigid."""
    rng = random.Random(seed)
    while True:
        x = random_braid(rng, rng.randrange(2, 8), rng.randrange(-2, 3))
        rep = slide_to_circuit(x).representative
        if rep.factors and not is_rigid(rep):
            return x


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_memoized_membership_matches_sliding_walks(seed):
    x = _non_rigid_class(seed)
    # Seeded as compute_sc seeds it, then asked about every arrow candidate
    # of every orbit representative, about every element of SC(x), most of
    # which are cycling and tau images whose circuits are not recorded, and
    # about random conjugates of x and the braids on their sliding walks.
    entry = slide_to_circuit(x)
    c = entry.cycle_start
    raw = circuits._membership(
        [(y.power, y.factors) for y in entry.steps[c:]],
        [(y.power, y.factors) for y in entry.steps[:c]],
    )

    def member(t):
        return raw(t.power, t.factors)

    sc = compute_sc(x)
    for orbit in sc.orbits:
        y = orbit.representative
        iota = TAU_POWER[-y.power % 4][y.factors[0]]
        candidates = (DIVISORS[iota] | DIVISORS[COMPLEMENT[y.factors[-1]]]) - {Simple.ONE}
        for s in sorted(candidates):
            t = conjugate(y, GarsideBraid(0, (s,)))
            assert member(t) == (slide_to_circuit(t).cycle_start == 0), (y, s)
    assert all(member(y) for y in sc.elements)
    w = random_braid(random.Random(seed), 3, 0)
    walk = slide_to_circuit(conjugate(x, w)).steps
    for t in walk + walk:
        assert member(t) == (slide_to_circuit(t).cycle_start == 0), t


def test_sc_of_random_conjugates_matches_base():
    rng = random.Random(41)
    base = GarsideBraid(0, (M, M))
    sc_base = compute_sc(base)
    for _ in range(10):
        w = random_braid(rng, rng.randrange(0, 5), rng.randrange(-2, 3))
        sc = compute_sc(conjugate(base, w))
        assert set(sc.elements) == set(sc_base.elements)


def test_rigid_powers_have_rigid_sc():
    b = power(beta_braid(1), 2)
    assert is_rigid(b)
    sc = compute_sc(b, cap=200_000)
    assert sc.rigid
    assert all(is_rigid(e) for e in list(sc.elements)[:50])


def test_diagonal_orbits_are_at_most_bivalent():
    # In a rigid class whose factors are all atoms, an orbit containing a
    # diagonal (a13 or a24) meets at most two other orbits: its strict-prefix
    # arrows all divide complement(a13) = p12-34 (or its twist), which has
    # only two nontrivial proper divisors.
    assert COMPLEMENT[M] == Simple.P12_34
    assert COMPLEMENT[A] == Simple.P14_23
    rng = random.Random(77)
    found = []
    while len(found) < 40:
        x = random_braid(rng, rng.randrange(2, 7), rng.randrange(-2, 3))
        if not all(WEIGHT[f] == 1 for f in x.factors):
            continue
        if not any(f in (M, A) for f in x.factors):
            continue
        if is_rigid(x):
            found.append(x)
    saw_bivalent = False
    for x in found:
        graph = quotient_graph(compute_sc(x))
        for i, orbit in enumerate(graph.orbits):
            if any(
                any(f in (M, A) for f in member.factors)
                for member in orbit.members
            ):
                degree = sum(1 for a, b in graph.edges if i in (a, b))
                assert degree <= 2
                saw_bivalent = saw_bivalent or degree == 2
    assert saw_bivalent  # the bound is attained, so the check is not vacuous


def _check_rigid_orbits(x: GarsideBraid) -> set[str]:
    """Check the keyed orbits of SC(x), x rigid, against orbits closed
    element by element.  Returns what the set showed: "small" if some orbit
    is smaller than 4*len, "repeat" if the least letter of some orbit
    starts more than one of its members, "twisted" if p is not 0 mod 4."""
    sc = compute_sc(x)
    assert sc.rigid
    assert set(sc.elements) == set(reference_sc(x))
    reference = orbit_partition(sc.elements)
    assert [o.members for o in sc.orbits] == reference
    p, r = sc.representative.power, x.canonical_length
    shown = {"twisted"} if p % 4 else set()
    elements = set(sc.elements)
    for i, orbit in enumerate(sc.orbits):
        members = orbit.members
        assert orbit.size == len(members) == len(set(members))
        assert orbit.representative == members[0]
        for y in members:
            assert is_rigid(y) and y in elements and orbit._holds(bytes(y.factors))
        # The key is the least of all m*d windows, found by brute force.
        windows = [y.factors for y in reference[i]]
        assert orbit._key == bytes(min(windows))
        least = min(min(w) for w in windows)
        if sum(w[0] == least for w in windows) > 1:
            shown.add("repeat")
        # Same-length non-members are not in the orbit's haystack: the next
        # orbit's members, and windows that straddle two of the orbit's
        # words across the byte that joins them.
        straddling = {
            GarsideBraid(p, tuple(map(Simple, (u + v)[len(u) - k : len(u) - k + r])))
            for u in orbit._words
            for v in orbit._words
            for k in range(1, r)
        }
        for y in (*reference[(i + 1) % len(reference)], *straddling):
            assert orbit._holds(bytes(y.factors)) == (y in reference[i])
        if orbit.size < 4 * r:
            shown.add("small")
    assert sc.size == sum(o.size for o in sc.orbits) == len(elements)
    for y, z in sc.conjugators().items():
        assert conjugate(x, z) == y
    return shown


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32),
    kind=st.sampled_from(RIGID_KINDS),
    shift=st.integers(-3, 3),
    exponent=st.integers(1, 3),
)
def test_rigid_orbit_keys_match_materialized_orbits(seed, kind, shift, exponent):
    _check_rigid_orbits(rigid_braid(seed, kind, shift, exponent))


def test_rigid_orbit_keys_on_symmetric_words():
    # The check must meet orbits that a periodic cyclic word, a twist that
    # is a rotation, or both make smaller than 4*len; least letters that
    # start several members; and twists u = tau^-p other than 1.
    shown: Counter[str] = Counter()
    for seed in range(60):
        kind = RIGID_KINDS[seed % 3]
        x = rigid_braid(seed, kind, seed % 7 - 3, seed // 3 % 3 + 1)
        shown.update(_check_rigid_orbits(x))
    assert shown["small"] >= 30
    assert shown["repeat"] >= 20 and shown["twisted"] >= 20


def _check_orbit_words(orbit, members) -> int:
    """Check a rigid orbit's key, size and haystack length against its
    members; returns its number of words m."""
    r, d = len(orbit._seed), orbit._period
    m = orbit._haystack.count(b"\xff") + 1
    assert orbit._key == bytes(min(y.factors for y in members))
    assert orbit.size == m * d == len(members)
    assert len(orbit._haystack) == m * (d + r - 1) + m - 1
    return m


def _rigid_forms(length: int, p: int):
    """Every rigid left normal form delta^p . x1 ... x_length."""
    untwist = TAU_POWER[-p % 4]
    words = [(s,) for s in PROPER_SIMPLES]
    for _ in range(length - 1):
        words = [w + (v,) for w in words for v in FOLLOWS[w[-1]]]
    return [w for w in words if LEFT_WEIGHTED[w[-1]][untwist[w[0]]]]


def test_rigid_orbit_keys_on_every_short_rigid_form():
    # Small scope: every rigid left normal form of canonical length 1..4 at
    # delta powers 0..3 seeds an orbit whose key is the least of its m*d
    # members, found by conjugation (`orbit_partition`).  They cover one,
    # two and four words, and periods d shorter than the length r.
    shown = set()
    for p in range(4):
        for r in range(1, 5):
            forms = (GarsideBraid(p, factors) for factors in _rigid_forms(r, p))
            for members in orbit_partition(forms):
                for y in members:
                    orbit = circuits._RigidOrbit(p, bytes(y.factors), None, Simple.ONE)
                    shown.add(_check_orbit_words(orbit, members))
                    if orbit._period < r:
                        shown.add("d < r")
    assert shown == {1, 2, 4, "d < r"}


def test_rigid_orbit_keys_on_long_ties():
    # Seeds (a b c)^n . x: the windows that start at the least letter tie on
    # up to 3(n - 1) letters, so the key's prefix grows by a dozen letters
    # or more before it starts few enough windows to compare.  At power 0,
    # (a b c)^n alone has period 3.
    shown = set()
    P, Q = Simple.P12_34, Simple.P14_23
    for cycle, x in (((S, E, A), P), ((S, M, Q), Q)):
        for tail in ((x,), ()):
            seed = cycle * 40 + tail
            for p in range(4):
                y = GarsideBraid(p, seed)
                if not is_rigid(y):
                    continue
                orbit = circuits._RigidOrbit(p, bytes(seed), None, Simple.ONE)
                shown.add(_check_orbit_words(orbit, reference_orbit(y)))
                if tail:
                    assert orbit._haystack.count(orbit._key[:12]) > circuits._FEW
                elif p == 0:
                    assert orbit._period == 3
    assert shown == {1, 2, 4}


def test_rigid_orbit_words_are_cut_to_their_windows():
    # Each of an orbit's m words keeps the d + r - 1 bytes where its windows
    # start: over SC(beta_32) they take 79,086 bytes (317,030 when kept
    # doubled), and the set retains well under 0.2 MiB.
    x = beta_braid(32)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sc = compute_sc(x)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sum(len(orbit._haystack) for orbit in sc.orbits) == 79_086
    assert retained <= 0.2 * 2**20


def test_sc_sets_hold_no_reference_cycles():
    # Orbits refer to the orbits their arrows lead to by key, so a search,
    # its quotient and the orbits in search order are freed as soon as they
    # are dropped, not at the next run of the cyclic garbage collector.
    nonrigid = braid_from_factors(0, [Simple.C123, M, M, W])
    gc.collect()
    gc.disable()
    try:
        for x in (beta_braid(2), nonrigid):
            sc = compute_sc(x)
            assert len(quotient_graph(sc).orbits) > 1
            for orbit in sc.orbits:
                orbit.members
            assert list(sc.conjugators()) == list(sc.elements)
            del sc
            assert gc.collect() == 0
    finally:
        gc.enable()
