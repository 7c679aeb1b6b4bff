"""
solver: the conjugacy decision and search problem.

`solve_conjugacy(x, y)` decides whether x and y are conjugate and, when they
are, produces a verified certificate z with x = z^-1 y z.  The strategy:

  1. Cheap invariants first: the weight homomorphism (lambda); then both
     braids slide to their circuit representatives rx and ry, once each, and
     the periodicity type and the (inf, sup, k1, k2) data are compared on
     rx and ry — all conjugacy invariants, so any mismatch is a sound
     NotConjugate.  rx and ry are mostly much shorter than the presented
     braids, so periodicity is tested on them.
  2. General path: in a class with a rigid element, SC is the set of its
     rigid conjugates (Gebhardt and Gonzalez-Meneses, Math. Z. 2010), so
     SC(x) and SC(y) are disjoint when exactly one of rx, ry is rigid.
     Otherwise two searches run in turn, one tau/cycling orbit at a time:
     SC(x) from rx for ry, and SC(y) from ry for rx one orbit behind, so
     that a one-orbit SC(x) is complete before SC(y)'s search starts.  Each
     starts from the sliding walk step 1 took and reads the orbits from the
     search behind `compute_sc`.  The first orbit that holds its target
     decides, and so does the first set found complete without it: SC is a
     complete invariant.  When the class has a rigid conjugate a search
     tests membership by rigidity alone and is fast; otherwise by memoized
     sliding walks.  The conjugators run from x and from y, so with
     x^zx = rx and y^zy = ry, a hit x^g = ry gives the certificate
     zy g^-1, and a hit y^h = rx gives h zx^-1.
  3. Optional pseudo-Anosov powering path (`assume_pa=True`): find the
     smallest i <= 26 making x^i (resp. y^j) conjugate to a rigid braid,
     raise both to s = lcm(i, j), and search the small rigid SC sets of
     the two powers instead, as in step 2.  A certificate for the powers
     plus root uniqueness gives a certificate for x and y; the result is
     verified and, if verification fails (the input was not pseudo-Anosov
     after all), the solver silently falls back to the general path, so a
     wrong answer is never returned.

Every Conjugate decision carries a certificate that has been re-verified by
direct conjugation.  The cap bounds each of the two searches on its own:
one that outgrows it stops, and the answer is Inconclusive ('cap-exceeded')
rather than a guess only when both have stopped.

Periodicity in this group: x is periodic iff x^3 or x^4 is a delta power
(canonical length 0); a rigid braid never is.
"""

from __future__ import annotations

import math

from bkl4.circuits import DEFAULT_CAP, CapExceededError, _find_conjugator
from bkl4.engine import (
    IDENTITY,
    GarsideBraid,
    _Record,
    _set,
    conjugate,
    invariants,
    invert,
    multiply,
    power,
)
from bkl4.sliding import SlidingTrajectory, is_rigid, slide_to_circuit

__all__ = [
    "CONJUGATE",
    "NOT_CONJUGATE",
    "INCONCLUSIVE",
    "MAX_RIGID_POWER",
    "ConjugacyCertificate",
    "SolverDecision",
    "verify_certificate",
    "is_periodic",
    "power_to_rigid",
    "solve_conjugacy",
]

CONJUGATE = "conjugate"
NOT_CONJUGATE = "not-conjugate"
INCONCLUSIVE = "inconclusive"

# Pseudo-Anosov braids here always have a rigid conjugate of some power x^m
# with m below this bound.
MAX_RIGID_POWER = 26


class ConjugacyCertificate(_Record):
    """A witness z for conjugacy: x = z^-1 y z."""

    __slots__ = ("x", "y", "z")

    def __init__(self, x: GarsideBraid, y: GarsideBraid, z: GarsideBraid) -> None:
        _set(self, "x", x)
        _set(self, "y", y)
        _set(self, "z", z)


def verify_certificate(cert: ConjugacyCertificate) -> bool:
    """Check x = z^-1 y z by direct conjugation."""
    return conjugate(cert.y, cert.z) == cert.x


class SolverDecision(_Record):
    """Outcome of solve_conjugacy.

    outcome is 'conjugate' (with a verified certificate), 'not-conjugate'
    (with reason 'lambda-mismatch', 'type-mismatch' or 'disjoint-SC'), or
    'inconclusive' (reason 'cap-exceeded').  `periodic` tells whether x is
    periodic, as tested on its circuit representative; it is None when the
    solver answered before sliding (x == y, or 'lambda-mismatch').  `path`
    names the step that decided: 'identical' (x == y), 'lambda', 'type'
    (the circuit data or periodicity), 'general' (the SC search) or
    'powering' (under assume_pa; a fallback from it reads 'general').
    """

    __slots__ = ("outcome", "certificate", "reason", "periodic", "path")

    def __init__(
        self,
        outcome: str,
        certificate: ConjugacyCertificate | None = None,
        reason: str | None = None,
        periodic: bool | None = None,
        path: str = "general",
    ) -> None:
        _set(self, "outcome", outcome)
        _set(self, "certificate", certificate)
        _set(self, "reason", reason)
        _set(self, "periodic", periodic)
        _set(self, "path", path)


def _conjugate_decision(
    x: GarsideBraid, y: GarsideBraid, z: GarsideBraid, path: str
) -> SolverDecision:
    cert = ConjugacyCertificate(x, y, z)
    if not verify_certificate(cert):  # pragma: no cover - internal soundness
        raise AssertionError(f"certificate failed verification: {cert!r}")
    return SolverDecision(CONJUGATE, certificate=cert, path=path)


def is_periodic(x: GarsideBraid) -> bool:
    """Whether x is periodic: x^3 or x^4 is a power of delta.

    A rigid x is not: its m-th power is rigid with m times its canonical
    length, which is never 0.
    """
    if is_rigid(x):
        return False
    square = multiply(x, x)
    if multiply(square, x).canonical_length == 0:
        return True
    return multiply(square, square).canonical_length == 0


def power_to_rigid(x: GarsideBraid) -> tuple[int, GarsideBraid, GarsideBraid] | None:
    """Smallest i <= MAX_RIGID_POWER with x^i conjugate to a rigid braid.

    Returns (i, z, r) with (x^i)^z = r rigid, or None if no power works
    (x is then not pseudo-Anosov).
    """
    for i in range(1, MAX_RIGID_POWER + 1):
        trajectory = slide_to_circuit(power(x, i))
        if is_rigid(trajectory.representative):
            return i, trajectory.accumulated_conjugator, trajectory.representative
    return None


def _search(
    x: GarsideBraid,
    y: GarsideBraid,
    tx: SlidingTrajectory,
    ty: SlidingTrajectory,
    cap: int,
) -> SolverDecision:
    """General path: search SC(x) for y's circuit representative and SC(y)
    for x's, from the sliding walks of x and y."""
    try:
        z = _find_conjugator(tx, ty, cap)
    except CapExceededError:
        return SolverDecision(INCONCLUSIVE, reason="cap-exceeded")
    if z is None:
        return SolverDecision(NOT_CONJUGATE, reason="disjoint-SC")
    return _conjugate_decision(x, y, z, "general")


def solve_conjugacy(
    x: GarsideBraid,
    y: GarsideBraid,
    *,
    assume_pa: bool = False,
    cap: int = DEFAULT_CAP,
) -> SolverDecision:
    """Decide conjugacy of x and y; produce a verified certificate if so.

    `cap` bounds each of the two SC searches as in `compute_sc`: the answer
    is 'inconclusive' when both outgrow it, and a negative `cap` raises
    ValueError.
    """
    if x == y:
        return _conjugate_decision(x, y, IDENTITY, "identical")
    ix, iy = invariants(x), invariants(y)
    if ix.weight != iy.weight:
        return SolverDecision(NOT_CONJUGATE, reason="lambda-mismatch", path="lambda")
    tx, ty = slide_to_circuit(x), slide_to_circuit(y)
    rx, ry = tx.representative, ty.representative
    periodic = is_periodic(rx)
    irx, iry = invariants(rx), invariants(ry)
    data = (irx.inf, irx.sup, irx.k1, irx.k2)
    if periodic != is_periodic(ry) or data != (iry.inf, iry.sup, iry.k1, iry.k2):
        return SolverDecision(
            NOT_CONJUGATE, reason="type-mismatch", periodic=periodic, path="type"
        )
    decision = None
    if assume_pa and not (is_rigid(rx) and is_rigid(ry)):
        decision = _solve_by_powering(x, y, cap)
    if decision is None:
        decision = _search(x, y, tx, ty, cap)
    # Each path returns a new decision, so it is completed in place.
    _set(decision, "periodic", periodic)
    return decision


def _solve_by_powering(
    x: GarsideBraid, y: GarsideBraid, cap: int
) -> SolverDecision | None:
    """Pseudo-Anosov fast path; None means 'fall back to the general path'."""
    px = power_to_rigid(x)
    py = power_to_rigid(y)
    if px is None or py is None:
        return None
    i, z1, _ = px
    j, z2, _ = py
    s = math.lcm(i, j)
    xs = conjugate(power(x, s), z1)  # rigid: a power of the rigid conjugate
    ys = conjugate(power(y, s), z2)
    try:
        c = _find_conjugator(slide_to_circuit(xs), slide_to_circuit(ys), cap)
    except CapExceededError:
        return SolverDecision(INCONCLUSIVE, reason="cap-exceeded", path="powering")
    if c is None:
        # x^s and y^s are not conjugate, hence neither are x and y.
        return SolverDecision(NOT_CONJUGATE, reason="disjoint-SC", path="powering")
    z = multiply(multiply(z2, c), invert(z1))
    if conjugate(power(y, s), z) != power(x, s):  # pragma: no cover - soundness
        raise AssertionError(f"powering certificate failed for the {s}th powers")
    cert = ConjugacyCertificate(x, y, z)
    if verify_certificate(cert):
        return SolverDecision(CONJUGATE, certificate=cert, path="powering")
    # Root uniqueness did not apply (input not pseudo-Anosov): fall back.
    return None
