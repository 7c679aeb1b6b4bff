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
  2. General path: search SC(x) one tau/cycling orbit at a time from rx,
     starting from the sliding walk of x that step 1 took.  The orbits come
     from the search behind `compute_sc`, read one at a time, and the
     search stops as soon as the orbit holding ry is closed.  SC is a
     complete invariant: if the full set is enumerated without meeting ry,
     the braids are not conjugate.  When the class has a rigid conjugate
     this search tests membership by rigidity alone and is fast; otherwise
     by memoized sliding walks.  The search's conjugators run from x, so
     with y^zy = ry and x^g = ry (g read off the orbit that held ry) the
     certificate is zy g^-1.
  3. Optional pseudo-Anosov powering path (`assume_pa=True`): find the
     smallest i <= 26 making x^i (resp. y^j) conjugate to a rigid braid,
     raise both to s = lcm(i, j), and search the small rigid set
     SC(y-power) instead.  A certificate for the powers plus root uniqueness
     gives a certificate for x and y; the result is verified and, if
     verification fails (the input was not pseudo-Anosov after all), the
     solver silently falls back to the general path, so a wrong answer is
     never returned.

Every Conjugate decision carries a certificate that has been re-verified by
direct conjugation.  A search that outgrows the cap yields Inconclusive
('cap-exceeded') rather than a guess.

Periodicity in this group: x is periodic iff x^3 or x^4 is a delta power
(canonical length 0); a rigid braid never is.
"""

from __future__ import annotations

import math

from bkl4.circuits import CapExceededError, _find_conjugator
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
    cap: int | None,
) -> SolverDecision:
    """General path: hunt y's circuit representative inside SC(x), from the
    sliding walk of x."""
    try:
        g = _find_conjugator(tx, ty.representative, cap)
    except CapExceededError:
        return SolverDecision(INCONCLUSIVE, reason="cap-exceeded")
    if g is None:
        return SolverDecision(NOT_CONJUGATE, reason="disjoint-SC")
    # x^g = ry = y^zy, so x = y^(zy g^-1).
    return _conjugate_decision(
        x, y, multiply(ty.accumulated_conjugator, invert(g)), "general"
    )


def solve_conjugacy(
    x: GarsideBraid,
    y: GarsideBraid,
    *,
    assume_pa: bool = False,
    cap: int | None = None,
) -> SolverDecision:
    """Decide conjugacy of x and y; produce a verified certificate if so."""
    if x == y:
        return _conjugate_decision(x, y, IDENTITY, "identical")
    ix, iy = invariants(x), invariants(y)
    if ix.weight != iy.weight:
        return SolverDecision(NOT_CONJUGATE, reason="lambda-mismatch", path="lambda")
    tx, ty = slide_to_circuit(x), slide_to_circuit(y)
    rx, ry = tx.representative, ty.representative
    periodic = is_periodic(rx)
    mismatch = SolverDecision(
        NOT_CONJUGATE, reason="type-mismatch", periodic=periodic, path="type"
    )
    if periodic != is_periodic(ry):
        return mismatch
    irx, iry = invariants(rx), invariants(ry)
    if (irx.inf, irx.sup, irx.k1, irx.k2) != (iry.inf, iry.sup, iry.k1, iry.k2):
        return mismatch
    decision = None
    if assume_pa and not (is_rigid(rx) and is_rigid(ry)):
        decision = _solve_by_powering(x, y, cap)
    if decision is None:
        decision = _search(x, y, tx, ty, cap)
    return SolverDecision(
        decision.outcome, decision.certificate, decision.reason, periodic, decision.path
    )


def _solve_by_powering(
    x: GarsideBraid, y: GarsideBraid, cap: int | None
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
        c = _find_conjugator(slide_to_circuit(ys), xs, cap)
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
