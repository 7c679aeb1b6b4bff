"""The package's records: braids compare and hash by value, sliding circuit
sets by identity, and no record lets a field be assigned or deleted."""

from __future__ import annotations

import copy
import pickle

import pytest

from bkl4 import (
    GarsideBraid,
    Simple,
    beta_word,
    compute_sc,
    parse_braid,
    quotient_graph,
    slide_to_circuit,
    solve_conjugacy,
)

_X = parse_braid(beta_word(1))
_SC = compute_sc(_X)
_DECISION = solve_conjugacy(_X, _X)
RECORDS = {
    "GarsideBraid": _X,
    "SlidingTrajectory": slide_to_circuit(_X),
    "SCSet": _SC,
    "QuotientGraph": quotient_graph(_SC),
    "ConjugacyCertificate": _DECISION.certificate,
    "SolverDecision": _DECISION,
}

_BRAIDS = [
    (0, ()),
    (-2, ()),
    (1, (Simple.A12,)),
    (_X.power, _X.factors),
]


@pytest.mark.parametrize("power, factors", _BRAIDS)
def test_braids_compare_and_hash_by_value(power, factors):
    x, y = GarsideBraid(power, factors), GarsideBraid(power, tuple(list(factors)))
    assert x == y and not x != y
    assert hash(x) == hash(y)
    assert len({x, y}) == 1
    assert x != GarsideBraid(power + 1, factors)
    # A braid is not the tuple of its fields, from either side.
    assert x != (power, factors) and (power, factors) != x
    assert not x == (power, factors)


@pytest.mark.parametrize("name", RECORDS)
def test_record_fields_cannot_be_assigned_or_deleted(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    for field in type(record).__slots__:
        value = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, value)
        with pytest.raises(AttributeError):
            delattr(record, field)
        assert getattr(record, field) is value
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("name", RECORDS)
def test_records_copy_field_by_field(name):
    record = RECORDS[name]
    copied = copy.copy(record)
    assert type(copied) is type(record)
    for field in type(record).__slots__:
        assert getattr(copied, field) is getattr(record, field)


def test_braids_survive_pickling():
    assert pickle.loads(pickle.dumps(_X)) == _X


def test_sc_sets_compare_by_identity():
    again = compute_sc(_X)
    assert _SC == _SC and _SC != again
    assert len({_SC, again}) == 2
