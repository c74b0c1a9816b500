"""Supports of orbit cycles, dimension bounds, and the summand classifier."""

import copy
import json
import pickle

import pytest

from thetasummands.brillnoether import (CUBIC_THREEFOLD, CaseSpec,
                                        HYPERELLIPTIC, NONHYPERELLIPTIC,
                                        SupportExpr, classify_summands, split_sl,
                                        support_dim_hyp,
                                        support_dim_nonhyp_bound,
                                        support_of_orbit)
from thetasummands.errors import InvalidInputError


def test_case_spec_validation():
    assert CaseSpec(HYPERELLIPTIC, 5).theta_dim == 4
    assert CaseSpec(NONHYPERELLIPTIC, 5).n == 4
    assert CaseSpec(CUBIC_THREEFOLD).theta_dim == 4
    with pytest.raises(InvalidInputError):
        CaseSpec(HYPERELLIPTIC, 1)
    with pytest.raises(InvalidInputError):
        CaseSpec("plane-quartic", 3)
    with pytest.raises(InvalidInputError):
        CaseSpec(CUBIC_THREEFOLD).n
    # a genus would be dropped from the label but kept in equality
    with pytest.raises(InvalidInputError, match="takes no genus, got 5"):
        CaseSpec(CUBIC_THREEFOLD, 5)
    assert CaseSpec(CUBIC_THREEFOLD, 0) == CaseSpec(CUBIC_THREEFOLD)


RECORDS = [CaseSpec(HYPERELLIPTIC, 5), CaseSpec(CUBIC_THREEFOLD),
           SupportExpr("diff", d_plus=1, d_minus=2, dim=3),
           support_of_orbit(CaseSpec(HYPERELLIPTIC, 4), (2, 1, 0)),
           classify_summands(CaseSpec(NONHYPERELLIPTIC, 5)),
           classify_summands(CaseSpec(CUBIC_THREEFOLD))]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_records_are_immutable_and_round_trip(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert twin == record and hash(twin) == hash(record)
        assert type(twin) is type(record)
    assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))


def test_record_defaults_and_equality():
    assert SupportExpr("w") == SupportExpr("w", 0, 0, 0, (), None)
    assert SupportExpr("w", dim=1) != SupportExpr("w", dim=2)
    assert CaseSpec(HYPERELLIPTIC, 4) != CaseSpec(NONHYPERELLIPTIC, 4)
    assert CaseSpec(HYPERELLIPTIC, genus=4).genus == 4


def test_split_sl():
    assert split_sl(2, (2, 1, 1, 0)) == ((1, 0), (1, 0), 1, 1, 1, 1)
    assert split_sl(2, (1, 0, 0, -1)) == ((1, 0), (1, 0), 1, 1, 1, 1)
    assert split_sl(3, (2, 1, 0, 0, 0, -1)) == ((2, 1, 0), (1, 0, 0), 3, 1, 2, 1)


def test_support_hyperelliptic():
    case = CaseSpec(HYPERELLIPTIC, 5)
    assert support_of_orbit(case, (0, 0, 0, 0)).label() == "pt"
    assert support_of_orbit(case, (1, 1, 0, 0)).label() == "W_2"
    assert support_of_orbit(case, (1, 1, 0, 0)).dim == 2
    gen = support_of_orbit(case, (2, 1, 0, 0))
    assert gen.variant == "general" and gen.dim == 2


def test_support_nonhyperelliptic():
    case = CaseSpec(NONHYPERELLIPTIC, 5)
    assert support_of_orbit(case, (1, 1, 0, 0, 0, 0, 0, 0)).label() == "W_2"
    assert support_of_orbit(case, (0, 0, 0, 0, 0, 0, -1, -1)).label() == "-W_2"
    mixed = support_of_orbit(case, (1, 0, 0, 0, 0, 0, 0, -1))
    assert mixed.label() == "W_1 - W_1"
    assert mixed.dim == 2
    # length >= g carries no claimed description
    big = support_of_orbit(case, (1, 1, 1, 0, 0, -1, -1, -1))
    assert big.variant == "unknown"


def test_support_cubic_threefold():
    case = CaseSpec(CUBIC_THREEFOLD)
    assert support_of_orbit(case, (1, 0, 0, 0, 0, 0)).label() == "S"
    assert support_of_orbit(case, (0, 0, 0, 0, 0, 1)).label() == "-S"
    assert support_of_orbit(case, (0, 1, 0, 0, 0, 0)).label() == "Theta"
    assert support_of_orbit(case, (0, 0, 0, 0, 0, 0)).label() == "pt"
    assert support_of_orbit(case, (2, 0, 0, 0, 0, 0)).variant == "unknown"


def test_support_dim_hyp():
    assert support_dim_hyp(5, (1, 1, 0, 0)) == 2
    assert support_dim_hyp(5, (3, 0, 0, 0)) == 3
    assert support_dim_hyp(3, (4, 2)) == 2  # saturates at g - 1
    assert support_dim_hyp(5, (0, 0, 0, 0)) == 0


def test_support_dim_nonhyp_bound():
    assert support_dim_nonhyp_bound(5, (1, 1, 0, 0, 0, 0, 0, 0)) == 2
    assert support_dim_nonhyp_bound(5, (4, 0, 0, 0, 0, 0, 0, 0)) == 3
    assert support_dim_nonhyp_bound(3, (2, 0, 0, -2)) == 1


def test_classifier_hyperelliptic():
    report = classify_summands(CaseSpec(HYPERELLIPTIC, 5))
    labels = [(x.label(), y.label()) for x, y, _ in report.pairs]
    assert labels == [("W_1", "W_3"), ("W_2", "W_2"), ("W_3", "W_1")]
    assert all(x.dim + y.dim == 4 for x, y, _ in report.pairs)


def test_classifier_nonhyperelliptic():
    report = classify_summands(CaseSpec(NONHYPERELLIPTIC, 4))
    labels = [(x.label(), y.label()) for x, y, _ in report.pairs]
    assert labels == [("W_1", "W_2"), ("W_2", "W_1"),
                      ("-W_1", "-W_2"), ("-W_2", "-W_1")]


def test_classifier_cubic():
    report = classify_summands(CaseSpec(CUBIC_THREEFOLD))
    labels = [(x.label(), y.label()) for x, y, _ in report.pairs]
    assert labels == [("S", "-S"), ("-S", "S")]
    assert {tuple(dims) for dims, _ in report.excluded} == {(1, 3), (3, 1)}


def test_classifier_json_stable():
    report = classify_summands(CaseSpec(HYPERELLIPTIC, 4))
    blob = json.dumps(report.to_json(), sort_keys=True)
    again = json.dumps(classify_summands(CaseSpec(HYPERELLIPTIC, 4)).to_json(),
                       sort_keys=True)
    assert blob == again
    parsed = json.loads(blob)
    assert parsed["case"] == "hyperelliptic:g=4"
    assert all(p["up_to_translation"] for p in parsed["pairs"])
