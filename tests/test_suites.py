"""The verification suites themselves (small bounds; full bounds run in
test_acceptance)."""

import copy
import pickle

import pytest

from thetasummands.errors import InvalidInputError
from thetasummands.suites import (CASE, SUITES, SuiteResult, dominant_weights_a,
                                  dominant_weights_c, dominant_weights_e6,
                                  run_suite)


def test_weight_enumerators():
    c = list(dominant_weights_c(2, 3))
    assert (0, 0) in c and (3, 0) in c and (2, 1) in c
    assert len(c) == len(set(c))
    assert all(sum(w) <= 3 and w[0] >= w[1] >= 0 for w in c)
    a = list(dominant_weights_a(2, 2))
    assert (0, 0, 0, 0) in a and (1, 0, 0, -1) in a
    assert len(a) == len(set(a))
    e = list(dominant_weights_e6(1))
    assert len(e) == 6 and (0, 0, 0, 0, 0, 0) not in e


def test_unknown_suite():
    with pytest.raises(InvalidInputError):
        run_suite("no-such-suite")


def test_all_suites_registered():
    assert set(SUITES) == {
        "dims-e6", "multiplicity-dominance", "reduce-hyp", "reduce-nonhyp",
        "reduce-e6", "max-length", "alt-powers", "lambda-axioms",
        "adams-factor", "classify-golden", "oracle-equivalence"}


def test_suites_small_bounds():
    assert run_suite("reduce-hyp", max_n=2, max_degree=4).ok
    assert run_suite("reduce-nonhyp", max_n=2, max_degree=4).ok
    assert run_suite("reduce-e6", max_label_sum=2).ok
    assert run_suite("max-length", max_g=3, max_degree=4).ok
    assert run_suite("multiplicity-dominance", max_degree=3).ok
    assert run_suite("oracle-equivalence", max_degree=3).ok
    assert run_suite("lambda-axioms", samples=5, axiom_samples_e6=1).ok


def test_suite_result_json():
    r = run_suite("dims-e6")
    data = r.to_json()
    assert data["suite"] == "dims-e6"
    assert data["tested"] == 3
    assert data["failures"] == []


def test_run_suite_counts_cases_and_collects_failures_in_order(monkeypatch):
    def stub():
        yield from (CASE, "a", CASE, CASE, "b")
    monkeypatch.setitem(SUITES, "stub", stub)
    r = run_suite("stub")
    assert (r.name, r.tested, r.failures) == ("stub", 3, ("a", "b"))
    assert not r.ok and r.seconds >= 0


def test_bound_names_come_from_the_suite_signature():
    with pytest.raises(InvalidInputError,
                       match="suite 'dims-e6' has no bound max_n; valid bounds: none"):
        run_suite("dims-e6", max_n=1)
    with pytest.raises(InvalidInputError, match="has no bound a, b; valid bounds: "
                                                "max_n_c, max_n_a"):
        run_suite("alt-powers", b=1, a=2)


def test_a_run_without_cases_is_an_error(monkeypatch):
    monkeypatch.setitem(SUITES, "stub", lambda: iter(()))
    with pytest.raises(InvalidInputError,
                       match="suite 'stub' tested no case with its default bounds"):
        run_suite("stub")
    with pytest.raises(InvalidInputError, match="tested no case with bounds max_n=0$"):
        run_suite("reduce-hyp", max_n=0)


def test_suite_result_is_an_immutable_record():
    r = run_suite("dims-e6")
    with pytest.raises(AttributeError):
        r.tested = 0
    for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r)):
        assert twin == r and hash(twin) == hash(r) and type(twin) is SuiteResult
    assert r != SuiteResult(r.name, r.tested, ("x",), r.seconds)
