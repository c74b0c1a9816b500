"""Acceptance gate: one test per headline criterion, each printing a single
pass/fail line.  Run with ``pytest -s tests/test_acceptance.py`` to see the
lines as they complete."""

import json
from functools import cache
from pathlib import Path

from thetasummands.suites import SUITES, run_suite
from thetasummands.brillnoether import (CUBIC_THREEFOLD, CaseSpec,
                                        HYPERELLIPTIC, NONHYPERELLIPTIC,
                                        classify_summands)

GOLDEN_DIR = Path(__file__).parent / "goldens"


def report(number: int, title: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] acceptance {number}: {title}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@cache
def _run_once(name, bounds):
    return run_suite(name, **dict(bounds))


def suite_run(name, **bounds):
    """run_suite(name, **bounds), run once per session for each set of bounds
    after filling in the suite's defaults, so that equal runs are shared."""
    fn = SUITES[name]
    defaults = fn.__defaults__ or ()
    names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
    full = dict(zip(names[len(names) - len(defaults):], defaults), **bounds)
    return _run_once(name, tuple(sorted(full.items())))


def run(number, title, name, **bounds):
    result = suite_run(name, **bounds)
    detail = f"{result.tested} cases, {result.seconds:.1f}s"
    if result.failures:
        detail += "; first failure: " + result.failures[0]
    report(number, title, result.ok, detail)


def test_acceptance_01_e6_dimensions():
    run(1, "E6 fundamental dimensions 27/27/78", "dims-e6")


def test_acceptance_02_multiplicity_dominance():
    run(2, "positive multiplicity iff dominated, degree <= 6",
        "multiplicity-dominance", max_degree=6)


def test_acceptance_03_reduce_hyp():
    run(3, "symplectic reduction reaches length min{d, n} (n <= 6, d <= 12)",
        "reduce-hyp", max_n=6, max_degree=12)


def test_acceptance_04_reduce_nonhyp():
    run(4, "special-linear reduction disjunction (n <= 5, d <= 10)",
        "reduce-nonhyp", max_n=5, max_degree=10)


def test_acceptance_05_reduce_e6():
    run(5, "E6 reduction to {w1, w2, w6} (label sum <= 5)",
        "reduce-e6", max_label_sum=5)


def test_acceptance_06_max_length():
    run(6, "max length below lam equals min{d, g-1} (g <= 7, d <= 12)",
        "max-length", max_g=7, max_degree=12)


def test_acceptance_07_alternating_powers():
    run(7, "exterior powers of the standard character decompose as predicted",
        "alt-powers", max_n_c=5, max_n_a=3)


def test_acceptance_08_lambda_axioms():
    run(8, "lambda-ring axioms and Adams laws on 200 random characters",
        "lambda-axioms", samples=200)


def test_acceptance_09_adams_factorization():
    run(9, "Adams operations factor through the root lattice exactly at the "
           "fundamental-group exponent", "adams-factor")


def test_acceptance_10_classification_goldens():
    result = suite_run("classify-golden")
    ok = result.ok
    detail = f"{result.tested} cases"
    cases = ([CaseSpec(HYPERELLIPTIC, g) for g in range(3, 9)]
             + [CaseSpec(NONHYPERELLIPTIC, g) for g in range(4, 9)]
             + [CaseSpec(CUBIC_THREEFOLD)])
    for case in cases:
        name = case.label().replace(":g=", "-g")
        blob = json.dumps(classify_summands(case).to_json(),
                          sort_keys=True, indent=2) + "\n"
        golden = (GOLDEN_DIR / f"{name}.json").read_text()
        if blob != golden:
            ok = False
            detail += f"; byte mismatch against goldens/{name}.json"
            break
    report(10, "classification matches the frozen golden files byte for byte",
           ok, detail)


def test_acceptance_11_character_oracles():
    run(11, "Freudenthal equals the Weyl character formula (d <= 6)",
        "oracle-equivalence", max_degree=6)


# run_suite(name).tested at the default bounds, in SUITES order
CASE_COUNTS = {
    "dims-e6": 3, "multiplicity-dominance": 95, "reduce-hyp": 743,
    "reduce-nonhyp": 2467, "reduce-e6": 461, "max-length": 743,
    "alt-powers": 24, "lambda-axioms": 606, "adams-factor": 5,
    "classify-golden": 24, "oracle-equivalence": 89,
}


def test_acceptance_12_case_counts():
    # the runs at default bounds are shared with the tests above
    counts = {name: suite_run(name).tested for name in SUITES}
    report(12, "every suite tests its recorded number of cases",
           list(counts.items()) == list(CASE_COUNTS.items()),
           "/".join(str(c) for c in counts.values()))
