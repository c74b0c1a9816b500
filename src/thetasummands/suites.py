"""Batch verification suites.

Each suite exhaustively (or, where noted, randomly) checks one of the
library's core identities within explicit bounds.  A suite is a generator:
it yields ``CASE`` before each case it checks and one message string per
counterexample found.  ``run_suite`` alone counts the cases, collects the
messages in order and times the run.  The same suites back the ``verify``
CLI subcommand and the acceptance tests.
"""

from __future__ import annotations

import json
import random
import time
from collections import namedtuple
from collections.abc import Iterator
from itertools import product

from .brillnoether import (CaseSpec, CUBIC_THREEFOLD, HYPERELLIPTIC,
                           NONHYPERELLIPTIC, classify_summands,
                           support_dim_hyp, support_dim_nonhyp_bound)
from .charring import (CharElem, freudenthal_character, multiply, orbit_char,
                       unit_char, weyl_character_direct, weyl_dimension)
from .dominance import (degree_length, dominance_compare, brute_force_reduce,
                        dominant_ideal, reduce_e6, reduce_hyp, reduce_nonhyp)
from .errors import InvalidInputError
from .lambdaring import (adams, factors_through_root_lattice,
                         lambda_power_effective, lambda_power_virtual)
from .rootsys import SlA, SpC, E6 as E6_KIND, build_root_system


class SuiteResult(namedtuple("SuiteResult", "name tested failures seconds")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"suite": self.name, "tested": self.tested,
                "failures": list(self.failures),
                "seconds": round(self.seconds, 3)}


CASE = object()  # yielded by a suite before each case it checks


def _partitions(max_sum: int, max_len: int, max_part: int):
    """All weakly decreasing nonnegative tuples (unpadded, no trailing zeros)."""
    def rec(remaining, length, cap):
        yield ()
        if length == 0 or remaining == 0:
            return
        for first in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - first, length - 1, first):
                yield (first,) + rest
    yield from rec(max_sum, max_len, max_part)


def _pad(part, length):
    return tuple(part) + (0,) * (length - len(part))


def dominant_weights_c(n: int, max_degree: int):
    """All dominant SpC(n) weights with degree <= max_degree."""
    for part in _partitions(max_degree, n, max_degree):
        yield _pad(part, n)


def dominant_weights_a(n: int, max_degree: int):
    """All normalized dominant SlA(n) weights with degree <= max_degree."""
    for dp in range(max_degree + 1):
        for p in _partitions(dp, n, dp):
            if sum(p) != dp:
                continue
            for q in _partitions(max_degree - dp, n - 1, max_degree - dp):
                q_full = _pad(q, n)
                yield _pad(p, n) + tuple(-c for c in reversed(q_full))


def dominant_weights_e6(max_label_sum: int):
    """All nonzero dominant E6 weights with Dynkin-label sum <= the bound."""
    for labels in product(range(max_label_sum + 1), repeat=6):
        if 0 < sum(labels) <= max_label_sum:
            yield labels


# --- the individual suites ---------------------------------------------------


def suite_dims_e6() -> Iterator:
    """Dimensions of the three smallest fundamental E6 representations."""
    rs = build_root_system(E6_KIND)
    expected = {(1, 0, 0, 0, 0, 0): 27, (0, 0, 0, 0, 0, 1): 27,
                (0, 1, 0, 0, 0, 0): 78}
    for lam, dim in expected.items():
        yield CASE
        got = weyl_dimension(rs, lam)
        if got != dim:
            yield f"dim V_{lam} = {got}, expected {dim}"


def suite_multiplicity_dominance(max_degree: int = 6,
                                 e6_label_sum: int = 1) -> Iterator:
    """m_lam(mu) > 0 iff mu <= lam: the dominant support of an irreducible
    character equals the dominance ideal of its highest weight."""
    cases = []
    for rs in (build_root_system(SpC(2)), build_root_system(SpC(3)),
               build_root_system(SlA(2))):
        cases.extend((rs, lam) for lam in _dominant_weights(rs, max_degree))
    rs6 = build_root_system(E6_KIND)
    cases.extend((rs6, lam) for lam in dominant_weights_e6(e6_label_sum))
    for rs, lam in cases:
        yield CASE
        support = set(freudenthal_character(rs, lam).coeffs)
        ideal = set(dominant_ideal(rs, lam))
        if support != ideal:
            yield (f"{rs.kind} lam={lam}: support {sorted(support)} "
                   f"!= ideal {sorted(ideal)}")


def _dominant_weights(rs, max_degree):
    if rs.kind.family == "C":
        return dominant_weights_c(rs.kind.n, max_degree)
    if rs.kind.family == "A":
        return dominant_weights_a(rs.kind.n, max_degree)
    raise InvalidInputError("degree enumeration needs a C- or A-kind system")


def suite_reduce_hyp(max_n: int = 6, max_degree: int = 12) -> Iterator:
    """The symplectic reduction raises the length to min{d, n} and the
    exhaustive oracle confirms such a weight exists below lam."""
    for n in range(1, max_n + 1):
        rs = build_root_system(SpC(n))
        for lam in dominant_weights_c(n, max_degree):
            yield CASE
            d, _ = degree_length(lam)
            target = min(d, n)
            trace = reduce_hyp(n, lam)
            ell = degree_length(trace.result)[1]
            ok = (ell == target and trace.replay() == trace.result
                  and dominance_compare(rs, lam, trace.result).comparable)
            if not ok:
                yield f"n={n} lam={lam}: bad trace result {trace.result}"
                continue
            oracle = brute_force_reduce(
                rs, lam, lambda mu: degree_length(mu)[1] == target)
            if oracle is None:
                yield f"n={n} lam={lam}: oracle found no witness"
            cert = support_dim_hyp(n + 1, lam)
            if cert != target:
                yield f"n={n} lam={lam}: certified dim {cert} != {target}"


def suite_reduce_nonhyp(max_n: int = 5, max_degree: int = 10) -> Iterator:
    """The Sl reduction ends with length min{d, n}, or with length and degree
    both n - 1."""
    for n in range(1, max_n + 1):
        rs = build_root_system(SlA(n))
        for lam in dominant_weights_a(n, max_degree):
            yield CASE
            d, _ = degree_length(tuple(abs(c) for c in lam))
            trace = reduce_nonhyp(n, lam)
            mu = trace.result
            dmu, ell = degree_length(tuple(abs(c) for c in mu))
            ok = (ell == min(d, n)) or (ell == dmu == n - 1)
            if not (ok and trace.replay() == trace.result
                    and dominance_compare(rs, lam, mu).comparable):
                yield f"n={n} lam={lam}: result {mu} (l={ell}, d={dmu})"
                continue
            if n >= 2:
                bound = support_dim_nonhyp_bound(n + 1, lam)
                if bound != min(d, n - 1):
                    yield f"n={n} lam={lam}: bound {bound}"


def suite_reduce_e6(max_label_sum: int = 5) -> Iterator:
    """Every nonzero dominant E6 weight reduces to w1, w2 or w6 through
    validated dominance steps."""
    rs = build_root_system(E6_KIND)
    targets = {(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)}
    for lam in dominant_weights_e6(max_label_sum):
        yield CASE
        trace = reduce_e6(lam)
        if (trace.result not in targets or trace.replay() != trace.result
                or not dominance_compare(rs, lam, trace.result).comparable):
            yield f"lam={lam}: result {trace.result}"


def suite_max_length(max_g: int = 7, max_degree: int = 12) -> Iterator:
    """max{l(mu) : mu <= lam} = min{d(lam), g - 1} over the dominance ideal."""
    for g in range(2, max_g + 1):
        n = g - 1
        rs = build_root_system(SpC(n))
        for lam in dominant_weights_c(n, max_degree):
            yield CASE
            d, _ = degree_length(lam)
            best = max(degree_length(mu)[1] for mu in dominant_ideal(rs, lam))
            if best != min(d, g - 1):
                yield f"g={g} lam={lam}: max length {best}"


def suite_alt_powers(max_n_c: int = 5, max_n_a: int = 3) -> Iterator:
    """Exterior powers of the standard character decompose as predicted:
    symplectic lambda^d = sum of the fundamental characters w_{d-2i}, and
    special-linear lambda^d = the single fundamental character w_d."""
    for n in range(1, max_n_c + 1):
        rs = build_root_system(SpC(n))
        std = freudenthal_character(rs, _pad((1,), n))
        for d in range(1, n + 1):
            yield CASE
            got = lambda_power_effective(d, std)
            want = CharElem(rs)
            for i in range(d // 2 + 1):
                want = want + freudenthal_character(rs, _pad((1,) * (d - 2 * i), n))
            if got != want:
                yield f"C n={n} d={d}"
    for n in range(1, max_n_a + 1):
        rs = build_root_system(SlA(n))
        std = freudenthal_character(rs, _pad((1,), 2 * n))
        for d in range(1, 2 * n):
            yield CASE
            got = lambda_power_effective(d, std)
            want = freudenthal_character(rs, _pad((1,) * d, 2 * n))
            if got != want:
                yield f"A n={n} d={d}"


def _random_effective_char(rs, rng, weights) -> CharElem:
    coeffs = {}
    for _ in range(rng.randint(1, 2)):
        coeffs[rng.choice(weights)] = rng.randint(1, 3)
    return CharElem(rs, coeffs)


def suite_lambda_axioms(samples: int = 200, axiom_samples_e6: int = 12,
                        seed: int = 20260826) -> Iterator:
    """Defining lambda-ring identities and Adams-operation laws, plus
    agreement of the Newton-recursion lambda powers with the direct
    elementary-symmetric computation on random effective characters.

    The full axiom battery runs on every sample for the rank-3 systems; for
    E6 the convolution/multiplicativity identities, whose products involve
    large orbits, run on the first axiom_samples_e6 samples only, while the
    virtual-vs-effective agreement still runs on all of them."""
    rng = random.Random(seed)
    systems = {
        build_root_system(SpC(3)): [(1, 0, 0), (1, 1, 0), (2, 0, 0), (0, 0, 0)],
        build_root_system(SlA(2)): [(1, 0, 0, 0), (1, 1, 0, 0),
                                    (1, 0, 0, -1), (0, 0, 0, 0)],
        build_root_system(E6_KIND): [(1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1),
                                     (0, 0, 0, 0, 0, 0)],
    }
    for rs, weights in systems.items():
        is_e6 = rs.kind.family == "E6"
        one = unit_char(rs)
        # lambda^n(1) = 0 for n > 1, lambda^0 = 1, lambda^1 = id
        for k in (2, 3):
            yield CASE
            if not lambda_power_effective(k, one).is_zero:
                yield f"{rs.kind}: lambda^{k}(1) != 0"
        for sample in range(samples):
            yield CASE
            a = _random_effective_char(rs, rng, weights)
            b = _random_effective_char(rs, rng, weights)
            n = rng.randint(2, 4)
            if lambda_power_effective(0, a) != one:
                yield f"{rs.kind}: lambda^0 != 1 at {a.coeffs}"
            if lambda_power_effective(1, a) != a:
                yield f"{rs.kind}: lambda^1 != id at {a.coeffs}"
            # virtual computation agrees with the effective one
            if lambda_power_virtual(n, a) != lambda_power_effective(n, a):
                yield f"{rs.kind}: virtual lambda^{n} disagrees"
            if is_e6 and sample >= axiom_samples_e6:
                continue
            # lambda^n(a + b) = sum_i lambda^i(a) lambda^{n-i}(b)
            lhs = lambda_power_effective(n, a + b)
            rhs = CharElem(rs)
            for i in range(n + 1):
                rhs = rhs + multiply(lambda_power_effective(i, a),
                                     lambda_power_effective(n - i, b))
            if lhs != rhs:
                yield f"{rs.kind}: additivity fails at n={n}"
            # Adams laws
            m = rng.randint(2, 3)
            if adams(n, multiply(a, b)) != multiply(adams(n, a), adams(n, b)):
                yield f"{rs.kind}: Psi^{n} not multiplicative"
            if adams(m, adams(n, a)) != adams(m * n, a):
                yield f"{rs.kind}: Psi^{m} o Psi^{n} != Psi^{m * n}"


def suite_adams_factor() -> Iterator:
    """Psi^n lands in the root lattice exactly for n killing the fundamental
    group: n = 2 (symplectic), 2n (special linear), 3 (E6)."""
    cases = []
    for n in (2, 3):
        rs = build_root_system(SpC(n))
        cases.append((rs, orbit_char(rs, _pad((1,), n)), 2))
    for n in (2, 3):
        rs = build_root_system(SlA(n))
        cases.append((rs, orbit_char(rs, _pad((1,), 2 * n)), 2 * n))
    rs6 = build_root_system(E6_KIND)
    cases.append((rs6, orbit_char(rs6, (1, 0, 0, 0, 0, 0)), 3))
    for rs, x, exponent in cases:
        yield CASE
        if rs.fundamental_group_exponent != exponent:
            yield f"{rs.kind}: exponent {rs.fundamental_group_exponent}"
        if not factors_through_root_lattice(exponent, x):
            yield f"{rs.kind}: Psi^{exponent} misses the root lattice"
        if factors_through_root_lattice(1, x):
            yield f"{rs.kind}: Psi^1 should not factor"


def suite_classify_golden() -> Iterator:
    """The classifier output matches the independently spelled-out pair sets
    and serializes byte-stably."""

    def pair_labels(report):
        return [(x.label(), y.label()) for x, y, _ in report.pairs]

    for g in range(3, 9):
        yield CASE
        report = classify_summands(CaseSpec(HYPERELLIPTIC, g))
        want = [(f"W_{d}", f"W_{g - 1 - d}") for d in range(1, g - 1)]
        if pair_labels(report) != want:
            yield f"hyperelliptic g={g}: {pair_labels(report)}"
    for g in range(4, 9):
        yield CASE
        report = classify_summands(CaseSpec(NONHYPERELLIPTIC, g))
        want = ([(f"W_{d}", f"W_{g - 1 - d}") for d in range(1, g - 1)]
                + [(f"-W_{d}", f"-W_{g - 1 - d}") for d in range(1, g - 1)])
        if pair_labels(report) != want:
            yield f"nonhyperelliptic g={g}: {pair_labels(report)}"
    yield CASE
    report = classify_summands(CaseSpec(CUBIC_THREEFOLD))
    if pair_labels(report) != [("S", "-S"), ("-S", "S")]:
        yield f"cubic threefold: {pair_labels(report)}"
    for case in ([CaseSpec(HYPERELLIPTIC, g) for g in range(3, 9)]
                 + [CaseSpec(NONHYPERELLIPTIC, g) for g in range(4, 9)]
                 + [CaseSpec(CUBIC_THREEFOLD)]):
        yield CASE
        first = json.dumps(classify_summands(case).to_json(), sort_keys=True)
        second = json.dumps(classify_summands(case).to_json(), sort_keys=True)
        if first != second:
            yield f"{case.label()}: serialization is not stable"


def suite_oracle_equivalence(max_degree: int = 6) -> Iterator:
    """Freudenthal multiplicities agree with the Weyl character formula."""
    for rs in (build_root_system(SpC(2)), build_root_system(SpC(3)),
               build_root_system(SlA(2))):
        for lam in _dominant_weights(rs, max_degree):
            yield CASE
            a = freudenthal_character(rs, lam)
            b = weyl_character_direct(rs, lam)
            if a != b:
                yield f"{rs.kind} lam={lam}"
            if a.dimension() != weyl_dimension(rs, lam):
                yield f"{rs.kind} lam={lam}: dimension mismatch"


SUITES = {
    "dims-e6": suite_dims_e6,
    "multiplicity-dominance": suite_multiplicity_dominance,
    "reduce-hyp": suite_reduce_hyp,
    "reduce-nonhyp": suite_reduce_nonhyp,
    "reduce-e6": suite_reduce_e6,
    "max-length": suite_max_length,
    "alt-powers": suite_alt_powers,
    "lambda-axioms": suite_lambda_axioms,
    "adams-factor": suite_adams_factor,
    "classify-golden": suite_classify_golden,
    "oracle-equivalence": suite_oracle_equivalence,
}


def run_suite(name: str, **bounds) -> SuiteResult:
    """Run one suite: count its CASE markers, collect its failure messages
    in the order they are yielded, and time the whole run.  Bounds that
    leave no case to test are an InvalidInputError, not a pass."""
    if name not in SUITES:
        raise InvalidInputError(
            f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    code = SUITES[name].__code__
    valid = code.co_varnames[:code.co_argcount]
    unknown = sorted(set(bounds) - set(valid))
    if unknown:
        raise InvalidInputError(
            f"suite {name!r} has no bound {', '.join(unknown)}; "
            f"valid bounds: {', '.join(valid) or 'none'}")
    t0 = time.monotonic()
    tested, failures = 0, []
    for item in SUITES[name](**bounds):
        if item is CASE:
            tested += 1
        else:
            failures.append(item)
    if not tested:
        given = ", ".join(f"{k}={v}" for k, v in bounds.items())
        raise InvalidInputError(f"suite {name!r} tested no case with "
                                + (f"bounds {given}" if given else "its default bounds"))
    return SuiteResult(name, tested, tuple(failures), time.monotonic() - t0)
