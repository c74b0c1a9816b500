"""Dominance order, constructive reductions, and the exhaustive oracle."""

import copy
import pickle
import random

import pytest

from thetasummands import dominance
from thetasummands.charring import DEFAULT_CAP, weyl_dimension
from thetasummands.dominance import (DominanceWitness, brute_force_reduce,
                                     degree_length, dominance_compare,
                                     dominant_ideal, dominant_weights_below,
                                     reduce_e6, reduce_hyp, reduce_nonhyp)
from thetasummands.errors import (BudgetExhaustedError, CertificationError,
                                  InvalidInputError, ResourceCapError)
from thetasummands.rootsys import (E6, SlA, SpC, build_root_system, closure,
                                   weight_from_dynkin)
from thetasummands.suites import (_pad, _partitions, dominant_weights_a,
                                  dominant_weights_c, dominant_weights_e6)
from thetasummands.weyl import dominant_projection


def test_dominance_c2():
    rs = build_root_system(SpC(2))
    wit = dominance_compare(rs, (3, 0), (2, 1))
    assert wit.comparable
    # (3,0) - (2,1) = (1,-1) = alpha_1
    assert wit.root_coefficients == (1, 0)
    assert dominance_compare(rs, (2, 0), (1, 1)).root_coefficients == (1, 0)
    assert dominance_compare(rs, (2, 0), (0, 0)).root_coefficients == (2, 1)
    assert not dominance_compare(rs, (2, 1), (3, 0))
    # parity obstruction: difference (1,0) is not in the root lattice
    assert not dominance_compare(rs, (2, 1), (1, 1))


def test_dominance_witness_reconstructs_difference():
    rs = build_root_system(SpC(3))
    lam, mu = (4, 2, 0), (2, 2, 2)
    wit = dominance_compare(rs, lam, mu)
    assert wit.comparable
    acc = mu
    for c, alpha in zip(wit.root_coefficients, rs.simple_roots):
        acc = rs.add(acc, rs.scale(c, alpha))
    assert acc == lam


def test_dominance_a_kind():
    rs = build_root_system(SlA(2))
    assert dominance_compare(rs, (2, 0, 0, 0), (1, 1, 0, 0))
    assert dominance_compare(rs, (1, 1, 1, 0), (1, 1, 1, 0))
    # difference not in the root lattice (sum changes by 1, not by 4)
    assert not dominance_compare(rs, (1, 0, 0, 0), (0, 0, 0, 0))
    # mod-det invariance of the comparison
    wit = dominance_compare(rs, (3, 1, 1, 1), (1, 1, 0, 0))
    assert wit.comparable == dominance_compare(rs, (2, 0, 0, 0), (1, 1, 0, 0)).comparable


def test_dominance_e6():
    rs = build_root_system(E6)
    rho = (1, 1, 1, 1, 1, 1)
    wit = dominance_compare(rs, rho, (0, 0, 0, 0, 0, 0))
    assert wit.comparable
    assert all(c > 0 for c in wit.root_coefficients)
    assert not dominance_compare(rs, (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1))
    # the adjoint weight w2 dominates zero
    assert dominance_compare(rs, (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0))


def test_dominance_rejects_nondominant():
    rs = build_root_system(SpC(2))
    with pytest.raises(InvalidInputError):
        dominance_compare(rs, (0, 1), (0, 0))


def test_degree_length():
    assert degree_length((3, 1, 0)) == (4, 2)
    assert degree_length((0, 0)) == (0, 0)


def test_reduce_hyp_single_step():
    trace = reduce_hyp(2, (3, 0))
    assert trace.result == (2, 1)
    assert len(trace.steps) == 1
    assert trace.steps[0][0] == (1, -1)
    assert trace.replay() == trace.result


def test_reduce_hyp_properties_small():
    for n in (2, 3, 4):
        rs = build_root_system(SpC(n))
        for lam in dominant_ideal(rs, (4,) + (0,) * (n - 1)):
            trace = reduce_hyp(n, lam)
            d, _ = degree_length(lam)
            assert degree_length(trace.result)[1] == min(d, n)
            assert dominance_compare(rs, lam, trace.result)


def test_reduce_nonhyp_outcomes():
    n = 2
    rs = build_root_system(SlA(n))
    # degree 4, length 1: must end with length min(4, 2) = 2
    trace = reduce_nonhyp(n, (4, 0, 0, 0))
    dmu, ell = degree_length(tuple(abs(c) for c in trace.result))
    assert ell == 2
    assert dominance_compare(rs, trace.start, trace.result)
    # already-short weights are fixed
    assert reduce_nonhyp(n, (1, 0, 0, -1)).result == (1, 0, 0, -1)


def test_reduce_nonhyp_renormalizing_case():
    # minus-block moves may renormalize mod det and lift the length above n;
    # the loop must recover with cross moves
    n = 2
    rs = build_root_system(SlA(n))
    lam = rs.normalize((0, 0, 0, -4))
    trace = reduce_nonhyp(n, lam)
    dmu, ell = degree_length(tuple(abs(c) for c in trace.result))
    assert (ell == min(4, n)) or (ell == dmu == n - 1)
    assert dominance_compare(rs, trace.start, trace.result)


def test_reduce_e6_targets():
    targets = {(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)}
    assert reduce_e6((0, 0, 1, 0, 0, 0)).result in targets
    assert reduce_e6((1, 0, 0, 0, 0, 1)).result == (0, 1, 0, 0, 0, 0)
    assert reduce_e6((2, 0, 0, 0, 0, 0)).result == (0, 0, 0, 0, 0, 1)
    assert reduce_e6((3, 0, 0, 0, 0, 0)).result == (0, 1, 0, 0, 0, 0)
    with pytest.raises(InvalidInputError):
        reduce_e6((0, 0, 0, 0, 0, 0))


@pytest.mark.parametrize("reduce, args", [
    (reduce_hyp, (3, (4, 0, 0))),
    (reduce_nonhyp, (3, (2, 2, 2, 0, -2, -2))),
    (reduce_e6, ((0, 0, 2, 0, 0, 0),)),
], ids=["hyp", "nonhyp", "e6"])
def test_reductions_raise_at_the_first_step_past_the_cap(reduce, args):
    trace = reduce(*args)
    steps = len(trace.steps)
    assert steps >= 2
    assert reduce(*args, cap=steps) == trace
    with pytest.raises(ResourceCapError, match=f"cap of {steps - 1} steps"):
        reduce(*args, cap=steps - 1)


def e6_loop_walk(lam):
    """Oracle: reduce_e6 as a walk of while-loops over the current labels,
    returning its (subtracted element, rule) steps and its end point."""
    cur = list(lam)
    steps = []

    def apply(rule):
        hi, lo = dominance.E6_RULES[rule]
        diff = tuple(a - b for a, b in zip(hi, lo))
        cur[:] = [c - d for c, d in zip(cur, diff)]
        assert min(cur) >= 0, (lam, rule)
        steps.append((diff, rule))

    while cur[2]:
        apply("w3>=w6")
    while cur[3]:
        apply("w4>=w2")
    while cur[4]:
        apply("w5>=w1")
    while cur[0] >= 1 and cur[5] >= 1 and (cur[0], cur[1], cur[5]) != (1, 0, 1):
        apply("w1+w6>=0")
    if (cur[0], cur[1], cur[5]) == (1, 0, 1):
        apply("w1+w6>=w2")
    elif cur[1]:
        while cur[1] > (1 if cur[0] == cur[5] == 0 else 0):
            apply("w2>=0")
    if tuple(cur) not in dominance.E6_TARGETS:
        idx = 0 if cur[0] else 5
        double, triple = ("2w1>=w6", "3w1>=w2") if idx == 0 else ("2w6>=w1", "3w6>=w2")
        while cur[idx] > 3:
            apply(double)
            apply("w1+w6>=0")
        if cur[idx] == 2:
            apply(double)
        elif cur[idx] == 3:
            apply(triple)
    return tuple(steps), tuple(cur)


def e6_closed_form_step_count(lam):
    """Oracle: the length of reduce_e6's walk as one formula in the labels."""
    l1, l2, l3, l4, l5, l6 = lam
    a, b, c = l1 + l5, l2 + l4, l6 + l3
    if b == 0 and a == c:
        return l3 + l4 + l5 + a
    pairs = min(a, c)
    m = a + c - 2 * pairs
    strip = b - 1 if m == 0 else b
    tail = 2 * ((m - 1) // 3) + (m % 3 != 1) if m else 0
    return l3 + l4 + l5 + pairs + strip + tail


def e6_plan_length(lam):
    return sum(len(rules) * times for rules, times in dominance._e6_plan(lam))


def test_reduce_e6_matches_the_loop_walk():
    for lam in dominant_weights_e6(7):
        if any(lam):
            trace = reduce_e6(lam)
            assert (trace.start, trace.steps, trace.result) == (lam, *e6_loop_walk(lam)), lam


def test_e6_plan_length_matches_the_closed_form():
    rng = random.Random(2501)
    for _ in range(5000):
        lam = tuple(rng.choice((0, 1, 2, 3, rng.randint(0, 10**6))) for _ in range(6))
        if any(lam):
            assert e6_plan_length(lam) == e6_closed_form_step_count(lam), lam


def test_reduce_e6_counts_its_steps_before_the_walk(monkeypatch):
    # the plan's length is the walk's on every weight of label sum <= 6
    for lam in dominant_weights_e6(6):
        if any(lam):
            assert len(reduce_e6(lam).steps) == e6_plan_length(lam), lam
    # 3 * 10^6 steps: refused before the first one is validated
    monkeypatch.setattr(dominance, "dominance_compare", None)
    with pytest.raises(ResourceCapError, match="cap of 1000000 steps"):
        reduce_e6((0, 0, 3 * 10**6, 0, 0, 0))


def test_reduce_e6_certifies_its_step_count(monkeypatch):
    # a plan with any run one step short or one step long leaves the
    # dominant cone or ends outside the target set: an internal error
    plan = dominance._e6_plan
    mutations = 0
    for lam in dominant_weights_e6(3):
        for i, (rules, times) in enumerate(plan(lam) if any(lam) else ()):
            for delta in (-1, 1) if times else (1,):
                def mutated(mu, i=i, delta=delta):
                    runs = plan(mu)
                    runs[i] = (runs[i][0], runs[i][1] + delta)
                    return runs
                monkeypatch.setattr(dominance, "_e6_plan", mutated)
                with pytest.raises(CertificationError):
                    reduce_e6(lam)
                mutations += 1
    assert mutations > 500


def test_reduce_e6_fixes_targets():
    for t in ((1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)):
        assert reduce_e6(t).result == t
        assert reduce_e6(t).steps == ()


def test_dominant_ideal_c2():
    rs = build_root_system(SpC(2))
    ideal = set(dominant_ideal(rs, (2, 0)))
    assert ideal == {(2, 0), (1, 1), (0, 0)}


def test_dominant_ideal_contains_endpoints():
    rs = build_root_system(SlA(2))
    lam = (2, 1, 0, -1)
    ideal = set(dominant_ideal(rs, lam))
    assert lam in ideal
    for mu in ideal:
        assert dominance_compare(rs, lam, mu)


def box_ideal(rs, lam):
    """Oracle: the coordinate box that dominant_ideal enumerated for C and A
    before it generated partial sums, filtered by dominance_compare.  C: the
    partitions of at most |lam| with n parts at most lam_1.  A: every pair of
    blocks with entries at most lam_1 + q_1, where lam = (p | -reversed(q))."""
    n = rs.kind.n
    if rs.kind.family == "C":
        box = (_pad(part, n) for part in _partitions(sum(lam), n, lam[0]))
    else:
        bound = lam[0] - lam[-1]
        box = (_pad(pp, n) + tuple(-c for c in reversed(_pad(qq, n)))
               for pp in _partitions(n * bound, n, bound)
               for qq in _partitions((n - 1) * bound, n - 1, bound))
    return [mu for mu in box if dominance_compare(rs, lam, mu).comparable]


def weight_system(rs, lam):
    """Oracle: all weights of the irreducible representation with highest
    weight lam, by downward closure under simple-root subtraction.
    Freudenthal walks only their dominant projections."""
    lam = rs.normalize(lam)

    def below(w):
        for alpha in rs.simple_roots:
            v = rs.sub(w, alpha)
            if dominance_compare(rs, lam, dominant_projection(rs, v)[0]).comparable:
                yield v

    return closure([lam], below, DEFAULT_CAP, f"weight system of {lam}")


def test_weight_system_c2():
    ws = weight_system(build_root_system(SpC(2)), (1, 1))
    # weights of the 5-dimensional irreducible: orbit of (1,1) plus 0
    assert ws == {(1, 1), (1, -1), (-1, 1), (-1, -1), (0, 0)}


IDEAL_ORACLE_CASES = ([(SpC(n), 8) for n in range(1, 5)] + [(SpC(5), 6), (SpC(6), 6)]
                      + [(SlA(n), 6) for n in range(1, 4)])


@pytest.mark.parametrize("kind, max_degree", IDEAL_ORACLE_CASES,
                         ids=[str(k) for k, _ in IDEAL_ORACLE_CASES])
def test_dominant_ideal_matches_the_box_oracle(kind, max_degree):
    rs = build_root_system(kind)
    weights = (dominant_weights_c(kind.n, max_degree) if kind.family == "C"
               else dominant_weights_a(kind.n, max_degree))
    for lam in weights:
        ideal = list(dominant_ideal(rs, lam))
        assert len(ideal) == len(set(ideal)), lam
        assert set(ideal) == set(box_ideal(rs, lam)), lam
        if kind.family == "C":
            assert ideal == sorted(ideal, reverse=True), lam


@pytest.mark.parametrize("kind, lam, rejected", [
    (SpC(3), (3, 1, 0), (2, 1, 1)),
    (SlA(2), (2, 1, 0, -1), (1, 1, 0, 0)),
], ids=["C3", "SL4"])
def test_dominant_ideal_certifies_every_element(monkeypatch, kind, lam, rejected):
    rs = build_root_system(kind)
    assert rejected in set(dominant_ideal(rs, lam))
    compare = dominance.dominance_compare

    def reject_one(rs, lam, mu):
        return DominanceWitness(False) if mu == rejected else compare(rs, lam, mu)
    monkeypatch.setattr(dominance, "dominance_compare", reject_one)
    with pytest.raises(CertificationError, match="dominance_compare rejects it"):
        list(dominant_ideal(rs, lam))


def test_dominant_ideal_rejects_a_non_dominant_weight():
    with pytest.raises(InvalidInputError, match="expected a dominant weight"):
        list(dominant_ideal(build_root_system(SpC(2)), (0, 1)))


def test_brute_force_reduce():
    rs = build_root_system(SpC(3))
    hit = brute_force_reduce(rs, (4, 0, 0),
                             lambda mu: degree_length(mu)[1] == 3)
    assert hit is not None
    assert degree_length(hit)[1] == 3
    none = brute_force_reduce(rs, (2, 0, 0),
                              lambda mu: degree_length(mu)[1] == 17)
    assert none is None
    with pytest.raises(BudgetExhaustedError):
        brute_force_reduce(rs, (6, 6, 6), lambda mu: False, budget=3)


@pytest.mark.parametrize("kind, weights", [
    (SpC(2), tuple(dominant_weights_c(2, 6))),
    (SpC(3), tuple(dominant_weights_c(3, 6))),
    (SlA(2), tuple(dominant_weights_a(2, 6))),
    (E6, tuple(dominant_weights_e6(2))),
], ids=["C2", "C3", "SL4", "E6"])
def test_dominant_weights_below_matches_oracles(kind, weights):
    # the bounds of the multiplicity-dominance suite, with E6 raised to label
    # sum 2; the full weight system is listed only up to dimension 3000,
    # because the largest of these E6 modules has dimension 1337050
    rs = build_root_system(kind)
    for lam in weights:
        below = dominant_weights_below(rs, lam)
        assert below == set(dominant_ideal(rs, lam)), lam
        if weyl_dimension(rs, lam) <= 3000:
            projected = {dominant_projection(rs, w)[0]
                         for w in weight_system(rs, lam)}
            assert below == projected, lam


def test_dominant_weights_below_cap_and_input():
    rs = build_root_system(SpC(3))
    assert len(dominant_weights_below(rs, (3, 2, 1), cap=8)) == 8
    with pytest.raises(ResourceCapError):
        dominant_weights_below(rs, (3, 2, 1), cap=7)
    with pytest.raises(InvalidInputError):
        dominant_weights_below(rs, (1, 2, 0))


def closed_form_root_coefficients(rs, lam, mu):
    """Oracle for C and A: the simple-root coefficients of lam - mu from
    partial sums of the coordinate differences, or None when lam - mu is
    not a nonnegative integer combination of simple roots."""
    diff = [a - b for a, b in zip(lam, mu)]
    if rs.kind.family == "C":
        partial = [sum(diff[:k + 1]) for k in range(rs.rank)]
        coeffs = partial[:-1] + [partial[-1] // 2]
        ok = partial[-1] % 2 == 0
    else:
        m = len(diff)
        t, rest = divmod(sum(diff), m)
        coeffs = [sum(diff[:k + 1]) - (k + 1) * t for k in range(m - 1)]
        ok = rest == 0
    return tuple(coeffs) if ok and min(coeffs) >= 0 else None


def fraction_root_coefficients(rs, lam, mu):
    """Oracle for E6: the Fraction root-basis coordinates of lam - mu."""
    coeffs = rs.root_basis_coords(rs.sub(lam, mu))
    if all(c >= 0 and c.denominator == 1 for c in coeffs):
        return tuple(int(c) for c in coeffs)
    return None


def oracle_tops(rs):
    """Three dominant weights per system, given by Dynkin labels; the test
    compares every ordered pair in the union of their ideals."""
    r = rs.rank

    def labels(d):
        return weight_from_dynkin(rs, [d.get(i, 0) for i in range(r)])
    return [labels({0: 2, r - 1: 1}) if r > 1 else labels({0: 3}),
            labels({0: 1, 1: 1, r - 1: 1}) if r > 2 else labels({0: 4}),
            rs.weyl_vector_rho if r <= 4 else labels({1: 1, r - 2: 2})]


DOMINANCE_ORACLE_KINDS = [SpC(n) for n in range(1, 8)] + [SlA(n) for n in range(1, 6)] + [E6]


@pytest.mark.parametrize("kind", DOMINANCE_ORACLE_KINDS, ids=str)
def test_dominance_compare_matches_the_oracles(kind):
    rs = build_root_system(kind)
    oracle = fraction_root_coefficients if kind == E6 else closed_form_root_coefficients
    weights = set()
    for top in oracle_tops(rs):
        weights |= dominant_weights_below(rs, top)
    answers = []
    for lam in weights:
        for mu in weights:
            wit = dominance_compare(rs, lam, mu)
            answers.append(wit.root_coefficients)
            assert answers[-1] == oracle(rs, lam, mu), (lam, mu)
            assert wit.comparable == (answers[-1] is not None)
    assert None in answers and len(set(answers)) > 2


def test_witness_and_trace_are_immutable_records():
    rs = build_root_system(SpC(2))
    yes, no = dominance_compare(rs, (3, 0), (2, 1)), dominance_compare(rs, (2, 1), (3, 0))
    # truth is comparability, not the length of the record
    assert yes and not no and no.root_coefficients is None
    trace = reduce_hyp(3, (3, 0, 0))
    for record in (yes, no, trace):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
            assert twin == record and hash(twin) == hash(record)
            assert bool(twin) == bool(record)
    assert trace.replay() == trace.result
