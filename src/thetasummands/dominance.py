"""Dominance order and the constructive weight-reduction algorithms.

``mu <= lam`` in the dominance order iff lam - mu is a nonnegative integer
combination of simple roots, read off the integer coweight table.  The
``reduce_*`` functions realize the constructive proofs that every dominant
weight dominates one of small, controlled shape, one counted step at a time.
``brute_force_reduce`` is an exhaustive oracle over the dominance ideal, and
``dominant_weights_below`` walks that ideal down from lam one positive root
at a time for Freudenthal.

``dominant_ideal`` lists the same ideal without the closure walk: by partial
sums for C_n and A_{2n-1}, each element certified by ``dominance_compare``,
and by a box of simple-root multiples for E6.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import accumulate, product
from operator import mul

from .errors import (BudgetExhaustedError, CertificationError, InvalidInputError,
                     ResourceCapError)
from .rootsys import (Coords, RootSystem, SlA, SpC, E6 as E6_KIND,
                      build_root_system, closure)
from .weyl import is_dominant

DEFAULT_BUDGET = 10**6


class DominanceWitness(namedtuple("DominanceWitness", "comparable root_coefficients",
                                  defaults=(None,))):
    """root_coefficients: of lam - mu on the simple roots, if comparable."""

    __slots__ = ()

    def __bool__(self):
        return self.comparable


def dominance_compare(rs: RootSystem, lam, mu) -> DominanceWitness:
    """Decide mu <= lam for dominant weights, with witness coefficients: the
    coweight table gives e times the simple-root coordinates of lam - mu,
    and each must be a nonnegative multiple of e, the exponent of P/Q."""
    lam, mu = rs.normalize(lam), rs.normalize(mu)
    if not (is_dominant(rs, lam) and is_dominant(rs, mu)):
        raise InvalidInputError("dominance_compare expects dominant weights")
    e = rs.fundamental_group_exponent
    diff = [a - b for a, b in zip(lam, mu)]
    coeffs = []
    for row in rs.coweights:
        c, r = divmod(sum(map(mul, row, diff)), e)
        if r or c < 0:
            return DominanceWitness(False)
        coeffs.append(c)
    return DominanceWitness(True, tuple(coeffs))


def dominant_weights_below(rs: RootSystem, lam,
                           cap: int = DEFAULT_BUDGET) -> set[Coords]:
    """All dominant mu with mu <= lam, as the closure of {lam} under
    "subtract a positive root and stay dominant".

    The closure is the whole ideal because any dominant mu < lam lies below
    some dominant lam - alpha with alpha a positive root (Stembridge, The
    partial order of dominant weights, Adv. Math. 136, 1998).  Raises
    ResourceCapError at the first weight past cap.
    """
    lam = rs.normalize(lam)
    if not is_dominant(rs, lam):
        raise InvalidInputError(f"expected a dominant weight, got {lam}")

    def below(mu):
        for alpha in rs.positive_roots:
            nu = rs.sub(mu, alpha)
            if is_dominant(rs, nu):
                yield nu

    return closure([lam], below, cap, f"the set of dominant weights below {lam}")


# --- reduction traces ------------------------------------------------------


class ReductionTrace(namedtuple("ReductionTrace", "system start steps result")):
    """steps: (subtracted element, rule label) pairs from start to result."""

    __slots__ = ()

    def replay(self) -> Coords:
        cur = self.start
        for sub, _label in self.steps:
            cur = self.system.sub(cur, sub)
        return cur


def degree_length(lam) -> tuple[int, int]:
    """(sum of entries, number of nonzero entries) of a partition-like tuple."""
    return sum(lam), sum(1 for c in lam if c)


def _check_step_cap(steps: int, cap: int, lam: Coords):
    """Raise ResourceCapError if the reduction of lam takes steps > cap."""
    if steps > cap:
        raise ResourceCapError(f"the reduction of {lam} exceeds the cap of {cap} steps")


def reduce_hyp(n: int, lam, cap: int = DEFAULT_BUDGET) -> ReductionTrace:
    """Raise the length of a symplectic dominant weight to min{d, n}.

    At each step i is the last position with an entry >= 2 and k the first
    zero position; subtracting e_i - e_k keeps the weight dominant, keeps the
    degree and increases the length by one.  Like the other reductions it
    raises ResourceCapError before a step past cap.
    """
    rs = build_root_system(SpC(n))
    lam = rs.normalize(lam)
    if not is_dominant(rs, lam):
        raise InvalidInputError(f"reduce_hyp expects a dominant weight, got {lam}")
    d, _ = degree_length(lam)
    target = min(d, n)
    cur = lam
    steps = []
    while degree_length(cur)[1] < target:
        _check_step_cap(len(steps) + 1, cap, lam)
        i = max(j for j in range(n) if cur[j] >= 2)
        k = degree_length(cur)[1]  # first zero position (0-based)
        root = tuple(1 if j == i else -1 if j == k else 0 for j in range(n))
        cur = rs.sub(cur, root)
        steps.append((root, f"e{i + 1}-e{k + 1}"))
    return ReductionTrace(rs, lam, tuple(steps), cur)


def _sl_blocks(n: int, lam: Coords) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Split a normalized Sl weight into its two partitions (p, q), both
    weakly decreasing: lam = (p | -reversed(q))."""
    return lam[:n], tuple(-c for c in reversed(lam[n:]))


def reduce_nonhyp(n: int, lam, cap: int = DEFAULT_BUDGET) -> ReductionTrace:
    """Reduce an Sl_{2n} dominant weight to one with length min{d, n} or with
    length = degree = n - 1.

    First shrink the degree with cross-block subtractions e_i - e_{n+k} while
    the length exceeds min{d, n}; then raise the length with in-block
    subtractions (plus block first) as in the symplectic case.
    """
    rs = build_root_system(SlA(n))
    lam = rs.normalize(lam)
    if not is_dominant(rs, lam):
        raise InvalidInputError(f"reduce_nonhyp expects a dominant weight, got {lam}")
    cur = lam
    steps = []

    def unit_root(pos_plus: int, pos_minus: int) -> Coords:
        return tuple(1 if j == pos_plus else -1 if j == pos_minus else 0
                     for j in range(2 * n))

    while True:
        p, q = _sl_blocks(n, cur)
        d = sum(p) + sum(q)
        ell = degree_length(p)[1] + degree_length(q)[1]
        if ell == min(d, n):
            break
        _check_step_cap(len(steps) + 1, cap, lam)
        if ell > min(d, n):
            # length exceeds n: a cross move drops the degree by 2
            # (both blocks are nonzero here)
            i = max(j for j in range(n) if p[j] == max(p))
            j = max(k for k in range(n) if q[k] == max(q))
            root = unit_root(i, 2 * n - 1 - j)
            cur = rs.sub(cur, root)
            steps.append((root, f"e{i + 1}-e{2 * n - j}"))
        elif any(c >= 2 for c in p) and degree_length(p)[1] < n:
            # in-block move in the plus partition: length up, degree fixed
            i = max(j for j in range(n) if p[j] >= 2)
            k = degree_length(p)[1]
            root = unit_root(i, k)
            cur = rs.sub(cur, root)
            steps.append((root, f"e{i + 1}-e{k + 1}"))
        else:
            # same move on the minus partition (may renormalize mod det)
            a = max(j for j in range(n) if q[j] >= 2)
            b = degree_length(q)[1]
            root = unit_root(2 * n - 1 - b, 2 * n - 1 - a)
            cur = rs.sub(cur, root)
            steps.append((root, f"e{2 * n - b}-e{2 * n - a}"))
    return ReductionTrace(rs, lam, tuple(steps), cur)


# E6 reduction rules as (label, minuend Dynkin labels, subtrahend Dynkin labels).
E6_RULES = {
    "w3>=w6": ((0, 0, 1, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
    "w4>=w2": ((0, 0, 0, 1, 0, 0), (0, 1, 0, 0, 0, 0)),
    "w5>=w1": ((0, 0, 0, 0, 1, 0), (1, 0, 0, 0, 0, 0)),
    "w2>=0": ((0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)),
    "w1+w6>=0": ((1, 0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0)),
    "2w1>=w6": ((2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)),
    "3w1>=w2": ((3, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)),
    "2w6>=w1": ((0, 0, 0, 0, 0, 2), (1, 0, 0, 0, 0, 0)),
    "3w6>=w2": ((0, 0, 0, 0, 0, 3), (0, 1, 0, 0, 0, 0)),
    # needed when exactly one w1 + w6 pair remains: stripping it to zero
    # would leave the target set, but w2 still lies below it
    "w1+w6>=w2": ((1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0)),
}

E6_TARGETS = (
    (1, 0, 0, 0, 0, 0),  # w1
    (0, 1, 0, 0, 0, 0),  # w2
    (0, 0, 0, 0, 0, 1),  # w6
)


def _e6_plan(lam: Coords) -> list[tuple[tuple[str, ...], int]]:
    """The walk of reduce_e6 from a nonzero dominant lam, as runs (rules,
    times): the rules in order, times times over.

    Stripping w3, w4 and w5 leaves a w1 + b w2 + c w6.  The pairs w1 + w6 go
    to 0, the last one to w2 when nothing else is left; w2 goes unless it is
    all that is left.  The multiple m of w1 or of w6 left over loses 3 per
    two steps while m > 3, and a rest of 2 or 3 takes one more step.
    """
    l1, l2, l3, l4, l5, l6 = lam
    a, b, c = l1 + l5, l2 + l4, l3 + l6
    plan = [(("w3>=w6",), l3), (("w4>=w2",), l4), (("w5>=w1",), l5)]
    if b == 0 and a == c:
        return plan + [(("w1+w6>=0",), a - 1), (("w1+w6>=w2",), 1)]
    m = abs(a - c)
    plan += [(("w1+w6>=0",), min(a, c)), (("w2>=0",), b - 1 if m == 0 else b)]
    if m:
        double, triple = ("2w1>=w6", "3w1>=w2") if a > c else ("2w6>=w1", "3w6>=w2")
        plan += [((double, "w1+w6>=0"), (m - 1) // 3),
                 ((double,), int(m % 3 == 2)), ((triple,), int(m % 3 == 0))]
    return plan


def reduce_e6(lam, cap: int = DEFAULT_BUDGET) -> ReductionTrace:
    """Reduce a nonzero dominant E6 weight to w1, w2 or w6.

    The walk is read off the labels (_e6_plan), so the cap is compared with
    its length before the first step.  Every step subtracts the difference
    of a fixed dominance relation and is re-validated through
    dominance_compare.
    """
    rs = build_root_system(E6_KIND)
    lam = rs.normalize(lam)
    if not is_dominant(rs, lam):
        raise InvalidInputError(f"reduce_e6 expects a dominant weight, got {lam}")
    if lam == rs.zero():
        raise InvalidInputError("reduce_e6 is undefined for the zero weight "
                                "(no target weight lies below 0)")
    plan = _e6_plan(lam)
    _check_step_cap(sum(len(rules) * times for rules, times in plan), cap, lam)
    cur = lam
    steps = []
    for rules, times in plan:
        for rule in rules * times:
            hi, lo = E6_RULES[rule]
            diff = tuple(a - b for a, b in zip(hi, lo))
            new = tuple(c - d for c, d in zip(cur, diff))
            if any(c < 0 for c in new):
                raise CertificationError(f"rule {rule} leaves the dominant cone at {cur}")
            if not dominance_compare(rs, cur, new).comparable:
                raise CertificationError(f"rule {rule} failed dominance validation")
            steps.append((diff, rule))
            cur = new
    if cur not in E6_TARGETS:
        raise CertificationError(f"reduction of {lam} ended outside the target set: {cur}")
    return ReductionTrace(rs, lam, tuple(steps), cur)


# --- exhaustive oracle -----------------------------------------------------


def _partial_sum_ideal(lam: Coords, low: int, step: int):
    """Weakly decreasing integer tuples nu of len(lam) with entries >= low,
    in descending lexicographic order, with nu_1 + ... + nu_k <= lam_1 + ...
    + lam_k for every k and |lam| - |nu| a nonnegative multiple of step
    (step 0: equal totals).  lam is weakly decreasing with lam_m >= low.

    From a prefix summing to s whose last entry is v, with r entries left,
    the reachable totals are every integer from s + r * low up to
    min(s + r * v, |lam|): the upper end is the pointwise minimum of two
    concave partial-sum profiles.  A branch is entered only when that range
    holds an allowed total, so every branch ends in output.
    """
    m = len(lam)
    caps = tuple(accumulate(lam))
    total = caps[-1]

    def extend(prefix, t, prev):
        i = len(prefix)
        r = m - i - 1
        for v in range(min(prev, caps[i] - t), low - 1, -1):
            s = t + v
            top = min(s + r * v, total)
            if not step:
                if top < total:
                    break  # top only falls with v
            elif top - (total - top) % step < s + r * low:
                continue
            nu = prefix + (v,)
            if r:
                yield from extend(nu, s, v)
            else:
                yield nu

    yield from extend((), 0, lam[0])


def _root_box_ideal(rs: RootSystem, lam: Coords):
    """Each dominant lam - sum c_i alpha_i with 0 <= c_i <= lam's root coordinates."""
    bounds = [c // rs.fundamental_group_exponent for c in rs.scaled_root_coords(lam)]
    for cvec in product(*(range(b + 1) for b in bounds)):
        mu = lam
        for c, alpha in zip(cvec, rs.simple_roots):
            if c:
                mu = rs.sub(mu, rs.scale(c, alpha))
        if all(x >= 0 for x in mu):
            yield mu


def dominant_ideal(rs: RootSystem, lam, budget: int = DEFAULT_BUDGET):
    """The dominance ideal {mu dominant : mu <= lam}, each element once.

    C: the partitions of at most n parts with partial sums at or below lam's
    and |lam| - |mu| even.  A: the GL_{2n} representatives with lam's total
    and partial sums at or below lam's, normalized mod det.  E6: a box of
    simple-root multiples.  C and A elements are certified by
    dominance_compare (CertificationError if it disagrees);
    BudgetExhaustedError at the first element past budget."""
    lam = rs.normalize(lam)
    if not is_dominant(rs, lam):
        raise InvalidInputError(f"expected a dominant weight, got {lam}")
    fam = rs.kind.family
    if fam == "C":
        ideal = _partial_sum_ideal(lam, 0, 2)
    elif fam == "A":
        ideal = map(rs.normalize, _partial_sum_ideal(lam, lam[-1], 0))
    else:
        ideal = _root_box_ideal(rs, lam)
    for visited, mu in enumerate(ideal, 1):
        if visited > budget:
            raise BudgetExhaustedError(
                f"dominance-ideal enumeration for {lam} exceeded budget {budget}")
        if fam != "E6" and not dominance_compare(rs, lam, mu).comparable:
            raise CertificationError(
                f"{mu} was enumerated below {lam} but dominance_compare rejects it")
        yield mu


def brute_force_reduce(rs: RootSystem, lam, target_predicate,
                       budget: int = DEFAULT_BUDGET) -> Coords | None:
    """Exhaustive search for a dominant mu <= lam with target_predicate(mu).

    Returns some such mu, or None if the full ideal was enumerated without a
    hit.  Raises BudgetExhaustedError if the enumeration was cut short, which
    is distinct from a definite "none exists"."""
    for mu in dominant_ideal(rs, lam, budget):
        if target_predicate(mu):
            return mu
    return None
