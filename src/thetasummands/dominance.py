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


def _e6_step_count(lam: Coords) -> int:
    """The number of steps reduce_e6 takes from a nonzero dominant lam."""
    l1, l2, l3, l4, l5, l6 = lam
    # once w3, w4 and w5 are stripped: a w1 + b w2 + c w6
    a, b, c = l1 + l5, l2 + l4, l6 + l3
    if b == 0 and a == c:
        # a - 1 pairs w1 + w6 go to 0, the last one to w2
        return l3 + l4 + l5 + a
    pairs = min(a, c)
    m = a + c - 2 * pairs  # the multiple of w1 or of w6 left over
    strip = b - 1 if m == 0 else b  # w2 stays only when nothing else does
    # two steps take 3 off m while m > 3; a rest of 2 or 3 takes one more
    tail = 2 * ((m - 1) // 3) + (m % 3 != 1) if m else 0
    return l3 + l4 + l5 + pairs + strip + tail


def reduce_e6(lam, cap: int = DEFAULT_BUDGET) -> ReductionTrace:
    """Reduce a nonzero dominant E6 weight to w1, w2 or w6.

    Every step subtracts the difference of a fixed dominance relation and is
    re-validated through dominance_compare.  The number of steps follows
    from the labels, so the cap is checked once, before the walk.
    """
    rs = build_root_system(E6_KIND)
    lam = rs.normalize(lam)
    if not is_dominant(rs, lam):
        raise InvalidInputError(f"reduce_e6 expects a dominant weight, got {lam}")
    if lam == rs.zero():
        raise InvalidInputError("reduce_e6 is undefined for the zero weight "
                                "(no target weight lies below 0)")
    count = _e6_step_count(lam)
    _check_step_cap(count, cap, lam)
    cur = list(lam)
    steps = []

    def apply(rule: str):
        nonlocal cur
        hi, lo = E6_RULES[rule]
        new = [c - a + b for c, a, b in zip(cur, hi, lo)]
        if any(c < 0 for c in new):
            raise CertificationError(f"rule {rule} leaves the dominant cone at {tuple(cur)}")
        if not dominance_compare(rs, tuple(cur), tuple(new)).comparable:
            raise CertificationError(f"rule {rule} failed dominance validation")
        steps.append((tuple(a - b for a, b in zip(hi, lo)), rule))
        cur = new

    while cur[2]:
        apply("w3>=w6")
    while cur[3]:
        apply("w4>=w2")
    while cur[4]:
        apply("w5>=w1")
    # support now on w1, w2, w6
    while cur[0] >= 1 and cur[5] >= 1 and (cur[0], cur[1], cur[5]) != (1, 0, 1):
        apply("w1+w6>=0")
    if (cur[0], cur[1], cur[5]) == (1, 0, 1):
        apply("w1+w6>=w2")
    elif cur[1]:
        if cur[0] == 0 and cur[5] == 0:
            while cur[1] > 1:
                apply("w2>=0")
        else:
            while cur[1]:
                apply("w2>=0")
    if tuple(cur) not in E6_TARGETS:
        # pure multiple of w1 or of w6; reduce the coefficient modulo 3
        idx = 0 if cur[0] else 5
        double, triple = ("2w1>=w6", "3w1>=w2") if idx == 0 else ("2w6>=w1", "3w6>=w2")
        while cur[idx] > 3:
            apply(double)
            apply("w1+w6>=0")
        if cur[idx] == 2:
            apply(double)
        elif cur[idx] == 3:
            apply(triple)
    result = tuple(cur)
    if result not in E6_TARGETS:
        raise CertificationError(f"reduction of {lam} ended outside the target set: {result}")
    if len(steps) != count:
        raise CertificationError(f"reduction of {lam} took {len(steps)} steps, "
                                 f"its labels give {count}")
    return ReductionTrace(rs, lam, tuple(steps), result)


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
