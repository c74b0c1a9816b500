"""Dominance order and the constructive weight-reduction algorithms.

``mu <= lam`` in the dominance order iff lam - mu is a nonnegative integer
combination of simple roots, read off the integer coweight table.  The
``reduce_*`` functions realize the constructive proofs that every dominant
weight dominates one of small, controlled shape; ``brute_force_reduce`` is an
exhaustive oracle over the dominance ideal, which ``dominant_weights_below``
walks down from lam one positive root at a time for Freudenthal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from operator import mul

from .errors import BudgetExhaustedError, CertificationError, InvalidInputError
from .rootsys import (Coords, RootSystem, SlA, SpC, E6 as E6_KIND,
                      build_root_system, closure)
from .weyl import is_dominant

DEFAULT_BUDGET = 10**6


@dataclass(frozen=True)
class DominanceWitness:
    comparable: bool
    root_coefficients: tuple[int, ...] | None = None  # on simple roots, if comparable

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


@dataclass(frozen=True)
class ReductionTrace:
    system: RootSystem
    start: Coords
    steps: tuple[tuple[Coords, str], ...]  # (subtracted element, rule label)
    result: Coords

    def replay(self) -> Coords:
        cur = self.start
        for sub, _label in self.steps:
            cur = self.system.sub(cur, sub)
        return cur


def degree_length(lam) -> tuple[int, int]:
    """(sum of entries, number of nonzero entries) of a partition-like tuple."""
    return sum(lam), sum(1 for c in lam if c)


def reduce_hyp(n: int, lam) -> ReductionTrace:
    """Raise the length of a symplectic dominant weight to min{d, n}.

    At each step i is the last position with an entry >= 2 and k the first
    zero position; subtracting e_i - e_k keeps the weight dominant, keeps the
    degree and increases the length by one.
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


def reduce_nonhyp(n: int, lam) -> ReductionTrace:
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


def reduce_e6(lam) -> ReductionTrace:
    """Reduce a nonzero dominant E6 weight to w1, w2 or w6.

    Every step subtracts the difference of a fixed dominance relation and is
    re-validated through dominance_compare.
    """
    rs = build_root_system(E6_KIND)
    lam = rs.normalize(lam)
    if not is_dominant(rs, lam):
        raise InvalidInputError(f"reduce_e6 expects a dominant weight, got {lam}")
    if lam == rs.zero():
        raise InvalidInputError("reduce_e6 is undefined for the zero weight "
                                "(no target weight lies below 0)")
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
    return ReductionTrace(rs, lam, tuple(steps), result)


# --- exhaustive oracle -----------------------------------------------------


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


def dominant_hull_candidates(rs: RootSystem, lam):
    """Dominant weights in a coordinate box guaranteed to contain the
    dominance ideal of lam (a superset of {mu dominant : mu <= lam})."""
    lam = rs.normalize(lam)
    fam = rs.kind.family
    if fam == "C":
        n = rs.kind.n
        d = sum(lam)
        top = lam[0] if lam else 0
        for part in _partitions(d, n, max(top, 0)):
            yield _pad(part, n)
    elif fam == "A":
        n = rs.kind.n
        p, q = _sl_blocks(n, lam)
        bound = p[0] + q[0]  # entry bound for both blocks of any mu <= lam
        for pp in _partitions(n * bound, n, bound):
            for qq in _partitions((n - 1) * bound, n - 1, bound):
                qq_full = _pad(qq, n)
                yield _pad(pp, n) + tuple(-c for c in reversed(qq_full))
    else:
        bounds = [c // rs.fundamental_group_exponent for c in rs.scaled_root_coords(lam)]
        for cvec in product(*(range(b + 1) for b in bounds)):
            mu = lam
            for c, alpha in zip(cvec, rs.simple_roots):
                if c:
                    mu = rs.sub(mu, rs.scale(c, alpha))
            if all(x >= 0 for x in mu):
                yield mu


def dominant_ideal(rs: RootSystem, lam, budget: int = DEFAULT_BUDGET):
    """All dominant mu with mu <= lam, by box enumeration + dominance filter."""
    lam = rs.normalize(lam)
    visited = 0
    for mu in dominant_hull_candidates(rs, lam):
        visited += 1
        if visited > budget:
            raise BudgetExhaustedError(
                f"dominance-ideal enumeration for {lam} exceeded budget {budget}")
        if rs.kind.family == "E6" or dominance_compare(rs, lam, mu).comparable:
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
