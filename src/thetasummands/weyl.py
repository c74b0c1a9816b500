"""Weyl group actions: reflections, dominant projection, orbit enumeration,
and the group order and orbit sizes in closed form."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .errors import CertificationError, InvalidInputError, ResourceCapError
from .rootsys import Coords, RootSystem, closure

DEFAULT_ORBIT_CAP = 10**6


def is_dominant(rs: RootSystem, w) -> bool:
    w = rs.normalize(w)
    return all(rs.pairing(w, i) >= 0 for i in range(rs.rank))


def dominant_projection(rs: RootSystem, w) -> tuple[Coords, int]:
    """Unique dominant weight in the orbit of w, plus the number of simple
    reflections applied (reflect at the first negative Dynkin label)."""
    w = rs.normalize(w)
    length = 0
    while True:
        for i in range(rs.rank):
            if rs.pairing(w, i) < 0:
                w = rs.reflect(i, w)
                length += 1
                break
        else:
            return w, length


@dataclass(frozen=True)
class OrbitSum:
    """Full Weyl group orbit of a dominant weight, in sorted order."""

    system: RootSystem
    dominant_rep: Coords
    elements: tuple[Coords, ...]

    @property
    def size(self) -> int:
        return len(self.elements)


def orbit(rs: RootSystem, lam, cap: int = DEFAULT_ORBIT_CAP) -> OrbitSum:
    """Breadth-first closure under simple reflections; any orbit member may
    be passed in, the stored representative is the dominant one.

    With cap below DEFAULT_ORBIT_CAP the closed-form orbit_size is compared
    with cap first, so ResourceCapError is raised before any walk; the walk
    itself never exceeds DEFAULT_ORBIT_CAP elements."""
    lam, _ = dominant_projection(rs, lam)
    if cap < DEFAULT_ORBIT_CAP:
        size = orbit_size(rs, lam)
        if size > cap:
            raise ResourceCapError(
                f"orbit of {lam} in {rs} has {size} elements, more than the cap of {cap}")
    return _orbit_cached(rs, lam)


@lru_cache(maxsize=4096)
def _orbit_cached(rs: RootSystem, lam: Coords) -> OrbitSum:
    seen = closure([lam], lambda w: (rs.reflect(i, w) for i in range(rs.rank)),
                   DEFAULT_ORBIT_CAP, f"orbit of {lam} in {rs}")
    return OrbitSum(rs, lam, tuple(sorted(seen)))


def orbit_size(rs: RootSystem, lam) -> int:
    """|W| / |W_lam| without walking the orbit.

    The stabilizer of the dominant representative is the parabolic subgroup
    generated by the simple reflections at its zero Dynkin labels; its
    positive roots are the positive roots orthogonal to lam, which are those
    supported on the zero labels.  The order of a Weyl group is the product
    over its positive roots alpha of (ht alpha + 1) / ht alpha."""
    lam, _ = dominant_projection(rs, lam)
    zero = {i for i, label in enumerate(rs.dynkin_labels(lam)) if label == 0}
    stabilizer = Fraction(1)
    for support, height in _positive_root_supports(rs):
        if support <= zero:
            stabilizer *= Fraction(height + 1, height)
    size = weyl_group_order(rs) / stabilizer
    if size.denominator != 1:
        raise CertificationError(f"non-integral orbit size {size} for {lam} in {rs}")
    return int(size)


@lru_cache(maxsize=None)
def _positive_root_supports(rs: RootSystem) -> tuple[tuple[frozenset[int], int], ...]:
    """(simple roots in the support, height) of each positive root."""
    out = []
    for alpha in rs.positive_roots:
        coeffs = rs.root_basis_coords(alpha)
        out.append((frozenset(i for i, c in enumerate(coeffs) if c), int(sum(coeffs))))
    return tuple(out)


def weyl_group_order(rs: RootSystem) -> int:
    """|W| in closed form: 2^n n! for C_n, (2n)! for A_{2n-1}, 51840 for E6."""
    fam, n = rs.kind.family, rs.kind.n
    if fam == "C":
        return 2**n * factorial(n)
    if fam == "A":
        return factorial(2 * n)
    return 51840


def signed_orbit(rs: RootSystem, v) -> dict[Coords, int]:
    """Map w(v) -> sign(w) = det(w) for a regular weight v.

    v is regular when its dominant projection has no zero Dynkin label; then
    the orbit is free, so each element u = w(v) comes from exactly one w.
    The orbit is a closure under simple reflections, and sign(w) is the
    parity of the reflection counts that dominant_projection returns for u
    and for v (each reflection has determinant -1).  Used by the Weyl
    character formula oracle; raises InvalidInputError if v is not regular.
    """
    dom, start = dominant_projection(rs, v)
    if 0 in rs.dynkin_labels(dom):
        raise InvalidInputError(
            f"{v} is not regular: its dominant projection {dom} has a zero Dynkin label")
    elements = closure([rs.normalize(v)],
                       lambda w: (rs.reflect(i, w) for i in range(rs.rank)),
                       DEFAULT_ORBIT_CAP, f"signed orbit of {v} in {rs}")
    return {u: -1 if (dominant_projection(rs, u)[1] - start) % 2 else 1
            for u in elements}
