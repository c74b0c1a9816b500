"""Weyl group actions: reflections, dominant projection, orbit enumeration,
and the group order and orbit sizes from the heights of the positive roots."""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

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


class OrbitSum(namedtuple("OrbitSum", "system dominant_rep elements")):
    """Full Weyl group orbit of a dominant weight, in sorted order."""

    __slots__ = ()

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

    |W| is the product over the positive roots alpha of (ht alpha + 1) /
    ht alpha (Humphreys, Reflection groups and Coxeter groups, 3.20).  The
    stabilizer of the dominant representative is the parabolic subgroup on
    its zero Dynkin labels, whose positive roots, with the same heights, are
    those supported there; the orbit size is the product over the others."""
    lam, _ = dominant_projection(rs, lam)
    zero = {i for i, label in enumerate(rs.dynkin_labels(lam)) if label == 0}
    num = den = 1
    for support, height in _positive_root_supports(rs):
        if not support <= zero:
            num *= height + 1
            den *= height
    size, rest = divmod(num, den)
    if rest:
        raise CertificationError(f"non-integral orbit size {num}/{den} for {lam} in {rs}")
    return size


@lru_cache(maxsize=None)
def _positive_root_supports(rs: RootSystem) -> tuple[tuple[frozenset[int], int], ...]:
    """(simple roots in the support, height) of each positive root, read
    from the integer coweight table."""
    scaled = map(rs.scaled_root_coords, rs.positive_roots)
    return tuple((frozenset(i for i, c in enumerate(s) if c),
                  sum(s) // rs.fundamental_group_exponent) for s in scaled)


def weyl_group_order(rs: RootSystem) -> int:
    """|W|, the size of the orbit of rho, on which W acts freely."""
    return orbit_size(rs, rs.weyl_vector_rho)


def signed_orbit(rs: RootSystem, v) -> dict[Coords, int]:
    """Map w(v) -> sign(w) = det(w) for a regular weight v.

    v is regular when its dominant projection has no zero Dynkin label; then
    the orbit is free, so each element u = w(v) comes from exactly one w.
    The orbit is a closure over (weight, sign) pairs under simple
    reflections, each flipping the sign; a weight reached with both signs is
    a CertificationError.  Used by the Weyl character formula oracle; raises
    InvalidInputError if v is not regular.
    """
    dom, _ = dominant_projection(rs, v)
    if 0 in rs.dynkin_labels(dom):
        raise InvalidInputError(
            f"{v} is not regular: its dominant projection {dom} has a zero Dynkin label")
    pairs = closure([(rs.normalize(v), 1)],
                    lambda ws: ((rs.reflect(i, ws[0]), -ws[1]) for i in range(rs.rank)),
                    DEFAULT_ORBIT_CAP, f"signed orbit of {v} in {rs}")
    signs = dict(pairs)
    if len(signs) != len(pairs):
        raise CertificationError(f"signed orbit of {v} in {rs} meets a weight with both signs")
    return signs
