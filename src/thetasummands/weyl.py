"""Weyl group actions: reflections, dominant projection, orbit enumeration,
and the group order in closed form."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial

from .errors import InvalidInputError
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
    be passed in, the stored representative is the dominant one.  Raises
    ResourceCapError at the first element past cap."""
    lam, _ = dominant_projection(rs, lam)
    return _orbit_cached(rs, lam, cap)


@lru_cache(maxsize=4096)
def _orbit_cached(rs: RootSystem, lam: Coords, cap: int) -> OrbitSum:
    seen = closure([lam], lambda w: (rs.reflect(i, w) for i in range(rs.rank)),
                   cap, f"orbit of {lam} in {rs}")
    return OrbitSum(rs, lam, tuple(sorted(seen)))


def orbit_size(rs: RootSystem, lam) -> int:
    return orbit(rs, lam).size


def weyl_group_order(rs: RootSystem) -> int:
    """|W| in closed form: 2^n n! for C_n, (2n)! for A_{2n-1}, 51840 for E6."""
    fam, n = rs.kind.family, rs.kind.n
    if fam == "C":
        return 2**n * factorial(n)
    if fam == "A":
        return factorial(2 * n)
    return 51840


def signed_orbit(rs: RootSystem, v) -> dict[Coords, int]:
    """Map w(v) -> sign(w) for a regular weight v (free orbit).

    Used by the Weyl character formula oracle; raises if the orbit is not
    free (two group elements reaching the same point with opposite parity).
    """
    v = rs.normalize(v)
    signs = {v: 1}
    frontier = [v]
    while frontier:
        nxt = []
        for w in frontier:
            s = signs[w]
            for i in range(rs.rank):
                u = rs.reflect(i, w)
                if u == w:
                    raise InvalidInputError(f"{v} is not regular (fixed by s_{i})")
                if u in signs:
                    if signs[u] != -s:
                        raise InvalidInputError(f"{v} is not regular (sign clash)")
                else:
                    signs[u] = -s
                    nxt.append(u)
        frontier = nxt
    return signs
