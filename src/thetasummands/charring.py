"""The Weyl-invariant character ring in the orbit-sum basis.

A CharElem is a finite integer combination of orbit sums We_mu (mu dominant).
Products are orbit-stabilizer counts, which walk one orbit per pair of terms
and meet only its dominant projections; multiplicities of irreducible
characters come from the Freudenthal recursion, with the Weyl character
formula kept as an independent small-rank oracle.  Freudenthal runs on the
dominant weights below lam only (the restriction of Moody and Patera, Bull.
AMS 7, 1982).

Each product looks up |O_nu| once per distinct constituent nu.  The public
CharElem constructor validates its keys at the API edge; ring operations
whose keys are dominant by construction build results with the trusted
CharElem._from_dominant.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .dominance import dominance_compare, dominant_weights_below
from .errors import CertificationError, InvalidInputError, ResourceCapError
from .rootsys import Coords, Frozen, RootSystem, weight_from_dynkin
from .weyl import dominant_projection, is_dominant, orbit, signed_orbit, weyl_group_order

DEFAULT_CAP = 10**8  # dominant projections of a product; dominant weights of a character
WEYL_FORMULA_GROUP_CAP = 10**4  # |W| above which the direct formula refuses

# One shared tuple per distinct orbit-basis key: characters kept side by side
# (a lambda-ring recursion, a caller's list of results) hold the same few
# weights many times over.  It grows with the distinct dominant weights a
# process meets.
_KEYS: dict[Coords, Coords] = {}


class CharElem(Frozen):
    """Element of Z[X]^W in the orbit basis: sum of coeffs[mu] * We_mu."""

    __slots__ = ("system", "coeffs")
    __hash__ = None  # coeffs is a dict

    def __init__(self, system: RootSystem, coeffs: dict[Coords, int] | None = None):
        clean = {}
        for mu, c in (coeffs or {}).items():
            if c == 0:
                continue
            mu = system.normalize(mu)
            if not is_dominant(system, mu):
                raise InvalidInputError(f"orbit-basis key {mu} is not dominant")
            mu = _KEYS.setdefault(mu, mu)
            clean[mu] = clean.get(mu, 0) + c
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "coeffs", {m: c for m, c in clean.items() if c})

    @classmethod
    def _from_dominant(cls, rs: RootSystem, coeffs: dict[Coords, int]) -> "CharElem":
        """Trusted constructor for keys that are already normalized, dominant
        and distinct: drops zero coefficients and interns the keys, in the
        order given, without validating them."""
        elem = object.__new__(cls)
        object.__setattr__(elem, "system", rs)
        object.__setattr__(elem, "coeffs", {_KEYS.setdefault(mu, mu): c
                                            for mu, c in coeffs.items() if c})
        return elem

    @property
    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs.values())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _check_same_system(self, other: "CharElem"):
        if self.system is not other.system:
            raise InvalidInputError("mixing characters from different root systems")

    def __add__(self, other: "CharElem") -> "CharElem":
        self._check_same_system(other)
        out = dict(self.coeffs)
        for mu, c in other.coeffs.items():
            out[mu] = out.get(mu, 0) + c
        return CharElem._from_dominant(self.system, out)

    def __sub__(self, other: "CharElem") -> "CharElem":
        return self + other.scale(-1)

    def scale(self, k: int) -> "CharElem":
        return CharElem._from_dominant(self.system,
                                       {mu: k * c for mu, c in self.coeffs.items()})

    def __mul__(self, other: "CharElem") -> "CharElem":
        return multiply(self, other)

    def expand(self) -> dict[Coords, int]:
        """Full weight multiset: every orbit element with its coefficient."""
        full: dict[Coords, int] = {}
        for mu, c in self.coeffs.items():
            for w in orbit(self.system, mu).elements:
                full[w] = full.get(w, 0) + c
        return {w: c for w, c in full.items() if c}

    def dimension(self) -> int:
        return sum(c * orbit(self.system, mu).size for mu, c in self.coeffs.items())

    def to_json(self) -> list[dict]:
        return [{"weight": list(mu), "coeff": c}
                for mu, c in sorted(self.coeffs.items())]

    def _key(self):
        return self.system, self.coeffs


def orbit_char(rs: RootSystem, mu) -> CharElem:
    """The basis element We_mu."""
    return CharElem(rs, {rs.normalize(mu): 1})


def unit_char(rs: RootSystem) -> CharElem:
    return orbit_char(rs, rs.zero())


def multiply(a: CharElem, b: CharElem, cap: int = DEFAULT_CAP) -> CharElem:
    """Product in Z[X]^W by orbit-stabilizer counting.

    For dominant lam, mu with |O_lam| >= |O_mu|, We_lam * We_mu has the
    coefficient |O_lam| * #{v in O_mu : dom(lam + v) = nu} / |O_nu| at nu.
    Raises ResourceCapError, before the first one, if the product needs more
    than cap dominant projections (the smaller orbit of each term pair)."""
    return _product(a, b, cap)[0]


def _product(a: CharElem, b: CharElem, cap: int) -> tuple[CharElem, int]:
    """multiply(a, b, cap) and the number of dominant projections it took."""
    a._check_same_system(b)
    rs = a.system
    orbits = {mu: orbit(rs, mu) for mu in a.coeffs.keys() | b.coeffs.keys()}
    # |O_nu| of each distinct key met, looked up once per product
    sizes = {mu: orb.size for mu, orb in orbits.items()}
    work = sum(min(orbits[lam].size, orbits[mu].size)
               for lam in a.coeffs for mu in b.coeffs)
    if work > cap:
        raise ResourceCapError(
            f"product needs {work} dominant projections, cap is {cap}")
    acc: dict[Coords, int] = {}
    for lam, c1 in a.coeffs.items():
        for mu, c2 in b.coeffs.items():
            big, small = orbits[lam], orbits[mu]
            if big.size < small.size:
                big, small = small, big
            hits = Counter(dominant_projection(rs, rs.add(big.dominant_rep, v))[0]
                           for v in small.elements)
            for nu, count in hits.items():
                size = sizes.get(nu)
                if size is None:
                    size = sizes[nu] = orbit(rs, nu).size
                c, rem = divmod(big.size * count, size)
                if rem:
                    raise CertificationError(
                        f"orbit-stabilizer count {big.size} * {count} / {size} "
                        f"at {nu} is not an integer")
                acc[nu] = acc.get(nu, 0) + c1 * c2 * c
    return CharElem._from_dominant(rs, acc), work


# --- Freudenthal multiplicities ---------------------------------------------


def freudenthal_character(rs: RootSystem, lam, cap: int = DEFAULT_CAP) -> CharElem:
    """ch V_lam in the orbit basis: coeffs[mu] = m_lam(mu) for dominant mu.

    Raises ResourceCapError, before any multiplicity is computed, if more
    than cap dominant weights lie below lam.  The cache is keyed without
    the cap: a cap below DEFAULT_CAP is checked by walking the dominant
    weights first.
    """
    lam = rs.normalize(lam)
    if cap < DEFAULT_CAP:
        dominant_weights_below(rs, lam, cap)
    return _freudenthal_cached(rs, lam)


@lru_cache(maxsize=4096)
def _freudenthal_cached(rs: RootSystem, lam: Coords) -> CharElem:
    dominant = dominant_weights_below(rs, lam, DEFAULT_CAP)
    # height of lam - mu on the simple roots; higher weights come first
    height = {mu: sum(dominance_compare(rs, lam, mu).root_coefficients)
              for mu in dominant}
    rho = rs.weyl_vector_rho
    norm_top = rs.inner(rs.add(lam, rho), rs.add(lam, rho))
    mult: dict[Coords, int] = {lam: 1}
    for mu in sorted(dominant, key=lambda m: (height[m], m)):
        if mu == lam:
            continue
        total = Fraction(0)
        for alpha in rs.positive_roots:
            # nu is a weight of V_lam iff its dominant projection is; root
            # strings of weights are unbroken, so stop at the first miss
            nu = rs.add(mu, alpha)
            while True:
                dom, _ = dominant_projection(rs, nu)
                if dom not in dominant:
                    break
                total += mult[dom] * rs.inner(nu, alpha)
                nu = rs.add(nu, alpha)
        denom = norm_top - rs.inner(rs.add(mu, rho), rs.add(mu, rho))
        m = 2 * total / denom
        if m.denominator != 1 or m <= 0:
            raise CertificationError(f"non-integral multiplicity {m} at {mu}")
        mult[mu] = int(m)
    return CharElem._from_dominant(rs, mult)


def weyl_dimension(rs: RootSystem, lam) -> int:
    """dim V_lam = prod over positive roots of (lam+rho, a) / (rho, a)."""
    lam = rs.normalize(lam)
    if not is_dominant(rs, lam):
        raise InvalidInputError(f"weyl_dimension expects a dominant weight, got {lam}")
    rho = rs.weyl_vector_rho
    top = rs.add(lam, rho)
    dim = Fraction(1)
    for alpha in rs.positive_roots:
        dim *= rs.inner(top, alpha) / rs.inner(rho, alpha)
    if dim.denominator != 1:
        raise CertificationError(f"non-integral Weyl dimension {dim} for {lam}")
    return int(dim)


def weyl_character_direct(rs: RootSystem, lam) -> CharElem:
    """ch V_lam by the Weyl character formula: the signed orbit of lam + rho
    divided exactly by the signed orbit of rho.

    The division runs in the group ring of the weight lattice with Dynkin
    labels as exponents, a faithful Z^rank for C_n, A_{2n-1} and E6; the
    quotient's terms with nonnegative labels are the orbit-basis
    coefficients.  Small-rank oracle only; refuses when |W| exceeds
    WEYL_FORMULA_GROUP_CAP.
    """
    lam = rs.normalize(lam)
    if not is_dominant(rs, lam):
        raise InvalidInputError(f"expected a dominant weight, got {lam}")
    if weyl_group_order(rs) > WEYL_FORMULA_GROUP_CAP:
        raise ResourceCapError(f"|W| = {weyl_group_order(rs)} exceeds the oracle "
                               f"cap {WEYL_FORMULA_GROUP_CAP}")
    rho = rs.weyl_vector_rho
    numer, denom = ({rs.dynkin_labels(w): sign for w, sign in signed_orbit(rs, v).items()}
                    for v in (rs.add(lam, rho), rho))
    quotient = _laurent_divide(numer, denom)
    return CharElem(rs, {weight_from_dynkin(rs, labels): c
                         for labels, c in quotient.items() if min(labels) >= 0})


def _laurent_divide(numer: dict[Coords, int], denom: dict[Coords, int]) -> dict[Coords, int]:
    """Exact division in the group ring Z[Z^k] with lex leading terms.

    The lead coefficient of denom must be a unit, 1 or -1: in lex order on
    Dynkin labels the lead of the signed rho-orbit is -1 for C2, C4 and A3.
    """
    rem = dict(numer)
    lead_d = max(denom)
    unit = denom[lead_d]
    if unit not in (1, -1):
        raise CertificationError(f"denominator lead coefficient {unit} is not a unit")
    quot: dict[Coords, int] = {}
    while rem:
        lead_r = max(rem)
        shift = tuple(a - b for a, b in zip(lead_r, lead_d))
        c = rem[lead_r] * unit
        quot[shift] = quot.get(shift, 0) + c
        for expo, dcoef in denom.items():
            key = tuple(a + b for a, b in zip(shift, expo))
            val = rem.get(key, 0) - c * dcoef
            if val:
                rem[key] = val
            else:
                rem.pop(key, None)
    return quot


# --- transition to the irreducible basis -----------------------------------


class IrrDecomposition(Frozen):
    """Coefficients on the irreducible characters ch V_lam."""

    __slots__ = ("system", "coeffs")
    __hash__ = None  # coeffs is a dict

    def __init__(self, system: RootSystem, coeffs: dict[Coords, int]):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "coeffs", coeffs)

    def dimension(self) -> int:
        return sum(c * weyl_dimension(self.system, lam)
                   for lam, c in self.coeffs.items())

    def to_json(self) -> list[dict]:
        return [{"weight": list(mu), "coeff": c}
                for mu, c in sorted(self.coeffs.items())]

    def _key(self):
        return self.system, self.coeffs


def decompose_into_irreducibles(x: CharElem, cap: int = DEFAULT_CAP) -> IrrDecomposition:
    """Unitriangular stripping from dominance-maximal support weights."""
    rs = x.system
    remainder = x
    out: dict[Coords, int] = {}
    while not remainder.is_zero:
        support = list(remainder.coeffs)
        maximal = [mu for mu in support
                   if not any(nu != mu and dominance_compare(rs, nu, mu).comparable
                              for nu in support)]
        lam = min(maximal)  # deterministic tie-break
        c = remainder.coeffs[lam]
        out[lam] = out.get(lam, 0) + c
        remainder = remainder - freudenthal_character(rs, lam, cap).scale(c)
    return IrrDecomposition(rs, {m: c for m, c in out.items() if c})


def tensor_decompose(rs: RootSystem, lam, mu, cap: int = DEFAULT_CAP) -> IrrDecomposition:
    """Decomposition of V_lam (x) V_mu into irreducibles."""
    a = freudenthal_character(rs, lam, cap)
    b = freudenthal_character(rs, mu, cap)
    dec = decompose_into_irreducibles(multiply(a, b, cap), cap)
    if dec.dimension() != weyl_dimension(rs, lam) * weyl_dimension(rs, mu):
        raise CertificationError("tensor decomposition does not preserve dimension")
    return dec
