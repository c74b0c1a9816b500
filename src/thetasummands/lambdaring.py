"""Lambda-ring structure on virtual characters.

Adams operations scale every orbit key; lambda-powers of effective characters
expand the weight multiset and take elementary symmetric functions; on
virtual characters they are recovered from Adams operations through the
Newton-identity recursion with an exact integrality check.
"""

from __future__ import annotations

from .charring import CharElem, DEFAULT_CAP, _product, multiply, unit_char
from .errors import CertificationError, InvalidInputError, ResourceCapError
from .rootsys import Coords, RootSystem
from .weyl import is_dominant


def adams(n: int, x: CharElem) -> CharElem:
    """Psi^n: replace every orbit key mu by n*mu (a ring homomorphism)."""
    if n < 1:
        raise InvalidInputError(f"Adams operations need n >= 1, got {n}")
    rs = x.system
    out: dict[Coords, int] = {}
    for mu, c in x.coeffs.items():
        key = rs.scale(n, mu)
        out[key] = out.get(key, 0) + c
    return CharElem(rs, out)


def lambda_power_effective(n: int, x: CharElem) -> CharElem:
    """n-th elementary symmetric function of the full weight multiset of an
    effective character."""
    if n < 0:
        raise InvalidInputError(f"lambda power index must be >= 0, got {n}")
    if not x.is_effective:
        raise InvalidInputError("lambda_power_effective needs an effective character")
    rs = x.system
    if n == 0:
        return unit_char(rs)
    if n == 1:
        return x
    multiset: list[Coords] = []
    for w, c in x.expand().items():
        multiset.extend([w] * c)
    if n > len(multiset):
        return CharElem(rs)
    # DP for elementary symmetric functions over the group ring
    elem: list[dict[Coords, int]] = [{rs.zero(): 1}] + [{} for _ in range(n)]
    work = 0
    for w in multiset:
        for k in range(n, 0, -1):
            prev = elem[k - 1]
            work += len(prev)
            if work > DEFAULT_CAP:
                raise ResourceCapError(
                    f"lambda-power expansion exceeds the cap of {DEFAULT_CAP} additions")
            tgt = elem[k]
            for expo, c in prev.items():
                key = rs.add(expo, w)
                tgt[key] = tgt.get(key, 0) + c
    coeffs = {w: c for w, c in elem[n].items() if c and is_dominant(rs, w)}
    return CharElem(rs, coeffs)


def lambda_power_virtual(n: int, x: CharElem, cap: int = DEFAULT_CAP) -> CharElem:
    """n-th lambda power: the Adams-to-lambda transform of Psi^1(x)..Psi^n(x).

    cap bounds the whole recursion: each of its O(n^2) products is charged
    its dominant projections plus one.  The Adams operations of one element
    always satisfy the Newton identities, so a non-integral coefficient is a
    CertificationError here."""
    if n < 0:
        raise InvalidInputError(f"lambda power index must be >= 0, got {n}")
    psis = [adams(i, x) for i in range(1, n + 1)]
    return _adams_to_lambda(x.system, psis, cap, CertificationError)[n]


def newton_transforms(direction: str, values: list[CharElem]) -> list[CharElem]:
    """Convert between (lambda^1..lambda^n) and (Psi^1..Psi^n) of one element.

    lambda_to_adams uses p_k = sum_{i<k} (-1)^(i-1) e_i p_{k-i} + (-1)^(k-1) k e_k;
    adams_to_lambda inverts it, checking exact divisibility by k.
    """
    if not values:
        return []
    rs = values[0].system
    n = len(values)
    if direction == "lambda_to_adams":
        e = [unit_char(rs)] + list(values)
        p: list[CharElem] = [unit_char(rs)]  # p[0] unused
        for k in range(1, n + 1):
            acc = e[k].scale(k if k % 2 else -k)
            for i in range(1, k):
                term = multiply(e[i], p[k - i])
                acc = acc + (term if i % 2 else term.scale(-1))
            p.append(acc)
        return p[1:]
    if direction == "adams_to_lambda":
        return _adams_to_lambda(rs, values, DEFAULT_CAP, InvalidInputError)[1:]
    raise InvalidInputError(f"unknown direction {direction!r}")


def _adams_to_lambda(rs: RootSystem, psis: list[CharElem], cap: int,
                     error: type[Exception]) -> list[CharElem]:
    """[lambda^0, ..., lambda^n] from [Psi^1, ..., Psi^n] by the Newton recursion

        k * lambda^k = sum_{i=1..k} (-1)^(i-1) lambda^(k-i) * Psi^i,

    raising error where a coefficient is not divisible by k.  Each product
    costs its dominant projections plus one, so that products with a zero
    factor count too; ResourceCapError is raised before the product that
    would take the total past cap."""
    p = [unit_char(rs)] + list(psis)
    e: list[CharElem] = [unit_char(rs)]
    products = projections = 0
    for k in range(1, len(p)):
        acc = CharElem(rs)
        for i in range(1, k + 1):
            try:
                term, work = _product(e[k - i], p[i], cap - products - projections - 1)
            except ResourceCapError as exc:
                raise ResourceCapError(
                    f"Newton recursion exceeds the cap of {cap} after {products} "
                    f"products and {projections} dominant projections") from exc
            products += 1
            projections += work
            acc = acc + (term if i % 2 else term.scale(-1))
        coeffs = {}
        for mu, c in acc.coeffs.items():
            if c % k:
                raise error(f"Newton recursion gives a non-integral lambda^{k} "
                            f"coefficient at {mu}")
            coeffs[mu] = c // k
        e.append(CharElem(rs, coeffs))
    return e


def root_lattice_class(rs: RootSystem, w) -> int:
    """Congruence class of a weight modulo the root lattice, as an element of
    Z / fundamental_group_exponent."""
    w = rs.normalize(w)
    fam = rs.kind.family
    if fam == "C":
        return sum(w) % 2
    if fam == "A":
        return sum(w) % (2 * rs.kind.n)
    # E6: three times the first root-basis coordinate detects the Z/3 class
    c = rs.root_basis_coords(w)[0]
    val = 3 * c
    if val.denominator != 1:
        raise CertificationError("root-basis coordinate has unexpected denominator")
    return int(val) % 3


def factors_through_root_lattice(n: int, x: CharElem) -> bool:
    """True iff every weight of Psi^n(x) lies in the root lattice, i.e. the
    n-th Adams operation factors through the quotient isogeny.

    W fixes root-lattice classes (s_i mu - mu is a multiple of alpha_i), so
    the dominant orbit keys decide it; no orbit is expanded."""
    rs = x.system
    return all(root_lattice_class(rs, mu) == 0 for mu in adams(n, x).coeffs)
