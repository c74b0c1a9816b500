"""Lambda-ring structure on virtual characters.

Adams operations scale every orbit key; lambda-powers of effective characters
expand the weight multiset and take elementary symmetric functions, with
each weight packed into one int of Dynkin-label digits; on virtual
characters they are recovered from Adams operations through the
Newton-identity recursion with an exact integrality check.
"""

from __future__ import annotations

from .charring import CharElem, DEFAULT_CAP, _product, multiply, unit_char
from .errors import CertificationError, InvalidInputError, ResourceCapError
from .rootsys import Coords, RootSystem, weight_from_dynkin


def adams(n: int, x: CharElem) -> CharElem:
    """Psi^n: replace every orbit key mu by n*mu (a ring homomorphism).
    Psi^1 is the identity and returns x itself."""
    if n < 1:
        raise InvalidInputError(f"Adams operations need n >= 1, got {n}")
    if n == 1:
        return x
    rs = x.system
    out: dict[Coords, int] = {}
    for mu, c in x.coeffs.items():
        key = rs.scale(n, mu)
        out[key] = out.get(key, 0) + c
    return CharElem._from_dominant(rs, out)


def lambda_power_effective(n: int, x: CharElem) -> CharElem:
    """n-th elementary symmetric function of the full weight multiset of an
    effective character, by the DP e_k += e_(k-1) * x^w over its weights.

    Each distinct weight is packed once into one int whose digits are its
    Dynkin labels, in balanced radix 2*n*b + 1 with b the largest |label|:
    every label of a sum of n weights lies in [-n*b, n*b], so the packing is
    injective there and adding exponents is adding ints.  Dominance is read
    off the digits of elem[n], and only the dominant keys are turned back
    into coordinates.  Independent of multiply, Adams operations and the
    Newton recursion, this is the oracle for lambda_power_virtual."""
    if n < 0:
        raise InvalidInputError(f"lambda power index must be >= 0, got {n}")
    if not x.is_effective:
        raise InvalidInputError("lambda_power_effective needs an effective character")
    rs = x.system
    if n == 0:
        return unit_char(rs)
    if n == 1:
        return x
    too_many = f"lambda-power expansion exceeds the cap of {DEFAULT_CAP} additions"
    dim = x.dimension()
    if n > dim:
        return CharElem(rs)
    if dim > DEFAULT_CAP:  # the DP adds at least once per weight of the multiset
        raise ResourceCapError(too_many)
    full = [(rs.dynkin_labels(w), m) for w, m in x.expand().items()]
    half = n * max(abs(a) for labels, _ in full for a in labels)
    radix = 2 * half + 1
    # DP for elementary symmetric functions over the group ring
    elem: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n)]
    work = 0
    for labels, m in full:
        w = 0
        for a in reversed(labels):
            w = w * radix + a
        for _ in range(m):
            for k in range(n, 0, -1):
                prev = elem[k - 1]
                work += len(prev)
                if work > DEFAULT_CAP:
                    raise ResourceCapError(too_many)
                tgt = elem[k]
                for expo, c in prev.items():
                    key = expo + w
                    tgt[key] = tgt.get(key, 0) + c
    coeffs = {}
    for key, c in elem[n].items():
        labels = []
        for _ in range(rs.rank):  # lowest digit first, up to a negative label
            a = (key + half) % radix - half
            if a < 0:
                break
            labels.append(a)
            key = (key - a) // radix
        else:
            coeffs[weight_from_dynkin(rs, labels)] = c
    return CharElem._from_dominant(rs, coeffs)


def lambda_power_virtual(n: int, x: CharElem, cap: int = DEFAULT_CAP) -> CharElem:
    """n-th lambda power: the Adams-to-lambda transform of Psi^1(x)..Psi^n(x).

    cap bounds the whole recursion: each of its (n-1)n/2 products is charged
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
    if direction not in ("lambda_to_adams", "adams_to_lambda"):
        raise InvalidInputError(f"unknown direction {direction!r}")
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
    return _adams_to_lambda(rs, values, DEFAULT_CAP, InvalidInputError)[1:]


def _adams_to_lambda(rs: RootSystem, psis: list[CharElem], cap: int,
                     error: type[Exception]) -> list[CharElem]:
    """[lambda^0, ..., lambda^n] from [Psi^1, ..., Psi^n] by the Newton recursion

        k * lambda^k = sum_{i=1..k} (-1)^(i-1) lambda^(k-i) * Psi^i,

    raising error where a coefficient is not divisible by k.  The i = k term
    lambda^0 * Psi^k is Psi^k itself, so lambda^1 = Psi^1, and only the
    (n-1)n/2 terms with 0 < i < k are products.  Each product costs its
    dominant projections plus one, so that products with a zero factor count
    too; ResourceCapError is raised before the product that would take the
    total past cap."""
    e: list[CharElem] = [unit_char(rs), *psis[:1]]
    products = projections = 0
    for k in range(2, len(psis) + 1):
        acc = CharElem(rs)
        for i in range(1, k):
            try:
                term, work = _product(e[k - i], psis[i - 1],
                                      cap - products - projections - 1)
            except ResourceCapError as exc:
                raise ResourceCapError(
                    f"Newton recursion exceeds the cap of {cap} after {products} "
                    f"products and {projections} dominant projections") from exc
            products += 1
            projections += work
            acc = acc + (term if i % 2 else term.scale(-1))
        psi = psis[k - 1]
        acc = acc + (psi if k % 2 else psi.scale(-1))
        coeffs = {}
        for mu, c in acc.coeffs.items():
            if c % k:
                raise error(f"Newton recursion gives a non-integral lambda^{k} "
                            f"coefficient at {mu}")
            coeffs[mu] = c // k
        e.append(CharElem._from_dominant(rs, coeffs))
    return e


def root_lattice_class(rs: RootSystem, w) -> int:
    """Congruence class of a weight modulo the root lattice, as an element of
    Z / fundamental_group_exponent: the k with w = k * omega_1 modulo Q (P/Q
    is cyclic on omega_1), read off the coweight table modulo the exponent."""
    e = rs.fundamental_group_exponent
    scaled = rs.scaled_root_coords(rs.normalize(w))
    gen = rs.scaled_root_coords(rs.fundamental_weights[0])
    for k in range(e):
        if all((s - k * g) % e == 0 for s, g in zip(scaled, gen)):
            return k
    raise CertificationError(f"{w} lies in no class k * omega_1 modulo the root lattice")


def factors_through_root_lattice(n: int, x: CharElem) -> bool:
    """True iff every weight of Psi^n(x) lies in the root lattice, i.e. the
    n-th Adams operation factors through the quotient isogeny.

    W fixes root-lattice classes (s_i mu - mu is a multiple of alpha_i), so
    the dominant orbit keys decide it; no orbit is expanded."""
    rs = x.system
    return all(root_lattice_class(rs, mu) == 0 for mu in adams(n, x).coeffs)
