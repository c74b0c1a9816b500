"""Root systems C_n, A_{2n-1} and E6 in exact arithmetic.

Weights are plain tuples of integers in the system's canonical coordinates:

* ``C`` (symplectic, rank n): length-n epsilon coordinates, dominant means
  weakly decreasing and nonnegative.
* ``A`` (special linear Sl_{2n}, rank 2n-1): length-2n vectors modulo the
  determinant character (1,...,1).  Every weight is stored as the unique
  representative whose last n entries have maximum zero; for dominant
  weights this is the (lambda+ | -lambda-) form with lambda- having a
  vanishing entry.
* ``E6``: length-6 Dynkin labels (coefficients on the fundamental weights),
  Bourbaki numbering with the branch node alpha_2 attached to alpha_4.

All arithmetic is exact (ints and fractions.Fraction).  Building a root
system needs integers only: everything starts from the simple roots, the
positive roots are their closure under the simple reflections, rho is
certified by an integer identity, and fraction-free elimination gives
d = det C = |P/Q| and d times the Cartan inverse, hence the integer coweight
table; the Fraction Cartan inverse is one division per entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import mul

from .errors import CertificationError, InvalidInputError, ResourceCapError

Coords = tuple[int, ...]


class Frozen:
    """Base of the immutable value types with slots.  A subclass lists its
    fields in __slots__, sets them once in __init__ with object.__setattr__,
    and compares and hashes by _key() (or sets __hash__ = None); copy and
    pickle call the constructor again with the fields in slot order."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{self.__class__.__name__}({fields})"


class RootSystemKind(Frozen):
    # family: "C", "A" or "E6"
    # n: C: rank; A: half the vector size (rank 2n-1); E6: unused (0)
    __slots__ = ("family", "n")

    def __init__(self, family: str, n: int):
        if family not in ("C", "A", "E6"):
            raise InvalidInputError(f"unknown family {family!r}")
        if family in ("C", "A") and n < 1:
            raise InvalidInputError(f"{family}-family needs n >= 1, got {n}")
        if family == "E6" and n != 0:
            raise InvalidInputError(f"E6 takes no n, got {n}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "n", n)

    def _key(self):
        return self.family, self.n

    def __str__(self):
        if self.family == "C":
            return f"C{self.n}"
        if self.family == "A":
            return f"A{2 * self.n - 1}"
        return "E6"


def SpC(n: int) -> RootSystemKind:
    """Symplectic kind: root system C_n."""
    return RootSystemKind("C", n)


def SlA(n: int) -> RootSystemKind:
    """Special linear kind Sl_{2n}: root system A_{2n-1}."""
    return RootSystemKind("A", n)


E6 = RootSystemKind("E6", 0)

# Bourbaki Cartan matrix of E6 (chain 1-3-4-5-6, node 2 attached to 4).
_E6_CARTAN = (
    (2, 0, -1, 0, 0, 0),
    (0, 2, 0, -1, 0, 0),
    (-1, 0, 2, -1, 0, 0),
    (0, -1, -1, 2, -1, 0),
    (0, 0, 0, -1, 2, -1),
    (0, 0, 0, 0, -1, 2),
)


def _parse_int(text: str) -> int:
    """int(text) for an optional sign and ASCII digits, with surrounding
    whitespace; int() alone also reads "1_0" and non-ASCII digits."""
    digits = text.strip().lstrip("+-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


def parse_kind(name: str) -> RootSystemKind:
    """Parse "C<n>", "A<2n-1>", "SL<2n>" or "E6"."""
    name = name.strip().upper()
    if name == "E6":
        return E6
    try:
        if name.startswith("SL"):
            m = _parse_int(name[2:])
            if m < 2 or m % 2:
                raise InvalidInputError(f"SL size must be even and >= 2: {name}")
            return SlA(m // 2)
        if name.startswith("C"):
            return SpC(_parse_int(name[1:]))
        if name.startswith("A"):
            r = _parse_int(name[1:])
            if r < 1 or r % 2 == 0:
                raise InvalidInputError(f"A-rank must be odd (A_(2n-1)): {name}")
            return SlA((r + 1) // 2)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse root system {name!r}") from exc
    raise InvalidInputError(f"cannot parse root system {name!r}")


def _scaled_inverse(mat) -> tuple[int, list[list[int]]]:
    """(d, adj) for an invertible integer matrix, with d = +-det and
    adj = d * mat^-1, both integral.

    Fraction-free Gauss-Jordan elimination (Bareiss): every division by the
    previous pivot is exact, and the left block ends as d * I, d the last
    pivot.
    """
    r = len(mat)
    aug = [list(mat[i]) + [int(i == j) for j in range(r)] for i in range(r)]
    prev = 1
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        top = aug[col]
        pv = top[col]
        for i in range(r):
            if i != col:
                row = aug[i]
                f = row[col]
                aug[i] = [(pv * a - f * b) // prev for a, b in zip(row, top)]
        prev = pv
    return prev, [row[r:] for row in aug]


class RootSystem(Frozen):
    # coweights, row i: e * omega_i^vee on the canonical coordinates, e the
    # exponent; derived from cartan_inv, so left out of _key
    __slots__ = ("kind", "rank", "coord_len", "cartan", "cartan_inv", "simple_roots",
                 "fundamental_weights", "positive_roots", "weyl_vector_rho",
                 "fundamental_group_exponent", "coweights")

    def __init__(self, kind: RootSystemKind, rank: int, coord_len: int,
                 cartan: tuple[tuple[int, ...], ...],
                 cartan_inv: tuple[tuple[Fraction, ...], ...],
                 simple_roots: tuple[Coords, ...], fundamental_weights: tuple[Coords, ...],
                 positive_roots: tuple[Coords, ...], weyl_vector_rho: Coords,
                 fundamental_group_exponent: int,
                 coweights: tuple[tuple[int, ...], ...] = ()):
        for name, value in zip(self.__slots__, (
                kind, rank, coord_len, cartan, cartan_inv, simple_roots,
                fundamental_weights, positive_roots, weyl_vector_rho,
                fundamental_group_exponent, coweights)):
            object.__setattr__(self, name, value)

    def _key(self):
        return (self.kind, self.rank, self.coord_len, self.cartan, self.cartan_inv,
                self.simple_roots, self.fundamental_weights, self.positive_roots,
                self.weyl_vector_rho, self.fundamental_group_exponent)

    # --- coordinate arithmetic -------------------------------------------

    def normalize(self, coords) -> Coords:
        """Canonical representative of a weight (identity except for A-kind)."""
        coords = tuple(coords)
        if len(coords) != self.coord_len:
            raise InvalidInputError(
                f"{self.kind}: expected {self.coord_len} coordinates, got {len(coords)}")
        if self.kind.family != "A":
            return coords
        n = self.kind.n
        t = max(coords[n:])
        if t == 0:
            return coords
        return tuple(c - t for c in coords)

    def add(self, w: Coords, v: Coords) -> Coords:
        return self.normalize(tuple(a + b for a, b in zip(w, v)))

    def sub(self, w: Coords, v: Coords) -> Coords:
        return self.normalize(tuple(a - b for a, b in zip(w, v)))

    def scale(self, k: int, w: Coords) -> Coords:
        return self.normalize(tuple(k * c for c in w))

    def zero(self) -> Coords:
        return (0,) * self.coord_len

    def pairing(self, w: Coords, i: int) -> int:
        """<w, alpha_i^vee> for the i-th simple coroot (0-based index)."""
        if not 0 <= i < self.rank:
            raise InvalidInputError(f"simple root index {i} out of range 0..{self.rank - 1}")
        fam = self.kind.family
        if fam == "C":
            n = self.kind.n
            return w[i] - w[i + 1] if i < n - 1 else w[n - 1]
        if fam == "A":
            return w[i] - w[i + 1]
        return w[i]  # E6: canonical coords are the Dynkin labels

    def dynkin_labels(self, w: Coords) -> Coords:
        return tuple(self.pairing(w, i) for i in range(self.rank))

    def reflect(self, i: int, w: Coords) -> Coords:
        """Simple reflection s_i(w) = w - <w, alpha_i^vee> alpha_i."""
        p = self.pairing(w, i)
        if p == 0:
            return self.normalize(w)
        alpha = self.simple_roots[i]
        return self.normalize(tuple(c - p * a for c, a in zip(w, alpha)))

    def inner(self, w, v) -> Fraction:
        """W-invariant inner product (Euclidean for C/A, roots norm 2 for E6)."""
        fam = self.kind.family
        if fam == "C":
            return Fraction(sum(a * b for a, b in zip(w, v)))
        if fam == "A":
            # quotient form: project representatives to the sum-zero hyperplane
            m = 2 * self.kind.n
            sw, sv = sum(w), sum(v)
            return Fraction(sum(a * b for a, b in zip(w, v))) - Fraction(sw * sv, m)
        # E6, Dynkin labels x, y: (x, y) = x^T C^{-1} y
        total = Fraction(0)
        for i in range(6):
            if w[i]:
                total += w[i] * sum(self.cartan_inv[i][j] * v[j] for j in range(6))
        return total

    def scaled_root_coords(self, w: Coords) -> Coords:
        """fundamental_group_exponent times the coefficients of w on the simple
        roots.  For A-kind the rows sum to 0: any representative will do."""
        return tuple(sum(map(mul, row, w)) for row in self.coweights)

    def root_basis_coords(self, w: Coords) -> tuple[Fraction, ...]:
        """Coefficients of w on the simple roots (may be rational), from the
        Fraction Cartan inverse: the reference for scaled_root_coords."""
        dyn = self.dynkin_labels(w)
        # dyn = C^T c  =>  c = (C^{-1})^T dyn
        return tuple(
            sum(self.cartan_inv[j][i] * dyn[j] for j in range(self.rank))
            for i in range(self.rank)
        )

    def __str__(self):
        return str(self.kind)


def _fundamental_weight(kind: RootSystemKind, coord_len: int, d: int) -> Coords:
    """omega_d: e_1 + ... + e_d for C and A, the d-th unit label vector for E6."""
    if kind.family == "E6":
        return tuple(int(i == d - 1) for i in range(6))
    return tuple(int(i < d) for i in range(coord_len))


def _simple_roots(kind: RootSystemKind) -> tuple[Coords, ...]:
    """e_i - e_{i+1}, then 2 e_n for C; for E6, alpha_i has the i-th Cartan
    row as its Dynkin labels."""
    if kind.family == "E6":
        return _E6_CARTAN
    m = kind.n if kind.family == "C" else 2 * kind.n
    roots = [tuple(int(k == i) - int(k == i + 1) for k in range(m)) for i in range(m - 1)]
    if kind.family == "C":
        roots.append(tuple(2 * int(k == m - 1) for k in range(m)))
    return tuple(roots)


@lru_cache(maxsize=None)
def build_root_system(kind: RootSystemKind) -> RootSystem:
    """Assemble the full Cartan data for one of the three supported kinds
    from its simple roots."""
    raw = _simple_roots(kind)
    rank, coord_len = len(raw), len(raw[0])
    # probe objects with just enough structure for normalize, pairing and reflect
    probe = RootSystem(kind, rank, coord_len, (), (), (), (), (), (), 0)
    simple = tuple(probe.normalize(r) for r in raw)
    cartan = tuple(tuple(probe.pairing(r, j) for j in range(rank)) for r in simple)
    probe = RootSystem(kind, rank, coord_len, cartan, (), simple, (), (), (), 0)

    fundamental = tuple(probe.normalize(_fundamental_weight(kind, coord_len, d))
                        for d in range(1, rank + 1))
    positive = _positive_roots(probe)
    rho = _rho(probe, positive, fundamental)
    # d = det C = |P/Q|, as the leading minors of a Cartan matrix are positive
    d, adj = _scaled_inverse(cartan)
    cartan_inv = tuple(tuple(Fraction(a, d) for a in row) for row in adj)
    # column i of adj = d C^-1, applied to the labels of the unit vectors, is
    # d omega_i^vee on the canonical coordinates
    units = [probe.dynkin_labels(tuple(int(j == k) for j in range(coord_len)))
             for k in range(coord_len)]
    coweights = tuple(tuple(sum(map(mul, col, dyn)) for dyn in units) for col in zip(*adj))

    return RootSystem(kind, rank, coord_len, cartan, cartan_inv, simple, fundamental,
                      positive, rho, d, coweights)


def closure(start, step, cap: int, what: str) -> set:
    """Breadth-first closure of the elements of start, where step(x) yields
    the neighbours of x.

    cap is checked at every insertion: ResourceCapError naming what is raised
    at the first element past it, before step is asked for another neighbour.
    """
    seen: set = set()

    def fresh(items):
        for y in items:
            if y not in seen:
                seen.add(y)
                if len(seen) > cap:
                    raise ResourceCapError(f"{what} exceeds the cap of {cap} elements")
                yield y

    frontier = list(fresh(start))
    while frontier:
        frontier = [y for x in frontier for y in fresh(step(x))]
    return seen


def _positive_roots(rs: RootSystem) -> tuple[Coords, ...]:
    """All positive roots, sorted: the closure of the simple roots under the
    simple reflections, s_i applied to every root but alpha_i.  s_i permutes
    the positive roots other than alpha_i, and every positive root reaches a
    simple root by reflections that lower its height (Humphreys, Lie
    algebras, 10.2-10.3).  Only integers are used.
    """
    simple = rs.simple_roots
    # C_n has n^2 positive roots, A_r has r(r+1)/2 and E6 has 36
    cap = rs.rank**2
    try:
        found = closure(simple, lambda b: (rs.reflect(i, b) for i, a in enumerate(simple)
                                           if b != a), cap, f"{rs}: the positive roots")
    except ResourceCapError as exc:
        raise CertificationError(f"{rs}: the reflection walk gives more than {cap} "
                                 "positive roots") from exc
    return tuple(sorted(found))


def _rho(rs: RootSystem, positive, fundamental) -> Coords:
    """rho = sum of the fundamental weights, certified by the integer
    identity sum of the positive roots = 2 rho (modulo the determinant
    character (1,...,1) for A-kind)."""
    rho = rs.zero()
    for f in fundamental:
        rho = rs.add(rho, f)
    total = [sum(col) for col in zip(*positive)]
    diff = {t - 2 * r for t, r in zip(total, rho)}
    if not (len(diff) == 1 if rs.kind.family == "A" else diff == {0}):
        raise CertificationError(f"{rs}: rho consistency check failed")
    return rho


def weight_from_dynkin(rs: RootSystem, labels) -> Coords:
    """Weight with the given Dynkin labels, in canonical coordinates."""
    labels = tuple(labels)
    if len(labels) != rs.rank:
        raise InvalidInputError(
            f"{rs.kind}: expected {rs.rank} Dynkin labels, got {len(labels)}")
    w = rs.zero()
    for lab, f in zip(labels, rs.fundamental_weights):
        if lab:
            w = rs.add(w, rs.scale(lab, f))
    return w
