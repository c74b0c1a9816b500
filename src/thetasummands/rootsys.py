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
system needs integers only: the positive roots come from root strings over
the Cartan matrix, rho is certified by an integer identity, and the Cartan
inverse is found by fraction-free elimination, with one Fraction per entry;
scaled by |P/Q| it gives the integer coweight table.
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


def parse_kind(name: str) -> RootSystemKind:
    """Parse "C<n>", "A<2n-1>", "SL<2n>" or "E6"."""
    name = name.strip().upper()
    if name == "E6":
        return E6
    try:
        if name.startswith("SL"):
            m = int(name[2:])
            if m < 2 or m % 2:
                raise InvalidInputError(f"SL size must be even and >= 2: {name}")
            return SlA(m // 2)
        if name.startswith("C"):
            return SpC(int(name[1:]))
        if name.startswith("A"):
            r = int(name[1:])
            if r < 1 or r % 2 == 0:
                raise InvalidInputError(f"A-rank must be odd (A_(2n-1)): {name}")
            return SlA((r + 1) // 2)
    except ValueError as exc:
        raise InvalidInputError(f"cannot parse root system {name!r}") from exc
    raise InvalidInputError(f"cannot parse root system {name!r}")


def _invert_exact(mat):
    """Exact inverse of an integer matrix, as a tuple of Fraction rows.

    Fraction-free Gauss-Jordan elimination (Bareiss): every division by the
    previous pivot is exact, and the left block ends as d * I with
    d = +-det, so each entry needs one Fraction at the end.
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
    return tuple(tuple(Fraction(a, aug[i][i]) for a in aug[i][r:]) for i in range(r))


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


def _fundamental_weight(kind: RootSystemKind, d: int) -> Coords:
    if kind.family == "C":
        return tuple(1 if i < d else 0 for i in range(kind.n))
    if kind.family == "A":
        return tuple(1 if i < d else 0 for i in range(2 * kind.n))
    return tuple(1 if i == d - 1 else 0 for i in range(6))


def _simple_roots(kind: RootSystemKind) -> tuple[Coords, ...]:
    if kind.family == "C":
        n = kind.n
        roots = []
        for i in range(n - 1):
            r = [0] * n
            r[i], r[i + 1] = 1, -1
            roots.append(tuple(r))
        last = [0] * n
        last[n - 1] = 2
        roots.append(tuple(last))
        return tuple(roots)
    if kind.family == "A":
        m = 2 * kind.n
        roots = []
        for i in range(m - 1):
            r = [0] * m
            r[i], r[i + 1] = 1, -1
            roots.append(tuple(r))
        return tuple(roots)
    return _E6_CARTAN  # alpha_i has Dynkin labels = i-th Cartan row


@lru_cache(maxsize=None)
def build_root_system(kind: RootSystemKind) -> RootSystem:
    """Assemble the full Cartan data for one of the three supported kinds."""
    fam = kind.family
    if fam == "C":
        rank, coord_len, exponent = kind.n, kind.n, 2
    elif fam == "A":
        rank, coord_len, exponent = 2 * kind.n - 1, 2 * kind.n, 2 * kind.n
    else:
        rank, coord_len, exponent = 6, 6, 3

    # probe objects with just enough structure for normalize and pairing
    probe = RootSystem(kind, rank, coord_len, (), (), (), (), (), (), exponent)
    simple = tuple(probe.normalize(r) for r in _simple_roots(kind))
    cartan = tuple(tuple(probe.pairing(r, j) for j in range(rank)) for r in simple)
    probe = RootSystem(kind, rank, coord_len, cartan, (), simple, (), (), (), exponent)

    fundamental = tuple(probe.normalize(_fundamental_weight(kind, d + 1)) for d in range(rank))
    positive = _positive_roots(probe)
    rho = _rho(probe, positive, fundamental)
    cartan_inv = _invert_exact(cartan)
    if any(exponent * x.numerator % x.denominator for row in cartan_inv for x in row):
        raise CertificationError(f"{kind}: {exponent} C^-1 is not integral")
    cols = [[exponent * x.numerator // x.denominator for x in col] for col in zip(*cartan_inv)]
    units = [probe.dynkin_labels(tuple(int(j == k) for j in range(coord_len)))
             for k in range(coord_len)]
    coweights = tuple(tuple(sum(map(mul, col, dyn)) for dyn in units) for col in cols)

    return RootSystem(kind, rank, coord_len, cartan, cartan_inv, simple, fundamental,
                      positive, rho, exponent, coweights)


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
    """All positive roots, grown height by height from the simple roots by
    root strings (Humphreys, Lie algebras, sections 10-11).

    Roots are built in simple-root coordinates: for a positive root beta and
    a simple root alpha_j, beta + alpha_j is a root exactly when
    q = p - <beta, alpha_j^vee> > 0, where p is the length of the
    alpha_j-string below beta, read off the roots of lower height.  Only
    integers are used; the result is in canonical coordinates, sorted.
    """
    rank, cartan = rs.rank, rs.cartan
    # simple-root coordinates -> the pairings <beta, alpha_j^vee> for all j
    found = {tuple(int(i == j) for i in range(rank)): cartan[j] for j in range(rank)}
    layer = list(found)
    while layer:
        grown = {}
        for beta in layer:
            pairs = found[beta]
            for j in range(rank):
                p, below = 0, beta
                while True:
                    below = below[:j] + (below[j] - 1,) + below[j + 1:]
                    if below not in found:
                        break
                    p += 1
                if p - pairs[j] > 0:
                    up = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
                    grown[up] = tuple(a + b for a, b in zip(pairs, cartan[j]))
        found.update(grown)
        layer = list(grown)
        # C_n has n^2 positive roots, A_r has r(r+1)/2 and E6 has 36
        if len(found) > rank**2:
            raise CertificationError(f"{rs}: root strings give more than {rank**2} "
                                     "positive roots")
    positive = (rs.normalize(tuple(sum(c * a for c, a in zip(beta, col))
                                   for col in zip(*rs.simple_roots)))
                for beta in found)
    return tuple(sorted(positive))


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
