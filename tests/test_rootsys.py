"""Root system construction, coordinates, and exact linear algebra."""

import copy
import pickle
import random
from fractions import Fraction
from itertools import product
from math import factorial, prod

import pytest

from thetasummands import rootsys
from thetasummands.errors import (CertificationError, InvalidInputError,
                                  ResourceCapError)
from thetasummands.rootsys import (E6, RootSystem, RootSystemKind, SlA, SpC,
                                   build_root_system, closure, parse_kind,
                                   weight_from_dynkin)

ORACLE_KINDS = [SpC(n) for n in range(1, 10)] + [SlA(n) for n in range(1, 8)] + [E6]


def gauss_jordan_inverse(mat):
    """Oracle: the inverse by Gauss-Jordan elimination over Fraction."""
    r = len(mat)
    aug = [[Fraction(mat[i][j]) for j in range(r)] + [Fraction(int(i == j)) for j in range(r)]
           for i in range(r)]
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return tuple(tuple(row[r:]) for row in aug)


def reflection_positive_roots(rs):
    """Oracle: every root as the closure of the simple roots under simple
    reflections, kept where its simple-root coordinates are nonnegative."""
    roots = closure(rs.simple_roots,
                    lambda r: (rs.reflect(i, r) for i in range(rs.rank)),
                    2 * rs.rank**2, f"root system {rs}")
    return tuple(sorted(r for r in roots
                        if all(c >= 0 for c in rs.root_basis_coords(r))))


def closed_form_positive_roots(rs):
    """Oracle: e_i +- e_j (i < j) and 2 e_i for C_n, the normalized e_i - e_j
    (i < j) for Sl_2n, and for E6 the c >= 0 of norm c^T C c = 2 (every
    coefficient of an E6 root is at most 3), in Dynkin labels."""
    m = rs.coord_len

    def e(*terms):
        vec = [0] * m
        for k, c in terms:
            vec[k] += c
        return tuple(vec)

    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    if rs.kind.family == "C":
        roots = ([e((i, 1), (j, -1)) for i, j in pairs] + [e((i, 1), (j, 1)) for i, j in pairs]
                 + [e((i, 2)) for i in range(m)])
    elif rs.kind.family == "A":
        roots = [rs.normalize(e((i, 1), (j, -1))) for i, j in pairs]
    else:
        cartan = rs.cartan
        roots = [tuple(sum(c[i] * cartan[i][j] for i in range(6)) for j in range(6))
                 for c in product(range(4), repeat=6)
                 if sum(c[i] * cartan[i][j] * c[j] for i in range(6) for j in range(6)) == 2]
    return tuple(sorted(roots))


def integral_weight(rs, vec):
    """The weight with these rational coordinates; for A-kind the vector is
    first moved by a multiple of (1,...,1) to make it integral."""
    shift = vec[-1] if rs.kind.family == "A" else 0
    shifted = [c - shift for c in vec]
    assert all(c.denominator == 1 for c in shifted)
    return rs.normalize(int(c) for c in shifted)


def test_e6_kind_takes_no_n():
    with pytest.raises(InvalidInputError, match="E6"):
        rootsys.RootSystemKind("E6", 1)
    assert rootsys.RootSystemKind("E6", 0) == E6


def test_parse_kind():
    assert parse_kind("C3") == SpC(3)
    assert parse_kind("SL6") == SlA(3)
    assert parse_kind("A5") == SlA(3)
    assert parse_kind("e6") == E6
    for bad in ("B2", "SL5", "A4", "C0", "X"):
        with pytest.raises(InvalidInputError):
            parse_kind(bad)


def test_kind_str():
    assert str(SpC(3)) == "C3"
    assert str(SlA(3)) == "A5"
    assert str(E6) == "E6"


def test_c2_cartan_matrix():
    rs = build_root_system(SpC(2))
    assert rs.cartan == ((2, -1), (-2, 2))


def test_c2_simple_roots_and_rho():
    rs = build_root_system(SpC(2))
    assert rs.simple_roots == ((1, -1), (0, 2))
    assert rs.weyl_vector_rho == (2, 1)
    assert set(rs.positive_roots) == {(1, -1), (0, 2), (1, 1), (2, 0)}


def test_positive_root_counts():
    # n^2 for C_n, n(2n-1) for A_{2n-1}, 36 for E6
    assert len(build_root_system(SpC(3)).positive_roots) == 9
    assert len(build_root_system(SlA(2)).positive_roots) == 6
    assert len(build_root_system(SlA(3)).positive_roots) == 15
    assert len(build_root_system(E6).positive_roots) == 36


def test_a_normalization():
    rs = build_root_system(SlA(2))
    # representatives differ by multiples of (1,1,1,1)
    assert rs.normalize((2, 1, 1, 0)) == (1, 0, 0, -1)
    assert rs.normalize((0, 0, 0, 0)) == (0, 0, 0, 0)
    assert rs.normalize((5, 5, 5, 5)) == rs.normalize((0, 0, 0, 0))
    assert rs.add((1, 0, 0, -1), (1, 0, 0, -1)) == (2, 0, 0, -2)


def test_dynkin_labels_c():
    rs = build_root_system(SpC(3))
    assert rs.dynkin_labels((2, 1, 1)) == (1, 0, 1)
    assert rs.dynkin_labels(rs.weyl_vector_rho) == (1, 1, 1)


def test_dynkin_labels_a_and_e6():
    rsa = build_root_system(SlA(2))
    assert rsa.dynkin_labels((1, 0, 0, -1)) == (1, 0, 1)
    rs6 = build_root_system(E6)
    assert rs6.dynkin_labels(rs6.weyl_vector_rho) == (1, 1, 1, 1, 1, 1)


def test_root_basis_coords_c2():
    rs = build_root_system(SpC(2))
    # (3,0) - (2,1) = (1,-1) = 1*alpha_1 + 0*alpha_2
    diff = rs.sub((3, 0), (2, 1))
    assert rs.root_basis_coords(diff) == (Fraction(1), Fraction(0))
    # fundamental weight (1,1) = alpha_1 + alpha_2
    assert rs.root_basis_coords((1, 1)) == (Fraction(1), Fraction(1))


def test_cartan_inverse_exact():
    for kind in (SpC(4), SlA(3), E6):
        rs = build_root_system(kind)
        r = rs.rank
        for i in range(r):
            for j in range(r):
                entry = sum(rs.cartan[i][k] * rs.cartan_inv[k][j] for k in range(r))
                assert entry == (1 if i == j else 0)


def test_simple_root_dynkin_rows():
    # row i of the Cartan matrix = Dynkin labels of alpha_i
    for kind in (SpC(3), SlA(2), E6):
        rs = build_root_system(kind)
        for i, alpha in enumerate(rs.simple_roots):
            assert rs.dynkin_labels(alpha) == rs.cartan[i]


def test_inner_product_norms():
    rs = build_root_system(SpC(2))
    assert rs.inner((1, -1), (1, -1)) == 2  # short root
    assert rs.inner((0, 2), (0, 2)) == 4  # long root
    rs6 = build_root_system(E6)
    for alpha in rs6.simple_roots:
        assert rs6.inner(alpha, alpha) == 2


def test_inner_product_a_kind_mod_det():
    rs = build_root_system(SlA(2))
    w = (1, 0, 0, -1)
    shifted = tuple(c + 3 for c in w)
    v = (1, 1, 0, 0)
    assert rs.inner(w, v) == rs.inner(shifted, v)


def test_weight_from_dynkin_roundtrip():
    rs = build_root_system(SpC(3))
    for labels in ((1, 0, 0), (0, 1, 0), (2, 1, 3)):
        w = weight_from_dynkin(rs, labels)
        assert rs.dynkin_labels(w) == labels
    rsa = build_root_system(SlA(3))
    w = weight_from_dynkin(rsa, (1, 0, 2, 0, 1))
    assert rsa.dynkin_labels(w) == (1, 0, 2, 0, 1)


def test_fundamental_weights():
    rs = build_root_system(SpC(3))
    assert rs.fundamental_weights == ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    rsa = build_root_system(SlA(2))
    assert rsa.fundamental_weights[0] == (1, 0, 0, 0)
    assert rsa.fundamental_weights[-1] == (0, 0, 0, -1)


def test_fundamental_group_exponent():
    assert build_root_system(SpC(5)).fundamental_group_exponent == 2
    assert build_root_system(SlA(3)).fundamental_group_exponent == 6
    assert build_root_system(E6).fundamental_group_exponent == 3


@pytest.mark.parametrize("kind", ORACLE_KINDS, ids=str)
def test_positive_roots_and_exponent_match_the_closed_forms(kind):
    rs = build_root_system(kind)
    assert rs.positive_roots == closed_form_positive_roots(rs)
    # |P/Q|: Z/2 for C_n, Z/2n for Sl_2n, Z/3 for E6
    exponent = {"C": 2, "A": 2 * kind.n, "E6": 3}[kind.family]
    assert rs.fundamental_group_exponent == exponent


@pytest.mark.parametrize("kind", [SpC(2), SpC(4), SlA(2), SlA(3), E6], ids=str)
def test_a_broken_reflection_walk_is_a_certification_error(monkeypatch, kind):
    # build_root_system.__wrapped__ builds past the cache
    cap = build_root_system(kind).rank**2
    monkeypatch.setattr(RootSystem, "reflect", lambda rs, i, w: w)
    with pytest.raises(CertificationError, match="rho"):
        build_root_system.__wrapped__(kind)
    monkeypatch.setattr(RootSystem, "reflect",
                        lambda rs, i, w: rs.add(w, rs.simple_roots[i]))
    with pytest.raises(CertificationError, match=f"more than {cap} positive roots"):
        build_root_system.__wrapped__(kind)


def test_closure_checks_the_cap_at_every_insertion():
    drawn = []

    def endless(x):
        while True:
            if len(drawn) == 5:
                pytest.fail("closure drew a neighbour after passing the cap")
            drawn.append(len(drawn) + 1)
            yield drawn[-1]

    # 0 plus five neighbours is cap + 1 insertions
    with pytest.raises(ResourceCapError, match="the naturals"):
        closure([0], endless, 5, "the naturals")
    assert drawn == [1, 2, 3, 4, 5]
    assert closure([0], lambda x: [(x + 1) % 10], 10, "Z/10") == set(range(10))
    with pytest.raises(ResourceCapError, match="Z/10"):
        closure([0], lambda x: [(x + 1) % 10], 9, "Z/10")


@pytest.mark.parametrize("kind", ORACLE_KINDS, ids=str)
def test_root_strings_match_the_reflection_oracle(kind):
    rs = build_root_system(kind)
    assert rs.cartan_inv == gauss_jordan_inverse(rs.cartan)
    positive = reflection_positive_roots(rs)
    assert rs.positive_roots == positive
    half = [sum(Fraction(c, 2) for c in col) for col in zip(*positive)]
    assert rs.weyl_vector_rho == integral_weight(rs, half)
    # varpi_i = sum_j (C^-1)_ij alpha_j
    assert rs.fundamental_weights == tuple(
        integral_weight(rs, [sum(c * a for c, a in zip(row, col))
                             for col in zip(*rs.simple_roots)])
        for row in gauss_jordan_inverse(rs.cartan))
    # |Phi+| = rank h / 2 and the highest root has height h - 1, where h is
    # the Coxeter number; |W| is the product of (ht a + 1) / ht a
    h = 12 if kind == E6 else 2 * kind.n
    order = {"C": 2**kind.n * factorial(kind.n), "A": factorial(2 * kind.n), "E6": 51840}
    heights = [sum(rs.root_basis_coords(r)) for r in positive]
    assert 2 * len(positive) == rs.rank * h
    assert max(heights) == h - 1
    assert prod(Fraction(t + 1, t) for t in heights) == order[kind.family]


def test_cartan_inverse_matches_gauss_jordan_on_random_matrices():
    # the zero-heavy entries force row swaps
    rng = random.Random(0)
    checked = 0
    while checked < 300:
        r = rng.randint(1, 6)
        mat = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(r)] for _ in range(r)]
        try:
            expected = gauss_jordan_inverse(mat)
        except StopIteration:  # singular
            continue
        d, adj = rootsys._scaled_inverse(mat)
        assert tuple(tuple(Fraction(a, d) for a in row) for row in adj) == expected
        checked += 1


@pytest.mark.parametrize("kind", [SpC(1), SpC(4), SlA(1), SlA(3), E6], ids=str)
def test_roots_and_rho_use_integers_only(monkeypatch, kind):
    rs = build_root_system(kind)

    def no_fraction(*args):
        pytest.fail("root construction used Fraction arithmetic")
    monkeypatch.setattr(rootsys, "Fraction", no_fraction)
    assert rootsys._positive_roots(rs) == rs.positive_roots
    assert rootsys._rho(rs, rs.positive_roots, rs.fundamental_weights) == rs.weyl_vector_rho


@pytest.mark.parametrize("kind", [SpC(1), SpC(4), SlA(1), SlA(3), E6], ids=str)
def test_rho_certifies_the_positive_roots(kind):
    rs = build_root_system(kind)
    positive = list(rs.positive_roots)
    for corrupted in (positive[1:], positive + [rs.simple_roots[0]],
                      [rs.scale(-1, r) if i == 0 else r for i, r in enumerate(positive)]):
        with pytest.raises(CertificationError, match="rho"):
            rootsys._rho(rs, corrupted, rs.fundamental_weights)


def coweight_mismatches(rs, rng):
    """Test vectors w where the table disagrees with e * root_basis_coords(w):
    the simple roots, the fundamental weights, the positive roots and 50
    random vectors."""
    e = rs.fundamental_group_exponent
    vectors = list(rs.simple_roots + rs.fundamental_weights + rs.positive_roots)
    vectors += [tuple(rng.randint(-5, 5) for _ in range(rs.coord_len)) for _ in range(50)]
    return [w for w in vectors
            if rs.scaled_root_coords(w) != tuple(e * c for c in rs.root_basis_coords(w))]


@pytest.mark.parametrize("kind", ORACLE_KINDS, ids=str)
def test_coweight_table_matches_the_fraction_inverse(kind):
    rs = build_root_system(kind)
    rng = random.Random(str(kind))
    assert coweight_mismatches(rs, rng) == []
    # shifting an A-kind weight by the determinant changes nothing
    if kind.family == "A":
        w = tuple(rng.randint(-5, 5) for _ in range(rs.coord_len))
        assert rs.scaled_root_coords([c + 7 for c in w]) == rs.scaled_root_coords(w)
    # a table with one entry off by one fails the same check
    rows = [list(row) for row in rs.coweights]
    i, k = rng.randrange(rs.rank), rng.randrange(rs.coord_len)
    rows[i][k] += 1
    broken = rebuilt(rs, coweights=tuple(map(tuple, rows)))
    assert coweight_mismatches(broken, rng) != []


def rebuilt(rs, **changes):
    """A new RootSystem with the fields of rs, some of them replaced."""
    return RootSystem(**{f: changes.get(f, getattr(rs, f)) for f in RootSystem.__slots__})


# the fields that equality and the hash read: all but the coweight table
COMPARED = ("kind", "rank", "coord_len", "cartan", "cartan_inv", "simple_roots",
            "fundamental_weights", "positive_roots", "weyl_vector_rho",
            "fundamental_group_exponent")


def test_coweight_table_stays_out_of_eq_and_hash():
    rs = build_root_system(E6)
    other = rebuilt(rs, coweights=())
    assert other == rs and hash(other) == hash(rs)
    assert RootSystem.__slots__ == COMPARED + ("coweights",)
    for name in COMPARED:
        assert rebuilt(rs, **{name: None}) != rs, name


@pytest.mark.parametrize("kind", ORACLE_KINDS, ids=str)
def test_eq_and_hash_are_those_of_the_compared_fields(kind):
    rs = build_root_system(kind)
    twin = rebuilt(rs)
    assert twin is not rs and twin == rs and not twin != rs
    assert hash(rs) == hash(twin) == hash(tuple(getattr(rs, f) for f in COMPARED))
    assert hash(kind) == hash((kind.family, kind.n))
    assert kind == RootSystemKind(kind.family, kind.n) and kind != (kind.family, kind.n)
    assert rs != build_root_system(SpC(kind.n + 1))


@pytest.mark.parametrize("value", [SpC(3), E6, build_root_system(SlA(2))],
                         ids=["C3-kind", "E6-kind", "A3-system"])
def test_kinds_and_systems_are_immutable_and_round_trip(value):
    for field in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
        assert twin == value and hash(twin) == hash(value)
        assert [getattr(twin, f) for f in value.__slots__] == [
            getattr(value, f) for f in value.__slots__]
    assert repr(SpC(3)) == "RootSystemKind(family='C', n=3)"
