"""Lambda and Adams operations, Newton transforms, root-lattice classes."""

import random
from itertools import combinations
from math import comb

import pytest

from thetasummands import lambdaring
from thetasummands.charring import (CharElem, freudenthal_character, multiply,
                                    orbit_char, unit_char)
from thetasummands.errors import (CertificationError, InvalidInputError,
                                  ResourceCapError)
from thetasummands.lambdaring import (adams, factors_through_root_lattice,
                                      lambda_power_effective,
                                      lambda_power_virtual, newton_transforms,
                                      root_lattice_class)
from thetasummands.rootsys import E6, SlA, SpC, build_root_system
from thetasummands.suites import (dominant_weights_a, dominant_weights_c,
                                  dominant_weights_e6)
from thetasummands.weyl import is_dominant


@pytest.fixture(scope="module")
def c2():
    return build_root_system(SpC(2))


@pytest.fixture(scope="module")
def sl4():
    return build_root_system(SlA(2))


def test_adams_scales_weights(c2):
    x = orbit_char(c2, (1, 0)) + unit_char(c2).scale(2)
    psi = adams(3, x)
    assert psi.coeffs == {(3, 0): 1, (0, 0): 2}
    assert adams(1, x) is x


def test_lambda_powers_of_standard_sp4(c2):
    # Lambda^2 C^4 = V_(1,1) + trivial as characters
    std = freudenthal_character(c2, (1, 0))
    l2 = lambda_power_effective(2, std)
    assert l2 == freudenthal_character(c2, (1, 1)) + unit_char(c2)
    assert l2.dimension() == 6
    # top power is the (trivial) determinant
    assert lambda_power_effective(4, std).dimension() == 1
    assert lambda_power_effective(5, std).is_zero


def test_lambda_powers_of_standard_sl4(sl4):
    std = freudenthal_character(sl4, (1, 0, 0, 0))
    for d, lam in ((2, (1, 1, 0, 0)), (3, (1, 1, 1, 0))):
        assert lambda_power_effective(d, std) == freudenthal_character(sl4, lam)
    # Lambda^4 is the determinant character, trivial after normalization
    assert lambda_power_effective(4, std) == unit_char(sl4)


def test_lambda_unit_axioms(c2):
    x = orbit_char(c2, (1, 1)).scale(2)
    assert lambda_power_effective(0, x) == unit_char(c2)
    assert lambda_power_effective(1, x) == x
    assert lambda_power_effective(2, unit_char(c2)).is_zero


def test_lambda_virtual_matches_effective(c2):
    x = orbit_char(c2, (1, 0)) + orbit_char(c2, (1, 1)).scale(2)
    for n in (2, 3, 4):
        assert lambda_power_virtual(n, x) == lambda_power_effective(n, x)


def test_lambda_virtual_on_virtual_input(c2):
    # lambda^2(-[1]) = [1] in any lambda-ring
    minus_one = unit_char(c2).scale(-1)
    assert lambda_power_virtual(2, minus_one) == unit_char(c2)
    with pytest.raises(InvalidInputError):
        lambda_power_effective(2, minus_one)


def test_lambda_additivity(c2):
    a = freudenthal_character(c2, (1, 0))
    b = freudenthal_character(c2, (1, 1))
    for n in (2, 3):
        lhs = lambda_power_effective(n, a + b)
        rhs = CharElem(c2)
        for i in range(n + 1):
            rhs = rhs + multiply(lambda_power_effective(i, a),
                                 lambda_power_effective(n - i, b))
        assert lhs == rhs


def test_newton_transforms_roundtrip(c2):
    x = freudenthal_character(c2, (1, 0)) + orbit_char(c2, (1, 1))
    lambdas = [lambda_power_effective(k, x) for k in range(1, 5)]
    psis = newton_transforms("lambda_to_adams", lambdas)
    assert psis[0] == x
    back = newton_transforms("adams_to_lambda", psis)
    assert back == lambdas
    with pytest.raises(InvalidInputError):
        newton_transforms("sideways", lambdas)


def test_newton_transforms_checks_the_direction_before_the_empty_list(c2):
    for direction in ("lambda_to_adams", "adams_to_lambda"):
        assert newton_transforms(direction, []) == []
    with pytest.raises(InvalidInputError) as empty:
        newton_transforms("bogus", [])
    with pytest.raises(InvalidInputError) as one:
        newton_transforms("bogus", [orbit_char(c2, (1, 0))])
    assert str(empty.value) == str(one.value) == "unknown direction 'bogus'"


def test_newton_adams_match_direct(c2):
    x = freudenthal_character(c2, (1, 0))
    psis = newton_transforms("lambda_to_adams",
                             [lambda_power_effective(k, x) for k in range(1, 4)])
    for n, psi in enumerate(psis, start=1):
        assert psi == adams(n, x)


def test_inconsistent_adams_data_is_invalid_input(c2):
    # Psi^1 = Psi^2 = We_(1,0) gives 2 lambda^2 = We_(1,0)^2 - We_(1,0)
    std = orbit_char(c2, (1, 0))
    with pytest.raises(InvalidInputError):
        newton_transforms("adams_to_lambda", [std, std])


def test_lambda_virtual_reports_a_broken_newton_identity(c2, monkeypatch):
    monkeypatch.setattr(lambdaring, "adams", lambda n, x: x)
    with pytest.raises(CertificationError):
        lambda_power_virtual(2, orbit_char(c2, (1, 0)))


def test_products_never_expand_orbits(monkeypatch):
    # products walk one orbit per term pair; the full-expansion convolution
    # is only the oracle in test_charring
    def no_expand(self):
        pytest.fail("a product expanded a full weight multiset")
    rs = build_root_system(E6)
    x = orbit_char(rs, (1, 0, 0, 0, 0, 0)) + unit_char(rs)
    psis = [adams(k, x) for k in range(1, 4)]
    monkeypatch.setattr(CharElem, "expand", no_expand)
    assert multiply(x, x).dimension() == 28 * 28
    assert lambda_power_virtual(3, x).dimension() == comb(28, 3)
    lambdas = newton_transforms("adams_to_lambda", psis)
    assert [e.dimension() for e in lambdas] == [comb(28, k) for k in range(1, 4)]


def test_lambda_virtual_cap_bounds_the_whole_recursion(c2):
    # lambda^k of a 4-dimensional character vanishes for k > 4, so most
    # products have a zero factor and cost one each
    std = orbit_char(c2, (1, 0))
    with pytest.raises(ResourceCapError, match="products"):
        lambda_power_virtual(60, std, cap=1000)
    assert lambda_power_virtual(5, std, cap=1000).is_zero


def test_root_lattice_class(c2, sl4):
    assert root_lattice_class(c2, (1, 0)) == 1
    assert root_lattice_class(c2, (1, 1)) == 0
    assert root_lattice_class(sl4, (1, 0, 0, 0)) == 1
    assert root_lattice_class(sl4, (1, 1, 0, 0)) == 2
    assert root_lattice_class(sl4, (2, 1, 1, 0)) == 0
    rs6 = build_root_system(E6)
    assert root_lattice_class(rs6, (0, 1, 0, 0, 0, 0)) == 0
    assert root_lattice_class(rs6, (1, 0, 0, 0, 0, 0)) != 0
    assert (root_lattice_class(rs6, (1, 0, 0, 0, 0, 0))
            + root_lattice_class(rs6, (0, 0, 0, 0, 0, 1))) % 3 == 0


def test_factors_through_root_lattice(c2, sl4):
    std_c = orbit_char(c2, (1, 0))
    assert factors_through_root_lattice(2, std_c)
    assert not factors_through_root_lattice(1, std_c)
    std_a = orbit_char(sl4, (1, 0, 0, 0))
    assert factors_through_root_lattice(4, std_a)
    assert not factors_through_root_lattice(1, std_a)
    assert not factors_through_root_lattice(2, std_a)
    rs6 = build_root_system(E6)
    assert factors_through_root_lattice(3, orbit_char(rs6, (1, 0, 0, 0, 0, 0)))


def factors_by_expansion(n, x):
    """Oracle: the class of every weight of Psi^n(x), orbit by orbit."""
    return all(root_lattice_class(x.system, w) == 0 for w in adams(n, x).expand())


ROOT_LATTICE_WEIGHTS = [(SpC(2), list(dominant_weights_c(2, 3))),
                        (SpC(3), list(dominant_weights_c(3, 2))),
                        (SlA(2), list(dominant_weights_a(2, 2))),
                        (SlA(3), list(dominant_weights_a(3, 1))),
                        (E6, list(dominant_weights_e6(1)))]


@pytest.mark.parametrize("kind, weights", ROOT_LATTICE_WEIGHTS,
                         ids=[str(kind) for kind, _ in ROOT_LATTICE_WEIGHTS])
def test_root_lattice_membership_matches_the_expansion(kind, weights):
    rs = build_root_system(kind)
    chars = [orbit_char(rs, mu) for mu in weights]
    chars += [freudenthal_character(rs, mu) for mu in weights]
    # sums of two orbits, which may lie in different classes
    chars += [a + b for a, b in zip(chars, chars[1:len(weights)])]
    answers = []
    for x in chars:
        for n in range(1, rs.fundamental_group_exponent + 2):
            answers.append(factors_through_root_lattice(n, x))
            assert answers[-1] == factors_by_expansion(n, x), (x.coeffs, n)
    assert set(answers) == {True, False}


def closed_form_root_lattice_class(rs, w):
    """Oracle: the coordinate sum modulo 2 (C) or 2n (A), and for E6 three
    times the first Fraction root-basis coordinate modulo 3."""
    w = rs.normalize(w)
    if rs.kind.family == "C":
        return sum(w) % 2
    if rs.kind.family == "A":
        return sum(w) % (2 * rs.kind.n)
    third = 3 * rs.root_basis_coords(w)[0]
    assert third.denominator == 1
    return int(third) % 3


@pytest.mark.parametrize("kind", [SpC(n) for n in range(1, 10)]
                         + [SlA(n) for n in range(1, 8)] + [E6], ids=str)
def test_root_lattice_class_matches_the_closed_forms(kind):
    rs = build_root_system(kind)
    rng = random.Random(str(kind))
    classes = set()
    for _ in range(300):
        w = tuple(rng.randint(-6, 6) for _ in range(rs.coord_len))
        classes.add(root_lattice_class(rs, w))
        assert root_lattice_class(rs, w) == closed_form_root_lattice_class(rs, w), w
    assert classes == set(range(rs.fundamental_group_exponent))


def test_effective_lambda_power_cap_trips_before_the_expansion(c2, monkeypatch):
    def no_expand(self):
        pytest.fail("the weight multiset was expanded past the cap")
    x = CharElem(c2, {(1, 0): 300})  # dimension 1200
    monkeypatch.setattr(lambdaring, "DEFAULT_CAP", 1000)
    monkeypatch.setattr(CharElem, "expand", no_expand)
    with pytest.raises(ResourceCapError, match="cap of 1000 additions"):
        lambda_power_effective(2, x)
    assert lambda_power_effective(1201, x).is_zero


def tuple_dp_oracle(n, x, cap):
    """Oracle: the elementary-symmetric DP on coordinate tuples, adding
    exponents with rs.add and filtering dominant keys with is_dominant, for
    n >= 2.  Returns the result and the additions it counted."""
    rs = x.system
    too_many = f"lambda-power expansion exceeds the cap of {cap} additions"
    dim = x.dimension()
    if n > dim:
        return CharElem(rs), 0
    if dim > cap:
        raise ResourceCapError(too_many)
    multiset = [w for w, c in x.expand().items() for _ in range(c)]
    elem = [{rs.zero(): 1}] + [{} for _ in range(n)]
    work = 0
    for w in multiset:
        for k in range(n, 0, -1):
            prev = elem[k - 1]
            work += len(prev)
            if work > cap:
                raise ResourceCapError(too_many)
            tgt = elem[k]
            for expo, c in prev.items():
                key = rs.add(expo, w)
                tgt[key] = tgt.get(key, 0) + c
    coeffs = {w: c for w, c in elem[n].items() if c and is_dominant(rs, w)}
    return CharElem(rs, coeffs), work


LAMBDA_DP_WEIGHTS = [
    (SpC(2), [(0, 0), (1, 0), (1, 1), (2, 0)]),
    (SpC(3), [(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 0, 0)]),
    (SlA(2), [(0, 0, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (1, 0, 0, -1)]),
    (SlA(3), [(0,) * 6, (1, 0, 0, 0, 0, 0), (1, 1, 0, 0, 0, 0)]),
    (E6, [(0,) * 6, (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1)]),
]


def lambda_dp_draws(rs, weights):
    """Single orbits and pairs of orbits with coefficients 1-3 and n = 2..4,
    leaving out draws with more than 5000 n-subsets."""
    rng = random.Random(str(rs.kind))
    draws = [({mu: c}, n) for mu in weights for c in (1, 2, 3) for n in (2, 3, 4)]
    draws += [({mu: rng.randint(1, 3), nu: rng.randint(1, 3)}, n)
              for mu, nu in combinations(weights, 2) for n in (2, 3, 4)]
    for coeffs, n in draws:
        x = CharElem(rs, coeffs)
        if comb(x.dimension(), n) <= 5000:
            yield x, n


@pytest.mark.parametrize("kind, weights", LAMBDA_DP_WEIGHTS,
                         ids=[str(kind) for kind, _ in LAMBDA_DP_WEIGHTS])
def test_packed_lambda_dp_matches_the_tuple_dp(kind, weights):
    rs = build_root_system(kind)
    draws = list(lambda_dp_draws(rs, weights))
    assert len(draws) >= 10
    for x, n in draws:
        got = lambda_power_effective(n, x)
        want, _ = tuple_dp_oracle(n, x, lambdaring.DEFAULT_CAP)
        assert got == want, (x.coeffs, n)
        assert list(got.coeffs) == list(want.coeffs), (x.coeffs, n)


@pytest.mark.parametrize("kind, weights", LAMBDA_DP_WEIGHTS,
                         ids=[str(kind) for kind, _ in LAMBDA_DP_WEIGHTS])
def test_packed_lambda_dp_counts_the_work_of_the_tuple_dp(kind, weights, monkeypatch):
    rs = build_root_system(kind)
    x, n = max(lambda_dp_draws(rs, weights), key=lambda d: comb(d[0].dimension(), d[1]))
    want, work = tuple_dp_oracle(n, x, lambdaring.DEFAULT_CAP)
    monkeypatch.setattr(lambdaring, "DEFAULT_CAP", work)
    assert lambda_power_effective(n, x) == want
    monkeypatch.setattr(lambdaring, "DEFAULT_CAP", work - 1)
    with pytest.raises(ResourceCapError) as oracle_exc:
        tuple_dp_oracle(n, x, work - 1)
    with pytest.raises(ResourceCapError) as exc:
        lambda_power_effective(n, x)
    assert str(exc.value) == str(oracle_exc.value)
