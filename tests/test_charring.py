"""Character ring: orbit basis, Freudenthal multiplicities, Weyl formulas."""

import copy
import pickle
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import thetasummands
from thetasummands import charring, weyl
from thetasummands.charring import (CharElem, decompose_into_irreducibles,
                                    freudenthal_character, multiply,
                                    orbit_char, tensor_decompose,
                                    weyl_character_direct, weyl_dimension)
from thetasummands.errors import (CertificationError, InvalidInputError,
                                  ResourceCapError)
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


def test_char_elem_normalizes(c2, sl4):
    # ring operations build results with a trusted constructor; the public
    # one still drops zeros, checks dominance, normalizes and merges
    x = CharElem(c2, {(1, 0): 2, (0, 0): 0})
    assert x.coeffs == {(1, 0): 2}
    assert x.dimension() == 8
    with pytest.raises(InvalidInputError, match="not dominant"):
        CharElem(c2, {(1, 1): 1, (0, 1): 1})
    # A-kind keys are shifted so that max(coords[n:]) = 0
    y = CharElem(sl4, {(2, 1, 1, 0): 1, (1, 1, 0, 0): 5, (1, 0, 0, -1): 2})
    assert list(y.coeffs.items()) == [((1, 0, 0, -1), 3), ((1, 1, 0, 0), 5)]
    assert CharElem(sl4, {(2, 1, 1, 0): 1, (1, 0, 0, -1): -1}).is_zero
    assert "_from_dominant" not in thetasummands.__all__


def test_char_arithmetic(c2):
    a, b = orbit_char(c2, (1, 0)), orbit_char(c2, (1, 1))
    assert (a + b - a) == b
    assert a.scale(3).dimension() == 12
    assert (a - a).is_zero
    assert not (a - b).is_effective


def test_ring_elements_are_immutable_unhashable_and_round_trip(c2):
    x = freudenthal_character(c2, (2, 1))
    dec = tensor_decompose(c2, (1, 0), (1, 1))
    for value in (x, dec):
        for field in ("system", "coeffs"):
            with pytest.raises(AttributeError):
                setattr(value, field, None)
        with pytest.raises(TypeError, match="unhashable"):
            hash(value)
        for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value)):
            assert twin == value and type(twin) is type(value)
            assert list(twin.coeffs.items()) == list(value.coeffs.items())
    assert dec != x and x != x.scale(2)
    assert CharElem(c2) == CharElem(c2, {}) and CharElem(c2).is_zero
    # no tuple arithmetic or ordering rides along
    with pytest.raises(TypeError):
        2 * x
    with pytest.raises(TypeError):
        x < x


def test_multiply_standard_squared(c2):
    # We_(1,0) * We_(1,0) = We_(2,0) + 2 We_(1,1) + 4 We_(0,0)
    x = orbit_char(c2, (1, 0))
    sq = multiply(x, x)
    assert sq.coeffs == {(2, 0): 1, (1, 1): 2, (0, 0): 4}
    assert sq.dimension() == 16


def test_multiply_cap(c2):
    x = orbit_char(c2, (3, 2))
    with pytest.raises(ResourceCapError):
        multiply(x, x, cap=5)


def convolve(a: CharElem, b: CharElem) -> CharElem:
    """Oracle for multiply: convolve the full orbit expansions of both
    factors and keep the dominant weights."""
    rs = a.system
    acc = {}
    for w1, c1 in a.expand().items():
        for w2, c2 in b.expand().items():
            w = rs.add(w1, w2)
            acc[w] = acc.get(w, 0) + c1 * c2
    return CharElem(rs, {w: c for w, c in acc.items() if is_dominant(rs, w)})


E6_ZERO = (0,) * 6
ORACLE_WEIGHTS = {
    "C3": (SpC(3), list(dominant_weights_c(3, 4))),
    "SL4": (SlA(2), list(dominant_weights_a(2, 4))),
    "E6": (E6, [E6_ZERO] + list(dominant_weights_e6(1))),
}


@pytest.mark.parametrize("name", sorted(ORACLE_WEIGHTS))
def test_multiply_matches_convolution_on_orbit_pairs(name):
    kind, weights = ORACLE_WEIGHTS[name]
    rs = build_root_system(kind)
    # each unordered pair once: the weights are in no order of orbit size,
    # so both factors take the larger-orbit role
    for i, lam in enumerate(weights):
        for mu in weights[i:]:
            a, b = orbit_char(rs, lam), orbit_char(rs, mu)
            assert multiply(a, b) == convolve(a, b), (lam, mu)


# small orbits only on E6, so that the oracle's convolution stays cheap
PROPERTY_WEIGHTS = {
    "C3": (SpC(3), list(dominant_weights_c(3, 3))),
    "SL4": (SlA(2), list(dominant_weights_a(2, 3))),
    "E6": (E6, [E6_ZERO, (1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1),
                (0, 1, 0, 0, 0, 0)]),
}


@pytest.mark.parametrize("name", sorted(PROPERTY_WEIGHTS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_multiply_matches_convolution_on_virtual_characters(name, data):
    kind, weights = PROPERTY_WEIGHTS[name]
    rs = build_root_system(kind)
    terms = st.dictionaries(st.sampled_from(weights),
                            st.integers(-3, 3).filter(bool), min_size=1, max_size=3)
    a = CharElem(rs, data.draw(terms))
    b = CharElem(rs, data.draw(terms))
    assert multiply(a, b) == convolve(a, b)


def test_multiply_cap_counts_the_smaller_orbit():
    rs = build_root_system(E6)
    a = orbit_char(rs, (1, 0, 0, 0, 0, 0))
    b = orbit_char(rs, (0, 0, 0, 0, 0, 1))
    assert multiply(a, b, cap=27) == convolve(a, b)
    with pytest.raises(ResourceCapError):
        multiply(a, b, cap=26)


def test_multiply_certifies_the_orbit_stabilizer_count(c2, monkeypatch):
    # (1,0) + O_(1,0) projects twice onto (1,1): 4 * 2 / 3 is not an integer
    def orbit_missing_an_element(rs, mu, cap=weyl.DEFAULT_ORBIT_CAP):
        orb = weyl.orbit(rs, mu, cap)
        if orb.dominant_rep == (1, 1):
            return weyl.OrbitSum(rs, orb.dominant_rep, orb.elements[1:])
        return orb
    monkeypatch.setattr(charring, "orbit", orbit_missing_an_element)
    x = orbit_char(c2, (1, 0))
    with pytest.raises(CertificationError):
        multiply(x, x)


def test_multiply_looks_up_each_orbit_size_once(monkeypatch):
    rs = build_root_system(SpC(3))
    a = CharElem(rs, {(1, 0, 0): 2, (1, 1, 0): 1, (0, 0, 0): 3})
    b = CharElem(rs, {(2, 0, 0): 1, (1, 0, 0): 3})
    # the term pairs share constituents, so one lookup per hit repeats sizes
    per_pair = sum(len(multiply(orbit_char(rs, lam), orbit_char(rs, mu)).coeffs)
                   for lam in a.coeffs for mu in b.coeffs)
    lookups = Counter()

    def counted(rs, mu, cap=weyl.DEFAULT_ORBIT_CAP):
        lookups[mu] += 1
        return weyl.orbit(rs, mu, cap)
    monkeypatch.setattr(charring, "orbit", counted)
    product = multiply(a, b)
    # effective factors: every nu met is a key of the product
    met = a.coeffs.keys() | b.coeffs.keys() | product.coeffs.keys()
    assert lookups == Counter(met)
    assert len(met) < per_pair
    monkeypatch.undo()
    assert product == convolve(a, b)


def test_freudenthal_known_multiplicities(c2):
    # adjoint of Sp4: dimension 10, zero weight multiplicity 2
    ch = freudenthal_character(c2, (2, 0))
    assert ch.coeffs == {(2, 0): 1, (1, 1): 1, (0, 0): 2}
    assert ch.dimension() == 10


def test_freudenthal_cap_trips_before_recursion(c2):
    # (3,2) has four dominant weights below it: (3,2), (3,0), (2,1), (1,0)
    with pytest.raises(ResourceCapError):
        freudenthal_character(c2, (3, 2), cap=3)
    assert freudenthal_character(c2, (3, 2), cap=4).dimension() == 40


def test_freudenthal_cache_key_leaves_out_the_cap(c2):
    charring._freudenthal_cached.cache_clear()
    for cap in (charring.DEFAULT_CAP, 4, 5):
        assert freudenthal_character(c2, (3, 2), cap=cap).dimension() == 40
    info = charring._freudenthal_cached.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # a cap below the number of dominant weights raises before any lookup
    with pytest.raises(ResourceCapError):
        freudenthal_character(c2, (3, 2), cap=3)
    with pytest.raises(ResourceCapError):
        freudenthal_character(c2, (4, 2), cap=3)
    assert charring._freudenthal_cached.cache_info() == info


def test_freudenthal_sl4(sl4):
    # adjoint of Sl4: dimension 15, zero weight multiplicity 3
    ch = freudenthal_character(sl4, (2, 1, 1, 0))
    assert ch.dimension() == 15
    assert ch.coeffs[(0, 0, 0, 0)] == 3


def test_weyl_dimension_values(c2, sl4):
    assert weyl_dimension(c2, (1, 0)) == 4
    assert weyl_dimension(c2, (1, 1)) == 5
    assert weyl_dimension(c2, (2, 0)) == 10
    assert weyl_dimension(c2, (2, 1)) == 16
    assert weyl_dimension(sl4, (1, 0, 0, 0)) == 4
    assert weyl_dimension(sl4, (1, 1, 0, 0)) == 6
    assert weyl_dimension(sl4, (2, 1, 1, 0)) == 15


def test_weyl_dimension_e6():
    rs = build_root_system(E6)
    assert weyl_dimension(rs, (1, 0, 0, 0, 0, 0)) == 27
    assert weyl_dimension(rs, (0, 0, 0, 0, 0, 1)) == 27
    assert weyl_dimension(rs, (0, 1, 0, 0, 0, 0)) == 78


def test_character_oracle_agreement(c2, sl4):
    for rs, lam in ((c2, (2, 1)), (c2, (3, 1)), (sl4, (2, 1, 0, 0)),
                    (sl4, (2, 1, 1, 0))):
        assert freudenthal_character(rs, lam) == weyl_character_direct(rs, lam)


def test_character_oracle_group_cap():
    rs = build_root_system(E6)
    with pytest.raises(ResourceCapError):
        weyl_character_direct(rs, (1, 0, 0, 0, 0, 0))


def test_freudenthal_dimension_consistency(c2):
    for lam in ((3, 0), (2, 2), (3, 2)):
        assert freudenthal_character(c2, lam).dimension() == weyl_dimension(c2, lam)


def test_decompose_roundtrip(c2):
    x = (freudenthal_character(c2, (2, 1))
         + freudenthal_character(c2, (1, 0)).scale(2))
    dec = decompose_into_irreducibles(x)
    assert dec.coeffs == {(2, 1): 1, (1, 0): 2}
    total = CharElem(c2)
    for lam, c in dec.coeffs.items():
        total = total + freudenthal_character(c2, lam).scale(c)
    assert total == x


def test_tensor_standard_squared(c2):
    # V_(1,0) x V_(1,0) = V_(2,0) + V_(1,1) + V_(0,0)  (4 x 4 = 10 + 5 + 1)
    dec = tensor_decompose(c2, (1, 0), (1, 0))
    assert dec.coeffs == {(2, 0): 1, (1, 1): 1, (0, 0): 1}
    assert dec.dimension() == 16


def test_tensor_sl4(sl4):
    # standard x dual = adjoint + trivial
    dual = (1, 1, 1, 0)
    dec = tensor_decompose(sl4, (1, 0, 0, 0), dual)
    assert dec.coeffs == {(1, 0, 0, -1): 1, (0, 0, 0, 0): 1}


def test_mixing_systems_rejected(c2, sl4):
    with pytest.raises(InvalidInputError):
        multiply(orbit_char(c2, (1, 0)), orbit_char(sl4, (1, 0, 0, 0)))
