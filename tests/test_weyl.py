"""Weyl orbits, dominant projection, signed orbits and group orders."""

import copy
import pickle
from math import factorial

import pytest

from thetasummands import weyl
from thetasummands.errors import (CertificationError, InvalidInputError,
                                  ResourceCapError)
from thetasummands.rootsys import E6, SlA, SpC, build_root_system
from thetasummands.suites import (dominant_weights_a, dominant_weights_c,
                                  dominant_weights_e6)
from thetasummands.weyl import (DEFAULT_ORBIT_CAP, dominant_projection,
                                is_dominant, orbit, orbit_size, signed_orbit,
                                weyl_group_order)


def test_is_dominant():
    rs = build_root_system(SpC(3))
    assert is_dominant(rs, (3, 1, 0))
    assert not is_dominant(rs, (1, 3, 0))
    assert not is_dominant(rs, (1, 0, -1))
    rsa = build_root_system(SlA(2))
    assert is_dominant(rsa, (2, 1, 0, -1))
    assert is_dominant(rsa, (5, 4, 3, 2))  # dominant after normalization
    assert not is_dominant(rsa, (0, 1, 0, 0))


def test_orbit_c2():
    rs = build_root_system(SpC(2))
    # signed permutations of (1,0): 4 elements
    orb = orbit(rs, (1, 0))
    assert orb.size == 4
    assert set(orb.elements) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    # (2,1): all signed permutations, 8 elements
    assert orbit_size(rs, (2, 1)) == 8
    assert orbit_size(rs, (0, 0)) == 1


def test_orbit_cap_counts_each_element():
    rs = build_root_system(SpC(3))
    assert orbit(rs, (3, 2, 1), cap=48).size == 48
    with pytest.raises(ResourceCapError):
        orbit(rs, (3, 2, 1), cap=47)


def test_orbit_cache_key_leaves_out_the_cap():
    rs = build_root_system(SpC(3))
    weyl._orbit_cached.cache_clear()
    for cap in (DEFAULT_ORBIT_CAP, 48, 49):
        assert orbit(rs, (3, 2, 1), cap=cap).size == 48
    info = weyl._orbit_cached.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    # a cap below the closed-form size raises before any walk
    with pytest.raises(ResourceCapError):
        orbit(rs, (3, 2, 1), cap=47)
    with pytest.raises(ResourceCapError):
        orbit(rs, (4, 2, 1), cap=47)
    assert weyl._orbit_cached.cache_info() == info


ORBIT_SIZE_WEIGHTS = (
    [(SpC(n), list(dominant_weights_c(n, 4))) for n in range(1, 6)]
    + [(SlA(n), list(dominant_weights_a(n, 4))) for n in range(1, 4)]
    + [(E6, [(0,) * 6] + list(dominant_weights_e6(2)))])


@pytest.mark.parametrize("kind, weights", ORBIT_SIZE_WEIGHTS,
                         ids=[str(kind) for kind, _ in ORBIT_SIZE_WEIGHTS])
def test_orbit_size_closed_form_matches_the_walk(kind, weights):
    rs = build_root_system(kind)
    for w in weights:
        assert orbit_size(rs, w) == len(orbit(rs, w).elements), w


def test_orbit_accepts_nondominant_input():
    rs = build_root_system(SpC(2))
    assert orbit(rs, (-1, 0)) == orbit(rs, (1, 0))
    assert orbit(rs, (-1, 0)).dominant_rep == (1, 0)


def test_orbit_a_kind():
    rs = build_root_system(SlA(2))
    # permutation orbit of (1,0,0,0) in Z^4 / det
    orb = orbit(rs, (1, 0, 0, 0))
    assert orb.size == 4
    assert (-1, -1, 0, -1) in set(orb.elements)  # = e_3 modulo det


def test_weyl_group_orders():
    assert weyl_group_order(build_root_system(SpC(2))) == 8
    assert weyl_group_order(build_root_system(SpC(3))) == 48
    assert weyl_group_order(build_root_system(SlA(2))) == factorial(4)
    assert weyl_group_order(build_root_system(SlA(3))) == factorial(6)


@pytest.mark.parametrize("kind", [SpC(n) for n in range(1, 10)]
                         + [SlA(n) for n in range(1, 8)] + [E6], ids=str)
def test_weyl_group_order_matches_the_closed_forms(kind):
    # 2^n n! for C_n, (2n)! for A_{2n-1}, 51840 for E6
    closed_form = {"C": 2**kind.n * factorial(kind.n), "A": factorial(2 * kind.n),
                   "E6": 51840}[kind.family]
    assert weyl_group_order(build_root_system(kind)) == closed_form


@pytest.mark.parametrize("kind", [SpC(n) for n in range(1, 6)]
                         + [SlA(n) for n in range(1, 4)] + [E6],
                         ids=str)
def test_weyl_group_order_closed_form_matches_rho_orbit(kind):
    # W acts simply transitively on the orbit of the regular weight rho
    rs = build_root_system(kind)
    assert weyl_group_order(rs) == len(orbit(rs, rs.weyl_vector_rho).elements)


def test_orbit_sizes_divide_group_order():
    for kind in (SpC(3), SlA(2)):
        rs = build_root_system(kind)
        order = weyl_group_order(rs)
        for w in (rs.fundamental_weights + (rs.weyl_vector_rho,)):
            assert order % orbit_size(rs, w) == 0


def test_e6_minuscule_orbit():
    rs = build_root_system(E6)
    assert orbit_size(rs, (1, 0, 0, 0, 0, 0)) == 27
    assert orbit_size(rs, (0, 0, 0, 0, 0, 1)) == 27
    assert orbit_size(rs, (0, 1, 0, 0, 0, 0)) == 72  # the root orbit


def test_dominant_projection():
    rs = build_root_system(SpC(2))
    dom, length = dominant_projection(rs, (-1, 2))
    assert dom == (2, 1)
    assert length >= 1
    dom0, length0 = dominant_projection(rs, (2, 1))
    assert (dom0, length0) == ((2, 1), 0)


def test_orbit_cap():
    rs = build_root_system(SpC(3))
    with pytest.raises(ResourceCapError):
        orbit(rs, (3, 2, 1), cap=5)


def test_signed_orbit_rho():
    rs = build_root_system(SpC(2))
    signed = signed_orbit(rs, rs.weyl_vector_rho)
    assert len(signed) == 8
    assert signed[rs.weyl_vector_rho] == 1
    assert sum(signed.values()) == 0  # signs cancel in pairs


def test_signed_orbit_rejects_singular():
    rs = build_root_system(SpC(2))
    with pytest.raises(InvalidInputError):
        signed_orbit(rs, (1, 0))  # stabilized by a reflection


def test_signed_orbit_rejects_a_weight_met_with_both_signs(monkeypatch):
    # with the regularity check fooled, the walk itself meets the clash
    rs = build_root_system(SpC(2))
    monkeypatch.setattr(weyl, "dominant_projection", lambda rs, v: (rs.weyl_vector_rho, 0))
    with pytest.raises(CertificationError, match="both signs"):
        signed_orbit(rs, (1, 0))


def signed_orbit_by_sign_propagation(rs, v):
    """Oracle: breadth-first walk that gives each new element the opposite
    sign of the element it was reached from, and rejects a clash."""
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


SIGNED_ORBIT_WEIGHTS = (
    [(SpC(n), list(dominant_weights_c(n, 5 - n))) for n in range(1, 5)]
    + [(SlA(n), list(dominant_weights_a(n, 4 - n))) for n in range(1, 4)])


@pytest.mark.parametrize("kind, weights", SIGNED_ORBIT_WEIGHTS,
                         ids=[str(kind) for kind, _ in SIGNED_ORBIT_WEIGHTS])
def test_signed_orbit_matches_sign_propagation(kind, weights):
    rs = build_root_system(kind)
    rho = rs.weyl_vector_rho
    for lam in weights:
        top = rs.add(lam, rho)
        # a regular weight off the dominant chamber starts with sign 1 too
        for v in (top, rs.reflect(0, top)):
            assert signed_orbit(rs, v) == signed_orbit_by_sign_propagation(rs, v), v


def test_orbit_sum_is_an_immutable_record():
    rs = build_root_system(SpC(2))
    orb = orbit(rs, (0, 1))
    assert orb.dominant_rep == (1, 0) and orb.size == len(orb.elements) == 4
    with pytest.raises(AttributeError):
        orb.elements = ()
    for twin in (pickle.loads(pickle.dumps(orb)), copy.copy(orb)):
        assert twin == orb and hash(twin) == hash(orb) and twin.size == 4
    assert orb != orbit(rs, (1, 1))
