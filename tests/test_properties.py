"""Randomized invariants over small coordinate boxes."""

from hypothesis import given, settings
from hypothesis import strategies as st

from thetasummands.charring import freudenthal_character, weyl_character_direct
from thetasummands.dominance import dominance_compare, degree_length, reduce_hyp
from thetasummands.rootsys import SlA, SpC, build_root_system
from thetasummands.weyl import dominant_projection, is_dominant, orbit

coords3 = st.tuples(*[st.integers(-4, 4)] * 3)
coords4 = st.tuples(*[st.integers(-3, 3)] * 4)


@given(coords3)
@settings(max_examples=60)
def test_dominant_projection_idempotent_c3(w):
    rs = build_root_system(SpC(3))
    dom, _ = dominant_projection(rs, w)
    assert is_dominant(rs, dom)
    assert dominant_projection(rs, dom) == (dom, 0)
    assert dom in set(orbit(rs, dom).elements)


@given(coords4)
@settings(max_examples=60)
def test_orbit_membership_sl4(w):
    rs = build_root_system(SlA(2))
    dom, _ = dominant_projection(rs, w)
    orb = orbit(rs, dom)
    assert rs.normalize(w) in set(orb.elements)
    # every element projects back to the same dominant representative
    for v in orb.elements:
        assert dominant_projection(rs, v)[0] == dom


@given(st.tuples(*[st.integers(0, 5)] * 3).map(lambda t: tuple(sorted(t, reverse=True))))
@settings(max_examples=60)
def test_reduce_hyp_invariants_c3(lam):
    rs = build_root_system(SpC(3))
    trace = reduce_hyp(3, lam)
    d, _ = degree_length(lam)
    assert degree_length(trace.result) == (d, min(d, 3))
    assert dominance_compare(rs, lam, trace.result)
    assert trace.replay() == trace.result


def _decreasing(t):
    return tuple(sorted(t, reverse=True))


@given(st.tuples(*[st.integers(0, 3)] * 3).map(_decreasing))
@settings(max_examples=30, deadline=None)
def test_freudenthal_matches_weyl_formula_c3(lam):
    rs = build_root_system(SpC(3))
    assert freudenthal_character(rs, lam) == weyl_character_direct(rs, lam)


@given(st.tuples(*[st.integers(0, 3)] * 3).map(lambda t: _decreasing(t) + (0,)))
@settings(max_examples=30, deadline=None)
def test_freudenthal_matches_weyl_formula_sl4(lam):
    rs = build_root_system(SlA(2))
    assert freudenthal_character(rs, lam) == weyl_character_direct(rs, lam)
