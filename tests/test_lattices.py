"""Order-theoretic layer: posets, lattices, ideals, quotients.

An ideal of a finite lattice is read as its generator: prime and maximal
ideals through the meet-quantale, quotients as intervals.  These readings
are cross-checked against brute-force enumerations so they cannot drift.
"""

import pytest
from hypothesis import given, settings, strategies as st

from quantales.lattices import (
    LatticeMorphism, NotALattice, NotAnIdeal, NotAPoset, build_lattice, is_distributive)
from quantales.oracles import (
    complement_of, has_id_blp, lattice_boolean_center, lattice_is_id_local,
    normal_witness)
from quantales.quantale import (
    NotDistributive, Quantale, find_quantale_isomorphism, interval_quantale)
from quantales.reticulation import _generator
from quantales.suite import enumerate_lattices

DIVISORS_12 = ['1', '2', '3', '4', '6', '12']
DIVIDES_12 = [(a, b) for a in DIVISORS_12 for b in DIVISORS_12
              if int(a) % int(b) == 0]


def divisor_lattice():
    # order is reverse divisibility: a <= b iff b divides a
    return build_lattice(DIVISORS_12, DIVIDES_12)


def _ix(lat, label):
    return lat.poset.index[label]


def pentagon():
    return build_lattice(
        ['0', 'a', 'b', 'c', '1'],
        [('0', 'a'), ('0', 'b'), ('a', 'c'), ('a', '1'), ('b', '1'),
         ('c', '1'), ('0', 'c'), ('0', '1')])


def diamond():
    return build_lattice(
        ['0', 'p', 'q', 'r', '1'],
        [('0', 'p'), ('0', 'q'), ('0', 'r'), ('p', '1'), ('q', '1'),
         ('r', '1'), ('0', '1')])


def meet_quantale(lat):
    'A bounded distributive lattice as the quantale whose multiplication is meet.'
    return Quantale(lat, lat.meet_table)


def test_build_lattice_closes_transitively():
    lat = build_lattice(['0', 'a', '1'], [('0', 'a'), ('a', '1')])
    assert lat.leq(_ix(lat, '0'), _ix(lat, '1'))
    assert lat.bottom == _ix(lat, '0') and lat.top == _ix(lat, '1')


def test_build_lattice_rejects_cycles_and_unknown_labels():
    with pytest.raises(NotAPoset):
        build_lattice(['a', 'b'], [('a', 'b'), ('b', 'a')])
    with pytest.raises(NotAPoset):
        build_lattice(['a'], [('a', 'z')])


def test_two_maximal_elements_are_not_a_lattice():
    with pytest.raises(NotALattice):
        build_lattice(['a', 'b'], [])


def test_divisor_lattice_join_meet_are_gcd_lcm():
    lat = divisor_lattice()
    for a in DIVISORS_12:
        for b in DIVISORS_12:
            i, j = _ix(lat, a), _ix(lat, b)
            gcd = max(d for d in map(int, DIVISORS_12)
                      if int(a) % d == 0 and int(b) % d == 0)
            assert lat.label(lat.join(i, j)) == str(gcd)
    assert lat.label(lat.meet(_ix(lat, '4'), _ix(lat, '6'))) == '12'


def test_distributivity_verdicts():
    assert is_distributive(divisor_lattice())
    assert is_distributive(build_lattice(['0', '1'], [('0', '1')]))
    bad = is_distributive(diamond())
    assert not bad and bad.witness is not None
    assert not is_distributive(pentagon())
    # the meet-quantale of a lattice refuses it with the same witness
    m3 = diamond()
    with pytest.raises(NotDistributive) as refused:
        Quantale(m3, m3.meet_table)
    assert refused.value.witness == is_distributive(m3).witness


def _brute_ideals(lat):
    'Nonempty down-sets closed under binary joins, found by subset scan.'
    n = len(lat)
    found = set()
    for mask in range(1, 1 << n):
        members = frozenset(i for i in range(n) if mask >> i & 1)
        down_closed = all(set(lat.down_set(i)) <= members for i in members)
        join_closed = all(lat.join(a, b) in members
                          for a in members for b in members)
        if down_closed and join_closed:
            found.add(members)
    return found


@pytest.mark.parametrize('make', [divisor_lattice, pentagon, diamond])
def test_all_ideals_matches_brute_force(make):
    lat = make()
    brute = _brute_ideals(lat)
    # in a finite lattice every ideal is principal
    assert brute == {lat.down_set(g) for g in range(len(lat))}
    for members in brute:
        g = _generator(lat, [x in members for x in range(len(lat))])
        assert lat.down_set(g) == members


def test_prime_ideals_match_brute_force():
    lat = divisor_lattice()
    brute = set()
    for members in _brute_ideals(lat):
        if members == frozenset(range(len(lat))):
            continue
        prime = all(a in members or b in members
                    for a in range(len(lat)) for b in range(len(lat))
                    if lat.meet(a, b) in members)
        if prime:
            brute.add(members)
    assert {lat.down_set(p) for p in meet_quantale(lat).spectrum} == brute


def test_maximal_ideals_are_maximal_proper():
    lat = divisor_lattice()
    proper = [m for m in _brute_ideals(lat) if m != frozenset(range(len(lat)))]
    brute = {m for m in proper if not any(m < other for other in proper)}
    assert {lat.down_set(m) for m in meet_quantale(lat).maximal_elements} == brute


def test_quotient_congruence_matches_two_sided_definition():
    lat = divisor_lattice()
    g = _ix(lat, '4')
    # the quotient by the ideal below g is the interval [g) under x |-> x v g
    quotient, morphism = interval_quantale(meet_quantale(lat), g)
    for a in range(len(lat)):
        for b in range(len(lat)):
            # a ~ b iff a v e = b v e for some ideal element e
            related = any(lat.join(a, e) == lat.join(b, e) for e in lat.down_set(g))
            assert related == (morphism(a) == morphism(b))
    assert morphism.is_surjective()


def test_complement_and_boolean_center():
    lat = divisor_lattice()
    assert complement_of(lat, _ix(lat, '3')) == _ix(lat, '4')
    assert complement_of(lat, _ix(lat, '2')) is None
    center = {lat.label(e) for e in lattice_boolean_center(lat)}
    assert center == {'1', '3', '4', '12'}
    chain = build_lattice(['0', 'm', '1'], [('0', 'm'), ('m', '1')])
    assert {chain.label(e) for e in lattice_boolean_center(chain)} == {'0', '1'}


def test_ideal_rejects_non_down_sets():
    lat = divisor_lattice()
    with pytest.raises(NotAnIdeal):
        _generator(lat, [x == _ix(lat, '2') for x in range(len(lat))])


def test_morphism_validation():
    lat = divisor_lattice()
    chain = build_lattice(['0', '1'], [('0', '1')])
    ok = LatticeMorphism(lat, chain, tuple(
        _ix(chain, '1') if lat.leq(_ix(lat, '3'), a) else _ix(chain, '0')
        for a in range(len(lat))))
    assert ok.is_surjective() and not ok.is_injective()
    from quantales.lattices import LatticeError
    with pytest.raises(LatticeError):
        LatticeMorphism(lat, chain, (0,) * len(lat))  # drops the top


def test_normality_verdicts_on_named_lattices():
    d = meet_quantale(divisor_lattice())
    assert normal_witness(d, range(len(d))) is None
    assert normal_witness(d, d.center) is None
    assert has_id_blp(divisor_lattice())
    w = build_lattice(
        ['e', 'z', 'zx', 'zy', 'zxy'],
        [('e', 'z'), ('z', 'zx'), ('z', 'zy'), ('zx', 'zxy'), ('zy', 'zxy'),
         ('e', 'zx'), ('e', 'zy'), ('e', 'zxy'), ('z', 'zxy')])
    witness = normal_witness(meet_quantale(w), range(len(w)))
    assert tuple(w.label(i) for i in witness) == ('zx', 'zy')
    assert not lattice_is_id_local(w)
    chain = build_lattice(['0', 'm', '1'], [('0', 'm'), ('m', '1')])
    assert lattice_is_id_local(chain)


def test_lattice_isomorphism_via_meet_quantales():
    lat = divisor_lattice()
    relabeled = build_lattice(
        [l + "'" for l in DIVISORS_12],
        [(a + "'", b + "'") for a, b in DIVIDES_12])
    iso = find_quantale_isomorphism(meet_quantale(lat), meet_quantale(relabeled))
    assert iso is not None and sorted(iso) == list(range(len(lat)))
    for a in range(len(lat)):
        for b in range(len(lat)):
            assert lat.leq(a, b) == relabeled.leq(iso[a], iso[b])
    # a meet-quantale needs a distributive lattice: two of equal size that differ
    chain = build_lattice(['0', '1', '2', '3'], [('0', '1'), ('1', '2'), ('2', '3')])
    square = build_lattice(['0', 'a', 'b', '1'], [('0', 'a'), ('0', 'b'), ('a', '1'), ('b', '1')])
    assert find_quantale_isomorphism(meet_quantale(chain), meet_quantale(square)) is None


LATTICE_POOL = enumerate_lattices(4) + enumerate_lattices(5)


@settings(deadline=None)
@given(data=st.data())
def test_lattice_laws_hold_on_enumerated_pool(data):
    lat = data.draw(st.sampled_from(LATTICE_POOL))
    n = len(lat)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert lat.join(a, b) == lat.join(b, a)
    assert lat.meet(a, lat.join(a, b)) == a
    assert lat.join(a, lat.meet(a, b)) == a
    assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))
    assert lat.leq(a, b) == (lat.join(a, b) == b)
