"""Multiplicative layer: axioms, residuation, spectra, radicals, products.

The divisor instance is rebuilt here by hand (gcd arithmetic) so the
generator in io has an independent oracle.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantales import io
from quantales.lattices import FiniteLattice, build_lattice
from quantales.quantale import (
    NotAssociative, NotCommutative, NotDistributive, NotUnital,
    PreconditionFailed, Quantale, QuantaleError, QuantaleMorphism,
    TrivialQuantale, _isomorphism, decompose_by_elements,
    find_quantale_isomorphism, interval_quantale,
    jacobson_radical, kernel, negation, product, residuum)
from quantales.oracles import radical_by_powers
from quantales.properties import element_has_lp
from quantales.reticulation import star

DIVISORS = ['1', '2', '3', '4', '6', '12']


def hand_built_d12():
    lat = build_lattice(
        DIVISORS,
        [(a, b) for a in DIVISORS for b in DIVISORS if int(a) % int(b) == 0])
    ix = lat.poset.index
    mul = np.zeros((6, 6), dtype=np.intp)
    for a in DIVISORS:
        for b in DIVISORS:
            mul[ix[a], ix[b]] = ix[str(math.gcd(int(a) * int(b), 12))]
    return Quantale(lat, mul)


def test_generator_matches_hand_built_table(d12):
    ours = hand_built_d12()
    assert ours.elements == d12.elements
    assert (ours.mul_table == d12.mul_table).all()
    assert (ours.lattice.poset.leq == d12.lattice.poset.leq).all()


def _chain3():
    return build_lattice(['0', 'm', '1'], [('0', 'm'), ('m', '1')])


def test_axiom_rejections_name_the_broken_law():
    lat = _chain3()
    ix = lat.poset.index
    frame = np.array([[lat.meet(i, j) for j in range(3)] for i in range(3)])

    broken = frame.copy()
    broken[ix['0'], ix['m']] = ix['m']  # 0*m = m but m*0 = 0
    with pytest.raises(NotCommutative) as err:
        Quantale(lat, broken)
    assert len(err.value.witness) == 2

    broken = frame.copy()
    broken[ix['m'], ix['1']] = broken[ix['1'], ix['m']] = ix['0']
    with pytest.raises(NotUnital) as err:
        Quantale(lat, broken)
    assert err.value.witness == ('m',)

    broken = frame.copy()
    broken[ix['m'], ix['0']] = broken[ix['0'], ix['m']] = ix['m']
    with pytest.raises(NotDistributive) as err:
        Quantale(lat, broken)
    assert err.value.witness == ('m',)  # zero row violated

    # x*y = 0 except on the unit row: associativity survives, the join law breaks
    lat4 = build_lattice(
        ['0', 'a', 'b', '1'],
        [('0', 'a'), ('0', 'b'), ('a', '1'), ('b', '1'), ('0', '1')])
    jx = lat4.poset.index
    table = np.zeros((4, 4), dtype=np.intp)
    table[lat4.top] = np.arange(4)
    table[:, lat4.top] = np.arange(4)
    with pytest.raises(NotDistributive) as err:
        Quantale(lat4, table)
    assert len(err.value.witness) == 3

    # a products forced through a non-associative middle value
    lat5 = build_lattice(
        ['0', 'a', 'b', 'c', '1'],
        [('0', 'a'), ('a', 'b'), ('b', 'c'), ('c', '1'),
         ('0', 'b'), ('0', 'c'), ('0', '1'), ('a', 'c'), ('a', '1'), ('b', '1')])
    kx = lat5.poset.index
    t = np.zeros((5, 5), dtype=np.intp)
    t[lat5.top] = np.arange(5)
    t[:, lat5.top] = np.arange(5)
    for x, y, v in [('a', 'a', '0'), ('a', 'b', 'a'), ('a', 'c', 'a'),
                    ('b', 'b', 'a'), ('b', 'c', 'b'), ('c', 'c', 'c')]:
        t[kx[x], kx[y]] = t[kx[y], kx[x]] = kx[v]
    with pytest.raises((NotAssociative, NotDistributive)):
        Quantale(lat5, t)


def test_d12_structure_goldens(d12):
    ix = d12.index_of
    assert sorted(d12.label(p) for p in d12.spectrum) == ['2', '3']
    assert sorted(d12.label(m) for m in d12.maximal_elements) == ['2', '3']
    assert d12.label(d12.radical_of(ix('4'))) == '2'
    assert d12.label(d12.radical_of(ix('12'))) == '6'
    assert d12.label(d12.radical_of(ix('6'))) == '6'
    assert sorted(d12.label(e) for e in d12.center) == ['1', '12', '3', '4']
    assert d12.label(jacobson_radical(d12)) == '6'
    assert d12.label(d12.stable_power(ix('2'))) == '4'
    assert d12.label(negation(d12, ix('3'))) == '4'


def test_w5_structure_goldens(w5):
    assert {w5.label(p) for p in w5.spectrum} == {'{}', '{x,z}', '{y,z}'}
    assert {w5.label(m) for m in w5.maximal_elements} == {'{x,z}', '{y,z}'}
    assert w5.label(jacobson_radical(w5)) == '{z}'
    # frames are semiprime: the radical fixes everything
    assert all(w5.radical_of(a) == a for a in range(len(w5)))


def test_trivial_quantale_has_no_jacobson_radical():
    one = io.generate('chain:1,frame')
    with pytest.raises(TrivialQuantale):
        jacobson_radical(one)


_FIX = {name: io.generate(gen) for name, gen in
        [('C3', 'chain:3,frame'), ('B4', 'boolean:2'),
         ('W5', 'downsets:z<x,z<y'), ('D12', 'zn:12'), ('DIV36', 'zn:36')]}


@settings(deadline=None)
@given(data=st.data())
def test_residuation_is_adjoint_to_multiplication(data):
    q = data.draw(st.sampled_from(sorted(_FIX)).map(_FIX.get))
    n = len(q)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    c = data.draw(st.integers(0, n - 1))
    assert q.leq(a, residuum(q, b, c)) == q.leq(q.mul(a, b), c)


@settings(deadline=None)
@given(data=st.data())
def test_product_bounded_by_meet_and_zero_row(data):
    q = data.draw(st.sampled_from(sorted(_FIX)).map(_FIX.get))
    n = len(q)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    assert q.leq(q.mul(a, b), q.meet(a, b))
    assert q.mul(a, q.bottom) == q.bottom


@settings(deadline=None)
@given(data=st.data())
def test_coprime_pairs_multiply_like_meets(data):
    q = data.draw(st.sampled_from(sorted(_FIX)).map(_FIX.get))
    n = len(q)
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    if q.join(a, b) == q.top:
        assert q.mul(a, b) == q.meet(a, b)
        assert q.join(q.stable_power(a), q.stable_power(b)) == q.top


@pytest.mark.parametrize('name', sorted(_FIX))
def test_radical_agrees_with_power_oracle(name):
    q = _FIX[name]
    for a in range(len(q)):
        assert q.radical_of(a) == radical_by_powers(q, a)


def test_radical_frame_is_a_frame(d12):
    frame = d12.radical_frame
    labels = [d12.label(a) for a in frame.carrier]
    assert labels == ['1', '2', '3', '6']
    rq = frame.lattice
    # multiplication collapses to meet on radical elements
    assert all(rq.mul(i, j) == rq.meet(i, j)
               for i in range(len(rq)) for j in range(len(rq)))
    rho = frame.radical_morphism
    assert rho.is_surjective()


def test_a_quantale_is_its_lattice(d12):
    assert isinstance(d12, FiniteLattice)
    assert d12.lattice is d12
    # the element reads are the lattice's own, not copies of them
    reads = {'elements', 'bottom', 'top', '__len__', 'label', 'leq', 'join', 'meet',
             'join_all', 'meet_all'}
    assert reads.isdisjoint(vars(Quantale))


def test_interval_quantale_of_d12(d12):
    ix = d12.index_of
    part, u = interval_quantale(d12, ix('6'))
    assert [d12.label(a) for a in part.carrier] == ['1', '2', '3', '6']
    two, three = part.to_interval[ix('2')], part.to_interval[ix('3')]
    assert part.carrier[part.mul(two, three)] == ix('6')
    assert part.carrier[part.mul(two, two)] == ix('2')  # gcd(4,12) v 6 = 2
    assert kernel(u) == ix('6')
    assert u(ix('4')) == part.to_interval[ix('2')]


def test_to_interval_is_the_surjection(corpus):
    for member in corpus:
        q = member.quantale
        for a in range(len(q)):
            part, u = interval_quantale(q, a)
            to_interval = part.to_interval
            assert to_interval.dtype == np.intp and not to_interval.flags.writeable
            assert to_interval.tolist() == [
                part.carrier.index(q.join(x, a)) for x in range(len(q))], (member.name, a)
            assert tuple(to_interval) == u.mapping, (member.name, a)


def test_interval_anchor_at_bottom_is_identity(d12):
    part, u = interval_quantale(d12, d12.bottom)
    assert len(part) == len(d12)
    assert (part.mul_table == d12.mul_table).all()


def test_product_and_projections(c3):
    prod, (p1, p2) = product([c3, c3])
    assert len(prod) == 9
    assert prod.label(prod.top) == '(2,2)'
    e1 = kernel(p1)
    assert prod.label(e1) == '(0,2)'
    assert e1 in prod.center
    assert p1.is_surjective()
    # slotwise multiplication
    a = prod.index_of('(1,2)')
    b = prod.index_of('(1,0)')
    assert prod.label(prod.mul(a, b)) == '(1,0)'


def test_decompose_d12_into_coprime_intervals(d12):
    ix = d12.index_of
    morphism = decompose_by_elements(d12, (ix('4'), ix('3')))
    assert morphism.source.anchor == d12.bottom
    assert len(d12.lattice.up_set(ix('4'))) == 3
    assert len(d12.lattice.up_set(ix('3'))) == 2
    assert len(morphism.target) == len(d12)
    with pytest.raises(PreconditionFailed):
        decompose_by_elements(d12, (ix('4'), ix('6')))  # join is 2, not 1


def test_decomposition_map_is_bijective_morphism(d12):
    ix = d12.index_of
    morphism = decompose_by_elements(d12, (ix('4'), ix('3')))
    assert sorted(morphism.mapping) == list(range(len(d12)))


def test_decomposition_anchors_are_refused_like_interval_anchors(d12):
    'Each anchor is read as interval_quantale reads it, before any interval is cached.'
    decompose_by_elements(d12, (d12.index_of('4'), d12.index_of('3')))
    keys = set(d12._memo)
    # numpy would read -3 as index 3 and cache a second part under the key -3
    for a in (-1, -3, len(d12)):
        with pytest.raises(IndexError, match='element index %d out of range' % a):
            decompose_by_elements(d12, [a])
    for a in (2.0, 1.0, '1', None):
        with pytest.raises(TypeError):
            decompose_by_elements(d12, [a])
    assert set(d12._memo) == keys
    u = decompose_by_elements(d12, [np.int64(3)])
    assert u.target is interval_quantale(d12, 3)[0] and type(u.target.anchor) is int


def test_decompositions_are_kept_per_quantale_and_anchors(d12):
    'One decomposition per sequence of anchors, shared by every caller; a copy builds its own.'
    a, b = d12.index_of('4'), d12.index_of('3')
    u = decompose_by_elements(d12, (a, b))
    assert decompose_by_elements(d12, [np.int64(a), b]) is u
    assert decompose_by_elements(d12, (b, a)) is not u
    clone = copy.copy(d12)
    assert decompose_by_elements(clone, (a, b)) is not u
    assert decompose_by_elements(clone, (a, b)).mapping == u.mapping


def test_quantale_isomorphism_detection(d12, c3):
    doc = io.emit_instance(d12)
    relabeled = io.parse_instance(doc.replace('"12"', '"twelve"'))
    assert find_quantale_isomorphism(d12, relabeled) is not None
    prod, _ = product([c3, io.generate('chain:2,frame')])
    # same lattice shape as the divisor instance but a frame: not isomorphic
    assert len(prod) == len(d12)
    assert find_quantale_isomorphism(d12, prod) is None


def test_isomorphism_search_reaches_the_input_bound():
    'The search keeps its own stack: the order and meet of a chain at the input bound map to themselves.'
    ar = np.arange(io.MAX_ELEMENTS)
    tables = (ar[:, None] <= ar, np.minimum.outer(ar, ar))
    assert _isomorphism(tables, tables) == tuple(range(io.MAX_ELEMENTS))


@pytest.mark.parametrize('fn', [element_has_lp, interval_quantale, star])
def test_element_indices_outside_the_carrier_are_refused(w5, fn):
    # numpy would read -1 as the top and -len(q) as the bottom
    for a in (-1, -len(w5), len(w5)):
        with pytest.raises(IndexError, match='element index %d out of range' % a):
            fn(w5, a)
    fn(w5, len(w5) - 1)


@pytest.mark.parametrize('fn', [element_has_lp, interval_quantale, star])
def test_element_indices_that_are_not_integers_are_refused(d12, fn):
    # fill the interval cache first: its key 1 equals 1.0 and np.float64(1.0)
    interval_quantale(d12, 1)
    for a in (1.0, 2.5, np.float64(1.0), '1', None, np.bool_(True)):
        with pytest.raises(TypeError):
            fn(d12, a)


@pytest.mark.parametrize('fn', [element_has_lp, interval_quantale, star])
def test_integer_element_indices_act_as_their_int(d12, fn):
    for a, plain in ((True, 1), (False, 0), (np.int64(2), 2), (np.uint8(3), 3), (np.intp(5), 5)):
        assert fn(d12, a) == fn(d12, plain)
    part, _ = interval_quantale(d12, np.int64(2))
    assert part is interval_quantale(d12, 2)[0] and type(part.anchor) is int


def test_morphism_validation(c3):
    with pytest.raises(QuantaleError):
        QuantaleMorphism(c3, c3, (0, 1, 1))  # drops the unit
    with pytest.raises(QuantaleError):
        QuantaleMorphism(c3, c3, (0, 2, 1))  # not monotone
    identity = QuantaleMorphism(c3, c3, (0, 1, 2))
    assert identity.is_surjective()


@pytest.mark.parametrize('mapping, refusal', [
    (tuple(range(6)), None),
    ([np.int64(i) for i in range(6)], None),
    (np.arange(6, dtype=np.intp), None),
    # int() truncates each entry, as it always has
    (np.arange(6) + 0.25, None),
    ((0, 1, 2, 3, 4), 'mapping length does not match source carrier'),
])
def test_morphism_mappings_are_read_as_ints(d12, mapping, refusal):
    if refusal is not None:
        with pytest.raises(QuantaleError) as info:
            QuantaleMorphism(d12, d12, mapping)
        assert str(info.value) == refusal
        return
    identity = QuantaleMorphism(d12, d12, mapping)
    assert identity.mapping == tuple(range(6))
    assert all(type(x) is int for x in identity.mapping)


def test_zero_kernel_does_not_prove_injectivity(c3):
    # collapsing the chain onto its endpoints is a unital morphism whose
    # kernel is zero even though two points merge, so the kernel criterion
    # is only trusted on interval surjections and projections; anywhere
    # else the cross-check trips
    from quantales.quantale import is_injective
    c2 = io.generate('chain:2,frame')
    collapse = QuantaleMorphism(c3, c2, (0, 1, 1))
    assert kernel(collapse) == c3.bottom
    assert len(set(collapse.mapping)) < len(c3)
    with pytest.raises(QuantaleError):
        is_injective(collapse)
