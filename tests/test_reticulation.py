"""Quotient layer: radical classes, star maps, frame and spectrum bridges."""

import numpy as np
import pytest

from quantales import io
from quantales.lattices import FiniteLattice, FinitePoset, NotAnIdeal
from quantales.quantale import Quantale, QuantaleMorphism, interval_quantale
from quantales.reticulation import (
    NotAReticulation, Reticulation, boolean_isos, check_unicity, frame_iso,
    interval_reticulation_iso, lift_morphism, mu, reticulate, spectrum_homeomorphism,
    star, unstar)

ALL_NAMES = ['Q1', 'C2', 'C3', 'B4', 'W5', 'D12', 'DIV4', 'DIV8', 'DIV30',
             'DIV36', 'C3xC3', 'D12xC3']


def _members(corpus):
    return [corpus.get(name).quantale for name in ALL_NAMES]


def test_d12_classes_golden(d12):
    ret = reticulate(d12)
    classes = {}
    for a in range(len(d12)):
        classes.setdefault(ret.lam[a], set()).add(d12.label(a))
    assert sorted(classes.values(), key=sorted) == [
        {'1'}, {'12', '6'}, {'2', '4'}, {'3'}]


def test_class_map_turns_products_into_meets(corpus):
    for q in _members(corpus):
        ret = reticulate(q)
        lam, lat = ret.lam, ret.lattice
        for a in range(len(q)):
            for b in range(len(q)):
                assert lam[q.join(a, b)] == lat.join(lam[a], lam[b])
                assert lam[q.mul(a, b)] == lat.meet(lam[a], lam[b])
                # the order criterion: lam a <= lam b iff some power of a is below b
                assert lat.leq(lam[a], lam[b]) == q.leq(q.stable_power(a), b)


def test_reticulation_and_radical_frame_are_meet_quantales(corpus):
    # each is the quantale itself, not a holder of one
    assert '__len__' not in vars(Reticulation)
    for q in _members(corpus):
        for derived in (reticulate(q), q.radical_frame):
            assert isinstance(derived, Quantale)
            assert derived.lattice is derived
            np.testing.assert_array_equal(derived.mul_table, derived.meet_table)


def test_to_frame_is_the_radical_morphism(corpus):
    for member in corpus:
        q = member.quantale
        frame = q.radical_frame
        to_frame = frame.to_frame
        assert to_frame.dtype == np.intp and not to_frame.flags.writeable
        assert to_frame.tolist() == [
            frame.carrier.index(q.radical_of(x)) for x in range(len(q))], member.name
        assert tuple(to_frame) == frame.radical_morphism.mapping, member.name


def test_unstar_of_star_is_the_radical(corpus):
    for q in _members(corpus):
        for a in range(len(q)):
            assert unstar(q, star(q, a)) == q.radical_of(a)
            assert q.leq(a, unstar(q, star(q, a)))


def test_star_is_a_bijection_on_ideals(corpus):
    for q in _members(corpus):
        # every ideal of the finite quotient is the down-set of its generator
        for g in range(len(reticulate(q))):
            assert star(q, unstar(q, g)) == g


def test_star_matches_primes_both_ways(d12):
    primes = set(reticulate(d12).lattice.spectrum)
    images = {star(d12, p) for p in d12.spectrum}
    assert images == primes


def test_unstar_refuses_generators_out_of_range(d12):
    for x in (-1, len(reticulate(d12))):
        with pytest.raises(NotAnIdeal):
            unstar(d12, x)


def test_unstar_reads_a_bool_as_an_integer_and_refuses_a_float(d12):
    # numpy would read a bool scalar as a mask, and a float as a bad index
    assert unstar(d12, True) == unstar(d12, 1) != unstar(d12, False) == unstar(d12, 0)
    assert unstar(d12, np.intp(1)) == unstar(d12, 1)
    for x in (1.5, 1.0, np.float64(1.0), '1'):
        with pytest.raises(TypeError):
            unstar(d12, x)


def test_frame_and_spectrum_isomorphisms_hold_everywhere(corpus):
    for q in _members(corpus):
        phi, psi = frame_iso(q)
        assert len(phi) == len(q.radical_frame.carrier)
        u, v = spectrum_homeomorphism(q)
        assert len(u) == len(q.spectrum)


def test_boolean_triangle(corpus):
    for q in _members(corpus):
        b_lambda, b_rho, b_mu = boolean_isos(q)
        assert len(b_lambda) == len(q.center)


def test_mu_is_a_lattice_isomorphism(corpus):
    for q in _members(corpus):
        bridge = mu(q)
        assert bridge.is_bijective()


def test_bridges_are_bijective_quantale_morphisms(corpus, small_corpus):
    for member in list(corpus) + list(small_corpus):
        q = member.quantale
        r = reticulate(q)
        frame = q.radical_frame
        bridges = [mu(q), check_unicity(r, frame, frame.to_frame)]
        bridges += [interval_reticulation_iso(q, a) for a in range(len(q))]
        for bridge in bridges:
            assert type(bridge) is QuantaleMorphism and bridge.is_bijective(), member.name
        for a in range(len(q)):
            # onto, and its kernel is star(a), so one-to-one exactly when that is the bottom
            lifted = lift_morphism(interval_quantale(q, a)[1])
            assert type(lifted) is QuantaleMorphism and lifted.is_surjective()
            assert lifted.is_bijective() == (star(q, a) == r.bottom), (member.name, a)


def test_interval_reticulation_everywhere(corpus):
    for q in _members(corpus):
        for a in range(len(q)):
            interval_reticulation_iso(q, a)


def test_unicity_accepts_the_radical_frame_candidate(d12):
    ret = reticulate(d12)
    frame = d12.radical_frame
    lam = tuple(frame.to_frame[d12.radical_of(a)] for a in range(len(d12)))
    iso = check_unicity(ret, frame, lam)
    assert iso.is_bijective()


def test_unicity_accepts_a_relabeled_copy(d12):
    ret = reticulate(d12)
    m = len(ret)
    swap = tuple(m - 1 - i for i in range(m))
    rel = np.zeros((m, m), dtype=bool)
    for i in range(m):
        for j in range(m):
            rel[swap[i], swap[j]] = ret.lattice.leq(i, j)
    copy = FiniteLattice(FinitePoset(['k%d' % i for i in range(m)], rel))
    copy = Quantale(copy, copy.meet_table)
    iso = check_unicity(ret, copy, tuple(swap[ret.lam[a]] for a in range(len(d12))))
    assert iso.is_bijective()


def test_unicity_rejects_wrong_candidates(d12):
    ret = reticulate(d12)
    # constant-to-top map is not surjective onto a two-point lattice's bottom
    two = FiniteLattice(FinitePoset(['u', 'v'], np.array([[1, 1], [0, 1]], bool)))
    two = Quantale(two, two.meet_table)
    with pytest.raises(NotAReticulation):
        check_unicity(ret, two, (1,) * len(d12))
    # a chain of the right size cannot satisfy the join axiom for D12
    m = len(ret)
    chain_rel = np.triu(np.ones((m, m), dtype=bool))
    chain = FiniteLattice(FinitePoset(['c%d' % i for i in range(m)], chain_rel))
    chain = Quantale(chain, chain.meet_table)
    with pytest.raises(NotAReticulation):
        check_unicity(ret, chain, ret.lam)


def test_unicity_refuses_a_candidate_whose_multiplication_is_not_its_meet(d12):
    ret = reticulate(d12)
    # in the ideals of Z/4, (2)*(2) is the zero ideal, strictly below (2) ^ (2)
    z4 = io.generate('zn:4')
    with pytest.raises(NotAReticulation, match='multiplication is not its meet') as refused:
        check_unicity(ret, z4, [0] * len(d12))
    assert refused.value.witness == ('2', '2')
