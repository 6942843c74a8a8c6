"""Property verdicts: lifting, normality, the splitting property, localness.

The named fixture verdicts here are frozen oracles; the equivalence and
implication scans run over the corpus plus every instance of size <= 5.
"""

import gc
import weakref

import numpy as np
import pytest

from quantales import io, suite
from quantales.oracles import has_id_blp, normal_witness
from quantales.properties import (
    Decomposition, PropertyReport, element_has_lp, has_lp, has_property_star,
    hyperarchimedean_equivalents, is_b_normal, is_hyperarchimedean, is_local,
    is_normal, is_semiprime, local_decomposition)
from quantales.quantale import (
    TrivialQuantale, decompose_by_elements, interval_quantale, jacobson_radical)
from quantales.reticulation import reticulate


def test_d12_verdicts(d12):
    assert has_lp(d12)
    assert is_b_normal(d12)
    assert is_normal(d12)
    assert is_hyperarchimedean(d12)
    assert not is_semiprime(d12)
    assert not is_local(d12)
    assert len(d12.maximal_elements) == 2
    assert has_property_star(d12)


def test_w5_verdicts(w5):
    lifting = has_lp(w5)
    assert not lifting
    anchor, unliftable = lifting.witness
    assert anchor == '{z}'
    normal = is_normal(w5)
    assert not normal
    assert set(normal.witness) == {'{x,z}', '{y,z}'}
    assert not is_b_normal(w5)
    assert not has_property_star(w5)
    assert is_semiprime(w5)
    assert not is_local(w5)


def test_c3_verdicts(c3):
    assert is_local(c3)
    assert has_lp(c3)
    hyper = is_hyperarchimedean(c3)
    assert not hyper and hyper.witness is not None
    assert is_semiprime(c3)


def test_lifting_equivalence_six_ways(corpus, small_corpus):
    for member in list(corpus) + list(small_corpus):
        q = member.quantale
        frame = q.radical_frame.lattice
        quotient = reticulate(q)
        b_normal = normal_witness(quotient.lattice, quotient.lattice.center) is None
        verdicts = {bool(has_lp(q)), bool(has_lp(frame)),
                    bool(has_id_blp(quotient.lattice)), bool(is_b_normal(q)),
                    bool(is_b_normal(frame)), b_normal}
        assert len(verdicts) == 1, member.name


def test_hyperarchimedean_legs_agree(corpus):
    for member in corpus:
        legs = hyperarchimedean_equivalents(member.quantale)
        three = {legs['powers_reach_center'], legs['reticulation_boolean'],
                 legs['maximals_exhaust_spectrum']}
        assert len(three) == 1, member.name
        zero_dim = legs['radical_frame_zero_dimensional']
        if is_semiprime(member.quantale):
            assert zero_dim == legs['powers_reach_center'], member.name
        else:
            assert zero_dim is None, member.name


def test_non_semiprime_fixture_has_no_zero_dimensional_leg(d12):
    legs = hyperarchimedean_equivalents(d12)
    assert legs['radical_frame_zero_dimensional'] is None
    assert legs['powers_reach_center'] is True


def test_splitting_implies_lifting(corpus, small_corpus):
    for member in list(corpus) + list(small_corpus):
        q = member.quantale
        if len(q) == 1:
            continue
        if has_property_star(q):
            assert has_lp(q), member.name


def test_normal_lifts_the_radical(corpus, small_corpus):
    for member in list(corpus) + list(small_corpus):
        q = member.quantale
        if len(q) == 1:
            continue
        if is_normal(q):
            assert element_has_lp(q, jacobson_radical(q)), member.name


def test_lifting_passes_to_every_interval(corpus):
    for member in corpus:
        q = member.quantale
        if not has_lp(q):
            continue
        for a in range(len(q)):
            part, _ = interval_quantale(q, a)
            assert has_lp(part), (member.name, q.label(a))


def test_central_elements_below_radical_vanish(corpus, small_corpus):
    for member in list(corpus) + list(small_corpus):
        q = member.quantale
        if len(q) == 1:
            continue
        r = jacobson_radical(q)
        for e in q.center:
            if q.leq(e, r):
                assert e == q.bottom, member.name


def test_d12_local_decomposition_golden(d12):
    dec = local_decomposition(d12)
    assert isinstance(dec, Decomposition)
    assert [d12.label(e) for e in dec.idempotents] == ['4', '3']
    assert sorted(len(f) for f in dec.factors) == [2, 3]
    assert all(is_local(f) for f in dec.factors)
    # maximal counts add across the factors
    assert sum(len(f.maximal_elements) for f in dec.factors) == 2


def test_decomposition_factors_are_the_intervals_above_the_idempotents(corpus, small_corpus):
    for member in list(corpus) + list(small_corpus):
        q = member.quantale
        dec = local_decomposition(q) if len(q) > 1 else None
        if isinstance(dec, Decomposition):
            assert [(f.parent, f.anchor) for f in dec.factors] == [
                (q, e) for e in dec.idempotents], member.name


def test_w5_decomposition_fails_at_the_radical(w5):
    verdict = local_decomposition(w5)
    assert not verdict
    assert verdict.witness[0] == 'radical-without-lp'
    assert verdict.witness[1] == '{z}'
    assert not element_has_lp(w5, jacobson_radical(w5))


def test_one_point_carrier_raises(corpus):
    q1 = corpus.get('Q1').quantale
    with pytest.raises(TrivialQuantale):
        local_decomposition(q1)
    with pytest.raises(TrivialQuantale):
        has_property_star(q1)


def test_five_way_decomposition_equivalence(corpus, small_corpus):
    for member in list(corpus) + list(small_corpus):
        q = member.quantale
        if len(q) == 1:
            continue
        r = jacobson_radical(q)
        values = {
            bool(has_property_star(q)),
            bool(has_lp(q)),
            bool(element_has_lp(q, r)),
            bool(local_decomposition(q)),
        }
        assert len(values) == 1, member.name


def _one_maximal_per_component(q):
    'Whether every connected component of (Spec A, <=) holds exactly one maximal element.'
    unseen, maximal = set(q.spectrum), set(q.maximal_elements)
    while unseen:
        component, frontier = set(), [unseen.pop()]
        while frontier:
            p = frontier.pop()
            component.add(p)
            linked = {r for r in unseen if q.leq(p, r) or q.leq(r, p)}
            unseen -= linked
            frontier.extend(linked)
        if len(component & maximal) != 1:
            return False
    return True


def test_lifting_normality_and_splitting_are_one_property_on_finite_members(corpus):
    """On a finite carrier the lifting property, normality, B-normality, (*),
    "every m-prime lies below exactly one maximal element" and "every connected
    component of (Spec A, <=) holds exactly one maximal element" coincide: a
    finite quantale is semilocal, so it has LP iff it is a finite product of
    local quantales, whose spectrum is the disjoint union of the factors'
    spectra, each below its factor's one maximal element.  Both verdicts occur."""
    seen = set()
    for member in list(corpus) + list(suite.enumerated(7, bound=7)):
        q = member.quantale
        if len(q) == 1:
            continue
        above = q.poset.leq[np.ix_(q.spectrum, q.maximal_elements)]
        values = {
            bool(has_lp(q)),
            bool(is_normal(q)),
            bool(is_b_normal(q)),
            bool(has_property_star(q)),
            bool((above.sum(axis=1) == 1).all()),
            _one_maximal_per_component(q),
        }
        assert len(values) == 1, member.name
        seen |= values
    assert seen == {False, True}


def test_intervals_and_verdicts_live_and_die_with_their_quantale():
    """Every interval, a decomposition and the six kept verdicts sit in one
    memo on the quantale, so once the last outside reference goes, a
    collection frees the quantale with all of it, though each interval
    refers back to its parent."""
    q = io.generate('zn:36')
    for a in range(len(q)):
        interval_quantale(q, a)
        element_has_lp(q, a)
    decompose_by_elements(q, q.maximal_elements)
    for verdict in (has_lp, is_normal, is_b_normal, is_hyperarchimedean, has_property_star):
        verdict(q)
    # the decomposition's intervals are among the n already kept, and the
    # decomposition is one entry of its own
    assert len(q._memo) == 2 * len(q) + 6
    kept = weakref.ref(q)
    del q
    gc.collect()
    assert kept() is None


def test_verdicts_are_kept_per_quantale_and_element_index(w5):
    verdict = element_has_lp(w5, 1)
    assert element_has_lp(w5, np.int64(1)) is verdict
    assert has_lp(w5) is has_lp(w5)
    assert element_has_lp.__wrapped__(w5, 1) == verdict
    # what raises is never kept, so it raises alike every time
    for _ in range(2):
        with pytest.raises(IndexError, match='out of range'):
            element_has_lp(w5, len(w5))
        with pytest.raises(TypeError):
            element_has_lp(w5, 1.0)


def test_property_report_shape(d12):
    report = PropertyReport.analyze(d12)
    assert not report.trivial
    assert report.verdicts['lp'] and report.verdicts['hyperarchimedean']
    assert not report.verdicts['semiprime'] and not report.verdicts['local']
    assert report.max_count == 2
    assert report.jacobson == '6'
    assert report.decomposition is not None
