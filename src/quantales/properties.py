'Lifting, normality, hyperarchimedean, and decomposition properties of finite quantales.'

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quantales.lattices import Verdict, blocks, first_true
from quantales.quantale import (
    QuantaleMorphism,
    TrivialQuantale,
    _element_index,
    _interval_at,
    decompose_by_elements,
    jacobson_radical,
)
from quantales.reticulation import reticulate


def _stranded(q, anchors):
    """stranded[i, x]: x is complemented in [a) for a = anchors[i], but is
    c v a for no complemented c of q.

    x is complemented in [a) when x >= a and some y >= a has x v y = 1 and
    x*y <= a, since the product of [a) is x*y v a and its bottom is a.  Any
    y with x v y = 1 and x*y <= a will do, because y v a then lies in [a)
    and x*(y v a) = x*y v x*a <= a.  An interval's carrier and center ascend
    in the order of q, so the first True entry of a row is the first
    stranded element of that interval."""
    anchors = np.asarray(anchors, dtype=np.intp)
    n, k = len(q), len(anchors)
    leq, join = q.lattice.poset.leq, q.lattice.join_table
    coprime = join == q.top
    above, below = leq[anchors], leq[:, anchors]
    complemented = np.zeros((n, k), dtype=bool)
    for rows, cols in blocks(n, k):
        # [x, y, i]: x v y = 1 and x*y <= a
        splits = coprime[rows, cols, None] & below[q.mul_table[rows, cols]]
        complemented[rows] |= splits.any(axis=1)
    stranded = complemented.T & above
    stranded[np.arange(k)[:, None], join[np.ix_(anchors, q.center)]] = False
    return stranded


def element_has_lp(q, a):
    'Whether every complemented element of [a) is c v a for complemented c; witness the first not.'
    hit = first_true(_stranded(q, [_element_index(q, a)])[0])
    if hit is not None:
        return Verdict(False, q.label(hit[0]))
    return Verdict(True)


def has_lp(q):
    'Lifting property at every anchor; witness the first (anchor, stranded element) in row-major order.'
    hit = first_true(_stranded(q, np.arange(len(q))))
    if hit is not None:
        a, x = hit
        return Verdict(False, (q.label(a), q.label(x)))
    return Verdict(True)


def _normality(q, pool):
    """Whether every a v b = 1 splits by e, f in pool with a v e = b v f = 1 and
    e*f = 0; the witness is the first unsplit (a, b) in row-major order."""
    pool = np.asarray(pool, dtype=np.intp)
    coprime = q.lattice.join_table == q.top
    reach = coprime[:, pool]
    disjoint = q.mul_table[np.ix_(pool, pool)] == q.bottom
    # split[a, b]: some e, f in pool with a v e = 1, e*f = 0 and b v f = 1
    split = (reach @ disjoint) @ reach.T
    hit = first_true(coprime & ~split)
    if hit is not None:
        return Verdict(False, tuple(q.label(i) for i in hit))
    return Verdict(True)


def is_normal(q):
    'Every cover a v b = 1 splits by e, f with a v e = b v f = 1 and e*f = 0.'
    return _normality(q, range(len(q)))


def is_b_normal(q):
    'Normality with the separating pair drawn from the Boolean center.'
    return _normality(q, q.center)


def is_hyperarchimedean(q):
    'Some power of every element is complemented; witness is the first stuck element.'
    center = set(q.center)
    for c in range(len(q)):
        if q.stable_power(c) not in center:
            return Verdict(False, q.label(c))
    return Verdict(True)


def is_semiprime(q):
    'The radical of bottom is bottom.'
    return q.radical_of(q.bottom) == q.bottom


def hyperarchimedean_equivalents(q):
    'The four characterizations: powers, Boolean reticulation, Max = Spec, zero-dimensional frame.'
    r = reticulate(q)
    frame = q.radical_frame
    by_powers = bool(is_hyperarchimedean(q))
    reticulation_boolean = len(r.as_quantale.center) == len(r)
    max_is_spec = q.maximal_elements == q.spectrum
    legs = {
        'powers_reach_center': by_powers,
        'reticulation_boolean': reticulation_boolean,
        'maximals_exhaust_spectrum': max_is_spec,
    }
    if is_semiprime(q):
        center = frame.as_quantale.center
        # x is a join of complemented elements iff the complemented ones
        # below it already join to x
        legs['radical_frame_zero_dimensional'] = all(
            frame.lattice.join_all(
                e for e in center if frame.lattice.leq(e, x)) == x
            for x in range(len(frame.lattice)))
    else:
        legs['radical_frame_zero_dimensional'] = None
    return legs


def has_property_star(q):
    'Every element splits as c v e with c below the radical and e complemented.'
    if len(q) == 1:
        raise TrivialQuantale('one-point carrier')
    r = jacobson_radical(q)
    small = [c for c in range(len(q)) if q.leq(c, r)]
    center = q.center
    for a in range(len(q)):
        if not any(q.join(c, e) == a for c in small for e in center):
            return Verdict(False, q.label(a))
    return Verdict(True)


def is_local(q):
    'Exactly one maximal element.'
    return len(q.maximal_elements) == 1


def is_semilocal(q):
    'Finitely many maximal elements; a finite carrier always qualifies.'
    return True


@dataclass(frozen=True)
class Decomposition:
    'Product decomposition data: central idempotent anchors and local factors.'

    idempotents: tuple
    factors: tuple
    morphism: QuantaleMorphism


def local_decomposition(q):
    'Split into local interval factors along lifted central elements, or say why not.'
    if len(q) == 1:
        raise TrivialQuantale('one-point carrier')
    r = jacobson_radical(q)
    radical_lp = element_has_lp(q, r)
    if not radical_lp:
        return Verdict(False, ('radical-without-lp', q.label(r), radical_lp.witness))
    # [r) is the product of the intervals over the maximal elements, and the
    # element of [r) that is m in the slot of m and 1 in every other slot is
    # m itself, since distinct maximal elements join to 1
    anchors = []
    for m in q.maximal_elements:
        lifted = next((e for e in q.center if q.join(e, r) == m), None)
        if lifted is None:
            return Verdict(False, ('unliftable-idempotent', q.label(m)))
        anchors.append(lifted)
    if q.meet_all(anchors) != q.bottom:
        return Verdict(False, ('anchors-do-not-meet-to-bottom',
                               tuple(q.label(e) for e in anchors)))
    morphism = decompose_by_elements(q, anchors)
    factors = tuple(_interval_at(q, e) for e in anchors)
    for factor in factors:
        if not is_local(factor):
            return Verdict(False, ('factor-not-local', factor.label(factor.bottom)))
    return Decomposition(tuple(anchors), factors, morphism)


@dataclass(frozen=True)
class PropertyReport:
    'Named verdicts with witnesses and, when available, the local decomposition.'

    verdicts: dict
    witnesses: dict
    decomposition: object = None
    trivial: bool = False
    max_count: int = 0
    jacobson: object = None

    @classmethod
    def analyze(cls, q):
        if len(q) == 1:
            return cls(verdicts={}, witnesses={}, trivial=True)
        named = {
            'lp': has_lp(q),
            'normal': is_normal(q),
            'b_normal': is_b_normal(q),
            'hyperarchimedean': is_hyperarchimedean(q),
            'property_star': has_property_star(q),
        }
        verdicts = {name: bool(v) for name, v in named.items()}
        verdicts['semiprime'] = is_semiprime(q)
        verdicts['local'] = is_local(q)
        verdicts['semilocal'] = is_semilocal(q)
        witnesses = {name: v.witness for name, v in named.items() if not v}
        decomposition = local_decomposition(q)
        if isinstance(decomposition, Verdict):
            witnesses['decomposition'] = decomposition.witness
            decomposition = None
        return cls(
            verdicts=verdicts,
            witnesses=witnesses,
            decomposition=decomposition,
            max_count=len(q.maximal_elements),
            jacobson=q.label(jacobson_radical(q)))
