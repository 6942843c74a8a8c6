"""Differential tests: the whole-table kernels against the reference loops.

Every case must give the same tables or verdict as the loop the kernel
replaced, or raise the same exception class with the same message and
witness.  Three case families drive the construction kernels: random
relations on at most seven points, random and perturbed tables over the
small enumerated lattices and the fixtures, and monotone commutative
tables on chains, the family that reaches the associativity check most
often.  The normality verdicts are also driven by arbitrary tables, since
they read nothing but which joins are top and which products are bottom.
"""

import copy
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_loops as ref
from quantales import io, suite
from quantales.lattices import (
    FiniteLattice, FinitePoset, LatticeError, LatticeMorphism, blocks,
    is_distributive)
from quantales.properties import is_b_normal, is_normal
from quantales.quantale import (
    Quantale, QuantaleError, QuantaleMorphism, interval_quantale)
from quantales.reticulation import Reticulation

CASES = settings(max_examples=150, deadline=None)


def outcome(fn, *args):
    'What a call returns, or the class, message and witness of what it raises.'
    try:
        return 'returned', fn(*args)
    except (LatticeError, QuantaleError) as exc:
        return 'raised', type(exc), str(exc), getattr(exc, 'witness', None)


def labels(n):
    return ['x%d' % i for i in range(n)]


def permuted(lattice, mul, perm):
    'The same structure with new index k standing for old index perm[k].'
    perm = np.asarray(perm)
    inverse = np.argsort(perm)
    leq = lattice.poset.leq[np.ix_(perm, perm)]
    poset = FinitePoset([lattice.label(i) for i in perm], leq)
    return FiniteLattice(poset), inverse[np.asarray(mul)[np.ix_(perm, perm)]]


# ---------------------------------------------------------------------------
# lattices built from random relations

def _poset_outcome(poset_labels, leq):
    'FinitePoset outcome, reduced to comparable values.'
    result = outcome(FinitePoset, poset_labels, leq)
    if result[0] == 'returned':
        return 'returned', result[1].leq.tolist()
    return result


def _reference_poset_outcome(poset_labels, leq):
    result = outcome(ref.poset_checks, poset_labels, leq)
    if result[0] == 'returned':
        return 'returned', leq.tolist()
    return result


def _lattice_outcome(poset):
    result = outcome(FiniteLattice, poset)
    if result[0] == 'returned':
        lat = result[1]
        return 'returned', (lat.join_table.tolist(), lat.meet_table.tolist(),
                            lat.bottom, lat.top)
    return result


def _reference_lattice_outcome(poset):
    result = outcome(ref.lattice_tables, poset)
    if result[0] == 'returned':
        join, meet, bottom, top = result[1]
        return 'returned', (join.tolist(), meet.tolist(), bottom, top)
    return result


@st.composite
def relations(draw):
    'A random relation, or one forced reflexive, or a (bounded) order in random index order.'
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(['raw', 'reflexive', 'order', 'bounded']))
    bits = draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))
    leq = np.array(bits, dtype=bool).reshape(n, n)
    if kind == 'raw':
        return leq
    np.fill_diagonal(leq, True)
    if kind == 'reflexive':
        return leq
    leq &= np.arange(n)[:, None] <= np.arange(n)
    if kind == 'bounded':
        leq[0] = True
        leq[:, n - 1] = True
    for k in range(n):
        leq |= np.outer(leq[:, k], leq[k])
    perm = np.array(draw(st.permutations(range(n))))
    return leq[np.ix_(perm, perm)]


@CASES
@given(relations())
def test_posets_lattices_covers_and_distributivity_match_the_loops(leq):
    names = labels(len(leq))
    assert _poset_outcome(names, leq) == _reference_poset_outcome(names, leq)
    try:
        poset = FinitePoset(names, leq)
    except LatticeError:
        return
    assert poset.covers == ref.covers(poset)
    assert _lattice_outcome(poset) == _reference_lattice_outcome(poset)
    try:
        lat = FiniteLattice(poset)
    except LatticeError:
        return
    ours, theirs = is_distributive(lat), ref.is_distributive(lat)
    assert (ours.holds, ours.witness) == (theirs.holds, theirs.witness)


# ---------------------------------------------------------------------------
# quantale tables over the enumerated lattices and the fixtures

def _lattice_pool():
    pool = [lat for n in range(1, 6) for lat in suite.enumerate_lattices(n)]
    pool += [member.quantale.lattice for member in suite.fixtures()]
    return pool


def _quantale_pool():
    return list(suite.enumerate_quantales(5)) + [m.quantale for m in suite.fixtures()]


LATTICES = _lattice_pool()
QUANTALES = _quantale_pool()


def checked(fn, *args):
    'Outcome of a call that validates, with a returned value reduced to the fact of returning.'
    result = outcome(fn, *args)
    return result if result[0] == 'raised' else ('returned',)


def _compare_derived(q):
    'Spectrum, maximal elements, center, stable powers and the reticulation check.'
    assert q.maximal_elements == ref.maximal_candidates(q)
    assert q.spectrum == ref.spectrum(q)
    assert q.center == ref.center(q)
    assert q.stable_powers.tolist() == [ref.stable_power(q, a) for a in range(len(q))]
    ret = Reticulation(q)
    assert outcome(ref.reticulation_verify, ret) == ('returned', None)
    return ret


@st.composite
def tables(draw):
    'A lattice with a random table, or with a valid table perturbed in a few entries.'
    kind = draw(st.sampled_from(['random', 'symmetric', 'perturbed', 'perturbed']))
    if kind == 'perturbed':
        q = draw(st.sampled_from(QUANTALES))
        lattice, mul = q.lattice, q.mul_table.copy()
        n = len(q)
        for _ in range(draw(st.integers(0, 3))):
            i, j, v = (draw(st.integers(0, n - 1)) for _ in range(3))
            mul[i, j] = v
            if draw(st.booleans()):
                mul[j, i] = v
    else:
        lattice = draw(st.sampled_from(LATTICES))
        n = len(lattice)
        mul = np.array(draw(st.lists(
            st.integers(0, n - 1), min_size=n * n, max_size=n * n))).reshape(n, n)
        if kind == 'symmetric':
            mul = np.triu(mul) + np.triu(mul, 1).T
            mul[lattice.top] = mul[:, lattice.top] = np.arange(n)
    if draw(st.booleans()):
        lattice, mul = permuted(lattice, mul, draw(st.permutations(range(n))))
    return lattice, mul


@CASES
@given(tables())
def test_validation_matches_the_loops_on_random_and_perturbed_tables(case):
    lattice, mul = case
    ours = checked(Quantale, lattice, mul)
    assert ours == checked(ref.validate, lattice, mul)
    if ours == ('returned',):
        _compare_derived(Quantale(lattice, mul))


@st.composite
def reticulation_maps(draw):
    'A reticulation whose class map is redrawn in a few places.'
    q = draw(st.sampled_from(QUANTALES))
    ret = copy.copy(Reticulation(q))
    lam = list(ret.lam)
    for _ in range(draw(st.integers(1, 3))):
        lam[draw(st.integers(0, len(q) - 1))] = draw(st.integers(0, len(ret) - 1))
    ret.lam = tuple(lam)
    return ret


@CASES
@given(reticulation_maps())
def test_reticulation_check_matches_the_loop_on_perturbed_class_maps(ret):
    assert outcome(ret._verify) == outcome(ref.reticulation_verify, ret)


@st.composite
def morphism_cases(draw):
    'A source, a target and a mapping: an interval surjection, perturbed or not, or a random map.'
    q = draw(st.sampled_from(QUANTALES))
    part, u = interval_quantale(q, draw(st.integers(0, len(q) - 1)))
    if draw(st.booleans()):
        target = part
        mapping = list(u.mapping)
        for _ in range(draw(st.integers(0, 2))):
            mapping[draw(st.integers(0, len(q) - 1))] = draw(st.integers(0, len(part) - 1))
    else:
        target = draw(st.sampled_from(QUANTALES))
        mapping = draw(st.lists(st.integers(0, len(target) - 1),
                                min_size=len(q), max_size=len(q)))
    return q, target, tuple(mapping)


@CASES
@given(morphism_cases(), st.booleans())
def test_morphism_validation_matches_the_loops(case, unital):
    source, target, mapping = case
    assert checked(QuantaleMorphism, source, target, mapping, unital) == checked(
        ref.quantale_morphism_checks, source, target, mapping, unital)
    assert checked(LatticeMorphism, source.lattice, target.lattice, mapping) == checked(
        ref.lattice_morphism_checks, source.lattice, target.lattice, mapping)


# ---------------------------------------------------------------------------
# monotone commutative tables on chains

def _chain(n):
    return FiniteLattice(FinitePoset(labels(n), np.arange(n)[:, None] <= np.arange(n)))


@st.composite
def chain_tables(draw):
    """A chain with a commutative, unital table below meet and monotone in each
    argument, so distributivity holds and associativity decides; sometimes
    one entry is then redrawn, and the index order is shuffled."""
    n = draw(st.integers(2, 12))
    top = n - 1
    mul = np.zeros((n, n), dtype=np.intp)
    for i in range(top):
        for j in range(i, top):
            low = max(mul[i - 1, j] if i else 0, mul[i, j - 1] if j > i else 0)
            mul[i, j] = mul[j, i] = draw(st.integers(low, i))
    mul[top] = mul[:, top] = np.arange(n)
    if draw(st.integers(0, 3)) == 0:
        i, j, v = (draw(st.integers(0, top)) for _ in range(3))
        mul[i, j] = v
    return permuted(_chain(n), mul, draw(st.permutations(range(n))))


# (x2*x4)*x3 = x0 but x2*(x4*x3) = x1, while every sorted triple x <= y <= z
# has (x*y)*z = x*(y*z): the associativity scan over sorted triples accepts it
SORTED_SCAN_MISSES = (_chain(6), np.array([
    [0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 1], [0, 0, 0, 1, 1, 2],
    [0, 0, 1, 1, 3, 3], [0, 1, 1, 3, 4, 4], [0, 1, 2, 3, 4, 5]]))


@settings(max_examples=300, deadline=None)
@given(chain_tables())
@example(SORTED_SCAN_MISSES)
def test_validation_and_derived_tables_match_the_loops_on_chains(case):
    lattice, mul = case
    ours = checked(Quantale, lattice, mul)
    assert ours == checked(ref.validate, lattice, mul)
    if ours == ('returned',):
        _compare_derived(Quantale(lattice, mul))


# ---------------------------------------------------------------------------
# kernels at sizes the random families do not reach

@pytest.mark.parametrize('n, width', [(0, 1), (1, 1), (6, 6), (64, 64), (128, 128), (200, 200),
                                      (5, 1 << 16)])
def test_blocks_cover_the_grid_in_row_major_order_within_the_entry_bound(n, width):
    cells = [(i, j) for rows, cols in blocks(n, width)
             for i in range(n)[rows] for j in range(n)[cols]]
    assert cells == [(i, j) for i in range(n) for j in range(n)]
    for rows, cols in blocks(n, width):
        size = len(range(n)[rows]) * len(range(n)[cols])
        assert size * width <= 1 << 13 or size == 1


@pytest.mark.parametrize('spec', ['chain:40,frame', 'boolean:5', 'zn:720'])
def test_kernels_match_the_loops_on_larger_instances(spec):
    q = io.generate(spec)
    lattice = q.lattice
    assert _lattice_outcome(lattice.poset) == _reference_lattice_outcome(lattice.poset)
    assert lattice.poset.covers == ref.covers(lattice.poset)
    ret = _compare_derived(q)
    assert ret.classes == Reticulation(q).classes
    mul = q.mul_table.copy()
    last = len(q) - 2
    mul[last, last] = mul[last - 1, last - 1]
    assert checked(Quantale, lattice, mul) == checked(ref.validate, lattice, mul)


# ---------------------------------------------------------------------------
# normality verdicts

def _normality_outcomes(q):
    return [(bool(v), v.witness) for v in (is_normal(q), is_b_normal(q))]


def _reference_normality_outcomes(q):
    return [(bool(v), v.witness) for v in (ref.is_normal(q), ref.is_b_normal(q))]


class _Tables:
    'Just what the normality checks read, from arbitrary tables and pool.'

    def __init__(self, join, mul, center):
        n = len(join)
        self.lattice = SimpleNamespace(join_table=join)
        self.mul_table = mul
        self.center = center
        self.bottom, self.top = 0, n - 1
        self._n = n

    def __len__(self):
        return self._n

    def join(self, i, j):
        return int(self.lattice.join_table[i, j])

    def mul(self, i, j):
        return int(self.mul_table[i, j])

    def label(self, i):
        return 'x%d' % i


@st.composite
def normality_tables(draw):
    'Join and multiplication tables on at most seven points, top and bottom weighted.'
    n = draw(st.integers(1, 7))
    entry = st.one_of(st.just(0), st.just(n - 1), st.integers(0, n - 1))
    join, mul = (np.array(draw(st.lists(entry, min_size=n * n, max_size=n * n)))
                 .reshape(n, n) for _ in range(2))
    center = tuple(sorted(draw(st.sets(st.integers(0, n - 1)))))
    return _Tables(join, mul, center)


@CASES
@given(normality_tables())
def test_normality_verdicts_match_the_loops_on_arbitrary_tables(q):
    assert _normality_outcomes(q) == _reference_normality_outcomes(q)


@CASES
@given(st.sampled_from(QUANTALES), st.data())
def test_normality_verdicts_match_the_loops_on_quantales(q, data):
    lattice, mul = permuted(q.lattice, q.mul_table, data.draw(st.permutations(range(len(q)))))
    q = Quantale(lattice, mul)
    assert _normality_outcomes(q) == _reference_normality_outcomes(q)
