"""Differential tests: the whole-table kernels against the reference loops.

Every case must give the same tables or verdict as the loop the kernel
replaced, or raise the same exception class with the same message and
witness.  Three case families drive the construction kernels: random
relations on at most seven points, random and perturbed tables over the
small enumerated lattices and the fixtures, and monotone commutative
tables on chains, the family that reaches the associativity check most
often.  Validation over join-irreducibles is driven by commutative unital
tables with x*0 = 0 on lattices that are not chains (random, below the meet,
the meet, quantales, perturbed quantales, and tables extended by joins from
the join-irreducibles, where associativity decides), and the predicate it
rests on must hold exactly when both laws hold on every triple; lattice
distributivity is compared on every enumerated lattice of at most seven
points.  The normality verdicts are also driven by arbitrary tables, since
they read nothing but which joins are top and which products are bottom.
The lifting verdicts, for the whole quantale and for each anchor, are
driven by the pool, permuted copies of it and products without lifting.
The derived structures (intervals, products, decompositions, radical
frames) and the maps on reticulation classes are driven by the same pools
with perturbed multiplication tables, radical tables and class maps, so
that every raise is reached.  Ideals of a finite lattice are read as their
generators through the meet-quantale; the ideal loops they replaced are
driven by the distributive lattices up to six elements and the
reticulations of the corpus, and the ideal criterion by random subsets.
The star and unstar tables must hold the loops' generator at every element
of every member of the fixtures and enumerated(6) and of its radical frame,
and on copies whose class map, order or source order is redrawn they must
return or raise what the per-element path does, message included.
The isomorphism search must find an isomorphism exactly when the n!
canonical forms it replaced agree, on relabelled enumerated quantales and
on relabelled lattices of at most five points, and enumeration must
return what the canonical-form loops returned, table for table, and, up to
seven points, what a Quantale per filled table returned.  The laws over a
stack of tables must give each table's verdict alone and over every triple,
on the candidate stack of every lattice of at most seven points, on drawn
stacks mixing the table cases above, and on stacks whose blocks split; the
stacked constructor checks must refuse each planted table, and only those,
as the constructor does, and the stacked profiles must be the per-element
counts.  A decomposition's precondition must name the first pair the loop
names, over every pair, triple and small quadruple of fixture anchors.  The
backtracking fill must keep, in order, the tables the cartesian loop kept
on every relabelled lattice of at most five points and fixture lattice of
at most six, and the walk over bounded orders must give the lattices the
scan over every relation mask gave.  The join and meet tables read off
bit-packed up-sets must agree with the least-bounds search, table and
no-bound mask, on the random orders and on orders of 63 to 129 points
(chains, Boolean and divisor lattices, non-lattices, random bounded orders,
each also with shuffled indices) whose rows fill one word, cross into a
second or a third; a product's join and meet tables, read off its factors,
must be the least bounds of its order.  On the same orders, shuffled, the
kernels over the order packed 64 to a word must agree with the loops: the
transitivity check (also on each order with one implied pair removed), the
covers and the join-irreducibles, and the join-prime verdict on the lattices
among them and on chains with an M3 or an N5 spliced in; the m-primes must
agree on quantales of 63 to 129 elements, and an interval's join, meet and
bounds, restricted from its parent, must be those its own order gives.
Property (*) must give the witness of the element loop.  Reading an instance document must give what the
per-triple loop gave, the error's class, message and location included, on
fuzzed documents whose product lists repeat entries with other products,
swap x and y, follow a conflict with a non-list entry or hold list
subclasses, and on larger emitted documents broken late in the list.
Element reads (one ndarray.item each) must give, value and type, what
int(table[i, j]) gave, on the pool and on copies whose tables are redrawn
after the first reads, and take indices as those reads took them; the
orders of intervals, products, radical frames, reticulations and exported
spectra, built without the partial-order checks, must be the posets the
checked constructor builds; and the emitted document must be, byte for
byte, json.dumps of the document as lists, for drawn, odd and non-string
labels.  The law suite's table laws (center-laws, radical-laws,
class-map-laws, coprime-products and interval-radical-commutes) must give
the REFUTED or PASS text of their element loops on the fixtures, on every
instance up to six elements, on copies whose meet and multiplication tables
are redrawn, and on copies whose radicals, stable powers or reticulation are
redrawn.
"""

import copy
import gc
import json
import re
import weakref
from unittest import mock
from itertools import permutations, product as cartesian
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_loops as ref
from test_fuzz import documents, junk
from quantales import io, suite
from quantales.lattices import (
    FiniteLattice, FinitePoset, LatticeError, LatticeMorphism, NotALattice,
    NotAnIdeal, NotAPoset, _joins_and_meets, blocks, first_law_failure,
    irreducibles_join_prime, is_distributive, stack_blocks)
from quantales.oracles import axiom_failure, has_id_blp, has_lp_per_anchor, lattice_is_id_local
from quantales.properties import (
    _stranded, element_has_lp, has_lp, has_property_star, is_b_normal, is_hyperarchimedean,
    is_normal)
from quantales.lattices import build_lattice
from quantales.quantale import (
    AxiomError, NotAssociative, NotCommutative, NotDistributive, NotUnital, Quantale,
    QuantaleError, QuantaleMorphism, RadicalFrame, _CoordinateMorphism, _admitted,
    _isomorphism, _laws_hold_on_irreducibles, _product, _profile, _quantales_on,
    decompose_by_elements, find_quantale_isomorphism, interval_quantale, kernel, negation,
    product, residuum)
from quantales.reticulation import (
    Reticulation, _fold, _generator, _induced, _star, _star_at, _star_table, _unstar_at,
    _unstar_table, check_unicity, lift_morphism, reticulate, star, unstar)

CASES = settings(max_examples=150, deadline=None)


def outcome(fn, *args):
    'What a call returns, or the class, message and witness of what it raises.'
    try:
        return 'returned', fn(*args)
    except (LatticeError, QuantaleError) as exc:
        return 'raised', type(exc), str(exc), getattr(exc, 'witness', None)


def _mapping_outcome(fn, *args):
    'Outcome of a call returning a morphism, reduced to its mapping.'
    result = outcome(fn, *args)
    return result if result[0] == 'raised' else ('returned', result[1].mapping)


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
# join and meet tables from bit-packed up-sets, against the least-bounds search

def _bounds_outcome(join, meet, no_join, no_meet):
    """The no-join and no-meet masks and the tables off them; FiniteLattice refuses
    an order with any masked pair, so an entry under a mask is never read."""
    return (no_join.tolist(), no_meet.tolist(),
            np.where(no_join, -1, join).tolist(), np.where(no_meet, -1, meet).tolist())


def _bounds_match_the_search(leq):
    (join, meet), (no_join, no_meet) = _joins_and_meets(leq)
    ref_join, ref_no_join = ref.least_bounds(leq)
    ref_meet, ref_no_meet = ref.least_bounds(np.ascontiguousarray(leq.T))
    assert _bounds_outcome(join, meet, no_join, no_meet) == (
        _bounds_outcome(ref_join, ref_meet, ref_no_join, ref_no_meet))
    poset = FinitePoset(labels(len(leq)), leq)
    hit = first_law_failure((ref_no_join, ref_no_meet))
    if hit is None:
        expected = 'returned', (ref_join.tolist(), ref_meet.tolist())
    else:
        i, j, law = hit
        expected = 'raised', NotALattice, 'no %s for %r and %r' % (
            ('join', 'meet')[law], poset.elements[i], poset.elements[j]), None
    got = outcome(FiniteLattice, poset)
    if got[0] == 'returned':
        got = 'returned', (got[1].join_table.tolist(), got[1].meet_table.tolist())
    assert got == expected


@CASES
@given(relations())
def test_least_bounds_match_the_search_on_random_orders(leq):
    try:
        FinitePoset(labels(len(leq)), leq)
    except LatticeError:
        return
    _bounds_match_the_search(leq)


def _closed(leq):
    'Reflexive and transitive closure of a relation.'
    leq = leq | np.eye(len(leq), dtype=bool)
    for k in range(len(leq)):
        leq |= np.outer(leq[:, k], leq[k])
    return leq


def _divisor_order(exponents):
    'Divisibility on the divisors of 2**e1 * 3**e2 * ..., as exponent tuples.'
    grid = np.indices([e + 1 for e in exponents]).reshape(len(exponents), -1).T
    return (grid[:, None, :] <= grid[None, :, :]).all(axis=2)


def _two_tops(n):
    'A chain of n - 2 points below two incomparable points: no join of those two.'
    leq = np.arange(n)[:, None] <= np.arange(n)
    leq[n - 2, n - 1] = False
    return leq


def _random_bounded(n, seed):
    'A random order with a bottom (index 0) and a top (index n - 1), mostly not a lattice.'
    rng = np.random.default_rng(seed)
    leq = np.triu(rng.random((n, n)) < 3 / n)
    leq[0] = leq[:, n - 1] = True
    return _closed(leq)


# sizes on both sides of one and two words of 64 bits
WORD_EDGE_ORDERS = [
    ('chain', np.arange(n)[:, None] <= np.arange(n)) for n in (63, 64, 65, 127, 128, 129)] + [
    ('boolean:7', _divisor_order([1] * 7)),
    ('divisors of 2**6 3**2 5**2', _divisor_order([6, 2, 2])),
    ('divisors of 30030', _divisor_order([1] * 6)),
    ('divisors of 2**4 3**12', _divisor_order([4, 12])),
    ('divisors of 2**2 3**42', _divisor_order([2, 42]))] + [
    ('two tops', _two_tops(n)) for n in (63, 64, 65, 127, 128, 129)] + [
    ('random bounded', _random_bounded(n, n)) for n in (63, 64, 65, 127, 128, 129)]


@pytest.mark.parametrize('name, leq', WORD_EDGE_ORDERS,
                         ids=['%s-%d' % (name, len(leq)) for name, leq in WORD_EDGE_ORDERS])
def test_least_bounds_match_the_search_across_word_boundaries(name, leq):
    _bounds_match_the_search(leq)
    perm = np.random.default_rng(len(leq)).permutation(len(leq))
    _bounds_match_the_search(leq[np.ix_(perm, perm)])


# ---------------------------------------------------------------------------
# the order packed 64 to a word: transitivity, covers, join-irreducibles,
# join-primality and m-primes against the loops, at sizes on both sides of one
# and two words, with shuffled indices so that no word holds an interval of
# the order

def _shuffled(leq, seed):
    perm = np.random.default_rng(seed).permutation(len(leq))
    return leq[np.ix_(perm, perm)]


def _one_gap(leq):
    'leq without its last strict pair in row-major order that is not a cover.'
    poset = FinitePoset(labels(len(leq)), leq)
    strict = leq & ~np.eye(len(leq), dtype=bool)
    strict[tuple(np.array(poset.covers).T)] = False
    x, y = (int(v[-1]) for v in strict.nonzero())
    gap = leq.copy()
    gap[x, y] = False
    return gap


@pytest.mark.parametrize('name, leq', WORD_EDGE_ORDERS,
                         ids=['%s-%d' % (name, len(leq)) for name, leq in WORD_EDGE_ORDERS])
def test_packed_order_kernels_match_the_loops_across_word_boundaries(name, leq):
    leq = _shuffled(leq, len(leq))
    names = labels(len(leq))
    assert _poset_outcome(names, leq) == _reference_poset_outcome(names, leq)
    # one pair short of transitive: the check must name that pair
    gap = _one_gap(leq)
    assert _poset_outcome(names, gap)[0] == 'raised'
    assert _poset_outcome(names, gap) == _reference_poset_outcome(names, gap)
    covers = ref.covers(FinitePoset(names, leq))
    lower = np.bincount([y for _, y in covers], minlength=len(leq))
    # the checked constructor finds the covers with the transitivity check,
    # an unchecked order on first use
    for poset in (FinitePoset(names, leq), FinitePoset._from_order(names, leq.copy())):
        assert poset.covers == covers
        assert poset.join_irreducibles.tolist() == (lower == 1).nonzero()[0].tolist()


def _built(build, elements, pairs):
    'A lattice built from label pairs, reduced to comparable values, or the class and message raised.'
    try:
        lat = build(elements, pairs() if callable(pairs) else pairs)
    except (LatticeError, TypeError, ValueError) as exc:
        return 'raised', type(exc), str(exc)
    return ('returned', lat.elements, lat.poset.leq.tolist(), lat.poset.covers,
            lat.join_table.tolist(), lat.meet_table.tolist(), lat.bottom, lat.top)


def _label_pairs(leq, seed):
    """Every pair of leq, and only its covers, as label pairs of a shuffled
    copy, each list in shuffled order."""
    leq = _shuffled(leq, seed)
    names = labels(len(leq))
    rng = np.random.default_rng(seed)
    every = [(names[x], names[y]) for x, y in zip(*leq.nonzero())]
    covers = [(names[x], names[y]) for x, y in ref.covers(FinitePoset(names, leq))]
    return names, [every[k] for k in rng.permutation(len(every))], [
        covers[k] for k in rng.permutation(len(covers))]


# a pair list is given as a function when reading it once would use it up
BUILD_CASES = [
    ('undeclared label', 'abc', [('a', 'b'), ('b', 'z')]),
    ('undeclared before a short pair', 'abc', [('a', 'z'), ('b',)]),
    ('short pair', 'abc', [('a', 'b'), ('b',)]),
    ('long pair', 'abc', [('a', 'b', 'c')]),
    ('long pair before an undeclared one', 'abc', [('a', 'b', 'c'), ('a', 'z')]),
    ('long and short pair', 'abc', [('a', 'b', 'c'), ('c',)]),
    ('unhashable label after an undeclared one', 'abc', [('z', 'a'), (['a'], 'b')]),
    ('unhashable label', 'abc', [(['a'], 'b')]),
    ('a number for a pair', 'abc', [('a', 'b'), 5]),
    ('a number for the pairs', 'abc', 5),
    ('duplicate labels', 'aab', [('a', 'b')]),
    ('no elements', '', []),
    ('pairs as strings', 'abc', ['ab', 'bc']),
    ('pairs read once', 'abc', lambda: [iter('ab'), iter('bc')]),
    ('pairs from a generator', 'abc', lambda: ((a, b) for a, b in ['ab', 'bc'])),
    # before closure only y and z are related both ways; after it all four are
    ('three-cycle', 'wxyz', [('y', 'z'), ('z', 'y'), ('w', 'x'), ('x', 'y'), ('y', 'w')]),
    ('three-cycle alone', 'abcd', [('a', 'b'), ('b', 'c'), ('c', 'a'), ('c', 'd')]),
    ('two-cycle in a transitive relation', 'ab', [('a', 'b'), ('b', 'a')]),
    ('no join', 'abcd', [('a', 'b'), ('a', 'c'), ('b', 'd')]),
    # the bottom below every element, so the pass runs and finds b <= d missing
    ('a bottom and covers above it', 'abcd', [('a', 'b'), ('a', 'c'), ('a', 'd'), ('b', 'c'),
                                              ('c', 'd')]),
] + [case for name, leq in WORD_EDGE_ORDERS for names, every, covers in [
    _label_pairs(leq, len(leq))] for case in (
        ('%s-%d, every pair' % (name, len(leq)), names, every),
        ('%s-%d, covers only' % (name, len(leq)), names, covers))]


@pytest.mark.parametrize('name, elements, pairs', BUILD_CASES,
                         ids=[case[0] for case in BUILD_CASES])
def test_lattices_from_label_pairs_match_the_loop_that_always_closes(name, elements, pairs):
    ours = _built(build_lattice, elements, pairs)
    assert ours == _built(ref.build_lattice, elements, pairs)
    if name.startswith('three-cycle'):
        assert ours[:2] == ('raised', NotAPoset) and 'not antisymmetric' in ours[2]


def _spliced(n, top_covers):
    """A chain of n points in which three consecutive points are made pairwise
    incomparable: the next point covers all three (M3), or only the first two
    while the third lies below the point after (N5).  Either way a lattice
    that is not distributive."""
    leq = np.arange(n)[:, None] <= np.arange(n)
    k = n // 2
    for i in range(k, k + 3):
        for j in range(k, k + 3):
            leq[i, j] = i == j
    if not top_covers:
        # k + 2 now lies below k + 3 only through k + 4
        leq[k + 2, k + 3] = False
    return leq


# the lattices among the orders above, and two families that are not distributive
JOIN_PRIME_ORDERS = [(name, leq) for name, leq in WORD_EDGE_ORDERS
                     if name not in ('two tops', 'random bounded')] + [
    ('M3 in a chain', _spliced(n, True)) for n in (63, 64, 65, 127, 128, 129)] + [
    ('N5 in a chain', _spliced(n, False)) for n in (63, 64, 65, 127, 128, 129)]


@pytest.mark.parametrize('name, leq', JOIN_PRIME_ORDERS,
                         ids=['%s-%d' % (name, len(leq)) for name, leq in JOIN_PRIME_ORDERS])
def test_join_prime_verdict_matches_the_loop_across_word_boundaries(name, leq):
    lat = FiniteLattice(FinitePoset(labels(len(leq)), _shuffled(leq, len(leq))))
    verdict = irreducibles_join_prime(lat)
    assert verdict == ref.irreducibles_join_prime(lat)
    assert verdict == (not name.endswith('in a chain'))
    if len(lat) <= 65:
        assert verdict == ref.is_distributive(lat).holds


def _lukasiewicz(n):
    'The n-chain with x*y = max(0, x + y - (n - 1)): one m-prime, its coatom.'
    ar = np.arange(n)
    lattice = FiniteLattice(FinitePoset(labels(n), ar[:, None] <= ar))
    return Quantale(lattice, np.maximum(0, ar[:, None] + ar - (n - 1)))


SPECTRUM_QUANTALES = [('lukasiewicz', _lukasiewicz(n)) for n in (63, 64, 65, 127, 128, 129)] + [
    (spec, io.generate(spec)) for spec in (
        'product:chain:21,frame;chain:3,frame', 'boolean:6', 'zn:30030',
        'product:chain:13,frame;chain:5,frame', 'boolean:7', 'zn:510510',
        'product:chain:43,frame;chain:3,frame')]


@pytest.mark.parametrize('name, q', SPECTRUM_QUANTALES,
                         ids=['%s-%d' % (name, len(q)) for name, q in SPECTRUM_QUANTALES])
def test_m_primes_match_the_loop_across_word_boundaries(name, q):
    perm = np.random.default_rng(len(q)).permutation(len(q))
    lattice, mul = permuted(q.lattice, q.mul_table, perm)
    shuffled = Quantale(lattice, mul)
    assert shuffled.spectrum == ref.spectrum(shuffled)
    assert len(q.spectrum) == len(shuffled.spectrum)


CENTER_QUANTALES = SPECTRUM_QUANTALES + [(spec, io.generate(spec)) for spec in (
    'zn:55440', 'product:zn:12;boolean:4', 'product:zn:8;chain:16,frame', 'zn:720720')]


@pytest.mark.parametrize('name, q', CENTER_QUANTALES,
                         ids=['%s-%d' % (name, len(q)) for name, q in CENTER_QUANTALES])
def test_center_matches_the_loop_across_word_boundaries(name, q):
    perm = np.random.default_rng(len(q)).permutation(len(q))
    shuffled = Quantale(*permuted(q.lattice, q.mul_table, perm))
    assert shuffled.center == ref.center(shuffled)
    assert len(shuffled.center) == len(q.center)


def test_center_of_a_shuffled_boolean_algebra_at_the_input_bound():
    'boolean:10 shuffled: 1,024 elements, 10 maximal ones, and every element complemented.'
    q = io.generate('boolean:10')
    n = len(q)
    perm = np.random.default_rng(n).permutation(n)
    shuffled = Quantale(*permuted(q.lattice, q.mul_table, perm))
    assert len(shuffled.maximal_elements) == 10
    assert shuffled.center == tuple(range(n))


def test_center_refuses_a_complement_no_negation_confirms():
    'On a three-chain whose join is redrawn so that 1 v 0 = 2, 0 complements 1, yet 1 -> 0 = 0.'
    broken = copy.copy(io.generate('chain:3,frame'))
    join = broken.join_table.copy()
    join[0, 1] = join[1, 0] = 2
    broken.join_table = join
    with pytest.raises(QuantaleError, match=r"^complements and negations disagree at '1'$"):
        broken.center


def test_center_leaves_the_order_of_intervals_and_products_unpacked():
    'Intervals and products take their order from their source, and center reads it unpacked.'
    q = io.generate('zn:72')
    for part in (interval_quantale(q, 1)[0], product([q, io.generate('chain:3,frame')])[0]):
        assert '_order_words' not in vars(part.poset)
        assert part.center == ref.center(part)
        assert '_order_words' not in vars(part.poset)


def test_intervals_restrict_the_tables_their_own_order_gives():
    'Join, meet and bounds of every fixture interval, against those its order gives.'
    for member in suite.fixtures():
        q = member.quantale
        for a in range(len(q)):
            part = interval_quantale(q, a)[0]
            own = FiniteLattice(FinitePoset._from_order(
                part.elements, part.lattice.poset.leq.copy()))
            assert (part.join_table.tolist(), part.meet_table.tolist(), part.bottom, part.top) == (
                own.join_table.tolist(), own.meet_table.tolist(), own.bottom, own.top)


# ---------------------------------------------------------------------------
# quantale tables over the enumerated lattices and the fixtures

def _lattice_pool():
    pool = [lat for n in range(1, 6) for lat in suite.enumerate_lattices(n)]
    pool += [member.quantale.lattice for member in suite.fixtures()]
    return pool


ENUMERATED = suite.enumerate_quantales(5)
LATTICES = _lattice_pool()
QUANTALES = list(ENUMERATED) + [m.quantale for m in suite.fixtures()]


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


def test_class_map_that_moves_the_bottoms_class_is_refused():
    # in zn:4 the zero ideal shares its class with (2); sending it to the
    # class of the whole ring keeps the map onto but moves the bottom
    q = io.generate('zn:4')
    ret = copy.copy(Reticulation(q))
    lam = list(ret.lam)
    lam[q.bottom] = ret.lam[q.top]
    ret.lam = tuple(lam)
    refused = ('raised', QuantaleError, 'bottom not preserved', None)
    assert outcome(ret._verify) == outcome(ref.reticulation_verify, ret) == refused


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
@given(morphism_cases())
def test_morphism_validation_matches_the_loops(case):
    source, target, mapping = case
    assert checked(QuantaleMorphism, source, target, mapping) == checked(
        ref.quantale_morphism_checks, source, target, mapping)
    assert checked(LatticeMorphism, source.lattice, target.lattice, mapping) == checked(
        ref.lattice_morphism_checks, source.lattice, target.lattice, mapping)


@CASES
@given(morphism_cases())
def test_bijectivity_is_injectivity_and_surjectivity(case):
    source, target, mapping = case
    # the rule only counts the image, so it is read on maps that fail validation too
    u = QuantaleMorphism.__new__(QuantaleMorphism)
    u.source, u.target, u.mapping = source, target, mapping
    injective = len(set(mapping)) == len(source)
    surjective = set(mapping) == set(range(len(target)))
    assert u.is_bijective() == (injective and surjective)


# ---------------------------------------------------------------------------
# the center laws, one mask per central element

CENTER_MEMBERS = list(suite.fixtures()) + list(suite.enumerated(5))


def _member_copy(member, **attributes):
    'The member with a shallow copy of its quantale, its center, radicals and powers read first and kept.'
    member.quantale.center, member.quantale.radical_table, member.quantale.stable_powers
    q = copy.copy(member.quantale)
    for name, value in attributes.items():
        setattr(q, name, value)
    return suite.CorpusMember(member.name, q)


def test_center_laws_match_the_loop_on_centers_that_gain_an_element():
    for member in CENTER_MEMBERS:
        q = member.quantale
        copies = [_member_copy(member, center=tuple(sorted(q.center + (x,))))
                  for x in range(len(q)) if x not in q.center]
        for case in [member] + copies:
            assert suite._check_center_laws(case) == ref.center_laws(case), case.name


@st.composite
def center_law_cases(draw):
    'A member whose meet and multiplication tables have one or two symmetric entries redrawn.'
    member = draw(st.sampled_from(CENTER_MEMBERS))
    n = len(member.quantale)
    tables = {name: getattr(member.quantale, name).copy() for name in ('meet_table', 'mul_table')}
    for _ in range(draw(st.integers(1, 2))):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        table = tables[draw(st.sampled_from(sorted(tables)))]
        table[x, y] = table[y, x] = draw(st.integers(0, n - 1))
    return _member_copy(member, **tables)


def _residuum_and_distributivity_fail_together():
    'B4 with mul[1, 3] and meet[2, 3] redrawn: both laws fail first at the same e and a.'
    member = next(m for m in CENTER_MEMBERS if m.name == 'B4')
    mul, meet = member.quantale.mul_table.copy(), member.quantale.meet_table.copy()
    mul[1, 3] = mul[3, 1] = 2
    meet[2, 3] = meet[3, 2] = 0
    return _member_copy(member, mul_table=mul, meet_table=meet)


@CASES
@given(center_law_cases())
@example(_residuum_and_distributivity_fail_together())
def test_center_laws_match_the_loop_on_redrawn_tables(member):
    assert suite._check_center_laws(member) == ref.center_laws(member)


# ---------------------------------------------------------------------------
# the table laws, masks over whole tables, against the loops they replaced

TABLE_LAW_LOOPS = {
    'coprime-products': ref.coprime_products,
    'radical-laws': ref.radical_laws,
    'class-map-laws': ref.class_map_laws,
    'center-laws': ref.center_laws,
    'interval-radical-commutes': ref.interval_radical_commutes,
}


def _powers_settle(q):
    'Whether each a, a*a, (a*a)*a, ... reaches a fixed point, within len(q) steps if it does.'
    ar = power = np.arange(len(q))
    for _ in range(len(q)):
        power = q.mul_table[power, ar]
    return bool((q.mul_table[power, ar] == power).all())


def _table_laws_match_their_loops(member):
    statuses = {}
    for name, loop in TABLE_LAW_LOOPS.items():
        # radical-laws follows the powers of each a, so on a redrawn table whose
        # powers cycle the mask and the loop would both run for ever
        if name == 'radical-laws' and not _powers_settle(member.quantale):
            continue
        ours = outcome(suite.CHECKS[name].run, member)
        assert ours == outcome(loop, member), (name, member.name)
        statuses[name] = ours[1][0] if ours[0] == 'returned' else ours[0]
    return statuses


@pytest.mark.parametrize('corpus', ['fixtures', 'enumerated(6)'])
def test_the_table_laws_match_their_loops_on_every_small_member(corpus):
    members = suite.fixtures() if corpus == 'fixtures' else suite.enumerated(6, bound=6)
    names = [m.name for m in members]
    assert corpus == 'fixtures' or 'E6.85' in names
    for member in members:
        assert set(_table_laws_match_their_loops(member).values()) == {suite.PASS}, member.name


@CASES
@given(center_law_cases())
@example(_residuum_and_distributivity_fail_together())
def test_the_table_laws_match_their_loops_on_redrawn_tables(member):
    _table_laws_match_their_loops(member)


@st.composite
def redrawn_derived(draw):
    """A member with its radical table or stable powers, or its reticulation
    with its class map, join or meet, redrawn in one or two entries.  A member
    whose own tables are redrawn seldom has a reticulation, so class-map-laws
    is handed one built from the member's valid tables."""
    member = draw(st.sampled_from(CENTER_MEMBERS))
    q = member.quantale
    ret = copy.copy(reticulate(q))
    tables = {'lam': np.array(ret.lam), 'join_table': ret.join_table.copy(),
              'meet_table': ret.meet_table.copy(), 'stable_powers': q.stable_powers.copy(),
              'radical_table': np.array(q.radical_table)}
    for _ in range(draw(st.integers(1, 2))):
        name = draw(st.sampled_from(sorted(tables)))
        table = tables[name]
        values = st.integers(0, len(q if name in ('stable_powers', 'radical_table') else ret) - 1)
        if table.ndim == 1:
            table[draw(st.integers(0, len(table) - 1))] = draw(values)
        else:
            x, y = draw(st.integers(0, len(ret) - 1)), draw(st.integers(0, len(ret) - 1))
            table[x, y] = table[y, x] = draw(values)
    ret.lam = tuple(tables.pop('lam').tolist())
    ret.join_table, ret.meet_table = tables['join_table'], tables['meet_table']
    return _member_copy(member, stable_powers=tables['stable_powers'],
                        radical_table=tuple(tables['radical_table'].tolist())), ret


@CASES
@given(redrawn_derived())
def test_the_table_laws_match_their_loops_on_redrawn_radicals_powers_and_quotients(case):
    member, ret = case
    with mock.patch.object(suite, 'reticulate', lambda q: ret), \
            mock.patch.object(ref, 'reticulate', lambda q: ret):
        _table_laws_match_their_loops(member)


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
# validation over join-irreducibles, on lattices that are not chains

M3 = build_lattice('0abc1', [('0', x) for x in 'abc'] + [(x, '1') for x in 'abc'])
N5 = build_lattice('0abc1', [('0', 'a'), ('a', 'b'), ('b', '1'), ('0', 'c'), ('c', '1')])


def _is_chain(lattice):
    return bool((lattice.poset.leq | lattice.poset.leq.T).all())


SIX = [q for q in suite.enumerate_quantales(6, bound=6) if len(q) == 6]
NON_CHAIN_QUANTALES = [q for q in QUANTALES + SIX + [io.generate(spec) for spec in (
    'boolean:3', 'product:zn:4;zn:6', 'product:zn:9;downsets:z<x,z<y')]
    if not _is_chain(q.lattice)]
NON_CHAIN_LATTICES = [lat for n in range(4, 7) for lat in suite.enumerate_lattices(n)
                      if not _is_chain(lat)] + [q.lattice for q in NON_CHAIN_QUANTALES]
NON_CHAIN_DISTRIBUTIVE = [lat for lat in NON_CHAIN_LATTICES if ref.is_distributive(lat)]


def _extended(draw, lattice):
    """A table drawn on pairs of join-irreducibles below their meet, each j with
    j*k = j for some k >= j, then extended by joins: x*y joins the j*k with j <= x
    and k <= y.  On a distributive lattice it distributes, has the top as unit and
    x*0 = 0, so associativity decides."""
    irreducibles = lattice.poset.join_irreducibles.tolist()
    on_j = {}
    for a in irreducibles:
        for b in irreducibles:
            if a <= b:
                on_j[a, b] = on_j[b, a] = draw(st.sampled_from(
                    sorted(lattice.down_set(lattice.meet(a, b)))))
    for a in irreducibles:
        k = draw(st.sampled_from([k for k in irreducibles if lattice.leq(a, k)]))
        on_j[a, k] = on_j[k, a] = a
    n = len(lattice)
    return np.array([[lattice.join_all(
        v for (a, b), v in on_j.items() if lattice.leq(a, x) and lattice.leq(b, y))
        for y in range(n)] for x in range(n)])


def _normalized(lattice, mul):
    'The table made commutative, with the top as unit and the bottom absorbing.'
    mul = np.triu(mul) + np.triu(mul, 1).T
    mul[lattice.bottom] = mul[:, lattice.bottom] = lattice.bottom
    mul[lattice.top] = mul[:, lattice.top] = np.arange(len(lattice))
    return mul


@st.composite
def irreducible_tables(draw):
    """A non-chain lattice with a commutative unital table that has x*0 = 0: random,
    random below the meet, the meet itself, a quantale's own table, that table
    with a few entries redrawn, or a table extended by joins from the
    join-irreducibles; the index order is then shuffled."""
    kind = draw(st.sampled_from(
        ['random', 'below meet', 'meet', 'quantale', 'perturbed', 'extended', 'extended']))
    if kind in ('quantale', 'perturbed'):
        q = draw(st.sampled_from(NON_CHAIN_QUANTALES))
        lattice, mul = q.lattice, q.mul_table.copy()
    elif kind == 'extended':
        lattice = draw(st.sampled_from(NON_CHAIN_DISTRIBUTIVE))
        mul = _extended(draw, lattice)
    else:
        lattice = draw(st.sampled_from(NON_CHAIN_LATTICES))
        mul = lattice.meet_table.copy()
    n = len(lattice)
    if kind == 'random':
        mul = np.array(draw(st.lists(
            st.integers(0, n - 1), min_size=n * n, max_size=n * n))).reshape(n, n)
    elif kind == 'below meet':
        for i in range(n):
            for j in range(i, n):
                mul[i, j] = draw(st.sampled_from(sorted(lattice.down_set(lattice.meet(i, j)))))
    elif kind == 'perturbed':
        for _ in range(draw(st.integers(1, 3))):
            i, j, v = (draw(st.integers(0, n - 1)) for _ in range(3))
            mul[i, j] = mul[j, i] = v
    mul = _normalized(lattice, mul)
    return permuted(lattice, mul, draw(st.permutations(range(n))))


def _laws_hold_on_all_triples(lattice, mul):
    'Distributivity and associativity of mul, compared on every triple at once.'
    join = lattice.join_table
    x, y, z = np.ix_(*[np.arange(len(mul))] * 3)
    return bool((mul[x, join[y, z]] == join[mul[x, y], mul[x, z]]).all()
                and (mul[mul[x, y], z] == mul[x, mul[y, z]]).all())


@settings(max_examples=300, deadline=None)
@given(irreducible_tables())
@example(SORTED_SCAN_MISSES)
@example((M3, M3.meet_table))
@example((N5, N5.meet_table))
def test_validation_over_irreducibles_matches_the_loops_on_non_chain_tables(case):
    lattice, mul = case
    assert checked(Quantale, lattice, mul) == checked(ref.validate, lattice, mul)


@settings(max_examples=300, deadline=None)
@given(st.one_of(irreducible_tables(),
                 chain_tables().map(lambda case: (case[0], _normalized(*case)))))
@example(SORTED_SCAN_MISSES)
@example((M3, M3.meet_table))
@example((N5, N5.meet_table))
def test_irreducible_predicate_holds_iff_the_laws_hold_on_all_triples(case):
    lattice, mul = case
    holds = _laws_hold_on_irreducibles(lattice, mul)
    assert holds == _laws_hold_on_all_triples(lattice, mul)
    tables = SimpleNamespace(mul_table=mul, join_table=lattice.join_table)
    assert holds == (axiom_failure(tables) is None)


def test_the_irreducible_laws_refuse_the_table_that_validation_accepts():
    'The failing triple lies in J x J x J; the sorted-triple scan of _validate misses it.'
    lattice, table = SORTED_SCAN_MISSES
    assert not _laws_hold_on_irreducibles(lattice, table)
    assert Quantale(lattice, table).mul_table.tolist() == table.tolist()


@st.composite
def long_chain_tables(draw):
    """The Lukasiewicz table on a chain of 63 to 129 points, where the blocks
    split the rows of J x J, with one pair of entries redrawn within the
    bounds its neighbours set: still monotone, so distributive, and often
    not associative.  The index order is then shuffled."""
    q = draw(st.sampled_from(SPECTRUM_QUANTALES[:6]))[1]
    mul, top = q.mul_table.copy(), len(q) - 1
    i = draw(st.integers(1, top - 1))
    j = draw(st.integers(i, top - 1))
    low = max(mul[i - 1, j], mul[i, j - 1])
    mul[i, j] = mul[j, i] = draw(st.integers(low, min(mul[i + 1, j], mul[i, j + 1])))
    return permuted(q.lattice, mul, np.random.default_rng(top).permutation(len(q)))


@settings(max_examples=40, deadline=None)
@given(long_chain_tables())
def test_irreducible_predicate_on_long_chains_whose_blocks_split_rows(case):
    lattice, mul = case
    assert next(blocks(len(mul), len(lattice.poset.join_irreducibles)))[0].stop < len(mul) - 1
    join = lattice.join_table
    # the two laws over every triple, one x at a time
    holds = all((row[join] == join[row[:, None], row]).all() and (mul[row] == row[mul]).all()
                for row in mul)
    assert _laws_hold_on_irreducibles(lattice, mul) == holds


@pytest.mark.parametrize('spec', ['product:zn:720;zn:4', 'boolean:6', 'zn:5040'])
def test_irreducible_predicate_on_larger_instances_whose_blocks_split_rows(spec):
    q = io.generate(spec)
    lattice = q.lattice
    assert next(blocks(len(q), len(lattice.poset.join_irreducibles)))[0] != slice(0, len(q))
    assert _laws_hold_on_irreducibles(lattice, q.mul_table)
    # a square set to bottom in the last rows is met only by a late block
    for mul in (q.mul_table.copy(), lattice.meet_table.copy()):
        x = max(x for x in range(len(q)) if mul[x, x] not in (lattice.bottom, lattice.top))
        mul[x, x] = lattice.bottom
        assert not _laws_hold_on_irreducibles(lattice, mul)
        assert not _laws_hold_on_all_triples(lattice, mul)
        assert checked(Quantale, lattice, mul) == checked(ref.validate, lattice, mul)


# ---------------------------------------------------------------------------
# the laws and the constructor's checks over a stack of tables on one lattice

def _candidate_stack(lattice):
    n = len(lattice)
    return np.array(list(suite._mul_candidates(lattice)), dtype=np.intp).reshape(-1, n, n)


@pytest.mark.parametrize('n', range(1, 8))
def test_stacked_laws_match_each_table_on_every_candidate_stack(n):
    """On the candidate stack of every lattice of n points, each table's stacked
    verdict is its verdict alone and over every triple, and _admitted refuses
    just the tables the laws refuse, since the fill is commutative, unital and
    has x*0 = 0; each table's profile is the plain count."""
    split = False
    for lattice in suite.enumerate_lattices(n):
        stack = _candidate_stack(lattice)
        verdicts = _laws_hold_on_irreducibles(lattice, stack)
        assert verdicts.shape == (len(stack),)
        assert verdicts.tolist() == [_laws_hold_on_irreducibles(lattice, mul) for mul in stack]
        assert verdicts.tolist() == [_laws_hold_on_all_triples(lattice, mul) for mul in stack]
        assert _admitted(lattice, stack).tolist() == verdicts.tolist()
        leq = lattice.poset.leq
        assert ([_profile(leq, mul) for mul in stack]
                == [ref.element_profile(leq, mul) for mul in stack])
        split |= len(list(stack_blocks(len(stack), n, len(lattice.poset.join_irreducibles)))) > 1
    assert split or n < 6


def _carried_onto(chain, table):
    'A table on the chain _chain(6) carried onto another six-element chain, bottom to bottom.'
    rank = np.argsort(chain.poset.leq.sum(axis=0))
    out = np.empty_like(table)
    out[rank[:, None], rank] = rank[table]
    return out


@st.composite
def law_stacks(draw):
    """A lattice and a stack of commutative unital tables with x*0 = 0 on it: a
    case drawn by irreducible_tables or chain_tables, then per table that
    case's table, the meet, the table with a few entries redrawn, or, on a
    six-element chain, the table the sorted-triple scan misses."""
    lattice, mul = draw(st.one_of(
        irreducible_tables(), chain_tables().map(lambda case: (case[0], _normalized(*case)))))
    n = len(lattice)
    kinds = ['drawn', 'meet', 'redrawn']
    if n == 6 and _is_chain(lattice):
        kinds.append('sorted scan misses')
    stack = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=10)):
        if kind == 'drawn':
            table = mul
        elif kind == 'meet':
            table = lattice.meet_table
        elif kind == 'redrawn':
            table = mul.copy()
            for _ in range(draw(st.integers(1, 3))):
                i, j, v = (draw(st.integers(0, n - 1)) for _ in range(3))
                table[i, j] = v
            table = _normalized(lattice, table)
        else:
            table = _carried_onto(lattice, SORTED_SCAN_MISSES[1])
        stack.append(table)
    return lattice, np.array(stack, dtype=np.intp)


# the six-chain's candidates twice over, 190 tables: at 180 entries a table,
# its blocks hold 45 tables each, and the refused table falls in two of them
LONG_STACK = (SORTED_SCAN_MISSES[0], np.concatenate([_candidate_stack(SORTED_SCAN_MISSES[0])] * 2))


@settings(max_examples=300, deadline=None)
@given(law_stacks())
@example((SORTED_SCAN_MISSES[0], SORTED_SCAN_MISSES[1][None]))
@example(LONG_STACK)
def test_stacked_laws_match_each_table_on_mixed_stacks(case):
    lattice, stack = case
    verdicts = _laws_hold_on_irreducibles(lattice, stack)
    assert verdicts.tolist() == [_laws_hold_on_irreducibles(lattice, mul) for mul in stack]
    assert verdicts.tolist() == [_laws_hold_on_all_triples(lattice, mul) for mul in stack]
    assert _admitted(lattice, stack).tolist() == verdicts.tolist()


@pytest.mark.parametrize('spec', ['product:zn:720;zn:4', 'boolean:6'])
def test_stacked_laws_on_larger_instances_whose_blocks_split_rows(spec):
    'Tables too large to share a block go one at a time, each in blocks of rows.'
    q = io.generate(spec)
    lattice = q.lattice
    stack = [q.mul_table, lattice.meet_table]
    for mul in (q.mul_table.copy(), lattice.meet_table.copy()):
        x = max(x for x in range(len(q)) if mul[x, x] not in (lattice.bottom, lattice.top))
        mul[x, x] = lattice.bottom
        stack.append(mul)
    stack = np.array(stack + [q.mul_table])
    # more blocks than tables: each table is split into blocks of rows
    width = len(lattice.poset.join_irreducibles)
    assert len(list(stack_blocks(len(stack), len(q), width))) > len(stack)
    assert _laws_hold_on_irreducibles(lattice, stack).tolist() == [True, True, False, False, True]


def _planted(q):
    """Per check, a table on q's lattice that the check refuses, with the
    exception the constructor raises on it: an entry out of range either way,
    x*y != y*x (row top read as the join map sending all but bottom to top),
    x*1 != x (every product bottom), x*0 != 0, and a law (a square set to
    bottom, as in the test of larger instances above)."""
    n, bottom, top = len(q), q.bottom, q.top
    x = max(x for x in range(n) if q.mul(x, x) not in (bottom, top))
    y = next(y for y in range(n) if y not in (bottom, top, x))
    out = {}
    for name, error in (('range', QuantaleError), ('negative', QuantaleError),
                        ('commutativity', NotCommutative), ('unit', NotUnital),
                        ('zero', NotDistributive), ('law', AxiomError)):
        mul = q.mul_table.copy()
        if name in ('range', 'negative'):
            mul[x, y] = mul[y, x] = n if name == 'range' else -1
        elif name == 'commutativity':
            mul[top] = np.where(np.arange(n) == bottom, bottom, top)
        elif name == 'unit':
            mul[:] = bottom
        elif name == 'zero':
            mul[x, bottom] = mul[bottom, x] = x
        else:
            mul[x, x] = bottom
        out[name] = mul, error
    return out


@pytest.mark.parametrize('spec', ['zn:12', 'chain:6,frame', 'product:zn:4;zn:9'])
def test_the_stack_refuses_the_planted_tables_and_only_those(spec):
    """Between two copies of a quantale's table, each planted table is refused
    by _admitted and raises its exception in Quantale; _quantales_on raises what
    Quantale raises on the first of them, and adopts the copies unrefused."""
    q = io.generate(spec)
    lattice = q.lattice
    planted = _planted(q)
    stack = np.array([q.mul_table] + [mul for mul, _ in planted.values()] + [q.mul_table])
    assert _admitted(lattice, stack).tolist() == [True] + [False] * len(planted) + [True]
    for name, (mul, error) in planted.items():
        result = outcome(Quantale, lattice, mul)
        assert result[0] == 'raised' and issubclass(result[1], error), (name, result)
        if name == 'law':
            assert not _laws_hold_on_all_triples(lattice, mul)
    # the laws alone pass these two, so only the constructor's own checks refuse them
    for name in ('commutativity', 'unit'):
        assert _laws_hold_on_irreducibles(lattice, planted[name][0])
    assert outcome(_quantales_on, lattice, stack) == outcome(Quantale, lattice, stack[1])
    ends = _quantales_on(lattice, stack[[0, -1]])
    for p in ends:
        assert type(p) is Quantale and not p.mul_table.flags.writeable
        assert (p.elements, p.bottom, p.top) == (q.elements, q.bottom, q.top)
        assert p.mul_table.tolist() == q.mul_table.tolist()
        assert p.join_table is lattice.join_table and p.poset is lattice.poset
    n = len(q)
    wide = np.zeros((2, n + 1, n + 1), dtype=np.intp)
    assert _admitted(lattice, wide).tolist() == [False, False]
    assert outcome(_quantales_on, lattice, wide) == outcome(Quantale, lattice, wide[0])


def test_a_table_refused_by_the_stack_and_accepted_by_the_scan_is_still_built():
    """ROADMAP item 1: the laws refuse the table the sorted-triple scan misses,
    the stack sends it through the constructor, and the constructor accepts it."""
    lattice, table = SORTED_SCAN_MISSES
    stack = np.array([lattice.meet_table, table, lattice.meet_table])
    assert _admitted(lattice, stack).tolist() == [True, False, True]
    built = _quantales_on(lattice, stack)
    assert [q.mul_table.tolist() for q in built] == stack.tolist()


@pytest.mark.parametrize('n', range(1, 8))
def test_is_distributive_over_irreducibles_matches_the_loop_on_enumerated_lattices(n):
    for lattice in suite.enumerate_lattices(n):
        for lat in (lattice, permuted(lattice, lattice.meet_table, range(n)[::-1])[0]):
            ours, theirs = is_distributive(lat), ref.is_distributive(lat)
            assert (ours.holds, ours.witness) == (theirs.holds, theirs.witness)


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
        self.join_table = join
        self.mul_table = mul
        self.center = center
        self.bottom, self.top = 0, n - 1
        self._n = n
        self._memo = {}

    def __len__(self):
        return self._n

    def join(self, i, j):
        return int(self.join_table[i, j])

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


# ---------------------------------------------------------------------------
# the lifting property

NOT_LIFTING = [io.generate(spec) for spec in (
    'downsets:z<x,z<y', 'product:zn:8;downsets:z<x,z<y', 'product:downsets:z<x,z<y;chain:2,frame')]


@st.composite
def lifting_cases(draw):
    'A quantale from the pool or one without lifting, in its own index order or a permuted one.'
    q = draw(st.sampled_from(QUANTALES + NOT_LIFTING))
    if draw(st.booleans()):
        q = Quantale(*permuted(q.lattice, q.mul_table, draw(st.permutations(range(len(q))))))
    return q


def _lifting_outcomes(q, whole, per_anchor):
    return outcome(whole, q), [outcome(per_anchor, q, a) for a in range(len(q))]


@CASES
@given(lifting_cases())
@example(NOT_LIFTING[1])
def test_lifting_matches_the_interval_loop(q):
    assert _lifting_outcomes(q, has_lp, element_has_lp) == _lifting_outcomes(
        q, ref.has_lp, ref.element_has_lp)
    for fn in (element_has_lp, ref.element_has_lp):
        with pytest.raises(IndexError):
            fn(q, len(q))


def test_lifting_rows_match_the_whole_table_when_blocks_split_rows():
    'Above 90 elements the blocks of the whole table split its rows, and those of one row never do.'
    q = io.generate('product:downsets:z<x,z<y;chain:20,frame')
    whole = _stranded(q, np.arange(len(q)))
    assert whole.any()
    assert whole.tolist() == [_stranded(q, [a])[0].tolist() for a in range(len(q))]
    assert has_lp(q) == has_lp_per_anchor(q)


# ---------------------------------------------------------------------------
# property (*)

@CASES
@given(lifting_cases())
def test_property_star_matches_the_element_loop(q):
    assert outcome(has_property_star, q) == outcome(ref.has_property_star, q)


@pytest.mark.parametrize('spec', ['zn:720', 'boolean:5', 'product:zn:8;downsets:z<x,z<y',
                                  'product:chain:4,frame;zn:30'])
def test_property_star_matches_the_element_loop_on_larger_instances(spec):
    q = io.generate(spec)
    assert outcome(has_property_star, q) == outcome(ref.has_property_star, q)


# ---------------------------------------------------------------------------
# derived quantales: intervals, products, decompositions, radical frames

def _perturbed_table(draw, q):
    'A copy of q whose multiplication table is redrawn in a few entries, unvalidated.'
    mul = q.mul_table.copy()
    n = len(q)
    for _ in range(draw(st.integers(1, 3))):
        i, j, v = (draw(st.integers(0, n - 1)) for _ in range(3))
        mul[i, j] = v
        if draw(st.booleans()):
            mul[j, i] = v
    broken = copy.copy(q)
    broken.mul_table = mul
    return broken


def _redrawn(q, op, pairs):
    'A copy of q whose join (op "join") is top, or meet (op "meet") bottom, at pairs.'
    table = getattr(q.lattice, op + '_table').copy()
    for i, j in pairs:
        table[i, j] = table[j, i] = q.top if op == 'join' else q.bottom
    broken = copy.copy(q)
    setattr(broken, op + '_table', table)
    return broken


def _perturbed_bounds(draw, q, op):
    'A copy of q with a few joins redrawn as top, or a few meets below top as bottom.'
    points = st.sampled_from([x for x in range(len(q)) if op == 'join' or x != q.top]
                             or [q.top])
    return _redrawn(q, op, draw(st.lists(st.tuples(points, points), min_size=1, max_size=3)))


@st.composite
def parents(draw):
    'A quantale from the pool, or a copy of one with a perturbed table, joins or meets.'
    q = draw(st.sampled_from(QUANTALES))
    kind = draw(st.sampled_from(['valid', 'valid', 'table', 'join', 'meet']))
    if kind == 'table':
        return _perturbed_table(draw, q)
    return q if kind == 'valid' else _perturbed_bounds(draw, q, kind)


def _derived_tables(part):
    return tuple(t.tolist() for t in (part.join_table, part.meet_table, part.mul_table)) + (
        part.bottom, part.top)


def _interval_outcome(result):
    if result[0] == 'raised':
        return result
    part, u = result[1]
    assert u.mapping == tuple(part.to_interval.tolist())
    return ('returned', part.carrier, part.elements, _derived_tables(part), u.mapping)


def _reference_interval_outcome(result):
    """The loop's positions are those of the carrier; the surjection reads them at
    x v anchor, which on a parent whose join table is redrawn need not be x."""
    if result[0] == 'raised':
        return result
    carrier, position, part, u = result[1]
    assert all(position[x] == i for i, x in enumerate(carrier))
    return ('returned', carrier, part.elements, _derived_tables(part), u.mapping)


@CASES
@given(parents(), st.data())
def test_interval_quantales_match_the_loop(q, data):
    a = data.draw(st.integers(0, len(q) - 1))
    assert _interval_outcome(outcome(interval_quantale, q, a)) == (
        _reference_interval_outcome(outcome(ref.interval_quantale, q, a)))


def _product_outcome(fn, factors):
    result = outcome(fn, factors)
    if result[0] == 'raised':
        return result
    prod, projections = result[1]
    lattice = prod.lattice
    return ('returned', prod.elements, lattice.poset.leq.tolist(), lattice.join_table.tolist(),
            lattice.meet_table.tolist(), lattice.bottom, lattice.top, prod.mul_table.tolist(),
            [p.mapping for p in projections])


SMALL = [q for q in QUANTALES if len(q) <= 6]


@st.composite
def factor_lists(draw):
    'No factors, or one to three small quantales of at most 36 elements in all, some perturbed.'
    factors = draw(st.lists(st.sampled_from(SMALL), max_size=3).filter(
        lambda fs: np.prod([len(f) for f in fs]) <= 36))
    return [_perturbed_table(draw, f) if draw(st.integers(0, 3)) == 0 else f for f in factors]


@CASES
@given(factor_lists())
@example([])
def test_products_and_projections_match_the_loop(factors):
    assert _product_outcome(product, factors) == _product_outcome(ref.product, factors)


@CASES
@given(st.lists(st.sampled_from(SMALL), min_size=1, max_size=3).filter(
    lambda fs: np.prod([len(f) for f in fs]) <= 36))
def test_product_bounds_read_off_the_factors_are_the_least_bounds_of_its_order(factors):
    lattice = product(factors)[0].lattice
    leq = lattice.poset.leq
    (join, no_join), (meet, no_meet) = ref.least_bounds(leq), ref.least_bounds(leq.T)
    assert not no_join.any() and not no_meet.any()
    assert lattice.join_table.tolist() == join.tolist()
    assert lattice.meet_table.tolist() == meet.tolist()
    assert (lattice.bottom, lattice.top) == (leq.all(axis=1).argmax(), leq.all(axis=0).argmax())
    assert not (lattice.join_table.flags.writeable or lattice.meet_table.flags.writeable)
    # the order, built without the partial-order checks, is the one they accept,
    # and the covers read off the factors' are the covers of that order
    _same_order(lattice.poset)
    assert lattice.poset.covers == ref.covers(lattice.poset)


def _decomposition_outcome(fn, q, anchors):
    result = outcome(fn, q, anchors)
    if result[0] == 'raised':
        return result
    u = result[1]
    return ('returned', u.source.carrier, u.target.elements, u.target.mul_table.tolist(),
            u.mapping)


@st.composite
def anchor_lists(draw):
    'A quantale and anchors: its maximal elements, a coprime pair, or any few elements.'
    q = draw(parents())
    n = len(q)
    kind = draw(st.sampled_from(['maxima', 'coprime', 'coprime', 'any']))
    coprime = [(a, b) for a in range(n) for b in range(n) if q.join(a, b) == q.top]
    if kind == 'maxima':
        return q, list(q.maximal_elements)
    if kind == 'coprime':
        return q, list(draw(st.sampled_from(coprime)))
    return q, draw(st.lists(st.integers(0, n - 1), max_size=3))


D12 = io.generate('zn:12')
# 2 v 3 = 1 but the meet table says 2 ^ 3 = 12, the bottom: the map from all
# of D12 onto [2) x [3) is a morphism but not injective
WRONG_MEET = (_redrawn(D12, 'meet', [(D12.index_of('2'), D12.index_of('3'))]),
              [D12.index_of('2'), D12.index_of('3')])
# 0 v 1 = 1 redrawn as the top 2 in the chain 0 < 1 < 2: over the one anchor 0,
# x -> x v 0 sends 1 and 2 to 2, so the map onto [0) is not injective
WRONG_JOIN = (_redrawn(io.generate('chain:3,frame'), 'join', [(0, 1)]), [0])


@CASES
@given(anchor_lists())
@example(WRONG_MEET)
@example(WRONG_JOIN)
def test_decompositions_match_the_loop(case):
    q, anchors = case
    assert _decomposition_outcome(decompose_by_elements, q, anchors) == (
        _decomposition_outcome(ref.decompose_by_elements, q, anchors))


def test_the_decomposition_precondition_names_the_pair_the_loop_names():
    """Over every ordered pair and triple of anchors of each fixture, and every
    quadruple on at most nine elements (where row-major order first differs
    from column-major), the same decomposition as the loop, or the same
    refusal naming the same first pair i < j whose anchors do not join to top."""
    for member in suite.fixtures():
        q = member.quantale
        for k in (2, 3, 4) if len(q) <= 9 else (2, 3):
            for anchors in cartesian(range(len(q)), repeat=k):
                assert _decomposition_outcome(decompose_by_elements, q, anchors) == (
                    _decomposition_outcome(ref.decompose_by_elements, q, anchors))


def test_a_coprime_decomposition_builds_its_product_only_when_read():
    """Over every coprime pair of the pool, bijectivity is decided without the
    product, and the target read afterwards is the product of the two
    intervals: its elements, order, tables and bounds.  Each quantale is a
    fresh copy, whose memo holds no decomposition whose target was read."""
    for q in map(copy.copy, QUANTALES):
        for a, b in suite._coprime_pairs(q):
            u = decompose_by_elements(q, (a, b))
            assert u.is_bijective() and 'target' not in u.__dict__
            expected, _ = product([interval_quantale(q, a)[0], interval_quantale(q, b)[0]])
            assert u.target.elements == expected.elements
            assert u.target.poset.leq.tolist() == expected.poset.leq.tolist()
            assert _derived_tables(u.target) == _derived_tables(expected)


def _redrawn_part(part, kind):
    """A copy of part whose bottom is redrawn as its top, its top as its
    bottom, or whose join or product of top with top is redrawn as bottom."""
    broken = copy.copy(part)
    if kind == 'bottom':
        broken.bottom = part.top
    elif kind == 'top':
        broken.top = part.bottom
    else:
        table = getattr(part, kind).copy()
        table[part.top, part.top] = part.bottom
        setattr(broken, kind, table)
    return broken


def test_the_coordinate_check_is_the_check_against_the_built_product():
    """x -> (x v a, x v b) is a morphism from [a ^ b) into [a) x [b) for any
    a and b, onto only for some.  Checked through its coordinates it must
    raise what the check against the built product raises, and be onto and
    bijective exactly when that one is: over every pair of anchors of the
    pool, and over a coprime pair whose parts are redrawn in one bound or in
    one join or multiplication entry."""

    def compare(source, parts):
        'The message both checks raise, or whether both find the map bijective.'
        carrier = np.asarray(source.carrier)
        mapping = np.ravel_multi_index(
            tuple(p.to_interval[carrier] for p in parts), tuple(len(p) for p in parts))
        built = outcome(QuantaleMorphism, source, _product(parts)[0], mapping)
        coordinates = outcome(_CoordinateMorphism, source, parts)
        if built[0] == 'raised':
            assert coordinates == built
            return built[2]
        u, v = coordinates[1], built[1]
        assert u.mapping == v.mapping
        assert (u.is_surjective(), u.is_bijective()) == (v.is_surjective(), v.is_bijective())
        assert 'target' not in u.__dict__
        return v.is_bijective()

    refusals = {'bottom': 'bottom not preserved', 'top': 'unit not preserved',
                'join_table': 'join not preserved at ',
                'mul_table': 'multiplication not preserved at '}
    bijective, redrawn = set(), 0
    for q in QUANTALES:
        n = len(q)
        for a in range(n):
            for b in range(a, n):
                parts = [interval_quantale(q, a)[0], interval_quantale(q, b)[0]]
                bijective.add(compare(interval_quantale(q, q.meet(a, b))[0], parts))
        pair = next(((a, b) for a, b in suite._coprime_pairs(q) if q.top not in (a, b)), None)
        if pair is None:
            continue
        source = interval_quantale(q, q.meet(*pair))[0]
        parts = [interval_quantale(q, a)[0] for a in pair]
        for slot in range(2):
            for kind, refusal in refusals.items():
                broken = list(parts)
                broken[slot] = _redrawn_part(parts[slot], kind)
                refused = compare(source, broken)
                assert isinstance(refused, str) and refused.startswith(refusal), (kind, refused)
                redrawn += 1
    assert bijective == {True, False} and redrawn


@CASES
@given(st.sampled_from(QUANTALES), st.data())
def test_intervals_and_decompositions_of_a_copy_ignore_the_cache_it_shares(q, data):
    'A copy.copy of a quantale whose intervals are cached starts with none; it must not read them.'
    n = len(q)
    for a in range(n):
        interval_quantale(q, a)
    maxima = list(q.maximal_elements)
    if maxima:
        decompose_by_elements(q, maxima)
    kind = data.draw(st.sampled_from(['table', 'join', 'meet']))
    broken = (_perturbed_table(data.draw, q) if kind == 'table'
              else _perturbed_bounds(data.draw, q, kind))
    assert broken._memo is not q._memo
    for a in range(n):
        assert _interval_outcome(outcome(interval_quantale, broken, a)) == (
            _reference_interval_outcome(outcome(ref.interval_quantale, broken, a)))
    anchors = data.draw(st.sampled_from([maxima] + [
        [a, b] for a in range(n) for b in range(n) if q.join(a, b) == q.top]))
    assert _decomposition_outcome(decompose_by_elements, broken, anchors) == (
        _decomposition_outcome(ref.decompose_by_elements, broken, anchors))
    # and the quantale copied still reads intervals of its own
    a = data.draw(st.integers(0, n - 1))
    part, u = interval_quantale(q, a)
    assert part.parent is q and u.source is q
    assert _interval_outcome(('returned', (part, u))) == (
        _reference_interval_outcome(outcome(ref.interval_quantale, q, a)))


@CASES
@given(st.sampled_from(QUANTALES), st.data())
def test_verdicts_of_a_copy_ignore_those_kept_on_the_original(q, data):
    """A copy.copy of a quantale whose verdicts are kept starts with none: each
    of its verdicts is what the undecorated function decides on the copy."""
    calls = [(verdict, ()) for verdict in (
        has_lp, has_property_star, is_normal, is_b_normal, is_hyperarchimedean)]
    calls += [(element_has_lp, (a,)) for a in range(len(q))]
    kept = [outcome(verdict, q, *element) for verdict, element in calls]
    kind = data.draw(st.sampled_from(['table', 'join', 'meet']))
    broken = (_perturbed_table(data.draw, q) if kind == 'table'
              else _perturbed_bounds(data.draw, q, kind))
    assert broken._memo is not q._memo
    for verdict, element in calls:
        assert outcome(verdict, broken, *element) == (
            outcome(verdict.__wrapped__, broken, *element)), verdict.__name__
    # and the quantale copied still reads its own
    assert [outcome(verdict, q, *element) for verdict, element in calls] == kept


def _with_radicals(q, changes):
    'A copy of q whose radical table sends x to r for each (x, r) in changes, unvalidated.'
    radical = list(q.radical_table)
    for x, r in changes:
        radical[x] = r
    broken = copy.copy(q)
    broken.radical_table = tuple(radical)
    return broken


@st.composite
def radical_parents(draw):
    """A quantale from the pool, or a copy whose radical table is redrawn in a
    few places: anywhere, or off the radical elements only, onto one of them
    or onto itself."""
    q = draw(st.sampled_from(QUANTALES))
    kind = draw(st.sampled_from(['valid', 'any', 'retarget', 'fix']))
    fixed = [a for a in range(len(q)) if q.radical_of(a) == a]
    moving = [a for a in range(len(q)) if q.radical_of(a) != a]
    if kind == 'valid' or (kind != 'any' and not moving):
        return q
    if kind == 'any':
        change = st.tuples(st.integers(0, len(q) - 1), st.integers(0, len(q) - 1))
    else:
        change = st.sampled_from(moving).flatmap(lambda x: st.tuples(
            st.just(x), st.just(x) if kind == 'fix' else st.sampled_from(fixed)))
    return _with_radicals(q, draw(st.lists(change, min_size=1, max_size=3)))


def _labelled(q, pairs):
    return [(q.index_of(x), q.index_of(r)) for x, r in pairs]


E54 = next(m.quantale for m in suite.enumerated(5) if m.name == 'E5.4')
W5 = io.generate('downsets:z<x,z<y')


@CASES
@given(radical_parents())
@example(_with_radicals(E54, _labelled(E54, [('x3', 'x0')])))  # join not preserved at x1, x3
@example(_with_radicals(E54, _labelled(E54, [('x3', 'x1')])))  # order not induced at x2, x1
@example(_with_radicals(W5, _labelled(W5, [('{z}', '{}')])))  # not meet-closed at {x,z}, {y,z}
def test_radical_frames_match_the_loop(q):
    ours, theirs = outcome(RadicalFrame, q), outcome(ref.radical_frame, q)
    if ours[0] == 'returned':
        frame, (carrier, theirs, to_frame) = ours[1], theirs[1]
        # the loop keeps positions of the radical elements only, as a dict
        assert frame.carrier == carrier
        assert {a: frame.to_frame.item(a) for a in carrier} == to_frame
        for table in ('join_table', 'meet_table', 'mul_table'):
            assert getattr(frame, table).tolist() == getattr(theirs, table).tolist()
        assert (frame.bottom, frame.top) == (theirs.bottom, theirs.top)
        assert frame.radical_morphism.mapping == tuple(
            to_frame[q.radical_of(x)] for x in range(len(q)))
    else:
        assert ours == theirs


# ---------------------------------------------------------------------------
# element reads, one ndarray.item each, against int(table[i, j])

def _typed(value):
    return type(value), value


def _assert_reads_match_the_table_reads(q, orders, surjections):
    """Every read of q and of its lattice, value and type, against the table
    reads; the folds over orders; each residuum and negation; and the kernel of
    each surjection, read with q as its source."""
    lattice, n = q.lattice, len(q)
    assert _typed(len(q)) == _typed(len(lattice)) == _typed(ref.read_len(lattice))
    assert [q.label(i) for i in range(n)] == [lattice.label(i) for i in range(n)] == [
        ref.read_label(lattice, i) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n)]
    for name in ('leq', 'join', 'meet'):
        theirs = [_typed(getattr(ref, 'read_' + name)(lattice, i, j)) for i, j in pairs]
        assert [_typed(getattr(q, name)(i, j)) for i, j in pairs] == theirs
        assert [_typed(getattr(lattice, name)(i, j)) for i, j in pairs] == theirs
    assert [_typed(q.mul(i, j)) for i, j in pairs] == [
        _typed(ref.read_mul(q, i, j)) for i, j in pairs]
    for items in orders:
        for ours in (q, lattice):
            assert _typed(ours.join_all(iter(items))) == _typed(ref.join_all(lattice, items))
            assert _typed(ours.meet_all(iter(items))) == _typed(ref.meet_all(lattice, items))
    assert [_typed(residuum(q, a, b)) for a, b in pairs] == [
        _typed(ref.residuum(q, a, b)) for a, b in pairs]
    assert [_typed(negation(q, a)) for a in range(n)] == [
        _typed(ref.negation_by_residuum(q, a)) for a in range(n)]
    for u in surjections:
        moved = _Map(q, u.target, u.mapping)
        assert _typed(kernel(moved)) == _typed(ref.kernel(moved))


@CASES
@given(st.sampled_from(QUANTALES), st.data())
def test_scalar_reads_match_the_table_reads(q, data):
    """A pool quantale is read first, then copies of it with a table redrawn: a
    value kept on the object from the first reads would show on the copies."""
    n = len(q)
    orders = [range(n), np.arange(n)[::-1],
              data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n))]
    surjections = [interval_quantale(q, a)[1] for a in range(n)]
    assert [kernel(u) for u in surjections] == [ref.kernel(u) for u in surjections]
    _assert_reads_match_the_table_reads(q, orders, surjections)
    for kind in ('table', 'join', 'meet'):
        broken = (_perturbed_table(data.draw, q) if kind == 'table'
                  else _perturbed_bounds(data.draw, q, kind))
        _assert_reads_match_the_table_reads(broken, orders, surjections)


def _index_outcome(fn, *args):
    try:
        return 'returned', _typed(fn(*args))
    except (IndexError, TypeError) as exc:
        return 'raised', type(exc)


def test_scalar_reads_take_indices_as_the_table_reads_did():
    """Python and numpy integers, negative ones counting from the end, read what
    the table reads read, and an index outside the carrier raises IndexError.
    A float or a string raises TypeError, as _element_index does, where the
    table reads raised IndexError; the residuum and negation index the tables
    as arrays and raise IndexError for them still, and a label read is a tuple
    read, as before."""
    q, n = D12, len(D12)
    lattice = q.lattice
    item_reads = [(q.mul, lambda i, j: ref.read_mul(q, i, j))]
    for name in ('leq', 'join', 'meet'):
        theirs = getattr(ref, 'read_' + name)
        item_reads += [(getattr(ours, name), lambda i, j, theirs=theirs: theirs(lattice, i, j))
                       for ours in (q, lattice)]
    for name in ('join_all', 'meet_all'):
        theirs = getattr(ref, name)
        item_reads += [(lambda i, j, fold=getattr(ours, name): fold([i, j]),
                        lambda i, j, theirs=theirs: theirs(lattice, [i, j]))
                       for ours in (q, lattice)]
    array_reads = [(lambda a, b: residuum(q, a, b), lambda a, b: ref.residuum(q, a, b)),
                   (lambda a, _: negation(q, a), lambda a, _: ref.negation_by_residuum(q, a)),
                   (lambda i, _: q.label(i), lambda i, _: ref.read_label(lattice, i)),
                   (lambda i, _: lattice.label(i), lambda i, _: ref.read_label(lattice, i))]
    integers = [(1, 2), (np.int64(1), np.int32(2)), (np.intp(3), 0), (-1, 0), (0, -n),
                (np.int64(-2), -3)]
    outside = [(n, 0), (0, n), (-n - 1, 0), (np.int64(n), 1)]
    non_integers = [(1.0, 0), (0, 2.0), ('1', 0), (np.float64(1), 0)]
    for ours, theirs in item_reads + array_reads:
        for i, j in integers:
            assert _index_outcome(ours, i, j) == _index_outcome(theirs, i, j) != (
                'raised', IndexError)
        for i, j in outside:
            assert _index_outcome(ours, i, j) == _index_outcome(theirs, i, j)
    for ours, theirs in item_reads:
        for i, j in outside:
            assert _index_outcome(ours, i, j) == ('raised', IndexError)
        for i, j in non_integers:
            assert _index_outcome(theirs, i, j) == ('raised', IndexError)
            assert _index_outcome(ours, i, j) == ('raised', TypeError)
    for ours, theirs in array_reads:
        for i, j in non_integers:
            assert _index_outcome(ours, i, j) == _index_outcome(theirs, i, j)


def _same_order(poset):
    'A poset built without the order checks against the one the checked constructor builds.'
    checked = FinitePoset(poset.elements, poset.leq)
    assert type(poset) is FinitePoset and poset.elements == checked.elements
    assert poset.leq.dtype == bool and not poset.leq.flags.writeable
    assert poset.leq.tolist() == checked.leq.tolist()
    assert poset.covers == checked.covers
    assert poset.join_irreducibles.tolist() == checked.join_irreducibles.tolist()


def test_unchecked_orders_match_the_checked_constructor():
    'Intervals, radical frames, reticulations and the spectra of the dot export, over the pool.'
    for q in QUANTALES:
        for a in range(len(q)):
            _same_order(interval_quantale(q, a)[0].lattice.poset)
        _same_order(q.radical_frame.lattice.poset)
        _same_order(reticulate(q).lattice.poset)
        spec = list(q.spectrum)
        checked = FinitePoset([q.label(p) for p in spec], q.lattice.poset.leq[np.ix_(spec, spec)])
        edges = re.findall(r'^  n(\d+) -> n(\d+);$', io.export_dot(q, 'spec'), re.MULTILINE)
        assert tuple((int(a), int(b)) for a, b in edges) == checked.covers


def test_unchecked_product_orders_still_refuse_repeated_labels():
    'Labels joined by commas can meet: (x, y,z) and (x,y, z) both read (x,y,z).'
    def renamed(q, labels):
        return Quantale(FiniteLattice(FinitePoset(labels, q.lattice.poset.leq)), q.mul_table)

    c2 = io.generate('chain:2,frame')
    factors = [renamed(c2, ['x', 'x,y']), renamed(c2, ['y,z', 'z'])]
    for build in (product, ref.product):
        with pytest.raises(NotAPoset, match='element labels are not unique'):
            build(factors)


# ---------------------------------------------------------------------------
# maps on reticulation classes

def _classes(draw, n, k):
    'Class numbers for n elements, every class 0..k-1 occurring.'
    rest = draw(st.lists(st.integers(0, k - 1), min_size=n - k, max_size=n - k))
    return draw(st.permutations(list(range(k)) + rest))


@st.composite
def class_maps(draw):
    'Classes numbering every class from 0 up, and an image for each element.'
    n = draw(st.integers(1, 8))
    classes = _classes(draw, n, draw(st.integers(1, n)))
    image = [draw(st.integers(0, 2)) if draw(st.booleans()) else classes[x] + 10
             for x in range(n)]
    return classes, image


class _Map:
    'Just what the class-map loops read from a morphism.'

    def __init__(self, source, target, mapping):
        self.source, self.target, self.mapping = source, target, mapping

    def __call__(self, x):
        return self.mapping[x]


@CASES
@given(class_maps())
def test_induced_class_maps_match_the_loops(case):
    classes, image = case
    mapping, split = _induced(classes, image)
    quotient, r = range(max(classes) + 1), SimpleNamespace(lattice=classes)
    factored = outcome(ref.factor_through, quotient, r, _Map(None, None, classes),
                       _Map(None, None, image))
    assert factored == (('returned', mapping) if split is None else (
        'raised', QuantaleError, 'lifted map does not factor through the quotient', None))
    members = [[x for x, c in enumerate(classes) if c == k] for k in quotient]
    assert split == next((k for k, m in enumerate(members) if len({image[x] for x in m}) > 1),
                         None)


@st.composite
def lift_cases(draw):
    'An interval surjection, perturbed in a few places or not, or a random map, unvalidated.'
    q, target, mapping = draw(morphism_cases())
    return _Map(q, target, mapping)


@CASES
@given(lift_cases())
def test_lifted_morphisms_match_the_loop(u):
    assert _mapping_outcome(lift_morphism, u) == _mapping_outcome(ref.lift_morphism, u)


@st.composite
def unicity_cases(draw):
    """A reticulation, with its classes redrawn or not, a candidate (the
    reticulation, the radical frame, the reticulation with the indices
    reversed, or the quantale itself, a meet-quantale only if it is a frame)
    and a candidate map redrawn in a few places."""
    q = draw(st.sampled_from(QUANTALES))
    ret = reticulate(q)
    reversed_copy = FiniteLattice(FinitePoset(ret.elements[::-1], ret.poset.leq[::-1, ::-1]))
    candidate = draw(st.sampled_from([
        ret, q.radical_frame, Quantale(reversed_copy, reversed_copy.meet_table), q]))
    lam = list(ret.lam)
    for _ in range(draw(st.integers(0, 3))):
        lam[draw(st.integers(0, len(q) - 1))] = draw(st.integers(0, len(candidate) - 1))
    if draw(st.booleans()):
        k = len(ret)
        classes = _classes(draw, len(q), k)
        ret = copy.copy(ret)
        ret.lam = tuple(classes)
        ret.classes = tuple(tuple(x for x in range(len(q)) if classes[x] == c) for c in range(k))
    return ret, candidate, tuple(lam)


def _unicity_join_failure():
    'The reticulation of Z/36 with the class of 3 moved to class 1: the join axiom fails at (2, 3).'
    ret = reticulate(io.generate('zn:36'))
    lam = list(ret.lam)
    lam[ret.source.index_of('3')] = 1
    return ret, ret, tuple(lam)


@CASES
@given(unicity_cases())
@example(_unicity_join_failure())
def test_unicity_checks_match_the_loops(case):
    ours, theirs = outcome(check_unicity, *case), outcome(ref.check_unicity, *case)
    if ours[0] == 'returned':
        ours, theirs = ours[1].mapping, theirs[1].mapping
    assert ours == theirs


# ---------------------------------------------------------------------------
# ideals of a finite lattice as their generators

DISTRIBUTIVE = [lat for lat in LATTICES + list(suite.enumerate_lattices(6))
                if is_distributive(lat)] + [reticulate(q).lattice for q in QUANTALES]


@CASES
@given(st.sampled_from(DISTRIBUTIVE), st.data())
def test_ideal_generators_match_the_ideal_loops(lattice, data):
    meet = Quantale(lattice, lattice.meet_table)
    assert meet.spectrum == tuple(ideal.generator for ideal in ref.prime_ideals(lattice))
    assert meet.maximal_elements == tuple(
        ideal.generator for ideal in ref.maximal_ideals(lattice))
    g = data.draw(st.integers(0, len(lattice) - 1))
    quotient, p = ref.quotient_by_ideal(lattice, ref.principal_ideal(lattice, g))
    part, u = interval_quantale(meet, g)
    assert (part.elements, part.lattice.poset.leq.tolist(), part.mul_table.tolist(),
            u.mapping) == (quotient.elements, quotient.poset.leq.tolist(),
                           quotient.meet_table.tolist(), p.mapping)


@CASES
@given(st.sampled_from(DISTRIBUTIVE))
def test_lattice_side_oracles_match_the_ideal_loops(lattice):
    ours, theirs = has_id_blp(lattice), ref.has_id_blp(lattice)
    assert ours.holds == theirs.holds
    if not theirs:
        ideal, stranded = theirs.witness
        assert ours.witness == (lattice.label(ideal.generator), stranded)
    assert lattice_is_id_local(lattice) == ref.lattice_is_id_local(lattice)


@CASES
@given(st.sampled_from(QUANTALES), st.data())
def test_star_maps_match_the_loops(q, data):
    r = reticulate(q)
    a = data.draw(st.integers(0, len(q) - 1))
    assert r.lattice.down_set(star(q, a)) == ref.star(r, a).members
    x = data.draw(st.integers(0, len(r) - 1))
    assert unstar(q, x) == ref.unstar(r, ref.principal_ideal(r.lattice, x))


def _ideal_outcome(fn, *args):
    'What a call returns, or the class of what it raises.'
    result = outcome(fn, *args)
    return result[:2]


@st.composite
def subsets(draw):
    'A lattice and a subset as a mask: random, or a down-set with a few memberships flipped.'
    lattice = draw(st.sampled_from(LATTICES))
    n = len(lattice)
    if draw(st.booleans()):
        return lattice, draw(st.lists(st.booleans(), min_size=n, max_size=n))
    members = lattice.poset.leq[:, draw(st.integers(0, n - 1))].tolist()
    for _ in range(draw(st.integers(0, 2))):
        x = draw(st.integers(0, n - 1))
        members[x] = not members[x]
    return lattice, members


@CASES
@given(subsets())
@example((suite.enumerate_lattices(1)[0], [False]))
def test_the_ideal_criterion_matches_the_ideal_loop(case):
    # a set is an ideal iff it is the down-set of its join, in any finite lattice
    lattice, members = case
    ours = _ideal_outcome(_generator, lattice, members)
    theirs = _ideal_outcome(
        lambda: ref.LatticeIdeal(lattice, np.flatnonzero(members)).generator)
    assert ours == theirs
    assert ours[0] == 'returned' or ours[1] is NotAnIdeal


@CASES
@given(reticulation_maps(), st.data())
def test_star_on_corrupted_class_maps_matches_the_loop(ret, data):
    a = data.draw(st.integers(0, len(ret.source) - 1))
    ours, theirs = _ideal_outcome(_star, ret, a), _ideal_outcome(ref.star, ret, a)
    assert ours[0] == theirs[0]
    if ours[0] == 'returned':
        assert ret.lattice.down_set(ours[1]) == ref.star(ret, a).members
    else:
        assert ours[1] is theirs[1] is NotAnIdeal


def test_star_refuses_a_corrupted_class_map():
    q = io.generate('zn:12')
    ret = copy.copy(reticulate(q))
    lam = list(ret.lam)
    # bottom's class moved to the top: the classes below bottom are {top}
    lam[q.bottom] = ret.lattice.top
    ret.lam = tuple(lam)
    with pytest.raises(NotAnIdeal):
        _star(ret, q.bottom)
    # the copy left the cached reticulation alone
    assert star(q, q.bottom) == reticulate(q).lattice.bottom


def _redrawn_join(lattice, x, y, shift):
    """A copy of lattice whose join table holds another value at (x, y), so
    that it is no semilattice: commutativity fails off the diagonal and
    idempotence on it."""
    join = lattice.join_table.copy()
    join[x, y] = (join[x, y] + shift) % len(lattice)
    lattice = copy.copy(lattice)
    lattice.join_table = join
    return lattice


@st.composite
def fold_masks(draw):
    'A lattice, or a copy with one join entry redrawn, and a few random rows of a mask over it.'
    lattice = draw(st.sampled_from(LATTICES))
    n = len(lattice)
    if n > 1 and draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        lattice = _redrawn_join(lattice, x, y, draw(st.integers(1, n - 1)))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=4))
    return lattice, np.array(rows, dtype=bool)


@CASES
@given(fold_masks())
# on a three-element chain whose join reads 0 at (1, 2), the fold of {1, 2}
# gives 0 in index order and 2 in the other
@example((_redrawn_join(suite.enumerate_lattices(3)[0], 1, 2, 1), np.array([[False, True, True]])))
def test_the_row_fold_joins_in_index_order_as_join_all_does(case):
    lattice, mask = case
    assert _fold(lattice, mask).tolist() == [
        lattice.join_all(row.nonzero()[0].tolist()) for row in mask]


def test_star_tables_match_the_loops_on_every_element():
    """Each table gives every element a generator, with no -1, and the ideal
    loops' generator there, on the fixtures and every quantale up to six
    elements, and their radical frames."""
    pool = QUANTALES + SIX
    for q in pool + [q.radical_frame for q in pool]:
        r = Reticulation(q)
        stars, unstars = _star_table(r), _unstar_table(r)
        assert -1 not in stars + unstars
        assert [r.lattice.down_set(g) for g in stars] == [
            ref.star(r, a).members for a in range(len(q))]
        assert list(unstars) == [
            ref.unstar(r, ref.principal_ideal(r.lattice, x)) for x in range(len(r))]
    q = io.generate('zn:36')
    assert [star(q, a) for a in range(len(q))] == list(_star_table(reticulate(q)))
    assert [unstar(q, x) for x in range(len(reticulate(q)))] == list(
        _unstar_table(reticulate(q)))


def _redrawn_order(draw, poset):
    'A copy of poset whose order has a few entries off the diagonal flipped.'
    leq = poset.leq.copy()
    n = len(leq)
    for _ in range(draw(st.integers(1, 3))):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        leq[x, y] ^= x != y
    poset = copy.copy(poset)
    poset.leq = leq
    return poset


@st.composite
def redrawn_reticulations(draw):
    """A copy of a reticulation whose class map (as reticulation_maps draws
    it), order or source's order is redrawn in a few places."""
    kind = draw(st.sampled_from(['class map', 'order', 'source order']))
    if kind == 'class map':
        return draw(reticulation_maps())
    ret = copy.copy(Reticulation(draw(st.sampled_from(QUANTALES))))
    if kind == 'order':
        ret.poset = _redrawn_order(draw, ret.poset)
    else:
        ret.source = copy.copy(ret.source)
        ret.source.poset = _redrawn_order(draw, ret.source.poset)
    return ret


@CASES
@given(redrawn_reticulations())
def test_star_tables_decide_broken_reticulations_as_the_element_path_does(ret):
    for a in range(len(ret.source)):
        assert outcome(_star_at, ret, a) == outcome(_star, ret, a)
    for x in range(-1, len(ret) + 1):
        assert outcome(_unstar_at, ret, x) == outcome(ref.unstar_at, ret, x)


def test_star_tables_live_and_die_with_their_reticulation():
    """The tables are kept on the reticulation, freed with it, and not shared
    with a copy: a copy whose class map is perturbed computes its own."""
    q = io.generate('zn:12')
    r = Reticulation(q)
    stars, unstars = _star_table(r), _unstar_table(r)
    assert _star_table(r) is stars and _unstar_table(r) is unstars
    clone = copy.copy(r)
    lam = list(clone.lam)
    # bottom's class moved to the top's: the class map stays onto, and the
    # classes below bottom are {top}, no ideal
    lam[q.bottom] = clone.lam[q.top]
    clone.lam = tuple(lam)
    assert _star_table(clone)[q.bottom] == -1 != stars[q.bottom]
    refused = outcome(_star_at, clone, q.bottom)
    assert refused[:2] == ('raised', NotAnIdeal)
    assert refused == outcome(_star, clone, q.bottom)
    assert _star_table(r) is stars
    kept = weakref.ref(r)
    del r
    gc.collect()
    assert kept() is None


# ---------------------------------------------------------------------------
# the isomorphism search against the n! canonical forms

def _relabelled(lattice, table, draw):
    return permuted(lattice, table, draw(st.permutations(range(len(lattice)))))


def _is_isomorphism(bijection, source, target):
    'Whether bijection carries the (leq, op) tables of source onto those of target.'
    f = np.asarray(bijection)
    (src_leq, src_op), (tgt_leq, tgt_op) = source, target
    return (sorted(bijection) == list(range(len(f)))
            and (tgt_leq[np.ix_(f, f)] == src_leq).all()
            and (tgt_op[np.ix_(f, f)] == f[src_op]).all())


@st.composite
def quantale_pairs(draw):
    'Two enumerated quantales of one size, often the same one, each maybe relabelled.'
    a = b = draw(st.sampled_from(ENUMERATED))
    if draw(st.booleans()):
        b = draw(st.sampled_from([q for q in ENUMERATED if len(q) == len(a)]))
    return tuple(Quantale(*_relabelled(q.lattice, q.mul_table, draw)) if draw(st.booleans()) else q
                 for q in (a, b))


@CASES
@given(quantale_pairs())
def test_quantale_search_agrees_with_canonical_forms(pair):
    a, b = pair
    found = find_quantale_isomorphism(a, b)
    assert (found is not None) == (ref._canonical_form(a) == ref._canonical_form(b))
    if found is not None:
        assert _is_isomorphism(found, (a.lattice.poset.leq, a.mul_table),
                               (b.lattice.poset.leq, b.mul_table))


def _labelled_lattices(n):
    'Every lattice on n points whose index order is a linear extension, duplicates kept.'
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    out = []
    for mask in range(1 << len(slots)):
        rel = np.eye(n, dtype=bool)
        for bit, (i, j) in enumerate(slots):
            rel[i, j] = bool(mask >> bit & 1)
        try:
            out.append(FiniteLattice(FinitePoset(labels(n), rel)))
        except LatticeError:
            pass
    return out


RAW_LATTICES = [lat for n in range(1, 6) for lat in _labelled_lattices(n)] + [M3, N5]


def _bottom_op(lattice):
    'The operation that is constantly the bottom: the search then reads the order alone.'
    return np.full((len(lattice), len(lattice)), lattice.bottom)


@st.composite
def lattice_pairs(draw):
    'Two labelled lattices of one size, often the same one, each maybe relabelled.'
    a = b = draw(st.sampled_from(RAW_LATTICES))
    if draw(st.booleans()):
        b = draw(st.sampled_from([l for l in RAW_LATTICES if len(l) == len(a)]))
    return tuple(_relabelled(l, l.meet_table, draw)[0] if draw(st.booleans()) else l
                 for l in (a, b))


@CASES
@given(lattice_pairs())
@example((M3, N5))
@example((N5, permuted(N5, N5.meet_table, [4, 2, 0, 3, 1])[0]))
def test_lattice_search_agrees_with_the_relation_canon(pair):
    same = ref.relation_canon(pair[0]) == ref.relation_canon(pair[1])
    for op in (lambda l: l.meet_table, _bottom_op):
        a, b = ((l.poset.leq, op(l)) for l in pair)
        found = _isomorphism(a, b)
        assert (found is not None) == same
        if found is not None:
            assert _is_isomorphism(found, a, b)


def test_order_search_on_every_relabelling_of_two_two_chains():
    'Swapping b and d keeps every down-set and up-set size, so the order checks must refuse it.'
    h6 = build_lattice('0abcd1', [
        ('0', 'a'), ('a', 'b'), ('b', '1'), ('0', 'c'), ('c', 'd'), ('d', '1')])
    for order in ([0, 1, 2, 3, 4, 5], [0, 1, 3, 2, 4, 5], [5, 4, 2, 3, 1, 0]):
        source = permuted(h6, h6.meet_table, order)[0]
        for perm in permutations(range(6)):
            target = permuted(h6, h6.meet_table, perm)[0]
            a, b = ((l.poset.leq, _bottom_op(l)) for l in (source, target))
            found = _isomorphism(a, b)
            assert found is not None and _is_isomorphism(found, a, b), (order, perm)


def _lattice_tables(lat):
    return lat.elements, lat.poset.leq.tolist(), lat.join_table.tolist(), lat.meet_table.tolist()


@pytest.mark.parametrize('n', range(1, 7))
def test_lattice_enumeration_matches_the_canonical_form_loop(n):
    assert ([_lattice_tables(lat) for lat in suite.enumerate_lattices(n)]
            == [_lattice_tables(lat) for lat in ref.enumerate_lattices(n)])


@pytest.mark.parametrize('n', range(1, 9))
def test_lattice_enumeration_matches_the_walk_and_search(n):
    """The orderly walk keeps, in order, the lattices that building every
    labelling of the walk and searching for isomorphisms kept: the same labels,
    order, join and meet tables."""
    assert ([_lattice_tables(lat) for lat in suite.enumerate_lattices(n)]
            == [_lattice_tables(lat) for lat in ref.enumerate_lattices_by_search(n)])


def _automorphism_scan(lattice):
    'The permutations p with leq[p[i], p[j]] = leq[i, j] for all i and j, in lexicographic order.'
    leq = lattice.poset.leq
    return [list(p) for p in permutations(range(len(leq))) if (leq[np.ix_(p, p)] == leq).all()]


@pytest.mark.parametrize('n', range(1, 7))
def test_the_automorphisms_are_those_of_the_permutation_scan(n):
    'Per lattice, the relabelling search finds every order automorphism the n! scan finds, once each.'
    for lattice in suite.enumerate_lattices(n):
        found = [sigma.tolist() for sigma in suite._automorphisms(lattice)]
        assert found[0] == list(range(n))
        assert sorted(found) == _automorphism_scan(lattice)


SYMMETRIC_LATTICES = [lat for n in range(3, 7) for lat in suite.enumerate_lattices(n)
                      if len(suite._automorphisms(lat)) > 1]


@CASES
@given(st.data())
def test_the_automorphism_test_keeps_what_the_isomorphism_search_keeps(data):
    """On a stack of drawn commutative tables and their relabellings by drawn
    automorphisms, in a drawn order, a table is kept exactly when the search
    maps no earlier table of the stack onto it."""
    lattice = data.draw(st.sampled_from(SYMMETRIC_LATTICES))
    n, leq = len(lattice), lattice.poset.leq
    scan = _automorphism_scan(lattice)
    tables = []
    for _ in range(data.draw(st.integers(1, 3))):
        entries = data.draw(st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n))
        table = np.triu(np.array(entries, dtype=np.intp).reshape(n, n))
        table += np.triu(table, 1).T
        tables.append(table)
        tables += [permuted(lattice, table, p)[1] for p in data.draw(
            st.lists(st.sampled_from(scan), max_size=4))]
    distinct = list({table.tobytes(): table for table in tables}.values())
    stack = np.array([distinct[i] for i in data.draw(st.permutations(range(len(distinct))))])
    expected = [all(_isomorphism((leq, stack[j]), (leq, stack[k])) is None for j in range(k))
                for k in range(len(stack))]
    assert suite._first_of_each_class(stack, suite._automorphisms(lattice)).tolist() == expected


def test_quantale_enumeration_matches_the_canonical_form_loop():
    def tables(quantales):
        return [(q.elements, q.lattice.poset.leq.tolist(), q.mul_table.tolist()) for q in quantales]

    assert tables(ENUMERATED) == tables(ref.enumerate_quantales(5))


@pytest.mark.parametrize('n', range(1, 8))
def test_quantale_enumeration_matches_the_per_table_loop(n):
    """Validating each lattice's candidates as one stack keeps, in order, the
    classes that a Quantale per table kept: the same elements, order matrix
    and table, each frozen; at six elements that still takes in the class of
    the table the sorted-triple scan misses (ROADMAP item 1)."""
    def tables(quantales):
        return [(q.elements, q.poset.leq.tolist(), q.mul_table.tolist()) for q in quantales]

    ours = suite.enumerate_quantales(n, bound=n)
    assert tables(ours) == tables(ref.enumerate_quantales_per_table(n, bound=n))
    assert not any(q.mul_table.flags.writeable for q in ours)
    if n >= 6:
        missed = Quantale(*SORTED_SCAN_MISSES)
        assert any(find_quantale_isomorphism(q, missed) is not None for q in ours)


# ---------------------------------------------------------------------------
# enumeration: the backtracking fill and the walk over bounded orders

def _accepted(lattice, candidates):
    'The candidate tables Quantale accepts, in the order they come.'
    out = []
    for mul in candidates:
        try:
            Quantale(lattice, mul)
        except AxiomError:
            continue
        out.append(mul.tolist())
    return out


FILL_POOL = [lat for lat in LATTICES if len(lat) <= 6]


@pytest.mark.parametrize('lattice', FILL_POOL)
@settings(max_examples=25, deadline=None)
@given(st.data())
def test_the_fill_keeps_what_the_cartesian_loop_keeps(lattice, data):
    # a relabelling moves the top and the bottom away from the ends
    order = data.draw(st.permutations(range(len(lattice))))
    lattice = permuted(lattice, lattice.meet_table, order)[0]
    filled = [mul.tolist() for mul in suite._mul_candidates(lattice)]
    # the fill prunes by the validator's own laws, so it yields only tables that Quantale accepts
    assert (filled == _accepted(lattice, suite._mul_candidates(lattice))
            == _accepted(lattice, ref.mul_candidates(lattice)))


def test_the_fill_keeps_the_table_the_sorted_scan_misses():
    'A prune by every associativity triple would cut this table, which Quantale accepts.'
    lattice, table = SORTED_SCAN_MISSES
    assert [table.tolist()] == [
        mul.tolist() for mul in suite._mul_candidates(lattice) if np.array_equal(mul, table)]


def _bounded_masks(n):
    'The relations of the mask scan that are orders with 0 at the bottom and n - 1 at the top.'
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(slots)):
        rel = np.eye(n, dtype=bool)
        for bit, (i, j) in enumerate(slots):
            rel[i, j] = bool(mask >> bit & 1)
        transitive = not (((rel.astype(int) @ rel) > 0) & ~rel).any()
        if transitive and rel[0].all() and rel[:, n - 1].all():
            yield rel.tolist()


def _first_mask_of_each_class(relations):
    'The relations not isomorphic to an earlier one; each fixes 0 and n - 1, so only the rest move.'
    seen, out = set(), []
    for rel in relations:
        n = len(rel)
        canon = min(tuple(rel[p[i]][p[j]] for i in range(n) for j in range(n))
                    for p in ([0] + list(q) + [n - 1] for q in permutations(range(1, n - 1))))
        if canon not in seen:
            seen.add(canon)
            out.append(rel)
    return out


@pytest.mark.parametrize('n', range(1, 7))
def test_the_bounded_order_walk_matches_the_mask_scan(n):
    """The orderly walk yields the first mask of each class of bounded orders, in
    mask order: one per class of posets on n - 2 points (OEIS A000112)."""
    walked = [rel.tolist() for rel in suite._bounded_orders(n)]
    assert walked == _first_mask_of_each_class(_bounded_masks(n))
    assert len(walked) == [1, 1, 1, 2, 5, 16][n - 1]
    assert ([_lattice_tables(lat) for lat in suite.enumerate_lattices(n)]
            == [_lattice_tables(lat) for lat in ref.lattices_by_mask_scan(n)])


# ---------------------------------------------------------------------------
# instance documents

class _Triple(list):
    'A list subclass, which the reader takes as a list, as the triple loop did.'


def _document_outcome(read, doc):
    'What reading a document returns, or the class, message, location, axiom and witness it raises.'
    try:
        q = read(doc)
    except io.InstanceError as exc:
        return ('raised', type(exc), str(exc), getattr(exc, 'location', None),
                getattr(exc, 'axiom', None), getattr(exc, 'witness', None))
    return 'returned', q.elements, q.lattice.poset.leq.tolist(), q.mul_table.tolist()


def _reads_like_the_loop(doc):
    assert _document_outcome(io.instance_from_dict, doc) == _document_outcome(
        ref.instance_from_dict, doc)


@st.composite
def mutated_documents(draw):
    """A fuzzed document whose order list then gets a few of: a junk entry, a
    pair too short or too long, a non-string or undeclared label, two labels
    joined into one string.  Its product list then gets a few of: an entry
    repeated later with another product, an entry repeated later with x and y
    swapped, a conflicting repeat followed by a non-list entry, entries of a
    list subclass."""
    doc = draw(documents())
    if not isinstance(doc, dict):
        return doc
    elements = doc.get('elements')
    names = [e for e in elements if isinstance(e, str)] if isinstance(elements, list) else []
    names = names or ['a']
    pairs = doc.get('leq')
    for _ in range(draw(st.sampled_from([0, 0, 1, 2])) if isinstance(pairs, list) else 0):
        lower, upper = draw(st.sampled_from(names)), draw(st.sampled_from(names))
        entry = draw(st.one_of(junk, st.sampled_from([
            [lower], [lower, upper, upper], [lower, 1], [None, upper], [lower, 'nowhere'],
            lower + upper])))
        pairs.insert(draw(st.integers(0, len(pairs))), entry)
    triples = doc.get('mul')
    if not isinstance(triples, list):
        return doc
    for _ in range(draw(st.integers(0, 3))):
        entries = [k for k, t in enumerate(triples) if isinstance(t, list) and len(t) == 3]
        if not entries:
            break
        kind = draw(st.sampled_from(['repeat', 'swap', 'junk', 'subclass', 'all subclass']))
        k = draw(st.sampled_from(entries))
        x, y, z = triples[k]
        other = draw(st.sampled_from([v for v in names if v != z] or names))
        at = draw(st.integers(k + 1, len(triples)))
        if kind == 'repeat':
            triples.insert(at, [x, y, other])
        elif kind == 'swap':
            triples.insert(at, [y, x, draw(st.sampled_from([z, other]))])
        elif kind == 'junk':
            triples[at:at] = [[x, y, other], draw(junk.filter(lambda v: not isinstance(v, list)))]
        elif kind == 'subclass':
            triples[k] = _Triple(triples[k])
        else:
            triples[:] = [_Triple(t) if isinstance(t, list) else t for t in triples]
    return doc


@settings(max_examples=400, deadline=None)
@given(mutated_documents())
@example({'elements': ['0', '1'], 'leq': [['0', '1']],
          'mul': [_Triple(['0', '0', '0']), ['0', '0', '1'], 7]})
@example({'elements': ['0', '1'], 'leq': [['0', '1']], 'mul': [['0', '0', '0'], 7,
                                                            ['0', '0', '1']]})
@example({'elements': ['a', 'b'], 'leq': [['a', 'b'], 'ab'], 'mul': [['a', 'a', 'a']]})
@example({'elements': ['a', 'b'], 'leq': [['a', 'nowhere'], ['a']], 'mul': []})
def test_parse_matches_the_triple_loop_on_mutated_documents(doc):
    _reads_like_the_loop(doc)


def _larger_documents(spec):
    """An emitted document and copies of it that are read the same way in another
    order, or that fail in each way the reader names, late in the product list."""
    q = io.generate(spec)
    doc = json.loads(io.emit_instance(q))
    unit = q.label(q.top)
    triples = doc['mul']
    rng = np.random.default_rng(len(triples))

    def variant(mul):
        return dict(doc, mul=mul)

    x, y, z = next(t for t in reversed(triples) if t[0] != t[1])
    other = next(v for v in doc['elements'] if v != z)
    a, b, c = triples[0]
    early = [a, b, next(v for v in doc['elements'] if v != c)]
    half = len(triples) // 2
    shuffled = [triples[k] for k in rng.permutation(len(triples))]
    yield doc
    yield variant([[b, a, c] if rng.random() < 0.5 else [a, b, c] for a, b, c in shuffled])
    yield variant(triples + [[b, a, c] for a, b, c in triples])
    yield variant([_Triple(t) for t in triples])
    yield variant(triples + [[x, y, other]])
    # two conflicts, each one first in document order once
    yield variant(triples[:half] + [early] + triples[half:] + [[x, y, other]])
    yield variant(triples[:half] + [[x, y, other]] + triples[half:] + [early])
    yield variant(triples[:half] + [[x, y, other]] + triples[half:] + [None])
    yield variant(triples[:half] + ['[x, y, xy]'] + triples[half:] + [[x, y, other]])
    yield variant(triples[:half] + [[x, y]] + triples[half:])
    yield variant(triples[:half] + [[x, 'nowhere', z]] + triples[half:])
    yield variant(triples[:half] + [[x, y, 1]] + triples[half:])
    yield variant(triples[:-1])
    yield variant(triples + [[x, unit, x], [unit, unit, unit]])
    yield variant(triples + [[unit, x, other]])
    yield variant(triples + [[y, x, other]])


@pytest.mark.parametrize('spec', ['zn:720', 'boolean:5', 'product:zn:12;zn:30'])
def test_parse_matches_the_triple_loop_on_larger_documents(spec):
    for doc in _larger_documents(spec):
        _reads_like_the_loop(doc)


# ---------------------------------------------------------------------------
# the emitted document against json.dumps of the document as lists

def _renamed(q, labels):
    'q with new element labels.'
    return Quantale(FiniteLattice(FinitePoset(labels, q.lattice.poset.leq)), q.mul_table)


# quotes, backslashes, escapes, non-ASCII inside and outside the basic plane,
# a lone surrogate, a line separator, and text that looks like JSON
ODD_LABELS = ['"', '\\', '\\"', 'a"b\\c', '\u00e9', '\u65e5\u672c', '\U0001f600', '\ud800',
              '\n\t\x00\x7f', '\u2028', '', ' ', '{"k": [1, 2]}', '[\n]', 'x' * 300]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(QUANTALES), st.data())
@example(D12, None)
def test_emitted_text_matches_the_json_dump(q, data):
    """Pool quantales as they are and renamed with drawn labels and the odd ones
    above; the emitted text must also read back to the same quantale."""
    if data is None:
        labels, generator = (ODD_LABELS * 2)[:len(q)][:-1] + ['zn:12'], '\\"\u00e9\n'
    else:
        labels = data.draw(st.lists(st.text() | st.sampled_from(ODD_LABELS),
                                    min_size=len(q), max_size=len(q), unique=True))
        generator = data.draw(st.none() | st.text() | st.sampled_from(ODD_LABELS))
    renamed = _renamed(q, labels)
    for each in (q, renamed):
        for gen in (None, generator):
            assert io.emit_instance(each, gen) == ref.emit_instance(each, gen)
    again = io.parse_instance(io.emit_instance(renamed, generator))
    assert again.elements == renamed.elements
    assert again.lattice.poset.leq.tolist() == renamed.lattice.poset.leq.tolist()
    assert again.mul_table.tolist() == renamed.mul_table.tolist()


def test_emitted_text_matches_the_json_dump_for_labels_that_are_not_strings():
    'Numbers, constants and tuples, which json.dumps writes as nested lists.'
    labels = [7, -3, 2.5, float('inf'), True, None, (), ('a',), ('a', (2, 'b"')), 10 ** 20,
              '(7,)', 'x']
    q = _renamed(io.generate('zn:60'), labels)
    for gen in (None, 'zn:60', ('g', 1)):
        assert io.emit_instance(q, gen) == ref.emit_instance(q, gen)


@pytest.mark.parametrize('spec', ['zn:720', 'product:zn:12;boolean:3', 'chain:1,frame'])
def test_emitted_text_matches_the_json_dump_on_larger_instances(spec):
    q = io.generate(spec)
    for gen in (None, spec):
        assert io.emit_instance(q, gen) == ref.emit_instance(q, gen)
