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
The isomorphism search must find an isomorphism exactly when the n!
canonical forms it replaced agree, on relabelled enumerated quantales and
on relabelled lattices of at most five points, and enumeration must
return what the canonical-form loops returned, table for table.  The
backtracking fill must keep, in order, the tables the cartesian loop kept
on every relabelled lattice of at most five points and fixture lattice of
at most six, and the walk over bounded orders must give the lattices the
scan over every relation mask gave.
"""

import copy
from itertools import permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference_loops as ref
from quantales import io, suite
from quantales.lattices import (
    DistLattice, FiniteLattice, FinitePoset, LatticeError, LatticeMorphism, NotAnIdeal, blocks,
    is_distributive)
from quantales.oracles import has_id_blp, has_lp_per_anchor, lattice_is_id_local
from quantales.properties import _stranded, element_has_lp, has_lp, is_b_normal, is_normal
from quantales.lattices import build_lattice
from quantales.quantale import (
    AxiomError, Quantale, QuantaleError, QuantaleMorphism, RadicalFrame, _isomorphism,
    _laws_hold_on_irreducibles, decompose_by_elements,
    find_quantale_isomorphism, interval_quantale, product)
from quantales.reticulation import (
    Reticulation, _generator, _induced, _star, check_unicity, lift_morphism, reticulate, star,
    unstar)

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
    assert _laws_hold_on_irreducibles(lattice, mul) == _laws_hold_on_all_triples(lattice, mul)


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
    broken.lattice = copy.copy(q.lattice)
    setattr(broken.lattice, op + '_table', table)
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


def _interval_outcome(result):
    if result[0] == 'raised':
        return result
    part, u = result[1]
    return ('returned', part.carrier, part.to_interval, part.elements,
            part.mul_table.tolist(), u.mapping)


def _reference_interval_outcome(result):
    if result[0] == 'raised':
        return result
    carrier, position, part, u = result[1]
    return ('returned', carrier, position, part.elements, part.mul_table.tolist(), u.mapping)


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
    return ('returned', prod.elements, prod.lattice.poset.leq.tolist(), prod.mul_table.tolist(),
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


@CASES
@given(anchor_lists())
@example(WRONG_MEET)
def test_decompositions_match_the_loop(case):
    q, anchors = case
    assert _decomposition_outcome(decompose_by_elements, q, anchors) == (
        _decomposition_outcome(ref.decompose_by_elements, q, anchors))


@CASES
@given(st.sampled_from(QUANTALES), st.data())
def test_intervals_and_decompositions_of_a_copy_ignore_the_cache_it_shares(q, data):
    'A copy.copy of a quantale whose intervals are cached shares their dict; it must not read it.'
    n = len(q)
    for a in range(n):
        interval_quantale(q, a)
    maxima = list(q.maximal_elements)
    if maxima:
        decompose_by_elements(q, maxima)
    kind = data.draw(st.sampled_from(['table', 'join', 'meet']))
    broken = (_perturbed_table(data.draw, q) if kind == 'table'
              else _perturbed_bounds(data.draw, q, kind))
    assert broken._intervals is q._intervals
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
@example(_with_radicals(E54, _labelled(E54, [('x3', 'x0')])))  # join mismatch at x1, x2
@example(_with_radicals(W5, _labelled(W5, [('{z}', '{}')])))  # meet mismatch at {x,z}, {y,z}
def test_radical_frames_match_the_loop(q):
    ours, theirs = outcome(RadicalFrame, q), outcome(ref.radical_frame, q)
    if ours[0] == 'returned':
        frame, (carrier, lattice, to_frame) = ours[1], theirs[1]
        assert (frame.carrier, frame.to_frame) == (carrier, to_frame)
        assert frame.lattice.join_table.tolist() == lattice.join_table.tolist()
        # the loop looked radicals up among the frame's elements
        if set(q.radical_table) <= set(carrier):
            assert _mapping_outcome(lambda: frame.radical_morphism) == _mapping_outcome(
                ref.radical_morphism, q, to_frame, frame.as_quantale)
    else:
        assert ours == theirs


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
        # the reference lift reads it; every QuantaleMorphism preserves the unit
        self.unital = True

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
    """A reticulation, with its classes redrawn or not, a candidate lattice
    (its own, the radical frame's, or its own with the indices reversed) and a
    candidate map redrawn in a few places."""
    q = draw(st.sampled_from(QUANTALES))
    ret = reticulate(q)
    reversed_copy = DistLattice(FinitePoset(
        ret.lattice.elements[::-1], ret.lattice.poset.leq[::-1, ::-1]))
    lattice = draw(st.sampled_from([ret.lattice, q.radical_frame.lattice, reversed_copy]))
    lam = list(ret.lam)
    for _ in range(draw(st.integers(0, 3))):
        lam[draw(st.integers(0, len(q) - 1))] = draw(st.integers(0, len(lattice) - 1))
    if draw(st.booleans()):
        k = len(ret)
        classes = _classes(draw, len(q), k)
        ret = copy.copy(ret)
        ret.lam = tuple(classes)
        ret.classes = tuple(tuple(x for x in range(len(q)) if classes[x] == c) for c in range(k))
    return ret, lattice, tuple(lam)


def _unicity_join_failure():
    'The reticulation of Z/36 with the class of 3 moved to class 1: the join axiom fails at (2, 3).'
    ret = reticulate(io.generate('zn:36'))
    lam = list(ret.lam)
    lam[ret.source.index_of('3')] = 1
    return ret, ret.lattice, tuple(lam)


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


def test_quantale_enumeration_matches_the_canonical_form_loop():
    def tables(quantales):
        return [(q.elements, q.lattice.poset.leq.tolist(), q.mul_table.tolist()) for q in quantales]

    assert tables(ENUMERATED) == tables(ref.enumerate_quantales(5))


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


@pytest.mark.parametrize('n', range(1, 7))
def test_the_bounded_order_walk_matches_the_mask_scan(n):
    assert [rel.tolist() for rel in suite._bounded_orders(n)] == list(_bounded_masks(n))
    assert ([_lattice_tables(lat) for lat in suite.enumerate_lattices(n)]
            == [_lattice_tables(lat) for lat in ref.lattices_by_mask_scan(n)])
