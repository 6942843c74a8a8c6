'Finite commutative unital quantales: axioms, spectra, radicals, centers, intervals, products.'

from __future__ import annotations

import math
import operator
from functools import cached_property, wraps

import numpy as np

from quantales.lattices import (
    FiniteLattice, FinitePoset, distributivity_failure, first_in_blocks, first_law_failure,
    first_true, irreducibles_join_prime, prime_mask, stack_blocks)


class QuantaleError(Exception):
    'Base for quantale validation failures.'


class AxiomError(QuantaleError):
    'A multiplication table axiom fails; the witness holds element labels.'

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class NotAssociative(AxiomError):
    pass


class NotCommutative(AxiomError):
    pass


class NotUnital(AxiomError):
    pass


class NotDistributive(AxiomError):
    pass


class TrivialQuantale(QuantaleError):
    'Operation needs at least two elements.'


class EmptyProduct(QuantaleError):
    'Product of no factors.'


class PreconditionFailed(QuantaleError):
    'Decomposition elements do not satisfy the meet or pairwise-join conditions.'


class Quantale(FiniteLattice):
    'Finite commutative quantale whose monoid unit is the lattice top.'

    def __init__(self, lattice, mul):
        mul = np.array(mul, dtype=np.intp)
        n = len(lattice)
        if mul.shape != (n, n):
            raise QuantaleError('multiplication table shape does not match carrier')
        if mul.size and (mul.min() < 0 or mul.max() >= n):
            raise QuantaleError('multiplication table entry out of range')
        self._validate(lattice, mul)
        self._adopt(lattice.poset, lattice.join_table, lattice.meet_table, lattice.bottom,
                    lattice.top, mul)

    def _adopt(self, poset, join, meet, bottom, top, mul):
        """Keep poset, the join, meet and multiplication tables, each the
        caller's own and frozen here, and the bounds, all unchecked: the one
        step by which a quantale takes its tables.

        The constructor adopts the tables of the lattice it has validated, and
        so does _quantales_on, the enumerator's, for each table of a stack
        that passed every check of the constructor, run over the whole stack.
        A derived quantale adopts tables read off a validated source through
        its index map and proves them by one map check instead.  Every quantale law
        is an equation in join, multiplication, bottom and top, and an equation
        that holds in the source holds in the image of an onto map that
        preserves those operations, and in a product whose factors satisfy it,
        coordinate by coordinate (Birkhoff, On the structure of abstract
        algebras, 1935)."""
        for table in (join, meet, mul):
            table.setflags(write=False)
        self.poset, self.join_table, self.meet_table, self.mul_table = poset, join, meet, mul
        self.bottom, self.top = int(bottom), int(top)

    @property
    def lattice(self):
        'The quantale itself, read as its lattice.'
        return self

    @staticmethod
    def _validate(lattice, mul):
        n = len(lattice)
        lab = lattice.label
        # the mask is symmetric, so its first entry has i < j
        hit = first_true(mul != mul.T)
        if hit is not None:
            i, j = hit
            raise NotCommutative(
                'x*y != y*x at (%r, %r)' % (lab(i), lab(j)), (lab(i), lab(j)))
        ar = np.arange(n)
        hit = first_true(mul[:, lattice.top] != ar)
        if hit is not None:
            x = hit[0]
            raise NotUnital('x*1 != x at %r' % (lab(x),), (lab(x),))
        bottom = lattice.bottom
        # multiplying by the empty join must give the empty join
        hit = first_true(mul[:, bottom] != bottom)
        if hit is not None:
            x = hit[0]
            raise NotDistributive('x*0 != 0 at %r' % (lab(x),), (lab(x),))
        if _laws_hold_on_irreducibles(lattice, mul[None])[0]:
            return
        # the scans below only name the witness of a refusal
        hit = distributivity_failure(mul, lattice.join_table)
        if hit is not None:
            x, y, z = (lab(i) for i in hit)
            raise NotDistributive(
                'x*(y v z) != x*y v x*z at (%r, %r, %r)' % (x, y, z), (x, y, z))

        def unassociative(rows, cols):
            xs, ys = ar[rows, None, None], ar[cols, None]
            # [x, y, z]: (x*y)*z against x*(y*z), over x <= y <= z only; that
            # compares two of the three bracketings of each triple, so a table
            # whose third bracketing differs passes (one six-chain table does)
            unequal = mul[mul[rows, cols]] != mul[xs, mul[cols]]
            return unequal & (xs <= ys) & (ys <= ar)

        hit = first_in_blocks(n, unassociative)
        if hit is not None:
            x, y, z = (lab(i) for i in hit)
            raise NotAssociative(
                '(x*y)*z != x*(y*z) at (%r, %r, %r)' % (x, y, z), (x, y, z))

    def index_of(self, label):
        return self.poset.index[label]

    def mul(self, i, j):
        return self.mul_table.item(i, j)

    @cached_property
    def stable_powers(self):
        'stable_powers[a] is the limit of the descending chain a >= a^2 >= a^3 >= ...'
        ar = np.arange(len(self))
        power, nxt = ar, self.mul_table[ar, ar]
        while (nxt != power).any():
            power, nxt = nxt, self.mul_table[nxt, ar]
        power.setflags(write=False)
        return power

    def stable_power(self, a):
        'Limit of the descending chain a >= a^2 >= a^3 >= ...'
        return int(self.stable_powers[a])

    @cached_property
    def spectrum(self):
        'Indices below top where x*y <= p forces x <= p or y <= p, ascending.'
        prime = prime_mask(self.poset, self.mul_table)
        prime[self.top] = False
        result = tuple(prime.nonzero()[0].tolist())
        for m in self.maximal_elements:
            # every maximal element is m-prime: a cover argument via distributivity
            if m not in result:
                raise QuantaleError('maximal element %r is not m-prime' % (self.label(m),))
        return result

    @cached_property
    def maximal_elements(self):
        'Elements whose up-set holds only themselves and top, ascending.'
        return tuple((self.poset.leq.sum(axis=1) == 2).nonzero()[0].tolist())

    @cached_property
    def radical_table(self):
        'radical_table[a] = meet of the m-primes above a; empty meet is top.'
        radical = np.full(len(self), self.top)
        meet, leq = self.meet_table, self.poset.leq
        for p in self.spectrum:
            below = leq[:, p]
            radical[below] = meet[radical[below], p]
        return tuple(radical.tolist())

    def radical_of(self, a):
        return self.radical_table[a]

    @cached_property
    def center(self):
        'Indices of complemented elements: e v f = 1 and e*f = 0 for some f.'
        join, mul = self.join_table, self.mul_table
        annihilates = mul == self.bottom
        complemented = ((join == self.top) & annihilates).any(axis=1)
        # cross-check against e v (e -> 0) = 1.  Every element below 1 lies
        # below a maximal one, so that fails exactly when some maximal m lies
        # above e and above e -> 0, that is above every x with e*x = 0.  The
        # boolean product is [e, m]: some x with e*x = 0 is not below m
        above = self.poset.leq[:, self.maximal_elements]
        shared = above & ~(annihilates @ ~above)
        hit = first_true(complemented != ~shared.any(axis=1))
        if hit is not None:
            raise QuantaleError('complements and negations disagree at %r' % (
                self.label(hit[0]),))
        # central elements multiply like meet
        hit = first_true((mul != self.meet_table) & complemented[:, None])
        if hit is not None:
            e, x = hit
            raise QuantaleError('central element %r does not multiply like meet with %r' % (
                self.label(e), self.label(x)))
        return tuple(complemented.nonzero()[0].tolist())

    @cached_property
    def radical_frame(self):
        'Frame of radical elements with join a v. b = radical(a v b).'
        return RadicalFrame(self)

    @cached_property
    def _element_profile(self):
        'Per element, the invariants _profile reads off the order and the multiplication.'
        return _profile(self.poset.leq, self.mul_table)

    @cached_property
    def _memo(self):
        'Intervals and verdicts, keyed by function and element index; see _once_per_quantale.'
        return {}

    def __copy__(self):
        """A shallow copy whose intervals and verdicts start empty, so that a
        copy given other tables decides them from those."""
        clone = object.__new__(type(self))
        clone.__dict__.update(self.__dict__)
        clone.__dict__.pop('_memo', None)
        return clone


def _laws_hold_on_irreducibles(lattice, mul):
    """Whether x*(y v j) = x*y v x*j for all x, y and every join-irreducible j,
    and (a*b)*c = (a*c)*b for all join-irreducibles a, b and c, for a
    commutative table with x*0 = 0.  mul is one n x n table, with one bool
    for it, or a (k, n, n) stack of them, with one bool per table.

    That is distributivity and associativity over all triples.  Every z is
    the join of the j below it (the empty join when z is the bottom), so the
    first law extends from J to z one j at a time.  Multiplying then
    preserves finite joins in each argument, empty joins included, and so do
    both sides of (x*y)*z = (x*z)*y in each of x, y and z: each side is the
    join of its values at the (a, b, c) in J x J x J below (x, y, z), and
    the two agree everywhere once they agree there.  For a commutative table
    that law is associativity: x*(y*z) = (y*z)*x = (y*x)*z = (x*y)*z."""
    stack = mul if mul.ndim == 3 else mul[None]
    rest = (stack != lattice.meet_table).any(axis=(1, 2))
    if rest.all():
        holds = _laws_hold_in_blocks(lattice, stack)
    else:
        # meet is associative, so only the lattice's distributivity is left
        holds = np.full(len(stack), irreducibles_join_prime(lattice))
        if rest.any():
            holds[rest] = _laws_hold_in_blocks(lattice, stack[rest])
    return holds if mul.ndim == 3 else bool(holds[0])


def _laws_hold_in_blocks(lattice, stack):
    'The two laws of _laws_hold_on_irreducibles, one bool per table of the stack.'
    k, n = len(stack), len(lattice)
    irreducibles = lattice.poset.join_irreducibles
    join = lattice.join_table
    # [t, x, j]: x*j in table t, and [x, j]: x v j; [t, a, b]: for a and b in J,
    # the row of a*b among the k * n rows of times_j read as one table
    times_j, join_j = stack[:, :, irreducibles], join[:, irreducibles]
    on_j = times_j[:, irreducibles] + np.arange(0, k * n, n)[:, None, None]
    rows_j = times_j.reshape(k * n, len(irreducibles))
    failed = np.zeros(k, dtype=bool)
    for tables, rows, cols in stack_blocks(k, n, len(irreducibles)):
        # a table too large to share a block spans many; one failure decides it
        if failed[tables.start]:
            continue
        t, pairs = stack[tables], on_j[tables]
        # [t, x, y, j]: row x of table t read at y v j is x*(y v j)
        unequal = t[:, rows][:, :, join_j[cols]] != join[t[:, rows, cols, None],
                                                          times_j[tables, rows, None, :]]
        # the blocks cover the positions of J x J among J as well: [t, a, b, c]
        # for the a and b at those positions is (a*b)*c, against (a*c)*b
        unassociative = rows_j[pairs[:, rows, cols]] != rows_j[:, cols][
            pairs[:, rows]].transpose(0, 1, 3, 2)
        failed[tables] = unequal.any(axis=(1, 2, 3)) | unassociative.any(axis=(1, 2, 3))
    return ~failed


def _admitted(lattice, stack):
    """Per table of a (k, n, n) stack, whether Quantale(lattice, table) accepts
    it with no witness scan: the constructor's checks of shape and entry
    range, and _validate's of commutativity, x*1 = x and x*0 = 0, each over
    the whole stack, then the laws over the join-irreducibles on the tables
    that passed them."""
    n = len(lattice)
    if stack.shape[1:] != (n, n):
        return np.zeros(len(stack), dtype=bool)
    ok = ((stack >= 0) & (stack < n)).all(axis=(1, 2))
    ok &= (stack == stack.transpose(0, 2, 1)).all(axis=(1, 2))
    ok &= (stack[:, :, lattice.top] == np.arange(n)).all(axis=1)
    ok &= (stack[:, :, lattice.bottom] == lattice.bottom).all(axis=1)
    if ok.all():
        return _laws_hold_on_irreducibles(lattice, stack)
    ok[ok] = _laws_hold_on_irreducibles(lattice, stack[ok])
    return ok


def _quantales_on(lattice, stack):
    """The quantale of each table of a (k, n, n) stack on lattice, in order.  A
    table _admitted passes is adopted as it stands, frozen.  Any other goes
    through the constructor, which raises what it raises on that table
    alone, or accepts it."""
    out = []
    for mul, ok in zip(stack, _admitted(lattice, stack)):
        if ok:
            q = Quantale.__new__(Quantale)
            q._adopt(lattice.poset, lattice.join_table, lattice.meet_table, lattice.bottom,
                     lattice.top, mul)
        else:
            q = Quantale(lattice, mul)
        out.append(q)
    return out


def residuum(q, a, b):
    'Largest x with a*x <= b.'
    return q.join_all(q.poset.leq[q.mul_table[a], b].nonzero()[0].tolist())


def negation(q, a):
    'Largest x with a*x = 0.'
    return residuum(q, a, q.bottom)


def jacobson_radical(q):
    'Meet of the maximal elements.'
    if len(q) == 1:
        raise TrivialQuantale('one-point carrier has no maximal elements')
    return q.meet_all(q.maximal_elements)


def _check_induced_order(q, error, what):
    """Raise error unless the order q stores is the one its tables induce:
    x <= y exactly when x v y = y, and exactly when x ^ y = x.  A derived
    lattice whose join and meet are read off a source, not off its order,
    runs this one mask to tie the two together."""
    ar = np.arange(len(q))
    leq = q.poset.leq
    hit = first_law_failure([leq != (q.join_table == ar), leq != (q.meet_table == ar[:, None])])
    if hit is not None:
        x, y, law = hit
        raise error('%s order is not the one its %s induces at %r, %r' % (
            what, ('join', 'meet')[law], q.label(x), q.label(y)))


class RadicalFrame(Quantale):
    """Frame on the radical elements; its join is the radical of the carrier join.

    The frame is the quantale whose multiplication is meet.  to_frame[x] is the
    position of the radical of the parent's element x in the carrier.  The join
    rho(x v y) and the meet, the parent's once the radicals are known to be
    closed under it, are read off the parent.  The radical map is then checked
    as a morphism onto the frame; it is onto, so the frame is its image and
    every quantale law of the parent holds there, meet for multiplication.
    _check_induced_order ties the order, the parent's restricted, to the tables."""

    def __init__(self, parent):
        radical = np.asarray(parent.radical_table)
        hit = first_true(radical[radical] != radical)
        if hit is not None:
            raise QuantaleError('the radical of %r is not a radical element' % (
                parent.label(hit[0]),))
        at = (radical == np.arange(len(parent))).nonzero()[0]
        grid = at[:, None], at
        carrier = self.carrier = tuple(at.tolist())
        self.parent = parent
        meet = parent.meet_table[grid]
        hit = first_true(radical[meet] != meet)
        if hit is not None:
            i, j = hit
            raise QuantaleError('radicals are not closed under meet at %r, %r' % (
                parent.label(carrier[i]), parent.label(carrier[j])))
        # every radical is a radical element, so positions in the carrier are
        # found by bisection
        into = self.to_frame = np.searchsorted(at, radical)
        into.setflags(write=False)
        meet = into[meet]
        self._adopt(
            FinitePoset._from_order([parent.label(a) for a in carrier], parent.poset.leq[grid]),
            into[parent.join_table[grid]], meet, into[parent.bottom], into[parent.top], meet)
        if carrier[self.top] != parent.top:
            raise QuantaleError('frame top is not the unit')
        _check_induced_order(self, QuantaleError, 'frame')
        self.radical_morphism = QuantaleMorphism(parent, self, into)


class QuantaleMorphism:
    'Map preserving finite joins, bottom, multiplication and the unit.'

    def __init__(self, source, target, mapping):
        self.target = target
        self._check(source, mapping)

    def _check(self, source, mapping):
        """Keep source and mapping once mapping is shown to preserve bottom,
        join, multiplication and the unit, each against _target_bounds and
        _target_at: the target's bounds, and one target table read at every
        pair of images."""
        mapping = tuple(map(int, mapping))
        if len(mapping) != len(source):
            raise QuantaleError('mapping length does not match source carrier')
        bottom, top = self._target_bounds()
        if mapping[source.bottom] != bottom:
            raise QuantaleError('bottom not preserved')
        f = np.asarray(mapping, dtype=np.intp)
        hit = first_law_failure([f[source.join_table] != self._target_at(f, 'join_table'),
                                 f[source.mul_table] != self._target_at(f, 'mul_table')])
        if hit is not None:
            x, y, law = hit
            raise QuantaleError('%s not preserved at %r, %r' % (
                ('join', 'multiplication')[law], source.label(x), source.label(y)))
        if mapping[source.top] != top:
            raise QuantaleError('unit not preserved')
        self.source = source
        self.mapping = mapping

    def _target_bounds(self):
        return self.target.bottom, self.target.top

    def _target_at(self, f, table):
        'The target table named table at [f[x], f[y]], per pair (x, y) of the source.'
        return getattr(self.target, table)[f[:, None], f]

    def _target_size(self):
        return len(self.target)

    def __call__(self, i):
        return self.mapping[i]

    @cached_property
    def image(self):
        return frozenset(self.mapping)

    def is_surjective(self):
        return len(self.image) == self._target_size()

    def is_bijective(self):
        return len(self.source) == len(self.image) == self._target_size()


class _CoordinateMorphism(QuantaleMorphism):
    """The map of decompose_by_elements into the product of parts, checked
    through its coordinates: coords[i][x] is the position of x v anchor in
    part i, for each of the source's elements x, and the map sends x to the
    product element ravel_multi_index of those coordinates.

    The product's tables are the parts' taken componentwise, so its table at a
    pair of images is the parts' tables read at their coordinates, entry for
    entry; the check reads those and its bounds, the parts' raveled, and never
    builds the product.  target builds it the first time it is read."""

    def __init__(self, source, parts):
        carrier = np.asarray(source.carrier)
        self.parts = tuple(parts)
        self.sizes = tuple(len(p) for p in parts)
        self.coords = tuple(p.to_interval[carrier] for p in parts)
        self._check(source, np.ravel_multi_index(self.coords, self.sizes))

    def _target_bounds(self):
        return tuple(np.ravel_multi_index(
            tuple((p.bottom, p.top) for p in self.parts), self.sizes).tolist())

    def _target_at(self, f, table):
        return _componentwise([getattr(p, table) for p in self.parts], self.coords, self.sizes)

    def _target_size(self):
        return math.prod(self.sizes)

    @cached_property
    def target(self):
        return _product(self.parts)[0]


def kernel(u):
    'Join of everything the morphism sends to bottom.'
    return u.source.join_all(
        (np.asarray(u.mapping) == u.target.bottom).nonzero()[0].tolist())


def is_injective(u):
    'Injectivity, cross-checked against the kernel-is-zero criterion.'
    direct = len(set(u.mapping)) == len(u.source)
    via_kernel = kernel(u) == u.source.bottom
    # agreement holds for the morphisms this workbench constructs (interval
    # surjections, projections, isomorphisms); a mismatch means the caller
    # built a morphism outside that family, where the criterion can fail
    if direct != via_kernel:
        raise QuantaleError('kernel criterion disagrees with direct injectivity')
    return direct


class IntervalQuantale(Quantale):
    """Quantale on the up-set of an anchor: the parent's operations, each joined with the anchor.

    to_interval[x] is the position of x v anchor in the carrier, for each of the
    parent's elements x.  [anchor) is a sublattice, so its order, join and meet
    are the parent's restricted.  Its multiplication is read off the parent's
    through x -> x v anchor, the surjection, which is checked as a morphism
    when the interval is built; it is onto, so the interval is its image and
    every quantale law of the parent holds there."""

    def __init__(self, parent, anchor):
        poset = parent.poset
        carrier = poset.leq[anchor].nonzero()[0]
        grid = carrier[:, None], carrier
        self.parent = parent
        self.anchor = anchor
        self.carrier = tuple(carrier.tolist())
        # the carrier ascends, so positions in it are found by bisection
        into = self.to_interval = np.searchsorted(carrier, parent.join_table[:, anchor])
        into.setflags(write=False)
        # [anchor) is an up-set, so its order and its covers are the parent's
        # restricted to it, and a sublattice, so its join and meet are the
        # parent's; like the products, they are read at their positions in the
        # carrier after joining the anchor, which leaves x v y and x ^ y alone
        self._adopt(
            FinitePoset._from_order([parent.label(x) for x in self.carrier], poset.leq[grid],
                                    poset._cover_matrix[grid]),
            into[parent.join_table[grid]], into[parent.meet_table[grid]],
            *np.searchsorted(carrier, (anchor, parent.top)), into[parent.mul_table[grid]])
        self.surjection = QuantaleMorphism(parent, self, into)


def _element_index(q, a):
    """a as a plain int, once it is known to index an element of q; a float or
    other non-integer is refused, and numpy would read a negative index from the end."""
    a = operator.index(a)
    if not 0 <= a < len(q):
        raise IndexError('element index %r out of range for %d elements' % (a, len(q)))
    return a


def _once_per_quantale(decide):
    """decide(q), or decide(q, a) for an element a, computed once per quantale
    and kept in q._memo for the quantale's lifetime: the intervals here and
    the verdicts of properties.py.  decide is given the element as its index,
    which is also its key, and nothing that raises is kept, so every call
    raises alike."""
    @wraps(decide)
    def kept(q, *element):
        key = (decide,) + tuple(_element_index(q, a) for a in element)
        memo = q._memo
        if key not in memo:
            memo[key] = decide(q, *key[1:])
        return memo[key]
    return kept


@_once_per_quantale
def _interval_at(q, a):
    'The quantale on [a), built once per quantale and shared.'
    return IntervalQuantale(q, a)


def interval_quantale(q, a):
    'The quantale on [a) together with the canonical surjection x -> x v a.'
    part = _interval_at(q, a)
    return part, part.surjection


def _product(factors):
    """Componentwise product quantale, and per factor the coordinate of each of
    its elements: element k has the coordinates unravel_index(k, sizes).

    The factors are quantales already, and every quantale law is an equation
    that holds in the product exactly when it holds coordinate by coordinate,
    so the componentwise tables are adopted without a check."""
    factors = list(factors)
    if not factors:
        raise EmptyProduct('need at least one factor')
    sizes = tuple(len(f) for f in factors)
    coords = np.unravel_index(np.arange(np.prod(sizes, dtype=np.intp)), sizes)
    labels = ['(%s)' % ','.join(t) for t in zip(*(
        [str(f.label(i)) for i in c.tolist()] for f, c in zip(factors, coords)))]
    leq, cover = np.ones((1, 1), dtype=bool), np.zeros((1, 1), dtype=bool)
    for f in factors:
        # [x, y, x', y']: x <= x' and y <= y', C order with the first factor
        # outermost; (x', y') covers (x, y) when x' covers x and y' = y, or
        # when x' = x and y' covers y
        f_leq, f_cover = f.poset.leq, f.poset._cover_matrix
        m, k = len(leq), len(f_leq)
        eye_m, eye_k = np.eye(m, dtype=bool), np.eye(k, dtype=bool)
        leq = (leq[:, None, :, None] & f_leq[None, :, None, :]).reshape(m * k, m * k)
        cover = ((cover[:, None, :, None] & eye_k[None, :, None, :])
                 | (eye_m[:, None, :, None] & f_cover[None, :, None, :])).reshape(m * k, m * k)

    prod = Quantale.__new__(Quantale)
    prod._adopt(
        FinitePoset._from_order(labels, leq, cover),
        _componentwise([f.join_table for f in factors], coords, sizes),
        _componentwise([f.meet_table for f in factors], coords, sizes),
        np.ravel_multi_index([f.bottom for f in factors], sizes),
        np.ravel_multi_index([f.top for f in factors], sizes),
        _componentwise([f.mul_table for f in factors], coords, sizes))
    return prod, coords


def _componentwise(tables, coords, sizes):
    """The product of one table per factor, each read at the coordinates of its
    factor: [x, y] is the product element whose coordinate i is tables[i] at
    coords[i][x], coords[i][y]."""
    return np.ravel_multi_index(tuple(t[c[:, None], c] for t, c in zip(tables, coords)), sizes)


def product(factors):
    'Componentwise product quantale with its projection morphisms.'
    factors = list(factors)
    prod, coords = _product(factors)
    return prod, [QuantaleMorphism(prod, f, c) for f, c in zip(factors, coords)]


def decompose_by_elements(q, anchors):
    """Isomorphism from the interval above the meet of the anchors onto the
    product of their intervals, the morphism x -> (x v a for each anchor a).

    With one anchor the target is its interval.  With more, the map is checked
    through its coordinates in the intervals, as _CoordinateMorphism says, and
    bijectivity against the product of their sizes; the product is built only
    when the target is read."""
    anchors = [_element_index(q, a) for a in anchors]
    if not anchors:
        raise PreconditionFailed('need at least one element')
    # the first pair i < j in row-major order; a Python scan, since there are
    # few anchors and a mask costs more to build than to read here
    join, top = q.join_table, q.top
    hit = next(((i, j) for i, a in enumerate(anchors) for j in range(i + 1, len(anchors))
                if join.item(a, anchors[j]) != top), None)
    if hit is not None:
        raise PreconditionFailed('elements %d and %d do not join to top' % hit)
    source = _interval_at(q, q.meet_all(anchors))
    parts = [_interval_at(q, a) for a in anchors]
    if len(parts) == 1:
        part = parts[0]
        u = QuantaleMorphism(source, part, part.to_interval[np.asarray(source.carrier)])
    else:
        u = _CoordinateMorphism(source, parts)
    if not u.is_bijective():
        raise QuantaleError('decomposition map is not bijective')
    return u


def _profile(leq, op):
    """Per element, invariants an isomorphism of (leq, op) preserves: the sizes of its
    down-set and up-set, how often op with it gives it back, and how often gives bottom.
    op is one n x n table, with one profile, or a (k, n, n) stack, with one per table:
    the order half is read once, the table half in one reduction over the stack."""
    n = len(leq)
    bottom = leq.all(axis=1).nonzero()[0][0]
    down, up = leq.sum(axis=0).tolist(), leq.sum(axis=1).tolist()
    stack = op.reshape(-1, n, n)
    fixed = (stack == np.arange(n)[:, None]).sum(axis=2).tolist()
    zeros = (stack == bottom).sum(axis=2).tolist()
    profiles = [list(zip(down, up, f, z)) for f, z in zip(fixed, zeros)]
    return profiles if op.ndim == 3 else profiles[0]


def _isomorphism(source, target, profiles=None):
    """Bijection carrying one (leq, op) pair of tables onto another, or None; op is
    commutative, and each element tries the targets of its profile in index order.
    profiles, when given, holds the _profile of source and of target."""
    (src_leq, src_op), (tgt_leq, tgt_op) = source, target
    n = len(src_leq)
    if len(tgt_leq) != n:
        return None
    src_prof, tgt_prof = profiles or (_profile(src_leq, src_op), _profile(tgt_leq, tgt_op))
    if sorted(src_prof) != sorted(tgt_prof):
        return None
    src_leq, src_op, tgt_leq, tgt_op = (t.tolist() for t in (src_leq, src_op, tgt_leq, tgt_op))
    assignment = [-1] * n
    used = [False] * n

    def fits(x, y):
        return src_prof[x] == tgt_prof[y] and all(
            src_leq[x][z] == tgt_leq[y][assignment[z]]
            and src_leq[z][x] == tgt_leq[assignment[z]][y]
            for z in range(x)) and all(
                assignment[src_op[x][z]] == tgt_op[y][assignment[z]]
                for z in range(x) if src_op[x][z] < x)

    # depth first without recursion, so that carriers up to io.MAX_ELEMENTS fit the
    # interpreter's stack: assignment is the stack, tried[x] the next target for x
    tried = [0] * n
    x = 0
    while x >= 0:
        if x == n:
            if all(assignment[src_op[a][b]] == tgt_op[assignment[a]][assignment[b]]
                   for a in range(n) for b in range(a, n)):
                return tuple(assignment)
            x -= 1
        elif assignment[x] >= 0:
            used[assignment[x]] = False
            assignment[x] = -1
        else:
            y = next((y for y in range(tried[x], n) if not used[y] and fits(x, y)), None)
            if y is None:
                tried[x] = 0
                x -= 1
            else:
                assignment[x] = y
                used[y] = True
                tried[x] = y + 1
                x += 1
    return None


def find_quantale_isomorphism(source, target):
    'Bijection preserving order and multiplication, or None; backtracking search.'
    # a size mismatch is decided before either profile is computed
    if len(source) != len(target):
        return None
    return _isomorphism((source.poset.leq, source.mul_table),
                        (target.poset.leq, target.mul_table),
                        (source._element_profile, target._element_profile))
