'Finite commutative unital quantales: axioms, spectra, radicals, centers, intervals, products.'

from __future__ import annotations

import operator
from functools import cached_property

import numpy as np

from quantales.lattices import (
    DistLattice, FiniteLattice, FinitePoset, blocks, distributivity_failure,
    first_in_blocks, first_law_failure, first_true, irreducibles_join_prime, unpreserved)


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


class Quantale:
    'Finite commutative quantale whose monoid unit is the lattice top.'

    def __init__(self, lattice, mul):
        mul = np.array(mul, dtype=np.intp)
        n = len(lattice)
        if mul.shape != (n, n):
            raise QuantaleError('multiplication table shape does not match carrier')
        if mul.size and (mul.min() < 0 or mul.max() >= n):
            raise QuantaleError('multiplication table entry out of range')
        self._validate(lattice, mul)
        mul.setflags(write=False)
        self.lattice = lattice
        self.mul_table = mul

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
        if _laws_hold_on_irreducibles(lattice, mul):
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

    @property
    def elements(self):
        return self.lattice.elements

    @property
    def bottom(self):
        return self.lattice.bottom

    @property
    def top(self):
        return self.lattice.top

    def __len__(self):
        return len(self.lattice)

    def label(self, i):
        return self.lattice.label(i)

    def index_of(self, label):
        return self.lattice.poset.index[label]

    def leq(self, i, j):
        return self.lattice.leq(i, j)

    def join(self, i, j):
        return self.lattice.join(i, j)

    def meet(self, i, j):
        return self.lattice.meet(i, j)

    def join_all(self, items):
        return self.lattice.join_all(items)

    def meet_all(self, items):
        return self.lattice.meet_all(items)

    def mul(self, i, j):
        return int(self.mul_table[i, j])

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
        n = len(self)
        leq = self.lattice.poset.leq
        mul = self.mul_table
        outside = ~leq
        broken = np.zeros(n, dtype=bool)
        for rows, cols in blocks(n, n):
            # [x, y, p]: x*y <= p while neither x nor y is below p
            bad = leq[mul[rows, cols]] & outside[rows, None, :] & outside[None, cols, :]
            broken |= bad.any(axis=(0, 1))
        broken[self.top] = True
        result = tuple(np.flatnonzero(~broken).tolist())
        for m in self.maximal_elements:
            # every maximal element is m-prime: a cover argument via distributivity
            if m not in result:
                raise QuantaleError('maximal element %r is not m-prime' % (self.label(m),))
        return result

    @cached_property
    def maximal_elements(self):
        'Elements whose up-set holds only themselves and top, ascending.'
        return tuple(np.flatnonzero(self.lattice.poset.leq.sum(axis=1) == 2).tolist())

    @cached_property
    def radical_table(self):
        'radical_table[a] = meet of the m-primes above a; empty meet is top.'
        return tuple(
            self.meet_all(p for p in self.spectrum if self.leq(a, p))
            for a in range(len(self)))

    def radical_of(self, a):
        return self.radical_table[a]

    @cached_property
    def center(self):
        'Indices of complemented elements: e v f = 1 and e*f = 0 for some f.'
        lattice = self.lattice
        leq, join, mul = lattice.poset.leq, lattice.join_table, self.mul_table
        annihilates = mul == self.bottom
        complemented = ((join == self.top) & annihilates).any(axis=1)
        # cross-check the complement definition against e v (e -> 0) = 1; the
        # negation e -> 0 joins the x with e*x = 0, and that join is the common
        # upper bound with the largest up-set
        bounds = ~(annihilates @ ~leq)
        negations = (bounds * leq.sum(axis=1)).argmax(axis=1)
        hit = first_true(complemented != (join[np.arange(len(self)), negations] == self.top))
        if hit is not None:
            raise QuantaleError('complements and negations disagree at %r' % (
                self.label(hit[0]),))
        # central elements multiply like meet
        hit = first_true((mul != lattice.meet_table) & complemented[:, None])
        if hit is not None:
            e, x = hit
            raise QuantaleError('central element %r does not multiply like meet with %r' % (
                self.label(e), self.label(x)))
        return tuple(np.flatnonzero(complemented).tolist())

    @cached_property
    def radical_frame(self):
        'Frame of radical elements with join a v. b = radical(a v b).'
        return RadicalFrame(self)

    @cached_property
    def _intervals(self):
        'IntervalQuantale per anchor index, filled by _interval_at.'
        return {}


def _laws_hold_on_irreducibles(lattice, mul):
    """Whether x*(y v j) = x*y v x*j and (x*y)*j = x*(y*j) for all x, y and every
    join-irreducible j, for a commutative table with x*0 = 0.

    That is distributivity and associativity over all triples: every z is the
    join of the j below it, so the first law extends from J to z one j at a
    time, and then both sides of the second preserve joins in z."""
    if (mul == lattice.meet_table).all():
        # meet is associative, so only the lattice's distributivity is left
        return irreducibles_join_prime(lattice)
    irreducibles = lattice.poset.join_irreducibles
    join = lattice.join_table
    # [x, j]: x*j and x v j
    times_j, join_j = mul[:, irreducibles], join[:, irreducibles]
    for rows, cols in blocks(len(mul), len(irreducibles)):
        # [x, y, j]: row x of mul read at y v j is x*(y v j), read at y*j it is x*(y*j)
        mul_rows, xy = mul[rows], mul[rows, cols]
        if ((mul_rows[:, join_j[cols]] != join[xy[:, :, None], times_j[rows, None, :]]).any()
                or (times_j[xy] != mul_rows[:, times_j[cols]]).any()):
            return False
    return True


def residuum(q, a, b):
    'Largest x with a*x <= b.'
    return q.join_all(x for x in range(len(q)) if q.leq(q.mul(a, x), b))


def negation(q, a):
    'Largest x with a*x = 0.'
    return residuum(q, a, q.bottom)


def jacobson_radical(q):
    'Meet of the maximal elements.'
    if len(q) == 1:
        raise TrivialQuantale('one-point carrier has no maximal elements')
    return q.meet_all(q.maximal_elements)


class RadicalFrame:
    'Frame on the radical elements; its join is the radical of the carrier join.'

    def __init__(self, parent):
        radical = np.asarray(parent.radical_table)
        carrier = tuple(np.flatnonzero(radical == np.arange(len(parent))).tolist())
        sub = parent.lattice.poset.leq[np.ix_(carrier, carrier)]
        labels = [parent.label(a) for a in carrier]
        self.parent = parent
        self.carrier = carrier
        self.lattice = DistLattice(FinitePoset(labels, sub))
        self.to_frame = {a: i for i, a in enumerate(carrier)}
        # [i, j]: the frame join against the radical of the carrier join, then
        # the frame meet against the carrier meet
        hit = first_law_failure(unpreserved(carrier, (
            (self.lattice.join_table, radical[parent.lattice.join_table]),
            (self.lattice.meet_table, parent.lattice.meet_table))))
        if hit is not None:
            i, j, law = hit
            raise QuantaleError('radical %s mismatch at %r, %r' % (
                ('join', 'meet')[law], parent.label(carrier[i]), parent.label(carrier[j])))
        if carrier[self.lattice.bottom] != parent.radical_of(parent.bottom):
            raise QuantaleError('frame bottom is not the radical of bottom')
        if carrier[self.lattice.top] != parent.top:
            raise QuantaleError('frame top is not the unit')

    @cached_property
    def as_quantale(self):
        'The frame as a quantale with multiplication equal to meet.'
        return Quantale(self.lattice, self.lattice.meet_table)

    @cached_property
    def radical_morphism(self):
        'The radical map as a surjective unital quantale morphism onto the frame.'
        return QuantaleMorphism(self.parent, self.as_quantale, np.searchsorted(
            self.carrier, self.parent.radical_table))


class QuantaleMorphism:
    'Map preserving finite joins, bottom, multiplication and the unit.'

    def __init__(self, source, target, mapping):
        mapping = tuple(int(m) for m in mapping)
        if len(mapping) != len(source):
            raise QuantaleError('mapping length does not match source carrier')
        if mapping[source.bottom] != target.bottom:
            raise QuantaleError('bottom not preserved')
        hit = first_law_failure(unpreserved(mapping, (
            (source.lattice.join_table, target.lattice.join_table),
            (source.mul_table, target.mul_table))))
        if hit is not None:
            x, y, law = hit
            raise QuantaleError('%s not preserved at %r, %r' % (
                ('join', 'multiplication')[law], source.label(x), source.label(y)))
        if mapping[source.top] != target.top:
            raise QuantaleError('unit not preserved')
        self.source = source
        self.target = target
        self.mapping = mapping

    def __call__(self, i):
        return self.mapping[i]

    @cached_property
    def image(self):
        return frozenset(self.mapping)

    def is_surjective(self):
        return len(self.image) == len(self.target)


def kernel(u):
    'Join of everything the morphism sends to bottom.'
    src = u.source
    return src.join_all(x for x in range(len(src)) if u(x) == u.target.bottom)


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
    'Quantale on the up-set of an anchor; products are relativized by joining the anchor.'

    def __init__(self, parent, anchor):
        carrier = np.flatnonzero(parent.lattice.poset.leq[anchor])
        sub = parent.lattice.poset.leq[np.ix_(carrier, carrier)]
        lattice = FiniteLattice(FinitePoset([parent.label(x) for x in carrier], sub))
        self.parent = parent
        self.anchor = anchor
        self.carrier = tuple(carrier.tolist())
        self.to_interval = {x: i for i, x in enumerate(self.carrier)}
        super().__init__(lattice, _into(self, parent.mul_table[np.ix_(carrier, carrier)]))

    @cached_property
    def surjection(self):
        'The canonical surjection x -> x v anchor from the parent onto the interval.'
        return QuantaleMorphism(self.parent, self, _into(self, np.arange(len(self.parent))))


def _into(part, xs):
    'Positions in the carrier of the interval part of x v anchor, for parent elements xs.'
    # the carrier ascends, so positions in it are found by bisection
    return np.searchsorted(part.carrier, part.parent.lattice.join_table[xs, part.anchor])


def _element_index(q, a):
    """a as a plain int, once it is known to index an element of q; a float or
    other non-integer is refused, and numpy would read a negative index from the end."""
    a = operator.index(a)
    if not 0 <= a < len(q):
        raise IndexError('element index %r out of range for %d elements' % (a, len(q)))
    return a


def _interval_at(q, a):
    'The quantale on [a) for an element index a, built once per quantale and shared.'
    part = q._intervals.get(a)
    # a copy.copy of a quantale shares its dict, whose parts name the original as parent
    if part is None or part.parent is not q:
        part = q._intervals[a] = IntervalQuantale(q, a)
    return part


def interval_quantale(q, a):
    'The quantale on [a) together with the canonical surjection x -> x v a.'
    part = _interval_at(q, _element_index(q, a))
    return part, part.surjection


def product(factors):
    'Componentwise product quantale with its projection morphisms.'
    factors = list(factors)
    if not factors:
        raise EmptyProduct('need at least one factor')
    sizes = tuple(len(f) for f in factors)
    # element k has the coordinates unravel_index(k, sizes): C order, first
    # factor outermost, as kron lays out the order
    coords = np.unravel_index(np.arange(np.prod(sizes, dtype=np.intp)), sizes)
    labels = ['(%s)' % ','.join(t) for t in zip(*(
        [str(f.label(i)) for i in c.tolist()] for f, c in zip(factors, coords)))]
    leq = np.ones((1, 1), dtype=bool)
    for f in factors:
        leq = np.kron(leq, f.lattice.poset.leq)
    lattice = FiniteLattice(FinitePoset(labels, leq))
    mul = np.ravel_multi_index(tuple(
        f.mul_table[c[:, None], c] for f, c in zip(factors, coords)), sizes)
    prod = Quantale(lattice, mul)
    projections = [QuantaleMorphism(prod, f, c) for f, c in zip(factors, coords)]
    return prod, projections


def decompose_by_elements(q, anchors):
    'Isomorphism from the interval above the meet of the anchors onto the product of their intervals.'
    anchors = list(anchors)
    if not anchors:
        raise PreconditionFailed('need at least one element')
    hit = first_true(np.triu(q.lattice.join_table[np.ix_(anchors, anchors)] != q.top, 1))
    if hit is not None:
        raise PreconditionFailed('elements %d and %d do not join to top' % hit)
    base = q.meet_all(anchors)
    source = _interval_at(q, base)
    parts = [_interval_at(q, a) for a in anchors]
    target = parts[0] if len(parts) == 1 else product(parts)[0]
    carrier = np.asarray(source.carrier)
    mapping = np.ravel_multi_index(
        tuple(_into(p, carrier) for p in parts), tuple(len(p) for p in parts))
    u = QuantaleMorphism(source, target, mapping)
    if len(set(u.mapping)) != len(source) or not u.is_surjective():
        raise QuantaleError('decomposition map is not bijective')
    return u


def _profile(leq, op):
    """Per element, invariants an isomorphism of (leq, op) preserves: the sizes of its
    down-set and up-set, how often op with it gives it back, and how often gives bottom."""
    n = len(leq)
    bottom = np.flatnonzero(leq.all(axis=1))[0]
    return list(zip(leq.sum(axis=0).tolist(), leq.sum(axis=1).tolist(),
                    (op == np.arange(n)[:, None]).sum(axis=1).tolist(),
                    (op == bottom).sum(axis=1).tolist()))


def _isomorphism(source, target):
    """Bijection carrying one (leq, op) pair of tables onto another, or None; op is
    commutative, and each element tries the targets of its profile in index order."""
    (src_leq, src_op), (tgt_leq, tgt_op) = source, target
    n = len(src_leq)
    if len(tgt_leq) != n:
        return None
    src_prof, tgt_prof = _profile(src_leq, src_op), _profile(tgt_leq, tgt_op)
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
    return _isomorphism((source.lattice.poset.leq, source.mul_table),
                        (target.lattice.poset.leq, target.mul_table))
