"""Reference loops for the whole-table kernels.

These are the scalar loops the library used before its checks and its
derived structures (intervals, products, decompositions, radical frames,
maps on reticulation classes) and the lifting property (one interval per
anchor) became numpy kernels over whole tables, and
the lattice-side ideal layer (ideals as member sets, prime and maximal
ideals, quotients by an ideal, the star maps) that ideal generators read
through the meet-quantale replaced, and the enumeration that removed
duplicate isomorphism classes by n! canonical forms before the
isomorphism search did, and the generate-and-test enumeration (every
cartesian candidate table, every relation mask) that the backtracking fill
and the walk over bounded orders replaced.
They stay here as test oracles only: test_kernels.py requires every
kernel to give the same tables or verdict, or to raise the same exception
class with the same message and witness, as the loop it replaced, the
search to find an isomorphism exactly when the canonical forms agree, and
the fill and the walk to keep what the generate-and-test loops kept.  The
normality verdicts wrap quantales.oracles.normal_witness, the loop the
law suite uses too.
Nothing under src/ imports this module.
"""

from functools import cached_property
from itertools import permutations, product as cartesian

import numpy as np

from quantales.lattices import (
    DistLattice, FiniteLattice, FinitePoset, LatticeError, LatticeMorphism, NotALattice,
    NotAnIdeal, NotAPoset, Verdict)
from quantales.oracles import lattice_boolean_center, normal_witness
from quantales.quantale import (
    AxiomError, EmptyProduct, IntervalQuantale, NotAssociative, NotCommutative, NotDistributive,
    NotUnital, PreconditionFailed, Quantale, QuantaleError, QuantaleMorphism, _isomorphism,
    negation)
from quantales.reticulation import AxiomViolation, NotAReticulation, reticulate
from quantales.suite import BoundExceeded


def poset_checks(elements, leq):
    'The FinitePoset checks: reflexivity and antisymmetry in scan order, then transitivity.'
    elements = tuple(elements)
    n = len(elements)
    for i in range(n):
        if not leq[i, i]:
            raise NotAPoset('not reflexive at %r' % (elements[i],))
    for i in range(n):
        for j in range(i + 1, n):
            if leq[i, j] and leq[j, i]:
                raise NotAPoset(
                    'not antisymmetric: %r and %r' % (elements[i], elements[j]))
    two_step = (leq.astype(np.uint8) @ leq.astype(np.uint8)) > 0
    gap = two_step & ~leq
    if gap.any():
        i, j = (int(v[0]) for v in np.nonzero(gap))
        raise NotAPoset(
            'not transitive: missing %r <= %r' % (elements[i], elements[j]))


def covers(poset):
    'Hasse diagram edges as pairs (lower, upper) of indices.'
    n = len(poset)
    leq = poset.leq
    out = []
    for i in range(n):
        for j in range(n):
            if i == j or not leq[i, j]:
                continue
            between = any(
                leq[i, k] and leq[k, j] for k in range(n) if k != i and k != j)
            if not between:
                out.append((i, j))
    return tuple(out)


def _unique_bound(poset, i, j, upper):
    leq = poset.leq
    if upper:
        bounds = np.nonzero(leq[i] & leq[j])[0]
        extremal = [k for k in bounds if all(leq[k, m] for m in bounds)]
        kind = 'join'
    else:
        bounds = np.nonzero(leq[:, i] & leq[:, j])[0]
        extremal = [k for k in bounds if all(leq[m, k] for m in bounds)]
        kind = 'meet'
    if len(extremal) != 1:
        raise NotALattice('no %s for %r and %r' % (
            kind, poset.elements[i], poset.elements[j]))
    return int(extremal[0])


def lattice_tables(poset):
    'Join table, meet table, bottom and top as FiniteLattice built them.'
    n = len(poset)
    leq = poset.leq
    join = np.empty((n, n), dtype=np.intp)
    meet = np.empty((n, n), dtype=np.intp)
    for i in range(n):
        for j in range(i, n):
            join[i, j] = join[j, i] = _unique_bound(poset, i, j, upper=True)
            meet[i, j] = meet[j, i] = _unique_bound(poset, i, j, upper=False)
    bottoms = [k for k in range(n) if leq[k].all()]
    tops = [k for k in range(n) if leq[:, k].all()]
    # pairwise joins and meets force unique global bounds on a finite carrier
    assert len(bottoms) == 1 and len(tops) == 1
    return join, meet, bottoms[0], tops[0]


def is_distributive(lat):
    'Distributive law over all triples; the witness is the first failing (x, y, z).'
    n = len(lat)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = lat.meet(x, lat.join(y, z))
                rhs = lat.join(lat.meet(x, y), lat.meet(x, z))
                if lhs != rhs:
                    return Verdict(False, (lat.label(x), lat.label(y), lat.label(z)))
    return Verdict(True)


def lattice_morphism_checks(source, target, mapping):
    'The validation LatticeMorphism ran on a mapping, in its scan order.'
    mapping = tuple(int(m) for m in mapping)
    if len(mapping) != len(source):
        raise LatticeError('mapping length does not match source carrier')
    for x in range(len(source)):
        for y in range(x, len(source)):
            if mapping[source.join(x, y)] != target.join(mapping[x], mapping[y]):
                raise LatticeError('join not preserved at %r, %r' % (
                    source.label(x), source.label(y)))
            if mapping[source.meet(x, y)] != target.meet(mapping[x], mapping[y]):
                raise LatticeError('meet not preserved at %r, %r' % (
                    source.label(x), source.label(y)))
    if mapping[source.bottom] != target.bottom or mapping[source.top] != target.top:
        raise LatticeError('bounds not preserved')


def validate(lattice, mul):
    'The quantale axioms in the order Quantale._validate scanned them.'
    n = len(lattice)
    lab = lattice.label
    for i in range(n):
        for j in range(i + 1, n):
            if mul[i, j] != mul[j, i]:
                raise NotCommutative(
                    'x*y != y*x at (%r, %r)' % (lab(i), lab(j)), (lab(i), lab(j)))
    top = lattice.top
    for x in range(n):
        if mul[x, top] != x:
            raise NotUnital('x*1 != x at %r' % (lab(x),), (lab(x),))
    bottom = lattice.bottom
    for x in range(n):
        # multiplying by the empty join must give the empty join
        if mul[x, bottom] != bottom:
            raise NotDistributive('x*0 != 0 at %r' % (lab(x),), (lab(x),))
    for x in range(n):
        for y in range(n):
            for z in range(y, n):
                j = lattice.join(y, z)
                if mul[x, j] != lattice.join(mul[x, y], mul[x, z]):
                    raise NotDistributive(
                        'x*(y v z) != x*y v x*z at (%r, %r, %r)' % (lab(x), lab(y), lab(z)),
                        (lab(x), lab(y), lab(z)))
    for x in range(n):
        for y in range(x, n):
            for z in range(y, n):
                if mul[mul[x, y], z] != mul[x, mul[y, z]]:
                    raise NotAssociative(
                        '(x*y)*z != x*(y*z) at (%r, %r, %r)' % (lab(x), lab(y), lab(z)),
                        (lab(x), lab(y), lab(z)))


def stable_power(q, a):
    'Limit of the descending chain a >= a^2 >= a^3 >= ...'
    prev = a
    nxt = q.mul(a, a)
    while nxt != prev:
        prev, nxt = nxt, q.mul(nxt, a)
    return prev


def maximal_candidates(q):
    n = len(q)
    return tuple(
        m for m in range(n) if m != q.top
        and all(x == q.top or x == m for x in range(n) if q.leq(m, x)))


def spectrum(q):
    'Indices below top where x*y <= p forces x <= p or y <= p, ascending.'
    n = len(q)
    out = []
    for p in range(n):
        if p == q.top:
            continue
        if all(q.leq(x, p) or q.leq(y, p)
               for x in range(n) for y in range(x, n)
               if q.leq(q.mul(x, y), p)):
            out.append(p)
    result = tuple(out)
    for m in maximal_candidates(q):
        # every maximal element is m-prime: a cover argument via distributivity
        assert m in result, 'maximal element %r is not m-prime' % (q.label(m),)
    return result


def center(q):
    'Indices of complemented elements: e v f = 1 and e*f = 0 for some f.'
    n = len(q)
    out = []
    for e in range(n):
        if any(q.join(e, f) == q.top and q.mul(e, f) == q.bottom
               for f in range(n)):
            out.append(e)
    out = tuple(out)
    for e in range(n):
        # cross-check the complement definition against e v (e -> 0) = 1
        assert (e in out) == (q.join(e, negation(q, e)) == q.top)
    for e in out:
        for x in range(n):
            # central elements multiply like meet
            assert q.mul(e, x) == q.meet(e, x)
    return out


def quantale_morphism_checks(source, target, mapping, unital=True):
    'The validation QuantaleMorphism ran on a mapping, in its scan order.'
    mapping = tuple(int(m) for m in mapping)
    if len(mapping) != len(source):
        raise QuantaleError('mapping length does not match source carrier')
    if mapping[source.bottom] != target.bottom:
        raise QuantaleError('bottom not preserved')
    for x in range(len(source)):
        for y in range(x, len(source)):
            if mapping[source.join(x, y)] != target.join(mapping[x], mapping[y]):
                raise QuantaleError('join not preserved at %r, %r' % (
                    source.label(x), source.label(y)))
            if mapping[source.mul(x, y)] != target.mul(mapping[x], mapping[y]):
                raise QuantaleError('multiplication not preserved at %r, %r' % (
                    source.label(x), source.label(y)))
    if unital and mapping[source.top] != target.top:
        raise QuantaleError('unit not preserved')


def reticulation_verify(ret):
    'The classwise laws Reticulation._verify checked, in its scan order.'
    source, lam, lattice = ret.source, ret.lam, ret.lattice
    n = len(source)
    if set(lam) != set(range(len(ret.classes))):
        raise AxiomViolation('class map is not surjective')
    for a in range(n):
        for b in range(n):
            joined = lam[source.join(a, b)]
            if joined != lattice.join(lam[a], lam[b]):
                raise AxiomViolation(
                    'join not classwise at %r, %r' % (source.label(a), source.label(b)))
            times = lam[source.mul(a, b)]
            if times != lattice.meet(lam[a], lam[b]):
                raise AxiomViolation(
                    'product does not meet classwise at %r, %r' % (
                        source.label(a), source.label(b)))
            below = lattice.leq(lam[a], lam[b])
            eventually = source.leq(stable_power(source, a), b)
            if below != eventually:
                raise AxiomViolation(
                    'power criterion fails at %r, %r' % (source.label(a), source.label(b)))
    if lam[source.bottom] != lattice.bottom or lam[source.top] != lattice.top:
        raise AxiomViolation('bounds not preserved by the class map')


def _normality_verdict(q, pool):
    witness = normal_witness(q, pool)
    if witness is None:
        return Verdict(True)
    return Verdict(False, tuple(q.label(i) for i in witness))


def is_normal(q):
    'Every cover a v b = 1 splits by e, f with a v e = b v f = 1 and e*f = 0.'
    return _normality_verdict(q, range(len(q)))


def is_b_normal(q):
    'Normality with the separating pair drawn from the Boolean center.'
    return _normality_verdict(q, q.center)


def interval_quantale(parent, anchor):
    'Carrier, positions, quantale and canonical surjection of [anchor), as the loops built them.'
    carrier = [x for x in range(len(parent)) if parent.leq(anchor, x)]
    sub = parent.lattice.poset.leq[np.ix_(carrier, carrier)]
    lattice = FiniteLattice(FinitePoset([parent.label(x) for x in carrier], sub))
    position = {x: i for i, x in enumerate(carrier)}
    mul = [[position[parent.join(parent.mul(x, y), anchor)] for y in carrier]
           for x in carrier]
    part = Quantale(lattice, mul)
    u = QuantaleMorphism(
        parent, part, tuple(position[parent.join(x, anchor)] for x in range(len(parent))))
    return tuple(carrier), position, part, u


def element_has_lp(q, a):
    'Whether [a) lifts its center, as the interval and its canonical surjection decided it.'
    _, _, part, u = interval_quantale(q, a)
    image = frozenset(u.mapping[e] for e in center(q))
    part_center = center(part)
    if not image <= frozenset(part_center):
        raise QuantaleError('a complemented element maps outside the target center')
    for e in part_center:
        if e not in image:
            return Verdict(False, part.label(e))
    return Verdict(True)


def has_lp(q):
    'Lifting property, one interval per anchor; witness (anchor, stranded element).'
    for a in range(len(q)):
        lifted = element_has_lp(q, a)
        if not lifted:
            return Verdict(False, (q.label(a), lifted.witness))
    return Verdict(True)


def product(factors):
    'Componentwise product quantale with its projection morphisms.'
    factors = list(factors)
    if not factors:
        raise EmptyProduct('need at least one factor')
    tuples = list(cartesian(*[range(len(f)) for f in factors]))
    position = {t: k for k, t in enumerate(tuples)}
    labels = ['(%s)' % ','.join(str(f.label(i)) for f, i in zip(factors, t))
              for t in tuples]
    leq = np.ones((1, 1), dtype=bool)
    for f in factors:
        # cartesian order puts the first factor outermost, as kron does
        leq = np.kron(leq, f.lattice.poset.leq)
    lattice = FiniteLattice(FinitePoset(labels, leq))
    mul = [[position[tuple(f.mul(i, j) for f, i, j in zip(factors, left, right))]
            for right in tuples] for left in tuples]
    prod = Quantale(lattice, mul)
    projections = [
        QuantaleMorphism(prod, f, tuple(t[k] for t in tuples))
        for k, f in enumerate(factors)]
    return prod, projections


def decompose_by_elements(q, anchors):
    'Isomorphism from the interval above the meet of the anchors onto the product of their intervals.'
    anchors = list(anchors)
    if not anchors:
        raise PreconditionFailed('need at least one element')
    for i in range(len(anchors)):
        for j in range(i + 1, len(anchors)):
            if q.join(anchors[i], anchors[j]) != q.top:
                raise PreconditionFailed(
                    'elements %d and %d do not join to top' % (i, j))
    base = q.meet_all(anchors)
    source = IntervalQuantale(q, base)
    parts = [IntervalQuantale(q, a) for a in anchors]
    if len(parts) == 1:
        target = parts[0]
        mapping = tuple(target.to_interval[x] for x in source.carrier)
    else:
        target, _ = product(parts)
        # the product was built over cartesian(*factor index ranges), so the
        # same tuple order recovers positions in its carrier
        tuples = list(cartesian(*[range(len(p)) for p in parts]))
        position = {t: k for k, t in enumerate(tuples)}
        mapping = tuple(
            position[tuple(p.to_interval[q.join(x, a)] for p, a in zip(parts, anchors))]
            for x in source.carrier)
    u = QuantaleMorphism(source, target, mapping)
    if len(set(u.mapping)) != len(source) or not u.is_surjective():
        raise QuantaleError('decomposition map is not bijective')
    return u


def radical_frame(parent):
    'Carrier, lattice and positions of the radical frame, after the checks RadicalFrame ran.'
    carrier = tuple(a for a in range(len(parent)) if parent.radical_of(a) == a)
    sub = parent.lattice.poset.leq[np.ix_(carrier, carrier)]
    labels = [parent.label(a) for a in carrier]
    lattice = DistLattice(FinitePoset(labels, sub))
    to_frame = {a: i for i, a in enumerate(carrier)}
    for i, a in enumerate(carrier):
        for j, b in enumerate(carrier):
            joined = carrier[lattice.join(i, j)]
            if joined != parent.radical_of(parent.join(a, b)):
                raise QuantaleError('radical join mismatch at %r, %r' % (
                    parent.label(a), parent.label(b)))
            if carrier[lattice.meet(i, j)] != parent.meet(a, b):
                raise QuantaleError('radical meet mismatch at %r, %r' % (
                    parent.label(a), parent.label(b)))
    if carrier[lattice.bottom] != parent.radical_of(parent.bottom):
        raise QuantaleError('frame bottom is not the radical of bottom')
    if carrier[lattice.top] != parent.top:
        raise QuantaleError('frame top is not the unit')
    return carrier, lattice, to_frame


def radical_morphism(parent, to_frame, frame_quantale):
    'The radical map onto the frame, as RadicalFrame.radical_morphism built it.'
    mapping = tuple(to_frame[parent.radical_of(a)] for a in range(len(parent)))
    return QuantaleMorphism(parent, frame_quantale, mapping)


def lift_morphism(u):
    'The induced map on reticulations of a unital quantale morphism.'
    if not u.unital:
        raise NotUnital('reticulation lifting needs a unital morphism', ())
    ra = reticulate(u.source)
    rb = reticulate(u.target)
    mapping = [None] * len(ra)
    for ci, members in enumerate(ra.classes):
        images = {rb.lam[u(c)] for c in members}
        if len(images) != 1:
            raise QuantaleError('lifted map is not well defined on class %d' % (ci,))
        mapping[ci] = images.pop()
    lifted = LatticeMorphism(ra.lattice, rb.lattice, tuple(mapping))
    for c in range(len(u.source)):
        if lifted(ra.lam[c]) != rb.lam[u(c)]:
            raise AxiomViolation('lifted map breaks the class maps at %r' % (u.source.label(c),))
    return lifted


def factor_through(quotient, r, p, lifted):
    'interval_reticulation_iso: the map on the quotient that the lifted map factors through.'
    mapping = [None] * len(quotient)
    for x in range(len(r.lattice)):
        qx = p(x)
        lx = lifted(x)
        if mapping[qx] is None:
            mapping[qx] = lx
        elif mapping[qx] != lx:
            raise QuantaleError('lifted map does not factor through the quotient')
    return tuple(mapping)


def check_unicity(reticulation, lattice, lam):
    'Isomorphism onto a candidate reticulation, after checking its axioms.'
    q = reticulation.source
    lam = tuple(int(x) for x in lam)
    n = len(q)
    if len(lam) != n:
        raise NotAReticulation('candidate map length does not match the carrier')
    if set(lam) != set(range(len(lattice))):
        raise NotAReticulation('candidate map is not surjective')
    for a in range(n):
        for b in range(n):
            if not lattice.leq(lam[q.join(a, b)], lattice.join(lam[a], lam[b])):
                raise NotAReticulation(
                    'candidate breaks the join axiom', (q.label(a), q.label(b)))
            if lam[q.mul(a, b)] != lattice.meet(lam[a], lam[b]):
                raise NotAReticulation(
                    'candidate breaks the product axiom', (q.label(a), q.label(b)))
            if lattice.leq(lam[a], lam[b]) != q.leq(q.stable_power(a), b):
                raise NotAReticulation(
                    'candidate breaks the power axiom', (q.label(a), q.label(b)))
    mapping = [None] * len(reticulation)
    for ci, members in enumerate(reticulation.classes):
        images = {lam[c] for c in members}
        if len(images) != 1:
            raise NotAReticulation(
                'candidate classes do not refine radical classes', (ci,))
        mapping[ci] = images.pop()
    iso = LatticeMorphism(reticulation.lattice, lattice, tuple(mapping))
    if not (iso.is_injective() and iso.is_surjective()):
        raise NotAReticulation('comparison map is not bijective')
    for c in range(n):
        if iso(reticulation.lam[c]) != lam[c]:
            raise NotAReticulation('comparison map breaks the class maps', (q.label(c),))
    return iso


class LatticeIdeal:
    'Join-closed down-set containing bottom; principal in any finite lattice.'

    def __init__(self, lattice, members):
        members = frozenset(int(m) for m in members)
        if lattice.bottom not in members:
            raise NotAnIdeal('ideal must contain bottom')
        for x in members:
            for k in range(len(lattice)):
                if lattice.leq(k, x) and k not in members:
                    raise NotAnIdeal('not downward closed at %r' % (lattice.label(k),))
            for y in members:
                if lattice.join(x, y) not in members:
                    raise NotAnIdeal('not join-closed at %r, %r' % (
                        lattice.label(x), lattice.label(y)))
        self.lattice = lattice
        self.members = members

    @cached_property
    def generator(self):
        'Largest member; the ideal is exactly its down-set.'
        return self.lattice.join_all(self.members)

    def labels(self):
        return tuple(self.lattice.label(i) for i in sorted(self.members))


def all_ideals(lat):
    'Every ideal, one per element since finite ideals are principal down-sets.'
    return [LatticeIdeal(lat, lat.down_set(x)) for x in range(len(lat))]


def principal_ideal(lat, x):
    return LatticeIdeal(lat, lat.down_set(x))


def prime_ideals(lat):
    'Proper ideals whose generator is meet-prime.'
    out = []
    n = len(lat)
    for p in range(n):
        if p == lat.top:
            continue
        prime = all(
            lat.leq(x, p) or lat.leq(y, p)
            for x in range(n) for y in range(n)
            if lat.leq(lat.meet(x, y), p))
        if prime:
            out.append(principal_ideal(lat, p))
    return out


def maximal_ideals(lat):
    'Maximal proper ideals; their generators are the coatoms of the carrier.'
    out = []
    n = len(lat)
    for m in range(n):
        if m == lat.top:
            continue
        if all(x == lat.top or x == m for x in range(n) if lat.leq(m, x)):
            out.append(principal_ideal(lat, m))
    return out


def quotient_by_ideal(lat, ideal):
    'Quotient by the congruence a ~ b iff a v e = b v e for some ideal member e.'
    if ideal.lattice is not lat:
        raise NotAnIdeal('ideal belongs to a different lattice')
    g = ideal.generator
    # joining with the generator dominates joining with any member, so classes
    # are the fibers of x |-> x v g and the quotient is the upper interval [g, 1]
    reps = [x for x in range(len(lat)) if lat.leq(g, x)]
    sub = lat.poset.leq[np.ix_(reps, reps)]
    quotient = DistLattice(FinitePoset([lat.label(x) for x in reps], sub))
    to_class = {x: qi for qi, x in enumerate(reps)}
    mapping = tuple(to_class[lat.join(x, g)] for x in range(len(lat)))
    return quotient, LatticeMorphism(lat, quotient, mapping)


def star(r, a):
    'Ideal of the classes of the elements below a.'
    members = {r.lam[c] for c in range(len(r.source)) if r.source.leq(c, a)}
    return LatticeIdeal(r.lattice, members)


def unstar(r, ideal):
    'Join of the elements whose class lies in the ideal.'
    if ideal.lattice is not r.lattice:
        raise NotAnIdeal('ideal does not live in this reticulation lattice')
    return r.source.join_all(c for c in range(len(r.source)) if r.lam[c] in ideal.members)


def has_id_blp(lat):
    'Whether complemented elements lift along every ideal quotient; witness is (ideal, stranded label).'
    center = lattice_boolean_center(lat)
    for ideal in all_ideals(lat):
        quotient, p = quotient_by_ideal(lat, ideal)
        lifted = {p(e) for e in center}
        for e in lattice_boolean_center(quotient):
            if e not in lifted:
                return Verdict(False, (ideal, quotient.label(e)))
    return Verdict(True)


def lattice_is_id_local(lat):
    'Exactly one maximal ideal.'
    return len(maximal_ideals(lat)) == 1


# ---------------------------------------------------------------------------
# enumeration by generate-and-test, as it was before the backtracking fill and
# the walk over bounded orders

def mul_candidates(lattice):
    'Symmetric unital tables within the derived bound x*y <= x^y.'
    n = len(lattice)
    top = lattice.top
    pairs = [(i, j) for i in range(n) for j in range(i, n) if top not in (i, j)]
    domains = [sorted(lattice.down_set(lattice.meet(i, j))) for i, j in pairs]
    for choice in cartesian(*domains):
        mul = np.empty((n, n), dtype=np.intp)
        mul[top] = np.arange(n)
        mul[:, top] = np.arange(n)
        for (i, j), value in zip(pairs, choice):
            mul[i, j] = mul[j, i] = value
        yield mul


def lattices_by_mask_scan(n):
    'All lattices on n points up to isomorphism, in a deterministic order.'
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = ['x%d' % i for i in range(n)]
    out = []
    for mask in range(1 << len(slots)):
        rel = np.eye(n, dtype=bool)
        for bit, (i, j) in enumerate(slots):
            # index order is a linear extension, so i < j covers every poset
            if mask >> bit & 1:
                rel[i, j] = True
        try:
            lattice = FiniteLattice(FinitePoset(labels, rel))
        except (NotAPoset, NotALattice):
            continue
        # non-distributive lattices have no meet-quantale, so compare tables
        tables = (lattice.poset.leq, lattice.meet_table)
        if all(_isomorphism(tables, (k.poset.leq, k.meet_table)) is None for k in out):
            out.append(lattice)
    return tuple(out)


# ---------------------------------------------------------------------------
# enumeration by n! canonical forms, as it was before the isomorphism search

def enumerate_lattices(n):
    'All lattices on n points up to isomorphism, in a deterministic order.'
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    labels = ['x%d' % i for i in range(n)]
    seen = set()
    out = []
    for mask in range(1 << len(slots)):
        rel = np.eye(n, dtype=bool)
        for bit, (i, j) in enumerate(slots):
            # index order is a linear extension, so i < j covers every poset
            if mask >> bit & 1:
                rel[i, j] = True
        try:
            lattice = FiniteLattice(FinitePoset(labels, rel))
        except (NotAPoset, NotALattice):
            continue
        canon = min(
            tuple(bool(rel[p[i], p[j]]) for i in range(n) for j in range(n))
            for p in permutations(range(n)))
        if canon not in seen:
            seen.add(canon)
            out.append(lattice)
    return tuple(out)


def relation_canon(lattice):
    'The canonical form enumerate_lattices computes inline: the least relabelled order relation.'
    n = len(lattice)
    rel = lattice.poset.leq
    return min(
        tuple(bool(rel[p[i], p[j]]) for i in range(n) for j in range(n))
        for p in permutations(range(n)))


def _canonical_form(q):
    n = len(q)
    leq = q.lattice.poset.leq
    mul = q.mul_table
    best = None
    for p in permutations(range(n)):
        inverse = [0] * n
        for new, old in enumerate(p):
            inverse[old] = new
        form = (
            tuple(bool(leq[p[i], p[j]]) for i in range(n) for j in range(n)),
            tuple(inverse[mul[p[i], p[j]]] for i in range(n) for j in range(n)))
        if best is None or form < best:
            best = form
    return best


def enumerate_quantales(max_size, bound=5):
    'Every quantale with at most max_size elements, one per isomorphism class.'
    if max_size > bound:
        raise BoundExceeded('size %d exceeds the enumeration bound %d' % (max_size, bound))
    out = []
    for n in range(1, max_size + 1):
        seen = set()
        for lattice in enumerate_lattices(n):
            for mul in mul_candidates(lattice):
                try:
                    q = Quantale(lattice, mul)
                except AxiomError:
                    continue
                canon = _canonical_form(q)
                if canon not in seen:
                    seen.add(canon)
                    out.append(q)
    return tuple(out)
